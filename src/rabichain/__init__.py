"""Deep-strong-coupling Rabi dynamics on parity chains, plus a photonic
waveguide-array design tool.

Every name is imported from its own module, such as ``rabichain.model``
or ``rabichain.dynamics``.  Importing the package alone loads no numpy:
``rabichain.cli`` can set OpenBLAS' thread count before numpy loads it.
"""

__version__ = "0.1.0"
