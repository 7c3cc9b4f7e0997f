"""Deep-strong-coupling Rabi dynamics on parity chains, plus a photonic
waveguide-array design tool.

The names below are loaded on first use (PEP 562), so importing the
package loads no numpy: ``rabichain.cli`` can set OpenBLAS' thread count
before numpy loads it.
"""

from importlib import import_module

__version__ = "0.1.0"

_LAZY = {   # name: the submodule that defines it
    "FullState": "model",
    "RabiParams": "model",
    "lf_period": "analytic",
    "lf_revival": "analytic",
    "run_trajectory": "dynamics",
}

__all__ = sorted([*_LAZY, "__version__"])


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value   # found by plain lookup from now on
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
