"""Deep-strong-coupling Rabi dynamics on parity chains, plus a photonic
waveguide-array design tool."""

from .analytic import lf_period, lf_revival
from .dynamics import run_trajectory
from .model import FullState, RabiParams

__version__ = "0.1.0"

__all__ = [
    "FullState",
    "RabiParams",
    "__version__",
    "lf_period",
    "lf_revival",
    "run_trajectory",
]
