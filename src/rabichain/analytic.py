"""Closed-form references for two solvable corners of the model.

For omega0 = 0 the Hamiltonian splits, in the qubit +/- basis, into two
displaced oscillators; all observables of the initial state |e>|0> are
then periodic with period T = 2 pi / omega and depend only on the
dimensionless displacement beta = g / omega:

    P_r(t)  = exp(-4 beta^2 sin^2(omega t / 2))
    <n>(t)  = 4 beta^2 sin^2(omega t / 2)

These expressions are derived, not quoted, so they are admitted as
oracles only after the agreement test against the brute-force propagator
(see tests and the validation suite).

The weak-coupling resonant limit is the textbook vacuum Rabi flopping
P_e(t) = cos^2(g t), valid for g much smaller than omega0 = omega.
"""

from __future__ import annotations

import math

import numpy as np

from .model import RabiParams


class ClosedFormDomainError(ValueError):
    """Raised when a closed form is evaluated outside its validity domain."""


def _require_degenerate(params: RabiParams, what: str) -> None:
    if params.omega0 != 0.0:
        raise ClosedFormDomainError(
            f"{what} is valid only for omega0 = 0, got omega0 = {params.omega0}"
        )


def lf_period(params: RabiParams) -> float:
    """Bounce period T = 2 pi / omega (requires omega0 = 0)."""
    _require_degenerate(params, "lf_period")
    return 2.0 * math.pi / params.omega


def lf_revival(params: RabiParams, t):
    """Revival probability of |e>|0> at distance t; scalar or array t."""
    _require_degenerate(params, "lf_revival")
    beta = params.g / params.omega
    return np.exp(-4.0 * beta**2 * np.sin(params.omega * np.asarray(t) / 2.0) ** 2)


def lf_mean_photon(params: RabiParams, t):
    """Mean photon number of |e>|0> at distance t; scalar or array t."""
    _require_degenerate(params, "lf_mean_photon")
    beta = params.g / params.omega
    return 4.0 * beta**2 * np.sin(params.omega * np.asarray(t) / 2.0) ** 2


def jc_population(g: float, t):
    """Resonant vacuum Rabi flopping P_e(t) = cos^2(g t).

    Caller is responsible for staying in the validity regime
    (omega0 = omega, g much smaller than omega0).
    """
    return np.cos(g * np.asarray(t)) ** 2
