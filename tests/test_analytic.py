"""Closed forms for the degenerate-qubit case and the weak-coupling limit.

The displaced-oscillator expressions are derived rather than tabulated,
so before anything else they are checked against the brute-force
propagator at random times (the admission test for using them as oracles
elsewhere).
"""

import numpy as np
import pytest

from rabichain.analytic import (
    ClosedFormDomainError,
    jc_population,
    lf_mean_photon,
    lf_period,
    lf_revival,
)
from rabichain.dynamics import (
    full_rabi_amplitudes,
    observables,
    run_trajectory,
)
from rabichain.model import FullState, RabiParams

DSC = RabiParams(omega0=0.0, omega=0.23, g=0.15, n_trunc=64)


def test_period_at_device_frequency():
    assert lf_period(DSC) == pytest.approx(27.318, abs=1e-3)


def test_period_trivial_values():
    assert lf_period(RabiParams(0.0, 2 * np.pi, 0.1, 8)) == pytest.approx(1.0, rel=1e-15)
    assert lf_period(RabiParams(0.0, 0.1, 0.0, 8)) == pytest.approx(62.83, abs=1e-2)


@pytest.mark.parametrize("func", [lf_period, lambda p: lf_revival(p, 1.0), lambda p: lf_mean_photon(p, 1.0)])
def test_closed_forms_refuse_detuned_qubit(func):
    with pytest.raises(ClosedFormDomainError):
        func(RabiParams(omega0=0.04, omega=0.23, g=0.15, n_trunc=8))


def test_revival_endpoints():
    period = lf_period(DSC)
    assert lf_revival(DSC, 0.0) == pytest.approx(1.0, abs=0)
    assert lf_revival(DSC, period) == pytest.approx(1.0, abs=1e-12)


def test_revival_at_half_period():
    # exp(-4 (0.15/0.23)^2); oracle-checked below before being relied on
    value = lf_revival(DSC, lf_period(DSC) / 2)
    assert value == pytest.approx(0.18244194768891, abs=1e-10)
    assert value == pytest.approx(0.1824, abs=5e-5)


def test_mean_photon_endpoints():
    assert lf_mean_photon(DSC, 0.0) == 0.0
    assert lf_mean_photon(DSC, lf_period(DSC) / 2) == pytest.approx(1.7013, abs=5e-5)
    zero_g = RabiParams(0.0, 0.23, 0.0, 8)
    assert lf_mean_photon(zero_g, 17.3) == 0.0


def test_closed_forms_against_brute_force_oracle():
    # mandatory admission test: 20 random times, agreement to 1e-6
    rng = np.random.default_rng(41)
    period = lf_period(DSC)
    initial = FullState.basis_state("e", 0, 64)
    times = rng.uniform(0.0, 2 * period, 20)
    amp_e, amp_g = full_rabi_amplitudes(DSC, initial, times)
    pr_ref = np.abs(amp_e[0]) ** 2
    assert np.abs(pr_ref - lf_revival(DSC, times)).max() < 1e-6
    mean_n = observables(amp_e, amp_g, initial)[3]
    assert np.abs(mean_n - lf_mean_photon(DSC, times)).max() < 1e-6


def test_periodicity_property():
    period = lf_period(DSC)
    t = np.linspace(0.0, period, 37)
    assert np.abs(lf_revival(DSC, t + period) - lf_revival(DSC, t)).max() < 1e-12
    assert np.abs(lf_mean_photon(DSC, t + period) - lf_mean_photon(DSC, t)).max() < 1e-12


def test_ranges():
    beta = 0.15 / 0.23
    t = np.linspace(0.0, 100.0, 4001)
    pr = lf_revival(DSC, t)
    n = lf_mean_photon(DSC, t)
    assert np.all((pr > 0) & (pr <= 1.0))
    assert np.all((n >= 0) & (n <= 4 * beta**2 + 1e-12))


# ---------------------------------------------------------------------------
# weak-coupling limit
# ---------------------------------------------------------------------------

def test_jc_endpoints():
    assert jc_population(0.2, 0.0) == 1.0
    assert jc_population(0.2, np.pi / 2 / 0.2) == pytest.approx(0.0, abs=1e-15)


def test_jc_limit_against_dynamics():
    g = 0.001
    params = RabiParams(omega0=1.0, omega=1.0, g=g, n_trunc=32)
    t_max = np.pi / g
    traj = run_trajectory(params, FullState.basis_state("e", 0, 32), t_max, t_max / 2000)
    assert np.abs(traj.p_e - jc_population(g, traj.t_grid)).max() < 1e-4
