"""The validate properties against their figures computed the whole-trajectory way.

Each reference below is the property as it was computed from
``run_trajectory`` or from ``chain_reference_state`` at each time; the
property, which reads the block stream and evolves its times as one
grid, must give the same ``PropertyResult``, detail string included.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from rabichain import analytic, dynamics, validate
from rabichain.dynamics import build_chain, chain_reference_state, observables, run_trajectory
from rabichain.model import FullState, ParityChain, RabiParams, decompose
from rabichain.validate import DSC_PARAMS, PropertyResult, _random_state


def reference_unitarity():
    worst = 0.0
    for params in (
        DSC_PARAMS,
        RabiParams(omega0=0.08, omega=0.23, g=0.15, n_trunc=64),
        RabiParams(omega0=-0.2, omega=0.4, g=0.3, n_trunc=48),
    ):
        traj = run_trajectory(params, FullState.basis_state("e", 0, params.n_trunc), 300.0, 0.5)
        worst = max(worst, float(np.abs(traj.pnt.sum(axis=1) - 1.0).max()))
    return PropertyResult("unitarity (t <= 300 mm)", worst < 1e-10, f"max |norm-1| = {worst:.3e}")


def reference_energy_conservation():
    rng = np.random.default_rng(23)
    worst = 0.0
    for params in (DSC_PARAMS, RabiParams(omega0=0.1, omega=0.3, g=0.2, n_trunc=32)):
        state = _random_state(rng, params.n_trunc)
        chains = [build_chain(params, chain) for chain in ParityChain]
        scale = max(float(np.abs(h.eigenvalues).max()) for h in chains)
        energies = []
        for t in np.linspace(0.0, 120.0, 25):
            parts = decompose(chain_reference_state(params, state, float(t)))
            energies.append(sum(h.energy(part.amp) for h, part in zip(chains, parts)))
        energies = np.array(energies)
        worst = max(worst, float(np.abs(energies - energies[0]).max() / scale))
    return PropertyResult("energy conservation", worst < 1e-9, f"max relative drift = {worst:.3e}")


def reference_truncation_convergence():
    t_max = 2.0 * 2.0 * math.pi / DSC_PARAMS.omega
    small, large = (run_trajectory(replace(DSC_PARAMS, n_trunc=n), FullState.basis_state("e", 0, n),
                                   t_max, 0.05) for n in (32, 64))
    worst = max(float(np.abs(getattr(small, attr) - getattr(large, attr)).max())
                for attr in ("p_e", "p_r", "mean_n"))
    return PropertyResult("truncation convergence 32 -> 64", worst < 1e-6, f"sup-norm change = {worst:.3e}")


def reference_lf_agreement():
    period = analytic.lf_period(DSC_PARAMS)
    traj = run_trajectory(DSC_PARAMS, FullState.basis_state("e", 0, 64), 2.0 * period, 0.05)
    dev_grid = max(
        float(np.abs(traj.p_r - analytic.lf_revival(DSC_PARAMS, traj.t_grid)).max()),
        float(np.abs(traj.mean_n - analytic.lf_mean_photon(DSC_PARAMS, traj.t_grid)).max()),
    )
    times = np.random.default_rng(17).uniform(0.0, 2.0 * period, 20)
    initial = FullState.basis_state("e", 0, 64)
    _, _, pr_ref, n_ref = observables(*dynamics.full_rabi_amplitudes(DSC_PARAMS, initial, times), initial)
    dev_oracle = max(
        float(np.abs(pr_ref - analytic.lf_revival(DSC_PARAMS, times)).max()),
        float(np.abs(n_ref - analytic.lf_mean_photon(DSC_PARAMS, times)).max()),
    )
    worst = max(dev_grid, dev_oracle)
    return PropertyResult("closed forms vs numerics (omega0 = 0)", worst < 1e-6,
                          f"grid dev = {dev_grid:.3e}, oracle dev = {dev_oracle:.3e}")


def reference_periodicity():
    params = RabiParams(omega0=0.0, omega=0.23, g=0.15, n_trunc=48)
    period = analytic.lf_period(params)
    initial = FullState.basis_state("e", 0, 48)
    values = []
    for k in (1, 2, 3):
        evolved = chain_reference_state(params, initial, k * period)
        values.append(float(observables(evolved.amp_e, evolved.amp_g, initial)[2]))
    return PropertyResult("periodicity P_r(kT) > 0.99, k = 1..3", all(v > 0.99 for v in values),
                          "P_r = " + ", ".join(f"{v:.6f}" for v in values))


def reference_jc_limit():
    g = 0.001
    params = RabiParams(omega0=1.0, omega=1.0, g=g, n_trunc=32)
    t_max = math.pi / g
    traj = run_trajectory(params, FullState.basis_state("e", 0, 32), t_max, t_max / 2000.0)
    dev = float(np.abs(traj.p_e - analytic.jc_population(g, traj.t_grid)).max())
    return PropertyResult("weak-coupling (RWA) limit", dev < 1e-4, f"sup |P_e - cos^2(gt)| = {dev:.3e}")


@pytest.mark.parametrize("check, reference", [
    (validate.check_unitarity, reference_unitarity),
    (validate.check_energy_conservation, reference_energy_conservation),
    (validate.check_truncation_convergence, reference_truncation_convergence),
    (validate.check_lf_agreement, reference_lf_agreement),
    (validate.check_periodicity, reference_periodicity),
    (validate.check_jc_limit, reference_jc_limit),
], ids=lambda f: f.__name__)
def test_a_check_gives_the_figure_of_the_whole_trajectory_way(check, reference):
    result = check()
    assert result.passed
    assert result == reference()


@pytest.fixture
def build_chain_calls(monkeypatch):
    """The number of build_chain calls made so far, through every name the package calls it by."""
    calls = []

    def counted(*args):
        calls.append(args)
        return build_chain(*args)

    monkeypatch.setattr(dynamics, "build_chain", counted)
    monkeypatch.setattr(validate, "build_chain", counted)
    return lambda: len(calls)


@pytest.mark.parametrize("check, most", [
    (validate.check_energy_conservation, 4),   # 2 models x 2 chains; 104 when each time rebuilt both
    (validate.check_periodicity, 1),           # 3 when each of the 3 times rebuilt the chain
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_a_check_builds_each_chain_once(build_chain_calls, check, most):
    assert check().passed
    assert 0 < build_chain_calls() <= most


def test_the_validation_builds_at_most_120_chains(build_chain_calls):
    assert validate.run_validation().all_passed
    assert build_chain_calls() <= 120   # 100 of them for the 50 oracle draws; 222 when each time rebuilt
