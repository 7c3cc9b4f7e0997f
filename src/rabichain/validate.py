"""Deterministic invariant suite behind the `validate` CLI command.

Each property runs at fixed seeds and parameters and reports one
pass/fail line with the measured figure of merit.  The suite covers the
dynamics invariants (unitarity, energy conservation, oracle equivalence,
parity/sign symmetry, truncation convergence, periodicity) and the
analytic ones (closed-form agreement with numerics, weak-coupling limit).

Each property evolves all its times as one grid on the block stream that
``simulate`` reads (``dynamics.trajectory_blocks``), so it builds each chain
once; only the oracle draws, each a different model, run one time each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import analytic
from .dynamics import (
    _amplitudes,
    build_chain,
    chain_reference_state,
    full_rabi_amplitudes,
    full_rabi_reference,
    observables,
    time_grid,
    trajectory_blocks,
)
from .model import RECOMPOSE_WEIGHT_TOL, FullState, ParityChain, RabiParams, decompose, recompose

DSC_PARAMS = RabiParams(omega0=0.0, omega=0.23, g=0.15, n_trunc=64)


@dataclass
class PropertyResult:
    name: str
    passed: bool
    detail: str


@dataclass
class ValidationReport:
    results: list[PropertyResult]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_text(self) -> str:
        width = max(len(r.name) for r in self.results)
        lines = ["validation report"]
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"  [{status}] {r.name:<{width}}  {r.detail}")
        lines.append(f"overall: {'PASS' if self.all_passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _random_state(rng: np.random.Generator, n_trunc: int) -> FullState:
    vec = rng.normal(size=4 * n_trunc).view(np.complex128)
    vec = vec / np.linalg.norm(vec)
    return FullState(vec[:n_trunc], vec[n_trunc:])


def _e0_blocks(params: RabiParams, t_grid: np.ndarray):
    """(t, pop, p_e, p_r, mean_n) for each block of |e,0>'s trajectory on ``t_grid``."""
    blocks = trajectory_blocks(params, FullState.basis_state("e", 0, params.n_trunc), t_grid)
    return ((t_grid[cols], *observed) for cols, *observed in blocks)


def _sup(deviations) -> float:
    """The largest |entry| of the arrays ``deviations`` yields, folded one at a time; nan if any is."""
    worst = 0.0
    for dev in deviations:
        worst = np.maximum(worst, np.abs(dev).max())
    return float(worst)


def check_roundtrip() -> PropertyResult:
    """decompose/recompose must invert each other bit-for-bit."""
    rng = np.random.default_rng(11)
    exact = True
    for _ in range(25):
        state = _random_state(rng, int(rng.integers(2, 48)))
        back = recompose(*decompose(state))
        exact &= bool(
            np.array_equal(back.amp_e, state.amp_e)
            and np.array_equal(back.amp_g, state.amp_g)
        )
    return PropertyResult(
        "decompose/recompose round-trip", exact,
        f"25 random states, bit-for-bit: {'yes' if exact else 'no'}",
    )


def check_unitarity() -> PropertyResult:
    """Norm preserved along trajectories out to 300 mm."""
    models = (DSC_PARAMS, RabiParams(omega0=0.08, omega=0.23, g=0.15, n_trunc=64),
              RabiParams(omega0=-0.2, omega=0.4, g=0.3, n_trunc=48))
    worst = _sup(pop.sum(axis=0) - 1.0 for params in models
                 for _, pop, *_ in _e0_blocks(params, time_grid(300.0, 0.5)))
    return PropertyResult("unitarity (t <= 300 mm)", worst < 1e-10, f"max |norm-1| = {worst:.3e}")


def check_energy_conservation() -> PropertyResult:
    """<H> constant along trajectories, relative to the spectral scale."""
    rng = np.random.default_rng(23)
    worst = 0.0
    for params in (DSC_PARAMS, RabiParams(omega0=0.1, omega=0.3, g=0.2, n_trunc=32)):
        state = _random_state(rng, params.n_trunc)
        chains = [build_chain(params, chain) for chain in ParityChain]   # C, F, as decompose
        scale = max(float(np.abs(h.eigenvalues).max()) for h in chains)
        [(_, amps)] = _amplitudes(params, state, np.linspace(0.0, 120.0, 25), chains)   # one block
        amps = np.pad(amps, ((0, 0), (0, params.n_trunc - amps.shape[1]), (0, 0)))
        energies = np.array([   # the state at each time, rebuilt from its column
            sum(h.energy(part.amp) for h, part in
                zip(chains, decompose(FullState(*column, norm_tol=RECOMPOSE_WEIGHT_TOL))))
            for column in amps.transpose(2, 0, 1)])
        worst = max(worst, float(np.abs(energies - energies[0]).max() / scale))
    return PropertyResult("energy conservation", worst < 1e-9, f"max relative drift = {worst:.3e}")


def check_oracle_equivalence() -> PropertyResult:
    """Parity-chain evolution equals the dense brute-force propagator."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(50):
        params = RabiParams(
            omega0=float(rng.uniform(-0.3, 0.3)),
            omega=float(rng.uniform(0.1, 0.5)),
            g=float(rng.uniform(0.0, 0.3)),
            n_trunc=32,
        )
        state = _random_state(rng, 32)
        t = float(rng.uniform(0.0, 60.0))
        via_chain = chain_reference_state(params, state, t)
        via_full = full_rabi_reference(params, state, t)
        worst = max(worst, _sup((via_chain.amp_e - via_full.amp_e, via_chain.amp_g - via_full.amp_g)))
    return PropertyResult(
        "chain vs brute-force oracle (50 draws)", worst < 1e-8,
        f"max amplitude diff = {worst:.3e}",
    )


def check_sign_symmetry() -> PropertyResult:
    """build_chain(omega0, F) equals build_chain(-omega0, C) entrywise."""
    ok = True
    for omega0 in (0.0, 0.04, -0.08, 0.3):
        p_pos = RabiParams(omega0=omega0, omega=0.23, g=0.15, n_trunc=32)
        p_neg = RabiParams(omega0=-omega0, omega=0.23, g=0.15, n_trunc=32)
        hf = build_chain(p_pos, ParityChain.F)
        hc = build_chain(p_neg, ParityChain.C)
        ok &= bool(np.array_equal(hf.diag, hc.diag) and np.array_equal(hf.offdiag, hc.offdiag))
    return PropertyResult("parity/sign symmetry F(w0) = C(-w0)", ok, "entrywise equality: " + ("yes" if ok else "no"))


def check_truncation_convergence() -> PropertyResult:
    """Doubling n_trunc 32 -> 64 leaves observables unchanged at the reference parameters."""
    t_grid = time_grid(2.0 * 2.0 * math.pi / DSC_PARAMS.omega, 0.05)
    small, large = (_e0_blocks(replace(DSC_PARAMS, n_trunc=n), t_grid) for n in (32, 64))
    worst = _sup(a - b for one, two in zip(small, large) for a, b in zip(one[2:], two[2:]))
    return PropertyResult("truncation convergence 32 -> 64", worst < 1e-6, f"sup-norm change = {worst:.3e}")


def check_lf_agreement() -> PropertyResult:
    """Closed forms match numerics over [0, 2T] and at 20 random times."""
    period = analytic.lf_period(DSC_PARAMS)
    t_grid = time_grid(2.0 * period, 0.05)
    dev_grid = _sup(dev for t, _, _, p_r, mean_n in _e0_blocks(DSC_PARAMS, t_grid) for dev in (
        p_r - analytic.lf_revival(DSC_PARAMS, t), mean_n - analytic.lf_mean_photon(DSC_PARAMS, t)))
    # derivation gate: closed forms vs the brute-force oracle at random times
    times = np.random.default_rng(17).uniform(0.0, 2.0 * period, 20)
    initial = FullState.basis_state("e", 0, 64)
    _, _, pr_ref, n_ref = observables(*full_rabi_amplitudes(DSC_PARAMS, initial, times), initial)
    dev_oracle = _sup((pr_ref - analytic.lf_revival(DSC_PARAMS, times),
                       n_ref - analytic.lf_mean_photon(DSC_PARAMS, times)))
    worst = max(dev_grid, dev_oracle)
    return PropertyResult(
        "closed forms vs numerics (omega0 = 0)", worst < 1e-6,
        f"grid dev = {dev_grid:.3e}, oracle dev = {dev_oracle:.3e}",
    )


def check_periodicity() -> PropertyResult:
    """Full revivals at t = T, 2T, 3T for the degenerate-qubit case."""
    params = RabiParams(omega0=0.0, omega=0.23, g=0.15, n_trunc=48)
    period = analytic.lf_period(params)
    [(_, _, _, values, _)] = _e0_blocks(params, period * np.arange(1.0, 4.0))   # one block
    ok = all(v > 0.99 for v in values)
    return PropertyResult(
        "periodicity P_r(kT) > 0.99, k = 1..3", ok,
        "P_r = " + ", ".join(f"{v:.6f}" for v in values),
    )


def check_jc_limit() -> PropertyResult:
    """Weak resonant coupling reproduces vacuum Rabi flopping."""
    g = 0.001
    params = RabiParams(omega0=1.0, omega=1.0, g=g, n_trunc=32)
    t_max = math.pi / g
    t_grid = time_grid(t_max, t_max / 2000.0)
    dev = _sup(p_e - analytic.jc_population(g, t) for t, _, p_e, *_ in _e0_blocks(params, t_grid))
    return PropertyResult("weak-coupling (RWA) limit", dev < 1e-4, f"sup |P_e - cos^2(gt)| = {dev:.3e}")


def run_validation() -> ValidationReport:
    return ValidationReport(
        results=[
            check_roundtrip(),
            check_unitarity(),
            check_energy_conservation(),
            check_oracle_equivalence(),
            check_sign_symmetry(),
            check_truncation_convergence(),
            check_lf_agreement(),
            check_periodicity(),
            check_jc_limit(),
        ]
    )
