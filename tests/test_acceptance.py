"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion including the measured figures and wall time.
"""

import time

import numpy as np
import pytest

from rabichain.analytic import lf_mean_photon, lf_period, lf_revival
from rabichain.cli import main
from rabichain.dynamics import (
    chain_reference_state,
    full_rabi_reference,
    run_trajectory,
)
from rabichain.lattice import (
    CouplingCalibration,
    OpticalConstants,
    design,
    verify_recipe,
)
from rabichain.model import FullState, RabiParams

OMEGA, G = 0.23, 0.15
PERIOD = 2 * np.pi / OMEGA


class Stopwatch:
    def __init__(self, budget_s):
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def report(criterion, ok, detail, watch):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status} - {detail} ({watch.elapsed:.2f}s / budget {watch.budget_s}s)")


def test_criterion_1_bounce_period():
    """First revival at 27.32 +/- 0.1 mm with P_r > 0.99; runtime < 1 s."""
    with Stopwatch(1.0) as watch:
        params = RabiParams(omega0=0.0, omega=OMEGA, g=G, n_trunc=64)
        traj = run_trajectory(params, FullState.basis_state("e", 0, 64), 40.0, 0.01)
        window = (traj.t_grid > 0.5 * PERIOD) & (traj.t_grid < 1.5 * PERIOD)
        i = np.flatnonzero(window)[traj.p_r[window].argmax()]
        t_revival, p_revival = float(traj.t_grid[i]), float(traj.p_r[i])
    ok = abs(t_revival - 27.32) <= 0.1 and p_revival > 0.99 and watch.elapsed < 1.0
    report(1, ok, f"revival at t = {t_revival:.3f} mm, P_r = {p_revival:.6f}", watch)
    assert abs(t_revival - 27.32) <= 0.1
    assert p_revival > 0.99
    assert watch.elapsed < 1.0


def test_criterion_2_closed_form_agreement():
    """Closed forms within 1e-6 sup-norm over [0, 2T]; frozen values at T/2."""
    with Stopwatch(5.0) as watch:
        params = RabiParams(omega0=0.0, omega=OMEGA, g=G, n_trunc=64)
        traj = run_trajectory(params, FullState.basis_state("e", 0, 64), 2 * PERIOD, 0.02)
        dev_pr = float(np.abs(traj.p_r - lf_revival(params, traj.t_grid)).max())
        dev_n = float(np.abs(traj.mean_n - lf_mean_photon(params, traj.t_grid)).max())
        half = chain_reference_state(params, FullState.basis_state("e", 0, 64), PERIOD / 2)
        pr_half = float(np.abs(half.amp_e[0]) ** 2)
        n_half = float(
            np.sum(np.arange(64) * (np.abs(half.amp_e) ** 2 + np.abs(half.amp_g) ** 2))
        )
    ok = (
        dev_pr < 1e-6 and dev_n < 1e-6
        and abs(pr_half - 0.1824) <= 1e-4 + 5e-5
        and abs(n_half - 1.7013) <= 1e-4 + 5e-5
        and watch.elapsed < 5.0
    )
    report(
        2, ok,
        f"sup dev P_r = {dev_pr:.2e}, <n> = {dev_n:.2e}; "
        f"P_r(T/2) = {pr_half:.6f}, <n>(T/2) = {n_half:.6f}", watch,
    )
    assert dev_pr < 1e-6
    assert dev_n < 1e-6
    # frozen regression constants, verified against the brute-force oracle
    assert pr_half == pytest.approx(0.18244194768891, abs=1e-4)
    assert n_half == pytest.approx(1.70132325141777, abs=1e-4)
    assert watch.elapsed < 5.0


def test_criterion_3_oracle_equivalence():
    """50 random draws: chain evolution vs dense propagator within 1e-8."""
    with Stopwatch(30.0) as watch:
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(50):
            params = RabiParams(
                omega0=float(rng.uniform(-0.3, 0.3)),
                omega=float(rng.uniform(0.1, 0.5)),
                g=float(rng.uniform(0.0, 0.3)),
                n_trunc=32,
            )
            vec = rng.normal(size=128).view(np.complex128)
            vec /= np.linalg.norm(vec)
            state = FullState(vec[:32], vec[32:])
            t = float(rng.uniform(0.0, 60.0))
            a = chain_reference_state(params, state, t)
            b = full_rabi_reference(params, state, t)
            worst = max(
                worst,
                float(np.abs(a.amp_e - b.amp_e).max()),
                float(np.abs(a.amp_g - b.amp_g).max()),
            )
    ok = worst < 1e-8 and watch.elapsed < 30.0
    report(3, ok, f"max amplitude difference over 50 draws = {worst:.2e}", watch)
    assert worst < 1e-8
    assert watch.elapsed < 30.0


def sweep_minima(omega0_signed, dt=0.05):
    """Device convention: |omega0| sets the splitting, the sign picks the
    initial qubit branch (excited for >= 0, ground otherwise)."""
    params = RabiParams(omega0=abs(omega0_signed), omega=OMEGA, g=G, n_trunc=64)
    branch = "e" if omega0_signed >= 0 else "g"
    traj = run_trajectory(params, FullState.basis_state(branch, 0, 64), PERIOD, dt)
    pop = traj.p_e if omega0_signed >= 0 else traj.p_g
    return float(traj.p_r.min()), float(pop.min()), float(traj.mean_n.max())


def test_criterion_4_sweep_monotonicity():
    """min P_r and min population strictly decrease along the sweep."""
    with Stopwatch(10.0) as watch:
        grid = [-0.08, -0.04, 0.0, 0.04, 0.08]
        rows = [sweep_minima(v) for v in grid]
        min_pr = [r[0] for r in rows]
        min_pop = [r[1] for r in rows]
    pr_mono = all(a > b for a, b in zip(min_pr, min_pr[1:]))
    pop_mono = all(a > b for a, b in zip(min_pop, min_pop[1:]))
    ok = pr_mono and pop_mono and watch.elapsed < 10.0
    report(
        4, ok,
        "min P_r = " + ", ".join(f"{v:.4f}" for v in min_pr)
        + "; min pop = " + ", ".join(f"{v:.4f}" for v in min_pop), watch,
    )
    assert pr_mono
    assert pop_mono
    assert watch.elapsed < 10.0


def test_criterion_5_mean_photon_asymmetry():
    """max <n> in the first bounce at +0.08 exceeds -0.08 by >= 10 percent."""
    with Stopwatch(5.0) as watch:
        _, _, n_plus = sweep_minima(+0.08)
        _, _, n_minus = sweep_minima(-0.08)
        ratio = n_plus / n_minus
    ok = ratio >= 1.10 and watch.elapsed < 5.0
    report(5, ok, f"max <n>: {n_plus:.4f} vs {n_minus:.4f}, ratio = {ratio:.3f}", watch)
    assert ratio >= 1.10
    assert watch.elapsed < 5.0


def test_criterion_6_imperfect_bouncing():
    """omega0 = 0.04: second revival peak strictly below the first."""
    with Stopwatch(2.0) as watch:
        params = RabiParams(omega0=0.04, omega=OMEGA, g=G, n_trunc=64)
        traj = run_trajectory(params, FullState.basis_state("e", 0, 64), 2.5 * PERIOD, 0.01)
        t = traj.t_grid
        first = float(traj.p_r[(t > 0.5 * PERIOD) & (t < 1.5 * PERIOD)].max())
        second = float(traj.p_r[(t > 1.5 * PERIOD) & (t < 2.5 * PERIOD)].max())
    ok = second < first and watch.elapsed < 2.0
    report(6, ok, f"revival peaks {first:.6f} then {second:.6f}", watch)
    assert second < first
    assert watch.elapsed < 2.0


def test_criterion_7_weak_coupling_limit():
    """g = 0.001 at resonance: P_e vs cos^2(gt) sup-norm < 1e-4."""
    with Stopwatch(5.0) as watch:
        g = 0.001
        params = RabiParams(omega0=1.0, omega=1.0, g=g, n_trunc=32)
        t_max = np.pi / g
        traj = run_trajectory(params, FullState.basis_state("e", 0, 32), t_max, t_max / 2500)
        dev = float(np.abs(traj.p_e - np.cos(g * traj.t_grid) ** 2).max())
    ok = dev < 1e-4 and watch.elapsed < 5.0
    report(7, ok, f"sup |P_e - cos^2(gt)| = {dev:.2e}", watch)
    assert dev < 1e-4
    assert watch.elapsed < 5.0


def test_criterion_8_design_roundtrip():
    """15-guide design: spacing anchors, speed window, detuning cap, verify."""
    with Stopwatch(1.0) as watch:
        cal = CouplingCalibration()
        oc = OpticalConstants()
        base = RabiParams(omega0=0.0, omega=OMEGA, g=G, n_trunc=15)
        recipe = design(base, cal, oc, 15)
        spacings = recipe.spacing_um[:-1]
        span_ok = (
            abs(spacings.min() - 6.6) < 1e-9 and abs(spacings.max() - 14.0) < 1e-9
        )
        speeds_ok = bool(
            np.all(recipe.writing_speed >= 10.0) and np.all(recipe.writing_speed <= 14.0)
        )
        verify_ok = verify_recipe(recipe, base, cal, oc).max_rel_deviation < 1e-6
        det_ok = True
        for omega0 in (-0.08, -0.04, 0.04, 0.08):
            p = RabiParams(omega0=omega0, omega=OMEGA, g=G, n_trunc=15)
            r = design(p, cal, oc, 15)
            speed_mod = np.abs(r.achieved_detuning) * oc.wavelength_mm / (2 * np.pi) / oc.dn_dv
            det_ok &= bool(speed_mod.max() <= 0.3)
            det_ok &= verify_recipe(r, p, cal, oc).max_rel_deviation < 1e-6
    ok = span_ok and speeds_ok and det_ok and verify_ok and watch.elapsed < 1.0
    report(
        8, ok,
        f"spacings [{spacings.min():.4f}, {spacings.max():.4f}] um, "
        f"speeds [{recipe.writing_speed.min():.3f}, {recipe.writing_speed.max():.3f}] mm/s", watch,
    )
    assert span_ok
    assert speeds_ok
    assert det_ok
    assert verify_ok
    assert watch.elapsed < 1.0


def test_criterion_9_invariant_suite(capsys):
    """Full invariant suite green with exit code 0; runtime < 60 s."""
    with Stopwatch(60.0) as watch:
        exit_code = main(["validate"])
    text = capsys.readouterr().out
    statuses = [line.split()[0] for line in text.splitlines() if line.startswith("  [")]
    passed = statuses.count("[PASS]")
    all_passed = passed == len(statuses) > 0 and text.endswith("overall: PASS\n")
    with capsys.disabled():
        report(9, all_passed and exit_code == 0,
               f"{passed}/{len(statuses)} properties, exit code {exit_code}", watch)
    assert all_passed, text
    assert exit_code == 0
    assert watch.elapsed < 60.0
