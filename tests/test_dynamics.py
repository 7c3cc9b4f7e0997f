"""Chain Hamiltonians, spectral propagation, observables, oracle equivalence."""

import ctypes
import itertools
import threading
import time
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import every_openblas_at_one_thread
from rabichain import blas, dynamics
from rabichain.dynamics import (
    DECOMPOSITION_TOL,
    DimensionMismatchError,
    EigendecompositionError,
    _chain_evolution,
    build_chain,
    chain_reference_state,
    full_rabi_amplitudes,
    full_rabi_matrix,
    full_rabi_reference,
    observables,
    run_trajectory,
)
from rabichain.model import (
    ChainState,
    FullState,
    ParityChain,
    RabiParams,
    coupling_ladder,
    decompose,
    recompose,
)

DSC = RabiParams(omega0=0.0, omega=0.23, g=0.15, n_trunc=64)
PERIOD = 2 * np.pi / 0.23


def random_full_state(rng, n_trunc):
    vec = rng.normal(size=4 * n_trunc).view(np.complex128)
    vec /= np.linalg.norm(vec)
    return FullState(vec[:n_trunc], vec[n_trunc:])


def photon_distribution(state):
    return observables(state.amp_e, state.amp_g, state)[0]


def population_excited(state):
    return observables(state.amp_e, state.amp_g, state)[1]


def population_ground(state):
    return 1.0 - population_excited(state)


def revival_probability(state, initial):
    return observables(state.amp_e, state.amp_g, initial)[2]


def mean_photon_number(state):
    return observables(state.amp_e, state.amp_g, state)[3]


# ---------------------------------------------------------------------------
# build_chain
# ---------------------------------------------------------------------------

def test_chain_diagonal_at_device_parameters():
    p = RabiParams(omega0=0.04, omega=0.23, g=0.15, n_trunc=15)
    h = build_chain(p, ParityChain.C)
    assert h.diag[:3] == pytest.approx([0.02, 0.21, 0.48], abs=1e-15)
    assert h.diag == pytest.approx(
        [((-1.0) ** n) * 0.02 + 0.23 * n for n in range(15)], abs=1e-15
    )
    assert h.offdiag == pytest.approx([0.15 * np.sqrt(n + 1) for n in range(14)])


def test_decoupled_chain_has_integer_spectrum():
    p = RabiParams(omega0=0.0, omega=1.0, g=0.0, n_trunc=12)
    h = build_chain(p, ParityChain.C)
    assert h.eigenvalues == pytest.approx(np.arange(12.0), abs=1e-12)


def test_degenerate_chain_has_equally_spaced_low_spectrum():
    # displaced-oscillator prediction: level spacing omega, spoiled only
    # near the top of the truncated spectrum
    h = build_chain(DSC, ParityChain.C)
    spacings = np.diff(h.eigenvalues)[:20]
    assert spacings == pytest.approx(0.23, abs=1e-6)


@pytest.mark.parametrize("omega0", [0.0, 0.04, -0.08, 0.3])
def test_sign_symmetry_between_chains(omega0):
    p_pos = RabiParams(omega0=omega0, omega=0.23, g=0.15, n_trunc=24)
    p_neg = RabiParams(omega0=-omega0, omega=0.23, g=0.15, n_trunc=24)
    hf = build_chain(p_pos, ParityChain.F)
    hc = build_chain(p_neg, ParityChain.C)
    assert np.array_equal(hf.diag, hc.diag)
    assert np.array_equal(hf.offdiag, hc.offdiag)


def dense_matrix(h):
    """Dense copy of a chain's tridiagonal matrix (small sizes only)."""
    return np.diag(h.diag) + np.diag(h.offdiag, 1) + np.diag(h.offdiag, -1)


def test_eigendecomposition_invariants():
    p = RabiParams(omega0=-0.08, omega=0.23, g=0.15, n_trunc=64)
    h = build_chain(p, ParityChain.F)
    m = dense_matrix(h)
    scale = np.abs(m).max()
    assert np.abs(m @ h.eigenvectors - h.eigenvectors * h.eigenvalues).max() < 1e-10 * scale
    assert np.abs(h.eigenvectors.T @ h.eigenvectors - np.eye(64)).max() < 1e-10
    assert np.all(np.diff(h.eigenvalues) >= 0)


@pytest.mark.parametrize("n_trunc, g", [(64, 0.15), (1024, 0.81)])
def test_chain_keeps_the_quality_figures_of_its_eigensolve(n_trunc, g):
    p = RabiParams(omega0=-0.08, omega=0.23, g=g, n_trunc=n_trunc)
    with blas.one_thread():   # the Gram matrix's product splits its work by the thread count
        h = build_chain(p, ParityChain.F)
        v = h.eigenvectors
        residual = np.abs(h.apply(v) - v * h.eigenvalues).max()
        orthogonality = np.abs(v.T @ v - np.eye(n_trunc)).max()
    scale = max(np.abs(h.diag).max(), np.abs(h.offdiag).max(), 1.0)
    assert h.residual == residual <= DECOMPOSITION_TOL * scale
    assert h.orthogonality == orthogonality <= DECOMPOSITION_TOL
    assert 0.0 < h.residual and 0.0 < h.orthogonality   # figures, not placeholders


def chain_matrix(n_trunc, g, omega0, chain):
    """The diagonal and off-diagonal of a chain at omega 0.23, as build_chain lays them out."""
    sites = np.arange(n_trunc, dtype=float)
    return chain.sign * (-1.0) ** sites * omega0 / 2 + 0.23 * sites, coupling_ladder(g, n_trunc)


@pytest.mark.parametrize("n_trunc", [2, 16, 300, 1024, 2048])
def test_eigensolve_is_bit_identical_to_scipy_eigh_tridiagonal(n_trunc):
    # LAPACK's dstevd in numpy's OpenBLAS and in scipy's: every bit of both results agrees at
    # one BLAS thread, as the CLI runs (at 2, scipy's own bits differ at n_trunc 300, g 0.3).
    # The package sets numpy's count alone; the reference runs in scipy's, set here.
    # Every g, omega0 and sign at the small sizes; at the large ones, four of them
    cases = list(itertools.product([0.05, 0.3, 2.0], [0.0, 0.04, 0.3], ParityChain))
    if n_trunc > 300:
        cases = [(0.05, 0.0, ParityChain.C), (0.3, 0.04, ParityChain.F),
                 (2.0, 0.3, ParityChain.C), (2.0, 0.3, ParityChain.F)]
    for case in cases:
        diag, offdiag = chain_matrix(n_trunc, *case)
        with blas.one_thread():
            evals, evecs = dynamics.eigh_tridiagonal(diag, offdiag)
        with every_openblas_at_one_thread():
            want_evals, want_evecs = scipy.linalg.eigh_tridiagonal(diag, offdiag)
        assert evecs.flags.f_contiguous and want_evecs.flags.f_contiguous, case
        assert evals.tobytes() == want_evals.tobytes(), case
        assert evecs.tobytes() == want_evecs.tobytes(), case


@pytest.mark.parametrize("where", ["diag", "offdiag"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eigensolve_refuses_a_non_finite_entry(where, bad):
    diag, offdiag = chain_matrix(16, 0.3, 0.04, ParityChain.C)
    (diag if where == "diag" else offdiag)[5] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        dynamics.eigh_tridiagonal(diag, offdiag)


def test_eigensolve_refuses_mismatched_shapes():
    # LAPACK reads n - 1 off-diagonal entries and n x n matrix entries through bare pointers:
    # any other shape is refused first
    for diag, offdiag in [(16, 16), (16, 14), ((4, 4), 3)]:
        with pytest.raises(ValueError, match="n diagonal and n - 1 off-diagonal entries"):
            dynamics.eigh_tridiagonal(np.ones(diag), np.ones(offdiag))
    with pytest.raises(ValueError, match=r"square matrix, got shape \(4, 3\)"):
        blas.dsyevr(np.ones((4, 3)))


def failing_lapack(info):
    """A stand-in for blas._lapack whose dstevd and dsyevr return LAPACK's ``info``."""
    def routine(*args):   # INFO is the last argument passed by reference
        next(arg for arg in reversed(args) if hasattr(arg, "_obj"))._obj.value = info
    return lambda: SimpleNamespace(scipy_dstevd_64_=routine, scipy_dsyevr_64_=routine)


@pytest.mark.parametrize("info, error, message", [
    (3, np.linalg.LinAlgError, r"dstevd did not converge \(LAPACK info=3\)"),
    (-2, ValueError, "illegal value in argument 2 of internal dstevd"),
])
def test_eigensolve_raises_on_a_lapack_error(monkeypatch, info, error, message):
    monkeypatch.setattr(blas, "_lapack", failing_lapack(info))
    with pytest.raises(error, match=message):
        dynamics.eigh_tridiagonal(*chain_matrix(16, 0.3, 0.04, ParityChain.C))
    with pytest.raises(error, match=message.replace("dstevd", "dsyevr")):   # the dense oracle
        full_rabi_reference(DSC, FullState.basis_state("e", 0, 64), 1.0)


def test_numpy_without_the_lapack_symbols_is_an_import_error(monkeypatch):
    # no fallback: where numpy's OpenBLAS exports no ILP64 LAPACK, the first eigensolve fails,
    # naming the symbols
    monkeypatch.setattr(blas, "_openblas", lambda: SimpleNamespace())   # no symbol resolves
    monkeypatch.setattr(blas, "_lapack", blas._lapack.__wrapped__)   # not the one found already
    with pytest.raises(ImportError, match="exports no scipy_dstevd_64_ and no scipy_dsyevr_64_"):
        dynamics.eigh_tridiagonal(*chain_matrix(16, 0.3, 0.04, ParityChain.C))


def longest_stall_during(solve):
    """The seconds ``solve`` takes on a worker thread, and the longest this thread's loop stalled meanwhile."""
    took = []

    def work():
        start = time.perf_counter()
        solve()
        took.append(time.perf_counter() - start)

    worker = threading.Thread(target=work)
    last, stall = time.perf_counter(), 0.0
    worker.start()
    while worker.is_alive():
        now = time.perf_counter()
        stall, last = max(stall, now - last), now
    worker.join(timeout=60)
    assert took, "the solve failed"
    return took[0], stall


def test_the_eigensolve_releases_the_gil(monkeypatch):
    # while a worker solves an n_trunc 2048 chain (about 0.1 s), Python keeps running here
    diag, offdiag = chain_matrix(2048, 0.3, 0.04, ParityChain.C)
    with blas.one_thread():
        took, stall = longest_stall_during(lambda: dynamics.eigh_tridiagonal(diag, offdiag))
        assert stall < took / 2, (stall, took)
        # the measure sees a binding that holds the GIL: the same symbol through ctypes.PyDLL
        held = ctypes.PyDLL(blas._lapack()._name)
        for symbol in ("scipy_dstevd_64_", "scipy_dsyevr_64_"):
            getattr(held, symbol).argtypes = getattr(blas._lapack(), symbol).argtypes
            getattr(held, symbol).restype = None
        monkeypatch.setattr(blas, "_lapack", lambda: held)
        took, stall = longest_stall_during(lambda: dynamics.eigh_tridiagonal(diag, offdiag))
        assert stall > took / 2, (stall, took)


def perturbed_eigh_tridiagonal(perturb):
    """The package's eigh_tridiagonal with eigenvalue 3 shifted, or eigenvector 3 stretched, by 1e-6."""
    solver = dynamics.eigh_tridiagonal   # taken here, before the caller patches it

    def solve(diag, offdiag):
        evals, evecs = solver(diag, offdiag)
        if perturb == "eigenvalue":
            evals[3] += 1e-6
        else:
            evecs[:, 3] *= 1.0 + 1e-6
        return evals, evecs
    return solve


@pytest.mark.parametrize(
    "perturb, message",
    [
        ("eigenvalue", r"residual=[1-9]\.\d{3}e-07"),      # |v_3| <= 1 times the 1e-6 shift
        ("eigenvector", r"orthogonality=2\.000e-06"),     # (1 + 1e-6)^2 - 1
    ],
)
def test_eigensolve_verification_rejects_a_perturbed_solution(monkeypatch, perturb, message):
    monkeypatch.setattr(dynamics, "eigh_tridiagonal", perturbed_eigh_tridiagonal(perturb))
    with pytest.raises(EigendecompositionError, match=message):
        build_chain(DSC, ParityChain.C)


# ---------------------------------------------------------------------------
# propagate
# ---------------------------------------------------------------------------

def site_state(n_trunc, site, chain=ParityChain.C):
    amp = np.zeros(n_trunc, dtype=complex)
    amp[site] = 1.0
    return ChainState(amp, chain, 1.0)


def propagate(params, psi0, t):
    """A C-chain state evolved by t through chain_reference_state, as its C-chain part."""
    empty = ChainState(np.zeros(params.n_trunc), ParityChain.F, 0.0)
    c, _ = decompose(chain_reference_state(params, recompose(psi0, empty), t))
    return c


def test_zero_distance_is_identity():
    psi0 = site_state(64, 0)
    out = propagate(DSC, psi0, 0.0)
    assert np.abs(out.amp - psi0.amp).max() < 1e-14


def test_uncoupled_evolution_is_pure_phase():
    p = RabiParams(omega0=0.1, omega=0.3, g=0.0, n_trunc=16)
    psi0 = site_state(16, 5)
    for t in (0.7, 13.0, 200.0):
        out = propagate(p, psi0, t)
        assert abs(abs(out.amp[5]) - 1.0) < 1e-12
        assert np.abs(out.amp[:5]).max() < 1e-14


def test_revival_after_one_period():
    p = RabiParams(omega0=0.0, omega=0.23, g=0.15, n_trunc=32)
    out = propagate(p, site_state(32, 0), PERIOD)
    assert np.abs(out.amp[0]) ** 2 > 0.99


def test_propagate_rejects_mismatches():
    with pytest.raises(DimensionMismatchError):
        chain_reference_state(DSC, FullState.basis_state("e", 0, 32), 1.0)
    with pytest.raises(ValueError):
        chain_reference_state(DSC, FullState.basis_state("e", 0, 64), -1.0)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def test_trajectory_grid_and_norms():
    traj = run_trajectory(DSC, FullState.basis_state("e", 0, 64), 60.0, 0.1)
    assert traj.t_grid[0] == 0.0
    assert traj.t_grid.shape[0] == 601
    assert np.all(np.diff(traj.t_grid) > 0)
    assert np.abs(traj.pnt.sum(axis=1) - 1.0).max() < 1e-9
    assert np.all((traj.p_e >= 0) & (traj.p_e <= 1 + 1e-12))
    assert np.all((traj.p_r >= 0) & (traj.p_r <= 1 + 1e-12))


def test_trajectory_shows_two_bounces_within_60mm():
    # photon wave packet leaves site 0 and returns with period ~27.3 mm
    traj = run_trajectory(DSC, FullState.basis_state("e", 0, 64), 60.0, 0.1)
    t = traj.t_grid
    first = traj.p_r[(t > 0.5 * PERIOD) & (t < 1.5 * PERIOD)]
    second = traj.p_r[(t > 1.5 * PERIOD) & (t <= 60.0)]
    mid = traj.p_r[(t > 0.25 * PERIOD) & (t < 0.75 * PERIOD)]
    assert first.max() > 0.99
    assert second.max() > 0.99
    assert mid.min() < 0.2


def test_uncoupled_populations_frozen():
    p = RabiParams(omega0=0.1, omega=0.3, g=0.0, n_trunc=16)
    traj = run_trajectory(p, FullState.basis_state("g", 3, 16), 30.0, 0.5)
    assert np.abs(traj.pnt - traj.pnt[0]).max() < 1e-12


def test_detuned_bouncing_degrades():
    # second revival strictly below the first once omega0 != 0
    p = RabiParams(omega0=0.04, omega=0.23, g=0.15, n_trunc=64)
    traj = run_trajectory(p, FullState.basis_state("e", 0, 64), 2.5 * PERIOD, 0.01)
    t = traj.t_grid
    first = traj.p_r[(t > 0.5 * PERIOD) & (t < 1.5 * PERIOD)].max()
    second = traj.p_r[(t > 1.5 * PERIOD) & (t < 2.5 * PERIOD)].max()
    assert second < first


def test_two_chain_initial_state_propagates_both_chains():
    amp_e = np.zeros(32, dtype=complex)
    amp_g = np.zeros(32, dtype=complex)
    amp_e[0] = amp_g[0] = np.sqrt(0.5)
    p = RabiParams(omega0=0.08, omega=0.23, g=0.15, n_trunc=32)
    state0 = FullState(amp_e, amp_g)
    traj = run_trajectory(p, state0, 20.0, 0.5)
    c, f = decompose(chain_reference_state(p, state0, float(traj.t_grid[-1])))
    assert c.weight == pytest.approx(0.5, abs=1e-10)
    assert f.weight == pytest.approx(0.5, abs=1e-10)


@pytest.mark.parametrize("initial", ["e0", "two-chain"])
def test_trajectory_state_matches_single_time_evolution(initial):
    p = RabiParams(omega0=0.08, omega=0.23, g=0.15, n_trunc=32)
    if initial == "e0":
        state0 = FullState.basis_state("e", 0, 32)
    else:
        state0 = random_full_state(np.random.default_rng(3), 32)
    traj = run_trajectory(p, state0, 20.0, 0.5)
    for k in (0, traj.t_grid.shape[0] // 2, -1):
        want = chain_reference_state(p, state0, float(traj.t_grid[k]))
        pop, p_e, p_r, mean_n = observables(want.amp_e, want.amp_g, state0)
        assert np.abs(traj.pnt[k] - pop).max() < 1e-12
        assert abs(traj.p_e[k] - p_e) < 1e-12
        assert abs(traj.p_r[k] - p_r) < 1e-12
        assert abs(traj.mean_n[k] - mean_n) < 1e-12


def unrestricted_observables(params, initial, t_grid):
    """The full product V (exp(-i Lambda t) * c) over all n_trunc sites, then the observables.

    An empty chain is an all-zero (n, nt) array; returns (amp_e, amp_g,
    pnt, p_e, p_r, mean_n).
    """
    n = params.n_trunc
    amps = {}
    for part in decompose(initial):
        if part.weight == 0.0:
            amps[part.chain] = np.zeros((n, t_grid.shape[0]), dtype=complex)
        else:
            h = build_chain(params, part.chain)
            coeffs = h.eigenvectors.T @ part.amp
            phases = np.exp(-1j * np.outer(h.eigenvalues, t_grid))
            amps[part.chain] = h.eigenvectors @ (phases * coeffs[:, None])
    even = np.arange(n) % 2 == 0
    amp_e = np.where(even[:, None], amps[ParityChain.C], amps[ParityChain.F])
    amp_g = np.where(even[:, None], amps[ParityChain.F], amps[ParityChain.C])
    pnt = (np.abs(amp_e) ** 2 + np.abs(amp_g) ** 2).T
    p_e = np.sum(np.abs(amp_e) ** 2, axis=0)
    overlap = np.conj(amp_e).T @ initial.amp_e + np.conj(amp_g).T @ initial.amp_g
    return amp_e, amp_g, pnt, p_e, np.abs(overlap) ** 2, pnt @ np.arange(n, dtype=float)


def low_fock_superposition(n_trunc, sites, seed):
    """A random complex superposition of the lowest Fock states on both qubit branches."""
    vec = np.random.default_rng(seed).normal(size=4 * sites).view(np.complex128)
    vec /= np.linalg.norm(vec)
    amp_e = np.zeros(n_trunc, dtype=complex)
    amp_g = np.zeros(n_trunc, dtype=complex)
    amp_e[:sites], amp_g[:sites] = vec[:sites], vec[sites:]
    return FullState(amp_e, amp_g)


def largest_reach(params, initial):
    """The largest reach and GEMM inner dimension K' over the chains the state occupies."""
    real, reaches, inner = dynamics._inner_dimension, [0], [0]

    def inner_dimension(*args):
        inner.append(real(*args))
        return inner[-1]

    with mock.patch.object(dynamics, "_inner_dimension", inner_dimension):
        for part in decompose(initial):
            if part.weight != 0.0:
                h = build_chain(params, part.chain)
                evolve = _chain_evolution(h, h.eigenvectors.T @ part.amp)
                reaches.append(evolve(np.zeros(1)).shape[0])
    return max(reaches), max(inner)


@pytest.mark.parametrize(
    "params, initial, restricted, inner",
    [
        # e0 at g/omega 0.65: nothing past site 256 is reached, no component past 169 is live
        (RabiParams(omega0=0.0, omega=0.23, g=0.15, n_trunc=1024),
         FullState.basis_state("e", 0, 1024), True, 256),
        # g/omega > 2: every site is reached
        (RabiParams(omega0=0.1, omega=0.23, g=0.6, n_trunc=64),
         FullState.basis_state("e", 0, 64), False, 64),
        # g2 lives on the F chain alone: the C chain is empty
        (RabiParams(omega0=0.05, omega=0.23, g=0.15, n_trunc=48),
         FullState.basis_state("g", 2, 48), False, 48),
        # complex superpositions on both chains
        (RabiParams(omega0=-0.08, omega=0.23, g=0.15, n_trunc=40),
         random_full_state(np.random.default_rng(11), 40), False, 40),
        (RabiParams(omega0=0.08, omega=0.23, g=0.15, n_trunc=512),
         low_fock_superposition(512, 4, seed=5), True, 256),
        # 194 live components: 256 is past n_trunc - 128, so nothing is cut
        (RabiParams(omega0=0.0, omega=0.23, g=0.15, n_trunc=300),
         FullState.basis_state("e", 0, 300), False, 300),
        # 219 live components: there a product cut at 256 changes bits
        (RabiParams(omega0=0.0, omega=0.23, g=0.3, n_trunc=300),
         FullState.basis_state("e", 0, 300), False, 300),
        # 140 live components reach 200 sites, fewer than the 256 components kept
        (RabiParams(omega0=0.0, omega=0.23, g=0.15, n_trunc=400),
         FullState.basis_state("e", 0, 400), True, 256),
        # g/omega 3.5: 743 live components over every site
        (RabiParams(omega0=0.0, omega=0.23, g=0.81, n_trunc=1024),
         FullState.basis_state("e", 0, 1024), False, 768),
    ],
    ids=["reach-below-n", "reach-n", "one-chain-empty", "two-chains", "two-chains-reach-below-n",
         "no-cut-past-n-minus-128", "no-cut-where-a-cut-changes-bits", "reach-below-cut",
         "cut-above-256"],
)
def test_restricted_propagation_is_bit_identical_to_the_full_product(
    params, initial, restricted, inner
):
    n = params.n_trunc
    reach, used = largest_reach(params, initial)
    assert (reach < n) == restricted
    # the cut K' on an OpenBLAS core whose K panels are checked, the full product on any other
    assert used == (inner if blas.numpy_core() in dynamics.PANEL_CORES else n)
    # 61 points are one block.  1025, 1026 and 1087 points leave a last 1024-point block of 1,
    # 2 and 63 points, which joins the first; 1088 leave one of 64, which stands; 2049 are two
    # blocks, the second with the 1-point tail.  At one BLAS thread: with more, gemv splits its
    # rows by the length of the call, so P_r and <n> of a block can differ in the last bit from
    # the whole-grid product (dynamics docstring).
    with blas.one_thread():
        for points in (61, 1025, 1026, 1087, 1088, 2049):
            traj = run_trajectory(params, initial, (points - 1) * 0.1, 0.1)
            assert traj.t_grid.shape[0] == points
            _, _, pnt, p_e, p_r, mean_n = unrestricted_observables(params, initial, traj.t_grid)
            assert np.array_equal(traj.pnt, pnt)
            assert np.array_equal(traj.p_e, p_e)
            assert np.array_equal(traj.p_r, p_r)
            assert np.array_equal(traj.mean_n, mean_n)
    for k in (0, 17, -1):
        amp_e, amp_g, *_ = unrestricted_observables(params, initial, traj.t_grid[k:k + 1 or None])
        state = chain_reference_state(params, initial, float(traj.t_grid[k]))
        assert np.array_equal(np.abs(state.amp_e) ** 2, np.abs(amp_e[:, 0]) ** 2)
        assert np.array_equal(np.abs(state.amp_g) ** 2, np.abs(amp_g[:, 0]) ** 2)


@pytest.mark.parametrize(
    "live_end, n, inner",
    [
        (1, 256, 128), (128, 256, 128), (129, 256, 256),   # K' = n - 128 cuts; past it, none
        (129, 384, 256), (129, 383, 383),                  # K' = n - 128 cuts, n - 127 does not
        (170, 1024, 256), (194, 300, 300), (743, 1024, 768), (768, 1024, 768),
        (769, 1024, 896), (897, 1024, 1024), (64, 64, 64), (1024, 1024, 1024),
    ],
)
def test_inner_dimension_cuts_at_panels_only_on_a_checked_core(live_end, n, inner):
    assert dynamics._inner_dimension(live_end, n, "SkylakeX") == inner
    for core in ("Haswell", "", None):
        assert dynamics._inner_dimension(live_end, n, core) == n


@pytest.mark.parametrize("core", ["Haswell", None])
def test_an_unchecked_core_takes_the_full_product_with_the_same_bits(monkeypatch, core):
    n = 1024
    params, e0 = RabiParams(omega0=0.0, omega=0.23, g=0.15, n_trunc=n), FullState.basis_state("e", 0, n)
    with blas.one_thread():
        cut = run_trajectory(params, e0, 120.0, 0.1)   # on the running core: K' 256 on SkylakeX
        monkeypatch.setattr(blas, "numpy_core", lambda: core)
        assert largest_reach(params, e0) == (256, n)
        full = run_trajectory(params, e0, 120.0, 0.1)
    for name in ("pnt", "p_e", "p_r", "mean_n"):
        assert np.array_equal(getattr(cut, name), getattr(full, name))


@st.composite
def chain_problems(draw):
    """A small model, a normalized state on one or both chains, and a time grid."""
    n = draw(st.integers(2, 32))
    params = RabiParams(omega0=draw(st.floats(-1.0, 1.0)), omega=draw(st.floats(0.05, 1.0)),
                        g=draw(st.floats(0.0, 1.0)), n_trunc=n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    on_c, on_f = draw(st.sampled_from([(1.0, 1.0), (1.0, 0.0), (0.0, 1.0)]))
    c, f = on_c * rng.normal(size=2 * n).view(complex), on_f * rng.normal(size=2 * n).view(complex)
    norm = np.sqrt(np.sum(np.abs(c) ** 2) + np.sum(np.abs(f) ** 2))
    c, f = c / norm, f / norm
    state = recompose(ChainState(c, ParityChain.C, float(np.sum(np.abs(c) ** 2))),
                      ChainState(f, ParityChain.F, float(np.sum(np.abs(f) ** 2))))
    dt = draw(st.floats(0.05, 2.0))
    return params, state, dt * draw(st.integers(1, 30)), dt


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(chain_problems())
def test_one_propagation_path_properties(problem):
    params, state, t_max, dt = problem
    traj = run_trajectory(params, state, t_max, dt)
    ks = [0, traj.t_grid.shape[0] // 2, -1]
    oracle_e, oracle_g = full_rabi_amplitudes(params, state, traj.t_grid[ks])
    for j, k in enumerate(ks):
        t = float(traj.t_grid[k])
        at_t = chain_reference_state(params, state, t)
        pop, p_e, p_r, mean_n = observables(at_t.amp_e, at_t.amp_g, state)
        assert np.abs(traj.pnt[k] - pop).max() < 1e-12
        assert abs(traj.p_e[k] - p_e) < 1e-12
        assert abs(traj.p_r[k] - p_r) < 1e-12
        assert abs(traj.mean_n[k] - mean_n) < 1e-12
        assert np.abs(at_t.amp_e - oracle_e[:, j]).max() < 1e-8
        assert np.abs(at_t.amp_g - oracle_g[:, j]).max() < 1e-8
    hf = build_chain(params, ParityChain.F)
    hc = build_chain(replace(params, omega0=-params.omega0), ParityChain.C)
    assert np.array_equal(hf.diag, hc.diag) and np.array_equal(hf.offdiag, hc.offdiag)
    back = recompose(*decompose(state))
    assert back.amp_e.tobytes() == state.amp_e.tobytes()
    assert back.amp_g.tobytes() == state.amp_g.tobytes()


def test_trajectory_keeps_no_eigenbasis():
    # at n_trunc 1024 one chain's eigenvector matrix is 8 MiB; the grid is 11 points
    n = 1024
    params, e0 = RabiParams(omega0=0.0, omega=0.23, g=0.15, n_trunc=n), FullState.basis_state("e", 0, n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj = run_trajectory(params, e0, 1.0, 0.1)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < traj.pnt.nbytes + n**2 * 4


def test_blocks_start_at_multiples_of_1024_and_a_short_tail_joins_the_block_before():
    assert dynamics._grid_blocks(1) == [slice(0, 1)]
    assert dynamics._grid_blocks(1087) == [slice(0, 1087)]
    assert dynamics._grid_blocks(1088) == [slice(0, 1024), slice(1024, 1088)]
    assert dynamics._grid_blocks(3073) == [slice(0, 1024), slice(1024, 2048), slice(2048, 3073)]


def test_working_set_does_not_grow_with_the_grid():
    # g/omega 3: every site is reached, so every block evolves all 128 sites
    n = 128
    params, e0 = RabiParams(omega0=0.1, omega=0.23, g=0.7, n_trunc=n), FullState.basis_state("e", 0, n)
    beyond_map = {}
    for t_max in (200.0, 2000.0):   # 2,001 and 20,001 points
        tracemalloc.start()
        try:
            traj = run_trajectory(params, e0, t_max, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        beyond_map[traj.t_grid.shape[0]] = peak - 8 * n * traj.t_grid.shape[0]
        del traj
    # the grid and the observables are 40 bytes a point; a whole-grid product would be kilobytes
    assert beyond_map[20001] - beyond_map[2001] <= 96 * (20001 - 2001)


def test_truncation_sentinel_flags_small_arrays():
    p15 = RabiParams(omega0=0.0, omega=0.23, g=0.15, n_trunc=15)
    traj = run_trajectory(p15, FullState.basis_state("e", 0, 15), 60.0, 0.1)
    assert traj.truncation_flagged
    big = run_trajectory(DSC, FullState.basis_state("e", 0, 64), 60.0, 0.1)
    assert not big.truncation_flagged


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

def test_population_examples():
    e0 = FullState.basis_state("e", 0, 8)
    assert population_excited(e0) == 1.0
    amp_e = np.zeros(8, dtype=complex)
    amp_g = np.zeros(8, dtype=complex)
    amp_e[0] = amp_g[0] = np.sqrt(0.5)
    half = FullState(amp_e, amp_g)
    assert population_excited(half) == pytest.approx(0.5, abs=1e-15)
    assert population_ground(half) == pytest.approx(0.5, abs=1e-15)


def test_population_equals_even_site_sum_on_c_chain():
    # for a state confined to the C chain, P_e is the even-site weight
    e0 = FullState.basis_state("e", 0, 64)
    traj = run_trajectory(DSC, e0, 20.0, 1.0)
    for state in (chain_reference_state(DSC, e0, float(t)) for t in traj.t_grid):
        c, _ = decompose(state)
        assert population_excited(state) == pytest.approx(
            float(np.sum(np.abs(c.amp[0::2]) ** 2)), abs=1e-12
        )


def test_population_excited_dip_at_half_period():
    # regression value computed with the dense brute-force propagator
    state = full_rabi_reference(DSC, FullState.basis_state("e", 0, 64), PERIOD / 2)
    pe = population_excited(state)
    assert 0.4 < pe < 0.6
    assert pe == pytest.approx(0.5166425321, abs=1e-8)


def test_revival_probability_examples():
    s = FullState.basis_state("e", 0, 8)
    assert revival_probability(s, s) == pytest.approx(1.0, abs=0)
    other = FullState.basis_state("g", 3, 8)
    assert revival_probability(other, s) == 0.0
    with pytest.raises(DimensionMismatchError):
        revival_probability(FullState.basis_state("e", 0, 9), s)


def test_revival_probability_at_half_period():
    # closed form exp(-4 (g/omega)^2), verified against propagation
    state = chain_reference_state(DSC, FullState.basis_state("e", 0, 64), PERIOD / 2)
    pr = revival_probability(state, FullState.basis_state("e", 0, 64))
    assert pr == pytest.approx(0.1824419476889, abs=5e-3)
    assert pr == pytest.approx(np.exp(-4 * (0.15 / 0.23) ** 2), abs=1e-10)


def test_mean_photon_number_examples():
    assert mean_photon_number(FullState.basis_state("e", 0, 8)) == 0.0
    assert mean_photon_number(FullState.basis_state("g", 3, 8)) == 3.0


def test_mean_photon_number_at_half_period():
    state = chain_reference_state(DSC, FullState.basis_state("e", 0, 64), PERIOD / 2)
    assert mean_photon_number(state) == pytest.approx(1.7013232514, abs=1e-8)


@pytest.mark.parametrize("n_trunc, points", [(96, 1), (96, 1024), (300, 1024), (1024, 1), (1024, 1024)])
def test_revival_probability_keeps_the_bits_of_the_copied_overlap(n_trunc, points):
    # |<state|initial>|^2 through a conjugated copy of the block: observables takes the
    # conjugate overlap <initial|state> without the copy, and |z|^2 must keep every bit
    p = RabiParams(omega0=0.1, omega=0.23, g=0.3, n_trunc=n_trunc)
    initial = random_full_state(np.random.default_rng(n_trunc), n_trunc)
    [(_, (amp_e, amp_g))] = dynamics._amplitudes(p, initial, 0.1 * np.arange(points) + 3.0)
    cases = [(amp_e, amp_g)]
    if points == 1:   # the block and the one state it holds
        cases.append((amp_e[:, 0], amp_g[:, 0]))
    for a_e, a_g in cases:
        m = a_e.shape[0]
        copied = np.conj(a_e).T @ initial.amp_e[:m] + np.conj(a_g).T @ initial.amp_g[:m]
        assert observables(a_e, a_g, initial)[2].tobytes() == (np.abs(copied) ** 2).tobytes()


def test_chains_built_by_the_caller_give_the_bits_of_the_chains_built_here():
    p = RabiParams(omega0=0.1, omega=0.3, g=0.2, n_trunc=32)
    initial = random_full_state(np.random.default_rng(8), 32)
    grid = np.linspace(0.0, 120.0, 25)
    [(_, own)] = dynamics._amplitudes(p, initial, grid)
    chains = [build_chain(p, chain) for chain in ParityChain]
    with mock.patch.object(dynamics, "build_chain", side_effect=AssertionError("built again")):
        [(_, given)] = dynamics._amplitudes(p, initial, grid, chains)
    assert given.tobytes() == own.tobytes()


def test_photon_distribution_sums_to_one():
    rng = np.random.default_rng(3)
    s = random_full_state(rng, 24)
    assert photon_distribution(s).sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def test_full_rabi_matrix_is_symmetric_and_blockless():
    p = RabiParams(omega0=0.11, omega=0.29, g=0.21, n_trunc=6)
    h = full_rabi_matrix(p)
    assert np.array_equal(h, h.T)
    # diagonal: -/+ omega0/2 + m omega on g/e rows
    assert h[0, 0] == pytest.approx(-0.055)
    assert h[1, 1] == pytest.approx(0.055)
    assert h[2, 2] == pytest.approx(-0.055 + 0.29)
    # coupling between |e,0> and |g,1>
    assert h[1, 2] == pytest.approx(0.21)


def loop_full_rabi_matrix(params):
    """The dense Hamiltonian entry by entry, one coupling at a time."""
    n = params.n_trunc
    h = np.zeros((2 * n, 2 * n))
    for m in range(n):
        h[2 * m, 2 * m] = -params.omega0 / 2.0 + m * params.omega
        h[2 * m + 1, 2 * m + 1] = params.omega0 / 2.0 + m * params.omega
    for k in range(n - 1):
        amp = params.g * np.sqrt(k + 1.0)
        h[2 * k + 1, 2 * (k + 1)] = h[2 * (k + 1), 2 * k + 1] = amp      # <e,k|H|g,k+1>
        h[2 * k, 2 * (k + 1) + 1] = h[2 * (k + 1) + 1, 2 * k] = amp      # <g,k|H|e,k+1>
    return h


@pytest.mark.parametrize("n_trunc", [1, 2, 17])
def test_full_rabi_matrix_equals_the_entry_by_entry_matrix(n_trunc):
    # RabiParams refuses n_trunc 1; the matrix reads only these four fields
    p = SimpleNamespace(omega0=0.11, omega=0.29, g=0.21, n_trunc=n_trunc)
    assert np.array_equal(full_rabi_matrix(p), loop_full_rabi_matrix(p))


def test_full_rabi_uncoupled_phases():
    p = RabiParams(omega0=0.3, omega=0.7, g=0.0, n_trunc=8)
    t = 2.3
    out = full_rabi_reference(p, FullState.basis_state("e", 2, 8), t)
    expected = np.exp(-1j * (0.15 + 2 * 0.7) * t)
    assert abs(out.amp_e[2] - expected) < 1e-12
    assert population_excited(out) == pytest.approx(1.0, abs=1e-12)


def test_full_rabi_refuses_oversized_problems():
    p = RabiParams(omega0=0.0, omega=1.0, g=0.1, n_trunc=300)
    with pytest.raises(ValueError, match="256"):
        full_rabi_reference(p, FullState.basis_state("e", 0, 300), 1.0)
    with pytest.raises(ValueError, match="256"):
        full_rabi_amplitudes(p, FullState.basis_state("e", 0, 300), np.array([1.0, 2.0]))


@pytest.mark.parametrize("n_trunc", [2, 32, 64, 256])
def test_dense_oracle_is_bit_identical_to_scipy_eigh(n_trunc):
    # dsyevr with the workspace scipy.linalg.eigh queries: every bit of the evolution agrees
    # at one BLAS thread, as the CLI runs.  The reference's eigh runs in scipy's OpenBLAS
    initial = random_full_state(np.random.default_rng(n_trunc), n_trunc)
    psi0 = np.empty(2 * n_trunc, dtype=complex)
    psi0[0::2], psi0[1::2] = initial.amp_g, initial.amp_e
    times = np.array([0.0, 1.3, 27.3, 250.0])
    for omega0, g in itertools.product([0.0, 0.04, 0.3], [0.05, 0.3, 2.0]):
        p = RabiParams(omega0=omega0, omega=0.23, g=g, n_trunc=n_trunc)
        with blas.one_thread():
            with every_openblas_at_one_thread():
                evals, evecs = scipy.linalg.eigh(full_rabi_matrix(p))
            psi_t = evecs @ (np.exp(-1j * np.outer(evals, times)) * (evecs.T @ psi0)[:, None])
            amp_e, amp_g = full_rabi_amplitudes(p, initial, times)
        assert amp_e.tobytes() == psi_t[1::2].tobytes(), (omega0, g)
        assert amp_g.tobytes() == psi_t[0::2].tobytes(), (omega0, g)


@pytest.mark.parametrize("seed", range(4))
def test_grid_oracle_matches_the_single_time_oracle(seed):
    # one eigh over the grid gives each time's state, as one eigh per time does
    rng = np.random.default_rng(seed)
    p = RabiParams(omega0=float(rng.uniform(-0.3, 0.3)), omega=float(rng.uniform(0.1, 0.5)),
                   g=float(rng.uniform(0.0, 0.3)), n_trunc=32)
    s = random_full_state(rng, 32)
    times = np.concatenate([[0.0], rng.uniform(0.0, 60.0, 6)])
    amp_e, amp_g = full_rabi_amplitudes(p, s, times)
    assert amp_e.shape == amp_g.shape == (32, times.shape[0])
    for k, t in enumerate(times):
        ref = full_rabi_reference(p, s, float(t))
        assert np.abs(amp_e[:, k] - ref.amp_e).max() < 1e-12
        assert np.abs(amp_g[:, k] - ref.amp_g).max() < 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_chain_evolution_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    p = RabiParams(
        omega0=float(rng.uniform(-0.3, 0.3)),
        omega=float(rng.uniform(0.1, 0.5)),
        g=float(rng.uniform(0.0, 0.3)),
        n_trunc=32,
    )
    s = random_full_state(rng, 32)
    t = float(rng.uniform(0.0, 60.0))
    a = chain_reference_state(p, s, t)
    b = full_rabi_reference(p, s, t)
    assert np.abs(a.amp_e - b.amp_e).max() < 1e-8
    assert np.abs(a.amp_g - b.amp_g).max() < 1e-8


def test_qubit_flip_maps_sign_of_omega0():
    # (omega0, |g,0>) and (-omega0, |e,0>) are the same dynamics with the
    # qubit labels swapped, so P(n,t) coincides exactly; the physically
    # distinct comparison is |e,0> vs |g,0> at the same omega0.
    p_pos = RabiParams(omega0=0.08, omega=0.23, g=0.15, n_trunc=32)
    p_neg = RabiParams(omega0=-0.08, omega=0.23, g=0.15, n_trunc=32)
    times = np.array([7.0, 13.0, 21.0])
    g0, e0 = FullState.basis_state("g", 0, 32), FullState.basis_state("e", 0, 32)
    pop_a, pe_a, _, _ = observables(*full_rabi_amplitudes(p_pos, g0, times), g0)
    pop_b, pe_b, _, _ = observables(*full_rabi_amplitudes(p_neg, e0, times), e0)
    assert np.abs(pop_a - pop_b).max() < 1e-12
    assert np.abs((1.0 - pe_a) - pe_b).max() < 1e-12


def test_initial_qubit_branch_changes_the_map():
    # same omega0, opposite initial branch: genuinely different dynamics
    p = RabiParams(omega0=0.08, omega=0.23, g=0.15, n_trunc=32)
    t = PERIOD / 2
    a = full_rabi_reference(p, FullState.basis_state("e", 0, 32), t)
    b = full_rabi_reference(p, FullState.basis_state("g", 0, 32), t)
    assert np.abs(photon_distribution(a) - photon_distribution(b)).max() > 0.01
    assert mean_photon_number(a) > mean_photon_number(b)
