"""Chain Hamiltonians, spectral propagation, observables, oracle equivalence."""

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from rabichain import dynamics
from rabichain.dynamics import (
    DimensionMismatchError,
    EigendecompositionError,
    _evolve_grid,
    build_chain,
    chain_reference_state,
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


def perturbed_eigh_tridiagonal(perturb):
    """eigh_tridiagonal with eigenvalue 3 shifted, or eigenvector 3 stretched, by 1e-6."""
    def solve(diag, offdiag):
        evals, evecs = eigh_tridiagonal(diag, offdiag)
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
    traj = run_trajectory(
        RabiParams(omega0=0.08, omega=0.23, g=0.15, n_trunc=32),
        FullState(amp_e, amp_g),
        20.0,
        0.5,
    )
    c, f = decompose(traj.state(-1))
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
    nt = traj.t_grid.shape[0]
    for k in (0, nt // 2, -1):
        got = traj.state(k)
        want = chain_reference_state(p, state0, float(traj.t_grid[k]))
        assert np.abs(got.amp_e - want.amp_e).max() < 1e-12
        assert np.abs(got.amp_g - want.amp_g).max() < 1e-12
    assert np.array_equal(traj.state(-1).amp_e, traj.state(nt - 1).amp_e)


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
    reaches = [0]
    for part in decompose(initial):
        if part.weight != 0.0:
            h = build_chain(params, part.chain)
            reaches.append(_evolve_grid(h, h.eigenvectors.T @ part.amp, np.zeros(1)).shape[0])
    return max(reaches)


@pytest.mark.parametrize(
    "params, initial, restricted",
    [
        # e0 at g/omega 0.65: nothing past site 256 is reached
        (RabiParams(omega0=0.0, omega=0.23, g=0.15, n_trunc=1024),
         FullState.basis_state("e", 0, 1024), True),
        # g/omega > 2: every site is reached
        (RabiParams(omega0=0.1, omega=0.23, g=0.6, n_trunc=64),
         FullState.basis_state("e", 0, 64), False),
        # g2 lives on the F chain alone: the C chain is empty
        (RabiParams(omega0=0.05, omega=0.23, g=0.15, n_trunc=48),
         FullState.basis_state("g", 2, 48), False),
        # complex superpositions on both chains
        (RabiParams(omega0=-0.08, omega=0.23, g=0.15, n_trunc=40),
         random_full_state(np.random.default_rng(11), 40), False),
        (RabiParams(omega0=0.08, omega=0.23, g=0.15, n_trunc=512),
         low_fock_superposition(512, 4, seed=5), True),
    ],
    ids=["reach-below-n", "reach-n", "one-chain-empty", "two-chains", "two-chains-reach-below-n"],
)
def test_restricted_propagation_is_bit_identical_to_the_full_product(params, initial, restricted):
    n = params.n_trunc
    assert (largest_reach(params, initial) < n) == restricted
    traj = run_trajectory(params, initial, 6.0, 0.1)
    _, _, pnt, p_e, p_r, mean_n = unrestricted_observables(params, initial, traj.t_grid)
    assert np.array_equal(traj.pnt, pnt)
    assert np.array_equal(traj.p_e, p_e)
    assert np.array_equal(traj.p_r, p_r)
    assert np.array_equal(traj.mean_n, mean_n)
    for k in (0, 17, -1):
        amp_e, amp_g, *_ = unrestricted_observables(params, initial, traj.t_grid[k:k + 1 or None])
        state = traj.state(k)
        assert np.array_equal(np.abs(state.amp_e) ** 2, np.abs(amp_e[:, 0]) ** 2)
        assert np.array_equal(np.abs(state.amp_g) ** 2, np.abs(amp_g[:, 0]) ** 2)


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
    traj = run_trajectory(DSC, FullState.basis_state("e", 0, 64), 20.0, 1.0)
    for state in map(traj.state, range(traj.t_grid.shape[0])):
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
    for t in (7.0, 13.0, 21.0):
        a = full_rabi_reference(p_pos, FullState.basis_state("g", 0, 32), t)
        b = full_rabi_reference(p_neg, FullState.basis_state("e", 0, 32), t)
        assert np.abs(photon_distribution(a) - photon_distribution(b)).max() < 1e-12
        assert population_ground(a) == pytest.approx(population_excited(b), abs=1e-12)


def test_initial_qubit_branch_changes_the_map():
    # same omega0, opposite initial branch: genuinely different dynamics
    p = RabiParams(omega0=0.08, omega=0.23, g=0.15, n_trunc=32)
    t = PERIOD / 2
    a = full_rabi_reference(p, FullState.basis_state("e", 0, 32), t)
    b = full_rabi_reference(p, FullState.basis_state("g", 0, 32), t)
    assert np.abs(photon_distribution(a) - photon_distribution(b)).max() > 0.01
    assert mean_photon_number(a) > mean_photon_number(b)
