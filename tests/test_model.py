"""Basis types, the coupling law, and the chain permutation."""

import math

import numpy as np
import pytest

from rabichain import dynamics, model, validate
from rabichain.model import (
    ChainState,
    FullState,
    ParityChain,
    RabiParams,
    coupling_ladder,
    decompose,
    recompose,
    to_branches,
)


def random_full_state(rng, n_trunc):
    vec = rng.normal(size=4 * n_trunc).view(np.complex128)
    vec /= np.linalg.norm(vec)
    return FullState(vec[:n_trunc], vec[n_trunc:])


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def test_params_accept_device_values():
    p = RabiParams(omega0=0.04, omega=0.23, g=0.15, n_trunc=15)
    assert p.omega0 == 0.04


def test_params_accept_negative_and_zero_omega0():
    RabiParams(omega0=-0.08, omega=0.23, g=0.15, n_trunc=64)
    RabiParams(omega0=0.0, omega=0.23, g=0.15, n_trunc=64)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(omega0=0.0, omega=0.0, g=0.1, n_trunc=8),
        dict(omega0=0.0, omega=-0.2, g=0.1, n_trunc=8),
        dict(omega0=0.0, omega=0.2, g=-0.1, n_trunc=8),
        dict(omega0=0.0, omega=0.2, g=0.1, n_trunc=1),
    ],
)
def test_params_reject_invalid(kwargs):
    with pytest.raises(ValueError):
        RabiParams(**kwargs)


# ---------------------------------------------------------------------------
# coupling law
# ---------------------------------------------------------------------------

def test_coupling_first_site():
    assert coupling_ladder(0.15, 2)[0] == pytest.approx(0.15, abs=0)


def test_coupling_perfect_square():
    assert coupling_ladder(0.15, 5)[3] == pytest.approx(0.30, abs=1e-15)


def test_coupling_strongest_of_15_guide_array():
    # largest hop in a 15-guide array: 0.15 * sqrt(14), by direct evaluation
    ladder = coupling_ladder(0.15, 15)
    assert ladder.shape == (14,)
    assert ladder[-1] == pytest.approx(0.5612486080160912, abs=1e-15)


def test_coupling_strictly_increasing_and_square_law():
    g = 0.37
    values = coupling_ladder(g, 41).tolist()
    assert all(b > a for a, b in zip(values, values[1:]))
    # kappa_n^2 / g^2 recovers the integer n + 1 exactly up to rounding
    for n, k in enumerate(values):
        assert (k / g) ** 2 == pytest.approx(n + 1, rel=1e-12)


def test_coupling_ladder_matches_scalar_law():
    # bit for bit: the recipe's targets and its hashed files rest on these exact values
    for g, sites in [(0.2, 17), (0.15, 15), (0.37, 1024), (0.0, 2), (0.5, 1)]:
        ladder = coupling_ladder(g, sites)
        assert ladder.shape == (max(sites - 1, 0),)
        assert ladder.tolist() == [g * math.sqrt(n + 1.0) for n in range(sites - 1)]


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

def test_full_state_rejects_bad_norm():
    amp = np.zeros(8, dtype=complex)
    amp[0] = 0.999
    with pytest.raises(ValueError, match="not normalized"):
        FullState(amp, np.zeros(8))


@pytest.mark.parametrize("value", [1e308, 1e308j, 1.5, np.nan, np.inf])
def test_full_state_rejects_an_amplitude_no_normalized_state_has(value):
    # refused before squaring: 1e308 would overflow, a RuntimeWarning under pytest's filter
    amp = np.zeros(8, dtype=complex)
    amp[3] = value
    with pytest.raises(ValueError, match="not normalized") as excinfo:
        FullState(amp, np.zeros(8))
    assert "np." not in str(excinfo.value)   # a plain float, not np.float64(...)


def test_full_state_rejects_length_mismatch():
    with pytest.raises(ValueError):
        FullState(np.zeros(8), np.zeros(7))


def test_full_state_rejects_an_amplitude_array_that_is_not_1d():
    with pytest.raises(ValueError, match=r"amp_e must be a 1-d amplitude vector, got shape \(2, 4\)"):
        FullState(np.zeros((2, 4)), np.zeros(8))


def test_full_state_arrays_are_readonly():
    s = FullState.basis_state("e", 0, 4)
    with pytest.raises(ValueError):
        s.amp_e[0] = 0.0


# ---------------------------------------------------------------------------
# decompose / recompose
# ---------------------------------------------------------------------------

def test_decompose_excited_vacuum_goes_to_c_chain():
    c, f = decompose(FullState.basis_state("e", 0, 8))
    assert c.weight == pytest.approx(1.0, abs=0)
    assert f.weight == 0.0
    assert c.amp[0] == 1.0
    assert np.all(c.amp[1:] == 0)


def test_decompose_ground_vacuum_goes_to_f_chain():
    c, f = decompose(FullState.basis_state("g", 0, 8))
    assert f.weight == pytest.approx(1.0, abs=0)
    assert c.weight == 0.0
    assert f.amp[0] == 1.0


def test_decompose_ground_one_photon_uses_odd_site_rule():
    # |g>|1>: odd Fock index, so b_1 lands on the C chain
    c, f = decompose(FullState.basis_state("g", 1, 8))
    assert c.weight == pytest.approx(1.0, abs=0)
    assert c.amp[1] == 1.0
    assert f.weight == 0.0


@pytest.mark.parametrize("m", range(6))
@pytest.mark.parametrize("branch", ["e", "g"])
def test_chain_selection_by_parity(branch, m):
    c, f = decompose(FullState.basis_state(branch, m, 8))
    expect_c = (branch == "e") == (m % 2 == 0)
    assert c.weight == (1.0 if expect_c else 0.0)
    assert f.weight == (0.0 if expect_c else 1.0)


def test_recompose_examples():
    n = 8
    c_amp = np.zeros(n, dtype=complex)
    c_amp[0] = 1.0
    back = recompose(
        ChainState(c_amp, ParityChain.C, 1.0),
        ChainState(np.zeros(n), ParityChain.F, 0.0),
    )
    assert back.amp_e[0] == 1.0

    f_amp = np.zeros(n, dtype=complex)
    f_amp[1] = 1.0  # odd site of F carries a_1: state |e>|1>
    back = recompose(
        ChainState(np.zeros(n), ParityChain.C, 0.0),
        ChainState(f_amp, ParityChain.F, 1.0),
    )
    assert back.amp_e[1] == 1.0
    assert np.sum(np.abs(back.amp_g)) == 0.0


def test_recompose_accepts_either_argument_order():
    s = FullState.basis_state("g", 2, 6)
    c, f = decompose(s)
    assert np.array_equal(recompose(f, c).amp_g, s.amp_g)


def test_recompose_rejects_mismatched_lengths():
    c = ChainState(np.zeros(4), ParityChain.C, 0.0)
    f = ChainState(np.zeros(5), ParityChain.F, 0.0)
    with pytest.raises(ValueError, match="length"):
        recompose(c, f)


def test_recompose_rejects_two_same_chains():
    c = ChainState(np.zeros(4), ParityChain.C, 0.0)
    with pytest.raises(ValueError):
        recompose(c, c)


def test_recompose_rejects_weight_deficit():
    amp = np.zeros(4, dtype=complex)
    amp[0] = np.sqrt(0.5)
    c = ChainState(amp, ParityChain.C, 0.5)
    f = ChainState(np.zeros(4), ParityChain.F, 0.0)
    with pytest.raises(ValueError, match="not normalized"):
        recompose(c, f)


@pytest.mark.parametrize("seed", range(10))
def test_roundtrip_is_exact_permutation(seed):
    rng = np.random.default_rng(seed)
    s = random_full_state(rng, int(rng.integers(2, 40)))
    c, f = decompose(s)
    assert c.weight + f.weight == pytest.approx(1.0, abs=1e-12)
    back = recompose(c, f)
    # bit-for-bit: the relabeling is a permutation, no arithmetic involved
    assert np.array_equal(back.amp_e, s.amp_e)
    assert np.array_equal(back.amp_g, s.amp_g)


def test_to_branches_equals_recompose_of_the_zero_padded_chains():
    # the chains propagation hands it: 2-d, reach-limited, of unequal length or one missing
    rng = np.random.default_rng(3)
    n, nt = 9, 4
    for lengths in ({ParityChain.C: 6, ParityChain.F: 3}, {ParityChain.F: 5}):
        chains = {chain: rng.normal(size=(m, 2 * nt)).view(complex) for chain, m in lengths.items()}
        norm = np.sqrt(sum(np.sum(np.abs(amp) ** 2, axis=0) for amp in chains.values()))
        chains = {chain: amp / norm for chain, amp in chains.items()}
        reach = max(lengths.values())
        branches = to_branches(chains)
        assert branches.shape == (2, reach, nt)
        for k in range(nt):
            padded = {chain: np.pad(amp[:, k], (0, n - amp.shape[0])) for chain, amp in chains.items()}
            back = recompose(*(ChainState(amp, chain, float(np.sum(np.abs(amp) ** 2)))
                               for chain in ParityChain
                               for amp in [padded.get(chain, np.zeros(n, dtype=complex))]))
            for got, want in zip(branches[:, :, k], (back.amp_e, back.amp_g)):
                assert np.pad(got, (0, n - reach)).tobytes() == want.tobytes()


def test_roundtrip_check_guards_the_write_propagation_runs(monkeypatch):
    assert dynamics.to_branches is model.to_branches
    assert validate.check_roundtrip().passed
    right = model.to_branches
    monkeypatch.setattr(model, "to_branches", lambda chains: right(chains)[::-1])   # a_n <-> b_n
    assert not validate.check_roundtrip().passed
