"""Chain Hamiltonians, exact propagation, observables, and a brute-force oracle.

Each parity chain is a real symmetric tridiagonal matrix

    H[n, n]   = sign * (-1)^n * omega0/2 + n * omega
    H[n, n+1] = kappa_n = g * sqrt(n + 1)

(sign = +1 for the C chain, -1 for F).  The matrix is constant, so states
are propagated exactly through the spectral decomposition

    psi(t) = V exp(-i Lambda t) V^T psi(0)

with no step error; the requested time grid is purely an output-sampling
grid.

There is one propagation path, ``_amplitudes``.  It decomposes the
initial state, builds each non-empty chain, evolves it over a time grid
with ``_evolve_grid`` and writes the chain sites back onto the qubit
branches, a_n and b_n; it is the only code here that maps chain sites
onto the branches.  :func:`run_trajectory` runs it over the whole output grid
and :func:`chain_reference_state` over the one-point grid {t}.  The
observables P(n), P_e, P_r and <n> have one implementation,
:func:`observables`, for the amplitudes of one state, shape (n,), or of
a time grid, shape (n, nt).

Only the live eigencomponents, those with a nonzero coefficient
c_k = (V^T psi(0))_k, get a phase factor; the other rows of the phase
matrix stay exactly zero.  The product is taken only over the sites
n < reach, where reach is one past the last site with a nonzero V[n, k]
for some live k.  Past reach every term V[n, k] exp(-i lambda_k t) c_k has
a factor that is exactly 0.0, so those amplitudes are exactly 0.0 and are
filled in, not computed: the result is the same bits as the full product.
This saves work because the eigenvectors a low-lying state is made of
decay fast up the chain, and the eigensolver returns their far entries as
exact zeros once they underflow (at n_trunc = 1024, g/omega = 0.65, from
site 256 on).  The eigenbasis (inner) dimension of the product is kept
whole: dropping its dead columns changes the summation order and so the
last bits.

A dense diagonalization of the untransformed two-branch Hamiltonian serves
as an independent cross-check and is used only in tests and the validation
suite.  It mirrors the production path: :func:`full_rabi_amplitudes` runs
one ``eigh`` per model and evolves over a whole time grid, and
:func:`full_rabi_reference` is that function on the one-point grid {t}.

scipy is imported where its solvers are called, by :func:`eigh_tridiagonal`
and :func:`full_rabi_amplitudes`, so importing this module (and the package)
loads no scipy.  The CLI imports ``scipy.linalg`` when a command that solves
starts, before it caps the BLAS threads or allocates anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    NORM_TOL,
    RECOMPOSE_WEIGHT_TOL,
    FullState,
    ParityChain,
    RabiParams,
    coupling_ladder,
    decompose,
)

DECOMPOSITION_TOL = 1e-10     # residual / orthogonality bound on the eigensolve
TRUNCATION_OCCUPANCY = 1e-8   # top-two-site occupancy that flags a trajectory
FULL_RABI_MAX_TRUNC = 256     # the dense oracle is O((2 n_trunc)^3)


def eigh_tridiagonal(diag: np.ndarray, offdiag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scipy.linalg.eigh_tridiagonal, with scipy imported on the first call."""
    from scipy.linalg import eigh_tridiagonal

    return eigh_tridiagonal(diag, offdiag)


class EigendecompositionError(RuntimeError):
    """Eigensolver output failed its residual or orthogonality bound."""


class DimensionMismatchError(ValueError):
    """State and Hamiltonian truncation sizes disagree."""


@dataclass(frozen=True)
class ChainHamiltonian:
    """One parity chain with its cached spectral decomposition.

    eigenvalues are ascending; column k of ``eigenvectors`` is the k-th
    eigenvector.  Instances are immutable and safe to share across threads.
    """

    chain: ParityChain
    diag: np.ndarray
    offdiag: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n_trunc(self) -> int:
        return self.diag.shape[0]

    def apply(self, amp: np.ndarray) -> np.ndarray:
        """Tridiagonal product H @ amp for amp of shape (n_trunc,) or (n_trunc, k)."""
        shape = (-1,) + (1,) * (amp.ndim - 1)
        diag, offdiag = self.diag.reshape(shape), self.offdiag.reshape(shape)
        out = diag * amp
        out[:-1] += offdiag * amp[1:]
        out[1:] += offdiag * amp[:-1]
        return out

    def energy(self, amp: np.ndarray) -> float:
        """Expectation value <amp|H|amp> (real for any complex amp)."""
        return float(np.real(np.vdot(amp, self.apply(np.asarray(amp, dtype=complex)))))


def build_chain(params: RabiParams, chain: ParityChain) -> ChainHamiltonian:
    """Build one parity-chain Hamiltonian and cache its eigendecomposition.

    The two chains are related by omega0 -> -omega0:
    ``build_chain(params(omega0), F)`` equals ``build_chain(params(-omega0), C)``
    entry by entry.
    """
    n = params.n_trunc
    sites = np.arange(n, dtype=float)
    diag = chain.sign * ((-1.0) ** sites) * params.omega0 / 2.0 + sites * params.omega
    offdiag = coupling_ladder(params.g, n)

    try:
        evals, evecs = eigh_tridiagonal(diag, offdiag)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - solver failure
        raise EigendecompositionError(
            f"eigensolver failed on {chain.name}-chain: {exc}\n"
            f"diag={diag!r}\noffdiag={offdiag!r}"
        ) from exc

    h = ChainHamiltonian(chain, diag, offdiag, evals, evecs)
    scale = max(np.abs(diag).max(), np.abs(offdiag).max(), 1.0)
    residual = np.abs(h.apply(evecs) - evecs * evals).max()
    ortho = np.abs(evecs.T @ evecs - np.eye(n)).max()
    if not (residual <= DECOMPOSITION_TOL * scale and ortho <= DECOMPOSITION_TOL):
        raise EigendecompositionError(
            f"eigendecomposition of {chain.name}-chain out of tolerance: "
            f"residual={residual:.3e} (scale {scale:.3e}), orthogonality={ortho:.3e}\n"
            f"diag={diag!r}\noffdiag={offdiag!r}"
        )

    for arr in (diag, offdiag, evals, evecs):
        arr.setflags(write=False)
    return h


def _evolve_grid(h: ChainHamiltonian, coeffs: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """Amplitudes V exp(-i Lambda t) coeffs on the sites a state reaches, shape (reach, len(t_grid)).

    ``coeffs`` are the initial amplitudes in the eigenbasis, V^T psi(0).
    Sites reach..n_trunc-1 are exactly zero at every time (module docstring).
    """
    live = np.flatnonzero(coeffs)
    touched = np.flatnonzero(np.any(h.eigenvectors[:, live] != 0.0, axis=1))
    reach = int(touched[-1]) + 1 if touched.size else 0
    rhs = np.zeros((h.n_trunc, t_grid.shape[0]), dtype=complex)
    rhs[live] = np.exp(-1j * np.outer(h.eigenvalues[live], t_grid)) * coeffs[live, None]
    return h.eigenvectors[:reach] @ rhs


def _amplitudes(params: RabiParams, initial: FullState, t_grid: np.ndarray):
    """Amplitudes a_n, b_n at every time of ``t_grid`` on the sites either chain reaches.

    Returns (amp_e, amp_g), each of shape (reach, len(t_grid)); every site
    past reach is exactly empty (module docstring).  The C chain holds a_n
    on even sites and b_n on odd ones, the F chain the reverse.
    """
    if initial.n_trunc != params.n_trunc:
        raise DimensionMismatchError(
            f"initial state has {initial.n_trunc} sites, params.n_trunc={params.n_trunc}"
        )
    amps = {}
    for part in decompose(initial):
        if part.weight != 0.0:
            h = build_chain(params, part.chain)
            amps[part.chain] = _evolve_grid(h, h.eigenvectors.T @ part.amp, t_grid)
    reach = max(amp.shape[0] for amp in amps.values())
    amp_e, amp_g = np.zeros((2, reach, t_grid.shape[0]), dtype=complex)
    for chain, amp in amps.items():
        on_e = 0 if chain is ParityChain.C else 1
        amp_e[on_e:amp.shape[0]:2] = amp[on_e::2]
        amp_g[1 - on_e:amp.shape[0]:2] = amp[1 - on_e::2]
    return amp_e, amp_g


@dataclass
class Trajectory:
    """Time-gridded record of a propagated state and its observables.

    pnt[k, n] is the photon-number distribution P(n, t_k); p_e, p_r and
    mean_n are per-grid-point scalars.  ``truncation_flagged`` is true when
    the occupancy of the two topmost sites exceeds 1e-8 anywhere on the
    grid (run is reported, not aborted: finite arrays are a physical
    feature of the 15-guide device).  No state is kept:
    ``chain_reference_state(params, initial, t_grid[k])`` gives the state
    at a grid time.
    """

    t_grid: np.ndarray
    pnt: np.ndarray
    p_e: np.ndarray
    p_r: np.ndarray
    mean_n: np.ndarray
    top_site_occupancy: float

    @property
    def p_g(self) -> np.ndarray:
        return 1.0 - self.p_e

    @property
    def truncation_flagged(self) -> bool:
        return self.top_site_occupancy > TRUNCATION_OCCUPANCY


def grid_points(t_max: float, dt: float) -> float:
    """Number of points of the grid {0, dt, 2 dt, ..., t_max}; inf if t_max / dt overflows."""
    steps = t_max / dt
    return math.floor(steps + 1e-9) + 1 if math.isfinite(steps) else math.inf


def observables(amp_e: np.ndarray, amp_g: np.ndarray, initial: FullState):
    """P(n), P_e, P_r and <n> of amplitudes a_n, b_n on the sites n < m.

    ``amp_e`` and ``amp_g`` have shape (m,), one state, or (m, nt), one
    state per column; the sites m..n_trunc-1 of the state are taken to be
    empty.  Returns (pop, p_e, p_r, mean_n): pop[n] = |a_n|^2 + |b_n|^2
    with the shape of the input, and P_e = sum_n |a_n|^2, the revival
    probability |<initial|state>|^2 and <n> = sum_n n pop[n] as scalars or
    arrays of length nt.  P_g is 1 - P_e for a normalized state.
    """
    m = amp_e.shape[0]
    if m > initial.n_trunc:
        raise DimensionMismatchError(
            f"state has {m} sites, the initial state has {initial.n_trunc}"
        )
    pop_e = np.abs(amp_e) ** 2
    pop = pop_e + np.abs(amp_g) ** 2
    p_e = np.sum(pop_e, axis=0)
    overlap = (np.conj(amp_e).T @ initial.amp_e[:m]
               + np.conj(amp_g).T @ initial.amp_g[:m])
    p_r = np.abs(overlap) ** 2
    mean_n = pop.T @ np.arange(m, dtype=float)
    return pop, p_e, p_r, mean_n


def run_trajectory(params: RabiParams, initial: FullState, t_max: float, dt: float) -> Trajectory:
    """Propagate on the grid {0, dt, 2 dt, ..., t_max} and record observables.

    Each non-empty parity chain is evolved independently with its cached
    spectral decomposition; observables are always computed on the
    recomposed full state.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if t_max < dt:
        raise ValueError(f"t_max must be >= dt, got t_max={t_max}, dt={dt}")
    t_grid = np.arange(grid_points(t_max, dt)) * dt
    pop, p_e, p_r, mean_n = observables(*_amplitudes(params, initial, t_grid), initial)
    n, nt = params.n_trunc, t_grid.shape[0]
    pnt = np.zeros((n, nt)).T   # stored site-major like pop, so filling it is a plain copy
    pnt[:, :pop.shape[0]] = pop.T

    top = float(pnt[:, -2:].max())   # RabiParams keeps n_trunc >= 2
    return Trajectory(t_grid=t_grid, pnt=pnt, p_e=p_e, p_r=p_r, mean_n=mean_n,
                      top_site_occupancy=top)


def chain_reference_state(params: RabiParams, initial: FullState, t: float) -> FullState:
    """The state at time t, from the production path on the one-point grid {t}."""
    if t < 0:
        raise ValueError(f"propagation distance must be >= 0, got {t}")
    reached = _amplitudes(params, initial, np.array([t]))
    state = FullState(*(np.pad(amp[:, 0], (0, params.n_trunc - amp.shape[0])) for amp in reached),
                      norm_tol=RECOMPOSE_WEIGHT_TOL)
    for before, after in zip(decompose(initial), decompose(state)):
        if not abs(after.weight - before.weight) <= NORM_TOL:
            raise ValueError(f"{after.chain.name}-chain norm {after.weight!r} departs from its "
                             f"initial weight {before.weight!r} by more than {NORM_TOL}")
    return state


# ---------------------------------------------------------------------------
# Brute-force oracle: dense two-branch Hamiltonian, no chain decomposition
# ---------------------------------------------------------------------------

def full_rabi_matrix(params: RabiParams) -> np.ndarray:
    """Dense 2*n_trunc Hamiltonian on the ordered basis |g,0>, |e,0>, |g,1>, ...

    Diagonal: -/+ omega0/2 + m*omega on the g/e branch; the qubit-flipping
    coupling links |e,m> <-> |g,m+1> and |g,m> <-> |e,m+1> with g*sqrt(m+1).
    """
    n = params.n_trunc
    dim = 2 * n
    h = np.zeros((dim, dim))
    m = np.arange(n, dtype=float)
    g_sites, e_sites = 2 * np.arange(n), 2 * np.arange(n) + 1
    h[g_sites, g_sites] = -params.omega0 / 2.0 + m * params.omega
    h[e_sites, e_sites] = params.omega0 / 2.0 + m * params.omega
    k = np.arange(n - 1)
    amp = params.g * np.sqrt(k + 1.0)
    h[e_sites[:-1], g_sites[1:]] = h[g_sites[1:], e_sites[:-1]] = amp   # <e,k|H|g,k+1>
    h[g_sites[:-1], e_sites[1:]] = h[e_sites[1:], g_sites[:-1]] = amp   # <g,k|H|e,k+1>
    return h


def full_rabi_amplitudes(params: RabiParams, initial: FullState, t_grid: np.ndarray):
    """Evolve by one dense eigendecomposition of the untransformed Hamiltonian.

    Deliberately ignorant of the parity structure; intended as the
    independent oracle for tests.  Returns (amp_e, amp_g), each of shape
    (n_trunc, len(t_grid)).  Refuses n_trunc > 256.
    """
    if params.n_trunc > FULL_RABI_MAX_TRUNC:
        raise ValueError(
            f"the dense oracle supports n_trunc <= {FULL_RABI_MAX_TRUNC} "
            f"(got {params.n_trunc}); the dense solve is O((2 n_trunc)^3)"
        )
    if initial.n_trunc != params.n_trunc:
        raise DimensionMismatchError(
            f"initial state has {initial.n_trunc} sites, params.n_trunc={params.n_trunc}"
        )
    psi0 = np.empty(2 * params.n_trunc, dtype=complex)
    psi0[0::2] = initial.amp_g
    psi0[1::2] = initial.amp_e
    from scipy.linalg import eigh

    evals, evecs = eigh(full_rabi_matrix(params))
    psi_t = evecs @ (np.exp(-1j * np.outer(evals, t_grid)) * (evecs.T @ psi0)[:, None])
    return psi_t[1::2], psi_t[0::2]


def full_rabi_reference(params: RabiParams, initial: FullState, t: float) -> FullState:
    """The oracle's state at time t: :func:`full_rabi_amplitudes` on the one-point grid {t}."""
    amp_e, amp_g = full_rabi_amplitudes(params, initial, np.array([t]))
    return FullState(amp_e[:, 0], amp_g[:, 0], norm_tol=1e-9)
