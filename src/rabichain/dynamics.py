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
initial state, builds each non-empty chain once with its eigenbasis
coefficients, live components and reach (``_chain_evolution``, which
keeps only the block of the eigenbasis the state uses), then evolves
the chains over the time grid one block at a time and writes the chain
sites back onto the qubit branches, a_n and b_n, with
``model.to_branches``, the inverse that the decompose/recompose
round-trip checks.  :func:`trajectory_blocks` yields the observables of
each block, all the CLI reads: ``simulate`` writes them, a ``sweep``
point folds its extremes over them, and ``validate`` folds its sup norms
over them.  :func:`chain_reference_state` runs the path over the
one-point grid {t}.  :func:`run_trajectory` collects the blocks into a
:class:`Trajectory`; nothing in the package calls it, and it is kept for
library users and the tests until the whole-trajectory API leaves the
package (ROADMAP.md, item 6).
The observables P(n), P_e, P_r and <n> have one implementation,
:func:`observables`, for the amplitudes of one state, shape (n,), or of a
block of times, shape (n, nt).

Blocks (``_grid_blocks``) hold BLOCK_POINTS = 1024 grid points and
start at its multiples; a last block shorter than MIN_TAIL_POINTS = 64
joins the block before it.  A run so holds the complex amplitudes of one
block at a time.  Its memory grows with the grid only by what the caller
keeps: run_trajectory keeps the map P(n, t) and the per-point
observables, and simulate keeps the map only for its raster.  The
layout keeps the bits of evolving the whole grid at once.  P(n) and P_e
are per column, and the gemm V @ rhs computes every column alike
whatever the block width, as long as the block has two or more points:
numpy multiplies a one-column rhs with gemv instead, which changed cells
of every array.  P_r and <n> come from gemv products, (points, m)
matrices times a vector, and a gemv kernel sums a row in an order set by
its place in the kernel's unrolled row groups and by the size of the
call.  A block that starts at a multiple of 1024, a multiple of any
power-of-two unrolling, puts every row in the same place of its group as
the whole-grid call did, and merging a short tail keeps the last rows out
of a tiny call: a 2-point last block changed cells of <n>.  At one BLAS
thread every array so equals the whole-grid result; the CLI runs numpy's
OpenBLAS, the one BLAS the package calls, at one thread in every command
that solves (``blas.one_thread``), and loads it at one thread when it is
the program, so it starts no worker (``rabichain.cli``).  A caller that
runs BLAS at more threads can see last-bit differences in every array,
P(n) included, between thread counts: the products split their work
between the threads (2 threads changed 1,436 of the 2,049 rows of the
map at n_trunc 300, g 0.4, over 2,049 points).

The product V[:reach] @ rhs skips dead eigencomponents: with L one past
the last live one, its inner dimension is K' = 128 ceil(L / 128) where
K' <= n_trunc - 128, else n_trunc.  The rule is measured: on OpenBLAS'
SkylakeX core every such cut kept every bit (its zgemm seems to sum K in
128-wide panels while 256 or more remain), while cuts to L or past
n_trunc - 128 did not.  So it cuts only where numpy's OpenBLAS reports
a core in PANEL_CORES, read at the first evolution (``blas.numpy_core``).

A dense diagonalization of the untransformed two-branch Hamiltonian serves
as an independent cross-check and is used only in tests and the validation
suite.  It mirrors the production path: :func:`full_rabi_amplitudes` runs
one dense eigensolve per model and evolves over a whole time grid, and
:func:`full_rabi_reference` is that function on the one-point grid {t}.

Every eigensolve calls LAPACK in numpy's OpenBLAS (``blas``), with scipy's
bits: dstevd for the chains, dsyevr for the dense oracle.  Each call
releases the GIL, so the sweep pool's eigensolves overlap; no scipy loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import blas
from .model import (
    NORM_TOL,
    RECOMPOSE_WEIGHT_TOL,
    FullState,
    ParityChain,
    RabiParams,
    coupling_ladder,
    decompose,
    to_branches,
)

DECOMPOSITION_TOL = 1e-10     # residual / orthogonality bound on the eigensolve
TRUNCATION_OCCUPANCY = 1e-8   # top-two-site occupancy that flags a trajectory
FULL_RABI_MAX_TRUNC = 256     # the dense oracle is O((2 n_trunc)^3)
BLOCK_POINTS = 1024           # grid points evolved at a time; blocks start at its multiples
MIN_TAIL_POINTS = 64          # a shorter last block merges into the block before it
PANEL_WIDTH, PANEL_CORES = 128, frozenset({"SkylakeX"})   # zgemm K panels; cores a test checked


def eigh_tridiagonal(diag: np.ndarray, offdiag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All eigenpairs, ascending: LAPACK dstevd, called and checked as scipy's eigh_tridiagonal does."""
    if not (np.isfinite(diag).all() and np.isfinite(offdiag).all()):
        raise ValueError("array must not contain infs or NaNs")
    return blas.dstevd(diag, offdiag)


class EigendecompositionError(RuntimeError):
    """Eigensolver output failed its residual or orthogonality bound."""


class DimensionMismatchError(ValueError):
    """State and Hamiltonian truncation sizes disagree."""


@dataclass(frozen=True)
class ChainHamiltonian:
    """One parity chain with its cached spectral decomposition.

    eigenvalues are ascending; column k of ``eigenvectors`` is the k-th
    eigenvector; ``residual`` and ``orthogonality`` are the figures
    :func:`build_chain` checked.  Instances are immutable and thread-safe.
    """

    chain: ParityChain
    diag: np.ndarray
    offdiag: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual: float = math.nan
    orthogonality: float = math.nan

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
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionError(
            f"eigensolver failed on {chain.name}-chain: {exc}\n"
            f"diag={diag!r}\noffdiag={offdiag!r}"
        ) from exc

    h = ChainHamiltonian(chain, diag, offdiag, evals, evecs)
    scale = max(np.abs(diag).max(), np.abs(offdiag).max(), 1.0)
    # in place: one n x n temporary at a time next to the eigenvectors
    residual = h.apply(evecs)
    residual -= evecs * evals
    residual = np.abs(residual, out=residual).max()
    gram = evecs.T @ evecs
    gram.flat[::n + 1] -= 1.0
    ortho = np.abs(gram, out=gram).max()
    if not (residual <= DECOMPOSITION_TOL * scale and ortho <= DECOMPOSITION_TOL):
        raise EigendecompositionError(
            f"eigendecomposition of {chain.name}-chain out of tolerance: "
            f"residual={residual:.3e} (scale {scale:.3e}), orthogonality={ortho:.3e}\n"
            f"diag={diag!r}\noffdiag={offdiag!r}"
        )

    for arr in (diag, offdiag, evals, evecs):
        arr.setflags(write=False)
    return replace(h, residual=float(residual), orthogonality=float(ortho))


def _grid_blocks(points: int) -> list[slice]:
    """The blocks a grid of ``points`` points is evolved in, in order (module docstring)."""
    starts = list(range(0, points, BLOCK_POINTS))
    if len(starts) > 1 and points - starts[-1] < MIN_TAIL_POINTS:
        del starts[-1]
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [points])]


def _inner_dimension(live_end: int, n: int, core: str | None) -> int:
    """The GEMM's inner dimension K' for the live components below ``live_end`` of ``n``."""
    cut = PANEL_WIDTH * -(-live_end // PANEL_WIDTH)
    return cut if core in PANEL_CORES and cut <= n - PANEL_WIDTH else n


def _chain_evolution(h: ChainHamiltonian, coeffs: np.ndarray):
    """The function t -> V exp(-i Lambda t) coeffs on the sites a state reaches, shape (reach, len(t)).

    ``coeffs`` are the initial amplitudes in the eigenbasis, V^T psi(0).
    The live components, the reach and K' are found once, here; sites
    reach..n_trunc-1 and components K'..n_trunc-1 add nothing (module
    docstring).  The function keeps no reference to ``h``, only a float
    copy of the (reach, K') block of V, so the n_trunc^2 eigenbasis is
    freed before the first block: a complex copy kept for the whole run
    would hold twice the bytes, and the product's own cast is transient.
    """
    live = np.flatnonzero(coeffs)
    k = _inner_dimension(int(live[-1]) + 1 if live.size else 0, h.n_trunc, blas.numpy_core())
    touched = np.flatnonzero(np.any(h.eigenvectors[:, live] != 0.0, axis=1))
    reach = int(touched[-1]) + 1 if touched.size else 0
    v = h.eigenvectors[:reach, :k].copy()
    evals, c = h.eigenvalues[live], coeffs[live, None]

    def evolve(t: np.ndarray) -> np.ndarray:
        rhs = np.zeros((k, t.shape[0]), dtype=complex)
        rhs[live] = np.exp(-1j * np.outer(evals, t)) * c
        return v @ rhs

    return evolve


def _check_sites(params: RabiParams, initial: FullState) -> None:
    if initial.n_trunc != params.n_trunc:
        raise DimensionMismatchError(
            f"initial state has {initial.n_trunc} sites, params.n_trunc={params.n_trunc}"
        )


def _amplitudes(params: RabiParams, initial: FullState, t_grid: np.ndarray, built=()):
    """An iterator of (cols, amps) for each block ``cols`` of ``t_grid``, in order.

    amps holds the amplitudes a_n, b_n at the times t_grid[cols] on the
    sites either chain reaches, shape (2, reach, block length); every site
    past reach is exactly empty (module docstring).  Each chain is built
    and decomposed once, by this call, so a failed eigensolve raises here
    and not at the first block; each eigenbasis is freed before the next
    chain is built.  A chain of ``params`` the caller has built already,
    passed in ``built``, is used as it is.
    """
    _check_sites(params, initial)
    given, chains = {h.chain: h for h in built}, {}
    for part in decompose(initial):
        if part.weight != 0.0:
            h = given.get(part.chain) or build_chain(params, part.chain)
            chains[part.chain] = _chain_evolution(h, h.eigenvectors.T @ part.amp)
            del h
    return ((cols, to_branches({chain: evolve(t_grid[cols]) for chain, evolve in chains.items()}))
            for cols in _grid_blocks(t_grid.shape[0]))


def trajectory_blocks(params: RabiParams, initial: FullState, t_grid: np.ndarray):
    """An iterator of (cols, pop, p_e, p_r, mean_n) for each block ``cols`` of ``t_grid``, in order.

    The observables of :func:`observables` at the times t_grid[cols]:
    pop is P(n, t) on the sites either chain reaches, site-major, shape
    (reach, block length); every site past reach is exactly empty.  The
    chains are built by this call, as in ``_amplitudes``.
    """
    return _observed(_amplitudes(params, initial, t_grid), initial)


def _observed(blocks, initial: FullState):
    for cols, amps in blocks:
        pop, p_e, p_r, mean_n = observables(*amps, initial)
        del amps
        yield cols, pop, p_e, p_r, mean_n
        del pop   # on resuming, before the next block is evolved


@dataclass
class Trajectory:
    """Time-gridded record of a propagated state and its observables, from :func:`run_trajectory`.

    pnt[k, n] is the photon-number distribution P(n, t_k); p_e, p_r and
    mean_n are per-grid-point scalars.  ``truncation_flagged`` is true when
    the occupancy of the two topmost sites exceeds 1e-8 anywhere on the
    grid (run is reported, not aborted: finite arrays are a physical
    feature of the 15-guide device).  No state is kept:
    ``chain_reference_state(params, initial, t_grid[k])`` gives the state
    at a grid time.  Kept, with run_trajectory, for library users and the
    tests until item 6 of ROADMAP.md; the package reads the blocks.
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
    overlap = initial.amp_e[:m].conj() @ amp_e + initial.amp_g[:m].conj() @ amp_g
    p_r = np.abs(overlap) ** 2
    mean_n = pop.T @ np.arange(m, dtype=float)
    return pop, p_e, p_r, mean_n


def time_grid(t_max: float, dt: float) -> np.ndarray:
    """The grid {0, dt, 2 dt, ..., t_max}."""
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if t_max < dt:
        raise ValueError(f"t_max must be >= dt, got t_max={t_max}, dt={dt}")
    return np.arange(grid_points(t_max, dt)) * dt


def top_occupancy(pop: np.ndarray, n_trunc: int) -> float:
    """The largest occupancy of the two topmost sites in a block ``pop`` of :func:`trajectory_blocks`."""
    return float(pop[n_trunc - 2:].max(initial=0.0))   # RabiParams keeps n_trunc >= 2


def run_trajectory(params: RabiParams, initial: FullState, t_max: float, dt: float) -> Trajectory:
    """Propagate on the grid {0, dt, 2 dt, ..., t_max} and record observables.

    Each non-empty parity chain is evolved independently with its cached
    spectral decomposition; observables are always computed on the
    recomposed full state.  The blocks of :func:`trajectory_blocks` fill
    the map and the per-point arrays.  No package code calls it: it is kept
    for library users and the tests until item 6 of ROADMAP.md.
    """
    t_grid = time_grid(t_max, dt)
    n, nt = params.n_trunc, t_grid.shape[0]
    p_e, p_r, mean_n = np.empty(nt), np.empty(nt), np.empty(nt)
    pnt, top = None, 0.0
    for cols, pop, *per_point in trajectory_blocks(params, initial, t_grid):
        p_e[cols], p_r[cols], mean_n[cols] = per_point
        if pnt is None:   # after the first block's amplitudes are freed
            pnt = np.zeros((n, nt)).T   # stored site-major like pop, so filling it is a plain copy
        pnt[cols, :pop.shape[0]] = pop.T
        top = max(top, top_occupancy(pop, n))
        del pop
    return Trajectory(t_grid=t_grid, pnt=pnt, p_e=p_e, p_r=p_r, mean_n=mean_n,
                      top_site_occupancy=top)


def chain_reference_state(params: RabiParams, initial: FullState, t: float) -> FullState:
    """The state at time t, from the production path on the one-point grid {t}."""
    if t < 0:
        raise ValueError(f"propagation distance must be >= 0, got {t}")
    [(_, reached)] = _amplitudes(params, initial, np.array([t]))   # one block
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
    _check_sites(params, initial)
    psi0 = np.empty(2 * params.n_trunc, dtype=complex)
    psi0[0::2] = initial.amp_g
    psi0[1::2] = initial.amp_e
    evals, evecs = blas.dsyevr(full_rabi_matrix(params))
    psi_t = evecs @ (np.exp(-1j * np.outer(evals, t_grid)) * (evecs.T @ psi0)[:, None])
    return psi_t[1::2], psi_t[0::2]


def full_rabi_reference(params: RabiParams, initial: FullState, t: float) -> FullState:
    """The oracle's state at time t: :func:`full_rabi_amplitudes` on the one-point grid {t}."""
    amp_e, amp_g = full_rabi_amplitudes(params, initial, np.array([t]))
    return FullState(amp_e[:, 0], amp_g[:, 0], norm_tol=1e-9)
