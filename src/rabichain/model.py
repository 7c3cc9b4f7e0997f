"""Model parameters, basis states, and the parity-chain relabeling.

A two-level system (levels ``|g>``, ``|e>``) coupled to a single bosonic
mode is expanded on the product basis ``{|e>|n>, |g>|n>}`` with complex
amplitudes ``a_n`` (excited) and ``b_n`` (ground).  Because the coupling
changes the photon number by exactly one while flipping the qubit, the
dynamics splits into two decoupled tridiagonal ladders ("parity chains").
The relabeling is a pure permutation of the amplitudes:

    c_n = a_n (n even),  c_n = b_n (n odd)     -> C chain
    f_n = b_n (n even),  f_n = a_n (n odd)     -> F chain

The rule is written once, in :attr:`ParityChain.branches`.  :func:`decompose`
reads it, and so does its inverse :func:`to_branches`, which :func:`recompose`
and the propagation in ``rabichain.dynamics`` both call.  Operations are pure
functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

NORM_TOL = 1e-12          # construction-time normalization tolerance
RECOMPOSE_WEIGHT_TOL = 1e-9


class ParityChain(Enum):
    """Which of the two decoupled chains an amplitude vector lives on.

    The two chains differ only by the sign of the qubit-splitting term on
    the diagonal: C carries +(-1)^n * omega0/2, F carries -(-1)^n * omega0/2.
    """

    C = "c"
    F = "f"

    @property
    def sign(self) -> float:
        """Sign of the alternating diagonal term: +1 for C, -1 for F."""
        return 1.0 if self is ParityChain.C else -1.0

    @property
    def branches(self) -> tuple[int, int]:
        """The qubit branches (0: a_n, 1: b_n) that this chain's even and odd sites hold."""
        return (0, 1) if self is ParityChain.C else (1, 0)


def _readonly_complex(values, name: str, n_trunc: int | None = None) -> np.ndarray:
    arr = np.asarray(values, dtype=complex).copy()
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d amplitude vector, got shape {arr.shape}")
    if n_trunc is not None and arr.shape[0] != n_trunc:
        raise ValueError(f"{name} has length {arr.shape[0]}, expected {n_trunc}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class RabiParams:
    """Physical parameters of the model plus the truncation size.

    All frequencies are in mm^-1 (the propagation-distance analog of time).

    omega0  : qubit transition frequency; may be negative or zero
    omega   : mode frequency, strictly positive
    g       : coupling strength, non-negative
    n_trunc : number of Fock states / chain sites kept (hard-wall truncation)
    """

    omega0: float
    omega: float
    g: float
    n_trunc: int

    def __post_init__(self):
        # messages start with the field name; parse_config prefixes them with "model."
        if not self.omega > 0:
            raise ValueError(f"omega: must be > 0, got {self.omega}")
        if not self.g >= 0:
            raise ValueError(f"g: must be >= 0, got {self.g}")
        if self.n_trunc < 2:
            raise ValueError(f"n_trunc: must be >= 2, got {self.n_trunc}")
        for name, ratio in (("g/omega", self.g / self.omega),
                            ("omega0/omega", self.omega0 / self.omega)):
            if not math.isfinite(ratio):
                raise ValueError(f"{name}: must be finite, got {ratio}")
        top = self.n_trunc - 1   # the chain entries of the last site are the largest
        if not math.isfinite(abs(self.omega0) + top * self.omega + self.g * math.sqrt(top)):
            raise ValueError(
                f"n_trunc: the chain entries at site {top} overflow "
                f"(omega0 = {self.omega0}, omega = {self.omega}, g = {self.g})"
            )


@dataclass(frozen=True)
class FullState:
    """Normalized state on the full basis: amp_e[n] = a_n, amp_g[n] = b_n.

    Construction rejects vectors whose total norm deviates from 1 by more
    than ``norm_tol`` (default 1e-12); nothing is renormalized silently.
    """

    amp_e: np.ndarray
    amp_g: np.ndarray

    def __init__(self, amp_e, amp_g, *, norm_tol: float = NORM_TOL):
        amp_e = _readonly_complex(amp_e, "amp_e")
        amp_g = _readonly_complex(amp_g, "amp_g", n_trunc=amp_e.shape[0])
        # no part of a normalized amplitude exceeds 1; checked before squaring, which
        # would overflow, and a nan or inf fails it too
        part = np.abs(np.concatenate([amp_e, amp_g]).view(float))
        if not np.all(part <= math.sqrt(1.0 + norm_tol)):
            raise ValueError(
                f"state not normalized: an amplitude has a part of magnitude "
                f"{float(part.max())!r}, or one that is not finite"
            )
        norm_sq = float(np.sum(np.abs(amp_e) ** 2) + np.sum(np.abs(amp_g) ** 2))
        if not abs(norm_sq - 1.0) <= norm_tol:   # a NaN norm fails too
            raise ValueError(
                f"state not normalized: sum |a_n|^2 + |b_n|^2 = {norm_sq!r} "
                f"(tolerance {norm_tol})"
            )
        object.__setattr__(self, "amp_e", amp_e)
        object.__setattr__(self, "amp_g", amp_g)

    @property
    def n_trunc(self) -> int:
        return self.amp_e.shape[0]

    @classmethod
    def basis_state(cls, branch: str, m: int, n_trunc: int) -> "FullState":
        """Product state |branch>|m> with branch in {'e', 'g'}."""
        if branch not in ("e", "g"):
            raise ValueError(f"branch must be 'e' or 'g', got {branch!r}")
        if not 0 <= m < n_trunc:
            raise ValueError(f"Fock index {m} outside [0, n_trunc = {n_trunc})")
        amp_e = np.zeros(n_trunc, dtype=complex)
        amp_g = np.zeros(n_trunc, dtype=complex)
        (amp_e if branch == "e" else amp_g)[m] = 1.0
        return cls(amp_e, amp_g)


class ChainState(NamedTuple):
    """Amplitude vector over the sites of one parity chain; ``weight`` is the
    fraction of total norm it carries, sum |amp|^2."""

    amp: np.ndarray
    chain: ParityChain
    weight: float


def coupling_ladder(g: float, sites: int) -> np.ndarray:
    """The hopping amplitudes kappa_n = g sqrt(n + 1) between sites n and n+1 of a
    ``sites``-site chain, n = 0 .. sites-2."""
    return g * np.sqrt(np.arange(1, sites, dtype=float))


def decompose(state: FullState) -> tuple[ChainState, ChainState]:
    """Split a full state into its (C, F) chain components.

    Even sites of C take a_n, odd sites take b_n; F is the mirror image.
    The two weights sum to the total norm (= 1) exactly up to rounding.
    """
    branches = (state.amp_e, state.amp_g)
    parts = []
    for chain in ParityChain:
        amp = np.empty(state.n_trunc, dtype=complex)
        for parity, branch in enumerate(chain.branches):
            amp[parity::2] = branches[branch][parity::2]
        parts.append(ChainState(amp, chain, float(np.sum(np.abs(amp) ** 2))))
    return tuple(parts)


def to_branches(chains: dict[ParityChain, np.ndarray]) -> np.ndarray:
    """Write chain amplitudes back onto the qubit branches: the inverse of :func:`decompose`.

    ``chains`` maps a chain to its amplitudes on its first m sites, shape
    (m,) or (m, nt).  Returns one complex array of shape (2, reach) or
    (2, reach, nt), reach the longest m, holding a_n then b_n; a missing
    chain and the sites past a shorter one are left empty.
    """
    reach = max(amp.shape[0] for amp in chains.values())
    out = np.zeros((2, reach) + next(iter(chains.values())).shape[1:], dtype=complex)
    for chain, amp in chains.items():
        for parity, branch in enumerate(chain.branches):
            out[branch, parity:amp.shape[0]:2] = amp[parity::2]
    return out


def recompose(c: ChainState, f: ChainState) -> FullState:
    """Invert :func:`decompose` through :func:`to_branches`; exact (bit-for-bit).

    Requires one C and one F component of equal length that together carry
    norm 1 within 1e-9.
    """
    if {c.chain, f.chain} != {ParityChain.C, ParityChain.F}:
        raise ValueError("recompose needs one C-chain and one F-chain state")
    if c.amp.shape[0] != f.amp.shape[0]:
        raise ValueError(f"chain lengths differ: {c.chain.name} has {c.amp.shape[0]} sites, "
                         f"{f.chain.name} has {f.amp.shape[0]}")
    return FullState(*to_branches({c.chain: c.amp, f.chain: f.amp}),
                     norm_tol=RECOMPOSE_WEIGHT_TOL)
