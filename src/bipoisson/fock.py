"""Truncated full-Fock-space model for compound bi-free Poisson laws.

The one-particle space has d generators; basis vectors are words over
{1..d} of length <= depth, with the empty word as the vacuum. Left
operators prepend letters, right operators append; annihilators are the
exact adjoints on the truncated space. The W operators combine one
annihilator with a jump-law-weighted series of creation strings, and their
bi-free cumulants reproduce lambda * phi(a1^p a2^q) up to the series order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import CapExceededError, ShapeMismatchError
from .cumulants import (
    Alphabet,
    CumulantTable,
    MomentFunctional,
    all_words,
    kappa_from_moments,
)
from .partitions import LEFT, RIGHT


class FockBasis:
    """Indexed words over {1..dim} of length <= depth; vacuum at index 0."""

    def __init__(self, dim: int, depth: int, max_states: int = 2_000_000):
        if dim < 1 or depth < 0:
            raise ValueError(f"bad Fock parameters dim={dim} depth={depth}")
        size = depth + 1 if dim == 1 else (dim ** (depth + 1) - 1) // (dim - 1)
        if size > max_states:
            raise CapExceededError(f"basis size {size} exceeds budget {max_states}")
        self.dim = dim
        self.depth = depth
        self.words: list[tuple[int, ...]] = []
        for n in range(depth + 1):
            self.words.extend(itertools.product(range(1, dim + 1), repeat=n))
        self.index = {w: i for i, w in enumerate(self.words)}

    @property
    def size(self) -> int:
        return len(self.words)

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.size)
        v[0] = 1.0
        return v


def creation(basis: FockBasis, side: str, i: int) -> sp.csr_matrix:
    """Left creation prepends the generator, right creation appends; words
    already at full depth are annihilated (truncation)."""
    if not 1 <= i <= basis.dim:
        raise ShapeMismatchError(f"generator index {i} out of range")
    if side not in (LEFT, RIGHT):
        raise ShapeMismatchError(f"unknown side {side!r}")
    rows, cols = [], []
    for col, w in enumerate(basis.words):
        if len(w) >= basis.depth:
            continue
        target = (i,) + w if side == LEFT else w + (i,)
        rows.append(basis.index[target])
        cols.append(col)
    data = np.ones(len(rows))
    return sp.csr_matrix((data, (rows, cols)), shape=(basis.size, basis.size))


def annihilation(basis: FockBasis, side: str, i: int) -> sp.csr_matrix:
    """Adjoint of the matching creation operator (real entries)."""
    return creation(basis, side, i).T.tocsr()


def vacuum_moment(ops, basis: FockBasis) -> float:
    """<(op_1 ... op_k) vacuum, vacuum>, applying the word right to left."""
    v = basis.vacuum()
    for op in reversed(list(ops)):
        if op.shape != (basis.size, basis.size):
            raise ShapeMismatchError("operator on a different basis")
        v = op @ v
    return float(v[0])


def _commuting_pair_moment(jump_law: MomentFunctional, p: int, q: int) -> float:
    """phi(a1^p a2^q) for a bipartite one-left one-right jump law."""
    (a1,) = jump_law.alphabet.left
    (a2,) = jump_law.alphabet.right
    return jump_law((a1,) * p + (a2,) * q)


def check_commuting(jump_law: MomentFunctional, tol: float = 1e-12) -> None:
    """Reject jump laws whose moments depend on letter order."""
    if len(jump_law.alphabet.left) != 1 or len(jump_law.alphabet.right) != 1:
        raise ShapeMismatchError("need exactly one left and one right jump variable")
    for w in all_words(jump_law.alphabet, jump_law.degree_cap):
        canonical = tuple(sorted(w))
        if abs(jump_law(w) - jump_law(canonical)) > tol:
            raise ShapeMismatchError(
                f"jump law is not commuting: phi{w} != phi{canonical}"
            )


def build_w_operators(
    rate: float, jump_law: MomentFunctional, N: int, basis: FockBasis
) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The truncated-series operators (W_l, W_r) of order N.

    W_l = l_1^* + sum over strings alpha in {1,2}^n, n < N, of
    rate * phi(a_{alpha(1)}..a_{alpha(n)} a_1) * l_{alpha(n)}..l_{alpha(1)},
    and W_r is the right-side mirror built on a_2. Stopping the creation
    strings at length N-1 makes the bi-free cumulants of W-words equal
    rate * phi(a1^p a2^q) for word lengths <= N and exactly zero beyond.
    """
    if basis.dim != 2:
        raise ShapeMismatchError("W operators need a two-generator basis")
    if N < 1:
        raise ValueError("series order N must be >= 1")
    if basis.depth < N:
        raise CapExceededError(f"depth {basis.depth} < N = {N}")
    if jump_law.degree_cap < N:
        raise CapExceededError("jump law table too shallow for the series order")
    check_commuting(jump_law)
    out = []
    for side, own in ((LEFT, 1), (RIGHT, 2)):
        create = {i: creation(basis, side, i) for i in (1, 2)}
        w_op = annihilation(basis, side, own).astype(float)
        for n in range(N):
            for alpha in itertools.product((1, 2), repeat=n):
                counts = [alpha.count(1), alpha.count(2)]
                counts[own - 1] += 1
                coeff = rate * _commuting_pair_moment(jump_law, *counts)
                if coeff == 0.0:
                    continue
                term = sp.identity(basis.size, format="csr")
                for gen in alpha:  # l_{alpha(n)} ... l_{alpha(1)}
                    term = term @ create[gen]
                w_op = w_op + coeff * term
        out.append(sp.csr_matrix(w_op))
    return out[0], out[1]


@dataclass
class FockCumulantRow:
    chi: tuple[str, ...]
    omega_moment: float
    kappa_empirical: float
    kappa_target: float

    @property
    def abs_err(self) -> float:
        return abs(self.kappa_empirical - self.kappa_target)


def fock_moments(
    w_l: sp.csr_matrix,
    w_r: sp.csr_matrix,
    basis: FockBasis,
    max_m: int,
) -> MomentFunctional:
    """Vacuum moments of all W-words up to length max_m."""
    alphabet = Alphabet(("wl",), ("wr",))
    ops = {"wl": w_l, "wr": w_r}
    return MomentFunctional.from_function(
        alphabet, max_m, lambda w: vacuum_moment((ops[x] for x in w), basis)
    )


def verify_fock_cumulants(
    rate: float,
    jump_law: MomentFunctional,
    N: int,
    max_m: int,
    depth: int | None = None,
) -> list[FockCumulantRow]:
    """Compare bi-free cumulants of W-words against the series targets:
    lambda * phi(a1^p a2^q) for word length m <= N, zero for m > N."""
    if depth is None:
        # W lowers the word length by at most one, so a vacuum-to-vacuum
        # path of length max_m never leaves depth max_m; W needs depth >= N
        depth = max(max_m, N)
    basis = FockBasis(2, depth)
    w_l, w_r = build_w_operators(rate, jump_law, N, basis)
    phi = fock_moments(w_l, w_r, basis, max_m)
    kappa: CumulantTable = kappa_from_moments(phi)
    rows = []
    for w in all_words(phi.alphabet, max_m):
        m = len(w)
        p = w.count("wl")
        if m <= N:
            target = rate * _commuting_pair_moment(jump_law, p, m - p)
        else:
            target = 0.0
        chi = phi.alphabet.sides_of(w)
        rows.append(FockCumulantRow(chi, phi(w), kappa(w), target))
    return rows
