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
from typing import NamedTuple

import numpy as np

from .errors import CapExceededError, ShapeMismatchError
from .cumulants import Alphabet, MomentFunctional, all_words, kappa_from_moments, word_offset
from .partitions import LEFT, RIGHT

# Largest truncated Fock basis built (words of length <= depth over dim letters)
FOCK_STATE_BUDGET = 2_000_000


class FockBasis:
    """Words over {1..dim} of length <= depth, ordered by length and then
    lexicographically; the vacuum is index 0. A length-n word of base-dim
    rank r (first letter most significant) sits at offset(n) + r."""

    def __init__(self, dim: int, depth: int):
        if dim < 1 or depth < 0:
            raise ValueError(f"bad Fock parameters dim={dim} depth={depth}")
        self.dim = dim
        self.depth = depth
        self.size = self.offset(depth + 1)
        if self.size > FOCK_STATE_BUDGET:
            raise CapExceededError(
                f"basis size {self.size} exceeds budget {FOCK_STATE_BUDGET}"
            )

    def offset(self, n: int) -> int:
        """Index of the first word of length n: the count of shorter words."""
        return word_offset(self.dim, n)


class IndexMap(NamedTuple):
    """A square operator on the first `size` basis words: its nonzero
    entries, sorted by (row, col) so that applying it with `np.bincount`
    adds up each row's products in column order, as a CSR mat-vec does."""

    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray
    size: int

    @property
    def nnz(self) -> int:
        return len(self.data)


def creation_string(
    basis: FockBasis, side: str, string: tuple[int, ...], max_len: int
) -> IndexMap:
    """l_{s_1}..l_{s_k} (or r_{s_k}..r_{s_1}) on the words of length <=
    max_len: a length-k string of rank rho sends the length-L word of rank r
    to rank rho*d^L + r (prepended) or r*d^k + rho (appended) at length L+k;
    words it would take past max_len are annihilated. Rows and cols ascend."""
    d, k = basis.dim, len(string)
    rho = 0
    for i in string:
        if not 1 <= i <= d:
            raise ShapeMismatchError(f"generator index {i} out of range")
        rho = rho * d + i - 1
    if side not in (LEFT, RIGHT):
        raise ShapeMismatchError(f"unknown side {side!r}")
    if not 0 <= max_len <= basis.depth:
        raise ValueError(f"word length bound {max_len} outside [0, {basis.depth}]")
    lengths = np.arange(max_len - k + 1, dtype=np.int64)
    n = np.repeat(lengths, d**lengths)  # the length of each word it keeps in range
    cols = np.arange(len(n), dtype=np.int64)
    rank = cols - basis.offset(n)
    target = rho * d**n + rank if side == LEFT else rank * d**k + rho
    rows = basis.offset(n + k) + target
    return IndexMap(rows, cols, np.ones(len(rows)), basis.offset(max_len + 1))


def vacuum_moment(ops) -> float:
    """<(op_1 ... op_k) vacuum, vacuum>, applying the word right to left;
    the vacuum is index 0 of the operators' common size."""
    ops = list(ops)
    sizes = {op.size for op in ops}
    if len(sizes) != 1:
        raise ShapeMismatchError(f"need one common operator size, got {sizes}")
    v = np.zeros(sizes.pop())
    v[0] = 1.0
    for op in reversed(ops):
        v = np.bincount(op.rows, weights=op.data * v[op.cols], minlength=op.size)
    return float(v[0])


def _commuting_pair_moment(jump_law: MomentFunctional, p: int, q: int) -> float:
    """phi(a1^p a2^q) for a bipartite one-left one-right jump law."""
    (a1,) = jump_law.alphabet.left
    (a2,) = jump_law.alphabet.right
    return jump_law((a1,) * p + (a2,) * q)


def check_commuting(jump_law: MomentFunctional) -> None:
    """Reject jump laws whose moments depend on letter order."""
    if len(jump_law.alphabet.left) != 1 or len(jump_law.alphabet.right) != 1:
        raise ShapeMismatchError("need exactly one left and one right jump variable")
    for w in all_words(jump_law.alphabet, jump_law.degree_cap):
        canonical = tuple(sorted(w))
        if abs(jump_law(w) - jump_law(canonical)) > 1e-12:
            raise ShapeMismatchError(
                f"jump law is not commuting: phi{w} != phi{canonical}"
            )


def build_w_operators(
    rate: float, jump_law: MomentFunctional, N: int, basis: FockBasis, max_m: int
) -> tuple[IndexMap, IndexMap]:
    """The series operators (W_l, W_r) of order N on the vacuum and the
    words of length < max_m, <= depth: all that moments to length max_m read.

    W_l = l_1^* + sum over strings alpha in {1,2}^n, n < N, of
    rate * phi(a_{alpha(1)}..a_{alpha(n)} a_1) * l_{alpha(n)}..l_{alpha(1)},
    and W_r is the right-side mirror built on a_2. Stopping the creation
    strings at length N-1 makes the bi-free cumulants of W-words equal
    rate * phi(a1^p a2^q) for word lengths <= N and exactly zero beyond.
    No two terms share an entry, so each entry of W is one coefficient.
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
    if max_m < 0:
        raise ValueError(f"moment length {max_m} is negative")
    max_len = max(min(max_m - 1, basis.depth), 0)
    out = []
    for side, own in ((LEFT, 1), (RIGHT, 2)):
        a = creation_string(basis, side, (own,), max_len)
        rows, cols, data = [a.cols], [a.rows], [a.data]  # its adjoint, l_own^*
        for n in range(N):
            for alpha in itertools.product((1, 2), repeat=n):
                p = alpha.count(1) + (own == 1)
                coeff = rate * _commuting_pair_moment(jump_law, p, n + 1 - p)
                if coeff != 0.0:
                    c = creation_string(basis, side, alpha, max_len)
                    rows.append(c.rows)
                    cols.append(c.cols)
                    data.append(coeff * c.data)
        rows, cols, data = map(np.concatenate, (rows, cols, data))
        order = np.lexsort((cols, rows))
        out.append(IndexMap(rows[order], cols[order], data[order], a.size))
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
    w_l: IndexMap, w_r: IndexMap, basis: FockBasis, max_m: int
) -> MomentFunctional:
    """Vacuum moments of all W-words up to length max_m. W lowers the word
    length by at most one, so a vector that must reach the vacuum within k
    steps matters only on words of length <= k, and those entries come from
    such entries alone. After the first W, k < max_m: the moments need W on
    the words shorter than max_m only, in the same order as on all words."""
    need = basis.offset(max(min(max_m - 1, basis.depth), 0) + 1)
    if min(w_l.size, w_r.size) < need:
        raise ShapeMismatchError(f"moments to length {max_m} need W on {need} words")
    alphabet = Alphabet(("wl",), ("wr",))
    ops = {"wl": w_l, "wr": w_r}
    return MomentFunctional.from_function(
        alphabet, max_m, lambda w: vacuum_moment(ops[x] for x in w)
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
    w_l, w_r = build_w_operators(rate, jump_law, N, basis, max_m)
    phi = fock_moments(w_l, w_r, basis, max_m)
    kappa = kappa_from_moments(phi)
    rows = []
    for w in all_words(phi.alphabet, max_m):
        m = len(w)
        p = w.count("wl")
        target = rate * _commuting_pair_moment(jump_law, p, m - p) if m <= N else 0.0
        chi = phi.alphabet.sides_of(w)
        rows.append(FockCumulantRow(chi, phi(w), kappa(w), target))
    return rows
