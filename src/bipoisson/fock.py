"""Truncated full-Fock-space model for compound bi-free Poisson laws.

The one-particle space has d generators; basis vectors are words over
{1..d} of length <= depth, with the empty word as the vacuum. Left
operators prepend letters, right operators append; annihilators are the
exact adjoints on the truncated space. The W operators combine one
annihilator with a series of creation strings weighted by the law's
cumulants kappa(a1^p a2^q); W's cumulants reproduce them to the series order.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from .errors import LEFT, RIGHT, CapExceededError, ShapeMismatchError
from .cumulants import (Alphabet, CumulantTable, MomentFunctional,
                        kappa_from_moments, word_offset)

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
        # size >= depth + 1: a deeper basis is refused before its size is formed
        if depth >= FOCK_STATE_BUDGET or self.offset(depth + 1) > FOCK_STATE_BUDGET:
            raise CapExceededError(f"Fock basis of dim {dim} and depth {depth} "
                                   f"exceeds the budget of {FOCK_STATE_BUDGET} states")
        self.size = self.offset(depth + 1)

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


def build_w_operators(
    kappa: CumulantTable, basis: FockBasis, max_m: int
) -> tuple[IndexMap, IndexMap]:
    """The series operators (W_l, W_r) on the vacuum and the words of length
    < max_m, <= depth: all that moments to length max_m read. The series
    order N is the cap of kappa, the law's cumulant table.

    W_l = l_1^* + sum over strings alpha in {1,2}^n, n < N, of
    kappa(a1^p a2^q) * l_{alpha(n)}..l_{alpha(1)}, where p and q count the
    1s and 2s of alpha plus the own letter 1, and W_r is the right-side
    mirror built on a_2. Stopping the creation strings at length N-1 makes
    the bi-free cumulants of W-words equal kappa(a1^p a2^q) for word
    lengths <= N, in any letter order, and exactly zero beyond.
    No two terms share an entry, so each entry of W is one coefficient.
    The law has one left name a1 and one right name a2.
    """
    N = kappa.degree_cap
    if len(kappa.alphabet.left) != 1 or len(kappa.alphabet.right) != 1:
        raise ShapeMismatchError("need exactly one left and one right jump variable")
    if basis.dim != 2:
        raise ShapeMismatchError("W operators need a two-generator basis")
    if N < 1:
        raise ValueError("series order N must be >= 1")
    if basis.depth < N:
        raise CapExceededError(f"depth {basis.depth} < N = {N}")
    if max_m < 1:
        raise ValueError(f"moment length {max_m} must be >= 1")
    max_len = min(max_m - 1, basis.depth)
    (a1,), (a2,) = kappa.alphabet.left, kappa.alphabet.right
    out = []
    for side, own in ((LEFT, 1), (RIGHT, 2)):
        a = creation_string(basis, side, (own,), max_len)
        rows, cols, data = [a.cols], [a.rows], [a.data]  # its adjoint, l_own^*
        for n in range(N):
            for alpha in itertools.product((1, 2), repeat=n):
                p = alpha.count(1) + (own == 1)
                coeff = kappa((a1,) * p + (a2,) * (n + 1 - p))
                if coeff != 0.0:
                    c = creation_string(basis, side, alpha, max_len)
                    rows.append(c.rows)
                    cols.append(c.cols)
                    data.append(coeff * c.data)
        rows, cols, data = map(np.concatenate, (rows, cols, data))
        order = np.lexsort((cols, rows))
        out.append(IndexMap(rows[order], cols[order], data[order], a.size))
    return out[0], out[1]


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
    law: CumulantTable, max_m: int, depth: int | None = None
) -> tuple[MomentFunctional, CumulantTable, np.ndarray]:
    """The vacuum moments of the W-words to length max_m, their bi-free
    cumulants, and the targets over the same words: the law's cumulant
    table to its cap N, zero past it. Both rows list two-letter words in
    `all_words` order, so a W-word's target sits at its own row position; a
    law whose cumulants depend on more than letter counts shows as an error."""
    N = law.degree_cap
    if depth is None:
        # W lowers the word length by at most one, so a vacuum-to-vacuum
        # path of length max_m never leaves depth max_m; W needs depth >= N
        depth = max(max_m, N)
    basis = FockBasis(2, depth)
    w_l, w_r = build_w_operators(law, basis, max_m)
    phi = fock_moments(w_l, w_r, basis, max_m)
    target = np.zeros(len(phi.row))
    target[:len(law.row)] = law.row[:len(target)]
    return phi, kappa_from_moments(phi), target
