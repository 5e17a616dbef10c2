"""Compound bi-free Poisson laws, additive convolution, and limit harnesses.

A compound Poisson law with rate lambda and jump law phi_a is the
distribution whose every bi-free cumulant is lambda times the matching
joint moment of the jump family. A law is its cumulant table, with moments
on demand: convolution adds cumulant tables; semigroups scale them. A jump
family given as a finitely supported joint law of commuting variables is a
`JumpLaw`. The limit harnesses run on a pair's count grids (`grid.py`).
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator

from .errors import CapExceededError, ShapeMismatchError
from .cumulants import (Alphabet, CumulantTable, MomentFunctional, _check_cap,
                        moments_from_kappa)

PSD_TOLERANCE = 1e-9
# Most atoms `JumpLaw.independent` lists: a product law this large builds
# its moment table to degree 4 over two names in about a second
JOINT_ATOM_BUDGET = 250_000


class JumpLaw:
    """A finitely supported joint law of commuting jump variables.

    Atom j holds one real coordinate per name in `alphabet.names` and has
    probability weights[j]. Names whose coordinate columns are equal are one
    random variable (a commuting pair a_l = a_r is the diagonal law
    {(x, x)}); a word's moment depends only on its letter counts.
    """

    def __init__(self, alphabet: Alphabet, atoms: tuple[tuple[float, ...], ...],
                 weights: tuple[float, ...]):
        names = alphabet.names
        if (not atoms or len(atoms) != len(weights)
                or any(len(atom) != len(names) for atom in atoms)):
            raise ShapeMismatchError(f"need as many atoms as weights, at least "
                                     f"one, each with one coordinate per name in {names}")
        if not all(map(math.isfinite, itertools.chain(weights, *atoms))):
            raise ValueError("atoms and weights must be finite")
        total, least = math.fsum(weights), min(weights)
        if abs(total - 1.0) > 1e-12 or least < 0:
            raise ValueError(f"weights must be a probability vector, got sum "
                             f"{total!r} and min {least!r}")
        self.alphabet, self.atoms, self.weights = alphabet, atoms, weights

    @classmethod
    def independent(cls, alphabet: Alphabet, marginals) -> "JumpLaw":
        """The product law of one (atoms, weights) marginal per name in
        `alphabet.names`; its size is checked before any atom is listed."""
        size = math.prod(len(atoms) for atoms, _ in marginals)
        if size > JOINT_ATOM_BUDGET:
            raise CapExceededError(f"product law of {size} atoms exceeds the "
                                   f"joint atom budget {JOINT_ATOM_BUDGET}")
        for atoms, weights in marginals:  # a marginal is a law of its own
            cls(Alphabet(("x",)), tuple((a,) for a in atoms), weights)
        return cls(
            alphabet,
            tuple(itertools.product(*(atoms for atoms, _ in marginals))),
            tuple(map(math.prod, itertools.product(*(w for _, w in marginals)))),
        )

    @functools.cached_property
    def variables(self) -> tuple[int, ...]:
        """Each name's random variable: the rank of its coordinate column
        among the distinct columns, in order of first appearance."""
        first: dict = {}
        return tuple(first.setdefault(col, len(first)) for col in zip(*self.atoms))

    def grid(self, cap: int) -> dict:
        """{one letter count per name: moment} to total cap, classes by first word in
        `all_words`; a moment sums weight * prod(coordinate**count) over atoms."""
        _check_cap(cap)
        columns = dict(zip(self.variables, zip(*self.atoms)))

        @functools.cache
        def power(v: int, count: int) -> list:
            try:  # Python's power, which raises on overflow
                return [a**count for a in columns[v]]
            except OverflowError:
                raise ValueError(f"a jump moment overflows at power {count}") from None

        @functools.cache
        def moment(counts: tuple) -> float:
            # terms add left to right from 0.0 (Python 3.12's `sum` compensates)
            products = functools.reduce(lambda p, vc: map(operator.mul, p, power(*vc)),
                                        counts[1:], power(*counts[0]))
            return functools.reduce(operator.add, map(operator.mul, self.weights, products), 0.0)

        return {counts: moment(tuple(sorted(collections.Counter(
                    v for v, c in zip(self.variables, counts) for _ in range(c)).items())))
                for total in range(1, cap + 1)
                for counts in itertools.product(range(total, -1, -1), repeat=len(self.variables))
                if sum(counts) == total}

    def moments(self, cap: int) -> MomentFunctional:
        """Joint moments to degree cap: each word's is its class's in `grid`."""
        grid, names = self.grid(cap), self.alphabet.names
        return MomentFunctional.from_function(
            self.alphabet, cap, lambda w: grid[tuple(map(w.count, names))])


class CbpSpec:
    """Rate and jump law (moment table or grid) of a CBP law; owns the rate check."""

    def __init__(self, rate: float, jump_law: MomentFunctional | dict):
        if not math.isfinite(rate) or rate <= 0:
            raise ValueError(f"rate must be finite and positive, got {rate}")
        self.rate, self.jump_law = rate, jump_law


def cbp_cumulants(spec: CbpSpec) -> CumulantTable:
    """kappa_chi(word) = lambda * jump_law(word), every word up to cap."""
    jump = spec.jump_law
    return CumulantTable(jump.alphabet, jump.degree_cap, spec.rate * jump.row)


def cbp_moments(spec: CbpSpec) -> MomentFunctional:
    return moments_from_kappa(cbp_cumulants(spec))


def convolve(mu: CumulantTable, nu: CumulantTable) -> CumulantTable:
    """Bi-free additive convolution: cumulant tables add entrywise."""
    if nu.alphabet != mu.alphabet or nu.degree_cap != mu.degree_cap:
        raise ShapeMismatchError("cumulant tables on different alphabets/caps")
    return CumulantTable(mu.alphabet, mu.degree_cap, mu.row + nu.row)


def semigroup_element(kappa: CumulantTable, t: float) -> CumulantTable:
    """nu_t for the nu with cumulants kappa: cumulants t * kappa; t = 0 is delta_0."""
    if t < 0:
        raise ValueError(f"semigroup parameter must be >= 0, got {t}")
    return CumulantTable(kappa.alphabet, kappa.degree_cap, t * kappa.row)


def compress(kappa: CumulantTable, lam: float) -> CumulantTable:
    """Free-projection compression: a length-n entry scales by lam**(n-1)."""
    if not 0 < lam <= 1:
        raise ValueError(f"compression ratio must be in (0, 1], got {lam}")
    return CumulantTable.from_function(kappa.alphabet, kappa.degree_cap,
                                       lambda w: lam ** (len(w) - 1) * kappa(w))


def limit_theorem_moments(spec: CbpSpec, sizes) -> list[dict]:
    """Moment grids of the N-fold bi-free sum of the summand with moment grid
    (lambda/N) * jump, for each N in sizes; they converge to lambda * jump's."""
    from .grid import transform_grids

    for N in sizes:
        if N < spec.rate:
            raise ValueError(f"N={N} below rate {spec.rate}")
    phi = [{c: spec.rate / N * x for c, x in spec.jump_law.items()} for N in sizes]
    kappa = [{c: N * x for c, x in grid.items()}
             for N, grid in zip(sizes, transform_grids(phi, True))]
    return transform_grids(kappa, False)


def poisson_approximation(kappa: dict, sizes) -> list[dict]:
    """Cumulant grids of P(n, nu_{1/n}) for each n in sizes, for the nu with
    cumulant grid kappa: rate n and jump law nu_{1/n}; they converge to kappa."""
    from .grid import transform_grids

    for n in sizes:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
    nu = [{c: 1.0 / n * x for c, x in kappa.items()} for n in sizes]
    return [{c: n * x for c, x in grid.items()}
            for n, grid in zip(sizes, transform_grids(nu, False))]


def psd_check(phi: MomentFunctional, deg: int) -> tuple[bool, float]:
    """Min eigenvalue of the Gram matrix M[w1, w2] = phi(reverse(w1) w2):
    letters are self-adjoint, so the involution just reverses words."""
    import numpy as np

    if deg < 0:
        raise ValueError(f"degree {deg} must be >= 0")
    if 2 * deg > phi.degree_cap:
        raise CapExceededError(f"need moments to degree {2 * deg}, cap is {phi.degree_cap}")
    basis = [()] + [w for n in range(1, deg + 1)  # by (length, lex)
                    for w in sorted(itertools.product(phi.alphabet.names, repeat=n))]
    gram = np.empty((len(basis), len(basis)))
    for i, w1 in enumerate(basis):
        for j, w2 in enumerate(basis):
            gram[i, j] = phi(tuple(reversed(w1)) + w2)
    min_eig = float(np.linalg.eigvalsh(gram)[0])
    return min_eig >= -PSD_TOLERANCE, min_eig
