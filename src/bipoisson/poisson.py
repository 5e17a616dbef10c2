"""Compound bi-free Poisson laws, additive convolution, and limit harnesses.

A compound Poisson law with rate lambda and jump law phi_a is the
distribution whose every bi-free cumulant is lambda times the matching
joint moment of the jump family. A law is its cumulant table, with moments
on demand: convolution adds cumulant tables; semigroups scale them. A jump
family given as a finitely supported joint law of commuting variables is a
`JumpLaw`.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, ShapeMismatchError
from .cumulants import (Alphabet, CumulantTable, MomentFunctional, Word,
                        moments_from_kappa, transform_rows)

PSD_TOLERANCE = 1e-9
# Most atoms `JumpLaw.independent` lists: a product law this large builds
# its moment table to degree 4 over two names in about a second
JOINT_ATOM_BUDGET = 250_000


@dataclass(frozen=True)
class JumpLaw:
    """A finitely supported joint law of commuting jump variables.

    Atom j holds one real coordinate per name in `alphabet.names` and has
    probability weights[j]. Names whose coordinate columns are equal are one
    random variable (a commuting pair a_l = a_r is the diagonal law
    {(x, x)}); a word's moment depends only on its letter counts.
    """

    alphabet: Alphabet
    atoms: tuple[tuple[float, ...], ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        names = self.alphabet.names
        if (not self.atoms or len(self.atoms) != len(self.weights)
                or any(len(atom) != len(names) for atom in self.atoms)):
            raise ShapeMismatchError(f"need as many atoms as weights, at least "
                                     f"one, each with one coordinate per name in {names}")
        if not all(map(math.isfinite, itertools.chain(self.weights, *self.atoms))):
            raise ValueError("atoms and weights must be finite")
        total, least = math.fsum(self.weights), min(self.weights)
        if abs(total - 1.0) > 1e-12 or least < 0:
            raise ValueError(f"weights must be a probability vector, got sum "
                             f"{total!r} and min {least!r}")

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

    def moments(self, cap: int) -> MomentFunctional:
        """Joint moments to degree cap: a word's moment is the sum over atoms
        of the weight times each variable's coordinate to the power of its
        letter count in the word."""
        var = dict(zip(self.alphabet.names, self.variables))
        columns = dict(zip(self.variables, zip(*self.atoms)))
        weights = np.array(self.weights)

        @functools.cache
        def power(v: int, count: int) -> np.ndarray:
            try:  # Python's power, which raises on overflow
                return np.fromiter((a**count for a in columns[v]), float, len(weights))
            except OverflowError:
                raise ValueError(f"a jump moment overflows at power {count}") from None

        @functools.cache
        def moment(counts: tuple) -> float:
            # adds left to right from 0.0, as Python's sum; np.sum is pairwise
            return 0.0 + np.cumsum(weights * math.prod(power(*vc) for vc in counts))[-1]

        return MomentFunctional.from_function(self.alphabet, cap, lambda w: moment(
            tuple(sorted(collections.Counter(var[x] for x in w).items()))))


@dataclass(frozen=True)
class CbpSpec:
    """Rate and jump law of a compound bi-free Poisson law; owns the rate check."""

    rate: float
    jump_law: MomentFunctional

    def __post_init__(self):
        if not math.isfinite(self.rate) or self.rate <= 0:
            raise ValueError(f"rate must be finite and positive, got {self.rate}")


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


def limit_theorem_moments(spec: CbpSpec, sizes) -> list[MomentFunctional]:
    """Moments of the N-fold bi-free sum of the scaled summand whose moments
    are (lambda/N) * jump_law, for each N in sizes; they converge to
    cbp_moments(spec)."""
    for N in sizes:
        if N < spec.rate:
            raise ValueError(f"N={N} below rate {spec.rate}")
    a, cap = spec.jump_law.alphabet, spec.jump_law.degree_cap
    phi = [spec.rate / N * spec.jump_law.row for N in sizes]
    kappa = [semigroup_element(CumulantTable(a, cap, row), N).row
             for N, row in zip(sizes, transform_rows(a, cap, phi, True))]
    return [MomentFunctional(a, cap, row) for row in transform_rows(a, cap, kappa, False)]


def poisson_approximation(kappa: CumulantTable, sizes) -> list[CumulantTable]:
    """P(n, nu_{1/n}) for each n in sizes: rate n and jump law nu_{1/n}, for
    the nu with cumulants kappa; its cumulants converge to kappa as n grows."""
    for n in sizes:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
    a, cap = kappa.alphabet, kappa.degree_cap
    nu = [semigroup_element(kappa, 1.0 / n).row for n in sizes]
    return [cbp_cumulants(CbpSpec(n, MomentFunctional(a, cap, row)))
            for n, row in zip(sizes, transform_rows(a, cap, nu, False))]


def gram_basis(alphabet: Alphabet, deg: int) -> list[Word]:
    """Words of length <= deg including the empty word, by (length, lex)."""
    out: list[Word] = [()]
    for n in range(1, deg + 1):
        out.extend(sorted(itertools.product(alphabet.names, repeat=n)))
    return out


def psd_check(phi: MomentFunctional, deg: int) -> tuple[bool, float]:
    """Min eigenvalue of the Gram matrix M[w1, w2] = phi(reverse(w1) w2).

    Letters are self-adjoint, so the involution just reverses words.
    """
    if deg < 0:
        raise ValueError(f"degree {deg} must be >= 0")
    if 2 * deg > phi.degree_cap:
        raise CapExceededError(
            f"need moments to degree {2 * deg}, cap is {phi.degree_cap}"
        )
    basis = gram_basis(phi.alphabet, deg)
    m = len(basis)
    gram = np.empty((m, m))
    for i, w1 in enumerate(basis):
        for j, w2 in enumerate(basis):
            gram[i, j] = phi(tuple(reversed(w1)) + w2)
    min_eig = float(np.linalg.eigvalsh(gram)[0])
    return min_eig >= -PSD_TOLERANCE, min_eig
