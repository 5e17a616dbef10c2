"""Compound bi-free Poisson laws, additive convolution, and limit harnesses.

A compound Poisson law with rate lambda and jump law phi_a is the
distribution whose every bi-free cumulant is lambda times the matching
joint moment of the jump family. Convolution adds cumulant tables;
semigroups scale them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError
from .cumulants import (
    Alphabet,
    CumulantTable,
    MomentFunctional,
    Word,
    kappa_from_moments,
    moments_from_kappa,
)

PSD_TOLERANCE = 1e-9


@dataclass(frozen=True)
class CbpSpec:
    """Rate and jump law of a compound bi-free Poisson law; owns the rate check."""

    rate: float
    jump_law: MomentFunctional

    def __post_init__(self):
        if not math.isfinite(self.rate) or self.rate <= 0:
            raise ValueError(f"rate must be finite and positive, got {self.rate}")


@dataclass(frozen=True)
class Distribution:
    """A moment functional with its consistent cumulant table."""

    moments: MomentFunctional
    cumulants: CumulantTable

    @staticmethod
    def from_cumulants(kappa: CumulantTable) -> "Distribution":
        return Distribution(moments_from_kappa(kappa), kappa)


def cbp_cumulants(spec: CbpSpec) -> CumulantTable:
    """kappa_chi(word) = lambda * jump_law(word), every word up to cap."""
    jump = spec.jump_law
    return CumulantTable(jump.alphabet, jump.degree_cap, spec.rate * jump.row)


def cbp_moments(spec: CbpSpec) -> Distribution:
    return Distribution.from_cumulants(cbp_cumulants(spec))


def convolve(mu: Distribution, nu: Distribution) -> Distribution:
    """Bi-free additive convolution: cumulant tables add entrywise."""
    return Distribution.from_cumulants(mu.cumulants.add(nu.cumulants))


def semigroup_element(nu: Distribution, t: float) -> Distribution:
    """nu_t with kappa_{chi, nu_t} = t * kappa_{chi, nu}; t = 0 is delta_0."""
    if t < 0:
        raise ValueError(f"semigroup parameter must be >= 0, got {t}")
    return Distribution.from_cumulants(nu.cumulants.scale(t))


def compress(kappa: CumulantTable, lam: float) -> CumulantTable:
    """Free-projection compression: a length-n entry scales by lam**(n-1)."""
    if not 0 < lam <= 1:
        raise ValueError(f"compression ratio must be in (0, 1], got {lam}")
    size, lengths = len(kappa.alphabet.names), np.arange(1, kappa.degree_cap + 1)
    scales = np.repeat(lam ** (lengths - 1), size**lengths)
    return CumulantTable(kappa.alphabet, kappa.degree_cap, scales * kappa.row)


def limit_theorem_moments(spec: CbpSpec, N: int) -> Distribution:
    """Distribution of the N-fold bi-free sum of the scaled summand whose
    moments are (lambda/N) * jump_law; converges to cbp_moments(spec)."""
    if N < spec.rate:
        raise ValueError(f"N={N} below rate {spec.rate}")
    jump = spec.jump_law
    phi_summand = MomentFunctional(
        jump.alphabet, jump.degree_cap, spec.rate / N * jump.row
    )
    kappa_sum = kappa_from_moments(phi_summand).scale(N)
    return Distribution.from_cumulants(kappa_sum)


def poisson_approximation(nu: Distribution, n: int) -> Distribution:
    """The compound Poisson law P(n, nu_{1/n}); its cumulants converge to
    those of nu as n grows."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    phi = semigroup_element(nu, 1.0 / n).moments
    return Distribution.from_cumulants(
        CumulantTable(phi.alphabet, phi.degree_cap, n * phi.row)
    )


def gram_basis(alphabet: Alphabet, deg: int) -> list[Word]:
    """Words of length <= deg including the empty word, by (length, lex)."""
    out: list[Word] = [()]
    for n in range(1, deg + 1):
        out.extend(sorted(itertools.product(alphabet.names, repeat=n)))
    return out


def psd_check(nu: Distribution, deg: int) -> tuple[bool, float]:
    """Min eigenvalue of the Gram matrix M[w1, w2] = phi(reverse(w1) w2).

    Letters are self-adjoint, so the involution just reverses words.
    """
    phi = nu.moments
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
