"""Seeded random-matrix models for compound (bi-)free Poisson laws.

The model matrix of the jump variables in slot s is

    T_s = G* · diag(b_s) · G,

with G a p×n complex Gaussian matrix, E|g_ij|² = 1/n and p = round(λ·n),
and b_s a vector of p i.i.d. samples of the slot's jump law. Every slot of
a trial shares one G. The effective rate is p/n, within 1/(2n) of λ, and
the same formula serves every λ. As n → ∞ the joint moments of the T_s
converge to those of the compound free Poisson law with rate λ and jump
law that of the vector (b_s)_s (Silverstein & Bai, J. Multivariate Anal.
1995; Hiai & Petz, The Semicircle Law, Free Random Variables and Entropy,
2000). This departs from the paper's construction, which rotates diagonal
jump matrices by independent Haar unitaries; the limits are the same law.

The bi-matrix model acts by left and right multiplication on the matrix
bimodule, so a word's value depends only on its (left-subword,
right-subword) key.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapExceededError, ShapeMismatchError
from .cumulants import Alphabet, MomentFunctional, all_words, transform_rows
from .partitions import LEFT, RIGHT
from .poisson import CbpSpec

IMAG_RESIDUE_TOLERANCE = 1e-9
# Largest p x n Gaussian factor G a trial draws (complex, 16 bytes an entry)
GAUSSIAN_ENTRY_BUDGET = 4_000_000
# Most floats one size's estimate keeps: per trial, a value of every word
# and the largest imaginary residue
TRIAL_VALUE_BUDGET = 10_000_000


@dataclass(frozen=True)
class AtomLaw:
    """A finitely supported probability law on the real line."""

    atoms: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.atoms) != len(self.weights) or not self.atoms:
            raise ShapeMismatchError("atoms and weights must be nonempty, same length")
        if not all(map(math.isfinite, self.atoms + self.weights)):
            raise ValueError(
                f"atoms and weights must be finite: {self.atoms}, {self.weights}"
            )
        if abs(sum(self.weights) - 1.0) > 1e-12 or min(self.weights) < 0:
            raise ValueError(f"weights must be a probability vector: {self.weights}")

    def moment(self, k: int) -> float:
        try:
            return sum(w * a**k for a, w in zip(self.atoms, self.weights))
        except OverflowError:
            raise ValueError(f"moment {k} of atoms {self.atoms} overflows") from None

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.choice(np.array(self.atoms), size=n, p=np.array(self.weights))


@dataclass(frozen=True)
class VariableSpec:
    """One jump variable: its side and marginal law.

    Variables sharing a `slot` are the same underlying random variable and
    must carry the same law (e.g. a commuting pair a_l = a_r); variables in
    different slots are classically independent.
    """

    name: str
    side: str
    law: AtomLaw
    slot: int = 0


def jump_moments(variables, degree_cap: int) -> MomentFunctional:
    """Joint moments of the jump variables to degree_cap, by name. A word's
    moment is the product over slots (classically independent) of the slot
    law's moment of its letter count there; a slot has one law."""
    slot_law = {}
    for v in variables:
        if slot_law.setdefault(v.slot, v.law) != v.law:
            raise ShapeMismatchError(f"variables sharing slot {v.slot} must share a law")
    slot_of = {v.name: v.slot for v in variables}
    alphabet = Alphabet(
        tuple(v.name for v in variables if v.side == LEFT),
        tuple(v.name for v in variables if v.side == RIGHT),
    )

    def moment(word) -> float:
        out = 1.0
        for slot, count in Counter(slot_of[x] for x in word).items():
            out *= slot_law[slot].moment(count)
        return out

    return MomentFunctional.from_function(alphabet, degree_cap, moment)


@dataclass(frozen=True)
class EnsembleSpec:
    """Configuration of a seeded random-matrix experiment."""

    rate: float
    variables: tuple[VariableSpec, ...]
    sizes: tuple[int, ...]
    trials: int
    seed: int
    max_word_len: int

    def __post_init__(self):
        self.law  # checks the rate and the slot laws
        if any(a >= b for a, b in zip(self.sizes, self.sizes[1:])):
            raise ValueError(f"sizes must be strictly ascending: {self.sizes}")
        if min(self.sizes, default=0) < 1:
            raise ValueError(f"sizes must be nonempty and >= 1: {self.sizes}")
        if self.max_word_len < 1:
            raise ValueError("max_word_len must be >= 1")
        if self.trials < 2:
            raise ValueError("trials must be >= 2 for standard errors")
        if self.rate * self.sizes[0] < 0.5:
            raise ValueError(
                f"rate * n must be >= 1/2 so that p = round(rate * n) >= 1, "
                f"got rate {self.rate} at n = {self.sizes[0]}"
            )
        n = self.sizes[-1]
        if math.floor(self.rate * n + 0.5) * n > GAUSSIAN_ENTRY_BUDGET:
            raise CapExceededError(
                f"Gaussian factor of round(rate * n) x n entries at n = {n} "
                f"exceeds budget {GAUSSIAN_ENTRY_BUDGET}"
            )
        values = self.trials * (len(self.law.jump_law.row) + 1)
        if values > TRIAL_VALUE_BUDGET:
            raise CapExceededError(
                f"{self.trials} trials keep {values} values, past the trial "
                f"budget {TRIAL_VALUE_BUDGET}"
            )

    @cached_property
    def law(self) -> CbpSpec:
        """The compound Poisson law the model converges to, on words up to
        max_word_len."""
        return CbpSpec(self.rate, jump_moments(self.variables, self.max_word_len))

    @property
    def alphabet(self) -> Alphabet:
        return self.law.jump_law.alphabet


def build_wishart_model(
    spec: EnsembleSpec, n: int, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    """One trial of the compound Poisson matrix model at size n: the model
    matrix G*·diag(b_s)·G of each variable, by name.

    G is a p×n complex Gaussian matrix with E|g_ij|² = 1/n and
    p = round(rate·n), drawn once and shared by every slot; slot s draws its
    own vector b_s of p i.i.d. samples of its jump law.
    """
    p = math.floor(spec.rate * n + 0.5)
    g = (rng.normal(size=(p, n)) + 1j * rng.normal(size=(p, n))) / math.sqrt(2 * n)
    g_adj = g.conj().T
    slot_law = {v.slot: v.law for v in spec.variables}
    mats = {s: (g_adj * slot_law[s].sample(p, rng)) @ g for s in sorted(slot_law)}
    return {v.name: mats[v.slot] for v in spec.variables}


def key_values(mats: dict, keys) -> np.ndarray:
    """tr(L·R)/n of each (left-subword, right-subword) key over one set of
    n×n matrices, by name.

    L is the product of the left letters in order (left actions compose as
    a homomorphism) and R the product of the right letters in reverse order
    (right actions compose as an anti-homomorphism); an empty side is the
    identity. A product is keyed by the identities of the matrices it
    multiplies, in multiplication order, and formed once as its one-shorter
    prefix times its last matrix. So keys sharing prefixes share their
    matmuls, and so do the two sides when they name one matrix (a shared
    slot). A mixed key's trace is an O(n²) contraction.

    The products are built in a loop over a local dict, not by a recursive
    closure: a closure referring to itself is a reference cycle, which would
    keep every trial's matrices alive until the cycle collector runs.
    """
    products: dict[tuple[int, ...], np.ndarray] = {}
    values = []
    for lefts, rights in keys:
        ends = []
        for names in (lefts, rights[::-1]):
            factors = [mats[name] for name in names]
            ids = tuple(map(id, factors))
            prod = None
            for i, mat in enumerate(factors, 1):
                prefix = ids[:i]
                if prefix not in products:
                    products[prefix] = mat if prod is None else prod @ mat
                prod = products[prefix]
            if prod is not None:
                ends.append(prod)
        n = ends[0].shape[0]
        if len(ends) == 2:
            values.append(np.einsum("ij,ji->", ends[0], ends[1]) / n)
        else:
            values.append(np.trace(ends[0]) / n)
    return np.array(values, dtype=complex)


def evaluate_bimatrix_word(letters) -> complex:
    """Normalized trace of a word of left/right matrix actions applied to
    the identity element of the matrix bimodule.

    `letters` is a sequence of (matrix, side) pairs in word order. Left
    letters multiply P_left on the right (homomorphism); right letters
    multiply P_right on the left (anti-homomorphism). The value is that of
    the word's (left-subword, right-subword) key under `key_values`.
    """
    letters = list(letters)
    if not letters:
        raise ShapeMismatchError("empty word")
    n = letters[0][0].shape[0]
    for mat, side in letters:
        if mat.shape != (n, n):
            raise ShapeMismatchError(f"size mismatch: {mat.shape} vs {(n, n)}")
        if side not in (LEFT, RIGHT):
            raise ShapeMismatchError(f"unknown side {side!r}")
    mats = dict(enumerate(mat for mat, _ in letters))
    key = tuple(
        tuple(i for i, (_, s) in enumerate(letters) if s == side)
        for side in (LEFT, RIGHT)
    )
    return complex(key_values(mats, [key])[0])


@dataclass
class SizeReport:
    """One size's estimates, each a row in `all_words` order: the mean
    moments over trials, their standard errors, and the empirical cumulants
    inverted from the mean; with the largest imaginary part of a word value
    over the trials."""

    n: int
    moments: np.ndarray
    moment_se: np.ndarray
    cumulants: np.ndarray
    max_imag_residue: float


def estimate_empirical_cumulants(spec: EnsembleSpec) -> list[SizeReport]:
    """Monte Carlo moments of all model words per size, inverted to
    empirical cumulants, with per-word moment standard errors over trials.

    Each trial evaluates every distinct (left-subword, right-subword) key
    once, in one `key_values` call, and gives its value to every word with
    that key. Each size inverts its mean moments in one call. Identical
    seed and spec give identical reports.
    """
    alphabet = spec.alphabet
    words = list(all_words(alphabet, spec.max_word_len))
    left = set(alphabet.left)
    key_index: dict = {}
    word_key = [
        key_index.setdefault(
            (tuple(x for x in w if x in left), tuple(x for x in w if x not in left)),
            len(key_index),
        )
        for w in words
    ]
    root = np.random.SeedSequence(spec.seed)
    size_seeds = root.spawn(len(spec.sizes))
    reports = []
    for n, size_seed in zip(spec.sizes, size_seeds):
        trial_values = np.empty((spec.trials, len(words)))
        imag = np.empty(spec.trials)
        for t in range(spec.trials):
            # one child at a time: the same seeds as spawn(trials), unlisted
            (child,) = size_seed.spawn(1)
            mats = build_wishart_model(spec, n, np.random.default_rng(child))
            values = key_values(mats, key_index)
            imag[t] = np.abs(values.imag).max()
            trial_values[t] = values.real[word_key]
        mean = trial_values.mean(axis=0)
        sem = trial_values.std(axis=0, ddof=1) / math.sqrt(spec.trials)
        kappa = transform_rows(alphabet, spec.max_word_len, [mean], to_cumulants=True)
        reports.append(SizeReport(n, mean, sem, kappa[0], float(imag.max())))
    return reports
