"""Seeded random-matrix models for compound (bi-)free Poisson laws.

The model matrix of jump variable v is

    T_v = G* · diag(b_v) · G,

with G a p×n complex Gaussian matrix, E|g_ij|² = 1/n and p = round(λ·n),
and b_v the v-coordinates of p i.i.d. draws from the joint jump law
(`JumpLaw`), one per row of G; every variable shares G and the draws. The
effective rate is p/n, within 1/(2n) of λ, and the same formula serves
every λ. As n → ∞ the joint moments of the T_v converge to those of the
compound free Poisson law with rate λ and that jump law (Silverstein &
Bai, J. Multivariate Anal. 1995; Hiai & Petz, The Semicircle Law, Free
Random Variables and Entropy, 2000). This departs from the paper's
construction, which rotates diagonal jump matrices by independent Haar
unitaries; the limits are the same law.

A trial draws that law without G itself. The k rows of G that drew one
joint atom (its class) enter every T_v only through their Wishart matrix
G_c*·G_c, which equals R_c*·R_c for the min(k, n)×n upper-trapezoidal
factor R_c of the Bartlett decomposition: independent entries,
R_ii = sqrt(Gamma(k − i, 1)/n) on the diagonal (i from 0) and CN(0, 1/n)
above it (Bartlett 1933; Goodman, Ann. Math. Statist. 1963). So
T_v = X*·diag(b_v)·X with X the stacked factors, of at most p rows and
half zeros, and the joint law of the T_v is exactly that of the formula
above.

The bi-matrix model acts by left and right multiplication on the matrix
bimodule, so a word's value depends only on its (left-subword,
right-subword) key, the trace of a product of model matrices; each key's
trace is taken from the products of its two halves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import LEFT, RIGHT, CapExceededError, ShapeMismatchError
from .cumulants import Alphabet, all_words, transform_rows
from .poisson import CbpSpec, JumpLaw

# Largest p x n Gaussian factor G a trial stands for; its stacked Bartlett
# factors X have at most as many entries (complex, 16 bytes an entry)
GAUSSIAN_ENTRY_BUDGET = 4_000_000
# Most floats one size's estimate keeps: per trial, a value of every word
# and the largest imaginary residue
TRIAL_VALUE_BUDGET = 10_000_000


@dataclass(frozen=True)
class EnsembleSpec:
    """Configuration of a seeded random-matrix experiment."""

    rate: float
    jump: JumpLaw
    sizes: tuple[int, ...]
    trials: int
    seed: int
    max_word_len: int

    def __post_init__(self):
        self.law  # checks the rate
        if any(a >= b for a, b in zip(self.sizes, self.sizes[1:])):
            raise ValueError(f"sizes must be strictly ascending: {self.sizes}")
        if min(self.sizes, default=0) < 1:
            raise ValueError(f"sizes must be nonempty and >= 1: {self.sizes}")
        if self.max_word_len < 1:
            raise ValueError("max_word_len must be >= 1")
        if self.trials < 2:
            raise ValueError("trials must be >= 2 for standard errors")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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
        return CbpSpec(self.rate, self.jump.moments(self.max_word_len))

    @property
    def alphabet(self) -> Alphabet:
        return self.jump.alphabet

    @cached_property
    def cdf(self) -> np.ndarray:
        """The jump law's cumulative weights, scaled to end at 1 as
        `Generator.choice` scales them, built once for every trial's draw."""
        cdf = np.cumsum(self.jump.weights)
        cdf /= cdf[-1]
        return cdf


def build_wishart_model(
    spec: EnsembleSpec, n: int, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    """One trial of the compound Poisson matrix model at size n: the model
    matrix G*·diag(b_v)·G of each jump variable v, by name, drawn as
    X*·diag(b_v)·X; names of one variable share one matrix object.

    Each of the p = round(rate·n) rows draws one joint atom of the jump law,
    and the rows drawing one atom form its class. A class of k rows gives X
    its Bartlett factor times sqrt(2n): min(k, n) rows, row i holding
    sqrt(2·Gamma(k − i, 1)) at column i and, to its right, entries whose
    real and imaginary parts are standard normals. b_v holds each row's
    v-coordinate over 2n, which undoes that scale.
    """
    p = math.floor(spec.rate * n + 0.5)
    jump = spec.jump
    # `rng.choice(len(jump.atoms), size=p, p=weights)`'s draw, without
    # checking and summing the weights again in every trial
    picks = spec.cdf.searchsorted(rng.random(p), side="right")
    classes, counts = np.unique(picks, return_counts=True)
    rows = np.minimum(counts, n)
    # each row's index i within its class's factor: its diagonal column
    i = np.arange(rows.sum()) - np.repeat(np.cumsum(rows) - rows, rows)
    upper = np.arange(n) > i[:, None]
    x = np.zeros((i.size, n), dtype=complex)
    x[upper] = rng.standard_normal((np.count_nonzero(upper), 2)).view(complex).ravel()
    k = np.repeat(counts, rows)  # the class size of each row of X
    x[np.arange(i.size), i] = np.sqrt(2 * rng.standard_gamma(k - i))
    x_adj = x.conj().T
    b = np.repeat(np.array([jump.atoms[c] for c in classes]) / (2 * n), rows, axis=0)
    mats: dict[int, np.ndarray] = {}
    for v, col in zip(jump.variables, b.T):
        if v not in mats:
            mats[v] = (x_adj * col) @ x
    return {name: mats[v] for name, v in zip(spec.alphabet.names, jump.variables)}


def _product(products: dict, ids: tuple, factors: list) -> np.ndarray:
    """The product of `factors`, kept in `products` under their identities
    `ids` and formed once, as its one-shorter prefix times its last factor.

    A module function, not a closure: a closure referring to itself is a
    reference cycle, which would keep every trial's matrices alive until
    the cycle collector runs.
    """
    if ids not in products:
        products[ids] = (
            factors[0] if len(ids) == 1
            else _product(products, ids[:-1], factors[:-1]) @ factors[-1]
        )
    return products[ids]


def key_values(mats: dict, keys) -> np.ndarray:
    """tr(L·R)/n of each (left-subword, right-subword) key over one set of
    n×n matrices, by name.

    L is the product of the left letters in order (left actions compose as
    a homomorphism) and R the product of the right letters in reverse order
    (right actions compose as an anti-homomorphism); an empty side is the
    identity. A key's k factors, lefts then reversed rights, are split into
    the first ceil(k/2) and the rest, and its value is the trace of the
    product of the two halves, an O(n²) contraction. Each half's product is
    formed once per call (`_product`), so halves sharing prefixes share
    their matmuls, and when every name is one variable (one matrix) each
    half is a power of it: words up to length 4 form only its square. Keys
    multiplying the same matrices in the same order (over one matrix, all
    keys of one length) share one trace.
    """
    products: dict[tuple[int, ...], np.ndarray] = {}
    traces: dict[tuple[int, ...], complex] = {}
    values = []
    for lefts, rights in keys:
        factors = [mats[name] for name in (*lefts, *rights[::-1])]
        ids = tuple(map(id, factors))
        if ids not in traces:
            half = (len(ids) + 1) // 2
            head = _product(products, ids[:half], factors[:half])
            if half < len(ids):
                tail = _product(products, ids[half:], factors[half:])
                traces[ids] = np.einsum("ij,ji->", head, tail) / len(head)
            else:
                traces[ids] = np.trace(head) / len(head)
        values.append(traces[ids])
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
