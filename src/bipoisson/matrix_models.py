"""Seeded random-matrix models for compound (bi-)free Poisson laws.

Write the rate as lambda = k + delta with k an integer and 0 < delta <= 1.
The model matrix of a jump variable is

    sum_{i<k} U_i X B X U_i^* + X C X,

with X a GUE matrix, U_i independent Haar unitaries, and B, C diagonals of
i.i.d. jump-law samples, C padded with zeros after p(n) = floor(delta * n)
entries (all n when delta = 1). Rate <= 1 is simply k = 0. The bi-matrix
model acts by left and right multiplication on the matrix bimodule, so a
word's value depends only on its (left-subword, right-subword) key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError
from .cumulants import Alphabet, CumulantTable, all_words, transform_rows
from .partitions import LEFT, RIGHT

IMAG_RESIDUE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class AtomLaw:
    """A finitely supported probability law on the real line."""

    atoms: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.atoms) != len(self.weights) or not self.atoms:
            raise ShapeMismatchError("atoms and weights must be nonempty, same length")
        if abs(sum(self.weights) - 1.0) > 1e-12 or min(self.weights) < 0:
            raise ValueError(f"weights must be a probability vector: {self.weights}")

    @staticmethod
    def point_mass(value: float) -> "AtomLaw":
        return AtomLaw((value,), (1.0,))

    def moment(self, k: int) -> float:
        return sum(w * a**k for a, w in zip(self.atoms, self.weights))

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
        for slot in {v.slot for v in self.variables}:
            laws = {v.law for v in self.variables if v.slot == slot}
            if len(laws) > 1:
                raise ShapeMismatchError(
                    f"variables sharing slot {slot} must share a law"
                )
        if list(self.sizes) != sorted(self.sizes):
            raise ValueError(f"sizes must be ascending: {self.sizes}")
        if min(self.sizes, default=0) < 1:
            raise ValueError(f"sizes must be nonempty and >= 1: {self.sizes}")
        if self.max_word_len < 1:
            raise ValueError("max_word_len must be >= 1")
        if self.trials < 2:
            raise ValueError("trials must be >= 2 for standard errors")
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    @property
    def alphabet(self) -> Alphabet:
        return Alphabet(
            tuple(v.name for v in self.variables if v.side == LEFT),
            tuple(v.name for v in self.variables if v.side == RIGHT),
        )

    def jump_moment(self, word) -> float:
        """Joint jump-law moment: factors over slots (classical independence)."""
        by_slot: dict[int, int] = {}
        byname = {v.name: v for v in self.variables}
        for name in word:
            v = byname[name]
            by_slot[v.slot] = by_slot.get(v.slot, 0) + 1
        out = 1.0
        for slot, count in by_slot.items():
            law = next(v.law for v in self.variables if v.slot == slot)
            out *= law.moment(count)
        return out

    def target_cumulants(self, degree_cap: int | None = None) -> CumulantTable:
        cap = degree_cap or self.max_word_len
        return CumulantTable.from_function(
            self.alphabet, cap, lambda w: self.rate * self.jump_moment(w)
        )


def sample_gue(n: int, rng: np.random.Generator) -> np.ndarray:
    """GUE matrix: Var(X_ii) = 1/n, Var(Re X_ij) = Var(Im X_ij) = 1/(2n)."""
    diag = rng.normal(0.0, math.sqrt(1.0 / n), size=n)
    re = rng.normal(0.0, math.sqrt(1.0 / (2 * n)), size=(n, n))
    im = rng.normal(0.0, math.sqrt(1.0 / (2 * n)), size=(n, n))
    upper = np.triu(re + 1j * im, k=1)
    return upper + upper.conj().T + np.diag(diag).astype(complex)


def sample_haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar unitary via Ginibre + QR with phase-normalized R diagonal."""
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def padded_diagonal(law: AtomLaw, p: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Length-n diagonal: p iid samples of the law, then n - p zeros."""
    d = np.zeros(n)
    d[:p] = law.sample(p, rng)
    return d


def rate_split(rate: float, n: int) -> tuple[int, int]:
    """(k, p_frac): rate = k + delta with 0 < delta <= 1, and the padded
    size p(n) of the fractional-rate diagonal."""
    k = math.ceil(rate) - 1
    delta = rate - k
    p_frac = n if delta == 1.0 else int(math.floor(delta * n))
    return k, p_frac


def build_wishart_model(
    spec: EnsembleSpec, n: int, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    """One trial of the compound Poisson matrix model at size n: the model
    matrix of each variable, by name.

    The fractional term is left unrotated: conjugating the whole sum by its
    Haar unitary would turn the other k unitaries into k independent Haar
    unitaries and leave every normalized trace unchanged.
    """
    x = sample_gue(n, rng)
    k, p_frac = rate_split(spec.rate, n)
    slot_law = {v.slot: v.law for v in spec.variables}
    slots = sorted(slot_law)
    unitaries = [sample_haar_unitary(n, rng) for _ in range(k)]

    def xdx(diag: np.ndarray) -> np.ndarray:
        return (x * diag) @ x

    unit = {s: xdx(padded_diagonal(slot_law[s], n, n, rng)) for s in slots if k}
    mats = {s: xdx(padded_diagonal(slot_law[s], p_frac, n, rng)) for s in slots}
    for s, term in unit.items():
        for u in unitaries:
            mats[s] += u @ term @ u.conj().T
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
class WordEstimate:
    word: tuple[str, ...]
    empirical_moment: float
    moment_std_err: float
    empirical_cumulant: float
    cumulant_std_err: float
    target_cumulant: float

    @property
    def abs_err(self) -> float:
        return abs(self.empirical_cumulant - self.target_cumulant)


@dataclass
class SizeReport:
    n: int
    estimates: list[WordEstimate]
    max_imag_residue: float

    def max_abs_err(self) -> float:
        return max(e.abs_err for e in self.estimates)


def estimate_empirical_cumulants(
    spec: EnsembleSpec, n_batches: int = 10
) -> list[SizeReport]:
    """Monte Carlo moments of all model words per size, inverted to
    empirical cumulants, with standard errors and target comparison.

    Each trial evaluates every distinct (left-subword, right-subword) key
    once, in one `key_values` call, and gives its value to every word with
    that key. Each size inverts its mean and batch moments in one call.

    Moment standard errors are per-word over trials; cumulant standard
    errors come from batching the trials (cumulants are nonlinear in the
    averaged moments). Identical seed and spec give identical reports.
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
    targets = spec.target_cumulants()
    root = np.random.SeedSequence(spec.seed)
    size_seeds = root.spawn(len(spec.sizes))
    n_batches = min(n_batches, spec.trials)
    reports = []
    for n, size_seed in zip(spec.sizes, size_seeds):
        trial_values = np.empty((spec.trials, len(words)))
        max_imag = 0.0
        for t, child in enumerate(size_seed.spawn(spec.trials)):
            mats = build_wishart_model(spec, n, np.random.default_rng(child))
            values = key_values(mats, key_index)
            max_imag = max(max_imag, float(np.abs(values.imag).max()))
            trial_values[t] = values.real[word_key]
        mean = trial_values.mean(axis=0)
        sem = trial_values.std(axis=0, ddof=1) / math.sqrt(spec.trials)
        batches = np.array_split(trial_values, n_batches, axis=0)
        rows = [mean] + [b.mean(axis=0) for b in batches]
        kappas = transform_rows(alphabet, spec.max_word_len, rows, to_cumulants=True)
        estimates = []
        for j, w in enumerate(words):
            spread = np.std(kappas[1:, j], ddof=1)
            estimates.append(
                WordEstimate(
                    word=w,
                    empirical_moment=float(mean[j]),
                    moment_std_err=float(sem[j]),
                    empirical_cumulant=float(kappas[0, j]),
                    cumulant_std_err=float(spread / math.sqrt(len(batches))),
                    target_cumulant=targets(w),
                )
            )
        reports.append(SizeReport(n, estimates, max_imag))
    return reports
