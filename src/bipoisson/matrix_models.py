"""Seeded random-matrix models for compound (bi-)free Poisson laws.

The single-face model at rate lambda <= 1 is X * Btilde_i * X with X a GUE
matrix and Btilde_i a diagonal jump-law discretization padded with zeros so
that p(n)/n -> lambda. For lambda = k + delta > 1 the model is the
(k+1)-term Haar-rotated sum. The bi-matrix model acts by left and right
multiplication on the matrix bimodule; right actions compose
anti-homomorphically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceededError, ShapeMismatchError
from .cumulants import Alphabet, CumulantTable, MomentFunctional, all_words, kappa_from_moments
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

    def quantiles(self, n: int) -> np.ndarray:
        """Entries Q((k - 1/2)/n), k = 1..n, ascending."""
        edges = np.cumsum(self.weights)
        grid = (np.arange(n) + 0.5) / n
        return np.array([self.atoms[np.searchsorted(edges, u)] for u in grid])

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


def build_diagonal_model(marginals, n: int, budget: int = 2_000_000) -> list[np.ndarray]:
    """Deterministic tensor-product diagonal model for classically
    independent marginals.

    Returns the diagonals (as 1-D arrays of length n**N) of N commuting
    matrices, the i-th acting on the i-th tensor slot, so normalized-trace
    joint moments factor over the level sets of the variable assignment.
    """
    N = len(marginals)
    if n**N > budget:
        raise CapExceededError(f"tensor dimension {n}^{N} exceeds budget {budget}")
    out = []
    for i, law in enumerate(marginals):
        q = law.quantiles(n)
        block = np.repeat(q, n ** (N - 1 - i))
        out.append(np.tile(block, n**i))
    return out


def padded_diagonal(law: AtomLaw, p: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Length-n diagonal: p iid samples of the law, then n - p zeros."""
    d = np.zeros(n)
    d[:p] = law.sample(p, rng)
    return d


def rate_split(rate: float, n: int) -> tuple[int, int, int]:
    """(k, p_unit, p_frac): number of unit-rate terms, and the padded sizes
    p(n) for the unit- and fractional-rate diagonal families."""
    if rate <= 1:
        k = 0
        delta = rate
    else:
        k = int(rate)
        delta = rate - k
        if delta == 0:  # rate an exact integer: fold one unit into delta
            k -= 1
            delta = 1.0
    p_frac = n if delta == 1.0 else int(math.floor(delta * n))
    return k, n, p_frac


@dataclass
class RealizedEnsemble:
    """One trial of the model at a fixed size: the model matrix per variable."""

    n: int
    matrices: dict[str, np.ndarray]
    sides: dict[str, str] = field(default_factory=dict)

    def word_matrices(self, word) -> list[tuple[np.ndarray, str]]:
        return [(self.matrices[name], self.sides.get(name, LEFT)) for name in word]


def build_wishart_model(
    spec: EnsembleSpec, n: int, rng: np.random.Generator
) -> RealizedEnsemble:
    """One trial of the compound Poisson matrix model at size n."""
    x = sample_gue(n, rng)
    k, p_unit, p_frac = rate_split(spec.rate, n)
    slots = sorted({v.slot for v in spec.variables})
    slot_law = {
        s: next(v.law for v in spec.variables if v.slot == s) for s in slots
    }

    def xdx(diag: np.ndarray) -> np.ndarray:
        return (x * diag) @ x

    if spec.rate <= 1:
        p = n if spec.rate == 1 else int(math.floor(spec.rate * n))
        diags = {s: padded_diagonal(slot_law[s], p, n, rng) for s in slots}
        mats = {s: xdx(diags[s]) for s in slots}
    else:
        unitaries = [sample_haar_unitary(n, rng) for _ in range(k + 1)]
        b_diags = {s: padded_diagonal(slot_law[s], p_unit, n, rng) for s in slots}
        c_diags = {s: padded_diagonal(slot_law[s], p_frac, n, rng) for s in slots}
        mats = {}
        for s in slots:
            acc = np.zeros((n, n), dtype=complex)
            for u in unitaries[:k]:
                acc += u @ xdx(b_diags[s]) @ u.conj().T
            u = unitaries[k]
            acc += u @ xdx(c_diags[s]) @ u.conj().T
            mats[s] = acc
    return RealizedEnsemble(
        n,
        {v.name: mats[v.slot] for v in spec.variables},
        {v.name: v.side for v in spec.variables},
    )


def evaluate_bimatrix_word(letters) -> complex:
    """Normalized trace of a word of left/right matrix actions applied to
    the identity element of the matrix bimodule.

    `letters` is a sequence of (matrix, side) pairs in word order. Left
    letters multiply P_left on the right (homomorphism); right letters
    multiply P_right on the left (anti-homomorphism).
    """
    letters = list(letters)
    if not letters:
        raise ShapeMismatchError("empty word")
    n = letters[0][0].shape[0]
    p_left = np.eye(n, dtype=complex)
    p_right = np.eye(n, dtype=complex)
    for mat, side in letters:
        if mat.shape != (n, n):
            raise ShapeMismatchError(f"size mismatch: {mat.shape} vs {(n, n)}")
        if side == LEFT:
            p_left = p_left @ mat
        elif side == RIGHT:
            p_right = mat @ p_right
        else:
            raise ShapeMismatchError(f"unknown side {side!r}")
    return np.trace(p_left @ p_right) / n


def commutation_check(
    ensemble: RealizedEnsemble,
    rng: np.random.Generator,
    num_words: int = 20,
    max_len: int = 6,
) -> float:
    """Max |word - word with one adjacent L/R pair swapped| over a sample."""
    names = list(ensemble.matrices)
    lefts = [x for x in names if ensemble.sides[x] == LEFT]
    rights = [x for x in names if ensemble.sides[x] == RIGHT]
    if not lefts or not rights:
        return 0.0
    worst = 0.0
    for _ in range(num_words):
        m = int(rng.integers(2, max_len + 1))
        word = [names[i] for i in rng.integers(0, len(names), size=m)]
        pos = int(rng.integers(0, m - 1))
        word[pos] = lefts[int(rng.integers(0, len(lefts)))]
        word[pos + 1] = rights[int(rng.integers(0, len(rights)))]
        swapped = list(word)
        swapped[pos], swapped[pos + 1] = swapped[pos + 1], swapped[pos]
        a = evaluate_bimatrix_word(ensemble.word_matrices(word))
        b = evaluate_bimatrix_word(ensemble.word_matrices(swapped))
        worst = max(worst, abs(a - b))
    return worst


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

    Moment standard errors are per-word over trials; cumulant standard
    errors come from batching the trials (cumulants are nonlinear in the
    averaged moments). Identical seed and spec give identical reports.
    """
    alphabet = spec.alphabet
    words = list(all_words(alphabet, spec.max_word_len))
    targets = spec.target_cumulants()
    root = np.random.SeedSequence(spec.seed)
    size_seeds = root.spawn(len(spec.sizes))
    n_batches = min(n_batches, spec.trials)
    reports = []
    for n, size_seed in zip(spec.sizes, size_seeds):
        trial_values = np.empty((spec.trials, len(words)))
        max_imag = 0.0
        for t, child in enumerate(size_seed.spawn(spec.trials)):
            ens = build_wishart_model(spec, n, np.random.default_rng(child))
            for j, w in enumerate(words):
                val = evaluate_bimatrix_word(ens.word_matrices(w))
                max_imag = max(max_imag, abs(val.imag))
                trial_values[t, j] = val.real
        mean = trial_values.mean(axis=0)
        sem = trial_values.std(axis=0, ddof=1) / math.sqrt(spec.trials)

        def cumulants_of(row) -> CumulantTable:
            phi = MomentFunctional(
                alphabet, spec.max_word_len, dict(zip(words, row))
            )
            return kappa_from_moments(phi)

        kappa_hat = cumulants_of(mean)
        batches = np.array_split(trial_values, n_batches, axis=0)
        batch_kappas = [cumulants_of(b.mean(axis=0)) for b in batches]
        estimates = []
        for j, w in enumerate(words):
            spread = np.std([k(w) for k in batch_kappas], ddof=1)
            estimates.append(
                WordEstimate(
                    word=w,
                    empirical_moment=float(mean[j]),
                    moment_std_err=float(sem[j]),
                    empirical_cumulant=kappa_hat(w),
                    cumulant_std_err=float(spread / math.sqrt(len(batch_kappas))),
                    target_cumulant=targets(w),
                )
            )
        reports.append(SizeReport(n, estimates, max_imag))
    return reports
