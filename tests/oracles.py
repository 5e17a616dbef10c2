"""Test-only oracles: brute-force partition helpers, the validating
constructor `from_blocks`, the Kreweras complement as a partition, the NC(n)
generator that sorts and validates every partition it builds, the literal
Mobius sums over NC(n) and BNC(n, chi) on that generator, kept independent
of the first-block recursion that the library's commands and transforms
use, that recursion word by word (the
reference the compiled plan must match bit for bit, and the inner transform
of the compression oracle), the brute-force compression oracle, the
explicit bimodule operators that check the bi-matrix word evaluation, the
direct Gaussian sampler of the matrix model that checks its law, and
the Fock creation and W operators on the whole truncated space, built by
enumerating words as tuples and multiplying scipy sparse matrices."""

import itertools
import math
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from bipoisson.cumulants import (
    Alphabet,
    CumulantTable,
    MomentFunctional,
    Word,
    all_words,
    kappa_from_moments,
)
from bipoisson.errors import DEFAULT_CAP, LEFT, RIGHT, CapExceededError, ShapeMismatchError
from bipoisson.matrix_models import build_wishart_model, evaluate_bimatrix_word
from bipoisson.partitions import (
    ChiShape,
    SetPartition,
    _kreweras_cycles,
    enumerate_nc,
    mobius_nc_one,
)

# The library's NC(n), kept per n: the tests read it hundreds of times, and
# `enumerate_nc` keeps nothing past its call
nc_partitions = lru_cache(maxsize=None)(enumerate_nc)


def from_blocks(n: int, blocks) -> SetPartition:
    """The canonical SetPartition of `blocks` (each sorted, ordered by their
    minimum); ShapeMismatchError unless they partition {1..n}."""
    canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
    seen = [x for b in canon for x in b]
    if sorted(seen) != list(range(1, n + 1)):
        raise ShapeMismatchError(f"blocks {blocks!r} do not partition {{1..{n}}}")
    return SetPartition(n, canon)


def kreweras(p: SetPartition) -> SetPartition:
    """The Kreweras complement K(p), whose blocks are the cycles that
    `mobius_nc_one` reads, validated by `from_blocks`."""
    return from_blocks(p.n, _kreweras_cycles(p))


def zero_partition(n: int) -> SetPartition:
    """0_n, the partition of {1..n} into singletons."""
    return SetPartition(n, tuple((i,) for i in range(1, n + 1)))


def one_partition(n: int) -> SetPartition:
    """1_n, the partition of {1..n} into one block."""
    return SetPartition(n, (tuple(range(1, n + 1)),))


def num_blocks(p: SetPartition) -> int:
    return len(p.blocks)


def refines(p: SetPartition, other: SetPartition) -> bool:
    """True if every block of p is contained in a block of other."""
    if p.n != other.n:
        raise ShapeMismatchError(f"n mismatch: {p.n} vs {other.n}")
    owner = {}
    for idx, b in enumerate(other.blocks):
        for x in b:
            owner[x] = idx
    return all(len({owner[x] for x in b}) == 1 for b in p.blocks)


def relabel(p: SetPartition, mapping) -> SetPartition:
    """Apply a bijection {1..n} -> {1..n} elementwise; the result is sorted
    and validated by `from_blocks`."""
    return from_blocks(p.n, [[mapping[x] for x in b] for b in p.blocks])


def apply_by_relabel(shape: ChiShape, pi: SetPartition) -> SetPartition:
    """s_chi o pi through `relabel`."""
    s = shape.s_chi
    return relabel(pi, {k: s[k - 1] for k in range(1, shape.n + 1)})


def unapply(shape: ChiShape, sigma: SetPartition) -> SetPartition:
    """s_chi^{-1} o sigma."""
    s = shape.s_chi
    inv = {s[k - 1]: k for k in range(1, shape.n + 1)}
    return relabel(sigma, inv)


def _nc_blocks(elems: tuple[int, ...]):
    """Yield non-crossing partitions of an ordered tuple, as block lists."""
    if not elems:
        yield []
        return
    first, rest = elems[0], elems[1:]
    for k in range(len(rest) + 1):
        for chosen in itertools.combinations(rest, k):
            block = (first,) + chosen
            # split the leftover elements into the gaps of `block`
            segments = []
            seg = []
            for x in rest:
                if x in chosen:
                    segments.append(seg)
                    seg = []
                else:
                    seg.append(x)
            segments.append(seg)
            combos = [list(_nc_blocks(tuple(s))) for s in segments]
            for pick in itertools.product(*combos):
                yield [block] + [b for part in pick for b in part]


@lru_cache(maxsize=None)
def enumerate_nc_from_blocks(n: int) -> tuple[SetPartition, ...]:
    """NC(n) by the first-block recursion over block lists, each partition
    sorted and validated by `from_blocks`; kept per n."""
    return tuple(
        from_blocks(n, blocks)
        for blocks in _nc_blocks(tuple(range(1, n + 1)))
    )


def enumerate_partitions(n: int) -> list[SetPartition]:
    """All partitions of {1..n}; brute-force oracle, small n only."""
    out = []

    def rec(x, blocks):
        if x > n:
            out.append(from_blocks(n, blocks))
            return
        for b in blocks:
            b.append(x)
            rec(x + 1, blocks)
            b.pop()
        blocks.append([x])
        rec(x + 1, blocks)
        blocks.pop()

    rec(1, [])
    return out


def mobius_nc(pi: SetPartition, sigma: SetPartition) -> int:
    """Mobius function of the interval [pi, sigma] in NC(n); 0 if pi !<= sigma."""
    if pi.n != sigma.n:
        raise ShapeMismatchError(f"n mismatch: {pi.n} vs {sigma.n}")
    if not refines(pi, sigma):
        return 0
    out = 1
    for b in sigma.blocks:
        relabel = {x: k + 1 for k, x in enumerate(b)}
        inner = [
            [relabel[x] for x in blk] for blk in pi.blocks if blk[0] in relabel
        ]
        out *= mobius_nc_one(from_blocks(len(b), inner))
    return out


def ker_map(alpha) -> SetPartition:
    """Level-set partition of a map on {1..n}."""
    alpha = list(alpha)
    levels = {}
    for pos, val in enumerate(alpha, 1):
        levels.setdefault(val, []).append(pos)
    return from_blocks(len(alpha), levels.values())


def phi_pi(phi, word, pi) -> float:
    """Product over blocks of phi applied to the block subword (positions
    ascending)."""
    word = tuple(word)
    blocks = pi.blocks
    if sum(len(b) for b in blocks) != len(word):
        raise ShapeMismatchError(
            f"partition of {sum(len(b) for b in blocks)} vs word length {len(word)}"
        )
    out = 1.0
    for b in blocks:
        out *= phi(tuple(word[i - 1] for i in b))
    return out


def reorder_by_s_chi(phi, word) -> float:
    """Single-face cumulant kappa_n of the s_chi-reordered word, by the
    Mobius sum over NC(n).

    Cross-check oracle: on families where left and right letters commute this
    equals the bi-free cumulant of the original word.
    """
    word = tuple(word)
    s = ChiShape(phi.alphabet.sides_of(word)).s_chi
    reordered = tuple(word[k - 1] for k in s)
    return sum(
        mobius_nc_one(pi) * phi_pi(phi, reordered, pi)
        for pi in enumerate_nc_from_blocks(len(word))
    )


def enumerate_bnc_by_relabel(shape: ChiShape) -> list[SetPartition]:
    """BNC(n, chi): `apply_by_relabel` over `enumerate_nc_from_blocks`."""
    return [apply_by_relabel(shape, pi) for pi in enumerate_nc_from_blocks(shape.n)]


def bnc_cumulant(phi, word) -> float:
    """kappa_chi(word) by Mobius inversion over BNC(n, chi):
    sum of mu(s_chi^{-1} o sigma, 1_n) * phi_sigma(word)."""
    shape = ChiShape(phi.alphabet.sides_of(word))
    return sum(
        mobius_nc_one(unapply(shape, sigma)) * phi_pi(phi, word, sigma)
        for sigma in enumerate_bnc_by_relabel(shape)
    )


def bnc_moment(kappa, word) -> float:
    """phi(word) as the sum over BNC(n, chi) of kappa block products."""
    shape = ChiShape(kappa.alphabet.sides_of(word))
    return sum(phi_pi(kappa, word, sigma) for sigma in enumerate_bnc_by_relabel(shape))


@lru_cache(maxsize=None)
def first_block_terms(sides: tuple[str, ...]):
    """The first-block recursion for words with side pattern `sides`, term
    by term.

    Under s_chi (left positions ascending, then right positions descending)
    BNC(n, chi) is NC(n), so phi(w) is the sum, over the blocks V holding the
    first reordered letter, of kappa(w|V) times the product over the gaps of
    V of phi(w|gap). Each of the 2**(n-1) terms is a (block, gaps) pair of
    ascending 0-based positions in the original word; the whole-word block
    comes last.
    """
    n = len(sides)
    if not 1 <= n <= DEFAULT_CAP:
        raise CapExceededError(f"n={n} outside [1, {DEFAULT_CAP}]")
    bad = set(sides) - {LEFT, RIGHT}
    if bad:
        raise ShapeMismatchError(f"unknown side tags {bad}")
    order = [i for i, s in enumerate(sides) if s == LEFT]
    order += [i for i, s in reversed(list(enumerate(sides))) if s == RIGHT]
    terms = []
    for k in range(n):
        for chosen in itertools.combinations(range(1, n), k):
            cuts = (0,) + chosen + (n,)
            block = tuple(sorted(order[c] for c in cuts[:-1]))
            gaps = tuple(
                tuple(sorted(order[a + 1:b]))
                for a, b in zip(cuts, cuts[1:]) if b > a + 1
            )
            terms.append((block, gaps))
    return tuple(terms)


def _expand(kappa_fn, phi_fn, word: Word, terms) -> float:
    total = 0.0
    for block, gaps in terms:
        term = kappa_fn(tuple(word[i] for i in block))
        for gap in gaps:
            if term == 0.0:
                break
            term *= phi_fn(tuple(word[i] for i in gap))
        total += term
    return total


def moment_of_word(kappa_fn, phi_fn, sides: tuple[str, ...], word: Word) -> float:
    """phi(word) from kappa on its subwords and phi on its proper subwords,
    both given as callables, one term at a time."""
    return _expand(kappa_fn, phi_fn, word, first_block_terms(sides))


def cumulant_of_word(kappa_fn, phi_fn, sides: tuple[str, ...], word: Word) -> float:
    """kappa(word) from phi on its subwords and kappa on its proper
    subwords: the moment relation solved for its whole-word term."""
    return phi_fn(word) - _expand(kappa_fn, phi_fn, word, first_block_terms(sides)[:-1])


def cumulants_by_words(phi: MomentFunctional) -> dict:
    """Every word's cumulant by the per-word recursion, shortest first."""
    alphabet, values = phi.alphabet, {}
    for w in all_words(alphabet, phi.degree_cap):
        values[w] = cumulant_of_word(values.__getitem__, phi, alphabet.sides_of(w), w)
    return values


def moments_by_words(kappa: CumulantTable) -> dict:
    """Every word's moment by the per-word recursion, shortest first."""
    alphabet, values = kappa.alphabet, {}
    for w in all_words(alphabet, kappa.degree_cap):
        values[w] = moment_of_word(kappa, values.__getitem__, alphabet.sides_of(w), w)
    return values


def compression_oracle(
    phi_z: MomentFunctional, lam: float, max_deg: int
) -> CumulantTable:
    """Brute-force single-face compression oracle.

    Builds the joint free family {p, z_1..z_K} (p a projection with all
    moments lam, mixed free cumulants zero), evaluates the compressed state
    phi(p z_1 p z_2 ... z_m p)/lam word by word, and inverts back to
    cumulants. Independent of `compress`, which only rescales a table.
    """
    if phi_z.alphabet.right:
        raise ShapeMismatchError("compression oracle is single-face only")
    if not 0 < lam <= 1:
        raise ValueError(f"compression ratio must be in (0, 1], got {lam}")
    if max_deg > phi_z.degree_cap:
        raise CapExceededError(
            f"max_deg {max_deg} exceeds jump table cap {phi_z.degree_cap}"
        )
    joint_deg = 2 * max_deg + 1

    # free cumulants of the projection from its constant moment sequence
    p_moments = MomentFunctional.from_function(
        Alphabet(("p",)), joint_deg, lambda w: lam
    )
    p_kappa = kappa_from_moments(p_moments)
    z_kappa = kappa_from_moments(phi_z)

    def joint_kappa(word: Word) -> float:
        if all(x == "p" for x in word):
            return p_kappa(word)
        if "p" in word:
            return 0.0  # p free from the z family
        return z_kappa(word)

    @lru_cache(maxsize=None)
    def joint_moment(word: Word) -> float:
        return moment_of_word(joint_kappa, joint_moment, (LEFT,) * len(word), word)

    def compressed_moment(zword: Word) -> float:
        interleaved = ("p",) + tuple(
            x for z in zword for x in (z, "p")
        )
        return joint_moment(interleaved) / lam

    phi_compressed = MomentFunctional.from_function(
        phi_z.alphabet, max_deg, compressed_moment
    )
    return kappa_from_moments(phi_compressed)


def bimodule_operators(letters) -> list:
    """The n^2 x n^2 operator of each (matrix, side) letter of one size n.

    On the column-stacked vec(M) of M in M_n, left multiplication by A is
    L_A = I (x) A and right multiplication by B is R_B = B^T (x) I, since
    vec(A M B) = (B^T (x) A) vec(M).
    """
    eye = np.eye(letters[0][0].shape[0])
    return [np.kron(eye, m) if side == LEFT else np.kron(m.T, eye)
            for m, side in letters]


def operator_word_value(ops, word) -> complex:
    """<T_w vec(I), vec(I)>/n, with T_w the product of the operators
    `ops[i]` for i in `word`, in word order."""
    n = math.isqrt(ops[0].shape[0])
    vec_eye = np.eye(n).reshape(-1).astype(complex)
    v = vec_eye
    for i in reversed(word):
        v = ops[i] @ v
    return np.vdot(vec_eye, v) / n


def bimodule_residue(letters, rng, num_words: int = 20, max_len: int = 6) -> float:
    """Check the bi-matrix word evaluation against explicit operators.

    `letters` is a list of (matrix, side) pairs of one size n, acting as
    `bimodule_operators`. Returns the larger of the max |[L_A, R_B]| over
    left/right letter pairs and, over `num_words` sampled mixed words of
    length 2..max_len, the max of
    |operator_word_value(w) - evaluate_bimatrix_word(w)|.
    """
    ops = bimodule_operators(letters)
    lefts = [i for i, (_, side) in enumerate(letters) if side == LEFT]
    rights = [i for i, (_, side) in enumerate(letters) if side == RIGHT]
    if not lefts or not rights:
        raise ShapeMismatchError("mixed words need left and right letters")
    worst = max(
        np.abs(ops[a] @ ops[b] - ops[b] @ ops[a]).max() for a in lefts for b in rights
    )
    for _ in range(num_words):
        m = int(rng.integers(2, max_len + 1))
        word = list(rng.integers(0, len(letters), size=m))
        first, second = rng.permutation(m)[:2]
        word[first] = lefts[int(rng.integers(0, len(lefts)))]
        word[second] = rights[int(rng.integers(0, len(rights)))]
        expected = operator_word_value(ops, word)
        got = evaluate_bimatrix_word([letters[i] for i in word])
        worst = max(worst, abs(got - expected))
    return float(worst)


def direct_wishart_model(spec, n: int, rng) -> dict:
    """One trial of the compound Poisson matrix model drawn as its formula
    states: a p×n complex Gaussian G with E|g_ij|² = 1/n and
    p = round(rate·n), and per row of G one i.i.d. draw of a joint atom of
    the jump law; T_x = G*·diag(b_x)·G with b_x the rows' x-coordinates,
    by variable name x. The library draws the same law from Bartlett
    factors."""
    p = math.floor(spec.rate * n + 0.5)
    g = (rng.normal(size=(p, n)) + 1j * rng.normal(size=(p, n))) / math.sqrt(2 * n)
    atoms, weights = np.array(spec.jump.atoms), np.array(spec.jump.weights)
    b = atoms[rng.choice(len(atoms), size=p, p=weights)]
    return {x: (g.conj().T * b[:, i]) @ g for i, x in enumerate(spec.alphabet.names)}


def model_letters(spec, n: int, rng, trials: int = 3) -> list:
    """(matrix, side) letters of every variable over independent trials of
    the model at size n. Over one trial of a spec whose names are one
    variable every letter is one matrix, and over two the trace of a short
    word equals that of its reversal; three trials give words whose value
    changes when a product's order does."""
    return [
        (mats[x], spec.alphabet.side_of(x))
        for mats in (build_wishart_model(spec, n, rng) for _ in range(trials))
        for x in spec.alphabet.names
    ]


def creation_by_words(basis, side: str, i: int) -> sp.csr_matrix:
    """The creation operator of `basis` built from the explicit list of its
    words (by length, then lexicographic) and a word -> index dict: left
    creation prepends generator i, right creation appends it, and words
    already at full depth are annihilated."""
    words: list[tuple[int, ...]] = []
    for n in range(basis.depth + 1):
        words.extend(itertools.product(range(1, basis.dim + 1), repeat=n))
    index = {w: k for k, w in enumerate(words)}
    rows, cols = [], []
    for col, w in enumerate(words):
        if len(w) >= basis.depth:
            continue
        target = (i,) + w if side == LEFT else w + (i,)
        rows.append(index[target])
        cols.append(col)
    data = np.ones(len(rows))
    return sp.csr_matrix((data, (rows, cols)), shape=(len(words), len(words)))


def creation_product_by_words(basis, side: str, letters) -> sp.csr_matrix:
    """The operator product c_{letters[0]} c_{letters[1]} ... of the
    one-side `creation_by_words` operators; the identity when empty."""
    out = sp.identity(basis.size, format="csr")
    for i in letters:
        out = out @ creation_by_words(basis, side, i)
    return out


def w_operators_by_words(rate: float, jump_law, N: int, basis):
    """(W_l, W_r) on every word of a two-generator `basis`: l_1^T plus, for
    each string alpha of length < N, rate * phi(a1^p a2^q) times the product
    l_{alpha(1)} ... l_{alpha(n)}, where p and q count alpha's letters plus
    the own letter 1; W_r is the same on the right with own letter 2."""
    (a1,), (a2,) = jump_law.alphabet.left, jump_law.alphabet.right
    out = []
    for side, own in ((LEFT, 1), (RIGHT, 2)):
        w = creation_by_words(basis, side, own).T.tocsr()
        for n in range(N):
            for alpha in itertools.product((1, 2), repeat=n):
                p = alpha.count(1) + (own == 1)
                q = alpha.count(2) + (own == 2)
                coeff = rate * jump_law((a1,) * p + (a2,) * q)
                w = w + coeff * creation_product_by_words(basis, side, alpha)
        out.append(sp.csr_matrix(w))
    return out[0], out[1]
