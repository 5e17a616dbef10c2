"""Acceptance gate: eight end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Each criterion asserts both its numerical tolerance and its
wall-time budget.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from bipoisson.cumulants import (
    Alphabet,
    MomentFunctional,
    all_words,
    kappa_from_moments,
    moments_from_kappa,
)
from bipoisson.matrix_models import EnsembleSpec, estimate_empirical_cumulants
from bipoisson.partitions import (
    ChiShape,
    catalan,
)
from bipoisson.poisson import (
    CbpSpec,
    JumpLaw,
    cbp_cumulants,
    cbp_moments,
    compress,
    convolve,
    limit_theorem_moments,
    poisson_approximation,
    psd_check,
    semigroup_element,
)
from bipoisson.fock import verify_fock_cumulants
from bipoisson import cli
from oracles import (
    bimodule_residue,
    compression_oracle,
    count_grid,
    limit_coefficient,
    model_letters,
    nc_partitions,
    num_blocks,
    two_block_sum,
    w_operators_by_words,
)


def report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {num}: {status} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def point_mass_jump(alpha: float, beta: float, cap: int) -> MomentFunctional:
    a = Alphabet(("zl",), ("zr",))
    return MomentFunctional.from_function(
        a, cap, lambda w: alpha ** w.count("zl") * beta ** w.count("zr")
    )


def mobius_zero_one_by_recursion(n: int) -> int:
    """mu(0_n, 1_n) from the defining recursion over NC(n) only."""
    parts = sorted(nc_partitions(n), key=lambda p: -num_blocks(p))
    # owner[j, x]: block index of element x in partition j;
    # rep[i, x]: first element of the block of x in partition i
    owner = np.empty((len(parts), n), dtype=np.int64)
    rep = np.empty((len(parts), n), dtype=np.int64)
    for j, p in enumerate(parts):
        for i, b in enumerate(p.blocks):
            owner[j, [x - 1 for x in b]] = i
            rep[j, [x - 1 for x in b]] = b[0] - 1
    mu = np.zeros(len(parts), dtype=np.int64)
    mu[0] = 1
    for j in range(1, len(parts)):
        # partition i refines j iff each element shares j's block with the
        # first element of its block in i
        refined = (owner[j][rep[:j]] == owner[j]).all(axis=1)
        mu[j] = -mu[:j][refined].sum()
    return int(mu[-1])


def test_criterion_1_combinatorics():
    t0 = time.time()
    ok = all(len(nc_partitions(n)) == catalan(n) for n in range(1, 10))
    ok = ok and all(
        mobius_zero_one_by_recursion(n) == (-1) ** (n - 1) * catalan(n - 1)
        for n in range(1, 10)
    )
    rng = random.Random(101)
    for _ in range(50):
        n = rng.randint(1, 8)
        chi = "".join(rng.choice("lr") for _ in range(n))
        shape = ChiShape(tuple(chi))
        ok = ok and len(set(map(shape.apply, nc_partitions(n)))) == catalan(n)
    dt = time.time() - t0
    report(1, ok and dt < 30, f"exact counts and Mobius recursion, {dt:.1f}s")


def test_criterion_2_round_trip():
    t0 = time.time()
    rng = random.Random(202)
    worst = 0.0
    for i in range(50):
        nleft = rng.randint(1, 3)
        nright = rng.randint(0, 3 - nleft)
        a = Alphabet(
            tuple(f"x{k}" for k in range(nleft)),
            tuple(f"u{k}" for k in range(nright)),
        )
        total = nleft + nright
        cap = 6 if total == 1 else (4 if total == 2 else 3)
        phi = MomentFunctional.from_function(a, cap, lambda w: rng.uniform(-1, 1))
        back = moments_from_kappa(kappa_from_moments(phi))
        worst = max(
            worst, max(abs(back(w) - phi(w)) for w in all_words(a, cap))
        )
    dt = time.time() - t0
    report(2, worst < 1e-12 and dt < 60,
           f"50 tables, max round-trip err {worst:.2e}, {dt:.1f}s")


def test_criterion_3_limit_theorem_rate():
    t0 = time.time()
    spec = CbpSpec(1.0, point_mass_jump(1.0, 1.0, 4))
    target = cbp_moments(spec)
    words = list(all_words(target.alphabet, 4))
    sizes = [8, 16, 32, 64]
    errs = [
        max(abs(approx[w.count("zl"), w.count("zr")] - target(w)) for w in words)
        for approx in limit_theorem_moments(CbpSpec(1.0, count_grid(spec.jump_law)), sizes)
    ]
    slope = float(np.polyfit(np.log(sizes), np.log(errs), 1)[0])
    # The exact 1/N coefficient c_1 of both theorems: N * error - c_1 is
    # O(1/N), so its largest value over the words falls 4-fold as N does.
    # A wrong rate or scaling keeps a 1/N error, and the slope above, but
    # moves c_1.
    a = Alphabet(("zl",), ("zr",))
    laws = [JumpLaw(a, ((1.0, 1.0),), (1.0,)),
            JumpLaw(a, ((1.0, 0.5), (2.0, 3.0)), (0.5, 0.5)),
            JumpLaw(a, ((1.0, -1.0), (-2.0, 1.0)), (0.5, 0.5))]
    sizes = (64, 256, 1024, 4096)
    ratios = []
    for law in laws:
        jump = law.moments(5)
        spec = CbpSpec(1.0, jump)
        kappa = cbp_cumulants(spec)
        for tables, ref, coefficient in (
            (limit_theorem_moments(CbpSpec(1.0, law.grid(5)), sizes), cbp_moments(spec),
             lambda w: limit_coefficient(1.0, jump, w)),
            (poisson_approximation(count_grid(kappa), sizes), kappa,
             lambda w: two_block_sum(kappa, w)),
        ):
            c1 = {w: coefficient(w) for w in all_words(a, 5)}
            residual = [max(abs(n * (table[w.count("zl"), w.count("zr")] - ref(w)) - c)
                            for w, c in c1.items())
                        for n, table in zip(sizes, tables)]
            ratios += [r / r4 for r, r4 in zip(residual, residual[1:])]
    dt = time.time() - t0
    ok = all(3.6 <= r <= 4.4 for r in ratios)
    report(3, -1.15 <= slope <= -0.85 and ok and dt < 10,
           f"log-log slope {slope:+.3f}; N*err - c_1 falls {min(ratios):.2f}-"
           f"{max(ratios):.2f}x per 4x N, 3 laws, both theorems, {dt:.1f}s")


def test_criterion_4_divisibility_and_compression():
    t0 = time.time()
    # n-fold self-convolution of the rate lam/n law recovers the rate-lam law
    jump = point_mass_jump(1.2, 0.7, 5)
    lam = 1.5
    target = cbp_cumulants(CbpSpec(lam, jump))
    worst_div = 0.0
    for n in (2, 3, 5):
        piece = cbp_cumulants(CbpSpec(lam / n, jump))
        acc = semigroup_element(piece, 0.0)
        for _ in range(n):
            acc = convolve(acc, piece)
        worst_div = max(
            worst_div,
            max(abs(acc(w) - target(w)) for w in all_words(jump.alphabet, 5)),
        )
    # compression scaling against the brute-force single-face oracle
    rng = random.Random(404)
    worst_cmp = 0.0
    for i in range(20):
        nvars = rng.randint(1, 2)
        a = Alphabet(tuple(f"z{k}" for k in range(nvars)))
        phi = MomentFunctional.from_function(a, 4, lambda w: rng.uniform(-1, 1))
        lam_c = rng.uniform(0.2, 1.0)
        fast = compress(kappa_from_moments(phi), lam_c)
        oracle = compression_oracle(phi, lam_c, 4)
        worst_cmp = max(
            worst_cmp, max(abs(fast(w) - oracle(w)) for w in all_words(a, 4))
        )
    dt = time.time() - t0
    ok = worst_div < 1e-12 and worst_cmp < 1e-10 and dt < 60
    report(4, ok,
           f"divisibility err {worst_div:.2e}, compression err {worst_cmp:.2e}, "
           f"{dt:.1f}s")


def test_criterion_5_matrix_model():
    t0 = time.time()
    # zl = zr, one jump variable uniform on {1, 2}
    law = JumpLaw(Alphabet(("zl",), ("zr",)), ((1.0, 1.0), (2.0, 2.0)), (0.5, 0.5))
    all_ok = True
    details = []
    for rate in (0.5, 1.0, 2.5):
        spec = EnsembleSpec(
            rate=rate,
            jump=law,
            sizes=(32, 64, 128),
            trials=200,
            seed=20240101,
            max_word_len=4,
        )
        largest = estimate_empirical_cumulants(spec)[-1]
        err = np.abs(largest.cumulants - cbp_cumulants(spec.law).row)
        # yardstick: three standard errors of the Monte Carlo word moments
        bad = np.count_nonzero(err > 3 * largest.moment_se)
        # explicit n^2 x n^2 bimodule operators against the word evaluation
        rng = np.random.default_rng(555)
        comm = bimodule_residue(model_letters(spec, 8, rng), rng)
        worst = err.max()
        all_ok = all_ok and not bad and comm < 1e-10
        details.append(
            f"rate={rate}: max err {worst:.3f}, {bad} words outside 3 SE, "
            f"commutation {comm:.1e}"
        )
    dt = time.time() - t0
    report(5, all_ok and dt < 600, "; ".join(details) + f", {dt:.0f}s")


def test_criterion_6_fock_model():
    t0 = time.time()
    # independent point masses at 0.7 (left) and 0.3 (right)
    jump = JumpLaw(Alphabet(("a1",), ("a2",)), ((0.7, 0.3),), (1.0,))
    worst = 0.0
    for N in (2, 3):
        law = cbp_cumulants(CbpSpec(0.5, jump.moments(N)))
        _, kappa, target = verify_fock_cumulants(law, N + 1)
        worst = max(worst, np.abs(kappa.row - target).max())
    # truncation doubling leaves moments unchanged: the library's block
    # moments at depth 6 against mat-vecs with the whole-space operators of
    # depth 12, built by word enumeration
    from bipoisson.fock import FockBasis, build_w_operators, fock_moments

    basis = FockBasis(2, 6)
    law = cbp_cumulants(CbpSpec(0.5, jump.moments(2)))
    phi = fock_moments(*build_w_operators(law, basis, 3), basis, 3)
    by_words = w_operators_by_words(0.5, jump.moments(2), 2, FockBasis(2, 12))
    full = dict(zip(("wl", "wr"), by_words))
    tables = [{w: phi(w) for w in phi.values}, {}]
    for w in phi.values:
        v = np.zeros(full["wl"].shape[0])
        v[0] = 1.0
        for x in reversed(w):
            v = full[x] @ v
        tables[1][w] = v[0]
    depth_err = max(abs(tables[0][w] - tables[1][w]) for w in tables[0])
    dt = time.time() - t0
    ok = worst < 1e-10 and depth_err < 1e-12 and dt < 60
    report(6, ok,
           f"cumulant err {worst:.2e}, depth-doubling err {depth_err:.2e}, "
           f"{dt:.1f}s")


def test_criterion_7_positivity():
    t0 = time.time()
    min_eigs = []
    for lam, alpha, beta in [(1.0, 1.0, 1.0), (0.5, 2.0, 0.5), (2.5, 1.0, 3.0)]:
        phi = cbp_moments(CbpSpec(lam, point_mass_jump(alpha, beta, 4)))
        ok, min_eig = psd_check(phi, 2)
        min_eigs.append(min_eig)
    dt = time.time() - t0
    ok = all(e >= -1e-9 for e in min_eigs) and dt < 5
    report(7, ok, f"min eigenvalues {[f'{e:.2e}' for e in min_eigs]}, {dt:.1f}s")


def test_criterion_8_reproducibility(tmp_path, capsys):
    t0 = time.time()
    args = [
        "simulate", "bimatrix", "--lambda", "1", "--atoms", "1:0.5,2:0.5",
        "--shared", "--sizes", "16,24", "--trials", "10", "--max-word", "3",
    ]
    f1, f2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert cli.main(["--seed", "99", "--out", str(f1)] + args) == 0
    assert cli.main(["--seed", "99", "--out", str(f2)] + args) == 0
    capsys.readouterr()
    identical = f1.read_bytes() == f2.read_bytes()
    dt = time.time() - t0
    report(8, identical, f"byte-identical seeded reports, {dt:.1f}s")
