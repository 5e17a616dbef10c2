#!/usr/bin/env python3
"""Poisson limit theorem convergence: max moment error of the N-fold
bi-free sum against the compound Poisson target, with the fitted
log-log rate (expected slope about -1)."""

import argparse

import numpy as np

from bipoisson import (LEFT, RIGHT, AtomLaw, CbpSpec, VariableSpec, all_words,
                       jump_moments)
from bipoisson.poisson import cbp_moments, limit_theorem_moments


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lambda", dest="rate", type=float, default=1.0)
    ap.add_argument("--alpha", type=float, default=1.0)
    ap.add_argument("--beta", type=float, default=1.0)
    ap.add_argument("--deg", type=int, default=4)
    ap.add_argument("--sizes", default="8,16,32,64,128")
    args = ap.parse_args()

    jump = jump_moments(
        (VariableSpec("zl", LEFT, AtomLaw((args.alpha,), (1.0,)), 0),
         VariableSpec("zr", RIGHT, AtomLaw((args.beta,), (1.0,)), 1)),
        args.deg,
    )
    spec = CbpSpec(args.rate, jump)
    target = cbp_moments(spec)
    words = list(all_words(jump.alphabet, args.deg))

    sizes = [int(x) for x in args.sizes.split(",")]
    errs = []
    for n in sizes:
        approx = limit_theorem_moments(spec, n)
        err = max(abs(approx.moments(w) - target.moments(w)) for w in words)
        errs.append(err)
        print(f"N={n:5d}  max_abs_err={err:.6e}")
    slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
    print(f"log-log slope: {slope:+.4f}")


if __name__ == "__main__":
    main()
