#!/usr/bin/env python3
"""Random bi-matrix ensemble sweep: empirical bi-free cumulants of the
compound Poisson model versus the targets lambda * phi(jump word), across
matrix sizes and rates. Each size's line gives the largest error, and the
number of words whose error exceeds three Monte Carlo moment standard
errors."""

import argparse

from bipoisson import AtomLaw, EnsembleSpec, VariableSpec
from bipoisson.cli import parse_atoms
from bipoisson.matrix_models import estimate_empirical_cumulants
from bipoisson.partitions import LEFT, RIGHT


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rates", default="0.5,1,2.5")
    ap.add_argument("--sizes", default="32,64,128")
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--max-word", type=int, default=4)
    ap.add_argument("--seed", type=int, default=20240101)
    ap.add_argument("--right-atoms", default=None,
                    help="right jump law, e.g. 0.5:0.5,3:0.5, in a slot of its "
                    "own; when absent left and right share one slot")
    args = ap.parse_args()

    law = AtomLaw((1.0, 2.0), (0.5, 0.5))
    right_law = parse_atoms(args.right_atoms) if args.right_atoms else law
    for rate in (float(x) for x in args.rates.split(",")):
        spec = EnsembleSpec(
            rate=rate,
            variables=(
                VariableSpec("zl", LEFT, law, 0),
                VariableSpec("zr", RIGHT, right_law, 1 if args.right_atoms else 0),
            ),
            sizes=tuple(int(x) for x in args.sizes.split(",")),
            trials=args.trials,
            seed=args.seed,
            max_word_len=args.max_word,
        )
        print(f"rate={rate}")
        for rep in estimate_empirical_cumulants(spec):
            worst = max(rep.estimates, key=lambda e: e.abs_err)
            outside = sum(e.abs_err > 3 * e.moment_std_err for e in rep.estimates)
            print(
                f"  n={rep.n:4d}  max_abs_err={rep.max_abs_err():.4e} "
                f"(word {'.'.join(worst.word)}, 3*moment_se="
                f"{3 * worst.moment_std_err:.4e})  outside_3se={outside}  "
                f"imag_residue={rep.max_imag_residue:.2e}"
            )


if __name__ == "__main__":
    main()
