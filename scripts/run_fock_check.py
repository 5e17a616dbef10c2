#!/usr/bin/env python3
"""Truncated Fock-space model check: bi-free cumulants of the W-operator
words equal lambda * phi(a1^p a2^q) through the series order and vanish
one past it."""

import argparse

from bipoisson import LEFT, RIGHT, AtomLaw, VariableSpec, jump_moments
from bipoisson.fock import verify_fock_cumulants


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lambda", dest="rate", type=float, default=0.5)
    ap.add_argument("--m1", type=float, default=0.7, help="mean of a1")
    ap.add_argument("--m2", type=float, default=0.3, help="mean of a2")
    ap.add_argument("--N", type=int, default=3)
    args = ap.parse_args()

    jump = jump_moments(
        (VariableSpec("a1", LEFT, AtomLaw((args.m1,), (1.0,)), 0),
         VariableSpec("a2", RIGHT, AtomLaw((args.m2,), (1.0,)), 1)),
        args.N + 1,
    )
    rows = verify_fock_cumulants(args.rate, jump, args.N, args.N + 1)
    for r in rows:
        print(
            f"chi={''.join(r.chi):6s} omega={r.omega_moment:+.6f} "
            f"kappa={r.kappa_empirical:+.6f} target={r.kappa_target:+.6f} "
            f"err={r.abs_err:.2e}"
        )
    print(f"worst error: {max(r.abs_err for r in rows):.3e}")


if __name__ == "__main__":
    main()
