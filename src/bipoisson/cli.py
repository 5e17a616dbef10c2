"""Command-line harness: enumeration, transforms, models, and reports.

Data goes to --out (atomic write) or standard output; progress and errors
go to the error stream. Errors print a single machine-parsable line
``ERROR <CODE>: <message>`` and exit nonzero. With a fixed seed and config
every report is byte-identical across reruns.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from .errors import CapExceededError, MissingEntryError, ShapeMismatchError
from .partitions import ChiShape, LEFT, RIGHT, enumerate_bnc, enumerate_nc, mobius_nc_one
from .cumulants import (
    Alphabet,
    CumulantTable,
    MomentFunctional,
    kappa_from_moments,
    moments_from_kappa,
)
from .poisson import (
    CbpSpec,
    cbp_moments,
    limit_theorem_moments,
    poisson_approximation,
    psd_check,
)
from .matrix_models import AtomLaw, EnsembleSpec, VariableSpec, estimate_empirical_cumulants
from .fock import verify_fock_cumulants

DEFAULT_SEED = 20240101


class CliError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------- io helpers


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_output(text: str, out_path: str | None) -> None:
    """Write to stdout, or atomically (temp file + rename) to out_path."""
    if out_path is None:
        sys.stdout.write(text)
        return
    d = os.path.dirname(os.path.abspath(out_path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-report-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for r in rows:
        w.writerow(r)
    return buf.getvalue()


def json_text(obj) -> str:
    """`json.dumps(obj, indent=2) + "\\n"`, byte for byte, for nested lists,
    tuples and str-keyed dicts of JSON scalars.

    The standard encoder falls back to pure Python when given an indent.
    This writer renders each non-empty all-int tuple once per indent level,
    and each dict key once, so that the repeated blocks of a partition
    listing cost one dict lookup each.
    """
    out: list[str] = []
    _json_chunks(obj, "\n", out, {})
    out.append("\n")
    return "".join(out)


def _json_chunks(obj, nl: str, out: list[str], memo: dict) -> None:
    """Append the text of `obj` to `out`; `nl` is a newline followed by the
    indent of the line `obj` starts on. `memo` maps (all-int tuple, nl) to
    the tuple's text, each dict key to its quoted text, and (nl, brackets)
    to a container's punctuation, so that repeated pieces are one string."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        if type(obj) is tuple and all(type(x) is int for x in obj):
            key = (obj, nl)
            text = memo.get(key)
            if text is None:
                text = memo[key] = (
                    "[" + inner + ("," + inner).join(map(str, obj)) + nl + "]"
                )
            out.append(text)
            return
        sep, comma, close = _json_punctuation(nl, "[]", memo)
        for item in obj:
            out.append(sep)
            _json_chunks(item, inner, out, memo)
            sep = comma
        out.append(close)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep, comma, close = _json_punctuation(nl, "{}", memo)
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            name = memo.get(k)
            if name is None:
                name = memo[k] = json.dumps(k) + ": "
            out.append(sep)
            out.append(name)
            _json_chunks(v, inner, out, memo)
            sep = comma
        out.append(close)
    else:
        out.append(json.dumps(obj))


def _json_punctuation(nl: str, brackets: str, memo: dict) -> tuple[str, str, str]:
    """Opening, separating and closing text of a non-empty container."""
    key = (nl, brackets)
    text = memo.get(key)
    if text is None:
        inner = nl + "  "
        text = memo[key] = (brackets[0] + inner, "," + inner, nl + brackets[1])
    return text


def rows_as(fmt: str, header: list[str], rows: list[list]) -> str:
    if fmt == "csv":
        return csv_text(header, rows)
    return json_text([dict(zip(header, r)) for r in rows])


# ------------------------------------------------------------- table schema


def table_to_json(table) -> dict:
    """Serialize a word table with side tags made explicit."""
    alphabet = table.alphabet
    entries = []
    for word in sorted(table.values, key=lambda w: (len(w), w)):
        entries.append(
            {
                "word": [[name, alphabet.side_of(name)] for name in word],
                "value": table.values[word],
            }
        )
    return {
        "schema": 1,
        "alphabet": {"left": list(alphabet.left), "right": list(alphabet.right)},
        "degree_cap": table.degree_cap,
        "entries": entries,
    }


def table_from_json(obj, cls):
    try:
        if obj.get("schema") != 1:
            raise CliError("TABLE_PARSE", f"unsupported schema {obj.get('schema')!r}")
        alphabet = Alphabet(
            tuple(obj["alphabet"]["left"]), tuple(obj["alphabet"].get("right", []))
        )
        cap = int(obj["degree_cap"])
        values = {}
        for entry in obj["entries"]:
            word = []
            for name, side in entry["word"]:
                if alphabet.side_of(name) != side:
                    raise CliError(
                        "TABLE_PARSE", f"side tag {side!r} wrong for variable {name!r}"
                    )
                word.append(name)
            word = tuple(word)
            value = float(entry["value"])
            if word in values:
                raise CliError("TABLE_PARSE", f"duplicate entry for word {word!r}")
            if len(word) > cap:
                raise CliError(
                    "TABLE_PARSE", f"entry {word!r} longer than degree_cap {cap}"
                )
            if not math.isfinite(value):
                raise CliError("TABLE_PARSE", f"non-finite value for word {word!r}")
            values[word] = value
        return cls(alphabet, cap, values)
    except (CliError, CapExceededError):
        raise
    except (KeyError, TypeError, ValueError, AttributeError,
            MissingEntryError, ShapeMismatchError) as exc:
        raise CliError("TABLE_PARSE", f"malformed table: {exc}") from exc


def load_table(path: str, cls):
    try:
        with open(path) as f:
            obj = json.load(f)
    except OSError as exc:
        raise CliError("TABLE_PARSE", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError("TABLE_PARSE", f"invalid JSON in {path}: {exc}") from exc
    return table_from_json(obj, cls)


def parse_atoms(text: str) -> AtomLaw:
    """Parse 'atom:weight,atom:weight' into an AtomLaw."""
    try:
        atoms, weights = [], []
        for part in text.split(","):
            a, w = part.split(":")
            atoms.append(float(a))
            weights.append(float(w))
        return AtomLaw(tuple(atoms), tuple(weights))
    except (ValueError, ShapeMismatchError) as exc:
        raise CliError("VALIDATION", f"bad atom law {text!r}: {exc}") from exc


def parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise CliError("VALIDATION", f"bad integer list {text!r}") from exc


# ------------------------------------------------------- convergence series


def emit_convergence_series(points: list[tuple[int, list[tuple[str, float, float]]]],
                            fmt: str) -> str:
    """Long-format (N, word, value, reference, abs_err) rows plus a fitted
    log-log slope of the per-N maximum error; slope blank with a flag when
    fewer than two points are available."""
    sizes, max_errs = [], []
    for n, triples in points:
        sizes.append(n)
        max_errs.append(max(abs(v - ref) for _, v, ref in triples))
    if len(sizes) >= 2 and min(max_errs) > 0:
        slope = float(np.polyfit(np.log(sizes), np.log(max_errs), 1)[0])
        slope_str, flag = _fmt(slope), ""
    else:
        slope_str, flag = "", "slope_omitted"
    header = ["N", "word", "value", "reference", "abs_err", "slope", "flag"]
    rows = []
    for n, triples in points:
        for word, v, ref in triples:
            rows.append([n, word, _fmt(v), _fmt(ref), _fmt(abs(v - ref)),
                         slope_str, flag])
    return rows_as(fmt, header, rows)


def _word_str(word) -> str:
    return ".".join(word)


# ------------------------------------------------------------- subcommands


def cmd_nc_list(args) -> str:
    pis = enumerate_nc(args.n)
    return json_text([p.blocks for p in pis])


def cmd_nc_mobius(args) -> str:
    pis = enumerate_nc(args.n)
    return json_text(
        [{"blocks": p.blocks, "mobius": mobius_nc_one(p)} for p in pis]
    )


def cmd_bnc_list(args) -> str:
    bad = set(args.chi) - {LEFT, RIGHT}
    if bad:
        raise CliError("VALIDATION", f"chi must be over 'l'/'r', got {bad}")
    shape = ChiShape(tuple(args.chi))
    return json_text([p.blocks for p in enumerate_bnc(shape)])


def cmd_cumulants_from_moments(args) -> str:
    phi = load_table(args.infile, MomentFunctional)
    return json_text(table_to_json(kappa_from_moments(phi)))


def cmd_moments_from_cumulants(args) -> str:
    kappa = load_table(args.infile, CumulantTable)
    return json_text(table_to_json(moments_from_kappa(kappa)))


def _truncate(table, cls, deg: int):
    if deg > table.degree_cap:
        raise CliError("VALIDATION",
                       f"degree {deg} exceeds table cap {table.degree_cap}")
    values = {w: v for w, v in table.values.items() if len(w) <= deg}
    return cls(table.alphabet, deg, values)


def cmd_cbp_build(args) -> str:
    jump = load_table(args.jump, MomentFunctional)
    if args.deg is not None:
        jump = _truncate(jump, MomentFunctional, args.deg)
    dist = cbp_moments(CbpSpec(args.rate, jump))
    return json_text(
        {
            "schema": 1,
            "rate": args.rate,
            "cumulants": table_to_json(dist.cumulants),
            "moments": table_to_json(dist.moments),
        }
    )


def _point_mass_spec(args) -> CbpSpec:
    if args.deg < 1:
        raise CliError("VALIDATION", f"--deg must be >= 1, got {args.deg}")
    alphabet = Alphabet(("zl",), ("zr",))
    jump = MomentFunctional.from_function(
        alphabet, args.deg,
        lambda w: args.alpha ** w.count("zl") * args.beta ** w.count("zr"),
    )
    return CbpSpec(args.rate, jump)


def cmd_cbp_limit(args) -> str:
    spec = _point_mass_spec(args)
    target = cbp_moments(spec)
    words = sorted(target.moments.values, key=lambda w: (len(w), w))
    points = []
    for n in parse_int_list(args.sizes):
        approx = limit_theorem_moments(spec, n)
        points.append(
            (n, [(_word_str(w), approx.moments(w), target.moments(w)) for w in words])
        )
    return emit_convergence_series(points, args.format)


def cmd_cbp_approx(args) -> str:
    spec = _point_mass_spec(args)
    nu = cbp_moments(spec)
    words = sorted(nu.moments.values, key=lambda w: (len(w), w))
    points = []
    for n in parse_int_list(args.sizes):
        approx = poisson_approximation(nu, n)
        points.append(
            (n, [(_word_str(w), approx.cumulants(w), nu.cumulants(w)) for w in words])
        )
    return emit_convergence_series(points, args.format)


def cmd_cbp_psd(args) -> str:
    jump = load_table(args.jump, MomentFunctional)
    dist = cbp_moments(CbpSpec(args.rate, jump))
    ok, min_eig = psd_check(dist, args.deg)
    return json_text(
        {"schema": 1, "degree": args.deg, "psd": bool(ok), "min_eigenvalue": min_eig}
    )


def _atom_laws(args) -> tuple[AtomLaw, AtomLaw]:
    """The left and right jump laws of --atoms and --right-atoms (the left
    law when absent); --shared requires the two to be equal."""
    left = parse_atoms(args.atoms)
    right = parse_atoms(args.right_atoms) if args.right_atoms else left
    if args.shared and right != left:
        raise CliError("VALIDATION", "--shared requires identical atom laws")
    return left, right


def cmd_simulate(args) -> str:
    if args.action == "bimatrix":
        left_law, right_law = _atom_laws(args)
        variables = (
            VariableSpec("zl", LEFT, left_law, 0),
            VariableSpec("zr", RIGHT, right_law, 0 if args.shared else 1),
        )
    else:
        variables = (VariableSpec("z", LEFT, parse_atoms(args.atoms), 0),)
    spec = EnsembleSpec(
        rate=args.rate,
        variables=variables,
        sizes=parse_int_list(args.sizes),
        trials=args.trials,
        seed=args.seed,
        max_word_len=args.max_word,
    )
    print(f"simulating sizes {spec.sizes}, {spec.trials} trials", file=sys.stderr)
    reports = estimate_empirical_cumulants(spec)
    header = ["n", "word", "empirical", "target", "abs_err", "std_err"]
    rows = []
    for rep in reports:
        print(
            f"  n={rep.n} max_abs_err={rep.max_abs_err():.3e} "
            f"max_imag={rep.max_imag_residue:.1e}",
            file=sys.stderr,
        )
        for e in rep.estimates:
            rows.append(
                [rep.n, _word_str(e.word), _fmt(e.empirical_cumulant),
                 _fmt(e.target_cumulant), _fmt(e.abs_err), _fmt(e.moment_std_err)]
            )
    return rows_as(args.format, header, rows)


def cmd_fock_verify(args) -> str:
    a1, a2 = _atom_laws(args)
    alphabet = Alphabet(("a1",), ("a2",))

    def jump_moment(w):
        p, q = w.count("a1"), w.count("a2")
        if args.shared:
            return a1.moment(p + q)
        return a1.moment(p) * a2.moment(q)

    # the W series and the targets read jump moments of length <= N only
    jump = MomentFunctional.from_function(alphabet, args.N, jump_moment)
    rows_out = verify_fock_cumulants(
        args.rate, jump, args.N, args.max_m, depth=args.depth
    )
    header = ["word", "chi", "omega_moment", "kappa_empirical", "kappa_target",
              "abs_err"]
    rows = []
    for r in rows_out:
        word = ["wl" if s == LEFT else "wr" for s in r.chi]
        rows.append(
            [_word_str(word), "".join(r.chi), _fmt(r.omega_moment),
             _fmt(r.kappa_empirical), _fmt(r.kappa_target), _fmt(r.abs_err)]
        )
    return rows_as(args.format, header, rows)


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bipoisson",
        description="Compound bi-free Poisson distributions: enumeration, "
        "transforms, and numerical models.",
    )
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None, help="output file (atomic write)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    sub = p.add_subparsers(dest="command", required=True)

    nc = sub.add_parser("nc", help="non-crossing partitions").add_subparsers(
        dest="action", required=True)
    q = nc.add_parser("list")
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(fn=cmd_nc_list)
    q = nc.add_parser("mobius")
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(fn=cmd_nc_mobius)

    bnc = sub.add_parser("bnc", help="bi-non-crossing partitions").add_subparsers(
        dest="action", required=True)
    q = bnc.add_parser("list")
    q.add_argument("--chi", required=True, help="side word over l/r, e.g. lrlr")
    q.set_defaults(fn=cmd_bnc_list)

    cum = sub.add_parser("cumulants").add_subparsers(dest="action", required=True)
    q = cum.add_parser("from-moments")
    q.add_argument("--in", dest="infile", required=True)
    q.set_defaults(fn=cmd_cumulants_from_moments)

    mom = sub.add_parser("moments").add_subparsers(dest="action", required=True)
    q = mom.add_parser("from-cumulants")
    q.add_argument("--in", dest="infile", required=True)
    q.set_defaults(fn=cmd_moments_from_cumulants)

    cbp = sub.add_parser("cbp", help="compound bi-free Poisson laws").add_subparsers(
        dest="action", required=True)
    q = cbp.add_parser("build")
    q.add_argument("--lambda", dest="rate", type=float, required=True)
    q.add_argument("--jump", required=True, help="jump-law moment table (JSON)")
    q.add_argument("--deg", type=int, default=None)
    q.set_defaults(fn=cmd_cbp_build)
    for name, fn in (("limit", cmd_cbp_limit), ("approx", cmd_cbp_approx)):
        q = cbp.add_parser(name)
        q.add_argument("--lambda", dest="rate", type=float, default=1.0)
        q.add_argument("--alpha", type=float, default=1.0)
        q.add_argument("--beta", type=float, default=1.0)
        q.add_argument("--sizes", default="8,16,32,64" if name == "limit"
                       else "2,4,8,16")
        q.add_argument("--deg", type=int, default=4)
        q.set_defaults(fn=fn)
    q = cbp.add_parser("psd")
    q.add_argument("--lambda", dest="rate", type=float, required=True)
    q.add_argument("--jump", required=True)
    q.add_argument("--deg", type=int, default=2)
    q.set_defaults(fn=cmd_cbp_psd)

    sim = sub.add_parser("simulate", help="random matrix models").add_subparsers(
        dest="action", required=True)
    for name in ("wishart", "bimatrix"):
        q = sim.add_parser(name)
        q.add_argument("--lambda", dest="rate", type=float, required=True)
        q.add_argument("--atoms", required=True, help="e.g. 1:0.5,2:0.5")
        if name == "bimatrix":
            q.add_argument("--right-atoms", default=None)
            q.add_argument("--shared", action="store_true",
                           help="left and right share one jump variable")
        q.add_argument("--sizes", default="32,64,128")
        q.add_argument("--trials", type=int, default=200)
        q.add_argument("--max-word", type=int, default=4)
        q.set_defaults(fn=cmd_simulate)

    fock = sub.add_parser("fock", help="truncated Fock-space model").add_subparsers(
        dest="action", required=True)
    q = fock.add_parser("verify")
    q.add_argument("--lambda", dest="rate", type=float, required=True)
    q.add_argument("--atoms", required=True)
    q.add_argument("--right-atoms", default=None)
    q.add_argument("--shared", action="store_true")
    q.add_argument("--N", type=int, required=True, help="series order")
    q.add_argument("--max-m", type=int, required=True)
    q.add_argument("--depth", type=int, default=None)
    q.set_defaults(fn=cmd_fock_verify)

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = args.fn(args)
        write_output(text, args.out)
    except CliError as exc:
        print(f"ERROR {exc.code}: {exc}", file=sys.stderr)
        return 2
    except (CapExceededError, MissingEntryError, ShapeMismatchError, ValueError) as exc:
        print(f"ERROR VALIDATION: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
