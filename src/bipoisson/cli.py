"""Command-line harness: enumeration, transforms, models, and reports.

Data goes to --out (atomic write) or standard output; progress and errors
go to the error stream. Errors print a single machine-parsable line
``ERROR <CODE>: <message>`` and exit nonzero. With a fixed seed and config
every report is byte-identical across reruns.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
import tempfile
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache

# The numerical modules, numpy, json and csv are imported where they are
# used, so that the partition commands start without them.
from .errors import DEFAULT_CAP, CapExceededError, MissingEntryError
from .partitions import ChiShape, SetPartition, _block, nc_heads, tail_mobius

DEFAULT_SEED = 20240101


class CliError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as CliError("USAGE"); subparsers share the class."""

    def error(self, message):
        raise CliError("USAGE", message)


# ---------------------------------------------------------------- io helpers


def _fmt(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise CliError("NUMERIC", f"non-finite value {x} in the output")
    return f"{x:.17g}"


def write_output(text: str | Iterable[str], out_path: str | None) -> None:
    """Write a text, or a text's chunks in order, to stdout, or atomically
    (temp file + rename) to out_path; the temp file is removed on any
    error, including one raised by the chunks. A reader that closes
    standard output early gives CliError("IO")."""
    chunks = (text,) if isinstance(text, str) else text
    if out_path is None:
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except BrokenPipeError:
            # What is still buffered goes to devnull, so that the flush at
            # exit does not raise again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise CliError("IO", "standard output closed") from None
        return
    d = os.path.dirname(os.path.abspath(out_path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-report-")
        with os.fdopen(fd, "w") as f:
            f.writelines(chunks)
        os.replace(tmp, out_path)
    except OSError as exc:
        raise CliError("IO", f"cannot write {out_path}: {exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def csv_text(header: list[str], rows: list[list]) -> str:
    import csv

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for r in rows:
        w.writerow(r)
    return buf.getvalue()


def json_text(obj) -> str:
    """`json.dumps(obj, indent=2) + "\\n"`; a non-finite float raises
    CliError("NUMERIC") where `json.dumps` would write NaN or Infinity."""
    import json

    try:
        return json.dumps(obj, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise CliError("NUMERIC", str(exc)) from exc


def rows_as(fmt: str, header: list[str], rows: list[list]) -> str:
    if fmt == "csv":
        return csv_text(header, rows)
    return json_text([dict(zip(header, r)) for r in rows])


# ------------------------------------------------------------- table schema


def table_to_json(table) -> dict:
    """Serialize a word table with side tags made explicit."""
    alphabet = table.alphabet
    words = sorted(table.values.items(), key=lambda e: (len(e[0]), e[0]))
    entries = [{"word": [[name, alphabet.side_of(name)] for name in word], "value": value}
               for word, value in words]
    return {
        "schema": 1,
        "alphabet": {"left": list(alphabet.left), "right": list(alphabet.right)},
        "degree_cap": table.degree_cap,
        "entries": entries,
    }


def table_from_json(obj, cls):
    import json

    from .cumulants import Alphabet

    try:
        if not isinstance(obj, dict):
            raise CliError("TABLE_PARSE", "a table must be a JSON object")
        schema = obj.get("schema")
        if type(schema) is not int or schema != 1:
            raise CliError("TABLE_PARSE", f"unsupported schema {json.dumps(schema)}")
        if not isinstance(obj["alphabet"], dict):
            raise CliError("TABLE_PARSE", "alphabet must be an object")
        sides = obj["alphabet"]["left"], obj["alphabet"].get("right", [])
        if not all(type(s) is list and all(type(x) is str for x in s) for s in sides):
            raise CliError("TABLE_PARSE", "each alphabet side must be a list of names")
        alphabet = Alphabet(*map(tuple, sides))
        cap = obj["degree_cap"]
        if type(cap) is not int or cap < 0:
            raise CliError(
                "TABLE_PARSE", f"degree_cap must be an integer >= 0, got {json.dumps(cap)}"
            )
        values = {}
        entries = obj["entries"]
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise CliError("TABLE_PARSE", "entries must be a list of objects")
        for entry in entries:
            letters = entry["word"]
            if type(letters) is not list:
                raise CliError("TABLE_PARSE",
                               f"word {json.dumps(letters)} is not a list of letters")
            for letter in letters:
                if type(letter) is not list or len(letter) != 2:
                    raise CliError("TABLE_PARSE",
                                   f"letter {json.dumps(letter)} is not a [name, side] pair")
                name, side = letter
                if alphabet.side_of(name) != side:
                    raise CliError(
                        "TABLE_PARSE", f"side tag {side!r} wrong for variable {name!r}"
                    )
            word = tuple(name for name, _ in letters)
            value = entry["value"]
            if type(value) not in (int, float):
                raise CliError("TABLE_PARSE", f"value {json.dumps(value)} is not a number")
            if word in values:
                raise CliError("TABLE_PARSE", f"duplicate entry for word {word!r}")
            if len(word) > cap:
                raise CliError(
                    "TABLE_PARSE", f"entry {word!r} longer than degree_cap {cap}"
                )
            values[word] = float(value)

        def entry(w):
            if w not in values:
                raise MissingEntryError(f"dense table missing entry for word {w!r}")
            return values[w]

        return cls.from_function(alphabet, cap, entry)
    except (CliError, CapExceededError):
        raise
    except (MissingEntryError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise CliError("TABLE_PARSE", f"malformed table: {exc}") from exc
    except KeyError as exc:  # a plain KeyError is a lookup of an absent key
        raise CliError("TABLE_PARSE", f"missing key {json.dumps(exc.args[0])}") from exc


def load_table(path: str, cls):
    import json

    try:
        with open(path) as f:
            obj = json.load(f)
    except OSError as exc:
        raise CliError("TABLE_PARSE", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError("TABLE_PARSE", f"invalid JSON in {path}: {exc}") from exc
    return table_from_json(obj, cls)


def parse_atoms(text: str) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Parse 'atom:weight,atom:weight' into (atoms, weights); the law they
    form checks them."""
    try:
        atoms, weights = [], []
        for part in text.split(","):
            a, w = part.split(":")
            atoms.append(float(a))
            weights.append(float(w))
    except ValueError as exc:
        raise CliError("VALIDATION", f"bad atom law {text!r}: {exc}") from exc
    return tuple(atoms), tuple(weights)


def parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise CliError("VALIDATION", f"bad integer list {text!r}") from exc
    if max(map(abs, sizes)) > sys.float_info.max:
        raise CliError("VALIDATION", "--sizes holds a size past the float range")
    return sizes


# ------------------------------------------------------- convergence series


def emit_convergence_series(words: list[str], points, fmt: str) -> str:
    """Long-format (N, word, value, reference, abs_err) rows from points
    (N, value row, reference row), each row over `words`, plus a fitted
    log-log slope of the per-N maximum error; slope blank with a flag when
    fewer than two points are available."""
    import numpy as np

    sizes = [n for n, _, _ in points]
    errs = [np.abs(np.subtract(value, ref)) for _, value, ref in points]
    max_errs = [err.max() for err in errs]
    if len(sizes) >= 2 and min(max_errs) > 0:
        slope = float(np.polyfit(np.log(sizes), np.log(max_errs), 1)[0])
        slope_str, flag = _fmt(slope), ""
    else:
        slope_str, flag = "", "slope_omitted"
    header = ["N", "word", "value", "reference", "abs_err", "slope", "flag"]
    rows = []
    for (n, value, ref), err in zip(points, errs):
        for word, *values in zip(words, value, ref, err):
            rows.append([n, word, *map(_fmt, values), slope_str, flag])
    return rows_as(fmt, header, rows)


def _word_str(word) -> str:
    return ".".join(word)


# ------------------------------------------------------------- subcommands


# Rows rendered into one chunk of `partition_stream`
JSON_BATCH = 1024


class _Pieces(dict):
    """Block -> `"," + nl + its JSON text` at the block indent `nl`, kept for
    one command; `first(block)` puts a row's separator and opening in place
    of the ","."""

    def __init__(self, opening: str, nl: str):
        self.nl, self.head = nl, ",\n  " + opening

    def __missing__(self, b):
        nl = self.nl
        text = self[b] = f",{nl}[{nl}  " + f",{nl}  ".join(map(str, b)) + f"{nl}]"
        return text

    def first(self, b) -> str:
        return self.head + self[b][1:]


def partition_stream(heads: Iterable[tuple[str, Sequence[str]]]) -> Iterator[str]:
    """The JSON array of the rows `head + text`, for each (head, texts) in
    order and each text in texts, read lazily in chunks of exactly JSON_BATCH
    rows but the last, so the full text never exists at once. A head's rows
    are one `head.join`, cut where a chunk ends. Heads start with ",", and
    the first row's gives way to the array's "["."""
    out, room, first = [], JSON_BATCH, True
    for head, texts in heads:
        while len(texts) >= room:
            out += head, head.join(texts[:room])
            if first:
                out[0], first = "[" + out[0][1:], False
            yield "".join(out)
            out.clear()
            texts, room = texts[room:], JSON_BATCH
        if texts:
            out += head, head.join(texts)
            room -= len(texts)
    out.append("\n]\n")
    if first:  # also for no rows: "[]\n"
        out[0] = "[" + out[0][1:]
    yield "".join(out)


def _nc_stream(n: int, opening: str, nl: str, ends) -> Iterator[str]:
    """`partition_stream` of NC(n) in the row form `_Pieces(opening, nl)`, a
    head at a time. The texts after a head, `ends(share, *tail)` (each tail
    and its row end), are made once per (tail, share) and kept for the
    command if the tail has at most JSON_BATCH rows; a larger tail's are
    made JSON_BATCH at a time, as they are written."""
    pieces, kept = _Pieces(opening, nl), {}
    heads = nc_heads(n, pieces.__getitem__, pieces.first)  # checks n now, before any byte

    def rows():
        for head, share, tail in heads:
            key = id(tail), share  # the heads' memo keeps each tail, and its id, alive
            texts = kept.get(key)
            if texts is None:
                if len(tail[0]) > JSON_BATCH:
                    for s in range(0, len(tail[0]), JSON_BATCH):
                        yield head, ends(share, *(c[s:s + JSON_BATCH] for c in tail))
                    continue
                texts = kept[key] = ends(share, *tail)
            yield head, texts

    return partition_stream(rows())


# The partition commands return chunks rendered while they are written; their
# input is checked when the rows are made, so any error comes before a byte.


def cmd_nc_list(args) -> Iterator[str]:
    return _nc_stream(args.n, "[", "\n    ",
                      lambda share, texts, *_: [t + "\n  ]" for t in texts])


def cmd_nc_mobius(args) -> Iterator[str]:
    # mu -> the end of its row, kept for this command
    end = lru_cache(maxsize=None)('\n    ],\n    "mobius": {}\n  }}'.format)
    return _nc_stream(args.n, '{\n    "blocks": [', "\n      ",
                      lambda share, texts, *values: [
                          t + end(mu) for t, mu in zip(texts, tail_mobius(share, *values))])


def cmd_bnc_list(args) -> Iterator[str]:
    shape, pieces = ChiShape(tuple(args.chi)), _Pieces("[", "\n    ")
    if not 1 <= shape.n <= DEFAULT_CAP:
        raise CliError("VALIDATION",
                       f"--chi must have 1 to {DEFAULT_CAP} letters, got {shape.n}")
    blocks = (shape.apply(SetPartition(shape.n, head + t)).blocks
              for head, _, tail in nc_heads(shape.n, _block, _block) for t in tail[0])
    return partition_stream(
        (pieces.first(b[0]), ("".join(map(pieces.__getitem__, b[1:])) + "\n  ]",))
        for b in blocks)


def cmd_cumulants_from_moments(args) -> str:
    from .cumulants import MomentFunctional, kappa_from_moments

    phi = load_table(args.infile, MomentFunctional)
    return json_text(table_to_json(kappa_from_moments(phi)))


def cmd_moments_from_cumulants(args) -> str:
    from .cumulants import CumulantTable, moments_from_kappa

    kappa = load_table(args.infile, CumulantTable)
    return json_text(table_to_json(moments_from_kappa(kappa)))


def _truncate(table, cls, deg: int):
    if not 0 <= deg <= table.degree_cap:
        raise CliError("VALIDATION",
                       f"degree {deg} outside [0, {table.degree_cap}], the table cap")
    return cls.from_function(table.alphabet, deg, table)


def cmd_cbp_build(args) -> str:
    from .cumulants import MomentFunctional, moments_from_kappa
    from .poisson import CbpSpec, cbp_cumulants

    jump = load_table(args.jump, MomentFunctional)
    if args.deg is not None:
        jump = _truncate(jump, MomentFunctional, args.deg)
    kappa = cbp_cumulants(CbpSpec(args.rate, jump))
    return json_text(
        {
            "schema": 1,
            "rate": args.rate,
            "cumulants": table_to_json(kappa),
            "moments": table_to_json(moments_from_kappa(kappa)),
        }
    )


def cmd_cbp_series(args) -> str:
    """The law with rate --lambda whose jump is the point mass (--alpha,
    --beta), against the moments of the N-fold bi-free sum (`limit`) or the
    cumulants of P(n, nu_{1/n}) (`approx`) at each size."""
    from .cumulants import Alphabet, all_words
    from .poisson import (CbpSpec, JumpLaw, cbp_cumulants, cbp_moments,
                          limit_theorem_moments, poisson_approximation)

    if args.deg < 1:
        raise CliError("VALIDATION", f"--deg must be >= 1, got {args.deg}")
    sizes = parse_sizes(args.sizes)
    if len(set(sizes)) < len(sizes):
        # the slope is a fit over distinct sizes
        raise CliError("VALIDATION", f"--sizes must not repeat a size: {args.sizes}")
    jump = JumpLaw(Alphabet(("zl",), ("zr",)), ((args.alpha, args.beta),),
                   (1.0,)).moments(args.deg)
    spec = CbpSpec(args.rate, jump)
    if args.action == "limit":
        ref = cbp_moments(spec)
        approx = [limit_theorem_moments(spec, n) for n in sizes]
    else:
        ref = cbp_cumulants(spec)
        approx = [poisson_approximation(ref, n) for n in sizes]
    points = [(n, table.row, ref.row) for n, table in zip(sizes, approx)]
    words = [_word_str(w) for w in all_words(jump.alphabet, args.deg)]
    return emit_convergence_series(words, points, args.format)


def cmd_cbp_psd(args) -> str:
    from .cumulants import MomentFunctional
    from .poisson import CbpSpec, cbp_moments, psd_check

    jump = load_table(args.jump, MomentFunctional)
    ok, min_eig = psd_check(cbp_moments(CbpSpec(args.rate, jump)), args.deg)
    return json_text(
        {"schema": 1, "degree": args.deg, "psd": bool(ok), "min_eigenvalue": min_eig}
    )


def _jump_law(args, left: str, right: str):
    """The joint law of the left and right jump variables: those of --atoms
    and --right-atoms (the left law when absent) independent, or under
    --shared one variable, the diagonal law {(x, x)}, which requires the two
    laws to be equal."""
    from .cumulants import Alphabet
    from .poisson import JumpLaw

    law = parse_atoms(args.atoms)
    right_law = parse_atoms(args.right_atoms) if args.right_atoms else law
    alphabet = Alphabet((left,), (right,))
    if not args.shared:
        return JumpLaw.independent(alphabet, (law, right_law))
    if right_law != law:
        raise CliError("VALIDATION", "--shared requires identical atom laws")
    atoms, weights = law
    return JumpLaw(alphabet, tuple((a, a) for a in atoms), weights)


def cmd_simulate(args) -> str:
    import numpy as np

    from .cumulants import Alphabet, all_words
    from .matrix_models import EnsembleSpec, estimate_empirical_cumulants
    from .poisson import JumpLaw, cbp_cumulants

    if args.action == "bimatrix":
        jump = _jump_law(args, "zl", "zr")
    else:
        jump = JumpLaw.independent(Alphabet(("z",)), (parse_atoms(args.atoms),))
    spec = EnsembleSpec(
        rate=args.rate,
        jump=jump,
        sizes=parse_sizes(args.sizes),
        trials=args.trials,
        seed=args.seed,
        max_word_len=args.max_word,
    )
    print(f"simulating sizes {spec.sizes}, {spec.trials} trials", file=sys.stderr)
    target = cbp_cumulants(spec.law).row
    reports = estimate_empirical_cumulants(spec)
    words = [_word_str(w) for w in all_words(spec.alphabet, spec.max_word_len)]
    header = ["n", "word", "empirical", "target", "abs_err", "std_err"]
    rows = []
    for rep in reports:
        err = np.abs(rep.cumulants - target)
        print(
            f"  n={rep.n} max_abs_err={err.max():.3e} "
            f"max_imag={rep.max_imag_residue:.1e}",
            file=sys.stderr,
        )
        for word, *values in zip(words, rep.cumulants, target, err, rep.moment_se):
            rows.append([rep.n, word, *map(_fmt, values)])
    return rows_as(args.format, header, rows)


def cmd_fock_verify(args) -> str:
    import numpy as np

    from .cumulants import all_words
    from .fock import verify_fock_cumulants
    from .poisson import CbpSpec, cbp_cumulants

    law = cbp_cumulants(CbpSpec(args.rate, _jump_law(args, "a1", "a2").moments(args.N)))
    phi, kappa, target = verify_fock_cumulants(law, args.max_m, depth=args.depth)
    header = ["word", "chi", "omega_moment", "kappa_empirical", "kappa_target",
              "abs_err"]
    rows = []
    words = all_words(phi.alphabet, args.max_m)
    err = np.abs(kappa.row - target)
    for w, *values in zip(words, phi.row, kappa.row, target, err):
        chi = "".join(phi.alphabet.sides_of(w))
        rows.append([_word_str(w), chi, *map(_fmt, values)])
    return rows_as(args.format, header, rows)


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="bipoisson",
        description="Compound bi-free Poisson distributions: enumeration, "
        "transforms, and numerical models.",
    )
    # --seed and --format are an error for a command that does not read them
    p.add_argument("--seed", type=int, default=None, help="simulate only")
    p.add_argument("--out", default=None, help="output file (atomic write)")
    p.add_argument("--format", choices=("csv", "json"), default=None,
                   help="csv (default) or json: simulate, fock verify, "
                   "cbp limit/approx only")
    # numeric: the command computes in floating point, under np.errstate
    p.set_defaults(reads=(), numeric=True)
    sub = p.add_subparsers(dest="command", required=True)

    nc = sub.add_parser("nc", help="non-crossing partitions").add_subparsers(
        dest="action", required=True)
    for name, fn in (("list", cmd_nc_list), ("mobius", cmd_nc_mobius)):
        q = nc.add_parser(name)
        q.add_argument("--n", type=int, required=True)
        q.set_defaults(fn=fn, numeric=False)

    bnc = sub.add_parser("bnc", help="bi-non-crossing partitions").add_subparsers(
        dest="action", required=True)
    q = bnc.add_parser("list")
    q.add_argument("--chi", required=True, help="side word over l/r, e.g. lrlr")
    q.set_defaults(fn=cmd_bnc_list, numeric=False)

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
    for name in ("limit", "approx"):
        q = cbp.add_parser(name)
        q.add_argument("--lambda", dest="rate", type=float, default=1.0)
        q.add_argument("--alpha", type=float, default=1.0)
        q.add_argument("--beta", type=float, default=1.0)
        q.add_argument("--sizes", default="8,16,32,64" if name == "limit"
                       else "2,4,8,16")
        q.add_argument("--deg", type=int, default=4)
        q.set_defaults(fn=cmd_cbp_series, reads=("format",))
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
        q.set_defaults(fn=cmd_simulate, reads=("seed", "format"))

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
    q.set_defaults(fn=cmd_fock_verify, reads=("format",))

    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for name, default in (("seed", DEFAULT_SEED), ("format", "csv")):
            if getattr(args, name) is None:
                setattr(args, name, default)
            elif name not in args.reads:
                raise CliError("USAGE", f"--{name} does nothing for "
                               f"{args.command} {args.action}")
        if args.numeric:
            import numpy as np

            with np.errstate(all="ignore"):  # overflow is caught as a non-finite value
                text = args.fn(args)
        else:
            text = args.fn(args)
        write_output(text, args.out)
    except CliError as exc:
        print(f"ERROR {exc.code}: {exc}", file=sys.stderr)
        return 2
    except (MissingEntryError, ValueError) as exc:
        print(f"ERROR VALIDATION: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
