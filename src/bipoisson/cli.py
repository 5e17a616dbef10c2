"""Command-line harness: parsing, dispatch, rendering, the writers and the
partition commands; the numeric commands are in `reports`.

Data goes to --out (atomic write) or standard output; progress and errors
go to the error stream. Errors print a single machine-parsable line
``ERROR <CODE>: <message>`` and exit nonzero. With a fixed seed and config
every report is byte-identical across reruns.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache

# `partitions`, `reports`, json and csv are imported where they are
# used, so that each command compiles and loads only what it runs.
from .errors import DEFAULT_CAP, CliError, MissingEntryError

DEFAULT_SEED = 20240101
# The longest message an ERROR line prints whole; a longer one loses its middle
ERROR_ECHO = 256


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as CliError("USAGE"); subparsers share the class."""

    def error(self, message):
        raise CliError("USAGE", message)


# ---------------------------------------------------------------- io helpers


def write_output(text: str | Iterable[str], out_path: str | None) -> None:
    """Write a text, or a text's chunks in order, to stdout, or atomically
    (temp file + rename) to out_path; the temp file is removed on any
    error, including one raised by the chunks. A reader that closes
    standard output early, or a failed write to it, gives CliError("IO")."""
    chunks = (text,) if isinstance(text, str) else text
    if out_path is None:
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except OSError as exc:
            # What is still buffered goes to devnull, so that the flush at
            # exit does not raise again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            closed = isinstance(exc, BrokenPipeError)
            raise CliError("IO", "standard output closed" if closed
                           else f"cannot write standard output: {exc}") from None
        return
    import tempfile

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


# ------------------------------------------------------ partition commands


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
    from .partitions import nc_heads

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
    from .partitions import tail_mobius

    # mu -> the end of its row, kept for this command
    end = lru_cache(maxsize=None)('\n    ],\n    "mobius": {}\n  }}'.format)
    return _nc_stream(args.n, '{\n    "blocks": [', "\n      ",
                      lambda share, texts, *values: [
                          t + end(mu) for t, mu in zip(texts, tail_mobius(share, *values))])


def cmd_bnc_list(args) -> Iterator[str]:
    from .partitions import ChiShape, SetPartition, _block, nc_heads

    shape, pieces = ChiShape(tuple(args.chi)), _Pieces("[", "\n    ")
    if not 1 <= shape.n <= DEFAULT_CAP:
        raise CliError("VALIDATION",
                       f"--chi must have 1 to {DEFAULT_CAP} letters, got {shape.n}")
    blocks = (shape.apply(SetPartition(shape.n, head + t)).blocks
              for head, _, tail in nc_heads(shape.n, _block, _block) for t in tail[0])
    return partition_stream(
        (pieces.first(b[0]), ("".join(map(pieces.__getitem__, b[1:])) + "\n  ]",))
        for b in blocks)


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
    # fn names the command's function: here, or in `reports` for a numeric
    # command, which returns its report as data for `main` to render
    p.set_defaults(reads=())
    sub = p.add_subparsers(dest="command", required=True)

    def atom_flags(q, two_names=True, **atoms):
        """--atoms, and with two_names the rest of the group `reports._jump_law` reads"""
        q.add_argument("--atoms", **atoms, help="value:weight list, e.g. 1:0.5,2:0.5; "
                       "a leading negative atom is written --atoms=-2:1")
        if two_names:
            q.add_argument("--right-atoms", default=None)
            q.add_argument("--shared", action="store_true",
                           help="left and right share one jump variable")

    nc = sub.add_parser("nc", help="non-crossing partitions").add_subparsers(
        dest="action", required=True)
    for name in ("list", "mobius"):
        q = nc.add_parser(name)
        q.add_argument("--n", type=int, required=True)
        q.set_defaults(fn=f"cmd_nc_{name}")

    bnc = sub.add_parser("bnc", help="bi-non-crossing partitions").add_subparsers(
        dest="action", required=True)
    q = bnc.add_parser("list")
    q.add_argument("--chi", required=True, help="side word over l/r, e.g. lrlr")
    q.set_defaults(fn="cmd_bnc_list")

    cum = sub.add_parser("cumulants").add_subparsers(dest="action", required=True)
    q = cum.add_parser("from-moments")
    q.add_argument("--in", dest="infile", required=True)
    q.set_defaults(fn="cmd_cumulants_from_moments")

    mom = sub.add_parser("moments").add_subparsers(dest="action", required=True)
    q = mom.add_parser("from-cumulants")
    q.add_argument("--in", dest="infile", required=True)
    q.set_defaults(fn="cmd_moments_from_cumulants")

    cbp = sub.add_parser("cbp", help="compound bi-free Poisson laws").add_subparsers(
        dest="action", required=True)
    q = cbp.add_parser("build")
    q.add_argument("--lambda", dest="rate", type=float, required=True)
    q.add_argument("--jump", required=True, help="jump-law moment table (JSON)")
    q.add_argument("--deg", type=int, default=None)
    q.set_defaults(fn="cmd_cbp_build")
    for name in ("limit", "approx"):
        q = cbp.add_parser(name)
        q.add_argument("--lambda", dest="rate", type=float, default=1.0)
        atom_flags(q, default="1:1")
        q.add_argument("--sizes", default="8,16,32,64" if name == "limit"
                       else "2,4,8,16")
        q.add_argument("--deg", type=int, default=4)
        q.set_defaults(fn="cmd_cbp_series", reads=("format",))
    q = cbp.add_parser("psd")
    q.add_argument("--lambda", dest="rate", type=float, required=True)
    q.add_argument("--jump", required=True)
    q.add_argument("--deg", type=int, default=2)
    q.set_defaults(fn="cmd_cbp_psd")

    sim = sub.add_parser("simulate", help="random matrix models").add_subparsers(
        dest="action", required=True)
    for name in ("wishart", "bimatrix"):
        q = sim.add_parser(name)
        q.add_argument("--lambda", dest="rate", type=float, required=True)
        atom_flags(q, name == "bimatrix", required=True)
        q.add_argument("--sizes", default="32,64,128")
        q.add_argument("--trials", type=int, default=200)
        q.add_argument("--max-word", type=int, default=4)
        q.set_defaults(fn="cmd_simulate", reads=("seed", "format"))

    fock = sub.add_parser("fock", help="truncated Fock-space model").add_subparsers(
        dest="action", required=True)
    q = fock.add_parser("verify")
    q.add_argument("--lambda", dest="rate", type=float, required=True)
    atom_flags(q, required=True)
    q.add_argument("--N", type=int, required=True, help="series order")
    q.add_argument("--max-m", type=int, required=True)
    q.add_argument("--depth", type=int, default=None)
    q.set_defaults(fn="cmd_fock_verify", reads=("format",))

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
        if command := globals().get(args.fn):
            text = command(args)
        else:
            # before numpy, which a command imports where it runs, so that
            # compiling `reports` adds nothing to the peak of numpy's import
            from . import reports

            report = getattr(reports, args.fn)(args)
            if isinstance(report, dict):
                text = json_text(report)
            elif args.format == "csv":
                text = csv_text(*report)
            else:  # one object per row
                text = json_text([dict(zip(report[0], r)) for r in report[1]])
        write_output(text, args.out)
    except (CliError, MissingEntryError, ValueError) as exc:
        text = str(exc)
        if len(text) > ERROR_ECHO:  # an echoed input: keep its head and tail
            text = text[:ERROR_ECHO - 80] + "…" + text[-79:]
        code = exc.code if isinstance(exc, CliError) else "VALIDATION"
        print(f"ERROR {code}: {text}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
