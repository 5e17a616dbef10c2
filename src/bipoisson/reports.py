"""The numeric commands: the word-table schema, the report rows, and the
commands that compute in floating point (`cumulants`, `moments`, `cbp`,
`simulate`, `fock`).

`cli.main` imports this module only to run one of these commands, and
before numpy, so the partition commands never compile it. The numerical
modules, numpy and json are imported where they are used.
"""

from __future__ import annotations

import math
import sys

from .cli import csv_text, json_text
from .errors import CapExceededError, CliError, MissingEntryError

# ---------------------------------------------------------------- report rows


def _fmt(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise CliError("NUMERIC", f"non-finite value {x} in the output")
    return f"{x:.17g}"


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
