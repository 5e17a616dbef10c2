"""Command-line harness: subcommand outputs, JSON table round trips,
error paths with machine-parsable codes, determinism of seeded reports,
and the convergence-series emitter."""

import ast
import errno
import io
import json
import math
import os
import shlex
import subprocess
import sys
import textwrap
import weakref
from collections import namedtuple
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import bipoisson
from bipoisson import cli
from bipoisson.cli import JSON_BATCH, CliError, json_text, main, partition_stream
from bipoisson.reports import (
    emit_convergence_series,
    parse_atoms,
    table_from_json,
    table_to_json,
)
from bipoisson.cumulants import Alphabet, CumulantTable, MomentFunctional, all_words
from bipoisson.errors import ShapeMismatchError
from bipoisson.partitions import ChiShape, mobius_nc_one
from bipoisson import partitions, poisson
from bipoisson.poisson import JOINT_ATOM_BUDGET, JumpLaw
from oracles import nc_partitions


# a uniform law whose product with itself is past the joint atom budget
WIDE_SIDE = math.isqrt(JOINT_ATOM_BUDGET) + 1
WIDE_LAW = ",".join(f"{i}:{1 / WIDE_SIDE}" for i in range(WIDE_SIDE))


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def sample_table(tmp_path, cap=3):
    a = Alphabet(("z1",), ("u1",))
    phi = MomentFunctional.from_function(
        a, cap, lambda w: 0.5 ** len(w) + 0.1 * w.count("u1")
    )
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table_to_json(phi)))
    return phi, str(path)


class TestEnumeration:
    def test_nc_list_count(self, capsys):
        code, out, _ = run(["nc", "list", "--n", "3"], capsys)
        assert code == 0
        assert len(json.loads(out)) == 5

    def test_nc_mobius_values(self, capsys):
        code, out, _ = run(["nc", "mobius", "--n", "3"], capsys)
        rows = json.loads(out)
        full = next(r for r in rows if len(r["blocks"]) == 1)
        assert full["mobius"] == 1
        singletons = next(r for r in rows if len(r["blocks"]) == 3)
        assert singletons["mobius"] == 2

    def test_bnc_list(self, capsys):
        code, out, _ = run(["bnc", "list", "--chi", "lrlr"], capsys)
        assert code == 0
        assert len(json.loads(out)) == 14

    def test_bnc_bad_chi(self, capsys):
        code, _, err = run(["bnc", "list", "--chi", "lrx"], capsys)
        assert code == 2
        assert err.startswith("ERROR VALIDATION")

    def test_bad_chi_message_does_not_depend_on_hash_seed(self):
        src = Path(bipoisson.__file__).resolve().parents[1]
        errs = {
            subprocess.run(
                [sys.executable, "-m", "bipoisson.cli", "bnc", "list", "--chi", "lRxL"],
                env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed),
                capture_output=True, text=True, timeout=120,
            ).stderr
            for seed in ("1", "2")
        }
        assert errs == {"ERROR VALIDATION: unknown side tags {'L', 'R', 'x'}\n"}

    @pytest.mark.parametrize("args", [["nc", "mobius", "--n", "13"],
                                      ["nc", "list", "--n", "0"],
                                      ["bnc", "list", "--chi", "lrx"]])
    def test_invalid_input_writes_nothing(self, capsys, args):
        # the output is streamed, so every check comes before the first byte
        code, out, err = run(args, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("ERROR VALIDATION: ")
        assert err.count("\n") == 1


json_scalars = (
    st.integers()
    | st.booleans()
    | st.none()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)
Pair = namedtuple("Pair", "first second")


class Row(list):
    pass


json_values = st.recursive(
    json_scalars,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.builds(Pair, inner, inner)
        | st.lists(inner, max_size=4).map(Row)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    ),
    max_leaves=20,
)


class TestJsonText:
    @given(json_values)
    @settings(max_examples=300)
    def test_matches_json_dumps(self, obj):
        try:
            expected = json.dumps(obj, indent=2, allow_nan=False) + "\n"
        except ValueError:  # a NaN or an infinity
            with pytest.raises(CliError) as exc:
                json_text(obj)
            assert exc.value.code == "NUMERIC"
        else:
            assert json_text(obj) == expected

    @pytest.mark.parametrize("size", [0, 1, JSON_BATCH, JSON_BATCH + 1])
    def test_iterator_streams_in_batches(self, size):
        # the partition renderer, in both of its row forms
        blocks = ([((1, 2), (3,)), ((1,), (2, 3))] * (size // 2)
                  + [((1, 2, 3),)] * (size % 2))
        mobius = [-1, 1] * (size // 2) + [2] * (size % 2)
        items = [{"blocks": b, "mobius": mu} for b, mu in zip(blocks, mobius)]

        def rows(pieces, row_tails):  # a head and one row text per partition
            return ((pieces.first(p[0]), ("".join(map(pieces.__getitem__, p[1:])) + t,))
                    for p, t in zip(blocks, row_tails))

        # each command's pieces and row ends, made here as the command makes them
        list_pieces = cli._Pieces("[", "\n    ")
        mobius_pieces = cli._Pieces('{\n    "blocks": [', "\n      ")
        mobius_ends = map('\n    ],\n    "mobius": {}\n  }}'.format, mobius)
        for chunks, expected in (
                (partition_stream(rows(list_pieces, ["\n  ]"] * size)), blocks),
                (partition_stream(rows(mobius_pieces, mobius_ends)), items)):
            chunks = list(chunks)
            assert len(chunks) == size // JSON_BATCH + 1
            assert "".join(chunks) == json.dumps(expected, indent=2) + "\n"

    @pytest.mark.parametrize("n", range(1, 12))
    def test_nc_commands_match_json_dumps(self, n, capsys):
        pis = nc_partitions(n)
        _, out, _ = run(["nc", "list", "--n", str(n)], capsys)
        blocks = [[list(b) for b in p.blocks] for p in pis]
        assert out == json.dumps(blocks, indent=2) + "\n"
        _, out, _ = run(["nc", "mobius", "--n", str(n)], capsys)
        rows = [{"blocks": b, "mobius": mobius_nc_one(p)} for b, p in zip(blocks, pis)]
        assert out == json.dumps(rows, indent=2) + "\n"

    @pytest.mark.parametrize("batch", [1, 2, 3, 5])
    def test_partition_commands_cut_chunks_at_batch(self, batch, monkeypatch):
        # a head's rows are cut where a chunk ends, and a tail range of more
        # than a batch is rendered a slice at a time: every chunk but the
        # last holds exactly `batch` rows, at each n and in each row form
        monkeypatch.setattr(cli, "JSON_BATCH", batch)
        for n in range(1, 8):
            pis = nc_partitions(n)
            blocks = [[list(b) for b in p.blocks] for p in pis]
            s = ChiShape(tuple("lrlrlrl"[:n])).s_chi
            expected = {
                ("nc", "list", "--n", str(n)): blocks,
                ("nc", "mobius", "--n", str(n)): [
                    {"blocks": b, "mobius": mobius_nc_one(p)} for b, p in zip(blocks, pis)],
                ("bnc", "list", "--chi", "lrlrlrl"[:n]): [
                    sorted(sorted(s[x - 1] for x in b) for b in p.blocks) for p in pis],
            }
            for argv, rows in expected.items():
                args = cli.build_parser().parse_args(argv)
                chunks = list(getattr(cli, args.fn)(args))
                assert "".join(chunks) == json.dumps(rows, indent=2) + "\n"
                assert len(chunks) == len(rows) // batch + 1
                row_start = "\n  {" if argv[1] == "mobius" else "\n  ["
                assert [c.count(row_start) for c in chunks] == (
                    [batch] * (len(rows) // batch) + [len(rows) % batch])

    @pytest.mark.parametrize("action", ["list", "mobius"])
    def test_repeat_nc_command_adds_no_memo_entries(self, action, capsys, monkeypatch):
        # each run makes one memo of its own, which reference counting frees
        # as the run ends: the process keeps no entries, however often it runs
        memos, init = [], partitions._Ranges.__init__

        def spy(memo, piece):
            memos.append(weakref.ref(memo))
            init(memo, piece)

        monkeypatch.setattr(partitions._Ranges, "__init__", spy)
        for _ in range(2):
            assert run(["nc", action, "--n", "7"], capsys)[0] == 0
            assert memos[-1]() is None
        assert len(memos) == 2

    @pytest.mark.parametrize("action", ["list", "mobius"])
    def test_nc_ground_set_is_streamed_not_memoized(self, action, capsys, monkeypatch):
        # the command's memo builds each nonempty sub-range lo..hi-1 of 2..n
        # once, and never 1..n, which is streamed; gap shares are made for
        # the gap ranges, which end before n, and for no other range
        n, built, build = 8, [], partitions._Ranges.__missing__

        def spy(memo, key):
            built.append(key)
            return build(memo, key)

        monkeypatch.setattr(partitions._Ranges, "__missing__", spy)
        assert run(["nc", action, "--n", str(n)], capsys)[0] == 0
        assert sorted(key for key in built if key[0] != "gap" and key[0] < key[1]) == [
            (lo, hi) for lo in range(2, n + 1) for hi in range(lo + 1, n + 2)]
        assert sorted(key[1:] for key in built if key[0] == "gap") == [
            (lo, hi) for lo in range(2, n) for hi in range(lo + 1, n + 1)]

    @pytest.mark.parametrize("chi", ["l", "r", "lr", "rl", "lrlr", "llrrl", "rrrrrrrr",
                                     "lrlrlrlrlr", "rlrrllrlrl"])
    def test_bnc_list_matches_json_dumps(self, chi, capsys):
        _, out, _ = run(["bnc", "list", "--chi", chi], capsys)
        # s_chi o pi for each pi of NC(n), mapped here rather than by the library
        s = ChiShape(tuple(chi)).s_chi
        blocks = [sorted(sorted(s[x - 1] for x in b) for b in p.blocks)
                  for p in nc_partitions(len(chi))]
        assert out == json.dumps(blocks, indent=2) + "\n"


class TestTables:
    def test_json_roundtrip(self, tmp_path):
        phi, path = sample_table(tmp_path)
        back = table_from_json(json.loads(Path(path).read_text()), MomentFunctional)
        for w in all_words(phi.alphabet, phi.degree_cap):
            assert back(w) == phi(w)

    def test_transform_inverse_pair(self, tmp_path, capsys):
        phi, path = sample_table(tmp_path)
        out1 = tmp_path / "kappa.json"
        code, _, _ = run(
            ["--out", str(out1), "cumulants", "from-moments", "--in", path], capsys
        )
        assert code == 0
        out2 = tmp_path / "phi.json"
        code, _, _ = run(
            ["--out", str(out2), "moments", "from-cumulants", "--in", str(out1)],
            capsys,
        )
        assert code == 0
        back = table_from_json(json.loads(out2.read_text()), MomentFunctional)
        for w in all_words(phi.alphabet, phi.degree_cap):
            assert back(w) == pytest.approx(phi(w), abs=1e-12)

    def test_malformed_table_exits_with_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(
            ["cbp", "build", "--lambda", "1", "--jump", str(bad)], capsys
        )
        assert code == 2
        assert err.startswith("ERROR TABLE_PARSE")

    def test_wrong_side_tag_rejected(self, tmp_path, capsys):
        obj = {
            "schema": 1,
            "alphabet": {"left": ["z"], "right": []},
            "degree_cap": 1,
            "entries": [{"word": [["z", "r"]], "value": 1.0}],
        }
        bad = tmp_path / "tag.json"
        bad.write_text(json.dumps(obj))
        code, _, err = run(
            ["cumulants", "from-moments", "--in", str(bad)], capsys
        )
        assert code == 2
        assert "TABLE_PARSE" in err

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([{"word": [["z", "l"]], "value": 0.5},
              {"word": [["z", "l"]], "value": 0.9}], "duplicate entry"),
            ([{"word": [["z", "l"]], "value": math.nan}], "non-finite"),
            ([{"word": [["z", "l"]], "value": 0.5},
              {"word": [["z", "l"], ["z", "l"]], "value": 0.9}], "degree_cap"),
            ([{"word": [["z", "l"]], "value": True}], "value true is not a number"),
            ([{"word": [["z", "l"]], "value": "1e3"}], 'value "1e3" is not a number'),
            ([{"word": [["z", "l"]], "value": 10 ** 400}], "too large"),
            ([{"word": ["zl"], "value": 0.5}], 'letter "zl" is not a [name, side] pair'),
            ([{"word": [["z", "l", 3]], "value": 0.5}],
             'letter ["z", "l", 3] is not a [name, side] pair'),
            ({"x": 1}, "entries must be a list of objects"),
            ([{"word": 5, "value": 0.5}], "word 5 is not a list of letters"),
            ([{"word": [["z", "l"]]}], 'missing key "value"'),
        ],
        ids=["duplicate", "nan", "over_cap", "bool_value", "string_value",
             "huge_int_value", "string_letter", "triple_letter", "dict_entries",
             "int_word", "no_value"],
    )
    def test_bad_entries_rejected(self, tmp_path, capsys, entries, message):
        obj = {
            "schema": 1,
            "alphabet": {"left": ["z"], "right": []},
            "degree_cap": 1,
            "entries": entries,
        }
        bad = tmp_path / "entries.json"
        bad.write_text(json.dumps(obj))
        code, out, err = run(
            ["cumulants", "from-moments", "--in", str(bad)], capsys
        )
        assert code == 2
        assert out == ""
        assert err.startswith("ERROR TABLE_PARSE")
        assert message in err

    def test_top_level_list_rejected(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        code, out, err = run(["cumulants", "from-moments", "--in", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == "ERROR TABLE_PARSE: a table must be a JSON object\n"

    @pytest.mark.parametrize("schema, alphabet, message", [
        (True, {"left": ["z"]}, "unsupported schema true"),
        (1.0, {"left": ["z"]}, "unsupported schema 1.0"),
        (1, {"left": "ab"}, "each alphabet side must be a list of names"),
        (1, {"left": ["z"], "right": "u"}, "each alphabet side must be a list of names"),
        (1, {"left": ["z", 2]}, "each alphabet side must be a list of names"),
        (1, ["a"], "alphabet must be an object"),
    ], ids=["bool_schema", "float_schema", "string_left", "string_right", "int_name",
            "list_alphabet"])
    def test_bad_schema_or_alphabet_rejected(self, tmp_path, capsys, schema, alphabet,
                                             message):
        path = tmp_path / "head.json"
        path.write_text(json.dumps({"schema": schema, "alphabet": alphabet,
                                    "degree_cap": 0, "entries": []}))
        code, out, err = run(["cumulants", "from-moments", "--in", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"ERROR TABLE_PARSE: {message}\n"

    @pytest.mark.parametrize("key", ["alphabet", "degree_cap", "entries"])
    def test_missing_key_is_named(self, tmp_path, capsys, key):
        obj = {"schema": 1, "alphabet": {"left": ["z"]}, "degree_cap": 0, "entries": []}
        del obj[key]
        path = tmp_path / "short.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(["cumulants", "from-moments", "--in", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == f'ERROR TABLE_PARSE: missing key "{key}"\n'

    @pytest.mark.parametrize("cap", [-3, 2.9, 2.0, True, "2", None],
                             ids=["negative", "fraction", "float", "bool", "string", "null"])
    def test_bad_degree_cap_rejected(self, tmp_path, capsys, cap):
        path = tmp_path / "cap.json"
        path.write_text(json.dumps({"schema": 1, "alphabet": {"left": ["z"]},
                                    "degree_cap": cap, "entries": []}))
        code, out, err = run(["cumulants", "from-moments", "--in", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err == (f"ERROR TABLE_PARSE: degree_cap must be an integer >= 0, "
                       f"got {json.dumps(cap)}\n")

    def test_missing_entry_rejected(self, tmp_path, capsys):
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps({
            "schema": 1,
            "alphabet": {"left": ["z"], "right": ["u"]},
            "degree_cap": 1,
            "entries": [{"word": [["z", "l"]], "value": 0.5}],
        }))
        code, out, err = run(["cumulants", "from-moments", "--in", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == ("ERROR TABLE_PARSE: malformed table: "
                       "\"dense table missing entry for word ('u',)\"\n")

    def test_cap_past_limit_is_validation(self, tmp_path, capsys):
        # a well-formed table too deep to transform: the cap, not the parse
        entries = [{"word": [["z", "l"]] * n, "value": 1.0} for n in range(1, 14)]
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({"schema": 1, "alphabet": {"left": ["z"]},
                                    "degree_cap": 13, "entries": entries}))
        code, out, err = run(["cumulants", "from-moments", "--in", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err == "ERROR VALIDATION: degree cap 13 exceeds 12\n"

    def test_missing_file(self, capsys):
        code, _, err = run(
            ["moments", "from-cumulants", "--in", "/nonexistent.json"], capsys
        )
        assert code == 2
        assert "TABLE_PARSE" in err


NAMES = st.lists(
    st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1, max_size=3, unique=True
)


@st.composite
def word_tables(draw):
    names = draw(NAMES)
    split = draw(st.integers(1, len(names)))
    alphabet = Alphabet(tuple(names[:split]), tuple(names[split:]))
    cap = draw(st.integers(1, 3))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = {w: draw(finite) for w in all_words(alphabet, cap)}
    cls = draw(st.sampled_from([MomentFunctional, CumulantTable]))
    return cls.from_function(alphabet, cap, values.__getitem__)


class TestTableJsonProperty:
    @given(word_tables())
    @settings(max_examples=50, deadline=None)
    def test_round_trip_is_exact(self, table):
        text = json.dumps(table_to_json(table))
        back = table_from_json(json.loads(text), type(table))
        assert back.alphabet == table.alphabet
        assert back.degree_cap == table.degree_cap
        assert back.values == table.values


class TestCbp:
    def test_build_outputs_both_tables(self, tmp_path, capsys):
        _, path = sample_table(tmp_path, cap=2)
        code, out, _ = run(
            ["cbp", "build", "--lambda", "2", "--jump", path],
            capsys,
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["schema"] == 1
        kappa = table_from_json(obj["cumulants"], MomentFunctional)
        phi, _ = sample_table(tmp_path, cap=2)
        assert kappa(("z1",)) == pytest.approx(2 * phi(("z1",)))

    def test_limit_slope_column(self, capsys):
        code, out, _ = run(
            ["cbp", "limit", "--sizes", "8,16,32,64", "--deg", "4"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "N,word,value,reference,abs_err,slope,flag"
        slope = float(lines[1].split(",")[5])
        assert -1.15 <= slope <= -0.85

    def test_approx_transforms_once_per_size(self, monkeypatch, capsys):
        # the law is its cumulant table: only P(n, nu_{1/n}) needs moments
        calls = []
        transform = poisson.moments_from_kappa
        monkeypatch.setattr(poisson, "moments_from_kappa",
                            lambda kappa: calls.append(kappa) or transform(kappa))
        code, _, _ = run(["cbp", "approx", "--sizes", "2,4,8"], capsys)
        assert (code, len(calls)) == (0, 3)

    def test_psd(self, tmp_path, capsys):
        a = Alphabet(("zl",), ("zr",))
        phi = MomentFunctional.from_function(
            a, 4, lambda w: 1.0  # point mass (1, 1)
        )
        path = tmp_path / "jump.json"
        path.write_text(json.dumps(table_to_json(phi)))
        code, out, _ = run(
            ["cbp", "psd", "--lambda", "1", "--jump", str(path), "--deg", "2"],
            capsys,
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["psd"] is True
        assert obj["min_eigenvalue"] >= -1e-9


class TestSimulate:
    ARGS = [
        "simulate", "wishart", "--lambda", "1", "--atoms", "1:0.5,2:0.5",
        "--sizes", "8,12", "--trials", "6", "--max-word", "2",
    ]

    def test_deterministic_reports(self, tmp_path, capsys):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["--seed", "7", "--out", str(f1)] + self.ARGS) == 0
        assert main(["--seed", "7", "--out", str(f2)] + self.ARGS) == 0
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()

    def test_seed_changes_report(self, tmp_path, capsys):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["--seed", "7", "--out", str(f1)] + self.ARGS) == 0
        assert main(["--seed", "8", "--out", str(f2)] + self.ARGS) == 0
        capsys.readouterr()
        assert f1.read_bytes() != f2.read_bytes()

    def test_negative_seed_rejected_before_progress(self, capsys):
        code, out, err = run(["--seed", "-1"] + self.ARGS, capsys)
        assert (code, out) == (2, "")
        assert err == "ERROR VALIDATION: seed must be >= 0, got -1\n"

    def test_progress_on_stderr_only(self, capsys):
        code, out, err = run(self.ARGS, capsys)
        assert code == 0
        assert "simulating" in err
        assert out.startswith("n,word,empirical,target,abs_err,std_err")
        sizes = [line.split()[0] for line in err.splitlines() if "max_imag=" in line]
        assert sizes == ["n=8", "n=12"]
        assert "max_imag" not in out

    def test_bimatrix_shared(self, capsys):
        code, out, _ = run(
            ["simulate", "bimatrix", "--lambda", "0.5", "--atoms", "1:1",
             "--shared", "--sizes", "8", "--trials", "4", "--max-word", "2"],
            capsys,
        )
        assert code == 0
        assert "zl.zr" in out

    def test_bad_atoms(self, capsys):
        code, _, err = run(
            ["simulate", "wishart", "--lambda", "1", "--atoms", "nope"], capsys
        )
        assert code == 2
        assert "VALIDATION" in err


class TestNumericValidation:
    # an integer no float holds
    HUGE_SIZE = "1" + "0" * 400
    SIM = ["simulate", "bimatrix", "--lambda", "1", "--atoms", "1:1",
           "--shared", "--sizes", "8", "--trials", "4", "--max-word", "2"]
    FOCK = ["fock", "verify", "--lambda", "1", "--atoms", "1:1", "--N", "2",
            "--max-m", "3"]
    # matrix products overflow to inf/nan cells from n = 8 on
    OVERFLOW = ["simulate", "bimatrix", "--lambda", "2.5", "--atoms", "4e76:1",
                "--shared", "--sizes", "8,16", "--trials", "2", "--max-word", "4"]

    @pytest.mark.parametrize(
        "args, names",
        [
            (["cbp", "limit", "--deg", "0"], "--deg"),
            (["cbp", "approx", "--deg", "0"], "--deg"),
            (SIM + ["--max-word", "0"], "max_word_len"),
            (SIM + ["--sizes=0,8"], "sizes"),
            (SIM + ["--sizes=-4,8"], "sizes"),
            (SIM + ["--trials", "1"], "trials"),
            (SIM + ["--right-atoms", "2:1"], "--shared"),
            (FOCK + ["--right-atoms", "2:1", "--shared"], "--shared"),
            (["cbp", "limit", "--deg", "13"], "degree cap 13"),
            (FOCK[:-1] + ["13", "--depth", "3"], "degree cap 13"),
            (SIM + ["--lambda", "inf"], "rate must be finite"),
            (SIM + ["--lambda", "nan"], "rate must be finite"),
            (SIM + ["--lambda", "0.01"], "rate * n must be >= 1/2"),
            (SIM + ["--sizes", "8,8"], "strictly ascending"),
            (SIM + ["--atoms", "nan:1"], "must be finite"),
            (FOCK + ["--atoms", "nan:1"], "must be finite"),
            (FOCK + ["--lambda", "nan"], "rate must be finite"),
            (FOCK + ["--lambda", "0"], "rate must be finite and positive"),
            (FOCK + ["--lambda", "-1"], "rate must be finite and positive"),
            (["cbp", "limit", "--lambda", "nan"], "rate must be finite"),
            (["cbp", "approx", "--lambda", "inf"], "rate must be finite"),
            (["cbp", "limit", "--alpha", "nan"], "must be finite"),
            (["cbp", "approx", "--beta", "inf"], "must be finite"),
            (FOCK + ["--atoms", "1e300:1", "--max-m", "4"], "overflows"),
            (["cbp", "limit", "--alpha", "1e300", "--deg", "7"], "overflows"),
            (FOCK + ["--lambda", "1e308", "--atoms", "10:1"], "non-finite value"),
            (["cbp", "approx", "--lambda", "1e300", "--alpha", "1e10", "--deg", "2",
              "--sizes", "2"], "non-finite value"),
            (["cbp", "limit", "--lambda", "1e200", "--deg", "4"], "non-finite value"),
            (FOCK + ["--lambda", "1e200", "--max-m", "4"], "non-finite value"),
            (SIM + ["--lambda", "1e12"], "exceeds budget"),
            (SIM + ["--trials", "100000000"], "past the trial budget"),
            (["cbp", "limit", "--sizes", "2,2"], "must not repeat"),
            (["cbp", "approx", "--sizes", "4,2,4"], "must not repeat"),
            (SIM[:4] + ["--atoms", WIDE_LAW, "--right-atoms", WIDE_LAW], "joint atom budget"),
            (FOCK[:-1] + ["0"], "moment length 0 must be >= 1"),
            (FOCK + ["--depth", "20000"], "dim 2 and depth 20000 exceeds the budget"),
            (FOCK[:-1] + ["20000"], "dim 2 and depth 20000 exceeds the budget"),
            (["simulate", "wishart", "--lambda", "1", "--atoms", "1:1", "--sizes",
              HUGE_SIZE, "--trials", "2"], "--sizes"),
            (["cbp", "limit", "--sizes", HUGE_SIZE], "--sizes"),
            (["cbp", "approx", "--sizes", HUGE_SIZE], "--sizes"),
            (["bnc", "list", "--chi", ""], "--chi must have 1 to 12 letters, got 0"),
            (["bnc", "list", "--chi", "lr" * 6 + "l"],
             "--chi must have 1 to 12 letters, got 13"),
        ],
        ids=["limit_deg", "approx_deg", "max_word", "zero_size",
             "negative_size", "one_trial", "simulate_shared_laws",
             "fock_shared_laws", "limit_deg_past_cap", "fock_max_m_past_cap",
             "infinite_rate", "nan_rate", "empty_model", "repeated_size",
             "simulate_nan_atom", "fock_nan_atom", "fock_nan_rate",
             "fock_zero_rate", "fock_negative_rate", "limit_nan_rate",
             "approx_infinite_rate", "limit_nan_alpha", "approx_infinite_beta",
             "fock_moment_overflow", "limit_moment_overflow",
             "fock_infinite_target", "approx_infinite_target",
             "limit_overflow_in_transform", "fock_overflow_in_moments",
             "gaussian_past_budget", "trials_past_budget", "limit_repeated_size",
             "approx_repeated_size", "product_law_past_budget", "fock_zero_max_m",
             "fock_depth_past_budget", "fock_max_m_past_budget",
             "wishart_size_past_float", "limit_size_past_float",
             "approx_size_past_float", "empty_chi", "chi_past_cap"],
    )
    def test_named_error(self, capsys, args, names):
        code, out, err = run(args, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("ERROR VALIDATION")
        assert names in err
        assert err.count("\n") == 1

    def test_overflowing_model_is_numeric_error(self, capsys):
        # none of the inf/nan cells may be printed
        code, out, err = run(self.OVERFLOW, capsys)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].startswith("ERROR NUMERIC: ")
        assert err.count("ERROR") == 1
        assert "Warning" not in err

    def test_progress_line_shows_nan(self, capsys):
        # the maxima over words and trials keep a NaN instead of dropping it
        _, _, err = run(self.OVERFLOW, capsys)
        assert err.splitlines()[1] == "  n=8 max_abs_err=nan max_imag=nan"

    def test_psd_degree_past_table_cap(self, tmp_path, capsys):
        _, path = sample_table(tmp_path, cap=4)
        code, out, err = run(
            ["cbp", "psd", "--lambda", "1", "--jump", path, "--deg", "3"], capsys
        )
        assert code == 2
        assert out == ""
        assert err == "ERROR VALIDATION: need moments to degree 6, cap is 4\n"

    def test_psd_negative_degree(self, tmp_path, capsys):
        _, path = sample_table(tmp_path)
        code, out, err = run(
            ["cbp", "psd", "--lambda", "1", "--jump", path, "--deg", "-3"], capsys
        )
        assert (code, out) == (2, "")
        assert err == "ERROR VALIDATION: degree -3 must be >= 0\n"

    def test_build_negative_degree(self, tmp_path, capsys):
        _, path = sample_table(tmp_path)
        code, out, err = run(
            ["cbp", "build", "--lambda", "2", "--jump", path, "--deg", "-1"], capsys
        )
        assert (code, out) == (2, "")
        assert err == "ERROR VALIDATION: degree -1 outside [0, 3], the table cap\n"

    def test_build_nan_rate(self, tmp_path, capsys):
        _, path = sample_table(tmp_path)
        code, out, err = run(["cbp", "build", "--lambda", "nan", "--jump", path],
                             capsys)
        assert (code, out) == (2, "")
        assert err == "ERROR VALIDATION: rate must be finite and positive, got nan\n"

    def test_workers_flag_removed(self, capsys):
        # `--workers 2` would read "2" as the subcommand; `=` keeps the flag whole
        code, out, err = run(["--workers=2", "nc", "list", "--n", "3"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("ERROR USAGE: ")
        assert "--workers" in err
        assert err.count("\n") == 1

    def test_bad_argument_is_usage_error(self, capsys):
        code, out, err = run(["nc", "list", "--n", "abc"], capsys)
        assert (code, out) == (2, "")
        assert err == "ERROR USAGE: argument --n: invalid int value: 'abc'\n"

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["nc", "list", "--help"])
        assert exc.value.code == 0
        assert "--n" in capsys.readouterr().out

    @pytest.mark.parametrize("target", ["missing/x", "d"], ids=["no_dir", "is_dir"])
    def test_unwritable_out_is_io_error(self, tmp_path, capsys, target):
        (tmp_path / "d").mkdir()
        out_path = tmp_path / target
        code, out, err = run(["--out", str(out_path), "nc", "list", "--n", "2"],
                             capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"ERROR IO: cannot write {out_path}: ")
        assert err.count("\n") == 1
        # no temp file is left next to the target
        assert [p.name for p in tmp_path.iterdir()] == ["d"]
        assert list((tmp_path / "d").iterdir()) == []

    def test_write_failure_mid_stream_leaves_no_file(self, tmp_path, capsys,
                                                      monkeypatch):
        class FullDisk(io.TextIOWrapper):
            """Takes one write, then fails as a full disk does."""
            writes = 0

            def write(self, text):
                if FullDisk.writes:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                FullDisk.writes += 1
                return super().write(text)

        monkeypatch.setattr(
            os, "fdopen", lambda fd, mode: FullDisk(open(fd, mode + "b")))
        out_path = tmp_path / "nc.json"
        # Catalan(8) = 1430 partitions: more than one chunk
        code, out, err = run(["--out", str(out_path), "nc", "list", "--n", "8"],
                             capsys)
        assert FullDisk.writes == 1
        assert (code, out) == (2, "")
        assert err.startswith(f"ERROR IO: cannot write {out_path}: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args,read", [
        (["nc", "mobius", "--n", "10"], 20),  # 4 MB: the pipe fills and breaks
        (["nc", "list", "--n", "2"], 0),  # closed before the flush at exit
    ])
    def test_closed_stdout_is_io_error(self, args, read):
        src = Path(bipoisson.__file__).resolve().parents[1]
        # buffered, so that a small output meets the closed pipe only on flush
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.Popen(
            [sys.executable, "-m", "bipoisson.cli", *args],
            env=dict(env, PYTHONPATH=str(src)),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert len(proc.stdout.read(read)) == read
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 2
        # one named line: no traceback, no "Exception ignored" at shutdown
        assert err.decode() == "ERROR IO: standard output closed\n"


# One small run of each subcommand; "{table}" stands for a sample table file
COMMANDS = {
    "nc_list": ["nc", "list", "--n", "2"],
    "nc_mobius": ["nc", "mobius", "--n", "2"],
    "bnc_list": ["bnc", "list", "--chi", "lr"],
    "cumulants": ["cumulants", "from-moments", "--in", "{table}"],
    "moments": ["moments", "from-cumulants", "--in", "{table}"],
    "cbp_build": ["cbp", "build", "--lambda", "1", "--jump", "{table}"],
    "cbp_psd": ["cbp", "psd", "--lambda", "1", "--jump", "{table}", "--deg", "1"],
    "cbp_limit": ["cbp", "limit", "--deg", "2", "--sizes", "2,4"],
    "cbp_approx": ["cbp", "approx", "--deg", "2", "--sizes", "2,4"],
    "fock": TestNumericValidation.FOCK,
    "simulate": TestNumericValidation.SIM,
}


def command(tmp_path, name) -> list[str]:
    _, path = sample_table(tmp_path)
    return [path if a == "{table}" else a for a in COMMANDS[name]]


class TestGlobalFlags:
    """--format and --seed stand before the subcommand and are an error for
    a command whose output does not read them."""

    @pytest.mark.parametrize("name", COMMANDS)
    def test_format_only_for_reports(self, tmp_path, capsys, name):
        argv = command(tmp_path, name)
        code, out, err = run(["--format", "json"] + argv, capsys)
        if name in ("cbp_limit", "cbp_approx", "fock", "simulate"):
            assert code == 0 and json.loads(out)
        else:
            assert (code, out) == (2, "")
            assert err == f"ERROR USAGE: --format does nothing for {argv[0]} {argv[1]}\n"

    @pytest.mark.parametrize("name", COMMANDS)
    def test_seed_only_for_simulate(self, tmp_path, capsys, name):
        argv = command(tmp_path, name)
        code, out, err = run(["--seed", "3"] + argv, capsys)
        if name == "simulate":
            assert code == 0 and out.startswith("n,word,")
        else:
            assert (code, out) == (2, "")
            assert err == f"ERROR USAGE: --seed does nothing for {argv[0]} {argv[1]}\n"


class TestStartup:
    @staticmethod
    def last_line(code: str) -> str:
        """The last line `code` prints, run in a fresh process."""
        src = Path(bipoisson.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True, timeout=120,
        )
        return out.stdout.strip().splitlines()[-1]

    def modules_after(self, code: str, package: str) -> str:
        """The modules of `package` loaded once `code` has run in a fresh
        process."""
        return self.last_line(code + f"; print(sorted(m for m in sys.modules "
                                     f"if m.split('.')[0] == {package!r}))")

    def test_cli_startup_leaves_scipy_unloaded(self):
        code = "import sys, bipoisson.cli; bipoisson.cli.build_parser()"
        assert self.modules_after(code, "scipy") == "[]"

    def test_parser_loads_only_cli_and_errors(self):
        # the parser names each command's function; no command module is compiled
        code = "import sys, bipoisson.cli; bipoisson.cli.build_parser()"
        assert self.modules_after(code, "bipoisson") == str(
            ["bipoisson", "bipoisson.cli", "bipoisson.errors"])

    NUMERIC_COMMANDS = [
        ["cbp", "limit", "--deg", "2", "--sizes", "8,16"],
        ["fock", "verify", "--lambda", "0.5", "--atoms", "0.7:1", "--N", "2",
         "--max-m", "3"],
        ["simulate", "bimatrix", "--lambda", "2.5", "--atoms", "1:0.5,2:0.5",
         "--sizes", "4", "--trials", "2", "--max-word", "2"]]

    @pytest.mark.parametrize("args", NUMERIC_COMMANDS)
    def test_numeric_commands_leave_partitions_unloaded(self, args):
        # the side tags are in errors; only the partition commands read partitions
        code = f"import sys, bipoisson.cli; assert bipoisson.cli.main({args!r}) == 0"
        assert "bipoisson.partitions" not in self.modules_after(code, "bipoisson")

    @pytest.mark.parametrize("args", NUMERIC_COMMANDS)
    def test_numeric_commands_load_reports_before_numpy(self, args):
        # sys.modules keeps import order: compiling `reports` comes before
        # numpy's import, so its memory does not add to numpy's peak
        code = f"import sys, bipoisson.cli; assert bipoisson.cli.main({args!r}) == 0"
        order = ast.literal_eval(self.last_line(
            code + "; print([m for m in sys.modules if m in "
                   "('bipoisson.reports', 'numpy')])"))
        assert order == ["bipoisson.reports", "numpy"]

    @pytest.mark.parametrize("args, message", [
        (["cbp", "limit", "--deg", "0"], "ERROR VALIDATION: --deg must be >= 1, got 0"),
        (["nc", "list", "--n", "0"], "ERROR VALIDATION: n=0 outside [1, 12]")])
    def test_module_run_prints_named_errors(self, args, message):
        # run as `python -m`, cli is `__main__` and `reports` imports a second
        # copy of it: an error raised in either is still one ERROR line
        src = Path(bipoisson.__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "-m", "bipoisson.cli", *args], capture_output=True,
            text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(src)))
        assert (out.returncode, out.stdout, out.stderr) == (2, "", message + "\n")

    @pytest.mark.parametrize("args", [["nc", "list", "--n", "3"],
                                      ["cbp", "limit", "--deg", "2", "--sizes", "8,16"]])
    def test_stdout_commands_run_without_tempfile(self, args):
        # only an --out write imports tempfile
        code = ("import sys; sys.modules['tempfile'] = None; import bipoisson.cli; "
                f"assert bipoisson.cli.main({args!r}) == 0")
        assert self.last_line(code + "; print('ok')") == "ok"

    def test_fock_verify_leaves_scipy_unloaded(self):
        # the Fock model runs on numpy alone
        code = (
            "import sys, bipoisson.cli; assert bipoisson.cli.main(['fock', 'verify', "
            "'--lambda', '0.5', '--atoms', '0.7:1', '--right-atoms', '0.3:1', "
            "'--N', '3', '--max-m', '4']) == 0"
        )
        assert self.modules_after(code, "scipy") == "[]"

    @pytest.mark.parametrize("args", [
        ["fock", "verify", "--lambda", "0.5", "--atoms", "0.7:1", "--N", "2",
         "--max-m", "3"],
        ["cbp", "limit", "--deg", "2", "--sizes", "8,16"]])
    def test_jump_law_commands_leave_matrix_models_unloaded(self, args):
        # the jump law lives in `poisson`; only `simulate` needs the matrix model
        code = f"import sys, bipoisson.cli; assert bipoisson.cli.main({args!r}) == 0"
        assert "bipoisson.matrix_models" not in self.modules_after(code, "bipoisson")

    PARTITION_COMMANDS = [["nc", "list", "--n", "4"], ["nc", "mobius", "--n", "4"],
                          ["bnc", "list", "--chi", "lrl"]]

    def test_partition_commands_keep_no_memory(self):
        # Every memo of a partition command is its own and ends with it. Each
        # command leaves tracemalloc within 1 MB of its reading before the
        # call, once one collection has taken the parser's cyclic garbage.
        code = textwrap.dedent("""
            import gc, os, sys, tracemalloc
            from bipoisson import cli
            sys.stdout, held = open(os.devnull, "w"), []
            tracemalloc.start()
            for args in (["nc", "mobius", "--n", "11"], ["nc", "list", "--n", "11"],
                         ["bnc", "list", "--chi", "lrlrlrlrlrl"]):
                gc.collect()
                before = tracemalloc.get_traced_memory()[0]
                assert cli.main(args) == 0
                gc.collect()
                held.append(tracemalloc.get_traced_memory()[0] - before)
            print(held, file=sys.__stdout__)
        """)
        held = ast.literal_eval(self.last_line(code))
        assert len(held) == 3
        assert max(held) <= 1e6, held

    @pytest.mark.parametrize("args", PARTITION_COMMANDS)
    def test_partition_commands_leave_numpy_unloaded(self, args):
        code = f"import sys, bipoisson.cli; assert bipoisson.cli.main({args!r}) == 0"
        assert self.modules_after(code, "numpy") == "[]"

    @pytest.mark.parametrize("args", PARTITION_COMMANDS)
    def test_partition_commands_leave_reports_unloaded(self, args):
        code = f"import sys, bipoisson.cli; assert bipoisson.cli.main({args!r}) == 0"
        assert self.modules_after(code, "bipoisson") == str(
            ["bipoisson", "bipoisson.cli", "bipoisson.errors", "bipoisson.partitions"])

    @pytest.mark.parametrize("args", PARTITION_COMMANDS)
    def test_partition_commands_leave_dataclasses_unloaded(self, args):
        # `dataclasses` imports `inspect`: ~15 ms of start-up that the
        # partition commands do not need
        code = f"import sys, bipoisson.cli; assert bipoisson.cli.main({args!r}) == 0"
        assert self.last_line(
            code + "; print([m for m in ('inspect', 'dataclasses') if m in sys.modules])"
        ) == "[]"

    @pytest.mark.parametrize("args, unloaded", [
        *[(args, ["csv", "json"]) for args in PARTITION_COMMANDS],
        (["cbp", "limit", "--deg", "2", "--sizes", "8,16"], ["json"])])
    def test_commands_leave_unread_formats_unloaded(self, args, unloaded):
        # the partition commands render their own JSON; csv reports need no json
        code = f"import sys, bipoisson.cli; assert bipoisson.cli.main({args!r}) == 0"
        assert self.last_line(
            code + f"; print([m for m in {unloaded!r} if m in sys.modules])") == "[]"

    def test_package_names_resolve_to_their_modules(self):
        # A fresh process, so that each name is resolved on first use. The
        # expected object is the one the modules bind under the name.
        code = textwrap.dedent("""
            import importlib, sys, bipoisson
            assert not [m for m in sys.modules if m.startswith("bipoisson.")]
            modules = [importlib.import_module("bipoisson." + m) for m in (
                "errors", "partitions", "cumulants", "poisson", "matrix_models",
                "fock")]
            star = {}
            wrong = []
            for name in bipoisson.__all__:
                ids = {id(getattr(m, name)) for m in modules if hasattr(m, name)}
                if ids != {id(getattr(bipoisson, name))}:
                    wrong.append(name)
            exec("from bipoisson import *", star)
            wrong += [n for n in bipoisson.__all__ if star[n] is not getattr(bipoisson, n)]
            print(len(set(bipoisson.__all__)), wrong)
        """)
        assert self.last_line(code) == "37 []"


def loaded_names(tree: ast.AST) -> set[str]:
    """The names read in `tree`, as a Name or as an Attribute, except inside
    a def or class of the same name: a definition does not call itself."""
    found = set()

    def walk(node, owners):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owners = owners | {node.name}
        elif isinstance(getattr(node, "ctx", None), ast.Load):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name is not None and name not in owners:
                found.add(name)
        for child in ast.iter_child_nodes(node):
            walk(child, owners)

    walk(tree, frozenset())
    return found


class TestPublicNames:
    # Public names that no code in src/ reads, each with the reason it stays
    UNCALLED = {
        "mobius_nc_one": "wrapped by perfbench/tracer.py; the tests' Mobius oracle",
        "enumerate_nc": "wrapped by perfbench/tracer.py",
        "convolve": "acceptance criterion 4 gates it (ROADMAP Watch)",
        "compress": "acceptance criterion 4 gates it (ROADMAP Watch)",
    }

    def test_every_public_name_is_read_in_src(self):
        src = Path(bipoisson.__file__).resolve().parent
        read = set()
        for path in sorted(src.glob("*.py")):
            if path.name != "__init__.py":
                read |= loaded_names(ast.parse(path.read_text(), str(path)))
        names = set(bipoisson.__all__)
        assert sorted(set(self.UNCALLED) - names) == []
        assert sorted(set(self.UNCALLED) & read) == []  # a caller ends the exemption
        assert sorted(names - read - set(self.UNCALLED)) == []

    def test_tracer_exemptions_name_traced_functions(self):
        # an exemption for a traced name holds while perfbench/tracer.py reads
        # its "module.name" span, and fails once the tracer stops reading it
        tracer = (Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py").read_text()
        traced = [name for name, why in self.UNCALLED.items()
                  if "wrapped by perfbench/tracer.py" in why]
        assert traced
        assert [name for name in traced
                if f'"{bipoisson._MODULE_OF[name]}.{name}"' not in tracer] == []

    def test_loaded_names_skip_own_definition(self):
        tree = ast.parse(textwrap.dedent("""
            LEFT = "l"
            def f(n):
                return f(n - 1) + g.h
            class C:
                def m(self):
                    return C, self.x
        """))
        assert loaded_names(tree) == {"n", "g", "h", "self", "x"}


def module_caches(tree: ast.AST) -> list[str]:
    """The names that an `lru_cache` or `functools.cache` wraps at module
    scope, class bodies included: each def it decorates, and each target of
    an assignment that applies it. Function and lambda bodies are not
    walked: a cache made in a call ends with what made it."""
    found = []

    def walk(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for child in node.decorator_list:
                walk(child, node.name)
            for child in node.body if isinstance(node, ast.ClassDef) else ():
                walk(child, None)
            return
        if isinstance(node, ast.Lambda):
            return
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            owner = ast.unparse(getattr(node, "target", None) or node.targets[0])
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name in ("lru_cache", "cache") and isinstance(node.ctx, ast.Load):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            walk(child, owner)

    walk(tree, None)
    return found


class TestProcessCaches:
    # A cache at module scope lives as long as the process; each one kept is
    # listed with its reason and its bound
    ALLOWED = {
        "_mobius_zero_one": "mu(0_m, 1_m), one int per size m: at most 13 entries, "
                            "as the capped commands ask m <= 13",
        "_length_plan": "64 transform plans (maxsize=64): `cbp limit` reuses its plans "
                        "across 5 transforms, and uncached the command was ~8% slower",
    }

    def test_module_scope_caches_are_allowed(self):
        src = Path(bipoisson.__file__).resolve().parent
        found = [name for path in sorted(src.glob("*.py"))
                 for name in module_caches(ast.parse(path.read_text(), str(path)))]
        assert sorted(set(found) - set(self.ALLOWED)) == []
        assert sorted(set(self.ALLOWED) - set(found)) == []  # an allowance ends with its cache

    def test_module_caches_skip_calls(self):
        tree = ast.parse(textwrap.dedent("""
            import functools
            from functools import cache, lru_cache
            @lru_cache(maxsize=None)
            def a(n): return n
            b = lru_cache(maxsize=None)("{}".format)
            class C:
                @functools.cache
                def d(self): return 1
                @functools.cached_property
                def e(self): return lru_cache(maxsize=None)(len)
            def f():
                g = lru_cache(maxsize=None)(len)
                @cache
                def h(n): return n
            i = lambda: functools.cache(len)
        """))
        assert module_caches(tree) == ["a", "b", "d"]


class TestImportGraph:
    # Each module's `from .X import` edges, function bodies included: a law
    # reaches the Fock model as its cumulant table, not through poisson, and
    # the side tags come from errors, so no numeric module reads partitions
    EDGES = {
        "__init__": set(),
        "errors": set(),
        "partitions": {"errors"},
        "cumulants": {"errors"},
        "poisson": {"cumulants", "errors"},
        "fock": {"cumulants", "errors"},
        "matrix_models": {"cumulants", "errors", "poisson"},
        "cli": {"errors", "partitions", "reports"},
        "reports": {"cli", "cumulants", "errors", "fock", "matrix_models", "poisson"},
    }

    @staticmethod
    def trees():
        src = Path(bipoisson.__file__).resolve().parent
        return {path.stem: ast.parse(path.read_text(), str(path))
                for path in sorted(src.glob("*.py"))}

    def test_module_edges(self):
        # `from . import X` is an edge to X
        edges = {name: {node.module or alias.name for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom) and node.level == 1
                        for alias in node.names}
                 for name, tree in self.trees().items()}
        assert edges == self.EDGES

    def test_row_layout_is_read_in_cumulants_and_fock_only(self):
        readers = [name for name, tree in self.trees().items()
                   if "word_offset" in loaded_names(tree) | {
                       alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom) for alias in node.names}]
        assert readers == ["cumulants", "fock"]


class TestFock:
    def test_verify_exact(self, capsys):
        code, out, _ = run(
            ["fock", "verify", "--lambda", "0.5", "--atoms", "0.7:1",
             "--right-atoms", "0.3:1", "--N", "2", "--max-m", "3"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == (
            "word,chi,omega_moment,kappa_empirical,kappa_target,abs_err"
        )
        errs = [float(line.split(",")[-1]) for line in lines[1:]]
        assert max(errs) < 1e-10

    def test_verify_builds_the_jump_table_once(self, monkeypatch, capsys):
        calls = []
        table = poisson.JumpLaw.moments
        monkeypatch.setattr(poisson.JumpLaw, "moments",
                            lambda law, cap: calls.append(cap) or table(law, cap))
        code, _, _ = run(["fock", "verify", "--lambda", "0.5", "--atoms", "0.7:1",
                          "--N", "3", "--max-m", "4"], capsys)
        assert (code, calls) == (0, [3])

    def test_bad_order(self, capsys):
        code, _, err = run(
            ["fock", "verify", "--lambda", "1", "--atoms", "1:1", "--N", "0",
             "--max-m", "1"],
            capsys,
        )
        assert code == 2
        assert "VALIDATION" in err


class TestHelpers:
    def test_parse_atoms(self):
        assert parse_atoms("1:0.25,2:0.75") == ((1.0, 2.0), (0.25, 0.75))

    def test_convergence_slope_perfect(self):
        points = [(n, [1.0 + 1.0 / n], [1.0]) for n in (2, 4, 8, 16)]
        text = emit_convergence_series(["w"], points, "csv")
        slope = float(text.strip().split("\n")[1].split(",")[5])
        assert slope == pytest.approx(-1.0, abs=1e-6)

    def test_convergence_slope_constant(self):
        points = [(n, [1.5], [1.0]) for n in (2, 4, 8)]
        text = emit_convergence_series(["w"], points, "csv")
        slope = float(text.strip().split("\n")[1].split(",")[5])
        assert slope == pytest.approx(0.0, abs=1e-9)

    def test_single_point_omits_slope(self):
        points = [(4, [1.5], [1.0])]
        text = emit_convergence_series(["w"], points, "csv")
        row = text.strip().split("\n")[1].split(",")
        assert row[5] == ""
        assert row[6] == "slope_omitted"


def readme_cli_lines() -> list[str]:
    """The `bipoisson` lines of the README's CLI section code block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("bipoisson ")]


class TestReadme:
    def test_cli_examples_run(self, tmp_path, monkeypatch, capsys):
        lines = readme_cli_lines()
        assert len(lines) == 12
        jump = JumpLaw(Alphabet(("z1",), ("u1",)), ((0.5, 1.0), (1.0, 2.0)), (0.5, 0.5))
        (tmp_path / "phi.json").write_text(json.dumps(table_to_json(jump.moments(4))))
        monkeypatch.chdir(tmp_path)
        for line in lines:
            code, _, err = run(shlex.split(line, comments=True)[1:], capsys)
            # simulate reports its progress on the error stream
            err = [e for e in err.splitlines()
                   if not e.startswith(("simulating sizes ", "  n="))]
            assert (code, err) == (0, []), line
