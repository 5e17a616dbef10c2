"""Command-line harness: subcommand outputs, JSON table round trips,
error paths with machine-parsable codes, determinism of seeded reports,
and the convergence-series emitter."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import bipoisson
from bipoisson.cli import (
    emit_convergence_series,
    json_text,
    main,
    parse_atoms,
    table_from_json,
    table_to_json,
)
from bipoisson.cumulants import Alphabet, CumulantTable, MomentFunctional, all_words
from bipoisson.errors import ShapeMismatchError
from bipoisson.partitions import ChiShape, enumerate_bnc, enumerate_nc, mobius_nc_one


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


json_scalars = (
    st.integers()
    | st.booleans()
    | st.none()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)
json_values = st.recursive(
    json_scalars,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    ),
    max_leaves=20,
)
# tuples of ints mixed with values equal to an int (True == 1 == 1.0), so
# that a cached rendering keyed by value alone shows up
int_like_tuples = st.lists(
    st.lists(st.integers(-2, 2) | st.sampled_from([True, False, 1.0, 0.0]),
             min_size=1, max_size=3).map(tuple),
    max_size=6,
)


class TestJsonText:
    @given(json_values)
    @settings(max_examples=300)
    def test_matches_json_dumps(self, obj):
        assert json_text(obj) == json.dumps(obj, indent=2) + "\n"

    @given(int_like_tuples)
    def test_mixed_tuples_match_json_dumps(self, obj):
        for value in (obj, [obj, {"a": obj}]):
            assert json_text(value) == json.dumps(value, indent=2) + "\n"

    def test_non_str_key_rejected(self):
        with pytest.raises(TypeError):
            json_text({1: 2})

    @pytest.mark.parametrize("n", range(1, 11))
    def test_nc_commands_match_json_dumps(self, n, capsys):
        pis = enumerate_nc(n)
        _, out, _ = run(["nc", "list", "--n", str(n)], capsys)
        blocks = [[list(b) for b in p.blocks] for p in pis]
        assert out == json.dumps(blocks, indent=2) + "\n"
        _, out, _ = run(["nc", "mobius", "--n", str(n)], capsys)
        rows = [{"blocks": b, "mobius": mobius_nc_one(p)} for b, p in zip(blocks, pis)]
        assert out == json.dumps(rows, indent=2) + "\n"

    @pytest.mark.parametrize("chi", ["l", "r", "lr", "rl", "lrlr", "llrrl", "rrrrrrrr"])
    def test_bnc_list_matches_json_dumps(self, chi, capsys):
        _, out, _ = run(["bnc", "list", "--chi", chi], capsys)
        blocks = [[list(b) for b in p.blocks]
                  for p in enumerate_bnc(ChiShape(tuple(chi)))]
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
        ],
        ids=["duplicate", "nan", "over_cap"],
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
    return cls(alphabet, cap, values)


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
            ["--format", "json", "cbp", "build", "--lambda", "2", "--jump", path],
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
    SIM = ["simulate", "bimatrix", "--lambda", "1", "--atoms", "1:1",
           "--shared", "--sizes", "8", "--trials", "4", "--max-word", "2"]
    FOCK = ["fock", "verify", "--lambda", "1", "--atoms", "1:1", "--N", "2",
            "--max-m", "3"]

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
        ],
        ids=["limit_deg", "approx_deg", "max_word", "zero_size",
             "negative_size", "one_trial", "simulate_shared_laws",
             "fock_shared_laws", "limit_deg_past_cap", "fock_max_m_past_cap"],
    )
    def test_named_error(self, capsys, args, names):
        code, out, err = run(args, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("ERROR VALIDATION")
        assert names in err
        assert err.count("\n") == 1

    def test_psd_degree_past_table_cap(self, tmp_path, capsys):
        _, path = sample_table(tmp_path, cap=4)
        code, out, err = run(
            ["cbp", "psd", "--lambda", "1", "--jump", path, "--deg", "3"], capsys
        )
        assert code == 2
        assert out == ""
        assert err == "ERROR VALIDATION: need moments to degree 6, cap is 4\n"

    def test_workers_flag_removed(self, capsys):
        with pytest.raises(SystemExit):
            main(["--workers", "2", "nc", "list", "--n", "3"])
        capsys.readouterr()


class TestStartup:
    @staticmethod
    def scipy_modules_after(code: str) -> str:
        """The scipy modules loaded once `code` has run in a fresh process,
        as the last line it prints."""
        code += "; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        src = Path(bipoisson.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True, timeout=120,
        )
        return out.stdout.strip().splitlines()[-1]

    def test_cli_startup_leaves_scipy_unloaded(self):
        code = "import sys, bipoisson.cli; bipoisson.cli.build_parser()"
        assert self.scipy_modules_after(code) == "[]"

    def test_fock_verify_leaves_scipy_unloaded(self):
        # the Fock model runs on numpy alone
        code = (
            "import sys, bipoisson.cli; assert bipoisson.cli.main(['fock', 'verify', "
            "'--lambda', '0.5', '--atoms', '0.7:1', '--right-atoms', '0.3:1', "
            "'--N', '3', '--max-m', '4']) == 0"
        )
        assert self.scipy_modules_after(code) == "[]"


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
        law = parse_atoms("1:0.25,2:0.75")
        assert law.atoms == (1.0, 2.0)
        assert law.weights == (0.25, 0.75)

    def test_convergence_slope_perfect(self):
        points = [(n, [("w", 1.0 + 1.0 / n, 1.0)]) for n in (2, 4, 8, 16)]
        text = emit_convergence_series(points, "csv")
        slope = float(text.strip().split("\n")[1].split(",")[5])
        assert slope == pytest.approx(-1.0, abs=1e-6)

    def test_convergence_slope_constant(self):
        points = [(n, [("w", 1.5, 1.0)]) for n in (2, 4, 8)]
        text = emit_convergence_series(points, "csv")
        slope = float(text.strip().split("\n")[1].split(",")[5])
        assert slope == pytest.approx(0.0, abs=1e-9)

    def test_single_point_omits_slope(self):
        points = [(4, [("w", 1.5, 1.0)])]
        text = emit_convergence_series(points, "csv")
        row = text.strip().split("\n")[1].split(",")
        assert row[5] == ""
        assert row[6] == "slope_omitted"
