"""The benchmark's own checks: each output check passes on the real command's
output at a small size and fails on every corruption of it, and the span
analysis survives functions that no longer exist."""

import csv
import io
import json
import sys

import pytest

import workloads as wl
from run import CLI_CODE, ROOT, Runner, summarize
from tracer import LAYER_METRICS, Trace, Tracer, layer_metrics

SMALL = {
    "bimatrix": wl.bimatrix(sizes=(8, 16), trials=4, max_word=3),
    "limit": wl.limit(deg=3),
    "fock": wl.fock(depth=8),
    "enumerate": wl.enumerate_nc(n=6),
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    runner = Runner(tmp_path_factory.mktemp("runs"))
    out = {}
    for name, w in SMALL.items():
        res = runner.spawn([sys.executable, "-c", CLI_CODE, *w.argv(5)])
        assert res["exit_code"] == 0, res["stderr"]
        out[name] = res["stdout"]
    return out


def _edit_csv(text, edit):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    body = edit(header, body)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *body])
    return buf.getvalue()


def _set(col, value, row=0):
    def edit(header, body):
        body[row][header.index(col)] = value(body[row][header.index(col)])
        return body
    return edit


def _set_all(col, value):
    def edit(header, body):
        for r in body:
            r[header.index(col)] = value
        return body
    return edit


CSV_CORRUPTIONS = {
    "bimatrix": {
        "row dropped": lambda h, b: b[1:],
        "row duplicated": lambda h, b: b + b[:1],
        "empirical NaN": _set("empirical", lambda v: "nan", row=3),
        "target off": _set("target", lambda v: repr(float(v) * (1 + 1e-9)), row=5),
        "std_err not a number": _set("std_err", lambda v: "x"),
    },
    "limit": {
        "row dropped": lambda h, b: b[:-1],
        "reference off": _set("reference", lambda v: repr(float(v) + 1), row=7),
        "slope too flat": _set_all("slope", "-0.5"),
        "abs_err wrong": _set("abs_err", lambda v: "0.25", row=2),
        "value infinite": _set("value", lambda v: "inf", row=4),
    },
    "fock": {
        "row dropped": lambda h, b: b[:-1],
        "kappa off by 1e-9": _set("kappa_empirical",
                                  lambda v: repr(float(v) + 1e-9), row=9),
        "abs_err too large": _set("abs_err", lambda v: "2e-10", row=11),
        "word renamed": _set("word", lambda v: v + ".wl", row=0),
    },
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_check_passes_on_real_output(outputs, name):
    SMALL[name].check(outputs[name])


@pytest.mark.parametrize("name,corruption", [
    (n, c) for n, cs in sorted(CSV_CORRUPTIONS.items()) for c in sorted(cs)])
def test_csv_check_fails_on_corrupted_output(outputs, name, corruption):
    bad = _edit_csv(outputs[name], CSV_CORRUPTIONS[name][corruption])
    assert bad != outputs[name]
    with pytest.raises(wl.CheckFailed):
        SMALL[name].check(bad)


def _replace_blocks(rows):
    # keep the count but swap one partition for a crossing one
    i = next(i for i, r in enumerate(rows) if len(r["blocks"]) == 4)
    rows[i]["blocks"] = [[1, 3], [2, 4], [5], [6]]


def _mobius_of_zero(rows):
    zero = next(r for r in rows if len(r["blocks"]) == 6)
    zero["mobius"] = -zero["mobius"]


def _shift_mobius(rows):
    rows[10]["mobius"] += 1


ENUMERATE_CORRUPTIONS = {
    "partition dropped": lambda rows: rows.pop(),
    "partition duplicated": lambda rows: rows.__setitem__(3, rows[4]),
    "crossing partition": _replace_blocks,
    "element missing": lambda rows: rows[7]["blocks"][0].pop(),
    "mu(0,1) negated": _mobius_of_zero,
    "mobius sum nonzero": _shift_mobius,
}


@pytest.mark.parametrize("corruption", sorted(ENUMERATE_CORRUPTIONS))
def test_enumerate_check_fails_on_corrupted_output(outputs, corruption):
    rows = json.loads(outputs["enumerate"])
    ENUMERATE_CORRUPTIONS[corruption](rows)
    with pytest.raises(wl.CheckFailed):
        SMALL["enumerate"].check(json.dumps(rows))


def test_enumerate_check_fails_on_truncated_output(outputs):
    text = outputs["enumerate"]
    with pytest.raises(wl.CheckFailed):
        SMALL["enumerate"].check(text[: len(text) // 2])


def test_failed_command_is_recorded_not_raised(tmp_path):
    broken = wl.Workload("broken", lambda seed: ["nc", "list", "--n", "0"],
                         lambda text: None)
    rec = Runner(tmp_path).run(broken, seed=1, traced=False)
    assert rec["exit_code"] != 0 and rec["error"].startswith("exit")


def test_traced_run_reports_layers(tmp_path):
    rec = Runner(tmp_path).run(SMALL["fock"], seed=1, traced=True)
    assert rec["error"] is None and rec["absent"] == {}
    layers = rec["layers"]
    assert layers["fock.basis_states"] == 2**9 - 1
    assert layers["fock.useful_state_ratio"] == (2**7 - 1) / (2**9 - 1)
    assert layers["fock.vacuum_moment_calls"] == 126
    assert layers["cumulants.kappa_from_moments_calls"] == 1
    assert layers["matrix_models.trials"] == 0
    assert 0 < layers["fock.basis_s"] < rec["wall_s"]


def _trace(spans, names, counts=None, count_errors=None):
    return Trace({"names": names, "spans": spans, "counts": counts or {},
                  "count_errors": count_errors or {}})


def test_self_time_excludes_children_and_nested_same_name_counts_once():
    t = _trace(
        [[-1, 0, 0, 100], [0, 1, 10, 40], [1, 1, 15, 20], [0, 2, 50, 60]],
        ["poisson.limit_theorem_moments", "cumulants.kappa_from_moments",
         "cumulants.moments_from_kappa"])
    assert t.self_s(lambda n: n.startswith("poisson.")) == 60 / 1e9
    assert t.inclusive_s("cumulants.kappa_from_moments") == 30 / 1e9
    assert t.calls("cumulants.kappa_from_moments") == 2


def test_missing_function_is_absent_not_a_crash():
    t = _trace([[-1, 0, 0, 10]], ["cli.main"])
    values, absent = layer_metrics(t)
    assert "fock.operators_s" in absent and "fock.operators_s" not in values
    assert absent["fock.operators_s"].startswith("no such function")


def test_renamed_argument_makes_count_absent():
    tracer = Tracer()

    def write_output(renamed, out_path):  # parameter no longer named `text`
        return None

    tracer.wrap("cli.write_output", write_output)("abc", None)
    t = Trace(json.loads(json.dumps(tracer.dump())))
    values, absent = layer_metrics(t)
    assert absent["cli.output_bytes"].startswith("count unavailable")
    assert values["cli.render_s"] > 0


def test_benchmark_json_names_what_the_code_measures():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == [
        *LAYER_METRICS, "trace_overhead_s"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"][:-1]} == {
        name: unit for name, (unit, _, _) in LAYER_METRICS.items()}


def test_summary_has_every_declared_end_to_end_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = [
        {"kind": "setup", "setup_s": 0.3},
        {"kind": "ref", "workload": "w", "wall_s": 0.25, "error": None},
        {"kind": "cli", "workload": "w", "wall_s": 2.0, "peak_rss_mb": 50.0,
         "error": None},
        {"kind": "ref", "workload": "w", "wall_s": 0.35, "error": None},
        {"kind": "cli", "workload": "w", "wall_s": 9.0, "peak_rss_mb": 60.0,
         "error": "exit 1"},
    ]
    metrics, _ = summarize(records, "w", trace=False)
    assert {m["name"] for m in spec["end_to_end"]} <= set(metrics)
    assert metrics["wall_per_ref"] == (2.0 / 0.3, "ratio")  # failed run left out
    assert all(v > 0 for v, _ in metrics.values())
