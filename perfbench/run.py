"""End-to-end benchmark of the bipoisson command line.

Each run of a workload is one ``bipoisson`` command in a fresh child process
(closed loop, one command at a time), timed from spawn to exit, with its
peak resident memory read from that child's own resource usage and its
output checked against an oracle. Set-up time is the import of
``bipoisson.cli`` plus building its parser, probed in fresh processes
between runs. With ``--trace 1`` every untraced run is followed by a run
under ``tracer.py``, which gives the per-layer metrics and the tracing
overhead.

On a shared 2-vCPU virtual machine (Xeon, 2.1 GHz) the machine's speed
drifted by up to a quarter over minutes while one 30-second window saw a
single speed, so one command's mean wall time moved by 12-28% (quartile
spread over ten windows) between windows. Each command run is therefore
preceded by a fixed reference child, and ``wall_per_ref`` is the workload's
mean wall time over the reference's mean wall time in the same window: it
moves with the program and not with the machine. ``wall_s`` is still
printed and recorded with every run.

    python3 perfbench/run.py --workload limit --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seconds 120     # every workload, round-robin

Runs go round-robin over the chosen workloads until ``--seconds`` would be
exceeded by one more round (there is at least one round). BLAS and OpenMP
pools are pinned to one thread. The last line of standard output is one
JSON object: correct, attempted, failed and the metrics; the line before it
holds the seed, the environment and every run with its start time.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from tracer import LAYER_METRICS, Trace, layer_metrics
from workloads import WORKLOADS, CheckFailed, Workload

ROOT = Path(__file__).resolve().parent.parent
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MIN_SETUP_PROBES = 5
CHILD_TIMEOUT_S = 80

CLI_CODE = "import sys; from bipoisson.cli import main; sys.exit(main())"
SETUP_CODE = """
import time
t0 = time.perf_counter()
import bipoisson.cli as cli
cli.build_parser()
t1 = time.perf_counter()
import json
print(json.dumps({"setup_s": t1 - t0, "file": cli.__file__}))
"""
# Reference work for wall_per_ref, a mix like the workloads' (interpreter
# start, numpy import, a Python loop, BLAS). It runs no bipoisson code, so no
# change to the library moves it.
REF_CODE = """
import numpy as np
s = 0
for i in range(400_000):
    s += i * i % 7
rng = np.random.default_rng(0)
z = rng.normal(size=(96, 96)) + 1j * rng.normal(size=(96, 96))
for _ in range(40):
    q, r = np.linalg.qr(z)
    z = q @ z
"""
ENV_CODE = """
import json, platform, numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
}))
"""


class ChildFailed(Exception):
    pass


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="milliseconds")


class Runner:
    """Spawns children against the checkout's sources, one at a time."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.env.update({var: str(THREADS) for var in THREAD_VARS})
        # A fixed hash seed keeps set and dict layouts, and so the work done
        # per run, the same from run to run.
        self.env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self._serial = 0

    def spawn(self, argv: list[str]) -> dict:
        """Run one child to completion; wall time from spawn to exit and the
        child's own peak RSS."""
        self._serial += 1
        out = self.workdir / f"{self._serial}.out"
        err = self.workdir / f"{self._serial}.err"
        reaped = threading.Event()
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=fo, stderr=fe)
            timer = threading.Timer(
                CHILD_TIMEOUT_S, lambda: reaped.is_set() or proc.kill())
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
                reaped.set()
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = {
            "wall_s": wall,
            "peak_rss_mb": usage.ru_maxrss / 1024,
            "exit_code": proc.returncode,
            "stdout": out.read_text(),
            "stderr": err.read_text(),
        }
        out.unlink()
        err.unlink()
        return result

    def _python(self, code: str) -> dict:
        res = self.spawn([sys.executable, "-c", code])
        if res["exit_code"] != 0:
            raise ChildFailed(res["stderr"].strip()[-2000:])
        return json.loads(res["stdout"].strip().splitlines()[-1])

    def setup_probe(self) -> dict:
        started = _now()
        probe = self._python(SETUP_CODE)
        if not Path(probe["file"]).resolve().is_relative_to(ROOT / "src"):
            raise ChildFailed(f"bipoisson imported from {probe['file']}")
        return {"kind": "setup", "started_at": started, "setup_s": probe["setup_s"]}

    def ref_probe(self, w: Workload) -> dict:
        started = _now()
        res = self.spawn([sys.executable, "-c", REF_CODE])
        if res["exit_code"] != 0:
            raise ChildFailed(res["stderr"].strip()[-2000:])
        return {"kind": "ref", "workload": w.name, "started_at": started,
                "wall_s": res["wall_s"], "error": None}

    def environment(self) -> dict:
        env = self._python(ENV_CODE)
        try:
            env["commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True,
                env=dict(self.env, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            env["commit"] = None  # not a git checkout
        env["threads"] = {var: self.env[var] for var in THREAD_VARS}
        env["nproc"] = os.cpu_count()
        env["cpus_allowed"] = len(os.sched_getaffinity(0))
        env["loadavg_at_start"] = os.getloadavg()
        return env

    def run(self, w: Workload, seed: int, traced: bool) -> dict:
        """One command of a workload, checked; traced runs add layer metrics."""
        args = w.argv(seed)
        spans = self.workdir / "spans.json"
        if traced:
            argv = [sys.executable, str(ROOT / "perfbench" / "tracer.py"),
                    str(spans), "--", *args]
        else:
            argv = [sys.executable, "-c", CLI_CODE, *args]
        started = _now()
        res = self.spawn(argv)
        rec = {"kind": "traced" if traced else "cli", "workload": w.name,
               "started_at": started, "wall_s": res["wall_s"],
               "peak_rss_mb": res["peak_rss_mb"], "exit_code": res["exit_code"],
               "error": None}
        try:
            if res["exit_code"] != 0:
                raise CheckFailed(f"exit {res['exit_code']}: "
                                  + res["stderr"].strip()[-2000:])
            w.check(res["stdout"])
        except CheckFailed as exc:
            rec["error"] = str(exc)
        if traced:
            try:
                trace = Trace(json.loads(spans.read_text()))
            except (OSError, ValueError) as exc:
                rec["error"] = rec["error"] or f"span file unreadable: {exc}"
                return rec
            finally:
                spans.unlink(missing_ok=True)
            rec["layers"], rec["absent"] = layer_metrics(trace)
            rec["profile"] = trace.profile()
        return rec


def measure(runner: Runner, workloads: list[Workload], seed: int,
            seconds: float, trace: bool) -> list[dict]:
    """Round-robin over the workloads until one more round would overrun."""
    records = []
    deadline = time.monotonic() + seconds
    while True:
        t0 = time.monotonic()
        for w in workloads:
            if not trace:
                records.append(runner.setup_probe())
                records.append(runner.ref_probe(w))
            records.append(runner.run(w, seed, traced=False))
            if trace:
                records.append(runner.run(w, seed, traced=True))
        if time.monotonic() + (time.monotonic() - t0) > deadline:
            break
    while not trace and sum(r["kind"] == "setup" for r in records) < MIN_SETUP_PROBES:
        records.append(runner.setup_probe())
    return records


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(records: list[dict], w: str, trace: bool) -> tuple[dict, dict]:
    """(metrics as {name: (value, unit)}, absent layer metrics) of one
    workload; failed runs are left out unless all fail.

    Command and reference times are means over the runs in the window,
    which weigh each speed state of the machine by its share of the window;
    set-up time, memory and the per-layer figures are medians.
    """
    def runs(kind):
        mine = [r for r in records if r.get("workload") == w and r["kind"] == kind]
        return [r for r in mine if r["error"] is None] or mine

    cli = runs("cli")
    if not trace:
        setup = [r["setup_s"] for r in records if r["kind"] == "setup"]
        wall = statistics.fmean(r["wall_s"] for r in cli)
        return {
            "wall_per_ref": (wall / statistics.fmean(r["wall_s"] for r in runs("ref")),
                             "ratio"),
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in cli), "MB"),
        }, {}
    traced = runs("traced")
    metrics, absent = {}, {}
    for name, (unit, _, _) in LAYER_METRICS.items():
        values = [r["layers"][name] for r in traced
                  if name in r.get("layers", {})]
        if values:
            metrics[name] = (statistics.median(values), unit)
        else:
            absent[name] = next((r["absent"][name] for r in traced
                                 if name in r.get("absent", {})), "not measured")
            metrics[name] = (0, unit)
    metrics["trace_overhead_s"] = (
        statistics.fmean(r["wall_s"] for r in traced)
        - statistics.fmean(r["wall_s"] for r in cli), "s")
    return metrics, absent


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "bipoisson" / "cli.py").is_file():
        print(f"no bipoisson sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workloads = [WORKLOADS[n] for n in names]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        runner = Runner(Path(tmp))
        try:
            env = runner.environment()
            runner.setup_probe()  # fills the bytecode cache; not counted
            records = measure(runner, workloads, args.seed, args.seconds,
                              bool(args.trace))
        except ChildFailed as exc:
            print(f"benchmark child failed: {exc}", file=sys.stderr)
            return 1

    metrics, absent = {}, {}
    for w in names:
        m, a = summarize(records, w, bool(args.trace))
        mine = [r for r in records
                if r.get("workload") == w and r["kind"] in ("cli", "traced")]
        error_rate = sum(r["error"] is not None for r in mine) / len(mine)
        q1, med, q3 = _quartiles([r["wall_s"] for r in mine if r["kind"] == "cli"])
        print(f"{w}: {sum(r['kind'] == 'cli' for r in mine)} runs (wall_s median "
              f"{med:.3f} s, quartiles {q1:.3f} to {q3:.3f}), error_rate {error_rate:g}; "
              + "; ".join(f"{k} {v:.6g} {u}" for k, (v, u) in m.items()))
        if len(names) == 1:
            # exactly the metrics BENCHMARK.json declares; the error rate
            # travels as attempted/failed, wall_s in the lines above
            declared = spec["per_layer" if args.trace else "end_to_end"]
            metrics = {d["name"]: m[d["name"]] for d in declared}
            absent = a
        else:
            metrics.update({f"{w}.{k}": v for k, v in m.items()})
            metrics[f"{w}.error_rate"] = (error_rate, "ratio")
            absent.update({f"{w}.{k}": v for k, v in a.items()})

    attempted = [r for r in records if r["kind"] in ("cli", "traced")]
    failed = sum(r["error"] is not None for r in attempted)
    for r in attempted:
        if r["error"]:
            print(f"FAILED {r['workload']} {r['kind']} run: {r['error']}")
    print(json.dumps({"report": {
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "workloads": names, "environment": env, "absent": absent,
        "runs": records}}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(attempted),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
