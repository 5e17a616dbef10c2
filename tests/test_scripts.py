"""The experiment scripts in `scripts/`, each run at a tiny size in a fresh
interpreter: exit status 0 and the report lines each one promises."""

import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import bipoisson
from bipoisson.matrix_models import IMAG_RESIDUE_TOLERANCE

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str, *args: str) -> list[str]:
    src = Path(bipoisson.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_fock_check():
    lines = run_script("run_fock_check.py", "--N", "2")
    # every chi of length 1..N+1, then the summary line
    assert [line.split()[0] for line in lines[:-1]] == [
        f"chi={''.join(c)}"
        for m in (1, 2, 3)
        for c in itertools.product("lr", repeat=m)
    ]
    assert all("target=+0.000000 " in line for line in lines[6:-1])
    worst = re.fullmatch(r"worst error: (\S+)", lines[-1])
    assert worst and float(worst.group(1)) < 1e-12


def test_limit_convergence():
    lines = run_script("run_limit_convergence.py", "--deg", "2", "--sizes", "4,8")
    assert [line.split("max_abs_err=")[0].strip() for line in lines[:2]] == [
        "N=    4", "N=    8",
    ]
    slope = re.fullmatch(r"log-log slope: (\S+)", lines[2])
    assert slope and abs(float(slope.group(1)) + 1) < 0.05
    assert len(lines) == 3


def check_matrix_sweep(*laws: str) -> None:
    lines = run_script(
        "run_matrix_sweep.py", "--rates", "0.5,2.5", "--sizes", "8,12",
        "--trials", "4", "--max-word", "2", *laws,
    )
    assert [line.split()[0] for line in lines] == [
        "rate=0.5", "n=", "n=", "rate=2.5", "n=", "n=",
    ]
    for line in lines:
        if line.startswith("  n="):
            assert re.search(r" outside_3se=\d+ ", line)
            residue = re.search(r"imag_residue=(\S+)$", line)
            assert residue and float(residue.group(1)) < IMAG_RESIDUE_TOLERANCE


def test_matrix_sweep():
    check_matrix_sweep()


def test_matrix_sweep_independent_slots():
    check_matrix_sweep("--right-atoms", "0.5:0.5,3:0.5")
