"""Each script under scripts/ runs to completion and prints its summary."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )


def test_dominance_scan():
    proc = run_script("dominance_scan.py", "--n", "20", "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:3]] == ["scb", "lmf", "rpz"]
    assert all(": worst margin " in line for line in lines[:3])
    assert lines[3] == "0 of 20 instances violated a check at slack 1e-09"


def test_pulse_table_report():
    proc = run_script("pulse_table_report.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "all rows verified"
    assert lines[:-1] and all(line.startswith("row ") and "  pass  " in line for line in lines[:-1])


def test_dominance_scan_refuses_bad_arguments():
    for args in (("--n", "0"), ("--n", "-3"), ("--slack", "nan"), ("--slack", "-1")):
        proc = run_script("dominance_scan.py", *args)
        assert proc.returncode == 2, args
        assert proc.stdout == "" and "error: --" in proc.stderr and "Traceback" not in proc.stderr, args
