"""Each script under scripts/ runs to completion and prints its summary."""

import math
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


def report_rows(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["size", "subsets", "eigvalsh", "confirmed"]
    assert lines[-1].startswith("total: ") and lines[-1].endswith(" s")
    return [[int(x) for x in line.split()] for line in lines[1:-2]], lines[-2]


def test_rpz_screen_report():
    # 12 qutrit kets: the closed-form screen sends few frames to eigvalsh
    rows, frames = report_rows(run_script("rpz_screen_report.py", "--d", "3", "--n-bases", "4", "--seed", "0"))
    assert [row[:2] for row in rows] == [[k, math.comb(12, k)] for k in range(1, 13)]
    assert all(1 <= confirmed <= screened <= subsets for _, subsets, screened, confirmed in rows)
    sent = int(frames.removeprefix("frames sent to eigvalsh: ").removesuffix(" of 2048"))
    assert sent < 2048 // 4
    # 6 qubit kets: every frame goes to eigvalsh
    rows, frames = report_rows(run_script("rpz_screen_report.py", "--d", "2", "--n-bases", "3", "--seed", "0"))
    assert [row[1] for row in rows] == [row[2] for row in rows] == [math.comb(6, k) for k in range(1, 7)]
    assert frames == "frames sent to eigvalsh: 32 of 32"


def test_rpz_screen_report_certified_pool():
    # 16 kets of d = 4: the Cholesky certificate clears most frames
    rows, frames = report_rows(run_script("rpz_screen_report.py", "--d", "4", "--n-bases", "4", "--seed", "0"))
    assert [row[:2] for row in rows] == [[k, math.comb(16, k)] for k in range(1, 17)]
    assert all(1 <= confirmed <= screened <= subsets for _, subsets, screened, confirmed in rows)
    sent = int(frames.removeprefix("frames sent to eigvalsh: ").removesuffix(" of 32768"))
    assert sent < 2000


def test_rpz_screen_report_family_set():
    # 9 family kets: every frame goes to eigvalsh, and every subset of 7 or
    # more kets ties at the frame bound 3, so the confirmation takes them all
    rows, frames = report_rows(run_script("rpz_screen_report.py", "--family", "0.3"))
    assert [row[:3] for row in rows] == [[k, math.comb(9, k), math.comb(9, k)] for k in range(1, 10)]
    assert [row[3] for row in rows[6:]] == [36, 9, 1]
    assert all(1 <= confirmed <= subsets for _, subsets, _, confirmed in rows)
    assert frames == "frames sent to eigvalsh: 256 of 256"


def test_rpz_screen_report_refuses_bad_family_arguments():
    for args in (("--family", "2"), ("--family", "nan"), ("--family", "0.3", "--d", "3"), ("--d", "3")):
        proc = run_script("rpz_screen_report.py", *args)
        assert proc.returncode == 2, args
        assert proc.stdout == "" and "error: " in proc.stderr and "Traceback" not in proc.stderr, args


def test_rpz_screen_report_refuses_bad_arguments():
    for args in (("--d", "1", "--n-bases", "3"), ("--d", "3", "--n-bases", "0"), ("--d", "3", "--n-bases", "9")):
        proc = run_script("rpz_screen_report.py", *args)
        assert proc.returncode == 2, args
        assert proc.stdout == "" and "error: " in proc.stderr and "Traceback" not in proc.stderr, args
