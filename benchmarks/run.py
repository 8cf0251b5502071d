#!/usr/bin/env python3
"""eurkit benchmark: times the library in-process, checks every answer.

Run from the repository root:

    python3 benchmarks/run.py --workload random_dominance --seed 1 --seconds 25 --trace 0

``--trace 0`` times untraced passes over the workload's fixed input until
``--seconds`` have passed and prints the end-to-end metrics.  ``--trace 1``
is the separate traced run: it alternates untraced and traced passes of the
workload for ``--seconds`` (their difference is the tracing overhead), then
makes one traced pass of every other workload so that every layer metric is
measured, and prints the per-layer metrics.  Spans go to
``benchmarks/results/spans-<workload>-seed<seed>.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
answer checked out, 1 when one did not, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
# One BLAS thread: the machine has two cores and the timings must not
# depend on how many the library happens to grab.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 7
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import eurkit\n"
    "print(time.perf_counter() - t)\n"
)
TIME_SCALE = {"us": 1e3, "ms": 1e6, "s": 1e9}  # ns per unit

# Per-layer timings: "<span name>.<unit>" is the median inclusive time per
# call of that span over the traced run.
LAYER_TIMINGS = (
    "family.build_family.us",
    "cli.sweep_csv.ms",
    "bounds.rpz_bound.ms",
    "bounds.bound_report.ms",
    "bounds.scb_bound.ms",
    "bounds.lmf_bound.ms",
    "bounds.lmf_bound_best_ordering.ms",
    "bounds.mu_bound.us",
    "entropy.entropy_sum.us",
    "entropy.von_neumann_entropy.us",
    "linalg.as_density_matrix.us",
    "linalg.born_probabilities.us",
    "linalg.overlap_c.us",
    "tomography.reconstruct.us",
    "tomography.fidelity.us",
    "pulses.verify_projection_sequence.us",
)


def fail(message: str) -> int:
    print(f"benchmark: {message}", file=sys.stderr)
    return 2


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description="eurkit benchmark")
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def fresh_import_s() -> float:
    """Time of `import eurkit` in a new interpreter, as that interpreter sees it."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(out.stdout)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import eurkit
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "eurkit": eurkit.__version__,
        "blas_pin": {k: os.environ.get(k) for k in BLAS_PIN},
        "seed": seed,
    }


def run_passes(workload, inputs, seconds: float, input_bad: dict) -> tuple[list, list[dict]]:
    """Untraced passes for ``seconds``: at least one, and no further pass
    once the mean pass so far would end past the deadline.

    Each pass is checked as soon as it ends and its answers are dropped,
    so memory does not grow with the number of passes.
    """
    from tracing import NullTracer

    passes, failures = [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() + statistics.fmean(p.wall_s for p in passes) <= deadline:
        p = workload.run_pass(inputs, NullTracer())
        failures.append({**workload.failures(inputs, p.outputs), **input_bad})
        p.outputs = None
        passes.append(p)
    return passes, failures


def tally(workload, inputs, failures: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, first few failure messages), given each pass's failures."""
    messages = [m for bad in failures for m in bad.values()][:5]
    return workload.instances(inputs) * len(failures), sum(map(len, failures)), messages


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def timed_run(workload, args) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        import_s = fresh_import_s()
        t0 = time.perf_counter()
        inputs = workload.generate(args.seed)
        setups.append(import_s + time.perf_counter() - t0)
    workload.warm(inputs)
    passes, failures = run_passes(workload, inputs, args.seconds, workload.input_failures(inputs))
    attempted, failed, messages = tally(workload, inputs, failures)

    # Contention on the shared host comes in phases of tens of seconds that
    # speed passes up by as much as 1.7x.  How much of a run they cover
    # varies, which moved a run's mean or median by up to 30% between
    # seeds.  What they leave steady is the slow end: the slowest pass (its
    # time and its median instance) and the p99 over every instance.
    slowest = max(passes, key=lambda p: p.wall_s)
    latencies = [t for p in passes for t in p.latencies_s]
    p99 = statistics.quantiles(latencies, n=100, method="inclusive")[98] if len(latencies) > 1 else latencies[0]
    metrics = {
        "wall_s": metric(slowest.wall_s, "s"),
        "throughput_per_s": metric(workload.instances(inputs) / slowest.wall_s, "1/s"),
        "latency_p50_ms": metric(statistics.median(slowest.latencies_s) * 1e3, "ms"),
        "latency_p99_ms": metric(p99 * 1e3, "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "setup_s_each": setups,
        "latency_unit": workload.latency_unit,
        "latency_samples": len(latencies),
        "latency_samples_beyond_p99": sum(t > p99 for t in latencies),
        "failed_frac": failed / attempted,
    }
    return {"attempted": attempted, "failed": failed, "messages": messages, "metrics": metrics, "detail": detail}


def traced_run(workloads: dict, args) -> dict:
    from tracing import NullTracer, Tracer
    from workloads import LADDER, LabRecords, PoolScaling, case_name, work_count

    tracer = Tracer()

    @contextlib.contextmanager
    def traced(name):
        with tracer.instrument(), tracer.span(f"pass.{name}"):
            yield tracer

    selected = workloads[args.workload]
    inputs = {name: w.generate(args.seed) for name, w in workloads.items()}
    for name, w in workloads.items():
        w.warm(inputs[name])

    # Untraced and traced passes alternate, in pairs, for --seconds as in
    # run_passes; the mean difference within a pair is the overhead.
    untraced, traced_passes = [], []
    deadline = time.perf_counter() + args.seconds
    while not traced_passes or time.perf_counter() + statistics.fmean(
        u.wall_s + t.wall_s for u, t in zip(untraced, traced_passes)
    ) <= deadline:
        untraced.append(selected.run_pass(inputs[args.workload], NullTracer()))
        with traced(args.workload):
            traced_passes.append(selected.run_pass(inputs[args.workload], tracer))
    overhead_s = statistics.fmean(t.wall_s - u.wall_s for u, t in zip(untraced, traced_passes))
    traced_by_name = {args.workload: traced_passes}
    for name, w in workloads.items():
        if name != args.workload:
            with traced(name):
                traced_by_name[name] = [w.run_pass(inputs[name], tracer)]
    passes = {**traced_by_name, args.workload: untraced + traced_passes}

    attempted = failed = 0
    messages: list[str] = []
    for name, w in workloads.items():
        input_bad = w.input_failures(inputs[name])
        a, f, m = tally(w, inputs[name], [{**w.failures(inputs[name], p.outputs), **input_bad} for p in passes[name]])
        attempted, failed = attempted + a, failed + f
        messages.extend(m)

    layers = tracer.layers()
    metrics = {}
    for name in LAYER_TIMINGS:
        span, unit = name.rsplit(".", 1)
        metrics[name] = metric(layers[span]["median_us"] * 1e3 / TIME_SCALE[unit], unit)
    metrics["bounds.report_overhead_ms"] = metric(layers["bounds.bound_report"]["median_self_us"] / 1e3, "ms")
    pool_passes = traced_by_name[PoolScaling.name]
    for kernel, d, n in LADDER:
        case = case_name(kernel, d, n)
        metrics[f"{case}.s"] = metric(statistics.median(p.extra["case_s"][case] for p in pool_passes), "s")
        what, count = work_count(kernel, d, n)
        metrics[f"{case}.{what}"] = metric(count, "count")
    n18 = case_name("rpz_profile", 3, 6)
    metrics[f"{n18}.rss_mb"] = metric(max(p.extra["rss_mb"][n18] for p in pool_passes), "MB")
    lab_outputs = [out for p in traced_by_name[LabRecords.name] for out in p.outputs]
    for key, value in LabRecords.spectrum_counts(lab_outputs).items():
        metrics[f"tomography.{key}"] = metric(value, "fraction")
    metrics["tracing.overhead_s"] = metric(overhead_s, "s")

    RESULTS_DIR.mkdir(exist_ok=True)
    spans_path = RESULTS_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"environment": environment(args.seed), **tracer.as_json()}, fh)
    detail = {
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans": len(tracer.spans),
        "untraced_wall_s": [p.wall_s for p in untraced],
        "traced_wall_s": [p.wall_s for p in traced_passes],
        "layers": layers,
    }
    return {"attempted": attempted, "failed": failed, "messages": messages, "metrics": metrics, "detail": detail}


def main(argv=None) -> int:
    # The pin must be in place before numpy (and so OpenBLAS) is loaded.
    os.environ.update(BLAS_PIN)
    if not (SRC / "eurkit" / "__init__.py").is_file():
        return fail(f"no eurkit sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import eurkit

    if Path(eurkit.__file__).resolve().parent != SRC / "eurkit":
        return fail(f"imported eurkit from {eurkit.__file__}, not from {SRC}")
    from workloads import LADDER, WORKLOADS, check_sizes

    args = parse_args(argv, sorted(WORKLOADS))
    try:
        check_sizes(LADDER)
    except ValueError as exc:
        return fail(str(exc))

    result = traced_run(WORKLOADS, args) if args.trace else timed_run(WORKLOADS[args.workload], args)
    correct = result["failed"] == 0
    RESULTS_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": result["messages"],
        "metrics": result["metrics"],
        "detail": result["detail"],
    }
    with open(RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for message in result["messages"]:
        print(f"benchmark: wrong answer: {message}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    for name, value in result["detail"].items():
        if isinstance(value, (int, float, str)):
            print(f"{args.workload} ({name}) {value}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
