"""The four benchmark workloads and their correctness checks.

Each workload generates its inputs from the seed, runs one pass over that
fixed input (timed per instance where instances are separate calls), and
checks every answer afterwards, outside the timed region.  Every call into
eurkit goes through ``tracer.wrap`` so a traced pass records a span per
public call; with tracing off ``wrap`` returns the function itself.
README.md says why each workload is there and which layers it loads.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from eurkit.bounds import (
    bound_report,
    lmf_bound,
    lmf_bound_best_ordering,
    rpz_profile,
    scb_bound,
)
from eurkit.cli import sweep_csv
from eurkit.entropy import entropy_sum, von_neumann_entropy
from eurkit.family import build_family, entropy_total_closed_form, sweep
from eurkit.linalg import DataQualityError, DensityOperator, ProjectiveMeasurement
from eurkit.pulses import CHANNELS, Pulse, verify_projection_sequence
from eurkit.tomography import TomographyRecord, fidelity, reconstruct, simulate_projections
from tracing import NullTracer

REFERENCE_PATH = Path(__file__).with_name("reference.json")
TOL = 1e-9


@dataclass
class PassResult:
    """One pass over a workload's fixed input.

    ``latencies_s`` holds one entry per instance for workloads whose
    instances are separate calls, else the pass time alone.
    """

    wall_s: float
    latencies_s: list[float]
    outputs: list
    extra: dict = field(default_factory=dict)


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def shannon_bits(p) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 0.0]
    return float(-np.sum(p * np.log2(p)))


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def timed_instances(tracer, items, call) -> PassResult:
    """Run ``call`` on each item, timing each; a raised error is the output."""
    latencies, outputs = [], []
    start = perf_counter_ns()
    for i, item in enumerate(items):
        tracer.instance = i
        t0 = perf_counter_ns()
        try:
            out = call(item)
        except Exception as exc:  # a refused or crashed instance is a failed one
            out = exc
        latencies.append((perf_counter_ns() - t0) / 1e9)
        outputs.append(out)
    return PassResult((perf_counter_ns() - start) / 1e9, latencies, outputs)


# --------------------------------------------------------------- family_sweep


class FamilySweep:
    name = "family_sweep"
    latency_unit = "pass"
    STEPS = 1001

    def generate(self, seed: int) -> list[float]:
        # The grid `eurkit sweep --steps 1001` builds; the seed varies nothing
        # here, since the CSV must match its recorded digest.
        frm, to = 0.0, 1.0
        span = to - frm
        return [frm + span * i / (self.STEPS - 1) for i in range(self.STEPS)]

    def instances(self, grid) -> int:
        return 2 * len(grid)  # one row per (a, reference state)

    def warm(self, grid) -> None:
        sweep_csv(sweep(grid[::100]))

    def run_pass(self, grid, tracer) -> PassResult:
        run_sweep = tracer.wrap("family.sweep", sweep)
        to_csv = tracer.wrap("cli.sweep_csv", sweep_csv)
        tracer.instance = 0
        start = perf_counter_ns()
        try:
            rows = run_sweep(grid)
            out = (rows, to_csv(rows))
        except Exception as exc:  # the whole job failed
            out = exc
        wall = (perf_counter_ns() - start) / 1e9
        return PassResult(wall, [wall], [out])

    def input_failures(self, grid) -> dict[int, str]:
        return {}

    def failures(self, grid, outputs) -> dict[int, str]:
        (out,) = outputs
        every_row = range(self.instances(grid))
        if isinstance(out, Exception):
            return {i: f"sweep raised {out!r}" for i in every_row}
        rows, csv = out
        digest = hashlib.sha256(csv.encode("utf-8")).hexdigest()
        if digest != load_reference()["sweep_csv_sha256"]:
            return {i: f"sweep CSV digest {digest} differs from the recorded one" for i in every_row}
        bad = {}
        expected = [(a, label) for a in grid for label in ("minus1", "zero")]
        if len(rows) != len(expected):
            return {i: f"sweep gave {len(rows)} rows, expected {len(expected)}" for i in every_row}
        for i, (row, (a, label)) in enumerate(zip(rows, expected)):
            if (row.a, row.state_label) != (a, label):
                bad[i] = f"row {i} is ({row.a}, {row.state_label}), expected ({a}, {label})"
            elif abs(row.entropy_total - entropy_total_closed_form(a, label)) > TOL:
                bad[i] = f"row {i}: entropy_total {row.entropy_total!r} off the closed form"
            elif max(row.scb, row.lmf, row.rpz) > row.entropy_total + TOL:
                bad[i] = f"row {i}: a bound exceeds entropy_total {row.entropy_total!r}"
        return bad


# ----------------------------------------------------------- random_dominance


@dataclass(frozen=True)
class StatePair:
    a: float
    rho: DensityOperator
    spectrum: np.ndarray
    eigenbasis: np.ndarray  # columns are the eigenvectors of rho


def random_state(rng, spectrum) -> tuple[DensityOperator, np.ndarray]:
    v = haar_unitary(rng, len(spectrum))
    return DensityOperator((v * spectrum) @ v.conj().T), v


class RandomDominance:
    name = "random_dominance"
    latency_unit = "instance"
    PAIRS = 1000

    def generate(self, seed: int) -> list[StatePair]:
        rng = np.random.default_rng(seed)
        pairs = []
        for i in range(self.PAIRS):
            a = float(rng.uniform())
            spectrum = np.array([1.0, 0.0, 0.0]) if i % 2 == 0 else rng.dirichlet(np.ones(3))
            rho, v = random_state(rng, spectrum)
            pairs.append(StatePair(a, rho, spectrum, v))
        return pairs

    def instances(self, pairs) -> int:
        return len(pairs)

    def warm(self, pairs) -> None:
        for p in pairs[:20]:
            bound_report(build_family(p.a), p.rho)

    def run_pass(self, pairs, tracer) -> PassResult:
        build = tracer.wrap("family.build_family", build_family)
        report = tracer.wrap("bounds.bound_report", bound_report)
        return timed_instances(tracer, pairs, lambda p: report(build(p.a), p.rho))

    def input_failures(self, pairs) -> dict[int, str]:
        # Noiseless round trip: rho was built from a known spectrum.
        bad = {}
        for i, p in enumerate(pairs):
            err = abs(von_neumann_entropy(p.rho) - shannon_bits(p.spectrum))
            if not err < TOL:
                bad[i] = f"instance {i}: S(rho) misses the entropy of its spectrum by {err:.3e}"
        return bad

    def failures(self, pairs, outputs) -> dict[int, str]:
        bad = {}
        for i, (p, rep) in enumerate(zip(pairs, outputs)):
            if isinstance(rep, Exception):
                bad[i] = f"instance {i} raised {rep!r}"
                continue
            # Independent oracle: p_j = sum_k lambda_k |<u_j|v_k>|^2.
            oracle = sum(
                shannon_bits(np.abs(m.basis.conj() @ p.eigenbasis) ** 2 @ p.spectrum)
                for m in build_family(p.a)
            )
            bounds = [rep.scb, rep.lmf, rep.rpz]
            if rep.lmf_best_ordering is not None:
                bounds.append(rep.lmf_best_ordering)
            per = dict(rep.per_measurement)
            mu_ok = all(
                value <= per[pair.split("|")[0]] + per[pair.split("|")[1]] + TOL
                for pair, value in rep.mu_pairwise
            )
            if abs(rep.entropy_total - oracle) > TOL:
                bad[i] = f"instance {i}: entropy_total {rep.entropy_total!r}, oracle {oracle!r}"
            elif max(bounds) > rep.entropy_total + TOL or not mu_ok or not rep.all_satisfied:
                bad[i] = f"instance {i}: a bound exceeds the entropy sum"
        return bad


# --------------------------------------------------------------- pool_scaling

# Largest sizes the benchmark will run (rpz counts pooled vectors, the
# others measurements).  rpz_profile materializes every k-subset block,
# so n = 24 would need about 6 GB; scb and lmf have no library cap.
SIZE_CAPS = {"rpz_profile": 18, "scb_bound": 8, "lmf_bound": 16, "lmf_bound_best_ordering": 5}

# (kernel, d, N), in ascending size per kernel.
LADDER = (
    ("rpz_profile", 3, 4),
    ("rpz_profile", 3, 5),
    ("rpz_profile", 4, 4),
    ("rpz_profile", 3, 6),
    ("scb_bound", 2, 6),
    ("scb_bound", 2, 7),
    ("scb_bound", 2, 8),
    ("lmf_bound", 2, 12),
    ("lmf_bound", 2, 14),
    ("lmf_bound", 2, 16),
    ("lmf_bound_best_ordering", 3, 5),
)
KERNELS = {
    "rpz_profile": rpz_profile,
    "scb_bound": scb_bound,
    "lmf_bound": lmf_bound,
    "lmf_bound_best_ordering": lmf_bound_best_ordering,
}


def case_name(kernel: str, d: int, n: int) -> str:
    size = f"n{d * n}" if kernel == "rpz_profile" else f"d{d}n{n}"
    return f"bounds.{kernel}.{size}"


def check_sizes(ladder) -> None:
    """Refuse oversize cases before any work starts."""
    for kernel, d, n in ladder:
        size = d * n if kernel == "rpz_profile" else n
        if size > SIZE_CAPS[kernel]:
            raise ValueError(
                f"{case_name(kernel, d, n)} exceeds the benchmark cap {SIZE_CAPS[kernel]} for {kernel}"
            )


def work_count(kernel: str, d: int, n: int) -> tuple[str, int]:
    """The kernel's work as the seed code enumerates it (computed, not measured)."""
    if kernel == "rpz_profile":
        return "subsets", 2 ** (d * n) - 1
    if kernel == "scb_bound":
        return "chains", sum(math.perm(n, k) for k in range(2, n + 1))
    if kernel == "lmf_bound":
        return "tuples", d ** (n - 1)
    return "orderings", math.factorial(n)


@dataclass(frozen=True)
class PoolCase:
    name: str
    kernel: str
    n: int
    measurements: list
    rho: DensityOperator
    expected: object


class PoolScaling:
    name = "pool_scaling"
    latency_unit = "pass"

    def generate(self, seed: int) -> list[PoolCase]:
        """The recorded pools under a seeded global unitary and relabelling.

        Every answer is invariant under a unitary applied to all kets and
        under permuting the kets of a basis; all but lmf (which depends on
        measurement order) are also invariant under reordering the bases.
        So the seed varies the input while the recorded answers still hold.
        """
        rng = np.random.default_rng(seed)
        recorded = load_reference()["pool"]
        cases = []
        for kernel, d, n in LADDER:
            name = case_name(kernel, d, n)
            bases = [np.array([[complex(*z) for z in ket] for ket in b]) for b in recorded[name]["bases"]]
            if kernel != "lmf_bound":
                bases = [bases[j] for j in rng.permutation(n)]
            u = haar_unitary(rng, d)
            ms = [
                ProjectiveMeasurement(b[rng.permutation(d)] @ u.T, f"M{j + 1}")
                for j, b in enumerate(bases)
            ]
            rho = DensityOperator.from_ket(np.eye(d)[0])
            cases.append(PoolCase(name, kernel, n, ms, rho, recorded[name]["value"]))
        return cases

    def instances(self, cases) -> int:
        return len(cases)

    def warm(self, cases) -> None:
        rpz_profile(cases[0].measurements)

    def run_pass(self, cases, tracer) -> PassResult:
        outputs, seconds, rss_mb = [], {}, {}
        start = perf_counter_ns()
        for i, case in enumerate(cases):
            tracer.instance = i
            fn = KERNELS[case.kernel]
            args = (case.measurements,) if case.kernel == "rpz_profile" else (case.measurements, case.rho)
            t0 = perf_counter_ns()
            with tracer.span(case.name):
                try:
                    out = fn(*args)
                except Exception as exc:  # a failed case
                    out = exc
            seconds[case.name] = (perf_counter_ns() - t0) / 1e9
            rss_mb[case.name] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            outputs.append(out)
        wall = (perf_counter_ns() - start) / 1e9
        return PassResult(wall, [wall], outputs, {"case_s": seconds, "rss_mb": rss_mb})

    def input_failures(self, cases) -> dict[int, str]:
        return {}

    def failures(self, cases, outputs) -> dict[int, str]:
        bad = {}
        for i, (case, out) in enumerate(zip(cases, outputs)):
            if isinstance(out, Exception):
                bad[i] = f"{case.name} raised {out!r}"
                continue
            if case.kernel != "rpz_profile":
                if abs(out - case.expected) > TOL:
                    bad[i] = f"{case.name} = {out!r}, recorded {case.expected!r}"
                continue
            s = np.asarray(out.s_coeffs)
            if s.shape != (len(case.expected),) or np.max(np.abs(s - case.expected)) > TOL:
                bad[i] = f"{case.name} profile differs from the recorded one"
            elif abs(s[0] - 1.0) > TOL or abs(s[-1] - case.n) > TOL or np.any(np.diff(s) < 0.0):
                bad[i] = f"{case.name} profile breaks S_0 = 1, S_last = N or monotonicity"
        return bad


# ---------------------------------------------------------------- lab_records


@dataclass(frozen=True)
class LabRecord:
    rho: DensityOperator
    sets: tuple
    target: np.ndarray
    pulses: tuple


@dataclass(frozen=True)
class LabOutput:
    raw_rho: np.ndarray
    rho: DensityOperator
    fidelity: float
    entropy_total: float
    scb: float
    lmf: float
    pulse_fidelity: float


def prepare_oracle(pulses) -> np.ndarray:
    """|0> after the pulses, from U = cos(t/2) 1 - i sin(t/2) G with
    G = [[0, e^{-i phi}], [e^{i phi}, 0]] on the driven pair."""
    psi = np.array([1.0, 0.0, 0.0], dtype=complex)
    for p in pulses:
        a, b = p.channel.subspace
        g = np.zeros((3, 3), dtype=complex)
        g[a, b] = np.exp(-1j * p.channel.phase)
        g[b, a] = np.exp(1j * p.channel.phase)
        spectator = np.eye(3)
        spectator[a, a] = spectator[b, b] = 0.0
        u = spectator + math.cos(p.angle / 2) * (np.eye(3) - spectator) - 1j * math.sin(p.angle / 2) * g
        psi = u @ psi
    return psi


class LabRecords:
    name = "lab_records"
    latency_unit = "instance"
    RECORDS = 1000
    SHOTS = 1000
    FAMILY_A = 0.5
    # Every eigenvalue of a true state is at least this.  With 1000 shots
    # the raw reconstruction's lowest eigenvalue scatters by about 0.018
    # (worst of 20 000 draws: 0.107 below the true one), so records stay
    # inside the -0.05 admission window and no instance is refused.
    EIGEN_FLOOR = 0.1

    def generate(self, seed: int):
        rng = np.random.default_rng(seed)
        channels = sorted(CHANNELS)
        records = []
        for i in range(self.RECORDS):
            spectrum = np.array([1.0, 0.0, 0.0]) if i % 2 == 0 else rng.dirichlet(np.ones(3))
            rho, _ = random_state(rng, (1.0 - 3 * self.EIGEN_FLOOR) * spectrum + self.EIGEN_FLOOR)
            ideal = simulate_projections(rho)
            p = np.clip([ideal.set1, ideal.set2, ideal.set3], 0.0, 1.0)
            counts = rng.binomial(self.SHOTS, p) / self.SHOTS
            sets = tuple(tuple(float(v) for v in row) for row in counts)
            k = int(rng.integers(1, 5))
            pulses = tuple(
                Pulse(CHANNELS[channels[c]], float(t))
                for c, t in zip(rng.integers(0, len(channels), k), rng.uniform(0.0, 2 * math.pi, k))
            )
            records.append(LabRecord(rho, sets, prepare_oracle(pulses), pulses))
        return build_family(self.FAMILY_A), records

    def instances(self, inputs) -> int:
        return len(inputs[1])

    def warm(self, inputs) -> None:
        self.run_pass((inputs[0], inputs[1][:20]), NullTracer())

    def run_pass(self, inputs, tracer) -> PassResult:
        fixed, records = inputs
        make_record = tracer.wrap("tomography.TomographyRecord", TomographyRecord)
        rebuild = tracer.wrap("tomography.reconstruct", reconstruct)
        fid = tracer.wrap("tomography.fidelity", fidelity)
        esum = tracer.wrap("entropy.entropy_sum", entropy_sum)
        scb = tracer.wrap("bounds.scb_bound", scb_bound)
        lmf = tracer.wrap("bounds.lmf_bound", lmf_bound)
        verify = tracer.wrap("pulses.verify_projection_sequence", verify_projection_sequence)

        def one(r: LabRecord) -> LabOutput:
            result = rebuild(make_record(*r.sets))
            raw = result.raw_rho
            raw = 0.5 * (raw + raw.conj().T)
            return LabOutput(
                raw_rho=result.raw_rho,
                rho=result.rho,
                fidelity=fid(raw / raw.trace().real, r.rho),
                entropy_total=esum(fixed, result.rho).total,
                scb=scb(fixed, result.rho),
                lmf=lmf(fixed, result.rho),
                pulse_fidelity=verify(r.target, r.pulses),
            )

        return timed_instances(tracer, records, one)

    def input_failures(self, inputs) -> dict[int, str]:
        bad = {}
        for i, r in enumerate(inputs[1]):
            err = float(np.max(np.abs(reconstruct(simulate_projections(r.rho)).rho.matrix - r.rho.matrix)))
            if not err < TOL:
                bad[i] = f"record {i}: noiseless round trip is off by {err:.3e}"
        return bad

    def failures(self, inputs, outputs) -> dict[int, str]:
        bad = {}
        for i, out in enumerate(outputs):
            if isinstance(out, Exception):
                bad[i] = f"record {i} raised {out!r}"
            elif max(out.scb, out.lmf) > out.entropy_total + TOL:
                bad[i] = f"record {i}: a bound exceeds entropy_total {out.entropy_total!r}"
            elif not 0.0 <= out.fidelity <= 1.0:
                bad[i] = f"record {i}: fidelity {out.fidelity!r} outside [0, 1]"
            elif out.pulse_fidelity < 1.0 - TOL:
                bad[i] = f"record {i}: pulse sequence reaches fidelity {out.pulse_fidelity!r}, not 1"
        return bad

    @staticmethod
    def spectrum_counts(outputs) -> dict[str, float]:
        """Shares of records whose raw spectrum went negative, and refused."""
        repaired = sum(
            1
            for out in outputs
            if isinstance(out, LabOutput)
            and np.linalg.eigvalsh(0.5 * (out.raw_rho + out.raw_rho.conj().T)).min() < 0.0
        )
        rejected = sum(1 for out in outputs if isinstance(out, DataQualityError))
        return {"repaired_frac": repaired / len(outputs), "rejected_frac": rejected / len(outputs)}


WORKLOADS = {w.name: w for w in (FamilySweep(), RandomDominance(), PoolScaling(), LabRecords())}
