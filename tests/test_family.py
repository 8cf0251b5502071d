import copy as copy_module
import errno
import functools
import hashlib
import json
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from eurkit.bounds import lmf_bound, rpz_profile, scb_bound
from eurkit.documents import builtin_state
from eurkit.entropy import binary_entropy, entropy_sum
from eurkit.family import (
    GRID_POINTS_DEFAULT,
    SWEEP_CHUNK,
    SweepRow,
    build_family,
    default_grid,
    entropy_total_closed_form,
    sweep,
)
from eurkit.linalg import DensityOperator, ProjectiveMeasurement, ValidationError, ray_fidelity
from eurkit.sampling import random_density

CURVE_TOL = 1e-9


class TestBuildFamily:
    def test_labels_and_orthonormality(self):
        for a in (0.0, 0.25, 0.5, 1.0):
            m1, m2, m3 = build_family(a)
            assert (m1.label, m2.label, m3.label) == ("M1", "M2", "M3")
            for m in (m1, m2, m3):
                assert_allclose(m.basis.conj() @ m.basis.T, np.eye(3), atol=1e-12)

    def test_m3_at_half(self):
        m3 = build_family(0.5)[2]
        assert_allclose(m3.basis[0], np.array([1, 1, 0]) / np.sqrt(2.0), atol=1e-12)

    def test_endpoint_a1_m3_rays_coincide_with_m1(self):
        m1, _, m3 = build_family(1.0)
        for v3 in m3.basis:
            assert max(ray_fidelity(v3, v1) for v1 in m1.basis) > 1.0 - 1e-12

    @pytest.mark.parametrize("bad", [-0.01, 1.01, float("nan")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValidationError):
            build_family(bad)

    def test_tolerates_representation_noise_at_endpoints(self):
        build_family(-1e-13)
        build_family(1.0 + 1e-13)

    def test_m3_skips_admission_with_the_admitted_bits(self):
        # M3 is built orthonormal, so it is kept without admission's checks
        # and copy; its bits, read-only flag and label are the admitted ones
        for a in (0.0, 1e-12, 0.25, 0.5, 0.7, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, -1e-12):
            m3 = build_family(a)[2]
            admitted = ProjectiveMeasurement(m3.basis, "M3")
            assert m3.basis.dtype == admitted.basis.dtype and m3.basis.tobytes() == admitted.basis.tobytes()
            assert np.array_equal(m3.basis, admitted.basis)
            assert m3.label == "M3" and not m3.basis.flags.writeable

    def test_m3_is_built_without_admission_and_copies_are_admitted(self, monkeypatch):
        m3 = build_family(0.3)[2]
        admitted = []
        post_init = ProjectiveMeasurement.__post_init__

        def counting(self):
            admitted.append(self.label)
            post_init(self)

        monkeypatch.setattr(ProjectiveMeasurement, "__post_init__", counting)
        build_family(0.4)
        assert admitted == []
        for copy in (pickle.loads(pickle.dumps(m3)), copy_module.deepcopy(m3)):
            assert copy.label == "M3" and not copy.basis.flags.writeable
            assert copy.basis.tobytes() == m3.basis.tobytes()
        assert admitted == ["M3", "M3"]


class TestReferenceStates:
    def test_labels_and_purity(self):
        assert [r.state_label for r in sweep([0.5])] == ["minus1", "zero"]
        for label in ("zero", "minus1"):
            rho = builtin_state(label)
            assert abs(rho.matrix.trace().real - 1.0) < 1e-12
            assert abs(rho.purity() - 1.0) < 1e-12

    def test_against_family_closed_forms(self):
        for a in (0.1, 0.4, 0.9):
            ms = build_family(a)
            for label in ("zero", "minus1"):
                total = entropy_sum(ms, builtin_state(label)).total
                assert abs(total - entropy_total_closed_form(a, label)) < CURVE_TOL


class TestClosedForm:
    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_forms_and_ordering(self, a):
        zero = entropy_total_closed_form(a, "zero")
        minus1 = entropy_total_closed_form(a, "minus1")
        assert abs(zero - (1.0 + binary_entropy(a))) < 1e-12
        assert abs(minus1 - binary_entropy(a)) < 1e-12
        assert minus1 <= zero  # the minus1 curve is the family minimum

    def test_symmetry_in_a(self):
        for a in (0.1, 0.3, 0.45):
            assert abs(
                entropy_total_closed_form(a, "minus1") - entropy_total_closed_form(1.0 - a, "minus1")
            ) < 1e-12

    def test_unknown_label(self):
        with pytest.raises(ValidationError):
            entropy_total_closed_form(0.5, "plus1")


class TestSweep:
    def test_minus1_column_on_coarse_grid(self):
        rows = sweep([0.0, 0.5, 1.0])
        minus1 = [r for r in rows if r.state_label == "minus1"]
        assert_allclose([r.entropy_total for r in minus1], [0.0, 1.0, 0.0], atol=CURVE_TOL)

    def test_tightness_point(self):
        (row,) = [r for r in sweep([0.5]) if r.state_label == "minus1"]
        assert abs(row.entropy_total - 1.0) < CURVE_TOL
        assert abs(row.scb - 1.0) < CURVE_TOL

    def test_row_order_and_shape(self):
        rows = sweep([0.25, 0.75])
        assert [(r.a, r.state_label) for r in rows] == [
            (0.25, "minus1"),
            (0.25, "zero"),
            (0.75, "minus1"),
            (0.75, "zero"),
        ]
        assert all(isinstance(r, SweepRow) for r in rows)

    def test_default_grid(self):
        grid = default_grid()
        assert grid.size == GRID_POINTS_DEFAULT == 101
        assert grid[0] == 0.0 and grid[-1] == 1.0

    def test_dominance_and_nonnegative_rpz(self):
        for r in sweep(np.linspace(0.0, 1.0, 11)):
            assert r.rpz >= 0.0
            assert r.entropy_total >= r.scb - CURVE_TOL
            assert r.entropy_total >= r.lmf - CURVE_TOL
            assert r.entropy_total >= r.rpz - CURVE_TOL

    def test_deterministic(self):
        grid = np.linspace(0.2, 0.8, 7)
        assert sweep(grid) == sweep(grid)

    def test_endpoint_rows_all_zero_for_minus1(self):
        for a in (0.0, 1.0):
            (row,) = [r for r in sweep([a]) if r.state_label == "minus1"]
            assert row.entropy_total == 0.0
            assert row.scb == 0.0
            assert row.lmf == 0.0
            assert row.rpz < CURVE_TOL

    def test_rejects_bad_grids(self):
        with pytest.raises(ValidationError):
            sweep([])
        with pytest.raises(ValidationError):
            sweep([0.2, 1.4])

    def test_chunk_boundary_rows_match_pointwise(self):
        grid = np.linspace(0.0, 1.0, SWEEP_CHUNK + 1)
        assert sweep(grid) == [row for a in grid for row in sweep([a])]

    def test_bad_point_in_later_chunk(self):
        grid = [*np.linspace(0.0, 1.0, SWEEP_CHUNK + 1), 1.4]
        with pytest.raises(ValidationError) as stacked:
            sweep(grid)
        with pytest.raises(ValidationError) as alone:
            build_family(1.4)
        assert str(stacked.value) == str(alone.value)


def test_sweep_stacks_one_rpz_call_per_chunk(monkeypatch):
    import eurkit.bounds
    import eurkit.family

    calls = []

    def counting(sets):
        calls.append(len(sets))
        return stack(sets)

    def no_profile(*args):
        raise AssertionError("a grid point's rpz profile was computed on its own")

    stack = eurkit.family.rpz_profiles
    monkeypatch.setattr(eurkit.family, "rpz_profiles", counting)
    monkeypatch.setattr(eurkit.bounds, "rpz_profile", no_profile)
    sweep(np.linspace(0.0, 1.0, 2 * SWEEP_CHUNK + 3))
    assert calls == [SWEEP_CHUNK, SWEEP_CHUNK, 3]


REFERENCE_STATES = [("zero", builtin_state("zero")), ("minus1", builtin_state("minus1"))]


def sweep_oracle(grid, states):
    """The sweep point by point, from the one-set calls."""
    rows = []
    for a in map(float, grid):
        ms = build_family(a)
        rpz = rpz_profile(ms).entropy_bound()
        for label, rho in sorted(states, key=lambda kv: kv[0]):
            rows.append(SweepRow(a, label, entropy_sum(ms, rho).total, scb_bound(ms, rho), lmf_bound(ms, rho), rpz))
    return rows


def row_bits(rows):
    # float.hex tells -0.0 from 0.0 and refuses a field that is not a float
    return [(r.state_label, *map(float.hex, (r.a, r.entropy_total, r.scb, r.lmf, r.rpz))) for r in rows]


class TestSweepMatchesOneSetCalls:
    @pytest.mark.parametrize("points", [1, 15, 16, 17, 33, GRID_POINTS_DEFAULT])
    def test_grids_across_chunk_boundaries(self, points):
        grid = np.linspace(0.0, 1.0, points)
        assert row_bits(sweep(grid)) == row_bits(sweep_oracle(grid, REFERENCE_STATES))

    def test_custom_states(self, rng):
        states = [
            ("pure", random_density(rng, pure=True)),
            ("mixed", builtin_state("mixed")),
            ("random mixed", random_density(rng)),
            ("raw pure", random_density(rng, pure=True).matrix.copy()),
            ("raw mixed", random_density(rng).matrix.tolist()),
        ]
        grid = rng.random(SWEEP_CHUNK + 3)
        assert row_bits(sweep(grid, states)) == row_bits(sweep_oracle(grid, states))

    @pytest.mark.parametrize(
        "state, message",
        [
            (np.eye(2) / 2, "dimension mismatch: measurement dim 3, state dim 2"),
            (DensityOperator(np.eye(4) / 4), "dimension mismatch: measurement dim 3, state dim 4"),
            (np.diag([0.5, 0.6, -0.1]), "rho has eigenvalue -1.0000e-01 below the admission window -1e-09"),
        ],
    )
    def test_bad_state_is_refused_as_by_entropy_sum(self, state, message):
        with pytest.raises(ValidationError) as alone:
            entropy_sum(build_family(0.0), state)
        assert str(alone.value) == message
        with pytest.raises(type(alone.value)) as swept:
            sweep(np.linspace(0.0, 1.0, SWEEP_CHUNK + 1), [*REFERENCE_STATES, ("z", state)])
        assert str(swept.value) == message


def assert_no_child_left():
    # a sweep reaps every child it forks, on success and on error alike
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked while the fixture is active."""
    pids = []
    real_fork = os.fork

    def counting():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return pids


def usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def refuse_fork(monkeypatch):
    def no_fork():
        raise AssertionError("the sweep forked")

    monkeypatch.setattr(os, "fork", no_fork)


@functools.lru_cache(maxsize=None)
def reference_oracle_bits(points):
    return row_bits(sweep_oracle(np.linspace(0.0, 1.0, points), REFERENCE_STATES))


class TestForkedSweep:
    @pytest.mark.parametrize("cpus", [2, 4])
    @pytest.mark.parametrize("points", [49, 64, 1001])
    def test_rows_match_one_set_calls_for_any_worker_count(self, monkeypatch, forks, cpus, points):
        usable_cpus(monkeypatch, cpus)
        chunks = -(-points // SWEEP_CHUNK)
        assert row_bits(sweep(np.linspace(0.0, 1.0, points))) == reference_oracle_bits(points)
        assert len(forks) == min(cpus, chunks // 2) - 1 >= 1
        assert_no_child_left()

    def test_custom_states(self, monkeypatch, forks, rng):
        usable_cpus(monkeypatch, 4)
        states = [
            ("pure", random_density(rng, pure=True)),
            ("mixed", builtin_state("mixed")),
            ("random mixed", random_density(rng)),
            ("raw pure", random_density(rng, pure=True).matrix.copy()),
            ("raw mixed", random_density(rng).matrix.tolist()),
        ]
        grid = rng.random(4 * SWEEP_CHUNK + 3)
        assert row_bits(sweep(grid, states)) == row_bits(sweep_oracle(grid, states))
        assert len(forks) == 1
        assert_no_child_left()

    def test_one_cpu_stays_in_one_process(self, monkeypatch):
        usable_cpus(monkeypatch, 1)
        refuse_fork(monkeypatch)
        assert row_bits(sweep(np.linspace(0.0, 1.0, 49))) == reference_oracle_bits(49)

    def test_three_chunks_stay_in_one_process(self, monkeypatch):
        usable_cpus(monkeypatch, 4)
        refuse_fork(monkeypatch)
        sweep(np.linspace(0.0, 1.0, 3 * SWEEP_CHUNK))

    def test_no_fork_function_stays_in_one_process(self, monkeypatch):
        usable_cpus(monkeypatch, 2)
        monkeypatch.delattr(os, "fork")
        assert row_bits(sweep(np.linspace(0.0, 1.0, 49))) == reference_oracle_bits(49)

    def test_failed_fork_runs_the_block_here(self, monkeypatch):
        usable_cpus(monkeypatch, 4)
        attempts = []

        def failing():
            attempts.append(1)
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", failing)
        assert row_bits(sweep(np.linspace(0.0, 1.0, 64))) == reference_oracle_bits(64)
        assert attempts == [1]
        assert_no_child_left()

    def test_live_thread_stays_in_one_process(self, monkeypatch):
        usable_cpus(monkeypatch, 2)
        refuse_fork(monkeypatch)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            rows = sweep(np.linspace(0.0, 1.0, 49))
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert row_bits(rows) == reference_oracle_bits(49)

    @pytest.mark.parametrize("cpus, forked", [(None, 0), (1, 0), (2, 1)])
    def test_cpu_count_without_affinity(self, monkeypatch, forks, cpus, forked):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        sweep(np.linspace(0.0, 1.0, 49))
        assert len(forks) == forked
        assert_no_child_left()


class TestForkedSweepErrors:
    def test_bad_point_in_a_child_block(self, monkeypatch, forks):
        usable_cpus(monkeypatch, 2)
        grid = [*np.linspace(0.0, 1.0, 4 * SWEEP_CHUNK), 1.4]
        with pytest.raises(ValidationError) as swept:
            sweep(grid)
        assert_no_child_left()
        with pytest.raises(ValidationError) as alone:
            build_family(1.4)
        assert type(swept.value) is type(alone.value) and str(swept.value) == str(alone.value)
        assert len(forks) == 1

    def test_first_error_in_grid_order(self, monkeypatch, forks):
        usable_cpus(monkeypatch, 4)
        grid = list(np.linspace(0.0, 1.0, 8 * SWEEP_CHUNK))
        # 4 blocks of 2 chunks: bad points in the third, second and first child's
        grid[-1], grid[5 * SWEEP_CHUNK], grid[3 * SWEEP_CHUNK] = 1.7, 1.6, 1.5
        with pytest.raises(ValidationError, match="1.5 outside"):
            sweep(grid)
        assert_no_child_left()
        grid[0] = -0.5  # the parent's own block comes first
        with pytest.raises(ValidationError, match="-0.5 outside"):
            sweep(grid)
        assert_no_child_left()
        assert len(forks) == 6

    @pytest.mark.parametrize(
        "state, message",
        [
            (np.eye(2) / 2, "dimension mismatch: measurement dim 3, state dim 2"),
            (np.diag([0.5, 0.6, -0.1]), "rho has eigenvalue -1.0000e-01 below the admission window -1e-09"),
        ],
    )
    def test_bad_state_is_refused_as_by_entropy_sum(self, monkeypatch, forks, state, message):
        usable_cpus(monkeypatch, 2)
        with pytest.raises(ValidationError) as alone:
            entropy_sum(build_family(0.0), state)
        with pytest.raises(type(alone.value)) as swept:
            sweep(np.linspace(0.0, 1.0, 101), [*REFERENCE_STATES, ("z", state)])
        assert_no_child_left()
        assert str(swept.value) == str(alone.value) == message
        assert len(forks) == 1

    def test_interrupt_in_the_parent_block_kills_and_reaps_children(self, monkeypatch, forks):
        import eurkit.family

        usable_cpus(monkeypatch, 4)
        parent, rows = os.getpid(), eurkit.family._sweep_rows

        def interrupted(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return rows(*args)

        monkeypatch.setattr(eurkit.family, "_sweep_rows", interrupted)
        with pytest.raises(KeyboardInterrupt):
            sweep(np.linspace(0.0, 1.0, 1001))
        assert_no_child_left()
        assert len(forks) == 3

    def test_child_that_dies_without_rows(self, monkeypatch, forks):
        import eurkit.family

        usable_cpus(monkeypatch, 2)
        parent, rows = os.getpid(), eurkit.family._sweep_rows

        def dying(*args):
            if os.getpid() != parent:
                os._exit(3)
            return rows(*args)

        monkeypatch.setattr(eurkit.family, "_sweep_rows", dying)
        with pytest.raises(RuntimeError, match="ended without its rows"):
            sweep(np.linspace(0.0, 1.0, 64))
        assert_no_child_left()
        assert len(forks) == 1

    def test_unpicklable_child_error_is_sent_as_text(self, monkeypatch, forks):
        import eurkit.family

        usable_cpus(monkeypatch, 2)
        parent, rows = os.getpid(), eurkit.family._sweep_rows

        def unpicklable(*args):
            if os.getpid() != parent:
                error = ValueError("no rows")
                error.hook = lambda: None
                raise error
            return rows(*args)

        monkeypatch.setattr(eurkit.family, "_sweep_rows", unpicklable)
        with pytest.raises(RuntimeError, match=r"sweep worker raised ValueError\('no rows'\)"):
            sweep(np.linspace(0.0, 1.0, 64))
        assert_no_child_left()


def run_python(code):
    """Run ``code`` in a fresh interpreter with stdout piped and block
    buffered; its stdout."""
    src = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, src)))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


# The children must not flush the parent's stdout buffer, which holds the
# marker while they run; two usable CPUs make the sweep fork on any host.
FORKING_PRELUDE = "import os\nos.sched_getaffinity = lambda pid: {0, 1}\n"


def test_children_never_flush_the_parents_stdout():
    code = FORKING_PRELUDE + (
        "import numpy as np\n"
        "from eurkit.family import sweep\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "print('marker')\n"
        "rows = sweep(np.linspace(0.0, 1.0, 1001))\n"
        "print(len(rows), len(forks))\n"
    )
    assert run_python(code) == b"marker\n2002 1\n"


def test_cli_sweep_1001_matches_benchmark_reference():
    reference = Path(__file__).resolve().parents[1] / "benchmarks" / "reference.json"
    expected = json.loads(reference.read_text(encoding="utf-8"))["sweep_csv_sha256"]
    code = FORKING_PRELUDE + "from eurkit.cli import main\nraise SystemExit(main(['sweep', '--steps', '1001']))\n"
    assert hashlib.sha256(run_python(code)).hexdigest() == expected
