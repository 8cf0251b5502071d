"""A one-parameter family of three qutrit measurements and its sweep.

The family interpolates the third basis through a parameter a in [0, 1]
(b = 1 - a): M1 is the bare basis, M2 rotates the |0>/|+1> plane by 45
degrees, M3 mixes |0> and |-1> with weights a and b.  For the reference
states |0> and |-1> the total measurement entropy has closed forms
1 + h(a) and h(a), with h the binary entropy in bits.
"""

from __future__ import annotations

import math
import os
import pickle
import threading
from dataclasses import dataclass

import numpy as np

# entropy_sum, scb_bound, lmf_bound, rpz_bound: unused here, kept for benchmarks/tracing.py PATCHES (ROADMAP item 1)
from .bounds import _bound_value, _chain_coefficient, _lmf_pieces, _stacked_scb_pieces, rpz_profiles
from .bounds import lmf_bound, rpz_bound, scb_bound  # noqa: F401
from .entropy import _row_entropies, binary_entropy, entropy_sum, von_neumann_entropy  # noqa: F401
from .documents import builtin_state
from .linalg import MeasurementSet, ProjectiveMeasurement, ValidationError, _born_probabilities, as_density_operator
from .linalg import _built_measurement, as_measurements

GRID_POINTS_DEFAULT = 101
# Grid points whose rpz profiles ``sweep`` stacks into one call: 16 sets of
# 9 kets screen in one eigvalsh call of 4096 3 x 3 frame operators.  Each
# further set in a chunk adds about 70 kB to the peak memory and little speed.
# The chunks, never the points of one chunk, are what ``sweep`` splits over
# forked workers; a grid of fewer than 4 chunks stays in one process.
SWEEP_CHUNK = 16
# The bounds of a SweepRow, in the column order of the sweep's CSV and JSON.
SWEEP_BOUNDS = ("scb", "lmf", "rpz")

_E0, _E1, _E2 = np.eye(3, dtype=complex)
_M1 = ProjectiveMeasurement(np.array([_E0, _E1, _E2]), "M1")
_M2 = ProjectiveMeasurement(np.array([(_E0 - _E2) / np.sqrt(2.0), _E1, (_E0 + _E2) / np.sqrt(2.0)]), "M2")


def build_family(a: float) -> MeasurementSet:
    """The measurement set (M1, M2, M3(a)) for a in [0, 1], immutable.

    M1 and M2 do not depend on a and are admitted once, at import; each
    call builds M3(a) only, orthonormal by construction, so it skips
    admission (``_built_measurement``) with the admitted bits.
    """
    x = float(a)
    if not (math.isfinite(x) and -1e-12 <= x <= 1.0 + 1e-12):
        raise ValidationError(f"family parameter a = {x!r} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    b = 1.0 - x
    m3 = _built_measurement(
        np.array([np.sqrt(x) * _E0 + np.sqrt(b) * _E1, np.sqrt(b) * _E0 - np.sqrt(x) * _E1, _E2]), "M3"
    )
    return as_measurements((_M1, _M2, m3), minimum=3)


def entropy_total_closed_form(a: float, state_label: str) -> float:
    """Closed-form total entropy of the family for a reference state."""
    h = binary_entropy(a)
    if state_label == "zero":
        return 1.0 + h
    if state_label == "minus1":
        return h
    raise ValidationError(f"no closed form for state label {state_label!r}")


def default_grid() -> np.ndarray:
    """The standard sweep grid: 101 evenly spaced points on [0, 1]."""
    return np.linspace(0.0, 1.0, GRID_POINTS_DEFAULT)


@dataclass(frozen=True)
class SweepRow:
    """One (a, state) evaluation of the family sweep."""

    a: float
    state_label: str
    entropy_total: float
    scb: float
    lmf: float
    rpz: float


def sweep(grid=None, states=None) -> list[SweepRow]:
    """Evaluate entropy totals and bounds over a grid of family parameters.

    Grid points are visited in the order given; states are sorted by
    label within each point, one row per (a, state) pair; the default
    states are the built-in 'zero' and 'minus1'.  Each chunk of SWEEP_CHUNK
    points is a stack of sets, built first, so a bad grid point raises
    before the states of its chunk are evaluated.  One call each gives the
    stack's rpz profiles, scb and lmf pieces; each state, admitted once per
    chunk with ``entropy_sum``'s errors, takes its Born probabilities on all
    the chunk's bases in one einsum.  Every field has the one-set bits.

    The chunks are split into contiguous blocks, one per worker
    (``_sweep_workers``): this process evaluates the first block and a
    forked child each other one, so one block forks nothing, and the rows
    are joined in grid order.
    A chunk's rows do not depend on the process that evaluates it, so they
    have the same bits for any worker count.  The first error in grid order
    is raised, and every child is reaped before ``sweep`` returns or raises.
    """
    a_values = default_grid() if grid is None else np.asarray(grid, dtype=float)
    if a_values.ndim != 1 or a_values.size == 0:
        raise ValidationError("sweep grid must be a non-empty 1-d array")
    if states is None:
        states = [(label, builtin_state(label)) for label in ("zero", "minus1")]
    pairs = sorted(states, key=lambda kv: kv[0])
    starts = range(0, a_values.size, SWEEP_CHUNK)
    workers = _sweep_workers(len(starts))
    blocks = [starts[k * len(starts) // workers : (k + 1) * len(starts) // workers] for k in range(workers)]
    return [SweepRow(*row) for row in _forked_rows(a_values, pairs, blocks)]


def _sweep_workers(chunks: int) -> int:
    """Processes for a sweep of ``chunks`` chunks: one per usable CPU but at
    most one per 2 chunks, since forking, feeding and reaping a child costs
    about one chunk's work (CHANGES.md has the crossover); 1 where
    ``os.fork`` is missing or another thread is alive, so a threaded host
    never forks."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, chunks // 2))


def _sweep_rows(a_values, pairs, starts) -> list[tuple]:
    """The SweepRow fields of the chunks that begin at ``starts``."""
    rows = []
    for start in starts:
        chunk = [float(v) for v in a_values[start : start + SWEEP_CHUNK]]
        sets = [build_family(a) for a in chunk]
        rpz = [profile.entropy_bound() for profile in rpz_profiles(sets)]
        kets = np.array([m.basis for ms in sets for m in ms]).reshape(-1, 3)
        o = np.array([ms.squared_overlaps for ms in sets])
        scb_pieces, lmf_pieces = _stacked_scb_pieces(o), _lmf_pieces(_chain_coefficient(o, range(3)), 3)
        columns = []
        for label, rho in pairs:
            rho = as_density_operator(rho)
            h = _row_entropies(_born_probabilities(kets, rho.matrix).reshape(-1, 3)).reshape(-1, 3)
            s = von_neumann_entropy(rho)
            scb, lmf = ([_bound_value(kept, s) for kept in pieces] for pieces in (scb_pieces, lmf_pieces))
            # sum() adds the measurements' entropies in entropy_sum's order
            columns.append((label, sum(h.T).tolist(), scb, lmf))
        for i, a in enumerate(chunk):
            rows.extend((a, label, total[i], scb[i], lmf[i], rpz[i]) for label, total, scb, lmf in columns)
    return rows


def _forked_rows(a_values, pairs, blocks) -> list[tuple]:
    """``_sweep_rows`` of every block, joined in grid order: the first block
    here, each other one in a forked child that pickles its rows, or the
    exception it raised, down a pipe.  A block whose fork fails runs here."""
    children = []  # (pid, read end of its pipe), in grid order
    reaped = set()
    try:
        for block in blocks[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                _sweep_child(read_fd, write_fd, a_values, pairs, block)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        rows = _sweep_rows(a_values, pairs, blocks[0])
        for pid, pipe in children:
            payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            reaped.add(pid)
            if not payload:
                raise RuntimeError(f"sweep worker {pid} ended without its rows (wait status {status})")
            result = pickle.loads(payload)
            if isinstance(result, BaseException):
                raise result
            rows += result
        for block in blocks[1 + len(children) :]:
            rows += _sweep_rows(a_values, pairs, block)
        return rows
    finally:
        for pid, pipe in children:
            pipe.close()
            if pid not in reaped:
                import signal  # only on this path; ``import eurkit`` does not load it

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _sweep_child(read_fd: int, write_fd: int, a_values, pairs, block):
    """A forked child's whole life: evaluate ``block``, send the rows or the
    exception, and leave by ``os._exit``, so it never flushes the parent's
    stdio buffers or runs its atexit and test hooks."""
    try:
        os.close(read_fd)
        try:
            result = _sweep_rows(a_values, pairs, block)
        except BaseException as exc:  # sent to the parent, which raises it
            result = exc
        try:
            payload = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
        except Exception:
            payload = pickle.dumps(RuntimeError(f"sweep worker raised {result!r}"), pickle.HIGHEST_PROTOCOL)
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(0)
