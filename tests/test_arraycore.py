"""Array-backed kernel core (``sim/arraycore.py``): allocator properties
and mirror freshness.

``tests/test_sched_core.py`` proves the *scores* coming out of the array
core are bit-identical to a stateless evaluation after every bus event.
This module covers the substrate underneath:

* **DenseIds** — hypothesis property: ids are unique among live rows,
  freed ids are reused LIFO, a fresh allocation extends the high-water
  mark, and an allocation can never alias a live id.
* **Mirror freshness** — after every slice of a seeded chaos run, every
  mirrored column equals the corresponding ``TaskRuntime`` field for
  every live task (the event-driven sync catalog covers every mutation
  path, not just the ones the score formula reads).
* **Scan oracles** — at the same settled points, the dispatcher's
  candidate scan and the stall-timeout sweep equal reference walks over
  the runtime objects (``node.queued_ids()`` and ``node.running``), in
  dependency-aware and dependency-blind runs.
* **Retirement** — a completed job's rows return to the free list, and a
  streaming-admitted successor reuses them without aliasing.
* **Rebuild** — ``rebuild_and_assert`` (the restore-path guard) passes
  mid-run at arbitrary points.
"""

from __future__ import annotations

import math
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import EPS
from repro.cluster import Cluster, NodeSpec, ResourceVector
from repro.config import DSPConfig, ResilienceConfig
from repro.core import HeuristicScheduler
from repro.core.preemption import DSPPreemption
from repro.dag import Job, Task
from repro.dag.task import TaskState
from repro.sim import SimEngine
from repro.sim.arraycore import _STATE_CODE, ArrayCore, DenseIds

from test_sched_core import _chaos_inputs, _engine, _sim_cfg


# ------------------------------------------------------------- allocator
class TestDenseIds:
    @given(st.lists(st.integers(min_value=0, max_value=2**31), min_size=1))
    @settings(deadline=None, max_examples=200)
    def test_alloc_free_never_alias(self, ops: list[int]):
        """Drive a pseudo-random alloc/free schedule derived from *ops*:
        every allocation must come off the free list LIFO (or extend the
        high-water mark) and must never collide with a live id."""
        ids = DenseIds()
        live: set[int] = set()
        free_stack: list[int] = []  # model of the LIFO free list
        for op in ops:
            if live and op % 3 == 0:
                victim = sorted(live)[op % len(live)]
                ids.free(victim)
                live.remove(victim)
                free_stack.append(victim)
            else:
                got = ids.alloc()
                assert got not in live, "allocator aliased a live id"
                if free_stack:
                    assert got == free_stack.pop(), "free-list reuse not LIFO"
                else:
                    assert got == ids.capacity - 1, "fresh id != high-water"
                live.add(got)
        assert ids.capacity >= len(live)
        assert ids.free_count == ids.capacity - len(live)
        assert ids.free_count == len(free_stack)

    def test_interleaved_reuse(self):
        ids = DenseIds()
        a, b, c = ids.alloc(), ids.alloc(), ids.alloc()
        assert (a, b, c) == (0, 1, 2)
        ids.free(b)
        ids.free(a)
        assert ids.alloc() == a  # LIFO: last freed, first reused
        assert ids.alloc() == b
        assert ids.alloc() == 3  # free list empty: extend
        assert ids.capacity == 4


# ------------------------------------------------------ mirror freshness
def _float_col_pairs(core: ArrayCore, task) -> list[tuple[float, object]]:
    """(mirror value, object value) for every float column of one row;
    object-side ``None`` is mirrored as NaN (``planned_start`` as +inf
    when unset, matching the dispatch gate's sentinel)."""
    row = core._row_of[task.task.task_id]
    return [
        (core._size[row], task.task.size_mi),
        (core._work[row], task.work_done_mi),
        (core._run_start[row], task.run_start),
        (core._cur_recovery[row], task.current_recovery),
        (core._recovery_due[row], task.recovery_due),
        (core._queued_since[row], task.queued_since),
        (core._total_wait[row], task.total_wait),
        (core._deadline[row], task.deadline),
        (
            core._planned[row],
            task.planned_start if task.planned_start is not None else math.inf,
        ),
        (core._stall_start[row], task.stall_start),
    ]


def _assert_mirror_fresh(core: ArrayCore, state) -> None:
    for tid, task in state.tasks.items():
        if task.state is TaskState.COMPLETED and tid not in core._row_of:
            continue  # retired with its job
        row = core._row_of[tid]
        assert core._id_of[row] == tid
        assert core._state[row] == _STATE_CODE[task.state]
        expected_pos = (
            core._node_pos[task.node_id] if task.node_id is not None else -1
        )
        assert core._node[row] == expected_pos
        assert core._unfinished[row] == task.unfinished_parents
        assert core._preempt_count[row] == task.preempt_count
        assert bool(core._banned[row]) == task.stall_banned
        for got, want in _float_col_pairs(core, task):
            if want is None:
                assert math.isnan(got), (tid, got)
            else:
                assert got == want, (tid, got, want)


def _reference_dispatch(state, node, now: float, dependency_aware: bool) -> list[str]:
    """The dispatcher's state predicates as a walk over the node queue
    (the retry gate and the capacity check stay with the caller)."""
    out = []
    for tid in node.queued_ids():
        task = state.tasks[tid]
        if not task.is_runnable:
            if dependency_aware or task.stall_banned:
                continue
            if now + EPS < task.planned_start:
                continue
        out.append(tid)
    return out


def _reference_stalls(state, now: float, timeout: float) -> list[str]:
    """Timed-out stalled tasks as a walk over every node's running set,
    in node order then sorted task id (partition filtering is the
    caller's)."""
    out = []
    for node in state.nodes.values():
        for tid in sorted(node.running):
            task = state.tasks[tid]
            if (
                task.state is TaskState.STALLED
                and task.stall_start is not None
                and now - task.stall_start >= timeout
            ):
                out.append(tid)
    return out


def _assert_scans_match(core: ArrayCore, rt) -> dict[str, int]:
    """Check both dispatch scans and the stall sweep against the
    reference walks; returns how many non-empty results each produced."""
    state, now = rt.state, rt.now
    seen = {"aware": 0, "blind_extra": 0, "stalls": 0}
    for node in state.nodes.values():
        aware = core.dispatch_candidates(node, now, True)
        assert aware == _reference_dispatch(state, node, now, True), node.node_id
        blind = core.dispatch_candidates(node, now, False)
        assert blind == _reference_dispatch(state, node, now, False), node.node_id
        seen["aware"] += bool(aware)
        seen["blind_extra"] += len(blind) > len(aware)
    stalls = core.stall_timeout_candidates(now, rt.stall_timeout)
    assert stalls == _reference_stalls(state, now, rt.stall_timeout)
    seen["stalls"] += bool(stalls)
    return seen


def _streaming_chaos_engine(seed: int, **engine_kwargs) -> SimEngine:
    cfg = DSPConfig()
    cluster, workload, deadlines, faults = _chaos_inputs(seed, cfg)
    return _engine(
        cluster,
        workload.jobs,
        deadlines,
        False,
        dsp_config=cfg,
        sim_config=_sim_cfg(),
        faults=faults,
        resilience=ResilienceConfig(max_attempts=12),
        **engine_kwargs,
    )


class TestMirrorFreshness:
    def test_columns_match_objects_throughout_chaos_run(self):
        """Slice a seeded chaos run and diff every mirrored column and
        every scan against the runtime objects at each settled point;
        also re-run the restore guard (``rebuild_and_assert``)
        mid-flight."""
        engine = _streaming_chaos_engine(
            2, preemption=DSPPreemption(DSPConfig())
        )
        rt = engine.runtime
        core = rt.array
        assert isinstance(core, ArrayCore)
        slices = 0
        seen = 0
        while engine.pump(50):
            _assert_mirror_fresh(core, rt.state)
            seen += _assert_scans_match(core, rt)["aware"]
            if slices % 4 == 0:
                core.rebuild_and_assert()
            slices += 1
        assert slices > 5, "run too short to be meaningful"
        assert seen > 0, "no settled point had a dispatchable queue"
        engine.finalize()

    def test_scans_match_object_walks_dependency_blind(self):
        """Dependency-blind dispatch with a short stall timeout: the blind
        scan admits unrunnable tasks past their planned start, tasks stall
        and time out, and every scan still equals its reference walk."""
        engine = _streaming_chaos_engine(
            2, dependency_aware_dispatch=False, stall_timeout=1.0
        )
        rt = engine.runtime
        core = rt.array
        totals = {"aware": 0, "blind_extra": 0, "stalls": 0}
        # Settle after every pop: a timed-out stall only lives until the
        # next epoch tick's sweep evicts it.
        while engine.pump(1):
            _assert_mirror_fresh(core, rt.state)
            for key, count in _assert_scans_match(core, rt).items():
                totals[key] += count
        assert totals["blind_extra"] > 0, totals
        assert totals["stalls"] > 0, totals
        engine.finalize()


# ----------------------------------------------------------- retirement
def _lane(n: int = 2) -> Cluster:
    return Cluster([
        NodeSpec(node_id=f"n{i}", cpu_size=1.0, mem_size=1.0, mips_per_unit=500.0)
        for i in range(n)
    ])


def _chain_job(jid: str, n: int, arrival: float = 0.0) -> Job:
    tasks = [
        Task(
            task_id=f"{jid}.t{i}",
            job_id=jid,
            size_mi=2000.0,
            demand=ResourceVector(cpu=1.0, mem=0.5),
            parents=(f"{jid}.t{i - 1}",) if i else (),
        )
        for i in range(n)
    ]
    return Job.from_tasks(jid, tasks, deadline=1e6, arrival_time=arrival)


class TestRetirement:
    def test_completed_job_rows_freed_and_reused(self):
        """After job A completes, its rows sit on the free list; a
        streaming-admitted job B of the same size reuses exactly those
        rows (capacity does not grow) without aliasing live state."""
        cluster = _lane()
        engine = SimEngine(
            cluster,
            [],
            HeuristicScheduler(cluster),
            sim_config=_sim_cfg(),
            streaming=True,
        )
        core = engine.runtime.array
        assert isinstance(core, ArrayCore)
        engine.submit_job(_chain_job("A", 3))
        cap_a = core._ids.capacity
        while engine.pump(200):
            pass
        # Job A done: every row retired.
        assert core._row_of == {}
        assert core._ids.free_count == cap_a == 3

        job_b = _chain_job("B", 3, arrival=engine.runtime.now)
        engine.submit_job(job_b)
        assert set(core._row_of) == set(job_b.tasks)
        assert core._ids.capacity == cap_a  # rows recycled, no growth
        assert core._ids.free_count == 0
        while engine.pump(200):
            pass
        metrics = engine.finalize()
        assert metrics.jobs_completed == 2
        assert core._row_of == {}
        assert core._ids.free_count == cap_a
