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
* **Scan-column oracle** — at every epoch tick, for every contended node,
  the generation-cached victim-scan signals equal a per-node derivation
  (the pre-caching ``_remaining_at`` path, kept here as the oracle), bit
  for bit, in a chaos run and a streaming run with retirement.
* **Dispatch-memo oracle** — every dispatch call the no-op memo skips is
  re-checked by a reference walk that must find nothing startable, in
  batch, chaos-with-backoff, elastic and dependency-blind runs; node
  versions never repeat across a re-join or a rebuild.
* **Dispatch-index oracle** — at every dispatch call, the per-node index's
  ordered candidates (both gates) and blind wake equal the whole-window
  mask-and-sort over the columns that the index replaced, in DSP batch,
  dependency-blind, chaos-with-backoff, elastic and streaming-retirement
  runs.
* **Retirement** — a completed job's rows return to the free list, and a
  streaming-admitted successor reuses them without aliasing.
* **Rebuild** — ``rebuild_and_assert`` (the restore-path guard) passes
  mid-run at arbitrary points.
"""

from __future__ import annotations

import dataclasses
import math
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import EPS
from repro.cluster import Cluster, NodeSpec, ResourceVector
from repro.config import DSPConfig, ElasticConfig, ResilienceConfig, SimConfig
from repro.core import HeuristicScheduler
from repro.core.preemption import DSPPreemption
from repro.dag import Job, Task
from repro.dag.task import TaskState
from repro.sim import MembershipEvent, SimEngine
from repro.baselines import AmoebaPreemption
from repro.sim.arraycore import (
    _QUEUED,
    _RUNNING,
    _STALLED,
    _STATE_CODE,
    ArrayCore,
    DenseIds,
)
from repro.sim.executor import NodeRuntime
from repro.sim.snapshot import SnapshotError
from repro.sim import kernel as k
from repro.sim.kernel import EpochTick, SimulationError, TaskStallEvicted
from repro.sim.views import VIEW_QUEUE_LIMIT

from test_sched_core import _chaos_inputs, _drive, _engine, _faulty_engine, _sim_cfg


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
    _assert_stalled_rows(core)
    return seen


def _assert_stalled_rows(core: ArrayCore) -> None:
    """The stall sweep skips its mask when the core's STALLED rows are
    none, so they must be exactly the rows the mask would find."""
    n = core._ids.capacity
    assert core._stalled == set(np.nonzero(core._state[:n] == _STALLED)[0].tolist())


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

    def test_stalled_rows_after_every_event_dependency_blind(self):
        """The STALLED rows the stall sweep's skip reads equal the
        state-column mask after every bus event of a dependency-blind run
        in which tasks stall, time out and are evicted back to their
        queue.  (The settled-point scan oracle above checks it too.)"""
        engine = _streaming_chaos_engine(
            2, dependency_aware_dispatch=False, stall_timeout=1.0
        )
        rt = engine.runtime
        core = rt.array
        evicted = 0
        peak = 0

        def check(event) -> None:
            nonlocal evicted, peak
            _assert_stalled_rows(core)
            evicted += isinstance(event, TaskStallEvicted)
            peak = max(peak, len(core._stalled))

        # Wildcard subscribers run after the mirror's typed handlers.
        rt.bus.subscribe_all(check)
        _drive(engine)
        assert evicted > 0 and peak > 0, (evicted, peak)
        assert not core._stalled


# ------------------------------------------------- scan-column oracle
def _reference_scan(core: ArrayCore, rows, now: float, rate: float, max_preemptions: int):
    """Victim-scan signals of one node's rows derived per node: every
    column gathered for *rows* only, remaining time at the node's scalar
    *rate* (``TaskRuntime.remaining_time_at``'s ops, in its order)."""
    idx = np.asarray(rows, dtype=np.intp)
    state = core._state.take(idx)
    size = core._size.take(idx)
    work = core._work.take(idx)
    run_start = core._run_start.take(idx)
    cur_rec = core._cur_recovery.take(idx)
    running = (state == _RUNNING) & ~np.isnan(run_start)
    elapsed = now - run_start
    unpaid = np.maximum(0.0, cur_rec - elapsed)
    prog = np.maximum(0.0, elapsed - cur_rec)
    work_r = np.minimum(size, work + prog * rate)
    rem_r = unpaid + np.maximum(0.0, size - work_r) / rate
    work_n = np.minimum(size, work)
    rem_n = core._recovery_due.take(idx) + np.maximum(0.0, size - work_n) / rate
    remaining = np.where(running, rem_r, rem_n)
    qs = core._queued_since.take(idx)
    queued = ~np.isnan(qs)
    baseline = np.maximum(qs, core._planned.take(idx))
    overdue = np.where(queued, np.maximum(0.0, now - baseline), 0.0)
    allowable = core._deadline.take(idx) - now - remaining
    runnable = core._unfinished.take(idx) == 0
    occupies = (state == _RUNNING) | (state == _STALLED)
    preemptable = occupies & (core._preempt_count.take(idx) < max_preemptions)
    return (
        overdue.tolist(),
        allowable.tolist(),
        runnable.tolist(),
        preemptable.tolist(),
    )


def _bits(values: list[float]) -> list[str]:
    return [float.hex(v) for v in values]


def _check_scans_at_epochs(engine: SimEngine) -> dict[str, int]:
    """Subscribe a checker that compares, at every EpochTick (emitted
    right before the victim scan), the cached scan signals of every
    contended node against :func:`_reference_scan`."""
    rt = engine.runtime
    core = rt.array
    seen = {"nodes": 0, "ticks": 0}

    def check(_event) -> None:
        seen["ticks"] += 1
        for node in rt.state.nodes.values():
            if not node.running or not node.queue_length:
                continue
            ids = sorted(node.running) + node.queued_ids(VIEW_QUEUE_LIMIT)
            rows = core.rows_of(ids)
            got = core.scan_signals(rows, rt.now, node.rate, rt.max_preemptions)
            want = _reference_scan(core, rows, rt.now, node.rate, rt.max_preemptions)
            assert _bits(got[0]) == _bits(want[0]), (rt.now, node.node_id)
            assert _bits(got[1]) == _bits(want[1]), (rt.now, node.node_id)
            assert got[2:] == want[2:], (rt.now, node.node_id)
            seen["nodes"] += 1

    rt.bus.subscribe(EpochTick, check)
    return seen


class TestScanColumns:
    def test_cached_scan_matches_per_node_derivation_chaos(self):
        engine = _faulty_engine(2, DSPConfig())
        seen = _check_scans_at_epochs(engine)
        engine.run()
        assert seen["nodes"] > 20, seen

    def test_cached_scan_matches_per_node_derivation_streaming_retire(self):
        cfg = DSPConfig()
        cluster, workload, deadlines, _faults = _chaos_inputs(5, cfg)
        engine = _engine(
            cluster,
            workload.jobs,
            deadlines,
            False,
            preemption=DSPPreemption(cfg),
            dsp_config=cfg,
            sim_config=dataclasses.replace(_sim_cfg(), retire_completed=True),
        )
        seen = _check_scans_at_epochs(engine)
        metrics = _drive(engine)
        assert seen["nodes"] > 20, seen
        assert engine.runtime.array._ids.free_count > 0, "nothing retired"
        assert metrics.jobs_completed == len(workload.jobs)

    def test_scan_cache_follows_max_preemptions(self):
        """The cache key includes the preemption cap: a second call in
        the same generation with another cap re-derives preemptable."""
        engine = _faulty_engine(0, DSPConfig(), batch=False)
        rt = engine.runtime
        core = rt.array
        checked = 0
        while engine.pump(50) and not checked:
            for node in rt.state.nodes.values():
                if not node.running:
                    continue
                rows = core.rows_of(sorted(node.running))
                for cap in (0, rt.max_preemptions, 0):
                    got = core.scan_signals(rows, rt.now, node.rate, cap)
                    want = _reference_scan(core, rows, rt.now, node.rate, cap)
                    assert got[3] == want[3]
                checked += 1
        assert checked


# -------------------------------------------------- dispatch-memo oracle
def _memo_oracle(engine: SimEngine) -> dict[str, int]:
    """Wrap the engine's dispatcher so every call the no-op memo skips
    is re-checked: a reference walk (the candidate scan, then the retry
    gate, then the capacity check) must find nothing startable.  A call
    counts as skipped when it passed the availability and gate checks
    yet never reached the candidate scan."""
    rt = engine.runtime
    core = rt.array
    disp = rt.dispatch
    real_dispatch = disp.dispatch
    real_candidates = core.dispatch_candidates
    walks = [0]
    seen = {"calls": 0, "skips": 0, "retry_gated": 0, "timed_wake": 0}

    def counting_candidates(node, now, dependency_aware):
        walks[0] += 1
        return real_candidates(node, now, dependency_aware)

    def checked_dispatch(node):
        seen["calls"] += 1
        eligible = (
            node.available
            and node.queue_length > 0
            and not any(gate(node.node_id) for gate in rt.state.dispatch_gates)
        )
        before = walks[0]
        startable = []
        gated = 0
        if eligible:
            now = rt.now
            for tid in real_candidates(node, now, rt.dependency_aware):
                task = rt.state.tasks[tid]
                if now + EPS < task.retry_not_before:
                    gated += 1
                elif node.fits(task.task.demand):
                    startable.append(tid)
        real_dispatch(node)
        if eligible and walks[0] == before:
            seen["skips"] += 1
            assert startable == [], (rt.now, node.node_id, startable)
            seen["retry_gated"] += bool(gated)
            seen["timed_wake"] += disp._idle[node.node_id][2] < math.inf

    core.dispatch_candidates = counting_candidates
    disp.dispatch = checked_dispatch
    return seen


def _one_lane(n: int) -> Cluster:
    return Cluster([
        NodeSpec(node_id=f"n{i}", cpu_size=1.0, mem_size=1.0, mips_per_unit=500.0)
        for i in range(n)
    ])


def _lane_event(time: float, action: str, node_id: str) -> MembershipEvent:
    return MembershipEvent(
        time=time, action=action, node_id=node_id,
        cpu_size=1.0, mem_size=1.0, mips_per_unit=500.0,
    )


def _elastic_engine() -> tuple[SimEngine, int]:
    """Autoscaled joins and drains on one-slot nodes, plus a scripted
    drain of n1 and a later re-join under the same id; returns the
    engine and its task count."""
    jobs = [_chain_job(f"J{j}", 6) for j in range(4)] + [
        Job.from_tasks(
            "W",
            [
                Task(
                    task_id=f"W.t{i}", job_id="W", size_mi=20000.0,
                    demand=ResourceVector(cpu=1.0, mem=0.5),
                )
                for i in range(16)
            ],
            deadline=1e9,
        )
    ]
    cluster = _one_lane(3)
    engine = SimEngine(
        cluster,
        jobs,
        HeuristicScheduler(cluster),
        sim_config=SimConfig(
            epoch=1.0, scheduling_period=10.0, invariants="strict"
        ),
        membership=[
            _lane_event(5.0, "drain", "n1"),
            _lane_event(40.0, "join", "n1"),
        ],
        elastic=ElasticConfig(
            autoscale=True, check_period=5.0,
            scale_up_queue_depth=3.0, scale_up_sustain=10.0,
            scale_down_idle_nodes=1, scale_down_sustain=30.0,
            cooldown=20.0, min_nodes=1, max_nodes=5,
            join_delay=5.0, drain_step=2.0,
        ),
    )
    return engine, sum(len(j.tasks) for j in jobs)


def _assert_elastic_run(engine: SimEngine, tasks: int) -> None:
    """Run the elastic engine and check the churn it was built for."""
    metrics = engine.run()
    assert metrics.tasks_completed == tasks
    assert metrics.nodes_joined >= 2, metrics.nodes_joined
    assert metrics.nodes_decommissioned >= 1
    assert "n1" in engine.runtime.state.nodes


class TestDispatchMemo:
    def test_batch_dsp(self):
        cfg = DSPConfig()
        cluster, workload, deadlines, _faults = _chaos_inputs(1, cfg)
        engine = _engine(
            cluster,
            workload.jobs,
            deadlines,
            True,
            preemption=DSPPreemption(cfg),
            dsp_config=cfg,
            sim_config=_sim_cfg(),
        )
        seen = _memo_oracle(engine)
        engine.run()
        assert seen["skips"] > 0, seen

    def test_chaos_with_retry_backoff(self):
        cfg = DSPConfig()
        cluster, workload, deadlines, faults = _chaos_inputs(2, cfg)
        engine = _engine(
            cluster,
            workload.jobs,
            deadlines,
            True,
            preemption=DSPPreemption(cfg),
            dsp_config=cfg,
            sim_config=_sim_cfg(),
            faults=faults,
            # Long backoffs keep failed attempts gated across many calls.
            resilience=ResilienceConfig(max_attempts=12, backoff_base=8.0),
        )
        seen = _memo_oracle(engine)
        engine.run()
        assert seen["skips"] > 0, seen
        assert seen["retry_gated"] > 0, seen
        assert seen["timed_wake"] > 0, seen

    def test_elastic_autoscale_with_rejoined_node(self):
        """Joins and drains from the autoscaler, plus a scripted drain of
        n1 and a later re-join under the same id."""
        engine, tasks = _elastic_engine()
        seen = _memo_oracle(engine)
        _assert_elastic_run(engine, tasks)
        assert seen["skips"] > 0, seen

    def test_dependency_blind_stall_timeout(self):
        engine = _streaming_chaos_engine(
            2, dependency_aware_dispatch=False, stall_timeout=1.0
        )
        seen = _memo_oracle(engine)
        _drive(engine)
        assert seen["skips"] > 0, seen
        assert seen["timed_wake"] > 0, seen

    def test_rejoined_node_gets_fresh_stamp(self):
        """A node id that leaves and re-joins never shows a stamp it
        held before, whichever slot it lands in."""
        engine = _faulty_engine(0, DSPConfig())
        rt = engine.runtime
        core = rt.array
        node = next(iter(rt.state.nodes.values()))
        seen = {core.node_version(node)}
        for _ in range(3):
            core.remove_node(node.node_id)
            core.add_node(node)
            stamp = core.node_version(node)
            assert stamp not in seen
            seen.add(stamp)
        core.rebuild_and_assert()
        assert core.node_version(node) not in seen

    def test_version_counter_never_restarts(self):
        """A node id that leaves and re-joins as a new ``NodeRuntime``,
        and every node after a restore rebuild, gets a version above any
        issued before — so no earlier memo entry can match it, as one
        could if versions restarted at 0 per node."""
        engine = _faulty_engine(0, DSPConfig(), batch=False)
        rt = engine.runtime
        core = rt.array
        memo = rt.dispatch._idle
        while not memo and engine.pump(50):
            pass
        assert memo, "no walk left a memo"

        def issued() -> int:
            return max(core.node_version(n) for n in rt.state.nodes.values())

        high = issued()
        core.rebuild_and_assert()
        for nid, node in rt.state.nodes.items():
            assert core.node_version(node) > high, nid
            if nid in memo:
                assert memo[nid][0] != core.node_version(node), nid

        nid = next(iter(memo))
        old = rt.state.nodes[nid]
        high = issued()
        core.remove_node(nid)
        fresh = NodeRuntime(old.spec, old.rate)
        core.add_node(fresh)
        assert core.node_version(fresh) > high
        assert memo[nid][0] != core.node_version(fresh)


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


    def test_registration_writes_what_a_sync_would(self):
        """Registration writes only the columns where a fresh runtime
        differs from a free row; into recycled rows and grown ones alike,
        a full resync afterwards changes nothing."""
        cluster = _lane()
        engine = SimEngine(
            cluster, [], HeuristicScheduler(cluster), sim_config=_sim_cfg(),
            streaming=True,
        )
        core = engine.runtime.array
        engine.submit_job(_chain_job("A", 3))
        while engine.pump(200):
            pass
        assert core._ids.free_count == 3
        now = engine.runtime.now
        engine.submit_job(_chain_job("B", 3, arrival=now))  # recycled rows
        engine.submit_job(_chain_job("C", 20, arrival=now))  # grows the core
        _assert_mirror_fresh(core, engine.runtime.state)
        names = [
            name for name, value in vars(core).items()
            if isinstance(value, np.ndarray) and len(value) == core._cap
        ]
        before = {name: getattr(core, name).copy() for name in names}
        entries, stalled = list(core._entry), set(core._stalled)
        core.resync()
        for name in names:
            assert np.array_equal(
                getattr(core, name), before[name], equal_nan=True
            ), name
        assert core._entry == entries and core._stalled == stalled
        for tid, row in core._row_of.items():
            kids = engine.runtime.state.children[tid]
            assert core._live_deps[row] == len(kids)


# ------------------------------------------------- dispatch-index oracle
def _masked_candidates(
    core: ArrayCore, node, now: float, dependency_aware: bool
) -> list[str]:
    """The dispatch scan as a whole-window mask over the columns and a
    sort of the survivors — the scan the per-node index replaced."""
    n = core._ids.capacity
    pos = core._node_pos[node.node_id]
    mask = (core._state[:n] == _QUEUED) & (core._node[:n] == pos)
    if dependency_aware:
        mask &= core._unfinished[:n] == 0
    else:
        gate = now + EPS
        mask &= (core._unfinished[:n] == 0) | (
            ~core._banned[:n] & (gate >= core._planned[:n])
        )
    rows = np.nonzero(mask)[0]
    planned = core._planned.take(rows).tolist()
    cand = sorted(
        (planned[i], core._id_of[r]) for i, r in enumerate(rows.tolist())
    )
    return [tid for _, tid in cand]


def _masked_wake(core: ArrayCore, node, now: float) -> float:
    """The blind wake as a whole-window mask: earliest planned start of
    the node's queued, unrunnable, unbanned rows still held at *now*."""
    n = core._ids.capacity
    pos = core._node_pos[node.node_id]
    planned = core._planned[:n]
    held = (
        (core._state[:n] == _QUEUED)
        & (core._node[:n] == pos)
        & (core._unfinished[:n] != 0)
        & ~core._banned[:n]
        & (now + EPS < planned)
    )
    return float(planned[held].min()) if held.any() else math.inf


def _index_oracle(engine: SimEngine) -> dict[str, int]:
    """Wrap the engine's dispatcher so that every call first checks the
    index's candidates under both gates, and its blind wake, against
    the whole-window references."""
    rt = engine.runtime
    core = rt.array
    disp = rt.dispatch
    real_dispatch = disp.dispatch
    seen = {"calls": 0, "candidates": 0, "blind_extra": 0, "wakes": 0}

    def checked_dispatch(node):
        if node.node_id in core._node_pos:
            now = rt.now
            where = (now, node.node_id)
            aware = core.dispatch_candidates(node, now, True)
            assert aware == _masked_candidates(core, node, now, True), where
            blind = core.dispatch_candidates(node, now, False)
            assert blind == _masked_candidates(core, node, now, False), where
            wake = core.blind_wake(node, now)
            assert wake == _masked_wake(core, node, now), where
            seen["calls"] += 1
            seen["candidates"] += bool(aware)
            seen["blind_extra"] += len(blind) > len(aware)
            seen["wakes"] += wake < math.inf
        real_dispatch(node)

    disp.dispatch = checked_dispatch
    return seen


class TestDispatchIndex:
    def test_dsp_batch(self):
        cfg = DSPConfig()
        cluster, workload, deadlines, _faults = _chaos_inputs(1, cfg)
        engine = _engine(
            cluster, workload.jobs, deadlines, True,
            preemption=DSPPreemption(cfg), dsp_config=cfg,
            sim_config=_sim_cfg(),
        )
        seen = _index_oracle(engine)
        engine.run()
        assert seen["candidates"] > 0, seen

    def test_dependency_blind_amoeba(self):
        """Amoeba dispatches blind: held rows past their planned start
        join the candidates, and their planned starts set the wake."""
        cfg = DSPConfig()
        cluster, workload, deadlines, _faults = _chaos_inputs(3, cfg)
        engine = _engine(
            cluster, workload.jobs, deadlines, True,
            preemption=AmoebaPreemption(), dsp_config=cfg,
            sim_config=_sim_cfg(), stall_timeout=1.0,
        )
        assert not engine.runtime.dependency_aware
        seen = _index_oracle(engine)
        engine.run()
        assert seen["blind_extra"] > 0, seen
        assert seen["wakes"] > 0, seen

    def test_chaos_with_retry_backoff(self):
        cfg = DSPConfig()
        cluster, workload, deadlines, faults = _chaos_inputs(2, cfg)
        engine = _engine(
            cluster, workload.jobs, deadlines, True,
            preemption=DSPPreemption(cfg), dsp_config=cfg,
            sim_config=_sim_cfg(), faults=faults,
            resilience=ResilienceConfig(max_attempts=12, backoff_base=8.0),
        )
        seen = _index_oracle(engine)
        engine.run()
        assert seen["candidates"] > 0, seen

    def test_elastic_drain_and_rejoin(self):
        engine, tasks = _elastic_engine()
        seen = _index_oracle(engine)
        _assert_elastic_run(engine, tasks)
        assert seen["candidates"] > 0, seen

    def test_streaming_with_retirement(self):
        cfg = DSPConfig()
        cluster, workload, deadlines, _faults = _chaos_inputs(5, cfg)
        engine = _engine(
            cluster, workload.jobs, deadlines, False,
            preemption=DSPPreemption(cfg), dsp_config=cfg,
            sim_config=dataclasses.replace(_sim_cfg(), retire_completed=True),
        )
        seen = _index_oracle(engine)
        metrics = _drive(engine)
        assert metrics.jobs_completed == len(workload.jobs)
        assert engine.runtime.array._ids.free_count > 0, "nothing retired"
        assert seen["candidates"] > 0, seen

    def test_rebuild_rejects_queue_divergence(self):
        """``rebuild_and_assert`` re-derives each node's lists from its
        restored queue: a queued task missing from its node's queue is
        a mismatch."""
        engine = _faulty_engine(0, DSPConfig(), batch=False)
        rt = engine.runtime
        core = rt.array
        node = None
        while node is None and engine.pump(20):
            node = next(
                (n for n in rt.state.nodes.values() if n.queue_length), None
            )
        assert node is not None, "no node ever held a queue"
        core.rebuild_and_assert()  # consistent: passes
        node._queue.pop()
        with pytest.raises(SnapshotError, match="dispatch index"):
            core.rebuild_and_assert()


# ------------------------------------------------------------ round filing
_COLUMNS = (
    "_size", "_work", "_run_start", "_cur_recovery", "_recovery_due",
    "_queued_since", "_total_wait", "_deadline", "_planned", "_stall_start",
    "_state", "_node", "_unfinished", "_live_deps", "_preempt_count", "_banned",
)


def _mirror_image(core: ArrayCore) -> dict:
    n = core._ids.capacity
    return {
        "columns": {name: getattr(core, name)[:n].copy() for name in _COLUMNS},
        "ready": [list(lst) for lst in core._ready],
        "held": [list(lst) for lst in core._held],
        "entry": list(core._entry[:n]),
        "versions": list(core._node_version),
        "stalled": set(core._stalled),
    }


def _round_parity(engine: SimEngine) -> dict[str, int]:
    """After every scheduling round's filing (at its ``RoundTick``), a full
    ``resync()`` changes no column (NaN-aware), dispatch list, entry or
    node version, and every node's queue is exactly its QUEUED tasks in
    ``(planned_start, task_id)`` order.  Counts rounds and the planned
    tasks whose target node had left the cluster (re-homed)."""
    rt = engine.runtime
    core = rt.array
    seen = {"rounds": 0, "rehomed": 0}
    plan = rt.scheduler.schedule

    def schedule(jobs):
        result = plan(jobs)
        seen["rehomed"] += sum(
            a.node_id not in rt.state.nodes for a in result.assignments.values()
        )
        return result

    rt.scheduler.schedule = schedule

    def check(_event) -> None:
        seen["rounds"] += 1
        before = _mirror_image(core)
        core.resync()
        after = _mirror_image(core)
        for name, col in before["columns"].items():
            assert np.array_equal(col, after["columns"][name], equal_nan=True), name
        for part in ("ready", "held", "entry", "versions", "stalled"):
            assert before[part] == after[part], part
        queued: dict[str, list] = {nid: [] for nid in rt.state.nodes}
        for tid, task in rt.state.tasks.items():
            if task.state is TaskState.QUEUED:
                queued[task.node_id].append((task.planned_start, tid))
        for nid, node in rt.state.nodes.items():
            assert node._queue == sorted(queued[nid]), nid

    rt.bus.subscribe(k.RoundTick, check)
    return seen


class TestRoundFiling:
    def test_streaming_dsp_replay(self):
        from repro.config import FrontierConfig
        from repro.core import DSPScheduler
        from repro.experiments import cluster_profile, workload_spec_for_cluster
        from repro.sim import StreamingFrontier, SyntheticSource

        cfg = DSPConfig()
        cluster = cluster_profile("cluster")
        spec = workload_spec_for_cluster(12, cluster, config=cfg)
        engine = SimEngine(
            cluster, [], DSPScheduler(cluster, cfg, ilp_task_limit=0),
            preemption=DSPPreemption(cfg), dsp_config=cfg,
            sim_config=SimConfig(
                epoch=60.0, scheduling_period=300.0, retire_completed=True
            ),
            streaming=True,
        )
        seen = _round_parity(engine)
        frontier = StreamingFrontier(
            engine, SyntheticSource(spec, seed=1), FrontierConfig(max_live_tasks=200)
        )
        metrics = frontier.run()
        assert metrics.jobs_completed == 12
        assert seen["rounds"] > 3, seen

    def test_chaos_elastic_batch_rehomes(self):
        """Jobs keep arriving while n1 is drained away and re-joins, under
        node failures and task kills: some plans name the departed n1 and
        are re-homed."""
        from repro.sim import random_fault_plan

        cluster = _one_lane(3)
        jobs = [_chain_job(f"J{j}", 4, arrival=12.0 * j) for j in range(10)]
        engine = SimEngine(
            cluster, jobs, HeuristicScheduler(cluster),
            sim_config=SimConfig(epoch=1.0, scheduling_period=10.0, horizon=5000.0),
            faults=random_fault_plan(
                cluster, horizon=150.0, rng=2, mtbf=60.0, mttr=10.0,
                task_fail_rate=0.2,
            ),
            resilience=ResilienceConfig(max_attempts=12),
            membership=[
                _lane_event(5.0, "drain", "n1"),
                _lane_event(80.0, "join", "n1"),
            ],
            elastic=ElasticConfig(drain_step=2.0),
        )
        seen = _round_parity(engine)
        metrics = engine.run()
        assert metrics.tasks_completed == 40
        assert metrics.nodes_decommissioned >= 1
        assert seen["rehomed"] > 0, seen

    def test_dropped_task_named(self):
        """A planner that drops one task of its batch fails the round with
        that task's id."""
        cluster = _lane(2)
        planner = HeuristicScheduler(cluster)
        dropped = []

        class Dropping:
            respects_dependencies = True

            def schedule(self, jobs):
                plan = planner.schedule(jobs)
                tid = sorted(plan.assignments)[-1]
                dropped.append(tid)
                del plan.assignments[tid]
                return plan

        engine = SimEngine(
            cluster, [_chain_job("J", 3)], Dropping(),
            sim_config=SimConfig(epoch=1.0, scheduling_period=10.0),
        )
        with pytest.raises(SimulationError, match="unassigned") as err:
            engine.run()
        assert dropped[0] in str(err.value)
