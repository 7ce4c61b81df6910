"""The array core (``sim/arraycore.py``) against independent oracles.

The engine scores Eq. 12–13 and runs Algorithm 1 through one path, the
struct-of-arrays :class:`~repro.sim.arraycore.ArrayCore`.  Each paper
equation keeps one small reference implementation, and this module holds
the core to them:

* **Eq. 12–13** — seeded runs (random layered DAG workloads × random
  fault/preemption event streams under DSP + resilience) with a wildcard
  bus hook that, after *every* bus event, compares the core's scores for
  all live tasks against a fresh stateless
  :meth:`repro.core.priority.PriorityEvaluator.compute` — exact float
  equality, no tolerance.  This is the empirical proof that the
  event-driven mirroring catalog covers every mutation path.
* **Algorithm 1** — a reference written here from the paper's text
  (:func:`_reference_algorithm1`; it shares no code with
  :mod:`repro.core.preemption`).  At every epoch tick of a seeded chaos
  run,
  :meth:`~repro.core.preemption.DSPPreemption.select_preemptions_from_core`
  decides exactly as the reference over the runtime objects' signals and
  a fresh ``PriorityEvaluator``; a derandomized property test holds
  :func:`~repro.core.preemption.algorithm1` to it on drawn node states.
* **Restore** — a crash/restore replays to identical results (the restore
  path rebuilds the core from objects and asserts equivalence).
* **Adoption guard** — a :class:`~repro.core.preemption.DSPPreemption`
  configured with different Eq. 12–13 parameters than the engine is
  refused at construction.

Most checks run twice, parametrized by ``batch``: ``True`` hands the
workload to the engine up front, ``False`` admits the same jobs through
streaming ``submit_job`` (the path that allocates core rows after the
engine and its policy are wired).
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster, NodeSpec, ResourceVector
from repro.config import DSPConfig, ResilienceConfig, SimConfig, SnapshotConfig
from repro.core import HeuristicScheduler
from repro.core.preemption import DSPPreemption, algorithm1
from repro.core.priority import PriorityEvaluator
from repro.dag import Job, Task
from repro.dag.task import TaskState
from repro.experiments.harness import (
    build_workload_for_cluster,
    compute_level_deadlines,
)
from repro.sim import (
    EpochTick,
    SimContext,
    SimEngine,
    SimulatedCrash,
    inject_crash,
    latest_valid_snapshot,
    random_fault_plan,
)
from repro.sim.arraycore import ArrayCore
from repro.sim.policy import PreemptionDecision
from repro.sim.views import VIEW_QUEUE_LIMIT


def _small_cluster(n: int = 4) -> Cluster:
    return Cluster([
        NodeSpec(node_id=f"n{i}", cpu_size=2.0, mem_size=2.0, mips_per_unit=400.0)
        for i in range(n)
    ])


def _diamond_jobs() -> list[Job]:
    jobs = []
    for j in range(3):
        tasks = [
            Task(
                task_id=f"J{j}.a", job_id=f"J{j}", size_mi=8000.0,
                demand=ResourceVector(cpu=1.0, mem=0.5),
            ),
            Task(
                task_id=f"J{j}.b", job_id=f"J{j}", size_mi=6000.0,
                demand=ResourceVector(cpu=1.0, mem=0.5),
            ),
            Task(
                task_id=f"J{j}.c", job_id=f"J{j}", size_mi=4000.0,
                demand=ResourceVector(cpu=1.0, mem=0.5),
                parents=(f"J{j}.a", f"J{j}.b"),
            ),
        ]
        jobs.append(Job.from_tasks(f"J{j}", tasks, deadline=1e6))
    return jobs


def _sim_cfg() -> SimConfig:
    return SimConfig(epoch=2.0, scheduling_period=20.0)


def _chaos_inputs(seed: int, cfg: DSPConfig):
    """Workload/cluster/deadlines/faults for a seed-fixed chaos run (shared
    by the engine builder and the restore test, which must rebuild the same
    inputs for the recovered engine)."""
    cluster = _small_cluster()
    workload = build_workload_for_cluster(
        3, cluster, scale=10.0, seed=seed, config=cfg, demand_fraction=0.8
    )
    deadlines = compute_level_deadlines(workload, cluster, cfg)
    faults = random_fault_plan(
        cluster, horizon=400.0, rng=seed, mtbf=120.0, mttr=40.0,
        straggler_rate=0.5, task_fail_rate=0.5,
    )
    return cluster, workload, deadlines, faults


def _engine(
    cluster: Cluster,
    jobs: list[Job],
    deadlines: dict[str, float] | None,
    batch: bool,
    **engine_kwargs,
) -> SimEngine:
    """A DSP engine over *jobs*, handed over up front (*batch*) or
    admitted one by one through streaming ``submit_job``."""
    engine = SimEngine(
        cluster,
        jobs if batch else [],
        HeuristicScheduler(cluster),
        task_deadlines=deadlines if batch else None,
        streaming=not batch,
        **engine_kwargs,
    )
    if not batch:
        for job in jobs:
            engine.submit_job(
                job,
                None if deadlines is None
                else {tid: deadlines[tid] for tid in job.tasks},
            )
    return engine


def _drive(engine: SimEngine):
    """Run *engine* to completion in either admission mode."""
    if not engine._streaming:
        return engine.run()
    while engine.pump(200):
        pass
    return engine.finalize()


def _faulty_engine(
    seed: int, cfg: DSPConfig, batch: bool = True, **engine_kwargs
) -> SimEngine:
    """A seed-fixed DSP run over a random layered workload with node
    failures, stragglers, task kills and the resilience layer active —
    the densest event stream the simulator produces."""
    cluster, workload, deadlines, faults = _chaos_inputs(seed, cfg)
    return _engine(
        cluster,
        workload.jobs,
        deadlines,
        batch,
        preemption=DSPPreemption(cfg),
        dsp_config=cfg,
        sim_config=_sim_cfg(),
        faults=faults,
        resilience=ResilienceConfig(max_attempts=12),
        **engine_kwargs,
    )


def _oracle_scores(
    rt, evaluator: PriorityEvaluator
) -> tuple[list[str], dict[str, float]]:
    """Live task ids and their Eq. 12–13 scores from the stateless
    evaluator over the runtime's current signals."""
    state = rt.state
    now = rt.now
    completed = [
        tid for tid, task in state.tasks.items()
        if task.state is TaskState.COMPLETED
    ]
    done = set(completed)
    live = [tid for tid in state.tasks if tid not in done]
    remaining = {tid: state.remaining_time(tid, now) for tid in live}
    expected = evaluator.compute(
        remaining,
        {tid: state.tasks[tid].waiting_time_at(now) for tid in live},
        {
            tid: state.tasks[tid].deadline - now - remaining[tid]
            for tid in live
        },
        completed=completed,
    )
    return live, expected


# ---------------------------------------------------- Eq. 12-13 oracle
class TestIndexMatchesStateless:
    @pytest.mark.parametrize("batch", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_exact_after_every_event(self, seed: int, batch: bool):
        """After every bus event, the array core's scores == a fresh
        stateless evaluation over live signals, bit for bit."""
        cfg = DSPConfig()
        engine = _faulty_engine(seed, cfg, batch)
        rt = engine.runtime
        core = rt.array
        evaluator = PriorityEvaluator(cfg, rt.state.static_tasks)
        checks = 0

        def check(_event) -> None:
            nonlocal checks
            live, expected = _oracle_scores(rt, evaluator)
            if not live:
                return
            assert core.priorities(live) == expected  # exact float equality
            checks += 1

        # Wildcard subscribers run after every typed subscriber of the
        # same event, so the hook always observes the synced mirror.
        rt.bus.subscribe_all(check)
        _drive(engine)
        assert checks > 100, "run produced too few events to be meaningful"
        assert core.invalidations > 0
        assert core.clears > 0
        assert core.hits > 0

    @pytest.mark.parametrize("batch", [True, False])
    def test_exact_on_handcrafted_diamond(self, batch: bool):
        """Same property on the hand-built diamond workload (shared
        parents, exercised by the kernel determinism suite)."""
        cfg = DSPConfig()
        cluster = _small_cluster()
        faults = random_fault_plan(
            cluster, horizon=400.0, rng=11, mtbf=120.0, mttr=40.0,
            straggler_rate=0.5, task_fail_rate=0.5,
        )
        engine = _engine(
            cluster,
            _diamond_jobs(),
            None,
            batch,
            preemption=DSPPreemption(cfg),
            dsp_config=cfg,
            sim_config=_sim_cfg(),
            faults=faults,
            resilience=ResilienceConfig(),
        )
        rt = engine.runtime
        evaluator = PriorityEvaluator(cfg, rt.state.static_tasks)
        checks = 0

        def check(_event) -> None:
            nonlocal checks
            live, expected = _oracle_scores(rt, evaluator)
            if not live:
                return
            assert rt.array.priorities(live) == expected
            checks += 1

        rt.bus.subscribe_all(check)
        _drive(engine)
        assert checks > 0


# ---------------------------------------------------- Algorithm 1 oracle
def _reference_algorithm1(
    cfg: DSPConfig,
    epoch: float,
    running: list[str],
    waiting: list[str],
    prio: dict[str, float],
    overdue: dict[str, float],
    allowable: dict[str, float],
    runnable: dict[str, bool],
    preemptable: dict[str, bool],
    ancestors,
) -> list[PreemptionDecision]:
    """Algorithm 1 as §IV-B states it, written apart from the production
    code: per-task values keyed by task id, *waiting* in queue order."""
    # Line 2: running tasks whose allowable waiting time exceeds the
    # epoch may be preempted, lowest priority first.
    candidates = [
        t for t in running if preemptable[t] and allowable[t] > epoch
    ]
    candidates.sort(key=lambda t: (prio[t], t))
    # P-bar: mean priority gap between neighbours once the node's tasks
    # are sorted by priority.
    ranked = sorted(prio[t] for t in running + waiting)
    gaps = [b - a for a, b in zip(ranked, ranked[1:])]
    p_bar = sum(gaps) / len(gaps) if gaps else 0.0
    decisions: list[PreemptionDecision] = []
    preempting: set[str] = set()

    def evict(w: str, gated: bool) -> None:
        for v in candidates:
            if v in ancestors[w]:
                continue  # C2: a task never evicts its own ancestor
            if gated:
                gap = prio[w] - prio[v]
                if gap <= 0:
                    return  # C1 fails here and for every later candidate
                if cfg.use_pp:
                    normalized_ok = gap / p_bar > cfg.rho if p_bar > 0 else gap > 0
                    if not normalized_ok:
                        return  # PP: later candidates leave smaller gaps
            decisions.append(PreemptionDecision(w, v))
            candidates.remove(v)
            preempting.add(w)
            return

    # Lines 3-11: urgent tasks preempt without C1/PP.
    for w in waiting:
        if runnable[w] and (allowable[w] <= cfg.epsilon or overdue[w] >= cfg.tau):
            evict(w, gated=False)
    # Lines 12-19: the first delta-fraction of the queue, C1 (+PP) gated.
    for w in waiting[: max(1, math.ceil(cfg.delta * len(waiting)))]:
        if runnable[w] and w not in preempting:
            evict(w, gated=True)
    return decisions


def _reference_for_node(
    cfg: DSPConfig, rt, node, evaluator: PriorityEvaluator
) -> list[PreemptionDecision]:
    """The reference over *node*'s live state: signals from the runtime
    objects, priorities from a stateless :class:`PriorityEvaluator`,
    C2 from the memoized ancestor closures."""
    state = rt.state
    now = rt.now
    running = sorted(node.running)
    waiting = node.queued_ids(VIEW_QUEUE_LIMIT)
    ids = running + waiting

    def remaining(tid: str) -> float:
        return state.remaining_time(tid, now)

    def allowable(tid: str) -> float:
        return state.tasks[tid].deadline - now - remaining(tid)

    prio = evaluator.compute_for(
        ids,
        remaining_fn=remaining,
        waiting_fn=lambda tid: state.tasks[tid].waiting_time_at(now),
        allowable_fn=allowable,
        completed_fn=lambda tid: state.tasks[tid].state is TaskState.COMPLETED,
    )
    tasks = {tid: state.tasks[tid] for tid in ids}
    return _reference_algorithm1(
        cfg,
        rt.sim_config.epoch,
        running,
        waiting,
        prio,
        {tid: t.overdue_waiting_at(now) for tid, t in tasks.items()},
        {tid: allowable(tid) for tid in ids},
        {tid: t.is_runnable for tid, t in tasks.items()},
        {
            tid: t.occupies_resources and t.preempt_count < rt.max_preemptions
            for tid, t in tasks.items()
        },
        state.ancestors,
    )


class TestAlgorithm1Oracle:
    @pytest.mark.parametrize("use_pp", [True, False])
    @pytest.mark.parametrize("seed", [0, 2, 5])
    def test_core_scan_matches_view_oracle(self, seed: int, use_pp: bool):
        """At every epoch tick, for every node with both running and
        queued tasks, the column scan decides exactly as the reference
        Algorithm 1 over the runtime objects — including the nodes the
        runnable-head filter skips, whose verdict must match the objects'
        own view of the queue head."""
        cfg = DSPConfig(use_pp=use_pp)
        engine = _faulty_engine(seed, cfg)
        rt = engine.runtime
        policy = rt.policy
        assert policy._core is rt.array
        evaluator = PriorityEvaluator(cfg, rt.state.static_tasks)
        compared = 0
        decided = 0
        skipped = 0

        def check(_event: EpochTick) -> None:
            nonlocal compared, decided, skipped
            for node_id in sorted(rt.state.nodes):
                node = rt.state.nodes[node_id]
                if not node.running or not node.queue_length:
                    continue
                head = node.queued_ids(VIEW_QUEUE_LIMIT)
                filtered = not rt.array.runnable_through(node, head[-1])
                assert filtered == (
                    not any(rt.state.tasks[t].is_runnable for t in head)
                ), (rt.now, node_id)
                got = list(policy.select_preemptions_from_core(rt, node))
                want = _reference_for_node(cfg, rt, node, evaluator)
                assert got == want, (rt.now, node_id)
                compared += 1
                decided += bool(got)
                skipped += filtered

        # The executor emits EpochTick right before its victim scan, so
        # this hook sees the state the scan decides on.
        rt.bus.subscribe(EpochTick, check)
        engine.run()
        assert compared > 20, "too few contended snapshots to be meaningful"
        assert decided > 0, "oracle never saw a preemption"
        assert skipped > 0, "no compared node had an unrunnable queue head"

    def test_filter_reads_only_the_visited_head(self):
        """One node, one slot: a long root runs while its 36 children
        fill the queue head, and a later independent task queues behind
        them, runnable but past the ``VIEW_QUEUE_LIMIT`` entries
        Algorithm 1 visits.  The filter must skip the node without
        scoring, although the node's ready list is not empty."""
        cluster = Cluster([
            NodeSpec(node_id="n0", cpu_size=1.0, mem_size=1.0, mips_per_unit=500.0)
        ])
        demand = ResourceVector(cpu=1.0, mem=0.5)
        root = Task(task_id="A.r", job_id="A", size_mi=50000.0, demand=demand)
        kids = [
            Task(
                task_id=f"A.k{i:02d}", job_id="A", size_mi=1000.0,
                demand=demand, parents=("A.r",),
            )
            for i in range(VIEW_QUEUE_LIMIT + 4)
        ]
        late = Task(task_id="B.t", job_id="B", size_mi=1000.0, demand=demand)
        jobs = [
            Job.from_tasks("A", [root, *kids], deadline=1e6),
            Job.from_tasks("B", [late], deadline=1e6, arrival_time=1.0),
        ]
        cfg = DSPConfig()
        engine = _engine(
            cluster, jobs, None, True, preemption=DSPPreemption(cfg),
            dsp_config=cfg, sim_config=_sim_cfg(),
        )
        rt = engine.runtime
        core = rt.array
        node = rt.state.nodes["n0"]
        skipped = 0

        def check(_event: EpochTick) -> None:
            nonlocal skipped
            queue = node.queued_ids()
            if "A.r" not in node.running or "B.t" not in queue:
                return
            assert queue.index("B.t") >= VIEW_QUEUE_LIMIT
            assert core.runnable_through(node, queue[-1])
            assert not core.runnable_through(node, queue[VIEW_QUEUE_LIMIT - 1])
            lookups = core.hits + core.misses
            assert rt.policy.select_preemptions_from_core(rt, node) == []
            assert core.hits + core.misses == lookups
            skipped += 1

        rt.bus.subscribe(EpochTick, check)
        engine.run()
        assert skipped > 0, "the late task never queued behind the head"

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(st.data())
    def test_matches_reference_on_drawn_nodes(self, data):
        """On small drawn node states — tied scores, allowable and
        overdue values on both sides of epsilon, tau and the epoch,
        random flags and ancestor sets — :func:`algorithm1` decides
        exactly as the reference."""
        cfg = DSPConfig(
            use_pp=data.draw(st.booleans(), "use_pp"),
            delta=data.draw(st.sampled_from([0.2, 0.35, 1.0]), "delta"),
        )
        epoch = 5.0
        n_run = data.draw(st.integers(0, 6), "n_run")
        n_wait = data.draw(st.integers(0, 10), "n_wait")
        running = [f"r{i}" for i in range(n_run)]
        waiting = [f"w{i}" for i in range(n_wait)]
        ids = running + waiting
        scores = st.one_of(
            st.sampled_from([0.0, 0.5, 1.0, 2.0]),
            st.floats(-5.0, 50.0, allow_nan=False),
        )
        allowables = st.sampled_from([
            -1.0, 0.0, cfg.epsilon, 0.02, 1.0, epoch, epoch + 1e-9, 60.0,
        ])
        overdues = st.sampled_from([0.0, cfg.tau - 1.0, cfg.tau, cfg.tau + 1.0])
        prio = {t: data.draw(scores, f"score {t}") for t in ids}
        allowable = {t: data.draw(allowables, f"allowable {t}") for t in ids}
        overdue = {t: data.draw(overdues, f"overdue {t}") for t in ids}
        runnable = {t: data.draw(st.booleans(), f"runnable {t}") for t in ids}
        preemptable = {t: data.draw(st.booleans(), f"preemptable {t}") for t in ids}
        ancestors = {
            w: frozenset(
                data.draw(st.sets(st.sampled_from(running)), f"ancestors {w}")
                if running else ()
            )
            for w in waiting
        }

        def column(values: dict) -> list:
            return [values[t] for t in ids]

        got = algorithm1(
            cfg, epoch, running, waiting, column(prio), column(overdue),
            column(allowable), column(runnable), column(preemptable),
            ancestors,
        )
        want = _reference_algorithm1(
            cfg, epoch, running, waiting, prio, overdue, allowable,
            runnable, preemptable, ancestors,
        )
        assert got == want

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.data())
    def test_no_runnable_queued_task_decides_nothing(self, data):
        """Both passes pick preempting tasks only among runnable queued
        ones: with none runnable, :func:`algorithm1` returns ``[]`` for
        any scores, signals, flags and ancestor sets (the exactness
        argument behind the runnable-head filter)."""
        cfg = DSPConfig(
            use_pp=data.draw(st.booleans(), "use_pp"),
            delta=data.draw(st.sampled_from([0.2, 0.35, 1.0]), "delta"),
        )
        epoch = 5.0
        running = [f"r{i}" for i in range(data.draw(st.integers(0, 6), "n_run"))]
        waiting = [f"w{i}" for i in range(data.draw(st.integers(1, 10), "n_wait"))]
        n = len(running) + len(waiting)
        floats = st.floats(-100.0, 100.0, allow_nan=False)

        def column(strategy, label: str) -> list:
            return data.draw(st.lists(strategy, min_size=n, max_size=n), label)

        runnable = column(st.booleans(), "running runnable")[: len(running)]
        ancestors = {
            w: frozenset(
                data.draw(st.sets(st.sampled_from(running)), f"ancestors {w}")
                if running else ()
            )
            for w in waiting
        }
        got = algorithm1(
            cfg, epoch, running, waiting,
            column(floats, "scores"),
            column(st.floats(0.0, 2 * cfg.tau, allow_nan=False), "overdue"),
            column(floats, "allowable"),
            runnable + [False] * len(waiting),
            column(st.booleans(), "preemptable"),
            ancestors,
        )
        assert got == []


# ------------------------------------------------------------- wiring
class TestCoreKnobs:
    def test_knob_wiring(self):
        """One wiring: the engine always builds the array core and exposes
        it as the scoring seam, and ``SimConfig`` carries no selector
        knob (its settable fields are exactly the run parameters)."""
        engine = _faulty_engine(0, DSPConfig())
        rt = engine.runtime
        assert isinstance(rt.array, ArrayCore)
        assert SimContext(rt).priority_index is rt.array
        assert [f.name for f in dataclasses.fields(SimConfig)] == [
            "epoch",
            "scheduling_period",
            "horizon",
            "collect_task_samples",
            "invariants",
            "retire_completed",
            "retire_batch",
        ]


# ------------------------------------------------- crash/restore rebuild
class TestRestoreRebuild:
    @pytest.mark.parametrize("batch", [True, False])
    def test_crash_resume_rebuilds_seam(self, tmp_path, batch: bool):
        """A run crashed mid-flight and recovered from the latest snapshot
        replays to identical metrics and a byte-identical journal; the
        restore path rebuilds the array core from restored objects and
        asserts it equivalent (``rebuild_and_assert``)."""
        cfg = DSPConfig()
        seed = 5

        def wiring(path) -> dict:
            cluster, _workload, _deadlines, faults = _chaos_inputs(seed, cfg)
            return dict(
                preemption=DSPPreemption(cfg),
                dsp_config=cfg,
                sim_config=_sim_cfg(),
                faults=faults,
                resilience=ResilienceConfig(max_attempts=12),
                journal=path / "run.journal",
                snapshots=SnapshotConfig(
                    directory=str(path / "snaps"), every_events=200
                ),
            )

        def build(path):
            cluster, workload, deadlines, _faults = _chaos_inputs(seed, cfg)
            return _engine(
                cluster, workload.jobs, deadlines, batch, **wiring(path)
            )

        ref = build(tmp_path / "ref")
        ref_metrics = _drive(ref).as_dict()
        total = ref.runtime.kernel.pops

        crashed = build(tmp_path / "rec")
        inject_crash(crashed, at_pop=total // 2)
        with pytest.raises(SimulatedCrash):
            _drive(crashed)
        found = latest_valid_snapshot(tmp_path / "rec" / "snaps")
        assert found is not None
        _, data = found

        # A streaming restore rebuilds its live window from the snapshot.
        cluster, workload, deadlines, _faults = _chaos_inputs(seed, cfg)
        resumed = SimEngine.restore(
            data,
            cluster,
            workload.jobs if batch else [],
            HeuristicScheduler(cluster),
            task_deadlines=deadlines if batch else None,
            streaming=not batch,
            **wiring(tmp_path / "rec"),
        )
        assert isinstance(resumed.runtime.array, ArrayCore)
        assert _drive(resumed).as_dict() == ref_metrics
        ref_journal = (tmp_path / "ref" / "run.journal").read_bytes()
        rec_journal = (tmp_path / "rec" / "run.journal").read_bytes()
        assert rec_journal == ref_journal


# -------------------------------------------------------- adoption guard
_MISMATCHED = DSPConfig(
    omega_remaining=0.2, omega_waiting=0.3, omega_allowable=0.5
)


class TestPolicyAdoption:
    @pytest.mark.parametrize("batch", [True, False])
    def test_matching_config_adopts_seam(self, batch: bool):
        engine = _faulty_engine(0, DSPConfig(), batch)
        assert engine.runtime.policy._core is engine.runtime.array

    @pytest.mark.parametrize("batch", [True, False])
    def test_mismatched_config_refused(self, batch: bool):
        """A policy scoring with different Eq. 12-13 weights than the
        engine is refused at construction, naming the differing fields."""
        with pytest.raises(ValueError, match="omega_remaining, omega_allowable"):
            _engine(
                _small_cluster(),
                _diamond_jobs(),
                None,
                batch,
                preemption=DSPPreemption(_MISMATCHED),
                dsp_config=DSPConfig(),
                sim_config=_sim_cfg(),
            )


# ------------------------------------- stateless fallback self-consistency
class TestComputeForFallback:
    def test_compute_for_matches_compute(self):
        """Regression guard for the single-pass DFS rewrite: the lazy
        per-subgraph entry point must agree exactly with the full pass,
        including with completed tasks pruned from the live sets."""
        cfg = DSPConfig()
        cluster = _small_cluster()
        workload = build_workload_for_cluster(
            3, cluster, scale=10.0, seed=3, config=cfg, demand_fraction=0.8
        )
        tasks = {
            tid: task for job in workload.jobs for tid, task in job.tasks.items()
        }
        evaluator = PriorityEvaluator(cfg, tasks)
        ids = sorted(tasks)
        # Mark every third task with no incomplete parents as completed.
        completed: set[str] = set()
        for i, tid in enumerate(ids):
            if i % 3 == 0 and all(p in completed for p in tasks[tid].parents):
                completed.add(tid)
        live = [tid for tid in ids if tid not in completed]
        remaining = {tid: 5.0 + (i % 7) for i, tid in enumerate(live)}
        waiting = {tid: float(i % 5) for i, tid in enumerate(live)}
        allowable = {tid: 50.0 - (i % 11) for i, tid in enumerate(live)}
        full = evaluator.compute(remaining, waiting, allowable, completed)
        lazy = evaluator.compute_for(
            live,
            remaining_fn=remaining.__getitem__,
            waiting_fn=waiting.__getitem__,
            allowable_fn=allowable.__getitem__,
            completed_fn=completed.__contains__,
        )
        assert lazy == full
