"""Discrete-event cluster simulator — the assembly facade.

The engine replays a workload (jobs of DAG tasks) on a cluster under

* an **offline scheduler** — any object with
  ``schedule(jobs) -> ScheduleLike`` (the DSP ILP/heuristic or a baseline),
  invoked every scheduling period on the jobs that arrived since the last
  round (§III's unit periods), whose output fills the per-node waiting
  queues of Fig. 4; and
* an **online preemption policy** — evaluated on every epoch tick
  (§IV-B), producing (preempting, victim) pairs the engine validates and
  applies.

Since the kernel/subsystem refactor this module is a thin *facade*: it
validates arguments, builds the shared :class:`~repro.sim.state.SimState`,
and wires the :class:`~repro.sim.kernel.Kernel` + subsystems together
(see ``docs/architecture.md``, "Kernel & subsystems"):

========================  ====================================================
module                    responsibility
========================  ====================================================
:mod:`~repro.sim.kernel`       timed-event loop + synchronous event bus
:mod:`~repro.sim.state`        world state, validation, the wiring hub
:mod:`~repro.sim.dispatch`     rounds, queue→node dispatch, completion
:mod:`~repro.sim.preemption_exec`  epoch tick, decision validation, suspend
:mod:`~repro.sim.fault_sub`    applying injected faults to live state
:mod:`~repro.sim.views`        per-node signal gather for baselines
:mod:`~repro.sim.resilience`   retries, speculation, quarantine (optional)
:mod:`~repro.sim.metrics`      bus subscriber accumulating RunMetrics
:mod:`~repro.sim.tracelog`     bus subscriber recording Gantt segments
:mod:`~repro.sim.invariants`   runtime invariant checking (optional)
:mod:`~repro.sim.chaos`        composable chaos scenarios → fault plans
========================  ====================================================

Behavioural contract (DESIGN.md §4):

* a node runs any set of tasks whose demands fit its capacity vector;
* dependency-aware runs dispatch only runnable tasks; dependency-unaware
  runs also dispatch tasks whose planned start has passed — if their
  parents have not finished, that dispatch is a **disorder** and the task
  *stalls*, holding capacity without progressing, until its parents
  complete;
* a preempted task is re-queued by its planned start; with checkpointing
  it keeps its progress, without (SRPT) it restarts from zero; either way
  it pays the recovery cost :math:`t_r + \\sigma` when next dispatched and
  the run's preemption counter increments;
* a *starvation guard* caps preemptions per task (default 25): beyond the
  cap a task becomes non-preemptable and runs to completion.  The paper
  does not need this because its testbed runs finite workloads with human
  patience as the backstop; an un-capped SRPT-without-checkpoint can
  livelock in simulation.  The cap is far above the per-task preemption
  counts any policy reaches in the reproduced figures.
"""

from __future__ import annotations

import os
from typing import Any, Mapping, Protocol, Sequence

from ..cluster.cluster import Cluster
from ..config import (
    DSPConfig,
    ElasticConfig,
    ResilienceConfig,
    SimConfig,
    SnapshotConfig,
)
from ..dag.job import Job
from .arraycore import ArrayCore
from .dispatch import DispatchSubsystem
from .elastic import ElasticSubsystem, MembershipEvent, normalize_membership_plan
from .events import EventKind
from .fault_sub import FaultSubsystem
from .faults import FaultEvent, fault_sort_key, validate_fault_plan
from .executor import NodeRuntime, TaskRuntime
from .invariants import InvariantChecker
from .journal import JournalRecorder
from .kernel import (
    EventBus,
    Kernel,
    SimulationError,
    SimulationInterrupted,
    SimulationStuck,
)
from .metrics import MetricsCollector, RunMetrics
from .policy import NullPreemption, PreemptionPolicy
from .preemption_exec import PreemptionExecutor
from .resilience import ResilienceManager
from .snapshot import SnapshotManager, load_snapshot, restore_into, snapshot_engine
from .state import SimRuntime, build_state
from .tracelog import TraceLog
from .views import ViewCache

__all__ = [
    "SimEngine",
    "SimulationError",
    "SimulationStuck",
    "SchedulerLike",
]


class SchedulerLike(Protocol):
    """Structural type of offline schedulers: one batch in, a plan out.

    The plan must expose ``assignments``: a mapping from task id to an
    object with ``node_id`` and ``start`` attributes
    (:class:`repro.core.schedule.Schedule` satisfies this)."""

    def schedule(self, jobs: Sequence[Job]) -> Any: ...


class SimEngine:
    """One simulation run: (cluster, jobs, scheduler, policy, configs) → metrics.

    Parameters
    ----------
    cluster, jobs:
        The hardware and the workload.
    scheduler:
        Offline planner invoked per scheduling round.
    preemption:
        Online policy evaluated per epoch; defaults to
        :class:`~repro.sim.policy.NullPreemption`.
    dsp_config, sim_config:
        Parameter sets (Table II and run cadence).
    task_deadlines:
        Optional per-task absolute deadlines (the §IV-B level rule,
        computed by :func:`repro.core.levels.task_deadlines`); defaults to
        each task inheriting its job's deadline.
    dependency_aware_dispatch:
        Overrides the dispatch discipline; ``None`` inherits
        ``preemption.respects_dependencies``.
    max_preemptions_per_task:
        The starvation guard (see module docstring).
    stall_timeout:
        Dependency-blind dispatch can *deadlock*: a stalled task holds
        capacity its own (queued) ancestor needs — exactly the hazard §IV-A
        warns about ("even worse, deadlock may occur due to the dependency
        constraints").  Real frameworks eventually fail/kick such tasks, so
        after stalling this many *seconds* (checked at epoch ticks) a
        stalled task is evicted back to the queue (counted in
        ``metrics.num_stall_evictions``, not as a policy preemption) and
        thereafter only dispatches once runnable.  The 120 s default
        approximates the detect-fail-retry cost of dispatching a task whose
        inputs do not exist yet on a production framework.
    faults:
        Optional fault-injection plan (:mod:`repro.sim.faults`): node
        failures suspend and reassign everything on the node (work rolls
        back to the last checkpoint), stragglers re-time in-flight tasks
        at the degraded rate, TASK_FAIL kills the longest-running attempt
        on the node (the stint's progress is lost).  Validated against the
        cluster up front.
    membership, elastic:
        Elastic cluster membership (:mod:`repro.sim.elastic`).
        ``membership`` is a scripted plan of
        :class:`~repro.sim.elastic.MembershipEvent` join/drain steps
        (validated against the construction-time cluster up front);
        ``elastic`` is an :class:`~repro.config.ElasticConfig` tuning the
        lifecycle knobs and, with ``autoscale=True``, enabling the
        load-following autoscaler.  Passing either activates the
        subsystem; the default (both ``None``) keeps the node set fixed
        and every code path byte-identical to a non-elastic engine.
    resilience:
        Optional :class:`~repro.config.ResilienceConfig` activating the
        dependency-aware resilience layer (:mod:`repro.sim.resilience`):
        retry backoff ranked by DSP priority, per-task timeouts,
        speculative re-execution of stragglers and node-health quarantine.
        ``None`` (default) keeps the bare fault model: a failed attempt is
        re-queued and retried immediately, stragglers run to completion in
        place, and no node is ever quarantined.
    record_trace:
        When True, every run/stall segment is recorded in
        :attr:`trace` (a :class:`~repro.sim.tracelog.TraceLog`) for Gantt
        rendering and timeline debugging.  Off by default — long runs
        record millions of segments.
    snapshots:
        Optional :class:`~repro.config.SnapshotConfig` enabling automatic
        rotated full-state snapshots (:mod:`repro.sim.snapshot`) on the
        configured cadence; :meth:`snapshot` works regardless.
    journal:
        Optional path: write-ahead run journal (:mod:`repro.sim.journal`)
        of every timed-event pop and bus event, CRC-framed JSONL with
        batched fsync.  Recovery = latest valid snapshot + deterministic
        re-execution; the journal is the post-mortem record and the
        byte-identical parity witness (a crashed-and-resumed run rewrites
        the suffix past the snapshot's offset identically).
    streaming:
        Switch from batch to *streaming admission*: ``jobs`` may be empty,
        work enters through :meth:`submit_job` at any settled point, and
        the run advances through bounded :meth:`pump` slices instead of
        the one-shot :meth:`run`.  This is the service frontend's mode —
        determinism is preserved because submissions only land between
        event pops and pump quanta are counted in pops, not wall time.
        Call :meth:`finalize` for the metrics once drained.
    """

    def __init__(
        self,
        cluster: Cluster,
        jobs: Sequence[Job],
        scheduler: SchedulerLike,
        preemption: PreemptionPolicy | None = None,
        dsp_config: DSPConfig | None = None,
        sim_config: SimConfig | None = None,
        task_deadlines: Mapping[str, float] | None = None,
        dependency_aware_dispatch: bool | None = None,
        max_preemptions_per_task: int = 25,
        stall_timeout: float = 120.0,
        faults: Sequence[FaultEvent] | None = None,
        resilience: ResilienceConfig | None = None,
        membership: Sequence[MembershipEvent] | None = None,
        elastic: ElasticConfig | None = None,
        record_trace: bool = False,
        snapshots: SnapshotConfig | None = None,
        journal: str | os.PathLike | None = None,
        streaming: bool = False,
    ):
        policy = preemption if preemption is not None else NullPreemption()
        dsp_config = dsp_config or DSPConfig()
        sim_config = sim_config or SimConfig()
        if max_preemptions_per_task < 1:
            raise ValueError("max_preemptions_per_task must be >= 1")
        if stall_timeout <= 0:
            raise ValueError("stall_timeout must be > 0")
        self._fault_plan: list[FaultEvent] = sorted(
            faults or (), key=fault_sort_key
        )
        if self._fault_plan:
            problems = validate_fault_plan(self._fault_plan, cluster)
            if problems:
                raise ValueError(f"invalid fault plan: {problems[:3]}")

        membership_plan = normalize_membership_plan(membership or (), cluster)

        state = build_state(
            cluster, jobs, dsp_config, task_deadlines, allow_empty=streaming
        )
        state.pending_faults = len(self._fault_plan)
        # The construction-time node set, for snapshot fingerprinting (the
        # live set churns under elastic membership).
        self._initial_node_ids = tuple(state.nodes)
        bus = EventBus()
        kernel = Kernel(bus, horizon=sim_config.horizon)
        rt = SimRuntime(
            state,
            kernel,
            bus,
            dsp_config,
            sim_config,
            scheduler,
            policy,
            dependency_aware=(
                policy.respects_dependencies
                if dependency_aware_dispatch is None
                else dependency_aware_dispatch
            ),
            max_preemptions=max_preemptions_per_task,
            stall_timeout=stall_timeout,
        )
        self._rt = rt

        # Subsystems (each holds the runtime and finds its peers there).
        rt.dispatch = DispatchSubsystem(rt)
        rt.preemption = PreemptionExecutor(rt)
        rt.faults = FaultSubsystem(rt)
        # The scoring core: the struct-of-arrays mirror every hot loop
        # (scoring, victim scans, view assembly) reads.
        rt.array = ArrayCore(rt)
        rt.views = ViewCache(rt)
        rt.metrics = MetricsCollector(
            collect_samples=sim_config.collect_task_samples
        )
        rt.trace = TraceLog() if record_trace else None
        rt.resilience = (
            ResilienceManager(rt, resilience) if resilience is not None else None
        )
        self.elastic = (
            ElasticSubsystem(rt, membership_plan, elastic or ElasticConfig())
            if (membership_plan or elastic is not None)
            else None
        )
        rt.elastic = self.elastic

        # Timed-event handlers: exactly one subsystem per EventKind.
        kernel.on(EventKind.JOB_ARRIVAL, rt.dispatch.on_arrival)
        kernel.on(EventKind.SCHEDULING_ROUND, rt.dispatch.on_round)
        kernel.on(EventKind.EPOCH_TICK, rt.preemption.on_epoch)
        kernel.on(EventKind.TASK_FINISH, rt.dispatch.on_finish)
        kernel.on(EventKind.FAULT, rt.faults.on_fault)
        # EventKind.SPEC_FINISH is registered by the resilience layer below
        # — no other subsystem ever schedules it.

        # Bus subscribers, in canonical order (docs/architecture.md): the
        # array core first (its mirror must be current before any later
        # subscriber scores through it), then accounting (metrics, trace),
        # then the resilience layer (which may mutate state or abort the
        # run), and the invariant checker last — it must observe the world
        # *after* every other subscriber has reacted to the same event.
        rt.array.attach(bus)
        rt.metrics.attach(bus)
        if rt.trace is not None:
            rt.trace.attach(bus)
        if rt.resilience is not None:
            rt.resilience.attach(bus, kernel)
        # The elastic subsystem attaches after resilience: its NodeFailed
        # subscriber (drain-abort) must see the world after the resilience
        # layer cancelled the dead node's speculative copies.
        if self.elastic is not None:
            self.elastic.attach(bus, kernel)
        rt.invariants = (
            InvariantChecker(rt, mode=sim_config.invariants)
            if sim_config.invariants != "off"
            else None
        )
        if rt.invariants is not None:
            rt.invariants.attach(bus)

        # Completed-job retirement (streaming replays): attached after
        # every behavioral subscriber — its TaskFinished handler only
        # buffers job ids; the eviction runs from a settle observer, which
        # must be registered *before* the snapshot manager's below so a
        # due snapshot captures the post-retirement state.
        self.retirement = None
        if sim_config.retire_completed:
            from .frontier import RetirementManager

            self.retirement = RetirementManager(rt, batch=sim_config.retire_batch)
            self.retirement.attach(bus, kernel)

        # The policy attaches before the durability layer opens any file:
        # a DSP policy scoring with other γ/ω than dsp_config raises here.
        policy.attach(rt)

        # Durability layer, attached after every behavioral subscriber so
        # recording observes the run without perturbing it.  The journal's
        # pop observer is first in the kernel's observer list — its
        # write-ahead record exists before any later observer (e.g. an
        # injected crash) can fire.
        self._journal = (
            JournalRecorder(kernel, bus, journal) if journal is not None else None
        )
        self._snapshots = (
            SnapshotManager(self, snapshots) if snapshots is not None else None
        )
        self._restored = False
        self._finished = False
        self._stop_requested = False
        self._streaming = streaming
        #: Optional hooks a :class:`~repro.sim.frontier.StreamingFrontier`
        #: registers on itself: a snapshot-section provider (the source
        #: cursor + staged job ride inside engine snapshots) and a
        #: one-line position describer folded into progress/stuck
        #: messages.
        self.frontier_provider: Any = None
        self.frontier_describe: Any = None
        if streaming:
            # Streaming runs have no one-shot seeding step, so the fault
            # plan is armed here; arrivals enter via submit_job().
            for fault in self._fault_plan:
                kernel.schedule(fault.time, EventKind.FAULT, fault)

    # ----------------------------------------------------------- accessors
    @property
    def now(self) -> float:
        """Current simulation clock."""
        return self._rt.now

    @property
    def metrics(self) -> MetricsCollector:
        """The run's metrics accumulator (finalized by :meth:`run`)."""
        return self._rt.metrics

    @property
    def trace(self) -> TraceLog | None:
        """The execution trace (None unless ``record_trace=True``)."""
        return self._rt.trace

    @property
    def invariants(self) -> InvariantChecker | None:
        """The invariant checker (None unless ``sim_config.invariants`` is
        ``"record"`` or ``"strict"``)."""
        return self._rt.invariants

    @property
    def runtime(self) -> SimRuntime:
        """The wiring hub — state, kernel, bus and subsystems.  Tests and
        experiments subscribe listeners via ``engine.runtime.bus``."""
        return self._rt

    @property
    def journal(self) -> JournalRecorder | None:
        """The write-ahead journal recorder (None unless ``journal=`` given)."""
        return self._journal

    @property
    def snapshots(self) -> SnapshotManager | None:
        """The automatic snapshot manager (None unless ``snapshots=`` given)."""
        return self._snapshots

    # ----------------------------------------------------- snapshot/restore
    def snapshot(self) -> dict:
        """Serialize the complete live run to a pure-JSON dict (see
        :mod:`repro.sim.snapshot`).  Valid at any settled point: before
        :meth:`run`, after it raises, or from a kernel settle observer —
        never from inside an event handler."""
        return snapshot_engine(self)

    @classmethod
    def restore(
        cls,
        snapshot: dict | str | os.PathLike,
        cluster: Cluster,
        jobs: Sequence[Job],
        scheduler: SchedulerLike,
        **kwargs: Any,
    ) -> "SimEngine":
        """Rebuild a crashed run from *snapshot* (a dict, or a path to a
        snapshot file) and the run's original construction arguments.

        *kwargs* must reconstruct the engine exactly as the crashed one
        was built (policy, configs, fault plan, …) — checked against the
        snapshot's fingerprint.  A ``journal=`` path is reopened at the
        snapshot's recorded offset (truncating any post-snapshot suffix),
        so deterministic re-execution rewrites it byte-identically; every
        other kwarg is passed through to the constructor.  The returned
        engine continues with :meth:`run`.
        """
        if isinstance(snapshot, (str, os.PathLike)):
            snapshot = load_snapshot(snapshot)
        journal = kwargs.pop("journal", None)
        if kwargs.get("streaming"):
            # A streaming engine registers its workload through submit_job,
            # so the restore target must be grown the same way: *jobs* (in
            # original admission order) are submitted into an empty engine
            # before the state overwrite — the seeded arrival events are
            # discarded when restore_into replaces the heap, but the
            # registered structures make the fingerprints comparable.
            # When the caller passes no jobs, the snapshot's own
            # ``jobs_spec`` (the live window at capture — with retirement
            # on, the only place those jobs still exist) supplies them.
            deadlines = kwargs.pop("task_deadlines", None)
            if not jobs:
                from ..dag.codec import job_from_dict

                jobs = [job_from_dict(spec) for spec in snapshot.get("jobs_spec") or ()]
            engine = cls(cluster, [], scheduler, **kwargs)
            for job in jobs:
                engine.submit_job(job, deadlines)
        else:
            engine = cls(cluster, jobs, scheduler, **kwargs)
        restore_into(engine, snapshot)
        if journal is not None:
            offset = snapshot.get("journal_offset")
            engine._journal = JournalRecorder(
                engine._rt.kernel,
                engine._rt.bus,
                journal,
                truncate_at=offset,
            )
        if engine._snapshots is not None:
            engine._snapshots.resume_baseline(
                engine._rt.kernel.pops, engine._rt.kernel.now
            )
        return engine

    # Internal structures a few analysis/test helpers reach into; kept as
    # properties so the pre-refactor attribute names keep working.
    @property
    def _tasks(self) -> dict[str, TaskRuntime]:
        return self._rt.state.tasks

    @property
    def _nodes(self) -> dict[str, NodeRuntime]:
        return self._rt.state.nodes

    @property
    def _jobs(self) -> dict[str, Job]:
        return self._rt.state.jobs

    @property
    def _resilience(self) -> ResilienceManager | None:
        return self._rt.resilience

    def _progress(self) -> str:
        """One-line run position for progress and error messages: live
        completion, plus the retirement and frontier state when those
        layers are active (a streaming replay's live counters alone are
        meaningless without the retired/admitted context)."""
        state = self._rt.state
        msg = f"{state.completed_tasks}/{len(state.tasks)} live tasks done"
        if self.elastic is not None:
            alive, draining, total = state.node_census()
            msg += f"; nodes: {alive} alive, {draining} draining, {total} total"
        if state.retired_tasks:
            msg += (
                f", {state.retired_tasks} tasks retired "
                f"in {state.retired_jobs} jobs"
            )
        if self.frontier_describe is not None:
            msg += f"; {self.frontier_describe()}"
        return msg

    # ------------------------------------------------------- streaming mode
    def submit_job(
        self,
        job: Job,
        task_deadlines: Mapping[str, float] | None = None,
    ) -> None:
        """Admit *job* into a live streaming run.

        Valid at any settled point (between pump slices, never from inside
        an event handler).  The job's ``arrival_time`` must not precede the
        simulation clock; its JOB_ARRIVAL is scheduled at that time and a
        scheduling round is armed if none is pending, so the next
        :meth:`pump` will plan it.  Raises ``ValueError`` on id collisions
        or a past arrival, :class:`SimulationStuck` on an undispatchable
        demand — in every error case the engine state is unchanged, so a
        service can reject the submission and keep running.
        """
        if not self._streaming:
            raise SimulationError("submit_job requires streaming=True")
        if self._finished:
            raise SimulationError("engine already finalized")
        rt = self._rt
        if job.arrival_time < rt.kernel.now:
            raise ValueError(
                f"job {job.job_id!r} arrival {job.arrival_time:g} precedes "
                f"the clock ({rt.kernel.now:g})"
            )
        rt.state.register_job(job, task_deadlines)
        rt.array.register_job(job)
        rt.metrics.register_job(
            job.job_id, job.arrival_time, job.deadline, job.tasks
        )
        rt.kernel.schedule(job.arrival_time, EventKind.JOB_ARRIVAL, job.job_id)
        if not rt.kernel.queue.has_kind(EventKind.SCHEDULING_ROUND):
            rt.kernel.schedule(job.arrival_time, EventKind.SCHEDULING_ROUND, None)

    def pump(self, max_pops: int | None = None) -> int:
        """Advance a streaming run by at most *max_pops* event pops.

        Returns the number of pops actually consumed (0 when the heap is
        empty or all registered work is already done).  Unlike :meth:`run`,
        draining the heap with unfinished work is *not* an error here —
        the work may be waiting on a future submission's scheduling round.
        """
        if not self._streaming:
            raise SimulationError("pump requires streaming=True")
        if self._finished:
            raise SimulationError("engine already finalized")
        rt = self._rt
        before = rt.kernel.pops
        rt.kernel.run(
            until=rt.state.all_done,
            describe=self._progress,
            max_pops=max_pops,
        )
        return rt.kernel.pops - before

    def finalize(self) -> RunMetrics:
        """Close a drained streaming run and return its metrics."""
        if not self._streaming:
            raise SimulationError("finalize requires streaming=True")
        if self._finished:
            raise SimulationError("engine already finalized")
        rt = self._rt
        if not rt.state.all_done():
            unfinished = rt.state.unfinished_task_ids()
            raise SimulationError(
                f"finalize with {len(unfinished)} unfinished tasks "
                f"(first: {sorted(unfinished)[:3]}; {self._progress()})"
            )
        if self.retirement is not None:
            # Evict the final completion batch (below the settle
            # threshold) so the folded aggregates cover every job.
            self.retirement.sweep()
        if self._journal is not None:
            self._journal.flush()
        self._finished = True
        metrics = rt.metrics.finalize(rt.now)
        if rt.invariants is not None:
            rt.invariants.verify_run(metrics)
        return metrics

    # ------------------------------------------------------------------ run
    def request_stop(self) -> None:
        """Ask a batch run to stop at the next settled point (signal-safe:
        only sets a flag).  :meth:`run` then raises
        :class:`SimulationInterrupted` with the engine snapshot-safe."""
        self._stop_requested = True

    def run(self) -> RunMetrics:
        """Execute to completion and return the run's metrics."""
        if self._streaming:
            raise SimulationError(
                "streaming engines advance via submit_job()/pump(); "
                "run() is the batch-mode entry point"
            )
        if self._finished:
            raise SimulationError("engine instances are single-use; build a new one")
        rt = self._rt
        state = rt.state
        if not self._restored:
            # A restored run carries its seed events (and registered
            # jobs/tasks) inside the snapshot — re-seeding would duplicate
            # every arrival.
            for job in state.jobs.values():
                rt.metrics.register_job(
                    job.job_id, job.arrival_time, job.deadline, job.tasks
                )
                rt.kernel.schedule(
                    job.arrival_time, EventKind.JOB_ARRIVAL, job.job_id
                )
            first_arrival = min(j.arrival_time for j in state.jobs.values())
            rt.kernel.schedule(first_arrival, EventKind.SCHEDULING_ROUND, None)
            for fault in self._fault_plan:
                rt.kernel.schedule(fault.time, EventKind.FAULT, fault)

        try:
            rt.kernel.run(
                until=lambda: state.all_done() or self._stop_requested,
                describe=self._progress,
            )
        finally:
            if self._journal is not None:
                self._journal.flush()

        if self._stop_requested and not state.all_done():
            raise SimulationInterrupted(
                f"stopped at a settled point ({self._progress()}, "
                f"event #{rt.kernel.pops}, t={rt.kernel.now:g}s)"
            )
        if not state.all_done():
            unfinished = state.unfinished_task_ids()
            raise SimulationStuck(
                f"event queue drained with {len(unfinished)} unfinished tasks "
                f"(first: {sorted(unfinished)[:3]}; {rt.kernel.position()}; "
                f"{self._progress()})"
            )
        if self.retirement is not None:
            self.retirement.sweep()
        self._finished = True
        metrics = rt.metrics.finalize(rt.now)
        if rt.invariants is not None:
            rt.invariants.verify_run(metrics)
        return metrics
