"""Shared simulation state and the subsystem wiring hub.

:class:`SimState` is the world-state every subsystem reads and mutates:
the static DAG structures (tasks, children, memoized ancestor closures),
the mutable runtimes, and the run's progress counters.  Building it also
performs the up-front validation the engine used to do inline (duplicate
ids, undispatchable demands).

:class:`SimRuntime` is the wiring hub :class:`~repro.sim.engine.SimEngine`
assembles: state + kernel + bus + configs + references to the subsystems.
Subsystems hold the runtime and dereference their peers through it at
call time, so construction order never matters and the engine facade
stays thin.  Two extension points let optional layers participate without
``None``-guards in the core loop:

* ``dispatch_gates`` — predicates ``(node_id) -> bool``; any True blocks
  new dispatches to that node (the resilience layer registers its
  quarantine check here);
* ``progress_holds`` — predicates ``(now) -> bool``; any True tells the
  deadlock detector that future progress is still owed (backoff gates,
  in-flight speculative copies, pending quarantine releases).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from ..cluster.cluster import Cluster
from ..config import DSPConfig, SimConfig
from ..dag.job import Job
from ..dag.task import Task, TaskState
from .executor import NodeRuntime, TaskRuntime
from .kernel import EventBus, Kernel, SimulationStuck

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.policy import PreemptionPolicy
    from .dispatch import DispatchSubsystem
    from .elastic import ElasticSubsystem
    from .engine import SchedulerLike
    from .fault_sub import FaultSubsystem
    from .invariants import InvariantChecker
    from .metrics import MetricsCollector
    from .arraycore import ArrayCore
    from .preemption_exec import PreemptionExecutor
    from .resilience import ResilienceManager
    from .tracelog import TraceLog
    from .views import ViewCache

__all__ = ["SimState", "SimRuntime", "build_state"]


class SimState:
    """World-state of one simulation run (static structure + runtimes).

    Jobs enter either up front (:func:`build_state` registers the whole
    batch workload) or one at a time through :meth:`register_job` — the
    streaming-admission path the service frontend uses.  Registration is
    strictly additive: existing runtimes, counters and memoized closures
    are never touched, so a job can be admitted between timed events of a
    live run.
    """

    def __init__(
        self,
        jobs: Mapping[str, Job],
        static_tasks: dict[str, Task],
        children: dict[str, tuple[str, ...]],
        job_of: dict[str, str],
        ancestors: dict[str, frozenset[str]],
        tasks: dict[str, TaskRuntime],
        nodes: dict[str, NodeRuntime],
    ) -> None:
        self.jobs = dict(jobs)
        self.static_tasks = static_tasks
        self.children = children
        self.job_of = job_of
        #: Full ancestor closure per task, memoized once at registration —
        #: C2 checks and view building become set intersections instead of
        #: per-epoch graph walks.
        self.ancestors = ancestors
        self.tasks = tasks
        self.nodes = nodes
        self.job_remaining: dict[str, int] = {
            jid: len(job.tasks) for jid, job in self.jobs.items()
        }
        self.unscheduled: list[str] = []  # job ids arrived but not yet planned
        self.arrived: set[str] = set()
        self.completed_tasks = 0
        #: Cumulative counts of state evicted by :meth:`retire_job` — the
        #: live maps shrink, these only grow (progress accounting for
        #: streaming replays).
        self.retired_jobs = 0
        self.retired_tasks = 0
        self.pending_faults = 0
        self.epoch_scheduled = False
        self.dispatched_this_tick = False
        self.dispatch_gates: list[Callable[[str], bool]] = []
        self.progress_holds: list[Callable[[float], bool]] = []
        #: Node capacity vectors, for admission-time demand validation
        #: (set by :func:`build_state`).
        self.capacities: tuple = ()

    # ------------------------------------------------------------ admission
    def register_job(
        self,
        job: Job,
        task_deadlines: Mapping[str, float] | None = None,
    ) -> None:
        """Add *job* to the world state (streaming admission).

        Validates exactly what :func:`build_state` validates for the batch
        path — duplicate job/task ids, undispatchable demands — and builds
        the same derived structures (children map, memoized ancestor
        closures, task runtimes).  Raises ``ValueError`` on id collisions
        and :class:`~repro.sim.kernel.SimulationStuck` when a task demand
        exceeds every node's capacity.
        """
        if job.job_id in self.jobs:
            raise ValueError(f"duplicate job id {job.job_id!r}")
        for tid in job.tasks:
            if tid in self.static_tasks:
                raise ValueError(f"duplicate task id {tid!r} across jobs")
        deadlines = task_deadlines or {}
        for tid, task in job.tasks.items():
            if self.capacities and not any(
                task.demand.fits_within(cap) for cap in self.capacities
            ):
                raise SimulationStuck(
                    f"task {tid} demand {task.demand} exceeds every node's capacity"
                )
        self.jobs[job.job_id] = job
        self.job_remaining[job.job_id] = len(job.tasks)
        for tid, task in job.tasks.items():
            self.static_tasks[tid] = task
            self.job_of[tid] = job.job_id
        self.children.update(job.children)
        for tid in job.topo_order:
            anc: set[str] = set()
            for p in job.tasks[tid].parents:
                anc.add(p)
                anc |= self.ancestors[p]
            self.ancestors[tid] = frozenset(anc)
        for tid, task in job.tasks.items():
            self.tasks[tid] = TaskRuntime(
                task=task,
                deadline=deadlines.get(tid, job.deadline),
                unfinished_parents=len(task.parents),
            )

    # ----------------------------------------------------------- retirement
    def retire_job(self, job_id: str) -> tuple[str, ...]:
        """Evict a fully-completed job's state from the live maps.

        The inverse of :meth:`register_job`: pops the job and every one of
        its tasks from ``jobs``/``static_tasks``/``children``/``job_of``/
        ``ancestors``/``tasks``/``job_remaining``/``arrived`` and deducts
        the tasks from ``completed_tasks`` so :meth:`all_done` keeps
        meaning "every *live* task finished".  Cumulative progress moves
        to ``retired_jobs``/``retired_tasks``.  Returns the retired task
        ids (callers prune their own per-task structures with them).

        Only call at a settled point (never inside a ``TaskFinished``
        emission — handlers later in the subscription order still read
        the maps) and only for jobs whose every task completed; the
        :class:`~repro.sim.frontier.RetirementManager` enforces both.
        """
        job = self.jobs.pop(job_id)
        tids = tuple(job.tasks)
        for tid in tids:
            del self.static_tasks[tid]
            del self.tasks[tid]
            del self.job_of[tid]
            self.children.pop(tid, None)
            self.ancestors.pop(tid, None)
        self.job_remaining.pop(job_id, None)
        self.arrived.discard(job_id)
        self.completed_tasks -= len(tids)
        self.retired_jobs += 1
        self.retired_tasks += len(tids)
        return tids

    # ----------------------------------------------------------- queries
    def all_done(self) -> bool:
        """True once every task has completed."""
        return self.completed_tasks == len(self.tasks)

    def unfinished_task_ids(self) -> list[str]:
        """Ids of tasks not yet completed (diagnostics)."""
        return [
            tid
            for tid, rt in self.tasks.items()
            if rt.state is not TaskState.COMPLETED
        ]

    def mean_rate(self) -> float:
        """Mean processing rate over all nodes (alive or not)."""
        return sum(n.rate for n in self.nodes.values()) / len(self.nodes)

    def node_census(self) -> tuple[int, int, int]:
        """(alive members, draining, total) — one-glance membership state
        for stuck-run diagnostics under elastic churn."""
        alive = 0
        draining = 0
        for node in self.nodes.values():
            if node.membership == "draining":
                draining += 1
            elif node.alive:
                alive += 1
        return alive, draining, len(self.nodes)

    def remaining_time(self, task_id: str, now: float) -> float:
        """Live :math:`t^{rem}` of a task at its assigned node's rate (the
        cluster mean when unassigned)."""
        rt = self.tasks[task_id]
        node = self.nodes[rt.node_id] if rt.node_id else None
        rate = node.rate if node else self.mean_rate()
        return rt.remaining_time_at(now, rate)


def build_state(
    cluster: Cluster,
    jobs: Sequence[Job],
    dsp_config: DSPConfig,
    task_deadlines: Mapping[str, float] | None,
    *,
    allow_empty: bool = False,
) -> SimState:
    """Validate the workload against the cluster and build a SimState.

    Raises ``ValueError`` on duplicate job/task ids and
    :class:`~repro.sim.kernel.SimulationStuck` when a task demand exceeds
    every node's capacity (it could never dispatch).  ``allow_empty``
    permits a jobless state for streaming engines that admit work later.
    """
    if not jobs and not allow_empty:
        raise ValueError("SimEngine needs at least one job")
    by_id: dict[str, Job] = {}
    for job in jobs:
        if job.job_id in by_id:
            raise ValueError(f"duplicate job id {job.job_id!r}")
        by_id[job.job_id] = job

    static_tasks: dict[str, Task] = {}
    children: dict[str, tuple[str, ...]] = {}
    job_of: dict[str, str] = {}
    for job in by_id.values():
        for tid, task in job.tasks.items():
            if tid in static_tasks:
                raise ValueError(f"duplicate task id {tid!r} across jobs")
            static_tasks[tid] = task
            job_of[tid] = job.job_id
        children.update(job.children)

    # Memoized ancestor closures (one pass in topological order).
    ancestors: dict[str, frozenset[str]] = {}
    for job in by_id.values():
        for tid in job.topo_order:
            anc: set[str] = set()
            for p in job.tasks[tid].parents:
                anc.add(p)
                anc |= ancestors[p]
            ancestors[tid] = frozenset(anc)

    tasks: dict[str, TaskRuntime] = {}
    deadlines = dict(task_deadlines or {})
    smallest = min((n.capacity for n in cluster), key=lambda c: c.norm1())
    for job in by_id.values():
        for tid, task in job.tasks.items():
            if not task.demand.fits_within(smallest) and not any(
                task.demand.fits_within(n.capacity) for n in cluster
            ):
                raise SimulationStuck(
                    f"task {tid} demand {task.demand} exceeds every node's capacity"
                )
            tasks[tid] = TaskRuntime(
                task=task,
                deadline=deadlines.get(tid, job.deadline),
                unfinished_parents=len(task.parents),
            )
    nodes: dict[str, NodeRuntime] = {
        n.node_id: NodeRuntime(
            n, n.processing_rate(dsp_config.theta_cpu, dsp_config.theta_mem)
        )
        for n in cluster
    }
    state = SimState(by_id, static_tasks, children, job_of, ancestors, tasks, nodes)
    state.capacities = tuple(n.capacity for n in cluster)
    return state


class SimRuntime:
    """Everything one run's subsystems share, plus the subsystems
    themselves once the engine has wired them (see module docstring)."""

    def __init__(
        self,
        state: SimState,
        kernel: Kernel,
        bus: EventBus,
        dsp_config: DSPConfig,
        sim_config: SimConfig,
        scheduler: "SchedulerLike",
        policy: "PreemptionPolicy",
        *,
        dependency_aware: bool,
        max_preemptions: int,
        view_queue_limit: int,
        stall_timeout: float,
    ) -> None:
        self.state = state
        self.kernel = kernel
        self.bus = bus
        self.dsp_config = dsp_config
        self.sim_config = sim_config
        self.scheduler = scheduler
        self.policy = policy
        self.dependency_aware = dependency_aware
        self.max_preemptions = max_preemptions
        self.view_queue_limit = view_queue_limit
        self.stall_timeout = stall_timeout
        # Wired by the engine after construction.
        self.dispatch: "DispatchSubsystem" = None  # type: ignore[assignment]
        self.preemption: "PreemptionExecutor" = None  # type: ignore[assignment]
        self.faults: "FaultSubsystem" = None  # type: ignore[assignment]
        self.views: "ViewCache" = None  # type: ignore[assignment]
        #: The struct-of-arrays mirror: Eq. 12–13 scoring, the dispatch
        #: and stall scans and view signal assembly all read it.
        self.array: "ArrayCore" = None  # type: ignore[assignment]
        self.resilience: "ResilienceManager | None" = None
        self.elastic: "ElasticSubsystem | None" = None
        self.metrics: "MetricsCollector" = None  # type: ignore[assignment]
        self.trace: "TraceLog | None" = None
        self.invariants: "InvariantChecker | None" = None

    @property
    def now(self) -> float:
        return self.kernel.now
