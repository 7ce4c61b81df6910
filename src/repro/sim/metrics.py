"""Metrics collection for simulation runs.

One :class:`MetricsCollector` instance accompanies each engine run and
accumulates exactly the quantities the paper's evaluation plots:

* **makespan** (Figs. 5, 8a) — latest task completion minus earliest job
  arrival;
* **throughput** (Figs. 6b/7b/8b) — tasks completed per millisecond, and
  the §III definition: jobs completed within deadline per second;
* **average job waiting time** (Figs. 6c/7c) — mean over jobs of the mean
  queued-wait of their tasks;
* **number of preemptions** (Figs. 6d/7d);
* **number of disorders** (Figs. 6a/7a) — dispatches whose execution order
  contradicted the dependency relation;
* deadline misses, context-switch overhead and stalled (wasted-capacity)
  time as supporting diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from . import kernel as _k

__all__ = ["MetricsCollector", "RunMetrics"]


@dataclass(frozen=True)
class RunMetrics:
    """Immutable summary of one finished simulation run."""

    makespan: float
    tasks_completed: int
    jobs_completed: int
    jobs_within_deadline: int
    num_preemptions: int
    num_disorders: int
    num_stall_evictions: int
    num_node_failures: int
    num_task_reassignments: int
    deadline_misses: int
    avg_job_waiting: float
    avg_task_waiting: float
    total_context_switch_time: float
    total_stalled_time: float
    total_transfer_time: float
    sim_end_time: float
    num_task_failures: int = 0
    num_retries: int = 0
    num_speculative_launches: int = 0
    num_speculative_wins: int = 0
    num_quarantines: int = 0
    lost_work_mi: float = 0.0
    speculative_waste_mi: float = 0.0
    fault_counts: Mapping[str, int] = field(default_factory=dict)
    #: Streaming-replay accounting (zero on batch runs; the as_dict keys
    #: appear only when the frontier/retirement machinery was active, so
    #: legacy golden comparisons are unaffected).
    jobs_retired: int = 0
    jobs_shed: int = 0
    admission_pauses: int = 0
    #: Elastic-membership accounting (zero on fixed-cluster runs; the
    #: as_dict keys appear only when membership actually churned, so
    #: elastic-disabled golden comparisons stay byte-identical).
    nodes_joined: int = 0
    nodes_decommissioned: int = 0
    scale_up_events: int = 0
    scale_down_events: int = 0
    drain_migrations: int = 0
    drain_aborts: int = 0
    drain_lost_mi: float = 0.0
    drain_seconds_total: float = 0.0

    @property
    def throughput_tasks_per_ms(self) -> float:
        """Tasks completed per millisecond of makespan (Fig. 6b's unit)."""
        if self.makespan <= 0:
            return 0.0
        return self.tasks_completed / (self.makespan * 1000.0)

    @property
    def throughput_jobs_per_s(self) -> float:
        """Jobs completed *within deadline* per second — the §III
        throughput definition."""
        if self.makespan <= 0:
            return 0.0
        return self.jobs_within_deadline / self.makespan

    def as_dict(self) -> dict[str, float]:
        """Flat dict for tabular reports.

        Fault accounting is flattened: ``lost_work_mi`` (MI destroyed by
        failures and checkpoint-lossy preemptions), the resilience
        counters, and one ``faults_<kind>`` entry per injected fault kind.
        """
        out = {
            "makespan": self.makespan,
            "tasks_completed": float(self.tasks_completed),
            "jobs_completed": float(self.jobs_completed),
            "jobs_within_deadline": float(self.jobs_within_deadline),
            "num_preemptions": float(self.num_preemptions),
            "num_disorders": float(self.num_disorders),
            "num_stall_evictions": float(self.num_stall_evictions),
            "num_node_failures": float(self.num_node_failures),
            "num_task_reassignments": float(self.num_task_reassignments),
            "deadline_misses": float(self.deadline_misses),
            "avg_job_waiting": self.avg_job_waiting,
            "avg_task_waiting": self.avg_task_waiting,
            "throughput_tasks_per_ms": self.throughput_tasks_per_ms,
            "throughput_jobs_per_s": self.throughput_jobs_per_s,
            "total_context_switch_time": self.total_context_switch_time,
            "total_stalled_time": self.total_stalled_time,
            "total_transfer_time": self.total_transfer_time,
            "num_task_failures": float(self.num_task_failures),
            "num_retries": float(self.num_retries),
            "num_speculative_launches": float(self.num_speculative_launches),
            "num_speculative_wins": float(self.num_speculative_wins),
            "num_quarantines": float(self.num_quarantines),
            "lost_work_mi": self.lost_work_mi,
            "speculative_waste_mi": self.speculative_waste_mi,
        }
        for kind, count in sorted(self.fault_counts.items()):
            out[f"faults_{kind}"] = float(count)
        if self.jobs_retired or self.jobs_shed or self.admission_pauses:
            out["jobs_retired"] = float(self.jobs_retired)
            out["jobs_shed"] = float(self.jobs_shed)
            out["admission_pauses"] = float(self.admission_pauses)
        if (
            self.nodes_joined
            or self.nodes_decommissioned
            or self.scale_up_events
            or self.scale_down_events
            or self.drain_migrations
            or self.drain_aborts
        ):
            out["nodes_joined"] = float(self.nodes_joined)
            out["nodes_decommissioned"] = float(self.nodes_decommissioned)
            out["scale_up_events"] = float(self.scale_up_events)
            out["scale_down_events"] = float(self.scale_down_events)
            out["drain_migrations"] = float(self.drain_migrations)
            out["drain_aborts"] = float(self.drain_aborts)
            out["drain_lost_mi"] = self.drain_lost_mi
            out["drain_seconds_total"] = self.drain_seconds_total
        return out


class MetricsCollector:
    """Mutable accumulator the engine reports into while running.

    With ``collect_samples=True`` (driven by
    :attr:`~repro.config.SimConfig.collect_task_samples`) per-task latency
    samples — completion minus first enqueue — are retained for
    distributional analysis (percentiles, CDFs); off by default since a
    large run holds one float per task.
    """

    def __init__(self, collect_samples: bool = False) -> None:
        self._collect_samples = collect_samples
        self._latency_samples: dict[str, float] = {}
        self.num_preemptions: int = 0
        self.num_disorders: int = 0
        self.num_stall_evictions: int = 0
        self.num_node_failures: int = 0
        self.num_task_reassignments: int = 0
        self.total_context_switch_time: float = 0.0
        self.total_stalled_time: float = 0.0
        self.total_transfer_time: float = 0.0
        self.num_task_failures: int = 0
        self.num_retries: int = 0
        self.num_speculative_launches: int = 0
        self.num_speculative_wins: int = 0
        self.num_quarantines: int = 0
        self.lost_work_mi: float = 0.0
        self.speculative_waste_mi: float = 0.0
        self.fault_counts: dict[str, int] = {}
        self._task_waits: dict[str, float] = {}
        self._task_completions: dict[str, float] = {}
        self._job_of_task: dict[str, str] = {}
        self._job_arrivals: dict[str, float] = {}
        self._job_deadlines: dict[str, float] = {}
        self._job_completions: dict[str, float] = {}
        # Compact aggregates of retired jobs (see retire_job): the per-task
        # dicts above hold only the live window on streaming runs.
        self.jobs_retired: int = 0
        self.jobs_shed: int = 0
        self.admission_pauses: int = 0
        # Elastic-membership accounting (zero without the subsystem).
        self.nodes_joined: int = 0
        self.nodes_decommissioned: int = 0
        self.scale_up_events: int = 0
        self.scale_down_events: int = 0
        self.drain_migrations: int = 0
        self.drain_aborts: int = 0
        self.drain_lost_mi: float = 0.0
        self.drain_seconds_total: float = 0.0
        self._retired_tasks: int = 0
        self._retired_within_deadline: int = 0
        self._retired_wait_sum: float = 0.0
        self._retired_job_mean_sum: float = 0.0
        self._retired_arrival_min: float | None = None
        self._retired_completion_max: float | None = None

    # -- bus wiring --------------------------------------------------------
    def attach(self, bus: "_k.EventBus") -> None:
        """Subscribe this collector to an engine's event bus.

        The collector is an ordinary bus subscriber: every ``record_*``
        call below is driven by exactly one event type, so the mapping here
        *is* the metrics taxonomy.  Job/task registration stays explicit
        (the engine registers the workload before the first event fires).
        """
        from . import kernel as k

        bus.subscribe(k.TaskWaitAccrued, self._on_wait)
        bus.subscribe(k.TaskStallEnded, self._on_stall_ended)
        bus.subscribe(k.RetryDispatched, self._on_retry)
        bus.subscribe(k.TaskStalled, self._on_disorder)
        bus.subscribe(k.TaskPreempted, self._on_preempted)
        bus.subscribe(k.TaskSuspended, self._on_suspended)
        bus.subscribe(k.TaskStallEvicted, self._on_stall_evicted)
        bus.subscribe(k.TaskAttemptFailed, self._on_attempt_failed)
        bus.subscribe(k.TaskFinished, self._on_finished)
        bus.subscribe(k.TransferStarted, self._on_transfer)
        bus.subscribe(k.FaultInjected, self._on_fault)
        bus.subscribe(k.NodeFailed, self._on_node_failed)
        bus.subscribe(k.BacklogReassigned, self._on_reassigned)
        bus.subscribe(k.SpeculationLaunched, self._on_spec_launch)
        bus.subscribe(k.SpeculationWon, self._on_spec_win)
        bus.subscribe(k.SpeculationWaste, self._on_spec_waste)
        bus.subscribe(k.NodeQuarantined, self._on_quarantine)
        bus.subscribe(k.JobShed, self._on_job_shed)
        bus.subscribe(k.AdmissionPaused, self._on_admission_paused)
        bus.subscribe(k.NodeJoining, self._on_node_joining)
        bus.subscribe(k.NodeJoined, self._on_node_joined)
        bus.subscribe(k.NodeDraining, self._on_node_draining)
        bus.subscribe(k.TaskDrainMigrated, self._on_drain_migrated)
        bus.subscribe(k.NodeDecommissioned, self._on_decommissioned)
        bus.subscribe(k.DrainAborted, self._on_drain_aborted)

    def _on_wait(self, ev: "_k.TaskWaitAccrued") -> None:
        self.record_wait(ev.task_id, ev.seconds)

    def _on_stall_ended(self, ev: "_k.TaskStallEnded") -> None:
        # A stall is wasted capacity AND waiting time (see DispatchSubsystem).
        self.record_stall(ev.stalled)
        self.record_wait(ev.task_id, ev.stalled)

    def _on_retry(self, ev: "_k.RetryDispatched") -> None:
        self.record_retry()

    def _on_disorder(self, ev: "_k.TaskStalled") -> None:
        self.record_disorder()

    def _on_preempted(self, ev: "_k.TaskPreempted") -> None:
        self.record_preemption(ev.cost)
        self.record_lost_work(ev.lost_mi)

    def _on_suspended(self, ev: "_k.TaskSuspended") -> None:
        self.record_lost_work(ev.lost_mi)

    def _on_stall_evicted(self, ev: "_k.TaskStallEvicted") -> None:
        self.record_stall_eviction(ev.cost)

    def _on_attempt_failed(self, ev: "_k.TaskAttemptFailed") -> None:
        self.record_task_failure(ev.lost_mi)

    def _on_finished(self, ev: "_k.TaskFinished") -> None:
        self.record_task_completion(ev.task_id, ev.time, latency=ev.latency)
        if ev.job_completed:
            self.record_job_completion(ev.job_id, ev.time)

    def _on_transfer(self, ev: "_k.TransferStarted") -> None:
        self.record_transfer(ev.seconds)

    def _on_fault(self, ev: "_k.FaultInjected") -> None:
        self.record_fault(ev.kind)

    def _on_node_failed(self, ev: "_k.NodeFailed") -> None:
        self.record_node_failure()

    def _on_reassigned(self, ev: "_k.BacklogReassigned") -> None:
        self.record_reassignment(ev.count)

    def _on_spec_launch(self, ev: "_k.SpeculationLaunched") -> None:
        self.record_speculative_launch()

    def _on_spec_win(self, ev: "_k.SpeculationWon") -> None:
        self.record_speculative_win()

    def _on_spec_waste(self, ev: "_k.SpeculationWaste") -> None:
        self.record_speculative_waste(ev.mi)

    def _on_quarantine(self, ev: "_k.NodeQuarantined") -> None:
        self.record_quarantine()

    def _on_job_shed(self, ev: "_k.JobShed") -> None:
        self.jobs_shed += 1

    def _on_admission_paused(self, ev: "_k.AdmissionPaused") -> None:
        self.admission_pauses += 1

    def _on_node_joining(self, ev: "_k.NodeJoining") -> None:
        if ev.source == "autoscaler":
            self.scale_up_events += 1

    def _on_node_joined(self, ev: "_k.NodeJoined") -> None:
        self.nodes_joined += 1

    def _on_node_draining(self, ev: "_k.NodeDraining") -> None:
        if ev.source == "autoscaler":
            self.scale_down_events += 1

    def _on_drain_migrated(self, ev: "_k.TaskDrainMigrated") -> None:
        # Drain losses are accounted *separately* from fault losses
        # (lost_work_mi) so a graceful drain's zero-loss guarantee stays
        # auditable under concurrent chaos.
        self.drain_migrations += 1
        self.drain_lost_mi += max(0.0, ev.lost_mi)

    def _on_decommissioned(self, ev: "_k.NodeDecommissioned") -> None:
        self.nodes_decommissioned += 1
        self.drain_seconds_total += max(0.0, ev.drain_seconds)

    def _on_drain_aborted(self, ev: "_k.DrainAborted") -> None:
        self.drain_aborts += 1

    # -- snapshot / restore ------------------------------------------------
    #: Scalar accumulators (the dict fields are listed in snapshot_state).
    _SCALAR_FIELDS = (
        "num_preemptions",
        "num_disorders",
        "num_stall_evictions",
        "num_node_failures",
        "num_task_reassignments",
        "total_context_switch_time",
        "total_stalled_time",
        "total_transfer_time",
        "num_task_failures",
        "num_retries",
        "num_speculative_launches",
        "num_speculative_wins",
        "num_quarantines",
        "lost_work_mi",
        "speculative_waste_mi",
    )
    #: Retirement aggregates: restored with defaults so snapshots written
    #: before retirement existed stay loadable.
    _RETIRE_FIELDS = (
        ("jobs_retired", 0),
        ("jobs_shed", 0),
        ("admission_pauses", 0),
        ("_retired_tasks", 0),
        ("_retired_within_deadline", 0),
        ("_retired_wait_sum", 0.0),
        ("_retired_job_mean_sum", 0.0),
        ("_retired_arrival_min", None),
        ("_retired_completion_max", None),
    )
    #: Elastic-membership accumulators: restored with defaults so
    #: snapshots written before the subsystem existed stay loadable.
    _ELASTIC_FIELDS = (
        ("nodes_joined", 0),
        ("nodes_decommissioned", 0),
        ("scale_up_events", 0),
        ("scale_down_events", 0),
        ("drain_migrations", 0),
        ("drain_aborts", 0),
        ("drain_lost_mi", 0.0),
        ("drain_seconds_total", 0.0),
    )
    _DICT_FIELDS = (
        "_latency_samples",
        "fault_counts",
        "_task_waits",
        "_task_completions",
        "_job_of_task",
        "_job_arrivals",
        "_job_deadlines",
        "_job_completions",
    )

    def snapshot_state(self) -> dict:
        """Serializable accumulator state (run snapshot protocol).

        Dict fields round-trip through JSON objects, which preserve
        insertion order — that matters: :meth:`finalize` sums waits and
        per-job means in iteration order, so a restored run must iterate
        identically to reproduce bit-identical averages.
        """
        out: dict = {name: getattr(self, name) for name in self._SCALAR_FIELDS}
        for name, _default in self._RETIRE_FIELDS:
            out[name] = getattr(self, name)
        for name, _default in self._ELASTIC_FIELDS:
            out[name] = getattr(self, name)
        out["dicts"] = {
            name: dict(getattr(self, name)) for name in self._DICT_FIELDS
        }
        return out

    def restore_state(self, data: dict) -> None:
        """Inverse of :meth:`snapshot_state`."""
        for name in self._SCALAR_FIELDS:
            setattr(self, name, data[name])
        for name, default in self._RETIRE_FIELDS:
            setattr(self, name, data.get(name, default))
        for name, default in self._ELASTIC_FIELDS:
            setattr(self, name, data.get(name, default))
        for name in self._DICT_FIELDS:
            setattr(self, name, dict(data["dicts"][name]))

    # -- registration ------------------------------------------------------
    def register_job(
        self,
        job_id: str,
        arrival: float,
        deadline: float,
        task_ids: Iterable[str] = (),
    ) -> None:
        """Declare a job before its tasks report anything, and with it
        *task_ids* as :meth:`register_task` would, in order."""
        self._job_arrivals[job_id] = arrival
        self._job_deadlines[job_id] = deadline
        self._job_of_task.update(dict.fromkeys(task_ids, job_id))
        setdefault = self._task_waits.setdefault
        for task_id in task_ids:
            setdefault(task_id, 0.0)

    def register_task(self, task_id: str, job_id: str) -> None:
        """Declare a task as belonging to *job_id*."""
        self._job_of_task[task_id] = job_id
        self._task_waits.setdefault(task_id, 0.0)

    # -- event reporting -----------------------------------------------------
    def record_wait(self, task_id: str, duration: float) -> None:
        """Accumulate queued-waiting time for a task."""
        if duration < 0:
            raise ValueError(f"negative wait {duration} for {task_id}")
        self._task_waits[task_id] = self._task_waits.get(task_id, 0.0) + duration

    def record_preemption(self, context_switch_time: float) -> None:
        """One preemption occurred; charge its context-switch cost."""
        self.num_preemptions += 1
        self.total_context_switch_time += context_switch_time

    def record_disorder(self) -> None:
        """A task was dispatched before its parents completed."""
        self.num_disorders += 1

    def record_node_failure(self) -> None:
        """A node failed (fault injection)."""
        self.num_node_failures += 1

    def record_fault(self, kind: str) -> None:
        """An injected fault event of *kind* was applied."""
        self.fault_counts[kind] = self.fault_counts.get(kind, 0) + 1

    def record_lost_work(self, mi: float) -> None:
        """Completed work (MI) was destroyed by a failure or a
        checkpoint-lossy preemption."""
        self.lost_work_mi += max(0.0, mi)

    def record_task_failure(self, lost_mi: float) -> None:
        """A running attempt died (TASK_FAIL fault or timeout kill),
        destroying *lost_mi* of its progress."""
        self.num_task_failures += 1
        self.record_lost_work(lost_mi)

    def record_retry(self) -> None:
        """A failed task was re-dispatched by the resilience layer."""
        self.num_retries += 1

    def record_speculative_launch(self) -> None:
        """A speculative copy of a straggling attempt was started."""
        self.num_speculative_launches += 1

    def record_speculative_win(self) -> None:
        """A speculative copy finished before the original attempt."""
        self.num_speculative_wins += 1

    def record_speculative_waste(self, mi: float) -> None:
        """Work (MI) discarded when a speculation loser was cancelled."""
        self.speculative_waste_mi += max(0.0, mi)

    def record_quarantine(self) -> None:
        """A node was quarantined by the health tracker."""
        self.num_quarantines += 1

    def record_reassignment(self, count: int = 1) -> None:
        """Tasks were moved off a failed node."""
        self.num_task_reassignments += count

    def record_stall_eviction(self, context_switch_time: float) -> None:
        """The engine kicked a timed-out stalled task (deadlock breaker);
        charged as context-switch overhead but not as a policy preemption."""
        self.num_stall_evictions += 1
        self.total_context_switch_time += context_switch_time

    def record_transfer(self, duration: float) -> None:
        """An input fetch delayed a task start (§VI locality extension)."""
        self.total_transfer_time += max(0.0, duration)

    def record_stall(self, duration: float) -> None:
        """Capacity held by a stalled (disordered) task for *duration*."""
        self.total_stalled_time += max(0.0, duration)

    def record_task_completion(
        self, task_id: str, time: float, latency: float | None = None
    ) -> None:
        """A task finished at *time*; *latency* (enqueue→completion) is
        retained when sampling is enabled.  Double completion (e.g. a
        speculative copy finishing after its original already won) is an
        engine bug and raises."""
        if task_id in self._task_completions:
            raise ValueError(f"task {task_id!r} completed twice")
        self._task_completions[task_id] = time
        if self._collect_samples and latency is not None:
            if latency < 0:
                raise ValueError(f"negative latency {latency} for {task_id}")
            self._latency_samples[task_id] = latency

    def latency_samples(self) -> dict[str, float]:
        """Per-task latency samples (empty unless sampling is enabled)."""
        return dict(self._latency_samples)

    def record_job_completion(self, job_id: str, time: float) -> None:
        """All tasks of *job_id* finished at *time*."""
        self._job_completions[job_id] = time

    # -- retirement -------------------------------------------------------
    def retire_job(self, job_id: str, task_ids) -> None:
        """Fold a fully-completed job's per-task entries into the compact
        retired aggregates and evict them from the live dicts.

        The fold keeps exactly what :meth:`finalize` needs: task/job
        counts, the within-deadline count, the wait sum (overall average),
        the per-job mean-wait sum (mean-of-means average), and the
        arrival-min/completion-max envelope (makespan).  Summation runs in
        the given *task_ids* order — the job's task insertion order, which
        is deterministic under event-driven retirement, so a resumed
        streaming run reproduces the same floats.
        """
        completion = self._job_completions.pop(job_id, None)
        if completion is None:
            raise ValueError(f"retiring job {job_id!r} before it completed")
        arrival = self._job_arrivals.pop(job_id, 0.0)
        deadline = self._job_deadlines.pop(job_id, float("inf"))
        wait_sum = 0.0
        count = 0
        for tid in task_ids:
            if tid not in self._task_completions:
                raise ValueError(
                    f"retiring job {job_id!r} with unfinished task {tid!r}"
                )
            del self._task_completions[tid]
            wait_sum += self._task_waits.pop(tid, 0.0)
            self._job_of_task.pop(tid, None)
            self._latency_samples.pop(tid, None)
            count += 1
        self.jobs_retired += 1
        self._retired_tasks += count
        self._retired_wait_sum += wait_sum
        if count:
            self._retired_job_mean_sum += wait_sum / count
        if completion <= deadline:
            self._retired_within_deadline += 1
        if (
            self._retired_arrival_min is None
            or arrival < self._retired_arrival_min
        ):
            self._retired_arrival_min = arrival
        if (
            self._retired_completion_max is None
            or completion > self._retired_completion_max
        ):
            self._retired_completion_max = completion

    # -- finalization -----------------------------------------------------
    def finalize(self, sim_end_time: float) -> RunMetrics:
        """Freeze into a :class:`RunMetrics` at the end of a run.

        Retired aggregates merge retired-first, then the live window, so
        two streaming runs that retired the same jobs in the same event
        order produce bit-identical floats.  A batch run (nothing retired)
        computes exactly the legacy expressions.
        """
        arrivals = list(self._job_arrivals.values())
        start = min(arrivals) if arrivals else 0.0
        if self._retired_arrival_min is not None:
            start = (
                min(self._retired_arrival_min, min(arrivals))
                if arrivals
                else self._retired_arrival_min
            )
        completions = list(self._task_completions.values())
        end = max(completions) if completions else None
        if self._retired_completion_max is not None:
            end = (
                max(self._retired_completion_max, end)
                if end is not None
                else self._retired_completion_max
            )
        makespan = (end - start) if end is not None else 0.0

        jobs_completed = self.jobs_retired + len(self._job_completions)
        within = self._retired_within_deadline + sum(
            1
            for jid, t in self._job_completions.items()
            if t <= self._job_deadlines.get(jid, float("inf"))
        )
        misses = jobs_completed - within

        # Mean task wait, overall and per job (mean of per-job means so a
        # 2000-task job does not drown the small jobs — matching the paper's
        # "average waiting time of jobs").
        tasks_completed = self._retired_tasks + len(self._task_completions)
        waits = [self._task_waits[t] for t in self._task_completions]
        wait_sum = self._retired_wait_sum + sum(waits)
        avg_task_wait = wait_sum / tasks_completed if tasks_completed else 0.0
        per_job: dict[str, list[float]] = {}
        for tid in self._task_completions:
            per_job.setdefault(self._job_of_task.get(tid, "?"), []).append(
                self._task_waits[tid]
            )
        job_means = [sum(v) / len(v) for v in per_job.values()]
        mean_sum = self._retired_job_mean_sum + sum(job_means)
        num_jobs_waited = self.jobs_retired + len(job_means)
        avg_job_wait = mean_sum / num_jobs_waited if num_jobs_waited else 0.0

        return RunMetrics(
            makespan=makespan,
            tasks_completed=tasks_completed,
            jobs_completed=jobs_completed,
            jobs_within_deadline=within,
            num_preemptions=self.num_preemptions,
            num_disorders=self.num_disorders,
            num_stall_evictions=self.num_stall_evictions,
            num_node_failures=self.num_node_failures,
            num_task_reassignments=self.num_task_reassignments,
            deadline_misses=misses,
            avg_job_waiting=avg_job_wait,
            avg_task_waiting=avg_task_wait,
            total_context_switch_time=self.total_context_switch_time,
            total_stalled_time=self.total_stalled_time,
            total_transfer_time=self.total_transfer_time,
            sim_end_time=sim_end_time,
            num_task_failures=self.num_task_failures,
            num_retries=self.num_retries,
            num_speculative_launches=self.num_speculative_launches,
            num_speculative_wins=self.num_speculative_wins,
            num_quarantines=self.num_quarantines,
            lost_work_mi=self.lost_work_mi,
            speculative_waste_mi=self.speculative_waste_mi,
            fault_counts=dict(self.fault_counts),
            jobs_retired=self.jobs_retired,
            jobs_shed=self.jobs_shed,
            admission_pauses=self.admission_pauses,
            nodes_joined=self.nodes_joined,
            nodes_decommissioned=self.nodes_decommissioned,
            scale_up_events=self.scale_up_events,
            scale_down_events=self.scale_down_events,
            drain_migrations=self.drain_migrations,
            drain_aborts=self.drain_aborts,
            drain_lost_mi=self.drain_lost_mi,
            drain_seconds_total=self.drain_seconds_total,
        )
