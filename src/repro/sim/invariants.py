"""Runtime invariant checking: a bus subscriber that audits every event.

The properties DSP's correctness rests on are enforced *by construction*
on the happy path — C2's "never preempt a task you depend on"
(Algorithm 1), parent-before-child execution order (Eq. 6–8), checkpoint
work conservation (§III) — but faults, retries and speculation interact,
and nothing in the core loop verifies the composed system still honours
them.  :class:`InvariantChecker` closes that gap: attached last on the
bus (after array core → metrics → trace → resilience, so it observes the
world *after* every other subscriber reacted), it audits each event
against an independent shadow of the run:

* **dependency-order** — no task starts (or finishes) before every parent
  has finished, judged against the checker's own bus-observed finished
  set, not engine state;
* **c2-dependency-preemption** — no preemption victim is an ancestor of
  its preemptor (C2), keyed on ``TaskPreempted.preempted_by`` against the
  memoized ancestor closures; enforced only for policies that declare
  ``respects_dependencies`` (baselines like SRPT are dependency-blind by
  design);
* **unreachable-dispatch** / **gated-dispatch** — no task starts or
  stalls on a dead or partitioned node, and no *fresh* dispatch lands on
  a gated (e.g. quarantined) node — activating an already-placed stalled
  task is legitimate and exempt;
* **mi-conservation** / **checkpoint-loss-bound** — per-task work stays
  within ``[0, size]`` and the MI destroyed by a checkpointed preemption
  never exceeds one checkpoint interval's worth of progress (zero with
  perfect checkpointing);
* **monotone-time** — the bus stream's clock never runs backwards;
* **metrics-consistency** — at end of run, every
  :class:`~repro.sim.metrics.RunMetrics` counter equals the checker's own
  count of the events that drive it (:meth:`InvariantChecker.verify_run`).

Modes: ``"strict"`` raises :class:`InvariantViolation` — carrying the
offending event and a ring buffer of recent events — at the first
violation; ``"record"`` collects :class:`Violation` entries in
:attr:`InvariantChecker.violations` for post-run inspection.  Selected
via :attr:`repro.config.SimConfig.invariants`; ``"off"`` attaches
nothing, so default runs are byte-identical with or without this module.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .._util import EPS
from . import kernel as k

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .metrics import RunMetrics
    from .state import SimRuntime

__all__ = ["InvariantChecker", "InvariantViolation", "Violation"]

#: Recent-event ring buffer size carried into strict-mode exceptions.
_HISTORY = 32


class InvariantViolation(k.SimulationError):
    """A runtime invariant did not hold.

    ``name`` identifies the invariant, ``event`` is the offending bus
    event (None for end-of-run checks) and ``history`` the most recent
    events before it, oldest first.
    """

    def __init__(
        self,
        name: str,
        detail: str,
        event: k.BusEvent | None,
        history: tuple[k.BusEvent, ...],
    ) -> None:
        self.name = name
        self.detail = detail
        self.event = event
        self.history = history
        lines = [f"invariant {name!r} violated: {detail}"]
        if event is not None:
            lines.append(f"  event: {event!r}")
        if history:
            lines.append("  recent events (oldest first):")
            lines.extend(f"    {ev!r}" for ev in history)
        super().__init__("\n".join(lines))


@dataclass(frozen=True, slots=True)
class Violation:
    """One recorded violation (``record`` mode)."""

    name: str
    time: float
    detail: str
    event: k.BusEvent | None


class InvariantChecker:
    """Bus subscriber enforcing the run's correctness invariants.

    Constructed (and attached last) by :class:`~repro.sim.engine.SimEngine`
    when ``sim_config.invariants`` is ``"record"`` or ``"strict"``.
    """

    def __init__(self, runtime: "SimRuntime", mode: str = "strict") -> None:
        if mode not in ("record", "strict"):
            raise ValueError(f"mode must be 'record' or 'strict', got {mode!r}")
        self._rt = runtime
        self._strict = mode == "strict"
        self._violations: list[Violation] = []
        self._finished: set[str] = set()
        self._retired_finished = 0
        self._counts: dict[str, int] = {}
        self._history: deque[k.BusEvent] = deque(maxlen=_HISTORY)
        self._last_time = 0.0
        self._stall_closed_at: dict[str, float] = {}
        # Elastic membership conservation: the live node count must always
        # equal construction-time nodes + joins - decommissions.
        self._initial_nodes = len(runtime.state.nodes)
        self._nodes_joined = 0
        self._nodes_decommissioned = 0

    # -------------------------------------------------------------- wiring
    def attach(self, bus: k.EventBus) -> None:
        """Subscribe the typed audits plus a wildcard for the stream-level
        checks (monotone time), the event counts and the ring buffer."""
        bus.subscribe(k.TaskStarted, self._on_started)
        bus.subscribe(k.TaskStalled, self._on_stalled)
        bus.subscribe(k.TaskStallEnded, self._on_stall_ended)
        bus.subscribe(k.TaskResumed, self._on_resumed)
        bus.subscribe(k.TaskFinished, self._on_finished)
        bus.subscribe(k.TaskPreempted, self._on_preempted)
        bus.subscribe((k.TaskSuspended, k.TaskAttemptFailed), self._on_lossy)
        bus.subscribe(k.TaskDrainMigrated, self._on_drain_migrated)
        bus.subscribe(
            (k.NodeJoined, k.NodeDecommissioned), self._on_membership_change
        )
        bus.subscribe_all(self._on_any)

    # ------------------------------------------------- snapshot / restore
    def snapshot_state(self) -> dict:
        """Serializable shadow state (run snapshot protocol).

        The checker audits against its *own* bus-observed shadow
        (finished set, event counts, clock) — losing it across a resume
        would make :meth:`verify_run` reject a perfectly healthy run, so
        it snapshots alongside the world state.  Events in the ring
        buffer and recorded violations ride the generic bus-event codec.
        """
        from .journal import encode_bus_event

        return {
            "finished": sorted(self._finished),
            "retired_finished": self._retired_finished,
            "counts": dict(self._counts),
            "last_time": self._last_time,
            "stall_closed_at": dict(self._stall_closed_at),
            "nodes_joined": self._nodes_joined,
            "nodes_decommissioned": self._nodes_decommissioned,
            "history": [encode_bus_event(ev) for ev in self._history],
            "violations": [
                [
                    v.name,
                    v.time,
                    v.detail,
                    encode_bus_event(v.event) if v.event is not None else None,
                ]
                for v in self._violations
            ],
        }

    def restore_state(self, data: dict) -> None:
        """Inverse of :meth:`snapshot_state`."""
        from .journal import decode_bus_event

        self._finished = set(data["finished"])
        self._retired_finished = data.get("retired_finished", 0)
        self._counts = dict(data["counts"])
        self._last_time = data["last_time"]
        self._stall_closed_at = dict(data["stall_closed_at"])
        self._nodes_joined = data.get("nodes_joined", 0)
        self._nodes_decommissioned = data.get("nodes_decommissioned", 0)
        self._history = deque(
            (decode_bus_event(ev) for ev in data["history"]), maxlen=_HISTORY
        )
        self._violations = [
            Violation(
                name,
                time,
                detail,
                decode_bus_event(event) if event is not None else None,
            )
            for name, time, detail, event in data["violations"]
        ]

    # ---------------------------------------------------------- inspection
    @property
    def violations(self) -> tuple[Violation, ...]:
        """Violations recorded so far (always empty in strict mode — the
        first one raises instead)."""
        return tuple(self._violations)

    def event_counts(self) -> dict[str, int]:
        """Bus events observed so far, by type name."""
        return dict(self._counts)

    # ------------------------------------------------------------- plumbing
    def _report(self, name: str, detail: str, event: k.BusEvent | None) -> None:
        if self._strict:
            raise InvariantViolation(name, detail, event, tuple(self._history))
        time = event.time if event is not None else self._last_time
        self._violations.append(Violation(name, time, detail, event))

    def _on_any(self, ev: k.BusEvent) -> None:
        # Wildcards run after the typed handlers, so the ring buffer holds
        # strictly *earlier* events when a typed audit raises.
        if ev.time < self._last_time - EPS or ev.time < -EPS:
            self._report(
                "monotone-time",
                f"event at t={ev.time} after t={self._last_time}",
                ev,
            )
        self._last_time = max(self._last_time, ev.time)
        name = type(ev).__name__
        self._counts[name] = self._counts.get(name, 0) + 1
        self._history.append(ev)

    # --------------------------------------------------------- typed audits
    def _on_started(self, ev: k.TaskStarted) -> None:
        self._check_reachable(ev, ev.node_id)
        # A TaskStallEnded for the same task at the same instant means this
        # start is the *activation* of an already-placed stalled task, not
        # a fresh dispatch — gates (quarantine) only bar the latter.
        if self._stall_closed_at.pop(ev.task_id, None) != ev.time:
            self._check_ungated(ev, ev.node_id)
            self._check_member(ev, ev.node_id)
        self._check_parents(ev, ev.task_id, "starts")
        self._check_work_bounds(ev, ev.task_id)

    def _on_stalled(self, ev: k.TaskStalled) -> None:
        # Stalls are always fresh dispatches (a disorder of dependency-
        # blind dispatch); both reachability and gating apply.
        self._check_reachable(ev, ev.node_id)
        self._check_ungated(ev, ev.node_id)
        self._check_member(ev, ev.node_id)

    def _on_stall_ended(self, ev: k.TaskStallEnded) -> None:
        self._stall_closed_at[ev.task_id] = ev.time

    def _on_resumed(self, ev: k.TaskResumed) -> None:
        self._check_reachable(ev, ev.node_id)
        self._check_work_bounds(ev, ev.task_id)

    def _on_finished(self, ev: k.TaskFinished) -> None:
        if ev.task_id in self._finished:
            self._report(
                "double-completion", f"task {ev.task_id} completed twice", ev
            )
            return
        self._finished.add(ev.task_id)
        self._check_parents(ev, ev.task_id, "finishes")

    def retire_tasks(self, task_ids) -> None:
        """Forget retired tasks' finished-set entries, keeping their count
        so :meth:`verify_run` still balances.  Safe because dependency
        edges are intra-job and the whole job retires at once — no live
        task's parent check can ever name a retired task."""
        for tid in task_ids:
            if tid in self._finished:
                self._finished.discard(tid)
                self._retired_finished += 1
            self._stall_closed_at.pop(tid, None)

    def _on_preempted(self, ev: k.TaskPreempted) -> None:
        state = self._rt.state
        # C2 is a promise only dependency-aware policies make; baselines
        # like SRPT are dependency-blind by design and exempt.
        if (
            self._rt.policy.respects_dependencies
            and ev.preempted_by
            and ev.task_id in state.ancestors.get(ev.preempted_by, frozenset())
        ):
            self._report(
                "c2-dependency-preemption",
                f"victim {ev.task_id} is an ancestor of its preemptor "
                f"{ev.preempted_by} (C2, Algorithm 1)",
                ev,
            )
        self._check_lost(ev, ev.task_id, ev.lost_mi)
        if self._rt.policy.uses_checkpointing and ev.lost_mi > self._loss_bound(
            ev.node_id
        ):
            self._report(
                "checkpoint-loss-bound",
                f"preemption of {ev.task_id} lost {ev.lost_mi} MI, above the "
                f"checkpoint-interval bound {self._loss_bound(ev.node_id)}",
                ev,
            )

    def _on_lossy(self, ev: k.BusEvent) -> None:
        # TaskSuspended / TaskAttemptFailed both carry task_id + lost_mi.
        self._check_lost(ev, ev.task_id, ev.lost_mi)  # type: ignore[attr-defined]

    def _on_drain_migrated(self, ev: k.TaskDrainMigrated) -> None:
        """A graceful drain migrated a task: losses obey the same
        checkpoint bound as preemptions — exactly zero with the default
        perfect checkpointing, so a graceful drain destroys no MI."""
        self._check_lost(ev, ev.task_id, ev.lost_mi)
        if self._rt.policy.uses_checkpointing and ev.lost_mi > self._loss_bound(
            ev.node_id
        ):
            self._report(
                "drain-loss-bound",
                f"drain migration of {ev.task_id} lost {ev.lost_mi} MI, above "
                f"the checkpoint-interval bound {self._loss_bound(ev.node_id)}",
                ev,
            )

    def _on_membership_change(self, ev: k.BusEvent) -> None:
        if isinstance(ev, k.NodeJoined):
            self._nodes_joined += 1
        else:
            self._nodes_decommissioned += 1
        expected = (
            self._initial_nodes + self._nodes_joined - self._nodes_decommissioned
        )
        actual = len(self._rt.state.nodes)
        if actual != expected:
            self._report(
                "membership-conservation",
                f"{actual} live nodes but {self._initial_nodes} initial "
                f"+ {self._nodes_joined} joined "
                f"- {self._nodes_decommissioned} decommissioned = {expected}",
                ev,
            )

    # --------------------------------------------------------------- checks
    def _check_reachable(self, ev: k.BusEvent, node_id: str) -> None:
        node = self._rt.state.nodes.get(node_id)
        if node is None:
            self._report("unreachable-dispatch", f"unknown node {node_id}", ev)
        elif not node.alive:
            self._report(
                "unreachable-dispatch", f"node {node_id} is dead", ev
            )
        elif node.partitioned:
            self._report(
                "unreachable-dispatch", f"node {node_id} is partitioned", ev
            )

    def _check_ungated(self, ev: k.BusEvent, node_id: str) -> None:
        if any(gate(node_id) for gate in self._rt.state.dispatch_gates):
            self._report(
                "gated-dispatch",
                f"fresh dispatch to gated (e.g. quarantined) node {node_id}",
                ev,
            )

    def _check_member(self, ev: k.BusEvent, node_id: str) -> None:
        node = self._rt.state.nodes.get(node_id)
        if node is not None and node.membership != "alive":
            self._report(
                "non-member-dispatch",
                f"fresh dispatch to {node.membership} node {node_id}",
                ev,
            )

    def _check_parents(self, ev: k.BusEvent, task_id: str, verb: str) -> None:
        task = self._rt.state.static_tasks.get(task_id)
        if task is None:
            return
        missing = [p for p in task.parents if p not in self._finished]
        if missing:
            self._report(
                "dependency-order",
                f"task {task_id} {verb} before parent(s) "
                f"{sorted(missing)} finished",
                ev,
            )

    def _check_work_bounds(self, ev: k.BusEvent, task_id: str) -> None:
        task = self._rt.state.tasks.get(task_id)
        if task is None:
            return
        size = task.task.size_mi
        if task.work_done_mi < -EPS or task.work_done_mi > size + EPS:
            self._report(
                "mi-conservation",
                f"task {task_id} work_done_mi={task.work_done_mi} outside "
                f"[0, {size}]",
                ev,
            )

    def _check_lost(self, ev: k.BusEvent, task_id: str, lost_mi: float) -> None:
        task = self._rt.state.tasks.get(task_id)
        size = task.task.size_mi if task is not None else float("inf")
        if lost_mi < -EPS or lost_mi > size + EPS:
            self._report(
                "mi-conservation",
                f"task {task_id} lost {lost_mi} MI, outside [0, {size}]",
                ev,
            )
        self._check_work_bounds(ev, task_id)

    def _loss_bound(self, node_id: str) -> float:
        """Maximum MI a checkpointed suspend may destroy: one checkpoint
        interval of progress at the node's current rate (0 = perfect)."""
        interval = self._rt.dsp_config.checkpoint_interval
        if interval <= 0:
            return EPS
        node = self._rt.state.nodes.get(node_id)
        rate = node.rate if node is not None else 0.0
        return interval * rate + EPS

    # ---------------------------------------------------------- end of run
    def verify_run(self, metrics: "RunMetrics") -> None:
        """Cross-check the finalized :class:`RunMetrics` counters against
        this checker's independent bus-observed event counts."""
        observed = self._counts
        pairs = [
            (
                "tasks_completed",
                metrics.tasks_completed,
                len(self._finished) + self._retired_finished,
            ),
            (
                "num_preemptions",
                metrics.num_preemptions,
                observed.get("TaskPreempted", 0),
            ),
            (
                "num_disorders",
                metrics.num_disorders,
                observed.get("TaskStalled", 0),
            ),
            (
                "num_stall_evictions",
                metrics.num_stall_evictions,
                observed.get("TaskStallEvicted", 0),
            ),
            (
                "num_node_failures",
                metrics.num_node_failures,
                observed.get("NodeFailed", 0),
            ),
            (
                "num_task_failures",
                metrics.num_task_failures,
                observed.get("TaskAttemptFailed", 0),
            ),
            ("num_retries", metrics.num_retries, observed.get("RetryDispatched", 0)),
            (
                "num_speculative_launches",
                metrics.num_speculative_launches,
                observed.get("SpeculationLaunched", 0),
            ),
            (
                "num_speculative_wins",
                metrics.num_speculative_wins,
                observed.get("SpeculationWon", 0),
            ),
            (
                "num_quarantines",
                metrics.num_quarantines,
                observed.get("NodeQuarantined", 0),
            ),
            (
                "fault_counts",
                sum(metrics.fault_counts.values()),
                observed.get("FaultInjected", 0),
            ),
            (
                "nodes_joined",
                metrics.nodes_joined,
                observed.get("NodeJoined", 0),
            ),
            (
                "nodes_decommissioned",
                metrics.nodes_decommissioned,
                observed.get("NodeDecommissioned", 0),
            ),
            (
                "drain_migrations",
                metrics.drain_migrations,
                observed.get("TaskDrainMigrated", 0),
            ),
            (
                "drain_aborts",
                metrics.drain_aborts,
                observed.get("DrainAborted", 0),
            ),
        ]
        for name, reported, counted in pairs:
            if reported != counted:
                self._report(
                    "metrics-consistency",
                    f"RunMetrics.{name}={reported} but the bus stream "
                    f"shows {counted}",
                    None,
                )
