"""Dependency-aware resilience layer: retries, speculation, quarantine.

The paper's §VI names fault handling as the open problem ("handle node
failures/crashes or straggler[s]").  The engine's fault model
(:mod:`repro.sim.faults`) injects the *events*; this module supplies the
*recovery policy* around them, activated by passing a
:class:`~repro.config.ResilienceConfig` to
:class:`~repro.sim.engine.SimEngine`:

* **Retry with capped exponential backoff.**  A transient attempt failure
  (``FaultKind.TASK_FAIL`` or a timeout kill) re-queues the task but gates
  its re-dispatch behind ``min(cap, base * 2**(attempts-1))`` seconds.  When
  several retries become eligible in the same epoch they are dispatched in
  descending DSP priority (Eq. 12–13) — the task blocking the most
  dependents recovers first, the DAGPS/Graphene "do the hard stuff first"
  ordering applied to recovery instead of admission.
* **Per-task timeouts.**  An attempt whose wall time exceeds
  ``timeout_factor`` times the busy time expected when its stint began is
  killed and retried; the expectation is *not* refreshed when the node's
  rate degrades, so stragglers the speculation path misses are eventually
  reclaimed.
* **Speculative re-execution.**  When a running attempt's observed progress
  rate (its node's rate) falls below ``speculation_threshold`` times the
  mean alive-node rate, a copy is launched on the healthiest eligible node
  from the task's last checkpoint.  First finisher wins; the loser is
  cancelled through the engine's ``finish_version`` staleness machinery
  (primary) or the speculative version counter (copy), so a task can never
  complete twice.
* **Node health and quarantine.**  Every failure/timeout/straggle
  observation on a node pushes an EWMA health score toward 1; completions
  decay it.  At ``quarantine_threshold`` the node is quarantined: its
  queued backlog drains to healthy nodes and it receives no new dispatches
  (running work finishes out) until its RECOVERY fault event or the
  probation window ``quarantine_duration`` elapses.  The last healthy node
  is never quarantined.

Architecturally the manager is a *pluggable subsystem*: :meth:`attach`
subscribes it to the engine's event bus (``EpochTick``, ``TaskFinished``,
``TaskAttemptFailed``, ``NodeFailed``, ``NodePartitioned``,
``NodeRecovered``, ``NodeRetimed``),
registers the ``SPEC_FINISH`` timed-event handler on the kernel, and
installs its quarantine check / pending-work predicate into the engine's
``dispatch_gates`` / ``progress_holds`` extension points.  The core loop
contains no resilience-specific branches; runs without a config simply
never construct (or attach) this class.  Policies (:mod:`repro.sim.policy`)
remain snapshot-based and unaware of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .._util import EPS
from ..config import ResilienceConfig
from ..dag.task import TaskState
from .events import EventKind
from .executor import NodeRuntime, TaskRuntime
from . import kernel as k
from .state import SimRuntime

__all__ = ["ResilienceManager", "SpeculativeAttempt", "AttemptBudgetExhausted"]


class AttemptBudgetExhausted(RuntimeError):
    """A task failed more times than :attr:`ResilienceConfig.max_attempts`
    allows — the run is aborted rather than silently degraded."""


@dataclass
class SpeculativeAttempt:
    """One in-flight speculative copy of a task.

    ``work_mi``/``started_at``/``recovery`` follow the same stint model as
    :class:`~repro.sim.executor.TaskRuntime`: the copy pays ``recovery``
    seconds (context switch + input transfer), then accrues work at its
    node's rate on top of ``work_mi``; a node re-time folds progress into
    ``work_mi`` and restarts the stint.  ``version`` invalidates stale
    SPEC_FINISH events exactly like the primary's ``finish_version``.
    """

    task_id: str
    node_id: str
    started_at: float
    version: int
    recovery: float
    work_mi: float
    base_work_mi: float


class ResilienceManager:
    """Bus-driven coordinator of retries, speculation and quarantine.

    Constructed (and attached) by :class:`~repro.sim.engine.SimEngine`
    when a :class:`~repro.config.ResilienceConfig` is supplied; never used
    standalone.
    """

    def __init__(self, runtime: SimRuntime, config: ResilienceConfig):
        self._rt = runtime
        self._cfg = config
        self._health: dict[str, float] = {
            node_id: 0.0 for node_id in runtime.state.nodes
        }
        self._quarantined: dict[str, float] = {}  # node_id -> release time
        self._specs: dict[str, SpeculativeAttempt] = {}
        self._spec_versions: dict[str, int] = {}

    # -------------------------------------------------------------- wiring
    def attach(self, bus: k.EventBus, kernel: k.Kernel) -> None:
        """Plug into the engine: bus subscriptions, the SPEC_FINISH timed
        handler, and the dispatch-gate / progress-hold extension points."""
        bus.subscribe(k.EpochTick, self._on_epoch_event)
        bus.subscribe(k.TaskFinished, self._on_task_finished)
        bus.subscribe(k.TaskAttemptFailed, self._on_attempt_failed)
        bus.subscribe(k.NodeFailed, self._on_node_failed)
        bus.subscribe(k.NodePartitioned, self._on_node_partitioned)
        bus.subscribe(k.NodeRecovered, self._on_node_recovered)
        bus.subscribe(k.NodeRetimed, self._on_node_retimed)
        kernel.on(EventKind.SPEC_FINISH, self._on_spec_finish)
        self._rt.state.dispatch_gates.append(self.is_quarantined)
        self._rt.state.progress_holds.append(self.has_pending)

    # ----------------------------------------------------------- inspection
    @property
    def config(self) -> ResilienceConfig:
        return self._cfg

    def is_quarantined(self, node_id: str) -> bool:
        """True while *node_id* must not receive new dispatches."""
        return node_id in self._quarantined

    def health_score(self, node_id: str) -> float:
        """Current EWMA badness score of *node_id* (0 = healthy)."""
        return self._health[node_id]

    def current_spec(self, task_id: str) -> SpeculativeAttempt | None:
        """The in-flight speculative copy of *task_id*, if any."""
        return self._specs.get(task_id)

    def has_pending(self, now: float) -> bool:
        """Whether the layer still owns future progress the engine's
        deadlock detector must wait for: an in-flight speculative copy, a
        retry gated behind backoff, or a quarantine that will release."""
        if self._specs or self._quarantined:
            return True
        return any(
            rt.state is TaskState.QUEUED and rt.retry_not_before > now + EPS
            for rt in self._rt.state.tasks.values()
        )

    # ------------------------------------------------- snapshot / restore
    def snapshot_state(self) -> dict:
        """Serializable layer state (run snapshot protocol).

        ``_quarantined`` and ``_specs`` round-trip through JSON objects,
        which preserve insertion order — release sweeps and re-time loops
        iterate these dicts, so order is behavior-affecting.
        """
        return {
            "health": dict(self._health),
            "quarantined": dict(self._quarantined),
            "specs": {
                tid: [
                    s.task_id,
                    s.node_id,
                    s.started_at,
                    s.version,
                    s.recovery,
                    s.work_mi,
                    s.base_work_mi,
                ]
                for tid, s in self._specs.items()
            },
            "spec_versions": dict(self._spec_versions),
        }

    def restore_state(self, data: dict) -> None:
        """Inverse of :meth:`snapshot_state`."""
        self._health = dict(data["health"])
        self._quarantined = dict(data["quarantined"])
        self._specs = {
            tid: SpeculativeAttempt(*fields)
            for tid, fields in data["specs"].items()
        }
        self._spec_versions = dict(data["spec_versions"])

    # -------------------------------------------------- elastic membership
    def add_node(self, node_id: str) -> None:
        """Open a health ledger for a node the elastic subsystem joined
        (idempotent; restores overwrite it wholesale)."""
        self._health.setdefault(node_id, 0.0)

    def forget_node(self, node_id: str) -> None:
        """Drop all per-node bookkeeping for a decommissioned node so the
        quarantine release sweep and health lookups never chase it."""
        self._quarantined.pop(node_id, None)
        self._health.pop(node_id, None)

    # ---------------------------------------------------------- retirement
    def retire_tasks(self, task_ids) -> None:
        """Drop per-task bookkeeping for a retired (fully-completed) job.
        Completed jobs can hold no in-flight specs — the pops are
        belt-and-braces."""
        for tid in task_ids:
            self._specs.pop(tid, None)
            self._spec_versions.pop(tid, None)

    # ------------------------------------------------------- bus reactions
    def _on_task_finished(self, ev: k.TaskFinished) -> None:
        """A task completed on ``ev.node_id``: the winner's node earns a
        health decay; a primary win also cancels the now-redundant copy
        (whose node is woken once the completion's wake set drains)."""
        if not ev.speculative:
            spec_node = self.cancel_spec(ev.task_id)
            if spec_node is not None:
                self._rt.dispatch.request_wake(spec_node)
        self._observe(ev.node_id, bad=False)

    def _on_attempt_failed(self, ev: k.TaskAttemptFailed) -> None:
        """A running attempt of ``ev.task_id`` died (already re-queued by
        the fault subsystem): charge the attempt budget, arm the backoff
        gate and update the node's health."""
        task = self._rt.state.tasks[ev.task_id]
        if task.attempts >= self._cfg.max_attempts:
            raise AttemptBudgetExhausted(
                f"task {ev.task_id} failed {task.attempts} times, "
                f"exhausting its attempt budget of {self._cfg.max_attempts}"
            )
        backoff = min(
            self._cfg.backoff_cap,
            self._cfg.backoff_base * 2.0 ** (task.attempts - 1),
        )
        task.retry_not_before = self._rt.now + backoff
        self._observe(ev.node_id, bad=True)

    def _on_node_failed(self, ev: k.NodeFailed) -> None:
        """A node crashed: cancel any speculative copies running on it."""
        for tid in [
            t for t, s in self._specs.items() if s.node_id == ev.node_id
        ]:
            self.cancel_spec(tid)

    def _on_node_partitioned(self, ev: k.NodePartitioned) -> None:
        """A node became unreachable: cancel speculative copies on it — a
        copy that cannot deliver its result is dead weight, and the primary
        may straggle again after the heal and earn a fresh copy.  (Like a
        crash, the partition itself is not a health observation; the
        EWMA tracks per-attempt outcomes, not fault injections.)"""
        for tid in [
            t for t, s in self._specs.items() if s.node_id == ev.node_id
        ]:
            self.cancel_spec(tid)

    def _on_node_recovered(self, ev: k.NodeRecovered) -> None:
        """A RECOVERY fault arrived: lift the node's quarantine and forget
        its history — it returns as a fresh node."""
        self._quarantined.pop(ev.node_id, None)
        self._health[ev.node_id] = 0.0

    def _on_node_retimed(self, ev: k.NodeRetimed) -> None:
        """A node's rate changed: re-time the speculative copies on it."""
        rt = self._rt
        now = rt.now
        node = rt.state.nodes[ev.node_id]
        for spec in self._specs.values():
            if spec.node_id != ev.node_id:
                continue
            elapsed = now - spec.started_at
            unpaid = max(0.0, spec.recovery - elapsed)
            progressed = max(0.0, elapsed - spec.recovery) * ev.old_rate
            size = rt.state.tasks[spec.task_id].task.size_mi
            spec.work_mi = min(size, spec.work_mi + progressed)
            spec.started_at = now
            spec.recovery = unpaid
            spec.version = self._next_spec_version(spec.task_id)
            busy = unpaid + (size - spec.work_mi) / node.rate
            rt.kernel.schedule(
                now + busy, EventKind.SPEC_FINISH, (spec.task_id, spec.version)
            )

    # --------------------------------------------------- speculation plumbing
    def cancel_spec(self, task_id: str) -> str | None:
        """Cancel the in-flight copy of *task_id* (its original finished
        first, or its node crashed).  Releases the copy's capacity, records
        the discarded work, and returns the copy's node id (None when no
        copy was in flight)."""
        spec = self._specs.pop(task_id, None)
        if spec is None:
            return None
        rt = self._rt
        node = rt.state.nodes[spec.node_id]
        elapsed = rt.now - spec.started_at
        progressed = max(0.0, elapsed - spec.recovery) * node.rate
        waste = (spec.work_mi - spec.base_work_mi) + progressed
        self._next_spec_version(task_id)  # invalidate the SPEC_FINISH event
        node.release(rt.state.tasks[task_id].task.demand)
        rt.bus.emit(k.SpeculationWaste(rt.now, task_id, waste))
        return spec.node_id

    def cancel_specs_on(self, node_id: str) -> int:
        """Cancel every in-flight copy running on *node_id* (the elastic
        drain path calls this before judging the node empty — a copy holds
        capacity without appearing in ``node.running``).  Returns the
        number cancelled."""
        doomed = [t for t, s in self._specs.items() if s.node_id == node_id]
        for tid in doomed:
            self.cancel_spec(tid)
        return len(doomed)

    def pop_spec_if_current(
        self, task_id: str, version: int
    ) -> SpeculativeAttempt | None:
        """Claim the winning copy for a SPEC_FINISH event, or None when the
        event is stale (copy cancelled/re-timed since it was scheduled)."""
        spec = self._specs.get(task_id)
        if spec is None or spec.version != version:
            return None
        del self._specs[task_id]
        return spec

    def _on_spec_finish(self, payload: tuple[str, int]) -> None:
        """A speculative copy finished: if still current, it wins — tear
        down the original attempt wherever it is and complete the task
        exactly once (the no-double-completion invariant)."""
        task_id, version = payload
        spec = self.pop_spec_if_current(task_id, version)
        if spec is None:
            return  # stale: copy was cancelled or re-timed since
        rt = self._rt
        state = rt.state
        now = rt.now
        task = state.tasks[task_id]
        spec_node = state.nodes[spec.node_id]
        wasted = 0.0
        if task.state is TaskState.RUNNING:
            node = state.nodes[task.node_id]
            wasted = task.progress_seconds(now) * node.rate
            task.finish_version += 1  # invalidate the loser's finish event
            node.running.discard(task_id)
            node.release(task.task.demand)
        elif task.state is TaskState.STALLED:
            node = state.nodes[task.node_id]
            rt.dispatch.end_stall(task)
            node.running.discard(task_id)
            node.release(task.task.demand)
        elif task.state is TaskState.QUEUED:
            # The original failed/was preempted meanwhile and sits in a
            # queue (possibly gated by backoff); the copy completes for it.
            node = state.nodes[task.node_id]
            node.dequeue(task_id, task.planned_start)
            if task.queued_since is not None:
                wait = now - task.queued_since
                task.total_wait += wait
                task.queued_since = None
                rt.bus.emit(k.TaskWaitAccrued(now, task_id, wait))
        spec_node.release(task.task.demand)
        rt.bus.emit(k.SpeculationWon(now, task_id, spec_node.node_id))
        rt.bus.emit(k.SpeculationWaste(now, task_id, wasted))
        rt.dispatch.finalize_completion(
            task, spec_node.node_id, {spec_node.node_id}, speculative=True
        )

    # ---------------------------------------------------------- epoch sweep
    def _on_epoch_event(self, _ev: k.EpochTick) -> None:
        """Per-epoch sweep: release expired quarantines, kill timed-out
        attempts, launch speculative copies, dispatch eligible retries in
        DSP-priority order."""
        self._release_expired_quarantines()
        self._kill_timed_out_attempts()
        self._launch_speculations()
        self._dispatch_retries()

    def _release_expired_quarantines(self) -> None:
        rt = self._rt
        for node_id, until in list(self._quarantined.items()):
            if rt.now + EPS >= until:
                self._quarantined.pop(node_id)
                node = rt.state.nodes.get(node_id)
                if node is None:
                    continue  # decommissioned while quarantined
                self._health[node_id] = 0.0  # probation served; clean slate
                rt.dispatch.dispatch(node)

    def _kill_timed_out_attempts(self) -> None:
        if self._cfg.timeout_factor <= 0:
            return
        rt = self._rt
        for node in rt.state.nodes.values():
            # Partitioned nodes are skipped: their attempts are paused (and
            # the heal handler shifts the stint clock by the pause), so an
            # in-partition sweep would kill attempts for time they never had.
            if not node.available or not node.running:
                continue
            for tid in sorted(node.running):
                task = rt.state.tasks[tid]
                if (
                    task.state is not TaskState.RUNNING
                    or task.stint_started_at is None
                ):
                    continue
                elapsed = rt.now - task.stint_started_at
                if elapsed > self._cfg.timeout_factor * max(
                    task.current_expected_busy, EPS
                ):
                    rt.faults.fail_attempt(task, node)

    def _launch_speculations(self) -> None:
        if self._cfg.speculation_threshold <= 0:
            return
        rt = self._rt
        alive = [n for n in rt.state.nodes.values() if n.available]
        if len(alive) < 2:
            return
        mean_rate = sum(n.rate for n in alive) / len(alive)
        cutoff = self._cfg.speculation_threshold * mean_rate
        for node in sorted(alive, key=lambda n: n.node_id):
            if node.rate >= cutoff or not node.running:
                continue
            for tid in sorted(node.running):
                task = rt.state.tasks[tid]
                if task.state is not TaskState.RUNNING or tid in self._specs:
                    continue
                # Copying a nearly-done task cannot pay for its recovery
                # prefix; require at least one epoch of work at mean rate.
                remaining_mi = task.task.size_mi - task.work_done_at(
                    rt.now, node.rate
                )
                if remaining_mi / mean_rate <= rt.sim_config.epoch:
                    continue
                target = self._pick_speculation_target(task, node, alive)
                if target is not None:
                    self._launch_spec(task, node, target)

    def _pick_speculation_target(
        self, task: TaskRuntime, primary: NodeRuntime, alive: list[NodeRuntime]
    ) -> NodeRuntime | None:
        candidates = [
            n
            for n in alive
            if n.node_id != primary.node_id
            and n.node_id not in self._quarantined
            and n.membership == "alive"  # draining nodes take no copies
            and n.fits(task.task.demand)
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda n: (self._health[n.node_id], n.node_id))

    def _launch_spec(
        self, task: TaskRuntime, primary: NodeRuntime, target: NodeRuntime
    ) -> None:
        rt = self._rt
        tid = task.task.task_id
        dsp = rt.dsp_config
        recovery = dsp.recovery_time + dsp.sigma
        if task.task.input_mb > 0 and task.fetched_on != target.node_id:
            transfer = task.task.transfer_time(
                target.node_id, target.spec.bandwidth_capacity
            )
            rt.bus.emit(k.TransferStarted(rt.now, tid, target.node_id, transfer))
            recovery += transfer
        target.allocate(task.task.demand)
        version = self._next_spec_version(tid)
        spec = SpeculativeAttempt(
            task_id=tid,
            node_id=target.node_id,
            started_at=rt.now,
            version=version,
            recovery=recovery,
            work_mi=task.work_done_mi,
            base_work_mi=task.work_done_mi,
        )
        self._specs[tid] = spec
        busy = recovery + (task.task.size_mi - spec.work_mi) / target.rate
        rt.kernel.schedule(rt.now + busy, EventKind.SPEC_FINISH, (tid, version))
        rt.bus.emit(k.SpeculationLaunched(rt.now, tid, target.node_id))
        # A straggling attempt is a badness observation against its node.
        self._observe(primary.node_id, bad=True)

    def _dispatch_retries(self) -> None:
        """Dispatch backoff-expired retries, highest DSP priority first.

        Each eligible retry is re-homed to the healthiest node that can
        hold it right now; tasks that fit nowhere stay queued and fall back
        to the engine's normal dispatch path."""
        rt = self._rt
        now = rt.now
        eligible = [
            task
            for task in rt.state.tasks.values()
            if task.state is TaskState.QUEUED
            and task.attempts > 0
            and task.retry_not_before > 0
            and task.retry_not_before <= now + EPS
            and task.is_runnable
        ]
        if not eligible:
            return
        ranked = self._priority_order(task.task.task_id for task in eligible)
        for tid in ranked:
            task = rt.state.tasks[tid]
            target = self._pick_retry_target(task)
            if target is None:
                continue
            if target.node_id != task.node_id:
                rt.state.nodes[task.node_id].dequeue(tid, task.planned_start)
                task.node_id = target.node_id
                target.enqueue(tid, task.planned_start)
            rt.dispatch.start_task(task, target)

    def _pick_retry_target(self, task: TaskRuntime) -> NodeRuntime | None:
        candidates = [
            n
            for n in self._rt.state.nodes.values()
            if n.available
            and n.node_id not in self._quarantined
            and n.membership == "alive"  # draining nodes take no retries
            and n.fits(task.task.demand)
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda n: (self._health[n.node_id], n.node_id))

    def _priority_order(self, task_ids: Iterable[str]) -> list[str]:
        """Rank *task_ids* by descending DSP priority (Eq. 12–13), scored
        through the engine's array core."""
        ids = list(task_ids)
        scores = self._rt.array.priorities(ids)
        return sorted(ids, key=lambda tid: (-scores[tid], tid))

    # -------------------------------------------------------------- health
    def _observe(self, node_id: str, *, bad: bool) -> None:
        alpha = self._cfg.health_alpha
        score = self._health[node_id] * (1.0 - alpha)
        if bad:
            score += alpha
        self._health[node_id] = score
        if bad:
            self._maybe_quarantine(node_id)

    def _maybe_quarantine(self, node_id: str) -> None:
        if (
            node_id in self._quarantined
            or self._health[node_id] < self._cfg.quarantine_threshold
        ):
            return
        rt = self._rt
        node = rt.state.nodes[node_id]
        healthy = [
            n
            for n in rt.state.nodes.values()
            if n.available
            and n.node_id not in self._quarantined
            and n.node_id != node_id
        ]
        if not healthy:
            return  # never quarantine the last usable node
        self._quarantined[node_id] = rt.now + self._cfg.quarantine_duration
        rt.bus.emit(k.NodeQuarantined(rt.now, node_id))
        # Drain the queued backlog to healthy nodes so it does not sit out
        # the probation; running/stalled work finishes out in place.
        rt.faults.reassign_backlog(node, healthy)
        for n in healthy:
            rt.dispatch.dispatch(n)

    def _next_spec_version(self, task_id: str) -> int:
        version = self._spec_versions.get(task_id, 0) + 1
        self._spec_versions[task_id] = version
        return version
