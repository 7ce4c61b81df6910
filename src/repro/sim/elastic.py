"""Elastic cluster membership: join / drain / decommission lifecycle.

The paper's scheduler assumes a fixed machine set, but its
checkpoint-aware preemption (Eq. 12–13 scoring, the C2 eviction rule) is
exactly the machinery needed to vacate a node *losslessly* — which is
what elastic scale-down requires.  This module adds a first-class
node-lifecycle subsystem on the event kernel:

* **Membership state machine.**  Every node is in one of
  ``JOINING → ALIVE → DRAINING → DECOMMISSIONED``.  JOINING nodes are
  pending specs held inside this subsystem (they are *not* yet in
  ``state.nodes``); a node becomes a member atomically when its join
  delay elapses.  DRAINING nodes remain members (their running work
  still progresses) but are dispatch-gated; DECOMMISSIONED nodes are
  removed from ``state.nodes`` entirely.
* **Two drivers.**  An explicit :class:`MembershipEvent` plan (scripted
  join/leave, JSON round-trippable like chaos plans) and an optional
  load-following :class:`Autoscaler` policy (scale up on sustained
  queue depth, scale down on sustained idleness, with hysteresis and a
  cooldown so chaos bursts don't flap the fleet).
* **Graceful drain.**  Draining is *staged*, not atomic: the queued
  backlog reassigns immediately, then every ``drain_step`` seconds up
  to ``drain_batch`` running tasks are migrated through the engine's
  checkpoint-aware suspension path (``cause="drain"`` — resume from the
  last checkpoint elsewhere, never restart-from-zero unless the policy
  is checkpointless).  The real DRAINING window is what lets chaos kill
  a node *mid-drain*: the :class:`~repro.sim.kernel.NodeFailed` handler
  aborts the drain and the ordinary FAULT path takes over, charging its
  own losses exactly once (drain losses and fault losses are separate
  meters — see :mod:`repro.sim.metrics`).
* **Durability.**  Membership steps are ordinary kernel events with
  string payloads (``plan:<i>`` / ``join:<id>`` / ``drain:<id>:<epoch>``),
  so they journal and snapshot like every other timed event; the
  subsystem's own bookkeeping snapshots through :meth:`snapshot_state`
  and a mid-drain crash resumes byte-identically.

Timestamps, clocks and orderings here are all derived from kernel time
and insertion-ordered dicts — the subsystem is deterministic under
replay by construction.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, Sequence

from .._util import EPS
from ..cluster.cluster import Cluster
from ..cluster.node import NodeSpec
from ..config import ElasticConfig
from ..dag.task import TaskState
from .events import EventKind
from .executor import NodeRuntime
from . import kernel as k
from .state import SimRuntime

__all__ = [
    "MembershipEvent",
    "ElasticSubsystem",
    "normalize_membership_plan",
    "random_membership_plan",
    "membership_plan_to_json",
    "membership_plan_from_json",
]

#: Membership states a :class:`~repro.sim.executor.NodeRuntime` can be in
#: while present in ``state.nodes``.  (JOINING nodes are pending specs
#: inside :class:`ElasticSubsystem`; DECOMMISSIONED nodes are removed.)
ALIVE = "alive"
DRAINING = "draining"
DECOMMISSIONED = "decommissioned"

#: Node-id prefix for autoscaler-spawned nodes — scale-down prefers to
#: retire these before touching the scripted/initial fleet.
_SPAWN_PREFIX = "es-auto-"


@dataclass(frozen=True, slots=True)
class MembershipEvent:
    """One scripted membership change.

    ``action`` is ``"join"`` or ``"drain"``.  For joins the spec fields
    describe the new node (disk/bandwidth take the
    :class:`~repro.cluster.node.NodeSpec` defaults); for drains they are
    ignored.
    """

    time: float
    action: str
    node_id: str
    cpu_size: float = 4.0
    mem_size: float = 8.0
    mips_per_unit: float = 100.0

    def spec(self) -> NodeSpec:
        """The :class:`NodeSpec` a join event materializes."""
        return NodeSpec(
            node_id=self.node_id,
            cpu_size=self.cpu_size,
            mem_size=self.mem_size,
            mips_per_unit=self.mips_per_unit,
        )


def normalize_membership_plan(
    events: Iterable[MembershipEvent], cluster: Cluster
) -> tuple[MembershipEvent, ...]:
    """Validate and canonicalize a membership plan against *cluster*.

    Sorts by ``(time, join-before-drain, node_id)`` and checks, replaying
    the plan sequentially, that joins introduce genuinely new ids and
    drains target nodes present at that point (initial cluster plus
    earlier joins, minus earlier drains).  Raises ``ValueError`` on the
    first violation.
    """
    ordered = sorted(
        events, key=lambda e: (e.time, 0 if e.action == "join" else 1, e.node_id)
    )
    present = {n.node_id for n in cluster}
    for ev in ordered:
        if not (ev.time >= 0.0):
            raise ValueError(f"membership event time must be >= 0, got {ev.time}")
        if ev.action == "join":
            if ev.node_id in present:
                raise ValueError(f"join of already-present node {ev.node_id!r}")
            if ev.cpu_size <= 0 or ev.mem_size <= 0 or ev.mips_per_unit <= 0:
                raise ValueError(f"join of {ev.node_id!r} has non-positive spec")
            present.add(ev.node_id)
        elif ev.action == "drain":
            if ev.node_id not in present:
                raise ValueError(f"drain of absent node {ev.node_id!r}")
            present.discard(ev.node_id)
        else:
            raise ValueError(f"unknown membership action {ev.action!r}")
    return tuple(ordered)


def random_membership_plan(
    cluster: Cluster,
    horizon: float,
    *,
    rng,
    joins: int = 2,
    drains: int = 2,
) -> tuple[MembershipEvent, ...]:
    """Seeded churn generator for soak runs.

    Joins clone the first cluster node's spec under fresh ``es<i>`` ids
    in the first 60% of the horizon; drains target a sample of the
    initial fleet (never the first node, so the cluster cannot empty) in
    the 30–90% window.  Deterministic for a given *rng*.
    """
    base = cluster.nodes[0]
    events: list[MembershipEvent] = []
    for i in range(joins):
        events.append(
            MembershipEvent(
                time=float(rng.uniform(0.1, 0.6)) * horizon,
                action="join",
                node_id=f"es{i}",
                cpu_size=base.cpu_size,
                mem_size=base.mem_size,
                mips_per_unit=base.mips_per_unit,
            )
        )
    pool = [n.node_id for n in cluster.nodes[1:]]
    count = min(drains, len(pool))
    if count:
        picks = rng.choice(len(pool), size=count, replace=False)
        for idx in sorted(int(i) for i in picks):
            events.append(
                MembershipEvent(
                    time=float(rng.uniform(0.3, 0.9)) * horizon,
                    action="drain",
                    node_id=pool[idx],
                )
            )
    return normalize_membership_plan(events, cluster)


def membership_plan_to_json(plan: Iterable[MembershipEvent]) -> list[dict]:
    """Serialize a plan to JSON-safe dicts (inverse of
    :func:`membership_plan_from_json`)."""
    return [dataclasses.asdict(ev) for ev in plan]


def membership_plan_from_json(data: Iterable[dict]) -> tuple[MembershipEvent, ...]:
    """Rebuild a plan from :func:`membership_plan_to_json` output."""
    return tuple(MembershipEvent(**entry) for entry in data)


def _spec_fields(spec: NodeSpec) -> dict:
    return {
        "node_id": spec.node_id,
        "cpu_size": spec.cpu_size,
        "mem_size": spec.mem_size,
        "disk_capacity": spec.disk_capacity,
        "bandwidth_capacity": spec.bandwidth_capacity,
        "mips_per_unit": spec.mips_per_unit,
    }


class ElasticSubsystem:
    """Node-lifecycle coordinator (membership plan + autoscaler).

    Constructed (and attached) by :class:`~repro.sim.engine.SimEngine`
    when a membership plan or an :class:`~repro.config.ElasticConfig`
    is supplied; never used standalone.  Registers a dispatch gate (no
    new work to non-ALIVE nodes) and a progress hold (pending joins,
    active drains and unfired plan events are owed future progress) in
    the engine's extension points, mirroring the resilience layer.
    """

    def __init__(
        self,
        runtime: SimRuntime,
        plan: Sequence[MembershipEvent],
        config: ElasticConfig,
    ) -> None:
        self._rt = runtime
        self._cfg = config
        self._plan = tuple(plan)
        self._plan_remaining = len(self._plan)
        # Autoscaler joins clone the first construction-time node.
        self._base_spec = next(iter(runtime.state.nodes.values())).spec
        self._pending_joins: dict[str, NodeSpec] = {}
        self._drain_started: dict[str, float] = {}
        self._drain_migrated: dict[str, int] = {}
        #: Per-node drain generation — stale drain-step events from an
        #: aborted drain carry an old epoch and no-op.
        self._drain_epoch: dict[str, int] = {}
        self._spawn_counter = 0
        # Autoscaler hysteresis clocks (None = signal not currently held).
        self._last_check = 0.0
        self._above_since: float | None = None
        self._idle_since: float | None = None
        self._last_action: float | None = None

    # -------------------------------------------------------------- wiring
    def attach(self, bus: k.EventBus, kernel: k.Kernel) -> None:
        """Plug into the engine: the MEMBERSHIP timed-event handler, the
        fault-abort subscription, the autoscaler's epoch subscription and
        the dispatch-gate / progress-hold extension points.  Also arms
        the scripted plan (a restore replaces the kernel heap wholesale,
        so these build-time events never double-fire)."""
        kernel.on(EventKind.MEMBERSHIP, self._on_membership)
        bus.subscribe(k.NodeFailed, self._on_node_failed)
        if self._cfg.autoscale:
            bus.subscribe(k.EpochTick, self._on_epoch)
        self._rt.state.dispatch_gates.append(self._drain_gate)
        self._rt.state.progress_holds.append(self._has_pending)
        for i, ev in enumerate(self._plan):
            kernel.schedule(ev.time, EventKind.MEMBERSHIP, f"plan:{i}")

    # ----------------------------------------------------------- inspection
    @property
    def config(self) -> ElasticConfig:
        return self._cfg

    @property
    def plan(self) -> tuple[MembershipEvent, ...]:
        return self._plan

    def draining_nodes(self) -> tuple[str, ...]:
        """Ids of nodes currently mid-drain (insertion order)."""
        return tuple(self._drain_started)

    def pending_join_ids(self) -> tuple[str, ...]:
        """Ids of nodes whose join delay has not yet elapsed."""
        return tuple(self._pending_joins)

    def _drain_gate(self, node_id: str) -> bool:
        """Dispatch gate: block new work to any non-ALIVE node."""
        node = self._rt.state.nodes.get(node_id)
        return node is None or node.membership != ALIVE

    def _has_pending(self, now: float) -> bool:
        """Progress hold: pending joins, active drains and unfired plan
        events all own future kernel events the deadlock detector must
        wait for."""
        return bool(
            self._pending_joins or self._drain_started or self._plan_remaining
        )

    # ---------------------------------------------------- membership events
    def _on_membership(self, payload: str) -> None:
        kind, _, rest = payload.partition(":")
        if kind == "plan":
            self._plan_remaining -= 1
            self._apply_plan_event(self._plan[int(rest)])
        elif kind == "join":
            self._complete_join(rest)
        elif kind == "drain":
            node_id, _, epoch = rest.rpartition(":")
            self._drain_step(node_id, int(epoch))
        else:
            raise ValueError(f"unknown membership payload {payload!r}")

    def _apply_plan_event(self, ev: MembershipEvent) -> None:
        if ev.action == "join":
            self.begin_join(ev.spec(), source="plan")
        else:
            node = self._rt.state.nodes.get(ev.node_id)
            if node is not None:
                self.begin_drain(node, source="plan")

    # ----------------------------------------------------------------- join
    def begin_join(self, spec: NodeSpec, source: str) -> bool:
        """Announce a new node; it becomes a member after
        ``join_delay`` seconds (provisioning/boot time).  Returns False
        when the id collides with a live or already-pending node."""
        rt = self._rt
        node_id = spec.node_id
        if node_id in rt.state.nodes or node_id in self._pending_joins:
            return False
        now = rt.now
        self._pending_joins[node_id] = spec
        rt.bus.emit(k.NodeJoining(now, node_id, source))
        rt.kernel.schedule(
            now + self._cfg.join_delay, EventKind.MEMBERSHIP, f"join:{node_id}"
        )
        return True

    def _complete_join(self, node_id: str) -> None:
        rt = self._rt
        spec = self._pending_joins.pop(node_id, None)
        if spec is None:
            return  # stale event (crash/restore raced the pending set)
        dsp = rt.dsp_config
        node = NodeRuntime(
            spec, spec.processing_rate(dsp.theta_cpu, dsp.theta_mem)
        )
        rt.state.nodes[node_id] = node
        if rt.resilience is not None:
            rt.resilience.add_node(node_id)
        rt.array.add_node(node)
        now = rt.now
        rt.bus.emit(k.NodeJoined(now, node_id))
        # The offline planner only ever targets the construction-time
        # cluster, so a joined node would starve without an explicit
        # rebalance: repeatedly steal the tail of the longest queue.
        moved = self._rebalance_into(node)
        if moved:
            rt.bus.emit(k.BacklogReassigned(now, node_id, moved))
        rt.dispatch.dispatch(node)

    def _rebalance_into(self, node: NodeRuntime) -> int:
        state = self._rt.state
        moved = 0
        while True:
            donors = [
                n
                for n in state.nodes.values()
                if n is not node
                and n.available
                and n.queue_length > node.queue_length + 1
            ]
            if not donors:
                return moved
            donor = max(donors, key=lambda n: (n.queue_length, n.node_id))
            tid = donor.queued_ids(donor.queue_length)[-1]
            task = state.tasks[tid]
            donor.dequeue(tid, task.planned_start)
            task.node_id = node.node_id
            node.enqueue(tid, task.planned_start)
            moved += 1

    # ---------------------------------------------------------------- drain
    def begin_drain(self, node: NodeRuntime, source: str) -> bool:
        """Start a graceful drain of *node*: gate dispatch, reassign the
        queued backlog now, then migrate running work in batches every
        ``drain_step`` seconds.  Refused (returns False) when the node
        is not an ALIVE member or draining it would shrink the ALIVE
        membership below ``min_nodes``."""
        rt = self._rt
        if node.membership != ALIVE:
            return False
        members = sum(
            1 for n in rt.state.nodes.values() if n.membership == ALIVE
        )
        if members <= self._cfg.min_nodes:
            return False
        now = rt.now
        node_id = node.node_id
        node.membership = DRAINING
        self._drain_started[node_id] = now
        self._drain_migrated[node_id] = 0
        epoch = self._drain_epoch.get(node_id, 0) + 1
        self._drain_epoch[node_id] = epoch
        rt.bus.emit(
            k.NodeDraining(
                now, node_id, source, len(node.running), node.queue_length
            )
        )
        self._reassign_from(node)
        rt.kernel.schedule(
            now + self._cfg.drain_step,
            EventKind.MEMBERSHIP,
            f"drain:{node_id}:{epoch}",
        )
        return True

    def _reassign_from(self, node: NodeRuntime) -> None:
        """Move *node*'s queued backlog to ALIVE reachable members and
        kick their dispatch.  No-op when no such target exists — the
        backlog waits in place and the drain times out rather than
        stranding work."""
        rt = self._rt
        if node.queue_length == 0:
            return
        targets = [
            n
            for n in rt.state.nodes.values()
            if n is not node and n.available and n.membership == ALIVE
        ]
        if not targets:
            return
        rt.faults.reassign_backlog(node, targets)
        for target in targets:
            rt.dispatch.dispatch(target)

    def _drain_step(self, node_id: str, epoch: int) -> None:
        rt = self._rt
        cfg = self._cfg
        node = rt.state.nodes.get(node_id)
        if (
            node is None
            or node.membership != DRAINING
            or self._drain_epoch.get(node_id) != epoch
        ):
            return  # drain aborted or superseded since this step was armed
        now = rt.now
        if now - self._drain_started[node_id] + EPS >= cfg.drain_timeout:
            self.abort_drain(node, "timeout")
            return
        if not node.alive:
            return  # the NodeFailed handler already aborted; defensive
        if node.partitioned:
            # Unreachable: cannot migrate until HEAL; keep waiting (the
            # timeout above bounds how long).
            rt.kernel.schedule(
                now + cfg.drain_step,
                EventKind.MEMBERSHIP,
                f"drain:{node_id}:{epoch}",
            )
            return
        if rt.resilience is not None:
            # Speculative copies hold capacity outside node.running;
            # evict them so the node can actually empty.
            rt.resilience.cancel_specs_on(node_id)
        migrated = 0
        for tid in sorted(node.running):
            if migrated >= cfg.drain_batch:
                break
            task = rt.state.tasks.get(tid)
            if task is None or task.state not in (
                TaskState.RUNNING,
                TaskState.STALLED,
            ):
                continue
            rt.preemption.suspend(task, node, cause="drain")
            migrated += 1
        if migrated:
            self._drain_migrated[node_id] += migrated
        self._reassign_from(node)
        if not node.running and node.queue_length == 0:
            self._decommission(node)
        else:
            rt.kernel.schedule(
                now + cfg.drain_step,
                EventKind.MEMBERSHIP,
                f"drain:{node_id}:{epoch}",
            )

    def _decommission(self, node: NodeRuntime) -> None:
        rt = self._rt
        node_id = node.node_id
        now = rt.now
        started = self._drain_started.pop(node_id)
        migrated = self._drain_migrated.pop(node_id, 0)
        node.membership = DECOMMISSIONED
        del rt.state.nodes[node_id]
        rt.views.drop_node(node_id)
        rt.array.remove_node(node_id)
        if rt.resilience is not None:
            rt.resilience.forget_node(node_id)
        rt.bus.emit(k.NodeDecommissioned(now, node_id, now - started, migrated))

    def abort_drain(self, node: NodeRuntime, reason: str) -> None:
        """Cancel an in-flight drain: the node returns to ALIVE (its
        epoch-stamped step events become stale no-ops) and, if reachable,
        resumes dispatching its remaining queue."""
        rt = self._rt
        node_id = node.node_id
        self._drain_started.pop(node_id, None)
        self._drain_migrated.pop(node_id, None)
        node.membership = ALIVE
        rt.bus.emit(k.DrainAborted(rt.now, node_id, reason))
        if node.available:
            rt.dispatch.dispatch(node)

    def _on_node_failed(self, ev: k.NodeFailed) -> None:
        """Chaos killed a node mid-drain: degrade to the ordinary FAULT
        path.  The fault subsystem charges the running tasks' losses as
        failure losses (cause="failure"), so aborting here — before any
        further drain migration — is what keeps lost MI single-counted."""
        node = self._rt.state.nodes.get(ev.node_id)
        if node is not None and node.membership == DRAINING:
            self.abort_drain(node, "fault")

    # ----------------------------------------------------------- autoscaler
    def _on_epoch(self, ev: k.EpochTick) -> None:
        """Load-following policy, throttled to ``check_period``.

        Scale up when mean queued-tasks-per-usable-node has exceeded
        ``scale_up_queue_depth`` for ``scale_up_sustain`` seconds; scale
        down (drain one node) when at least ``scale_down_idle_nodes``
        members have sat completely idle for ``scale_down_sustain``
        seconds.  Both respect ``cooldown`` and the fleet bounds, and
        both stand down while any drain is in flight."""
        cfg = self._cfg
        now = ev.time
        if now - self._last_check + EPS < cfg.check_period:
            return
        self._last_check = now
        if self._drain_started:
            self._above_since = None
            self._idle_since = None
            return
        state = self._rt.state
        members = [n for n in state.nodes.values() if n.membership == ALIVE]
        member_count = len(members) + len(self._pending_joins)
        usable = [n for n in members if n.available]
        cooled = (
            self._last_action is None
            or now - self._last_action + EPS >= cfg.cooldown
        )
        queued = sum(n.queue_length for n in state.nodes.values())
        depth = queued / max(1, len(usable))
        if depth >= cfg.scale_up_queue_depth:
            if self._above_since is None:
                self._above_since = now
            elif (
                now - self._above_since + EPS >= cfg.scale_up_sustain
                and cooled
                and member_count < cfg.max_nodes
            ):
                self._above_since = None
                self._last_action = now
                self.begin_join(self._spawn_spec(), source="autoscaler")
                return
        else:
            self._above_since = None
        idle = [n for n in usable if not n.running and n.queue_length == 0]
        if (
            len(idle) >= cfg.scale_down_idle_nodes
            and member_count > cfg.min_nodes
        ):
            if self._idle_since is None:
                self._idle_since = now
            elif now - self._idle_since + EPS >= cfg.scale_down_sustain and cooled:
                self._idle_since = None
                self._last_action = now
                # Retire autoscaler-spawned nodes first, newest first.
                victim = max(
                    idle,
                    key=lambda n: (n.node_id.startswith(_SPAWN_PREFIX), n.node_id),
                )
                self.begin_drain(victim, source="autoscaler")
        else:
            self._idle_since = None

    def _spawn_spec(self) -> NodeSpec:
        state = self._rt.state
        while True:
            self._spawn_counter += 1
            node_id = f"{_SPAWN_PREFIX}{self._spawn_counter}"
            if node_id not in state.nodes and node_id not in self._pending_joins:
                return dataclasses.replace(self._base_spec, node_id=node_id)

    # ------------------------------------------------- snapshot / restore
    def snapshot_state(self) -> dict:
        """Serializable subsystem state (run snapshot protocol).

        ``nodes`` records the live membership *in iteration order* —
        ``SimState.mean_rate()`` sums in dict order, so the order is
        behavior-affecting and :meth:`reconcile` reproduces it exactly.
        """
        state = self._rt.state
        return {
            "nodes": [
                [nid, node.membership, _spec_fields(node.spec)]
                for nid, node in state.nodes.items()
            ],
            "pending_joins": [
                [nid, _spec_fields(spec)]
                for nid, spec in self._pending_joins.items()
            ],
            "drain_started": dict(self._drain_started),
            "drain_migrated": dict(self._drain_migrated),
            "drain_epoch": dict(self._drain_epoch),
            "plan_remaining": self._plan_remaining,
            "spawn_counter": self._spawn_counter,
            "autoscaler": {
                "last_check": self._last_check,
                "above_since": self._above_since,
                "idle_since": self._idle_since,
                "last_action": self._last_action,
            },
        }

    def reconcile(self, data: dict | None) -> None:
        """Inverse of :meth:`snapshot_state`.

        Rebuilds ``state.nodes`` to the snapshot's exact membership and
        iteration order (creating runtimes for joined nodes, dropping
        decommissioned ones) — it must run *before* the per-node
        runtime-field restore loop so every snapshot entry has a node to
        land on.  Fresh runtimes get placeholder rates; the per-node
        loop overwrites them with the snapshot values.
        """
        if data is None:
            return
        rt = self._rt
        state = rt.state
        dsp = rt.dsp_config
        rebuilt: dict[str, NodeRuntime] = {}
        for nid, membership, fields in data["nodes"]:
            node = state.nodes.get(nid)
            if node is None:
                spec = NodeSpec(**fields)
                node = NodeRuntime(
                    spec, spec.processing_rate(dsp.theta_cpu, dsp.theta_mem)
                )
            node.membership = membership
            rebuilt[nid] = node
        removed = [nid for nid in state.nodes if nid not in rebuilt]
        state.nodes.clear()
        state.nodes.update(rebuilt)
        for nid in removed:
            rt.views.drop_node(nid)
        self._pending_joins = {
            nid: NodeSpec(**fields) for nid, fields in data["pending_joins"]
        }
        self._drain_started = dict(data["drain_started"])
        self._drain_migrated = dict(data["drain_migrated"])
        self._drain_epoch = {
            nid: int(epoch) for nid, epoch in data["drain_epoch"].items()
        }
        self._plan_remaining = int(data["plan_remaining"])
        self._spawn_counter = int(data["spawn_counter"])
        clocks = data["autoscaler"]
        self._last_check = clocks["last_check"]
        self._above_since = clocks["above_since"]
        self._idle_since = clocks["idle_since"]
        self._last_action = clocks["last_action"]
