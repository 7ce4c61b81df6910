"""Versioned, pickle-free snapshots of a complete live simulation run.

A snapshot captures everything a crashed run needs to continue
*bit-identically*: the kernel clock, the timed-event heap and its
insertion sequence, every mutable :class:`~repro.sim.executor.TaskRuntime`
/ :class:`~repro.sim.executor.NodeRuntime` field, the
:class:`~repro.sim.state.SimState` counters, metrics accumulators, the
trace log, the resilience layer (health EWMA, quarantine windows,
in-flight speculative copies), the invariant checker's shadow state, and
the offline scheduler's cross-round lane timelines.  Open chaos windows
and the fault-plan cursor need no dedicated cursor: pending FAULT events
live in the heap and applied ones live in node/task state, both of which
are captured.

Deliberately **not** serialized:

* the :class:`~repro.sim.arraycore.ArrayCore` mirror — every column is
  a copy of restored object state, so restore rebuilds it from scratch
  and *asserts* the rebuild against an independent derivation
  (:meth:`~repro.sim.arraycore.ArrayCore.rebuild_and_assert`); only its
  observability counters round-trip;
* RNG streams — none exist mid-run by construction: fault plans are
  pre-compiled before the engine starts and every subsystem/policy is
  deterministic, which :func:`snapshot_engine` relies on (grep for
  ``random``/``default_rng`` under ``repro/sim`` stays empty).

Format: pure JSON (``json.dumps`` of plain dicts/lists/scalars — no
pickle anywhere), with a ``format``/``version`` header.  Loading a
future or unknown version raises :class:`SnapshotVersionError` loudly;
a corrupt file raises; :func:`latest_valid_snapshot` skips corrupt
rotated files but still refuses unknown versions.  Files are written
atomically (tmp + ``os.replace``) so a crash mid-write can never
destroy the previous snapshot — the injectable ``io_fault`` hook lets
the soak harness prove that.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from ..cluster.resources import ResourceVector
from ..dag.task import TaskState
from .events import Event, EventKind
from .executor import TaskRuntime
from .journal import decode_payload, encode_payload
from .kernel import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import SnapshotConfig
    from .engine import SimEngine

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "SnapshotError",
    "SnapshotVersionError",
    "SimulatedCrash",
    "SnapshotManager",
    "snapshot_engine",
    "restore_into",
    "write_snapshot",
    "load_snapshot",
    "latest_valid_snapshot",
    "inject_crash",
]

SNAPSHOT_FORMAT = "repro-run-snapshot"
SNAPSHOT_VERSION = 1

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{8})\.json$")

#: Mutable TaskRuntime fields (everything but the static ``task``).
_TASK_FIELDS = tuple(
    f.name for f in dataclasses.fields(TaskRuntime) if f.name not in ("task", "state")
)


class SnapshotError(SimulationError):
    """A snapshot could not be taken, written, or restored."""


class SnapshotVersionError(SnapshotError):
    """The snapshot's format/version is unknown (e.g. written by a newer
    code revision) — refused loudly rather than misinterpreted."""


class SimulatedCrash(RuntimeError):
    """Raised by :func:`inject_crash` to kill a run at a chosen event
    (the soak harness's stand-in for SIGKILL)."""


# ------------------------------------------------------------------- capture
def _fingerprint(engine: "SimEngine") -> dict:
    """Workload/wiring identity used to reject restores into a
    differently-constructed engine."""
    rt = engine.runtime
    state = rt.state
    return {
        "jobs": [[jid, len(job.tasks)] for jid, job in state.jobs.items()],
        # The construction-time node set: the live set churns under
        # elastic membership, but restore targets are always built from
        # the original cluster (reconcile then replays the churn).
        "nodes": list(getattr(engine, "_initial_node_ids", ()) or state.nodes),
        "elastic": getattr(engine, "elastic", None) is not None,
        "scheduler": type(rt.scheduler).__name__,
        # The registry label, not the class: DSP and DSPW/oPP share one.
        "policy": getattr(rt.policy, "name", type(rt.policy).__name__),
        "dependency_aware": rt.dependency_aware,
        "max_preemptions": rt.max_preemptions,
        "stall_timeout": rt.stall_timeout,
        "resilience": rt.resilience is not None,
        "trace": rt.trace is not None,
        "invariants": rt.sim_config.invariants,
        "collect_samples": rt.sim_config.collect_task_samples,
        "streaming": getattr(engine, "_streaming", False),
        "retire": rt.sim_config.retire_completed,
    }


def _encode_event(ev: Event) -> list:
    return [ev.time, ev.seq, ev.kind.value, encode_payload(ev.payload)]


def _decode_event(data: list) -> Event:
    time, seq, kind, payload = data
    return Event(
        time=time, seq=seq, kind=EventKind(kind), payload=decode_payload(payload)
    )


def snapshot_engine(engine: "SimEngine") -> dict:
    """Serialize *engine*'s complete live run state to a pure-JSON dict.

    Must be called at a *settled* point — between timed events, never
    from inside a handler (the engine's automatic cadence uses a kernel
    settle observer, which guarantees this).
    """
    rt = engine.runtime
    state = rt.state
    kernel = rt.kernel

    if rt.dispatch is not None and rt.dispatch._wakes:
        raise SnapshotError(
            "snapshot requested mid-handler: pending dispatch wakes "
            f"{sorted(rt.dispatch._wakes)} (snapshots are only valid at "
            "settled points between timed events)"
        )

    scheduler_state = None
    snap = getattr(rt.scheduler, "snapshot_state", None)
    if callable(snap):
        scheduler_state = snap()
    elif len(state.arrived) < len(state.jobs) or state.unscheduled:
        raise SnapshotError(
            f"scheduler {type(rt.scheduler).__name__} has no "
            "snapshot_state()/restore_state() protocol but future "
            "scheduling rounds remain — its cross-round state would be lost"
        )

    tasks = {}
    for tid, trt in state.tasks.items():
        entry = {name: getattr(trt, name) for name in _TASK_FIELDS}
        entry["state"] = trt.state.value
        tasks[tid] = entry

    nodes = {}
    for nid, node in state.nodes.items():
        free = node.free
        nodes[nid] = {
            "rate": node.rate,
            "base_rate": node.base_rate,
            "alive": node.alive,
            "partitioned": node.partitioned,
            "partitioned_at": node.partitioned_at,
            "free": [free.cpu, free.mem, free.disk, free.bandwidth],
            # Set iteration order is never observable (all consumers
            # sort), so the sorted list is a canonical form.
            "running": sorted(node.running),
            "queue": [[ps, tid] for ps, tid in node._queue],
        }

    journal = getattr(engine, "_journal", None)
    if journal is not None:
        journal.flush()

    data = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "fingerprint": _fingerprint(engine),
        "kernel": {
            "now": kernel.now,
            "pops": kernel.pops,
            "next_seq": kernel.queue.next_seq,
            "heap": [_encode_event(ev) for ev in kernel.queue.entries()],
            "last_event": (
                _encode_event(kernel.last_event)
                if kernel.last_event is not None
                else None
            ),
        },
        "state": {
            "job_remaining": dict(state.job_remaining),
            "unscheduled": list(state.unscheduled),
            "arrived": sorted(state.arrived),
            "completed_tasks": state.completed_tasks,
            "pending_faults": state.pending_faults,
            "epoch_scheduled": state.epoch_scheduled,
            "dispatched_this_tick": state.dispatched_this_tick,
            "retired_jobs": state.retired_jobs,
            "retired_tasks": state.retired_tasks,
        },
        "tasks": tasks,
        "nodes": nodes,
        "metrics": rt.metrics.snapshot_state(),
        "trace": rt.trace.snapshot_state() if rt.trace is not None else None,
        "resilience": (
            rt.resilience.snapshot_state() if rt.resilience is not None else None
        ),
        "elastic": (
            engine.elastic.snapshot_state()
            if getattr(engine, "elastic", None) is not None
            else None
        ),
        "invariants": (
            rt.invariants.snapshot_state() if rt.invariants is not None else None
        ),
        "scheduler": scheduler_state,
        "index_counters": {
            "hits": rt.array.hits,
            "misses": rt.array.misses,
            "invalidations": rt.array.invalidations,
            "clears": rt.array.clears,
        },
        "journal_offset": journal.offset if journal is not None else None,
    }
    if getattr(engine, "_streaming", False):
        # The live window of a streaming run exists nowhere outside the
        # engine once retirement evicts completed jobs — embed it so
        # restore can resubmit it in the original admission order.
        from ..dag.codec import job_to_dict

        data["jobs_spec"] = [job_to_dict(job) for job in state.jobs.values()]
    retirement = getattr(engine, "retirement", None)
    if retirement is not None:
        data["retire"] = retirement.snapshot_state()
    provider = getattr(engine, "frontier_provider", None)
    if provider is not None:
        data["frontier"] = provider()
    return data


# ------------------------------------------------------------------- restore
def check_version(data: dict, source: str = "snapshot") -> None:
    """Refuse anything but the exact known format/version."""
    if not isinstance(data, dict) or data.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotVersionError(
            f"{source} is not a {SNAPSHOT_FORMAT} document "
            f"(format={data.get('format')!r} if data else missing)"
            if isinstance(data, dict)
            else f"{source} is not a snapshot document"
        )
    version = data.get("version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotVersionError(
            f"{source} has version {version!r}; this build reads only "
            f"version {SNAPSHOT_VERSION} — refusing to guess"
        )


def restore_into(engine: "SimEngine", data: dict) -> None:
    """Overlay snapshot *data* onto a freshly constructed *engine*.

    The engine must have been built with the same cluster, jobs, configs
    and wiring options as the one that took the snapshot (checked via
    the stored fingerprint) and must not have run yet.
    """
    check_version(data)
    rt = engine.runtime
    state = rt.state
    kernel = rt.kernel

    if kernel.pops != 0:
        raise SnapshotError("restore target must be a fresh, unrun engine")
    expected = _fingerprint(engine)
    if data["fingerprint"] != expected:
        diffs = [
            key
            for key in expected
            if data["fingerprint"].get(key) != expected[key]
        ]
        raise SnapshotError(
            f"snapshot fingerprint mismatch on {diffs}: the engine must be "
            "reconstructed with the same workload, cluster and wiring options"
        )

    # Kernel: clock, pop counter, heap and insertion sequence.
    ker = data["kernel"]
    kernel.now = ker["now"]
    kernel.pops = ker["pops"]
    kernel.queue.restore(
        [_decode_event(e) for e in ker["heap"]], ker["next_seq"]
    )
    kernel.last_event = (
        _decode_event(ker["last_event"]) if ker["last_event"] is not None else None
    )

    # World state counters.
    st = data["state"]
    for jid, remaining in st["job_remaining"].items():
        state.job_remaining[jid] = remaining
    state.unscheduled = list(st["unscheduled"])
    state.arrived = set(st["arrived"])
    state.completed_tasks = st["completed_tasks"]
    state.pending_faults = st["pending_faults"]
    state.epoch_scheduled = st["epoch_scheduled"]
    state.dispatched_this_tick = st["dispatched_this_tick"]
    state.retired_jobs = st.get("retired_jobs", 0)
    state.retired_tasks = st.get("retired_tasks", 0)

    # Task runtimes (static Task objects stay from build_state).
    for tid, entry in data["tasks"].items():
        trt = state.tasks[tid]
        for name in _TASK_FIELDS:
            setattr(trt, name, entry[name])
        trt.state = TaskState(entry["state"])

    # Elastic membership: rebuild the live node set first (joins and
    # decommissions since construction permute/extend/shrink the node
    # dict, and the per-node overwrite below indexes the *captured* set).
    if getattr(engine, "elastic", None) is not None:
        engine.elastic.reconcile(data.get("elastic"))

    # Node runtimes.
    for nid, entry in data["nodes"].items():
        node = state.nodes[nid]
        node.rate = entry["rate"]
        node.base_rate = entry["base_rate"]
        node.alive = entry["alive"]
        node.partitioned = entry["partitioned"]
        node.partitioned_at = entry["partitioned_at"]
        node.free = ResourceVector(*entry["free"])
        node.running = set(entry["running"])
        node._queue = [(ps, tid) for ps, tid in entry["queue"]]

    # Subsystem accumulators.
    retirement = getattr(engine, "retirement", None)
    if retirement is not None:
        retirement.restore_state(data.get("retire"))
    rt.metrics.restore_state(data["metrics"])
    if rt.trace is not None:
        rt.trace.restore_state(data["trace"])
    if rt.resilience is not None:
        rt.resilience.restore_state(data["resilience"])
    if rt.invariants is not None:
        rt.invariants.restore_state(data["invariants"])

    if data["scheduler"] is not None:
        restore = getattr(rt.scheduler, "restore_state", None)
        if not callable(restore):
            raise SnapshotError(
                f"snapshot carries scheduler state but "
                f"{type(rt.scheduler).__name__} has no restore_state()"
            )
        restore(data["scheduler"])

    # Array core: rebuilt from the restored objects, not serialized —
    # then asserted equivalent.
    rt.array.rebuild_and_assert()
    counters = data["index_counters"]
    rt.array.hits = counters["hits"]
    rt.array.misses = counters["misses"]
    rt.array.invalidations = counters["invalidations"]
    rt.array.clears = counters["clears"]

    engine._restored = True


# --------------------------------------------------------------------- files
def write_snapshot(
    path: str | os.PathLike,
    data: dict,
    *,
    io_fault: Callable[[], None] | None = None,
) -> None:
    """Atomically write *data* as JSON: tmp file + ``os.replace``, so a
    crash mid-write leaves the previous file untouched.  *io_fault* (a
    callable raising mid-write) injects exactly that crash for tests."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data))
        if io_fault is not None:
            io_fault()
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load_snapshot(path: str | os.PathLike) -> dict:
    """Read and version-check one snapshot file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise SnapshotError(f"corrupt snapshot {path}: {exc}") from exc
    check_version(data, source=str(path))
    return data


def latest_valid_snapshot(directory: str | os.PathLike) -> tuple[Path, dict] | None:
    """Newest loadable rotated snapshot in *directory*, or None.

    Corrupt files (torn writes that somehow bypassed the atomic rename,
    truncation, bad JSON) are skipped; an unknown/future *version* still
    raises — that is an operator error, not a crash artifact.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return None
    candidates = sorted(
        (p for p in directory.iterdir() if _SNAPSHOT_RE.match(p.name)),
        reverse=True,
    )
    for path in candidates:
        try:
            return path, load_snapshot(path)
        except SnapshotVersionError:
            raise
        except SnapshotError:
            continue
    return None


# ------------------------------------------------------------------- manager
class SnapshotManager:
    """Automatic rotated snapshotting, driven by a kernel settle observer.

    Constructed by the engine from a
    :class:`~repro.config.SnapshotConfig`; files are named by the pop
    count at capture (``snapshot-00001234.json``), which stays monotone
    across resumes, and the oldest beyond ``keep`` are deleted.
    """

    def __init__(self, engine: "SimEngine", config: "SnapshotConfig") -> None:
        self._engine = engine
        self._cfg = config
        self._dir = Path(config.directory)
        self._last_pops = 0
        self._last_time = 0.0
        self.written = 0  # snapshots taken (observability)
        #: Test hook: called mid-write of the *next* snapshot file, then
        #: cleared (see :func:`write_snapshot`).
        self.io_fault: Callable[[], None] | None = None
        engine.runtime.kernel.settle_observers.append(self._on_settle)

    @property
    def directory(self) -> Path:
        return self._dir

    def resume_baseline(self, pops: int, now: float) -> None:
        """Reset the cadence counters after a restore."""
        self._last_pops = pops
        self._last_time = now

    def _on_settle(self, _event) -> None:
        kernel = self._engine.runtime.kernel
        due = (
            self._cfg.every_events > 0
            and kernel.pops - self._last_pops >= self._cfg.every_events
        ) or (
            self._cfg.every_sim_seconds > 0
            and kernel.now - self._last_time >= self._cfg.every_sim_seconds
        )
        if due:
            self.take()

    def take(self) -> Path:
        """Snapshot now, rotate, and return the written path."""
        kernel = self._engine.runtime.kernel
        data = snapshot_engine(self._engine)
        path = self._dir / f"snapshot-{kernel.pops:08d}.json"
        io_fault, self.io_fault = self.io_fault, None
        write_snapshot(path, data, io_fault=io_fault)
        self.written += 1
        self._last_pops = kernel.pops
        self._last_time = kernel.now
        self._rotate()
        return path

    def _rotate(self) -> None:
        rotated = sorted(
            p for p in self._dir.iterdir() if _SNAPSHOT_RE.match(p.name)
        )
        for stale in rotated[: -self._cfg.keep]:
            stale.unlink()


# ------------------------------------------------------------ crash injection
def inject_crash(engine: "SimEngine", at_pop: int) -> None:
    """Arm a :class:`SimulatedCrash` on pop number *at_pop* (1-based).

    Installed as a kernel pop observer *after* the journal's, so the
    in-flight event's write-ahead record exists when the crash fires —
    exactly the state a real kill leaves behind.
    """
    kernel = engine.runtime.kernel

    def crash(_event) -> None:
        if kernel.pops >= at_pop:
            raise SimulatedCrash(
                f"injected crash at event pop {kernel.pops} ({kernel.position()})"
            )

    kernel.pop_observers.append(crash)
