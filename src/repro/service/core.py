"""The deterministic service core: cycles, group-commit ACKs, recovery.

:class:`ServiceCore` is the synchronous heart the asyncio frontend wraps.
It owns the admission controller, a *streaming* :class:`SimEngine`, the
durable **admission journal**, and service snapshots — and it advances in
discrete **cycles**, each split at its durability point::

    run_cycle():
      1. expire pending submissions past their request deadline
      2. drain a fairness-ordered admission batch from the controller
      3. submit each admitted job into the streaming engine and append
         its admission record to the journal
      4. group-commit: one fsync, THEN resolve the batch's tickets 'ok'
    pump():
      5. pump the engine by at most ServiceConfig.pump_events pops, run
         the cycle hooks, write the periodic snapshot

A driver calls ``run_cycle()`` then ``pump()`` once per cycle; between
the two it may hand the resolved replies to their clients, so an ``ok``
waits for its fsync but not for the cycle's simulation work.  The engine
sees the same sequence either way: admit batch k, pump, admit batch k+1.

Everything is measured on the virtual clock ``cycle × cycle_period`` —
no wall time anywhere — so a workload script replays identically, which
is what makes kill-9 recovery *bit-identical*: the admission journal
records ``(seq, cycle, tenant, arrival, spec)`` per admitted job, the
service snapshot records ``(cycle, admission seq)`` alongside the engine
snapshot, and :meth:`recover` rebuilds by (a) re-registering the
pre-snapshot jobs, (b) overlaying the engine snapshot, then (c) replaying
the post-snapshot admissions cycle-by-cycle with the same pump quanta.
Because the kernel pops in ``(time, seq)`` order and admissions re-enter
at the same pop offsets, the engine journal suffix is rewritten byte
for byte (PR 5's durability contract, now the service's crash story).

**The acknowledgement invariant**: a ``submit_job`` is answered ``ok``
only *after* its admission record is fsynced.  A crash can lose pending
(unacknowledged) submissions — clients see no reply and retry — but
never an acknowledged job.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..cluster.cluster import Cluster
from ..config import ServiceConfig
from ..dag.job import Job
from ..sim.engine import SchedulerLike, SimEngine
from ..sim.journal import JournalWriter, read_journal
from ..sim.kernel import SimulationError, SimulationStuck
from .admission import AdmissionController
from .protocol import ProtocolError, decode_job_spec, job_name, reply

__all__ = ["ServiceCore", "Ticket", "ServiceSnapshotError"]

SERVICE_SNAPSHOT_FORMAT = "repro-service-snapshot"
SERVICE_SNAPSHOT_VERSION = 1
_SNAPSHOT_KEEP = 3


class ServiceSnapshotError(RuntimeError):
    """A service snapshot could not be written or loaded."""


@dataclass
class Ticket:
    """One in-flight ``submit_job``: parked at offer time, resolved at
    admission (``ok``), expiry (``timeout``) or cancellation.

    ``job`` is the spec decoded once at offer time; admission retimes it
    to its arrival, which gives the same floats a fresh decode would.
    """

    tenant: str
    job_id: str  # namespaced engine name
    request: dict
    job: Job
    rel_deadline: float
    reply: dict | None = None
    spec: dict = field(default_factory=dict)


def _admission_record(seq: int, cycle: int, tenant: str, arrival: float, spec: dict) -> str:
    """Render one admission record exactly like json.dumps (the admission
    journal reuses the CRC framing of :mod:`repro.sim.journal`)."""
    return json.dumps(
        {"r": "adm", "n": seq, "c": cycle, "t": tenant, "a": arrival, "j": spec},
        separators=(",", ":"),
    )


class ServiceCore:
    """Synchronous multi-tenant scheduler service around a streaming engine.

    Parameters
    ----------
    cluster, scheduler:
        The hardware and the offline scheduler, exactly as for
        :class:`~repro.sim.engine.SimEngine`.  The scheduler must support
        the snapshot protocol (``snapshot_state``/``restore_state``) for
        durable operation.
    config:
        The :class:`~repro.config.ServiceConfig` knob set.
    data_dir:
        Durability root: ``admissions.jsonl`` (the admission journal),
        ``engine.jsonl`` (the engine's write-ahead journal) and
        ``snapshots/`` live here.  ``None`` runs ephemeral — no journals,
        no snapshots, no crash recovery (unit tests, overload drills).
    engine_kwargs:
        Extra :class:`SimEngine` construction arguments (``dsp_config``,
        ``sim_config``, ``preemption``, ``resilience``, ``faults``, …),
        passed through verbatim — and required to be identical on
        :meth:`recover` (enforced by the engine snapshot fingerprint).
    """

    def __init__(
        self,
        cluster: Cluster,
        scheduler: SchedulerLike,
        config: ServiceConfig | None = None,
        *,
        data_dir: str | os.PathLike | None = None,
        engine_kwargs: dict | None = None,
        _engine: SimEngine | None = None,
        _cycle: int = 0,
        _adm_seq: int = 0,
        _adm_writer: JournalWriter | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self._cluster = cluster
        self._scheduler = scheduler
        self._engine_kwargs = dict(engine_kwargs or {})
        self._data_dir = Path(data_dir) if data_dir is not None else None
        self.cycle = _cycle
        self._adm_seq = _adm_seq
        self.controller = AdmissionController(self.config, now=self.now)
        self.draining = False
        self.closed = False
        self._tickets: dict[str, Ticket] = {}  # namespaced job id -> ticket
        self.pops_total = 0
        #: Post-crash observers for tests (e.g. crash injection hooks).
        self.cycle_hooks: list[Callable[[int], None]] = []

        if _engine is not None:
            self.engine = _engine
            self._adm_writer = _adm_writer
            return
        if self._data_dir is not None:
            self._data_dir.mkdir(parents=True, exist_ok=True)
            self._engine_kwargs.setdefault(
                "journal", self._data_dir / "engine.jsonl"
            )
            self._adm_writer = JournalWriter(
                self._data_dir / "admissions.jsonl", fsync_every=1_000_000
            )
        else:
            self._adm_writer = None
        self.engine = SimEngine(
            cluster, [], scheduler, streaming=True, **self._engine_kwargs
        )

    # ------------------------------------------------------------ clock
    @property
    def now(self) -> float:
        """The virtual service clock (cycle boundaries only)."""
        return self.cycle * self.config.cycle_period

    # ---------------------------------------------------------- requests
    def submit(self, request: dict) -> Ticket | dict:
        """Gate one ``submit_job``.  Returns a resolved reply dict for
        immediate verdicts (shed/retry/rejected) or a :class:`Ticket`
        whose reply arrives at a later cycle."""
        tenant = request.get("tenant")
        if not isinstance(tenant, str) or not tenant or "/" in tenant:
            return reply(request, "rejected", error="invalid tenant name")
        if self.draining or self.closed:
            return reply(request, "rejected", error="server is draining")
        try:
            job, rel_deadline = decode_job_spec(
                tenant, request.get("job"), arrival=self.now
            )
        except ProtocolError as exc:
            self.controller.tenant(tenant).rejected += 1
            return reply(request, "rejected", error=str(exc))
        full_id = job.job_id
        if full_id in self.engine.runtime.state.jobs or full_id in self._tickets:
            self.controller.tenant(tenant).rejected += 1
            return reply(
                request, "rejected",
                error=f"duplicate job id {request['job']['job_id']!r}",
            )
        verdict, retry_after = self.controller.offer(
            tenant, full_id, None, self.now
        )
        if verdict in ("shed", "retry"):
            return reply(request, verdict, retry_after=retry_after)
        ticket = Ticket(
            tenant=tenant, job_id=full_id, request=request,
            job=job, rel_deadline=rel_deadline, spec=dict(request["job"]),
        )
        self.controller.find(tenant, full_id).payload = ticket
        self._tickets[full_id] = ticket
        return ticket

    def cancel(self, request: dict) -> dict:
        """Cancel a *pending* (not yet admitted) submission."""
        tenant = request.get("tenant", "")
        job_id = request.get("job_id", "")
        full_id = job_name(tenant, job_id)
        entry = self.controller.cancel(tenant, full_id)
        if entry is not None:
            ticket = self._tickets.pop(full_id, None)
            if ticket is not None:
                ticket.reply = reply(
                    ticket.request, "rejected", error="cancelled"
                )
            return reply(request, "ok", job_id=job_id, state="cancelled")
        if full_id in self.engine.runtime.state.jobs:
            return reply(
                request, "rejected",
                error=f"job {job_id!r} is already admitted and cannot be cancelled",
            )
        return reply(request, "rejected", error=f"unknown job {job_id!r}")

    def status(self, request: dict) -> dict:
        """Job or server status — answered from live state, never queued,
        never shed (the degradation guarantee)."""
        tenant = request.get("tenant", "")
        job_id = request.get("job_id")
        if job_id is None:
            state = self.engine.runtime.state
            return reply(
                request, "ok",
                cycle=self.cycle, now=self.now,
                draining=self.draining,
                pending=self.controller.total_pending,
                jobs=len(state.jobs),
                tasks_done=state.completed_tasks,
                tasks_total=len(state.tasks),
            )
        full_id = job_name(tenant, job_id)
        if self.controller.find(tenant, full_id) is not None:
            return reply(request, "ok", job_id=job_id, state="pending")
        state = self.engine.runtime.state
        if full_id in state.jobs:
            remaining = state.job_remaining.get(full_id, 0)
            job_state = "completed" if remaining == 0 else "running"
            return reply(
                request, "ok", job_id=job_id, state=job_state,
                tasks_remaining=remaining,
                tasks_total=len(state.jobs[full_id].tasks),
            )
        return reply(request, "ok", job_id=job_id, state="unknown")

    def stats(self, request: dict | None = None) -> dict:
        """Server-wide counters: admission accounting plus engine progress."""
        state = self.engine.runtime.state
        body = {
            "cycle": self.cycle,
            "now": self.now,
            "draining": self.draining,
            "admission": self.controller.stats(),
            "engine": {
                "sim_time": self.engine.now,
                "pops": self.engine.runtime.kernel.pops,
                "jobs": len(state.jobs),
                "tasks_done": state.completed_tasks,
                "tasks_total": len(state.tasks),
            },
        }
        return reply(request or {}, "ok", **body)

    # ------------------------------------------------------------- cycles
    def run_cycle(self) -> list[Ticket]:
        """Advance one service cycle up to its group commit (steps 1–4 of
        the module docstring); returns the tickets resolved this cycle
        (acknowledged, timed out, rejected).  :meth:`pump` finishes it."""
        if self.closed:
            raise SimulationError("service core is closed")
        self.cycle += 1
        now = self.now
        resolved: list[Ticket] = []

        # 1. Per-request deadlines.
        for _state, entry in self.controller.expire(now):
            ticket = entry.payload
            if ticket is not None:
                ticket.reply = reply(ticket.request, "timeout")
                self._tickets.pop(ticket.job_id, None)
                resolved.append(ticket)

        # 2–3. Admission batch, journaled.
        batch = self.controller.drain(self.config.admission_per_cycle)
        acked: list[Ticket] = []
        for state, entry in batch:
            ticket: Ticket = entry.payload
            arrival = max(now, self.engine.now)
            try:
                job = ticket.job.retimed(arrival, arrival + ticket.rel_deadline)
                self.engine.submit_job(job)
            except (ValueError, SimulationStuck) as exc:
                state.admitted -= 1
                state.rejected += 1
                ticket.reply = reply(ticket.request, "rejected", error=str(exc))
                self._tickets.pop(ticket.job_id, None)
                resolved.append(ticket)
                continue
            self._adm_seq += 1
            if self._adm_writer is not None:
                self._adm_writer.append_text(
                    _admission_record(
                        self._adm_seq, self.cycle, state.name, arrival,
                        ticket.spec,
                    )
                )
            acked.append(ticket)

        # 4. Group commit: fsync once, then acknowledge.
        if acked and self._adm_writer is not None:
            self._adm_writer.flush()
        for ticket in acked:
            ticket.reply = reply(
                ticket.request, "ok",
                job_id=ticket.spec.get("job_id"), cycle=self.cycle,
            )
            self._tickets.pop(ticket.job_id, None)
            resolved.append(ticket)
        return resolved

    def pump(self) -> int:
        """Finish the cycle :meth:`run_cycle` opened (step 5): pump the
        engine, run the cycle hooks, write the periodic snapshot.  Returns
        the number of events popped."""
        pops = self.engine.pump(self.config.pump_events)
        self.pops_total += pops

        for hook in self.cycle_hooks:
            hook(self.cycle)

        every = self.config.snapshot_every_cycles
        if every and self.cycle % every == 0 and self._data_dir is not None:
            self.write_snapshot()
        return pops

    # ------------------------------------------------------------ durability
    def write_snapshot(self) -> Path:
        """Write a rotated service snapshot (engine snapshot + service
        counters) at the current cycle boundary."""
        if self._data_dir is None:
            raise ServiceSnapshotError("service has no data_dir (ephemeral mode)")
        if self._adm_writer is not None:
            self._adm_writer.flush()
        data = {
            "format": SERVICE_SNAPSHOT_FORMAT,
            "version": SERVICE_SNAPSHOT_VERSION,
            "service": {
                "cycle": self.cycle,
                "adm_seq": self._adm_seq,
                "pops_total": self.pops_total,
            },
            "engine": self.engine.snapshot(),
        }
        snap_dir = self._data_dir / "snapshots"
        snap_dir.mkdir(parents=True, exist_ok=True)
        path = snap_dir / f"service-{self.cycle:08d}.json"
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        existing = sorted(snap_dir.glob("service-*.json"))
        for old in existing[:-_SNAPSHOT_KEEP]:
            old.unlink()
        return path

    def drain(self) -> dict:
        """Graceful shutdown: refuse new work, reject what is still
        pending, run the admitted backlog to completion, snapshot, and
        flush/close every journal.  Returns the final stats body."""
        self.draining = True
        # Unadmitted submissions are not acknowledged — refuse them now so
        # clients retry elsewhere rather than waiting on a dying server.
        for _state, entry in list(self.controller.iter_pending()):
            ticket = entry.payload
            self.controller.cancel(_state.name, entry.job_id)
            if ticket is not None:
                ticket.reply = reply(
                    ticket.request, "rejected", error="server is draining"
                )
                self._tickets.pop(ticket.job_id, None)
        state = self.engine.runtime.state
        while not state.all_done():
            if self.engine.pump(self.config.pump_events) == 0:
                break  # heap drained with work stuck — surfaced via stats
            self.cycle += 1
        stats = self.stats()
        if self._data_dir is not None:
            self.write_snapshot()
        self.close()
        return stats

    def close(self) -> None:
        """Flush and close the journals (idempotent)."""
        if self.closed:
            return
        self.closed = True
        if self.engine.journal is not None:
            self.engine.journal.close()
        if self._adm_writer is not None:
            self._adm_writer.close()

    # -------------------------------------------------------------- recovery
    @classmethod
    def recover(
        cls,
        cluster: Cluster,
        scheduler: SchedulerLike,
        config: ServiceConfig | None = None,
        *,
        data_dir: str | os.PathLike,
        engine_kwargs: dict | None = None,
    ) -> "ServiceCore":
        """Rebuild a killed service from its data directory.

        Loads the newest valid service snapshot (none is fine — replay
        starts from an empty engine), re-registers the pre-snapshot
        admissions, overlays the engine snapshot, then replays every
        post-snapshot admission cycle-by-cycle with the configured pump
        quantum — reproducing the exact event sequence, so the engine
        journal's suffix is rewritten byte-identically.  Admissions whose
        records were acknowledged are always recovered; a torn admission
        journal tail can only hold unacknowledged records.
        """
        config = config or ServiceConfig()
        data_dir = Path(data_dir)
        engine_kwargs = dict(engine_kwargs or {})
        engine_journal = engine_kwargs.pop("journal", data_dir / "engine.jsonl")
        adm_path = data_dir / "admissions.jsonl"

        records: list[dict] = []
        valid_bytes = 0
        if adm_path.exists():
            raw, valid_bytes = read_journal(adm_path)
            records = [r for r in raw if r.get("r") == "adm"]

        snapshot = _latest_service_snapshot(data_dir / "snapshots")
        if snapshot is not None:
            svc = snapshot["service"]
            base_cycle, base_seq = svc["cycle"], svc["adm_seq"]
            pre = [r for r in records if r["n"] <= base_seq]
            post = [r for r in records if r["n"] > base_seq]
            jobs = [_record_job(r) for r in pre]
            engine = SimEngine.restore(
                snapshot["engine"], cluster, jobs, scheduler,
                streaming=True, journal=engine_journal, **engine_kwargs,
            )
        else:
            base_cycle, base_seq = 0, 0
            post = records
            svc = {"pops_total": 0}
            engine = SimEngine(
                cluster, [], scheduler, streaming=True,
                journal=engine_journal, **engine_kwargs,
            )

        core = cls(
            cluster, scheduler, config,
            data_dir=data_dir, engine_kwargs=engine_kwargs,
            _engine=engine, _cycle=base_cycle, _adm_seq=base_seq,
            _adm_writer=JournalWriter(
                adm_path, fsync_every=1_000_000, truncate_at=valid_bytes
            ),
        )
        core.pops_total = svc.get("pops_total", 0)

        # Replay the acknowledged suffix with the original cycle structure:
        # every cycle from the snapshot to the last journaled admission is
        # re-run — including admission-free ones, whose pump quanta shaped
        # the event sequence too.
        if post:
            by_cycle: dict[int, list[dict]] = {}
            for record in post:
                by_cycle.setdefault(record["c"], []).append(record)
            last_cycle = max(by_cycle)
            for k in range(base_cycle + 1, last_cycle + 1):
                for record in by_cycle.get(k, ()):
                    engine.submit_job(_record_job(record))
                    core._adm_seq = record["n"]
                core.pops_total += engine.pump(config.pump_events)
            core.cycle = last_cycle
        return core


def _record_job(record: dict) -> Job:
    """Rebuild the engine Job from one admission record (the recorded
    arrival pins the absolute deadline exactly)."""
    job, _ = decode_job_spec(record["t"], record["j"], arrival=record["a"])
    return job


def _latest_service_snapshot(snap_dir: Path) -> dict | None:
    """Newest loadable service snapshot, skipping torn/corrupt files."""
    if not snap_dir.is_dir():
        return None
    for path in sorted(snap_dir.glob("service-*.json"), reverse=True):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            continue  # torn write — fall back to the previous snapshot
        if (
            isinstance(data, dict)
            and data.get("format") == SERVICE_SNAPSHOT_FORMAT
            and data.get("version") == SERVICE_SNAPSHOT_VERSION
            and "service" in data
            and "engine" in data
        ):
            return data
    return None
