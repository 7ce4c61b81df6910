"""Bounded-memory streaming replay: lazy admission, completed-job
retirement, and memory-pressure degradation.

A batch :class:`~repro.sim.engine.SimEngine` run materializes its whole
workload up front and keeps every finished task's state until the end —
fine for the reproduced figures, fatal for replaying a production-scale
trace.  This module closes the loop at both ends so a million-task
replay holds only its *live window*:

* :class:`RetirementManager` — evicts a job's state end-to-end once its
  last task finishes: :class:`~repro.sim.state.SimState` maps, the view
  cache, the array core, the resilience layer, the invariant shadow
  and the per-task metrics (folded into compact per-job aggregates by
  :meth:`~repro.sim.metrics.MetricsCollector.retire_job`).  Retirement
  is deferred to the kernel's *settle point*: completion handlers and
  bus subscribers (dispatch's child walk, the array core's row
  retirement) still index the finished job's state after the
  ``TaskFinished`` emit, so evicting inside the emit would corrupt the
  very event being handled.  Deferral keeps eviction deterministic in
  event order — a journal replay retires identically.
* :class:`SyntheticSource` / :class:`TraceSource` — workload sources
  that yield one :class:`~repro.dag.job.Job` at a time.  The synthetic
  source replicates :func:`~repro.trace.workload.build_workload`'s RNG
  draw order exactly (same jobs, bit-for-bit) and snapshots its PCG64
  state for O(1) resume; the trace source streams a ``task_events`` CSV
  through :func:`~repro.trace.google_reader.iter_task_events`, grouping
  job-contiguous rows, and snapshots the byte offset of the next
  unread job group.
* :class:`MemoryWatchdog` + :class:`StreamingFrontier` — the driver.
  The frontier admits jobs only while the live-task window has room,
  pumps the engine in bounded slices, and samples RSS against a
  configurable ceiling.  Over the ceiling it degrades in rungs, each
  journaled as a bus event and surfaced in metrics: (1) pause admission
  (:class:`~repro.sim.kernel.AdmissionPaused`), (2) force a retirement
  sweep, (3) spill not-yet-admitted jobs to a JSONL side file
  (:class:`~repro.sim.kernel.JobShed`) for later resubmission.
  Admission resumes with hysteresis once RSS falls below
  ``resume_fraction × ceiling``.

Determinism contract: with the watchdog **off** (no ``rss_ceiling_mb``)
a frontier-driven replay is a pure function of (source, configs) — the
admission window bounds memory deterministically and a killed replay
resumed from snapshot + journal rewrites the journal suffix
byte-identically (the crash-recovery soak's mid-stream mode proves it).
The watchdog trades that for survival: RSS readings are not
reproducible, so its interventions are journaled but a resumed run may
diverge in *admission order* (never in correctness).
"""

from __future__ import annotations

import itertools
import json
import os
from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Protocol

from .._util import check_positive
from ..config import FrontierConfig
from ..dag.codec import job_from_dict, job_to_dict
from ..dag.job import Job
from . import kernel as k
from .state import SimRuntime

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..trace.workload import WorkloadSpec
    from .engine import SimEngine
    from .metrics import RunMetrics

__all__ = [
    "RetirementManager",
    "WorkloadSource",
    "SyntheticSource",
    "TraceSource",
    "MemoryWatchdog",
    "StreamingFrontier",
    "read_rss_bytes",
]


# ================================================================ retirement
class RetirementManager:
    """Settle-point eviction of completed jobs' state, end to end.

    Subscribes to ``TaskFinished`` only to *buffer* completed job ids;
    the actual eviction runs from a kernel settle observer once at least
    ``batch`` jobs are pending (``batch=1`` retires every completed job
    at the next settled point).  :meth:`sweep` force-drains the buffer —
    the watchdog's rung 2 and :meth:`finalize`-time cleanup use it.

    Per job, eviction touches every subsystem that holds per-task state,
    in dependency order: the state maps first (returning the task ids),
    then the :class:`~repro.sim.arraycore.ArrayCore`
    (which normally freed its rows in-emit already, making its call a
    no-op except right after a restore), resilience, invariants, and
    finally the metrics fold.  A :class:`~repro.sim.kernel.JobRetired`
    bus event closes each eviction so the journal and any observer see
    it.
    """

    def __init__(self, runtime: SimRuntime, batch: int = 1) -> None:
        check_positive(batch, "batch")
        self._rt = runtime
        self._batch = batch
        self._pending: list[str] = []

    # --------------------------------------------------------------- wiring
    def attach(self, bus: k.EventBus, kernel: k.Kernel) -> None:
        """Subscribe the completion buffer and the settle-point drain.
        Must run before the snapshot manager is constructed so retirement
        settles *before* any automatic snapshot captures the state."""
        bus.subscribe(k.TaskFinished, self._on_finished)
        kernel.settle_observers.append(self._on_settle)

    @property
    def pending(self) -> tuple[str, ...]:
        """Job ids completed but not yet evicted (drains at settle)."""
        return tuple(self._pending)

    def _on_finished(self, event: k.TaskFinished) -> None:
        if event.job_completed:
            self._pending.append(event.job_id)

    def _on_settle(self, _event) -> None:
        if len(self._pending) >= self._batch:
            self.sweep()

    # ------------------------------------------------------------- eviction
    def sweep(self) -> int:
        """Retire every pending job now; returns the number evicted.
        Only valid at a settled point (never from inside a handler)."""
        count = 0
        while self._pending:
            self._retire(self._pending.pop(0))
            count += 1
        return count

    def _retire(self, job_id: str) -> None:
        rt = self._rt
        state = rt.state
        if state.job_remaining.get(job_id, -1) != 0:
            raise k.SimulationError(
                f"retirement of incomplete job {job_id!r} "
                f"(remaining={state.job_remaining.get(job_id)!r})"
            )
        tids = state.retire_job(job_id)
        rt.array.retire_tasks(tids)
        if rt.resilience is not None:
            rt.resilience.retire_tasks(tids)
        if rt.invariants is not None:
            rt.invariants.retire_tasks(tids)
        rt.metrics.retire_job(job_id, tids)
        rt.bus.emit(k.JobRetired(rt.now, job_id, len(tids)))

    # ------------------------------------------------------------- snapshot
    def snapshot_state(self) -> dict:
        return {"pending": list(self._pending)}

    def restore_state(self, data: dict | None) -> None:
        self._pending = list((data or {}).get("pending", ()))


# ================================================================== sources
class WorkloadSource(Protocol):
    """One-job-at-a-time workload producer with a resumable cursor.

    ``next_job`` must be a pure function of the cursor: the frontier
    draws jobs ahead of their admission, and a snapshot stores only the
    cursor before the oldest drawn job not yet admitted.  The frontier
    takes ``cursor()`` before every job it draws ahead, unless the source
    also offers ``mark()`` (a cheap position token) and ``cursor(mark)``
    to expand one, as :class:`TraceSource` does.
    """

    @property
    def exhausted(self) -> bool: ...

    def next_job(self) -> Job | None: ...

    def cursor(self) -> dict: ...

    def restore(self, cursor: dict) -> None: ...

    def describe(self) -> str: ...


class SyntheticSource:
    """Streaming twin of :func:`~repro.trace.workload.build_workload`.

    Draws from the generator in *exactly* the same order as the batch
    builder — the up-front arrival-rate uniform, then per job the trace
    columns followed by the inter-arrival gap — so job ``i`` here is
    bit-identical to ``build_workload(spec, seed).jobs[i]``.  The cursor
    is the (drawn, arrival, PCG64 state) triple: restore is O(1)
    regardless of how far the run got.
    """

    def __init__(self, spec: "WorkloadSpec", seed: int | None = None) -> None:
        from .._util import ensure_rng
        from ..trace.google_trace import GoogleTraceGenerator

        self._spec = spec
        self._seed = seed
        self._gen = ensure_rng(seed)
        self._trace_gen = GoogleTraceGenerator(rng=self._gen)
        self._class_sizes = spec.scaled_class_sizes()
        lo, hi = spec.arrival_rate_range
        self._mean_gap = 60.0 / float(self._gen.uniform(lo, hi))
        self._drawn = 0
        self._arrival = 0.0

    @property
    def exhausted(self) -> bool:
        return self._drawn >= self._spec.num_jobs

    def _next_gap(self, t: float) -> float:
        spec = self._spec
        if spec.arrival_pattern == "poisson":
            return float(self._gen.exponential(self._mean_gap))
        import math as _math

        phase = 2.0 * _math.pi * t / spec.diurnal_period
        rate_factor = 1.0 + spec.diurnal_amplitude * _math.sin(phase)
        return float(self._gen.exponential(self._mean_gap / rate_factor))

    def next_job(self) -> Job | None:
        from ..trace.workload import job_from_columns

        if self.exhausted:
            return None
        spec = self._spec
        i = self._drawn
        job_id = f"J{i:04d}"
        num_tasks = self._class_sizes[i % 3]
        job = job_from_columns(
            job_id,
            range(num_tasks),
            self._trace_gen.job_columns(job_id, num_tasks, job_start=0.0),
            arrival_time=self._arrival,
            deadline_slack=spec.deadline_slack,
            reference_rate_mips=spec.reference_rate_mips,
            reference_node_cpu=spec.reference_node_cpu,
            reference_node_mem=spec.reference_node_mem,
            weight=1.0 if i % 2 == 0 else 0.0,
        )
        self._arrival += self._next_gap(self._arrival)
        self._drawn = i + 1
        return job

    def cursor(self) -> dict:
        return {
            "kind": "synthetic",
            "drawn": self._drawn,
            "arrival": self._arrival,
            "rng_state": self._gen.bit_generator.state,
        }

    def restore(self, cursor: dict) -> None:
        if cursor.get("kind") != "synthetic":
            raise ValueError(f"cursor kind {cursor.get('kind')!r} != 'synthetic'")
        self._drawn = int(cursor["drawn"])
        self._arrival = float(cursor["arrival"])
        self._gen.bit_generator.state = cursor["rng_state"]

    def describe(self) -> str:
        return f"synthetic[{self._drawn}/{self._spec.num_jobs} jobs drawn]"


class TraceSource:
    """Streaming job producer over a Google ``task_events`` CSV.

    Rows stream through :func:`~repro.trace.google_reader.iter_task_events`
    one *job group* (maximal run of rows sharing a job id) at a time —
    the trace is assumed job-contiguous, the shape both the real trace
    extracts and our generator produce.  A group whose job id already
    appeared (an out-of-order reappearance) is skipped whole and counted
    in :attr:`reordered_jobs`; malformed rows inside a group land in the
    reason buckets of :attr:`stats`.  The cursor records the byte offset
    of the next unread group, so resume re-opens the file and seeks —
    no re-parse of the consumed prefix.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        deadline_slack: float = 4.0,
        reference_rate_mips: float = 1000.0,
        reference_node_cpu: float = 8.0,
        reference_node_mem: float = 16.0,
    ) -> None:
        from ..trace.google_reader import TraceSkipStats

        self._path = Path(path)
        self._slack = deadline_slack
        self._rate = reference_rate_mips
        self._node_cpu = reference_node_cpu
        self._node_mem = reference_node_mem
        self._fh = None
        self._offset = 0
        self._eof = False
        # Insertion-ordered, so a mark can name the ids seen by then as a
        # prefix length.
        self._seen: dict[str, None] = {}
        self._drawn = 0
        self.stats = TraceSkipStats()
        self.reordered_jobs = 0

    @property
    def exhausted(self) -> bool:
        return self._eof

    def _ensure_open(self):
        if self._fh is None:
            self._fh = open(self._path, "rb")
            self._fh.seek(self._offset)
        return self._fh

    def _read_group(self) -> tuple[str | None, list[list[str]], int]:
        """Next maximal run of rows sharing a job id (rows with an
        unreadable id column attach to the current group).  Returns
        (group id, raw rows, byte offset of the first row *after* the
        group)."""
        fh = self._ensure_open()
        rows: list[list[str]] = []
        group_id: str | None = None
        while True:
            pos = fh.tell()
            line = fh.readline()
            if not line:
                self._eof = True
                return group_id, rows, pos
            row = line.decode("utf-8", "replace").rstrip("\r\n").split(",")
            jid = row[2].strip() if len(row) > 2 else ""
            if group_id is None:
                if jid:
                    group_id = jid
                rows.append(row)
            elif not jid or jid == group_id:
                rows.append(row)
            else:
                fh.seek(pos)
                return group_id, rows, pos

    def next_job(self) -> Job | None:
        from ..trace.google_reader import read_task_events
        from ..trace.workload import job_from_records

        while not self._eof:
            group_id, rows, next_offset = self._read_group()
            self._offset = next_offset
            if group_id is None:
                break
            if group_id in self._seen:
                self.reordered_jobs += 1
                self.stats.reads += len(rows)
                continue
            self._seen[group_id] = None
            records = read_task_events(rows, self.stats)
            if not records:
                continue  # every row of the group was quarantined
            arrival = min(r.start_time for r in records)
            self._drawn += 1
            return job_from_records(
                records[0].job_id,
                records,
                arrival_time=arrival,
                deadline_slack=self._slack,
                reference_rate_mips=self._rate,
                reference_node_cpu=self._node_cpu,
                reference_node_mem=self._node_mem,
            )
        return None

    def mark(self) -> tuple:
        """A cheap token for the current position, which
        :meth:`cursor` expands later.  The frontier takes one before
        every job it draws ahead; a full cursor would copy the seen-set
        each time."""
        return (
            self._offset,
            self._eof,
            self._drawn,
            len(self._seen),
            self.reordered_jobs,
            dict(vars(self.stats)),
        )

    def cursor(self, mark: tuple | None = None) -> dict:
        """The resume cursor of the current position, or of *mark*
        (taken from this source since its last :meth:`restore`)."""
        from ..trace.google_reader import TraceSkipStats

        offset, eof, drawn, seen, reordered, stats = (
            self.mark() if mark is None else mark
        )
        return {
            "kind": "trace",
            "offset": offset,
            "eof": eof,
            "drawn": drawn,
            "seen": sorted(itertools.islice(self._seen, seen)),
            "reordered_jobs": reordered,
            "stats": TraceSkipStats(**stats).as_dict(),
        }

    def restore(self, cursor: dict) -> None:
        if cursor.get("kind") != "trace":
            raise ValueError(f"cursor kind {cursor.get('kind')!r} != 'trace'")
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        self._offset = int(cursor["offset"])
        self._eof = bool(cursor["eof"])
        self._drawn = int(cursor.get("drawn", 0))
        self._seen = dict.fromkeys(cursor.get("seen", ()))
        self.reordered_jobs = int(cursor.get("reordered_jobs", 0))
        saved = cursor.get("stats", {})
        for name in type(self.stats).__dataclass_fields__:
            setattr(self.stats, name, int(saved.get(name, 0)))

    def describe(self) -> str:
        return (
            f"trace[{self._path.name}@{self._offset}B, {self._drawn} jobs, "
            f"{self.stats.total_skipped()} rows skipped]"
        )

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


# ================================================================= watchdog
_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def read_rss_bytes() -> int:
    """Current resident set size in bytes: ``/proc/self/statm`` where it
    exists, ``getrusage`` peak (coarser: high-water, not current) as the
    portable fallback."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE_SIZE
    except (OSError, ValueError, IndexError):
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class MemoryWatchdog:
    """RSS sampler with a ceiling and a hysteresis resume threshold.

    Pure measurement — the *policy* (the degradation ladder) lives in
    :class:`StreamingFrontier`.  The probe is injectable so tests can
    script pressure without actually allocating gigabytes.
    """

    def __init__(
        self,
        ceiling_bytes: float,
        resume_fraction: float = 0.85,
        probe: Callable[[], int] | None = None,
    ) -> None:
        check_positive(ceiling_bytes, "ceiling_bytes")
        if not 0.0 < resume_fraction <= 1.0:
            raise ValueError(
                f"resume_fraction must be in (0, 1], got {resume_fraction!r}"
            )
        self.ceiling = float(ceiling_bytes)
        self.resume_below = resume_fraction * float(ceiling_bytes)
        self._probe = probe if probe is not None else read_rss_bytes
        self.peak = 0
        self.samples = 0

    def sample(self) -> int:
        """One RSS reading (also folds into :attr:`peak`)."""
        rss = int(self._probe())
        self.samples += 1
        if rss > self.peak:
            self.peak = rss
        return rss


# ================================================================= frontier
class StreamingFrontier:
    """Drives a streaming engine from a :class:`WorkloadSource` under a
    bounded live-task window, with optional memory-pressure degradation.

    The loop alternates *admit* (submit up to ``admit_batch`` jobs while
    ``live_tasks + job_tasks <= max_live_tasks``, clamping arrivals that
    precede the clock onto it — the deadline shifts by the same delta so
    slack is preserved) with *pump* (at most ``pump_pops`` events).  A
    job that does not fit waits at the head of the lookahead, so an
    oversized job never deadlocks an empty window: it is admitted alone.

    Drawing a job from the source is split from admitting it.  A kernel
    settle observer draws one job per settle point into a *lookahead* of
    at most ``admit_batch`` jobs, so building jobs is spread between
    events instead of stalling the loop for a whole batch; :meth:`admit`
    draws from the source itself only while the lookahead is empty (the
    first window fill).  Drawing is a pure function of the source
    cursor, and admission keeps its slice boundaries, window test and
    clock clamp, so where a job was drawn never shows in the run.

    Requires an engine built with ``streaming=True`` **and**
    ``SimConfig.retire_completed`` — without retirement the window could
    only ever fill, never drain.  The frontier registers itself as the
    engine's snapshot provider, so automatic snapshots carry the source
    cursor before the oldest unadmitted job (no job bodies: a resumed run
    draws the lookahead again) and the admission counters;
    ``restore_state`` puts them back after :meth:`SimEngine.restore
    <repro.sim.engine.SimEngine.restore>` rebuilt the live window.
    """

    def __init__(
        self,
        engine: "SimEngine",
        source: WorkloadSource,
        config: FrontierConfig | None = None,
        task_deadlines=None,
        probe: Callable[[], int] | None = None,
    ) -> None:
        cfg = config or FrontierConfig()
        if not getattr(engine, "_streaming", False):
            raise k.SimulationError("StreamingFrontier requires streaming=True")
        if engine.retirement is None:
            raise k.SimulationError(
                "StreamingFrontier requires SimConfig.retire_completed — "
                "without retirement the live window can only grow"
            )
        self._engine = engine
        self._source = source
        self._cfg = cfg
        self._deadlines = task_deadlines
        # Drawn, not yet admitted jobs, oldest first, each with the source
        # position before it (a mark, or a cursor for a source without
        # marks).  A position of None is a job restored from a snapshot
        # that carried its body.
        self._lookahead: deque[tuple[object, Job]] = deque()
        self._position = getattr(source, "mark", source.cursor)
        self._marks = hasattr(source, "mark")
        self._paused = False
        self._steps = 0
        # Pop count at the current pump slice's start, and the budget left
        # of a slice interrupted by a snapshot+crash.  Admission decisions
        # happen at slice boundaries, so a resumed run must finish the
        # in-flight slice before its first admit() — otherwise its
        # boundaries (and with them the arrival-clamp outcomes) drift off
        # the original run's and the journal suffix diverges.
        self._slice_start: int | None = None
        self._slice_remaining = 0
        self.admitted = 0
        self.admitted_tasks = 0
        self.shed = 0
        self.watchdog: MemoryWatchdog | None = None
        if cfg.rss_ceiling_mb is not None:
            self.watchdog = MemoryWatchdog(
                cfg.rss_ceiling_mb * 1024.0 * 1024.0,
                resume_fraction=cfg.resume_fraction,
                probe=probe,
            )
        engine.frontier_provider = self.snapshot_state
        engine.frontier_describe = self.describe
        engine.runtime.kernel.settle_observers.append(self._draw_ahead)

    # ------------------------------------------------------------ accessors
    @property
    def paused(self) -> bool:
        """Whether the watchdog currently holds admission shut."""
        return self._paused

    def describe(self) -> str:
        state = self._engine.runtime.state
        bits = [
            f"admitted={self.admitted} jobs/{self.admitted_tasks} tasks",
            f"live={len(state.jobs)} jobs/{len(state.tasks)} tasks",
            f"retired={state.retired_jobs}",
            f"pending={len(self._engine.retirement.pending)}",
            f"source={self._source.describe()}",
        ]
        if self._lookahead:
            bits.append(
                f"lookahead={len(self._lookahead)} "
                f"(head {self._lookahead[0][1].job_id})"
            )
        if self.shed:
            bits.append(f"shed={self.shed}")
        if self._paused:
            bits.append("admission=paused")
        return "frontier(" + ", ".join(bits) + ")"

    # ------------------------------------------------------------ admission
    def _draw(self) -> Job | None:
        """Draw the next job from the source onto the lookahead's tail."""
        position = self._position()
        job = self._source.next_job()
        if job is not None:
            self._lookahead.append((position, job))
        return job

    def _draw_ahead(self, _event) -> None:
        """Settle observer: draw at most one job while the lookahead has
        room, so no settle point builds more than one job."""
        if len(self._lookahead) < self._cfg.admit_batch and not (
            self._source.exhausted
        ):
            self._draw()

    def _next_waiting(self) -> Job | None:
        """Take the oldest drawn job, else the next from the source."""
        if self._lookahead:
            return self._lookahead.popleft()[1]
        return self._source.next_job()

    def _submit(self, job: Job) -> None:
        now = self._engine.now
        if job.arrival_time < now:
            delta = now - job.arrival_time
            job = job.retimed(now, job.deadline + delta)
        self._engine.submit_job(job, self._deadlines)
        self.admitted += 1
        self.admitted_tasks += len(job.tasks)

    def admit(self) -> int:
        """Admit up to ``admit_batch`` jobs that fit the live window;
        returns how many entered."""
        if self._paused:
            return 0
        cfg = self._cfg
        state = self._engine.runtime.state
        lookahead = self._lookahead
        admitted = 0
        while admitted < cfg.admit_batch:
            if lookahead:
                job = lookahead[0][1]
            else:
                job = self._draw()
                if job is None:
                    break
            live = len(state.tasks)
            if live and live + len(job.tasks) > cfg.max_live_tasks:
                break  # window full; the head is re-offered next round
            lookahead.popleft()
            self._submit(job)
            admitted += 1
        return admitted

    # ------------------------------------------------------------- pressure
    def _check_memory(self) -> None:
        wd = self.watchdog
        if wd is None:
            return
        engine = self._engine
        rss = wd.sample()
        live = len(engine.runtime.state.tasks)
        bus = engine.runtime.bus
        if rss > wd.ceiling:
            if not self._paused:
                # Rung 1: stop admitting; the live window drains.
                self._paused = True
                bus.emit(
                    k.AdmissionPaused(engine.now, "rss over ceiling", live, rss)
                )
                return
            # Rung 2: evict everything already completed, right now.
            engine.retirement.sweep()
            rss = wd.sample()
            if rss > wd.ceiling and self._cfg.spill_path is not None:
                # Rung 3: spill the not-yet-admitted backlog to disk.
                self._shed(self._cfg.admit_batch)
        elif self._paused and rss <= wd.resume_below:
            self._paused = False
            bus.emit(
                k.AdmissionResumed(
                    engine.now, "rss under resume threshold", live, rss
                )
            )

    def _shed(self, count: int) -> int:
        """Spill up to *count* waiting jobs (lookahead, then source) to the
        JSONL side file; each is journaled as a ``JobShed`` event and can
        be resubmitted from the spill later."""
        engine = self._engine
        shed = 0
        with open(self._cfg.spill_path, "a", encoding="utf-8") as fh:
            while shed < count:
                job = self._next_waiting()
                if job is None:
                    break
                fh.write(json.dumps(job_to_dict(job)) + "\n")
                engine.runtime.bus.emit(
                    k.JobShed(engine.now, job.job_id, len(job.tasks))
                )
                shed += 1
        self.shed += shed
        return shed

    # ------------------------------------------------------------ main loop
    def _drained(self) -> bool:
        return (
            not self._lookahead
            and self._source.exhausted
            and self._engine.runtime.state.all_done()
        )

    def run(self) -> "RunMetrics":
        """Replay the source to exhaustion and return the run's metrics.

        Raises :class:`~repro.sim.kernel.SimulationStuck` (with the
        frontier's position) if the event queue drains with live work
        unfinished, :class:`~repro.sim.kernel.SimulationInterrupted` at
        the next settled point after :meth:`SimEngine.request_stop
        <repro.sim.engine.SimEngine.request_stop>`, and
        :class:`~repro.sim.kernel.SimulationError` if memory pressure
        pins admission shut with nothing left to drain or shed.
        """
        engine = self._engine
        cfg = self._cfg
        while True:
            if engine._stop_requested:
                raise k.SimulationInterrupted(
                    f"stopped at a settled point (event "
                    f"#{engine.runtime.kernel.pops}, t={engine.now:g}s; "
                    f"{self.describe()})"
                )
            if self._slice_remaining:
                # Restored mid-slice: finish the interrupted slice with
                # its leftover budget (no admit — this slice's admission
                # already happened before the snapshot was taken).
                budget = self._slice_remaining
                self._slice_remaining = 0
                self._slice_start = (
                    engine.runtime.kernel.pops - (cfg.pump_pops - budget)
                )
                pops = engine.pump(budget)
            else:
                self.admit()
                self._slice_start = engine.runtime.kernel.pops
                pops = engine.pump(cfg.pump_pops)
            self._steps += 1
            if self._steps % cfg.watchdog_interval == 0:
                self._check_memory()
            if pops:
                continue
            # The heap is empty.  Either the replay is done, admission is
            # paused on memory pressure with nothing draining, or live
            # work is wedged (the batch-mode stuck condition).
            if self._drained():
                break
            if engine.retirement.pending:
                # With ``retire_batch`` > 1, the settle drain can starve:
                # the last completed jobs (fewer than a batch) still count
                # against the live window, admission refuses the next job,
                # and nothing is left to pump.  Force the sweep so the
                # window clears and admission proceeds.
                engine.retirement.sweep()
                continue
            if self._paused:
                self._check_memory()  # sweep/shed/resume right now
                if self._paused:
                    raise k.SimulationError(
                        "memory ceiling holds admission shut with an idle "
                        f"event queue — nothing left to retire or shed "
                        f"({self.describe()})"
                    )
                continue
            if not engine.runtime.state.all_done():
                unfinished = engine.runtime.state.unfinished_task_ids()
                raise k.SimulationStuck(
                    f"event queue drained with {len(unfinished)} unfinished "
                    f"live tasks (first: {sorted(unfinished)[:3]}; "
                    f"{engine.runtime.kernel.position()}; {self.describe()})"
                )
        close = getattr(self._source, "close", None)
        if callable(close):
            close()
        return engine.finalize()

    # ------------------------------------------------------------- snapshot
    def snapshot_state(self) -> dict:
        """The frontier's snapshot section: admission counters and the
        source cursor before the oldest unadmitted job.  ``staged`` holds
        a job body only while a job restored from an older snapshot's
        ``staged`` entry still waits; it exists nowhere else."""
        slice_remaining = 0
        if self._slice_start is not None:
            slice_remaining = max(
                0,
                self._slice_start
                + self._cfg.pump_pops
                - self._engine.runtime.kernel.pops,
            )
        drawn = list(self._lookahead)
        staged = drawn.pop(0)[1] if drawn and drawn[0][0] is None else None
        if not drawn:
            source = self._source.cursor()
        elif self._marks:
            source = self._source.cursor(drawn[0][0])
        else:
            source = drawn[0][0]
        return {
            "admitted": self.admitted,
            "admitted_tasks": self.admitted_tasks,
            "shed": self.shed,
            "paused": self._paused,
            "steps": self._steps,
            "slice_remaining": slice_remaining,
            "staged": job_to_dict(staged) if staged is not None else None,
            "source": source,
        }

    def restore_state(self, data: dict | None) -> None:
        """Put back what :meth:`snapshot_state` captured (the engine's
        live window is restored separately by ``SimEngine.restore``)."""
        if not data:
            return
        self.admitted = int(data.get("admitted", 0))
        self.admitted_tasks = int(data.get("admitted_tasks", 0))
        self.shed = int(data.get("shed", 0))
        self._paused = bool(data.get("paused", False))
        self._steps = int(data.get("steps", 0))
        self._slice_remaining = int(data.get("slice_remaining", 0))
        self._lookahead.clear()
        staged = data.get("staged")
        if staged is not None:
            self._lookahead.append((None, job_from_dict(staged)))
        source = data.get("source")
        if source is not None:
            self._source.restore(source)
