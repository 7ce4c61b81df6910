"""Bounded-memory streaming replay (``sim/frontier.py``): retirement,
workload sources, the admission frontier, the memory watchdog and
mid-stream crash/resume.

The determinism contract under test: with the watchdog off, a
frontier-driven replay is a pure function of (source, configs) — so a
run killed mid-stream and resumed from snapshot + journal must rewrite
the journal suffix byte-identically and finish with identical metrics.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ResourceVector, uniform_cluster
from repro.config import FrontierConfig, SimConfig, SnapshotConfig
from repro.core import HeuristicScheduler
from repro.dag import Job, Task
from repro.dag.codec import job_from_dict, job_to_dict
from repro.experiments import workload_spec_for_cluster
from repro.sim import (
    AdmissionPaused,
    AdmissionResumed,
    JobRetired,
    JobShed,
    MemoryWatchdog,
    SimEngine,
    SimulationError,
    StreamingFrontier,
    SyntheticSource,
    TraceSource,
    latest_valid_snapshot,
)
from repro.sim.arraycore import DenseIds
from repro.sim.frontier import RetirementManager
from repro.trace.workload import build_workload


def _cluster(n: int = 3):
    return uniform_cluster(n, cpu_size=4.0, mem_size=8.0, mips_per_unit=500.0)


def _sim_cfg(**overrides) -> SimConfig:
    return SimConfig(epoch=2.0, scheduling_period=20.0, **overrides)


def _spec(num_jobs: int, cluster=None, scale: float = 60.0):
    return workload_spec_for_cluster(num_jobs, cluster or _cluster(), scale=scale)


def _streaming_engine(cluster, sim: SimConfig | None = None, **kwargs) -> SimEngine:
    return SimEngine(
        cluster,
        [],
        HeuristicScheduler(cluster),
        sim_config=sim or _sim_cfg(retire_completed=True),
        streaming=True,
        **kwargs,
    )


class _ListSource:
    """Minimal WorkloadSource over a fixed job list (for frontier tests)."""

    def __init__(self, jobs):
        self._jobs = list(jobs)
        self._i = 0

    @property
    def exhausted(self):
        return self._i >= len(self._jobs)

    def next_job(self):
        if self.exhausted:
            return None
        job = self._jobs[self._i]
        self._i += 1
        return job

    def cursor(self):
        return {"kind": "list", "i": self._i}

    def restore(self, cursor):
        self._i = int(cursor["i"])

    def describe(self):
        return f"list[{self._i}/{len(self._jobs)}]"


def _job(jid: str, n: int, arrival: float = 0.0, task_cpu: float = 1.0) -> Job:
    tasks = [
        Task(
            task_id=f"{jid}.t{i}",
            job_id=jid,
            size_mi=1500.0,
            demand=ResourceVector(cpu=task_cpu, mem=0.5, disk=0.02, bandwidth=0.02),
            parents=(f"{jid}.t{i - 1}",) if i else (),
        )
        for i in range(n)
    ]
    return Job.from_tasks(jid, tasks, deadline=1e6, arrival_time=arrival)


# ==================================================================== codec
class TestJobCodec:
    def test_round_trip_preserves_everything(self):
        spec = _spec(3)
        job = build_workload(spec, rng=5).jobs[1]
        back = job_from_dict(job_to_dict(job))
        assert back == job
        # Insertion order is part of the contract (scoring iterates it).
        assert list(back.tasks) == list(job.tasks)

    def test_round_trip_through_json(self):
        job = _job("J", 4, arrival=12.5)
        back = job_from_dict(json.loads(json.dumps(job_to_dict(job))))
        assert back == job

    def test_optional_fields(self):
        task = Task(
            task_id="J.t0",
            job_id="J",
            size_mi=10.0,
            demand=ResourceVector(cpu=1.0, mem=0.5),
            input_mb=64.0,
            input_location="n1",
        )
        job = Job.from_tasks("J", [task], deadline=100.0, weight=0.5)
        back = job_from_dict(job_to_dict(job))
        assert back.tasks["J.t0"].input_mb == 64.0
        assert back.tasks["J.t0"].input_location == "n1"
        assert back.weight == 0.5


# =============================================================== retirement
class TestRetirementParity:
    """retire_completed must change memory, never results."""

    def _run(self, retire: bool):
        cluster = _cluster()
        workload = build_workload(_spec(6, cluster), rng=3)
        engine = SimEngine(
            cluster,
            workload.jobs,
            HeuristicScheduler(cluster),
            sim_config=_sim_cfg(retire_completed=retire, retire_batch=2),
        )
        return engine, engine.run()

    def test_metrics_identical_mod_fold_order(self):
        engine_off, metrics_off = self._run(False)
        engine_on, metrics_on = self._run(True)
        base = metrics_off.as_dict()
        folded = metrics_on.as_dict()
        for key, value in base.items():
            # Retirement folds per-task waits into per-job partial sums,
            # which reorders the float summation — everything else is exact.
            if key in ("avg_job_waiting", "avg_task_waiting"):
                assert folded[key] == pytest.approx(value, rel=1e-9)
            else:
                assert folded[key] == value, key
        assert folded["jobs_retired"] == 6.0
        assert "jobs_retired" not in base  # keys only appear when active

    def test_live_state_evicted_end_to_end(self):
        engine, metrics = self._run(True)
        state = engine.runtime.state
        assert state.jobs == {} and state.tasks == {}
        assert state.retired_jobs == 6
        assert state.retired_tasks == metrics.tasks_completed


class TestRetirementManager:
    def test_events_and_batching(self):
        cluster = _cluster(2)
        engine = _streaming_engine(
            cluster, _sim_cfg(retire_completed=True, retire_batch=50)
        )
        retired = []
        engine.runtime.bus.subscribe(JobRetired, retired.append)
        engine.submit_job(_job("A", 3))
        engine.submit_job(_job("B", 2, arrival=1.0))
        while engine.pump(500):
            pass
        # Batch threshold (50) never reached: both jobs still pending.
        assert set(engine.retirement.pending) == {"A", "B"}
        assert retired == []
        engine.finalize()  # final sweep drains the buffer
        assert engine.retirement.pending == ()
        assert {e.job_id for e in retired} == {"A", "B"}
        assert sum(e.tasks for e in retired) == 5

    def test_incomplete_job_rejected(self):
        cluster = _cluster(2)
        engine = _streaming_engine(cluster)
        engine.submit_job(_job("A", 3))
        engine.pump(2)  # arrival only; nothing finished
        engine.retirement._pending.append("A")
        with pytest.raises(SimulationError, match="incomplete"):
            engine.retirement.sweep()

    def test_snapshot_round_trip(self):
        manager = RetirementManager.__new__(RetirementManager)
        manager._pending = ["X", "Y"]
        state = manager.snapshot_state()
        other = RetirementManager.__new__(RetirementManager)
        other.restore_state(json.loads(json.dumps(state)))
        assert other._pending == ["X", "Y"]
        other.restore_state(None)
        assert other._pending == []


# ================================================================== sources
class TestSyntheticSource:
    def test_bit_identical_to_batch_builder(self):
        for scale, pattern in [
            (60.0, "poisson"), (20.0, "poisson"), (100.0, "poisson"),
            (20.0, "diurnal"), (100.0, "diurnal"),
        ]:
            spec = dataclasses.replace(
                _spec(8, scale=scale), arrival_pattern=pattern
            )
            batch = build_workload(spec, rng=11).jobs
            source = SyntheticSource(spec, seed=11)
            streamed = []
            while not source.exhausted:
                streamed.append(source.next_job())
            assert source.next_job() is None
            assert len(streamed) == len(batch)
            for a, b in zip(streamed, batch):
                assert job_to_dict(a) == job_to_dict(b)
                assert a.deadline.hex() == b.deadline.hex()
                assert a.arrival_time.hex() == b.arrival_time.hex()
                # The structures cached at construction, not only tasks.
                assert a.topo_order == b.topo_order
                assert a.children == b.children

    def test_cursor_resume_is_exact(self):
        spec = _spec(8)
        source = SyntheticSource(spec, seed=11)
        head = [source.next_job() for _ in range(3)]
        cursor = json.loads(json.dumps(source.cursor()))
        rest = [source.next_job() for _ in range(5)]
        resumed = SyntheticSource(spec, seed=11)
        resumed.restore(cursor)
        for want in rest:
            assert job_to_dict(resumed.next_job()) == job_to_dict(want)
        assert resumed.exhausted

    def test_cursor_kind_checked(self):
        source = SyntheticSource(_spec(2), seed=1)
        with pytest.raises(ValueError, match="kind"):
            source.restore({"kind": "trace"})


def _trace_csv(path, include_junk: bool = True) -> None:
    """A tiny job-contiguous task_events CSV: two good jobs, one
    all-quarantined group, one reordered reappearance, assorted junk."""

    def sched(ts, job, idx, cpu="0.5", mem="0.25"):
        return f"{ts},,{job},{idx},,1,,,,{cpu},{mem}"

    def finish(ts, job, idx):
        return f"{ts},,{job},{idx},,4,,,,,"

    lines = [
        sched(1_000_000, "j1", 0),
        finish(3_000_000, "j1", 0),
        sched(2_000_000, "j1", 1),
        finish(5_000_000, "j1", 1),
    ]
    if include_junk:
        lines += [
            "truncated,row",  # short_row
            sched("garbage", "j2", 0),  # bad_field (timestamp)
            sched(6_000_000, "j2", 0, cpu="2.0"),  # bad_resources (out of range)
            sched(6_500_000, "j2", 1),
            finish(6_400_000, "j2", 1),  # bad_timestamp (finish <= start)
            finish(7_000_000, "j2", 2),  # unpaired_finish
            sched(7_500_000, "j2", 3),  # unpaired_schedule (no FINISH)
        ]
    else:
        lines += [sched(6_000_000, "j2", 0), finish(8_000_000, "j2", 0)]
    lines += [
        sched(9_000_000, "j3", 0),
        finish(11_000_000, "j3", 0),
        sched(12_000_000, "j1", 0),  # reordered reappearance of j1
        finish(13_000_000, "j1", 0),
    ]
    path.write_text("\n".join(lines) + "\n")


class TestTraceSource:
    def test_streams_good_jobs_and_buckets_junk(self, tmp_path):
        path = tmp_path / "events.csv"
        _trace_csv(path)
        source = TraceSource(path)
        jobs = []
        while (job := source.next_job()) is not None:
            jobs.append(job)
        assert [j.job_id for j in jobs] == ["gj1", "gj3"]
        assert len(jobs[0].tasks) == 2
        assert source.exhausted
        stats = source.stats
        assert stats.short_row == 1
        assert stats.bad_field == 1
        assert stats.bad_resources == 1
        assert stats.bad_timestamp == 1
        assert stats.unpaired_finish == 1
        assert stats.unpaired_schedule == 1
        assert source.reordered_jobs == 1
        assert stats.records == 3
        source.close()

    def test_arrival_from_earliest_start(self, tmp_path):
        path = tmp_path / "events.csv"
        _trace_csv(path, include_junk=False)
        source = TraceSource(path)
        job = source.next_job()
        assert job.arrival_time == pytest.approx(1.0)
        source.close()

    def test_cursor_resume_skips_consumed_prefix(self, tmp_path):
        path = tmp_path / "events.csv"
        _trace_csv(path)
        source = TraceSource(path)
        first = source.next_job()
        cursor = json.loads(json.dumps(source.cursor()))
        rest = []
        while (job := source.next_job()) is not None:
            rest.append(job)
        source.close()

        resumed = TraceSource(path)
        resumed.restore(cursor)
        resumed_rest = []
        while (job := resumed.next_job()) is not None:
            resumed_rest.append(job)
        assert [j.job_id for j in resumed_rest] == [j.job_id for j in rest]
        for a, b in zip(resumed_rest, rest):
            assert job_to_dict(a) == job_to_dict(b)
        # The reordered reappearance is still detected across the resume
        # (the seen-set travels in the cursor).
        assert resumed.reordered_jobs == source.reordered_jobs
        resumed.close()


# ================================================================= frontier
class TestStreamingFrontier:
    def test_requires_streaming_and_retirement(self):
        cluster = _cluster(2)
        batch = SimEngine(
            cluster, [_job("A", 2)], HeuristicScheduler(cluster),
            sim_config=_sim_cfg(retire_completed=True),
        )
        with pytest.raises(SimulationError, match="streaming"):
            StreamingFrontier(batch, _ListSource([]))
        no_retire = SimEngine(
            cluster, [], HeuristicScheduler(cluster),
            sim_config=_sim_cfg(), streaming=True,
        )
        with pytest.raises(SimulationError, match="retire_completed"):
            StreamingFrontier(no_retire, _ListSource([]))

    def test_window_bounds_live_tasks(self):
        cluster = _cluster(2)
        spec = _spec(10, cluster, scale=80.0)
        engine = _streaming_engine(cluster)
        source = SyntheticSource(spec, seed=4)
        cap = 40
        frontier = StreamingFrontier(
            engine,
            source,
            FrontierConfig(max_live_tasks=cap, admit_batch=4, pump_pops=64),
        )
        peak = [0]
        engine.runtime.kernel.settle_observers.append(
            lambda _e: peak.__setitem__(
                0, max(peak[0], len(engine.runtime.state.tasks))
            )
        )
        metrics = frontier.run()
        assert metrics.jobs_completed == 10
        assert frontier.admitted == 10
        assert peak[0] <= cap
        assert peak[0] > 0
        assert engine.runtime.state.jobs == {}  # everything retired

    def test_oversized_job_admitted_alone(self):
        cluster = _cluster(2)
        jobs = [_job("BIG", 12), _job("SMALL", 2, arrival=1.0)]
        engine = _streaming_engine(cluster)
        frontier = StreamingFrontier(
            engine,
            _ListSource(jobs),
            FrontierConfig(max_live_tasks=5, admit_batch=8, pump_pops=64),
        )
        metrics = frontier.run()
        # BIG (12 tasks > cap 5) enters an empty window rather than
        # deadlocking; SMALL waits for it to drain.
        assert metrics.jobs_completed == 2

    def test_stale_arrivals_clamped_to_clock(self):
        cluster = _cluster(2)
        # Both arrive at t=0; the window (3 < 4+4) forces B to wait until
        # A drains, by which time the clock has passed B's arrival.
        # Without the clamp submit_job raises ValueError.
        jobs = [_job("A", 4), _job("B", 4)]
        engine = _streaming_engine(cluster)
        frontier = StreamingFrontier(
            engine,
            _ListSource(jobs),
            FrontierConfig(max_live_tasks=3, admit_batch=2, pump_pops=64),
        )
        metrics = frontier.run()
        assert metrics.jobs_completed == 2

    def test_retire_batch_tail_does_not_starve_admission(self):
        """With ``retire_batch`` > 1, completed jobs below a full batch
        still occupy the live window when the heap drains.  The run loop
        must force the sweep instead of spinning on a refused admission."""
        cluster = _cluster(2)
        jobs = [_job("A", 4), _job("B", 4), _job("C", 4)]
        engine = _streaming_engine(
            cluster, sim=_sim_cfg(retire_completed=True, retire_batch=3)
        )
        frontier = StreamingFrontier(
            engine,
            _ListSource(jobs),
            FrontierConfig(max_live_tasks=5, admit_batch=2, pump_pops=64),
        )
        metrics = frontier.run()
        assert metrics.jobs_completed == 3
        assert metrics.as_dict()["jobs_retired"] == 3.0

    def test_draws_ahead_one_per_settle_point(self):
        """Jobs are drawn between events, at most one per settle point and
        at most ``admit_batch`` ahead of admission; admit() draws from the
        source itself only while the lookahead is empty."""
        cluster = _cluster(2)
        engine = _streaming_engine(cluster)
        source = SyntheticSource(_spec(30, cluster, scale=80.0), seed=4)
        cfg = FrontierConfig(max_live_tasks=40, admit_batch=4, pump_pops=64)
        frontier = StreamingFrontier(engine, source, cfg)
        kernel = engine.runtime.kernel
        admitting = [False]
        draws = []  # (inside admit, jobs waiting drawn, kernel pops)

        def next_job(draw=source.next_job):
            draws.append((admitting[0], len(frontier._lookahead), kernel.pops))
            return draw()

        def admit(admit=frontier.admit):
            admitting[0] = True
            try:
                return admit()
            finally:
                admitting[0] = False

        source.next_job = next_job
        frontier.admit = admit
        assert frontier.describe().count("lookahead") == 0
        metrics = frontier.run()
        assert metrics.jobs_completed == 30
        ahead = [(waiting, pops) for inside, waiting, pops in draws if not inside]
        in_admit = [waiting for inside, waiting, _ in draws if inside]
        assert in_admit and all(waiting == 0 for waiting in in_admit)
        assert max(collections.Counter(p for _, p in ahead).values()) == 1
        assert all(waiting < cfg.admit_batch for waiting, _ in ahead)
        assert len(ahead) > len(in_admit)  # most jobs are drawn ahead

    def test_stuck_replay_reports_frontier_position(self):
        from repro.sim import SimulationStuck

        cluster = _cluster(2)
        engine = _streaming_engine(cluster)
        frontier = StreamingFrontier(engine, _ListSource([_job("A", 2)]))
        frontier.admit()
        # Wedge the run: the heap reads as drained while A is unfinished.
        engine.pump = lambda max_pops=None: 0
        with pytest.raises(SimulationStuck, match=r"frontier\("):
            frontier.run()


# ================================================================= watchdog
class TestMemoryWatchdog:
    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryWatchdog(0)
        with pytest.raises(ValueError):
            MemoryWatchdog(100, resume_fraction=1.5)

    def test_peak_tracking_with_scripted_probe(self):
        readings = iter([10, 50, 30])
        wd = MemoryWatchdog(100, probe=lambda: next(readings))
        assert wd.sample() == 10
        assert wd.sample() == 50
        assert wd.sample() == 30
        assert wd.peak == 50 and wd.samples == 3

    def test_real_probe_returns_positive(self):
        from repro.sim.frontier import read_rss_bytes

        assert read_rss_bytes() > 0


class TestDegradationLadder:
    def test_pause_shed_resume(self, tmp_path):
        """Scripted pressure walks all three rungs: admission pauses, a
        sweep happens, the backlog spills to JSONL, then admission
        resumes under the hysteresis threshold and the replay finishes."""
        cluster = _cluster(2)
        spec = _spec(8, cluster, scale=80.0)
        spill = tmp_path / "spill.jsonl"
        engine = _streaming_engine(cluster)
        events = []
        bus = engine.runtime.bus
        for kind in (AdmissionPaused, AdmissionResumed, JobShed):
            bus.subscribe(kind, events.append)

        pressure = {"on": False}
        ceiling = 100 * 1024 * 1024

        def probe():
            # Over the ceiling while "on", then comfortably below.
            return ceiling * 2 if pressure["on"] else ceiling // 2

        source = SyntheticSource(spec, seed=4)
        frontier = StreamingFrontier(
            engine,
            source,
            FrontierConfig(
                max_live_tasks=60,
                admit_batch=2,
                pump_pops=32,
                rss_ceiling_mb=100.0,
                watchdog_interval=1,
                spill_path=str(spill),
            ),
            probe=probe,
        )

        # Turn pressure on once some jobs are in flight, off again later.
        ticks = {"n": 0}

        def pulse(_e):
            ticks["n"] += 1
            if ticks["n"] == 40:
                pressure["on"] = True
            elif ticks["n"] == 400:
                pressure["on"] = False

        engine.runtime.kernel.settle_observers.append(pulse)
        metrics = frontier.run()

        pauses = [e for e in events if isinstance(e, AdmissionPaused)]
        resumes = [e for e in events if isinstance(e, AdmissionResumed)]
        sheds = [e for e in events if isinstance(e, JobShed)]
        assert pauses and resumes and sheds
        assert frontier.shed == len(sheds)
        assert metrics.admission_pauses == len(pauses)
        assert metrics.jobs_shed == len(sheds)
        # Shed jobs landed in the spill, one JSON job per line.
        spilled = [
            job_from_dict(json.loads(line))
            for line in spill.read_text().splitlines()
        ]
        assert {j.job_id for j in spilled} == {e.job_id for e in sheds}
        # Everything admitted (= drawn - shed) completed.
        assert metrics.jobs_completed == frontier.admitted
        assert frontier.admitted + frontier.shed == 8

    def test_pinned_shut_is_an_error_not_a_hang(self):
        cluster = _cluster(2)
        engine = _streaming_engine(cluster)
        frontier = StreamingFrontier(
            engine,
            _ListSource([_job("A", 2), _job("B", 2, arrival=1.0)]),
            FrontierConfig(
                max_live_tasks=3,
                admit_batch=1,
                pump_pops=32,
                rss_ceiling_mb=1.0,
                watchdog_interval=1,
            ),
            probe=lambda: 10 * 1024 * 1024,  # forever over a 1 MB ceiling
        )
        with pytest.raises(SimulationError, match="admission shut"):
            frontier.run()


class TestWatchdogLadderProperties:
    """Hypothesis: the pause→sweep→shed ladder is monotone for *any*
    probe sequence — rung N never fires without rung N-1 in the same
    check — and admission only ever resumes at or under the low-water
    mark, never inside the hysteresis band.

    The frontier is driven through ``_check_memory`` exactly as the run
    loop would, with a scripted probe; a parallel reference model of the
    ladder predicts the pause flag, every shed, and the sample count —
    rung 2 resamples after its sweep, so sweeps are visible in
    ``watchdog.samples`` without any instrumentation.
    """

    CEILING_MB = 1.0
    CEILING = 1024 * 1024  # CEILING_MB in bytes

    def _frontier(self, spill_dir, readings, resume_fraction):
        def probe(idx={"i": 0}):
            i, idx["i"] = idx["i"], idx["i"] + 1
            return readings[i] if i < len(readings) else readings[-1]

        engine = _streaming_engine(_cluster(2))
        return StreamingFrontier(
            engine,
            _ListSource([_job(f"J{i}", 1) for i in range(len(readings))]),
            FrontierConfig(
                max_live_tasks=500,
                admit_batch=1,
                pump_pops=8,
                rss_ceiling_mb=self.CEILING_MB,
                watchdog_interval=1,
                resume_fraction=resume_fraction,
                spill_path=str(spill_dir / "spill.jsonl"),
            ),
            probe=probe,
        )

    @staticmethod
    def _model(readings, calls, ceiling, resume_below, jobs):
        """Replay the documented ladder semantics over the same virtual
        probe tape (exhausted tape repeats its last value)."""
        i = 0

        def take():
            nonlocal i
            v = readings[i] if i < len(readings) else readings[-1]
            i += 1
            return int(v)

        paused, sweeps, sheds, remaining = False, 0, 0, jobs
        for _ in range(calls):
            r = take()
            if r > ceiling:
                if not paused:
                    paused = True  # rung 1
                else:
                    sweeps += 1  # rung 2 …
                    if take() > ceiling:  # … resamples, then maybe
                        took = min(1, remaining)  # rung 3 (admit_batch=1)
                        sheds += took
                        remaining -= took
            elif paused and r <= resume_below:
                paused = False
        return paused, i, sweeps, sheds

    @given(
        readings=st.lists(
            st.integers(min_value=0, max_value=2 * CEILING),
            min_size=1,
            max_size=30,
        ),
        resume_fraction=st.floats(
            min_value=0.5, max_value=0.99, allow_nan=False
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_ladder_matches_model(self, readings, resume_fraction):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            frontier = self._frontier(
                pathlib.Path(tmp), readings, resume_fraction
            )
            wd = frontier.watchdog
            events = []
            bus = frontier._engine.runtime.bus
            for kind in (AdmissionPaused, AdmissionResumed, JobShed):
                bus.subscribe(kind, events.append)

            calls = len(readings)
            for _ in range(calls):
                frontier._check_memory()

            paused, consumed, sweeps, sheds = self._model(
                readings, calls, wd.ceiling, wd.resume_below, len(readings)
            )
            pauses = [e for e in events if isinstance(e, AdmissionPaused)]
            resumes = [e for e in events if isinstance(e, AdmissionResumed)]
            shed_events = [e for e in events if isinstance(e, JobShed)]

            # The ladder walked exactly the modelled path.
            assert frontier.paused == paused
            assert wd.samples == consumed
            assert wd.samples - calls == sweeps  # each sweep resamples once
            assert frontier.shed == sheds == len(shed_events)
            # Monotone: no rung without every rung below it.
            if shed_events:
                assert sweeps > 0
            if sweeps:
                assert pauses
            # Pause only ever fires over the ceiling; resume only at or
            # under the low-water mark — never inside the hysteresis band.
            assert all(e.rss_bytes > wd.ceiling for e in pauses)
            assert all(e.rss_bytes <= wd.resume_below for e in resumes)
            # Pause/resume events alternate and balance the final flag.
            assert len(pauses) - len(resumes) == (1 if frontier.paused else 0)


# =========================================================== crash + resume
class TestMidStreamResume:
    def _run_reference(self, tmp_path, cluster, spec):
        engine = _streaming_engine(
            cluster, journal=str(tmp_path / "ref.journal")
        )
        frontier = StreamingFrontier(
            engine,
            SyntheticSource(spec, seed=9),
            FrontierConfig(max_live_tasks=50, admit_batch=2, pump_pops=64),
        )
        metrics = frontier.run()
        engine.journal.close()
        return metrics

    def test_kill_and_resume_byte_identical(self, tmp_path):
        from repro.sim import SimulatedCrash, inject_crash

        cluster = _cluster(2)
        spec = _spec(8, cluster, scale=80.0)
        ref_metrics = self._run_reference(tmp_path, cluster, spec)
        ref_journal = (tmp_path / "ref.journal").read_bytes()

        snap_dir = tmp_path / "snaps"
        journal = tmp_path / "crash.journal"
        fcfg = FrontierConfig(max_live_tasks=50, admit_batch=2, pump_pops=64)
        engine = _streaming_engine(
            cluster,
            journal=str(journal),
            snapshots=SnapshotConfig(directory=str(snap_dir), every_events=300),
        )
        frontier = StreamingFrontier(engine, SyntheticSource(spec, seed=9), fcfg)
        inject_crash(engine, at_pop=800)
        with pytest.raises(SimulatedCrash):
            frontier.run()

        found = latest_valid_snapshot(snap_dir)
        assert found is not None
        path, data = found
        assert data["frontier"]["source"]["kind"] == "synthetic"

        # Recover exactly as the CLI does: empty jobs (jobs_spec fills the
        # live window), a fresh source, the frontier cursor restored.
        recovered = SimEngine.restore(
            data,
            cluster,
            [],
            HeuristicScheduler(cluster),
            sim_config=_sim_cfg(retire_completed=True),
            streaming=True,
            journal=str(journal),
            snapshots=SnapshotConfig(directory=str(snap_dir), every_events=300),
        )
        source = SyntheticSource(spec, seed=9)
        resumed = StreamingFrontier(recovered, source, fcfg)
        resumed.restore_state(data.get("frontier"))
        metrics = resumed.run()
        recovered.journal.close()

        assert journal.read_bytes() == ref_journal
        assert metrics.as_dict() == ref_metrics.as_dict()
        assert resumed.admitted == 8

    def _kill_with_jobs_waiting(self, tmp_path, cluster, make_source, fcfg):
        """Replay once to learn where snapshots catch drawn, unadmitted
        jobs, then kill a second replay one pop after such a snapshot.
        Returns the reference journal and metrics, the crashed run's
        journal path and the snapshot it left."""
        from repro.sim import SimulatedCrash, inject_crash

        every = 40
        ref = tmp_path / "ref.journal"
        engine = _streaming_engine(
            cluster, journal=str(ref),
            snapshots=SnapshotConfig(
                directory=str(tmp_path / "ref_snaps"), every_events=every
            ),
        )
        frontier = StreamingFrontier(engine, make_source(), fcfg)
        waiting = {}
        provider = engine.frontier_provider

        def spy():
            waiting[engine.runtime.kernel.pops] = len(frontier._lookahead)
            return provider()

        engine.frontier_provider = spy
        ref_metrics = frontier.run()
        engine.journal.close()
        at = next(p for p in sorted(waiting) if p > 2 * every and waiting[p])

        journal = tmp_path / "crash.journal"
        engine = _streaming_engine(
            cluster, journal=str(journal),
            snapshots=SnapshotConfig(
                directory=str(tmp_path / "snaps"), every_events=every
            ),
        )
        source = make_source()
        inject_crash(engine, at_pop=at + 1)
        with pytest.raises(SimulatedCrash):
            StreamingFrontier(engine, source, fcfg).run()
        getattr(source, "close", lambda: None)()
        path, data = latest_valid_snapshot(tmp_path / "snaps")
        assert path.name == f"snapshot-{at:08d}.json"
        # No job bodies: only the cursor before the oldest waiting job,
        # which is just after the last admitted one.
        assert data["frontier"]["staged"] is None
        assert data["frontier"]["source"]["drawn"] == data["frontier"]["admitted"]
        return ref.read_bytes(), ref_metrics, journal, data

    def _resume(self, tmp_path, cluster, journal, data, source, fcfg, section):
        recovered = SimEngine.restore(
            data, cluster, [], HeuristicScheduler(cluster),
            sim_config=_sim_cfg(retire_completed=True), streaming=True,
            journal=str(journal),
            snapshots=SnapshotConfig(
                directory=str(tmp_path / "snaps"), every_events=40
            ),
        )
        resumed = StreamingFrontier(recovered, source, fcfg)
        resumed.restore_state(section)
        return resumed

    @pytest.mark.parametrize("kind", ["synthetic", "trace"])
    def test_resume_with_jobs_drawn_ahead(self, tmp_path, kind):
        """Killed while the lookahead holds drawn jobs, the replay resumes
        from the cursor before the oldest of them, draws them again and
        rewrites the journal byte for byte."""
        from tests.helpers import write_task_events

        cluster = _cluster(2)
        if kind == "synthetic":
            spec = _spec(14, cluster, scale=80.0)
            fcfg = FrontierConfig(max_live_tasks=40, admit_batch=3, pump_pops=64)

            def make_source():
                return SyntheticSource(spec, seed=9)
        else:
            events = tmp_path / "task_events.csv"
            write_task_events(events, jobs=24)
            fcfg = FrontierConfig(max_live_tasks=12, admit_batch=3, pump_pops=64)

            def make_source():
                return TraceSource(events)

        ref_journal, ref_metrics, journal, data = self._kill_with_jobs_waiting(
            tmp_path, cluster, make_source, fcfg
        )
        assert data["frontier"]["source"]["kind"] == kind
        resumed = self._resume(
            tmp_path, cluster, journal, data, make_source(), fcfg,
            data["frontier"],
        )
        metrics = resumed.run()
        resumed._engine.journal.close()
        assert journal.read_bytes() == ref_journal
        assert metrics.as_dict() == ref_metrics.as_dict()

    def test_older_snapshot_with_staged_job_restores(self, tmp_path):
        """The older frontier section — the oldest unadmitted job's body
        under ``staged`` and the cursor after it — still restores and
        replays byte for byte; until that job is admitted, new snapshots
        carry it the same way."""
        cluster = _cluster(2)
        spec = _spec(14, cluster, scale=80.0)
        fcfg = FrontierConfig(max_live_tasks=40, admit_batch=3, pump_pops=64)
        ref_journal, ref_metrics, journal, data = self._kill_with_jobs_waiting(
            tmp_path, cluster, lambda: SyntheticSource(spec, seed=9), fcfg
        )
        section = dict(data["frontier"])
        source = SyntheticSource(spec, seed=9)
        source.restore(section["source"])
        staged = source.next_job()
        section.update(staged=job_to_dict(staged), source=source.cursor())
        section = json.loads(json.dumps(section))

        resumed = self._resume(
            tmp_path, cluster, journal, data, SyntheticSource(spec, seed=9),
            fcfg, section,
        )
        again = json.loads(json.dumps(resumed.snapshot_state()))
        assert again["staged"] == section["staged"]
        assert again["source"] == section["source"]
        metrics = resumed.run()
        resumed._engine.journal.close()
        assert journal.read_bytes() == ref_journal
        assert metrics.as_dict() == ref_metrics.as_dict()

    def test_resume_retires_resurrected_rows(self):
        """A snapshot taken with completed-but-unswept jobs (``retire_batch``
        > 1) resurrects their tasks on restore — state maps, ArrayCore rows
        and all.  The restored sweep must free those rows too; otherwise
        the next full resync dereferences tasks that no longer exist."""
        cluster = _cluster(2)
        src_jobs = [_job("A", 2), _job("B", 2), _job("C", 3, arrival=5.0)]
        engine = _streaming_engine(
            cluster, sim=_sim_cfg(retire_completed=True, retire_batch=5)
        )
        frontier = StreamingFrontier(
            engine,
            _ListSource(src_jobs),
            FrontierConfig(max_live_tasks=100, admit_batch=2, pump_pops=64),
        )
        # Pump until A and B complete but stay unswept (pending < batch).
        frontier.admit()
        for _ in range(200):
            if engine.runtime.state.job_remaining.get("B") == 0:
                break
            engine.pump(32)
        assert set(engine.retirement.pending) == {"A", "B"}
        snapshot = engine.snapshot()

        # Restore with a smaller batch so the sweep fires mid-run — after
        # C is admitted, while its events still pump and resync the core.
        recovered = SimEngine.restore(
            snapshot,
            cluster,
            [],
            HeuristicScheduler(cluster),
            sim_config=_sim_cfg(retire_completed=True, retire_batch=2),
            streaming=True,
        )
        resumed = StreamingFrontier(
            recovered,
            _ListSource(src_jobs),
            FrontierConfig(max_live_tasks=100, admit_batch=2, pump_pops=64),
        )
        resumed.restore_state(snapshot["frontier"])
        metrics = resumed.run()
        assert metrics.jobs_completed == 3
        assert metrics.as_dict()["jobs_retired"] == 3.0

    def test_snapshot_carries_retire_and_frontier_sections(self, tmp_path):
        cluster = _cluster(2)
        engine = _streaming_engine(cluster)
        frontier = StreamingFrontier(
            engine,
            _ListSource([_job("A", 2)]),
            FrontierConfig(max_live_tasks=10, admit_batch=1, pump_pops=8),
        )
        frontier.admit()
        engine.pump(8)
        snapshot = engine.snapshot()
        assert snapshot["fingerprint"]["retire"] is True
        assert "retire" in snapshot
        assert snapshot["frontier"]["admitted"] == 1
        assert snapshot["frontier"]["source"] == {"kind": "list", "i": 1}
        # The section is pure JSON (a snapshot must serialize).
        json.dumps(snapshot)


# ==================================================== allocator churn bound
class TestDenseIdsChurnBound:
    @given(
        ops=st.lists(
            st.tuples(st.integers(1, 20), st.integers(0, 100)), max_size=40
        )
    )
    @settings(deadline=None, max_examples=150)
    def test_capacity_bounded_by_live_high_water(self, ops):
        """Admit/retire churn: after any interleaving of job admissions
        (k allocs) and retirements (freeing a whole job's ids), the dense
        range and free list never exceed the live-window high-water mark —
        the allocator cannot leak under streaming replay churn."""
        ids = DenseIds()
        jobs: list[list[int]] = []
        live = 0
        high_water = 0
        for admit_k, retire_pick in ops:
            rows = [ids.alloc() for _ in range(admit_k)]
            assert len(set(rows)) == admit_k  # no aliasing within a job
            jobs.append(rows)
            live += admit_k
            high_water = max(high_water, live)
            if jobs and retire_pick % 2:
                victim = jobs.pop(retire_pick % len(jobs))
                for row in victim:
                    ids.free(row)
                live -= len(victim)
            assert ids.capacity <= high_water
            assert ids.free_count == ids.capacity - live
        # Retire everything: the free list equals the dense range exactly.
        for rows in jobs:
            for row in rows:
                ids.free(row)
        assert ids.free_count == ids.capacity <= high_water
