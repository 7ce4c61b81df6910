"""Durability tests: write-ahead journal framing, versioned snapshots,
rotation/atomicity, and crash-and-resume golden parity.

The parity class is the load-bearing one: for seeded chaos runs across
every policy, a run crashed at a random event and recovered from the
latest valid snapshot must replay to a **byte-identical** journal and
identical trace + ``RunMetrics`` vs the uninterrupted run.
"""

import json
import os

import numpy as np
import pytest

from repro.cluster import Cluster, NodeSpec, ResourceVector
from repro.config import DSPConfig, SimConfig, SnapshotConfig
from repro.core import HeuristicScheduler
from repro.dag import Job, Task
from repro.experiments import (
    build_workload_for_cluster,
    cluster_profile,
    default_config,
)
from repro.sim import (
    FaultEvent,
    FaultKind,
    JournalCorrupt,
    JournalWriter,
    SimEngine,
    SimulatedCrash,
    SnapshotError,
    SnapshotVersionError,
    TaskFinished,
    inject_crash,
    latest_valid_snapshot,
    load_snapshot,
    read_journal,
    snapshot_engine,
    summarize_journal,
    write_snapshot,
)
from repro.sim import journal as journal_mod
from repro.sim.journal import (
    RENDER_SLICE,
    decode_bus_event,
    decode_payload,
    encode_bus_event,
    encode_payload,
)
from repro.sim.snapshot import SNAPSHOT_VERSION
from repro.sweep import soakcases as soak


# ---------------------------------------------------------------- fixtures
def mk(tid: str, size=5000.0, parents=()) -> Task:
    return Task(task_id=tid, job_id="J", size_mi=size,
                demand=ResourceVector(cpu=1.0, mem=0.5), parents=parents)


def one_lane(n: int) -> Cluster:
    return Cluster([
        NodeSpec(node_id=f"n{i}", cpu_size=1.0, mem_size=1.0, mips_per_unit=500.0)
        for i in range(n)
    ])


def small_engine(tmp_path, **kw) -> SimEngine:
    cl = one_lane(2)
    job = Job.from_tasks(
        "J", [mk("t0"), mk("t1"), mk("t2", parents=("t0",))], deadline=1e6
    )
    defaults = dict(
        sim_config=SimConfig(epoch=1.0, scheduling_period=10.0),
        journal=tmp_path / "run.journal",
        snapshots=SnapshotConfig(directory=str(tmp_path / "snaps"), every_events=5),
    )
    defaults.update(kw)
    return SimEngine(cl, [job], HeuristicScheduler(cl), **defaults)


# ----------------------------------------------------------------- journal
class TestJournalFraming:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "j.journal"
        w = JournalWriter(path, fsync_every=2)
        records = [{"r": "pop", "i": i, "x": [1.5, None, "s"]} for i in range(7)]
        for r in records:
            w.append(r)
        w.close()
        got, valid = read_journal(path)
        assert got == records
        assert valid == path.stat().st_size

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "j.journal"
        w = JournalWriter(path)
        for i in range(3):
            w.append({"i": i})
        w.close()
        data = path.read_bytes()
        path.write_bytes(data[:-4])  # tear the last record mid-payload
        got, valid = read_journal(path)
        assert [r["i"] for r in got] == [0, 1]
        assert valid < len(data) - 4

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "j.journal"
        w = JournalWriter(path)
        for i in range(3):
            w.append({"i": i})
        w.close()
        data = bytearray(path.read_bytes())
        data[len(data) // 3] ^= 0xFF  # flip a byte well before the tail
        path.write_bytes(bytes(data))
        with pytest.raises(JournalCorrupt):
            read_journal(path)

    def test_truncate_at_reopens_for_resume(self, tmp_path):
        path = tmp_path / "j.journal"
        w = JournalWriter(path)
        w.append({"i": 0})
        w.append({"i": 1})
        offset = w.offset
        w.append({"i": 2})  # the post-snapshot suffix a crash leaves
        w.close()
        w2 = JournalWriter(path, truncate_at=offset)
        assert w2.offset == offset
        w2.append({"i": "replayed"})
        w2.close()
        got, _ = read_journal(path)
        assert [r["i"] for r in got] == [0, 1, "replayed"]

    def test_summarize(self, tmp_path):
        path = tmp_path / "j.journal"
        w = JournalWriter(path)
        w.append({"r": "pop", "t": 1.0, "q": 0, "k": "epoch_tick", "p": None})
        w.append({"r": "bus", "e": "EpochTick", "a": {"time": 1.0}})
        w.close()
        records, _ = read_journal(path)
        text = summarize_journal(records)
        assert "epoch_tick" in text and "EpochTick" in text


class TestCodecs:
    @pytest.mark.parametrize("payload", [
        None,
        "J0001",
        ("J0001.T0001", 3),
        FaultEvent(12.5, "n0", FaultKind.SLOWDOWN, factor=0.25),
    ])
    def test_payload_round_trip(self, payload):
        encoded = encode_payload(payload)
        assert json.loads(json.dumps(encoded)) == encoded  # pure JSON
        assert decode_payload(encoded) == payload

    def test_bus_event_round_trip(self):
        ev = TaskFinished(
            time=3.5, task_id="t0", node_id="n0", job_id="J",
            latency=1.25, speculative=False, job_completed=True,
        )
        encoded = encode_bus_event(ev)
        assert json.loads(json.dumps(encoded)) == encoded
        assert decode_bus_event(encoded) == ev

    def test_fast_renderers_match_json_dumps(self):
        """The recorder's compiled hot-path renderers must stay
        byte-identical to the reference json.dumps encoding — the soak
        harness golden-compares journals byte for byte, and mixed
        fast/reference writers (e.g. tests vs the live recorder) must
        interleave seamlessly in one file."""
        import dataclasses

        import repro.sim.kernel as kk
        from repro.sim.events import Event, EventKind
        from repro.sim.journal import _render_bus, _render_pop, encode_pop

        dumps = lambda r: json.dumps(r, separators=(",", ":"))  # noqa: E731

        # Every concrete BusEvent type, with awkward strings / int-valued
        # float fields to exercise the dynamic scalar path.
        count = 0
        for cls in vars(kk).values():
            if not (isinstance(cls, type) and issubclass(cls, kk.BusEvent)
                    and cls is not kk.BusEvent
                    and dataclasses.is_dataclass(cls)):
                continue
            vals = {}
            for i, f in enumerate(dataclasses.fields(cls)):
                ts = str(f.type)
                if "float" in ts:
                    vals[f.name] = 0 if i % 2 else 3.125  # int in a float slot
                elif "int" in ts:
                    vals[f.name] = 7
                elif "bool" in ts:
                    vals[f.name] = True
                else:
                    vals[f.name] = 'id-"quote"-\\back\tslash'
            ev = cls(**vals)
            assert _render_bus(ev) == dumps(
                {"r": "bus", **encode_bus_event(ev)}
            ), cls.__name__
            count += 1
        assert count > 10  # the sweep actually found the event taxonomy

        for pop in [
            Event(time=1.5, seq=3, kind=EventKind.EPOCH_TICK, payload=None),
            Event(time=0.0, seq=0, kind=EventKind.JOB_ARRIVAL, payload="J1"),
            Event(time=2.25, seq=9, kind=EventKind.TASK_FINISH,
                  payload=('t"\\u', 4)),
            Event(time=2.0, seq=1, kind=EventKind.FAULT,
                  payload=FaultEvent(12.5, "n0", FaultKind.SLOWDOWN, 0.25)),
        ]:
            assert _render_pop(pop) == dumps(encode_pop(pop))


class TestRenderSlices:
    """The recorder renders in slices of at most ``RENDER_SLICE`` records,
    while the file and its fsync points stay those of one batch."""

    def test_slices_bound_pending_and_keep_bytes_and_fsyncs(
        self, tmp_path, monkeypatch
    ):
        synced: list[int] = []  # file size at each fsync
        monkeypatch.setattr(
            journal_mod.os, "fsync", lambda fd: synced.append(os.fstat(fd).st_size)
        )
        cl = cluster_profile("cluster")
        jobs = build_workload_for_cluster(
            30, cl, scale=6.0, seed=1, config=default_config()
        ).jobs
        path = tmp_path / "run.journal"
        engine = SimEngine(cl, list(jobs), HeuristicScheduler(cl), journal=path)
        recorder = engine.journal
        events: list = []
        pending: list[int] = []

        def after_recorder(event) -> None:
            events.append(event)
            pending.append(len(recorder._pending))

        engine.runtime.kernel.pop_observers.append(after_recorder)
        engine.runtime.bus.subscribe_all(after_recorder)
        engine.run()
        *cadence, run_end = synced  # run() ends with a flush, which fsyncs
        engine.journal.close()

        assert max(pending) == RENDER_SLICE - 1
        data = path.read_bytes()
        ends = [i + 1 for i, byte in enumerate(data) if byte == 0x0A]
        assert len(ends) == len(events) > 2 * 8192
        assert len(cadence) == len(events) // 8192
        assert cadence == ends[8191::8192]
        assert run_end == len(data)

        one_batch = tmp_path / "one.journal"
        writer = JournalWriter(one_batch)
        writer.append_batch(
            journal_mod._render_pop(ev) if type(ev) is journal_mod.Event
            else journal_mod._render_bus(ev)
            for ev in events
        )
        writer.close()
        assert one_batch.read_bytes() == data


# --------------------------------------------------------------- snapshots
class TestSnapshotFormat:
    def test_snapshot_is_pure_json(self, tmp_path):
        engine = small_engine(tmp_path)
        data = engine.snapshot()
        assert json.loads(json.dumps(data)) == data

    def test_future_version_fails_loudly(self, tmp_path):
        engine = small_engine(tmp_path)
        data = engine.snapshot()
        data["version"] = SNAPSHOT_VERSION + 1
        path = tmp_path / "snapshot-99999999.json"
        write_snapshot(path, data)
        with pytest.raises(SnapshotVersionError):
            load_snapshot(path)
        # ...even via the corruption-tolerant directory scan: a future
        # version is an operator error, not a crash artifact.
        with pytest.raises(SnapshotVersionError):
            latest_valid_snapshot(tmp_path)

    def test_unknown_format_fails(self, tmp_path):
        path = tmp_path / "snapshot-00000001.json"
        path.write_text(json.dumps({"format": "something-else", "version": 1}))
        with pytest.raises(SnapshotVersionError):
            load_snapshot(path)

    def test_corrupt_file_skipped_by_latest(self, tmp_path):
        engine = small_engine(tmp_path)
        good = engine.snapshot()
        write_snapshot(tmp_path / "snapshot-00000001.json", good)
        (tmp_path / "snapshot-00000002.json").write_text("{ torn garba")
        path, data = latest_valid_snapshot(tmp_path)
        assert path.name == "snapshot-00000001.json"
        assert data == good

    def test_empty_dir_returns_none(self, tmp_path):
        assert latest_valid_snapshot(tmp_path) is None
        assert latest_valid_snapshot(tmp_path / "missing") is None

    def test_io_fault_mid_write_preserves_previous(self, tmp_path):
        engine = small_engine(tmp_path)
        data = engine.snapshot()
        path = tmp_path / "snapshot-00000001.json"
        write_snapshot(path, data)

        def boom() -> None:
            raise SimulatedCrash("disk died mid-write")

        with pytest.raises(SimulatedCrash):
            write_snapshot(path, {**data, "pops": 999}, io_fault=boom)
        # The atomic tmp+rename protocol: the old file is untouched.
        assert load_snapshot(path) == data


class TestSnapshotManager:
    def test_cadence_and_rotation(self, tmp_path):
        cfg = SnapshotConfig(
            directory=str(tmp_path / "snaps"), every_events=10, keep=3
        )
        engine = small_engine(tmp_path, snapshots=cfg)
        engine.run()
        pops = engine.runtime.kernel.pops
        assert engine.snapshots.written == pops // 10
        rotated = sorted(p.name for p in (tmp_path / "snaps").iterdir()
                         if p.name.endswith(".json"))
        assert len(rotated) == min(3, engine.snapshots.written)
        # Named by pop count: numbering is monotone across resumes.
        assert rotated[-1] == f"snapshot-{(pops // 10) * 10:08d}.json"


class TestRestoreGuards:
    def test_fingerprint_mismatch_rejected(self, tmp_path):
        engine = small_engine(tmp_path)
        data = engine.snapshot()
        other = small_engine(tmp_path / "b", record_trace=True)  # different wiring
        with pytest.raises(SnapshotError, match="fingerprint"):
            from repro.sim import restore_into
            restore_into(other, data)

    def test_restore_into_run_engine_rejected(self, tmp_path):
        engine = small_engine(tmp_path)
        data = engine.snapshot()
        engine.run()
        with pytest.raises(SnapshotError, match="fresh"):
            from repro.sim import restore_into
            restore_into(engine, data)

    def test_scheduler_without_protocol_rejected_when_rounds_remain(self, tmp_path):
        class OpaqueScheduler:
            """No snapshot_state/restore_state; cross-round state lost."""

            def __init__(self, inner):
                self._inner = inner

            def schedule(self, jobs):
                return self._inner.schedule(jobs)

        cl = one_lane(2)
        job = Job.from_tasks("J", [mk("t0")], deadline=1e6)
        engine = SimEngine(
            cl, [job], OpaqueScheduler(HeuristicScheduler(cl)),
            sim_config=SimConfig(epoch=1.0, scheduling_period=10.0),
        )
        # Before run() no job has arrived: future rounds remain.
        with pytest.raises(SnapshotError, match="snapshot_state"):
            snapshot_engine(engine)


# ----------------------------------------------------- crash-resume parity
class TestCrashResumeParity:
    """Golden parity: >= 5 seeded chaos runs per policy, each crashed at
    a random event, recovered, and compared byte-for-byte."""

    @pytest.mark.parametrize("policy", ["dsp", "fcfs", "srpt"])
    def test_seeded_chaos_crash_resume(self, policy, tmp_path):
        for seed in range(5):
            # Indices that hit (policy, chaos, resilience) combinations:
            # walk soak's coprime grid until the policy matches.
            index = seed * len(soak.POLICY_NAMES) + soak.POLICY_NAMES.index(policy)
            case = soak.build_case(index, base_seed=100 + seed)
            scratch = tmp_path / f"case-{index}"
            scratch.mkdir()
            outcome = soak.check_crash(case, scratch, {})
            assert outcome.status in ("ok", "abort"), (
                f"policy={policy} seed={seed} case={case}: "
                f"{outcome.error_type}: {outcome.message}"
            )

    def test_resume_restores_error_context_counters(self, tmp_path):
        """After restore, the kernel's pop counter and position() context
        continue from the snapshot, not from zero (satellite: mid-run
        errors carry sim time + last event)."""
        engine = small_engine(tmp_path)
        engine.run()
        total = engine.runtime.kernel.pops

        engine2 = small_engine(tmp_path / "b")
        inject_crash(engine2, at_pop=total // 2)
        with pytest.raises(SimulatedCrash, match=r"t=\d"):
            engine2.run()
        found = latest_valid_snapshot(tmp_path / "b" / "snaps")
        assert found is not None
        _, data = found
        cl = one_lane(2)
        job = Job.from_tasks(
            "J", [mk("t0"), mk("t1"), mk("t2", parents=("t0",))], deadline=1e6
        )
        engine3 = SimEngine.restore(
            data, cl, [job], HeuristicScheduler(cl),
            sim_config=SimConfig(epoch=1.0, scheduling_period=10.0),
            journal=tmp_path / "b" / "run.journal",
            snapshots=SnapshotConfig(
                directory=str(tmp_path / "b" / "snaps"), every_events=5
            ),
        )
        assert engine3.runtime.kernel.pops == data["kernel"]["pops"]
        assert "last popped" in engine3.runtime.kernel.position()
        engine3.run()
        assert engine3.runtime.kernel.pops == total
        # The journal rewrote its suffix byte-identically.
        ref = (tmp_path / "run.journal").read_bytes()
        rec = (tmp_path / "b" / "run.journal").read_bytes()
        assert rec == ref
