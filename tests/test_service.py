"""Tests for the scheduler-as-a-service layer (repro.service).

Covers, bottom-up: the wire protocol, the admission controller, the
streaming engine substrate, the deterministic service core (including
the kill-9 golden-compare recovery story), and the asyncio frontend over
both transports.
"""

import asyncio
import dataclasses
import hashlib
import json
import os

import pytest

from repro.cluster import Cluster, NodeSpec
from repro.config import ServiceConfig, TenantQuota
from repro.core import HeuristicScheduler
from repro.dag.job import Job
from repro.service import (
    AdmissionController,
    Comm,
    ServiceClient,
    ServiceCore,
    ServiceFrontend,
    TokenBucket,
    connect,
)
from repro.service.protocol import (
    ProtocolError,
    decode_frame,
    decode_job_spec,
    encode_frame,
    reply,
    split_frames,
)
from repro.sim import SimEngine, SimulationError


def make_cluster(n=4):
    return Cluster([
        NodeSpec(node_id=f"n{i}", cpu_size=8.0, mem_size=8.0, mips_per_unit=100.0)
        for i in range(n)
    ])


def make_core(tmp_path=None, **cfg_kwargs):
    cfg_kwargs.setdefault("cycle_period", 0.5)
    cfg_kwargs.setdefault("pump_events", 32)
    cfg_kwargs.setdefault(
        "default_quota", TenantQuota(rate=100.0, burst=50, max_pending=128)
    )
    cfg = ServiceConfig(**cfg_kwargs)
    cluster = make_cluster()
    return ServiceCore(
        cluster, HeuristicScheduler(make_cluster()), cfg,
        data_dir=tmp_path,
    )


def job_spec(jid, ntasks=2, deadline=500.0):
    return {
        "job_id": jid,
        "deadline": deadline,
        "tasks": [
            {
                "task_id": f"t{t}",
                "size_mi": 50.0,
                "demand": {"cpu": 1.0, "mem": 1.0},
                "parents": [f"t{t-1}"] if t else [],
            }
            for t in range(ntasks)
        ],
    }


def submit_req(tenant, jid, **spec_kwargs):
    return {"op": "submit_job", "tenant": tenant, "job": job_spec(jid, **spec_kwargs)}


# --------------------------------------------------------------- protocol
class TestProtocol:
    def test_frame_roundtrip(self):
        msg = {"op": "status", "tenant": "a", "req": 7}
        assert decode_frame(encode_frame(msg)) == msg

    def test_split_frames_handles_partials(self):
        a = encode_frame({"x": 1})
        b = encode_frame({"y": 2})
        msgs, rest = split_frames(a + b[:3])
        assert msgs == [{"x": 1}] and rest == b[:3]
        msgs, rest = split_frames(rest + b[3:])
        assert msgs == [{"y": 2}] and rest == b""

    def test_oversize_frame_rejected(self):
        huge = (2**32 - 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError):
            split_frames(huge + b"x")

    def test_reply_echoes_req_id(self):
        assert reply({"req": 42}, "ok")["req"] == 42
        assert "req" not in reply({}, "ok")

    def test_decode_job_spec_namespaces(self):
        job, rel = decode_job_spec("acme", job_spec("j1"), arrival=3.0)
        assert job.job_id == "acme/j1"
        assert set(job.tasks) == {"acme/j1/t0", "acme/j1/t1"}
        assert job.arrival_time == 3.0
        assert job.deadline == 3.0 + rel

    @pytest.mark.parametrize("mutate", [
        lambda s: s.update(job_id="a/b"),
        lambda s: s.update(job_id=""),
        lambda s: s.update(tasks=[]),
        lambda s: s.update(deadline=-1.0),
        lambda s: s["tasks"][0].update(size_mi=0),
        lambda s: s["tasks"][0].update(demand={"cpu": -1}),
        lambda s: s["tasks"][1].update(parents=["nope"]),
        lambda s: s["tasks"][1].update(task_id="t0"),
    ])
    def test_decode_job_spec_rejects_bad_specs(self, mutate):
        spec = job_spec("j1")
        mutate(spec)
        with pytest.raises(ProtocolError):
            decode_job_spec("acme", spec, arrival=0.0)

    def test_decode_job_spec_rejects_cycles(self):
        spec = job_spec("j1")
        spec["tasks"][0]["parents"] = ["t1"]
        with pytest.raises(ProtocolError):
            decode_job_spec("acme", spec, arrival=0.0)


# -------------------------------------------------------------- admission
class TestTokenBucket:
    def test_burst_then_rate(self):
        b = TokenBucket(rate=2.0, burst=3, now=0.0)
        assert [b.take(0.0) for _ in range(3)] == [0.0, 0.0, 0.0]
        wait = b.take(0.0)
        assert wait == pytest.approx(0.5)
        assert b.take(0.5) == 0.0  # one token accrued

    def test_refill_caps_at_burst(self):
        b = TokenBucket(rate=10.0, burst=2, now=0.0)
        b.take(0.0)
        assert b.peek(100.0)
        assert b.tokens == 2.0


class TestAdmissionController:
    def cfg(self, **kw):
        kw.setdefault("max_total_pending", 16)
        kw.setdefault("shed_threshold", 0.5)
        kw.setdefault(
            "default_quota", TenantQuota(rate=100.0, burst=50, max_pending=8)
        )
        return ServiceConfig(**kw)

    def test_queue_and_fair_drain(self):
        cfg = self.cfg(quotas=(
            ("big", TenantQuota(rate=100.0, burst=50, max_pending=8, share=2.0)),
        ))
        ac = AdmissionController(cfg)
        for i in range(4):
            assert ac.offer("big", f"big/j{i}", None, 0.0)[0] == "queued"
            assert ac.offer("small", f"small/j{i}", None, 0.0)[0] == "queued"
        batch = [e.job_id for _, e in ac.drain(6)]
        # share 2:1 → big admits two for every one of small's.
        assert batch.count("big/j0") + batch.count("big/j1") + batch.count(
            "big/j2"
        ) + batch.count("big/j3") == 4
        assert batch[:3].count("small/j0") == 1  # small is not starved
        assert ac.total_pending == 2

    def test_tenant_queue_backpressure(self):
        ac = AdmissionController(self.cfg())
        for i in range(8):
            assert ac.offer("t", f"t/j{i}", None, 0.0)[0] == "queued"
        verdict, retry_after = ac.offer("t", "t/j8", None, 0.0)
        assert verdict == "retry" and retry_after > 0

    def test_rate_limit_backpressure(self):
        cfg = self.cfg(default_quota=TenantQuota(rate=1.0, burst=1, max_pending=8))
        ac = AdmissionController(cfg)
        assert ac.offer("t", "t/j0", None, 0.0)[0] == "queued"
        verdict, retry_after = ac.offer("t", "t/j1", None, 0.0)
        assert verdict == "retry"
        assert retry_after == pytest.approx(1.0)

    def test_global_cap_sheds(self):
        cfg = self.cfg(max_total_pending=4, shed_threshold=0.99)
        ac = AdmissionController(cfg)
        for i in range(4):
            ac.offer("t", f"t/j{i}", None, 0.0)
        assert ac.offer("t", "t/j4", None, 0.0)[0] == "shed"
        assert ac.offer("other", "other/j0", None, 0.0)[0] == "shed"

    def test_saturation_sheds_only_over_fair_slice(self):
        # Cap 16, threshold 0.5 → saturated at 8 pending.  Two equal-share
        # tenants → fair slice 8 each: the hog over its slice is shed, the
        # tenant within its slice still queues.
        cfg = self.cfg(quotas=(
            ("hog", TenantQuota(rate=1000.0, burst=1000, max_pending=100)),
        ))
        ac = AdmissionController(cfg)
        assert ac.offer("tiny", "tiny/j0", None, 0.0)[0] == "queued"
        verdicts = [ac.offer("hog", f"hog/j{i}", None, 0.0)[0] for i in range(10)]
        assert verdicts[:9] == ["queued"] * 9
        assert verdicts[9] == "shed"  # 9 pending > fair slice of 8
        assert ac.offer("tiny", "tiny/j1", None, 0.0)[0] == "queued"

    def test_expire_answers_timeout(self):
        cfg = self.cfg(request_deadline=2.0)
        ac = AdmissionController(cfg)
        ac.offer("t", "t/j0", "payload0", 0.0)
        ac.offer("t", "t/j1", "payload1", 1.5)
        expired = ac.expire(2.0)
        assert [e.job_id for _, e in expired] == ["t/j0"]
        assert ac.total_pending == 1
        assert ac.tenant("t").timeouts == 1

    def test_cancel_removes_pending(self):
        ac = AdmissionController(self.cfg())
        ac.offer("t", "t/j0", None, 0.0)
        assert ac.cancel("t", "t/j0") is not None
        assert ac.cancel("t", "t/j0") is None
        assert ac.total_pending == 0

    def test_stats_counters(self):
        ac = AdmissionController(self.cfg())
        ac.offer("t", "t/j0", None, 0.0)
        ac.drain(1)
        stats = ac.stats()
        assert stats["tenants"]["t"]["submitted"] == 1
        assert stats["tenants"]["t"]["admitted"] == 1
        assert stats["total_pending"] == 0


# ------------------------------------------------------- streaming engine
class TestStreamingEngine:
    def engine(self):
        cluster = make_cluster()
        return SimEngine(
            cluster, [], HeuristicScheduler(make_cluster()), streaming=True
        )

    def test_submit_pump_finalize(self):
        eng = self.engine()
        job, _ = decode_job_spec("a", job_spec("j1"), arrival=0.0)
        eng.submit_job(job)
        while not eng.runtime.state.all_done():
            assert eng.pump(16) > 0
        metrics = eng.finalize()
        assert metrics.tasks_completed == 2

    def test_submission_after_progress(self):
        eng = self.engine()
        j1, _ = decode_job_spec("a", job_spec("j1"), arrival=0.0)
        eng.submit_job(j1)
        while not eng.runtime.state.all_done():
            eng.pump(16)
        # The heap is drained; a late submission must re-arm scheduling.
        j2, _ = decode_job_spec("a", job_spec("j2"), arrival=eng.now + 1.0)
        eng.submit_job(j2)
        while not eng.runtime.state.all_done():
            assert eng.pump(16) > 0
        assert eng.runtime.state.completed_tasks == 4

    def test_duplicate_job_rejected_state_unchanged(self):
        eng = self.engine()
        job, _ = decode_job_spec("a", job_spec("j1"), arrival=0.0)
        eng.submit_job(job)
        before = len(eng.runtime.state.tasks)
        dup, _ = decode_job_spec("a", job_spec("j1"), arrival=0.0)
        with pytest.raises(ValueError):
            eng.submit_job(dup)
        assert len(eng.runtime.state.tasks) == before

    def test_past_arrival_rejected(self):
        eng = self.engine()
        j1, _ = decode_job_spec("a", job_spec("j1"), arrival=0.0)
        eng.submit_job(j1)
        eng.pump(8)
        assert eng.now > 0
        late, _ = decode_job_spec("a", job_spec("j2"), arrival=0.0)
        with pytest.raises(ValueError):
            eng.submit_job(late)

    def test_run_forbidden_in_streaming_mode(self):
        with pytest.raises(SimulationError):
            self.engine().run()

    def test_batch_engine_rejects_submit(self):
        cluster = make_cluster()
        job, _ = decode_job_spec("a", job_spec("j1"), arrival=0.0)
        eng = SimEngine(cluster, [job], HeuristicScheduler(make_cluster()))
        with pytest.raises(SimulationError):
            eng.submit_job(job)


# ------------------------------------------------------------ service core
class TestServiceCore:
    def test_submit_ack_after_cycle(self):
        core = make_core()
        ticket = core.submit(submit_req("a", "j1"))
        assert not isinstance(ticket, dict)
        resolved = core.run_cycle()
        core.pump()
        assert ticket in resolved
        assert ticket.reply["status"] == "ok"
        core.close()

    def test_virtual_clock(self):
        core = make_core()
        assert core.now == 0.0
        core.run_cycle()
        core.pump()
        core.run_cycle()
        core.pump()
        assert core.now == pytest.approx(1.0)  # 2 × cycle_period 0.5
        core.close()

    def test_duplicate_and_invalid_rejected_immediately(self):
        core = make_core()
        core.submit(submit_req("a", "j1"))
        core.run_cycle()
        core.pump()
        dup = core.submit(submit_req("a", "j1"))
        assert dup["status"] == "rejected" and "duplicate" in dup["error"]
        bad = core.submit({"op": "submit_job", "tenant": "x/y", "job": job_spec("j")})
        assert bad["status"] == "rejected"
        core.close()

    def test_cancel_pending_only(self):
        core = make_core(admission_per_cycle=1)
        t1 = core.submit(submit_req("a", "j1"))
        t2 = core.submit(submit_req("a", "j2"))
        core.run_cycle()  # admits j1 only
        core.pump()
        assert t1.reply["status"] == "ok"
        r = core.cancel({"op": "cancel", "tenant": "a", "job_id": "j2"})
        assert r["status"] == "ok" and r["state"] == "cancelled"
        assert t2.reply["status"] == "rejected"
        r = core.cancel({"op": "cancel", "tenant": "a", "job_id": "j1"})
        assert r["status"] == "rejected" and "admitted" in r["error"]
        core.close()

    def test_status_lifecycle(self):
        core = make_core(admission_per_cycle=1)
        core.submit(submit_req("a", "j1"))
        core.submit(submit_req("a", "j2"))
        sreq = {"op": "status", "tenant": "a", "job_id": "j2"}
        assert core.status(sreq)["state"] == "pending"
        core.run_cycle()
        core.pump()
        assert core.status({"op": "status", "tenant": "a", "job_id": "j1"})[
            "state"
        ] in ("running", "completed")
        for _ in range(40):
            core.run_cycle()
            core.pump()
        assert core.status({"op": "status", "tenant": "a", "job_id": "j1"})[
            "state"
        ] == "completed"
        assert core.status({"op": "status", "tenant": "a", "job_id": "zz"})[
            "state"
        ] == "unknown"
        server = core.status({"op": "status", "tenant": "a"})
        assert server["jobs"] == 2 and server["draining"] is False
        core.close()

    def test_request_deadline_times_out(self):
        core = make_core(admission_per_cycle=1, request_deadline=1.0)
        tickets = [core.submit(submit_req("a", f"j{i}")) for i in range(5)]
        for _ in range(4):
            core.run_cycle()
            core.pump()
        statuses = [t.reply["status"] for t in tickets if t.reply]
        assert "timeout" in statuses  # the backlog tail expired at t>=1.0
        core.close()

    def test_drain_rejects_pending_finishes_admitted(self):
        core = make_core(admission_per_cycle=1)
        t1 = core.submit(submit_req("a", "j1"))
        t2 = core.submit(submit_req("a", "j2"))
        core.run_cycle()
        core.pump()
        stats = core.drain()
        assert t1.reply["status"] == "ok"
        assert t2.reply["status"] == "rejected"
        assert stats["engine"]["tasks_done"] == 2  # only j1's tasks ran
        assert core.closed
        post = core.submit(submit_req("a", "j3"))
        assert post["status"] == "rejected"

    def test_shed_under_overload(self):
        core = make_core(
            max_total_pending=4, shed_threshold=0.99,
            default_quota=TenantQuota(rate=1000.0, burst=1000, max_pending=1000),
        )
        replies = [core.submit(submit_req("a", f"j{i}")) for i in range(8)]
        immediate = [r for r in replies if isinstance(r, dict)]
        assert len(immediate) == 4
        assert all(r["status"] == "shed" for r in immediate)
        # Reads still answer while shedding.
        assert core.status({"op": "status", "tenant": "a"})["status"] == "ok"
        assert core.stats()["status"] == "ok"
        core.close()

    def test_snapshot_rotation(self, tmp_path):
        core = make_core(tmp_path / "svc", snapshot_every_cycles=1)
        core.submit(submit_req("a", "j1"))
        for _ in range(6):
            core.run_cycle()
            core.pump()
        snaps = sorted((tmp_path / "svc" / "snapshots").glob("service-*.json"))
        assert len(snaps) == 3  # rotated, newest kept
        core.close()

    def test_admitted_job_equals_fresh_decode(self):
        """Admission retimes the job decoded at offer time; the result is
        the job a fresh decode at the admission arrival would build."""
        core = make_core(pump_events=8)
        submitted = []
        inner = core.engine.submit_job
        core.engine.submit_job = lambda job: (
            submitted.append((job, core.now)), inner(job)
        )
        for k in range(6):
            spec = job_spec(f"j{k}", ntasks=3, deadline=123.456 + k / 7)
            core.submit({"op": "submit_job", "tenant": "a", "job": spec})
            for _ in range(3):
                core.run_cycle()
                core.pump()
        assert len(submitted) == 6
        # Some arrivals come from the engine clock, which ran ahead.
        assert any(job.arrival_time > now for job, now in submitted)
        for k, (job, _now) in enumerate(submitted):
            spec = job_spec(f"j{k}", ntasks=3, deadline=123.456 + k / 7)
            fresh, _ = decode_job_spec("a", spec, arrival=job.arrival_time)
            for f in dataclasses.fields(Job):
                assert getattr(job, f.name) == getattr(fresh, f.name), f.name
            assert job.deadline.hex() == fresh.deadline.hex()
            assert job.arrival_time.hex() == fresh.arrival_time.hex()
            assert job.topo_order == fresh.topo_order
        core.close()

    def test_admission_journal_bytes_pinned(self, tmp_path):
        """The admission journal of the kill-9 script, byte for byte (its
        arrivals include engine-clock ones such as 605.6875)."""
        core = ServiceCore(
            make_cluster(), HeuristicScheduler(make_cluster()), recovery_cfg(),
            data_dir=tmp_path / "svc",
        )
        drive(core, 0, TOTAL_CYCLES)
        core.close()
        data = (tmp_path / "svc" / "admissions.jsonl").read_bytes()
        assert len(data) == 2003
        assert hashlib.sha256(data).hexdigest() == (
            "a557325c8f463304ed04e3a8cda9107c1beac116e983c6c9e1117f3f4f8eb18b"
        )


# ---------------------------------------------------------- kill-9 recovery
SCRIPT = {
    1: [("a", "j1"), ("b", "j2")],
    3: [("a", "j3")],
    6: [("c", "j4"), ("a", "j5")],
    9: [("b", "j6")],
}
TOTAL_CYCLES = 14


def recovery_cfg():
    return ServiceConfig(
        cycle_period=0.5, pump_events=32, snapshot_every_cycles=4,
        default_quota=TenantQuota(rate=100.0, burst=50, max_pending=128),
    )


def drive(core, start_cycle, end_cycle):
    acked = []
    for k in range(start_cycle + 1, end_cycle + 1):
        for tenant, jid in SCRIPT.get(k, ()):
            t = core.submit(submit_req(tenant, jid, ntasks=3))
            assert not isinstance(t, dict), t
        resolved = core.run_cycle()
        core.pump()
        for t in resolved:
            assert t.reply["status"] == "ok"
            acked.append(t.job_id)
    return acked


class TestKill9Recovery:
    def golden(self, tmp_path):
        gold = ServiceCore(
            make_cluster(), HeuristicScheduler(make_cluster()), recovery_cfg(),
            data_dir=tmp_path / "gold",
        )
        acked = drive(gold, 0, TOTAL_CYCLES)
        stats = gold.stats()
        gold.close()
        journal = (tmp_path / "gold" / "engine.jsonl").read_bytes()
        return acked, stats, journal

    def crash_at(self, tmp_path, crash_cycle):
        core = ServiceCore(
            make_cluster(), HeuristicScheduler(make_cluster()), recovery_cfg(),
            data_dir=tmp_path / "crash",
        )
        acked = drive(core, 0, crash_cycle)
        # kill -9: abandon without close/flush beyond what run_cycle did.
        if core.engine.journal is not None:
            core.engine.journal.flush()
        return acked

    def recover_and_finish(self, tmp_path):
        rec = ServiceCore.recover(
            make_cluster(), HeuristicScheduler(make_cluster()), recovery_cfg(),
            data_dir=tmp_path / "crash",
        )
        acked = drive(rec, rec.cycle, TOTAL_CYCLES)
        stats = rec.stats()
        rec.close()
        return acked, stats, (tmp_path / "crash" / "engine.jsonl").read_bytes()

    @pytest.mark.parametrize("crash_cycle", [2, 5, 10])
    def test_no_acknowledged_job_lost_and_bit_identical(self, tmp_path, crash_cycle):
        g_acked, g_stats, g_journal = self.golden(tmp_path)
        c_acked = self.crash_at(tmp_path, crash_cycle)
        r_acked, r_stats, r_journal = self.recover_and_finish(tmp_path)
        assert set(g_acked) == set(c_acked) | set(r_acked)
        assert g_stats["engine"] == r_stats["engine"]
        assert g_journal == r_journal  # byte-identical continuation

    def test_recovery_without_snapshot_replays_journal(self, tmp_path):
        cfg = recovery_cfg().replace(snapshot_every_cycles=0)
        core = ServiceCore(
            make_cluster(), HeuristicScheduler(make_cluster()), cfg,
            data_dir=tmp_path / "crash",
        )
        acked = []
        for k in range(1, 5):
            for tenant, jid in SCRIPT.get(k, ()):
                core.submit(submit_req(tenant, jid, ntasks=3))
            acked += [t.job_id for t in core.run_cycle()]
            core.pump()
        del core  # kill -9
        rec = ServiceCore.recover(
            make_cluster(), HeuristicScheduler(make_cluster()), cfg,
            data_dir=tmp_path / "crash",
        )
        state = rec.engine.runtime.state
        assert set(acked) <= set(state.jobs)
        drive(rec, rec.cycle, TOTAL_CYCLES)
        assert state.all_done()
        rec.close()

    def test_torn_admission_tail_loses_only_unacked(self, tmp_path):
        core = ServiceCore(
            make_cluster(), HeuristicScheduler(make_cluster()), recovery_cfg(),
            data_dir=tmp_path / "crash",
        )
        acked = drive(core, 0, 6)
        # Simulate a crash mid-append: chop bytes off the admission journal.
        adm = tmp_path / "crash" / "admissions.jsonl"
        core.engine.journal.flush()
        data = adm.read_bytes()
        adm.write_bytes(data[:-9])
        rec = ServiceCore.recover(
            make_cluster(), HeuristicScheduler(make_cluster()), recovery_cfg(),
            data_dir=tmp_path / "crash",
        )
        jobs = set(rec.engine.runtime.state.jobs)
        # The torn record was the LAST admission (cycle 6); every earlier
        # acknowledged admission survives.
        acked_before_tail = [j for j in acked if j != acked[-1]]
        assert set(acked_before_tail) <= jobs
        rec.close()


# ----------------------------------------------------------- frontend/comm
def run_async(coro):
    return asyncio.run(coro)


async def start_frontend(core, address):
    fe = ServiceFrontend(core)
    bound = await fe.start(address)
    return fe, bound


class TestFrontendInproc:
    def test_concurrent_clients_all_acked(self):
        async def main():
            core = make_core()
            fe, addr = await start_frontend(core, "inproc://t-concurrent")

            async def one(i):
                async with await ServiceClient.connect(addr) as c:
                    return await c.submit_job(f"team{i % 4}", job_spec(f"j{i}"))

            replies = await asyncio.gather(*[one(i) for i in range(40)])
            assert all(r["status"] == "ok" for r in replies)
            stats = await fe.drain_and_stop()
            assert stats["engine"]["jobs"] == 40
            assert stats["engine"]["tasks_done"] == 80

        run_async(main())

    def test_status_answers_during_backlog(self):
        async def main():
            core = make_core(admission_per_cycle=1, pump_events=4)
            fe, addr = await start_frontend(core, "inproc://t-status")
            submitters = []
            for i in range(10):
                c = await ServiceClient.connect(addr)
                submitters.append(
                    asyncio.ensure_future(c.submit_job("a", job_spec(f"j{i}")))
                )
            await asyncio.sleep(0)
            async with await ServiceClient.connect(addr) as probe:
                st = await asyncio.wait_for(probe.status(), timeout=5)
                assert st["status"] == "ok"
            await asyncio.gather(*submitters)
            await fe.drain_and_stop()

        run_async(main())

    def test_overload_sheds_but_never_drops_silently(self):
        async def main():
            core = make_core(
                max_total_pending=8, shed_threshold=0.5, admission_per_cycle=2,
                pump_events=8,
                default_quota=TenantQuota(rate=1000.0, burst=1000, max_pending=1000),
            )
            fe, addr = await start_frontend(core, "inproc://t-overload")

            async def one(i):
                async with await ServiceClient.connect(addr) as c:
                    return await c.submit_job("hog", job_spec(f"j{i}"))

            replies = await asyncio.gather(*[one(i) for i in range(60)])
            statuses = {r["status"] for r in replies}
            assert len(replies) == 60  # every request answered
            assert "shed" in statuses  # overload visible, not silent
            acked = [r for r in replies if r["status"] == "ok"]
            stats = await fe.drain_and_stop()
            # Zero acknowledged-job loss even under shedding.
            assert stats["engine"]["jobs"] == len(acked)

        run_async(main())

    def test_cancel_and_error_paths(self):
        async def main():
            core = make_core(admission_per_cycle=1)
            fe, addr = await start_frontend(core, "inproc://t-cancel")
            async with await ServiceClient.connect(addr) as c:
                bad = await c.request({"op": "bogus"})
                assert bad["status"] == "error"
                malformed = await c.submit_job("a", {"job_id": "x"})
                assert malformed["status"] == "rejected"
            await fe.drain_and_stop()

        run_async(main())

    def test_drain_op_over_the_wire(self):
        async def main():
            core = make_core()
            fe, addr = await start_frontend(core, "inproc://t-drain")
            async with await ServiceClient.connect(addr) as c:
                r = await c.submit_job("a", job_spec("j1"))
                assert r["status"] == "ok"
                final = await c.drain()
                assert final["status"] == "ok" and final["draining"]
            assert core.closed

        run_async(main())

    def test_ack_reaches_client_before_its_cycle_pumps(self):
        """Every ``ok`` is read by its client before the pump of the cycle
        that admitted it starts."""
        async def main():
            core = make_core(admission_per_cycle=3)
            events = []
            inner = core.engine.pump
            core.engine.pump = lambda n: (events.append(("pump", core.cycle)), inner(n))[1]
            fe, addr = await start_frontend(core, "inproc://t-ack-order")

            async def one(i):
                async with await ServiceClient.connect(addr) as c:
                    r = await c.submit_job(f"team{i % 3}", job_spec(f"j{i}"))
                    assert r["status"] == "ok"
                    events.append(("ack", r["cycle"]))

            await asyncio.gather(*[one(i) for i in range(12)])
            await fe.drain_and_stop()
            acks = [(i, c) for i, (kind, c) in enumerate(events) if kind == "ack"]
            assert len(acks) == 12
            for i, cycle in acks:
                assert events.index(("pump", cycle)) > i, (cycle, events)

        run_async(main())

    def test_admission_fsync_precedes_hand_off(self, tmp_path, monkeypatch):
        async def main():
            core = make_core(tmp_path / "svc")
            adm_fd = core._adm_writer._file.fileno()
            events = []
            real_fsync = os.fsync

            def fsync(fd):
                if fd == adm_fd:
                    events.append(("fsync", core.cycle))
                return real_fsync(fd)

            monkeypatch.setattr(os, "fsync", fsync)
            fe, addr = await start_frontend(core, "inproc://t-fsync")
            inner = fe._hand_off

            def hand_off(resolved):
                events.extend(("hand_off", t.reply["cycle"]) for t in resolved
                              if t.reply["status"] == "ok")
                inner(resolved)

            fe._hand_off = hand_off

            async def one(i):
                async with await ServiceClient.connect(addr) as c:
                    return await c.submit_job("a", job_spec(f"j{i}"))

            replies = await asyncio.gather(*[one(i) for i in range(6)])
            assert all(r["status"] == "ok" for r in replies)
            await fe.drain_and_stop()
            handed = [(i, c) for i, (kind, c) in enumerate(events) if kind == "hand_off"]
            assert len(handed) == 6
            for i, cycle in handed:
                assert events.index(("fsync", cycle)) < i, events

        run_async(main())

    def test_stuck_and_vanished_clients_block_nothing(self):
        """A comm whose send never completes and a client gone before its
        ack hold neither the cycle's pump nor drain_and_stop."""

        class StuckComm(Comm):
            def __init__(self, request):
                self.inbox = [request]
                self.written = []
                self._closed = False

            def write(self, message):
                self.written.append(message)

            async def drain(self):
                await asyncio.get_running_loop().create_future()  # never

            async def recv(self):
                if self.inbox:
                    return self.inbox.pop()
                await asyncio.get_running_loop().create_future()

            async def close(self):
                self._closed = True

            @property
            def closed(self):
                return self._closed

        async def main():
            core = make_core()
            fe, addr = await start_frontend(core, "inproc://t-stuck")
            stuck = StuckComm(submit_req("a", "stuck"))
            handler = asyncio.ensure_future(fe._handle_comm(stuck))
            gone = await connect(addr)
            await gone.send(submit_req("a", "gone"))
            await gone.close()
            jobs = core.engine.runtime.state.jobs
            while len(jobs) < 2 or not core.engine.runtime.state.all_done():
                await asyncio.sleep(0.001)
            assert [m["status"] for m in stuck.written] == ["ok"]
            stats = await asyncio.wait_for(fe.drain_and_stop(), timeout=10)
            assert stats["engine"]["jobs"] == 2
            assert stats["engine"]["tasks_done"] == 4
            assert not handler.done()  # still parked in drain, yet nothing waited
            handler.cancel()

        run_async(asyncio.wait_for(main(), timeout=30))

    def test_connect_refused_without_listener(self):
        async def main():
            with pytest.raises(ConnectionRefusedError):
                await connect("inproc://nobody-home")

        run_async(main())


class TestFrontendTCP:
    def test_tcp_end_to_end(self):
        async def main():
            core = make_core()
            fe, addr = await start_frontend(core, "tcp://127.0.0.1:0")
            assert not addr.endswith(":0")  # ephemeral port resolved
            async with await ServiceClient.connect(addr) as c:
                r = await c.submit_job("acme", job_spec("j1"))
                assert r["status"] == "ok"
                st = await c.status("acme", "j1")
                assert st["state"] in ("running", "completed")
                s = await c.stats()
                assert s["engine"]["jobs"] == 1
            await fe.drain_and_stop()

        run_async(main())
