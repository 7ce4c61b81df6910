#!/usr/bin/env python3
"""Scheduler-as-a-service demo: a multi-tenant fleet, an overload storm,
and a kill-9 recovery — all against the async service frontend.

Three acts:

1. **Fleet** — 2000 concurrent inproc clients across 4 tenants with
   weighted shares submit jobs through token-bucket admission with
   client-side retry on backpressure.  Every acknowledged job survives
   to completion (zero acknowledged-job loss) and higher-share tenants
   are acknowledged earlier (deficit-weighted fairness).
2. **Overload** — a tiny-capacity service is flooded; submissions are
   shed *explicitly* (answered ``shed``, never silently dropped) while
   ``status`` keeps answering throughout the storm.
3. **Kill -9** — a scripted workload is crashed mid-flight and recovered
   from the admission journal + service snapshot; the recovered engine
   journal is byte-identical to an uninterrupted golden run.

Run:  python examples/service_run.py
"""

import asyncio
import statistics
import tempfile
import time
from pathlib import Path

from repro.cluster import Cluster, NodeSpec
from repro.config import ServiceConfig, TenantQuota
from repro.core import HeuristicScheduler
from repro.service import ServiceClient, ServiceCore, ServiceFrontend

N_CLIENTS = 2000
TENANTS = {  # name -> share
    "ads": 4.0,
    "etl": 2.0,
    "ml": 1.0,
    "adhoc": 1.0,
}


def make_cluster(n=8):
    return Cluster([
        NodeSpec(node_id=f"n{i}", cpu_size=16.0, mem_size=16.0,
                 mips_per_unit=200.0)
        for i in range(n)
    ])


def job_spec(jid: str) -> dict:
    return {
        "job_id": jid,
        "deadline": 10_000.0,
        "tasks": [
            {"task_id": "t0", "size_mi": 20.0,
             "demand": {"cpu": 0.5, "mem": 0.5}, "parents": []},
            {"task_id": "t1", "size_mi": 20.0,
             "demand": {"cpu": 0.5, "mem": 0.5}, "parents": ["t0"]},
        ],
    }


# ------------------------------------------------------------------ act 1
async def fleet() -> None:
    print("=== act 1: 2000-client fleet across 4 tenants ===")
    cfg = ServiceConfig(
        cycle_period=1.0,
        pump_events=4096,
        admission_per_cycle=128,
        max_total_pending=4096,
        request_deadline=0.0,  # no expiry: every accepted job is admitted
        quotas=tuple(
            (name, TenantQuota(rate=500.0, burst=200, max_pending=1024,
                               share=share))
            for name, share in TENANTS.items()
        ),
    )
    core = ServiceCore(make_cluster(), HeuristicScheduler(make_cluster()), cfg)
    frontend = ServiceFrontend(core)
    addr = await frontend.start("inproc://service-run-fleet")

    names = list(TENANTS)
    acks: dict[str, list[int]] = {name: [] for name in names}

    async def one_client(i: int) -> str:
        tenant = names[i % len(names)]
        async with await ServiceClient.connect(addr) as client:
            for _attempt in range(200):
                r = await client.submit_job(tenant, job_spec(f"job{i}"))
                if r["status"] == "retry":  # backpressure: retry later
                    await asyncio.sleep(0.001 * r["retry_after"])
                    continue
                if r["status"] == "ok":
                    acks[tenant].append(r["cycle"])
                return r["status"]
            return "gave-up"

    t0 = time.perf_counter()
    outcomes = await asyncio.gather(*[one_client(i) for i in range(N_CLIENTS)])
    acked = outcomes.count("ok")
    print(f"{N_CLIENTS} clients answered in {time.perf_counter() - t0:.1f}s "
          f"wall: {acked} ok, {outcomes.count('shed')} shed, "
          f"{outcomes.count('gave-up')} gave up")

    async with await ServiceClient.connect(addr) as observer:
        stats = await observer.stats()
    print("per-tenant fairness (share -> mean ack cycle, admitted):")
    for name in sorted(names, key=lambda n: -TENANTS[n]):
        mean_cycle = statistics.mean(acks[name]) if acks[name] else float("nan")
        t = stats["admission"]["tenants"][name]
        print(f"  {name:6s} share {TENANTS[name]:.0f}  "
              f"mean ack cycle {mean_cycle:7.2f}   admitted {t['admitted']}")
    ordered = sorted(names, key=lambda n: statistics.mean(acks[n]))
    assert TENANTS[ordered[0]] >= TENANTS[ordered[-1]], (
        "higher-share tenants should be acknowledged no later than lower-share"
    )

    final = await frontend.drain_and_stop()
    engine = final["engine"]
    assert engine["jobs"] == acked, (engine["jobs"], acked)
    assert engine["tasks_done"] == engine["tasks_total"] == acked * 2
    print(f"zero acknowledged-job loss: {acked} acked == "
          f"{engine['jobs']} completed jobs "
          f"({engine['tasks_done']} tasks)\n")


# ------------------------------------------------------------------ act 2
async def overload() -> None:
    print("=== act 2: overload storm — shed loudly, answer status always ===")
    cfg = ServiceConfig(
        cycle_period=1.0,
        pump_events=64,
        admission_per_cycle=4,
        max_total_pending=32,
        shed_threshold=0.5,
        request_deadline=0.0,
        default_quota=TenantQuota(rate=10_000.0, burst=10_000,
                                  max_pending=10_000),
    )
    core = ServiceCore(make_cluster(), HeuristicScheduler(make_cluster()), cfg)
    frontend = ServiceFrontend(core)
    addr = await frontend.start("inproc://service-run-overload")

    async def flood(i: int) -> str:
        async with await ServiceClient.connect(addr) as client:
            r = await client.submit_job("hog", job_spec(f"flood{i}"))
            return r["status"]

    storm = [asyncio.ensure_future(flood(i)) for i in range(400)]

    # Probe status repeatedly WHILE the storm is in flight.
    probe_latencies = []
    async with await ServiceClient.connect(addr) as probe:
        while any(not f.done() for f in storm):
            t0 = time.perf_counter()
            st = await probe.status()
            probe_latencies.append(time.perf_counter() - t0)
            assert st["status"] == "ok"
            await asyncio.sleep(0)

    outcomes = [f.result() for f in storm]
    counts = {s: outcomes.count(s) for s in sorted(set(outcomes))}
    print(f"storm of {len(storm)} submissions -> {counts}")
    assert counts.get("shed", 0) > 0, "overload must shed"
    assert len(outcomes) == 400, "every request answered — nothing silent"
    print(f"status answered {len(probe_latencies)} times during the storm, "
          f"max latency {max(probe_latencies) * 1000:.1f} ms")

    final = await frontend.drain_and_stop()
    assert final["engine"]["jobs"] == counts.get("ok", 0)
    print("acknowledged jobs all completed despite the storm\n")


# ------------------------------------------------------------------ act 3
SCRIPT = {1: ["j1", "j2"], 3: ["j3"], 5: ["j4", "j5"], 8: ["j6"]}
CYCLES = 12


def drive(core: ServiceCore, start: int, end: int) -> list[str]:
    acked = []
    for k in range(start + 1, end + 1):
        for jid in SCRIPT.get(k, ()):
            ticket = core.submit(
                {"op": "submit_job", "tenant": "acme", "job": job_spec(jid)}
            )
            assert not isinstance(ticket, dict), ticket
        resolved = core.run_cycle()
        core.pump()
        for ticket in resolved:
            assert ticket.reply["status"] == "ok"
            acked.append(ticket.job_id)
    return acked


def kill9() -> None:
    print("=== act 3: kill -9 mid-flight, recover, golden-compare ===")
    cfg = ServiceConfig(cycle_period=1.0, pump_events=32,
                        snapshot_every_cycles=4)
    with tempfile.TemporaryDirectory() as tmp:
        gold_dir, crash_dir = Path(tmp, "gold"), Path(tmp, "crash")

        gold = ServiceCore(make_cluster(), HeuristicScheduler(make_cluster()),
                           cfg, data_dir=gold_dir)
        gold_acked = drive(gold, 0, CYCLES)
        gold_stats = gold.stats()
        gold.close()
        gold_journal = (gold_dir / "engine.jsonl").read_bytes()
        print(f"golden run: {CYCLES} cycles, {len(gold_acked)} jobs acked, "
              f"{gold_stats['engine']['tasks_done']} tasks done")

        crash = ServiceCore(make_cluster(), HeuristicScheduler(make_cluster()),
                            cfg, data_dir=crash_dir)
        crashed_acked = drive(crash, 0, 6)
        crash.engine.journal.flush()
        del crash  # kill -9: no drain, no close
        print(f"crashed after cycle 6 with {len(crashed_acked)} jobs acked")

        rec = ServiceCore.recover(
            make_cluster(), HeuristicScheduler(make_cluster()), cfg,
            data_dir=crash_dir,
        )
        print(f"recovered at cycle {rec.cycle} "
              f"({len(rec.engine.runtime.state.jobs)} jobs re-registered)")
        rec_acked = drive(rec, rec.cycle, CYCLES)
        rec_stats = rec.stats()
        rec.close()

        assert set(gold_acked) == set(crashed_acked) | set(rec_acked)
        assert gold_stats["engine"] == rec_stats["engine"]
        crash_journal = (crash_dir / "engine.jsonl").read_bytes()
        assert gold_journal == crash_journal
        print(f"engine journal byte-identical after kill-9 recovery "
              f"({len(gold_journal)} bytes); no acknowledged job lost")


def main() -> None:
    asyncio.run(fleet())
    asyncio.run(overload())
    kill9()


if __name__ == "__main__":
    main()
