"""The shared lane-planner loop: pinned plans, the empty-batch edge and
kill-and-resume parity for every in-repo planner."""

import hashlib
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import AaloScheduler, FCFSScheduler, GrapheneLiteScheduler, TetrisScheduler
from repro.cluster import Cluster, ec2_node, palmetto_node, uniform_cluster
from repro.config import DSPConfig, SimConfig
from repro.core import HeuristicScheduler
from repro.experiments import build_workload_for_cluster, make_extended_schedulers
from repro.locality import with_random_inputs
from repro.sweep.soakcases import KillResume, _durability, _engine, kill_and_resume
from repro.trace import WorkloadSpec, build_workload

LANE_PLANNERS = {
    "fcfs": FCFSScheduler,
    "aalo": AaloScheduler,
    "heuristic": HeuristicScheduler,
    "graphene": GrapheneLiteScheduler,
}


def _mixed_cluster():
    return Cluster(
        [palmetto_node("p-00"), ec2_node("e-00"), palmetto_node("p-01"), ec2_node("e-01")]
    )


def _plan_digest(make) -> str:
    """sha256 over the ordered ``(task, node, start, finish)`` placements
    of two seeded workloads, three rounds each, without and with located
    root inputs (times as ``float.hex``)."""
    cluster = _mixed_cluster()
    h = hashlib.sha256()
    for seed in (3, 4):
        for located in (False, True):
            jobs = build_workload(WorkloadSpec(num_jobs=9, scale=40.0), rng=seed).by_arrival()
            if located:
                jobs = with_random_inputs(jobs, cluster, rng=seed)
            sched = make(cluster)
            for batch in (jobs[:4], jobs[4:7], jobs[7:]):
                for tid, a in sched.schedule(batch).assignments.items():
                    h.update(f"{tid} {a.node_id} {a.start.hex()} {a.finish.hex()}\n".encode())
    return h.hexdigest()


class TestPinnedPlans:
    """Every planner's placements, in placement order, as planned before
    the four lane planners shared one loop."""

    DIGESTS = {
        "fcfs": "315f092f2a592d1232623bce0b979597e7706d42801126ebb212283acfc927ed",
        "aalo": "4dc3efac4889342c09680d12b7f9a1c329c07d264a73c452e576a16563a39751",
        "heuristic": "b44679fdab866cb0e665147c149ba2443219a8b13ce3996f9284225eeb4acbc1",
        "graphene": "c1b4f6ec8da28926416273405cbaf043f1013b75a0cc14a13faa3d0e26e87a23",
        "tetris_simdep": "979ab900a0f8d9e1faff2330dfdb578f236a815f4938bc1a9a677f530a6c6c7b",
        "tetris_odep": "662672b93ca7c426cbde4de23e8c030f0ffa84e764b9e5f6bd66630bb934bad8",
    }

    @pytest.mark.parametrize("planner", sorted(DIGESTS))
    def test_digest(self, planner):
        make = {
            **LANE_PLANNERS,
            "tetris_simdep": lambda c: TetrisScheduler(c, simdep=True),
            "tetris_odep": lambda c: TetrisScheduler(c, simdep=False),
        }[planner]
        assert _plan_digest(make) == self.DIGESTS[planner]


class TestEmptyBatch:
    @pytest.mark.parametrize("planner", sorted(LANE_PLANNERS))
    def test_empty_batch_leaves_lanes_unsized(self, planner):
        # An empty first batch must not fix the lane sizing: the next
        # batch plans exactly as it would on a fresh planner.
        cluster = _mixed_cluster()
        jobs = build_workload(WorkloadSpec(num_jobs=6, scale=40.0), rng=2).by_arrival()
        fresh = LANE_PLANNERS[planner](cluster).schedule(jobs)
        sched = LANE_PLANNERS[planner](cluster)
        assert len(sched.schedule([])) == 0
        after_empty = sched.schedule(jobs)
        assert list(after_empty.assignments.items()) == list(fresh.assignments.items())


class PlannerLeg(KillResume):
    """A batch run of one named planner, no preemption, killed just before
    its last scheduling round and resumed from its latest snapshot."""

    salt = 0x1A9E

    def __init__(self, name: str, record: dict):
        super().__init__(types.SimpleNamespace(base_seed=0, index=0), record)
        self.name = name
        self.cluster = uniform_cluster(4)
        self.workload = build_workload_for_cluster(6, self.cluster, seed=1, scale=8.0)
        self.round_pops: list[int] = []

    def watch(self, engine):
        # Kernel pop count at each scheduling round of the reference run.
        scheduler = engine.runtime.scheduler
        plan = scheduler.schedule

        def schedule(jobs):
            self.round_pops.append(engine.runtime.kernel.pops)
            return plan(jobs)

        scheduler.schedule = schedule

    def start(self, root, *, snapshots, data=None):
        cfg = DSPConfig()
        scheduler = make_extended_schedulers(self.cluster, cfg)[self.name]
        if data is not None:
            state = data["state"]
            self.record["rounds_left"] = bool(
                len(state["arrived"]) < len(self.workload.jobs) or state["unscheduled"]
            )
        engine = _engine(
            data,
            self.cluster,
            self.workload.jobs,
            scheduler,
            dsp_config=cfg,
            sim_config=SimConfig(invariants="strict"),
            dependency_aware_dispatch=scheduler.respects_dependencies,
            **_durability(root, snapshots),
        )
        return engine, engine

    def aim(self, engine, rng, pops_total):
        from repro.sim import inject_crash

        at_pop = self.round_pops[-1] - 1
        inject_crash(engine, at_pop)
        return f"pop {at_pop}/{pops_total}"


@pytest.mark.parametrize(
    "name", sorted(make_extended_schedulers(uniform_cluster(1), DSPConfig()))
)
def test_kill_and_resume_parity(name, tmp_path):
    record: dict = {}
    outcome = kill_and_resume(PlannerLeg(name, record), tmp_path)
    assert outcome.status == "ok", (outcome, record)
    # The resumed run restored planner state with scheduling rounds ahead.
    assert record["rounds_left"], record


def _assert_plan_feasible(planner, rounds) -> None:
    """Every start is at or after its job's arrival and its parents'
    planned finishes, and at every instant the lanes of a node's
    overlapping tasks fit its lane count."""
    timelines = planner._timelines
    plan = {}
    for jobs, schedule in rounds:
        for job in jobs:
            for tid, task in job.tasks.items():
                a = schedule.assignments[tid]
                assert a.start >= job.arrival_time, (tid, a.start, job.arrival_time)
                for p in task.parents:
                    assert a.start >= schedule.assignments[p].finish, (tid, p)
                plan[tid] = (a, timelines.lanes_needed(a.node_id, task.demand.as_tuple()))
    by_node: dict[str, list] = {}
    for a, k in plan.values():
        by_node.setdefault(a.node_id, []).append((a.start, a.finish, k))
    for nid, spans in by_node.items():
        for at, _, _ in spans:
            busy = sum(k for start, finish, k in spans if start <= at < finish)
            assert busy <= timelines.lanes[nid], (nid, at, busy)


class TestPlanFeasibility:
    """Over drawn multi-round batches, every lane planner's plan honours
    release times, precedence and per-node lane capacity."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        jobs=st.integers(min_value=1, max_value=7),
        cuts=st.lists(st.integers(min_value=1, max_value=6), max_size=3),
        located=st.booleans(),
        mixed=st.booleans(),
    )
    def test_precedence_and_lane_capacity(self, seed, jobs, cuts, located, mixed):
        cluster = _mixed_cluster() if mixed else uniform_cluster(3)
        workload = build_workload(
            WorkloadSpec(num_jobs=jobs, scale=40.0), rng=seed
        ).by_arrival()
        if located:
            workload = with_random_inputs(workload, cluster, rng=seed)
        bounds = sorted({0, len(workload), *(c for c in cuts if c < len(workload))})
        batches = [workload[a:b] for a, b in zip(bounds, bounds[1:])]
        for make in LANE_PLANNERS.values():
            planner = make(cluster)
            rounds = [(batch, planner.schedule(batch)) for batch in batches]
            _assert_plan_feasible(planner, rounds)
