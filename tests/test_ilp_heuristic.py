"""Tests for the heuristic (list-scheduling) relaxation and lane model."""

import heapq
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster, NodeSpec, uniform_cluster
from repro.config import DSPConfig
from repro.core import HeuristicScheduler, verify_schedule
from repro.core.lanes import LaneTimelines, demand_sized_lanes
from repro.dag import Job, Task, chain_dag, diamond_dag, layered_random_dag


def mk(tid: str, parents=(), size=1000.0, cpu=1.0) -> Task:
    from repro.cluster import ResourceVector
    return Task(
        task_id=tid, job_id="J", size_mi=size,
        demand=ResourceVector(cpu=cpu, mem=0.5, disk=0.02, bandwidth=0.02),
        parents=tuple(parents),
    )


@pytest.fixture
def cluster():
    return uniform_cluster(2, cpu_size=4.0, mem_size=4.0, mips_per_unit=250.0)


class TestUpwardRank:
    def test_chain_ranks_descend(self, cluster):
        job = Job.from_tasks("J1", chain_dag("J1", 3, size_mi=1000.0), deadline=100.0)
        ranks = HeuristicScheduler(cluster).upward_rank([job])
        ids = sorted(ranks, key=ranks.get, reverse=True)
        assert ids == ["J1.T0000", "J1.T0001", "J1.T0002"]

    def test_rank_is_exec_plus_longest_chain(self, cluster):
        job = Job.from_tasks("J", [mk("a"), mk("b", ["a"])], deadline=100.0)
        ranks = HeuristicScheduler(cluster).upward_rank([job])
        assert ranks["b"] == pytest.approx(1.0)   # 1000 MI at 1000 MIPS
        assert ranks["a"] == pytest.approx(2.0)

    def test_root_of_big_subtree_outranks(self, cluster):
        job = Job.from_tasks("J1", diamond_dag("J1"), deadline=100.0)
        ranks = HeuristicScheduler(cluster).upward_rank([job])
        assert ranks["J1.T0000"] > ranks["J1.T0001"] > ranks["J1.T0003"]


class TestScheduleValidity:
    def test_precedence_respected(self, cluster):
        job = Job.from_tasks("J1", diamond_dag("J1"), deadline=1000.0)
        plan = HeuristicScheduler(cluster).schedule([job])
        violations = verify_schedule(
            plan, [job], cluster, unit_capacity=False,
            node_lanes={n.node_id: 64 for n in cluster}, check_deadlines=False,
        )
        assert violations == []

    def test_all_tasks_assigned(self, cluster):
        job = Job.from_tasks(
            "J", layered_random_dag("J", 60, rng=3), deadline=1e9
        )
        plan = HeuristicScheduler(cluster).schedule([job])
        assert set(plan.assignments) == set(job.tasks)

    def test_release_times(self, cluster):
        job = Job.from_tasks("J", [mk("a")], deadline=1000.0, arrival_time=77.0)
        plan = HeuristicScheduler(cluster).schedule([job])
        assert plan.start_of("a") >= 77.0

    def test_deterministic(self, cluster):
        job = Job.from_tasks("J", layered_random_dag("J", 40, rng=5), deadline=1e9)
        a = HeuristicScheduler(cluster).schedule([job])
        b = HeuristicScheduler(cluster).schedule([job])
        assert {t: (x.node_id, x.start) for t, x in a.assignments.items()} == {
            t: (x.node_id, x.start) for t, x in b.assignments.items()
        }

    def test_empty_batch(self, cluster):
        assert len(HeuristicScheduler(cluster).schedule([])) == 0

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=500),
           n=st.integers(min_value=1, max_value=50))
    def test_property_precedence_always_holds(self, seed, n):
        cluster = uniform_cluster(3, cpu_size=4.0, mem_size=4.0, mips_per_unit=250.0)
        job = Job.from_tasks("J", layered_random_dag("J", n, rng=seed), deadline=1e12)
        plan = HeuristicScheduler(cluster).schedule([job])
        for tid, task in job.tasks.items():
            for p in task.parents:
                assert plan.assignments[tid].start >= plan.assignments[p].finish - 1e-9


class TestBatchPersistence:
    def test_second_batch_sees_backlog(self, cluster):
        sched = HeuristicScheduler(cluster)
        j1 = Job.from_tasks("J", [mk(f"t{i}", size=8000.0) for i in range(16)], deadline=1e9)
        plan1 = sched.schedule([j1])
        t2 = Task(task_id="K.a", job_id="K", size_mi=1000.0)
        j2 = Job(job_id="K", tasks={"K.a": t2}, deadline=1e9)
        plan2 = sched.schedule([j2])
        # The second batch cannot start at 0: lanes are busy with batch 1.
        assert plan2.start_of("K.a") > 0.0

    def test_reset_clears_backlog(self, cluster):
        sched = HeuristicScheduler(cluster)
        j1 = Job.from_tasks("J", [mk(f"t{i}", size=8000.0) for i in range(16)], deadline=1e9)
        sched.schedule([j1])
        sched.reset()
        t2 = Task(task_id="K.a", job_id="K", size_mi=1000.0)
        j2 = Job(job_id="K", tasks={"K.a": t2}, deadline=1e9)
        assert sched.schedule([j2]).start_of("K.a") == pytest.approx(0.0)

    def test_explicit_lanes_respected(self, cluster):
        sched = HeuristicScheduler(cluster)
        sched._timelines = LaneTimelines(cluster, {"node-00": 1, "node-01": 1})
        job = Job.from_tasks("J", [mk("a"), mk("b"), mk("c")], deadline=1e9)
        plan = sched.schedule([job])
        # 3 unit tasks over 2 single-lane nodes: one node must run two.
        assert plan.makespan == pytest.approx(2.0)


class TestLaneModel:
    def test_demand_sized_lanes(self, cluster):
        # Mean demand cpu=2 on 4-cpu nodes -> 2 lanes.
        job = Job.from_tasks("J", [mk("a", cpu=2.0), mk("b", cpu=2.0)], deadline=1e9)
        lanes = demand_sized_lanes(cluster, [job])
        assert lanes["node-00"] == 2

    def test_demand_sized_lanes_empty(self, cluster):
        lanes = demand_sized_lanes(cluster, [])
        assert lanes["node-00"] == 4  # falls back to cpu count

    def test_lanes_needed_proportional(self, cluster):
        tl = LaneTimelines(cluster, {"node-00": 4, "node-01": 4})
        # cpu 2 of 4 = 50% share -> 2 of 4 lanes.
        assert tl.lanes_needed("node-00", (2.0, 0.1, 0.0, 0.0)) == 2
        # Tiny demand -> 1 lane.
        assert tl.lanes_needed("node-00", (0.1, 0.1, 0.0, 0.0)) == 1
        # Oversized demand clamps to all lanes.
        assert tl.lanes_needed("node-00", (100.0, 0.1, 0.0, 0.0)) == 4

    def test_earliest_start_and_commit(self, cluster):
        tl = _timelines(cluster, {"node-00": 2, "node-01": 2})
        # A task on both lanes of node-00 (cpu 4 of 4) holds it until 5.0,
        # so the next task starts at once on node-01.
        assert tl.place_earliest_start((4.0, 1.0, 0, 0), 0.0, 5.0) == ("node-00", 0.0, 5.0)
        assert tl.place_earliest_start((1.0, 1.0, 0, 0), 0.0, 1.0) == ("node-01", 0.0, 1.0)
        assert tl.snapshot_state()["free"] == {"node-00": [5.0, 5.0], "node-01": [0.0, 1.0]}

    def test_place_eft_prefers_free_node(self, cluster):
        tl = _timelines(cluster, {"node-00": 1, "node-01": 1})
        assert tl.place_earliest_start((1.0, 1.0, 0, 0), 0.0, 10.0)[0] == "node-00"
        nid, start, end = tl.place_eft((1.0, 1.0, 0, 0), 0.0, 1.0)
        assert nid == "node-01" and start == 0.0 and end == 1.0

    def test_place_earliest_start_ties_by_id(self, cluster):
        tl = _timelines(cluster, {"node-00": 1, "node-01": 1})
        nid, start, _ = tl.place_earliest_start((1.0, 1.0, 0, 0), 0.0, 1.0)
        assert nid == "node-00" and start == 0.0


def _timelines(cluster, lanes, free=None):
    """Fixed-lane timelines at rate 1.0 on every node (durations are then
    the sizes), optionally restored to per-node lane *free* times."""
    tl = LaneTimelines(cluster, lanes)
    if free is not None:
        tl.restore_state({"fixed": dict(lanes), "lanes": dict(lanes), "free": free})
    tl.ensure_sized([], {n.node_id: 1.0 for n in cluster})
    return tl


class TestLaneLists:
    def test_earliest_start_k_lanes(self, cluster):
        # node-00 lanes free at 0, 2, 5; node-01 busy until 9.  On 3 lanes
        # of 4 CPUs, cpu 1/2/4 takes 1/2/3 lanes.
        free = {"node-00": [0.0, 2.0, 5.0], "node-01": [9.0, 9.0, 9.0]}
        lanes = {"node-00": 3, "node-01": 3}

        def start(cpu, ready):
            tl = _timelines(cluster, lanes, {n: list(v) for n, v in free.items()})
            nid, at, _ = tl.place_earliest_start((cpu, 0.1, 0.0, 0.0), ready, 1.0)
            assert nid == "node-00"
            return at

        assert start(1.0, 0.0) == 0.0
        assert start(2.0, 0.0) == 2.0
        assert start(4.0, 0.0) == 5.0
        assert start(2.0, 3.0) == 3.0  # ready is later

    def test_commit_onto_equal_end_times(self, cluster):
        busy = {"node-00": [0.0] * 4, "node-01": [100.0] * 4}
        tl = _timelines(cluster, {"node-00": 4, "node-01": 4}, busy)

        def place(lanes, size):  # cpu c of 4 on 4 lanes takes c lanes
            return tl.place_earliest_start((float(lanes), 0.1, 0.0, 0.0), 0.0, size)

        place(2, 5.0)
        place(1, 7.0)  # free times 0, 5, 5, 7
        place(1, 5.0)  # the 0 lane joins the two 5s
        assert tl.snapshot_state()["free"]["node-00"] == [5.0, 5.0, 5.0, 7.0]
        assert place(3, 0.0) == ("node-00", 5.0, 5.0)  # three 5s out, three 5s in
        assert tl.snapshot_state()["free"]["node-00"] == [5.0, 5.0, 5.0, 7.0]
        place(2, 1.0)
        assert tl.snapshot_state()["free"]["node-00"] == [5.0, 6.0, 6.0, 7.0]

    def test_restored_snapshot_places_identically(self, cluster):
        # Written in the snapshot format: per-node sorted free-time lists.
        snap = {
            "fixed": None,
            "lanes": {"node-00": 3, "node-01": 3},
            "free": {"node-00": [0.0, 2.5, 7.0], "node-01": [1.0, 1.0, 4.0]},
        }
        tl = LaneTimelines(cluster)
        tl.restore_state(snap)
        tl.ensure_sized([], {"node-00": 1.0, "node-01": 1.0})
        small, full = (1.0, 1.0, 0.02, 0.02), (4.0, 1.0, 0.02, 0.02)
        got = [
            tl.place_eft((2.0, 1.0, 0.02, 0.02), 0.5, 3.0),
            tl.place_earliest_start(small, 0.0, 2.0),
            # Both nodes finish at 8.0 (node-01 pays a 3 s input fetch
            # from node-00); the earlier start wins.
            tl.place_eft(full, 0.0, 1.0, ("node-00", 3000.0)),
            tl.place_earliest_start((0.5, 3.0, 0.02, 0.02), 6.0, 1.5),
            tl.place_eft(small, 0.0, 0.25),
        ]
        assert got == [
            ("node-01", 1.0, 4.0),
            ("node-00", 0.0, 2.0),
            ("node-01", 4.0, 8.0),
            ("node-00", 7.0, 8.5),
            ("node-01", 8.0, 8.25),
        ]
        assert tl.snapshot_state() == {
            "fixed": None,
            "lanes": {"node-00": 3, "node-01": 3},
            "free": {"node-00": [8.5, 8.5, 8.5], "node-01": [8.0, 8.0, 8.25]},
        }


class HeapLanes(LaneTimelines):
    """Reference lane model: each node's lanes a binary heap, the k-th free
    time read with ``nsmallest`` and an occupancy committed as k pops and
    k pushes, the dominant share a generator ``max``, and each node's
    duration worked out on its own.  ``calls`` counts placements."""

    calls = 0

    def ensure_sized(self, jobs, rates):
        self.rates = rates
        if getattr(self, "heaps", None) is None:
            self.heaps = {
                nid: [0.0] * count
                for nid, count in demand_sized_lanes(self._cluster, jobs).items()
            }

    def _pick(self, demand, ready, size_mi, located):
        self.calls += 1
        for node in self._cluster:
            cap = node.capacity.as_tuple()
            heap = self.heaps[node.node_id]
            share = max(
                (demand[d] / cap[d] for d in range(4) if cap[d] > 0), default=0.0
            )
            k = min(len(heap), max(1, math.ceil(share * len(heap))))
            duration = size_mi / self.rates[node.node_id]
            if located is not None and located[0] != node.node_id:
                duration += located[1] / node.bandwidth_capacity
            yield node.node_id, k, max(heapq.nsmallest(k, heap)[-1], ready), duration

    def _commit(self, nid, k, end):
        for _ in range(k):
            heapq.heappop(self.heaps[nid])
        for _ in range(k):
            heapq.heappush(self.heaps[nid], end)

    def place_eft(self, demand, ready, size_mi, located=None):
        end, start, nid, k = min(
            (start + duration, start, nid, k)
            for nid, k, start, duration in self._pick(demand, ready, size_mi, located)
        )
        self._commit(nid, k, end)
        return nid, start, end

    def place_earliest_start(self, demand, ready, size_mi, located=None):
        start, nid, k, duration = min(
            (start, nid, k, duration)
            for nid, k, start, duration in self._pick(demand, ready, size_mi, located)
        )
        end = start + duration
        self._commit(nid, k, end)
        return nid, start, end


class TestPlannersMatchHeapLanes:
    """Every planner on the shared lane model plans a seeded two-round
    workload on a mixed cluster exactly as it does on the heap reference."""

    @pytest.mark.parametrize("planner", ["fcfs", "aalo", "heuristic", "graphene"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_assignments_identical(self, planner, seed):
        from repro.baselines import AaloScheduler, FCFSScheduler, GrapheneLiteScheduler
        from repro.cluster import Cluster, ec2_node, palmetto_node
        from repro.trace import WorkloadSpec, build_workload

        cluster = Cluster(
            [palmetto_node("p-00"), ec2_node("e-00"), palmetto_node("p-01"), ec2_node("e-01")]
        )
        make = {
            "fcfs": FCFSScheduler,
            "aalo": AaloScheduler,
            "heuristic": HeuristicScheduler,
            "graphene": GrapheneLiteScheduler,
        }[planner]
        jobs = build_workload(WorkloadSpec(num_jobs=6, scale=40.0), rng=seed).by_arrival()
        heap = HeapLanes(cluster)
        plans = []
        for lanes in (None, heap):
            sched = make(cluster)
            if lanes is not None:
                sched._timelines = lanes
            plans.append([
                {t: (a.node_id, a.start, a.finish) for t, a in sched.schedule(batch).assignments.items()}
                for batch in (jobs[:3], jobs[3:])
            ])
        assert heap.calls == sum(len(job.tasks) for job in jobs)
        assert plans[0] == plans[1]


class ScanLanes(LaneTimelines):
    """Reference placement: every node scanned on its own in cluster order,
    its lane count and duration worked out per node, ties broken by the
    full ``(finish, start, node id)`` / ``(start, node id)`` key."""

    def _candidates(self, demand, ready, size_mi, located):
        for node in self._cluster:
            nid = node.node_id
            lanes = self._free[nid]
            k = self.lanes_needed(nid, demand)
            start = max(lanes[k - 1], ready)
            duration = size_mi / self.rates[nid]
            if located is not None and located[0] != nid:
                duration += located[1] / node.bandwidth_capacity
            yield start + duration, start, nid, k

    def ensure_sized(self, jobs, rates):
        self.rates = rates
        super().ensure_sized(jobs, rates)

    def _commit(self, nid, k, start, end):
        lanes = self._free[nid]
        del lanes[:k]
        lanes.extend([end] * k)
        lanes.sort()
        return nid, start, end

    def place_eft(self, demand, ready, size_mi, located=None):
        end, start, nid, k = min(self._candidates(demand, ready, size_mi, located))
        return self._commit(nid, k, start, end)

    def place_earliest_start(self, demand, ready, size_mi, located=None):
        start, nid, end, k = min(
            (start, nid, end, k)
            for end, start, nid, k in self._candidates(demand, ready, size_mi, located)
        )
        return self._commit(nid, k, start, end)


# Node shapes (cpu, mem, bandwidth) x Eq. 1 scale: the same shape at two
# rates, and the same rate at two bandwidths (a capacity dimension).
_SHAPES = [(4.0, 4.0, 1000.0), (4.0, 4.0, 500.0), (8.0, 16.0, 1000.0)]
_MIPS = [100.0, 250.0]
_TIMES = [0.0, 1.0, 2.0, 3.0, 5.0]  # few values, so lanes and ready tie


@st.composite
def _placement_case(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    ids = draw(st.permutations([f"n{i}" for i in range(n)]))  # cluster order
    nodes, lanes, free = [], {}, {}
    for nid in ids:
        cpu, mem, bw = draw(st.sampled_from(_SHAPES))
        nodes.append(NodeSpec(
            node_id=nid, cpu_size=cpu, mem_size=mem, bandwidth_capacity=bw,
            mips_per_unit=draw(st.sampled_from(_MIPS)),
        ))
        lanes[nid] = draw(st.integers(min_value=1, max_value=4))
        free[nid] = sorted(draw(st.lists(
            st.sampled_from(_TIMES), min_size=lanes[nid], max_size=lanes[nid]
        )))
    task = st.tuples(
        st.tuples(
            st.sampled_from([0.5, 1.0, 2.0, 4.0, 8.0]),
            st.sampled_from([0.5, 2.0, 8.0]),
            st.just(0.0),
            st.sampled_from([0.0, 600.0]),
        ),
        st.sampled_from(_TIMES),
        st.sampled_from([100.0, 350.0, 1000.0]),
        st.one_of(
            st.none(),
            st.tuples(st.sampled_from(ids + ["elsewhere"]), st.sampled_from([0.5, 3000.0])),
        ),
    )
    return Cluster(nodes), lanes, free, draw(st.lists(task, min_size=1, max_size=12))


class TestClassPlacement:
    """Class placement (one scan per node class, stopping at the first node
    free by ``ready``) equals the per-node reference scan, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(case=_placement_case(), eft=st.booleans())
    def test_matches_per_node_scan(self, case, eft):
        cluster, lanes, free, tasks = case
        rates = {n.node_id: n.processing_rate() for n in cluster}
        pair = []
        for cls in (LaneTimelines, ScanLanes):
            tl = cls(cluster, lanes)
            tl.restore_state({
                "fixed": dict(lanes), "lanes": dict(lanes),
                "free": {nid: list(times) for nid, times in free.items()},
            })
            tl.ensure_sized([], rates)
            pair.append(tl)
        for demand, ready, size_mi, located in tasks:
            got = []
            for tl in pair:
                place = tl.place_eft if eft else tl.place_earliest_start
                nid, start, end = place(demand, ready, size_mi, located)
                got.append((nid, start.hex(), end.hex()))
            assert got[0] == got[1], (demand, ready, size_mi, located)
            assert pair[0].snapshot_state() == pair[1].snapshot_state()
