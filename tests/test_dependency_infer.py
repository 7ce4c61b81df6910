"""Tests for §V dependency inference from execution windows."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.trace import GoogleTraceGenerator, TraceTaskRecord, infer_dependencies


def rec(idx: int, start: float, end: float, job: str = "j") -> TraceTaskRecord:
    return TraceTaskRecord(job, idx, start, end, 0.5, 0.5)


class TestNoOverlapRule:
    def test_sequential_tasks_linked(self):
        parents = infer_dependencies([rec(0, 0, 10), rec(1, 10, 20)])
        assert parents[1] == (0,)

    def test_overlapping_tasks_not_linked(self):
        parents = infer_dependencies([rec(0, 0, 10), rec(1, 5, 20)])
        assert parents[1] == ()

    def test_first_task_is_root(self):
        parents = infer_dependencies([rec(0, 0, 10), rec(1, 20, 30)])
        assert parents[0] == ()

    def test_most_recent_enders_preferred(self):
        # Task 3 starts at 100; tasks 0 (ends 10), 1 (ends 50), 2 (ends 90).
        records = [rec(0, 0, 10), rec(1, 20, 50), rec(2, 60, 90), rec(3, 100, 110)]
        parents = infer_dependencies(records, max_parents=2)
        assert parents[3] == (1, 2)  # the two most recent enders

    def test_max_parents_cap(self):
        records = [rec(i, i * 10.0, i * 10.0 + 5.0) for i in range(6)]
        parents = infer_dependencies(records, max_parents=2)
        assert all(len(p) <= 2 for p in parents.values())


class TestStructuralCaps:
    def test_level_cap(self):
        # A long strictly sequential job would produce a chain; the level
        # cap must keep depth <= max_levels.
        records = [rec(i, i * 10.0, i * 10.0 + 5.0) for i in range(20)]
        parents = infer_dependencies(records, max_levels=5, max_parents=1)
        level = {}
        for idx in sorted(parents):
            ps = parents[idx]
            level[idx] = 1 + max((level[p] for p in ps), default=0)
        assert max(level.values()) <= 5

    def test_dependents_cap(self):
        # One early task, many later tasks that would all link to it.
        records = [rec(0, 0, 1)] + [rec(i, 10 + i, 12 + i) for i in range(1, 30)]
        parents = infer_dependencies(records, max_dependents=3)
        count0 = sum(1 for ps in parents.values() if 0 in ps)
        assert count0 <= 3

    def test_acyclic_by_construction(self):
        records = GoogleTraceGenerator(rng=3).job_records("j", 60)
        parents = infer_dependencies(records)
        by_idx = {r.task_index: r for r in records}
        for child, ps in parents.items():
            for p in ps:
                assert by_idx[p].end_time <= by_idx[child].start_time


class TestValidation:
    def test_empty(self):
        assert infer_dependencies([]) == {}

    def test_mixed_jobs_rejected(self):
        with pytest.raises(ValueError, match="one job"):
            infer_dependencies([rec(0, 0, 1, job="a"), rec(1, 2, 3, job="b")])

    def test_bad_caps_rejected(self):
        with pytest.raises(ValueError):
            infer_dependencies([rec(0, 0, 1)], max_levels=0)
        with pytest.raises(ValueError):
            infer_dependencies([rec(0, 0, 1)], max_parents=0)
        with pytest.raises(ValueError):
            infer_dependencies([rec(0, 0, 1)], max_dependents=-1)

    def test_deterministic(self):
        records = GoogleTraceGenerator(rng=9).job_records("j", 40)
        assert infer_dependencies(records) == infer_dependencies(records)


class TestPropertyBased:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=1, max_value=60),
    )
    def test_invariants_on_random_traces(self, seed, n):
        records = GoogleTraceGenerator(rng=seed).job_records("j", n)
        parents = infer_dependencies(records)
        assert set(parents) == {r.task_index for r in records}
        # Caps hold.
        child_count: dict[int, int] = {}
        level: dict[int, int] = {}
        by_idx = {r.task_index: r for r in records}
        for idx in sorted(parents, key=lambda i: (by_idx[i].start_time, i)):
            ps = parents[idx]
            level[idx] = 1 + max((level[p] for p in ps), default=0)
            for p in ps:
                child_count[p] = child_count.get(p, 0) + 1
                # §V rule: a parent's window strictly precedes the child's.
                assert by_idx[p].end_time <= by_idx[idx].start_time
        assert max(level.values(), default=1) <= 5
        assert max(child_count.values(), default=0) <= 15
        # Keys run in start-time order, a topological order of the DAG.
        assert list(parents) == sorted(
            parents, key=lambda i: (by_idx[i].start_time, i)
        )
        seen: set[int] = set()
        for idx, ps in parents.items():
            assert seen.issuperset(ps)
            seen.add(idx)


def reference_infer(records, max_levels, max_dependents, max_parents):
    """The §V rule as a quadratic scan: for every record, filter all
    finished records and sort them, most recent enders first."""
    ordered = sorted(records, key=lambda r: (r.start_time, r.task_index))
    parents: dict[int, tuple[int, ...]] = {}
    level: dict[int, int] = {}
    child_count: dict[int, int] = {}
    finished: list[TraceTaskRecord] = []
    for r in ordered:
        candidates = [f for f in finished if f.end_time <= r.start_time]
        candidates.sort(key=lambda f: (-f.end_time, f.task_index))
        chosen: list[int] = []
        for cand in candidates:
            if len(chosen) >= max_parents:
                break
            if child_count.get(cand.task_index, 0) >= max_dependents:
                continue
            if level[cand.task_index] + 1 > max_levels:
                continue
            chosen.append(cand.task_index)
        parents[r.task_index] = tuple(sorted(chosen))
        level[r.task_index] = 1 + max((level[c] for c in chosen), default=0)
        for c in chosen:
            child_count[c] = child_count.get(c, 0) + 1
        finished.append(r)
    return parents


@st.composite
def tied_records(draw):
    """Records on a coarse integer grid, so starts and ends tie often and
    many windows end exactly where another starts; indices are shuffled."""
    n = draw(st.integers(min_value=1, max_value=25))
    indices = draw(st.permutations(range(n)))
    out = []
    for idx in indices:
        start = draw(st.integers(min_value=0, max_value=8))
        length = draw(st.integers(min_value=1, max_value=3))
        out.append(rec(idx, float(start), float(start + length)))
    return out


class TestReferenceOracle:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        records=tied_records(),
        max_levels=st.integers(min_value=1, max_value=3),
        max_dependents=st.integers(min_value=0, max_value=3),
        max_parents=st.integers(min_value=1, max_value=3),
    )
    def test_matches_quadratic_reference(
        self, records, max_levels, max_dependents, max_parents
    ):
        caps = dict(
            max_levels=max_levels, max_dependents=max_dependents, max_parents=max_parents
        )
        assert infer_dependencies(records, **caps) == reference_infer(records, **caps)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_on_generated_jobs(self, seed):
        records = GoogleTraceGenerator(rng=seed).job_records("j", 120)
        caps = dict(max_levels=5, max_dependents=15, max_parents=3)
        assert infer_dependencies(records) == reference_infer(records, **caps)


#: ``job_records("J", 3)`` of seeds 0-4 with durations clipped to
#: [60 s, 150 s], as (start, end, cpu, mem) in ``float.hex`` form.
#: Seed 3's first duration hits the upper clip and seed 4's the lower.
GENERATOR_RECORDS = {
    0: [("0x0.0p+0", "0x1.c59729ce5fddcp+6", "0x1.450c80e6aefa8p-3", "0x1.5d275744904bdp-3"),
        ("0x1.2ee33d4b43349p+8", "0x1.6ae33d4b43349p+8", "0x1.908d74b47d1b5p-3", "0x1.d8046d3312117p-4"),
        ("0x1.797fa5ddeed5ap+8", "0x1.d16fdad1ba6ddp+8", "0x1.49e6abbdf43c4p-2", "0x1.fefc4314a93fap-3")],
    1: [("0x0.0p+0", "0x1.1a9021369203dp+7", "0x1.91e3401d2f853p-2", "0x1.9495b179b93f1p-3"),
        ("0x1.7c5501b1fa7b8p+0", "0x1.a179855e63dd0p+6", "0x1.056f91b0df1c0p-2", "0x1.15fa72a9f9f80p-2"),
        ("0x1.1f61a5ae7cb1dp+5", "0x1.117afe4316ac9p+7", "0x1.c29392e46162ep-4", "0x1.0eb04549eb7a9p-5")],
    2: [("0x0.0p+0", "0x1.e33dff49c744ap+6", "0x1.246e0fa1ac775p-2", "0x1.10095f5eb88b6p-2"),
        ("0x1.cc2325e1dce5cp+4", "0x1.658464bc3b9ccp+7", "0x1.7cf367585914ap-3", "0x1.9cecc688b5512p-3"),
        ("0x1.238cc3412d92ep+5", "0x1.74e330d04b64cp+7", "0x1.6cf802d047936p-3", "0x1.b02928d85fff3p-2")],
    3: [("0x0.0p+0", "0x1.2c00000000000p+7", "0x1.053c870842c8fp-3", "0x1.f9e767949ffcdp-5"),
        ("0x1.4ec38b94f13e0p+7", "0x1.e5b9e302ce2a0p+7", "0x1.fe667fad27e84p-4", "0x1.4bb083b16172ep-3"),
        ("0x1.c3442f053d2e5p+7", "0x1.77a217829e972p+8", "0x1.b14d74948a5b6p-4", "0x1.c526dbf903152p-4")],
    4: [("0x0.0p+0", "0x1.e000000000000p+5", "0x1.0bf1a96172808p-3", "0x1.5cd5aeb1c54c3p-3"),
        ("0x1.2946b6f1da4d6p+6", "0x1.91b75c4c330e2p+7", "0x1.581ac190fd80ep-2", "0x1.9170dfc1f5292p-2"),
        ("0x1.0ad78c7b097f0p+8", "0x1.9d191d0d2c5a9p+8", "0x1.2f288e0d99757p-2", "0x1.8bfbefa5525eep-3")],
}


@pytest.mark.parametrize("seed", sorted(GENERATOR_RECORDS))
def test_generator_records_are_pinned(seed):
    gen = GoogleTraceGenerator(rng=seed, min_duration=60.0, max_duration=150.0)
    got = [
        (r.start_time.hex(), r.end_time.hex(), r.cpu.hex(), r.mem.hex())
        for r in gen.job_records("J", 3)
    ]
    assert got == GENERATOR_RECORDS[seed]
