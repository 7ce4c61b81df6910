"""Tests for the workload builder (§V workload reconstruction)."""

import pytest

from repro.dag import MAX_DEPENDENTS, MAX_LEVELS
from repro.trace import (
    TASK_BANDWIDTH_MBPS,
    TASK_DISK_MB,
    GoogleTraceGenerator,
    Workload,
    WorkloadSpec,
    build_workload,
    job_from_records,
)


class TestWorkloadSpec:
    def test_defaults_match_paper_classes(self):
        spec = WorkloadSpec(num_jobs=3, scale=1.0)
        assert spec.medium_tasks == 1000
        assert spec.large_tasks == 2000
        assert spec.arrival_rate_range == (2.0, 5.0)

    def test_scaled_class_sizes(self):
        spec = WorkloadSpec(num_jobs=3, scale=20.0)
        small, medium, large = spec.scaled_class_sizes()
        assert (small, medium, large) == (15, 50, 100)

    def test_scaled_minimum_two(self):
        spec = WorkloadSpec(num_jobs=3, scale=10_000.0)
        assert spec.scaled_class_sizes() == (2, 2, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(num_jobs=0)
        with pytest.raises(ValueError):
            WorkloadSpec(num_jobs=1, deadline_slack=0.5)
        with pytest.raises(ValueError):
            WorkloadSpec(num_jobs=1, arrival_rate_range=(5.0, 2.0))
        with pytest.raises(ValueError):
            WorkloadSpec(num_jobs=1, arrival_rate_range=(0.0, 2.0))


class TestJobFromRecords:
    def test_sizes_from_durations(self):
        records = GoogleTraceGenerator(rng=0).job_records("J", 5)
        job = job_from_records("J", records, 0.0, 4.0, reference_rate_mips=1000.0)
        for rec in records:
            task = job.tasks[f"J.T{rec.task_index:04d}"]
            assert task.size_mi == pytest.approx(rec.duration * 1000.0)

    def test_demands_scaled_by_reference_node(self):
        records = GoogleTraceGenerator(rng=0).job_records("J", 5)
        job = job_from_records(
            "J", records, 0.0, 4.0, 1000.0,
            reference_node_cpu=4.0, reference_node_mem=8.0,
        )
        for rec in records:
            task = job.tasks[f"J.T{rec.task_index:04d}"]
            assert task.demand.cpu == pytest.approx(rec.cpu * 4.0)
            assert task.demand.mem == pytest.approx(rec.mem * 8.0)
            assert task.demand.disk == TASK_DISK_MB
            assert task.demand.bandwidth == TASK_BANDWIDTH_MBPS

    def test_deadline_is_slack_times_critical_path(self):
        records = GoogleTraceGenerator(rng=0).job_records("J", 10)
        job = job_from_records("J", records, arrival_time=100.0,
                               deadline_slack=3.0, reference_rate_mips=1000.0)
        cp = job.critical_path_time(1000.0)
        assert job.deadline == pytest.approx(100.0 + 3.0 * cp)

    def test_deadline_bit_equal_to_kahn_order_critical_path(self):
        # job_from_records walks the inference's start-time order; the
        # critical path must match the one over a fresh topological sort.
        gen = GoogleTraceGenerator(rng=3)
        for n in (2, 15, 50, 100):
            records = gen.job_records(f"J{n}", n)
            job = job_from_records(f"J{n}", records, 7.0, 4.0, 1000.0)
            assert job.deadline == 7.0 + 4.0 * job.critical_path_time(1000.0)

    def test_columns_build_the_records_job(self):
        """``job_columns`` draws what ``job_records`` draws, and
        ``job_from_columns`` builds the job ``job_from_records`` builds
        from them, bit for bit, also for records in shuffled order."""
        import random

        from repro.dag.codec import job_to_dict
        from repro.trace import job_from_columns

        for n in (2, 15, 100):
            records = GoogleTraceGenerator(rng=n).job_records(f"J{n}", n)
            columns = GoogleTraceGenerator(rng=n).job_columns(f"J{n}", n)
            assert [list(c) for c in zip(*columns)] == [
                [r.start_time, r.end_time, r.cpu, r.mem] for r in records
            ]
            want = job_from_columns(f"J{n}", range(n), columns, 5.0, 4.0, 1000.0)
            shuffled = list(records)
            random.Random(n).shuffle(shuffled)
            for recs in (records, shuffled):
                got = job_from_records(f"J{n}", recs, 5.0, 4.0, 1000.0)
                assert job_to_dict(got) == job_to_dict(want)
                assert got.deadline.hex() == want.deadline.hex()
                assert got.topo_order == want.topo_order

    def test_mixed_jobs_rejected(self):
        gen = GoogleTraceGenerator(rng=1)
        records = gen.job_records("A", 3) + gen.job_records("B", 3)
        with pytest.raises(ValueError, match="one job"):
            job_from_records("A", records, 0.0, 4.0, 1000.0)

    def test_structural_caps(self):
        records = GoogleTraceGenerator(rng=5).job_records("J", 80)
        job = job_from_records("J", records, 0.0, 4.0, 1000.0)
        assert job.depth <= MAX_LEVELS
        assert all(len(k) <= MAX_DEPENDENTS for k in job.children.values())


class TestBuildWorkload:
    @pytest.fixture
    def workload(self) -> Workload:
        return build_workload(WorkloadSpec(num_jobs=9, scale=50.0), rng=42)

    def test_job_count(self, workload):
        assert len(workload.jobs) == 9

    def test_equal_class_mix(self, workload):
        small, medium, large = workload.spec.scaled_class_sizes()
        sizes = [j.num_tasks for j in workload.jobs]
        assert sizes.count(small) == 3
        assert sizes.count(medium) == 3
        assert sizes.count(large) == 3

    def test_arrivals_monotone(self, workload):
        arrivals = [j.arrival_time for j in workload.by_arrival()]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] == 0.0

    def test_production_flags_alternate(self, workload):
        weights = [workload.job(f"J{i:04d}").weight for i in range(9)]
        assert weights == [1.0, 0.0] * 4 + [1.0]

    def test_deterministic(self):
        a = build_workload(WorkloadSpec(num_jobs=5, scale=50.0), rng=3)
        b = build_workload(WorkloadSpec(num_jobs=5, scale=50.0), rng=3)
        assert [j.deadline for j in a.jobs] == [j.deadline for j in b.jobs]
        assert a.num_tasks == b.num_tasks

    def test_num_tasks(self, workload):
        assert workload.num_tasks == sum(j.num_tasks for j in workload.jobs)

    def test_all_tasks_flat_map(self, workload):
        flat = workload.all_tasks()
        assert len(flat) == workload.num_tasks
        for tid, task in flat.items():
            assert tid == task.task_id

    def test_job_lookup_missing(self, workload):
        with pytest.raises(KeyError):
            workload.job("nope")

    def test_arrival_rate_within_range(self):
        # Mean inter-arrival must correspond to 2..5 jobs/min, loosely.
        w = build_workload(WorkloadSpec(num_jobs=60, scale=200.0), rng=0)
        arrivals = sorted(j.arrival_time for j in w.jobs)
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        mean_gap = sum(gaps) / len(gaps)
        assert 5.0 < mean_gap < 60.0  # 1..12 jobs/min, generous bounds


class TestArrivalPatterns:
    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError, match="arrival_pattern"):
            WorkloadSpec(num_jobs=1, arrival_pattern="weekly")

    def test_amplitude_bounds(self):
        with pytest.raises(ValueError):
            WorkloadSpec(num_jobs=1, arrival_pattern="diurnal", diurnal_amplitude=1.0)

    def test_diurnal_builds(self):
        spec = WorkloadSpec(
            num_jobs=12, scale=200.0, arrival_pattern="diurnal",
            diurnal_period=600.0, diurnal_amplitude=0.9,
        )
        w = build_workload(spec, rng=3)
        arrivals = [j.arrival_time for j in w.by_arrival()]
        assert arrivals == sorted(arrivals)
        assert len(w.jobs) == 12

    def test_diurnal_rate_varies_more_than_poisson(self):
        # The diurnal pattern should produce burstier gaps: higher
        # coefficient of variation than the plain Poisson process.
        import numpy as np

        def gaps(pattern):
            spec = WorkloadSpec(
                num_jobs=400, scale=1000.0, arrival_pattern=pattern,
                diurnal_period=300.0, diurnal_amplitude=0.9,
            )
            w = build_workload(spec, rng=11)
            arr = sorted(j.arrival_time for j in w.jobs)
            return np.diff(arr)

        cv_poisson = gaps("poisson").std() / gaps("poisson").mean()
        cv_diurnal = gaps("diurnal").std() / gaps("diurnal").mean()
        assert cv_diurnal > cv_poisson
