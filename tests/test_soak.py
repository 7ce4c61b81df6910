"""Tests for the soak harness (:mod:`repro.sweep.soakcases`, driven by
``scripts/soak.py``): the case grid, end-to-end clean cases in every
mode, the ddmin plan minimizer (a deliberately broken policy must shrink
to a tiny repro), the JSON artifact shape, and the CLI."""

import importlib
import json
import pathlib
from dataclasses import asdict

import pytest

from repro.cluster import uniform_cluster
from repro.config import SimConfig
from repro.core import HeuristicScheduler
from repro.sim import (
    FaultEvent,
    FaultKind,
    InvariantViolation,
    SimEngine,
    chaos_plan,
    normalize_plan,
    plan_to_json,
    validate_fault_plan,
)
from repro.sweep import RunKey
from repro.sweep import soakcases as soak
from tests.test_invariants import C2Violator, chain_job, one_lane


@pytest.fixture
def soak_cli(monkeypatch):
    """The ``scripts/soak.py`` module, imported from the scripts dir."""
    scripts = pathlib.Path(__file__).resolve().parent.parent / "scripts"
    monkeypatch.syspath_prepend(str(scripts))
    return importlib.import_module("soak")


class TestCaseGrid:
    def test_42_cases_cover_every_combination(self):
        combos = {
            (c.scenario, c.policy, c.resilient)
            for c in (soak.build_case(i, 0) for i in range(42))
        }
        assert len(combos) == (
            len(soak.SCENARIO_NAMES) * len(soak.POLICY_NAMES) * 2
        )

    def test_cases_are_seed_deterministic(self):
        case = soak.build_case(3, 7)
        w1, cl1, p1 = soak.case_inputs(case)
        w2, cl2, p2 = soak.case_inputs(case)
        assert p1 == p2
        assert [j.job_id for j in w1.jobs] == [j.job_id for j in w2.jobs]

    @pytest.mark.parametrize("index", [0, 3, 5])
    def test_clean_cases_pass(self, index):
        case = soak.build_case(index, 0)
        workload, cluster, plan = soak.case_inputs(case)
        assert validate_fault_plan(plan, cluster) == []
        outcome = soak.execute(case, workload, cluster, plan)
        assert outcome.status == "ok", outcome


class TestMinimizer:
    def test_minimize_plain_list(self):
        # Failure reproduces iff the candidate still contains 7; ddmin
        # must strip everything else.
        plan = list(range(20))
        assert soak.minimize_plan(plan, lambda c: 7 in c) == [7]

    def test_non_reproducing_failure_returned_unchanged(self):
        plan = list(range(5))
        assert soak.minimize_plan(plan, lambda c: False) == plan

    def test_policy_bug_minimizes_to_tiny_repro(self):
        # A C2-violating policy fails regardless of the fault plan, so
        # the 30+-event chaos plan must collapse to <= 5 events (here: 0).
        cluster = one_lane(2)
        job = chain_job()
        cfg = soak.SCENARIOS["mixed"]
        plan = chaos_plan(cluster, 20_000.0, cfg, rng=4)
        assert len(plan) > 5

        def run_with(candidate) -> bool:
            eng = SimEngine(
                cluster, [job], HeuristicScheduler(cluster),
                preemption=C2Violator(),
                sim_config=SimConfig(epoch=1.0, scheduling_period=10.0,
                                     invariants="strict"),
                faults=normalize_plan(candidate, cluster, keep_alive=False),
                dependency_aware_dispatch=False,
            )
            try:
                eng.run()
            except InvariantViolation as exc:
                return exc.name == "c2-dependency-preemption"
            return False

        minimal = soak.minimize_plan(plan, run_with)
        assert len(minimal) <= 5

    def test_fault_dependent_failure_keeps_culprit(self):
        # Synthetic oracle standing in for a fault-triggered bug: the
        # failure needs the n0 FAILURE/RECOVERY pair.  ddmin must keep
        # both and drop the noise.
        plan = [
            FaultEvent(1.0, "n1", FaultKind.SLOWDOWN, factor=0.5),
            FaultEvent(2.0, "n0", FaultKind.FAILURE),
            FaultEvent(3.0, "n1", FaultKind.RESTORE),
            FaultEvent(4.0, "n1", FaultKind.TASK_FAIL),
            FaultEvent(5.0, "n0", FaultKind.RECOVERY),
            FaultEvent(6.0, "n1", FaultKind.TASK_FAIL),
        ]

        def reproduces(candidate) -> bool:
            kinds = [(ev.node_id, ev.kind) for ev in candidate]
            return (("n0", FaultKind.FAILURE) in kinds
                    and ("n0", FaultKind.RECOVERY) in kinds)

        minimal = soak.minimize_plan(plan, reproduces)
        assert len(minimal) == 2
        assert {ev.kind for ev in minimal} == {FaultKind.FAILURE,
                                               FaultKind.RECOVERY}


class TestArtifact:
    def test_artifact_shape(self, tmp_path):
        case = soak.build_case(5, 0)
        failure = soak.Outcome("fail", "InvariantViolation",
                               "c2-dependency-preemption", "boom")
        cluster = uniform_cluster(case.num_nodes)
        plan = chaos_plan(cluster, 5000.0, soak.SCENARIOS["partitions"], rng=1)
        record = {"case": asdict(case), "minimized_plan": plan_to_json(plan)}
        path = soak.write_artifact(tmp_path, "plain", record, failure)
        artifact = json.loads(path.read_text())
        assert artifact["case"]["index"] == 5
        assert artifact["case"]["scenario"] == case.scenario
        assert artifact["error"]["type"] == "InvariantViolation"
        assert artifact["error"]["invariant"] == "c2-dependency-preemption"
        assert len(artifact["minimized_plan"]) == len(plan)
        # The serialized plan round-trips through the fault-plan JSON
        # schema used by plan_from_json.
        from repro.sim import plan_from_json
        assert plan_from_json(artifact["minimized_plan"]) == plan

    def test_unfired_crash_writes_a_replayable_artifact(
        self, tmp_path, monkeypatch
    ):
        """A kill that never fires is a failure like any other: it writes
        the one artifact format, journals included, and the artifact's
        RunKey replays the case through the fabric runner."""
        monkeypatch.setattr(soak, "inject_crash", lambda engine, at_pop: None)
        params = {"mode": "replay", "base_seed": 0, "index": 1}
        record = soak.run_soak_params({**params, "out": str(tmp_path)})
        assert record["outcome"]["status"] == "fail"
        assert record["outcome"]["message"] == "injected crash never fired"

        artifact = json.loads((tmp_path / "replay_case_0001.json").read_text())
        assert artifact["case"] == record["case"]
        assert artifact["error"]["message"] == "injected crash never fired"
        assert artifact["crash_at"] == record["crash_at"]
        assert "sweep --only" in artifact["rerun"]
        assert (tmp_path / "replay_case_0001.ref.run.journal").stat().st_size
        assert (tmp_path / "replay_case_0001.rec.run.journal").exists()

        key = RunKey.make("soak", artifact["run_key"]["params"])
        assert key.params == params
        monkeypatch.undo()
        replayed = soak.run_soak_params(key.params)
        assert replayed["case"] == record["case"]
        assert replayed["outcome"]["status"] == "ok"


class TestModes:
    @pytest.mark.parametrize("mode", list(soak.MODES))
    def test_run_soak_params_every_mode(self, mode):
        """The fabric's soak runner executes every mode in-library (the
        RunKey an artifact carries replays its case)."""
        record = soak.run_soak_params(
            {"mode": mode, "base_seed": 0, "index": 1}
        )
        assert record["outcome"]["status"] == "ok", record["outcome"]
        assert record["case"]["index"] == 1

    def test_refused_status_probe_is_a_contract_failure(self, monkeypatch):
        """A non-ok status reply breaks the service contract explicitly
        (not through an ``assert`` that ``python -O`` would strip)."""
        from repro.service import ServiceClient

        async def refused(client):
            return {"status": "error", "error": "probe refused"}

        monkeypatch.setattr(ServiceClient, "status", refused)
        record = soak.run_soak_params(
            {"mode": "service", "base_seed": 0, "index": 1}
        )
        assert record["outcome"]["error_type"] == "ServiceContract"
        assert any("status probes answered ['error']" in problem
                   for problem in record["problems"])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown soak mode"):
            soak.run_soak_params({"mode": "bogus", "base_seed": 0, "index": 0})


class TestCrashRecoveryMode:
    def test_crash_case_parity(self, tmp_path):
        """One chaos case through the full kill-and-resume pipeline:
        reference run, injected crash, snapshot+journal recovery, and
        the byte-for-byte golden comparison."""
        case = soak.build_case(1, 0)  # correlated x fcfs, resilience off
        outcome = soak.check_crash(case, tmp_path, {})
        assert outcome.status == "ok", outcome

    def test_mid_snapshot_write_case_parity(self, tmp_path):
        """Index % 5 == 0 cases crash via an injected I/O fault mid-
        snapshot-write, so recovery starts from before the torn write."""
        case = soak.build_case(0, 0)
        assert case.index % 5 == 0
        record = {}
        outcome = soak.check_crash(case, tmp_path, record)
        assert outcome.status == "ok", outcome
        assert record["crash_at"].startswith("first snapshot write")

    def test_cli_flag_wires_crash_mode(self, soak_cli, monkeypatch):
        calls = {}

        def fake(mode, runs, seed, out, jobs=1):
            calls["args"] = (mode, runs, seed, out, jobs)
            return 0

        monkeypatch.setattr(soak_cli, "run_soak", fake)
        assert soak_cli.main(
            ["--mode", "crash-recovery", "--runs", "3", "--seed", "9"]
        ) == 0
        assert calls["args"][0] == "crash-recovery"
        assert calls["args"][1] == 3 and calls["args"][2] == 9
        assert calls["args"][4] == 1  # --jobs defaults to serial
        with pytest.raises(SystemExit):
            soak_cli.main(["--mode", "bogus"])

    def test_cli_jobs_flag_fans_out(self, soak_cli, monkeypatch):
        calls = {}

        def fake(mode, runs, seed, out, jobs=1):
            calls["args"] = (mode, runs, seed, out, jobs)
            return 0

        monkeypatch.setattr(soak_cli, "run_soak", fake)
        assert soak_cli.main(["--runs", "4", "--jobs", "2"]) == 0
        assert calls["args"][0] == "plain"  # --mode defaults to plain
        assert calls["args"][1] == 4 and calls["args"][4] == 2
