"""Unit tests for DSP's Algorithm 1 (urgent pass, C1/C2, PP filter, δ).

The scenarios drive :func:`repro.core.preemption.algorithm1` directly
with hand-set per-task values; the scores are Eq. 13 leaf priorities
(:func:`~repro.core.priority.leaf_priority`) of the stated remaining,
waiting and allowable times.
"""

from dataclasses import dataclass

import pytest

from repro.cluster import Cluster, NodeSpec
from repro.config import DSPConfig, SimConfig
from repro.core import DSPPreemption, HeuristicScheduler
from repro.core.preemption import algorithm1
from repro.core.priority import leaf_priority
from repro.dag import Job
from repro.sim import SimEngine
from repro.sim.policy import PreemptionDecision

from tests.helpers import make_node_view, make_task, make_view


@dataclass
class T:
    """One task's Algorithm 1 inputs: a score and the scan signals."""

    task_id: str
    score: float
    allowable: float = 100.0
    overdue: float = 0.0
    runnable: bool = True
    preemptable: bool = True
    ancestors: frozenset[str] = frozenset()


def score(remaining=10.0, waiting=0.0, allowable=100.0, config=None) -> float:
    """Eq. 13 leaf priority under *config* (default weights)."""
    return leaf_priority(config or DSPConfig(), remaining, waiting, allowable)


def decide(running, waiting, config=None, epoch=5.0) -> list[PreemptionDecision]:
    tasks = [*running, *waiting]
    return algorithm1(
        config or DSPConfig(),
        epoch,
        [t.task_id for t in running],
        [t.task_id for t in waiting],
        [t.score for t in tasks],
        [t.overdue for t in tasks],
        [t.allowable for t in tasks],
        [t.runnable for t in tasks],
        [t.preemptable for t in tasks],
        {t.task_id: t.ancestors for t in waiting},
    )


class TestNames:
    def test_pp_name(self):
        assert DSPPreemption(DSPConfig()).name == "DSP"

    def test_wopp_name(self):
        assert DSPPreemption(DSPConfig().without_pp()).name == "DSPW/oPP"

    def test_flags(self):
        p = DSPPreemption()
        assert p.respects_dependencies and p.uses_checkpointing


class TestUrgentPass:
    def test_urgent_by_allowable(self):
        decisions = decide(
            running=[T("r", score())],
            waiting=[T("w", score(), allowable=0.005)],  # <= epsilon
        )
        assert decisions == [PreemptionDecision("w", "r")]

    def test_urgent_by_overdue_tau(self):
        cfg = DSPConfig(tau=30.0)
        # Give the waiting task a LOWER priority than the runner so only
        # the urgent pass (not C1) can fire.
        decisions = decide(
            running=[T("r", score(0.1))],
            waiting=[T("w", score(100.0), overdue=31.0)],
            config=cfg,
        )
        assert decisions == [PreemptionDecision("w", "r")]

    def test_not_urgent_below_tau(self):
        cfg = DSPConfig(tau=30.0)
        decisions = decide(
            running=[T("r", score(0.1))],
            waiting=[T("w", score(100.0), overdue=5.0)],
            config=cfg,
        )
        assert decisions == []

    def test_urgent_still_respects_c2(self):
        decisions = decide(
            running=[T("r", score())],
            waiting=[T("w", score(), allowable=0.0, ancestors=frozenset({"r"}))],
        )
        assert decisions == []

    def test_non_runnable_waiting_skipped(self):
        decisions = decide(
            running=[T("r", score())],
            waiting=[T("w", score(), allowable=0.0, runnable=False)],
        )
        assert decisions == []


class TestConditionsC1C2:
    def test_c1_higher_priority_preempts(self):
        # w nearly done (high 1/t_rem), r long: w outranks r by a lot.
        decisions = decide(
            running=[T("r", score(100.0))],
            waiting=[T("w", score(0.01))],
            config=DSPConfig().without_pp(),
        )
        assert decisions == [PreemptionDecision("w", "r")]

    def test_c1_lower_priority_does_not(self):
        decisions = decide(
            running=[T("r", score(0.01))],
            waiting=[T("w", score(100.0))],
            config=DSPConfig().without_pp(),
        )
        assert decisions == []

    def test_c2_skips_ancestor_takes_next(self):
        # r1 has the lowest priority but w depends on it -> r2 is evicted.
        decisions = decide(
            running=[T("r1", score(200.0)), T("r2", score(100.0))],
            waiting=[T("w", score(0.01), ancestors=frozenset({"r1"}))],
            config=DSPConfig().without_pp(),
        )
        assert decisions == [PreemptionDecision("w", "r2")]

    def test_running_with_tight_slack_not_preemptable(self):
        # allowable_wait (2.0) <= epoch (5.0): protected.
        decisions = decide(
            running=[T("r", score(100.0), allowable=2.0)],
            waiting=[T("w", score(0.01))],
            config=DSPConfig().without_pp(),
            epoch=5.0,
        )
        assert decisions == []

    def test_victim_used_once(self):
        decisions = decide(
            running=[T("r", score(100.0))],
            waiting=[T("w1", score(0.01)), T("w2", score(0.02))],
            config=DSPConfig().without_pp(),
        )
        assert len(decisions) == 1  # only one victim available


class TestPPFilter:
    # Scores of tasks with remaining 8/9/10 s and no waiting or slack.
    def _decide(self, config, w_remaining=8.0):
        return decide(
            running=[T("r", score(9.0, allowable=0.0))],
            waiting=[
                T("w", score(w_remaining, allowable=0.0)),
                T("z", score(10.0, allowable=0.0)),
            ],
            config=config,
        )

    def test_small_gap_suppressed_with_pp(self):
        # w vs r gap tiny relative to the neighbour scale -> PP must
        # suppress.
        assert self._decide(DSPConfig(rho=1.5)) == []

    def test_same_gap_allowed_without_pp(self):
        decisions = self._decide(DSPConfig(rho=1.5).without_pp())
        assert decisions == [PreemptionDecision("w", "r")]

    def test_large_gap_passes_pp(self):
        decisions = self._decide(DSPConfig(rho=1.5), w_remaining=0.01)
        assert decisions == [PreemptionDecision("w", "r")]


class TestDeltaWindow:
    def test_only_head_fraction_considered(self):
        # δ = 0.2 over 10 waiting tasks -> only the first 2 may preempt.
        decisions = decide(
            running=[T(r, score(100.0)) for r in ("r1", "r2", "r3")],
            waiting=[T(f"w{i}", score(0.01)) for i in range(10)],
            config=DSPConfig(delta=0.2).without_pp(),
        )
        assert len(decisions) == 2
        assert {d.preempting_task_id for d in decisions} == {"w0", "w1"}


class TestEdgeCases:
    def test_empty_views(self):
        assert decide([], []) == []
        assert decide([T("x", score())], []) == []

    def test_unattached_policy_raises(self):
        cluster = Cluster([
            NodeSpec(node_id="n0", cpu_size=1.0, mem_size=1.0, mips_per_unit=500.0)
        ])
        job = Job.from_tasks("J", [make_task("J.a", "J")], deadline=1e6)
        engine = SimEngine(
            cluster, [job], HeuristicScheduler(cluster),
            preemption=DSPPreemption(),
            sim_config=SimConfig(epoch=1.0, scheduling_period=10.0),
        )
        rt = engine.runtime
        with pytest.raises(RuntimeError, match="attach"):
            DSPPreemption().select_preemptions_from_core(rt, rt.state.nodes["n0"])

    def test_view_protocol_refused(self):
        view = make_node_view([make_view("r", running=True)], [make_view("w")])
        with pytest.raises(NotImplementedError):
            DSPPreemption().select_preemptions(view)

    def test_non_preemptable_running_ignored(self):
        decisions = decide(
            running=[T("r", score(100.0), preemptable=False)],
            waiting=[T("w", score(0.01))],
            config=DSPConfig().without_pp(),
        )
        assert decisions == []
