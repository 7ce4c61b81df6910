"""Unit tests for DSP's Algorithm 1 (urgent pass, C1/C2, PP filter, δ)."""

import pytest

from repro.config import DSPConfig
from repro.core import DSPPreemption
from repro.dag.graph import build_children_map
from repro.sim.policy import PreemptionDecision

from tests.helpers import make_node_view, make_view


class StubCtx:
    """Minimal SimContext substitute driving the priority evaluator."""

    def __init__(self, tasks, remaining=None, waiting=None, allowable=None):
        self.tasks = tasks
        self.children = build_children_map(tasks)
        self._rem = remaining or {}
        self._wait = waiting or {}
        self._allow = allowable or {}

    def remaining_time(self, tid):
        return self._rem.get(tid, 10.0)

    def waiting_time(self, tid):
        return self._wait.get(tid, 0.0)

    def allowable_wait(self, tid):
        return self._allow.get(tid, 100.0)

    def is_completed(self, tid):
        return False


def attach_policy(config=None, tasks=None, **signals) -> DSPPreemption:

    tasks = tasks or {}
    policy = DSPPreemption(config or DSPConfig())
    policy.attach(StubCtx(tasks, **signals))
    return policy


def flat_tasks(*ids: str):
    from tests.helpers import make_task

    return {tid: make_task(task_id=tid) for tid in ids}


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
        tasks = flat_tasks("w", "r")
        policy = attach_policy(tasks=tasks, remaining={"w": 10.0, "r": 10.0})
        view = make_node_view(
            running=[make_view("r", running=True, allowable=100.0)],
            waiting=[make_view("w", allowable=0.005)],  # <= epsilon
        )
        decisions = policy.select_preemptions(view)
        assert decisions == [PreemptionDecision("w", "r")]

    def test_urgent_by_overdue_tau(self):
        tasks = flat_tasks("w", "r")
        cfg = DSPConfig(tau=30.0)
        # Give the waiting task a LOWER priority than the runner so only
        # the urgent pass (not C1) can fire.
        policy = attach_policy(cfg, tasks=tasks, remaining={"w": 100.0, "r": 0.1})
        view = make_node_view(
            running=[make_view("r", running=True, allowable=100.0, remaining=0.1)],
            waiting=[make_view("w", overdue_waiting=31.0, remaining=100.0)],
        )
        assert policy.select_preemptions(view) == [PreemptionDecision("w", "r")]

    def test_not_urgent_below_tau(self):
        tasks = flat_tasks("w", "r")
        cfg = DSPConfig(tau=30.0)
        policy = attach_policy(cfg, tasks=tasks, remaining={"w": 100.0, "r": 0.1})
        view = make_node_view(
            running=[make_view("r", running=True, allowable=100.0, remaining=0.1)],
            waiting=[make_view("w", overdue_waiting=5.0, remaining=100.0)],
        )
        assert list(policy.select_preemptions(view)) == []

    def test_urgent_still_respects_c2(self):
        tasks = flat_tasks("w", "r")
        policy = attach_policy(tasks=tasks)
        view = make_node_view(
            running=[make_view("r", running=True, allowable=100.0)],
            waiting=[make_view("w", allowable=0.0, depends_on=frozenset({"r"}))],
        )
        assert list(policy.select_preemptions(view)) == []

    def test_non_runnable_waiting_skipped(self):
        tasks = flat_tasks("w", "r")
        policy = attach_policy(tasks=tasks)
        view = make_node_view(
            running=[make_view("r", running=True, allowable=100.0)],
            waiting=[make_view("w", allowable=0.0, runnable=False)],
        )
        assert list(policy.select_preemptions(view)) == []


class TestConditionsC1C2:
    def test_c1_higher_priority_preempts(self):
        tasks = flat_tasks("w", "r")
        # w nearly done (high 1/t_rem), r long: w outranks r by a lot.
        policy = attach_policy(
            DSPConfig().without_pp(), tasks=tasks,
            remaining={"w": 0.01, "r": 100.0},
        )
        view = make_node_view(
            running=[make_view("r", running=True, remaining=100.0, allowable=100.0)],
            waiting=[make_view("w", remaining=0.01)],
        )
        assert policy.select_preemptions(view) == [PreemptionDecision("w", "r")]

    def test_c1_lower_priority_does_not(self):
        tasks = flat_tasks("w", "r")
        policy = attach_policy(
            DSPConfig().without_pp(), tasks=tasks,
            remaining={"w": 100.0, "r": 0.01},
        )
        view = make_node_view(
            running=[make_view("r", running=True, remaining=0.01, allowable=100.0)],
            waiting=[make_view("w", remaining=100.0)],
        )
        assert list(policy.select_preemptions(view)) == []

    def test_c2_skips_ancestor_takes_next(self):
        tasks = flat_tasks("w", "r1", "r2")
        policy = attach_policy(
            DSPConfig().without_pp(), tasks=tasks,
            remaining={"w": 0.01, "r1": 200.0, "r2": 100.0},
        )
        # r1 has the lowest priority but w depends on it -> r2 is evicted.
        view = make_node_view(
            running=[
                make_view("r1", running=True, remaining=200.0, allowable=100.0),
                make_view("r2", running=True, remaining=100.0, allowable=100.0),
            ],
            waiting=[make_view("w", remaining=0.01, depends_on=frozenset({"r1"}))],
        )
        assert policy.select_preemptions(view) == [PreemptionDecision("w", "r2")]

    def test_running_with_tight_slack_not_preemptable(self):
        tasks = flat_tasks("w", "r")
        policy = attach_policy(
            DSPConfig().without_pp(), tasks=tasks,
            remaining={"w": 0.01, "r": 100.0},
        )
        # allowable_wait (2.0) <= epoch (5.0): protected.
        view = make_node_view(
            running=[make_view("r", running=True, remaining=100.0, allowable=2.0)],
            waiting=[make_view("w", remaining=0.01)],
            epoch=5.0,
        )
        assert list(policy.select_preemptions(view)) == []

    def test_victim_used_once(self):
        tasks = flat_tasks("w1", "w2", "r")
        policy = attach_policy(
            DSPConfig().without_pp(), tasks=tasks,
            remaining={"w1": 0.01, "w2": 0.02, "r": 100.0},
        )
        view = make_node_view(
            running=[make_view("r", running=True, remaining=100.0, allowable=100.0)],
            waiting=[make_view("w1", remaining=0.01), make_view("w2", remaining=0.02)],
        )
        decisions = policy.select_preemptions(view)
        assert len(decisions) == 1  # only one victim available


class TestPPFilter:
    def _view(self):
        return make_node_view(
            running=[make_view("r", running=True, remaining=9.0, allowable=100.0)],
            waiting=[make_view("w", remaining=8.0), make_view("z", remaining=10.0)],
        )

    def test_small_gap_suppressed_with_pp(self):
        # Priorities: leaf = 0.5/rem + ...; w vs r gap tiny relative to the
        # neighbour scale -> PP must suppress.
        tasks = flat_tasks("w", "r", "z")
        policy = attach_policy(
            DSPConfig(rho=1.5), tasks=tasks,
            remaining={"w": 8.0, "r": 9.0, "z": 10.0},
            allowable={"w": 0.0, "r": 0.0, "z": 0.0},
            waiting={"w": 0.0, "r": 0.0, "z": 0.0},
        )
        assert list(policy.select_preemptions(self._view())) == []

    def test_same_gap_allowed_without_pp(self):
        tasks = flat_tasks("w", "r", "z")
        policy = attach_policy(
            DSPConfig(rho=1.5).without_pp(), tasks=tasks,
            remaining={"w": 8.0, "r": 9.0, "z": 10.0},
            allowable={"w": 0.0, "r": 0.0, "z": 0.0},
            waiting={"w": 0.0, "r": 0.0, "z": 0.0},
        )
        decisions = policy.select_preemptions(self._view())
        assert decisions == [PreemptionDecision("w", "r")]

    def test_large_gap_passes_pp(self):
        tasks = flat_tasks("w", "r", "z")
        policy = attach_policy(
            DSPConfig(rho=1.5), tasks=tasks,
            remaining={"w": 0.01, "r": 9.0, "z": 10.0},
            allowable={"w": 0.0, "r": 0.0, "z": 0.0},
            waiting={"w": 0.0, "r": 0.0, "z": 0.0},
        )
        view = make_node_view(
            running=[make_view("r", running=True, remaining=9.0, allowable=100.0)],
            waiting=[make_view("w", remaining=0.01), make_view("z", remaining=10.0)],
        )
        assert policy.select_preemptions(view) == [PreemptionDecision("w", "r")]


class TestDeltaWindow:
    def test_only_head_fraction_considered(self):
        # δ = 0.2 over 10 waiting tasks -> only the first 2 may preempt.
        tasks = flat_tasks("r1", "r2", "r3", *(f"w{i}" for i in range(10)))
        remaining = {f"w{i}": 0.01 for i in range(10)}
        remaining.update({"r1": 100.0, "r2": 100.0, "r3": 100.0})
        policy = attach_policy(
            DSPConfig(delta=0.2).without_pp(), tasks=tasks, remaining=remaining,
        )
        view = make_node_view(
            running=[
                make_view(r, running=True, remaining=100.0, allowable=100.0)
                for r in ("r1", "r2", "r3")
            ],
            waiting=[make_view(f"w{i}", remaining=0.01) for i in range(10)],
        )
        decisions = policy.select_preemptions(view)
        assert len(decisions) == 2
        assert {d.preempting_task_id for d in decisions} == {"w0", "w1"}


class TestEdgeCases:
    def test_empty_views(self):
        policy = attach_policy(tasks=flat_tasks("x"))
        assert list(policy.select_preemptions(make_node_view([], []))) == []
        only_running = make_node_view([make_view("x", running=True)], [])
        assert list(policy.select_preemptions(only_running)) == []

    def test_unattached_policy_raises(self):
        policy = DSPPreemption()
        view = make_node_view(
            [make_view("r", running=True)], [make_view("w")]
        )
        with pytest.raises(AssertionError):
            policy.select_preemptions(view)

    def test_non_preemptable_running_ignored(self):
        tasks = flat_tasks("w", "r")
        policy = attach_policy(
            DSPConfig().without_pp(), tasks=tasks,
            remaining={"w": 0.01, "r": 100.0},
        )
        view = make_node_view(
            running=[make_view("r", running=True, remaining=100.0,
                               allowable=100.0, preemptable=False)],
            waiting=[make_view("w", remaining=0.01)],
        )
        assert list(policy.select_preemptions(view)) == []
