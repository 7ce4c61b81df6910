"""Tests for DAG operations (repro.dag.graph)."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.dag import (
    DependencyCycleError,
    Job,
    Task,
    UnknownParentError,
    build_children_map,
    compute_levels,
    critical_path_length,
    descendants_by_depth,
    enumerate_chains,
    level_partition,
    order_and_children,
    topological_order,
    validate_acyclic,
)


def mk(tid: str, parents: tuple[str, ...] = ()) -> Task:
    return Task(task_id=tid, job_id="j", size_mi=1.0, parents=parents)


def task_map(*tasks: Task) -> dict[str, Task]:
    return {t.task_id: t for t in tasks}


@pytest.fixture
def diamond():
    return task_map(mk("a"), mk("b", ("a",)), mk("c", ("a",)), mk("d", ("b", "c")))


class TestChildrenMap:
    def test_diamond(self, diamond):
        kids = build_children_map(diamond)
        assert kids["a"] == ("b", "c")
        assert kids["b"] == ("d",)
        assert kids["d"] == ()

    def test_unknown_parent(self):
        with pytest.raises(UnknownParentError):
            build_children_map(task_map(mk("a", ("ghost",))))

    def test_empty(self):
        assert build_children_map({}) == {}


class TestValidateAcyclic:
    def test_accepts_dag(self, diamond):
        validate_acyclic(diamond)  # no raise

    def test_rejects_cycle(self):
        tasks = task_map(mk("a", ("b",)), mk("b", ("a",)))
        with pytest.raises(DependencyCycleError, match="cycle"):
            validate_acyclic(tasks)

    def test_rejects_long_cycle(self):
        tasks = task_map(mk("a", ("c",)), mk("b", ("a",)), mk("c", ("b",)))
        with pytest.raises(DependencyCycleError):
            validate_acyclic(tasks)


class TestTopologicalOrder:
    def test_parents_first(self, diamond):
        order = topological_order(diamond)
        pos = {t: i for i, t in enumerate(order)}
        assert pos["a"] < pos["b"] < pos["d"]
        assert pos["a"] < pos["c"] < pos["d"]

    def test_deterministic_lexicographic(self):
        tasks = task_map(mk("z"), mk("a"), mk("m"))
        assert topological_order(tasks) == ["a", "m", "z"]

    def test_cycle_raises(self):
        tasks = task_map(mk("a", ("b",)), mk("b", ("a",)))
        with pytest.raises(DependencyCycleError):
            topological_order(tasks)


class TestLevels:
    def test_diamond_levels(self, diamond):
        levels = compute_levels(diamond)
        assert levels == {"a": 1, "b": 2, "c": 2, "d": 3}

    def test_level_is_longest_path(self):
        # a -> b -> d, a -> d: d's level is 3 (via b), not 2.
        tasks = task_map(mk("a"), mk("b", ("a",)), mk("d", ("a", "b")))
        assert compute_levels(tasks)["d"] == 3

    def test_partition(self, diamond):
        part = level_partition(diamond)
        assert part == [["a"], ["b", "c"], ["d"]]

    def test_partition_empty(self):
        assert level_partition({}) == []


class TestChains:
    def test_diamond_chains(self, diamond):
        chains = enumerate_chains(diamond)
        assert ("a", "b", "d") in chains
        assert ("a", "c", "d") in chains
        assert len(chains) == 2

    def test_single_task(self):
        assert enumerate_chains(task_map(mk("a"))) == [("a",)]

    def test_max_chains_bound(self, diamond):
        assert len(enumerate_chains(diamond, max_chains=1)) == 1

    def test_chain_of_three(self):
        tasks = task_map(mk("a"), mk("b", ("a",)), mk("c", ("b",)))
        assert enumerate_chains(tasks) == [("a", "b", "c")]


class TestDescendantsByDepth:
    def test_diamond_from_root(self, diamond):
        assert descendants_by_depth(diamond, "a") == [["b", "c"], ["d"]]

    def test_leaf_has_none(self, diamond):
        assert descendants_by_depth(diamond, "d") == []

    def test_unknown_task(self, diamond):
        with pytest.raises(KeyError):
            descendants_by_depth(diamond, "nope")

    def test_shallowest_depth_wins(self):
        # d reachable at depth 1 (a->d) and depth 2 (a->b->d): report depth 1.
        tasks = task_map(mk("a"), mk("b", ("a",)), mk("d", ("a", "b")))
        assert descendants_by_depth(tasks, "a") == [["b", "d"]]


class TestCriticalPath:
    def test_diamond(self, diamond):
        exec_time = {t: 1.0 for t in diamond}
        assert critical_path_length(diamond, exec_time) == pytest.approx(3.0)

    def test_weighted(self, diamond):
        exec_time = {"a": 1.0, "b": 5.0, "c": 1.0, "d": 1.0}
        assert critical_path_length(diamond, exec_time) == pytest.approx(7.0)

    def test_empty(self):
        assert critical_path_length({}, {}) == 0.0

    def test_parallel_roots(self):
        tasks = task_map(mk("a"), mk("b"))
        assert critical_path_length(tasks, {"a": 2.0, "b": 3.0}) == pytest.approx(3.0)


# -- independent oracle ------------------------------------------------------
@st.composite
def drawn_dags(draw):
    """A small DAG whose ids are shuffled against its construction order:
    node ``i`` may only take parents among nodes ``0..i-1``, and the ids
    are distinct short strings drawn independently of ``i``."""
    n = draw(st.integers(min_value=1, max_value=9))
    ids = draw(
        st.lists(
            st.text(alphabet="abcxyz", min_size=1, max_size=3),
            min_size=n, max_size=n, unique=True,
        )
    )
    parents: list[tuple[int, ...]] = []
    for i in range(n):
        picked = draw(st.sets(st.integers(min_value=0, max_value=i - 1), max_size=3)) if i else set()
        parents.append(tuple(sorted(picked)))
    return ids, parents


def reference_order(tasks: dict[str, Task]) -> list[str]:
    """Repeatedly take the smallest id whose parents are all placed."""
    placed: list[str] = []
    done: set[str] = set()
    while len(placed) < len(tasks):
        tid = min(
            t for t, task in tasks.items()
            if t not in done and all(p in done for p in task.parents)
        )
        placed.append(tid)
        done.add(tid)
    return placed


def tasks_of(ids, parents, extra=None) -> dict[str, Task]:
    extra = extra or {}
    return task_map(*(
        mk(ids[i], tuple(ids[p] for p in parents[i]) + extra.get(i, ()))
        for i in range(len(ids))
    ))


class TestKahnOracle:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(drawn_dags())
    def test_order_matches_reference(self, dag):
        ids, parents = dag
        tasks = tasks_of(ids, parents)
        assert topological_order(tasks) == reference_order(tasks)
        validate_acyclic(tasks)  # no raise

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(drawn_dags())
    def test_one_pass_children_match_inversion(self, dag):
        """The Kahn pass's child lists, and a job's cached children, are
        the same sorted tuples as a separate inversion."""
        ids, parents = dag
        tasks = tasks_of(ids, parents)
        order, children = order_and_children(tasks)
        assert order == topological_order(tasks)
        assert children == build_children_map(tasks)
        job = Job("j", tasks, deadline=1.0)
        assert job.children == children
        assert job.topo_order == order

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(drawn_dags(), st.data())
    def test_back_edge_names_a_real_cycle(self, dag, data):
        ids, parents = dag
        # A back edge from some task to one of its ancestors closes a cycle.
        ancestors = {i: set() for i in range(len(ids))}
        for i, ps in enumerate(parents):
            for p in ps:
                ancestors[i] |= {p} | ancestors[p]
        edged = [i for i in ancestors if ancestors[i]]
        assume(edged)
        child = data.draw(st.sampled_from(edged))
        ancestor = data.draw(st.sampled_from(sorted(ancestors[child])))
        tasks = tasks_of(ids, parents, extra={ancestor: (ids[child],)})
        for check in (validate_acyclic, topological_order):
            with pytest.raises(DependencyCycleError) as err:
                check(tasks)
            path = str(err.value).split(": ", 1)[1].split(" -> ")
            assert len(path) >= 3 and path[0] == path[-1]
            for parent, kid in zip(path, path[1:]):
                assert parent in tasks[kid].parents
