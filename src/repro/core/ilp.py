"""Exact ILP makespan minimization (§III, Eq. 3–11).

The paper formulates offline scheduling as an ILP: binary assignment
variables :math:`x_{ij,k}` (task → node), sequencing variables
:math:`y_{ij,uv,k}` (order between two tasks sharing a node), continuous
start times :math:`t^s_{ij}` and the makespan :math:`\\mathcal{L_{MS}}` to
minimize, under precedence (Eq. 7), per-node mutual exclusion (Eq. 5, 8),
deadlines (Eq. 6) and the preemption-overhead terms
:math:`N^p(t^r+\\sigma)`.

The paper solves this with CPLEX; we substitute **HiGHS** via
:func:`scipy.optimize.milp` (see DESIGN.md §2).  The constraints as printed
contain products of decision variables; we linearize them with the standard
big-M disjunctive formulation for machine scheduling:

* assignment:      :math:`\\sum_k x_{i,k} = 1`
* makespan:        :math:`s_i + \\sum_k c_{i,k} x_{i,k} \\le L`
* precedence:      :math:`s_j \\ge s_i + \\sum_k c_{i,k} x_{i,k}`
* deadline:        :math:`s_i + \\sum_k c_{i,k} x_{i,k} \\le d_i`
* disjunction (pair *(i, j)* with no precedence path, node *k*):

  .. math::

     s_i + c_{i,k} \\le s_j + M(3 - z_{ij,k} - x_{i,k} - x_{j,k})\\\\
     s_j + c_{j,k} \\le s_i + M(2 + z_{ij,k} - x_{i,k} - x_{j,k})

where :math:`c_{i,k} = t_{i,k} + N^p_i (t^r + \\sigma)` folds the expected
preemption overhead into the busy time, exactly as Eq. 4/6 do.

The ILP treats each node as a unit-capacity processor (the paper's
sequencing semantics); the multi-resource concurrency of real nodes is
handled by the heuristic scheduler and the simulator.  Exact solving is
intended for small instances (≲ 15 tasks × 4 nodes); ``relax=True``
implements the paper's "relax to a real-valued problem, then round"
fallback for anything bigger.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .._util import check_non_negative
from ..cluster.cluster import Cluster
from ..config import DSPConfig
from ..dag.job import Job
from ..dag.task import Task
from .schedule import Schedule, ScheduleInfeasible, TaskAssignment

__all__ = ["ILPScheduler", "ILPResult"]


@dataclass(frozen=True)
class ILPResult:
    """Outcome of one solve: the schedule, the objective (makespan), and
    solver metadata (status string, whether the run was the LP relaxation,
    and the MIP gap when reported)."""

    schedule: Schedule
    makespan: float
    status: str
    relaxed: bool
    mip_gap: float | None = None


def _descendants(kids: Sequence[Sequence[int]], root: int) -> set[int]:
    """Indices reachable from *root* along ``kids`` edges, *root* excluded."""
    seen: set[int] = set()
    stack = list(kids[root])
    while stack:
        i = stack.pop()
        if i not in seen:
            seen.add(i)
            stack.extend(kids[i])
    return seen


class ILPScheduler:
    """Builds and solves the Eq. 3–11 model for a batch of jobs.

    Parameters
    ----------
    cluster:
        Target nodes; g(k) is evaluated with the config's θ weights.
    config:
        Supplies θ1/θ2 and the preemption-overhead constants t_r and σ.
    preemption_estimates:
        Optional task_id → expected number of preemptions :math:`N^p`
        (the paper estimates it from size/dependency/deadline following
        [29]); each adds :math:`N^p (t^r + \\sigma)` to the task's busy
        time.  Default: zero for all tasks.
    """

    def __init__(
        self,
        cluster: Cluster,
        config: DSPConfig | None = None,
        preemption_estimates: Mapping[str, float] | None = None,
    ):
        self._cluster = cluster
        self._config = config or DSPConfig()
        self._preempt = dict(preemption_estimates or {})
        for tid, n in self._preempt.items():
            check_non_negative(n, f"preemption_estimates[{tid!r}]")

    # -- model pieces ----------------------------------------------------
    def _busy_time(self, task: Task, rate: float) -> float:
        """c_{i,k}: execution time plus expected preemption overhead."""
        overhead = self._preempt.get(task.task_id, 0.0) * (
            self._config.recovery_time + self._config.sigma
        )
        return task.execution_time(rate) + overhead

    def solve(
        self,
        jobs: Sequence[Job],
        *,
        relax: bool = False,
        time_limit: float | None = 60.0,
        mip_rel_gap: float | None = None,
        enforce_deadlines: bool = True,
    ) -> ILPResult:
        """Solve the batch scheduling model for *jobs*.

        ``relax=True`` drops integrality (the paper's real-number
        relaxation) and repairs the fractional solution into a feasible
        schedule by list-scheduling tasks in fractional-start order on
        their argmax nodes.

        Raises :class:`ScheduleInfeasible` when HiGHS proves infeasibility
        (e.g. deadlines too tight) or returns no solution in the limit.
        """
        # scipy is imported here, not at module level, so that planners
        # that never solve an ILP start without loading it.
        import scipy.sparse as sp
        from scipy.optimize import Bounds, LinearConstraint, milp

        tasks: list[Task] = []
        deadline: dict[str, float] = {}
        release: dict[str, float] = {}
        for job in jobs:
            for task in job.tasks.values():
                tasks.append(task)
                deadline[task.task_id] = job.deadline
                release[task.task_id] = job.arrival_time
        if not tasks:
            return ILPResult(Schedule({}), 0.0, "empty", relax)

        nodes = list(self._cluster.nodes)
        rates = [
            n.processing_rate(self._config.theta_cpu, self._config.theta_mem) for n in nodes
        ]
        T, N = len(tasks), len(nodes)
        tindex = {t.task_id: i for i, t in enumerate(tasks)}
        busy = np.array([[self._busy_time(t, r) for r in rates] for t in tasks])

        # Precedence-path matrix: pairs already ordered skip the disjunction.
        kids: list[list[int]] = [[] for _ in range(T)]
        for t in tasks:
            for p in t.parents:
                kids[tindex[p]].append(tindex[t.task_id])
        reach = [_descendants(kids, i) for i in range(T)]

        pairs = [
            (i, j)
            for i, j in itertools.combinations(range(T), 2)
            if j not in reach[i] and i not in reach[j]
        ]

        # Variable layout: [x(T*N) | s(T) | z(len(pairs)*N) | L]
        nx_vars = T * N
        ns_vars = T
        nz_vars = len(pairs) * N
        nvars = nx_vars + ns_vars + nz_vars + 1

        def xv(i: int, k: int) -> int:
            return i * N + k

        def sv(i: int) -> int:
            return nx_vars + i

        def zv(p: int, k: int) -> int:
            return nx_vars + ns_vars + p * N + k

        Lv = nvars - 1

        # Horizon: any list schedule fits in max release + total busy time,
        # so some optimal solution has every start below this bound.  Using
        # it both as the big-M and as an explicit upper bound on the start
        # variables keeps M small — big-M times the solver's integrality
        # tolerance is real leaked overlap, so M must never scale with
        # loose deadlines.
        max_release = max(release.values(), default=0.0)
        horizon = max_release + float(busy.max(axis=1).sum()) + 1.0
        big_m = horizon

        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        lbs: list[float] = []
        ubs: list[float] = []
        row = 0

        def add(entries: list[tuple[int, float]], lb: float, ub: float) -> None:
            nonlocal row
            for col, val in entries:
                rows.append(row)
                cols.append(col)
                vals.append(val)
            lbs.append(lb)
            ubs.append(ub)
            row += 1

        # (a) each task on exactly one node.
        for i in range(T):
            add([(xv(i, k), 1.0) for k in range(N)], 1.0, 1.0)

        # (b) makespan: s_i + sum_k c_ik x_ik - L <= 0  (Eq. 4 with min start
        # pinned at the earliest release; starts are bounded below by release).
        for i in range(T):
            entries = [(sv(i), 1.0), (Lv, -1.0)]
            entries += [(xv(i, k), busy[i, k]) for k in range(N)]
            add(entries, -np.inf, 0.0)

        # (c) precedence (Eq. 7): s_child - s_parent - sum_k c_pk x_pk >= 0.
        for t in tasks:
            j = tindex[t.task_id]
            for parent in t.parents:
                i = tindex[parent]
                entries = [(sv(j), 1.0), (sv(i), -1.0)]
                entries += [(xv(i, k), -busy[i, k]) for k in range(N)]
                add(entries, 0.0, np.inf)

        # (d) deadlines (Eq. 6): s_i + sum_k c_ik x_ik <= d_i.
        if enforce_deadlines:
            for i, t in enumerate(tasks):
                entries = [(sv(i), 1.0)] + [(xv(i, k), busy[i, k]) for k in range(N)]
                add(entries, -np.inf, deadline[t.task_id])

        # (f) disjunctive no-overlap (Eq. 5 + 8) per unordered pair per node.
        for p, (i, j) in enumerate(pairs):
            for k in range(N):
                # s_i - s_j + M z + M x_i + M x_j <= 3M - c_ik
                add(
                    [
                        (sv(i), 1.0),
                        (sv(j), -1.0),
                        (zv(p, k), big_m),
                        (xv(i, k), big_m),
                        (xv(j, k), big_m),
                    ],
                    -np.inf,
                    3.0 * big_m - busy[i, k],
                )
                # s_j - s_i - M z + M x_i + M x_j <= 2M - c_jk
                add(
                    [
                        (sv(j), 1.0),
                        (sv(i), -1.0),
                        (zv(p, k), -big_m),
                        (xv(i, k), big_m),
                        (xv(j, k), big_m),
                    ],
                    -np.inf,
                    2.0 * big_m - busy[j, k],
                )

        A = sp.csc_matrix((vals, (rows, cols)), shape=(row, nvars))
        constraints = LinearConstraint(A, np.array(lbs), np.array(ubs))

        c = np.zeros(nvars)
        c[Lv] = 1.0

        lower = np.zeros(nvars)
        upper = np.full(nvars, np.inf)
        upper[:nx_vars] = 1.0
        upper[nx_vars + ns_vars : nvars - 1] = 1.0
        for i, t in enumerate(tasks):
            lower[sv(i)] = release[t.task_id]
            upper[sv(i)] = horizon  # see big-M note above
        upper[Lv] = horizon

        integrality = np.zeros(nvars)
        if not relax:
            integrality[:nx_vars] = 1
            integrality[nx_vars + ns_vars : nvars - 1] = 1

        options: dict[str, float | bool] = {"disp": False}
        if time_limit is not None:
            options["time_limit"] = time_limit
        if mip_rel_gap is not None and not relax:
            options["mip_rel_gap"] = mip_rel_gap

        res = milp(
            c,
            constraints=constraints,
            integrality=integrality,
            bounds=Bounds(lower, upper),
            options=options,
        )
        if res.x is None:
            raise ScheduleInfeasible(
                f"HiGHS returned no solution (status={res.status}): {res.message}"
            )

        if relax:
            schedule = self._round_relaxation(tasks, nodes, rates, release, res.x, xv, sv)
            return ILPResult(
                schedule, schedule.makespan, f"relaxed:{res.message}", True
            )

        assignments: dict[str, TaskAssignment] = {}
        for i, t in enumerate(tasks):
            k = int(np.argmax([res.x[xv(i, kk)] for kk in range(N)]))
            start = float(res.x[sv(i)])
            assignments[t.task_id] = TaskAssignment(
                task_id=t.task_id,
                node_id=nodes[k].node_id,
                start=start,
                finish=start + float(busy[i, k]),
            )
        schedule = Schedule(assignments, objective=float(res.x[Lv]))
        gap = getattr(res, "mip_gap", None)
        return ILPResult(
            schedule, float(res.x[Lv]), str(res.message), False,
            mip_gap=float(gap) if gap is not None else None,
        )

    # -- relaxation repair ------------------------------------------------
    def _round_relaxation(
        self,
        tasks: Sequence[Task],
        nodes,
        rates: Sequence[float],
        release: Mapping[str, float],
        x: np.ndarray,
        xv,
        sv,
    ) -> Schedule:
        """Round a fractional LP solution into a feasible schedule.

        Node = argmax of the fractional assignment row; order = fractional
        start times; start = max(node free time, parents' finish, release).
        This is the 'integer rounding to get the solution for practical
        use' step the paper describes.
        """
        N = len(nodes)
        order = sorted(
            range(len(tasks)), key=lambda i: (float(x[sv(i)]), tasks[i].task_id)
        )
        node_free = {n.node_id: 0.0 for n in nodes}
        finish: dict[str, float] = {}
        assignments: dict[str, TaskAssignment] = {}
        pending = set(range(len(tasks)))
        # Repair may need several passes because fractional start order can
        # disagree with precedence; schedule any task whose parents are done.
        while pending:
            progressed = False
            for i in order:
                if i not in pending:
                    continue
                t = tasks[i]
                if any(p not in finish for p in t.parents):
                    continue
                k = int(np.argmax([x[xv(i, kk)] for kk in range(N)]))
                node = nodes[k]
                start = max(
                    node_free[node.node_id],
                    release[t.task_id],
                    max((finish[p] for p in t.parents), default=0.0),
                )
                end = start + self._busy_time(t, rates[k])
                node_free[node.node_id] = end
                finish[t.task_id] = end
                assignments[t.task_id] = TaskAssignment(
                    task_id=t.task_id, node_id=node.node_id, start=start, finish=end
                )
                pending.discard(i)
                progressed = True
            if not progressed:
                missing = [tasks[i].task_id for i in sorted(pending)][:3]
                raise ScheduleInfeasible(
                    f"relaxation repair stuck; unresolved precedence at {missing}"
                )
        return Schedule(assignments)
