"""Array-backed kernel core: a struct-of-arrays mirror of live state.

The object model (:class:`~repro.sim.executor.TaskRuntime` /
:class:`~repro.sim.executor.NodeRuntime`) stays the authoritative API
surface — subsystems mutate it exactly as before.  This module maintains
a *mirror* of the hot-path signals in dense numpy columns, keyed by a
dense integer row id per task, and rewrites the three per-epoch inner
loops against it:

* **priority scoring** — Eq. 12–13 evaluated for the whole live task set
  in one vectorized pass per (clock, version) generation;
* **victim/eligibility scans** — the dispatcher's queue scan reads a
  per-node dispatch index kept in queue order (see below), the
  stall-timeout sweep is a boolean mask over the columns instead of a
  Python loop over runtime objects, and Algorithm 1's victim-scan
  signals are derived for every row once per generation (off the
  scoring pass's allowable column), so each further contended node of
  an epoch sweep costs one gather — DSP's Algorithm 1
  (:func:`~repro.core.preemption.algorithm1`) decides off these values
  and the scores alone;
* **signal gathering** — :class:`~repro.sim.views.ViewCache` computes
  the time-varying signals the baselines' claim loop reads (remaining
  time, waiting time, preemptability) for a node in one vectorized
  shot.

Dispatch index and node versions
--------------------------------
For each node position the core keeps, as ``(planned_start, task_id)``
lists in ascending order (the ``NodeRuntime`` queue order, Fig. 4), the
queued rows the dispatcher can start: *ready* rows (no unfinished
parent) and *held* rows (unfinished parents, not stall-banned — the
ones a dependency-blind dispatcher starts once their planned start has
passed).  Membership is a function of the mirrored columns (state,
node, unfinished parents, ban, planned start), so every path that
writes those columns (:meth:`ArrayCore._sync_row`, the completion
mirror, retirement, node resets) refiles the row through
:meth:`ArrayCore._file`.

Each node position carries a version (:meth:`ArrayCore.node_version`)
drawn from one counter that never repeats.  It moves only when the
node's candidate lists change (a row filed in, out or between them) or
the position itself changes hands (a join reusing it, a node reset).
The dispatcher's no-op memo (see
:meth:`~repro.sim.dispatch.DispatchSubsystem.dispatch`) keys on it.

Consistency model
-----------------
The mirror is the first bus subscriber.  Every task-bearing event
re-reads the touched :class:`TaskRuntime` into its row — the mirror
never duplicates mutation logic, it only *copies* fields the mutators
already wrote before emitting, so a missed formula cannot diverge, only
a missed event can (and the after-every-event oracle in
``tests/test_sched_core.py``, which compares every score against a fresh
:class:`~repro.core.priority.PriorityEvaluator`, exists to catch exactly
that).  World-shifting events (faults, backlog re-homing, membership)
trigger a full resync — they are rare and may move state without
per-task events.  A scheduling round mutates only the tasks of the
batch it planned, so the dispatcher files just those rows in one pass
(:meth:`ArrayCore.file_round`) before announcing the round.
``TaskFinished`` additionally mirrors the two *post-emit* mutations the
completion path performs (decrementing children's unfinished-parent
counts and the parents' live-dependent counts), because consumers may
query between the emit and the mutation.

Bit-exactness contract
----------------------
Scores and gathered signals are produced by the same float operations
in the same order as the scalar code (`TaskRuntime.remaining_time_at`
and friends, ``PriorityEvaluator.compute``).  numpy elementwise binary
float64 ops are IEEE-754 correctly rounded — identical to CPython scalar
ops — so the only ordering hazard is reduction: Eq. 12 sums live-
dependent scores *sequentially in insertion order*, which ``np.sum``'s
pairwise reduction would break.  The aggregation below therefore
accumulates column-by-column over a padded child matrix
(``acc = acc + where(child_live, score[child], 0.0)``), reproducing
Python's left-associated ``0 + s1 + s2 + …`` exactly: masked slots add
``+0.0``, and ``x + 0.0 == x`` bitwise for every x the partial sums can
reach (they start at ``+0.0`` and no Eq. 13 leaf is ``-0.0``, so no
partial sum is ever ``-0.0``).

Rows and retirement
-------------------
Rows come from :class:`DenseIds` — a dense allocator with a LIFO free
list.  Rows are retired per *job* (on ``TaskFinished.job_completed``),
not per task: DAGs are self-contained per job, so retiring whole jobs
guarantees no live task's static-children references can dangle into a
reused row.  The height-level aggregation structures are rebuilt lazily
on the next scoring pass after a registration; retirement alone does not
dirty them (a freed row's parents belong to the same completed job, so
stale level entries only ever write garbage into rows nothing reads).

On snapshot restore the mirror is rebuilt from the restored object state
and *asserted* against an independent derivation (see
:meth:`ArrayCore.rebuild_and_assert`).

This is the engine's only scoring and scanning path: the object-model
loops it replaced survive only as test oracles
(``tests/test_arraycore.py`` for the dispatch and stall scans, the
generation-cached victim-scan signals and the dispatch memo's skips,
``tests/test_sched_core.py`` for scoring and Algorithm 1).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .._util import EPS
from ..dag.task import TaskState
from . import kernel as k
from .state import SimRuntime

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import DSPConfig
    from .executor import NodeRuntime, TaskRuntime

__all__ = ["ArrayCore", "DenseIds"]

# TaskState -> small-int codes for the state column.
_STATE_CODE = {state: i for i, state in enumerate(TaskState)}
# The same codes keyed by member value, for the per-row sync: an Enum
# member hashes through Python code, its value string in C.
_CODE_OF_VALUE = {state._value_: i for state, i in _STATE_CODE.items()}
_QUEUED = _STATE_CODE[TaskState.QUEUED]
_RUNNING = _STATE_CODE[TaskState.RUNNING]
_STALLED = _STATE_CODE[TaskState.STALLED]
_COMPLETED = _STATE_CODE[TaskState.COMPLETED]
_PENDING = _STATE_CODE[TaskState.PENDING]
_QUEUED_STATE = TaskState.QUEUED
_STALLED_STATE = TaskState.STALLED

_NAN = float("nan")

#: Sort key of a dispatch-index entry's planned start.
_PLANNED = itemgetter(0)

#: Floor applied to remaining time before taking its reciprocal (mirrors
#: :data:`repro.core.priority._REMAINING_FLOOR`).
_REMAINING_FLOOR = 1e-6

#: The DSPConfig fields Eq. 12–13 read (γ and the three ω weights).
_SCORING_FIELDS = ("gamma", "omega_remaining", "omega_waiting", "omega_allowable")

#: Events that change one task's runtime signals or stint state: the
#: task's row is re-read from its runtime object.
_TASK_EVENTS = (
    k.TaskStarted,
    k.TaskStalled,
    k.TaskStallEnded,
    k.TaskStallEvicted,
    k.TaskWaitAccrued,
    k.TaskPreempted,
    k.TaskSuspended,
    k.TaskAttemptFailed,
    k.TaskPaused,
    k.TaskResumed,
    k.TransferStarted,
    k.RetryDispatched,
    k.SpeculationWon,
    k.TaskDrainMigrated,
)

#: Events after which whole-world signals may have shifted — node rates
#: (mean-rate consumers) or queue re-homing (per-task node lookups): the
#: whole mirror resyncs.  ``TaskRetimed`` lives here, not with the task
#: events: it only fires after ``retime_node`` changed the *node's*
#: rate, which moves the scores of every task assigned to that node —
#: queued ones included.  ``RoundTick`` is not here: a round touches only
#: its batch, whose rows the dispatcher files before emitting it
#: (:meth:`ArrayCore.file_round`).
_WORLD_EVENTS = (
    k.FaultInjected,
    k.NodeFailed,
    k.NodeRecovered,
    k.NodeRetimed,
    k.TaskRetimed,
    k.NodePartitioned,
    k.NodeHealed,
    k.NodeQuarantined,
    k.BacklogReassigned,
    # Elastic membership: node-set changes move the cluster mean rate
    # (and with it every unassigned task's score).
    k.NodeJoined,
    k.NodeDecommissioned,
    k.DrainAborted,
)


def _remaining_time(now, rate, state, size, work, run_start, cur_rec, rec_due):
    """Vectorized ``TaskRuntime.remaining_time_at`` over gathered columns
    (same ops, same order; *rate* is a scalar or per-row array; the
    unselected branch may produce NaN, discarded by the final
    ``where``)."""
    running = (state == _RUNNING) & ~np.isnan(run_start)
    elapsed = now - run_start
    unpaid = np.maximum(0.0, cur_rec - elapsed)
    prog = np.maximum(0.0, elapsed - cur_rec)
    work_r = np.minimum(size, work + prog * rate)
    rem_r = unpaid + np.maximum(0.0, size - work_r) / rate
    work_n = np.minimum(size, work)
    rem_n = rec_due + np.maximum(0.0, size - work_n) / rate
    return np.where(running, rem_r, rem_n)


class DenseIds:
    """Dense integer id allocator with LIFO free-list reuse.

    ``alloc`` returns the most recently freed id when one exists,
    otherwise extends the dense range by one.  ``capacity`` is the high
    -water mark — every id ever returned is ``< capacity``, so arrays
    sized to it index safely.
    """

    __slots__ = ("_next", "_free")

    def __init__(self) -> None:
        self._next = 0
        self._free: list[int] = []

    def alloc(self) -> int:
        if self._free:
            return self._free.pop()
        nxt = self._next
        self._next = nxt + 1
        return nxt

    def free(self, ident: int) -> None:
        self._free.append(ident)

    @property
    def capacity(self) -> int:
        """High-water mark: ids ever handed out are in ``[0, capacity)``."""
        return self._next

    @property
    def free_count(self) -> int:
        return len(self._free)


class ArrayCore:
    """Struct-of-arrays mirror + vectorized Eq. 12–13 scoring.

    Held by the runtime as ``SimRuntime.array``.  Consumers — the DSP
    policy, the resilience retry ranking, the dispatcher, the stall
    sweep, the baselines' signal gather and the snapshot counters — use
    ``priorities``/``scores_at``, ``scores_like``, the scans and
    ``stats()``; the engine drives ``attach``, ``register_job`` and
    ``retire_tasks``.
    """

    def __init__(self, runtime: SimRuntime) -> None:
        self._rt = runtime
        cfg = runtime.dsp_config
        self._gamma1 = cfg.gamma + 1.0
        self._w_rem = cfg.omega_remaining
        self._w_wait = cfg.omega_waiting
        self._w_allow = cfg.omega_allowable

        self._ids = DenseIds()
        self._row_of: dict[str, int] = {}
        self._id_of: list[str | None] = []

        cap = max(16, len(runtime.state.static_tasks))
        self._cap = cap
        # float64 columns (NaN encodes the object model's None).
        self._size = np.zeros(cap)
        self._work = np.zeros(cap)
        self._run_start = np.full(cap, _NAN)
        self._cur_recovery = np.zeros(cap)
        self._recovery_due = np.zeros(cap)
        self._queued_since = np.full(cap, _NAN)
        self._total_wait = np.zeros(cap)
        self._deadline = np.zeros(cap)
        self._planned = np.full(cap, np.inf)
        self._stall_start = np.full(cap, _NAN)
        # int/bool columns.
        self._state = np.full(cap, _COMPLETED, dtype=np.int8)
        self._node = np.full(cap, -1, dtype=np.int32)
        self._unfinished = np.zeros(cap, dtype=np.int32)
        self._live_deps = np.zeros(cap, dtype=np.int32)
        self._preempt_count = np.zeros(cap, dtype=np.int32)
        self._banned = np.zeros(cap, dtype=bool)
        # Rows whose state column reads STALLED, kept wherever that
        # column is written (_sync_row, retire_tasks), so the stall sweep
        # can skip its whole-mirror mask when there are none.  A set, not
        # a count read back from the column: the per-row sync then costs
        # one empty-set test while nothing stalls.
        self._stalled: set[int] = set()

        # Static DAG structure, by row: children in the evaluator's
        # insertion order, and static height (max distance to a sink).
        self._child_rows: list[list[int]] = [[] for _ in range(cap)]
        self._height: list[int] = [0] * cap
        self._levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._levels_stale = True

        # Node columns.  Positions are stable for a node's lifetime;
        # elastic membership reuses freed positions through a LIFO free
        # list (the DenseIds discipline applied to nodes — see
        # add_node/remove_node).  Freed slots hold None in the list and
        # keep their last rate value, so stale positions on completed
        # task rows never divide by zero (the garbage lanes are masked
        # out before anything reads them).
        self._node_pos = {nid: i for i, nid in enumerate(runtime.state.nodes)}
        self._node_list: list["NodeRuntime | None"] = list(
            runtime.state.nodes.values()
        )
        self._node_rate = np.zeros(len(self._node_list))
        self._node_free: list[int] = []
        # Per-node versions (see node_version), drawn from one counter
        # that only ever increases, so no version is ever reissued.
        self._version_clock = 0
        self._node_version: list[int] = []
        # Dispatch index, per node position: ready and held rows as
        # sorted (planned_start, task_id) lists (see the module docstring);
        # per row, its entry in them (see _file), or None.
        self._ready: list[list[tuple[float, str]]] = []
        self._held: list[list[tuple[float, str]]] = []
        self._entry: list[tuple | None] = []
        self._reset_index()

        # Score cache, valid for one (clock, version) generation, plus the
        # generation's allowable-wait column (Eq. 13's third term).
        self._scores: np.ndarray | None = None
        self._scores_now: float | None = None
        self._scores_version = -1
        self._version = 0
        self._allowable_col: np.ndarray | None = None
        # Victim-scan columns of one generation, keyed by
        # (now, version, max_preemptions).
        self._scan_key: tuple | None = None
        self._scan_cols: tuple[np.ndarray, ...] = ()

        # Observability counters (round-tripped by snapshots).
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.clears = 0
        self.passes = 0  # vectorized scoring passes

        for job in runtime.state.jobs.values():
            self.register_job(job)

    # -------------------------------------------------------------- wiring
    def attach(self, bus: k.EventBus) -> None:
        """Subscribe the mirror maintenance (first on the bus)."""
        bus.subscribe(k.TaskFinished, self._on_finished)
        bus.subscribe(_TASK_EVENTS, self._on_task_event)
        bus.subscribe(_WORLD_EVENTS, self._on_world_event)

    def register_job(self, job) -> None:
        """Allocate rows for a (batch- or streaming-admitted) job's tasks
        and wire its static structure.  Jobs are self-contained DAGs, so
        registration is purely additive.

        The job's runtimes are fresh: the engine registers a job right
        after :meth:`SimState.register_job <repro.sim.state.SimState.register_job>`
        built them, before any event can touch it.  A row not in use holds
        the free-row values (``__init__``, :meth:`_grow` and
        :meth:`retire_tasks` write the same ones), and a fresh runtime
        differs from them only in its state, its unfinished-parent count
        and its static size and deadline, so only those columns (and the
        live-dependent count) are written; :meth:`_sync_row` would write
        the same values."""
        rows: dict[str, int] = {}
        alloc = self._ids.alloc
        row_of, id_of = self._row_of, self._id_of
        for tid in job.tasks:
            row = alloc()
            if row >= self._cap:
                self._grow()
            rows[tid] = row
            row_of[tid] = row
            if row == len(id_of):
                id_of.append(tid)
            else:
                id_of[row] = tid
        # Children in the same insertion order the stateless evaluator
        # builds: iterate tasks, append to each parent.
        child_rows = self._child_rows
        for tid, task in job.tasks.items():
            for parent in task.parents:
                child_rows[rows[parent]].append(rows[tid])
        # Static heights via reverse topological order.
        height = self._height
        for tid in reversed(job.topo_order):
            row = rows[tid]
            kids = child_rows[row]
            height[row] = 1 + max([height[r] for r in kids]) if kids else 0
        tasks = self._rt.state.tasks
        runtimes = [tasks[tid] for tid in job.tasks]
        order = list(rows.values())
        idx = np.array(order, dtype=np.intp)
        self._size[idx] = [t.task.size_mi for t in runtimes]
        self._deadline[idx] = [t.deadline for t in runtimes]
        self._state[idx] = _PENDING
        self._unfinished[idx] = [t.unfinished_parents for t in runtimes]
        self._live_deps[idx] = [len(child_rows[row]) for row in order]
        self._levels_stale = True
        self._version += 1

    def scores_like(self, config: "DSPConfig") -> None:
        """Check that *config* parameterizes Eq. 12–13 exactly as the
        engine config this core scores with — the guard a policy passes
        before adopting the core as its scorer.  Raises ``ValueError``
        naming the differing fields."""
        cfg = self._rt.dsp_config
        differ = [
            name
            for name in _SCORING_FIELDS
            if getattr(config, name) != getattr(cfg, name)
        ]
        if differ:
            raise ValueError(
                f"policy scores Eq. 12-13 with {', '.join(differ)} "
                "different from the engine's dsp_config; pass the same "
                "DSPConfig to both"
            )

    def stats(self) -> dict:
        """Counter snapshot, including the cache hit rate."""
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "clears": self.clears,
            "passes": self.passes,
            "hit_rate": self.hits / total if total else 0.0,
        }

    # ------------------------------------------------------------- growth
    def _grow(self) -> None:
        new_cap = self._cap * 2
        grown = new_cap - self._cap

        def ext(arr: np.ndarray, fill) -> np.ndarray:
            return np.concatenate(
                [arr, np.full(grown, fill, dtype=arr.dtype)]
            )

        self._size = ext(self._size, 0.0)
        self._work = ext(self._work, 0.0)
        self._run_start = ext(self._run_start, _NAN)
        self._cur_recovery = ext(self._cur_recovery, 0.0)
        self._recovery_due = ext(self._recovery_due, 0.0)
        self._queued_since = ext(self._queued_since, _NAN)
        self._total_wait = ext(self._total_wait, 0.0)
        self._deadline = ext(self._deadline, 0.0)
        self._planned = ext(self._planned, np.inf)
        self._stall_start = ext(self._stall_start, _NAN)
        self._state = ext(self._state, _COMPLETED)
        self._node = ext(self._node, -1)
        self._unfinished = ext(self._unfinished, 0)
        self._live_deps = ext(self._live_deps, 0)
        self._preempt_count = ext(self._preempt_count, 0)
        self._banned = ext(self._banned, False)
        self._entry.extend([None] * grown)
        self._child_rows.extend([] for _ in range(grown))
        self._height.extend([0] * grown)
        self._cap = new_cap

    # ------------------------------------------------------- row sync
    def _write_static(self, row: int, t) -> None:
        """Copy the fields a run never changes (size, deadline) into
        *t*'s row: on registration, and on restore, which rebuilds
        runtimes; :meth:`_sync_row` skips them."""
        self._size[row] = t.task.size_mi
        self._deadline[row] = t.deadline

    def _sync_row(self, row: int, t) -> None:
        """Copy one TaskRuntime's mutable mirrored fields into its row
        and refile the row in the dispatch index when its entry moved."""
        self._work[row] = t.work_done_mi
        self._run_start[row] = _NAN if t.run_start is None else t.run_start
        self._cur_recovery[row] = t.current_recovery
        self._recovery_due[row] = t.recovery_due
        self._queued_since[row] = (
            _NAN if t.queued_since is None else t.queued_since
        )
        self._total_wait[row] = t.total_wait
        self._planned[row] = t.planned_start
        self._stall_start[row] = (
            _NAN if t.stall_start is None else t.stall_start
        )
        state = t.state
        if state is _STALLED_STATE:
            self._stalled.add(row)
        elif self._stalled:
            self._stalled.discard(row)
        self._state[row] = _CODE_OF_VALUE[state._value_]
        # .get: completed tasks keep their node_id, which may name a
        # node decommissioned since — the -1 is garbage nothing reads.
        pos = -1 if t.node_id is None else self._node_pos.get(t.node_id, -1)
        self._node[row] = pos
        unfinished = t.unfinished_parents
        self._unfinished[row] = unfinished
        self._preempt_count[row] = t.preempt_count
        banned = t.stall_banned
        self._banned[row] = banned
        entry = None
        if state is _QUEUED_STATE and pos >= 0:
            if not unfinished:
                entry = (pos, False, (t.planned_start, t.task.task_id))
            elif not banned:
                entry = (pos, True, (t.planned_start, t.task.task_id))
        if entry != self._entry[row]:
            self._file(row, entry)

    def _file(self, row: int, entry: tuple | None) -> None:
        """Move *row* from its current dispatch-index entry to *entry* —
        ``(pos, held, key)`` with key ``(planned_start, task_id)``, or
        None for no list — bumping the version of every node whose
        lists change.  Callers pass only an entry that differs."""
        old = self._entry[row]
        if old is not None:
            pos = old[0]
            lst = (self._held if old[1] else self._ready)[pos]
            del lst[bisect_left(lst, old[2])]
            self._bump(pos)
        if entry is not None:
            pos = entry[0]
            insort((self._held if entry[1] else self._ready)[pos], entry[2])
            if old is None or old[0] != pos:
                self._bump(pos)
        self._entry[row] = entry

    def _sync_task(self, task_id: str) -> None:
        row = self._row_of.get(task_id)
        if row is None:
            return  # retired with its job (e.g. a late speculation event)
        self._sync_row(row, self._rt.state.tasks[task_id])

    def file_round(self, tasks: list["TaskRuntime"]) -> None:
        """Mirror a scheduling round, which mutates only the tasks of the
        batch it planned: *tasks*, each just queued on its node.

        Until the round a batch task is PENDING, so its row is unfiled
        and matches its runtime everywhere but the four columns queuing
        writes (state, node, planned start, queued-since).  Each of those
        takes one fancy assignment, and each node's dispatch lists one
        sort and one version bump."""
        row_of, node_pos, entries = self._row_of, self._node_pos, self._entry
        rows = [row_of[t.task.task_id] for t in tasks]
        nodes = [node_pos[t.node_id] for t in tasks]
        idx = np.array(rows, dtype=np.intp)
        self._state[idx] = _QUEUED
        self._node[idx] = nodes
        self._planned[idx] = [t.planned_start for t in tasks]
        self._queued_since[idx] = [t.queued_since for t in tasks]
        filed: set[int] = set()
        for row, pos, t in zip(rows, nodes, tasks):
            key = (t.planned_start, t.task.task_id)
            if not t.unfinished_parents:
                self._ready[pos].append(key)
                entries[row] = (pos, False, key)
            elif not t.stall_banned:
                self._held[pos].append(key)
                entries[row] = (pos, True, key)
            else:
                continue
            filed.add(pos)
        for pos in filed:
            self._ready[pos].sort()
            self._held[pos].sort()
            self._bump(pos)
        self._version += 1
        self.invalidations += 1

    def _bump(self, pos: int) -> None:
        """Give node position *pos* a fresh version."""
        self._version_clock += 1
        self._node_version[pos] = self._version_clock

    def _reset_index(self) -> None:
        """Empty dispatch lists and one fresh version for every node
        position; every row leaves the index."""
        self._version_clock += 1
        count = len(self._node_list)
        self._node_version = [self._version_clock] * count
        self._ready = [[] for _ in range(count)]
        self._held = [[] for _ in range(count)]
        self._entry = [None] * self._cap

    def node_version(self, node: "NodeRuntime") -> int:
        """*node*'s dispatch version.  It moves whenever the node's
        candidate lists change or its position changes hands (a join
        reusing the slot, a node reset).  Versions are never reissued
        (one counter feeds them all), so a re-joined node id or a
        rebuilt mirror cannot match a stale one."""
        return self._node_version[self._node_pos[node.node_id]]

    def _on_task_event(self, event) -> None:
        self._sync_task(event.task_id)
        self._version += 1
        self.invalidations += 1

    def _on_world_event(self, _event) -> None:
        self.resync()
        self.clears += 1

    def _on_finished(self, event: k.TaskFinished) -> None:
        tid = event.task_id
        row = self._row_of.get(tid)
        state = self._rt.state
        if row is not None:
            self._sync_row(row, state.tasks[tid])
        # Mirror the two mutations the completion path performs *after*
        # emitting TaskFinished (see DispatchSubsystem.finalize_completion):
        # children lose an unfinished parent, parents lose a live dependent.
        row_of = self._row_of
        for child in state.children.get(tid, ()):
            crow = row_of.get(child)
            if crow is not None:
                self._unfinished[crow] -= 1
                if self._unfinished[crow] == 0 and self._state[crow] == _QUEUED:
                    # Held (or banned) -> ready on the same node.
                    pos = int(self._node[crow])
                    if pos >= 0:
                        key = (float(self._planned[crow]), child)
                        self._file(crow, (pos, False, key))
        for parent in state.static_tasks[tid].parents:
            prow = row_of.get(parent)
            if prow is not None:
                self._live_deps[prow] -= 1
        self._version += 1
        self.invalidations += 1
        if event.job_completed:
            self._retire_job(event.job_id)

    def _retire_job(self, job_id: str) -> None:
        """Free the rows of a fully-completed job (LIFO reuse for
        streaming admission).  Level structures are left stale on
        purpose — see the module docstring."""
        self.retire_tasks(list(self._rt.state.jobs[job_id].tasks))

    def retire_tasks(self, task_ids) -> None:
        """Free the rows of *task_ids*, skipping rows already freed.

        Normally a no-op: completion frees rows in-emit (see
        :meth:`_on_finished`), before the settle-time
        :class:`~repro.sim.frontier.RetirementManager` sweep reaches this
        call.  The exception is resume — a snapshot taken with jobs
        completed but not yet swept (``retire_batch`` > 1) resurrects
        their rows on restore, and this call is what frees them when the
        restored sweep finally runs."""
        freed = False
        for tid in task_ids:
            row = self._row_of.pop(tid, None)
            if row is None:
                continue
            if self._entry[row] is not None:
                self._file(row, None)
            self._id_of[row] = None
            self._child_rows[row] = []
            self._height[row] = 0
            self._size[row] = 0.0
            self._work[row] = 0.0
            self._run_start[row] = _NAN
            self._cur_recovery[row] = 0.0
            self._recovery_due[row] = 0.0
            self._queued_since[row] = _NAN
            self._total_wait[row] = 0.0
            self._deadline[row] = 0.0
            self._planned[row] = np.inf
            self._stall_start[row] = _NAN
            self._stalled.discard(row)
            self._state[row] = _COMPLETED
            self._node[row] = -1
            self._unfinished[row] = 0
            self._live_deps[row] = 0
            self._preempt_count[row] = 0
            self._banned[row] = False
            self._ids.free(row)
            freed = True
        if freed:
            self._version += 1

    def resync(self) -> None:
        """Full mirror refresh from the authoritative object model."""
        tasks = self._rt.state.tasks
        for tid, row in self._row_of.items():
            self._sync_row(row, tasks[tid])
        self._version += 1

    # ------------------------------------------------- elastic membership
    def add_node(self, node: "NodeRuntime") -> None:
        """Assign a position to a newly-joined node, reusing the most
        recently freed slot when one exists (LIFO, like DenseIds)."""
        if self._node_free:
            pos = self._node_free.pop()
            self._node_list[pos] = node
        else:
            pos = len(self._node_list)
            self._node_list.append(node)
            self._node_rate = np.append(self._node_rate, 0.0)
            self._node_version.append(0)
            self._ready.append([])
            self._held.append([])
        self._node_pos[node.node_id] = pos
        self._bump(pos)
        self._version += 1

    def remove_node(self, node_id: str) -> None:
        """Free a decommissioned node's position.  The slot keeps its
        last rate value so stale references from completed task rows
        stay benign until the slot is reused."""
        pos = self._node_pos.pop(node_id)
        self._node_list[pos] = None
        self._node_free.append(pos)
        self._bump(pos)
        self._version += 1

    def reset_nodes(self) -> None:
        """Rebuild the position table from the current (possibly
        reconciled) node set.  Positions are internal bookkeeping —
        nothing observable depends on them — so the restore path packs
        the live nodes densely instead of replaying churn history.  Rows
        then resync against the new table, which refiles the dispatch
        index from scratch."""
        state = self._rt.state
        self._node_pos = {nid: i for i, nid in enumerate(state.nodes)}
        self._node_list = list(state.nodes.values())
        self._node_rate = np.zeros(len(self._node_list))
        self._node_free = []
        self._reset_index()
        self.resync()

    # ------------------------------------------------------------- scoring
    def _ensure_scores(self, now: float) -> bool:
        """Make the score vector (and the generation's allowable column)
        current for (*now*, mirror version); True when a recompute pass
        ran (a cache miss generation)."""
        if (
            self._scores is None
            or now != self._scores_now
            or self._version != self._scores_version
        ):
            self._recompute(now)
            return True
        return False

    def priorities(self, task_ids: Iterable[str]) -> dict[str, float]:
        """Eq. 12–13 scores of *task_ids* (non-completed tasks) at the
        current simulation instant."""
        now = self._rt.now
        fresh = self._ensure_scores(now)
        ids = list(task_ids)
        row_of = self._row_of
        rows = [row_of[tid] for tid in ids]
        vals = self._scores[rows].tolist()
        if fresh:
            self.misses += len(ids)
        else:
            self.hits += len(ids)
        return dict(zip(ids, vals))

    def rows_of(self, task_ids: Iterable[str]) -> list[int]:
        """Row indices of *task_ids* (must all be live)."""
        row_of = self._row_of
        return [row_of[tid] for tid in task_ids]

    def scores_at(self, rows: list[int], now: float) -> list[float]:
        """Eq. 12–13 scores of *rows* at *now* as plain Python floats —
        the positional-list twin of :meth:`priorities` for callers that
        already hold row indices (the adopted-policy victim scan)."""
        if self._ensure_scores(now):
            self.misses += len(rows)
        else:
            self.hits += len(rows)
        return self._scores.take(rows).tolist()

    def _recompute(self, now: float) -> None:
        n = self._ids.capacity
        state = self._state[:n]
        live = state != _COMPLETED

        scores = self._leaf_scores(now, n)
        if self._levels_stale:
            self._rebuild_levels()
        for rows, ppos, crow in self._levels:
            # Edge-list fold: one bincount per level.  bincount's C loop
            # accumulates strictly in input order, and each parent's
            # edges are laid out contiguously in child insertion order,
            # so every parent's sum is the same sequential
            # ((0+c1)+c2)+... the evaluator computes (dead children add
            # +0.0; bit-exact, see module docstring).
            live_child = live.take(crow)
            weights = np.where(live_child, scores.take(crow), 0.0)
            acc = np.bincount(ppos, weights=weights, minlength=len(rows))
            has_live = (
                np.bincount(ppos, weights=live_child, minlength=len(rows))
                > 0
            )
            scores[rows] = np.where(
                has_live, self._gamma1 * acc, scores.take(rows)
            )
        self._scores = scores
        self._scores_now = now
        self._scores_version = self._version
        self.passes += 1

    def _leaf_scores(self, now: float, n: int) -> np.ndarray:
        """Vectorized Eq. 13 over the first *n* rows (garbage on
        completed/free rows, never read).  Keeps the allowable-wait
        column for the generation's victim scans."""
        remaining = _remaining_time(
            now,
            self._rates(n),
            self._state[:n],
            self._size[:n],
            self._work[:n],
            self._run_start[:n],
            self._cur_recovery[:n],
            self._recovery_due[:n],
        )
        waiting = self._waiting(now, n)
        allowable = self._deadline[:n] - now - remaining
        self._allowable_col = allowable
        return (
            self._w_rem / np.maximum(remaining, _REMAINING_FLOOR)
            + self._w_wait * waiting
            + self._w_allow * allowable
        )

    def _rates(self, n: int) -> np.ndarray:
        """Per-row processing rate: the assigned node's current rate, or
        the cluster mean for unassigned tasks.  Node rates are re-read
        from the objects on every pass (cheap: the cluster is small) so
        re-times never leave the mirror stale."""
        for i, node in enumerate(self._node_list):
            if node is not None:
                self._node_rate[i] = node.rate
        # Sequential Python sum in state.nodes insertion order — matches
        # SimState.mean_rate() bit-for-bit (np.sum pairwise-reduces, and
        # the position table's order diverges from dict order once the
        # free list reuses slots).
        nodes = self._rt.state.nodes
        mean = sum(n.rate for n in nodes.values()) / len(nodes)
        nd = self._node[:n]
        # The -1 of unassigned rows wraps to the last node; np.where
        # discards those lanes.
        return np.where(nd >= 0, self._node_rate.take(nd), mean)

    def _waiting(self, now: float, n: int) -> np.ndarray:
        """Vectorized ``TaskRuntime.waiting_time_at``."""
        qs = self._queued_since[:n]
        stint = np.where(np.isnan(qs), 0.0, np.maximum(0.0, now - qs))
        return self._total_wait[:n] + stint

    def _rebuild_levels(self) -> None:
        """Group aggregating rows by static height into flat edge lists,
        ascending height so every child score is final before its parents
        fold it."""
        by_height: dict[int, list[int]] = {}
        for tid, row in self._row_of.items():
            if self._child_rows[row]:
                by_height.setdefault(self._height[row], []).append(row)
        levels = []
        for height in sorted(by_height):
            rows = by_height[height]
            # Flat edge list, parents contiguous, children in insertion
            # order — the order the bincount fold accumulates in.
            epos: list[int] = []
            erow: list[int] = []
            for i, r in enumerate(rows):
                for c in self._child_rows[r]:
                    epos.append(i)
                    erow.append(c)
            levels.append((
                np.asarray(rows, dtype=np.intp),
                np.asarray(epos, dtype=np.intp),
                np.asarray(erow, dtype=np.intp),
            ))
        self._levels = levels
        self._levels_stale = False

    # --------------------------------------------------- epoch-loop scans
    def dispatch_candidates(
        self, node: "NodeRuntime", now: float, dependency_aware: bool
    ) -> list[str]:
        """Queued tasks on *node* that pass the dispatcher's state checks
        (runnable; or, dependency-unaware, unbanned with a passed planned
        start), in queue order — ``(planned_start, task_id)`` ascending,
        the exact ``NodeRuntime`` bisect order.  The per-task retry gate
        and capacity check stay with the caller (they read live object
        state that changes mid-loop)."""
        pos = self._node_pos[node.node_id]
        ready = self._ready[pos]
        if not dependency_aware:
            held = self._held[pos]
            passed = bisect_right(held, now + EPS, key=_PLANNED)
            if passed:
                # Two sorted runs: timsort merges them in one pass.
                ready = sorted(ready + held[:passed])
        return [tid for _, tid in ready]

    def blind_wake(self, node: "NodeRuntime", now: float) -> float:
        """Earliest planned start among *node*'s queued, unrunnable,
        unbanned tasks that the dependency-blind gate still holds back
        at *now* (``inf`` when none): the first instant at which the
        blind :meth:`dispatch_candidates` can grow without a row
        change."""
        held = self._held[self._node_pos[node.node_id]]
        first = bisect_right(held, now + EPS, key=_PLANNED)
        return float(held[first][0]) if first < len(held) else math.inf

    def runnable_through(self, node: "NodeRuntime", task_id: str) -> bool:
        """Whether a runnable task waits on *node* at or before queued
        task *task_id* in queue order: the node's ready list is non-empty
        and its first ``(planned_start, task_id)`` key is at most
        *task_id*'s.  Passing the last entry of a visited queue head
        asks whether any task of that head is runnable."""
        ready = self._ready[self._node_pos[node.node_id]]
        if not ready:
            return False
        return ready[0] <= (float(self._planned[self._row_of[task_id]]), task_id)

    def stall_timeout_candidates(
        self, now: float, timeout: float
    ) -> list[str]:
        """Stalled tasks whose stall stint reached *timeout*, in node
        order (position in the node table), then sorted task id.
        Callers re-verify each against live state before suspending
        (handlers of an earlier eviction may have moved a later
        candidate).  With no stalled row (every dependency-aware run) it
        returns ``[]`` without building the mask."""
        if not self._stalled:
            return []
        n = self._ids.capacity
        ss = self._stall_start[:n]
        with np.errstate(invalid="ignore"):
            mask = (
                (self._state[:n] == _STALLED)
                & ~np.isnan(ss)
                & (now - ss >= timeout)
            )
        rows = np.nonzero(mask)[0]
        if not len(rows):
            return []
        id_of = self._id_of
        nd = self._node[rows].tolist()
        ordered = sorted(
            (nd[i], id_of[r]) for i, r in enumerate(rows.tolist())
        )
        return [tid for _, tid in ordered]

    def scan_signals(
        self,
        rows: list[int],
        now: float,
        rate: float,
        max_preemptions: int,
    ) -> tuple[list, ...]:
        """Algorithm 1's victim-scan signals — (overdue, allowable,
        is_runnable, is_preemptable) — for policies that run it straight
        off the columns.

        *rows* must all sit on one node whose current rate is *rate*.
        The first call of a (*now*, version, *max_preemptions*)
        generation derives the four signals for every row at once, taking
        allowable straight from the scoring pass (whose remaining time
        used each row's node rate, so the floats equal a per-node
        derivation at *rate*: a re-time is a world event and opens a new
        generation); every later call of the generation only gathers
        *rows*.  Call it after :meth:`scores_at` for the same instant —
        a pass it has to run itself is booked by no hit/miss count."""
        self._ensure_scores(now)
        key = (now, self._version, max_preemptions)
        if self._scan_key != key:
            self._scan_cols = self._scan_columns(now, max_preemptions)
            self._scan_key = key
        idx = np.asarray(rows, dtype=np.intp)
        return tuple(col.take(idx).tolist() for col in self._scan_cols)

    def _scan_columns(
        self, now: float, max_preemptions: int
    ) -> tuple[np.ndarray, ...]:
        """(overdue, allowable, runnable, preemptable) over every row of
        the current generation."""
        n = self._ids.capacity
        state = self._state[:n]
        qs = self._queued_since[:n]
        queued = ~np.isnan(qs)
        baseline = np.maximum(qs, self._planned[:n])
        overdue = np.where(queued, np.maximum(0.0, now - baseline), 0.0)
        runnable = self._unfinished[:n] == 0
        occupies = (state == _RUNNING) | (state == _STALLED)
        preemptable = occupies & (self._preempt_count[:n] < max_preemptions)
        return overdue, self._allowable_col, runnable, preemptable

    def view_signals(
        self,
        rows: list[int],
        now: float,
        rate: float,
        max_preemptions: int,
    ) -> tuple[list, ...]:
        """The claim-loop signals for *rows* (tasks of one node) in one
        vectorized shot: (remaining, waiting, is_preemptable) as plain
        Python lists."""
        idx = np.asarray(rows, dtype=np.intp)
        state = self._state.take(idx)
        remaining = _remaining_time(
            now,
            rate,
            state,
            self._size.take(idx),
            self._work.take(idx),
            self._run_start.take(idx),
            self._cur_recovery.take(idx),
            self._recovery_due.take(idx),
        )

        qs = self._queued_since.take(idx)
        stint = np.where(~np.isnan(qs), np.maximum(0.0, now - qs), 0.0)
        waiting = self._total_wait.take(idx) + stint

        occupies = (state == _RUNNING) | (state == _STALLED)
        preemptable = occupies & (self._preempt_count.take(idx) < max_preemptions)
        return remaining.tolist(), waiting.tolist(), preemptable.tolist()

    # --------------------------------------------------- snapshot/restore
    def rebuild_and_assert(self) -> None:
        """Rebuild the mirror from restored object state and assert it
        against an independent derivation (the snapshot-restore
        contract).

        Raises ``repro.sim.snapshot.SnapshotError`` on any mismatch —
        a wrong row mapping, a live-dependent count that disagrees with
        the restored task states, or a node's dispatch lists that
        disagree with its restored queue.
        """
        from .snapshot import SnapshotError  # local: avoid import cycle

        state = self._rt.state
        # Row mapping must be a bijection over registered, un-retired tasks.
        for tid, row in self._row_of.items():
            if not 0 <= row < self._ids.capacity or self._id_of[row] != tid:
                raise SnapshotError(
                    f"array-core rebuild mismatch: task {tid!r} maps to row "
                    f"{row} but the row maps back to {self._id_of[row]!r}"
                )
        for tid, row in self._row_of.items():
            self._write_static(row, state.tasks[tid])
        self.reset_nodes()  # resyncs every row and refiles the index
        # Dispatch index: each node's lists re-derived from its restored
        # queue (already in (planned_start, task_id) order).
        for nid, node in state.nodes.items():
            ready, held = [], []
            for tid in node.queued_ids():
                task = state.tasks[tid]
                if task.state is not TaskState.QUEUED:
                    continue
                key = (task.planned_start, tid)
                if task.unfinished_parents == 0:
                    ready.append(key)
                elif not task.stall_banned:
                    held.append(key)
            pos = self._node_pos[nid]
            if self._ready[pos] != ready or self._held[pos] != held:
                raise SnapshotError(
                    f"array-core rebuild mismatch: node {nid!r} dispatch "
                    f"index diverged from its restored queue"
                )
        # Live-dependent counts: re-derive from scratch and assert against
        # the incrementally-maintained column.
        for tid, row in self._row_of.items():
            expect = sum(
                1
                for crow in self._child_rows[row]
                if self._state[crow] != _COMPLETED
            )
            self._live_deps[row] = expect
            tobj = state.tasks[tid]
            derived = sum(
                1
                for child in state.children.get(tid, ())
                if state.tasks[child].state is not TaskState.COMPLETED
                and child in self._row_of
            )
            if expect != derived:
                raise SnapshotError(
                    f"array-core rebuild mismatch: task {tid!r} live-dependent "
                    f"count {expect} != derived {derived}"
                )
            if self._unfinished[row] != tobj.unfinished_parents:
                raise SnapshotError(
                    f"array-core rebuild mismatch: task {tid!r} "
                    f"unfinished-parent count diverged"
                )
        self._levels_stale = True
        self._scores = None
        self._scores_now = None
        self._scores_version = -1
        self._scan_key = None
