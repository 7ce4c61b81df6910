"""The soak harness: seeded case grids, one mode registry, one runner.

Every soak case is fully determined by ``(mode, base_seed, index)``:
each mode's axes cycle at coprime periods and all randomness derives
from ``default_rng([base_seed, index, ...])``, so any failure
reproduces from its :class:`~repro.sweep.runspec.RunKey`
(``repro sweep --only <mode>_case_NNNN.json``).  ``scripts/soak.py`` is
the command-line front end over :func:`run_soak`.

:data:`MODES` holds what differs between the five modes:

``plain``
    Random small workloads crossed with chaos scenarios
    (:mod:`repro.sim.chaos`), scheduling/preemption policies and
    resilience on/off, under ``strict`` runtime invariants
    (:mod:`repro.sim.invariants`).  A failure's fault plan is shrunk by
    removal-only ddmin (:func:`minimize_plan`) before it is recorded.
``crash-recovery``
    The same grid through :func:`kill_and_resume`: crashed at a seeded
    event pop — every fifth case mid-snapshot-write via an injected I/O
    fault — and golden-compared on journal, trace and ``RunMetrics``.
``elastic``
    Scripted join/drain churn (plus, on odd indices, the autoscaler)
    composed with chaos.  Checkpoint-retaining policies must lose zero
    MI to graceful drains; the kill aims inside a drain window.
``replay``
    A bounded-window :class:`~repro.sim.StreamingFrontier` replay with
    completed-job retirement, killed mostly mid-pump-slice and resumed
    from the snapshot's engine state, source cursor and frontier position.
``service``
    An inproc :class:`~repro.service.ServiceFrontend` over a
    chaos-injected streaming engine, slammed by a concurrent multi-tenant
    client fleet: every request is answered and no acknowledged job is
    lost.

Every failing case writes one artifact format (:func:`write_artifact`):
the case, the error, the mode's detail, the RunKey, a rerun hint, and a
copy of every journal the case left behind.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import shutil
import tempfile
from dataclasses import asdict, dataclass
from typing import Any, Callable

import numpy as np

from ..baselines.fcfs import FCFSScheduler
from ..baselines.srpt import SRPTPreemption
from ..cluster.machine_specs import uniform_cluster
from ..config import (
    ChaosConfig,
    DSPConfig,
    ElasticConfig,
    FrontierConfig,
    ResilienceConfig,
    ServiceConfig,
    SimConfig,
    SnapshotConfig,
    TenantQuota,
)
from ..core.ilp_heuristic import HeuristicScheduler
from ..core.preemption import DSPPreemption
from ..core.scheduler import DSPScheduler
from ..experiments.harness import (
    build_workload_for_cluster,
    compute_level_deadlines,
    workload_spec_for_cluster,
)
from ..sim import (
    AttemptBudgetExhausted,
    DrainAborted,
    FaultEvent,
    InvariantViolation,
    NodeDecommissioned,
    NodeDraining,
    NullPreemption,
    SimEngine,
    SimulatedCrash,
    SimulationError,
    StreamingFrontier,
    SyntheticSource,
    chaos_plan,
    inject_crash,
    latest_valid_snapshot,
    membership_plan_to_json,
    normalize_plan,
    plan_to_json,
    random_membership_plan,
    read_journal,
)
from .executor import parallel_map
from .runspec import RunKey

# --------------------------------------------------------------- case grid

#: Chaos scenario mixes, keyed by name.  Timescales are matched to the
#: soak workloads (makespans of a few thousand seconds on 4-8 nodes).
SCENARIOS: dict[str, ChaosConfig] = {
    "none": ChaosConfig(),
    "correlated": ChaosConfig(domains=2, domain_mtbf=2500.0, domain_mttr=120.0),
    "bursts": ChaosConfig(
        burst_mtbf=4000.0,
        burst_mttr=120.0,
        burst_factor=8.0,
        burst_every=1200.0,
        burst_duration=300.0,
    ),
    "straggler_wave": ChaosConfig(
        wave_every=800.0, wave_fraction=0.4, wave_duration=300.0, wave_factor=0.3
    ),
    "task_fail_storm": ChaosConfig(
        storm_every=900.0, storm_duration=300.0, storm_task_fails=5.0
    ),
    "partitions": ChaosConfig(partition_mtbf=2500.0, partition_duration=120.0),
    "mixed": ChaosConfig(
        domains=2,
        domain_mtbf=5000.0,
        domain_mttr=120.0,
        wave_every=1500.0,
        wave_fraction=0.3,
        wave_duration=200.0,
        wave_factor=0.4,
        storm_every=1800.0,
        storm_duration=200.0,
        storm_task_fails=3.0,
        partition_mtbf=5000.0,
        partition_duration=100.0,
    ),
}

SCENARIO_NAMES = tuple(SCENARIOS)
POLICY_NAMES = ("dsp", "fcfs", "srpt")

#: Generous budgets: the soak asserts invariants, not retry economics, so
#: a budget abort under heavy injected chaos would only add noise.
SOAK_RESILIENCE = ResilienceConfig(
    max_attempts=50,
    backoff_base=1.0,
    backoff_cap=30.0,
    timeout_factor=20.0,
    speculation_threshold=0.5,
    quarantine_threshold=0.75,
    quarantine_duration=300.0,
)

#: Horizon chaos events are drawn over; roughly the makespan scale of the
#: soak workloads under faults.
FAULT_HORIZON = 6000.0


@dataclass(frozen=True)
class SoakCase:
    """One fully-seeded plain / crash-recovery configuration."""

    index: int
    base_seed: int
    scenario: str
    policy: str
    resilient: bool
    num_nodes: int
    num_jobs: int


def build_case(index: int, base_seed: int) -> SoakCase:
    """Deterministic case for *index*: the scenario/policy/resilience axes
    cycle at coprime periods (7, 3, 2) so 42 consecutive indices cover
    every combination."""
    return SoakCase(
        index=index,
        base_seed=base_seed,
        scenario=SCENARIO_NAMES[index % len(SCENARIO_NAMES)],
        policy=POLICY_NAMES[index % len(POLICY_NAMES)],
        resilient=index % 2 == 0,
        num_nodes=4 + 2 * (index % 3),
        num_jobs=2 + index % 2,
    )


#: Drain pacing for elastic soak cases: small steps so the DRAINING
#: window spans many kernel events (the crash leg aims inside it), a
#: floor of 2 members so scripted drains never strand the workload.
SOAK_ELASTIC = ElasticConfig(min_nodes=2, drain_step=5.0, drain_timeout=1200.0)

#: Horizon membership churn is drawn over — inside the soak workloads'
#: makespans so joins and drains land while work is in flight.
MEMBERSHIP_HORIZON = 4000.0


@dataclass(frozen=True)
class ElasticCase:
    """One fully-seeded membership-churn soak configuration."""

    index: int
    base_seed: int
    scenario: str
    policy: str
    autoscale: bool
    num_nodes: int
    num_jobs: int
    joins: int
    drains: int
    #: engine_args() reads it; not a field — elastic cases always run
    #: resilient (drains interleave retries/speculation, the interesting
    #: regime).
    resilient = True


def build_elastic_case(index: int, base_seed: int) -> ElasticCase:
    """Deterministic elastic case: chaos scenarios x policies x autoscale
    on/off x churn shapes, cycling at coprime periods like the plain grid."""
    return ElasticCase(
        index=index,
        base_seed=base_seed,
        scenario=SCENARIO_NAMES[index % len(SCENARIO_NAMES)],
        policy=POLICY_NAMES[index % len(POLICY_NAMES)],
        autoscale=index % 2 == 1,
        num_nodes=4 + 2 * (index % 3),
        num_jobs=2 + index % 2,
        joins=1 + index % 2,
        drains=1 + (index // 2) % 2,
    )


def elastic_case_config(case: ElasticCase) -> ElasticConfig:
    """The :class:`ElasticConfig` for *case* (autoscaler knobs tuned so
    chaos bursts exercise hysteresis without flapping the fleet)."""
    cfg = SOAK_ELASTIC
    if case.autoscale:
        cfg = cfg.replace(
            autoscale=True,
            check_period=30.0,
            scale_up_queue_depth=6.0,
            scale_up_sustain=120.0,
            scale_down_idle_nodes=2,
            scale_down_sustain=600.0,
            cooldown=240.0,
            max_nodes=case.num_nodes + 4,
        )
    return cfg


@dataclass(frozen=True)
class ReplayCase:
    """One fully-seeded streaming-replay kill-and-resume configuration."""

    index: int
    base_seed: int
    num_jobs: int
    num_nodes: int
    max_live_tasks: int
    admit_batch: int
    pump_pops: int
    retire_batch: int


def build_replay_case(index: int, base_seed: int) -> ReplayCase:
    """Deterministic replay case: window/batch/slice axes cycle at coprime
    periods (3, 4, 5, 2) so 60 consecutive indices cover every combination
    — slice sizes deliberately misalign with the snapshot cadence so
    snapshots land mid-slice (the hard resume case)."""
    return ReplayCase(
        index=index,
        base_seed=base_seed,
        num_jobs=6 + 2 * (index % 3),
        num_nodes=3 + index % 2,
        max_live_tasks=(40, 80, 150)[index % 3],
        admit_batch=(1, 2, 4, 8)[index % 4],
        pump_pops=(32, 64, 96, 128, 256)[index % 5],
        retire_batch=(1, 3)[index % 2],
    )


#: Chaos mixes for service cases, rescaled to the service workloads'
#: busy window (task runtimes of tens of sim-seconds, makespans of a few
#: hundred) so injected faults actually land while work is in flight.
SERVICE_SCENARIOS: dict[str, ChaosConfig] = {
    "none": ChaosConfig(),
    "correlated": ChaosConfig(domains=2, domain_mtbf=250.0, domain_mttr=20.0),
    "straggler_wave": ChaosConfig(
        wave_every=90.0, wave_fraction=0.4, wave_duration=30.0, wave_factor=0.3
    ),
    "task_fail_storm": ChaosConfig(
        storm_every=100.0, storm_duration=30.0, storm_task_fails=3.0
    ),
    "partitions": ChaosConfig(partition_mtbf=250.0, partition_duration=15.0),
}
SERVICE_SCENARIO_NAMES = tuple(SERVICE_SCENARIOS)
SERVICE_TENANTS = (("ads", 4.0), ("etl", 2.0), ("adhoc", 1.0))
SERVICE_FAULT_HORIZON = 400.0


@dataclass(frozen=True)
class ServiceCase:
    """One fully-seeded service soak configuration."""

    index: int
    base_seed: int
    scenario: str
    num_nodes: int
    num_clients: int
    admission_per_cycle: int
    pump_events: int


def build_service_case(index: int, base_seed: int) -> ServiceCase:
    """Deterministic service case: axes cycle at coprime periods (5, 3, 4)
    so 60 consecutive indices cover every combination."""
    return ServiceCase(
        index=index,
        base_seed=base_seed,
        scenario=SERVICE_SCENARIO_NAMES[index % len(SERVICE_SCENARIO_NAMES)],
        num_nodes=4 + 2 * (index % 3),
        num_clients=24 + 12 * (index % 4),
        admission_per_cycle=(4, 8, 16, 32)[index % 4],
        pump_events=(64, 128, 256)[index % 3],
    )


# ---------------------------------------------------------------- outcomes


@dataclass(frozen=True)
class Outcome:
    """Result of one case: ``ok``, ``abort`` (attempt budget — a tuning
    artifact, not a correctness failure) or ``fail``."""

    status: str
    error_type: str | None = None
    invariant: str | None = None
    message: str | None = None

    def signature(self) -> tuple[str | None, str | None]:
        return (self.error_type, self.invariant)


#: What a simulated run may raise that the soak classifies instead of
#: letting it escape as a harness error.
RUN_ERRORS = (AttemptBudgetExhausted, SimulationError)


def classify(exc: Exception) -> Outcome:
    """The outcome of a run that raised *exc* (one of :data:`RUN_ERRORS`)."""
    return Outcome(
        "abort" if isinstance(exc, AttemptBudgetExhausted) else "fail",
        type(exc).__name__,
        exc.name if isinstance(exc, InvariantViolation) else None,
        str(exc),
    )


# ------------------------------------------------------------- plain mode


def engine_args(case: SoakCase, workload, cluster, plan: list[FaultEvent]):
    """Fresh ``(scheduler, kwargs)`` reconstructing *case*'s engine —
    called once per engine build because schedulers carry cross-round
    state.  :meth:`SimEngine.restore` takes the same pair, which is what
    keeps the crash-recovery path honest: recovery rebuilds the engine
    exactly the way the crashed process did."""
    cfg = DSPConfig()
    sim = SimConfig(invariants="strict")
    deadlines = None
    if case.policy == "dsp":
        scheduler = DSPScheduler(cluster, cfg, ilp_task_limit=0)
        policy = DSPPreemption(cfg)
        deadlines = compute_level_deadlines(workload, cluster, cfg)
    elif case.policy == "srpt":
        scheduler = DSPScheduler(cluster, cfg, ilp_task_limit=0)
        policy = SRPTPreemption(cfg)
        deadlines = compute_level_deadlines(workload, cluster, cfg)
    else:
        scheduler = FCFSScheduler(cluster, cfg)
        policy = NullPreemption()
    kwargs = dict(
        preemption=policy,
        dsp_config=cfg,
        sim_config=sim,
        task_deadlines=deadlines,
        dependency_aware_dispatch=policy.respects_dependencies,
        faults=plan,
        resilience=SOAK_RESILIENCE if case.resilient else None,
    )
    return scheduler, kwargs


def execute(case: SoakCase, workload, cluster, plan: list[FaultEvent]) -> Outcome:
    """Run one simulation for *case* under *plan* and classify the result."""
    scheduler, kwargs = engine_args(case, workload, cluster, plan)
    engine = SimEngine(cluster, workload.jobs, scheduler, **kwargs)
    try:
        engine.run()
    except RUN_ERRORS as exc:
        return classify(exc)
    return Outcome("ok")


def case_inputs(case: SoakCase | ElasticCase):
    """Build the (workload, cluster, plan) triple for *case*.  Everything
    derives from ``default_rng([base_seed, index])`` so a case replays
    bit-identically."""
    rng = np.random.default_rng([case.base_seed, case.index])
    cluster = uniform_cluster(case.num_nodes)
    workload = build_workload_for_cluster(
        case.num_jobs, cluster, seed=rng, scale=8.0
    )
    plan = chaos_plan(cluster, FAULT_HORIZON, SCENARIOS[case.scenario], rng=rng)
    return workload, cluster, plan


def minimize_plan(plan, reproduces, *, max_runs: int = 400):
    """Removal-only ddmin: shrink *plan* to a (1-minimal up to chunking)
    sublist for which ``reproduces(candidate)`` still holds.

    ``reproduces`` must accept a candidate event list and return bool; it
    is responsible for any re-normalization the candidate needs.  Returns
    *plan* unchanged when the failure does not reproduce on the full plan
    (non-determinism guard).  ``max_runs`` bounds the number of candidate
    executions so soak never stalls on a pathological case.
    """
    runs = 0

    def check(candidate) -> bool:
        nonlocal runs
        if runs >= max_runs:
            return False
        runs += 1
        return reproduces(candidate)

    current = list(plan)
    if not check(current):
        return current
    if check([]):
        return []
    n = 2
    while len(current) >= 2 and runs < max_runs:
        chunk = math.ceil(len(current) / n)
        shrunk = False
        for i in range(0, len(current), chunk):
            candidate = current[:i] + current[i + chunk :]
            if len(candidate) < len(current) and check(candidate):
                current = candidate
                n = max(2, n - 1)
                shrunk = True
                break
        if not shrunk:
            if n >= len(current):
                break
            n = min(len(current), n * 2)
    return current


def minimize_case(case: SoakCase, failure: Outcome) -> list[FaultEvent]:
    """Shrink *case*'s fault plan to a minimal plan reproducing *failure*
    (same exception class, same invariant name)."""
    workload, cluster, plan = case_inputs(case)
    signature = failure.signature()

    def reproduces(candidate) -> bool:
        normalized = normalize_plan(candidate, cluster, keep_alive=False)
        outcome = execute(case, workload, cluster, normalized)
        return outcome.status == "fail" and outcome.signature() == signature

    minimal = minimize_plan(plan, reproduces)
    return normalize_plan(minimal, cluster, keep_alive=False)


def check_plain(case: SoakCase, scratch: pathlib.Path, record: dict) -> Outcome:
    """One engine run; a failure's fault plan is ddmin-shrunk into the record."""
    workload, cluster, plan = case_inputs(case)
    record["plan_events"] = len(plan)
    outcome = execute(case, workload, cluster, plan)
    if outcome.status == "fail":
        record["minimized_plan"] = plan_to_json(minimize_case(case, outcome))
    return outcome


# --------------------------------------------------------- kill and resume

#: Snapshot cadence for the crash legs: small enough that most crashes
#: land past at least one snapshot, large enough to exercise a real
#: replay suffix.
CRASH_SNAPSHOT_EVERY = 40


def _durability(root: pathlib.Path, snapshots: bool) -> dict:
    return dict(
        journal=root / "run.journal",
        snapshots=(
            SnapshotConfig(
                directory=str(root / "snaps"), every_events=CRASH_SNAPSHOT_EVERY
            )
            if snapshots
            else None
        ),
    )


def _engine(data: dict | None, *args, **kwargs) -> SimEngine:
    """A fresh engine, or one restored from snapshot *data*."""
    if data is None:
        return SimEngine(*args, **kwargs)
    return SimEngine.restore(data, *args, **kwargs)


def _trace(engine: SimEngine):
    return None if engine.trace is None else engine.trace.snapshot_state()


class KillResume:
    """One case of a kill-and-resume mode.  Subclasses say how to build a
    leg and may aim the kill, watch the reference run and add a contract;
    :func:`kill_and_resume` is the sequence they all share."""

    #: Salt of the case's kill-point RNG stream.
    salt: int

    def __init__(self, case, record: dict):
        self.case = case
        self.record = record

    def start(self, root: pathlib.Path, *, snapshots: bool, data=None):
        """``(engine, runner)`` for one leg — fresh, or restored from
        snapshot *data*; ``runner.run()`` returns ``RunMetrics``."""
        raise NotImplementedError

    def watch(self, engine: SimEngine) -> None:
        """Observe the reference engine before it runs."""

    def contract(self, metrics: dict) -> Outcome | None:
        """A failure the reference run's metrics show, if any."""
        return None

    def aim(self, engine: SimEngine, rng, pops_total: int) -> str:
        """Arm the kill on the crash leg; returns where it will land."""
        self.at_pop = int(rng.integers(1, pops_total + 1))
        inject_crash(engine, self.at_pop)
        return f"pop {self.at_pop}/{pops_total}"

    def passed(self, metrics: dict) -> Outcome:
        """The outcome of a case whose recovered run kept parity."""
        return Outcome("ok")


def kill_and_resume(leg: KillResume, scratch: pathlib.Path) -> Outcome:
    """Golden kill-and-resume parity for one case.

    1. Run the case uninterrupted (journal, no snapshots) → reference
       journal bytes, trace and ``RunMetrics``; check the mode's contract.
    2. Run it again with rotated snapshots and kill it where the mode
       aims.
    3. Recover: load the latest valid snapshot (or start over when the
       kill predates the first one), reopen the journal at the
       snapshot's offset, and run to completion.
    4. The recovered run must match the reference **byte-for-byte**:
       journal, trace, and ``RunMetrics.as_dict()``.
    """
    case = leg.case
    rng = np.random.default_rng([case.base_seed, case.index, leg.salt])
    ref_dir, rec_dir = scratch / "ref", scratch / "rec"
    ref_dir.mkdir()
    rec_dir.mkdir()

    engine, runner = leg.start(ref_dir, snapshots=False)
    leg.watch(engine)
    try:
        ref_metrics = runner.run().as_dict()
    except RUN_ERRORS as exc:
        return classify(exc)
    engine.journal.close()
    ref_trace = _trace(engine)
    pops_total = engine.runtime.kernel.pops
    broken = leg.contract(ref_metrics)
    if broken is not None:
        return broken

    engine, runner = leg.start(rec_dir, snapshots=True)
    crash_at = leg.record["crash_at"] = leg.aim(engine, rng, pops_total)
    try:
        runner.run()
    except SimulatedCrash:
        pass
    except RUN_ERRORS as exc:
        return classify(exc)
    else:
        return Outcome("fail", "CrashRecovery", None, "injected crash never fired")

    found = latest_valid_snapshot(rec_dir / "snaps")
    engine, runner = leg.start(
        rec_dir, snapshots=True, data=None if found is None else found[1]
    )
    try:
        rec_metrics = runner.run().as_dict()
    except RUN_ERRORS as exc:
        return Outcome(
            "fail",
            "CrashRecovery",
            classify(exc).invariant,
            f"recovered run raised {type(exc).__name__} "
            f"(crash at {crash_at}): {exc}",
        )
    engine.journal.close()

    mismatches = []
    if rec_metrics != ref_metrics:
        diff_keys = sorted(
            key
            for key in set(ref_metrics) | set(rec_metrics)
            if ref_metrics.get(key) != rec_metrics.get(key)
        )
        mismatches.append(f"metrics differ on {diff_keys[:6]}")
    ref_journal = (ref_dir / "run.journal").read_bytes()
    rec_journal = (rec_dir / "run.journal").read_bytes()
    if rec_journal != ref_journal:
        prefix = os.path.commonprefix([rec_journal, ref_journal])
        mismatches.append(
            f"journal diverges at byte {len(prefix)} "
            f"({len(ref_journal)} vs {len(rec_journal)} bytes)"
        )
    if _trace(engine) != ref_trace:
        mismatches.append("trace segments differ")
    if mismatches:
        leg.record["mismatches"] = mismatches
        return Outcome(
            "fail",
            "CrashRecovery",
            None,
            f"crash at {crash_at}: " + "; ".join(mismatches),
        )
    return leg.passed(ref_metrics)


class BatchLeg(KillResume):
    """A batch engine over the plain grid's inputs for *case*."""

    #: Engine kwargs the mode adds to :func:`engine_args`.
    extra: dict = {}

    def __init__(self, case, record: dict):
        super().__init__(case, record)
        self.workload, self.cluster, self.plan = case_inputs(case)
        record["plan_events"] = len(self.plan)

    def start(self, root, *, snapshots, data=None):
        scheduler, kwargs = engine_args(
            self.case, self.workload, self.cluster, self.plan
        )
        engine = _engine(
            data,
            self.cluster,
            self.workload.jobs,
            scheduler,
            **kwargs,
            **self.extra,
            **_durability(root, snapshots),
        )
        return engine, engine


class CrashLeg(BatchLeg):
    """Crash-recovery: the plain grid with its trace recorded and compared;
    every fifth case dies mid-snapshot-write, which also proves the
    atomic-rename protocol (the torn write must not destroy older
    snapshots)."""

    salt = 0xC4A5
    extra = {"record_trace": True}

    def aim(self, engine, rng, pops_total):
        if self.case.index % 5:
            return super().aim(engine, rng, pops_total)

        def io_fault() -> None:
            raise SimulatedCrash("injected I/O fault mid-snapshot-write")

        engine.snapshots.io_fault = io_fault
        return f"first snapshot write (pop ~{CRASH_SNAPSHOT_EVERY})"


def check_crash(case: SoakCase, scratch: pathlib.Path, record: dict) -> Outcome:
    """Kill-and-resume parity for one plain-grid case."""
    outcome = kill_and_resume(CrashLeg(case, record), scratch)
    if outcome.status == "fail" and outcome.error_type != "CrashRecovery":
        # A reference-leg failure is a plain failure: shrink its plan.
        record["minimized_plan"] = plan_to_json(minimize_case(case, outcome))
    return outcome


class ElasticLeg(BatchLeg):
    """Membership churn composed with chaos.  Contract: under a
    checkpoint-retaining policy a graceful drain loses **zero** MI (fault
    losses stay on their own meter; srpt is the paper's checkpointless
    baseline, so its drain migrations legitimately restart from zero).
    The kill lands inside a drain window when one exists."""

    salt = 0xE1A5

    def __init__(self, case: ElasticCase, record: dict):
        super().__init__(case, record)
        membership = random_membership_plan(
            self.cluster,
            MEMBERSHIP_HORIZON,
            rng=np.random.default_rng([case.base_seed, case.index, 0xE7A5]),
            joins=case.joins,
            drains=case.drains,
        )
        record["membership_plan"] = membership_plan_to_json(membership)
        self.extra = dict(membership=membership, elastic=elastic_case_config(case))
        _, probe_kwargs = engine_args(case, self.workload, self.cluster, self.plan)
        self.checkpointing = probe_kwargs["preemption"].uses_checkpointing
        self.windows: list[tuple[int, int]] = []

    def watch(self, engine):
        """Record the event-pop window of every completed or aborted drain."""
        opened: dict[str, int] = {}

        def drain_open(ev) -> None:
            opened[ev.node_id] = engine.runtime.kernel.pops

        def drain_close(ev) -> None:
            start = opened.pop(ev.node_id, None)
            pops = engine.runtime.kernel.pops
            if start is not None and pops > start + 1:
                self.windows.append((start, pops))

        engine.runtime.bus.subscribe(NodeDraining, drain_open)
        engine.runtime.bus.subscribe((NodeDecommissioned, DrainAborted), drain_close)

    def contract(self, metrics):
        drain_lost = metrics.get("drain_lost_mi", 0.0)
        if not (self.checkpointing and drain_lost > 0.0):
            return None
        self.record["problems"] = [
            f"graceful drain lost {drain_lost} MI under a "
            f"checkpoint-retaining policy ({self.case.policy})"
        ]
        self.record["metrics"] = metrics
        return Outcome(
            "fail",
            "DrainLoss",
            None,
            f"{drain_lost} MI lost to drain under {self.case.policy}",
        )

    def aim(self, engine, rng, pops_total):
        if not self.windows:
            return super().aim(engine, rng, pops_total)
        start, end = self.windows[int(rng.integers(0, len(self.windows)))]
        self.at_pop = int(rng.integers(start + 1, end + 1))
        inject_crash(engine, self.at_pop)
        return f"pop {self.at_pop} (drain window {start}-{end})"

    def passed(self, metrics):
        return Outcome(
            "ok",
            message=(
                f"joined={metrics.get('nodes_joined', 0):g} "
                f"decom={metrics.get('nodes_decommissioned', 0):g} "
                f"aborts={metrics.get('drain_aborts', 0):g} "
                f"kill@{self.at_pop}{'*' if self.windows else ''}"
            ),
        )


class ReplayLeg(KillResume):
    """Streaming replay through a bounded admission window with retirement
    on.  Recovery also restores the admission loop's position (live window
    from the snapshot's ``jobs_spec``, source cursor, frontier counters and
    in-flight slice); with the watchdog off a replay is a pure function of
    (source, config)."""

    salt = 0xF40

    def __init__(self, case: ReplayCase, record: dict):
        super().__init__(case, record)
        self.cluster = uniform_cluster(case.num_nodes)
        self.spec = workload_spec_for_cluster(case.num_jobs, self.cluster, scale=60.0)

    def start(self, root, *, snapshots, data=None):
        case = self.case
        engine = _engine(
            data,
            self.cluster,
            [],
            HeuristicScheduler(self.cluster, DSPConfig()),
            sim_config=SimConfig(
                invariants="strict",
                retire_completed=True,
                retire_batch=case.retire_batch,
            ),
            streaming=True,
            **_durability(root, snapshots),
        )
        frontier = StreamingFrontier(
            engine,
            SyntheticSource(self.spec, seed=case.base_seed * 1021 + case.index),
            FrontierConfig(
                max_live_tasks=case.max_live_tasks,
                admit_batch=case.admit_batch,
                pump_pops=case.pump_pops,
            ),
        )
        if data is not None:
            frontier.restore_state(data.get("frontier"))
        return engine, frontier


# ------------------------------------------------------------- service mode


def service_job_spec(rng, job_id: str) -> dict:
    """A seeded random job: a short chain with occasional extra fan-in
    edges, sized so tasks run tens of sim-seconds (chaos can land on them)."""
    ntasks = int(rng.integers(1, 5))
    tasks = []
    for t in range(ntasks):
        parents = [f"t{t - 1}"] if t else []
        if t >= 2 and rng.random() < 0.3:
            parents.append(f"t{t - 2}")
        tasks.append(
            {
                "task_id": f"t{t}",
                "size_mi": float(rng.uniform(2000.0, 8000.0)),
                "demand": {
                    "cpu": float(rng.uniform(0.5, 1.5)),
                    "mem": float(rng.uniform(0.5, 1.5)),
                },
                "parents": parents,
            }
        )
    return {"job_id": job_id, "deadline": 1e6, "tasks": tasks}


async def _drive_service_case(case: ServiceCase, core, rng):
    """Start the frontend, run the client fleet and a status prober, drain;
    returns the terminal reply status per client, the namespaced names of
    the ``ok``-acknowledged jobs, every non-``ok`` status reply, and the
    final stats body."""
    import asyncio

    from ..service import ServiceClient, ServiceFrontend
    from ..service.protocol import job_name

    frontend = ServiceFrontend(core)
    address = await frontend.start(f"inproc://soak-service-{case.index}")
    specs = [
        (
            SERVICE_TENANTS[i % len(SERVICE_TENANTS)][0],
            service_job_spec(rng, f"job{i}"),
        )
        for i in range(case.num_clients)
    ]

    async def one_client(tenant: str, spec: dict) -> str:
        async with await ServiceClient.connect(address) as client:
            for _attempt in range(300):
                r = await client.submit_job(tenant, spec)
                if r["status"] == "retry":
                    await asyncio.sleep(0.001 * r.get("retry_after", 1.0))
                    continue
                return r["status"]
            return "gave-up"

    probing = True

    async def prober() -> list[str]:
        refused = []
        async with await ServiceClient.connect(address) as probe:
            while probing:
                st = await probe.status()
                if st["status"] != "ok":
                    refused.append(st["status"])
                await asyncio.sleep(0.005)
        return refused

    probe_task = asyncio.ensure_future(prober())
    outcomes = await asyncio.gather(
        *[one_client(tenant, spec) for tenant, spec in specs]
    )
    probing = False
    refused = await probe_task
    stats = await frontend.drain_and_stop()
    acked = {
        job_name(tenant, spec["job_id"])
        for (tenant, spec), status in zip(specs, outcomes) if status == "ok"
    }
    return list(outcomes), acked, refused, stats


def check_service(case: ServiceCase, scratch: pathlib.Path, record: dict) -> Outcome:
    """Chaos-injected streaming engine behind the inproc frontend, a
    concurrent client fleet, then the contract: every request answered
    and **zero acknowledged-job loss** (the ``ok``-acknowledged jobs are
    exactly the jobs the engine completed, and exactly the jobs the
    admission journal holds)."""
    import asyncio

    # Imported here so the case grid (which the benchmark imports) does
    # not pull in the service stack.
    from ..service import ServiceCore
    from ..service.protocol import job_name

    rng = np.random.default_rng([case.base_seed, case.index, 0x5E4C])
    cluster = uniform_cluster(case.num_nodes)
    plan = chaos_plan(
        cluster, SERVICE_FAULT_HORIZON, SERVICE_SCENARIOS[case.scenario], rng=rng
    )
    cfg = ServiceConfig(
        cycle_period=1.0,
        pump_events=case.pump_events,
        admission_per_cycle=case.admission_per_cycle,
        max_total_pending=4 * case.num_clients,
        request_deadline=0.0,
        snapshot_every_cycles=8,
        quotas=tuple(
            (name, TenantQuota(rate=200.0, burst=100, max_pending=256, share=share))
            for name, share in SERVICE_TENANTS
        ),
    )
    core = ServiceCore(
        cluster,
        HeuristicScheduler(cluster, DSPConfig()),
        cfg,
        data_dir=scratch / "svc",
        engine_kwargs=dict(
            faults=plan,
            resilience=SOAK_RESILIENCE,
            sim_config=SimConfig(invariants="strict"),
        ),
    )
    try:
        outcomes, acked_names, refused, stats = asyncio.run(
            _drive_service_case(case, core, rng)
        )
    except RUN_ERRORS as exc:
        return classify(exc)
    records, _ = read_journal(scratch / "svc" / "admissions.jsonl")
    journaled = {
        job_name(r["t"], r["j"]["job_id"]) for r in records if r.get("r") == "adm"
    }

    counts = {s: outcomes.count(s) for s in sorted(set(outcomes))}
    engine = stats["engine"]
    problems = []
    if len(outcomes) != case.num_clients:
        problems.append(f"{case.num_clients - len(outcomes)} clients never answered")
    if counts.get("gave-up"):
        problems.append(f"{counts['gave-up']} clients gave up retrying")
    if refused:
        problems.append(
            f"{len(refused)} status probes answered {sorted(set(refused))}"
        )
    acked = counts.get("ok", 0)
    if engine["jobs"] != acked:
        problems.append(
            f"acknowledged-job loss: {acked} acked but engine holds "
            f"{engine['jobs']} jobs"
        )
    if acked_names != journaled:
        problems.append(
            f"admission journal mismatch: {len(acked_names - journaled)} acked "
            f"but not journaled, {len(journaled - acked_names)} journaled "
            "but never acked"
        )
    if engine["tasks_done"] != engine["tasks_total"]:
        problems.append(
            f"drain left {engine['tasks_total'] - engine['tasks_done']} "
            "tasks unfinished"
        )
    if problems:
        record.update(problems=problems, replies=counts, stats=stats)
        return Outcome("fail", "ServiceContract", None, "; ".join(problems))
    return Outcome("ok", message=f"{acked} acked / {counts.get('shed', 0)} shed")


# ---------------------------------------------------------------- registry


@dataclass(frozen=True)
class Mode:
    """What distinguishes one soak mode; everything else is shared."""

    #: ``(index, base_seed) -> case``.
    build: Callable[[int, int], Any]
    #: ``(case, scratch_dir, record) -> Outcome``: runs the case, adding
    #: any mode detail (what its tag line or artifact shows) to *record*.
    check: Callable[[Any, pathlib.Path, dict], Outcome]
    #: ``(case, record) -> str``: the per-case line after its counter.
    tag: Callable[[Any, dict], str]
    #: The closing line, formatted with runs, failures, aborts and seed.
    summary: str


def _grid_tag(case: SoakCase, record: dict) -> str:
    return (
        f"{case.scenario:>15s} x {case.policy:<4s} "
        f"res={'on ' if case.resilient else 'off'} "
        f"nodes={case.num_nodes} jobs={case.num_jobs} "
        f"plan={record.get('plan_events', 0):3d}ev"
    )


MODES: dict[str, Mode] = {
    "plain": Mode(
        build_case,
        check_plain,
        _grid_tag,
        "soak: {runs} runs, {failures} failures, {aborts} aborts (seed={seed})",
    ),
    "crash-recovery": Mode(
        build_case,
        check_crash,
        _grid_tag,
        "crash-recovery soak: {runs} runs, {failures} failures, "
        "{aborts} aborts (seed={seed})",
    ),
    "elastic": Mode(
        build_elastic_case,
        lambda case, scratch, record: kill_and_resume(
            ElasticLeg(case, record), scratch
        ),
        lambda case, record: (
            f"{case.scenario:>15s} x {case.policy:<4s} "
            f"auto={'on ' if case.autoscale else 'off'} "
            f"nodes={case.num_nodes} jobs={case.num_jobs} "
            f"churn={case.joins}+{case.drains}"
        ),
        "elastic soak: {runs} runs, {failures} failures, {aborts} aborts "
        "(seed={seed})",
    ),
    "replay": Mode(
        build_replay_case,
        lambda case, scratch, record: kill_and_resume(
            ReplayLeg(case, record), scratch
        ),
        lambda case, record: (
            f"jobs={case.num_jobs} "
            f"nodes={case.num_nodes} window={case.max_live_tasks:3d} "
            f"admit={case.admit_batch} pump={case.pump_pops:3d} "
            f"retire={case.retire_batch}"
        ),
        "replay kill soak: {runs} runs, {failures} failures (seed={seed})",
    ),
    "service": Mode(
        build_service_case,
        check_service,
        lambda case, record: (
            f"{case.scenario:>15s} "
            f"nodes={case.num_nodes} clients={case.num_clients} "
            f"adm={case.admission_per_cycle:2d}/cyc pump={case.pump_events:3d}"
        ),
        "service soak: {runs} runs, {failures} failures (seed={seed})",
    ),
}


# ------------------------------------------------------------------ runner


def soak_run_key(mode: str, base_seed: int, index: int) -> RunKey:
    """The fabric RunKey identifying one soak case — what failure
    artifacts embed so ``repro sweep --only <key>`` replays the case."""
    return RunKey.make(
        "soak", {"mode": mode, "base_seed": base_seed, "index": index}
    )


def artifact_path(out_dir: pathlib.Path, mode: str, index: int) -> pathlib.Path:
    return out_dir / f"{mode}_case_{index:04d}.json"


def write_artifact(
    out_dir: pathlib.Path,
    mode: str,
    record: dict,
    failure: Outcome,
    scratch: pathlib.Path | None = None,
) -> pathlib.Path:
    """Write the failure artifact of the case *record* describes: the
    record (case plus mode detail), the error, the RunKey and a rerun
    hint; every journal under *scratch* is copied alongside."""
    case = record["case"]
    path = artifact_path(out_dir, mode, case["index"])
    out_dir.mkdir(parents=True, exist_ok=True)
    if scratch is not None:
        for journal in sorted(scratch.rglob("*")):
            if journal.suffix in (".journal", ".jsonl"):
                rel = ".".join(journal.relative_to(scratch).parts)
                shutil.copy(journal, out_dir / f"{path.stem}.{rel}")
    artifact = {
        **record,
        "error": {
            "type": failure.error_type,
            "invariant": failure.invariant,
            "message": failure.message,
        },
        "run_key": soak_run_key(mode, case["base_seed"], case["index"]).to_dict(),
        "rerun": f"PYTHONPATH=src python -m repro sweep --only {path}",
    }
    path.write_text(json.dumps(artifact, indent=2) + "\n")
    return path


def run_soak_params(params: dict[str, Any]) -> dict[str, Any]:
    """Run one case from its params — ``mode`` (default ``plain``),
    ``base_seed``, ``index`` — and return its record: the case, the
    mode's detail and the outcome.  With ``out`` set, a failing case
    writes its artifact there.  This is both the soak sweep's worker and
    the fabric's ``"soak"`` runner body."""
    mode = params.get("mode", "plain")
    if mode not in MODES:
        raise ValueError(f"unknown soak mode {mode!r}")
    spec = MODES[mode]
    case = spec.build(int(params["index"]), int(params["base_seed"]))
    record: dict[str, Any] = {"case": asdict(case)}
    with tempfile.TemporaryDirectory() as tmp:
        outcome = spec.check(case, pathlib.Path(tmp), record)
        if outcome.status == "fail" and params.get("out"):
            write_artifact(
                pathlib.Path(params["out"]), mode, record, outcome, pathlib.Path(tmp)
            )
    record["outcome"] = asdict(outcome)
    return record


class OrderedReporter:
    """Buffer out-of-order worker completions, handle them in case order.

    The fabric's ``parallel_map`` fires ``on_complete`` in completion
    order; soak output must happen in case order to stay byte-stable
    with the serial harness.  ``handle(index, outcome)`` runs exactly
    once per case, in index order.
    """

    def __init__(self, handle):
        self._handle = handle
        self._next = 0
        self._buffered = {}

    def add(self, index: int, outcome) -> None:
        self._buffered[index] = outcome
        while self._next in self._buffered:
            self._handle(self._next, self._buffered.pop(self._next))
            self._next += 1


def _failure_outcome(outcome) -> Outcome:
    """Fold a non-``ok`` fabric ``(status, payload)`` — a worker crash or
    an interrupt — into a soak ``fail`` Outcome."""
    status, payload = outcome[0], outcome[1]
    if status == "error":
        return Outcome(
            "fail",
            payload.get("type", "WorkerError"),
            None,
            payload.get("message"),
        )
    return Outcome("fail", "Interrupted", None, "run interrupted")


def run_soak(
    mode: str, runs: int, base_seed: int, out_dir: pathlib.Path, jobs: int = 1
) -> int:
    """Sweep cases ``0..runs-1`` of *mode* over ``jobs`` worker processes,
    printing one line per case in case order and a closing summary.
    Returns the exit status: 1 iff a case failed."""
    spec = MODES[mode]
    tally = {"fail": 0, "abort": 0}

    def handle(index: int, fabric) -> None:
        case = spec.build(index, base_seed)
        if fabric[0] == "ok":
            record = fabric[1]
            outcome = Outcome(**record["outcome"])
        else:
            # Worker crash/interrupt: no simulator outcome to classify.
            record, outcome = {"case": asdict(case)}, _failure_outcome(fabric)
            write_artifact(out_dir, mode, record, outcome)
        tag = f"[{index + 1:3d}/{runs}] {spec.tag(case, record)}"
        if outcome.status == "ok":
            print(f"{tag} ok" + (f" ({outcome.message})" if outcome.message else ""))
            return
        tally[outcome.status] += 1
        if outcome.status == "abort":
            print(f"{tag} ABORT ({outcome.message})")
            return
        print(f"{tag} FAIL {outcome.error_type}: {outcome.message}")
        print(f"      artifact written to {artifact_path(out_dir, mode, index)}")

    reporter = OrderedReporter(handle)
    parallel_map(
        run_soak_params,
        [
            {"mode": mode, "base_seed": base_seed, "index": index, "out": str(out_dir)}
            for index in range(runs)
        ],
        jobs=jobs,
        on_complete=reporter.add,
    )
    print(
        spec.summary.format(
            runs=runs, failures=tally["fail"], aborts=tally["abort"], seed=base_seed
        )
    )
    return 1 if tally["fail"] else 0
