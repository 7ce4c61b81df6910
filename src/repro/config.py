"""Configuration objects mirroring the paper's Table II parameter settings.

:class:`DSPConfig` collects every tunable that appears in the paper —
priority weights (Eq. 12–13), preemption thresholds (Algorithm 1), the
normalized-priority factor ρ, and the scheduling cadence — with the
defaults of Table II.  Experiments construct one config and pass it to the
scheduler, preemption engine and simulator so a run is fully described by
(config, workload, cluster, seed).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from ._util import check_fraction, check_non_negative, check_positive

__all__ = [
    "DSPConfig",
    "SimConfig",
    "FrontierConfig",
    "ResilienceConfig",
    "ChaosConfig",
    "ElasticConfig",
    "SnapshotConfig",
    "TenantQuota",
    "ServiceConfig",
]


@dataclass(frozen=True)
class DSPConfig:
    """Parameters of the DSP system (paper Table II).

    Attributes
    ----------
    theta_cpu, theta_mem:
        θ1/θ2 — weights of CPU and memory size in the node processing-rate
        function ``g(k) = θ1·s_cpu + θ2·s_mem`` (Eq. 1).
    gamma:
        γ ∈ (0, 1) — level-boost coefficient of the recursive priority
        (Eq. 12); children contribute with factor (γ + 1), so dependants in
        *higher* DAG levels weigh more.
    omega_remaining, omega_waiting, omega_allowable:
        ω1/ω2/ω3 — weights of the leaf-task priority (Eq. 13) on
        1/remaining-time, waiting time and allowable waiting time.  Must sum
        to 1.
    delta:
        δ — fraction of each node queue's head considered as *preempting
        tasks* in Algorithm 1 (the "minimum required ratio" of Table II).
    tau:
        τ — waiting-time threshold (seconds); a task whose *current stint*
        in the queue exceeds τ preempts regardless of condition C1
        (Algorithm 1 line 4's starvation override).  Table II lists
        τ = 0.05 s, but at that value every queued task becomes "urgent"
        within one epoch and the priority/PP machinery never engages
        (see DESIGN.md §2); we default to 30 s — still a tight starvation
        bound relative to task durations — and the ablation bench sweeps τ
        including the paper's value.
    epsilon:
        ε — urgency threshold (seconds) on allowable waiting time; tasks
        with ``t_a <= ε`` are *urgent* and preempt immediately.
    rho:
        ρ > 1 — normalized-priority factor of the PP mechanism; a
        preemption fires only when the priority gap exceeds ρ times the
        mean neighbouring gap.
    sigma:
        σ — post-eviction dispatch latency (seconds) added to each
        recovery (the paper's 0.05 s threshold for an evicted task to start).
    recovery_time:
        t_r — context-switch/checkpoint-recovery cost per preemption
        (seconds).
    srpt_alpha, srpt_beta:
        α/β — waiting-time and remaining-time weights of the SRPT baseline.
    checkpoint_interval:
        Seconds of execution progress between checkpoints (the [29]
        checkpoint–restart mechanism §III adopts).  0 — the default — is
        the perfect-checkpoint abstraction: a preempted task retains all
        completed work.  Positive values switch the engine to the interval
        model where work since the last checkpoint is lost on preemption
        (see :mod:`repro.sim.checkpoint`).
    use_pp:
        Whether the normalized-priority (PP) filter is active.  ``False``
        yields the paper's DSPW/oPP variant.
    """

    theta_cpu: float = 0.5
    theta_mem: float = 0.5
    gamma: float = 0.5
    omega_remaining: float = 0.5
    omega_waiting: float = 0.3
    omega_allowable: float = 0.2
    delta: float = 0.35
    tau: float = 30.0
    epsilon: float = 0.01
    rho: float = 1.5
    sigma: float = 0.05
    recovery_time: float = 0.05
    srpt_alpha: float = 0.5
    srpt_beta: float = 1.0
    checkpoint_interval: float = 0.0
    use_pp: bool = True

    def __post_init__(self) -> None:
        check_non_negative(self.theta_cpu, "theta_cpu")
        check_non_negative(self.theta_mem, "theta_mem")
        if not (self.theta_cpu > 0 or self.theta_mem > 0):
            raise ValueError("at least one of theta_cpu/theta_mem must be > 0")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma!r}")
        for name in ("omega_remaining", "omega_waiting", "omega_allowable"):
            check_fraction(getattr(self, name), name)
        total = self.omega_remaining + self.omega_waiting + self.omega_allowable
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"omega weights must sum to 1, got {total!r}")
        check_fraction(self.delta, "delta")
        check_non_negative(self.tau, "tau")
        check_non_negative(self.epsilon, "epsilon")
        if not self.rho > 1.0:
            raise ValueError(f"rho must be > 1, got {self.rho!r}")
        check_non_negative(self.sigma, "sigma")
        check_non_negative(self.recovery_time, "recovery_time")
        check_non_negative(self.srpt_alpha, "srpt_alpha")
        check_non_negative(self.srpt_beta, "srpt_beta")
        check_non_negative(self.checkpoint_interval, "checkpoint_interval")

    def without_pp(self) -> "DSPConfig":
        """Return a copy with the PP filter disabled (the DSPW/oPP variant)."""
        return dataclasses.replace(self, use_pp=False)

    def replace(self, **changes) -> "DSPConfig":
        """Return a copy with *changes* applied (thin dataclasses.replace)."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class SimConfig:
    """Parameters of the discrete-event simulation run.

    Attributes
    ----------
    epoch:
        Length (seconds) of the online preemption epoch; the preemption
        engine runs on every epoch tick (§IV-B).
    scheduling_period:
        Length (seconds) of the offline scheduling unit period; the
        offline scheduler runs on jobs submitted in each period (§III,
        experiments use 5 simulated minutes).
    horizon:
        Hard stop for the simulation clock (seconds); guards against
        non-terminating configurations.
    collect_task_samples:
        When True, the metrics collector retains per-task latency samples
        (queue wait + execution span per task) for distributional reports;
        memory-heavier, so off by default.
    invariants:
        Runtime invariant checking (:mod:`repro.sim.invariants`).
        ``"off"`` (default) attaches nothing — zero overhead, byte-identical
        runs.  ``"record"`` attaches the checker and collects violations for
        post-run inspection; ``"strict"`` raises
        :class:`~repro.sim.invariants.InvariantViolation` (with the
        offending event and recent event history) at the first violation.
    retire_completed:
        When True, the engine attaches a
        :class:`~repro.sim.frontier.RetirementManager` that evicts each
        fully-completed job's state end-to-end — `SimState` maps,
        ArrayCore rows back onto the dense-id free list — folding its per-task metrics into compact aggregates,
        so a streaming replay over millions of tasks holds only the live
        window.  Off by default: batch runs keep full per-task metrics
        and exact legacy float-summation order.
    retire_batch:
        Retire in batches of N completed jobs (sweeps run at settled
        points, after the event that finished the Nth job).  1 retires
        each job at the first settled point after it completes.
    """

    epoch: float = 5.0
    scheduling_period: float = 300.0
    horizon: float = 10_000_000.0
    collect_task_samples: bool = False
    invariants: str = "off"
    retire_completed: bool = False
    retire_batch: int = 1

    def __post_init__(self) -> None:
        check_positive(self.epoch, "epoch")
        check_positive(self.scheduling_period, "scheduling_period")
        check_positive(self.horizon, "horizon")
        if self.epoch > self.scheduling_period:
            raise ValueError("epoch must not exceed scheduling_period")
        if self.invariants not in ("off", "record", "strict"):
            raise ValueError(
                "invariants must be 'off', 'record' or 'strict', "
                f"got {self.invariants!r}"
            )
        if self.retire_batch < 1:
            raise ValueError(
                f"retire_batch must be >= 1, got {self.retire_batch!r}"
            )

    def replace(self, **changes) -> "SimConfig":
        """Return a copy with *changes* applied."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class FrontierConfig:
    """Knobs of the streaming admission frontier and memory watchdog
    (:mod:`repro.sim.frontier`).

    The frontier admits jobs lazily from a workload source (synthetic
    generator or trace file) into a streaming engine, keeping at most a
    bounded live window of task state in memory; the watchdog samples
    process RSS and walks a degradation ladder instead of letting an
    unbounded replay OOM.

    Attributes
    ----------
    max_live_tasks:
        Admission window: a job is admitted only while the engine's live
        task count plus the job's size stays at or under this bound.
        This is the deterministic memory bound — it holds with the
        watchdog off and is what crash-recovery parity relies on.
    admit_batch:
        Maximum jobs admitted per frontier step (bounds the work done
        between event pumps); also the most jobs the frontier draws ahead
        of admission, one per kernel settle point.
    pump_pops:
        Maximum kernel event pops per frontier step once admission is
        blocked (window full or source dry).
    rss_ceiling_mb:
        Memory-watchdog ceiling in MiB; ``None`` disables the watchdog.
        Sampling real RSS is inherently wall-clock-dependent, so runs
        that must resume bit-identically should rely on
        ``max_live_tasks`` alone and leave this off.
    watchdog_interval:
        Sample RSS every N frontier steps (cheap /proc read; 0 is
        rejected — disable via ``rss_ceiling_mb=None``).
    resume_fraction:
        Admission resumes once sampled RSS falls back under
        ``resume_fraction × rss_ceiling_mb`` (hysteresis so the ladder
        doesn't flap).
    spill_path:
        Where rung 3 (snapshot-and-shed) appends shed jobs as JSON
        lines; ``None`` derives ``shed_jobs.jsonl`` next to the journal
        or in the working directory.
    """

    max_live_tasks: int = 50_000
    admit_batch: int = 32
    pump_pops: int = 512
    rss_ceiling_mb: float | None = None
    watchdog_interval: int = 64
    resume_fraction: float = 0.85
    spill_path: str | None = None

    def __post_init__(self) -> None:
        if self.max_live_tasks < 1:
            raise ValueError(
                f"max_live_tasks must be >= 1, got {self.max_live_tasks!r}"
            )
        if self.admit_batch < 1:
            raise ValueError(f"admit_batch must be >= 1, got {self.admit_batch!r}")
        if self.pump_pops < 1:
            raise ValueError(f"pump_pops must be >= 1, got {self.pump_pops!r}")
        if self.rss_ceiling_mb is not None:
            check_positive(self.rss_ceiling_mb, "rss_ceiling_mb")
        if self.watchdog_interval < 1:
            raise ValueError(
                f"watchdog_interval must be >= 1, got {self.watchdog_interval!r}"
            )
        if not 0.0 < self.resume_fraction < 1.0:
            raise ValueError(
                f"resume_fraction must be in (0, 1), got {self.resume_fraction!r}"
            )

    def replace(self, **changes) -> "FrontierConfig":
        """Return a copy with *changes* applied."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class ResilienceConfig:
    """Parameters of the dependency-aware resilience layer (§VI future work).

    Passed to :class:`~repro.sim.engine.SimEngine` via its ``resilience``
    argument; ``None`` (the default) disables the layer entirely, in which
    case a failed attempt is retried immediately with no backoff, no
    speculation runs, and no node is ever quarantined.

    Attributes
    ----------
    max_attempts:
        Per-task attempt budget.  Every transient failure (TASK_FAIL fault
        or timeout kill) consumes one attempt; exhausting the budget aborts
        the run with :class:`~repro.sim.resilience.AttemptBudgetExhausted`
        — a task
        that cannot hold an attempt under the configured backoff is a
        configuration problem, not something to paper over silently.
    backoff_base, backoff_cap:
        Capped exponential backoff between attempts (seconds): attempt
        *k*'s retry waits ``min(cap, base * 2**(k-1))`` before it may be
        dispatched again.  Retries released in the same epoch are ranked
        by the DSP priority (Eq. 12–13) so the task blocking the most
        dependents recovers first.
    timeout_factor:
        A running attempt is killed (and retried) once its elapsed wall
        time exceeds ``timeout_factor`` times the execution time expected
        when it started.  0 disables timeouts.
    speculation_threshold:
        Launch a speculative copy of a running attempt when its observed
        progress rate falls below this fraction of the mean alive-node
        rate.  The copy lands on the healthiest eligible node; the first
        finisher wins and the loser is cancelled.  0 disables speculation.
    health_alpha:
        EWMA smoothing factor of the per-node health score in (0, 1]; a
        failure/timeout/straggle observation moves the score toward 1 by
        ``alpha``, a successful completion decays it by ``1 - alpha``.
    quarantine_threshold:
        Health score at or above which a node is quarantined: its queued
        backlog is drained to healthy nodes and it receives no new
        dispatches (running tasks finish out).  Values > 1 disable
        quarantining.  The last healthy node is never quarantined.
    quarantine_duration:
        Probation length (seconds).  A quarantined node is re-admitted
        after this long, or immediately on its RECOVERY fault event,
        whichever comes first; either way its health score resets.
    """

    max_attempts: int = 5
    backoff_base: float = 1.0
    backoff_cap: float = 60.0
    timeout_factor: float = 6.0
    speculation_threshold: float = 0.5
    health_alpha: float = 0.4
    quarantine_threshold: float = 0.75
    quarantine_duration: float = 900.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts!r}")
        check_non_negative(self.backoff_base, "backoff_base")
        check_non_negative(self.backoff_cap, "backoff_cap")
        if self.backoff_cap < self.backoff_base:
            raise ValueError("backoff_cap must be >= backoff_base")
        check_non_negative(self.timeout_factor, "timeout_factor")
        if self.timeout_factor != 0.0 and self.timeout_factor <= 1.0:
            raise ValueError(
                f"timeout_factor must be 0 (off) or > 1, got {self.timeout_factor!r}"
            )
        check_fraction(self.speculation_threshold, "speculation_threshold")
        if not 0.0 < self.health_alpha <= 1.0:
            raise ValueError(f"health_alpha must be in (0, 1], got {self.health_alpha!r}")
        check_positive(self.quarantine_threshold, "quarantine_threshold")
        check_positive(self.quarantine_duration, "quarantine_duration")

    def replace(self, **changes) -> "ResilienceConfig":
        """Return a copy with *changes* applied."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class SnapshotConfig:
    """Cadence and retention of automatic run snapshots
    (:mod:`repro.sim.snapshot`).

    Passed to :class:`~repro.sim.engine.SimEngine` via its ``snapshots``
    argument; ``None`` (the default) disables automatic snapshotting —
    :meth:`~repro.sim.engine.SimEngine.snapshot` stays available for
    explicit captures either way.  Snapshots are taken only at *settled*
    points (after a timed event's handler has fully run), so a restored
    run continues bit-identically.

    Attributes
    ----------
    directory:
        Where rotated snapshot files (``snapshot-NNNNNN.json``) land.
        Created on first write.
    every_events:
        Take a snapshot every N timed-event pops (0 disables the
        event-count trigger).
    every_sim_seconds:
        Take a snapshot whenever this much *simulated* time has passed
        since the last one (0 disables the sim-time trigger).  Both
        triggers may be active at once; either firing writes a snapshot.
    keep:
        How many rotated snapshot files to retain (oldest deleted first).
    """

    directory: str = "snapshots"
    every_events: int = 0
    every_sim_seconds: float = 0.0
    keep: int = 3

    def __post_init__(self) -> None:
        if not self.directory:
            raise ValueError("snapshot directory must be non-empty")
        if self.every_events < 0:
            raise ValueError(
                f"every_events must be >= 0, got {self.every_events!r}"
            )
        check_non_negative(self.every_sim_seconds, "every_sim_seconds")
        if self.keep < 1:
            raise ValueError(f"keep must be >= 1, got {self.keep!r}")

    def replace(self, **changes) -> "SnapshotConfig":
        """Return a copy with *changes* applied."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs of the composable chaos scenarios (:mod:`repro.sim.chaos`).

    Each knob group drives one :class:`~repro.sim.chaos.ChaosScenario`;
    a group whose gate knob is 0 is disabled, so the default config
    generates an empty fault plan.  :func:`repro.sim.chaos.chaos_plan`
    compiles the enabled scenarios into one validated fault plan.

    Attributes
    ----------
    domains:
        Number of correlated failure domains (racks/zones).  Nodes are
        assigned round-robin; one failure draw takes the *whole* domain
        down at the same instant (``domain_mtbf``/``domain_mttr`` are the
        per-domain exponential means).  0 disables correlated failures.
    burst_mtbf:
        Baseline per-node MTBF (seconds) of the Markov-modulated failure
        process.  During a burst window the failure rate is multiplied by
        ``burst_factor``; windows open every ``burst_every`` seconds and
        last ``burst_duration`` on average (all exponential).  0 disables
        bursts.
    wave_every:
        Mean seconds between straggler waves; each wave slows a random
        ``wave_fraction`` of nodes to ``wave_factor`` of their rate for
        ``wave_duration`` seconds.  0 disables waves.
    storm_every:
        Mean seconds between task-failure storms; each storm injects
        ``storm_task_fails`` TASK_FAIL events (Poisson-distributed count)
        on random nodes over ``storm_duration`` seconds.  0 disables
        storms.
    partition_mtbf:
        Per-node mean time between network partitions (seconds); each
        partition heals after an exponential ``partition_duration``.
        0 disables partitions.
    keep_alive:
        When True (default), the compiled plan never takes the last
        available node away: failure/partition events that would leave
        zero reachable nodes are dropped during normalization.
    """

    domains: int = 0
    domain_mtbf: float = 7200.0
    domain_mttr: float = 300.0
    burst_mtbf: float = 0.0
    burst_mttr: float = 300.0
    burst_factor: float = 8.0
    burst_every: float = 14400.0
    burst_duration: float = 600.0
    wave_every: float = 0.0
    wave_fraction: float = 0.3
    wave_duration: float = 600.0
    wave_factor: float = 0.4
    storm_every: float = 0.0
    storm_duration: float = 300.0
    storm_task_fails: float = 8.0
    partition_mtbf: float = 0.0
    partition_duration: float = 120.0
    keep_alive: bool = True

    def __post_init__(self) -> None:
        if self.domains < 0:
            raise ValueError(f"domains must be >= 0, got {self.domains!r}")
        check_positive(self.domain_mtbf, "domain_mtbf")
        check_positive(self.domain_mttr, "domain_mttr")
        check_non_negative(self.burst_mtbf, "burst_mtbf")
        check_positive(self.burst_mttr, "burst_mttr")
        if self.burst_factor < 1.0:
            raise ValueError(
                f"burst_factor must be >= 1, got {self.burst_factor!r}"
            )
        check_positive(self.burst_every, "burst_every")
        check_positive(self.burst_duration, "burst_duration")
        check_non_negative(self.wave_every, "wave_every")
        check_fraction(self.wave_fraction, "wave_fraction")
        check_positive(self.wave_duration, "wave_duration")
        if not 0.0 < self.wave_factor < 1.0:
            raise ValueError(
                f"wave_factor must be in (0, 1), got {self.wave_factor!r}"
            )
        check_non_negative(self.storm_every, "storm_every")
        check_positive(self.storm_duration, "storm_duration")
        check_non_negative(self.storm_task_fails, "storm_task_fails")
        check_non_negative(self.partition_mtbf, "partition_mtbf")
        check_positive(self.partition_duration, "partition_duration")

    def replace(self, **changes) -> "ChaosConfig":
        """Return a copy with *changes* applied."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class ElasticConfig:
    """Knobs of the elastic cluster-membership subsystem
    (:mod:`repro.sim.elastic`).

    Passed to :class:`~repro.sim.engine.SimEngine` via its ``elastic``
    argument together with an optional scripted membership plan
    (``membership=[MembershipEvent, ...]``); when neither is given the
    node set is fixed and the engine is byte-identical to the
    pre-elastic one.

    Attributes
    ----------
    autoscale:
        Enable the load-following autoscaler.  Off, the subsystem only
        executes the scripted membership plan.
    check_period:
        The autoscaler evaluates its signals on epoch ticks at least
        this many simulated seconds apart.
    scale_up_queue_depth:
        Scale up when the mean queued-task depth per member node stays
        at or above this for ``scale_up_sustain`` seconds.
    scale_up_sustain:
        Seconds the scale-up signal must hold continuously — transient
        chaos bursts must not flap the fleet.
    scale_down_idle_nodes:
        Scale down when at least this many member nodes are completely
        idle (nothing running, nothing queued) for
        ``scale_down_sustain`` seconds.
    scale_down_sustain:
        Seconds the scale-down signal must hold continuously.
    cooldown:
        Minimum seconds between autoscaler actions (either direction) —
        the hysteresis guard on top of the sustain windows.
    min_nodes, max_nodes:
        Bounds on the member-node count the autoscaler may reach.
        Scripted plans are validated against ``min_nodes >= 1`` only
        (never drain the last member).
    join_delay:
        Provisioning latency (seconds) between a join starting
        (JOINING) and the node becoming a dispatchable member (ALIVE).
    drain_step:
        Seconds between graceful-drain migration steps: each step moves
        at most ``drain_batch`` running tasks off the DRAINING node via
        the checkpoint-aware preemption path, then re-homes its backlog.
    drain_batch:
        Running tasks migrated per drain step.
    drain_timeout:
        Abort a drain (node returns to ALIVE, dispatch gate lifts) when
        it has not completed after this long — e.g. when chaos has left
        no reachable node to take the backlog.
    """

    autoscale: bool = False
    check_period: float = 30.0
    scale_up_queue_depth: float = 4.0
    scale_up_sustain: float = 60.0
    scale_down_idle_nodes: int = 1
    scale_down_sustain: float = 180.0
    cooldown: float = 120.0
    min_nodes: int = 1
    max_nodes: int = 64
    join_delay: float = 30.0
    drain_step: float = 5.0
    drain_batch: int = 1
    drain_timeout: float = 600.0

    def __post_init__(self) -> None:
        check_positive(self.check_period, "check_period")
        check_positive(self.scale_up_queue_depth, "scale_up_queue_depth")
        check_non_negative(self.scale_up_sustain, "scale_up_sustain")
        if self.scale_down_idle_nodes < 1:
            raise ValueError(
                "scale_down_idle_nodes must be >= 1, "
                f"got {self.scale_down_idle_nodes!r}"
            )
        check_non_negative(self.scale_down_sustain, "scale_down_sustain")
        check_non_negative(self.cooldown, "cooldown")
        if self.min_nodes < 1:
            raise ValueError(f"min_nodes must be >= 1, got {self.min_nodes!r}")
        if self.max_nodes < self.min_nodes:
            raise ValueError(
                f"max_nodes ({self.max_nodes!r}) must be >= min_nodes "
                f"({self.min_nodes!r})"
            )
        check_non_negative(self.join_delay, "join_delay")
        check_positive(self.drain_step, "drain_step")
        if self.drain_batch < 1:
            raise ValueError(f"drain_batch must be >= 1, got {self.drain_batch!r}")
        check_positive(self.drain_timeout, "drain_timeout")

    def replace(self, **changes) -> "ElasticConfig":
        """Return a copy with *changes* applied."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission limits enforced by the service frontend
    (:mod:`repro.service.admission`).

    Attributes
    ----------
    rate:
        Token-bucket refill rate — sustained admissions per (virtual)
        second this tenant may submit.
    burst:
        Token-bucket capacity — how many submissions the tenant may land
        back-to-back after idling.
    max_pending:
        Bound on the tenant's pending queue (accepted-but-not-yet-admitted
        jobs).  A submission arriving at a full queue gets a backpressure
        (``retry``) reply instead of unbounded buffering.
    share:
        Fairness weight.  Admission drains pending queues by deficit
        round-robin over shares, and the shed order under overload drops
        tenants furthest *over* their fair share first.
    """

    rate: float = 10.0
    burst: int = 20
    max_pending: int = 64
    share: float = 1.0

    def __post_init__(self) -> None:
        check_positive(self.rate, "rate")
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst!r}")
        if self.max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {self.max_pending!r}")
        check_positive(self.share, "share")

    def replace(self, **changes) -> "TenantQuota":
        """Return a copy with *changes* applied."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the scheduler-as-a-service frontend (:mod:`repro.service`).

    The service advances in fixed *cycles*: each cycle admits at most
    ``admission_per_cycle`` pending jobs (fairness-ordered), durably
    journals and acknowledges them as one group commit, then pumps the
    streaming engine by at most ``pump_events`` event pops.  All rates
    and deadlines are measured on the service's virtual clock
    (``cycle × cycle_period``) so tests and crash-recovery replay are
    deterministic; the TCP frontend simply drives cycles in real time.

    Attributes
    ----------
    cycle_period:
        Virtual seconds per service cycle — the token-refill and
        per-request-deadline clock granularity, and the simulated time
        injected jobs arrive on.
    pump_events:
        Maximum kernel event pops executed per cycle.  Bounds how long a
        cycle can starve request handling — the degradation guarantee
        that ``status`` stays answerable under any backlog.
    admission_per_cycle:
        Maximum jobs admitted (journaled + acknowledged) per cycle — the
        group-commit batch bound.
    max_total_pending:
        Global cap on accepted-but-unadmitted jobs across all tenants.
        Above ``shed_threshold × max_total_pending`` the controller sheds
        new submissions from tenants over their fair share; at the cap it
        sheds every new submission (``status``/``stats`` always answer).
    shed_threshold:
        Fraction of ``max_total_pending`` at which over-share shedding
        begins.
    request_deadline:
        Virtual seconds a pending submission may wait before it is
        answered ``timeout`` and dropped (0 disables expiry).
    retry_after:
        Suggested client backoff (virtual seconds) carried in
        backpressure (``retry``) replies.
    default_quota:
        Quota applied to tenants without an explicit entry in ``quotas``.
    quotas:
        Per-tenant overrides as ``(tenant, TenantQuota)`` pairs (a tuple,
        keeping the config hashable/frozen).
    snapshot_every_cycles:
        Write a service snapshot every N cycles (0 disables; ``drain``
        and SIGTERM always snapshot).
    """

    cycle_period: float = 1.0
    pump_events: int = 256
    admission_per_cycle: int = 64
    max_total_pending: int = 1024
    shed_threshold: float = 0.9
    request_deadline: float = 30.0
    retry_after: float = 1.0
    default_quota: TenantQuota = field(default_factory=TenantQuota)
    quotas: tuple[tuple[str, TenantQuota], ...] = ()
    snapshot_every_cycles: int = 0

    def __post_init__(self) -> None:
        check_positive(self.cycle_period, "cycle_period")
        if self.pump_events < 1:
            raise ValueError(f"pump_events must be >= 1, got {self.pump_events!r}")
        if self.admission_per_cycle < 1:
            raise ValueError(
                f"admission_per_cycle must be >= 1, got {self.admission_per_cycle!r}"
            )
        if self.max_total_pending < 1:
            raise ValueError(
                f"max_total_pending must be >= 1, got {self.max_total_pending!r}"
            )
        check_fraction(self.shed_threshold, "shed_threshold")
        check_non_negative(self.request_deadline, "request_deadline")
        check_positive(self.retry_after, "retry_after")
        seen = set()
        for entry in self.quotas:
            tenant, quota = entry
            if not isinstance(tenant, str) or not tenant:
                raise ValueError(f"tenant name must be a non-empty str: {tenant!r}")
            if not isinstance(quota, TenantQuota):
                raise ValueError(f"quota for {tenant!r} must be a TenantQuota")
            if tenant in seen:
                raise ValueError(f"duplicate quota entry for tenant {tenant!r}")
            seen.add(tenant)
        if self.snapshot_every_cycles < 0:
            raise ValueError(
                "snapshot_every_cycles must be >= 0, "
                f"got {self.snapshot_every_cycles!r}"
            )

    def quota_for(self, tenant: str) -> TenantQuota:
        """The quota governing *tenant* (explicit entry or the default)."""
        for name, quota in self.quotas:
            if name == tenant:
                return quota
        return self.default_quota

    def replace(self, **changes) -> "ServiceConfig":
        """Return a copy with *changes* applied."""
        return dataclasses.replace(self, **changes)
