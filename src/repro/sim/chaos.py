"""Composable chaos scenarios compiling to validated fault plans.

:func:`repro.sim.faults.random_fault_plan` draws *independent* per-node
events; real cluster incidents are correlated — a rack power feed takes a
whole failure domain down at once, failures cluster in bursts, stragglers
arrive in waves when a shared resource saturates, and network partitions
isolate healthy machines.  Each :class:`ChaosScenario` here generates one
such pattern; :func:`compile_plan` merges any combination into a single
fault plan, normalizing away cross-scenario conflicts (a wave cannot slow
a node a burst already crashed) and then validating the result with
:func:`~repro.sim.faults.validate_fault_plan`, so the engine always
receives a legal plan.

Scenarios only emit *closed* windows: a FAILURE/SLOWDOWN/PARTITION whose
RECOVERY/RESTORE/HEAL would land beyond the horizon is dropped entirely,
so a compiled plan never strands a run with a permanently dead or
partitioned node.

The knob-level interface is :class:`repro.config.ChaosConfig` +
:func:`chaos_plan`; :func:`plan_to_json` / :func:`plan_from_json` round-
trip plans through the soak harness's failure artifacts
(:mod:`repro.sweep.soakcases`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .._util import check_positive, ensure_rng
from ..cluster.cluster import Cluster
from ..config import ChaosConfig
from .faults import FaultEvent, FaultKind, fault_sort_key, validate_fault_plan

__all__ = [
    "ChaosScenario",
    "CorrelatedFailureDomains",
    "FailureBursts",
    "StragglerWave",
    "TaskFailStorm",
    "Partitions",
    "normalize_plan",
    "compile_plan",
    "scenarios_from_config",
    "chaos_plan",
    "plan_to_json",
    "plan_from_json",
]


class ChaosScenario:
    """One composable fault-pattern generator.

    Subclasses draw raw :class:`~repro.sim.faults.FaultEvent` lists from
    their own stochastic model; they need not be mutually consistent —
    :func:`compile_plan` normalizes the union.
    """

    def generate(
        self, cluster: Cluster, horizon: float, rng: np.random.Generator
    ) -> list[FaultEvent]:
        """Draw this scenario's events over ``[0, horizon)``."""
        raise NotImplementedError


def _node_ids(cluster: Cluster) -> list[str]:
    return [node.node_id for node in cluster]


@dataclass(frozen=True)
class CorrelatedFailureDomains(ChaosScenario):
    """Rack/zone-correlated failures: nodes are assigned round-robin to
    ``domains`` failure domains and one exponential draw (mean ``mtbf``)
    fails the *entire* domain at the same instant, repairing it together
    after an exponential ``mttr``."""

    domains: int = 2
    mtbf: float = 7200.0
    mttr: float = 300.0

    def __post_init__(self) -> None:
        if self.domains < 1:
            raise ValueError(f"domains must be >= 1, got {self.domains!r}")
        check_positive(self.mtbf, "mtbf")
        check_positive(self.mttr, "mttr")

    def generate(
        self, cluster: Cluster, horizon: float, rng: np.random.Generator
    ) -> list[FaultEvent]:
        ids = _node_ids(cluster)
        groups: list[list[str]] = [[] for _ in range(min(self.domains, len(ids)))]
        for i, node_id in enumerate(ids):
            groups[i % len(groups)].append(node_id)
        plan: list[FaultEvent] = []
        for group in groups:
            t = float(rng.exponential(self.mtbf))
            while t < horizon:
                up = t + float(rng.exponential(self.mttr))
                if up >= horizon:
                    break  # only closed down-windows; never strand a domain
                for node_id in group:
                    plan.append(FaultEvent(t, node_id, FaultKind.FAILURE))
                    plan.append(FaultEvent(up, node_id, FaultKind.RECOVERY))
                t = up + float(rng.exponential(self.mtbf))
        return plan


@dataclass(frozen=True)
class FailureBursts(ChaosScenario):
    """Markov-modulated failures: the per-node failure rate is ``1/mtbf``
    in the calm state and ``factor/mtbf`` inside burst windows (opening
    every ``burst_every`` seconds, lasting ``burst_duration`` on average,
    both exponential).  Sampled by thinning at the burst rate, so calm
    and burst periods share one event stream."""

    mtbf: float = 3600.0
    mttr: float = 300.0
    factor: float = 8.0
    burst_every: float = 14400.0
    burst_duration: float = 600.0

    def __post_init__(self) -> None:
        check_positive(self.mtbf, "mtbf")
        check_positive(self.mttr, "mttr")
        if self.factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {self.factor!r}")
        check_positive(self.burst_every, "burst_every")
        check_positive(self.burst_duration, "burst_duration")

    def generate(
        self, cluster: Cluster, horizon: float, rng: np.random.Generator
    ) -> list[FaultEvent]:
        windows: list[tuple[float, float]] = []
        t = float(rng.exponential(self.burst_every))
        while t < horizon:
            end = t + float(rng.exponential(self.burst_duration))
            windows.append((t, end))
            t = end + float(rng.exponential(self.burst_every))

        def in_burst(when: float) -> bool:
            return any(lo <= when < hi for lo, hi in windows)

        plan: list[FaultEvent] = []
        for node_id in _node_ids(cluster):
            t = float(rng.exponential(self.mtbf / self.factor))
            while t < horizon:
                # Thinning: candidates arrive at the burst rate; calm-state
                # candidates survive with probability 1/factor.
                if in_burst(t) or rng.random() < 1.0 / self.factor:
                    up = t + float(rng.exponential(self.mttr))
                    if up >= horizon:
                        break
                    plan.append(FaultEvent(t, node_id, FaultKind.FAILURE))
                    plan.append(FaultEvent(up, node_id, FaultKind.RECOVERY))
                    t = up
                t += float(rng.exponential(self.mtbf / self.factor))
        return plan


@dataclass(frozen=True)
class StragglerWave(ChaosScenario):
    """Straggler waves: every ~``wave_every`` seconds a random
    ``fraction`` of the cluster slows to ``factor`` of nominal rate for
    ``duration`` seconds, then restores together — the signature of a
    saturated shared resource (network, disk array), not an independent
    per-node defect."""

    wave_every: float = 3600.0
    fraction: float = 0.3
    duration: float = 600.0
    factor: float = 0.4

    def __post_init__(self) -> None:
        check_positive(self.wave_every, "wave_every")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {self.fraction!r}")
        check_positive(self.duration, "duration")
        if not 0.0 < self.factor < 1.0:
            raise ValueError(f"factor must be in (0, 1), got {self.factor!r}")

    def generate(
        self, cluster: Cluster, horizon: float, rng: np.random.Generator
    ) -> list[FaultEvent]:
        ids = _node_ids(cluster)
        per_wave = max(1, math.ceil(self.fraction * len(ids)))
        plan: list[FaultEvent] = []
        t = float(rng.exponential(self.wave_every))
        while t < horizon:
            end = t + self.duration
            if end >= horizon:
                break
            picked = rng.choice(len(ids), size=per_wave, replace=False)
            for idx in sorted(int(i) for i in picked):
                plan.append(
                    FaultEvent(t, ids[idx], FaultKind.SLOWDOWN, self.factor)
                )
                plan.append(FaultEvent(end, ids[idx], FaultKind.RESTORE))
            t = end + float(rng.exponential(self.wave_every))
        return plan


@dataclass(frozen=True)
class TaskFailStorm(ChaosScenario):
    """Task-failure storms: every ~``storm_every`` seconds a storm window
    of ``duration`` seconds opens in which a Poisson-distributed number
    (mean ``task_fails``) of TASK_FAIL events hits uniformly-random nodes
    at uniformly-random times — think a bad config push crashing
    executors cluster-wide until it is rolled back."""

    storm_every: float = 3600.0
    duration: float = 300.0
    task_fails: float = 8.0

    def __post_init__(self) -> None:
        check_positive(self.storm_every, "storm_every")
        check_positive(self.duration, "duration")
        if self.task_fails <= 0:
            raise ValueError(f"task_fails must be > 0, got {self.task_fails!r}")

    def generate(
        self, cluster: Cluster, horizon: float, rng: np.random.Generator
    ) -> list[FaultEvent]:
        ids = _node_ids(cluster)
        plan: list[FaultEvent] = []
        t = float(rng.exponential(self.storm_every))
        while t < horizon:
            count = int(rng.poisson(self.task_fails))
            for _ in range(count):
                when = t + float(rng.uniform(0.0, self.duration))
                if when >= horizon:
                    continue
                node_id = ids[int(rng.integers(len(ids)))]
                plan.append(FaultEvent(when, node_id, FaultKind.TASK_FAIL))
            t += self.duration + float(rng.exponential(self.storm_every))
        return plan


@dataclass(frozen=True)
class Partitions(ChaosScenario):
    """Network partitions: per node, partitions arrive with mean time
    ``mtbf`` and heal after an exponential ``duration`` — the node stays
    up (its work pauses in place) but is unreachable in between."""

    mtbf: float = 7200.0
    duration: float = 120.0

    def __post_init__(self) -> None:
        check_positive(self.mtbf, "mtbf")
        check_positive(self.duration, "duration")

    def generate(
        self, cluster: Cluster, horizon: float, rng: np.random.Generator
    ) -> list[FaultEvent]:
        plan: list[FaultEvent] = []
        for node_id in _node_ids(cluster):
            t = float(rng.exponential(self.mtbf))
            while t < horizon:
                heal = t + float(rng.exponential(self.duration))
                if heal >= horizon:
                    break  # only closed windows; never strand a partition
                plan.append(FaultEvent(t, node_id, FaultKind.PARTITION))
                plan.append(FaultEvent(heal, node_id, FaultKind.HEAL))
                t = heal + float(rng.exponential(self.mtbf))
        return plan


# ------------------------------------------------------------- compilation
def normalize_plan(
    events: Sequence[FaultEvent], cluster: Cluster, *, keep_alive: bool = True
) -> list[FaultEvent]:
    """Drop events that are illegal given everything sorting before them.

    Replays the candidate plan in canonical :func:`fault_sort_key` order
    through the same per-node state machine
    :func:`~repro.sim.faults.validate_fault_plan` checks, keeping only
    transitions that are legal at their point in the sequence — composed
    scenarios are drawn independently, so e.g. a straggler wave may try to
    slow a node a burst already crashed.  With ``keep_alive`` (default), a
    FAILURE or PARTITION that would leave *zero* available (up, reachable)
    nodes is dropped too; its now-orphaned RECOVERY/HEAL then drops as an
    illegal transition on its own.
    """
    known = {node.node_id for node in cluster}
    state: dict[str, str] = {}
    available = len(known)
    kept: list[FaultEvent] = []
    for ev in sorted(events, key=fault_sort_key):
        if ev.node_id not in known:
            continue
        current = state.get(ev.node_id, "up")
        if ev.kind is FaultKind.FAILURE:
            if current == "down":
                continue
            takes_capacity = current in ("up", "slow")
            if keep_alive and takes_capacity and available == 1:
                continue
            if takes_capacity:
                available -= 1
            state[ev.node_id] = "down"
        elif ev.kind is FaultKind.RECOVERY:
            if current != "down":
                continue
            state[ev.node_id] = "up"
            available += 1
        elif ev.kind is FaultKind.SLOWDOWN:
            if current != "up":
                continue
            state[ev.node_id] = "slow"
        elif ev.kind is FaultKind.RESTORE:
            if current != "slow":
                continue
            state[ev.node_id] = "up"
        elif ev.kind is FaultKind.TASK_FAIL:
            if current in ("down", "partitioned"):
                continue
        elif ev.kind is FaultKind.PARTITION:
            if current != "up":
                continue
            if keep_alive and available == 1:
                continue
            available -= 1
            state[ev.node_id] = "partitioned"
        elif ev.kind is FaultKind.HEAL:
            if current != "partitioned":
                continue
            state[ev.node_id] = "up"
            available += 1
        kept.append(ev)
    return kept


def compile_plan(
    scenarios: Sequence[ChaosScenario],
    cluster: Cluster,
    horizon: float,
    *,
    rng: int | np.random.Generator | None = None,
    keep_alive: bool = True,
) -> list[FaultEvent]:
    """Generate, merge, normalize and validate the scenarios' fault plan.

    The result is always legal for :class:`~repro.sim.engine.SimEngine`;
    a validation failure after normalization is a bug in this module and
    raises ``RuntimeError``.
    """
    check_positive(horizon, "horizon")
    gen = ensure_rng(rng)
    raw: list[FaultEvent] = []
    for scenario in scenarios:
        raw.extend(scenario.generate(cluster, horizon, gen))
    plan = normalize_plan(raw, cluster, keep_alive=keep_alive)
    problems = validate_fault_plan(plan, cluster)
    if problems:
        raise RuntimeError(
            f"normalize_plan produced an invalid plan: {problems[:3]}"
        )
    return plan


def scenarios_from_config(config: ChaosConfig) -> list[ChaosScenario]:
    """Instantiate the scenarios a :class:`~repro.config.ChaosConfig`
    enables (knob groups gated on 0 are skipped)."""
    scenarios: list[ChaosScenario] = []
    if config.domains > 0:
        scenarios.append(
            CorrelatedFailureDomains(
                domains=config.domains,
                mtbf=config.domain_mtbf,
                mttr=config.domain_mttr,
            )
        )
    if config.burst_mtbf > 0:
        scenarios.append(
            FailureBursts(
                mtbf=config.burst_mtbf,
                mttr=config.burst_mttr,
                factor=config.burst_factor,
                burst_every=config.burst_every,
                burst_duration=config.burst_duration,
            )
        )
    if config.wave_every > 0:
        scenarios.append(
            StragglerWave(
                wave_every=config.wave_every,
                fraction=config.wave_fraction,
                duration=config.wave_duration,
                factor=config.wave_factor,
            )
        )
    if config.storm_every > 0:
        scenarios.append(
            TaskFailStorm(
                storm_every=config.storm_every,
                duration=config.storm_duration,
                task_fails=config.storm_task_fails,
            )
        )
    if config.partition_mtbf > 0:
        scenarios.append(
            Partitions(
                mtbf=config.partition_mtbf,
                duration=config.partition_duration,
            )
        )
    return scenarios


def chaos_plan(
    cluster: Cluster,
    horizon: float,
    config: ChaosConfig,
    *,
    rng: int | np.random.Generator | None = None,
) -> list[FaultEvent]:
    """Knob-level front door: compile the plan *config* describes."""
    return compile_plan(
        scenarios_from_config(config),
        cluster,
        horizon,
        rng=rng,
        keep_alive=config.keep_alive,
    )


# ------------------------------------------------------------ serialization
def plan_to_json(plan: Sequence[FaultEvent]) -> list[dict]:
    """Flatten a fault plan to JSON-serializable dicts (repro artifacts)."""
    return [
        {
            "time": ev.time,
            "node_id": ev.node_id,
            "kind": ev.kind.value,
            "factor": ev.factor,
        }
        for ev in plan
    ]


def plan_from_json(data: Sequence[Mapping]) -> list[FaultEvent]:
    """Rebuild a fault plan from :func:`plan_to_json` output."""
    return [
        FaultEvent(
            float(item["time"]),
            str(item["node_id"]),
            FaultKind(item["kind"]),
            float(item.get("factor", 1.0)),
        )
        for item in data
    ]
