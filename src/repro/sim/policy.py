"""Preemption-policy interface between the engine and the strategies.

At every epoch tick the engine asks the policy, for each contended node,
which waiting tasks should evict which running tasks — one call,
:meth:`PreemptionPolicy.select_preemptions_from_core` with the engine's
:class:`~repro.sim.state.SimRuntime` and the node.  The policy answers
with :class:`PreemptionDecision` pairs; the engine validates and applies
them, charging context-switch costs and counting disorders.  Before the
run the engine hands the policy the same runtime once, through the
optional :meth:`PreemptionPolicy.attach` hook.

Keeping the interface decision-only means DSP and all four baselines
differ *only* in their decision logic — dispatch, bookkeeping and metric
accounting are shared, so measured differences are attributable to the
policies alone (the property the paper's §V-B comparison needs).

DSP runs Algorithm 1 straight off the array core's columns
(:mod:`repro.core.preemption`).  The baselines (SRPT, Amoeba, Natjam)
share one claim loop, :class:`ClaimPolicy`: it gathers the node's
:class:`~repro.sim.views.NodeSignals` (``runtime.views.build``), sorts
the eligible preemptable running tasks by a victim key and the eligible
queued tasks by a claimant key, and pairs them with
:func:`greedy_claim` under an accept rule — so each baseline
contributes only its keys, its accept rule and its filters.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:
    from .views import NodeSignals

__all__ = [
    "PreemptionDecision",
    "PreemptionPolicy",
    "NullPreemption",
    "ClaimPolicy",
    "greedy_claim",
]


@dataclass(frozen=True, slots=True)
class PreemptionDecision:
    """One policy decision: *preempting* (a waiting task) evicts *victim*
    (a running task).  The engine suspends the victim, dispatches the
    preempting task in its place and charges the context switch."""

    preempting_task_id: str
    victim_task_id: str


def greedy_claim(
    ids: Sequence[str],
    claimants: Sequence[int],
    victims: Sequence[int],
    accepts: Callable[[int, int], bool],
) -> list[PreemptionDecision]:
    """Greedily pair *claimants* (in order) against the cheapest unclaimed
    victim; both are positions into *ids*.

    A victim is consumed only when *accepts*(claimant, victim) holds; a
    rejected claimant does **not** consume the victim — the next
    claimant is tried against the same one.
    """
    decisions: list[PreemptionDecision] = []
    vi = 0
    for claimant in claimants:
        if vi >= len(victims):
            break
        victim = victims[vi]
        if accepts(claimant, victim):
            decisions.append(
                PreemptionDecision(
                    preempting_task_id=ids[claimant],
                    victim_task_id=ids[victim],
                )
            )
            vi += 1
    return decisions


class PreemptionPolicy(abc.ABC):
    """Strategy interface evaluated at every epoch tick.

    Class attributes declare the two behavioural axes the engine needs:

    * ``respects_dependencies`` — when False, the engine may dispatch this
      policy's choices (and queue heads) before their parents complete,
      producing *disorders* (Figs. 6a/7a);
    * ``uses_checkpointing`` — when False, a preempted task loses all
      progress and restarts from scratch (the SRPT behaviour §V describes).
    """

    #: Whether dispatch and preemption honour the dependency relation.
    respects_dependencies: bool = True
    #: Whether preempted tasks resume from their last checkpoint.
    uses_checkpointing: bool = True
    #: True for policies that never preempt — lets the engine skip the
    #: per-node sweep entirely without type-checking the policy.
    is_noop: bool = False
    #: Human-readable policy name used in reports.
    name: str = "base"

    def attach(self, runtime) -> None:
        """Called once with the engine's
        :class:`~repro.sim.state.SimRuntime` before the run starts; the
        default does nothing."""

    @abc.abstractmethod
    def select_preemptions_from_core(
        self, runtime, node
    ) -> Sequence[PreemptionDecision]:
        """Decide this epoch's preemptions for *node* (a
        :class:`~repro.sim.executor.NodeRuntime` with a non-empty queue
        and running set) at ``runtime.now``.

        Decisions are applied in order; each (preempting, victim) pair is
        re-validated by the engine against live state (both tasks still
        present, victim under the preemption cap, freed capacity
        sufficient), so a policy may be optimistic.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class NullPreemption(PreemptionPolicy):
    """No preemption at all — used to isolate the scheduling comparison of
    §V-A, where makespan differences must come from placement alone."""

    is_noop = True
    name = "none"

    def select_preemptions_from_core(
        self, runtime, node
    ) -> Sequence[PreemptionDecision]:
        return ()


class ClaimPolicy(PreemptionPolicy):
    """The baselines' one claim loop over a node's gathered signals.

    A subclass supplies :meth:`victim_key` and :meth:`claimant_key` (each
    ending in the task id, for determinism) and may narrow the pools
    (:meth:`is_victim`, :meth:`is_claimant`) or gate each pairing
    (:meth:`accepts`).  Every hook takes the node's
    :class:`~repro.sim.views.NodeSignals` and positions into its columns.
    """

    @abc.abstractmethod
    def victim_key(self, s: NodeSignals, i: int) -> tuple:
        """Eviction preference among running tasks, cheapest first."""

    @abc.abstractmethod
    def claimant_key(self, s: NodeSignals, i: int) -> tuple:
        """Claim order among queued tasks, first claimant first."""

    def is_victim(self, s: NodeSignals, i: int) -> bool:
        """Whether preemptable running task *i* may be evicted at all."""
        return True

    def is_claimant(self, s: NodeSignals, i: int) -> bool:
        """Whether queued task *i* may claim at all."""
        return True

    def accepts(self, s: NodeSignals, claimant: int, victim: int) -> bool:
        """Whether *claimant* may evict *victim*."""
        return True

    def select_preemptions_from_core(
        self, runtime, node
    ) -> Sequence[PreemptionDecision]:
        return self.claim(runtime.views.build(node, runtime.now))

    def claim(self, s: NodeSignals) -> list[PreemptionDecision]:
        """The claim loop over one node's signals (pure)."""
        victims = sorted(
            (
                i
                for i in range(s.split)
                if s.preemptable[i] and self.is_victim(s, i)
            ),
            key=lambda i: self.victim_key(s, i),
        )
        claimants = sorted(
            (i for i in range(s.split, len(s.ids)) if self.is_claimant(s, i)),
            key=lambda i: self.claimant_key(s, i),
        )
        return greedy_claim(
            s.ids, claimants, victims, lambda w, v: self.accepts(s, w, v)
        )
