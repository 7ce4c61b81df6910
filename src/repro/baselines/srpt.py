"""SRPT preemption baseline [Balasubramanian et al., JSSPP'13], per §V.

Prioritizes tasks by a linear combination of waiting time and (inverse)
remaining time — short-remaining tasks run first, with the waiting term
preventing outright starvation:

.. math::  P = \\alpha \\cdot t^w + \\beta / t^{rem}

with the paper's settings α = 0.5, β = 1.  Two properties the paper calls
out and that drive its measured behaviour:

* SRPT considers **every** task in the waiting queue for preemption each
  round (no δ window, no dependency or overhead gating) — the most
  preemptions of any compared method;
* SRPT uses **no checkpointing**: a preempted task restarts from scratch,
  so tasks live longer, get preempted again, and throughput suffers.
"""

from __future__ import annotations

from ..config import DSPConfig
from ..sim.policy import ClaimPolicy
from ..sim.views import NodeSignals

__all__ = ["SRPTPreemption"]

#: Floor on remaining time before taking the reciprocal.
_REMAINING_FLOOR = 1e-6


class SRPTPreemption(ClaimPolicy):
    """Waiting-plus-shortest-remaining preemption, no checkpoint, no
    dependency awareness."""

    respects_dependencies = False
    uses_checkpointing = False
    name = "SRPT"

    def __init__(self, config: DSPConfig | None = None):
        self._config = config or DSPConfig()

    def priority(self, waiting: float, remaining: float) -> float:
        """α·wait + β/remaining (higher = runs sooner)."""
        return (
            self._config.srpt_alpha * waiting
            + self._config.srpt_beta / max(remaining, _REMAINING_FLOOR)
        )

    def _priority_of(self, s: NodeSignals, i: int) -> float:
        return self.priority(s.waiting[i], s.remaining[i])

    def victim_key(self, s: NodeSignals, i: int) -> tuple[float, str]:
        """Lowest priority evicted first."""
        return (self._priority_of(s, i), s.ids[i])

    def claimant_key(self, s: NodeSignals, i: int) -> tuple[float, str]:
        """Highest priority claims first; every queued task may claim."""
        return (-self._priority_of(s, i), s.ids[i])

    def accepts(self, s: NodeSignals, claimant: int, victim: int) -> bool:
        return self._priority_of(s, claimant) > self._priority_of(s, victim)
