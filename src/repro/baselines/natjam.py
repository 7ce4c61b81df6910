"""Natjam preemption baseline [Cho et al., SoCC'13], per §V.

Natjam supports dual-priority clusters: *production* jobs preempt
*research* jobs, never the reverse.  When a production task arrives and
resources are tight, Natjam evicts a research task chosen by a three-level
rule — (1) the one using the most resources, (2) ties by the maximum job
deadline (most slack), (3) ties by the shortest remaining time — and
checkpoints it so it resumes where it left off.

In this workload model a job with ``weight >= 1`` is production (the
workload builder flags alternating jobs).  Because only
production-over-research preemptions are allowed, Natjam preempts less
than Amoeba/SRPT (Fig. 6d) but, being dependency-unaware, still produces
disorders (Fig. 6a).
"""

from __future__ import annotations

from ..config import DSPConfig
from ..sim.policy import ClaimPolicy
from ..sim.views import NodeSignals

__all__ = ["NatjamPreemption", "PRODUCTION_WEIGHT"]

#: Jobs at or above this weight are treated as production class.
PRODUCTION_WEIGHT = 1.0


class NatjamPreemption(ClaimPolicy):
    """Production-evicts-research preemption with checkpointing.

    Claims are unconditional (no :meth:`accepts` gate): class beats every
    runtime signal in Natjam's model.
    """

    respects_dependencies = False
    uses_checkpointing = True
    name = "Natjam"

    def __init__(self, config: DSPConfig | None = None):
        self._config = config or DSPConfig()

    @staticmethod
    def is_production(s: NodeSignals, i: int) -> bool:
        """Whether task *i* belongs to a production-class job."""
        return s.weight[i] >= PRODUCTION_WEIGHT

    def is_victim(self, s: NodeSignals, i: int) -> bool:
        """Only research tasks are evicted."""
        return not self.is_production(s, i)

    def is_claimant(self, s: NodeSignals, i: int) -> bool:
        """Only production tasks claim."""
        return self.is_production(s, i)

    def victim_key(self, s: NodeSignals, i: int) -> tuple[float, float, float, str]:
        """Natjam's three-level victim ordering: most resources, then
        maximum job deadline, then shortest remaining time."""
        return (-s.footprint[i], -s.deadline[i], s.remaining[i], s.ids[i])

    def claimant_key(self, s: NodeSignals, i: int) -> tuple[float, float, str]:
        """Earliest-deadline production work claims first."""
        return (s.deadline[i], s.remaining[i], s.ids[i])
