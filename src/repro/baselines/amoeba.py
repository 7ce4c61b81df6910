"""Amoeba preemption baseline [Ananthanarayanan et al., SoCC'12], per §V.

Amoeba provides elasticity by preempting the running tasks that *consume
the most resources* — equivalently (per Natjam's reading quoted in §V)
those with the longest remaining time — in favour of waiting tasks with
shorter remaining time, raising overall throughput.  Tasks are
checkpointed, so a preempted task resumes from where it left off.

Per the paper's comparison: Amoeba ignores waiting time (no starvation
relief), ignores deadlines, ignores dependencies, and allows every queued
task to preempt — hence its long job waiting times and high preemption
counts relative to DSP.
"""

from __future__ import annotations

from ..config import DSPConfig
from ..sim.policy import ClaimPolicy
from ..sim.views import NodeSignals

__all__ = ["AmoebaPreemption"]


class AmoebaPreemption(ClaimPolicy):
    """Most-resources eviction with checkpointing; dependency-unaware."""

    respects_dependencies = False
    uses_checkpointing = True
    name = "Amoeba"

    def __init__(self, config: DSPConfig | None = None):
        self._config = config or DSPConfig()

    def victim_key(self, s: NodeSignals, i: int) -> tuple[float, float, str]:
        """Victim preference: most resources first, then longest remaining."""
        return (-s.footprint[i], -s.remaining[i], s.ids[i])

    def claimant_key(self, s: NodeSignals, i: int) -> tuple[float, str]:
        """Waiting tasks by shortest remaining time (the throughput move)."""
        return (s.remaining[i], s.ids[i])

    def accepts(self, s: NodeSignals, claimant: int, victim: int) -> bool:
        return s.remaining[claimant] < s.remaining[victim]
