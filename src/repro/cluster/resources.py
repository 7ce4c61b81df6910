"""Multi-dimensional resource vectors for nodes and tasks.

The paper's cluster model is multi-resource: each node has CPU and memory
sizes (which determine its processing rate, Eq. 1) plus disk and network
bandwidth capacities; each task has a peak demand in the same dimensions
(§V sets disk = 0.02 MB and bandwidth = 0.02 MB/s per task, with CPU and
memory drawn from the Google trace).  Tetris packs tasks against these
vectors via an alignment score, so the vector type supports the dot
products and element-wise comparisons that packing needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

__all__ = ["ResourceVector", "ZERO_RESOURCES"]


@dataclass(frozen=True, slots=True)
class ResourceVector:
    """An (cpu, memory, disk, bandwidth) demand or capacity vector.

    Units follow the paper's experiment section: *cpu* in cores (or
    normalized CPU size), *mem* in GB, *disk* in MB, *bandwidth* in MB/s.
    Instances are immutable; arithmetic returns new vectors.
    """

    cpu: float = 0.0
    mem: float = 0.0
    disk: float = 0.0
    bandwidth: float = 0.0

    def __post_init__(self) -> None:
        if self.cpu < 0 or self.mem < 0 or self.disk < 0 or self.bandwidth < 0:
            for dim in ("cpu", "mem", "disk", "bandwidth"):
                if getattr(self, dim) < 0:
                    raise ValueError(
                        f"resource {dim} must be >= 0, got {getattr(self, dim)!r}"
                    )

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.cpu + other.cpu,
            self.mem + other.mem,
            self.disk + other.disk,
            self.bandwidth + other.bandwidth,
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            max(0.0, self.cpu - other.cpu),
            max(0.0, self.mem - other.mem),
            max(0.0, self.disk - other.disk),
            max(0.0, self.bandwidth - other.bandwidth),
        )

    def __mul__(self, scalar: float) -> "ResourceVector":
        if scalar < 0:
            raise ValueError("cannot scale a ResourceVector by a negative factor")
        return ResourceVector(
            self.cpu * scalar, self.mem * scalar, self.disk * scalar, self.bandwidth * scalar
        )

    __rmul__ = __mul__

    # -- comparisons -----------------------------------------------------
    def fits_within(self, capacity: "ResourceVector", tol: float = 1e-9) -> bool:
        """True when every dimension of *self* is <= the same dimension of
        *capacity* (within *tol*) — i.e. a task with this demand can run on
        a node with that much free capacity."""
        return (
            self.cpu <= capacity.cpu + tol
            and self.mem <= capacity.mem + tol
            and self.disk <= capacity.disk + tol
            and self.bandwidth <= capacity.bandwidth + tol
        )

    def dot(self, other: "ResourceVector") -> float:
        """Dot product across dimensions — Tetris' alignment score is the
        dot product of a task's peak demand with a machine's free vector."""
        return (
            self.cpu * other.cpu
            + self.mem * other.mem
            + self.disk * other.disk
            + self.bandwidth * other.bandwidth
        )

    def norm1(self) -> float:
        """Sum over dimensions; a scalar 'total resource footprint' used by
        Amoeba/Natjam-style most-resources victim selection."""
        return self.cpu + self.mem + self.disk + self.bandwidth

    def is_zero(self, tol: float = 1e-12) -> bool:
        """True when all dimensions are (numerically) zero."""
        return all(abs(v) <= tol for v in self)

    def __iter__(self) -> Iterator[float]:
        yield self.cpu
        yield self.mem
        yield self.disk
        yield self.bandwidth

    def as_tuple(self) -> tuple[float, float, float, float]:
        """The vector as a plain tuple (cpu, mem, disk, bandwidth)."""
        return (self.cpu, self.mem, self.disk, self.bandwidth)


#: The all-zero vector — the free capacity of a fully loaded node.
ZERO_RESOURCES = ResourceVector()
