"""Aggregate statistics for simulated CIM executions.

The paper reports four headline metrics per design point: throughput
(multiplications per million clock cycles), area (memory cells),
area-time product (cells / throughput) and the maximum number of write
operations applied to any single cell.  :class:`RunStats` collects the
raw counters these are computed from, and :class:`DesignMetrics` is the
value type used across the evaluation harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class RunStats:
    """Raw operation counters from one simulated execution."""

    cycles: int = 0
    nor_ops: int = 0
    not_ops: int = 0
    init_ops: int = 0
    read_ops: int = 0
    write_ops: int = 0
    shift_ops: int = 0
    cell_writes: int = 0
    #: NaN on the word backend's per-lane stats, which keep no per-lane
    #: energy (the batch total is on its array).
    energy_fj: float = 0.0
    op_counts: Dict[str, int] = field(default_factory=dict)
    #: READ results (name -> value) produced by the run that built these
    #: stats.  Per-run: never carries names from an earlier execute().
    results: Dict[str, int] = field(default_factory=dict)

    def merge(self, other: "RunStats") -> "RunStats":
        """Return a new :class:`RunStats` summing *self* and *other*.

        Result names collide last-wins (*other* shadows *self*), the
        same way a later READ to an existing name would."""
        merged = RunStats(
            cycles=self.cycles + other.cycles,
            nor_ops=self.nor_ops + other.nor_ops,
            not_ops=self.not_ops + other.not_ops,
            init_ops=self.init_ops + other.init_ops,
            read_ops=self.read_ops + other.read_ops,
            write_ops=self.write_ops + other.write_ops,
            shift_ops=self.shift_ops + other.shift_ops,
            cell_writes=self.cell_writes + other.cell_writes,
            energy_fj=self.energy_fj + other.energy_fj,
            op_counts=dict(self.op_counts),
            results={**self.results, **other.results},
        )
        for key, value in other.op_counts.items():
            merged.op_counts[key] = merged.op_counts.get(key, 0) + value
        return merged


@dataclass(frozen=True)
class DesignMetrics:
    """Headline metrics for one design point, as reported in Table I.

    Attributes
    ----------
    name:
        Human-readable design identifier (e.g. ``"ours"``, ``"multpim"``).
    n_bits:
        Operand width of the multiplication in bits.
    latency_cc:
        Latency of a single multiplication in clock cycles.
    area_cells:
        Number of memory cells (memristors) occupied by the design.
    throughput_per_mcc:
        Completed multiplications per 10^6 clock cycles.  For pipelined
        designs this exceeds ``1e6 / latency_cc``.
    max_writes_per_cell:
        Maximum number of write operations any single cell receives
        during one multiplication (after wear-leveling, if applicable).
    """

    name: str
    n_bits: int
    latency_cc: int
    area_cells: int
    throughput_per_mcc: float
    max_writes_per_cell: Optional[int] = None

    @property
    def atp(self) -> float:
        """Area-time product: cells divided by throughput (paper's ATP)."""
        if self.throughput_per_mcc <= 0:
            raise ValueError("throughput must be positive to compute ATP")
        return self.area_cells / self.throughput_per_mcc

    def speedup_over(self, other: "DesignMetrics") -> float:
        """Throughput ratio of *self* relative to *other*."""
        return self.throughput_per_mcc / other.throughput_per_mcc

    def atp_improvement_over(self, other: "DesignMetrics") -> float:
        """ATP ratio *other*/*self* (>1 means *self* is better)."""
        return other.atp / self.atp
