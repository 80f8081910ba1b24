"""Single-row bit-serial multiplier in the style of MultPIM [9].

The paper's multiplication stage (Sec. IV-D) adopts the row-parallel
multiplier of Leitersdorf et al. [9]: each small multiplication runs
entirely inside one memory row that is divided into partitions, so nine
multiplications proceed in parallel across nine rows.  The paper
additionally shares memory between input and output operands, reducing
the per-row footprint from MultPIM's ``14m - 7`` cells to ``12m`` cells
for ``m``-bit operands.

The functional model is a carry-save serial-parallel multiplier: each
of the ``m`` iterations ANDs the current multiplier bit into a
carry-save accumulator through one full-adder layer evaluated in every
partition simultaneously (14 NOR-level steps), plus a log-depth
partition-communication phase of ``ceil(log2 m)`` cycles that
broadcasts the multiplier bit and forwards carries between partitions.
Three final cycles merge and release the product.  Total latency:

    ``m * (ceil(log2 m) + 14) + 3``  clock cycles,

which is the closed form the paper uses for its multiplication stage
(with ``m = n/4 + 2``) and which also reproduces [9]'s scaled-up
throughput numbers in Table I.

Write wear: each iteration rewrites the two accumulator cells of every
partition once and its two hot scratch cells up to four times (init +
switch, twice), so the hottest cell receives ``4m`` writes per
multiplication — matching the 256/512/1,024/1,536 max-writes column the
paper reports for [9] at n = 64..384.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arith.bitops import ceil_log2
from repro.sim.clock import Clock
from repro.sim.exceptions import DesignError
from repro.sim.stats import RunStats

#: Cells per partition in the area-optimised row layout (paper Sec. IV-D):
#: multiplicand bit, multiplier bit, sum, carry, and eight scratch cells
#: (the product overwrites the operand cells, saving 2 cells/partition
#: over MultPIM's standalone layout).
CELLS_PER_PARTITION = 12

#: NOR-level steps of the per-iteration partition-parallel full adder.
STEPS_PER_ITERATION = 14

#: Cycles of the final merge/readout phase.
FINAL_CYCLES = 3


def latency_cc(width: int) -> int:
    """Closed-form row-multiplier latency: ``m(ceil(log2 m) + 14) + 3``."""
    if width < 1:
        raise DesignError("multiplier width must be at least 1 bit")
    return width * (ceil_log2(max(width, 2)) + STEPS_PER_ITERATION) + FINAL_CYCLES


def area_cells(width: int) -> int:
    """Row footprint of one multiplier: ``12 m`` cells."""
    if width < 1:
        raise DesignError("multiplier width must be at least 1 bit")
    return CELLS_PER_PARTITION * width


def max_writes_per_cell(width: int) -> int:
    """Writes to the hottest cell during one multiplication: ``4 m``."""
    return 4 * width


@dataclass(frozen=True)
class RowMultiplierSpec:
    """Static cost/footprint description of one row multiplier."""

    width: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise DesignError("multiplier width must be at least 1 bit")

    @property
    def cells(self) -> int:
        return area_cells(self.width)

    @property
    def latency_cc(self) -> int:
        return latency_cc(self.width)

    @property
    def max_writes_per_cell(self) -> int:
        return max_writes_per_cell(self.width)

    @property
    def product_bits(self) -> int:
        return 2 * self.width


class RowMultiplier:
    """Executable model of one single-row multiplier.

    The multiplier is *functionally* exact (carry-save serial-parallel
    algorithm, verified bit-for-bit against integer multiplication) and
    *temporally* exact at phase granularity: every iteration charges
    ``ceil(log2 m) + 14`` cycles and the epilogue charges 3, matching
    the published closed form.  Per-cell write wear is charged to a
    ``12 m``-cell row image so endurance analyses see realistic
    hot spots.
    """

    def __init__(self, spec: RowMultiplierSpec):
        self.spec = spec
        self.cell_writes = np.zeros(spec.cells, dtype=np.int64)
        self.multiplications = 0

    # ------------------------------------------------------------------
    def multiply(self, a: int, b: int, clock: Clock = None) -> int:
        """Multiply two ``width``-bit operands inside the row.

        Returns the ``2*width``-bit product.  When *clock* is given it
        advances by the row's full latency (callers modelling parallel
        rows advance a shared clock once for the slowest row instead).
        """
        m = self.spec.width
        if a >> m or b >> m or a < 0 or b < 0:
            raise DesignError(f"operands must be {m}-bit non-negative integers")

        sum_acc = 0
        carry_acc = 0
        product = 0
        for t in range(m):
            partial = a if (b >> t) & 1 else 0
            # One carry-save adder layer across all partitions.
            new_sum = sum_acc ^ carry_acc ^ partial
            new_carry = (
                (sum_acc & carry_acc) | (sum_acc & partial) | (carry_acc & partial)
            ) << 1
            product |= (new_sum & 1) << t
            sum_acc = new_sum >> 1
            carry_acc = new_carry >> 1
        self._charge_multiplication_writes()
        # Final carry propagation of the residual upper half, overlapped
        # with the epilogue cycles.
        product |= (sum_acc + carry_acc) << m
        if product >> (2 * m):
            raise AssertionError("row multiplier produced an overflowing product")

        if clock is not None:
            clock.tick(self.spec.latency_cc, category="rowmul")
        self.multiplications += 1
        return product

    def _charge_multiplication_writes(self) -> None:
        """Charge one multiplication's write wear to the row image.

        Per partition and iteration: the sum and carry cells are
        rewritten once each, and the two hot scratch cells absorb four
        write pulses each (initialise + conditional switch, twice).
        The per-iteration increments are data-independent, so all ``m``
        iterations are charged in one vectorised step.
        """
        m = self.spec.width
        cells = self.cell_writes.reshape(m, CELLS_PER_PARTITION)
        cells[:, 2] += m       # sum accumulator
        cells[:, 3] += m       # carry accumulator
        cells[:, 4] += 4 * m   # hot scratch A
        cells[:, 5] += 4 * m   # hot scratch B
        cells[:, 6] += 2 * m   # cool scratch
        cells[:, 7] += 2 * m   # cool scratch

    def rotate_hot_cells(self) -> None:
        """Swap the hot scratch columns (4, 5) with the cold pair (8, 9).

        Wear-leveling for the row (paper Sec. IV-B): relabeling the
        accumulated per-partition write image makes the 4x hot cells
        alternate between two physical locations on successive
        multiplications, halving the long-run maximum.
        """
        cells = self.cell_writes.reshape(self.spec.width, CELLS_PER_PARTITION)
        cells[:, [4, 5, 8, 9]] = cells[:, [8, 9, 4, 5]]

    # ------------------------------------------------------------------
    def stats(self) -> RunStats:
        """Aggregate run statistics for all multiplications so far."""
        return RunStats(
            cycles=self.multiplications * self.spec.latency_cc,
            cell_writes=int(self.cell_writes.sum()),
        )

    def max_writes(self) -> int:
        """Hottest-cell write count accumulated so far."""
        return int(self.cell_writes.max()) if self.cell_writes.size else 0
