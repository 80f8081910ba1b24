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

The host runs that algorithm once for every multiplication of a batch:
:func:`multiply_lanes` packs all operand pairs into byte-aligned lanes
of one Python integer, and each of the ``m`` iterations is a handful of
whole-integer operations (a per-lane partial-product mask, one
XOR/majority carry-save layer, a masked shift) — the rows' lock-step,
extended across every row and pass of a batch.

Write wear: each iteration rewrites the two accumulator cells of every
partition once and its two hot scratch cells up to four times (init +
switch, twice), so the hottest cell receives ``4m`` writes per
multiplication — matching the 256/512/1,024/1,536 max-writes column the
paper reports for [9] at n = 64..384.  The increments are
data-independent, so :meth:`RowMultiplier.charge` books any number of
multiplications, with or without the wear-leveling swap after each, in
closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence

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


def multiply_lanes(
    width: int, lhs: Sequence[int], rhs: Sequence[int]
) -> List[int]:
    """Run the carry-save multiplier on every lane ``lhs[i] * rhs[i]``.

    Each lane is a ``width``-bit operand pair in its own byte-aligned
    field of at least ``width + 1`` bits, so the sum, carry and final
    ``sum + carry`` of one lane never reach the next.  Iteration ``t``
    selects each lane's partial product with the mask ``(bit << m) -
    bit`` of its multiplier bit ``t``, adds it through one XOR/majority
    carry-save layer, retires the low bit of the sum as product bit
    ``t`` and shifts the sum right within its field; the high half is
    the final ``sum + carry``.  Returns the ``2 * width``-bit products.
    """
    m = width
    if len(lhs) != len(rhs):
        raise DesignError("multiply_lanes needs one rhs per lhs operand")
    if not lhs:
        return []
    if min(lhs) < 0 or min(rhs) < 0 or max(lhs) >> m or max(rhs) >> m:
        raise DesignError(f"operands must be {m}-bit non-negative integers")
    field_bytes = m // 8 + 1
    lanes = len(lhs)
    size = lanes * field_bytes

    def pack(values: Sequence[int]) -> int:
        return int.from_bytes(
            b"".join(v.to_bytes(field_bytes, "little") for v in values),
            "little",
        )

    a = pack(lhs)
    b = pack(rhs)
    ones = int.from_bytes(
        (b"\x01" + bytes(field_bytes - 1)) * lanes, "little"
    )
    field_mask = ones * ((1 << m) - 1)
    sum_acc = carry_acc = low = 0
    for t in range(m):
        bit = (b >> t) & ones
        partial = a & ((bit << m) - bit)
        # One carry-save adder layer across all partitions of all lanes.
        half = sum_acc ^ carry_acc
        new_sum = half ^ partial
        carry_acc = (sum_acc & carry_acc) | (half & partial)
        low |= (new_sum & ones) << t
        sum_acc = (new_sum >> 1) & field_mask
    # Final carry propagation of the residual upper half, overlapped
    # with the epilogue cycles.
    high = (sum_acc + carry_acc).to_bytes(size, "little")
    low_bytes = low.to_bytes(size, "little")
    products = []
    for start in range(0, size, field_bytes):
        stop = start + field_bytes
        top = int.from_bytes(high[start:stop], "little")
        if top >> m:
            raise AssertionError(
                "row multiplier produced an overflowing product"
            )
        products.append(
            int.from_bytes(low_bytes[start:stop], "little") | (top << m)
        )
    return products


@lru_cache(maxsize=256)
def _wear_step(width: int, passes: int, rotate: bool):
    """Flat per-cell write increments of *passes* multiplications.

    Returns ``(increments, swap)``: *swap* is the cell permutation that
    applies an odd number of hot/cold swaps (``None`` if the pairs end
    where they started), and *increments* are indexed after it.
    """
    m = width
    hot = 4 * m * ((passes + 1) // 2 if rotate else passes)
    cold = 4 * m * (passes // 2) if rotate else 0
    swap = None
    if rotate and passes % 2:
        hot, cold = cold, hot
        order = np.arange(CELLS_PER_PARTITION)
        order[[4, 5, 8, 9]] = [8, 9, 4, 5]
        swap = (np.arange(m)[:, None] * CELLS_PER_PARTITION + order).ravel()
    per_partition = np.array(
        [0, 0, m * passes, m * passes, hot, hot,
         2 * m * passes, 2 * m * passes, cold, cold, 0, 0],
        dtype=np.int64,
    )
    increments = np.tile(per_partition, m)
    for cached in (increments, swap):
        if cached is not None:
            cached.flags.writeable = False
    return increments, swap


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
        product = multiply_lanes(self.spec.width, (a,), (b,))[0]
        self.charge(1, rotate=False)
        if clock is not None:
            clock.tick(self.spec.latency_cc, category="rowmul")
        return product

    def charge(self, passes: int, rotate: bool) -> None:
        """Charge *passes* multiplications' write wear to the row image.

        Per partition and iteration: the sum and carry cells are
        rewritten once each, the two cool scratch cells twice, and the
        two hot scratch cells (4, 5) absorb four write pulses each
        (initialise + conditional switch, twice).  With *rotate* the
        row swaps its hot pair with the cold pair (8, 9) after every
        multiplication — wear-leveling (paper Sec. IV-B) that makes the
        ``4m`` hot spot alternate between two physical locations.  The
        pair that is hot now therefore takes ``ceil(passes / 2)``
        multiplications, the cold pair ``floor(passes / 2)``, and an
        odd count leaves them swapped.
        """
        increments, swap = _wear_step(self.spec.width, passes, rotate)
        if swap is None:
            self.cell_writes += increments
        else:
            np.add(self.cell_writes[swap], increments, out=self.cell_writes)
        self.multiplications += passes

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
