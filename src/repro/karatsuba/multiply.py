"""Multiplication stage of the CIM Karatsuba multiplier (Sec. IV-D).

Nine single-row multipliers (Sec. IV-D adopts the MultPIM approach [9]
with shared input/output memory) run in parallel, one memory row each.
The widest multiplication computes ``c_mm`` from ``n/4 + 2``-bit
operands, so every row is provisioned for that width:

* area: ``9 * 12 * (n/4 + 2)`` cells;
* latency: ``(n/4+2) * (ceil(log2(n/4+2)) + 14) + 3`` cc (all rows
  finish together because the controller schedules them in lock-step).

Wear-leveling alternates each row's hot scratch cells between two
partition-internal locations on successive multiplications, halving
the hottest cell's write accumulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.arith import rowmul
from repro.karatsuba.stage import RowStage
from repro.karatsuba.unroll import UnrolledPlan, build_plan
from repro.reliability.residue import DEFAULT_RESIDUE_BITS
from repro.sim.exceptions import DesignError

#: Parallel multiplier rows in the L = 2 design.
NUM_ROWS = 9


def operand_width(n_bits: int) -> int:
    """Widest partial-multiplication operand: ``n/4 + 2`` bits."""
    _check_width(n_bits)
    return n_bits // 4 + 2


def area_cells(n_bits: int) -> int:
    """Stage footprint: ``9 * 12 * (n/4 + 2)`` cells."""
    return NUM_ROWS * rowmul.area_cells(operand_width(n_bits))


def latency_cc(n_bits: int) -> int:
    """Stage latency, set by the widest row: ``m(ceil(log2 m)+14)+3``."""
    return rowmul.latency_cc(operand_width(n_bits))


def _check_width(n_bits: int) -> None:
    if n_bits < 8 or n_bits % 4:
        raise DesignError(
            f"the L=2 design needs n divisible by 4 and >= 8, got {n_bits}"
        )


@dataclass(frozen=True)
class MultiplicationResult:
    """Outputs of one multiplication pass."""

    products: Dict[str, int]
    cycles: int


class MultiplicationStage(RowStage):
    """Cycle-accurate multiplication subarray (nine parallel rows)."""

    def __init__(
        self,
        n_bits: int,
        wear_leveling: bool = True,
        residue_bits: int = DEFAULT_RESIDUE_BITS,
    ):
        _check_width(n_bits)
        self.n_bits = n_bits
        self.plan: UnrolledPlan = build_plan(n_bits, 2)
        super().__init__(
            "multiply",
            operand_width(n_bits),
            [(s.out, s.lhs, s.rhs) for s in self.plan.multiplications],
            wear_leveling=wear_leveling,
            residue_bits=residue_bits,
        )
        if len(self.rows) != NUM_ROWS:
            raise AssertionError("unexpected L=2 multiplication count")

    # ------------------------------------------------------------------
    def process(self, operands: Dict[str, int]) -> MultiplicationResult:
        """Run the nine partial multiplications on named chunk values.

        *operands* must contain every name referenced by the plan
        (the precompute stage's output mapping is exactly that).
        """
        start = self.clock.cycles
        products = self.multiply(operands)
        # All nine rows operate in lock-step SIMD fashion; the stage
        # advances by one row latency, not nine.
        self.clock.tick(latency_cc(self.n_bits), category="rowmul")
        return MultiplicationResult(
            products=products, cycles=self.clock.cycles - start
        )

    def process_batch(
        self, operands_list: List[Dict[str, int]]
    ) -> List[MultiplicationResult]:
        """Run B multiplication passes, advancing the clock once.

        The nine rows already run in lock-step within a pass; batching
        extends the lock-step across operand sets, so the stage clock
        advances by a single row latency for the whole batch.  Products
        and wear accumulation are identical to calling :meth:`process`
        per job: all 9·B products come from one lane-parallel sweep,
        and each row then charges its B passes, hot-cell rotations
        included, in closed form.
        """
        cycles = self.latency_cc()
        return [
            MultiplicationResult(products=products, cycles=cycles)
            for products in self.multiply_batch(operands_list)
        ]
