"""Schoolbook (single-row, full-width) multiplier design point.

The paper's Sec. III baseline: no splitting at all, one MultPIM-style
row multiplier (:mod:`repro.arith.rowmul`) spanning the full ``n``-bit
operands.  Latency ``n * (ceil(log2 n) + 14) + 3`` grows superlinearly,
which is why the paper discards it *at its design point* (n >= 64) —
but below the Karatsuba pipeline's fill overhead the single row is
simply faster (291 cc vs ~790 cc at n = 16), and the portfolio tuner
measures exactly that crossover instead of assuming it away.

The controller shares the
:class:`repro.karatsuba.controller.StagedController` surface so the
bank dispatcher, degrade ladder and pipeline timing algebra drive it
unchanged.  The three pipeline slots are ``operands`` (2 cc: write the
two operand cell groups), ``multiply`` (the row latency) and ``store``
(1 cc: release the product) — the row multiplier dominates, so the
design is effectively unpipelined.  No slot owns a crossbar unit, so
the optimizer and transient-fault hook have nothing to act on (the
fault surface is the numeric row model), which the reliability
accessors report honestly (no-op repair, empty optimizer stats).
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.arith import rowmul
from repro.karatsuba.controller import JobRecord, StagedController
from repro.karatsuba.stage import RowStage, Stage
from repro.reliability.residue import DEFAULT_RESIDUE_BITS
from repro.sim.exceptions import DesignError

#: Smallest supported width (operand staging needs at least one
#: partition per operand bit group; matches the service floor).
MIN_BITS = 4

#: Cycles charged for staging the two operand cell groups / releasing
#: the product (periphery writes, same convention as the pipeline
#: stages' I/O cycles).
OPERAND_CYCLES = 2
STORE_CYCLES = 1


def latency_cc(n_bits: int) -> int:
    """Row latency at full width: ``n(ceil(log2 n) + 14) + 3``."""
    _check_width(n_bits)
    return rowmul.latency_cc(n_bits)


def area_cells(n_bits: int) -> int:
    """Single row: ``12n`` cells."""
    _check_width(n_bits)
    return rowmul.area_cells(n_bits)


def _check_width(n_bits: int) -> None:
    if n_bits < MIN_BITS:
        raise DesignError(
            f"the schoolbook design needs n >= {MIN_BITS}, got {n_bits}"
        )


class _Transfer(Stage):
    """A slot that only moves words through the periphery."""

    def __init__(self, cycles: int):
        self.cycles = cycles

    def latency_cc(self) -> int:
        return self.cycles


class SchoolbookController(StagedController):
    """Drives multiplications through the single full-width row."""

    def __init__(
        self,
        n_bits: int,
        wear_leveling: bool = True,
        device=None,
        spare_rows: int = 2,
        residue_bits: int = DEFAULT_RESIDUE_BITS,
        optimize: bool = False,
        backend: object = "bitplane",
    ):
        _check_width(n_bits)
        #: The full-width row: one step multiplying the operands.
        self.row = RowStage(
            "schoolbook",
            n_bits,
            [("product", "a", "b")],
            wear_leveling=wear_leveling,
            residue_bits=residue_bits,
        )
        super().__init__(
            n_bits,
            optimize,
            backend,
            (
                ("operands", _Transfer(OPERAND_CYCLES)),
                ("multiply", self.row),
                ("store", _Transfer(STORE_CYCLES)),
            ),
        )

    # ------------------------------------------------------------------
    def run_jobs_batch(
        self, pairs: Iterable[Tuple[int, int]]
    ) -> List[JobRecord]:
        pairs = self._check_operands(pairs)
        if not pairs:
            return []
        mul_cc = self.row.latency_cc()
        with self._stage_span("multiply", self.row, len(pairs)):
            products = [
                named["product"]
                for named in self.row.multiply_passes(
                    [{"a": a, "b": b} for a, b in pairs]
                )
            ]
            # Jobs run back to back in the single row; the batch
            # advances the clock once per job (no lane parallelism to
            # exploit — the row is the whole datapath).
            self.row.clock.tick(
                len(pairs) * (OPERAND_CYCLES + mul_cc + STORE_CYCLES),
                category="rowmul",
            )
        self.jobs += len(pairs)
        return [
            JobRecord(
                a=a,
                b=b,
                product=product,
                precompute_cycles=OPERAND_CYCLES,
                multiply_cycles=mul_cc,
                postcompute_cycles=STORE_CYCLES,
            )
            for (a, b), product in zip(pairs, products)
        ]
