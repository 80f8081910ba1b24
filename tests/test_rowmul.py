"""Tests for the MultPIM-style single-row multiplier (Sec. IV-D).

The module-level ``reference_*`` functions and :func:`sequential_pass`
are the oracle: the per-row carry-save loop and per-pass wear updates
that :func:`repro.arith.rowmul.multiply_lanes` and
:meth:`RowMultiplier.charge` compute in one sweep and in closed form.
``benchmarks/bench_batched_pipeline.py`` times the stage against them.
"""

from __future__ import annotations

import random
from typing import Dict

import numpy as np
import pytest

from repro.arith import rowmul
from repro.arith.rowmul import (
    CELLS_PER_PARTITION,
    RowMultiplier,
    RowMultiplierSpec,
)
from repro.karatsuba.multiply import MultiplicationStage
from repro.karatsuba.stage import RowStage
from repro.karatsuba.unroll import build_plan
from repro.portfolio.schoolbook import SchoolbookController
from repro.portfolio.toom3 import PointwiseStage
from repro.sim.clock import Clock
from repro.sim.exceptions import DesignError, StageSelfCheckError


# ----------------------------------------------------------------------
# Oracle: one row, one multiplication, one pass at a time
# ----------------------------------------------------------------------
def reference_multiply(width: int, a: int, b: int) -> int:
    """The single-lane carry-save serial-parallel loop."""
    if a >> width or b >> width or a < 0 or b < 0:
        raise DesignError(f"operands must be {width}-bit non-negative")
    sum_acc = carry_acc = product = 0
    for t in range(width):
        partial = a if (b >> t) & 1 else 0
        new_sum = sum_acc ^ carry_acc ^ partial
        new_carry = (
            (sum_acc & carry_acc) | (sum_acc & partial) | (carry_acc & partial)
        ) << 1
        product |= (new_sum & 1) << t
        sum_acc = new_sum >> 1
        carry_acc = new_carry >> 1
    return product | ((sum_acc + carry_acc) << width)


def reference_charge(row: RowMultiplier) -> None:
    """One multiplication's wear, column by column."""
    m = row.spec.width
    cells = row.cell_writes.reshape(m, CELLS_PER_PARTITION)
    cells[:, 2] += m       # sum accumulator
    cells[:, 3] += m       # carry accumulator
    cells[:, 4] += 4 * m   # hot scratch A
    cells[:, 5] += 4 * m   # hot scratch B
    cells[:, 6] += 2 * m   # cool scratch
    cells[:, 7] += 2 * m   # cool scratch
    row.multiplications += 1


def reference_rotate(row: RowMultiplier) -> None:
    """Swap the hot scratch pair (4, 5) with the cold pair (8, 9)."""
    cells = row.cell_writes.reshape(row.spec.width, CELLS_PER_PARTITION)
    cells[:, [4, 5, 8, 9]] = cells[:, [8, 9, 4, 5]]


def sequential_pass(
    stage: RowStage, operands: Dict[str, int]
) -> Dict[str, int]:
    """One :class:`RowStage` pass, row by row with per-pass wear."""
    res = stage.checker.res
    products = {}
    for out, lhs, rhs in stage.steps:
        x, y = operands[lhs], operands[rhs]
        product = reference_multiply(stage.width, x, y)
        reference_charge(stage.rows[out])
        stage.checker.check_product(product, res(x), res(y), out)
        products[out] = product
    if stage.wear_leveling:
        for row in stage.rows.values():
            reference_rotate(row)
    stage.passes += 1
    return products


def karatsuba_operands(rng: random.Random, n_bits: int, jobs: int):
    """Multiply-stage operand sets of *jobs* random L = 2 products."""
    plan = build_plan(n_bits, 2)
    return [
        plan.intermediate_values(
            rng.getrandbits(n_bits), rng.getrandbits(n_bits)
        )
        for _ in range(jobs)
    ]


def stage_state(stage: RowStage):
    """Everything a pass may change, in comparable form."""
    return (
        {out: row.cell_writes.tolist() for out, row in stage.rows.items()},
        {out: row.multiplications for out, row in stage.rows.items()},
        stage.passes,
        stage.checker.checks,
        stage.clock.cycles,
        dict(stage.clock.by_category),
    )


class TestSpec:
    def test_area_is_12m(self):
        assert RowMultiplierSpec(18).cells == 216
        assert rowmul.area_cells(98) == 1176

    def test_latency_closed_form(self):
        # m = n/4+2 for the paper's stage: n=64 -> m=18 -> 345 cc.
        assert rowmul.latency_cc(18) == 18 * (5 + 14) + 3 == 345
        assert rowmul.latency_cc(34) == 34 * (6 + 14) + 3 == 683
        assert rowmul.latency_cc(66) == 66 * (7 + 14) + 3 == 1389
        assert rowmul.latency_cc(98) == 98 * (7 + 14) + 3 == 2061

    def test_multpim_scaled_throughputs(self):
        """Full-width rows reproduce [9]'s Table I throughput column."""
        for n, tput in ((64, 779), (128, 372), (256, 177)):
            assert round(1e6 / rowmul.latency_cc(n)) == tput

    def test_max_writes_is_4m(self):
        assert rowmul.max_writes_per_cell(64) == 256
        assert rowmul.max_writes_per_cell(384) == 1536

    def test_product_bits(self):
        assert RowMultiplierSpec(10).product_bits == 20

    def test_invalid_width(self):
        with pytest.raises(DesignError):
            RowMultiplierSpec(0)
        with pytest.raises(DesignError):
            rowmul.latency_cc(0)


class TestMultiplication:
    def test_small_products(self):
        mul = RowMultiplier(RowMultiplierSpec(4))
        assert mul.multiply(0, 0) == 0
        assert mul.multiply(15, 15) == 225
        assert mul.multiply(1, 9) == 9
        assert mul.multiply(8, 8) == 64

    def test_operand_range_enforced(self):
        mul = RowMultiplier(RowMultiplierSpec(4))
        with pytest.raises(DesignError):
            mul.multiply(16, 1)
        with pytest.raises(DesignError):
            mul.multiply(1, -1)

    def test_clock_charged_full_latency(self):
        spec = RowMultiplierSpec(8)
        mul = RowMultiplier(spec)
        clock = Clock()
        mul.multiply(3, 5, clock=clock)
        assert clock.cycles == spec.latency_cc

    def test_clock_optional(self):
        mul = RowMultiplier(RowMultiplierSpec(8))
        assert mul.multiply(3, 5) == 15

    def test_product_property(self):
        rng = random.Random(0x18)
        mul = RowMultiplier(RowMultiplierSpec(18))
        for _ in range(60):
            a, b = rng.getrandbits(18), rng.getrandbits(18)
            assert mul.multiply(a, b) == a * b
        assert mul.multiplications == 60

    def test_wide_product_property(self):
        """The widest row of the n=256 design (m = 66)."""
        rng = random.Random(0x66)
        mul = RowMultiplier(RowMultiplierSpec(66))
        for _ in range(20):
            a, b = rng.getrandbits(66), rng.getrandbits(66)
            assert mul.multiply(a, b) == a * b


class TestWear:
    def test_hot_cell_wear_per_multiplication(self):
        spec = RowMultiplierSpec(16)
        mul = RowMultiplier(spec)
        mul.multiply(0xFFFF, 0xFFFF)
        assert mul.max_writes() == spec.max_writes_per_cell

    def test_wear_accumulates_linearly(self):
        spec = RowMultiplierSpec(8)
        mul = RowMultiplier(spec)
        for _ in range(5):
            mul.multiply(255, 255)
        assert mul.max_writes() == 5 * spec.max_writes_per_cell

    def test_stats(self):
        spec = RowMultiplierSpec(8)
        mul = RowMultiplier(spec)
        mul.multiply(2, 3)
        mul.multiply(4, 5)
        stats = mul.stats()
        assert stats.cycles == 2 * spec.latency_cc
        assert stats.cell_writes > 0


class TestLanes:
    WIDTHS = (1, 2, 7, 8, 9, 18, 66, 98, 130)
    LANES = (1, 9, 45, 288)

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("lanes", LANES)
    def test_equals_integer_product(self, width, lanes):
        rng = random.Random(width * 1000 + lanes)
        top = (1 << width) - 1
        lhs = [rng.getrandbits(width) for _ in range(lanes)]
        rhs = [rng.getrandbits(width) for _ in range(lanes)]
        # All-ones and zero operands, at both ends of the packed word.
        lhs[0] = rhs[0] = top
        lhs[-1] = 0
        if lanes > 2:
            rhs[1] = 0
            lhs[2], rhs[2] = top, 1
        products = rowmul.multiply_lanes(width, lhs, rhs)
        assert products == [a * b for a, b in zip(lhs, rhs)]

    @pytest.mark.parametrize("width", (1, 7, 18, 66))
    def test_agrees_with_reference_loop(self, width):
        rng = random.Random(width)
        lhs = [rng.getrandbits(width) for _ in range(45)]
        rhs = [rng.getrandbits(width) for _ in range(45)]
        assert rowmul.multiply_lanes(width, lhs, rhs) == [
            reference_multiply(width, a, b) for a, b in zip(lhs, rhs)
        ]

    @pytest.mark.parametrize("bad", (1 << 18, -1, (1 << 18) + 5))
    @pytest.mark.parametrize("lane", (0, 4, 8))
    @pytest.mark.parametrize("side", ("lhs", "rhs"))
    def test_out_of_range_lane_raises(self, bad, lane, side):
        operands = {"lhs": [3] * 9, "rhs": [5] * 9}
        operands[side][lane] = bad
        with pytest.raises(DesignError):
            rowmul.multiply_lanes(18, operands["lhs"], operands["rhs"])

    def test_no_lanes(self):
        assert rowmul.multiply_lanes(18, [], []) == []

    def test_lane_count_mismatch(self):
        with pytest.raises(DesignError):
            rowmul.multiply_lanes(18, [1, 2], [3])


class TestCharge:
    @pytest.mark.parametrize("rotate", (True, False))
    @pytest.mark.parametrize("passes", range(8))
    def test_equals_sequential_passes(self, passes, rotate):
        spec = RowMultiplierSpec(9)
        rng = np.random.default_rng(passes)
        start = rng.integers(0, 1000, spec.cells)
        closed, oracle = RowMultiplier(spec), RowMultiplier(spec)
        closed.cell_writes[:] = start
        oracle.cell_writes[:] = start
        closed.charge(passes, rotate)
        for _ in range(passes):
            reference_charge(oracle)
            if rotate:
                reference_rotate(oracle)
        assert closed.cell_writes.tolist() == oracle.cell_writes.tolist()
        assert closed.multiplications == oracle.multiplications == passes


def _pointwise_operands(rng, stage, jobs):
    names = [name for _, lhs, rhs in stage.steps for name in (lhs, rhs)]
    return [
        {name: rng.getrandbits(stage.width) for name in names}
        for _ in range(jobs)
    ]


class TestRowStage:
    @pytest.mark.parametrize("wear_leveling", (True, False))
    @pytest.mark.parametrize("jobs", (1, 2, 3, 5, 32))
    def test_batch_matches_sequential_passes(self, jobs, wear_leveling):
        operands = karatsuba_operands(random.Random(jobs), 64, jobs)
        batched = MultiplicationStage(64, wear_leveling=wear_leveling)
        oracle = MultiplicationStage(64, wear_leveling=wear_leveling)
        # Start from an odd pass count so the rows' hot/cold phase is
        # exercised, not just the reset state.
        batched.process_batch(operands[:1])
        sequential_pass(oracle, operands[0])
        oracle.clock.tick(oracle.latency_cc(), category="rowmul")

        results = batched.process_batch(operands)
        expected = [sequential_pass(oracle, ops) for ops in operands]
        oracle.clock.tick(oracle.latency_cc(), category="rowmul")
        assert [r.products for r in results] == expected
        assert stage_state(batched) == stage_state(oracle)

    def test_pointwise_batch_matches_sequential_passes(self):
        rng = random.Random(5)
        batched, oracle = PointwiseStage(96), PointwiseStage(96)
        operands = _pointwise_operands(rng, batched, 7)
        assert batched.multiply_batch(operands) == [
            sequential_pass(oracle, ops) for ops in operands
        ]
        oracle.clock.tick(oracle.latency_cc(), category="rowmul")
        assert stage_state(batched) == stage_state(oracle)

    def test_schoolbook_batch_matches_job_by_job(self):
        rng = random.Random(16)
        pairs = [(rng.getrandbits(16), rng.getrandbits(16)) for _ in range(5)]
        batched, single = SchoolbookController(16), SchoolbookController(16)
        records = batched.run_jobs_batch(pairs)
        for pair in pairs:
            single.run_jobs_batch([pair])
        assert [r.product for r in records] == [a * b for a, b in pairs]
        assert stage_state(batched.row) == stage_state(single.row)

    def test_single_pass_leaves_clock_alone(self):
        stage = MultiplicationStage(64)
        stage.multiply(karatsuba_operands(random.Random(1), 64, 1)[0])
        assert stage.clock.cycles == 0
        assert stage.passes == 1

    @pytest.mark.parametrize("batch", (False, True))
    def test_failed_pass_charges_nothing(self, monkeypatch, batch):
        operands = karatsuba_operands(random.Random(9), 64, 4)
        stage = MultiplicationStage(64)
        stage.process_batch(operands[:1])
        before = stage_state(stage)
        bad_lane = 4 + (len(stage.steps) if batch else 0)
        clean = rowmul.multiply_lanes

        def corrupt(width, lhs, rhs):
            products = clean(width, lhs, rhs)
            products[bad_lane] ^= 1 << 3
            return products

        monkeypatch.setattr(rowmul, "multiply_lanes", corrupt)
        with pytest.raises(StageSelfCheckError) as caught:
            if batch:
                stage.process_batch(operands[1:])
            else:
                stage.multiply(operands[1])
        assert caught.value.stage == "multiply"
        assert caught.value.check == "residue"
        assert caught.value.location == stage.steps[4][0]
        wear, mults, passes, checks, cycles, _ = stage_state(stage)
        assert (wear, mults, passes, cycles) == (
            before[0], before[1], before[2], before[4]
        )
        assert checks == before[3] + bad_lane + 1

        # The rows' hot/cold phases still agree: the next clean pass
        # lands exactly where a stage that never failed would.
        monkeypatch.undo()
        stage.process_batch(operands[1:2])
        oracle = MultiplicationStage(64)
        oracle.process_batch(operands[:1])
        oracle.process_batch(operands[1:2])
        assert stage_state(stage)[:3] == stage_state(oracle)[:3]
