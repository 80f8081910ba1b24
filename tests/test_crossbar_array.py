"""Tests for the crossbar array and its stateful-logic primitives."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crossbar import (
    FAULT_STUCK_AT_0,
    FAULT_STUCK_AT_1,
    CrossbarArray,
)
from repro.sim.exceptions import (
    AddressError,
    FaultInjectionError,
    MagicProtocolError,
)


@pytest.fixture
def array() -> CrossbarArray:
    return CrossbarArray(8, 16)


def bits(*values: int) -> np.ndarray:
    return np.array(values, dtype=bool)


class TestAddressing:
    def test_dimensions(self, array):
        assert array.rows == 8
        assert array.cols == 16
        assert array.cells == 128

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            CrossbarArray(0, 4)
        with pytest.raises(ValueError):
            CrossbarArray(4, -1)

    def test_row_bounds_checked(self, array):
        with pytest.raises(AddressError):
            array.read_row(8)
        with pytest.raises(AddressError):
            array.write_bit(-1, 0, 1)

    def test_col_bounds_checked(self, array):
        with pytest.raises(AddressError):
            array.read_bit(0, 16)

    def test_word_shape_checked(self, array):
        with pytest.raises(AddressError):
            array.write_row(0, [1, 0, 1])


class TestReadWrite:
    def test_write_then_read_row(self, array):
        word = np.zeros(16, dtype=bool)
        word[[0, 3, 15]] = True
        array.write_row(2, word)
        assert (array.read_row(2) == word).all()

    def test_read_returns_copy(self, array):
        word = array.read_row(0)
        word[0] = True
        assert not array.state[0, 0]

    def test_masked_write_leaves_other_columns(self, array):
        array.write_row(1, np.ones(16, dtype=bool))
        mask = np.zeros(16, dtype=bool)
        mask[:4] = True
        array.write_row(1, np.zeros(16, dtype=bool), mask)
        got = array.read_row(1)
        assert not got[:4].any()
        assert got[4:].all()

    def test_bit_level_access(self, array):
        array.write_bit(3, 5, 1)
        assert array.read_bit(3, 5) == 1
        assert array.read_bit(3, 6) == 0

    def test_write_counting(self, array):
        array.write_row(0, np.ones(16, dtype=bool))
        array.write_bit(0, 2, 0)
        assert array.writes[0, 2] == 2
        assert array.writes[0, 3] == 1
        assert array.total_writes() == 17
        assert array.max_writes() == 2


class TestMagicNor:
    def test_nor_truth_table(self):
        array = CrossbarArray(3, 4)
        array.write_row(0, bits(0, 0, 1, 1))
        array.write_row(1, bits(0, 1, 0, 1))
        array.init_rows([2])
        array.nor_rows([0, 1], 2)
        assert (array.read_row(2) == bits(1, 0, 0, 0)).all()

    def test_not_is_single_input_nor(self):
        array = CrossbarArray(2, 4)
        array.write_row(0, bits(0, 1, 0, 1))
        array.init_rows([1])
        array.not_row(0, 1)
        assert (array.read_row(1) == bits(1, 0, 1, 0)).all()

    def test_three_input_nor(self):
        array = CrossbarArray(4, 2)
        array.write_row(0, bits(0, 1))
        array.write_row(1, bits(0, 0))
        array.write_row(2, bits(0, 0))
        array.init_rows([3])
        array.nor_rows([0, 1, 2], 3)
        assert (array.read_row(3) == bits(1, 0)).all()

    def test_inputs_preserved(self):
        """MAGIC preserves input memristors (unlike IMPLY)."""
        array = CrossbarArray(3, 4)
        array.write_row(0, bits(1, 0, 1, 0))
        array.write_row(1, bits(0, 0, 1, 1))
        array.init_rows([2])
        array.nor_rows([0, 1], 2)
        assert (array.read_row(0) == bits(1, 0, 1, 0)).all()
        assert (array.read_row(1) == bits(0, 0, 1, 1)).all()

    def test_uninitialised_output_rejected_in_strict_mode(self):
        array = CrossbarArray(3, 4, strict_magic=True)
        array.write_row(0, bits(1, 1, 1, 1))
        with pytest.raises(MagicProtocolError):
            array.nor_rows([0], 2)

    def test_nonstrict_mode_computes_pessimistically(self):
        array = CrossbarArray(3, 4, strict_magic=False)
        array.write_row(0, bits(0, 0, 0, 0))
        # Output row holds 0s; a real MAGIC gate cannot switch 0 -> 1,
        # but the behavioural model writes the logical NOR regardless.
        array.nor_rows([0], 2)
        assert array.read_row(2).all()

    def test_output_cannot_be_input(self, array):
        with pytest.raises(MagicProtocolError):
            array.nor_rows([0, 1], 1)

    def test_empty_inputs_rejected(self, array):
        with pytest.raises(MagicProtocolError):
            array.nor_rows([], 2)

    def test_masked_nor_only_touches_window(self):
        array = CrossbarArray(3, 8)
        array.write_row(0, bits(1, 1, 1, 1, 1, 1, 1, 1))
        array.init_rows([2])
        mask = np.zeros(8, dtype=bool)
        mask[:4] = True
        array.nor_rows([0], 2, mask)
        got = array.read_row(2)
        assert not got[:4].any()
        assert got[4:].all()

    def test_multi_row_init_counts_one_write_per_cell(self):
        array = CrossbarArray(4, 4)
        array.init_rows([0, 1, 2])
        assert array.writes[:3].sum() == 12
        assert array.writes[3].sum() == 0


class TestImply:
    @pytest.mark.parametrize(
        "p, q, expected",
        [(0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 1)],
    )
    def test_truth_table(self, p, q, expected):
        array = CrossbarArray(2, 1)
        array.write_bit(0, 0, p)
        array.write_bit(1, 0, q)
        array.imply_rows(0, 1)
        assert array.read_bit(1, 0) == expected

    def test_destructive_on_q_only(self):
        array = CrossbarArray(2, 4)
        array.write_row(0, bits(0, 0, 1, 1))
        array.write_row(1, bits(0, 1, 0, 1))
        array.imply_rows(0, 1)
        assert (array.read_row(0) == bits(0, 0, 1, 1)).all()
        assert (array.read_row(1) == bits(1, 1, 0, 1)).all()

    def test_same_row_rejected(self, array):
        with pytest.raises(MagicProtocolError):
            array.imply_rows(1, 1)


class TestMajority:
    @pytest.mark.parametrize(
        "a, b, c, expected",
        [
            (0, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0),
            (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 1),
        ],
    )
    def test_truth_table(self, a, b, c, expected):
        array = CrossbarArray(4, 1)
        array.write_bit(0, 0, a)
        array.write_bit(1, 0, b)
        array.write_bit(2, 0, c)
        array.maj_rows([0, 1, 2], 3)
        assert array.read_bit(3, 0) == expected

    def test_requires_three_inputs(self, array):
        with pytest.raises(MagicProtocolError):
            array.maj_rows([0, 1], 3)


class TestFaults:
    def test_stuck_at_one_pins_cell(self, array):
        array.inject_fault(0, 0, FAULT_STUCK_AT_1)
        array.write_row(0, np.zeros(16, dtype=bool))
        assert array.read_bit(0, 0) == 1

    def test_stuck_at_zero_pins_cell(self, array):
        array.inject_fault(1, 3, FAULT_STUCK_AT_0)
        array.write_row(1, np.ones(16, dtype=bool))
        assert array.read_bit(1, 3) == 0
        assert array.read_bit(1, 4) == 1

    def test_fault_corrupts_nor_result(self):
        array = CrossbarArray(3, 2, strict_magic=False)
        array.inject_fault(2, 0, FAULT_STUCK_AT_0)
        array.write_row(0, bits(0, 0))
        array.init_rows([2])
        array.nor_rows([0], 2)
        # Fault forces the output low even though NOR(0) = 1.
        assert array.read_bit(2, 0) == 0
        assert array.read_bit(2, 1) == 1

    def test_unknown_fault_kind_rejected(self, array):
        with pytest.raises(FaultInjectionError):
            array.inject_fault(0, 0, "flaky")

    def test_clear_faults(self, array):
        array.inject_fault(0, 0, FAULT_STUCK_AT_1)
        array.clear_faults()
        assert array.fault_count == 0
        array.write_row(0, np.zeros(16, dtype=bool))
        assert array.read_bit(0, 0) == 0

    def test_remap_strands_fault_off_the_row_map(self):
        array = CrossbarArray(3, 2, spare_rows=1)
        array.inject_fault(0, 0, FAULT_STUCK_AT_1)
        array.inject_fault(1, 1, FAULT_STUCK_AT_0)
        assert array.fault_count == array.mapped_fault_count == 2
        array.remap_row(0)
        # The sa1 cell stays pinned on the retired word line.
        assert array.fault_count == 2
        assert array.mapped_fault_count == 1


class TestEnergyAccounting:
    def test_writes_accumulate_energy(self, array):
        before = array.energy_fj
        array.write_row(0, np.ones(16, dtype=bool))
        assert array.energy_fj > before

    def test_reads_accumulate_energy(self, array):
        before = array.energy_fj
        array.read_row(0)
        assert array.energy_fj > before

    def test_set_costs_more_than_reset_by_default(self):
        a = CrossbarArray(1, 8)
        a.write_row(0, np.ones(8, dtype=bool))
        set_cost = a.energy_fj
        b = CrossbarArray(1, 8)
        b.write_row(0, np.zeros(8, dtype=bool))
        assert set_cost > b.energy_fj
