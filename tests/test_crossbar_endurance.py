"""Tests for endurance analysis, wear-leveling, and the energy model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crossbar import (
    CrossbarArray,
    DeviceModel,
    EnergyModel,
    WearLevelingController,
    analyze,
    row_write_histogram,
)


class TestEnduranceReport:
    def test_fresh_array(self):
        report = analyze(CrossbarArray(4, 4))
        assert report.max_writes == 0
        assert report.total_writes == 0
        assert report.nonzero_cells == 0
        assert report.imbalance == 0.0

    def test_counts_after_writes(self):
        array = CrossbarArray(4, 4)
        array.write_row(0, np.ones(4, dtype=bool))
        array.write_bit(0, 0, 0)
        report = analyze(array)
        assert report.max_writes == 2
        assert report.total_writes == 5
        assert report.nonzero_cells == 4

    def test_imbalance(self):
        array = CrossbarArray(2, 2)
        for _ in range(4):
            array.write_bit(0, 0, 1)
        report = analyze(array)
        # One cell with 4 writes over 4 cells: mean 1, max 4.
        assert report.imbalance == pytest.approx(4.0)

    def test_lifetime_limited_by_hottest_cell(self):
        array = CrossbarArray(2, 2)
        for _ in range(10):
            array.write_bit(0, 0, 1)
        report = analyze(array)
        assert report.lifetime_multiplications(10**10) == 10**9

    def test_row_histogram(self):
        array = CrossbarArray(3, 4)
        array.write_row(1, np.ones(4, dtype=bool))
        array.write_bit(1, 0, 0)
        assert row_write_histogram(array) == [0, 2, 0]


class TestWearLevelingController:
    def test_identity_before_swap(self):
        wlc = WearLevelingController([0, 1], [2, 3])
        assert wlc.physical_row(0) == 0
        assert wlc.physical_row(3) == 3
        assert not wlc.swapped

    def test_swap_exchanges_regions(self):
        wlc = WearLevelingController([0, 1], [2, 3])
        wlc.swap()
        assert wlc.swapped
        assert wlc.physical_row(0) == 2
        assert wlc.physical_row(2) == 0
        assert wlc.physical_row(1) == 3

    def test_double_swap_restores(self):
        wlc = WearLevelingController([0, 1], [2, 3])
        wlc.swap()
        wlc.swap()
        assert not wlc.swapped
        assert wlc.translate([0, 1, 2, 3]) == [0, 1, 2, 3]

    def test_unmanaged_row_rejected(self):
        wlc = WearLevelingController([0], [1])
        with pytest.raises(ValueError):
            wlc.physical_row(7)

    def test_regions_must_match_in_size(self):
        with pytest.raises(ValueError):
            WearLevelingController([0, 1], [2])

    def test_regions_must_be_disjoint(self):
        with pytest.raises(ValueError):
            WearLevelingController([0, 1], [1, 2])

    @pytest.mark.parametrize("start_swaps", [0, 1])
    @pytest.mark.parametrize("jobs", [1, 2, 3, 32])
    def test_batch_groups_split_by_parity(self, jobs, start_swaps):
        wlc = WearLevelingController([0, 1], [2, 3])
        wlc.advance(start_swaps)
        states = []
        groups = []
        for group in wlc.batch_groups(jobs):
            states.append(wlc.swapped)
            groups.append(group)
        assert groups[0] == list(range(0, jobs, 2))
        assert groups[1:] == ([list(range(1, jobs, 2))] if jobs > 1 else [])
        # Each group sees the state its jobs would run under in order.
        assert states == [bool(start_swaps), not start_swaps][: len(groups)]
        assert wlc.swaps == start_swaps + jobs

    def test_batch_groups_of_zero_jobs_is_a_no_op(self):
        wlc = WearLevelingController([0, 1], [2, 3])
        assert list(wlc.batch_groups(0)) == []
        assert wlc.swaps == 0
        assert not wlc.swapped
        assert wlc.physical_row(0) == 0

    def test_batch_groups_rejects_negative_jobs(self):
        wlc = WearLevelingController([0, 1], [2, 3])
        with pytest.raises(ValueError):
            list(wlc.batch_groups(-1))
        assert wlc.swaps == 0
        assert wlc.physical_row(0) == 0

    def test_wear_halving_effect(self):
        """Alternating the scratch region across two physical row sets
        roughly halves the hottest cell's accumulation (Sec. IV-B)."""
        def hammer(levelled: bool) -> int:
            array = CrossbarArray(4, 4)
            wlc = WearLevelingController([0, 1], [2, 3])
            for _ in range(100):
                scratch = wlc.physical_row(0)
                array.write_row(scratch, np.ones(4, dtype=bool))
                if levelled:
                    wlc.swap()
            return array.max_writes()

        assert hammer(levelled=False) == 100
        assert hammer(levelled=True) == 50


class TestEnergyModel:
    def test_charge_accumulates_by_category(self):
        em = EnergyModel(DeviceModel())
        em.charge("nor", 10.0)
        em.charge("nor", 5.0)
        em.charge("write", 2.0)
        breakdown = em.breakdown()
        assert breakdown.by_category == {"nor": 15.0, "write": 2.0}
        assert breakdown.total_fj == pytest.approx(17.0)

    def test_negative_energy_rejected(self):
        em = EnergyModel(DeviceModel())
        with pytest.raises(ValueError):
            em.charge("nor", -1.0)

    def test_charge_writes_uses_device_costs(self):
        device = DeviceModel(e_set_fj=100.0, e_reset_fj=60.0)
        em = EnergyModel(device)
        em.charge_writes("write", set_cells=2, reset_cells=3)
        assert em.breakdown().total_fj == pytest.approx(2 * 100 + 3 * 60)

    def test_charge_reads(self):
        device = DeviceModel(e_read_fj=2.0)
        em = EnergyModel(device)
        em.charge_reads("read", cells=8)
        assert em.breakdown().total_fj == pytest.approx(16.0)

    def test_unit_conversions(self):
        em = EnergyModel(DeviceModel())
        em.charge("x", 2_000_000.0)
        breakdown = em.breakdown()
        assert breakdown.total_pj == pytest.approx(2000.0)
        assert breakdown.total_nj == pytest.approx(2.0)

    def test_fraction(self):
        em = EnergyModel(DeviceModel())
        em.charge("a", 30.0)
        em.charge("b", 70.0)
        assert em.breakdown().fraction("b") == pytest.approx(0.7)
        assert em.breakdown().fraction("missing") == 0.0

    def test_fraction_of_empty_model(self):
        em = EnergyModel(DeviceModel())
        assert em.breakdown().fraction("a") == 0.0
