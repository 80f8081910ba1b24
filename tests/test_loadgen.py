"""Tests for the open-loop load generator (`repro.eval.loadgen`)."""

from __future__ import annotations

import pytest

from repro.eval import loadgen
from repro.frontend import FrontendConfig
from repro.service import ServiceConfig
from repro.sim.exceptions import DesignError

SMALL = ServiceConfig(batch_size=4, ways_per_width=1)


class TestArrivalSchedules:
    @pytest.mark.parametrize("process", loadgen.ARRIVAL_PROCESSES)
    def test_identical_seeds_identical_schedules(self, process):
        first = loadgen.arrival_schedule(process, 64, 500, seed=42)
        second = loadgen.arrival_schedule(process, 64, 500, seed=42)
        assert first == second
        assert len(first) == 64
        assert all(b >= a for a, b in zip(first, first[1:]))
        assert all(isinstance(t, int) and t > 0 for t in first)

    @pytest.mark.parametrize("process", loadgen.ARRIVAL_PROCESSES)
    def test_different_seeds_differ(self, process):
        first = loadgen.arrival_schedule(process, 64, 500, seed=1)
        second = loadgen.arrival_schedule(process, 64, 500, seed=2)
        assert first != second

    def test_bursty_has_dense_and_sparse_stretches(self):
        schedule = loadgen.arrival_schedule(
            "bursty", 300, 2000, seed=9, burst_gap_cc=50
        )
        gaps = sorted(b - a for a, b in zip(schedule, schedule[1:]))
        # The gap distribution must be bimodal: the short quartile far
        # below the long quartile.
        assert gaps[len(gaps) // 4] * 4 < gaps[3 * len(gaps) // 4]

    def test_validation(self):
        with pytest.raises(DesignError):
            loadgen.arrival_schedule("poisson", -1, 100, seed=0)
        with pytest.raises(DesignError):
            loadgen.arrival_schedule("poisson", 5, 0, seed=0)
        with pytest.raises(DesignError):
            loadgen.arrival_schedule("sawtooth", 5, 100, seed=0)
        with pytest.raises(DesignError):
            loadgen.build_load("tls", "poisson", 5, 100)

    def test_build_load_stamps_deadlines_and_priorities(self):
        load = loadgen.build_load(
            "fhe", "poisson", 40, 500, seed=1,
            deadline_slack_cc=9_000, high_priority_fraction=0.5,
        )
        assert all(item.deadline_cc == 9_000 for item in load)
        priorities = {item.priority for item in load}
        assert priorities == {0, 1}


class TestDeterminism:
    """Satellite: identical seeds -> identical latency histograms,
    whatever the shard hosting (single/multi process)."""

    def _load(self):
        return loadgen.build_load(
            "fhe", "poisson", 32, 300, seed=0xD7, deadline_slack_cc=20_000
        )

    def test_sync_run_repeats_bit_exact(self):
        first, _ = loadgen.run_sync(self._load(), SMALL)
        second, _ = loadgen.run_sync(self._load(), SMALL)
        assert first.as_dict() == second.as_dict()
        assert first.histogram == second.histogram

    @pytest.mark.parametrize("shards", (1, 2, 4))
    def test_sharded_inline_matches_process(self, shards):
        inline_report = loadgen.run_frontend(
            self._load(),
            FrontendConfig(shards=shards, inline=True, service=SMALL),
        ).report
        process_report = loadgen.run_frontend(
            self._load(),
            FrontendConfig(shards=shards, inline=False, service=SMALL),
        ).report
        assert inline_report.as_dict() == process_report.as_dict()
        assert inline_report.histogram == process_report.histogram

    def test_report_fields_consistent(self):
        report, _ = loadgen.run_sync(self._load(), SMALL)
        assert report.offered == 32
        assert report.completed + report.shed + report.rejected_deadline == 32
        assert sum(report.histogram) == report.completed
        assert report.p50_cc <= report.p95_cc <= report.p99_cc
        assert report.horizon_cc > 0
        assert report.meets(loadgen.Slo(p99_cc=10**9, max_miss_rate=1.0))
        assert not report.meets(loadgen.Slo(p99_cc=1, max_miss_rate=0.0))


class TestOverloadShedding:
    """Satellite: arrivals above capacity shed via the bounded queue
    with per-priority accounting — no unbounded growth, no lost
    futures."""

    def _overload(self, jobs=48):
        # Mixed widths spread arrivals over many under-full bins, so
        # total pending hits the admission bound before any single bin
        # reaches a full batch — genuine backpressure, not batching.
        return loadgen.build_load(
            "mixed", "poisson", jobs, 30, seed=0xBAD,
            high_priority_fraction=0.25,
        )

    def test_sync_overload_sheds_with_accounting(self):
        config = ServiceConfig(batch_size=8, ways_per_width=1, max_pending=8)
        report, service = loadgen.run_sync(self._overload(), config)
        assert report.shed > 0, "expected backpressure above capacity"
        assert report.completed + report.shed == report.offered
        counters = service.snapshot()["counters"]
        for priority, count in report.shed_by_priority.items():
            assert (
                counters[f"requests_rejected_priority_{priority}"] == count
            )
        # The queue bound held the whole run: pending never passed it.
        assert service.scheduler.pending_count <= config.max_pending

    def test_sharded_overload_resolves_every_future(self):
        config = ServiceConfig(batch_size=8, ways_per_width=1, max_pending=8)
        run = loadgen.run_frontend(
            self._overload(),
            FrontendConfig(shards=2, inline=True, service=config),
        )
        report, snapshot = run.report, run.snapshot
        assert report.shed > 0
        assert report.completed + report.shed == report.offered
        assert snapshot["service"]["outstanding_futures"] == 0
        merged = snapshot["counters"]
        shed_total = sum(
            count
            for name, count in merged.items()
            if name.startswith("requests_rejected_priority_")
        )
        assert shed_total == report.shed
        assert merged["frontend_admission_errors"] == report.shed

    def test_overload_shedding_is_deterministic(self):
        config = ServiceConfig(batch_size=8, ways_per_width=1, max_pending=8)
        first, _ = loadgen.run_sync(self._overload(), config)
        second, _ = loadgen.run_sync(self._overload(), config)
        assert first.shed_by_priority == second.shed_by_priority
        assert first.as_dict() == second.as_dict()
