"""Benchmark: open-loop serving through the async sharded front-end.

The serving stack exists to keep tail latency bounded when requests
arrive on their own clock.  This bench drives one seeded saturating
Poisson load (64-bit FHE limbs at a mean gap well below the per-job
bottleneck) through (a) a synchronous single-process service and (b)
the async sharded front-end with four shards on the *same* per-shard
config, plus one bursty MMPP load through an autoscaled service, and
asserts the CI floors:

* cycle-domain speedup (sync completion horizon over sharded
  completion horizon) >= 2x at equal offered load;
* sharded p99 latency within the SLO;
* zero dropped futures (every admitted request resolves);
* every product bit-exact (``oracle_audit`` on in both paths);
* the autoscaler both raises and lowers ways under the bursty trace.

All comparisons happen on the virtual cycle clock, so the numbers are
seed-stable across machines; wall time is printed informationally
(process-shard wall-clock speedups need real cores).

Runs under pytest (``pytest benchmarks/bench_load.py``) and as a
script (``python benchmarks/bench_load.py``), which exits non-zero
when a floor is missed — the CI load smoke check.
"""

from __future__ import annotations

import sys

from repro.eval import loadgen
from repro.eval.report import format_table
from repro.frontend import FrontendConfig
from repro.service import ServiceConfig

#: Saturating Poisson load (single-way per-job bottleneck ~757 cc).
JOBS = 64
MEAN_GAP_CC = 100
SHARDS = 4
SEED = 0x10AD

#: Floors checked by CI.
MIN_SPEEDUP_X = 2.0
SLO_P99_CC = 24_000
MIN_SCALE_EVENTS = 1


def run_bench():
    service_config = ServiceConfig(
        batch_size=8, ways_per_width=1, oracle_audit=True
    )
    load = loadgen.build_load(
        "fhe", "poisson", JOBS, MEAN_GAP_CC, seed=SEED,
        deadline_slack_cc=16_000,
    )
    comparison = loadgen.sharding_comparison(
        load,
        FrontendConfig(shards=SHARDS, inline=True, service=service_config),
        mix="fhe",
        process="poisson",
    )
    sync_report, sharded_report = comparison.sync, comparison.sharded
    resolved = sharded_report.completed + sharded_report.shed
    burst_report, ups, downs = loadgen.bursty_autoscale(SEED)

    rows = [
        ("sync p50 / p99", f"{sync_report.p50_cc:,} / {sync_report.p99_cc:,} cc", ""),
        (
            "sharded p50 / p99",
            f"{sharded_report.p50_cc:,} / {sharded_report.p99_cc:,} cc",
            f"p99 <= {SLO_P99_CC:,}",
        ),
        (
            "sync / sharded miss rate",
            f"{sync_report.miss_rate:.1%} / {sharded_report.miss_rate:.1%}",
            "",
        ),
        (
            "cycle-domain speedup",
            f"{comparison.speedup:.2f}x",
            f">= {MIN_SPEEDUP_X:.1f}x",
        ),
        (
            "futures resolved",
            f"{resolved} / {sharded_report.offered}",
            "all",
        ),
        (
            "autoscale up / down",
            f"{ups} / {downs}",
            f">= {MIN_SCALE_EVENTS} each",
        ),
        ("bursty p99", f"{burst_report.p99_cc:,} cc", ""),
        (
            "wall sync / sharded",
            f"{sync_report.wall_seconds:.2f}s / "
            f"{sharded_report.wall_seconds:.2f}s",
            "",
        ),
    ]
    table = format_table(
        ("metric", "value", "floor"),
        rows,
        title=(
            f"Load bench: {JOBS} fhe jobs, mean gap {MEAN_GAP_CC} cc, "
            f"{SHARDS} shards (virtual cycle domain)"
        ),
    )
    return comparison, ups, downs, table


def _check_floors(comparison, ups, downs) -> list:
    sharded = comparison.sharded
    outstanding = comparison.snapshot["service"]["outstanding_futures"]
    failures = []
    if comparison.speedup < MIN_SPEEDUP_X:
        failures.append(
            f"cycle-domain speedup {comparison.speedup:.2f}x below floor "
            f"{MIN_SPEEDUP_X}x"
        )
    if sharded.p99_cc > SLO_P99_CC:
        failures.append(
            f"sharded p99 {sharded.p99_cc} cc exceeds SLO {SLO_P99_CC} cc"
        )
    if outstanding:
        failures.append(f"{outstanding} futures never resolved")
    if sharded.completed + sharded.shed != sharded.offered:
        failures.append("admitted requests went missing")
    if ups < MIN_SCALE_EVENTS:
        failures.append("autoscaler never scaled up")
    if downs < MIN_SCALE_EVENTS:
        failures.append("autoscaler never scaled down")
    return failures


def test_open_loop_sharded_serving():
    comparison, ups, downs, table = run_bench()
    try:
        from benchmarks.conftest import register_report

        register_report("load", table)
    except ImportError:  # script mode, no harness
        pass
    failures = _check_floors(comparison, ups, downs)
    assert not failures, "; ".join(failures)


if __name__ == "__main__":
    comparison, ups, downs, table = run_bench()
    print(table)
    failures = _check_floors(comparison, ups, downs)
    if failures:
        print("FAIL: " + "; ".join(failures))
        sys.exit(1)
    print(
        f"OK: {comparison.speedup:.2f}x speedup, "
        f"p99 {comparison.sharded.p99_cc:,} cc, "
        f"{ups} ups / {downs} downs, zero dropped futures"
    )
