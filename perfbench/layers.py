"""Per-layer metrics of the traced run and its layer table.

Self times come from the spans of ``spans.py``; flushes, occupancy,
cache hit rates and retries from the program's own counters over the
same pass.  Every metric is reported on every workload; a layer that is
not on a workload's path reads 0.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

#: ``(name, unit)`` of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("service.scheduler.self_s", "s"),
    ("service.scheduler.flushes", "count"),
    ("service.scheduler.occupancy_mean", "lanes"),
    ("service.cache.operand_hit_rate", "ratio"),
    ("service.cache.program_hit_rate", "ratio"),
    ("service.dispatch.self_s", "s"),
    ("service.dispatch.retries", "count"),
    ("stage.precompute.self_s", "s"),
    ("stage.multiply.self_s", "s"),
    ("stage.postcompute.self_s", "s"),
    ("stage.precompute.us_per_job", "us"),
    ("stage.multiply.us_per_job", "us"),
    ("stage.postcompute.us_per_job", "us"),
    ("stage.evaluate.self_s", "s"),
    ("stage.pointwise.self_s", "s"),
    ("stage.interpolate.self_s", "s"),
    ("stage.schoolbook.self_s", "s"),
    ("magic.replay.self_s", "s"),
    ("magic.replay.calls", "count"),
    ("magic.replay.lanes_mean", "lanes"),
    ("magic.replay.ns_per_cc", "ns/cc"),
    ("magic.compile.self_s", "s"),
    ("magic.compile.calls", "count"),
    ("magic.compile_cache.hit_rate", "ratio"),
    ("reliability.residue.self_s", "s"),
    ("reliability.residue.checks", "count"),
    ("workloads.context.hit_rate", "ratio"),
    ("workloads.waves", "count"),
    ("workloads.wave_jobs_mean", "jobs"),
    ("workloads.plan.self_s", "s"),
    ("workloads.msm.self_s", "s"),
    ("frontend.submit.self_s", "s"),
    ("frontend.drain.self_s", "s"),
    ("frontend.resolve_p50_ms", "ms"),
    ("frontend.resolve_p99_ms", "ms"),
    ("frontend.shard_send.calls", "count"),
    ("model.energy_fj_per_req", "fJ"),
    ("model.max_writes", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pass_metrics(layers: Dict[str, Dict[str, int]], counters, resolve_ns):
    """Metrics of one traced pass."""

    def get(name: str, key: str) -> int:
        return layers.get(name, {}).get(key, 0)

    def self_s(*names: str) -> float:
        return sum(get(name, "self_ns") for name in names) / 1e9

    def c(name: str) -> float:
        return counters.get(name, 0)

    values = {
        "service.scheduler.self_s": self_s("service.scheduler"),
        "service.scheduler.flushes": c("flushes"),
        "service.scheduler.occupancy_mean": _ratio(
            c("occupancy_sum"), c("occupancy_count")
        ),
        "service.cache.operand_hit_rate": _ratio(
            c("operand_hits"), c("operand_hits") + c("operand_misses")
        ),
        "service.cache.program_hit_rate": _ratio(
            c("program_hits"), c("program_hits") + c("program_misses")
        ),
        "service.dispatch.self_s": self_s("service.dispatch"),
        "service.dispatch.retries": c("retries"),
        "magic.replay.self_s": self_s("magic.replay"),
        "magic.replay.calls": get("magic.replay", "calls"),
        "magic.replay.lanes_mean": _ratio(
            get("magic.replay", "lanes"), get("magic.replay", "calls")
        ),
        "magic.replay.ns_per_cc": _ratio(
            get("magic.replay", "self_ns"), get("magic.replay", "cycles")
        ),
        "magic.compile.self_s": self_s("magic.compile"),
        "magic.compile.calls": get("magic.compile", "calls"),
        "magic.compile_cache.hit_rate": _ratio(
            c("compile_hits"), c("compile_hits") + c("compile_misses")
        ),
        "reliability.residue.self_s": self_s("reliability.residue"),
        "reliability.residue.checks": get("reliability.residue", "calls"),
        "workloads.context.hit_rate": _ratio(
            c("context_hits"), c("context_hits") + c("context_misses")
        ),
        "workloads.waves": get("workloads.wave", "calls"),
        "workloads.wave_jobs_mean": _ratio(
            get("workloads.wave", "lanes"), get("workloads.wave", "calls")
        ),
        "workloads.plan.self_s": self_s("workloads.plan", "workloads.wave"),
        "workloads.msm.self_s": self_s("workloads.msm"),
        "frontend.submit.self_s": self_s("frontend.submit"),
        "frontend.drain.self_s": self_s("frontend.drain"),
        "frontend.shard_send.calls": get("frontend.shard_send", "calls"),
    }
    for stage in ("precompute", "multiply", "postcompute"):
        name = f"stage.{stage}"
        values[f"{name}.self_s"] = self_s(name)
        values[f"{name}.us_per_job"] = _ratio(
            get(name, "self_ns") / 1e3, get(name, "lanes")
        )
    for stage in ("evaluate", "pointwise", "interpolate", "schoolbook"):
        values[f"stage.{stage}.self_s"] = self_s(f"stage.{stage}")
    latencies = sorted(resolve_ns or ())
    values["frontend.resolve_p50_ms"] = nearest_rank(latencies, 50) / 1e6
    values["frontend.resolve_p99_ms"] = nearest_rank(latencies, 99) / 1e6
    return values


def nearest_rank(sorted_values: List[int], percent: int) -> int:
    """Nearest-rank percentile of ascending values (0 when empty)."""
    if not sorted_values:
        return 0
    rank = max(1, -(-percent * len(sorted_values) // 100))
    return sorted_values[rank - 1]


def layer_metrics(per_pass, traced, cycle, overhead) -> Dict[str, dict]:
    """Median over the traced passes of every per-layer metric."""
    passes = [
        _pass_metrics(layers, run.outcome.counters, run.resolve_ns)
        for (layers, _coverage), run in zip(per_pass, traced)
    ]
    values = {
        name: statistics.median(p[name] for p in passes)
        for name in passes[0]
    }
    values["model.energy_fj_per_req"] = cycle["model.energy_fj_per_req"]
    values["model.max_writes"] = cycle["model.max_writes"]
    values["trace.overhead_frac"] = overhead
    values["trace.coverage_frac"] = statistics.median(
        coverage for _layers, coverage in per_pass
    )
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}


def layer_table(layers: Dict[str, Dict[str, int]], wall_ns: int) -> str:
    """``layer | self_s | share of wall | calls`` for one traced pass."""
    rows = sorted(layers.items(), key=lambda item: -item[1]["self_ns"])
    covered = sum(totals["self_ns"] for _name, totals in rows)
    lines = [f"  {'layer':<22} {'self_s':>10} {'share of wall':>14} "
             f"{'calls':>9}"]
    for name, totals in rows:
        lines.append(
            f"  {name:<22} {totals['self_ns'] / 1e9:>10.4f} "
            f"{totals['self_ns'] / wall_ns:>14.1%} {totals['calls']:>9}"
        )
    outside = wall_ns - covered
    lines.append(
        f"  {'(outside any span)':<22} {outside / 1e9:>10.4f} "
        f"{outside / wall_ns:>14.1%} {'':>9}"
    )
    return "\n".join(lines)
