"""Benchmark: batched SIMD executor vs sequential scalar execution.

The batched engines exist for one reason — to make the simulator's hot
path keep up with the row-parallel hardware it models.  Three perf-smoke
checks live here:

* ``test_batched_run_stream_speedup`` replays the acceptance workload
  (32 jobs at n = 256 through ``run_stream``) both ways, asserts
  bit-identical products against Python integer multiplication, and
  asserts the batched path is at least 8x faster than the sequential
  scalar path.
* ``test_word_backend_speedup`` replays the n = 256 stage mega-programs
  over a 64-lane batch on both batched backends and asserts the
  word-packed engine is at least 6x faster than the bit-plane engine
  with bit-identical per-lane results.  The replay itself is measured
  (not ``run_stream`` wall clock) because program compilation and the
  closed-form multiply stage are backend-independent and would dilute
  the comparison.
* ``test_word_backend_lane_light`` replays the n = 384 postcompute
  mega-program over 5 lanes — the sparse batches a mixed-width service
  flushes — on the word backend and on the per-lane scalar oracle, and
  asserts the word backend is at least 100x faster with bit-identical
  per-lane results.  An in-run ratio, so host speed cancels out.
* ``test_multiply_stage_speedup`` runs 32 jobs at n = 64 through
  ``MultiplicationStage.process_batch`` (one lane-parallel carry-save
  sweep, wear charged in closed form) and through the test suite's
  sequential oracle (one row and one pass at a time, per-pass wear),
  and asserts the stage is at least 4x faster per job with identical
  products and wear.

Runs under pytest (``pytest benchmarks/bench_batched_pipeline.py``)
and as a script (``python benchmarks/bench_batched_pipeline.py``),
which exits non-zero when a speedup floor is missed — the CI perf
smoke check.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

from repro.eval.report import format_table
from repro.karatsuba.multiply import MultiplicationStage
from repro.karatsuba.pipeline import KaratsubaPipeline
from repro.karatsuba.postcompute import PostcomputeStage
from repro.karatsuba.precompute import PrecomputeStage
from repro.magic.backend import get_backend
from repro.sim.clock import Clock

#: Acceptance workload: one full batch at the paper's flagship width.
N_BITS = 256
JOBS = 32
BATCH_SIZE = 32

#: Required advantage of the batched path over job-by-job execution.
MIN_SPEEDUP = 8.0

#: Lanes for the backend shoot-out: a lane-full batch.
BACKEND_LANES = 64

#: Required advantage of the word-packed replay over the bit-plane
#: replay on the 64-lane n = 256 stage mega-programs.
MIN_BACKEND_SPEEDUP = 6.0

#: Lane-light floor: the widest postcompute mega-program at the lane
#: count of a sparse mixed-width batch, word backend vs scalar oracle.
LANE_LIGHT_BITS = 384
LANE_LIGHT_LANES = 5
MIN_LANE_LIGHT_SPEEDUP = 100.0

#: Multiply-stage floor: one lane-parallel batch vs the sequential
#: per-row oracle, per job.
MULTIPLY_BITS = 64
MULTIPLY_JOBS = 32
MIN_MULTIPLY_SPEEDUP = 4.0

#: Timing repetitions per backend; best-of is reported so scheduler
#: noise cannot fail the floor.  A word replay takes a few ms, so one
#: burst of contention on a shared host can cover three repetitions.
BACKEND_REPS = 7


def _measure(batch_size):
    rng = random.Random(0xD47E)
    pairs = [
        (rng.randrange(2**N_BITS), rng.randrange(2**N_BITS))
        for _ in range(JOBS)
    ]
    pipeline = KaratsubaPipeline(N_BITS)
    begin = time.perf_counter()
    result = pipeline.run_stream(pairs, batch_size=batch_size)
    elapsed = time.perf_counter() - begin
    assert result.products == [a * b for a, b in pairs]
    return elapsed, result, pipeline


def run_bench():
    seq_seconds, seq_result, seq_pipeline = _measure(None)
    bat_seconds, bat_result, bat_pipeline = _measure(BATCH_SIZE)
    speedup = seq_seconds / bat_seconds

    assert seq_result.products == bat_result.products
    assert seq_result.makespan_cc == bat_result.makespan_cc
    assert (
        seq_pipeline.controller.total_energy_fj()
        == bat_pipeline.controller.total_energy_fj()
    )
    assert (
        seq_pipeline.controller.max_writes()
        == bat_pipeline.controller.max_writes()
    )

    rows = [
        ("sequential (oracle)", f"{seq_seconds:.3f}", f"{seq_seconds / JOBS * 1e3:.1f}"),
        ("batched (SIMD x32)", f"{bat_seconds:.3f}", f"{bat_seconds / JOBS * 1e3:.1f}"),
    ]
    table = format_table(
        ("path", "wall s", "ms/job"),
        rows,
        title=(
            f"Batched executor, {JOBS} jobs at n = {N_BITS}: "
            f"{speedup:.1f}x speedup (floor {MIN_SPEEDUP:.0f}x)"
        ),
    )
    return speedup, table


def _mega_workload(stage, lanes):
    """A stage's compiled mega-program with *lanes* random binding sets."""
    program = stage._mega_program()[0]
    compiled = stage.executor.compile(program)
    rng = random.Random(0xB0BA)
    widths = dict(compiled.write_specs)
    bindings = [
        {name: rng.randrange(2 ** min(widths[name], 60)) for name in widths}
        for _ in range(lanes)
    ]
    return compiled, bindings


def _stage_workloads():
    """The n = 256 stage mega-programs with 64 random binding sets."""
    workloads = []
    for label, stage in (
        ("precompute", PrecomputeStage(N_BITS)),
        ("postcompute", PostcomputeStage(N_BITS)),
    ):
        compiled, bindings = _mega_workload(stage, BACKEND_LANES)
        workloads.append((label, stage, compiled, bindings))
    return workloads


def _replay(backend, stage, compiled, bindings):
    """Best-of-``BACKEND_REPS`` replay time plus per-lane results."""
    best = float("inf")
    results = None
    for _ in range(BACKEND_REPS):
        array = backend.make_array(stage.array, len(bindings))
        array.reset_to_ones()
        executor = backend.make_executor(array, clock=Clock())
        begin = time.perf_counter()
        stats = executor.execute(compiled, bindings)
        best = min(best, time.perf_counter() - begin)
        lane_results = [s.results for s in stats]
        assert results is None or results == lane_results
        results = lane_results
    return best, results


def run_backend_bench():
    bitplane = get_backend("bitplane")
    word = get_backend("word")
    rows = []
    bp_total = wd_total = 0.0
    for label, stage, compiled, bindings in _stage_workloads():
        bp_seconds, bp_results = _replay(bitplane, stage, compiled, bindings)
        wd_seconds, wd_results = _replay(word, stage, compiled, bindings)
        assert bp_results == wd_results, f"{label}: backend results diverge"
        bp_total += bp_seconds
        wd_total += wd_seconds
        rows.append(
            (
                label,
                f"{bp_seconds * 1e3:.1f}",
                f"{wd_seconds * 1e3:.1f}",
                f"{bp_seconds / wd_seconds:.1f}x",
            )
        )
    speedup = bp_total / wd_total
    rows.append(
        (
            "combined",
            f"{bp_total * 1e3:.1f}",
            f"{wd_total * 1e3:.1f}",
            f"{speedup:.1f}x",
        )
    )
    table = format_table(
        ("stage replay", "bit-plane ms", "word ms", "speedup"),
        rows,
        title=(
            f"Word-packed backend, {BACKEND_LANES} lanes at n = {N_BITS}: "
            f"{speedup:.1f}x speedup (floor {MIN_BACKEND_SPEEDUP:.0f}x)"
        ),
    )
    return speedup, table


def run_lane_light_bench():
    stage = PostcomputeStage(LANE_LIGHT_BITS)
    compiled, bindings = _mega_workload(stage, LANE_LIGHT_LANES)
    scalar_s, scalar_results = _replay(
        get_backend("scalar"), stage, compiled, bindings
    )
    word_s, word_results = _replay(get_backend("word"), stage, compiled, bindings)
    assert scalar_results == word_results, "lane-light results diverge"
    speedup = scalar_s / word_s
    table = format_table(
        ("postcompute replay", "scalar ms", "word ms", "speedup"),
        [
            (
                f"n = {LANE_LIGHT_BITS}, {LANE_LIGHT_LANES} lanes",
                f"{scalar_s * 1e3:.1f}",
                f"{word_s * 1e3:.1f}",
                f"{speedup:.1f}x",
            )
        ],
        title=(
            f"Word backend lane-light: {speedup:.1f}x over the scalar "
            f"oracle (floor {MIN_LANE_LIGHT_SPEEDUP:.0f}x)"
        ),
    )
    return speedup, table


def _sequential_oracle():
    """``sequential_pass`` and ``karatsuba_operands`` from the suite."""
    root = str(Path(__file__).resolve().parents[1])
    if root not in sys.path:  # script mode
        sys.path.insert(0, root)
    from tests.test_rowmul import karatsuba_operands, sequential_pass

    return karatsuba_operands, sequential_pass


def run_multiply_bench():
    karatsuba_operands, sequential_pass = _sequential_oracle()
    operands = karatsuba_operands(
        random.Random(0x5EED), MULTIPLY_BITS, MULTIPLY_JOBS
    )
    seq_s = bat_s = float("inf")
    for _ in range(BACKEND_REPS):
        oracle = MultiplicationStage(MULTIPLY_BITS)
        begin = time.perf_counter()
        expected = [sequential_pass(oracle, ops) for ops in operands]
        seq_s = min(seq_s, time.perf_counter() - begin)

        stage = MultiplicationStage(MULTIPLY_BITS)
        begin = time.perf_counter()
        results = stage.process_batch(operands)
        bat_s = min(bat_s, time.perf_counter() - begin)

        assert [r.products for r in results] == expected
        for out, row in stage.rows.items():
            assert row.cell_writes.tolist() == (
                oracle.rows[out].cell_writes.tolist()
            ), f"{out}: wear diverges from the sequential oracle"
    speedup = seq_s / bat_s
    table = format_table(
        ("multiply stage", "us/job", "speedup"),
        [
            (
                "sequential (oracle)",
                f"{seq_s / MULTIPLY_JOBS * 1e6:.0f}",
                "1.0x",
            ),
            (
                "lane-parallel batch",
                f"{bat_s / MULTIPLY_JOBS * 1e6:.0f}",
                f"{speedup:.1f}x",
            ),
        ],
        title=(
            f"Multiply stage, {MULTIPLY_JOBS} jobs at n = {MULTIPLY_BITS}: "
            f"{speedup:.1f}x speedup (floor {MIN_MULTIPLY_SPEEDUP:.0f}x)"
        ),
    )
    return speedup, table


def _register(name, table):
    try:
        from benchmarks.conftest import register_report

        register_report(name, table)
    except ImportError:  # script mode, no harness
        pass


def test_batched_run_stream_speedup():
    speedup, table = run_bench()
    _register("batched-pipeline", table)
    assert speedup >= MIN_SPEEDUP, (
        f"batched run_stream only {speedup:.2f}x faster than sequential "
        f"(needs >= {MIN_SPEEDUP}x)"
    )


def test_word_backend_speedup():
    speedup, table = run_backend_bench()
    _register("word-backend", table)
    assert speedup >= MIN_BACKEND_SPEEDUP, (
        f"word-packed replay only {speedup:.2f}x faster than bit-plane "
        f"(needs >= {MIN_BACKEND_SPEEDUP}x)"
    )


def test_word_backend_lane_light():
    speedup, table = run_lane_light_bench()
    _register("word-lane-light", table)
    assert speedup >= MIN_LANE_LIGHT_SPEEDUP, (
        f"lane-light word replay only {speedup:.2f}x faster than scalar "
        f"(needs >= {MIN_LANE_LIGHT_SPEEDUP}x)"
    )


def test_multiply_stage_speedup():
    speedup, table = run_multiply_bench()
    _register("multiply-stage", table)
    assert speedup >= MIN_MULTIPLY_SPEEDUP, (
        f"lane-parallel multiply stage only {speedup:.2f}x faster than "
        f"the sequential oracle (needs >= {MIN_MULTIPLY_SPEEDUP}x)"
    )


if __name__ == "__main__":
    failed = False
    for measured, report, floor, name in (
        (*run_bench(), MIN_SPEEDUP, "batched"),
        (*run_backend_bench(), MIN_BACKEND_SPEEDUP, "word backend"),
        (*run_lane_light_bench(), MIN_LANE_LIGHT_SPEEDUP, "lane-light word"),
        (*run_multiply_bench(), MIN_MULTIPLY_SPEEDUP, "multiply stage"),
    ):
        print(report)
        if measured < floor:
            print(f"FAIL: {name} speedup {measured:.2f}x below floor {floor}x")
            failed = True
        else:
            print(f"OK: {name} speedup {measured:.2f}x")
    sys.exit(1 if failed else 0)
