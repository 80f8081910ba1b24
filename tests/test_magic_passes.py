"""Tests for the SIMD cycle-packing optimizer (`repro.magic.passes`).

Covers the dependence DAG, the list-scheduling cycle packer, the
windowed INIT coalescer, scratch-row reallocation, the pass manager's
verification contract, packed-op execution on both executors, the
property-based semantic-equivalence suite over random synthesized
programs, and the end-to-end `optimize=` wiring through the adders,
the pipeline stages and the service.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.arith.koggestone import standalone_adder
from repro.arith.ripple import standalone_ripple
from repro.crossbar.array import CrossbarArray
from repro.magic import (
    MagicExecutor,
    ParallelNor,
    ParallelNot,
    PassManager,
    ProgramBuilder,
    check_protocol,
    coalesce_inits,
    dependence_dag,
    dump_asm,
    load_asm,
    optimize_program,
    pack_cycles,
    reallocate_scratch,
)
from repro.magic.backend import BACKEND_NAMES, get_backend
from repro.magic.executor import BatchedMagicExecutor, int_to_bits
from repro.magic.ops import Init, Nor, Not
from repro.magic.passes import drop_nops, summarize_reports
from repro.magic.program import Program
from repro.magic.synth import emit_and, emit_maj3, emit_or, emit_xnor, emit_xor
from repro.sim.exceptions import ProgramError


# ----------------------------------------------------------------------
# Satellite: cached Program properties
# ----------------------------------------------------------------------
class TestCachedProperties:
    def _program(self):
        return (
            ProgramBuilder()
            .init([2, 3])
            .nor([0, 1], 2)
            .not_(2, 3)
            .read(3, "out")
            .build()
        )

    def test_seal_precomputes_and_caches(self):
        prog = self._program().seal()
        assert prog._cache  # populated by seal()
        assert prog.cycle_count == 4
        assert prog.histogram() == {"init": 1, "nor": 1, "not": 1, "read": 1}
        assert prog.cycles_by_opcode()["nor"] == 1
        assert prog.rows_touched() == (0, 1, 2, 3)

    def test_cache_entries_are_stamped_copies(self):
        prog = self._program()
        hist = prog.histogram()
        hist["nor"] = 999  # caller mutation must not poison the cache
        assert prog.histogram()["nor"] == 1
        # The cached tuple for rows is returned directly (immutable).
        assert prog.rows_touched() is prog.rows_touched()

    def test_extend_invalidates_cache(self):
        prog = self._program()
        assert prog.cycle_count == 4
        extra = ProgramBuilder().nop(3).build()
        prog.extend(extra)
        assert prog.cycle_count == 7
        assert prog.histogram()["nop"] == 1


# ----------------------------------------------------------------------
# Dependence DAG
# ----------------------------------------------------------------------
class TestDependenceDag:
    def test_raw_war_waw_edges(self):
        prog = (
            ProgramBuilder()
            .init([2])
            .nor([0, 1], 2)     # RAW on init(2) is a WAW; reads 0,1
            .nor([2], 3)        # RAW on op1
            .init([2])          # WAR on op2, WAW on op1
            .build()
        )
        preds, succs = dependence_dag(prog)
        assert 0 in preds[1]            # WAW init -> nor
        assert 1 in preds[2]            # RAW
        assert 2 in preds[3]            # WAR: re-init must wait for reader
        assert 3 in succs[2]

    def test_independent_ops_unordered(self):
        prog = (
            ProgramBuilder()
            .nor([0, 1], 2)
            .nor([3, 4], 5)
            .build()
        )
        preds, _ = dependence_dag(prog)
        assert preds[0] == set() and preds[1] == set()

    def test_nop_is_a_barrier(self):
        prog = (
            ProgramBuilder()
            .nor([0, 1], 2)
            .nop(1)
            .nor([3, 4], 5)
            .build()
        )
        preds, _ = dependence_dag(prog)
        assert 0 in preds[1]
        assert 1 in preds[2]

    def test_reads_of_same_name_serialise(self):
        prog = (
            ProgramBuilder()
            .read(0, "x")
            .read(1, "x")       # later read of the same name wins
            .build()
        )
        preds, _ = dependence_dag(prog)
        assert 0 in preds[1]


# ----------------------------------------------------------------------
# Cycle packing
# ----------------------------------------------------------------------
class TestPackCycles:
    def test_independent_nors_pack_into_one_cycle(self):
        prog = (
            ProgramBuilder()
            .init([4, 5, 6])
            .nor([0, 1], 4)
            .nor([2, 3], 5)
            .nor([0, 2], 6)     # shares input rows with the others: legal
            .build()
        )
        packed = pack_cycles(prog)
        assert packed.cycle_count == 2
        pack = packed.ops[1]
        assert isinstance(pack, ParallelNor)
        assert len(pack.gates) == 3
        assert pack.opcode == "nor"
        assert pack.cycles == 1

    def test_output_feeding_next_gate_serialises(self):
        prog = (
            ProgramBuilder()
            .init([2, 3])
            .nor([0, 1], 2)
            .nor([2], 3)        # reads the first gate's output
            .build()
        )
        packed = pack_cycles(prog)
        assert packed.cycle_count == 3
        assert not any(isinstance(op, ParallelNor) for op in packed.ops)

    def test_output_colliding_with_pack_operand_excluded(self):
        # Second gate writes row 0, an operand of the first: same-cycle
        # issue would race the voltage-driven input word line.
        prog = (
            ProgramBuilder()
            .init([4, 0])
            .nor([0, 1], 4)
            .nor([2, 3], 0)
            .build()
        )
        packed = pack_cycles(prog)
        assert not any(isinstance(op, ParallelNor) for op in packed.ops)

    def test_max_pack_caps_gang_size(self):
        builder = ProgramBuilder().init(list(range(8, 12)))
        for i in range(4):
            builder.nor([i, i + 4], 8 + i)
        packed = pack_cycles(builder.build(), max_pack=2)
        gangs = [
            len(op.gates)
            for op in packed.ops
            if isinstance(op, ParallelNor)
        ]
        assert gangs and max(gangs) <= 2

    def test_ready_inits_merge(self):
        prog = (
            ProgramBuilder()
            .init([2])
            .init([3])
            .nor([0, 1], 2)
            .build()
        )
        packed = pack_cycles(prog)
        inits = [op for op in packed.ops if isinstance(op, Init)]
        assert len(inits) == 1 and set(inits[0].rows) == {2, 3}

    def test_emission_is_topological_and_complete(self):
        builder = ProgramBuilder()
        builder.init([4, 5, 6, 7])
        builder.nor([0, 1], 4)
        builder.nor([4, 2], 5)
        builder.nor([5, 3], 6)
        builder.not_(6, 7)
        builder.read(7, "out")
        prog = builder.build()
        packed = pack_cycles(prog)
        assert packed.histogram().get("read") == 1
        assert packed.cycle_count <= prog.cycle_count


# ----------------------------------------------------------------------
# Satellite: windowed (non-adjacent) INIT coalescing
# ----------------------------------------------------------------------
class TestWindowedCoalesce:
    def test_non_adjacent_inits_merge_across_independent_ops(self):
        # Regression for the old adjacent-only limitation: a NOR that
        # touches neither INIT's rows sits between them.
        prog = (
            ProgramBuilder()
            .init([5])
            .nor([0, 1], 5)
            .init([6])
            .build()
        )
        # Old behaviour: nothing merged (ops are not adjacent).  Now
        # init(6) hoists into init(5): row 6 is untouched in between.
        merged = coalesce_inits(prog)
        inits = [op for op in merged.ops if isinstance(op, Init)]
        assert len(inits) == 1
        assert set(inits[0].rows) == {5, 6}
        assert merged.cycle_count == prog.cycle_count - 1

    def test_blocked_when_window_rows_touched_in_between(self):
        prog = (
            ProgramBuilder()
            .init([5])
            .nor([0, 1], 6)     # writes row 6 before its re-arming INIT
            .init([6])
            .build()
        )
        merged = coalesce_inits(prog)
        inits = [op for op in merged.ops if isinstance(op, Init)]
        assert len(inits) == 2  # the merge would change semantics

    def test_different_column_windows_do_not_merge(self):
        prog = (
            ProgramBuilder()
            .init([5], (0, 4))
            .nor([0, 1], 5, (0, 4))
            .init([6], (4, 8))
            .build()
        )
        merged = coalesce_inits(prog)
        inits = [op for op in merged.ops if isinstance(op, Init)]
        assert len(inits) == 2


# ----------------------------------------------------------------------
# Scratch reallocation
# ----------------------------------------------------------------------
class TestReallocateScratch:
    def test_disjoint_lifetimes_share_one_row(self):
        prog = (
            ProgramBuilder()
            .init([4])
            .nor([0, 1], 4)
            .nor([4], 2)        # row 4 dead after this
            .init([5])
            .nor([2, 3], 5)
            .nor([5], 6)
            .build()
        )
        remapped, mapping = reallocate_scratch(prog, pool=[4, 5])
        assert mapping == {4: 4, 5: 4}
        assert 5 not in remapped.rows_touched()

    def test_overlapping_lifetimes_stay_apart(self):
        prog = (
            ProgramBuilder()
            .init([4, 5])
            .nor([0, 1], 4)
            .nor([2, 3], 5)
            .nor([4, 5], 6)
            .build()
        )
        _, mapping = reallocate_scratch(prog, pool=[4, 5])
        assert mapping[4] != mapping[5]

    def test_non_pool_rows_untouched(self):
        prog = ProgramBuilder().init([4]).nor([0, 1], 4).build()
        remapped, _ = reallocate_scratch(prog, pool=[9, 10])
        assert remapped.rows_touched() == prog.rows_touched()


# ----------------------------------------------------------------------
# Pass manager
# ----------------------------------------------------------------------
class TestPassManager:
    def _program(self):
        return (
            ProgramBuilder(label="demo")
            .init([4])
            .init([5])
            .nor([0, 1], 4)
            .nor([2, 3], 5)
            .nop(1)
            .read(4, "p")
            .read(5, "q")
            .build()
        )

    def test_default_pipeline_shrinks_and_verifies(self):
        result = optimize_program(self._program())
        assert result.cycles_after < result.cycles_before
        assert result.program.label == "demo+opt"
        assert check_protocol(result.program).ok
        names = [p.name for p in result.passes]
        assert names == ["drop-nops", "coalesce-inits", "pack-cycles"]
        assert result.cycles_saved == sum(p.cycles_saved for p in result.passes)
        assert result.pack_factor > 1.0

    def test_keep_nops_preserves_alignment(self):
        result = optimize_program(self._program(), keep_nops=True)
        assert result.program.histogram().get("nop") == 1

    def test_slower_pass_rejected(self):
        slow = ("pad", lambda p: Program(ops=list(p.ops) + [Init(rows=(9,))]))
        with pytest.raises(ProgramError, match="increased cycles"):
            PassManager(passes=[slow]).run(self._program())

    def test_protocol_breaking_pass_rejected(self):
        def strip_inits(p):
            return Program(
                ops=[op for op in p.ops if not isinstance(op, Init)]
            )

        with pytest.raises(ProgramError, match="init discipline"):
            PassManager(passes=[("strip", strip_inits)]).run(self._program())

    def test_summarize_reports_aggregates(self):
        reports = [optimize_program(self._program()) for _ in range(2)]
        summary = summarize_reports(reports)
        assert summary["enabled"] is True
        assert summary["cycles_saved"] == 2 * reports[0].cycles_saved
        assert summary["pack_factor"] > 1.0
        assert summary["by_pass"]["pack-cycles"] >= 2


# ----------------------------------------------------------------------
# Packed micro-ops: validation, execution, assembly text
# ----------------------------------------------------------------------
class TestPackedOps:
    def test_pack_rejects_colliding_outputs(self):
        with pytest.raises(ProgramError):
            ParallelNor(
                gates=(
                    Nor(in_rows=(0, 1), out_row=4),
                    Nor(in_rows=(2, 3), out_row=4),
                )
            )

    def test_pack_rejects_output_overlapping_pack_reads(self):
        with pytest.raises(ProgramError):
            ParallelNor(
                gates=(
                    Nor(in_rows=(0, 1), out_row=4),
                    Nor(in_rows=(2, 3), out_row=0),
                )
            )

    def test_scalar_executor_runs_pack_in_one_cycle(self):
        array = CrossbarArray(8, 4)
        array.state[:] = True
        array.write_row(0, int_to_bits(0b1010, 4))
        array.write_row(1, int_to_bits(0b0110, 4))
        prog = Program(
            ops=[
                Init(rows=(4, 5)),
                ParallelNor(
                    gates=(
                        Nor(in_rows=(0, 1), out_row=4),
                        Nor(in_rows=(0,), out_row=5),
                    )
                ),
            ]
        )
        executor = MagicExecutor(array)
        stats = executor.execute(prog)
        assert stats.cycles == 2
        assert stats.nor_ops == 2
        got4 = [int(b) for b in array.read_row(4)]
        got5 = [int(b) for b in array.read_row(5)]
        a = [0, 1, 0, 1]    # 0b1010, LSB-first columns
        b = [0, 1, 1, 0]    # 0b0110
        assert got4 == [1 - (x | y) for x, y in zip(a, b)]
        assert got5 == [1 - x for x in a]

    def test_asm_roundtrip_packed(self):
        prog = Program(
            ops=[
                Init(rows=(4, 5, 6)),
                ParallelNor(
                    gates=(
                        Nor(in_rows=(0, 1), out_row=4, cols=(0, 8)),
                        Nor(in_rows=(2, 3), out_row=5, cols=(0, 8)),
                    )
                ),
                ParallelNot(
                    gates=(
                        Not(in_row=4, out_row=6),
                    )
                ),
            ],
            label="packed",
        )
        text = dump_asm(prog)
        assert "pnor" in text and "pnot" in text
        again = load_asm(text)
        assert again.ops == prog.ops


# ----------------------------------------------------------------------
# Satellite: property-based semantic equivalence
# ----------------------------------------------------------------------
ROWS, COLS = 16, 8


def _random_program(rng: random.Random, steps: int = 10) -> Program:
    """A random protocol-correct MAGIC program over a 16x8 array.

    Rows 0-3 hold named inputs (bound at execution time), the rest is
    working space.  Every target row is armed immediately before its
    macro, NOPs are sprinkled in as controller alignment, and a few
    rows are read back at the end — exactly the shape the stage
    generators emit, minus the hand-tuning.
    """
    builder = ProgramBuilder(label="fuzz")
    for i in range(4):
        builder.write(i, f"in{i}", width=COLS)
    written = [0, 1, 2, 3]
    pool = list(range(4, ROWS))
    for _ in range(steps):
        macro = rng.choice(("and", "or", "xor", "xnor", "maj", "nor", "not"))
        rows = rng.sample(pool, 7)
        out, scratch = rows[0], rows[1:]
        candidates = [r for r in written if r not in rows]
        srcs = [rng.choice(candidates) for _ in range(3)]
        if macro == "nor":
            builder.init([out])
            builder.nor(srcs[:2], out)
        elif macro == "not":
            builder.init([out])
            builder.not_(srcs[0], out)
        elif macro == "and":
            builder.init(scratch[:2] + [out])
            emit_and(builder, srcs[0], srcs[1], out, scratch[:2])
        elif macro == "or":
            builder.init(scratch[:1] + [out])
            emit_or(builder, srcs[0], srcs[1], out, scratch[:1])
        elif macro == "xor":
            builder.init(scratch[:4] + [out])
            emit_xor(builder, srcs[0], srcs[1], out, scratch[:4])
        elif macro == "xnor":
            builder.init(scratch[:3] + [out])
            emit_xnor(builder, srcs[0], srcs[1], out, scratch[:3])
        else:
            builder.init(scratch[:6] + [out])
            emit_maj3(builder, srcs[0], srcs[1], srcs[2], out, scratch[:6])
        written.append(out)
        if rng.random() < 0.25:
            builder.nop(rng.randint(1, 2))
    for i, row in enumerate(rng.sample(written, min(4, len(written)))):
        builder.read(row, f"out{i}", width=COLS)
    return builder.build()


class TestPropertyEquivalence:
    """Optimized and unoptimized programs must be indistinguishable to
    the memory: identical final state, identical read results, on both
    executors — while cycles and energy never get worse."""

    TRIALS = 12

    def _bindings(self, rng):
        return {f"in{i}": rng.getrandbits(COLS) for i in range(4)}

    def test_scalar_equivalence(self, rng):
        total_before = total_after = 0
        for _ in range(self.TRIALS):
            prog = _random_program(rng)
            result = optimize_program(prog)
            bindings = self._bindings(rng)
            states, reads, energies, cycles = [], [], [], []
            for variant in (prog, result.program):
                array = CrossbarArray(ROWS, COLS)
                array.state[:] = True
                stats = MagicExecutor(array).execute(variant, bindings)
                states.append(array.state.copy())
                reads.append(dict(stats.results))
                energies.append(stats.energy_fj)
                cycles.append(stats.cycles)
            assert np.array_equal(states[0], states[1])
            assert reads[0] == reads[1]
            assert energies[1] <= energies[0] + 1e-9
            assert cycles[1] <= cycles[0]
            total_before += cycles[0]
            total_after += cycles[1]
        assert total_after < total_before  # packing finds real slack

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_batched_equivalence(self, rng, backend):
        resolved = get_backend(backend)
        for _ in range(4):
            prog = _random_program(rng)
            result = optimize_program(prog)
            bindings_list = [self._bindings(rng) for _ in range(5)]
            per_variant, totals = [], []
            for variant in (prog, result.program):
                array = CrossbarArray(ROWS, COLS)
                array.state[:] = True
                lanes = resolved.make_array(array, len(bindings_list))
                stats = resolved.make_executor(lanes).execute(
                    variant, bindings_list
                )
                per_variant.append(stats)
                totals.append(lanes.total_energy_fj())
            base, packed = per_variant
            for lane in range(len(bindings_list)):
                assert base[lane].results == packed[lane].results
                if backend != "word":  # the word backend keeps a total
                    assert abs(
                        base[lane].energy_fj - packed[lane].energy_fj
                    ) < 1e-6
            assert abs(totals[0] - totals[1]) < 1e-6

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_scalar_and_batched_agree_on_packed_program(self, rng, backend):
        prog = optimize_program(_random_program(rng)).program
        bindings_list = [self._bindings(rng) for _ in range(3)]
        scalar_reads = []
        for bindings in bindings_list:
            array = CrossbarArray(ROWS, COLS)
            array.state[:] = True
            stats = MagicExecutor(array).execute(prog, bindings)
            scalar_reads.append(dict(stats.results))
        array = CrossbarArray(ROWS, COLS)
        array.state[:] = True
        resolved = get_backend(backend)
        batched = resolved.make_executor(
            resolved.make_array(array, len(bindings_list))
        )
        stats = batched.execute(batched.compile(prog), bindings_list)
        assert [dict(s.results) for s in stats] == scalar_reads


# ----------------------------------------------------------------------
# Opt-out: the paper's closed forms stay the default
# ----------------------------------------------------------------------
class TestAdderOptOut:
    def test_koggestone_default_matches_closed_form(self):
        from repro.arith import koggestone

        adder, _ = standalone_adder(16)
        assert adder.program("add").cycle_count == koggestone.latency_cc(16)
        assert adder.latency_cc() == koggestone.latency_cc(16)

    def test_koggestone_optimized_is_faster_and_exact(self, rng):
        adder, executor = standalone_adder(16)
        base = adder.program("add")
        packed = adder.program("add", optimize=True)
        assert packed.cycle_count < base.cycle_count
        assert adder.optimizer_reports["add"].cycles_saved > 0
        assert adder.latency_cc(optimize=True) == packed.cycle_count
        for trial in range(4):
            x, y = rng.getrandbits(16), rng.getrandbits(16)
            assert adder.run(
                executor, x, y, first_use=(trial == 0), optimize=True
            ) == x + y

    def test_koggestone_optimized_sub(self, rng):
        adder, executor = standalone_adder(16)
        x = rng.getrandbits(16)
        y = rng.randrange(x + 1)
        assert adder.run(
            executor, x, y, op="sub", first_use=True, optimize=True
        ) == x - y

    def test_ripple_default_matches_closed_form(self):
        from repro.arith import ripple

        adder, _ = standalone_ripple(8)
        assert adder.program().cycle_count == ripple.latency_cc(8)
        assert adder.program(optimize=True).cycle_count < ripple.latency_cc(8)

    def test_nor_cycles_shrink(self):
        adder, _ = standalone_adder(16)
        base = adder.program("add").cycles_by_opcode()["nor"]
        packed = adder.program("add", optimize=True).cycles_by_opcode()["nor"]
        assert packed < base


# ----------------------------------------------------------------------
# End-to-end: stages, pipeline, service, CLI
# ----------------------------------------------------------------------
class TestOptimizedPipeline:
    def test_pipeline_optimized_is_bit_exact_and_faster(self, rng):
        from repro.karatsuba.pipeline import KaratsubaPipeline

        n = 16
        pairs = [
            (rng.getrandbits(n), rng.getrandbits(n)) for _ in range(4)
        ]
        baseline = KaratsubaPipeline(n)
        packed = KaratsubaPipeline(n, optimize=True)
        base_res = baseline.run_stream(pairs)
        opt_res = packed.run_stream(pairs)
        assert opt_res.products == base_res.products
        assert opt_res.products == [a * b for a, b in pairs]
        assert (
            opt_res.timing.latency_cc < base_res.timing.latency_cc
        )
        # Scalar (job-by-job) path agrees too.
        scalar = KaratsubaPipeline(n, optimize=True)
        scalar_res = scalar.run_stream(pairs[:2], batch_size=None)
        assert scalar_res.products == [a * b for a, b in pairs[:2]]

    def test_default_pipeline_reproduces_paper_latency(self):
        from repro.karatsuba import postcompute, precompute
        from repro.karatsuba.pipeline import KaratsubaPipeline

        timing = KaratsubaPipeline(16).timing()
        assert timing.stage_latencies[0] == precompute.latency_cc(16)
        assert timing.stage_latencies[2] == postcompute.latency_cc(16)

    def test_controller_optimizer_stats(self, rng):
        from repro.karatsuba.pipeline import KaratsubaPipeline

        pipe = KaratsubaPipeline(16, optimize=True)
        pipe.multiply(rng.getrandbits(16), rng.getrandbits(16))
        stats = pipe.controller.optimizer_stats()
        assert stats["enabled"] is True
        assert stats["precompute"]["cycles_saved"] > 0
        assert stats["postcompute"]["cycles_saved"] > 0
        off = KaratsubaPipeline(16).controller.optimizer_stats()
        assert off == {"enabled": False}


class TestServiceOptimizer:
    def test_snapshot_exposes_additive_optimizer_keys(self):
        from repro.service import MultiplicationService, ServiceConfig

        svc = MultiplicationService(
            ServiceConfig(batch_size=2, ways_per_width=1)
        )
        for a in range(4):
            svc.submit(a + 2, a + 9, 16)
        results = svc.drain()
        assert [r.product for r in results] == [
            (a + 2) * (a + 9) for a in range(4)
        ]
        snap = svc.snapshot()
        opt = snap["optimizer"]
        assert opt["enabled"] is True
        assert opt["cycles_saved"] > 0
        assert opt["pack_factor"] > 1.0
        assert opt["by_pass"]["pack-cycles"] > 0
        assert snap["counters"]["optimizer_cycles_saved"] == opt["cycles_saved"]
        # Snapshot again: the counter must not double-count.
        snap2 = svc.snapshot()
        assert (
            snap2["counters"]["optimizer_cycles_saved"]
            == opt["cycles_saved"]
        )

    def test_optimizer_opt_out(self):
        from repro.service import MultiplicationService, ServiceConfig

        svc = MultiplicationService(
            ServiceConfig(batch_size=2, ways_per_width=1, optimize=False)
        )
        svc.submit(7, 9, 16)
        results = svc.drain()
        assert results[0].product == 63
        assert svc.snapshot()["optimizer"] == {"enabled": False}


class TestOptimizeReportCli:
    def test_report_and_check_pass(self, capsys):
        from repro.cli import main

        assert main(["optimize-report", "--bits", "16", "--check"]) == 0
        out = capsys.readouterr().out
        assert "precompute" in out and "postcompute" in out
        assert "check: OK" in out
