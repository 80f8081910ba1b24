"""ExecutorBackend protocol: the scalar / bit-plane / word-packed
backends must be interchangeable — per-lane results, cycle counts,
write counters and femtojoule totals bit-identical to the scalar
oracle (per-lane energy too on the scalar and bit-plane backends; the
word backend keeps only the batch total) — plus regression tests for
the correctness-fix batch that rode along with the backend split
(compile-cache staleness, pack_ints edge cases, fleet pack-factor
aggregation).

Default device energies are integer-valued, so float equality is exact
and the comparisons below use ``==`` deliberately.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.arith.koggestone import KoggeStoneUnit
from repro.crossbar import CrossbarArray, WordPackedCrossbarArray
from repro.crossbar.faults import TransientFaultInjector, TransientFaultModel
from repro.karatsuba.pipeline import KaratsubaPipeline
from repro.magic import (
    BACKEND_NAMES,
    BACKENDS,
    ExecutorBackend,
    MagicExecutor,
    ProgramBuilder,
    WordPackedBackend,
    get_backend,
    pack_ints,
    unpack_ints,
)
from repro.magic.ops import Init
from repro.magic.program import Program
from repro.sim.clock import Clock
from repro.sim.exceptions import MagicProtocolError, ProgramError
from repro.telemetry import spans

from tests.test_batched_executor import (
    ROWS,
    COLS,
    _random_program,
    scalar_adder_runs,
)

ALL_BACKENDS = list(BACKEND_NAMES)
SIMD_BACKENDS = ["bitplane", "word"]


# ----------------------------------------------------------------------
# Registry / protocol surface
# ----------------------------------------------------------------------
class TestBackendRegistry:
    def test_canonical_names_resolve(self):
        for name in BACKEND_NAMES:
            backend = get_backend(name)
            assert isinstance(backend, ExecutorBackend)
            assert backend.name == name

    def test_aliases_resolve_to_same_instance(self):
        assert get_backend("bit-plane") is get_backend("bitplane")
        assert get_backend("word-packed") is get_backend("word")
        assert get_backend("WORD") is get_backend("word")

    def test_instance_passthrough(self):
        backend = WordPackedBackend()
        assert get_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown executor backend"):
            get_backend("simd512")

    def test_non_string_rejected(self):
        with pytest.raises(TypeError, match="backend must be"):
            get_backend(7)

    def test_registry_covers_canonical_names(self):
        assert set(BACKEND_NAMES) <= set(BACKENDS)


# ----------------------------------------------------------------------
# Randomized differential: every backend vs the per-lane scalar oracle
# ----------------------------------------------------------------------
def _scalar_oracle(
    program, bindings, strict_magic=True, spare_rows=0, remap=()
):
    runs = []
    for lane_bindings in bindings:
        array = CrossbarArray(
            ROWS, COLS, strict_magic=strict_magic, spare_rows=spare_rows
        )
        for row in remap:
            array.remap_row(row)
        executor = MagicExecutor(array, clock=Clock())
        stats = executor.execute(program, lane_bindings)
        runs.append((stats, array))
    return runs


class TestBackendDifferential:
    # Batch sizes straddle the word backend's 8-lane byte boundary (7, 8,
    # 9) and the 64-lane one, so its padding lanes are exercised.  The
    # non-strict case drops every INIT, so NOR outputs hold arbitrary
    # data and only switching cells may be charged RESET energy.
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize(
        "seed,batch,strict",
        [
            pytest.param(
                seed,
                batch,
                strict,
                id=f"{seed}-{batch}" + ("" if strict else "-nonstrict"),
            )
            for strict in (True, False)
            for seed, batch in (
                (0, 3), (1, 64), (2, 65), (3, 1), (4, 7), (5, 8), (6, 9)
            )
        ],
    )
    def test_random_programs_bit_exact(self, backend, seed, batch, strict):
        rng = random.Random(seed)
        program, writes = _random_program(rng)
        if not strict:
            program = Program(
                [op for op in program.ops if not isinstance(op, Init)],
                label=program.label,
            )
        bindings = [
            {name: rng.randrange(2**width) for name, width in writes}
            for _ in range(batch)
        ]
        oracle = _scalar_oracle(program, bindings, strict_magic=strict)

        resolved = get_backend(backend)
        template = CrossbarArray(ROWS, COLS, strict_magic=strict)
        array = resolved.make_array(template, batch)
        executor = resolved.make_executor(array, clock=Clock())
        stats_list = executor.execute(program, bindings)

        for lane, (stats, lane_array) in enumerate(oracle):
            got = stats_list[lane]
            assert got.results == stats.results
            assert got.cycles == stats.cycles
            assert got.op_counts == stats.op_counts
            assert got.nor_ops == stats.nor_ops
            assert got.shift_ops == stats.shift_ops
            if backend == "word":
                # No per-lane split: the stats say so loudly.
                assert math.isnan(got.energy_fj)
            else:
                assert got.energy_fj == stats.energy_fj
                assert got.energy_fj == array.lane_energy_fj(lane)
            assert np.array_equal(array.snapshot(lane), lane_array.snapshot())
        first = oracle[0][1]
        assert np.array_equal(array.writes, first.writes)
        assert array.max_writes() == first.max_writes()
        # At batch 1 the total is the one lane's energy.
        assert array.total_energy_fj() == sum(
            run.energy_fj for run, _ in oracle
        )

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_execute_batch_selects_backend(self, backend):
        array = CrossbarArray(2, 8)
        executor = MagicExecutor(array)
        program = (
            ProgramBuilder()
            .write(0, "x", width=8)
            .read(0, "out", width=8)
            .build()
        )
        stats = executor.execute_batch(
            program, [{"x": v} for v in (5, 250)], backend=backend
        )
        assert [s.results["out"] for s in stats] == [5, 250]
        # The scalar template array stays untouched either way.
        assert array.max_writes() == 0


class TestWordLowering:
    def test_remapped_replay_matches_oracle_on_one_lowering(self):
        """A replay after ``remap_row`` lands on the spare, and replays
        at any lane width share the program's single lowering."""
        rng = random.Random(8)
        program, writes = _random_program(rng)
        backend = get_backend("word")
        template = CrossbarArray(ROWS, COLS, spare_rows=1)
        compiled = MagicExecutor(template).compile(program)
        lowerings = []
        for batch, remap in ((3, ()), (40, (2,))):
            for row in remap:
                template.remap_row(row)
            bindings = [
                {name: rng.randrange(2**width) for name, width in writes}
                for _ in range(batch)
            ]
            oracle = _scalar_oracle(
                program, bindings, spare_rows=1, remap=remap
            )
            array = backend.make_array(template, batch)
            stats = backend.make_executor(array).execute(compiled, bindings)
            for lane, (want, lane_array) in enumerate(oracle):
                assert stats[lane].results == want.results
                assert np.array_equal(
                    array.snapshot(lane), lane_array.snapshot()
                )
            assert array.total_energy_fj() == sum(
                want.energy_fj for want, _ in oracle
            )
            assert np.array_equal(array.writes, oracle[0][1].writes)
            lowerings.append(compiled._word_lowered)
        assert template.remap_table() == {2: ROWS}
        assert lowerings[0] is not None
        assert lowerings[0] is lowerings[1]


class TestWordPackedErrors:
    def test_strict_nor_violation_raises(self):
        backend = get_backend("word")
        array = backend.make_array(CrossbarArray(2, 4), 3)
        executor = backend.make_executor(array)
        program = ProgramBuilder().nor([0], 1).build()  # out row never init'd
        array.write_row(1, np.zeros((3, 4), dtype=bool))
        with pytest.raises(MagicProtocolError, match="not initialised"):
            executor.execute(program, [{}, {}, {}])

    def test_lane_count_mismatch_raises(self):
        backend = get_backend("word")
        array = backend.make_array(CrossbarArray(2, 4), 3)
        executor = backend.make_executor(array)
        with pytest.raises(ProgramError, match="binding sets"):
            executor.execute(ProgramBuilder().nop().build(), [{}])

    def test_geometry_mismatch_raises(self):
        backend = get_backend("word")
        small = backend.make_executor(backend.make_array(CrossbarArray(2, 4), 1))
        compiled = small.compile(ProgramBuilder().nop().build())
        large = backend.make_executor(backend.make_array(CrossbarArray(4, 8), 1))
        with pytest.raises(ProgramError, match="compiled for"):
            large.execute(compiled, [{}])

    def test_unbound_operand_raises(self):
        backend = get_backend("word")
        array = backend.make_array(CrossbarArray(2, 8), 2)
        executor = backend.make_executor(array)
        program = ProgramBuilder().write(0, "x", width=8).build()
        with pytest.raises(ProgramError, match="unbound operand"):
            executor.execute(program, [{"x": 1}, {}])

    def test_from_scalar_copies_faults(self):
        template = CrossbarArray(4, 4)
        template.inject_fault(1, 2, "sa0")
        array = WordPackedCrossbarArray.from_scalar(template, 5)
        assert array.faults == {(1, 2): "sa0"}
        for lane in range(5):
            assert not array.snapshot(lane)[1, 2]


# ----------------------------------------------------------------------
# Fault-hook injection parity (satellite: backend-parametrized suite)
# ----------------------------------------------------------------------
def _fault_program():
    """NOR/WRITE/READ/SHIFT mix so every hook callback fires."""
    builder = ProgramBuilder(label="faulty")
    builder.write(0, "x", width=COLS)
    builder.write(1, "y", width=COLS)
    for out in (2, 3):
        builder.init([out])
        builder.nor([0, 1], out)
    builder.shift(2, 4, 3, fill=0)
    builder.read(3, "n", width=COLS)
    builder.read(4, "s", width=COLS)
    return builder.build()


class TestFaultHookParity:
    def test_word_matches_bitplane_under_same_seed(self):
        """Both SIMD backends draw (batch, cols) per callback in the
        same order, so a fixed seed strikes identical cells."""
        model = TransientFaultModel(
            nor_flip_prob=0.05, write_fail_prob=0.05, read_disturb_prob=0.05
        )
        program = _fault_program()
        batch = 9
        rng = random.Random(21)
        bindings = [
            {"x": rng.randrange(2**COLS), "y": rng.randrange(2**COLS)}
            for _ in range(batch)
        ]
        outcomes = {}
        for name in SIMD_BACKENDS:
            backend = get_backend(name)
            hook = TransientFaultInjector(model, seed=77)
            array = backend.make_array(CrossbarArray(ROWS, COLS), batch)
            executor = backend.make_executor(array, fault_hook=hook)
            stats = executor.execute(program, bindings)
            outcomes[name] = {
                "results": [s.results for s in stats],
                "energy": array.total_energy_fj(),
                "state": [array.snapshot(lane) for lane in range(batch)],
                "nor_flips": hook.nor_flips,
                "write_failures": hook.write_failures,
                "read_disturbs": hook.read_disturbs,
            }
        word, plane = outcomes["word"], outcomes["bitplane"]
        assert word["nor_flips"] == plane["nor_flips"] > 0
        assert word["write_failures"] == plane["write_failures"]
        assert word["read_disturbs"] == plane["read_disturbs"] > 0
        assert word["results"] == plane["results"]
        assert word["energy"] == plane["energy"]
        for lane in range(batch):
            assert np.array_equal(word["state"][lane], plane["state"][lane])

    def test_hooks_compose_with_pinned_faults_on_word(self):
        """Transient strikes re-pin permanent faults (layer composition)."""
        model = TransientFaultModel(nor_flip_prob=1.0)
        hook = TransientFaultInjector(model, seed=3)
        template = CrossbarArray(ROWS, COLS)
        template.inject_fault(2, 5, "sa1")
        backend = get_backend("word")
        array = backend.make_array(template, 4)
        executor = backend.make_executor(array, fault_hook=hook)
        program = (
            ProgramBuilder().write(0, "x", width=COLS).init([2]).nor([0], 2)
        ).build()
        executor.execute(program, [{"x": 0}] * 4)
        assert hook.nor_flips > 0
        for lane in range(4):
            assert array.snapshot(lane)[2, 5]  # sa1 survives the flips


# ----------------------------------------------------------------------
# Telemetry span parity (satellite: word-packed emits identical spans)
# ----------------------------------------------------------------------
class TestTelemetrySpanParity:
    def _spans_for(self, name):
        backend = get_backend(name)
        program, writes = _random_program(random.Random(5), ops=12)
        bindings = [
            {w: random.Random(6).randrange(2**width) for w, width in writes}
            for _ in range(3)
        ]
        with spans.tracing() as tracer:
            array = backend.make_array(CrossbarArray(ROWS, COLS), 3)
            executor = backend.make_executor(array, clock=Clock())
            executor.execute(program, bindings)
        return tracer.roots

    def test_word_span_matches_bitplane(self):
        word = self._spans_for("word")
        plane = self._spans_for("bitplane")
        assert len(word) == len(plane) == 1
        w, p = word[0], plane[0]
        assert w.name == p.name == "magic.program"
        assert (w.begin_cc, w.end_cc) == (p.begin_cc, p.end_cc)
        assert w.attrs == p.attrs
        assert w.attrs["lanes"] == 3
        assert w.attrs["ops"] > 0


# ----------------------------------------------------------------------
# Satellite 1: compile-cache staleness on in-place op mutation
# ----------------------------------------------------------------------
class TestCompileCacheGeneration:
    def test_same_length_mutation_invalidates_cache(self):
        array = CrossbarArray(2, 8)
        executor = MagicExecutor(array)
        program = (
            ProgramBuilder()
            .write(0, "x", width=8)
            .read(0, "out", width=8)
            .build()
        )
        stats = executor.execute_batch(program, [{"x": 9}])
        assert stats[0].results["out"] == 9
        stale = executor._compile_cache.get(program)

        # Swap the READ for one sensing row 1 instead — the op count and
        # list length are unchanged, which defeated the old
        # (id, len) cache key and replayed the stale compiled steps.
        generation = program.generation
        program.ops[1] = (
            ProgramBuilder().read(1, "out", width=8).build().ops[0]
        )
        assert program.generation == generation + 1
        fresh = executor._compile_cache.get(program)
        assert fresh is not stale
        stats = executor.execute_batch(program, [{"x": 9}])
        assert stats[0].results["out"] == 0  # row 1 was never written

    def test_every_list_mutator_bumps_generation(self):
        nop = ProgramBuilder().nop().build().ops[0]
        program = ProgramBuilder().nop().nop().build()
        observed = {program.generation}
        program.ops.append(nop)
        program.ops.insert(0, nop)
        program.ops[0] = nop
        program.ops.pop()
        program.ops.remove(nop)
        program.ops.extend([nop, nop])
        del program.ops[0]
        program.ops.reverse()
        program.ops.clear()
        observed.add(program.generation)
        assert program.generation == 9  # one bump per mutating call

    def test_memoized_properties_track_mutation(self):
        program = ProgramBuilder().nop(3).build()
        assert program.cycle_count == 3
        program.ops[0] = ProgramBuilder().nop(5).build().ops[0]
        assert program.cycle_count == 5


# ----------------------------------------------------------------------
# Satellite 3: pack_ints / unpack_ints edge cases and properties
# ----------------------------------------------------------------------
class TestPackingEdgeCases:
    def test_empty_batch_width_zero(self):
        packed = pack_ints([], 0)
        assert packed.shape == (0, 0)
        assert unpack_ints(packed) == []

    def test_width_zero_roundtrip(self):
        packed = pack_ints([0, 0, 0], 0)
        assert packed.shape == (3, 0)
        assert unpack_ints(packed) == [0, 0, 0]

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            pack_ints([1], -1)

    def test_validation_precedes_empty_early_return(self):
        # Regression: the old early return for width == 0 skipped value
        # validation, silently accepting unstorable values.
        with pytest.raises(ValueError):
            pack_ints([-1], 0)
        with pytest.raises(ValueError):
            pack_ints([1], 0)
        with pytest.raises(ValueError):
            pack_ints([0, 3], 0)

    def test_roundtrip_property_across_widths(self):
        rng = random.Random(13)
        for width in [0, 1, 2, 7, 8, 9, 31, 32, 33, 63, 64, 65, 128, 255, 256]:
            for batch in (0, 1, 5):
                values = [rng.randrange(2**width) if width else 0
                          for _ in range(batch)]
                packed = pack_ints(values, width)
                assert packed.shape == (batch, width)
                assert packed.dtype == np.bool_
                assert unpack_ints(packed) == values

    def test_boundary_values_roundtrip(self):
        for width in (1, 8, 64, 256):
            values = [0, 1, 2**width - 1, 2 ** (width - 1)]
            assert unpack_ints(pack_ints(values, width)) == values


# ----------------------------------------------------------------------
# Stage / pipeline / adder plumbing across backends
# ----------------------------------------------------------------------
class TestPipelineBackends:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_pipeline_backend_bit_identical(self, backend):
        rng = random.Random(31)
        pairs = [(rng.randrange(2**16), rng.randrange(2**16)) for _ in range(6)]
        reference = KaratsubaPipeline(16)  # historical bit-plane default
        candidate = KaratsubaPipeline(16, backend=backend)
        ref = reference.run_stream(pairs, batch_size=3)
        got = candidate.run_stream(pairs, batch_size=3)
        assert got.products == ref.products == [a * b for a, b in pairs]
        assert got.makespan_cc == ref.makespan_cc
        ref_ctl, got_ctl = reference.controller, candidate.controller
        assert got_ctl.total_energy_fj() == ref_ctl.total_energy_fj()
        assert got_ctl.max_writes() == ref_ctl.max_writes()
        assert np.array_equal(
            got_ctl.precompute.array.writes, ref_ctl.precompute.array.writes
        )
        assert np.array_equal(
            got_ctl.postcompute.array.writes, ref_ctl.postcompute.array.writes
        )

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_run_batch_adder_backend(self, backend):
        rng = random.Random(17)
        pairs = [(rng.randrange(256), rng.randrange(256)) for _ in range(5)]
        unit = KoggeStoneUnit(8, spare_rows=0, backend=backend)
        results = unit.run_pass(pairs, "add")
        assert results == [x + y for x, y in pairs]
        _, executor = scalar_adder_runs(pairs)
        assert np.array_equal(unit.array.writes, executor.array.writes)
        assert unit.array.energy_fj == executor.array.energy_fj

    def test_unknown_stage_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown executor backend"):
            KaratsubaPipeline(16, backend="gpu")


# ----------------------------------------------------------------------
# Satellite 2: fleet-wide pack-factor aggregation
# ----------------------------------------------------------------------
class TestServicePackFactor:
    def test_fleet_ratio_is_summed_gates_over_summed_cycles(self):
        from repro.service import MultiplicationService, ServiceConfig

        svc = MultiplicationService(
            ServiceConfig(batch_size=2, ways_per_width=2)
        )
        # Two widths with different stage programs keep the per-stage
        # pack factors uneven, which the old reconstruction
        # (sum of pack_factor * cycles_after) mis-weighted.
        for a in range(4):
            svc.submit(a + 2, a + 9, 16)
            svc.submit(a + 3, a + 7, 32)
        svc.drain()
        opt = svc.snapshot()["optimizer"]
        assert opt["enabled"] is True

        gates = 0
        after = 0
        stage_factors = set()
        for stats in opt["ways"].values():
            for stage_stats in (stats["precompute"], stats["postcompute"]):
                assert isinstance(stage_stats["gates"], int)
                gates += stage_stats["gates"]
                after += stage_stats["cycles_after"]
                stage_factors.add(round(stage_stats["pack_factor"], 9))
        assert len(stage_factors) > 1  # genuinely uneven stages
        assert opt["gates"] == gates
        assert opt["pack_factor"] == gates / after
        assert opt["pack_factor"] > 1.0

    def test_summarize_reports_exposes_raw_gates(self):
        from repro.magic.passes import optimize_program, summarize_reports

        program = (
            ProgramBuilder()
            .init([2, 3])
            .nor([0, 1], 2)
            .nor([4, 5], 3)
            .build()
        )
        result = optimize_program(program)
        summary = summarize_reports([result, result])
        assert summary["gates"] == 2 * sum(
            1 if not hasattr(op, "gates") else len(op.gates)
            for op in result.program.ops
        )
        assert summary["pack_factor"] == (
            summary["gates"] / summary["cycles_after"]
        )


# ----------------------------------------------------------------------
# Service on the word backend (default-on deployment surface)
# ----------------------------------------------------------------------
class TestServiceBackendConfig:
    def test_default_backend_is_word(self):
        from repro.service import ServiceConfig

        assert ServiceConfig().backend == "word"

    def test_backend_in_pipeline_cache_variant(self):
        from repro.service.workers import BankDispatcher

        word = BankDispatcher(backend="word")
        plane = BankDispatcher(backend="bitplane")
        assert word._variant(64, 0) != plane._variant(64, 0)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_service_products_match_under_any_backend(self, backend):
        from repro.service import MultiplicationService, ServiceConfig

        svc = MultiplicationService(
            ServiceConfig(batch_size=3, ways_per_width=1, backend=backend)
        )
        rng = random.Random(backend)
        jobs = [
            (rng.randrange(2**16), rng.randrange(2**16)) for _ in range(5)
        ]
        for a, b in jobs:
            svc.submit(a, b, 16)
        results = svc.drain()
        assert [r.product for r in results] == [a * b for a, b in jobs]


# ----------------------------------------------------------------------
# Word-backend energy: integer popcount totals over the real lanes
# ----------------------------------------------------------------------
class TestWordEnergyTotals:
    def test_popcount_fallback_matches_bit_count(self):
        """The pre-3.10 digit-count fallback agrees with the builtin."""
        from repro.crossbar.array import _popcount, _popcount_bin

        rng = random.Random(5)
        values = [0, 1] + [rng.getrandbits(12_000) for _ in range(8)]
        for value in values:
            raw = np.frombuffer(
                value.to_bytes(1_500, "little"), dtype=np.uint8
            )
            want = int(np.unpackbits(raw).sum())
            assert _popcount_bin(value) == want
            assert _popcount(value) == want
            if hasattr(int, "bit_count"):
                assert value.bit_count() == want

    @pytest.mark.parametrize("jobs", [1, 5, 7, 8, 13])
    def test_stream_energy_matches_scalar_oracle(self, jobs):
        """Padding lanes (any jobs % 8) and the wear-levelling even/odd
        lane groups must never be charged: a word-backend stream spends
        exactly the scalar oracle's energy."""
        rng = random.Random(1000 + jobs)
        pairs = [(rng.getrandbits(64), rng.getrandbits(64)) for _ in range(jobs)]
        energies = {}
        for backend in ("word", "scalar"):
            pipeline = KaratsubaPipeline(64, backend=backend, optimize=True)
            result = pipeline.run_stream(pairs)
            assert list(result.products) == [a * b for a, b in pairs]
            energies[backend] = pipeline.controller.total_energy_fj()
        assert energies["word"] == energies["scalar"] > 0
