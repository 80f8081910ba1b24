"""Batched bit-plane executor: differential tests against the scalar
oracle, plus regression tests for the energy-accounting fixes.

The batched engine's contract is bit-exactness: running a compiled
program over B lanes must produce, per lane, the same results, cycle
counts, op counts, cell writes, and femtojoule totals as running the
scalar executor once per lane.  The default device energies are
integer-valued, so float equality is exact and the comparisons below
use ``==`` deliberately.
"""

from __future__ import annotations

import functools
import math
import random

import numpy as np
import pytest

from repro.arith.bitops import split_chunks
from repro.arith.koggestone import KoggeStoneUnit, standalone_adder
from repro.crossbar import BatchedCrossbarArray, CrossbarArray, DeviceModel
from repro.karatsuba.pipeline import KaratsubaPipeline
from repro.magic import (
    BACKEND_NAMES,
    BatchedMagicExecutor,
    MagicExecutor,
    ProgramBuilder,
    bits_to_int,
    int_to_bits,
    get_backend,
    pack_ints,
    unpack_ints,
)
from repro.sim.clock import Clock
from repro.sim.exceptions import ProgramError
from repro.sim.stats import RunStats

DEVICE = DeviceModel()


# ----------------------------------------------------------------------
# Vectorised packing
# ----------------------------------------------------------------------
class TestPacking:
    def test_int_to_bits_roundtrip(self):
        rng = random.Random(3)
        for width in (1, 7, 8, 9, 64, 130):
            for _ in range(20):
                value = rng.randrange(2**width)
                assert bits_to_int(int_to_bits(value, width)) == value

    def test_int_to_bits_rejects_bad_values(self):
        with pytest.raises(ValueError):
            int_to_bits(-1, 8)
        with pytest.raises(ValueError):
            int_to_bits(256, 8)

    def test_pack_ints_matches_scalar(self):
        rng = random.Random(4)
        values = [rng.randrange(2**37) for _ in range(9)]
        packed = pack_ints(values, 37)
        assert packed.shape == (9, 37)
        for row, value in zip(packed, values):
            assert np.array_equal(row, int_to_bits(value, 37))
        assert unpack_ints(packed) == values

    def test_pack_ints_rejects_overflow(self):
        with pytest.raises(ValueError):
            pack_ints([3, 4], 2)
        with pytest.raises(ValueError):
            pack_ints([-1], 2)

    def test_empty_edges(self):
        assert pack_ints([], 8).shape == (0, 8)
        assert unpack_ints(np.zeros((3, 0), dtype=bool)) == [0, 0, 0]


# ----------------------------------------------------------------------
# Energy-accounting regression tests (satellite fixes)
# ----------------------------------------------------------------------
class TestEnergyAccountingFixes:
    def test_maj_rows_charges_switching_cells_only(self):
        array = CrossbarArray(4, 4, strict_magic=False)
        array.state[0] = [1, 1, 1, 1]
        array.state[1] = [1, 1, 0, 0]
        array.state[2] = [1, 0, 1, 0]
        array.state[3] = [1, 1, 1, 1]
        before = array.energy_fj
        array.maj_rows([0, 1, 2], 3)
        # majority = 1110: only the last cell switches (1 -> 0, a reset).
        assert list(array.state[3]) == [True, True, True, False]
        assert array.energy_fj - before == DEVICE.e_reset_fj
        # The write pulse still reaches every masked cell.
        assert list(array.writes[3]) == [1, 1, 1, 1]

    def test_init_rows_duplicate_rows_counted_once(self):
        array = CrossbarArray(2, 4)
        before = array.energy_fj
        array.init_rows([0, 0, 1])
        # One pulse and one set per cell of the two distinct rows.
        assert list(array.writes[0]) == [1, 1, 1, 1]
        assert list(array.writes[1]) == [1, 1, 1, 1]
        assert array.energy_fj - before == 8 * DEVICE.e_set_fj

    def test_read_row_masked_energy(self):
        array = CrossbarArray(1, 8)
        mask = np.zeros(8, dtype=bool)
        mask[:2] = True
        before = array.energy_fj
        array.read_row(0, mask)
        assert array.energy_fj - before == 2 * DEVICE.e_read_fj

    def test_shift_charges_window_columns_only(self):
        array = CrossbarArray(2, 16)
        array.state[0] = True
        executor = MagicExecutor(array)
        program = ProgramBuilder().shift(0, 1, 1, fill=0, cols=(0, 4)).build()
        before = array.energy_fj
        executor.execute(program)
        # Sense 4 window cells, then write [0,1,1,1] back: one reset pulse
        # and three sets.  The twelve columns outside the window are idle.
        expected = 4 * DEVICE.e_read_fj + DEVICE.e_reset_fj + 3 * DEVICE.e_set_fj
        assert array.energy_fj - before == expected
        assert list(array.state[1, :4]) == [False, True, True, True]
        assert int(array.writes[1, 4:].sum()) == 0


# ----------------------------------------------------------------------
# RunStats results plumbing
# ----------------------------------------------------------------------
class TestRunStatsResults:
    def test_merge_combines_results(self):
        merged = RunStats(results={"a": 1}).merge(RunStats(results={"b": 2}))
        assert merged.results == {"a": 1, "b": 2}

    def test_merge_last_wins_on_collision(self):
        merged = RunStats(results={"a": 1}).merge(RunStats(results={"a": 9}))
        assert merged.results == {"a": 9}


# ----------------------------------------------------------------------
# Randomized differential: batched executor vs scalar oracle
# ----------------------------------------------------------------------
ROWS, COLS = 8, 16


def _random_window(rng):
    if rng.random() < 0.4:
        return None
    start = rng.randrange(COLS - 1)
    stop = rng.randrange(start + 1, COLS + 1)
    return (start, stop)


def _random_program(rng, ops=40):
    """A protocol-valid random program plus its write (name, width) list."""
    builder = ProgramBuilder(label="fuzz")
    writes = []
    reads = 0
    for index in range(ops):
        kind = rng.choice(
            ["init", "nor", "not", "write", "read", "shift", "nop", "write"]
        )
        window = _random_window(rng)
        if kind == "init":
            count = rng.randrange(1, 4)
            builder.init([rng.randrange(ROWS) for _ in range(count)], window)
        elif kind in ("nor", "not"):
            out = rng.randrange(ROWS)
            candidates = [r for r in range(ROWS) if r != out]
            builder.init([out], window)
            if kind == "nor":
                ins = rng.sample(candidates, rng.randrange(1, 4))
                builder.nor(ins, out, window)
            else:
                builder.not_(rng.choice(candidates), out, window)
        elif kind == "write":
            offset = rng.randrange(COLS)
            width = rng.randrange(1, COLS - offset + 1)
            name = f"w{index}"
            writes.append((name, width))
            builder.write(rng.randrange(ROWS), name, col_offset=offset, width=width)
        elif kind == "read":
            offset = rng.randrange(COLS)
            width = rng.randrange(1, COLS - offset + 1)
            builder.read(rng.randrange(ROWS), f"r{reads}", col_offset=offset, width=width)
            reads += 1
        elif kind == "shift":
            window = window or (0, COLS)
            span = window[1] - window[0]
            builder.shift(
                rng.randrange(ROWS),
                rng.randrange(ROWS),
                rng.randrange(-span, span + 1),
                fill=rng.randrange(2),
                cols=window,
                also_init=tuple(
                    rng.sample(range(ROWS), rng.randrange(0, 3))
                ),
            )
        else:
            builder.nop(rng.randrange(1, 4))
    # Guarantee at least one result to compare.
    builder.read(rng.randrange(ROWS), "final", width=COLS)
    return builder.build(), writes


class TestBatchedDifferential:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("seed", range(6))
    def test_random_programs_bit_exact(self, seed, backend):
        rng = random.Random(seed)
        program, writes = _random_program(rng)
        batch = rng.randrange(1, 6)
        bindings = [
            {name: rng.randrange(2**width) for name, width in writes}
            for _ in range(batch)
        ]

        scalar_runs = []
        for lane in range(batch):
            array = CrossbarArray(ROWS, COLS)
            executor = MagicExecutor(array, clock=Clock())
            stats = executor.execute(program, bindings[lane])
            scalar_runs.append((stats, array))

        resolved = get_backend(backend)
        batched_array = resolved.make_array(CrossbarArray(ROWS, COLS), batch)
        batched = resolved.make_executor(batched_array, clock=Clock())
        batched_stats = batched.execute(program, bindings)

        for lane, (stats, array) in enumerate(scalar_runs):
            got = batched_stats[lane]
            assert got.results == stats.results
            assert got.cycles == stats.cycles
            assert got.op_counts == stats.op_counts
            assert got.nor_ops == stats.nor_ops
            assert got.shift_ops == stats.shift_ops
            if backend == "word":
                assert math.isnan(got.energy_fj)
            else:
                assert got.energy_fj == stats.energy_fj
                assert got.energy_fj == batched_array.lane_energy_fj(lane)
            assert np.array_equal(batched_array.snapshot(lane), array.snapshot())
            assert np.array_equal(batched_array.writes, array.writes)
        assert batched_array.total_energy_fj() == sum(
            stats.energy_fj for stats, _ in scalar_runs
        )

    def test_simd_clock_advances_once_per_batch(self):
        adder, executor = standalone_adder(8)
        lay = adder.layout
        program = (
            ProgramBuilder()
            .init(list(lay.scratch_rows) + [lay.out_row])
            .write(lay.x_row, "x", width=8)
            .write(lay.y_row, "y", width=8)
            .concat(adder.program("add"))
            .read(lay.out_row, "out", width=9)
            .build()
        )
        bindings = [{"x": 11 * i, "y": 7 * i} for i in range(4)]
        stats = executor.execute_batch(program, bindings)
        # All lanes run in lock-step: shared clock advances one pass.
        assert executor.clock.cycles == stats[0].cycles
        for lane, stat in enumerate(stats):
            assert stat.results["out"] == 18 * lane

    def test_execute_batch_leaves_scalar_array_untouched(self):
        array = CrossbarArray(2, 8)
        executor = MagicExecutor(array)
        program = ProgramBuilder().write(0, "x", width=8).build()
        snapshot = array.state.copy()
        executor.execute_batch(program, [{"x": 255}, {"x": 1}])
        assert np.array_equal(array.state, snapshot)
        assert array.max_writes() == 0

    def test_compile_cache_replays_program_identity(self):
        array = CrossbarArray(2, 8)
        executor = MagicExecutor(array)
        program = ProgramBuilder().write(0, "x", width=8).build()
        executor.execute_batch(program, [{"x": 1}])
        compiled_first = executor._compile_cache.get(program)
        executor.execute_batch(program, [{"x": 2}, {"x": 3}])
        assert executor._compile_cache.get(program) is compiled_first

    def test_unbound_operand_raises(self):
        array = CrossbarArray(2, 8)
        executor = MagicExecutor(array)
        program = ProgramBuilder().write(0, "x", width=8).build()
        with pytest.raises(ProgramError, match="unbound operand"):
            executor.execute_batch(program, [{"x": 1}, {}])

    def test_lane_count_mismatch_raises(self):
        batched = BatchedMagicExecutor(BatchedCrossbarArray(3, 2, 8))
        program = ProgramBuilder().nop().build()
        with pytest.raises(ProgramError, match="binding sets"):
            batched.execute(program, [{}])

    def test_geometry_mismatch_raises(self):
        small = BatchedMagicExecutor(BatchedCrossbarArray(1, 2, 8))
        compiled = small.compile(ProgramBuilder().nop().build())
        large = BatchedMagicExecutor(BatchedCrossbarArray(1, 4, 16))
        with pytest.raises(ProgramError, match="compiled for"):
            large.execute(compiled, [{}])

    def test_invalid_program_rejected_at_compile(self):
        batched = BatchedMagicExecutor(BatchedCrossbarArray(2, 2, 8))
        bad = ProgramBuilder().nor([0, 1], 5).build()
        with pytest.raises(ProgramError):
            batched.execute(bad, [{}, {}])


# ----------------------------------------------------------------------
# Batched Kogge-Stone unit
# ----------------------------------------------------------------------
def scalar_adder_runs(pairs, op="add"):
    """The scalar oracle of one unit pass: the standalone adder run
    once per pair, in order, on a single array."""
    adder, executor = standalone_adder(8)
    results = [
        adder.run(executor, x, y, op=op, first_use=index == 0)
        for index, (x, y) in enumerate(pairs)
    ]
    return results, executor


class TestRunBatchAdder:
    def test_run_batch_matches_scalar_runs(self):
        rng = random.Random(11)
        pairs = [(rng.randrange(256), rng.randrange(256)) for _ in range(6)]
        unit = KoggeStoneUnit(8, spare_rows=0)
        results = unit.run_pass(pairs, "add")
        expected, executor = scalar_adder_runs(pairs)
        assert results == expected == [x + y for x, y in pairs]
        # One lock-step pass: each lane folds in as one sequential reuse.
        assert unit.pass_cc("add") == unit.adder.latency_cc()
        assert np.array_equal(unit.array.writes, executor.array.writes)
        assert unit.array.energy_fj == executor.array.energy_fj

    def test_run_batch_subtraction(self):
        pairs = [(200, 13), (55, 55), (9, 0)]
        unit = KoggeStoneUnit(8)
        results = unit.run_pass(pairs, "sub")
        assert results == [x - y for x, y in pairs]


# ----------------------------------------------------------------------
# Full-pipeline differential: batched vs sequential Karatsuba
# ----------------------------------------------------------------------
def _run_differential(n_bits, jobs, batch_size, wear_leveling=True, seed=0):
    rng = random.Random(seed)
    pairs = [
        (rng.randrange(2**n_bits), rng.randrange(2**n_bits)) for _ in range(jobs)
    ]
    sequential = KaratsubaPipeline(n_bits, wear_leveling=wear_leveling)
    batched = KaratsubaPipeline(n_bits, wear_leveling=wear_leveling)
    seq_records = [sequential.controller.run_job(a, b) for a, b in pairs]
    bat_records = batched.controller.run_jobs_batch(pairs)

    for pair, seq_rec, bat_rec in zip(pairs, seq_records, bat_records):
        assert seq_rec.product == bat_rec.product == pair[0] * pair[1]
        assert seq_rec.precompute_cycles == bat_rec.precompute_cycles
        assert seq_rec.multiply_cycles == bat_rec.multiply_cycles
        assert seq_rec.postcompute_cycles == bat_rec.postcompute_cycles

    seq_ctl, bat_ctl = sequential.controller, batched.controller
    assert seq_ctl.max_writes() == bat_ctl.max_writes()
    assert seq_ctl.total_energy_fj() == bat_ctl.total_energy_fj()
    assert np.array_equal(
        seq_ctl.precompute.array.writes, bat_ctl.precompute.array.writes
    )
    assert np.array_equal(
        seq_ctl.postcompute.array.writes, bat_ctl.postcompute.array.writes
    )
    for name, row in seq_ctl.multiply_stage.rows.items():
        assert np.array_equal(
            row.cell_writes, bat_ctl.multiply_stage.rows[name].cell_writes
        )
    assert (
        seq_ctl.precompute.leveler.swapped == bat_ctl.precompute.leveler.swapped
    )
    assert (
        seq_ctl.postcompute.leveler.swapped == bat_ctl.postcompute.leveler.swapped
    )


class TestKaratsubaDifferential:
    def test_n16_odd_batch(self):
        _run_differential(16, jobs=5, batch_size=5, seed=1)

    def test_n16_without_wear_leveling(self):
        _run_differential(16, jobs=4, batch_size=4, wear_leveling=False, seed=2)

    def test_n32_batch(self):
        _run_differential(32, jobs=6, batch_size=6, seed=3)

    def test_single_job_batch(self):
        _run_differential(16, jobs=1, batch_size=1, seed=4)

    def test_run_stream_batched_equals_sequential(self):
        rng = random.Random(9)
        pairs = [(rng.randrange(2**16), rng.randrange(2**16)) for _ in range(7)]
        sequential = KaratsubaPipeline(16).run_stream(pairs, batch_size=None)
        batched = KaratsubaPipeline(16).run_stream(pairs, batch_size=3)
        assert sequential.products == batched.products
        assert sequential.makespan_cc == batched.makespan_cc
        assert batched.products == [a * b for a, b in pairs]

    def test_batched_wear_state_round_trip(self):
        """Leveling parity after a batch equals sequential parity."""
        pipeline = KaratsubaPipeline(16)
        pipeline.controller.run_jobs_batch([(3, 5), (7, 9), (11, 13)])
        assert pipeline.controller.precompute.leveler.swapped is True
        pipeline.controller.run_jobs_batch([(2, 4)])
        assert pipeline.controller.precompute.leveler.swapped is False


# ----------------------------------------------------------------------
# One replay per stage batch: fused wear states vs per-group replays
# ----------------------------------------------------------------------
class _SilentHook:
    """A transient-fault hook that never flips a bit.  Its presence alone
    makes a unit replay each wear-state group on its own."""

    def on_nor(self, array, out_row, mask):
        pass

    def on_write(self, array, row, mask, pre):
        pass

    def on_read(self, array, row):
        pass


def _strand_fault(controller):
    """Pin a stuck-at cell on row 0 of both adder stages, then remap the
    row onto a spare: results stay exact, but the units carry a fault."""
    for stage in (controller.precompute, controller.postcompute):
        stage.array.inject_fault(0, 0, "sa1")
        stage.array.remap_row(0)


def _pin_mapped_fault(controller):
    """Pin a stuck-at-1 cell on a row each adder stage still uses.  For
    the seed-5 operands of the test below these cells hold 1 whenever
    they are sensed, so results stay exact while the fault stays live."""
    controller.precompute.array.inject_fault(14, 1, "sa1")
    controller.postcompute.array.inject_fault(12, 23, "sa1")


def _remap_only(controller):
    for stage in (controller.precompute, controller.postcompute):
        stage.array.remap_row(0)


class _CountingBackend:
    """Wraps a stage unit's backend and counts the replays it builds."""

    def __init__(self, backend):
        self.backend = backend
        self.replays = 0

    def make_array(self, template, batch):
        self.replays += 1
        return self.backend.make_array(template, batch)

    def make_executor(self, array, **kwargs):
        return self.backend.make_executor(array, **kwargs)


def _count_replays(controller):
    counters = {}
    for name in ("precompute", "postcompute"):
        unit = getattr(controller, name).unit
        unit.backend = counters[name] = _CountingBackend(unit.backend)
    return counters


def _fused_differential(
    jobs, wear_leveling=True, backend="word", prepare=None, hook=None, seed=0
):
    """Run *jobs* pairs at n = 16 job by job and as one batch; assert
    bit-identical results and accounting; return the replays each
    stage's batch took."""
    rng = random.Random(seed)
    pairs = [(rng.randrange(2**16), rng.randrange(2**16)) for _ in range(jobs)]
    sequential = KaratsubaPipeline(16, wear_leveling=wear_leveling).controller
    batched = KaratsubaPipeline(
        16, wear_leveling=wear_leveling, backend=backend
    ).controller
    for controller in (sequential, batched):
        if prepare is not None:
            prepare(controller)
    if hook is not None:
        batched.fault_hook = hook
    counters = _count_replays(batched)
    seq_records = [sequential.run_job(a, b) for a, b in pairs]
    bat_records = batched.run_jobs_batch(pairs)

    assert [r.product for r in bat_records] == [a * b for a, b in pairs]
    assert [r.product for r in seq_records] == [a * b for a, b in pairs]
    assert sequential.max_writes() == batched.max_writes()
    assert sequential.total_energy_fj() == batched.total_energy_fj()
    groups = min(jobs, 2) if wear_leveling else 1
    for name in ("precompute", "postcompute"):
        seq_stage = getattr(sequential, name)
        bat_stage = getattr(batched, name)
        assert np.array_equal(seq_stage.array.writes, bat_stage.array.writes)
        assert seq_stage.array.energy_fj == bat_stage.array.energy_fj
        assert seq_stage.leveler.swaps == bat_stage.leveler.swaps
        assert seq_stage.passes == bat_stage.passes == jobs
        # Lanes run in lock-step: one pass of the clock per wear-state
        # group, each tick category scaled from the per-job path.
        assert bat_stage.clock.cycles * jobs == seq_stage.clock.cycles * groups
        assert {
            category: cycles * jobs
            for category, cycles in bat_stage.clock.by_category.items()
        } == {
            category: cycles * groups
            for category, cycles in seq_stage.clock.by_category.items()
        }
    for seq_rec, bat_rec in zip(seq_records, bat_records):
        assert seq_rec.precompute_cycles == bat_rec.precompute_cycles
        assert seq_rec.postcompute_cycles == bat_rec.postcompute_cycles
    return {name: counter.replays for name, counter in counters.items()}


class TestFusedStageBatch:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("wear_leveling", [True, False])
    @pytest.mark.parametrize("jobs", [1, 2, 3, 32])
    def test_one_replay_matches_sequential(self, jobs, wear_leveling, backend):
        replays = _fused_differential(
            jobs, wear_leveling, backend, seed=jobs
        )
        assert replays == {"precompute": 1, "postcompute": 1}

    @pytest.mark.parametrize("wear_leveling", [True, False])
    @pytest.mark.parametrize("jobs", [1, 2, 3, 32])
    def test_fault_hook_takes_per_group_path(self, jobs, wear_leveling):
        replays = _fused_differential(
            jobs, wear_leveling, hook=_SilentHook(), seed=jobs
        )
        groups = min(jobs, 2) if wear_leveling else 1
        assert replays == {"precompute": groups, "postcompute": groups}

    def test_stuck_at_fault_takes_per_group_path(self):
        replays = _fused_differential(3, prepare=_pin_mapped_fault, seed=5)
        assert replays == {"precompute": 2, "postcompute": 2}

    def test_stranded_fault_stays_fused(self):
        # The fault sits on a retired word line no logical row maps to.
        replays = _fused_differential(3, prepare=_strand_fault, seed=5)
        assert replays == {"precompute": 1, "postcompute": 1}
        _assert_fused_equals_per_group(16, 3, prepare=_strand_fault)

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_spare_row_remap_stays_fused(self, jobs):
        # The other wear state's write delta lands on the spare row.
        replays = _fused_differential(jobs, prepare=_remap_only, seed=6)
        assert replays == {"precompute": 1, "postcompute": 1}

    def test_fused_equals_per_group_replays(self):
        """Clocks, results and every counter of the fused replay equal
        the per-group replays it replaces."""
        _assert_fused_equals_per_group(32, 5)


def _assert_fused_equals_per_group(n_bits, jobs, prepare=None):
    """Run two odd batches fused and, under a silent fault hook, per
    wear-state group; assert identical records, writes, energy, stage
    clocks and leveler swaps."""
    rng = random.Random(12)
    pairs = [
        (rng.randrange(2**n_bits), rng.randrange(2**n_bits))
        for _ in range(jobs)
    ]
    fused = KaratsubaPipeline(n_bits, backend="word").controller
    grouped = KaratsubaPipeline(n_bits, backend="word").controller
    grouped.fault_hook = _SilentHook()
    for controller in (fused, grouped):
        if prepare is not None:
            prepare(controller)
    for _ in range(2):  # odd batches: the start state alternates
        fused_records = fused.run_jobs_batch(pairs)
        grouped_records = grouped.run_jobs_batch(pairs)
        assert fused_records == grouped_records
        assert [r.product for r in fused_records] == [a * b for a, b in pairs]
    for name in ("precompute", "postcompute"):
        a, b = getattr(fused, name), getattr(grouped, name)
        assert np.array_equal(a.array.writes, b.array.writes)
        assert a.array.energy_fj == b.array.energy_fj
        assert a.clock.cycles == b.clock.cycles
        assert a.clock.by_category == b.clock.by_category
        assert a.leveler.swaps == b.leveler.swaps == 2 * jobs


# ----------------------------------------------------------------------
# Static write-pulse map vs executed replays
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _stage_mega_programs(stage_name, n_bits, optimize):
    """Geometry, both wear states' mega-programs and one lane's
    bindings of a Karatsuba adder stage."""
    controller = KaratsubaPipeline(n_bits, optimize=optimize).controller
    rng = random.Random(n_bits)
    chunk = n_bits // 4
    a_chunks = split_chunks(rng.randrange(2**n_bits), chunk, 4)
    b_chunks = split_chunks(rng.randrange(2**n_bits), chunk, 4)
    stage = getattr(controller, stage_name)
    if stage_name == "precompute":
        binding = stage._inputs(a_chunks, b_chunks)
    else:
        sums = controller.precompute.process_batch([(a_chunks, b_chunks)])
        products = controller.multiply_stage.process_batch(
            [sums[0].chunk_sums]
        )[0].products
        passes, _ = stage._plan_passes(products)
        binding = stage._bindings(products, passes)
    programs = []
    for _ in range(2):
        programs.append(stage._mega_program()[0])
        stage.leveler.swap()
    return stage.array.rows, stage.array.cols, tuple(programs), binding


class TestStaticWritesDelta:
    @pytest.mark.parametrize("remap", [False, True])
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("optimize", [False, True])
    @pytest.mark.parametrize("n_bits", [16, 64, 256])
    @pytest.mark.parametrize("stage_name", ["precompute", "postcompute"])
    def test_delta_equals_executed_writes(
        self, stage_name, n_bits, optimize, backend, remap
    ):
        rows, cols, programs, binding = _stage_mega_programs(
            stage_name, n_bits, optimize
        )
        resolved = get_backend(backend)
        for program in programs:  # one per wear state
            array = CrossbarArray(rows, cols, spare_rows=2)
            if remap:
                array.remap_row(0)
                array.remap_row(rows - 1)
            row_map = [array.physical_row(row) for row in range(rows)]
            compiled = MagicExecutor(array).compile(program)
            lanes = resolved.make_array(array, 2)
            lanes.reset_to_ones()
            resolved.make_executor(lanes).execute(compiled, [binding] * 2)
            delta = compiled.writes_delta(row_map, array.phys_rows)
            assert delta.shape == (array.phys_rows, cols)
            assert np.array_equal(lanes.writes, delta)
            if remap:
                assert not delta[0].any() and not delta[rows - 1].any()
