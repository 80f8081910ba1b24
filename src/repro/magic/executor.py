"""Cycle-accurate executors for MAGIC programs on crossbar arrays.

Two execution paths share one instruction set:

* :class:`MagicExecutor` — the scalar reference path.  It applies
  micro-ops one at a time to a :class:`CrossbarArray`, advancing a
  :class:`Clock` by each op's cycle cost and collecting a
  :class:`RunStats`.  The per-op costs match the paper's accounting:
  1 cc for any row-parallel NOR/NOT/INIT/WRITE/READ, 2 cc for a
  periphery shift (read + write-back).
* :class:`BatchedMagicExecutor` — the SIMD path (paper Sec. II-B).  A
  :class:`Program` is *compiled once* (parsed, validated, column masks
  and field slices precomputed) into a :class:`CompiledProgram`, then
  replayed against a :class:`BatchedCrossbarArray` so one pass of numpy
  kernels evaluates every lane of a ``(batch, rows, cols)`` state
  tensor.  Per-lane results, cycle counts, write counters and energy
  are bit-identical to running the scalar executor once per lane — the
  scalar path is kept as the differential-testing oracle.

Data enters a program through *bindings* (name -> integer) consumed by
WRITE ops and leaves through *results* (name -> integer) produced by
READ ops; both are LSB-first bit fields within a row.  Results are
per-run: each :meth:`MagicExecutor.execute` clears the previous run's
mapping and also attaches its own mapping to the returned stats.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.crossbar.array import (
    BatchedCrossbarArray,
    CrossbarArray,
    WordPackedCrossbarArray,
    _popcount,
)
from repro.magic.ops import (
    Init,
    MicroOp,
    Nop,
    Nor,
    Not,
    ParallelNor,
    ParallelNot,
    Read,
    Shift,
    Write,
)
from repro.magic.program import Program
from repro.sim.clock import Clock
from repro.sim.exceptions import MagicProtocolError, ProgramError
from repro.sim.stats import RunStats
from repro.sim.trace import Trace
from repro.telemetry import spans as _telemetry


def int_to_bits(value: int, width: int) -> np.ndarray:
    """LSB-first bit vector of *value* over *width* bits."""
    if value < 0:
        raise ValueError("only non-negative integers are storable")
    if value >> width:
        raise ValueError(f"value {value} does not fit in {width} bits")
    raw = np.frombuffer(value.to_bytes((width + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:width].astype(bool)


def bits_to_int(bits: np.ndarray) -> int:
    """Integer from an LSB-first bit vector."""
    bits = np.ascontiguousarray(bits, dtype=bool)
    if bits.size == 0:
        return 0
    return int.from_bytes(
        np.packbits(bits, bitorder="little").tobytes(), "little"
    )


def _check_storable(values: Sequence[int], width: int) -> None:
    for value in values:
        if value < 0:
            raise ValueError("only non-negative integers are storable")
        if value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")


def pack_ints(values: Sequence[int], width: int) -> np.ndarray:
    """Stack LSB-first bit vectors of *values* into a ``(len, width)``
    bool matrix (the batched counterpart of :func:`int_to_bits`).

    Every value is validated (non-negative, fits in *width* bits)
    before any early return, so an out-of-range operand is rejected
    even when the degenerate ``width == 0`` shape short-circuits the
    bit unpacking; iterables are materialised once, so generators are
    accepted.
    """
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    values = list(values)
    _check_storable(values, width)
    if not values or width == 0:
        return np.zeros((len(values), width), dtype=bool)
    nbytes = (width + 7) // 8
    chunks = [value.to_bytes(nbytes, "little") for value in values]
    raw = np.frombuffer(b"".join(chunks), dtype=np.uint8).reshape(len(values), nbytes)
    return np.unpackbits(raw, axis=1, bitorder="little")[:, :width].astype(bool)


def unpack_ints(words: np.ndarray) -> List[int]:
    """Integers from a ``(batch, width)`` LSB-first bit matrix (the
    batched counterpart of :func:`bits_to_int`)."""
    words = np.ascontiguousarray(words, dtype=bool)
    if words.ndim != 2:
        raise ValueError(f"expected a (batch, width) bit matrix, got {words.shape}")
    if words.shape[1] == 0:
        return [0] * words.shape[0]
    packed = np.packbits(words, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


#: Compiled-step opcodes (tuple dispatch in the batched inner loop).
#: _PACK carries a gang of independent NOR gates retired in one cycle.
_INIT, _NOR, _WRITE, _READ, _SHIFT, _NOP, _PACK = range(7)

#: RunStats counter attribute per micro-op opcode.
_STAT_FIELD = {
    "init": "init_ops",
    "nor": "nor_ops",
    "not": "not_ops",
    "write": "write_ops",
    "read": "read_ops",
    "shift": "shift_ops",
}


class CompiledProgram:
    """A :class:`Program` lowered for replay at near-zero Python cost.

    Compilation validates every op against the target array geometry,
    materialises column masks and field slices once, and precomputes the
    static stats (cycle count, op histogram, per-category cycles).  The
    compiled form is immutable and reusable: one compile, any number of
    :meth:`BatchedMagicExecutor.execute` replays with fresh bindings.
    """

    def __init__(self, program: Program, rows: int, cols: int):
        self.program = program
        self.rows = rows
        self.cols = cols
        self.label = program.label
        self.cycle_count = 0
        self.op_counts: Dict[str, int] = {}
        self.cycles_by_opcode: Dict[str, int] = {}
        self.stat_counts: Dict[str, int] = {}
        #: Unique (name, width) pairs consumed by WRITE ops.
        self.write_specs: List[Tuple[str, int]] = []
        self.steps: List[tuple] = []
        #: (start, stop) -> the column mask its steps share.
        self.window_masks: Dict[Tuple[int, int], np.ndarray] = {}
        #: Word-backend lowering, built on first word-packed replay.
        self._word_lowered = None
        self._compile(program)

    # ------------------------------------------------------------------
    def _col_mask(self, cols) -> Optional[np.ndarray]:
        if cols is None:
            return None
        start, stop = cols
        if not (0 <= start < stop <= self.cols):
            raise ProgramError(
                f"column range {cols} outside array width {self.cols}"
            )
        return self._window_mask(start, stop)

    def _window_mask(self, start: int, stop: int) -> Optional[np.ndarray]:
        """Read-only column mask of ``[start, stop)``, shared by every op
        on that window."""
        if start == 0 and stop == self.cols:
            # Full-width window: lower to the unmasked fast path (a
            # full-ones mask selects the same cells, so accounting is
            # unchanged).
            return None
        mask = self.window_masks.get((start, stop))
        if mask is None:
            mask = np.zeros(self.cols, dtype=bool)
            mask[start:stop] = True
            mask.flags.writeable = False
            self.window_masks[(start, stop)] = mask
        return mask

    def _field(self, col_offset: int, width: Optional[int]) -> slice:
        if width is None:
            width = self.cols - col_offset
        if col_offset < 0 or col_offset + width > self.cols:
            raise ProgramError(
                f"field [{col_offset}, {col_offset + width}) outside array"
            )
        return slice(col_offset, col_offset + width)

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.rows:
            raise ProgramError(f"row {row} outside array height {self.rows}")

    def _compile(self, program: Program) -> None:
        specs_seen: Dict[Tuple[str, int], None] = {}
        for op in program:
            op.validate(self.rows, self.cols)
            self.cycle_count += op.cycles
            self.op_counts[op.opcode] = self.op_counts.get(op.opcode, 0) + 1
            self.cycles_by_opcode[op.opcode] = (
                self.cycles_by_opcode.get(op.opcode, 0) + op.cycles
            )
            stat_field = _STAT_FIELD.get(op.opcode)
            if stat_field:
                # A packed op retires one gate per gang member within
                # its single cycle; stats count gates, the clock counts
                # cycles.
                weight = (
                    len(op.gates)
                    if isinstance(op, (ParallelNor, ParallelNot))
                    else 1
                )
                self.stat_counts[stat_field] = (
                    self.stat_counts.get(stat_field, 0) + weight
                )
            if isinstance(op, (ParallelNor, ParallelNot)):
                gang = []
                for g in op.gates:
                    in_rows = (
                        list(g.in_rows) if isinstance(g, Nor) else [g.in_row]
                    )
                    gang.append((in_rows, g.out_row, self._col_mask(g.cols)))
                self.steps.append((_PACK, tuple(gang)))
            elif isinstance(op, Init):
                self.steps.append(
                    (_INIT, tuple(dict.fromkeys(op.rows)), self._col_mask(op.cols))
                )
            elif isinstance(op, Nor):
                self.steps.append(
                    (_NOR, list(op.in_rows), op.out_row, self._col_mask(op.cols))
                )
            elif isinstance(op, Not):
                self.steps.append(
                    (_NOR, [op.in_row], op.out_row, self._col_mask(op.cols))
                )
            elif isinstance(op, Write):
                field = self._field(op.col_offset, op.width)
                mask = self._window_mask(field.start, field.stop)
                spec = (op.name, field.stop - field.start)
                specs_seen.setdefault(spec)
                self.steps.append((_WRITE, op.row, field, mask, spec))
            elif isinstance(op, Read):
                field = self._field(op.col_offset, op.width)
                self.steps.append((_READ, op.row, field, op.name))
            elif isinstance(op, Shift):
                mask = self._col_mask(op.cols)
                window = (
                    slice(0, self.cols) if op.cols is None else slice(*op.cols)
                )
                self.steps.append(
                    (
                        _SHIFT,
                        op.src_row,
                        op.dst_row,
                        op.offset,
                        bool(op.fill),
                        window,
                        mask,
                        tuple(dict.fromkeys(op.also_init)),
                    )
                )
            elif isinstance(op, Nop):
                self.steps.append((_NOP,))
            else:  # pragma: no cover - defensive
                raise ProgramError(f"unknown micro-op {op!r}")
        self.write_specs = list(specs_seen)

    def __len__(self) -> int:
        return len(self.steps)


def compile_program(program: Program, rows: int, cols: int) -> CompiledProgram:
    """Validate *program* against an array geometry and lower it."""
    return CompiledProgram(program, rows, cols)


class CompileCacheStats:
    """Hit/miss/eviction counters of one compile cache.

    The service layer aggregates these across every executor it owns to
    surface program-compilation reuse in its metrics snapshot."""

    __slots__ = ("hits", "misses", "evictions")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


class _CompileCache:
    """Identity-keyed cache of compiled programs.

    Keyed by ``(id(program), len(program), program.generation)`` with a
    strong reference to the program so ids cannot be recycled.
    Extending a program through :meth:`Program.extend` changes both the
    length and the mutation generation; replacing ops *in place* at an
    unchanged length bumps the generation alone — either way the stale
    compiled artifact misses and the program is recompiled.

    An optional *max_entries* bounds the cache with least-recently-used
    eviction; unbounded by default, which matches the historical
    behaviour (stage executors hold a handful of mega-programs for the
    lifetime of the stage).
    """

    def __init__(self, rows: int, cols: int, max_entries: Optional[int] = None):
        if max_entries is not None and max_entries < 1:
            raise ValueError("compile cache needs at least one entry")
        self.rows = rows
        self.cols = cols
        self.max_entries = max_entries
        self.stats = CompileCacheStats()
        self._entries: Dict[
            Tuple[int, int, int], Tuple[Program, CompiledProgram]
        ] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, program: Program) -> CompiledProgram:
        key = (
            id(program),
            len(program.ops),
            getattr(program, "generation", 0),
        )
        entry = self._entries.get(key)
        if entry is not None and entry[0] is program:
            self.stats.hits += 1
            # Refresh recency (dicts iterate in insertion order).
            self._entries.pop(key)
            self._entries[key] = entry
            return entry[1]
        self.stats.misses += 1
        compiled = CompiledProgram(program, self.rows, self.cols)
        self._entries[key] = (program, compiled)
        if self.max_entries is not None and len(self._entries) > self.max_entries:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
            self.stats.evictions += 1
        return compiled


class MagicExecutor:
    """Executes :class:`Program` objects cycle-accurately (scalar path).

    Parameters
    ----------
    array:
        Target crossbar.
    clock:
        Shared cycle counter; a fresh one is created when omitted.
    trace:
        Optional micro-op trace sink.
    fault_hook:
        Optional transient-fault injector (duck-typed; see
        :class:`repro.crossbar.faults.TransientFaultInjector`).  Its
        ``on_nor`` / ``on_write`` / ``on_read`` callbacks fire after the
        corresponding micro-op so faults strike *mid-program*, not just
        as statically pinned cells.
    """

    def __init__(
        self,
        array: CrossbarArray,
        clock: Optional[Clock] = None,
        trace: Optional[Trace] = None,
        fault_hook=None,
    ):
        self.array = array
        self.clock = clock if clock is not None else Clock()
        self.trace = trace if trace is not None else Trace(enabled=False)
        self.fault_hook = fault_hook
        self.results: Dict[str, int] = {}
        self._compile_cache = _CompileCache(array.rows, array.cols)

    def compile_cache_stats(self) -> CompileCacheStats:
        """Hit/miss counters of this executor's program-compile cache."""
        return self._compile_cache.stats

    def compile(self, program: Program) -> CompiledProgram:
        """Compile (and cache) *program* for this array's geometry.

        The compiled form is immutable and geometry-keyed, so it can be
        replayed by any :class:`BatchedMagicExecutor` whose array has
        the same ``rows x cols`` — the stage batch paths use this to
        compile their mega-programs once and replay them per batch.
        """
        return self._compile_cache.get(program)

    # ------------------------------------------------------------------
    def _col_mask(self, cols) -> Optional[np.ndarray]:
        if cols is None:
            return None
        start, stop = cols
        if not (0 <= start < stop <= self.array.cols):
            raise ProgramError(
                f"column range {cols} outside array width {self.array.cols}"
            )
        mask = np.zeros(self.array.cols, dtype=bool)
        mask[start:stop] = True
        return mask

    def _field(self, col_offset: int, width: Optional[int]) -> slice:
        if width is None:
            width = self.array.cols - col_offset
        if col_offset < 0 or col_offset + width > self.array.cols:
            raise ProgramError(
                f"field [{col_offset}, {col_offset + width}) outside array"
            )
        return slice(col_offset, col_offset + width)

    # ------------------------------------------------------------------
    def execute(
        self,
        program: Program,
        bindings: Optional[Dict[str, int]] = None,
    ) -> RunStats:
        """Run *program* to completion and return its :class:`RunStats`.

        READ results are collected per run: :attr:`results` holds the
        mapping of the most recent run only (a previous run's names do
        not leak into the next), and the same mapping is attached to the
        returned stats as ``stats.results``.
        """
        bindings = bindings or {}
        run_results: Dict[str, int] = {}
        self.results = run_results
        stats = RunStats(results=run_results)
        energy_before = self.array.energy_fj
        trace_enabled = self.trace.enabled
        tracer = _telemetry.active()
        for op in program:
            self._dispatch(op, bindings, stats, run_results)
            stats.cycles += op.cycles
            self.clock.tick(op.cycles, category=op.opcode)
            stats.op_counts[op.opcode] = stats.op_counts.get(op.opcode, 0) + 1
            if trace_enabled:
                self.trace.record(self.clock.cycles, op.opcode, repr(op))
        stats.energy_fj = self.array.energy_fj - energy_before
        if tracer is not None:
            tracer.record(
                "magic.program",
                self.clock.cycles - stats.cycles,
                self.clock.cycles,
                label=program.label or "program",
                ops=len(program.ops),
                nor=stats.nor_ops + stats.not_ops,
                energy_fj=stats.energy_fj,
            )
        return stats

    def execute_batch(
        self,
        program: Program,
        bindings_list: Sequence[Dict[str, int]],
        backend: object = None,
    ) -> List[RunStats]:
        """Replay *program* over a batch of binding sets in one SIMD pass.

        The program is compiled (validated, column-masked) once and
        cached on this executor, so repeated calls replay it with fresh
        bindings at near-zero Python overhead.  Each lane starts from a
        copy of the scalar array's current state; the scalar array
        itself is left untouched (lanes diverge, so there is no single
        end state to write back).  The shared clock advances once by the
        program's cycle count — the SIMD semantics of row-parallel MAGIC:
        all lanes execute in lock-step.

        *backend* selects the batched execution strategy (an
        :class:`~repro.magic.backend.ExecutorBackend` instance or its
        registry name: ``"scalar"``, ``"bitplane"``, ``"word"``); the
        bit-plane path remains the default.  All backends are
        accounting-equivalent, so the choice only affects wall-clock
        simulation speed.

        Returns one :class:`RunStats` per lane, bit-identical (results,
        cycles, op counts, energy) to running :meth:`execute` with that
        lane's bindings on a scalar copy of the array — except that the
        word backend keeps no per-lane energy, so its lanes report
        ``energy_fj`` as NaN.
        """
        from repro.magic.backend import get_backend

        if not bindings_list:
            return []
        compiled = self._compile_cache.get(program)
        resolved = get_backend(backend if backend is not None else "bitplane")
        batched = resolved.make_array(self.array, len(bindings_list))
        executor = resolved.make_executor(
            batched,
            clock=self.clock,
            trace=self.trace,
            fault_hook=self.fault_hook,
        )
        return executor.execute(compiled, bindings_list)

    # ------------------------------------------------------------------
    def _dispatch(
        self,
        op: MicroOp,
        bindings: Dict[str, int],
        stats: RunStats,
        results: Dict[str, int],
    ) -> None:
        hook = self.fault_hook
        if isinstance(op, Init):
            self.array.init_rows(op.rows, self._col_mask(op.cols))
            stats.init_ops += 1
        elif isinstance(op, Nor):
            mask = self._col_mask(op.cols)
            self.array.nor_rows(list(op.in_rows), op.out_row, mask)
            if hook is not None:
                hook.on_nor(self.array, op.out_row, mask)
            stats.nor_ops += 1
        elif isinstance(op, Not):
            mask = self._col_mask(op.cols)
            self.array.not_row(op.in_row, op.out_row, mask)
            if hook is not None:
                hook.on_nor(self.array, op.out_row, mask)
            stats.not_ops += 1
        elif isinstance(op, (ParallelNor, ParallelNot)):
            # One cycle retires the whole gang: output word lines are
            # pairwise disjoint and never aliased by an operand row (the
            # op's constructor enforces it), so the sequential member
            # evaluation below is order-independent and each gate's
            # switching energy is charged exactly as in the unpacked
            # program.
            for g in op.gates:
                mask = self._col_mask(g.cols)
                if isinstance(g, Nor):
                    self.array.nor_rows(list(g.in_rows), g.out_row, mask)
                else:
                    self.array.not_row(g.in_row, g.out_row, mask)
                if hook is not None:
                    hook.on_nor(self.array, g.out_row, mask)
            if isinstance(op, ParallelNor):
                stats.nor_ops += len(op.gates)
            else:
                stats.not_ops += len(op.gates)
        elif isinstance(op, Write):
            self._do_write(op, bindings)
            stats.write_ops += 1
        elif isinstance(op, Read):
            self._do_read(op, results)
            stats.read_ops += 1
        elif isinstance(op, Shift):
            self._do_shift(op)
            stats.shift_ops += 1
        elif isinstance(op, Nop):
            pass
        else:  # pragma: no cover - defensive
            raise ProgramError(f"unknown micro-op {op!r}")

    def _do_write(self, op: Write, bindings: Dict[str, int]) -> None:
        if op.name not in bindings:
            raise ProgramError(f"WRITE references unbound operand {op.name!r}")
        field = self._field(op.col_offset, op.width)
        width = field.stop - field.start
        bits = int_to_bits(bindings[op.name], width)
        word = self.array.peek_row(op.row)
        pre = word.copy() if self.fault_hook is not None else None
        word[field] = bits
        mask = np.zeros(self.array.cols, dtype=bool)
        mask[field] = True
        self.array.write_row(op.row, word, mask)
        if self.fault_hook is not None:
            self.fault_hook.on_write(self.array, op.row, mask, pre)

    def _do_read(self, op: Read, results: Dict[str, int]) -> None:
        field = self._field(op.col_offset, op.width)
        word = self.array.read_row(op.row)
        results[op.name] = bits_to_int(word[field])
        if self.fault_hook is not None:
            self.fault_hook.on_read(self.array, op.row)

    def _do_shift(self, op: Shift) -> None:
        mask = self._col_mask(op.cols)
        window = slice(0, self.array.cols) if op.cols is None else slice(*op.cols)
        # Only the window's sense amplifiers fire: narrow shifts must
        # not be charged a full-row read (the write below is already
        # masked to the window).
        src = self.array.read_row(op.src_row, mask)[window]
        shifted = np.full(src.shape, bool(op.fill))
        if op.offset >= 0:
            if op.offset < len(src):
                shifted[op.offset:] = src[: len(src) - op.offset]
        else:
            amount = -op.offset
            if amount < len(src):
                shifted[: len(src) - amount] = src[amount:]
        word = self.array.peek_row(op.dst_row)
        pre = word.copy() if self.fault_hook is not None else None
        word[window] = shifted
        self.array.write_row(op.dst_row, word, mask)
        if self.fault_hook is not None:
            write_mask = (
                np.ones(self.array.cols, dtype=bool) if mask is None else mask
            )
            self.fault_hook.on_write(self.array, op.dst_row, write_mask, pre)
        if op.also_init:
            # Piggy-backed initialisation during the write cycle: the
            # word-line driver raises the listed rows while the write
            # circuit programs the shifted word.  No extra cycles.
            self.array.init_rows(op.also_init, mask)


class BatchedMagicExecutor:
    """Replays compiled programs against a :class:`BatchedCrossbarArray`.

    One :meth:`execute` call evaluates every lane of the batch through a
    single pass of vectorised numpy kernels — the software analogue of
    the paper's row-parallel SIMD execution, extended across operand
    sets.  The clock advances once per op (lanes run in lock-step), and
    per-lane stats match the scalar executor bit-for-bit.
    """

    def __init__(
        self,
        array: BatchedCrossbarArray,
        clock: Optional[Clock] = None,
        trace: Optional[Trace] = None,
        fault_hook=None,
    ):
        self.array = array
        self.clock = clock if clock is not None else Clock()
        self.trace = trace if trace is not None else Trace(enabled=False)
        self.fault_hook = fault_hook
        self._compile_cache = _CompileCache(array.rows, array.cols)

    def compile_cache_stats(self) -> CompileCacheStats:
        """Hit/miss counters of this executor's program-compile cache."""
        return self._compile_cache.stats

    # ------------------------------------------------------------------
    def compile(self, program: Program) -> CompiledProgram:
        """Compile (and cache) *program* for this array's geometry."""
        return self._compile_cache.get(program)

    def execute(
        self,
        program,
        bindings_list: Sequence[Dict[str, int]],
    ) -> List[RunStats]:
        """Execute a :class:`Program` or :class:`CompiledProgram` with
        one binding set per lane; returns one :class:`RunStats` per lane.
        """
        compiled = (
            program
            if isinstance(program, CompiledProgram)
            else self.compile(program)
        )
        if compiled.rows != self.array.rows or compiled.cols != self.array.cols:
            raise ProgramError(
                f"program compiled for {compiled.rows}x{compiled.cols} "
                f"cannot run on {self.array.rows}x{self.array.cols}"
            )
        batch = self.array.batch
        if len(bindings_list) != batch:
            raise ProgramError(
                f"got {len(bindings_list)} binding sets for {batch} lanes"
            )
        packed: Dict[Tuple[str, int], np.ndarray] = {}
        for name, width in compiled.write_specs:
            try:
                values = [bindings[name] for bindings in bindings_list]
            except KeyError:
                raise ProgramError(
                    f"WRITE references unbound operand {name!r}"
                ) from None
            packed[(name, width)] = pack_ints(values, width)

        array = self.array
        energy_before = array.energy_fj.copy()
        results: List[Dict[str, int]] = [{} for _ in range(batch)]
        trace_enabled = self.trace.enabled
        hook = self.fault_hook
        for index, step in enumerate(compiled.steps):
            code = step[0]
            if code == _NOR:
                array.nor_rows(step[1], step[2], step[3])
                if hook is not None:
                    hook.on_nor(array, step[2], step[3])
            elif code == _PACK:
                for in_rows, out_row, mask in step[1]:
                    array.nor_rows(in_rows, out_row, mask)
                    if hook is not None:
                        hook.on_nor(array, out_row, mask)
            elif code == _INIT:
                array.init_rows(step[1], step[2])
            elif code == _WRITE:
                _, row, field, mask, spec = step
                word = array.peek_row(row)
                pre = word.copy() if hook is not None else None
                word[:, field] = packed[spec]
                array.write_row(row, word, mask)
                if hook is not None:
                    write_mask = mask
                    if write_mask is None:
                        write_mask = np.ones(array.cols, dtype=bool)
                    hook.on_write(array, row, write_mask, pre)
            elif code == _READ:
                _, row, field, name = step
                words = array.read_row(row)
                for lane, value in enumerate(unpack_ints(words[:, field])):
                    results[lane][name] = value
                if hook is not None:
                    hook.on_read(array, row)
            elif code == _SHIFT:
                self._do_shift(step)
            # _NOP: nothing to evaluate.
            if trace_enabled:
                op = compiled.program.ops[index]
                self.trace.record(self.clock.cycles, op.opcode, repr(op))
        begin_cc = self.clock.cycles
        for opcode, cycles in compiled.cycles_by_opcode.items():
            self.clock.tick(cycles, category=opcode)
        tracer = _telemetry.active()
        if tracer is not None:
            tracer.record(
                "magic.program",
                begin_cc,
                self.clock.cycles,
                label=compiled.label or "program",
                ops=len(compiled.steps),
                lanes=batch,
                nor=compiled.stat_counts.get("nor_ops", 0)
                + compiled.stat_counts.get("not_ops", 0),
            )

        energy = array.energy_fj - energy_before
        stats_list = []
        for lane in range(batch):
            stats = RunStats(
                cycles=compiled.cycle_count,
                energy_fj=float(energy[lane]),
                op_counts=dict(compiled.op_counts),
                results=results[lane],
            )
            for field_name, count in compiled.stat_counts.items():
                setattr(stats, field_name, count)
            stats_list.append(stats)
        return stats_list

    # ------------------------------------------------------------------
    def _do_shift(self, step: tuple) -> None:
        _, src_row, dst_row, offset, fill, window, mask, also_init = step
        array = self.array
        src = array.read_row(src_row, mask)[:, window]
        width = src.shape[1]
        shifted = np.full(src.shape, fill)
        if offset >= 0:
            if offset < width:
                shifted[:, offset:] = src[:, : width - offset]
        else:
            amount = -offset
            if amount < width:
                shifted[:, : width - amount] = src[:, amount:]
        word = array.peek_row(dst_row)
        hook = self.fault_hook
        pre = word.copy() if hook is not None else None
        word[:, window] = shifted
        array.write_row(dst_row, word, mask)
        if hook is not None:
            write_mask = (
                np.ones(array.cols, dtype=bool) if mask is None else mask
            )
            hook.on_write(array, dst_row, write_mask, pre)
        if also_init:
            array.init_rows(also_init, mask)


class _WordLoweredProgram:
    """A :class:`CompiledProgram` re-lowered to packed-integer steps.

    One lowering serves every lane width.  Steps name each column
    window or field by an index into :attr:`windows`, the program's
    distinct ``(start, stop)`` column ranges; :meth:`masks` expands
    that small table into the big-integer masks of one lane width, once
    per width.  Steps address physical rows, resolved and cached per
    row map by :meth:`resolve` together with the write-counter delta.

    The lowering also precomputes the program's data-independent
    accounting: the per-lane pulse-cell counts (set/reset/read) behind
    the constant part of the energy model, and the write-pulse recipe
    from which a per-row-map ``(phys_rows, cols)`` write-counter delta
    is materialised.  Cached on the compiled program, so stage
    mega-programs lower once for the lifetime of the stage.

    Step layouts (logical rows kept where fault hooks and errors name
    them):

    * ``(_PACK, gang)`` with gang members
      ``(first_in, other_ins, out_phys, window, out_row)``; a lone
      NOR/NOT is a one-gate gang;
    * ``(_INIT, phys_rows, window)``;
    * ``(_WRITE, phys, operand, window, row)`` — *operand* indexes
      :attr:`CompiledProgram.write_specs`;
    * ``(_READ, phys, window, width, name, row)``;
    * ``(_SHIFT, src_phys, dst_phys, offset, window, fill_window,
      init_phys, dst_row)`` — *fill_window* is ``None`` when the
      shift fills with zeros.
    """

    __slots__ = (
        "windows",
        "np_masks",
        "set_cells",
        "reset_cells",
        "read_cells",
        "_logical",
        "_writes_recipe",
        "_masks",
        "_resolved",
    )

    def __init__(self, compiled: CompiledProgram):
        cols = compiled.cols
        index: Dict[Tuple[int, int], int] = {}

        def window(start: int, stop: int) -> int:
            key = (start, stop)
            found = index.get(key)
            if found is None:
                found = index[key] = len(index)
            return found

        by_mask = {
            id(mask): window(*key) for key, mask in compiled.window_masks.items()
        }

        def cols_window(mask: Optional[np.ndarray]) -> int:
            return window(0, cols) if mask is None else by_mask[id(mask)]

        specs = {spec: k for k, spec in enumerate(compiled.write_specs)}
        steps: List[tuple] = []
        self.set_cells = 0
        self.reset_cells = 0
        self.read_cells = 0
        #: Write pulses per (logical row, window).
        recipe: Counter = Counter()

        for step in compiled.steps:
            code = step[0]
            if code == _NOR or code == _PACK:
                members = (
                    ((step[1], step[2], step[3]),) if code == _NOR else step[1]
                )
                gang = []
                for in_rows, out_row, mask in members:
                    if out_row in in_rows:
                        # Row maps are injective, so logical aliasing is
                        # exactly physical aliasing; reject it once here
                        # instead of on every replay.
                        raise MagicProtocolError(
                            f"output row {out_row} cannot also be a NOR "
                            "input"
                        )
                    w = cols_window(mask)
                    gang.append(
                        (in_rows[0], tuple(in_rows[1:]), out_row, w, out_row)
                    )
                    recipe[out_row, w] += 1
                steps.append((_PACK, tuple(gang)))
            elif code == _INIT:
                _, rows, mask = step
                w = cols_window(mask)
                cells = cols if mask is None else int(mask.sum())
                self.set_cells += cells * len(rows)
                recipe.update((row, w) for row in rows)
                steps.append((_INIT, rows, w))
            elif code == _WRITE:
                _, row, field, _mask, spec = step
                w = window(field.start, field.stop)
                self.reset_cells += field.stop - field.start
                recipe[row, w] += 1
                steps.append((_WRITE, row, specs[spec], w, row))
            elif code == _READ:
                _, row, field, name = step
                # The batched read senses the full row (unmasked).
                self.read_cells += cols
                steps.append(
                    (
                        _READ,
                        row,
                        window(field.start, field.stop),
                        field.stop - field.start,
                        name,
                        row,
                    )
                )
            elif code == _SHIFT:
                _, src, dst, offset, fill, span, _mask, also_init = step
                start, stop = span.start, span.stop
                filled = min(abs(offset), stop - start)
                if not fill or not filled:
                    fill_window = None
                elif offset >= 0:
                    fill_window = window(start, start + filled)
                else:
                    fill_window = window(stop - filled, stop)
                w = window(start, stop)
                # One sensed read of the window, one masked write-back,
                # plus a piggy-backed INIT of each listed row.
                self.read_cells += stop - start
                self.reset_cells += stop - start
                self.set_cells += (stop - start) * len(also_init)
                recipe[dst, w] += 1
                recipe.update((row, w) for row in also_init)
                steps.append(
                    (_SHIFT, src, dst, offset, w, fill_window, also_init, dst)
                )
            else:  # _NOP
                steps.append((_NOP,))

        #: Distinct (start, stop) column windows, by index.
        self.windows: List[Tuple[int, int]] = list(index)
        #: Per-window column mask handed to fault hooks (None = full row).
        self.np_masks: List[Optional[np.ndarray]] = [
            compiled._window_mask(start, stop) for start, stop in self.windows
        ]
        self._logical = steps
        self._writes_recipe = recipe
        #: lane_bits -> (window masks, their complements).
        self._masks: Dict[int, Tuple[List[int], List[int]]] = {}
        #: (row_map, phys_rows) -> (physical steps, write-counter delta).
        self._resolved: Dict[tuple, Tuple[List[tuple], np.ndarray]] = {}

    def masks(self, lane_bits: int, cols: int) -> Tuple[List[int], List[int]]:
        """Packed masks of every window at *lane_bits*, and complements."""
        table = self._masks.get(lane_bits)
        if table is None:
            full = (1 << (cols * lane_bits)) - 1
            ms = [
                ((1 << ((stop - start) * lane_bits)) - 1) << (start * lane_bits)
                for start, stop in self.windows
            ]
            table = self._masks[lane_bits] = (ms, [full ^ m for m in ms])
        return table

    def energy_const_fj(self, device) -> float:
        """Data-independent per-lane energy of one replay on *device*."""
        return (
            device.e_set_fj * self.set_cells
            + device.e_reset_fj * self.reset_cells
            + device.e_read_fj * self.read_cells
        )

    def resolve(
        self, row_map: Sequence[int], phys_rows: int, cols: int
    ) -> Tuple[List[tuple], np.ndarray]:
        """Physical-row steps and write-counter delta under *row_map*.

        Both are static properties of (program, remap table): pulse
        placement is data-independent, so the delta is materialised
        once per distinct row map and added to the array's counters per
        batch.
        """
        key = (tuple(row_map), phys_rows)
        entry = self._resolved.get(key)
        if entry is None:
            entry = self._resolved[key] = (
                self._map_rows(row_map),
                self._writes_delta(row_map, phys_rows, cols),
            )
        return entry

    def _map_rows(self, rmap: Sequence[int]) -> List[tuple]:
        if all(phys == row for row, phys in enumerate(rmap)):
            return self._logical
        steps = []
        for step in self._logical:
            code = step[0]
            if code == _PACK:
                gang = []
                for first, rest, _, w, out in step[1]:
                    others = tuple(rmap[r] for r in rest)
                    gang.append((rmap[first], others, rmap[out], w, out))
                step = (_PACK, tuple(gang))
            elif code == _INIT:
                step = (_INIT, tuple(rmap[r] for r in step[1]), step[2])
            elif code == _WRITE or code == _READ:
                step = (code, rmap[step[1]]) + step[2:]
            elif code == _SHIFT:
                _, src, dst, offset, w, fill_window, also_init, row = step
                step = (
                    _SHIFT,
                    rmap[src],
                    rmap[dst],
                    offset,
                    w,
                    fill_window,
                    tuple(rmap[r] for r in also_init),
                    row,
                )
            steps.append(step)
        return steps

    def _writes_delta(
        self, row_map: Sequence[int], phys_rows: int, cols: int
    ) -> np.ndarray:
        delta = np.zeros((phys_rows, cols), dtype=np.int64)
        windows = self.windows
        for (row, w), pulses in self._writes_recipe.items():
            start, stop = windows[w]
            delta[row_map[row], start:stop] += pulses
        return delta


class WordPackedMagicExecutor:
    """Replays compiled programs against a :class:`WordPackedCrossbarArray`.

    The word-packed fast path of the batched executor: every physical
    row is one big integer holding one bit per lane per column (lanes
    padded to whole bytes), so a row-parallel NOR over the whole batch
    is a handful of bitwise integer operations instead of a numpy pass
    over a byte-per-bit tensor.  Accounting stays in integers: each
    RESET (NOR), WRITE and SHIFT event adds the popcount of its packed
    mask over the real lanes to a per-coefficient event count, folded
    into the array's energy total once per replay, and write counters
    are applied as one precomputed per-program delta.  Per-lane
    results, cycle counts and write counters stay bit-identical to the
    scalar oracle and the bit-plane path, and the energy total equals
    the sum of the oracle's per-lane energies.  Energy is not split per
    lane: each lane's ``RunStats.energy_fj`` is NaN, and the batch
    total is :meth:`WordPackedCrossbarArray.total_energy_fj`.
    """

    def __init__(
        self,
        array: WordPackedCrossbarArray,
        clock: Optional[Clock] = None,
        trace: Optional[Trace] = None,
        fault_hook=None,
    ):
        self.array = array
        self.clock = clock if clock is not None else Clock()
        self.trace = trace if trace is not None else Trace(enabled=False)
        self.fault_hook = fault_hook
        self._compile_cache = _CompileCache(array.rows, array.cols)

    def compile_cache_stats(self) -> CompileCacheStats:
        """Hit/miss counters of this executor's program-compile cache."""
        return self._compile_cache.stats

    def compile(self, program: Program) -> CompiledProgram:
        """Compile (and cache) *program* for this array's geometry."""
        return self._compile_cache.get(program)

    # ------------------------------------------------------------------
    @staticmethod
    def _lowered(compiled: CompiledProgram) -> _WordLoweredProgram:
        lowered = compiled._word_lowered
        if lowered is None:
            lowered = compiled._word_lowered = _WordLoweredProgram(compiled)
        return lowered

    def _pack_operands(
        self,
        specs: Sequence[Tuple[str, int]],
        bindings_list: Sequence[Dict[str, int]],
    ) -> List[int]:
        """Marshal every WRITE operand of a replay, in one numpy pass.

        Each lane's operands are concatenated into one integer, the
        ``(batch, total width)`` bit matrix is transposed column-major
        at once, and each operand's field int is cut from the packed
        bytes: bit ``i * lane_bits + lane`` of operand *k* is bit *i*
        of lane's value.  Padding lanes replicate the last real lane so
        full-word invariants (strict NOR checks) stay equivalent to
        per-lane ones.
        """
        lanes = [0] * len(bindings_list)
        total = 0
        for name, width in specs:
            try:
                values = [bindings[name] for bindings in bindings_list]
            except KeyError:
                raise ProgramError(
                    f"WRITE references unbound operand {name!r}"
                ) from None
            _check_storable(values, width)
            lanes = [
                lane | (value << total) for lane, value in zip(lanes, values)
            ]
            total += width
        if not total:
            return [0] * len(specs)
        lane_bits = self.array.lane_bits
        lanes.extend([lanes[-1]] * (lane_bits - len(lanes)))
        nbytes = (total + 7) // 8
        raw = np.frombuffer(
            b"".join(lane.to_bytes(nbytes, "little") for lane in lanes),
            dtype=np.uint8,
        ).reshape(lane_bits, nbytes)
        bits = np.unpackbits(raw, axis=1, bitorder="little")[:, :total]
        packed = np.packbits(bits.T, bitorder="little").tobytes()
        lane_bytes = lane_bits // 8
        fields = []
        begin = 0
        for _, width in specs:
            end = begin + width * lane_bytes
            fields.append(int.from_bytes(packed[begin:end], "little"))
            begin = end
        return fields

    def _unpack_reads(
        self, reads: List[Tuple[str, int, int]], results: List[Dict[str, int]]
    ) -> None:
        """Store every READ of a replay into the per-lane *results*.

        *reads* holds ``(name, width, field int)`` in program order; the
        fields are unmarshalled in one numpy pass (the inverse of
        :meth:`_pack_operands`), later reads of a name overwriting
        earlier ones as in the scalar executor.
        """
        lane_bytes = self.array.lane_bits // 8
        buf = b"".join(
            value.to_bytes(width * lane_bytes, "little")
            for _, width, value in reads
        )
        bits = np.unpackbits(
            np.frombuffer(buf, dtype=np.uint8), bitorder="little"
        ).reshape(-1, lane_bytes * 8)
        for lane_results, value in zip(
            results, unpack_ints(bits[:, : len(results)].T)
        ):
            for name, width, _ in reads:
                lane_results[name] = value & ((1 << width) - 1)
                value >>= width

    # ------------------------------------------------------------------
    def execute(
        self,
        program,
        bindings_list: Sequence[Dict[str, int]],
    ) -> List[RunStats]:
        """Execute a :class:`Program` or :class:`CompiledProgram` with
        one binding set per lane; returns one :class:`RunStats` per lane.
        """
        compiled = (
            program
            if isinstance(program, CompiledProgram)
            else self.compile(program)
        )
        array = self.array
        if compiled.rows != array.rows or compiled.cols != array.cols:
            raise ProgramError(
                f"program compiled for {compiled.rows}x{compiled.cols} "
                f"cannot run on {array.rows}x{array.cols}"
            )
        batch = array.batch
        if len(bindings_list) != batch:
            raise ProgramError(
                f"got {len(bindings_list)} binding sets for {batch} lanes"
            )
        lowered = self._lowered(compiled)
        packed = self._pack_operands(compiled.write_specs, bindings_list)
        lane_bits = array.lane_bits
        steps, writes_delta = lowered.resolve(
            array._row_map, array.phys_rows, array.cols
        )
        masks, not_masks = lowered.masks(lane_bits, array.cols)
        np_masks = lowered.np_masks
        windows = lowered.windows

        reads: List[Tuple[str, int, int]] = []
        trace_enabled = self.trace.enabled
        hook = self.fault_hook
        state = array._state
        # Switching events over the real lanes: RESETs charge e_reset,
        # set cells of a WRITE or SHIFT charge e_set - e_reset on top
        # of the per-cell RESET pulse in the constant part.
        real = array._real_lanes
        popcount = _popcount
        resets = 0
        sets = 0
        strict = array.strict_magic
        have_faults = bool(array._faults)
        for index, step in enumerate(steps):
            code = step[0]
            if code == _PACK:
                for first, rest, out_phys, w, out_row in step[1]:
                    m = masks[w]
                    out = state[out_phys]
                    any_one = state[first]
                    for row in rest:
                        any_one |= state[row]
                    event = any_one & m
                    if strict:
                        if (out & m) != m:
                            raise MagicProtocolError(
                                f"NOR output row {out_row} not initialised "
                                "to logic one in every lane"
                            )
                        # out holds ones across m, so clearing the
                        # switching cells is one xor, and every one of
                        # them was a one: the RESET event is `event`.
                        state[out_phys] = out ^ event
                    else:
                        state[out_phys] = (out & not_masks[w]) | (m ^ event)
                        event &= out
                    resets += popcount(event & real)
                    if have_faults:
                        array._apply_faults()
                    if hook is not None:
                        hook.on_nor(array, out_row, np_masks[w])
                        have_faults = bool(array._faults)
            elif code == _INIT:
                m = masks[step[2]]
                for phys in step[1]:
                    state[phys] |= m
                if have_faults:
                    array._apply_faults()
            elif code == _WRITE:
                _, phys, operand, w, row = step
                pre = array.unpack_row(row) if hook is not None else None
                value = packed[operand] << (windows[w][0] * lane_bits)
                sets += popcount(value & real)
                state[phys] = (state[phys] & not_masks[w]) | value
                if have_faults:
                    array._apply_faults()
                if hook is not None:
                    write_mask = np_masks[w]
                    if write_mask is None:
                        write_mask = np.ones(array.cols, dtype=bool)
                    hook.on_write(array, row, write_mask, pre)
                    have_faults = bool(array._faults)
            elif code == _READ:
                _, phys, w, width, name, row = step
                field = (state[phys] & masks[w]) >> (windows[w][0] * lane_bits)
                reads.append((name, width, field))
                if hook is not None:
                    hook.on_read(array, row)
                    have_faults = bool(array._faults)
            elif code == _SHIFT:
                _, src, dst, offset, w, fill_window, also_init, row = step
                m = masks[w]
                if offset >= 0:
                    shifted = ((state[src] & m) << (offset * lane_bits)) & m
                else:
                    shifted = ((state[src] & m) >> (-offset * lane_bits)) & m
                if fill_window is not None:
                    shifted |= masks[fill_window]
                pre = array.unpack_row(row) if hook is not None else None
                state[dst] = (state[dst] & not_masks[w]) | shifted
                sets += popcount(shifted & real)
                if have_faults:
                    array._apply_faults()
                if hook is not None:
                    write_mask = np_masks[w]
                    if write_mask is None:
                        write_mask = np.ones(array.cols, dtype=bool)
                    hook.on_write(array, row, write_mask, pre)
                    have_faults = bool(array._faults)
                for phys in also_init:
                    state[phys] |= m
                if also_init and have_faults:
                    array._apply_faults()
            # _NOP: nothing to evaluate.
            if trace_enabled:
                op = compiled.program.ops[index]
                self.trace.record(self.clock.cycles, op.opcode, repr(op))

        device = array.device
        array._energy_fj += (
            device.e_reset_fj * resets
            + (device.e_set_fj - device.e_reset_fj) * sets
            + lowered.energy_const_fj(device) * batch
        )
        array._writes += writes_delta
        begin_cc = self.clock.cycles
        for opcode, cycles in compiled.cycles_by_opcode.items():
            self.clock.tick(cycles, category=opcode)
        tracer = _telemetry.active()
        if tracer is not None:
            tracer.record(
                "magic.program",
                begin_cc,
                self.clock.cycles,
                label=compiled.label or "program",
                ops=len(compiled.steps),
                lanes=batch,
                nor=compiled.stat_counts.get("nor_ops", 0)
                + compiled.stat_counts.get("not_ops", 0),
            )

        results: List[Dict[str, int]] = [{} for _ in range(batch)]
        if reads:
            self._unpack_reads(reads, results)
        stats_list = []
        for lane in range(batch):
            stats = RunStats(
                cycles=compiled.cycle_count,
                energy_fj=float("nan"),
                op_counts=dict(compiled.op_counts),
                results=results[lane],
            )
            for field_name, count in compiled.stat_counts.items():
                setattr(stats, field_name, count)
            stats_list.append(stats)
        return stats_list
