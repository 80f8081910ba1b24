"""Executor backend protocol and registry for batched MAGIC execution.

One batched MAGIC replay — a compiled program evaluated over *B*
operand sets in lock-step — has three interchangeable execution
strategies, all accounting-equivalent:

* ``scalar`` — :class:`ScalarBackend`: one :class:`~repro.magic.executor.MagicExecutor`
  pass per lane on per-lane array copies.  Slowest, but it is the
  bit-exact oracle the other two are differentially tested against.
* ``bitplane`` — :class:`BitPlaneBackend`: the historical
  :class:`~repro.magic.executor.BatchedMagicExecutor` path over a
  ``(batch, rows, cols)`` bool tensor (one byte per logical bit).
* ``word`` — :class:`WordPackedBackend`: the
  :class:`~repro.magic.executor.WordPackedMagicExecutor` fast path
  packing one bit per lane per column into big-integer rows, lanes
  padded to whole bytes.

A backend is a factory pair: :meth:`ExecutorBackend.make_array` clones
a scalar template array into a batch-capable container and
:meth:`ExecutorBackend.make_executor` wraps it in the matching
executor.  Everything downstream (stage batch paths, the service
config, benchmarks) selects a backend by registry name through
:func:`get_backend`; per-lane results, cycle counts, write counters
and the batch energy total are bit-identical across all three, so the
choice only moves wall-clock simulation speed.

The paper's closed-form cycle counts are a property of the *programs*,
not the backend — every backend replays the same compiled program and
ticks the same clock histogram, so Sec. IV latency/energy numbers are
reproducible under any of the three.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.crossbar.array import (
    BatchedCrossbarArray,
    CrossbarArray,
    WordPackedCrossbarArray,
)
from repro.magic.executor import (
    BatchedMagicExecutor,
    CompiledProgram,
    MagicExecutor,
    WordPackedMagicExecutor,
)
from repro.sim.clock import Clock
from repro.sim.exceptions import ProgramError
from repro.sim.stats import RunStats
from repro.sim.trace import Trace


class ExecutorBackend:
    """Strategy interface for batched MAGIC execution.

    Concrete backends provide two factories; everything else (compile
    caches, stage fold-back of writes/energy, telemetry) is shared
    machinery that only touches the uniform array/executor surface:
    ``reset_to_ones`` / ``repin_faults`` / ``writes`` /
    ``total_energy_fj()`` / ``snapshot(lane)`` on arrays, and
    ``execute(compiled, bindings)`` on executors.  Per-lane energy
    (``energy_fj`` vectors, ``lane_energy_fj``, ``RunStats.energy_fj``)
    is kept by the scalar oracle and the bit-plane path only; the word
    backend keeps the batch total.
    """

    #: Registry name (``"scalar"`` / ``"bitplane"`` / ``"word"``).
    name: str = ""

    def make_array(self, template: CrossbarArray, batch: int):
        """Clone *template*'s state/faults/remap into a batch container."""
        raise NotImplementedError

    def make_executor(self, array, clock=None, trace=None, fault_hook=None):
        """Wrap a :meth:`make_array` product in the matching executor."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class ScalarLaneArray:
    """Batch of independent scalar array copies (the oracle layout).

    Exposes the same accounting surface as the SIMD containers so the
    stage batch paths can fold counters back uniformly: ``writes`` has
    per-lane semantics (every lane pulses identically, lane 0 is
    reported), ``energy_fj`` is the per-lane vector.
    """

    def __init__(self, lanes: List[CrossbarArray]):
        if not lanes:
            raise ValueError("ScalarLaneArray needs at least one lane")
        self.lanes = lanes
        first = lanes[0]
        self.batch = len(lanes)
        self.rows = first.rows
        self.cols = first.cols
        self.spare_rows = first.spare_rows
        self.device = first.device
        self.strict_magic = first.strict_magic

    @classmethod
    def from_scalar(cls, array: CrossbarArray, batch: int) -> "ScalarLaneArray":
        lanes = []
        for _ in range(batch):
            lane = CrossbarArray(
                array.rows,
                array.cols,
                device=array.device,
                strict_magic=array.strict_magic,
                spare_rows=array.spare_rows,
            )
            lane.state[:] = array.state
            lane._faults = dict(array._faults)
            lane._row_map = list(array._row_map)
            lane._spares_free = list(array._spares_free)
            lane._apply_faults()
            lanes.append(lane)
        return cls(lanes)

    @property
    def phys_rows(self) -> int:
        return self.rows + self.spare_rows

    def physical_row(self, row: int) -> int:
        return self.lanes[0].physical_row(row)

    @property
    def writes(self) -> np.ndarray:
        """Per-lane write counters (lane 0; placement is data-independent)."""
        return self.lanes[0].writes

    @property
    def energy_fj(self) -> np.ndarray:
        """Per-lane accumulated energy, ``(batch,)`` float64."""
        return np.array([lane.energy_fj for lane in self.lanes])

    def lane_energy_fj(self, lane: int) -> float:
        return float(self.lanes[lane].energy_fj)

    def total_energy_fj(self) -> float:
        return float(self.energy_fj.sum())

    def max_writes(self) -> int:
        return self.lanes[0].max_writes()

    def total_writes(self) -> int:
        return self.lanes[0].total_writes()

    @property
    def faults(self):
        return self.lanes[0].faults

    def inject_fault(self, row: int, col: int, kind: str) -> None:
        for lane in self.lanes:
            lane.inject_fault(row, col, kind)

    def repin_faults(self) -> None:
        for lane in self.lanes:
            lane.repin_faults()

    def reset_to_ones(self) -> None:
        for lane in self.lanes:
            lane.state[:] = True

    def snapshot(self, lane: int) -> np.ndarray:
        return self.lanes[lane].snapshot()

    # -- batched memory operations (per-lane words) --------------------
    def peek_row(self, row: int) -> np.ndarray:
        return np.stack([lane.peek_row(row) for lane in self.lanes])

    def read_row(self, row: int) -> np.ndarray:
        return np.stack([lane.read_row(row) for lane in self.lanes])

    def write_row(self, row: int, bits, mask=None) -> None:
        bits = np.asarray(bits, dtype=bool)
        if bits.shape != (self.batch, self.cols):
            raise ValueError(
                f"word shape {bits.shape} != ({self.batch}, {self.cols})"
            )
        for lane, word in zip(self.lanes, bits):
            lane.write_row(row, word, mask)

    def init_rows(self, rows, mask=None) -> None:
        for lane in self.lanes:
            lane.init_rows(rows, mask)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScalarLaneArray({self.batch}x{self.rows}x{self.cols})"


class ScalarLaneExecutor:
    """Oracle batch executor: one scalar pass per lane, lock-step clock.

    Each lane runs through a fresh :class:`MagicExecutor` with a
    throwaway clock; the shared clock then advances once by the
    program's cycle histogram, matching the SIMD backends' lock-step
    semantics.  Slow by construction — this is the reference the fast
    paths are differentially tested against, not a production path.
    """

    def __init__(
        self,
        array: ScalarLaneArray,
        clock: Optional[Clock] = None,
        trace: Optional[Trace] = None,
        fault_hook=None,
    ):
        self.array = array
        self.clock = clock if clock is not None else Clock()
        self.trace = trace if trace is not None else Trace(enabled=False)
        self.fault_hook = fault_hook

    def compile(self, program) -> CompiledProgram:
        return CompiledProgram(program, self.array.rows, self.array.cols)

    def execute(
        self,
        program,
        bindings_list: Sequence[Dict[str, int]],
    ) -> List[RunStats]:
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
        if len(bindings_list) != self.array.batch:
            raise ProgramError(
                f"got {len(bindings_list)} binding sets for "
                f"{self.array.batch} lanes"
            )
        stats_list: List[RunStats] = []
        for lane, bindings in zip(self.array.lanes, bindings_list):
            executor = MagicExecutor(
                lane,
                clock=Clock(),
                trace=self.trace,
                fault_hook=self.fault_hook,
            )
            stats_list.append(executor.execute(compiled.program, bindings))
        for opcode, cycles in compiled.cycles_by_opcode.items():
            self.clock.tick(cycles, category=opcode)
        return stats_list


class ScalarBackend(ExecutorBackend):
    """Per-lane scalar replay — the bit-exact differential oracle."""

    name = "scalar"

    def make_array(self, template: CrossbarArray, batch: int) -> ScalarLaneArray:
        return ScalarLaneArray.from_scalar(template, batch)

    def make_executor(self, array, clock=None, trace=None, fault_hook=None):
        return ScalarLaneExecutor(
            array, clock=clock, trace=trace, fault_hook=fault_hook
        )


class BitPlaneBackend(ExecutorBackend):
    """Bool-tensor SIMD replay (one byte per logical bit)."""

    name = "bitplane"

    def make_array(
        self, template: CrossbarArray, batch: int
    ) -> BatchedCrossbarArray:
        return BatchedCrossbarArray.from_scalar(template, batch)

    def make_executor(self, array, clock=None, trace=None, fault_hook=None):
        return BatchedMagicExecutor(
            array, clock=clock, trace=trace, fault_hook=fault_hook
        )


class WordPackedBackend(ExecutorBackend):
    """Big-integer SIMD replay, one bit per lane, byte-padded lanes."""

    name = "word"

    def make_array(
        self, template: CrossbarArray, batch: int
    ) -> WordPackedCrossbarArray:
        return WordPackedCrossbarArray.from_scalar(template, batch)

    def make_executor(self, array, clock=None, trace=None, fault_hook=None):
        return WordPackedMagicExecutor(
            array, clock=clock, trace=trace, fault_hook=fault_hook
        )


#: Registry of selectable backends (aliases included).
BACKENDS: Dict[str, ExecutorBackend] = {}
for _backend in (ScalarBackend(), BitPlaneBackend(), WordPackedBackend()):
    BACKENDS[_backend.name] = _backend
BACKENDS["bit-plane"] = BACKENDS["bitplane"]
BACKENDS["word-packed"] = BACKENDS["word"]

#: Names accepted by configuration surfaces (canonical spellings only).
BACKEND_NAMES = ("scalar", "bitplane", "word")


def backend_name(spec) -> str:
    """Canonical name of a backend spec, aliases normalised.

    Design-point keys and compiled-program cache variants embed this
    so alias spellings (``"word-packed"`` vs ``"word"``) can never
    mint distinct cache entries for the same backend.
    """
    return get_backend(spec).name


def get_backend(spec) -> ExecutorBackend:
    """Resolve *spec* — a registry name or backend instance — to a backend.

    Accepts canonical names (``"scalar"``, ``"bitplane"``, ``"word"``),
    the aliases ``"bit-plane"`` / ``"word-packed"``, or an
    :class:`ExecutorBackend` instance (returned as-is).
    """
    if isinstance(spec, ExecutorBackend):
        return spec
    if isinstance(spec, str):
        backend = BACKENDS.get(spec.lower())
        if backend is not None:
            return backend
        raise ValueError(
            f"unknown executor backend {spec!r}; "
            f"choose from {sorted(set(BACKENDS))}"
        )
    raise TypeError(
        f"backend must be a name or ExecutorBackend, got {type(spec).__name__}"
    )
