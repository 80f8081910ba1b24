"""Bit-level ReRAM crossbar array with in-memory logic primitives.

The array stores one bit per memristor in a ``rows x cols`` grid
(Fig. 1a of the paper): horizontal word lines select rows, vertical bit
lines carry write voltages and sense currents.  On top of plain
read/write words it implements the stateful-logic primitives the paper
and its baselines rely on:

* **MAGIC NOR / NOT** (Sec. II-B): row-parallel NOR of one or more input
  rows into an output row whose cells were initialised to logic one.
* **IMPLY** (baseline [6]): material implication, destructive on the
  second operand row.
* **MAJORITY** (baseline [8]): row-parallel three-input majority.

The array is purely *spatial*: it tracks state, per-cell write counts
and injected faults, but not time.  Cycle accounting belongs to the
executors (:mod:`repro.magic.executor` and the baseline models), which
call into this class.

:class:`BatchedCrossbarArray` is the SIMD counterpart used by the
batched executor: it holds ``(batch, rows, cols)`` state so one micro-op
sequence evaluates *batch* independent operand sets in a single numpy
pass.  Write-pulse counts are data-independent (every lane sees the
same pulses for the same op sequence), so the write counters stay
``(rows, cols)`` with per-lane semantics; energy is data-dependent and
is tracked as one accumulator per lane.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.crossbar.device import DeviceModel
from repro.sim.exceptions import (
    AddressError,
    FaultInjectionError,
    MagicProtocolError,
    SpareRowsExhaustedError,
)

#: Supported stuck-at fault kinds.
FAULT_STUCK_AT_0 = "sa0"
FAULT_STUCK_AT_1 = "sa1"
_FAULT_KINDS = (FAULT_STUCK_AT_0, FAULT_STUCK_AT_1)


class CrossbarArray:
    """A simulated memristive crossbar.

    Parameters
    ----------
    rows, cols:
        Grid dimensions (word lines x bit lines).
    device:
        Electrical/lifetime parameters shared by every cell.
    strict_magic:
        When true (the default), executing a MAGIC NOR whose output
        cells are not initialised to logic one raises
        :class:`MagicProtocolError` instead of silently computing a
        wrong value.  Disable only for fault-injection studies.
    spare_rows:
        Redundant word lines appended below the logical grid.  Logical
        row addresses stay ``0..rows-1``; :meth:`remap_row` retargets a
        logical row onto a spare physical word line (transparent to
        compiled programs, which only ever see logical addresses).
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        device: Optional[DeviceModel] = None,
        strict_magic: bool = True,
        spare_rows: int = 0,
    ):
        if rows <= 0 or cols <= 0:
            raise ValueError(f"crossbar dimensions must be positive, got {rows}x{cols}")
        if spare_rows < 0:
            raise ValueError(f"spare_rows must be non-negative, got {spare_rows}")
        self.rows = rows
        self.cols = cols
        self.spare_rows = spare_rows
        self.device = device if device is not None else DeviceModel()
        self.strict_magic = strict_magic
        self.state = np.zeros((rows + spare_rows, cols), dtype=bool)
        self.writes = np.zeros((rows + spare_rows, cols), dtype=np.int64)
        self.energy_fj = 0.0
        #: Faults are keyed by *physical* coordinates, so remapping a
        #: logical row onto a spare leaves the defect behind.
        self._faults: Dict[Tuple[int, int], str] = {}
        #: Logical -> physical word-line translation.
        self._row_map = list(range(rows))
        self._spares_free = list(range(rows, rows + spare_rows))

    # ------------------------------------------------------------------
    # Addressing helpers
    # ------------------------------------------------------------------
    @property
    def cells(self) -> int:
        """Total number of logical memristors in the array."""
        return self.rows * self.cols

    @property
    def phys_rows(self) -> int:
        """Physical word lines, including spares."""
        return self.rows + self.spare_rows

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.rows:
            raise AddressError(f"row {row} outside 0..{self.rows - 1}")

    def _row(self, row: int) -> int:
        """Translate a logical row address to its physical word line."""
        self._check_row(row)
        return self._row_map[row]

    def physical_row(self, row: int) -> int:
        """Public logical->physical translation (fault models need it to
        corrupt the cells actually backing a logical row)."""
        return self._row(row)

    def _check_col(self, col: int) -> None:
        if not 0 <= col < self.cols:
            raise AddressError(f"col {col} outside 0..{self.cols - 1}")

    def _mask(self, mask: Optional[np.ndarray]) -> np.ndarray:
        if mask is None:
            return np.ones(self.cols, dtype=bool)
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.cols,):
            raise AddressError(
                f"column mask shape {mask.shape} != ({self.cols},)"
            )
        return mask

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def inject_fault(self, row: int, col: int, kind: str) -> None:
        """Pin the cell currently backing logical (*row*, *col*).

        The fault attaches to the *physical* word line the logical row
        maps to right now — remapping the row afterwards leaves the
        defective cell stranded on the retired physical line.
        """
        phys = self._row(row)
        self._check_col(col)
        if kind not in _FAULT_KINDS:
            raise FaultInjectionError(f"unknown fault kind {kind!r}")
        self._faults[(phys, col)] = kind
        self.state[phys, col] = kind == FAULT_STUCK_AT_1

    def clear_faults(self) -> None:
        """Remove all injected faults (cell values keep their last state)."""
        self._faults.clear()

    @property
    def fault_count(self) -> int:
        return len(self._faults)

    @property
    def faults(self) -> Dict[Tuple[int, int], str]:
        """Read-only copy of the injected fault map.

        Keys are *physical* ``(row, col)`` coordinates; values are the
        fault kinds (``"sa0"`` / ``"sa1"``).
        """
        return dict(self._faults)

    def _apply_faults(self) -> None:
        for (row, col), kind in self._faults.items():
            self.state[row, col] = kind == FAULT_STUCK_AT_1

    def repin_faults(self) -> None:
        """Re-assert every pinned fault onto the state.

        Public hook for fault models and repair paths that mutate
        ``state`` directly and must keep permanent defects visible.
        """
        self._apply_faults()

    # ------------------------------------------------------------------
    # Spare-row remapping & write-verify diagnosis
    # ------------------------------------------------------------------
    @property
    def spare_rows_free(self) -> int:
        """Spare word lines still available for remapping."""
        return len(self._spares_free)

    def remap_table(self) -> Dict[int, int]:
        """Logical rows currently remapped, as ``{logical: physical}``."""
        return {
            logical: phys
            for logical, phys in enumerate(self._row_map)
            if phys != logical
        }

    def remap_row(self, row: int) -> int:
        """Retarget logical *row* onto a fresh spare word line.

        The spare is initialised to logic one (the MAGIC steady state a
        freshly-initialised output row would hold); the caller replays
        whatever computation depended on the row.  Returns the physical
        line now backing the row; raises
        :class:`SpareRowsExhaustedError` when no spares remain.
        """
        self._check_row(row)
        if not self._spares_free:
            raise SpareRowsExhaustedError(
                f"cannot remap row {row}: 0 of {self.spare_rows} spare "
                "rows left"
            )
        phys = self._spares_free.pop(0)
        self._row_map[row] = phys
        self.state[phys] = True
        self._apply_faults()
        return phys

    def verify_row_writable(self, row: int) -> bool:
        """March-test logical *row*: write 0s and 1s, sense each back.

        Destructive — the row is left holding all-ones (the MAGIC
        steady state), so run this only during repair, before operands
        are (re)loaded.  Returns ``False`` when any cell fails to take
        either polarity (stuck-at, or a parametric write failure that
        happens to strike the march writes).
        """
        zeros = np.zeros(self.cols, dtype=bool)
        ones = np.ones(self.cols, dtype=bool)
        self.write_row(row, zeros)
        if bool(self.read_row(row).any()):
            self.write_row(row, ones)
            return False
        self.write_row(row, ones)
        return bool(self.read_row(row).all())

    def find_faulty_rows(self, rows: Optional[Iterable[int]] = None) -> list:
        """Write-verify every row in *rows* (default: all logical rows).

        Returns the logical rows that fail the march test.  Destructive
        (rows end holding all-ones) — see :meth:`verify_row_writable`.
        """
        candidates = range(self.rows) if rows is None else rows
        return [row for row in candidates if not self.verify_row_writable(row)]

    # ------------------------------------------------------------------
    # Plain memory operations
    # ------------------------------------------------------------------
    def write_row(
        self, row: int, bits: Sequence[int], mask: Optional[np.ndarray] = None
    ) -> None:
        """Program a full word: the word-line driver selects *row* and
        the write circuit drives every (unmasked) bit line at once."""
        row = self._row(row)
        mask = self._mask(mask)
        bits = np.asarray(bits, dtype=bool)
        if bits.shape != (self.cols,):
            raise AddressError(f"word shape {bits.shape} != ({self.cols},)")
        self.state[row, mask] = bits[mask]
        self.writes[row, mask] += 1
        self.energy_fj += float(
            np.where(bits[mask], self.device.e_set_fj, self.device.e_reset_fj).sum()
        )
        self._apply_faults()

    def read_row(self, row: int, mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Sense a word via the bit-line sense amplifiers.

        A column *mask* restricts which sense amplifiers are activated:
        only masked cells are charged read energy.  The full row state
        is still returned (callers slice out their window); the energy
        model is what the mask exists for.
        """
        row = self._row(row)
        mask = self._mask(mask)
        self.energy_fj += self.device.e_read_fj * int(mask.sum())
        return self.state[row].copy()

    def write_bit(self, row: int, col: int, bit: int) -> None:
        """Program a single cell."""
        row = self._row(row)
        self._check_col(col)
        self.state[row, col] = bool(bit)
        self.writes[row, col] += 1
        self.energy_fj += self.device.write_energy_fj(int(bit))
        self._apply_faults()

    def read_bit(self, row: int, col: int) -> int:
        row = self._row(row)
        self._check_col(col)
        self.energy_fj += self.device.e_read_fj
        return int(self.state[row, col])

    def peek_row(self, row: int) -> np.ndarray:
        """Current word of logical *row* without sensing (no energy).

        Modelling convenience for read-modify-write composition: a
        masked write only drives its window, so the caller peeks the
        untouched cells rather than charging a full sense operation.
        """
        return self.state[self._row(row)].copy()

    # ------------------------------------------------------------------
    # Stateful logic primitives
    # ------------------------------------------------------------------
    def init_rows(
        self, rows: Iterable[int], mask: Optional[np.ndarray] = None
    ) -> None:
        """Initialise cells in *rows* to logic one (MAGIC preparation).

        Multiple word lines are driven simultaneously, so the MAGIC
        literature counts this as a single cycle regardless of how many
        rows are initialised; it is still one write pulse per cell.  A
        row listed more than once still receives exactly one pulse (the
        word line is either driven or not), so duplicates are counted
        and charged once.
        """
        mask = self._mask(mask)
        for row in dict.fromkeys(rows):
            row = self._row(row)
            self.state[row, mask] = True
            self.writes[row, mask] += 1
            self.energy_fj += self.device.e_set_fj * int(mask.sum())
        self._apply_faults()

    def nor_rows(
        self,
        in_rows: Sequence[int],
        out_row: int,
        mask: Optional[np.ndarray] = None,
    ) -> None:
        """Row-parallel MAGIC NOR: ``out = NOR(in_rows)`` per bit line.

        Electrically, input word lines are driven at ``V0`` and the
        output row is grounded; output cells conduct enough current to
        switch to logic zero exactly when at least one input cell in the
        same bit line stores logic one.  A single-element *in_rows* is a
        MAGIC NOT.  Output cells must hold logic one beforehand.
        """
        if not in_rows:
            raise MagicProtocolError("MAGIC NOR requires at least one input row")
        in_phys = [self._row(row) for row in in_rows]
        out_phys = self._row(out_row)
        if out_phys in in_phys:
            raise MagicProtocolError(
                f"output row {out_row} cannot also be a NOR input"
            )
        mask = self._mask(mask)
        if self.strict_magic and not bool(self.state[out_phys, mask].all()):
            raise MagicProtocolError(
                f"NOR output row {out_row} not initialised to logic one"
            )
        any_one = np.zeros(self.cols, dtype=bool)
        for row in in_phys:
            any_one |= self.state[row]
        switching = mask & any_one & self.state[out_phys]
        self.state[out_phys, mask] = ~any_one[mask]
        # Every output cell receives the pulse; switching cells dissipate
        # the reset energy.
        self.writes[out_phys, mask] += 1
        self.energy_fj += self.device.e_reset_fj * int(switching.sum())
        self._apply_faults()

    def not_row(
        self, in_row: int, out_row: int, mask: Optional[np.ndarray] = None
    ) -> None:
        """MAGIC NOT: single-input special case of :meth:`nor_rows`."""
        self.nor_rows([in_row], out_row, mask)

    def imply_rows(
        self, p_row: int, q_row: int, mask: Optional[np.ndarray] = None
    ) -> None:
        """Row-parallel IMPLY: ``q <- p IMPLY q`` (destructive on *q*).

        Used by the IMPLY-based baseline [6].  Truth table: the result
        is 0 only when ``p = 1`` and ``q = 0``; since ``q`` already
        holds 0 in that case, only ``p = 0`` cells may switch ``q`` to 1.
        """
        p_row = self._row(p_row)
        q_row = self._row(q_row)
        if p_row == q_row:
            raise MagicProtocolError("IMPLY operand rows must differ")
        mask = self._mask(mask)
        p = self.state[p_row]
        result = ~p | self.state[q_row]
        switching = mask & result & ~self.state[q_row]
        self.state[q_row, mask] = result[mask]
        self.writes[q_row, mask] += 1
        self.energy_fj += self.device.e_set_fj * int(switching.sum())
        self._apply_faults()

    def maj_rows(
        self,
        in_rows: Sequence[int],
        out_row: int,
        mask: Optional[np.ndarray] = None,
    ) -> None:
        """Row-parallel three-input MAJORITY into *out_row*.

        Used by the MAJORITY-logic baseline [8] (Reuben-style adders).
        """
        if len(in_rows) != 3:
            raise MagicProtocolError("MAJORITY requires exactly three input rows")
        in_phys = [self._row(row) for row in in_rows]
        out_phys = self._row(out_row)
        if out_phys in in_phys:
            raise MagicProtocolError("MAJORITY output row cannot be an input")
        mask = self._mask(mask)
        total = np.zeros(self.cols, dtype=np.int8)
        for row in in_phys:
            total += self.state[row].astype(np.int8)
        result = total >= 2
        # Like NOR/IMPLY, only cells whose value actually changes
        # dissipate switching energy; 0->1 transitions cost a set pulse,
        # 1->0 transitions a reset pulse.
        switching = mask & (result != self.state[out_phys])
        sets = int((switching & result).sum())
        resets = int((switching & ~result).sum())
        self.state[out_phys, mask] = result[mask]
        self.writes[out_phys, mask] += 1
        self.energy_fj += (
            self.device.e_set_fj * sets + self.device.e_reset_fj * resets
        )
        self._apply_faults()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def max_writes(self) -> int:
        """Maximum write count over all cells (the paper's endurance metric)."""
        return int(self.writes.max())

    def total_writes(self) -> int:
        return int(self.writes.sum())

    def reset_write_counters(self) -> None:
        self.writes.fill(0)

    def snapshot(self) -> np.ndarray:
        """Copy of the logical bit state (rows x cols), remap applied."""
        return self.state[self._row_map].copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CrossbarArray({self.rows}x{self.cols}, "
            f"max_writes={self.max_writes()}, faults={self.fault_count})"
        )


class BatchedCrossbarArray:
    """``batch`` independent crossbar lanes evaluated in lock-step.

    The batched array models the paper's row-parallel SIMD execution
    across *B* replicated operand sets: one micro-op is applied to every
    lane in a single vectorised numpy pass.  Semantics per lane are
    identical to :class:`CrossbarArray` — the differential tests assert
    this bit-for-bit.

    Accounting:

    * ``state`` is ``(batch, rows, cols)`` bool;
    * ``writes`` stays ``(rows, cols)`` and counts pulses **per lane**
      (pulse placement is data-independent, so every lane accumulates
      the same counts — :meth:`max_writes` therefore matches what a
      scalar array running any one lane would report);
    * ``energy_fj`` is a ``(batch,)`` float vector, one accumulator per
      lane (switching energy is data-dependent).

    Stuck-at faults pin the same physical cell in every lane.
    """

    def __init__(
        self,
        batch: int,
        rows: int,
        cols: int,
        device: Optional[DeviceModel] = None,
        strict_magic: bool = True,
        spare_rows: int = 0,
    ):
        if batch <= 0:
            raise ValueError(f"batch size must be positive, got {batch}")
        if rows <= 0 or cols <= 0:
            raise ValueError(f"crossbar dimensions must be positive, got {rows}x{cols}")
        if spare_rows < 0:
            raise ValueError(f"spare_rows must be non-negative, got {spare_rows}")
        self.batch = batch
        self.rows = rows
        self.cols = cols
        self.spare_rows = spare_rows
        self.device = device if device is not None else DeviceModel()
        self.strict_magic = strict_magic
        self.state = np.zeros((batch, rows + spare_rows, cols), dtype=bool)
        self.writes = np.zeros((rows + spare_rows, cols), dtype=np.int64)
        self.energy_fj = np.zeros(batch, dtype=np.float64)
        self._faults: Dict[Tuple[int, int], str] = {}
        self._row_map = list(range(rows))

    @classmethod
    def from_scalar(cls, array: CrossbarArray, batch: int) -> "BatchedCrossbarArray":
        """Replicate a scalar array's current state into *batch* lanes.

        Write counters and energy start at zero — the batched array
        accounts only for what executes on it; faults and the spare-row
        remap table carry over (so replays after a remap land on the
        repaired word lines).
        """
        out = cls(
            batch,
            array.rows,
            array.cols,
            device=array.device,
            strict_magic=array.strict_magic,
            spare_rows=array.spare_rows,
        )
        out.state[:] = array.state[np.newaxis]
        out._faults = dict(array._faults)
        out._row_map = list(array._row_map)
        out._apply_faults()
        return out

    # ------------------------------------------------------------------
    @property
    def cells(self) -> int:
        """Logical memristors per lane."""
        return self.rows * self.cols

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.rows:
            raise AddressError(f"row {row} outside 0..{self.rows - 1}")

    def _row(self, row: int) -> int:
        """Translate a logical row address to its physical word line."""
        self._check_row(row)
        return self._row_map[row]

    def physical_row(self, row: int) -> int:
        """Public logical->physical translation (see the scalar array)."""
        return self._row(row)

    def _mask(self, mask: Optional[np.ndarray]) -> np.ndarray:
        if mask is None:
            return np.ones(self.cols, dtype=bool)
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.cols,):
            raise AddressError(f"column mask shape {mask.shape} != ({self.cols},)")
        return mask

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def inject_fault(self, row: int, col: int, kind: str) -> None:
        """Pin cell (*row*, *col*) of every lane to a stuck-at fault."""
        phys = self._row(row)
        if not 0 <= col < self.cols:
            raise AddressError(f"col {col} outside 0..{self.cols - 1}")
        if kind not in _FAULT_KINDS:
            raise FaultInjectionError(f"unknown fault kind {kind!r}")
        self._faults[(phys, col)] = kind
        self.state[:, phys, col] = kind == FAULT_STUCK_AT_1

    @property
    def faults(self) -> Dict[Tuple[int, int], str]:
        """Read-only copy of the fault map (physical coordinates)."""
        return dict(self._faults)

    def _apply_faults(self) -> None:
        for (row, col), kind in self._faults.items():
            self.state[:, row, col] = kind == FAULT_STUCK_AT_1

    def repin_faults(self) -> None:
        """Re-assert every pinned fault onto the state (public hook)."""
        self._apply_faults()

    def reset_to_ones(self) -> None:
        """Drive every cell (all lanes, spares included) to logic one.

        The MAGIC steady state a stage batch starts from; no energy or
        write pulses are charged — the stage's sequential path reaches
        the same state through its accounted program, so the batch seed
        is bookkeeping, not a modelled operation.  Re-pin faults after.
        """
        self.state[:] = True

    # ------------------------------------------------------------------
    # Plain memory operations (per-lane words)
    # ------------------------------------------------------------------
    def write_row(
        self, row: int, bits: np.ndarray, mask: Optional[np.ndarray] = None
    ) -> None:
        """Program one word per lane: *bits* is ``(batch, cols)``."""
        row = self._row(row)
        bits = np.asarray(bits, dtype=bool)
        if bits.shape != (self.batch, self.cols):
            raise AddressError(
                f"word shape {bits.shape} != ({self.batch}, {self.cols})"
            )
        if mask is None:
            self.state[:, row] = bits
            self.writes[row] += 1
            masked = bits
        else:
            mask = self._mask(mask)
            self.state[:, row, mask] = bits[:, mask]
            self.writes[row, mask] += 1
            masked = bits[:, mask]
        self.energy_fj += np.where(
            masked, self.device.e_set_fj, self.device.e_reset_fj
        ).sum(axis=1)
        if self._faults:
            self._apply_faults()

    def read_row(self, row: int, mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Sense one word per lane; returns ``(batch, cols)``.

        As in the scalar array, a column *mask* restricts which sense
        amplifiers fire and therefore which cells are charged read
        energy; the full per-lane rows are returned regardless.
        """
        row = self._row(row)
        if mask is None:
            sensed = self.cols
        else:
            sensed = int(self._mask(mask).sum())
        self.energy_fj += self.device.e_read_fj * sensed
        return self.state[:, row].copy()

    def peek_row(self, row: int) -> np.ndarray:
        """Per-lane word of logical *row* without sensing (no energy)."""
        return self.state[:, self._row(row)].copy()

    # ------------------------------------------------------------------
    # Stateful logic primitives
    # ------------------------------------------------------------------
    def init_rows(
        self, rows: Iterable[int], mask: Optional[np.ndarray] = None
    ) -> None:
        """Initialise cells in *rows* to logic one across all lanes."""
        if mask is None:
            for row in dict.fromkeys(rows):
                row = self._row(row)
                self.state[:, row] = True
                self.writes[row] += 1
                self.energy_fj += self.device.e_set_fj * self.cols
        else:
            mask = self._mask(mask)
            cells = int(mask.sum())
            for row in dict.fromkeys(rows):
                row = self._row(row)
                self.state[:, row, mask] = True
                self.writes[row, mask] += 1
                self.energy_fj += self.device.e_set_fj * cells
        if self._faults:
            self._apply_faults()

    def nor_rows(
        self,
        in_rows: Sequence[int],
        out_row: int,
        mask: Optional[np.ndarray] = None,
    ) -> None:
        """Row-parallel MAGIC NOR evaluated in every lane at once."""
        if not in_rows:
            raise MagicProtocolError("MAGIC NOR requires at least one input row")
        in_phys = [self._row(row) for row in in_rows]
        out_phys = self._row(out_row)
        if out_phys in in_phys:
            raise MagicProtocolError(
                f"output row {out_row} cannot also be a NOR input"
            )
        state = self.state
        if len(in_phys) == 1:
            any_one = state[:, in_phys[0]]
        else:
            any_one = np.logical_or(state[:, in_phys[0]], state[:, in_phys[1]])
            for row in in_phys[2:]:
                np.logical_or(any_one, state[:, row], out=any_one)
        out = state[:, out_phys]
        if mask is None:
            if self.strict_magic and not bool(out.all()):
                raise MagicProtocolError(
                    f"NOR output row {out_row} not initialised to logic one "
                    "in every lane"
                )
            switching = np.count_nonzero(any_one & out, axis=1)
            np.logical_not(any_one, out=out)
            self.writes[out_phys] += 1
            self.energy_fj += self.device.e_reset_fj * switching
        else:
            mask = self._mask(mask)
            if self.strict_magic and not bool(out[:, mask].all()):
                raise MagicProtocolError(
                    f"NOR output row {out_row} not initialised to logic one "
                    "in every lane"
                )
            switching = any_one & out
            switching[:, ~mask] = False
            state[:, out_phys, mask] = ~any_one[:, mask]
            self.writes[out_phys, mask] += 1
            self.energy_fj += self.device.e_reset_fj * switching.sum(axis=1)
        if self._faults:
            self._apply_faults()

    def not_row(
        self, in_row: int, out_row: int, mask: Optional[np.ndarray] = None
    ) -> None:
        """MAGIC NOT: single-input special case of :meth:`nor_rows`."""
        self.nor_rows([in_row], out_row, mask)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def max_writes(self) -> int:
        """Per-lane maximum write count (matches the scalar metric)."""
        return int(self.writes.max())

    def total_writes(self) -> int:
        """Per-lane total write pulses."""
        return int(self.writes.sum())

    def lane_energy_fj(self, lane: int) -> float:
        """Energy accumulated by one lane, in femtojoules."""
        return float(self.energy_fj[lane])

    def total_energy_fj(self) -> float:
        """Energy summed over all lanes."""
        return float(self.energy_fj.sum())

    def snapshot(self, lane: int) -> np.ndarray:
        """Copy of one lane's logical bit state (rows x cols)."""
        return self.state[lane][self._row_map].copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatchedCrossbarArray({self.batch}x{self.rows}x{self.cols}, "
            f"max_writes={self.max_writes()})"
        )


def _popcount_bin(value: int) -> int:
    """Set bits of a non-negative int by counting binary digits."""
    return bin(value).count("1")


#: Population count of a non-negative int: ``int.bit_count`` where the
#: interpreter has it (Python 3.10+), the digit count otherwise.
_popcount = getattr(int, "bit_count", _popcount_bin)


class WordPackedCrossbarArray:
    """Batched crossbar lanes packed bit-per-lane into big integers.

    The word-packed counterpart of :class:`BatchedCrossbarArray`: each
    physical word line is stored as one Python integer in which bit
    ``col * lane_bits + lane`` holds lane *lane*'s value of column
    *col*, with ``lane_bits = 8 * ceil(batch / 8)`` — byte-tight, so a
    lane-light batch moves only a few padding bits per column.  A
    row-parallel MAGIC NOR over the whole batch is then a handful of
    bitwise integer operations instead of a numpy pass over a
    byte-per-bit tensor.

    Accounting stays in integer land so the hot loop never leaves it:

    * energy is kept as one batch total, not per lane: each
      data-dependent switching event adds its coefficient times the
      popcount of its packed cell mask over the real lanes, so
      :meth:`total_energy_fj` equals the sum of the scalar oracle's
      per-lane energies (exact for integer device coefficients);
    * write pulses are queued (or, on the executor fast path, applied
      as one precomputed per-program delta) and folded into the
      ``(phys_rows, cols)`` per-lane counters when :attr:`writes` is
      read.

    Lanes beyond the real batch (``batch`` is rarely a multiple of 8)
    replicate the last real lane everywhere — initial state, operand
    marshalling, fault pinning — so full-word invariants such as the
    strict-MAGIC init check are exactly equivalent to checking the real
    lanes.  Energy events are masked to the real lanes, so the padding
    is never charged.
    """

    #: Lanes are padded to whole bytes so packed fields marshal through
    #: ``int.to_bytes`` / ``np.packbits`` without bit shuffling.
    LANE_ALIGN = 8

    def __init__(
        self,
        batch: int,
        rows: int,
        cols: int,
        device: Optional[DeviceModel] = None,
        strict_magic: bool = True,
        spare_rows: int = 0,
    ):
        if batch <= 0:
            raise ValueError(f"batch size must be positive, got {batch}")
        if rows <= 0 or cols <= 0:
            raise ValueError(f"crossbar dimensions must be positive, got {rows}x{cols}")
        if spare_rows < 0:
            raise ValueError(f"spare_rows must be non-negative, got {spare_rows}")
        self.batch = batch
        self.rows = rows
        self.cols = cols
        self.spare_rows = spare_rows
        self.device = device if device is not None else DeviceModel()
        self.strict_magic = strict_magic
        #: Bits reserved per column: one per lane, padded to whole bytes.
        align = self.LANE_ALIGN
        self.lane_bits = (batch + align - 1) // align * align
        self.row_bits = cols * self.lane_bits
        self._full = (1 << self.row_bits) - 1
        self._lane_block = (1 << self.lane_bits) - 1
        #: One packed integer per physical word line.
        self._state: list = [0] * (rows + spare_rows)
        self._writes = np.zeros((rows + spare_rows, cols), dtype=np.int64)
        #: Queued write pulses: (phys row, column mask or None, count).
        self._pending_writes: list = []
        #: Every real lane of every column; energy events are counted
        #: through it so padding lanes are never charged.
        self._real_lanes = ((1 << batch) - 1) * (self._full // self._lane_block)
        #: Energy summed over the real lanes, in femtojoules.
        self._energy_fj = 0.0
        self._faults: Dict[Tuple[int, int], str] = {}
        self._row_map = list(range(rows))

    @classmethod
    def from_scalar(
        cls, array: CrossbarArray, batch: int
    ) -> "WordPackedCrossbarArray":
        """Replicate a scalar array's current state into *batch* lanes.

        Mirrors :meth:`BatchedCrossbarArray.from_scalar`: counters start
        at zero, faults and the spare-row remap table carry over.  A
        template at the all-ones steady state (every stage replay seeds
        from it) shares one packed all-ones row instead of packing each.
        """
        out = cls(
            batch,
            array.rows,
            array.cols,
            device=array.device,
            strict_magic=array.strict_magic,
            spare_rows=array.spare_rows,
        )
        if array.state.all():
            out._state = [out._full] * out.phys_rows
        else:
            out._state = [out._pack_uniform(word) for word in array.state]
        out._faults = dict(array._faults)
        out._row_map = list(array._row_map)
        out._apply_faults()
        return out

    # ------------------------------------------------------------------
    # Packing helpers
    # ------------------------------------------------------------------
    def _pack_uniform(self, bits: np.ndarray) -> int:
        """Packed row holding one ``(cols,)`` word in every lane."""
        expanded = np.repeat(np.asarray(bits, dtype=bool), self.lane_bits)
        raw = np.packbits(expanded, bitorder="little")
        return int.from_bytes(raw.tobytes(), "little")

    def _pack_word(self, bits: np.ndarray) -> int:
        """Packed row from a ``(batch, cols)`` per-lane word matrix.

        Padding lanes replicate the last real lane (see class notes).
        """
        bits = np.asarray(bits, dtype=bool)
        if self.lane_bits != self.batch:
            pad = np.broadcast_to(
                bits[-1:], (self.lane_bits - self.batch, self.cols)
            )
            bits = np.concatenate([bits, pad], axis=0)
        raw = np.packbits(
            np.ascontiguousarray(bits.T).reshape(-1), bitorder="little"
        )
        return int.from_bytes(raw.tobytes(), "little")

    def _unpack_word(self, value: int) -> np.ndarray:
        """``(batch, cols)`` bool matrix of one packed row."""
        raw = np.frombuffer(
            value.to_bytes(self.row_bits // 8, "little"), dtype=np.uint8
        )
        bits = np.unpackbits(raw, bitorder="little").reshape(
            self.cols, self.lane_bits
        )
        return np.ascontiguousarray(bits[:, : self.batch].T).astype(bool)

    def _mask_int(self, mask: Optional[np.ndarray]) -> int:
        """Packed-cell mask selecting every lane of the masked columns."""
        if mask is None:
            return self._full
        mask = self._mask(mask)
        expanded = np.repeat(mask, self.lane_bits)
        raw = np.packbits(expanded, bitorder="little")
        return int.from_bytes(raw.tobytes(), "little")

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _charge(self, coeff: float, mask: int) -> None:
        """Charge *coeff* femtojoules to every real-lane set cell of *mask*."""
        self._energy_fj += coeff * _popcount(mask & self._real_lanes)

    def _flush_writes(self) -> None:
        if not self._pending_writes:
            return
        pending = self._pending_writes
        self._pending_writes = []
        for phys, mask, count in pending:
            if mask is None:
                self._writes[phys] += count
            else:
                self._writes[phys][mask] += count

    @property
    def writes(self) -> np.ndarray:
        """Per-lane write-pulse counters, ``(phys_rows, cols)`` int64."""
        self._flush_writes()
        return self._writes

    # ------------------------------------------------------------------
    @property
    def cells(self) -> int:
        """Logical memristors per lane."""
        return self.rows * self.cols

    @property
    def phys_rows(self) -> int:
        """Physical word lines, including spares."""
        return self.rows + self.spare_rows

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.rows:
            raise AddressError(f"row {row} outside 0..{self.rows - 1}")

    def _row(self, row: int) -> int:
        """Translate a logical row address to its physical word line."""
        self._check_row(row)
        return self._row_map[row]

    def physical_row(self, row: int) -> int:
        """Public logical->physical translation (see the scalar array)."""
        return self._row(row)

    def _mask(self, mask: Optional[np.ndarray]) -> np.ndarray:
        if mask is None:
            return np.ones(self.cols, dtype=bool)
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.cols,):
            raise AddressError(f"column mask shape {mask.shape} != ({self.cols},)")
        return mask

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def inject_fault(self, row: int, col: int, kind: str) -> None:
        """Pin cell (*row*, *col*) of every lane to a stuck-at fault."""
        phys = self._row(row)
        if not 0 <= col < self.cols:
            raise AddressError(f"col {col} outside 0..{self.cols - 1}")
        if kind not in _FAULT_KINDS:
            raise FaultInjectionError(f"unknown fault kind {kind!r}")
        self._faults[(phys, col)] = kind
        block = self._lane_block << (col * self.lane_bits)
        if kind == FAULT_STUCK_AT_1:
            self._state[phys] |= block
        else:
            self._state[phys] &= ~block

    @property
    def faults(self) -> Dict[Tuple[int, int], str]:
        """Read-only copy of the fault map (physical coordinates)."""
        return dict(self._faults)

    def _apply_faults(self) -> None:
        for (row, col), kind in self._faults.items():
            block = self._lane_block << (col * self.lane_bits)
            if kind == FAULT_STUCK_AT_1:
                self._state[row] |= block
            else:
                self._state[row] &= ~block

    def repin_faults(self) -> None:
        """Re-assert every pinned fault onto the state (public hook)."""
        self._apply_faults()

    def reset_to_ones(self) -> None:
        """Drive every cell (all lanes, spares included) to logic one.

        See :meth:`BatchedCrossbarArray.reset_to_ones`: unaccounted
        stage-batch seeding, not a modelled operation.
        """
        self._state[:] = [self._full] * len(self._state)

    # ------------------------------------------------------------------
    # Raw per-row views (fault hooks mutate state without accounting)
    # ------------------------------------------------------------------
    def unpack_row(self, row: int) -> np.ndarray:
        """Per-lane word of logical *row* as ``(batch, cols)`` bool.

        A detached copy — mutate it and :meth:`store_row` it back.  The
        fault-injection hooks use this pair to flip cells mid-program
        without charging energy or write pulses, exactly as they mutate
        the bit-plane state tensor in place.
        """
        return self._unpack_word(self._state[self._row(row)])

    def store_row(self, row: int, bits: np.ndarray) -> None:
        """Store a ``(batch, cols)`` word back without any accounting."""
        self._state[self._row(row)] = self._pack_word(bits)

    # ------------------------------------------------------------------
    # Plain memory operations (per-lane words)
    # ------------------------------------------------------------------
    def write_row(
        self, row: int, bits: np.ndarray, mask: Optional[np.ndarray] = None
    ) -> None:
        """Program one word per lane: *bits* is ``(batch, cols)``."""
        phys = self._row(row)
        bits = np.asarray(bits, dtype=bool)
        if bits.shape != (self.batch, self.cols):
            raise AddressError(
                f"word shape {bits.shape} != ({self.batch}, {self.cols})"
            )
        value = self._pack_word(bits)
        if mask is None:
            self._state[phys] = value
            cells = self.cols
            masked = value
        else:
            mask = self._mask(mask)
            m = self._mask_int(mask)
            self._state[phys] = (self._state[phys] & ~m) | (value & m)
            cells = int(mask.sum())
            masked = value & m
        self._pending_writes.append((phys, mask, 1))
        self._energy_fj += self.device.e_reset_fj * cells * self.batch
        self._charge(self.device.e_set_fj - self.device.e_reset_fj, masked)
        if self._faults:
            self._apply_faults()

    def read_row(self, row: int, mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Sense one word per lane; returns ``(batch, cols)``."""
        phys = self._row(row)
        if mask is None:
            sensed = self.cols
        else:
            sensed = int(self._mask(mask).sum())
        self._energy_fj += self.device.e_read_fj * sensed * self.batch
        return self._unpack_word(self._state[phys])

    def peek_row(self, row: int) -> np.ndarray:
        """Per-lane word of logical *row* without sensing (no energy)."""
        return self._unpack_word(self._state[self._row(row)])

    # ------------------------------------------------------------------
    # Stateful logic primitives
    # ------------------------------------------------------------------
    def init_rows(
        self, rows: Iterable[int], mask: Optional[np.ndarray] = None
    ) -> None:
        """Initialise cells in *rows* to logic one across all lanes."""
        if mask is not None:
            mask = self._mask(mask)
        m = self._mask_int(mask)
        cells = self.cols if mask is None else int(mask.sum())
        for row in dict.fromkeys(rows):
            phys = self._row(row)
            self._state[phys] |= m
            self._pending_writes.append((phys, mask, 1))
            self._energy_fj += self.device.e_set_fj * cells * self.batch
        if self._faults:
            self._apply_faults()

    def nor_rows(
        self,
        in_rows: Sequence[int],
        out_row: int,
        mask: Optional[np.ndarray] = None,
    ) -> None:
        """Row-parallel MAGIC NOR evaluated in every lane at once."""
        if not in_rows:
            raise MagicProtocolError("MAGIC NOR requires at least one input row")
        in_phys = [self._row(row) for row in in_rows]
        out_phys = self._row(out_row)
        if out_phys in in_phys:
            raise MagicProtocolError(
                f"output row {out_row} cannot also be a NOR input"
            )
        if mask is not None:
            mask = self._mask(mask)
        m = self._mask_int(mask)
        out = self._state[out_phys]
        if self.strict_magic and (out & m) != m:
            raise MagicProtocolError(
                f"NOR output row {out_row} not initialised to logic one "
                "in every lane"
            )
        any_one = self._state[in_phys[0]]
        for row in in_phys[1:]:
            any_one = any_one | self._state[row]
        self._charge(self.device.e_reset_fj, any_one & out & m)
        self._state[out_phys] = (out & ~m) | (~any_one & m)
        self._pending_writes.append((out_phys, mask, 1))
        if self._faults:
            self._apply_faults()

    def not_row(
        self, in_row: int, out_row: int, mask: Optional[np.ndarray] = None
    ) -> None:
        """MAGIC NOT: single-input special case of :meth:`nor_rows`."""
        self.nor_rows([in_row], out_row, mask)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def max_writes(self) -> int:
        """Per-lane maximum write count (matches the scalar metric)."""
        return int(self.writes.max())

    def total_writes(self) -> int:
        """Per-lane total write pulses."""
        return int(self.writes.sum())

    def total_energy_fj(self) -> float:
        """Energy summed over all lanes (no per-lane split is kept)."""
        return self._energy_fj

    def snapshot(self, lane: int) -> np.ndarray:
        """Copy of one lane's logical bit state (rows x cols)."""
        out = np.zeros((self.rows, self.cols), dtype=bool)
        for row in range(self.rows):
            out[row] = self._unpack_word(self._state[self._row_map[row]])[lane]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WordPackedCrossbarArray({self.batch}x{self.rows}x{self.cols}, "
            f"lane_bits={self.lane_bits})"
        )
