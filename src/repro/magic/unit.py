"""One crossbar subarray and the batched replay that runs programs on it.

Every crossbar-backed pipeline stage owns one or more units.  A unit
holds the persistent :class:`~repro.crossbar.array.CrossbarArray` (the
wear, energy, fault and spare-row state), the scalar anchor
:class:`~repro.magic.executor.MagicExecutor` (the persistent compile
cache and the transient-fault hook), and the batched execution backend
(:mod:`repro.magic.backend`).  :meth:`CrossbarUnit.replay` is the one
SIMD routine every stage pass goes through.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.crossbar.array import CrossbarArray
from repro.magic.backend import get_backend
from repro.magic.executor import MagicExecutor, pack_ints
from repro.magic.program import Program
from repro.sim.clock import Clock


class CrossbarUnit:
    """A crossbar subarray plus its anchor executor and backend.

    *clock* is the anchor executor's clock (a stage passes its own so
    its scalar path ticks the stage clock).  *name* tells two units of
    one stage apart in reliability reports: a controller labels a unit
    ``<slot>.<name>``, or just ``<slot>`` when the unit is unnamed.
    """

    def __init__(
        self,
        array: CrossbarArray,
        backend: object = "bitplane",
        clock: Optional[Clock] = None,
        name: Optional[str] = None,
    ):
        self.array = array
        self.backend = get_backend(backend)
        self.executor = MagicExecutor(array, clock=clock)
        self.name = name

    @contextmanager
    def replay(
        self,
        program: Program,
        bindings: List[Dict[str, int]],
        rows: Sequence[Tuple[int, Sequence[int]]] = (),
    ):
        """Replay *program* once per binding set, in lock-step lanes.

        The lanes start from the steady all-ones state with the unit's
        stuck-at faults pinned.  Each ``(row, values)`` in *rows* is
        written into every lane, one value per lane, before the program
        runs.  The program compiles through the anchor executor's cache
        and runs under its fault hook.  Yields ``(lanes, stats)``, the
        batched array and the per-lane run statistics, so the caller
        can sense and self-check results.  When the ``with`` body
        finishes, each lane's writes and energy fold into the unit's
        array, which returns to all ones.  If the body raises, nothing
        folds: a failed self-check leaves the counters as they were.
        """
        lanes = self.backend.make_array(self.array, len(bindings))
        lanes.reset_to_ones()
        lanes.repin_faults()
        if rows:
            full = np.ones(self.array.cols, dtype=bool)
            for row, values in rows:
                lanes.write_row(row, pack_ints(values, self.array.cols), full)
        executor = self.backend.make_executor(
            lanes, clock=Clock(), fault_hook=self.executor.fault_hook
        )
        stats = executor.execute(self.executor.compile(program), bindings)
        yield lanes, stats
        # Each lane models one sequential reuse of the same physical
        # subarray: pulses repeat per lane, switching energy is per lane.
        self.array.writes += lanes.writes * len(bindings)
        self.array.energy_fj += lanes.total_energy_fj()
        self.array.state[:] = True

    def diagnose_and_repair(self) -> List[int]:
        """Write-verify every logical row; remap the failures onto spares.

        Returns the remapped logical rows.  An empty list means the
        upset was transient and a plain replay suffices.  The array is
        left at the all-ones steady state.  Raises
        :class:`~repro.sim.exceptions.SpareRowsExhaustedError` when more
        rows fail than spares remain.
        """
        faulty = self.array.find_faulty_rows()
        for row in faulty:
            self.array.remap_row(row)
        self.array.state[:] = True
        self.array.repin_faults()
        return faulty
