"""One crossbar subarray and the batched replay that runs programs on it.

Every crossbar-backed pipeline stage owns one or more units.  A unit
holds the persistent :class:`~repro.crossbar.array.CrossbarArray` (the
wear, energy, fault and spare-row state), the scalar anchor
:class:`~repro.magic.executor.MagicExecutor` (the persistent compile
cache and the transient-fault hook), and the batched execution backend
(:mod:`repro.magic.backend`).  :meth:`CrossbarUnit.replay` is the one
SIMD routine every stage pass goes through; :meth:`CrossbarUnit.replay_batch`
runs a wear-leveled stage batch, one replay for all its wear states
when placement cannot change the outcome.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.crossbar.array import CrossbarArray
from repro.magic.backend import get_backend
from repro.magic.executor import MagicExecutor, pack_ints
from repro.magic.program import Program
from repro.sim.clock import Clock
from repro.sim.stats import RunStats


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
        lanes, stats = self._execute(
            self.executor.compile(program), bindings, rows
        )
        yield lanes, stats
        # Each lane models one sequential reuse of the same physical
        # subarray: pulses repeat per lane, switching energy is per lane.
        self._fold(lanes, lanes.writes * len(bindings))

    def replay_batch(
        self,
        passes: Iterable[Tuple[Program, Sequence[int]]],
        bindings: Sequence[Dict[str, int]],
        check: Callable[[int, Sequence[int], List[RunStats]], None],
    ) -> None:
        """Run one wear-leveled stage batch.

        Each ``(program, jobs)`` pass in *passes* runs *program* over
        the bindings of *jobs* (indices into *bindings*); the passes
        are the batch's wear-state groups, one program per state.
        ``check(k, jobs, stats)`` is called for the k-th pass, in
        order, with one :class:`RunStats` per job, to sense and
        self-check its results.  Writes and energy fold as in
        :meth:`replay`; if a check raises, the passes not yet folded
        stay unfolded.

        A wear state only remaps rows, so on a unit without pinned
        stuck-at faults or a fault hook every pass computes the same
        values and switches the same energy wherever its rows sit.
        Then the first pass's program replays once over every job, and
        the jobs of each later pass add their own program's static
        write delta (:meth:`~repro.magic.executor.CompiledProgram.writes_delta`)
        instead of replaying it.  All passes are drawn from *passes*
        before that replay.  Otherwise stuck-at cells on rows the row
        map uses make results depend on placement and a transient-fault
        hook draws its random stream per replay, so each pass replays
        on its own and is drawn from *passes* only after the previous
        one folded.  A fault stranded on a retired word line touches no
        logical row and keeps the single replay.
        """
        if (
            self.executor.fault_hook is not None
            or self.array.mapped_fault_count
        ):
            for index, (program, jobs) in enumerate(passes):
                group = [bindings[j] for j in jobs]
                with self.replay(program, group) as (_, stats):
                    check(index, jobs, stats)
            return
        compiled = [
            (self.executor.compile(program), jobs) for program, jobs in passes
        ]
        if not compiled:
            return
        order = [j for _, jobs in compiled for j in jobs]
        lanes, stats = self._execute(
            compiled[0][0], [bindings[j] for j in order]
        )
        begin = 0
        for index, (_, jobs) in enumerate(compiled):
            check(index, jobs, stats[begin : begin + len(jobs)])
            begin += len(jobs)
        writes = lanes.writes * len(compiled[0][1])
        if len(compiled) > 1:
            array = self.array
            row_map = [array.physical_row(row) for row in range(array.rows)]
            for program, jobs in compiled[1:]:
                writes += program.writes_delta(row_map, array.phys_rows) * len(jobs)
        self._fold(lanes, writes)

    def _execute(
        self,
        compiled,
        bindings: Sequence[Dict[str, int]],
        rows: Sequence[Tuple[int, Sequence[int]]] = (),
    ):
        """Replay *compiled* over fresh all-ones lanes, one per binding."""
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
        return lanes, executor.execute(compiled, bindings)

    def _fold(self, lanes, writes: np.ndarray) -> None:
        """Charge a replay's *writes* and the lanes' energy to the
        array, which returns to the all-ones steady state."""
        self.array.writes += writes
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
