"""The stage surface shared by every three-slot datapath.

A :class:`Stage` is one pipeline slot.  What it owns decides its
accounting: crossbar units (:class:`~repro.magic.unit.CrossbarUnit`,
the MAGIC subarrays), single-row multipliers
(:class:`~repro.arith.rowmul.RowMultiplier`), or neither (a slot that
only moves words through the periphery).  Area, wear and repair derive
from those lists, so a stage never restates them.  :class:`RowStage`
is the checked lane-parallel multiply the Karatsuba multiplication
stage, the Toom-3 point-wise stage and the schoolbook row share;
:class:`WearLeveledStage` is the batched wear-state replay the
Karatsuba precompute and postcompute stages share.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.arith import rowmul
from repro.arith.rowmul import RowMultiplier, RowMultiplierSpec
from repro.magic.program import Program
from repro.magic.unit import CrossbarUnit
from repro.reliability.residue import DEFAULT_RESIDUE_BITS, ResidueChecker
from repro.sim.clock import Clock
from repro.sim.exceptions import DesignError


class Stage:
    """One pipeline slot: what it owns, and the accounting that follows."""

    #: Crossbar units the stage owns: the one place that lists them.
    units: Tuple[CrossbarUnit, ...] = ()
    #: Row multipliers by output name.
    rows: Dict[str, RowMultiplier] = {}
    #: Residue checker of the stage's outputs (``None`` if it computes
    #: nothing).
    checker: Optional[ResidueChecker] = None

    def latency_cc(self) -> int:
        """Per-job stage latency in cycles."""
        raise NotImplementedError

    @property
    def area_cells(self) -> int:
        """Memory cells across the stage's crossbars and rows."""
        return sum(unit.array.cells for unit in self.units) + sum(
            row.spec.cells for row in self.rows.values()
        )

    def max_writes(self) -> int:
        """Hottest-cell write count across the stage's cells so far."""
        return max(
            [unit.array.max_writes() for unit in self.units]
            + [row.max_writes() for row in self.rows.values()],
            default=0,
        )

    def diagnose_and_repair(self) -> List[int]:
        """Write-verify and remap every crossbar; the remapped rows."""
        return [
            row for unit in self.units for row in unit.diagnose_and_repair()
        ]


class WearLeveledStage(Stage):
    """A crossbar stage that runs each job as one mega-program, one
    program per wear state of its region-swap leveler.

    A subclass owns ``unit`` (its :class:`CrossbarUnit`), ``leveler``
    (a :class:`~repro.crossbar.endurance.WearLevelingController`),
    ``wear_leveling``, ``clock`` and ``passes``, and builds the current
    wear state's program in :meth:`_mega_program`.
    """

    def _power_up(self) -> None:
        """Once per wear state: bring the rows the current state's
        program expects at logic one there, out of band."""
        raise NotImplementedError

    def _mega_program(self) -> Tuple[Program, Dict[str, int], int]:
        """``(program, clock histogram, cycles per job)`` of one pass
        in the current wear state."""
        raise NotImplementedError

    def _replay_jobs(
        self,
        bindings: Sequence[Dict[str, int]],
        check_job: Callable[[int, Dict[str, int]], None],
    ) -> int:
        """Run a batch of jobs, one binding set each, as one SIMD batch.

        Jobs are grouped by the wear state they would execute under in
        sequential order (the leveler alternates per job), and
        :meth:`CrossbarUnit.replay_batch` runs the groups' programs:
        one replay for the whole batch on a fault-free unit, one per
        group otherwise.  ``check_job(j, results)`` senses and
        self-checks job *j*'s READ results.  Each group ticks the clock
        once by its program's histogram (lanes run in lock-step) and
        counts its jobs in ``passes``.  Returns the per-job cycles of
        the last group's program.
        """
        jobs = len(bindings)
        groups = (
            self.leveler.batch_groups(jobs)
            if self.wear_leveling
            else [list(range(jobs))]
        )
        # (clock histogram, cycles per job) of each group's program.
        accounts: List[Tuple[Dict[str, int], int]] = []

        def programs():
            for group in groups:
                self._power_up()
                program, hist, cycles = self._mega_program()
                accounts.append((hist, cycles))
                yield program, group

        def check(index, group, stats):
            for lane, j in enumerate(group):
                check_job(j, stats[lane].results)
            for opcode, cost in accounts[index][0].items():
                self.clock.tick(cost, category=opcode)
            self.passes += len(group)

        # Programs compile once per wear state for the stage's lifetime
        # (the unit's persistent cache) and are replayed by every batch.
        self.unit.replay_batch(programs(), bindings, check)
        return accounts[-1][1]


class RowStage(Stage):
    """Single-row multipliers in lock-step, one per step.

    Each step ``(out, lhs, rhs)`` multiplies two named operands in its
    own ``width``-bit row.  Every product of a batch comes from one
    :func:`~repro.arith.rowmul.multiply_lanes` sweep, is
    residue-verified, and only then charged: each row books the
    batch's passes in closed form, rotating its hot cells after every
    pass when wear-leveling is on.  A pass that fails its check
    charges nothing.
    """

    def __init__(
        self,
        name: str,
        width: int,
        steps: Iterable[Tuple[str, str, str]],
        wear_leveling: bool = True,
        residue_bits: int = DEFAULT_RESIDUE_BITS,
    ):
        self.width = width
        self.steps: Tuple[Tuple[str, str, str], ...] = tuple(steps)
        self.wear_leveling = wear_leveling
        self.checker = ResidueChecker(name, residue_bits)
        spec = RowMultiplierSpec(width)
        self.rows = {out: RowMultiplier(spec) for out, _, _ in self.steps}
        self.clock = Clock()
        self.passes = 0

    def multiply(self, operands: Dict[str, int]) -> Dict[str, int]:
        """One pass over named operands; returns the products by name.

        Each product is checked as ``res(z) == res(x)·res(y) mod
        (2^r − 1)``.  The clock is the caller's to advance.
        """
        return self.multiply_passes([operands])[0]

    def multiply_passes(
        self, operands_list: Sequence[Dict[str, int]]
    ) -> List[Dict[str, int]]:
        """B passes in one lane-parallel sweep; the clock is untouched.

        Products, residue checks (in job-major, step-major order) and
        wear match B calls of :meth:`multiply`; every product is
        verified before any row is charged.
        """
        if not operands_list:
            return []
        try:
            lhs = [ops[x] for ops in operands_list for _, x, _ in self.steps]
            rhs = [ops[y] for ops in operands_list for _, _, y in self.steps]
        except KeyError as missing:
            out = next(
                out
                for ops in operands_list
                for out, x, y in self.steps
                if x not in ops or y not in ops
            )
            raise DesignError(f"missing operand {missing} for {out}")
        products = rowmul.multiply_lanes(self.width, lhs, rhs)
        res = self.checker.res
        outs = [out for out, _, _ in self.steps]
        for lane, (product, x, y) in enumerate(zip(products, lhs, rhs)):
            self.checker.check_product(
                product, res(x), res(y), outs[lane % len(outs)]
            )
        results = [
            dict(zip(outs, products[start:start + len(outs)]))
            for start in range(0, len(products), len(outs))
        ]
        for row in self.rows.values():
            row.charge(len(operands_list), self.wear_leveling)
        self.passes += len(operands_list)
        return results

    def multiply_batch(
        self, operands_list: Sequence[Dict[str, int]]
    ) -> List[Dict[str, int]]:
        """B passes with the lock-step extended across operand sets.

        Products and wear match B calls of :meth:`multiply`; the clock
        advances by a single row latency for the whole batch.
        """
        products = self.multiply_passes(operands_list)
        if products:
            self.clock.tick(self.latency_cc(), category="rowmul")
        return products

    def latency_cc(self) -> int:
        """All rows finish together: one row latency."""
        return rowmul.latency_cc(self.width)
