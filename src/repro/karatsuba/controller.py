"""Karatsuba Multiplication Controller (paper Fig. 5, centre).

The controller owns the three stage subarrays, feeds input operands to
the precomputation stage, moves intermediate results across stage
boundaries, and stores the final product back to main memory.  It is
the only component that sees whole operands; each stage works purely on
named chunk values.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.arith.bitops import split_chunks
from repro.karatsuba.multiply import MultiplicationStage
from repro.karatsuba.postcompute import PostcomputeStage
from repro.karatsuba.precompute import PrecomputeStage
from repro.karatsuba.stage import Stage
from repro.magic.unit import CrossbarUnit
from repro.sim.exceptions import DesignError
from repro.telemetry import spans as _telemetry

#: Smallest multiplication the L = 2 design supports (the postcompute
#: batching layout needs n/4 >= 4).
MIN_BITS = 16


@dataclass(frozen=True)
class JobRecord:
    """Result and per-stage cycle counts of one multiplication job."""

    a: int
    b: int
    product: int
    precompute_cycles: int
    multiply_cycles: int
    postcompute_cycles: int

    @property
    def total_cycles(self) -> int:
        """Unpipelined latency of this job."""
        return (
            self.precompute_cycles
            + self.multiply_cycles
            + self.postcompute_cycles
        )


class StagedController:
    """What every three-slot datapath controller shares.

    A subclass builds its stages and hands them over as ``(slot name,
    stage)`` pairs in pipeline order.  Timing, area, wear, energy,
    fault injection, repair, optimizer and residue accounting all
    derive from those stages and the crossbar units they own, so the
    bank dispatcher, degrade ladder, service snapshots and pipeline
    timing algebra drive every datapath the same way.
    """

    def __init__(
        self,
        n_bits: int,
        optimize: bool,
        backend: object,
        stages: Sequence[Tuple[str, Stage]],
    ):
        self.n_bits = n_bits
        #: Run stage adder programs through the SIMD cycle packer
        #: (:mod:`repro.magic.passes`).  Off by default so the datapath
        #: reproduces the paper's closed-form stage latencies.
        self.optimize = optimize
        #: Batched execution strategy of every crossbar unit (any
        #: :mod:`repro.magic.backend` name); accounting is bit-identical
        #: across backends.
        self.backend = backend
        #: ``(slot name, stage)`` pairs in pipeline order.
        self.stages: Tuple[Tuple[str, Stage], ...] = tuple(stages)
        self.jobs = 0
        self._fault_hook = None

    # ------------------------------------------------------------------
    def run_job(self, a: int, b: int) -> JobRecord:
        """One multiplication, run as a batch of one."""
        return self.run_jobs_batch([(a, b)])[0]

    def _check_operands(
        self, pairs: Iterable[Tuple[int, int]]
    ) -> List[Tuple[int, int]]:
        pairs = list(pairs)
        for a, b in pairs:
            if a < 0 or b < 0:
                raise DesignError("operands must be non-negative")
            if a >> self.n_bits or b >> self.n_bits:
                raise DesignError(f"operands must fit in {self.n_bits} bits")
        return pairs

    def _records(self, pairs, first, middle, last) -> List[JobRecord]:
        """Job records from the three stages' per-job results."""
        self.jobs += len(pairs)
        return [
            JobRecord(
                a=a,
                b=b,
                product=last[i].product,
                precompute_cycles=first[i].cycles,
                multiply_cycles=middle[i].cycles,
                postcompute_cycles=last[i].cycles,
            )
            for i, (a, b) in enumerate(pairs)
        ]

    @contextmanager
    def _stage_span(self, name: str, stage: Stage, jobs: int):
        """One telemetry span per stage pass, timed on the stage clock.

        A no-op unless a tracer is active.  Carries the paper-facing
        accounting as attributes: operand width, SIMD job count, NOR
        cycles spent, and (for stages that own crossbars) the energy
        all of the stage's crossbars consumed during the pass.
        """
        tracer = _telemetry.active()
        if tracer is None:
            yield
            return
        arrays = [unit.array for unit in stage.units]
        energy_before = sum(array.energy_fj for array in arrays)
        nor_before = stage.clock.by_category.get("nor", 0)
        with tracer.span(
            f"stage.{name}", clock=stage.clock, width=self.n_bits, jobs=jobs
        ) as span:
            yield
            span.set(nor=stage.clock.by_category.get("nor", 0) - nor_before)
            if arrays:
                energy = sum(array.energy_fj for array in arrays)
                span.set(energy_fj=float(energy) - float(energy_before))

    # ------------------------------------------------------------------
    def crossbars(self) -> List[Tuple[str, CrossbarUnit]]:
        """``(label, unit)`` for every crossbar unit, in slot order.

        A unit's label is its stage's slot name, extended by the unit's
        own name when it has one (``"interpolate.wide"``).
        """
        return [
            (f"{slot}.{unit.name}" if unit.name else slot, unit)
            for slot, stage in self.stages
            for unit in stage.units
        ]

    def stage_latencies(self) -> Tuple[int, ...]:
        """Static per-slot latencies in cc, in pipeline order."""
        return tuple(stage.latency_cc() for _, stage in self.stages)

    @property
    def area_cells(self) -> int:
        """Total memory cells across every stage."""
        return sum(stage.area_cells for _, stage in self.stages)

    def max_writes(self) -> int:
        """Hottest-cell write count across all stages so far."""
        return max(stage.max_writes() for _, stage in self.stages)

    def total_energy_fj(self) -> float:
        """Accumulated array energy across the crossbar units, in fJ.

        The row multipliers model wear but not device energy."""
        return float(sum(unit.array.energy_fj for _, unit in self.crossbars()))

    # ------------------------------------------------------------------
    # Reliability
    # ------------------------------------------------------------------
    @property
    def fault_hook(self):
        """Transient-fault injector shared by every crossbar unit."""
        return self._fault_hook

    @fault_hook.setter
    def fault_hook(self, hook) -> None:
        self._fault_hook = hook
        for _, unit in self.crossbars():
            unit.executor.fault_hook = hook

    def diagnose_and_repair(self) -> Dict[str, List[int]]:
        """Write-verify and remap every crossbar.

        Returns ``{slot: [remapped logical rows]}`` for the stages that
        own a crossbar (the multiplier rows are a numeric model).  An
        empty mapping means the detected upset was transient and a
        plain replay suffices.
        """
        report = {}
        for slot, stage in self.stages:
            remapped = stage.diagnose_and_repair()
            if remapped:
                report[slot] = remapped
        return report

    def spare_rows_free(self) -> int:
        """Spare word lines still available across the crossbar units."""
        return sum(unit.array.spare_rows_free for _, unit in self.crossbars())

    def optimizer_stats(self) -> dict:
        """Cycle-packer savings per crossbar stage.

        ``{"enabled": False}`` when the optimizer is off or no stage
        runs programs; otherwise one additive summary per stage (pack
        factor, cycles saved per pass).
        """
        if not self.optimize:
            return {"enabled": False}
        stats = {
            slot: stage.optimizer_stats()
            for slot, stage in self.stages
            if stage.units
        }
        return {"enabled": True, **stats} if stats else {"enabled": False}

    def residue_stats(self) -> List[dict]:
        """Per-stage residue-checker statistics."""
        return [
            stage.checker.stats()
            for _, stage in self.stages
            if stage.checker is not None
        ]


class KaratsubaController(StagedController):
    """Drives one multiplication through the three-stage datapath."""

    def __init__(
        self,
        n_bits: int,
        wear_leveling: bool = True,
        device=None,
        spare_rows: int = 2,
        residue_bits: int = 8,
        optimize: bool = False,
        backend: object = "bitplane",
    ):
        if n_bits < MIN_BITS or n_bits % 4:
            raise DesignError(
                f"operand width must be a multiple of 4 and >= {MIN_BITS}, "
                f"got {n_bits}"
            )
        self.precompute = PrecomputeStage(
            n_bits,
            wear_leveling=wear_leveling,
            device=device,
            spare_rows=spare_rows,
            residue_bits=residue_bits,
            optimize=optimize,
            backend=backend,
        )
        self.multiply_stage = MultiplicationStage(
            n_bits, wear_leveling=wear_leveling, residue_bits=residue_bits
        )
        self.postcompute = PostcomputeStage(
            n_bits,
            wear_leveling=wear_leveling,
            device=device,
            spare_rows=spare_rows,
            residue_bits=residue_bits,
            optimize=optimize,
            backend=backend,
        )
        super().__init__(
            n_bits,
            optimize,
            backend,
            (
                ("precompute", self.precompute),
                ("multiply", self.multiply_stage),
                ("postcompute", self.postcompute),
            ),
        )

    # ------------------------------------------------------------------
    def run_job(self, a: int, b: int) -> JobRecord:
        """Multiply two *n_bits*-wide operands through all three stages."""
        self._check_operands([(a, b)])
        chunk_bits = self.n_bits // 4
        with self._stage_span("precompute", self.precompute, 1):
            pre = self.precompute.process(
                split_chunks(a, chunk_bits, 4), split_chunks(b, chunk_bits, 4)
            )
        with self._stage_span("multiply", self.multiply_stage, 1):
            mul = self.multiply_stage.process(pre.chunk_sums)
        with self._stage_span("postcompute", self.postcompute, 1):
            post = self.postcompute.process(mul.products)
        return self._records([(a, b)], [pre], [mul], [post])[0]

    def run_jobs_batch(self, pairs: Iterable[Tuple[int, int]]) -> List[JobRecord]:
        """Multiply a batch of operand pairs through all three stages.

        Every stage executes its whole batch in SIMD fashion instead of
        job-by-job, which is where the pipeline's throughput comes
        from: each adder stage in one replay covering both wear states
        (one per wear state on a unit with a fault or fault hook), the
        multiply stage in one carry-save sweep.  Products, per-job
        cycle counts, wear counters and energy are bit-identical to
        calling :meth:`run_job` per pair; only the stage clocks differ,
        advancing once per lock-step pass rather than once per job.
        """
        pairs = self._check_operands(pairs)
        if not pairs:
            return []
        chunk_bits = self.n_bits // 4
        chunk_jobs = [
            (split_chunks(a, chunk_bits, 4), split_chunks(b, chunk_bits, 4))
            for a, b in pairs
        ]
        jobs = len(pairs)
        with self._stage_span("precompute", self.precompute, jobs):
            pre = self.precompute.process_batch(chunk_jobs)
        with self._stage_span("multiply", self.multiply_stage, jobs):
            mul = self.multiply_stage.process_batch(
                [r.chunk_sums for r in pre]
            )
        with self._stage_span("postcompute", self.postcompute, jobs):
            post = self.postcompute.process_batch([r.products for r in mul])
        return self._records(pairs, pre, mul, post)
