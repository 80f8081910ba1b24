"""The benchmark's four workloads.

A workload is a seeded pass of ``PASS_REQUESTS`` requests whose
arrivals are open-loop on the simulated cycle clock, plus a warm-up
protocol that makes every width, design point and bank way of the
workload serve one batch.  On the host clock one client submits the
whole pass back to back, so host throughput measures how fast the
simulator serves, not how fast the generator offers.

Every repetition serves its pass on a freshly built and warmed server:
warm-up changes wear state, and wear state moves the cycle metrics, so
the warm-up protocol is part of each workload's definition and a fresh
server makes every repetition at one seed identical on the cycle clock.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from calibrate import kernel_ns
from repro.crypto.ec import TINY_CURVE
from repro.eval import loadgen
from repro.eval.workloads import width_mix_trace
from repro.frontend import AsyncShardedFrontend, FrontendConfig
from repro.service import MultiplicationService, ServiceConfig
from repro.sim.exceptions import SimulationError
from repro.workloads import (
    CryptoWorkloadEngine,
    ModExpRequest,
    ModMulRequest,
    MsmRequest,
)
from repro.workloads.context import ModulusContext

#: Requests offered by one pass; at least ten latencies lie beyond p99.
PASS_REQUESTS = 1024
#: Arrivals of a pass are shifted past the warm-up protocol's traffic.
ARRIVAL_OFFSET_CC = 1 << 24
#: Clock advance past the last arrival, so every under-full bin ages out.
SETTLE_CC = 1_000_000
#: A synchronous pass samples host speed (``Outcome.mark``) at the first
#: request boundary after this much host time: often enough to follow
#: a shared host's speed swings, which last from 0.1 s to seconds.
MARK_INTERVAL_NS = 20_000_000
#: Committed portfolio routing table, at the root of the checkout.
TUNE_TABLE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "TUNE_portfolio.json",
)


@dataclass(frozen=True)
class MulItem:
    """One multiplication arrival of a ``mul`` workload."""

    arrival_cc: int
    a: int
    b: int
    n_bits: int


@dataclass
class Outcome:
    """What one pass produced, keyed by the request's index in the pass.

    ``values`` holds the served product, residue or curve point;
    ``errors`` every request that was shed, rejected, raised or left
    unresolved.  ``energy_fj`` is the crossbar energy the pass spent
    (``None`` where the server does not expose it) and ``max_writes``
    the hottest cell's write count after the pass.
    """

    offered: int
    values: Dict[int, object] = field(default_factory=dict)
    latency_cc: Dict[int, int] = field(default_factory=dict)
    completion_cc: Dict[int, int] = field(default_factory=dict)
    errors: Dict[int, str] = field(default_factory=dict)
    energy_fj: Optional[float] = None
    max_writes: int = 0
    #: Program counters of the pass (flushes, cache hits, waves, ...).
    counters: Dict[str, float] = field(default_factory=dict)
    #: ``(end_ns, kernel_ns, start_ns)`` at every chunk boundary: the
    #: host-speed calibration of :mod:`calibrate` between two chunks.
    marks: List[Tuple[int, int, int]] = field(default_factory=list)

    def record(self, index: int, value: object, result) -> None:
        self.values[index] = value
        if result.service_latency_cc is not None:
            self.latency_cc[index] = result.service_latency_cc
        if result.completion_cc is not None:
            self.completion_cc[index] = result.completion_cc

    def mark(self) -> None:
        """Close the running chunk, time the kernel, open the next chunk."""
        end = time.perf_counter_ns()
        kernel = kernel_ns()
        self.marks.append((end, kernel, time.perf_counter_ns()))

    def tick(self) -> None:
        """Mark if the running chunk is ``MARK_INTERVAL_NS`` old."""
        if time.perf_counter_ns() - self.marks[-1][2] >= MARK_INTERVAL_NS:
            self.mark()

    def mark_unresolved(self) -> None:
        for index in range(self.offered):
            if index not in self.values and index not in self.errors:
                self.errors[index] = "unresolved"


# ----------------------------------------------------------------------
# Program counters
# ----------------------------------------------------------------------
def service_counters(snapshots: List[dict]) -> Dict[str, float]:
    """Scheduler, cache and dispatch counters summed over services."""
    totals: Dict[str, float] = {}

    def add(name: str, value: float) -> None:
        totals[name] = totals.get(name, 0) + value

    for snap in snapshots:
        counters = snap["counters"]
        add("flushes", counters.get("batches_flushed", 0))
        add(
            "retries",
            counters.get("fault_retries", 0)
            + counters.get("inplace_replays", 0),
        )
        occupancy = snap["histograms"].get("batch_occupancy", {})
        add("occupancy_sum", occupancy.get("sum", 0))
        add("occupancy_count", occupancy.get("count", 0))
        for cache in ("operand", "program", "compile"):
            stats = snap["caches"][cache]
            add(f"{cache}_hits", stats["hits"])
            add(f"{cache}_misses", stats["misses"])
    return totals


def diff_counters(after: dict, before: dict) -> Dict[str, float]:
    return {name: value - before.get(name, 0) for name, value in after.items()}


def service_model(service: MultiplicationService) -> Tuple[float, int]:
    """Crossbar energy so far and hottest-cell writes over every way."""
    energy = 0.0
    writes = 0
    for way in service.dispatcher.all_ways():
        energy += way.pipeline.controller.total_energy_fj()
        writes = max(writes, way.max_writes())
    return energy, writes


# ----------------------------------------------------------------------
# Warm-up protocol
# ----------------------------------------------------------------------
def _warm_pairs(n_bits: int, count: int, salt: int) -> List[Tuple[int, int]]:
    """Fixed, distinct operand pairs (no operand-cache hits)."""
    top = (1 << n_bits) - 1
    return [
        (top - salt * count - k, (salt * count + k + 1) * 0x9E37 & top)
        for k in range(count)
    ]


def warm_service(service: MultiplicationService, widths) -> None:
    """Serve one full batch on every way of every width.

    Each round submits one batch per width and drains, so the
    least-loaded dispatcher puts round *k* on each width's *k*-th way.
    """
    config = service.config
    arrival = 0
    for salt in range(config.ways_per_width):
        for n_bits in widths:
            for a, b in _warm_pairs(n_bits, config.batch_size, salt):
                arrival += 1
                service.submit(a, b, n_bits, arrival_cc=arrival)
        service.drain()
    check_warm(service.snapshot(), widths)


def check_warm(snapshot: dict, widths) -> None:
    """Fail loudly if the warm-up protocol left a way idle."""
    served = {w: 0 for w in widths}
    for way_id, busy in snapshot["ways"].items():
        n_bits = int(way_id.split(".")[0].lstrip("w"))
        if busy <= 0:
            raise RuntimeError(f"warm-up left way {way_id} idle")
        served[n_bits] = served.get(n_bits, 0) + 1
    idle = [w for w, ways in served.items() if ways == 0]
    if idle:
        raise RuntimeError(f"warm-up served no way of widths {idle}")


def serve_sync(service: MultiplicationService, items: List[MulItem]) -> Outcome:
    """Open-loop pass through one synchronous service."""
    outcome = Outcome(len(items))
    index_of: Dict[int, int] = {}
    outcome.mark()
    for index, item in enumerate(items):
        outcome.tick()
        try:
            request_id = service.submit(
                item.a,
                item.b,
                item.n_bits,
                arrival_cc=ARRIVAL_OFFSET_CC + item.arrival_cc,
            )
        except SimulationError as error:
            outcome.errors[index] = type(error).__name__
            continue
        index_of[request_id] = index
    if items:
        service.advance_to_cc(
            ARRIVAL_OFFSET_CC + items[-1].arrival_cc + SETTLE_CC
        )
    for result in service.drain():
        index = index_of.get(result.request_id)
        if index is not None:
            outcome.record(index, result.product, result)
    outcome.mark()
    outcome.mark_unresolved()
    return outcome


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """A seeded pass plus the server it runs on.

    ``start`` builds and warms a server (the set-up being timed),
    ``serve`` runs one pass on it (the timed phase), ``finish`` reads
    the model statistics and program counters, ``close`` releases it.
    """

    name = ""
    why = ""
    #: Latency limit on the simulated clock; slower requests miss.
    slo_cc = 0
    #: Layers on this workload's path (see ``spans.LAYER_TARGETS``).
    layers: Tuple[str, ...] = ()

    def inputs(self, seed: int) -> list:
        raise NotImplementedError

    def start(self):
        raise NotImplementedError

    def serve(self, server, inputs: list, hooks=None) -> Outcome:
        raise NotImplementedError

    def before(self, server) -> dict:
        """Counter state after warm-up, subtracted by :meth:`finish`."""
        return {}

    def finish(self, server, outcome: Outcome, before: dict) -> None:
        pass

    def close(self, server) -> None:
        pass

    def peak_rss_kib(self, server) -> int:
        """Peak resident memory of processes the server owns (KiB)."""
        return 0


class ServiceWorkload(Workload):
    """A workload served by one :class:`MultiplicationService`."""

    config = ServiceConfig()
    widths: Tuple[int, ...] = ()
    layers = ("service", "magic", "reliability")

    def start(self):
        service = MultiplicationService(self.config)
        warm_service(service, self.widths)
        return service

    def serve(self, server, inputs, hooks=None) -> Outcome:
        return serve_sync(server, inputs)

    def service_of(self, server) -> MultiplicationService:
        return server

    def before(self, server) -> dict:
        service = self.service_of(server)
        energy, _ = service_model(service)
        return {
            "energy": energy,
            "counters": service_counters([service.snapshot()]),
        }

    def finish(self, server, outcome, before) -> None:
        service = self.service_of(server)
        energy, outcome.max_writes = service_model(service)
        outcome.energy_fj = energy - before["energy"]
        outcome.counters = diff_counters(
            service_counters([service.snapshot()]), before["counters"]
        )


class FheFlood(ServiceWorkload):
    name = "fhe-flood"
    why = (
        "lane-full 64-bit FHE limbs: SIMD replay and the Karatsuba stages "
        "do the work; scheduler, cache and compile costs are negligible"
    )
    #: Mean gap far below the per-request service time: every bin fills
    #: to 32 lanes long before it could age out, and the backlog grows.
    mean_gap_cc = 20
    slo_cc = 200_000
    widths = (64,)
    layers = ServiceWorkload.layers + ("karatsuba",)

    def inputs(self, seed):
        return [
            MulItem(entry.arrival_cc, entry.item.a, entry.item.b,
                    entry.item.n_bits)
            for entry in loadgen.build_load(
                "fhe", "poisson", PASS_REQUESTS, self.mean_gap_cc, seed=seed
            )
        ]


class MixedPortfolio(ServiceWorkload):
    name = "mixed-portfolio"
    why = (
        "sparse mixed widths incl. off-grid 90/270 under portfolio routing: "
        "lane-light batches, all three stage families, compilation"
    )
    widths = (32, 64, 90, 128, 256, 270, 384)
    #: Sparse enough that a width's bin ages out well under 32 lanes.
    mean_gap_cc = 500
    slo_cc = 20_000
    layers = ServiceWorkload.layers + ("karatsuba", "portfolio")

    def __init__(self):
        self.config = ServiceConfig(portfolio=True, portfolio_table=TUNE_TABLE)

    def inputs(self, seed):
        trace = width_mix_trace(PASS_REQUESTS, self.widths, seed=seed)
        arrivals = loadgen.arrival_schedule(
            "poisson", PASS_REQUESTS, self.mean_gap_cc, seed=seed ^ 0x5EED
        )
        return [
            MulItem(arrival, item.a, item.b, item.n_bits)
            for arrival, item in zip(arrivals, trace)
        ]


class CryptoWaves(ServiceWorkload):
    name = "crypto-waves"
    why = (
        "Zipf-skewed modmul/modexp/MSM traffic in dependent waves: many "
        "tiny low-occupancy batches, so call count dominates"
    )
    mean_gap_cc = 20_000
    #: Consecutive modmul/modexp arrivals served as one shared-wave cohort.
    cohort_size = 8
    msm_window_bits = 2
    slo_cc = 50_000
    layers = ServiceWorkload.layers + ("karatsuba", "workloads")

    def inputs(self, seed):
        return loadgen.build_crypto_load(
            PASS_REQUESTS, self.mean_gap_cc, seed=seed
        )

    def start(self):
        engine = CryptoWorkloadEngine(config=self.config)
        # Warm the service at every context width directly, so the
        # modulus-context cache still starts cold for the pass.
        moduli = tuple(loadgen.DEFAULT_CRYPTO_MODULI) + (TINY_CURVE.p,)
        widths = sorted({ModulusContext(m).width for m in moduli})
        warm_service(engine.service, widths)
        return engine

    def serve(self, server, inputs, hooks=None) -> Outcome:
        engine = server
        outcome = Outcome(len(inputs))
        pending: List[Tuple[int, object]] = []

        def flush_cohort() -> None:
            if not pending:
                return
            try:
                results = engine.serve_cohort([r for _, r in pending])
            except SimulationError as error:
                for index, _ in pending:
                    outcome.errors[index] = type(error).__name__
            else:
                for (index, _), result in zip(pending, results):
                    outcome.record(index, result.value, result)
            pending.clear()

        outcome.mark()
        for index, entry in enumerate(inputs):
            outcome.tick()
            arrival = ARRIVAL_OFFSET_CC + entry.arrival_cc
            if entry.kind == "msm":
                flush_cohort()
                request = MsmRequest(
                    request_id=index,
                    scalars=entry.scalars,
                    points=entry.points,
                    curve=TINY_CURVE,
                    window_bits=self.msm_window_bits,
                    arrival_cc=arrival,
                )
                try:
                    result = engine.serve_msm(request)
                except SimulationError as error:
                    outcome.errors[index] = type(error).__name__
                else:
                    outcome.record(index, result.point, result)
                continue
            if entry.kind == "modexp":
                request = ModExpRequest(
                    request_id=index,
                    base=entry.x,
                    exponent=entry.exponent,
                    modulus=entry.modulus,
                    arrival_cc=arrival,
                )
            else:
                request = ModMulRequest(
                    request_id=index,
                    x=entry.x,
                    y=entry.y,
                    modulus=entry.modulus,
                    arrival_cc=arrival,
                )
            pending.append((index, request))
            if len(pending) >= self.cohort_size:
                flush_cohort()
        flush_cohort()
        outcome.mark()
        outcome.mark_unresolved()
        return outcome

    def service_of(self, server) -> MultiplicationService:
        return server.service

    def before(self, server):
        return {
            **super().before(server),
            "contexts": server.contexts.stats.as_dict(),
        }

    def finish(self, server, outcome, before) -> None:
        super().finish(server, outcome, before)
        contexts = server.contexts.stats.as_dict()
        for key in ("hits", "misses"):
            outcome.counters[f"context_{key}"] = (
                contexts[key] - before["contexts"][key]
            )


class FheSharded(FheFlood):
    """The inputs of ``fhe-flood`` through two process shards."""

    name = "fhe-sharded"
    why = (
        "fhe-flood's exact inputs through 2 process shards: the difference "
        "to fhe-flood is the front-end's IPC, pickling and routing cost"
    )
    shards = 2
    #: Two shards double the bank ways, so the backlog drains twice as fast.
    slo_cc = 100_000
    layers = ("frontend",)

    def start(self):
        loop = asyncio.new_event_loop()
        frontend = AsyncShardedFrontend(
            FrontendConfig(shards=self.shards, service=ServiceConfig())
        )
        try:
            loop.run_until_complete(frontend.start())
            loop.run_until_complete(self._warm(frontend))
        except BaseException:
            loop.run_until_complete(frontend.close())
            loop.close()
            raise
        return loop, frontend

    async def _warm(self, frontend) -> None:
        # Round-robin routing alternates shards by request id, so one
        # round of shards * batch_size requests gives each shard one full
        # batch; the next round lands on every shard's next way.
        service = frontend.config.service
        (n_bits,) = self.widths
        for salt in range(service.ways_per_width):
            pairs = _warm_pairs(n_bits, service.batch_size * self.shards, salt)
            for offset, (a, b) in enumerate(pairs):
                await frontend.submit(
                    a, b, n_bits, arrival_cc=salt * 1000 + offset
                )
            await frontend.drain()
        snapshot = await frontend.snapshot()
        for shard in snapshot["shards"].values():
            check_warm(shard, self.widths)

    def serve(self, server, inputs, hooks=None) -> Outcome:
        loop, frontend = server
        return loop.run_until_complete(self._serve(frontend, inputs, hooks))

    async def _serve(self, frontend, items, hooks) -> Outcome:
        outcome = Outcome(len(items))
        futures = []
        # One chunk: the shards work while the client submits, so the
        # kernel runs only while they are idle, before and after.
        outcome.mark()
        for index, item in enumerate(items):
            try:
                future = await frontend.submit(
                    item.a,
                    item.b,
                    item.n_bits,
                    arrival_cc=ARRIVAL_OFFSET_CC + item.arrival_cc,
                )
            except SimulationError as error:
                outcome.errors[index] = type(error).__name__
                continue
            if hooks is not None:
                hooks.submitted(future)
            futures.append((index, future))
        if items:
            frontend.advance_to_cc(
                ARRIVAL_OFFSET_CC + items[-1].arrival_cc + SETTLE_CC
            )
        await frontend.drain()
        outcome.mark()
        for index, future in futures:
            if not future.done():
                continue
            error = future.exception()
            if error is not None:
                outcome.errors[index] = type(error).__name__
                continue
            result = future.result()
            outcome.record(index, result.product, result)
        outcome.mark_unresolved()
        return outcome

    def _shard_snapshots(self, server) -> List[dict]:
        loop, frontend = server
        snapshot = loop.run_until_complete(frontend.snapshot())
        return list(snapshot["shards"].values())

    def before(self, server):
        return {"counters": service_counters(self._shard_snapshots(server))}

    def finish(self, server, outcome, before) -> None:
        shards = self._shard_snapshots(server)
        # Energy stays inside the shard processes: snapshots carry wear
        # (max writes) but no crossbar energy, so energy_fj stays None.
        outcome.max_writes = max(
            way["max_writes"]
            for shard in shards
            for way in shard["endurance"].values()
        )
        outcome.counters = diff_counters(
            service_counters(shards), before["counters"]
        )

    def peak_rss_kib(self, server) -> int:
        total = 0
        for child in multiprocessing.active_children():
            total += _vm_hwm_kib(child.pid)
        return total

    def close(self, server) -> None:
        loop, frontend = server
        try:
            loop.run_until_complete(frontend.close())
        finally:
            loop.close()


def _vm_hwm_kib(pid: int) -> int:
    """Peak resident set of a live process, from ``/proc`` (Linux)."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (FheFlood(), MixedPortfolio(), CryptoWaves(), FheSharded())
}
