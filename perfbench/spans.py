"""Host-clock spans around calls into each layer's public functions.

The traced run wraps the layer entry points listed in
:data:`LAYER_TARGETS` for the duration of one pass, records one span
per call (name, start, end, parent span, request or batch id, thread)
in memory, and restores the originals afterwards.  A span's self time
is its duration minus the time its child spans cover.  The untraced
runs never install a wrapper, so the end-to-end metrics carry no
tracing cost.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple


class SpanRecorder:
    """In-memory span store with one call stack per thread."""

    def __init__(self) -> None:
        #: ``[name, start_ns, end_ns, parent, ident, thread, lanes, cycles]``
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def begin(self, name: str, ident=None, lanes: int = 0) -> int:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else -1
        span = [name, 0, 0, parent, ident, threading.get_ident(), lanes, 0]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span[1] = time.perf_counter_ns()
        return index

    def end(self, index: int, cycles: int = 0) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter_ns()
        span[7] = cycles
        self._local.stack.pop()


# ----------------------------------------------------------------------
# What each span records besides its interval
# ----------------------------------------------------------------------
def _request_id(args, kwargs):
    return getattr(args[1], "request_id", None), 0


def _batch(args, kwargs):
    """Stage and executor calls: the lane count is the batch length."""
    return None, len(args[-1]) if len(args) > 1 else 0


def _dispatch(args, kwargs):
    pairs = args[2] if len(args) > 2 else kwargs.get("pairs", ())
    ids = kwargs.get("request_ids", args[3] if len(args) > 3 else ())
    return (ids[0] if ids else None), len(pairs)


def _replay(args, kwargs):
    bindings = args[2] if len(args) > 2 else kwargs.get("bindings_list", ())
    return None, len(bindings)


def _replay_cycles(result) -> int:
    return result[0].cycles if result else 0


#: ``layer -> [(module, class, method, span name, info, result info)]``.
#: *info* maps the call's arguments to ``(id, lanes)``; *result info*
#: maps its return value to the simulated cycles the call replayed.
LAYER_TARGETS: Dict[str, List[Tuple]] = {
    "service": [
        ("repro.service", "MultiplicationService", "submit_request",
         "service.facade", _request_id, None),
        ("repro.service", "MultiplicationService", "advance_to_cc",
         "service.facade", None, None),
        ("repro.service", "MultiplicationService", "drain",
         "service.facade", None, None),
        ("repro.service.scheduler", "BinningScheduler", "submit",
         "service.scheduler", _request_id, None),
        ("repro.service.scheduler", "BinningScheduler", "advance_to",
         "service.scheduler", None, None),
        ("repro.service.scheduler", "BinningScheduler", "pump",
         "service.scheduler", None, None),
        ("repro.service.scheduler", "BinningScheduler", "drain",
         "service.scheduler", None, None),
        ("repro.service.degrade", "DegradeController", "execute",
         "service.dispatch", _dispatch, None),
    ],
    "karatsuba": [
        ("repro.karatsuba.controller", "KaratsubaController",
         "run_jobs_batch", "pipeline.controller", _batch, None),
        ("repro.karatsuba.precompute", "PrecomputeStage", "process_batch",
         "stage.precompute", _batch, None),
        ("repro.karatsuba.multiply", "MultiplicationStage", "process_batch",
         "stage.multiply", _batch, None),
        ("repro.karatsuba.postcompute", "PostcomputeStage", "process_batch",
         "stage.postcompute", _batch, None),
    ],
    "portfolio": [
        ("repro.portfolio.toom3", "Toom3Controller", "run_jobs_batch",
         "pipeline.controller", _batch, None),
        ("repro.portfolio.toom3", "EvaluationStage", "process_batch",
         "stage.evaluate", _batch, None),
        ("repro.portfolio.toom3", "PointwiseStage", "process_batch",
         "stage.pointwise", _batch, None),
        ("repro.portfolio.toom3", "InterpolationStage", "process_batch",
         "stage.interpolate", _batch, None),
        ("repro.portfolio.schoolbook", "SchoolbookController",
         "run_jobs_batch", "stage.schoolbook", _batch, None),
    ],
    "magic": [
        ("repro.magic.executor", "WordPackedMagicExecutor", "execute",
         "magic.replay", _replay, _replay_cycles),
        ("repro.magic.executor", "BatchedMagicExecutor", "execute",
         "magic.replay", _replay, _replay_cycles),
        ("repro.magic.backend", "ScalarLaneExecutor", "execute",
         "magic.replay", _replay, _replay_cycles),
        ("repro.magic.executor", "CompiledProgram", "__init__",
         "magic.compile", None, None),
    ],
    "reliability": [
        ("repro.reliability.residue", "ResidueChecker", "check_sum",
         "reliability.residue", None, None),
        ("repro.reliability.residue", "ResidueChecker", "check_product",
         "reliability.residue", None, None),
        ("repro.reliability.residue", "ResidueChecker", "check_linear",
         "reliability.residue", None, None),
    ],
    "workloads": [
        ("repro.workloads.engine", "CryptoWorkloadEngine", "serve_cohort",
         "workloads.engine", None, None),
        ("repro.workloads.engine", "CryptoWorkloadEngine", "serve_msm",
         "workloads.engine", _request_id, None),
        ("repro.workloads.msm", "MsmOrchestrator", "run",
         "workloads.msm", _request_id, None),
        ("repro.workloads.waves", "WavePlan", "__init__",
         "workloads.plan", None, None),
        ("repro.workloads.waves", "WavePlan", "deliver",
         "workloads.wave", _batch, None),
        ("repro.workloads.waves", "ServiceWaveRunner", "run",
         "workloads.runner", None, None),
    ],
    "frontend": [
        ("repro.frontend", "AsyncShardedFrontend", "submit",
         "frontend.submit", None, None),
        ("repro.frontend", "AsyncShardedFrontend", "advance_to_cc",
         "frontend.advance", None, None),
        ("repro.frontend", "AsyncShardedFrontend", "drain",
         "frontend.drain", None, None),
        ("repro.frontend.shards", "ProcessShard", "send",
         "frontend.shard_send", None, None),
    ],
}


def _wrap(recorder: SpanRecorder, name: str, fn: Callable,
          info: Optional[Callable], result_info: Optional[Callable]):
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            ident, lanes = info(args, kwargs) if info else (None, 0)
            index = recorder.begin(name, ident, lanes)
            try:
                return await fn(*args, **kwargs)
            finally:
                recorder.end(index)

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        ident, lanes = info(args, kwargs) if info else (None, 0)
        index = recorder.begin(name, ident, lanes)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            recorder.end(index, result_info(result) if result_info and
                         result is not None else 0)

    return wrapper


def instrument(recorder: SpanRecorder, layers) -> Callable[[], None]:
    """Wrap every target of *layers*; returns the function that undoes it."""
    installed = []
    for layer in layers:
        for module, cls_name, attr, name, info, result_info in LAYER_TARGETS[layer]:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[attr]
            installed.append((cls, attr, original))
            setattr(cls, attr, _wrap(recorder, name, original, info,
                                     result_info))

    def restore() -> None:
        for cls, attr, original in reversed(installed):
            setattr(cls, attr, original)

    return restore


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------
def attribute(spans: List[list], wall_ns: int, main_thread: int):
    """Per-span-name totals plus the traced pass's coverage.

    Returns ``({name: {"self_ns", "calls", "lanes", "cycles"}},
    coverage)`` where coverage is the share of *wall_ns* covered by
    top-level spans of the client thread.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    layers: Dict[str, Dict[str, int]] = {}
    covered = 0
    for index, (name, start, end, parent, _id, thread, lanes,
                cycles) in enumerate(spans):
        totals = layers.setdefault(
            name, {"self_ns": 0, "calls": 0, "lanes": 0, "cycles": 0}
        )
        totals["self_ns"] += end - start - child_ns[index]
        totals["calls"] += 1
        totals["lanes"] += lanes
        totals["cycles"] += cycles
        if parent < 0 and thread == main_thread:
            covered += end - start
    return layers, (covered / wall_ns if wall_ns else 0.0)


class ResolveClock:
    """Front-end futures' submit-to-resolve wall time (client side)."""

    def __init__(self) -> None:
        self.latencies_ns: List[int] = []

    def submitted(self, future) -> None:
        start = time.perf_counter_ns()
        future.add_done_callback(
            lambda _f: self.latencies_ns.append(time.perf_counter_ns() - start)
        )
