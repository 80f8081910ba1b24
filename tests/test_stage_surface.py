"""The shared controller / stage / crossbar-unit surface.

Every datapath controller (Karatsuba L = 2, Toom-3, schoolbook) derives
its accounting from one ``stages`` tuple and the crossbar units each
stage owns.  These tests pin that the accounting really covers every
unit, in particular Toom-3's wide recombination adder, which used to be
left out of the compile-cache totals, the reliability view and the
``stage.interpolate`` span energy.
"""

from __future__ import annotations

import importlib.util
import os
import random

import pytest

from repro import telemetry
from repro.karatsuba.controller import KaratsubaController
from repro.portfolio.design import Toom3Pipeline
from repro.portfolio.schoolbook import SchoolbookController
from repro.portfolio.toom3 import Toom3Controller
from repro.service import MultiplicationService, ServiceConfig

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
TABLE_PATH = os.path.join(ROOT, "TUNE_portfolio.json")


def _portfolio_service(**overrides):
    settings = {
        "batch_size": 4,
        "ways_per_width": 1,
        "portfolio": True,
        "portfolio_table": TABLE_PATH,
    }
    settings.update(overrides)
    return MultiplicationService(ServiceConfig(**settings))


class TestControllerSurface:
    def test_crossbar_labels_cover_every_unit(self):
        assert [label for label, _ in KaratsubaController(16).crossbars()] == [
            "precompute",
            "postcompute",
        ]
        toom3 = Toom3Controller(90)
        assert [label for label, _ in toom3.crossbars()] == [
            "evaluate",
            "interpolate",
            "interpolate.wide",
        ]
        assert toom3.crossbars()[2][1] is toom3.interpolate.wide
        assert SchoolbookController(16).crossbars() == []

    def test_stage_names_come_from_stages(self):
        for controller, names in (
            (
                KaratsubaController(16),
                ("precompute", "multiply", "postcompute"),
            ),
            (Toom3Controller(90), ("evaluate", "pointwise", "interpolate")),
            (SchoolbookController(16), ("operands", "multiply", "store")),
        ):
            assert tuple(name for name, _ in controller.stages) == names
            assert len(controller.stage_latencies()) == 3

    def test_fault_hook_reaches_every_unit(self):
        controller = Toom3Controller(90)
        hook = object()
        controller.fault_hook = hook
        assert controller.fault_hook is hook
        assert all(
            unit.executor.fault_hook is hook
            for _, unit in controller.crossbars()
        )

    def test_schoolbook_reports_no_optimizer_even_when_enabled(self):
        controller = SchoolbookController(16, optimize=True)
        assert controller.optimizer_stats() == {"enabled": False}
        assert controller.diagnose_and_repair() == {}
        assert controller.spare_rows_free() == 0
        assert controller.total_energy_fj() == 0.0


class TestToom3WideAdderAccounting:
    def test_compile_cache_totals_cover_every_unit(self):
        service = _portfolio_service()
        rng = random.Random(0xCAC4E)
        for _ in range(8):
            service.submit(rng.getrandbits(90), rng.getrandbits(90), 90)
        service.drain()
        totals = {"hits": 0, "misses": 0, "evictions": 0}
        wide_lookups = 0
        for way in service.dispatcher.all_ways():
            for label, unit in way.pipeline.controller.crossbars():
                stats = unit.executor.compile_cache_stats().as_dict()
                for key in totals:
                    totals[key] += stats[key]
                if label == "interpolate.wide":
                    wide_lookups += stats["hits"] + stats["misses"]
        assert wide_lookups > 0
        assert service.snapshot()["caches"]["compile"] == totals

    def test_repaired_wide_adder_fault_shows_in_remap(self):
        service = _portfolio_service(spare_rows=2)
        rng = random.Random(0x51DE)
        service.submit(rng.getrandbits(90), rng.getrandbits(90), 90)
        service.drain()
        way_id = service.inject_fault(
            90, stage="interpolate.wide", row=2, col=0, kind="sa0"
        )
        pairs = [(rng.getrandbits(90), rng.getrandbits(90)) for _ in range(4)]
        for a, b in pairs:
            service.submit(a, b, 90)
        results = service.drain()
        assert [r.product for r in results] == [a * b for a, b in pairs]
        reliability = service.snapshot()["reliability"][way_id]
        assert reliability["healthy"]
        assert list(reliability["remap"]) == ["interpolate.wide"]
        assert 2 in reliability["remap"]["interpolate.wide"]

    def test_stage_span_energy_sums_to_total_energy(self):
        pipeline = Toom3Pipeline(90)
        controller = pipeline.controller
        rng = random.Random(0xE4E)
        pairs = [(rng.getrandbits(90), rng.getrandbits(90)) for _ in range(5)]
        before = controller.total_energy_fj()
        with telemetry.tracing() as tracer:
            pipeline.run_stream(pairs, batch_size=5)
        stages = [
            span
            for root in tracer.roots
            for span in _walk(root)
            if span.name.startswith("stage.")
        ]
        assert {span.name for span in stages} == {
            "stage.evaluate",
            "stage.pointwise",
            "stage.interpolate",
        }
        spent = sum(span.attrs.get("energy_fj", 0.0) for span in stages)
        assert spent == controller.total_energy_fj() - before > 0


def _walk(span):
    yield span
    for child in span.children:
        yield from _walk(child)


def _load_perfbench_spans():
    path = os.path.join(ROOT, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "target",
    [
        (module, cls, attr)
        for targets in _load_perfbench_spans().LAYER_TARGETS.values()
        for module, cls, attr, *_ in targets
    ],
    ids=lambda target: f"{target[1]}.{target[2]}",
)
def test_perfbench_layer_target_is_defined_in_its_class_body(target):
    """The benchmark's tracer wraps ``cls.__dict__[attr]``: a traced
    method moved into a base class would make ``--trace 1`` fail."""
    module, cls_name, attr = target
    cls = getattr(importlib.import_module(module), cls_name)
    assert callable(cls.__dict__[attr])
