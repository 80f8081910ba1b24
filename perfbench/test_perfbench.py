"""Self-tests of the benchmark: the oracle and the determinism guard bite.

Run with ``python3 -m pytest perfbench/test_perfbench.py -q``.
"""

import dataclasses
import json
import os

import pytest

import run

run.import_program()

import layers  # noqa: E402
from repro.crypto.ec import Point  # noqa: E402
import loads  # noqa: E402
import oracle  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


@pytest.fixture(scope="module")
def fhe_passes():
    workload = loads.WORKLOADS["fhe-flood"]
    inputs = workload.inputs(seed=3)[:128]
    return workload, inputs, [run.serve_pass(workload, inputs) for _ in range(2)]


def test_clean_passes_are_correct_and_identical(fhe_passes):
    workload, inputs, passes = fhe_passes
    expected = oracle.expected_values(inputs)
    correct, attempted, failed, cycle, notes = run.judge(
        workload, passes, expected
    )
    assert correct, notes
    assert (attempted, failed) == (256, 0)
    assert cycle["p99_cc"] >= cycle["p50_cc"] > 0


def test_corrupted_product_is_caught(fhe_passes):
    workload, inputs, passes = fhe_passes
    expected = oracle.expected_values(inputs)
    outcome = dataclasses.replace(
        passes[1].outcome, values=dict(passes[1].outcome.values)
    )
    outcome.values[7] ^= 1
    correct, _attempted, failed, _cycle, notes = run.judge(
        workload, [passes[0], run.Pass(1, outcome, 0)], expected
    )
    assert not correct
    assert failed == 1
    assert any("wrong result" in note for note in notes)


def test_cycle_mismatch_is_reported_as_nondeterminism(fhe_passes):
    workload, inputs, passes = fhe_passes
    expected = oracle.expected_values(inputs)
    skewed = dataclasses.replace(
        passes[1].outcome,
        latency_cc={k: v + 1 for k, v in passes[1].outcome.latency_cc.items()},
    )
    correct, _a, failed, _c, notes = run.judge(
        workload, [passes[0], run.Pass(1, skewed, 0)], expected
    )
    assert not correct and failed == 0
    assert any(note.startswith("nondeterminism") for note in notes)


def test_crypto_oracle_checks_every_kind():
    workload = loads.WORKLOADS["crypto-waves"]
    inputs = workload.inputs(seed=5)[:48]
    kinds = {item.kind for item in inputs}
    assert kinds == {"modmul", "modexp", "msm"}
    expected = oracle.expected_values(inputs)
    outcome = run.serve_pass(workload, inputs).outcome
    assert not outcome.errors
    assert oracle.wrong_results(outcome, expected) == []
    for kind in ("modmul", "modexp", "msm"):
        index = next(i for i, item in enumerate(inputs) if item.kind == kind)
        good = outcome.values[index]
        if kind == "msm":
            bad = Point(x=None, y=None) if good.x is not None else Point(1, 1)
        else:
            bad = good ^ 1
        outcome.values[index] = bad
        assert oracle.wrong_results(outcome, expected) == [index]
        outcome.values[index] = good


def test_wrong_result_makes_the_run_exit_non_zero(monkeypatch, capsys):
    workload = loads.WORKLOADS["fhe-flood"]
    serve = workload.serve

    def corrupting_serve(server, inputs, hooks=None):
        outcome = serve(server, inputs, hooks)
        outcome.values[11] += 1
        return outcome

    monkeypatch.setattr(workload, "serve", corrupting_serve)
    monkeypatch.setattr(run, "probe_setup", lambda name: 0.5)
    monkeypatch.setattr(
        workload, "inputs",
        lambda seed: loads.FheFlood.inputs(workload, seed)[:64],
    )
    status = run.main(["--workload", "fhe-flood", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status != 0
    assert result["correct"] is False and result["failed"] >= 2


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        run.END_TO_END_UNITS
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        layers.PER_LAYER
    )
