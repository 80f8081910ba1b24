"""Repository benchmark: dual-clock serving throughput per workload.

Serves one seeded workload (see ``loads.py``) through the public API of
``repro`` and prints every metric with its unit, then one JSON line::

    python3 perfbench/run.py --workload fhe-flood --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 1

``--trace 0`` reports the end-to-end metrics, measured with no
instrumentation installed.  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics of ``spans.py``, a
``layer | self_s | share of wall | calls`` table, and writes the spans
of the last traced pass to ``perfbench/out/``.  The run exits non-zero
on any wrong result and on any cycle metric or model statistic that
differs between repetitions at one seed.
"""

import time

# Set-up time is measured from here, before ``repro`` is imported.
PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("fhe-flood", "mixed-portfolio", "crypto-waves", "fhe-sharded")
#: Cold set-ups per run (this process plus probe processes); setup_s is
#: their median.
SETUP_SAMPLES = 3
#: Timed passes per run at least, so the determinism guard always compares.
MIN_REPS = 2
#: Requests of the untimed warm-up pass that builds the process's lazy state.
WARM_REQUESTS = 256
#: Metrics the determinism guard requires identical on every pass.
CYCLE_KEYS = ("p50_cc", "p99_cc", "horizon_cc", "miss_frac",
              "model.energy_fj_per_req", "model.max_writes")

END_TO_END_UNITS = {
    "requests_per_s": "req/s",
    "mults_per_s": "mult/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "p50_cc": "cc",
    "p99_cc": "cc",
    "horizon_cc": "cc",
    "miss_frac": "ratio",
}


def import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"repro imported from outside {SRC}")


# ----------------------------------------------------------------------
# One pass
# ----------------------------------------------------------------------
class Pass:
    """One timed pass: wall time, outcome, and what the trace saw."""

    def __init__(self, wall_ns, outcome, rss_kib, spans=None,
                 resolve_ns=None):
        self.wall_ns = wall_ns
        self.outcome = outcome
        self.rss_kib = rss_kib
        self.spans = spans
        self.resolve_ns = resolve_ns


def serve_pass(workload, inputs, traced=False):
    from spans import ResolveClock, SpanRecorder, instrument

    server = workload.start()
    try:
        before = workload.before(server)
        recorder = SpanRecorder() if traced else None
        hooks = ResolveClock() if traced else None
        restore = instrument(recorder, workload.layers) if traced else None
        gc.collect()
        started = time.perf_counter_ns()
        try:
            outcome = workload.serve(server, inputs, hooks)
        finally:
            wall_ns = time.perf_counter_ns() - started
            if restore is not None:
                restore()
        # Host time spent serving: calibration kernels run inside the pass.
        wall_ns -= sum(start - end for end, _kernel, start in outcome.marks)
        workload.finish(server, outcome, before)
        rss_kib = workload.peak_rss_kib(server)
    finally:
        workload.close(server)
    return Pass(wall_ns, outcome, rss_kib,
                recorder.spans if traced else None,
                hooks.latencies_ns if traced else None)


def cycle_metrics(workload, outcome, wrong):
    """Simulated-clock metrics of one pass (deterministic per seed)."""
    from layers import nearest_rank
    from loads import ARRIVAL_OFFSET_CC

    wrong = set(wrong)
    latencies = sorted(
        cc for index, cc in outcome.latency_cc.items()
        if index in outcome.values and index not in wrong
    )
    failed = len(outcome.errors) + len(wrong)
    late = sum(1 for cc in latencies if cc > workload.slo_cc)
    horizon = max(outcome.completion_cc.values(), default=ARRIVAL_OFFSET_CC)
    energy = (
        outcome.energy_fj / outcome.offered
        if outcome.energy_fj is not None else 0.0
    )
    return {
        "p50_cc": nearest_rank(latencies, 50),
        "p99_cc": nearest_rank(latencies, 99),
        "horizon_cc": horizon - ARRIVAL_OFFSET_CC,
        "miss_frac": (late + failed) / outcome.offered,
        "failed_frac": failed / outcome.offered,
        "failed": failed,
        "model.energy_fj_per_req": energy,
        "model.max_writes": outcome.max_writes,
    }


def judge(workload, passes, expected):
    """Check every pass; returns (correct, attempted, failed, cycle, notes)."""
    from oracle import wrong_results

    notes = []
    attempted = failed = 0
    reference = None
    for number, run in enumerate(passes):
        wrong = wrong_results(run.outcome, expected)
        if wrong:
            notes.append(
                f"pass {number}: {len(wrong)} wrong result(s), first at "
                f"request {wrong[0]}"
            )
        cycle = cycle_metrics(workload, run.outcome, wrong)
        attempted += run.outcome.offered
        failed += cycle["failed"]
        key = tuple(cycle[name] for name in CYCLE_KEYS)
        if reference is None:
            reference = (key, cycle)
        elif key != reference[0]:
            notes.append(
                f"nondeterminism: pass {number} cycle metrics "
                f"{dict(zip(CYCLE_KEYS, key))} != pass 0 "
                f"{dict(zip(CYCLE_KEYS, reference[0]))}"
            )
    return not notes, attempted, failed, reference[1], notes


# ----------------------------------------------------------------------
# Set-up time
# ----------------------------------------------------------------------
def setup_seconds():
    """Reference-host seconds since process start (see ``calibrate``).

    The kernel runs right after set-up, the closest the host's speed
    can be sampled without timing the kernel as part of set-up.
    """
    from calibrate import host_factor

    elapsed = time.perf_counter() - PROCESS_START
    return elapsed * host_factor()


def probe_setup(workload_name):
    """Cold set-up time of a fresh process (import, build, warm-up)."""
    command = [sys.executable, os.path.abspath(__file__),
               "--setup-probe", "--workload", workload_name]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=150, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def machine_fingerprint():
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def print_metrics(metrics):
    width = max(len(name) for name in metrics)
    for name, entry in metrics.items():
        print(f"  {name:<{width}}  {entry['value']:>16.6g}  {entry['unit']}")


def normalised_wall_s(passes):
    """Median over passes of reference-host seconds (see ``calibrate``)."""
    from calibrate import normalised_seconds

    return statistics.median(normalised_seconds(run.outcome.marks)
                             for run in passes)


def end_to_end(workload, timed, setup_samples, cycle):
    wall = normalised_wall_s(timed)
    outcome = timed[0].outcome
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + max(
        run.rss_kib for run in timed
    )
    values = {
        "requests_per_s": len(outcome.values) / wall,
        # Products the simulated multiplier computed: every request that
        # reached a batch rather than the operand cache.
        "mults_per_s": outcome.counters["operand_misses"] / wall,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": rss_kib / 1024,
        "p50_cc": cycle["p50_cc"],
        "p99_cc": cycle["p99_cc"],
        "horizon_cc": cycle["horizon_cc"],
        "miss_frac": cycle["miss_frac"],
    }
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()}


def traced_report(workload, untraced, traced, cycle):
    """Per-layer metrics plus the layer table of the traced passes."""
    from layers import layer_metrics, layer_table
    from spans import attribute

    main = threading.get_ident()
    per_pass = [attribute(run.spans, run.wall_ns, main) for run in traced]
    overhead = normalised_wall_s(traced) / normalised_wall_s(untraced) - 1
    metrics = layer_metrics(per_pass, traced, cycle, overhead)
    table = layer_table(per_pass[-1][0], traced[-1].wall_ns)
    return metrics, table


def write_trace(args, meta, metrics, traced):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.trace.json")
    last = traced[-1]
    payload = {
        "meta": meta,
        "metrics": metrics,
        "wall_ns": last.wall_ns,
        "span_fields": ["name", "start_ns", "end_ns", "parent", "id",
                        "thread", "lanes", "cycles"],
        "spans": last.spans,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"), default=str)
    return path


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run_workload(args):
    from loads import WORKLOADS
    from oracle import expected_values, wrong_results

    workload = WORKLOADS[args.workload]
    server = workload.start()
    setup_samples = [setup_seconds()]
    try:
        setup_samples += [probe_setup(args.workload)
                          for _ in range(SETUP_SAMPLES - 1)]
        inputs = workload.inputs(args.seed)
        expected = expected_values(inputs)
        # The first pass in a fresh process is slower even on a warmed
        # server (lazy interpreter and library state): serve an untimed,
        # checked prefix first.
        warm = workload.serve(server, inputs[:WARM_REQUESTS])
    finally:
        workload.close(server)
    warm_wrong = wrong_results(warm, expected)

    untraced, traced = [], []
    started = time.perf_counter()
    while True:
        untraced.append(serve_pass(workload, inputs))
        if args.trace:
            traced.append(serve_pass(workload, inputs, traced=True))
        done = len(untraced)
        elapsed = time.perf_counter() - started
        if done >= (1 if args.trace else MIN_REPS) and (
            elapsed + elapsed / done > args.seconds
        ):
            break

    correct, attempted, failed, cycle, notes = judge(
        workload, untraced + traced, expected
    )
    if warm_wrong:
        correct = False
        notes.append(f"warm-up pass: {len(warm_wrong)} wrong result(s)")

    meta = machine_fingerprint()
    meta.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, untraced_passes=len(untraced),
                traced_passes=len(traced), requests_per_pass=len(inputs))
    print(f"# perfbench {args.workload}: {workload.why}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    failed_frac = {"failed_frac": {"value": cycle["failed_frac"],
                                   "unit": "ratio"}}
    if args.trace:
        metrics, table = traced_report(workload, untraced, traced, cycle)
        print(table)
        print_metrics({**metrics, **failed_frac})
        path = write_trace(args, meta, metrics, traced)
        print(f"# spans of the last traced pass: {os.path.relpath(path, ROOT)}")
    else:
        metrics = end_to_end(workload, untraced, setup_samples, cycle)
        raw_s = statistics.median(run.wall_ns for run in untraced) / 1e9
        print(f"# unnormalised: {len(untraced[0].outcome.values) / raw_s:.6g} "
              f"req/s over host seconds, host factor "
              f"{normalised_wall_s(untraced) / raw_s:.4f}")
        print_metrics({**metrics, **failed_frac})
    for note in notes:
        print(f"# FAIL {note}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args):
    """Run every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print("\n".join(lines))
            sys.stderr.write(done.stderr)
            status = 1
            combined["correct"] = False
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import_program()
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        from loads import WORKLOADS

        workload = WORKLOADS[args.workload]
        server = workload.start()
        elapsed = setup_seconds()
        workload.close(server)
        print(f"{elapsed:.9f}")
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
