"""Golden outputs of the open-loop serving CLI commands.

``load-bench``, ``chaos-campaign --json`` and ``crypto-bench`` print
numbers that live entirely on the virtual cycle clock, so for a given
seed their output is fixed.  These tests pin it byte for byte, with
the host wall-time column cut out of the tables (it is the only
host-dependent field).
"""

from __future__ import annotations

import json

from repro.cli import main


def _drop_wall_column(text: str) -> str:
    """Cut every table line at the ``wall`` header's column."""
    lines = text.splitlines()
    index = next(i for i, line in enumerate(lines) if line.endswith("wall "))
    cut = lines[index].index("wall")
    while index < len(lines) and lines[index]:
        lines[index] = lines[index][:cut].rstrip()
        index += 1
    return "\n".join(lines) + "\n"


LOAD_BENCH_GOLDEN = """\
Open-loop fhe/poisson: 16 jobs, mean gap 100 cc, 2 inline shard(s)
path     done  shed  p50 cc  p95 cc  p99 cc  miss   horizon cc
-------  ----  ----  ------  ------  ------  -----  ----------
sync       16     0   7,598  13,734  13,734  50.0%  14,618
sharded    16     0   7,281   8,075   8,075  6.2%   8,221

cycle-domain speedup (sync horizon / sharded horizon): 1.78x
autoscale events (sync + sharded): 0 up, 0 down
"""

CRYPTO_BENCH_GOLDEN = """\
Crypto open-loop (poisson): 16 jobs, mean gap 20000 cc, cohorts of 8
done  rej  p50 cc  p95 cc   p99 cc   miss  ctx hit  horizon cc
----  ---  ------  -------  -------  ----  -------  ----------
  15    1  74,442  143,490  143,490  0.0%  91.5%    311,508

kinds served: modexp:1, modmul:14, msm:1
multiplier passes: 32 across 90 waves (32 residue checks)
modulus contexts: 4 cached, hit rate 91.5%
"""


def _chaos_row(scenario, **changes):
    row = {
        "scenario": scenario,
        "offered": 16,
        "admitted": 16,
        "completed": 16,
        "failed_typed": 0,
        "rejected_at_submit": 0,
        "stranded": 0,
        "mismatched": 0,
        "outstanding_after": 0,
        "journal_after": 0,
        "shard_deaths": 0,
        "shard_restarts": 0,
        "redispatches": 0,
        "orphan_results": 0,
        "breaker_transitions": 0,
        "breakers": ["closed", "closed"],
        "terminal": 16,
        "clean": True,
    }
    row.update(changes)
    return row


CHAOS_GOLDEN = {
    "seed": 0xC4A05,
    "jobs": 16,
    "shards": 2,
    "processes": False,
    "scenarios": [
        _chaos_row("none"),
        _chaos_row(
            "kill",
            shard_deaths=1,
            shard_restarts=1,
            redispatches=3,
            breaker_transitions=3,
        ),
        _chaos_row("drop", redispatches=8),
        _chaos_row("duplicate", orphan_results=8),
    ],
}


def test_load_bench_golden(capsys):
    code = main(
        [
            "load-bench", "--jobs", "16", "--gap-cc", "100", "--shards", "2",
            "--deadline-slack-cc", "8000", "--autoscale",
            "--slo-p99-cc", "24000",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert _drop_wall_column(out) == LOAD_BENCH_GOLDEN


def test_chaos_campaign_json_golden(capsys):
    code = main(
        [
            "chaos-campaign", "--json",
            "--scenarios", "none,kill,drop,duplicate",
            "--jobs", "16", "--shards", "2", "--batch-size", "4",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out) == CHAOS_GOLDEN


def test_crypto_bench_golden(capsys):
    code = main(
        [
            "crypto-bench", "--jobs", "16",
            "--deadline-slack-cc", "150000",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert _drop_wall_column(out) == CRYPTO_BENCH_GOLDEN


def test_crypto_bench_slo_miss_fails(capsys):
    code = main(
        [
            "crypto-bench", "--jobs", "16",
            "--deadline-slack-cc", "150000", "--slo-p99-cc", "100000",
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert _drop_wall_column(captured.out) == CRYPTO_BENCH_GOLDEN
    assert "FAIL: crypto p99 143490 cc exceeds SLO 100000 cc" in captured.err
