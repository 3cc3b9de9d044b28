"""Tests of the benchmark itself, on the tiny workload size.

Run from the repository root: ``python -m pytest perfbench``.
"""

import functools
import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import designs  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("flow", "cec_xmul", "server_mix")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)


@functools.lru_cache(maxsize=None)
def run(workload: str, trace: int, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = run(workload, trace, 1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["end_to_end" if trace == 0 else "per_layer"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in listed}


def test_wrong_expected_verdict_counts_as_failed_op():
    workload = workloads.make("cec_xmul", 1, "tiny", None)
    pair = workload.pairs[0]
    workload.pairs[0] = replace(pair,
                                expect_equivalent=not pair.expect_equivalent)
    workload.setup()
    outcome = workload.measure(0.0, traced=False)
    # The first op and one measured op, both with the wrong expectation.
    assert outcome.attempted == 2
    assert outcome.failed == 2 and outcome.fail_ratio == 1.0
    assert not outcome.op_seconds
    assert any("expected the opposite" in p for p in outcome.problems)


def test_counts_repeat_exactly_across_runs():
    def values(workload, trace, names):
        return [{n: run(workload, trace, seed)["metrics"][n]["value"]
                 for n in names} for seed in (1, 2)]

    flow = values("flow", 0, ("ands", "levels", "luts", "lut_depth"))
    assert flow[0] == flow[1] and flow[0]["ands"] > 0
    cec = values("cec_xmul", 1, ("cec.conflicts", "cec.cnf_clauses"))
    assert cec[0] == cec[1]
    server = values("server_mix", 1, (
        "server.alias_hits", "server.disk_hits", "server.cold_jobs",
        "server.dedup_hits", "server.errors"))
    assert server[0] == server[1]
    counts = designs.round_counts("tiny")
    assert server[0]["server.alias_hits"] == counts["alias"]
    assert server[0]["server.disk_hits"] == counts["disk"]
    assert server[0]["server.cold_jobs"] == counts["cold"]
