"""The benchmark's own tests: smoke sizes, a corrupted output, a slowed
layer, and the refusal to run without the program's sources.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import layers  # noqa: E402
from perfbench import run as bench  # noqa: E402
from perfbench.report import PER_LAYER, SELF_TIME  # noqa: E402

E2E = ("setup_s", "blocks_per_s", "cycles_per_block", "latency_p50_cycles",
       "latency_p99_cycles", "peak_rss_mb")


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_run_is_correct(workload):
    result = bench.run(workload, seed=3, seconds=0, smoke=True)
    assert result["correct"], result["errors"]
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert sorted(result["metrics"]) == sorted(E2E)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_flipped_ciphertext_bit_fails_the_check(workload):
    result = bench.run(workload, seed=3, seconds=0, smoke=True, flip=True)
    assert result["failed"] == 1
    assert not result["correct"]


def _self_times(result):
    return {name: result["metrics"][name]["value"]
            for name in ["client.s"] + [name for _, name in SELF_TIME]}


@pytest.mark.parametrize("workload,layer", [
    ("stream", "driver.s"), ("fleet", "shard.tick.s"),
    ("campaign", "observe.coverage.s")])
def test_traced_run_covers_the_layers(workload, layer):
    result = bench.run(workload, seed=3, seconds=0, trace=True, smoke=True)
    assert result["correct"], result["errors"]
    assert sorted(result["metrics"]) == sorted(name for name, _ in PER_LAYER)
    assert result["metrics"]["attributed.share"]["value"] >= 0.9
    assert result["metrics"][layer]["value"] > 0


def test_traced_run_names_a_slowed_layer():
    base = bench.run("stream", seed=3, seconds=0, trace=True, smoke=True)
    slow = bench.run("stream", seed=3, seconds=0, trace=True, smoke=True,
                     slow={"driver": 0.001})
    before, after = _self_times(base), _self_times(slow)
    grown = max(before, key=lambda name: after[name] - before[name])
    assert grown == "driver.s"


def test_unwrapped_layer_counts_as_unattributed(monkeypatch):
    # without the step wrapper, the campaign's stepping runs in the
    # benchmark's own frames, which no repro layer covers
    monkeypatch.delitem(layers.WRAPPED, "step")
    result = bench.run("campaign", seed=3, seconds=0, trace=True,
                       smoke=True)
    share = result["metrics"]["attributed.share"]["value"]
    assert share < 0.9


def test_exits_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    cmd = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["command"]
    proc = subprocess.run(cmd + ["--workload", "stream", "--seed", "1",
                                 "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
