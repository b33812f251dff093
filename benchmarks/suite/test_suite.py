"""Checks on the benchmark itself, at ``--smoke`` size.

Run with ``python -m pytest benchmarks/suite -q`` (outside tier-1's
``testpaths``).  Every workload runs through the real command line in a
subprocess, exactly as the driver would start it.
"""

import copy
import functools
import json
import os
import re
import subprocess
import sys

import pytest

from . import compare
from . import metrics as m

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
RUN = os.path.join(SUITE_DIR, "run.py")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


@functools.lru_cache(maxsize=None)
def run(workload: str, seed: int, trace: int) -> dict:
    """One smoke run; the detail file carries the ladder rungs too."""
    out = os.path.join(ROOT, f".bench_tmp_test_{os.getpid()}.json")
    try:
        done = subprocess.run(
            [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
             "--trace", str(trace), "--smoke", "--out", out],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        last_line = json.loads(done.stdout.rstrip("\n").rsplit("\n", 1)[-1])
        with open(out) as handle:
            detail = json.load(handle)
    finally:
        if os.path.exists(out):
            os.remove(out)
    assert set(last_line) == {"correct", "attempted", "failed", "metrics"}
    assert last_line["metrics"] == detail["metrics"]
    return detail


def values(result: dict, names) -> dict:
    return {name: result["metrics"][name]["value"] for name in names}


def test_benchmark_json_is_the_catalogue():
    for key, catalogue in (("end_to_end", m.END_TO_END), ("per_layer", m.PER_LAYER)):
        declared = BENCHMARK[key]
        assert [d["name"] for d in declared] == [c.name for c in catalogue]
        for entry, metric in zip(declared, catalogue):
            assert NAME.match(entry["name"])
            assert (entry["unit"], entry["better"]) == (metric.unit, metric.better)
            if key == "end_to_end":
                assert entry["bound"] == metric.bound
                assert metric.workloads is None, "bounded metrics are never 0"
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(m.WORKLOAD_NAMES)
    assert BENCHMARK["paths"] == ["benchmarks/suite"]
    assert BENCHMARK["command"] == ["python3", "benchmarks/suite/run.py"]


@pytest.mark.parametrize("workload", m.WORKLOAD_NAMES)
def test_every_declared_metric_is_emitted_and_no_other(workload):
    plain, traced = run(workload, 42, 0), run(workload, 42, 1)
    for result, key in ((plain, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        declared = {d["name"]: d["unit"] for d in BENCHMARK[key]}
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        assert emitted == declared
    assert all(cell["value"] > 0 for cell in plain["metrics"].values())
    for metric in m.PER_LAYER:
        if not metric.defined_on(workload):
            assert traced["metrics"][metric.name]["value"] == 0


@pytest.mark.parametrize("workload", m.WORKLOAD_NAMES)
def test_counts_repeat_under_one_seed_and_move_with_the_seed(workload):
    counts = [
        c.name for c in m.PER_LAYER if c.count and c.defined_on(workload)
    ]
    first = values(run(workload, 42, 1), counts)
    again = values(run.__wrapped__(workload, 42, 1), counts)
    other = values(run(workload, 7, 1), counts)
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", m.WORKLOAD_NAMES)
def test_ladder_rungs_are_monotone(workload):
    rungs = run(workload, 42, 1)["ladder_ns_per_op"]
    assert 0 < rungs["r0"] < rungs["r1"] < rungs["r2"]
    if workload in m.REMOTE:
        # the hop dwarfs the store behind it: r3 and r4 differ by about
        # one percent, less than two smoke-sized replays repeat
        assert rungs["r2"] < min(rungs["r3"], rungs["r4"])
        assert rungs["r4"] > 0.8 * rungs["r3"]


def test_traced_run_attributes_the_timed_region_to_layers():
    detail = run(m.REMOTE_SYNC, 42, 1)
    own = detail["self_time_s"]
    for layer in ("core.replayer.replay", "kvstores.remote", "kvstores.memory"):
        assert own[layer] > 0
    # a synchronous call contains the served store's work
    assert own["kvstores.remote"] > own["kvstores.memory"]


def test_no_program_to_measure_is_a_failure(tmp_path):
    """In a directory that holds only the benchmark the command fails
    without printing a result."""
    suite = tmp_path / "benchmarks" / "suite"
    suite.mkdir(parents=True)
    for name in os.listdir(SUITE_DIR):
        if name.endswith((".py", ".json")):
            (suite / name).write_bytes(open(os.path.join(SUITE_DIR, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    done = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", m.PIPELINE,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_compare_flags_a_regression_and_a_changed_count():
    base = {"workloads": {m.PACED: [run(m.PACED, 42, 0), run(m.PACED, 42, 1)]}}
    assert all(
        row["verdict"] in ("ok", "same", "-")
        for row in compare.compare(base, base)[m.PACED].values()
    )
    slower = copy.deepcopy(base)
    for run_ in slower["workloads"][m.PACED]:
        for name in ("wall_s", "kvstores.lsm.flushes", "write_amp"):
            if name in run_["metrics"]:
                run_["metrics"][name]["value"] *= 1.5
    rows = compare.compare(base, slower)[m.PACED]
    assert rows["wall_s"]["verdict"] == "worse"
    assert rows["write_amp"]["verdict"] == "worse"
    assert rows["kvstores.lsm.flushes"]["verdict"] == "differs"
    assert rows["throughput_kops"]["verdict"] == "ok"
