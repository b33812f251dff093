"""Command line of the suite.

With ``--workload`` the named workload runs in this process and the
last line of standard output is the result object ``BENCHMARK.json``'s
contract asks for.  Without it every workload runs in a fresh
subprocess of its own (own peak RSS, own allocator state) and the
results are printed by name and collected into ``--out``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

from repro.lake import git_sha

from . import metrics as m
from .checks import Oracle
from .layers import Tracer, run_ladder
from .workloads import WORKLOADS, Workload

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
#: a workload that has not finished after this many seconds is reported
#: as failed instead of hanging the caller
WORKLOAD_CAP_S = 150


def default_seconds() -> int:
    root = os.path.dirname(os.path.dirname(SUITE_DIR))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        return json.load(handle)["run_seconds"]


class Pass:
    """One set-up, timed region and output check of a workload."""

    def __init__(self, workload: Workload, tracer: Tracer, failures: int,
                 peak_rss_mb: float) -> None:
        #: set by a traced run, which reads spans and the trace later;
        #: an untraced run keeps numbers only, so that ten passes do
        #: not pile ten traces and stores onto the heap
        self.workload: Optional[Workload] = None
        self.tracer: Optional[Tracer] = None
        self.setup_s = tracer.stage_s("bench.setup")
        self.wall_s = tracer.stage_s("bench.timed") - workload.check_s
        self.attempted = workload.attempted
        self.failed = workload.attempted - workload.completed + failures
        self.throughput_kops = workload.attempted / workload.replay_s / 1e3
        self.latency_us = workload.latency_us
        self.values = workload.values
        self.peak_rss_mb = peak_rss_mb


def run_pass(name: str, seed: int, sizes: Dict[str, int], tmp_dir: str,
             oracle: Oracle, traced: bool = False, keep: bool = False) -> Pass:
    tracer = Tracer(traced)
    workload = WORKLOADS[name](seed, sizes, tmp_dir, tracer, oracle)
    with tracer.stage("bench.setup"):
        workload.setup()
    try:
        with tracer.stage("bench.timed"):
            workload.timed()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures = workload.check()
    finally:
        workload.teardown()
    done = Pass(workload, tracer, failures, peak_rss_mb)
    if keep:
        done.workload, done.tracer = workload, tracer
    return done


def end_to_end(passes: List[Pass]) -> Dict[str, float]:
    """The run's best pass, metric by metric.

    Interference in the sandbox is one-sided and comes in spells of
    tens of seconds: it only ever slows a pass, often several in a row.
    Over ten runs the best pass repeats two to four times more closely
    than the median pass does, so the best is what a run reports.  The
    memory peak is read after the first pass, before how many passes
    fitted into ``--seconds`` can influence it."""
    return {
        "setup_s": min(p.setup_s for p in passes),
        "wall_s": min(p.wall_s for p in passes),
        "throughput_kops": max(p.throughput_kops for p in passes),
        "op_p50_us": min(p.latency_us[50.0] for p in passes),
        "peak_rss_mb": passes[0].peak_rss_mb,
    }


def per_layer(name: str, plain: Pass, traced: Pass):
    """Layer metrics from one untraced and one traced pass plus the
    ladder, and the ladder's rungs.  Stage times and counters are the
    untraced pass's; only what needs per-op spans comes from the traced
    one."""
    values = {**traced.values, **plain.values}
    workload = traced.workload
    trace = workload.trace
    options = {
        k: v for k, v in workload.replayer_options.items() if k != "service_rate"
    }
    remote = name in m.REMOTE
    rungs = run_ladder(
        trace[: m.LADDER_OPS],
        trace[: m.LADDER_REMOTE_OPS] if remote else None,
        **options,
    )
    values["core.replayer.dispatch_ns_per_op"] = rungs["r0"]
    values["core.replayer.timing_ns_per_op"] = rungs["r1"] - rungs["r0"]
    values["core.replayer.alloc_blocks_per_op"] = rungs["alloc_blocks_per_op"]
    values["core.replayer.op_p99_us"] = plain.latency_us[99.0]
    values["core.replayer.op_p999_us"] = plain.latency_us[99.9]
    values["kvstores.memory.ns_per_op"] = rungs["r2"] - rungs["r1"]
    if remote:
        values["kvstores.remote.hop_ns_per_op"] = rungs["r3"] - rungs["r1_remote"]
    values["bench.trace_overhead_ratio"] = traced.wall_s / plain.wall_s
    # the ladder's top rung, measured on a prefix in this run, against
    # the untraced workload's own ns/op
    untraced_ns = 1e6 / plain.throughput_kops
    top = None
    if name == m.PIPELINE:
        top = rungs["r2"]
    elif remote:
        top = rungs["r4"]
    elif name == m.YCSB:
        start, end, _ = workload.spans.columns()
        top = rungs["r1"] + float((end - start).sum()) / len(trace)
    if top is not None:
        values["bench.ladder_residual_ratio"] = abs(top - untraced_ns) / untraced_ns
    return values, rungs


class WorkloadTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise WorkloadTimeout(f"workload exceeded its {WORKLOAD_CAP_S} s cap")


def pin_to_one_cpu() -> None:
    """Keep the replay thread and the server loop thread on one CPU.

    In the sandbox a wake-up that crosses virtual CPUs costs ~50 us, and
    where the scheduler happens to place the two threads flips a
    ``remote-*`` run between 12 and 27 kops/s.  The two threads alternate
    under the interpreter lock anyway, so one CPU loses no parallelism
    the program had; the highest-numbered one sees the fewest
    interrupts."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def untraced_run(run_one, seconds: float):
    """Passes until their timed regions add up to ``seconds``."""
    passes: List[Pass] = []
    measured = 0.0
    while not passes or measured < seconds:
        passes.append(run_one())
        measured += passes[-1].wall_s
    return passes, m.END_TO_END, end_to_end(passes), {}


def traced_run(run_one, seconds: float, name: str, chrome: Optional[str]):
    """Pairs of one untraced and one traced pass until their timed
    regions add up to half of ``seconds`` (the ladder takes the rest);
    the layer metrics are read from the best pass of each kind."""
    plain: List[Pass] = []
    traced: List[Pass] = []
    measured = 0.0
    while not plain or measured < seconds / 2:
        plain.append(run_one(keep=True))
        traced.append(run_one(traced=True, keep=True))
        measured += plain[-1].wall_s + traced[-1].wall_s
    passes = plain + traced
    best = min(traced, key=lambda p: p.wall_s)
    values, rungs = per_layer(name, min(plain, key=lambda p: p.wall_s), best)
    values["failed_ops_ratio"] = (
        sum(p.failed for p in passes) / sum(p.attempted for p in passes)
    )
    if chrome:
        best.tracer.write_chrome_trace(chrome)
    detail = {"ladder_ns_per_op": rungs, "self_time_s": best.tracer.self_times()}
    return passes, m.PER_LAYER, values, detail


def run_workload(args) -> int:
    """Run one workload here; the result object is the last line."""
    name = args.workload
    started = time.perf_counter()
    pin_to_one_cpu()
    sizes = m.sizes_for(name, args.smoke)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(WORKLOAD_CAP_S)
    tmp_dir = tempfile.mkdtemp(prefix=".bench_tmp_", dir=os.getcwd())
    run_one = functools.partial(run_pass, name, args.seed, sizes, tmp_dir, Oracle())
    try:
        if args.trace:
            outcome = traced_run(run_one, args.seconds, name, args.chrome)
        else:
            outcome = untraced_run(run_one, args.seconds)
    except WorkloadTimeout as exc:
        print(f"{name}: FAILED: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        shutil.rmtree(tmp_dir, ignore_errors=True)
    passes, catalogue, values, detail = outcome
    failed = sum(p.failed for p in passes)
    result = {
        "correct": failed == 0,
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "metrics": m.emit(catalogue, name, values),
    }
    print(f"{name}  seed={args.seed}  passes={len(passes)}  "
          f"ops per pass={passes[0].attempted}  "
          f"({time.perf_counter() - started:.1f} s)")
    for metric, cell in result["metrics"].items():
        print(f"  {metric:<44} {cell['value']:>16.6g} {cell['unit']}")
    if args.out:
        detail.update(result, seed=args.seed, sizes=sizes)
        detail["per_pass"] = [
            {"setup_s": p.setup_s, "wall_s": p.wall_s,
             "throughput_kops": p.throughput_kops,
             **{f"p{k:g}_us": v for k, v in p.latency_us.items()}}
            for p in passes
        ]
        with open(args.out, "w") as handle:
            json.dump(detail, handle)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def env_stanza(args) -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(SUITE_DIR),
        "seed": args.seed,
        "runs": args.runs,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "traced": bool(args.trace),
        "sizes": {name: m.sizes_for(name, args.smoke) for name in m.WORKLOAD_NAMES},
    }


def run_suite(args) -> int:
    """Every workload, ``--runs`` times each with consecutive seeds,
    one subprocess per run."""
    results: Dict[str, List[dict]] = {name: [] for name in m.WORKLOAD_NAMES}
    ok = True
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=os.getcwd()) as tmp_dir:
        for run in range(args.runs):
            for name in m.WORKLOAD_NAMES:
                out = os.path.join(tmp_dir, "run.json")
                command = [
                    sys.executable, os.path.join(SUITE_DIR, "run.py"),
                    "--workload", name, "--seed", str(args.seed + run),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--out", out,
                ]
                if args.smoke:
                    command.append("--smoke")
                if args.chrome:
                    command += ["--chrome", f"{args.chrome}.{name}.json"]
                try:
                    done = subprocess.run(
                        command, stdout=subprocess.PIPE, text=True,
                        timeout=WORKLOAD_CAP_S + 30,
                    )
                except subprocess.TimeoutExpired:
                    print(f"{name}: FAILED: no result after {WORKLOAD_CAP_S + 30} s")
                    ok = False
                    continue
                # everything but the machine-readable last line
                print(done.stdout.rsplit("\n", 2)[0])
                if done.returncode != 0 or not os.path.exists(out):
                    print(f"{name}: FAILED: exit code {done.returncode}")
                    ok = False
                    continue
                with open(out) as handle:
                    results[name].append(json.load(handle))
                os.remove(out)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"env": env_stanza(args), "workloads": results}, handle, indent=1)
            handle.write("\n")
        print(f"wrote {args.out}")
    print("ok" if ok else "FAILED")
    return 0 if ok else 1


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="benchmarks/suite/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", choices=m.WORKLOAD_NAMES,
                        help="run this workload in this process (default: all, "
                             "one subprocess each)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed passes repeat until their timed regions add "
                             "up to this (default: BENCHMARK.json's run_seconds; "
                             "one pass under --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: untraced and traced passes in pairs plus the "
                             "ladder, printing the per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="every input shrunk ~50x")
    parser.add_argument("--runs", type=int, default=1,
                        help="without --workload: runs per workload, seeds "
                             "SEED, SEED+1, ...")
    parser.add_argument("--out", help="write the results as JSON to this file")
    parser.add_argument("--chrome", help="with --trace 1: write sampled spans as "
                                         "Chrome trace-event JSON to this file")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0 if args.smoke else default_seconds()
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.workload:
        return run_workload(args)
    return run_suite(args)
