"""Guard table: every flag combination ``repro replay`` and ``repro
compare`` refuse, with its exit status and the first line of its
``error:`` message.

Recorded before the replay paths were unified behind ``RunSpec``; a
rejected combination must stay rejected, with the same status and the
same words.  A guard that raises ``SystemExit("error: ...")`` exits 1;
one that prints to stderr and returns exits with that code.
"""

import json
import os

import pytest

from repro.cli import main

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "..", "configs")
FAULTS = os.path.join(CONFIGS, "faults.json")
DISK = os.path.join(CONFIGS, "disk_faults.json")
CHAOS = os.path.join(CONFIGS, "chaos.json")

#: (argv after the trace path, exit status, first line of the error)
GUARDS = {
    "replay-cluster-shards": (
        ["replay", "--store", "memory", "--cluster", "2", "--shards", "2"],
        1,
        "error: --cluster is its own fan-out (N partitioned server chains); "
        "drop --shards/--processes",
    ),
    "replay-cluster-faults": (
        ["replay", "--store", "memory", "--cluster", "2", "--faults", FAULTS],
        1,
        "error: cluster replays take fault injection from --chaos (topology "
        "events); --faults/--crash-at/--disk-faults are single-node axes",
    ),
    "replay-compaction-non-lsm": (
        ["replay", "--store", "memory", "--compaction", "tiered"],
        1,
        "error: --compaction/--background tune the LSM family only "
        "(rocksdb, lethe); store 'memory' has no compaction pipeline",
    ),
    "compare-compaction-config-unknown-key": (
        ["compare", "--compaction-config", "{unknown_key}"],
        1,
        "error: unknown compaction-config keys: polices (expected policies, "
        "background, stores, store_overrides)",
    ),
    "compare-compaction-config-unknown-policy": (
        ["compare", "--compaction-config", "{unknown_policy}"],
        1,
        "error: unknown compaction policies: bogus; expected one of "
        "leveled, tiered, universal",
    ),
    "replay-batch-pipeline": (
        ["replay", "--store", "memory", "--batch", "4", "--pipeline", "4"],
        1,
        "error: --batch and --pipeline are alternative round-trip "
        "amortizations; pick one",
    ),
    "compare-batch-pipeline": (
        ["compare", "--stores", "memory", "--batch", "4", "--pipeline", "4"],
        1,
        "error: --batch and --pipeline are alternative round-trip "
        "amortizations; pick one",
    ),
    "replay-processes-pipeline": (
        ["replay", "--store", "memory", "--shards", "2", "--processes",
         "--pipeline", "4"],
        1,
        "error: --pipeline requires threads; --processes workers replay "
        "synchronously",
    ),
    "replay-crash-pipeline": (
        ["replay", "--store", "rocksdb", "--crash-at", "100",
         "--pipeline", "4"],
        1,
        "error: --crash-at stops the replay at an exact op index; a "
        "pipelined window makes that point ambiguous -- drop --pipeline",
    ),
    "compare-disk-pipeline": (
        ["compare", "--stores", "rocksdb", "--disk-faults", DISK,
         "--pipeline", "4"],
        1,
        "error: disk-fault runs replay embedded stores synchronously; drop "
        "--pipeline",
    ),
    "replay-chaos-without-cluster": (
        ["replay", "--store", "memory", "--chaos", CHAOS],
        1,
        "error: --chaos needs a cluster (--cluster N or --cluster-config) "
        "to aim its kills at",
    ),
    "replay-crash-shards": (
        ["replay", "--store", "rocksdb", "--crash-at", "100",
         "--shards", "2"],
        1,
        "error: --crash-at does not combine with --shards/--processes",
    ),
    "replay-crash-metrics": (
        ["replay", "--store", "rocksdb", "--crash-at", "100",
         "--metrics", "{tmp}/m.jsonl"],
        1,
        "error: --crash-at runs several replays (reference, doomed, "
        "resumed); only --trace records it, as one span timeline",
    ),
    "replay-crash-unrecoverable-store": (
        ["replay", "--store", "memory", "--crash-at", "100"],
        2,
        "error: store 'memory' does not support crash recovery (no durable "
        "WAL + recover() path); recoverable stores: rocksdb, lethe",
    ),
    "replay-disk-without-crash": (
        ["replay", "--store", "rocksdb", "--disk-faults", DISK],
        1,
        "error: replay only uses --disk-faults together with --crash-at; "
        "use 'repro scrub' or 'repro compare' for disk-fault runs",
    ),
    "replay-processes-trace": (
        ["replay", "--store", "memory", "--shards", "2", "--processes",
         "--trace", "{tmp}/t.json"],
        1,
        "error: --processes supports --metrics only; span traces and the "
        "live progress view need in-process telemetry",
    ),
    "compare-chaos-without-cluster": (
        ["compare", "--stores", "memory", "--chaos", CHAOS],
        1,
        "error: --chaos needs a cluster (--cluster N or --cluster-config) "
        "to aim its kills at",
    ),
    "compare-crash-metrics": (
        ["compare", "--stores", "rocksdb", "--crash-at", "100",
         "--metrics", "{tmp}/series"],
        1,
        "error: --metrics records the performance comparison only; drop "
        "--crash-at/--disk-faults/--compaction or record those runs with "
        "'repro replay --trace'",
    ),
    "compare-compaction-faults": (
        ["compare", "--stores", "rocksdb", "--compaction", "tiered",
         "--faults", FAULTS],
        1,
        "error: the --compaction sweep measures clean replays; drop "
        "--faults/--crash-at/--disk-faults",
    ),
    "compare-compaction-pipeline": (
        ["compare", "--stores", "rocksdb", "--compaction", "tiered",
         "--pipeline", "4"],
        1,
        "error: the --compaction sweep runs embedded LSM stores (no round "
        "trips to overlap); drop --pipeline",
    ),
    "compare-background-without-compaction": (
        ["compare", "--stores", "rocksdb", "--background"],
        1,
        "error: --background needs --compaction (or --compaction-config) "
        "on compare; for a single background run use 'repro replay "
        "--background'",
    ),
    "compare-crash-no-recoverable-store": (
        ["compare", "--stores", "memory", "faster", "--crash-at", "100"],
        2,
        "error: none of the requested stores (memory, faster) support "
        "crash recovery (no durable WAL + recover() path); recoverable "
        "stores: rocksdb, lethe",
    ),
    "compare-cluster-faults": (
        ["compare", "--stores", "memory", "--cluster", "2",
         "--faults", FAULTS],
        1,
        "error: cluster comparisons take fault injection from --chaos; "
        "--faults/--crash-at/--disk-faults are single-node axes",
    ),
    "compare-cluster-compaction": (
        ["compare", "--stores", "memory", "--cluster", "2",
         "--compaction", "tiered"],
        1,
        "error: --cluster does not combine with the compaction sweep",
    ),
    "compare-cluster-metrics": (
        ["compare", "--stores", "memory", "--cluster", "2",
         "--metrics", "{tmp}/series"],
        1,
        "error: record cluster metrics with 'repro replay --cluster "
        "--metrics FILE' (one fleet per file); compare --metrics covers "
        "single-node rows only",
    ),
    "compare-compaction-no-lsm-store": (
        ["compare", "--stores", "memory", "faster", "--compaction", "tiered"],
        2,
        "error: none of the requested stores (memory, faster) have a "
        "compaction pipeline; LSM stores: rocksdb, lethe",
    ),
}


def run_cli(argv, capsys):
    """(exit status, first ``error:`` line) of one CLI invocation."""
    capsys.readouterr()
    try:
        status = main(argv)
        stderr = capsys.readouterr().err
    except SystemExit as exc:
        stderr = capsys.readouterr().err
        if isinstance(exc.code, str):
            status, stderr = 1, exc.code + "\n" + stderr
        else:
            status = exc.code
    errors = [line for line in stderr.splitlines() if line.startswith("error:")]
    return status, errors[0] if errors else None


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("guards") / "t.gdgt")
    main([
        "generate", "-w", "tumbling-incremental", "-o", path,
        "--events", "300",
    ])
    return path


@pytest.mark.parametrize("case", sorted(GUARDS))
def test_guard(case, trace_path, tmp_path, capsys):
    argv, status, message = GUARDS[case]
    unknown_key = tmp_path / "unknown-key.json"
    unknown_key.write_text(json.dumps({"polices": ["leveled"]}))
    unknown_policy = tmp_path / "unknown-policy.json"
    unknown_policy.write_text(json.dumps({"policies": ["bogus"]}))
    names = {
        "tmp": str(tmp_path), "unknown_key": str(unknown_key),
        "unknown_policy": str(unknown_policy),
    }
    command, *rest = argv
    rest = [arg.format(**names) for arg in rest]
    assert run_cli([command, trace_path, *rest], capsys) == (status, message)


def test_every_guard_site_has_a_case():
    # 22 raise-SystemExit guards and 3 return-2 guards, plus the shared
    # --batch/--pipeline guard pinned on compare as well as replay
    assert len(GUARDS) == 25 + 1
