"""Mode-matrix goldens: every execution mode of ``repro replay`` and
``repro compare`` on one seeded trace, pinned by what it appends to
the results lake.

Each case runs the CLI with ``--lake DIR`` and pins the exit status
plus every non-timing column of the appended rows (store label,
workload, batch/pipeline settings, fault and retry counts, recovery
and integrity outcomes, compaction, cluster topology, failovers,
series path, fault-plan label) and the record's key set.  Throughput,
latency percentiles, recovery/scrub/lag times and the write-stall
columns are timing and are left out.  The goldens were recorded
before the replay paths were unified behind ``RunSpec``; every mode
must still be the same computation.
"""

import os

import pytest

from repro.cli import main
from repro.lake import ResultsLake, lake_path

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "..", "configs")
FAULTS = os.path.join(CONFIGS, "faults.json")
DISK = os.path.join(CONFIGS, "disk_faults.json")
CHAOS = os.path.join(CONFIGS, "chaos.json")

THREE = ["--stores", "memory", "rocksdb", "faster"]

#: argv after ``<command> <trace>`` for every mode
MODES = {
    "replay-plain": ["replay", "--store", "rocksdb"],
    "compare-plain": ["compare", *THREE],
    "replay-faults": ["replay", "--store", "rocksdb", "--faults", FAULTS],
    "compare-faults": ["compare", *THREE, "--faults", FAULTS],
    "replay-batch": ["replay", "--store", "rocksdb", "--batch", "16"],
    "compare-batch": ["compare", *THREE, "--batch", "16"],
    "replay-pipeline": ["replay", "--store", "memory", "--pipeline", "8"],
    "compare-pipeline": ["compare", *THREE, "--pipeline", "8"],
    "replay-shards": ["replay", "--store", "rocksdb", "--shards", "2"],
    "replay-processes": [
        "replay", "--store", "memory", "--shards", "2", "--processes",
    ],
    "replay-crash": ["replay", "--store", "rocksdb", "--crash-at", "1000"],
    "compare-crash": ["compare", *THREE, "--crash-at", "1000"],
    "replay-crash-disk": [
        "replay", "--store", "rocksdb", "--crash-at", "1000",
        "--disk-faults", DISK,
    ],
    "compare-crash-disk": [
        "compare", *THREE, "--crash-at", "1000", "--disk-faults", DISK,
    ],
    "compare-disk": ["compare", *THREE, "--disk-faults", DISK],
    "replay-compaction": [
        "replay", "--store", "rocksdb", "--compaction", "tiered",
    ],
    "compare-compaction": [
        "compare", "--stores", "rocksdb", "--compaction", "leveled", "tiered",
    ],
    "replay-background": ["replay", "--store", "rocksdb", "--background"],
    "compare-background": [
        "compare", "--stores", "rocksdb", "--compaction", "tiered",
        "--background",
    ],
    "replay-cluster": ["replay", "--store", "memory", "--cluster", "2"],
    "compare-cluster": [
        "compare", "--stores", "memory", "rocksdb", "--cluster", "2",
    ],
    "replay-chaos": [
        "replay", "--store", "memory", "--cluster", "2", "--chaos", CHAOS,
    ],
    "compare-chaos": [
        "compare", "--stores", "memory", "--cluster", "2", "--chaos", CHAOS,
    ],
}

PINNED = (
    "store", "workload", "batch_size", "pipeline_depth", "injected_faults",
    "retries", "failed_ops", "wal_replayed", "recovered_ok",
    "corruptions_detected", "corruptions_repaired",
    "corruptions_unrecoverable", "compaction", "cluster", "failovers",
    "timeseries_path", "fault_plan",
)

#: every appended record carries exactly these keys, in every mode
RECORD_KEYS = sorted([
    "batch_size", "cluster", "compaction", "corruptions_detected",
    "corruptions_repaired", "corruptions_unrecoverable", "failed_ops",
    "failovers", "fault_plan", "git_sha", "injected_faults", "p50_us",
    "p999_us", "p99_us", "pipeline_depth", "record_schema",
    "recovered_ok", "recovery_ms", "replication_lag_ms", "retries",
    "run_id", "schema", "scrub_ms", "source", "stall_ms", "store",
    "throughput_kops", "timeseries_path", "ts", "wal_replayed",
    "workload", "write_stalls",
])


def run_mode(mode, trace, lake_dir):
    """(exit status, pinned rows, record key set) of one mode."""
    command, *rest = MODES[mode]
    try:
        status = main([command, trace, *rest, "--lake", lake_dir])
    except SystemExit as exc:
        status = exc.code
    lake = ResultsLake(lake_path(lake_dir), create=False)
    runs = lake.scan("runs")
    count = len(runs["store"])
    rows = [
        {
            name: ("TRACE" if runs[name][i] == trace else runs[name][i])
            for name in PINNED
        }
        for i in range(count)
    ]
    return status, rows, sorted(lake.columns("runs"))


def _row(store, workload="TRACE", **columns):
    row = {
        "store": store, "workload": workload, "batch_size": 1,
        "pipeline_depth": 1, "injected_faults": 0, "retries": 0,
        "failed_ops": 0, "wal_replayed": None, "recovered_ok": None,
        "corruptions_detected": None, "corruptions_repaired": None,
        "corruptions_unrecoverable": None, "compaction": None,
        "cluster": None, "failovers": None, "timeseries_path": None,
        "fault_plan": "none",
    }
    row.update(columns)
    return row


EXPECTED = {
    "replay-plain": (0, [
        _row("rocksdb"),
    ]),
    "compare-plain": (0, [
        _row("memory"),
        _row("rocksdb"),
        _row("faster"),
    ]),
    "replay-faults": (0, [
        _row("rocksdb", injected_faults=56, retries=48, fault_plan="seed=42"),
    ]),
    "compare-faults": (0, [
        _row("memory", injected_faults=56, retries=48, fault_plan="seed=42"),
        _row("rocksdb", injected_faults=56, retries=48, fault_plan="seed=42"),
        _row("faster", injected_faults=56, retries=48, fault_plan="seed=42"),
    ]),
    "replay-batch": (0, [
        _row("rocksdb", batch_size=16),
    ]),
    "compare-batch": (0, [
        _row("memory", batch_size=16),
        _row("rocksdb", batch_size=16),
        _row("faster", batch_size=16),
    ]),
    "replay-pipeline": (0, [
        _row("memory", pipeline_depth=8),
    ]),
    "compare-pipeline": (0, [
        _row("memory", pipeline_depth=8),
        _row("rocksdb", pipeline_depth=8),
        _row("faster", pipeline_depth=8),
    ]),
    "replay-shards": (0, [
        _row("rocksdbx2"),
    ]),
    "replay-processes": (0, [
        _row("memoryx2"),
    ]),
    "replay-crash": (0, [
        _row("rocksdb",
             injected_faults=1,
             wal_replayed=500,
             recovered_ok=True),
    ]),
    "compare-crash": (0, [
        _row("rocksdb",
             injected_faults=1,
             wal_replayed=500,
             recovered_ok=True),
    ]),
    "replay-crash-disk": (0, [
        _row("rocksdb",
             injected_faults=1,
             wal_replayed=500,
             recovered_ok=True,
             corruptions_detected=0,
             corruptions_repaired=0),
    ]),
    "compare-crash-disk": (0, [
        _row("rocksdb",
             injected_faults=1,
             wal_replayed=500,
             recovered_ok=True,
             corruptions_detected=0,
             corruptions_repaired=0),
    ]),
    "compare-disk": (0, [
        _row("memory",
             corruptions_detected=0,
             corruptions_repaired=0,
             corruptions_unrecoverable=0),
        _row("rocksdb",
             corruptions_detected=1,
             corruptions_repaired=0,
             corruptions_unrecoverable=1),
        _row("faster",
             corruptions_detected=0,
             corruptions_repaired=0,
             corruptions_unrecoverable=0),
    ]),
    "replay-compaction": (0, [
        _row("rocksdb", compaction="tiered"),
    ]),
    "compare-compaction": (0, [
        _row("rocksdb", compaction="leveled"),
        _row("rocksdb", compaction="tiered"),
    ]),
    "replay-background": (0, [
        _row("rocksdb"),
    ]),
    "compare-background": (0, [
        _row("rocksdb", compaction="tiered"),
    ]),
    "replay-cluster": (0, [
        _row("memory", recovered_ok=True, cluster="2x2@all", failovers=0),
    ]),
    "compare-cluster": (0, [
        _row("memory", recovered_ok=True, cluster="2x2@all", failovers=0),
        _row("rocksdb", recovered_ok=True, cluster="2x2@all", failovers=0),
    ]),
    "replay-chaos": (0, [
        _row("memory", recovered_ok=True, cluster="2x2@all", failovers=0),
    ]),
    "compare-chaos": (0, [
        _row("memory", recovered_ok=True, cluster="2x2@all", failovers=0),
    ]),
}


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("modes") / "t.gdgt")
    assert main([
        "generate", "-w", "tumbling-incremental", "-o", path,
        "--events", "1000", "--seed", "11",
    ]) == 0
    return path


@pytest.mark.parametrize("mode", sorted(MODES))
def test_mode_matrix(mode, trace_path, tmp_path, capsys):
    status, rows, keys = run_mode(mode, trace_path, str(tmp_path / "lake"))
    capsys.readouterr()
    expected_status, expected_rows = EXPECTED[mode]
    assert status == expected_status
    assert rows == expected_rows
    assert keys == RECORD_KEYS
