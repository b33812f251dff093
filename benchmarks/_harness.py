"""Shared boilerplate for the ``bench_*.py`` scripts.

Every benchmark repeats the same scaffolding: make ``src/`` importable
when run as a plain script, parse ``--smoke`` (CI runs the full
pipeline on shrunken inputs), aggregate repetitions by median, stamp
the environment block, spell out the 1-CPU caveat, and write
``BENCH_<name>.json`` next to the repo root.  That scaffolding lives
here once; the benchmarks keep only what they actually measure.

Importing this module has the side effect of putting ``src/`` on
``sys.path`` -- it must be the first repo import in every benchmark.
"""

from __future__ import annotations

import json
import os
import platform
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

#: smoke mode shrinks every input so CI can validate the pipeline
SMOKE = "--smoke" in sys.argv


def scaled(full: int, smoke: int) -> int:
    """Pick the full-size or smoke-size value for a tunable."""
    return smoke if SMOKE else full


def median_run(runner, reps: int, key: str = "throughput_kops") -> dict:
    """Run ``runner()`` ``reps`` times, return the median cell by ``key``.

    Single runs are noisy (flush/compaction alignment, scheduler
    jitter); the median of an odd number of reps is stable.  ``key``
    selects the aggregation axis: throughput for unpaced replays, p99
    for paced ones where pacing pins throughput.
    """
    runs = [runner() for _ in range(reps)]
    runs.sort(key=lambda r: r[key])
    return runs[len(runs) // 2]


def env_block() -> dict:
    """The ``env`` stanza every BENCH json carries."""
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "smoke": SMOKE,
    }


def one_cpu_note(detail: str) -> str:
    """The honest-measurement caveat, with a bench-specific tail.

    Stamps the CPU count the run saw: client, server threads and
    stores share those cores (and the GIL), so relative orderings and
    mechanisms are meaningful while absolute numbers belong to the
    machine that measured them.
    """
    return (
        f"MEASURED ON {os.cpu_count()} CPU(S). {detail} Absolute figures "
        f"are not comparable across machines."
    )


def write_bench(name: str, results: dict) -> str:
    """Write ``BENCH_<name>.json`` at the repo root; returns the path.

    Stamps a ``run`` stanza (schema version, monotonically-derived run
    id, git SHA) so the file joins the results-lake trajectory;
    ``repro lake import`` also accepts legacy unstamped files.  With
    ``REPRO_LAKE`` set, the file is additionally appended to that lake
    -- failures there warn rather than discard a finished measurement.
    """
    from repro.lake import RECORD_SCHEMA_VERSION, git_sha, next_run_id

    results = dict(results)
    results["run"] = {
        "schema": RECORD_SCHEMA_VERSION,
        "run_id": next_run_id(),
        "git_sha": git_sha(REPO_ROOT),
        "bench": name,
    }
    path = os.path.join(REPO_ROOT, f"BENCH_{name}.json")
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {path}")
    lake_dir = os.environ.get("REPRO_LAKE")
    if lake_dir:
        try:
            from repro.lake import ResultsLake, ingest_bench, lake_path

            lake = ResultsLake(lake_path(lake_dir))
            rows = ingest_bench(lake, path)
            print(f"appended {rows} rows to lake {lake_dir}")
        except Exception as exc:  # noqa: BLE001 - results already on disk
            print(f"warning: lake append failed: {exc}", file=sys.stderr)
    return path
