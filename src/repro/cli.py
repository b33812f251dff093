"""Command-line interface to the Gadget harness.

Mirrors the workflow of the original tool's config-file driven binary::

    python -m repro workloads
    python -m repro generate -w tumbling-incremental -o trace.gdgt \
        --dataset borg --events 20000
    python -m repro analyze trace.gdgt
    python -m repro replay trace.gdgt --store rocksdb
    python -m repro compare trace.gdgt --stores rocksdb faster
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import List, Optional, Sequence

from .analysis import (
    average_stack_distance,
    composition_of,
    recommend_cache_size,
    render_table,
    total_unique_sequences,
    ttl_percentiles,
    working_set_over_time,
)
from .core import (
    DEFAULT_STORES,
    EvaluationRow,
    Gadget,
    GadgetConfig,
    KeyConfig,
    PerformanceEvaluator,
    RunSpec,
    SourceConfig,
    TraceReplayer,
    WORKLOADS,
)
from .datasets import (
    AzureConfig,
    BorgConfig,
    TaxiConfig,
    generate_azure,
    generate_borg,
    generate_taxi,
)
from .core.evaluator import UsageError, runs_on
from .kvstores import STORE_NAMES
from .kvstores.lsm import POLICY_NAMES
from .trace import AccessTrace


def _build_sources(args) -> List:
    """Materialize the harness input streams from CLI options."""
    spec = WORKLOADS[args.workload]
    if args.dataset == "synthetic":
        source = SourceConfig(
            num_events=args.events,
            keys=KeyConfig(num_keys=args.keys, distribution=args.key_dist),
            watermark_frequency=args.watermark_frequency,
            seed=args.seed,
        )
        if spec.num_inputs == 1:
            return [source]
        second = SourceConfig(
            num_events=args.events // 2,
            keys=KeyConfig(num_keys=args.keys, distribution=args.key_dist),
            watermark_frequency=args.watermark_frequency,
            seed=args.seed + 1,
        )
        return [source, second]
    if args.dataset == "borg":
        tasks, jobs = generate_borg(
            BorgConfig(target_events=args.events, seed=args.seed)
        )
        return [tasks] if spec.num_inputs == 1 else [tasks, jobs]
    if args.dataset == "taxi":
        trips, fares = generate_taxi(
            TaxiConfig(target_events=args.events, seed=args.seed)
        )
        return [trips] if spec.num_inputs == 1 else [trips, fares]
    if args.dataset == "azure":
        if spec.num_inputs != 1:
            raise SystemExit(
                "error: Azure is a single stream; joins cannot run on it "
                "(same restriction as the paper)"
            )
        return [generate_azure(AzureConfig(target_events=args.events, seed=args.seed))]
    raise SystemExit(f"error: unknown dataset {args.dataset!r}")


def cmd_workloads(args) -> int:
    rows = [
        [spec.name, spec.num_inputs, spec.description]
        for spec in WORKLOADS.values()
    ]
    print(render_table(["name", "inputs", "description"], rows,
                       title="predefined Gadget workloads"))
    return 0


def cmd_generate(args) -> int:
    if args.config:
        from .core.configfile import gadget_from_config

        gadget = gadget_from_config(args.config)
    else:
        if not args.workload:
            raise SystemExit("error: provide --workload or --config")
        sources = _build_sources(args)
        gadget = Gadget(args.workload, sources, GadgetConfig(interleave="time"))
    trace = gadget.generate()
    trace.save(args.output)
    comp = composition_of(trace)
    print(f"wrote {len(trace)} accesses ({trace.distinct_keys()} state keys) "
          f"to {args.output}")
    print(f"composition: get={comp.get:.3f} put={comp.put:.3f} "
          f"merge={comp.merge:.3f} delete={comp.delete:.3f}")
    return 0


def cmd_analyze(args) -> int:
    trace = AccessTrace.load(args.trace)
    comp = composition_of(trace)
    sizes = [s for _, s in working_set_over_time(trace, 100)]
    ttl = ttl_percentiles(trace)
    keys = trace.key_sequence()
    rows = [
        ["operations", len(trace)],
        ["distinct keys", trace.distinct_keys()],
        ["class", comp.classify()],
        ["get / put / merge / delete",
         f"{comp.get:.3f} / {comp.put:.3f} / {comp.merge:.3f} / {comp.delete:.3f}"],
        ["avg stack distance", round(average_stack_distance(keys), 1)],
        ["unique sequences (<=10)", total_unique_sequences(keys, 10)],
        ["peak working set", max(sizes) if sizes else 0],
        ["final working set", sizes[-1] if sizes else 0],
        ["TTL p50 / p90 / max",
         f"{ttl['p50']:.0f} / {ttl['p90']:.0f} / {ttl['max']:.0f}"],
    ]
    recommendation = recommend_cache_size(trace, args.target_hit_ratio)
    if recommendation is not None:
        rows.append(
            [f"cache for {args.target_hit_ratio:.0%} hits",
             f"{recommendation.cache_keys} keys "
             f"(~{recommendation.cache_bytes} bytes)"]
        )
    print(render_table(["metric", "value"], rows,
                       title=f"analysis of {args.trace}"))
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _cluster_requested(args) -> bool:
    return bool(args.cluster or args.cluster_config)


def _cluster_config(args):
    """Resolve --cluster/--replicas/--ack/--cluster-config into a
    ClusterConfig.  Explicit flags win over the config file, which wins
    over --store."""
    from .cluster import ClusterConfig, load_cluster_config

    base = (load_cluster_config(args.cluster_config).to_dict()
            if args.cluster_config else {})
    base.setdefault("store", getattr(args, "store", "memory"))
    if args.cluster:
        base["partitions"] = args.cluster
    if args.replicas is not None:
        base["replicas"] = args.replicas
    if args.ack is not None:
        base["ack"] = args.ack
    return ClusterConfig.from_dict(base)


def _spec_from_args(args, compaction=None, background=False) -> RunSpec:
    """Resolve replay/compare flags into the RunSpec they describe.

    A flag the chosen mode would drop (a RunSpec ``UsageError``, or
    --ack/--replicas without a cluster, which never reach the spec)
    exits 2, like argparse's own usage errors; any other combination
    RunSpec rejects exits 1 with its message."""
    from .faults import ClusterFaultPlan, DiskFaultPlan, FaultPlan, RetryPolicy

    clustered = _cluster_requested(args)
    wants_retry = clustered or args.faults or args.crash_at is not None
    try:
        if not clustered and (args.ack is not None
                              or args.replicas is not None):
            raise UsageError("--ack/--replicas shape a cluster; add "
                             "--cluster N or --cluster-config")
        return RunSpec(
            service_rate=getattr(args, "service_rate", None),
            fault_plan=FaultPlan.load(args.faults) if args.faults else None,
            retry_policy=(RetryPolicy(max_attempts=args.retry_attempts)
                          if wants_retry and not args.no_retry else None),
            batch_size=args.batch,
            pipeline_depth=args.pipeline,
            crash_at=args.crash_at,
            disk_plan=(DiskFaultPlan.load(args.disk_faults)
                       if args.disk_faults else None),
            shards=getattr(args, "shards", 1),
            processes=getattr(args, "processes", False),
            storage_root=getattr(args, "storage_root", None),
            cluster=_cluster_config(args) if clustered else None,
            chaos=ClusterFaultPlan.load(args.chaos) if args.chaos else None,
            compaction=compaction,
            background=background,
        )
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _keep_lsm(stores: List[str], lacking: str, note: str) -> List[str]:
    """The LSM-family stores among ``stores``; reports the rest on
    stderr (an ``error:`` when none are left)."""
    from .faults import RECOVERABLE_STORES

    kept = [s for s in stores if s in RECOVERABLE_STORES]
    skipped = [s for s in stores if s not in RECOVERABLE_STORES]
    if not kept:
        print(f"error: none of the requested stores ({', '.join(stores)}) "
              f"{lacking}: {', '.join(RECOVERABLE_STORES)}", file=sys.stderr)
    elif skipped:
        print(f"note: skipping {', '.join(skipped)}: {note}", file=sys.stderr)
    return kept


def _yes(ok) -> str:
    return "yes" if ok else "NO"


def _cluster_rows(result) -> List[List]:
    summary = result.replay.summary()
    rows = [
        ["cluster", result.cluster],
        ["backing store", result.store],
        ["operations", result.operations],
        ["throughput (kops)", round(summary["throughput_kops"], 1)],
        ["p50 (us)", round(summary["p50_us"], 1)],
        ["p99 (us)", round(summary["p99_us"], 1)],
        ["p99.9 (us)", round(summary["p99.9_us"], 1)],
        ["failovers", result.failovers],
        ["chain repairs", result.chain_repairs],
        ["recovery (ms, slowest repair)", round(result.recovery_ms, 3)],
        ["lost-ack window (ops)", result.lost_ack_window],
        ["replication lag (ms, max)", round(result.replication_lag_ms, 3)],
        ["kills / restarts / isolations",
         f"{result.kills} / {result.restarts} / {result.isolations}"],
        ["keys verified", result.keys_checked],
        ["mismatches", result.mismatches],
        ["recovered ok", _yes(result.recovered_ok)],
    ]
    if result.actions_executed:
        fired = ", ".join(f"{action}@{at}:{target}"
                          for at, action, target in result.actions_executed)
        rows.insert(13, ["chaos actions fired", fired])
    if result.actions_skipped:
        skipped = ", ".join(f"{action}@{at}:{target}"
                            for at, action, target in result.actions_skipped)
        rows.insert(14, ["chaos actions skipped", skipped])
    return rows


def _recovery_rows(result) -> List[List]:
    rows = [
        ["store", result.store],
        ["crash at op", result.crash_at],
        ["operations (pre + resumed)", result.operations],
        ["recovery time (ms)", round(result.recovery_ms, 3)],
        ["WAL records replayed", result.wal_records_replayed],
        ["keys verified", result.keys_checked],
        ["mismatches", result.mismatches],
        ["recovered ok", _yes(result.recovered_ok)],
        ["pre-crash throughput (kops)",
         round(result.pre_crash.throughput_ops / 1000.0, 1)],
        ["resumed throughput (kops)",
         round(result.resumed.throughput_ops / 1000.0, 1)],
    ]
    if result.disk_faults is not None:
        rows += [
            ["disk faults injected", result.disk_faults.faults_injected],
            ["corruptions detected", result.corruptions_detected],
            ["corruptions repaired", result.corruptions_repaired],
            ["scrub (ms)", round(result.scrub_ms or 0.0, 3)],
        ]
    return rows


def _replay_rows(args, spec: RunSpec, row: EvaluationRow, result) -> List[List]:
    """The metric table of a plain or sharded replay."""
    sharded = not spec.single_connector
    label = args.store
    if sharded:
        label += f" x{spec.shards} {'processes' if spec.processes else 'shards'}"
    rows = [
        ["store", label],
        ["batch size", row.batch_size],
        ["pipeline depth", row.pipeline_depth],
        ["operations", result.operations],
        [f"{'aggregate ' if sharded else ''}throughput (kops)",
         round(row.throughput_kops, 1)],
        ["p50 (us)", round(row.p50_us, 1)],
        ["p99 (us)", round(row.p99_us, 1)],
        ["p99.9 (us)", round(row.p999_us, 1)],
    ]
    if spec.compaction or spec.background:
        rows.insert(1, ["compaction", f"{spec.compaction or 'leveled'}"
                        f"{' (background)' if spec.background else ''}"])
        if spec.background:
            rows += [["write stalls", row.write_stalls],
                     ["stall time (ms)", row.stall_ms]]
    if spec.fault_plan is not None:
        rows += [["faults injected", row.injected_faults],
                 ["retries", row.retries], ["failed ops", row.failed_ops]]
    if sharded:
        rows += [[f"shard {index} ops", shard.operations]
                 for index, shard in enumerate(result.shard_results)]
    return rows


def _telemetry_options(args):
    """Resolve --trace / --metrics / --progress into a ReplayTelemetry
    (or None when no recording was requested)."""
    if not (args.trace_out or args.metrics or args.progress):
        return None
    from .obs import ReplayTelemetry

    return ReplayTelemetry(
        trace_path=args.trace_out,
        metrics_path=args.metrics,
        progress_stream=sys.stderr if args.progress else None,
        interval_ms=args.metrics_interval_ms,
        meta={
            "trace": args.trace,
            "batch": args.batch or 1,
            "pipeline": args.pipeline or 1,
        },
    )


def _telemetry_note(args) -> None:
    if args.trace_out:
        print(f"wrote span trace to {args.trace_out} "
              f"(load in Perfetto / chrome://tracing)")
    if args.metrics:
        print(f"wrote metrics time series to {args.metrics} "
              f"(inspect with 'repro metrics summarize')")


def cmd_replay(args) -> int:
    from .faults import RECOVERABLE_STORES

    trace = AccessTrace.load(args.trace)
    spec = _spec_from_args(args, args.compaction, args.background)
    store = spec.cluster.store if spec.cluster is not None else args.store
    if spec.disk_plan is not None and spec.crash_at is None:
        raise SystemExit(
            "error: replay only uses --disk-faults together with "
            "--crash-at; use 'repro scrub' or 'repro compare' for "
            "disk-fault runs"
        )
    if spec.crash_at is not None and store not in RECOVERABLE_STORES:
        print(
            f"error: store {store!r} does not support crash recovery "
            f"(no durable WAL + recover() path); recoverable stores: "
            f"{', '.join(RECOVERABLE_STORES)}",
            file=sys.stderr,
        )
        return 2
    evaluator = PerformanceEvaluator(stores=(store,), lake_dir=args.lake)
    try:
        row, result = evaluator.run(
            store, args.trace, trace, spec, telemetry=_telemetry_options(args)
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    if spec.cluster is not None:
        rows, title = _cluster_rows(result), "cluster replay result"
    elif spec.crash_at is not None:
        rows, title = _recovery_rows(result), "crash-recovery result"
    else:
        rows = _replay_rows(args, spec, row, result)
        title = ("replay result" if spec.single_connector
                 else "sharded replay result")
    print(render_table(["metric", "value"], rows, title=title))
    count = evaluator.record([row], spec.fault_plan)
    if count:
        print(f"appended {count} rows to lake {args.lake}")
    _telemetry_note(args)
    return 0 if row.recovered_ok is not False else 1


def cmd_ycsb(args) -> int:
    from .ycsb import YCSBWorkload
    from .ycsb.properties import load_workload_file

    if args.properties:
        workload = load_workload_file(args.properties, seed=args.seed)
    else:
        workload = YCSBWorkload.core(
            args.preset,
            record_count=args.records,
            operation_count=args.operations,
            seed=args.seed,
        )
    trace = workload.generate()
    trace.save(args.output)
    comp = composition_of(trace)
    print(f"wrote {len(trace)} YCSB requests ({trace.distinct_keys()} keys) "
          f"to {args.output}")
    print(f"composition: get={comp.get:.3f} put={comp.put:.3f}")
    return 0


def _compaction_options(args):
    """Resolve compare's --compaction / --background / --compaction-config
    into (policies, background, stores, store_overrides).

    Explicit flags win over the config file.  ``stores`` is None when
    neither source named any (caller falls back to --stores)."""
    policies = list(args.compaction or [])
    background = bool(args.background)
    stores = None
    store_overrides: dict = {}
    if args.compaction_config:
        import json

        with open(args.compaction_config, "r", encoding="utf-8") as handle:
            config = json.load(handle)
        unknown = set(config) - {"policies", "background", "stores",
                                 "store_overrides"}
        if unknown:
            raise SystemExit(
                f"error: unknown compaction-config keys: "
                f"{', '.join(sorted(unknown))} (expected policies, "
                f"background, stores, store_overrides)"
            )
        if not policies:
            policies = list(config.get("policies", []))
        if not background:
            background = bool(config.get("background", False))
        stores = config.get("stores")
        store_overrides = dict(config.get("store_overrides", {}))
    if not policies:
        policies = list(POLICY_NAMES)
    bad = [p for p in policies if p not in POLICY_NAMES]
    if bad:
        raise SystemExit(
            f"error: unknown compaction policies: {', '.join(bad)}; "
            f"expected one of {', '.join(POLICY_NAMES)}"
        )
    return policies, background, stores, store_overrides


def _compare_compaction(args, trace, spec: RunSpec) -> int:
    """The ``compare --compaction`` axis: one run per policy x LSM store,
    inline or under background maintenance workers, one lake run."""
    policies, background, stores, store_overrides = _compaction_options(args)
    stores = _keep_lsm(list(stores or args.stores),
                       "have a compaction pipeline; LSM stores",
                       "no compaction pipeline")
    if not stores:
        return 2
    evaluator = PerformanceEvaluator(
        stores, {name: dict(store_overrides) for name in stores},
        lake_dir=args.lake,
    )
    results, incompatible = [], []
    for policy in policies:
        policy_spec = dataclasses.replace(
            spec, compaction=policy, background=background
        )
        for store in stores:
            if runs_on(store, policy_spec):
                results.append(
                    evaluator.run(store, args.trace, trace, policy_spec)[0]
                )
            else:  # the store rejects the policy (lethe + tiered)
                incompatible.append(f"{store}+{policy}")
    evaluator.record(results, None)
    if incompatible:
        print(f"note: skipping incompatible combinations: "
              f"{', '.join(incompatible)}", file=sys.stderr)
    headers = ["store", "policy", "kops", "p50 us", "p99.9 us"]
    rows = [[row.store, row.compaction, round(row.throughput_kops, 1),
             round(row.p50_us, 1), round(row.p999_us, 1)]
            + ([row.write_stalls, row.stall_ms] if background else [])
            for row in results]
    if background:
        headers += ["stalls", "stall ms"]
    mode = "background" if background else "inline"
    print(render_table(
        headers, rows, title=f"compaction-policy comparison on {args.trace} "
        f"({mode} maintenance)"))
    best = max(rows, key=lambda r: r[2])
    print(f"best throughput: {best[0]} with {best[1]}")
    return 0


def cmd_compare(args) -> int:
    trace = AccessTrace.load(args.trace)
    sweep = bool(args.compaction or args.compaction_config)
    if _cluster_requested(args):
        if args.faults or args.crash_at is not None or args.disk_faults:
            raise SystemExit(
                "error: cluster comparisons take fault injection from "
                "--chaos; --faults/--crash-at/--disk-faults are single-node "
                "axes"
            )
        if sweep or args.background:
            raise SystemExit(
                "error: --cluster does not combine with the compaction sweep"
            )
        if args.metrics:
            raise SystemExit(
                "error: record cluster metrics with 'repro replay --cluster "
                "--metrics FILE' (one fleet per file); compare --metrics "
                "covers single-node rows only"
            )
    spec = _spec_from_args(args)
    if args.metrics and (spec.crash_at is not None
                         or spec.disk_plan is not None or sweep):
        raise SystemExit(
            "error: --metrics records the performance comparison only; "
            "drop --crash-at/--disk-faults/--compaction or record those "
            "runs with 'repro replay --trace'"
        )
    if sweep:
        if spec.fault_plan is not None or spec.crash_at is not None \
                or spec.disk_plan is not None:
            raise SystemExit(
                "error: the --compaction sweep measures clean replays; "
                "drop --faults/--crash-at/--disk-faults"
            )
        if (spec.pipeline_depth or 1) > 1:
            raise SystemExit(
                "error: the --compaction sweep runs embedded LSM stores "
                "(no round trips to overlap); drop --pipeline"
            )
        return _compare_compaction(args, trace, spec)
    if args.background:
        raise SystemExit(
            "error: --background needs --compaction (or "
            "--compaction-config) on compare; for a single background "
            "run use 'repro replay --background'"
        )
    stores = list(args.stores)
    if spec.crash_at is not None:
        stores = _keep_lsm(
            stores, "support crash recovery (no durable WAL + recover() "
            "path); recoverable stores", "no crash-recovery support",
        )
        if not stores:
            return 2
    evaluator = PerformanceEvaluator(stores, lake_dir=args.lake)
    try:
        results = evaluator.evaluate(
            args.trace, trace, spec, metrics_dir=args.metrics,
            metrics_interval_ms=args.metrics_interval_ms,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    if spec.cluster is not None:
        headers = ["store", "cluster", "kops", "p99.9 us", "failovers",
                   "lag ms", "recovery ms", "recovered"]
        rows = [[row.store, row.cluster, round(row.throughput_kops, 1),
                 round(row.p999_us, 1), row.failovers,
                 round(row.replication_lag_ms or 0.0, 3),
                 round(row.recovery_ms or 0.0, 3), _yes(row.recovered_ok)]
                for row in results]
        chaos = f", chaos seed {spec.chaos.seed}" if spec.chaos else ""
        title = f"cluster comparison on {args.trace}{chaos}"
    elif spec.crash_at is not None:
        disk = spec.disk_plan is not None
        headers = (["store", "kops", "recovery ms", "wal replayed"]
                   + (["corrupt found", "repaired"] if disk else [])
                   + ["recovered"])
        rows = [[row.store, round(row.throughput_kops, 1),
                 round(row.recovery_ms or 0.0, 3), row.wal_replayed]
                + ([row.corruptions_detected, row.corruptions_repaired]
                   if disk else [])
                + [_yes(row.recovered_ok)]
                for row in results]
        title = (f"crash-recovery comparison on {args.trace} (crash at op "
                 f"{spec.crash_at}{', with disk faults' if disk else ''})")
    elif spec.disk_plan is not None:
        headers = ["store", "kops", "corrupt found", "repaired",
                   "unrecoverable", "scrub ms"]
        rows = [[row.store, round(row.throughput_kops, 1),
                 row.corruptions_detected, row.corruptions_repaired,
                 row.corruptions_unrecoverable, round(row.scrub_ms or 0.0, 3)]
                for row in results]
        title = (f"integrity comparison on {args.trace} "
                 f"(seeded disk faults, seed {spec.disk_plan.seed})")
    else:
        faulted = spec.fault_plan is not None
        headers = (["store", "batch", "pipe", "kops", "p50 us", "p99.9 us"]
                   + (["faults", "retries", "failed"] if faulted else []))
        rows = [[row.store, row.batch_size, row.pipeline_depth,
                 round(row.throughput_kops, 1),
                 round(row.p50_us, 1), round(row.p999_us, 1)]
                + ([row.injected_faults, row.retries, row.failed_ops]
                   if faulted else [])
                for row in results]
        title = f"{'faulted ' if faulted else ''}store comparison on {args.trace}"
    print(render_table(headers, rows, title=title))
    if spec.disk_plan is not None and spec.crash_at is None:
        best = max(rows, key=lambda r: (r[2], r[3]))
        print(f"most corruption detected: {best[0]}")
    elif spec.cluster is None and spec.crash_at is None:
        print(f"best throughput: {max(rows, key=lambda r: r[3])[0]}")
    if args.metrics:
        paths = [row.timeseries_path for row in results if row.timeseries_path]
        print(f"wrote {len(paths)} metrics time series under {args.metrics} "
              f"(compare two with 'repro metrics diff')")
    return 0 if all(row.recovered_ok is not False for row in results) else 1


def _series_from_lake(args) -> List[str]:
    """Resolve ``metrics diff --lake/--query`` into recorded series
    paths: the non-null ``timeseries_path`` of matching runs, in run
    order (so the oldest matching run is the baseline)."""
    from .lake import LakeError, QueryError, ResultsLake, lake_path
    from .lake.query import parse_query, select_rows

    try:
        lake = ResultsLake(lake_path(args.lake), create=False)
        query = parse_query(f"timeseries_path {args.query or ''}".strip())
        rows = select_rows(lake, query)
    except (OSError, LakeError, QueryError) as exc:
        raise SystemExit(f"error: {exc}")
    order = sorted(
        range(len(rows["run_id"])),
        key=lambda i: (rows["run_id"][i] is None, rows["run_id"][i]),
    )
    paths: List[str] = []
    for index in order:
        path = rows["timeseries_path"][index]
        if path and path not in paths:
            paths.append(path)
    return paths


def cmd_metrics(args) -> int:
    from .obs import (
        diff_matrix,
        diff_series,
        format_diff,
        format_matrix,
        format_summary,
        summarize_series,
    )

    if args.metrics_command == "summarize":
        for index, path in enumerate(args.series):
            if index:
                print()
            print(format_summary(summarize_series(path)))
        return 0
    if args.metrics_command == "diff":
        paths = list(args.series)
        if args.lake or args.query is not None:
            if not args.lake:
                raise SystemExit(
                    "error: --query resolves series from a lake; add "
                    "--lake DIR"
                )
            paths += _series_from_lake(args)
        if len(paths) < 2:
            raise SystemExit(
                "error: metrics diff needs at least two series (paths "
                "and/or a --lake query resolving to recorded runs)"
            )
        if len(paths) == 2:
            print(format_diff(diff_series(paths[0], paths[1], bins=args.bins)))
        else:
            print(format_matrix(diff_matrix(paths, bins=args.bins)))
        return 0
    raise SystemExit(f"error: unknown metrics command {args.metrics_command!r}")


#: set (to anything) to turn regress findings into a warning instead of
#: a failing exit -- the CI waiver for understood trajectory shifts
REGRESS_WAIVER_ENV = "REPRO_LAKE_WAIVE"


def cmd_lake(args) -> int:
    from .lake import (
        LakeError,
        QueryError,
        RegressConfig,
        ResultsLake,
        detect_regressions,
        format_query_result,
        format_regress_report,
        import_paths,
        lake_path,
        run_query,
    )

    path = lake_path(args.lake)
    try:
        if args.lake_command == "import":
            lake = ResultsLake(path)
            for file_path, kind, rows in import_paths(lake, args.files):
                print(f"{file_path}: {kind}, {rows} rows")
            tables = ", ".join(
                f"{name}={lake.num_rows(name)}" for name in lake.tables()
            )
            print(f"lake {path}: {tables}")
            return 0
        if args.lake_command == "query":
            lake = ResultsLake(path, create=False)
            result = run_query(lake, args.query, table=args.table)
            print(format_query_result(result))
            return 0
        if args.lake_command == "verify":
            lake = ResultsLake(path, create=False)
            chunks = lake.verify()
            for name in lake.tables():
                print(f"{name}: {lake.num_rows(name)} rows in "
                      f"{len(lake.batches(name))} batches, "
                      f"{len(lake.columns(name))} columns")
            print(f"verified {chunks} column chunks")
            return 0
        if args.lake_command == "regress":
            import json

            data = {}
            if args.config:
                with open(args.config) as handle:
                    data = json.load(handle)
            for key in ("table", "window", "k", "min_runs", "rel_floor",
                        "metrics", "by"):
                value = getattr(args, key, None)
                if value is not None:
                    data[key] = value
            config = RegressConfig.from_dict(data)
            lake = ResultsLake(path, create=False)
            report = detect_regressions(lake, config)
            print(format_regress_report(report, config))
            if report.findings and os.environ.get(REGRESS_WAIVER_ENV):
                print(f"waived via {REGRESS_WAIVER_ENV}; not failing")
                return 0
            return 0 if report.ok else 1
    except (OSError, ValueError, LakeError, QueryError) as exc:
        raise SystemExit(f"error: {exc}")
    raise SystemExit(f"error: unknown lake command {args.lake_command!r}")


def cmd_scrub(args) -> int:
    """Replay a trace per store, optionally damage the on-disk state
    with a seeded plan, then scrub and report what was found."""
    from .faults import DiskFaultPlan
    from .kvstores import connect, create_store

    trace = AccessTrace.load(args.trace)
    disk_plan = DiskFaultPlan.load(args.disk_faults) if args.disk_faults else None
    rows: List[List] = []
    dirty = False
    for store_name in args.stores:
        overrides = {}
        if args.checksum and store_name != "memory":
            overrides["checksum"] = args.checksum
        store = create_store(store_name, **overrides)
        connector = connect(store)
        TraceReplayer(connector, measure_latency=False).replay(trace)
        connector.flush()
        injected = 0
        backend = connector.storage_backend()
        if disk_plan is not None and backend is not None:
            injected = disk_plan.apply(backend).faults_injected
        report = connector.scrub()
        dirty = dirty or not report.clean
        rows.append([
            store_name,
            report.structures_checked,
            injected,
            report.corruptions_detected,
            report.corruptions_repaired,
            report.unrecoverable,
            round(report.scrub_ms, 3),
        ])
        connector.close()
    print(render_table(
        ["store", "structures", "injected", "detected", "repaired",
         "unrecoverable", "scrub ms"],
        rows, title=f"scrub of {args.trace}"
        + (f" (disk faults, seed {disk_plan.seed})" if disk_plan else "")))
    return 2 if dirty else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Gadget: benchmark harness for streaming state stores",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("workloads", help="list predefined workloads")

    generate = subparsers.add_parser("generate", help="generate a state access trace")
    generate.add_argument("-w", "--workload", choices=sorted(WORKLOADS))
    generate.add_argument("-o", "--output", required=True)
    generate.add_argument("--config", help="JSON configuration file "
                          "(overrides the other generation options)")
    generate.add_argument("--dataset", default="synthetic",
                          choices=["synthetic", "borg", "taxi", "azure"])
    generate.add_argument("--events", type=int, default=20_000)
    generate.add_argument("--keys", type=int, default=1_000)
    generate.add_argument("--key-dist", default="zipfian")
    generate.add_argument("--watermark-frequency", type=int, default=100)
    generate.add_argument("--seed", type=int, default=42)

    analyze = subparsers.add_parser("analyze", help="characterize a trace")
    analyze.add_argument("trace")
    analyze.add_argument("--target-hit-ratio", type=float, default=0.9)

    def add_fault_options(sub) -> None:
        sub.add_argument(
            "--faults", metavar="CONFIG",
            help="JSON fault plan (seeded transient errors, latency "
            "spikes, stalls) injected into the replay",
        )
        sub.add_argument(
            "--crash-at", type=_positive_int, default=None, metavar="OP",
            help="kill the store before op OP, run recover(), resume, and "
            "verify contents against an uninterrupted run (LSM-family "
            "stores only)",
        )
        sub.add_argument(
            "--disk-faults", metavar="CONFIG",
            help="JSON disk-fault plan (seeded bit flips, torn writes, "
            "lost writes) applied to the on-disk state; with compare it "
            "runs the integrity comparison, with --crash-at it damages "
            "the surviving storage before recovery",
        )
        sub.add_argument(
            "--no-retry", action="store_true",
            help="disable the retry policy (injected transient errors "
            "then count as failed ops)",
        )
        sub.add_argument(
            "--retry-attempts", type=_positive_int, default=4,
            help="max attempts per operation under faults (default: 4)",
        )

    def add_lake_option(sub) -> None:
        sub.add_argument(
            "--lake", metavar="DIR", default=None,
            help="append this run's evaluation rows to the columnar "
            "results lake in DIR (query with 'repro lake query', gate "
            "with 'repro lake regress')",
        )

    def add_metrics_interval(sub) -> None:
        sub.add_argument(
            "--metrics-interval-ms", type=float, default=100.0,
            help="sampling period for --metrics and --progress "
            "(default: 100)",
        )

    def add_cluster_options(sub) -> None:
        sub.add_argument(
            "--cluster", type=_positive_int, default=None, metavar="N",
            help="serve the store from a cluster of N key partitions "
            "(crc32-partitioned, one replicated server chain each) "
            "instead of one embedded instance",
        )
        sub.add_argument(
            "--replicas", type=int, default=None, metavar="R",
            help="replicas behind each partition's primary "
            "(replication factor R+1; default: 1)",
        )
        sub.add_argument(
            "--ack", choices=("none", "one", "all"), default=None,
            help="replicas a write waits for before the client is acked "
            "(default: all -- the only level with zero acked-write loss "
            "on primary death)",
        )
        sub.add_argument(
            "--chaos", metavar="CONFIG", default=None,
            help="JSON cluster fault plan: kill/restart/isolate servers "
            "at logical-op offsets mid-replay (seeded, reproducible)",
        )
        sub.add_argument(
            "--cluster-config", metavar="FILE", default=None,
            help="JSON cluster topology config (partitions, replicas, "
            "ack, store, store_config); explicit flags win",
        )

    replay = subparsers.add_parser("replay", help="replay a trace on one store")
    replay.add_argument("trace")
    replay.add_argument("--store", default="rocksdb", choices=STORE_NAMES)
    replay.add_argument("--service-rate", type=float, default=None)
    replay.add_argument(
        "--shards", type=_positive_int, default=1,
        help="hash-partition the trace by key across N worker threads, "
        "one store instance per worker (default: 1, single-threaded)",
    )
    replay.add_argument(
        "--processes", action="store_true",
        help="run the --shards workers as separate OS processes over a "
        "shared-memory view of the trace: true parallelism past the "
        "GIL, identical partitioning and fault schedules to thread "
        "mode (histogram populations and store contents match)",
    )
    replay.add_argument(
        "--storage-root", metavar="DIR", default=None,
        help="with --processes, back each worker's store with its own "
        "on-disk partition under DIR/shard-N (disk-backed stores only)",
    )
    replay.add_argument(
        "--batch", type=_positive_int, default=None, metavar="N",
        help="micro-batch up to N consecutive same-kind ops into one "
        "multi_get/apply_batch call (default: per-op); per-op latency "
        "stays honest -- measured from each op's arrival, queueing "
        "included",
    )
    replay.add_argument(
        "--pipeline", type=_positive_int, default=None, metavar="N",
        help="keep up to N ops in flight per connection instead of "
        "blocking on each round trip (remote and cluster stores; "
        "embedded stores run synchronously); per-op latency stays "
        "honest -- measured from each op's arrival, window queueing "
        "included; mutually exclusive with --batch",
    )
    replay.add_argument(
        "--trace-out", "--trace", dest="trace_out", metavar="FILE",
        default=None,
        help="record internal spans (flushes, compactions, WAL commits, "
        "page IO, RPCs, retries) to a Chrome trace-event JSON file, "
        "loadable in Perfetto",
    )
    replay.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="sample store gauges plus interval throughput and latency "
        "percentiles into a JSONL time series for 'repro metrics'",
    )
    replay.add_argument(
        "--progress", action="store_true",
        help="live single-line progress view on stderr (ops/s, p99, "
        "compactions, cache hit rate, faults)",
    )
    replay.add_argument(
        "--compaction", default=None, choices=POLICY_NAMES,
        help="compaction policy for the LSM store (rocksdb/lethe only; "
        "default: leveled)",
    )
    replay.add_argument(
        "--background", action="store_true",
        help="move LSM flush and compaction to background workers with "
        "write-stall backpressure instead of running them inline on the "
        "write path (rocksdb/lethe only)",
    )
    add_metrics_interval(replay)
    add_fault_options(replay)
    add_cluster_options(replay)
    add_lake_option(replay)

    compare = subparsers.add_parser("compare", help="replay on several stores")
    compare.add_argument("trace")
    compare.add_argument("--stores", nargs="+", default=list(DEFAULT_STORES),
                         choices=STORE_NAMES)
    compare.add_argument(
        "--batch", type=_positive_int, default=None, metavar="N",
        help="micro-batch up to N consecutive same-kind ops into one "
        "multi_get/apply_batch call on every store (default: per-op)",
    )
    compare.add_argument(
        "--pipeline", type=_positive_int, default=None, metavar="N",
        help="keep up to N ops in flight per connection on every store "
        "(remote and cluster stores; embedded stores run "
        "synchronously); mutually exclusive with --batch",
    )
    compare.add_argument(
        "--metrics", metavar="DIR", default=None,
        help="sample each store's replay into DIR/<trace>-<store>.jsonl "
        "time series for 'repro metrics summarize|diff'",
    )
    compare.add_argument(
        "--compaction", nargs="+", default=None, choices=POLICY_NAMES,
        metavar="POLICY",
        help="sweep LSM compaction policies instead of stores: replay "
        "the trace once per policy on each LSM store "
        f"({', '.join(POLICY_NAMES)})",
    )
    compare.add_argument(
        "--background", action="store_true",
        help="run the compaction sweep under background maintenance "
        "workers (reports write-stall columns)",
    )
    compare.add_argument(
        "--compaction-config", metavar="FILE", default=None,
        help="JSON file for the compaction sweep with keys policies, "
        "background, stores, store_overrides (explicit flags win)",
    )
    add_metrics_interval(compare)
    add_fault_options(compare)
    add_cluster_options(compare)
    add_lake_option(compare)

    metrics = subparsers.add_parser(
        "metrics", help="report on recorded metrics time series"
    )
    metrics_sub = metrics.add_subparsers(dest="metrics_command", required=True)
    summarize = metrics_sub.add_parser(
        "summarize", help="aggregate one or more series into run summaries"
    )
    summarize.add_argument("series", nargs="+", metavar="FILE")
    diff = metrics_sub.add_parser(
        "diff", help="align runs by replay progress; attribute the "
        "worst phase to the internal-activity series that diverged most "
        "(two runs: full phase table; more: comparison matrix against "
        "the first)"
    )
    diff.add_argument(
        "series", nargs="*", metavar="FILE",
        help="series files; the first is the baseline",
    )
    diff.add_argument(
        "--bins", type=_positive_int, default=10,
        help="number of progress-aligned phase bins (default: 10)",
    )
    diff.add_argument(
        "--lake", metavar="DIR", default=None,
        help="resolve additional series from the recorded "
        "timeseries_path of runs in this results lake",
    )
    diff.add_argument(
        "--query", metavar="FILTER", default=None,
        help="lake run filter in the query grammar, e.g. "
        "\"where store=rocksdb last 3\" (default: every recorded run)",
    )

    lake = subparsers.add_parser(
        "lake", help="columnar results lake: import artifacts, query "
        "history, gate on trajectory regressions"
    )
    lake_sub = lake.add_subparsers(dest="lake_command", required=True)

    def add_lake_location(sub) -> None:
        sub.add_argument(
            "--lake", metavar="DIR",
            default=os.environ.get("REPRO_LAKE", "."),
            help="lake directory or file (default: $REPRO_LAKE or .)",
        )

    lake_import = lake_sub.add_parser(
        "import", help="ingest artifacts: BENCH_*.json (stamped or "
        "legacy), metrics JSONL series, Chrome span traces"
    )
    lake_import.add_argument("files", nargs="+", metavar="FILE")
    add_lake_location(lake_import)
    lake_query = lake_sub.add_parser(
        "query", help="filtered group-by aggregation over recorded "
        "history, e.g. \"p99 by backend,batch_size,fault_plan last 50\""
    )
    lake_query.add_argument("query", metavar="QUERY")
    lake_query.add_argument(
        "--table", default="runs",
        choices=["runs", "series", "spans", "bench"],
        help="lake table to query (default: runs)",
    )
    add_lake_location(lake_query)
    lake_regress = lake_sub.add_parser(
        "regress", help="flag runs outside their group's recorded "
        "median +- k*MAD trajectory band (exit 1 on findings; set "
        f"{REGRESS_WAIVER_ENV} to waive)"
    )
    add_lake_location(lake_regress)
    lake_regress.add_argument(
        "--config", metavar="FILE", default=None,
        help="JSON regress settings (see configs/lake.json); explicit "
        "flags win",
    )
    lake_regress.add_argument(
        "--table", default=None,
        choices=["runs", "series", "spans", "bench"],
        help="lake table to gate (default: runs)",
    )
    lake_regress.add_argument(
        "--window", type=_positive_int, default=None,
        help="baseline runs fitted per group (default: 20)",
    )
    lake_regress.add_argument(
        "--k", type=float, default=None,
        help="band half-width in scaled-MAD units (default: 4.0)",
    )
    lake_regress.add_argument(
        "--min-runs", type=_positive_int, default=None, dest="min_runs",
        help="minimum baseline runs before a group is gated (default: 5)",
    )
    lake_regress.add_argument(
        "--rel-floor", type=float, default=None, dest="rel_floor",
        help="relative band floor as a fraction of the median "
        "(default: 0.05)",
    )
    lake_regress.add_argument(
        "--metrics", nargs="+", metavar="METRIC", default=None,
        help="metric columns to gate (default: throughput_kops p99_us)",
    )
    lake_regress.add_argument(
        "--by", nargs="+", metavar="COL", default=None,
        help="group axes (default: store workload batch_size "
        "pipeline_depth fault_plan)",
    )
    lake_verify = lake_sub.add_parser(
        "verify", help="re-checksum every column chunk and report "
        "per-table stats"
    )
    add_lake_location(lake_verify)

    scrub = subparsers.add_parser(
        "scrub", help="verify on-disk checksums after replaying a trace"
    )
    scrub.add_argument("trace")
    scrub.add_argument("--stores", nargs="+",
                       default=["rocksdb", "lethe", "faster", "berkeleydb"],
                       choices=STORE_NAMES)
    scrub.add_argument(
        "--disk-faults", metavar="CONFIG",
        help="JSON disk-fault plan applied before the scrub (to "
        "measure detection coverage)",
    )
    scrub.add_argument(
        "--checksum", default=None,
        choices=["none", "crc32", "crc32c", "default"],
        help="checksum algorithm the stores write with (default: "
        "crc32c when native, else crc32)",
    )

    ycsb = subparsers.add_parser(
        "ycsb", help="generate a YCSB trace (baseline comparison)"
    )
    ycsb.add_argument("-o", "--output", required=True)
    ycsb.add_argument("--preset", default="A", choices=list("ABCDEF"))
    ycsb.add_argument("--properties",
                      help="YCSB .properties workload file (overrides --preset)")
    ycsb.add_argument("--records", type=int, default=1000)
    ycsb.add_argument("--operations", type=int, default=100_000)
    ycsb.add_argument("--seed", type=int, default=42)
    return parser


_COMMANDS = {
    "workloads": cmd_workloads,
    "generate": cmd_generate,
    "analyze": cmd_analyze,
    "replay": cmd_replay,
    "compare": cmd_compare,
    "metrics": cmd_metrics,
    "lake": cmd_lake,
    "scrub": cmd_scrub,
    "ycsb": cmd_ycsb,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
