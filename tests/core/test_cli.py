"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.trace import AccessTrace


class TestWorkloadsCommand:
    def test_lists_all_eleven(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "tumbling-incremental" in out
        assert "continuous-join" in out
        assert out.count("\n") >= 12


class TestGenerateCommand:
    def test_synthetic_source(self, tmp_path, capsys):
        path = str(tmp_path / "t.gdgt")
        code = main([
            "generate", "-w", "tumbling-incremental", "-o", path,
            "--events", "500",
        ])
        assert code == 0
        trace = AccessTrace.load(path)
        assert len(trace) >= 1000
        assert "composition" in capsys.readouterr().out

    def test_borg_dataset(self, tmp_path, capsys):
        path = str(tmp_path / "t.gdgt")
        main([
            "generate", "-w", "continuous-aggregation", "-o", path,
            "--dataset", "borg", "--events", "500",
        ])
        assert len(AccessTrace.load(path)) == 1000

    def test_join_workload_gets_two_sources(self, tmp_path):
        path = str(tmp_path / "t.gdgt")
        main([
            "generate", "-w", "interval-join", "-o", path,
            "--dataset", "taxi", "--events", "500",
        ])
        assert len(AccessTrace.load(path)) > 0

    def test_azure_rejects_joins(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "generate", "-w", "interval-join",
                "-o", str(tmp_path / "t.gdgt"),
                "--dataset", "azure", "--events", "500",
            ])

    def test_unknown_workload_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "-w", "nope", "-o", str(tmp_path / "t")])


class TestAnalyzeCommand:
    @pytest.fixture
    def trace_path(self, tmp_path):
        path = str(tmp_path / "t.gdgt")
        main([
            "generate", "-w", "tumbling-incremental", "-o", path,
            "--events", "800",
        ])
        return path

    def test_analysis_report(self, trace_path, capsys):
        capsys.readouterr()
        assert main(["analyze", trace_path]) == 0
        out = capsys.readouterr().out
        assert "avg stack distance" in out
        assert "working set" in out
        assert "TTL" in out

    def test_cache_recommendation_shown(self, trace_path, capsys):
        capsys.readouterr()
        main(["analyze", trace_path, "--target-hit-ratio", "0.5"])
        assert "cache for 50% hits" in capsys.readouterr().out


class TestReplayAndCompare:
    @pytest.fixture
    def trace_path(self, tmp_path):
        path = str(tmp_path / "t.gdgt")
        main([
            "generate", "-w", "continuous-aggregation", "-o", path,
            "--events", "500",
        ])
        return path

    def test_replay(self, trace_path, capsys):
        capsys.readouterr()
        assert main(["replay", trace_path, "--store", "faster"]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out

    def test_replay_unknown_store(self, trace_path):
        with pytest.raises(SystemExit):
            main(["replay", trace_path, "--store", "leveldb"])

    def test_compare(self, trace_path, capsys):
        capsys.readouterr()
        assert main([
            "compare", trace_path, "--stores", "memory", "faster",
        ]) == 0
        out = capsys.readouterr().out
        assert "best throughput" in out
        assert "faster" in out


class TestCompactionAxis:
    @pytest.fixture
    def trace_path(self, tmp_path):
        path = str(tmp_path / "t.gdgt")
        main([
            "generate", "-w", "continuous-aggregation", "-o", path,
            "--events", "500",
        ])
        return path

    @pytest.fixture
    def config_path(self, tmp_path):
        import json

        path = tmp_path / "compaction.json"
        path.write_text(json.dumps({
            "policies": ["leveled", "tiered"],
            "background": True,
            "stores": ["rocksdb"],
            "store_overrides": {"write_buffer_size": 4096},
        }))
        return str(path)

    def test_replay_with_background_compaction(self, trace_path, capsys):
        capsys.readouterr()
        assert main([
            "replay", trace_path, "--store", "rocksdb",
            "--compaction", "tiered", "--background",
        ]) == 0
        out = capsys.readouterr().out
        assert "tiered (background)" in out
        assert "write stalls" in out
        assert "stall time (ms)" in out

    def test_replay_compaction_rejects_non_lsm_store(self, trace_path):
        with pytest.raises(SystemExit):
            main([
                "replay", trace_path, "--store", "memory",
                "--compaction", "tiered",
            ])

    def test_compare_compaction_axis(self, trace_path, capsys):
        capsys.readouterr()
        assert main([
            "compare", trace_path, "--stores", "rocksdb",
            "--compaction", "leveled", "tiered",
        ]) == 0
        out = capsys.readouterr().out
        assert "compaction-policy comparison" in out
        assert "leveled" in out and "tiered" in out

    def test_compare_compaction_config_file(self, trace_path, config_path, capsys):
        capsys.readouterr()
        assert main([
            "compare", trace_path, "--compaction-config", config_path,
        ]) == 0
        out = capsys.readouterr().out
        assert "background maintenance" in out
        assert "stalls" in out

    def test_checked_in_config_is_valid(self, trace_path, capsys):
        import os

        repo_root = os.path.join(os.path.dirname(__file__), "..", "..")
        config = os.path.join(repo_root, "configs", "compaction.json")
        capsys.readouterr()
        assert main([
            "compare", trace_path, "--compaction-config", config,
        ]) == 0
        assert "compaction-policy comparison" in capsys.readouterr().out

    def test_compare_config_rejects_unknown_keys(self, trace_path, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"polices": ["leveled"]}')  # typo'd key
        with pytest.raises(SystemExit):
            main(["compare", trace_path, "--compaction-config", str(bad)])


class TestDroppedFlagsRejected:
    """Flags the chosen mode would silently drop are usage errors."""

    @pytest.fixture
    def trace_path(self, tmp_path):
        path = str(tmp_path / "t.gdgt")
        main([
            "generate", "-w", "continuous-aggregation", "-o", path,
            "--events", "300",
        ])
        return path

    def rejected(self, argv, capsys):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        return capsys.readouterr().err

    def test_ack_and_replicas_need_a_cluster(self, trace_path, capsys):
        err = self.rejected([
            "replay", trace_path, "--store", "memory",
            "--ack", "one", "--replicas", "3",
        ], capsys)
        assert err.startswith("error: --ack/--replicas")

    def test_storage_root_needs_processes(self, trace_path, tmp_path, capsys):
        root = tmp_path / "roots"
        err = self.rejected([
            "replay", trace_path, "--store", "rocksdb",
            "--storage-root", str(root),
        ], capsys)
        assert err.startswith("error: --storage-root")
        assert not root.exists()

    def test_cluster_replay_rejects_compaction(self, trace_path, capsys):
        err = self.rejected([
            "replay", trace_path, "--store", "memory", "--cluster", "2",
            "--compaction", "tiered", "--background",
        ], capsys)
        assert err.startswith("error: --compaction/--background")


class TestIntegrityComparisonAxes:
    """``compare --disk-faults`` replays through the same path as every
    other comparison, so --faults and --batch shape its rows too."""

    def test_faults_and_batch_reach_the_integrity_rows(self, tmp_path, capsys):
        import os

        from repro.lake import ResultsLake, lake_path

        configs = os.path.join(os.path.dirname(__file__), "..", "..", "configs")
        trace = str(tmp_path / "t.gdgt")
        main(["generate", "-w", "tumbling-incremental", "-o", trace,
              "--events", "1000", "--seed", "11"])
        lake = str(tmp_path / "lake")
        assert main([
            "compare", trace, "--stores", "memory", "rocksdb",
            "--disk-faults", os.path.join(configs, "disk_faults.json"),
            "--faults", os.path.join(configs, "faults.json"),
            "--batch", "16", "--lake", lake,
        ]) == 0
        assert "integrity comparison" in capsys.readouterr().out
        runs = ResultsLake(lake_path(lake), create=False).scan("runs")
        assert runs["store"] == ["memory", "rocksdb"]
        assert runs["fault_plan"] == ["seed=42", "seed=42"]
        assert runs["batch_size"] == [16, 16]
        assert runs["injected_faults"][0] == runs["injected_faults"][1] > 0
        assert runs["failed_ops"] == [0, 0]
        assert all(n is not None for n in runs["corruptions_detected"])
