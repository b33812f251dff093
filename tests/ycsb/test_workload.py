"""Tests for the YCSB workload generator."""

from collections import Counter

import pytest

from repro.trace import OpType
from repro.ycsb import CORE_WORKLOADS, YCSBConfig, YCSBWorkload


class TestConfig:
    def test_proportions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            YCSBConfig(read_proportion=0.9, update_proportion=0.9).validate()

    def test_valid_defaults(self):
        YCSBConfig().validate()


class TestCoreWorkloads:
    @pytest.mark.parametrize("name", sorted(CORE_WORKLOADS))
    def test_all_presets_generate(self, name):
        workload = YCSBWorkload.core(name, operation_count=2000, record_count=100)
        trace = workload.generate()
        assert len(trace) >= 2000

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            YCSBWorkload.core("Z")

    def test_workload_a_mix(self):
        trace = YCSBWorkload.core("A", operation_count=10000, record_count=100).generate()
        fractions = trace.op_fractions()
        assert abs(fractions[OpType.GET] - 0.5) < 0.05
        assert abs(fractions[OpType.PUT] - 0.5) < 0.05

    def test_workload_d_read_heavy(self):
        trace = YCSBWorkload.core("D", operation_count=10000, record_count=100).generate()
        assert trace.op_fractions()[OpType.GET] > 0.9

    def test_workload_f_rmw_pairs(self):
        trace = YCSBWorkload.core("F", operation_count=10000, record_count=100).generate()
        # rmw emits get+put for the same key back to back
        rmw_pairs = 0
        for a, b in zip(trace, trace[1:]):
            if a.op is OpType.GET and b.op is OpType.PUT and a.key == b.key:
                rmw_pairs += 1
        assert rmw_pairs > 1000

    def test_no_deletes_ever(self):
        for name in CORE_WORKLOADS:
            trace = YCSBWorkload.core(name, operation_count=1000, record_count=50).generate()
            assert trace.op_counts()[OpType.DELETE] == 0


class TestWorkloadSemantics:
    def test_reads_only_touch_preloaded_keys(self):
        workload = YCSBWorkload(
            YCSBConfig(
                record_count=50,
                operation_count=5000,
                read_proportion=0.5,
                update_proportion=0.0,
                insert_proportion=0.5,
            )
        )
        preloaded = set(workload.load_keys())
        trace = workload.generate()
        read_keys = {a.key for a in trace if a.op is OpType.GET}
        assert read_keys <= preloaded

    def test_read_latest_reads_the_newest_inserts(self):
        """Workload D's most-read key is the newest insert, and every
        read key exists by the time it is read: preloaded, or inserted
        earlier in the trace."""
        workload = YCSBWorkload.core("D", record_count=1000, operation_count=20_000)
        order = workload.load_keys()  # records, oldest first
        position = {key: i for i, key in enumerate(order)}
        recency = Counter()  # reads by how many records are newer
        for access in workload.generate():
            if access.op is OpType.GET:
                recency[len(order) - 1 - position[access.key]] += 1
            elif access.key not in position:
                position[access.key] = len(order)
                order.append(access.key)
        assert len(order) > 1500
        assert recency.most_common(1)[0][0] == 0
        # a zipfian over recency: the ten newest records take a third
        assert sum(recency[r] for r in range(10)) > sum(recency.values()) / 3

    def test_inserts_extend_keyspace(self):
        workload = YCSBWorkload(
            YCSBConfig(
                record_count=50,
                operation_count=1000,
                read_proportion=0.0,
                update_proportion=0.0,
                insert_proportion=1.0,
            )
        )
        trace = workload.generate()
        assert trace.distinct_keys() == 1000

    def test_value_sizes(self):
        workload = YCSBWorkload(
            YCSBConfig(record_count=10, operation_count=100, value_size=64)
        )
        trace = workload.generate()
        puts = [a for a in trace if a.op is OpType.PUT]
        assert all(a.value_size == 64 for a in puts)

    def test_deterministic_per_seed(self):
        a = YCSBWorkload(YCSBConfig(operation_count=500, seed=9)).generate()
        b = YCSBWorkload(YCSBConfig(operation_count=500, seed=9)).generate()
        assert a.accesses == b.accesses

    def test_load_keys_count(self):
        workload = YCSBWorkload(YCSBConfig(record_count=77))
        assert len(workload.load_keys()) == 77

    def test_key_padding(self):
        workload = YCSBWorkload(YCSBConfig(key_size=16))
        assert len(workload.key_for(3)) == 16

    def test_distribution_override(self):
        workload = YCSBWorkload.core("A", request_distribution="uniform",
                                     operation_count=100)
        assert workload.config.request_distribution == "uniform"
