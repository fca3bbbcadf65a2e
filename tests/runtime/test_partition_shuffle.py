"""Tests for input partitioning and the shuffle machinery."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.job import JobConfig
from repro.runtime.partition import partition_range, weighted_partition
from repro.runtime.shuffle import (
    apply_combiner,
    bucket_of,
    group_by_key,
    hash_partition,
    sort_pairs,
)


class TestPartitionRange:
    def test_exact_cover(self):
        parts = partition_range(10, 3)
        assert parts == [(0, 4), (4, 7), (7, 10)]

    def test_sizes_differ_by_at_most_one(self):
        parts = partition_range(100, 7)
        sizes = [hi - lo for lo, hi in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_more_partitions_than_items(self):
        parts = partition_range(2, 5)
        sizes = [hi - lo for lo, hi in parts]
        assert sum(sizes) == 2
        assert sizes.count(0) == 3

    def test_default_count_is_two_per_node(self):
        """Paper §III.B.2: default partitions = 2 x fat nodes."""
        assert JobConfig().partitions_per_node == 2

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(0, 10_000), k=st.integers(1, 64))
    def test_partition_invariants(self, n, k):
        parts = partition_range(n, k)
        assert len(parts) == k
        assert parts[0][0] == 0 and parts[-1][1] == n
        for (lo1, hi1), (lo2, hi2) in zip(parts, parts[1:]):
            assert hi1 == lo2
            assert lo1 <= hi1


class TestWeightedPartition:
    def test_proportional(self):
        parts = weighted_partition(100, [0.25, 0.75])
        assert parts == [(0, 25), (25, 100)]

    def test_rounding_preserves_total(self):
        parts = weighted_partition(10, [1 / 3, 1 / 3, 1 / 3])
        assert sum(hi - lo for lo, hi in parts) == 10

    def test_zero_weight_gets_nothing(self):
        parts = weighted_partition(10, [0.0, 1.0])
        assert parts[0] == (0, 0)

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            weighted_partition(10, [0.0, 0.0])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            weighted_partition(10, [-1.0, 2.0])

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(0, 5000),
        weights=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=10).filter(
            lambda w: sum(w) > 0
        ),
    )
    def test_weighted_invariants(self, n, weights):
        parts = weighted_partition(n, weights)
        assert len(parts) == len(weights)
        assert parts[0][0] == 0 and parts[-1][1] == n
        total = sum(weights)
        for (lo, hi), w in zip(parts, weights):
            expected = w / total * n
            assert abs((hi - lo) - expected) <= 1.0


class TestShuffle:
    def test_group_by_key(self):
        groups = group_by_key([("a", 1), ("b", 2), ("a", 3)])
        assert groups == {"a": [1, 3], "b": [2]}

    def test_group_preserves_value_order(self):
        groups = group_by_key([("k", i) for i in range(10)])
        assert groups["k"] == list(range(10))

    def test_bucket_deterministic(self):
        assert bucket_of(("center", 3), 8) == bucket_of(("center", 3), 8)

    def test_bucket_in_range(self):
        for key in [0, "abc", (1, 2), 3.5]:
            assert 0 <= bucket_of(key, 5) < 5

    def test_hash_partition_is_a_partition(self):
        pairs = [(i % 7, i) for i in range(100)]
        buckets = hash_partition(pairs, 4)
        flat = [kv for b in buckets for kv in b]
        assert sorted(flat) == sorted(pairs)

    def test_same_key_same_bucket(self):
        pairs = [(i % 3, i) for i in range(30)]
        buckets = hash_partition(pairs, 4)
        for bucket in buckets:
            keys_here = {k for k, _ in bucket}
            for other in buckets:
                if other is bucket:
                    continue
                assert keys_here.isdisjoint({k for k, _ in other})

    def test_apply_combiner(self):
        pairs = [("a", 1), ("a", 2), ("b", 5)]
        combined = apply_combiner(pairs, lambda k, vs: sum(vs))
        assert dict(combined) == {"a": 3, "b": 5}

    def test_sort_pairs_default_order(self):
        pairs = [(3, "c"), (1, "a"), (2, "b")]
        assert [k for k, _ in sort_pairs(pairs)] == [1, 2, 3]

    def test_sort_pairs_custom_compare(self):
        pairs = [(1, "a"), (3, "c"), (2, "b")]
        ordered = sort_pairs(pairs, compare=lambda a, b: b - a)  # descending
        assert [k for k, _ in ordered] == [3, 2, 1]

    @settings(max_examples=30, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 20), st.integers()), max_size=200
        ),
        buckets=st.integers(1, 16),
    )
    def test_partition_grouping_roundtrip(self, pairs, buckets):
        """Bucketing then grouping must equal grouping directly."""
        direct = group_by_key(pairs)
        via_buckets = {}
        for bucket in hash_partition(pairs, buckets):
            via_buckets.update(group_by_key(bucket))
        assert direct == via_buckets
