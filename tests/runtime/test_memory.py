"""Tests for region-based memory management (§III.C.2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.memory import (
    ALIGNMENT,
    MALLOC_OVERHEAD_S,
    Region,
    RegionAllocator,
    naive_alloc_seconds,
)


class TestRegion:
    def test_alloc_returns_view_of_requested_size(self):
        region = Region(1024)
        _, view = region.alloc(100)
        assert view.size == 100

    def test_offsets_aligned(self):
        region = Region(1024)
        offsets = [region.alloc(3)[0] for _ in range(5)]
        assert all(off % ALIGNMENT == 0 for off in offsets)

    def test_allocations_do_not_overlap(self):
        region = Region(1 << 12)
        spans = []
        for size in (10, 33, 7, 100, 64):
            off, _ = region.alloc(size)
            spans.append((off, off + size))
        spans.sort()
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert s2 >= e1

    def test_growth_preserves_contents(self):
        region = Region(64)
        off, view = region.alloc(32)
        view[:] = 7
        region.alloc(1024)  # forces growth + copy
        assert np.all(region.view(off, 32) == 7)

    def test_growth_counts_backing_allocs(self):
        region = Region(64)
        assert region.stats.backing_allocs == 1
        region.alloc(1000)
        assert region.stats.backing_allocs == 2
        assert region.stats.grow_copies == 1

    def test_reset_is_bulk_free(self):
        region = Region(1024)
        for _ in range(10):
            region.alloc(50)
        region.reset()
        # Buffer is reused from the bottom: no new backing allocation.
        before = region.stats.backing_allocs
        offset, _ = region.alloc(50)
        assert offset == 0
        assert region.stats.backing_allocs == before

    def test_view_bounds_checked(self):
        region = Region(1024)
        region.alloc(16)
        with pytest.raises(ValueError):
            region.view(0, 999)

    def test_rejects_zero_alloc(self):
        with pytest.raises(ValueError):
            Region(64).alloc(0)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(1, 4096), min_size=1, max_size=50))
    def test_serves_arbitrary_sequences(self, sizes):
        region = Region(128)
        total = 0
        for size in sizes:
            off, view = region.alloc(size)
            assert view.size == size
            total += size
        assert region.stats.bytes_served == total
        assert region.stats.object_allocs == len(sizes)


class TestRegionAllocator:
    def test_per_thread_regions_isolated(self):
        alloc = RegionAllocator(256)
        assert alloc.alloc("cpu", 100)[0] == 0
        assert alloc.alloc("gpu0", 100)[0] == 0
        assert alloc.region("cpu") is not alloc.region("gpu0")
        assert alloc.region("cpu").view(0, 100).size == 100

    def test_reset_all(self):
        alloc = RegionAllocator(256)
        alloc.alloc("a", 10)
        alloc.alloc("b", 10)
        alloc.reset_all()
        assert alloc.alloc("a", 10)[0] == 0
        assert alloc.alloc("b", 10)[0] == 0

    def test_total_stats_aggregate(self):
        alloc = RegionAllocator(1 << 16)
        for i in range(10):
            alloc.alloc("t1", 100)
            alloc.alloc("t2", 100)
        total = alloc.total_stats()
        assert total.object_allocs == 20
        assert total.backing_allocs == 2  # one initial buffer each


class TestCostModel:
    def test_region_beats_naive_for_many_small_allocs(self):
        """The paper's rationale: aggregated malloc overhead degrades
        performance when many small requests exist."""
        alloc = RegionAllocator(1 << 20)
        n = 10_000
        for _ in range(n):
            alloc.alloc("gpu0", 64)
        region_cost = alloc.total_stats().simulated_alloc_seconds
        naive_cost = naive_alloc_seconds(n)
        assert region_cost < naive_cost / 100

    def test_naive_cost_linear(self):
        assert naive_alloc_seconds(10) == pytest.approx(10 * MALLOC_OVERHEAD_S)
