"""Tests for the segmented ring allreduce."""

import operator

import numpy as np
import pytest

from repro.comm.mpi import World, run_spmd
from repro.hardware.cluster import NetworkSpec
from repro.simulate.engine import Engine
from tests.helpers import allreduce, allreduce_ring


def make_world(size, latency=0.0, bandwidth=1.0):
    return World(
        Engine(), size,
        network=NetworkSpec(latency=latency, bandwidth=bandwidth),
        node_of=lambda r: r,
    )


def ring_sum(world, vectors):
    def main(comm):
        result = yield from allreduce_ring(comm, vectors[comm.rank])
        return result

    return run_spmd(world, main)


class TestCorrectness:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 8])
    def test_sums_across_ranks(self, size):
        rng = np.random.default_rng(size)
        vectors = [rng.normal(size=37) for _ in range(size)]
        expected = np.sum(vectors, axis=0)
        for result in ring_sum(make_world(size), vectors):
            np.testing.assert_allclose(result, expected, rtol=1e-12)

    def test_matches_tree_allreduce(self):
        size = 5
        rng = np.random.default_rng(7)
        vectors = [rng.normal(size=64) for _ in range(size)]

        def main(comm):
            ring = yield from allreduce_ring(comm, vectors[comm.rank])
            tree = yield from allreduce(
                comm, vectors[comm.rank].copy(), np.add, tag=-500
            )
            return ring, tree

        for ring, tree in run_spmd(make_world(size), main):
            np.testing.assert_allclose(ring, tree, rtol=1e-12)

    def test_preserves_shape(self):
        vectors = [np.ones((4, 5)) * r for r in range(3)]
        for result in ring_sum(make_world(3), vectors):
            assert result.shape == (4, 5)
            np.testing.assert_allclose(result, np.full((4, 5), 3.0))

    def test_payload_smaller_than_ranks(self):
        """Degenerate segments (some empty) must still be exact."""
        vectors = [np.array([float(r)]) for r in range(6)]
        for result in ring_sum(make_world(6), vectors):
            np.testing.assert_allclose(result, [15.0])

    def test_rejects_non_array(self):
        world = make_world(2)

        def main(comm):
            result = yield from allreduce_ring(comm, 3.0)
            return result

        with pytest.raises(TypeError):
            run_spmd(world, main)

    def test_input_not_mutated(self):
        vectors = [np.ones(8) * r for r in range(3)]
        originals = [v.copy() for v in vectors]
        ring_sum(make_world(3), vectors)
        for v, orig in zip(vectors, originals):
            np.testing.assert_array_equal(v, orig)


class TestTiming:
    def test_ring_beats_tree_for_large_payloads(self):
        """8 ranks, payloads >> latency*bandwidth: the tree pays
        2*ceil(log 8) = 6 full-payload rounds; the segmented ring moves
        ~2/P per link per step with all links busy.  (Small real arrays
        over a slow modelled link — simulated time only needs the ratio.)"""
        size = 8
        nbytes = 8e6
        vectors = [np.zeros(int(nbytes / 8)) for _ in range(size)]

        def timed(method):
            world = make_world(size, latency=0.0, bandwidth=1e-3)

            def main(comm):
                if method == "ring":
                    yield from allreduce_ring(comm, vectors[comm.rank])
                else:
                    yield from allreduce(comm, vectors[comm.rank], np.add)
                return comm.engine.now

            return max(run_spmd(world, main))

        t_tree = timed("tree")
        t_ring = timed("ring")
        assert t_ring < t_tree * 0.5

    def test_tree_beats_ring_for_tiny_payloads(self):
        """High-latency network, 8-byte payloads: 2(P-1) latency hops lose
        to 2 log P."""
        size = 16
        vectors = [np.zeros(1) for _ in range(size)]

        def timed(method):
            world = make_world(size, latency=1e-3, bandwidth=100.0)

            def main(comm):
                if method == "ring":
                    yield from allreduce_ring(comm, vectors[comm.rank])
                else:
                    yield from allreduce(comm, vectors[comm.rank], np.add)
                return comm.engine.now

            return max(run_spmd(world, main))

        assert timed("tree") < timed("ring")
