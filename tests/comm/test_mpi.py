"""Tests for the simulated MPI communicator: semantics and timing."""

import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm.mpi import World, payload_nbytes, run_spmd
from repro.hardware.cluster import NetworkSpec
from repro.simulate.engine import Engine, SimulationError
from tests.helpers import allgather, allreduce, barrier


def make_world(size, latency=0.0, bandwidth=1.0, same_node=False):
    net = NetworkSpec(latency=latency, bandwidth=bandwidth)
    node_of = (lambda r: 0) if same_node else (lambda r: r)
    return World(Engine(), size, network=net, node_of=node_of)


class TestPayloadNbytes:
    def test_numpy_exact(self):
        assert payload_nbytes(np.zeros(100, dtype=np.float64)) == 800.0

    def test_none_free(self):
        assert payload_nbytes(None) == 0.0

    def test_scalars(self):
        assert payload_nbytes(3) == 8.0
        assert payload_nbytes(2.5) == 8.0

    def test_containers_sum(self):
        arr = np.zeros(10, dtype=np.float32)  # 40 bytes
        assert payload_nbytes([arr, arr]) == pytest.approx(40 * 2 + 16)

    def test_string_utf8(self):
        assert payload_nbytes("abc") == 3.0

    def test_dict(self):
        assert payload_nbytes({"a": 1}) > 8.0


class TestPointToPoint:
    def test_send_recv_roundtrip(self):
        world = make_world(2)

        def main(comm):
            if comm.rank == 0:
                yield from comm.send({"x": 7}, dest=1, tag=5)
                return None
            msg = yield from comm.recv(source=0, tag=5)
            return msg

        assert run_spmd(world, main)[1] == {"x": 7}

    def test_recv_without_sender_names_blocked_pair(self):
        # A silent hang must not stay silent: when the event queue drains
        # with a receive still posted, the deadlock error reports exactly
        # which (rank, tag) pairs are blocked and on whom.
        world = make_world(2)

        def main(comm):
            if comm.rank == 1:
                yield from comm.recv(source=0, tag=42)  # nobody sends
            return None

        with pytest.raises(SimulationError) as excinfo:
            run_spmd(world, main)
        message = str(excinfo.value)
        assert "deadlock" in message
        assert "rank 1 <- rank 0 (tag 42)" in message

    def test_wire_time_charged(self):
        world = make_world(2, latency=1e-3, bandwidth=1.0)

        def main(comm):
            data = np.zeros(125_000_000, dtype=np.float64)  # 1e9 bytes
            if comm.rank == 0:
                yield from comm.send(data, dest=1)
            else:
                yield from comm.recv(source=0)
            return comm.engine.now

        results = run_spmd(world, main)
        assert results[1] == pytest.approx(1.0 + 1e-3)

    def test_same_node_messages_free(self):
        world = make_world(2, latency=1.0, bandwidth=1e-9, same_node=True)

        def main(comm):
            if comm.rank == 0:
                yield from comm.send(np.zeros(1000), dest=1)
            else:
                yield from comm.recv(source=0)
            return comm.engine.now

        assert run_spmd(world, main)[1] == 0.0

    def test_non_overtaking_order(self):
        world = make_world(2)

        def main(comm):
            if comm.rank == 0:
                for i in range(5):
                    yield from comm.send(i, dest=1, tag=1)
                return None
            got = []
            for _ in range(5):
                item = yield from comm.recv(source=0, tag=1)
                got.append(item)
            return got

        assert run_spmd(world, main)[1] == [0, 1, 2, 3, 4]

    def test_tags_isolate_streams(self):
        world = make_world(2)

        def main(comm):
            if comm.rank == 0:
                yield from comm.send("a", dest=1, tag=1)
                yield from comm.send("b", dest=1, tag=2)
                return None
            second = yield from comm.recv(source=0, tag=2)
            first = yield from comm.recv(source=0, tag=1)
            return (first, second)

        assert run_spmd(world, main)[1] == ("a", "b")

    def test_rank_bounds_checked(self):
        world = make_world(2)

        def main(comm):
            if comm.rank == 0:
                yield from comm.send(1, dest=9)
            return None
            yield  # pragma: no cover

        with pytest.raises(ValueError, match="dest"):
            run_spmd(world, main)


class TestCollectives:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 8, 13])
    def test_bcast_reaches_everyone(self, size):
        world = make_world(size)

        def main(comm):
            data = "payload" if comm.rank == 0 else None
            result = yield from comm.bcast(data, root=0)
            return result

        assert run_spmd(world, main) == ["payload"] * size

    @pytest.mark.parametrize("root", [0, 1, 2])
    def test_bcast_nonzero_root(self, root):
        world = make_world(4)

        def main(comm):
            data = comm.rank if comm.rank == root else None
            result = yield from comm.bcast(data, root=root)
            return result

        assert run_spmd(world, main) == [root] * 4

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 8])
    def test_reduce_sum(self, size):
        world = make_world(size)

        def main(comm):
            result = yield from comm.reduce(comm.rank + 1, operator.add)
            return result

        results = run_spmd(world, main)
        assert results[0] == size * (size + 1) // 2
        assert all(r is None for r in results[1:])

    @pytest.mark.parametrize("size", [1, 2, 5, 8])
    def test_allreduce_everyone_gets_sum(self, size):
        world = make_world(size)

        def main(comm):
            result = yield from allreduce(comm, comm.rank, operator.add)
            return result

        expected = size * (size - 1) // 2
        assert run_spmd(world, main) == [expected] * size

    def test_allreduce_numpy_arrays(self):
        world = make_world(4)

        def main(comm):
            vec = np.full(3, float(comm.rank))
            result = yield from allreduce(comm, vec, np.add)
            return result

        for r in run_spmd(world, main):
            np.testing.assert_allclose(r, [6.0, 6.0, 6.0])

    @pytest.mark.parametrize("size", [1, 2, 3, 6])
    def test_gather_ordered(self, size):
        world = make_world(size)

        def main(comm):
            result = yield from comm.gather(comm.rank * 10)
            return result

        results = run_spmd(world, main)
        assert results[0] == [r * 10 for r in range(size)]

    @pytest.mark.parametrize("size", [1, 2, 4, 5])
    def test_scatter_delivers_slots(self, size):
        world = make_world(size)

        def main(comm):
            data = [f"item{i}" for i in range(size)] if comm.rank == 0 else None
            result = yield from comm.scatter(data)
            return result

        assert run_spmd(world, main) == [f"item{i}" for i in range(size)]

    def test_scatter_validates_length(self):
        world = make_world(3)

        def main(comm):
            data = [1, 2] if comm.rank == 0 else None
            result = yield from comm.scatter(data)
            return result

        with pytest.raises(ValueError, match="payloads"):
            run_spmd(world, main)

    def test_allgather(self):
        world = make_world(4)

        def main(comm):
            result = yield from allgather(comm, comm.rank)
            return result

        assert run_spmd(world, main) == [[0, 1, 2, 3]] * 4

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 8])
    def test_alltoall_personalized_exchange(self, size):
        world = make_world(size)

        def main(comm):
            outgoing = [f"{comm.rank}->{dest}" for dest in range(size)]
            incoming = yield from comm.alltoall(outgoing)
            return incoming

        results = run_spmd(world, main)
        for dest, incoming in enumerate(results):
            assert incoming == [f"{src}->{dest}" for src in range(size)]

    def test_alltoall_validates_length(self):
        world = make_world(3)

        def main(comm):
            result = yield from comm.alltoall([1, 2])
            return result

        with pytest.raises(ValueError, match="alltoall"):
            run_spmd(world, main)

    def test_alltoall_no_root_hotspot(self):
        """Pairwise exchange: every rank sends P-1 messages (no rank
        funnels all traffic)."""
        size = 4
        world = make_world(size)

        def main(comm):
            outgoing = [np.zeros(100) for _ in range(size)]
            yield from comm.alltoall(outgoing)

        run_spmd(world, main)
        assert world.messages_sent == size * (size - 1)

    def test_barrier_synchronizes(self):
        world = make_world(4, latency=1e-6)

        def main(comm):
            # Rank r works r seconds, then all must leave barrier together.
            yield comm.engine.timeout(float(comm.rank))
            yield from barrier(comm)
            return comm.engine.now

        results = run_spmd(world, main)
        assert min(results) >= 3.0

    @settings(max_examples=15, deadline=None)
    @given(size=st.integers(1, 12), seed=st.integers(0, 2**16))
    def test_allreduce_matches_numpy(self, size, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=size)
        world = make_world(size)

        def main(comm):
            result = yield from allreduce(comm, float(values[comm.rank]), operator.add)
            return result

        for r in run_spmd(world, main):
            assert r == pytest.approx(values.sum(), rel=1e-9)


class TestCollectiveTiming:
    def test_bcast_cost_is_logarithmic(self):
        """Simulated binomial bcast must beat a linear send chain."""
        nbytes = 1e9

        def timed_bcast(size):
            world = make_world(size, latency=0.0, bandwidth=1.0)

            def main(comm):
                data = np.zeros(int(nbytes / 8)) if comm.rank == 0 else None
                yield from comm.bcast(data, root=0)
                return comm.engine.now

            return max(run_spmd(world, main))

        t8 = timed_bcast(8)
        # Binomial tree: root sends 3 sequential messages; depth-3 path
        # means the last leaf hears at 3 message times, not 7.
        assert t8 == pytest.approx(3.0, rel=0.01)

    def test_reduce_cost_matches_network_model(self):
        from repro.comm.network import NetworkModel
        net = NetworkSpec(latency=0.0, bandwidth=1.0)
        model = NetworkModel(net)
        # 4 ranks, 1 GB: binomial reduce = 2 rounds = 2 seconds.
        assert model.reduce(1e9, 4) == pytest.approx(2.0)

        world = make_world(4, latency=0.0, bandwidth=1.0)

        def main(comm):
            data = np.zeros(125_000_000)  # 1 GB
            yield from comm.reduce(data, np.add)
            return comm.engine.now

        assert max(run_spmd(world, main)) == pytest.approx(2.0, rel=0.01)


class TestWorldAccounting:
    def test_message_counters(self):
        world = make_world(2)

        def main(comm):
            if comm.rank == 0:
                yield from comm.send(np.zeros(125, dtype=np.float64), dest=1)
            else:
                yield from comm.recv(source=0)
            return None

        run_spmd(world, main)
        assert world.messages_sent == 1
        assert world.bytes_sent == 1000.0

    def test_world_size_validation(self):
        with pytest.raises(ValueError):
            World(Engine(), 0)

    def test_comm_rank_validation(self):
        world = make_world(2)
        with pytest.raises(ValueError):
            world.comm(5)
