"""An mpi4py-flavoured communicator whose ranks are simulated processes.

:class:`World` owns one mailbox per (destination, source, tag) triple;
:class:`RankComm` is the per-rank handle exposing ``send``/``recv`` and the
collectives.  All methods are *process fragments*: call them with
``yield from comm.send(...)`` inside a DES process.

Semantics follow MPI closely where it matters to the runtime:

* ``send`` is eager/buffered (returns after charging the wire time; the
  payload is then in flight) — matching mpi4py's pickle-path ``send`` for
  the modest message sizes PRS exchanges;
* ``recv`` blocks until a matching message arrives; messages between one
  (source, destination, tag) pair are non-overtaking, as MPI guarantees;
* collectives are built from point-to-point binomial trees, so their
  simulated cost emerges from message timing rather than being asserted.

Message timing: a message of ``n`` bytes from one node to another becomes
visible to the receiver ``latency + n/bandwidth`` seconds after the send;
rank-local messages (same node) are free.  Payloads are passed by
reference — the simulation is single-process, and the runtime treats
received arrays as read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Sequence

import numpy as np

from repro import obs
from repro._validation import require_nonnegative_int
from repro.hardware.cluster import NetworkSpec
from repro.simulate.engine import Engine, Event
from repro.simulate.resources import Store
from repro.simulate.trace import Trace

#: Fallback size estimate for payloads we cannot introspect.
_DEFAULT_OBJECT_BYTES = 64.0

#: Reserved tag for the heartbeat/ack layer (outside app and collective tags).
HEARTBEAT_TAG = -777


def describe_tag(tag: int) -> str:
    """Human-readable class of a message tag.

    Tags encode their origin by range (see :mod:`repro.runtime.phases`
    for the runtime's conventions); the class is what the comm matrix and
    the per-pair Prometheus series label traffic with, keeping label
    cardinality bounded while per-iteration tags stay unique for
    non-overtaking delivery.
    """
    if tag == HEARTBEAT_TAG:
        return "heartbeat"
    if tag >= 100_000:
        return "shuffle"
    if 4000 <= tag < 100_000:
        return "stop"
    if 3000 <= tag < 4000:
        return "gather"
    if 1000 <= tag < 3000:
        return "state"
    if tag < 0:
        return "collective"
    return "p2p"


@dataclass
class _Envelope:
    """In-flight message metadata riding the mailbox with the payload."""

    payload: Any
    msg_id: int
    src: int
    dest: int
    tag: int
    nbytes: float
    sent_at: float
    visible_at: float
    retransmits: int = 0
    delay_s: float = 0.0


class CommTimeout(RuntimeError):
    """A ``recv`` with a timeout saw no matching message in time."""

    def __init__(self, rank: int, source: int, tag: int, timeout: float) -> None:
        self.rank = rank
        self.source = source
        self.tag = tag
        self.timeout = timeout
        super().__init__(
            f"rank {rank}: recv from rank {source} tag {tag} timed out "
            f"after {timeout:g}s"
        )


class EpochAborted(RuntimeError):
    """The current epoch's global abort event fired (a rank was declared
    dead); every blocked receive unwinds so the driver can restart."""

    def __init__(self, cause: Any = None) -> None:
        self.cause = cause
        super().__init__(f"epoch aborted: {cause!r}")


def payload_nbytes(obj: Any) -> float:
    """Wire-size estimate (bytes) of a message payload.

    NumPy arrays report their exact buffer size; containers are summed
    recursively with a small per-item framing overhead; scalars cost a
    machine word.  This mirrors what mpi4py's buffer path would move.
    """
    if obj is None:
        return 0.0
    if isinstance(obj, np.ndarray):
        return float(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return float(len(obj))
    if isinstance(obj, str):
        return float(len(obj.encode("utf-8")))
    if isinstance(obj, (bool, int, float, complex, np.generic)):
        return 8.0
    if isinstance(obj, dict):
        return sum(
            payload_nbytes(k) + payload_nbytes(v) + 8.0 for k, v in obj.items()
        )
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(payload_nbytes(item) + 8.0 for item in obj)
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, (int, float)):
        return float(nbytes)
    return _DEFAULT_OBJECT_BYTES


class World:
    """The communicator group: ``size`` ranks over one network spec.

    Parameters
    ----------
    engine:
        The DES engine all ranks run on.
    size:
        Number of ranks.
    network:
        Interconnect parameters; defaults to a fast LAN.
    node_of:
        Optional mapping from rank to physical node index; ranks on the
        same node exchange messages for free.  Defaults to one rank per
        node.
    trace:
        Optional :class:`Trace` receiving a ``net`` record per message.
    """

    def __init__(
        self,
        engine: Engine,
        size: int,
        network: NetworkSpec | None = None,
        node_of: Callable[[int], int] | None = None,
        trace: Trace | None = None,
        contended: bool = False,
    ) -> None:
        if size < 1:
            raise ValueError(f"world size must be >= 1, got {size}")
        self.engine = engine
        self.size = size
        self.network = network if network is not None else NetworkSpec()
        self.node_of = node_of if node_of is not None else (lambda rank: rank)
        self.trace = trace
        #: model per-node ingress NIC contention: concurrent messages into
        #: one rank serialize on its link (the gather-hotspot effect).
        #: Egress is already serial — a rank's sends occupy its process.
        self.contended = contended
        self._ingress: dict[int, "Link"] = {}
        if contended:
            from repro.simulate.resources import Link

            for rank in range(size):
                self._ingress[rank] = Link(
                    engine,
                    bandwidth_gbps=self.network.bandwidth,
                    latency=self.network.latency,
                    name=f"nic{rank}",
                )
        if trace is not None and trace.sampler is not None:
            # Declare the α/β wire model of the inter-node link so the
            # sampler can derive offered-load and observed-vs-model
            # series (rank-local messages are free: no model to watch).
            trace.sampler.register_link_model(
                "remote",
                latency_s=self.network.latency,
                bytes_per_s=self.network.bandwidth * 1e9,
            )
        self._mailboxes: dict[tuple[int, int, int], Store] = {}
        #: aggregate message accounting for reports
        self.messages_sent = 0
        self.bytes_sent = 0.0
        #: next message id — unique per delivered message within a world,
        #: stamped on the paired send/recv spans so exports can link them
        self._next_msg_id = 1
        #: fault-tolerance wiring (None/absent in fault-free runs); set via
        #: :meth:`attach_faults` by the driver.
        self.faults = None
        self.abort_event: Event | None = None
        self.comm_timeout: float | None = None
        #: live (dest_rank, src_rank, tag) -> count of blocked receives;
        #: reported when the engine drains with a process still waiting,
        #: turning a silent deadlock into a named one.
        self._blocked: dict[tuple[int, int, int], int] = {}
        engine.diagnostics.append(self._blocked_report)

    def attach_faults(
        self,
        faults: Any,
        abort_event: Event | None = None,
        comm_timeout: float | None = None,
    ) -> None:
        """Wire fault injection into this world's message path."""
        self.faults = faults
        self.abort_event = abort_event
        self.comm_timeout = comm_timeout
        if faults is not None and self.contended:
            for link in self._ingress.values():
                link.time_scale = faults.net_scale

    def _blocked_report(self) -> str | None:
        pairs = sorted(key for key, n in self._blocked.items() if n > 0)
        if not pairs:
            return None
        detail = ", ".join(
            f"rank {dest} <- rank {src} (tag {tag})"
            for dest, src, tag in pairs
        )
        return f"blocked recv with no matching sender: {detail}"

    def comm(self, rank: int) -> "RankComm":
        """The per-rank handle for *rank*."""
        require_nonnegative_int("rank", rank)
        if rank >= self.size:
            raise ValueError(f"rank {rank} out of range for size {self.size}")
        return RankComm(self, rank)

    # ------------------------------------------------------------------
    def _mailbox(self, dest: int, src: int, tag: int) -> Store:
        key = (dest, src, tag)
        box = self._mailboxes.get(key)
        if box is None:
            box = Store(self.engine, name=f"mbox{key}")
            self._mailboxes[key] = box
        return box

    def wire_time(self, src: int, dest: int, nbytes: float) -> float:
        """Seconds for *nbytes* from rank *src* to rank *dest*."""
        if self.node_of(src) == self.node_of(dest):
            return 0.0
        return self.network.point_to_point_time(nbytes)


class RankComm:
    """One rank's view of the world (mirrors a tiny slice of mpi4py)."""

    def __init__(self, world: World, rank: int) -> None:
        self.world = world
        self.rank = rank

    @property
    def size(self) -> int:
        return self.world.size

    @property
    def engine(self) -> Engine:
        return self.world.engine

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def send(
        self, payload: Any, dest: int, tag: int = 0
    ) -> Generator[Event, Any, None]:
        """Eager send: charge the wire time, then deposit at *dest*."""
        if not 0 <= dest < self.size:
            raise ValueError(f"dest {dest} out of range")
        nbytes = payload_nbytes(payload)
        first_start = self.engine.now
        start = first_start
        world = self.world
        faults = world.faults
        src_node = world.node_of(self.rank)
        dest_node = world.node_of(dest)
        same_node = src_node == dest_node
        retransmits = 0
        while True:
            if not same_node:
                if world.contended:
                    # Serialize on the destination's ingress NIC.
                    yield from world._ingress[dest].transfer(nbytes)
                else:
                    delay = world.wire_time(self.rank, dest, nbytes)
                    if faults is not None and delay > 0:
                        delay *= faults.net_scale(self.engine.now)
                    if delay > 0:
                        yield self.engine.timeout(delay)
            if (
                faults is not None
                and not same_node
                and faults.consume_drop(src_node, dest_node, start)
            ):
                # The message was lost in flight: wait out the retransmit
                # timer and pay the wire again.
                retransmits += 1
                if world.trace is not None:
                    world.trace.metrics.counter(obs.COMM_RETRANSMITS).inc(
                        1, src=f"r{self.rank}"
                    )
                    log = world.trace.log
                    if log is not None:
                        log.warning(
                            "comm",
                            f"message r{self.rank}->r{dest} t{tag} dropped; "
                            f"retransmit {retransmits}",
                            t=self.engine.now,
                            rank=world.trace.rank_of(f"net.r{self.rank}"),
                            src=self.rank,
                            dst=dest,
                            nbytes=nbytes,
                        )
                yield self.engine.timeout(faults.policy.retransmit_timeout_s)
                start = self.engine.now
                continue
            break
        delay_s = 0.0
        if faults is not None and not same_node:
            delay_s = faults.msg_delay(src_node, dest_node, start)
            if delay_s > 0:
                yield self.engine.timeout(delay_s)
        trace = world.trace
        # Host-profiling note: the delivery tail below never yields, so a
        # wall-clock scope here cannot span simulated suspension — it
        # meters exactly the bookkeeping this rank does for one message.
        prof = trace.selfprof if trace is not None else None
        if prof is not None:
            prof.begin("comm:deliver")
        try:
            msg_id = (
                trace.next_msg_id() if trace is not None else world._next_msg_id
            )
            world._next_msg_id += 1
            link = "local" if same_node else "remote"
            if trace is not None:
                # One send span per *delivered* message, covering the whole
                # delivery effort (retransmit timers and fault delays
                # included), so its end is the instant the payload becomes
                # visible at the destination.  The matched receive span
                # carries the same msg_id.
                attrs: dict[str, Any] = {
                    "msg_id": msg_id,
                    "src": self.rank,
                    "dst": dest,
                    "src_node": src_node,
                    "dst_node": dest_node,
                    "tag": tag,
                    "tagc": describe_tag(tag),
                    "link": link,
                    # Fault-free analytic wire time (NetworkModel.p2p): the
                    # observed-vs-predicted ratio exposes contention,
                    # degradation windows, and retransmit storms per message.
                    "pred_s": world.wire_time(self.rank, dest, nbytes),
                }
                if retransmits:
                    attrs["retransmits"] = retransmits
                if delay_s > 0:
                    attrs["delay_s"] = delay_s
                trace.record(
                    f"msg r{self.rank}->r{dest} t{tag}",
                    f"net.r{self.rank}",
                    "net",
                    first_start,
                    self.engine.now,
                    nbytes=nbytes,
                    attrs=attrs,
                )
                metrics = trace.metrics
                labels = dict(
                    src=f"r{self.rank}", dst=f"r{dest}", tag=describe_tag(tag),
                    link=link,
                )
                metrics.counter(obs.COMM_MESSAGES).inc(1, **labels)
                metrics.counter(obs.COMM_BYTES).inc(nbytes, **labels)
                log = trace.log
                if log is not None and not same_node:
                    # Slow-delivery narration: observed delivery at or
                    # beyond 2x the analytic α/β wire time — the same
                    # 2.0 factor the link-over-utilization alert rule
                    # uses, so an alert's flight dump carries the
                    # per-message WARNs that explain it.
                    pred_s = attrs["pred_s"]
                    actual_s = self.engine.now - first_start
                    if pred_s > 0 and actual_s >= 2.0 * pred_s:
                        log.warning(
                            "comm",
                            f"slow delivery r{self.rank}->r{dest} t{tag}: "
                            f"{actual_s:.3g}s vs predicted {pred_s:.3g}s",
                            t=self.engine.now,
                            rank=trace.rank_of(f"net.r{self.rank}"),
                            msg_id=msg_id,
                            nbytes=nbytes,
                            ratio=round(actual_s / pred_s, 3),
                        )
            world.messages_sent += 1
            world.bytes_sent += nbytes
            world._mailbox(dest, self.rank, tag).put(
                _Envelope(
                    payload=payload,
                    msg_id=msg_id,
                    src=self.rank,
                    dest=dest,
                    tag=tag,
                    nbytes=nbytes,
                    sent_at=first_start,
                    visible_at=self.engine.now,
                    retransmits=retransmits,
                    delay_s=delay_s,
                )
            )
        finally:
            if prof is not None:
                prof.end()

    def recv(
        self, source: int, tag: int = 0, timeout: float | None = None
    ) -> Generator[Event, Any, Any]:
        """Blocking receive of the next message from (*source*, *tag*).

        *timeout* (or, failing that, the world's configured
        ``comm_timeout``) bounds the wait and raises :class:`CommTimeout`
        on expiry; when the world carries a global abort event the wait
        also unwinds with :class:`EpochAborted` as soon as it fires.  With
        neither configured this is a plain blocking receive.
        """
        if not 0 <= source < self.size:
            raise ValueError(f"source {source} out of range")
        world = self.world
        box = world._mailbox(self.rank, source, tag)
        abort = world.abort_event
        wait_limit = timeout if timeout is not None else world.comm_timeout
        key = (self.rank, source, tag)
        entered = self.engine.now
        world._blocked[key] = world._blocked.get(key, 0) + 1
        try:
            if abort is None and wait_limit is None:
                get_evt = box.get()
                try:
                    payload = yield get_evt
                except BaseException:
                    if not get_evt.triggered:
                        box.cancel(get_evt)
                    raise
                return self._finish_recv(payload, tag, entered)
            get_evt = box.get()
            races: list[Event] = [get_evt]
            timer: Event | None = None
            if wait_limit is not None:
                timer = self.engine.timeout(wait_limit)
                races.append(timer)
            if abort is not None:
                races.append(abort)
            try:
                index, value = yield self.engine.any_of(races)
            except BaseException:
                if not get_evt.triggered:
                    box.cancel(get_evt)
                raise
            if races[index] is get_evt:
                return self._finish_recv(value, tag, entered)
            if get_evt.triggered:
                # Message and timeout/abort landed at the same instant:
                # the data wins (matches MPI, where a matched recv
                # completes).
                return self._finish_recv(get_evt.value, tag, entered)
            box.cancel(get_evt)
            if timer is not None and races[index] is timer:
                if world.trace is not None:
                    world.trace.metrics.counter(obs.COMM_TIMEOUTS).inc(
                        1, rank=f"r{self.rank}"
                    )
                    world.trace.record_recv(
                        f"recv r{source}->r{self.rank} t{tag} timeout",
                        f"net.r{self.rank}",
                        entered,
                        self.engine.now,
                        attrs={
                            "src": source,
                            "dst": self.rank,
                            "tag": tag,
                            "tagc": describe_tag(tag),
                            "timeout": True,
                            "wait_s": self.engine.now - entered,
                        },
                    )
                    log = world.trace.log
                    if log is not None:
                        log.warning(
                            "comm",
                            f"recv r{source}->r{self.rank} t{tag} timed out "
                            f"after {wait_limit:.3g}s",
                            t=self.engine.now,
                            rank=world.trace.rank_of(f"net.r{self.rank}"),
                            src=source,
                            tag=describe_tag(tag),
                        )
                raise CommTimeout(self.rank, source, tag, wait_limit)
            raise EpochAborted(abort.value if abort is not None else None)
        finally:
            remaining = world._blocked.get(key, 1) - 1
            if remaining > 0:
                world._blocked[key] = remaining
            else:
                world._blocked.pop(key, None)

    def _finish_recv(self, raw: Any, tag: int, entered: float) -> Any:
        """Unwrap a mailbox item, recording the paired ``recv`` span.

        The span covers the receiver's actual wait (call entry to message
        arrival) and carries the sender's ``msg_id`` so analysis can pair
        it 1:1 with the matching send span.  It is bookkeeping only — a
        ``recv``-category span, never device activity — so busy-time
        counters, utilization, and schedules are untouched.
        """
        if not isinstance(raw, _Envelope):
            return raw
        world = self.world
        trace = world.trace
        if trace is not None:
            prof = trace.selfprof
            if prof is not None:
                prof.begin("comm:recv")
            try:
                now = self.engine.now
                attrs: dict[str, Any] = {
                    "msg_id": raw.msg_id,
                    "src": raw.src,
                    "dst": self.rank,
                    "src_node": world.node_of(raw.src),
                    "dst_node": world.node_of(self.rank),
                    "tag": tag,
                    "tagc": describe_tag(tag),
                    "nbytes": raw.nbytes,
                    "sent_at": raw.sent_at,
                    "wait_s": now - entered,
                }
                if raw.retransmits:
                    attrs["retransmits"] = raw.retransmits
                if raw.delay_s > 0:
                    attrs["delay_s"] = raw.delay_s
                trace.record_recv(
                    f"recv r{raw.src}->r{self.rank} t{tag}",
                    f"net.r{self.rank}",
                    entered,
                    now,
                    attrs=attrs,
                )
            finally:
                if prof is not None:
                    prof.end()
        return raw.payload

    # ------------------------------------------------------------------
    # Collectives (binomial trees rooted at *root*)
    # ------------------------------------------------------------------
    def _vrank(self, rank: int, root: int) -> int:
        return (rank - root) % self.size

    def _rrank(self, vrank: int, root: int) -> int:
        return (vrank + root) % self.size

    def bcast(
        self, payload: Any, root: int = 0, tag: int = -1
    ) -> Generator[Event, Any, Any]:
        """Binomial-tree broadcast; every rank returns the payload.

        The classic MPICH algorithm: a non-root rank receives from the
        parent that differs in its highest relevant bit, then forwards to
        the ranks below it in the tree.
        """
        me = self._vrank(self.rank, root)
        size = self.size
        if size == 1:
            return payload
        mask = 1
        while mask < size:
            if me & mask:
                parent = self._rrank(me - mask, root)
                payload = yield from self.recv(parent, tag)
                break
            mask <<= 1
        mask >>= 1
        while mask > 0:
            if me + mask < size:
                yield from self.send(payload, self._rrank(me + mask, root), tag)
            mask >>= 1
        return payload

    def reduce(
        self,
        payload: Any,
        op: Callable[[Any, Any], Any],
        root: int = 0,
        tag: int = -2,
    ) -> Generator[Event, Any, Any]:
        """Binomial-tree reduction; returns the result at *root*, else None.

        *op* must be associative and commutative (e.g. ``operator.add`` or
        ``np.add``); reduction order follows the tree.
        """
        me = self._vrank(self.rank, root)
        size = self.size
        acc = payload
        bit = 1
        while bit < size:
            if me & bit:
                parent = self._rrank(me & ~bit, root)
                yield from self.send(acc, parent, tag)
                return None
            partner = me | bit
            if partner < size:
                other = yield from self.recv(self._rrank(partner, root), tag)
                acc = op(acc, other)
            bit <<= 1
        return acc if me == 0 else None

    def gather(
        self, payload: Any, root: int = 0, tag: int = -4
    ) -> Generator[Event, Any, Any]:
        """Linear gather: root returns the rank-ordered list, others None."""
        if self.rank == root:
            out: list[Any] = [None] * self.size
            out[root] = payload
            for src in range(self.size):
                if src == root:
                    continue
                out[src] = yield from self.recv(src, tag)
            return out
        yield from self.send(payload, root, tag)
        return None

    def scatter(
        self, payloads: list[Any] | None, root: int = 0, tag: int = -5
    ) -> Generator[Event, Any, Any]:
        """Linear scatter: each rank returns its slot of root's list."""
        if self.rank == root:
            if payloads is None or len(payloads) != self.size:
                raise ValueError(
                    f"root must pass exactly {self.size} payloads"
                )
            for dest in range(self.size):
                if dest == root:
                    continue
                yield from self.send(payloads[dest], dest, tag)
            return payloads[root]
        item = yield from self.recv(root, tag)
        return item

    def alltoall(
        self, payloads: list[Any], tag: int = -8
    ) -> Generator[Event, Any, list[Any]]:
        """Personalized all-to-all: rank ``i`` sends ``payloads[j]`` to
        rank ``j`` and returns the list of what every rank sent *it*.

        This is the PRS shuffle primitive ("the PRS scheduler shuffles all
        intermediate key/value pairs across the cluster").  The exchange
        uses the standard pairwise pattern: in round ``r`` each rank
        exchanges with ``rank XOR r`` — ``P-1`` rounds, no root hotspot.
        """
        if len(payloads) != self.size:
            raise ValueError(
                f"alltoall needs exactly {self.size} payloads, got "
                f"{len(payloads)}"
            )
        result: list[Any] = [None] * self.size
        result[self.rank] = payloads[self.rank]
        size = self.size
        # Pad the round count to the next power of two so XOR pairing is a
        # valid permutation; partners >= size simply skip the round.
        rounds = 1
        while rounds < size:
            rounds <<= 1
        for r in range(1, rounds):
            partner = self.rank ^ r
            if partner >= size:
                continue
            # Deterministic order avoids send/recv deadlock-shaped waits:
            # lower rank sends first (sends are eager so either order
            # completes, but fixed order keeps timing reproducible).
            if self.rank < partner:
                yield from self.send(payloads[partner], partner, tag + r)
                result[partner] = yield from self.recv(partner, tag + r)
            else:
                result[partner] = yield from self.recv(partner, tag + r)
                yield from self.send(payloads[partner], partner, tag + r)
        return result


def heartbeat_sender(
    comm: "RankComm", dests: list[int], interval: float
) -> Generator[Event, Any, None]:
    """Beat every *interval* seconds to each rank in *dests* until
    interrupted (the owning worker kills it in its cleanup path)."""
    from repro.simulate.engine import Interrupt

    try:
        while True:
            yield comm.engine.timeout(interval)
            for dest in dests:
                yield from comm.send(
                    ("hb", comm.rank), dest, HEARTBEAT_TAG
                )
                if comm.world.trace is not None:
                    comm.world.trace.metrics.counter(obs.COMM_HEARTBEATS).inc(
                        1, src=f"r{comm.rank}"
                    )
                    log = comm.world.trace.log
                    if log is not None and log.wants_debug:
                        log.debug(
                            "comm",
                            f"heartbeat r{comm.rank}->r{dest}",
                            t=comm.engine.now,
                            rank=comm.world.trace.rank_of(
                                f"net.r{comm.rank}"
                            ),
                        )
    except Interrupt:
        return


def heartbeat_monitor(
    comm: "RankComm",
    source: int,
    timeout: float,
    abort_event: Event,
    missed_windows: int = 1,
) -> Generator[Event, Any, None]:
    """Consume heartbeats from *source*; after *missed_windows*
    consecutive missed windows (each *timeout* long), fire the epoch's
    global abort event (once) and exit.  Any beat received resets the
    miss counter (``FaultPolicy.heartbeat_missed_windows`` threads the
    knob through; the historic behaviour is ``missed_windows=1``)."""
    from repro.simulate.engine import Interrupt

    misses = 0
    try:
        while True:
            try:
                yield from comm.recv(source, HEARTBEAT_TAG, timeout=timeout)
                misses = 0
            except CommTimeout:
                misses += 1
                if misses < missed_windows:
                    continue
                if comm.world.trace is not None:
                    log = comm.world.trace.log
                    if log is not None:
                        log.error(
                            "comm",
                            f"rank r{source} silent for {misses} heartbeat "
                            f"window(s); declaring dead",
                            t=comm.engine.now,
                            rank=comm.world.trace.rank_of(
                                f"net.r{comm.rank}"
                            ),
                            peer=source,
                            window_s=timeout,
                        )
                if not abort_event.triggered:
                    abort_event.succeed(("rank-silent", source))
                return
            except EpochAborted:
                return
    except Interrupt:
        return


def spawn_heartbeats(
    world: "World",
    policy: Any,
    abort_event: Event,
    node_of_rank: Sequence[int],
) -> list[tuple[int, Any]]:
    """Wire the epoch's heartbeat layer over a (re)sized communicator.

    Every worker beats to the master and the master beats back; a
    monitor on each side declares a silent peer dead by firing
    *abort_event*.  Called by the job driver once per epoch of a faulted
    or elastic run — after a communicator resize (rank death, join,
    drain) this is the "heartbeat re-registration" step: monitors are
    rebuilt for exactly the current live rank numbering.

    *node_of_rank* maps comm rank -> physical pool node (for process
    bookkeeping); *policy* supplies ``heartbeat_interval_s``,
    ``heartbeat_miss_factor`` and ``heartbeat_missed_windows``.
    Returns ``(node_index, process)`` pairs so the caller can register
    them for rank-kill delivery and interrupt them at epoch end.
    """
    engine = world.engine
    interval = policy.heartbeat_interval_s
    hb_timeout = interval * policy.heartbeat_miss_factor
    windows = policy.heartbeat_missed_windows
    hb_procs: list[tuple[int, Any]] = []
    for rank in range(world.size):
        comm = world.comm(rank)
        if rank == 0:
            peers = list(range(1, world.size))
            hb_procs.append(
                (
                    node_of_rank[0],
                    engine.process(
                        heartbeat_sender(comm, peers, interval),
                        name="hb-send.r0",
                    ),
                )
            )
            for src in peers:
                hb_procs.append(
                    (
                        node_of_rank[0],
                        engine.process(
                            heartbeat_monitor(
                                comm, src, hb_timeout, abort_event, windows
                            ),
                            name=f"hb-mon.r0.{src}",
                        ),
                    )
                )
        else:
            hb_procs.append(
                (
                    node_of_rank[rank],
                    engine.process(
                        heartbeat_sender(comm, [0], interval),
                        name=f"hb-send.r{rank}",
                    ),
                )
            )
            hb_procs.append(
                (
                    node_of_rank[rank],
                    engine.process(
                        heartbeat_monitor(
                            comm, 0, hb_timeout, abort_event, windows
                        ),
                        name=f"hb-mon.r{rank}.0",
                    ),
                )
            )
    return hb_procs


def run_spmd(
    world: World,
    main: Callable[[RankComm], Generator[Event, Any, Any]],
    supervise: Callable[[list[Any]], list[Any]] | None = None,
) -> list[Any]:
    """Launch *main(comm)* as one DES process per rank and run to completion.

    Returns the per-rank return values in rank order — the simulated
    equivalent of ``mpiexec -n SIZE python script.py``.

    *supervise*, when given, sees the rank processes once they all exist
    and before the engine runs; it returns helper processes (the job
    driver's heartbeat layer) that are interrupted once every rank has
    returned.
    """
    engine = world.engine
    procs = [
        engine.process(main(world.comm(rank)), name=f"rank{rank}")
        for rank in range(world.size)
    ]
    helpers = supervise(procs) if supervise is not None else []
    exits = list(engine.run(engine.all_of(procs)))
    for proc in helpers:
        if proc.is_alive:
            proc.interrupt("epoch over")
    return exits
