"""Contended resources of the simulated machine.

* :class:`Resource` — counted resource with FIFO queueing (CPU core pools,
  the GPU compute engine, copy engines).
* :class:`CorePool` — a :class:`Resource` named after a device's cores.
* :class:`Link` — a bandwidth pipe (PCI-E bus, network NIC) on which
  transfers serialize FIFO; a transfer of ``n`` bytes holds the link for
  ``latency + n / bandwidth`` seconds.  FIFO (rather than fair-share)
  matches how a single DMA/copy engine drains its queue.
* :class:`Store` — an unbounded FIFO of items with blocking ``get``; the
  message-passing primitive under :mod:`repro.comm.mpi` and the dynamic
  scheduler's work queues.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator

from repro._validation import require_nonnegative, require_positive
from repro.simulate.engine import Engine, Event


class Resource:
    """A counted resource with FIFO request queueing.

    Usage from a process::

        req = resource.request()
        yield req
        ...               # hold the resource
        resource.release()
    """

    def __init__(self, engine: Engine, capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: deque[Event] = deque()
        #: total grant count, for utilization accounting in tests
        self.grants = 0

    # ------------------------------------------------------------------
    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def request(self) -> Event:
        """Return an event that fires when one unit is granted."""
        evt = self.engine.event()
        if self._in_use < self.capacity:
            self._in_use += 1
            self.grants += 1
            evt.succeed()
        else:
            self._waiters.append(evt)
        return evt

    def release(self) -> None:
        """Release one unit; hands it to the oldest waiter if any."""
        if self._in_use <= 0:
            raise RuntimeError(f"{self.name}: release without grant")
        if self._waiters:
            # Unit passes directly to the next waiter; _in_use unchanged.
            self.grants += 1
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1

    def cancel(self, evt: Event) -> None:
        """Withdraw an outstanding request (interrupted waiter cleanup).

        If the request is still queued it is simply removed.  If it was
        already granted — including a grant scheduled but not yet seen by
        the interrupted process — the unit is returned via :meth:`release`
        so it is not leaked.
        """
        try:
            self._waiters.remove(evt)
            return
        except ValueError:
            pass
        if evt.triggered:
            self.release()

    def acquire(self) -> Generator[Event, Any, None]:
        """Process fragment: acquire one unit, cancelling on interrupt.

        Equivalent to ``yield resource.request()`` except that an
        exception thrown into the wait (e.g. an :class:`Interrupt`) never
        leaks the unit or leaves a zombie waiter behind.
        """
        req = self.request()
        try:
            yield req
        except BaseException:
            self.cancel(req)
            raise

    def using(self, duration: float) -> Generator[Event, Any, None]:
        """Process fragment: acquire, hold *duration* seconds, release."""
        require_nonnegative("duration", duration)
        yield from self.acquire()
        try:
            yield self.engine.timeout(duration)
        finally:
            self.release()


class CorePool(Resource):
    """A pool of identical cores (one unit = one core)."""

    def __init__(self, engine: Engine, cores: int, name: str = "cores") -> None:
        super().__init__(engine, capacity=cores, name=name)


class Link:
    """A FIFO bandwidth pipe: transfers serialize, each paying
    ``latency + nbytes / (bandwidth_gbps * 1e9)`` seconds of occupancy.
    """

    def __init__(
        self,
        engine: Engine,
        bandwidth_gbps: float,
        latency: float = 0.0,
        name: str = "link",
    ) -> None:
        require_positive("bandwidth_gbps", bandwidth_gbps)
        require_nonnegative("latency", latency)
        self.engine = engine
        self.bandwidth_gbps = bandwidth_gbps
        self.latency = latency
        self.name = name
        self._channel = Resource(engine, capacity=1, name=f"{name}.channel")
        #: cumulative bytes moved, for utilization accounting
        self.bytes_moved = 0.0
        #: cumulative seconds the link was occupied
        self.busy_time = 0.0
        #: optional occupancy multiplier ``f(now) -> float`` consulted per
        #: transfer; fault injection degrades a PCI-E bus or NIC for a time
        #: window by installing one.  ``None`` (the default) adds no cost.
        self.time_scale = None

    def occupancy(self, nbytes: float) -> float:
        """Seconds one transfer of *nbytes* holds the link."""
        require_nonnegative("nbytes", nbytes)
        return self.latency + nbytes / (self.bandwidth_gbps * 1e9)

    def transfer(self, nbytes: float) -> Generator[Event, Any, None]:
        """Process fragment performing one FIFO transfer of *nbytes*."""
        duration = self.occupancy(nbytes)
        if self.time_scale is not None:
            duration *= max(float(self.time_scale(self.engine.now)), 1.0)
        yield from self._channel.acquire()
        try:
            yield self.engine.timeout(duration)
            self.bytes_moved += nbytes
            self.busy_time += duration
        finally:
            self._channel.release()

    @property
    def queue_length(self) -> int:
        return self._channel.queue_length


class Store:
    """Unbounded FIFO of items with blocking ``get`` (message mailbox)."""

    def __init__(self, engine: Engine, name: str = "store") -> None:
        self.engine = engine
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def put(self, item: Any) -> None:
        """Deposit *item*; wakes the oldest blocked getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event yielding the next item (blocks until one)."""
        evt = self.engine.event()
        if self._items:
            evt.succeed(self._items.popleft())
        else:
            self._getters.append(evt)
        return evt

    def cancel(self, evt: Event) -> None:
        """Withdraw a pending ``get`` (e.g. a recv that timed out).

        A zombie getter left in the queue would steal the next item put —
        for message mailboxes that silently swallows a message meant for a
        later receiver.  Already-satisfied gets cannot be cancelled; the
        caller must consume (or forward) the delivered item.
        """
        try:
            self._getters.remove(evt)
        except ValueError:
            if evt.triggered:
                raise RuntimeError(
                    f"{self.name}: cannot cancel a satisfied get; the item "
                    "was already delivered"
                ) from None

    def __len__(self) -> int:
        return len(self._items)
