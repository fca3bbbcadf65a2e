"""A minimal process-based discrete-event simulation kernel.

The kernel follows the SimPy process model: a *process* is a Python
generator that yields :class:`Event` objects and is resumed when the event
triggers.  Only the features the PRS simulation needs are implemented —
timeouts, process-completion events, AND/OR composition, interrupts — which
keeps the kernel small enough to reason about and test exhaustively.

Determinism: events scheduled for the same instant fire in FIFO scheduling
order (a monotone sequence number breaks heap ties), so simulations are
bit-reproducible across runs — a property the scheduling benchmarks rely
on.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double trigger, negative delay, ...)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value passed to ``interrupt``.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """An occurrence that processes can wait on.

    An event starts *pending*, becomes *triggered* when given a value (or
    failure), and runs its callbacks when the engine processes it.  Events
    may only trigger once.
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "_triggered", "_processed")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False

    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        return self._value

    # ------------------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with *value* after *delay*."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        self._ok = True
        self.engine._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event as a failure carrying *exception*."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._value = exception
        self._ok = False
        self.engine._schedule(self, delay)
        return self


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(engine)
        self.delay = delay
        self._triggered = True
        self._value = value
        engine._schedule(self, delay)


class Process(Event):
    """A running generator; also an event that fires when it returns.

    The generator yields :class:`Event` instances.  When a yielded event is
    processed the generator resumes with the event's value (or has the
    failure exception thrown into it).
    """

    __slots__ = ("generator", "name", "_waiting_on")

    def __init__(
        self,
        engine: "Engine",
        generator: Generator[Event, Any, Any],
        name: str = "proc",
    ) -> None:
        super().__init__(engine)
        self.generator = generator
        self.name = name
        self._waiting_on: Optional[Event] = None
        # Bootstrap: resume the process at the current instant.
        init = Event(engine)
        init.callbacks.append(self._resume)
        init.succeed()

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a process that already terminated is a programming
        error (the caller holds a stale handle); raise loudly instead of
        silently dropping the interrupt.  Callers that may legitimately
        race a process's completion should guard with ``is_alive``.
        """
        if not self.is_alive:
            raise SimulationError(
                f"cannot interrupt process {self.name!r}: it already "
                "terminated (guard the call with `proc.is_alive` if the "
                "race is intentional)"
            )
        exc = Interrupt(cause)
        wake = Event(self.engine)

        def _deliver(_evt: Event) -> None:
            if not self.is_alive:
                return
            waiting = self._waiting_on
            if waiting is not None and self._resume in waiting.callbacks:
                waiting.callbacks.remove(self._resume)
            self._waiting_on = None
            self._step(exc, throw=True)

        wake.callbacks.append(_deliver)
        wake.succeed()

    # ------------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        if event.ok:
            self._step(event.value, throw=False)
        else:
            self._step(event.value, throw=True)

    def _step(self, value: Any, throw: bool) -> None:
        try:
            if throw:
                target = self.generator.throw(value)
            else:
                target = self.generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt:
            raise SimulationError(
                f"process {self.name!r} did not handle an Interrupt"
            ) from None
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield Event instances"
            )
        if target.processed:
            # Already-processed events resume the process immediately (at
            # the current instant) rather than hanging forever.
            immediate = Event(self.engine)
            immediate.callbacks.append(self._resume)
            if target.ok:
                immediate.succeed(target.value)
            else:
                immediate.fail(target.value)  # type: ignore[arg-type]
            self._waiting_on = immediate
        else:
            target.callbacks.append(self._resume)
            self._waiting_on = target


class _Condition(Event):
    """Base for AllOf / AnyOf composition events."""

    __slots__ = ("events", "_remaining")

    def __init__(self, engine: "Engine", events: Iterable[Event]) -> None:
        super().__init__(engine)
        self.events = tuple(events)
        self._remaining = len(self.events)
        if self._remaining == 0:
            self.succeed([])
            return
        for evt in self.events:
            if evt.processed:
                self._on_child(evt)
            else:
                evt.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when every child event has fired; value = list of child values.

    A failed child fails the condition immediately with its exception.
    """

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e.value for e in self.events])


class AnyOf(_Condition):
    """Fires when the first child fires; value = (index, child value)."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self.succeed((self.events.index(event), event.value))


def _dispatch_scope(prof: Any, event: Event, callbacks: list) -> str:
    """Scope name charging this dispatch to an event/process class.

    When the first callback resumes a process, the dispatch is charged
    to that process's class (``engine:resume:<name-sans-digits>``) — in
    PRS the resumed generator does the actual work.  Otherwise the event
    itself is classified: a finished process (``engine:exit:...``), a
    timeout, or a bare event.  Classification reads only names and
    types; it is memoized per class inside the profiler.
    """
    if callbacks:
        owner = getattr(callbacks[0], "__self__", None)
        if isinstance(owner, Process):
            return prof.dispatch_key(owner.name, "resume")
    if isinstance(event, Process):
        return prof.dispatch_key(event.name, "exit")
    if isinstance(event, Timeout):
        return "engine:timeout"
    return "engine:event"


class Engine:
    """The event loop: a clock plus a priority queue of triggered events."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = 0
        #: optional :class:`repro.obs.selfprof.SelfProfiler`.  When set,
        #: ``step()`` brackets each event dispatch in a host wall-clock
        #: scope named for the resumed process class.  The profiler only
        #: reads the host clock — it never schedules events or touches
        #: ``now``/``_seq`` — so enabling it cannot perturb the
        #: simulation (see tests/obs/test_selfprof.py).
        self.selfprof: Optional[Any] = None
        #: optional structured :class:`repro.obs.log.EventLog`.  When
        #: set, dispatch failures (unwaited event errors, deadlocks) are
        #: narrated as ERROR records before the exception propagates.
        #: Emitting only appends to a host-side ring buffer — it never
        #: schedules events or touches ``now``/``_seq`` — so enabling it
        #: cannot perturb the simulation.
        self.log: Optional[Any] = None
        #: per-profiled-run cache: resumed process *name* -> its
        #: dispatch-scope tree node.  Classifying a dispatch costs
        #: isinstance checks and string work; a process is resumed many
        #: times, so the hot path is one dict hit.  Keyed by name (a
        #: small bounded set of strings), NOT the process object —
        #: holding every process alive would grow the GC's live set and
        #: tax every collection, a real (host-side) perturbation.  Only
        #: populated while ``selfprof`` is set.
        self._dispatch_nodes: dict[str, Any] = {}
        #: callables consulted when the queue drains while an awaited event
        #: is still pending; each may return a line of context (or None)
        #: that is appended to the deadlock error message.  Subsystems such
        #: as the simulated MPI layer register reporters here so a silent
        #: hang names the blocked (rank, tag) pairs instead of leaving the
        #: user to bisect the schedule.
        self.diagnostics: list[Callable[[], Optional[str]]] = []

    @property
    def events_scheduled(self) -> int:
        """Total events ever scheduled on this engine — a deterministic
        measure of simulated work.  The sampler-overhead benchmark
        compares this between sampled and unsampled runs (equal by
        construction: sampling schedules nothing)."""
        return self._seq

    # ------------------------------------------------------------------
    # Factory helpers
    # ------------------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Event, Any, Any], name: str = "proc"
    ) -> Process:
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # ------------------------------------------------------------------
    # Scheduling / running
    # ------------------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        heapq.heappush(self._queue, (self.now + delay, self._seq, event))
        self._seq += 1

    def step(self) -> None:
        """Process the single next event; raises IndexError when empty."""
        when, _, event = heapq.heappop(self._queue)
        if when < self.now:
            raise SimulationError("time went backwards")  # pragma: no cover
        self.now = when
        event._processed = True
        callbacks, event.callbacks = event.callbacks, []
        prof = self.selfprof
        if prof is not None:
            # Charge the dispatch to its event class (coalesced scopes);
            # a resumed process's class node is cached by process name.
            owner = getattr(callbacks[0], "__self__", None) if callbacks else None
            node = (self._dispatch_nodes.get(owner.name)
                    if owner.__class__ is Process else None)
            prof.dispatch(node or self._classify(prof, event, callbacks, owner))
        for callback in callbacks:
            callback(event)
        if not event.ok and not callbacks:
            # A failure nobody waits on would vanish silently; surface it.
            if self.log is not None:
                self.log.error(
                    "engine",
                    f"unwaited event failure: {event.value!r}",
                    t=self.now,
                )
            raise event.value  # type: ignore[misc]

    def _classify(
        self, prof: Any, event: Event, callbacks: list, owner: Any
    ) -> Any:
        """The profiler node of a dispatch missing from the node cache."""
        node = prof.node_for(_dispatch_scope(prof, event, callbacks))
        if owner.__class__ is Process:
            self._dispatch_nodes[owner.name] = node
        return node

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the queue drains, *until* time passes, or event fires.

        Returns the event's value when *until* is an event.
        """
        stop = until if isinstance(until, Event) else None
        if stop is not None:
            while not stop.processed:
                if not self._queue:
                    message = (
                        "queue drained before the awaited event triggered "
                        "(deadlock: a process is waiting on an event nobody "
                        "will fire)"
                    )
                    details = [
                        line
                        for line in (fn() for fn in self.diagnostics)
                        if line
                    ]
                    if details:
                        message += "\n" + "\n".join(details)
                    if self.log is not None:
                        self.log.error(
                            "engine",
                            "deadlock: queue drained with an awaited event "
                            "pending",
                            t=self.now,
                            diagnostics=len(details),
                        )
                    raise SimulationError(message)
                self.step()
        else:
            horizon = float("inf") if until is None else float(until)
            while self._queue and self._queue[0][0] <= horizon:
                self.step()
            if until is not None and horizon > self.now:
                self.now = horizon
        if self.selfprof is not None:
            self.selfprof.flush_dispatch()
        if stop is None:
            return None
        if not stop.ok:
            raise stop.value  # type: ignore[misc]
        return stop.value
