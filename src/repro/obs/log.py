"""Structured event log + per-rank flight recorder.

The fifth observability pillar (after metrics, spans, time-series, and
host profiles): leveled, simulated-time-stamped records with sorted
labels, automatically correlated to the enclosing span — at emit time a
record inherits the open phase span's id plus its ``iteration`` /
``dag_node`` attrs, so every line of the log can be joined back to the
span tree it happened inside.

Each rank owns a **bounded ring buffer** (plus one ring for driver-side
records with no rank): the log never grows without bound, and what it
retains is exactly the causally-ordered tail a post-mortem wants — a
flight recorder.  :meth:`EventLog.dump` snapshots that tail whenever a
fault fires, an alert rule trips, or a membership epoch bumps; the
resulting :class:`FlightDump` rides the recovery summary and the saved
profile.

Zero-perturbation contract (docs/LOGGING.md): the log is pure host-side
bookkeeping.  It schedules no simulated event and is only ever reached
behind ``log is None`` guards, so a run with logging enabled is bitwise
identical (engine events, makespan, outputs, sampler samples) to the
same run with logging off — the same contract the sampler (PR 7) and
the self-profiler (PR 9) keep, gated by
``benchmarks/bench_obs_overhead.py``.

Like the rest of :mod:`repro.obs`, this module imports only the
standard library.  Span correlation is duck-typed: the trace binds its
open-phase map via :meth:`EventLog.bind_phases` instead of this module
importing the simulator.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

__all__ = [
    "DEFAULT_RING_SIZE",
    "DUMP_TAIL",
    "LEVELS",
    "MAX_DUMPS",
    "EventLog",
    "FlightDump",
    "LogRecord",
    "unpaired_errors",
]

#: level taxonomy, coarsest-grained useful set; numeric severities follow
#: the stdlib so the ordering reads familiarly
LEVELS: dict[str, int] = {"debug": 10, "info": 20, "warning": 30, "error": 40}

#: per-rank ring capacity — the flight recorder's retention horizon
DEFAULT_RING_SIZE = 256

#: records per flight dump (the causally-ordered tail across all rings)
DUMP_TAIL = 64

#: runaway guard: a retry storm must not turn every failure into a dump
MAX_DUMPS = 64


def _check_level(level: str) -> int:
    severity = LEVELS.get(level)
    if severity is None:
        raise ValueError(
            f"unknown log level {level!r}; expected one of {sorted(LEVELS)}"
        )
    return severity


@dataclass(frozen=True)
class LogRecord:
    """One structured event: leveled, labeled, span-correlated."""

    seq: int  #: global emission counter — the causal order
    t: float  #: simulated seconds
    level: str
    logger: str  #: emitting subsystem (``comm``, ``sched``, ``engine``, ...)
    message: str
    rank: int | None = None
    span_id: int | None = None
    #: sorted ``(key, value)`` labels, values stringified (metric-style)
    attrs: tuple[tuple[str, str], ...] = ()

    @property
    def severity(self) -> int:
        return LEVELS[self.level]

    def labels(self) -> dict[str, str]:
        return dict(self.attrs)

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "t": self.t,
            "level": self.level,
            "logger": self.logger,
            "message": self.message,
            "rank": self.rank,
            "span_id": self.span_id,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "LogRecord":
        _check_level(d["level"])
        return cls(
            seq=int(d["seq"]),
            t=float(d["t"]),
            level=d["level"],
            logger=d["logger"],
            message=d["message"],
            rank=d.get("rank"),
            span_id=d.get("span_id"),
            attrs=tuple(
                sorted((k, str(v)) for k, v in d.get("attrs", {}).items())
            ),
        )


@dataclass(frozen=True)
class FlightDump:
    """One flight-recorder snapshot: why it fired and the tail it saved."""

    trigger: str  #: ``fault`` | ``alert`` | ``epoch``
    cause: str  #: human cause (``rank-kill node 6``, a rule name, ...)
    t: float  #: simulated time of the trigger
    records: tuple[LogRecord, ...] = ()  #: causally ordered (by ``seq``)

    def to_dict(self) -> dict[str, Any]:
        return {
            "trigger": self.trigger,
            "cause": self.cause,
            "t": self.t,
            "records": [r.to_dict() for r in self.records],
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "FlightDump":
        return cls(
            trigger=d["trigger"],
            cause=d["cause"],
            t=float(d["t"]),
            records=tuple(
                LogRecord.from_dict(r) for r in d.get("records", ())
            ),
        )


class EventLog:
    """Leveled event log over per-rank bounded rings.

    Records below the configured level are dropped at the emit call —
    the one dict lookup they cost is the entire price of a disabled
    ``debug`` site.  Hot paths additionally pre-check
    :attr:`wants_debug` to skip even the message formatting.
    """

    def __init__(
        self, level: str = "info", ring_size: int = DEFAULT_RING_SIZE
    ) -> None:
        self._threshold = _check_level(level)
        if ring_size <= 0:
            raise ValueError(f"ring_size must be positive, got {ring_size}")
        self.level = level
        self.ring_size = ring_size
        self._rings: dict[int, deque[LogRecord]] = {}
        self._seq = 0
        #: records that passed the level filter (retained or since evicted)
        self.emitted = 0
        self.dumps: list[FlightDump] = []
        self._open_phase: Mapping[int, Any] | None = None

    # -- wiring --------------------------------------------------------
    def bind_phases(self, open_phase: Mapping[int, Any]) -> None:
        """Bind the trace's live rank -> open-phase-span map; emits on a
        bound log inherit span id / iteration / dag_node from it."""
        self._open_phase = open_phase

    # -- emit ----------------------------------------------------------
    @property
    def wants_debug(self) -> bool:
        return self._threshold <= LEVELS["debug"]

    def emit(
        self,
        level: str,
        logger: str,
        message: str,
        *,
        t: float,
        rank: int | None = None,
        span_id: int | None = None,
        **labels: Any,
    ) -> LogRecord | None:
        """Append one record; returns it, or None when level-filtered."""
        if _check_level(level) < self._threshold:
            return None
        attrs = {k: str(v) for k, v in labels.items()}
        if rank is not None and span_id is None and self._open_phase:
            span = self._open_phase.get(rank)
            if span is not None:
                span_id = span.span_id
                for key in ("iteration", "dag_node"):
                    value = span.attrs.get(key)
                    if value is not None and key not in attrs:
                        attrs[key] = str(value)
        record = LogRecord(
            seq=self._seq,
            t=t,
            level=level,
            logger=logger,
            message=message,
            rank=rank,
            span_id=span_id,
            attrs=tuple(sorted(attrs.items())),
        )
        self._seq += 1
        self.emitted += 1
        key = rank if rank is not None else -1
        ring = self._rings.get(key)
        if ring is None:
            ring = deque(maxlen=self.ring_size)
            self._rings[key] = ring
        ring.append(record)
        return record

    def debug(self, logger: str, message: str, **kw: Any):
        return self.emit("debug", logger, message, **kw)

    def info(self, logger: str, message: str, **kw: Any):
        return self.emit("info", logger, message, **kw)

    def warning(self, logger: str, message: str, **kw: Any):
        return self.emit("warning", logger, message, **kw)

    def error(self, logger: str, message: str, **kw: Any):
        return self.emit("error", logger, message, **kw)

    # -- read ----------------------------------------------------------
    def records(
        self,
        min_level: str | None = None,
        rank: int | None = None,
    ) -> list[LogRecord]:
        """The retained tail, merged across rings in causal (seq) order."""
        floor = _check_level(min_level) if min_level is not None else 0
        out = [
            r
            for key, ring in self._rings.items()
            for r in ring
            if r.severity >= floor and (rank is None or r.rank == rank)
        ]
        out.sort(key=lambda r: r.seq)
        return out

    def __len__(self) -> int:
        return sum(len(ring) for ring in self._rings.values())

    def ranks(self) -> list[int]:
        """Ring keys in sorted order (-1 = driver/unattributed records)."""
        return sorted(self._rings)

    # -- flight recorder -----------------------------------------------
    def dump(self, trigger: str, cause: str, t: float) -> FlightDump | None:
        """Snapshot the causally-ordered tail (last :data:`DUMP_TAIL`
        records across every ring); None once :data:`MAX_DUMPS` is hit."""
        if len(self.dumps) >= MAX_DUMPS:
            return None
        tail = tuple(self.records()[-DUMP_TAIL:])
        flight = FlightDump(trigger=trigger, cause=cause, t=t, records=tail)
        self.dumps.append(flight)
        return flight

    # -- (de)serialization ---------------------------------------------
    def meta_dict(self) -> dict[str, Any]:
        return {
            "level": self.level,
            "ring_size": self.ring_size,
            "emitted": self.emitted,
        }

    @classmethod
    def from_profile(
        cls,
        meta: Mapping[str, Any],
        records: Iterable[LogRecord] = (),
        dumps: Iterable[FlightDump] = (),
    ) -> "EventLog":
        """Rebuild a log from saved profile lines (retained tail only)."""
        log = cls(
            level=meta.get("level", "info"),
            ring_size=int(meta.get("ring_size", DEFAULT_RING_SIZE)),
        )
        for record in records:
            key = record.rank if record.rank is not None else -1
            ring = log._rings.get(key)
            if ring is None:
                ring = deque(maxlen=log.ring_size)
                log._rings[key] = ring
            ring.append(record)
            log._seq = max(log._seq, record.seq + 1)
        log.emitted = int(meta.get("emitted", len(log)))
        log.dumps = [d for d in dumps]
        return log


def unpaired_errors(log: EventLog, tracer) -> list[LogRecord]:
    """ERROR records with no recovery/alert span at-or-after them.

    Every ERROR the runtime emits narrates a failure the recovery layer
    then acts on (retry/blacklist/restart spans, category ``recovery``)
    or an operator is alerted to (category ``alert``) — so a healthy
    profile pairs each ERROR with such a span that was still open at, or
    started after, the record's timestamp.  Returns the records that
    pair with nothing; ``repro analyze --check`` fails on any.
    """
    horizons = [
        span.end if span.end is not None else float("inf")
        for category in ("recovery", "alert")
        for span in tracer.find(category=category)
    ]
    latest = max(horizons, default=None)
    out = []
    for record in log.records(min_level="error"):
        if latest is None or latest < record.t - 1e-9:
            out.append(record)
    return out
