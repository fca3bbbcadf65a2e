"""Host-side self-profiling: where does the *simulator's* wall clock go?

Every other observability layer in this repo measures **simulated**
time.  This module meters the simulator itself — the Python process
executing the discrete-event engine — so the ROADMAP's profile-guided
engine-speedup work can be driven by measured hotspots instead of
guesses (StarPU's performance-feedback loop, applied to our own host).

Design:

* :class:`SelfProfiler` — nestable wall-clock scopes built on
  ``time.perf_counter``.  ``begin(name)`` / ``end()`` maintain a call
  tree keyed by scope name; the same name under different parents gets
  its own node, so exports are real call trees, not flat buckets.
  *Inclusive* time is accumulated on ``end()``; *exclusive* time is
  derived at export (inclusive minus the children's inclusive).
* Zero perturbation by construction: scopes read the host clock and
  mutate only the profiler's own dicts — they never touch engine state,
  never schedule events, and never consult simulated time.  A run with
  profiling enabled is therefore bitwise identical (events, spans,
  outputs) to the same run without it; only host wall time differs.
* One body per instrumented site: each hot path runs the same code
  with profiling on or off, and profiling is a side call into this
  module (``begin``/``end``, :meth:`SelfProfiler.call`,
  :meth:`SelfProfiler.dispatch`) made only when a profiler is attached
  — one attribute read + ``is`` test when profiling is off.  The frame
  stack is private to the profiler: no other module reads or writes
  it.  The enabled path is two ``perf_counter`` calls + two dict
  operations per scope, kept under the 5 % overhead budget asserted by
  ``benchmarks/bench_obs_overhead.py``.

Scope-name convention — ``section`` or ``section:detail`` with the
section naming the subsystem the exclusive time is charged to:

* ``engine:...`` — event-loop dispatch, detailed per event/process
  class (``engine:resume:cpu-map``, ``engine:timeout``, ...);
* ``kernel:...`` — functional NumPy kernels run by the device daemons;
* ``comm:...`` — message delivery/receive bookkeeping in the simulated
  MPI layer;
* ``policy:...`` — scheduling-policy decisions and audit records;
* ``alloc:...`` — region-allocator operations;
* ``obs:...`` — the tracer/metrics/sampler overhead itself.

:class:`HostProfile` is the frozen result: the call tree plus derived
reports (top exclusive hotspots, per-subsystem shares, simulated
seconds per wall second) and flamegraph exports in speedscope and
collapsed-stack formats.  It rides ``JobResult.selfprofile``, the
profile-JSONL schema-v2 ``host_profile`` line, ``repro run
--selfprof``, and the ``repro selfprof`` report (docs/PROFILING.md).
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Any, Callable, Iterator

__all__ = [
    "SelfProfiler",
    "HostProfile",
    "HostNode",
    "ROOT_SCOPE",
]

#: name of the implicit root scope covering the whole profiled window
ROOT_SCOPE = "job"


class HostNode:
    """One node of the host-side call tree (mutable while profiling)."""

    __slots__ = ("name", "calls", "inclusive_s", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.inclusive_s = 0.0
        #: child scopes in first-entry order (deterministic: the
        #: simulator's execution order is deterministic)
        self.children: dict[str, "HostNode"] = {}

    @property
    def exclusive_s(self) -> float:
        """Inclusive time minus the children's inclusive time, floored
        at zero (clock granularity can make the difference marginally
        negative for near-empty scopes)."""
        child = sum(c.inclusive_s for c in self.children.values())
        return max(self.inclusive_s - child, 0.0)

    @property
    def section(self) -> str:
        """The subsystem this node charges to (text before ``:``)."""
        return self.name.split(":", 1)[0]

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "calls": self.calls,
            "inclusive_s": self.inclusive_s,
            "exclusive_s": self.exclusive_s,
            "children": [c.to_dict() for c in self.children.values()],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "HostNode":
        node = cls(str(payload["name"]))
        node.calls = int(payload.get("calls", 0))
        node.inclusive_s = float(payload.get("inclusive_s", 0.0))
        for child in payload.get("children", ()):
            rebuilt = cls.from_dict(child)
            node.children[rebuilt.name] = rebuilt
        return node

    def walk(self, path: tuple[str, ...] = ()) -> Iterator[
        tuple[tuple[str, ...], "HostNode"]
    ]:
        """Yield ``(path, node)`` depth-first; path includes the node."""
        here = path + (self.name,)
        yield here, self
        for child in self.children.values():
            yield from child.walk(here)


class SelfProfiler:
    """Nestable host wall-clock scopes with a call-tree accumulator.

    Not thread-safe (the simulator is single-threaded); not re-entrant
    across engine instances — create one profiler per job.
    """

    __slots__ = ("root", "_nodes", "_t0s", "_started_at", "_stopped_at",
                 "_dispatch_keys", "_open_dispatch", "_open_t0")

    def __init__(self) -> None:
        self.root = HostNode(ROOT_SCOPE)
        #: the frame stack, private to this class: two parallel stacks
        #: (node, entry time) instead of one stack of tuples — no
        #: allocation per scope.  Call sites enter and leave frames only
        #: through begin()/end(), call() and dispatch().  ``_nodes``
        #: always carries the root; ``_t0s`` gains the root frame's
        #: entry time at :meth:`start`.
        self._nodes: list[HostNode] = [self.root]
        self._t0s: list[float] = []
        self._started_at: float | None = None
        self._stopped_at: float | None = None
        #: memoized event/process-class -> scope-name strings, so the
        #: per-event classification costs one dict hit after warm-up
        self._dispatch_keys: dict[str, str] = {}
        #: deferred engine-dispatch frame (see :meth:`dispatch`): it
        #: sits on ``_nodes`` without a ``_t0s`` entry; its entry time
        #: lives here and :meth:`flush_dispatch` closes it.
        self._open_dispatch: HostNode | None = None
        self._open_t0 = 0.0

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Open the root scope; call once before the profiled window."""
        if self._started_at is not None:
            raise RuntimeError("SelfProfiler.start() called twice")
        self._started_at = perf_counter()
        self._t0s.append(self._started_at)

    def stop(self) -> None:
        """Close the root scope (and any scopes an exception left open)."""
        if self._started_at is None:
            raise RuntimeError("SelfProfiler.stop() before start()")
        if self._stopped_at is not None:
            return
        now = perf_counter()
        # Unwind scopes a mid-run exception may have abandoned; the
        # root frame (pushed by start()) unwinds last.  The deferred
        # dispatch frame (if still open) carries no _t0s entry and may
        # sit anywhere in the stack when an exception interrupted the
        # dispatch loop, so the walk treats it specially.
        while self._nodes:
            node = self._nodes[-1]
            if node is self._open_dispatch:
                self._nodes.pop()
                node.inclusive_s += now - self._open_t0
                self._open_dispatch = None
                continue
            if not self._t0s:
                break
            self._nodes.pop()
            node.calls += 1
            node.inclusive_s += now - self._t0s.pop()
        self._stopped_at = now

    def dispatch(self, node: HostNode) -> None:
        """Charge one engine event dispatch to *node*.

        Dispatch scopes are *coalesced*: the engine calls this once per
        event, before running the event's callbacks, and the scope stays
        open across events, so a run of consecutive events of the same
        class costs zero clock reads and a class transition costs one
        (shared between closing the old scope and opening the new).
        The event-loop bookkeeping between coalesced events is charged to
        the scope it extends (it is dispatch overhead).  *node* must be a
        root child (:meth:`node_for`); the engine's run loop closes the
        open scope with :meth:`flush_dispatch` on exit.
        """
        open_ = self._open_dispatch
        if open_ is not node:
            now = perf_counter()
            if open_ is not None:
                open_.inclusive_s += now - self._open_t0
                self._nodes.pop()
            self._nodes.append(node)
            self._open_dispatch = node
            self._open_t0 = now
        node.calls += 1

    def flush_dispatch(self) -> None:
        """Close the deferred engine-dispatch scope, if one is open.

        The engine calls this when its run loop exits so host time spent
        *after* the loop can never be mischarged to the last dispatched
        event class; :meth:`stop` unwinds any frame this missed.  No-op
        unless the open dispatch frame is on top of the stack (an
        exception mid-dispatch can leave child frames above it — those
        are stop()'s job).
        """
        node = self._open_dispatch
        if node is not None and self._nodes[-1] is node:
            node.inclusive_s += perf_counter() - self._open_t0
            self._nodes.pop()
            self._open_dispatch = None

    @property
    def wall_s(self) -> float:
        """Wall seconds between :meth:`start` and :meth:`stop`."""
        if self._started_at is None or self._stopped_at is None:
            return 0.0
        return self._stopped_at - self._started_at

    # ------------------------------------------------------------------
    # Hot-path API: explicit begin/end, no context-manager machinery.
    # ------------------------------------------------------------------
    def begin(self, name: str) -> None:
        children = self._nodes[-1].children
        node = children.get(name)
        if node is None:
            node = children[name] = HostNode(name)
        self._nodes.append(node)
        self._t0s.append(perf_counter())

    def end(self) -> None:
        now = perf_counter()
        node = self._nodes.pop()
        node.calls += 1
        node.inclusive_s += now - self._t0s.pop()

    def node_for(self, name: str) -> HostNode:
        """The root-child node for *name*, created on first use.

        For the engine, which caches the resolved node per process class
        and hands it to :meth:`dispatch`; only valid for scopes always
        entered at root depth.
        """
        node = self.root.children.get(name)
        if node is None:
            node = self.root.children[name] = HostNode(name)
        return node

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a scope (exception-safe)."""
        self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def dispatch_key(self, raw: str, kind: str) -> str:
        """Memoized ``engine:<kind>:<class>`` name for event dispatch.

        *raw* is a process/event name like ``rank0``, ``cpu-map`` or
        ``delta00.gpu1.blk``; the class strips decimal digits so every
        rank/device instance shares one tree node.
        """
        cache_key = kind + raw
        key = self._dispatch_keys.get(cache_key)
        if key is None:
            cls = "".join(ch for ch in raw if not ch.isdigit()) or "?"
            key = self._dispatch_keys[cache_key] = f"engine:{kind}:{cls}"
        return key

    # ------------------------------------------------------------------
    def profile(self, meta: dict[str, Any] | None = None) -> "HostProfile":
        """Freeze the accumulated tree into a :class:`HostProfile`."""
        if self._started_at is not None and self._stopped_at is None:
            self.stop()
        return HostProfile(root=self.root, wall_s=self.wall_s,
                           meta=dict(meta or {}))


class HostProfile:
    """A finished host-side profile: call tree + derived reports."""

    #: bump when :meth:`to_dict` changes shape incompatibly
    SCHEMA_VERSION = 1

    def __init__(self, root: HostNode, wall_s: float,
                 meta: dict[str, Any] | None = None) -> None:
        self.root = root
        self.wall_s = float(wall_s)
        #: run context: ``makespan_s``, ``engine_events``, ``app`` ...
        self.meta: dict[str, Any] = dict(meta or {})

    # ------------------------------------------------------------------
    @property
    def makespan_s(self) -> float:
        return float(self.meta.get("makespan_s", 0.0))

    @property
    def engine_events(self) -> int:
        return int(self.meta.get("engine_events", 0))

    @property
    def sim_per_wall(self) -> float:
        """Simulated seconds executed per host wall second — the
        headline throughput number engine-speedup PRs must move."""
        if self.wall_s <= 0.0:
            return 0.0
        return self.makespan_s / self.wall_s

    @property
    def events_per_sec(self) -> float:
        """Engine events dispatched per host wall second."""
        if self.wall_s <= 0.0:
            return 0.0
        return self.engine_events / self.wall_s

    # ------------------------------------------------------------------
    def nodes(self) -> list[tuple[tuple[str, ...], HostNode]]:
        """Every (path, node) pair below (and including) the root."""
        return list(self.root.walk())

    def top_exclusive(self, n: int = 10) -> list[dict[str, Any]]:
        """The *n* scopes with the most exclusive wall time.

        Same-name nodes under different parents are reported separately
        (their paths differ) — this is a hotspot list over the call
        tree, not a flat aggregation.
        """
        ranked = sorted(
            self.nodes(),
            key=lambda pn: (-pn[1].exclusive_s, pn[0]),
        )
        out = []
        for path, node in ranked[:n]:
            out.append({
                "path": ";".join(path),
                "name": node.name,
                "calls": node.calls,
                "exclusive_s": node.exclusive_s,
                "inclusive_s": node.inclusive_s,
                "share": (node.exclusive_s / self.wall_s
                          if self.wall_s > 0 else 0.0),
            })
        return out

    def section_shares(self) -> dict[str, float]:
        """Exclusive wall seconds charged to each subsystem section.

        The root's own exclusive time (event-loop bookkeeping outside
        any scope: heap operations, generator plumbing, driver code)
        reports as ``other``.  Values sum to ``wall_s`` up to clock
        granularity.
        """
        shares: dict[str, float] = {}
        for path, node in self.nodes():
            section = "other" if node is self.root else node.section
            shares[section] = shares.get(section, 0.0) + node.exclusive_s
        return dict(sorted(shares.items(), key=lambda kv: (-kv[1], kv[0])))

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.SCHEMA_VERSION,
            "wall_s": self.wall_s,
            "meta": dict(self.meta),
            "tree": self.root.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "HostProfile":
        version = int(payload.get("schema_version", 1))
        if version > cls.SCHEMA_VERSION:
            raise ValueError(
                f"host profile schema v{version} is newer than this "
                f"reader (v{cls.SCHEMA_VERSION})"
            )
        return cls(
            root=HostNode.from_dict(payload["tree"]),
            wall_s=float(payload.get("wall_s", 0.0)),
            meta=dict(payload.get("meta", {})),
        )

    # ------------------------------------------------------------------
    # Flamegraph exports
    # ------------------------------------------------------------------
    def to_collapsed(self) -> str:
        """Brendan-Gregg collapsed stacks: ``a;b;c <microseconds>``.

        One line per call-tree node with non-zero exclusive time;
        weights are integer microseconds (``flamegraph.pl`` and
        speedscope both import this format).
        """
        lines = []
        for path, node in self.nodes():
            micros = int(round(node.exclusive_s * 1e6))
            if micros > 0:
                lines.append(f"{';'.join(path)} {micros}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_speedscope(self, name: str = "prs-selfprofile") -> str:
        """The profile as speedscope JSON (https://speedscope.app).

        A ``sampled`` profile with one weighted sample per call-tree
        node carrying exclusive time — the flamegraph view then shows
        inclusive time per frame by construction.
        """
        frames: list[dict[str, str]] = []
        frame_index: dict[str, int] = {}

        def frame(fname: str) -> int:
            idx = frame_index.get(fname)
            if idx is None:
                idx = frame_index[fname] = len(frames)
                frames.append({"name": fname})
            return idx

        samples: list[list[int]] = []
        weights: list[float] = []
        for path, node in self.nodes():
            excl = node.exclusive_s
            if excl <= 0.0:
                continue
            samples.append([frame(part) for part in path])
            weights.append(excl)
        payload = {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "shared": {"frames": frames},
            "profiles": [{
                "type": "sampled",
                "name": name,
                "unit": "seconds",
                "startValue": 0,
                "endValue": self.wall_s,
                "samples": samples,
                "weights": weights,
            }],
            "exporter": "repro-selfprof",
            "name": name,
        }
        return json.dumps(payload, sort_keys=True)
