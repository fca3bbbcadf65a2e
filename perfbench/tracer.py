"""In-memory span recorder for the traced run of the benchmark.

Spans are recorded from the benchmark's own files only: a span around
each traced job, around the app callbacks the runtime invokes (wrapped
per app instance), and around ``JobResult.analyze``.  ``Engine.process``
is counted by a class-level wrapper installed only for the
duration of a traced job.  Nothing inside ``repro`` is edited; the
wrappers call straight through, so the traced job runs the same
simulation as the untraced one (the runner checks this).

A layer's self time is the sum, over its spans, of each span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import json
from time import perf_counter

#: app callbacks wrapped per instance, grouped by the layer metric they
#: feed.  A callback that calls another one of the same group (``gpu_map``
#: -> ``cpu_map``, ``combiner`` -> ``cpu_reduce``) records one span, the
#: outer one.
CALLBACK_GROUPS = {
    "map": ("cpu_map", "gpu_map"),
    "reduce": ("cpu_reduce", "gpu_device_reduce", "combiner"),
    "update": ("update",),
}


class SpanRecorder:
    """Spans as ``[id, parent, layer, name, t0, t1]`` lists, plus counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}

    def begin(self, layer: str, name: str) -> None:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, layer, name, perf_counter(), 0.0])
        self._stack.append(sid)

    def end(self) -> None:
        self.spans[self._stack.pop()][5] = perf_counter()

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def self_seconds(self, first: int = 0) -> dict[str, float]:
        """Self time per ``layer.name`` over spans ``first`` onwards."""
        spans = self.spans[first:]
        child_s: dict[int, float] = {}
        for _, parent, _, _, t0, t1 in spans:
            if parent >= first:
                child_s[parent] = child_s.get(parent, 0.0) + (t1 - t0)
        out: dict[str, float] = {}
        for sid, _, layer, name, t0, t1 in spans:
            key = f"{layer}.{name}"
            out[key] = out.get(key, 0.0) + (t1 - t0) - child_s.get(sid, 0.0)
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line (times in host seconds)."""
        with open(path, "w") as fh:
            for sid, parent, layer, name, t0, t1 in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "layer": layer,
                    "name": name, "t0": t0, "t1": t1,
                }) + "\n")


def wrap_app(app, rec: SpanRecorder) -> None:
    """Shadow the app's callbacks with span-recording instance attributes.

    The wrappers live in the instance ``__dict__``, so the checkpoint an
    iterative app takes (a deep copy of ``__dict__``) carries them across
    a rank-restart ``restore``.
    """
    for group, names in CALLBACK_GROUPS.items():
        depth = [0]
        for attr in names:
            if not hasattr(app, attr):
                continue
            setattr(app, attr, _wrap(getattr(app, attr), rec, group, depth))


def _wrap(fn, rec: SpanRecorder, group: str, depth: list[int]):
    def wrapper(*args):
        if depth[0]:
            return fn(*args)
        depth[0] = 1
        rec.begin("apps", group)
        try:
            return fn(*args)
        finally:
            rec.end()
            depth[0] = 0
            if group == "map":
                rec.count("apps.map_calls")
                rec.count("apps.map_items", args[0].n_items)
    return wrapper


class EngineProcessCounter:
    """Counts calls to ``Engine.process`` while installed."""

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec

    def __enter__(self):
        from repro.simulate.engine import Engine

        self._orig = orig = Engine.process
        rec = self.rec

        def process(engine, generator, name="proc"):
            rec.count("simulate.processes")
            return orig(engine, generator, name)

        Engine.process = process
        return self

    def __exit__(self, *exc) -> None:
        from repro.simulate.engine import Engine

        Engine.process = self._orig
