"""Host wall-clock baseline for the simulator engine itself.

Every other benchmark reports *simulated* metrics; this one records how
fast the simulator executes on the host — the baseline the ROADMAP's
"profile-guided engine speedup (target >=5x)" item measures against.
Per standard-sweep workload it reports:

* min-of-k wall-clock seconds (one discarded warmup repetition, then
  :data:`_harness.WALL_ROUNDS` timed repetitions — min-of-k because
  host noise is strictly additive);
* throughput as engine events dispatched per wall second;
* simulated seconds advanced per wall second;
* the dominant host subsystem from a selfprofiled rerun
  (:mod:`repro.obs.selfprof`), so the speedup work knows *where* the
  wall time goes, not just how much there is.

Determinism is asserted across repetitions (identical engine events and
makespans), so the wall-clock spread is pure host noise, never changed
simulated work.  Regenerates
``benchmarks/results/BENCH_engine_speed.json``, either under pytest or
as ``PYTHONPATH=src python benchmarks/bench_engine_speed.py``.
"""

from __future__ import annotations

from _harness import WALL_ROUNDS, measure, save_json, save_table
from repro.analysis.tables import format_table
from repro.obs.analyze.baseline import DEFAULT_WORKLOADS, _run_workload


def _time_workload(spec):
    """Warmup + min-of-k timing of one spec; asserts determinism."""
    runs = []

    def go():
        runs.append(_run_workload(spec))
        return runs[-1]

    result, wall_min, walls = measure(go, label=spec.name)
    assert all(r.engine_events == result.engine_events for r in runs), (
        spec.name, "engine events varied across repetitions")
    assert all(r.makespan == result.makespan for r in runs), (
        spec.name, "makespan varied across repetitions")
    return result, wall_min, walls


def _hot_section(spec):
    """One selfprofiled rerun: (top section, share) of host wall time.

    ``section_shares`` returns exclusive *seconds*; normalize by the
    profiled wall so the share is a fraction of the run.
    """
    prof = _run_workload(spec, selfprof=True).selfprofile
    shares = prof.section_shares()
    top = max(shares, key=shares.get)
    return prof, top, shares[top] / prof.wall_s if prof.wall_s else 0.0


def build_speed():
    entries = {}
    rows = []
    for spec in DEFAULT_WORKLOADS:
        result, wall_min, walls = _time_workload(spec)
        prof, hot, hot_share = _hot_section(spec)
        events_per_sec = result.engine_events / wall_min if wall_min else 0.0
        sim_per_wall = result.makespan / wall_min if wall_min else 0.0
        entries[spec.name] = {
            "spec": spec.to_dict(),
            "wall_s_min": wall_min,
            "wall_s_max": max(walls),
            "wall_rounds": len(walls),
            "engine_events": result.engine_events,
            "events_per_sec": events_per_sec,
            "makespan_s": result.makespan,
            "sim_s_per_wall_s": sim_per_wall,
            "hot_section": hot,
            "hot_section_share": hot_share,
            "selfprof_wall_s": prof.wall_s,
        }
        rows.append([
            spec.name,
            f"{wall_min * 1e3:.1f}",
            str(result.engine_events),
            f"{events_per_sec:,.0f}",
            f"{sim_per_wall:.3g}",
            f"{hot} ({hot_share:.0%})",
        ])
    table = format_table(
        ["workload", "wall min (ms)", "events", "events/s",
         "sim-s/wall-s", "hot section"],
        rows,
        title=(f"Engine speed: host wall-clock baseline "
               f"(min of {WALL_ROUNDS}, 1 warmup)"),
    )
    payload = {
        "schema_version": 1,
        "benchmark": "engine_speed",
        "wall_rounds": WALL_ROUNDS,
        "wall_warmup": 1,
        "workloads": entries,
    }
    return table, payload


def test_engine_speed():
    table, payload = build_speed()
    save_table("engine_speed", table)
    save_json("engine_speed", payload)

    assert set(payload["workloads"]) == {w.name for w in DEFAULT_WORKLOADS}
    for name, entry in payload["workloads"].items():
        assert entry["wall_s_min"] > 0, name
        assert entry["events_per_sec"] > 0, name
        # a vanishing hot section means the profiler attributed nothing —
        # the instrumentation went missing, not the workload got fast
        assert entry["hot_section_share"] > 0.05, (name, entry["hot_section"])


if __name__ == "__main__":
    test_engine_speed()
