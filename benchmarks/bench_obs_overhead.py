"""Time-series sampler overhead: sampled vs unsampled runs.

The sampler (:mod:`repro.obs.timeseries`) promises zero perturbation:
it is tick-driven bookkeeping that schedules no simulation events, so a
run with sampling enabled must cost the *same simulated work* as one
without.  This benchmark runs the standard baseline sweep twice per
workload — default sampling vs ``sample_interval=None`` — and gates on:

* engine-event overhead strictly under 3% (by construction it is
  exactly 0 — the bound leaves headroom for a future sampler that
  legitimately needs an event or two, and makes the contract explicit);
* bitwise-identical makespans (the strongest cheap proxy for "the
  schedule did not move");
* a non-trivial number of captured samples, so the zero-overhead claim
  is not vacuous.

The host self-profiler (:mod:`repro.obs.selfprof`) makes the same
promise one level down: it watches the *simulator's own* wall-clock, so
``test_selfprof_overhead`` gates that a selfprofiled run (a) leaves all
simulated results — engine events, makespan, reduce outputs, sampler
samples — bitwise identical, and (b) costs under 5% extra host time
over the sweep.  Host timing on a shared box is noisy on the scale of
whole runs (this repo's CI shares one core), so the estimator is built
to survive it: the gate metric is process *CPU* time (immune to other
processes stealing the core — profiling overhead is CPU work, so CPU
time is also the honest metric), plain/selfprof runs alternate with the
order flipped every round (cancels warm-cache position bias), each
adjacent pair yields one ratio, the per-workload number is the *median*
over pairs, the sweep number is the CPU-weighted mean of those medians
— and the gate takes the best of up to three attempts, because even
this estimator can read several percent high when a noisy neighbor
pollutes the cache for a whole attempt.  A real regression (scopes
suddenly costing 2x) fails all three; every attempt is recorded in the
saved JSON so a trajectory of near-misses is visible.

The structured event log (:mod:`repro.obs.log`) joins the same
contract in ``test_logging_overhead``: a ``log_level="debug"`` run must
leave every simulated result bitwise identical and cost under 5% extra
host CPU time, measured with the same paired-round estimator.  Its
sweep is recorded under the ``"logging"`` key of
``BENCH_obs_overhead.json``.

Regenerates ``benchmarks/results/BENCH_obs_overhead.json`` and
``benchmarks/results/BENCH_selfprof_overhead.json``.
"""

from __future__ import annotations

import json

import pytest

from statistics import median
from time import perf_counter, process_time

from _harness import (
    LAST_WALL,
    RESULTS_DIR,
    WALL_ROUNDS,
    once,
    save_json,
    save_table,
)
from repro.analysis.tables import format_table
from repro.obs.analyze.baseline import DEFAULT_WORKLOADS, _run_workload

#: hard ceiling on relative engine-event overhead from sampling
MAX_EVENT_OVERHEAD = 0.03

#: hard ceiling on relative host CPU-time overhead of ``selfprof=True``
#: over the whole sweep (per-workload numbers are recorded but not gated
#: — sub-second runs are too noisy individually)
MAX_SELFPROF_OVERHEAD = 0.05

#: hard ceiling on relative host CPU-time overhead of
#: ``log_level="info"`` over the whole sweep, mirroring the selfprof
#: gate: the event log is pure host bookkeeping behind ``log is None``
#: guards, so simulated results are bitwise identical and host cost
#: stays in the noise
MAX_LOGGING_OVERHEAD = 0.05

#: measurement attempts before the overhead gate gives up; a clean host
#: passes on the first, a noisy one on a retry, a real regression never
MAX_OVERHEAD_ATTEMPTS = 3


def build_sweep():
    entries = {}
    rows = []
    for spec in DEFAULT_WORKLOADS:
        sampled = _run_workload(spec)
        bare = _run_workload(spec, sample_interval=None)
        extra = sampled.engine_events - bare.engine_events
        overhead = extra / bare.engine_events if bare.engine_events else 0.0
        entries[spec.name] = {
            "spec": spec.to_dict(),
            "engine_events_sampled": sampled.engine_events,
            "engine_events_unsampled": bare.engine_events,
            "event_overhead": overhead,
            "sampler_samples": sampled.sampler_samples,
            "series": len(list(sampled.trace.sampler.bank)),
            "makespan_s": sampled.makespan,
            "makespan_identical": sampled.makespan == bare.makespan,
            "alerts_fired": len(sampled.alerts),
        }
        rows.append([
            spec.name,
            str(bare.engine_events),
            str(sampled.engine_events),
            f"{overhead:+.2%}",
            str(sampled.sampler_samples),
            "yes" if sampled.makespan == bare.makespan else "NO",
        ])
    table = format_table(
        ["workload", "events (off)", "events (on)", "overhead",
         "samples", "makespan identical"],
        rows,
        title="Sampler overhead: engine events with sampling on vs off",
    )
    payload = {
        "schema_version": 1,
        "benchmark": "obs_overhead",
        "max_event_overhead": MAX_EVENT_OVERHEAD,
        "workloads": entries,
    }
    return table, payload


@pytest.mark.benchmark(group="obs-overhead")
def test_sampler_overhead(benchmark):
    table, payload = once(benchmark, build_sweep)
    save_table("obs_overhead", table)
    save_json("obs_overhead", payload)

    assert set(payload["workloads"]) == {w.name for w in DEFAULT_WORKLOADS}
    for name, entry in payload["workloads"].items():
        assert entry["event_overhead"] < MAX_EVENT_OVERHEAD, (
            name, entry["event_overhead"])
        # The tick-driven design makes the overhead exactly zero today;
        # pin that so an accidental engine dependency is caught even
        # inside the 3% envelope.
        assert entry["engine_events_sampled"] == entry[
            "engine_events_unsampled"], name
        assert entry["makespan_identical"], name
        assert entry["sampler_samples"] > 100, (name, "vacuous sweep?")


def _canon_output(output):
    """Bitwise-comparable form of a reduce-output dict (ndarray-safe)."""
    return {
        str(k): v.tobytes() if hasattr(v, "tobytes") else repr(v)
        for k, v in output.items()
    }


#: per observer: the ``_run_workload`` option that switches it on, the
#: table title, its extra table columns as (header, entry key) pairs,
#: and the entry fields beyond the shared ones
OBSERVERS = {
    "selfprof": (
        {"selfprof": True},
        "Self-profiler overhead: host CPU time with selfprof on vs off",
        [],
        lambda plain, on, walls: {
            "wall_s_plain": min(walls[0]),
            "wall_s_selfprof": min(walls[1]),
            "plain_has_no_profile": plain.selfprofile is None,
            "hotspots": (
                len(on.selfprofile.top_exclusive(10)) if on.selfprofile else 0
            ),
        },
    ),
    "logging": (
        {"log_level": "debug"},
        "Event-log overhead: host CPU time with log_level=debug vs logging "
        "off",
        [("records", "records_emitted")],
        lambda plain, on, walls: {
            "records_emitted": on.logs.emitted if on.logs else 0,
            "plain_has_no_log": plain.logs is None,
        },
    ),
}


def build_overhead_sweep(observer):
    """Host CPU-time overhead of *observer* (a key of :data:`OBSERVERS`)
    over the sweep, with the zero-perturbation checks of every run."""
    on_kwargs, title, columns, describe = OBSERVERS[observer]
    entries = {}
    rows = []
    weights: dict[str, tuple[float, float]] = {}
    for spec in DEFAULT_WORKLOADS:
        # One warmup per side, then paired timed rounds with the order
        # flipped every round; each pair yields one CPU-time ratio.
        plain = _run_workload(spec)
        on = _run_workload(spec, **on_kwargs)
        wp: list[float] = []
        wo: list[float] = []
        cp: list[float] = []
        co: list[float] = []

        def timed(runner, walls, cpus):
            t0, c0 = perf_counter(), process_time()
            out = runner()
            cpus.append(process_time() - c0)
            walls.append(perf_counter() - t0)
            return out

        for i in range(WALL_ROUNDS + 2):
            if i % 2 == 0:
                plain = timed(lambda: _run_workload(spec), wp, cp)
                on = timed(
                    lambda: _run_workload(spec, **on_kwargs), wo, co)
            else:
                on = timed(
                    lambda: _run_workload(spec, **on_kwargs), wo, co)
                plain = timed(lambda: _run_workload(spec), wp, cp)
        ratio = median(o / p for p, o in zip(cp, co))
        LAST_WALL[f"{spec.name}-plain"] = {
            "min_s": min(wp), "max_s": max(wp), "rounds": len(wp)}
        LAST_WALL[f"{spec.name}-{observer}"] = {
            "min_s": min(wo), "max_s": max(wo), "rounds": len(wo)}
        weights[spec.name] = (ratio, min(cp))
        entry = entries[spec.name] = {
            "spec": spec.to_dict(),
            "cpu_s_plain": min(cp),
            f"cpu_s_{observer}": min(co),
            "cpu_overhead": ratio - 1.0,
            "engine_events_identical":
                on.engine_events == plain.engine_events,
            "makespan_identical": on.makespan == plain.makespan,
            "outputs_identical":
                _canon_output(on.output) == _canon_output(plain.output),
            "sampler_samples_identical":
                on.sampler_samples == plain.sampler_samples,
            **describe(plain, on, (wp, wo)),
        }
        rows.append([
            spec.name,
            f"{min(cp) * 1e3:.1f}",
            f"{min(co) * 1e3:.1f}",
            f"{ratio - 1.0:+.1%}",
            *(str(entry[key]) for _, key in columns),
            "yes" if entry["engine_events_identical"]
            and entry["makespan_identical"]
            and entry["outputs_identical"] else "NO",
        ])
    # Sweep overhead: CPU-weighted mean of the per-workload median
    # ratios — a long workload's overhead counts for more than a 30 ms
    # one's, mirroring what a user-visible slowdown would feel like.
    total_cpu = sum(p for _, p in weights.values())
    overall = sum((r - 1.0) * p / total_cpu for r, p in weights.values())
    table = format_table(
        ["workload", "cpu off (ms)", "cpu on (ms)", "overhead",
         *(header for header, _ in columns),
         "results identical"],
        rows,
        title=f"{title} (sweep {overall:+.1%})",
    )
    payload = {
        "benchmark": f"{observer}_overhead",
        "cpu_overhead_total": overall,
        "workloads": entries,
    }
    return table, payload


def best_overhead_sweep(observer, bound):
    """The lowest-overhead of up to :data:`MAX_OVERHEAD_ATTEMPTS` sweeps,
    stopping at the first under *bound*; every attempt's sweep overhead
    is kept under ``overhead_attempts``."""
    attempts: list[float] = []
    table = payload = None
    for _ in range(MAX_OVERHEAD_ATTEMPTS):
        t, p = build_overhead_sweep(observer)
        attempts.append(p["cpu_overhead_total"])
        if payload is None or (p["cpu_overhead_total"]
                               < payload["cpu_overhead_total"]):
            table, payload = t, p
        if payload["cpu_overhead_total"] < bound:
            break
    payload["max_cpu_overhead"] = bound
    payload["overhead_attempts"] = attempts
    return table, payload, attempts


def test_logging_overhead():
    table, payload, attempts = best_overhead_sweep(
        "logging", MAX_LOGGING_OVERHEAD)
    save_table("logging_overhead", table)
    # The gate rides in BENCH_obs_overhead.json next to the sampler
    # sweep: both guard the same zero-perturbation contract.
    path = RESULTS_DIR / "BENCH_obs_overhead.json"
    base = json.loads(path.read_text()) if path.exists() else {
        "schema_version": 1, "benchmark": "obs_overhead"}
    base["logging"] = payload
    save_json("obs_overhead", base)

    assert set(payload["workloads"]) == {w.name for w in DEFAULT_WORKLOADS}
    for name, entry in payload["workloads"].items():
        # zero perturbation: the event log is host bookkeeping behind a
        # ``log is None`` guard, so simulated results never move
        assert entry["engine_events_identical"], name
        assert entry["makespan_identical"], name
        assert entry["outputs_identical"], name
        assert entry["sampler_samples_identical"], name
        assert entry["plain_has_no_log"], name
        assert entry["records_emitted"] > 0, (name, "vacuous sweep?")
    assert payload["cpu_overhead_total"] < MAX_LOGGING_OVERHEAD, attempts


def test_selfprof_overhead():
    table, payload, attempts = best_overhead_sweep(
        "selfprof", MAX_SELFPROF_OVERHEAD)
    payload["schema_version"] = 1
    save_table("selfprof_overhead", table)
    save_json("selfprof_overhead", payload)

    assert set(payload["workloads"]) == {w.name for w in DEFAULT_WORKLOADS}
    for name, entry in payload["workloads"].items():
        # zero perturbation: the profiler only watches the host clock,
        # so every simulated result is bitwise identical either way
        assert entry["engine_events_identical"], name
        assert entry["makespan_identical"], name
        assert entry["outputs_identical"], name
        assert entry["sampler_samples_identical"], name
        assert entry["plain_has_no_profile"], name
        assert entry["hotspots"] > 0, (name, "empty host profile")
    assert payload["cpu_overhead_total"] < MAX_SELFPROF_OVERHEAD, attempts
