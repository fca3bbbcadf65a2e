"""PRS benchmark: sweep throughput and simulated makespan, both planes.

Run from the repository root::

    python3 perfbench/run.py --workload gmm-em --seed 1 --seconds 20 --trace 0

A workload is a closed loop with one client: this process submits one
PRS job at a time and starts the next when the previous one returns.
``--trace 0`` times that loop and reports the end-to-end metrics;
``--trace 1`` runs every job of the workload's list twice, untraced and
traced, checks that both runs simulate the same thing, and reports the
per-layer metrics.  Every job's output is checked against an oracle
outside the timed region.  Human-readable lines go to stdout first; the
last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The same result, with host
metadata, is written to ``perfbench/out/``.  METRICS.md defines every
metric.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import traceback
from time import perf_counter

#: BLAS/OpenMP threads for every numeric library the simulator loads
THREADS = "1"

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
#: setup repetitions; ``setup_s`` is their median
SETUP_REPS = 3

END_TO_END_UNITS = {
    "jobs_per_s": "jobs/s",
    "job_s_p50": "s",
    "sim_makespan_s": "sim_s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "job_ok_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "apps.map_calls": "count",
    "apps.map_items": "count",
    "apps.map_s": "s",
    "apps.reduce_s": "s",
    "apps.update_s": "s",
    "simulate.events": "count",
    "simulate.processes": "count",
    "simulate.host_s": "s",
    "simulate.us_per_event": "us",
    "runtime.blocks_dispatched": "count",
    "runtime.steals": "count",
    "runtime.decisions": "count",
    "runtime.region_allocs": "count",
    "runtime.host_s": "s",
    "runtime.blocks_retried": "count",
    "runtime.rank_restarts": "count",
    "runtime.epochs": "count",
    "runtime.block_goodput": "ratio",
    "comm.messages": "count",
    "comm.bytes": "B",
    "comm.retransmits": "count",
    "comm.heartbeats": "count",
    "comm.host_s": "s",
    "obs.spans": "count",
    "obs.samples": "count",
    "obs.log_records": "count",
    "obs.host_s": "s",
    "obs.analyze_s": "s",
    "obs.trace_overhead": "ratio",
    "unscoped.host_s": "s",
    "sim.cp_compute_s": "sim_s",
    "sim.cp_reduce_s": "sim_s",
    "sim.cp_net_s": "sim_s",
    "sim.cp_slack_s": "sim_s",
    "sim.cp_overhead_s": "sim_s",
}

def host_metadata() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREADS,
        "machine": platform.machine(),
    }


class Failures:
    """Failed jobs and failed run-level checks, each reported to stderr.

    ``count`` counts failed job runs; a run-level check that fails (the
    traced run simulating something else, counts that do not repeat)
    makes the result incorrect without counting as a job.
    """

    def __init__(self) -> None:
        self.count = 0
        self.run_problems = 0

    def add(self, label: str, problems, job: bool = True) -> None:
        if job:
            self.count += 1
        else:
            self.run_problems += 1
        print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)

    @property
    def ok(self) -> bool:
        return self.count == 0 and self.run_problems == 0


def setup(wl, seed: int, clock, import_s: list[float]):
    """Generate every job's inputs and run one untimed warm-up job,
    ``SETUP_REPS`` times; returns ``(specs, inputs, [(wall, ref)])``
    with the import's ``[wall, ref]`` seconds added to every repetition."""
    import numpy as np

    def once():
        rng = np.random.default_rng(seed)
        specs = wl.specs(rng)
        inputs = [wl.inputs(s) for s in specs]
        warm = wl.warmup_spec(rng)
        wl.run(warm, wl.inputs(warm))
        return specs, inputs

    times = []
    for _ in range(SETUP_REPS):
        (specs, inputs), wall, ref = clock.time(once)
        times.append((import_s[0] + wall, import_s[1] + ref))
        gc.collect()
    return specs, inputs, times


def run_checked(clock, wl, spec, data, fails: Failures, label: str,
                job=True):
    """One timed job: ``(record, wall_s, ref_s)``; an exception is a
    failure and leaves the record None."""
    def job_record():
        try:
            return wl.run(spec, data)[0]
        except Exception:  # noqa: BLE001 - the loop must go on and count it
            traceback.print_exc()
            fails.add(label, ["raised"], job=job)
            return None

    return clock.time(job_record)


class Oracle:
    """Checks every record of a spec against one lazily built reference
    and against the first record of that spec (bitwise)."""

    def __init__(self, wl, specs, inputs) -> None:
        self.wl, self.specs, self.inputs = wl, specs, inputs
        self.refs: dict[int, object] = {}
        self.first: dict[int, object] = {}

    def problems(self, index: int, rec) -> list[str]:
        wl = self.wl
        if index not in self.refs:
            self.refs[index] = wl.reference(self.specs[index],
                                            self.inputs[index])
            self.first[index] = rec
        out = wl.check(rec, self.refs[index])
        if rec.iterations != wl.iterations:
            out.append(f"ran {rec.iterations} iterations, "
                       f"expected {wl.iterations}")
        if not rec.same_as(self.first[index]):
            out.append("differs from an earlier run of the same job")
        return out


# ----------------------------------------------------------------------
# --trace 0: the timed closed loop
# ----------------------------------------------------------------------
def timed_run(wl, specs, inputs, seconds: float, clock, fails: Failures):
    n = len(specs)
    oracle = Oracle(wl, specs, inputs)
    makespans: dict[int, float] = {}

    def passes(index, rec, label, job=True) -> bool:
        if rec is None:
            return False
        problems = oracle.problems(index, rec)
        if problems:
            fails.add(label, problems, job=job)
            return False
        makespans.setdefault(index, rec.makespan)
        return True

    done = []  # (spec index, wall seconds, ref seconds, passed)
    gc.collect()
    t_start = perf_counter()
    i = 0
    while True:
        rec, wall, ref = run_checked(clock, wl, specs[i % n], inputs[i % n],
                                     fails, f"job {i}")
        # Between jobs, untimed: check the output, then collect the
        # finished job's cyclic garbage, so the peak RSS is one job's
        # footprint and not the records or garbage of earlier jobs.
        done.append((i % n, wall, ref, passes(i % n, rec, f"job {i}")))
        del rec
        gc.collect()
        i += 1
        if i % wl.per_round == 0 and perf_counter() - t_start >= seconds:
            break
    loop_s = perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Untimed: finish one pass of the list, so the simulated plane always
    # sums the same jobs.
    for j in range(i, n):
        label = f"job {j} (untimed)"
        rec = run_checked(clock, wl, specs[j], inputs[j], fails, label,
                          job=False)[0]
        passes(j, rec, label, job=False)
    passed = sum(ok for *_, ok in done)

    ref_s = [ref for _, _, ref, _ in done]
    wall_s = [wall for _, wall, _, _ in done]
    metrics = {
        "jobs_per_s": passed / sum(ref_s),
        "job_s_p50": statistics.median(ref_s),
        "sim_makespan_s": sum(makespans[j] for j in sorted(makespans)),
        "peak_rss_mb": peak_rss_mb,
        "job_ok_ratio": passed / len(done),
    }
    notes = {
        "timed_jobs": len(done),
        "loop_wall_s": loop_s,
        "wall_jobs_per_s": passed / sum(wall_s),
        "wall_job_s_p50": statistics.median(wall_s),
        "job_error_ratio": 1.0 - passed / len(done),
        "complete_pass": len(makespans) == n,
        "jobs": [[index, wall, ref] for index, wall, ref, _ in done],
    }
    return metrics, len(done), notes


# ----------------------------------------------------------------------
# --trace 1: untraced and traced run of every job, per-layer metrics
# ----------------------------------------------------------------------
def _layer_counts(result, analysis, spec) -> dict[str, float]:
    """Deterministic per-layer numbers of one traced job."""
    from repro import obs
    from workloads import counter_total

    recovery = result.recovery
    by_cat = dict(analysis.critical_path.by_category())
    cp = {name: by_cat.pop(name, 0.0)
          for name in ("compute", "reduce", "net", "slack")}
    return {
        "simulate.events": result.engine_events,
        "runtime.blocks_dispatched": counter_total(result, obs.POLICY_BLOCKS),
        "runtime.steals": counter_total(result, obs.POLICY_STEALS),
        "runtime.decisions": len(result.trace.audit),
        "runtime.region_allocs": counter_total(result,
                                               obs.REGION_OBJECT_ALLOCS),
        "runtime.blocks_retried": recovery.blocks_retried if recovery else 0,
        "runtime.rank_restarts": recovery.rank_restarts if recovery else 0,
        "runtime.epochs": len(recovery.epochs) if recovery else 0,
        "useful_items": result.iterations * spec.size,
        "comm.messages": counter_total(result, obs.COMM_MESSAGES),
        "comm.bytes": counter_total(result, obs.COMM_BYTES),
        "comm.retransmits": counter_total(result, obs.COMM_RETRANSMITS),
        "comm.heartbeats": counter_total(result, obs.COMM_HEARTBEATS),
        "obs.spans": len(result.trace.tracer),
        "obs.samples": result.sampler_samples,
        "obs.log_records": result.logs.emitted if result.logs else 0,
        "sim.cp_compute_s": cp["compute"],
        "sim.cp_reduce_s": cp["reduce"],
        "sim.cp_net_s": cp["net"],
        "sim.cp_slack_s": cp["slack"],
        # the phase, job and iteration envelopes (and any other category)
        "sim.cp_overhead_s": sum(by_cat.values()),
        "makespan": result.makespan,
    }


def _host_seconds(result) -> dict[str, float]:
    """Selfprof section seconds of one traced job, by layer."""
    shares = result.selfprofile.section_shares()
    return {
        "simulate.host_s": shares.get("engine", 0.0),
        "runtime.host_s": shares.get("policy", 0.0) + shares.get("alloc", 0.0),
        "comm.host_s": shares.get("comm", 0.0),
        "obs.host_s": shares.get("obs", 0.0),
        "unscoped.host_s": shares.get("other", 0.0),
    }


def traced_pass(wl, specs, inputs, clock, oracle, fails, recorder, pass_no):
    """Run every job untraced and traced (alternating which goes first);
    returns the pass's per-layer sums and host reference seconds."""
    from tracer import EngineProcessCounter, wrap_app

    def analyze(result):
        recorder.begin("obs", "analyze")
        try:
            return result.analyze()
        finally:
            recorder.end()

    def traced(spec, data):
        recorder.begin("prs", "job")
        try:
            with EngineProcessCounter(recorder):
                return wl.run(spec, data, selfprof=True,
                              wrap=lambda app: wrap_app(app, recorder),
                              analyze=analyze)
        finally:
            recorder.end()

    sums: dict[str, float] = {}
    host = {"plain_s": 0.0, "traced_s": 0.0}
    counts_before = dict(recorder.counts)
    attempted = 0
    for index, spec in enumerate(specs):
        data = inputs[index]
        label = f"pass {pass_no} job {index}"
        first_span = len(recorder.spans)
        runs = {}
        for kind in (("plain", "traced") if index % 2 == 0
                     else ("traced", "plain")):
            attempted += 1
            try:
                runs[kind], _, ref = clock.time(
                    traced if kind == "traced" else wl.run, spec, data)
            except Exception:  # noqa: BLE001 - count it, keep going
                traceback.print_exc()
                fails.add(f"{label} {kind}", ["raised"])
                continue
            host[f"{kind}_s"] += ref
            if kind == "traced":
                scale = clock.scale
        if len(runs) < 2:
            continue
        plain, (rec, result, analysis) = runs.pop("plain")[0], runs.pop("traced")
        if analysis is None:  # outside the timing: not part of the job
            analysis = analyze(result)
        for kind, r in (("plain", plain), ("traced", rec)):
            problems = oracle.problems(index, r)
            if problems:
                fails.add(f"{label} {kind}", problems)
        if not rec.same_as(plain):
            fails.add(label, ["traced run differs from the untraced run"],
                      job=False)
        for key, value in _layer_counts(result, analysis, spec).items():
            sums[key] = sums.get(key, 0.0) + value
        sums["map_tasks"] = sums.get("map_tasks", 0) + rec.map_tasks
        seconds = _host_seconds(result)
        seconds.update(recorder.self_seconds(first_span))
        for key, value in seconds.items():
            host[key] = host.get(key, 0.0) + value * scale
        del result, analysis

    for key in ("apps.map_calls", "apps.map_items", "simulate.processes"):
        sums[key] = recorder.counts.get(key, 0) - counts_before.get(key, 0)
    for span, metric in (("apps.map", "apps.map_s"),
                         ("apps.reduce", "apps.reduce_s"),
                         ("apps.update", "apps.update_s"),
                         ("obs.analyze", "obs.analyze_s")):
        host[metric] = host.pop(span, 0.0)
    if sums.get("apps.map_calls") != sums.get("map_tasks"):
        fails.add(f"pass {pass_no}", [
            f"{sums.get('apps.map_calls')} wrapped map calls but "
            f"{sums.get('map_tasks')} device compute tasks"], job=False)
    return sums, host, attempted


def traced_run(wl, specs, inputs, seconds: float, clock, fails: Failures):
    from tracer import SpanRecorder

    recorder = SpanRecorder()
    oracle = Oracle(wl, specs, inputs)
    passes = []
    attempted = 0
    t_start = perf_counter()
    while True:
        sums, host, n = traced_pass(wl, specs, inputs, clock, oracle, fails,
                                    recorder, len(passes))
        passes.append((sums, host))
        attempted += n
        if perf_counter() - t_start >= seconds:
            break

    first = passes[0][0]
    for k, (sums, _) in enumerate(passes[1:], 1):
        if sums != first:
            fails.add(f"pass {k}", ["deterministic counts differ from pass 0"],
                      job=False)

    def median(key):
        return statistics.median(host[key] for _, host in passes)

    metrics = {k: v for k, v in first.items() if k in PER_LAYER_UNITS}
    metrics.update({k: median(k) for k in passes[0][1] if k in PER_LAYER_UNITS})
    metrics["runtime.block_goodput"] = (first["useful_items"]
                                        / first["apps.map_items"])
    metrics["simulate.us_per_event"] = statistics.median(
        1e6 * host["plain_s"] / sums["simulate.events"]
        for sums, host in passes)
    metrics["obs.trace_overhead"] = statistics.median(
        host["traced_s"] / host["plain_s"] - 1.0 for _, host in passes)
    tiling = (first["sim.cp_compute_s"] + first["sim.cp_reduce_s"]
              + first["sim.cp_net_s"] + first["sim.cp_slack_s"]
              + first["sim.cp_overhead_s"])
    if abs(tiling - first["makespan"]) > 1e-9 * max(first["makespan"], 1.0):
        fails.add("critical path", [
            f"categories sum to {tiling!r}, makespans to {first['makespan']!r}"],
            job=False)
    notes = {
        "passes": len(passes),
        "span_count": len(recorder.spans),
        "layer_share": layer_shares(metrics),
    }
    return metrics, attempted, notes, recorder


def layer_shares(m) -> dict[str, float]:
    """Each layer's share of the traced host seconds of one pass."""
    layers = {
        "apps": m["apps.map_s"] + m["apps.reduce_s"] + m["apps.update_s"],
        "simulate": m["simulate.host_s"],
        "runtime": m["runtime.host_s"],
        "comm": m["comm.host_s"],
        "obs": m["obs.host_s"] + m["obs.analyze_s"],
        "unscoped": m["unscoped.host_s"],
    }
    total = sum(layers.values())
    return {k: v / total for k, v in layers.items()} if total else layers


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Before NumPy loads: at its default, OpenBLAS runs one thread per
    # core, and a second thread makes host times depend on the load.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = THREADS

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]

    from hostclock import HostClock  # loads NumPy for its probe

    clock = HostClock()
    workloads, *import_s = clock.time(importlib.import_module, "workloads")
    WORKLOADS = workloads.WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    specs, inputs, setup_times = setup(wl, args.seed, clock, import_s)
    fails = Failures()
    recorder = None
    if args.trace:
        metrics, attempted, notes, recorder = traced_run(
            wl, specs, inputs, args.seconds, clock, fails)
        units = PER_LAYER_UNITS
    else:
        metrics, attempted, notes = timed_run(
            wl, specs, inputs, args.seconds, clock, fails)
        metrics["setup_s"] = statistics.median(ref for _, ref in setup_times)
        units = END_TO_END_UNITS
    notes["setup_wall_ref_s"] = setup_times
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")

    result = {
        "correct": fails.ok,
        "attempted": attempted,
        "failed": fails.count,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                    for k in units},
    }
    meta = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "jobs_in_list": len(specs),
            "host": host_metadata(), "notes": notes}

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(
        json.dumps({"meta": meta, "result": result}, indent=2) + "\n")
    if recorder is not None:
        recorder.dump(stem.with_suffix(".spans.jsonl"))

    print(f"workload {wl.name}: {wl.why}")
    print(f"host {json.dumps(meta['host'], sort_keys=True)}")
    print("notes " + json.dumps({k: v for k, v in notes.items() if k != "jobs"},
                                sort_keys=True))
    for key in units:
        note = f" (n={notes['timed_jobs']})" if key == "job_s_p50" else ""
        print(f"  {key:28s} {metrics[key]:>16.6g} {units[key]}{note}")
    if not args.trace:
        print(f"  {'job_error_ratio':28s} {notes['job_error_ratio']:>16.6g} "
              "ratio")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
