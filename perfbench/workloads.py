"""The benchmark's workloads: job lists, job execution and output oracles.

Each workload turns a seed into a list of job specs (shapes plus a data
seed), generates the inputs, runs one PRS job per spec through the
public ``PRSRuntime(cluster, JobConfig(...)).run(app)`` call, and checks
every job's output against an oracle that runs outside the timed region.

Job sizes are stratified: a list of ``rounds * per_round`` jobs covers
that many equal-width strata of the size range, one job per stratum at a
seeded position near its middle, and each round holds one job of every
discrete setting (feature count or node count).  Every seed therefore
runs different data with nearly the same mix of sizes, which keeps the
per-seed spread of the end-to-end metrics small.  The timed loop stops
only at round boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro import obs
from repro.apps.cmeans import CMeansApp, cmeans_reference
from repro.apps.gemv import GemvApp
from repro.apps.gmm import GMMApp
from repro.data.synth import gaussian_mixture, random_matrix, random_vector
from repro.hardware.presets import delta_cluster
from repro.runtime.api import Block
from repro.runtime.job import JobConfig
from repro.runtime.prs import PRSRuntime

#: a convergence tolerance no real run reaches, so every job runs its
#: fixed iteration count
NEVER_CONVERGE = 1e-300


@dataclass(frozen=True)
class JobSpec:
    """One job of a workload: its shape and the seed of its data."""

    size: int
    setting: int
    data_seed: int


@dataclass
class JobRecord:
    """What the runner keeps from one finished job (the ``JobResult``
    itself is dropped right away)."""

    makespan: float
    events: int
    comm_bytes: float
    #: device compute tasks, one per map call
    map_tasks: int
    outputs: dict[str, np.ndarray]
    iterations: int
    #: workload-specific liveness facts (the chaos plan's recovery)
    extra: dict[str, Any] = field(default_factory=dict)

    def same_as(self, other: "JobRecord") -> bool:
        """Bitwise equality of the deterministic numbers and outputs."""
        return (
            self.makespan == other.makespan
            and self.events == other.events
            and self.comm_bytes == other.comm_bytes
            and self.map_tasks == other.map_tasks
            and self.iterations == other.iterations
            and self.outputs.keys() == other.outputs.keys()
            and all(np.array_equal(v, other.outputs[k], equal_nan=True)
                    for k, v in self.outputs.items())
        )


def _stratified(rng, lo: int, hi: int, settings: tuple[int, ...],
                rounds: int) -> list[JobSpec]:
    """``rounds`` rounds of one job per setting slot; job sizes cover
    ``rounds * len(settings)`` strata of ``[lo, hi]`` once each, at a
    seeded point of the stratum's middle fifth.

    Slot ``j`` owns the ``j``-th band of ``rounds`` strata.  Even slots
    walk their band upwards and odd slots downwards, so each pair of
    slots adds up to the same size in every round.
    """
    k = len(settings)
    n_strata = rounds * k
    offsets = rng.uniform(0.4, 0.6, size=n_strata)
    specs = []
    for r in range(rounds):
        for j in range(k):
            step = r + j // 2
            within = step % rounds if j % 2 == 0 else (rounds - 1 - step) % rounds
            stratum = j * rounds + within
            size = int(lo + (hi - lo) * (stratum + offsets[stratum]) / n_strata)
            specs.append(JobSpec(size, settings[(j + r) % k],
                                 int(rng.integers(2**31))))
    return specs


class Workload:
    """Base class: subclasses define shapes, the job and its oracle."""

    name = ""
    why = ""
    #: jobs per round; the timed loop stops only at round boundaries
    per_round = 1
    #: expected iteration count of every job
    iterations = 1

    def specs(self, rng) -> list[JobSpec]:
        raise NotImplementedError

    def warmup_spec(self, rng) -> JobSpec:
        raise NotImplementedError

    def inputs(self, spec: JobSpec) -> dict[str, np.ndarray]:
        raise NotImplementedError

    def app(self, spec: JobSpec, data: dict[str, np.ndarray]):
        raise NotImplementedError

    def runtime(self, spec: JobSpec, selfprof: bool) -> PRSRuntime:
        raise NotImplementedError

    def outputs(self, app, result) -> dict[str, np.ndarray]:
        raise NotImplementedError

    def reference(self, spec: JobSpec, data) -> dict[str, np.ndarray]:
        raise NotImplementedError

    def check(self, rec: JobRecord, ref) -> list[str]:
        raise NotImplementedError

    #: whether the job includes the post-run ``analyze()``
    analyze_in_job = False

    def run(self, spec: JobSpec, data, selfprof: bool = False, wrap=None,
            analyze=None):
        """Run one job; returns ``(record, result, analysis)``.

        ``wrap(app)`` instruments the app before the run and
        ``analyze(result)`` stands in for ``result.analyze()``; the
        analysis is ``None`` unless the workload analyzes in the job.
        """
        app = self.app(spec, data)
        if wrap is not None:
            wrap(app)
        result = self.runtime(spec, selfprof).run(app)
        analysis = None
        if self.analyze_in_job:
            analysis = analyze(result) if analyze else result.analyze()
        tasks = result.trace.metrics.get(obs.DEVICE_TASKS)
        record = JobRecord(
            makespan=result.makespan,
            events=result.engine_events,
            comm_bytes=counter_total(result, obs.COMM_BYTES),
            map_tasks=int(sum(v for labels, v in tasks.samples()
                              if labels["kind"] == "compute")),
            outputs=self.outputs(app, result),
            iterations=result.iterations,
            extra=self.liveness(result),
        )
        return record, result, analysis

    def liveness(self, result) -> dict[str, Any]:
        return {}


class GmmEm(Workload):
    name = "gmm-em"
    why = ("GMM EM on 4 Delta nodes, static Eq. 8 split: kernel-bound, "
           "moves with app-callback cost and barely with the engine")
    per_round = 3
    iterations = 6
    components = 5

    def specs(self, rng):
        return _stratified(rng, 3000, 9000, (8, 16, 24), rounds=3)

    def warmup_spec(self, rng):
        return JobSpec(3000, 8, int(rng.integers(2**31)))

    def inputs(self, spec):
        pts, _, _ = gaussian_mixture(spec.size, spec.setting, self.components,
                                     seed=spec.data_seed)
        return {"points": pts}

    def app(self, spec, data):
        return GMMApp(data["points"], self.components,
                      tolerance=NEVER_CONVERGE,
                      max_iterations=self.iterations, seed=spec.data_seed)

    def runtime(self, spec, selfprof):
        return PRSRuntime(delta_cluster(4),
                          JobConfig(scheduling="static", selfprof=selfprof))

    def outputs(self, app, result):
        return {"means": app.means.copy(),
                "loglik": np.asarray(app.loglik_history)}

    def reference(self, spec, data):
        """Serial EM: the app's own E and M steps on one block."""
        app = self.app(spec, data)
        whole = Block(0, spec.size)
        for _ in range(self.iterations):
            app.update({key: app.cpu_reduce(key, [value])
                        for key, value in app.cpu_map(whole)})
        return {"means": app.means}

    def check(self, rec, ref):
        problems = []
        if np.any(np.diff(rec.outputs["loglik"]) < 0):
            problems.append("log-likelihood decreased")
        if not np.allclose(rec.outputs["means"], ref["means"],
                           rtol=1e-6, atol=1e-9):
            problems.append("means differ from the serial EM")
        return problems


class GemvDispatch(Workload):
    name = "gemv-dispatch"
    why = ("GEMV under dynamic polling on 4/8/16 Delta nodes: dispatch- and "
           "trace-bound, moves with engine and obs cost, not kernels")
    per_round = 3
    cols = 64

    def specs(self, rng):
        return _stratified(rng, 2000, 8000, (4, 8, 16), rounds=4)

    def warmup_spec(self, rng):
        return JobSpec(2000, 4, int(rng.integers(2**31)))

    def inputs(self, spec):
        return {
            "matrix": random_matrix(spec.size, self.cols, seed=spec.data_seed),
            "vector": random_vector(self.cols, seed=spec.data_seed + 1),
        }

    def app(self, spec, data):
        return GemvApp(data["matrix"], data["vector"])

    def runtime(self, spec, selfprof):
        return PRSRuntime(delta_cluster(spec.setting),
                          JobConfig(scheduling="dynamic", selfprof=selfprof))

    def outputs(self, app, result):
        return {"y": app.assemble(result.output)}

    def reference(self, spec, data):
        return {"y": self.app(spec, data).reference()}

    def check(self, rec, ref):
        if not np.allclose(rec.outputs["y"], ref["y"], rtol=1e-3, atol=1e-5):
            return ["y differs from A @ x"]
        return []


class CmeansChaos(Workload):
    name = "cmeans-chaos"
    why = ("C-means on a 6-node pool starting at 2 ranks under joins, drops, "
           "a rank kill and a drain: the elastic recovery path plus analyze()")
    per_round = 2
    iterations = 10
    clusters = 5
    dims = 16
    pool = 6
    faults = (
        "join@2:t=0.02", "join@3:t=0.02", "join@4:t=0.02", "join@5:t=0.02",
        "msg_drop@*-0:count=3,t0=0.01",
        "rank_kill@5:t=0.05",
        "drain@4:t=0.08",
    )
    analyze_in_job = True

    def specs(self, rng):
        return _stratified(rng, 2000, 6000, (self.dims, self.dims), rounds=4)

    def warmup_spec(self, rng):
        return JobSpec(2000, self.dims, int(rng.integers(2**31)))

    def inputs(self, spec):
        pts, _, _ = gaussian_mixture(spec.size, spec.setting, self.clusters,
                                     seed=spec.data_seed)
        return {"points": pts}

    def app(self, spec, data):
        return CMeansApp(data["points"], self.clusters, epsilon=NEVER_CONVERGE,
                         max_iterations=self.iterations, seed=spec.data_seed)

    def runtime(self, spec, selfprof):
        return PRSRuntime(delta_cluster(self.pool), JobConfig(
            initial_nodes=2, faults=list(self.faults), log_level="info",
            selfprof=selfprof,
        ))

    def outputs(self, app, result):
        return {"centers": _sorted_rows(app.centers)}

    def liveness(self, result):
        rec = result.recovery
        return {
            "rank_restarts": rec.rank_restarts,
            "retransmits": rec.retransmits,
            "joins": rec.joins,
            "drains": rec.drains,
            "epoch_causes": tuple(e.cause for e in rec.epochs),
        }

    def reference(self, spec, data):
        return {"centers": _sorted_rows(cmeans_reference(
            data["points"], self.clusters, iterations=self.iterations,
            seed=spec.data_seed))}

    def check(self, rec, ref):
        problems = []
        if not np.allclose(rec.outputs["centers"], ref["centers"], rtol=1e-5):
            problems.append("centers differ from the serial C-means")
        live = rec.extra
        causes = live["epoch_causes"]
        if live["rank_restarts"] < 1 or "rank-kill" not in causes:
            problems.append("the rank kill did not fire")
        if live["retransmits"] < 1:
            problems.append("no dropped message was retransmitted")
        if live["joins"] != 4 or causes.count("join") < 1:
            problems.append(f"expected 4 joins, saw {live['joins']}")
        if live["drains"] != 1 or "drain" not in causes:
            problems.append(f"expected 1 drain, saw {live['drains']}")
        return problems


def counter_total(result, name: str) -> float:
    """Sum of a ``prs_*`` counter over all its label sets (0 if unset)."""
    metric = result.trace.metrics.get(name)
    return metric.total() if metric is not None else 0.0


def _sorted_rows(a: np.ndarray) -> np.ndarray:
    return a[np.lexsort(a.T[::-1])]


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (GmmEm(), GemvDispatch(), CmeansChaos())
}
