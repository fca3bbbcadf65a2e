"""Golden pins for the trace's derived views on three real jobs.

Every number the benchmarks and ``repro claims`` read off a finished run
(the observed CPU share of Table 5, per-device busy time and
utilization, the per-rank phase breakdown, the gantt timeline) is a view
over the trace.  These pins hash each view on three deterministic jobs,
so any change to how the trace stores activity must leave every view
bitwise identical:

* GEMV under the ``dynamic`` policy on 8 Delta nodes;
* GMM under the ``static`` Equation (8) split on 4 Delta nodes;
* C-means on a 6-node pool starting at 2 ranks under joins, message
  drops, a rank kill and a drain.
"""

import hashlib

import pytest

from repro.apps.cmeans import CMeansApp
from repro.apps.gemv import GemvApp
from repro.apps.gmm import GMMApp
from repro.data.synth import gaussian_mixture, random_matrix, random_vector
from repro.hardware import delta_cluster
from repro.obs.timeseries import MetricSampler
from repro.runtime.job import JobConfig
from repro.runtime.prs import PRSRuntime
from repro.simulate.trace import Trace

CHAOS = [
    "join@2:t=0.02", "join@3:t=0.02", "join@4:t=0.02", "join@5:t=0.02",
    "msg_drop@*-0:count=3,t0=0.01", "rank_kill@5:t=0.05", "drain@4:t=0.08",
]


def gemv_dynamic(selfprof=False):
    app = GemvApp(random_matrix(4000, 64, seed=3), random_vector(64, seed=4))
    config = JobConfig(scheduling="dynamic", selfprof=selfprof)
    return PRSRuntime(delta_cluster(8), config).run(app)


def gmm_static(selfprof=False):
    pts, _, _ = gaussian_mixture(3000, 8, 5, seed=5)
    app = GMMApp(pts, 5, tolerance=1e-300, max_iterations=4, seed=5)
    config = JobConfig(scheduling="static", selfprof=selfprof)
    return PRSRuntime(delta_cluster(4), config).run(app)


def cmeans_chaos(selfprof=False):
    pts, _, _ = gaussian_mixture(2000, 16, 5, seed=7)
    app = CMeansApp(pts, 5, epsilon=1e-300, max_iterations=10, seed=7)
    config = JobConfig(initial_nodes=2, faults=list(CHAOS), selfprof=selfprof)
    return PRSRuntime(delta_cluster(6), config).run(app)


GOLDEN = {
    "gemv-dynamic": (gemv_dynamic, {
        "records": "8efe257657965094e92fd49d1e8204c56af97ea4e7aad29b967f5b1964b744a0",
        "summary": "bce800201cdcb284c94c5719d7910856f2c0a24b4a24e219819f3e9cb8b4c7fb",
        "phase_breakdown": "7f7a6f4282b3c39725a04eadb97baeba8f76ef5d5dde15aee93cf8ce268d27fb",
        "total_flops": "6e6a459f51c541a6ad340bb00b201b676faf9119a43c1bd4a07e701d19bd2b1a",
        "compute_busy": "f64c6cd381704c0d8f203d2c1b0d108e215eabc16792600983a71b2085a16cbd",
        "gantt": "f00c527dbbe4592e68356a31c85487f4d06ff19747d7c73622df3f6f94f830d6",
        "cpu_fraction": "bf661615f5bc3efbe9c682c214f471e5313aa3daf20ef3c8ab2a8f6d2a6ef8be",
    }),
    "gmm-static": (gmm_static, {
        "records": "1f2e579e9e8b34c3145b9916d17bc96537536b7f7d8fdeec4deb9cb52ac341c4",
        "summary": "31eeb2cc24c6e215e39587594199f45fc7d6dd7d508e9423ffedd1bfd2a9e4a1",
        "phase_breakdown": "639027f4fe3c70b8bd99bd664c8c9b3551526f68037cad3c80d419ab39e2cbfc",
        "total_flops": "4586885f66b2b3dd1a0a00f4424ab48f9a92bc2929d07876b2826b4b6201280b",
        "compute_busy": "6444446c0f12138bfa5b3a3d86294051013f0cd54e58fae81c3edfb4dfc46219",
        "gantt": "8dc4167b890ecd745581cc9188e95f254d0ce7825099f1038a968b4b0534e9f7",
        "cpu_fraction": "c88c65abbeb358ae63444c551ee06f419f5ed56bdee93d03fa3e1f6c5d506068",
    }),
    "cmeans-chaos": (cmeans_chaos, {
        "records": "6b2abda1d6c3be3ce748b417ea6e397591498037510da094ac96aeeafbc54faf",
        "summary": "b2f07c03c74f5bd2dcef7046602ef069a12dab6b84d1d71d915718165d21d3d1",
        "phase_breakdown": "5fd2036ec4c4c651c5f07e176b7558cc6aad2e08a976c8a2b11f2e39222b7a7b",
        "total_flops": "05fda71d9eedc6dcae8b28df9e1184702352164e123e38b52e23cc8ab4a012d2",
        "compute_busy": "ac778b3688c451e717cf6dfdfcaacb2f95598a9c22d05f73ce090039cacd0d06",
        "gantt": "71a3c69b60de914dc08592688d1804cfc51600116d3b53d4160bf14ec5636144",
        "cpu_fraction": "179d3fae5276331d15f51d3c8c2bc1882de632718141716ea169c7f0af33a083",
    }),
}


def _sha(value) -> str:
    # repr() of a float is its shortest round-tripping form, so equal
    # hashes mean bitwise-equal numbers.
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _record_fields(r):
    return (r.name, r.track, r.category, r.start, r.end,
            r.attrs["nbytes"], r.attrs["flops"])


def _views(result) -> dict[str, str]:
    trace = result.trace
    ranks = sorted({s.attrs["rank"] for s in trace.tracer.find(category="phase")})
    return {
        "records": _sha([_record_fields(r) for r in trace.records]),
        "summary": _sha(trace.summary()),
        "phase_breakdown": _sha([trace.phase_breakdown(r) for r in ranks]),
        "total_flops": _sha(trace.total_flops()),
        "compute_busy": _sha(
            [trace.busy_time(d, kind="compute") for d in trace.devices()]
        ),
        "gantt": _sha(trace.gantt()),
        "cpu_fraction": _sha(result.device_fraction("cpu")),
    }


@pytest.mark.parametrize("job", sorted(GOLDEN))
def test_trace_views_match_golden(job):
    run, pins = GOLDEN[job]
    assert _views(run()) == pins


#: Exact work counters of each job: engine events scheduled, sampler
#: samples, ``repr`` of the makespan, and the sha256 of every span in
#: the tracer — every category, including the net/recv/recovery/
#: membership/alert spans the ``records`` view skips.  A job whose
#: schedule gains or loses an event, process or span fails here.
COUNTERS = {
    "gemv-dynamic": {
        "engine_events": 6749,
        "sampler_samples": 7149,
        "makespan": "0.03805368235769231",
        "spans": "1d49250218ea01e1e633572037d5b147a41f3522a17c496c4f5d2e3aab56b04f",
    },
    "gmm-static": {
        "engine_events": 6523,
        "sampler_samples": 8847,
        "makespan": "0.06415123796923082",
        "spans": "7990cd0405e2059e1716dfd8e15d17dfa7de6061dbaa3e61f6f92cdb39bc3c8d",
    },
    "cmeans-chaos": {
        "engine_events": 28142,
        "sampler_samples": 48556,
        "makespan": "0.19061083527884565",
        "spans": "811e6d7230d4d829aba7169c176f0a8b8b0fb93889fba7c6f8ed81126ff92870",
    },
}


def _counters(result) -> dict:
    spans = [
        (s.span_id, s.parent_id, s.name, s.track, s.category, s.start,
         s.end, sorted(s.attrs.items()))
        for s in result.trace.tracer.spans
    ]
    return {
        "engine_events": result.engine_events,
        "sampler_samples": result.sampler_samples,
        "makespan": repr(result.makespan),
        "spans": _sha(spans),
    }


@pytest.mark.parametrize("job", sorted(COUNTERS))
def test_work_counters_match_golden(job):
    run, _ = GOLDEN[job]
    assert _counters(run()) == COUNTERS[job]


#: sha256 of each job's host-profile call tree: the sorted
#: ``(path, calls)`` pairs of every node.  Wall times vary run to run,
#: but the scopes opened and how often they open are deterministic, so
#: an instrumentation change that moves a scope or drops a call shows.
HOST_TREE = {
    "gemv-dynamic": "421e9c8df8c7748cc28608e85440884a204d1af3c195780298ed278d56b65604",
    "gmm-static": "7ae85e11c71fd254e35a3a8e0dc85848ec80d85f973755f2e5334e38e1f95cc5",
    "cmeans-chaos": "19611ae6699b3d87a7966370acec4a8b8761a74cb3caf17ca5c06240849a3958",
}


@pytest.mark.parametrize("job", sorted(HOST_TREE))
def test_host_profile_tree_matches_golden(job):
    run, _ = GOLDEN[job]
    profile = run(selfprof=True).selfprofile
    tree = sorted((";".join(path), node.calls) for path, node in profile.nodes())
    assert _sha(tree) == HOST_TREE[job]


def test_reversed_record_leaves_no_partial_state():
    trace = Trace()
    sampler = trace.attach_sampler(MetricSampler(interval=0.5))
    trace.record("a", "n.cpu", "compute", 0.0, 1.0, nbytes=8, flops=16)
    before = (
        trace.metrics.render(),
        len(trace.tracer),
        trace.busy_time("n.cpu"),
        trace.busy_time("n.gpu0"),
        sampler.total_samples,
    )
    with pytest.raises(ValueError):
        trace.record("b", "n.cpu", "compute", start=2.0, end=1.0)
    with pytest.raises(ValueError):
        trace.record("c", "n.gpu0", "h2d", start=5.0, end=4.0, nbytes=8)
    assert (
        trace.metrics.render(),
        len(trace.tracer),
        trace.busy_time("n.cpu"),
        trace.busy_time("n.gpu0"),
        sampler.total_samples,
    ) == before
