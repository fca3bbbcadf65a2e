"""Comm-graph pairing, the network-aware critical path, and round-trips.

Covers the ISSUE-5 acceptance criteria directly: on a multi-rank GMM run
the critical path must cross rank boundaries via message edges, still
tile ``[0, makespan]`` within 1e-6 s, and report a sender/network/compute
slack decomposition that sums to total slack — plus the fault-plan
satellites (1:1 pairing under msg drop/delay, retransmit annotation
without double-counting, fault-seed determinism) and the Chrome flow-event
round trip.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import SpanTracer
from repro.obs.analyze import analyze_tracer, build_comm_graph, critical_path


def _run_gmm(nodes=4, faults=None, fault_seed=0, size=1200, iterations=3):
    from repro.apps.gmm import GMMApp
    from repro.cli import _cluster_for
    from repro.data.synth import gaussian_mixture
    from repro.runtime.job import JobConfig
    from repro.runtime.prs import PRSRuntime

    pts, _, _ = gaussian_mixture(size, 16, 5, seed=1)
    app = GMMApp(pts, 5, seed=1, max_iterations=iterations)
    config = JobConfig(scheduling="static", faults=faults,
                       fault_seed=fault_seed)
    return PRSRuntime(_cluster_for("delta", nodes), config).run(app)


@pytest.fixture(scope="module")
def gmm_result():
    return _run_gmm()


@pytest.fixture(scope="module")
def gmm_analysis(gmm_result):
    return gmm_result.analyze()


# ---------------------------------------------------------------------------
# Synthetic pairing units
# ---------------------------------------------------------------------------
class TestBuildCommGraph:
    def _tracer_with_message(self, msg_id=1, recv=True):
        tracer = SpanTracer()
        tracer.record(
            "msg r0->r1 t5", "net.r0", 0.0, 0.002, category="net",
            attrs={"msg_id": msg_id, "src": 0, "dst": 1, "src_node": 0,
                   "dst_node": 1, "tag": 5, "tagc": "p2p",
                   "nbytes": 100.0, "link": "remote"},
        )
        if recv:
            tracer.record(
                "recv r0->r1 t5", "net.r1", 0.001, 0.002, category="recv",
                attrs={"msg_id": msg_id, "src": 0, "dst": 1, "tag": 5,
                       "tagc": "p2p", "nbytes": 100.0},
            )
        return tracer

    def test_pairs_send_and_recv(self):
        graph = build_comm_graph(self._tracer_with_message())
        assert len(graph) == 1
        (m,) = graph.messages
        assert (m.src, m.dst, m.tag_class, m.nbytes) == (0, 1, "p2p", 100.0)
        assert m.recv_span_id is not None
        assert graph.edges() == [(m.send_span_id, m.recv_span_id)]
        assert graph.check() == []

    def test_unreceived_send_keeps_message_without_edge(self):
        graph = build_comm_graph(self._tracer_with_message(recv=False))
        assert len(graph) == 1
        assert graph.edges() == []
        assert graph.check() == []

    def test_unpaired_recv_is_reported(self):
        tracer = SpanTracer()
        tracer.record(
            "recv r0->r1 t5", "net.r1", 0.0, 0.001, category="recv",
            attrs={"msg_id": 99, "src": 0, "dst": 1},
        )
        graph = build_comm_graph(tracer)
        assert len(graph.unpaired_recv_span_ids) == 1
        assert any("pair with no send" in p for p in graph.check())

    def test_happens_before_violation_detected(self):
        tracer = SpanTracer()
        tracer.record(
            "msg", "net.r0", 0.010, 0.020, category="net",
            attrs={"msg_id": 1, "src": 0, "dst": 1, "nbytes": 1.0,
                   "link": "remote"},
        )
        tracer.record(  # receive "completes" before the message is visible
            "recv", "net.r1", 0.0, 0.005, category="recv",
            attrs={"msg_id": 1, "src": 0, "dst": 1},
        )
        graph = build_comm_graph(tracer)
        assert any("happens-before" in p for p in graph.check())

    def test_matrix_and_links(self):
        tracer = self._tracer_with_message()
        tracer.record(
            "msg r0->r1 t5", "net.r0", 0.003, 0.004, category="net",
            attrs={"msg_id": 2, "src": 0, "dst": 1, "src_node": 0,
                   "dst_node": 1, "tag": 5, "tagc": "p2p",
                   "nbytes": 50.0, "link": "remote"},
        )
        graph = build_comm_graph(tracer)
        matrix = graph.matrix()
        assert matrix[(0, 1, "p2p")] == {"messages": 2.0, "bytes": 150.0}
        (link,) = graph.link_timeline()
        assert (link.src_node, link.dst_node) == (0, 1)
        assert link.messages == 2
        assert link.busy_s == pytest.approx(0.003)
        assert graph.link_utilization(0.006)["n0->n1"] == pytest.approx(0.5)

    def test_timeout_spans_are_annotations_not_edges(self):
        tracer = SpanTracer()
        tracer.record(
            "recv r0->r1 t5 timeout", "net.r1", 0.0, 0.5, category="recv",
            attrs={"src": 0, "dst": 1, "tag": 5, "timeout": True},
        )
        graph = build_comm_graph(tracer)
        assert len(graph) == 0
        assert len(graph.timeout_span_ids) == 1
        assert graph.unpaired_recv_span_ids == ()


# ---------------------------------------------------------------------------
# Acceptance: network-aware critical path on a multi-rank run
# ---------------------------------------------------------------------------
class TestNetworkAwareCriticalPath:
    def test_tiling_within_acceptance_bound(self, gmm_analysis):
        assert gmm_analysis.critical_path.tiling_gap <= 1e-6
        assert gmm_analysis.check() == []

    def test_path_crosses_rank_boundaries_via_message_edges(
        self, gmm_analysis
    ):
        cp = gmm_analysis.critical_path
        assert cp.message_hops > 0
        ranks = {s.track for s in cp.segments if s.track.startswith("rank")}
        assert len(ranks) > 1
        # every network-wait segment is attributed to an actual send span
        net_waits = [s for s in cp.segments if s.wait_on == "network"]
        assert net_waits
        by_send = {m.send_span_id for m in gmm_analysis.comm.messages}
        assert all(
            s.span_id in by_send for s in net_waits if s.span_id is not None
        )

    def test_slack_decomposition_sums_to_total_slack(self, gmm_analysis):
        cp = gmm_analysis.critical_path
        decomp = cp.slack_decomposition()
        assert set(decomp) == {"sender", "network", "compute"}
        assert sum(decomp.values()) == pytest.approx(cp.slack, abs=1e-9)
        assert all(v >= 0.0 for v in decomp.values())

    def test_work_segments_never_carry_wait_on(self, gmm_analysis):
        for seg in gmm_analysis.critical_path.segments:
            if seg.is_work:
                assert seg.wait_on is None
            else:
                assert seg.wait_on in ("sender", "network", "compute")

    def test_without_comm_graph_all_slack_is_compute(self, gmm_result):
        cp = critical_path(
            gmm_result.trace.tracer, makespan=gmm_result.makespan
        )
        assert cp.tiling_gap <= 1e-6
        assert cp.message_hops == 0
        decomp = cp.slack_decomposition()
        assert decomp["sender"] == 0.0
        assert decomp["network"] == 0.0

    def test_every_message_pairs_one_to_one(self, gmm_analysis):
        comm = gmm_analysis.comm
        assert len(comm) > 0
        assert comm.unpaired_recv_span_ids == ()
        recv_ids = [m.recv_span_id for m in comm.messages
                    if m.recv_span_id is not None]
        assert len(recv_ids) == len(set(recv_ids))


# ---------------------------------------------------------------------------
# Satellite: pairing under fault plans
# ---------------------------------------------------------------------------
class TestFaultPlans:
    DROP = "msg_drop@0-1:count=2,t0=0.001"
    DELAY = "msg_delay@0-1:delay=0.002,t0=0.0,t1=1.0"

    @pytest.fixture(scope="class")
    def dropped(self):
        return _run_gmm(faults=self.DROP, fault_seed=7)

    def test_drop_pairing_and_retransmit_annotation(self, dropped):
        comm = build_comm_graph(dropped.trace.tracer)
        assert comm.unpaired_recv_span_ids == ()
        assert comm.total_retransmits == 2
        # retransmits annotate the one delivered message, they are not
        # extra messages: per-pair data-flow message counts match the
        # clean run (heartbeats are time-driven, so the stretched faulty
        # run legitimately has more of them)
        clean = build_comm_graph(_run_gmm().trace.tracer)

        def count(g):
            return {k: v["messages"] for k, v in g.matrix().items()
                    if k[2] != "heartbeat"}

        assert count(comm) == count(clean)
        retried = [m for m in comm.messages if m.retransmits]
        assert retried
        assert sum(m.retransmits for m in retried) == 2
        assert all(
            (m.src_node, m.dst_node) == (0, 1) and m.link == "remote"
            for m in retried
        )

    def test_drop_run_still_passes_checks(self, dropped):
        analysis = dropped.analyze()
        assert analysis.check() == []
        assert analysis.critical_path.tiling_gap <= 1e-6

    def test_delay_is_annotated_and_paired(self):
        result = _run_gmm(faults=self.DELAY, fault_seed=3)
        comm = build_comm_graph(result.trace.tracer)
        assert comm.unpaired_recv_span_ids == ()
        delayed = [m for m in comm.messages if m.delay_s > 0]
        assert delayed
        assert all(
            (m.src_node, m.dst_node) == (0, 1) and
            m.delay_s == pytest.approx(0.002)
            for m in delayed
        )
        assert result.analyze().check() == []

    def test_fault_seed_determinism_of_comm_graph(self):
        a = _run_gmm(faults=self.DROP, fault_seed=7, iterations=2, size=800)
        b = _run_gmm(faults=self.DROP, fault_seed=7, iterations=2, size=800)
        graph_a = build_comm_graph(a.trace.tracer)
        graph_b = build_comm_graph(b.trace.tracer)
        assert [m.to_dict() for m in graph_a.messages] == [
            m.to_dict() for m in graph_b.messages
        ]
        cp_a = critical_path(a.trace.tracer, a.makespan, comm=graph_a)
        cp_b = critical_path(b.trace.tracer, b.makespan, comm=graph_b)
        assert [s.to_dict() for s in cp_a.segments] == [
            s.to_dict() for s in cp_b.segments
        ]


# ---------------------------------------------------------------------------
# Satellite: Chrome flow events + profile round trip
# ---------------------------------------------------------------------------
class TestChromeRoundTrip:
    def test_flow_events_link_matched_spans(self, gmm_result):
        payload = gmm_result.trace.tracer.to_chrome()
        flows = [e for e in payload["traceEvents"]
                 if e.get("cat") == "comm.flow"]
        starts = {e["id"] for e in flows if e["ph"] == "s"}
        finishes = {e["id"] for e in flows if e["ph"] == "f"}
        comm = build_comm_graph(gmm_result.trace.tracer)
        assert starts == {m.msg_id for m in comm.messages}
        assert finishes == {m.msg_id for m in comm.messages
                            if m.recv_span_id is not None}
        assert all(e["bp"] == "e" for e in flows if e["ph"] == "f")

    def test_saved_profile_analyzes_identically(self, gmm_result):
        payload = json.loads(gmm_result.trace.tracer.to_chrome_json())
        reloaded = SpanTracer.from_chrome(payload)

        live = analyze_tracer(gmm_result.trace.tracer)
        saved = analyze_tracer(reloaded)

        assert saved.comm is not None and live.comm is not None
        assert len(saved.comm) == len(live.comm)
        for m_saved, m_live in zip(saved.comm.messages, live.comm.messages):
            d_saved, d_live = m_saved.to_dict(), m_live.to_dict()
            assert d_saved.keys() == d_live.keys()
            for key, value in d_live.items():
                if isinstance(value, float):
                    # timestamps pass through the Chrome export's
                    # microsecond conversion (x1e6 / 1e6): ulp-level noise
                    assert d_saved[key] == pytest.approx(value, abs=1e-12)
                else:
                    assert d_saved[key] == value, key
        assert saved.critical_path.work == pytest.approx(
            live.critical_path.work, abs=1e-9
        )
        assert saved.critical_path.slack == pytest.approx(
            live.critical_path.slack, abs=1e-9
        )
        assert saved.critical_path.slack_decomposition() == pytest.approx(
            live.critical_path.slack_decomposition(), abs=1e-9
        )
        assert saved.critical_path.message_hops == (
            live.critical_path.message_hops
        )
        assert saved.check() == []

    def test_flow_events_survive_json_dump_and_reload(self, tmp_path,
                                                      gmm_result):
        target = tmp_path / "run.trace.json"
        target.write_text(gmm_result.trace.tracer.to_chrome_json())
        reloaded = SpanTracer.from_chrome(json.loads(target.read_text()))
        graph = build_comm_graph(reloaded)
        assert len(graph) == len(build_comm_graph(gmm_result.trace.tracer))
        assert graph.unpaired_recv_span_ids == ()


# ---------------------------------------------------------------------------
# Satellite: comm counters + network-model cross-check
# ---------------------------------------------------------------------------
class TestCommAccounting:
    def test_per_pair_prometheus_counters(self, gmm_result):
        from repro import obs

        exposition = gmm_result.trace.metrics.render()
        assert 'prs_comm_bytes_total{dst="r' in exposition
        assert 'tag="shuffle"' in exposition
        # the labeled counters and the span-level matrix agree
        comm = build_comm_graph(gmm_result.trace.tracer)
        counter = gmm_result.trace.metrics.counter(obs.COMM_BYTES)
        for (src, dst, tagc), cell in comm.matrix().items():
            sampled = {
                dict(labels)["tag"]: value
                for labels, value in counter.samples()
                if dict(labels)["src"] == f"r{src}"
                and dict(labels)["dst"] == f"r{dst}"
            }
            assert sampled[tagc] == pytest.approx(cell["bytes"])

    def test_link_busy_matches_alpha_beta_model_when_fault_free(
        self, gmm_result
    ):
        comm = build_comm_graph(gmm_result.trace.tracer)
        for use in comm.link_timeline():
            assert use.pred_s > 0
            # fault-free, uncontended: observed busy time is exactly the
            # summed alpha/beta predictions unless sends overlapped (then
            # the union is smaller)
            assert use.busy_s <= use.pred_s + 1e-9

    def test_shuffle_phase_annotated_with_outgoing_stats(self, gmm_result):
        shuffles = [
            s for s in gmm_result.trace.tracer.spans
            if s.category == "phase" and s.name == "shuffle"
        ]
        assert shuffles
        for span in shuffles:
            assert span.attrs["shuffle_out_pairs"] >= 0
            assert span.attrs["shuffle_out_bytes"] >= 0
            assert 0 <= span.attrs["shuffle_fanout"] <= 4

    def test_recv_spans_do_not_inflate_device_loads(self, gmm_result):
        from repro.obs.analyze import device_loads

        loads = device_loads(gmm_result.trace.tracer)
        assert all(not d.device.startswith("net.") or d.busy_s >= 0
                   for d in loads)
        # recv waits live on net.* tracks; busy time there must come from
        # send records only (waits excluded), so it can never exceed the
        # summed send-span durations
        comm = build_comm_graph(gmm_result.trace.tracer)
        sent_by_track: dict[str, float] = {}
        for m in comm.messages:
            track = f"net.r{m.src}"
            flight_s = m.visible_at - m.sent_at
            sent_by_track[track] = sent_by_track.get(track, 0.0) + flight_s
        for d in loads:
            if d.device.startswith("net."):
                assert d.busy_s <= sent_by_track.get(d.device, 0.0) + 1e-9
