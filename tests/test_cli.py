"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestAdvise:
    def test_cmeans_on_delta(self, capsys):
        assert main(["advise", "--node", "delta", "--app", "cmeans"]) == 0
        out = capsys.readouterr().out
        assert "CPU share p" in out
        assert "11.2%" in out  # Table 5 value

    def test_gemv_staged(self, capsys):
        main(["advise", "--node", "delta", "--app", "gemv"])
        out = capsys.readouterr().out
        assert "97.2%" in out
        assert "staged via PCI-E" in out

    def test_resident_flag(self, capsys):
        main(["advise", "--app", "gemv", "--resident"])
        out = capsys.readouterr().out
        assert "resident in GPU memory" in out

    def test_custom_intensity(self, capsys):
        main(["advise", "--intensity", "7.5"])
        out = capsys.readouterr().out
        assert "custom(A=7.5)" in out

    def test_unknown_app_exits(self):
        with pytest.raises(SystemExit):
            main(["advise", "--app", "nonsense"])

    def test_mic_preset(self, capsys):
        assert main(["advise", "--node", "mic", "--app", "gmm"]) == 0
        assert "mic" in capsys.readouterr().out


class TestRoofline:
    @pytest.mark.parametrize("node", ["delta", "bigred2", "mic"])
    def test_prints_ridges(self, capsys, node):
        assert main(["roofline", "--node", node]) == 0
        out = capsys.readouterr().out
        assert "ridge A" in out
        assert "GPU staged" in out


class TestRun:
    def test_cmeans_run(self, capsys):
        code = main([
            "run", "--app", "cmeans", "--size", "2000", "--nodes", "2",
            "--iterations", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "split (eq 8)" in out

    def test_gemv_gpu_only(self, capsys):
        code = main([
            "run", "--app", "gemv", "--size", "1000", "--dims", "32",
            "--gpu-only",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "GPU" in out
        assert "split (eq 8)" not in out  # single device class: no split

    def test_wordcount_dynamic(self, capsys):
        code = main([
            "run", "--app", "wordcount", "--size", "50",
            "--policy", "dynamic",
        ])
        assert code == 0

    def test_conflicting_device_flags_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--gpu-only", "--cpu-only"])

    def test_faulted_run_reports_recovery(self, capsys):
        code = main([
            "run", "--app", "cmeans", "--size", "2000", "--nodes", "2",
            "--iterations", "3", "--faults", "gpu_kill@0:t=0.03",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "faults         : 1 injected" in out
        assert "blocks retried" in out

    def test_faulted_json_includes_recovery(self, capsys):
        import json

        code = main([
            "run", "--app", "cmeans", "--size", "2000", "--nodes", "2",
            "--iterations", "3", "--json",
            "--faults", "gpu_kill@0:t=0.03",
            "--faults", "straggler@1.cpu:factor=2,t0=0.02,t1=0.05",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["recovery"]["faults_injected"] >= 1
        assert payload["recovery"]["blocks_retried"] > 0

    def test_bad_fault_spec_rejected(self):
        with pytest.raises(ValueError):
            main(["run", "--faults", "quantum_flip@0:t=1"])

    def test_elastic_run_reports_membership(self, capsys):
        code = main([
            "run", "--app", "gmm", "--size", "2000", "--dims", "6",
            "--nodes", "4", "--iterations", "4", "--initial-nodes", "2",
            "--faults", "join@2:t=0.03",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "membership     : 1 transitions (1 joins, 0 drains" in out
        assert "ranks 2 -> 3" in out

    def test_elastic_json_includes_epochs(self, capsys):
        import json

        code = main([
            "run", "--app", "gmm", "--size", "2000", "--dims", "6",
            "--nodes", "4", "--iterations", "4", "--initial-nodes", "2",
            "--faults", "join@2:t=0.03", "--faults", "drain@2:t=0.05",
            "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        rec = payload["recovery"]
        assert rec["joins"] == 1 and rec["drains"] == 1
        causes = [e["cause"] for e in rec["epochs"]]
        assert causes == ["start", "join", "drain"]
        assert rec["epochs"][0]["members"] == [0, 1]

    def test_bad_autoscale_knob_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--autoscale", "min_nodes=lots"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestProfileFlag:
    RUN = [
        "run", "--app", "cmeans", "--size", "2000", "--nodes", "2",
        "--iterations", "3",
    ]

    def test_profile_writes_chrome_trace(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(self.RUN + ["--profile"]) == 0
        out = capsys.readouterr().out
        assert "profile written: cmeans_profile.trace.json" in out
        assert "observed vs Equation (8)" in out
        assert "phase tiling" in out
        import json

        payload = json.loads((tmp_path / "cmeans_profile.trace.json").read_text())
        assert any(e["ph"] == "X" for e in payload["traceEvents"])

    def test_profile_out_path(self, capsys, tmp_path):
        target = tmp_path / "custom.json"
        assert main(self.RUN + ["--profile-out", str(target)]) == 0
        assert target.exists()

    def test_json_mode_reports_profile_path(self, capsys, tmp_path):
        import json

        target = tmp_path / "p.json"
        assert main(self.RUN + ["--json", "--profile-out", str(target)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["profile"] == str(target)


class TestMetricsCommand:
    def test_prometheus_exposition(self, capsys):
        code = main([
            "metrics", "--app", "cmeans", "--size", "1000", "--nodes", "1",
            "--iterations", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE prs_device_busy_seconds_total counter" in out
        assert "prs_phase_seconds_total{" in out
        assert 'prs_policy_blocks_dispatched_total{' in out
        assert "prs_job_makespan_seconds" in out

    def test_json_format(self, capsys):
        import json

        code = main([
            "metrics", "--app", "cmeans", "--size", "1000", "--nodes", "1",
            "--iterations", "2", "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "prs_device_flops_total" in payload
        assert "prs_job_makespan_seconds" in payload
        # Self-describing shape: HELP/TYPE metadata alongside samples,
        # mirroring the Prometheus text exposition's comment lines.
        for entry in payload.values():
            assert set(entry) == {"help", "type", "samples"}
            assert entry["type"] in {
                "counter", "gauge", "histogram", "untyped"
            }
            assert isinstance(entry["samples"], list)
        assert payload["prs_device_flops_total"]["type"] == "counter"
        assert payload["prs_job_makespan_seconds"]["type"] == "gauge"


class TestTraceExport:
    RUN = [
        "trace", "export", "--app", "cmeans", "--size", "1000",
        "--nodes", "2", "--iterations", "2",
    ]

    def test_chrome_export_with_check(self, capsys, tmp_path):
        target = tmp_path / "out.trace.json"
        assert main(self.RUN + ["--check", "--out", str(target)]) == 0
        out = capsys.readouterr().out
        assert "profile check passed" in out
        import json

        payload = json.loads(target.read_text())
        assert payload["traceEvents"]

    def test_jsonl_export(self, capsys, tmp_path):
        import json

        target = tmp_path / "run.profile.jsonl"
        assert main(
            self.RUN + ["--format", "profile", "--out", str(target)]
        ) == 0
        header, *lines = map(json.loads, target.read_text().splitlines())
        assert "profile_meta" in header
        spans = [obj for obj in lines if "span_id" in obj]
        assert spans and all(span["name"] for span in spans)

    def test_stdout_export(self, capsys):
        import json

        assert main(self.RUN + ["--out", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["traceEvents"]

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["trace"])


class TestPoliciesCommand:
    def test_lists_registered_policies(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        for name in (
            "static",
            "dynamic",
            "adaptive-feedback",
            "locality-dynamic",
        ):
            assert name in out


class TestRunPolicyFlag:
    RUN = [
        "run", "--app", "cmeans", "--size", "2000", "--nodes", "2",
        "--iterations", "3",
    ]

    def test_adaptive_feedback_prints_breakdown(self, capsys):
        assert main(self.RUN + ["--policy", "adaptive-feedback"]) == 0
        out = capsys.readouterr().out
        assert "adaptive-feedback" in out
        assert "phase breakdown" in out
        for phase in ("map", "shuffle", "reduce", "gather"):
            assert phase in out

    def test_default_run_prints_policy_and_phases(self, capsys):
        assert main(self.RUN) == 0
        out = capsys.readouterr().out
        assert "policy         : static" in out
        assert "phase breakdown" in out

    def test_json_includes_policy_and_phase_breakdown(self, capsys):
        import json

        assert main(self.RUN + ["--policy", "locality-dynamic", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["policy"] == "locality-dynamic"
        assert "-1" in payload["phase_breakdown"]
        assert "map" in payload["phase_breakdown"]["0"]

    def test_unknown_policy_fails(self):
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            main(self.RUN + ["--policy", "nonsense"])

    def test_report_includes_phase_table(self, capsys):
        assert main(self.RUN + ["--report"]) == 0
        out = capsys.readouterr().out
        assert "phase breakdown" in out
        assert "policy            : static" in out


class TestAnalyzeCommand:
    RUN = [
        "analyze", "--app", "cmeans", "--size", "2000", "--nodes", "2",
        "--iterations", "3",
    ]

    def test_live_run_text_output(self, capsys):
        assert main(self.RUN) == 0
        out = capsys.readouterr().out
        assert "critical path (what the makespan was waiting on):" in out
        assert "tiling gap" in out
        assert "top stragglers" in out
        assert "model drift" in out

    def test_check_passes_on_live_run(self, capsys):
        assert main(self.RUN + ["--check"]) == 0
        out = capsys.readouterr().out
        assert "analysis check passed" in out

    def test_comm_section_on_live_run(self, capsys):
        assert main(self.RUN + ["--comm"]) == 0
        out = capsys.readouterr().out
        assert "communication (matched send/recv message spans):" in out
        assert "path waits on" in out
        assert "comm matrix" in out
        assert "link utilization" in out

    def test_comm_section_from_saved_profile(self, capsys, tmp_path):
        target = tmp_path / "run.trace.json"
        assert main([
            "trace", "export", "--app", "cmeans", "--size", "1000",
            "--nodes", "2", "--iterations", "2", "--out", str(target),
        ]) == 0
        capsys.readouterr()
        assert main(["analyze", str(target), "--comm", "--check"]) == 0
        out = capsys.readouterr().out
        assert "comm matrix" in out
        assert "message spans pair 1:1" in out

    def test_comm_json_payload(self, capsys):
        import json

        assert main(self.RUN + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (analysis,) = payload.values()
        comm = analysis["comm"]
        assert comm["messages"] > 0
        assert comm["unpaired_recvs"] == 0
        assert comm["matrix"]
        assert analysis["critical_path"]["slack_decomposition"]

    def test_json_payload(self, capsys):
        import json

        assert main(self.RUN + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (analysis,) = payload.values()
        assert analysis["critical_path"]["tiling_gap_s"] <= 1e-6
        assert analysis["decisions"]
        assert analysis["imbalance"]["devices"]

    def test_saved_profile_analysis(self, capsys, tmp_path):
        target = tmp_path / "run.trace.json"
        assert main([
            "trace", "export", "--app", "cmeans", "--size", "1000",
            "--nodes", "2", "--iterations", "2", "--out", str(target),
        ]) == 0
        capsys.readouterr()
        assert main(["analyze", str(target), "--check"]) == 0
        out = capsys.readouterr().out
        assert f"=== {target}" in out
        assert "analysis check passed" in out

    def test_directory_of_profiles(self, capsys, tmp_path):
        target = tmp_path / "a.trace.json"
        assert main([
            "trace", "export", "--app", "cmeans", "--size", "1000",
            "--nodes", "2", "--iterations", "2", "--out", str(target),
        ]) == 0
        capsys.readouterr()
        assert main(["analyze", str(tmp_path)]) == 0
        assert "critical path" in capsys.readouterr().out

    def test_missing_profile_exits(self):
        with pytest.raises(SystemExit, match="not found"):
            main(["analyze", "/nonexistent/thing.trace.json"])


class TestBenchCommands:
    def test_baseline_then_compare_round_trip(self, capsys, tmp_path):
        import json

        base = tmp_path / "base.json"
        assert main(["bench", "baseline", "--out", str(base)]) == 0
        assert "wrote baseline" in capsys.readouterr().out

        payload = json.loads(base.read_text())
        assert payload["schema_version"] == 3
        assert "cmeans-static" in payload["workloads"]
        assert "gmm-multirank" in payload["workloads"]

        # self-compare via --current: no sweep re-run, must pass
        assert main([
            "bench", "compare", "--baseline", str(base),
            "--current", str(base), "--tolerance", "0.01",
        ]) == 0
        assert "bench compare passed" in capsys.readouterr().out

        # synthetic 2x slowdown: halve every baseline makespan so the
        # same current sweep looks twice as slow
        doctored = json.loads(base.read_text())
        for workload in doctored["workloads"].values():
            workload["metrics"]["makespan_s"] /= 2.0
        bad = tmp_path / "doctored.json"
        bad.write_text(json.dumps(doctored))
        assert main([
            "bench", "compare", "--baseline", str(bad),
            "--current", str(base), "--tolerance", "0.25",
        ]) == 1
        err = capsys.readouterr().err
        assert "REGRESSION" in err
        assert "bench compare FAILED" in err

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["bench"])


class TestRunAnalysisSurface:
    RUN = [
        "run", "--app", "cmeans", "--size", "2000", "--nodes", "2",
        "--iterations", "3",
    ]

    def test_json_includes_analysis_block(self, capsys):
        import json

        assert main(self.RUN + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        analysis = payload["analysis"]
        assert analysis["critical_path"]["tiling_gap_s"] <= 1e-6
        assert analysis["model_drift"] is not None

    def test_report_includes_critical_path_and_stragglers(self, capsys):
        assert main(self.RUN + ["--report"]) == 0
        out = capsys.readouterr().out
        assert "critical path (what the makespan was waiting on):" in out
        assert "top stragglers" in out
        assert "model drift" in out


class TestSelfprofCLI:
    RUN = [
        "run", "--app", "cmeans", "--size", "600", "--nodes", "2",
        "--iterations", "2",
    ]

    def test_run_selfprof_prints_hotspot_report(self, capsys):
        assert main(self.RUN + ["--selfprof"]) == 0
        out = capsys.readouterr().out
        assert "host self-profile" in out
        assert "host wall-clock by subsystem (exclusive):" in out
        assert "engine" in out

    def test_run_selfprof_json_payload(self, capsys):
        import json

        assert main(self.RUN + ["--selfprof", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        host = payload["host"]
        assert host["wall_s"] > 0
        assert host["events_per_sec"] > 0
        assert "engine" in host["sections"]
        assert host["top_exclusive"]

    def test_selfprof_smoke_matches_plain_run(self, capsys):
        # The self-profiling smoke gate: on the C-means smoke run, host
        # self-profiling must leave the simulated schedule untouched and
        # attribute real time to the engine and kernel subsystems.
        import json

        smoke = [
            "run", "--app", "cmeans", "--size", "2000", "--nodes", "2",
            "--iterations", "3", "--json",
        ]
        assert main(smoke + ["--selfprof"]) == 0
        prof = json.loads(capsys.readouterr().out)
        assert main(smoke) == 0
        plain = json.loads(capsys.readouterr().out)
        assert prof["makespan_s"] == plain["makespan_s"], (
            "selfprof perturbed the simulated schedule")
        assert (prof["sampling"]["engine_events"]
                == plain["sampling"]["engine_events"]), (
            "selfprof perturbed the event count")
        host = prof["host"]
        assert host["wall_s"] > 0 and host["events_per_sec"] > 0
        sections = host["sections"]
        assert "engine" in sections and "kernel" in sections, sections
        assert host["top_exclusive"], "empty hotspot list"

    def test_plain_run_has_no_host_block(self, capsys):
        import json

        assert main(self.RUN + ["--json"]) == 0
        assert "host" not in json.loads(capsys.readouterr().out)

    def _export_selfprof(self, tmp_path, capsys):
        profile = tmp_path / "run.profile.jsonl"
        assert main([
            "trace", "export", *self.RUN[1:], "--selfprof",
            "--format", "profile", "--out", str(profile),
        ]) == 0
        capsys.readouterr()  # discard the "wrote N spans" line
        return profile

    def test_selfprof_out_then_report(self, capsys, tmp_path):
        # Older versions wrote the self-profile standalone: one
        # {"host_profile": ...} line, which must still render.
        profile = self._export_selfprof(tmp_path, capsys)
        (line,) = [
            line for line in profile.read_text().splitlines()
            if line.startswith('{"host_profile"')
        ]
        standalone = tmp_path / "host.selfprof.json"
        standalone.write_text(line + "\n")
        assert main(["selfprof", str(standalone)]) == 0
        out = capsys.readouterr().out
        assert "host self-profile" in out
        assert "scope path" in out

    def test_selfprof_report_json_and_exports(self, capsys, tmp_path):
        import json

        target = self._export_selfprof(tmp_path, capsys)
        speedscope = tmp_path / "host.speedscope.json"
        collapsed = tmp_path / "host.collapsed.txt"
        assert main([
            "selfprof", str(target), "--json",
            "--speedscope", str(speedscope),
            "--collapsed", str(collapsed),
        ]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["wall_s"] > 0
        assert "engine" in payload["sections"]
        doc = json.loads(speedscope.read_text())
        assert doc["profiles"][0]["unit"] == "seconds"
        assert collapsed.read_text().splitlines()

    def test_selfprof_reads_profile_jsonl(self, capsys, tmp_path):
        profile = self._export_selfprof(tmp_path, capsys)
        assert main(["selfprof", str(profile)]) == 0
        assert "host self-profile" in capsys.readouterr().out

    def test_selfprof_rejects_profile_without_host(self, capsys, tmp_path):
        profile = tmp_path / "plain.profile.jsonl"
        assert main([
            "trace", "export", "--app", "cmeans", "--size", "600",
            "--nodes", "2", "--iterations", "2",
            "--format", "profile", "--out", str(profile),
        ]) == 0
        with pytest.raises(SystemExit, match="no host self-profile"):
            main(["selfprof", str(profile)])

    def test_analyze_self_live_run(self, capsys):
        assert main([
            "analyze", "--app", "cmeans", "--size", "600", "--nodes", "2",
            "--iterations", "2", "--selfprof",
        ]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "host self-profile" in out

    def test_analyze_self_json_merges_host(self, capsys):
        import json

        assert main([
            "analyze", "--app", "cmeans", "--size", "600", "--nodes", "2",
            "--iterations", "2", "--selfprof", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        host = payload["cmeans"]["host"]
        assert host["wall_s"] > 0
        assert "engine" in host["sections"]

    def test_analyze_selfprof_on_saved_trace_notes_no_host(
        self, capsys, tmp_path
    ):
        trace = tmp_path / "run.trace.json"
        assert main(["trace", "export", *self.RUN[1:], "--out", str(trace)]) == 0
        assert main(["analyze", str(trace), "--selfprof"]) == 0
        assert "carry no host self-profile" in capsys.readouterr().err


class TestLogsCommand:
    RUN = [
        "--app", "cmeans", "--size", "600", "--nodes", "2",
        "--iterations", "2", "--log-level", "info",
        "--faults", "gpu_kill@0:t=0.01",
    ]

    def _export(self, tmp_path, capsys):
        profile = tmp_path / "logged.profile.jsonl"
        assert main([
            "trace", "export", *self.RUN,
            "--format", "profile", "--out", str(profile),
        ]) == 0
        capsys.readouterr()  # discard the "wrote N spans" line
        return profile

    def test_run_json_carries_logs_block(self, capsys):
        import json

        assert main(["run", *self.RUN, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        logs = payload["logs"]
        assert logs["level"] == "info"
        assert logs["emitted"] >= logs["records"] >= 0
        assert isinstance(logs["dumps"], list)

    def test_run_text_mentions_event_log(self, capsys):
        assert main(["run", *self.RUN]) == 0
        assert "event log" in capsys.readouterr().out

    def test_logs_reads_saved_profile(self, capsys, tmp_path):
        profile = self._export(tmp_path, capsys)
        assert main(["logs", str(profile)]) == 0
        out = capsys.readouterr().out
        assert "event log: level=info" in out

    def test_logs_filters(self, capsys, tmp_path):
        import json

        profile = self._export(tmp_path, capsys)
        assert main([
            "logs", str(profile), "--level", "info", "--grep", ".", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["meta"]["level"] == "info"
        for record in payload["records"]:
            assert record["level"] in {"info", "warning", "error"}

    def test_logs_around_span(self, capsys, tmp_path):
        import json

        profile = self._export(tmp_path, capsys)
        assert main(["logs", str(profile), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        spanned = [
            r for r in payload["records"] if r["span_id"] is not None
        ]
        if not spanned:
            pytest.skip("no span-correlated records in this run")
        span_id = spanned[0]["span_id"]
        assert main([
            "logs", str(profile), "--around-span", str(span_id), "--json",
        ]) == 0
        narrowed = json.loads(capsys.readouterr().out)
        assert narrowed["records"]
        assert len(narrowed["records"]) <= len(payload["records"])

    def test_logs_rejects_profile_without_log(self, tmp_path):
        profile = tmp_path / "plain.profile.jsonl"
        assert main([
            "trace", "export", "--app", "cmeans", "--size", "600",
            "--nodes", "2", "--iterations", "2",
            "--format", "profile", "--out", str(profile),
        ]) == 0
        with pytest.raises(SystemExit, match="no event log"):
            main(["logs", str(profile)])

    def test_analyze_check_cross_validates_log(self, capsys):
        assert main([
            "analyze", *self.RUN, "--check",
        ]) == 0
        out = capsys.readouterr().out
        assert "ERROR log records pair" in out


@pytest.mark.parametrize("content", ["not a profile\n", None],
                         ids=["text-file", "missing"])
@pytest.mark.parametrize("command", ["selfprof", "dashboard", "logs"])
def test_unloadable_profile_exits_naming_the_file(command, content, tmp_path):
    path = tmp_path / "notes.txt"
    if content is not None:
        path.write_text(content)
    with pytest.raises(SystemExit) as excinfo:
        main([command, str(path)])
    message = str(excinfo.value.code)
    assert str(path) in message
    if content is not None:
        assert "profile line 1" in message
