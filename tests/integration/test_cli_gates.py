"""The CLI smoke gates, run in-process through ``repro.cli.main``.

Each ``analyze --check`` and ``trace export --check`` smoke, the checks
on the dashboards and event log rendered from saved profiles, and the
``bench compare`` gate against the committed baseline.  ``--check``
fails unless spans close and nest, phase spans and the critical path
plus slack tile the makespan within 1e-6 s, message spans pair 1:1 and
every ERROR log record pairs with a recovery/alert span.
"""

import pathlib

import pytest

from repro.cli import main
from repro.runtime.policies import available_policies

BASELINE = (
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks" / "results" / "BENCH_trace_analytics.json"
)

CMEANS_SMOKE = [
    "--app", "cmeans", "--size", "2000", "--nodes", "2", "--iterations", "3",
]
# Node 0's GPU daemon dies inside the ~0.097 s default C-means makespan.
CMEANS_FAULT = ["--app", "cmeans", "--faults", "gpu_kill@0:t=0.03",
                "--seed", "7"]
GMM = ["--app", "gmm", "--size", "1500", "--nodes", "4", "--iterations", "4"]
# Two dropped messages on the 0->1 link plus a 3x network slowdown.
GMM_COMM_FAULTS = [
    *GMM,
    "--faults", "msg_drop@0-1:count=2,t0=0.001",
    "--faults", "net_slow@*:factor=3,t0=0,t1=1",
    "--fault-seed", "7",
]
GMM_RANK_KILL_LOGGED = [
    *GMM, "--faults", "rank_kill@2:t=0.02", "--fault-seed", "7",
    "--log-level", "info",
]
# An 8-node pool walking 2 -> 8 -> 4 ranks under a network slowdown and
# a rank kill: eleven membership epochs.
ELASTIC_CHAOS = [
    "--app", "gmm", "--size", "2000", "--dims", "6", "--clusters", "3",
    "--seed", "6", "--nodes", "8", "--iterations", "12",
    "--initial-nodes", "2",
    *(arg for node in range(2, 8)
      for arg in ("--faults", f"join@{node}:t=0.04")),
    "--faults", "net_slow@*:factor=3,t0=0.05,t1=0.07",
    "--faults", "rank_kill@6:t=0.07",
    "--faults", "drain@4:t=0.10", "--faults", "drain@5:t=0.10",
    "--faults", "drain@7:t=0.10",
]

# The C-means smoke's analyze --check is
# tests/test_cli.py::TestAnalyzeCommand::test_check_passes_on_live_run.
ANALYZE_GATES = {
    "gmm-comm-faults": [*GMM_COMM_FAULTS, "--comm"],
    "gmm-rank-kill-logged": GMM_RANK_KILL_LOGGED,
    "elastic-chaos": ELASTIC_CHAOS,
    **{f"policy-{name}": [*GMM, "--policy", name]
       for name in available_policies()},
}

EXPORT_GATES = {
    "cmeans-smoke": CMEANS_SMOKE,
    "cmeans-fault": CMEANS_FAULT,
    "gmm-comm-faults": GMM_COMM_FAULTS,
}


@pytest.mark.parametrize("flags", ANALYZE_GATES.values(), ids=ANALYZE_GATES)
def test_analyze_check(flags, capsys):
    assert main(["analyze", *flags, "--check"]) == 0
    assert "analysis check passed" in capsys.readouterr().out


@pytest.mark.parametrize("flags", EXPORT_GATES.values(), ids=EXPORT_GATES)
def test_trace_export_check(flags, capsys, tmp_path):
    out = tmp_path / "smoke.trace.json"
    assert main([
        "trace", "export", *flags, "--format", "chrome",
        "--out", str(out), "--check",
    ]) == 0
    assert "profile check passed" in capsys.readouterr().out
    assert out.stat().st_size > 0


def _export_and_render(flags, tmp_path, capsys):
    """Export a checked profile JSONL and render its dashboard."""
    profile = tmp_path / "run.profile.jsonl"
    assert main([
        "trace", "export", *flags, "--format", "profile",
        "--out", str(profile), "--check",
    ]) == 0
    html = tmp_path / "run.html"
    assert main(["dashboard", str(profile), "--out", str(html)]) == 0
    capsys.readouterr()
    return profile, html.read_text()


def test_elastic_chaos_dashboard(capsys, tmp_path):
    _, page = _export_and_render(ELASTIC_CHAOS, tmp_path, capsys)
    assert "<h2>Membership</h2>" in page
    assert "rank-kill" in page


def test_rank_kill_log_dumps_and_dashboard(capsys, tmp_path):
    profile, page = _export_and_render(GMM_RANK_KILL_LOGGED, tmp_path, capsys)
    assert main(["logs", str(profile), "--dumps"]) == 0
    out = capsys.readouterr().out
    assert "event log: level=info" in out
    assert "trigger=fault" in out
    assert "<h2>Event log</h2>" in page
    assert "Flight recorder" in page


def test_bench_compare_against_committed_baseline(capsys):
    assert main([
        "bench", "compare", "--baseline", str(BASELINE),
        "--tolerance", "0.25",
    ]) == 0
    assert "bench compare passed" in capsys.readouterr().out
