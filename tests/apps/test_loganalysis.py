"""Tests for the log-analysis application."""

import pytest

from repro.apps.loganalysis import LogAnalysisApp, parse_line
from repro.runtime.api import Block
from repro.runtime.shuffle import group_by_key
from tests.helpers import synthesize_log, synthetic_log_app


class TestParsing:
    def test_parses_well_formed_line(self):
        line = '10.0.1.2 - - [07/Jul/2013:10:00:00] "GET /index.html" 200 5120'
        assert parse_line(line) == ("10.0.1.2", "/index.html", 200, 5120)

    def test_malformed_returns_none(self):
        assert parse_line("garbage") is None
        assert parse_line('a "GET /x" not_a_number 12') is None

    def test_synthesize_deterministic(self):
        assert synthesize_log(10, seed=3) == synthesize_log(10, seed=3)


class TestApp:
    def test_blockwise_matches_reference(self):
        app = synthetic_log_app(500, seed=1)
        pairs = []
        for lo in range(0, 500, 37):
            pairs.extend(app.cpu_map(Block(lo, min(lo + 37, 500))))
        reduced = {
            k: app.cpu_reduce(k, vs) for k, vs in group_by_key(pairs).items()
        }
        assert reduced == app.reference()

    def test_status_classes_cover_all_lines(self):
        app = synthetic_log_app(300, seed=2)
        ref = app.reference()
        total = sum(v for k, v in ref.items() if k[0] == "status")
        assert total == 300

    def test_malformed_lines_counted(self):
        lines = synthesize_log(5, seed=0) + ["not a log line"] * 3
        app = LogAnalysisApp(lines)
        assert app.reference()[("malformed", "")] == 3

    def test_low_intensity_cpu_dominated(self, delta):
        from repro.core.analytic import workload_split

        app = synthetic_log_app(100)
        assert workload_split(delta, app.intensity(), staged=True).p > 0.95

    def test_runs_on_prs(self, delta4):
        from repro.runtime.job import JobConfig
        from repro.runtime.prs import PRSRuntime

        app = synthetic_log_app(800, seed=4)
        result = PRSRuntime(delta4, JobConfig()).run(app)
        assert result.output == app.reference()

    def test_combiner_shrinks_network_traffic(self, delta4):
        """The combiner exists to cut shuffle volume; verify it does."""
        from repro.runtime.job import JobConfig
        from repro.runtime.prs import PRSRuntime

        class NoCombiner(LogAnalysisApp):
            def has_combiner(self):
                return False

        with_comb = PRSRuntime(delta4, JobConfig()).run(
            synthetic_log_app(2000, seed=5)
        )
        without = PRSRuntime(delta4, JobConfig()).run(
            NoCombiner(synthesize_log(2000, seed=5))
        )
        assert with_comb.output == without.output
        assert with_comb.network_bytes < without.network_bytes

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LogAnalysisApp([])
