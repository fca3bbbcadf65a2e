"""Tests for dataset persistence."""

import numpy as np
import pytest

from repro.data.io import (
    load_corpus,
    load_lines,
    load_points,
    save_corpus,
    save_lines,
    save_points,
)
from repro.data.synth import gaussian_mixture, text_corpus


class TestPointsRoundtrip:
    def test_full_roundtrip(self, tmp_path):
        pts, labels, centers = gaussian_mixture(100, 4, 3, seed=1)
        path = tmp_path / "set.npz"
        save_points(path, pts, labels, centers)
        p2, l2, c2 = load_points(path)
        np.testing.assert_array_equal(p2, pts)
        np.testing.assert_array_equal(l2, labels)
        np.testing.assert_array_equal(c2, centers)

    def test_points_only(self, tmp_path):
        pts = np.ones((5, 2), dtype=np.float32)
        path = tmp_path / "p.npz"
        save_points(path, pts)
        p2, l2, c2 = load_points(path)
        np.testing.assert_array_equal(p2, pts)
        assert l2 is None and c2 is None

    def test_dtype_preserved(self, tmp_path):
        pts = np.ones((5, 2), dtype=np.float32)
        path = tmp_path / "p.npz"
        save_points(path, pts)
        assert load_points(path)[0].dtype == np.float32

    def test_label_length_checked(self, tmp_path):
        with pytest.raises(ValueError, match="labels"):
            save_points(tmp_path / "x.npz", np.ones((5, 2)), np.zeros(3))

    def test_center_shape_checked(self, tmp_path):
        with pytest.raises(ValueError, match="centers"):
            save_points(
                tmp_path / "x.npz", np.ones((5, 2)), centers=np.ones((3, 4))
            )

    def test_foreign_npz_rejected(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, stuff=np.ones(3))
        with pytest.raises(ValueError, match="format"):
            load_points(path)


class TestLinesAndCorpus:
    def test_lines_roundtrip(self, tmp_path):
        lines = ["alpha", "beta gamma", ""]
        path = tmp_path / "log.txt"
        save_lines(path, lines)
        assert load_lines(path) == lines

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        save_lines(path, [])
        assert load_lines(path) == []

    def test_corpus_roundtrip(self, tmp_path):
        docs = text_corpus(8, words_per_doc=20, seed=2)
        path = tmp_path / "corpus.txt"
        save_corpus(path, docs)
        assert load_corpus(path) == docs

    def test_corpus_rejects_whitespace_tokens(self, tmp_path):
        with pytest.raises(ValueError, match="whitespace"):
            save_corpus(tmp_path / "c.txt", [["bad token"]])

    def test_loganalysis_via_files(self, tmp_path):
        """End-to-end: synthesize a log, persist, reload, analyse."""
        from repro.apps.loganalysis import LogAnalysisApp
        from tests.helpers import synthesize_log

        lines = synthesize_log(50, seed=3)
        path = tmp_path / "access.log"
        save_lines(path, lines)
        app = LogAnalysisApp(load_lines(path))
        assert app.n_items() == 50
        assert app.reference() == LogAnalysisApp(lines).reference()
