import numpy as np
import pytest

from pseudotal.core import (
    MAX_GRID_CELLS,
    Interval,
    Segment,
    Segments,
    SnippetPredictions,
    TimeGrid,
    runs,
    snippet_centers,
    span_tiou,
)


class TestTypes:
    def test_grid_validation(self):
        g = TimeGrid(10, 0.64, 3)
        assert g.duration_s == pytest.approx(6.4)
        with pytest.raises(ValueError):
            TimeGrid(0, 1.0, 3)
        with pytest.raises(ValueError):
            TimeGrid(10, 0.0, 3)
        with pytest.raises(ValueError):
            TimeGrid(10, 1.0, 0)

    def test_grid_cell_bound(self):
        # T * (C + 1) cells, at most MAX_GRID_CELLS: a huge T or a huge C alone
        TimeGrid(MAX_GRID_CELLS // 4, 1.0, 3)
        TimeGrid(1, 1.0, MAX_GRID_CELLS - 1)
        for t, c in [(MAX_GRID_CELLS // 4 + 1, 3), (1, MAX_GRID_CELLS), (10**9, 1)]:
            with pytest.raises(ValueError, match="num_snippets \\* \\(class_count \\+ 1\\)"):
                TimeGrid(t, 1.0, c)

    def test_interval_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Interval(5.0, 5.0)
        with pytest.raises(ValueError):
            Interval(5.0, 2.0)
        with pytest.raises(ValueError):
            Interval(0.0, float("inf"))
        assert Interval(2.0, 6.0).duration_s == 4.0

    def test_segments_validation(self):
        good = {"start_s": [0.0, 2.0], "end_s": [1.0, 5.0], "class_id": [1, 3],
                "score": [0.5, -0.25]}
        segs = Segments(**good)
        assert len(segs) == 2
        assert [c.dtype for c in (segs.start_s, segs.end_s, segs.class_id, segs.score)] == [
            np.float64, np.float64, np.int64, np.float64]
        assert not any(c.flags.writeable for c in (segs.start_s, segs.end_s, segs.class_id,
                                                   segs.score))
        assert len(Segments([], [], [], [])) == 0
        # one case per rule, each with the message it raises
        cases = [
            ({"score": [0.5]}, "1-D and of one length"),
            ({"start_s": [[0.0, 2.0]]}, "1-D and of one length"),
            ({"start_s": [0.0, float("nan")]}, "interval endpoints must be finite"),
            ({"end_s": [1.0, float("inf")]}, "interval endpoints must be finite"),
            ({"end_s": [1.0, 2.0]}, "interval requires start_s < end_s"),
            ({"score": [0.5, float("nan")]}, "score must be finite"),
            ({"class_id": [1, 0]}, "class_id must be >= 1"),
            ({"class_id": [1.0, 3.0]}, "class_id must hold int64 integers"),
            ({"class_id": [1, 2**63]}, "class_id must hold int64 integers"),
        ]
        for change, message in cases:
            with pytest.raises(ValueError, match=message):
                Segments(**{**good, **change})

    def test_segments_rows_and_selection(self):
        segs = Segments([0.0, 2.0, 4.0], [1.0, 5.0, 6.0], [1, 3, 2], [0.5, -0.0, 0.25])
        rows = list(segs)
        assert rows == [(0.0, 1.0, 1, 0.5), (2.0, 5.0, 3, -0.0), (4.0, 6.0, 2, 0.25)]
        assert all(type(r) is Segment for r in rows)
        assert [type(v) for v in rows[1]] == [float, float, int, float]
        assert list(segs.select(np.array([2, 0]))) == [rows[2], rows[0]]
        assert list(segs.select(segs.score > 0.3)) == [rows[0]]

    def test_snippet_predictions_validation(self):
        att = np.array([0.5, 1.0])
        cls = np.array([[0.4, 0.6], [0.2, 0.8]])
        preds = SnippetPredictions(att, cls)
        assert preds.num_snippets == 2
        assert preds.class_count == 1
        assert not preds.attention.flags.writeable
        with pytest.raises(ValueError):
            SnippetPredictions(np.array([1.5, 0.0]), cls)
        with pytest.raises(ValueError):
            SnippetPredictions(att, np.array([[0.4, 0.5], [0.2, 0.8]]))


class TestTiou:
    def test_examples(self):
        assert span_tiou(0, 10, 5, 15) == pytest.approx(1 / 3)
        assert span_tiou(0, 10, 0, 10) == 1.0
        assert span_tiou(0, 5, 6, 9) == 0.0

    def test_symmetry_property(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a0, b0 = rng.uniform(0, 50, 2)
            a = (a0, a0 + rng.uniform(0.1, 20))
            b = (b0, b0 + rng.uniform(0.1, 20))
            assert span_tiou(*a, *b) == span_tiou(*b, *a)
            assert 0.0 <= span_tiou(*a, *b) <= 1.0

    def test_nested_equals_length_ratio(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            a_end = rng.uniform(5, 30)
            s = rng.uniform(0, a_end * 0.5)
            e = rng.uniform(s + 0.1, a_end)
            assert span_tiou(0.0, a_end, s, e) == pytest.approx((e - s) / a_end)


class TestSnippetMapping:
    def test_centers(self):
        g = TimeGrid(4, 0.5, 1)
        assert snippet_centers(g).tolist() == [0.25, 0.75, 1.25, 1.75]


def _naive_runs(values):
    out = []
    for i, v in enumerate(values.tolist()):
        if out and out[-1][2] == v:
            out[-1][1] = i
        else:
            out.append([i, i, v])
    return [tuple(r) for r in out]


class TestRuns:
    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64])
    def test_matches_naive_loop(self, dtype):
        rng = np.random.default_rng(41)
        high = {bool: 2, np.uint8: 3, np.int64: 4}[dtype]
        for n in (0, 1, 2, 3, 17, 200):
            for _ in range(30):
                values = rng.integers(-1 if dtype is np.int64 else 0, high, n).astype(dtype)
                assert runs(values) == _naive_runs(values)

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64])
    def test_edges(self, dtype):
        assert runs(np.zeros(0, dtype=dtype)) == []
        assert runs(np.ones(1, dtype=dtype)) == [(0, 0, 1)]
        assert runs(np.ones(9, dtype=dtype)) == [(0, 8, 1)]
        assert runs(np.zeros(4, dtype=dtype)) == [(0, 3, 0)]

    def test_values_are_python_scalars(self):
        out = runs(np.array([True, True, False]))
        assert out == [(0, 1, True), (2, 2, False)]
        assert all(type(v) is bool for _, _, v in out)
        assert all(type(v) is int for _, _, v in runs(np.array([3, 3, -1], dtype=np.int64)))
