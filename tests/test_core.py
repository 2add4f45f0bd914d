import numpy as np
import pytest

from pseudotal.core import (
    MAX_GRID_CELLS,
    Interval,
    Proposal,
    PseudoProposal,
    SnippetPredictions,
    TimeGrid,
    runs,
    snippet_centers,
    tiou,
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
        iv = Interval(2.0, 6.0)
        assert iv.duration_s == 4.0
        assert iv.midpoint_s == 4.0

    def test_proposal_validation(self):
        p = Proposal(Interval(0, 1), 0.5, 1)
        assert p.class_id == 1
        with pytest.raises(ValueError):
            Proposal(Interval(0, 1), 0.5, 0)
        with pytest.raises(ValueError):
            Proposal(Interval(0, 1), float("nan"), 1)

    def test_pseudo_proposal_confidence_nonneg(self):
        with pytest.raises(ValueError):
            PseudoProposal(Interval(0, 1), 1, -0.1)
        p = PseudoProposal(Interval(0, 4), 2, 0.0)
        assert (p.class_id, p.confidence) == (2, 0.0)

    def test_proposal_as_pseudo_floors_score(self):
        p = Proposal(Interval(1, 3), 0.7, 2).as_pseudo()
        assert p == PseudoProposal(Interval(1, 3), 2, 0.7)
        assert Proposal(Interval(1, 3), -0.2, 2).as_pseudo().confidence == 0.0
        assert Proposal(p.interval, p.confidence, p.class_id).as_pseudo() == p

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
        assert tiou(Interval(0, 10), Interval(5, 15)) == pytest.approx(1 / 3)
        assert tiou(Interval(0, 10), Interval(0, 10)) == 1.0
        assert tiou(Interval(0, 5), Interval(6, 9)) == 0.0

    def test_symmetry_property(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a0, b0 = rng.uniform(0, 50, 2)
            a = Interval(a0, a0 + rng.uniform(0.1, 20))
            b = Interval(b0, b0 + rng.uniform(0.1, 20))
            assert tiou(a, b) == tiou(b, a)
            assert 0.0 <= tiou(a, b) <= 1.0

    def test_nested_equals_length_ratio(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            a = Interval(0.0, rng.uniform(5, 30))
            s = rng.uniform(0, a.duration_s * 0.5)
            e = rng.uniform(s + 0.1, a.duration_s)
            b = Interval(s, e)
            assert tiou(a, b) == pytest.approx(b.duration_s / a.duration_s)


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
