import math

import numpy as np
import pytest

from pseudotal.core import Interval, SnippetPredictions, TimeGrid
from pseudotal.weak_branch import (
    VideoLabel,
    compute_sps,
    extract_proposals,
    oic_scores,
    soft_nms,
    weak_proposals,
)
from segment_objects import segments


class TestVideoLabel:
    def test_from_classes_ignores_order_and_repeats(self):
        sorted_set = VideoLabel.from_classes([1, 3, 4], 5).onehot.tolist()
        assert sorted_set == [1, 0, 1, 1, 0]
        assert VideoLabel.from_classes([4, 1, 3, 1, 4], 5).onehot.tolist() == sorted_set

    @pytest.mark.parametrize("classes", [[0], [2, 6]])
    def test_from_classes_out_of_range(self, classes):
        message = {0: "class_id 0 is not an int64 integer >= 1",
                   6: "class_id 6 lies outside the 5 classes of its grid"}[classes[-1]]
        with pytest.raises(ValueError, match=f"^{message}$"):
            VideoLabel.from_classes(classes, 5)

    @pytest.mark.parametrize("classes, bad", [([True], True), ([2, True], True), ([1.0], 1.0)])
    def test_from_classes_refuses_what_is_no_class_id(self, classes, bad):
        # True is no class 1, and 1.0 is no index
        with pytest.raises(ValueError, match=f"^class_id {bad} is not an int64 integer >= 1$"):
            VideoLabel.from_classes(classes, 5)


class TestComputeSps:
    def test_elementwise_product(self):
        z = compute_sps(np.array([0.5]), np.array([[0.4, 0.6]]))
        assert z.tolist() == [[0.2, 0.3]]

    def test_identity_and_zero(self):
        cls = np.array([[0.3, 0.7], [0.8, 0.2]])
        assert compute_sps(np.ones(2), cls) == pytest.approx(cls)
        assert compute_sps(np.zeros(2), cls) == pytest.approx(np.zeros_like(cls))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            compute_sps(np.ones(3), np.ones((2, 2)) / 2)


def _sps_matrix(col):
    col = np.asarray(col, dtype=np.float64)
    return np.stack([col, 1.0 - col], axis=1)


class TestExtractProposals:
    def setup_method(self):
        self.label = VideoLabel(np.array([1]))

    def test_label_class_beyond_the_grid(self):
        z = np.tile([0.9, 0.1, 0.0], (5, 1))
        message = "^class_id 3 lies outside the 2 classes of its grid$"
        with pytest.raises(ValueError, match=message):
            extract_proposals(z, TimeGrid(5, 1.0, 2), [0.5], VideoLabel(np.array([0, 1, 1])))

    def test_single_run(self):
        z = _sps_matrix([0, 0.9, 0.9, 0, 0])
        grid = TimeGrid(5, 1.0, 1)
        (p,) = extract_proposals(z, grid, [0.5], self.label)
        assert (p.start_s, p.end_s, p.class_id) == (1.0, 3.0, 1)

    def test_two_thresholds_nested_runs(self):
        z = _sps_matrix([0.3, 0.9, 0.9, 0.3, 0])
        grid = TimeGrid(5, 1.0, 1)
        props = extract_proposals(z, grid, [0.2, 0.5], self.label)
        spans = sorted((p.start_s, p.end_s) for p in props)
        assert spans == [(0.0, 4.0), (1.0, 3.0)]

    def test_all_below_thresholds(self):
        z = _sps_matrix([0.05, 0.05, 0.05])
        grid = TimeGrid(3, 1.0, 1)
        assert len(extract_proposals(z, grid, [0.2, 0.5], self.label)) == 0

    def test_deduplication_across_thresholds(self):
        z = _sps_matrix([0, 0.9, 0.9, 0])
        grid = TimeGrid(4, 1.0, 1)
        props = extract_proposals(z, grid, [0.1, 0.2, 0.3, 0.4], self.label)
        assert len(props) == 1

    def test_label_filters_classes(self):
        col = np.array([0.0, 0.9, 0.9, 0.0])
        z = np.stack([col, col, 1.0 - col], axis=1)
        grid = TimeGrid(4, 1.0, 2)
        props = extract_proposals(z, grid, [0.5], VideoLabel(np.array([0, 1])))
        assert {p.class_id for p in props} == {2}

    def test_runs_satisfy_threshold_property(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            t = int(rng.integers(4, 40))
            col = rng.uniform(0, 1, t)
            z = _sps_matrix(col)
            grid = TimeGrid(t, 0.5, 1)
            thresholds = sorted(rng.uniform(0.05, 0.95, 3))
            props = extract_proposals(z, grid, thresholds, self.label)
            for p in props:
                first = round(p.start_s / grid.snippet_duration_s)
                last = round(p.end_s / grid.snippet_duration_s) - 1
                # every proposal is a run at (at least) the lowest threshold
                assert col[first : last + 1].min() >= thresholds[0]


def _oic(column, iv, grid, inflation):
    """The contrast score of one class-1 proposal `iv` on the SP column `column`."""
    proposal = segments((iv.start_s, iv.end_s, 1, 0.0))
    return oic_scores(np.asarray(column)[:, None], proposal, grid, inflation)[0]


class TestOicScore:
    def test_symmetric_flanks(self):
        z = np.array([0.1, 0.8, 0.8, 0.1])
        grid = TimeGrid(4, 1.0, 1)
        assert _oic(z, Interval(1, 3), grid, 0.5) == pytest.approx(0.7)

    def test_whole_video_outer_empty(self):
        z = np.array([0.4, 0.6, 0.5])
        grid = TimeGrid(3, 1.0, 1)
        assert _oic(z, Interval(0, 3), grid, 0.25) == pytest.approx(0.5)

    def test_uniform_signal_scores_zero(self):
        z = np.full(10, 0.5)
        grid = TimeGrid(10, 1.0, 1)
        assert _oic(z, Interval(3, 7), grid, 0.25) == pytest.approx(0.0)

    def test_invariant_outside_flanks(self):
        rng = np.random.default_rng(13)
        grid = TimeGrid(20, 1.0, 1)
        p = Interval(8, 12)
        z = rng.uniform(0, 1, 20)
        base = _oic(z, p, grid, 0.25)
        z2 = z.copy()
        z2[:6] = rng.uniform(0, 1, 6)  # flanks cover [7,8) and [12,13) only
        z2[15:] = rng.uniform(0, 1, 5)
        assert _oic(z2, p, grid, 0.25) == base


class TestSoftNms:
    def test_gaussian_decay_example(self):
        a = (0, 10, 1, 0.9)
        b = (0, 5, 1, 0.8)  # tiou 0.5 with a
        first, second = soft_nms(segments(a, b), sigma_nms=0.5, min_score=0.001)
        assert first.score == pytest.approx(0.9)
        assert second.score == pytest.approx(0.8 * math.exp(-0.5), abs=1e-7)
        assert second.score == pytest.approx(0.4852245, abs=1e-6)

    def test_disjoint_unchanged(self):
        a = (0, 5, 1, 0.9)
        b = (10, 15, 1, 0.8)
        out = soft_nms(segments(a, b))
        assert sorted(p.score for p in out) == [0.8, 0.9]

    def test_classwise_no_cross_decay(self):
        a = (0, 10, 1, 0.9)
        b = (0, 10, 2, 0.8)
        out = soft_nms(segments(a, b))
        assert sorted(p.score for p in out) == [0.8, 0.9]

    def test_never_increases_never_mutates_geometry(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            props = []
            for _ in range(int(rng.integers(1, 12))):
                s = rng.uniform(0, 20)
                e, score = s + rng.uniform(0.5, 8), float(rng.uniform(0.01, 1))
                props.append((s, e, int(rng.integers(1, 4)), score))
            out = soft_nms(segments(*props), sigma_nms=0.5, min_score=0.001)
            originals = {(s, e, c): score for s, e, c, score in props}
            for q in out:
                key = (q.start_s, q.end_s, q.class_id)
                assert key in originals
                assert q.score <= originals[key] + 1e-12

    def test_min_score_drops(self):
        a = (0, 10, 1, 0.9)
        b = (0, 10, 1, 0.001)  # decays to ~0.000135
        out = soft_nms(segments(a, b), sigma_nms=0.5, min_score=0.001)
        assert len(out) == 1


class TestWeakProposals:
    def test_end_to_end_scores_are_oic(self):
        col = np.array([0.05, 0.9, 0.9, 0.9, 0.05, 0.05])
        rows = np.stack([col, 1.0 - col], axis=1)
        preds = SnippetPredictions(np.ones(6), rows)
        grid = TimeGrid(6, 1.0, 1)
        label = VideoLabel(np.array([1]))
        (p,) = weak_proposals(preds, grid, label, [0.5], oic_inflation=0.25)
        # inner mean 0.9, single outer snippet each side at 0.05
        assert p.score == pytest.approx(0.9 - 0.05)

    def test_extract_on_attention_flag(self):
        att = np.array([0.0, 1.0, 1.0, 0.0])
        rows = np.column_stack([np.full(4, 0.05), np.full(4, 0.95)])
        preds = SnippetPredictions(att, rows)
        grid = TimeGrid(4, 1.0, 1)
        label = VideoLabel(np.array([1]))
        on_sps = weak_proposals(preds, grid, label, [0.5], extract_on="sps")
        on_att = weak_proposals(preds, grid, label, [0.5], extract_on="attention")
        assert len(on_sps) == 0  # SP peak is 0.05, below every threshold
        assert len(on_att) == 1
        with pytest.raises(ValueError):
            weak_proposals(preds, grid, label, [0.5], extract_on="nope")
