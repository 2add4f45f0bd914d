import math

import numpy as np
import pytest

from pseudotal.core import TimeGrid, snippet_centers
from pseudotal.fusion import (
    GAUSS_GROUP_TIOU,
    SCORE_THRESHOLD,
    STRATEGIES,
    TOP_K,
    FusedWavelet,
    RickerParams,
    fuse_ricker,
    generate_pseudo_labels,
    ricker_value,
    segments_from_wavelet,
)
from segment_objects import segments

PEAK_SIGMA1 = 2.0 / (math.sqrt(3.0) * math.pi**0.25)


class TestRickerValue:
    def test_peak_value_sigma_one(self):
        v = ricker_value(0.0, RickerParams(1.0, 0.0))
        assert v == pytest.approx(PEAK_SIGMA1, abs=1e-12)
        assert v == pytest.approx(0.86728, abs=1e-4)

    def test_zeros_at_boundaries(self):
        params = RickerParams(1.0, 0.0)
        assert ricker_value(1.0, params) == pytest.approx(0.0, abs=1e-12)
        assert ricker_value(-1.0, params) == pytest.approx(0.0, abs=1e-12)

    def test_negative_lobe_value(self):
        v = ricker_value(2.0, RickerParams(1.0, 0.0))
        assert v == pytest.approx(PEAK_SIGMA1 * (-3.0) * math.exp(-2.0), abs=1e-12)
        assert v == pytest.approx(-0.35212, abs=1e-4)

    def test_unique_maximum_at_midpoint(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            sigma = float(rng.uniform(0.2, 10))
            m = float(rng.uniform(-20, 20))
            params = RickerParams(sigma, m)
            peak = ricker_value(m, params)
            offsets = rng.uniform(-4, 4, 200)
            offsets = offsets[np.abs(offsets) > 1e-9]
            assert np.all(ricker_value(m + offsets * sigma, params) < peak)

    def test_strictly_negative_outside_boundaries(self):
        rng = np.random.default_rng(22)
        params = RickerParams(2.0, 5.0)
        u = rng.uniform(1.0 + 1e-9, 8.0, 200) * rng.choice([-1.0, 1.0], 200)
        vals = ricker_value(5.0 + 2.0 * u, params)
        assert np.all(vals < 0.0)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            RickerParams(0.0, 1.0)
        with pytest.raises(ValueError):
            RickerParams(-1.0, 1.0)


class TestFuseRicker:
    def test_single_proposal_signs(self):
        grid = TimeGrid(10, 1.0, 2)
        w = fuse_ricker(segments((2, 6, 1, 1.0)), grid)
        col = w.values[:, 0]
        # centers 2.5..5.5 lie strictly inside (2, 6)
        assert np.all(col[2:6] > 0)
        assert np.all(col[:2] < 0)
        assert np.all(col[6:] < 0)
        assert np.all(w.values[:, 1] == 0.0)

    def test_empty_input_zero_wavelet(self):
        grid = TimeGrid(6, 1.0, 3)
        w = fuse_ricker(segments(), grid)
        assert np.all(w.values == 0.0)

    def test_nonpositive_scores_excluded(self):
        grid = TimeGrid(6, 1.0, 1)
        w = fuse_ricker(segments((1, 4, 1, 0.0), (1, 4, 1, -2.0)), grid)
        assert np.all(w.values == 0.0)

    @pytest.mark.parametrize("first", [True, False])
    def test_a_half_duration_of_zero_excluded(self, first):
        # [0, 5e-324]: half of its duration rounds to 0.0, so it has no wavelet
        grid = TimeGrid(8, 1.0, 1)
        assert 0.5 * 5e-324 == 0.0
        kept, short = (2, 5, 1, 0.8), (0.0, 5e-324, 1, 0.9)
        fused = fuse_ricker(segments(*((short, kept) if first else (kept, short))), grid)
        assert fused.values.tobytes() == fuse_ricker(segments(kept), grid).values.tobytes()

    def test_class_out_of_range(self):
        grid = TimeGrid(6, 1.0, 1)
        with pytest.raises(ValueError):
            fuse_ricker(segments((1, 4, 2, 0.5)), grid)

    def test_the_class_beyond_the_grid_is_named(self):
        props = segments((1, 4, 1, 0.5), (1, 4, 3, 0.5), (1, 4, 4, 0.5))
        message = "^class_id 3 lies outside the 2 classes of its grid$"
        with pytest.raises(ValueError, match=message):
            fuse_ricker(props, TimeGrid(6, 1.0, 2))

    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_every_strategy_refuses_a_class_beyond_the_grid(self, strategy):
        props = segments((1, 4, 1, 0.5), (1, 4, 3, 0.5))
        message = "^class_id 3 lies outside the 2 classes of its grid$"
        with pytest.raises(ValueError, match=message):
            generate_pseudo_labels(strategy, props, TimeGrid(6, 1.0, 2))

    def test_additive_in_proposal_sets(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            grid = TimeGrid(int(rng.integers(8, 64)), 0.5, 3)
            def rand_props(n):
                props = []
                for _ in range(n):
                    s = rng.uniform(0, grid.duration_s - 1)
                    e, score = s + rng.uniform(0.5, 5), float(rng.uniform(0.1, 2))
                    props.append((s, e, int(rng.integers(1, 4)), score))
                return props
            a = rand_props(int(rng.integers(0, 5)))
            b = rand_props(int(rng.integers(1, 5)))
            combined = fuse_ricker(segments(*a, *b), grid).values
            split = fuse_ricker(segments(*a), grid).values + fuse_ricker(segments(*b), grid).values
            np.testing.assert_allclose(combined, split, atol=1e-12)

    def test_wavelet_shape_validation(self):
        grid = TimeGrid(4, 1.0, 2)
        with pytest.raises(ValueError):
            FusedWavelet(np.zeros((4, 3)), grid)
        with pytest.raises(ValueError):
            FusedWavelet(np.full((4, 2), np.nan), grid)


class TestSegmentsFromWavelet:
    @pytest.mark.parametrize("min_duration_s", [-1.0, -1e-9])
    def test_negative_min_duration(self, min_duration_s):
        w = fuse_ricker(segments((2, 6, 1, 1.0)), TimeGrid(10, 1.0, 1))
        with pytest.raises(ValueError, match="^min_duration_s must be nonnegative$"):
            segments_from_wavelet(w, min_duration_s=min_duration_s)

    def test_single_proposal_round_trip(self):
        grid = TimeGrid(10, 1.0, 1)
        w = fuse_ricker(segments((2, 6, 1, 1.0)), grid)
        (seg,) = segments_from_wavelet(w)
        assert seg.class_id == 1
        assert seg.start_s == pytest.approx(2.0, abs=1.0)
        assert seg.end_s == pytest.approx(6.0, abs=1.0)

    def test_round_trip_invariant_to_positive_scaling(self):
        grid = TimeGrid(20, 0.5, 1)
        spans = []
        for score in (0.01, 1.0, 250.0):
            w = fuse_ricker(segments((3, 7, 1, score)), grid)
            (seg,) = segments_from_wavelet(w)
            spans.append((seg.start_s, seg.end_s))
        for s, e in spans[1:]:
            assert s == pytest.approx(spans[0][0], abs=1e-9)
            assert e == pytest.approx(spans[0][1], abs=1e-9)

    def test_all_negative_channel_empty(self):
        grid = TimeGrid(5, 1.0, 1)
        w = FusedWavelet(np.full((5, 1), -0.3), grid)
        assert len(segments_from_wavelet(w)) == 0

    def test_confidence_is_run_peak(self):
        grid = TimeGrid(5, 1.0, 1)
        col = np.array([-1.0, 0.2, 0.9, 0.4, -1.0])
        w = FusedWavelet(col[:, None], grid)
        (seg,) = segments_from_wavelet(w)
        assert seg.score == pytest.approx(0.9)

    def test_min_duration_drops_slivers(self):
        grid = TimeGrid(8, 1.0, 1)
        col = np.array([-1, 0.5, -1, -1, 0.5, 0.5, 0.5, -1], dtype=np.float64)
        w = FusedWavelet(col[:, None], grid)
        assert len(segments_from_wavelet(w, min_duration_s=0.0)) == 2
        (kept,) = segments_from_wavelet(w, min_duration_s=2.0)
        assert 0.5 * (kept.start_s + kept.end_s) == pytest.approx(5.5, abs=1.0)

    def test_edge_runs_clamp_to_video(self):
        grid = TimeGrid(4, 1.0, 1)
        col = np.array([0.5, 0.5, 0.5, 0.5])
        w = FusedWavelet(col[:, None], grid)
        (seg,) = segments_from_wavelet(w)
        assert seg.start_s == 0.0
        assert seg.end_s == 4.0

    def test_split_runs_match_dense_oracle(self):
        # a wide weak proposal with a strong narrow one near its right end:
        # the narrow wavelet's left lobe drives the sum negative mid-span
        grid = TimeGrid(12, 1.0, 1)
        props = segments((1, 9, 1, 1.0), (7, 9, 1, 4.0))
        segs = segments_from_wavelet(fuse_ricker(props, grid))
        assert len(segs) == 2

        factor = 100
        dense_t = (np.arange(grid.num_snippets * factor) + 0.5) * (
            grid.snippet_duration_s / factor
        )
        dense = np.zeros_like(dense_t)
        for p in props:
            params = RickerParams(0.5 * (p.end_s - p.start_s), 0.5 * (p.start_s + p.end_s))
            dense += p.score * ricker_value(dense_t, params)
        padded = np.concatenate([[False], dense > 0, [False]])
        edges = np.flatnonzero(padded[1:] != padded[:-1])
        runs = [
            (dense_t[edges[k]], dense_t[edges[k + 1] - 1])
            for k in range(0, len(edges), 2)
        ]
        assert len(runs) == 2
        for seg, (lo, hi) in zip(segs, runs):
            assert seg.start_s == pytest.approx(lo, abs=grid.snippet_duration_s)
            assert seg.end_s == pytest.approx(hi, abs=grid.snippet_duration_s)

    def test_no_overlap_within_class(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            grid = TimeGrid(int(rng.integers(10, 80)), 1.0, 2)
            props = []
            for _ in range(int(rng.integers(1, 8))):
                s = rng.uniform(0, grid.duration_s - 2)
                e, score = s + rng.uniform(1, 10), float(rng.uniform(0.1, 2))
                props.append((s, e, int(rng.integers(1, 3)), score))
            segs = segments_from_wavelet(fuse_ricker(segments(*props), grid))
            for cid in (1, 2):
                spans = sorted((q.start_s, q.end_s) for q in segs if q.class_id == cid)
                for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
                    assert e0 <= s1 + 1e-9


class TestBaselines:
    def setup_method(self):
        self.grid = TimeGrid(20, 1.0, 2)

    def test_fixed_parameters(self):
        assert (TOP_K, SCORE_THRESHOLD, GAUSS_GROUP_TIOU) == (4, 0.2, 0.5)
        assert list(STRATEGIES) == ["ricker", "soft", "hard", "topk", "threshold", "gauss"]

    def test_topk_keeps_highest_verbatim(self):
        props = segments(
            (0, 3, 1, 0.9),
            (3, 6, 1, 0.8),
            (6, 9, 2, 0.1),
            (9, 12, 2, 0.7),
            (12, 15, 1, 0.6),
        )
        out = generate_pseudo_labels("topk", props, self.grid)
        assert len(out) == 4
        assert sorted(p.score for p in out) == [0.6, 0.7, 0.8, 0.9]
        spans = {(p.start_s, p.end_s) for p in out}
        assert spans == {(0.0, 3.0), (3.0, 6.0), (9.0, 12.0), (12.0, 15.0)}

    def test_threshold_filters_by_score(self):
        props = segments(
            (0, 5, 1, 0.9),
            (5, 10, 1, 0.2),
            (10, 15, 2, 0.19999),
        )
        out = generate_pseudo_labels("threshold", props, self.grid)
        assert [p.score for p in out] == [0.9, 0.2]

    def test_gauss_weighted_mean_boundaries(self):
        # tIoU([0, 10], [2, 12]) = 8 / 12: one group
        props = segments((0, 10, 1, 2.0), (2, 12, 1, 1.0))
        out = generate_pseudo_labels("gauss", props, self.grid)
        (label,) = out
        assert label.start_s == pytest.approx(2.0 / 3.0)
        assert label.end_s == pytest.approx(32.0 / 3.0)
        assert label.score == pytest.approx(2.0)

    def test_gauss_groups_at_tiou_exactly_half(self):
        # tIoU([0, 4], [2, 4]) = 2 / 4 = 0.5 exactly: grouped; [0, 4] vs [0, 1.5] is not
        props = segments(
            (0, 4, 1, 1.0),
            (2, 4, 1, 1.0),
            (0, 1.5, 1, 0.5),
        )
        out = generate_pseudo_labels("gauss", props, self.grid)
        assert [(p.start_s, p.end_s) for p in out] == [(1.0, 4.0), (0.0, 1.5)]

    def test_gauss_disjoint_groups_stay_separate(self):
        props = segments(
            (0, 5, 1, 1.0),
            (10, 15, 1, 0.5),
        )
        out = generate_pseudo_labels("gauss", props, self.grid)
        assert len(out) == 2

    def test_soft_keeps_all(self):
        props = segments(
            (0, 5, 1, 0.9),
            (1, 6, 2, 0.1),
        )
        out = generate_pseudo_labels("soft", props, self.grid)
        assert len(out) == 2

    def test_hard_carves_overlaps(self):
        props = segments(
            (0, 10, 1, 0.5),
            (4, 6, 2, 0.9),
        )
        grid = TimeGrid(10, 1.0, 2)
        out = generate_pseudo_labels("hard", props, grid)
        spans = sorted(
            (p.start_s, p.end_s, p.class_id) for p in out
        )
        assert spans == [(0.0, 4.0, 1), (4.0, 6.0, 2), (6.0, 10.0, 1)]

    def test_hard_winner_by_score(self):
        props = segments(
            (0, 4, 1, 0.9),
            (2, 6, 2, 0.8),
        )
        grid = TimeGrid(6, 1.0, 2)
        out = generate_pseudo_labels("hard", props, grid)
        spans = sorted(
            (p.start_s, p.end_s, p.class_id) for p in out
        )
        assert spans == [(0.0, 4.0, 1), (4.0, 6.0, 2)]

    def test_confidences_nonnegative_on_negative_scores(self):
        # a negative score is floored at 0; a -0.0 stays -0.0, as Python's
        # max(-0.0, 0.0) is -0.0
        props = segments((0, 5, 1, -0.7), (3, 9, 1, 0.6), (10, 14, 2, -0.0), (12, 18, 2, -2.5))
        for name in STRATEGIES:
            out = generate_pseudo_labels(name, props, self.grid)
            assert len(out) and (out.score >= 0.0).all(), name
        soft = generate_pseudo_labels("soft", props, self.grid)
        assert soft.score.tolist() == [0.0, 0.6, 0.0, 0.0]
        assert np.signbit(soft.score).tolist() == [False, False, True, False]

    def test_unknown_strategy_errors(self):
        for name in ("median", "RICKER", "Soft"):
            with pytest.raises(ValueError, match="unknown fusion strategy"):
                generate_pseudo_labels(name, segments(), self.grid)

    def test_no_strategy_invents_classes(self):
        rng = np.random.default_rng(31)
        grid = TimeGrid(30, 1.0, 4)
        for _ in range(20):
            props = []
            present = set()
            for _ in range(int(rng.integers(1, 10))):
                cid = int(rng.integers(1, 5))
                present.add(cid)
                s = rng.uniform(0, 25)
                props.append((s, s + rng.uniform(1, 5), cid, float(rng.uniform(0.05, 1))))
            for name in ("ricker", "hard", "soft", "topk", "threshold", "gauss"):
                out = generate_pseudo_labels(name, segments(*props), grid)
                assert {p.class_id for p in out} <= present

    def test_ricker_dispatch_matches_direct_path(self):
        props = segments((2, 8, 1, 1.0), (5, 11, 1, 0.7))
        grid = TimeGrid(16, 1.0, 1)
        via_dispatch = generate_pseudo_labels("ricker", props, grid, min_duration_s=1.0)
        direct = segments_from_wavelet(fuse_ricker(props, grid), min_duration_s=1.0)
        assert list(via_dispatch) == list(direct)


def test_snippet_centers_used_for_sampling():
    grid = TimeGrid(6, 0.5, 1)
    w = fuse_ricker(segments((0.5, 2.5, 1, 1.3)), grid)
    centers = snippet_centers(grid)
    params = RickerParams(1.0, 1.5)
    np.testing.assert_allclose(w.values[:, 0], 1.3 * ricker_value(centers, params))
