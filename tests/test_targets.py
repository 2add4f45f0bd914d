import math
import re

import numpy as np
import pytest

from pseudotal.config import MAX_LEVELS, MaskParams, PyramidConfig
from pseudotal.core import Segment, TimeGrid, span_tiou
from pseudotal.mask import mask_for_proposal, union_masks
from pseudotal.targets import (
    AnchorPredictions,
    AnchorTargets,
    assign_level,
    att_loss,
    build_targets,
    cls_loss,
    focal_loss,
    reg_loss,
    total_loss,
)
from pseudotal.weak_branch import VideoLabel
from segment_objects import segments

TWO_LEVELS = PyramidConfig(num_levels=2)  # level 0 owns [0, 4) snippets, level 1 the rest


def _pseudo(start, end, class_id=1, confidence=1.0):
    return Segment(float(start), float(end), class_id, confidence)


def _levels_of(durations, cfg, grid):
    """`assign_level` of segments [0, d) for each duration d, as a list."""
    rows = ((0.0, float(d), 1, 1.0) for d in durations)
    return assign_level(segments(*rows), cfg, grid).tolist()


def _union_targets(pseudos, params, cfg, grid):
    """Targets of the `pseudos` rows on the union of their masks under `params`."""
    mask = union_masks([mask_for_proposal(p, params, grid) for p in pseudos], grid)
    return build_targets(segments(*pseudos), mask, cfg)


def _perfect_predictions(tgt, class_count):
    probs = np.zeros((tgt.num_anchors, class_count + 1))
    labels = tgt.class_label
    probs[labels == 0, -1] = 1.0
    pos = np.flatnonzero(labels > 0)
    probs[pos, labels[pos] - 1] = 1.0
    return AnchorPredictions(probs, tgt.reg_left.copy(), tgt.reg_right.copy())


class TestPyramidConfig:
    def test_default_ladder(self):
        # [0, 4), [4, 8), [8, 16), [16, 32), [32, 64), [64, inf) snippets
        cfg, grid = PyramidConfig(), TimeGrid(2048, 1.0, 1)
        assert cfg.num_levels == 6
        durations = (0.5, 3.999, 4, 7.999, 8, 15.999, 16, 31.999, 32, 63.999, 64, 2000)
        assert _levels_of(durations, cfg, grid) == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5]
        for num_levels in (1, 2, 3):  # the top level is open-ended at any depth
            cfg = PyramidConfig(num_levels=num_levels)
            assert _levels_of([2000], cfg, grid) == [num_levels - 1]

    def test_strides_double(self):
        # one stride unit each side decodes to a width of 2 * 2**l snippets
        grid = TimeGrid(16, 0.5, 1)
        tgt = _union_targets([], MaskParams(0.0, 0.0), PyramidConfig(num_levels=4), grid)
        ones = np.ones(tgt.num_anchors)
        widths = np.diff(tgt.decode_intervals(ones, ones), axis=1)[:, 0]
        bounds = np.cumsum((0, *tgt.level_sizes))
        for level in range(4):
            assert np.all(widths[bounds[level] : bounds[level + 1]] == 2 * 2**level * 0.5)

    def test_total_anchors_sum_of_ceils(self):
        cfg = PyramidConfig(num_levels=6)
        for t in (1, 17, 64, 100, 127):
            grid = TimeGrid(t, 1.0, 1)
            sizes = tuple(math.ceil(t / 2**l) for l in range(6))
            assert cfg.level_sizes(grid) == sizes
            assert _union_targets([], MaskParams(0.0, 0.0), cfg, grid).num_anchors == sum(sizes)
        grid = TimeGrid(100, 1.0, 1)
        assert cfg.level_sizes(grid) == (100, 50, 25, 13, 7, 4)

    def test_invalid_num_levels(self):
        # past MAX_LEVELS each level holds one anchor on any grid; a huge
        # count would never finish building the levels
        for num_levels in (0, MAX_LEVELS + 1, 10**30):
            with pytest.raises(ValueError, match=r"num_levels must lie in \[1, 32\]"):
                PyramidConfig(num_levels=num_levels)
        assert PyramidConfig(MAX_LEVELS).level_sizes(TimeGrid(8, 1.0, 1))[3:] == (1,) * 29


class TestAssignLevel:
    def setup_method(self):
        self.cfg = PyramidConfig(num_levels=6)
        self.grid = TimeGrid(2048, 1.0, 1)

    def test_duration_lookup(self):
        assert _levels_of([10, 3, 1000], self.cfg, self.grid) == [2, 0, 5]

    def test_half_open_boundaries(self):
        assert _levels_of([4, 8], self.cfg, self.grid) == [1, 2]

    def test_duration_measured_in_snippets(self):
        grid = TimeGrid(100, 0.5, 1)  # 5 s = 10 snippets
        assert _levels_of([5], self.cfg, grid) == [2]

    def test_one_int64_level_per_segment(self):
        rows = segments((7.0, 9.0, 1, 1.0), (0.0, 64.0, 2, 0.5))
        levels = assign_level(rows, self.cfg, self.grid)
        assert levels.dtype == np.int64 and levels.tolist() == [0, 5]
        assert assign_level(segments(), self.cfg, self.grid).shape == (0,)


class TestBuildTargets:
    def test_single_proposal_level0_geometry(self):
        grid = TimeGrid(16, 1.0, 1)
        # duration 3 < 4 -> level 0; anchor times 2.5, 3.5, 4.5 lie inside
        tgt = _union_targets([_pseudo(2, 5)], MaskParams(0.0, 0.0), TWO_LEVELS, grid)
        assert tgt.level_sizes == (16, 8)
        level0 = tgt.class_label[:16]
        assert np.flatnonzero(level0 == 1).tolist() == [2, 3, 4]
        assert np.all(tgt.class_label[16:] == 0)

    def test_regression_targets_are_boundary_distances(self):
        grid = TimeGrid(16, 1.0, 1)
        tgt = _union_targets([_pseudo(2, 5)], MaskParams(0.0, 0.0), TWO_LEVELS, grid)
        assert tgt.reg_left[2] == pytest.approx(0.5)  # anchor time 2.5
        assert tgt.reg_right[2] == pytest.approx(2.5)
        assert tgt.iou_weight[2] == 1.0

    def test_regression_targets_in_level_stride_units(self):
        grid = TimeGrid(32, 1.0, 1)
        tgt = _union_targets([_pseudo(2, 14)], MaskParams(0.0, 0.0), TWO_LEVELS, grid)
        # duration 12 -> level 1, stride 2; anchor j=2 sits at time 5.0
        anchor = 32 + 2
        assert tgt.class_label[anchor] == 1
        assert tgt.reg_left[anchor] == pytest.approx((5.0 - 2.0) / 2.0)
        assert tgt.reg_right[anchor] == pytest.approx((14.0 - 5.0) / 2.0)

    def test_no_pseudos_all_background(self):
        grid = TimeGrid(16, 1.0, 1)
        tgt = _union_targets([], MaskParams(0.1, 0.0), TWO_LEVELS, grid)
        assert np.all(tgt.class_label == 0)
        assert np.all(tgt.reg_left == 0)
        assert np.all(tgt.reg_right == 0)
        assert np.all(tgt.mask_bit == 1)

    def test_shorter_proposal_wins_containment_ties(self):
        grid = TimeGrid(16, 1.0, 2)
        pseudos = [_pseudo(2, 8, class_id=1), _pseudo(3, 7, class_id=2)]
        tgt = _union_targets(pseudos, MaskParams(0.0, 0.0), TWO_LEVELS, grid)
        # both land on level 1 (stride 2, anchor times 1,3,5,...)
        level1 = tgt.class_label[16:]
        assert level1[1] == 2 and level1[2] == 2  # times 3, 5: both contain, shorter wins
        assert level1[3] == 1  # time 7: only [2,8) contains it

    def test_mask_bits_from_union_mask(self):
        grid = TimeGrid(16, 1.0, 1)
        tgt = _union_targets([_pseudo(4, 12)], MaskParams(0.0, 0.25), TWO_LEVELS, grid)
        # d=8: inner bands (4,6) and (10,12) -> base snippets 4,5,10,11
        level0 = tgt.mask_bit[:16]
        assert np.flatnonzero(level0 == 0).tolist() == [4, 5, 10, 11]
        # level-1 anchor at time 5 inherits snippet 5's bit; time 7 stays certain
        level1 = tgt.mask_bit[16:]
        assert level1[2] == 0 and level1[3] == 1

    def test_positive_anchor_inside_band_is_masked_out(self):
        grid = TimeGrid(16, 1.0, 1)
        tgt = _union_targets([_pseudo(4, 12)], MaskParams(0.0, 0.25), TWO_LEVELS, grid)
        # duration 8 -> level 1; its anchor at time 5 sits inside the (4, 6) band
        anchor = 16 + 2
        assert tgt.class_label[anchor] == 1 and tgt.mask_bit[anchor] == 0

    def test_target_validation(self):
        grid = TimeGrid(2, 1.0, 1)
        with pytest.raises(ValueError, match="reg_left"):
            AnchorTargets(grid, (2,), [1, 0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1, 1])
        with pytest.raises(ValueError, match="iou_weight"):
            AnchorTargets(grid, (2,), [1, 0], [0.5, 0.0], [0.5, 0.0], [1.0, 0.3], [1, 1])
        with pytest.raises(ValueError):
            AnchorTargets(grid, (2,), [1, 0, 0], [0.5, 0, 0], [0.5, 0, 0], [1, 0, 0], [1, 1, 1])

    @pytest.mark.parametrize("bit", [-1, 2, 0.5, None])
    def test_mask_bit_is_0_or_1(self, bit):
        # a null is read as NaN; any other value but 0 or 1 is out of range
        grid = TimeGrid(2, 1.0, 1)
        message = "mask_bit must be finite" if bit is None else "mask_bit values must be 0 or 1"
        with pytest.raises(ValueError, match=message):
            AnchorTargets(grid, (2,), [1, 0], [0.5, 0.0], [0.5, 0.0], [1.0, 0.0], [1, bit])

    @pytest.mark.parametrize("field", ["class_label", "mask_bit"])
    @pytest.mark.parametrize("value", [1.0, 1.7, True, "1", None])
    def test_integer_fields_reject_other_json_types(self, field, value):
        # the JSON type of a file's entry is the reader's rule (test_cli's
        # test_targets_file_anchor_integers); the type reads each entry as a
        # number, so 1.0, true and "1" are the value 1, and 1.7 and null (NaN)
        # are no whole number
        grid = TimeGrid(2, 1.0, 1)
        arrays = {"class_label": [1, 0], "mask_bit": [1, 1]}
        arrays[field] = [value, arrays[field][1]]
        args = dict(reg_left=[0.5, 0.0], reg_right=[0.5, 0.0], iou_weight=[1.0, 0.0], **arrays)
        if value in (1.7, None):
            with pytest.raises(ValueError, match="whole numbers|0 or 1|must be finite"):
                AnchorTargets(grid, (2,), **args)
        else:
            tgt = AnchorTargets(grid, (2,), **args)
            assert getattr(tgt, field).tolist() == [1, arrays[field][1]]

    def test_integer_valued_arrays_pass(self):
        # arrays built in the package keep their integer, uint8 or float dtype
        grid = TimeGrid(2, 1.0, 1)
        tgt = AnchorTargets(grid, (2,), np.array([1, 0]), np.array([0.5, 0.0]),
                            np.array([0.5, 0.0]), np.array([1.0, 0.0]), np.ones(2))
        assert tgt.class_label.dtype == np.int64 and tgt.mask_bit.dtype == np.uint8
        assert tgt.class_label.tolist() == [1, 0] and tgt.mask_bit.tolist() == [1, 1]

    @pytest.mark.parametrize(
        "field, value, message",
        [("reg_left", -0.2, "reg_left and reg_right must be >= 0"),
         ("reg_right", -1e-9, "reg_left and reg_right must be >= 0"),
         ("iou_weight", 5.0, "iou_weight must lie in [0, 1]"),
         ("iou_weight", -0.1, "iou_weight must lie in [0, 1]")],
    )
    def test_offset_and_weight_ranges(self, field, value, message):
        arrays = {"reg_left": [0.5, 0.0], "reg_right": [0.5, 0.0], "iou_weight": [1.0, 0.0]}
        arrays[field][0] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            AnchorTargets(TimeGrid(2, 1.0, 1), (2,), class_label=[1, 0], mask_bit=[1, 1], **arrays)

    @pytest.mark.parametrize("field", ["reg_left", "reg_right", "iou_weight"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), None])
    def test_per_anchor_values_finite(self, field, value):
        arrays = {"reg_left": [0.5, 0.0], "reg_right": [0.5, 0.0], "iou_weight": [1.0, 0.0]}
        arrays[field] = [value, 0.0]
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            AnchorTargets(TimeGrid(2, 1.0, 1), (2,), class_label=[1, 0], mask_bit=[1, 1], **arrays)

    @pytest.mark.parametrize("sizes", [(), (4,), (2, 2), (3, 1), (1, 1)])
    def test_level_sizes_follow_the_grid(self, sizes):
        # on 2 snippets level l holds ceil(2 / 2**l) anchors: (2,), (2, 1), (2, 1, 1), ...
        grid = TimeGrid(2, 1.0, 1)
        n = sum(sizes)
        with pytest.raises(ValueError, match="level_sizes"):
            AnchorTargets(grid, sizes, [0] * n, [0.0] * n, [0.0] * n, [0.0] * n, [1] * n)


class TestAnchorPredictions:
    def test_simplex_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            AnchorPredictions(np.array([[0.7, 0.7]]), np.zeros(1), np.zeros(1))
        with pytest.raises(ValueError, match="nonnegative"):
            AnchorPredictions(np.array([[0.5, 0.5]]), np.array([-0.1]), np.zeros(1))
        with pytest.raises(ValueError, match="anchor count"):
            AnchorPredictions(np.array([[0.5, 0.5]]), np.zeros(2), np.zeros(2))

    @pytest.mark.parametrize("class_probs", [[0.5, 0.5], [[[0.5, 0.5]]]])
    def test_class_probs_are_a_matrix(self, class_probs):
        with pytest.raises(ValueError, match=re.escape("class_probs must be (num_anchors, C+1)")):
            AnchorPredictions(np.array(class_probs), np.zeros(1), np.zeros(1))


class TestFocalLoss:
    def test_perfect_confidence(self):
        assert focal_loss(1.0, gamma=2.0) == 0.0

    def test_half_confidence(self):
        assert focal_loss(0.5, gamma=2.0) == pytest.approx(0.25 * math.log(2), abs=1e-12)
        assert focal_loss(0.5, gamma=2.0) == pytest.approx(0.17329, abs=1e-5)

    def test_gamma_zero_is_cross_entropy(self):
        for p in (0.1, 0.4, 0.9):
            assert focal_loss(p, gamma=0.0) == pytest.approx(-math.log(p))

    def test_zero_probability_clamped(self):
        assert focal_loss(0.0, gamma=0.0) == pytest.approx(-math.log(1e-12))

    def test_array_is_elementwise(self):
        p = np.array([0.0, 0.1, 0.5, 1.0])
        assert focal_loss(p, gamma=2.0).tolist() == pytest.approx(
            [focal_loss(float(x), gamma=2.0) for x in p]
        )


class TestClsLoss:
    def _one_positive_targets(self):
        grid = TimeGrid(2, 1.0, 1)
        return AnchorTargets(
            grid, (2,), [1, 0], [0.5, 0.0], [0.5, 0.0], [0.8, 0.0], [1, 0]
        )

    def test_perfect_one_hot_zero(self):
        grid = TimeGrid(16, 1.0, 1)
        tgt = _union_targets([_pseudo(2, 6)], MaskParams(0.0, 0.0), TWO_LEVELS, grid)
        pred = _perfect_predictions(tgt, class_count=1)
        assert cls_loss(pred, tgt) == 0.0

    def test_single_weighted_positive(self):
        tgt = self._one_positive_targets()
        pred = AnchorPredictions(
            np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([0.5, 0.0]), np.array([0.5, 0.0])
        )
        # background anchor is masked out, so only the weighted positive counts
        assert cls_loss(pred, tgt, gamma=2.0) == pytest.approx(
            0.8 * 0.25 * math.log(2), abs=1e-12
        )
        assert cls_loss(pred, tgt, gamma=2.0) == pytest.approx(0.13863, abs=1e-5)

    def test_masked_out_anchors_ignored(self):
        grid = TimeGrid(16, 1.0, 1)
        tgt = _union_targets([_pseudo(4, 12)], MaskParams(0.0, 0.25), TWO_LEVELS, grid)
        pred = _perfect_predictions(tgt, class_count=1)
        base = cls_loss(pred, tgt)
        flipped = pred.class_probs.copy()
        out = np.flatnonzero(tgt.mask_bit == 0)
        flipped[out] = flipped[out][:, ::-1]
        altered = AnchorPredictions(flipped, pred.reg_left, pred.reg_right)
        assert cls_loss(altered, tgt) == base

    def test_shape_mismatch(self):
        tgt = self._one_positive_targets()
        pred = AnchorPredictions(np.array([[0.5, 0.5]]), np.zeros(1), np.zeros(1))
        with pytest.raises(ValueError):
            cls_loss(pred, tgt)


class TestRegLoss:
    def _targets(self):
        grid = TimeGrid(8, 1.0, 1)
        cfg = PyramidConfig(num_levels=1)
        return _union_targets([_pseudo(2, 6)], MaskParams(0.0, 0.0), cfg, grid)

    def test_exact_offsets_zero(self):
        tgt = self._targets()
        pred = _perfect_predictions(tgt, class_count=1)
        assert reg_loss(pred, tgt) == 0.0

    def test_half_tiou_contributes_half(self):
        grid = TimeGrid(8, 1.0, 1)
        tgt = AnchorTargets(
            grid, (8,),
            [0, 0, 0, 1, 0, 0, 0, 0],
            [0, 0, 0, 1.5, 0, 0, 0, 0],
            [0, 0, 0, 2.5, 0, 0, 0, 0],
            [0, 0, 0, 1.0, 0, 0, 0, 0],
            np.ones(8),
        )
        # anchor time 3.5, target interval [2, 6]; predict [2, 4]: tiou = 0.5
        left = np.zeros(8)
        right = np.zeros(8)
        left[3], right[3] = 1.5, 0.5
        probs = np.tile([0.5, 0.5], (8, 1))
        pred = AnchorPredictions(probs, left, right)
        assert reg_loss(pred, tgt) == pytest.approx(0.5)
        decoded = tgt.decode_intervals(pred.reg_left, pred.reg_right)[3]
        target = tgt.decode_intervals(tgt.reg_left, tgt.reg_right)[3]
        assert span_tiou(*decoded, *target) == pytest.approx(0.5)

    def test_masked_out_positives_ignored(self):
        grid = TimeGrid(16, 1.0, 1)
        tgt = _union_targets([_pseudo(4, 12)], MaskParams(0.0, 0.25), TWO_LEVELS, grid)
        pred = _perfect_predictions(tgt, class_count=1)
        wild_left = pred.reg_left.copy()
        wild_left[tgt.mask_bit == 0] += 7.0
        altered = AnchorPredictions(pred.class_probs, wild_left, pred.reg_right)
        assert reg_loss(altered, tgt) == reg_loss(pred, tgt) == 0.0

    def test_no_positives_returns_zero(self):
        grid = TimeGrid(16, 1.0, 1)
        tgt = _union_targets([], MaskParams(0.0, 0.0), TWO_LEVELS, grid)
        pred = _perfect_predictions(tgt, class_count=1)
        assert reg_loss(pred, tgt) == 0.0


class TestAttLoss:
    def setup_method(self):
        self.label = VideoLabel(np.array([1, 0]))

    def test_all_below_tau_zero(self):
        z = np.full((4, 3), 0.1)
        probs = np.full((4, 3), 1 / 3)
        assert att_loss(probs, z, 0.8, self.label) == 0.0

    def test_perfect_selected_zero(self):
        z = np.array([[0.9, 0.0, 0.0], [0.0, 0.0, 0.95]])
        probs = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert att_loss(probs, z, 0.8, self.label) == 0.0

    def test_single_pick_half_confidence(self):
        z = np.array([[0.9, 0.0, 0.0]])
        probs = np.array([[0.5, 0.25, 0.25]])
        assert att_loss(probs, z, 0.8, self.label) == pytest.approx(0.17329, abs=1e-5)

    def test_label_filters_foreground_classes(self):
        # class 2 exceeds tau but is absent from the video label
        z = np.array([[0.0, 0.9, 0.0]])
        probs = np.array([[0.5, 0.25, 0.25]])
        assert att_loss(probs, z, 0.8, self.label) == 0.0

    def test_background_always_allowed(self):
        z = np.array([[0.0, 0.0, 0.9]])
        probs = np.array([[0.25, 0.25, 0.5]])
        assert att_loss(probs, z, 0.8, self.label) == pytest.approx(0.17329, abs=1e-5)

    def test_unselected_entries_ignored(self):
        rng = np.random.default_rng(43)
        z = rng.uniform(0, 0.99, (12, 3))
        probs = rng.dirichlet(np.ones(3), 12)
        base = att_loss(probs, z, 0.8, self.label)
        mutated = probs.copy()
        unselected = ~((z > 0.8) & np.array([True, False, True])[None, :])
        mutated[unselected] = rng.uniform(0, 1, int(unselected.sum()))
        assert att_loss(mutated, z, 0.8, self.label) == base

    def test_invalid_tau(self):
        z = np.zeros((2, 2))
        with pytest.raises(ValueError):
            att_loss(np.full((2, 2), 0.5), z, 0.0, VideoLabel(np.array([1])))

    @pytest.mark.parametrize("onehot", [[1], [1, 0, 0]])
    def test_label_length_of_other_classes(self, onehot):
        # the SP matrix has two foreground classes
        z = np.full((4, 3), 0.1)
        with pytest.raises(ValueError, match="^video label length disagrees with SP classes$"):
            att_loss(np.full((4, 3), 1 / 3), z, 0.8, VideoLabel(np.array(onehot)))


class TestTotalLoss:
    def test_weighted_sum(self):
        assert total_loss(1.0, 1.0, 1.0, lambda_att=0.2) == pytest.approx(2.2)
        assert total_loss(0.0, 0.0, 5.0, lambda_att=0.0) == 0.0
        assert total_loss(0.3, 0.5, 0.0, lambda_att=0.7) == pytest.approx(0.8)


class TestPredictionAgreement:
    """cls_loss and reg_loss read one row of C+1 class
    probabilities, background last, per target anchor."""

    @pytest.mark.parametrize("missing_rows, width", [(0, 2), (0, 3), (0, 5), (0, 6), (1, 4)])
    def test_other_shapes_rejected(self, missing_rows, width):
        grid = TimeGrid(16, 1.0, 3)
        pseudos = [_pseudo(1, 4, 1), _pseudo(6, 9, 2), _pseudo(11, 15, 3)]
        tgt = _union_targets(pseudos, MaskParams(0.0, 0.0), TWO_LEVELS, grid)
        n = tgt.num_anchors
        rows = n - missing_rows
        left, right = tgt.reg_left[:rows].copy(), tgt.reg_right[:rows].copy()
        pred = AnchorPredictions(np.full((rows, width), 1.0 / width), left, right)
        message = f"class_probs shape [{rows}, {width}] disagrees with the targets' [{n}, 4]"
        for fn in (cls_loss, reg_loss):
            with pytest.raises(ValueError, match=re.escape(message)):
                fn(pred, tgt)

