import math
import re

import numpy as np
import pytest

from pseudotal.core import Interval
from pseudotal.evaluation import (
    DEFAULT_TIOU_THRESHOLDS,
    EvalReport,
    GroundTruthSet,
    average_precision,
    map_table,
    pseudo_quality,
)
from segment_objects import segments


def _gt(**videos):
    return GroundTruthSet(
        {
            vid: tuple((Interval(s, e), c) for s, e, c in items)
            for vid, items in videos.items()
        }
    )


class TestGroundTruthSet:
    def test_class_ids_and_count(self):
        gt = _gt(a=[(0, 5, 2), (10, 15, 1)], b=[(0, 5, 2)])
        assert gt.class_ids == [1, 2]

    def test_rejects_bad_classes(self):
        with pytest.raises(ValueError):
            _gt(a=[(0, 5, 0)])

    @pytest.mark.parametrize("class_id", [1.7, True, np.float64(2.0), 10**30, 2**63,
                                          np.uint64(2**63)],
                             ids=["float", "bool", "numpy float", "10**30", "2**63",
                                  "numpy 2**63"])
    def test_class_ids_are_int64_integers(self, class_id):
        """A class is never truncated, and none past int64 reaches map_table."""
        message = f"class_id {class_id} is not an int64 integer >= 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _gt(a=[(0, 5, class_id)])

    def test_the_largest_int64_class(self):
        gt = _gt(a=[(0, 5, 2**63 - 1)], b=[(0, 5, np.int64(3))])
        assert gt.class_ids == [3, 2**63 - 1]
        assert all(type(c) is int for items in gt.segments.values() for _, c in items)
        preds = {"a": segments((0, 5, 2**63 - 1, 0.9)), "b": segments((0, 5, 3, 0.8))}
        report = map_table(preds, gt)
        assert report.average_map == 1.0
        assert [c for c, _ in report.per_class] == [3, 2**63 - 1]


class TestAveragePrecision:
    def test_exact_match_is_one(self):
        gt = _gt(a=[(2, 8, 1)])
        preds = {"a": segments((2, 8, 1, 0.9))}
        for t in DEFAULT_TIOU_THRESHOLDS:
            assert average_precision(preds, gt, 1, t) == 1.0

    def test_below_threshold_is_zero(self):
        gt = _gt(a=[(0, 3, 1)])
        preds = {"a": segments((0, 9, 1, 0.9))}  # tiou = 1/3
        assert average_precision(preds, gt, 1, 0.5) == 0.0
        assert average_precision(preds, gt, 1, 0.3) == 1.0

    def test_false_positive_outranks_true_positive(self):
        gt = _gt(a=[(0, 10, 1)])
        preds = {
            "a": segments(
                (0, 10, 1, 0.8),
                (50, 60, 1, 0.9),
            )
        }
        assert average_precision(preds, gt, 1, 0.5) == 0.5

    def test_no_ground_truth_is_zero(self):
        gt = _gt(a=[(0, 10, 2)])
        preds = {"a": segments((0, 10, 1, 0.9))}
        assert average_precision(preds, gt, 1, 0.5) == 0.0

    def test_each_gt_matched_once(self):
        gt = _gt(a=[(0, 10, 1)])
        preds = {
            "a": segments(
                (0, 10, 1, 0.9),
                (0, 10, 1, 0.8),  # duplicate becomes FP
            )
        }
        assert average_precision(preds, gt, 1, 0.5) == 1.0
        # the duplicate caps precision at recall 1 but AP keeps the early TP
        gt2 = _gt(a=[(0, 10, 1), (20, 30, 1)])
        preds2 = {
            "a": segments(
                (0, 10, 1, 0.9),
                (0, 10, 1, 0.8),
                (20, 30, 1, 0.7),
            )
        }
        assert average_precision(preds2, gt2, 1, 0.5) == pytest.approx(
            0.5 * 1.0 + 0.5 * (2 / 3)
        )

    def test_matching_prefers_higher_tiou(self):
        gt = _gt(a=[(0, 10, 1), (8, 18, 1)])
        preds = {"a": segments((7, 17, 1, 0.9))}
        # the prediction overlaps both; it must claim [8,18] (higher tiou),
        # leaving [0,10] unmatched
        assert average_precision(preds, gt, 1, 0.5) == 0.5

    def test_rank_invariance_under_monotone_rescale(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            gt = _gt(
                a=[(float(s), float(s) + 5.0, 1) for s in rng.uniform(0, 80, 3) * 1.0]
            )
            preds = {
                "a": segments(*(
                    (float(s), float(s) + float(rng.uniform(2, 8)), 1, float(rng.uniform(0.05, 1)))
                    for s in rng.uniform(0, 80, 6)
                ))
            }
            base = average_precision(preds, gt, 1, 0.4)
            rescaled = {
                "a": segments(*(
                    (p.start_s, p.end_s, p.class_id, math.exp(3 * p.score)) for p in preds["a"]
                ))
            }
            assert average_precision(rescaled, gt, 1, 0.4) == base

    def test_non_increasing_in_threshold(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            gt = _gt(a=[(float(s), float(s) + 6.0, 1) for s in rng.uniform(0, 60, 3)])
            preds = {
                "a": segments(*(
                    (float(s), float(s) + float(rng.uniform(3, 9)), 1, float(rng.uniform(0.05, 1)))
                    for s in rng.uniform(0, 60, 8)
                ))
            }
            aps = [average_precision(preds, gt, 1, t) for t in DEFAULT_TIOU_THRESHOLDS]
            for earlier, later in zip(aps, aps[1:]):
                assert later <= earlier + 1e-12


class TestMapTable:
    def test_perfect_predictions(self):
        gt = _gt(a=[(0, 5, 1), (10, 15, 2)], b=[(3, 9, 1)])
        preds = {
            "a": segments((0, 5, 1, 0.9), (10, 15, 2, 0.8)),
            "b": segments((3, 9, 1, 0.7)),
        }
        report = map_table(preds, gt)
        assert all(v == 1.0 for v in report.map_values)
        assert report.average_map == 1.0

    def test_empty_predictions(self):
        gt = _gt(a=[(0, 5, 1)])
        report = map_table({}, gt)
        assert all(v == 0.0 for v in report.map_values)

    def test_mean_over_present_classes(self):
        gt = _gt(a=[(0, 10, 1), (20, 30, 2)])
        preds = {"a": segments((0, 10, 1, 0.9))}  # class 2 missed
        report = map_table(preds, gt)
        assert all(v == 0.5 for v in report.map_values)

    def test_absent_classes_excluded_from_mean(self):
        gt = _gt(a=[(0, 10, 1)])
        preds = {
            "a": segments(
                (0, 10, 1, 0.9),
                (20, 30, 7, 0.9),  # class with no GT anywhere
            )
        }
        report = map_table(preds, gt)
        assert report.map_values == tuple(1.0 for _ in DEFAULT_TIOU_THRESHOLDS)
        assert [cid for cid, _ in report.per_class] == [1]

    def test_range_averages_are_exact_means(self):
        gt = _gt(a=[(0, 10, 1)])
        preds = {
            "a": segments(
                (0, 8, 1, 0.9),  # tiou 0.8: TP up to 0.7... 0.8
            )
        }
        report = map_table(preds, gt)
        vals = report.map_values
        assert report.average_between(0.1, 0.5) == sum(vals[:5]) / 5
        assert report.average_between(0.3, 0.7) == sum(vals[2:7]) / 5
        assert report.average_between(0.1, 0.7) == sum(vals) / 7
        d = report.to_dict()
        assert d["range_averages"]["0.1:0.5"] == report.average_between(0.1, 0.5)
        assert d["range_averages"]["0.3:0.7"] == report.average_between(0.3, 0.7)
        assert d["range_averages"]["0.1:0.7"] == report.average_between(0.1, 0.7)

    def test_requires_thresholds_and_gt(self):
        gt = _gt(a=[(0, 5, 1)])
        with pytest.raises(ValueError):
            map_table({}, gt, thresholds=())
        with pytest.raises(ValueError):
            map_table({}, GroundTruthSet({}))

    def test_map_at_and_text(self):
        gt = _gt(a=[(0, 5, 1)])
        preds = {"a": segments((0, 5, 1, 0.9))}
        report = map_table(preds, gt)
        assert report.map_at(0.5) == 1.0
        with pytest.raises(KeyError):
            report.map_at(0.85)

    def test_values_within_unit_interval(self):
        rng = np.random.default_rng(59)
        gt = _gt(
            a=[(float(s), float(s) + 5.0, int(c)) for s, c in zip(rng.uniform(0, 50, 4), rng.integers(1, 4, 4))]
        )
        rows = []
        for s in rng.uniform(0, 50, 10):
            end, score = float(s) + float(rng.uniform(2, 9)), float(rng.uniform(0, 1))
            rows.append((float(s), end, int(rng.integers(1, 4)), score))
        preds = {"a": segments(*rows)}
        report = map_table(preds, gt)
        for _, aps in report.per_class:
            assert all(0.0 <= v <= 1.0 for v in aps)
        assert all(0.0 <= v <= 1.0 for v in report.map_values)


class TestPseudoQuality:
    def test_exact_pseudos_perfect(self):
        gt = _gt(a=[(0, 10, 1), (20, 30, 2)])
        pseudos = {
            "a": segments(
                (0, 10, 1, 0.9),
                (20, 30, 2, 0.8),
            )
        }
        q = pseudo_quality(pseudos, gt)
        assert all(p == 1.0 for p in q.precision)
        assert all(r == 1.0 for r in q.recall)
        assert q.average_map == 1.0

    def test_empty_pseudos(self):
        gt = _gt(a=[(0, 10, 1)])
        q = pseudo_quality({}, gt)
        assert all(r == 0.0 for r in q.recall)
        assert all(p == 0.0 for p in q.precision)

    def test_half_recall(self):
        gt = _gt(a=[(0, 10, 1), (20, 30, 1)])
        pseudos = {"a": segments((0, 10, 1, 0.9))}
        q = pseudo_quality(pseudos, gt, thresholds=(0.5,))
        assert q.recall == (0.5,)
        assert q.precision == (1.0,)

    def test_class_mismatch_never_matches(self):
        gt = _gt(a=[(0, 10, 1)])
        pseudos = {"a": segments((0, 10, 2, 0.9))}
        q = pseudo_quality(pseudos, gt, thresholds=(0.5,))
        assert q.recall == (0.0,)
        assert q.precision == (0.0,)

    def test_to_dict_carries_both_views(self):
        gt = _gt(a=[(0, 10, 1)])
        pseudos = {"a": segments((0, 10, 1, 0.9))}
        d = pseudo_quality(pseudos, gt).to_dict()
        assert "precision" in d and "recall" in d and "map" in d


def test_range_averages_only_for_covered_ranges():
    report = EvalReport((0.1, 0.5), (0.75, 0.25), ((1, (0.75, 0.25)),))
    assert report.to_dict()["range_averages"] == {"0.1:0.5": 0.5}
    report = EvalReport((0.3, 0.5), (0.75, 0.25), ((1, (0.75, 0.25)),))
    assert report.to_dict()["range_averages"] == {}
    full = EvalReport(
        DEFAULT_TIOU_THRESHOLDS, (0.5,) * 7, ((1, (0.5,) * 7),)
    ).to_dict()["range_averages"]
    assert list(full) == ["0.1:0.5", "0.3:0.7", "0.1:0.7"]


def test_report_shapes():
    report = EvalReport((0.5,), (0.25,), ((1, (0.25,)),))
    assert report.average_map == 0.25
    with pytest.raises(KeyError):
        report.average_between(0.8, 0.9)
