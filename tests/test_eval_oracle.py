"""Float oracle for the evaluation sweep.

`reference_eval` is the original evaluator: one `average_precision` call
per class and threshold, scalar `span_tiou`, a `Fraction` at every rank,
and a second greedy matcher per threshold and video. The package's
one-pass sweep must give the same floats, bit for bit, on every corpus.
Corpora are built as `segment_objects` pseudo labels and handed to the
package as `Segments`.
"""
from fractions import Fraction

import numpy as np
import pytest

import reference_eval as ref
from pseudotal.core import Interval, pairwise_tiou, span_tiou
from pseudotal.evaluation import (
    DEFAULT_TIOU_THRESHOLDS,
    _interpolated_ap,
    GroundTruthSet,
    average_precision,
    map_table,
    pseudo_quality,
)
from segment_objects import Proposal, PseudoProposal, segments_by_video

THRESHOLDS = (*DEFAULT_TIOU_THRESHOLDS, 0.75, 1.0)


def _gt(**videos):
    return GroundTruthSet(
        {
            vid: tuple((Interval(s, e), c) for s, e, c in items)
            for vid, items in videos.items()
        }
    )


def assert_same(pseudos, gt, thresholds=THRESHOLDS):
    """map, per_class, precision and recall equal to the oracle's, as floats."""
    preds = {
        vid: [Proposal(p.interval, p.confidence, p.class_id) for p in plist]
        for vid, plist in pseudos.items()
    }
    segs = segments_by_video(pseudos)
    got, want = map_table(segs, gt, thresholds), ref.map_table(preds, gt, thresholds)
    assert got.map_values == want.map_values
    assert got.per_class == want.per_class
    q, q_ref = pseudo_quality(segs, gt, thresholds), ref.pseudo_quality(pseudos, gt, thresholds)
    assert q.report.map_values == q_ref.report.map_values
    assert q.report.per_class == q_ref.report.per_class
    assert q.precision == q_ref.precision
    assert q.recall == q_ref.recall
    for cid in {*gt.class_ids, *(p.class_id for v in pseudos.values() for p in v)}:
        for t in thresholds[::3]:
            assert average_precision(segs, gt, cid, t) == ref.average_precision(
                preds, gt, cid, t
            )


def random_corpus(rng, integer_grid: bool):
    """Multi-video, multi-class ground truth and pseudo labels around it.

    On the integer grid, boundaries are whole seconds, so tIoU often lands
    exactly on a threshold and ties between segments are common; scores are
    drawn from a few levels, so score ties are common too."""
    n_videos, n_classes = int(rng.integers(1, 7)), int(rng.integers(1, 5))
    draw = (lambda lo, hi: float(rng.integers(lo, hi))) if integer_grid else (
        lambda lo, hi: float(rng.uniform(lo, hi))
    )
    gt, pseudos = {}, {}
    for v in range(n_videos):
        vid = f"v{v}"
        segs = []
        for _ in range(int(rng.integers(0, 5))):
            s = draw(0, 40)
            segs.append((Interval(s, s + draw(1, 11)), int(rng.integers(1, n_classes + 1))))
        if segs or rng.random() < 0.5:
            gt[vid] = tuple(segs)
        plist = []
        for _ in range(int(rng.integers(0, 12))):
            if segs and rng.random() < 0.6:
                iv, c = segs[int(rng.integers(len(segs)))]
                s = max(0.0, iv.start_s + draw(-3, 4))
                e = max(s + 1.0, iv.end_s + draw(-3, 4))
            else:
                s = draw(0, 40)
                e = s + draw(1, 11)
                c = int(rng.integers(1, n_classes + 2))
            score = float(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0])) if integer_grid else (
                float(rng.uniform(0, 1))
            )
            plist.append(PseudoProposal(Interval(s, e), c, score))
        if plist or rng.random() < 0.3:
            pseudos[vid] = plist
    return pseudos, GroundTruthSet(gt)


def test_pairwise_tiou_bit_identical_to_core():
    rng = np.random.default_rng(29)
    n = 20000
    a_start = rng.uniform(0, 50, n) * rng.choice([1.0, 0.1, 1 / 3], n)
    a_end = a_start + rng.uniform(0.01, 20, n)
    b_start = rng.uniform(0, 50, n) * rng.choice([1.0, 0.1, 1 / 3], n)
    b_end = b_start + rng.uniform(0.01, 20, n)
    got = pairwise_tiou(a_start, a_end, b_start, b_end).tolist()
    want = [
        span_tiou(*a, *b)
        for a, b in zip(zip(a_start.tolist(), a_end.tolist()), zip(b_start.tolist(), b_end.tolist()))
    ]
    assert sum(t > 0.0 for t in want) > n // 10
    assert got == want
    # integer endpoints: a float64 result, still bit-identical to the scalar
    a_start = rng.integers(0, 60, n)
    a_end = a_start + rng.integers(1, 25, n)
    b_start = rng.integers(0, 60, n)
    b_end = b_start + rng.integers(1, 25, n)
    got = pairwise_tiou(a_start, a_end, b_start, b_end)
    assert got.dtype == np.float64
    want = [
        span_tiou(*a, *b)
        for a, b in zip(zip(a_start.tolist(), a_end.tolist()), zip(b_start.tolist(), b_end.tolist()))
    ]
    assert sum(t > 0.0 for t in want) > n // 10
    assert got.tolist() == want


@pytest.mark.parametrize("integer_grid", [True, False])
def test_seeded_corpora(integer_grid):
    rng = np.random.default_rng(303 + integer_grid)
    checked = 0
    for _ in range(300):
        pseudos, gt = random_corpus(rng, integer_grid)
        if not gt.class_ids:
            continue
        assert_same(pseudos, gt)
        checked += 1
    assert checked > 200


def test_score_ties_keep_input_order():
    gt = _gt(a=[(0, 10, 1), (20, 30, 1)])
    pseudos = {
        "a": [
            PseudoProposal(Interval(50, 60), 1, 0.5),
            PseudoProposal(Interval(0, 10), 1, 0.5),
            PseudoProposal(Interval(20, 30), 1, 0.5),
            PseudoProposal(Interval(0, 10), 1, 0.5),
        ]
    }
    assert_same(pseudos, gt)


def test_tiou_exactly_on_threshold():
    # tIoU 0.5, 0.3 and 0.7 exactly: [0, 10] vs [0, 5], [0, 3], [0, 7]
    gt = _gt(a=[(0, 10, 1)], b=[(0, 10, 2)], c=[(0, 10, 1)])
    pseudos = {
        "a": [PseudoProposal(Interval(0, 5), 1, 0.9)],
        "b": [PseudoProposal(Interval(0, 3), 2, 0.8)],
        "c": [PseudoProposal(Interval(0, 7), 1, 0.7)],
    }
    assert_same(pseudos, gt, (0.3, 0.5, 0.7))
    q = pseudo_quality(segments_by_video(pseudos), gt, (0.3, 0.5, 0.7))
    assert q.recall == (1.0, 2 / 3, 1 / 3)


def test_tiou_tie_between_two_segments():
    # [5, 15] overlaps [0, 10] and [10, 20] with tIoU 1/3 each: the earlier
    # start wins, in either input order of the segments
    for segs in ([(0, 10, 1), (10, 20, 1)], [(10, 20, 1), (0, 10, 1)]):
        gt = _gt(a=segs)
        pseudos = {
            "a": [
                PseudoProposal(Interval(5, 15), 1, 0.9),
                PseudoProposal(Interval(0, 12), 1, 0.8),
                PseudoProposal(Interval(9, 20), 1, 0.7),
            ]
        }
        assert_same(pseudos, gt, (0.1, 0.3, 1 / 3, 0.5))


def test_predictions_without_ground_truth_video():
    gt = _gt(a=[(0, 10, 1)])
    pseudos = {
        "elsewhere": [PseudoProposal(Interval(0, 10), 1, 1.0)],
        "a": [PseudoProposal(Interval(1, 10), 1, 0.5)],
    }
    assert_same(pseudos, gt)


def test_class_with_ground_truth_but_no_predictions():
    gt = _gt(a=[(0, 10, 1), (20, 30, 2)], b=[(5, 9, 3)])
    pseudos = {"a": [PseudoProposal(Interval(0, 10), 1, 0.9)]}
    assert_same(pseudos, gt)
    assert map_table({}, gt).per_class[1] == (2, tuple(0.0 for _ in DEFAULT_TIOU_THRESHOLDS))


def test_class_ids_near_the_int64_bound():
    # pairs are keyed by a class's rank among the ground-truth classes, so no
    # class id is multiplied by the video count
    big = 2**62
    gt = _gt(a=[(0, 10, big)], b=[(0, 10, big + 1)], c=[(5, 9, big), (0, 4, 1)])
    pseudos = {
        "a": [PseudoProposal(Interval(0, 10), big, 0.9)],
        "b": [PseudoProposal(Interval(1, 10), big + 1, 0.8),
              PseudoProposal(Interval(0, 10), 2**63 - 1, 0.7)],
        "c": [PseudoProposal(Interval(5, 9), big, 0.6), PseudoProposal(Interval(0, 4), 1, 0.5)],
    }
    assert_same(pseudos, gt)
    assert map_table(segments_by_video(pseudos), gt).average_map == 1.0


def test_empty_prediction_sets():
    gt = _gt(a=[(0, 10, 1)], b=[(3, 8, 2)])
    assert_same({}, gt)
    assert_same({"a": [], "b": []}, gt)


def test_a_chain_of_taken_first_choices():
    """Each prediction's best segment is taken by the prediction ranked just
    above it, so the greedy matchings need one array round per link."""
    n = 60
    gt = _gt(v=[(j, j + 1, 1) for j in range(n)])
    pseudos = {"v": [
        PseudoProposal(Interval(max(j - 0.625, 0.0), max(j - 0.625, 0.0) + 1.0), 1, 1.0 - j / 128)
        for j in range(n)
    ]}
    assert_same(pseudos, gt)


def test_threshold_order_as_given():
    rng = np.random.default_rng(17)
    pseudos, gt = random_corpus(rng, integer_grid=True)
    while not gt.class_ids:
        pseudos, gt = random_corpus(rng, integer_grid=True)
    assert_same(pseudos, gt, (0.7, 0.1, 0.5, 0.3))


def _fraction_ap(tp_ranks: list[int], npos: int) -> Fraction:
    """(1/npos) * sum_k max_{j>=k} j / rank_j over the true positives."""
    total, best = Fraction(0), Fraction(0)
    for j in range(len(tp_ranks), 0, -1):
        best = max(best, Fraction(j, tp_ranks[j - 1]))
        total += best
    return total / npos


def test_integer_ap_equals_the_fraction_sum():
    rng = np.random.default_rng(11)
    for _ in range(3000):
        n_ranks = int(rng.integers(1, 400))
        tp = sorted(rng.choice(np.arange(1, n_ranks + 1), int(rng.integers(0, n_ranks + 1)),
                               replace=False).tolist())
        npos = len(tp) + int(rng.integers(0 if tp else 1, 30))
        assert _interpolated_ap(tp, npos) == float(_fraction_ap(tp, npos))
