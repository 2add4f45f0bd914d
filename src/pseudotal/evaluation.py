"""Detection-quality evaluation for temporal proposals.

Average precision follows the standard protocol: predictions are matched
greedily in score order against unmatched ground truth at a tIoU
threshold, and the all-point interpolated area under the
precision/recall curve is accumulated. The PR arithmetic is exact, on
integers, so results are reproducible to the last bit regardless of
summation order. Each call takes every intersecting same-video, same-class
(prediction, ground truth) pair and its tIoU from the one overlap join,
`core.overlap_pairs`, once, and matches those pairs at every threshold in
one sequential greedy walk: no other pair can match at a positive threshold.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import DEFAULT_TIOU_THRESHOLDS, check_setting
from .core import GroundTruthSet, Segments, overlap_pairs

__all__ = [
    "EvalReport",
    "PseudoQuality",
    "average_precision",
    "map_table",
    "pseudo_quality",
    "DEFAULT_TIOU_THRESHOLDS",
]

# headline ranges reported alongside the full table
RANGE_AVERAGES = ((0.1, 0.5), (0.3, 0.7), (0.1, 0.7))


@dataclass(frozen=True)
class EvalReport:
    """mAP at each tIoU threshold plus the average over thresholds."""

    thresholds: tuple[float, ...]
    map_values: tuple[float, ...]
    per_class: tuple[tuple[int, tuple[float, ...]], ...]

    @property
    def average_map(self) -> float:
        return sum(self.map_values) / len(self.map_values)

    def _cells(self, lo: float, hi: float) -> list[float]:
        """The mAP cells with lo <= tIoU <= hi, within 1e-9."""
        cells = zip(self.thresholds, self.map_values)
        return [v for t, v in cells if lo - 1e-9 <= t <= hi + 1e-9]

    def average_between(self, lo: float, hi: float) -> float:
        """Arithmetic mean of the mAP cells with lo <= tIoU <= hi."""
        cells = self._cells(lo, hi)
        if not cells:
            raise KeyError(f"no mAP entries between {lo} and {hi}")
        return sum(cells) / len(cells)

    def to_dict(self) -> dict:
        """Report fields; a range average only when both of its endpoints
        are among the thresholds."""
        ranges = {
            f"{lo:.1f}:{hi:.1f}": self.average_between(lo, hi)
            for lo, hi in RANGE_AVERAGES
            if self._cells(lo, lo) and self._cells(hi, hi)
        }
        return {
            "thresholds": list(self.thresholds),
            "map": list(self.map_values),
            "average_map": self.average_map,
            "range_averages": ranges,
            "per_class": {
                str(cid): list(vals) for cid, vals in self.per_class
            },
        }


@dataclass(frozen=True, eq=False)
class _PairTable:
    """Every intersecting same-video, same-class (prediction, ground truth)
    pair of a corpus with its tIoU.

    Predictions and ground-truth segments are flattened in input order
    (video order of the mapping, then row order); `overlap_pairs` gives the
    pairs that intersect, as no other pair can match. `class_ids` are the
    ground truth's classes, ascending.
    """

    class_ids: list[int]
    pred_class: np.ndarray
    pred_start: np.ndarray
    pred_end: np.ndarray
    pred_score: np.ndarray
    gt_start: np.ndarray
    npos: Counter
    pair_pred: np.ndarray
    pair_gt: np.ndarray
    pair_tiou: np.ndarray

    @classmethod
    def build(
        cls, predictions: Mapping[str, Segments], ground_truth: GroundTruthSet
    ) -> "_PairTable":
        """The table of `predictions`, ranked by their scores."""
        # a (video, class) pair is keyed by the video's position and the
        # class's rank among the ground-truth classes, so no raw class id is
        # multiplied; a prediction of a video or class without ground truth
        # gets key -1, which no segment has
        video_key = {vid: k for k, vid in enumerate(ground_truth.videos)}
        n_videos = len(video_key)
        class_ids = ground_truth.class_ids
        classes = np.array(class_ids, dtype=np.int64)
        g_video, g_class, g_start, g_end, _ = _flatten(ground_truth.videos, video_key)
        g_key = np.searchsorted(classes, g_class) * n_videos + g_video
        npos = Counter(g_class.tolist())
        p_video, p_class, p_start, p_end, p_score = _flatten(predictions, video_key)
        rank = np.searchsorted(classes, p_class)
        known = (np.searchsorted(classes, p_class, side="right") > rank) & (p_video >= 0)
        p_key = np.where(known, rank * n_videos + p_video, -1)

        at, pair_gt, pair_tiou = overlap_pairs(p_key, p_start, p_end, (g_key, g_start, g_end))
        pair_pred = np.repeat(np.arange(p_key.shape[0]), np.diff(at))
        return cls(class_ids, p_class, p_start, p_end, p_score, g_start, npos,
                   pair_pred, pair_gt, pair_tiou)

    def ap_table(self, thresholds: Sequence[float]) -> list[tuple[float, ...]]:
        """AP of each ground-truth class at each threshold, from one greedy matching.

        Per class, predictions go in (score desc, start, end) order, input
        order on ties; each claims its highest-tIoU unclaimed segment in the
        same video (earlier start on tIoU ties) when that tIoU meets the
        threshold. So at one threshold the claims are the greedy matching of
        the pairs of tIoU at least the threshold in (rank, tIoU desc, segment
        start, segment) order. Each threshold gets its own copy of every
        prediction and segment, and one matching covers them all.
        """
        order = np.lexsort((self.pred_end, self.pred_start, -self.pred_score, self.pred_class))
        sorted_class = self.pred_class[order]
        rank = np.empty_like(order)
        rank[order] = np.arange(order.shape[0]) - np.searchsorted(sorted_class, sorted_class) + 1
        walk = np.lexsort((self.pair_gt, self.gt_start[self.pair_gt], -self.pair_tiou,
                           rank[self.pair_pred]))
        pp, pg, pt = self.pair_pred[walk], self.pair_gt[walk], self.pair_tiou[walk]
        level, pair = np.nonzero(pt >= np.asarray(thresholds, dtype=np.float64)[:, None])
        took = _greedy_matches(
            level * order.shape[0] + pp[pair], level * self.gt_start.shape[0] + pg[pair]
        )
        # the true-positive ranks of each (class, threshold) cell, ascending;
        # a matched prediction has a ground-truth class
        pred, level, width = pp[pair[took]], level[took], len(thresholds)
        cell = np.searchsorted(self.class_ids, self.pred_class[pred]) * width + level
        tp = rank[pred]
        ranks = tp[np.lexsort((tp, cell))].tolist()
        ends = np.cumsum(np.bincount(cell, minlength=len(self.class_ids) * width)).tolist()
        aps = [
            _interpolated_ap(ranks[lo:hi], self.npos[self.class_ids[k // width]])
            for k, (lo, hi) in enumerate(zip([0, *ends], ends))
        ]
        return [tuple(aps[i : i + width]) for i in range(0, len(aps), width)]

    def matched_counts(self, thresholds: Sequence[float]) -> list[int]:
        """Rank-free greedy matches at each threshold, from one greedy matching.

        The highest-tIoU pair goes first (earlier prediction, then earlier
        segment on ties); a threshold only cuts that sequence short, so the
        matches at a threshold are the matching's pairs at or above it.
        """
        keep = self.pair_tiou >= min(thresholds)
        pp, pg, pt = self.pair_pred[keep], self.pair_gt[keep], self.pair_tiou[keep]
        walk = np.lexsort((pg, pp, -pt))
        matched = pt[walk][_greedy_matches(pp[walk], pg[walk])]
        return [int(np.count_nonzero(matched >= threshold)) for threshold in thresholds]


def _greedy_matches(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The greedy matching of the edges (left[i], right[i]), nonnegative
    integer ids, visited in index order: the mask of the edges taken, each
    one that no earlier taken edge shares an endpoint with. One pass, with
    the used endpoints flagged by id."""
    taken = bytearray(left.shape[0])
    used_left = bytearray(int(left.max(initial=-1)) + 1)
    used_right = bytearray(int(right.max(initial=-1)) + 1)
    for i, a, b in zip(range(left.shape[0]), left.tolist(), right.tolist()):
        if not (used_left[a] or used_right[b]):
            taken[i] = used_left[a] = used_right[b] = 1
    return np.frombuffer(taken, dtype=bool)


def _flatten(videos: Mapping[str, Segments], video_key: Mapping[str, int]) -> list[np.ndarray]:
    """The columns video (its `video_key`, -1 if none), class_id, start_s,
    end_s and score of every video's segments, in mapping order."""
    segments = list(videos.values())
    keys = np.array([video_key.get(vid, -1) for vid in videos], dtype=np.int64)
    return [keys.repeat([len(s) for s in segments])] + [
        np.concatenate([np.empty(0, dtype), *(getattr(s, name) for s in segments)])
        for name, dtype in (("class_id", np.int64), ("start_s", np.float64),
                            ("end_s", np.float64), ("score", np.float64))]


def _interpolated_ap(tp_ranks: Sequence[int], npos: int) -> float:
    """All-point interpolated AP from the ascending 1-based ranks of the true
    positives: (1/npos) * sum_k max_{j>=k} j / rank_j, exactly.

    Precision peaks at true-positive ranks and recall steps by 1/npos only
    there, so this is the area under the interpolated precision/recall curve.
    The sum is kept on integers over the least common multiple of its
    denominators, and the one int/int division rounds it correctly.
    """
    steps = []  # (numerator, rank): `numerator / rank` is one run of equal maxima
    best_j, best_rank, run = 0, 1, 0
    for j in range(len(tp_ranks), 0, -1):
        rank = tp_ranks[j - 1]
        if j * best_rank > best_j * rank:
            if run:
                steps.append((best_j * run, best_rank))
            best_j, best_rank, run = j, rank, 0
        run += 1
    if run:
        steps.append((best_j * run, best_rank))
    denominator = math.lcm(*(rank for _, rank in steps))
    return sum(n * (denominator // rank) for n, rank in steps) / (denominator * npos)


def average_precision(
    predictions: Mapping[str, Segments],
    ground_truth: GroundTruthSet,
    class_id: int,
    threshold: float,
) -> float:
    """AP of one class at one tIoU threshold over the whole corpus: 0.0 for a
    class without ground truth."""
    classes = ground_truth.class_ids
    if class_id not in classes:
        return 0.0
    table = _PairTable.build(predictions, ground_truth)
    return table.ap_table([threshold])[classes.index(class_id)][0]


def map_table(
    predictions: Mapping[str, Segments],
    ground_truth: GroundTruthSet,
    thresholds: Sequence[float] = DEFAULT_TIOU_THRESHOLDS,
    *,
    table: _PairTable | None = None,
) -> EvalReport:
    """mAP across tIoU thresholds, averaged over ground-truth classes.

    `table` is the `_PairTable` of `predictions` and `ground_truth` when the
    caller has built it already; `pseudo_quality` shares one with its
    set-level matching.
    """
    check_setting("eval_tious", thresholds)
    class_ids = ground_truth.class_ids
    if not class_ids:
        raise ValueError("ground truth holds no segments")
    if table is None:
        table = _PairTable.build(predictions, ground_truth)
    per_class = list(zip(class_ids, table.ap_table(thresholds)))
    maps = tuple(
        sum(aps[k] for _, aps in per_class) / len(per_class)
        for k in range(len(thresholds))
    )
    return EvalReport(tuple(float(t) for t in thresholds), maps, tuple(per_class))


@dataclass(frozen=True)
class PseudoQuality:
    """Ranked mAP report plus unranked set-level precision/recall."""

    report: EvalReport
    precision: tuple[float, ...]
    recall: tuple[float, ...]

    @property
    def average_map(self) -> float:
        return self.report.average_map

    def to_dict(self) -> dict:
        out = self.report.to_dict()
        out["precision"] = list(self.precision)
        out["recall"] = list(self.recall)
        return out


def pseudo_quality(
    pseudos_by_video: Mapping[str, Segments],
    ground_truth: GroundTruthSet,
    thresholds: Sequence[float] = DEFAULT_TIOU_THRESHOLDS,
) -> PseudoQuality:
    """Score pseudo labels against ground truth.

    Confidence ranks the pseudo proposals for the mAP table; set-level
    precision/recall per threshold come from rank-free greedy matching,
    with empty denominators scored 0.
    """
    table = _PairTable.build(pseudos_by_video, ground_truth)
    report = map_table(pseudos_by_video, ground_truth, thresholds, table=table)
    n_pseudo = sum(len(v) for v in pseudos_by_video.values())
    n_gt = sum(len(v) for v in ground_truth.videos.values())
    matched = table.matched_counts(thresholds)
    precision = tuple(m / n_pseudo if n_pseudo else 0.0 for m in matched)
    recall = tuple(m / n_gt if n_gt else 0.0 for m in matched)
    return PseudoQuality(report, precision, recall)
