"""Detection-quality evaluation for temporal proposals.

Average precision follows the standard protocol: predictions are matched
greedily in score order against unmatched ground truth at a tIoU
threshold, and the all-point interpolated area under the
precision/recall curve is accumulated. The PR arithmetic is exact, on
integers, so results are reproducible to the last bit regardless of
summation order. Each call computes the tIoU of every same-video,
same-class (prediction, ground truth) pair once and matches those pairs at
every threshold in one pass of array rounds.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import DEFAULT_TIOU_THRESHOLDS
from .core import GroundTruthSet, Segments, pairwise_tiou

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

    def map_at(self, threshold: float) -> float:
        cells = self._cells(threshold, threshold)
        if not cells:
            raise KeyError(f"no mAP entry at tIoU {threshold}")
        return cells[0]

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
    """Every same-video, same-class (prediction, ground truth) pair of a corpus
    with its tIoU.

    Predictions are flattened in input order (video order of the mapping,
    then list order). Ground-truth segments are sorted by (class, video,
    start), input order on ties, so the segments of one video and class are
    contiguous and in the order the matcher breaks tIoU ties by. `gt_input`
    maps that sorted position back to the input position. `class_ids` are
    the ground truth's classes, ascending.
    """

    class_ids: list[int]
    pred_class: np.ndarray
    pred_start: np.ndarray
    pred_end: np.ndarray
    pred_score: np.ndarray
    gt_input: np.ndarray
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
        video_key = {vid: k for k, vid in enumerate(ground_truth.segments)}
        n_videos = len(video_key)
        classes = np.array(ground_truth.class_ids, dtype=np.int64)
        g_video, g_class, g_start, g_end = _columns(
            [
                (video_key[vid], c, iv.start_s, iv.end_s)
                for vid, items in ground_truth.segments.items()
                for iv, c in items
            ],
            (np.int64, np.int64, np.float64, np.float64),
        )
        g_key = np.searchsorted(classes, g_class) * n_videos + g_video
        gt_input = np.lexsort((g_start, g_key))
        g_key, g_start, g_end = g_key[gt_input], g_start[gt_input], g_end[gt_input]
        npos = Counter(c for items in ground_truth.segments.values() for _, c in items)

        segments = list(predictions.values())
        p_class, p_start, p_end, p_score = (
            np.concatenate([np.empty(0, dtype), *(getattr(s, name) for s in segments)])
            for name, dtype in (
                ("class_id", np.int64), ("start_s", np.float64), ("end_s", np.float64),
                ("score", np.float64),
            )
        )
        p_video = np.repeat(
            np.array([video_key.get(vid, -1) for vid in predictions], dtype=np.int64),
            [len(s) for s in segments],
        )
        rank = np.searchsorted(classes, p_class)
        known = (np.searchsorted(classes, p_class, side="right") > rank) & (p_video >= 0)
        p_key = np.where(known, rank * n_videos + p_video, -1)

        lo = np.searchsorted(g_key, p_key, side="left")
        counts = np.searchsorted(g_key, p_key, side="right") - lo
        pair_pred = np.repeat(np.arange(p_key.shape[0]), counts)
        first = np.cumsum(counts) - counts
        pair_gt = np.arange(pair_pred.shape[0]) + np.repeat(lo - first, counts)
        return cls(
            ground_truth.class_ids, p_class, p_start, p_end, p_score, gt_input, npos,
            pair_pred, pair_gt,
            pairwise_tiou(p_start[pair_pred], p_end[pair_pred], g_start[pair_gt], g_end[pair_gt]),
        )

    def ap_table(self, thresholds: Sequence[float]) -> list[tuple[float, ...]]:
        """AP of each ground-truth class at each threshold, from one greedy matching.

        Per class, predictions go in (score desc, start, end) order, input
        order on ties; each claims its highest-tIoU unclaimed segment in the
        same video (earlier start on tIoU ties) when that tIoU meets the
        threshold. So at one threshold the claims are the greedy matching of
        the candidate pairs (tIoU > 0 and at least the threshold) in (rank,
        tIoU desc, segment) order. Each threshold gets its own copy of every
        prediction and segment, and one matching covers them all.
        """
        order = np.lexsort((self.pred_end, self.pred_start, -self.pred_score, self.pred_class))
        sorted_class = self.pred_class[order]
        rank = np.empty_like(order)
        rank[order] = (
            np.arange(order.shape[0])
            - np.searchsorted(sorted_class, sorted_class, side="left")
            + 1
        )
        positive = self.pair_tiou > 0.0
        pp, pg, pt = self.pair_pred[positive], self.pair_gt[positive], self.pair_tiou[positive]
        walk = np.lexsort((pg, -pt, rank[pp]))
        pp, pg, pt = pp[walk], pg[walk], pt[walk]
        level, pair = np.nonzero(pt >= np.asarray(thresholds, dtype=np.float64)[:, None])
        took = _greedy_matches(
            level * order.shape[0] + pp[pair], level * self.gt_input.shape[0] + pg[pair]
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
        pp, pg, pt = self.pair_pred[keep], self.gt_input[self.pair_gt[keep]], self.pair_tiou[keep]
        walk = np.lexsort((pg, pp, -pt))
        matched = pt[walk][_greedy_matches(pp[walk], pg[walk])]
        return [int(np.count_nonzero(matched >= threshold)) for threshold in thresholds]


def _first_occurrences(ids: np.ndarray) -> np.ndarray:
    """Mask of the entries whose value no earlier entry holds."""
    order = np.argsort(ids, kind="stable")
    ordered = ids[order]
    first = np.ones(ids.shape[0], dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    mask = np.zeros(ids.shape[0], dtype=bool)
    mask[order[first]] = True
    return mask


def _greedy_matches(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The greedy matching of the edges (left[i], right[i]), nonnegative
    integer ids, visited in index order: the mask of the edges taken, each
    one that no earlier taken edge shares an endpoint with.

    It runs in rounds over the open edges: an edge that is the first open
    one at both of its endpoints is taken (every earlier edge there was
    closed by an earlier take), and every edge at a taken endpoint closes.
    A round takes the first open edge of each connected group, so there are
    at most as many rounds as the largest group has matches, plus one.
    """
    taken = np.zeros(left.shape[0], dtype=bool)
    used_left = np.zeros(int(left.max(initial=-1)) + 1, dtype=bool)
    used_right = np.zeros(int(right.max(initial=-1)) + 1, dtype=bool)
    edges = np.arange(left.shape[0])
    while edges.size:
        lo, ro = left[edges], right[edges]
        take = _first_occurrences(lo) & _first_occurrences(ro)
        taken[edges[take]] = True
        used_left[lo[take]] = True
        used_right[ro[take]] = True
        edges = edges[~(used_left[lo] | used_right[ro])]
    return taken


def _columns(rows: list[tuple], dtypes: tuple) -> list[np.ndarray]:
    """Rows of equal-length tuples as one 1-D array per column."""
    cols = list(zip(*rows)) if rows else [()] * len(dtypes)
    return [np.array(col, dtype=dt) for col, dt in zip(cols, dtypes)]


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
    if not thresholds:
        raise ValueError("at least one tIoU threshold required")
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
    n_gt = sum(len(v) for v in ground_truth.segments.values())
    matched = table.matched_counts(thresholds)
    precision = tuple(m / n_pseudo if n_pseudo else 0.0 for m in matched)
    recall = tuple(m / n_gt if n_gt else 0.0 for m in matched)
    return PseudoQuality(report, precision, recall)
