"""Detection-quality evaluation for temporal proposals.

Average precision follows the standard protocol: predictions are matched
greedily in score order against unmatched ground truth at a tIoU
threshold, and the all-point interpolated area under the
precision/recall curve is accumulated. The PR arithmetic runs on exact
rationals so results are reproducible to the last bit regardless of
summation order. Each call computes the tIoU of every same-video,
same-class (prediction, ground truth) pair once and sweeps every
threshold over those pairs.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .config import DEFAULT_TIOU_THRESHOLDS
from .core import Interval, Proposal, PseudoProposal, pairwise_tiou

__all__ = [
    "GroundTruthSet",
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
class GroundTruthSet:
    """Ground-truth segments per video: video_id -> list of (interval, class)."""

    segments: Mapping[str, tuple[tuple[Interval, int], ...]]

    def __post_init__(self) -> None:
        frozen = {}
        for vid, items in self.segments.items():
            rows = tuple((iv, int(c)) for iv, c in items)
            for iv, c in rows:
                if c < 1:
                    raise ValueError("ground-truth class ids are 1-based")
                if not isinstance(iv, Interval):
                    raise TypeError("ground-truth segments must be Intervals")
            frozen[str(vid)] = rows
        object.__setattr__(self, "segments", frozen)

    @property
    def class_ids(self) -> list[int]:
        ids = {c for items in self.segments.values() for _, c in items}
        return sorted(ids)


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
    maps that sorted position back to the input position.
    """

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
        cls,
        predictions: Mapping[str, Sequence[Proposal]],
        ground_truth: GroundTruthSet,
    ) -> "_PairTable":
        video_key = {vid: k for k, vid in enumerate(ground_truth.segments)}
        n_videos = len(video_key)
        gt_rows = [
            (c * n_videos + video_key[vid], iv.start_s, iv.end_s)
            for vid, items in ground_truth.segments.items()
            for iv, c in items
        ]
        g_key, g_start, g_end = _columns(gt_rows, (np.int64, np.float64, np.float64))
        gt_input = np.lexsort((g_start, g_key))
        g_key, g_start, g_end = g_key[gt_input], g_start[gt_input], g_end[gt_input]
        npos = Counter(c for items in ground_truth.segments.values() for _, c in items)

        rows = [
            (
                p.class_id * n_videos + video_key[vid] if vid in video_key else -1,
                p.class_id,
                p.interval.start_s,
                p.interval.end_s,
                p.score,
            )
            for vid, plist in predictions.items()
            for p in plist
        ]
        p_key, p_class, p_start, p_end, p_score = _columns(
            rows, (np.int64, np.int64, np.float64, np.float64, np.float64)
        )

        lo = np.searchsorted(g_key, p_key, side="left")
        counts = np.searchsorted(g_key, p_key, side="right") - lo
        pair_pred = np.repeat(np.arange(p_key.shape[0]), counts)
        first = np.cumsum(counts) - counts
        pair_gt = np.arange(pair_pred.shape[0]) + np.repeat(lo - first, counts)
        return cls(
            p_class, p_start, p_end, p_score, gt_input, npos, pair_pred, pair_gt,
            pairwise_tiou(p_start[pair_pred], p_end[pair_pred], g_start[pair_gt], g_end[pair_gt]),
        )

    def ap_table(
        self, class_ids: Sequence[int], thresholds: Sequence[float]
    ) -> list[tuple[float, ...]]:
        """AP of each class at each threshold, swept over the pairs once.

        Per class, predictions go in (score desc, start, end) order, input
        order on ties; each claims its highest-tIoU unclaimed segment in the
        same video (earlier start on tIoU ties) when that tIoU meets the
        threshold. The claimed sets differ per threshold, so one pass keeps
        one per threshold.
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
        walk = np.lexsort((pg, rank[pp], self.pred_class[pp]))
        pp, pg, pt = pp[walk], pg[walk].tolist(), pt[walk].tolist()
        pair_rank = rank[pp].tolist()
        pair_class = self.pred_class[pp].tolist()
        pp = pp.tolist()

        tp_ranks = {c: [[] for _ in thresholds] for c in class_ids}
        taken = [set() for _ in thresholds]  # sorted ground-truth positions
        i, n = 0, len(pp)
        while i < n:
            j = i + 1
            while j < n and pp[j] == pp[i]:
                j += 1
            ranks = tp_ranks.get(pair_class[i])
            if ranks is not None:
                candidates = list(zip(pg[i:j], pt[i:j]))
                for k, threshold in enumerate(thresholds):
                    claimed = taken[k]
                    best_g, best_t = -1, 0.0
                    for g, t in candidates:
                        if t > best_t and g not in claimed:
                            best_g, best_t = g, t
                    if best_g >= 0 and best_t >= threshold:
                        claimed.add(best_g)
                        ranks[k].append(pair_rank[i])
            i = j
        return [
            tuple(_interpolated_ap(r, self.npos.get(c, 0)) for r in tp_ranks[c])
            for c in class_ids
        ]

    def matched_counts(self, thresholds: Sequence[float]) -> list[int]:
        """Rank-free greedy matches at each threshold, from one greedy pass.

        The highest-tIoU pair goes first (earlier prediction, then earlier
        segment on ties); a threshold only cuts that sequence short, so the
        matches at a threshold are the pass's matches at or above it.
        """
        keep = self.pair_tiou >= min(thresholds)
        pp, pg, pt = self.pair_pred[keep], self.gt_input[self.pair_gt[keep]], self.pair_tiou[keep]
        walk = np.lexsort((pg, pp, -pt))
        used_p: set[int] = set()
        used_g: set[int] = set()
        matched: list[float] = []
        for p, g, t in zip(pp[walk].tolist(), pg[walk].tolist(), pt[walk].tolist()):
            if p in used_p or g in used_g:
                continue
            used_p.add(p)
            used_g.add(g)
            matched.append(t)
        return [sum(1 for t in matched if t >= threshold) for threshold in thresholds]


def _columns(rows: list[tuple], dtypes: tuple) -> list[np.ndarray]:
    """Rows of equal-length tuples as one 1-D array per column."""
    cols = list(zip(*rows)) if rows else [()] * len(dtypes)
    return [np.array(col, dtype=dt) for col, dt in zip(cols, dtypes)]


def _interpolated_ap(tp_ranks: Sequence[int], npos: int) -> float:
    """All-point interpolated AP from the ascending 1-based ranks of the true
    positives: (1/npos) * sum_k max_{j>=k} j / rank_j, on exact rationals.

    Precision peaks at true-positive ranks and recall steps by 1/npos only
    there, so this is the area under the interpolated precision/recall curve.
    """
    if npos == 0:
        return 0.0
    total = Fraction(0)
    best_j, best_rank, run = 0, 1, 0
    for j in range(len(tp_ranks), 0, -1):
        rank = tp_ranks[j - 1]
        if j * best_rank > best_j * rank:
            if run:
                total += Fraction(best_j * run, best_rank)
            best_j, best_rank, run = j, rank, 0
        run += 1
    if run:
        total += Fraction(best_j * run, best_rank)
    return float(total / npos)


def average_precision(
    predictions: Mapping[str, Sequence[Proposal]],
    ground_truth: GroundTruthSet,
    class_id: int,
    threshold: float,
) -> float:
    """AP of one class at one tIoU threshold over the whole corpus."""
    table = _PairTable.build(predictions, ground_truth)
    return table.ap_table([class_id], [threshold])[0][0]


def map_table(
    predictions: Mapping[str, Sequence[Proposal]],
    ground_truth: GroundTruthSet,
    thresholds: Sequence[float] = DEFAULT_TIOU_THRESHOLDS,
) -> EvalReport:
    """mAP across tIoU thresholds, averaged over ground-truth classes."""
    if not thresholds:
        raise ValueError("at least one tIoU threshold required")
    class_ids = ground_truth.class_ids
    if not class_ids:
        raise ValueError("ground truth holds no segments")
    table = _PairTable.build(predictions, ground_truth)
    per_class = list(zip(class_ids, table.ap_table(class_ids, thresholds)))
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
    pseudos_by_video: Mapping[str, Sequence[PseudoProposal]],
    ground_truth: GroundTruthSet,
    thresholds: Sequence[float] = DEFAULT_TIOU_THRESHOLDS,
) -> PseudoQuality:
    """Score pseudo labels against ground truth.

    Confidence ranks the pseudo proposals for the mAP table; set-level
    precision/recall per threshold come from rank-free greedy matching,
    with empty denominators scored 0.
    """
    as_props = {
        vid: [p.as_proposal() for p in plist]
        for vid, plist in pseudos_by_video.items()
    }
    report = map_table(as_props, ground_truth, thresholds)
    n_pseudo = sum(len(v) for v in pseudos_by_video.values())
    n_gt = sum(len(v) for v in ground_truth.segments.values())
    matched = _PairTable.build(as_props, ground_truth).matched_counts(thresholds)
    precision = tuple(m / n_pseudo if n_pseudo else 0.0 for m in matched)
    recall = tuple(m / n_gt if n_gt else 0.0 for m in matched)
    return PseudoQuality(report, precision, recall)
