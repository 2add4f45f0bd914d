"""The original evaluation code, kept as the float oracle for `pseudotal.evaluation`.

It matches every class at every tIoU threshold on its own: each
`average_precision` call rescans every prediction with scalar `span_tiou`,
builds a `Fraction` at every rank, and `pseudo_quality` reruns a second
greedy matcher per threshold and video. Tests compare the package's mAP,
per-class AP, precision and recall against these functions for exact
float equality; it is not used by the package.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from pseudotal.core import Interval, span_tiou
from pseudotal.evaluation import (
    DEFAULT_TIOU_THRESHOLDS,
    EvalReport,
    GroundTruthSet,
    PseudoQuality,
)
from segment_objects import Proposal, PseudoProposal


def _match_flags(
    preds: Sequence[tuple[str, Interval, float]],
    gts: Mapping[str, list[Interval]],
    threshold: float,
) -> tuple[list[bool], int]:
    """Greedy matching of score-sorted predictions against ground truth.

    Each prediction claims its highest-tIoU unmatched segment in the same
    video when that tIoU meets the threshold; tIoU ties go to the segment
    with the earlier start. Returns per-prediction TP flags (prediction
    order preserved) and the ground-truth count.
    """
    npos = sum(len(v) for v in gts.values())
    order = sorted(
        range(len(preds)), key=lambda i: (-preds[i][2], preds[i][1].start_s, preds[i][1].end_s)
    )
    taken: dict[str, list[bool]] = {vid: [False] * len(v) for vid, v in gts.items()}
    flags = [False] * len(preds)
    for i in order:
        vid, iv, _ = preds[i]
        candidates = gts.get(vid, [])
        best_j = -1
        best_t = 0.0
        for j, g in enumerate(candidates):
            if taken[vid][j]:
                continue
            t = span_tiou(iv.start_s, iv.end_s, g.start_s, g.end_s)
            if t > best_t or (t == best_t and best_j >= 0 and g.start_s < candidates[best_j].start_s):
                best_t = t
                best_j = j
        if best_j >= 0 and best_t >= threshold:
            taken[vid][best_j] = True
            flags[i] = True
    return flags, npos


def _interpolated_ap(flags_in_score_order: Sequence[bool], npos: int) -> Fraction:
    """All-point interpolated AP from ordered TP flags, on exact rationals."""
    if npos == 0:
        return Fraction(0)
    precisions: list[Fraction] = []
    recalls: list[Fraction] = []
    tp = 0
    for n, flag in enumerate(flags_in_score_order, start=1):
        if flag:
            tp += 1
        precisions.append(Fraction(tp, n))
        recalls.append(Fraction(tp, npos))
    ap = Fraction(0)
    prev_recall = Fraction(0)
    # sweep from the end so each precision is the max over higher recalls
    best = Fraction(0)
    area: list[tuple[Fraction, Fraction]] = []
    for p, r in zip(reversed(precisions), reversed(recalls)):
        if p > best:
            best = p
        area.append((r, best))
    area.reverse()
    for r, p in area:
        ap += (r - prev_recall) * p
        prev_recall = r
    return ap


def average_precision(
    predictions: Mapping[str, Sequence[Proposal]],
    ground_truth: GroundTruthSet,
    class_id: int,
    threshold: float,
) -> float:
    """AP of one class at one tIoU threshold over the whole corpus."""
    preds = [
        (vid, p.interval, p.score)
        for vid, plist in predictions.items()
        for p in plist
        if p.class_id == class_id
    ]
    gts = {
        vid: [iv for iv, c in items if c == class_id]
        for vid, items in ground_truth.segments.items()
    }
    gts = {vid: items for vid, items in gts.items() if items}
    flags, npos = _match_flags(preds, gts, threshold)
    if npos == 0:
        return 0.0
    order = sorted(
        range(len(preds)), key=lambda i: (-preds[i][2], preds[i][1].start_s, preds[i][1].end_s)
    )
    ordered_flags = [flags[i] for i in order]
    return float(_interpolated_ap(ordered_flags, npos))


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
    per_class = []
    for cid in class_ids:
        aps = tuple(
            average_precision(predictions, ground_truth, cid, t) for t in thresholds
        )
        per_class.append((cid, aps))
    maps = tuple(
        sum(aps[k] for _, aps in per_class) / len(per_class)
        for k in range(len(thresholds))
    )
    return EvalReport(tuple(float(t) for t in thresholds), maps, tuple(per_class))


def _greedy_match_count(
    pseudos: Sequence[tuple[Interval, int]],
    gts: Sequence[tuple[Interval, int]],
    threshold: float,
) -> int:
    """Rank-free greedy matching: repeatedly pair the highest-tIoU
    same-class (pseudo, gt) couple at or above the threshold."""
    pairs = [
        (span_tiou(piv.start_s, piv.end_s, giv.start_s, giv.end_s), i, j)
        for i, (piv, pc) in enumerate(pseudos)
        for j, (giv, gc) in enumerate(gts)
        if pc == gc
    ]
    pairs.sort(key=lambda x: (-x[0], x[1], x[2]))
    used_p: set[int] = set()
    used_g: set[int] = set()
    matched = 0
    for t, i, j in pairs:
        if t < threshold:
            break
        if i in used_p or j in used_g:
            continue
        used_p.add(i)
        used_g.add(j)
        matched += 1
    return matched


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
        vid: [Proposal(p.interval, p.confidence, p.class_id) for p in plist]
        for vid, plist in pseudos_by_video.items()
    }
    report = map_table(as_props, ground_truth, thresholds)
    n_pseudo = sum(len(v) for v in pseudos_by_video.values())
    n_gt = sum(len(v) for v in ground_truth.segments.values())
    precision = []
    recall = []
    for t in thresholds:
        matched = 0
        for vid, items in ground_truth.segments.items():
            plist = [
                (p.interval, p.class_id) for p in pseudos_by_video.get(vid, ())
            ]
            matched += _greedy_match_count(plist, list(items), t)
        precision.append(matched / n_pseudo if n_pseudo else 0.0)
        recall.append(matched / n_gt if n_gt else 0.0)
    return PseudoQuality(report, tuple(precision), tuple(recall))
