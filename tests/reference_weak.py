"""The original weak-branch post-processing, kept as the oracle for `pseudotal.weak_branch`.

Run extraction calls `core.runs` once per labelled class and threshold,
`oic_score` builds four boolean masks over every snippet per proposal, and
soft-NMS picks each survivor with a `min(key=lambda)` over numpy scalars.
Tests compare the package's proposals, scores and order against these
functions for exact equality; it is not used by the package.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from pseudotal.core import (
    Interval,
    Proposal,
    SnippetPredictions,
    TimeGrid,
    pairwise_tiou,
    runs,
    snippet_centers,
)
from pseudotal.weak_branch import VideoLabel, compute_sps


def extract_proposals(
    sps: np.ndarray,
    grid: TimeGrid,
    thresholds: Sequence[float],
    video_label: VideoLabel,
) -> list[Proposal]:
    """Multi-threshold run extraction over the foreground SP channels.

    For every class present in the video label and every threshold, each
    maximal contiguous run of snippets at or above the threshold becomes a
    proposal. Identical (class, run) pairs produced by different thresholds
    are deduplicated. Scores are left at 0 and assigned by `oic_score`.
    """
    if len(thresholds) == 0:
        raise ValueError("thresholds must be nonempty")
    for th in thresholds:
        if not 0.0 < th < 1.0:
            raise ValueError("thresholds must lie in (0, 1)")
    z = np.asarray(sps, dtype=np.float64)
    if z.shape[0] != grid.num_snippets or z.shape[1] != grid.class_count + 1:
        raise ValueError("SP matrix shape disagrees with grid")
    dur = grid.snippet_duration_s
    seen: set[tuple[int, int, int]] = set()
    for class_id in video_label.classes:
        if class_id > grid.class_count:
            raise ValueError("video label class out of grid range")
        col = z[:, class_id - 1]
        for th in thresholds:
            for first, last, above in runs(col >= th):
                if above:
                    seen.add((class_id, first, last))
    out = [
        Proposal(Interval(first * dur, (last + 1) * dur), 0.0, class_id)
        for class_id, first, last in sorted(seen)
    ]
    return out


def oic_score(
    sps_column: np.ndarray,
    proposal: Interval,
    grid: TimeGrid,
    inflation: float = 0.25,
) -> float:
    """Outer-inner contrast: inner mean minus the mean over flanking regions.

    Flanks extend `inflation * duration` seconds on each side, clipped to
    the video extent. Snippet membership is decided by the snippet center.
    If both flanks clip away entirely the outer mean is taken as 0.
    """
    if not 0.0 < inflation <= 1.0:
        raise ValueError("inflation must lie in (0, 1]")
    col = np.asarray(sps_column, dtype=np.float64)
    if col.shape[0] != grid.num_snippets:
        raise ValueError("SP column length disagrees with grid")
    centers = snippet_centers(grid)
    inner = (centers >= proposal.start_s) & (centers < proposal.end_s)
    flank = inflation * proposal.duration_s
    left_lo = max(proposal.start_s - flank, 0.0)
    right_hi = min(proposal.end_s + flank, grid.duration_s)
    outer = ((centers >= left_lo) & (centers < proposal.start_s)) | (
        (centers >= proposal.end_s) & (centers < right_hi)
    )
    inner_mean = float(col[inner].mean()) if inner.any() else 0.0
    outer_mean = float(col[outer].mean()) if outer.any() else 0.0
    return inner_mean - outer_mean


def soft_nms(
    proposals: Sequence[Proposal],
    sigma_nms: float = 0.5,
    min_score: float = 0.001,
) -> list[Proposal]:
    """Classwise Gaussian soft-NMS.

    Repeatedly selects the highest-scoring remaining proposal and decays
    every other same-class score by exp(-tiou^2 / sigma_nms). Proposals
    whose decayed score falls below `min_score` are dropped, as is any
    unselected remainder once the running maximum drops below it. Output
    is sorted by final score descending; intervals and classes are never
    modified.
    """
    if sigma_nms <= 0:
        raise ValueError("sigma_nms must be positive")
    out: list[Proposal] = []
    by_class: dict[int, list[Proposal]] = {}
    for p in proposals:
        by_class.setdefault(p.class_id, []).append(p)
    for class_id in sorted(by_class):
        group = by_class[class_id]
        starts = np.array([p.interval.start_s for p in group])
        ends = np.array([p.interval.end_s for p in group])
        scores = np.array([p.score for p in group], dtype=np.float64)
        alive = np.ones(len(group), dtype=bool)
        while alive.any():
            idxs = np.flatnonzero(alive)
            # highest current score; ties broken by earliest interval
            best = min(idxs, key=lambda i: (-scores[i], starts[i], ends[i]))
            if scores[best] < min_score:
                break
            out.append(Proposal(group[best].interval, float(scores[best]), class_id))
            alive[best] = False
            rest = np.flatnonzero(alive)
            if rest.size == 0:
                break
            overlap = pairwise_tiou(starts[rest], ends[rest], starts[best], ends[best])
            scores[rest] = scores[rest] * np.exp(-(overlap**2) / sigma_nms)
            alive[rest[scores[rest] < min_score]] = False
    out.sort(key=lambda p: (-p.score, p.class_id, p.interval.start_s, p.interval.end_s))
    return out


def weak_proposals(
    preds: SnippetPredictions,
    grid: TimeGrid,
    label: VideoLabel,
    thresholds: Sequence[float],
    oic_inflation: float = 0.25,
    sigma_nms: float = 0.5,
    min_score: float = 0.001,
    extract_on: str = "sps",
) -> list[Proposal]:
    """Full weak-branch post-processing: extract, score, suppress.

    `extract_on` selects the thresholded signal: "sps" thresholds the
    attention-suppressed class scores, "attention" thresholds the raw
    attention track (the same runs for every labelled class, later
    separated by their per-class contrast scores).
    """
    z = compute_sps(preds.attention, preds.class_scores)
    if extract_on == "sps":
        source = z
    elif extract_on == "attention":
        source = np.repeat(preds.attention[:, None], grid.class_count + 1, axis=1)
    else:
        raise ValueError("extract_on must be 'sps' or 'attention'")
    raw = extract_proposals(source, grid, thresholds, label)
    scored = [
        Proposal(
            p.interval,
            oic_score(z[:, p.class_id - 1], p.interval, grid, oic_inflation),
            p.class_id,
        )
        for p in raw
    ]
    return soft_nms(scored, sigma_nms=sigma_nms, min_score=min_score)
