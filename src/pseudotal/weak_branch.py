"""Weak-branch math: snippet-level fusion, multi-threshold proposal
extraction, outer-inner-contrastive scoring, and soft non-maximum
suppression.

These are pure functions over prediction arrays; no training happens here.
The attention/classification predictions come either from a real extractor
or from the simulator in :mod:`pseudotal.sim`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    Interval,
    Proposal,
    SnippetPredictions,
    TimeGrid,
    pairwise_tiou,
    snippet_centers,
    threshold_runs,
)

__all__ = [
    "VideoLabel",
    "compute_sps",
    "extract_proposals",
    "oic_scores",
    "soft_nms",
    "weak_proposals",
]


@dataclass(frozen=True, eq=False)
class VideoLabel:
    """Multi-hot video-level label over the C foreground classes."""

    onehot: np.ndarray

    def __post_init__(self) -> None:
        vec = np.asarray(self.onehot, dtype=np.int64)
        if vec.ndim != 1 or not np.all((vec == 0) | (vec == 1)):
            raise ValueError("onehot must be a binary vector")
        if vec.sum() < 1:
            raise ValueError("video label requires at least one positive class")
        vec.setflags(write=False)
        object.__setattr__(self, "onehot", vec)

    @classmethod
    def from_classes(cls, classes: Sequence[int], class_count: int) -> "VideoLabel":
        vec = np.zeros(class_count, dtype=np.int64)
        for c in classes:
            if not 1 <= c <= class_count:
                raise ValueError("class_id out of range for video label")
            vec[c - 1] = 1
        return cls(vec)

    @property
    def classes(self) -> list[int]:
        """Present foreground classes as 1-based ids."""
        return [int(i) + 1 for i in np.flatnonzero(self.onehot)]


def compute_sps(attention: np.ndarray, class_scores: np.ndarray) -> np.ndarray:
    """Attention-suppressed snippet-level predictions: Z[t, c] = attention[t] * scores[t, c]."""
    att = np.asarray(attention, dtype=np.float64)
    cls = np.asarray(class_scores, dtype=np.float64)
    if att.ndim != 1 or cls.ndim != 2 or cls.shape[0] != att.shape[0]:
        raise ValueError("attention and class_scores shapes disagree")
    return att[:, None] * cls


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
    are deduplicated; proposals come sorted by (class, first, last).
    Scores are left at 0 and assigned by `oic_scores`.
    """
    if len(thresholds) == 0:
        raise ValueError("thresholds must be nonempty")
    for th in thresholds:
        if not 0.0 < th < 1.0:
            raise ValueError("thresholds must lie in (0, 1)")
    z = np.asarray(sps, dtype=np.float64)
    if z.shape[0] != grid.num_snippets or z.shape[1] != grid.class_count + 1:
        raise ValueError("SP matrix shape disagrees with grid")
    classes = video_label.classes
    if classes[-1] > grid.class_count:
        raise ValueError("video label class out of grid range")
    column, first, last = threshold_runs(z[:, [c - 1 for c in classes]], thresholds)
    dur = grid.snippet_duration_s
    return [
        Proposal(Interval(f * dur, (l + 1) * dur), 0.0, classes[c])
        for c, f, l in zip(column.tolist(), first.tolist(), last.tolist())
    ]


def oic_scores(
    sps: np.ndarray,
    proposals: Sequence[Proposal],
    grid: TimeGrid,
    inflation: float = 0.25,
) -> list[float]:
    """Outer-inner contrast of every proposal on the SP column of its class:
    the inner mean minus the mean over the flanking regions.

    Flanks extend `inflation * duration` seconds on each side, clipped to
    the video extent. Snippet membership is decided by the snippet center.
    If both flanks clip away entirely the outer mean is taken as 0.
    """
    if not 0.0 < inflation <= 1.0:
        raise ValueError("inflation must lie in (0, 1]")
    z = np.asarray(sps, dtype=np.float64)
    if z.shape[0] != grid.num_snippets:
        raise ValueError("SP column length disagrees with grid")
    rows = np.ascontiguousarray(z.T)  # contiguous class columns
    start = np.array([p.interval.start_s for p in proposals], dtype=np.float64)
    end = np.array([p.interval.end_s for p in proposals], dtype=np.float64)
    flank = inflation * (end - start)
    # the centers are sorted, so each bound's "centers >= x" mask is the
    # suffix from its left insertion point: every region is one slice
    bounds = np.searchsorted(
        snippet_centers(grid),
        [np.maximum(start - flank, 0.0), start, end, np.minimum(end + flank, grid.duration_s)],
    ).T.tolist()
    out = []
    for p, (left, a, b, right) in zip(proposals, bounds):
        col = rows[p.class_id - 1]
        inner = col[a:b]
        outer = np.concatenate((col[left:a], col[b:right]))
        inner_mean = float(inner.sum()) / inner.size if inner.size else 0.0
        outer_mean = float(outer.sum()) / outer.size if outer.size else 0.0
        out.append(inner_mean - outer_mean)
    return out


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
        # decay[j][i]: the factor on proposal i when proposal j is selected
        overlap = pairwise_tiou(starts, ends, starts[:, None], ends[:, None])
        decay = np.exp(-(overlap**2) / sigma_nms).tolist()
        # [-score, start, end, index]: the smallest is the highest current
        # score, ties broken by earliest interval, then by input order
        alive = [
            [neg, start, end, i]
            for i, (neg, start, end) in enumerate(
                zip((-scores).tolist(), starts.tolist(), ends.tolist())
            )
        ]
        while alive:
            best = min(alive)
            score = -best[0]
            if score < min_score:
                break
            out.append(Proposal(group[best[3]].interval, score, class_id))
            alive.remove(best)
            row = decay[best[3]]
            for entry in alive:
                entry[0] *= row[entry[3]]
            alive = [entry for entry in alive if -entry[0] >= min_score]
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
    scores = oic_scores(z, raw, grid, oic_inflation)
    scored = [Proposal(p.interval, s, p.class_id) for p, s in zip(raw, scores)]
    return soft_nms(scored, sigma_nms=sigma_nms, min_score=min_score)
