"""Weak-branch math: snippet-level fusion, multi-threshold proposal
extraction, outer-inner-contrastive scoring, and soft non-maximum
suppression.

These are pure functions over prediction arrays; no training happens here.
The attention/classification predictions come either from a real extractor
or from the simulator in :mod:`pseudotal.sim`.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    Segments,
    SnippetPredictions,
    TimeGrid,
    class_ids,
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
        vec[class_ids(classes, class_count) - 1] = 1
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
) -> Segments:
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
    classes = class_ids(video_label.classes, grid.class_count)
    column, first, last = threshold_runs(z[:, classes - 1], thresholds)
    dur = grid.snippet_duration_s
    return Segments(first * dur, (last + 1) * dur, classes[column], np.zeros(column.shape[0]))


def oic_scores(
    sps: np.ndarray,
    proposals: Segments,
    grid: TimeGrid,
    inflation: float = 0.25,
) -> np.ndarray:
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
    start, end = proposals.start_s, proposals.end_s
    flank = inflation * (end - start)
    # the centers are sorted, so each bound's "centers >= x" mask is the
    # suffix from its left insertion point: every region is one slice
    bounds = np.searchsorted(
        snippet_centers(grid),
        [np.maximum(start - flank, 0.0), start, end, np.minimum(end + flank, grid.duration_s)],
    ).T.tolist()
    add = np.add.reduce
    out = []
    for c, (left, a, b, right) in zip((proposals.class_id - 1).tolist(), bounds):
        col = rows[c]
        outer = np.concatenate((col[left:a], col[b:right]))
        inner_mean = float(add(col[a:b])) / (b - a) if b > a else 0.0
        outer_mean = float(add(outer)) / outer.size if outer.size else 0.0
        out.append(inner_mean - outer_mean)
    return np.array(out, dtype=np.float64)


def soft_nms(
    proposals: Segments,
    sigma_nms: float = 0.5,
    min_score: float = 0.001,
) -> Segments:
    """Classwise Gaussian soft-NMS of `proposals` by their scores.

    Repeatedly selects the highest-scoring remaining proposal and decays
    every other same-class score by exp(-tiou^2 / sigma_nms). Proposals
    whose decayed score falls below `min_score` are dropped, as is any
    unselected remainder once the running maximum drops below it. Output
    is sorted by final score descending, then by class, start and end;
    intervals and classes are never modified.
    """
    if sigma_nms <= 0:
        raise ValueError("sigma_nms must be positive")
    start, end = proposals.start_s, proposals.end_s
    by_class: dict[int, list[int]] = {}
    for i, class_id in enumerate(proposals.class_id.tolist()):
        by_class.setdefault(class_id, []).append(i)
    groups = [by_class[class_id] for class_id in sorted(by_class)]
    # one (selected, other) entry per same-class pair, a group's block of
    # n * n entries row by row: decay[at + n * k + m] is the factor on the
    # m-th proposal of a group when its k-th is selected
    selected = np.array([i for g in groups for i in g for _ in g], dtype=np.intp)
    other = np.array([i for g in groups for _ in g for i in g], dtype=np.intp)
    overlap = pairwise_tiou(start[other], end[other], start[selected], end[selected])
    decay = np.exp(-(overlap**2) / sigma_nms).tolist()
    starts, ends, scores = start.tolist(), end.tolist(), proposals.score.tolist()
    kept: list[int] = []
    kept_scores: list[float] = []
    at = 0
    for g in groups:
        n = len(g)
        # [-score, start, end, index, k]: the smallest is the highest current
        # score, ties broken by earliest interval, then by input order
        alive = [[-scores[i], starts[i], ends[i], i, k] for k, i in enumerate(g)]
        while alive:
            best = min(alive)
            score = -best[0]
            if score < min_score:
                break
            kept.append(best[3])
            kept_scores.append(score)
            alive.remove(best)
            row = at + n * best[4]
            for entry in alive:
                entry[0] *= decay[row + entry[4]]
            alive = [entry for entry in alive if -entry[0] >= min_score]
        at += n * n
    kept_at = np.array(kept, dtype=np.intp)
    out = Segments(start[kept_at], end[kept_at], proposals.class_id[kept_at], kept_scores)
    return out.select(np.lexsort((out.end_s, out.start_s, out.class_id, -out.score)))


def weak_proposals(
    preds: SnippetPredictions,
    grid: TimeGrid,
    label: VideoLabel,
    thresholds: Sequence[float],
    oic_inflation: float = 0.25,
    sigma_nms: float = 0.5,
    min_score: float = 0.001,
    extract_on: str = "sps",
) -> Segments:
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
    scored = dataclasses.replace(raw, score=oic_scores(z, raw, grid, oic_inflation))
    return soft_nms(scored, sigma_nms=sigma_nms, min_score=min_score)
