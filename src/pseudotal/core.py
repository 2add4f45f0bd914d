"""Temporal grid, intervals, proposal types, and the shared primitives.

Everything downstream (extraction, fusion, masking, target building,
evaluation) works on these types and on the one implementation of each
primitive here: temporal IoU (scalar and elementwise), equal-value runs
(of one array, and above every threshold of many columns at once), and
snippet centers. Public boundaries are expressed in seconds; snippet
indices appear only when converting to or from a grid. All types are
immutable after construction and all functions are pure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "TimeGrid",
    "Interval",
    "Proposal",
    "PseudoProposal",
    "SnippetPredictions",
    "tiou",
    "pairwise_tiou",
    "runs",
    "threshold_runs",
    "snippet_centers",
]


# The most cells T * (C + 1) a grid may have. A video's (T, C + 1) float64
# score matrix is then at most 128 MiB, and its largest per-video array, the
# (C + 1) x thresholds x (T + 2) int8 run table of `threshold_runs`, about
# 272 MiB on the default 17-threshold ladder. A slim grid row can name any
# size, so a huge one is refused here, before any subcommand allocates for it.
MAX_GRID_CELLS = 2**24


@dataclass(frozen=True)
class TimeGrid:
    """Uniform snippet grid of a single video.

    num_snippets: number of temporal snippets (T).
    snippet_duration_s: seconds covered by one snippet.
    class_count: number of foreground action classes (C).
    num_snippets * (class_count + 1) is at most MAX_GRID_CELLS.
    """

    num_snippets: int
    snippet_duration_s: float
    class_count: int

    def __post_init__(self) -> None:
        if self.num_snippets < 1:
            raise ValueError("num_snippets must be >= 1")
        if not (math.isfinite(self.snippet_duration_s) and self.snippet_duration_s > 0):
            raise ValueError("snippet_duration_s must be a positive finite real")
        if self.class_count < 1:
            raise ValueError("class_count must be >= 1")
        if self.num_snippets * (self.class_count + 1) > MAX_GRID_CELLS:
            raise ValueError(
                f"num_snippets * (class_count + 1) must be at most {MAX_GRID_CELLS}, got "
                f"{self.num_snippets} * ({self.class_count} + 1)"
            )

    @property
    def duration_s(self) -> float:
        """Total video extent in seconds."""
        return self.num_snippets * self.snippet_duration_s


@dataclass(frozen=True, order=True)
class Interval:
    """Half-open-by-convention temporal interval [start_s, end_s), start < end."""

    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.start_s) and math.isfinite(self.end_s)):
            raise ValueError("interval endpoints must be finite")
        if not self.start_s < self.end_s:
            raise ValueError("interval requires start_s < end_s")

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def midpoint_s(self) -> float:
        return 0.5 * (self.start_s + self.end_s)


@dataclass(frozen=True)
class Proposal:
    """A scored class-specific temporal detection."""

    interval: Interval
    score: float
    class_id: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.score):
            raise ValueError("proposal score must be finite")
        if self.class_id < 1:
            raise ValueError("class_id must be >= 1")

    def as_pseudo(self) -> "PseudoProposal":
        """The pseudo label over this interval and class; confidence is the
        score, floored at 0."""
        return PseudoProposal(self.interval, self.class_id, max(self.score, 0.0))


@dataclass(frozen=True)
class PseudoProposal:
    """A fused segment used as a training label, with a confidence weight."""

    interval: Interval
    class_id: int
    confidence: float

    def __post_init__(self) -> None:
        if self.class_id < 1:
            raise ValueError("class_id must be >= 1")
        if not (math.isfinite(self.confidence) and self.confidence >= 0.0):
            raise ValueError("confidence must be finite and >= 0")

    def as_proposal(self) -> Proposal:
        return Proposal(self.interval, self.confidence, self.class_id)


@dataclass(frozen=True, eq=False)
class SnippetPredictions:
    """Per-video snippet outputs of an attention + classification branch.

    attention: (T,) class-agnostic foreground attention in [0, 1].
    class_scores: (T, C+1) per-snippet class distribution; the last
        column is the background class and each row sums to one.
    """

    attention: np.ndarray
    class_scores: np.ndarray

    def __post_init__(self) -> None:
        att = np.asarray(self.attention, dtype=np.float64)
        cls = np.asarray(self.class_scores, dtype=np.float64)
        if att.ndim != 1:
            raise ValueError("attention must be one-dimensional")
        if cls.ndim != 2 or cls.shape[0] != att.shape[0]:
            raise ValueError("class_scores must be (T, C+1) with T matching attention")
        if cls.shape[1] < 2:
            raise ValueError("class_scores needs at least one foreground column plus background")
        if not (np.isfinite(att).all() and np.isfinite(cls).all()):
            raise ValueError("attention and class_scores must be finite")
        if att.size and (att.min() < -1e-9 or att.max() > 1 + 1e-9):
            raise ValueError("attention values must lie in [0, 1]")
        row_sums = cls.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > 1e-6):
            raise ValueError("class_scores rows must sum to 1 within 1e-6")
        att.setflags(write=False)
        cls.setflags(write=False)
        object.__setattr__(self, "attention", att)
        object.__setattr__(self, "class_scores", cls)

    @property
    def num_snippets(self) -> int:
        return int(self.attention.shape[0])

    @property
    def class_count(self) -> int:
        return int(self.class_scores.shape[1]) - 1


def tiou(a: Interval, b: Interval) -> float:
    """Temporal intersection over union of two intervals; 0 when disjoint."""
    inter = min(a.end_s, b.end_s) - max(a.start_s, b.start_s)
    if inter <= 0.0:
        return 0.0
    union = a.duration_s + b.duration_s - inter
    return inter / union


def pairwise_tiou(
    a_start: np.ndarray, a_end: np.ndarray, b_start: np.ndarray, b_end: np.ndarray
) -> np.ndarray:
    """Elementwise `tiou` of intervals a and b (broadcast), as float64.

    The same IEEE operations in the same order as `tiou`, so every value is
    bit-identical to it; integer endpoints work too.
    """
    inter = np.minimum(a_end, b_end) - np.maximum(a_start, b_start)
    union = (a_end - a_start) + (b_end - b_start) - inter
    out = np.zeros(np.shape(inter), dtype=np.float64)
    np.divide(inter, union, out=out, where=inter > 0)
    return out


def runs(values: np.ndarray) -> list[tuple[int, int, object]]:
    """Maximal runs of equal values of a 1-D array as inclusive
    (first, last, value) triples, in order; the value is a Python scalar."""
    v = np.asarray(values)
    if v.size == 0:
        return []
    lasts = np.flatnonzero(v[1:] != v[:-1]).tolist()
    lasts.append(v.size - 1)
    items = v.tolist()
    out, first = [], 0
    for last in lasts:
        out.append((first, last, items[first]))
        first = last + 1
    return out


def threshold_runs(
    columns: np.ndarray, thresholds: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every maximal run of entries at or above any of `thresholds` in each
    column of a (T, n) array, as int64 arrays (column, first, last) with
    inclusive `first`/`last`. A run found at several thresholds appears
    once; the triples are sorted."""
    cols = np.asarray(columns)
    t, width = cols.shape[0], cols.shape[0] + 1
    above = np.zeros((cols.shape[1], len(thresholds), t + 2), dtype=np.int8)
    above[:, :, 1:-1] = cols.T[:, None, :] >= np.asarray(thresholds)[:, None]
    # one row of `width` steps per (column, threshold): +1 at a run's first
    # entry, -1 one past its last. Flat indices come out run by run, so the
    # i-th start pairs with the i-th end.
    step = np.diff(above, axis=2).ravel()
    starts = np.flatnonzero(step == 1)
    column, first = starts // (len(thresholds) * width), starts % width
    last = np.flatnonzero(step == -1) % width - 1
    # (column, first, last) in one integer that sorts like the triple; sort
    # and drop repeats (np.unique would import numpy.ma on first use)
    key = np.sort((column * t + first) * t + last)
    key = key[np.diff(key, prepend=-1) != 0]
    return key // (t * t), key // t % t, key % t


def snippet_centers(grid: TimeGrid) -> np.ndarray:
    """Center times (seconds) of every snippet on the grid."""
    dur = grid.snippet_duration_s
    return (np.arange(grid.num_snippets, dtype=np.float64) + 0.5) * dur
