"""Temporal grid, scored segments, and the shared primitives.

Everything downstream (extraction, fusion, masking, target building,
evaluation) works on these types and on the one implementation of each
primitive here: temporal IoU (`pairwise_tiou`; `gauss` repeats its IEEE
operations one pair at a time, measured faster there), the intersecting
same-key pairs of intervals (one join, `overlap_pairs`, within one set or
across two), equal-value runs (of one array, of True in every row of a mask,
and above every threshold of many columns at once), snippet centers, and the
cover rule: which segment, first in some order, holds each time, and the
rules of one segment row (its span's and its class id's); also `shown`,
the bounded repr that refusal messages show a value by. The scored
segments of one video, proposals and pseudo labels alike, travel between
the stages as one `Segments` value: four read-only columns, checked once in
its constructor. A corpus's ground truth, which gives the weak branch its
video labels, the simulator its layouts and evaluation its targets, is one
`GroundTruthSet`: one `Segments` per video, scores 1.0 and unread. Public
boundaries are expressed in seconds; snippet indices appear only when
converting to or from a grid. All types are immutable after construction
and all functions are pure.
"""
from __future__ import annotations

import math
import reprlib
import sys
from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "TimeGrid",
    "Segment",
    "Segments",
    "GroundTruthSet",
    "SnippetPredictions",
    "check_distribution_rows",
    "pairwise_tiou",
    "overlap_pairs",
    "runs",
    "true_runs",
    "threshold_runs",
    "snippet_centers",
    "first_cover",
    "check_span",
    "check_class_id",
    "class_ids",
    "shown",
]


# The most cells T * (C + 1) a grid may have. A video's (T, C + 1) float64
# score matrix is then at most 128 MiB, and its largest per-video array, the
# (C + 1) x thresholds x (T + 2) int8 run table of `threshold_runs`, about
# 272 MiB on the default 17-threshold ladder. A slim grid row can name any
# size, so a huge one is refused here, before any subcommand allocates for it.
MAX_GRID_CELLS = 2**24

MAX_CLASS_ID = 2**63 - 1  # class ids are int64

# The largest time, in seconds (about 32 million years), that a grid's extent
# or a segment's endpoint may reach in magnitude. Every stage then computes
# with times, their sums and their differences far below the float range:
# no extent, tIoU or anchor layout overflows.
MAX_TIME_S = 1e15
_TIME_BOUND = f"interval endpoints must lie in [-{MAX_TIME_S:g}, {MAX_TIME_S:g}] s"
_NOT_FINITE = "interval endpoints must be finite"
_NOT_ORDERED = "interval requires start_s < end_s"


@dataclass(frozen=True)
class TimeGrid:
    """Uniform snippet grid of a single video.

    num_snippets: number of temporal snippets (T).
    snippet_duration_s: seconds covered by one snippet.
    class_count: number of foreground action classes (C).
    num_snippets * (class_count + 1) is at most MAX_GRID_CELLS, and the
    extent num_snippets * snippet_duration_s at most MAX_TIME_S.
    """

    num_snippets: int
    snippet_duration_s: float
    class_count: int

    def __post_init__(self) -> None:
        if self.num_snippets < 1:
            raise ValueError("num_snippets must be >= 1")
        if not 0 < self.snippet_duration_s <= sys.float_info.max:
            raise ValueError("snippet_duration_s must be a positive finite real")
        if self.class_count < 1:
            raise ValueError("class_count must be >= 1")
        if self.num_snippets * (self.class_count + 1) > MAX_GRID_CELLS:
            raise ValueError(
                f"num_snippets * (class_count + 1) must be at most {MAX_GRID_CELLS}, got "
                f"{shown(self.num_snippets)} * ({shown(self.class_count)} + 1)"
            )
        if not self.duration_s <= MAX_TIME_S:
            # shown as a float: an int duration's exact extent may pass the float range
            extent = self.num_snippets * float(self.snippet_duration_s)
            raise ValueError("num_snippets * snippet_duration_s must be at most "
                             f"{MAX_TIME_S:g} s, got {extent:g}")

    @property
    def duration_s(self) -> float:
        """Total video extent in seconds."""
        return self.num_snippets * self.snippet_duration_s


class Segment(NamedTuple):
    """One row of `Segments`, as Python scalars."""

    start_s: float
    end_s: float
    class_id: int
    score: float


@dataclass(frozen=True, eq=False)
class Segments:
    """Scored class-specific temporal segments of one video, as columns.

    start_s, end_s, score: float64; class_id: int64. Every column is 1-D
    and read-only, all of one length; values are finite, endpoints at most
    MAX_TIME_S in magnitude, start_s < end_s and class_id are `class_ids`.
    A proposal's score is its detection score, a pseudo label's its
    confidence. Iterating yields the rows as `Segment`s.
    """

    start_s: np.ndarray
    end_s: np.ndarray
    class_id: np.ndarray
    score: np.ndarray

    def __post_init__(self) -> None:
        start = np.asarray(self.start_s, dtype=np.float64)
        end = np.asarray(self.end_s, dtype=np.float64)
        score = np.asarray(self.score, dtype=np.float64)
        columns = (start, end, class_ids(self.class_id), score)
        if any(c.ndim != 1 or c.shape != start.shape for c in columns):
            raise ValueError("segment columns must be 1-D and of one length")
        if not ((np.abs(start) <= MAX_TIME_S).all() and (np.abs(end) <= MAX_TIME_S).all()):
            finite = np.isfinite(start).all() and np.isfinite(end).all()
            raise ValueError(_TIME_BOUND if finite else _NOT_FINITE)
        if not (start < end).all():
            raise ValueError(_NOT_ORDERED)
        if not np.isfinite(score).all():
            raise ValueError("score must be finite")
        for name, column in zip(("start_s", "end_s", "class_id", "score"), columns):
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return int(self.start_s.shape[0])

    def __iter__(self) -> Iterator[Segment]:
        rows = zip(self.start_s.tolist(), self.end_s.tolist(), self.class_id.tolist(),
                   self.score.tolist())
        return map(Segment._make, rows)


@dataclass(frozen=True, eq=False)
class GroundTruthSet:
    """Ground truth of a corpus: video_id -> one `Segments` of the video's
    segments, checked by its constructor. The scores are 1.0 and no stage
    reads them. `segments` gives the rows as (Segment, class_id) pairs for
    bench/tracing.py alone."""

    videos: Mapping[str, Segments]

    def __post_init__(self) -> None:
        if not all(isinstance(segs, Segments) for segs in self.videos.values()):
            raise TypeError("ground-truth videos must be Segments")
        object.__setattr__(self, "videos", {str(vid): segs for vid, segs in self.videos.items()})

    @property
    def class_ids(self) -> list[int]:
        return sorted({c for segs in self.videos.values() for c in segs.class_id.tolist()})

    @property
    def segments(self) -> dict[str, tuple[tuple[Segment, int], ...]]:
        return {vid: tuple((row, row.class_id) for row in segs)
                for vid, segs in self.videos.items()}


@dataclass(frozen=True, eq=False)
class SnippetPredictions:
    """Per-video snippet outputs of an attention + classification branch.

    attention: (T,) class-agnostic foreground attention in [0, 1].
    class_scores: (T, C+1) per-snippet class distribution; the last
        column is the background class, entries are nonnegative and each
        row sums to one.
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
        check_distribution_rows(cls, "class_scores")
        att.setflags(write=False)
        cls.setflags(write=False)
        object.__setattr__(self, "attention", att)
        object.__setattr__(self, "class_scores", cls)


def check_distribution_rows(rows: np.ndarray, name: str) -> None:
    """Class-distribution rows: entries nonnegative, then rows sum to 1 within 1e-6."""
    if np.any(rows < 0):
        raise ValueError(f"{name} entries must be nonnegative")
    if np.any(np.abs(rows.sum(axis=1) - 1.0) > 1e-6):
        raise ValueError(f"{name} rows must sum to 1 within 1e-6")


def pairwise_tiou(
    a_start: np.ndarray, a_end: np.ndarray, b_start: np.ndarray, b_end: np.ndarray
) -> np.ndarray:
    """Elementwise temporal intersection over union of the intervals [a_start,
    a_end) and [b_start, b_end) (broadcast), as float64; 0 where they do not
    intersect. Symmetric bit for bit; integer endpoints work too."""
    inter = np.minimum(a_end, b_end) - np.maximum(a_start, b_start)
    union = (a_end - a_start) + (b_end - b_start) - inter
    out = np.zeros(np.shape(inter), dtype=np.float64)
    np.divide(inter, union, out=out, where=inter > 0)
    return out


def overlap_pairs(
    key: np.ndarray, start: np.ndarray, end: np.ndarray,
    other: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The intersecting same-key partners of each of n intervals [start, end),
    start < end, among the (key, start, end) intervals of `other`, or among
    each other (none its own partner) if `other` is None: int64 offsets `at`
    (n + 1), `partner` and float64 `tiou`. Interval i's partners, ascending,
    are `partner[at[i]:at[i + 1]]`, and `tiou` their `pairwise_tiou` with it.
    Two same-key intervals intersect when the second starts in [start, end)
    of the first, or else the first in (start, end) of the second: two sorted
    sweeps, O(n log n + pairs) time and O(n + pairs) memory."""
    key2, start2, end2 = (key, start, end) if other is None else other
    keys = np.concatenate((key, key2))
    rank = np.sort(keys).searchsorted(keys)  # exact for any int64 key
    lo, hi = start * 1j + rank[:len(key)], end * 1j + rank[:len(key)]
    lo2, hi2 = (lo, hi) if other is None else (t * 1j + rank[len(key):] for t in (start2, end2))
    first, second = (np.concatenate(ends) for ends in zip(
        _starts_within(lo2, lo, hi, "left"), _starts_within(lo, lo2, hi2, "right")[::-1]))
    if other is None:
        first, second = first[first != second], second[first != second]
    by = np.lexsort((second, first))
    first, second = first[by], second[by]
    at = first.searchsorted(np.arange(len(start) + 1))
    return at, second, pairwise_tiou(start[first], end[first], start2[second], end2[second])


def _starts_within(starts, lo, hi, side):
    """Every (i, j) with starts[j] in [lo[i], hi[i]) (side "left") or (lo[i],
    hi[i]) ("right"): (rank, time) complex numbers, ordered lexicographically."""
    order = starts.argsort()
    first, last = starts[order].searchsorted(lo, side), starts[order].searchsorted(hi)
    count = last - first
    owner = np.arange(len(lo)).repeat(count)
    return owner, order[np.arange(owner.size) - (count.cumsum() - last).repeat(count)]


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


def true_runs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every maximal run of True in each row of a 2-D boolean array, as int64
    arrays (row, first, last) with inclusive `first`/`last`, in row order and
    then in order along the row."""
    n, t = rows.shape
    padded = np.zeros((n, t + 2), dtype=bool)
    padded[:, 1:-1] = rows
    # t + 1 steps per row; a run steps up at its first entry and down one
    # past its last, so the flat step positions alternate start, end
    steps = np.flatnonzero(padded[:, 1:] != padded[:, :-1])
    row, first = np.divmod(steps[0::2], t + 1)
    return row, first, steps[1::2] % (t + 1) - 1


def threshold_runs(
    columns: np.ndarray, thresholds: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every maximal run of entries at or above any of `thresholds` in each
    column of a (T, n) array, as int64 arrays (column, first, last) with
    inclusive `first`/`last`. A run found at several thresholds appears
    once; the triples are sorted."""
    cols = np.asarray(columns)
    t = cols.shape[0]
    above = cols.T[:, None, :] >= np.asarray(thresholds)[:, None]
    row, first, last = true_runs(above.reshape(-1, t))
    # (column, first, last) in one integer that sorts like the triple; sort
    # and drop repeats (np.unique would import numpy.ma on first use)
    key = np.sort((row // len(thresholds) * t + first) * t + last)
    new = np.ones(key.shape[0], dtype=bool)
    new[1:] = key[1:] != key[:-1]
    key = key[new]
    return key // (t * t), key // t % t, key % t


def snippet_centers(grid: TimeGrid) -> np.ndarray:
    """Center times (seconds) of every snippet on the grid."""
    dur = grid.snippet_duration_s
    return (np.arange(grid.num_snippets, dtype=np.float64) + 0.5) * dur


def first_cover(
    times: np.ndarray, start: np.ndarray, end: np.ndarray, order: np.ndarray
) -> np.ndarray:
    """For each of the ascending `times`, the index of the first segment in
    `order` whose [start, end) holds it, or -1 where none does (int64).

    A segment holds one contiguous range of ascending times, which
    `np.searchsorted` finds exactly; the ranges are painted in reverse
    `order`, so the first segment ends on top. A segment with start >= end
    holds no time.
    """
    owner = np.full(np.shape(times), -1, dtype=np.int64)
    order = np.asarray(order, dtype=np.int64)
    lo, hi = np.searchsorted(times, [start[order], end[order]]).tolist()
    for k, a, b in zip(order.tolist()[::-1], lo[::-1], hi[::-1]):
        owner[a:b] = k
    return owner


def check_span(start: float, end: float) -> None:
    """One interval [start, end) by the endpoint rule of `Segments`, with its
    messages: endpoints finite and at most MAX_TIME_S in magnitude, then
    start < end. Plain Python, for a file's rows one at a time."""
    if not (abs(start) <= MAX_TIME_S and abs(end) <= MAX_TIME_S):
        finite = abs(start) < math.inf and abs(end) < math.inf  # an int stays an int
        raise ValueError(_TIME_BOUND if finite else _NOT_FINITE)
    if not start < end:
        raise ValueError(_NOT_ORDERED)


def check_class_id(c, class_count: int | None = None) -> int:
    """One value by the class-id rule: `c` as an int if an integer, no bool, in
    [1, MAX_CLASS_ID] and at most `class_count` if given, else ValueError."""
    whole = isinstance(c, (int, np.integer)) and not isinstance(c, bool)
    if not (whole and 1 <= int(c) <= MAX_CLASS_ID):
        text = shown(c) if isinstance(c, int) else c  # an int past repr's digit limit
        raise ValueError(f"class_id {text} is not an int64 integer >= 1")
    if class_count is not None and int(c) > class_count:
        raise ValueError(f"class_id {c} lies outside the {class_count} classes of its grid")
    return int(c)


def class_ids(values, class_count: int | None = None) -> np.ndarray:
    """`values` (array or list) as int64 ids by `check_class_id`, naming the
    first bad value; one reduction on an int64 array when no class count is given."""
    ids = np.asarray(values)
    if isinstance(values, np.ndarray) and ids.dtype.kind in "iu":
        top = MAX_CLASS_ID if class_count is None else class_count
        if not ids.size or ids.min() >= 1 and (
                ids.dtype == np.int64 and class_count is None or int(ids.max()) <= top):
            return ids.astype(np.int64, copy=False)
    items = list(values) if isinstance(values, (list, tuple)) else ids.ravel().tolist()
    return np.array([check_class_id(c, class_count) for c in items],
                    dtype=np.int64).reshape(ids.shape)


def shown(value) -> str:
    """A bounded repr of `value`, a tuple as its JSON list, even past `repr`'s digit limit."""
    try:
        return reprlib.repr(list(value) if isinstance(value, tuple) else value)
    except ValueError:
        what = "an integer" if isinstance(value, int) else "a list holding an integer"
        return f"<{what} of more than {sys.get_int_max_str_digits()} digits>"
