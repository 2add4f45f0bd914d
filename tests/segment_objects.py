"""The per-object segment types of the loop oracles, and the conversions
between them and `pseudotal.core.Segments`.

`Interval` is one [start_s, end_s), checked by the package's span rule
`pseudotal.core.check_span`. `Proposal` (an interval, a score and a class)
and `PseudoProposal` (an interval, a class and a nonnegative confidence)
are the values the oracles in `reference_*.py` take and return, one frozen
object per segment. The package carries the same segments as the columns of
one `Segments` per video; a pseudo label's confidence is its score column.
Tests convert with `to_segments` on the way in and `to_proposals`/
`to_pseudos` on the way out, and compare the objects for equality.
`span_tiou` is the oracles' scalar tIoU of two intervals' float endpoints.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from pseudotal.core import Segments, check_span


def span_tiou(a_start: float, a_end: float, b_start: float, b_end: float) -> float:
    """Temporal intersection over union of the intervals [a_start, a_end)
    and [b_start, b_end); 0 when disjoint. The IEEE operations of
    `pseudotal.core.pairwise_tiou` in its order, one pair at a time."""
    inter = min(a_end, b_end) - max(a_start, b_start)
    if inter <= 0.0:
        return 0.0
    union = (a_end - a_start) + (b_end - b_start) - inter
    return inter / union


@dataclass(frozen=True)
class Interval:
    """Temporal interval [start_s, end_s): endpoints finite and at most
    `pseudotal.core.MAX_TIME_S` in magnitude, start_s < end_s."""

    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        check_span(self.start_s, self.end_s)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


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


def segments(*rows: Sequence) -> Segments:
    """The `Segments` of (start_s, end_s, class_id, score) rows, in order."""
    return Segments(*(tuple(zip(*rows)) or ((), (), (), ())))


def to_segments(items: Iterable[Proposal | PseudoProposal]) -> Segments:
    """The columns of proposals or pseudo labels, in order; a pseudo label's
    confidence goes to the score column."""
    return segments(*(
        (x.interval.start_s, x.interval.end_s, x.class_id,
         x.score if isinstance(x, Proposal) else x.confidence)
        for x in items
    ))


def to_proposals(segs: Segments) -> list[Proposal]:
    return [Proposal(Interval(s.start_s, s.end_s), s.score, s.class_id) for s in segs]


def to_pseudos(segs: Segments) -> list[PseudoProposal]:
    return [PseudoProposal(Interval(s.start_s, s.end_s), s.class_id, s.score) for s in segs]


def segments_by_video(
    by_video: Mapping[str, Iterable[Proposal | PseudoProposal]],
) -> dict[str, Segments]:
    return {vid: to_segments(items) for vid, items in by_video.items()}
