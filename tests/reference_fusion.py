"""The original per-proposal fusion loops, kept as the oracle for `pseudotal.fusion`.

`fuse_ricker` adds one proposal's wavelet into its class column at a time,
`segments_from_wavelet` walks the runs of one class column at a time with
`core.runs`, `_fuse_hard` paints the coverage mask of one proposal at a
time in score order, and `_fuse_gauss` rebuilds a scalar `span_tiou` against
the group leader for every remaining proposal. Tests compare the package's
wavelets and pseudo labels against these functions for exact equality; it
is not used by the package.
"""
from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from pseudotal.core import Interval, TimeGrid, runs, snippet_centers, span_tiou
from pseudotal.fusion import GAUSS_GROUP_TIOU, FusedWavelet, RickerParams, ricker_value
from segment_objects import Proposal, PseudoProposal


def fuse_ricker(proposals: Sequence[Proposal], grid: TimeGrid) -> FusedWavelet:
    """Sum confidence-weighted proposal wavelets into one (T, C) space,
    one proposal at a time; non-positive scores are skipped."""
    values = np.zeros((grid.num_snippets, grid.class_count), dtype=np.float64)
    centers = snippet_centers(grid)
    for p in proposals:
        if not 1 <= p.class_id <= grid.class_count:
            raise ValueError("proposal class out of grid range")
        if p.score <= 0.0:
            continue
        iv = p.interval
        wav = ricker_value(centers, RickerParams(0.5 * iv.duration_s, 0.5 * (iv.start_s + iv.end_s)))
        values[:, p.class_id - 1] += p.score * wav
    return FusedWavelet(values, grid)


def _interp_zero(t0: float, v0: float, t1: float, v1: float) -> float:
    return t0 + (t1 - t0) * (0.0 - v0) / (v1 - v0)


def segments_from_wavelet(
    wavelet: FusedWavelet, min_duration_s: float = 0.0
) -> list[PseudoProposal]:
    """Every maximal positive run of each class column as one pseudo label,
    with interpolated zero crossings and the run's peak as confidence."""
    if min_duration_s < 0:
        raise ValueError("min_duration_s must be nonnegative")
    grid = wavelet.grid
    centers = snippet_centers(grid)
    out: list[PseudoProposal] = []
    for col in range(grid.class_count):
        vals = wavelet.values[:, col]
        for first, last, positive in runs(vals > 0.0):
            if not positive:
                continue
            if first == 0:
                start = 0.0
            else:
                start = _interp_zero(
                    centers[first - 1], vals[first - 1], centers[first], vals[first]
                )
            if last == grid.num_snippets - 1:
                end = grid.duration_s
            else:
                end = _interp_zero(centers[last], vals[last], centers[last + 1], vals[last + 1])
            if end - start < min_duration_s or end <= start:
                continue
            confidence = float(vals[first : last + 1].max())
            out.append(PseudoProposal(Interval(start, end), col + 1, confidence))
    out.sort(key=lambda p: (p.class_id, p.interval.start_s, p.interval.end_s))
    return out


def _fuse_hard(proposals: Sequence[Proposal], grid: TimeGrid) -> list[PseudoProposal]:
    """Each snippet goes to the highest-scoring proposal covering its center;
    the runs of one owner become the segments."""
    centers = snippet_centers(grid)
    owner = np.full(grid.num_snippets, -1, dtype=np.int64)
    best = np.full(grid.num_snippets, -np.inf)
    order = sorted(
        range(len(proposals)),
        key=lambda i: (
            -proposals[i].score,
            proposals[i].interval.duration_s,
            proposals[i].interval.start_s,
            proposals[i].class_id,
        ),
    )
    for i in order:
        p = proposals[i]
        covered = (centers >= p.interval.start_s) & (centers < p.interval.end_s)
        take = covered & (p.score > best)
        owner[take] = i
        best[take] = p.score
    dur = grid.snippet_duration_s
    return [
        replace(proposals[i], interval=Interval(first * dur, (last + 1) * dur)).as_pseudo()
        for first, last, i in runs(owner)
        if i >= 0
    ]


def _by_score(p: Proposal) -> tuple[float, float, float]:
    return (-p.score, p.interval.start_s, p.interval.end_s)


def _fuse_gauss(proposals: Sequence[Proposal]) -> list[PseudoProposal]:
    """Group same-class proposals around the current top score and average
    boundaries weighted by score."""
    remaining = sorted((p for p in proposals if p.score > 0.0), key=_by_score)
    out: list[PseudoProposal] = []
    while remaining:
        top = remaining[0]
        in_group = [
            p.class_id == top.class_id
            and span_tiou(p.interval.start_s, p.interval.end_s, top.interval.start_s,
                          top.interval.end_s) >= GAUSS_GROUP_TIOU
            for p in remaining
        ]
        group = [p for p, g in zip(remaining, in_group) if g]
        total = sum(p.score for p in group)
        start = sum(p.interval.start_s * p.score for p in group) / total
        end = sum(p.interval.end_s * p.score for p in group) / total
        out.append(PseudoProposal(Interval(start, end), top.class_id, top.score))
        remaining = [p for p, g in zip(remaining, in_group) if not g]
    return out
