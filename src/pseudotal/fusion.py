"""Wavelet-based proposal fusion and baseline label-generation strategies.

Each scored proposal is mapped onto a Ricker (mexican-hat) wavelet whose
zero crossings sit exactly on the proposal boundaries: positive inside,
negative outside. Summing the confidence-weighted wavelets of all
proposals of a class gives one shared sequence per class, and the regions
where that sequence stays positive become the fused pseudo labels. The
negative side lobes let strong proposals suppress weak stragglers nearby,
which is what collapses a stack of overlapping threshold variants into a
single clean segment.

Five simpler strategies (hard snippet assignment, keep-all, top-k,
score threshold, Gaussian boundary averaging) are provided for
benchmarking against the wavelet fusion; `STRATEGIES` names all six.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .core import Interval, Proposal, PseudoProposal, TimeGrid, runs, snippet_centers, tiou

__all__ = [
    "FusedWavelet",
    "RickerParams",
    "ricker_value",
    "fuse_ricker",
    "segments_from_wavelet",
    "STRATEGIES",
    "lookup_strategy",
    "generate_pseudo_labels",
]

# Fixed parameters of the baseline strategies.
TOP_K = 4
SCORE_THRESHOLD = 0.2
GAUSS_GROUP_TIOU = 0.5


@dataclass(frozen=True)
class RickerParams:
    """Wavelet shape for one proposal: half-duration sigma and midpoint m."""

    sigma: float
    midpoint: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("sigma must be positive")

    @classmethod
    def from_interval(cls, interval: Interval) -> "RickerParams":
        return cls(0.5 * interval.duration_s, interval.midpoint_s)


@dataclass(frozen=True, eq=False)
class FusedWavelet:
    """Per-class fused wavelet values sampled at snippet centers, shape (T, C)."""

    values: np.ndarray
    grid: TimeGrid

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.grid.num_snippets, self.grid.class_count):
            raise ValueError("wavelet values must have shape (T, C)")
        if not np.all(np.isfinite(vals)):
            raise ValueError("wavelet values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def ricker_value(t: float | np.ndarray, params: RickerParams) -> float | np.ndarray:
    """Ricker wavelet normalized so the peak area integrates like a unit pulse.

    Zero exactly at midpoint +- sigma (the proposal boundaries), maximal at
    the midpoint, and negative everywhere outside the boundaries.
    """
    u = (np.asarray(t, dtype=np.float64) - params.midpoint) / params.sigma
    amp = 2.0 / (math.sqrt(3.0 * params.sigma) * math.pi**0.25)
    out = amp * (1.0 - u**2) * np.exp(-0.5 * u**2)
    if np.ndim(t) == 0:
        return float(out)
    return out


def fuse_ricker(proposals: Sequence[Proposal], grid: TimeGrid) -> FusedWavelet:
    """Sum confidence-weighted proposal wavelets into one (T, C) space.

    Each proposal contributes score * wavelet to its own class channel,
    sampled at snippet centers. Proposals with non-positive score are
    excluded: a negative weight would flip the wavelet's suppression
    semantics. An empty input produces the zero wavelet.
    """
    values = np.zeros((grid.num_snippets, grid.class_count), dtype=np.float64)
    centers = snippet_centers(grid)
    for p in proposals:
        if not 1 <= p.class_id <= grid.class_count:
            raise ValueError("proposal class out of grid range")
        if p.score <= 0.0:
            continue
        wav = ricker_value(centers, RickerParams.from_interval(p.interval))
        values[:, p.class_id - 1] += p.score * wav
    return FusedWavelet(values, grid)


def _interp_zero(t0: float, v0: float, t1: float, v1: float) -> float:
    """Linear zero crossing between (t0, v0 <= 0) and (t1, v1 > 0) or the reverse."""
    return t0 + (t1 - t0) * (0.0 - v0) / (v1 - v0)


def segments_from_wavelet(
    wavelet: FusedWavelet, min_duration_s: float = 0.0
) -> list[PseudoProposal]:
    """Threshold the fused wavelet at zero into pseudo proposals.

    Per class, every maximal run of snippets with strictly positive value
    becomes one pseudo proposal. Boundaries are refined by linearly
    interpolating the zero crossing between the outermost positive snippet
    center and its non-positive neighbor; runs touching the video edge
    clamp to the edge. Runs whose refined duration falls below
    `min_duration_s` are dropped. Confidence is the run's peak value.
    """
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
    """Winner-takes-all snippet ownership followed by re-segmentation.

    Every snippet belongs to the highest-scoring proposal covering its
    center (or to background); maximal runs owned by one proposal become
    the output segments, so overlapped proposals get carved up.
    """
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
            p.class_id == top.class_id and tiou(p.interval, top.interval) >= GAUSS_GROUP_TIOU
            for p in remaining
        ]
        group = [p for p, g in zip(remaining, in_group) if g]
        total = sum(p.score for p in group)
        start = sum(p.interval.start_s * p.score for p in group) / total
        end = sum(p.interval.end_s * p.score for p in group) / total
        out.append(PseudoProposal(Interval(start, end), top.class_id, top.score))
        remaining = [p for p, g in zip(remaining, in_group) if not g]
    return out


# name -> fuse(proposals, grid, min_duration_s); only ricker reads min_duration_s.
# The order is `benchmark`'s default run order.
STRATEGIES: dict[str, Callable[[Sequence[Proposal], TimeGrid, float], list[PseudoProposal]]] = {
    "ricker": lambda props, grid, min_dur: segments_from_wavelet(
        fuse_ricker(props, grid), min_dur
    ),
    "soft": lambda props, grid, min_dur: [p.as_pseudo() for p in props],
    "hard": lambda props, grid, min_dur: _fuse_hard(props, grid),
    "topk": lambda props, grid, min_dur: [
        p.as_pseudo() for p in sorted(props, key=_by_score)[:TOP_K]
    ],
    "threshold": lambda props, grid, min_dur: [
        p.as_pseudo() for p in props if p.score >= SCORE_THRESHOLD
    ],
    "gauss": lambda props, grid, min_dur: _fuse_gauss(props),
}


def lookup_strategy(name: str):
    """The fuse function of a strategy name; the one unknown-name error."""
    try:
        return STRATEGIES[name]
    except KeyError:
        raise ValueError(f"unknown fusion strategy: {name!r}") from None


def generate_pseudo_labels(
    strategy: str,
    proposals: Sequence[Proposal],
    grid: TimeGrid,
    min_duration_s: float = 0.0,
) -> list[PseudoProposal]:
    """Fuse one video's proposals with the named strategy (see STRATEGIES).

    Every strategy rejects a proposal whose class lies outside the grid.
    """
    fuse = lookup_strategy(strategy)
    for p in proposals:
        if not 1 <= p.class_id <= grid.class_count:
            raise ValueError("proposal class out of grid range")
    return fuse(proposals, grid, min_duration_s)
