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
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Segments, TimeGrid, class_ids, first_cover, runs, snippet_centers, true_runs

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
    """Wavelet shape: half-duration sigma and midpoint m, of one proposal
    (floats) or of a block of proposals (arrays that broadcast together)."""

    sigma: float | np.ndarray
    midpoint: float | np.ndarray

    def __post_init__(self) -> None:
        sigma = np.asarray(self.sigma)
        if not np.all(np.isfinite(sigma) & (sigma > 0)):
            raise ValueError("sigma must be positive")


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
    the midpoint, and negative everywhere outside the boundaries. `t` and
    the parameters broadcast: a (P, 1) block of parameters and T times give
    P wavelets of T samples, each value the same float as one call per
    wavelet. `u` is clipped to +-40: from |u| of about 38.6 on the Gaussian
    factor is already 0.0, so the value is -0.0 either way, and a proposal
    far shorter than the grid's spacing gives no inf * 0.
    """
    with np.errstate(over="ignore"):
        u = (np.asarray(t, dtype=np.float64) - params.midpoint) / params.sigma
    u = u.clip(-40.0, 40.0)
    amp = 2.0 / (np.sqrt(3.0 * np.asarray(params.sigma)) * math.pi**0.25)
    out = amp * (1.0 - u**2) * np.exp(-0.5 * u**2)
    if np.ndim(out) == 0:
        return float(out)
    return out


# The most (proposal, snippet) cells one block of wavelet rows may hold
# (512 KiB of float64). `fuse_ricker` takes the proposals block by block, so
# its memory is O(T) however many proposals a video has.
BLOCK_CELLS = 2**16


def _blocks(count: int, grid: TimeGrid) -> list[slice]:
    """Consecutive slices over `count` proposals, each at most BLOCK_CELLS
    cells of the grid's snippets (and at least one proposal)."""
    step = max(1, BLOCK_CELLS // grid.num_snippets)
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def fuse_ricker(proposals: Segments, grid: TimeGrid) -> FusedWavelet:
    """Sum confidence-weighted proposal wavelets into one (T, C) space.

    Each proposal contributes score * wavelet to its own class channel,
    sampled at snippet centers. Proposals with non-positive score are
    excluded: a negative weight would flip the wavelet's suppression
    semantics. So is a proposal of the least duration, 5e-324 s, whose
    half-duration sigma rounds to 0.0: no wavelet has that width. An empty
    input produces the zero wavelet. A block of wavelets is one array pass,
    and `np.add.at` adds its rows to their class channels in proposal order,
    so every sum is the same float as adding one proposal at a time. A sum
    past the float range raises the constructor's ValueError, with no numpy
    warning.
    """
    class_ids(proposals.class_id, grid.class_count)
    start, end = proposals.start_s, proposals.end_s
    half = 0.5 * (end - start)
    keep = (proposals.score > 0.0) & (half > 0.0)
    sigma, midpoint = half[keep], 0.5 * (start + end)[keep]
    score, channel = proposals.score[keep], proposals.class_id[keep] - 1
    centers = snippet_centers(grid)
    values = np.zeros((grid.class_count, grid.num_snippets), dtype=np.float64)
    for block in _blocks(score.shape[0], grid):
        params = RickerParams(sigma[block, None], midpoint[block, None])
        with np.errstate(over="ignore"):
            np.add.at(values, channel[block], score[block, None] * ricker_value(centers, params))
    return FusedWavelet(values.T, grid)


def _interp_zero(t0, v0, t1, v1):
    """Linear zero crossing between (t0, v0 <= 0) and (t1, v1 > 0) or the
    reverse; elementwise on arrays. Where v1 - v0 or (t1 - t0) * v0
    overflows, both values are first scaled by the power of two that takes
    the larger into [0.5, 1): exact but for a value some 2**1022 times
    smaller, whose rounding the crossing cannot show. So the crossing is the
    one of any scaled copy of the scores; every other one is computed as is."""
    with np.errstate(over="ignore"):
        big = np.isinf(v1 - v0) | np.isinf((t1 - t0) * v0)
    if big.any():
        exponent = np.where(big, np.frexp(np.maximum(np.abs(v0), np.abs(v1)))[1], 0)
        v0, v1 = np.ldexp(v0, -exponent), np.ldexp(v1, -exponent)
    return t0 + (t1 - t0) * (0.0 - v0) / (v1 - v0)


def segments_from_wavelet(wavelet: FusedWavelet, min_duration_s: float = 0.0) -> Segments:
    """Threshold the fused wavelet at zero into pseudo proposals.

    Per class, every maximal run of snippets with strictly positive value
    becomes one pseudo proposal. Boundaries are refined by linearly
    interpolating the zero crossing between the outermost positive snippet
    center and its non-positive neighbor; runs touching the video edge
    clamp to the edge. Runs whose refined duration falls below
    `min_duration_s` are dropped. Confidence is the run's peak value. The
    labels come sorted by (class, start, end).
    """
    if min_duration_s < 0:
        raise ValueError("min_duration_s must be nonnegative")
    grid = wavelet.grid
    t = grid.num_snippets
    centers = snippet_centers(grid)
    by_class = np.ascontiguousarray(wavelet.values.T)
    col, first, last = true_runs(by_class > 0.0)
    start = np.zeros(col.shape[0])
    inside = first > 0
    a, c = first[inside], col[inside]
    start[inside] = _interp_zero(centers[a - 1], by_class[c, a - 1], centers[a], by_class[c, a])
    end = np.full(col.shape[0], grid.duration_s)
    inside = last < t - 1
    b, c = last[inside], col[inside]
    end[inside] = _interp_zero(centers[b], by_class[c, b], centers[b + 1], by_class[c, b + 1])
    # the peak of each run: a max over [first, last + 1) of the flat values,
    # which end with one spare entry so that last + 1 is always an index
    bounds = np.stack([col * t + first, col * t + last + 1], axis=1).ravel()
    flat = np.append(by_class.ravel(), 0.0)
    peak = np.maximum.reduceat(flat, bounds)[::2] if bounds.size else bounds
    keep = np.flatnonzero(~((end - start < min_duration_s) | (end <= start)))
    keep = keep[np.lexsort((end[keep], start[keep], col[keep]))]
    return Segments(start[keep], end[keep], col[keep] + 1, peak[keep])


def _floored(score: np.ndarray) -> np.ndarray:
    """Scores as confidences: floored at 0 (-0.0 stays, as in `max(score, 0.0)`)."""
    return np.where(score < 0.0, 0.0, score)


def _kept(proposals: Segments, index) -> Segments:
    """The pseudo labels of the proposals at `index`, scores `_floored`."""
    return Segments(proposals.start_s[index], proposals.end_s[index], proposals.class_id[index],
                    _floored(proposals.score[index]))


def _fuse_hard(proposals: Segments, grid: TimeGrid) -> Segments:
    """Winner-takes-all snippet ownership followed by re-segmentation.

    Every snippet belongs to the highest-scoring proposal covering its
    center (or to background); maximal runs owned by one proposal become
    the output segments, so overlapped proposals get carved up. Proposals
    rank by score (descending), then duration, start, class and input
    order; the owner of a snippet is the first covering one in that order.
    A segment is its owner's pseudo label over the run.
    """
    start, end, score = proposals.start_s, proposals.end_s, proposals.score
    order = np.lexsort((proposals.class_id, start, end - start, -score))
    owner = first_cover(snippet_centers(grid), start, end, order)
    first, last, i = (np.array(column, dtype=np.int64) for column in zip(*runs(owner)))
    owned = i >= 0
    first, last, i = first[owned], last[owned], i[owned]
    dur = grid.snippet_duration_s
    return Segments(first * dur, (last + 1) * dur, proposals.class_id[i], _floored(score[i]))


def _fuse_gauss(proposals: Segments) -> Segments:
    """Group same-class proposals around the current top score and average
    boundaries weighted by score.

    Proposals with a positive score go in (score descending, start, end,
    input order) order. The first one not yet grouped leads a group of
    itself and each ungrouped same-class proposal whose tIoU with it is at
    least GAUSS_GROUP_TIOU; sums run over the group in that order. Such a
    partner starts before the leader ends and at most one leader length
    before it starts, so only the proposals that start in [start - 2 *
    length, end) are tested (the slack takes up rounding), each by the IEEE
    operations of `pairwise_tiou` on Python floats: memory stays linear
    however many proposals overlap. A group's weights are its scores times
    the power of two that takes its top score into [1, 2): exact, and no
    product or sum under- or overflows.
    """
    rank = np.lexsort((proposals.end_s, proposals.start_s, -proposals.score))
    ranked = _kept(proposals, rank[proposals.score[rank] > 0.0])
    # the proposals by (class, start): each class's starts are one sorted block
    by_start = np.lexsort((ranked.start_s, ranked.class_id))
    block, ids = ranked.class_id[by_start], by_start.tolist()
    begins = ranked.start_s[by_start].tolist()
    lows, highs = (block.searchsorted(ranked.class_id, side).tolist() for side in ("left", "right"))
    starts, ends, scores = ranked.start_s.tolist(), ranked.end_s.tolist(), ranked.score.tolist()
    free, leaders, bounds = bytearray([1]) * len(scores), [], []
    for p, top in enumerate(scores):
        if free[p]:  # every proposal ranked above p is grouped: p leads a group
            free[p], group = 0, [p]
            s, e, lo, hi = starts[p], ends[p], lows[p], highs[p]
            lo = bisect_left(begins, s - 2 * (e - s), lo, hi)
            for q in sorted(ids[lo:bisect_left(begins, e, lo, hi)]):
                inter = min(e, ends[q]) - max(s, starts[q])  # disjoint: at most 0
                tiou = inter / ((e - s) + (ends[q] - starts[q]) - inter)
                if free[q] and tiou >= GAUSS_GROUP_TIOU:
                    free[q] = 0
                    group.append(q)
            scale = 1 - math.frexp(top)[1]  # the exponent that takes top into [1, 2)
            weight = [math.ldexp(scores[q], scale) for q in group]
            total = sum(weight)
            leaders.append(p)
            bounds.append([sum(x[q] * w for q, w in zip(group, weight)) / total
                           for x in (starts, ends)])
    start, end = np.reshape(bounds, (-1, 2)).T
    return Segments(start, end, ranked.class_id[leaders], ranked.score[leaders])


# name -> fuse(proposals, grid, min_duration_s); only ricker reads min_duration_s.
# The order is `benchmark`'s default run order.
STRATEGIES: dict[str, Callable[[Segments, TimeGrid, float], Segments]] = {
    "ricker": lambda props, grid, min_dur: segments_from_wavelet(
        fuse_ricker(props, grid), min_dur
    ),
    "soft": lambda props, grid, min_dur: _kept(props, slice(None)),
    "hard": lambda props, grid, min_dur: _fuse_hard(props, grid),
    "topk": lambda props, grid, min_dur: _kept(
        props, np.lexsort((props.end_s, props.start_s, -props.score))[:TOP_K]
    ),
    "threshold": lambda props, grid, min_dur: _kept(props, props.score >= SCORE_THRESHOLD),
    "gauss": lambda props, grid, min_dur: _fuse_gauss(props),
}


def lookup_strategy(name: str):
    """The fuse function of a strategy name; the one unknown-name error,
    which lists the valid names."""
    try:
        return STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown fusion strategy: {name!r} (one of {', '.join(STRATEGIES)})"
        ) from None


def generate_pseudo_labels(
    strategy: str,
    proposals: Segments,
    grid: TimeGrid,
    min_duration_s: float = 0.0,
) -> Segments:
    """Fuse one video's proposals with the named strategy (see STRATEGIES);
    every strategy refuses a proposal whose class lies outside the grid."""
    fuse = lookup_strategy(strategy)
    class_ids(proposals.class_id, grid.class_count)
    return fuse(proposals, grid, min_duration_s)
