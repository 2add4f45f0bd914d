"""Uncertainty masking around pseudo-proposal boundaries.

Pseudo-label boundaries are the least trustworthy part of a fused segment,
so a band around each boundary (expanding `alpha * duration` outward and
`beta * duration` inward) is marked uncertain and excluded from loss
computation. The bands shrink linearly to nothing between the warm-up
epoch and the end of training.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import PseudoProposal, TimeGrid, snippet_centers

__all__ = ["MaskParams", "SnippetMask", "mask_for_proposal", "union_masks", "decay_schedule"]


@dataclass(frozen=True)
class MaskParams:
    """Boundary-band ratios: alpha expands outward, beta shrinks inward."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError("alpha must be nonnegative")
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValueError("beta must be nonnegative")
        if self.beta >= 0.5:
            raise ValueError("beta must be < 0.5 or the bands swallow the proposal")


@dataclass(frozen=True, eq=False)
class SnippetMask:
    """Per-snippet certainty bits: 1 = certain, 0 = uncertain."""

    bits: np.ndarray
    grid: TimeGrid

    def __post_init__(self) -> None:
        bits = np.asarray(self.bits, dtype=np.uint8)
        if bits.shape != (self.grid.num_snippets,):
            raise ValueError("mask length must equal num_snippets")
        if bits.size and not np.all((bits == 0) | (bits == 1)):
            raise ValueError("mask bits must be 0 or 1")
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)

    def uncertain_count(self) -> int:
        return int((self.bits == 0).sum())


def mask_for_proposal(
    proposal: PseudoProposal, params: MaskParams, grid: TimeGrid
) -> SnippetMask:
    """Mark snippets inside the two boundary bands of one proposal uncertain.

    A snippet is uncertain when its center lies strictly inside either
    band; centers exactly on a band edge stay certain, so degenerate
    alpha = beta = 0 bands mark nothing. Bands are implicitly clipped to
    the video extent because only on-grid centers are tested.
    """
    start, end = proposal.interval.start_s, proposal.interval.end_s
    d = proposal.interval.duration_s
    centers = snippet_centers(grid)
    band_start = (centers > start - params.alpha * d) & (centers < start + params.beta * d)
    band_end = (centers > end - params.beta * d) & (centers < end + params.alpha * d)
    bits = np.where(band_start | band_end, 0, 1).astype(np.uint8)
    return SnippetMask(bits, grid)


def union_masks(masks: Sequence[SnippetMask], grid: TimeGrid) -> SnippetMask:
    """Combine masks on `grid` so a snippet uncertain anywhere stays
    uncertain; an empty list yields the all-certain mask."""
    bits = np.ones(grid.num_snippets, dtype=np.uint8)
    for m in masks:
        if m.grid != grid:
            raise ValueError("mask grid mismatch")
        bits &= m.bits
    return SnippetMask(bits, grid)


def decay_schedule(
    epoch: int, warmup: int, total: int, initial: MaskParams
) -> MaskParams:
    """Linear post-warm-up decay of the mask ratios.

    Full ratios through the warm-up boundary, zero at the final epoch,
    linear in between.
    """
    if warmup >= total:
        raise ValueError("warmup must be smaller than total epochs")
    if not 0 <= epoch <= total:
        raise ValueError("epoch out of schedule bounds")
    if epoch <= warmup:
        return initial
    if epoch >= total:
        return MaskParams(0.0, 0.0)
    factor = (total - epoch) / (total - warmup)
    return MaskParams(initial.alpha * factor, initial.beta * factor)
