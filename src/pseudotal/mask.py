"""Uncertainty masking around pseudo-proposal boundaries.

Pseudo-label boundaries are the least trustworthy part of a fused segment,
so a band around each boundary (expanding `alpha * duration` outward and
`beta * duration` inward) is marked uncertain and excluded from loss
computation. The band ratios of each training epoch come from
`PipelineConfig.mask_params`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .config import MaskParams
from .core import Segment, TimeGrid, snippet_centers

__all__ = ["SnippetMask", "mask_for_proposal", "union_masks"]


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


def mask_for_proposal(proposal: Segment, params: MaskParams, grid: TimeGrid) -> SnippetMask:
    """Mark snippets inside the two boundary bands of one proposal uncertain.

    A snippet is uncertain when its center lies strictly inside either
    band; centers exactly on a band edge stay certain, so degenerate
    alpha = beta = 0 bands mark nothing. Bands are implicitly clipped to
    the video extent because only on-grid centers are tested.
    """
    start, end = proposal.start_s, proposal.end_s
    d = end - start
    centers = snippet_centers(grid)
    band_start = (centers > start - params.alpha * d) & (centers < start + params.beta * d)
    band_end = (centers > end - params.beta * d) & (centers < end + params.alpha * d)
    bits = np.where(band_start | band_end, 0, 1).astype(np.uint8)
    return SnippetMask(bits, grid)


def union_masks(masks: Iterable[SnippetMask], grid: TimeGrid) -> SnippetMask:
    """Combine masks on `grid` so a snippet uncertain anywhere stays
    uncertain; no mask yields the all-certain mask. `masks` is read once, in
    order, so a generator holds one mask at a time."""
    bits = np.ones(grid.num_snippets, dtype=np.uint8)
    for m in masks:
        if m.grid != grid:
            raise ValueError("mask grid mismatch")
        bits &= m.bits
    return SnippetMask(bits, grid)

