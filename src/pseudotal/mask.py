"""Uncertainty masking around pseudo-proposal boundaries.

Pseudo-label boundaries are the least trustworthy part of a fused segment,
so a band around each boundary (expanding `alpha * duration` outward and
`beta * duration` inward) is marked uncertain and excluded from loss
computation. The band ratios of each training epoch come from
`PipelineConfig.mask_params`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import MaskParams
from .core import Segment, Segments, TimeGrid, snippet_centers

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
    """The mask of one proposal: `union_masks` of a one-row `Segments`."""
    return union_masks(Segments(*([value] for value in proposal)), params, grid)


def union_masks(pseudos: Segments, params: MaskParams, grid: TimeGrid) -> SnippetMask:
    """Mark snippets whose center lies strictly inside a boundary band of any
    pseudo label uncertain; a center on a band edge stays certain, so
    alpha = beta = 0 bands, like no label, mark nothing, and only on-grid
    centers are tested. A band is the index range of the ascending centers
    between its open edges, and one difference array marks them all:
    O(P log T + T) for P labels on T snippets."""
    start, end = pseudos.start_s, pseudos.end_s
    d = end - start
    centers = snippet_centers(grid)
    lower = np.concatenate([start - params.alpha * d, end - params.beta * d])
    upper = np.concatenate([start + params.beta * d, end + params.alpha * d])
    first = np.searchsorted(centers, lower, side="right")
    stop = np.maximum(np.searchsorted(centers, upper, side="left"), first)  # an empty band adds 0
    n = grid.num_snippets + 1
    depth = np.cumsum(np.bincount(first, minlength=n) - np.bincount(stop, minlength=n))
    return SnippetMask((depth[:-1] == 0).astype(np.uint8), grid)
