"""The original per-label target builder, kept as the oracle for `pseudotal.targets`.

`assign_level` walks the level ladder of one `Segment` row with a `while`
loop; `build_targets` groups the rows by level, sorts each group with
Python's stable sort (shortest, then the earlier start, then input order),
and paints one boolean mask over a level's anchors per pseudo label. Tests
compare the package's five anchor arrays against these functions bit for
bit; it is not used by the package.
"""
from __future__ import annotations

import math

import numpy as np

from pseudotal.core import Segment, Segments, TimeGrid
from pseudotal.mask import SnippetMask
from pseudotal.targets import AnchorTargets, PyramidConfig


def _levels(grid: TimeGrid, num_levels: int) -> list[tuple[int, int]]:
    """Stride (snippets) and anchor count of each pyramid level: level l has a
    stride of 2**l and ceil(num_snippets / 2**l) anchors."""
    strides = [2**level for level in range(num_levels)]
    return [(stride, math.ceil(grid.num_snippets / stride)) for stride in strides]


def _anchor_times(stride: int, size: int, grid: TimeGrid) -> np.ndarray:
    """Center times in seconds of the `size` anchors of one level."""
    return (np.arange(size, dtype=np.float64) + 0.5) * stride * grid.snippet_duration_s


def assign_level(p: Segment, cfg: PyramidConfig, grid: TimeGrid) -> int:
    """Pyramid level that owns the proposal's duration in snippets: level 0
    owns [0, 4), each higher level doubles the bound, and the top level is
    open-ended."""
    duration_snippets = (p.end_s - p.start_s) / grid.snippet_duration_s
    level = 0
    while level < cfg.num_levels - 1 and duration_snippets >= 4.0 * 2**level:
        level += 1
    return level


def build_targets(pseudos: Segments, mask: SnippetMask, cfg: PyramidConfig) -> AnchorTargets:
    """Rasterize pseudo proposals into per-anchor labels on the pyramid of `mask`'s grid.

    An anchor is positive for the proposal assigned to its level whose
    interval contains the anchor time; when several contain it the
    shortest wins. Regression targets are boundary distances in stride
    units. Mask bits come from `mask` (the union uncertainty mask), resampled
    by taking the bit of the snippet under each anchor.
    """
    grid = mask.grid
    sizes = cfg.level_sizes(grid)
    total = sum(sizes)
    class_label = np.zeros(total, dtype=np.int64)
    reg_left = np.zeros(total, dtype=np.float64)
    reg_right = np.zeros(total, dtype=np.float64)
    iou_weight = np.zeros(total, dtype=np.float64)
    mask_bit = np.empty(total, dtype=np.uint8)

    by_level: dict[int, list[Segment]] = {}
    for p in pseudos:
        by_level.setdefault(assign_level(p, cfg, grid), []).append(p)
    # shortest proposal wins containment ties
    for plist in by_level.values():
        plist.sort(key=lambda p: (p.end_s - p.start_s, p.start_s))

    dur = grid.snippet_duration_s
    offset = 0
    for level, (stride, size) in enumerate(_levels(grid, cfg.num_levels)):
        times = _anchor_times(stride, size, grid)
        assigned = np.zeros(size, dtype=bool)
        for p in by_level.get(level, []):
            inside = (times >= p.start_s) & (times < p.end_s)
            take = inside & ~assigned
            idx = np.flatnonzero(take)
            if idx.size == 0:
                continue
            class_label[offset + idx] = p.class_id
            reg_left[offset + idx] = (times[idx] - p.start_s) / (stride * dur)
            reg_right[offset + idx] = (p.end_s - times[idx]) / (stride * dur)
            iou_weight[offset + idx] = 1.0
            assigned |= take
        snippet_idx = np.minimum((times / dur).astype(np.int64), grid.num_snippets - 1)
        mask_bit[offset : offset + size] = mask.bits[snippet_idx]
        offset += size

    return AnchorTargets(grid, sizes, class_label, reg_left, reg_right, iou_weight, mask_bit)
