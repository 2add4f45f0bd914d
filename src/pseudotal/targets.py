"""Anchor-level supervision for the regression branch.

Pseudo proposals are routed to pyramid levels by duration, rasterized
into per-anchor class labels and boundary offsets, and combined with the
uncertainty mask. The classification, regression, and snippet-attention
losses are deterministic pure functions of (predictions, targets); no
gradients or parameter updates live here.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .config import PyramidConfig
from .core import Segments, TimeGrid, check_distribution_rows, first_cover, pairwise_tiou
from .mask import SnippetMask

if TYPE_CHECKING:  # an annotation only: the `targets` step loads no weak branch
    from .weak_branch import VideoLabel

__all__ = [
    "AnchorTargets",
    "ANCHOR_FIELDS",
    "AnchorPredictions",
    "assign_level",
    "build_targets",
    "focal_loss",
    "cls_loss",
    "reg_loss",
    "att_loss",
    "total_loss",
]

PROB_EPS = 1e-12
# The per-anchor arrays of `AnchorTargets`, in field order; a targets file row
# holds one list per name.
ANCHOR_FIELDS = ("class_label", "reg_left", "reg_right", "iou_weight", "mask_bit")


def _anchor_layout(grid: TimeGrid, sizes: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Level, center time (seconds) and stride (seconds) of every anchor of
    levels of `sizes` anchors, in level order: level l has a stride of 2**l
    snippets, and its anchor i is centered at (i + 0.5) strides."""
    level = np.repeat(np.arange(len(sizes)), sizes)
    index = np.concatenate([np.arange(size, dtype=np.float64) for size in sizes])
    stride = 2**level
    dur = grid.snippet_duration_s
    return level, (index + 0.5) * stride * dur, stride * dur


@dataclass(frozen=True, eq=False)
class AnchorTargets:
    """Flat per-anchor supervision across all pyramid levels.

    class_label: 0 for background, 1..C otherwise.
    reg_left/reg_right: boundary distances in stride units at the anchor's level.
    iou_weight: classification weight in [0, 1]; `build_targets` writes 1
        on positives, and it is 0 on background.
    mask_bit: 1 where the uncertainty mask allows training.
    """

    grid: TimeGrid
    level_sizes: tuple[int, ...]
    class_label: np.ndarray
    reg_left: np.ndarray
    reg_right: np.ndarray
    iou_weight: np.ndarray
    mask_bit: np.ndarray

    def __post_init__(self) -> None:
        sizes = tuple(self.level_sizes)
        if not sizes or sizes != PyramidConfig(len(sizes)).level_sizes(self.grid):
            raise ValueError(
                f"level_sizes {list(sizes)} disagree with ceil(num_snippets / 2**l) "
                f"for num_snippets {self.grid.num_snippets}"
            )
        n = sum(sizes)
        # every field as float64 first: the integer casts below would wrap -1,
        # truncate 0.5 and overflow on huge labels
        arrays = {
            name: np.asarray(getattr(self, name), dtype=np.float64) for name in ANCHOR_FIELDS
        }
        for name, arr in arrays.items():
            if arr.shape != (n,):
                raise ValueError(f"{name} must have one entry per anchor")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
        bits, label = arrays["mask_bit"], arrays["class_label"]
        if np.any((bits != 0) & (bits != 1)):
            raise ValueError("mask_bit values must be 0 or 1")
        if np.any(label != np.rint(label)):
            raise ValueError("class_label values must be whole numbers")
        if np.any((label < 0) | (label > self.grid.class_count)):
            raise ValueError(
                f"class_label must lie in [0, {self.grid.class_count}] for this grid"
            )
        if np.any(arrays["reg_left"] < 0) or np.any(arrays["reg_right"] < 0):
            raise ValueError("reg_left and reg_right must be >= 0")
        weight = arrays["iou_weight"]
        if np.any((weight < 0) | (weight > 1)):
            raise ValueError("iou_weight must lie in [0, 1]")
        pos = label > 0
        if np.any((arrays["reg_left"][pos] + arrays["reg_right"][pos]) <= 0):
            raise ValueError("positive anchors need reg_left + reg_right > 0")
        if np.any(weight[~pos] != 0):
            raise ValueError("background anchors must carry iou_weight 0")
        arrays["class_label"] = label.astype(np.int64)
        arrays["mask_bit"] = bits.astype(np.uint8)
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_anchors(self) -> int:
        return int(self.class_label.shape[0])

    def decode_intervals(self, reg_left: np.ndarray, reg_right: np.ndarray) -> np.ndarray:
        """Decode per-anchor (start, end) seconds from stride-unit offsets."""
        _, times, scale = _anchor_layout(self.grid, self.level_sizes)
        return np.stack([times - reg_left * scale, times + reg_right * scale], axis=1)


@dataclass(frozen=True, eq=False)
class AnchorPredictions:
    """Stand-in for the network heads: per-anchor class distribution
    (nonnegative rows that sum to 1) and boundary offsets, plus optional
    per-snippet class probabilities in [0, 1] for the attention loss."""

    class_probs: np.ndarray
    reg_left: np.ndarray
    reg_right: np.ndarray
    snippet_probs: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name in ("class_probs", "reg_left", "reg_right", "snippet_probs"):
            if getattr(self, name) is None:  # only snippet_probs is optional
                continue
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        probs, left, right = self.class_probs, self.reg_left, self.reg_right
        if probs.ndim != 2:
            raise ValueError("class_probs must be (num_anchors, C+1)")
        if left.shape != (probs.shape[0],) or right.shape != (probs.shape[0],):
            raise ValueError("reg offsets must match the anchor count")
        check_distribution_rows(probs, "class_probs")
        snippet = self.snippet_probs
        if snippet is not None and np.any((snippet < 0) | (snippet > 1)):
            raise ValueError("snippet_probs entries must lie in [0, 1]")
        if np.any(left < 0) or np.any(right < 0):
            raise ValueError("reg offsets must be nonnegative")


def assign_level(segments: Segments, cfg: PyramidConfig, grid: TimeGrid) -> np.ndarray:
    """Pyramid level (int64) that owns each segment's duration in snippets:
    level 0 owns [0, 4), each higher level doubles the bound, and the top
    level is open-ended."""
    bounds = 4.0 * 2.0 ** np.arange(cfg.num_levels - 1)
    durations = (segments.end_s - segments.start_s) / grid.snippet_duration_s
    return np.searchsorted(bounds, durations, side="right")


def build_targets(pseudos: Segments, mask: SnippetMask, cfg: PyramidConfig) -> AnchorTargets:
    """Rasterize pseudo proposals into per-anchor labels on the pyramid of `mask`'s grid.

    An anchor is positive for the first pseudo label assigned to its level
    whose [start_s, end_s) holds the anchor time, in the order shortest,
    then the earlier start, then input order. Regression targets are
    boundary distances in stride units, and iou_weight is 1 on positives.
    Mask bits come from `mask` (the union uncertainty mask), resampled by
    taking the bit of the snippet under each anchor.
    """
    grid, sizes = mask.grid, cfg.level_sizes(mask.grid)
    level, times, stride_s = _anchor_layout(grid, sizes)
    start, end = pseudos.start_s, pseudos.end_s
    order = np.lexsort((start, end - start))
    label_level = assign_level(pseudos, cfg, grid)[order]
    owner = np.concatenate([
        first_cover(times[level == k], start, end, order[label_level == k])
        for k in range(cfg.num_levels)
    ])
    pos = np.flatnonzero(owner >= 0)
    i = owner[pos]
    class_label = np.zeros(times.shape[0], dtype=np.int64)
    class_label[pos] = pseudos.class_id[i]
    reg_left, reg_right = np.zeros(times.shape[0]), np.zeros(times.shape[0])
    reg_left[pos] = (times[pos] - start[i]) / stride_s[pos]
    reg_right[pos] = (end[i] - times[pos]) / stride_s[pos]
    iou_weight = (owner >= 0).astype(np.float64)
    dur = grid.snippet_duration_s
    mask_bit = mask.bits[np.minimum((times / dur).astype(np.int64), grid.num_snippets - 1)]
    return AnchorTargets(grid, sizes, class_label, reg_left, reg_right, iou_weight, mask_bit)


def focal_loss(p_true, gamma: float = 2.0):
    """Focal term -(1 - p)**gamma * log(p) of the probability p assigned to
    the true outcome, with p clipped to [PROB_EPS, 1]: a float for a scalar,
    elementwise for an array."""
    p = np.clip(p_true, PROB_EPS, 1.0)
    loss = -((1.0 - p) ** gamma) * np.log(p)
    return float(loss) if np.ndim(loss) == 0 else loss


def _check_agreement(pred: AnchorPredictions, tgt: AnchorTargets) -> None:
    """Raise unless `pred` has a row of C+1 class probabilities per anchor of `tgt`."""
    shape, need = list(pred.class_probs.shape), [tgt.num_anchors, tgt.grid.class_count + 1]
    if shape != need:
        raise ValueError(f"class_probs shape {shape} disagrees with the targets' {need}")


def cls_loss(pred: AnchorPredictions, tgt: AnchorTargets, gamma: float = 2.0) -> float:
    """IoU-weighted focal classification loss over mask-allowed anchors.

    Positive anchors contribute iou_weight * focal(true-class prob)
    normalized by their count; background anchors contribute
    focal(background prob) normalized by theirs. An empty group
    contributes nothing.
    """
    _check_agreement(pred, tgt)
    probs = pred.class_probs
    trainable = tgt.mask_bit == 1
    pos = trainable & (tgt.class_label > 0)
    neg = trainable & (tgt.class_label == 0)
    loss = 0.0
    if pos.any():
        idx = np.flatnonzero(pos)
        p_true = probs[idx, tgt.class_label[idx] - 1]
        loss += float((tgt.iou_weight[idx] * focal_loss(p_true, gamma)).sum()) / idx.size
    if neg.any():
        idx = np.flatnonzero(neg)
        p_bg = probs[idx, -1]
        loss += float(focal_loss(p_bg, gamma).sum()) / idx.size
    return loss


def reg_loss(pred: AnchorPredictions, tgt: AnchorTargets) -> float:
    """Mean (1 - IoU) between decoded predictions and pseudo intervals over
    mask-allowed positive anchors; 0 when there are none."""
    _check_agreement(pred, tgt)
    pos = (tgt.mask_bit == 1) & (tgt.class_label > 0)
    if not pos.any():
        return 0.0
    idx = np.flatnonzero(pos)
    decoded = tgt.decode_intervals(pred.reg_left, pred.reg_right)[idx]
    target = tgt.decode_intervals(tgt.reg_left, tgt.reg_right)[idx]
    tiou = pairwise_tiou(decoded[:, 0], decoded[:, 1], target[:, 0], target[:, 1])
    return float((1.0 - tiou).sum()) / idx.size


def att_loss(
    snippet_probs: np.ndarray,
    sps: np.ndarray,
    tau: float,
    video_label: VideoLabel,
    gamma: float = 2.0,
) -> float:
    """Focal loss over confident snippet/class picks.

    A (snippet, class) pair enters when its SP value exceeds tau and the
    class is either background or present in the video label. The loss
    averages focal(predicted prob at that pair) over the picks.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    probs = np.asarray(snippet_probs, dtype=np.float64)
    z = np.asarray(sps, dtype=np.float64)
    if probs.shape != z.shape:
        raise ValueError("snippet_probs and SP matrix shapes disagree")
    c = z.shape[1] - 1
    if video_label.onehot.shape[0] != c:
        raise ValueError("video label length disagrees with SP classes")
    allowed = np.concatenate([video_label.onehot.astype(bool), [True]])
    selected = (z > tau) & allowed[None, :]
    if not selected.any():
        return 0.0
    picks = probs[selected]
    return float(focal_loss(picks, gamma).sum()) / picks.size


def total_loss(l_reg: float, l_cls: float, l_att: float, lambda_att: float = 0.2) -> float:
    """Combined objective: regression + classification + weighted attention."""
    return l_reg + l_cls + lambda_att * l_att
