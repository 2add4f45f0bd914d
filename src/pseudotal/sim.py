"""Seeded synthetic corpus standing in for a trained weak branch.

Videos are laid out as non-overlapping actions on a snippet grid with
video-level labels; snippet predictions are then rendered as ideal
attention/class rows and corrupted with boundary jitter, low-frequency
attention noise, and false-positive segments. Every byte of output is a
pure function of the config: video v draws from the PCG64 substream
seeded with SeedSequence((seed, stage, v)), stage 0 for layout and 1 for
corruption, so no video's draws depend on another video.

The weak-branch corpus stages `proposals_by_video` and
`pseudo_labels_by_video` are shared by `run_benchmark` and the CLI's
`extract` and `fuse`; `weak_branch.video_labels` turns ground truth into
video-level labels for both.
"""
from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import PipelineConfig, check_fields, config_from_dict
from .core import Interval, Segments, SnippetPredictions, TimeGrid, first_cover, snippet_centers
from .evaluation import GroundTruthSet, PseudoQuality, pseudo_quality
from .fusion import generate_pseudo_labels, lookup_strategy
from .weak_branch import VideoLabel, video_labels, weak_proposals

__all__ = [
    "SimConfig",
    "CorpusLayout",
    "BenchmarkResult",
    "gen_corpus",
    "corrupt_predictions",
    "proposals_by_video",
    "pseudo_labels_by_video",
    "run_benchmark",
    "benchmark_many",
    "RNG_NAME",
]

# documented in report headers so corpora are reproducible elsewhere
RNG_NAME = "numpy PCG64, SeedSequence((seed, stage, video_index)), stage 0=layout 1=corruption"

NOISE_SMOOTH_SNIPPETS = 5
FP_AMPLITUDE = (0.5, 1.0)
PLACEMENT_TRIES = 100

# The most cells num_videos * snippets_per_video[1] * (class_count + 1) a
# corpus may have: its (T, C + 1) float64 score matrices then take at most
# 128 MiB together. Every video is held in memory (simulate writes them all,
# benchmark keeps them for the sweep), so a huge `sim` section is refused
# before the first video is drawn.
MAX_CORPUS_CELLS = 2**24


@dataclass(frozen=True)
class SimConfig:
    """Corpus shape and corruption rates; `seed` pins every random draw."""

    seed: int = 0
    num_videos: int = 20
    class_count: int = 5
    snippets_per_video: tuple[int, int] = (64, 128)
    actions_per_video: tuple[int, int] = (1, 4)
    duration_range_s: tuple[float, float] = (4.0, 16.0)
    snippet_duration_s: float = 1.0
    min_gap_snippets: int = 4
    attention_noise_std: float = 0.0
    boundary_jitter_frac: float = 0.0
    false_positive_rate: float = 0.0
    score_temperature: float = 0.2

    def __post_init__(self) -> None:
        check_fields(self, "sim config")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.num_videos < 1 or self.class_count < 1:
            raise ValueError("need at least one video and one class")
        for name in ("snippets_per_video", "actions_per_video", "duration_range_s"):
            lo, hi = getattr(self, name)
            if not lo <= hi:
                raise ValueError(f"{name} range is empty")
        if self.snippets_per_video[0] < 1:
            raise ValueError("videos need at least one snippet")
        if self.actions_per_video[0] < 1:
            raise ValueError("every video needs at least one action")
        if self.duration_range_s[0] <= 0:
            raise ValueError("action durations must be positive")
        if self.snippet_duration_s <= 0:
            raise ValueError("snippet_duration_s must be positive")
        if self.min_gap_snippets < 1:
            raise ValueError("min_gap_snippets must be >= 1")
        for name in ("attention_noise_std", "boundary_jitter_frac", "false_positive_rate"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.score_temperature <= 0:
            raise ValueError("score_temperature must be positive")
        self.duration_snippet_range()
        # each action and, on average, each false positive needs a snippet;
        # past that they are only draws and loop iterations
        t_hi = self.snippets_per_video[1]
        if self.actions_per_video[1] > t_hi or self.false_positive_rate > t_hi:
            raise ValueError("actions_per_video[1] and false_positive_rate must be at most "
                             "snippets_per_video[1]")
        cells = self.num_videos * self.snippets_per_video[1] * (self.class_count + 1)
        if cells > MAX_CORPUS_CELLS:
            raise ValueError(
                f"sim config num_videos * snippets_per_video[1] * (class_count + 1) must be "
                f"at most {MAX_CORPUS_CELLS}, got {self.num_videos} * "
                f"{self.snippets_per_video[1]} * ({self.class_count} + 1)"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        return config_from_dict(cls, data, "sim config")

    def duration_snippet_range(self) -> tuple[int, int]:
        lo = max(1, math.ceil(self.duration_range_s[0] / self.snippet_duration_s))
        hi = math.floor(self.duration_range_s[1] / self.snippet_duration_s)
        if hi < lo:
            raise ValueError("duration_range_s admits no whole-snippet duration")
        return lo, hi


@dataclass(frozen=True)
class CorpusLayout:
    """Ground truth plus per-video grids and weak labels, keyed by video id."""

    ground_truth: GroundTruthSet
    grids: Mapping[str, TimeGrid]
    labels: Mapping[str, VideoLabel]

    def video_ids(self) -> list[str]:
        return sorted(self.grids)


def _video_rng(seed: int, stage: int, video_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, stage, video_index)))


def _layout_video(cfg: SimConfig, video_index: int) -> tuple[TimeGrid, list[tuple[Interval, int]]]:
    rng = _video_rng(cfg.seed, 0, video_index)
    t_lo, t_hi = cfg.snippets_per_video
    t = int(rng.integers(t_lo, t_hi + 1))
    grid = TimeGrid(t, cfg.snippet_duration_s, cfg.class_count)
    a_lo, a_hi = cfg.actions_per_video
    n_actions = int(rng.integers(a_lo, a_hi + 1))
    d_lo, d_hi = cfg.duration_snippet_range()
    gap = cfg.min_gap_snippets

    durations = None
    for _ in range(PLACEMENT_TRIES):
        cand = rng.integers(d_lo, d_hi + 1, size=n_actions)
        if int(cand.sum()) + gap * (n_actions - 1) <= t:
            durations = cand
            break
    if durations is None:
        raise ValueError(
            f"cannot place {n_actions} actions of {d_lo}..{d_hi} snippets "
            f"in video {video_index} ({t} snippets)"
        )

    # distribute the leftover snippets into n+1 slack gaps (edges included)
    free = t - int(durations.sum()) - gap * (n_actions - 1)
    slack = rng.multinomial(free, np.full(n_actions + 1, 1.0 / (n_actions + 1)))
    segments: list[tuple[Interval, int]] = []
    cursor = int(slack[0])
    for i, d in enumerate(durations):
        start = cursor
        end = start + int(d)
        class_id = int(rng.integers(1, cfg.class_count + 1))
        segments.append(
            (
                Interval(start * cfg.snippet_duration_s, end * cfg.snippet_duration_s),
                class_id,
            )
        )
        cursor = end + gap + int(slack[i + 1])
    return grid, segments


def gen_corpus(cfg: SimConfig) -> CorpusLayout:
    """Sample ground-truth layouts: grids, action segments, video labels.

    Actions never overlap and keep at least `min_gap_snippets` between
    them; boundaries lie on snippet edges. Raises when a video cannot fit
    its sampled actions, naming the video index.
    """
    gt: dict[str, tuple[tuple[Interval, int], ...]] = {}
    grids: dict[str, TimeGrid] = {}
    for v in range(cfg.num_videos):
        vid = f"video_{v:04d}"
        grids[vid], segments = _layout_video(cfg, v)
        gt[vid] = tuple(segments)
    return CorpusLayout(GroundTruthSet(gt), grids, video_labels(gt, grids))


def _smooth_noise(rng: np.random.Generator, t: int, std: float) -> np.ndarray:
    """Low-frequency Gaussian noise: white draws box-filtered over
    NOISE_SMOOTH_SNIPPETS and rescaled back to the requested std. The
    draw happens even at std 0 so corpora differing only in noise level
    share all other randomness. A std near the float range overflows to
    +-inf, which the caller's clip to [0, 1] saturates."""
    white = rng.normal(0.0, 1.0, t)
    if t >= NOISE_SMOOTH_SNIPPETS > 1:
        kernel = np.full(NOISE_SMOOTH_SNIPPETS, 1.0 / NOISE_SMOOTH_SNIPPETS)
        white = np.convolve(white, kernel, mode="same") * math.sqrt(NOISE_SMOOTH_SNIPPETS)
    with np.errstate(over="ignore"):
        return white * std


def _class_score_table(cfg: SimConfig) -> np.ndarray:
    """Row c holds the class scores of a snippet of class c, for c in 0..C: a
    temperature-softened one-hot over the foreground classes (class 0, no
    action, gives a uniform row), then a background channel of 1 minus its
    peak, renormalized."""
    c = cfg.class_count
    logits = np.zeros((c + 1, c))
    logits[np.arange(1, c + 1), np.arange(c)] = 1.0 / cfg.score_temperature
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    fg = exp / exp.sum(axis=1, keepdims=True)
    rows = np.concatenate([fg, 1.0 - fg.max(axis=1, keepdims=True)], axis=1)
    return rows / rows.sum(axis=1, keepdims=True)


def _corrupt_video(
    cfg: SimConfig,
    video_index: int,
    grid: TimeGrid,
    segments: Sequence[tuple[Interval, int]],
    class_scores: np.ndarray,
) -> SnippetPredictions:
    """`class_scores`: `_class_score_table(cfg)`, indexed by snippet class."""
    rng = _video_rng(cfg.seed, 1, video_index)
    t = grid.num_snippets
    dur = grid.snippet_duration_s
    centers = snippet_centers(grid)

    # jitter boundaries in proportion to duration, then clamp to the video
    jittered: list[tuple[float, float, int, float]] = []
    for iv, class_id in segments:
        d = iv.duration_s
        s = iv.start_s + rng.normal(0.0, cfg.boundary_jitter_frac * d)
        e = iv.end_s + rng.normal(0.0, cfg.boundary_jitter_frac * d)
        s = min(max(s, 0.0), grid.duration_s)
        e = min(max(e, 0.0), grid.duration_s)
        jittered.append((s, e, class_id, 1.0))

    n_fp = int(rng.poisson(cfg.false_positive_rate))
    d_lo, d_hi = cfg.duration_snippet_range()
    false_segments: list[tuple[float, float, int, float]] = []
    for _ in range(n_fp):
        d = int(rng.integers(d_lo, min(d_hi, t) + 1))
        start = int(rng.integers(0, t - d + 1)) if t > d else 0
        class_id = int(rng.integers(1, cfg.class_count + 1))
        amp = float(rng.uniform(*FP_AMPLITUDE))
        false_segments.append((start * dur, (start + d) * dur, class_id, amp))

    # rows (start, end, class_id, amplitude); a snippet takes the last row
    # that holds its center, and false positives come first, so genuine
    # actions win overlaps. The last row holds no time: it is the background
    # that an owner of -1 (no row) selects.
    rows = np.array([*false_segments, *jittered, (0.0, 0.0, 0, 0.0)])
    owner = first_cover(centers, rows[:, 0], rows[:, 1], np.arange(rows.shape[0])[::-1])
    snippet_class = rows[owner, 2].astype(np.int64)

    att = np.clip(rows[owner, 3] + _smooth_noise(rng, t, cfg.attention_noise_std), 0.0, 1.0)

    return SnippetPredictions(att, class_scores[snippet_class])


def corrupt_predictions(
    ground_truth: GroundTruthSet,
    grids: Mapping[str, TimeGrid],
    cfg: SimConfig,
) -> dict[str, SnippetPredictions]:
    """Render noisy snippet predictions for every video.

    Ideal predictions put attention 1 inside actions and 0 outside, with
    class rows softened one-hots over the foreground classes and a
    background channel of 1 minus the foreground peak before row
    renormalization. Corruption jitters boundaries before rasterization,
    adds smoothed Gaussian attention noise, and injects Poisson-count
    false-positive segments of random class.
    """
    table = _class_score_table(cfg)
    out: dict[str, SnippetPredictions] = {}
    for v, vid in enumerate(sorted(grids)):
        out[vid] = _corrupt_video(cfg, v, grids[vid], ground_truth.segments.get(vid, ()), table)
    return out


def proposals_by_video(
    grids: Mapping[str, TimeGrid],
    labels: Mapping[str, VideoLabel],
    predictions: Mapping[str, SnippetPredictions],
    pipe: PipelineConfig,
) -> dict[str, Segments]:
    """Weak-branch proposals of every video of `predictions`, in sorted
    video-id order: extract, score, suppress."""
    return {
        vid: weak_proposals(
            predictions[vid],
            grids[vid],
            labels[vid],
            pipe.thresholds,
            oic_inflation=pipe.oic_inflation,
            sigma_nms=pipe.sigma_nms,
            min_score=pipe.min_score,
            extract_on=pipe.extract_on,
        )
        for vid in sorted(predictions)
    }


def pseudo_labels_by_video(
    proposals: Mapping[str, Segments],
    grids: Mapping[str, TimeGrid],
    strategy: str,
    pipe: PipelineConfig,
) -> dict[str, Segments]:
    """One strategy's pseudo labels of every video of `proposals`, in
    sorted video-id order."""
    return {
        vid: generate_pseudo_labels(
            strategy,
            proposals[vid],
            grids[vid],
            min_duration_s=pipe.min_duration_snippets * grids[vid].snippet_duration_s,
        )
        for vid in sorted(proposals)
    }


@dataclass(frozen=True)
class BenchmarkResult:
    """Per-strategy pseudo-label quality on one simulated corpus."""

    reports: Mapping[str, PseudoQuality]
    timings_ms: Mapping[str, float]

    def to_dict(self) -> dict:
        return {
            "strategies": {
                name: self.reports[name].to_dict() for name in sorted(self.reports)
            },
            "timings_ms": {k: self.timings_ms[k] for k in sorted(self.timings_ms)},
        }


def run_benchmark(
    cfg: SimConfig,
    strategies: Sequence[str],
    pipe: PipelineConfig | None = None,
) -> BenchmarkResult:
    """Generate one corpus and score every strategy's pseudo labels on it.

    The corpus and the weak-branch proposals are computed once and shared
    across strategies, so the comparison isolates the fusion step,
    mirroring a side-by-side strategy table. Timings: `simulate` (corpus),
    `weak_branch` (proposals) and one entry per strategy (fusion plus
    scoring). A repeated strategy name is fused and scored once; an unknown
    one raises before the corpus is built.
    """
    if not strategies:
        raise ValueError("at least one strategy required")
    strategies = list(dict.fromkeys(strategies))
    for name in strategies:
        lookup_strategy(name)
    pipe = pipe or PipelineConfig()
    t0 = time.perf_counter()
    layout = gen_corpus(cfg)
    predictions = corrupt_predictions(layout.ground_truth, layout.grids, cfg)
    timings = {"simulate": (time.perf_counter() - t0) * 1000.0}
    t0 = time.perf_counter()
    proposals = proposals_by_video(layout.grids, layout.labels, predictions, pipe)
    timings["weak_branch"] = (time.perf_counter() - t0) * 1000.0
    reports: dict[str, PseudoQuality] = {}
    for name in strategies:
        t1 = time.perf_counter()
        pseudos = pseudo_labels_by_video(proposals, layout.grids, name, pipe)
        reports[name] = pseudo_quality(pseudos, layout.ground_truth, pipe.eval_tious)
        timings[name] = (time.perf_counter() - t1) * 1000.0
    return BenchmarkResult(reports, timings)


def benchmark_many(
    cfg: SimConfig,
    strategies: Sequence[str],
    seeds: Sequence[int],
    pipe: PipelineConfig | None = None,
) -> dict:
    """Average per-strategy avg mAP over several reseeded corpora."""
    if not seeds:
        raise ValueError("at least one seed required")
    per_seed: dict[int, dict[str, float]] = {}
    for s in seeds:
        result = run_benchmark(dataclasses.replace(cfg, seed=int(s)), strategies, pipe)
        per_seed[int(s)] = {
            name: result.reports[name].average_map for name in strategies
        }
    mean = {
        name: sum(per_seed[s][name] for s in per_seed) / len(per_seed)
        for name in strategies
    }
    return {"per_seed": per_seed, "mean": mean}
