"""Seeded synthetic corpus standing in for a trained weak branch.

Videos are laid out as non-overlapping actions on a snippet grid with
video-level labels; snippet predictions are then rendered as ideal
attention/class rows and corrupted with boundary jitter, low-frequency
attention noise, and false-positive segments. Every byte of output is a
pure function of the config: video v draws from the PCG64 substream
seeded with SeedSequence((seed, stage, v)), stage 0 for layout and 1 for
corruption, so no video's draws depend on another video.

`gen_corpus` lays out the whole corpus; `corrupt_predictions` renders one
video's predictions from its layout, so a caller holds one video's
predictions at a time; `simulate` loads only them. `run_benchmark` runs the
weak branch and each fusion strategy on every video with the arguments that
`PipelineConfig` gives them, as `extract` and `fuse` do, binding `_SWEEP`
into this module's globals (where bench/tracing.py wraps them) as it runs.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import time
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import lazy_globals
from .config import PipelineConfig, check_fields, config_from_dict
from .core import (GroundTruthSet, Segments, SnippetPredictions, TimeGrid, first_cover, shown,
                   snippet_centers)

__all__ = [
    "SimConfig",
    "CorpusLayout",
    "BenchmarkResult",
    "gen_corpus",
    "corrupt_predictions",
    "run_benchmark",
    "benchmark_many",
    "RNG_NAME",
]

_SWEEP = ("weak_branch", "fusion", "evaluation")  # the modules `run_benchmark` binds
_bind, __getattr__ = lazy_globals(globals(), _SWEEP)

# documented in report headers so corpora are reproducible elsewhere
RNG_NAME = "numpy PCG64, SeedSequence((seed, stage, video_index)), stage 0=layout 1=corruption"

NOISE_SMOOTH_SNIPPETS = 5
FP_AMPLITUDE = (0.5, 1.0)
PLACEMENT_TRIES = 100

# The most cells num_videos * snippets_per_video[1] * (class_count + 1) a
# corpus may have. Videos are corrupted one at a time, so this bounds no
# memory: it bounds the work and the SP file that one `sim` section can ask
# for (its (T, C + 1) score matrices hold at most 2**24 floats together), and
# a huge section is refused before the first video is drawn.
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
        t_hi = self.snippets_per_video[1]
        if self.duration_range_s[0] / self.snippet_duration_s > t_hi:  # ceil(x) > n iff x > n
            raise ValueError("duration_range_s[0] / snippet_duration_s must be at most "
                             "snippets_per_video[1]")
        if self.duration_range_s[1] / self.snippet_duration_s >= 2**63:  # the int64 draw's bound
            raise ValueError("duration_range_s[1] / snippet_duration_s must be below 2**63")
        self.duration_snippet_range()
        # each action and, on average, each false positive needs a snippet;
        # past that they are only draws and loop iterations
        if self.actions_per_video[1] > t_hi or self.false_positive_rate > t_hi:
            raise ValueError("actions_per_video[1] and false_positive_rate must be at most "
                             "snippets_per_video[1]")
        cells = self.num_videos * self.snippets_per_video[1] * (self.class_count + 1)
        if cells > MAX_CORPUS_CELLS:
            raise ValueError(
                f"sim config num_videos * snippets_per_video[1] * (class_count + 1) must be "
                f"at most {MAX_CORPUS_CELLS}, got {shown(self.num_videos)} * "
                f"{shown(self.snippets_per_video[1])} * ({shown(self.class_count)} + 1)"
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
    """Ground truth plus per-video grids, keyed by video id; `grids` lists
    the videos in the order of their index."""

    ground_truth: GroundTruthSet
    grids: Mapping[str, TimeGrid]

    def video_ids(self) -> list[str]:
        return sorted(self.grids)

    def indexed_ids(self) -> list[tuple[int, str]]:
        """(index, id) of every video in ascending id order: the index seeds
        the video's streams, and `video_10000` sorts before `video_1001`."""
        return sorted(enumerate(self.grids), key=lambda pair: pair[1])


def _video_rng(seed: int, stage: int, video_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, stage, video_index)))


def _layout_video(cfg: SimConfig, video_index: int) -> tuple[TimeGrid, Segments]:
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
        # each draw fits first: a sum of int64 draws near 2**63 wraps
        if cand.max() <= t and int(cand.sum()) + gap * (n_actions - 1) <= t:
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
    rows = []
    cursor = int(slack[0])
    for i, d in enumerate(durations):
        end = cursor + int(d)
        class_id = int(rng.integers(1, cfg.class_count + 1))
        rows.append((cursor * cfg.snippet_duration_s, end * cfg.snippet_duration_s, class_id, 1.0))
        cursor = end + gap + int(slack[i + 1])
    return grid, Segments(*zip(*rows))


def gen_corpus(cfg: SimConfig) -> CorpusLayout:
    """Sample ground-truth layouts: grids and action segments, each video's
    segments one `Segments` (scores 1.0) of the `GroundTruthSet`.

    Actions never overlap and keep at least `min_gap_snippets` between
    them; boundaries lie on snippet edges. Raises when a video cannot fit
    its sampled actions, naming the video index.
    """
    gt: dict[str, Segments] = {}
    grids: dict[str, TimeGrid] = {}
    for v in range(cfg.num_videos):
        vid = f"video_{v:04d}"
        grids[vid], gt[vid] = _layout_video(cfg, v)
    return CorpusLayout(GroundTruthSet(gt), grids)


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


@functools.lru_cache(maxsize=1)  # one corpus's videos share it
def _class_score_table(cfg: SimConfig) -> np.ndarray:
    """Row c holds the class scores of a snippet of class c, for c in 0..C: a
    temperature-softened one-hot over the foreground classes (class 0, no
    action, gives a uniform row), then a background channel of 1 minus its
    peak, renormalized; read-only. The logits are built already shifted by
    their row maximum (0 on the class column, -1/T elsewhere), so a
    temperature whose 1/T overflows gives one-hot rows."""
    c = cfg.class_count
    logits = np.full((c + 1, c), -1.0 / cfg.score_temperature)
    logits[0] = 0.0
    logits[np.arange(1, c + 1), np.arange(c)] = 0.0
    exp = np.exp(logits)
    fg = exp / exp.sum(axis=1, keepdims=True)
    rows = np.concatenate([fg, 1.0 - fg.max(axis=1, keepdims=True)], axis=1)
    table = rows / rows.sum(axis=1, keepdims=True)
    table.setflags(write=False)
    return table


def corrupt_predictions(
    cfg: SimConfig,
    video_index: int,
    grid: TimeGrid,
    segments: Segments,
) -> SnippetPredictions:
    """Render the noisy snippet predictions of video `video_index`, whose
    layout is `grid` and its ground-truth `segments` (one `Segments`, as
    `gen_corpus` lays it out; the scores are not read).

    Ideal predictions put attention 1 inside actions and 0 outside, with
    class rows softened one-hots over the foreground classes and a
    background channel of 1 minus the foreground peak before row
    renormalization. Corruption jitters boundaries before rasterization,
    adds smoothed Gaussian attention noise, and injects Poisson-count
    false-positive segments of random class.
    """
    rng = _video_rng(cfg.seed, 1, video_index)
    t = grid.num_snippets
    dur = grid.snippet_duration_s
    centers = snippet_centers(grid)

    # jitter boundaries in proportion to duration, then clamp to the video
    jittered: list[tuple[float, float, int, float]] = []
    for start, end, class_id, _ in segments:
        d = end - start
        s = start + rng.normal(0.0, cfg.boundary_jitter_frac * d)
        e = end + rng.normal(0.0, cfg.boundary_jitter_frac * d)
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

    return SnippetPredictions(att, _class_score_table(cfg)[snippet_class])


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

    The weak-branch proposals are computed once and shared across
    strategies, so the comparison isolates the fusion step, mirroring a
    side-by-side strategy table. Each video's predictions are corrupted,
    run through the weak branch and dropped before the next video's, so
    only the layout and the proposals are held for the sweep. Timings:
    `simulate` (the layout plus the sum of the per-video corruptions),
    `weak_branch` (the sum of the per-video proposal runs) and one entry per
    strategy (fusion plus scoring). A repeated strategy name is fused and
    scored once; an unknown one raises before the corpus is built.
    """
    _bind(*_SWEEP)
    if not strategies:
        raise ValueError("at least one strategy required")
    strategies = list(dict.fromkeys(strategies))
    for name in strategies:
        lookup_strategy(name)
    pipe = pipe or PipelineConfig()
    t0 = time.perf_counter()
    layout = gen_corpus(cfg)
    simulate_s, weak_s = time.perf_counter() - t0, 0.0
    proposals = {}
    for v, vid in layout.indexed_ids():
        grid, gt = layout.grids[vid], layout.ground_truth.videos[vid]
        t0 = time.perf_counter()
        preds = corrupt_predictions(cfg, v, grid, gt)
        t1 = time.perf_counter()
        label = VideoLabel.from_classes(gt.class_id, grid.class_count)
        proposals[vid] = weak_proposals(preds, grid, label, **pipe.weak_branch())
        simulate_s += t1 - t0
        weak_s += time.perf_counter() - t1
    timings = {"simulate": simulate_s * 1000.0, "weak_branch": weak_s * 1000.0}
    reports: dict[str, PseudoQuality] = {}
    for name in strategies:
        t1 = time.perf_counter()
        pseudos = {
            vid: generate_pseudo_labels(name, segments, layout.grids[vid],
                                        min_duration_s=pipe.min_duration_s(layout.grids[vid]))
            for vid, segments in proposals.items()
        }
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
