"""Exact oracle for the anchor targets and the cover rule.

`reference_targets` is the original per-label code: a `while` loop up the
level ladder per `Segment` row, a stable Python sort per level, and one
boolean mask over a level's anchors per pseudo label. The package's
`assign_level` and `build_targets` must give the same levels and the same
five anchor arrays, dtype and bytes, on every input. `core.first_cover` is
checked against a double loop over times and segments.
"""
import numpy as np
import pytest

import reference_targets as ref
from pseudotal.config import MAX_LEVELS
from pseudotal.core import Segments, TimeGrid, first_cover
from pseudotal.mask import SnippetMask
from pseudotal.targets import ANCHOR_FIELDS, PyramidConfig, assign_level, build_targets

SEEDS = range(300)


def brute_cover(times, start, end, order):
    """The first of `order` whose [start, end) holds each time, else -1."""
    out = []
    for t in times:
        out.append(next((k for k in order if start[k] <= t < end[k]), -1))
    return out


def random_cover_case(rng):
    """Ascending times with repeats, and segments on or between the times,
    some empty (start >= end) or outside them, under an order that may be
    empty, a strict subset, or every segment in a shuffled order."""
    n_times = int(rng.choice([0, 1, int(rng.integers(2, 40))]))
    times = np.sort(rng.choice(np.arange(20) * 0.5, size=n_times))
    n = int(rng.integers(0, 12))
    points = np.concatenate([np.arange(-2, 22) * 0.5, rng.uniform(-1.0, 11.0, size=8)])
    start, end = rng.choice(points, size=n), rng.choice(points, size=n)
    order = rng.permutation(n)
    if n and rng.integers(0, 3) == 0:
        order = order[: int(rng.integers(0, n))]
    return times, start, end, order


@pytest.mark.parametrize("seed", SEEDS)
def test_first_cover_matches_a_double_loop(seed):
    rng = np.random.default_rng(seed)
    for _ in range(10):
        times, start, end, order = random_cover_case(rng)
        owner = first_cover(times, start, end, order)
        assert owner.dtype == np.int64
        assert owner.tolist() == brute_cover(times, start, end, order.tolist())


def test_first_cover_edge_cases():
    times = np.array([0.5, 1.5, 1.5, 2.5])
    start, end = np.array([0.0, 1.5, 1.0, 2.0]), np.array([2.0, 1.5, 3.0, 1.0])
    assert first_cover(times[:0], start, end, [0, 1]).tolist() == []
    assert first_cover(times, start, end, np.array([], dtype=np.int64)).tolist() == [-1] * 4
    # segment 1 (start == end) and segment 3 (start > end) hold no time
    assert first_cover(times, start, end, [1, 3]).tolist() == [-1] * 4
    # the first in order wins, not the lowest index; ends are open
    assert first_cover(times, start, end, [2, 0]).tolist() == [0, 2, 2, 2]
    assert first_cover(times, start, end, [0, 2]).tolist() == [0, 0, 0, 2]


def test_the_cover_cases_reach_the_edge_cases():
    seen = set()
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        for _ in range(10):
            times, start, end, order = random_cover_case(rng)
            n = start.shape[0]
            seen.add(("times", min(times.shape[0], 2)))
            if n and order.shape[0] == 0:
                seen.add("empty order")
            if 0 < order.shape[0] < n:
                seen.add("strict subset")
            if (start[order] >= end[order]).any():
                seen.add("start >= end")
            if np.unique(times).shape[0] < times.shape[0]:
                seen.add("repeated times")
            owners = [k for k in brute_cover(times, start, end, order.tolist()) if k >= 0]
            held = [sum(start[k] <= t < end[k] for k in order) for t in times]
            if owners and max(held) > 1:
                seen.add("overlap")
    assert seen >= {
        ("times", 0), ("times", 1), ("times", 2), "empty order", "strict subset",
        "start >= end", "repeated times", "overlap",
    }


def random_targets_case(rng):
    """A grid, a pyramid of 1-8 levels (or MAX_LEVELS), a random mask, and
    pseudo labels on snippet edges (ties of length and of start), anywhere
    around and past the video, or within 1e-6 of a level bound."""
    t = int(rng.choice([1, 2, 3, int(rng.integers(4, 300))]))
    dur = float(rng.choice([1.0, 0.5, 1.0 / 3.0, rng.uniform(0.05, 3.0)]))
    grid = TimeGrid(t, dur, int(rng.integers(1, 5)))
    num_levels = MAX_LEVELS if rng.integers(0, 8) == 0 else int(rng.integers(1, 9))
    rows = []
    for _ in range(int(rng.choice([0, int(rng.integers(1, 40))]))):
        kind = int(rng.integers(0, 4))
        if kind == 0:
            first = int(rng.integers(0, t))
            s, e = first * dur, (int(rng.integers(first, t)) + 1) * dur
        elif kind == 1:
            s = float(rng.uniform(-0.2, 1.1)) * grid.duration_s
            e = s + float(rng.uniform(1e-3, 1.0)) * grid.duration_s
        elif kind == 2:
            bound = 4.0 * 2.0 ** int(rng.integers(0, 9))
            s = float(rng.integers(0, t)) * dur
            e = s + (bound + float(rng.choice([-1e-6, 0.0, 1e-6]))) * dur
        else:
            s, e = float(rng.uniform(1.0, 2.0)) * grid.duration_s, 3.0 * grid.duration_s
        if e > s:
            rows.append((s, e, int(rng.integers(1, grid.class_count + 1)), 1.0))
    if rows and rng.integers(0, 3) == 0:  # exact duplicates
        rows += rows[: int(rng.integers(1, len(rows) + 1))]
    pseudos = Segments(*(tuple(zip(*rows)) or ((), (), (), ())))
    mask = SnippetMask(rng.integers(0, 2, size=t), grid)
    return pseudos, mask, PyramidConfig(num_levels)


@pytest.mark.parametrize("seed", SEEDS)
def test_build_targets_matches_the_oracle(seed):
    rng = np.random.default_rng(7000 + seed)
    for _ in range(10):
        pseudos, mask, cfg = random_targets_case(rng)
        levels = assign_level(pseudos, cfg, mask.grid)
        assert levels.tolist() == [ref.assign_level(p, cfg, mask.grid) for p in pseudos]
        got, want = build_targets(pseudos, mask, cfg), ref.build_targets(pseudos, mask, cfg)
        assert got.level_sizes == want.level_sizes
        for name in ANCHOR_FIELDS:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_the_targets_cases_reach_the_edge_cases():
    seen = set()
    for seed in SEEDS:
        rng = np.random.default_rng(7000 + seed)
        for _ in range(10):
            pseudos, mask, cfg = random_targets_case(rng)
            grid = mask.grid
            if len(pseudos) == 0:
                seen.add("no pseudo labels")
            if cfg.num_levels == MAX_LEVELS:
                seen.add("MAX_LEVELS")
            if (pseudos.end_s > grid.duration_s).any():
                seen.add("past the video")
            length = pseudos.end_s - pseudos.start_s
            if np.unique(length).shape[0] < len(pseudos):
                seen.add("tied length")
            if np.unique(pseudos.start_s).shape[0] < len(pseudos):
                seen.add("tied start")
            snippets = length / grid.snippet_duration_s
            bounds = 4.0 * 2.0 ** np.arange(8)
            if (np.abs(snippets[:, None] - bounds) <= 2e-6).any():
                seen.add("near a level bound")
            forward = build_targets(pseudos, mask, cfg)
            backward = build_targets(Segments(pseudos.start_s[::-1], pseudos.end_s[::-1],
                                              pseudos.class_id[::-1], pseudos.score[::-1]),
                                     mask, cfg)
            if not np.array_equal(forward.class_label, backward.class_label):
                seen.add("order decides a tie")
    assert seen >= {
        "no pseudo labels", "MAX_LEVELS", "past the video", "tied length", "tied start",
        "near a level bound", "order decides a tie",
    }
