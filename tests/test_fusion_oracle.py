"""Exact oracle for the fusion strategies.

`reference_fusion` is the original per-proposal code: one wavelet added to
its class column at a time, one `core.runs` walk per class column, one
coverage mask painted at a time for `hard`, and a scalar tIoU against
every remaining proposal for `gauss`; `soft`, `topk` and `threshold` are
the one-line selections of `Proposal.as_pseudo`. The package's array
passes (ricker's wavelets in blocks of at most `fusion.BLOCK_CELLS` cells,
hard's snippet owners from `core.first_cover`, gauss's groups from each
leader's window of start-sorted proposals with each group's weights scaled
by a power of two, exact on these scores) must give the same wavelet bytes (signed zeros included) and the same pseudo labels, field for field (dataclass `==` of
the `segment_objects` conversions, no tolerance), on every corpus.
"""
import numpy as np
import pytest

import reference_fusion as ref
from pseudotal import fusion
from pseudotal.core import TimeGrid, snippet_centers
from pseudotal.fusion import (
    SCORE_THRESHOLD,
    STRATEGIES,
    TOP_K,
    FusedWavelet,
    RickerParams,
    fuse_ricker,
    ricker_value,
    segments_from_wavelet,
)
from segment_objects import Interval, Proposal, to_pseudos, to_segments

SEEDS = range(200)
SCORE_LEVELS = (-0.5, 0.0, 0.25, 0.5, 1.0)


def random_grid(rng) -> TimeGrid:
    t = int(rng.choice([1, 2, 3, int(rng.integers(4, 200))]))
    dur = float(rng.choice([1.0, 0.5, 1.0 / 3.0, rng.uniform(0.05, 3.0)]))
    return TimeGrid(t, dur, int(rng.integers(1, 5)))


def random_proposals(rng, grid: TimeGrid, n: int) -> list[Proposal]:
    """Proposals on the grid's snippet edges (exact ties of boundaries and
    durations) or anywhere around the video, with scores from a few levels
    (ties, zero, negative) or uniform; some are tiny and far from every
    snippet center, so their wavelet underflows to signed zeros."""
    extent, dur = grid.duration_s, grid.snippet_duration_s
    out = []
    for _ in range(n):
        kind = int(rng.integers(0, 4))
        if kind == 0:
            first = int(rng.integers(0, grid.num_snippets))
            last = int(rng.integers(first, grid.num_snippets))
            iv = Interval(first * dur, (last + 1) * dur)
        elif kind == 1:
            s = float(rng.uniform(-0.2 * extent, extent))
            iv = Interval(s, s + float(rng.uniform(1e-3, extent)))
        elif kind == 2:
            s = float(rng.choice([-1.0, 1.0])) * float(rng.uniform(10.0, 40.0)) * extent
            iv = Interval(s, s + 1e-3 * dur)
        else:
            iv = Interval(0.0, extent)
        if rng.integers(0, 2):
            score = float(rng.choice(SCORE_LEVELS))
        else:
            score = float(rng.uniform(-0.2, 1.5))
        out.append(Proposal(iv, score, int(rng.integers(1, grid.class_count + 1))))
    return out


def assert_fusion_matches(props: list[Proposal], grid: TimeGrid) -> None:
    segs = to_segments(props)
    got, want = fuse_ricker(segs, grid), ref.fuse_ricker(props, grid)
    assert got.values.tobytes() == want.values.tobytes()
    for min_dur in (0.0, 2.0 * grid.snippet_duration_s):
        assert to_pseudos(segments_from_wavelet(got, min_dur)) == ref.segments_from_wavelet(
            want, min_dur)
    assert to_pseudos(fusion._fuse_hard(segs, grid)) == ref._fuse_hard(props, grid)
    assert to_pseudos(fusion._fuse_gauss(segs)) == ref._fuse_gauss(props)
    selections = {
        "soft": props,
        "topk": sorted(props, key=ref._by_score)[:TOP_K],
        "threshold": [p for p in props if p.score >= SCORE_THRESHOLD],
    }
    for name, chosen in selections.items():
        assert to_pseudos(STRATEGIES[name](segs, grid, 0.0)) == [p.as_pseudo() for p in chosen]


@pytest.mark.parametrize("seed", SEEDS)
def test_strategies_match_the_oracle(seed):
    rng = np.random.default_rng(seed)
    for _ in range(3):
        grid = random_grid(rng)
        props = random_proposals(rng, grid, int(rng.integers(0, 40)))
        if props and rng.integers(0, 3) == 0:  # exact duplicates
            props += props[: int(rng.integers(1, len(props) + 1))]
        assert_fusion_matches(props, grid)


@pytest.mark.parametrize("seed", range(20))
def test_blocks_smaller_than_the_proposal_count(monkeypatch, seed):
    """A cell budget of a few rows splits every video's ricker wavelets into
    many blocks (BLOCK_CELLS splits nothing else)."""
    rng = np.random.default_rng(1000 + seed)
    grid = random_grid(rng)
    monkeypatch.setattr(fusion, "BLOCK_CELLS", grid.num_snippets * int(rng.integers(1, 4)))
    assert_fusion_matches(random_proposals(rng, grid, int(rng.integers(5, 60))), grid)


def test_a_video_beyond_the_cell_budget():
    """More ricker wavelet cells than one block holds."""
    rng = np.random.default_rng(7)
    grid = TimeGrid(700, 1.0, 3)
    props = random_proposals(rng, grid, 120)
    assert grid.num_snippets * len(props) > fusion.BLOCK_CELLS
    assert_fusion_matches(props, grid)


def test_dense_overlapping_proposals():
    """Hundreds of one-class proposals that overlap, with tied scores and
    equal starts, and the leader [1, 3] with partners at exactly tIoU 0.5:
    [-1, 3] starts a whole leader length before it, the farthest a partner
    can. [-1 - 2**-40, 3] falls just short of 0.5, and [-3, 3] starts at
    the far edge of the window `gauss` searches."""
    rng = np.random.default_rng(41)
    grid = TimeGrid(12, 0.5, 1)
    leader = [Proposal(Interval(1.0, 3.0), 1.0, 1)]
    edge = [Proposal(Interval(s, e), 0.5, 1)
            for s, e in ((-1.0, 3.0), (1.0, 5.0), (2.0, 3.0), (-3.0, 3.0), (-1.0 - 2**-40, 3.0))]
    starts = rng.choice(np.arange(-2.0, 4.0, 0.25), 300)
    rest = [Proposal(Interval(s, s + d), score, 1) for s, d, score in zip(
        starts.tolist(), rng.choice([0.5, 1.0, 2.0, 4.0], 300).tolist(),
        rng.choice([0.25, 0.5, 0.75], 300).tolist())]
    props = leader + edge + rest
    # the leader's group: itself, [-1, 3], [1, 5] and [2, 3]
    first = to_pseudos(fusion._fuse_gauss(to_segments(leader + edge)))[0]
    assert first.interval == Interval(2.0 / 2.5, 8.5 / 2.5)
    assert_fusion_matches(props, grid)


def random_wavelet(rng) -> FusedWavelet:
    """Values from a few levels (zeros and exact ties) or uniform, with
    positive runs at either edge and single-snippet grids."""
    grid = random_grid(rng)
    shape = (grid.num_snippets, grid.class_count)
    if rng.integers(0, 2):
        values = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], size=shape)
    else:
        values = rng.normal(0.0, 1.0, size=shape)
    if rng.integers(0, 3) == 0:
        values[[0, -1], :] = 1.0
    return FusedWavelet(values, grid)


@pytest.mark.parametrize("seed", SEEDS)
def test_segments_of_any_wavelet_match_the_oracle(seed):
    rng = np.random.default_rng(5000 + seed)
    for _ in range(5):
        wavelet = random_wavelet(rng)
        for min_dur in (0.0, float(rng.uniform(0.0, 4.0))):
            got = to_pseudos(segments_from_wavelet(wavelet, min_dur))
            assert got == ref.segments_from_wavelet(wavelet, min_dur)


def test_the_corpora_reach_the_edge_cases():
    seen = set()
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        for _ in range(3):
            grid = random_grid(rng)
            props = random_proposals(rng, grid, int(rng.integers(0, 40)))
            scores = [p.score for p in props]
            if grid.num_snippets == 1:
                seen.add("single snippet")
            if len(set(scores)) < len(scores):
                seen.add("tied scores")
            if 0.0 in scores:
                seen.add("zero score")
            if any(s < 0 for s in scores):
                seen.add("negative score")
            centers = snippet_centers(grid)
            for p in props:
                iv = p.interval
                params = RickerParams(0.5 * iv.duration_s, 0.5 * (iv.start_s + iv.end_s))
                wav = ricker_value(centers, params)
                if p.score > 0 and np.any(np.signbit(wav) & (wav == 0.0)):
                    seen.add("wavelet underflows to -0.0")
            values = ref.fuse_ricker(props, grid).values
            positive = values > 0.0
            if positive[0].any():
                seen.add("run at snippet 0")
            if positive[-1].any():
                seen.add("run at snippet T-1")
    assert seen >= {
        "single snippet", "tied scores", "zero score", "negative score",
        "wavelet underflows to -0.0",
        "run at snippet 0", "run at snippet T-1",
    }


def test_any_small_video_matches_the_oracle():
    """Hypothesis draws videos of a few snippets, proposals on snippet edges
    with scores from SCORE_LEVELS, and ricker cell budgets down to one cell."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    rows = st.lists(
        st.tuples(st.integers(0, 12), st.integers(1, 6), st.sampled_from(SCORE_LEVELS),
                  st.integers(1, 3)),
        max_size=25,
    )

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.integers(1, 16), st.sampled_from([1.0, 0.5, 0.3]), rows, st.integers(1, 40))
    def check(t, dur, rows, block):
        grid = TimeGrid(t, dur, 3)
        props = [Proposal(Interval(s * dur, (s + d) * dur), score, c) for s, d, score, c in rows]
        old = fusion.BLOCK_CELLS
        fusion.BLOCK_CELLS = block
        try:
            assert_fusion_matches(props, grid)
        finally:
            fusion.BLOCK_CELLS = old

    check()
