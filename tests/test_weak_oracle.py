"""Exact oracle for the weak branch.

`reference_weak` is the original post-processing: one `core.runs` call per
labelled class and threshold, four boolean masks over every snippet per
`oic_score`, and a soft-NMS that picks each survivor with a lambda key over
numpy scalars and decays every other proposal of its class. The package's
all-threshold runs, sliced OIC means and soft-NMS over a heap, which decays
only `overlap_pairs` partners, must give the same proposals, scores and
order, bit for bit (dataclass `==` of the `segment_objects` conversions, no
tolerance), on every corpus.
"""
import numpy as np
import pytest

import reference_weak as ref
from pseudotal.core import SnippetPredictions, TimeGrid, threshold_runs
from pseudotal.weak_branch import (
    VideoLabel,
    compute_sps,
    extract_proposals,
    oic_scores,
    soft_nms,
    weak_proposals,
)
from segment_objects import Interval, Proposal, segments, to_proposals, to_segments

DEFAULT_THRESHOLDS = tuple(round(0.10 + 0.05 * i, 2) for i in range(17))
SEEDS = range(320)


def _oic(column, iv, grid, inflation):
    """The package's contrast score of one class-1 proposal `iv` on `column`."""
    return oic_scores(column[:, None], segments((iv.start_s, iv.end_s, 1, 0.0)), grid,
                      inflation)[0]


def _values(rng, shape, quantized: bool) -> np.ndarray:
    """Values in [0, 1]; quantized ones sit on multiples of 1/8, so they hit
    thresholds exactly and give equal OIC means (score ties)."""
    if quantized:
        return rng.integers(0, 9, size=shape) / 8.0
    return rng.uniform(0.0, 1.0, size=shape)


def random_video(rng):
    """(predictions, grid, label, thresholds) of one random video.

    T runs from 1 snippet up. Some columns are flat under attention 1 (one
    run over the whole video, both flanks clipped, once a threshold is at
    or below the column's value), some are zero (no run at any threshold),
    and some are high at both ends (runs touching snippets 0 and T-1)."""
    t = int(rng.choice([1, 2, 3, int(rng.integers(4, 80))]))
    c = int(rng.integers(1, 5))
    dur = float(rng.choice([1.0, 0.5, 0.64, 1.0 / 3.0, rng.uniform(0.05, 3.0)]))
    quantized = bool(rng.integers(0, 2))
    if quantized:
        thresholds = tuple(float(k) / 8.0 for k in rng.choice(np.arange(1, 8), 3, replace=False))
    else:
        thresholds = DEFAULT_THRESHOLDS if rng.integers(0, 2) else tuple(
            rng.uniform(0.02, 0.98, int(rng.integers(1, 6))).tolist()
        )
    attention = _values(rng, t, quantized)
    fg = _values(rng, (t, c), quantized) / c  # foreground row sums stay <= 1
    for col in range(c):
        kind = int(rng.integers(0, 6))
        if kind == 0:  # flat
            fg[:, col] = 1.0 / c
            attention[:] = 1.0
        elif kind == 1:  # zero, below every threshold
            fg[:, col] = 0.0
        elif kind == 2:  # high at both ends of the video
            fg[[0, -1], col] = 1.0 / c
            attention[[0, -1]] = 1.0
    if rng.integers(0, 4) == 0:  # class 1 holds the whole row: z = attention
        fg[:, 0] = 1.0
        fg[:, 1:] = 0.0
    scores = np.column_stack([fg, 1.0 - fg.sum(axis=1)])
    preds = SnippetPredictions(attention, scores)
    present = rng.random(c) < 0.6
    present[int(rng.integers(0, c))] = True
    label = VideoLabel(present.astype(np.int64))
    return preds, TimeGrid(t, dur, c), label, thresholds


def _params(rng) -> dict:
    return {
        "oic_inflation": float(rng.choice([0.25, 1.0, rng.uniform(0.01, 1.0)])),
        "sigma_nms": float(rng.choice([0.5, 0.1, 2.0])),
        "min_score": float(rng.choice([0.001, 0.0, 0.05, 0.2])),
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_weak_proposals_match_the_oracle(seed):
    rng = np.random.default_rng(seed)
    for _ in range(3):
        preds, grid, label, thresholds = random_video(rng)
        params = _params(rng)
        for extract_on in ("sps", "attention"):
            got = weak_proposals(preds, grid, label, thresholds, extract_on=extract_on, **params)
            want = ref.weak_proposals(
                preds, grid, label, thresholds, extract_on=extract_on, **params
            )
            assert to_proposals(got) == want
        z = compute_sps(preds.attention, preds.class_scores)
        raw = to_proposals(extract_proposals(z, grid, thresholds, label))
        assert raw == ref.extract_proposals(z, grid, thresholds, label)
        scored = []
        for p in raw:
            column = z[:, p.class_id - 1]
            score = _oic(column, p.interval, grid, params["oic_inflation"])
            assert score == ref.oic_score(column, p.interval, grid, params["oic_inflation"])
            scored.append(Proposal(p.interval, score, p.class_id))
        got = soft_nms(to_segments(scored), params["sigma_nms"], params["min_score"])
        assert to_proposals(got) == ref.soft_nms(scored, params["sigma_nms"], params["min_score"])


def test_the_corpora_reach_the_edge_cases():
    """The seeded corpora hold every case the oracle test is meant to pin."""
    seen = set()
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        for _ in range(3):
            preds, grid, label, thresholds = random_video(rng)
            params = _params(rng)
            z = compute_sps(preds.attention, preds.class_scores)
            raw = to_proposals(extract_proposals(z, grid, thresholds, label))
            if grid.num_snippets <= 2:
                seen.add(f"T={grid.num_snippets}")
            spans = {(round(p.interval.start_s / grid.snippet_duration_s),
                      round(p.interval.end_s / grid.snippet_duration_s)) for p in raw}
            if any(first == 0 for first, _ in spans):
                seen.add("run at snippet 0")
            if any(end == grid.num_snippets for _, end in spans):
                seen.add("run at snippet T-1")
            if (0, grid.num_snippets) in spans and params["oic_inflation"] == 1.0:
                seen.add("inflation 1.0, both flanks clipped")
            if not raw:
                seen.add("no run at any threshold")
            scored = [
                Proposal(p.interval, _oic(z[:, p.class_id - 1], p.interval, grid,
                                          params["oic_inflation"]), p.class_id)
                for p in raw
            ]
            keys = [(p.class_id, p.score, p.interval.start_s) for p in scored]
            if len(set(keys)) < len(keys):
                seen.add("equal scores with equal starts")
            out = soft_nms(to_segments(scored), params["sigma_nms"], params["min_score"])
            best = max((p.score for p in scored), default=-1.0)
            if out and len(out) < len(scored) and best >= params["min_score"]:
                seen.add("min_score drops in the loop")
    assert seen >= {
        "T=1", "T=2", "run at snippet 0", "run at snippet T-1",
        "inflation 1.0, both flanks clipped", "no run at any threshold",
        "equal scores with equal starts", "min_score drops in the loop",
    }


def test_oic_score_off_the_grid():
    """Intervals with arbitrary float endpoints, partly or wholly outside
    the video, in both contiguous and strided columns."""
    rng = np.random.default_rng(2024)
    for _ in range(3000):
        t = int(rng.integers(1, 50))
        grid = TimeGrid(t, float(rng.uniform(0.1, 2.0)), 1)
        z = rng.uniform(0.0, 1.0, (t, 3))
        column = z[:, int(rng.integers(0, 3))]
        extent = grid.duration_s
        start = float(rng.uniform(-0.5 * extent, 1.2 * extent))
        iv = Interval(start, start + float(rng.uniform(1e-3, extent)))
        inflation = float(rng.choice([1.0, 0.25, rng.uniform(1e-3, 1.0)]))
        assert _oic(column, iv, grid, inflation) == ref.oic_score(column, iv, grid, inflation)


def _random_proposals(rng, n: int, integer: bool) -> list[Proposal]:
    out = []
    for _ in range(n):
        if integer:  # integer endpoints and few score levels: many exact ties
            s = int(rng.integers(0, 10))
            iv = Interval(s, s + int(rng.integers(1, 6)))
            score = float(rng.integers(1, 5)) / 4.0
        else:
            s = float(rng.uniform(-5.0, 30.0))
            iv = Interval(s, s + float(rng.uniform(0.01, 10.0)))
            score = float(rng.uniform(-0.2, 1.0))
        out.append(Proposal(iv, score, int(rng.integers(1, 4))))
    return out


def test_soft_nms_on_unsorted_off_grid_proposals():
    rng = np.random.default_rng(77)
    for _ in range(1500):
        props = _random_proposals(rng, int(rng.integers(0, 25)), bool(rng.integers(0, 2)))
        if props and rng.integers(0, 3) == 0:  # exact duplicates too
            props += props[: int(rng.integers(1, len(props) + 1))]
        rng.shuffle(props)
        sigma = float(rng.choice([0.5, 0.05, 3.0]))
        min_score = float(rng.choice([0.001, 0.3, 0.0, -1.0]))
        got = soft_nms(to_segments(props), sigma, min_score)
        assert to_proposals(got) == ref.soft_nms(props, sigma, min_score)


def _nested_proposals(rng, per_class: int, classes: int) -> list[Proposal]:
    """`per_class` proposals of each class around one center, so that they
    nest and every two of them intersect, and 10 to 60 more around a center
    100 s later, disjoint from them; scores on a few levels (ties), negative
    ones among them, and some exact duplicates."""
    out = []
    for class_id in range(1, classes + 1):
        center = float(rng.uniform(10.0, 40.0))
        far = int(rng.integers(10, 60))
        for c in [center] * per_class + [center + 100.0] * far:
            if rng.integers(0, 2):  # integer half-widths: equal starts and ends
                left, right = (float(w) for w in rng.integers(1, 8, 2))
            else:
                left, right = (float(w) for w in rng.uniform(0.05, 9.0, 2))
            score = float(rng.choice([1.0, 0.75, 0.5, 0.25, -0.25, rng.uniform(-0.5, 1.0)]))
            out.append(Proposal(Interval(c - left, c + right), score, class_id))
        out += out[-per_class - far:][: int(rng.integers(0, 20))]
    return out


@pytest.mark.parametrize("seed", range(6))
def test_soft_nms_on_hundreds_of_nested_proposals(seed):
    rng = np.random.default_rng(500 + seed)
    props = _nested_proposals(rng, int(rng.integers(200, 260)), int(rng.integers(1, 4)))
    rng.shuffle(props)
    # min_score -0.2: a score under it can be lifted over it by a decay, but
    # only one that the class's first selection lifts stays
    for sigma, min_score in ((0.5, 0.001), (0.05, 0.3), (3.0, -1.0), (0.5, 0.0), (0.5, -0.2)):
        got = to_proposals(soft_nms(to_segments(props), sigma, min_score))
        assert got == ref.soft_nms(props, sigma, min_score)


def test_tie_order_is_score_then_start_then_end():
    # equal scores: the earlier start is selected first and decays the other
    a = Proposal(Interval(0.0, 6.0), 0.5, 1)
    b = Proposal(Interval(1.0, 3.0), 0.5, 1)
    for order in ([a, b], [b, a]):
        out = to_proposals(soft_nms(to_segments(order)))
        assert out == ref.soft_nms(order)
        assert out[0] == a and out[1].score < 0.5
    # equal scores and starts: the earlier end goes first
    c = Proposal(Interval(0.0, 2.0), 0.5, 1)
    for order in ([a, c], [c, a]):
        out = to_proposals(soft_nms(to_segments(order)))
        assert out == ref.soft_nms(order)
        assert out[0] == c


@pytest.mark.parametrize("t", [1, 2, 7])
def test_threshold_runs_match_per_threshold_runs(t):
    rng = np.random.default_rng(t)
    for _ in range(200):
        cols = rng.integers(0, 5, size=(t, 3)) / 4.0
        ths = sorted(set((rng.integers(1, 5, size=3) / 4.0).tolist()))
        column, first, last = threshold_runs(cols, ths)
        want = sorted({
            (c, f, l)
            for c in range(3) for th in ths
            for f, l, above in ref.runs(cols[:, c] >= th) if above
        })
        assert list(zip(column.tolist(), first.tolist(), last.tolist())) == want
