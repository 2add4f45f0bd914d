"""Soft-NMS, the `gauss` strategy and evaluation cost memory in proportion
to their segments and the intersecting same-class pairs, not to every
same-class pair: doubling non-overlapping proposals, or back-to-back ground
truth and predictions, about doubles their traced peak, and `extract` on a
long video of many short runs and `eval` on 5000 back-to-back segments stay
inside a 1 GiB address space. `gauss` holds no pair list at all: doubling
proposals that all overlap about doubles its peak too. Evaluation's greedy
matching walks its pairs once, so a chain of 20 000 back-to-back segments
takes well under five seconds.
"""
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from pseudotal.core import GroundTruthSet, Segments, TimeGrid
from pseudotal.evaluation import map_table, pseudo_quality
from pseudotal.fusion import generate_pseudo_labels
from pseudotal.weak_branch import soft_nms

SIZES = (1000, 2000, 4000)
DENSE_SIZES = (500, 1000, 2000)  # of proposals that all overlap
EVAL_SIZES = (500, 1000, 2000)  # of ground-truth segments and of predictions
CHAIN = 20000  # back-to-back segments, and predictions, matched in CHAIN_SECONDS
CHAIN_SECONDS = 5.0
# the most a traced peak may grow per doubling of the input: about 2 for
# linear memory, 4 for an n * n table
GROWTH = 2.5


def _disjoint(n):
    """n one-class proposals of 1 s, 1.5 s apart, so that none intersect."""
    start = np.arange(n) * 1.5
    return Segments(start, start + 1.0, np.ones(n, dtype=np.int64),
                    np.linspace(0.9, 0.1, n))


def _traced_peak(run, proposals):
    tracemalloc.start()
    try:
        out = run(proposals)
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


RUNS = {
    "soft_nms": soft_nms,
    "gauss": lambda props: generate_pseudo_labels("gauss", props, TimeGrid(10**4, 1.0, 1)),
}


@pytest.mark.parametrize("name", RUNS)
def test_peak_doubles_with_disjoint_proposals(name):
    run = RUNS[name]
    run(_disjoint(10))  # binds the modules untraced
    peaks = []
    for n in SIZES:
        peak, out = _traced_peak(run, _disjoint(n))
        assert len(out) == n  # nothing overlaps, so every proposal stays
        peaks.append(peak)
    for small, large in zip(peaks, peaks[1:]):
        assert large < GROWTH * small, peaks


def _all_overlapping(n):
    """n one-class proposals from a start in 10.00-10.06 s to 20 s, scores
    rounded to 0.01: every pair intersects with tIoU above 0.99."""
    rng = np.random.default_rng(0)
    start = np.round(rng.uniform(10.0, 10.06, n), 2)
    return Segments(start, np.full(n, 20.0), np.ones(n, dtype=np.int64),
                    np.round(rng.uniform(0.1, 1.0, n), 2))


def test_gauss_peak_doubles_with_proposals_that_all_overlap():
    run = RUNS["gauss"]
    run(_all_overlapping(10))  # binds the modules untraced
    peaks = []
    for n in DENSE_SIZES:
        peak, out = _traced_peak(run, _all_overlapping(n))
        assert len(out) == 1  # the top proposal groups every other one
        peaks.append(peak)
    for small, large in zip(peaks, peaks[1:]):
        assert large < GROWTH * small, peaks


def _back_to_back(n):
    """n back-to-back one-second ground-truth segments of one video and class,
    and n one-second predictions shifted by half a second: each prediction
    intersects at most two segments, and every other pair is disjoint."""
    start = np.arange(n) + 0.5
    predictions = {"v": Segments(start, start + 1.0, np.ones(n, dtype=np.int64),
                                 np.linspace(0.9, 0.1, n))}
    edges = np.arange(n + 1, dtype=np.float64)
    segments = Segments(edges[:-1], edges[1:], np.ones(n, dtype=np.int64), np.ones(n))
    return predictions, GroundTruthSet({"v": segments})


def test_eval_peak_doubles_with_back_to_back_segments():
    map_table(*_back_to_back(10))  # binds the modules untraced
    peaks = []
    for n in EVAL_SIZES:
        peak, report = _traced_peak(lambda inputs: map_table(*inputs), _back_to_back(n))
        assert report.map_values[0] > 0.0  # tIoU 1/3 matches at 0.1
        peaks.append(peak)
    for small, large in zip(peaks, peaks[1:]):
        assert large < GROWTH * small, peaks


def test_a_chain_of_back_to_back_pairs_matches_in_seconds():
    """Each of the 2 * CHAIN - 1 intersecting pairs shares a prediction or a
    segment with the next, one chain: a matcher that passes over the open
    pairs once per match takes tens of seconds at this size."""
    inputs = _back_to_back(CHAIN)
    began = time.perf_counter()
    quality = pseudo_quality(*inputs)
    assert time.perf_counter() - began < CHAIN_SECONDS
    assert quality.precision[0] == quality.recall[0] == 1.0  # tIoU 1/3 matches at 0.1


def _cap_address_space():  # on the child only
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _run_capped(*argv):
    """`pseudotal argv` in a child process under a 1 GiB address space."""
    return subprocess.run(
        [sys.executable, "-m", "pseudotal.cli", *map(str, argv)],
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
        preexec_fn=_cap_address_space, capture_output=True, text=True, timeout=120,
    )


def test_extract_on_many_short_runs_fits_in_one_gib(tmp_path):
    """One valid 132 KB SP row: 8000 snippets, one class, attention 0.95 and
    0 in turn. `extract` cuts 4000 one-snippet runs; an n * n soft-NMS table
    of them (16 M pairs) does not fit in a 1 GiB address space."""
    snippets = 8000
    sp, gt, out = tmp_path / "sp.jsonl", tmp_path / "gt.jsonl", tmp_path / "props.jsonl"
    sp.write_text(json.dumps({
        "video_id": "v", "num_snippets": snippets, "snippet_duration_s": 1.0,
        "attention": [0.95, 0.0] * (snippets // 2), "class_scores": [[1.0, 0.0]] * snippets,
    }) + "\n", encoding="utf-8")
    gt.write_text(json.dumps({"video_id": "v", "start_s": 0.0, "end_s": 1.0, "class_id": 1})
                  + "\n", encoding="utf-8")
    proc = _run_capped("extract", "--input", sp, "--gt", gt, "--output", out)
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert len([row for row in rows if "_header" not in row]) == snippets // 2


def test_eval_of_5000_back_to_back_segments_fits_in_one_gib(tmp_path):
    """One video of 5000 back-to-back one-second ground-truth segments and
    5000 predictions shifted by half a second: 9999 intersecting pairs,
    where a table of every same-class pair (25 M) does not fit in a
    1 GiB address space."""
    n = 5000
    gt, preds, out = tmp_path / "gt.jsonl", tmp_path / "preds.jsonl", tmp_path / "eval.json"
    gt.write_text("".join(
        json.dumps({"video_id": "v", "start_s": float(i), "end_s": i + 1.0, "class_id": 1}) + "\n"
        for i in range(n)), encoding="utf-8")
    preds.write_text("".join(
        json.dumps({"video_id": "v", "start_s": i + 0.5, "end_s": i + 1.5, "class_id": 1,
                    "score": 1.0 - i / n}) + "\n"
        for i in range(n)), encoding="utf-8")
    proc = _run_capped("eval", "--input", preds, "--gt", gt, "--output", out)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(out.read_text(encoding="utf-8"))["metrics"]["map"][0] > 0.0
