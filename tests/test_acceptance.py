"""Acceptance gates for the pseudo-label pipeline.

Each test covers one release criterion, checks its tolerance, enforces its
runtime budget, and prints a PASS/FAIL verdict line (visible with pytest -s).
Oracles here are coded independently of the library internals.
"""

import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from pseudotal.config import PipelineConfig
from pseudotal.core import Segment, Segments, TimeGrid
from pseudotal.evaluation import GroundTruthSet, average_precision
from pseudotal.fusion import (
    RickerParams,
    fuse_ricker,
    ricker_value,
    segments_from_wavelet,
)
from pseudotal.mask import MaskParams, mask_for_proposal, union_masks
from pseudotal.sim import SimConfig, benchmark_many, run_benchmark
from pseudotal.targets import (
    AnchorPredictions,
    PyramidConfig,
    att_loss,
    build_targets,
    cls_loss,
    focal_loss,
    reg_loss,
    total_loss,
)
from pseudotal.weak_branch import VideoLabel
from segment_objects import (
    Interval, Proposal, segments, segments_by_video, to_pseudos, to_segments,
)


@contextmanager
def verdict(num, name, limit_s=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance {num}] {name}: FAIL", flush=True)
        raise
    elapsed = time.perf_counter() - start
    if limit_s is not None and elapsed >= limit_s:
        print(
            f"[acceptance {num}] {name}: FAIL"
            f" (runtime {elapsed:.2f} s exceeds {limit_s} s)",
            flush=True,
        )
        raise AssertionError(f"runtime budget exceeded: {elapsed:.2f} s >= {limit_s} s")
    print(f"[acceptance {num}] {name}: PASS ({elapsed:.2f} s)", flush=True)


def test_01_ricker_analytics():
    with verdict(1, "ricker analytics", limit_s=1.0):
        for sigma, mid in ((1.0, 0.0), (0.5, 3.0), (3.7, -2.0), (12.0, 40.0)):
            params = RickerParams(sigma, mid)
            peak = ricker_value(mid, params)
            expected = 2.0 / (math.sqrt(3.0 * sigma) * math.pi**0.25)
            assert abs(peak - expected) < 1e-12
            assert abs(ricker_value(mid - sigma, params)) < 1e-12
            assert abs(ricker_value(mid + sigma, params)) < 1e-12
        assert ricker_value(0.0, RickerParams(1.0, 0.0)) == pytest.approx(
            0.86728, abs=1e-4
        )
        rng = np.random.default_rng(101)
        for _ in range(100):
            sigma = float(rng.uniform(0.2, 20.0))
            mid = float(rng.uniform(-50.0, 50.0))
            u = float(rng.uniform(1.0 + 1e-9, 8.0))
            side = 1.0 if rng.random() < 0.5 else -1.0
            assert ricker_value(mid + side * u * sigma, RickerParams(sigma, mid)) < 0.0


def _oracle_fuse(proposals, grid):
    """Direct summation of score-weighted wavelets, written from the formula."""
    centers = (np.arange(grid.num_snippets) + 0.5) * grid.snippet_duration_s
    out = np.zeros((grid.num_snippets, grid.class_count))
    for p in proposals:
        if p.score <= 0.0:
            continue
        half = (p.interval.end_s - p.interval.start_s) / 2.0
        mid = (p.interval.start_s + p.interval.end_s) / 2.0
        u = (centers - mid) / half
        amp = 2.0 / (math.sqrt(3.0 * half) * math.pi**0.25)
        out[:, p.class_id - 1] += p.score * amp * (1.0 - u**2) * np.exp(-(u**2) / 2.0)
    return out


def test_02_fusion_oracle_equivalence():
    with verdict(2, "fusion oracle equivalence", limit_s=10.0):
        rng = np.random.default_rng(202)
        for _ in range(1000):
            num_snippets = int(rng.integers(4, 129))
            class_count = int(rng.integers(1, 6))
            dur = float(rng.choice([0.5, 1.0, 2.0]))
            grid = TimeGrid(num_snippets, dur, class_count)
            length_s = num_snippets * dur
            proposals = []
            for _ in range(int(rng.integers(0, 11))):
                s = float(rng.uniform(0.0, length_s - 0.2))
                e = float(rng.uniform(s + 0.1, length_s))
                proposals.append(
                    Proposal(
                        Interval(s, e),
                        float(rng.uniform(-0.2, 1.5)),
                        int(rng.integers(1, class_count + 1)),
                    )
                )
            fused = fuse_ricker(to_segments(proposals), grid)
            assert np.allclose(fused.values, _oracle_fuse(proposals, grid), atol=1e-9, rtol=0.0)


def test_03_single_proposal_round_trip():
    with verdict(3, "single-proposal round trip", limit_s=5.0):
        rng = np.random.default_rng(303)
        for _ in range(500):
            num_snippets = int(rng.integers(16, 129))
            dur = float(rng.choice([0.5, 1.0]))
            class_count = int(rng.integers(1, 6))
            grid = TimeGrid(num_snippets, dur, class_count)
            length_s = num_snippets * dur
            d = float(rng.uniform(2.5 * dur, min(30.0 * dur, length_s / 2.0)))
            s = float(rng.uniform(0.0, length_s - d))
            cls = int(rng.integers(1, class_count + 1))
            score = float(rng.uniform(0.1, 3.0))
            wavelet = fuse_ricker(to_segments([Proposal(Interval(s, s + d), score, cls)]), grid)
            segments = to_pseudos(segments_from_wavelet(wavelet))
            assert len(segments) == 1
            assert segments[0].class_id == cls
            assert abs(segments[0].interval.start_s - s) <= dur + 1e-9
            assert abs(segments[0].interval.end_s - (s + d)) <= dur + 1e-9


def _oracle_ap(pred_rows, gt_rows, threshold):
    """Brute-force greedy matching plus all-point interpolated PR, in Fractions.

    pred_rows: (score, start, end) triples; gt_rows: (start, end) pairs.
    """
    order = sorted(
        range(len(pred_rows)),
        key=lambda i: (-pred_rows[i][0], pred_rows[i][1], pred_rows[i][2]),
    )
    taken = [False] * len(gt_rows)
    flags = []
    for i in order:
        _, ps, pe = pred_rows[i]
        best_j = -1
        best_tiou = 0.0
        for j, (gs, ge) in enumerate(gt_rows):
            if taken[j]:
                continue
            inter = min(pe, ge) - max(ps, gs)
            if inter <= 0.0:
                continue
            t = inter / (max(pe, ge) - min(ps, gs))
            if t > best_tiou or (
                t == best_tiou and best_j >= 0 and gs < gt_rows[best_j][0]
            ):
                best_tiou = t
                best_j = j
        if best_j >= 0 and best_tiou >= threshold:
            taken[best_j] = True
            flags.append(True)
        else:
            flags.append(False)
    if not gt_rows or not flags:
        return Fraction(0)
    recalls = [Fraction(0)]
    precisions = []
    tp = 0
    for rank, flag in enumerate(flags, start=1):
        tp += int(flag)
        recalls.append(Fraction(tp, len(gt_rows)))
        precisions.append(Fraction(tp, rank))
    ap = Fraction(0)
    for k in range(1, len(recalls)):
        delta = recalls[k] - recalls[k - 1]
        if delta > 0:
            ap += delta * max(precisions[k - 1 :])
    return ap


def test_04_ap_oracle_equivalence():
    with verdict(4, "ap oracle equivalence", limit_s=10.0):
        rng = np.random.default_rng(404)
        for _ in range(1000):
            n_gt = int(rng.integers(1, 6))
            starts = rng.choice(np.arange(0, 46), size=n_gt, replace=False)
            gt_rows = sorted(
                (float(s), float(s + rng.integers(2, 11))) for s in starts
            )
            pred_rows = []
            for _ in range(int(rng.integers(0, 21))):
                ps = float(rng.integers(0, 46))
                pred_rows.append(
                    (float(rng.uniform(0.0, 1.0)), ps, ps + float(rng.integers(1, 11)))
                )
            threshold = float(rng.choice([0.1, 0.3, 0.5, 0.7]))
            preds = segments_by_video({
                "v": [Proposal(Interval(s, e), sc, 1) for sc, s, e in pred_rows]
            })
            gt = GroundTruthSet(
                {"v": segments(*((s, e, 1, 1.0) for s, e in gt_rows))}
            )
            got = average_precision(preds, gt, 1, threshold)
            assert got == float(_oracle_ap(pred_rows, gt_rows, threshold))
        # ranked list: FP at score 0.9, exact TP at score 0.8, one target
        preds = segments_by_video({
            "v": [
                Proposal(Interval(0, 10), 0.8, 1),
                Proposal(Interval(50, 60), 0.9, 1),
            ]
        })
        gt = GroundTruthSet({"v": segments((0, 10, 1, 1.0))})
        assert average_precision(preds, gt, 1, 0.5) == 0.5


def test_05_mask_algebra():
    with verdict(5, "mask algebra", limit_s=5.0):
        rng = np.random.default_rng(505)
        for _ in range(500):
            num_snippets = int(rng.integers(100, 400))
            alpha = float(rng.uniform(0.0, 0.4))
            beta = float(rng.uniform(0.0, 0.45))
            d = float(rng.uniform(4.0, 40.0))
            margin = alpha * d + 1.0
            s = float(rng.uniform(margin, num_snippets - margin - d))
            e = s + d
            grid = TimeGrid(num_snippets, 1.0, 1)
            mask = mask_for_proposal(
                Segment(s, e, 1, 1.0), MaskParams(alpha, beta), grid
            )
            centers = np.arange(num_snippets) + 0.5
            uncertain = centers[mask.bits == 0]
            in_left = np.count_nonzero(
                (uncertain > s - alpha * d) & (uncertain < s + beta * d)
            )
            in_right = np.count_nonzero(
                (uncertain > e - beta * d) & (uncertain < e + alpha * d)
            )
            assert in_left + in_right == uncertain.size  # nothing outside the bands
            assert abs(in_left - (alpha + beta) * d) <= 1.0
            assert abs(in_right - (alpha + beta) * d) <= 1.0
            interior = np.count_nonzero((uncertain > s) & (uncertain < e))
            assert abs(interior - 2.0 * beta * d) <= 2.0
            assert abs(np.count_nonzero(uncertain < s) - alpha * d) <= 1.0
            assert abs(np.count_nonzero(uncertain > e) - alpha * d) <= 1.0
        schedule = PipelineConfig(alpha=0.3, beta=0.2, warmup_epochs=20, total_epochs=38)
        at_warmup = schedule.mask_params(20)
        assert (at_warmup.alpha, at_warmup.beta) == (0.3, 0.2)
        at_total = schedule.mask_params(38)
        assert (at_total.alpha, at_total.beta) == (0.0, 0.0)
        grid = TimeGrid(60, 1.0, 1)
        pseudo = Segment(20.0, 40.0, 1, 1.0)
        counts = [
            mask_for_proposal(
                pseudo, schedule.mask_params(epoch), grid
            ).uncertain_count()
            for epoch in range(20, 39)
        ]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert counts[0] > counts[-1] == 0


def test_06_loss_contracts():
    with verdict(6, "loss contracts", limit_s=5.0):
        grid = TimeGrid(32, 1.0, 2)
        pseudos = Segments([4.0, 18.0], [12.0, 26.0], [1, 2], [1.0, 0.8])
        tgt = build_targets(pseudos, union_masks(pseudos, MaskParams(0.1, 0.25), grid),
                            PyramidConfig())
        probs = np.zeros((tgt.num_anchors, 3))
        probs[tgt.class_label == 0, -1] = 1.0
        pos = np.flatnonzero(tgt.class_label > 0)
        probs[pos, tgt.class_label[pos] - 1] = 1.0
        perfect = AnchorPredictions(probs, tgt.reg_left.copy(), tgt.reg_right.copy())
        assert cls_loss(perfect, tgt) == 0.0
        assert reg_loss(perfect, tgt) == 0.0
        z = np.zeros((32, 3))
        z[5, 0] = 0.9
        z[20, 1] = 0.85
        z[9, 2] = 0.95
        snippet_probs = np.full((32, 3), 1e-6)
        snippet_probs[5, 0] = 1.0
        snippet_probs[20, 1] = 1.0
        snippet_probs[9, 2] = 1.0
        assert att_loss(snippet_probs, z, 0.8, VideoLabel(np.array([1, 1]))) == 0.0

        base_cls = cls_loss(perfect, tgt)
        base_reg = reg_loss(perfect, tgt)
        masked_out = np.flatnonzero(tgt.mask_bit == 0)
        assert masked_out.size > 0
        rng = np.random.default_rng(606)
        for _ in range(100):
            anchor = int(rng.choice(masked_out))
            mutated_probs = probs.copy()
            mutated_probs[anchor] = rng.dirichlet(np.ones(3))
            left = tgt.reg_left.copy().astype(float)
            right = tgt.reg_right.copy().astype(float)
            left[anchor] = float(rng.uniform(0.0, 8.0))
            right[anchor] = float(rng.uniform(0.0, 8.0))
            mutated = AnchorPredictions(mutated_probs, left, right)
            assert cls_loss(mutated, tgt) == base_cls
            assert reg_loss(mutated, tgt) == base_reg
        assert total_loss(1.0, 1.0, 1.0) == 2.2
        assert focal_loss(0.5, gamma=2.0) == pytest.approx(0.17329, abs=1e-5)


def test_07_noiseless_end_to_end_identity():
    with verdict(7, "noiseless end-to-end identity", limit_s=30.0):
        cfg = SimConfig(seed=11, num_videos=20, class_count=5)
        result = run_benchmark(cfg, ["ricker"])
        report = result.reports["ricker"].report
        assert report.average_between(0.5, 0.5) == 1.0
        assert report.average_map >= 0.95


def test_08_noisy_benchmark_ordering():
    with verdict(8, "noisy benchmark ordering", limit_s=120.0):
        cfg = SimConfig(
            seed=0,
            num_videos=50,
            class_count=5,
            boundary_jitter_frac=0.1,
            attention_noise_std=0.1,
            false_positive_rate=0.5,
        )
        means = benchmark_many(cfg, ["ricker", "soft", "hard"], seeds=[0, 1, 2, 3, 4])[
            "mean"
        ]
        assert means["ricker"] >= means["soft"] + 0.01
        assert means["ricker"] >= means["hard"] + 0.01


def test_09_byte_determinism(tmp_path):
    with verdict(9, "byte determinism"):
        cfg = tmp_path / "config.json"
        cfg.write_text(
            json.dumps(
                {
                    "sim": {
                        "seed": 3,
                        "num_videos": 6,
                        "attention_noise_std": 0.1,
                        "boundary_jitter_frac": 0.05,
                    }
                }
            )
        )

        def cli(*argv):
            proc = subprocess.run(
                [sys.executable, "-m", "pseudotal.cli", *map(str, argv)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            return proc

        sp_a, sp_b = tmp_path / "sp_a.jsonl", tmp_path / "sp_b.jsonl"
        gt_a, gt_b = tmp_path / "gt_a.jsonl", tmp_path / "gt_b.jsonl"
        cli("simulate", "--config", cfg, "--output", sp_a, "--gt", gt_a)
        cli("simulate", "--config", cfg, "--output", sp_b, "--gt", gt_b)
        assert sp_a.read_bytes() == sp_b.read_bytes()
        assert gt_a.read_bytes() == gt_b.read_bytes()

        bench_a, bench_b = tmp_path / "bench_a.json", tmp_path / "bench_b.json"
        for out in (bench_a, bench_b):
            cli("benchmark", "--config", cfg, "--strategy", "ricker",
                "--strategy", "soft", "--output", out)
        assert bench_a.read_bytes() == bench_b.read_bytes()

        ex_a, ex_b = tmp_path / "props_a.jsonl", tmp_path / "props_b.jsonl"
        for out in (ex_a, ex_b):
            cli("extract", "--input", sp_a, "--gt", gt_a, "--output", out)
        assert ex_a.read_bytes() == ex_b.read_bytes()
