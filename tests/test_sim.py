import dataclasses

import numpy as np
import pytest

from pseudotal import sim
from pseudotal.config import PipelineConfig, ConfigSchemaError
from pseudotal.core import GroundTruthSet, TimeGrid, snippet_centers
from pseudotal.evaluation import pseudo_quality
from pseudotal.fusion import generate_pseudo_labels
from pseudotal.sim import (
    MAX_CORPUS_CELLS,
    RNG_NAME,
    SimConfig,
    benchmark_many,
    corrupt_predictions,
    gen_corpus,
    run_benchmark,
)
from pseudotal.weak_branch import VideoLabel, weak_proposals

PIPE = PipelineConfig()


def _corrupt_all(layout, cfg):
    """The corrupted predictions of every video of `layout`, by video id."""
    return {vid: corrupt_predictions(cfg, v, layout.grids[vid], layout.ground_truth.segments[vid])
            for v, vid in layout.indexed_ids()}


def _label(layout, vid):
    """The video label of `vid`: the classes of its ground truth, the rule
    of `run_benchmark` and `extract`."""
    return VideoLabel.from_classes([c for _, c in layout.ground_truth.segments[vid]],
                                   layout.grids[vid].class_count)


def _pseudo_labels(layout, preds, strategy):
    """`strategy`'s pseudo labels of every video of `layout`: the weak branch
    and the fusion called per video with the arguments PIPE gives them."""
    out = {}
    for vid in layout.video_ids():
        grid = layout.grids[vid]
        props = weak_proposals(preds[vid], grid, _label(layout, vid), **PIPE.weak_branch())
        out[vid] = generate_pseudo_labels(strategy, props, grid,
                                          min_duration_s=PIPE.min_duration_s(grid))
    return out


class TestSimConfig:
    def test_defaults_valid(self):
        cfg = SimConfig()
        assert cfg.num_videos == 20

    def test_from_dict(self):
        cfg = SimConfig.from_dict({"seed": 4, "snippets_per_video": [10, 20]})
        assert cfg == SimConfig(seed=4, snippets_per_video=(10, 20))
        with pytest.raises(ConfigSchemaError, match="unknown sim config keys: \\['bogus'\\]"):
            SimConfig.from_dict({"bogus": 1})
        with pytest.raises(ValueError):
            SimConfig.from_dict({"num_videos": 0})

    def test_invalid_fields(self):
        with pytest.raises(ValueError):
            SimConfig(seed=-1)
        with pytest.raises(ValueError):
            SimConfig(num_videos=0)
        with pytest.raises(ValueError):
            SimConfig(snippets_per_video=(10, 5))
        with pytest.raises(ValueError):
            SimConfig(actions_per_video=(0, 3))
        with pytest.raises(ValueError):
            SimConfig(duration_range_s=(-1.0, 4.0))
        with pytest.raises(ValueError):
            SimConfig(attention_noise_std=-0.1)
        with pytest.raises(ValueError):
            SimConfig(score_temperature=0.0)
        with pytest.raises(ValueError):
            SimConfig(min_gap_snippets=0)

    @pytest.mark.parametrize("field, value, message", [
        ("snippets_per_video", (0, 8), "videos need at least one snippet"),
        ("snippet_duration_s", 0.0, "snippet_duration_s must be positive"),
        ("snippet_duration_s", -0.5, "snippet_duration_s must be positive"),
    ])
    def test_snippets_out_of_range(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SimConfig(**{field: value})

    def test_corpus_size_cap(self):
        # the ROADMAP "L" corpus and both benchmark sweeps fit
        SimConfig(num_videos=500, snippets_per_video=(200, 400), class_count=20)
        SimConfig(num_videos=120, snippets_per_video=(100, 130), class_count=10)
        SimConfig(num_videos=1, snippets_per_video=(1, MAX_CORPUS_CELLS // 2), class_count=1)
        with pytest.raises(ValueError, match=r"^sim config num_videos \* snippets_per_video"):
            SimConfig(num_videos=1, snippets_per_video=(1, MAX_CORPUS_CELLS // 2 + 1),
                      class_count=1)
        with pytest.raises(ValueError, match=r"got 1000000000 \* 128 \* \(5 \+ 1\)$"):
            SimConfig(num_videos=10**9)

    def test_draws_at_most_one_per_snippet(self):
        SimConfig(snippets_per_video=(8, 16), actions_per_video=(1, 16), false_positive_rate=16.0)
        with pytest.raises(ValueError, match="actions_per_video"):
            SimConfig(snippets_per_video=(8, 16), actions_per_video=(1, 17))
        with pytest.raises(ValueError, match="false_positive_rate"):
            SimConfig(snippets_per_video=(8, 16), false_positive_rate=16.5)

    def test_duration_snippet_range(self):
        cfg = SimConfig(duration_range_s=(2.0, 4.0), snippet_duration_s=1.0)
        assert cfg.duration_snippet_range() == (2, 4)
        with pytest.raises(ValueError):
            SimConfig(duration_range_s=(2.1, 2.9), snippet_duration_s=2.0)


class TestGenCorpus:
    def test_deterministic(self):
        cfg = SimConfig(seed=7, num_videos=8)
        a = gen_corpus(cfg)
        b = gen_corpus(cfg)
        assert a.video_ids() == b.video_ids()
        for vid in a.video_ids():
            assert a.grids[vid] == b.grids[vid]
            assert a.ground_truth.segments[vid] == b.ground_truth.segments[vid]
            assert _label(a, vid).onehot.tolist() == _label(b, vid).onehot.tolist()

    def test_single_action_counting(self):
        cfg = SimConfig(seed=1, num_videos=5, actions_per_video=(1, 1))
        layout = gen_corpus(cfg)
        total = sum(len(v) for v in layout.ground_truth.segments.values())
        assert total == 5

    def test_durations_within_range(self):
        cfg = SimConfig(seed=2, num_videos=10, duration_range_s=(2.0, 4.0))
        layout = gen_corpus(cfg)
        for items in layout.ground_truth.segments.values():
            for iv, _ in items:
                assert 2.0 <= iv.duration_s <= 4.0

    def test_actions_disjoint_with_gap(self):
        cfg = SimConfig(seed=9, num_videos=15, actions_per_video=(2, 4))
        layout = gen_corpus(cfg)
        gap = cfg.min_gap_snippets * cfg.snippet_duration_s
        for vid, items in layout.ground_truth.segments.items():
            spans = sorted((iv.start_s, iv.end_s) for iv, _ in items)
            for (_, e0), (s1, _) in zip(spans, spans[1:]):
                assert s1 - e0 >= gap - 1e-9
            for s, e in spans:
                assert 0.0 <= s < e <= layout.grids[vid].duration_s + 1e-9

    def test_labels_match_present_classes(self):
        cfg = SimConfig(seed=4, num_videos=10)
        layout = gen_corpus(cfg)
        for vid, items in layout.ground_truth.segments.items():
            present = sorted({c for _, c in items})
            assert _label(layout, vid).classes == present

    def test_each_video_keeps_its_index_in_id_order(self):
        # the index seeds a video's streams; `video_10000` sorts before `video_1001`
        grid = TimeGrid(1, 1.0, 1)
        ids = ["video_0999", "video_1000", "video_1001", "video_10000"]
        layout = sim.CorpusLayout(GroundTruthSet({}), dict.fromkeys(ids, grid))
        assert layout.indexed_ids() == [(0, "video_0999"), (1, "video_1000"),
                                        (3, "video_10000"), (2, "video_1001")]
        assert [vid for _, vid in layout.indexed_ids()] == layout.video_ids()

    def test_infeasible_packing_names_video(self):
        cfg = SimConfig(
            seed=0,
            num_videos=1,
            snippets_per_video=(10, 10),
            actions_per_video=(4, 4),
            duration_range_s=(4.0, 16.0),
        )
        with pytest.raises(ValueError, match="video 0"):
            gen_corpus(cfg)

    def test_rng_documented(self):
        assert "PCG64" in RNG_NAME


class TestCorruptPredictions:
    def test_deterministic(self):
        cfg = SimConfig(
            seed=13,
            num_videos=4,
            attention_noise_std=0.1,
            boundary_jitter_frac=0.05,
            false_positive_rate=1.0,
        )
        layout = gen_corpus(cfg)
        a = _corrupt_all(layout, cfg)
        b = _corrupt_all(layout, cfg)
        for vid in layout.video_ids():
            np.testing.assert_array_equal(a[vid].attention, b[vid].attention)
            np.testing.assert_array_equal(a[vid].class_scores, b[vid].class_scores)

    def test_a_video_draws_from_its_own_stream(self):
        """A video's predictions depend on its index and layout only, not on
        the corpus around it."""
        cfg = SimConfig(seed=13, num_videos=4, attention_noise_std=0.1,
                        boundary_jitter_frac=0.05, false_positive_rate=1.0)
        layout = gen_corpus(cfg)
        preds = _corrupt_all(layout, cfg)
        vid = layout.video_ids()[2]
        alone = corrupt_predictions(dataclasses.replace(cfg, num_videos=3), 2, layout.grids[vid],
                                    layout.ground_truth.segments[vid])
        np.testing.assert_array_equal(alone.attention, preds[vid].attention)
        np.testing.assert_array_equal(alone.class_scores, preds[vid].class_scores)

    @pytest.mark.parametrize("class_count", [1, 5, 20])
    @pytest.mark.parametrize("temperature", [1e-308, 1e-300, 1e-3, 0.2, 1.0, 1e6])
    def test_class_rows_are_the_shifted_softmax(self, class_count, temperature):
        """Where 1/T is finite, the class-score table is the softmax of the
        one-hot logits 1/T shifted by their row maximum, float for float."""
        c = class_count
        logits = np.zeros((c + 1, c))
        logits[np.arange(1, c + 1), np.arange(c)] = 1.0 / temperature
        exp = np.exp(logits - logits.max(axis=1, keepdims=True))
        fg = exp / exp.sum(axis=1, keepdims=True)
        rows = np.concatenate([fg, 1.0 - fg.max(axis=1, keepdims=True)], axis=1)
        table = sim._class_score_table(SimConfig(class_count=c, score_temperature=temperature))
        assert table.tobytes() == (rows / rows.sum(axis=1, keepdims=True)).tobytes()

    def test_a_tiny_temperature_gives_one_hot_rows(self):
        # 1/T overflows to inf: each action class's row is its one-hot
        cfg = SimConfig(seed=2, num_videos=3, class_count=4, score_temperature=5e-324)
        table = sim._class_score_table(cfg)
        assert table[1:].tolist() == np.eye(4, 5).tolist()
        # no action: uniform foreground whatever the temperature
        assert table[0].tolist() == sim._class_score_table(SimConfig(class_count=4))[0].tolist()
        rows = {tuple(row) for row in table.tolist()}
        layout = gen_corpus(cfg)
        for p in _corrupt_all(layout, cfg).values():
            assert {tuple(row) for row in p.class_scores.tolist()} <= rows

    def test_rows_are_valid_distributions(self):
        cfg = SimConfig(seed=13, num_videos=4, attention_noise_std=0.3)
        layout = gen_corpus(cfg)
        preds = _corrupt_all(layout, cfg)
        for vid in layout.video_ids():
            p = preds[vid]
            assert np.all(p.attention >= 0.0) and np.all(p.attention <= 1.0)
            np.testing.assert_allclose(p.class_scores.sum(axis=1), 1.0, atol=1e-9)
            assert p.class_scores.shape == (
                layout.grids[vid].num_snippets,
                cfg.class_count + 1,
            )

    def test_noiseless_attention_is_indicator(self):
        cfg = SimConfig(seed=6, num_videos=5)
        layout = gen_corpus(cfg)
        preds = _corrupt_all(layout, cfg)
        for vid in layout.video_ids():
            grid = layout.grids[vid]
            centers = (np.arange(grid.num_snippets) + 0.5) * grid.snippet_duration_s
            inside = np.zeros(grid.num_snippets, dtype=bool)
            for iv, _ in layout.ground_truth.segments[vid]:
                inside |= (centers >= iv.start_s) & (centers < iv.end_s)
            att = preds[vid].attention
            assert np.all(att[inside] == 1.0)
            assert np.all(att[~inside] == 0.0)

    def test_actions_win_over_false_positives(self):
        """Without jitter and noise, every snippet of an action carries
        attention 1 and the action's class, however many false positives of
        other classes and amplitudes overlap it."""
        cfg = SimConfig(seed=6, num_videos=5, false_positive_rate=10.0)
        layout = gen_corpus(cfg)
        preds = _corrupt_all(layout, cfg)
        false_positive_snippets = 0
        for vid in layout.video_ids():
            centers = snippet_centers(layout.grids[vid])
            att, scores = preds[vid].attention, preds[vid].class_scores
            inside = np.zeros(centers.shape[0], dtype=bool)
            for iv, class_id in layout.ground_truth.segments[vid]:
                action = (centers >= iv.start_s) & (centers < iv.end_s)
                assert np.all(att[action] == 1.0)
                assert np.all(scores[action, :-1].argmax(axis=1) == class_id - 1)
                inside |= action
            false_positive_snippets += int((att[~inside] > 0.0).sum())
        assert false_positive_snippets > 0

    def test_noiseless_pipeline_recovers_ground_truth(self):
        cfg = SimConfig(seed=11, num_videos=6)
        layout = gen_corpus(cfg)
        preds = _corrupt_all(layout, cfg)
        pseudos = _pseudo_labels(layout, preds, "ricker")
        q = pseudo_quality(pseudos, layout.ground_truth, PIPE.eval_tious)
        assert q.report.map_at(0.5) == 1.0
        assert q.average_map >= 0.95

    def test_jitter_hurts_tight_thresholds_most(self):
        cfg = SimConfig(seed=3, num_videos=10, boundary_jitter_frac=0.1)
        layout = gen_corpus(cfg)
        preds = _corrupt_all(layout, cfg)
        pseudos = _pseudo_labels(layout, preds, "ricker")
        q = pseudo_quality(pseudos, layout.ground_truth, (0.5, 0.9))
        assert q.recall[1] < q.recall[0]

    def test_false_positives_lower_prefusion_precision(self):
        cfg = SimConfig(seed=5, num_videos=10, false_positive_rate=2.0)
        layout = gen_corpus(cfg)
        preds = _corrupt_all(layout, cfg)
        kept_all = {}
        for vid in layout.video_ids():
            props = weak_proposals(
                preds[vid], layout.grids[vid], _label(layout, vid), **PIPE.weak_branch()
            )
            kept_all[vid] = generate_pseudo_labels("soft", props, layout.grids[vid])
        q = pseudo_quality(kept_all, layout.ground_truth, (0.5,))
        assert q.precision[0] < 1.0

    def test_noise_level_changes_only_noise(self):
        # the noise draw happens even at std 0, so the jitter stream is shared
        base = SimConfig(seed=8, num_videos=3, boundary_jitter_frac=0.1)
        noisy = dataclasses.replace(base, attention_noise_std=0.2)
        layout = gen_corpus(base)
        a = _corrupt_all(layout, base)
        b = _corrupt_all(layout, noisy)
        for vid in layout.video_ids():
            np.testing.assert_array_equal(a[vid].class_scores, b[vid].class_scores)


class TestBenchmark:
    def test_single_strategy_report(self):
        cfg = SimConfig(seed=1, num_videos=4)
        result = run_benchmark(cfg, ["soft"])
        assert set(result.reports) == {"soft"}
        assert "soft" in result.timings_ms and "simulate" in result.timings_ms

    def test_same_seed_identical_reports(self):
        cfg = SimConfig(seed=2, num_videos=4, attention_noise_std=0.1)
        a = run_benchmark(cfg, ["ricker", "soft"])
        b = run_benchmark(cfg, ["ricker", "soft"])
        for name in ("ricker", "soft"):
            assert a.reports[name].to_dict() == b.reports[name].to_dict()

    def test_weak_branch_runs_once_per_video(self, monkeypatch):
        calls = []

        def counting(preds, grid, label, *args, **kwargs):
            calls.append(grid)
            return weak_proposals(preds, grid, label, *args, **kwargs)

        monkeypatch.setattr(sim, "weak_proposals", counting)
        cfg = SimConfig(seed=3, num_videos=5, attention_noise_std=0.1)
        result = run_benchmark(cfg, ["ricker", "soft", "gauss"])
        assert len(calls) == cfg.num_videos
        assert set(result.timings_ms) == {"simulate", "weak_branch", "ricker", "soft", "gauss"}
        # each strategy scores the same shared proposals a separate pipeline would make
        monkeypatch.undo()
        layout = gen_corpus(cfg)
        preds = _corrupt_all(layout, cfg)
        for name in ("ricker", "soft", "gauss"):
            alone = pseudo_quality(
                _pseudo_labels(layout, preds, name), layout.ground_truth, PIPE.eval_tious
            )
            assert result.reports[name] == alone

    def test_repeated_strategy_runs_once(self, monkeypatch):
        calls = []

        def counting(strategy, *args, **kwargs):
            calls.append(strategy)
            return generate_pseudo_labels(strategy, *args, **kwargs)

        cfg = SimConfig(seed=3, num_videos=4, attention_noise_std=0.1)
        once = run_benchmark(cfg, ["ricker", "soft"])
        monkeypatch.setattr(sim, "generate_pseudo_labels", counting)
        result = run_benchmark(cfg, ["ricker", "ricker", "soft"])
        assert len(calls) == 8
        assert result.reports == once.reports
        assert list(result.timings_ms) == list(once.timings_ms)

    def test_unknown_strategy_raises_before_the_corpus(self, monkeypatch):
        calls = []

        def counting(cfg):
            calls.append(cfg)
            return gen_corpus(cfg)

        monkeypatch.setattr(sim, "gen_corpus", counting)
        with pytest.raises(ValueError, match="unknown fusion strategy: 'median'"):
            run_benchmark(SimConfig(num_videos=2), ["ricker", "median"])
        assert calls == []
        run_benchmark(SimConfig(num_videos=2), ["ricker"])
        assert len(calls) == 1

    def test_requires_strategies(self):
        with pytest.raises(ValueError):
            run_benchmark(SimConfig(num_videos=2), [])
        with pytest.raises(ValueError):
            benchmark_many(SimConfig(num_videos=2), ["soft"], seeds=[])

    def test_benchmark_many_mean(self):
        cfg = SimConfig(num_videos=4)
        out = benchmark_many(cfg, ["soft"], seeds=[0, 1])
        per_seed = [out["per_seed"][s]["soft"] for s in (0, 1)]
        assert out["mean"]["soft"] == pytest.approx(sum(per_seed) / 2)

    def test_quality_degrades_monotonically_with_jitter(self):
        means = []
        for jitter in (0.0, 0.05, 0.1, 0.2):
            cfg = SimConfig(
                num_videos=20,
                attention_noise_std=0.1,
                false_positive_rate=0.5,
                boundary_jitter_frac=jitter,
            )
            out = benchmark_many(cfg, ["ricker"], seeds=[0, 1, 2, 3, 4])
            means.append(out["mean"]["ricker"])
        for better, worse in zip(means, means[1:]):
            assert worse <= better + 1e-12
