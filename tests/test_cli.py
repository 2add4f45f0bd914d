import json
import math
from pathlib import Path

import pytest

from pseudotal.cli import COMMANDS, main
from pseudotal.config import TOOL_VERSION, PipelineConfig
from pseudotal.fusion import STRATEGIES


def run(*argv):
    return main([str(a) for a in argv])


def read_jsonl(path):
    header = None
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        obj = json.loads(line)
        if "_header" in obj:
            header = obj["_header"]
        else:
            rows.append(obj)
    return header, rows


def read_report(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_jsonl(path, rows):
    Path(path).write_text(
        "".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8"
    )


@pytest.fixture()
def sim_paths(tmp_path):
    """A small noiseless simulated corpus on disk."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"sim": {"seed": 11, "num_videos": 3}}))
    sp = tmp_path / "sp.jsonl"
    gt = tmp_path / "gt.jsonl"
    assert run("simulate", "--config", cfg, "--output", sp, "--gt", gt) == 0
    return {"config": cfg, "sp": sp, "gt": gt, "dir": tmp_path}


class TestSimulate:
    def test_outputs_and_header(self, sim_paths):
        header, rows = read_jsonl(sim_paths["sp"])
        assert header["tool_version"] == TOOL_VERSION
        assert header["config_hash"] == PipelineConfig().config_hash()
        assert len(rows) == 3
        for row in rows:
            assert set(row) >= {
                "video_id",
                "num_snippets",
                "snippet_duration_s",
                "attention",
                "class_scores",
            }
        _, gt_rows = read_jsonl(sim_paths["gt"])
        assert gt_rows and all("score" not in r for r in gt_rows)

    def test_rerun_byte_identical(self, sim_paths):
        sp2 = sim_paths["dir"] / "sp2.jsonl"
        gt2 = sim_paths["dir"] / "gt2.jsonl"
        assert run("simulate", "--config", sim_paths["config"], "--output", sp2, "--gt", gt2) == 0
        assert sp2.read_bytes() == sim_paths["sp"].read_bytes()
        assert gt2.read_bytes() == sim_paths["gt"].read_bytes()

    def test_seed_flag_overrides_config(self, sim_paths):
        same = sim_paths["dir"] / "same.jsonl"
        other = sim_paths["dir"] / "other.jsonl"
        assert run("simulate", "--config", sim_paths["config"], "--seed", 11, "--output", same) == 0
        assert same.read_bytes() == sim_paths["sp"].read_bytes()
        assert run("simulate", "--config", sim_paths["config"], "--seed", 12, "--output", other) == 0
        assert other.read_bytes() != sim_paths["sp"].read_bytes()


class TestExtractFuse:
    def test_extract_writes_scored_proposals(self, sim_paths):
        props = sim_paths["dir"] / "props.jsonl"
        assert (
            run(
                "extract",
                "--input", sim_paths["sp"],
                "--gt", sim_paths["gt"],
                "--output", props,
            )
            == 0
        )
        _, rows = read_jsonl(props)
        assert rows
        assert all(
            set(r) == {"video_id", "start_s", "end_s", "score", "class_id"} for r in rows
        )

    def test_rows_ordered_by_video_id(self, tmp_path):
        # input rows in reverse id order; the corpus stages sort by video id
        inside = [0.0] * 2 + [1.0] * 4 + [0.0] * 10
        sp = tmp_path / "sp.jsonl"
        write_jsonl(sp, [
            {"video_id": vid, "num_snippets": 16, "snippet_duration_s": 1.0, "attention": inside,
             "class_scores": [[0.9, 0.1] if a else [0.1, 0.9] for a in inside]}
            for vid in ("b", "a")
        ])
        gt = tmp_path / "gt.jsonl"
        write_jsonl(gt, [{"video_id": vid, "start_s": 2.0, "end_s": 6.0, "class_id": 1}
                         for vid in ("b", "a")])
        props = tmp_path / "props.jsonl"
        assert run("extract", "--input", sp, "--gt", gt, "--output", props) == 0
        _, rows = read_jsonl(props)
        assert [r["video_id"] for r in rows] == sorted(r["video_id"] for r in rows)
        assert {r["video_id"] for r in rows} == {"a", "b"}
        write_jsonl(props, [{**row, "score": 1.0} for row in read_jsonl(gt)[1]])
        pseudos = tmp_path / "pseudos.jsonl"
        assert run("fuse", "--input", props, "--input", sp, "--output", pseudos) == 0
        assert [r["video_id"] for r in read_jsonl(pseudos)[1]] == ["a", "b"]

    def test_fuse_single_proposal_round_trip(self, tmp_path):
        grid_file = tmp_path / "grid.jsonl"
        write_jsonl(
            grid_file,
            [{"video_id": "v", "num_snippets": 80, "snippet_duration_s": 1.0, "class_count": 2}],
        )
        props = tmp_path / "props.jsonl"
        write_jsonl(
            props,
            [{"video_id": "v", "start_s": 53.0, "end_s": 59.0, "score": 1.0, "class_id": 1}],
        )
        out = tmp_path / "pseudos.jsonl"
        assert run("fuse", "--input", props, "--input", grid_file, "--output", out) == 0
        _, rows = read_jsonl(out)
        assert len(rows) == 1
        assert rows[0]["class_id"] == 1
        assert abs(rows[0]["start_s"] - 53.0) <= 1.0
        assert abs(rows[0]["end_s"] - 59.0) <= 1.0

    def test_fuse_strategy_flag(self, tmp_path):
        grid_file = tmp_path / "grid.jsonl"
        write_jsonl(
            grid_file,
            [{"video_id": "v", "num_snippets": 40, "snippet_duration_s": 1.0, "class_count": 1}],
        )
        props = tmp_path / "props.jsonl"
        write_jsonl(
            props,
            [
                {"video_id": "v", "start_s": 2.0, "end_s": 10.0, "score": 0.9, "class_id": 1},
                {"video_id": "v", "start_s": 3.0, "end_s": 11.0, "score": 0.5, "class_id": 1},
            ],
        )
        out = tmp_path / "soft.jsonl"
        assert (
            run("fuse", "--input", props, "--input", grid_file,
                "--strategy", "soft", "--output", out)
            == 0
        )
        _, rows = read_jsonl(out)
        assert len(rows) == 2  # keep-all baseline

    def test_unknown_strategy(self, tmp_path, capsys):
        grid_file = tmp_path / "grid.jsonl"
        write_jsonl(
            grid_file,
            [{"video_id": "v", "num_snippets": 40, "snippet_duration_s": 1.0, "class_count": 1}],
        )
        props = tmp_path / "props.jsonl"
        write_jsonl(props, [])  # no video to fuse: the name is still checked
        out = tmp_path / "out.jsonl"
        for name in ("median", "RICKER"):
            code = run("fuse", "--input", props, "--input", grid_file,
                       "--strategy", name, "--output", out)
            assert code == 3
            assert capsys.readouterr().err == f"error: unknown fusion strategy: {name!r}\n"
            assert not out.exists()

    def test_wavelet_csv(self, tmp_path):
        grid_file = tmp_path / "grid.jsonl"
        write_jsonl(
            grid_file,
            [{"video_id": "v", "num_snippets": 20, "snippet_duration_s": 1.0, "class_count": 2}],
        )
        props = tmp_path / "props.jsonl"
        write_jsonl(
            props,
            [{"video_id": "v", "start_s": 4.0, "end_s": 12.0, "score": 1.0, "class_id": 2}],
        )
        out = tmp_path / "pseudos.jsonl"
        csv = tmp_path / "wavelet.csv"
        assert (
            run("fuse", "--input", props, "--input", grid_file,
                "--output", out, "--wavelet-csv", csv)
            == 0
        )
        lines = csv.read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert "tool_version=" in lines[0]
        assert lines[1] == "t,class_1,class_2"
        assert len(lines) == 2 + 20

    def test_wavelet_csv_rejects_multiple_videos(self, tmp_path):
        grid_file = tmp_path / "grid.jsonl"
        write_jsonl(
            grid_file,
            [
                {"video_id": "a", "num_snippets": 20, "snippet_duration_s": 1.0, "class_count": 1},
                {"video_id": "b", "num_snippets": 20, "snippet_duration_s": 1.0, "class_count": 1},
            ],
        )
        props = tmp_path / "props.jsonl"
        write_jsonl(
            props,
            [
                {"video_id": "a", "start_s": 1.0, "end_s": 5.0, "score": 1.0, "class_id": 1},
                {"video_id": "b", "start_s": 1.0, "end_s": 5.0, "score": 1.0, "class_id": 1},
            ],
        )
        code = run(
            "fuse", "--input", props, "--input", grid_file,
            "--output", tmp_path / "p.jsonl", "--wavelet-csv", tmp_path / "w.csv",
        )
        assert code == 3
        assert not (tmp_path / "p.jsonl").exists() and not (tmp_path / "w.csv").exists()


class TestMaskTargets:
    def _grid_and_pseudos(self, tmp_path, num_snippets=30):
        grid_file = tmp_path / "grid.jsonl"
        write_jsonl(
            grid_file,
            [{"video_id": "v", "num_snippets": num_snippets,
              "snippet_duration_s": 1.0, "class_count": 1}],
        )
        pseudos = tmp_path / "pseudos.jsonl"
        write_jsonl(
            pseudos,
            [{"video_id": "v", "start_s": 10.0, "end_s": 20.0, "score": 1.0, "class_id": 1}],
        )
        return grid_file, pseudos

    def test_mask_rle(self, tmp_path):
        grid_file, pseudos = self._grid_and_pseudos(tmp_path)
        out = tmp_path / "mask.jsonl"
        assert run("mask", "--input", pseudos, "--input", grid_file, "--output", out) == 0
        _, rows = read_jsonl(out)
        # default alpha=0.1, beta=0 on [10,20]: uncertain snippets 9 and 20
        assert rows[0]["bits"] == [[1, 9], [0, 1], [1, 10], [0, 1], [1, 9]]

    def test_mask_epoch_schedule(self, tmp_path):
        grid_file, pseudos = self._grid_and_pseudos(tmp_path)
        out = tmp_path / "mask38.jsonl"
        assert (
            run("mask", "--input", pseudos, "--input", grid_file,
                "--epoch", 38, "--output", out)
            == 0
        )
        _, rows = read_jsonl(out)
        assert rows[0]["bits"] == [[1, 30]]  # fully decayed: everything certain

    def test_targets_shape_and_mask_passthrough(self, tmp_path):
        grid_file, pseudos = self._grid_and_pseudos(tmp_path, num_snippets=32)
        mask_file = tmp_path / "mask.jsonl"
        assert run("mask", "--input", pseudos, "--input", grid_file, "--output", mask_file) == 0
        out = tmp_path / "targets.jsonl"
        assert (
            run("targets", "--input", pseudos, "--input", grid_file,
                "--input", mask_file, "--output", out)
            == 0
        )
        _, rows = read_jsonl(out)
        row = rows[0]
        assert row["level_sizes"] == [math.ceil(32 / 2**l) for l in range(6)]
        assert len(row["class_label"]) == sum(row["level_sizes"])
        # level-0 anchor bits must equal the mask file's bits verbatim
        _, mask_rows = read_jsonl(mask_file)
        flat = []
        for value, count in mask_rows[0]["bits"]:
            flat.extend([value] * count)
        assert row["mask_bit"][:32] == flat

    def test_targets_missing_mask_video(self, tmp_path):
        grid_file, pseudos = self._grid_and_pseudos(tmp_path)
        mask_file = tmp_path / "mask.jsonl"
        write_jsonl(mask_file, [{"video_id": "other", "bits": [[1, 30]]}])
        code = run(
            "targets", "--input", pseudos, "--input", grid_file,
            "--input", mask_file, "--output", tmp_path / "t.jsonl",
        )
        assert code == 3

    def test_bad_rle_schema(self, tmp_path):
        grid_file, pseudos = self._grid_and_pseudos(tmp_path)
        mask_file = tmp_path / "mask.jsonl"
        write_jsonl(mask_file, [{"video_id": "v", "bits": [[2, 30]]}])
        code = run(
            "targets", "--input", pseudos, "--input", grid_file,
            "--input", mask_file, "--output", tmp_path / "t.jsonl",
        )
        assert code == 2


class TestLosses:
    def _prepare(self, tmp_path, snippet_probs):
        sp = tmp_path / "sp.jsonl"
        write_jsonl(
            sp,
            [{
                "video_id": "v",
                "num_snippets": 16,
                "snippet_duration_s": 1.0,
                "attention": [1.0] * 16,
                "class_scores": [[0.9, 0.1]] * 16,
            }],
        )
        gt = tmp_path / "gt.jsonl"
        write_jsonl(gt, [{"video_id": "v", "start_s": 2.0, "end_s": 6.0, "class_id": 1}])
        pseudos = tmp_path / "pseudos.jsonl"
        write_jsonl(
            pseudos,
            [{"video_id": "v", "start_s": 2.0, "end_s": 6.0, "score": 1.0, "class_id": 1}],
        )
        targets = tmp_path / "targets.jsonl"
        assert run("targets", "--input", pseudos, "--input", sp, "--output", targets) == 0
        _, target_rows = read_jsonl(targets)
        row = target_rows[0]
        probs = []
        for label in row["class_label"]:
            probs.append([1.0, 0.0] if label == 1 else [0.0, 1.0])
        preds = tmp_path / "preds.jsonl"
        write_jsonl(
            preds,
            [{
                "video_id": "v",
                "class_probs": probs,
                "reg_left": row["reg_left"],
                "reg_right": row["reg_right"],
                "snippet_probs": snippet_probs,
            }],
        )
        return sp, gt, targets, preds

    def test_perfect_predictions_zero_loss(self, tmp_path):
        sp, gt, targets, preds = self._prepare(tmp_path, [[1.0, 0.0]] * 16)
        out = tmp_path / "losses.json"
        assert (
            run("losses", "--input", preds, "--input", targets,
                "--input", sp, "--gt", gt, "--output", out)
            == 0
        )
        report = read_report(out)
        entry = report["metrics"]["per_video"]["v"]
        assert entry["cls"] == 0.0
        assert entry["reg"] == 0.0
        assert entry["att"] == 0.0
        assert entry["total"] == 0.0
        assert entry["empty_positives"] is False
        assert report["metrics"]["mean"]["empty_positives"] == 0
        assert report["timings_ms"] is None

    def test_timings_flag(self, tmp_path):
        sp, gt, targets, preds = self._prepare(tmp_path, [[1.0, 0.0]] * 16)
        out = tmp_path / "losses.json"
        assert (
            run("losses", "--input", preds, "--input", targets,
                "--input", sp, "--gt", gt, "--output", out, "--timings")
            == 0
        )
        timings = read_report(out)["timings_ms"]
        assert set(timings) == {"losses"} and timings["losses"] >= 0.0

    def test_attention_loss_reported(self, tmp_path):
        sp, gt, targets, preds = self._prepare(tmp_path, [[0.5, 0.5]] * 16)
        out = tmp_path / "losses.json"
        assert (
            run("losses", "--input", preds, "--input", targets,
                "--input", sp, "--gt", gt, "--output", out)
            == 0
        )
        entry = read_report(out)["metrics"]["per_video"]["v"]
        expected_att = 0.25 * math.log(2)
        assert entry["att"] == pytest.approx(expected_att, abs=1e-5)
        assert entry["total"] == pytest.approx(0.2 * expected_att, abs=1e-5)

    def test_empty_sp_file(self, tmp_path):
        # no SP row, no attention term: att is 0, as for a video the SP file lacks
        _, gt, targets, preds = self._prepare(tmp_path, [[0.5, 0.5]] * 16)
        empty = tmp_path / "empty_sp.jsonl"
        write_jsonl(empty, [])
        out = tmp_path / "losses.json"
        assert run("losses", "--input", preds, "--input", targets,
                   "--input", empty, "--gt", gt, "--output", out) == 0
        assert read_report(out)["metrics"]["per_video"]["v"]["att"] == 0.0

    def test_class_count_per_video(self, tmp_path):
        # each video's label is built on its own grid, not on the first row's
        sp = tmp_path / "sp.jsonl"
        write_jsonl(sp, [
            {"video_id": "a", "num_snippets": 16, "snippet_duration_s": 1.0,
             "attention": [1.0] * 16, "class_scores": [[0.9, 0.1]] * 16},
            {"video_id": "b", "num_snippets": 16, "snippet_duration_s": 1.0,
             "attention": [1.0] * 16, "class_scores": [[0.05, 0.9, 0.05]] * 16},
        ])
        gt = tmp_path / "gt.jsonl"
        pseudos = tmp_path / "pseudos.jsonl"
        segments = [{"video_id": "a", "start_s": 2.0, "end_s": 6.0, "class_id": 1},
                    {"video_id": "b", "start_s": 2.0, "end_s": 6.0, "class_id": 2}]
        write_jsonl(gt, segments)
        write_jsonl(pseudos, [{**row, "score": 1.0} for row in segments])
        targets = tmp_path / "targets.jsonl"
        assert run("targets", "--input", pseudos, "--input", sp, "--output", targets) == 0
        preds = tmp_path / "preds.jsonl"
        write_jsonl(preds, [
            {"video_id": row["video_id"],
             "class_probs": [[1.0] * (row["class_count"] + 1)] * len(row["class_label"]),
             "reg_left": row["reg_left"], "reg_right": row["reg_right"],
             "snippet_probs": [[1 / (row["class_count"] + 1)] * (row["class_count"] + 1)] * 16}
            for row in read_jsonl(targets)[1]
        ])
        out = tmp_path / "losses.json"
        assert run("losses", "--input", preds, "--input", targets,
                   "--input", sp, "--gt", gt, "--output", out) == 0
        per_video = read_report(out)["metrics"]["per_video"]
        # uniform snippet probabilities: focal(1/2) on a, focal(1/3) on b
        assert per_video["a"]["att"] == pytest.approx(0.25 * math.log(2), abs=1e-5)
        assert per_video["b"]["att"] == pytest.approx(4 / 9 * math.log(3), abs=1e-5)

    def test_empty_positives_flagged(self, tmp_path):
        sp = tmp_path / "sp.jsonl"
        pseudos = tmp_path / "pseudos.jsonl"
        write_jsonl(
            sp,
            [{"video_id": "v", "num_snippets": 8, "snippet_duration_s": 1.0,
              "attention": [0.0] * 8, "class_scores": [[0.5, 0.5]] * 8}],
        )
        write_jsonl(
            pseudos,
            [{"video_id": "v", "start_s": 0.0, "end_s": 8.0, "score": 1.0, "class_id": 1}],
        )
        # mask out the whole video so no positive anchor survives
        mask_file = tmp_path / "mask.jsonl"
        write_jsonl(mask_file, [{"video_id": "v", "bits": [[0, 8]]}])
        targets = tmp_path / "targets.jsonl"
        assert (
            run("targets", "--input", pseudos, "--input", sp,
                "--input", mask_file, "--output", targets)
            == 0
        )
        _, rows = read_jsonl(targets)
        row = rows[0]
        preds = tmp_path / "preds.jsonl"
        write_jsonl(
            preds,
            [{
                "video_id": "v",
                "class_probs": [[0.5, 0.5]] * len(row["class_label"]),
                "reg_left": row["reg_left"],
                "reg_right": row["reg_right"],
            }],
        )
        out = tmp_path / "losses.json"
        assert run("losses", "--input", preds, "--input", targets, "--output", out) == 0
        report = read_report(out)
        assert report["metrics"]["per_video"]["v"]["empty_positives"] is True
        assert report["metrics"]["per_video"]["v"]["reg"] == 0.0
        assert report["metrics"]["mean"]["empty_positives"] == 1


class TestEval:
    def test_perfect_predictions(self, sim_paths):
        _, gt_rows = read_jsonl(sim_paths["gt"])
        preds = sim_paths["dir"] / "preds.jsonl"
        write_jsonl(preds, [dict(r, score=0.9) for r in gt_rows])
        out = sim_paths["dir"] / "eval.json"
        assert run("eval", "--input", preds, "--gt", sim_paths["gt"], "--output", out) == 0
        report = read_report(out)
        assert report["config_hash"] == PipelineConfig().config_hash()
        assert report["metrics"]["map"] == [1.0] * 7
        assert report["metrics"]["average_map"] == 1.0
        assert report["metrics"]["range_averages"]["0.1:0.7"] == 1.0
        assert report["timings_ms"] is None

    def test_timings_flag(self, sim_paths):
        _, gt_rows = read_jsonl(sim_paths["gt"])
        preds = sim_paths["dir"] / "preds.jsonl"
        write_jsonl(preds, [dict(r, score=0.9) for r in gt_rows])
        out = sim_paths["dir"] / "eval_timed.json"
        assert (
            run("eval", "--input", preds, "--gt", sim_paths["gt"],
                "--output", out, "--timings")
            == 0
        )
        assert isinstance(read_report(out)["timings_ms"], dict)


class TestBenchmark:
    def test_report_and_determinism(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(
            json.dumps({"sim": {"seed": 2, "num_videos": 3, "attention_noise_std": 0.1}})
        )
        a = tmp_path / "bench_a.json"
        b = tmp_path / "bench_b.json"
        for out in (a, b):
            assert (
                run("benchmark", "--config", cfg, "--strategy", "ricker",
                    "--strategy", "soft", "--output", out)
                == 0
            )
        assert a.read_bytes() == b.read_bytes()
        report = read_report(a)
        assert set(report["metrics"]["strategies"]) == {"ricker", "soft"}
        assert "PCG64" in report["metrics"]["rng"]
        assert report["metrics"]["sim"]["num_videos"] == 3
        for metrics in report["metrics"]["strategies"].values():
            for key in ("precision", "recall"):
                assert len(metrics[key]) == len(metrics["thresholds"])
                assert all(0.0 <= v <= 1.0 for v in metrics[key])

    def test_timings_keys(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"sim": {"seed": 2, "num_videos": 2}}))
        out = tmp_path / "bench.json"
        assert (
            run("benchmark", "--config", cfg, "--strategy", "ricker",
                "--strategy", "gauss", "--output", out, "--timings")
            == 0
        )
        timings = read_report(out)["timings_ms"]
        assert list(timings) == ["gauss", "ricker", "simulate", "weak_branch"]
        assert all(v >= 0.0 for v in timings.values())

    def test_range_averages_need_both_endpoints(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(
            json.dumps({"eval_tious": [0.1, 0.5], "sim": {"seed": 2, "num_videos": 3}})
        )
        out = tmp_path / "bench.json"
        assert run("benchmark", "--config", cfg, "--strategy", "ricker", "--output", out) == 0
        ricker = read_report(out)["metrics"]["strategies"]["ricker"]
        assert list(ricker["range_averages"]) == ["0.1:0.5"]
        assert ricker["range_averages"]["0.1:0.5"] == ricker["average_map"]

    def test_default_strategies_cover_all_six(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"sim": {"seed": 2, "num_videos": 2}}))
        out = tmp_path / "bench.json"
        assert run("benchmark", "--config", cfg, "--output", out) == 0
        report = read_report(out)
        assert list(report["metrics"]["strategies"]) == sorted(STRATEGIES)
        assert set(STRATEGIES) == {"ricker", "soft", "hard", "topk", "threshold", "gauss"}


class TestFullChain:
    def test_simulate_extract_fuse_eval(self, sim_paths):
        d = sim_paths["dir"]
        props = d / "props.jsonl"
        pseudos = d / "pseudos.jsonl"
        report = d / "report.json"
        assert run("extract", "--input", sim_paths["sp"], "--gt", sim_paths["gt"],
                   "--output", props) == 0
        assert run("fuse", "--input", props, "--input", sim_paths["sp"],
                   "--output", pseudos) == 0
        assert run("eval", "--input", pseudos, "--gt", sim_paths["gt"],
                   "--output", report) == 0
        # noiseless corpus: the pipeline reproduces ground truth
        metrics = read_report(report)["metrics"]
        assert metrics["map"][4] == 1.0  # tIoU 0.5
        assert metrics["average_map"] >= 0.95

    def test_mask_and_targets_follow(self, sim_paths):
        d = sim_paths["dir"]
        props = d / "props.jsonl"
        pseudos = d / "pseudos.jsonl"
        mask_file = d / "mask.jsonl"
        targets = d / "targets.jsonl"
        assert run("extract", "--input", sim_paths["sp"], "--gt", sim_paths["gt"],
                   "--output", props) == 0
        assert run("fuse", "--input", props, "--input", sim_paths["sp"],
                   "--output", pseudos) == 0
        assert run("mask", "--input", pseudos, "--input", sim_paths["sp"],
                   "--output", mask_file) == 0
        assert run("targets", "--input", pseudos, "--input", sim_paths["sp"],
                   "--input", mask_file, "--output", targets) == 0
        _, sp_rows = read_jsonl(sim_paths["sp"])
        _, target_rows = read_jsonl(targets)
        assert {r["video_id"] for r in target_rows} == {r["video_id"] for r in sp_rows}
        for row in target_rows:
            expected = [math.ceil(row["num_snippets"] / 2**l) for l in range(6)]
            assert row["level_sizes"] == expected


class TestExitCodes:
    def test_missing_input_file(self, tmp_path):
        code = run("extract", "--input", tmp_path / "nope.jsonl",
                   "--gt", tmp_path / "gt.jsonl", "--output", tmp_path / "o.jsonl")
        assert code == 2

    def test_wrong_input_count(self, tmp_path):
        props = tmp_path / "props.jsonl"
        write_jsonl(props, [])
        assert run("fuse", "--input", props, "--output", tmp_path / "o.jsonl") == 2

    @pytest.mark.parametrize("cmd", ["targets", "losses"])
    def test_extra_input_path(self, tmp_path, capsys, cmd):
        sizes = [math.ceil(8 / 2**l) for l in range(6)]
        n = sum(sizes)
        rows = {
            "segments": SEGMENT_ROW,
            "grid": GRID_ROW,
            "mask": {"video_id": "v", "bits": [[1, 8]]},
            "preds": {"video_id": "v", "class_probs": [[0.5, 0.5]] * n,
                      "reg_left": [1.0] * n, "reg_right": [1.0] * n},
            "targets": {"video_id": "v", "num_snippets": 8, "snippet_duration_s": 1.0,
                        "class_count": 1, "level_sizes": sizes, "class_label": [0] * n,
                        "reg_left": [0.0] * n, "reg_right": [0.0] * n,
                        "iou_weight": [0.0] * n, "mask_bit": [1] * n},
            "sp": {"video_id": "v", "num_snippets": 8, "snippet_duration_s": 1.0,
                   "attention": [0.5] * 8, "class_scores": [[0.5, 0.5]] * 8},
        }
        files = {}
        for name, row in rows.items():
            files[name] = tmp_path / f"{name}.jsonl"
            write_jsonl(files[name], [row])
        roles, flags = {
            "targets": (("segments", "grid", "mask"), ()),
            "losses": (("preds", "targets", "sp"), ("--gt", files["segments"])),
        }[cmd]
        argv = [cmd, *flags]
        for role in roles:
            argv += ["--input", files[role]]
        out = tmp_path / "out"
        assert run(*argv, "--output", out) == 0
        out.unlink()
        assert run(*argv, "--input", tmp_path / "nonexistent.jsonl", "--output", out) == 2
        assert capsys.readouterr().err.startswith(
            "error: this subcommand takes 2 to 3 --input paths ("
        )
        assert not out.exists()

    def test_losses_gt_without_sp_file(self, tmp_path, capsys):
        # --gt feeds only the attention term, which needs the SP file
        sizes = [math.ceil(8 / 2**l) for l in range(6)]
        n = sum(sizes)
        targets = tmp_path / "targets.jsonl"
        write_jsonl(targets, [{
            "video_id": "v", "num_snippets": 8, "snippet_duration_s": 1.0,
            "class_count": 1, "level_sizes": sizes, "class_label": [0] * n,
            "reg_left": [0.0] * n, "reg_right": [0.0] * n,
            "iou_weight": [0.0] * n, "mask_bit": [1] * n,
        }])
        preds = tmp_path / "preds.jsonl"
        write_jsonl(preds, [{"video_id": "v", "class_probs": [[0.5, 0.5]] * n,
                             "reg_left": [1.0] * n, "reg_right": [1.0] * n}])
        out = tmp_path / "losses.json"
        argv = ["losses", "--input", preds, "--input", targets, "--output", out]
        assert run(*argv) == 0
        out.unlink()
        assert run(*argv, "--gt", tmp_path / "nonexistent.jsonl") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --gt is read only with an SP file") and err.count("\n") == 1
        assert not out.exists()

    def test_level_sizes_disagree_with_grid(self, tmp_path, capsys):
        # 32 anchors on one level of a 16-snippet grid: level 0 needs 16
        targets = tmp_path / "targets.jsonl"
        write_jsonl(targets, [{
            "video_id": "v", "num_snippets": 16, "snippet_duration_s": 1.0,
            "class_count": 1, "level_sizes": [32], "class_label": [0] * 32,
            "reg_left": [0.0] * 32, "reg_right": [0.0] * 32,
            "iou_weight": [0.0] * 32, "mask_bit": [1] * 32,
        }])
        preds = tmp_path / "preds.jsonl"
        write_jsonl(preds, [{"video_id": "v", "class_probs": [[0.5, 0.5]] * 32,
                             "reg_left": [1.0] * 32, "reg_right": [1.0] * 32}])
        out = tmp_path / "losses.json"
        assert run("losses", "--input", preds, "--input", targets, "--output", out) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: level_sizes [32] disagree") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("value, code", [(0, 3), (2.0, 3), (-0.25, 3), (1.0, 0)])
    def test_oic_inflation_range(self, tmp_path, capsys, value, code):
        # the range oic_score enforces, checked when the config loads
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"oic_inflation": value}))
        preds = tmp_path / "preds.jsonl"
        write_jsonl(preds, [SEGMENT_ROW])
        out = tmp_path / "eval.json"
        assert run("eval", "--config", cfg, "--input", preds, "--gt", preds,
                   "--output", out) == code
        if code:
            assert capsys.readouterr().err == f"error: {cfg}: oic_inflation must lie in (0, 1]\n"
            assert not out.exists()

    def test_missing_gt_flag(self, tmp_path):
        preds = tmp_path / "preds.jsonl"
        write_jsonl(preds, [])
        assert run("eval", "--input", preds, "--output", tmp_path / "o.json") == 2

    def test_malformed_json_row(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        code = run("eval", "--input", bad, "--gt", bad, "--output", tmp_path / "o.json")
        assert code == 2

    def test_constraint_violation(self, tmp_path):
        grid_file = tmp_path / "grid.jsonl"
        write_jsonl(
            grid_file,
            [{"video_id": "v", "num_snippets": 10, "snippet_duration_s": 1.0, "class_count": 1}],
        )
        props = tmp_path / "props.jsonl"
        write_jsonl(
            props,
            [{"video_id": "v", "start_s": 7.0, "end_s": 2.0, "score": 1.0, "class_id": 1}],
        )
        code = run("fuse", "--input", props, "--input", grid_file,
                   "--output", tmp_path / "o.jsonl")
        assert code == 3

    def test_class_label_outside_grid(self, tmp_path, capsys):
        grid_file = tmp_path / "grid.jsonl"
        write_jsonl(
            grid_file,
            [{"video_id": "v", "num_snippets": 16, "snippet_duration_s": 1.0, "class_count": 2}],
        )
        pseudos = tmp_path / "pseudos.jsonl"
        write_jsonl(
            pseudos,
            [{"video_id": "v", "start_s": 2.0, "end_s": 6.0, "score": 1.0, "class_id": 5}],
        )
        code = run("targets", "--input", pseudos, "--input", grid_file,
                   "--output", tmp_path / "t.jsonl")
        assert code == 3
        # a hand-written targets file with the same label reaches losses
        sizes = [math.ceil(16 / 2**l) for l in range(6)]
        n = sum(sizes)
        labels = [0] * n
        labels[3] = 5
        targets = tmp_path / "targets.jsonl"
        write_jsonl(targets, [{
            "video_id": "v", "num_snippets": 16, "snippet_duration_s": 1.0,
            "class_count": 2, "level_sizes": sizes,
            "class_label": labels, "reg_left": [1.0] * n, "reg_right": [1.0] * n,
            "iou_weight": [1.0 if l else 0.0 for l in labels], "mask_bit": [1] * n,
        }])
        preds = tmp_path / "preds.jsonl"
        write_jsonl(preds, [{
            "video_id": "v", "class_probs": [[0.2, 0.3, 0.5]] * n,
            "reg_left": [1.0] * n, "reg_right": [1.0] * n,
        }])
        capsys.readouterr()
        code = run("losses", "--input", preds, "--input", targets, "--output", tmp_path / "l.json")
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: class_label") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "strategy", ["ricker", "soft", "hard", "topk", "threshold", "gauss"]
    )
    def test_fuse_class_outside_grid(self, tmp_path, capsys, strategy):
        grid_file = tmp_path / "grid.jsonl"
        write_jsonl(
            grid_file,
            [{"video_id": "v", "num_snippets": 16, "snippet_duration_s": 1.0, "class_count": 2}],
        )
        props = tmp_path / "props.jsonl"
        write_jsonl(
            props,
            [{"video_id": "v", "start_s": 2.0, "end_s": 9.0, "score": 0.9, "class_id": 7}],
        )
        out = tmp_path / "pseudos.jsonl"
        code = run("fuse", "--input", props, "--input", grid_file,
                   "--strategy", strategy, "--output", out)
        assert code == 3
        assert capsys.readouterr().err == "error: proposal class out of grid range\n"
        assert not out.exists()

    @pytest.mark.parametrize("field", ["attention", "class_scores"])
    def test_non_finite_snippet_predictions(self, tmp_path, capsys, field):
        row = {"video_id": "v", "num_snippets": 4, "snippet_duration_s": 1.0,
               "attention": [0.5] * 4, "class_scores": [[0.5, 0.5]] * 4}
        if field == "attention":
            row["attention"][2] = float("nan")
        else:
            row["class_scores"][2] = [float("nan"), 0.5]
        sp = tmp_path / "sp.jsonl"
        write_jsonl(sp, [row])
        gt = tmp_path / "gt.jsonl"
        write_jsonl(gt, [{"video_id": "v", "start_s": 1.0, "end_s": 3.0, "class_id": 1}])
        code = run("extract", "--input", sp, "--gt", gt, "--output", tmp_path / "p.jsonl")
        assert code == 3
        err = capsys.readouterr().err
        assert err == "error: attention and class_scores must be finite\n"

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"bogus_knob": 1}))
        preds = tmp_path / "p.jsonl"
        write_jsonl(preds, [])
        code = run("eval", "--config", cfg, "--input", preds,
                   "--gt", preds, "--output", tmp_path / "o.json")
        assert code == 2

    def test_invalid_config_json(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text("{nope")
        code = run("simulate", "--config", cfg, "--output", tmp_path / "o.jsonl")
        assert code == 2

    def test_unknown_sim_key(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"sim": {"frobnicate": True}}))
        code = run("simulate", "--config", cfg, "--output", tmp_path / "o.jsonl")
        assert code == 2

    def test_bad_sim_value(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"sim": {"num_videos": 0}}))
        out = tmp_path / "o.jsonl"
        assert run("simulate", "--config", cfg, "--output", out) == 3
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("field", ["class_probs", "reg_left", "snippet_probs"])
    def test_non_finite_anchor_predictions(self, tmp_path, capsys, field):
        sizes = [math.ceil(8 / 2**l) for l in range(6)]
        n = sum(sizes)
        targets = tmp_path / "targets.jsonl"
        write_jsonl(targets, [{
            "video_id": "v", "num_snippets": 8, "snippet_duration_s": 1.0,
            "class_count": 1, "level_sizes": sizes, "class_label": [0] * n,
            "reg_left": [0.0] * n, "reg_right": [0.0] * n,
            "iou_weight": [0.0] * n, "mask_bit": [1] * n,
        }])
        row = {"video_id": "v", "class_probs": [[0.5, 0.5]] * n,
               "reg_left": [1.0] * n, "reg_right": [1.0] * n,
               "snippet_probs": [[0.5, 0.5]] * 8}
        row[field] = list(row[field])
        row[field][1] = [float("nan"), 0.5] if field != "reg_left" else float("nan")
        preds = tmp_path / "preds.jsonl"
        write_jsonl(preds, [row])
        out = tmp_path / "losses.json"
        assert run("losses", "--input", preds, "--input", targets, "--output", out) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [("class_id", 1.7), ("class_id", True), ("class_id", "1"),
         ("start_s", "abc"), ("end_s", None), ("score", "abc"), ("score", False)],
    )
    def test_segment_field_types(self, tmp_path, capsys, field, value):
        gt = tmp_path / "gt.jsonl"
        write_jsonl(gt, [{"video_id": "v", "start_s": 1.0, "end_s": 3.0, "class_id": 1}])
        pred = {"video_id": "v", "start_s": 1.0, "end_s": 3.0, "class_id": 1, "score": 0.9}
        pred[field] = value
        preds = tmp_path / "preds.jsonl"
        write_jsonl(preds, [pred])
        out = tmp_path / "eval.json"
        assert run("eval", "--input", preds, "--gt", gt, "--output", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {preds}: {field} must be") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["sp", "grid", "mask", "targets", "anchor_predictions"])
    def test_duplicate_video_rows(self, tmp_path, capsys, kind):
        sizes = [math.ceil(8 / 2**l) for l in range(6)]
        n = sum(sizes)
        rows = {
            "sp": {"video_id": "v", "num_snippets": 8, "snippet_duration_s": 1.0,
                   "attention": [0.5] * 8, "class_scores": [[0.5, 0.5]] * 8},
            "grid": {"video_id": "v", "num_snippets": 8, "snippet_duration_s": 1.0,
                     "class_count": 1},
            "mask": {"video_id": "v", "bits": [[1, 8]]},
            "targets": {"video_id": "v", "num_snippets": 8, "snippet_duration_s": 1.0,
                        "class_count": 1, "level_sizes": sizes, "class_label": [0] * n,
                        "reg_left": [0.0] * n, "reg_right": [0.0] * n,
                        "iou_weight": [0.0] * n, "mask_bit": [1] * n},
            "anchor_predictions": {"video_id": "v", "class_probs": [[0.5, 0.5]] * n,
                                   "reg_left": [1.0] * n, "reg_right": [1.0] * n},
        }
        files = {}
        for name, row in rows.items():
            files[name] = tmp_path / f"{name}.jsonl"
            write_jsonl(files[name], [row, row] if name == kind else [row])
        segments = tmp_path / "segments.jsonl"
        write_jsonl(segments, [{"video_id": "v", "start_s": 2.0, "end_s": 5.0,
                                "score": 1.0, "class_id": 1}])
        out = tmp_path / "out"
        argv = {
            "sp": ("extract", "--input", files["sp"], "--gt", segments),
            "grid": ("fuse", "--input", segments, "--input", files["grid"]),
            "mask": ("targets", "--input", segments, "--input", files["grid"],
                     "--input", files["mask"]),
            "targets": ("losses", "--input", files["anchor_predictions"],
                        "--input", files["targets"]),
            "anchor_predictions": ("losses", "--input", files["anchor_predictions"],
                                   "--input", files["targets"]),
        }[kind]
        assert run(*argv, "--output", out) == 2
        assert capsys.readouterr().err == f"error: {files[kind]}: duplicate video_id 'v'\n"
        assert not out.exists()


# Besides --config and --output, the flags each subcommand reads.
SUBCOMMAND_FLAGS = {
    "extract": {"--input", "--gt"},
    "fuse": {"--input", "--strategy", "--wavelet-csv"},
    "mask": {"--input", "--epoch"},
    "targets": {"--input", "--epoch"},
    "losses": {"--input", "--gt", "--timings"},
    "eval": {"--input", "--gt", "--timings"},
    "simulate": {"--gt", "--seed"},
    "benchmark": {"--strategy", "--seed", "--timings"},
}
ALL_FLAGS = sorted(set().union(*SUBCOMMAND_FLAGS.values()))


class TestSubcommandTable:
    def test_flags_per_subcommand(self):
        assert {name: set(c.flags) for name, c in COMMANDS.items()} == SUBCOMMAND_FLAGS

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_help_exits_zero(self, capsys, name):
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out
        for flag in ("--config", "--output", *COMMANDS[name].flags):
            assert flag in usage

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_unread_flags_exit_2(self, tmp_path, capsys, name):
        out = tmp_path / "out"
        unread = [f for f in ALL_FLAGS if f not in COMMANDS[name].flags]
        assert unread
        for flag in unread:
            with pytest.raises(SystemExit) as exc:
                main([name, "--output", str(out), flag, "1"])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
            assert not out.exists()

    def test_fuse_strategy_is_single_valued(self, tmp_path):
        grid_file = tmp_path / "grid.jsonl"
        write_jsonl(
            grid_file,
            [{"video_id": "v", "num_snippets": 40, "snippet_duration_s": 1.0, "class_count": 1}],
        )
        props = tmp_path / "props.jsonl"
        write_jsonl(props, [
            {"video_id": "v", "start_s": 2.0, "end_s": 10.0, "score": 0.9, "class_id": 1},
            {"video_id": "v", "start_s": 3.0, "end_s": 11.0, "score": 0.5, "class_id": 1},
        ])
        outs = {}
        for name, extra in [("default", ()), ("ricker", ("--strategy", "ricker")),
                            ("last", ("--strategy", "soft", "--strategy", "ricker"))]:
            outs[name] = tmp_path / f"{name}.jsonl"
            assert run("fuse", "--input", props, "--input", grid_file, *extra,
                       "--output", outs[name]) == 0
        assert outs["default"].read_bytes() == outs["ricker"].read_bytes()
        assert outs["last"].read_bytes() == outs["ricker"].read_bytes()


GRID_ROW = {"video_id": "v", "num_snippets": 8, "snippet_duration_s": 1.0, "class_count": 1}
SEGMENT_ROW = {"video_id": "v", "start_s": 2.0, "end_s": 5.0, "score": 1.0, "class_id": 1}


def _grid_run(tmp_path, grid_row, cmd, out):
    grid_file = tmp_path / "grid.jsonl"
    write_jsonl(grid_file, [grid_row])
    segments = tmp_path / "segments.jsonl"
    write_jsonl(segments, [SEGMENT_ROW])
    return run(cmd, "--input", segments, "--input", grid_file, "--output", out), grid_file


class TestNumericFields:
    @pytest.mark.parametrize("cmd", ["fuse", "mask", "targets"])
    def test_grid_source_without_class_columns(self, tmp_path, capsys, cmd):
        row = {"video_id": "v", "num_snippets": 8, "snippet_duration_s": 1.0,
               "class_scores": []}
        out = tmp_path / "out.jsonl"
        code, grid_file = _grid_run(tmp_path, row, cmd, out)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {grid_file}: class_scores must be a nonempty list of rows\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("cmd", ["fuse", "mask", "targets", "extract"])
    def test_sp_shaped_grid_source_length(self, tmp_path, capsys, cmd):
        # one grid rule for SP-shaped rows, whether read as SP file or grid source
        full = {"video_id": "v", "num_snippets": 8, "snippet_duration_s": 1.0,
                "attention": [0.5] * 8, "class_scores": [[0.5, 0.5]] * 8}
        for field, short, what in (("class_scores", [[0.5, 0.5]], "class_scores shape"),
                                   ("attention", [0.5], "attention length")):
            out = tmp_path / "out.jsonl"
            if cmd == "extract":
                grid_file = tmp_path / "grid.jsonl"
                write_jsonl(grid_file, [{**full, field: short}])
                gt = tmp_path / "gt.jsonl"
                write_jsonl(gt, [SEGMENT_ROW])
                code = run(cmd, "--input", grid_file, "--gt", gt, "--output", out)
            else:
                code, grid_file = _grid_run(tmp_path, {**full, field: short}, cmd, out)
            assert code == 2
            assert capsys.readouterr().err == (
                f"error: {grid_file}: {what} disagrees with num_snippets\n"
            )
            assert not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [("num_snippets", 8.7), ("num_snippets", "abc"), ("num_snippets", True),
         ("snippet_duration_s", "1"), ("snippet_duration_s", None),
         ("class_count", 1.0), ("class_count", "1")],
    )
    def test_grid_file(self, tmp_path, capsys, field, value):
        out = tmp_path / "out.jsonl"
        code, grid_file = _grid_run(tmp_path, {**GRID_ROW, field: value}, "fuse", out)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {grid_file}: {field} must be") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [("num_snippets", 4.0), ("num_snippets", "4"), ("snippet_duration_s", "1.0"),
         ("snippet_duration_s", False)],
    )
    def test_sp_file(self, tmp_path, capsys, field, value):
        row = {"video_id": "v", "num_snippets": 4, "snippet_duration_s": 1.0,
               "attention": [0.5] * 4, "class_scores": [[0.5, 0.5]] * 4, field: value}
        sp = tmp_path / "sp.jsonl"
        write_jsonl(sp, [row])
        gt = tmp_path / "gt.jsonl"
        write_jsonl(gt, [{"video_id": "v", "start_s": 1.0, "end_s": 3.0, "class_id": 1}])
        out = tmp_path / "p.jsonl"
        assert run("extract", "--input", sp, "--gt", gt, "--output", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {sp}: {field} must be") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [("num_snippets", 8.0), ("snippet_duration_s", "1"), ("class_count", 1.5),
         ("level_sizes", 6), ("level_sizes", "entry")],
    )
    def test_targets_file(self, tmp_path, capsys, field, value):
        sizes = [math.ceil(8 / 2**l) for l in range(6)]
        n = sum(sizes)
        row = {"video_id": "v", "num_snippets": 8, "snippet_duration_s": 1.0,
               "class_count": 1, "level_sizes": sizes, "class_label": [0] * n,
               "reg_left": [0.0] * n, "reg_right": [0.0] * n,
               "iou_weight": [0.0] * n, "mask_bit": [1] * n}
        if value == "entry":
            row["level_sizes"] = [*sizes[:-1], 1.0]
        else:
            row[field] = value
        targets = tmp_path / "targets.jsonl"
        write_jsonl(targets, [row])
        preds = tmp_path / "preds.jsonl"
        write_jsonl(preds, [{"video_id": "v", "class_probs": [[0.5, 0.5]] * n,
                             "reg_left": [1.0] * n, "reg_right": [1.0] * n}])
        out = tmp_path / "losses.json"
        assert run("losses", "--input", preds, "--input", targets, "--output", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {targets}: {field} must be") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "pair, field",
        [pytest.param([1, 8.0], "count", id="8.0"),
         pytest.param([1, 7.6], "count", id="7.6"),
         pytest.param([1, "8"], "count", id="8"),
         pytest.param([1, True], "count", id="True"),
         pytest.param([True, 8], "value", id="value-True"),
         pytest.param([1.0, 8], "value", id="value-1.0")],
    )
    def test_mask_file(self, tmp_path, capsys, pair, field):
        mask_file = tmp_path / "mask.jsonl"
        write_jsonl(mask_file, [{"video_id": "v", "bits": [pair]}])
        grid_file = tmp_path / "grid.jsonl"
        write_jsonl(grid_file, [GRID_ROW])
        segments = tmp_path / "segments.jsonl"
        write_jsonl(segments, [SEGMENT_ROW])
        out = tmp_path / "targets.jsonl"
        code = run("targets", "--input", segments, "--input", grid_file,
                   "--input", mask_file, "--output", out)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {mask_file}: bits {field} must be") and err.count("\n") == 1
        assert not out.exists()

    def test_integer_duration_is_a_number(self, tmp_path):
        out = tmp_path / "out.jsonl"
        code, _ = _grid_run(tmp_path, {**GRID_ROW, "snippet_duration_s": 1}, "fuse", out)
        assert code == 0
