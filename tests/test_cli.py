import ast
import dataclasses
import inspect
import json
import math
import os
import re
import reprlib
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pseudotal import cli, readers
from pseudotal.cli import COMMANDS, main
from pseudotal.config import TOOL_VERSION, PipelineConfig, SchemaError, blame
from pseudotal.core import MAX_GRID_CELLS, GroundTruthSet, Segments, SnippetPredictions, TimeGrid
from pseudotal.evaluation import map_table
from pseudotal.fusion import STRATEGIES
from pseudotal.sim import SimConfig
from pseudotal.targets import ANCHOR_FIELDS, att_loss
from pseudotal.weak_branch import (
    VideoLabel, extract_proposals, oic_scores, soft_nms, weak_proposals,
)


def run(*argv):
    return main([str(a) for a in argv])


HUGE = int("9" * 400)  # a JSON integer past the float range
HUGE_SHOWN = reprlib.repr(HUGE)


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


def mask_file_for(pseudos, grid_source, out):
    """Run `mask` on a pseudo file and a grid source; the mask file `targets` reads."""
    assert run("mask", "--input", pseudos, "--input", grid_source, "--output", out) == 0
    return out


def read_report(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _spoil(values, case):
    """`values`, a list of numbers or of rows of numbers, with its first entry
    a JSON string or boolean, or with every entry a boolean."""
    if case == "all-boolean":
        return [[True] * len(v) if isinstance(v, list) else True for v in values]
    entry = {"text": "a", "string": "0.5", "boolean": True}[case]
    first = values[0]
    return [[entry, *first[1:]] if isinstance(first, list) else entry, *values[1:]]


def _run_capped(*argv):
    """The CLI in a child process whose address space is capped at 2 GiB, so
    an oversize allocation fails fast instead of exhausting the host."""

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    return subprocess.run(
        [sys.executable, "-m", "pseudotal.cli", *map(str, argv)],
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
        preexec_fn=cap_address_space, capture_output=True, text=True, timeout=60,
    )


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


    def test_a_video_keeps_its_row_in_a_larger_corpus(self, tmp_path):
        """Past 10000 videos, `video_10000` sorts between `video_1000` and
        `video_1001`; every video still draws from the streams of its own
        number, so each video of a 10000-video corpus has the same row in a
        10001-video one."""
        sim = {"seed": 2, "class_count": 1, "snippets_per_video": [1, 1],
               "actions_per_video": [1, 1], "duration_range_s": [1.0, 1.0],
               "attention_noise_std": 0.5}
        rows = {}
        for n in (10000, 10001):
            cfg, out = tmp_path / f"config{n}.json", tmp_path / f"sp{n}.jsonl"
            cfg.write_text(json.dumps({"sim": {**sim, "num_videos": n}}))
            assert run("simulate", "--config", cfg, "--output", out) == 0
            rows[n] = {row["video_id"]: row for row in read_jsonl(out)[1]}
        assert sorted(rows[10001]) == sorted([*rows[10000], "video_10000"])
        assert [vid for vid in rows[10000] if rows[10000][vid] != rows[10001][vid]] == []


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
        # segment rows in reverse id order (an SP file lists its videos in
        # ascending order); the outputs follow the video ids
        inside = [0.0] * 2 + [1.0] * 4 + [0.0] * 10
        sp = tmp_path / "sp.jsonl"
        write_jsonl(sp, [
            {"video_id": vid, "num_snippets": 16, "snippet_duration_s": 1.0, "attention": inside,
             "class_scores": [[0.9, 0.1] if a else [0.1, 0.9] for a in inside]}
            for vid in ("a", "b")
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

    @pytest.mark.parametrize("strategy", ["soft", "hard", "topk", "threshold"])
    def test_negative_zero_score_keeps_its_sign(self, tmp_path, strategy):
        # pseudo labels floor a score at 0 and keep a -0.0 as -0.0, as Python's
        # max(-0.0, 0.0) does; `threshold` drops the row (-0.0 < 0.2)
        grid_file, props, out = (tmp_path / n for n in ("grid.jsonl", "props.jsonl", "out"))
        write_jsonl(
            grid_file,
            [{"video_id": "v", "num_snippets": 16, "snippet_duration_s": 1.0, "class_count": 1}],
        )
        write_jsonl(props, [
            {"video_id": "v", "start_s": 2.0, "end_s": 9.0, "score": -0.0, "class_id": 1},
            {"video_id": "v", "start_s": 11.0, "end_s": 14.0, "score": -0.5, "class_id": 1},
        ])
        assert run("fuse", "--input", props, "--input", grid_file,
                   "--strategy", strategy, "--output", out) == 0
        lines = out.read_text(encoding="utf-8").splitlines()[1:]
        if strategy == "threshold":
            assert lines == []
        else:
            assert lines == [
                '{"class_id": 1, "end_s": 9.0, "score": -0.0, "start_s": 2.0, "video_id": "v"}',
                '{"class_id": 1, "end_s": 14.0, "score": 0.0, "start_s": 11.0, "video_id": "v"}',
            ]

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
            # the message lists the valid names, which `--strategy`'s help leaves out
            error = f"error: unknown fusion strategy: {name!r} (one of {', '.join(STRATEGIES)})\n"
            code = run("fuse", "--input", props, "--input", grid_file,
                       "--strategy", name, "--output", out)
            assert code == 3
            assert capsys.readouterr().err == error
            assert not out.exists()
            assert run("benchmark", "--strategy", "soft", "--strategy", name, "--output", out) == 3
            assert capsys.readouterr().err == error
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

    @pytest.mark.parametrize("epoch, config", [
        (-1, {}), (39, {}), (11, {"warmup_epochs": 5, "total_epochs": 10})])
    def test_mask_epoch_outside_the_schedule(self, tmp_path, capsys, epoch, config):
        """An `--epoch` outside [0, total_epochs] exits 3 by the config's epoch
        rule, naming the value and the bounds, before any input is read: the
        inputs here do not exist."""
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        total = PipelineConfig(**config).total_epochs
        out = tmp_path / "mask.jsonl"
        missing = tmp_path / "missing.jsonl"
        assert run("mask", "--config", cfg, "--input", missing, "--input", missing,
                   "--epoch", epoch, "--output", out) == 3
        assert capsys.readouterr().err == f"error: epoch {epoch} lies outside [0, {total}]\n"
        assert not out.exists()

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

    def test_targets_missing_mask_video(self, tmp_path, capsys):
        # every pseudo video's mask is looked up before the first row is
        # built, and the first missing id in sorted order is named
        ids = ["d", "b", "c", "a"]
        grid_file, pseudos = tmp_path / "grid.jsonl", tmp_path / "pseudos.jsonl"
        mask_file, out = tmp_path / "mask.jsonl", tmp_path / "t.jsonl"
        write_jsonl(grid_file, [{"video_id": vid, "num_snippets": 30, "snippet_duration_s": 1.0,
                                 "class_count": 1} for vid in sorted(ids)])
        write_jsonl(pseudos, [{"video_id": vid, "start_s": 10.0, "end_s": 20.0, "score": 1.0,
                               "class_id": 1} for vid in ids])
        write_jsonl(mask_file, [{"video_id": vid, "bits": [[1, 30]]} for vid in ("a", "c")])
        code = run("targets", "--input", pseudos, "--input", grid_file,
                   "--input", mask_file, "--output", out)
        assert (code, capsys.readouterr().err) == (
            3, f"error: {mask_file}: no mask bits for video b\n")
        assert not out.exists()

    def test_a_fault_while_rows_are_written_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        # targets builds each row as it is written: a fault in a later video
        # removes the file the earlier rows went to
        grid_file, pseudos = tmp_path / "grid.jsonl", tmp_path / "pseudos.jsonl"
        mask_file, out = tmp_path / "mask.jsonl", tmp_path / "t.jsonl"
        write_jsonl(grid_file, [{"video_id": vid, "num_snippets": 30, "snippet_duration_s": 1.0,
                                 "class_count": 1} for vid in ("a", "b")])
        write_jsonl(pseudos, [{"video_id": vid, "start_s": 10.0, "end_s": 20.0, "score": 1.0,
                               "class_id": 1} for vid in ("a", "b")])
        write_jsonl(mask_file, [{"video_id": vid, "bits": [[1, 30]]} for vid in ("a", "b")])
        build, built = cli.build_targets, []

        def failing_second(pseudos, mask, pyramid):
            built.append(out.exists())
            if len(built) == 2:
                raise ValueError("second video")
            return build(pseudos, mask, pyramid)

        monkeypatch.setattr(cli, "build_targets", failing_second)
        code = run("targets", "--input", pseudos, "--input", grid_file,
                   "--input", mask_file, "--output", out)
        assert (code, capsys.readouterr().err) == (3, "error: second video\n")
        assert built == [True, True]  # the rows were built while the file was written
        assert not out.exists()

    def test_bad_rle_schema(self, tmp_path):
        grid_file, pseudos = self._grid_and_pseudos(tmp_path)
        mask_file = tmp_path / "mask.jsonl"
        write_jsonl(mask_file, [{"video_id": "v", "bits": [[2, 30]]}])
        code = run(
            "targets", "--input", pseudos, "--input", grid_file,
            "--input", mask_file, "--output", tmp_path / "t.jsonl",
        )
        assert code == 2

    def test_targets_needs_the_mask_file(self, tmp_path, capsys):
        grid_file, pseudos = self._grid_and_pseudos(tmp_path)
        out = tmp_path / "t.jsonl"
        assert run("targets", "--input", pseudos, "--input", grid_file, "--output", out) == 2
        assert capsys.readouterr().err == (
            "error: this subcommand takes 3 --input paths "
            "(pseudos, grid source, mask file); got 2\n"
        )
        assert not out.exists()

    def test_mask_runs_one_snippet_short(self, tmp_path, capsys):
        grid_file, pseudos = self._grid_and_pseudos(tmp_path)
        mask_file = tmp_path / "mask.jsonl"
        write_jsonl(mask_file, [{"video_id": "v", "bits": [[1, 9], [0, 1], [1, 19]]}])
        out = tmp_path / "t.jsonl"
        code = run("targets", "--input", pseudos, "--input", grid_file,
                   "--input", mask_file, "--output", out)
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: {mask_file}: video v: bits cover 29 snippets, its grid has 30\n"
        )
        assert not out.exists()

    def test_oversize_mask_run_is_not_expanded(self, tmp_path):
        # the run total is checked against the grid before any run is expanded;
        # the child's address space is capped, so an expansion fails fast
        grid_file, pseudos = self._grid_and_pseudos(tmp_path)
        mask_file = tmp_path / "mask.jsonl"
        write_jsonl(mask_file, [{"video_id": "v", "bits": [[1, 10**12]]}])
        out = tmp_path / "t.jsonl"
        proc = _run_capped("targets", "--input", pseudos, "--input", grid_file,
                           "--input", mask_file, "--output", out)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == (
            f"error: {mask_file}: video v: bits cover {10**12} snippets, its grid has 30\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("cmd", ["fuse", "mask", "targets"])
    @pytest.mark.parametrize("field", ["num_snippets", "class_count"])
    def test_oversize_grid_exits_before_allocating(self, tmp_path, cmd, field):
        # a slim grid row can name any size; the grid itself refuses one past
        # MAX_GRID_CELLS, so no subcommand allocates for it (the child's
        # address space is capped, so an allocation would fail fast)
        grid_file, pseudos = self._grid_and_pseudos(tmp_path)
        row = {**read_jsonl(grid_file)[1][0], field: 10**9}
        write_jsonl(grid_file, [row])
        argv = [cmd, "--input", pseudos, "--input", grid_file]
        if cmd == "targets":
            mask_file = tmp_path / "mask.jsonl"
            write_jsonl(mask_file, [{"video_id": "v", "bits": [[1, row["num_snippets"]]]}])
            argv += ["--input", mask_file]
        out = tmp_path / "out.jsonl"
        proc = _run_capped(*argv, "--output", out)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == (
            f"error: {grid_file}: video v: num_snippets * (class_count + 1) must be at most "
            f"{MAX_GRID_CELLS}, got "
            f"{row['num_snippets']} * ({row['class_count']} + 1)\n"
        )
        assert not out.exists()

    def test_mask_epoch_defaults_to_zero(self, sim_paths):
        # epoch 0 is never past the warm-up, so it keeps the full configured bands
        d = sim_paths["dir"]
        props, pseudos = d / "props.jsonl", d / "pseudos.jsonl"
        assert run("extract", "--input", sim_paths["sp"], "--gt", sim_paths["gt"],
                   "--output", props) == 0
        assert run("fuse", "--input", props, "--input", sim_paths["sp"], "--output", pseudos) == 0
        warmup, total = PipelineConfig().warmup_epochs, PipelineConfig().total_epochs
        outputs = {}
        for epoch in (None, 0, warmup, total):
            out = d / f"mask_{epoch}.jsonl"
            flags = () if epoch is None else ("--epoch", epoch)
            assert run("mask", "--input", pseudos, "--input", sim_paths["sp"], *flags,
                       "--output", out) == 0
            outputs[epoch] = out.read_bytes()
        assert outputs[None] == outputs[0] == outputs[warmup]
        assert outputs[total] != outputs[None]  # the flag is read: bands are gone at the end

    def test_mask_takes_the_band_schedule_from_the_config(self):
        """`mask` names no band ratio or warm-up field:
        `PipelineConfig.mask_params` gives each epoch's ratios."""
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert read & {"alpha", "beta", "warmup_epochs"} == set()


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
        mask = mask_file_for(pseudos, sp, tmp_path / "mask.jsonl")
        assert run("targets", "--input", pseudos, "--input", sp, "--input", mask,
                   "--output", targets) == 0
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

    def test_snippet_probs_of_a_video_the_gt_lacks(self, tmp_path, capsys):
        # the attention term needs the video's label, which --gt gives
        sp, gt, targets, preds = self._prepare(tmp_path, [[0.5, 0.5]] * 16)
        write_jsonl(gt, [{"video_id": "w", "start_s": 2.0, "end_s": 6.0, "class_id": 1}])
        out = tmp_path / "losses.json"
        assert run("losses", "--input", preds, "--input", targets,
                   "--input", sp, "--gt", gt, "--output", out) == 3
        assert capsys.readouterr().err == f"error: {gt}: no ground-truth labels for video v\n"
        assert not out.exists()

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
        mask = mask_file_for(pseudos, sp, tmp_path / "mask.jsonl")
        assert run("targets", "--input", pseudos, "--input", sp, "--input", mask,
                   "--output", targets) == 0
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

    def test_sp_rows_of_other_videos_are_passed_over(self, tmp_path):
        # the SP file holds videos before, between and after the scored ones
        sp, gt, targets, preds = self._prepare(tmp_path, [[0.5, 0.5]] * 16)
        out = tmp_path / "losses.json"
        assert run("losses", "--input", preds, "--input", targets, "--input", sp,
                   "--gt", gt, "--output", out) == 0
        sp_row, gt_row = read_jsonl(sp)[1][0], read_jsonl(gt)[1][0]
        rows = {name: [{**row, "video_id": vid} for row in read_jsonl(path)[1]
                       for vid in ("v", "x")]
                for name, path in (("preds", preds), ("targets", targets))}
        wide = {name: tmp_path / f"wide_{name}.jsonl" for name in ("sp", "gt", *rows)}
        write_jsonl(wide["sp"], [{**sp_row, "video_id": vid} for vid in "avwxz"])
        write_jsonl(wide["gt"], [{**gt_row, "video_id": vid} for vid in "zxwva"])
        for name, file_rows in rows.items():
            write_jsonl(wide[name], file_rows)
        wide_out = tmp_path / "wide_losses.json"
        assert run("losses", "--input", wide["preds"], "--input", wide["targets"],
                   "--input", wide["sp"], "--gt", wide["gt"], "--output", wide_out) == 0
        per_video = read_report(wide_out)["metrics"]["per_video"]
        assert list(per_video) == ["v", "x"]
        assert per_video["v"] == per_video["x"] == read_report(out)["metrics"]["per_video"]["v"]

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


class TestProbabilityEntries:
    """A probability entry of an input is a probability: a negative SP
    `class_scores` or anchor `class_probs` entry, or a `snippet_probs` entry
    outside [0, 1], exits 3 naming the file and the video, even where its row
    sums to 1. A row of other positive sum is divided by its sum, but for a
    `snippet_probs` row; a row of zero sum exits 2, once its entries pass."""

    def _losses(self, tmp_path, *, class_probs=None, snippet_probs=None, class_scores=None):
        snippet_probs = snippet_probs or [[0.5, 0.5]] * 16
        sp, gt, targets, preds = TestLosses()._prepare(tmp_path, snippet_probs)
        if class_probs is not None:
            _, rows = read_jsonl(preds)
            n = len(rows[0]["reg_left"])
            write_jsonl(preds, [{**rows[0], "class_probs": [class_probs] * n}])
        if class_scores is not None:
            _, rows = read_jsonl(sp)
            write_jsonl(sp, [{**rows[0], "class_scores": [class_scores] * 16}])
        out = tmp_path / "losses.json"
        code = run("losses", "--input", preds, "--input", targets, "--input", sp, "--gt", gt,
                   "--output", out)
        return code, out, {"preds": preds, "sp": sp}

    @pytest.mark.parametrize("case, field, message", [
        ({"class_probs": [1.5, -0.5]}, "preds", "class_probs entries must be nonnegative"),
        ({"snippet_probs": [[7.0, 0.0]] * 16}, "preds",
         "snippet_probs entries must lie in [0, 1]"),
        ({"snippet_probs": [[-0.5, 1.5]] * 16}, "preds",
         "snippet_probs entries must lie in [0, 1]"),
        # the entries are checked before the sum: these rows sum below 0
        ({"snippet_probs": [[-0.5, 0.2]] * 16}, "preds",
         "snippet_probs entries must lie in [0, 1]"),
        ({"snippet_probs": [[float("-inf"), 0.5]] * 16}, "preds", "snippet_probs must be finite"),
        ({"class_scores": [1.5, -0.5]}, "sp", "class_scores entries must be nonnegative"),
    ], ids=["class_probs", "snippet_probs above 1", "snippet_probs below 0",
            "snippet_probs below 0 of negative sum", "snippet_probs of -Infinity", "class_scores"])
    def test_losses_refuses(self, tmp_path, capsys, case, field, message):
        code, out, files = self._losses(tmp_path, **case)
        err = capsys.readouterr().err
        assert (code, err) == (3, f"error: {files[field]}: video v: {message}\n")
        assert not out.exists()

    def test_extract_refuses_a_negative_class_score(self, tmp_path, capsys):
        sp, gt, out = tmp_path / "sp.jsonl", tmp_path / "gt.jsonl", tmp_path / "props.jsonl"
        write_jsonl(sp, [{"video_id": "v", "num_snippets": 4, "snippet_duration_s": 1.0,
                          "attention": [1.0] * 4, "class_scores": [[1.5, -0.5]] * 4}])
        write_jsonl(gt, [{"video_id": "v", "start_s": 0.0, "end_s": 2.0, "class_id": 1}])
        assert run("extract", "--input", sp, "--gt", gt, "--output", out) == 3
        err = capsys.readouterr().err
        assert err == f"error: {sp}: video v: class_scores entries must be nonnegative\n"
        assert not out.exists()

    def test_a_grid_source_is_read_for_its_grid_only(self, tmp_path):
        # the SP row `extract` refuses gives `fuse` and `mask` its grid; its
        # values are not read
        sp, gt = tmp_path / "sp.jsonl", tmp_path / "gt.jsonl"
        props, pseudos = tmp_path / "props.jsonl", tmp_path / "pseudos.jsonl"
        write_jsonl(sp, [{"video_id": "v", "num_snippets": 4, "snippet_duration_s": 1.0,
                          "attention": [1.0] * 4, "class_scores": [[1.5, -0.5]] * 4}])
        write_jsonl(gt, [{"video_id": "v", "start_s": 0.0, "end_s": 2.0, "class_id": 1}])
        write_jsonl(props, [{"video_id": "v", "start_s": 0.0, "end_s": 2.0, "class_id": 1,
                             "score": 0.9}])
        assert run("extract", "--input", sp, "--gt", gt, "--output", tmp_path / "out.jsonl") == 3
        assert run("fuse", "--input", props, "--input", sp, "--output", pseudos) == 0
        assert run("mask", "--input", pseudos, "--input", sp,
                   "--output", tmp_path / "mask.jsonl") == 0

    def test_rows_are_divided_by_their_sums(self, tmp_path):
        # [2.7, 0.3] reads as [0.9, 0.1]: the same proposals, the same losses
        outputs = []
        for scale in (1, 3):
            d = tmp_path / str(scale)
            d.mkdir()
            sp, gt, props = d / "extract_sp.jsonl", d / "extract_gt.jsonl", d / "props.jsonl"
            write_jsonl(sp, [{"video_id": "v", "num_snippets": 8, "snippet_duration_s": 1.0,
                              "attention": [0.1, 0.9, 0.9, 0.9, 0.1, 0.1, 0.1, 0.1],
                              "class_scores": [[0.9 * scale, 0.1 * scale]] * 8}])
            write_jsonl(gt, [{"video_id": "v", "start_s": 1.0, "end_s": 4.0, "class_id": 1}])
            assert run("extract", "--input", sp, "--gt", gt, "--output", props) == 0
            code, out, _ = self._losses(d, class_probs=[0.5 * scale, 0.5 * scale])
            assert code == 0
            outputs.append((props.read_bytes(), out.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_snippet_probs_rows_need_positive_sums(self, tmp_path, capsys):
        # the rule of class_probs, but a snippet_probs row is not divided by its sum
        code, out, files = self._losses(tmp_path, snippet_probs=[[0.0, 0.0]] * 16)
        err = capsys.readouterr().err
        assert (code, err) == (2, f"error: {files['preds']}: snippet_probs rows must have "
                                  "positive sums\n")
        assert not out.exists()
        att = []
        for row in ([0.5, 0.5], [0.25, 0.25]):
            code, out, _ = self._losses(tmp_path, snippet_probs=[row] * 16)
            assert code == 0
            att.append(read_report(out)["metrics"]["per_video"]["v"]["att"])
        assert att[0] != att[1]

    def test_snippet_probs_of_another_shape_name_the_predictions(self, tmp_path, capsys):
        code, out, files = self._losses(tmp_path, snippet_probs=[[0.5, 0.5]] * 8)
        err = capsys.readouterr().err
        assert (code, err) == (3, f"error: {files['preds']}: video v: snippet_probs and SP matrix "
                                  "shapes disagree\n")
        assert not out.exists()


class TestEval:
    @pytest.mark.parametrize("class_id", [2**63, 10**30])
    @pytest.mark.parametrize("kind", ["gt", "predictions"])
    def test_class_id_beyond_int64(self, tmp_path, capsys, kind, class_id):
        row = {"video_id": "v", "start_s": 1.0, "end_s": 3.0, "class_id": 1}
        rows = {"gt": dict(row), "predictions": dict(row, score=0.9)}
        rows[kind]["class_id"] = class_id
        paths = {name: tmp_path / f"{name}.jsonl" for name in rows}
        for name, path in paths.items():
            write_jsonl(path, [rows[name]])
        out = tmp_path / "eval.json"
        assert run("eval", "--input", paths["predictions"], "--gt", paths["gt"],
                   "--output", out) == 3
        assert capsys.readouterr().err == (
            f"error: {paths[kind]}: video v: class_id {class_id} is not an int64 integer >= 1\n"
        )
        assert not out.exists()

    def test_class_ids_near_the_int64_bound(self, tmp_path):
        # a class id of 2**62 in three videos, and the largest int64: no pair
        # key multiplies a class id by the video count
        gt_rows = [
            {"video_id": vid, "start_s": 1.0, "end_s": 3.0, "class_id": c}
            for vid, c in (("a", 2**62), ("b", 2**62), ("c", 2**62), ("c", 2**63 - 1))
        ]
        gt, preds, out = (tmp_path / name for name in ("gt.jsonl", "preds.jsonl", "eval.json"))
        write_jsonl(gt, gt_rows)
        write_jsonl(preds, [dict(r, score=0.9) for r in gt_rows])
        assert run("eval", "--input", preds, "--gt", gt, "--output", out) == 0
        metrics = read_report(out)["metrics"]
        assert metrics["map"] == [1.0] * 7
        assert sorted(metrics["per_class"]) == sorted([str(2**62), str(2**63 - 1)])

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

    def test_the_weak_branch_and_fusion_take_their_arguments_from_the_config(self):
        """`extract`, `fuse` and `benchmark` name no field of the weak branch or
        the fusion: `PipelineConfig.weak_branch` gives every argument of
        `weak_proposals` that is a config field, and `min_duration_s` the
        fusion's one."""
        from pseudotal import sim
        from pseudotal.core import TimeGrid
        from pseudotal.weak_branch import weak_proposals

        fields = {f.name for f in dataclasses.fields(PipelineConfig)}
        weak = set(inspect.signature(weak_proposals).parameters) & fields
        assert set(PipelineConfig().weak_branch()) == weak
        assert PipelineConfig(min_duration_snippets=3).min_duration_s(TimeGrid(8, 0.5, 1)) == 1.5
        for module in (cli, sim):
            tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
            read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            assert read & (weak | {"min_duration_snippets"}) == set(), module.__name__


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


def _concatenate(out, *paths):
    """`cat paths > out`: each part keeps its `_header` row."""
    out.write_text("".join(Path(p).read_text(encoding="utf-8") for p in paths))
    return out


class TestRefinementRound:
    """The paper's refinement round as a file chain: the current pseudo
    labels and the model's proposals, concatenated, go through `fuse`, then
    `mask` and `targets`."""

    GRID = {"video_id": "v", "num_snippets": 32, "snippet_duration_s": 1.0, "class_count": 2}

    def _fuse(self, tmp_path, name, *parts):
        """`fuse` of the concatenated files `parts` on one 32-snippet video:
        the output path and its rows by start time."""
        grid_file = tmp_path / "grid.jsonl"
        write_jsonl(grid_file, [self.GRID])
        out = tmp_path / f"{name}.jsonl"
        assert run("fuse", "--input", _concatenate(tmp_path / f"{name}_in.jsonl", *parts),
                   "--input", grid_file, "--output", out) == 0
        return out, sorted(read_jsonl(out)[1], key=lambda r: r["start_s"])

    def test_pseudos_alone_keep_classes_and_boundaries(self, tmp_path):
        pseudos = [
            {"video_id": "v", "start_s": 4.0, "end_s": 12.0, "score": 0.7, "class_id": 1},
            {"video_id": "v", "start_s": 18.0, "end_s": 26.0, "score": 1.2, "class_id": 2},
        ]
        write_jsonl(tmp_path / "pseudos.jsonl", pseudos)
        _, refined = self._fuse(tmp_path, "refined", tmp_path / "pseudos.jsonl")
        assert [r["class_id"] for r in refined] == [1, 2]
        for before, after in zip(pseudos, refined):
            assert after["start_s"] == pytest.approx(before["start_s"], abs=1.0)
            assert after["end_s"] == pytest.approx(before["end_s"], abs=1.0)

    def test_duplicated_input_doubles_confidence(self, tmp_path):
        write_jsonl(tmp_path / "props.jsonl", [
            {"video_id": "v", "start_s": 4.0, "end_s": 12.0, "score": 0.7, "class_id": 1}
        ])
        pseudo_file, _ = self._fuse(tmp_path, "pseudos", tmp_path / "props.jsonl")
        _, once = self._fuse(tmp_path, "once", pseudo_file)
        _, twice = self._fuse(tmp_path, "twice", pseudo_file, pseudo_file)  # two _header rows
        assert len(once) == len(twice) == 1
        for key in ("start_s", "end_s"):
            assert twice[0][key] == pytest.approx(once[0][key], rel=1e-5)
        assert twice[0]["score"] == pytest.approx(2 * once[0]["score"], rel=1e-5)

    def test_round_on_a_seeded_corpus(self, tmp_path):
        # the model's stand-in: extract on a less noisy SP file of the same seed
        sp, gt, model_sp, model_gt = (
            tmp_path / f"{n}.jsonl" for n in ("sp", "gt", "model_sp", "model_gt")
        )
        for out, out_gt, noise in ((sp, gt, 0.2), (model_sp, model_gt, 0.05)):
            cfg = tmp_path / "config.json"
            cfg.write_text(json.dumps({"sim": {"seed": 11, "num_videos": 4,
                                               "attention_noise_std": noise}}))
            assert run("simulate", "--config", cfg, "--output", out, "--gt", out_gt) == 0
        assert gt.read_bytes() == model_gt.read_bytes()
        props, pseudos, model = (tmp_path / f"{n}.jsonl" for n in ("props", "pseudos", "model"))
        assert run("extract", "--input", sp, "--gt", gt, "--output", props) == 0
        assert run("fuse", "--input", props, "--input", sp, "--output", pseudos) == 0
        assert run("extract", "--input", model_sp, "--gt", gt, "--output", model) == 0
        combined = _concatenate(tmp_path / "round.jsonl", pseudos, model)
        refined, mask, targets = (tmp_path / f"{n}.jsonl" for n in ("refined", "mask", "targets"))
        assert run("fuse", "--input", combined, "--input", sp, "--output", refined) == 0
        assert run("mask", "--input", refined, "--input", sp, "--epoch", 25,
                   "--output", mask) == 0
        assert run("targets", "--input", refined, "--input", sp, "--input", mask,
                   "--output", targets) == 0
        videos = {r["video_id"] for r in read_jsonl(sp)[1]}
        assert {r["video_id"] for r in read_jsonl(targets)[1]} == videos


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
        count = {"targets": "3", "losses": "2 to 3"}[cmd]
        assert capsys.readouterr().err.startswith(
            f"error: this subcommand takes {count} --input paths ("
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

    @pytest.mark.parametrize(
        "field, value, message",
        [("mask_bit", -1, "mask_bit values must be 0 or 1"),
         ("mask_bit", 2, "mask_bit values must be 0 or 1"),
         ("reg_left", None, "reg_left must be finite"),
         ("reg_left", -0.2, "reg_left and reg_right must be >= 0"),
         ("iou_weight", 5.0, "iou_weight must lie in [0, 1]"),
         pytest.param("class_label", 10**400, "int too large to convert to float",
                      id="class_label-1e400")],
    )
    def test_targets_file_anchor_values(self, tmp_path, capsys, field, value, message):
        # anchor 0 is a positive; the bad value goes there
        sizes = [math.ceil(8 / 2**l) for l in range(6)]
        n = sum(sizes)
        rest = [0] * (n - 1)
        row = {"video_id": "v", "num_snippets": 8, "snippet_duration_s": 1.0,
               "class_count": 1, "level_sizes": sizes, "class_label": [1, *rest],
               "reg_left": [0.5, *rest], "reg_right": [0.5, *rest],
               "iou_weight": [1.0, *rest], "mask_bit": [1] * n}
        row[field] = [value, *row[field][1:]]
        targets = tmp_path / "targets.jsonl"
        write_jsonl(targets, [row])
        preds = tmp_path / "preds.jsonl"
        write_jsonl(preds, [{"video_id": "v", "class_probs": [[0.5, 0.5]] * n,
                             "reg_left": [1.0] * n, "reg_right": [1.0] * n}])
        out = tmp_path / "losses.json"
        assert run("losses", "--input", preds, "--input", targets, "--output", out) == 3
        assert capsys.readouterr().err == f"error: {targets}: video v: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("width", [2, 3, 4, 5, 6])
    def test_prediction_width_per_class(self, tmp_path, capsys, width):
        # three classes: one probability per class, then background
        grid_file = tmp_path / "grid.jsonl"
        write_jsonl(grid_file, [{"video_id": "v", "num_snippets": 16,
                                 "snippet_duration_s": 1.0, "class_count": 3}])
        pseudos = tmp_path / "pseudos.jsonl"
        write_jsonl(pseudos, [
            {"video_id": "v", "start_s": s, "end_s": e, "score": 1.0, "class_id": c}
            for s, e, c in ((1.0, 4.0, 1), (6.0, 9.0, 2), (11.0, 15.0, 3))
        ])
        mask = mask_file_for(pseudos, grid_file, tmp_path / "mask.jsonl")
        targets = tmp_path / "targets.jsonl"
        assert run("targets", "--input", pseudos, "--input", grid_file, "--input", mask,
                   "--output", targets) == 0
        row = read_jsonl(targets)[1][0]
        n = len(row["class_label"])
        preds = tmp_path / "preds.jsonl"
        write_jsonl(preds, [{"video_id": "v", "class_probs": [[1.0 / width] * width] * n,
                             "reg_left": row["reg_left"], "reg_right": row["reg_right"]}])
        out = tmp_path / "losses.json"
        code = run("losses", "--input", preds, "--input", targets, "--output", out)
        if width == 4:
            assert code == 0
            return
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: {preds}: video v: class_probs shape [{n}, {width}] disagrees with the "
            f"targets' [{n}, 4]\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("field", ["class_probs", "snippet_probs"])
    @pytest.mark.parametrize(
        "shape, message",
        [("1-D", "must be a nonempty list of rows"),
         ("null", "must be a nonempty list of rows"),
         ("empty", "must be a nonempty list of rows"),
         ("ragged", "must be rows of equal width")],
    )
    def test_prediction_rows(self, tmp_path, capsys, field, shape, message):
        # the rule of an SP file's class_scores; a null snippet_probs is no snippet_probs
        sizes = [math.ceil(8 / 2**l) for l in range(6)]
        n = sum(sizes)
        targets = tmp_path / "targets.jsonl"
        write_jsonl(targets, [{
            "video_id": "v", "num_snippets": 8, "snippet_duration_s": 1.0,
            "class_count": 1, "level_sizes": sizes, "class_label": [0] * n,
            "reg_left": [0.0] * n, "reg_right": [0.0] * n,
            "iou_weight": [0.0] * n, "mask_bit": [1] * n,
        }])
        rows = {"class_probs": n, "snippet_probs": 8}[field]
        pred = {"video_id": "v", "class_probs": [[0.5, 0.5]] * n,
                "reg_left": [1.0] * n, "reg_right": [1.0] * n, "snippet_probs": [[0.5, 0.5]] * 8}
        pred[field] = {"1-D": [0.5] * rows, "null": None, "empty": [],
                       "ragged": [[0.5, 0.5]] * (rows - 1) + [[1.0]]}[shape]
        preds = tmp_path / "preds.jsonl"
        write_jsonl(preds, [pred])
        out = tmp_path / "losses.json"
        code = run("losses", "--input", preds, "--input", targets, "--output", out)
        if field == "snippet_probs" and shape == "null":
            assert code == 0
            return
        assert code == 2
        assert capsys.readouterr().err == f"error: {preds}: {field} {message}\n"
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
        assert err.startswith(f"error: {targets}: video v: level_sizes [32] disagree")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("value, code", [(0, 3), (2.0, 3), (-0.25, 3), (1.0, 0)])
    def test_oic_inflation_range(self, tmp_path, capsys, value, code):
        # the range oic_scores enforces, checked when the config loads
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
        mask_file = tmp_path / "mask.jsonl"
        write_jsonl(mask_file, [{"video_id": "v", "bits": [[1, 16]]}])
        code = run("targets", "--input", pseudos, "--input", grid_file,
                   "--input", mask_file, "--output", tmp_path / "t.jsonl")
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
        assert err.startswith(f"error: {targets}: video v: class_label") and err.count("\n") == 1

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
        assert capsys.readouterr().err == (
            f"error: {props}: video v: class_id 7 lies outside the 2 classes of its grid\n"
        )
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
        assert err == f"error: {sp}: video v: attention and class_scores must be finite\n"

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

    @pytest.mark.parametrize("cmd", ["simulate", "benchmark"])
    def test_corpus_over_the_size_cap(self, tmp_path, capsys, cmd):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"sim": {"num_videos": 10**9}}))
        out = tmp_path / "o.jsonl"
        assert run(cmd, "--config", cfg, "--output", out) == 3
        assert capsys.readouterr().err == (
            f"error: {cfg}: sim config num_videos * snippets_per_video[1] * (class_count + 1) "
            "must be at most 16777216, got 1000000000 * 128 * (5 + 1)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("cmd", ["simulate", "benchmark"])
    def test_actions_that_do_not_fit_name_the_config(self, tmp_path, capsys, cmd):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"sim": {"num_videos": 2, "min_gap_snippets": 1000}}))
        out = tmp_path / "o.jsonl"
        assert run(cmd, "--config", cfg, "--output", out) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: cannot place ") and err.count("\n") == 1
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
        """A one-row-per-video file lists its videos in ascending video_id
        order: a repeated id, or an id below the row before's, exits 2 and
        writes nothing; a segment file may list its videos in any order."""
        files = {}
        for name, row in VIDEO_ROWS.items():
            files[name] = tmp_path / f"{name}.jsonl"
            write_jsonl(files[name], [row])
        segments = tmp_path / "segments.jsonl"
        write_jsonl(segments, [SEGMENT_ROW])
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
        row, path = VIDEO_ROWS[kind], files[kind]
        for rows, message in [
            ([row, row], f"{path}: duplicate video_id 'v'"),
            ([{**row, "video_id": "w"}, row],
             f"{path}:2: video_id 'v' follows 'w'; rows must be in ascending video_id order"),
        ]:
            write_jsonl(path, rows)
            assert run(*argv, "--output", out) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists()
        if kind == "grid":
            write_jsonl(files["grid"], [VIDEO_ROWS["grid"], {**VIDEO_ROWS["grid"], "video_id": "w"}])
            write_jsonl(segments, [{**SEGMENT_ROW, "video_id": "w"}, SEGMENT_ROW])
            assert run(*argv, "--output", out) == 0
            assert [r["video_id"] for r in read_jsonl(out)[1]] == ["v", "w"]


    @pytest.mark.parametrize("bits", [None, 5, "", {}], ids=["null", "number", "string", "object"])
    def test_mask_bits_of_wrong_type(self, tmp_path, capsys, bits):
        mask_file = tmp_path / "mask.jsonl"
        write_jsonl(mask_file, [{"video_id": "v", "bits": bits}])
        grid_file = tmp_path / "grid.jsonl"
        write_jsonl(grid_file, [GRID_ROW])
        segments = tmp_path / "segments.jsonl"
        write_jsonl(segments, [SEGMENT_ROW])
        out = tmp_path / "targets.jsonl"
        code = run("targets", "--input", segments, "--input", grid_file,
                   "--input", mask_file, "--output", out)
        assert code == 2
        assert capsys.readouterr().err == f"error: {mask_file}: bits must be [value, count] pairs\n"
        assert not out.exists()

    @staticmethod
    def _extract_rejects(tmp_path, capsys, field, case):
        row = {"video_id": "v", "num_snippets": 4, "snippet_duration_s": 1.0,
               "attention": [0.5] * 4, "class_scores": [[0.5, 0.5]] * 4}
        row[field] = _spoil(row[field], case)
        sp = tmp_path / "sp.jsonl"
        write_jsonl(sp, [row])
        gt = tmp_path / "gt.jsonl"
        write_jsonl(gt, [{"video_id": "v", "start_s": 1.0, "end_s": 3.0, "class_id": 1}])
        out = tmp_path / "p.jsonl"
        assert run("extract", "--input", sp, "--gt", gt, "--output", out) == 2
        assert capsys.readouterr().err == f"error: {sp}: {field} must hold only numbers\n"
        assert not out.exists()

    @pytest.mark.parametrize("field", ["class_scores", "attention"])
    def test_non_numeric_snippet_predictions(self, tmp_path, capsys, field):
        self._extract_rejects(tmp_path, capsys, field, "text")

    @pytest.mark.parametrize("case", ["string", "boolean", "all-boolean"])
    @pytest.mark.parametrize("field", ["class_scores", "attention"])
    def test_string_or_boolean_snippet_predictions(self, tmp_path, capsys, field, case):
        # numpy's float cast reads "0.5" and true as numbers; the file must hold JSON numbers
        self._extract_rejects(tmp_path, capsys, field, case)

    @staticmethod
    def _losses_rejects(tmp_path, capsys, kind, field, case):
        sizes = [math.ceil(8 / 2**l) for l in range(6)]
        n = sum(sizes)
        rows = {
            "targets": {"video_id": "v", "num_snippets": 8, "snippet_duration_s": 1.0,
                        "class_count": 1, "level_sizes": sizes, "class_label": [0] * n,
                        "reg_left": [0.0] * n, "reg_right": [0.0] * n,
                        "iou_weight": [0.0] * n, "mask_bit": [1] * n},
            "preds": {"video_id": "v", "class_probs": [[0.5, 0.5]] * n,
                      "reg_left": [1.0] * n, "reg_right": [1.0] * n,
                      "snippet_probs": [[0.5, 0.5]] * 8},
        }
        rows[kind][field] = _spoil(rows[kind][field], case)
        files = {name: tmp_path / f"{name}.jsonl" for name in rows}
        for name, row in rows.items():
            write_jsonl(files[name], [row])
        out = tmp_path / "losses.json"
        assert run("losses", "--input", files["preds"], "--input", files["targets"],
                   "--output", out) == 2
        assert capsys.readouterr().err == f"error: {files[kind]}: {field} must hold only numbers\n"
        assert not out.exists()

    LOSSES_ARRAYS = [("preds", "class_probs"), ("preds", "snippet_probs"), ("preds", "reg_left"),
                     ("preds", "reg_right"), ("targets", "reg_left"), ("targets", "reg_right"),
                     ("targets", "iou_weight")]

    @pytest.mark.parametrize("kind, field", LOSSES_ARRAYS)
    def test_non_numeric_losses_inputs(self, tmp_path, capsys, kind, field):
        self._losses_rejects(tmp_path, capsys, kind, field, "text")

    @pytest.mark.parametrize("case", ["string", "boolean", "all-boolean"])
    @pytest.mark.parametrize("kind, field", LOSSES_ARRAYS)
    def test_string_or_boolean_losses_inputs(self, tmp_path, capsys, kind, field, case):
        self._losses_rejects(tmp_path, capsys, kind, field, case)

    @pytest.mark.parametrize("plain", [True, False])
    def test_integers_beyond_int64_convert(self, plain):
        # numpy infers no number dtype for them; the entry check hands them to the float cast
        values = [1, 2**64, 0.5, -(2**70)]
        assert readers._float_array(values, "x", plain).tolist() == [
            1.0, 2.0**64, 0.5, -(2.0**70)]

    def test_boolean_text_elsewhere_keeps_numbers(self, tmp_path, sim_paths):
        # a row whose text holds `true` outside its arrays takes the entry-by-entry
        # check, and its numbers convert as on the one-call path
        _, rows = read_jsonl(sim_paths["sp"])
        sp = tmp_path / "sp_true.jsonl"
        write_jsonl(sp, [{**row, "note": True} for row in rows])
        for path in (sim_paths["sp"], sp):
            out = tmp_path / f"{path.stem}.props.jsonl"
            assert run("extract", "--input", path, "--gt", sim_paths["gt"], "--output", out) == 0
        assert (tmp_path / "sp.props.jsonl").read_bytes() == (
            tmp_path / "sp_true.props.jsonl").read_bytes()

    @pytest.mark.parametrize("kind", ["proposals", "sp"])
    def test_first_bad_row_decides_the_exit(self, tmp_path, capsys, kind):
        # each row is checked as it is read: row 1 breaks a constraint (exit 3)
        # before the invalid JSON on line 3 is decoded
        good = {"proposals": SEGMENT_ROW,
                "sp": {"video_id": "v", "num_snippets": 4, "snippet_duration_s": 1.0,
                       "attention": [0.5] * 4, "class_scores": [[0.5, 0.5]] * 4}}[kind]
        bad, message = {
            "proposals": ({**good, "start_s": 6.0}, "interval requires start_s < end_s"),
            "sp": ({**good, "attention": [1.5] * 4}, "attention values must lie in [0, 1]"),
        }[kind]
        path = tmp_path / f"{kind}.jsonl"
        path.write_text(
            json.dumps(bad) + "\n" + json.dumps({**good, "video_id": "w"}) + "\n{not json\n",
            encoding="utf-8",
        )
        gt = tmp_path / "gt.jsonl"
        write_jsonl(gt, [{"video_id": "v", "start_s": 1.0, "end_s": 3.0, "class_id": 1}])
        out = tmp_path / "out"
        cmd = {"proposals": "eval", "sp": "extract"}[kind]
        assert run(cmd, "--input", path, "--gt", gt, "--output", out) == 3
        assert capsys.readouterr().err == f"error: {path}: video v: {message}\n"
        assert not out.exists()
        path.write_text(json.dumps(good) + "\n{not json\n" + json.dumps(bad) + "\n",
                        encoding="utf-8")
        assert run(cmd, "--input", path, "--gt", gt, "--output", out) == 2
        assert capsys.readouterr().err == (
            f"error: {path}:2: invalid JSON (Expecting property name enclosed in double quotes)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("field", ["reg_left", "reg_right"])
    def test_null_prediction_offsets(self, tmp_path, capsys, field):
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
        out = tmp_path / "losses.json"
        for value in (None, 5):  # a JSON null or a bare number, not a list
            write_jsonl(preds, [{"video_id": "v", "class_probs": [[0.5, 0.5]] * n,
                                 "reg_left": [1.0] * n, "reg_right": [1.0] * n, field: value}])
            assert run("losses", "--input", preds, "--input", targets, "--output", out) == 2
            assert capsys.readouterr().err == (
                f"error: {preds}: {field} must be a list, got {value!r}\n"
            )
            assert not out.exists()

    @pytest.mark.parametrize("field", ANCHOR_FIELDS)
    def test_targets_field_not_a_list(self, tmp_path, capsys, field):
        sizes = [math.ceil(8 / 2**l) for l in range(6)]
        n = sum(sizes)
        preds = tmp_path / "preds.jsonl"
        write_jsonl(preds, [{"video_id": "v", "class_probs": [[0.5, 0.5]] * n,
                             "reg_left": [1.0] * n, "reg_right": [1.0] * n}])
        targets = tmp_path / "targets.jsonl"
        out = tmp_path / "losses.json"
        for value in (None, 5, 0.5):
            row = {"video_id": "v", "num_snippets": 8, "snippet_duration_s": 1.0,
                   "class_count": 1, "level_sizes": sizes, "class_label": [0] * n,
                   "reg_left": [0.0] * n, "reg_right": [0.0] * n,
                   "iou_weight": [0.0] * n, "mask_bit": [1] * n}
            row[field] = value
            write_jsonl(targets, [row])
            assert run("losses", "--input", preds, "--input", targets, "--output", out) == 2
            assert capsys.readouterr().err == (
                f"error: {targets}: {field} must be a list, got {value!r}\n"
            )
            assert not out.exists()



class TestBlame:
    """`config.blame` is the one rule that names the file of a fault, and the
    video where one is given: a `SchemaError` stays one (exit 2), any other
    value fault becomes a ValueError (exit 3)."""

    @pytest.mark.parametrize("kind", [ValueError, TypeError, OverflowError])
    @pytest.mark.parametrize("vid, prefix", [("v", "f.jsonl: video v: "), (None, "f.jsonl: ")])
    def test_a_value_fault_becomes_a_value_error(self, kind, vid, prefix):
        with pytest.raises(ValueError) as info:
            with blame("f.jsonl", vid):
                raise kind("bad")
        assert (type(info.value), str(info.value)) == (ValueError, prefix + "bad")

    @pytest.mark.parametrize("vid", ["v", None])
    def test_a_schema_error_stays_one_and_names_no_video(self, vid):
        with pytest.raises(SchemaError) as info:
            with blame("f.jsonl", vid):
                raise SchemaError("bad")
        assert str(info.value) == "f.jsonl: bad"

    @pytest.mark.parametrize("kind", [ValueError, TypeError, OverflowError, SchemaError])
    @pytest.mark.parametrize("vid", ["v", None])
    def test_no_path_passes_the_fault_unchanged(self, kind, vid):
        fault = kind("bad")
        with pytest.raises(kind) as info:
            with blame(None, vid):
                raise fault
        assert info.value is fault

    def test_other_faults_pass_unchanged(self):
        with pytest.raises(KeyError, match="bad"):
            with blame("f.jsonl", "v"):
                raise KeyError("bad")

    # a per-video library call of each handler, on the first video it reaches
    CALLS = {"fuse": ("generate_pseudo_labels", ["props", "sp"]),
             "losses": ("cls_loss", ["preds", "targets"])}

    @pytest.mark.parametrize("step", CALLS)
    @pytest.mark.parametrize("kind, code", [(TypeError, 3), (SchemaError, 2)])
    def test_a_per_video_fault_names_the_file(self, tmp_path, monkeypatch, capsys, chain_files,
                                              step, kind, code):
        """A fault of the per-video call of `fuse` or `losses` names the
        file it reads first: a TypeError exits 3 and names the video too, a
        `SchemaError` exits 2. The call is replaced on `cli`, where `main`
        keeps a name already bound."""
        name, files = self.CALLS[step]

        def raising(*args, **kwargs):
            raise kind("bad")

        monkeypatch.setattr(cli, name, raising)
        first = chain_files[files[0]]
        vid = min(row["video_id"] for row in read_jsonl(first)[1])
        out = tmp_path / "out.json"
        assert run(step, *(a for f in files for a in ("--input", chain_files[f])),
                   "--output", out) == code
        where = f"{first}: video {vid}" if kind is TypeError else f"{first}"
        assert capsys.readouterr().err == f"error: {where}: bad\n"
        assert not out.exists()


# Besides --config and --output, the flags each subcommand reads.
SUBCOMMAND_FLAGS = {
    "extract": {"--input", "--gt"},
    "fuse": {"--input", "--strategy", "--wavelet-csv"},
    "mask": {"--input", "--epoch"},
    "targets": {"--input"},
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
_ANCHORS = sum(math.ceil(8 / 2**l) for l in range(6))
# one valid row of video "v" (8 snippets, 1 class) per one-row-per-video file
VIDEO_ROWS = {
    "sp": {"video_id": "v", "num_snippets": 8, "snippet_duration_s": 1.0,
           "attention": [0.5] * 8, "class_scores": [[0.5, 0.5]] * 8},
    "grid": GRID_ROW,
    "mask": {"video_id": "v", "bits": [[1, 8]]},
    "targets": {"video_id": "v", "num_snippets": 8, "snippet_duration_s": 1.0,
                "class_count": 1, "level_sizes": [math.ceil(8 / 2**l) for l in range(6)],
                "class_label": [0] * _ANCHORS, "reg_left": [0.0] * _ANCHORS,
                "reg_right": [0.0] * _ANCHORS, "iou_weight": [0.0] * _ANCHORS,
                "mask_bit": [1] * _ANCHORS},
    "anchor_predictions": {"video_id": "v", "class_probs": [[0.5, 0.5]] * _ANCHORS,
                           "reg_left": [1.0] * _ANCHORS, "reg_right": [1.0] * _ANCHORS},
}


def _grid_run(tmp_path, grid_row, cmd, out):
    grid_file = tmp_path / "grid.jsonl"
    write_jsonl(grid_file, [grid_row])
    segments = tmp_path / "segments.jsonl"
    write_jsonl(segments, [SEGMENT_ROW])
    argv = [cmd, "--input", segments, "--input", grid_file]
    if cmd == "targets":
        argv += ["--input", _certain_mask_file(tmp_path)]
    return run(*argv, "--output", out), grid_file


def _certain_mask_file(tmp_path):
    """A mask file marking all 8 snippets of video v certain."""
    mask_file = tmp_path / "mask.jsonl"
    write_jsonl(mask_file, [{"video_id": "v", "bits": [[1, 8]]}])
    return mask_file


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
        cases = (
            ("class_scores", [[0.5, 0.5]], "class_scores shape disagrees with num_snippets"),
            ("attention", [0.5], "attention length disagrees with num_snippets"),
            ("class_scores", [[0.5, 0.5]] + [[0.2, 0.3, 0.5]] * 7,
             "class_scores must be rows of equal width"),
            ("class_scores", [[0.5, 0.5]] * 7 + [[1.0]], "class_scores must be rows of equal width"),
            ("class_scores", [[0.5, 0.5]] * 7 + [0.5], "class_scores must be rows of equal width"),
        )
        for field, bad, message in cases:
            out = tmp_path / "out.jsonl"
            if cmd == "extract":
                grid_file = tmp_path / "grid.jsonl"
                write_jsonl(grid_file, [{**full, field: bad}])
                gt = tmp_path / "gt.jsonl"
                write_jsonl(gt, [SEGMENT_ROW])
                code = run(cmd, "--input", grid_file, "--gt", gt, "--output", out)
            else:
                code, grid_file = _grid_run(tmp_path, {**full, field: bad}, cmd, out)
            assert code == 2
            assert capsys.readouterr().err == f"error: {grid_file}: {message}\n"
            assert not out.exists()

    @pytest.mark.parametrize("width", [2, 1])
    @pytest.mark.parametrize("cmd", ["extract", "fuse", "mask", "targets", "losses"])
    def test_class_scores_rows_of_lists(self, tmp_path, capsys, cmd, width):
        # a 3-D class_scores is a schema fault wherever an SP-shaped row is read
        row = {**VIDEO_ROWS["sp"], "class_scores": [[[0.5, 0.5]] * width] * 8}
        out = tmp_path / "out.jsonl"
        if cmd in ("extract", "losses"):
            grid_file = tmp_path / "sp.jsonl"
            write_jsonl(grid_file, [row])
            gt = tmp_path / "gt.jsonl"
            write_jsonl(gt, [SEGMENT_ROW])
            argv = ["--input", grid_file, "--gt", gt]
            if cmd == "losses":
                for name in ("anchor_predictions", "targets"):
                    write_jsonl(tmp_path / f"{name}.jsonl", [VIDEO_ROWS[name]])
                argv = ["--input", tmp_path / "anchor_predictions.jsonl",
                        "--input", tmp_path / "targets.jsonl", *argv]
            code = run(cmd, *argv, "--output", out)
        else:
            code, grid_file = _grid_run(tmp_path, row, cmd, out)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {grid_file}: class_scores must be rows of numbers, not of lists\n"
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

    @pytest.mark.parametrize("field", ["class_label", "mask_bit"])
    @pytest.mark.parametrize("value", [1.7, 1.0, True, "1", None])
    def test_targets_file_anchor_integers(self, tmp_path, capsys, field, value):
        # anchor 0 is a positive; the value of the wrong JSON type goes there
        sizes = [math.ceil(8 / 2**l) for l in range(6)]
        n = sum(sizes)
        rest = [0] * (n - 1)
        row = {"video_id": "v", "num_snippets": 8, "snippet_duration_s": 1.0,
               "class_count": 1, "level_sizes": sizes, "class_label": [1, *rest],
               "reg_left": [0.5, *rest], "reg_right": [0.5, *rest],
               "iou_weight": [1.0, *rest], "mask_bit": [1] * n}
        row[field] = [value, *row[field][1:]]
        targets = tmp_path / "targets.jsonl"
        write_jsonl(targets, [row])
        preds = tmp_path / "preds.jsonl"
        write_jsonl(preds, [{"video_id": "v", "class_probs": [[0.5, 0.5]] * n,
                             "reg_left": [1.0] * n, "reg_right": [1.0] * n}])
        out = tmp_path / "losses.json"
        assert run("losses", "--input", preds, "--input", targets, "--output", out) == 2
        err = capsys.readouterr().err
        assert err == f"error: {targets}: {field} values must be integers\n"
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


SP_ROW = {"video_id": "v", "num_snippets": 8, "snippet_duration_s": 1.0,
          "attention": [1.0] * 8, "class_scores": [[0.9, 0.1]] * 8}


class TestSegmentExtent:
    """Segment rows read together with a grid (the grid source of `fuse`,
    `mask` and `targets`, the SP file of `extract --gt` and `losses --gt`)
    must lie within their video, up to the writer's 6-digit rounding."""

    def _run(self, tmp_path, cmd, start, end):
        sp = tmp_path / "sp.jsonl"
        write_jsonl(sp, [SP_ROW])
        segments = tmp_path / "segments.jsonl"
        write_jsonl(segments, [{**SEGMENT_ROW, "start_s": start, "end_s": end}])
        out = tmp_path / "out"
        if cmd == "extract":
            argv = ["extract", "--input", sp, "--gt", segments]
        elif cmd == "losses":
            pseudos, targets = tmp_path / "pseudos.jsonl", tmp_path / "targets.jsonl"
            write_jsonl(pseudos, [SEGMENT_ROW])
            mask = mask_file_for(pseudos, sp, tmp_path / "mask.jsonl")
            assert run("targets", "--input", pseudos, "--input", sp, "--input", mask,
                       "--output", targets) == 0
            n = len(read_jsonl(targets)[1][0]["class_label"])
            preds = tmp_path / "preds.jsonl"
            write_jsonl(preds, [{"video_id": "v", "class_probs": [[0.5, 0.5]] * n,
                                 "reg_left": [1.0] * n, "reg_right": [1.0] * n,
                                 "snippet_probs": [[0.5, 0.5]] * 8}])
            argv = ["losses", "--input", preds, "--input", targets, "--input", sp,
                    "--gt", segments]
        else:
            argv = [cmd, "--input", segments, "--input", sp]
            if cmd == "targets":
                argv += ["--input", _certain_mask_file(tmp_path)]
        return run(*argv, "--output", out), segments, out

    @pytest.mark.parametrize("cmd", ["fuse", "mask", "targets", "extract", "losses"])
    @pytest.mark.parametrize("start, end", [(1e5, 1e5 + 1.0), (-1.0, 3.0), (2.0, 8.5)])
    def test_outside_the_video_exits_3(self, tmp_path, capsys, cmd, start, end):
        code, segments, out = self._run(tmp_path, cmd, start, end)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {segments}: video v: segment [{start}, {end}] lies outside")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("cmd", ["fuse", "mask", "targets", "extract", "losses"])
    @pytest.mark.parametrize("start, end", [(0.0, 8.0), (0.0, 8.00008)])
    def test_edges_and_rounding_are_inside(self, tmp_path, cmd, start, end):
        # 8.00008 passes the end by 1e-5 of the extent: the rounding of a
        # written end time and snippet duration
        assert self._run(tmp_path, cmd, start, end)[0] == 0


class TestValuesNearTheFloatRange:
    """Times are bounded by core.MAX_TIME_S (a grid's extent, a segment's
    endpoints), so no stage overflows; a value near the float range elsewhere
    exits as any bad value does, or runs, and numpy prints no warning (the
    test settings turn one into an error)."""

    HUGE_GRID = {"video_id": "v", "num_snippets": 2, "snippet_duration_s": 8e307,
                 "class_count": 1}
    HUGE_SEGMENT = {"video_id": "v", "start_s": 0.0, "end_s": 1.6e308, "class_id": 1}
    EXTENT = "num_snippets * snippet_duration_s must be at most 1e+15 s, got "

    @staticmethod
    def _refused(capsys, code, message, out):
        assert (code, capsys.readouterr().err) == (3, f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["targets"], ["fuse", "--strategy", "gauss"]])
    def test_a_grid_past_the_time_bound(self, tmp_path, capsys, argv):
        grid, pseudos, mask, out = (tmp_path / n for n in ("grid", "pseudos", "mask", "out"))
        write_jsonl(grid, [self.HUGE_GRID])
        write_jsonl(pseudos, [{**self.HUGE_SEGMENT, "score": 1.0}])
        write_jsonl(mask, [{"video_id": "v", "bits": [[1, 2]]}])
        inputs = [pseudos, grid, mask][: 3 if argv[0] == "targets" else 2]
        code = run(*argv, *(a for path in inputs for a in ("--input", path)), "--output", out)
        self._refused(capsys, code, f"{grid}: video v: {self.EXTENT}1.6e+308", out)

    def test_eval_of_a_segment_past_the_time_bound(self, tmp_path, capsys):
        preds, gt, out = tmp_path / "preds.jsonl", tmp_path / "gt.jsonl", tmp_path / "out"
        write_jsonl(preds, [{**self.HUGE_SEGMENT, "score": 1.0}])
        write_jsonl(gt, [self.HUGE_SEGMENT])
        code = run("eval", "--input", preds, "--gt", gt, "--output", out)
        self._refused(capsys, code,
                      f"{preds}: video v: interval endpoints must lie in [-1e+15, 1e+15] s", out)

    def test_targets_of_a_huge_snippet_duration(self, tmp_path, capsys):
        targets, preds, out = tmp_path / "targets.jsonl", tmp_path / "preds.jsonl", tmp_path / "o"
        write_jsonl(targets, [{**VIDEO_ROWS["targets"], "snippet_duration_s": 1e308}])
        write_jsonl(preds, [VIDEO_ROWS["anchor_predictions"]])
        code = run("losses", "--input", preds, "--input", targets, "--output", out)
        self._refused(capsys, code, f"{targets}: video v: {self.EXTENT}inf", out)

    def test_sp_file_of_a_huge_snippet_duration(self, tmp_path, capsys):
        sp, gt, out = tmp_path / "sp.jsonl", tmp_path / "gt.jsonl", tmp_path / "out"
        write_jsonl(sp, [{**VIDEO_ROWS["sp"], "snippet_duration_s": 1e308}])
        write_jsonl(gt, [SEGMENT_ROW])
        code = run("extract", "--input", sp, "--gt", gt, "--output", out)
        self._refused(capsys, code, f"{sp}: video v: {self.EXTENT}inf", out)

    def test_a_proposal_far_shorter_than_a_snippet(self, tmp_path, capsys):
        # its wavelet is -0.0 at every snippet center: no pseudo label
        grid, props, out = tmp_path / "grid.jsonl", tmp_path / "props.jsonl", tmp_path / "out"
        write_jsonl(grid, [GRID_ROW])
        write_jsonl(props, [{**SEGMENT_ROW, "start_s": 1e-300, "end_s": 2e-300}])
        assert run("fuse", "--input", props, "--input", grid, "--output", out) == 0
        assert capsys.readouterr().err == ""
        assert len(out.read_text(encoding="utf-8").splitlines()) == 1

    def test_a_proposal_of_the_least_duration(self, tmp_path, capsys):
        # [0, 5e-324]: half its duration rounds to 0.0, so it has no wavelet;
        # ricker leaves it out of the sum, as it leaves out a score <= 0
        grid, short, rest = (tmp_path / n for n in ("grid.jsonl", "short.jsonl", "rest.jsonl"))
        write_jsonl(grid, [GRID_ROW])
        kept = {**SEGMENT_ROW, "score": 0.8}
        write_jsonl(short, [{**SEGMENT_ROW, "start_s": 0.0, "end_s": 5e-324, "score": 0.9}, kept])
        write_jsonl(rest, [kept])
        for props in (short, rest):
            for strategy in STRATEGIES:
                assert run("fuse", "--strategy", strategy, "--input", props, "--input", grid,
                           "--output", tmp_path / f"{props.stem}_{strategy}") == 0
            assert run("fuse", "--input", props, "--input", grid, "--output",
                       tmp_path / f"{props.stem}_csv", "--wavelet-csv",
                       tmp_path / f"{props.stem}_wavelet") == 0
        assert capsys.readouterr().err == ""
        for name in ("ricker", "wavelet"):
            assert (tmp_path / f"short_{name}").read_bytes() == (
                tmp_path / f"rest_{name}").read_bytes()

    # an endpoint fault of each kind, and rows of two faults, the bound's first
    SPAN_FAULTS = [(math.nan, 1.0), (0.0, math.nan), (-math.inf, 1.0), (0.0, math.inf),
                   (-2e15, 1.0), (0.0, 2e15), (5.0, 5.0), (5.0, 2.0), (2e15, 1.0),
                   (math.inf, 1.0), (3e15, math.nan)]

    @pytest.mark.parametrize("start, end", SPAN_FAULTS)
    def test_a_row_breaks_the_span_rule_as_the_columns_do(self, tmp_path, capsys, start, end):
        # `eval` and `fuse` check each row by the rule and with the message
        # that `Segments` applies to its columns
        with pytest.raises(ValueError) as columns:
            Segments([start], [end], [1], [0.9])
        grid, props, gt, out = (tmp_path / n for n in ("grid.jsonl", "props.jsonl", "gt.jsonl",
                                                       "out"))
        write_jsonl(grid, [GRID_ROW])
        write_jsonl(props, [{**SEGMENT_ROW, "start_s": start, "end_s": end}])
        write_jsonl(gt, [{k: v for k, v in SEGMENT_ROW.items() if k != "score"}])
        for argv in (["eval", "--input", props, "--gt", gt],
                     ["fuse", "--input", props, "--input", grid]):
            code = run(*argv, "--output", out)
            self._refused(capsys, code, f"{props}: video v: {columns.value}", out)

    @pytest.mark.parametrize("rows, want", [
        ([(2.7, 4.9, 5e-324)], None),
        ([(2.7, 2.9, 5e-324)], None),
        ([(2.7, 4.9, 1e308)], None),
        ([(2.7, 4.9, 1e308), (2.8, 4.9, 1e308)], (2.75, 4.9)),  # one group, equal weights
        ([(2.7, 4.9, 5e-324), (2.8, 4.9, 5e-324)], (2.75, 4.9)),
    ])
    def test_gauss_weights_of_extreme_scores(self, tmp_path, capsys, rows, want):
        # a group's weights are scaled by a power of two: a lone proposal keeps
        # the interval that soft keeps, and no product under- or overflows
        grid, props = tmp_path / "grid.jsonl", tmp_path / "props.jsonl"
        write_jsonl(grid, [{**GRID_ROW, "num_snippets": 10}])
        write_jsonl(props, [{**SEGMENT_ROW, "start_s": start, "end_s": end, "score": score}
                            for start, end, score in rows])
        for strategy in ("gauss", "soft"):
            assert run("fuse", "--strategy", strategy, "--input", props, "--input", grid,
                       "--output", tmp_path / strategy) == 0
        assert capsys.readouterr().err == ""
        gauss = [(r["start_s"], r["end_s"], r["score"]) for r in read_jsonl(tmp_path / "gauss")[1]]
        if want is None:
            assert (tmp_path / "gauss").read_bytes() == (tmp_path / "soft").read_bytes()
        else:
            assert gauss == [(*want, rows[0][2])]

    def test_a_ricker_sum_past_the_float_range(self, tmp_path, capsys):
        # three equal proposals of score 1e308: their fused peak is past the
        # float range, which the error names with its file and video
        grid, props, out = tmp_path / "grid.jsonl", tmp_path / "props.jsonl", tmp_path / "out"
        write_jsonl(grid, [{**GRID_ROW, "num_snippets": 10}])
        write_jsonl(props, [{**SEGMENT_ROW, "score": 1e308}] * 3)
        code = run("fuse", "--input", props, "--input", grid, "--output", out)
        self._refused(capsys, code, f"{props}: video v: wavelet values must be finite", out)

    @pytest.mark.parametrize("duration, want", [
        (1.0, {1.0: (3.89997, 5.49991, 1.49334e+308), 0.5: (3.89997, 5.49991, 7.46668e+307)}),
        (2.0, {1.0: (7.79994, 10.9998, 1.05595e+308), 0.5: (7.79994, 10.9998, 5.27974e+307)}),
    ])
    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_a_ricker_zero_crossing_between_huge_values(self, tmp_path, capsys, duration, want,
                                                        scale):
        # the wavelet values on both sides of the start crossing lie so far
        # apart that their difference overflows (with 2 s snippets, also their
        # product with the snippet duration); the crossing does not depend on
        # the scale of the scores
        grid, props, out = tmp_path / "grid.jsonl", tmp_path / "props.jsonl", tmp_path / "out"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"min_duration_snippets": 0}), encoding="utf-8")
        write_jsonl(grid, [{**GRID_ROW, "num_snippets": 10, "snippet_duration_s": duration}])
        rows = ((2.954, 3.354, 1.15e308), (4.3, 4.7, 7.7e307))
        write_jsonl(props, [{**SEGMENT_ROW, "start_s": start * duration, "end_s": end * duration,
                             "score": score * scale} for start, end, score in rows])
        assert run("fuse", "--config", config, "--input", props, "--input", grid,
                   "--output", out) == 0
        assert capsys.readouterr().err == ""
        (row,) = read_jsonl(out)[1]
        assert (row["start_s"], row["end_s"], row["score"]) == want[scale]

    @pytest.mark.parametrize("entry", [1e308, math.inf])
    @pytest.mark.parametrize("kind", ["sp", "anchor_predictions"])
    def test_probability_rows_whose_sum_overflows(self, tmp_path, capsys, kind, entry):
        # the row's sum is inf, so the renormalized row fails the type's check
        field = {"sp": "class_scores", "anchor_predictions": "class_probs"}[kind]
        row, path, out = VIDEO_ROWS[kind], tmp_path / f"{kind}.jsonl", tmp_path / "out"
        write_jsonl(path, [{**row, field: [[entry, entry], *row[field][1:]]}])
        other = tmp_path / "other.jsonl"
        if kind == "sp":
            write_jsonl(other, [SEGMENT_ROW])
            code = run("extract", "--input", path, "--gt", other, "--output", out)
            infinite = "attention and class_scores must be finite"
        else:
            write_jsonl(other, [VIDEO_ROWS["targets"]])
            code = run("losses", "--input", path, "--input", other, "--output", out)
            infinite = "class_probs must be finite"
        fault = f"{field} rows must sum to 1 within 1e-6" if entry == 1e308 else infinite
        self._refused(capsys, code, f"{path}: video v: {fault}", out)

    @pytest.mark.parametrize("cmd", ["simulate", "benchmark"])
    def test_a_tiny_score_temperature(self, tmp_path, capsys, cmd):
        # 1/T overflows: the class rows are one-hot, not inf - inf
        cfg, out = tmp_path / "config.json", tmp_path / "out.jsonl"
        cfg.write_text(json.dumps({"sim": {"num_videos": 3, "class_count": 2,
                                           "score_temperature": 5e-324}}))
        assert run(cmd, "--config", cfg, "--output", out) == 0
        assert capsys.readouterr().err == ""
        if cmd == "simulate":
            rows = {tuple(r) for row in read_jsonl(out)[1] for r in row["class_scores"]}
            assert rows <= {(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.333333, 0.333333, 0.333333)}

    def test_simulate_with_a_huge_attention_noise(self, tmp_path, capsys):
        # the noise saturates the attention at 0 or 1
        cfg, out = tmp_path / "config.json", tmp_path / "sp.jsonl"
        cfg.write_text(json.dumps({"sim": {"num_videos": 2, "attention_noise_std": 1e308}}))
        assert run("simulate", "--config", cfg, "--output", out) == 0
        assert capsys.readouterr().err == ""
        assert {a for row in read_jsonl(out)[1] for a in row["attention"]} <= {0.0, 1.0}


@pytest.fixture(scope="module")
def chain_files(tmp_path_factory):
    """Valid inputs of every subcommand: a 6-video, 3-class noisy corpus with
    its proposals, pseudo labels, mask, targets and anchor predictions."""
    d = tmp_path_factory.mktemp("chain")
    cfg = d / "config.json"
    cfg.write_text(json.dumps({"sim": {
        "seed": 3, "num_videos": 6, "class_count": 3, "false_positive_rate": 2.0,
        "attention_noise_std": 0.2, "boundary_jitter_frac": 0.2}}))
    files = {name: d / f"{name}.jsonl" for name in ("sp", "gt", "props", "pseudos", "mask",
                                                    "targets", "preds")}
    assert run("simulate", "--config", cfg, "--output", files["sp"], "--gt", files["gt"]) == 0
    assert run("extract", "--input", files["sp"], "--gt", files["gt"],
               "--output", files["props"]) == 0
    assert run("fuse", "--input", files["props"], "--input", files["sp"],
               "--output", files["pseudos"]) == 0
    mask_file_for(files["pseudos"], files["sp"], files["mask"])
    assert run("targets", "--input", files["pseudos"], "--input", files["sp"],
               "--input", files["mask"], "--output", files["targets"]) == 0
    _, rows = read_jsonl(files["targets"])
    write_jsonl(files["preds"], [
        {"video_id": row["video_id"], "class_probs": [[0.25] * 4] * len(row["class_label"]),
         "reg_left": [1.0] * len(row["class_label"]), "reg_right": [1.0] * len(row["class_label"])}
        for row in rows
    ])
    return files


class TestConfigTypes:
    """Each config value is checked against its field's type when the config
    loads: a JSON integer for an int field (no bool), a finite JSON number for
    a float field, a list of those for a tuple field, a string for a str
    field. A wrong type exits 2 and a non-finite number 3, both naming the
    key, before any input is read."""

    ARGV = {
        "extract": ["--input", "sp", "--gt", "gt"],
        "fuse": ["--input", "props", "--input", "sp"],
        "mask": ["--input", "pseudos", "--input", "sp"],
        "targets": ["--input", "pseudos", "--input", "sp", "--input", "mask"],
        "losses": ["--input", "preds", "--input", "targets", "--input", "sp", "--gt", "gt"],
        "eval": ["--input", "props", "--gt", "gt"],
        "simulate": [],
    }

    @pytest.mark.parametrize(
        "config, cmd, code, key",
        [({"sigma_nms": math.nan}, "extract", 3, "sigma_nms"),
         ({"min_score": math.nan}, "extract", 3, "min_score"),
         ({"min_duration_snippets": math.nan}, "fuse", 2, "min_duration_snippets"),
         ({"alpha": math.inf}, "mask", 3, "alpha"),
         ({"gamma_focal": math.nan}, "losses", 3, "gamma_focal"),
         ({"num_levels": 2.5}, "targets", 2, "num_levels"),
         ({"num_levels": True}, "targets", 2, "num_levels"),
         ({"thresholds": [0.5, "0.6"]}, "extract", 2, "thresholds"),
         ({"thresholds": 0.5}, "extract", 2, "thresholds"),
         ({"eval_tious": [0.5, -math.inf]}, "eval", 3, "eval_tious"),
         ({"extract_on": 1}, "extract", 2, "extract_on"),
         ({"tau": None}, "losses", 2, "tau"),
         ({"sim": {"num_videos": 2.5}}, "simulate", 2, "num_videos"),
         ({"sim": {"seed": True}}, "simulate", 2, "seed"),
         ({"sim": {"snippets_per_video": [8, 16.0]}}, "simulate", 2, "snippets_per_video"),
         ({"sim": {"attention_noise_std": math.nan}}, "simulate", 3, "attention_noise_std")],
        ids=lambda v: json.dumps(v) if isinstance(v, dict) else None,
    )
    def test_value_of_the_wrong_type(self, tmp_path, capsys, chain_files, config, cmd, code, key):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        argv = [chain_files.get(a, a) for a in self.ARGV[cmd]]
        out = tmp_path / "out"
        assert run(cmd, *argv, "--output", out) == 0  # the inputs are valid
        out.unlink()
        assert run(cmd, "--config", cfg, *argv, "--output", out) == code
        section = f"{cfg}: sim config" if "sim" in config else f"{cfg}: config"
        err = capsys.readouterr().err
        assert err.startswith(f"error: {section} key '{key}' must be ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("cls, what, key, value", [
        (PipelineConfig, "config", "sigma_nms", math.nan),
        (PipelineConfig, "config", "min_score", math.nan),
        (PipelineConfig, "config", "alpha", math.nan),
        (PipelineConfig, "config", "beta", math.nan),
        (PipelineConfig, "config", "lambda_att", math.nan),
        (PipelineConfig, "config", "gamma_focal", math.inf),
        (PipelineConfig, "config", "thresholds", (0.5, math.nan)),
        (SimConfig, "sim config", "score_temperature", math.nan),
        (SimConfig, "sim config", "snippet_duration_s", math.inf),
        (SimConfig, "sim config", "duration_range_s", (2.0, math.nan)),
    ])
    def test_the_constructors_refuse_non_finite_numbers(self, cls, what, key, value):
        # the rule of a JSON config holds for a config built in Python too: a
        # NaN sigma_nms or min_score would run a whole benchmark on wrong numbers
        with pytest.raises(ValueError, match=f"^{what} key '{key}' must be finite, got "):
            cls(**{key: value})

    @pytest.mark.parametrize("cls, what, key, value, shown", [
        (PipelineConfig, "config", "alpha", 10**5000, "<an integer of more than"),
        (PipelineConfig, "config", "eval_tious", (0.5, -10**5000),
         "<a list holding an integer of more than"),
        (SimConfig, "sim config", "snippet_duration_s", 10**5000, "<an integer of more than"),
    ], ids=["alpha", "eval_tious", "snippet_duration_s"])  # no id from an integer without repr
    def test_an_integer_past_the_digit_limit_is_shown_by_it(self, cls, what, key, value, shown):
        # no repr writes an integer of more digits than
        # `sys.get_int_max_str_digits()`: the message names the key and the limit
        limit = sys.get_int_max_str_digits()
        with pytest.raises(ValueError) as info:
            cls(**{key: value})
        assert str(info.value) == f"{what} key '{key}' must be finite, got {shown} {limit} digits>"

    def test_a_corpus_past_the_digit_limit_is_shown_by_it(self):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(ValueError) as info:
            SimConfig(num_videos=10**5000)
        assert str(info.value) == (
            "sim config num_videos * snippets_per_video[1] * (class_count + 1) must be at most "
            f"16777216, got <an integer of more than {limit} digits> * 128 * (5 + 1)")

    @pytest.mark.parametrize("cls, what, key, value, need", [
        (SimConfig, "sim config", "num_videos", 2.5, "a JSON integer"),
        (SimConfig, "sim config", "seed", 1.5, "a JSON integer"),
        (SimConfig, "sim config", "seed", True, "a JSON integer"),
        (SimConfig, "sim config", "snippets_per_video", (8, 16.0), "a JSON list of integers"),
        (PipelineConfig, "config", "num_levels", True, "a JSON integer"),
        (PipelineConfig, "config", "min_duration_snippets", 2.5, "a JSON integer"),
        (PipelineConfig, "config", "warmup_epochs", 0.5, "a JSON integer"),
        (PipelineConfig, "config", "thresholds", 0.5, "a JSON list of numbers"),
        (PipelineConfig, "config", "tau", None, "a JSON number"),
        (PipelineConfig, "config", "extract_on", b"sps", "a JSON string"),
    ])
    def test_the_constructors_refuse_values_of_the_wrong_type(self, cls, what, key, value, need):
        # the JSON type rule holds for a config built in Python too, and is
        # checked before the finite rule; a tuple is shown as the JSON list a
        # config file holds
        shown = re.escape(repr(list(value) if isinstance(value, tuple) else value))
        message = f"^{what} key '{key}' must be {need}, got {shown}$"
        with pytest.raises(SchemaError, match=message):
            cls(**{key: value, "score_temperature" if cls is SimConfig else "sigma_nms": math.nan})

    @pytest.mark.parametrize("value, shown", [
        ([[[[[[[[[[1]]]]]]]]]], "[[[[[[[...]]]]]]]"),
        (list(range(1000)), "[0, 1, 2, 3, 4, 5, ...]"),
    ], ids=["deep", "long"])
    def test_a_wrong_value_is_shown_short(self, value, shown):
        # a bounded repr: a value nested near the decoder's depth limit cannot
        # overflow the stack in the message
        with pytest.raises(SchemaError) as info:
            PipelineConfig(tau=value)
        assert str(info.value) == f"config key 'tau' must be a JSON number, got {shown}"

    def test_a_list_of_a_config_file_is_shown_as_a_list(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"eval_tious": [0.5, -math.inf]}))
        assert run("simulate", "--config", cfg, "--output", tmp_path / "out") == 3
        assert capsys.readouterr().err == (
            f"error: {cfg}: config key 'eval_tious' must be finite, got [0.5, -inf]\n")

    @pytest.mark.parametrize("config, cmd, message", [
        ({"alpha": HUGE}, "mask", f"config key 'alpha' must be finite, got {HUGE_SHOWN}"),
        ({"sigma_nms": HUGE}, "extract", f"config key 'sigma_nms' must be finite, got {HUGE_SHOWN}"),
        ({"lambda_att": HUGE}, "losses",
         f"config key 'lambda_att' must be finite, got {HUGE_SHOWN}"),
        ({"gamma_focal": HUGE}, "losses",
         f"config key 'gamma_focal' must be finite, got {HUGE_SHOWN}"),
        ({"sim": {"score_temperature": HUGE}}, "simulate",
         f"sim config key 'score_temperature' must be finite, got {HUGE_SHOWN}"),
        ({"sim": {"duration_range_s": [1, HUGE]}}, "simulate",
         f"sim config key 'duration_range_s' must be finite, got [1, {HUGE_SHOWN}]"),
        ({"min_duration_snippets": HUGE}, "fuse",
         f"min_duration_snippets must be at most {MAX_GRID_CELLS}"),
    ], ids=["alpha", "sigma_nms", "lambda_att", "gamma_focal", "score_temperature",
            "duration_range_s", "min_duration_snippets"])
    def test_an_integer_past_the_float_range(self, tmp_path, capsys, chain_files, config, cmd,
                                             message):
        # refused when the config loads, naming the file and the key, and
        # shown by a bounded repr; no value is converted to a float
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        argv = [chain_files.get(a, a) for a in self.ARGV[cmd]]
        out = tmp_path / "out"
        assert run(cmd, "--config", cfg, *argv, "--output", out) == 3
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("sim", [{"snippet_duration_s": 1e-300},
                                     {"duration_range_s": [200, 300]}],
                             ids=["tiny snippets", "long actions"])
    @pytest.mark.parametrize("cmd", ["simulate", "benchmark"])
    def test_the_shortest_action_fits_in_the_longest_video(self, tmp_path, capsys, sim, cmd):
        # refused before the first draw, naming the keys
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"sim": sim}))
        out = tmp_path / "out"
        assert run(cmd, "--config", cfg, "--output", out) == 3
        assert capsys.readouterr().err == (
            f"error: {cfg}: duration_range_s[0] / snippet_duration_s must be at most "
            "snippets_per_video[1]\n")
        assert not out.exists()

    @pytest.mark.parametrize("sim", [{"duration_range_s": [4, 1e300]},
                                     {"duration_range_s": [4, 1e308], "snippet_duration_s": 0.5}],
                             ids=["past int64", "infinite ratio"])
    @pytest.mark.parametrize("cmd", ["simulate", "benchmark"])
    def test_the_longest_action_fits_in_an_int64_draw(self, tmp_path, capsys, sim, cmd):
        # refused before math.floor and before the first draw, naming the key
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"sim": sim}))
        out = tmp_path / "out"
        assert run(cmd, "--config", cfg, "--output", out) == 3
        assert capsys.readouterr().err == (
            f"error: {cfg}: duration_range_s[1] / snippet_duration_s must be below 2**63\n")
        assert not out.exists()

    @pytest.mark.parametrize("cmd", ["simulate", "benchmark"])
    def test_an_action_longer_than_every_video_is_still_drawn(self, tmp_path, cmd):
        # durations of up to 16 snippets in videos of 10 to 12: the draw is
        # not bounded by snippets_per_video[1], so this config still runs
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"sim": {"snippets_per_video": [10, 12],
                                           "actions_per_video": [1, 1]}}))
        out = tmp_path / "out"
        assert run(cmd, "--config", cfg, "--output", out) == 0
        assert out.exists()

    @pytest.mark.parametrize("alpha, beta, message", [
        (-0.1, 0.0, "alpha must be nonnegative"),
        (0.1, -0.1, "beta must be nonnegative"),
        (0.1, 0.5, "beta must be < 0.5 or the bands swallow the proposal"),
    ])
    def test_the_mask_checks_its_band_ratios(self, alpha, beta, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PipelineConfig(alpha=alpha, beta=beta)

    @pytest.mark.parametrize("key, value, message", [
        ("thresholds", (), "thresholds must be a nonempty subset of (0, 1)"),
        ("thresholds", (0.5, 1.0), "thresholds must be a nonempty subset of (0, 1)"),
        ("extract_on", "both", "extract_on must be 'sps' or 'attention'"),
        ("min_duration_snippets", -1, "min_duration_snippets must be nonnegative"),
        ("lambda_att", -0.1, "lambda_att must be nonnegative"),
        ("gamma_focal", -1.0, "gamma_focal must be nonnegative"),
        ("eval_tious", (), "eval_tious must be a nonempty subset of (0, 1]"),
        ("eval_tious", (0.0, 0.5), "eval_tious must be a nonempty subset of (0, 1]"),
    ])
    def test_the_constructor_refuses_values_out_of_range(self, key, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PipelineConfig(**{key: value})

    @staticmethod
    def _stage(key, value):
        """The stage function that takes the setting `key`, called with `value`
        on a 4-snippet, 1-class video."""
        grid, label = TimeGrid(4, 1.0, 1), VideoLabel(np.array([1]))
        sps = np.array([[0.1, 0.9], [0.9, 0.1], [0.9, 0.1], [0.1, 0.9]])
        props = Segments(np.array([1.0]), np.array([3.0]), np.array([1]), np.array([0.5]))
        calls = {
            "thresholds": lambda: extract_proposals(sps, grid, value, label),
            "oic_inflation": lambda: oic_scores(sps, props, grid, value),
            "sigma_nms": lambda: soft_nms(props, sigma_nms=value),
            "extract_on": lambda: weak_proposals(SnippetPredictions(np.ones(4), sps), grid,
                                                 label, (0.5,), extract_on=value),
            "tau": lambda: att_loss(sps, sps, value, label),
            "eval_tious": lambda: map_table({}, GroundTruthSet({"v": props}), value),
        }
        return calls[key]()

    @pytest.mark.parametrize("key, value", [
        ("thresholds", ()), ("thresholds", (0.5, 1.0)), ("thresholds", (0.0,)),
        ("oic_inflation", 0.0), ("oic_inflation", 1.5), ("sigma_nms", 0.0),
        ("sigma_nms", -0.5), ("extract_on", "both"), ("tau", 0.0), ("tau", 1.0),
        ("eval_tious", ()), ("eval_tious", (0.0,)), ("eval_tious", (1.5,)),
    ])
    def test_a_stage_function_refuses_what_the_config_refuses(self, key, value):
        # each setting's rule is written once, in `config`, so both give its message
        with pytest.raises(ValueError) as config_fault:
            PipelineConfig(**{key: value})
        with pytest.raises(ValueError, match=f"^{re.escape(str(config_fault.value))}$"):
            self._stage(key, value)

    @pytest.mark.parametrize("key, value", [
        ("thresholds", (math.nan,)), ("oic_inflation", math.nan), ("sigma_nms", math.nan),
        ("extract_on", math.nan), ("tau", math.nan), ("eval_tious", (math.nan,)),
    ])
    def test_a_stage_function_refuses_nan(self, key, value):
        # NaN fails every rule's test; the config refuses it earlier, as not finite
        with pytest.raises(ValueError, match=f"^{key} must "):
            self._stage(key, value)

    def test_values_are_not_converted(self):
        # values pass unconverted: alpha 0 stays the int 0, whose hash differs
        # from that of alpha 0.0, so each config keeps the hash of its own values
        data = {"alpha": 0, "tau": 0.5, "thresholds": [0.5, 0.1]}
        assert PipelineConfig.from_dict(data).config_hash() == "3eef3343b9b9"
        assert PipelineConfig.from_dict({**data, "alpha": 0.0}).config_hash() == "9ffcf57b9b28"

    def test_eval_tious_entries_are_floats(self):
        # the one conversion: `eval_tious` stores its entries as floats, so
        # [1] and [1.0] are one config, of one hash
        ints, floats = (PipelineConfig.from_dict({"eval_tious": v}) for v in ([1], [1.0]))
        assert ints.eval_tious == (1.0,) and type(ints.eval_tious[0]) is float
        assert ints.config_hash() == floats.config_hash()


class TestVideoIds:
    """A `video_id` is a JSON string in every input file (exit 2 otherwise)."""

    def test_null_video_id(self, tmp_path, capsys):
        sp = tmp_path / "sp.jsonl"
        write_jsonl(sp, [{**SP_ROW, "video_id": None}])
        gt = tmp_path / "gt.jsonl"
        write_jsonl(gt, [{"video_id": "v", "start_s": 1.0, "end_s": 3.0, "class_id": 1}])
        out = tmp_path / "props.jsonl"
        assert run("extract", "--input", sp, "--gt", gt, "--output", out) == 2
        assert capsys.readouterr().err == f"error: {sp}: video_id must be a string, got None\n"
        assert not out.exists()

    def test_number_and_string_ids_are_not_one_video(self, tmp_path, capsys):
        grid_file = tmp_path / "grid.jsonl"
        write_jsonl(grid_file, [{**GRID_ROW, "video_id": "5"}])
        props = tmp_path / "props.jsonl"
        write_jsonl(props, [{**SEGMENT_ROW, "video_id": "5"}, {**SEGMENT_ROW, "video_id": 5}])
        out = tmp_path / "pseudos.jsonl"
        assert run("fuse", "--input", props, "--input", grid_file, "--output", out) == 2
        assert capsys.readouterr().err == f"error: {props}: video_id must be a string, got 5\n"
        assert not out.exists()


class TestClassIdRule:
    """The reader holds every proposal, pseudo-label and ground-truth row to
    the class-id rule of `core.check_class_id`, with its two messages, as the
    row is read: with a grid (the grid source of `fuse`, the SP file of
    `extract --gt`) and without one (`eval`)."""

    CASES = {
        0: "class_id 0 is not an int64 integer >= 1",
        -3: "class_id -3 is not an int64 integer >= 1",
        2**63: f"class_id {2**63} is not an int64 integer >= 1",
        2: "class_id 2 lies outside the 1 classes of its grid",
    }

    @pytest.mark.parametrize("class_id", sorted(CASES))
    @pytest.mark.parametrize("kind, cmd", [
        ("props", "fuse"), ("gt", "extract"), ("props", "eval"), ("gt", "eval")])
    def test_one_rule_one_pair_of_messages(self, tmp_path, capsys, kind, cmd, class_id):
        gt_row = {k: v for k, v in SEGMENT_ROW.items() if k != "score"}
        rows = {"sp": SP_ROW, "gt": gt_row, "props": SEGMENT_ROW}
        rows[kind] = {**rows[kind], "class_id": class_id}
        paths = {name: tmp_path / f"{name}.jsonl" for name in rows}
        for name, path in paths.items():
            write_jsonl(path, [rows[name]])
        argv = {
            "fuse": ["--input", paths["props"], "--input", paths["sp"]],
            "extract": ["--input", paths["sp"], "--gt", paths["gt"]],
            "eval": ["--input", paths["props"], "--gt", paths["gt"]],
        }[cmd]
        out = tmp_path / "out"
        if class_id == 2 and cmd == "eval":  # no grid: class 2 is a class like any other
            assert run(cmd, *argv, "--output", out) == 0
            return
        assert run(cmd, *argv, "--output", out) == 3
        err = capsys.readouterr().err
        assert err == f"error: {paths[kind]}: video v: {self.CASES[class_id]}\n"
        assert not out.exists()

    @pytest.mark.parametrize("score", ["x", None, math.inf])
    def test_the_class_id_is_checked_before_the_score(self, tmp_path, capsys, score):
        # a row's fields are checked in the order start_s, end_s, class_id, score
        props, gt, out = tmp_path / "props.jsonl", tmp_path / "gt.jsonl", tmp_path / "out"
        write_jsonl(props, [{**SEGMENT_ROW, "class_id": 0, "score": score}])
        write_jsonl(gt, [{k: v for k, v in SEGMENT_ROW.items() if k != "score"}])
        assert run("eval", "--input", props, "--gt", gt, "--output", out) == 3
        assert capsys.readouterr().err == (
            f"error: {props}: video v: class_id 0 is not an int64 integer >= 1\n")


class TestHeaderRows:
    """A row that holds `_header` holds nothing else; the header rows of
    concatenated files are skipped (TestRefinementRound)."""

    HEADER = {"config_hash": "0", "tool_version": TOOL_VERSION}

    def test_a_data_row_with_a_header_key(self, tmp_path, capsys):
        sp, gt, out = tmp_path / "sp.jsonl", tmp_path / "gt.jsonl", tmp_path / "out"
        gt_row = {k: v for k, v in SEGMENT_ROW.items() if k != "score"}
        write_jsonl(gt, [gt_row])
        # skipping this row would drop video w from extract's output
        write_jsonl(sp, [SP_ROW, {**SP_ROW, "video_id": "w", "_header": self.HEADER}])
        assert run("extract", "--input", sp, "--gt", gt, "--output", out) == 2
        assert capsys.readouterr().err == (
            f"error: {sp}:2: a _header row holds no other key, got "
            "['_header', 'attention', 'class_scores', 'num_snippets', 'snippet_duration_s', "
            "'video_id']\n")
        assert not out.exists()

    def test_a_ground_truth_row_with_a_header_key(self, tmp_path, capsys):
        # skipping this row would score eval against one segment fewer
        gt, props, out = tmp_path / "gt.jsonl", tmp_path / "props.jsonl", tmp_path / "out"
        gt_row = {k: v for k, v in SEGMENT_ROW.items() if k != "score"}
        write_jsonl(gt, [{"_header": self.HEADER}, gt_row, {**gt_row, "_header": None}])
        write_jsonl(props, [SEGMENT_ROW])
        assert run("eval", "--input", props, "--gt", gt, "--output", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {gt}:3: a _header row holds no other key, got ['_header', ")
        assert err.count("\n") == 1 and not out.exists()

    def test_header_rows_alone_are_skipped(self, tmp_path):
        grid, props, out = tmp_path / "grid.jsonl", tmp_path / "props.jsonl", tmp_path / "out"
        write_jsonl(grid, [{"_header": self.HEADER}, GRID_ROW])
        write_jsonl(props, [{"_header": self.HEADER}, SEGMENT_ROW, {"_header": None}, SEGMENT_ROW])
        assert run("fuse", "--input", props, "--input", grid, "--output", out) == 0
        assert len(read_jsonl(out)[1]) == 1


# every subcommand that reads files, each of its inputs one file (the --gt
# file last); the outcome of a run on inputs that hold no video
NO_VIDEO_RUNS = {
    "extract": (["--input", "--gt"], (0, "")),
    "fuse": (["--input", "--input"], (0, "")),
    "mask": (["--input", "--input"], (0, "")),
    "targets": (["--input", "--input", "--input"], (0, "")),
    "losses": (["--input", "--input"], (3, "{0}: anchor predictions hold no videos")),
    "losses with the SP file": (["--input", "--input", "--input", "--gt"],
                                (3, "{0}: anchor predictions hold no videos")),
    "eval": (["--input", "--gt"], (3, "{1}: ground truth holds no segments")),
}
HEADER_ROW = {"_header": {"config_hash": "0", "tool_version": TOOL_VERSION}}


@pytest.mark.parametrize("content", ["", json.dumps(HEADER_ROW) + "\n"], ids=["empty", "header"])
@pytest.mark.parametrize("name", sorted(NO_VIDEO_RUNS))
def test_inputs_with_no_video(tmp_path, capsys, name, content):
    """A file-to-file subcommand on inputs with no video writes a header-only
    file; `losses` and `eval`, which average over videos or segments, exit 3
    naming what is empty, in one line, and write nothing."""
    flags, (want_code, want_err) = NO_VIDEO_RUNS[name]
    paths = [tmp_path / f"input{i}.jsonl" for i in range(len(flags))]
    argv = [name.split()[0]]
    for flag, path in zip(flags, paths):
        path.write_text(content, encoding="utf-8")
        argv += [flag, path]
    out = tmp_path / "out"
    code = run(*argv, "--output", out)
    err = capsys.readouterr().err
    if want_code == 0:
        assert (code, err) == (0, "")
        header = {"config_hash": PipelineConfig().config_hash(), "tool_version": TOOL_VERSION}
        assert out.read_text(encoding="utf-8") == json.dumps({"_header": header}) + "\n"
    else:
        assert (code, err) == (want_code, f"error: {want_err.format(*paths)}\n")
        assert not out.exists()


# refusals of the config file and the flags: (config file text, argv with the
# names of the test's files, exit code, stderr message)
REFUSALS = {
    "config not an object": ("[1]", ["eval", "--input", "props", "--gt", "props"], 2,
                             "{config}: config must be a JSON object"),
    **{f"'sim' not an object under {cmd}": (
        '{"sim": 1}', [cmd, *argv], 2, "{config}: 'sim' must be a JSON object")
       for cmd, argv in [("simulate", []), ("eval", ["--input", "props", "--gt", "props"])]},
    # --gt is checked before any input is read, so a missing input is not blamed
    **{f"{cmd} without --gt{on}": ("{}", [cmd, "--input", path], 2,
                                   "this subcommand requires --gt")
       for cmd, own in [("extract", "sp"), ("eval", "props")]
       for path, on in [(own, ""), ("absent", " on a missing --input")]},
    "fuse --wavelet-csv on two videos": (
        "{}", ["fuse", "--input", "props", "--input", "grid", "--wavelet-csv", "csv"], 3,
        "wavelet CSV requires exactly one video in the input"),
    # refused before the two videos are read: no wavelet made soft pseudo labels
    "fuse --wavelet-csv with another strategy": (
        "{}", ["fuse", "--input", "props", "--input", "grid", "--strategy", "soft",
               "--wavelet-csv", "csv"], 2,
        "--wavelet-csv writes the ricker wavelet; it needs --strategy ricker"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals_of_the_config_and_flags(tmp_path, capsys, case):
    """Each refusal exits with its code and one stderr line, and writes no
    file."""
    text, argv, want_code, message = REFUSALS[case]
    f = {name: tmp_path / f"{name}.jsonl" for name in ("props", "grid", "sp", "absent")}
    write_jsonl(f["props"], [{**SEGMENT_ROW, "video_id": vid} for vid in ("a", "b")])
    write_jsonl(f["grid"], [{**GRID_ROW, "video_id": vid} for vid in ("a", "b")])
    write_jsonl(f["sp"], [VIDEO_ROWS["sp"]])
    f["config"], f["csv"], out = tmp_path / "config.json", tmp_path / "w.csv", tmp_path / "out"
    f["config"].write_text(text)
    code = run(*(f.get(a, a) for a in argv), "--config", f["config"], "--output", out)
    assert (code, capsys.readouterr().err) == (want_code, f"error: {message.format(**f)}\n")
    assert not out.exists() and not f["csv"].exists()


@pytest.mark.parametrize("line", ["[1, 2]", "1", '"v"', "null"])
def test_a_line_that_is_no_json_object(tmp_path, capsys, line):
    """Every line of a JSON-lines file holds a JSON object: another JSON value
    exits 2 naming the file and the line, and writes no file."""
    props = tmp_path / "props.jsonl"
    props.write_text(json.dumps(SEGMENT_ROW) + "\n" + line + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run("eval", "--input", props, "--gt", props, "--output", out) == 2
    assert capsys.readouterr().err == f"error: {props}:2: expected a JSON object\n"
    assert not out.exists()


# every subcommand on the `chain_files` corpus: its arguments, with the names
# of `chain_files` entries (and "config", the corpus config) for paths
FILE_EDGE_ARGV = {
    **TestConfigTypes.ARGV,
    "simulate": ["--config", "config"],
    "benchmark": ["--config", "config", "--strategy", "ricker"],
}


class TestFileEdge:
    """`main` checks every output path of a run before it writes any file: a
    directory, a path under a missing directory and two outputs that name one
    file each exit 2. A file the OS refuses and a file that is not UTF-8 exit
    2 too. Each case prints one line naming the path and writes no file."""

    @staticmethod
    def _argv(chain_files, cmd):
        files = {**chain_files, "config": chain_files["sp"].parent / "config.json"}
        return [cmd, *(files.get(a, a) for a in FILE_EDGE_ARGV[cmd])]

    @staticmethod
    def _refused(capsys, code, message, *outputs):
        assert (code, capsys.readouterr().err) == (2, f"error: {message}\n")
        assert not any(Path(p).is_file() for p in outputs)

    @pytest.mark.parametrize("cmd", sorted(FILE_EDGE_ARGV))
    def test_output_is_a_directory(self, tmp_path, capsys, chain_files, cmd):
        code = run(*self._argv(chain_files, cmd), "--output", tmp_path)
        self._refused(capsys, code, f"{tmp_path}: is a directory")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("cmd", sorted(FILE_EDGE_ARGV))
    def test_output_under_a_missing_directory(self, tmp_path, capsys, chain_files, cmd):
        out = tmp_path / "missing" / "out"
        code = run(*self._argv(chain_files, cmd), "--output", out)
        self._refused(capsys, code, f"{out}: no directory '{out.parent}'", out)
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def _one_video_fuse(tmp_path, chain_files):
        """`fuse` argv on the proposals of one video, which `--wavelet-csv` needs."""
        _, rows = read_jsonl(chain_files["props"])
        props = tmp_path / "one.jsonl"
        write_jsonl(props, [r for r in rows if r["video_id"] == rows[0]["video_id"]])
        return ["fuse", "--input", props, "--input", chain_files["sp"]]

    @pytest.mark.parametrize("bad", ["side", "output"])
    @pytest.mark.parametrize("cmd, flag", [("simulate", "--gt"), ("fuse", "--wavelet-csv")])
    def test_bad_path_beside_a_good_one(self, tmp_path, capsys, chain_files, cmd, flag, bad):
        argv = (self._argv(chain_files, cmd) if cmd == "simulate"
                else self._one_video_fuse(tmp_path, chain_files))
        good, side = tmp_path / "out", tmp_path / "side"
        assert run(*argv, flag, side, "--output", good) == 0  # the run itself is valid
        good.unlink()
        side.unlink()
        for path in (tmp_path / "missing" / "file", tmp_path):
            outputs = {"output": good, "side": side, bad: path}
            code = run(*argv, flag, outputs["side"], "--output", outputs["output"])
            reason = "is a directory" if path == tmp_path else "no directory '{}'".format(
                path.parent)
            self._refused(capsys, code, f"{path}: {reason}", good, side)

    @pytest.mark.parametrize("cmd, flag", [("simulate", "--gt"), ("fuse", "--wavelet-csv")])
    def test_two_outputs_name_one_file(self, tmp_path, capsys, chain_files, cmd, flag):
        argv = (self._argv(chain_files, cmd) if cmd == "simulate"
                else self._one_video_fuse(tmp_path, chain_files))
        (tmp_path / "sub").mkdir()
        out = tmp_path / "out"
        for side in (out, tmp_path / "sub" / ".." / "out"):
            code = run(*argv, flag, side, "--output", out)
            self._refused(capsys, code, f"{side}: two outputs of the run name this file", out)

    @pytest.mark.parametrize("cmd, role", [("fuse", "pseudos"), ("extract", "sp"),
                                           ("losses", "preds")], ids=["fuse", "extract", "losses"])
    def test_output_may_be_an_input(self, tmp_path, chain_files, cmd, role):
        # a refinement round rewrites a file in place: every input is read
        # before the output is opened, so the bytes are those of a fresh path
        argv = {"fuse": ["--input", "pseudos", "--input", "sp"],
                "extract": FILE_EDGE_ARGV["extract"],
                "losses": FILE_EDGE_ARGV["losses"]}[cmd]
        inplace, fresh = tmp_path / f"{role}.jsonl", tmp_path / "fresh"
        inplace.write_bytes(chain_files[role].read_bytes())
        files = {**chain_files, role: inplace}
        argv = [cmd, *(files.get(a, a) for a in argv)]
        assert run(*argv, "--output", fresh) == 0
        assert run(*argv, "--output", inplace) == 0
        assert inplace.read_bytes() == fresh.read_bytes()

    def test_whitespace_around_rows(self, tmp_path, chain_files):
        # a \r\n ending, blank lines and Unicode spaces around a row are no fault
        padded = {}
        for role in ("sp", "gt"):
            lines = chain_files[role].read_text(encoding="utf-8").splitlines()
            padded[role] = tmp_path / f"{role}.jsonl"
            padded[role].write_text("".join(f"\u2003{line}\u00a0\r\n\n \t\n" for line in lines),
                                    encoding="utf-8")
        plain, spaced = tmp_path / "plain", tmp_path / "spaced"
        assert run("extract", "--input", chain_files["sp"], "--gt", chain_files["gt"],
                   "--output", plain) == 0
        assert run("extract", "--input", padded["sp"], "--gt", padded["gt"],
                   "--output", spaced) == 0
        assert spaced.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("role", ["sp", "gt", "props", "mask", "config"])
    def test_a_byte_that_is_not_utf8(self, tmp_path, capsys, chain_files, role):
        cmd = {"sp": "extract", "gt": "extract", "props": "fuse", "mask": "targets",
               "config": "mask"}[role]
        argv = self._argv(chain_files, cmd)
        spoiled = tmp_path / f"{role}.bad"
        if role == "config":
            spoiled.write_bytes(b'{"tau": 0.5,\n "alpha": \xff0.1}\n')
            argv += ["--config", spoiled]
            message = f"{spoiled}: not UTF-8 text (invalid start byte)"
        else:
            first = chain_files[role].read_bytes().splitlines(keepends=True)[1]
            spoiled.write_bytes(first + first[:-3] + b"\xff" + first[-3:])
            argv = [spoiled if a == chain_files[role] else a for a in argv]
            message = f"{spoiled}:2: not UTF-8 text (invalid start byte)"
        out = tmp_path / "out"
        self._refused(capsys, run(*argv, "--output", out), message, out)

    @pytest.mark.parametrize("limit", ["deep", "digits"])
    @pytest.mark.parametrize("role", ["props", "sp", "config"])
    def test_a_value_past_the_decoder_limits(self, tmp_path, capsys, chain_files, role, limit):
        """RFC 8259 §9 lets a parser limit nesting depth and number range: a
        segment row (`eval`), an SP row (`extract`) or a config past either
        limit exits 2 as text that is not JSON."""
        if limit == "deep":
            fault, reason = "[" * 100_000 + "]" * 100_000, "nested too deep"
        else:  # the integer string limit: Python 3.10.7 on, 0 when switched off
            digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            if not digits:
                pytest.skip("this interpreter sets no integer string limit")
            fault, reason = "1" + "0" * digits, f"an integer of more than {digits} digits"
        cmd = {"props": "eval", "sp": "extract", "config": "mask"}[role]
        argv = self._argv(chain_files, cmd)
        spoiled = tmp_path / f"{role}.bad"
        if role == "config":
            spoiled.write_text('{"tau": 0.5,\n "alpha": %s}\n' % fault)
            argv += ["--config", spoiled]
            message = f"{spoiled}: invalid JSON ({reason})"
        else:
            header, first = chain_files[role].read_text().splitlines()[:2]
            key = "start_s" if role == "props" else "num_snippets"
            last = json.dumps({**json.loads(first), key: "@"}).replace('"@"', fault)
            spoiled.write_text(f"{header}\n{first}\n{last}\n")
            argv = [spoiled if a == chain_files[role] else a for a in argv]
            message = f"{spoiled}:3: invalid JSON ({reason})"
        out = tmp_path / "out"
        self._refused(capsys, run(*argv, "--output", out), message, out)

    @pytest.mark.parametrize("role", ["props", "config"])
    def test_every_depth_near_the_recursion_limit(self, tmp_path, capsys, role):
        """A value that decodes just below the recursion limit may still be too
        deep to show in a message; it exits 2 naming the file all the same."""
        gt = tmp_path / "gt.jsonl"
        write_jsonl(gt, [{"video_id": "v", "start_s": 0.0, "end_s": 2.0, "class_id": 1}])
        spoiled, out = tmp_path / f"{role}.bad", tmp_path / "out"
        limit = sys.getrecursionlimit()
        for depth in range(limit - 150, limit + 10):
            value = "[" * depth + "1" + "]" * depth
            if role == "config":
                spoiled.write_text('{"tau": %s}' % value)
                code = run("eval", "--config", spoiled, "--input", gt, "--gt", gt, "--output", out)
            else:
                spoiled.write_text('{"video_id": "v", "start_s": %s, "end_s": 2.0, '
                                   '"class_id": 1, "score": 0.5}\n' % value)
                code = run("eval", "--input", spoiled, "--gt", gt, "--output", out)
            err = capsys.readouterr().err
            assert code == 2 and err.startswith(f"error: {spoiled}:") and err.count("\n") == 1
            assert not out.exists()

    @pytest.mark.parametrize("config, key", [
        ('{"tau": 1.5, "tau": 0.5}', "tau"),
        ('{"tau": 0.5, "tau": 1.5}', "tau"),
        ('{"sim": {"seed": 1, "num_videos": 3, "seed": 2}}', "seed"),
        ('{"sim": {"seed": 1}, "alpha": 0.1, "sim": {"seed": 2}}', "sim"),
    ])
    def test_a_repeated_config_key(self, tmp_path, capsys, config, key):
        cfg = tmp_path / "config.json"
        cfg.write_text(config)
        out = tmp_path / "out"
        code = run("simulate", "--config", cfg, "--output", out)
        self._refused(capsys, code, f"{cfg}: repeated key '{key}'", out)

    @pytest.mark.parametrize("role", ["input", "config"])
    def test_a_missing_file(self, tmp_path, capsys, chain_files, role):
        missing = tmp_path / "nope.jsonl"
        argv = (["mask", "--config", missing, "--input", chain_files["pseudos"]] if role == "config"
                else ["mask", "--input", missing])
        out = tmp_path / "out"
        code = run(*argv, "--input", chain_files["sp"], "--output", out)
        self._refused(capsys, code, f"{missing}: No such file or directory", out)

    def test_an_input_that_is_a_directory(self, tmp_path, capsys, chain_files):
        out = tmp_path / "out"
        code = run("mask", "--input", tmp_path, "--input", chain_files["sp"], "--output", out)
        self._refused(capsys, code, f"{tmp_path}: Is a directory", out)


def test_tuple_fields_given_lists_are_tuples():
    as_lists = SimConfig(snippets_per_video=[8, 16], duration_range_s=[2.0, 4.0])
    as_tuples = SimConfig(snippets_per_video=(8, 16), duration_range_s=(2.0, 4.0))
    assert as_lists == as_tuples and hash(as_lists) == hash(as_tuples)
    assert as_lists.snippets_per_video == (8, 16)
    config = PipelineConfig(thresholds=[0.5], eval_tious=[1])
    assert config == PipelineConfig(thresholds=(0.5,), eval_tious=(1.0,))
    assert config.config_hash() == PipelineConfig.from_dict(
        {"thresholds": [0.5], "eval_tious": [1]}).config_hash()
