"""The large readers hold one decoded row at a time: a file's rows are
converted to arrays as they are read, so the traced peak of a parse stays
below the arrays it keeps plus a few rows' decoded lists, however many rows
the file has. `losses` and `extract` go further and keep no converted row
either: they compute each video as its rows are read. `targets` and
`simulate` build each output row as it is written, and `benchmark` corrupts
one video at a time, so none of them holds every video's arrays; `mask`
holds one pseudo label's mask at a time."""
import json
import math
import tracemalloc

import numpy as np
import pytest

from pseudotal import cli, readers

ROWS = 24  # the peak of a reader that holds every decoded row grows with this
# decoded rows a reader may hold at its peak: while a line decodes, the loops
# that read rows still hold the row before it, and the line's text is live
ROW_ALLOWANCE = 4


def _write_rows(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


def _simplex_rows(rng, count, width):
    probs = rng.dirichlet(np.ones(width), size=count)
    return np.round(probs, 6).tolist()


def _anchor_prediction_rows(rng):
    sizes = [math.ceil(160 / 2**l) for l in range(6)]
    n = sum(sizes)
    return [{"video_id": f"v{i:02d}", "class_probs": _simplex_rows(rng, n, 6),
             "reg_left": np.round(rng.uniform(0, 4, n), 6).tolist(),
             "reg_right": np.round(rng.uniform(0, 4, n), 6).tolist(),
             "snippet_probs": _simplex_rows(rng, 160, 6)} for i in range(ROWS)]


def _sp_rows(rng):
    return [{"video_id": f"v{i:02d}", "num_snippets": 400, "snippet_duration_s": 1.0,
             "attention": np.round(rng.uniform(0, 1, 400), 6).tolist(),
             "class_scores": _simplex_rows(rng, 400, 6)} for i in range(ROWS)]


def _targets_rows(rng):
    sizes = [math.ceil(400 / 2**l) for l in range(6)]
    n = sum(sizes)
    rows = []
    for i in range(ROWS):
        label = rng.integers(0, 6, n)
        pos = label > 0
        rows.append({
            "video_id": f"v{i:02d}", "num_snippets": 400, "snippet_duration_s": 1.0,
            "class_count": 5, "level_sizes": sizes, "class_label": label.tolist(),
            "reg_left": np.where(pos, np.round(rng.uniform(0.5, 4, n), 6), 0.0).tolist(),
            "reg_right": np.where(pos, np.round(rng.uniform(0.5, 4, n), 6), 0.0).tolist(),
            "iou_weight": np.where(pos, np.round(rng.uniform(0.1, 1, n), 6), 0.0).tolist(),
            "mask_bit": rng.integers(0, 2, n).tolist(),
        })
    return rows


def _decoded_row_bytes(path):
    """The traced size of the largest row's decoded JSON."""
    sizes = []
    for line in path.read_text(encoding="utf-8").splitlines():
        tracemalloc.start()
        row = json.loads(line)
        sizes.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.stop()
        del row
    return max(sizes)


def _kept_bytes(parsed):
    """Bytes of every array the parse returned."""
    return sum(
        value.nbytes
        for obj in parsed.values()
        for value in vars(obj).values()
        if isinstance(value, np.ndarray)
    )


@pytest.mark.parametrize(
    "rows, parse",
    [(_anchor_prediction_rows, lambda path: dict(readers.parse_anchor_predictions(path))),
     (_sp_rows, lambda path: {vid: preds for vid, (_, preds) in readers.parse_sp_file(path)}),
     (_targets_rows, lambda path: dict(readers.parse_targets_file(path)))],
    ids=["anchor_predictions", "sp", "targets"],
)
def test_reader_peak_is_one_row_deep(tmp_path, rows, parse):
    path = tmp_path / "rows.jsonl"
    _write_rows(path, rows(np.random.default_rng(13)))
    row_bytes = _decoded_row_bytes(path)
    tracemalloc.start()
    try:
        parsed = parse(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(parsed) == ROWS
    kept = _kept_bytes(parsed)
    assert peak < kept + ROW_ALLOWANCE * row_bytes, (peak, kept, row_bytes)


VIDEOS, SNIPPETS, CLASSES = 3, 400, 5


def _corpus(tmp_path, count):
    """SP, ground-truth, pseudo-label, mask, targets and anchor-prediction
    files of `count` videos, each with one action of class 1 (one
    weak-branch proposal, and the one pseudo label)."""
    rng = np.random.default_rng(5)
    sizes = [math.ceil(SNIPPETS / 2**l) for l in range(6)]
    n = sum(sizes)
    inside = np.zeros(SNIPPETS, dtype=bool)
    inside[100:160] = True
    action, background = [0.9] + [0.02] * CLASSES, [0.02] * CLASSES + [0.9]
    files = {name: tmp_path / f"{name}_{count}.jsonl"
             for name in ("sp", "gt", "pseudos", "mask", "targets", "preds")}
    ids = [f"v{i:03d}" for i in range(count)]
    _write_rows(files["sp"], [
        {"video_id": vid, "num_snippets": SNIPPETS, "snippet_duration_s": 1.0,
         "attention": np.where(inside, 0.9, 0.1).tolist(),
         "class_scores": [action if a else background for a in inside.tolist()]}
        for vid in ids])
    _write_rows(files["gt"], [{"video_id": vid, "start_s": 100.0, "end_s": 160.0, "class_id": 1}
                              for vid in ids])
    _write_rows(files["pseudos"], [{"video_id": vid, "start_s": 100.0, "end_s": 160.0,
                                    "class_id": 1, "score": 1.0} for vid in ids])
    _write_rows(files["mask"], [{"video_id": vid, "bits": [[1, 95], [0, 10], [1, SNIPPETS - 105]]}
                                for vid in ids])
    rows = []
    for vid in ids:
        label = rng.integers(0, CLASSES + 1, n)
        pos = label > 0
        rows.append({
            "video_id": vid, "num_snippets": SNIPPETS, "snippet_duration_s": 1.0,
            "class_count": CLASSES, "level_sizes": sizes, "class_label": label.tolist(),
            "reg_left": np.where(pos, np.round(rng.uniform(0.5, 4, n), 6), 0.0).tolist(),
            "reg_right": np.where(pos, np.round(rng.uniform(0.5, 4, n), 6), 0.0).tolist(),
            "iou_weight": np.where(pos, np.round(rng.uniform(0.1, 1, n), 6), 0.0).tolist(),
            "mask_bit": rng.integers(0, 2, n).tolist(),
        })
    _write_rows(files["targets"], rows)
    _write_rows(files["preds"], [
        {"video_id": vid, "class_probs": _simplex_rows(rng, n, CLASSES + 1),
         "reg_left": np.round(rng.uniform(0, 4, n), 6).tolist(),
         "reg_right": np.round(rng.uniform(0, 4, n), 6).tolist(),
         "snippet_probs": _simplex_rows(rng, SNIPPETS, CLASSES + 1)} for vid in ids])
    return files


def _traced_peak(argv):
    tracemalloc.start()
    try:
        assert cli.main([str(a) for a in argv]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


INPUTS = {"losses": ["preds", "targets", "sp"], "extract": ["sp"],
          "targets": ["pseudos", "sp", "mask"]}


@pytest.mark.parametrize("cmd", ["losses", "extract", "targets"])
def test_peak_does_not_grow_with_the_corpus(tmp_path, cmd):
    """The traced peak of a run on four times the videos is less than one
    decoded SP row above the peak on the smaller corpus."""
    def argv(files):
        gt = ["--gt", files["gt"]] if cmd != "targets" else []
        return [cmd, *(a for name in INPUTS[cmd] for a in ("--input", files[name])), *gt,
                "--output", tmp_path / "out"]

    small, large = _corpus(tmp_path, VIDEOS), _corpus(tmp_path, 4 * VIDEOS)
    assert cli.main([str(a) for a in argv(small)]) == 0  # binds the modules untraced
    growth = _traced_peak(argv(large)) - _traced_peak(argv(small))
    row_bytes = _decoded_row_bytes(small["sp"])
    assert growth < row_bytes, (growth, row_bytes)


@pytest.mark.parametrize("cmd", ["simulate", "benchmark"])
def test_simulated_corpus_is_held_one_video_at_a_time(tmp_path, cmd):
    """`simulate` and `benchmark` on four times the videos peak less than one
    decoded SP row of the corpus above their peak on the smaller one."""
    def config(count):
        path = tmp_path / f"config_{count}.json"
        path.write_text(json.dumps({"sim": {
            "seed": 4, "num_videos": count, "class_count": CLASSES,
            "snippets_per_video": [SNIPPETS, SNIPPETS], "attention_noise_std": 0.1,
            "boundary_jitter_frac": 0.05, "false_positive_rate": 1.0}}))
        return path

    def argv(count):
        strategy = ["--strategy", "soft"] if cmd == "benchmark" else []
        return [cmd, "--config", config(count), *strategy, "--output", tmp_path / "out"]

    sp = tmp_path / "sp.jsonl"
    assert cli.main(["simulate", "--config", str(config(VIDEOS)), "--output", str(sp)]) == 0
    assert cli.main([str(a) for a in argv(VIDEOS)]) == 0  # binds the modules untraced
    growth = _traced_peak(argv(4 * VIDEOS)) - _traced_peak(argv(VIDEOS))
    row_bytes = _decoded_row_bytes(sp)
    assert growth < row_bytes, (growth, row_bytes)


def test_mask_holds_one_pseudo_label_mask_at_a_time(tmp_path):
    """On one long video, `mask` over four times the pseudo labels peaks
    under twice its peak over the fewer: the labels' masks are united one at
    a time, not all held first."""
    snippets, count = 40000, 50
    grid = tmp_path / "grid.jsonl"
    _write_rows(grid, [{"video_id": "v", "num_snippets": snippets, "snippet_duration_s": 1.0,
                        "class_count": 1}])

    def argv(n):
        pseudos = tmp_path / f"pseudos_{n}.jsonl"
        step = snippets // n  # labels of 4 snippets, evenly spaced
        _write_rows(pseudos, [{"video_id": "v", "start_s": float(i * step),
                               "end_s": float(i * step + 4), "class_id": 1, "score": 1.0}
                              for i in range(n)])
        return ["mask", "--input", pseudos, "--input", grid, "--output", tmp_path / "out"]

    assert cli.main([str(a) for a in argv(count)]) == 0  # binds the modules untraced
    few, many = _traced_peak(argv(count)), _traced_peak(argv(4 * count))
    assert many < 2 * few, (few, many)
