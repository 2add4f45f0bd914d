"""The large readers hold one decoded row at a time: a file's rows are
converted to arrays as they are read, so the traced peak of a parse stays
below the arrays it keeps plus a few rows' decoded lists, however many rows
the file has. `losses` and `extract` go further and keep no converted row
either: they compute each video as its rows are read."""
import json
import math
import tracemalloc

import numpy as np
import pytest

from pseudotal import cli

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
    [(_anchor_prediction_rows, lambda path: dict(cli._parse_anchor_predictions(path))),
     (_sp_rows, lambda path: {vid: preds for vid, (_, preds) in cli._parse_sp_file(path)}),
     (_targets_rows, lambda path: dict(cli._parse_targets_file(path)))],
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
    """SP, ground-truth, targets and anchor-prediction files of `count`
    videos, each with one action of class 1 (one weak-branch proposal)."""
    rng = np.random.default_rng(5)
    sizes = [math.ceil(SNIPPETS / 2**l) for l in range(6)]
    n = sum(sizes)
    inside = np.zeros(SNIPPETS, dtype=bool)
    inside[100:160] = True
    action, background = [0.9] + [0.02] * CLASSES, [0.02] * CLASSES + [0.9]
    files = {name: tmp_path / f"{name}_{count}.jsonl" for name in ("sp", "gt", "targets", "preds")}
    ids = [f"v{i:03d}" for i in range(count)]
    _write_rows(files["sp"], [
        {"video_id": vid, "num_snippets": SNIPPETS, "snippet_duration_s": 1.0,
         "attention": np.where(inside, 0.9, 0.1).tolist(),
         "class_scores": [action if a else background for a in inside.tolist()]}
        for vid in ids])
    _write_rows(files["gt"], [{"video_id": vid, "start_s": 100.0, "end_s": 160.0, "class_id": 1}
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


@pytest.mark.parametrize("cmd", ["losses", "extract"])
def test_peak_does_not_grow_with_the_corpus(tmp_path, cmd):
    """The traced peak of a run on four times the videos is less than one
    decoded SP row above the peak on the smaller corpus."""
    def argv(files):
        inputs = [files["preds"], files["targets"]] if cmd == "losses" else []
        return [cmd, *(a for path in (*inputs, files["sp"]) for a in ("--input", path)),
                "--gt", files["gt"], "--output", tmp_path / "out"]

    small, large = _corpus(tmp_path, VIDEOS), _corpus(tmp_path, 4 * VIDEOS)
    assert cli.main([str(a) for a in argv(small)]) == 0  # binds the modules untraced
    growth = _traced_peak(argv(large)) - _traced_peak(argv(small))
    row_bytes = _decoded_row_bytes(small["sp"])
    assert growth < row_bytes, (growth, row_bytes)
