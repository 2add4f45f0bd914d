"""Property test of the input contract: a valid one-video input file has one
field of its row (or the first entry of a list field) replaced by a value
from a fixed pool of JSON values, and the subcommand that reads the file
runs in-process. It exits 0, 2 or 3 and raises nothing; on a nonzero exit
it prints one line that names the changed file and writes no `--output`.
The config's `"sim"` section is mutated the same way and read by
`simulate`. Grids stay small here; oversize grids are the capped child
tests of test_cli.py."""
import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

from pseudotal.cli import main
from pseudotal.config import PipelineConfig

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

POOL = [None, True, "x", {}, [], [[0.5, 0.5], [1.0]], -1, 0, 1.7, math.nan, 10**30]

SIZES = [math.ceil(8 / 2**level) for level in range(6)]
N = sum(SIZES)
REST = [0] * (N - 1)
ACTION = range(2, 5)
ROWS = {
    "sp": {"video_id": "v", "num_snippets": 8, "snippet_duration_s": 1.0,
           "attention": [0.9 if t in ACTION else 0.1 for t in range(8)],
           "class_scores": [[0.9, 0.1] if t in ACTION else [0.2, 0.8] for t in range(8)]},
    "gt": {"video_id": "v", "start_s": 2.0, "end_s": 5.0, "class_id": 1},
    "proposals": {"video_id": "v", "start_s": 2.0, "end_s": 5.0, "score": 0.9, "class_id": 1},
    "grid": {"video_id": "v", "num_snippets": 8, "snippet_duration_s": 1.0, "class_count": 1},
    "mask": {"video_id": "v", "bits": [[1, 8]]},
    "targets": {"video_id": "v", "num_snippets": 8, "snippet_duration_s": 1.0,
                "class_count": 1, "level_sizes": SIZES, "class_label": [1, *REST],
                "reg_left": [0.5, *REST], "reg_right": [0.5, *REST],
                "iou_weight": [1.0, *REST], "mask_bit": [1] * N},
    "preds": {"video_id": "v", "class_probs": [[0.5, 0.5]] * N, "reg_left": [1.0] * N,
              "reg_right": [1.0] * N, "snippet_probs": [[0.5, 0.5]] * 8},
    "config": {key: list(v) if isinstance(v, tuple) else v
               for key, v in PipelineConfig().to_dict().items()},
    # the config file's "sim" section: a two-video corpus with every key set
    "sim": {"seed": 0, "num_videos": 2, "class_count": 2, "snippets_per_video": [16, 24],
            "actions_per_video": [1, 2], "duration_range_s": [2.0, 4.0],
            "snippet_duration_s": 1.0, "min_gap_snippets": 2, "attention_noise_std": 0.1,
            "boundary_jitter_frac": 0.1, "false_positive_rate": 1.0, "score_temperature": 0.2},
}

# the run that reads each file; {name} is that file's path
RUNS = {
    "sp": ["extract", "--input", "{sp}", "--gt", "{gt}"],
    "gt": ["extract", "--input", "{sp}", "--gt", "{gt}"],
    "proposals": ["fuse", "--input", "{proposals}", "--input", "{grid}"],
    "grid": ["fuse", "--input", "{proposals}", "--input", "{grid}"],
    "mask": ["targets", "--input", "{proposals}", "--input", "{grid}", "--input", "{mask}"],
    "targets": ["losses", "--input", "{preds}", "--input", "{targets}", "--input", "{sp}",
                "--gt", "{gt}"],
    "preds": ["losses", "--input", "{preds}", "--input", "{targets}", "--input", "{sp}",
              "--gt", "{gt}"],
    "sim": ["simulate"],
}
# a config key is read by the subcommand that uses it (k_ratio by none)
CONFIG_RUNS = {
    **dict.fromkeys(["k_ratio", "thresholds", "oic_inflation", "sigma_nms", "min_score",
                     "extract_on"], RUNS["sp"]),
    "min_duration_snippets": RUNS["grid"],
    **dict.fromkeys(["alpha", "beta", "warmup_epochs", "total_epochs"],
                    ["mask", "--input", "{proposals}", "--input", "{grid}"]),
    "num_levels": RUNS["mask"],
    **dict.fromkeys(["tau", "lambda_att", "gamma_focal"], RUNS["targets"]),
    "eval_tious": ["eval", "--input", "{proposals}", "--gt", "{gt}"],
}
def _run(files: dict, argv: list, directory: Path) -> tuple[int, str, Path, dict]:
    """Write each file's row (the "sim" section into the config file), run
    `argv` with the config; the exit code, stderr, the --output path and the
    path of each file ("sim" names the config file)."""
    files = dict(files)
    files["config"] = {**files["config"], "sim": files.pop("sim")}
    paths = {}
    for name, row in files.items():
        paths[name] = directory / f"{name}.json{'' if name == 'config' else 'l'}"
        paths[name].write_text(json.dumps(row) + "\n", encoding="utf-8")
    out = directory / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([a.format(**paths) for a in argv] + [
            "--config", str(paths["config"]), "--output", str(out)])
    return code, err.getvalue(), out, {**paths, "sim": paths["config"]}


def _argv(kind: str, key: str) -> list:
    return CONFIG_RUNS[key] if kind == "config" else RUNS[kind]


@pytest.mark.parametrize("kind", sorted(ROWS))
def test_valid_files_run(tmp_path, kind):
    keys = sorted(CONFIG_RUNS) if kind == "config" else [None]
    for key in keys:
        code, err, out, _ = _run(ROWS, _argv(kind, key), tmp_path)
        assert (code, err) == (0, "") and out.exists()
        out.unlink()


@st.composite
def mutations(draw):
    kind = draw(st.sampled_from(sorted(ROWS)))
    row = dict(ROWS[kind])
    key = draw(st.sampled_from(sorted(row)))
    value = draw(st.sampled_from(POOL))
    if isinstance(row[key], list) and row[key] and draw(st.booleans()):
        row[key] = [value, *row[key][1:]]
    else:
        row[key] = value
    return kind, key, row


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutations())
def test_one_changed_field(mutation):
    kind, key, row = mutation
    with tempfile.TemporaryDirectory() as directory:
        code, err, out, paths = _run({**ROWS, kind: row}, _argv(kind, key), Path(directory))
        assert code in (0, 2, 3)
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert str(paths[kind]) in err, err
            assert not out.exists()
        else:
            assert err == "" and out.exists()


@pytest.mark.parametrize("kind, argv", [
    ("proposals", RUNS["proposals"]),  # fuse
    ("proposals", CONFIG_RUNS["alpha"]),  # mask
    ("proposals", RUNS["mask"]),  # targets
    ("gt", RUNS["gt"]),  # extract
    ("gt", RUNS["targets"]),  # losses
])
def test_class_beyond_the_grid_of_another_file(tmp_path, kind, argv):
    """A class id past the grid source's (or the SP file's) class count is
    refused where its row is read, naming its own file."""
    code, err, out, paths = _run({**ROWS, kind: {**ROWS[kind], "class_id": 2}}, argv, tmp_path)
    assert code == 3 and not out.exists()
    assert err == (
        f"error: {paths[kind]}: video v: class_id 2 lies outside the 1 classes of its grid\n"
    )
