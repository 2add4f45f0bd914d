"""One valid one-video file of every input kind, the run that reads each
file, and an in-process runner: the data of the input-contract property test
(test_input_contract.py) and of the text-level mutation fuzzer
(test_text_mutations.py). Grids stay small; oversize grids are the capped
child tests of test_cli.py."""
from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

from pseudotal.cli import main
from pseudotal.config import PipelineConfig

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
EVAL = ["eval", "--input", "{proposals}", "--gt", "{gt}"]
# the other runs that read a file: eval reads predictions and ground truth
ALSO_RUNS = {"proposals": [EVAL], "gt": [EVAL]}


def run_files(files: dict, argv: list, directory: Path) -> tuple[int, str, Path, dict]:
    """Write each file, a row or the bytes of the whole file (the "sim"
    section goes into a config file given as a row), run `argv` with the
    config; the exit code, stderr, the --output path and the path of each
    file ("sim" names the config file)."""
    files = dict(files)
    sim = files.pop("sim")
    if isinstance(files["config"], dict):
        files["config"] = {**files["config"], "sim": sim}
    paths = {}
    for name, content in files.items():
        paths[name] = directory / f"{name}.json{'' if name == 'config' else 'l'}"
        if isinstance(content, dict):
            content = (json.dumps(content) + "\n").encode("utf-8")
        paths[name].write_bytes(content)
    out = directory / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([a.format(**paths) for a in argv] + [
            "--config", str(paths["config"]), "--output", str(out)])
    return code, err.getvalue(), out, {**paths, "sim": paths["config"]}
