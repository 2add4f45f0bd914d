"""Seeded workload inputs and the command chain every workload runs.

The program receives only what this module writes: two config files whose
`sim` sections fix the corpus shape, size and seed (one for the file chain,
one for `benchmark`), and an anchor-predictions file standing in for model
outputs (no subcommand produces them). Both workloads run the same eight
subcommands; the corpus sizes decide which layer dominates. README.md in
this directory gives the reasons.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path


STRATEGIES = ("ricker", "soft", "hard", "topk", "threshold", "gauss")
NUM_LEVELS = 6  # PipelineConfig default; the targets file has this many levels
MASK_EPOCH = 25  # inside the mask decay window (warm-up 20, total 38)
# With 20 classes the simulator's class rows peak near 0.79, so the default
# tau of 0.8 would select no snippet and the attention loss would be 0.
ATTENTION_TAU = 0.5

# The corpus shape the file chain runs on; the workloads differ in corpus
# size per step, and the `strategies` sweep also in its class count.
SHAPE = {
    "class_count": 20,
    "snippets_per_video": [100, 130],
    "actions_per_video": [3, 6],
    "boundary_jitter_frac": 0.1,
    "false_positive_rate": 1.0,
    "attention_noise_std": 0.1,
}

# Per workload, the `sim` sections of the two config files (`chain` feeds the
# seven file steps, `benchmark` the strategy sweep) and the report `avg_map`
# is read from.
WORKLOADS: dict[str, dict] = {
    # many medium videos through the file chain: JSON parse/serialize and
    # per-video overhead dominate; the sweep is small
    "chain": {
        "chain": dict(SHAPE, num_videos=60),
        "benchmark": dict(SHAPE, num_videos=10),
        "avg_map_from": "eval",
    },
    # a small file chain and a large sweep: the weak branch, rerun per
    # strategy, and evaluation dominate; there is little bulk I/O
    "strategies": {
        "chain": dict(SHAPE, num_videos=12),
        "benchmark": dict(SHAPE, num_videos=120, class_count=10, actions_per_video=[2, 6]),
        "avg_map_from": "benchmark",
    },
}
# the workload on which the benchmark report must rank ricker above soft and hard
GATE8_WORKLOAD = "strategies"


@dataclass(frozen=True)
class Step:
    """One subcommand invocation: CLI arguments and the files it reads and writes."""

    cmd: str
    argv: tuple[str, ...]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]


def write_configs(work: Path, workload: str, seed: int) -> None:
    """config.json for the file chain and bench_config.json for the sweep."""
    for name, part in (("config.json", "chain"), ("bench_config.json", "benchmark")):
        config = {"tau": ATTENTION_TAU, "sim": dict(WORKLOADS[workload][part], seed=seed)}
        (work / name).write_text(json.dumps(config, sort_keys=True) + "\n")


def chain_steps(work: Path) -> list[Step]:
    """simulate -> extract -> fuse -> mask -> targets -> losses -> eval, then benchmark."""

    def path(name: str) -> str:
        return str(work / name)

    cfg, sp, gt = path("config.json"), path("sp.jsonl"), path("gt.jsonl")
    pseudo, bench = path("pseudo.jsonl"), path("benchmark.json")

    def step(cmd, output, inputs=(), reads_gt=False, extra=()):
        argv = [cmd, "--config", cfg]
        for name in inputs:
            argv += ["--input", name]
        if reads_gt:
            argv += ["--gt", gt]
        argv += [*extra, "--output", output]
        return Step(cmd, tuple(argv), (cfg, *inputs, *([gt] if reads_gt else [])), (output,))

    return [
        Step("simulate", ("simulate", "--config", cfg, "--output", sp, "--gt", gt),
             (cfg,), (sp, gt)),
        step("extract", path("proposals.jsonl"), [sp], reads_gt=True),
        step("fuse", pseudo, [path("proposals.jsonl"), sp], extra=("--strategy", "ricker")),
        step("mask", path("mask.jsonl"), [pseudo, sp], extra=("--epoch", str(MASK_EPOCH))),
        step("targets", path("targets.jsonl"), [pseudo, sp, path("mask.jsonl")]),
        step("losses", path("losses.json"),
             [path("anchor_preds.jsonl"), path("targets.jsonl"), sp], reads_gt=True),
        step("eval", path("eval.json"), [pseudo], reads_gt=True),
        Step("benchmark",
             ("benchmark", "--config", path("bench_config.json"), "--output", bench),
             (path("bench_config.json"),), (bench,)),
    ]


def crosscheck_step(work: Path) -> Step:
    """`benchmark` with ricker only on the file chain's corpus, run in set-up:
    its in-memory mAP must match the chain's `eval` report."""
    cfg, out = str(work / "config.json"), str(work / "crosscheck.json")
    return Step("crosscheck", ("benchmark", "--config", cfg, "--strategy", "ricker",
                               "--output", out), (cfg,), (out,))


def video_ids(path: Path) -> set[str]:
    """Video ids of a JSON-lines file the CLI wrote."""
    with path.open(encoding="utf-8") as fh:
        return {row["video_id"] for row in map(json.loads, fh) if "_header" not in row}


def read_grids(sp_path: Path, keep: set[str]) -> list[tuple[str, int, int]]:
    """(video_id, num_snippets, class_count) of the SP rows whose id is in `keep`."""
    out = []
    with sp_path.open(encoding="utf-8") as fh:
        for row in map(json.loads, fh):
            if row.get("video_id") in keep:
                classes = len(row["class_scores"][0]) - 1
                out.append((row["video_id"], int(row["num_snippets"]), classes))
    return out


def _prob_rows(rng: random.Random, n: int, width: int) -> list[list[float]]:
    rows = []
    for _ in range(n):
        row = [rng.random() + 0.01 for _ in range(width)]
        total = sum(row)
        rows.append([round(x / total, 5) for x in row])
    return rows


def anchor_prediction_rows(grids: list[tuple[str, int, int]], seed: int):
    """Seeded stand-in for the network heads, one row per video.

    Anchors follow the targets layout: level_sizes[l] = ceil(T / 2**l).
    `snippet_probs` is included so `losses` also computes the attention term.
    """
    rng = random.Random(seed)
    for vid, t, c in sorted(grids):
        anchors = sum(math.ceil(t / 2**level) for level in range(NUM_LEVELS))
        yield {
            "video_id": vid,
            "class_probs": _prob_rows(rng, anchors, c + 1),
            "reg_left": [round(rng.uniform(0.0, 4.0), 4) for _ in range(anchors)],
            "reg_right": [round(rng.uniform(0.0, 4.0), 4) for _ in range(anchors)],
            "snippet_probs": _prob_rows(rng, t, c + 1),
        }


def write_anchor_predictions(path: Path, grids: list[tuple[str, int, int]], seed: int) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for row in anchor_prediction_rows(grids, seed):
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")
