"""Run a seeded CLI chain into a directory and print one sha256 per output.

Usage (from a checkout; the `pseudotal` found on PYTHONPATH is the one run):

    PYTHONPATH=src python tests/same_bytes.py OUT_DIR

OUT_DIR must not exist yet. Every line printed is `<sha256>  <file name>`,
sorted by name. Two checkouts produce the same bytes when the printed lines
of two runs are identical, so a refactor that claims "same bytes" is
checked with one `diff` of the two listings. The chain covers every
subcommand: `simulate`, then `extract` (with the default weak-branch
settings, with `extract_on` "attention", and with settings under which
soft-NMS drops proposals); for each fusion strategy `fuse`,
`mask --epoch`, `targets` on that mask file, `losses` with the SP file and
`--gt` and without both (no attention term), and `eval`; then `losses` on
the ricker targets of every other video of the SP file, so the SP rows it
skips lie at the start, between its videos and at the end; then one
refinement round (`simulate` of a less noisy SP file with the same seed,
`extract` on it, the ricker pseudos and those proposals concatenated, then
`fuse`, `mask --epoch` and `targets`); then a default `fuse`, `mask`
without `--epoch` and `targets`, each run again with a slim grid file made
from the SP file as its grid source (the script exits nonzero unless each
writes the bytes it writes with the SP file); then `mask` of the ricker
pseudos at the warm-up's last epoch and at the last epoch of the default
schedule, and at a mid-window epoch of a schedule whose band ratios and
epochs are off their defaults; then `fuse --wavelet-csv` on
one video, and `benchmark` run two ways; then `extract`, `fuse`, `eval`
and `benchmark` under a config that sets the soft-NMS sigma, the fused
minimum duration and the `nms_drops` weak-branch fields off their
defaults, so the CLI handlers and `benchmark` each call the weak branch and
the fusion with them; then a crowded corpus (long videos, 20 classes, ten false
positives per video), where many proposals overlap, through
`simulate`, `extract`, `fuse` for each strategy, `mask --epoch` and
`targets` on the `soft` (overlapping) and `hard` pseudo labels, and
`benchmark`; last, `simulate` of a one-class corpus at a low score
temperature, whose SP rows repeat one row.
This is a script, not a collected test.
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from pseudotal import cli
from pseudotal.fusion import STRATEGIES

SIM = {
    "seed": 7, "num_videos": 30, "class_count": 6, "snippets_per_video": [60, 160],
    "attention_noise_std": 0.1, "boundary_jitter_frac": 0.1, "false_positive_rate": 1.0,
}

# long videos crowded with actions and false positives of 20 classes
CROWDED = {
    "seed": 3, "num_videos": 6, "class_count": 20, "snippets_per_video": [400, 600],
    "actions_per_video": [4, 10], "attention_noise_std": 0.1, "boundary_jitter_frac": 0.1,
    "false_positive_rate": 10.0,
}

# one class at a low temperature: every snippet's class-score row is one row
ONE_CLASS = {**SIM, "num_videos": 8, "class_count": 1, "score_temperature": 0.05}

# `extract` beyond the defaults: runs of the attention track, and a threshold
# ladder, inflation and min_score under which soft-NMS drops proposals
WEAK_VARIANTS = {
    "attention": {"extract_on": "attention"},
    "nms_drops": {"thresholds": [0.15, 0.3, 0.45, 0.6], "oic_inflation": 1.0, "min_score": 0.2},
}

# the mask-band ratios and the schedule's epochs off their defaults
SCHEDULE = {"alpha": 0.25, "beta": 0.2, "warmup_epochs": 5, "total_epochs": 17}

# the fields the weak branch and the fusion read off their defaults
# (`extract_on` has its own variant above)
OFF_DEFAULTS = {**WEAK_VARIANTS["nms_drops"], "sigma_nms": 0.3, "min_duration_snippets": 4}


def _run(*argv) -> None:
    argv = [str(a) for a in argv]
    if cli.main(argv) != 0:
        raise SystemExit(f"step failed: pseudotal {' '.join(argv)}")


def _rows(path: Path) -> list[dict]:
    return [row for row in map(json.loads, path.read_text().splitlines()) if "_header" not in row]


def _write_predictions(targets: Path, sp: Path, out: Path) -> None:
    """Seeded stand-in for the network heads: one row per targets row."""
    rng = np.random.default_rng(9)
    snippets = {row["video_id"]: row["num_snippets"] for row in _rows(sp)}
    with out.open("w", encoding="utf-8") as fh:
        for row in _rows(targets):
            n, width = len(row["class_label"]), row["class_count"] + 1
            fh.write(json.dumps({
                "video_id": row["video_id"],
                "class_probs": rng.dirichlet(np.ones(width), size=n).tolist(),
                "reg_left": rng.uniform(0, 4, size=n).tolist(),
                "reg_right": rng.uniform(0, 4, size=n).tolist(),
                "snippet_probs": rng.dirichlet(
                    np.ones(width), size=snippets[row["video_id"]]
                ).tolist(),
            }) + "\n")


def _same_from_slim_grid(work: Path, out: Path, conf: tuple, props: Path, sp: Path) -> None:
    """`fuse`, `mask` and `targets` with a slim grid file made from `sp` as
    the grid source write the bytes they write with `sp` itself."""
    grid = work / "grid.jsonl"
    grid.write_text("".join(json.dumps({
        "video_id": row["video_id"], "num_snippets": row["num_snippets"],
        "snippet_duration_s": row["snippet_duration_s"],
        "class_count": len(row["class_scores"][0]) - 1,
    }) + "\n" for row in _rows(sp)))
    pseudo, mask, targets = (work / f"{name}_slim_grid.jsonl" for name in ("pseudo", "mask",
                                                                          "targets"))
    _run("fuse", *conf, "--input", props, "--input", grid, "--output", pseudo)
    _run("mask", *conf, "--input", pseudo, "--input", grid, "--output", mask)
    _run("targets", *conf, "--input", pseudo, "--input", grid, "--input", mask,
         "--output", targets)
    for path in (pseudo, mask, targets):
        sp_sourced = out / path.name.replace("_slim_grid", "_default")
        if path.read_bytes() != sp_sourced.read_bytes():
            raise SystemExit(f"{path.name} differs from {sp_sourced.name}, its SP-sourced twin")


def run_chain(out: Path) -> list[Path]:
    """Write every output of the chain into `out`; return their paths."""
    work = out / "inputs"
    work.mkdir(parents=True)
    cfg = work / "config.json"
    cfg.write_text(json.dumps({"tau": 0.5, "sim": SIM}))
    bench_cfg = work / "bench_config.json"
    bench_cfg.write_text(json.dumps({"sim": {**SIM, "num_videos": 25}}))
    sp, gt, props = out / "sp.jsonl", out / "gt.jsonl", out / "props.jsonl"
    conf = ("--config", cfg)

    _run("simulate", *conf, "--output", sp, "--gt", gt)
    _run("extract", *conf, "--input", sp, "--gt", gt, "--output", props)
    _run("eval", *conf, "--input", props, "--gt", gt, "--output", out / "eval_props.json")
    for name, weak in WEAK_VARIANTS.items():
        weak_cfg, weak_props = work / f"config_{name}.json", out / f"props_{name}.jsonl"
        weak_cfg.write_text(json.dumps({"tau": 0.5, **weak}))
        _run("extract", "--config", weak_cfg, "--input", sp, "--gt", gt, "--output", weak_props)
        _run("eval", "--config", weak_cfg, "--input", weak_props, "--gt", gt,
             "--output", out / f"eval_props_{name}.json")
    for name in STRATEGIES:
        pseudo, mask = out / f"pseudo_{name}.jsonl", out / f"mask_{name}.jsonl"
        targets = out / f"targets_{name}.jsonl"
        preds = work / f"preds_{name}.jsonl"
        _run("fuse", *conf, "--input", props, "--input", sp, "--strategy", name,
             "--output", pseudo)
        _run("mask", *conf, "--input", pseudo, "--input", sp, "--epoch", 25, "--output", mask)
        _run("targets", *conf, "--input", pseudo, "--input", sp, "--input", mask,
             "--output", targets)
        _write_predictions(targets, sp, preds)
        _run("losses", *conf, "--input", preds, "--input", targets, "--input", sp,
             "--gt", gt, "--output", out / f"losses_{name}.json")
        _run("losses", *conf, "--input", preds, "--input", targets,
             "--output", out / f"losses_no_sp_{name}.json")
        _run("eval", *conf, "--input", pseudo, "--gt", gt, "--output", out / f"eval_{name}.json")

    # every other SP video, neither the first nor the last: `losses` passes
    # over SP rows before, between and after the videos it scores
    keep = {row["video_id"] for row in _rows(sp)[1:-1:2]}
    sparse_targets, sparse_preds = work / "targets_sparse.jsonl", work / "preds_sparse.jsonl"
    sparse_targets.write_text("".join(
        json.dumps(row) + "\n" for row in _rows(out / "targets_ricker.jsonl")
        if row["video_id"] in keep
    ))
    _write_predictions(sparse_targets, sp, sparse_preds)
    _run("losses", *conf, "--input", sparse_preds, "--input", sparse_targets, "--input", sp,
         "--gt", gt, "--output", out / "losses_sparse.json")

    # one refinement round: the ricker pseudos and the proposals of a less
    # noisy SP file of the same seed (the model's stand-in), fused together
    model_cfg, model_sp = work / "config_model.json", out / "sp_model.jsonl"
    model_cfg.write_text(json.dumps({"tau": 0.5, "sim": {**SIM, "attention_noise_std": 0.05}}))
    _run("simulate", "--config", model_cfg, "--output", model_sp)
    _run("extract", *conf, "--input", model_sp, "--gt", gt, "--output", out / "props_model.jsonl")
    combined = work / "round.jsonl"
    combined.write_bytes(b"".join(
        p.read_bytes() for p in (out / "pseudo_ricker.jsonl", out / "props_model.jsonl")
    ))
    refined, refined_mask = out / "pseudo_refined.jsonl", out / "mask_refined.jsonl"
    _run("fuse", *conf, "--input", combined, "--input", sp, "--output", refined)
    _run("mask", *conf, "--input", refined, "--input", sp, "--epoch", 25, "--output", refined_mask)
    _run("targets", *conf, "--input", refined, "--input", sp, "--input", refined_mask,
         "--output", out / "targets_refined.jsonl")

    _run("fuse", *conf, "--input", props, "--input", sp, "--output", out / "pseudo_default.jsonl")
    _run("mask", *conf, "--input", out / "pseudo_default.jsonl", "--input", sp,
         "--output", out / "mask_default.jsonl")
    _run("targets", *conf, "--input", out / "pseudo_default.jsonl", "--input", sp,
         "--input", out / "mask_default.jsonl", "--output", out / "targets_default.jsonl")
    _same_from_slim_grid(work, out, conf, props, sp)
    # the rest of the schedule: the warm-up's last epoch and the last epoch
    # (no bands) of the default one, and a mid-window epoch of `SCHEDULE`
    ricker = out / "pseudo_ricker.jsonl"
    for epoch in (20, 38):
        _run("mask", *conf, "--input", ricker, "--input", sp, "--epoch", epoch,
             "--output", out / f"mask_epoch_{epoch}.jsonl")
    schedule_cfg = work / "config_schedule.json"
    schedule_cfg.write_text(json.dumps(SCHEDULE))
    _run("mask", "--config", schedule_cfg, "--input", ricker, "--input", sp, "--epoch", 13,
         "--output", out / "mask_schedule.jsonl")
    one = work / "props_one_video.jsonl"
    rows = _rows(props)
    one.write_text("".join(
        json.dumps(row) + "\n" for row in rows if row["video_id"] == rows[0]["video_id"]
    ))
    _run("fuse", *conf, "--input", one, "--input", sp, "--output", out / "pseudo_one_video.jsonl",
         "--wavelet-csv", out / "wavelet_one_video.csv")
    _run("benchmark", "--config", bench_cfg, "--output", out / "benchmark_default.json")
    _run("benchmark", "--config", bench_cfg, "--seed", 9, "--strategy", "ricker",
         "--strategy", "hard", "--output", out / "benchmark_seed9.json")

    off_cfg = work / "config_off_defaults.json"
    off_cfg.write_text(json.dumps({**OFF_DEFAULTS, "sim": {**SIM, "num_videos": 25}}))
    off = ("--config", off_cfg)
    off_props, off_pseudo = out / "props_off_defaults.jsonl", out / "pseudo_off_defaults.jsonl"
    _run("extract", *off, "--input", sp, "--gt", gt, "--output", off_props)
    _run("fuse", *off, "--input", off_props, "--input", sp, "--output", off_pseudo)
    _run("eval", *off, "--input", off_pseudo, "--gt", gt,
         "--output", out / "eval_off_defaults.json")
    _run("benchmark", *off, "--output", out / "benchmark_off_defaults.json")

    crowded_cfg = work / "config_crowded.json"
    crowded_cfg.write_text(json.dumps({"tau": 0.5, "sim": CROWDED}))
    crowded = ("--config", crowded_cfg)
    crowded_sp, crowded_gt = out / "sp_crowded.jsonl", out / "gt_crowded.jsonl"
    crowded_props = out / "props_crowded.jsonl"
    _run("simulate", *crowded, "--output", crowded_sp, "--gt", crowded_gt)
    _run("extract", *crowded, "--input", crowded_sp, "--gt", crowded_gt,
         "--output", crowded_props)
    for name in STRATEGIES:
        _run("fuse", *crowded, "--input", crowded_props, "--input", crowded_sp,
             "--strategy", name, "--output", out / f"pseudo_crowded_{name}.jsonl")
    for name in ("soft", "hard"):
        pseudo, mask = out / f"pseudo_crowded_{name}.jsonl", out / f"mask_crowded_{name}.jsonl"
        _run("mask", *crowded, "--input", pseudo, "--input", crowded_sp, "--epoch", 25,
             "--output", mask)
        _run("targets", *crowded, "--input", pseudo, "--input", crowded_sp, "--input", mask,
             "--output", out / f"targets_crowded_{name}.jsonl")
    _run("benchmark", *crowded, "--output", out / "benchmark_crowded.json")

    one_class_cfg = work / "config_one_class.json"
    one_class_cfg.write_text(json.dumps({"sim": ONE_CLASS}))
    _run("simulate", "--config", one_class_cfg, "--output", out / "sp_one_class.jsonl")
    return sorted(p for p in out.iterdir() if p.is_file())


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: PYTHONPATH=src python tests/same_bytes.py OUT_DIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    if out.exists():
        print(f"error: {out} already exists", file=sys.stderr)
        return 2
    for path in run_chain(out):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
