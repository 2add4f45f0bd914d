"""Run a seeded CLI chain into a directory and print one sha256 per output.

Usage (from a checkout; the `pseudotal` found on PYTHONPATH is the one run):

    PYTHONPATH=src python tests/same_bytes.py OUT_DIR

OUT_DIR must not exist yet. Every line printed is `<sha256>  <file name>`,
sorted by name. Two checkouts produce the same bytes when the printed lines
of two runs are identical, so a refactor that claims "same bytes" is
checked with one `diff` of the two listings. The chain covers every
subcommand: `simulate`, then `extract`; for each fusion strategy `fuse`,
`mask --epoch`, `targets` with and without the mask file, `losses` with the
SP file and `--gt` and without both (no attention term), and `eval`; then
a default `fuse`, `mask` without `--epoch`, `fuse --wavelet-csv` on one
video, and `benchmark` run two ways.
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
    for name in STRATEGIES:
        pseudo, mask = out / f"pseudo_{name}.jsonl", out / f"mask_{name}.jsonl"
        targets = out / f"targets_{name}.jsonl"
        preds = work / f"preds_{name}.jsonl"
        _run("fuse", *conf, "--input", props, "--input", sp, "--strategy", name,
             "--output", pseudo)
        _run("mask", *conf, "--input", pseudo, "--input", sp, "--epoch", 25, "--output", mask)
        _run("targets", *conf, "--input", pseudo, "--input", sp, "--epoch", 25,
             "--output", targets)
        _run("targets", *conf, "--input", pseudo, "--input", sp, "--input", mask,
             "--output", out / f"targets_mask_{name}.jsonl")
        _write_predictions(targets, sp, preds)
        _run("losses", *conf, "--input", preds, "--input", targets, "--input", sp,
             "--gt", gt, "--output", out / f"losses_{name}.json")
        _run("losses", *conf, "--input", preds, "--input", targets,
             "--output", out / f"losses_no_sp_{name}.json")
        _run("eval", *conf, "--input", pseudo, "--gt", gt, "--output", out / f"eval_{name}.json")

    _run("fuse", *conf, "--input", props, "--input", sp, "--output", out / "pseudo_default.jsonl")
    _run("mask", *conf, "--input", out / "pseudo_default.jsonl", "--input", sp,
         "--output", out / "mask_default.jsonl")
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
