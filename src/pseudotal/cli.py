"""Command-line pipeline over JSON-lines files.

Subcommands: extract, fuse, mask, targets, losses, eval, simulate,
benchmark; `COMMANDS` lists the flags each one reads and the writer of its
`--output`. A handler parses its inputs, computes, and returns what goes to
`--output` (rows, or `(metrics, timings)` for a report); `main` writes it.
`extract` and `fuse` run the corpus stages of `sim` that `benchmark` runs.
Every output file is a pure function of its inputs and the config: floats
are written at 6 significant digits and rows are ordered by video_id. Exit
codes: 0 success, 2 missing/malformed input, 3 domain-constraint violation.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .config import TOOL_VERSION, PipelineConfig, UnknownKeysError
from .core import Interval, Proposal, SnippetPredictions, TimeGrid, runs, snippet_centers
from .evaluation import GroundTruthSet, map_table
# generate_pseudo_labels and weak_proposals are not called here (the sim stages call
# them); they stay imported because bench/tracing.py wraps them by attribute on this module
from .fusion import STRATEGIES, fuse_ricker, generate_pseudo_labels, lookup_strategy
from .mask import MaskParams, SnippetMask, decay_schedule, mask_for_proposal, union_masks
from .sim import RNG_NAME, SimConfig, corrupt_predictions, gen_corpus, run_benchmark
from .sim import proposals_by_video, pseudo_labels_by_video, video_labels
from .targets import (
    AnchorPredictions,
    AnchorTargets,
    PyramidConfig,
    att_loss,
    build_targets,
    cls_loss,
    reg_loss,
    total_loss,
)
from .weak_branch import compute_sps, weak_proposals

__all__ = ["main"]


class SchemaError(Exception):
    """Input file missing, unparsable, or shaped wrong."""


# The one float formatter of every output: 6 significant digits. JSON values
# are its text parsed back to float, so json writes them as Python's shortest
# repr (123456.0, 1234570.0, 1e-05, NaN); the wavelet CSV keeps its raw text.
_G6 = "{:.6g}".format


def _round6(x: float) -> float:
    return float(_G6(float(x)))


def _jsonable_array(a: np.ndarray):
    """An ndarray as nested lists, formatted in one flat pass over its values."""
    if a.ndim == 0:
        return _jsonable(a.item())
    if a.size == 0:
        return a.tolist()
    flat = a.ravel().tolist()
    if a.dtype.kind == "f":
        flat = list(map(float, map(_G6, flat)))
    elif a.dtype.kind not in "biu":
        flat = [_jsonable(v) for v in flat]
    for n in reversed(a.shape[1:]):
        flat = [flat[i : i + n] for i in range(0, len(flat), n)]
    return flat


def _jsonable(value):
    """Recursively convert to JSON-ready types with 6-significant-digit floats."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return _jsonable_array(value)
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return _round6(value)
    return value


def _dump(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(", ", ": "))


def _read_lines(path: str) -> list[dict]:
    p = Path(path)
    if not p.is_file():
        raise SchemaError(f"missing file: {path}")
    rows = []
    with p.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from None
            if not isinstance(obj, dict):
                raise SchemaError(f"{path}:{lineno}: expected a JSON object")
            if "_header" in obj:
                continue
            rows.append(obj)
    return rows


def _require(row: dict, keys: Sequence[str], path: str) -> None:
    missing = [k for k in keys if k not in row]
    if missing:
        raise SchemaError(f"{path}: row missing keys {missing}")


def _video_rows(path: str, keys: Sequence[str]) -> Iterator[tuple[str, dict]]:
    """(video_id, row) of a file with one row per video; a repeated
    video_id is a schema error."""
    seen: set[str] = set()
    for row in _read_lines(path):
        _require(row, ("video_id", *keys), path)
        vid = str(row["video_id"])
        if vid in seen:
            raise SchemaError(f"{path}: duplicate video_id {vid!r}")
        seen.add(vid)
        yield vid, row


def _number(value, name: str, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: {name} must be a number, got {value!r}")
    return float(value)


def _integer(value, name: str, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{path}: {name} must be an integer, got {value!r}")
    return value


def _grid(row: dict, class_count, path: str) -> TimeGrid:
    return TimeGrid(
        _integer(row["num_snippets"], "num_snippets", path),
        _number(row["snippet_duration_s"], "snippet_duration_s", path),
        _integer(class_count, "class_count", path),
    )


def _header(cfg: PipelineConfig) -> dict:
    return {"_header": {"config_hash": cfg.config_hash(), "tool_version": TOOL_VERSION}}


def _write_jsonl(path: str, cfg: PipelineConfig, rows: Iterable[dict]) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(_dump(_header(cfg)) + "\n")
        for row in rows:
            fh.write(_dump(row) + "\n")


def _write_report(path: str, cfg: PipelineConfig, output: tuple[dict, dict | None]) -> None:
    metrics, timings = output
    report = {
        "config_hash": cfg.config_hash(),
        "tool_version": TOOL_VERSION,
        "metrics": metrics,
        "timings_ms": timings,
    }
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(_dump(report) + "\n")


# ---------------------------------------------------------------- input parsing


def _sp_grid(row: dict, path: str) -> TimeGrid:
    """The grid of an SP-shaped row: C is the `class_scores` width minus 1,
    and `class_scores` and `attention` each hold `num_snippets` entries
    (lengths only; the values are not read)."""
    scores = row["class_scores"]
    if not (isinstance(scores, list) and scores and isinstance(scores[0], list)):
        raise SchemaError(f"{path}: class_scores must be a nonempty list of rows")
    grid = _grid(row, len(scores[0]) - 1, path)
    if len(scores) != grid.num_snippets:
        raise SchemaError(f"{path}: class_scores shape disagrees with num_snippets")
    _require(row, ("attention",), path)
    if not isinstance(row["attention"], list) or len(row["attention"]) != grid.num_snippets:
        raise SchemaError(f"{path}: attention length disagrees with num_snippets")
    return grid


def _parse_sp_file(path: str) -> tuple[dict[str, TimeGrid], dict[str, SnippetPredictions]]:
    grids: dict[str, TimeGrid] = {}
    preds: dict[str, SnippetPredictions] = {}
    keys = ("num_snippets", "snippet_duration_s", "attention", "class_scores")
    for vid, row in _video_rows(path, keys):
        grids[vid] = _sp_grid(row, path)
        cls = np.asarray(row["class_scores"], dtype=np.float64)
        if cls.ndim != 2:
            raise SchemaError(f"{path}: class_scores shape disagrees with num_snippets")
        # guard against the 6-digit file rounding drifting row sums
        sums = cls.sum(axis=1, keepdims=True)
        if np.any(sums <= 0):
            raise SchemaError(f"{path}: class_scores rows must have positive sums")
        preds[vid] = SnippetPredictions(np.asarray(row["attention"], dtype=np.float64), cls / sums)
    return grids, preds


def _parse_grid_file(path: str) -> dict[str, TimeGrid]:
    """Grid metadata from an SP-shaped file or a slim grid file."""
    out: dict[str, TimeGrid] = {}
    for vid, row in _video_rows(path, ("num_snippets", "snippet_duration_s")):
        if "class_scores" in row:
            out[vid] = _sp_grid(row, path)
        elif "class_count" in row:
            out[vid] = _grid(row, row["class_count"], path)
        else:
            raise SchemaError(f"{path}: grid rows need class_scores or class_count")
    return out


def _parse_segments(path: str, with_score: bool):
    """Proposal or GT rows grouped by video id, in file order."""
    out: dict[str, list] = {}
    keys = ("video_id", "start_s", "end_s", "class_id") + (("score",) if with_score else ())
    for row in _read_lines(path):
        _require(row, keys, path)
        iv = Interval(
            _number(row["start_s"], "start_s", path), _number(row["end_s"], "end_s", path)
        )
        class_id = _integer(row["class_id"], "class_id", path)
        if with_score:
            item = Proposal(iv, _number(row["score"], "score", path), class_id)
        else:
            item = (iv, class_id)
        out.setdefault(str(row["video_id"]), []).append(item)
    return out


def _parse_mask_file(path: str) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    for vid, row in _video_rows(path, ("bits",)):
        bits: list[int] = []
        for pair in row["bits"]:
            if not isinstance(pair, list) or len(pair) != 2:
                raise SchemaError(f"{path}: bits must be [value, count] pairs")
            value = _integer(pair[0], "bits value", path)
            count = _integer(pair[1], "bits count", path)
            if value not in (0, 1) or count < 1:
                raise SchemaError(f"{path}: bits pairs need value in 0/1 and count >= 1")
            bits.extend([value] * count)
        out[vid] = np.asarray(bits, dtype=np.uint8)
    return out


def _parse_targets_file(path: str) -> dict[str, AnchorTargets]:
    out: dict[str, AnchorTargets] = {}
    keys = (
        "num_snippets",
        "snippet_duration_s",
        "class_count",
        "level_sizes",
        "class_label",
        "reg_left",
        "reg_right",
        "iou_weight",
        "mask_bit",
    )
    for vid, row in _video_rows(path, keys):
        sizes = row["level_sizes"]
        if not isinstance(sizes, list):
            raise SchemaError(f"{path}: level_sizes must be a list, got {sizes!r}")
        out[vid] = AnchorTargets(
            _grid(row, row["class_count"], path),
            tuple(_integer(n, "level_sizes", path) for n in sizes),
            np.asarray(row["class_label"], dtype=np.int64),
            np.asarray(row["reg_left"], dtype=np.float64),
            np.asarray(row["reg_right"], dtype=np.float64),
            np.asarray(row["iou_weight"], dtype=np.float64),
            np.asarray(row["mask_bit"], dtype=np.uint8),
        )
    return out


def _parse_anchor_predictions(path: str) -> dict[str, AnchorPredictions]:
    out: dict[str, AnchorPredictions] = {}
    for vid, row in _video_rows(path, ("class_probs", "reg_left", "reg_right")):
        probs = np.asarray(row["class_probs"], dtype=np.float64)
        sums = probs.sum(axis=1, keepdims=True)
        if np.any(sums <= 0):
            raise SchemaError(f"{path}: class_probs rows must have positive sums")
        probs = probs / sums
        snippet = row.get("snippet_probs")
        out[vid] = AnchorPredictions(
            probs,
            np.asarray(row["reg_left"], dtype=np.float64),
            np.asarray(row["reg_right"], dtype=np.float64),
            None if snippet is None else np.asarray(snippet, dtype=np.float64),
        )
    return out


def _segment_row(vid: str, iv: Interval, class_id: int, score: float | None) -> dict:
    row = {
        "video_id": vid,
        "start_s": iv.start_s,
        "end_s": iv.end_s,
        "class_id": int(class_id),
    }
    if score is not None:
        row["score"] = score
    return row


def _scheduled_mask_params(cfg: PipelineConfig, epoch: int | None) -> MaskParams:
    if epoch is None:
        return MaskParams(cfg.alpha, cfg.beta)
    return decay_schedule(
        epoch, cfg.warmup_epochs, cfg.total_epochs, MaskParams(cfg.alpha, cfg.beta)
    )


def _segments_on_grids(args, what: str, most: int = 2):
    """Scored segments (first --input) and a grid source (second --input)
    covering all their videos, plus the remaining --input paths."""
    paths = _inputs(args, 2, most, what)
    segments = _parse_segments(paths[0], with_score=True)
    grids = _parse_grid_file(paths[1])
    missing = sorted(set(segments) - set(grids))
    if missing:
        raise ValueError(f"no grid metadata for videos: {missing}")
    return segments, grids, paths[2:]


# ---------------------------------------------------------------- subcommands


def _cmd_extract(args, cfg: PipelineConfig) -> list[dict]:
    grids, preds = _parse_sp_file(_one_input(args, "an SP file"))
    gt = _parse_segments(_need(args.gt, "--gt"), with_score=False)
    missing = sorted(set(grids) - set(gt))
    if missing:
        raise ValueError(f"no ground-truth labels for videos: {missing}")
    proposals = proposals_by_video(grids, video_labels(gt, grids), preds, cfg)
    return [_segment_row(vid, p.interval, p.class_id, p.score)
            for vid, plist in proposals.items() for p in plist]


def _cmd_fuse(args, cfg: PipelineConfig) -> list[dict]:
    lookup_strategy(args.strategy)  # an unknown name fails even with no video to fuse
    proposals, grids, _ = _segments_on_grids(args, "proposals file and grid source")
    if args.wavelet_csv and len(proposals) != 1:
        raise ValueError("wavelet CSV requires exactly one video in the input")
    pseudos = pseudo_labels_by_video(proposals, grids, args.strategy, cfg)
    if args.wavelet_csv:
        vid = next(iter(proposals))
        grid = grids[vid]
        wavelet = fuse_ricker(proposals[vid], grid)
        with Path(args.wavelet_csv).open("w", encoding="utf-8") as fh:
            fh.write(f"# config_hash={cfg.config_hash()} tool_version={TOOL_VERSION}\n")
            fh.write("t," + ",".join(f"class_{c}" for c in range(1, grid.class_count + 1)) + "\n")
            for t, row in zip(snippet_centers(grid).tolist(), wavelet.values.tolist()):
                fh.write(_G6(t) + "," + ",".join(map(_G6, row)) + "\n")
    return [_segment_row(vid, p.interval, p.class_id, p.confidence)
            for vid, plist in pseudos.items() for p in plist]


def _cmd_mask(args, cfg: PipelineConfig) -> list[dict]:
    pseudos, grids, _ = _segments_on_grids(args, "pseudo file and grid source")
    params = _scheduled_mask_params(cfg, args.epoch)
    rows = []
    for vid in sorted(pseudos):
        grid = grids[vid]
        masks = [mask_for_proposal(p.as_pseudo(), params, grid) for p in pseudos[vid]]
        bits = union_masks(masks, grid).bits
        rows.append(
            {"video_id": vid, "bits": [[v, last - first + 1] for first, last, v in runs(bits)]}
        )
    return rows


def _cmd_targets(args, cfg: PipelineConfig) -> list[dict]:
    pseudos, grids, rest = _segments_on_grids(
        args, "pseudo file, grid source, optional mask file", most=3
    )
    mask_bits = _parse_mask_file(rest[0]) if rest else None
    params = _scheduled_mask_params(cfg, args.epoch)
    pyramid = PyramidConfig(num_levels=cfg.num_levels)
    rows = []
    for vid in sorted(pseudos):
        grid = grids[vid]
        base = None
        if mask_bits is not None:
            if vid not in mask_bits:
                raise ValueError(f"no mask bits for video {vid}")
            base = SnippetMask(mask_bits[vid], grid)
        plist = [p.as_pseudo() for p in pseudos[vid]]
        tgt = build_targets(plist, params, pyramid, grid, base_mask=base)
        rows.append(
            {
                "video_id": vid,
                "num_snippets": grid.num_snippets,
                "snippet_duration_s": grid.snippet_duration_s,
                "class_count": grid.class_count,
                "level_sizes": list(tgt.level_sizes),
                "class_label": tgt.class_label,
                "reg_left": tgt.reg_left,
                "reg_right": tgt.reg_right,
                "iou_weight": tgt.iou_weight,
                "mask_bit": tgt.mask_bit,
            }
        )
    return rows


def _cmd_losses(args, cfg: PipelineConfig) -> tuple[dict, dict | None]:
    paths = _inputs(args, 2, 3, "anchor predictions, targets, optional SP file")
    if args.gt and len(paths) < 3:
        raise SchemaError("--gt is read only with an SP file as the third --input")
    preds = _parse_anchor_predictions(paths[0])
    targets = _parse_targets_file(paths[1])
    missing = sorted(set(preds) ^ set(targets))
    if missing:
        raise ValueError(f"predictions and targets disagree on videos: {missing}")
    sps: dict[str, SnippetPredictions] = {}
    labels = {}
    if len(paths) > 2:
        grids, sps = _parse_sp_file(paths[2])
        gt = _parse_segments(_need(args.gt, "--gt"), with_score=False)
        labels = video_labels(gt, grids)

    t0 = time.perf_counter()
    per_video = {}
    for vid in sorted(preds):
        pred, tgt = preds[vid], targets[vid]
        l_cls = cls_loss(pred, tgt, gamma=cfg.gamma_focal)
        l_reg = reg_loss(pred, tgt)
        l_att = 0.0
        if vid in sps and pred.snippet_probs is not None:
            if vid not in labels:
                raise ValueError(f"no ground-truth labels for video {vid}")
            z = compute_sps(sps[vid].attention, sps[vid].class_scores)
            l_att = att_loss(
                pred.snippet_probs, z, cfg.tau, labels[vid], gamma=cfg.gamma_focal
            )
        has_pos = bool(((tgt.mask_bit == 1) & (tgt.class_label > 0)).any())
        per_video[vid] = {
            "cls": l_cls,
            "reg": l_reg,
            "att": l_att,
            "total": total_loss(l_reg, l_cls, l_att, cfg.lambda_att),
            "empty_positives": not has_pos,
        }
    elapsed = (time.perf_counter() - t0) * 1000.0
    n = len(per_video)
    mean = {
        key: sum(entry[key] for entry in per_video.values()) / n
        for key in ("cls", "reg", "att", "total")
    }
    mean["empty_positives"] = sum(
        1 for entry in per_video.values() if entry["empty_positives"]
    )
    return {"per_video": per_video, "mean": mean}, {"losses": elapsed} if args.timings else None


def _cmd_eval(args, cfg: PipelineConfig) -> tuple[dict, dict | None]:
    preds = _parse_segments(_one_input(args, "a predictions file"), with_score=True)
    gt_rows = _parse_segments(_need(args.gt, "--gt"), with_score=False)
    gt = GroundTruthSet({vid: tuple(items) for vid, items in gt_rows.items()})
    t0 = time.perf_counter()
    report = map_table(preds, gt, cfg.eval_tious)
    elapsed = (time.perf_counter() - t0) * 1000.0
    return report.to_dict(), {"eval": elapsed} if args.timings else None


def _cmd_simulate(args, cfg: PipelineConfig) -> list[dict]:
    layout = gen_corpus(args.sim)
    predictions = corrupt_predictions(layout.ground_truth, layout.grids, args.sim)
    if args.gt:
        _write_jsonl(args.gt, cfg, [
            _segment_row(vid, iv, class_id, None)
            for vid in layout.video_ids()
            for iv, class_id in layout.ground_truth.segments[vid]
        ])
    return [
        {
            "video_id": vid,
            "num_snippets": layout.grids[vid].num_snippets,
            "snippet_duration_s": layout.grids[vid].snippet_duration_s,
            "attention": predictions[vid].attention,
            "class_scores": predictions[vid].class_scores,
        }
        for vid in layout.video_ids()
    ]


def _cmd_benchmark(args, cfg: PipelineConfig) -> tuple[dict, dict | None]:
    result = run_benchmark(args.sim, args.strategy or list(STRATEGIES), cfg).to_dict()
    metrics = {
        "rng": RNG_NAME,
        "sim": dataclasses.asdict(args.sim),
        "strategies": result["strategies"],
    }
    return metrics, result["timings_ms"] if args.timings else None


# ---------------------------------------------------------------- plumbing


def _need(value: str | None, flag: str) -> str:
    if not value:
        raise SchemaError(f"this subcommand requires {flag}")
    return value


def _inputs(args, least: int, most: int, what: str) -> list[str]:
    paths = args.input or []
    if not least <= len(paths) <= most:
        count = least if least == most else f"{least} to {most}"
        raise SchemaError(
            f"this subcommand takes {count} --input paths ({what}); got {len(paths)}"
        )
    return paths


def _one_input(args, what: str) -> str:
    return _inputs(args, 1, 1, what)[0]


def _load_config(path: str | None) -> tuple[PipelineConfig, dict]:
    if path is None:
        return PipelineConfig(), {}
    p = Path(path)
    if not p.is_file():
        raise SchemaError(f"missing file: {path}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc.msg})") from None
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: config must be a JSON object")
    raw_sim = raw.pop("sim", {})
    if not isinstance(raw_sim, dict):
        raise SchemaError(f"{path}: 'sim' must be a JSON object")
    try:
        return PipelineConfig.from_dict(raw), raw_sim
    except (TypeError, UnknownKeysError) as exc:
        raise SchemaError(f"{path}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


class _Command(NamedTuple):
    handler: Callable[[argparse.Namespace, PipelineConfig], object]  # returns the output
    write: Callable[[str, PipelineConfig, object], None]  # writes it to --output
    help: str
    flags: dict  # flag -> add_argument keywords, besides --config and --output


_INPUT = {"action": "append", "help": "input file; repeat for several (roles: FORMATS.md)"}
_GT = {"help": "ground-truth segments file"}
_EPOCH = {"type": int, "help": "training epoch for mask-band scheduling"}
_SEED = {"type": int, "help": "override the sim seed"}
_TIMINGS = {"action": "store_true", "help": "add wall-clock timings (breaks byte reproducibility)"}

# The one list of subcommands, their writers and the flags each one reads.
COMMANDS = {
    "extract": _Command(_cmd_extract, _write_jsonl,
                        "SP file -> scored proposals (needs --gt for video labels)",
                        {"--input": _INPUT, "--gt": _GT}),
    "fuse": _Command(_cmd_fuse, _write_jsonl, "proposals + grid source -> pseudo proposals", {
        "--input": _INPUT,
        "--strategy": {"default": "ricker", "help": f"one of {', '.join(STRATEGIES)}"},
        "--wavelet-csv": {"help": "also write the fused wavelet as CSV (single video)"},
    }),
    "mask": _Command(_cmd_mask, _write_jsonl, "pseudos + grid source -> uncertainty mask file",
                     {"--input": _INPUT, "--epoch": _EPOCH}),
    "targets": _Command(_cmd_targets, _write_jsonl,
                        "pseudos + grid source [+ mask file] -> anchor target file",
                        {"--input": _INPUT, "--epoch": _EPOCH}),
    "losses": _Command(_cmd_losses, _write_report,
                       "anchor predictions + targets [+ SP file] -> loss report",
                       {"--input": _INPUT, "--gt": _GT, "--timings": _TIMINGS}),
    "eval": _Command(_cmd_eval, _write_report, "predictions (needs --gt) -> mAP report",
                     {"--input": _INPUT, "--gt": _GT, "--timings": _TIMINGS}),
    "simulate": _Command(_cmd_simulate, _write_jsonl,
                         "config -> synthetic SP corpus (and GT via --gt)",
                         {"--gt": {"help": "also write the ground truth here"}, "--seed": _SEED}),
    "benchmark": _Command(_cmd_benchmark, _write_report,
                          "config -> per-strategy pseudo-label quality report", {
        "--strategy": {"action": "append", "help": "fusion strategy; repeatable (default: all)"},
        "--seed": _SEED,
        "--timings": _TIMINGS,
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudotal",
        description="Pseudo-label pipeline for temporal action localization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name, help=command.help, description=command.help)
        sp.add_argument("--config", help="pipeline config JSON (optional 'sim' section)")
        sp.add_argument("--output", required=True, help="output file path")
        for flag, kwargs in command.flags.items():
            sp.add_argument(flag, **kwargs)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg, raw_sim = _load_config(args.config)
        if "seed" in args:  # simulate and benchmark, the readers of the 'sim' section
            if args.seed is not None:
                raw_sim["seed"] = args.seed
            args.sim = SimConfig.from_dict(raw_sim)
        command = COMMANDS[args.command]
        command.write(args.output, cfg, command.handler(args, cfg))
        return 0
    except (SchemaError, UnknownKeysError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
