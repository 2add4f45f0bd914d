"""Command-line pipeline over JSON-lines files.

Subcommands: extract, fuse, mask, targets, losses, eval, simulate,
benchmark; `COMMANDS` lists the flags each one reads. A handler parses its
inputs, computes, and returns every file it produces as `(path, lines)`:
`--output`, and `simulate --gt` or `fuse --wavelet-csv`; `main` checks
every output path, then writes them. `extract` and `fuse` call the weak
branch and a fusion strategy on each video with the arguments that
`PipelineConfig` gives them. Every output file is a pure function of its inputs
and the config: floats are written at 6 significant digits and rows are
ordered by video_id. A one-row-per-video input lists its rows in that order
too, so `losses` merge-joins its inputs and `extract` runs the weak branch
row by row, each holding one video at a time; `simulate` and `targets` build
each output row as it is written, and `benchmark` corrupts one video at a
time, so none of them holds every video's arrays either. A subcommand loads
only the modules it runs (`_Command.modules`): each of the six that read
input files `readers` and its stages' modules, `simulate` only `sim`, and
`benchmark` `sim` and the strategy sweep (`fusion`, `weak_branch` and
`evaluation`); `--help` loads none. Exit codes: 0 success, 2 missing or
malformed input or a bad output path, 3 domain-constraint violation.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import lazy_globals
from .config import (TOOL_VERSION, PipelineConfig, PyramidConfig, SchemaError, blame, shown,
                     undecodable)
from .core import runs, snippet_centers

__all__ = ["main"]


# The one float formatter of every output: 6 significant digits. A JSON value
# is the float its text parses to, written as Python's shortest repr (123456.0,
# 1234570.0, 1e-05, NaN): `_round6` goes through json, `_array_text` writes the
# same text from `%.6g` itself, formatting each distinct row of a 2-D array
# once. The wavelet CSV keeps the raw text.
_G6 = "{:.6g}".format


def _round6(x: float) -> float:
    return float(_G6(float(x)))


def _jsonable(value):
    """Recursively convert to JSON-ready types with 6-significant-digit floats."""
    kind = type(value)  # the plain scalars of a row first, by exact type
    if kind is float:
        return _round6(value)
    if kind is str or kind is int:
        return value
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):  # a 0-d array's tolist() is its scalar
        return _jsonable(value.tolist())
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return _round6(value)
    return value


# Below this bound `%.6g` writes every float positionally or, under 1e-4, with
# the exponent that repr also uses, so its text is the JSON of the rounded value
# once ".0" follows each integer-shaped cell. From 999999.5 up `%.6g` writes
# 1e+06 where repr writes 1000000.0. Under TINY (subnormals) two 6-digit texts
# can name one float, so repr may print fewer digits.
_TEXT_BOUND = 999999.5
_TINY = np.finfo(np.float64).tiny
_FLOAT_CELLS = ("%.6g", "%.6g.0")


def _array_text(a: np.ndarray) -> str | None:
    """The JSON of a numeric array from one %-format call over its values;
    None for an array the general path writes: 0-d, empty, bool, object,
    or float with a value non-finite, subnormal or of |x| >= _TEXT_BOUND.
    A 2-D array (an SP file's class scores: one row per snippet class)
    formats each distinct row, by its bytes, once."""
    if a.ndim == 0 or a.size == 0 or a.dtype.kind not in "iuf":
        return None
    if a.ndim != 2:
        text = _cells_text(a, ", ")
        return None if text is None else "[" + text + "]"
    data, width = a.tobytes(), a.shape[1] * a.itemsize
    distinct: dict[bytes, int] = {}
    order = [distinct.setdefault(data[i : i + width], len(distinct))
             for i in range(0, len(data), width)]
    rows = np.frombuffer(b"".join(distinct), dtype=a.dtype).reshape(len(distinct), -1)
    text = _cells_text(rows, "\n")
    if text is None:
        return None
    texts = text.split("\n")
    return "[" + ", ".join([texts[i] for i in order]) + "]"


def _cells_text(a: np.ndarray, sep: str) -> str | None:
    """The JSON texts of `a`'s top-level entries, joined by `sep`, from one
    %-format call; None as `_array_text` says."""
    values = a.ravel().tolist()
    if a.dtype.kind == "f":
        x = a.astype(np.float64, copy=False).ravel()
        m = np.abs(x)
        if not m.max() < _TEXT_BOUND or np.any((m > 0) & (m < _TINY)):
            return None
        r = np.rint(x)
        integer = x == r
        # a cell rounds to an integer at 6 digits only within 5e-6 relative of
        # one (from 5e4 up every cell is that near): its own text decides
        near = ~integer & (np.abs(x - r) <= 1e-5 * m)
        for i in np.flatnonzero(near).tolist():
            integer[i] = _G6(values[i]).lstrip("-").isdigit()
        cells = [_FLOAT_CELLS[b] for b in integer.tolist()]
    else:
        cells = ["%d"] * a.size
    for n in reversed(a.shape[1:]):
        cells = ["[" + ", ".join(cells[i : i + n]) + "]" for i in range(0, len(cells), n)]
    return sep.join(cells) % tuple(values)


def _value_text(value) -> str:
    text = _array_text(value) if isinstance(value, np.ndarray) else None
    return text or json.dumps(_jsonable(value), sort_keys=True, separators=(", ", ": "))


def _dump(obj) -> str:
    """One JSON line. A dict of str keys holding an ndarray is written key by
    key, so each of its arrays can take `_array_text`; any other value is one
    json.dumps of `_jsonable(obj)`."""
    if (
        isinstance(obj, dict)
        and np.ndarray in map(type, obj.values())
        and all(type(k) is str for k in obj)
    ):
        return "{" + ", ".join(
            f"{json.dumps(k)}: {_value_text(obj[k])}" for k in sorted(obj)
        ) + "}"
    return _value_text(obj)


def _jsonl(cfg: PipelineConfig, rows: Iterable[dict]) -> Iterator[str]:
    """The lines of a JSON-lines output: its `_header` row, then `rows`."""
    yield _dump({"_header": {"config_hash": cfg.config_hash(), "tool_version": TOOL_VERSION}})
    for row in rows:
        yield _dump(row)


def _report(cfg: PipelineConfig, metrics: dict, timings: dict | None) -> list[str]:
    return [_dump({"config_hash": cfg.config_hash(), "tool_version": TOOL_VERSION,
                   "metrics": metrics, "timings_ms": timings})]


_Outputs = list[tuple[str, Iterable[str]]]  # a handler's (path, lines) per file it produces


def _write(outputs: _Outputs) -> None:
    """Write every output once every path has passed: none is a directory, each
    one's directory exists, and no two name one file; a bad path writes no file.
    Lines may be made as they are written (`simulate` and `targets` build each
    row then), so a fault while a file is written removes that file."""
    seen = set()
    for path, _ in outputs:
        if os.path.isdir(path):
            raise SchemaError(f"{path}: is a directory")
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise SchemaError(f"{path}: no directory {folder!r}")
        real = os.path.realpath(path)
        if real in seen:
            raise SchemaError(f"{path}: two outputs of the run name this file")
        seen.add(real)
    for path, lines in outputs:
        with open(path, "w", encoding="utf-8") as fh:
            try:
                fh.writelines(line + "\n" for line in lines)
            except BaseException:
                os.remove(path)
                raise


def _segment_row(vid: str, start_s: float, end_s: float, class_id: int,
                 score: float | None = None) -> dict:
    row = {"video_id": vid, "start_s": start_s, "end_s": end_s, "class_id": class_id}
    if score is not None:
        row["score"] = score
    return row


# ---------------------------------------------------------------- subcommands


def _cmd_extract(args, cfg: PipelineConfig) -> _Outputs:
    sp_path = _inputs(args, 1, 1, "an SP file")[0]
    gt = parse_segments(_need(args.gt, "--gt"), with_score=False)
    proposals, missing = [], []
    for vid, (grid, preds) in parse_sp_file(sp_path):  # the weak branch runs row by row
        label = video_label(args.gt, gt, vid, grid)
        if label is None:
            missing.append(vid)
        elif not missing:
            proposals.append((vid, weak_proposals(preds, grid, label, **cfg.weak_branch())))
    if missing:
        raise ValueError(f"{args.gt}: no ground-truth labels for videos of {sp_path}: {missing}")
    rows = (_segment_row(vid, *p) for vid, segments in proposals for p in segments)
    return [(args.output, _jsonl(cfg, rows))]


def _cmd_fuse(args, cfg: PipelineConfig) -> _Outputs:
    lookup_strategy(args.strategy)  # an unknown name fails even with no video to fuse
    if args.wavelet_csv and args.strategy != "ricker":
        raise SchemaError("--wavelet-csv writes the ricker wavelet; it needs --strategy ricker")
    paths = _inputs(args, 2, 2, "proposals file and grid source")
    proposals, grids = segments_on_grids(paths)
    if args.wavelet_csv and len(proposals) != 1:
        raise ValueError("wavelet CSV requires exactly one video in the input")
    rows = []
    for vid in sorted(proposals):
        with blame(paths[0], vid):  # a strategy's fault, such as a fused sum past the float range
            pseudos = generate_pseudo_labels(args.strategy, proposals[vid], grids[vid],
                                             min_duration_s=cfg.min_duration_s(grids[vid]))
        rows += [_segment_row(vid, *p) for p in pseudos]
    outputs = [(args.output, _jsonl(cfg, rows))]
    if args.wavelet_csv:
        vid = next(iter(proposals))
        grid = grids[vid]
        wavelet = fuse_ricker(proposals[vid], grid)
        outputs.append((args.wavelet_csv, [
            f"# config_hash={cfg.config_hash()} tool_version={TOOL_VERSION}",
            "t," + ",".join(f"class_{c}" for c in range(1, grid.class_count + 1)),
            *(_G6(t) + "," + ",".join(map(_G6, row))
              for t, row in zip(snippet_centers(grid).tolist(), wavelet.values.tolist())),
        ]))
    return outputs


def _cmd_mask(args, cfg: PipelineConfig) -> _Outputs:
    if not 0 <= args.epoch <= cfg.total_epochs:  # checked before any input is read
        raise ValueError(f"--epoch {shown(args.epoch)} lies outside [0, {cfg.total_epochs}]")
    params = cfg.mask_params(args.epoch)
    pseudos, grids = segments_on_grids(_inputs(args, 2, 2, "pseudo file and grid source"))
    rows = []
    for vid in sorted(pseudos):
        bits = union_masks(pseudos[vid], params, grids[vid]).bits
        rows.append(
            {"video_id": vid, "bits": [[v, last - first + 1] for first, last, v in runs(bits)]}
        )
    return [(args.output, _jsonl(cfg, rows))]


def _cmd_targets(args, cfg: PipelineConfig) -> _Outputs:
    paths = _inputs(args, 3, 3, "pseudos, grid source, mask file")
    pseudos, grids = segments_on_grids(paths)
    masks = parse_mask_file(paths[2], grids)
    missing = sorted(set(pseudos) - set(masks))
    if missing:  # checked before the first row is built: rows are built as they are written
        raise ValueError(f"{paths[2]}: no mask bits for video {missing[0]}")
    pyramid = PyramidConfig(num_levels=cfg.num_levels)

    def rows() -> Iterator[dict]:
        for vid in sorted(pseudos):
            tgt = build_targets(pseudos[vid], masks[vid], pyramid)
            yield {
                "video_id": vid,
                "num_snippets": tgt.grid.num_snippets,
                "snippet_duration_s": tgt.grid.snippet_duration_s,
                "class_count": tgt.grid.class_count,
                "level_sizes": list(tgt.level_sizes),
                **{name: getattr(tgt, name) for name in ANCHOR_FIELDS},
            }

    return [(args.output, _jsonl(cfg, rows()))]


def _cmd_losses(args, cfg: PipelineConfig) -> _Outputs:
    paths = _inputs(args, 2, 3, "anchor predictions, targets, optional SP file")
    if args.gt and len(paths) < 3:
        raise SchemaError("--gt is read only with an SP file as the third --input")
    gt, sps = None, iter(())
    if len(paths) > 2:
        gt = parse_segments(_need(args.gt, "--gt"), with_score=False)
        sps = parse_sp_file(paths[2])
    per_video, differ, elapsed = {}, [], 0.0
    # one video of each file at a time; each SP row checks that video's --gt rows
    rows = by_video(parse_anchor_predictions(paths[0]), parse_targets_file(paths[1]), sps)
    for vid, (pred, tgt, sp) in rows:
        label = video_label(args.gt, gt, vid, sp[0]) if sp else None
        if pred is None or tgt is None:  # an SP row alone, or a video of one of the two
            if (pred is None) != (tgt is None):
                differ.append(vid)
            continue
        if sp and pred.snippet_probs is not None and label is None:
            raise ValueError(f"{args.gt}: no ground-truth labels for video {vid}")
        t0 = time.perf_counter()
        with blame(paths[0], vid):  # the predictions disagree with the targets or the SP row
            l_cls = cls_loss(pred, tgt, gamma=cfg.gamma_focal)
            l_reg = reg_loss(pred, tgt)
            l_att = 0.0
            if sp and pred.snippet_probs is not None:
                z = compute_sps(sp[1].attention, sp[1].class_scores)
                l_att = att_loss(pred.snippet_probs, z, cfg.tau, label, gamma=cfg.gamma_focal)
        l_total = total_loss(l_reg, l_cls, l_att, cfg.lambda_att)
        elapsed += (time.perf_counter() - t0) * 1000.0
        has_pos = bool(((tgt.mask_bit == 1) & (tgt.class_label > 0)).any())
        per_video[vid] = {"cls": l_cls, "reg": l_reg, "att": l_att, "total": l_total,
                          "empty_positives": not has_pos}
    if differ:
        raise ValueError(f"{paths[0]}: videos differ from those of {paths[1]}: {differ}")
    if not per_video:
        raise ValueError(f"{paths[0]}: anchor predictions hold no videos")
    mean = {key: sum(entry[key] for entry in per_video.values()) / len(per_video)
            for key in ("cls", "reg", "att", "total")}
    mean["empty_positives"] = sum(entry["empty_positives"] for entry in per_video.values())
    timings = {"losses": elapsed} if args.timings else None
    return [(args.output, _report(cfg, {"per_video": per_video, "mean": mean}, timings))]


def _cmd_eval(args, cfg: PipelineConfig) -> _Outputs:
    preds_path, gt_path = _inputs(args, 1, 1, "a predictions file")[0], _need(args.gt, "--gt")
    preds = parse_segments(preds_path, with_score=True)
    gt = parse_segments(gt_path, with_score=False)
    if not gt.videos:
        raise ValueError(f"{args.gt}: ground truth holds no segments")
    t0 = time.perf_counter()
    report = map_table(preds, gt, cfg.eval_tious)
    elapsed = (time.perf_counter() - t0) * 1000.0
    timings = {"eval": elapsed} if args.timings else None
    return [(args.output, _report(cfg, report.to_dict(), timings))]


def _cmd_simulate(args, cfg: PipelineConfig) -> _Outputs:
    with blame(args.config):  # a section the simulator cannot realize
        layout = gen_corpus(args.sim)
    gt = layout.ground_truth.videos

    def rows() -> Iterator[dict]:  # each video is corrupted as its row is written
        for v, vid in layout.indexed_ids():
            grid = layout.grids[vid]
            preds = corrupt_predictions(args.sim, v, grid, gt[vid])
            yield {"video_id": vid, "num_snippets": grid.num_snippets,
                   "snippet_duration_s": grid.snippet_duration_s,
                   "attention": preds.attention, "class_scores": preds.class_scores}

    outputs = [(args.output, _jsonl(cfg, rows()))]
    if args.gt:
        outputs.append((args.gt, _jsonl(cfg, (
            _segment_row(vid, start, end, class_id)
            for vid in layout.video_ids() for start, end, class_id, _ in gt[vid]))))
    return outputs


def _cmd_benchmark(args, cfg: PipelineConfig) -> _Outputs:
    strategies = args.strategy or list(STRATEGIES)
    for name in strategies:
        lookup_strategy(name)  # a bad --strategy is no fault of the config file
    with blame(args.config):
        result = run_benchmark(args.sim, strategies, cfg).to_dict()
    metrics = {"rng": RNG_NAME, "sim": dataclasses.asdict(args.sim),
               "strategies": result["strategies"]}
    return [(args.output, _report(cfg, metrics, result["timings_ms"] if args.timings else None))]


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


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object of the config file, which names each key once."""
    keys = [key for key, _ in pairs]
    if len(set(keys)) < len(keys):
        raise SchemaError(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r}")
    return dict(pairs)


def _load_config(path: str | None) -> tuple[PipelineConfig, dict]:
    if path is None:
        return PipelineConfig(), {}
    with open(path, "rb") as fh, blame(path):
        try:
            raw = json.loads(fh.read().decode("utf-8"), object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError) as exc:  # a repeated key: `_unique_keys` names it
            raise exc if isinstance(exc, SchemaError) else SchemaError(undecodable(exc)) from None
        if not isinstance(raw, dict):
            raise SchemaError("config must be a JSON object")
        raw_sim = raw.pop("sim", {})
        if not isinstance(raw_sim, dict):
            raise SchemaError("'sim' must be a JSON object")
        return PipelineConfig.from_dict(raw), raw_sim


class _Command(NamedTuple):
    handler: Callable[[argparse.Namespace, PipelineConfig], _Outputs]
    help: str
    flags: dict  # flag -> add_argument keywords, besides --config and --output
    modules: tuple[str, ...]  # the library modules the handler calls: `main` binds their `__all__`


_INPUT = {"action": "append", "help": "input file; repeat for several (roles: FORMATS.md)"}
_GT = {"help": "ground-truth segments file"}
_EPOCH = {"type": int, "default": 0, "help": "training epoch for mask-band scheduling (default 0)"}
_SEED = {"type": int, "help": "override the sim seed"}
_TIMINGS = {"action": "store_true", "help": "add wall-clock timings (breaks byte reproducibility)"}

# The one list of subcommands, the flags each one reads and the modules it runs.
COMMANDS = {
    "extract": _Command(_cmd_extract, "SP file -> scored proposals (needs --gt for video labels)",
                        {"--input": _INPUT, "--gt": _GT}, ("readers", "weak_branch")),
    "fuse": _Command(_cmd_fuse, "proposals + grid source -> pseudo proposals", {
        "--input": _INPUT,
        "--strategy": {"default": "ricker", "help": "fusion strategy (default: ricker)"},
        "--wavelet-csv": {"help": "also write the ricker wavelet as CSV (one video, ricker only)"},
    }, ("readers", "fusion")),
    "mask": _Command(_cmd_mask, "pseudos + grid source -> uncertainty mask file",
                     {"--input": _INPUT, "--epoch": _EPOCH}, ("readers", "mask")),
    "targets": _Command(_cmd_targets, "pseudos + grid source + mask file -> anchor target file",
                        {"--input": _INPUT}, ("readers", "mask", "targets")),
    "losses": _Command(_cmd_losses, "anchor predictions + targets [+ SP file] -> loss report",
                       {"--input": _INPUT, "--gt": _GT, "--timings": _TIMINGS},
                       ("readers", "targets", "weak_branch")),
    "eval": _Command(_cmd_eval, "predictions (needs --gt) -> mAP report",
                     {"--input": _INPUT, "--gt": _GT, "--timings": _TIMINGS},
                     ("readers", "evaluation")),
    "simulate": _Command(_cmd_simulate, "config -> synthetic SP corpus (and GT via --gt)",
                         {"--gt": {"help": "also write the ground truth here"}, "--seed": _SEED},
                         ("sim",)),
    "benchmark": _Command(_cmd_benchmark, "config -> per-strategy pseudo-label quality report", {
        "--strategy": {"action": "append", "help": "fusion strategy; repeatable (default: all)"},
        "--seed": _SEED,
        "--timings": _TIMINGS,
    }, ("fusion", "sim")),
}

# Handlers call the library through this module's globals. `main` binds the
# `__all__` of a subcommand's modules before it reads any input, so a
# subcommand compiles only the modules it runs, while its memory is small.
# bench/tracing.py looks names up on this module (`__getattr__` searches the
# modules of `COMMANDS`) and replaces them with wrappers, which `_bind` keeps.
_bind, __getattr__ = lazy_globals(globals(), tuple(dict.fromkeys(
    module for command in COMMANDS.values() for module in command.modules)))


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
    command = COMMANDS[args.command]
    _bind(*command.modules)
    try:
        cfg, raw_sim = _load_config(args.config)
        if "seed" in args:  # simulate and benchmark, the readers of the 'sim' section
            with blame(args.config):
                args.sim = SimConfig.from_dict(raw_sim)
            if args.seed is not None:
                args.sim = dataclasses.replace(args.sim, seed=args.seed)
        _write(command.handler(args, cfg))
        return 0
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a file the OS refuses: a missing input, an unwritable output
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, OverflowError) as exc:  # OverflowError: a huge JSON integer
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
