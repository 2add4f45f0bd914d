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
import contextlib
import dataclasses
import importlib
import json
import math
import sys
import time
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .config import TOOL_VERSION, ConfigSchemaError, MaskParams, PipelineConfig, PyramidConfig
from .core import (Interval, Segment, Segments, SnippetPredictions, TimeGrid, check_class_id,
                   runs, snippet_centers)

__all__ = ["main"]

# The names this module takes from the package's other modules, by module.
# `main` binds those of a subcommand's modules (`_Command.modules`) before it
# reads any input, so a subcommand compiles only the modules it runs, while
# its memory is small; a parser binds its own too, for callers besides `main`.
# Handlers call the names through this module's globals: bench/tracing.py
# looks them up by attribute (`__getattr__`) and replaces them with wrappers,
# which `_bind` keeps. Only the tracer reads `generate_pseudo_labels` and
# `weak_proposals` here.
_LIBRARY = {
    "evaluation": ("GroundTruthSet", "map_table"),
    "fusion": ("STRATEGIES", "fuse_ricker", "generate_pseudo_labels", "lookup_strategy"),
    "mask": ("SnippetMask", "decay_schedule", "mask_for_proposal", "union_masks"),
    "sim": ("RNG_NAME", "SimConfig", "corrupt_predictions", "gen_corpus", "proposals_by_video",
            "pseudo_labels_by_video", "run_benchmark"),
    "targets": ("ANCHOR_FIELDS", "AnchorPredictions", "AnchorTargets", "att_loss",
                "build_targets", "cls_loss", "reg_loss", "total_loss"),
    "weak_branch": ("compute_sps", "video_labels", "weak_proposals"),
}


def _bind(*modules: str) -> None:
    for module in modules:
        library = importlib.import_module(f".{module}", __package__)
        for name in _LIBRARY[module]:
            globals().setdefault(name, getattr(library, name))


def __getattr__(name: str):
    for module, names in _LIBRARY.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SchemaError(Exception):
    """Input file missing, unparsable, or shaped wrong."""


# The one float formatter of every output: 6 significant digits. A JSON value
# is the float its text parses to, written as Python's shortest repr (123456.0,
# 1234570.0, 1e-05, NaN): `_round6` goes through json, `_array_text` writes the
# same text from `%.6g` itself. The wavelet CSV keeps the raw text.
_G6 = "{:.6g}".format


def _round6(x: float) -> float:
    return float(_G6(float(x)))


def _jsonable(value):
    """Recursively convert to JSON-ready types with 6-significant-digit floats."""
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
    or float with a value non-finite, subnormal or of |x| >= _TEXT_BOUND."""
    if a.ndim == 0 or a.size == 0 or a.dtype.kind not in "iuf":
        return None
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
    return ("[" + ", ".join(cells) + "]") % tuple(values)


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


def _rows(path: str, keys: Sequence[str], convert: Callable[[str, dict, bool], object],
          unique: bool = True) -> Iterator[tuple[str, object]]:
    """(video_id, `convert(video_id, row, plain)`) per row of a JSON-lines file.
    Each line is decoded, checked (a string `video_id`, `keys`, and where
    `unique` no repeated id) and converted before the next is read, so the
    first bad row decides the exit; `plain`: the line holds no `true`/`false`.
    An error names the file: a `SchemaError` as `<path>: <message>`, a value
    fault of the types as `<path>: video <id>: <message>`."""
    p = Path(path)
    if not p.is_file():
        raise SchemaError(f"missing file: {path}")
    seen: set[str] = set()
    with p.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from None
            if not isinstance(row, dict):
                raise SchemaError(f"{path}:{lineno}: expected a JSON object")
            if "_header" in row:
                if len(row) > 1:
                    raise SchemaError(f"{path}:{lineno}: a _header row holds no other key, got "
                                      f"{sorted(row)}")
                continue
            try:
                _require(row, ("video_id", *keys))
                vid = row["video_id"]
                if type(vid) is not str:
                    raise SchemaError(f"video_id must be a string, got {vid!r}")
                if vid in seen:
                    raise SchemaError(f"duplicate video_id {vid!r}")
                if unique:
                    seen.add(vid)
                value = convert(vid, row, "true" not in line and "false" not in line)
            except SchemaError as exc:
                raise SchemaError(f"{path}: {exc}") from None
            except (ValueError, TypeError, OverflowError) as exc:  # a huge JSON integer overflows
                raise ValueError(f"{path}: video {vid}: {exc}") from None
            yield vid, value


def _require(row: dict, keys: Sequence[str]) -> None:
    missing = [k for k in keys if k not in row]
    if missing:
        raise SchemaError(f"row missing keys {missing}")


def _number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{name} must be a number, got {value!r}")
    return float(value)


def _integer(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{name} must be an integer, got {value!r}")
    return value


def _grid(row: dict, class_count) -> TimeGrid:
    return TimeGrid(
        _integer(row["num_snippets"], "num_snippets"),
        _number(row["snippet_duration_s"], "snippet_duration_s"),
        _integer(class_count, "class_count"),
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


def _row_width(rows, name: str) -> int:
    """Width of `rows`, a nonempty list of rows of equal width (values not read)."""
    if not (isinstance(rows, list) and rows and isinstance(rows[0], list)):
        raise SchemaError(f"{name} must be a nonempty list of rows")
    if any(not isinstance(r, list) or len(r) != len(rows[0]) for r in rows):
        raise SchemaError(f"{name} must be rows of equal width")
    return len(rows[0])


def _json_list(value, name: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{name} must be a list, got {value!r}")
    return value


def _entries_of(value: list, types: tuple) -> bool:
    """Every entry of `value`, and of its nested lists at any depth, is of one
    of `types` (exactly: a bool is no int)."""
    lists = [value]
    while lists:
        for x in lists.pop():
            if isinstance(x, list):
                lists.append(x)
            elif type(x) not in types:
                return False
    return True


def _float_array(value, name: str, plain: bool, rows: bool = False,
                 integers: bool = False) -> np.ndarray:
    """`value`, a JSON list of numbers (of rows of numbers where `rows`, of
    integers where `integers`; a null number is read as NaN, which the types
    refuse), as a float64 array. One numpy call converts it and must infer an
    integer (or float, unless `integers`) dtype, which strings, booleans and
    null fail; but numpy infers a number for a boolean mixed with numbers, so a
    row whose text could hold one (`plain` false) is checked entry by entry.
    The Python checks run only then, or when that call fails, to name the fault."""
    kinds, types = ("iu", (int,)) if integers else ("iuf", (int, float, type(None)))
    if isinstance(value, list):
        try:
            arr = np.asarray(value)  # ragged rows raise here (numpy >= 1.24)
        except ValueError:
            arr = None
        if plain and arr is not None and arr.dtype.kind in kinds and (arr.ndim > 1 or not rows):
            return arr.astype(np.float64, copy=False)
    if rows:
        _row_width(value, name)
    if _entries_of(_json_list(value, name), types):
        try:  # integers beyond int64 infer as object; uneven nesting still raises
            return np.asarray(value, dtype=np.float64)
        except ValueError:
            pass
    raise SchemaError(f"{name} values must be integers" if integers
                      else f"{name} must hold only numbers")


def _sp_grid(row: dict, width: int) -> TimeGrid:
    """The grid of an SP-shaped row whose `class_scores` rows are `width`
    (C+1) wide: `class_scores` and `attention` hold `num_snippets` entries
    (lengths only)."""
    grid = _grid(row, width - 1)
    if len(row["class_scores"]) != grid.num_snippets:
        raise SchemaError("class_scores shape disagrees with num_snippets")
    _require(row, ("attention",))
    if not isinstance(row["attention"], list) or len(row["attention"]) != grid.num_snippets:
        raise SchemaError("attention length disagrees with num_snippets")
    return grid


def _parse_sp_file(path: str) -> tuple[dict[str, TimeGrid], dict[str, SnippetPredictions]]:
    def convert(vid: str, row: dict, plain: bool) -> tuple[TimeGrid, SnippetPredictions]:
        cls = _float_array(row["class_scores"], "class_scores", plain, rows=True)
        grid = _sp_grid(row, cls.shape[1])
        if cls.ndim != 2:
            raise SchemaError("class_scores shape disagrees with num_snippets")
        # guard against the 6-digit file rounding drifting row sums
        sums = cls.sum(axis=1, keepdims=True)
        if np.any(sums <= 0):
            raise SchemaError("class_scores rows must have positive sums")
        attention = _float_array(row["attention"], "attention", plain)
        return grid, SnippetPredictions(attention, cls / sums)

    keys = ("num_snippets", "snippet_duration_s", "attention", "class_scores")
    rows = dict(_rows(path, keys, convert))
    return {vid: g for vid, (g, _) in rows.items()}, {vid: p for vid, (_, p) in rows.items()}


def _parse_grid_file(path: str) -> dict[str, TimeGrid]:
    """Grid metadata from an SP-shaped file or a slim grid file."""
    def convert(vid: str, row: dict, plain: bool) -> TimeGrid:
        if "class_scores" in row:
            return _sp_grid(row, _row_width(row["class_scores"], "class_scores"))
        if "class_count" in row:
            return _grid(row, row["class_count"])
        raise SchemaError("grid rows need class_scores or class_count")

    return dict(_rows(path, ("num_snippets", "snippet_duration_s"), convert))


# Written times carry 6 significant digits (at most 5e-6 relative error), and
# a video's extent is rebuilt from a written snippet duration: a segment the
# package wrote may pass its video's end by about 1e-5 of the extent.
_EXTENT_SLACK = 2e-5


def _parse_segments(path: str, with_score: bool, grids: dict[str, TimeGrid] | None = None):
    """A segment file's rows by video id, in file order: with `score`, one
    `Segments` per video; without, the `GroundTruthSet`. Rows are checked as
    read, so the first bad row decides the exit; within a row, in order: the
    endpoints by `Interval` and, for a video in `grids`, within [0, duration_s]
    up to the writer's rounding; `class_id` by `check_class_id` with the grid's
    class count; a finite score."""
    def convert(vid: str, row: dict, plain: bool):
        iv = Interval(_number(row["start_s"], "start_s"), _number(row["end_s"], "end_s"))
        grid = grids.get(vid) if grids else None
        if grid is not None and not (
            iv.start_s >= 0 and iv.end_s <= grid.duration_s * (1 + _EXTENT_SLACK)
        ):
            raise ValueError(
                f"segment [{iv.start_s}, {iv.end_s}] lies outside [0, {grid.duration_s}]"
            )
        class_id = check_class_id(_integer(row["class_id"], "class_id"),
                                  grid.class_count if grid is not None else None)
        if with_score:
            score = _number(row["score"], "score")
            if not math.isfinite(score):
                raise ValueError("proposal score must be finite")
            return Segment(iv.start_s, iv.end_s, class_id, score)
        return iv, class_id

    out: dict[str, list] = {}
    keys = ("start_s", "end_s", "class_id") + (("score",) if with_score else ())
    for vid, item in _rows(path, keys, convert, unique=False):
        out.setdefault(vid, []).append(item)
    if with_score:
        return {vid: Segments(*zip(*rows)) for vid, rows in out.items()}
    _bind("evaluation")
    return GroundTruthSet(out)


def _parse_mask_file(path: str, grids: dict[str, TimeGrid]) -> dict[str, SnippetMask]:
    """The masks of the videos in `grids`; a row's run lengths must add up to
    its video's num_snippets before they are expanded."""
    _bind("mask")

    def convert(vid: str, row: dict, plain: bool) -> SnippetMask | None:
        if not isinstance(row["bits"], list) or not all(
            isinstance(pair, list) and len(pair) == 2 for pair in row["bits"]
        ):
            raise SchemaError("bits must be [value, count] pairs")
        values = [_integer(value, "bits value") for value, _ in row["bits"]]
        counts = [_integer(count, "bits count") for _, count in row["bits"]]
        if not set(values) <= {0, 1} or min(counts, default=1) < 1:
            raise SchemaError("bits pairs need value in 0/1 and count >= 1")
        grid = grids.get(vid)
        if grid is None:  # every pseudo video has a grid, so no target needs this row
            return None
        if sum(counts) != grid.num_snippets:
            raise ValueError(f"bits cover {sum(counts)} snippets, its grid has {grid.num_snippets}")
        return SnippetMask(np.repeat(np.array(values, dtype=np.uint8), counts), grid)

    return {vid: mask for vid, mask in _rows(path, ("bits",), convert) if mask is not None}


def _parse_targets_file(path: str) -> dict[str, AnchorTargets]:
    _bind("targets")

    def convert(vid: str, row: dict, plain: bool) -> AnchorTargets:
        sizes = _json_list(row["level_sizes"], "level_sizes")
        grid = _grid(row, row["class_count"])
        level_sizes = tuple(_integer(n, "level_sizes") for n in sizes)
        ints = ("class_label", "mask_bit")
        fields = {n: _float_array(row[n], n, plain, integers=n in ints) for n in ANCHOR_FIELDS}
        return AnchorTargets(grid, level_sizes, **fields)

    keys = ("num_snippets", "snippet_duration_s", "class_count", "level_sizes", *ANCHOR_FIELDS)
    return dict(_rows(path, keys, convert))


def _parse_anchor_predictions(path: str) -> dict[str, AnchorPredictions]:
    _bind("targets")

    def convert(vid: str, row: dict, plain: bool) -> AnchorPredictions:
        probs = _float_array(row["class_probs"], "class_probs", plain, rows=True)
        snippet_probs = row.get("snippet_probs")
        if snippet_probs is not None:
            snippet_probs = _float_array(snippet_probs, "snippet_probs", plain, rows=True)
        sums = probs.sum(axis=1, keepdims=True)
        if np.any(sums <= 0):
            raise SchemaError("class_probs rows must have positive sums")
        reg = [_float_array(row[name], name, plain) for name in ("reg_left", "reg_right")]
        return AnchorPredictions(probs / sums, *reg, snippet_probs)

    return dict(_rows(path, ("class_probs", "reg_left", "reg_right"), convert))


def _segment_row(vid: str, start_s: float, end_s: float, class_id: int,
                 score: float | None = None) -> dict:
    row = {"video_id": vid, "start_s": start_s, "end_s": end_s, "class_id": class_id}
    if score is not None:
        row["score"] = score
    return row


def _segments_on_grids(args, what: str, count: int = 2):
    """Scored segments (first --input) and a grid source (second --input)
    covering all their videos, plus the remaining of `count` --input paths."""
    paths = _inputs(args, count, count, what)
    grids = _parse_grid_file(paths[1])
    segments = _parse_segments(paths[0], with_score=True, grids=grids)
    missing = sorted(set(segments) - set(grids))
    if missing:
        raise ValueError(f"{paths[1]}: no grid metadata for videos of {paths[0]}: {missing}")
    return segments, grids, paths[2:]


# ---------------------------------------------------------------- subcommands


def _cmd_extract(args, cfg: PipelineConfig) -> list[dict]:
    sp_path = _inputs(args, 1, 1, "an SP file")[0]
    grids, preds = _parse_sp_file(sp_path)
    gt = _parse_segments(_need(args.gt, "--gt"), with_score=False, grids=grids)
    missing = sorted(set(grids) - set(gt.segments))
    if missing:
        raise ValueError(f"{args.gt}: no ground-truth labels for videos of {sp_path}: {missing}")
    proposals = proposals_by_video(grids, video_labels(gt.segments, grids), preds, cfg)
    return [_segment_row(vid, *p) for vid, segments in proposals.items() for p in segments]


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
    return [_segment_row(vid, *p) for vid, segments in pseudos.items() for p in segments]


def _cmd_mask(args, cfg: PipelineConfig) -> list[dict]:
    pseudos, grids, _ = _segments_on_grids(args, "pseudo file and grid source")
    initial = MaskParams(cfg.alpha, cfg.beta)
    params = decay_schedule(args.epoch, cfg.warmup_epochs, cfg.total_epochs, initial)
    rows = []
    for vid in sorted(pseudos):
        grid = grids[vid]
        masks = [mask_for_proposal(p, params, grid) for p in pseudos[vid]]
        bits = union_masks(masks, grid).bits
        rows.append(
            {"video_id": vid, "bits": [[v, last - first + 1] for first, last, v in runs(bits)]}
        )
    return rows


def _cmd_targets(args, cfg: PipelineConfig) -> list[dict]:
    pseudos, grids, (mask_path,) = _segments_on_grids(args, "pseudos, grid source, mask file", 3)
    masks = _parse_mask_file(mask_path, grids)
    pyramid = PyramidConfig(num_levels=cfg.num_levels)
    rows = []
    for vid in sorted(pseudos):
        if vid not in masks:
            raise ValueError(f"{mask_path}: no mask bits for video {vid}")
        tgt = build_targets(pseudos[vid], masks[vid], pyramid)
        rows.append({
            "video_id": vid,
            "num_snippets": tgt.grid.num_snippets,
            "snippet_duration_s": tgt.grid.snippet_duration_s,
            "class_count": tgt.grid.class_count,
            "level_sizes": list(tgt.level_sizes),
            **{name: getattr(tgt, name) for name in ANCHOR_FIELDS},
        })
    return rows


def _cmd_losses(args, cfg: PipelineConfig) -> tuple[dict, dict | None]:
    paths = _inputs(args, 2, 3, "anchor predictions, targets, optional SP file")
    if args.gt and len(paths) < 3:
        raise SchemaError("--gt is read only with an SP file as the third --input")
    preds = _parse_anchor_predictions(paths[0])
    targets = _parse_targets_file(paths[1])
    missing = sorted(set(preds) ^ set(targets))
    if missing:
        raise ValueError(f"{paths[0]}: videos differ from those of {paths[1]}: {missing}")
    if not preds:
        raise ValueError(f"{paths[0]}: anchor predictions hold no videos")
    sps: dict[str, SnippetPredictions] = {}
    labels = {}
    if len(paths) > 2:
        grids, sps = _parse_sp_file(paths[2])
        gt = _parse_segments(_need(args.gt, "--gt"), with_score=False, grids=grids)
        labels = video_labels(gt.segments, grids)

    t0 = time.perf_counter()
    per_video = {}
    for vid in sorted(preds):
        pred, tgt = preds[vid], targets[vid]
        l_cls = cls_loss(pred, tgt, gamma=cfg.gamma_focal)
        l_reg = reg_loss(pred, tgt)
        l_att = 0.0
        if vid in sps and pred.snippet_probs is not None:
            if vid not in labels:
                raise ValueError(f"{args.gt}: no ground-truth labels for video {vid}")
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
    preds = _parse_segments(_inputs(args, 1, 1, "a predictions file")[0], with_score=True)
    gt = _parse_segments(_need(args.gt, "--gt"), with_score=False)
    t0 = time.perf_counter()
    report = map_table(preds, gt, cfg.eval_tious)
    elapsed = (time.perf_counter() - t0) * 1000.0
    return report.to_dict(), {"eval": elapsed} if args.timings else None


@contextlib.contextmanager
def _sim_faults(path: str | None):
    """A section the simulator cannot realize (actions that do not fit a
    drawn video) is the fault of the config file that holds it."""
    try:
        yield
    except ValueError as exc:
        if path is None:  # the defaults always fit
            raise
        raise ValueError(f"{path}: {exc}") from None


def _cmd_simulate(args, cfg: PipelineConfig) -> list[dict]:
    with _sim_faults(args.config):
        layout = gen_corpus(args.sim)
        predictions = corrupt_predictions(layout.ground_truth, layout.grids, args.sim)
    if args.gt:
        _write_jsonl(args.gt, cfg, [
            _segment_row(vid, iv.start_s, iv.end_s, class_id)
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
    strategies = args.strategy or list(STRATEGIES)
    for name in strategies:
        lookup_strategy(name)  # a bad --strategy is no fault of the config file
    with _sim_faults(args.config):
        result = run_benchmark(args.sim, strategies, cfg).to_dict()
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
    return _config_section(path, PipelineConfig, raw), raw_sim


def _config_section(path: str, cls, data: dict):
    """`cls.from_dict(data)`, its error prefixed with the config file's path."""
    try:
        return cls.from_dict(data)
    except ConfigSchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


class _Command(NamedTuple):
    handler: Callable[[argparse.Namespace, PipelineConfig], object]  # returns the output
    write: Callable[[str, PipelineConfig, object], None]  # writes it to --output
    help: str
    flags: dict  # flag -> add_argument keywords, besides --config and --output
    modules: tuple[str, ...]  # the `_LIBRARY` modules that the handler calls


_INPUT = {"action": "append", "help": "input file; repeat for several (roles: FORMATS.md)"}
_GT = {"help": "ground-truth segments file"}
_EPOCH = {"type": int, "default": 0, "help": "training epoch for mask-band scheduling (default 0)"}
_SEED = {"type": int, "help": "override the sim seed"}
_TIMINGS = {"action": "store_true", "help": "add wall-clock timings (breaks byte reproducibility)"}

# The one list of subcommands, their writers, the flags each one reads and the
# modules it runs.
COMMANDS = {
    "extract": _Command(_cmd_extract, _write_jsonl,
                        "SP file -> scored proposals (needs --gt for video labels)",
                        {"--input": _INPUT, "--gt": _GT}, ("evaluation", "sim", "weak_branch")),
    "fuse": _Command(_cmd_fuse, _write_jsonl, "proposals + grid source -> pseudo proposals", {
        "--input": _INPUT,
        "--strategy": {"default": "ricker", "help": "fusion strategy (default: ricker)"},
        "--wavelet-csv": {"help": "also write the fused wavelet as CSV (single video)"},
    }, ("fusion", "sim")),
    "mask": _Command(_cmd_mask, _write_jsonl, "pseudos + grid source -> uncertainty mask file",
                     {"--input": _INPUT, "--epoch": _EPOCH}, ("mask",)),
    "targets": _Command(_cmd_targets, _write_jsonl,
                        "pseudos + grid source + mask file -> anchor target file",
                        {"--input": _INPUT}, ("mask", "targets")),
    "losses": _Command(_cmd_losses, _write_report,
                       "anchor predictions + targets [+ SP file] -> loss report",
                       {"--input": _INPUT, "--gt": _GT, "--timings": _TIMINGS},
                       ("evaluation", "targets", "weak_branch")),
    "eval": _Command(_cmd_eval, _write_report, "predictions (needs --gt) -> mAP report",
                     {"--input": _INPUT, "--gt": _GT, "--timings": _TIMINGS}, ("evaluation",)),
    "simulate": _Command(_cmd_simulate, _write_jsonl,
                         "config -> synthetic SP corpus (and GT via --gt)",
                         {"--gt": {"help": "also write the ground truth here"}, "--seed": _SEED},
                         ("sim",)),
    "benchmark": _Command(_cmd_benchmark, _write_report,
                          "config -> per-strategy pseudo-label quality report", {
        "--strategy": {"action": "append", "help": "fusion strategy; repeatable (default: all)"},
        "--seed": _SEED,
        "--timings": _TIMINGS,
    }, ("fusion", "sim")),
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
    command = COMMANDS[args.command]
    _bind(*command.modules)
    try:
        cfg, raw_sim = _load_config(args.config)
        if "seed" in args:  # simulate and benchmark, the readers of the 'sim' section
            args.sim = _config_section(args.config, SimConfig, raw_sim)
            if args.seed is not None:
                args.sim = dataclasses.replace(args.sim, seed=args.seed)
        command.write(args.output, cfg, command.handler(args, cfg))
        return 0
    except (SchemaError, ConfigSchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, OverflowError) as exc:  # OverflowError: a huge JSON integer
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
