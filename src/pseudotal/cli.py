"""Command-line pipeline over JSON-lines files.

Subcommands: extract, fuse, mask, targets, losses, eval, simulate,
benchmark; `COMMANDS` lists the flags each one reads. A handler parses its
inputs, computes, and returns every file it produces as `(path, lines)`:
`--output`, and `simulate --gt` or `fuse --wavelet-csv`; `main` checks
every output path, then writes them. `extract` and `fuse` run the corpus
stages of `sim` that `benchmark` runs. Every output file is a pure function
of its inputs and the config: floats are written at 6 significant digits
and rows are ordered by video_id. A one-row-per-video input lists its rows
in that order too, so `losses` merge-joins its inputs and `extract` runs
the weak branch row by row, each holding one video at a time. Every input
row is read through `_SCHEMAS`, one table of each file kind's keys and their
JSON kinds: `_rows` checks a key, present and of its kind (`_KINDS`), as the
row's converter reads it, and the converter builds the package types, which
check the values. Exit codes: 0 success, 2 missing or malformed input or a
bad output path, 3 domain-constraint violation.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import importlib
import json
import math
import os
import reprlib
import sys
import time
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
    """An input file unparsable or shaped wrong, or a bad output path."""


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


def _rows(path: str, kind: str, convert: Callable[[str, Callable[[str], object]], object],
          unique: bool = True) -> Iterator[tuple[str, object]]:
    """(video_id, `convert(video_id, get)`) per row of a JSON-lines file of
    `kind`: a key of `_SCHEMAS`, or "grid source" ("sp grid" for a row that
    holds class_scores, else "grid"). `get(key)` is the row's value as
    `_field` checks it when the converter reads it, so the converter's order
    of reads is the order of the checks. Each line is decoded, checked (a
    string `video_id`, and where `unique` an id above the row before's) and
    converted before the next is read, so the first bad row decides the
    exit. An error names the file: a `SchemaError` as `<path>: <message>`
    (`<path>:<line>: <message>` for a line that is no UTF-8 JSON object or a
    row out of `video_id` order), a value fault of the types as `<path>:
    video <id>: <message>`."""
    last = None
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line = line.decode("utf-8")
                try:  # JSON takes its own whitespace; no copy of the line is stripped
                    row = json.loads(line)
                except ValueError:
                    line = line.strip()
                    if not line:
                        continue
                    row = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise SchemaError(f"{path}:{lineno}: {_undecodable(exc)}") from None
            if not isinstance(row, dict):
                raise SchemaError(f"{path}:{lineno}: expected a JSON object")
            if "_header" in row:
                if len(row) > 1:
                    raise SchemaError(f"{path}:{lineno}: a _header row holds no other key, got "
                                      f"{sorted(row)}")
                continue
            vid = row.get("video_id")
            if unique and type(vid) is str and last is not None and vid < last:
                raise SchemaError(f"{path}:{lineno}: video_id {vid!r} follows {last!r}; rows "
                                  "must be in ascending video_id order")
            try:
                schema = _SCHEMAS[("sp grid" if "class_scores" in row else "grid")
                                  if kind == "grid source" else kind]
                if "video_id" not in row:
                    raise _missing(row, schema)
                if type(vid) is not str:
                    raise SchemaError(f"video_id must be a string, got {reprlib.repr(vid)}")
                if unique and vid == last:
                    raise SchemaError(f"duplicate video_id {vid!r}")
                plain = "true" not in line and "false" not in line  # no boolean in the text
                value = convert(vid, functools.partial(_field, row, schema, plain))
            except SchemaError as exc:
                raise SchemaError(f"{path}: {exc}") from None
            except (ValueError, TypeError, OverflowError) as exc:  # a huge JSON integer overflows
                raise ValueError(f"{path}: video {vid}: {exc}") from None
            last = vid
            del line, row  # the decoded row is freed before the caller reads on
            yield vid, value


def _undecodable(exc: ValueError | RecursionError) -> str:
    """The message of a text that `json.loads` refuses: not UTF-8, not JSON,
    nested deeper than the interpreter recurses, or holding an integer longer
    than `sys.get_int_max_str_digits()` (the ValueError left)."""
    if isinstance(exc, UnicodeDecodeError):
        return f"not UTF-8 text ({exc.reason})"
    if isinstance(exc, json.JSONDecodeError):
        return f"invalid JSON ({exc.msg})"
    if isinstance(exc, RecursionError):
        return "invalid JSON (nested too deep)"
    return f"invalid JSON (an integer of more than {sys.get_int_max_str_digits()} digits)"


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
    one's directory exists, and no two name one file; a bad path writes no file."""
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
            fh.writelines(line + "\n" for line in lines)


# ---------------------------------------------------------------- input parsing

# The keys of each input file kind's rows, besides `video_id` (a JSON string in
# every row), with the JSON kind of each value; `_KINDS` checks a kind.
# FORMATS.md gives one table per file kind, and tests/test_formats.py holds
# those tables to this one.
_GRID = {"num_snippets": "integer", "snippet_duration_s": "number"}
_SCHEMAS = {
    "sp": {**_GRID, "attention": "numbers", "class_scores": "rows"},
    # an SP-shaped row read as a grid source: only lengths are read
    "sp grid": {**_GRID, "attention": "list", "class_scores": "width"},
    "grid": {**_GRID, "class_count": "integer"},
    "proposal": {"start_s": "number", "end_s": "number", "class_id": "integer", "score": "number"},
    "ground truth": {"start_s": "number", "end_s": "number", "class_id": "integer"},
    "mask": {"bits": "runs"},
    "targets": {**_GRID, "class_count": "integer", "level_sizes": "sizes",
                "class_label": "integers", "reg_left": "numbers", "reg_right": "numbers",
                "iou_weight": "numbers", "mask_bit": "integers"},
    "anchor predictions": {"class_probs": "rows", "reg_left": "numbers", "reg_right": "numbers",
                           "snippet_probs": "rows"},
}
# Rules beyond a value's kind, in every file kind that has the key: the list
# under a `_PER_SNIPPET` key holds num_snippets entries (a fault names its
# length or shape), and an `_OPTIONAL` key may be absent or null.
_PER_SNIPPET = {"attention": "length", "class_scores": "shape"}
_OPTIONAL = ("snippet_probs",)


def _field(row: dict, schema: dict, plain: bool, key: str):
    """`row[key]`, present and of its JSON kind in `schema` and, for a
    `_PER_SNIPPET` key, of its length; None for a key that `schema` lacks and
    for an `_OPTIONAL` key absent or null. `plain`: the row's text holds no
    `true`/`false`."""
    if key not in schema or key in _OPTIONAL and row.get(key) is None:
        return None
    if key not in row:
        raise _missing(row, schema)
    value = _KINDS[schema[key]](row[key], key, plain)
    if key in _PER_SNIPPET and len(row[key]) != _field(row, schema, plain, "num_snippets"):
        raise SchemaError(f"{key} {_PER_SNIPPET[key]} disagrees with num_snippets")
    return value


def _missing(row: dict, schema: dict) -> SchemaError:
    keys = [k for k in ("video_id", *schema) if k not in row and k not in _OPTIONAL]
    return SchemaError(f"row missing keys {keys}")


def _integer(value, key: str, plain: bool = True) -> int:
    if type(value) is not int:
        raise SchemaError(f"{key} must be an integer, got {reprlib.repr(value)}")
    return value


def _number(value, key: str, plain: bool = True) -> float:
    if type(value) is not float and type(value) is not int:
        raise SchemaError(f"{key} must be a number, got {reprlib.repr(value)}")
    return float(value)


def _list(value, key: str, plain: bool = True) -> list:
    if type(value) is not list:
        raise SchemaError(f"{key} must be a list, got {reprlib.repr(value)}")
    return value


def _sizes(value, key: str, plain: bool = True) -> tuple[int, ...]:
    return tuple(_integer(n, key) for n in _list(value, key))


def _runs(value, key: str, plain: bool = True) -> tuple[list[int], list[int]]:
    """[value, count] pairs, each value 0 or 1 and each count >= 1, as
    (values, counts)."""
    if type(value) is not list or any(type(p) is not list or len(p) != 2 for p in value):
        raise SchemaError(f"{key} must be [value, count] pairs")
    values = [_integer(v, f"{key} value") for v, _ in value]
    counts = [_integer(c, f"{key} count") for _, c in value]
    if not set(values) <= {0, 1} or min(counts, default=1) < 1:
        raise SchemaError(f"{key} pairs need value in 0/1 and count >= 1")
    return values, counts


def _row_width(rows, name: str) -> int:
    """Width of `rows`, a nonempty list of rows of equal width whose first
    entries are no lists (the other values are not read)."""
    if not (isinstance(rows, list) and rows and isinstance(rows[0], list)):
        raise SchemaError(f"{name} must be a nonempty list of rows")
    width = len(rows[0])
    if any(not isinstance(r, list) or len(r) != width for r in rows):
        raise SchemaError(f"{name} must be rows of equal width")
    if width and any(isinstance(r[0], list) for r in rows):
        raise SchemaError(f"{name} must be rows of numbers, not of lists")
    return width


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
        if plain and arr is not None and arr.dtype.kind in kinds and (arr.ndim == 2 or not rows):
            return arr.astype(np.float64, copy=False)
    if rows:
        _row_width(value, name)
    if _entries_of(_list(value, name), types):
        try:  # integers beyond int64 infer as object; uneven nesting still raises
            return np.asarray(value, dtype=np.float64)
        except ValueError:
            pass
    raise SchemaError(f"{name} values must be integers" if integers
                      else f"{name} must hold only numbers")


# One checker per JSON kind: (value, key, plain) -> the value a converter
# takes; a value of another kind is a SchemaError naming the key.
_KINDS = {
    "integer": _integer, "number": _number, "list": _list, "sizes": _sizes, "runs": _runs,
    "numbers": _float_array,
    "integers": lambda value, key, plain: _float_array(value, key, plain, integers=True),
    "rows": lambda value, key, plain: _float_array(value, key, plain, rows=True),
    "width": lambda value, key, plain: _row_width(value, key),
}


def _normalized(rows: np.ndarray, key: str) -> np.ndarray:
    """Probability rows divided by their sums, which the 6-digit rounding of a
    written file drifts from 1. A sum that overflows, or an infinite entry,
    leaves a row the type refuses (exit 3), and numpy prints no warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        sums = rows.sum(axis=1, keepdims=True)
        if np.any(sums <= 0):
            raise SchemaError(f"{key} rows must have positive sums")
        return rows / sums


def _parse_sp_file(path: str) -> Iterator[tuple[str, tuple[TimeGrid, SnippetPredictions]]]:
    """(video_id, (grid, predictions)) per SP row, each row read when asked for."""
    def convert(vid: str, get) -> tuple[TimeGrid, SnippetPredictions]:
        cls = get("class_scores")
        grid = TimeGrid(get("num_snippets"), get("snippet_duration_s"), cls.shape[1] - 1)
        return grid, SnippetPredictions(get("attention"), _normalized(cls, "class_scores"))

    return _rows(path, "sp", convert)


def _parse_grid_file(path: str) -> dict[str, TimeGrid]:
    """Grid metadata from an SP-shaped file or a slim grid file."""
    def convert(vid: str, get) -> TimeGrid:
        width = get("class_scores")  # None in a slim grid row
        grid = TimeGrid(get("num_snippets"), get("snippet_duration_s"),
                        get("class_count") if width is None else width - 1)
        get("attention")  # an SP-shaped row's attention, by its length
        return grid

    return dict(_rows(path, "grid source", convert))


# Written times carry 6 significant digits (at most 5e-6 relative error), and
# a video's extent is rebuilt from a written snippet duration: a segment the
# package wrote may pass its video's end by about 1e-5 of the extent.
_EXTENT_SLACK = 2e-5


def _check_extent(iv: Interval, grid: TimeGrid) -> None:
    if not (iv.start_s >= 0 and iv.end_s <= grid.duration_s * (1 + _EXTENT_SLACK)):
        raise ValueError(f"segment [{iv.start_s}, {iv.end_s}] lies outside [0, {grid.duration_s}]")


def _parse_segments(path: str, with_score: bool, grids: dict[str, TimeGrid] | None = None):
    """A segment file's rows by video id, in file order: with `score`, one
    `Segments` per video; without, the `GroundTruthSet`. Rows are checked as
    read, so the first bad row decides the exit; within a row, in order: the
    endpoints by `Interval` and, for a video in `grids`, within [0, duration_s]
    up to the writer's rounding; `class_id` by `check_class_id` with the grid's
    class count; a finite score."""
    def convert(vid: str, get):
        iv = Interval(get("start_s"), get("end_s"))
        grid = grids.get(vid) if grids else None
        if grid is not None:
            _check_extent(iv, grid)
        class_id = check_class_id(get("class_id"), grid.class_count if grid is not None else None)
        if not with_score:
            return iv, class_id
        score = get("score")
        if not math.isfinite(score):
            raise ValueError("proposal score must be finite")
        return Segment(iv.start_s, iv.end_s, class_id, score)

    out: dict[str, list] = {}
    kind = "proposal" if with_score else "ground truth"
    for vid, item in _rows(path, kind, convert, unique=False):
        out.setdefault(vid, []).append(item)
    if with_score:
        return {vid: Segments(*zip(*rows)) for vid, rows in out.items()}
    _bind("evaluation")
    return GroundTruthSet(out)


def _video_label(gt_path: str, gt: GroundTruthSet, vid: str, grid: TimeGrid):
    """The `VideoLabel` of `vid` from its `--gt` rows, or None if it has none.
    Each row is first held to `grid`, the video's SP row, by the extent and
    class rule `_parse_segments` applies with grids, with the same message."""
    items = gt.segments.get(vid)
    if items is None:
        return None
    try:
        for iv, class_id in items:
            _check_extent(iv, grid)
            check_class_id(class_id, grid.class_count)
    except ValueError as exc:
        raise ValueError(f"{gt_path}: video {vid}: {exc}") from None
    return video_labels({vid: items}, {vid: grid})[vid]


def _by_video(*readers: Iterator[tuple[str, object]]) -> Iterator[tuple[str, list]]:
    """Merge-join one-row-per-video readers, each in ascending video_id order:
    per video id, ascending, the list of each reader's value or None. A
    reader's next row is read only once the caller has taken the current
    video, so a join holds one video of each file at a time."""
    heads = [next(reader, None) for reader in readers]
    while any(heads):
        vid = min(head[0] for head in heads if head)
        here = [head is not None and head[0] == vid for head in heads]
        yield vid, [head[1] if at else None for head, at in zip(heads, here)]
        for i, at in enumerate(here):
            if at:
                heads[i] = next(readers[i], None)


def _parse_mask_file(path: str, grids: dict[str, TimeGrid]) -> dict[str, SnippetMask]:
    """The masks of the videos in `grids`; a row's run lengths must add up to
    its video's num_snippets before they are expanded."""
    _bind("mask")

    def convert(vid: str, get) -> SnippetMask | None:
        values, counts = get("bits")
        grid = grids.get(vid)
        if grid is None:  # every pseudo video has a grid, so no target needs this row
            return None
        if sum(counts) != grid.num_snippets:
            raise ValueError(f"bits cover {sum(counts)} snippets, its grid has {grid.num_snippets}")
        return SnippetMask(np.repeat(np.array(values, dtype=np.uint8), counts), grid)

    return {vid: mask for vid, mask in _rows(path, "mask", convert) if mask is not None}


def _parse_targets_file(path: str) -> Iterator[tuple[str, AnchorTargets]]:
    """(video_id, targets) per row, each row read when asked for."""
    _bind("targets")
    return _rows(path, "targets", lambda vid, get: AnchorTargets(
        TimeGrid(get("num_snippets"), get("snippet_duration_s"), get("class_count")),
        get("level_sizes"), **{name: get(name) for name in ANCHOR_FIELDS}))


def _parse_anchor_predictions(path: str) -> Iterator[tuple[str, AnchorPredictions]]:
    """(video_id, predictions) per row, each row read when asked for."""
    _bind("targets")

    def convert(vid: str, get) -> AnchorPredictions:
        probs, snippet_probs = get("class_probs"), get("snippet_probs")
        return AnchorPredictions(_normalized(probs, "class_probs"), get("reg_left"),
                                 get("reg_right"), snippet_probs)

    return _rows(path, "anchor predictions", convert)


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


def _cmd_extract(args, cfg: PipelineConfig) -> _Outputs:
    sp_path = _inputs(args, 1, 1, "an SP file")[0]
    gt = _parse_segments(_need(args.gt, "--gt"), with_score=False)
    proposals, missing = [], []
    for vid, (grid, preds) in _parse_sp_file(sp_path):  # the weak branch runs row by row
        label = _video_label(args.gt, gt, vid, grid)
        if label is None:
            missing.append(vid)
        elif not missing:
            proposals.append((vid, proposals_by_video({vid: grid}, {vid: label},
                                                      {vid: preds}, cfg)[vid]))
    if missing:
        raise ValueError(f"{args.gt}: no ground-truth labels for videos of {sp_path}: {missing}")
    rows = (_segment_row(vid, *p) for vid, segments in proposals for p in segments)
    return [(args.output, _jsonl(cfg, rows))]


def _cmd_fuse(args, cfg: PipelineConfig) -> _Outputs:
    lookup_strategy(args.strategy)  # an unknown name fails even with no video to fuse
    proposals, grids, _ = _segments_on_grids(args, "proposals file and grid source")
    if args.wavelet_csv and len(proposals) != 1:
        raise ValueError("wavelet CSV requires exactly one video in the input")
    pseudos = pseudo_labels_by_video(proposals, grids, args.strategy, cfg)
    rows = [_segment_row(vid, *p) for vid, segments in pseudos.items() for p in segments]
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
    return [(args.output, _jsonl(cfg, rows))]


def _cmd_targets(args, cfg: PipelineConfig) -> _Outputs:
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
    return [(args.output, _jsonl(cfg, rows))]


def _cmd_losses(args, cfg: PipelineConfig) -> _Outputs:
    paths = _inputs(args, 2, 3, "anchor predictions, targets, optional SP file")
    if args.gt and len(paths) < 3:
        raise SchemaError("--gt is read only with an SP file as the third --input")
    gt, sps = None, iter(())
    if len(paths) > 2:
        gt = _parse_segments(_need(args.gt, "--gt"), with_score=False)
        sps = _parse_sp_file(paths[2])
    per_video, differ, elapsed = {}, [], 0.0
    # one video of each file at a time; each SP row checks that video's --gt rows
    rows = _by_video(_parse_anchor_predictions(paths[0]), _parse_targets_file(paths[1]), sps)
    for vid, (pred, tgt, sp) in rows:
        label = _video_label(args.gt, gt, vid, sp[0]) if sp else None
        if pred is None or tgt is None:  # an SP row alone, or a video of one of the two
            if (pred is None) != (tgt is None):
                differ.append(vid)
            continue
        t0 = time.perf_counter()
        l_cls = cls_loss(pred, tgt, gamma=cfg.gamma_focal)
        l_reg = reg_loss(pred, tgt)
        l_att = 0.0
        if sp and pred.snippet_probs is not None:
            if label is None:
                raise ValueError(f"{args.gt}: no ground-truth labels for video {vid}")
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
    preds = _parse_segments(_inputs(args, 1, 1, "a predictions file")[0], with_score=True)
    gt = _parse_segments(_need(args.gt, "--gt"), with_score=False)
    t0 = time.perf_counter()
    report = map_table(preds, gt, cfg.eval_tious)
    elapsed = (time.perf_counter() - t0) * 1000.0
    timings = {"eval": elapsed} if args.timings else None
    return [(args.output, _report(cfg, report.to_dict(), timings))]


def _cmd_simulate(args, cfg: PipelineConfig) -> _Outputs:
    with _config_faults(args.config):  # a section the simulator cannot realize
        layout = gen_corpus(args.sim)
        predictions = corrupt_predictions(layout.ground_truth, layout.grids, args.sim)
    rows = [{"video_id": vid, "num_snippets": layout.grids[vid].num_snippets,
             "snippet_duration_s": layout.grids[vid].snippet_duration_s,
             "attention": predictions[vid].attention,
             "class_scores": predictions[vid].class_scores} for vid in layout.video_ids()]
    outputs = [(args.output, _jsonl(cfg, rows))]
    if args.gt:
        outputs.append((args.gt, _jsonl(cfg, [
            _segment_row(vid, iv.start_s, iv.end_s, class_id)
            for vid in layout.video_ids()
            for iv, class_id in layout.ground_truth.segments[vid]
        ])))
    return outputs


def _cmd_benchmark(args, cfg: PipelineConfig) -> _Outputs:
    strategies = args.strategy or list(STRATEGIES)
    for name in strategies:
        lookup_strategy(name)  # a bad --strategy is no fault of the config file
    with _config_faults(args.config):
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


@contextlib.contextmanager
def _config_faults(path: str | None):
    """Blame the config file at `path`, if any, for a fault of the block: prefix
    `<path>: `; a `ConfigSchemaError` becomes a `SchemaError`."""
    try:
        yield
    except (SchemaError, ValueError) as exc:
        if path is None:
            raise
        schema = isinstance(exc, (SchemaError, ConfigSchemaError))
        raise (SchemaError if schema else ValueError)(f"{path}: {exc}") from None


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object of the config file, which names each key once."""
    keys = [key for key, _ in pairs]
    if len(set(keys)) < len(keys):
        raise SchemaError(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r}")
    return dict(pairs)


def _load_config(path: str | None) -> tuple[PipelineConfig, dict]:
    if path is None:
        return PipelineConfig(), {}
    with open(path, "rb") as fh:
        data = fh.read()
    with _config_faults(path):
        try:
            raw = json.loads(data.decode("utf-8"), object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError) as exc:
            raise SchemaError(_undecodable(exc)) from None
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
    modules: tuple[str, ...]  # the `_LIBRARY` modules that the handler calls


_INPUT = {"action": "append", "help": "input file; repeat for several (roles: FORMATS.md)"}
_GT = {"help": "ground-truth segments file"}
_EPOCH = {"type": int, "default": 0, "help": "training epoch for mask-band scheduling (default 0)"}
_SEED = {"type": int, "help": "override the sim seed"}
_TIMINGS = {"action": "store_true", "help": "add wall-clock timings (breaks byte reproducibility)"}

# The one list of subcommands, the flags each one reads and the modules it runs.
COMMANDS = {
    "extract": _Command(_cmd_extract, "SP file -> scored proposals (needs --gt for video labels)",
                        {"--input": _INPUT, "--gt": _GT}, ("evaluation", "sim", "weak_branch")),
    "fuse": _Command(_cmd_fuse, "proposals + grid source -> pseudo proposals", {
        "--input": _INPUT,
        "--strategy": {"default": "ricker", "help": "fusion strategy (default: ricker)"},
        "--wavelet-csv": {"help": "also write the fused wavelet as CSV (single video)"},
    }, ("fusion", "sim")),
    "mask": _Command(_cmd_mask, "pseudos + grid source -> uncertainty mask file",
                     {"--input": _INPUT, "--epoch": _EPOCH}, ("mask",)),
    "targets": _Command(_cmd_targets, "pseudos + grid source + mask file -> anchor target file",
                        {"--input": _INPUT}, ("mask", "targets")),
    "losses": _Command(_cmd_losses, "anchor predictions + targets [+ SP file] -> loss report",
                       {"--input": _INPUT, "--gt": _GT, "--timings": _TIMINGS},
                       ("evaluation", "targets", "weak_branch")),
    "eval": _Command(_cmd_eval, "predictions (needs --gt) -> mAP report",
                     {"--input": _INPUT, "--gt": _GT, "--timings": _TIMINGS}, ("evaluation",)),
    "simulate": _Command(_cmd_simulate, "config -> synthetic SP corpus (and GT via --gt)",
                         {"--gt": {"help": "also write the ground truth here"}, "--seed": _SEED},
                         ("sim",)),
    "benchmark": _Command(_cmd_benchmark, "config -> per-strategy pseudo-label quality report", {
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
            with _config_faults(args.config):
                args.sim = SimConfig.from_dict(raw_sim)
            if args.seed is not None:
                args.sim = dataclasses.replace(args.sim, seed=args.seed)
        _write(command.handler(args, cfg))
        return 0
    except (SchemaError, ConfigSchemaError) as exc:
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
