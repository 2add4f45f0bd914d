"""The CLI's readers of JSON-lines input files. Every input row is read
through `_SCHEMAS`, one table of each file kind's keys and their JSON kinds:
`_rows` checks a key, present and of its kind (`_KINDS`), as the row's
converter reads it, and the converter checks the values: by the package
types it builds, or for a segment row by the row rules of `core`. A reader
imports the module of the types it builds as it runs, and none imports
`cli` (`__main__` under `python -m`, whose `main` catches the
`config.SchemaError` these raise, not a second copy's)."""
from __future__ import annotations

import functools
import json
import math
from typing import Callable, Iterator, Sequence

import numpy as np

from .config import SchemaError, blame, undecodable
from .core import (GroundTruthSet, Segments, SnippetPredictions, TimeGrid, check_class_id,
                   check_span, shown)

__all__ = ["parse_sp_file", "parse_grid_file", "parse_segments", "video_label", "by_video",
           "parse_mask_file", "parse_targets_file", "parse_anchor_predictions",
           "segments_on_grids"]


def _rows(path: str, kind: str, convert: Callable[[str, Callable[[str], object]], object],
          unique: bool = True) -> Iterator[tuple[str, object]]:
    """(video_id, `convert(video_id, get)`) per row of a JSON-lines file of
    `kind`: a key of `_SCHEMAS`, or "grid source" ("sp grid" for a row that
    holds class_scores, else "grid"). `get(key)` is the row's value as
    `_field` checks it when the converter reads it, so the converter's order
    of reads is the order of the checks. Each line is decoded, checked (a
    string `video_id`, and where `unique` an id above the row before's) and
    converted before the next is read, so the first bad row decides the
    exit. An error names the file: `<path>:<line>: <message>` for a line that
    is no UTF-8 JSON object or a row out of `video_id` order, else by
    `config.blame`, which only a row that faults enters: a `with` per row costs
    about 2 µs, over a third of a segment row's read; a `try` costs nothing."""
    last = None
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line = line.decode("utf-8").strip()
                if not line:
                    continue
                row = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise SchemaError(f"{path}:{lineno}: {undecodable(exc)}") from None
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
                    raise SchemaError(f"video_id must be a string, got {shown(vid)}")
                if unique and vid == last:
                    raise SchemaError(f"duplicate video_id {vid!r}")
                plain = "true" not in line and "false" not in line  # no boolean in the text
                value = convert(vid, functools.partial(_field, row, schema, plain))
            except (ValueError, TypeError, OverflowError):  # a huge JSON integer overflows
                with blame(path, vid):
                    raise
            last = vid
            del line, row  # the decoded row is freed before the caller reads on
            yield vid, value


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
        raise SchemaError(f"{key} must be an integer, got {shown(value)}")
    return value


def _number(value, key: str, plain: bool = True) -> float:
    if type(value) is not float and type(value) is not int:
        raise SchemaError(f"{key} must be a number, got {shown(value)}")
    return float(value)


def _list(value, key: str, plain: bool = True) -> list:
    if type(value) is not list:
        raise SchemaError(f"{key} must be a list, got {shown(value)}")
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


def parse_sp_file(path: str) -> Iterator[tuple[str, tuple[TimeGrid, SnippetPredictions]]]:
    """(video_id, (grid, predictions)) per SP row, each row read when asked for."""
    def convert(vid: str, get) -> tuple[TimeGrid, SnippetPredictions]:
        cls = get("class_scores")
        grid = TimeGrid(get("num_snippets"), get("snippet_duration_s"), cls.shape[1] - 1)
        return grid, SnippetPredictions(get("attention"), _normalized(cls, "class_scores"))

    return _rows(path, "sp", convert)


def parse_grid_file(path: str) -> dict[str, TimeGrid]:
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


def _check_extent(start: float, end: float, grid: TimeGrid) -> None:
    if not (start >= 0 and end <= grid.duration_s * (1 + _EXTENT_SLACK)):
        raise ValueError(f"segment [{start}, {end}] lies outside [0, {grid.duration_s}]")


def parse_segments(path: str, with_score: bool, grids: dict[str, TimeGrid] | None = None):
    """A segment file's rows by video id, in file order, as one `Segments` per
    video: with `score`, that mapping; without, the `GroundTruthSet` of it,
    scores 1.0. Rows are checked as read, so the first bad row decides the
    exit; within a row, in order: the endpoints by `check_span` and, for a
    video in `grids`, within [0, duration_s] up to the writer's rounding;
    `class_id` by `check_class_id` with the grid's class count; a finite
    score. Each row is one plain tuple, and each video's `Segments` is built
    from int64 and float64 columns, so its own checks are array reductions."""
    def convert(vid: str, get):
        start, end = get("start_s"), get("end_s")
        check_span(start, end)
        grid = grids.get(vid) if grids else None
        if grid is not None:
            _check_extent(start, end, grid)
        class_id = check_class_id(get("class_id"), grid.class_count if grid is not None else None)
        score = get("score") if with_score else 1.0
        if not math.isfinite(score):
            raise ValueError("score must be finite")
        return start, end, class_id, score

    out: dict[str, list] = {}
    kind = "proposal" if with_score else "ground truth"
    for vid, item in _rows(path, kind, convert, unique=False):
        out.setdefault(vid, []).append(item)
    videos = {vid: Segments(*map(np.array, zip(*rows), (float, float, np.int64, float)))
              for vid, rows in out.items()}
    return videos if with_score else GroundTruthSet(videos)


def video_label(gt_path: str, gt: GroundTruthSet, vid: str, grid: TimeGrid):
    """The `VideoLabel` of `vid` from its `--gt` rows, or None if it has none.
    Each row is first held to `grid`, the video's SP row, by the extent and
    class rule `parse_segments` applies with grids, with the same message."""
    from .weak_branch import VideoLabel

    segs = gt.videos.get(vid)
    if segs is None:
        return None
    with blame(gt_path, vid):
        for start, end, class_id, _ in segs:
            _check_extent(start, end, grid)
            check_class_id(class_id, grid.class_count)
    return VideoLabel.from_classes(segs.class_id, grid.class_count)


def by_video(*readers: Iterator[tuple[str, object]]) -> Iterator[tuple[str, list]]:
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


def parse_mask_file(path: str, grids: dict[str, TimeGrid]) -> dict[str, SnippetMask]:
    """The masks of the videos in `grids`; a row's run lengths must add up to
    its video's num_snippets before they are expanded."""
    from .mask import SnippetMask

    def convert(vid: str, get) -> SnippetMask | None:
        values, counts = get("bits")
        grid = grids.get(vid)
        if grid is None:  # every pseudo video has a grid, so no target needs this row
            return None
        if sum(counts) != grid.num_snippets:
            raise ValueError(f"bits cover {sum(counts)} snippets, its grid has {grid.num_snippets}")
        return SnippetMask(np.repeat(np.array(values, dtype=np.uint8), counts), grid)

    return {vid: mask for vid, mask in _rows(path, "mask", convert) if mask is not None}


def parse_targets_file(path: str) -> Iterator[tuple[str, AnchorTargets]]:
    """(video_id, targets) per row, each row read when asked for."""
    from .targets import ANCHOR_FIELDS, AnchorTargets

    return _rows(path, "targets", lambda vid, get: AnchorTargets(
        TimeGrid(get("num_snippets"), get("snippet_duration_s"), get("class_count")),
        get("level_sizes"), **{name: get(name) for name in ANCHOR_FIELDS}))


def parse_anchor_predictions(path: str) -> Iterator[tuple[str, AnchorPredictions]]:
    """(video_id, predictions) per row, each row read when asked for."""
    from .targets import AnchorPredictions

    def convert(vid: str, get) -> AnchorPredictions:
        probs, snippet_probs = get("class_probs"), get("snippet_probs")
        preds = AnchorPredictions(_normalized(probs, "class_probs"), get("reg_left"),
                                  get("reg_right"), snippet_probs)
        if snippet_probs is not None:
            # past the type's [0, 1] check only a zero sum is left to refuse;
            # checked, not divided: `att` reads the written digits
            _normalized(snippet_probs, "snippet_probs")
        return preds

    return _rows(path, "anchor predictions", convert)


def segments_on_grids(paths: Sequence[str]) -> tuple[dict[str, Segments], dict[str, TimeGrid]]:
    """Scored segments (`paths[0]`) and a grid source (`paths[1]`) covering
    all their videos."""
    grids = parse_grid_file(paths[1])
    segments = parse_segments(paths[0], with_score=True, grids=grids)
    missing = sorted(set(segments) - set(grids))
    if missing:
        raise ValueError(f"{paths[1]}: no grid metadata for videos of {paths[0]}: {missing}")
    return segments, grids
