"""Metamorphic relations over the command-line chain: how the outputs must
move when the input corpus is transformed in a known way, with no oracle.

- Video locality: dropping one video from the SP and ground-truth files
  leaves every other video's rows of `extract`, `fuse`, `mask --epoch` and
  `targets` byte-identical.
- Renaming: renaming the videos in an order-preserving way changes only the
  ids in those files, and the `eval` report not at all.
- Class relabeling: permuting the SP class columns and the ground-truth class
  ids permutes the class ids of the `extract`, `fuse` and `targets` rows (each
  video's rows are the same multiset once ids are mapped; ricker's rows,
  sorted by class, change order), leaves the `mask` files byte-identical, and
  permutes each `eval` report's `per_class`, with `map` and `average_map`
  unchanged.
- Unit scale: doubling `snippet_duration_s` and every time (a unit of time
  half as long) doubles every time in the `extract`, `fuse` and `targets`
  rows and changes nothing else in them; the `mask` files and the `eval`
  reports stay byte-identical. Times are written with six significant digits, so
  they compare within that rounding, and the targets' regression offsets,
  differences of such times, within 1e-3 stride units. `ricker` is the one
  exception: its confidences fall by 1/sqrt(2), because the Ricker wavelet's
  sigma, half the proposal's duration, is in seconds, and its amplitude
  goes as 1/sqrt(sigma). Its times double as the others' do, and as every
  confidence scales alike, its `eval` report is unchanged.

Each relation runs the chain from `extract` on with every fusion strategy,
on a small seeded corpus with jitter, false positives and attention noise.
"""
import json
import math
from collections import Counter
from pathlib import Path

import pytest

from pseudotal.cli import main
from pseudotal.fusion import STRATEGIES
SIM = {"seed": 3, "num_videos": 6, "class_count": 4, "boundary_jitter_frac": 0.1,
       "false_positive_rate": 1.0, "attention_noise_std": 0.1}


def _lines(path):
    return Path(path).read_text(encoding="utf-8").splitlines()


def _write_lines(path, lines):
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _video_id(line):
    return json.loads(line).get("video_id")


def _chain(d: Path) -> dict[str, list[str]]:
    """The lines of each file the chain writes from `d`'s sp.jsonl and
    gt.jsonl, by output name."""

    def run(*argv):
        assert main([*map(str, argv)]) == 0, argv

    run("extract", "--input", d / "sp.jsonl", "--gt", d / "gt.jsonl", "--output", d / "props")
    for s in STRATEGIES:
        run("fuse", "--input", d / "props", "--input", d / "sp.jsonl", "--strategy", s,
            "--output", d / f"pseudos_{s}")
        run("mask", "--input", d / f"pseudos_{s}", "--input", d / "sp.jsonl", "--epoch", 25,
            "--output", d / f"mask_{s}")
        run("targets", "--input", d / f"pseudos_{s}", "--input", d / "sp.jsonl",
            "--input", d / f"mask_{s}", "--output", d / f"targets_{s}")
        run("eval", "--input", d / f"pseudos_{s}", "--gt", d / "gt.jsonl",
            "--output", d / f"eval_{s}")
    return {p.name: _lines(p) for p in d.iterdir() if p.suffix != ".jsonl"}


def _corpus(d: Path, base: dict, rows_of) -> dict[str, list[str]]:
    """The chain's outputs on `base`'s SP and ground-truth lines, each passed
    through `rows_of` (which returns the lines that replace it)."""
    d.mkdir()
    for name in ("sp.jsonl", "gt.jsonl"):
        _write_lines(d / name, [out for line in base[name] for out in rows_of(line)])
    return _chain(d)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """The simulated corpus's lines, its video ids and the chain's outputs."""
    d = tmp_path_factory.mktemp("base")
    config = d / "config.json"
    config.write_text(json.dumps({"sim": SIM}))
    assert main(["simulate", "--config", str(config), "--gt", str(d / "gt.jsonl"),
                 "--output", str(d / "sp.jsonl")]) == 0
    config.unlink()
    lines = {name: _lines(d / name) for name in ("sp.jsonl", "gt.jsonl")}
    outputs = _chain(d)
    videos = sorted(filter(None, map(_video_id, lines["sp.jsonl"])))
    assert len(videos) == SIM["num_videos"]
    # every row file holds every video, so each relation bites in each file
    for name, rows in outputs.items():
        if not name.startswith("eval"):
            assert sorted(set(filter(None, map(_video_id, rows)))) == videos, name
    return {**lines, "videos": videos, "outputs": outputs}


@pytest.mark.parametrize("drop", [0, 3, 5])
def test_dropping_a_video_leaves_the_other_rows(base, tmp_path, drop):
    gone = base["videos"][drop]
    dropped = _corpus(tmp_path / "dropped", base,
                      lambda line: [] if _video_id(line) == gone else [line])
    assert sorted(dropped) == sorted(base["outputs"])
    for name, lines in base["outputs"].items():
        if not name.startswith("eval"):  # mAP is over the corpus
            assert dropped[name] == [line for line in lines if _video_id(line) != gone], name


def test_renaming_videos_changes_only_their_ids(base, tmp_path):
    # order-preserving, and of another length than the simulator's ids
    new_id = {vid: f"clip-{k}" for k, vid in enumerate(base["videos"])}
    assert sorted(new_id.values()) == list(new_id.values())

    def renamed(line):
        vid = _video_id(line)
        return [line if vid is None else line.replace(json.dumps(vid), json.dumps(new_id[vid]))]

    result = _corpus(tmp_path / "renamed", base, renamed)
    assert sorted(result) == sorted(base["outputs"])
    for name, lines in base["outputs"].items():
        if name.startswith("eval"):
            assert result[name] == lines, name
        else:
            assert result[name] == [out for line in lines for out in renamed(line)], name


# old class id -> new class id, of the corpus's four classes
RELABEL = {1: 3, 2: 1, 3: 4, 4: 2}


def _relabeled(row: dict) -> dict:
    """`row` with its class ids mapped by RELABEL: an SP row's foreground
    class columns move, the background column stays last."""
    row = dict(row)
    if "class_scores" in row:
        moved = []
        for scores in row["class_scores"]:
            new = list(scores)
            for old, cid in RELABEL.items():
                new[cid - 1] = scores[old - 1]
            moved.append(new)
        row["class_scores"] = moved
    if "class_id" in row:
        row["class_id"] = RELABEL[row["class_id"]]
    if "class_label" in row:
        row["class_label"] = [RELABEL.get(c, c) for c in row["class_label"]]
    return row


def _row_multiset(lines, relabel=False):
    rows = map(json.loads, lines)
    return Counter(json.dumps(_relabeled(r) if relabel else r, sort_keys=True) for r in rows)


def test_relabeling_classes_permutes_their_ids(base, tmp_path):
    assert sorted(RELABEL) == sorted(RELABEL.values()) == list(range(1, SIM["class_count"] + 1))
    result = _corpus(tmp_path / "relabeled", base,
                     lambda line: [json.dumps(_relabeled(json.loads(line)))])
    assert sorted(result) == sorted(base["outputs"])
    for name, lines in base["outputs"].items():
        if name.startswith("eval"):
            want, got = (json.loads("".join(r))["metrics"] for r in (lines, result[name]))
            assert got["per_class"] == {str(RELABEL[int(c)]): aps
                                        for c, aps in want["per_class"].items()}, name
            assert {**got, "per_class": None} == {**want, "per_class": None}, name
        elif name.startswith("mask"):
            assert result[name] == lines, name
        else:
            assert _row_multiset(result[name]) == _row_multiset(lines, relabel=True), name
    # ricker's rows are sorted by class, so the relabeled rows come in another order
    ricker = base["outputs"]["pseudos_ricker"]
    assert ([json.loads(line) for line in result["pseudos_ricker"]]
            != [_relabeled(json.loads(line)) for line in ricker])


TIMES = ("start_s", "end_s", "snippet_duration_s")


def _unit_scaled(line):
    """`line` in a unit of time half as long: its snippet duration and times doubled."""
    return [json.dumps({key: value * 2 if key in TIMES else value
                        for key, value in json.loads(line).items()})]


def test_doubling_the_unit_of_time_doubles_only_the_times(base, tmp_path):
    result = _corpus(tmp_path / "scaled", base, _unit_scaled)
    assert sorted(result) == sorted(base["outputs"])
    for name, lines in base["outputs"].items():
        if name.startswith(("eval", "mask")):
            assert result[name] == lines, name
            continue
        assert len(result[name]) == len(lines), name
        for old, new in zip(map(json.loads, lines), map(json.loads, result[name])):
            assert new.keys() == old.keys(), name
            for key, value in old.items():
                if key in TIMES:
                    assert new[key] == pytest.approx(2 * value, rel=1e-5), (name, key)
                elif key == "score" and name == "pseudos_ricker":  # sigma is in seconds
                    assert new[key] == pytest.approx(value / math.sqrt(2), rel=1e-5), name
                elif key in ("reg_left", "reg_right"):
                    assert new[key] == pytest.approx(value, abs=1e-3), (name, key)
                else:
                    assert new[key] == value, (name, key)
