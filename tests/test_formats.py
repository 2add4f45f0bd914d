"""FORMATS.md against the code. Each file section's key tables are the
schema table of `readers` (`_SCHEMAS`, with the shape rules `_PER_SNIPPET` and
`_OPTIONAL`), each JSON example of a row reads through its section's reader
once its "..." entries are dropped, every exit-2 message that a JSON-kind
checker (`_KINDS`) or a shape rule can raise is named in FORMATS.md, and
every file the CLI writes holds the keys of its schema."""
import json
import re
import reprlib
from pathlib import Path

import pytest

from pseudotal import cli, readers
from pseudotal.config import SchemaError
from pseudotal.core import TimeGrid

FORMATS = (Path(__file__).resolve().parents[1] / "FORMATS.md").read_text(encoding="utf-8")


def _sections() -> dict[str, str]:
    """The text under each `## ` heading, by heading."""
    parts = re.split(r"^## (.+)$", FORMATS, flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


def _key_tables(text: str) -> dict[str, dict[str, tuple[str, str]]]:
    """Each key table of `text`, by the schema its header names (`| \\`sp\\`
    key | JSON kind | shape |`): key -> (JSON kind, shape)."""
    tables = {}
    for name, body in re.findall(r"^\| `([^`]+)` key \| JSON kind \| shape \|\n\|[-|]+\|\n"
                                 r"((?:\|.*\|\n)+)", text, flags=re.M):
        rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in body.splitlines()]
        tables[name] = {key.strip("`"): (kind, shape) for key, kind, shape in rows}
    return tables


def _mask_reader(path):
    """The mask reader, with a grid of as many snippets as the runs cover."""
    row = json.loads(Path(path).read_text(encoding="utf-8"))
    grid = TimeGrid(sum(count for _, count in row["bits"]), 1.0, 1)
    return readers.parse_mask_file(path, {row["video_id"]: grid})


# the file sections of FORMATS.md: the schemas each one tabulates, and the
# reader of its JSON examples
SECTIONS = {
    "SP file (snippet predictions)": (["sp"], lambda path: dict(readers.parse_sp_file(path))),
    "Grid source": (["grid", "sp grid"], readers.parse_grid_file),
    "Proposal / pseudo-proposal file": (["proposal"],
                                        lambda path: readers.parse_segments(path, True)),
    "Ground-truth file": (["ground truth"],
                          lambda path: readers.parse_segments(path, False).segments),
    "Mask file": (["mask"], _mask_reader),
    "Targets file": (["targets"], lambda path: dict(readers.parse_targets_file(path))),
    "Anchor-predictions file": (["anchor predictions"],
                                lambda path: dict(readers.parse_anchor_predictions(path))),
}


def test_every_schema_has_one_section():
    assert sorted(name for names, _ in SECTIONS.values() for name in names) == sorted(
        readers._SCHEMAS)
    sections = _sections()
    for heading in SECTIONS:
        assert heading in sections, heading


@pytest.mark.parametrize("heading", SECTIONS)
def test_key_tables_are_the_schemas(heading):
    names, _ = SECTIONS[heading]
    tables = _key_tables(_sections()[heading])
    assert sorted(tables) == sorted(names)
    for name in names:
        table, schema = tables[name], readers._SCHEMAS[name]
        assert list(table) == list(schema), name
        assert {key: kind for key, (kind, _) in table.items()} == schema, name
        for key, (_, shape) in table.items():
            if key in readers._PER_SNIPPET:
                assert "`num_snippets`" in shape, (name, key)
            elif key in readers._OPTIONAL:
                assert shape == "optional", (name, key)
            else:
                assert "num_snippets" not in shape and "optional" not in shape, (name, key)


def _dropped(value):
    """`value` without its "..." entries: list entries, and keys or values of
    an object."""
    if isinstance(value, list):
        return [_dropped(v) for v in value if v != "..."]
    if isinstance(value, dict):
        return {k: _dropped(v) for k, v in value.items() if "..." not in (k, v)}
    return value


@pytest.mark.parametrize("heading", SECTIONS)
def test_json_examples_read(tmp_path, heading):
    _, reader = SECTIONS[heading]
    examples = re.findall(r"^```json\n(.*?)^```", _sections()[heading], flags=re.M | re.S)
    assert examples
    for i, text in enumerate(examples):
        path = tmp_path / f"example{i}.jsonl"
        path.write_text(json.dumps(_dropped(json.loads(text))) + "\n", encoding="utf-8")
        assert len(reader(str(path))) == 1, text


# values of every JSON kind and shape a checker may meet; the checkers are
# called with `plain` both ways
VALUES = [None, True, 1, 1.5, 10**30, "x", {}, [], [1], [1.5], [True], ["x"], [None], [[]],
          [[1, 2]], [[1, 2], [1]], [[1, 2], 1], [[[1, 2]]], [[1, True]], [[0.5, "x"]],
          [[1, 8]], [[2, 8]], [[1, 0]], [[1.0, 8]], [[1, 8.0]], [[1, 8, 1]], [1, [2]]]


def _entries(value):
    """Every value nested in `value`."""
    if isinstance(value, list):
        for v in value:
            yield v
            yield from _entries(v)


def _messages(check) -> set[str]:
    """Every exit-2 message of a kind checker on VALUES, with `<key>` for the
    key and `<value>` for a value shown."""
    found = set()
    for value in VALUES:
        for plain in (True, False):
            try:
                check(value, "<key>", plain)
            except SchemaError as exc:
                message = str(exc)
                for shown in {reprlib.repr(value), *map(reprlib.repr, _entries(value))}:
                    if message.endswith(f", got {shown}"):
                        message = message[: -len(shown)] + "<value>"
                        break
                found.add(message)
    return found


def test_every_kind_is_described():
    kinds = re.findall(r"^  \| (\w+) \| .* \| `<key> ", FORMATS, flags=re.M)
    assert sorted(kinds) == sorted(readers._KINDS)


@pytest.mark.parametrize("kind", sorted(readers._KINDS))
def test_every_kind_message_is_named(kind):
    messages = _messages(readers._KINDS[kind])
    assert messages
    assert sorted(m for m in messages if f"`{m}`" not in FORMATS) == []


def test_every_shape_message_is_named():
    messages = {f"{key} {noun} disagrees with num_snippets" for key, noun in readers._PER_SNIPPET.items()}
    messages |= {"row missing keys [...]", "video_id must be a string, got <value>"}
    assert sorted(m for m in messages if f"`{m}`" not in FORMATS) == []


def test_outputs_hold_the_schema_keys(tmp_path):
    """Each file the CLI writes holds, per row, `video_id` and the keys of
    its file kind's schema: the table is what the code writes."""
    config, files = tmp_path / "config.json", {}
    config.write_text(json.dumps({"sim": {"seed": 2, "num_videos": 3, "class_count": 2}}))
    files["ground truth"] = tmp_path / "ground truth.jsonl"
    for name, cmd, inputs in [
        ("sp", "simulate", ["--config", config, "--gt", files["ground truth"]]),
        ("proposal", "extract", ["--input", "sp", "--gt", "ground truth"]),
        ("pseudo", "fuse", ["--input", "proposal", "--input", "sp"]),
        ("mask", "mask", ["--input", "pseudo", "--input", "sp"]),
        ("targets", "targets", ["--input", "pseudo", "--input", "sp", "--input", "mask"]),
    ]:
        args = [str(files.get(a, a)) for a in inputs]
        files[name] = tmp_path / f"{name}.jsonl"
        assert cli.main([cmd, *args, "--output", str(files[name])]) == 0
    for name, path in files.items():
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()[1:]]
        schema = readers._SCHEMAS["proposal" if name == "pseudo" else name]
        assert rows and all(sorted(row) == sorted(["video_id", *schema]) for row in rows), name
