"""Text-level mutation fuzzer of the input contract. The valid one-video file
of each input kind (contract_files.py), and the config file with its `"sim"`
section, are mutated as text under fixed seeds with the standard library's
`random`: truncated at a byte, a byte flipped, a value wrapped in brackets,
a 5000-digit number or a NaN/Infinity put in place of a value, a key
repeated, a line split in two. Each mutant runs in-process through every
subcommand that reads it. It exits 0, 2 or 3 and raises nothing (a numpy
warning is an error under the test settings); on a nonzero exit it prints
one line that names the mutated file and writes no `--output`.

A key repeated inside a JSON-lines row keeps its last value, as the JSON
decoder does; FORMATS.md states it. A repeated config key is an error."""
from __future__ import annotations

import json
import random
import tempfile
import traceback
from pathlib import Path

import pytest

from contract_files import ALSO_RUNS, EVAL, ROWS, RUNS, run_files

# the runs that read each mutated file; the config file goes to a subcommand
# that reads its "sim" section, and to one that reads only the pipeline keys
READERS = {**{kind: [RUNS[kind], *ALSO_RUNS.get(kind, [])] for kind in RUNS if kind != "sim"},
           "config": [RUNS["sim"], EVAL]}
OPERATIONS = ["truncate", "flip", "brackets", "digits", "repeat", "nonfinite", "split"]
MUTANTS = 8  # per (kind, operation): 8 kinds x 7 operations x 8 = 448 mutants
# what a flipped byte becomes: JSON punctuation, digits, letters, a space, a
# control character and a byte that is no UTF-8
FLIPS = b'{}[],:"-.0123456789eEtfnx \x00\xff'
HOLE = "@@hole@@"


def _valid(kind: str) -> dict:
    return {**ROWS["config"], "sim": ROWS["sim"]} if kind == "config" else ROWS[kind]


def _with_hole(row: dict, rng: random.Random) -> tuple[str, object]:
    """The JSON text of `row` with one value replaced by HOLE (a config's
    value may lie in "sim"; a list's first entry, at any depth, may be the
    value), and the value replaced."""
    row = json.loads(json.dumps(row))
    parent, key = row, rng.choice(sorted(row))
    if isinstance(row[key], dict):
        parent, key = row[key], rng.choice(sorted(row[key]))
    while isinstance(parent[key], list) and parent[key] and rng.random() < 0.7:
        parent, key = parent[key], 0
    value, parent[key] = parent[key], HOLE
    return json.dumps(row), value


def mutant(kind: str, operation: str, rng: random.Random) -> bytes:
    """One mutation of the valid file of `kind`, as the bytes of the file."""
    row = _valid(kind)
    text = json.dumps(row)
    if operation == "truncate":  # an empty file is test_cli.py's test_inputs_with_no_video
        return text.encode()[: rng.randrange(1, len(text))]
    if operation == "flip":
        data = bytearray(text.encode() + b"\n")
        data[rng.randrange(len(text))] = rng.choice(FLIPS)
        return bytes(data)
    if operation == "split":
        at = rng.randrange(1, len(text))
        return (text[:at] + "\n" + text[at:] + "\n").encode()
    if operation == "repeat":
        key = rng.choice(sorted(row))
        value = rng.choice([row[key], None, True, "x", [], 0, -1, 1.5])
        return (text[:-1] + f", {json.dumps(key)}: {json.dumps(value)}}}\n").encode()
    hole, value = _with_hole(row, rng)
    if operation == "brackets":
        depth = rng.choice([1, 2, 3, 50, 5000])
        fill = "[" * depth + json.dumps(value) + "]" * depth
    elif operation == "digits":
        fill = rng.choice(["", "-"]) + rng.choice("123456789") + "0" * 4999
    else:
        fill = rng.choice(["NaN", "Infinity", "-Infinity"])
    return (hole.replace(json.dumps(HOLE), fill) + "\n").encode()


@pytest.mark.parametrize("operation", OPERATIONS)
@pytest.mark.parametrize("kind", sorted(READERS))
def test_mutants_exit_cleanly(kind, operation):
    rng = random.Random(f"{kind}/{operation}")
    for case in range(MUTANTS):
        data = mutant(kind, operation, rng)
        for argv in READERS[kind]:
            with tempfile.TemporaryDirectory() as directory:
                try:
                    code, err, out, paths = run_files({**ROWS, kind: data}, argv, Path(directory))
                except Exception:  # a traceback, or a warning turned into an error
                    pytest.fail(f"case {case} of {argv[0]} raised on {data[:300]!r}:\n"
                                f"{traceback.format_exc()}")
                where = f"case {case} of {argv[0]} on {data[:300]!r}: {err!r}"
                assert code in (0, 2, 3), where
                if code:
                    assert err.startswith("error: ") and err.count("\n") == 1, where
                    assert str(paths[kind]) in err, where
                    assert not out.exists(), where
                else:
                    assert err == "" and out.exists(), where


def test_a_repeated_key_of_a_row_keeps_its_last_value(tmp_path):
    """JSON-lines rows are decoded without a check for repeated keys (one
    would cost about 2.5 times the decode of a row); the last value wins."""
    text = json.dumps(ROWS["proposals"])
    spoiled = text[:-1] + ', "start_s": 6.0, "start_s": 2.0}'
    outputs = {}
    for name, data in (("plain", text), ("repeated", spoiled)):
        directory = tmp_path / name
        directory.mkdir()
        code, err, out, _ = run_files({**ROWS, "proposals": (data + "\n").encode()},
                                      RUNS["proposals"], directory)
        assert (code, err) == (0, "")
        outputs[name] = out.read_bytes()
    assert outputs["repeated"] == outputs["plain"]
