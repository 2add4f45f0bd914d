"""Byte oracle for the CLI's JSON writer.

`reference_writer` is the original element-by-element writer; the CLI's
array-aware writer must produce the same bytes for every value it meets,
and every subcommand must write the same files with either writer.
"""
import json
import math
from pathlib import Path

import numpy as np
import pytest

import reference_writer as ref
from pseudotal import cli
from pseudotal.core import Segments, TimeGrid
from pseudotal.fusion import fuse_ricker

SPECIAL = [
    123456.0, 1234567.0, 1e16, 1.5e16, 1e-05, 0.0001, -0.0, 0.0, 1.0,
    math.nan, math.inf, -math.inf,
]


def same_bytes(obj):
    assert cli._dump(obj) == ref._dump(obj)


def test_float_rule_spelled_out():
    assert cli._dump(SPECIAL) == (
        "[123456.0, 1234570.0, 1e+16, 1.5e+16, 1e-05, 0.0001, -0.0, 0.0, 1.0, "
        "NaN, Infinity, -Infinity]"
    )


@pytest.mark.parametrize("value", SPECIAL)
def test_special_values(value):
    same_bytes(value)
    same_bytes({"x": value, "y": (value, value)})
    for dtype in (np.float64, np.float32):
        same_bytes(dtype(value))
        same_bytes(np.array([value, 0.5, value], dtype=dtype))


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16])
def test_float_arrays_over_every_exponent(dtype):
    rng = np.random.default_rng(0)
    # random bit patterns: subnormals, huge exponents, NaN payloads, signed zeros
    raw = rng.integers(0, 2**64, size=4000, dtype=np.uint64).view(np.float64)
    scaled = rng.standard_normal(4000) * 10.0 ** rng.integers(-12, 20, size=4000)
    rounded = np.round(rng.uniform(-2e6, 2e6, size=4000), rng.integers(0, 4))
    for values in (raw, scaled, rounded):
        with np.errstate(over="ignore", invalid="ignore"):
            a = values.astype(dtype)
        same_bytes(a)
        same_bytes(a.reshape(40, 100))
        same_bytes(a.reshape(10, 20, 20))


@pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.bool_, np.int32, np.uint64])
def test_int_and_bool_arrays(dtype):
    rng = np.random.default_rng(1)
    a = rng.integers(0, 200, size=60).astype(dtype)
    same_bytes(a)
    same_bytes(a.reshape(6, 10))
    same_bytes(a.reshape(3, 4, 5))
    same_bytes({"bits": a, "n": dtype(7)})


@pytest.mark.parametrize("shape", [(0,), (0, 21), (3, 0), (2, 0, 3)])
@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_empty_arrays(shape, dtype):
    same_bytes(np.zeros(shape, dtype=dtype))


def test_non_contiguous_arrays():
    a = np.arange(60, dtype=np.float64).reshape(6, 10) / 7.0
    same_bytes(a.T)
    same_bytes(a[::2, 1::3])


def test_zero_dim_array_written_as_its_scalar():
    # the reference cannot iterate a 0-d array's tolist() and raises; the
    # writer writes the scalar, with the bytes the reference gives the scalar
    for value in (np.float64(1234567.0), np.float32(0.1), np.int64(5), np.bool_(True)):
        with pytest.raises(TypeError):
            ref._dump(np.array(value))
        assert cli._dump(np.array(value)) == ref._dump(value)


def test_numpy_scalars_and_tuples():
    same_bytes(
        {
            "f32": np.float32(0.1),
            "f64": np.float64(2.0 / 3.0),
            "i64": np.int64(-3),
            "u8": np.uint8(255),
            "b": np.bool_(False),
            "t": (0.1, 1234567.0, 1e-05),
            "nested": [{"a": (np.float32(1.5), 2)}, None, "s"],
        }
    )


def test_object_and_string_arrays():
    same_bytes(np.array([0.1, 2, "x", None], dtype=object))
    same_bytes(np.array([[1.5, None], [np.float32(2.0), True]], dtype=object))
    same_bytes(np.array(["a", "bc"]))


# ---------------------------------------------- arrays written by `_array_text`

# around the bound where `%.6g` switches to an exponent, and cells that are no
# integer but round to one at 6 digits (or just fail to)
BOUND = [999999.4, 999999.5, 999999.6]
NEAR_INTEGERS = [99999.95, 99999.96, 12345.96, 0.9999996, 2.0000001]
# subnormals: 5e-324 is "4.94066e-324" in %.6g, a text that parses back to 5e-324
SUBNORMALS = [5e-324, 1e-310, -2.5e-320]
NON_FINITE = [math.nan, math.inf, -math.inf]


def written(a):
    """`_array_text` itself writes `a`, with the reference writer's bytes."""
    assert cli._array_text(a) == ref._dump(a)


def test_text_bound_spelled_out():
    assert cli._dump(np.array(BOUND)) == "[999999.0, 1000000.0, 1000000.0]"
    # 999999.5 and 999999.6 are "1e+06" in %.6g, which parses back to 1000000.0
    for value in BOUND:
        written(np.array([value]))


def test_near_integers_spelled_out():
    assert cli._dump(np.array(NEAR_INTEGERS)) == (
        "[99999.9, 100000.0, 12346.0, 1.0, 2.0]"
    )


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16])
def test_bound_and_near_integers(dtype):
    with np.errstate(over="ignore"):
        a = np.array(BOUND + NEAR_INTEGERS, dtype=dtype)
    written(a)
    for value in a.tolist():
        written(np.array([value, -value, 0.5], dtype=dtype))
    written(a.reshape(1, -1))


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16])
def test_negative_zero_in_2d(dtype):
    a = np.array([[-0.0, 0.0, 1.5], [2.0, -0.0, -3.25]], dtype=dtype)
    assert cli._dump(a) == "[[-0.0, 0.0, 1.5], [2.0, -0.0, -3.25]]"
    same_bytes(a)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_rows_that_differ_only_by_the_sign_of_zero(dtype):
    # distinct rows are told apart by their bytes, so -0.0 and 0.0 stay apart
    a = np.array([[0.0, 0.5], [-0.0, 0.5], [0.0, 0.5], [-0.0, 0.5]], dtype=dtype)
    assert cli._dump(a) == "[[0.0, 0.5], [-0.0, 0.5], [0.0, 0.5], [-0.0, 0.5]]"
    same_bytes(a)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_a_repeated_row_that_holds_nan(dtype):
    a = np.array([[0.25, np.nan], [0.5, 0.5], [0.25, np.nan]], dtype=dtype)
    assert cli._dump(a) == "[[0.25, NaN], [0.5, 0.5], [0.25, NaN]]"
    written(a)


@pytest.mark.parametrize("shape", [(1, 5), (5, 1)])
def test_one_row_and_one_column(shape):
    a = (np.arange(5, dtype=np.float64) % 2 / 3.0).reshape(shape)
    written(a)
    written(a.astype(np.float32))


def test_two_dimensional_int64_with_repeated_rows():
    a = np.array([[3, -1, 0], [7, 2**62, -(2**63)], [3, -1, 0], [3, -1, 0]], dtype=np.int64)
    assert cli._dump(a) == (
        f"[[3, -1, 0], [7, {2**62}, {-(2**63)}], [3, -1, 0], [3, -1, 0]]"
    )
    same_bytes(a)


def test_repeated_rows_of_a_simulated_sp_file():
    rng = np.random.default_rng(5)
    table = rng.dirichlet(np.ones(21), size=8)
    a = table[rng.integers(0, 8, size=130)]
    same_bytes(a)
    same_bytes(a[::-1].T)  # non-contiguous, and its rows no longer repeat


def test_three_dimensional_array():
    rng = np.random.default_rng(4)
    # integers and fractions of 1-5 decimals, all below the bound
    shape = (3, 4, 5)
    a = np.round(rng.uniform(-50, 50, size=shape) * 10.0 ** rng.integers(0, 5, size=shape))
    a = a / 10.0 ** rng.integers(0, 6, size=shape)
    written(a)
    written(a.astype(np.float32))
    written(np.arange(60, dtype=np.int64).reshape(3, 4, 5) - 30)


def test_subnormals_are_written_by_the_array_text():
    a = np.array(SUBNORMALS + [0.5])
    assert cli._dump(a) == "[5e-324, 1e-310, -2.5e-320, 0.5]"
    written(a)
    written(np.array([1e-45, -1e-40, 0.5], dtype=np.float32))
    written(np.array([6e-8, -3e-6, 0.5], dtype=np.float16))


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16])
def test_every_float_array_is_written_by_the_array_text(dtype):
    """Every special value, in 1-3 dimensions, with repeated rows and as a
    non-contiguous view: no float array is left to the general path."""
    values = BOUND + NEAR_INTEGERS + SUBNORMALS + NON_FINITE + [-0.0, 0.0, 0.1, 1e16, 1e-5, 2 / 3]
    with np.errstate(over="ignore"):
        a = np.array(values * 3, dtype=dtype)  # 60 cells
    written(a)
    written(a.reshape(3, 20))  # three equal rows
    written(a.reshape(3, 4, 5))
    written(a.reshape(12, 5).T)
    written(a.reshape(3, 4, 5)[::-1, 1:, ::2])


@pytest.mark.parametrize("dtype", [np.uint64, np.int64, np.int32, np.uint8])
def test_every_integer_array_is_written_by_the_array_text(dtype):
    info = np.iinfo(dtype)
    a = np.array([info.min, info.max, 0, 1, info.max - 1, info.min], dtype=dtype)
    written(a)
    written(a.reshape(2, 3))
    written(a.reshape(3, 1, 2)[::-1])
    if dtype is np.uint64:
        assert cli._dump(a[1:2]) == f"[{2**64 - 1}]"  # past 2**63


@pytest.mark.parametrize("a", [
    np.array(1.5), np.zeros((2, 0)), np.array([True, False]), np.array([0.5, None], dtype=object),
], ids=["0-d", "empty", "bool", "object"])
def test_only_these_arrays_take_the_general_path(a):
    assert cli._array_text(a) is None


def test_row_mixing_arrays_scalars_tuples_and_dicts():
    row = {
        "video_id": "v_1",
        "scores": np.array([[0.123456789, 2.0000001], [999999.6, -0.0]]),
        "attention": np.array([0.5, 12345.96, 1e-05], dtype=np.float32),
        "labels": np.array([3, 0, 7], dtype=np.int64),
        "bits": np.array([1, 0], dtype=np.uint8),
        "flags": np.array([True, False]),
        "duration_s": np.float32(0.1),
        "n": np.int64(4),
        "pair": (0.1, 1234567.0),
        "nested": {"b": 1.5, "a": [np.float64(2.0 / 3.0), None]},
        "empty": np.zeros((0, 3)),
    }
    same_bytes(row)
    assert cli._dump(row).startswith('{"attention": [0.5, 12346.0, 1e-05], "bits": [1, 0], ')


def test_round6_shares_the_formatter():
    for value in SPECIAL + [2.0 / 3.0, 1e-310, 9.999995e5]:
        assert repr(cli._round6(value)) == repr(ref._round6(value))


# ---------------------------------------------------------------- CLI outputs


def _chain(out: Path) -> list[Path]:
    """Run simulate -> extract -> fuse -> mask -> targets -> losses -> eval into out."""
    out.mkdir()
    cfg = out / "config.json"
    cfg.write_text(
        json.dumps(
            {
                "tau": 0.5,
                "sim": {
                    "seed": 5, "num_videos": 6, "class_count": 4,
                    "attention_noise_std": 0.1, "boundary_jitter_frac": 0.1,
                    "false_positive_rate": 1.0,
                },
            }
        )
    )

    def run(*argv):
        assert cli.main([str(a) for a in argv] + ["--config", str(cfg)]) == 0

    p = {name: out / name for name in (
        "sp.jsonl", "gt.jsonl", "props.jsonl", "pseudo.jsonl", "mask.jsonl",
        "targets.jsonl", "preds.jsonl", "losses.json", "eval.json",
    )}
    run("simulate", "--output", p["sp.jsonl"], "--gt", p["gt.jsonl"])
    run("extract", "--input", p["sp.jsonl"], "--gt", p["gt.jsonl"], "--output", p["props.jsonl"])
    run("fuse", "--input", p["props.jsonl"], "--input", p["sp.jsonl"], "--output", p["pseudo.jsonl"])
    run("mask", "--input", p["pseudo.jsonl"], "--input", p["sp.jsonl"], "--epoch", 25,
        "--output", p["mask.jsonl"])
    run("targets", "--input", p["pseudo.jsonl"], "--input", p["sp.jsonl"],
        "--input", p["mask.jsonl"], "--output", p["targets.jsonl"])
    # seeded model outputs, one per anchor and per snippet
    rng = np.random.default_rng(9)
    sp_rows = {
        r["video_id"]: r for r in map(json.loads, p["sp.jsonl"].read_text().splitlines()[1:])
    }
    with p["preds.jsonl"].open("w") as fh:
        for line in p["targets.jsonl"].read_text().splitlines()[1:]:
            row = json.loads(line)
            n, width = len(row["class_label"]), row["class_count"] + 1
            fh.write(json.dumps({
                "video_id": row["video_id"],
                "class_probs": rng.dirichlet(np.ones(width), size=n).tolist(),
                "reg_left": rng.uniform(0, 4, size=n).tolist(),
                "reg_right": rng.uniform(0, 4, size=n).tolist(),
                "snippet_probs": rng.dirichlet(
                    np.ones(width), size=sp_rows[row["video_id"]]["num_snippets"]
                ).tolist(),
            }) + "\n")
    run("losses", "--input", p["preds.jsonl"], "--input", p["targets.jsonl"],
        "--input", p["sp.jsonl"], "--gt", p["gt.jsonl"], "--output", p["losses.json"])
    run("eval", "--input", p["pseudo.jsonl"], "--gt", p["gt.jsonl"], "--output", p["eval.json"])
    return [v for k, v in p.items() if k != "preds.jsonl"]


def test_cli_outputs_match_reference_writer(tmp_path, monkeypatch):
    new = _chain(tmp_path / "new")
    monkeypatch.setattr(cli, "_dump", ref._dump)
    old = _chain(tmp_path / "old")
    for a, b in zip(new, old):
        assert a.read_bytes() == b.read_bytes(), a.name


def test_wavelet_csv_cells_match_reference_formatting(tmp_path):
    grid_file = tmp_path / "grid.jsonl"
    grid_file.write_text(json.dumps(
        {"video_id": "v", "num_snippets": 30, "snippet_duration_s": 0.7, "class_count": 2}
    ) + "\n")
    props = [
        {"video_id": "v", "start_s": 2.1, "end_s": 9.8, "score": 0.83, "class_id": 2},
        {"video_id": "v", "start_s": 11.0, "end_s": 19.6, "score": 0.4, "class_id": 1},
    ]
    props_file = tmp_path / "props.jsonl"
    props_file.write_text("".join(json.dumps(r) + "\n" for r in props))
    csv = tmp_path / "w.csv"
    assert cli.main([
        "fuse", "--input", str(props_file), "--input", str(grid_file),
        "--output", str(tmp_path / "p.jsonl"), "--wavelet-csv", str(csv),
    ]) == 0
    grid = TimeGrid(30, 0.7, 2)
    wavelet = fuse_ricker(
        Segments(*([r[k] for r in props] for k in ("start_s", "end_s", "class_id", "score"))), grid
    )
    centers = (np.arange(grid.num_snippets) + 0.5) * grid.snippet_duration_s
    expected = [
        f"{t:.6g}," + ",".join(f"{wavelet.values[i, c]:.6g}" for c in range(grid.class_count))
        for i, t in enumerate(centers)
    ]
    assert csv.read_text().splitlines()[2:] == expected
