"""Tests of the benchmark harness itself.

    python3 -m pytest -q bench/tests
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from pseudotal import cli  # noqa: E402

# small corpora (file chain, sweep) that keep each workload's character; the
# `strategies` sweep stays large enough for its ricker > soft, hard check
TINY = {"chain": (6, 6), "strategies": (4, 40)}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    shrunk = {
        name: dict(
            parts,
            chain=dict(parts["chain"], num_videos=TINY[name][0]),
            benchmark=dict(parts["benchmark"], num_videos=TINY[name][1]),
        )
        for name, parts in wl.WORKLOADS.items()
    }
    monkeypatch.setattr(wl, "WORKLOADS", shrunk)
    monkeypatch.setattr(run, "WORK_ROOT", tmp_path / "work")
    return tmp_path


def _chain_until_fuse(work: Path, workload: str, seed: int) -> list[wl.Step]:
    work.mkdir(parents=True, exist_ok=True)
    wl.write_configs(work, workload, seed)
    steps = wl.chain_steps(work)
    for step in steps[:3]:
        assert cli.main(list(step.argv)) == 0, step.cmd
    return steps


def test_generators_are_deterministic_per_seed(tiny):
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        _chain_until_fuse(tiny / name, "chain", seed)

    def files(name):
        names = ("config.json", "bench_config.json", "sp.jsonl", "gt.jsonl")
        return [(tiny / name / f).read_bytes() for f in names]

    assert files("a") == files("b")
    assert files("a")[2] != files("c")[2]

    sp = tiny / "a" / "sp.jsonl"
    grids = wl.read_grids(sp, wl.video_ids(sp))
    first = list(wl.anchor_prediction_rows(grids, 7))
    assert first == list(wl.anchor_prediction_rows(grids, 7))
    assert first != list(wl.anchor_prediction_rows(grids, 8))


def test_anchor_predictions_pass_losses(tiny):
    work = tiny / "losses"
    steps = _chain_until_fuse(work, "chain", 11)
    pseudo_ids = wl.video_ids(work / "pseudo.jsonl")
    wl.write_anchor_predictions(
        work / "anchor_preds.jsonl", wl.read_grids(work / "sp.jsonl", pseudo_ids), 11
    )
    by_cmd = {step.cmd: step for step in steps}
    for cmd in ("mask", "targets", "losses"):
        assert cli.main(list(by_cmd[cmd].argv)) == 0, cmd

    lines = (work / "anchor_preds.jsonl").read_text().splitlines()
    preds = {r["video_id"]: r for r in map(json.loads, lines)}
    for row in map(json.loads, (work / "targets.jsonl").read_text().splitlines()):
        if "_header" in row:
            continue
        t = row["num_snippets"]
        assert row["level_sizes"] == [math.ceil(t / 2**l) for l in range(wl.NUM_LEVELS)]
        assert len(preds[row["video_id"]]["class_probs"]) == sum(row["level_sizes"])
        assert len(preds[row["video_id"]]["snippet_probs"]) == t
    mean = json.loads((work / "losses.json").read_text())["metrics"]["mean"]
    assert mean["att"] > 0.0


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.E2E_UNITS
    assert per_layer == tracing.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    for name in [*e2e, *per_layer]:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
        assert len(name) <= 64


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_passes_output_checks(tiny, workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(
            ["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace)]
        )
    assert rc == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = tracing.per_layer_units() if trace else run.E2E_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        record = json.loads((tiny / "work" / f"{workload}-5-trace0" / "result.json").read_text())
        raw = record["wall_samples_s"]
        assert record["host_speed"] == run.REFERENCE_S / run.center(raw["reference"])
        assert result["metrics"]["eval_s"]["value"] == pytest.approx(
            run.center(raw["eval"]) * record["host_speed"]
        )


def test_center_drops_the_fastest_and_slowest_sample():
    assert run.center([4.0, 1.0, 3.0, 100.0, 2.0]) == 3.0
    assert run.center([1.0, 3.0]) == 2.0


def test_reference_is_deterministic_and_runs_without_the_package():
    code = (
        "import runpy, sys; runpy.run_path(sys.argv[1], run_name='__main__'); "
        "print(any(m.split('.')[0] == 'pseudotal' for m in sys.modules))"
    )
    argv = [sys.executable, "-c", code, str(BENCH / "reference.py")]
    outs = [subprocess.run(argv, capture_output=True, text=True, check=True).stdout for _ in "ab"]
    assert outs[0] == outs[1]
    digest, imported = outs[0].split()
    assert len(digest) == 64 and imported == "False"


def test_checker_flags_differing_bytes_and_bad_ranking(tmp_path):
    checker = run.Checker("strategies")
    out = tmp_path / "benchmark.json"
    step = wl.Step("benchmark", (), (), (str(out),))
    maps = {s: 0.5 for s in wl.STRATEGIES}
    strategies = {s: {"average_map": m} for s, m in maps.items()}
    out.write_text(json.dumps({"metrics": {"strategies": strategies}}))
    checker.step(0, step, 0, "")
    assert checker.attempted == len(wl.STRATEGIES)
    assert checker.failures == [
        "rep 0 benchmark.ricker: ricker 0.5 does not beat soft 0.5 and hard 0.5"
    ]
    out.write_text("{}")
    checker.step(1, step, 0, "")
    assert all("bytes differ" in line for line in checker.failures[1:])
    assert len(checker.failures) == 1 + len(wl.STRATEGIES)


def test_checker_flags_file_and_memory_map_disagreement(tmp_path):
    checker = run.Checker("chain")
    checker.eval_map = 0.5
    step = wl.crosscheck_step(tmp_path)
    report = {"metrics": {"strategies": {"ricker": {"average_map": 0.52}}}}
    Path(step.outputs[0]).write_text(json.dumps(report))
    checker.step("set-up", step, 0, "")
    assert checker.attempted == 1
    assert checker.failures == [
        "rep set-up crosscheck: ricker average_map 0.52 disagrees with eval 0.5"
    ]


def test_span_sum_check_catches_a_span_outside_every_layer():
    def traced_call(inner_name):
        tracer = tracing.Tracer()
        tracer.new_rep()
        with tracer.span("cli.eval"):
            with tracer.span(inner_name):
                time.sleep(0.005)
        checker = run.Checker("chain")
        run.check_span_sum(tracer, "eval", checker, 0)
        return checker.failures

    assert traced_call("evaluation.map_table") == []
    assert len(traced_call("evalution.map_table")) == 1
