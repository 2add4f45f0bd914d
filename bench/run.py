"""Benchmark harness for the pseudotal CLI chain.

    python3 bench/run.py --workload chain --seed 1 --seconds 55 --trace 0

Run from the root of a checkout. The harness and every process it starts
share one vCPU. Set-up writes two seeded configs under .bench_work/ (one for
the file chain, one for `benchmark`), runs `simulate`, `extract` and `fuse`
once and writes anchor predictions for `losses`. With --trace 0 every
subcommand then runs as its own child process, one at a time, repeated for
--seconds, with reference.py run twice a repetition; each timing is the
trimmed mean of its samples, scaled to the reference host speed, and peak
RSS comes from os.wait4 on the children. With --trace 1 the same work runs
in-process, traced and untraced repetitions alternating, and the per-layer
metrics come from the traced ones. Every repetition's outputs are checked.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. README.md in this directory defines every metric.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import importlib.util
import io
import itertools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import tracing
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
RUN_LIMIT_S = 170  # a child still running then is killed and counted as failed
REFERENCE = BENCH / "reference.py"
# Every timing is reported at the host speed at which the reference process
# takes this long: about its wall time on a quiet 2-vCPU build VM.
REFERENCE_S = 0.4
# the reference runs twice a repetition, so it samples the host across the run
REFERENCE_BEFORE = ("simulate", "targets")
# The chain's files round proposals to 6 significant digits; over 20 corpora of
# 12 long, crowded videos that moved ricker's average_map by at most 0.0023.
MAP_TOLERANCE = 0.01

E2E_UNITS = {
    "videos_per_s": "1/s",
    **{f"{step.cmd}_s": "s" for step in wl.chain_steps(Path("."))},
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "avg_map": "ratio",
    "success_rate": "ratio",
}


class Checker:
    """Output checks of every operation; feeds attempted, failed and avg_map.

    An operation is one subcommand, or one strategy of `benchmark`. It fails
    on a nonzero exit, a traceback, an output that differs from an earlier
    repetition, or a failed content check. `avg_map` is read from the report
    the workload names: the chain's `eval` or the sweep's ricker strategy.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.eval_map: float | None = None  # `eval` of the chain's ricker pseudos
        self.avg_map: float | None = None  # the reported pseudo-label quality

    def record_digests(self, paths) -> list[str]:
        problems = []
        for path in paths:
            p = Path(path)
            if not p.is_file() or p.stat().st_size == 0:
                problems.append(f"{p.name}: missing or empty")
                continue
            digest = hashlib.sha256(p.read_bytes()).hexdigest()
            if self.digests.setdefault(p.name, digest) != digest:
                problems.append(f"{p.name}: bytes differ from an earlier repetition")
        return problems

    def step(self, rep: int, step: wl.Step, rc: int, stderr: str) -> None:
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}")
        if "Traceback" in stderr:
            problems.append("traceback on stderr")
        if not problems:
            problems = self.record_digests(step.outputs)
        per_op = {step.cmd: []}
        if step.cmd == "benchmark":
            per_op = {f"benchmark.{s}": [] for s in wl.STRATEGIES}
        if not problems:
            try:
                self._content(step, per_op)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        for op, op_problems in per_op.items():
            self.attempted += 1
            if problems or op_problems:
                self.failures.append(f"rep {rep} {op}: {'; '.join(problems + op_problems)}")

    def _content(self, step: wl.Step, per_op: dict[str, list[str]]) -> None:
        if step.cmd not in ("eval", "losses", "benchmark", "crosscheck"):
            return
        metrics = json.loads(Path(step.outputs[0]).read_text())["metrics"]
        if step.cmd == "crosscheck":
            # the file chain and the in-memory sweep score the same ricker pseudos
            ricker = metrics["strategies"]["ricker"]["average_map"]
            if self.eval_map is None or abs(ricker - self.eval_map) > MAP_TOLERANCE:
                per_op["crosscheck"].append(
                    f"ricker average_map {ricker} disagrees with eval {self.eval_map}"
                )
            return
        if step.cmd == "eval":
            value = metrics["average_map"]
            if not 0.0 < value <= 1.0:
                per_op["eval"].append(f"average_map {value} outside (0, 1]")
            self.eval_map = value
            if wl.WORKLOADS[self.workload]["avg_map_from"] == "eval":
                self.avg_map = value
        elif step.cmd == "losses":
            mean = metrics["mean"]
            if not all(math.isfinite(mean[k]) for k in ("cls", "reg", "att", "total")):
                per_op["losses"].append("non-finite mean loss")
            if not mean["att"] > 0.0:
                per_op["losses"].append("attention loss did not run")
        else:
            maps = {}
            for s in wl.STRATEGIES:
                maps[s] = metrics["strategies"].get(s, {}).get("average_map")
                if maps[s] is None or not 0.0 <= maps[s] <= 1.0:
                    per_op[f"benchmark.{s}"].append(f"average_map {maps[s]!r}")
            ricker, soft, hard = maps["ricker"], maps["soft"], maps["hard"]
            if wl.WORKLOADS[self.workload]["avg_map_from"] == "benchmark":
                self.avg_map = ricker
            # acceptance gate 8: wavelet fusion beats soft and hard on noisy corpora
            if self.workload == wl.GATE8_WORKLOAD and not (
                None not in (ricker, soft, hard) and ricker > soft and ricker > hard
            ):
                per_op["benchmark.ricker"].append(
                    f"ricker {ricker} does not beat soft {soft} and hard {hard}"
                )


def center(values: list[float]) -> float:
    """The timing a run reports for one process: the mean of its samples
    without the fastest and the slowest one."""
    trimmed = sorted(values)[1:-1] if len(values) > 4 else values
    return statistics.mean(trimmed)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(
    argv: list[str], stderr_path: Path, deadline: float, stdout_path: Path | None = None
):
    """Run one child to completion: (exit code, wall s, peak RSS KiB, stderr text).

    The child is killed if it is still running at `deadline` (time.monotonic()).
    Its stdout goes to `stdout_path`, or is dropped.
    """
    timeout_s = max(1.0, deadline - time.monotonic())
    with stderr_path.open("wb") as err, (
        stdout_path.open("wb") if stdout_path else open(os.devnull, "wb")
    ) as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env())
        lock = threading.Lock()
        reaped = False

        def kill() -> None:
            with lock:
                if not reaped:
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout_s, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            with lock:
                reaped = True
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss, stderr_path.read_text(errors="replace")


def cli_argv(step_argv) -> list[str]:
    return [sys.executable, "-m", "pseudotal.cli", *step_argv]


def cold_start(cmd: str, work: Path, deadline: float) -> float:
    """Wall time of `pseudotal <cmd> --help`: interpreter, numpy and package import."""
    rc, wall, _, _ = run_child(cli_argv([cmd, "--help"]), work / "help.err", deadline)
    if rc != 0:
        raise RuntimeError(f"`{cmd} --help` exited {rc}")
    return wall


def reference_run(work: Path, deadline: float, digests: set[str]) -> float:
    """Wall time of the reference process; it must exit 0 and print the same
    digest every time, or the host is not fit to measure on."""
    out = work / "reference.out"
    rc, wall, _, err = run_child([sys.executable, str(REFERENCE)], work / "reference.err",
                                 deadline, out)
    digests.add(out.read_text().strip())
    if rc != 0 or len(digests) != 1:
        raise RuntimeError(f"reference process exited {rc}, digests {sorted(digests)}\n{err}")
    return wall


def run_e2e(work, steps, seconds, checker, record, deadline):
    samples: dict[str, list[float]] = {
        name: [] for name in ("reference", "help", *(step.cmd for step in steps))
    }
    helps = itertools.cycle(step.cmd for step in steps)
    reference_digests: set[str] = set()
    rep_walls, rss_kib = [], {}
    stop = time.monotonic() + seconds
    rep = 0
    # no repetition starts that would end past the measuring window
    while rep < 2 or time.monotonic() + statistics.median(rep_walls) < stop:
        rep_start = time.perf_counter()
        # one cold start per repetition, so set-up is sampled across the run
        samples["help"].append(cold_start(next(helps), work, deadline))
        for step in steps:
            if step.cmd in REFERENCE_BEFORE:
                samples["reference"].append(reference_run(work, deadline, reference_digests))
            rc, wall, rss, err = run_child(cli_argv(step.argv), work / f"{step.cmd}.err", deadline)
            samples[step.cmd].append(wall)
            rss_kib[step.cmd] = max(rss_kib.get(step.cmd, 0), rss)
            checker.step(rep, step, rc, err)
        rep_walls.append(time.perf_counter() - rep_start)
        rep += 1
    speed = REFERENCE_S / center(samples["reference"])
    seconds_at_reference = {name: center(v) * speed for name, v in samples.items()}
    chain_s = sum(seconds_at_reference[step.cmd] for step in steps if step.cmd != "benchmark")
    videos = wl.WORKLOADS[record["workload"]]["chain"]["num_videos"]
    metrics = {
        "videos_per_s": videos / chain_s,
        **{f"{step.cmd}_s": seconds_at_reference[step.cmd] for step in steps},
        "peak_rss_mb": max(rss_kib.values()) / 1024.0,
        "setup_s": seconds_at_reference["help"],
        "avg_map": checker.avg_map if checker.avg_map is not None else 0.0,
        "success_rate": (checker.attempted - len(checker.failures)) / checker.attempted,
    }
    record.update(
        repetitions=rep, rep_walls_s=rep_walls, wall_samples_s=samples,
        host_speed=speed, reference_digest=reference_digests.pop(), peak_rss_kib=rss_kib,
    )
    return metrics


def run_inprocess(main, step: wl.Step) -> tuple[int, str]:
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            rc = main(list(step.argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the run must go on and report the failed operation
        return 1, err.getvalue() + traceback.format_exc()
    return rc, err.getvalue()


def run_traced(work, steps, seconds, checker, record):
    from pseudotal import cli

    tracer = tracing.Tracer()
    untraced, traced = [], []
    stop = time.monotonic() + seconds
    rep = 0
    # repetition 0 is an untimed warm-up; then traced and untraced alternate
    while not traced or time.monotonic() + traced[-1] + untraced[-1] < stop:
        for trace_on in ((None,) if rep == 0 else (True, False)):
            rep_start = time.perf_counter()
            if trace_on:
                tracer.new_rep()
            with tracing.patched(tracer) if trace_on else contextlib.nullcontext():
                for step in steps:
                    with tracer.span(f"cli.{step.cmd}") if trace_on else contextlib.nullcontext():
                        rc, err = run_inprocess(cli.main, step)
                    checker.step(rep, step, rc, err)
                    if trace_on:
                        check_span_sum(tracer, step.cmd, checker, rep)
                        tracer.count(f"cli.{step.cmd}.bytes_in", file_bytes(step.inputs))
                        tracer.count(f"cli.{step.cmd}.bytes_out", file_bytes(step.outputs))
            if trace_on is not None:
                (traced if trace_on else untraced).append(time.perf_counter() - rep_start)
            rep += 1
    per_rep = [tracer.rep_metrics(r) for r in range(len(traced))]
    metrics = {
        name: statistics.median(m[name] for m in per_rep) if unit == "ms" else per_rep[-1][name]
        for name, unit in tracing.per_layer_units().items()
        if name != "trace.overhead_frac"
    }
    units = tracing.per_layer_units()
    for name in metrics:
        if units[name] != "ms" and any(m[name] != metrics[name] for m in per_rep):
            checker.failures.append(f"count {name} differs between repetitions")
    metrics["trace.overhead_frac"] = min(traced) / min(untraced) - 1.0
    record.update(untraced_walls_s=untraced, traced_walls_s=traced)
    (work / "spans.json").write_text(
        json.dumps({"spans": tracer.spans, "counts": [dict(c) for c in tracer.counts]}) + "\n"
    )
    return metrics


def check_span_sum(tracer, cmd: str, checker: Checker, rep: int) -> None:
    """The layer self times under one subcommand, plus the tracer's side steps,
    add up to the subcommand's in-process wall time (its root span); a span
    whose name maps to no layer is missing from that sum."""
    root = max(i for i, span in enumerate(tracer.spans) if span["parent"] is None)
    wall_ns = tracer.spans[root]["end_ns"] - tracer.spans[root]["start_ns"]
    per_layer = tracing.layer_self_ns(tracer.self_ns(root))
    if min(per_layer.values()) < 0 or sum(per_layer.values()) != wall_ns:
        checker.failures.append(
            f"rep {rep} {cmd}: layer self times sum to "
            f"{sum(per_layer.values()) / 1e6:.3f} ms, wall {wall_ns / 1e6:.3f} ms"
        )


def file_bytes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths if Path(p).is_file())


def host_record(args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    args = parse_args(argv)
    if not (SRC / "pseudotal" / "cli.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # located, not imported: children inherit the harness's RSS as the floor of
    # their ru_maxrss, so the untraced harness stays free of numpy
    spec = importlib.util.find_spec("pseudotal")
    if spec is None or Path(spec.origin).resolve().parent != SRC / "pseudotal":
        print(f"error: pseudotal resolves to {spec and spec.origin}", file=sys.stderr)
        return 2
    work = WORK_ROOT / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    record = host_record(args)
    print("host: " + json.dumps(record, sort_keys=True), flush=True)

    steps = wl.chain_steps(work)
    wl.write_configs(work, args.workload, args.seed)
    checker = Checker(args.workload)
    # Set-up runs the chain up to `fuse`: `targets` writes a row only for videos
    # with pseudo labels, and `losses` needs predictions for exactly those. It
    # then scores the chain's pseudo labels by file (`eval`) and in memory.
    for step in [*steps[:3], steps[6], wl.crosscheck_step(work)]:
        rc, _, _, err = run_child(cli_argv(step.argv), work / "setup.err", deadline)
        if rc != 0:
            print(f"error: set-up `{step.cmd}` exited {rc}\n{err}", file=sys.stderr)
            return 1
        checker.step("set-up", step, rc, err)
    pseudo_ids = wl.video_ids(Path(steps[2].outputs[0]))
    wl.write_anchor_predictions(
        work / "anchor_preds.jsonl", wl.read_grids(work / "sp.jsonl", pseudo_ids), args.seed
    )

    try:
        if args.trace:
            metrics = run_traced(work, steps, args.seconds, checker, record)
        else:
            metrics = run_e2e(work, steps, args.seconds, checker, record, deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = tracing.per_layer_units() if args.trace else E2E_UNITS
    failed = min(len(checker.failures), checker.attempted)
    record.update(
        digests=checker.digests, failures=checker.failures, attempted=checker.attempted,
        metrics=metrics,
    )
    for path in work.iterdir():
        if path.name != "spans.json":  # corpus files are large; keep only the record
            path.unlink()
    (work / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for line in checker.failures:
        print("FAILED " + line, file=sys.stderr)
    result = {
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # every child inherits this: one vCPU for all processes, so a child never
    # migrates and the reference meets the same neighbours as the subcommands
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.exit(main())
