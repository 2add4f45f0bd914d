"""numpy is the only runtime dependency: every module of the package imports
only the standard library, numpy, or the package itself. Every exported name
resolves, and the package itself uses it and each method and property of
its classes, unless an acceptance gate or the benchmark tracer is the one
caller."""
import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pseudotal"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "pseudotal"}


def _top_level_imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_and_package(path):
    assert _top_level_imports(path) - ALLOWED == set()


def test_scan_sees_the_package():
    assert len(list(PACKAGE.glob("*.py"))) >= 9
    assert "numpy" in _top_level_imports(PACKAGE / "core.py")


# the package and each of its modules
MODULES = ["pseudotal"] + [
    f"pseudotal.{p.stem}" for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"
]


@pytest.mark.parametrize("module", MODULES)
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


# public names that the command line never reaches, kept because an
# acceptance gate calls them
GATE_ONLY = {"average_precision": "gate 4", "mask_for_proposal": "gate 5",
             "benchmark_many": "gate 8"}
# members that the command line never reaches, kept because bench/tracing.py
# reads them: `uncertain_count` in `union_after`, and `GroundTruthSet.segments`,
# the ground truth as (Segment, class_id) pairs, in `map_after`
BENCH_ONLY = {"uncertain_count", "segments"}


def _loaded_names(node: ast.AST) -> set[str]:
    """Every name read under `node`, bare or as an attribute; a `def`,
    `class`, assignment target or import is no read."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    }


def _bound_names(node: ast.AST) -> set[str]:
    """Every bare name that `node` binds itself: its arguments (and those of
    the functions and lambdas it holds) and its assignment targets."""
    return {n.arg for n in ast.walk(node) if isinstance(n, ast.arg)} | {
        n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
    }


def _called_names(stmt: ast.AST) -> set[str]:
    """The names a top-level function or class reaches: `_loaded_names`, less
    the bare names it binds itself, so a local variable that shares a
    function's name does not reach that function."""
    bound = _bound_names(stmt)
    return {
        n.attr if isinstance(n, ast.Attribute) else n.id
        for n in ast.walk(stmt)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
        and not (isinstance(n, ast.Name) and n.id in bound)
    }


def _members(stmt: ast.ClassDef) -> list[ast.FunctionDef]:
    """The methods and properties of a class but its dunder methods, which
    Python calls for the class itself."""
    return [node for node in stmt.body if isinstance(node, ast.FunctionDef)
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def test_every_public_name_is_called():
    """Every `__all__` name, every top-level function or class of the package
    and every method and property of those classes is reached from the command
    line (`cli.main` and the module-level tables), through the bodies of what
    it reaches; only GATE_ONLY and BENCH_ONLY are not. A member is its own
    body, reached by its name; a class's dunder methods are part of its body."""
    bodies: dict[str, set[str]] = {}
    # the console script's entry point, and the attribute hook that Python
    # itself calls (PEP 562)
    reached = {"main", "__getattr__"}
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            if isinstance(stmt, ast.ClassDef):
                for member in _members(stmt):
                    bodies.setdefault(member.name, set()).update(_called_names(member))
                    stmt.body.remove(member)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                bodies.setdefault(stmt.name, set()).update(_called_names(stmt))
            else:
                reached |= _loaded_names(stmt)
    todo = list(reached)
    while todo:
        for name in bodies.get(todo.pop(), set()) - reached:
            reached.add(name)
            todo.append(name)
    public = {name for module in MODULES for name in importlib.import_module(module).__all__}
    unreached = (public | set(bodies)) - reached
    kept = set(GATE_ONLY) | BENCH_ONLY
    assert sorted(unreached - kept) == []
    assert sorted(kept - unreached) == []  # a reached name is no gate- or bench-only name
    acceptance = (PACKAGE.parents[1] / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    assert sorted(set(GATE_ONLY) - _loaded_names(ast.parse(acceptance))) == []
    tracer = (PACKAGE.parents[1] / "bench" / "tracing.py").read_text(encoding="utf-8")
    assert sorted(BENCH_ONLY - _loaded_names(ast.parse(tracer))) == []


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """Valid inputs of every subcommand, from a small seeded corpus."""
    from pseudotal.cli import main

    d = tmp_path_factory.mktemp("chain")
    f = {name: str(d / f"{name}.jsonl") for name in ("sp", "gt", "props", "pseudos", "mask",
                                                      "targets", "preds")}
    f["config"] = str(d / "config.json")
    Path(f["config"]).write_text(json.dumps({"sim": {"seed": 1, "num_videos": 3,
                                                     "class_count": 2}}))
    for argv in (["simulate", "--config", f["config"], "--gt", f["gt"], "--output", f["sp"]],
                 ["extract", "--input", f["sp"], "--gt", f["gt"], "--output", f["props"]],
                 ["fuse", "--input", f["props"], "--input", f["sp"], "--output", f["pseudos"]],
                 ["mask", "--input", f["pseudos"], "--input", f["sp"], "--output", f["mask"]],
                 ["targets", "--input", f["pseudos"], "--input", f["sp"], "--input", f["mask"],
                  "--output", f["targets"]]):
        assert main(argv) == 0
    f["props1"] = str(d / "props1.jsonl")  # the proposals of one video, for --wavelet-csv
    rows = [json.loads(line) for line in Path(f["props"]).read_text().splitlines()[1:]]
    Path(f["props1"]).write_text("".join(json.dumps(row) + "\n" for row in rows
                                         if row["video_id"] == rows[0]["video_id"]))
    with open(f["preds"], "w", encoding="utf-8") as fh:
        for line in Path(f["targets"]).read_text(encoding="utf-8").splitlines()[1:]:
            row = json.loads(line)
            n = len(row["class_label"])
            fh.write(json.dumps({"video_id": row["video_id"], "class_probs": [[0.5] * 3] * n,
                                 "reg_left": [1.0] * n, "reg_right": [1.0] * n}) + "\n")
    f["out"], f["csv"] = str(d / "out"), str(d / "wavelet.csv")
    return f


# each step (a subcommand, then what sets the run apart) with its arguments
# (names of `chain` files) and the package modules it loads besides cli,
# config and core; every branch of a handler that calls the library is a step.
# Each step that reads input files (`--input`) loads the readers; `--help`,
# `simulate` and `benchmark` never do, and `simulate` loads no strategy sweep.
STEPS = {
    "--help": ([], set()),
    "eval": (["--input", "props", "--gt", "gt"], {"readers", "evaluation"}),
    "mask": (["--input", "pseudos", "--input", "sp"], {"readers", "mask"}),
    "targets": (["--input", "pseudos", "--input", "sp", "--input", "mask"],
                {"readers", "mask", "targets"}),
    "losses": (["--input", "preds", "--input", "targets", "--input", "sp", "--gt", "gt"],
               {"readers", "mask", "targets", "weak_branch"}),
    "losses without an SP file": (["--input", "preds", "--input", "targets"],
                                  {"readers", "mask", "targets", "weak_branch"}),
    "extract": (["--input", "sp", "--gt", "gt"], {"readers", "weak_branch"}),
    "fuse": (["--input", "props", "--input", "sp"], {"readers", "fusion"}),
    "fuse --wavelet-csv": (["--input", "props1", "--input", "sp", "--wavelet-csv", "csv"],
                           {"readers", "fusion"}),
    "simulate": (["--config", "config"], {"sim"}),
    "benchmark": (["--config", "config", "--strategy", "soft"],
                  {"evaluation", "fusion", "sim", "weak_branch"}),
}

# runs `cli.main` on argv in a fresh interpreter; prints the exit code, whether
# `import numpy` alone loads numpy.random (numpy < 2 does), the modules loaded
# when the first input file is opened (or null) and at the end. Only a step
# that reads input files has the readers patched, so no other loads them here.
PROBE = """
import json, sys
import numpy
eager = "numpy.random" in sys.modules
from pseudotal import cli
first_read = []
if "--input" in sys.argv:
    from pseudotal import readers
    rows = readers._rows
    def first_rows(*args, **kwargs):
        first_read.append(sorted(sys.modules))
        return rows(*args, **kwargs)
    readers._rows = first_rows
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, eager, (first_read or [None])[0], sorted(sys.modules)]))
"""


def _fresh(code: str, *argv: str):
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("step", STEPS)
def test_each_subcommand_loads_only_its_modules(chain, step):
    """A subcommand compiles and runs only the package modules it calls, in
    a fresh interpreter: `eval` no simulator, fusion, weak branch, mask or
    targets; only `simulate` and `benchmark` draw random numbers. Each has
    loaded them all before it reads its first input, while its memory is
    small. AP is summed on integers, so none imports `fractions` (or
    `decimal`)."""
    argv, extra = STEPS[step]
    argv = [step] if step == "--help" else [step.split()[0], *(chain.get(a, a) for a in argv),
                                            "--output", chain["out"]]
    code, eager, first_read, modules = _fresh(PROBE, *argv)
    assert code == 0
    for names in (first_read, modules):
        if names is not None:
            loaded = {m.split(".", 1)[1] for m in names if m.startswith("pseudotal.")}
            assert loaded == {"cli", "config", "core"} | extra
    assert (first_read is None) == ("readers" not in extra)
    assert ("numpy.random" in modules) == (eager or step in ("simulate", "benchmark"))
    assert {"fractions", "decimal"} & set(modules) == set()


def test_the_tracer_finds_and_wraps_its_cli_names(chain):
    """bench/tracing.py looks up the names it wraps on `cli` by attribute and
    replaces them there; a handler calls the replacement. In a fresh
    interpreter every such name resolves, and in another a counting wrapper
    of each of seven is called by its subcommand. The tracer charges
    corruption to `sim.corrupt_predictions` spans, so `simulate` calls
    `cli.corrupt_predictions`, and `benchmark` `sim.corrupt_predictions`,
    once per video."""
    tracer = (PACKAGE.parents[1] / "bench" / "tracing.py").read_text(encoding="utf-8")
    names = re.findall(r'wrap\(cli, "(\w+)"', tracer)
    assert len(names) == 12
    resolve = f"from pseudotal import cli; print(sum(callable(getattr(cli, n)) for n in {names}))"
    assert _fresh(resolve) == len(names)
    runs = {
        "weak_proposals": ["extract", "--input", chain["sp"], "--gt", chain["gt"]],
        "generate_pseudo_labels": ["fuse", "--input", chain["props"], "--input", chain["sp"]],
        "map_table": ["eval", "--input", chain["props"], "--gt", chain["gt"]],
        "union_masks": ["mask", "--input", chain["pseudos"], "--input", chain["sp"]],
        "build_targets": ["targets", "--input", chain["pseudos"], "--input", chain["sp"],
                          "--input", chain["mask"]],
        "gen_corpus": ["simulate", "--config", chain["config"]],
        "corrupt_predictions": ["simulate", "--config", chain["config"]],
    }
    code = f"""
import json
from collections import Counter
from pseudotal import cli
calls = Counter()
def counting(name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper
for name, argv in {runs!r}.items():
    setattr(cli, name, counting(name, getattr(cli, name)))
    assert cli.main([*argv, "--output", {chain["out"]!r}]) == 0, argv
from pseudotal import sim
sim.corrupt_predictions = counting("sim.corrupt_predictions", sim.corrupt_predictions)
assert cli.main(["benchmark", "--config", {chain["config"]!r}, "--strategy", "soft",
                 "--output", {chain["out"]!r}]) == 0
print(json.dumps(calls))
"""
    calls = _fresh(code)
    assert sorted(name for name in runs if calls.get(name, 0) > 0) == sorted(runs)
    videos = json.loads(Path(chain["config"]).read_text())["sim"]["num_videos"]
    assert calls["corrupt_predictions"] == calls["sim.corrupt_predictions"] == videos


def test_the_tracer_wraps_the_sweep_on_sim(chain):
    """bench/tracing.py wraps three names of the strategy sweep on `sim`,
    which binds them into its globals only when `run_benchmark` runs, and
    calls them there. In a fresh interpreter, counting wrappers set on `sim`
    before a one-strategy `benchmark` are the functions it calls: the weak
    branch and the fusion once per video, the scoring once."""
    tracer = (PACKAGE.parents[1] / "bench" / "tracing.py").read_text(encoding="utf-8")
    names = ["weak_proposals", "generate_pseudo_labels", "pseudo_quality"]
    assert set(names) <= set(re.findall(r'wrap\(sim, "(\w+)"', tracer))
    code = f"""
import json
from collections import Counter
from pseudotal import cli, sim
calls = Counter()
def counting(name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper
for name in {names!r}:
    setattr(sim, name, counting(name, getattr(sim, name)))
assert cli.main(["benchmark", "--config", {chain["config"]!r}, "--strategy", "soft",
                 "--output", {chain["out"]!r}]) == 0
print(json.dumps(calls))
"""
    videos = json.loads(Path(chain["config"]).read_text())["sim"]["num_videos"]
    assert _fresh(code) == {"weak_proposals": videos, "generate_pseudo_labels": videos,
                            "pseudo_quality": 1}


def test_the_tracer_binds_parameter_names_that_exist():
    """bench/tracing.py binds the arguments of three library functions by
    parameter name (`_binder`), so renaming one of those parameters breaks
    every traced run. Each name the tracer reads off a bound call, taken from
    its source, is a parameter of the function it binds."""
    import inspect

    tree = ast.parse((PACKAGE.parents[1] / "bench" / "tracing.py").read_text(encoding="utf-8"))
    # `weak_args = _binder(weak_branch.weak_proposals)`: binder -> (module, function)
    binders = {
        node.targets[0].id: (node.value.args[0].value.id, node.value.args[0].attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
        and getattr(node.value.func, "id", None) == "_binder"
    }
    read: dict[tuple[str, str], set[str]] = {}
    for fn in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
        own, todo = [], list(fn.body)  # the nodes of `fn`, not of the functions it defines
        while todo:
            own.append(todo.pop())
            if not isinstance(own[-1], ast.FunctionDef):
                todo.extend(ast.iter_child_nodes(own[-1]))
        # `a = weak_args(args, kwargs)`, then `a["preds"]`; or `fuse_args(...)["strategy"]`
        local = {
            node.targets[0].id: node.value.func.id
            for node in own
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "id", None) in binders
        }
        for node in own:
            if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
                value = node.value
                binder = (local.get(value.id) if isinstance(value, ast.Name)
                          else getattr(getattr(value, "func", None), "id", None))
                if binder in binders:
                    read.setdefault(binders[binder], set()).add(node.slice.value)
    assert read == {
        ("weak_branch", "weak_proposals"): {"preds", "grid", "label", "thresholds"},
        ("fusion", "generate_pseudo_labels"): {"strategy"},
        ("evaluation", "map_table"): {"predictions", "ground_truth"},
    }
    for (module, name), keys in read.items():
        fn = getattr(importlib.import_module(f"pseudotal.{module}"), name)
        assert keys - set(inspect.signature(fn).parameters) == set(), name


def test_ground_truth_is_one_type():
    """`GroundTruthSet` is defined in `core`; the package and `evaluation`
    hand out that one class."""
    import pseudotal
    from pseudotal import core, evaluation

    assert pseudotal.GroundTruthSet is core.GroundTruthSet is evaluation.GroundTruthSet
