"""Property test of the input contract: a valid one-video input file has one
field of its row (or the first entry of a list field) replaced by a value
from a fixed pool of JSON values, and the subcommand that reads the file
runs in-process. It exits 0, 2 or 3 and raises nothing; on a nonzero exit
it prints one line that names the changed file and writes no `--output`.
The config's `"sim"` section is mutated the same way and read by
`simulate`. A changed predictions (segment) or ground-truth file also runs
through `eval`. The files and runs are those of contract_files.py."""
import math
import tempfile
from pathlib import Path

import pytest

from contract_files import ALSO_RUNS, EVAL, ROWS, RUNS, run_files

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

POOL = [None, True, "x", {}, [], [[0.5, 0.5], [1.0]], -1, 0, 1.7, math.nan, 10**30, 1e308]

# a config key is read by the subcommand that uses it (k_ratio by none)
CONFIG_RUNS = {
    **dict.fromkeys(["k_ratio", "thresholds", "oic_inflation", "sigma_nms", "min_score",
                     "extract_on"], RUNS["sp"]),
    "min_duration_snippets": RUNS["grid"],
    **dict.fromkeys(["alpha", "beta", "warmup_epochs", "total_epochs"],
                    ["mask", "--input", "{proposals}", "--input", "{grid}"]),
    "num_levels": RUNS["mask"],
    **dict.fromkeys(["tau", "lambda_att", "gamma_focal"], RUNS["targets"]),
    "eval_tious": EVAL,
}


def _argvs(kind: str, key: str) -> list[list]:
    """Every run that reads the file `kind` (its config key `key`)."""
    return [CONFIG_RUNS[key]] if kind == "config" else [RUNS[kind], *ALSO_RUNS.get(kind, [])]


@pytest.mark.parametrize("kind", sorted(ROWS))
def test_valid_files_run(tmp_path, kind):
    keys = sorted(CONFIG_RUNS) if kind == "config" else [None]
    for key in keys:
        for argv in _argvs(kind, key):
            code, err, out, _ = run_files(ROWS, argv, tmp_path)
            assert (code, err) == (0, "") and out.exists()
            out.unlink()


@st.composite
def mutations(draw):
    kind = draw(st.sampled_from(sorted(ROWS)))
    row = dict(ROWS[kind])
    key = draw(st.sampled_from(sorted(row)))
    value = draw(st.sampled_from(POOL))
    if isinstance(row[key], list) and row[key] and draw(st.booleans()):
        row[key] = [value, *row[key][1:]]
    else:
        row[key] = value
    return kind, key, row


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutations())
def test_one_changed_field(mutation):
    kind, key, row = mutation
    for argv in _argvs(kind, key):
        with tempfile.TemporaryDirectory() as directory:
            code, err, out, paths = run_files({**ROWS, kind: row}, argv, Path(directory))
            assert code in (0, 2, 3), argv
            if code:
                assert err.startswith("error: ") and err.count("\n") == 1, err
                assert str(paths[kind]) in err, err
                assert not out.exists()
            else:
                assert err == "" and out.exists()


@pytest.mark.parametrize("kind, argv", [
    ("proposals", RUNS["proposals"]),  # fuse
    ("proposals", CONFIG_RUNS["alpha"]),  # mask
    ("proposals", RUNS["mask"]),  # targets
    ("gt", RUNS["gt"]),  # extract
    ("gt", RUNS["targets"]),  # losses
])
def test_class_beyond_the_grid_of_another_file(tmp_path, kind, argv):
    """A class id past the grid source's (or the SP file's) class count is
    refused where its row is read, naming its own file."""
    files = {**ROWS, kind: {**ROWS[kind], "class_id": 2}}
    code, err, out, paths = run_files(files, argv, tmp_path)
    assert code == 3 and not out.exists()
    assert err == (
        f"error: {paths[kind]}: video v: class_id 2 lies outside the 1 classes of its grid\n"
    )
