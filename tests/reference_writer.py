"""The CLI's original JSON writer, kept as the byte oracle for `pseudotal.cli`.

It converts element by element: every value of an ndarray goes through
`_jsonable`'s isinstance chain and `_round6` on its own. Tests compare the
bytes the CLI writes against `_dump` here; it is not used by the package.
"""
import json

import numpy as np


def _round6(x: float) -> float:
    return float(f"{float(x):.6g}")


def _jsonable(value):
    """Recursively convert to JSON-ready types with 6-significant-digit floats."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return _round6(value)
    return value


def _dump(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(", ", ": "))
