"""Fixed reference process: how fast the host runs a CLI-like process right now.

    python3 bench/reference.py

It does what a pseudotal subcommand does, without pseudotal: start the
interpreter, import numpy and json, then decode, compute on and encode a
fixed, seeded corpus of JSON-lines rows. It never imports the package, so no
change to the program can change its time; only the host's speed can. The
harness runs it between the subcommands and scales every timing by it (see
README.md, "Host speed"). It prints a digest of its output, which must be
the same on every run.
"""
from __future__ import annotations

import hashlib
import json

import numpy as np

VIDEOS = 150
SNIPPETS = 110
CLASSES = 21


def rows() -> list[str]:
    rng = np.random.default_rng(20250420)
    out = []
    for v in range(VIDEOS):
        scores = rng.random((SNIPPETS, CLASSES))
        scores /= scores.sum(axis=1, keepdims=True)
        out.append(json.dumps({"video_id": f"v{v:03d}", "scores": np.round(scores, 6).tolist()}))
    return out


def digest(lines: list[str]) -> str:
    total = 0.0
    encoded = []
    for line in lines:
        row = json.loads(line)
        scores = np.asarray(row["scores"])
        smooth = np.apply_along_axis(np.convolve, 0, scores, np.ones(5) / 5, "same")
        runs = np.diff((smooth > 1.0 / CLASSES).astype(np.int8), axis=0)
        total += float(smooth.max(axis=1).sum()) + int(np.abs(runs).sum())
        peak = smooth.max(axis=0).tolist()
        encoded.append(json.dumps({"video_id": row["video_id"], "peak": peak}))
    encoded.append(f"{total:.6f}")
    return hashlib.sha256("\n".join(encoded).encode()).hexdigest()


if __name__ == "__main__":
    print(digest(rows()))
