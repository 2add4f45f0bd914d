"""Pipeline configuration: one frozen bundle of every knob, with strict
dict round-tripping and a content hash for report headers, the two value
types whose range rules it applies (mask band ratios, anchor pyramid), and
what a stage reads of it, checked once: the weak branch's arguments, the
fusion's minimum duration and each epoch's mask band ratios. Also `SchemaError`
(exit 2), `undecodable` and `blame` (a fault's file)."""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass

from .core import MAX_GRID_CELLS, shown

__all__ = ["PipelineConfig", "SchemaError", "TOOL_VERSION", "MaskParams", "PyramidConfig"]

TOOL_VERSION = "0.1.0"

# the mAP tIoU ladder: 0.1 to 0.7 in steps of 0.1
DEFAULT_TIOU_THRESHOLDS = tuple(round(0.1 * i, 1) for i in range(1, 8))


class SchemaError(ValueError):
    """The one schema fault (exit 2): an input file unparsable or shaped wrong,
    a bad output path, or a config key unknown or of the wrong JSON type."""


def undecodable(exc: ValueError | RecursionError) -> str:
    """The message of a text that `json.loads` refuses: not UTF-8, not JSON,
    nested deeper than the interpreter recurses, or holding an integer longer
    than `sys.get_int_max_str_digits()` (the ValueError left)."""
    if isinstance(exc, UnicodeDecodeError):
        return f"not UTF-8 text ({exc.reason})"
    if isinstance(exc, json.JSONDecodeError):
        return f"invalid JSON ({exc.msg})"
    if isinstance(exc, RecursionError):
        return "invalid JSON (nested too deep)"
    return f"invalid JSON (an integer of more than {sys.get_int_max_str_digits()} digits)"


@contextlib.contextmanager
def blame(path: str | None, vid: str | None = None):
    """Name the file at `path`, if any, in a fault that `cli.main` reports: a
    `SchemaError` as `<path>: <message>` (exit 2); another ValueError, TypeError
    or OverflowError (a huge JSON integer overflows) as a ValueError (exit 3),
    `<path>: video <vid>: <message>`, or without `vid` `<path>: <message>`."""
    try:
        yield
    except (ValueError, TypeError, OverflowError) as exc:
        if path is None:
            raise
        if isinstance(exc, SchemaError):
            raise SchemaError(f"{path}: {exc}") from None
        where = path if vid is None else f"{path}: video {vid}"
        raise ValueError(f"{where}: {exc}") from None


# The JSON values a field of each type takes: an int field a JSON integer (a
# bool is none), a float field any JSON number, a str field a string; a tuple
# field takes a JSON list (from Python, also a tuple) of its entry type.
_JSON_TYPES = {
    "int": ((int,), "integer"), "float": ((int, float), "number"), "str": ((str,), "string"),
}


def config_from_dict(cls, data: dict, what: str = "config"):
    """`cls(**data)` for a config dataclass, strictly: an unknown key raises
    `SchemaError`; the constructor checks the values."""
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise SchemaError(f"unknown {what} keys: {sorted(unknown)}")
    return cls(**data)


def check_fields(config, what: str) -> None:
    """The first check of each config dataclass, naming the key: every field
    holds its JSON type (`SchemaError`), then each number of a float field is
    finite: no NaN, infinity or integer past the float range (`ValueError`).
    A tuple field given a list stores it as a tuple, so the config stays
    hashable; a value is shown by `shown`, so one nested near the decoder's
    depth limit cannot overflow the stack."""
    fields = [(f.name, getattr(config, f.name), str(f.type)) for f in dataclasses.fields(config)]
    for key, value, kind in fields:
        entry = kind.removeprefix("tuple[").split(",")[0]  # "tuple[int, int]": "int"
        types, noun = _JSON_TYPES[entry]
        many = entry != kind
        entries = value if many else [value]
        if (many and not isinstance(value, (list, tuple))) or any(
            isinstance(v, bool) or not isinstance(v, types) for v in entries
        ):
            need = f"a JSON list of {noun}s" if many else f"a JSON {noun}"
            raise SchemaError(f"{what} key {key!r} must be {need}, got {shown(value)}")
        if many:
            object.__setattr__(config, key, tuple(value))
    for key, value, kind in fields:
        entries = value if isinstance(value, (tuple, list)) else (value,)
        if "float" in kind and not all(abs(v) <= sys.float_info.max for v in entries):
            raise ValueError(f"{what} key {key!r} must be finite, got {shown(value)}")


@dataclass(frozen=True)
class MaskParams:
    """Uncertainty-mask boundary-band ratios: alpha expands outward, beta
    shrinks inward."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        # finite as in `check_fields`: an int past the float range is not
        if not 0 <= self.alpha <= sys.float_info.max:
            raise ValueError("alpha must be nonnegative")
        if not 0 <= self.beta <= sys.float_info.max:
            raise ValueError("beta must be nonnegative")
        if self.beta >= 0.5:
            raise ValueError("beta must be < 0.5 or the bands swallow the proposal")


# Level l has a stride of 2**l snippets. From level 23 up one anchor covers
# the longest grid (MAX_GRID_CELLS / 2 snippets), so a level past this bound
# only adds another one-anchor level; a huge count would never finish.
MAX_LEVELS = 32


@dataclass(frozen=True)
class PyramidConfig:
    """Multi-scale anchor layout of `num_levels` levels (see `level_sizes`);
    each level owns a band of proposal durations (see `targets.assign_level`)."""

    num_levels: int = 6

    def __post_init__(self) -> None:
        if not 1 <= self.num_levels <= MAX_LEVELS:
            raise ValueError(f"num_levels must lie in [1, {MAX_LEVELS}]")

    def level_sizes(self, grid) -> tuple[int, ...]:
        """ceil(num_snippets / 2**l) anchors at each level l of a `TimeGrid`."""
        return tuple(math.ceil(grid.num_snippets / 2**level) for level in range(self.num_levels))


@dataclass(frozen=True)
class PipelineConfig:
    """Defaults for the whole pipeline; every stage reads from here."""

    k_ratio: int = 8
    # weak-branch extraction thresholds: 0.10 to 0.90 in steps of 0.05
    thresholds: tuple[float, ...] = tuple(round(0.10 + 0.05 * i, 2) for i in range(17))
    oic_inflation: float = 0.25
    sigma_nms: float = 0.5
    min_score: float = 0.001
    extract_on: str = "sps"
    min_duration_snippets: int = 2
    alpha: float = 0.1
    beta: float = 0.0
    tau: float = 0.8
    lambda_att: float = 0.2
    gamma_focal: float = 2.0
    num_levels: int = 6
    warmup_epochs: int = 20
    total_epochs: int = 38
    eval_tious: tuple[float, ...] = DEFAULT_TIOU_THRESHOLDS

    def __post_init__(self) -> None:
        check_fields(self, "config")
        if self.k_ratio < 1:
            raise ValueError("k_ratio must be >= 1")
        if not self.thresholds or any(not 0.0 < t < 1.0 for t in self.thresholds):
            raise ValueError("thresholds must be a nonempty subset of (0, 1)")
        if not 0.0 < self.oic_inflation <= 1.0:
            raise ValueError("oic_inflation must lie in (0, 1]")
        if self.sigma_nms <= 0:
            raise ValueError("sigma_nms must be positive")
        if self.extract_on not in ("sps", "attention"):
            raise ValueError("extract_on must be 'sps' or 'attention'")
        if self.min_duration_snippets < 0:
            raise ValueError("min_duration_snippets must be nonnegative")
        if self.min_duration_snippets > MAX_GRID_CELLS:  # no grid holds a longer run
            raise ValueError(f"min_duration_snippets must be at most {MAX_GRID_CELLS}")
        MaskParams(self.alpha, self.beta)  # the mask checks its band ratios
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        if self.lambda_att < 0:
            raise ValueError("lambda_att must be nonnegative")
        if self.gamma_focal < 0:
            raise ValueError("gamma_focal must be nonnegative")
        PyramidConfig(self.num_levels)  # the anchor pyramid checks its level count
        if not 0 <= self.warmup_epochs < self.total_epochs:
            raise ValueError("need 0 <= warmup_epochs < total_epochs")
        evs = tuple(float(t) for t in self.eval_tious)
        if not evs or any(not 0.0 < t <= 1.0 for t in evs):
            raise ValueError("eval_tious must be a nonempty subset of (0, 1]")
        object.__setattr__(self, "eval_tious", evs)

    def weak_branch(self) -> dict:
        """The keyword arguments of `weak_branch.weak_proposals` from the config."""
        return {"thresholds": self.thresholds, "oic_inflation": self.oic_inflation,
                "sigma_nms": self.sigma_nms, "min_score": self.min_score,
                "extract_on": self.extract_on}

    def min_duration_s(self, grid) -> float:
        """`fusion.generate_pseudo_labels`' `min_duration_s` on a video of `grid`."""
        return self.min_duration_snippets * grid.snippet_duration_s

    def mask_params(self, epoch: int) -> MaskParams:
        """The mask band ratios at `epoch` in [0, `total_epochs`]: `alpha` and
        `beta` through `warmup_epochs`, then shrunk linearly to zero at
        `total_epochs`."""
        if not 0 <= epoch <= self.total_epochs:
            raise ValueError(f"epoch {shown(epoch)} lies outside [0, {self.total_epochs}]")
        if epoch <= self.warmup_epochs:
            return MaskParams(self.alpha, self.beta)
        factor = (self.total_epochs - epoch) / (self.total_epochs - self.warmup_epochs)
        return MaskParams(self.alpha * factor, self.beta * factor)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        return config_from_dict(cls, data)

    def config_hash(self) -> str:
        """Stable 12-hex digest of the canonical JSON form."""
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]
