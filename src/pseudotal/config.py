"""Pipeline configuration: one frozen bundle of every knob, with strict
dict round-tripping and a content hash for report headers, and the two value
types whose range rules it applies (mask band ratios, anchor pyramid)."""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import reprlib
from dataclasses import dataclass

__all__ = ["PipelineConfig", "ConfigSchemaError", "TOOL_VERSION", "MaskParams", "PyramidConfig"]

TOOL_VERSION = "0.1.0"

# the mAP tIoU ladder: 0.1 to 0.7 in steps of 0.1
DEFAULT_TIOU_THRESHOLDS = tuple(round(0.1 * i, 1) for i in range(1, 8))


class ConfigSchemaError(ValueError):
    """A config mapping names keys that are not fields of the config, or gives
    a field a value of the wrong JSON type."""


# The JSON values a field of each type takes: an int field a JSON integer (a
# bool is none), a float field any JSON number, a str field a string; a tuple
# field takes a JSON list (from Python, also a tuple) of its entry type.
_JSON_TYPES = {
    "int": ((int,), "integer"), "float": ((int, float), "number"), "str": ((str,), "string"),
}


def config_from_dict(cls, data: dict, what: str = "config"):
    """`cls(**data)` for a config dataclass, strictly: an unknown key raises
    `ConfigSchemaError`; the constructor checks the values."""
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigSchemaError(f"unknown {what} keys: {sorted(unknown)}")
    return cls(**data)


def check_fields(config, what: str) -> None:
    """The first check of each config dataclass, naming the key: every field
    holds its JSON type (`ConfigSchemaError`), then no float is NaN or
    infinite (`ValueError`). A tuple field given a list stores it as a tuple,
    so the config stays hashable; a tuple is shown as the JSON list it came
    from, and a value by a bounded repr, so one nested near the decoder's depth
    limit prints a few levels and cannot overflow the stack."""
    fields = [(f.name, getattr(config, f.name), str(f.type)) for f in dataclasses.fields(config)]
    shown = {key: list(value) if isinstance(value, tuple) else value for key, value, _ in fields}
    for key, value, kind in fields:
        entry = kind.removeprefix("tuple[").split(",")[0]  # "tuple[int, int]": "int"
        types, noun = _JSON_TYPES[entry]
        many = entry != kind
        entries = value if many else [value]
        if (many and not isinstance(value, (list, tuple))) or any(
            isinstance(v, bool) or not isinstance(v, types) for v in entries
        ):
            need = f"a JSON list of {noun}s" if many else f"a JSON {noun}"
            got = reprlib.repr(shown[key])
            raise ConfigSchemaError(f"{what} key {key!r} must be {need}, got {got}")
        if many:
            object.__setattr__(config, key, tuple(value))
    for key, value, _ in fields:
        entries = value if isinstance(value, (tuple, list)) else (value,)
        if not all(math.isfinite(v) for v in entries if isinstance(v, float)):
            raise ValueError(f"{what} key {key!r} must be finite, got {reprlib.repr(shown[key])}")


@dataclass(frozen=True)
class MaskParams:
    """Uncertainty-mask boundary-band ratios: alpha expands outward, beta
    shrinks inward."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError("alpha must be nonnegative")
        if not (math.isfinite(self.beta) and self.beta >= 0):
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
        ths = tuple(float(t) for t in self.thresholds)
        if not ths or any(not 0.0 < t < 1.0 for t in ths):
            raise ValueError("thresholds must be a nonempty subset of (0, 1)")
        object.__setattr__(self, "thresholds", ths)
        if not 0.0 < self.oic_inflation <= 1.0:
            raise ValueError("oic_inflation must lie in (0, 1]")
        if self.sigma_nms <= 0:
            raise ValueError("sigma_nms must be positive")
        if self.extract_on not in ("sps", "attention"):
            raise ValueError("extract_on must be 'sps' or 'attention'")
        if self.min_duration_snippets < 0:
            raise ValueError("min_duration_snippets must be nonnegative")
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

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        return config_from_dict(cls, data)

    def config_hash(self) -> str:
        """Stable 12-hex digest of the canonical JSON form."""
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]
