"""Pipeline configuration: one frozen bundle of every knob, with strict
dict round-tripping and a content hash for report headers."""
from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

__all__ = ["PipelineConfig", "UnknownKeysError", "TOOL_VERSION"]

TOOL_VERSION = "0.1.0"

# the mAP tIoU ladder: 0.1 to 0.7 in steps of 0.1
DEFAULT_TIOU_THRESHOLDS = tuple(round(0.1 * i, 1) for i in range(1, 8))


class UnknownKeysError(ValueError):
    """A config mapping names keys that are not fields of the config."""


def config_from_dict(cls, data: dict, what: str = "config"):
    """`cls(**data)` for a config dataclass, strictly: unknown keys raise
    `UnknownKeysError`, and every tuple-typed field takes a JSON list."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise UnknownKeysError(f"unknown {what} keys: {sorted(unknown)}")
    return cls(
        **{
            k: tuple(v) if str(fields[k].type).startswith("tuple") else v
            for k, v in data.items()
        }
    )


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
        if self.alpha < 0 or self.beta < 0 or self.beta >= 0.5:
            raise ValueError("mask ratios need alpha >= 0 and 0 <= beta < 0.5")
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        if self.lambda_att < 0:
            raise ValueError("lambda_att must be nonnegative")
        if self.gamma_focal < 0:
            raise ValueError("gamma_focal must be nonnegative")
        if self.num_levels < 1:
            raise ValueError("num_levels must be >= 1")
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
