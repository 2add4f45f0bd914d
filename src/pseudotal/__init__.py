"""Pseudo-label pipeline for weakly supervised temporal action localization.

The weak branch turns snippet attention and class scores into scored
proposals; wavelet fusion merges them into pseudo proposals (both carried
as `Segments`, the columns of one video's scored segments); the mask
and target modules build the supervision an anchor-based localizer
trains on; evaluation scores everything as mAP over tIoU thresholds; and
the simulator provides seeded synthetic corpora for end-to-end checks.
"""
from .config import TOOL_VERSION, PipelineConfig
from .core import (
    Interval,
    Segment,
    Segments,
    SnippetPredictions,
    TimeGrid,
    snippet_centers,
    span_tiou,
)
from .evaluation import (
    DEFAULT_TIOU_THRESHOLDS,
    EvalReport,
    GroundTruthSet,
    PseudoQuality,
    average_precision,
    map_table,
    pseudo_quality,
)
from .fusion import (
    FusedWavelet,
    RickerParams,
    fuse_ricker,
    generate_pseudo_labels,
    ricker_value,
    segments_from_wavelet,
)
from .mask import (
    MaskParams,
    SnippetMask,
    decay_schedule,
    mask_for_proposal,
    union_masks,
)
from .sim import (
    BenchmarkResult,
    CorpusLayout,
    SimConfig,
    benchmark_many,
    corrupt_predictions,
    gen_corpus,
    run_benchmark,
)
from .targets import (
    AnchorPredictions,
    AnchorTargets,
    PyramidConfig,
    assign_level,
    att_loss,
    build_targets,
    cls_loss,
    focal_loss,
    reg_loss,
    total_loss,
)
from .weak_branch import (
    VideoLabel,
    compute_sps,
    extract_proposals,
    soft_nms,
    weak_proposals,
)

__version__ = TOOL_VERSION

__all__ = [
    "TOOL_VERSION",
    "PipelineConfig",
    "Interval",
    "Segment",
    "Segments",
    "SnippetPredictions",
    "TimeGrid",
    "snippet_centers",
    "span_tiou",
    "DEFAULT_TIOU_THRESHOLDS",
    "EvalReport",
    "GroundTruthSet",
    "PseudoQuality",
    "average_precision",
    "map_table",
    "pseudo_quality",
    "FusedWavelet",
    "RickerParams",
    "fuse_ricker",
    "generate_pseudo_labels",
    "ricker_value",
    "segments_from_wavelet",
    "MaskParams",
    "SnippetMask",
    "decay_schedule",
    "mask_for_proposal",
    "union_masks",
    "BenchmarkResult",
    "CorpusLayout",
    "SimConfig",
    "benchmark_many",
    "corrupt_predictions",
    "gen_corpus",
    "run_benchmark",
    "AnchorPredictions",
    "AnchorTargets",
    "PyramidConfig",
    "assign_level",
    "att_loss",
    "build_targets",
    "cls_loss",
    "focal_loss",
    "reg_loss",
    "total_loss",
    "VideoLabel",
    "compute_sps",
    "extract_proposals",
    "soft_nms",
    "weak_proposals",
]
