"""Pseudo-label pipeline for weakly supervised temporal action localization.

The weak branch turns snippet attention and class scores into scored
proposals; wavelet fusion merges them into pseudo proposals (both carried
as `Segments`, the columns of one video's scored segments); the mask
and target modules build the supervision an anchor-based localizer
trains on; evaluation scores everything as mAP over tIoU thresholds; and
the simulator provides seeded synthetic corpora for end-to-end checks.
"""
import importlib

from .config import TOOL_VERSION

# each exported name, by the module that defines it; a name loads its module
# on first access (PEP 562), so a process loads only the modules it uses
_EXPORTS = {
    "config": ("TOOL_VERSION", "PipelineConfig", "MaskParams", "PyramidConfig"),
    "core": ("GroundTruthSet", "Segment", "Segments", "SnippetPredictions",
             "TimeGrid", "snippet_centers"),
    "evaluation": ("DEFAULT_TIOU_THRESHOLDS", "EvalReport", "PseudoQuality",
                   "average_precision", "map_table", "pseudo_quality"),
    "fusion": ("FusedWavelet", "RickerParams", "fuse_ricker", "generate_pseudo_labels",
               "ricker_value", "segments_from_wavelet"),
    "mask": ("SnippetMask", "mask_for_proposal", "union_masks"),
    "sim": ("BenchmarkResult", "CorpusLayout", "SimConfig", "benchmark_many",
            "corrupt_predictions", "gen_corpus", "run_benchmark"),
    "targets": ("AnchorPredictions", "AnchorTargets", "assign_level", "att_loss",
                "build_targets", "cls_loss", "focal_loss", "reg_loss", "total_loss"),
    "weak_branch": ("VideoLabel", "compute_sps", "extract_proposals", "soft_nms",
                    "weak_proposals"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = TOOL_VERSION

__all__ = list(_MODULE_OF)


def lazy_globals(namespace: dict, modules: tuple[str, ...]):
    """`(bind, __getattr__)` of a module that calls other modules' `__all__`
    through its globals, `namespace`: `bind(*names)` binds those of the named
    modules, keeping a name bound before (a wrapper of bench/tracing.py), and
    `__getattr__` binds `modules` in turn until one defines the name."""

    def bind(*names: str) -> None:
        for module in names:
            library = importlib.import_module(f"{__name__}.{module}")
            for name in library.__all__:
                namespace.setdefault(name, getattr(library, name))

    def module_getattr(name: str):
        if not name.startswith("_"):  # a probe such as `__path__` (`from cli import`) loads nothing
            for module in modules:
                bind(module)
                if name in namespace:
                    return namespace[name]
        raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")

    return bind, module_getattr


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value
