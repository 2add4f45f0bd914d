"""Spans and counts around the calls into each layer of the package.

Nothing in the package is edited: `patched` replaces public functions at
the module attributes where `pseudotal.cli`, `pseudotal.sim` and
`pseudotal.evaluation` look them up, and restores them on exit. A span
records name, start, end and parent; a layer's self time is its span
duration minus the durations of its direct child spans. Counts that need
extra work (raw runs before soft-NMS, matching pairs) are taken in a
side step after the wrapped call returns, inside a `trace.side_step`
span that is subtracted from its parent's self time like any child.
"""
from __future__ import annotations

import contextlib
import inspect
import time
from collections import Counter
from typing import Callable

from workloads import STRATEGIES

COMMANDS = ("simulate", "extract", "fuse", "mask", "targets", "losses", "eval", "benchmark")
LAYERS = ("cli", "sim", "weak_branch", "fusion", "mask", "targets", "evaluation")

# span name -> per-layer metric that sums the self time of those spans
SPAN_MS = {
    "sim.gen_corpus": "sim.gen_corpus_ms",
    "sim.corrupt_predictions": "sim.corrupt_predictions_ms",
    "weak_branch.weak_proposals": "weak_branch.weak_proposals_ms",
    **{f"fusion.{s}": f"fusion.{s}_ms" for s in STRATEGIES},
    "mask.mask_for_proposal": "mask.ms",
    "mask.union_masks": "mask.ms",
    "targets.build_targets": "targets.build_targets_ms",
    "targets.cls_loss": "targets.cls_loss_ms",
    "targets.reg_loss": "targets.reg_loss_ms",
    "targets.att_loss": "targets.att_loss_ms",
    "evaluation.map_table": "evaluation.map_table_ms",
    "evaluation.pseudo_quality": "evaluation.pseudo_quality_ms",
    **{f"cli.{c}": f"cli.{c}.self_ms" for c in COMMANDS},
}

COUNTS = (
    *(f"cli.{c}.{d}" for c in COMMANDS for d in ("bytes_in", "bytes_out")),
    "weak_branch.calls",
    "weak_branch.proposals_out",
    *(f"fusion.pseudos_out.{s}" for s in STRATEGIES),
    "targets.positives",
    "targets.empty_videos",
    "evaluation.ap_calls",
    "evaluation.pairs",
)


def layer_self_ns(spans_self_ns) -> Counter:
    """Self time per layer of (span, self time) pairs, with the side steps
    under "trace"; a span whose name maps to no layer is dropped."""
    out = Counter()
    for span, ns in spans_self_ns:
        layer = "trace" if span["name"] == "trace.side_step" else span["name"].split(".")[0]
        if layer in (*LAYERS, "trace"):
            out[layer] += ns
    return out


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {name: "ms" for name in SPAN_MS.values()}
    units.update({f"{layer}.self_ms": "ms" for layer in LAYERS})
    units.update({name: "bytes" if ".bytes_" in name else "count" for name in COUNTS})
    units.update(
        {
            "weak_branch.nms_keep_ratio": "ratio",
            "mask.uncertain_frac": "ratio",
            "trace.overhead_frac": "ratio",
        }
    )
    return units


class Tracer:
    """Spans and counts of every repetition, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: list[Counter] = []
        self._stack: list[int] = []
        self._rep_starts: list[int] = []

    def new_rep(self) -> None:
        self.counts.append(Counter())
        self._rep_starts.append(len(self.spans))

    @property
    def rep(self) -> int:
        return len(self.counts) - 1

    def count(self, name: str, n: float = 1) -> None:
        self.counts[-1][name] += n

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "rep": self.rep,
            "name": name,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
            "parent": self._stack[-1] if self._stack else None,
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, fn: Callable, name, after: Callable | None = None) -> Callable:
        """`fn` inside a span; `name` is a string or a function of the call's
        arguments; `after(args, kwargs, result)` runs once it returns, in a
        span of its own that no layer metric counts."""

        def wrapper(*args, **kwargs):
            with self.span(name if isinstance(name, str) else name(args, kwargs)):
                result = fn(*args, **kwargs)
            if after is not None:
                # a child span of the caller, so the side step is not self time
                with self.span("trace.side_step"):
                    after(args, kwargs, result)
            return result

        return wrapper

    def self_ns(self, lo: int, hi: int | None = None) -> list[tuple[dict, int]]:
        """(span, self time) for spans[lo:hi], a range that holds whole subtrees."""
        spans = self.spans[lo:hi]
        child_ns = Counter()
        for span in spans:
            if span["parent"] is not None:
                child_ns[span["parent"]] += span["end_ns"] - span["start_ns"]
        return [
            (span, span["end_ns"] - span["start_ns"] - child_ns[lo + i])
            for i, span in enumerate(spans)
        ]

    def rep_metrics(self, rep: int) -> dict[str, float]:
        """Per-layer metrics of one traced repetition (without the overhead)."""
        out = dict.fromkeys(per_layer_units(), 0.0)
        del out["trace.overhead_frac"]
        bounds = self._rep_starts[rep : rep + 2]
        spans = self.self_ns(bounds[0], bounds[1] if len(bounds) > 1 else None)
        for span, ns in spans:
            if span["name"] in SPAN_MS:
                out[SPAN_MS[span["name"]]] += ns / 1e6
        for layer, ns in layer_self_ns(spans).items():
            if layer in LAYERS:
                out[layer + ".self_ms"] += ns / 1e6
        counts = self.counts[rep]
        out.update({name: float(counts[name]) for name in COUNTS})
        out["weak_branch.nms_keep_ratio"] = counts["weak_branch.proposals_out"] / max(
            counts["weak_branch.raw_runs"], 1
        )
        out["mask.uncertain_frac"] = counts["mask.uncertain"] / max(counts["mask.snippets"], 1)
        return out


def _binder(fn: Callable) -> Callable:
    """Map a call's arguments to `fn`'s parameter names, defaults applied."""
    sig = inspect.signature(fn)

    def bind(args, kwargs) -> dict:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install the span wrappers for the duration of the block."""
    from pseudotal import cli, evaluation, fusion, sim, weak_branch

    weak_args = _binder(weak_branch.weak_proposals)
    fuse_args = _binder(fusion.generate_pseudo_labels)
    map_args = _binder(evaluation.map_table)

    def weak_after(args, kwargs, result):
        # raw runs before soft-NMS, recomputed the way weak_proposals does for
        # the default extract_on="sps", which the benchmark config keeps
        a = weak_args(args, kwargs)
        preds = a["preds"]
        sps = weak_branch.compute_sps(preds.attention, preds.class_scores)
        raw = weak_branch.extract_proposals(sps, a["grid"], a["thresholds"], a["label"])
        tracer.count("weak_branch.calls")
        tracer.count("weak_branch.raw_runs", len(raw))
        tracer.count("weak_branch.proposals_out", len(result))

    def fusion_name(args, kwargs):
        return "fusion." + str(fuse_args(args, kwargs)["strategy"]).lower()

    def fusion_after(args, kwargs, result):
        tracer.count("fusion.pseudos_out." + fusion_name(args, kwargs).split(".")[1], len(result))

    def union_after(args, kwargs, result):
        tracer.count("mask.uncertain", result.uncertain_count())
        tracer.count("mask.snippets", result.grid.num_snippets)

    def targets_after(args, kwargs, result):
        positive = result.class_label > 0
        tracer.count("targets.positives", int(positive.sum()))
        tracer.count("targets.empty_videos", int(not (positive & (result.mask_bit == 1)).any()))

    def map_after(args, kwargs, result):
        a = map_args(args, kwargs)
        gt = Counter(
            (vid, c) for vid, items in a["ground_truth"].segments.items() for _, c in items
        )
        tracer.count(
            "evaluation.pairs",
            sum(gt[(vid, p.class_id)] for vid, plist in a["predictions"].items() for p in plist),
        )

    def ap_counter(fn):
        def wrapper(*args, **kwargs):
            tracer.count("evaluation.ap_calls")
            return fn(*args, **kwargs)

        return wrapper

    def wrap(module, attr, name, after=None):
        return module, attr, tracer.wrap(getattr(module, attr), name, after)

    replacements = [
        wrap(cli, "gen_corpus", "sim.gen_corpus"),
        wrap(cli, "corrupt_predictions", "sim.corrupt_predictions"),
        wrap(cli, "weak_proposals", "weak_branch.weak_proposals", weak_after),
        wrap(cli, "generate_pseudo_labels", fusion_name, fusion_after),
        wrap(cli, "mask_for_proposal", "mask.mask_for_proposal"),
        wrap(cli, "union_masks", "mask.union_masks", union_after),
        wrap(cli, "build_targets", "targets.build_targets", targets_after),
        wrap(cli, "cls_loss", "targets.cls_loss"),
        wrap(cli, "reg_loss", "targets.reg_loss"),
        wrap(cli, "att_loss", "targets.att_loss"),
        wrap(cli, "map_table", "evaluation.map_table", map_after),
        wrap(cli, "run_benchmark", "sim.run_benchmark"),
        wrap(sim, "gen_corpus", "sim.gen_corpus"),
        wrap(sim, "corrupt_predictions", "sim.corrupt_predictions"),
        wrap(sim, "weak_proposals", "weak_branch.weak_proposals", weak_after),
        wrap(sim, "generate_pseudo_labels", fusion_name, fusion_after),
        wrap(sim, "pseudo_quality", "evaluation.pseudo_quality"),
        wrap(evaluation, "map_table", "evaluation.map_table", map_after),
        (evaluation, "average_precision", ap_counter(evaluation.average_precision)),
    ]
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    try:
        for module, attr, fn in replacements:
            setattr(module, attr, fn)
        yield
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)
