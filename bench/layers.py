"""Which qmyo functions the traced run wraps, and the per-layer metrics read from them.

Metric names are ``<module>.<function>.<stat>``. ``calls`` and ``self_s``
come from the spans; ``items``, ``rows`` and ``bytes`` from the arguments
and results the "keep" spans hold until the pass ends, so reading them
costs nothing inside the timed region. The ``control`` outcome counts are
read from the decoded actions the same way.
"""

import os
import statistics

from spans import PASS_SPAN

# (qualified name, mode): "span" times the call, "keep" also keeps its
# arguments and result for the pass, "count" only counts calls (their time
# stays with the enclosing span, so per-expectation spans do not swamp it).
TARGETS = [
    ("qmyo.cli.main", "span"),
    ("qmyo.control.decode_features", "keep"),
    ("qmyo.control.decode_dof", "count"),
    ("qmyo.control.expectation", "count"),
    ("qmyo.state.encode", "span"),
    ("qmyo.features.segment_windows", "keep"),
    ("qmyo.features.mav", "span"),
    ("qmyo.datasets.save_feature_dataset", "keep"),
    ("qmyo.datasets.load_feature_dataset", "keep"),
    ("qmyo.datasets.to_training_samples", "keep"),
    ("qmyo.datasets.save_decode_csv", "keep"),
    ("qmyo.datasets.to_blocks", "span"),
    ("qmyo.operators.train", "keep"),
    ("qmyo.operators.build_prototype", "keep"),
    ("qmyo.operators.overlap_curve", "span"),
    ("qmyo.operators.save_model", "keep"),
    ("qmyo.operators.load_model", "keep"),
    ("qmyo.synthetic.generate_training_set", "keep"),
    ("qmyo.synthetic.generate_test_scenario", "keep"),
    ("qmyo.evaluation.block_errors", "span"),
    ("qmyo.evaluation.r_squared_global", "span"),
    ("qmyo.evaluation.r_squared_dof", "span"),
    ("qmyo.experiment.evaluate_model", "span"),
    ("qmyo.experiment.subset_per_action", "span"),
    ("qmyo.experiment.render_report_text", "span"),
]

_UNITS = {"calls": "count", "items": "count", "rows": "count", "self_s": "s", "bytes": "B"}

_STATS = {
    "control.decode_features": ("calls", "self_s"),
    "control.decode_dof": ("calls",),
    "control.expectation": ("calls",),
    "state.encode": ("calls", "self_s"),
    "features.segment_windows": ("items", "self_s"),
    "features.mav": ("calls", "self_s"),
    "datasets.save_feature_dataset": ("rows", "bytes", "self_s"),
    "datasets.load_feature_dataset": ("rows", "bytes", "self_s"),
    "datasets.to_training_samples": ("items", "self_s"),
    "datasets.save_decode_csv": ("rows", "bytes", "self_s"),
    "datasets.to_blocks": ("self_s",),
    "operators.train": ("calls", "items", "self_s"),
    "operators.build_prototype": ("calls", "self_s"),
    "operators.overlap_curve": ("self_s",),
    "operators.save_model": ("bytes", "self_s"),
    "operators.load_model": ("bytes", "self_s"),
    "synthetic.generate_training_set": ("items", "self_s"),
    "synthetic.generate_test_scenario": ("items", "self_s"),
    "evaluation.block_errors": ("self_s",),
    "evaluation.r_squared_global": ("self_s",),
    "evaluation.r_squared_dof": ("self_s",),
    "experiment.evaluate_model": ("self_s",),
    "experiment.subset_per_action": ("self_s",),
    "experiment.render_report_text": ("self_s",),
    "cli.main": ("self_s",),
    PASS_SPAN: ("self_s",),
}

OUTCOMES = (
    "control.zero_signal_windows",
    "control.rest_decisions",
    "control.clamped_decisions",
    "control.zero_negative_decisions",
)

# Every per-layer metric with its unit, in report order.
PER_LAYER = (
    [(f"{fn}.{stat}", _UNITS[stat]) for fn, stats in _STATS.items() for stat in stats]
    + [(name, "count") for name in OUTCOMES]
    + [
        ("operators.encodes_per_sample", "ratio"),
        ("bench.pass.total_s", "s"),
        ("bench.trace_overhead_s", "s"),
    ]
)


def _arg(call, index, keyword):
    args, kwargs, _ = call
    return args[index] if len(args) > index else kwargs[keyword]


def _size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# Counts read from kept calls: metric -> (function, reader of one call).
_KEPT = {
    "features.segment_windows.items": ("features.segment_windows", lambda c: len(c[2])),
    "datasets.save_feature_dataset.rows": (
        "datasets.save_feature_dataset", lambda c: _arg(c, 0, "ds").n_rows),
    "datasets.save_feature_dataset.bytes": (
        "datasets.save_feature_dataset", lambda c: _size(_arg(c, 1, "path"))),
    "datasets.load_feature_dataset.rows": (
        "datasets.load_feature_dataset", lambda c: c[2].n_rows),
    "datasets.load_feature_dataset.bytes": (
        "datasets.load_feature_dataset", lambda c: _size(_arg(c, 0, "path"))),
    "datasets.to_training_samples.items": ("datasets.to_training_samples", lambda c: len(c[2])),
    "datasets.save_decode_csv.rows": (
        "datasets.save_decode_csv", lambda c: len(_arg(c, 0, "actions"))),
    "datasets.save_decode_csv.bytes": (
        "datasets.save_decode_csv", lambda c: _size(_arg(c, 2, "path"))),
    "operators.train.items": ("operators.train", lambda c: len(_arg(c, 0, "samples"))),
    "operators.save_model.bytes": ("operators.save_model", lambda c: _size(_arg(c, 1, "path"))),
    "operators.load_model.bytes": ("operators.load_model", lambda c: _size(_arg(c, 0, "path"))),
    "synthetic.generate_training_set.items": (
        "synthetic.generate_training_set", lambda c: len(c[2])),
    "synthetic.generate_test_scenario.items": (
        "synthetic.generate_test_scenario", lambda c: len(c[2].features)),
}


def _outcomes(calls):
    counts = dict.fromkeys(OUTCOMES, 0)
    for _, _, action in calls:
        counts["control.zero_signal_windows"] += bool(action.diagnostics.zero_signal)
        for decision in action.per_dof.values():
            counts["control.rest_decisions"] += decision.direction.value == "rest"
            counts["control.clamped_decisions"] += bool(decision.angle_clamped)
            counts["control.zero_negative_decisions"] += bool(decision.zero_negative)
    return counts


def _sample_key(sample):
    return (sample.features.values.tobytes(), sample.dof, sample.direction, sample.angle)


def pass_metrics(tracer, pass_index, kept, unreadable):
    """Per-layer metrics of one traced pass; names that cannot be read go to ``unreadable``."""
    summary, total = tracer.pass_summary(pass_index)
    counts = tracer.pass_counts[pass_index]
    out = {}
    for fn, stats in _STATS.items():
        calls, self_s = summary.get(fn, (0, 0.0))
        for stat in stats:
            if stat == "calls":
                out[f"{fn}.calls"] = counts.get(fn, calls)
            elif stat == "self_s":
                out[f"{fn}.self_s"] = self_s
    for metric, (fn, read) in _KEPT.items():
        try:
            out[metric] = sum(read(call) for call in kept.get(fn, []))
        except (AttributeError, TypeError, KeyError, IndexError):
            out[metric] = 0
            unreadable.add(metric)
    try:
        out.update(_outcomes(kept.get("control.decode_features", [])))
    except (AttributeError, TypeError):
        out.update(dict.fromkeys(OUTCOMES, 0))
        unreadable.update(OUTCOMES)
    try:
        distinct = {
            _sample_key(s)
            for call in kept.get("operators.build_prototype", [])
            for s in _arg(call, 0, "samples")
        }
        encodes = tracer.child_calls(pass_index, "state.encode", "operators.build_prototype")
        out["operators.encodes_per_sample"] = encodes / len(distinct) if distinct else 0.0
    except (AttributeError, TypeError, KeyError, IndexError):
        out["operators.encodes_per_sample"] = 0.0
        unreadable.add("operators.encodes_per_sample")
    out["bench.pass.total_s"] = total
    return out


def median_metrics(per_pass):
    """Median of each metric over the traced passes."""
    return {name: statistics.median(p[name] for p in per_pass) for name, _ in PER_LAYER
            if name in per_pass[0]}
