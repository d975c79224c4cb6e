"""Small statistics used by the benchmark: percentiles, block medians, the
span self-time arithmetic, and the before/after comparison rule."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median.

    The measure the acceptance driver applies to ten runs; here it is also
    applied to the blocks of one run.  Fewer than two values have no spread.
    """
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


def block_median(values) -> tuple[float, float]:
    """Median over the blocks of a run, with their quartile spread."""
    return statistics.median(values), quartile_spread(values)


def self_times(spans) -> dict[tuple[int, str], float]:
    """Self time of every span: its duration minus its children's.

    ``spans`` are dicts with ``op_id``, ``layer``, ``parent_layer``,
    ``start`` and ``end``.  A child is a span of the same op whose
    ``parent_layer`` names the span's layer; within one op a layer appears
    once, so (op_id, layer) identifies a span.  The self times of one op
    sum to the duration of its root span.
    """
    children: dict[tuple[int, str], float] = defaultdict(float)
    for span in spans:
        if span["parent_layer"] is not None:
            children[(span["op_id"], span["parent_layer"])] += span["end"] - span["start"]
    return {
        (span["op_id"], span["layer"]):
            span["end"] - span["start"] - children[(span["op_id"], span["layer"])]
        for span in spans
    }


def compare(name: str, better: str, bound: float, before: dict, after: dict) -> dict:
    """Judge one (metric, workload) cell of a before/after pair.

    ``before`` and ``after`` carry ``value`` (a median) and ``spread`` (the
    run-to-run or block spread, as a share of the median).  The ratio is
    after ÷ before.  A cell regresses when the after value is worse than the
    before value by more than ``bound``; it is unresolved, not passed, when
    either spread is wider than the bound — the measurement cannot tell.
    """
    ratio = after["value"] / before["value"] if before["value"] else math.inf
    worse_by = (ratio - 1.0) if better == "lower" else (1.0 - ratio)
    if max(before["spread"], after["spread"]) > bound:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regress"
    else:
        verdict = "pass"
    return {"metric": name, "before": before["value"], "after": after["value"],
            "ratio": ratio, "bound": bound, "verdict": verdict}
