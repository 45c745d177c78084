"""The benchmark's metric catalog.

``BENCHMARK.json`` is the only source of each metric's name, unit,
direction (``lower`` or ``higher`` is better) and, for end-to-end
metrics, bound.  This module adds the layer each metric belongs to (a
``repro.*`` package, or ``end_to_end``) and the end-to-end metric and
workload it is expected to move.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Tuple

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"
)

#: Curve operators labelled in ``repro_curve_op_seconds`` at this revision.
CURVE_OPS = ("service_transform", "sum_curves", "identity_minus")

#: Analysis methods with their per-method busy-time metric suffix.
METHOD_KEYS = {
    "SPP/Exact": "spp_exact",
    "SPP/S&L": "spp_sl",
    "SPNP/App": "spnp_app",
    "FCFS/App": "fcfs_app",
    "Fixpoint/App": "fixpoint_app",
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  #: "lower" or "higher"
    layer: str  #: "end_to_end" or a repro.* package name
    moves: str  #: what it measures (end-to-end) or which metric it should move
    bound: float = 0.0  #: end-to-end only: allowed worsening share


_E2E_MEANING = {
    "wall_s": "median wall time of one pass over the workload's batch",
    "items_per_s": "items finished within budget per second of a pass",
    "item_p50_s": "median per-item latency",
    "item_tail_s": "highest percentile with >= 10 samples beyond it",
    "decided_frac": "share of items with a converged verdict within budget",
    "setup_s": "imports, input generation, system build, warm-up analysis "
               "and (warm workloads) cache population",
    "peak_rss_mb": "peak RSS of the measuring process and its pool workers",
}

_CURVES_MOVES = (
    "wall_s on bursty-fixture; item_tail_s on fig3-periodic; "
    "no change on fig4-trace-warm"
)
_ANALYSIS_MOVES = (
    "decided_frac, items_per_s, item_tail_s on fig3-periodic and "
    "fig4-campaign; no change on bursty-fixture"
)
_BATCH_MOVES = (
    "items_per_s on fig4-trace-campaign and fig4-campaign; wall_s on "
    "fig4-trace-warm; no change on bursty-fixture (serial)"
)
_CACHE_MOVES = (
    "wall_s on fig4-trace-warm (reads) and fig4-trace-campaign (writes)"
)


def _layer_table() -> Dict[str, Tuple[str, str]]:
    """Per-layer metric name -> (layer, which end-to-end metric it moves)."""
    out = {
        "failed_frac": ("batch", "decided_frac on every workload"),
        "curves.busy_s": ("curves", _CURVES_MOVES),
    }
    for op in CURVE_OPS:
        out[f"curves.{op}.calls"] = out[f"curves.{op}.busy_s"] = (
            "curves", _CURVES_MOVES)
    for name in ("hits", "misses", "hit_ratio", "key_calls", "key_s"):
        out[f"curves.memo.{name}"] = ("curves", _CURVES_MOVES)
    for name in ["calls", "busy_s", "self_s"] + [
        f"{key}.busy_s" for key in METHOD_KEYS.values()
    ] + [f"horizon.{h}" for h in (
        "rounds", "rounds_max", "budget_exhausted", "budget_exhausted_time_frac"
    )]:
        out[f"analysis.{name}"] = ("analysis", _ANALYSIS_MOVES)
    for name in ("sweeps", "hops_skipped", "skip_ratio"):
        out[f"analysis.fixpoint.{name}"] = (
            "analysis", "wall_s on bursty-fixture (Fixpoint/App)")
    for name in ("busy_s", "items", "item_wall_sum_s", "worker_busy_frac",
                 "overhead_s", "queue_wait_s", "journal.appends",
                 "journal.append_s"):
        out[f"batch.{name}"] = ("batch", _BATCH_MOVES)
    for name in ("timeouts", "failed"):
        out[f"batch.{name}"] = (
            "batch", "failed_frac and decided_frac on every workload")
    for name in ("results.hits", "results.misses", "results.hit_ratio",
                 "store.get_calls", "store.get_s", "store.put_calls",
                 "store.put_s", "curves.disk_hits", "corrupt"):
        out[f"cache.{name}"] = ("cache", _CACHE_MOVES)
    for name in ("generate_s", "systems"):
        out[f"workloads.{name}"] = ("workloads", "setup_s on every workload")
    for name in ("check_s", "checked_items"):
        out[f"sim.{name}"] = ("sim", "none: the correctness gate runs untimed")
    out["obs.trace_overhead_frac"] = (
        "obs", "none: bounds the trust in the per-layer split")
    return out


class Catalog(NamedTuple):
    end_to_end: List[Metric]
    per_layer: List[Metric]
    by_name: Dict[str, Metric]


@functools.lru_cache(maxsize=None)
def load() -> Catalog:
    """Every metric ``BENCHMARK.json`` registers, with its layer."""
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        bench = json.load(fh)
    table = _layer_table()
    e2e = [
        Metric(e["name"], e["unit"], e["better"], "end_to_end",
               _E2E_MEANING[e["name"]], e["bound"])
        for e in bench["end_to_end"]
    ]
    per_layer = [
        Metric(e["name"], e["unit"], e["better"], *table[e["name"]])
        for e in bench["per_layer"]
    ]
    return Catalog(e2e, per_layer, {m.name: m for m in e2e + per_layer})
