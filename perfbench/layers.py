"""Per-layer measurement from outside the program.

Two sources, both existing public surfaces of ``repro``:

* the ``repro.obs.metrics`` registry (curve-op histograms, curve-memo
  counters, fixpoint counters, batch/cache counters; worker snapshots are
  merged into it by the batch engine) and the ``repro.obs.trace`` spans
  (``batch.run``/``batch.item``/``analyze``/``horizon.*``/
  ``fixpoint.sweep``);
* the benchmark's own timing wrappers around public functions
  (:class:`Probes`).  A wrapper observes into the active metrics
  registry, so calls made inside pool workers travel back with the
  worker's snapshot.  Workers inherit the wrappers when the pool forks
  (the Linux default); under another start method the wrapper counts
  cover the parent process only.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

from catalog import CURVE_OPS, METHOD_KEYS

KEY_HIST = "perfbench_memo_key_seconds"
GET_HIST = "perfbench_store_get_seconds"
PUT_HIST = "perfbench_store_put_seconds"
APPEND_HIST = "perfbench_journal_append_seconds"


def _observing(name: str, fn):
    from repro.obs import metrics as obs_metrics

    def wrapper(*args, **kwargs):
        registry = obs_metrics.active_metrics()
        if registry is None:
            return fn(*args, **kwargs)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            registry.observe(name, time.perf_counter() - t0)

    return wrapper


class Probes:
    """Timing wrappers installed for the lifetime of one measuring process.

    ``lookups`` always records ``(seconds, hit)`` per result-cache lookup:
    it is the per-item latency of an item replayed from the cache.  With
    ``layers=True`` the memo-key, disk-store and journal-append wrappers
    are installed as well; they record only while a metrics registry is
    active (the traced passes).
    """

    def __init__(self, layers: bool) -> None:
        from repro.batch.journal import BatchJournal
        from repro.cache import DiskCacheStore, ResultCache
        from repro.curves import memo

        self.lookups: List[Tuple[float, bool]] = []
        lookups = self.lookups
        original_get = ResultCache.get

        def get(cache, key):
            t0 = time.perf_counter()
            out = original_get(cache, key)
            lookups.append((time.perf_counter() - t0, out is not None))
            return out

        ResultCache.get = get
        if layers:
            memo.transform_key = _observing(KEY_HIST, memo.transform_key)
            DiskCacheStore.get = _observing(GET_HIST, DiskCacheStore.get)
            DiskCacheStore.put = _observing(PUT_HIST, DiskCacheStore.put)
            BatchJournal.append = _observing(APPEND_HIST, BatchJournal.append)


# ----------------------------------------------------------------------
# extraction
# ----------------------------------------------------------------------


def _hist(snapshot: Dict[str, Any], name: str, label: str = "") -> Tuple[int, float]:
    count, total = 0, 0.0
    for key, data in (snapshot.get("histograms", {}).get(name) or {}).items():
        if label in key:
            count += int(data["count"])
            total += float(data["sum"])
    return count, total


def _counter(snapshot: Dict[str, Any], name: str, label: str = "") -> float:
    return sum(
        float(v)
        for k, v in (snapshot.get("counters", {}).get(name) or {}).items()
        if label in k
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    snapshot: Dict[str, Any],
    spans: List[Dict[str, Any]],
    item_walls: List[float],
    capacity_s: float,
    n_passes: int,
    max_rounds: int,
) -> Dict[str, float]:
    """Per-layer metrics of the traced passes, as per-pass means.

    ``item_walls`` are the engine-measured wall times of the items
    analyzed during the traced passes (cache replays excluded);
    ``capacity_s`` is the sum over those passes of pass wall time times
    the worker processes that served it (1 when the engine ran serially).
    """
    out: Dict[str, float] = {}
    per = 1.0 / max(n_passes, 1)

    curves_busy = 0.0
    for op in CURVE_OPS:
        calls, busy = _hist(snapshot, "repro_curve_op_seconds", f'op="{op}"')
        out[f"curves.{op}.calls"] = calls * per
        out[f"curves.{op}.busy_s"] = busy * per
        curves_busy += busy
    out["curves.busy_s"] = curves_busy * per
    hits = _counter(snapshot, "repro_curve_cache_hits_total")
    misses = _counter(snapshot, "repro_curve_cache_misses_total")
    out["curves.memo.hits"] = hits * per
    out["curves.memo.misses"] = misses * per
    out["curves.memo.hit_ratio"] = _ratio(hits, hits + misses)
    key_calls, key_s = _hist(snapshot, KEY_HIST)
    out["curves.memo.key_calls"] = key_calls * per
    out["curves.memo.key_s"] = key_s * per

    by_id = {s["id"]: s for s in spans}
    children: Dict[Any, List[Dict[str, Any]]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def dur(s: Dict[str, Any]) -> float:
        return float(s["end"]) - float(s["start"])

    def under_analyze(s: Dict[str, Any]) -> bool:
        p = by_id.get(s["parent"])
        while p is not None:
            if p["name"] == "analyze":
                return True
            p = by_id.get(p["parent"])
        return False

    top = [s for s in spans if s["name"] == "analyze" and not under_analyze(s)]
    busy = sum(dur(s) for s in top)
    out["analysis.calls"] = len(top) * per
    out["analysis.busy_s"] = busy * per
    out["analysis.self_s"] = (busy - curves_busy) * per
    for method, key in METHOD_KEYS.items():
        out[f"analysis.{key}.busy_s"] = (
            sum(dur(s) for s in top if s["attrs"].get("method") == method) * per
        )
    rounds = [int(s["attrs"].get("rounds") or 0) for s in top]
    exhausted_s = 0.0
    n_exhausted = 0
    for s in top:
        for child in children.get(s["id"], []):
            if (
                child["name"] == "horizon.adaptive"
                and int(child["attrs"].get("rounds") or 0) >= max_rounds
                and not child["attrs"].get("converged")
            ):
                n_exhausted += 1
                exhausted_s += dur(s)
    out["analysis.horizon.rounds"] = sum(rounds) * per
    out["analysis.horizon.rounds_max"] = float(max(rounds, default=0))
    out["analysis.horizon.budget_exhausted"] = n_exhausted * per
    out["analysis.horizon.budget_exhausted_time_frac"] = _ratio(exhausted_s, busy)

    sweeps = [s for s in spans if s["name"] == "fixpoint.sweep"]
    skipped = sum(int(s["attrs"].get("skipped") or 0) for s in sweeps)
    dirty = sum(int(s["attrs"].get("dirty") or 0) for s in sweeps)
    out["analysis.fixpoint.sweeps"] = len(sweeps) * per
    out["analysis.fixpoint.hops_skipped"] = skipped * per
    out["analysis.fixpoint.skip_ratio"] = _ratio(skipped, skipped + dirty)

    run_wall = sum(dur(s) for s in spans if s["name"] == "batch.run")
    item_wall = sum(item_walls)
    out["batch.busy_s"] = run_wall * per
    out["batch.items"] = _counter(snapshot, "repro_batch_items_total") * per
    out["batch.item_wall_sum_s"] = item_wall * per
    out["batch.worker_busy_frac"] = _ratio(item_wall, capacity_s)
    out["batch.overhead_s"] = (capacity_s - item_wall) * per
    out["batch.queue_wait_s"] = (
        _hist(snapshot, "repro_batch_queue_wait_seconds")[1] * per
    )
    out["batch.timeouts"] = (
        _counter(snapshot, "repro_batch_items_total", 'status="timeout"') * per
    )
    out["batch.failed"] = (
        _counter(snapshot, "repro_batch_items_total")
        - _counter(snapshot, "repro_batch_items_total", 'status="ok"')
    ) * per
    appends, append_s = _hist(snapshot, APPEND_HIST)
    out["batch.journal.appends"] = appends * per
    out["batch.journal.append_s"] = append_s * per

    r_hits = _counter(snapshot, "repro_cache_hits_total", 'tier="results"')
    r_misses = _counter(snapshot, "repro_cache_misses_total", 'tier="results"')
    out["cache.results.hits"] = r_hits * per
    out["cache.results.misses"] = r_misses * per
    out["cache.results.hit_ratio"] = _ratio(r_hits, r_hits + r_misses)
    gets, get_s = _hist(snapshot, GET_HIST)
    puts, put_s = _hist(snapshot, PUT_HIST)
    out["cache.store.get_calls"] = gets * per
    out["cache.store.get_s"] = get_s * per
    out["cache.store.put_calls"] = puts * per
    out["cache.store.put_s"] = put_s * per
    out["cache.curves.disk_hits"] = (
        _counter(snapshot, "repro_cache_hits_total", 'tier="curves"') * per
    )
    out["cache.corrupt"] = _counter(snapshot, "repro_cache_corrupt_total") * per
    return out


def percentile_tail(values: List[float]) -> Optional[Tuple[float, float, int]]:
    """Highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n_beyond)``: the sample with exactly ten
    larger samples, its percentile rank, and the count beyond it (10).
    ``None`` with fewer than eleven samples.
    """
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    rank = n - 11  # zero-based; ten samples lie above this one
    return ordered[rank], 100.0 * (rank + 1) / n, n - rank - 1
