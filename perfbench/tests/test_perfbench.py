"""The benchmark's own tests: ``python3 -m pytest perfbench/tests``."""

import copy
import json
import os
import re

import pytest

import catalog
import gates
import inputs
import run
from repro.analysis import HorizonConfig
from repro.batch import BatchEngine

UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_every_metric_has_name_unit_direction_and_layer():
    cat = catalog.load()
    names = [m.name for m in cat.end_to_end + cat.per_layer]
    assert len(names) == len(set(names)) == len(cat.by_name)
    for m in cat.end_to_end + cat.per_layer:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m.name), m.name
        assert UNIT_RE.match(m.unit), m.name
        assert m.better in ("lower", "higher"), m.name
        assert m.layer and m.moves, m.name
    for m in cat.end_to_end:
        assert 0 < m.bound <= 0.25, m.name
    assert cat.by_name["setup_s"].bound == max(m.bound for m in cat.end_to_end)


def test_registered_workloads_exist():
    with open(catalog.BENCHMARK_JSON, encoding="utf-8") as fh:
        bench = json.load(fh)
    for w in bench["workloads"]:
        assert w["name"] in inputs.WORKLOADS


@pytest.mark.parametrize("workload", ["bursty-fixture", "fig4-trace-campaign",
                                      "fig3-periodic", "fig4-campaign"])
def test_seed_determines_inputs(workload):
    first = inputs.build(workload, 5).digest()
    assert inputs.build(workload, 5).digest() == first
    assert inputs.build(workload, 6).digest() != first


def test_edits_are_cache_misses_and_leave_the_original_untouched():
    from repro.batch.journal import item_digest

    inp = inputs.build("fig4-trace-campaign", 3)
    plan = inputs.edit_plan(3, len(inp.items))
    edits = [next(plan) for _ in range(3)]
    again = inputs.edit_plan(3, len(inp.items))
    assert edits == [next(again) for _ in range(3)]
    idx, factor = edits[0]
    before = item_digest(inp.items[idx].system, inp.items[idx].method)
    changed = inputs.edited(inp.items[idx], factor)
    assert item_digest(changed.system, changed.method) != before
    assert item_digest(inp.items[idx].system, inp.items[idx].method) == before


def _analyzed(item, timeout=60.0):
    return BatchEngine(timeout=timeout).run([item])[0].to_dict()


def test_weakened_bounds_trip_the_soundness_gate():
    item = inputs.build("fig4-trace-campaign", 2).items[0]  # SPP/Exact
    record = _analyzed(item)
    fraction = HorizonConfig().analyze_fraction
    assert gates.decided(record)
    assert gates.soundness(record, item.system, fraction) == []
    weakened = copy.deepcopy(record)
    for job in weakened["result"]["jobs"].values():
        job["wcrt"] *= 0.5
    failures = gates.soundness(weakened, item.system, fraction)
    assert failures and all(f.startswith("soundness:") for f in failures)


def test_item_over_budget_is_failed_and_undecided():
    item = inputs.build("bursty-fixture", 1).items[0]  # SPP/Exact, about 1.5 s
    record = _analyzed(item, timeout=0.05)
    assert record["status"] == "timeout"
    meas = {
        "passes": [dict(gates.pass_counts([record]), wall=0.05, traced=False)],
        "latencies": [[0.05] * 11],
        "setup_s": 1.0,
        "rss_mb": 1.0,
    }
    metrics, attempted, failed, notes = run.end_to_end(meas)
    assert (attempted, failed) == (1, 1)
    assert notes["failed_frac"] == 1.0
    assert metrics["decided_frac"] == 0.0


def test_warm_replay_gate_counts_edits_and_uncached_failures():
    cold = [{"id": str(i), "status": "ok", "x": i} for i in range(4)]
    cold[3]["status"] = "timeout"
    warm = copy.deepcopy(cold)
    warm[1]["x"] = "edited"
    assert gates.warm_replay(cold, warm, [1], n_cached=2) == []
    assert gates.warm_replay(cold, warm, [1], n_cached=3)
    assert gates.warm_replay(cold, warm, [], n_cached=2)


def test_percentile_tail_leaves_ten_samples_beyond():
    import layers

    assert layers.percentile_tail([float(i) for i in range(10)]) is None
    value, pct, beyond = layers.percentile_tail([float(i) for i in range(100)])
    assert (value, beyond) == (89.0, 10)
    assert pct == pytest.approx(90.0)


def test_too_few_latencies_leave_out_the_tail_without_failing():
    record = {"status": "ok", "result": {"converged": True}}
    meas = {
        "passes": [dict(gates.pass_counts([record] * 4), wall=1.0, traced=False)],
        "latencies": [[0.1, 0.2, 0.3, 0.4]],
        "setup_s": 1.0,
        "rss_mb": 1.0,
    }
    metrics, attempted, failed, notes = run.end_to_end(meas)
    assert metrics["item_tail_s"] is None and "item_tail_percentile" not in notes
    assert (attempted, failed) == (4, 0)


def test_fig4_trace_items_are_the_fig4_sets_as_traces():
    trace, fig4 = inputs.build("fig4-trace-campaign", 4), inputs.build("fig4-campaign", 4)
    assert len(trace.items) == len(fig4.items) == 216
    for t, f in zip(trace.items[::37], fig4.items[::37]):
        assert t.method == f.method
        for tj, fj in zip(t.system.job_set, f.system.job_set):
            assert [(s.processor, s.wcet) for s in tj.subjobs] == [
                (s.processor, s.wcet) for s in fj.subjobs]
            assert tj.deadline == fj.deadline
            times = tj.arrivals.times
            assert len(times) == inputs.TRACE_RELEASES
            assert list(times) == fj.arrivals.release_times(times[-1] + 1e-9).tolist()
