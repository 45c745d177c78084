"""Measuring process for one benchmark run (launched by ``run.py``).

Usage: ``python3 perfbench/measure.py CONFIG.json``.  The config names the
phase (``measure`` or ``populate``), the workload, seed, run length,
trace mode, the program's ``src`` directory and the output file.

Each phase runs in a fresh process so that its peak RSS (own and pool
workers') is its own: the cache population of warm workloads is a
previous campaign, not part of the warm re-run.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time


def _rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


#: Set-up steps are repeated and the median reported, so one slow repeat
#: does not decide ``setup_s``.
SETUP_REPEATS = 3
#: Passes of the per-item fixture, whatever ``--seconds`` is (about 5 s
#: each).  With 4 items per pass, 14 passes put item_tail_s's sample
#: (ten items beyond it, the 82nd percentile of 56) inside the slowest
#: method's analyses rather than on the edge between two.
FIXTURE_PASSES = 14

_IMPORT_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import numpy, repro\n"
    "print(time.perf_counter() - t0)\n"
)


def _import_seconds(src: str) -> float:
    """Median time to import ``repro`` from ``src`` in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, src],
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _use_program(src: str) -> None:
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"repro imported from {repro.__file__}, not from {src}")


class Runner:
    """Set-up and timed passes of one workload."""

    def __init__(self, cfg):
        import inputs

        self.cfg = cfg
        self.name = cfg["workload"]
        self.seed = int(cfg["seed"])
        self.spec = inputs.WORKLOADS[self.name]
        self.work = cfg["work_dir"]
        self.inputs = None
        self.probes = None
        self.cold = None  # warm mode: the populated campaign's records
        self.edits = None

    def engine(self, cache_dir=None, tag="pass"):
        from repro.batch import BatchEngine

        spec = self.spec
        if spec.mode not in ("cold", "warm"):
            return BatchEngine(n_workers=spec.n_workers, timeout=spec.budget_s)
        journal = os.path.join(self.work, f"{tag}.wal")
        if os.path.exists(journal):  # a fresh journal per pass
            os.unlink(journal)
        return BatchEngine(
            n_workers=spec.n_workers,
            timeout=spec.budget_s,
            cache_dir=cache_dir,
            journal=journal,
            status=os.path.join(self.work, f"{tag}.status.json"),
        )

    # -- set-up --------------------------------------------------------

    def setup_once(self):
        """Generate inputs and run one warm-up analysis; returns timings."""
        import inputs
        from repro.batch import BatchEngine

        t0 = time.perf_counter()
        inp = inputs.build(self.name, self.seed)
        gen = time.perf_counter() - t0
        # The fixture's cheapest item (FCFS/App); item 0 elsewhere.
        warmup = inp.items[3 if self.spec.family == "fixture" else 0]
        BatchEngine(timeout=self.spec.budget_s).run([warmup])
        self.inputs = inp
        return gen, time.perf_counter() - t0

    # -- one pass --------------------------------------------------------

    def run_pass(self, index: int):
        """One pass over the batch.

        Returns the pass wall time, the worker processes that served it
        (1 when serial), the item results, the ``(index, factor)`` edits
        applied and the result-cache lookups it made.
        """
        import inputs

        items = self.inputs.items
        edited = []
        cache_dir = None
        mode = self.spec.mode
        if mode == "warm":
            idx, factor = next(self.edits)
            items = list(items)
            items[idx] = inputs.edited(items[idx], factor)
            edited = [(idx, factor)]
            cache_dir = self.cfg["cache_dir"]
        elif mode == "cold":
            cache_dir = os.path.join(self.work, f"cache{index}")
        n_lookups = len(self.probes.lookups)
        if mode == "per-item":
            # A fresh engine per item: every analysis starts with a cold
            # curve memo.
            t0 = time.perf_counter()
            results = [self.engine().run([item])[0] for item in items]
            wall = time.perf_counter() - t0
            workers = 1
        else:
            engine = self.engine(cache_dir)
            t0 = time.perf_counter()
            report = engine.run(items)
            wall = time.perf_counter() - t0
            results, workers = list(report), max(report.n_workers, 1)
        lookups = self.probes.lookups[n_lookups:]
        if mode == "cold":
            shutil.rmtree(cache_dir, ignore_errors=True)
        return wall, workers, results, edited, lookups


def _item_latencies(results, lookups):
    """Time spent producing each item's record in this pass.

    Analyzed items: the engine's per-item wall time.  Items replayed from
    the result cache: the duration of their cache lookup.
    """
    hits = [d for d, hit in lookups if hit]
    n_cached = sum(1 for r in results if r.cached)
    if len(hits) != n_cached:
        raise RuntimeError(f"{len(hits)} cache hits timed for {n_cached} cached items")
    return hits + [r.wall_time for r in results if not r.cached]


def populate(cfg) -> dict:
    """Populate the warm workload's cache; returns the median campaign time.

    Each repeat starts from an empty cache directory; the last one's
    cache and records are the ones the warm passes use.
    """
    import inputs

    runner = Runner(cfg)
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(cfg["cache_dir"], ignore_errors=True)
        t0 = time.perf_counter()
        inp = inputs.build(runner.name, runner.seed)
        report = runner.engine(cfg["cache_dir"], tag="populate").run(inp.items)
        times.append(time.perf_counter() - t0)
    return {
        "seconds": statistics.median(times),
        "records": [r.to_dict() for r in report],
    }


def measure(cfg, import_s: float) -> dict:
    import gates
    import inputs
    import layers
    from repro.analysis import HorizonConfig
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace

    traced_mode = bool(cfg["trace"])
    runner = Runner(cfg)
    runner.probes = layers.Probes(layers=traced_mode)

    reps = [runner.setup_once() for _ in range(SETUP_REPEATS)]
    generate_s = statistics.median(g for g, _ in reps)
    parts = {"import_s": import_s,
             "build_s": statistics.median(s for _, s in reps),
             "populate_s": 0.0}
    if runner.spec.mode == "warm":
        with open(cfg["cold_path"], encoding="utf-8") as fh:
            populated = json.load(fh)
        runner.cold = populated["records"]
        parts["populate_s"] = populated["seconds"]
        runner.edits = inputs.edit_plan(runner.seed, len(runner.inputs.items))

    seconds = float(cfg["seconds"])
    if runner.spec.mode == "per-item":
        min_passes, seconds = FIXTURE_PASSES, 0.0
    else:
        min_passes = 2 if traced_mode else 1
    registry = obs_metrics.MetricsRegistry()
    collector = obs_trace.TraceCollector()

    passes, latencies, failures = [], [], []
    traced_walls, traced_item_walls, capacity_s = [], [], 0.0
    final_records = final_edits = None
    t_timed = time.perf_counter()
    k = 0
    # A traced run alternates untraced and traced passes in the same time.
    while k < min_passes or time.perf_counter() - t_timed < seconds:
        traced = traced_mode and k % 2 == 1
        if traced:
            obs_metrics.enable_metrics(registry)
            obs_trace.enable_tracing(collector=collector)
        try:
            wall, workers, results, edited, lookups = runner.run_pass(k)
        finally:
            if traced:
                obs_trace.disable_tracing()
                obs_metrics.disable_metrics()
        records = [r.to_dict() for r in results]
        n_cached = sum(1 for r in results if r.cached)
        if runner.cold is not None:
            failures += gates.warm_replay(
                runner.cold, records, [i for i, _ in edited], n_cached
            )
        passes.append(dict(gates.pass_counts(records), wall=wall, traced=traced))
        if traced:
            traced_walls.append(wall)
            capacity_s += workers * wall
            traced_item_walls += [r.wall_time for r in results if not r.cached]
        else:
            latencies.append(_item_latencies(results, lookups))
            final_records, final_edits = records, edited
        k += 1

    out = {
        "setup_s": sum(parts.values()),
        "setup_parts": parts,
        "generate_s": generate_s,
        "n_systems": len(runner.inputs.items),
        "input_digest": runner.inputs.digest(),
        "passes": passes,
        "latencies": latencies,
        "final_records": final_records,
        "final_edits": final_edits,
        "gate_failures": failures,
        "rss_mb": _rss_mb(),
    }
    if traced_mode:
        untraced = [p["wall"] for p in passes if not p["traced"]]
        out["layers"] = layers.layer_metrics(
            registry.snapshot(), collector.snapshot(), traced_item_walls,
            capacity_s, len(traced_walls), HorizonConfig().max_rounds,
        )
        out["layers"]["obs.trace_overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(untraced) - 1.0
        )
    return out


def main(argv) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        cfg = json.load(fh)
    _use_program(cfg["src"])
    if cfg["phase"] == "populate":
        out = populate(cfg)
    else:
        out = measure(cfg, _import_seconds(cfg["src"]))
    with open(cfg["out"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
