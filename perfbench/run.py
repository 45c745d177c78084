"""Run one seeded workload of the benchmark and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload bursty-fixture --seed 1 \\
        --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (see README.md).  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are a readable table; ``item_tail_s`` is left out when a run
has fewer than 11 item latencies.  The exit code is 0 when every
correctness gate passed, 1 when one failed and 2 when the program
source is missing.  ``--src`` points at another checkout's ``src``
directory (the paired compare command uses it).

Every run appends one row to ``perfbench/results/history.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HISTORY = os.path.join(HERE, "results", "history.jsonl")
#: Every run must end within 180 s; leave room for the gates.
CHILD_DEADLINE_S = 165.0
#: Decided items simulated by the soundness gate, per workload.
SIM_ITEMS = {"fixture": 2}
SIM_ITEMS_DEFAULT = 8


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--src", default=os.path.join(ROOT, "src"))
    return p.parse_args(argv)


def _child(cfg, work, name, deadline):
    """Run ``measure.py`` in its own session; kill it (and its pool) on overrun."""
    cfg = dict(cfg, out=os.path.join(work, f"{name}.out.json"))
    path = os.path.join(work, f"{name}.cfg.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "measure.py"), path],
        stdout=sys.stderr, start_new_session=True,
    )
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"perfbench: {name} phase overran the run deadline")
    finally:
        try:  # pool workers left behind by a crashed child
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if code != 0:
        raise SystemExit(f"perfbench: {name} phase failed with exit code {code}")
    with open(cfg["out"], encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(meas):
    """End-to-end metrics from the untraced passes."""
    import layers

    passes = [p for p in meas["passes"] if not p["traced"]]
    walls = [p["wall"] for p in passes]
    attempted = sum(p["n"] for p in passes)
    ok = sum(p["ok"] for p in passes)
    metrics = {
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(p["ok"] / p["wall"] for p in passes),
        # Median over passes of each pass's median: a pass of the fixture
        # mixes four methods of distinct cost, and the overall median
        # would sit on the edge between two of them.
        "item_p50_s": statistics.median(
            statistics.median(pass_latencies) for pass_latencies in meas["latencies"]
        ),
        "item_tail_s": None,
        "decided_frac": sum(p["decided"] for p in passes) / attempted,
        "setup_s": meas["setup_s"],
        "peak_rss_mb": meas["rss_mb"],
    }
    notes = {"passes": len(passes), "items": attempted,
             "pass_wall_min_max": [min(walls), max(walls)]}
    tail = layers.percentile_tail([x for lat in meas["latencies"] for x in lat])
    if tail is not None:
        metrics["item_tail_s"] = tail[0]
        notes["item_tail_percentile"] = tail[1]
        notes["item_tail_beyond"] = tail[2]
    notes["failed_frac"] = (attempted - ok) / attempted
    return metrics, attempted, attempted - ok, notes


def run_gates(args, meas):
    """Soundness on a seeded subset, Figure 3 shape, warm replay (from the child)."""
    import gates
    import inputs
    from repro.analysis import HorizonConfig

    failures = list(meas["gate_failures"])
    records = meas["final_records"] or []
    inp = inputs.build(args.workload, args.seed)
    if inp.digest() != meas["input_digest"]:
        failures.append("inputs: measuring process generated other inputs")
    t0 = time.perf_counter()
    spec = inputs.WORKLOADS[args.workload]
    subset = gates.soundness_subset(
        records, args.seed, SIM_ITEMS.get(spec.family, SIM_ITEMS_DEFAULT)
    )
    fraction = HorizonConfig().analyze_fraction
    edits = dict(meas["final_edits"])  # warm workloads: {index: WCET factor}
    for i in subset:
        item = inp.items[i]
        if i in edits:
            item = inputs.edited(item, edits[i])
        failures += gates.soundness(records[i], item.system, fraction)
    sim = {"sim.check_s": time.perf_counter() - t0,
           "sim.checked_items": float(len(subset))}
    if spec.family == "fig3":
        failures += gates.fig3_shape(records, inp.meta)
    return failures, sim, gates.results_digest(records)


def _provenance(src):
    try:
        sha = subprocess.run(
            ["git", "-C", src, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(src, "repro"))):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(base, f), "rb") as fh:
                    h.update(f.encode() + b"\0" + fh.read())
    import numpy

    return {
        "git_sha": sha,
        "src_digest": h.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def _append_history(row):
    os.makedirs(os.path.dirname(HISTORY), exist_ok=True)
    line = json.dumps(row, sort_keys=True, allow_nan=False) + "\n"
    fd = os.open(HISTORY, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, line.encode("utf-8"))
    finally:
        os.close(fd)


def _print_table(metrics, notes):
    import catalog

    by_name = catalog.load().by_name
    for name, value in metrics.items():
        m = by_name[name]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:48s} {shown:>14s} {m.unit:6s} ({m.better} is better)")
    for key, value in notes.items():
        print(f"# {key} = {value}")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through _child's cleanup


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    sys.path.insert(0, HERE)
    args = _parse(argv)
    src = os.path.abspath(args.src)
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: program source not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import catalog
    import inputs

    if args.workload not in inputs.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + CHILD_DEADLINE_S
    work = os.path.join(HERE, "_work", f"run-{os.getpid()}-{time.time_ns()}")
    os.makedirs(work)
    cfg = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "src": src, "work_dir": work,
        "cache_dir": os.path.join(work, "cache"),
    }
    try:
        if inputs.WORKLOADS[args.workload].mode == "warm":
            _child(dict(cfg, phase="populate"), work, "populate", deadline)
            cfg["cold_path"] = os.path.join(work, "populate.out.json")
        meas = _child(dict(cfg, phase="measure"), work, "measure", deadline)
        failures, sim, digest = run_gates(args, meas)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))  # only when no other run uses it
        except OSError:
            pass

    e2e, attempted, failed, notes = end_to_end(meas)
    notes["setup_parts"] = meas["setup_parts"]
    notes["input_digest"] = meas["input_digest"]
    notes["results_digest"] = digest
    if args.trace:
        shown = dict(meas["layers"], **sim)
        shown["workloads.generate_s"] = meas["generate_s"]
        shown["workloads.systems"] = float(meas["n_systems"])
        shown["failed_frac"] = notes["failed_frac"]
        shown = {m.name: shown[m.name] for m in catalog.load().per_layer}
    else:
        shown = {m.name: e2e[m.name] for m in catalog.load().end_to_end}
    for f in failures:
        print(f"GATE FAILED: {f}", file=sys.stderr)
    _print_table(shown, notes)

    budget = inputs.WORKLOADS[args.workload].budget_s
    _append_history({
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **_provenance(src),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "budget_s": budget,
        "correct": not failures, "failures": failures[:20],
        "attempted": attempted, "failed": failed, "notes": notes,
        "metrics": {k: v for k, v in shown.items() if v is not None},
    })
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": catalog.load().by_name[k].unit}
            for k, v in shown.items() if v is not None
        },
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
