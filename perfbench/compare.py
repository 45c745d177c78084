"""Paired comparison of two checkouts with the same benchmark code.

Usage (from the root of the checkout whose benchmark code is used)::

    python3 perfbench/compare.py --base ../parent --head . \\
        [--workload NAME ...] [--seed 1] [--pairs 10] [--seconds 35]

``--base`` and ``--head`` are checkout roots; the program is imported
from their ``src`` directories while the benchmark code, seed and run
length are this checkout's and identical on both sides.  Each workload
runs ``--pairs`` pairs, alternating which side runs first.  For every
(workload, end-to-end metric) row the command prints each side's median
and quartiles, the head's paired wins and a verdict:

* ``improved``: the head wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the base's quartile
  spread;
* ``worse``: the head's median is worse than the base's by more than the
  metric's bound in ``BENCHMARK.json``;
* ``unresolved``: either side's quartile spread, as a share of its
  median, exceeds the bound, and the runs do not separate completely;
* ``no worse``: otherwise.

Exit code 0 unless a row is ``worse`` or a run fails its correctness
gates (1).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def verdict(base: Sequence[float], head: Sequence[float], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    b_med, h_med = statistics.median(base), statistics.median(head)
    bq, hq = statistics.quantiles(base, n=4), statistics.quantiles(head, n=4)
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) < 0)
    gain = sign * (b_med - h_med)  # > 0 when the head is better
    if wins >= 0.9 * len(base) and gain > bq[2] - bq[0]:
        return "improved"
    worse_share = -gain / abs(b_med) if b_med else 0.0
    spread = max(
        (bq[2] - bq[0]) / abs(b_med) if b_med else 0.0,
        (hq[2] - hq[0]) / abs(h_med) if h_med else 0.0,
    )
    separated = (
        all(sign * (h - b) < 0 for h in head for b in base)
        or all(sign * (h - b) > 0 for h in head for b in base)
    )
    if spread > bound and not separated:
        return "unresolved"
    return "worse" if worse_share > bound else "no worse"


def _run(src: str, workload: str, seed: int, seconds: float) -> Dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
         "--src", src],
        capture_output=True, text=True, check=False,
    )
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"compare: run failed ({src}, {workload}):\n{out.stderr}")
    return json.loads(lines[-1])


def main(argv: List[str] = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True)
    p.add_argument("--head", required=True)
    p.add_argument("--workload", action="append")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    sides = {
        "base": os.path.join(os.path.abspath(args.base), "src"),
        "head": os.path.join(os.path.abspath(args.head), "src"),
    }
    status = 0
    print(f"{'workload':22s} {'metric':14s} {'base median [q1, q3]':34s} "
          f"{'head median [q1, q3]':34s} {'wins':>5s}  verdict")
    for workload in workloads:
        values: Dict[str, Dict[str, List[float]]] = {"base": {}, "head": {}}
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                result = _run(sides[side], workload, args.seed, args.seconds)
                if not result["correct"]:
                    print(f"# {workload} pair {i}: {side} run failed its gates")
                    status = 1
                for name, m in result["metrics"].items():
                    values[side].setdefault(name, []).append(m["value"])
        for metric in bench["end_to_end"]:
            name = metric["name"]
            base, head = values["base"].get(name), values["head"].get(name)
            if not base or not head or len(base) != len(head):
                print(f"{workload:22s} {name:14s} missing")
                continue
            v = verdict(base, head, metric["better"], metric["bound"])
            status = 1 if v == "worse" else status
            sign = 1.0 if metric["better"] == "lower" else -1.0
            wins = sum(1 for b, h in zip(base, head) if sign * (h - b) < 0)

            def show(xs):
                q = statistics.quantiles(xs, n=4)
                return f"{statistics.median(xs):.6g} [{q[0]:.6g}, {q[2]:.6g}]"

            print(f"{workload:22s} {name:14s} {show(base):34s} {show(head):34s} "
                  f"{wins:>2d}/{len(base):<2d}  {v}")
    return status


if __name__ == "__main__":
    sys.exit(main())
