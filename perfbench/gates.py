"""Correctness gates that do not trust the analyzer.

They run after the timed phase, on the engine's JSON records
(``ItemResult.to_dict()``), and return a list of failure strings; any
failure makes the run incorrect.  The results digest is reported only.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterable, List, Optional, Sequence

import numpy as np

#: Relative/absolute slack a simulated response must clear to count as a
#: violation (the audit harness uses the same value).
TOL = 1e-6
#: Longest simulated release window; a prefix of the analyzed instances
#: is still a sound check, never a false violation.
SIM_CAP = 200.0


def canonical(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def decided(record: Dict[str, Any]) -> bool:
    """A verdict that converged within the item's budget."""
    result = record.get("result") or {}
    return record.get("status") == "ok" and bool(result.get("converged"))


def pass_counts(records: Sequence[Dict[str, Any]]) -> Dict[str, int]:
    """Items attempted, finished within budget (``ok``) and decided.

    An errored, crashed or timed-out item is failed and undecided; an
    item that finished without a converged verdict is undecided only.
    """
    return {
        "n": len(records),
        "ok": sum(1 for r in records if r.get("status") == "ok"),
        "decided": sum(1 for r in records if decided(r)),
    }


def soundness(record: Dict[str, Any], system, analyze_fraction: float) -> List[str]:
    """Simulate ``system``; every bound must dominate the observed responses.

    Only instances the result's bounds cover are compared: with a finite
    analysis horizon ``H`` those released in ``[0, H * analyze_fraction)``
    and numbered at most the job's ``n_instances``.
    """
    from repro.sim import simulate

    result = record["result"]
    horizon = result.get("horizon")
    window = SIM_CAP if horizon is None else min(SIM_CAP, horizon * analyze_fraction)
    if window <= 0:
        return []
    sim = simulate(system, horizon=window, report_window=window)
    failures = []
    for job_id, job in result["jobs"].items():
        bound = job.get("wcrt")
        trace = sim.jobs.get(job_id)
        if bound is None or trace is None:  # unbounded result: nothing to violate
            continue
        for rec in trace.records:
            if not rec.finished:
                continue
            if horizon is not None and rec.instance > job["n_instances"]:
                continue
            if rec.response > bound + max(TOL, TOL * abs(bound)):
                failures.append(
                    f"soundness: item {record['id']} ({record['method']}) job "
                    f"{job_id} instance {rec.instance}: simulated response "
                    f"{rec.response:.9g} exceeds bound {bound:.9g}"
                )
                break
    return failures


def soundness_subset(
    records: Sequence[Dict[str, Any]], seed: int, k: int
) -> List[int]:
    """Seeded choice of up to ``k`` decided items to simulate."""
    candidates = [i for i, r in enumerate(records) if decided(r)]
    if len(candidates) <= k:
        return candidates
    rng = np.random.default_rng([seed, 7])
    return sorted(int(i) for i in rng.choice(candidates, size=k, replace=False))


def fig3_shape(records: Sequence[Dict[str, Any]], meta: Sequence[Dict[str, Any]]) -> List[str]:
    """SPP/Exact admits at least what SPP/S&L admits at every sweep point,
    and exactly the same on single-stage sets."""
    admitted: Dict[tuple, Dict[str, int]] = {}
    for record, m in zip(records, meta):
        point = (m["stages"], m["factor"], m["u"])
        counts = admitted.setdefault(point, {})
        counts[m["method"]] = counts.get(m["method"], 0) + bool(record.get("schedulable"))
    failures = []
    for point, counts in sorted(admitted.items()):
        exact, sl = counts.get("SPP/Exact", 0), counts.get("SPP/S&L", 0)
        if exact < sl or (point[0] == 1 and exact != sl):
            failures.append(
                f"fig3 shape: stages={point[0]} factor={point[1]:g} u={point[2]:g}: "
                f"SPP/Exact admits {exact}, SPP/S&L admits {sl}"
            )
    return failures


def warm_replay(
    cold: Sequence[Dict[str, Any]],
    warm: Sequence[Dict[str, Any]],
    edited: Iterable[int],
    n_cached: int,
) -> List[str]:
    """A warm pass replays every unedited, cleanly cached record verbatim.

    Cold records that were not cached (failed or timed out) are analyzed
    again and may differ; they are excluded from the byte comparison and
    from the expected cache-hit count.
    """
    edited = set(edited)
    uncached = {i for i, r in enumerate(cold) if r.get("status") != "ok"}
    failures = []
    for i, (c, w) in enumerate(zip(cold, warm)):
        if i not in edited and i not in uncached and canonical(c) != canonical(w):
            failures.append(f"warm replay: item {c['id']} record differs from cold")
    expected = len(cold) - len(edited | uncached)
    if n_cached != expected:
        failures.append(
            f"warm replay: {n_cached} items served from cache, expected "
            f"{expected} ({len(cold)} - {len(edited)} edited - "
            f"{len(uncached - edited)} uncached failures)"
        )
    return failures


def results_digest(records: Sequence[Dict[str, Any]]) -> str:
    """Digest of every item's verdict and bounds (not its timings)."""
    h = hashlib.sha256()
    for r in records:
        result: Optional[Dict[str, Any]] = r.get("result") or {}
        core = {
            "id": r.get("id"),
            "method": r.get("method"),
            "status": r.get("status"),
            "schedulable": r.get("schedulable"),
            "converged": result.get("converged"),
            "rounds": result.get("rounds"),
            "wcrt": {j: v.get("wcrt") for j, v in (result.get("jobs") or {}).items()},
        }
        h.update(canonical(core).encode("utf-8"))
    return h.hexdigest()[:32]
