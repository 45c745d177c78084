"""Seeded workload inputs.

Every workload is a closed batch of ``(system, method)`` items built
from ``--seed`` alone: the same seed gives the same items (and the same
input digest), another seed gives other items.  The program under test
only ever receives the generated :class:`repro.batch.BatchItem` objects.

Requires ``repro`` to be importable (``run.py`` and ``measure.py`` put
the checkout's ``src`` first on ``sys.path``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Tuple

import numpy as np

from repro.batch import BatchItem
from repro.batch.journal import item_digest
from repro.experiments.admission import system_for_method
from repro.model import Job, JobSet, TraceArrivals
from repro.workloads import (
    ShopTopology,
    generate_aperiodic_jobset,
    generate_periodic_jobset,
)

FIG3_METHODS = ("SPP/Exact", "SPP/S&L", "SPNP/App", "FCFS/App")
FIG4_METHODS = ("SPP/Exact", "SPNP/App", "FCFS/App")
BURSTY_METHODS = ("SPP/Exact", "Fixpoint/App", "SPNP/App", "FCFS/App")
UTILIZATIONS = (0.2, 0.35, 0.5, 0.65, 0.8, 0.95)
STAGES = (1, 2, 4)
X_RANGE = (0.1, 1.0)  #: the repo's Figure 3/4 default period clip
#: Releases per job of a ``fig4-trace`` set.  Figure 4 analyses converge
#: within two horizon rounds (twice the initial horizon) for 196-206 of
#: 216 items on seeds 11, 12, 13, 15; within that span a Figure 4 job
#: releases 49 instances (median; quartiles 30 and 86, seeds 1-10).
#: A fixed count gives every seed the same amount of trace data.
TRACE_RELEASES = 50


@dataclass(frozen=True)
class Workload:
    name: str
    family: str  #: which input builder: fixture, fig3, fig4 or fig4-trace
    #: How a pass runs the batch: "per-item" (a fresh serial engine per
    #: item, so every analysis starts with a cold curve memo), "batch" (one
    #: serial engine, no disk), "cold" (2-worker campaign into an empty
    #: cache dir with journal and status file) or "warm" (the same
    #: campaign re-run against its populated cache, one item edited).
    mode: str
    #: Per-item budget handed to ``BatchEngine(timeout=...)``; far above
    #: every decided item measured at this revision (see README.md).
    budget_s: float = 60.0

    @property
    def n_workers(self) -> int:
        return 2 if self.mode in ("cold", "warm") else 0


#: Every workload ``run.py`` accepts.  ``BENCHMARK.json`` registers some
#: of them and says why; README.md describes them all.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("bursty-fixture", "fixture", "per-item"),
        Workload("fig4-trace-campaign", "fig4-trace", "cold"),
        Workload("fig4-trace-warm", "fig4-trace", "warm"),
        Workload("fig3-periodic", "fig3", "batch"),
        Workload("fig4-campaign", "fig4", "cold"),
        Workload("campaign-warm", "fig4", "warm"),
    )
}


@dataclass
class Inputs:
    items: List[BatchItem]
    #: Figure 3 only: each item's sweep point and method (the shape gate).
    meta: List[Dict[str, Any]] = field(default_factory=list)

    def digest(self) -> str:
        """Digest of every item's content digest, in submission order."""
        h = hashlib.sha256()
        for item in self.items:
            h.update(item_digest(item.system, item.method).encode("ascii"))
            h.update((item.item_id or "").encode("utf-8"))
        return h.hexdigest()[:32]


def _item(idx: int, job_set: JobSet, method: str) -> BatchItem:
    return BatchItem(
        system=system_for_method(job_set, method),
        method=method,
        item_id=f"{idx:04d}",
    )


def fig3_inputs(seed: int) -> Inputs:
    """One periodic set per (stages, deadline factor, utilization) point."""
    out = Inputs(items=[])
    for n_stages in STAGES:
        topo = ShopTopology(n_stages, 2)
        for factor in (2.0, 4.0):
            rng = np.random.default_rng([seed, 3, n_stages, int(factor)])
            for u in UTILIZATIONS:
                js = generate_periodic_jobset(
                    topo, 4, utilization=u, deadline_factor=factor, rng=rng,
                    x_range=X_RANGE, normalization="exact",
                )
                for m in FIG3_METHODS:
                    out.items.append(_item(len(out.items), js, m))
                    out.meta.append(
                        {"stages": n_stages, "factor": factor, "u": u,
                         "method": m}
                    )
    return out


def _fig4_job_sets(seed: int) -> Iterator[JobSet]:
    """One Eq. 27 bursty set per (stages, deadline mean, variance, utilization)."""
    for n_stages in STAGES:
        topo = ShopTopology(n_stages, 2)
        for variance in (2.0, 8.0):
            for mean in (2.0, 4.0):
                rng = np.random.default_rng(
                    [seed, 4, n_stages, int(mean), int(variance)]
                )
                for u in UTILIZATIONS:
                    yield generate_aperiodic_jobset(
                        topo, 4, utilization=u, deadline_mean=mean,
                        deadline_variance=variance, rng=rng, x_range=X_RANGE,
                        normalization="exact",
                    )


def fig4_inputs(seed: int) -> Inputs:
    out = Inputs(items=[])
    for js in _fig4_job_sets(seed):
        for m in FIG4_METHODS:
            out.items.append(_item(len(out.items), js, m))
    return out


def first_releases(arrivals, n: int) -> List[float]:
    """The first ``n`` release times of ``arrivals``."""
    t_end = 1.0
    while len(arrivals.release_times(t_end)) < n:
        t_end *= 2.0
    return arrivals.release_times(t_end)[:n].tolist()


def as_trace(job_set: JobSet, n: int) -> JobSet:
    """``job_set`` with every job's first ``n`` releases as a finite trace."""
    return JobSet([
        Job.build(job.job_id, [(s.processor, s.wcet) for s in job.subjobs],
                  TraceArrivals(first_releases(job.arrivals, n)),
                  job.deadline, release_jitter=job.release_jitter)
        for job in job_set
    ])


def fig4_trace_inputs(seed: int) -> Inputs:
    """The ``fig4-campaign`` sets, each job's Eq. 27 releases cut to a trace.

    Jobs, routes, execution times and deadlines are the Figure 4 sets of
    the same seed; each job keeps its first ``TRACE_RELEASES`` Eq. 27
    releases.  A finite trace ends every busy window, so no analysis runs
    into the horizon-doubling tail that makes ``fig4-campaign`` unsteady.
    """
    out = Inputs(items=[])
    for js in _fig4_job_sets(seed):
        trace = as_trace(js, TRACE_RELEASES)
        for m in FIG4_METHODS:
            out.items.append(_item(len(out.items), trace, m))
    return out


def bursty_job_set(seed: int, n_jobs: int = 16, n_inst: int = 2000,
                   spacing: float = 0.06, wcet: float = 0.1) -> JobSet:
    """The ``benchmarks/bench_analysis.bursty_fixture`` shape.

    Each job releases ``n_inst`` instances ``spacing`` apart through two
    hops; the seed only draws each job's burst offset in
    ``[0, spacing)``, so every seed has the same size and breakpoint count.
    """
    rng = np.random.default_rng([seed, 16])
    offsets = rng.uniform(0.0, spacing, size=n_jobs)
    return JobSet([
        Job.build(
            f"b{j:02d}",
            [("P0", wcet), ("P1", wcet)],
            TraceArrivals((offsets[j] + spacing * np.arange(n_inst)).tolist()),
            deadline=8000.0,
        )
        for j in range(n_jobs)
    ])


def bursty_inputs(seed: int) -> Inputs:
    js = bursty_job_set(seed)
    out = Inputs(items=[])
    for m in BURSTY_METHODS:
        out.items.append(_item(len(out.items), js, m))
    return out


def build(workload: str, seed: int) -> Inputs:
    family = WORKLOADS[workload].family
    return {
        "fixture": bursty_inputs,
        "fig4-trace": fig4_trace_inputs,
        "fig3": fig3_inputs,
        "fig4": fig4_inputs,
    }[family](seed)


def edited(item: BatchItem, factor: float) -> BatchItem:
    """``item`` with its first job's first-hop WCET scaled by ``factor``.

    A WCET never used before changes the item's content digest, so the
    edited item misses the result cache and is analyzed again.
    """
    jobs = []
    for k, job in enumerate(item.system.job_set):
        # Fresh jobs: priority assignment mutates subjobs, and the
        # original item's system must stay untouched.
        route = [(s.processor, s.wcet) for s in job.subjobs]
        if k == 0:
            route[0] = (route[0][0], route[0][1] * factor)
        jobs.append(Job.build(job.job_id, route, job.arrivals, job.deadline,
                              release_jitter=job.release_jitter))
    js = JobSet(jobs)
    return BatchItem(system=system_for_method(js, item.method),
                     method=item.method, item_id=item.item_id)


def edit_plan(seed: int, n_items: int) -> Iterator[Tuple[int, float]]:
    """Endless seeded stream of ``(item index, WCET factor)`` edits.

    Factors are distinct per pass, so every edit is a cache miss.
    """
    rng = np.random.default_rng([seed, 99])
    k = 0
    while True:
        k += 1
        yield int(rng.integers(n_items)), 1.0 + 1e-4 * k
