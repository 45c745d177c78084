"""Property-based invariants of the analyses themselves."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import (
    FcfsApproxAnalysis,
    HorizonConfig,
    SppApproxAnalysis,
    SppExactAnalysis,
    SpnpApproxAnalysis,
)
from repro.model import (
    Job,
    JobSet,
    PeriodicArrivals,
    System,
    assign_priorities_proportional_deadline,
)
from repro.sim import simulate

FAST = HorizonConfig(max_rounds=8)


@st.composite
def small_systems(draw):
    n_jobs = draw(st.integers(min_value=1, max_value=3))
    jobs = []
    for k in range(n_jobs):
        n_hops = draw(st.integers(min_value=1, max_value=2))
        # Stage-structured routes (hop j on a stage-j processor), as in the
        # paper's job shops: chains never revisit a processor, so the
        # single-pass analyses apply (loops are FixpointAnalysis territory).
        route = [
            (
                f"S{j}P{draw(st.integers(min_value=1, max_value=2))}",
                draw(st.floats(min_value=0.1, max_value=1.0)),
            )
            for j in range(n_hops)
        ]
        period = draw(st.floats(min_value=4.0, max_value=12.0))
        jobs.append(
            Job.build(f"J{k}", route, PeriodicArrivals(period), deadline=60.0)
        )
    return jobs


def analyzed(jobs, policy, analyzer):
    system = System(JobSet(jobs), policy)
    if policy != "fcfs":
        assign_priorities_proportional_deadline(system)
    return analyzer.analyze(system)


@given(small_systems())
@settings(max_examples=20, deadline=None)
def test_wcrt_at_least_total_wcet(jobs):
    res = analyzed(jobs, "spp", SppExactAnalysis(FAST))
    assume(res.drained)
    for job in jobs:
        assert res.jobs[job.job_id].wcrt >= job.total_wcet - 1e-9


@given(small_systems())
@settings(max_examples=15, deadline=None)
def test_exact_below_approximations(jobs):
    """Exactness: Theorem 1's value lower-bounds every SPP bound."""
    exact = analyzed(jobs, "spp", SppExactAnalysis(FAST))
    hopsum = analyzed(jobs, "spp", SppApproxAnalysis(FAST))
    assume(exact.drained and hopsum.drained)
    for job in jobs:
        e = exact.jobs[job.job_id].wcrt
        h = hopsum.jobs[job.job_id].wcrt
        if math.isfinite(e) and math.isfinite(h):
            assert h >= e - 1e-6


@pytest.mark.xfail(
    strict=True,
    reason="SPP/App declares convergence on a finite-horizon under-estimate "
    "(ROADMAP: Certified verdicts)",
)
def test_hop_sum_covers_the_simulated_response():
    """The SPP hop-sum bound must cover every simulated response.

    On this two-job system the simulator shows J0 responding in 1.625
    (equal to SPP/Exact), while SPP/App reports ``converged=True`` at
    1.6249102333931766 after 2 rounds at horizon 480: its finite-horizon
    bound never saw the worst phasing of the incommensurate periods.
    """
    jobs = [
        Job.build(
            "J0", [("S0P2", 0.875), ("S1P1", 0.5)], PeriodicArrivals(10.0),
            deadline=60.0,
        ),
        Job.build(
            "J1", [("S0P1", 0.5), ("S1P1", 0.25)],
            PeriodicArrivals(11.12890625), deadline=60.0,
        ),
    ]
    hopsum = analyzed(jobs, "spp", SppApproxAnalysis(FAST))
    system = System(JobSet(jobs), "spp")
    assign_priorities_proportional_deadline(system)
    sim = simulate(system, 20000.0)
    assert hopsum.jobs["J0"].wcrt >= sim.max_response("J0") - 1e-9


@given(small_systems(), st.floats(min_value=1.1, max_value=2.0))
@settings(max_examples=15, deadline=None)
def test_exact_monotone_in_wcet(jobs, scale):
    """Inflating one subjob's execution time never shrinks its job's
    exact response time."""
    base = analyzed(jobs, "spp", SppExactAnalysis(FAST))
    assume(base.drained)
    grown = [
        Job.build(
            j.job_id,
            [
                (s.processor, s.wcet * (scale if (j is jobs[0] and s.index == 0) else 1.0))
                for s in j.subjobs
            ],
            j.arrivals,
            j.deadline,
        )
        for j in jobs
    ]
    # Freeze the base priority assignment: re-running the proportional-
    # deadline policy on the grown system would recompute the Eq. 24
    # sub-deadlines from the inflated WCET, potentially reordering
    # priorities -- and a priority swap can legitimately shrink the
    # target's response.  Monotonicity holds per *fixed* priorities.
    for old, new in zip(jobs, grown):
        for s_old, s_new in zip(old.subjobs, new.subjobs):
            s_new.priority = s_old.priority
    # Keep the system loadable.
    assume(JobSet(grown).max_utilization() < 0.95)
    res = SppExactAnalysis(FAST).analyze(System(JobSet(grown), "spp"))
    assume(res.drained)
    target = jobs[0].job_id
    assert res.jobs[target].wcrt >= base.jobs[target].wcrt - 1e-6


@given(small_systems())
@settings(max_examples=10, deadline=None)
def test_adding_a_job_never_helps(jobs):
    """Interference monotonicity under the exact analysis."""
    base = analyzed(jobs, "spp", SppExactAnalysis(FAST))
    assume(base.drained)
    extra = Job.build("EXTRA", [("S0P1", 0.5)], PeriodicArrivals(6.0), 60.0)
    bigger = jobs + [extra]
    assume(JobSet(bigger).max_utilization() < 0.95)
    res = analyzed(bigger, "spp", SppExactAnalysis(FAST))
    assume(res.drained)
    for job in jobs:
        assert res.jobs[job.job_id].wcrt >= base.jobs[job.job_id].wcrt - 1e-6


@given(small_systems())
@settings(max_examples=10, deadline=None)
def test_all_methods_agree_on_lone_jobs(jobs):
    """With each job alone on its processors (rename to isolate), every
    method reports the sum of execution times."""
    isolated = [
        Job.build(
            j.job_id,
            [(f"{j.job_id}-{s.index}", s.wcet) for s in j.subjobs],
            j.arrivals,
            j.deadline,
        )
        for j in jobs
    ]
    for policy, analyzer in [
        ("spp", SppExactAnalysis(FAST)),
        ("spnp", SpnpApproxAnalysis(FAST)),
        ("fcfs", FcfsApproxAnalysis(FAST)),
    ]:
        res = analyzed(isolated, policy, analyzer)
        assume(res.drained)
        for j in isolated:
            assert res.jobs[j.job_id].wcrt == pytest.approx(
                j.total_wcet, rel=1e-6
            )
