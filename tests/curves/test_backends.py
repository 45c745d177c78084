"""Backend registry, selection, and numpy/python bit-identity contract.

The two curve backends must produce *byte-identical* curves for every
kernel -- not merely approximately equal ones.  The property tests here
drive each kernel under both backends on hypothesis-generated curves and
compare raw breakpoint storage.  The registry tests cover selection
(process-wide, scoped, environment) and the deprecation shims of the old
constructor surface.
"""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curves import (
    Curve,
    BackendError,
    active_backend_name,
    available_backends,
    curve_cache,
    default_backend_name,
    identity_minus,
    service_transform,
    set_backend,
    sum_curves,
    use_backend,
)
from repro.curves.backend import get_backend
from repro.curves.ops import fcfs_service_bounds, min_curves

#: Bit-identity and selection tests need both backends; under a numpy-less
#: interpreter (or REPRO_CURVES_PURE_PYTHON=1) only "python" exists.
needs_numpy = pytest.mark.skipif(
    "numpy" not in available_backends(),
    reason="numpy backend unavailable (no numpy or forced pure-python mode)",
)

# -- strategies ------------------------------------------------------------

times_strategy = st.lists(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False),
    min_size=0,
    max_size=25,
)


@st.composite
def step_curves(draw):
    times = draw(times_strategy)
    height = draw(st.floats(min_value=0.05, max_value=3.0))
    return Curve.step_from_times(times, height)


@st.composite
def raw_breakpoint_data(draw):
    """Raw (xs, ys, final_slope) of a non-decreasing PLF.

    Kept un-normalized so construction tests can feed the *same* input to
    both backends; canonicalization is not idempotent in general (the seed
    collapses e.g. an all-flat ramp differently on a second pass), so
    comparing a once-normalized curve against a rebuilt one would test
    idempotency, not backend identity.
    """
    n = draw(st.integers(min_value=1, max_value=12))
    dx = draw(st.lists(st.floats(min_value=0.0, max_value=5.0),
                       min_size=n, max_size=n))
    dy = draw(st.lists(st.floats(min_value=0.0, max_value=3.0),
                       min_size=n, max_size=n))
    xs = np.concatenate(([0.0], np.cumsum(dx)))
    ys = np.concatenate(([0.0], np.cumsum(dy)))
    fs = draw(st.floats(min_value=0.0, max_value=2.0))
    return xs, ys, fs


@st.composite
def general_curves(draw):
    """Non-decreasing PLF mixing sloped segments, plateaus, and jumps."""
    xs, ys, fs = draw(raw_breakpoint_data())
    return Curve.from_breakpoints(xs, ys, fs)


any_curves = st.one_of(step_curves(), general_curves())

query_lists = st.lists(
    st.floats(min_value=0.0, max_value=80.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=12,
)


def _bytes(curve):
    bp = curve.breakpoints()
    return (
        np.asarray(bp.x).tobytes(),
        np.asarray(bp.y).tobytes(),
        curve.final_slope,
    )


def assert_identical(a: Curve, b: Curve):
    assert _bytes(a) == _bytes(b)


# -- registry and selection ------------------------------------------------


@needs_numpy
def test_known_backends_are_available():
    names = available_backends()
    assert "python" in names
    assert "numpy" in names  # numpy is installed in the test environment


@needs_numpy
def test_default_backend_prefers_numpy():
    assert default_backend_name() == "numpy"
    assert active_backend_name() in available_backends()


def test_unknown_backend_rejected():
    with pytest.raises(BackendError):
        get_backend("fortran")
    with pytest.raises(BackendError):
        set_backend("fortran")


@needs_numpy
def test_use_backend_scopes_and_restores():
    before = active_backend_name()
    with use_backend("python") as b:
        assert b.name == "python"
        assert active_backend_name() == "python"
        with use_backend("numpy"):
            assert active_backend_name() == "numpy"
        assert active_backend_name() == "python"
    assert active_backend_name() == before


def test_set_backend_returns_previous():
    before = active_backend_name()
    previous = set_backend("python")
    try:
        assert previous == before
        assert active_backend_name() == "python"
    finally:
        set_backend(previous)


def test_env_var_selects_default_backend():
    out = subprocess.run(
        [sys.executable, "-c",
         "from repro.curves import active_backend_name;"
         "print(active_backend_name())"],
        env={**os.environ, "REPRO_CURVE_BACKEND": "python",
             "PYTHONPATH": "src"},
        capture_output=True,
        text=True,
        cwd=os.path.join(os.path.dirname(__file__), "..", ".."),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "python"


# -- deprecation shims -----------------------------------------------------


def test_direct_construction_is_deprecated_but_works():
    with pytest.warns(DeprecationWarning, match="from_breakpoints"):
        c = Curve([0.0, 1.0], [0.0, 2.0], final_slope=0.5)
    assert c.value(1.0) == 2.0


def test_x_y_attribute_reads_are_deprecated():
    c = Curve.from_breakpoints([0.0, 1.0], [0.0, 2.0])
    with pytest.warns(DeprecationWarning, match="breakpoints"):
        xs = c.x
    with pytest.warns(DeprecationWarning, match="breakpoints"):
        ys = c.y
    assert np.allclose(np.asarray(xs), [0.0, 1.0])
    assert np.allclose(np.asarray(ys), [0.0, 2.0])


def test_factories_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        Curve.from_breakpoints([0.0, 1.0], [0.0, 1.0], final_slope=1.0)
        Curve.from_staircase([1.0, 2.0], 1.0)
        Curve.from_token_bucket(rate=1.0, burst=2.0)
        Curve.step_from_times([1.0], 1.0)
        Curve.zero()
        Curve.identity()


# -- numpy/python bit-identity: construction and normalization -------------


@needs_numpy
@settings(max_examples=80)
@given(raw_breakpoint_data())
def test_normalize_bit_identical(data):
    xs, ys, fs = data
    with use_backend("numpy"):
        a = Curve.from_breakpoints(xs, ys, fs)
    with use_backend("python"):
        b = Curve.from_breakpoints(xs, ys, fs)
    assert_identical(a, b)


@needs_numpy
@settings(max_examples=80)
@given(times_strategy, st.floats(min_value=0.05, max_value=3.0))
def test_step_from_times_bit_identical(times, height):
    with use_backend("numpy"):
        a = Curve.step_from_times(times, height)
    with use_backend("python"):
        b = Curve.step_from_times(times, height)
    assert_identical(a, b)


# -- numpy/python bit-identity: the five kernels ---------------------------


@needs_numpy
@settings(max_examples=80)
@given(any_curves, query_lists)
def test_eval_kernels_bit_identical(c, ts):
    q = np.asarray(ts, dtype=float)
    with use_backend("numpy"):
        nv, nl = np.asarray(c.value(q)), np.asarray(c.value_left(q))
    with use_backend("python"):
        pv, pl = np.asarray(c.value(q)), np.asarray(c.value_left(q))
    assert nv.tobytes() == pv.tobytes()
    assert nl.tobytes() == pl.tobytes()
    # 0-d queries straight into the numpy kernels give the same bits.
    numpy_backend = get_backend("numpy")
    bp = c.breakpoints()
    x, y, fs = np.asarray(bp.x), np.asarray(bp.y), c.final_slope
    for t, v, l in zip(q, nv, nl):
        assert numpy_backend.eval_right(x, y, fs, t).tobytes() == v.tobytes()
        assert numpy_backend.eval_left(x, y, fs, t).tobytes() == l.tobytes()


@needs_numpy
@settings(max_examples=80)
@given(any_curves, query_lists)
def test_inverse_kernels_bit_identical(c, vs):
    q = np.asarray(vs, dtype=float)
    with use_backend("numpy"):
        nf, nb = np.asarray(c.first_crossing(q)), np.asarray(c.last_below(q))
    with use_backend("python"):
        pf, pb = np.asarray(c.first_crossing(q)), np.asarray(c.last_below(q))
    assert nf.tobytes() == pf.tobytes()
    assert nb.tobytes() == pb.tobytes()


@needs_numpy
@settings(max_examples=60)
@given(st.lists(any_curves, min_size=2, max_size=4))
def test_sum_curves_bit_identical(curves):
    with use_backend("numpy"):
        a = sum_curves(curves)
    with use_backend("python"):
        b = sum_curves(curves)
    assert_identical(a, b)


@needs_numpy
@settings(max_examples=60)
@given(any_curves, any_curves)
def test_min_curves_bit_identical(c1, c2):
    with use_backend("numpy"):
        a = min_curves(c1, c2)
    with use_backend("python"):
        b = min_curves(c1, c2)
    assert_identical(a, b)


@st.composite
def bounded_rate_curves(draw):
    """Curves with slope <= 1 everywhere (valid identity_minus input)."""
    n = draw(st.integers(min_value=1, max_value=8))
    dx = draw(st.lists(st.floats(min_value=0.01, max_value=5.0),
                       min_size=n, max_size=n))
    rho = draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                        min_size=n, max_size=n))
    xs = np.concatenate(([0.0], np.cumsum(dx)))
    ys = np.concatenate(([0.0], np.cumsum(np.asarray(rho) * np.asarray(dx))))
    fs = draw(st.floats(min_value=0.0, max_value=1.0))
    return Curve.from_breakpoints(xs, ys, fs)


@needs_numpy
@settings(max_examples=60)
@given(
    bounded_rate_curves(),
    st.floats(min_value=0.0, max_value=3.0),
    st.sampled_from(["exact", "lower", "upper"]),
)
def test_identity_minus_bit_identical(total, lateness, mode):
    with use_backend("numpy"):
        a = identity_minus(total, lateness=lateness, mode=mode)
    with use_backend("python"):
        b = identity_minus(total, lateness=lateness, mode=mode)
    assert_identical(a, b)


@needs_numpy
@settings(max_examples=60)
@given(
    bounded_rate_curves(),
    step_curves(),
    st.floats(min_value=0.0, max_value=3.0),
)
def test_service_transform_bit_identical(B, c, lag):
    with use_backend("numpy"):
        a = service_transform(B, c, lag=lag, t_end=120.0)
    with use_backend("python"):
        b = service_transform(B, c, lag=lag, t_end=120.0)
    assert_identical(a, b)


@needs_numpy
@settings(max_examples=40)
@given(step_curves(), st.floats(min_value=0.1, max_value=2.0))
def test_fcfs_service_bounds_bit_identical(c, tau):
    with use_backend("numpy"):
        lo_a, up_a = fcfs_service_bounds(c, c, tau, t_end=120.0)
    with use_backend("python"):
        lo_b, up_b = fcfs_service_bounds(c, c, tau, t_end=120.0)
    assert_identical(lo_a, lo_b)
    assert_identical(up_a, up_b)


# -- memoization across backend flips --------------------------------------


@needs_numpy
def test_cache_entries_do_not_cross_backends():
    """Flipping backends mid-process must miss, not serve stale entries.

    Backends are bit-identical by contract, but a cross-backend hit would
    mask any violation of that contract (and make it unreproducible), so
    the cache keys mix in the backend name.
    """
    B = Curve.identity()
    c = Curve.step_from_times([0.0, 2.0, 4.0], 1.5)
    with curve_cache() as cache:
        with use_backend("numpy"):
            first = service_transform(B, c, 0.5, 30.0)
            assert cache.stats().misses == 1
        with use_backend("python"):
            second = service_transform(B, c, 0.5, 30.0)
            # Same operands, different backend: a fresh miss.
            assert cache.stats().misses == 2
            assert second is not first
            third = service_transform(B, c, 0.5, 30.0)
            assert third is second  # hit within the python scope
        with use_backend("numpy"):
            fourth = service_transform(B, c, 0.5, 30.0)
            assert fourth is first  # numpy entry still present
    assert_identical(first, second)


# -- numpy/python bit-identity: the exact-step and EPS-guard fast paths ----

#: Offsets that put points on, within ``EPS`` of, or just beyond ``EPS``
#: from a neighbour.
NUDGES = [0.0, 0.0, 2e-10, -3e-10, 6e-10, 1e-9, 1.5e-9, 0.5]


@st.composite
def near_step_curves(draw, pool):
    """A step curve over times drawn from ``pool``, possibly nudged.

    Shared pools give coincident and sub-``EPS``-apart jumps across
    curves.  ``kind`` picks the construction: the staircase factory, raw
    breakpoints (keeps sub-``EPS`` jump heights), or raw breakpoints with
    one sub-``EPS`` ramp -- a curve that passes ``is_step(EPS)`` but is
    not exactly flat.
    """
    picks = draw(st.lists(st.sampled_from(pool), max_size=8))
    nudges = draw(st.lists(st.sampled_from(NUDGES), min_size=len(picks),
                           max_size=len(picks)))
    times = sorted({max(0.0, t + d) for t, d in zip(picks, nudges)})
    height = draw(st.sampled_from([1.0, 0.25, 2e-9, 5e-10])
                  | st.floats(min_value=0.05, max_value=3.0))
    kind = draw(st.sampled_from(["staircase", "raw", "near"]))
    if kind == "staircase" or not times:
        return Curve.step_from_times(times, height)
    xs, ys = [0.0], [0.0]
    for t in times:
        xs += [t, t]
        ys += [ys[-1], ys[-1] + height]
    fs = 0.0
    if kind == "near":
        tweak = draw(st.sampled_from(["rise", "slant", "slope"]))
        k = draw(st.integers(min_value=1, max_value=len(xs) - 1))
        if tweak == "rise":  # a plateau rising by less than EPS
            ys[k:] = [v + 5e-10 for v in ys[k:]]
        elif tweak == "slant":  # a jump spread over less than EPS
            xs[k:] = [v + 5e-10 for v in xs[k:]]
        else:
            fs = 5e-10
    return Curve.from_breakpoints(xs, ys, fs, canonicalize=False)


@st.composite
def step_curve_families(draw):
    pool = draw(st.lists(
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        min_size=1, max_size=8,
    ))
    n = draw(st.integers(min_value=2, max_value=16))
    return [draw(near_step_curves(pool)) for _ in range(n)]


@needs_numpy
@settings(max_examples=80, deadline=None)
@given(step_curve_families())
def test_sum_of_step_curves_bit_identical(curves):
    with use_backend("numpy"):
        a = sum_curves(curves)
    with use_backend("python"):
        b = sum_curves(curves)
    assert_identical(a, b)


@st.composite
def clustered_service_inputs(draw):
    """``(B, c)`` with ``B``'s breakpoints in clusters narrower than ``EPS``.

    Each base breakpoint of the bounded-rate ``B`` is followed by up to
    three more within (or just beyond) ``EPS``; ``c`` jumps on or near
    them, so crossovers and piece boundaries land inside clusters too.
    Canonicalization would merge the clusters, so ``B`` keeps its raw
    breakpoints.
    """
    widths = draw(st.lists(st.floats(min_value=0.05, max_value=4.0),
                           min_size=1, max_size=6))
    xs = [0.0]
    for w in widths:
        base = xs[-1] + w
        xs.append(base)
        gaps = draw(st.lists(st.sampled_from([2e-10, 4e-10, 6e-10, 9e-10, 1.5e-9]),
                             max_size=3))
        for g in gaps:
            xs.append(xs[-1] + g)
    slopes = draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                           min_size=len(xs) - 1, max_size=len(xs) - 1))
    ys = [0.0]
    for i, s in enumerate(slopes):
        ys.append(ys[-1] + s * (xs[i + 1] - xs[i]))
    fs = draw(st.floats(min_value=0.0, max_value=1.0))
    B = Curve.from_breakpoints(xs, ys, fs, canonicalize=False)
    picks = draw(st.lists(st.sampled_from(xs), min_size=1, max_size=8))
    nudges = draw(st.lists(st.sampled_from(NUDGES), min_size=len(picks),
                           max_size=len(picks)))
    height = draw(st.floats(min_value=1e-3, max_value=3.0))
    c = Curve.step_from_times(
        [max(0.0, t + d) for t, d in zip(picks, nudges)], height
    )
    return B, c


@needs_numpy
@settings(max_examples=80, deadline=None)
@given(clustered_service_inputs(), st.sampled_from([0.0, 0.0, 3e-10, 0.7]))
def test_service_transform_with_clustered_B_bit_identical(inputs, lag):
    B, c = inputs
    t_end = float(B.breakpoints().x[-1]) + 5.0
    with use_backend("numpy"):
        a = service_transform(B, c, lag=lag, t_end=t_end)
    with use_backend("python"):
        b = service_transform(B, c, lag=lag, t_end=t_end)
    assert_identical(a, b)


@needs_numpy
def test_service_transform_guard_follows_the_last_emitted_point():
    """A chain of breakpoints of ``B``, each within EPS of the previous one.

    Along the branch the sequential rule keeps ``1.0``, drops ``1 + 6e-10``
    (within EPS of it), keeps ``1 + 1.2e-9`` (within EPS of the dropped
    point but more than EPS past the kept one) and drops ``1 + 1.8e-9``.
    """
    from repro.curves.backend.numpy_backend import _branch_emissions

    xs = [0.0, 1.0, 1.0 + 6e-10, 1.0 + 1.2e-9, 1.0 + 1.8e-9, 3.0]
    ys = [0.5 * x for x in xs]
    B = Curve.from_breakpoints(xs, ys, 0.5, canonicalize=False)
    c = Curve.step_from_times([0.0], 0.2)
    us, _, on_branch = _branch_emissions(B, c, 6.0)
    assert us.tolist() == [0.0, 0.4, 1.0, 1.0 + 1.2e-9, 3.0, 6.0]
    assert on_branch
    with use_backend("numpy"):
        a = service_transform(B, c, lag=0.0, t_end=6.0)
    with use_backend("python"):
        b = service_transform(B, c, lag=0.0, t_end=6.0)
    assert_identical(a, b)
