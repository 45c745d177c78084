"""Bit identity of the NumPy curve kernels with the scalar reference.

Every kernel in :mod:`repro.curves.kernels` must produce *byte-identical*
results to its scalar port in ``reference.py`` -- not merely
approximately equal ones.  The property tests here drive each kernel and
its reference on hypothesis-generated curves and compare raw breakpoint
storage; the reference computations never run a NumPy kernel.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from repro.curves import Curve, identity_minus, kernels, service_transform, sum_curves
from repro.curves.kernels import _branch_emissions
from repro.curves.ops import fcfs_service_bounds, min_curves

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
    the kernel and the reference; canonicalization is not idempotent in
    general (the seed collapses e.g. an all-flat ramp differently on a
    second pass), so comparing a once-normalized curve against a rebuilt
    one would test idempotency, not kernel identity.
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


def _bytes(x, y, final_slope):
    return (
        np.asarray(x, dtype=float).tobytes(),
        np.asarray(y, dtype=float).tobytes(),
        final_slope,
    )


def assert_identical(curve: Curve, expected: ref.Table):
    """``curve``'s storage is bit for bit the reference table ``expected``."""
    bp = curve.breakpoints()
    assert _bytes(bp.x, bp.y, curve.final_slope) == _bytes(*expected)


def assert_same_floats(got, expected):
    assert np.asarray(got, dtype=float).tobytes() == np.asarray(
        expected, dtype=float
    ).tobytes()


def test_factories_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        Curve.from_breakpoints([0.0, 1.0], [0.0, 1.0], final_slope=1.0)
        Curve.from_staircase([1.0, 2.0], 1.0)
        Curve.from_token_bucket(rate=1.0, burst=2.0)
        Curve.step_from_times([1.0], 1.0)
        Curve.zero()
        Curve.identity()


# -- construction and normalization ----------------------------------------


@settings(max_examples=80)
@given(raw_breakpoint_data())
def test_normalize_bit_identical(data):
    xs, ys, fs = data
    assert_identical(Curve.from_breakpoints(xs, ys, fs), ref.normalize(xs, ys, fs))


@settings(max_examples=80)
@given(times_strategy, st.floats(min_value=0.05, max_value=3.0))
def test_step_from_times_bit_identical(times, height):
    assert_identical(
        Curve.step_from_times(times, height), ref.step_from_times(times, height)
    )


# -- the five kernels --------------------------------------------------------


@settings(max_examples=80)
@given(any_curves, query_lists)
def test_eval_kernels_bit_identical(c, ts):
    q = np.asarray(ts, dtype=float)
    assert_same_floats(c.value(q), ref.eval_right(ref.table(c), ts))
    assert_same_floats(c.value_left(q), ref.eval_left(ref.table(c), ts))
    # 0-d queries straight into the kernels give the array path's bits.
    bp = c.breakpoints()
    x, y, fs = np.asarray(bp.x), np.asarray(bp.y), c.final_slope
    for t, v, l in zip(q, c.value(q), c.value_left(q)):
        assert kernels.eval_right(x, y, fs, t).tobytes() == v.tobytes()
        assert kernels.eval_left(x, y, fs, t).tobytes() == l.tobytes()


@settings(max_examples=80)
@given(any_curves, query_lists)
def test_inverse_kernels_bit_identical(c, vs):
    q = np.asarray(vs, dtype=float)
    assert_same_floats(c.first_crossing(q), ref.first_crossing(ref.table(c), vs))
    assert_same_floats(c.last_below(q), ref.last_below(ref.table(c), vs))


@settings(max_examples=60)
@given(st.lists(any_curves, min_size=2, max_size=4))
def test_sum_curves_bit_identical(curves):
    assert_identical(
        sum_curves(curves), ref.sum_curves([ref.table(c) for c in curves])
    )


@settings(max_examples=60)
@given(any_curves, any_curves)
def test_min_curves_bit_identical(c1, c2):
    assert_identical(
        min_curves(c1, c2), ref.min_curves(ref.table(c1), ref.table(c2))
    )


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


#: ``(y0, y1)`` pairs where the left limit ``y0 + 1.0 * (y1 - y0)`` rounds
#: away from ``y1``: a kernel that read ``y1`` there instead would drift.
ROUNDING_LEFT_LIMITS = [
    (1.6, 7.2), (3.2, 14.4), (4.8, 14.4), (0.48, 4.8), (0.96, 9.6), (0.8, 3.36),
]


@st.composite
def jumpy_rate_curves(draw):
    """Slope <= 1 totals with upward jumps (lower/upper-mode input).

    The first jump follows a ramp through one of
    :data:`ROUNDING_LEFT_LIMITS` and sits at ``x = y1 + 3``: for every
    lateness in ``[0, 3]``, ``x - lateness`` stays within a factor of two
    of ``y1``, so subtracting the left limit from it is exact and keeps
    the limit's last bit.  The tail may jump at any breakpoint.
    """
    y0, y1 = draw(st.sampled_from(ROUNDING_LEFT_LIMITS))
    assert y0 + 1.0 * (y1 - y0) != y1
    xs = [0.0, y0 + 1.0, y1 + 3.0, y1 + 3.0]
    ys = [0.0, y0, y1, y1 + draw(st.floats(min_value=0.05, max_value=3.0))]
    n = draw(st.integers(min_value=0, max_value=6))
    for _ in range(n):
        dx = draw(st.floats(min_value=0.01, max_value=5.0))
        xs.append(xs[-1] + dx)
        ys.append(ys[-1] + draw(st.floats(min_value=0.0, max_value=1.0)) * dx)
        jump = draw(st.sampled_from([0.0]) | st.floats(min_value=0.05, max_value=3.0))
        if jump:
            xs.append(xs[-1])
            ys.append(ys[-1] + jump)
    fs = draw(st.floats(min_value=0.0, max_value=1.0))
    return Curve.from_breakpoints(xs, ys, fs)


@settings(max_examples=100)
@given(
    st.one_of(
        st.tuples(bounded_rate_curves(),
                  st.sampled_from(["exact", "lower", "upper"])),
        # Exact mode rejects discontinuous totals, and lower mode's suffix
        # minimum hides the left limit at a jump: upper mode is where a
        # drifted left limit shows, so it gets a branch of its own.
        st.tuples(jumpy_rate_curves(), st.just("upper")),
        st.tuples(jumpy_rate_curves(), st.just("lower")),
    ),
    st.floats(min_value=0.0, max_value=3.0),
)
def test_identity_minus_bit_identical(case, lateness):
    total, mode = case
    assert_identical(
        identity_minus(total, lateness=lateness, mode=mode),
        ref.identity_minus(ref.table(total), lateness, mode),
    )


@settings(max_examples=60)
@given(
    bounded_rate_curves(),
    step_curves(),
    st.floats(min_value=0.0, max_value=3.0),
)
def test_service_transform_bit_identical(B, c, lag):
    assert_identical(
        service_transform(B, c, lag=lag, t_end=120.0),
        ref.service_transform(ref.table(B), ref.table(c), lag, 120.0),
    )


@settings(max_examples=40)
@given(step_curves(), st.floats(min_value=0.1, max_value=2.0))
def test_fcfs_service_bounds_bit_identical(c, tau):
    lower, upper = fcfs_service_bounds(c, c, tau, t_end=120.0)
    ref_lower, ref_upper = ref.fcfs_service_bounds(
        ref.table(c), ref.table(c), tau, 120.0
    )
    assert_identical(lower, ref_lower)
    assert_identical(upper, ref_upper)


# -- the exact-step and EPS-guard fast paths --------------------------------

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


@settings(max_examples=80, deadline=None)
@given(step_curve_families())
def test_sum_of_step_curves_bit_identical(curves):
    assert_identical(
        sum_curves(curves), ref.sum_curves([ref.table(c) for c in curves])
    )


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


@settings(max_examples=80, deadline=None)
@given(clustered_service_inputs(), st.sampled_from([0.0, 0.0, 3e-10, 0.7]))
def test_service_transform_with_clustered_B_bit_identical(inputs, lag):
    B, c = inputs
    t_end = float(B.breakpoints().x[-1]) + 5.0
    assert_identical(
        service_transform(B, c, lag=lag, t_end=t_end),
        ref.service_transform(ref.table(B), ref.table(c), lag, t_end),
    )


def test_service_transform_guard_follows_the_last_emitted_point():
    """A chain of breakpoints of ``B``, each within EPS of the previous one.

    Along the branch the sequential rule keeps ``1.0``, drops ``1 + 6e-10``
    (within EPS of it), keeps ``1 + 1.2e-9`` (within EPS of the dropped
    point but more than EPS past the kept one) and drops ``1 + 1.8e-9``.
    """
    xs = [0.0, 1.0, 1.0 + 6e-10, 1.0 + 1.2e-9, 1.0 + 1.8e-9, 3.0]
    ys = [0.5 * x for x in xs]
    B = Curve.from_breakpoints(xs, ys, 0.5, canonicalize=False)
    c = Curve.step_from_times([0.0], 0.2)
    us, _, on_branch = _branch_emissions(B, c, 6.0)
    assert us.tolist() == [0.0, 0.4, 1.0, 1.0 + 1.2e-9, 3.0, 6.0]
    assert on_branch
    assert_identical(
        service_transform(B, c, lag=0.0, t_end=6.0),
        ref.service_transform(ref.table(B), ref.table(c), 0.0, 6.0),
    )
