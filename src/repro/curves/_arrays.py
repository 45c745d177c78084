"""Storage shim for curve breakpoints: NumPy when available, pure Python else.

:class:`~repro.curves.curve.Curve` stores its breakpoints in whatever this
module hands back from :func:`asarray` -- a ``float64`` NumPy array when
NumPy is importable, a plain tuple of floats otherwise -- so the curve
algebra keeps working on zero-dependency installs.  The *kernels* that
operate on the storage live in :mod:`repro.curves.backend`; this module
only provides the small representation-level helpers (element access,
concatenation, hashing) that the :class:`Curve` value type itself needs.

Setting ``REPRO_CURVES_PURE_PYTHON=1`` in the environment makes the shim
behave as if NumPy were not installed (tuple storage, python backend
only), which is how the test suite and CI exercise the zero-dep path on
machines that do have NumPy.
"""

from __future__ import annotations

import math
import os
import struct
from typing import Iterable, List, Sequence, Tuple, Union

__all__ = [
    "HAVE_NUMPY",
    "np",
    "asarray",
    "tolist",
    "size",
    "concat",
    "freeze",
    "tobytes",
    "add",
    "mul",
    "clip_min",
    "unique_sorted",
    "midpoints",
    "filter_finite",
    "union_grid",
    "pairwise_min",
    "all_ge",
    "is_scalar",
    "iter_floats",
]

_FORCE_PURE = os.environ.get("REPRO_CURVES_PURE_PYTHON", "").strip() in (
    "1",
    "true",
    "yes",
)

if not _FORCE_PURE:
    try:
        import numpy as np  # type: ignore
    except ImportError:  # pragma: no cover - exercised via the env override
        np = None  # type: ignore[assignment]
else:
    np = None  # type: ignore[assignment]

#: True when breakpoint storage (and the ``numpy`` backend) is available.
HAVE_NUMPY = np is not None

Storage = Union["np.ndarray", Tuple[float, ...]]


if HAVE_NUMPY:

    def asarray(values) -> Storage:
        """Canonical storage form of a scalar or sequence of floats."""
        arr = np.asarray(values, dtype=float)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        return arr

    def tolist(a) -> List[float]:
        return np.asarray(a, dtype=float).ravel().tolist()

    def size(a) -> int:
        return int(np.size(a))

    def concat(parts: Sequence) -> Storage:
        return np.concatenate([np.atleast_1d(np.asarray(p, dtype=float)) for p in parts])

    def freeze(a) -> Storage:
        """Mark storage immutable (curves hand out views of it)."""
        arr = np.ascontiguousarray(a, dtype=float)
        arr.flags.writeable = False
        return arr

    def tobytes(a) -> bytes:
        return np.ascontiguousarray(a, dtype="<f8").tobytes()

    def add(a, k: float) -> Storage:
        return np.asarray(a, dtype=float) + k

    def mul(a, k: float) -> Storage:
        return np.asarray(a, dtype=float) * k

    def clip_min(a, lo: float) -> Storage:
        return np.maximum(np.asarray(a, dtype=float), lo)

    def unique_sorted(a) -> Storage:
        return np.unique(np.asarray(a, dtype=float))

    def midpoints(a) -> Storage:
        arr = np.asarray(a, dtype=float)
        return (arr[:-1] + arr[1:]) / 2.0

    def filter_finite(a) -> Storage:
        arr = np.atleast_1d(np.asarray(a, dtype=float))
        return arr[np.isfinite(arr)]

    def union_grid(arrays: Sequence, t_end: float = math.inf) -> Storage:
        """Sorted union of abscissa arrays on ``[0, t_end]``, 0 included.

        Exact duplicates are collapsed; points closer than EPS must NOT be
        merged (a jump just after a merged abscissa would be evaluated
        pre-jump and silently dropped).
        """
        parts = [np.asarray(a, dtype=float) for a in arrays if np.size(a)]
        if not parts:
            return np.array([0.0])
        grid = np.unique(np.concatenate(parts))
        grid = grid[(grid >= 0.0) & (grid <= t_end)]
        if grid.size == 0 or grid[0] > 0.0:
            grid = np.concatenate(([0.0], grid))
        return grid

    def pairwise_min(a, b) -> Storage:
        return np.minimum(np.asarray(a, dtype=float), np.asarray(b, dtype=float))

    def all_ge(a, b, tol: float) -> bool:
        return bool(
            np.all(np.asarray(a, dtype=float) >= np.asarray(b, dtype=float) - tol)
        )

else:

    def _floats(values) -> List[float]:
        if isinstance(values, (int, float)):
            return [float(values)]
        return [float(v) for v in values]

    def asarray(values) -> Storage:
        return tuple(_floats(values))

    def tolist(a) -> List[float]:
        return _floats(a)

    def size(a) -> int:
        if isinstance(a, (int, float)):
            return 1
        return len(a)

    def concat(parts: Sequence) -> Storage:
        out: List[float] = []
        for p in parts:
            out.extend(_floats(p))
        return tuple(out)

    def freeze(a) -> Storage:
        return tuple(_floats(a))

    def tobytes(a) -> bytes:
        vals = _floats(a)
        return struct.pack(f"<{len(vals)}d", *vals)

    def add(a, k: float) -> Storage:
        return tuple(v + k for v in _floats(a))

    def mul(a, k: float) -> Storage:
        return tuple(v * k for v in _floats(a))

    def clip_min(a, lo: float) -> Storage:
        # np.maximum(v, lo): ``lo`` on ties (so -0.0 clips to 0.0), NaN kept.
        return tuple(v if v > lo or v != v else lo for v in _floats(a))

    def unique_sorted(a) -> Storage:
        return tuple(sorted(set(_floats(a))))

    def midpoints(a) -> Storage:
        vals = _floats(a)
        return tuple((vals[i] + vals[i + 1]) / 2.0 for i in range(len(vals) - 1))

    def filter_finite(a) -> Storage:
        return tuple(v for v in _floats(a) if math.isfinite(v))

    def union_grid(arrays: Sequence, t_end: float = math.inf) -> Storage:
        merged: set = set()
        for a in arrays:
            merged.update(_floats(a))
        grid = [v for v in sorted(merged) if 0.0 <= v <= t_end]
        if not grid or grid[0] > 0.0:
            grid.insert(0, 0.0)
        return tuple(grid)

    def pairwise_min(a, b) -> Storage:
        return tuple(min(x, y) for x, y in zip(_floats(a), _floats(b)))

    def all_ge(a, b, tol: float) -> bool:
        return all(x >= y - tol for x, y in zip(_floats(a), _floats(b)))


def iter_floats(a) -> Iterable[float]:
    """Iterate storage values as python floats (both storage kinds)."""
    for v in tolist(a):
        yield v


def is_scalar(v) -> bool:
    """True for plain numbers and 0-d arrays (scalar query semantics)."""
    if isinstance(v, (int, float)):
        return True
    return getattr(v, "ndim", None) == 0
