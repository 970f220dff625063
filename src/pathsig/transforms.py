"""Path-to-path preprocessing for the feature stack.

Time augmentation, lead-lag lifting, dyadic index windows, uniform frame
sampling, and gap interpolation.  All functions are pure; none mutates its
arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, check_array, check_entries, check_number
from .signature import as_path

__all__ = [
    "IndexWindow",
    "add_time",
    "lead_lag",
    "dyadic_windows",
    "uniform_sample",
    "fill_missing",
]


@dataclass(frozen=True)
class IndexWindow:
    """A closed index range [start, end] at dyadic depth ``level``.

    Adjacent windows at the same depth share exactly their boundary point,
    so signatures over the windows chain back into the whole-interval
    signature.
    """

    start: int
    end: int
    level: int


def add_time(path) -> np.ndarray:
    """Append a normalized time coordinate as the last column.

    Sample i gets time i/(L-1), spanning [0, 1] (a single point gets 0).
    The augmented path is strictly monotone in its last coordinate for
    L >= 2, so no two distinct augmented paths share a signature.
    """
    pts = as_path(path)
    return np.column_stack([pts, np.linspace(0.0, 1.0, pts.shape[0])])


def lead_lag(series, delay_dim: int) -> np.ndarray:
    """Lift a scalar series to ``delay_dim`` delayed copies of itself.

    Output coordinate j at time t is series[t - j] when t >= j, else 0
    (delay by j steps with zero front-padding), so a coordinate delayed by
    the series' length or more is all zeros.  delay_dim=1 returns the
    series as a one-column path.
    """
    arr = np.asarray(series, dtype=np.float64)
    arr = check_array(arr[:, 0] if arr.ndim == 2 and arr.shape[1] == 1 else arr, 1, "series")
    delay_dim = check_number(delay_dim, "delay_dim", ge=1)
    L = arr.size
    check_entries(L * delay_dim, "the lead-lag path")
    out = np.zeros((L, delay_dim))
    for j in range(min(delay_dim, L)):
        out[j:, j] = arr[: L - j]
    return out


def dyadic_windows(length: int, depth: int) -> list[IndexWindow]:
    """Dyadic partition of point indices 0..length-1 into 2**depth - 1 windows.

    Level j in 0..depth-1 splits at s = uniform_sample(length, 2**j + 1):
    s_m = round_half_up(m * (length-1) / 2**j), exact while m * (length-1)
    < 2**53, so for every length below 2**26.  Window m spans s_m..s_{m+1}
    inclusive, with two points or more while length-1 >= 2**(depth-1).
    """
    length = check_number(length, "length", ge=2)
    depth = check_number(depth, "depth", ge=1)
    if (length - 1).bit_length() < depth:  # length - 1 < 2**(depth - 1), without the power
        raise InputError(
            f"length {length} is too short for depth {depth}: "
            f"a window at the deepest level would degenerate to a point"
        )
    windows = []
    for j in range(depth):
        splits = uniform_sample(length, 2 ** j + 1).tolist()
        for m in range(2 ** j):
            windows.append(IndexWindow(splits[m], splits[m + 1], j))
    return windows


def uniform_sample(frame_count: int, count: int) -> np.ndarray:
    """Indices of ``count`` frames spread uniformly over 0..frame_count-1.

    Index i maps to round_half_up(i * (F-1) / (count-1)); all zeros when
    count == 1 or F == 1.  Repetition occurs when F < count.
    """
    frame_count = check_number(frame_count, "frame_count", ge=1)
    count = check_number(count, "count", ge=1)
    check_entries(count, "the sampled frame indices")
    if count == 1:
        return np.zeros(1, dtype=np.intp)
    # products below 2**53 are exact, so each quotient is the correctly rounded one
    steps = np.arange(count, dtype=np.float64) * (frame_count - 1) / (count - 1)
    return np.floor(steps + 0.5).astype(np.intp)


def _natural_spline(x, y, t) -> np.ndarray:
    """Evaluate at ``t`` the natural cubic spline through knots x (n >= 2)
    and values y (n, k); every t lies inside [x[0], x[-1]].

    The second derivatives M are zero at both ends, and the interior ones
    solve h[i-1] M[i-1] + 2 (h[i-1] + h[i]) M[i] + h[i] M[i+1] = 6 (s[i] -
    s[i-1]), with h the knot gaps and s the secant slopes.  Each step of
    that Thomas sweep needs the one before, so it runs on Python floats,
    one column at a time.  Each t then takes the cubic of its segment.
    """
    h = np.diff(x).astype(np.float64)
    rhs = 6.0 * np.diff(np.diff(y, axis=0) / h[:, None], axis=0)
    gaps, diag, w = h.tolist(), [], []
    for i in range(1, len(gaps)):
        w.append(gaps[i - 1] / diag[-1] if diag else 0.0)
        diag.append(2.0 * (gaps[i - 1] + gaps[i]) - w[-1] * gaps[i - 1])
    m = np.zeros_like(y)
    for c in range(y.shape[1]):
        r = rhs[:, c].tolist()
        for i in range(1, len(r)):
            r[i] -= w[i] * r[i - 1]
        q = 0.0
        for i in range(len(r) - 1, -1, -1):
            q = r[i] = (r[i] - gaps[i + 1] * q) / diag[i]
        m[1:-1, c] = r
    seg = np.searchsorted(x, t) - 1
    hs = h[seg][:, None]
    a = (x[seg + 1] - t)[:, None] / hs
    b = (t - x[seg])[:, None] / hs
    return a * y[seg] + b * y[seg + 1] + (
        (a ** 3 - a) * m[seg] + (b ** 3 - b) * m[seg + 1]) * (hs * hs / 6.0)


def fill_missing(values, valid) -> np.ndarray:
    """Complete a per-frame series given a validity mask.

    Interior gaps are filled per coordinate by a natural cubic spline
    through the valid frames (de Boor, *A Practical Guide to Splines*,
    1978: one tridiagonal solve for the second derivatives, zero at both
    ends); leading and trailing gaps hold the nearest valid value.  A
    series with a single valid frame is constant; one with no valid frame
    is all zeros.  Idempotent: a fully valid series is returned unchanged
    (as a copy).  Every valid value must be finite, whatever the mask.

    Args:
        values: (F,) or (F, k) array of per-frame values.
        valid: (F,) boolean mask, True where ``values`` is trustworthy.

    Returns:
        float array of the same shape with every frame filled in.
    """
    arr = np.asarray(values, dtype=np.float64)
    mask = np.asarray(valid, dtype=bool)
    if arr.ndim not in (1, 2):
        raise InputError(f"values must be 1-D or 2-D, got shape {arr.shape}")
    if mask.shape != (arr.shape[0],):
        raise InputError(
            f"validity mask shape {mask.shape} does not match {arr.shape[0]} frames"
        )
    out = arr.copy()
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        out[:] = 0.0
        return out
    if not np.all(np.isfinite(arr[idx])):
        raise InputError("valid frames contain non-finite values")
    positions = np.arange(arr.shape[0])
    interior = ~mask & (positions > idx[0]) & (positions < idx[-1])
    if np.any(interior):
        cols = out.reshape(arr.shape[0], -1)  # a view: filling it fills ``out``
        cols[interior] = _natural_spline(idx, cols[idx], positions[interior])
    out[positions < idx[0]] = arr[idx[0]]
    out[positions > idx[-1]] = arr[idx[-1]]
    return out
