"""Path lifts and per-frame preprocessing: time, lead-lag, windows, filling."""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import pathsig
from pathsig import (
    InputError,
    add_time,
    chen_concat,
    dyadic_windows,
    fill_missing,
    lead_lag,
    path_signature,
    uniform_sample,
)


# ------------------------------------------------------------------ add_time


def test_add_time_three_points():
    out = add_time([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    assert out.shape == (3, 3)
    assert out[:, 2].tolist() == [0.0, 0.5, 1.0]
    assert out[:, :2].tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]


def test_add_time_single_point():
    out = add_time([[7.0]])
    assert out.tolist() == [[7.0, 0.0]]


def test_add_time_five_points():
    out = add_time(np.zeros((5, 2)))
    assert out[:, 2].tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_add_time_strictly_increasing():
    for length in (2, 3, 10, 57):
        t = add_time(np.zeros((length, 1)))[:, 1]
        assert np.all(np.diff(t) > 0)


# ------------------------------------------------------------------ lead_lag


def test_lead_lag_examples():
    assert lead_lag([1.0, 2.0, 3.0], 2).tolist() == [[1, 0], [2, 1], [3, 2]]
    assert lead_lag([1.0, 2.0, 3.0], 1).tolist() == [[1], [2], [3]]
    assert lead_lag([5.0], 3).tolist() == [[5, 0, 0]]
    # delays of the length or more are zero channels
    assert lead_lag([1.0, 2.0, 3.0], 6).tolist() == [[1, 0, 0, 0, 0, 0], [2, 1, 0, 0, 0, 0],
                                                     [3, 2, 1, 0, 0, 0]]
    assert lead_lag([1.0, 2.0], 5).tolist() == [[1, 0, 0, 0, 0], [2, 1, 0, 0, 0]]


def test_lead_lag_delay_structure():
    series = np.arange(6, dtype=float) + 1
    out = lead_lag(series, 4)
    assert out.shape == (6, 4)
    for j in range(4):
        assert out[j:, j].tolist() == series[: 6 - j].tolist()
        assert not out[:j, j].any()


def test_lead_lag_identity_matches_closed_form():
    # signing the 1-column lift must give Delta^k / k!
    rng = np.random.default_rng(3)
    series = rng.standard_normal(8)
    sig = path_signature(lead_lag(series, 1), 4)
    delta = series[-1] - series[0]
    expect = [delta ** k / math.factorial(k) for k in range(1, 5)]
    assert np.allclose(sig.data, expect, rtol=1e-12, atol=1e-12)


def test_lead_lag_validates():
    with pytest.raises(InputError):
        lead_lag([1.0, 2.0], 0)
    with pytest.raises(InputError):
        lead_lag([[1.0, 2.0], [3.0, 4.0]], 2)
    for delay_dim in (2**62, 10**5000):  # past 4,300 digits, named by its bit length
        with pytest.raises(MemoryError, match="^the lead-lag path: "):
            lead_lag([1.0, 2.0], delay_dim)


# ------------------------------------------------------------ dyadic windows


def test_dyadic_windows_depth2():
    wins = dyadic_windows(9, 2)
    assert [(w.start, w.end, w.level) for w in wins] == [
        (0, 8, 0), (0, 4, 1), (4, 8, 1)]


def test_dyadic_windows_depth3():
    wins = dyadic_windows(9, 3)
    assert len(wins) == 7
    level2 = [(w.start, w.end) for w in wins if w.level == 2]
    assert level2 == [(0, 2), (2, 4), (4, 6), (6, 8)]


def test_dyadic_windows_round_half_up():
    # split of 5 at depth 1 lands on round(2.5) = 3, not banker's 2
    wins = dyadic_windows(6, 2)
    assert [(w.start, w.end) for w in wins] == [(0, 5), (0, 3), (3, 5)]
    # dividing by 2**j is exact, so round_half_up(m * (L-1) / 2**j) is this
    # integer form at every length and depth below
    for length in range(2, 2001):
        expected = []
        for depth in range(1, (length - 1).bit_length() + 1):
            j = depth - 1
            splits = [(2 * m * (length - 1) + 2 ** j) // 2 ** (j + 1) for m in range(2 ** j + 1)]
            expected += [(a, b, j) for a, b in zip(splits, splits[1:])]
            got = [(w.start, w.end, w.level) for w in dyadic_windows(length, depth)]
            assert got == expected, (length, depth)


def test_dyadic_windows_share_boundaries():
    for length, depth in ((9, 3), (17, 3), (100, 3), (5, 2)):
        wins = dyadic_windows(length, depth)
        for level in range(depth):
            row = [w for w in wins if w.level == level]
            assert row[0].start == 0 and row[-1].end == length - 1
            for left, right in zip(row, row[1:]):
                assert left.end == right.start


def test_dyadic_windows_degenerate_errors():
    with pytest.raises(InputError):
        dyadic_windows(4, 3)  # L-1 = 3 < 2**2
    with pytest.raises(InputError):
        dyadic_windows(1, 1)
    with pytest.raises(InputError, match="too short for depth"):
        dyadic_windows(9, 10**30)  # refused without building 2**(10**30)


def test_dyadic_chen_fold_reproduces_whole():
    rng = np.random.default_rng(5)
    for _ in range(10):
        length = int(rng.integers(9, 30))
        path = rng.standard_normal((length, 3))
        whole = path_signature(path, 3)
        for level in range(3):
            row = [w for w in dyadic_windows(length, 3) if w.level == level]
            folded = path_signature(path[row[0].start: row[0].end + 1], 3)
            for w in row[1:]:
                folded = chen_concat(folded, path_signature(path[w.start: w.end + 1], 3))
            scale = np.maximum(np.abs(whole.data), 1.0)
            assert np.all(np.abs(folded.data - whole.data) <= 1e-10 * scale)


# ------------------------------------------------------------ uniform_sample


def test_uniform_sample_examples():
    assert uniform_sample(19, 10).tolist() == [0, 2, 4, 6, 8, 10, 12, 14, 16, 18]
    assert uniform_sample(10, 10).tolist() == list(range(10))
    assert uniform_sample(5, 10).tolist() == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]


def test_uniform_sample_degenerate():
    assert uniform_sample(7, 1).tolist() == [0]
    assert uniform_sample(1, 4).tolist() == [0, 0, 0, 0]


def test_uniform_sample_monotone_and_spanning():
    rng = np.random.default_rng(6)
    for _ in range(50):
        frames = int(rng.integers(2, 200))
        count = int(rng.integers(2, 40))
        idx = uniform_sample(frames, count)
        assert idx[0] == 0 and idx[-1] == frames - 1
        assert np.all(np.diff(idx) >= 0)
        assert idx.max() < frames


def test_uniform_sample_validates():
    with pytest.raises(InputError):
        uniform_sample(0, 3)
    with pytest.raises(InputError):
        uniform_sample(3, 0)


def test_uniform_sample_matches_the_rounding_rule():
    for frames in range(1, 120, 3):
        for count in range(1, 300, 7):
            expect = [0] * count if count == 1 or frames == 1 else [
                math.floor(i * (frames - 1) / (count - 1) + 0.5) for i in range(count)]
            assert uniform_sample(frames, count).tolist() == expect, (frames, count)


def test_uniform_sample_past_any_array_is_a_memory_error_at_once():
    start = time.perf_counter()
    for count in (2**62, 10**5000):
        with pytest.raises(MemoryError, match="sampled frame indices"):
            uniform_sample(10, count)
    assert time.perf_counter() - start < 1.0


def test_uniform_sample_past_memory_is_a_memory_error_at_once():
    # 10**10 indices pass the array size check but not a 1 GiB address space;
    # the limit is set in a child process only
    code = ("import resource, time\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from pathsig import uniform_sample\n"
            "start = time.perf_counter()\n"
            "try:\n"
            "    uniform_sample(10, 10**10)\n"
            "except MemoryError:\n"
            "    print(time.perf_counter() - start)\n")
    src = os.path.dirname(os.path.dirname(pathsig.__file__))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=120, env={**os.environ, "PYTHONPATH": src,
                                              "OPENBLAS_NUM_THREADS": "1"})
    assert result.returncode == 0, result.stderr
    assert float(result.stdout) < 1.0


# -------------------------------------------------------------- fill_missing


def test_fill_fully_valid_unchanged():
    values = np.arange(12, dtype=float).reshape(6, 2)
    out = fill_missing(values, np.ones(6, dtype=bool))
    assert np.array_equal(out, values)


def test_fill_linear_gap_is_linear():
    # a natural cubic spline through collinear points is that line
    values = np.array([[0.0], [1.0], [0.0], [3.0], [4.0]])
    valid = np.array([True, True, False, True, True])
    out = fill_missing(values, valid)
    assert out[2, 0] == pytest.approx(2.0, abs=1e-10)


def test_fill_all_missing_is_zero():
    out = fill_missing(np.full((4, 3), 9.0), np.zeros(4, dtype=bool))
    assert not out.any()


def test_fill_rejects_other_shapes():
    with pytest.raises(InputError, match=r"^values must be 1-D or 2-D, got shape \(4, 2, 2\)$"):
        fill_missing(np.zeros((4, 2, 2)), np.ones(4, dtype=bool))
    for mask in (np.ones(3, dtype=bool), np.ones((4, 2), dtype=bool)):
        with pytest.raises(InputError, match=r"^validity mask shape .* does not match 4 frames$"):
            fill_missing(np.zeros((4, 2)), mask)


def test_fill_edges_hold_nearest():
    values = np.array([[9.0], [9.0], [1.0], [2.0], [9.0]])
    valid = np.array([False, False, True, True, False])
    out = fill_missing(values, valid)
    assert out[:, 0].tolist() == [1.0, 1.0, 1.0, 2.0, 2.0]


def test_fill_single_valid_frame_is_constant():
    values = np.array([[0.0, 0.0], [3.0, -1.0], [0.0, 0.0]])
    valid = np.array([False, True, False])
    out = fill_missing(values, valid)
    assert np.array_equal(out, np.tile([3.0, -1.0], (3, 1)))


def test_fill_idempotent():
    rng = np.random.default_rng(8)
    values = rng.standard_normal((20, 3))
    valid = rng.random(20) < 0.6
    valid[[0, -1]] = True
    once = fill_missing(values, valid)
    twice = fill_missing(once, np.ones(20, dtype=bool))
    assert np.array_equal(once, twice)


def _scipy_fill(values, valid):
    """fill_missing as it was built on scipy's CubicSpline: the reference."""
    interpolate = pytest.importorskip("scipy.interpolate")
    out = np.array(values, dtype=float)
    idx = np.flatnonzero(valid)
    positions = np.arange(out.shape[0])
    interior = ~valid & (positions > idx[0]) & (positions < idx[-1])
    spline = interpolate.CubicSpline(idx, out[idx], bc_type="natural", axis=0)
    out[interior] = spline(positions[interior])
    out[positions < idx[0]] = out[idx[0]]
    out[positions > idx[-1]] = out[idx[-1]]
    return out


def _assert_matches_scipy(values, valid):
    got = fill_missing(values, valid)
    ref = _scipy_fill(values, valid)
    # Measured against the series' size, max |ref| per column: near a zero
    # crossing of a large series both codes carry rounding of that size (on
    # one such point scipy was 2.6e-12 from the exact rational spline, and
    # fill_missing 1.6e-13).
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref).max(axis=0)))
    return got


def test_fill_matches_scipy_natural_spline_on_random_gaps():
    rng = np.random.default_rng(606)
    for _ in range(500):
        frames = int(rng.integers(3, 301))
        values = rng.standard_normal((frames, int(rng.integers(1, 4))))
        values *= 10.0 ** rng.uniform(-3.0, 3.0)
        valid = rng.random(frames) < rng.uniform(0.2, 0.95)
        valid[rng.choice(frames, 2, replace=False)] = True
        _assert_matches_scipy(values, valid)


def test_fill_two_valid_frames_is_linear():
    values = np.array([[2.0, -1.0]] + [[9.0, 9.0]] * 4 + [[7.0, 4.0]])
    valid = np.array([True, False, False, False, False, True])
    out = _assert_matches_scipy(values, valid)
    t = np.arange(6)[:, None] / 5.0
    assert np.allclose(out, (1 - t) * values[0] + t * values[5], rtol=0, atol=1e-15)


def test_fill_three_valid_frames_and_uneven_gaps():
    rng = np.random.default_rng(5)
    values = rng.standard_normal((9, 2))
    _assert_matches_scipy(values, np.isin(np.arange(9), [0, 3, 8]))
    values = rng.standard_normal((25, 3))
    _assert_matches_scipy(values, np.isin(np.arange(25), [1, 2, 7, 8, 9, 16, 17, 23]))


def test_fill_one_dimensional_series():
    rng = np.random.default_rng(6)
    values = rng.standard_normal(40)
    valid = rng.random(40) < 0.5
    valid[[3, 30]] = True
    out = _assert_matches_scipy(values, valid)
    assert out.shape == (40,)
    assert np.array_equal(out, fill_missing(values[:, None], valid)[:, 0])


def test_fill_rejects_non_finite_valid_frames():
    valid = np.array([True, True, False, True])
    with pytest.raises(InputError):
        fill_missing([1.0, np.nan, 3.0, 4.0], valid)
    # the same rule for one valid frame and for a fully valid series
    with pytest.raises(InputError):
        fill_missing([np.nan, 0.0], [True, False])
    with pytest.raises(InputError):
        fill_missing([1.0, np.inf], [True, True])
    # placeholders in missing frames are ignored
    assert fill_missing([1.0, 2.0, np.nan, 4.0], valid)[2] == pytest.approx(3.0)
