"""Core signature algebra: closed forms, Chen concatenation, invariances."""

import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pathsig import (
    InputError,
    TruncatedSignature,
    as_path,
    chen_concat,
    levy_area,
    path_signature,
    path_signature_batch,
    segment_signature,
    signature_bruteforce,
    signature_dimension,
)
from pathsig import signature, skeleton
from pathsig.signature import _chen_product, _horner_fold, _level_blocks
from pathsig.skeleton import FeatureConfig


def random_path(rng, length, dim, scale=1.0):
    return scale * rng.standard_normal((length, dim))


# ---------------------------------------------------------------- dimensions


def test_dimension_small_cases():
    assert signature_dimension(2, 2) == 6
    assert signature_dimension(1, 5) == 5
    assert signature_dimension(2, 2, include_zeroth=True) == 7
    assert signature_dimension(3, 1) == 3
    assert signature_dimension(2, 0) == 0
    assert signature_dimension(2, 0, include_zeroth=True) == 1


def test_dimension_large_exact():
    # 60^1 + 60^2 + 60^3 + 60^4, exact integer arithmetic
    assert signature_dimension(60, 4) == 13_179_660
    assert isinstance(signature_dimension(60, 4), int)
    assert signature_dimension(60, 4, include_zeroth=True) == 13_179_661


def test_dimension_validates():
    with pytest.raises(InputError):
        signature_dimension(0, 2)
    with pytest.raises(InputError):
        signature_dimension(2, -1)


def test_dimension_past_any_array_is_a_memory_error_at_once():
    start = time.perf_counter()
    with pytest.raises(MemoryError, match="past any array's size"):
        signature_dimension(2, 10**30)
    assert time.perf_counter() - start < 1.0
    assert signature_dimension(1, 10**30) == 10**30
    assert signature_dimension(2, 1 << 15) == 2 ** (2**15 + 1) - 2


def test_signatures_of_a_batch_past_any_array_are_a_memory_error():
    # each level-30 planar signature fits an array; 2^40 of them together do not
    with pytest.raises(MemoryError, match="past any array's size"):
        _horner_fold(np.empty((0, 2, 1 << 40)), 30)


def test_an_int_too_long_to_print_is_named_by_its_bit_length():
    # Python refuses str() of an int past 4,300 digits; messages give its bits
    for call in (lambda: path_signature(np.zeros((3, 2)), 10**5000),
                 lambda: signature_dimension(10**5000, 10)):
        with pytest.raises(MemoryError, match="an integer of 16,610 bits"):
            call()


def test_stored_size_independent_of_length():
    rng = np.random.default_rng(0)
    sizes = set()
    for length in (1, 2, 7, 40, 100):
        sig = path_signature(random_path(rng, length, 3), 3)
        sizes.add(sig.data.size)
    assert sizes == {signature_dimension(3, 3)}


# ---------------------------------------------------------- container basics


def test_level_views_and_offsets():
    sig = path_signature([[0.0, 0.0], [1.0, 2.0]], 3)
    assert sig.level(1).shape == (2,)
    assert sig.level(2).shape == (4,)
    assert sig.level(3).shape == (8,)
    # level() is a view into the flat buffer
    sig.level(1)[0] = 99.0
    assert sig.data[0] == 99.0
    with pytest.raises(InputError):
        sig.level(0)
    with pytest.raises(InputError):
        sig.level(4)


def test_coefficient_lookup_matches_block_order():
    sig = segment_signature([0.0, 0.0], [3.0, 4.0], 2)
    assert sig.coefficient((0,)) == 3.0
    assert sig.coefficient((1,)) == 4.0
    assert sig.coefficient((0, 1)) == sig.level(2)[1]
    assert sig.coefficient((1, 0)) == sig.level(2)[2]
    with pytest.raises(InputError):
        sig.coefficient((2,))
    with pytest.raises(InputError):
        sig.coefficient(())


def test_copy_is_independent():
    sig = segment_signature([0.0], [1.0], 2)
    dup = sig.copy()
    dup.level(1)[0] = -5.0
    assert sig.level(1)[0] == 1.0


def test_zeros_constructor():
    sig = TruncatedSignature.zeros(3, 2)
    assert sig.data.shape == (12,)
    assert not sig.data.any()


def test_repr_names_the_shape():
    sig = path_signature([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], 3)
    assert repr(sig) == "TruncatedSignature(d=2, n=3, 14 coefficients)"


def test_buffer_shape_validated():
    with pytest.raises(InputError):
        TruncatedSignature(2, 2, np.zeros(5))


def test_as_path_promotes_1d():
    assert as_path([1.0, 2.0, 4.0]).shape == (3, 1)
    with pytest.raises(InputError):
        as_path([[np.nan, 0.0]])
    with pytest.raises(InputError):
        as_path(np.zeros((2, 2, 2)))


# ------------------------------------------------------------------ segments


def test_segment_1d_closed_form():
    sig = segment_signature([0.0], [2.0], 3)
    assert np.allclose(sig.data, [2.0, 2.0, 4.0 / 3.0], rtol=0, atol=1e-15)


def test_segment_2d_level2():
    sig = segment_signature([0.0, 0.0], [3.0, 4.0], 2)
    assert sig.level(1).tolist() == [3.0, 4.0]
    assert sig.level(2).tolist() == [4.5, 6.0, 6.0, 8.0]


def test_segment_zero_increment():
    sig = segment_signature([1.0, 2.0], [1.0, 2.0], 2)
    assert not sig.data.any()


def test_segment_errors():
    with pytest.raises(InputError):
        segment_signature([0.0], [1.0, 2.0], 2)
    with pytest.raises(InputError):
        segment_signature([0.0], [1.0], 0)


# ---------------------------------------------------------------------- chen


RIGHT_ANGLE = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
# signature of (0,0) -> (1,0) -> (0,1) at level 2, derived and oracle-checked
RIGHT_ANGLE_L1 = [0.0, 1.0]
RIGHT_ANGLE_L2 = [0.0, 0.5, -0.5, 0.5]  # S11, S12, S21, S22


def test_chen_right_angle():
    a = segment_signature([0.0, 0.0], [1.0, 0.0], 2)
    b = segment_signature([1.0, 0.0], [0.0, 1.0], 2)
    c = chen_concat(a, b)
    assert np.allclose(c.level(1), RIGHT_ANGLE_L1, atol=1e-15)
    assert np.allclose(c.level(2), RIGHT_ANGLE_L2, atol=1e-15)


def test_chen_zero_segment_is_identity():
    rng = np.random.default_rng(1)
    sig = path_signature(random_path(rng, 6, 3), 3)
    same = chen_concat(sig, TruncatedSignature.zeros(3, 3))
    assert np.array_equal(same.data, sig.data)
    same = chen_concat(TruncatedSignature.zeros(3, 3), sig)
    assert np.array_equal(same.data, sig.data)


def test_chen_1d_increments_add():
    a = segment_signature([0.0], [1.0], 2)
    c = chen_concat(a, a)
    assert np.allclose(c.data, [2.0, 2.0], atol=1e-15)


def test_chen_mismatch_errors():
    with pytest.raises(InputError):
        chen_concat(TruncatedSignature.zeros(2, 2), TruncatedSignature.zeros(3, 2))
    with pytest.raises(InputError):
        chen_concat(TruncatedSignature.zeros(2, 2), TruncatedSignature.zeros(2, 3))


def test_chen_splits_match_whole():
    rng = np.random.default_rng(42)
    for _ in range(40):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        length = int(rng.integers(3, 21))
        path = random_path(rng, length, d)
        cut = int(rng.integers(1, length - 1))
        whole = path_signature(path, n)
        joined = chen_concat(path_signature(path[: cut + 1], n),
                             path_signature(path[cut:], n))
        scale = np.maximum(np.abs(whole.data), 1.0)
        assert np.all(np.abs(joined.data - whole.data) <= 1e-10 * scale)


# ------------------------------------------------------------ path signature


def test_path_collinear_equals_segment():
    sig = path_signature([[0.0, 0.0], [1.5, 2.0], [3.0, 4.0]], 2)
    ref = segment_signature([0.0, 0.0], [3.0, 4.0], 2)
    assert np.allclose(sig.data, ref.data, rtol=1e-12, atol=1e-12)


def test_path_right_angle_values():
    sig = path_signature(RIGHT_ANGLE, 2)
    assert np.allclose(sig.level(1), RIGHT_ANGLE_L1, atol=1e-15)
    assert np.allclose(sig.level(2), RIGHT_ANGLE_L2, atol=1e-15)


def test_single_point_path_is_zero():
    sig = path_signature([[2.0, 3.0]], 3)
    assert not sig.data.any()


def test_path_validates_input():
    with pytest.raises(InputError):
        path_signature([[0.0, 0.0], [1.0, np.inf]], 2)
    with pytest.raises(InputError):
        path_signature(np.zeros((0, 2)), 2)
    with pytest.raises(InputError):
        path_signature([[0.0, 0.0]], 0)


def test_1d_path_closed_form():
    # level-k coefficient of a 1-D path is Delta^k / k!
    rng = np.random.default_rng(7)
    for _ in range(20):
        series = np.cumsum(rng.uniform(-1.0, 1.0, size=9))
        series = series / max(1.0, np.abs(series).max()) * rng.uniform(0.0, 10.0)
        delta = series[-1] - series[0]
        sig = path_signature(series, 6)
        expect = [delta ** k / math.factorial(k) for k in range(1, 7)]
        assert np.allclose(sig.data, expect, rtol=1e-12, atol=1e-12)


# --------------------------------------------------------------- invariances


def test_reparameterization_invariance():
    rng = np.random.default_rng(11)
    for _ in range(30):
        d = int(rng.integers(1, 4))
        path = random_path(rng, int(rng.integers(3, 12)), d)
        i = int(rng.integers(0, len(path) - 1))
        t = rng.uniform(0.0, 1.0)
        inserted = np.insert(path, i + 1, (1 - t) * path[i] + t * path[i + 1], axis=0)
        a = path_signature(path, 3)
        b = path_signature(inserted, 3)
        scale = np.maximum(np.abs(a.data), 1.0)
        assert np.all(np.abs(a.data - b.data) <= 1e-10 * scale)


def test_time_reversal_inverts():
    rng = np.random.default_rng(12)
    for _ in range(30):
        d = int(rng.integers(1, 4))
        path = random_path(rng, int(rng.integers(2, 12)), d)
        combined = chen_concat(path_signature(path, 3), path_signature(path[::-1], 3))
        assert np.all(np.abs(combined.data) <= 1e-10)


def test_translation_invariance_bit_exact_on_dyadic():
    # dyadic coordinates and a dyadic shift: increments are exact, so the
    # signature must not change in a single bit
    path = np.array([[0.0, 0.25], [0.5, 1.0], [1.75, -0.5], [2.0, 3.25]])
    shifted = path + np.array([128.0, -64.5])
    a = path_signature(path, 3)
    b = path_signature(shifted, 3)
    assert np.array_equal(a.data, b.data)


def test_translation_invariance_general():
    rng = np.random.default_rng(13)
    for _ in range(30):
        path = random_path(rng, 10, 3)
        shift = rng.standard_normal(3) * 100.0
        a = path_signature(path, 3)
        b = path_signature(path + shift, 3)
        scale = np.maximum(np.abs(a.data), 1.0)
        assert np.all(np.abs(a.data - b.data) <= 1e-10 * scale)


def test_shuffle_identity():
    rng = np.random.default_rng(14)
    for _ in range(30):
        path = random_path(rng, int(rng.integers(2, 15)), 2)
        sig = path_signature(path, 2)
        s1, s2 = sig.level(1)
        s12 = sig.coefficient((0, 1))
        s21 = sig.coefficient((1, 0))
        assert abs(s1 * s2 - (s12 + s21)) <= 1e-10 * max(1.0, abs(s1 * s2))


# ------------------------------------------------------------------ levy area


def test_levy_area_values():
    assert levy_area(segment_signature([0.0, 0.0], [3.0, 4.0], 2)) == 0.0
    assert abs(levy_area(path_signature(RIGHT_ANGLE, 2)) - 1.0) <= 1e-14
    assert abs(levy_area(path_signature(RIGHT_ANGLE[::-1], 2)) + 1.0) <= 1e-14


def test_levy_area_requires_2d_level2():
    with pytest.raises(InputError):
        levy_area(segment_signature([0.0], [1.0], 2))
    with pytest.raises(InputError, match="d = 3"):
        levy_area(segment_signature([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 2))
    with pytest.raises(InputError):
        levy_area(segment_signature([0.0, 0.0], [1.0, 1.0], 1))


# -------------------------------------------------------------------- oracle


def test_oracle_exact_on_trivial_cases():
    zero = signature_bruteforce(np.zeros((4, 2)), 2, 50)
    assert not zero.data.any()
    # telescoping level-1 sum is exact for any refinement
    one_d = signature_bruteforce(np.array([[0.0], [2.0], [3.0]]), 1, 17)
    assert one_d.level(1)[0] == pytest.approx(3.0, abs=1e-12)


def test_oracle_matches_segment_closed_form():
    ref = segment_signature([0.0, 0.0], [3.0, 4.0], 2)
    approx = signature_bruteforce(np.array([[0.0, 0.0], [3.0, 4.0]]), 2, 10_000)
    scale = np.maximum(np.abs(ref.data), 1.0)
    assert np.all(np.abs(approx.data - ref.data) <= 1e-3 * scale)


def test_oracle_agrees_with_path_signature():
    rng = np.random.default_rng(21)
    for _ in range(5):
        d = int(rng.integers(1, 4))
        path = random_path(rng, int(rng.integers(2, 9)), d)
        fast = path_signature(path, 3)
        slow = signature_bruteforce(path, 3, 10_000)
        scale = np.maximum(np.abs(fast.data), 1.0)
        assert np.all(np.abs(fast.data - slow.data) <= 1e-3 * scale)


def test_oracle_validates_subdivisions():
    with pytest.raises(InputError):
        signature_bruteforce(np.zeros((2, 2)), 2, 0)


def test_oracle_of_a_one_point_path_is_zero():
    point = np.array([[1.0, -2.0, 0.5]])
    sig = signature_bruteforce(point, 3, 10)
    assert (sig.d, sig.n) == (3, 3) and not sig.data.any()
    assert np.array_equal(sig.data, path_signature(point, 3).data)


# --------------------------------------------------------------------- batch


def test_batch_matches_scalar():
    rng = np.random.default_rng(31)
    paths = rng.standard_normal((6, 9, 3))
    batch = path_signature_batch(paths, 3)
    assert batch.shape == (6, signature_dimension(3, 3))
    for i, path in enumerate(paths):
        assert np.array_equal(batch[i], path_signature(path, 3).data)


def test_batch_single_point_paths():
    batch = path_signature_batch(np.zeros((3, 1, 2)), 2)
    assert batch.shape == (3, 6)
    assert not batch.any()


def test_batch_validates():
    with pytest.raises(InputError):
        path_signature_batch(np.zeros((3, 4)), 2)


def reference_batch_signature(paths, level):
    """The batch-outermost Horner loop the channel-first fold replaced."""
    B, L, d = paths.shape
    levels = [np.zeros((B, d ** k)) for k in range(1, level + 1)]
    if L >= 2:
        increments = np.diff(paths, axis=1)
        for s in range(L - 1):
            delta = increments[:, s, :]
            dscaled = [None] + [delta / i for i in range(1, level + 1)]
            for k in range(level, 0, -1):
                q = dscaled[k]
                for j in range(1, k):
                    q = q + levels[j - 1]
                    q = (q[:, :, None] * dscaled[k - j][:, None, :]).reshape(B, -1)
                levels[k - 1] += q
    return np.concatenate(levels, axis=1)


def test_fold_bit_identical_to_batch_outermost_loop():
    rng = np.random.default_rng(47)
    for B in (1, 7):
        for L in (1, 2, 3, 9):
            for d in (1, 2, 3, 5):
                paths = rng.standard_normal((B, L, d))
                for level in range(1, 6):
                    expect = reference_batch_signature(paths, level)
                    batch = path_signature_batch(paths, level)
                    assert batch.flags.c_contiguous
                    assert np.array_equal(batch, expect), (B, L, d, level)
                    assert np.array_equal(path_signature(paths[0], level).data, expect[0])


# ------------------------------------------------------- batched Chen product


def reference_chen_concat(a, b):
    """The per-signature Chen loop the batched product replaced."""
    out = TruncatedSignature.zeros(a.d, a.n)
    for k in range(1, a.n + 1):
        blk = out.level(k)
        np.add(a.level(k), b.level(k), out=blk)
        for m in range(1, k):
            blk += np.multiply(a.level(m)[:, None], b.level(k - m)[None, :]).ravel()
    return out


def test_chen_product_matches_chen_concat_column_by_column():
    rng = np.random.default_rng(53)
    for d in (1, 2, 3, 4):
        for level in range(1, 6):
            m = signature_dimension(d, level)
            a, b = rng.standard_normal((2, m, 7))
            product = _chen_product(a, b, d, level)
            assert product.shape == (m, 7)
            for col in range(7):
                sa = TruncatedSignature(d, level, a[:, col])
                sb = TruncatedSignature(d, level, b[:, col])
                expect = reference_chen_concat(sa, sb).data
                assert np.array_equal(chen_concat(sa, sb).data, expect), (d, level)
                assert np.array_equal(product[:, col], expect), (d, level, col)


# ------------------------------------------- row-blocked outer-product adds


def reference_horner_fold(increments, level):
    """The fold before row blocking: level k's last product built whole, then added."""
    _, d, B = increments.shape
    out = np.zeros((signature_dimension(d, level), B))
    levels = _level_blocks(out, d, level)
    q = [np.empty((d ** (j + 1), B)) for j in range(level)]
    dscaled = np.empty((level, d, B))
    divisors = np.arange(1.0, level + 1)[:, None, None]
    for delta in increments:
        np.divide(delta, divisors, out=dscaled)
        for k in range(level, 0, -1):
            acc = dscaled[k - 1]
            for j in range(1, k):
                np.add(acc, levels[j - 1], out=q[j - 1])
                np.multiply(q[j - 1][:, None], dscaled[k - j - 1], out=q[j].reshape(-1, d, B))
                acc = q[j]
            levels[k - 1] += acc
    return out


def reference_chen_product(a, b, d, level):
    """The Chen product before row blocking: each a_m (x) b_{k-m} built whole, then added."""
    out = a + b
    blocks_a, blocks_b, blocks_out = (_level_blocks(x, d, level) for x in (a, b, out))
    for k in range(2, level + 1):
        for m in range(1, k):
            outer = blocks_a[m - 1][:, None] * blocks_b[k - m - 1][None]
            blocks_out[k - 1] += outer.reshape(d ** k, -1)
    return out


# (M, d, B, level): B = 1 and B > 1, level 1, d = 1, M = 0, and with the
# default block size d = 60, level 3, B = 1 takes its top level in three
# 1,092-row blocks and a short 324-row one.  At B = 1 the fold takes one
# first letter at a time once a letter's share of the top level, d**(level-1),
# fills a block: at the default size d = 20, level 5, d = 8, level 7 and
# d = 2, level 17 (2^17 entries over two prefixes); at 50 entries d = 60,
# level 3 as well.  A split pass contracts its top level's first min(M, d)
# segments in one einsum and adds the rest one at a time: M > d runs both
# halves (d = 8, level 7 over 10 segments; d = 2, level 17; at 50 entries
# d = 60, level 3 over 61 segments), M = d only the contraction
BLOCKED_CASES = [(5, 3, 1, 4), (5, 3, 2, 4), (4, 3, 7, 5), (6, 4, 1, 1), (6, 1, 5, 6),
                 (0, 3, 2, 3), (1, 2, 1, 2), (3, 60, 1, 3), (4, 20, 1, 5), (3, 8, 1, 7),
                 (5, 2, 1, 17), (10, 8, 1, 7), (60, 60, 1, 3), (61, 60, 1, 3)]


@pytest.mark.parametrize("block_entries", [50, signature._BLOCK_ENTRIES])
def test_blocked_fold_is_byte_identical_to_unblocked(monkeypatch, block_entries):
    # 50 entries: d = 3, B = 2 splits level 4's 27 rows as 8 + 8 + 8 + 3, and
    # d = 3, B = 7 splits level 5's 81 rows into 40 blocks of 2 and one of 1
    monkeypatch.setattr(signature, "_BLOCK_ENTRIES", block_entries)
    rng = np.random.default_rng(61)
    for M, d, B, level in BLOCKED_CASES:
        increments = rng.standard_normal((M, d, B))
        got = _horner_fold(increments, level)
        assert got.tobytes() == reference_horner_fold(increments, level).tobytes(), (M, d, B, level)
        paths = np.concatenate([np.zeros((B, 1, d)), np.cumsum(increments.transpose(2, 0, 1), axis=1)],
                               axis=1)
        batch = path_signature_batch(paths, level)
        assert batch.tobytes() == reference_horner_fold(
            np.ascontiguousarray(np.diff(paths, axis=1).transpose(1, 2, 0)), level).T.tobytes()


@pytest.mark.parametrize("K", [1, 2, 15, 99])
def test_einsum_contraction_is_an_in_order_sum_from_zero(K):
    # The split fold's top level rests on this: np.einsum('tr,tc->rc', Q, D,
    # out=) zeroes out and adds each rounded product Q[t, r] * D[t, c] in
    # order of t, with no fused multiply-add, as the per-segment fold does.
    # A numpy build whose einsum fuses or reorders them fails here.
    rng = np.random.default_rng(89)
    for R, C in ((1, 1), (7, 3), (3600, 60)):
        Q, D = rng.standard_normal((K, R)), rng.standard_normal((K, C))
        Q[:, 0] = -0.0  # products -0.0 and +0.0; a sum from +0.0 stays +0.0
        Q[::2, -1] = -0.0
        Q[1::2, -1] = 0.0
        expect = np.zeros((R, C))
        for t in range(K):
            expect += Q[t][:, None] * D[t]
        got = np.full((R, C), np.nan)
        np.einsum("tr,tc->rc", Q, D, out=got)
        assert got.tobytes() == expect.tobytes(), (K, R, C)
        assert not np.signbit(got[0]).any()


@pytest.mark.parametrize("block_entries", [50, signature._BLOCK_ENTRIES])
def test_blocked_chen_product_is_byte_identical_to_unblocked(monkeypatch, block_entries):
    monkeypatch.setattr(signature, "_BLOCK_ENTRIES", block_entries)
    rng = np.random.default_rng(67)
    for _, d, B, level in BLOCKED_CASES:
        a, b = rng.standard_normal((2, signature_dimension(d, level), B))
        got = _chen_product(a, b, d, level)
        assert got.tobytes() == reference_chen_product(a, b, d, level).tobytes(), (d, B, level)
    sa, sb = (path_signature(rng.standard_normal((4, 60)), 3) for _ in range(2))
    expect = reference_chen_product(sa.data[:, None], sb.data[:, None], 60, 3)[:, 0]
    assert chen_concat(sa, sb).data.tobytes() == expect.tobytes()


@pytest.mark.parametrize("block_entries", [50, signature._BLOCK_ENTRIES])
def test_blocked_dyadic_chen_fold_is_byte_identical_to_unblocked(monkeypatch, block_entries):
    monkeypatch.setattr(signature, "_BLOCK_ENTRIES", block_entries)
    rng = np.random.default_rng(71)
    config = replace(FeatureConfig(), dyadic=True, dyadic_depth=3)
    increments = rng.standard_normal((17, 3, 6))
    got = skeleton._temporal_signatures(increments, 4, config)
    monkeypatch.setattr(skeleton, "_horner_fold", reference_horner_fold)
    monkeypatch.setattr(skeleton, "_chen_product", reference_chen_product)
    assert got.tobytes() == skeleton._temporal_signatures(increments, 4, config).tobytes()


@pytest.mark.parametrize("block_entries", [50, signature._BLOCK_ENTRIES])
def test_fold_of_signed_zero_increments_is_byte_identical(monkeypatch, block_entries):
    # Channels 0 and 2 stay at zero but flip their sign, so their increments
    # alternate -0.0 and +0.0; their products with channels 1 and 3 are -0.0
    # through np.multiply and +0.0 through the B = 1 einsum.  Every partial
    # is added onto a level (never -0.0) before it is used, so the bytes agree.
    monkeypatch.setattr(signature, "_BLOCK_ENTRIES", block_entries)
    rng = np.random.default_rng(83)
    path = np.zeros((9, 4))
    path[:, [1, 3]] = rng.standard_normal((9, 2))
    path[1::2, [0, 2]] = -0.0
    increments = np.diff(path, axis=0)[:, :, None]
    assert np.signbit(increments[:, 0]).any() and not increments[:, 0].any()
    for level in (2, 4, 5):
        expect = reference_horner_fold(increments, level)[:, 0]
        assert path_signature(path, level).data.tobytes() == expect.tobytes(), level


def test_chen_concat_of_signed_zeros_equals_the_reference():
    # a_2 + b_2 = -0.0 + -0.0 is -0.0, and a_1 (x) b_1 = -0.0 * 1.0 adds
    # -0.0 through np.multiply but +0.0 through the B = 1 einsum: equal, not
    # byte-identical
    a = TruncatedSignature(3, 3, np.full(signature_dimension(3, 3), -0.0))
    b = a.copy()
    b.level(1)[:] = 1.0
    got = chen_concat(a, b).data
    assert np.array_equal(got, reference_chen_product(a.data[:, None], b.data[:, None], 3, 3)[:, 0])
    assert not got[3:].any()


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_path_signature_holds_little_beyond_its_output():
    # d = 40, level 4: the output is 21.0 MB; the unblocked fold also held a
    # level-4-sized product, about twice the output in all
    path = np.random.default_rng(73).standard_normal((5, 40))
    sig, peak = traced_peak(path_signature, path, 4)
    assert peak < sig.data.nbytes + 2 * 2**20


@pytest.mark.parametrize("d, level, points", [(20, 5, 40), (8, 7, 20)])
def test_split_fold_holds_one_block_beyond_its_output(d, level, points):
    # The split fold's top-level partials of up to d segments are at most
    # one level-(level - 1) block; its other scratch stays under 1 MiB
    path = np.random.default_rng(97).standard_normal((points, d))
    sig, peak = traced_peak(path_signature, path, level)
    assert peak < sig.data.nbytes + 8 * d ** (level - 1) + 2**20


def test_chen_concat_holds_little_beyond_its_output():
    rng = np.random.default_rng(79)
    a, b = (path_signature(rng.standard_normal((3, 40)), 4) for _ in range(2))
    c, peak = traced_peak(chen_concat, a, b)
    assert peak < c.data.nbytes + 2 * 2**20
