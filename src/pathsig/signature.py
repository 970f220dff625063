"""Truncated signatures of piecewise-linear paths.

A path is an ordered sequence of points in R^d, stored as an (L, d) float
array.  Its signature is the graded collection of iterated integrals

    S(X)^{i_1 .. i_k} = integral over t_1 < .. < t_k of
                        dX^{i_1}(t_1) .. dX^{i_k}(t_k),

one coefficient per word (i_1, .., i_k) over the d coordinate channels.
Truncating at level n keeps the words of length 1..n, which for d >= 2 is
(d^{n+1} - d) / (d - 1) numbers (the constant level-0 term is always 1 and
is not stored).  Within level k the d^k coefficients are ordered
lexicographically by word, most significant letter first, so the level-k
block viewed as a (d, .., d) tensor has word (i_1, .., i_k) at position
[i_1, .., i_k].  Channel indices are 0-based throughout.

Two facts drive the implementation:

* Over a single straight segment with increment D = end - start the
  integrals collapse to S^{i_1 .. i_k} = D^{i_1} .. D^{i_k} / k!, i.e.
  level k is the k-fold tensor power of D divided by k!.

* Chen's identity: the signature of a concatenation is the tensor
  (convolution) product of the signatures,
  c_k = sum_{m=0..k} a_m (x) b_{k-m}, with a_0 = b_0 = 1.

One private fold, ``_horner_fold``, serves ``path_signature`` (B = 1),
``path_signature_batch`` and the feature stack's temporal blocks, and one
private Chen product, ``_chen_product``, serves ``chen_concat`` (B = 1)
and the feature stack's dyadic windows.  Both are channel-first: increments
are (segments, d, B) and level k is a (d**k, B) block, so the batch is the
innermost, contiguous axis of every in-place add and outer product.  The
feature stack signs thousands of short paths with d = 2 or 3, where a
batch-outermost layout would leave each numpy call an inner loop of d.
The fold appends segments with a Horner rearrangement of Chen's identity:
appending a segment with increment D updates level k to

    a_k + (a_{k-1} + (a_{k-2} + .. (a_1 + D/k (x) ..) (x) D/(k-1)) (x) D/1

which touches each level-j block once per appended segment instead of once
per (j, k) pair.  Levels are updated from n down to 1 so the lower-level
blocks read on the right-hand side are still the pre-append values.  The
last step of each level k >= 2, level_k += (..) (x) D/1, and every
a_m (x) b_{k-m} term of the Chen product are added straight into their
output block a block of rows at a time: each row block's outer product is
formed in one reused scratch of ``_BLOCK_ENTRIES`` entries (512 KiB, which
stays in L2) and then added, so no level-sized product is ever built.
Besides its output, the fold holds the partial products of levels
1..n-1 (d^(n-1) B entries and less) and that one scratch; the Chen
product holds only the scratch.  Each coefficient still gets the same
multiply and add in the same order, so results are bit-for-bit those of
building the whole product first.

A single path (B = 1) takes two more steps, both bit-for-bit as well.
Every outer product goes through ``_outer``, which at B = 1 is
``np.einsum('rb,cb->rcb')``: there the broadcast ``np.multiply`` runs
one short inner loop per row, and costs more per entry than einsum for
the same rounded products.  And once one letter's share of the top
level fills a scratch (d^(n-1) >= ``_BLOCK_ENTRIES``), the fold
runs its segment loop once per first letter a, on the rows of every
level whose words start with a (rows a d^(k-1) to (a+1) d^(k-1) of
level k).  Such a word is updated from words that start with a and the
increment only, so each coefficient gets the same operations in the
same order; the partials shrink d-fold, and each letter's 1.7 MB slice
of the top level (d = 60, n = 4) stays in cache across all segments
instead of the whole 104 MB level streaming from memory once per
segment.  Each pass repeats every numpy call of a segment, so a smaller
share costs more in calls than it saves, and splitting whenever
d^n > ``_BLOCK_ENTRIES`` made small top levels slower.  Both stop at
B > 1, where the batch axis already gives each numpy call a long inner
loop, and either one made ``assemble_features`` slower.  ROADMAP's
"Measured and not pursued" keeps the timings.

A split pass takes its top level's first K = min(M, d) segments in one
contraction.  Nothing reads the top level before the fold ends, so the
pass keeps segment t's top-level Horner partial (a_{n-1} + ..) as row t
of one (K, d^(n-2)) array Q and, at segment K - 1, writes the letter's
top slice, viewed as (d^(n-2), d), with np.einsum('tr,tc->rc', Q, D)
over the first K increments (D/1 is D exactly).  numpy's own einsum
loop, not BLAS, zeroes its ``out`` and then adds each t's rounded
product in order of t: the same adds onto +0.0 that the per-segment
fold makes, with no fused multiply-add at numpy's x86-64 baseline
(``test_einsum_contraction_is_an_in_order_sum_from_zero`` pins this, so
a numpy build that fuses or reorders fails there by name).  Later
segments are added one at a time as before: einsum restarts from zero,
so a second chunk could only be added onto the level, which rounds
differently.  With K <= d, Q is at most one level-(n-1) block
(8 d^(n-1) bytes), and its last row is also the scratch of the
partial.  The contraction makes the fold faster; np.matmul of it is
faster still, but BLAS's fused multiply-add changes the last bits.

einsum writes +0.0 where np.multiply writes -0.0 (for -0.0 * 1.0).  The
fold never shows it: its levels start at +0.0 and only receive
additions, so none is ever -0.0, and every partial is added onto a level
before it is used, where +0.0 and -0.0 give the same sum.  The Chen
product starts from a_k + b_k, which is -0.0 where both are, so there a
coefficient can come out +0.0 where np.multiply's products leave -0.0;
the two compare equal.

``signature_bruteforce`` is an intentionally independent check: it refines
the path onto a uniform grid and evaluates the iterated integrals as
nested Riemann sums that weight each step by the lower level averaged at
the step's two ends, sharing no code path with the closed-form routines.
It is second-order accurate: its error decays like 1/subdivisions^2.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, _shown, check_array, check_entries, check_number

# Entries in the scratch of a row-blocked outer-product add (_row_blocks):
# 512 KiB stays in L2; 2^14 to 2^17 measured within noise of each other.
_BLOCK_ENTRIES = 1 << 16

__all__ = [
    "TruncatedSignature",
    "as_path",
    "signature_dimension",
    "segment_signature",
    "chen_concat",
    "path_signature",
    "path_signature_batch",
    "signature_bruteforce",
    "levy_area",
]


def signature_dimension(d: int, n: int, include_zeroth: bool = False) -> int:
    """Number of signature coefficients for a d-dimensional path up to level n.

    Computed with exact integer arithmetic.  For d >= 2, a count past
    2^32,768 (far past any array's size) is a MemoryError before that
    integer is built.

    Args:
        d: path dimension, >= 1.
        n: truncation level, >= 0.
        include_zeroth: if True, count the constant level-0 coefficient too.

    Returns:
        sum of d**k for k in 1..n, plus 1 if include_zeroth.
    """
    d = check_number(d, "d", ge=1)
    n = check_number(n, "n", ge=0)
    if d == 1:
        total = n
    elif n * d.bit_length() > 1 << 16:  # then d**n > 2**(1 << 15)
        raise MemoryError(f"level-{_shown(n)} signature of a {_shown(d)}-dimensional path: "
                          f"more than 2^32,768 coefficients, past any array's size")
    else:
        total = (d ** (n + 1) - d) // (d - 1)
    return total + 1 if include_zeroth else total


def as_path(points) -> np.ndarray:
    """Validate and convert ``points`` to an (L, d) float64 path array.

    Accepts any array-like; a 1-D sequence is treated as a path in R^1.
    Rejects empty arrays and non-finite entries.
    """
    arr = np.asarray(points, dtype=np.float64)
    return check_array(arr[:, None] if arr.ndim == 1 else arr, 2, "path")


class TruncatedSignature:
    """Signature coefficients of one path, truncated at level ``n``.

    Coefficients live in a single flat float64 buffer ``data`` with the
    level-k block at ``data[offset_k : offset_k + d**k]``; ``level(k)``
    returns that block as a writable view.  The implicit level-0
    coefficient is 1 and is not stored.
    """

    __slots__ = ("d", "n", "data", "_offsets")

    def __init__(self, d: int, n: int, data: np.ndarray):
        self.d = d = check_number(d, "d", ge=1)
        self.n = n = check_number(n, "n", ge=1)
        data = np.ascontiguousarray(data, dtype=np.float64)
        if data.shape != (signature_dimension(d, n),):
            raise InputError(f"coefficient buffer for d={d}, n={n} must have shape "
                             f"({signature_dimension(d, n)},), got {data.shape}")
        self._offsets = [signature_dimension(d, k) for k in range(n + 1)]
        self.data = data

    @classmethod
    def zeros(cls, d: int, n: int) -> "TruncatedSignature":
        """The signature of a constant path: every stored coefficient 0."""
        return cls(d, n, np.zeros(signature_dimension(d, n)))

    def level(self, k: int) -> np.ndarray:
        """Writable view of the level-k coefficient block, length d**k."""
        k = check_number(k, "k", ge=1, le=self.n)
        return self.data[self._offsets[k - 1]:self._offsets[k]]

    def coefficient(self, word) -> float:
        """Coefficient of one word, given as a tuple of 0-based channel indices."""
        word = tuple(word)
        k = check_number(len(word), "word length", ge=1, le=self.n)
        idx = 0
        for letter in word:
            idx = idx * self.d + check_number(letter, "channel index", ge=0, lt=self.d)
        return float(self.data[self._offsets[k - 1] + idx])

    def copy(self) -> "TruncatedSignature":
        return TruncatedSignature(self.d, self.n, self.data.copy())

    def __repr__(self) -> str:
        return f"TruncatedSignature(d={self.d}, n={self.n}, {self.data.size} coefficients)"


def segment_signature(start, end, level: int) -> TruncatedSignature:
    """Signature of the straight segment from ``start`` to ``end``.

    Level k is the k-fold tensor power of the increment divided by k!.
    """
    start = np.atleast_1d(np.asarray(start, dtype=np.float64))
    end = np.atleast_1d(np.asarray(end, dtype=np.float64))
    if start.ndim != 1 or start.shape != end.shape:
        raise InputError(
            f"segment endpoints must be 1-D and of equal length, got {start.shape} and {end.shape}"
        )
    return path_signature(np.stack([start, end]), level)


def chen_concat(a: TruncatedSignature, b: TruncatedSignature) -> TruncatedSignature:
    """Signature of the concatenated path, by Chen's identity.

    c_k = a_k + b_k + sum_{m=1..k-1} a_m (x) b_{k-m}.  Requires matching
    dimension and truncation level.  Concatenating a zero-increment
    segment is the identity.  A coefficient that is -0.0 in both a_k and
    b_k, with a -0.0 product term, comes out +0.0 where np.multiply's
    products leave -0.0 (module docstring); the two compare equal.
    """
    if a.d != b.d or a.n != b.n:
        raise InputError(
            f"signatures must match in dimension and level: "
            f"(d={a.d}, n={a.n}) vs (d={b.d}, n={b.n})"
        )
    coeffs = _chen_product(a.data[:, None], b.data[:, None], a.d, a.n)
    return TruncatedSignature(a.d, a.n, coeffs[:, 0])


def path_signature(path, level: int) -> TruncatedSignature:
    """Signature of a piecewise-linear path through the given points.

    Folds one segment at a time into the accumulator, except that a top
    level folded one first letter at a time takes its first d segments
    in one contraction (see module docstring); the coefficients are
    bit for bit those of the per-segment fold.  A path with fewer than
    two points, or one whose segments all have zero increment, has the
    zero signature.

    Args:
        path: (L, d) array-like of points (a 1-D sequence is a path in R^1).
        level: truncation level, >= 1.

    Returns:
        TruncatedSignature with d = path dimension and n = level.
    """
    pts = as_path(path)
    level = check_number(level, "level", ge=1)
    coeffs = _horner_fold(np.diff(pts, axis=0)[:, :, None], level)
    return TruncatedSignature(pts.shape[1], level, coeffs.reshape(-1))


def path_signature_batch(paths, level: int) -> np.ndarray:
    """Signatures of a batch of equal-length paths.

    Same recurrence as ``path_signature``, vectorized over the batch axis.
    Intended for large batches of short, low-dimensional paths, where the
    per-call overhead of the scalar routine would dominate.

    Args:
        paths: (B, L, d) array of B paths.
        level: truncation level, >= 1.

    Returns:
        (B, m) array, row b holding the flat coefficient buffer of path b
        (same layout as ``TruncatedSignature.data``).
    """
    arr = check_array(paths, 3, "paths")
    level = check_number(level, "level", ge=1)
    increments = np.ascontiguousarray(np.diff(arr, axis=1).transpose(1, 2, 0))
    return np.ascontiguousarray(_horner_fold(increments, level).T)


def _horner_fold(increments: np.ndarray, level: int) -> np.ndarray:
    """Fold channel-first increments (M, d, B) into B signatures.

    Returns the (m, B) coefficient array, column b holding the flat
    buffer of path b.  No increments (M = 0) gives the zero signature.
    """
    _, d, B = increments.shape
    check_entries(B * signature_dimension(d, level),
                  f"{B} level-{level} signature(s) of {d}-dimensional paths")
    out = np.zeros((signature_dimension(d, level), B))
    levels = _level_blocks(out, d, level)
    # At B = 1, one pass per first letter once a letter's share of the top level
    # fills a scratch (module docstring); else one pass over all words.
    letters = d if B == 1 and d ** (level - 1) >= _BLOCK_ENTRIES else 1
    rows = d // letters
    # Scratch: q[j] holds a (rows * d**j, B) block, dscaled[i - 1] the increment / i.
    # A split pass keeps its top level's first K Horner partials in Q (module
    # docstring); q[-1] is Q[K - 1], scratch until segment K - 1 writes it.
    q = [np.empty((rows * d ** j, B)) for j in range(level - 1)]
    K = min(len(increments), d) if letters > 1 else 0
    if K:
        Q = np.empty((K, *q[-1].shape))
        q[-1] = Q[-1]
    dscaled = np.empty((level, d, B))
    scratch = np.empty(max(min(_BLOCK_ENTRIES, out.size), d * B))
    divisors = np.arange(1.0, level + 1)[:, None, None]
    for a in range(letters):
        # part[k - 1]: the rows of level k whose words start with a letter in `first`.
        part = [block.reshape(letters, -1, B)[a] for block in levels]
        first = slice(a * rows, (a + 1) * rows)
        # tops[k - 2]: row blocks of level k += q[k - 2] (x) dscaled[0], the last Horner step.
        tops = [_row_blocks(part[k - 1].reshape(-1, d, B), q[k - 2], scratch)
                for k in range(2, level + 1)]
        for t, delta in enumerate(increments):
            np.divide(delta, divisors, out=dscaled)
            for k in range(level, 1, -1):
                acc = dscaled[k - 1, first]
                for j in range(1, k - 1):
                    np.add(acc, part[j - 1], out=q[j - 1])
                    _outer(q[j - 1], dscaled[k - j - 1], q[j].reshape(-1, d, B))
                    acc = q[j]
                if k == level and t < K:
                    np.add(acc, part[k - 2], out=Q[t])
                    if t == K - 1:  # the top level's first K segments, in order from +0.0
                        np.einsum("tr,tc->rc", Q[:, :, 0], increments[:K, :, 0],
                                  out=part[k - 1].reshape(-1, d))
                    continue
                np.add(acc, part[k - 2], out=q[k - 2])
                _add_outer(tops[k - 2], dscaled[0])
            part[0] += dscaled[0, first]
    return out


def _chen_product(a: np.ndarray, b: np.ndarray, d: int, level: int) -> np.ndarray:
    """Chen's identity on (m, B) coefficient columns.

    Column b of the result is the signature of path b of ``a`` followed by
    path b of ``b``; ``chen_concat`` is the case B = 1.
    """
    out = a + b
    B = out.shape[1]
    blocks_a, blocks_b, blocks_out = (_level_blocks(x, d, level) for x in (a, b, out))
    scratch = np.empty(max(min(_BLOCK_ENTRIES, out.size), d ** (level - 1) * B))
    for k in range(2, level + 1):
        for m in range(1, k):
            dst = blocks_out[k - 1].reshape(d ** m, d ** (k - m), B)
            _add_outer(_row_blocks(dst, blocks_a[m - 1], scratch), blocks_b[k - m - 1])
    return out


def _row_blocks(dst: np.ndarray, left: np.ndarray, scratch: np.ndarray) -> list[tuple]:
    """Views that split dst (R, c, B) += left (R, B) (x) right (c, B) into row blocks.

    Each (left rows, dst rows, product) triple covers as many rows as fit
    in the flat ``scratch`` (at least c * B entries), and every product
    view shares that one scratch.
    """
    R, c, B = dst.shape
    rows = min(R, scratch.size // (c * B))
    return [(left[r0:r0 + rows], dst[r0:r0 + rows],
             scratch[:min(rows, R - r0) * c * B].reshape(-1, c, B))
            for r0 in range(0, R, rows)]


def _add_outer(blocks: list[tuple], right: np.ndarray) -> None:
    """dst += left (x) right over ``_row_blocks`` views, one block of rows at a time.

    Each block's product is formed in the scratch by ``_outer`` and then
    added into dst, so every entry gets the same multiply and add as
    ``dst += left[:, None] * right`` without an (R, c, B) temporary.
    """
    for left_rows, dst_rows, product in blocks:
        _outer(left_rows, right, product)
        dst_rows += product


def _outer(left: np.ndarray, right: np.ndarray, out: np.ndarray) -> None:
    """out[r, c, b] = left[r, b] * right[c, b], through einsum at B = 1 (module docstring)."""
    if out.shape[2] == 1:
        np.einsum("rb,cb->rcb", left, right, out=out)
    else:
        np.multiply(left[:, None], right, out=out)


def _level_blocks(coeffs: np.ndarray, d: int, level: int) -> list[np.ndarray]:
    """Views of the (d**k, B) level blocks of an (m, B) coefficient array."""
    return np.split(coeffs, np.cumsum([d ** k for k in range(1, level)]))


def signature_bruteforce(path, level: int, subdivisions: int = 10_000) -> TruncatedSignature:
    """Signature by direct Riemann summation on a refined grid.

    The path is linearly interpolated onto ``subdivisions`` equal steps of
    its parameter and each iterated integral is evaluated as a nested
    Riemann sum, weighting every step by the average of the running
    lower-level integral at the step's two endpoints:

        I_k(node j) = sum_{s < j} (I_{k-1}(node s) + I_{k-1}(node s+1)) / 2
                                  * dX(step s),

    with I_0 = 1 everywhere.  Second-order accurate in the step size;
    slow and simple on purpose, as an independent cross-check of the
    closed-form routines.
    """
    pts = as_path(path)
    level = check_number(level, "level", ge=1)
    subdivisions = check_number(subdivisions, "subdivisions", ge=1)
    L, d = pts.shape
    sig = TruncatedSignature.zeros(d, level)
    if L < 2:
        return sig
    t = np.linspace(0.0, L - 1.0, subdivisions + 1)
    base = np.arange(L, dtype=np.float64)
    refined = np.column_stack([np.interp(t, base, pts[:, i]) for i in range(d)])
    inc = np.diff(refined, axis=0)  # (m, d)
    m = inc.shape[0]
    # nodes[j] = value of the level-(k-1) integral at grid node j
    nodes = np.ones((m + 1, 1))
    for k in range(1, level + 1):
        mid = 0.5 * (nodes[:-1] + nodes[1:])
        contrib = (mid[:, :, None] * inc[:, None, :]).reshape(m, -1)
        running = np.cumsum(contrib, axis=0)
        sig.level(k)[:] = running[-1]
        nodes = np.vstack([np.zeros((1, running.shape[1])), running])
    return sig


def levy_area(sig: TruncatedSignature) -> float:
    """Antisymmetric part of level 2 for a planar path: S^(0,1) - S^(1,0).

    Twice the signed area enclosed between the path and the chord joining
    its endpoints.  Requires d == 2 and n >= 2.
    """
    check_number(sig.d, "d", ge=2, le=2)
    check_number(sig.n, "n", ge=2)
    l2 = sig.level(2)
    return float(l2[1] - l2[2])

