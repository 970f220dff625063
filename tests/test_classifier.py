"""Linear network, training loop, persistence, and two-stage routing."""

import hashlib
import math
import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from pathsig import (
    DatasetDescriptor,
    FeatureConfig,
    FeatureScaler,
    FormatError,
    InputError,
    LinearNetModel,
    SkeletonClip,
    StagePartition,
    TrainConfig,
    apply_scaler,
    extract_body_features,
    feature_layout,
    forward,
    gradient_check,
    init_model,
    load_model,
    lr_schedule,
    rank_actors,
    save_model,
    stage_partition,
    train,
    two_stage_route,
)
from pathsig import classifier, cli
from pathsig import io as pio
from pathsig.classifier import _CHUNK_ROWS, _chunk_plan, _kept_entries, _softmax_head


def blobs(rng, per_class=40, dim=10, gap=4.0):
    """Two linearly separable Gaussian clouds, unit-ish scale."""
    a = rng.standard_normal((per_class, dim)) + gap
    b = rng.standard_normal((per_class, dim)) - gap
    x = np.vstack([a, b]) / (gap + 3.0)
    y = np.array([0] * per_class + [1] * per_class)
    return x, y


def hand_model(drop_rate=0.5):
    return LinearNetModel(
        w1=np.array([[1.0, 2.0], [3.0, 4.0]]),
        b1=np.array([0.5, -0.5]),
        w2=np.eye(2),
        b2=np.zeros(2),
        config=TrainConfig(drop_rate=drop_rate),
    )


# ------------------------------------------------------------------- forward


def test_forward_uniform_on_zero_weights():
    model = LinearNetModel(np.zeros((4, 3)), np.zeros(3), np.zeros((3, 5)),
                           np.zeros(5), TrainConfig())
    probs = forward(model, np.array([1.0, -2.0, 3.0, 0.5]))
    assert np.allclose(probs, 0.2, atol=1e-15)


def test_forward_probability_simplex():
    rng = np.random.default_rng(0)
    model = init_model(6, 4, TrainConfig(seed=5), hidden_dim=8)
    probs = forward(model, rng.standard_normal((25, 6)))
    assert probs.shape == (25, 4)
    assert np.all(probs >= 0)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_forward_hand_evaluated_case():
    # h = 0.5*W1^T x + b1 = [-0.5, -1.5]; softmax gap of 1
    probs = forward(hand_model(), np.array([1.0, -1.0]))
    e = math.exp(-1.0)
    assert probs == pytest.approx([1.0 / (1.0 + e), e / (1.0 + e)], abs=1e-15)


def test_forward_collapsed_affine():
    # identity hidden activation: the whole net is one affine map
    rng = np.random.default_rng(1)
    model = init_model(7, 3, TrainConfig(drop_rate=0.95, seed=2), hidden_dim=16)
    x = rng.standard_normal((10, 7))
    a = 0.05 * model.w1 @ model.w2
    c = model.b1 @ model.w2 + model.b2
    logits = x @ a + c
    expect = np.exp(logits - logits.max(axis=1, keepdims=True))
    expect /= expect.sum(axis=1, keepdims=True)
    assert np.allclose(forward(model, x), expect, atol=1e-12)


def explicit_forward(model, x):
    """softmax((x @ ((1-p) W1) + b1) @ W2 + b2), scaling W1, widened to float64,
    before the product."""
    h = x @ ((1.0 - model.config.drop_rate) * model.w1.astype(np.float64)) + model.b1
    logits = h @ model.w2 + model.b2
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def test_forward_matches_scaled_w1_product():
    rng = np.random.default_rng(3)
    model = init_model(300, 5, TrainConfig(drop_rate=0.95, seed=4), hidden_dim=32)
    model.b1[:] = rng.standard_normal(32)
    model.b2[:] = rng.standard_normal(5)
    for x in (rng.standard_normal(300), rng.standard_normal((40, 300))):
        probs = forward(model, x)
        expect = explicit_forward(model, x)
        assert probs.shape == expect.shape
        assert np.allclose(probs, expect, rtol=0.0, atol=1e-12)
        assert np.array_equal(probs.argmax(axis=-1), expect.argmax(axis=-1))


def test_forward_single_row_does_not_copy_w1():
    rng = np.random.default_rng(5)
    D, H = 200_000, 64
    model = LinearNetModel(rng.standard_normal((D, H)), np.zeros(H),
                           rng.standard_normal((H, 3)), np.zeros(3), TrainConfig())
    x = rng.standard_normal(D)
    tracemalloc.start()
    try:
        forward(model, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < model.w1.nbytes / 4


def test_forward_validates():
    model = hand_model()
    with pytest.raises(InputError):
        forward(model, np.zeros(3))


def forward_digest() -> str:
    """Check that each of 17 rows gets the same probabilities alone and in
    batches of 1, 7, 8, 9 and 17 rows; return the sha256 of the batch's."""
    D = _CHUNK_ROWS + 300  # chunks of _CHUNK_ROWS, 256 and a ragged 44 rows
    rng = np.random.default_rng(31)
    model = init_model(D, 5, TrainConfig(seed=8), hidden_dim=8)
    model.b1[:] = rng.standard_normal(8)
    model.b2[:] = rng.standard_normal(5)
    x = rng.standard_normal((17, D))
    alone = [forward(model, row).tobytes() for row in x]
    for n in (1, 7, 8, 9, 17):
        probs = forward(model, x[:n])
        assert [p.tobytes() for p in probs] == alone[:n], n
    return hashlib.sha256(probs.tobytes()).hexdigest()


def test_a_rows_probabilities_do_not_depend_on_its_batch():
    forward_digest()


def test_forward_bits_do_not_depend_on_the_blas_thread_count():
    paths = [os.path.dirname(os.path.dirname(classifier.__file__)), os.path.dirname(__file__)]
    digests = set()
    for threads in ("1", "2", "4"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [*paths, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-c", "from test_classifier import forward_digest as f; print(f())"],
            capture_output=True, text=True, env=env, timeout=300)
        assert result.returncode == 0, result.stderr
        digests.add(result.stdout)
    assert len(digests) == 1


def test_train_drops_the_map_forward_built(tmp_path):
    rng = np.random.default_rng(32)
    x, y = rng.standard_normal((20, 300)), rng.integers(0, 3, size=20)
    model = init_model(300, 3, TrainConfig(max_epochs=2, seed=9), hidden_dim=8)
    before = forward(model, x)
    train(model, x, y)
    after = forward(model, x)
    save_model(model, tmp_path / "m.model")
    assert not np.array_equal(after, before)
    assert np.array_equal(after, forward(load_model(tmp_path / "m.model"), x))


def test_weights_are_read_only_while_a_map_exists():
    model = init_model(30, 3, TrainConfig(seed=10), hidden_dim=4)
    model.b1[0] = 0.5  # no map yet
    forward(model, np.ones(30))
    for name in ("w1", "b1", "w2", "b2"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(model, name)[0] += 1.0
    assert model.b1[0] == 0.5


def test_a_replaced_weight_array_rebuilds_the_map():
    rng = np.random.default_rng(34)
    model = init_model(30, 3, TrainConfig(seed=11), hidden_dim=4)
    x = rng.standard_normal((5, 30))
    before = forward(model, x)
    model.w2 = rng.standard_normal((4, 3))
    after = forward(model, x)
    fresh = LinearNetModel(model.w1.copy(), model.b1.copy(), model.w2.copy(), model.b2.copy(),
                           model.config)
    assert not np.allclose(after, before)
    assert np.array_equal(after, forward(fresh, x))


# ------------------------------------------------------------------ schedule


def test_lr_schedule_values():
    cfg = TrainConfig()
    assert lr_schedule(0, cfg) == 0.01
    assert lr_schedule(200, cfg) == pytest.approx(0.01 * math.exp(-1.0), abs=1e-18)
    flat = TrainConfig(decay=0.0)
    assert lr_schedule(123, flat) == 0.01
    with pytest.raises(InputError):
        lr_schedule(-1, cfg)


# ----------------------------------------------------------------- gradients


def test_gradient_check_20_random_models():
    rng = np.random.default_rng(3)
    worst = 0.0
    for i in range(20):
        dim = int(rng.integers(3, 9))
        classes = int(rng.integers(2, 5))
        drop = float(rng.choice([0.0, 0.5, 0.95]))
        model = init_model(dim, classes, TrainConfig(drop_rate=drop, seed=i),
                           hidden_dim=int(rng.integers(2, 7)))
        x = rng.standard_normal(dim)
        label = int(rng.integers(classes))
        worst = max(worst, gradient_check(model, x, label))
    assert worst < 1e-4


def test_zero_input_leaves_w1_unchanged():
    # dL/dW1 = x (outer) delta, so x = 0 freezes the first layer
    model = init_model(5, 2, TrainConfig(drop_rate=0.0, max_epochs=3, seed=0),
                       hidden_dim=4)
    w1_before = model.w1.copy()
    b2_before = model.b2.copy()
    # unbalanced labels so the bias gradient does not cancel
    train(model, np.zeros((6, 5)), np.array([0, 0, 0, 0, 1, 1]))
    assert np.array_equal(model.w1, w1_before)
    assert not np.array_equal(model.b2, b2_before)


def test_gradient_check_validates():
    model = hand_model()
    with pytest.raises(InputError):
        gradient_check(model, np.zeros(3), 0)
    with pytest.raises(InputError):
        gradient_check(model, np.zeros(2), 5)


# ------------------------------------------------------------------ training


def test_separable_blobs_reach_full_accuracy():
    rng = np.random.default_rng(4)
    x, y = blobs(rng)
    cfg = TrainConfig(drop_rate=0.0, max_epochs=50, seed=1)
    model = init_model(10, 2, cfg)
    history = train(model, x, y)
    assert len(history) == 50
    assert history[-1].accuracy == 1.0
    assert any(s.accuracy == 1.0 for s in history[:50])


def test_full_batch_no_momentum_equals_plain_gd():
    rng = np.random.default_rng(5)
    x, y = blobs(rng, per_class=12, dim=4)
    n = x.shape[0]
    cfg = TrainConfig(batch_size=n, momentum=0.0, drop_rate=0.0,
                      max_epochs=3, seed=9)
    model = init_model(4, 2, cfg, hidden_dim=3)
    manual = {"w1": model.w1.copy(), "b1": model.b1.copy(),
              "w2": model.w2.copy(), "b2": model.b2.copy()}
    train(model, x, y)

    # replay: plain descent on the summed-CE gradient, same shuffles; w1 and
    # its products in float32
    replay_rng = np.random.default_rng([cfg.seed, 1])
    for epoch in range(3):
        lr = 0.01 * math.exp(-0.005 * epoch)
        order = replay_rng.permutation(n)
        xb, yb = x[order].astype(np.float32), y[order]
        h = xb @ manual["w1"] + manual["b1"]
        logits = h @ manual["w2"] + manual["b2"]
        shifted = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        g = probs.copy()
        g[np.arange(n), yb] -= 1.0
        g_h = g @ manual["w2"].T
        manual["w2"] = manual["w2"] - lr * (h.T @ g)
        manual["b2"] = manual["b2"] - lr * g.sum(axis=0)
        manual["w1"] = manual["w1"] - lr * (xb.T @ g_h.astype(np.float32))
        manual["b1"] = manual["b1"] - lr * g_h.sum(axis=0)

    assert np.allclose(model.w1, manual["w1"], rtol=1e-10, atol=1e-12)
    assert np.allclose(model.b1, manual["b1"], rtol=1e-10, atol=1e-12)
    assert np.allclose(model.w2, manual["w2"], rtol=1e-10, atol=1e-12)
    assert np.allclose(model.b2, manual["b2"], rtol=1e-10, atol=1e-12)


def test_full_batch_loss_non_increasing():
    rng = np.random.default_rng(6)
    x, y = blobs(rng, per_class=25, dim=6)
    cfg = TrainConfig(batch_size=50, momentum=0.0, drop_rate=0.0,
                      max_epochs=40, seed=2)
    model = init_model(6, 2, cfg)
    history = train(model, x, y)
    losses = [s.loss for s in history]
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_training_is_bit_deterministic():
    rng = np.random.default_rng(7)
    x, y = blobs(rng, per_class=15, dim=5)
    cfg = TrainConfig(max_epochs=5, seed=3)
    runs = []
    for _ in range(2):
        model = init_model(5, 2, cfg)
        history = train(model, x, y)
        runs.append((model, history))
    a, b = runs
    assert np.array_equal(a[0].w1, b[0].w1)
    assert np.array_equal(a[0].w2, b[0].w2)
    assert [(s.loss, s.accuracy) for s in a[1]] == [(s.loss, s.accuracy) for s in b[1]]


def test_history_fields():
    rng = np.random.default_rng(8)
    x, y = blobs(rng, per_class=10, dim=4)
    cfg = TrainConfig(max_epochs=4, seed=0)
    model = init_model(4, 2, cfg)
    history = train(model, x, y)
    assert [s.epoch for s in history] == [0, 1, 2, 3]
    assert history[0].lr == 0.01
    assert history[2].lr == pytest.approx(0.01 * math.exp(-0.01), rel=1e-12)
    assert all(0.0 <= s.accuracy <= 1.0 for s in history)


def test_train_takes_its_settings_from_the_model_only():
    # one source of truth: the config forward and save_model use is the one trained by
    rng = np.random.default_rng(8)
    x, y = blobs(rng, per_class=10, dim=4)
    model = init_model(4, 2, TrainConfig(max_epochs=3, drop_rate=0.5))
    with pytest.raises(TypeError):
        train(model, x, y, TrainConfig(max_epochs=1, drop_rate=0.0))
    assert len(train(model, x, y)) == 3


def dense_reference_train(model, x, y, config):
    """The dense masked training loop that the chunked one replaced.

    It builds a W1-shaped 0/1 mask per batch from the same ``_kept_entries``
    draws, in the same rng order, and updates every entry of w1 densely.
    Like ``train``, it holds w1 and its momentum in float32, takes the
    float32 products of the batch rows with w1 chunk by chunk and sums them
    in float64.
    """
    n = x.shape[0]
    rng = np.random.default_rng([config.seed, 1])
    v = {k: np.zeros_like(getattr(model, k)) for k in ("w1", "b1", "w2", "b2")}
    history = []
    for epoch in range(config.max_epochs):
        lr = lr_schedule(epoch, config)
        order = rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            xb, yb = x[batch].astype(np.float32), y[batch]
            mask = np.ones(model.w1.size, dtype=np.float32)
            if config.drop_rate > 0.0:
                mask[:] = 0.0
                mask[_kept_entries(rng, model.w1.size, 1.0 - config.drop_rate)] = 1.0
            mask = mask.reshape(model.w1.shape)
            B = xb.shape[0]
            masked_w1 = model.w1 * mask
            h = np.zeros((B, model.hidden_dim))
            for r0, r1 in _chunk_plan(model.input_dim):
                h += xb[:, r0:r1] @ masked_w1[r0:r1]
            h += model.b1
            logits = h @ model.w2 + model.b2
            shifted = logits - logits.max(axis=1, keepdims=True)
            log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            loss_sum += -log_probs[np.arange(B), yb].sum()
            probs = np.exp(log_probs)
            correct += int((probs.argmax(axis=1) == yb).sum())
            g_logits = probs.copy()
            g_logits[np.arange(B), yb] -= 1.0
            g_h = g_logits @ model.w2.T
            grads = {"w1": (xb.T @ g_h.astype(np.float32)) * mask, "b1": g_h.sum(axis=0),
                     "w2": h.T @ g_logits, "b2": g_logits.sum(axis=0)}
            for k, g in grads.items():
                v[k] *= config.momentum
                v[k] -= lr * g
                getattr(model, k)[...] += v[k]
        history.append((epoch, lr, loss_sum / n, correct / n))
    return history


@pytest.mark.parametrize("rows", [40, 1])
@pytest.mark.parametrize("drop_rate", [0.0, 0.5, 0.95])
def test_chunked_training_matches_dense_masked_loop(drop_rate, rows):
    # several chunks plus a ragged last one; the last batch is short too,
    # and a one-row matrix is one short batch
    D = 3 * _CHUNK_ROWS + 5
    rng = np.random.default_rng(11)
    x = rng.standard_normal((rows, D))
    y = rng.integers(0, 3, size=rows)
    cfg = TrainConfig(batch_size=16, max_epochs=3, drop_rate=drop_rate, seed=4)
    model = init_model(D, 3, cfg, hidden_dim=4)
    reference = init_model(D, 3, cfg, hidden_dim=4)
    history = train(model, x, y)
    expect = dense_reference_train(reference, x, y, cfg)
    # chunked products sum in another order: entries that cancel to near
    # zero keep a rounding error relative to the array's scale, not their own
    for k in ("w1", "b1", "w2", "b2"):
        ref = getattr(reference, k)
        np.testing.assert_allclose(getattr(model, k), ref, rtol=1e-10,
                                   atol=1e-12 * np.abs(ref).max())
    assert [(s.epoch, s.lr, s.accuracy) for s in history] == [(e[0], e[1], e[3]) for e in expect]
    np.testing.assert_allclose([s.loss for s in history], [e[2] for e in expect], rtol=1e-10)


@pytest.mark.parametrize("keep", [0.05, 0.5, 0.97])
def test_kept_entries_are_bernoulli(keep):
    size = 200_003
    kept = _kept_entries(np.random.default_rng(12), size, keep)
    assert kept.dtype.kind == "i"
    assert np.all(np.diff(kept) > 0)
    assert kept[0] >= 0 and kept[-1] < size
    sigma = math.sqrt(size * keep * (1.0 - keep))
    assert abs(kept.size - size * keep) < 5 * sigma
    edges = np.linspace(0, size, 11).astype(np.int64)
    counts = np.diff(np.searchsorted(kept, edges))
    widths = np.diff(edges)
    assert np.all(np.abs(counts - widths * keep) < 5 * np.sqrt(widths * keep * (1.0 - keep)))


def test_kept_entries_keep_all():
    for size in (1, 17, 40_000):
        assert np.array_equal(_kept_entries(np.random.default_rng(0), size, 1.0), np.arange(size))


def test_kept_entries_stream_is_pinned():
    """Two consecutive draws from one seeded generator, the first keeping the
    last index: the block size and the stopping rule fix where every later
    draw starts, and so the bits of every model trained with dropconnect."""
    rng = np.random.default_rng(0)
    first, second = _kept_entries(rng, 1000, 0.05), _kept_entries(rng, 1000, 0.05)
    assert first[-1] == 999 and (first.size, second.size) == (44, 47)
    digest = hashlib.sha256(first.astype("<i8").tobytes() + second.astype("<i8").tobytes())
    assert digest.hexdigest() == \
        "5489d90cb7c5f404fb4ba92693fbba5781170fd5319f809734215c55285e34ad", \
        f"numpy {np.__version__} draws another stream: {digest.hexdigest()}"


def test_kept_entries_hold_one_index_array():
    tracemalloc.start()
    try:
        kept = _kept_entries(np.random.default_rng(16), 2_000_000, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * kept.nbytes


def test_train_holds_one_w1_sized_array():
    rng = np.random.default_rng(13)
    D, H = 200_000, 64
    model = LinearNetModel(rng.standard_normal((D, H)) / math.sqrt(D), np.zeros(H),
                           rng.standard_normal((H, 3)), np.zeros(3), TrainConfig(max_epochs=1))
    x = rng.standard_normal((8, D))
    y = np.array([0, 1, 2, 0, 1, 2, 0, 1])
    tracemalloc.start()
    try:
        train(model, x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * model.w1.nbytes


def test_train_takes_batch_rows_one_chunk_at_a_time():
    # a 30-row batch copy (48 MB) is 3.75x w1 here: taking the rows per
    # chunk keeps the peak at the momentum, the two chunk buffers, the kept
    # indices and one chunk of batch rows, which grows only by that chunk
    D, H = 200_000, 8
    peaks = {}
    for rows in (30, 60):
        rng = np.random.default_rng(14)
        cfg = TrainConfig(batch_size=rows, max_epochs=1, drop_rate=0.5)
        model = LinearNetModel(rng.standard_normal((D, H)) / math.sqrt(D), np.zeros(H),
                               rng.standard_normal((H, 3)), np.zeros(3), cfg)
        x = rng.standard_normal((rows, D))
        tracemalloc.start()
        try:
            train(model, x, np.arange(rows) % 3)
            _, peaks[rows] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept_bytes = (1.0 - cfg.drop_rate) * model.w1.size * 8
        buffers = 2 * _CHUNK_ROWS * H * 8
        row_chunk = rows * _CHUNK_ROWS * 8
        assert peaks[rows] < model.w1.nbytes + kept_bytes + buffers + 2 * row_chunk
    assert peaks[60] - peaks[30] < 30 * _CHUNK_ROWS * 8 + model.w1.nbytes / 8


def batch_copy_reference_train(model, x, y, config):
    """The chunked training loop as it was before rows were taken per chunk.

    It copies each mini-batch whole (``xb = x[batch]``, in float32) and
    slices the copy's columns in both chunk loops.
    """
    n = x.shape[0]
    D, H = model.w1.shape
    masked = config.drop_rate > 0.0
    rng = np.random.default_rng([config.seed, 1])
    v_w1 = np.zeros_like(model.w1)
    v_b1 = np.zeros_like(model.b1)
    v_w2 = np.zeros_like(model.w2)
    v_b2 = np.zeros_like(model.b2)
    chunk_rows = min(classifier._CHUNK_ROWS, D)
    chunks = [(r0, min(r0 + chunk_rows, D)) for r0 in range(0, D, chunk_rows)]
    chunk_edges = np.array([r0 for r0, _ in chunks] + [D]) * H
    w_buf = np.zeros((chunk_rows, H), np.float32)
    g_buf = np.empty((chunk_rows, H), np.float32)
    w_buf_flat, g_buf_flat = w_buf.reshape(-1), g_buf.reshape(-1)
    w1_flat, v_flat = model.w1.reshape(-1), v_w1.reshape(-1)
    history = []
    for epoch in range(config.max_epochs):
        lr = lr_schedule(epoch, config)
        order = rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            xb, yb = x[batch].astype(np.float32), y[batch]
            if masked:
                kept = _kept_entries(rng, model.w1.size, 1.0 - config.drop_rate)
                bounds = np.searchsorted(kept, chunk_edges)
            h = np.zeros((xb.shape[0], H))
            for c, (r0, r1) in enumerate(chunks):
                if masked:
                    idx = kept[bounds[c]:bounds[c + 1]]
                    local = idx - r0 * H
                    w_buf_flat[local] = w1_flat[idx]
                    h += xb[:, r0:r1] @ w_buf[:r1 - r0]
                    w_buf_flat[local] = 0.0
                else:
                    h += xb[:, r0:r1] @ model.w1[r0:r1]
            h += model.b1
            loss, probs, g_h, g_b1, g_w2, g_b2 = _softmax_head(h, yb, model.w2, model.b2)
            loss_sum += loss
            correct += int((probs.argmax(axis=1) == yb).sum())
            g_h = g_h.astype(np.float32)
            for c, (r0, r1) in enumerate(chunks):
                g = np.matmul(xb[:, r0:r1].T, g_h, out=g_buf[:r1 - r0])
                v = v_w1[r0:r1]
                v *= config.momentum
                if masked:
                    idx = kept[bounds[c]:bounds[c + 1]]
                    v_flat[idx] -= lr * g_buf_flat[idx - r0 * H]
                else:
                    g *= lr
                    v -= g
                model.w1[r0:r1] += v
            for param, vel, grad in ((model.b1, v_b1, g_b1), (model.w2, v_w2, g_w2),
                                     (model.b2, v_b2, g_b2)):
                vel *= config.momentum
                vel -= lr * grad
                param += vel
        history.append((epoch, lr, loss_sum / n, correct / n))
    return history


@pytest.mark.parametrize("drop_rate", [0.0, 0.5, 0.95])
def test_chunk_rows_training_matches_batch_copy_loop(monkeypatch, drop_rate):
    # five chunks of 50 w1 rows plus a ragged one of 7; batches of 16, 16, 8
    monkeypatch.setattr(classifier, "_CHUNK_ROWS", 50)
    D = 5 * 50 + 7
    rng = np.random.default_rng(15)
    x = rng.standard_normal((40, D))
    y = rng.integers(0, 3, size=40)
    cfg = TrainConfig(batch_size=16, max_epochs=3, drop_rate=drop_rate, seed=6)
    model = init_model(D, 3, cfg, hidden_dim=5)
    reference = init_model(D, 3, cfg, hidden_dim=5)
    history = train(model, x, y)
    expect = batch_copy_reference_train(reference, x, y, cfg)
    for k in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(model, k), getattr(reference, k))
    assert [(s.epoch, s.lr, s.loss, s.accuracy) for s in history] == expect


_SEEDED_TRAIN = """
import sys
import numpy as np
from pathsig.classifier import TrainConfig, init_model, save_model, train
D = int(sys.argv[1])
rng = np.random.default_rng(3)
x, y = rng.standard_normal((64, D)), rng.integers(0, 4, size=64)
config = TrainConfig(max_epochs=2, drop_rate=0.95, seed=3)
model = init_model(D, 4, config, hidden_dim=64)
train(model, x, y)
save_model(model, sys.argv[2])
"""


@pytest.mark.parametrize("D", [8_609, 24_993])
def test_training_bits_do_not_depend_on_the_blas_thread_count(D, tmp_path):
    # each width's last W1 chunk (8,609 rows) is long and not a multiple of 256
    assert _chunk_plan(D)[-2:] == [(D - 8_609, D - 161), (D - 161, D)]
    src = os.path.dirname(os.path.dirname(classifier.__file__))
    models = []
    for threads in ("1", "2", "4"):
        models.append(tmp_path / f"{threads}.model")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-c", _SEEDED_TRAIN, str(D), str(models[-1])],
                                capture_output=True, text=True, env=env, timeout=300)
        assert result.returncode == 0, result.stderr
    assert models[0].read_bytes() == models[1].read_bytes() == models[2].read_bytes()


def test_chunk_plan_splits_a_ragged_last_chunk_at_a_multiple_of_256_rows():
    C = _CHUNK_ROWS
    assert _chunk_plan(319_905)[-3:] == [(294_912, 311_296), (311_296, 319_744), (319_744, 319_905)]
    assert _chunk_plan(C + 300) == [(0, C), (C, C + 256), (C + 256, C + 300)]
    assert _chunk_plan(C + 512) == [(0, C), (C, C + 512)]
    assert _chunk_plan(2 * C) == [(0, C), (C, 2 * C)]
    assert _chunk_plan(255) == [(0, 255)]


def _history(history):
    return [(s.epoch, s.lr, s.loss, s.accuracy) for s in history]


@pytest.mark.parametrize("drop_rate", [0.0, 0.5, 0.95])
def test_streamed_training_matches_in_memory(tmp_path, monkeypatch, drop_rate):
    # five chunks of 50 w1 rows plus a ragged one of 7; batches of 16, 16, 8
    monkeypatch.setattr(classifier, "_CHUNK_ROWS", 50)
    D = 5 * 50 + 7
    rng = np.random.default_rng(16)
    x = rng.standard_normal((40, D))
    y = rng.integers(0, 3, size=40)
    pio.write_feature_matrix(tmp_path / "x.feat", x)
    cfg = TrainConfig(batch_size=16, max_epochs=3, drop_rate=drop_rate, seed=7)
    streamed, in_memory = (init_model(D, 3, cfg, hidden_dim=5) for _ in range(2))
    with pio.FeatureRows(tmp_path / "x.feat") as rows:
        history = train(streamed, rows, y)
    expect = train(in_memory, x, y)
    for k in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(streamed, k), getattr(in_memory, k))
    assert _history(history) == _history(expect)


def test_streamed_training_of_selected_rows_matches_row_copy(tmp_path, monkeypatch):
    # a two-stage model trains on the rows of its classes: a view of the file
    # stands in for the copy x[keep]
    monkeypatch.setattr(classifier, "_CHUNK_ROWS", 40)
    D = 3 * 40 + 11
    rng = np.random.default_rng(17)
    x = rng.standard_normal((50, D))
    y = rng.integers(0, 4, size=50)
    keep = np.flatnonzero(np.isin(y, [1, 3]))
    pio.write_feature_matrix(tmp_path / "x.feat", x)
    cfg = TrainConfig(batch_size=7, max_epochs=2, drop_rate=0.5, seed=8)
    streamed, copied = (init_model(D, 2, cfg, hidden_dim=4) for _ in range(2))
    y_local = np.searchsorted([1, 3], y[keep])
    with pio.FeatureRows(tmp_path / "x.feat") as rows:
        history = train(streamed, rows.select(keep), y_local)
    expect = train(copied, x[keep], y_local)
    for k in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(streamed, k), getattr(copied, k))
    assert _history(history) == _history(expect)


def test_streamed_training_memory_does_not_grow_with_rows(tmp_path):
    # the matrices (48 and 96 MB) stay on disk: the peak is the momentum, one
    # batch's kept indices (the last batch's are dropped before the next are
    # drawn), the two chunk buffers and one chunk of batch rows, for 30 rows
    # and for 60
    D, H = 200_000, 8
    cfg = TrainConfig(batch_size=15, max_epochs=1, drop_rate=0.5)
    peaks = {}
    for rows in (30, 60):
        rng = np.random.default_rng(18)
        model = LinearNetModel(rng.standard_normal((D, H)) / math.sqrt(D), np.zeros(H),
                               rng.standard_normal((H, 3)), np.zeros(3), cfg)
        path = tmp_path / f"x{rows}.feat"
        with pio.FeatureMatrixWriter(path, D) as writer:
            for _ in range(rows):
                writer.write(rng.standard_normal(D))
        with pio.FeatureRows(path) as x:
            tracemalloc.start()
            try:
                train(model, x, np.arange(rows) % 3)
                _, peaks[rows] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        kept_bytes = (1.0 - cfg.drop_rate) * model.w1.size * 8
        buffers = 2 * _CHUNK_ROWS * H * 8
        row_chunk = cfg.batch_size * _CHUNK_ROWS * 8
        assert peaks[rows] < model.w1.nbytes + kept_bytes + buffers + 2 * row_chunk
    assert peaks[60] - peaks[30] < row_chunk


def test_train_stops_on_non_finite_loss():
    cfg = TrainConfig(batch_size=2, max_epochs=3, seed=0)
    model = init_model(5, 2, cfg, hidden_dim=3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InputError, match=r"diverged.*epoch \d+, batch \d+"):
            train(model, np.full((6, 5), 1e300), np.array([0, 1] * 3))


def test_train_stops_on_non_finite_final_weights():
    # balanced logits keep the loss finite while the summed gradient overflows
    cfg = TrainConfig(batch_size=100, max_epochs=1, drop_rate=0.0)
    model = LinearNetModel(1e-3 * np.eye(2), np.zeros(2), np.eye(2), np.zeros(2), cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InputError, match="not finite"):
            train(model, np.full((100, 2), 1e38), np.zeros(100, dtype=int))


def test_train_validates():
    cfg = TrainConfig()
    model = init_model(3, 2, cfg)
    with pytest.raises(InputError):
        train(model, np.zeros((0, 3)), np.zeros(0, dtype=int))
    with pytest.raises(InputError):
        train(model, np.zeros((4, 3)), np.array([0, 1, 2, 0]))
    with pytest.raises(InputError):
        train(model, np.zeros((4, 2)), np.array([0, 1, 0, 1]))
    with pytest.raises(InputError):
        TrainConfig(drop_rate=1.0)
    with pytest.raises(InputError):
        TrainConfig(batch_size=0)
    with pytest.raises(MemoryError, match="the model's weights"):
        init_model(3, 2, cfg, hidden_dim=2**62)


def test_train_rejects_labels_that_do_not_match_the_rows():
    model = init_model(3, 2, TrainConfig())
    for labels, shape in (([0, 1, 0], r"\(3,\)"), ([[0], [1], [0], [1]], r"\(4, 1\)")):
        with pytest.raises(InputError, match=rf"^labels shape {shape} does not match 4 rows$"):
            train(model, np.zeros((4, 3)), labels)


# --------------------------------------------------------------- persistence


def test_save_load_roundtrip_bit_exact(tmp_path):
    cfg = TrainConfig(drop_rate=0.8, seed=17, max_epochs=12)
    model = init_model(9, 3, cfg, hidden_dim=6)
    path = tmp_path / "m.model"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.w1, model.w1)
    assert np.array_equal(loaded.b1, model.b1)
    assert np.array_equal(loaded.w2, model.w2)
    assert np.array_equal(loaded.b2, model.b2)
    assert loaded.config == cfg
    x = np.random.default_rng(0).standard_normal(9)
    assert np.array_equal(forward(loaded, x), forward(model, x))


def test_save_model_writes_the_arrays_without_copying(tmp_path):
    rng = np.random.default_rng(22)
    D, H = 200_000, 64
    model = LinearNetModel(rng.standard_normal((D, H)), rng.standard_normal(H),
                           rng.standard_normal((H, 3)), np.zeros(3), TrainConfig())
    path = tmp_path / "wide.model"
    tracemalloc.start()
    try:
        save_model(model, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < model.w1.nbytes / 4
    with open(path, "rb") as f:
        f.seek(32)  # magic, version byte, three u64 sizes
        assert f.read(model.w1.nbytes) == model.w1.astype("<f4").tobytes()
        assert f.read(model.b1.nbytes) == model.b1.astype("<f8").tobytes()


def test_float32_w1_survives_init_train_and_a_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(23)
    x, y = rng.standard_normal((20, 300)), rng.integers(0, 3, size=20)
    model = init_model(300, 3, TrainConfig(max_epochs=2, seed=5), hidden_dim=8)
    assert model.w1.dtype == np.float32
    w1 = model.w1
    train(model, x, y)
    assert model.w1 is w1 and w1.dtype == np.float32
    save_model(model, tmp_path / "m.model")
    loaded = load_model(tmp_path / "m.model")
    assert loaded.w1.dtype == np.float32
    assert loaded.w1.tobytes() == model.w1.tobytes()
    assert LinearNetModel(w1, model.b1, model.w2, model.b2).w1 is w1  # kept, not copied


def test_init_w1_is_the_one_shot_float64_draw_rounded_to_float32():
    D, H, C = 2 * _CHUNK_ROWS + 300, 3, 4  # two chunks and a ragged last one, split
    model = init_model(D, C, TrainConfig(seed=6), hidden_dim=H)
    rng = np.random.default_rng([6, 0])
    w1 = rng.standard_normal((D, H)) / np.sqrt(D)
    w2 = rng.standard_normal((H, C)) / np.sqrt(H)
    assert np.array_equal(model.w1, w1.astype(np.float32))
    assert np.array_equal(model.w2, w2)


def test_no_w1_sized_float64_array_in_init_train_or_forward():
    # a float64 W1 would take w1_f64 bytes on its own
    rng = np.random.default_rng(24)
    D, H = 200_000, 64
    w1_f64 = 8 * D * H
    x = rng.standard_normal((64, D))
    y = rng.integers(0, 3, size=64)
    for step in ("init", "train", "forward"):
        tracemalloc.start()
        try:
            if step == "init":
                model = init_model(D, 3, TrainConfig(max_epochs=1, batch_size=32), hidden_dim=H)
            elif step == "train":
                train(model, x, y)
            else:
                forward(model, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # init: w1 (half of w1_f64) and a chunk; train: the momentum (half) and
        # chunk buffers; forward: one chunk of w1 widened
        assert peak < (0.75 if step != "forward" else 0.125) * w1_f64, step


def test_load_rejects_a_version_1_file(tmp_path):
    path = tmp_path / "m.model"
    save_model(init_model(4, 2, TrainConfig(), hidden_dim=3), path)
    data = bytearray(path.read_bytes())
    assert data[7] == 2
    data[7] = 1
    path.write_bytes(data)
    with pytest.raises(FormatError, match="unsupported model version 1, expected 2: retrain"):
        load_model(path)


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.model"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(FormatError):
        load_model(path)


def test_load_truncated_reports_position(tmp_path):
    cfg = TrainConfig()
    model = init_model(4, 2, cfg, hidden_dim=3)
    path = tmp_path / "m.model"
    save_model(model, path)
    data = path.read_bytes()
    cut = tmp_path / "cut.model"
    cut.write_bytes(data[: len(data) // 2])
    with pytest.raises(FormatError) as err:
        load_model(cut)
    assert "byte" in str(err.value) or "offset" in str(err.value)


def test_load_rejects_trailing_bytes(tmp_path):
    cfg = TrainConfig()
    model = init_model(4, 2, cfg, hidden_dim=3)
    path = tmp_path / "m.model"
    save_model(model, path)
    path.write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(FormatError):
        load_model(path)


def test_load_rejects_oversized_header_before_allocating(tmp_path):
    path = tmp_path / "huge.model"
    path.write_bytes(b"SIGNET1" + struct.pack("<B", 2)
                     + struct.pack("<QQQ", 10**12, 64, 3) + b"\x00" * 64)
    with pytest.raises(FormatError) as err:
        load_model(path)
    message = str(err.value)
    assert str(path) in message
    assert str(4 * 64 * 10**12) in message and str(path.stat().st_size) in message


def test_load_rejects_zero_hidden_hostile_width(tmp_path):
    path = tmp_path / "hostile.model"
    path.write_bytes(b"SIGNET1" + struct.pack("<B", 2)
                     + struct.pack("<QQQ", 2**62, 0, 3) + b"\x00" * 64)  # w1 holds 0 bytes
    with pytest.raises(FormatError, match=rf"w1 shape \({2**62}, 0\) is too large"):
        load_model(path)


def test_load_rejects_oversized_config_length(tmp_path):
    model = init_model(4, 2, TrainConfig(), hidden_dim=3)
    path = tmp_path / "m.model"
    save_model(model, path)
    data = path.read_bytes()
    at = 32 + 4 * 4 * 3 + 8 * (3 + 3 * 2 + 2)  # header, then w1 (f4), b1, w2, b2
    assert struct.unpack("<Q", data[at:at + 8])[0] == len(data) - at - 8
    path.write_bytes(data[:at] + struct.pack("<Q", 2**62) + data[at + 8:])
    with pytest.raises(FormatError, match="config text"):
        load_model(path)


def test_load_holds_the_weights_once(tmp_path):
    rng = np.random.default_rng(21)
    D, H = 200_000, 64
    model = LinearNetModel(rng.standard_normal((D, H)), np.zeros(H),
                           rng.standard_normal((H, 3)), np.zeros(3), TrainConfig())
    path = tmp_path / "wide.model"
    save_model(model, path)
    tracemalloc.start()
    try:
        loaded = load_model(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.w1, model.w1)
    assert peak < 1.5 * model.w1.nbytes


def test_load_rejects_duplicate_config_key(tmp_path):
    model = init_model(4, 2, TrainConfig(), hidden_dim=3)
    path = tmp_path / "m.model"
    save_model(model, path)
    data = path.read_bytes()
    at = 32 + 4 * 4 * 3 + 8 * (3 + 3 * 2 + 2)  # header, then w1 (f4), b1, w2, b2
    text = data[at + 8:] + b"\nseed = 5"
    path.write_bytes(data[:at] + struct.pack("<Q", len(text)) + text)
    with pytest.raises(FormatError, match="duplicate key 'seed'"):
        load_model(path)


# ----------------------------------------------------------------- two-stage


def little_clip(joints_fn, frames=4, actors=1, joints=3):
    coords = np.zeros((frames, actors, joints, 2))
    for f in range(frames):
        for a in range(actors):
            for j in range(joints):
                coords[f, a, j] = joints_fn(f, a, j)
    return SkeletonClip(coords, np.ones((frames, actors, joints), dtype=bool))


def test_rank_actors_orders_by_movement():
    # actor 0 frozen, actor 1 moving
    clip = little_clip(lambda f, a, j: (f * a * 1.0, j * 0.1), actors=2)
    assert rank_actors(clip).tolist() == [1, 0]


def test_rank_actors_stable_on_ties():
    clip = little_clip(lambda f, a, j: (f * 1.0, j * 1.0), actors=3)
    assert rank_actors(clip).tolist() == [0, 1, 2]
    # one frame: no step, so every actor's movement is zero
    clip = little_clip(lambda f, a, j: (a * 1.0, j * 1.0), frames=1, actors=3)
    assert rank_actors(clip).tolist() == [0, 1, 2]


def test_rank_actors_zero_actor_last():
    coords = np.zeros((3, 2, 3, 2))
    coords[:, 1] = np.arange(3).reshape(3, 1, 1)  # only actor 1 moves
    clip = SkeletonClip(coords, np.ones((3, 2, 3), dtype=bool))
    assert rank_actors(clip).tolist() == [1, 0]


def test_stage_partition_threshold():
    labels = np.array([0] * 50 + [1] * 50 + [2] * 2)
    counts = np.concatenate([np.full(50, 1.04), np.full(50, 1.95), [1.5, 1.5]])
    part = stage_partition(labels, counts, 3)
    assert part.one_body_classes.tolist() == [0, 2]  # 1.5 exactly -> one-body
    assert part.multi_body_classes.tolist() == [1]
    with pytest.raises(InputError):
        stage_partition(np.array([0, 0]), np.array([1.0, 1.0]), 2)


def test_stage_partition_arrays_must_be_equal_length_vectors():
    with pytest.raises(InputError, match="partition arrays must be 1-D and of equal length"):
        StagePartition(np.array([1.0, 2.0]), np.array([False]))
    with pytest.raises(InputError, match="partition arrays must be 1-D and of equal length"):
        StagePartition(np.ones((2, 2)), np.zeros((2, 2), dtype=bool))
    for labels, counts in (([0, 1], [1.0]), ([[0, 1]], [[1.0, 2.0]]), ([], [])):
        with pytest.raises(InputError, match="labels and actor counts must be equal-length "
                                             "non-empty vectors"):
            stage_partition(labels, counts, 2)


def biased_gate(input_dim, pick):
    """A gate that always answers ``pick`` (0 = one-body, 1 = multi)."""
    b2 = np.zeros(2)
    b2[pick] = 10.0
    return LinearNetModel(np.zeros((input_dim, 2)), np.zeros(2),
                          np.zeros((2, 2)), b2, TrainConfig())


def reference_two_stage_predict(models, partition, scalers, clip, config, descriptor):
    """(class id, probability) of one clip, as ``two_stage_predict`` gave them
    before ``pathsig predict --two-stage`` called ``two_stage_route`` itself."""
    gate, one_body, multi_body = models
    gate_scaler, one_scaler, multi_scaler = scalers
    two = extract_body_features(clip, 2, config, descriptor)[None, :]
    one = extract_body_features(clip, 1, config, descriptor)[None, :]
    labels, probs = two_stage_route(
        gate, one_body, multi_body, partition,
        apply_scaler(gate_scaler, two), apply_scaler(one_scaler, one),
        apply_scaler(multi_scaler, two))
    return int(labels[0]), float(probs[0])


TWO_STAGE_DESC = DatasetDescriptor(joint_count=3, dim=2, class_names=("a", "b", "c", "d"))
TWO_STAGE_CONFIG = FeatureConfig(sampled_frames=2, pair_level=1, triple_level=1,
                                 joint_level=2, evolution_level=1)
D_ONE = sum(b.width for b in feature_layout(TWO_STAGE_CONFIG, TWO_STAGE_DESC))
D_TWO = sum(b.width for b in feature_layout(TWO_STAGE_CONFIG, TWO_STAGE_DESC.merged(2)))


def predict_two_stage(root, models, partition, scalers, clip, capsys):
    """Exit status, stdout and stderr of ``pathsig predict --two-stage`` on files
    written from the three models, and on an extract prefix written from the
    partition, the three scalers and the module's descriptor and config."""
    for (stage, _), model, scaler in zip(cli._STAGES, models, scalers):
        save_model(model, root / f"m.{stage}.model")
        pio.write_scaler(scaler, root / f"f.{stage}.scaler.feat")
    pio.write_partition(partition.mean_actor_counts, partition.multi_body,
                        root / "f.partition.txt")
    pio.write_descriptor(TWO_STAGE_DESC, root / "f.descriptor.txt")
    pio.write_feature_config(TWO_STAGE_CONFIG, pio.ExtractionOptions(), root / "f.config.txt")
    pio.write_clip_file(clip, root / "c.clip")
    code = cli.main(["predict", "--clip", str(root / "c.clip"), "--features", str(root / "f"),
                     "--model", str(root / "m"), "--two-stage"])
    return (code, *capsys.readouterr())


def test_two_stage_routing_both_paths(tmp_path, capsys):
    partition = StagePartition(np.array([1.0, 1.1, 1.9, 2.0]),
                               np.array([False, False, True, True]))
    ones = [FeatureScaler(np.ones(d)) for d in (D_TWO, D_ONE, D_TWO)]

    def second_stage(input_dim, favored):
        b2 = np.zeros(2)
        b2[favored] = 5.0
        return LinearNetModel(np.zeros((input_dim, 2)), np.zeros(2),
                              np.zeros((2, 2)), b2, TrainConfig())

    rng = np.random.default_rng(9)
    clip = SkeletonClip(rng.standard_normal((5, 2, 3, 2)),
                        np.ones((5, 2, 3), dtype=bool))
    for gate_pick, favored, expect in ((0, 1, 1), (1, 0, 2), (1, 1, 3)):
        models = (biased_gate(D_TWO, gate_pick), second_stage(D_ONE, favored),
                  second_stage(D_TWO, favored))
        code, out, _ = predict_two_stage(tmp_path, models, partition, ones, clip, capsys)
        assert code == 0
        name, prob = out.split()
        assert name == TWO_STAGE_DESC.class_names[expect]
        assert 0.5 < float(prob) <= 1.0

    # seeded models and scalers: the CLI line is the old two_stage_predict's
    routes = set()
    for seed in range(6):
        rng = np.random.default_rng([seed, 40])
        models = (init_model(D_TWO, 2, TrainConfig(seed=seed), hidden_dim=5),
                  init_model(D_ONE, 2, TrainConfig(seed=seed + 10), hidden_dim=5),
                  init_model(D_TWO, 2, TrainConfig(seed=seed + 20), hidden_dim=5))
        scalers = [FeatureScaler(rng.uniform(0.5, 2.0, d)) for d in (D_TWO, D_ONE, D_TWO)]
        clip = SkeletonClip(rng.standard_normal((6, 2, 3, 2)), np.ones((6, 2, 3), dtype=bool))
        code, out, _ = predict_two_stage(tmp_path, models, partition, scalers, clip, capsys)
        read_back = pio.read_clip_file(tmp_path / "c.clip", TWO_STAGE_DESC)
        label, prob = reference_two_stage_predict(models, partition, scalers, read_back,
                                                  TWO_STAGE_CONFIG, TWO_STAGE_DESC)
        assert code == 0
        assert out == f"{TWO_STAGE_DESC.class_names[label]} {prob:.6f}\n"
        routes.add(bool(partition.multi_body[label]))
    assert routes == {False, True}


def test_two_stage_rejects_empty_clip(tmp_path, capsys, monkeypatch):
    models = (biased_gate(D_TWO, 0), biased_gate(D_ONE, 0), biased_gate(D_TWO, 0))
    scalers = [FeatureScaler(np.ones(d)) for d in (D_TWO, D_ONE, D_TWO)]
    partition = StagePartition(np.array([1.0, 1.1, 1.9, 2.0]),
                               np.array([False, False, True, True]))
    empty = SkeletonClip(np.zeros((3, 1, 3, 2)), np.zeros((3, 1, 3), dtype=bool))
    with pytest.raises(InputError):
        extract_body_features(empty, 1, TWO_STAGE_CONFIG, TWO_STAGE_DESC)
    # a clip file always holds a valid joint, so the reader hands over the empty clip
    monkeypatch.setattr(pio, "read_clip_file", lambda *args, **kwargs: empty)
    code, _, err = predict_two_stage(tmp_path, models, partition, scalers, empty, capsys)
    assert code == 1
    assert "clip has no valid joints" in err


def per_row_route(gate, one, multi, partition, x_gate, x_one, x_multi):
    """The row-at-a-time routing loop ``pathsig eval --two-stage`` used to run."""
    gate_pred = forward(gate, x_gate).argmax(axis=1)
    pred = np.empty(x_gate.shape[0], dtype=np.int64)
    for i in range(pred.size):
        if gate_pred[i] == 0:
            local = int(forward(one, x_one[i]).argmax())
            pred[i] = int(partition.one_body_classes[local])
        else:
            local = int(forward(multi, x_multi[i]).argmax())
            pred[i] = int(partition.multi_body_classes[local])
    return pred


def test_two_stage_route_matches_per_row_loop():
    partition = StagePartition(np.array([1.0, 2.0, 1.2, 1.9, 1.8]),
                               np.array([False, True, False, True, True]))
    d_two, d_one, rows = 12, 7, 80
    for seed in range(5):
        rng = np.random.default_rng([seed, 30])
        gate = init_model(d_two, 2, TrainConfig(seed=seed), hidden_dim=5)
        one = init_model(d_one, 2, TrainConfig(seed=seed + 10), hidden_dim=5)
        multi = init_model(d_two, 3, TrainConfig(seed=seed + 20), hidden_dim=5)
        x_gate, x_one, x_multi = (rng.standard_normal((rows, d)) for d in (d_two, d_one, d_two))
        labels, probs = two_stage_route(gate, one, multi, partition, x_gate, x_one, x_multi)
        expect = per_row_route(gate, one, multi, partition, x_gate, x_one, x_multi)
        assert np.array_equal(labels, expect)
        to_multi = forward(gate, x_gate).argmax(axis=1) == 1
        assert 0 < to_multi.sum() < rows  # rows routed both ways
        for i in range(rows):
            model, x = (multi, x_multi[i]) if to_multi[i] else (one, x_one[i])
            assert probs[i] == pytest.approx(forward(model, x).max(), abs=1e-12)


def test_two_stage_route_skips_a_class_model_no_row_reaches():
    partition = StagePartition(np.array([1.0, 2.0, 1.2, 1.9]), np.array([False, True, False, True]))
    rng = np.random.default_rng(36)
    x_gate, x_one, x_multi = (rng.standard_normal((20, d)) for d in (12, 7, 12))
    gate, one, multi = (init_model(d, 2, TrainConfig(seed=seed), hidden_dim=5)
                        for d, seed in ((12, 1), (7, 2), (12, 3)))
    gate.b2[:] = (0.0, 1e6)  # every row goes to the multi-body model
    labels, probs = two_stage_route(gate, one, multi, partition, x_gate, x_one, x_multi)
    assert one._map is None and multi._map is not None
    p = forward(multi, x_multi)
    assert np.array_equal(labels, partition.multi_body_classes[p.argmax(axis=1)])
    assert np.array_equal(probs, p.max(axis=1))


def test_two_stage_route_runs_each_model_through_its_own_map():
    partition = StagePartition(np.array([1.0, 2.0, 1.2, 1.9]), np.array([False, True, False, True]))
    rng = np.random.default_rng(35)
    x_gate, x_one, x_multi = (rng.standard_normal((20, d)) for d in (12, 7, 12))

    def models():  # gate and multi have one shape
        return [init_model(d, 2, TrainConfig(seed=seed), hidden_dim=5)
                for d, seed in ((12, 1), (7, 2), (12, 3))]

    routed = models()
    labels, probs = two_stage_route(*routed, partition, x_gate, x_one, x_multi)
    for model in routed:  # the map each model cached was built from its own arrays
        assert [s is t for s, t in zip(model._map[0], (model.w1, model.b1, model.w2, model.b2))] \
            == [True] * 4
    assert not np.array_equal(routed[0]._map[1], routed[2]._map[1])
    gate, one, multi = models()
    to_multi = forward(gate, x_gate).argmax(axis=1) == 1
    assert 0 < to_multi.sum() < 20
    for i in range(20):
        model, x = (multi, x_multi[i]) if to_multi[i] else (one, x_one[i])
        assert probs[i] == forward(model, x).max()
