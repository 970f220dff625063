"""Single-hidden-layer linear network with dropconnect, trained by SGD.

The model is softmax(W2.T @ h + b2) with h = W1.T @ x + b1 and an identity
hidden activation, so at inference the whole network collapses to one
affine map.  The hidden layer earns its keep during training: dropconnect
zeroes a random subset of W1's entries on every mini-batch (Bernoulli keep
probability 1 - drop_rate), which regularizes the very wide input layer.
At inference the expected mask, 1 - drop_rate, scales W2 in that map,
which ``forward`` builds once per model and runs every row through.

A batch's mask is held as the sorted flat indices of the kept W1 entries,
drawn as cumulative geometric gaps (about (1 - drop_rate) * W1.size draws,
not one per entry).  The masked product x @ (W1 * mask) and the momentum
update walk W1 in the row chunks of ``_chunk_plan`` and take the batch's
rows of the matching feature columns only: the forward pass scatters each
chunk's kept weights into a zeroed chunk buffer, and the update computes
the chunk's gradient into a second buffer and applies it at the kept
entries only.  Features come as an in-memory matrix or as an
``io.FeatureRows`` file (this is how ``pathsig train`` runs), and both
answer ``x[batch, r0:r1]`` with the same array, so the products and the
bits are the same either way.  From a file, training holds the weights,
the momentum, two chunk buffers, one chunk of batch rows and one batch's
kept indices, whatever the number of rows.

Precision: W1, its momentum and the chunk buffers are float32 (master
weights, as in mixed-precision training); b1, W2, b2, the hidden layer
and the softmax head are float64.  The W1 products take float32 batch
rows and hidden gradient, and their chunks sum into the float64 hidden
layer.  ``forward``'s D x C map is float64; only ``gradient_check``, meant
for small models, makes a float64 copy of W1.

Training minimizes softmax cross-entropy by mini-batch gradient descent
with classical momentum (v <- mu*v - lr*grad; param += v) under an
exponentially decaying learning rate lr(t) = lr0 * exp(-decay * t), t
counting completed epochs.  Everything random (init, shuffling, masks)
flows from the seed in TrainConfig, so a given (data, config) pair always
produces the same model bit for bit, at any BLAS thread count.

Two-stage routing (a binary body-count gate, then one of two class
models) serves datasets that mix single-actor and two-actor classes;
``two_stage_route``, its one router, takes a batch of scaled rows per
model for both ``eval`` and ``predict``.  Model files (magic ``SIGNET1``,
version 2) are read with the size-checked readers and ``key = value``
settings codec of ``io``.
"""

from __future__ import annotations

import dataclasses
import mmap
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (FormatError, InputError, check_array, check_entries, check_labels,
                     check_number, check_settings, setting)
from .io import (FeatureRows, _checked, _decode, _format_settings, _parse_key_values,
                 _parse_settings, _read_array, _read_exact)
from .skeleton import (
    DatasetDescriptor,
    FeatureConfig,
    SkeletonClip,
    assemble_features,
    fill_clip,
    merge_actors,
    normalize_clip,
)

__all__ = [
    "HIDDEN_UNITS",
    "TrainConfig",
    "LinearNetModel",
    "EpochStats",
    "StagePartition",
    "init_model",
    "forward",
    "lr_schedule",
    "train",
    "gradient_check",
    "rank_actors",
    "stage_partition",
    "prepare_body",
    "extract_body_features",
    "two_stage_route",
    "save_model",
    "load_model",
]

HIDDEN_UNITS = 64

_MODEL_MAGIC = b"SIGNET1"
_MODEL_VERSION = 2  # version 1 stored W1 as float64
_MODEL_ARRAYS = (("w1", "<f4"), ("b1", "<f8"), ("w2", "<f8"), ("b2", "<f8"))  # in file order

# W1 rows per training chunk: a 4 MB float32 block at 64 hidden units.
_CHUNK_ROWS = 16384

# W1 rows ``_affine_map`` widens to float64 at a time: 512 KB at 64 hidden units.
_WIDEN_ROWS = 1024

_MAP_ROWS = 8  # rows per product of ``forward``, a padded fixed-shape block

_CAST_ROWS = 8  # batch rows read as float64 at a time by ``_batch_rows``


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer hyperparameters; defaults are the reference values."""

    batch_size: int = setting(30, ge=1)
    momentum: float = setting(0.7, ge=0.0, lt=1.0)
    learning_rate: float = setting(0.01, gt=0.0)
    decay: float = setting(0.005, ge=0.0)
    max_epochs: int = setting(200, ge=1)
    drop_rate: float = setting(0.95, ge=0.0, lt=1.0)
    seed: int = setting(0, ge=0)

    __post_init__ = check_settings


@dataclass
class LinearNetModel:
    """Weights of the network plus the config it was built with."""

    w1: np.ndarray  # (D, H), float32
    b1: np.ndarray  # (H,)
    w2: np.ndarray  # (H, C)
    b2: np.ndarray  # (C,)
    config: TrainConfig = field(default_factory=TrainConfig)
    _map: tuple | None = field(default=None, init=False, repr=False, compare=False)  # _affine_map

    def __post_init__(self):
        for name, ndim in (("w1", 2), ("b1", 1), ("w2", 2), ("b2", 1)):
            dtype = np.float32 if name == "w1" else np.float64
            setattr(self, name, check_array(getattr(self, name), ndim, name, dtype))
        H, C = self.w2.shape
        if self.w1.shape[1] != H or self.b1.shape != (H,) or self.b2.shape != (C,):
            raise InputError(f"inconsistent weight shapes: w1 {self.w1.shape}, b1 {self.b1.shape}, "
                             f"w2 {self.w2.shape}, b2 {self.b2.shape}")

    @property
    def input_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def class_count(self) -> int:
        return self.w2.shape[1]


@dataclass(frozen=True)
class EpochStats:
    """One training epoch: learning rate, mean loss, training accuracy."""

    epoch: int
    lr: float
    loss: float
    accuracy: float


def init_model(
    input_dim: int,
    class_count: int,
    config: TrainConfig | None = None,
    hidden_dim: int = HIDDEN_UNITS,
) -> LinearNetModel:
    """Fresh model with seeded Gaussian weights (std 1/sqrt(fan-in)), zero biases;
    W1 is one float64 draw rounded to float32, drawn and rounded by chunks."""
    config = config or TrainConfig()
    input_dim = check_number(input_dim, "input_dim", ge=1)
    class_count = check_number(class_count, "class_count", ge=2)
    hidden_dim = check_number(hidden_dim, "hidden_dim", ge=1)
    check_entries(hidden_dim * (input_dim + class_count), "the model's weights")
    rng = np.random.default_rng([config.seed, 0])
    w1 = np.empty((input_dim, hidden_dim), dtype=np.float32)
    for r0, r1 in _chunk_plan(input_dim):
        w1[r0:r1] = rng.standard_normal((r1 - r0, hidden_dim)) / np.sqrt(input_dim)
    w2 = rng.standard_normal((hidden_dim, class_count)) / np.sqrt(hidden_dim)
    return LinearNetModel(w1, np.zeros(hidden_dim), w2, np.zeros(class_count), config)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def forward(model: LinearNetModel, x) -> np.ndarray:
    """Class probabilities for one input vector or a batch of rows (each sums to 1).

    softmax(x @ A + c) through the model's cached affine map (``_affine_map``).
    Rows go through A in fixed blocks of ``_MAP_ROWS``, the last padded with
    zero rows, and the columns split by ``_chunk_plan`` into one reused
    buffer, so every product has one shape and a row's probabilities are the
    same bits alone, in any batch and at any BLAS thread count.  A takes
    8 * D * C bytes and float32 W1 4 * D * H: above C = H / 2 the map is the
    larger, and this stays the one path.  A has its own anonymous mapping,
    so freeing the model returns it to the operating system instead of
    leaving a heap block resident under a later peak.
    """
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != model.input_dim:
        raise InputError(
            f"input has shape {np.shape(x)}, model expects dimension {model.input_dim}"
        )
    a, c = _affine_map(model)
    chunks = _chunk_plan(model.input_dim)
    buf = np.zeros((_MAP_ROWS, chunks[0][1]))
    logits = np.zeros((arr.shape[0], model.class_count))
    for b0 in range(0, arr.shape[0], _MAP_ROWS):
        n = min(_MAP_ROWS, arr.shape[0] - b0)
        buf[n:] = 0.0
        for q0, q1 in chunks:
            buf[:n, :q1 - q0] = arr[b0:b0 + n, q0:q1]
            logits[b0:b0 + n] += (buf[:, :q1 - q0] @ a[q0:q1])[:n]
    probs = _softmax(logits + c)
    return probs[0] if single else probs


def _affine_map(model: LinearNetModel) -> tuple[np.ndarray, np.ndarray]:
    """A = W1 @ ((1 - drop_rate) * W2) as float64 (D, C), the scale rounded
    into W2 first, and c = b1 @ W2 + b2, built from ``_WIDEN_ROWS``-row W1
    pieces that numpy widens.  Cached on the model with the arrays and
    config it came from, rebuilt when one is replaced; while cached, the
    weights are read-only, so an in-place write raises instead of leaving
    the map stale (``train``, their one writer, calls ``_drop_map``)."""
    sources = (model.w1, model.b1, model.w2, model.b2, model.config)
    if model._map is None or any(s is not t for s, t in zip(model._map[0], sources)):
        D, C = model.input_dim, model.class_count
        a = np.frombuffer(mmap.mmap(-1, 8 * D * C), np.float64).reshape(D, C)
        w2 = (1.0 - model.config.drop_rate) * model.w2
        for q0, q1 in _chunk_plan(D, _WIDEN_ROWS):
            np.matmul(model.w1[q0:q1], w2, out=a[q0:q1])
        for arr in sources[:4]:
            arr.flags.writeable = False
        model._map = (sources, a, model.b1 @ model.w2 + model.b2)
    return model._map[1:]


def _drop_map(model: LinearNetModel) -> None:
    """Forget the model's affine map and make its weights writable."""
    model._map = None
    for arr in (model.w1, model.b1, model.w2, model.b2):
        arr.flags.writeable = True


def lr_schedule(epoch: int, config: TrainConfig) -> float:
    """Learning rate after ``epoch`` completed epochs: lr0 * exp(-decay*epoch)."""
    epoch = check_number(epoch, "epoch", ge=0)
    return config.learning_rate * float(np.exp(-config.decay * epoch))


def _softmax_head(h: np.ndarray, labels: np.ndarray, w2: np.ndarray, b2: np.ndarray):
    """Cross-entropy of softmax(h @ w2 + b2) summed over the batch, plus gradients.

    ``h`` is the hidden pre-activation, b1 included.  Returns the loss,
    the class probabilities, g_h (the gradient w.r.t. h, which each caller
    carries back through its own W1 product), g_b1, g_w2 and g_b2.
    """
    B = h.shape[0]
    logits = h @ w2 + b2
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = -log_probs[np.arange(B), labels].sum()
    probs = np.exp(log_probs)
    g_logits = probs.copy()
    g_logits[np.arange(B), labels] -= 1.0
    g_w2 = h.T @ g_logits
    g_b2 = g_logits.sum(axis=0)
    g_h = g_logits @ w2.T
    return loss, probs, g_h, g_h.sum(axis=0), g_w2, g_b2


def _kept_entries(rng: np.random.Generator, size: int, keep: float) -> np.ndarray:
    """Sorted flat indices of the entries a Bernoulli(keep) mask over ``size`` keeps.

    Between consecutive kept entries of an i.i.d. Bernoulli(keep) sequence
    the gaps are i.i.d. geometric(keep) on 1, 2, ..., so the cumulative sum
    of gaps, starting at -1, lists the kept indices with the same
    distribution as one uniform draw per entry, from about keep * size
    draws.  Gaps are drawn in blocks sized to pass ``size`` with near
    certainty; a short block is followed by another.
    """
    blocks = []
    last = -1
    while last < size - 1:
        expected = (size - 1 - last) * keep
        kept = rng.geometric(keep, size=int(expected + 6.0 * np.sqrt(expected)) + 16)
        np.cumsum(kept, out=kept)
        kept += last
        blocks.append(kept)
        last = int(kept[-1])
    kept = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    return kept[:np.searchsorted(kept, size)]


def _chunk_plan(D: int, rows: int | None = None) -> list[tuple[int, int]]:
    """W1 row ranges [r0, r1) of ``rows`` rows (``_CHUNK_ROWS`` by default),
    the last split at its largest multiple of 256 rows: OpenBLAS sums a
    longer ragged inner length in an order that depends on its thread count."""
    edges = [*range(0, D, rows or _CHUNK_ROWS), D]
    last = edges[-1] - edges[-2]
    if 256 < last and last % 256:
        edges.insert(-1, edges[-2] + last // 256 * 256)
    return list(zip(edges[:-1], edges[1:]))


def _batch_rows(x, batch: np.ndarray, r0: int, r1: int, out: np.ndarray) -> np.ndarray:
    """``x[batch, r0:r1]`` cast to float32 in ``out[:batch.size, :r1 - r0]``,
    read ``_CAST_ROWS`` rows at a time so no float64 copy of the whole chunk
    is made."""
    out = out[:batch.size, :r1 - r0]
    for i in range(0, batch.size, _CAST_ROWS):
        out[i:i + _CAST_ROWS] = x[batch[i:i + _CAST_ROWS], r0:r1]
    return out


# overflow on the way to a diverged run is reported by the finiteness checks below
@np.errstate(over="ignore", invalid="ignore")
def train(model: LinearNetModel, features, labels) -> list[EpochStats]:
    """Fit the model in place by its own ``config``; returns per-epoch
    loss/accuracy history.

    ``features`` is a (rows, dims) matrix or an ``io.FeatureRows`` file.
    Mini-batches are drawn from a fresh seeded shuffle each epoch; every
    batch gets its own dropconnect mask over w1, held as the sorted flat
    indices of its kept entries (see ``_kept_entries``).  The masked
    product and the update walk w1 in row chunks and take the batch's rows
    one chunk of columns at a time (``x[batch, r0:r1]``, which a file
    answers with one read per row, cast to float32 by ``_batch_rows``), so
    no batch-sized copy of the features is made and the only W1-sized array
    is the float32 momentum; masked-out entries move by their momentum
    alone (v <- mu*v).  Loss and accuracy are accumulated from the same
    masked forward passes the updates use.  The cached affine map is
    dropped on entry and on exit.
    Deterministic: the same model and data give bit-identical results.
    Raises InputError, naming the epoch and batch, when a batch loss is
    not finite (before that batch updates the weights), or when the final
    weights are not finite.
    """
    config = model.config
    x = features if isinstance(features, FeatureRows) else np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    if len(x.shape) != 2 or x.shape[0] < 1:
        raise InputError(f"features must be a non-empty (rows, dims) matrix, got shape {x.shape}")
    if y.shape != (x.shape[0],):
        raise InputError(f"labels shape {y.shape} does not match {x.shape[0]} rows")
    y = check_labels(y, model.class_count, "labels")
    if x.shape[1] != model.input_dim:
        raise InputError(f"features have {x.shape[1]} dims, model expects {model.input_dim}")

    _drop_map(model)
    n = x.shape[0]
    D, H = model.w1.shape
    masked = config.drop_rate > 0.0
    rng = np.random.default_rng([config.seed, 1])
    v_w1 = np.zeros_like(model.w1)
    v_b1 = np.zeros_like(model.b1)
    v_w2 = np.zeros_like(model.w2)
    v_b2 = np.zeros_like(model.b2)
    chunk_rows = min(_CHUNK_ROWS, D)
    chunks = _chunk_plan(D)
    chunk_edges = np.array([r0 for r0, _ in chunks] + [D]) * H  # flat w1 index bounds
    w_buf = np.zeros((chunk_rows, H), np.float32)  # zero outside one chunk's kept weights
    g_buf = np.empty((chunk_rows, H), np.float32)
    x_buf = np.empty((min(config.batch_size, n), chunk_rows), np.float32)
    w_buf_flat, g_buf_flat = w_buf.reshape(-1), g_buf.reshape(-1)
    w1_flat, v_flat = model.w1.reshape(-1), v_w1.reshape(-1)
    history = []
    for epoch in range(config.max_epochs):
        lr = lr_schedule(epoch, config)
        order = rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        for batch_index, start in enumerate(range(0, n, config.batch_size)):
            batch = order[start:start + config.batch_size]
            yb = y[batch]
            if masked:
                kept = idx = local = None  # drop the last batch's mask before drawing the next
                kept = _kept_entries(rng, model.w1.size, 1.0 - config.drop_rate)
                bounds = np.searchsorted(kept, chunk_edges)
            h = np.zeros((batch.size, H))
            for c, (r0, r1) in enumerate(chunks):
                rows = _batch_rows(x, batch, r0, r1, x_buf)
                if masked:
                    idx = kept[bounds[c]:bounds[c + 1]]
                    local = idx - r0 * H
                    w_buf_flat[local] = w1_flat[idx]
                    h += rows @ w_buf[:r1 - r0]
                    w_buf_flat[local] = 0.0
                else:
                    h += rows @ model.w1[r0:r1]
            h += model.b1
            loss, probs, g_h, g_b1, g_w2, g_b2 = _softmax_head(h, yb, model.w2, model.b2)
            if not np.isfinite(loss):
                raise InputError(
                    f"training diverged: loss is {loss} at epoch {epoch}, batch {batch_index}"
                )
            loss_sum += loss
            correct += int((probs.argmax(axis=1) == yb).sum())
            g_h = g_h.astype(np.float32)
            for c, (r0, r1) in enumerate(chunks):
                rows = _batch_rows(x, batch, r0, r1, x_buf)
                g = np.matmul(rows.T, g_h, out=g_buf[:r1 - r0])
                v = v_w1[r0:r1]
                v *= config.momentum
                if masked:
                    idx = kept[bounds[c]:bounds[c + 1]]
                    v_flat[idx] -= lr * g_buf_flat[idx - r0 * H]
                else:
                    g *= lr
                    v -= g
                model.w1[r0:r1] += v
            for param, vel, grad in ((model.b1, v_b1, g_b1), (model.w2, v_w2, g_w2), (model.b2, v_b2, g_b2)):
                vel *= config.momentum
                vel -= lr * grad
                param += vel
        history.append(EpochStats(epoch, lr, loss_sum / n, correct / n))
    _drop_map(model)
    parts = [model.w1[r0:r1] for r0, r1 in chunks] + [model.b1, model.w2, model.b2]
    if not all(np.isfinite(a).all() for a in parts):
        raise InputError(f"training diverged: weights are not finite after epoch {epoch}")
    return history


def gradient_check(model: LinearNetModel, x, label: int, step: float = 1e-5) -> float:
    """Max relative error of analytic vs central finite-difference gradients.

    Evaluates the inference-mode loss (w1 scaled by 1 - drop_rate) on a
    single sample, with float64 copies of the weights.  Relative error per
    entry is |analytic - numeric| / max(|analytic|, |numeric|, 1e-3); the floor
    keeps finite-difference noise on near-zero entries from dominating.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size != model.input_dim:
        raise InputError(f"x must be a vector of dimension {model.input_dim}, got shape {x.shape}")
    label = check_number(label, "label", ge=0, lt=model.class_count)
    scale = 1.0 - model.config.drop_rate
    xb = x[None, :]
    yb = np.array([label])

    def head(params):
        h = scale * (xb @ params["w1"]) + params["b1"]
        return _softmax_head(h, yb, params["w2"], params["b2"])

    params = {name: getattr(model, name).astype(np.float64) for name in ("w1", "b1", "w2", "b2")}
    _, _, g_h, g_b1, g_w2, g_b2 = head(params)
    analytic = {
        "w1": scale * (xb.T @ g_h),  # chain rule through the (1-p) scaling
        "b1": g_b1,
        "w2": g_w2,
        "b2": g_b2,
    }

    worst = 0.0
    for name, arr in params.items():
        grad = analytic[name]
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + step
            plus = head(params)[0]
            arr[idx] = orig - step
            minus = head(params)[0]
            arr[idx] = orig
            numeric = (plus - minus) / (2 * step)
            a = grad[idx]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-3)
            worst = max(worst, err)
    return worst


def rank_actors(clip: SkeletonClip) -> np.ndarray:
    """Actor indices ordered by total movement, most active first.

    Movement is the summed Euclidean displacement of every joint across
    consecutive frames, counting only steps where the joint is valid in
    both frames.  Ties keep the original actor order.
    """
    diffs = np.diff(clip.joints, axis=0)  # (F-1, A, N, d)
    both = clip.valid[:-1] & clip.valid[1:]  # (F-1, A, N)
    dist = np.linalg.norm(diffs, axis=-1) * both
    return np.argsort(-dist.sum(axis=(0, 2)), kind="stable")


@dataclass
class StagePartition:
    """Per-class mean actor counts and the derived one/multi-body split."""

    mean_actor_counts: np.ndarray  # (C,)
    multi_body: np.ndarray  # (C,) bool

    def __post_init__(self):
        self.mean_actor_counts = np.asarray(self.mean_actor_counts, dtype=np.float64)
        self.multi_body = np.asarray(self.multi_body, dtype=bool)
        if self.mean_actor_counts.shape != self.multi_body.shape or self.multi_body.ndim != 1:
            raise InputError("partition arrays must be 1-D and of equal length")

    @property
    def one_body_classes(self) -> np.ndarray:
        return np.flatnonzero(~self.multi_body)

    @property
    def multi_body_classes(self) -> np.ndarray:
        return np.flatnonzero(self.multi_body)


def stage_partition(labels, actor_counts, class_count: int) -> StagePartition:
    """Split classes by mean training actor count; multi-body iff mean > 1.5."""
    y = np.asarray(labels)
    counts = np.asarray(actor_counts, dtype=np.float64)
    class_count = check_number(class_count, "class_count", ge=1)
    if y.shape != counts.shape or y.ndim != 1 or y.size < 1:
        raise InputError("labels and actor counts must be equal-length non-empty vectors")
    y = check_labels(y, class_count, "labels")
    means = np.zeros(class_count)
    for c in range(class_count):
        sel = y == c
        if not sel.any():
            raise InputError(f"class {c} has no training clips")
        means[c] = counts[sel].mean()
    return StagePartition(means, means > 1.5)


def prepare_body(clip: SkeletonClip, bodies: int) -> SkeletonClip:
    """The clip's top ``bodies`` actors, ranked by movement, as one rigid body.

    Missing body slots stay zero.  The merged clip is normalized (shared
    center and scale, preserving relative placement) and gap-filled.
    """
    if not clip.valid.any():
        raise InputError("clip has no valid joints in any frame")
    ranked = rank_actors(clip)
    merged = merge_actors(clip, ranked[:bodies], bodies)
    return fill_clip(normalize_clip(merged))


def extract_body_features(
    clip: SkeletonClip,
    bodies: int,
    config: FeatureConfig,
    descriptor: DatasetDescriptor,
) -> np.ndarray:
    """The feature row of the clip's top ``bodies`` actors as one rigid body."""
    merged = descriptor.merged(bodies)  # bounds ``bodies`` before the clip is merged
    return assemble_features(prepare_body(clip, bodies).joints[:, 0], config, merged)


def two_stage_route(gate: LinearNetModel, one_body: LinearNetModel, multi_body: LinearNetModel,
                    partition: StagePartition, x_gate, x_one, x_multi) -> tuple[np.ndarray, np.ndarray]:
    """Route rows through the gate, then the matching class model, one batch per model.

    Row i of ``x_gate``, ``x_one`` and ``x_multi`` is one clip, already
    scaled for the gate, the one-body and the multi-body model; the gate's
    output 0 means one-body.  Returns (class ids, probabilities) in the
    original class numbering.  A class model no row is routed to is not
    run, so it builds no affine map.
    """
    to_multi = forward(gate, x_gate).argmax(axis=1) != 0
    labels = np.empty(to_multi.size, dtype=np.int64)
    probs = np.empty(to_multi.size)
    for rows, model, x, classes in ((~to_multi, one_body, x_one, partition.one_body_classes),
                                    (to_multi, multi_body, x_multi, partition.multi_body_classes)):
        if not rows.any():
            continue
        p = forward(model, x[rows])
        labels[rows] = classes[p.argmax(axis=1)]
        probs[rows] = p.max(axis=1)
    return labels, probs


def save_model(model: LinearNetModel, path) -> None:
    """Write the model in the binary layout that load_model reads."""
    config_text = _format_settings(model.config).encode("ascii")
    with open(path, "wb") as f:
        f.write(_MODEL_MAGIC)
        f.write(struct.pack("<B", _MODEL_VERSION))
        f.write(struct.pack("<QQQ", model.input_dim, model.hidden_dim, model.class_count))
        for name, dtype in _MODEL_ARRAYS:
            f.write(np.ascontiguousarray(getattr(model, name), dtype=dtype).data)
        f.write(struct.pack("<Q", len(config_text)))
        f.write(config_text)


def load_model(path) -> LinearNetModel:
    """Read a model file; the round-trip with save_model is bit-exact.

    Layout: magic ``SIGNET1``, version byte 2, input/hidden/class counts
    as little-endian u64, then w1 as row-major little-endian f4, b1, w2
    and b2 as row-major little-endian f8, then a u64-length-prefixed text
    block of a ``key = value`` line for each TrainConfig field.  Every size
    taken from the file is checked against the file size before the read
    it governs.  Another version byte, such as version 1's (w1 in f8), is
    a FormatError that asks for the model to be retrained.
    """
    with open(path, "rb") as f:
        magic = _read_exact(f, len(_MODEL_MAGIC), path, "magic")
        if magic != _MODEL_MAGIC:
            raise FormatError(f"{path}: bad magic {bytes(magic)!r}, expected {_MODEL_MAGIC!r}")
        version = struct.unpack("<B", _read_exact(f, 1, path, "version"))[0]
        if version != _MODEL_VERSION:
            raise FormatError(f"{path}: unsupported model version {version}, expected "
                              f"{_MODEL_VERSION}: retrain the model to write one")
        D, H, C = struct.unpack("<QQQ", _read_exact(f, 24, path, "dimensions"))
        shapes = {"w1": (D, H), "b1": (H,), "w2": (H, C), "b2": (C,)}
        arrays = [_read_array(f, shapes[name], path, name, dtype) for name, dtype in _MODEL_ARRAYS]
        text_len = struct.unpack("<Q", _read_exact(f, 8, path, "config length"))[0]
        text = _decode(_read_exact(f, text_len, path, "config text"), f"{path} config text")
        extra = f.read(1)
        if extra:
            raise FormatError(f"{path}: trailing bytes after config at offset {f.tell() - 1}")
    where = f"{path} config text"
    fields = _parse_key_values((f"{where}:{lineno}", line)
                               for lineno, line in enumerate(text.splitlines(), start=1))
    missing = [f.name for f in dataclasses.fields(TrainConfig) if f.name not in fields]
    if missing:
        raise FormatError(f"{where}: missing key {missing[0]!r}")
    return _checked(path, LinearNetModel, *arrays, *_parse_settings(fields, where, TrainConfig))
