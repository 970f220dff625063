"""Skeleton clips to fixed-length signature feature rows.

The feature stack turns a variable-length clip of joint coordinates into
one float64 row of five kinds of blocks, placed as ``feature_layout`` says:

* joints: raw coordinates of one frame, width N*d.
* pair_sig: per frame, the signature of every ordered joint pair treated
  as a 2-point path, truncated at ``pair_level``.
* triple_sig: per frame, the signature of every ordered joint triple as a
  3-point path, truncated at ``triple_level``.
* joint_motion_sig: per joint, the signature of its time-augmented
  trajectory over all frames, truncated at ``joint_level``.
* spatial_evolution_sig: per scalar dimension of the per-frame pair and
  triple signature blocks, the signature of its lead-lag lifted evolution
  over all frames, truncated at ``evolution_level``.

The row is allocated once and filled in place, one pathlet tile at a
time: each tile of pairs or triples is signed for every frame, the
``sampled_frames`` frames chosen by ``uniform_sample`` are copied into
their spatial blocks, and the tile's evolution is signed into its slice of
the evolution block.  No array spans every frame and every pathlet, so a
clip's working set is set by its row and one tile, not by its length.
The two temporal blocks always see every frame, so the output width does
not depend on clip length.  With ``dyadic`` enabled, each temporal
signature is replaced by the concatenation of signatures over
``dyadic_windows``, multiplying the temporal widths by 2**depth - 1.  Each
temporal block builds its increments once, channel-first (the evolution
block's straight from the series: its lead-lag lift never exists) and
frees them once the finest windows are signed; every coarser window is
the Chen product of its halves.

Everything here is a pure function of its inputs; augmentation noise is
drawn from an explicitly seeded generator.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError, check_array, check_number, check_settings, setting
from .signature import _chen_product, _horner_fold, path_signature_batch, signature_dimension
from .transforms import dyadic_windows, fill_missing, uniform_sample

__all__ = [
    "SkeletonClip",
    "DatasetDescriptor",
    "FeatureConfig",
    "ExtractionOptions",
    "Block",
    "FeatureScaler",
    "normalize_clip",
    "horizontal_flip",
    "add_gaussian_noise",
    "augment_clips",
    "enumerate_pathlets",
    "temporal_joint_features",
    "temporal_spatial_features",
    "assemble_features",
    "feature_layout",
    "fit_scaler",
    "apply_scaler",
    "merge_actors",
    "fill_clip",
]

_MAX_JOINTS = 1000  # a descriptor's checks build lists this long; NTU RGB+D has 25 a body
_MAX_COLUMNS = 1 << 26  # widest feature row: about 10x NTU RGB+D's 6,186,050
_TILE_COLUMNS = 2048  # spatial columns per tile, in whole pathlets: narrower cost time, wider memory


@dataclass
class SkeletonClip:
    """One recorded clip: joint coordinates plus a validity mask.

    joints has shape (frames, actors, joints, dim); valid has shape
    (frames, actors, joints) and is False wherever a joint was not
    observed.  Coordinates at invalid entries are placeholders and must be
    ignored (or filled) before feature extraction.
    """

    joints: np.ndarray
    valid: np.ndarray
    label: int | None = None
    clip_id: str = ""

    def __post_init__(self):
        self.joints = check_array(self.joints, 4, "joints (frames, actors, joints, dim)")
        self.valid = np.asarray(self.valid, dtype=bool)
        F, A, N, d = self.joints.shape
        if N < 2:
            raise InputError(f"clip needs at least two joints, got {N}")
        if d not in (2, 3):
            raise InputError(f"coordinate dimension must be 2 or 3, got {d}")
        if self.valid.shape != (F, A, N):
            raise InputError(
                f"validity mask shape {self.valid.shape} does not match joints {(F, A, N)}"
            )

    @property
    def frame_count(self) -> int:
        return self.joints.shape[0]

    @property
    def actor_count(self) -> int:
        return self.joints.shape[1]

    @property
    def joint_count(self) -> int:
        return self.joints.shape[2]

    @property
    def dim(self) -> int:
        return self.joints.shape[3]


@dataclass(frozen=True)
class DatasetDescriptor:
    """Static facts about a skeleton layout.

    priority fixes the joint order used when enumerating pathlets (first
    entry = most important joint).  mirror maps each joint to its
    left/right counterpart (an involution); horizontal_axis is the
    coordinate negated by a horizontal flip.
    """

    joint_count: int
    dim: int
    priority: tuple[int, ...] = ()
    mirror: tuple[int, ...] = ()
    horizontal_axis: int = 0
    class_names: tuple[str, ...] = ()

    def __post_init__(self):
        N = check_number(self.joint_count, "joint_count", ge=2, le=_MAX_JOINTS)
        dim = check_number(self.dim, "dim", ge=2, le=3)
        priority = tuple(check_number(i, "priority") for i in self.priority) or tuple(range(N))
        mirror = tuple(check_number(i, "mirror") for i in self.mirror) or tuple(range(N))
        object.__setattr__(self, "priority", priority)
        object.__setattr__(self, "mirror", mirror)
        object.__setattr__(self, "class_names", tuple(self.class_names))
        if sorted(priority) != list(range(N)):
            raise InputError(f"priority must be a permutation of 0..{N - 1}")
        if sorted(mirror) != list(range(N)):
            raise InputError(f"mirror must be a permutation of 0..{N - 1}")
        if any(mirror[mirror[i]] != i for i in range(N)):
            raise InputError("mirror map must be an involution")
        check_number(self.horizontal_axis, "horizontal_axis", ge=0, lt=dim)

    def merged(self, bodies: int) -> "DatasetDescriptor":
        """Descriptor for ``bodies`` skeletons treated as one rigid body.

        Joint blocks are stacked; priority runs through body 0's joints
        first, and the mirror map acts within each body.  The merged
        skeleton, like any, has at most ``_MAX_JOINTS`` joints.
        """
        bodies = check_number(bodies, "bodies", ge=1, le=_MAX_JOINTS // self.joint_count)
        if bodies == 1:
            return self
        N = self.joint_count
        priority = tuple(b * N + p for b in range(bodies) for p in self.priority)
        mirror = tuple(b * N + self.mirror[i] for b in range(bodies) for i in range(N))
        return DatasetDescriptor(
            joint_count=N * bodies,
            dim=self.dim,
            priority=priority,
            mirror=mirror,
            horizontal_axis=self.horizontal_axis,
            class_names=self.class_names,
        )


@dataclass(frozen=True)
class FeatureConfig:
    """Knobs of the feature stack; defaults match the reference setup."""

    # The caps keep a layout (3 blocks per sampled frame) short and its widths small ints.
    sampled_frames: int = setting(10, ge=1, le=1000)
    pair_level: int = setting(2, ge=1, le=32)
    triple_level: int = setting(4, ge=1, le=32)
    joint_level: int = setting(5, ge=1, le=32)
    evolution_level: int = setting(2, ge=1, le=32)
    lead_lag_dim: int = setting(3, ge=1, le=1000)  # channels of each lead-lag lift
    dyadic: bool = False
    dyadic_depth: int = setting(3, ge=1, le=32)

    __post_init__ = check_settings


@dataclass(frozen=True)
class ExtractionOptions:
    """Dataset-pipeline knobs that ride alongside FeatureConfig."""

    bodies: int = setting(1, ge=1)  # most active actors, merged; merged() caps bodies x joints
    flip: bool = True  # flip, noise_copies and noise_sigma augment the train split
    noise_copies: int = setting(2, ge=0, le=100)  # extract holds 1 + flip + noise_copies clips
    noise_sigma: float = setting(0.01, ge=0.0, le=1.0)  # clips are normalized into [-1, 1]
    seed: int = setting(0, ge=0)  # augmentation noise seed

    __post_init__ = check_settings


@dataclass(frozen=True)
class Block:
    """One named span of a feature vector."""

    name: str
    offset: int
    width: int


@dataclass
class FeatureScaler:
    """Per-dimension max-abs scale learned on the training set."""

    scale: np.ndarray

    def __post_init__(self):
        self.scale = check_array(self.scale, 1, "scale")
        if not np.all(self.scale > 0):
            raise InputError("scale entries must be positive")


def normalize_clip(clip: SkeletonClip) -> SkeletonClip:
    """Center each actor and scale the whole clip uniformly into [-1, 1].

    Per actor, the mean position of all valid joints over all frames is
    subtracted; then every coordinate is divided by the single clip-level
    maximum absolute value among valid entries.  The uniform scale
    preserves the skeleton's aspect ratio and relative actor placement.
    An all-zero clip comes back unchanged (scale guard of 1).
    """
    joints = clip.joints.copy()
    valid = clip.valid
    for a in range(clip.actor_count):
        mask = valid[:, a, :]
        if not mask.any():
            continue
        center = joints[:, a][mask].mean(axis=0)
        joints[:, a] -= center
    joints /= float(np.max(np.abs(joints[valid]), initial=0.0)) or 1.0
    return replace(clip, joints=joints)


def horizontal_flip(clip: SkeletonClip, descriptor: DatasetDescriptor) -> SkeletonClip:
    """Mirror the clip: negate the horizontal coordinate, swap mirrored joints."""
    if clip.joint_count != descriptor.joint_count or clip.dim != descriptor.dim:
        raise InputError(
            f"clip layout ({clip.joint_count} joints, dim {clip.dim}) does not match "
            f"descriptor ({descriptor.joint_count} joints, dim {descriptor.dim})"
        )
    mirror = np.asarray(descriptor.mirror, dtype=np.intp)
    joints = clip.joints.copy()
    joints[..., descriptor.horizontal_axis] *= -1.0
    joints = joints[:, :, mirror, :]
    valid = clip.valid[:, :, mirror]
    return replace(clip, joints=joints, valid=valid)


def add_gaussian_noise(clip: SkeletonClip, sigma: float, seed) -> SkeletonClip:
    """Add zero-mean Gaussian noise to every valid coordinate, seeded."""
    sigma = check_number(sigma, "sigma", float, ge=0.0)
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, sigma, clip.joints.shape)
    joints = clip.joints + noise * clip.valid[..., None]
    return replace(clip, joints=joints)


def augment_clips(clip: SkeletonClip, descriptor: DatasetDescriptor, options: ExtractionOptions,
                  index: int) -> list[SkeletonClip]:
    """Training-set expansion: the clip, its flip if ``options.flip``, and
    ``options.noise_copies`` copies with noise of sigma ``options.noise_sigma``.

    Noisy copies are drawn from the unflipped clip; copy i of the clip at
    ``index`` in its split draws from the seed [[options.seed, index], i],
    so the whole list is reproducible.
    """
    out = [clip]
    if options.flip:
        out.append(horizontal_flip(clip, descriptor))
    for i in range(options.noise_copies):
        out.append(add_gaussian_noise(clip, options.noise_sigma, seed=[[options.seed, index], i]))
    return out


def enumerate_pathlets(joint_count: int, size: int, priority=None) -> list[tuple[int, ...]]:
    """All joint pairs or triples, ordered by a fixed joint priority.

    Tuples are internally ordered by priority rank and enumerated
    lexicographically in that rank, so each unordered set of joints yields
    exactly one ordered pathlet.
    """
    joint_count = check_number(joint_count, "joint_count", ge=2)
    size = check_number(size, "size", ge=2, le=3)
    if priority is None:
        order = tuple(range(joint_count))
    else:
        order = tuple(check_number(i, "priority") for i in priority)
        if sorted(order) != list(range(joint_count)):
            raise InputError(f"priority must be a permutation of 0..{joint_count - 1}")
    return list(itertools.combinations(order, size))


def _temporal_signatures(increments: np.ndarray, level: int, config: FeatureConfig) -> np.ndarray:
    """Signatures of B temporal paths, whole-interval or over dyadic windows.

    increments: channel-first (F-1, dim, B).  Returns the flat (B * w)
    vector, path by path, with w multiplied by 2**depth - 1 when dyadic
    windowing is on.  Window blocks are ordered as dyadic_windows yields
    them (coarse to fine).  Only the finest windows, which partition the
    segments, are folded; each coarser window is the Chen product of its
    two children, since every coarse split point is also a finer one.
    Callers keep no reference to ``increments``: it is freed once folded.
    """
    if not config.dyadic:
        return _horner_fold(increments, level).T.reshape(-1)
    segments, dim, _ = increments.shape
    windows = dyadic_windows(segments + 1, config.dyadic_depth)
    # windows[i] at depth j has its two children at 2i+1 and 2i+2, depth j+1
    first_finest = len(windows) // 2
    sigs = [None] * first_finest + [
        _horner_fold(increments[w.start:w.end], level) for w in windows[first_finest:]
    ]
    del increments
    for i in range(first_finest - 1, -1, -1):
        sigs[i] = _chen_product(sigs[2 * i + 1], sigs[2 * i + 2], dim, level)
    sigs = np.stack(sigs)  # drops the window list before the transposed copy
    return sigs.transpose(2, 0, 1).reshape(-1)


def temporal_joint_features(actor_joints, config: FeatureConfig) -> np.ndarray:
    """Per-joint motion signatures over all frames (time-augmented).

    actor_joints: (F, N, d).  Each joint's trajectory gets a [0, 1] time
    coordinate appended and is signed at ``joint_level``; blocks are
    concatenated joint by joint.  A single-frame clip yields zeros.
    """
    arr = _check_actor_array(actor_joints)
    F, N, d = arr.shape
    lifted = np.empty((F, d + 1, N))
    lifted[:, :d] = arr.transpose(0, 2, 1)
    lifted[:, d] = np.linspace(0.0, 1.0, F)[:, None]
    return _temporal_signatures(np.diff(lifted, axis=0), config.joint_level, config)


def temporal_spatial_features(spatial, config: FeatureConfig) -> np.ndarray:
    """Evolution signatures of every pair/triple signature dimension.

    spatial: (F, D) pair and triple signature columns, one row per frame
    (raw joints excluded).  Each scalar dimension's evolution is lifted by
    lead-lag to ``lead_lag_dim`` and signed at ``evolution_level``; blocks
    are concatenated dimension by dimension.
    """
    series = check_array(spatial, 2, "spatial block")
    return _temporal_signatures(_lead_lag_increments(series, config.lead_lag_dim),
                                config.evolution_level, config)


def _lead_lag_increments(series: np.ndarray, k: int) -> np.ndarray:
    """The channel-first (F-1, k, D) increments of the lead-lag lift of each
    column of the (F, D) ``series``, bit for bit, without the lift: channel j
    is channel 0 delayed by j, with series[0] where its zero padding ends."""
    F = series.shape[0]
    increments = np.zeros((F - 1, k, series.shape[1]))
    np.subtract(series[1:], series[:-1], out=increments[:, 0])
    for j in range(1, min(k, F)):
        increments[j - 1, j] = series[0]
        increments[j:, j] = increments[: F - 1 - j, 0]
    return increments


def feature_layout(config: FeatureConfig, descriptor: DatasetDescriptor) -> tuple[Block, ...]:
    """The block layout assemble_features will produce, from dimensions alone;
    InputError when its rows would be wider than ``_MAX_COLUMNS``."""
    N, d = descriptor.joint_count, descriptor.dim
    pair_w = math.comb(N, 2) * signature_dimension(d, config.pair_level)
    triple_w = math.comb(N, 3) * signature_dimension(d, config.triple_level)
    joint_w = N * signature_dimension(d + 1, config.joint_level)
    evo_w = (pair_w + triple_w) * signature_dimension(config.lead_lag_dim, config.evolution_level)
    if config.dyadic:
        factor = 2 ** config.dyadic_depth - 1
        joint_w *= factor
        evo_w *= factor
    widths = [("joints", N * d), ("pair_sig", pair_w), ("triple_sig", triple_w)] * config.sampled_frames
    widths += [("joint_motion_sig", joint_w), ("spatial_evolution_sig", evo_w)]
    check_number(sum(width for _, width in widths), "feature row columns", le=_MAX_COLUMNS)
    offsets = itertools.accumulate((width for _, width in widths), initial=0)
    return tuple(Block(name, offset, width) for (name, width), offset in zip(widths, offsets))


def assemble_features(actor_joints, config: FeatureConfig, descriptor: DatasetDescriptor) -> np.ndarray:
    """The 1-D float64 feature row of one actor's (frames, joints, dim) trajectory.

    Holds, in order: the three spatial blocks for each of the
    ``sampled_frames`` uniformly sampled frames, then the joint-motion
    block, then the spatial-evolution block.  ``feature_layout`` gives
    each block's offset and width.  The output width depends only on the
    configuration and descriptor, never on the frame count (dyadic
    windowing fixes its window count up front).  Pairs, then triples, are
    taken ``max(1, _TILE_COLUMNS // m)`` pathlets at a time, m being their
    signature width; each tile is signed for every frame in one batched
    call, and its evolution is signed from those rows, with the whole
    block's bits: the fold, the lead-lag increments and the Chen products
    work elementwise along the path axis.
    """
    frames = _check_actor_array(actor_joints, descriptor)
    F, N, d = frames.shape
    *_, motion, evolution = feature_layout(config, descriptor)
    row = np.empty(evolution.offset + evolution.width)
    sampled = uniform_sample(F, config.sampled_frames)
    spatial = row[:motion.offset].reshape(sampled.size, -1)  # row i: sampled frame i's blocks
    spatial[:, :N * d] = frames[sampled].reshape(sampled.size, N * d)
    pathlet_sigs = spatial[:, N * d:]
    row[motion.offset:evolution.offset] = temporal_joint_features(frames, config)
    blocks = row[evolution.offset:].reshape(pathlet_sigs.shape[1], -1)  # row c: column c's block
    c0 = 0
    for size, level in ((2, config.pair_level), (3, config.triple_level)):
        pathlets = np.array(enumerate_pathlets(N, size, descriptor.priority), dtype=np.intp)
        step = max(1, _TILE_COLUMNS // signature_dimension(d, level))
        for p0 in range(0, len(pathlets), step):
            sigs = path_signature_batch(frames[:, pathlets[p0:p0 + step]].reshape(-1, size, d),
                                        level).reshape(F, -1)
            tile = slice(c0, c0 + sigs.shape[1])
            pathlet_sigs[:, tile] = sigs[sampled]
            blocks[tile] = temporal_spatial_features(sigs, config).reshape(-1, blocks.shape[1])
            c0 = tile.stop
    return row


def fit_scaler(features: np.ndarray) -> FeatureScaler:
    """Per-dimension max-abs over training rows; all-zero dimensions get 1."""
    arr = np.asarray(features, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise InputError(f"scaler needs a non-empty (rows, dims) matrix, got shape {arr.shape}")
    scale, low = arr.max(axis=0), arr.min(axis=0)  # max |x| in two rows, no |arr| copy
    np.maximum(scale, np.negative(low, out=low), out=scale)
    scale[scale == 0.0] = 1.0
    return FeatureScaler(scale)


def apply_scaler(scaler: FeatureScaler, features: np.ndarray) -> np.ndarray:
    """Divide features (vector or matrix rows) element-wise by the scale."""
    arr = np.asarray(features, dtype=np.float64)
    if arr.shape[-1] != scaler.scale.size:
        raise InputError(
            f"features have {arr.shape[-1]} dimensions, scaler expects {scaler.scale.size}"
        )
    return arr / scaler.scale


def merge_actors(clip: SkeletonClip, actor_indices, bodies: int) -> SkeletonClip:
    """Stack up to ``bodies`` selected actors into one rigid multi-body actor.

    The result has one actor with bodies*N joints.  Slots without a
    selected actor stay zero-filled and invalid, so downstream gap filling
    zeroes them out.
    """
    bodies = check_number(bodies, "bodies", ge=1)
    indices = [check_number(a, "actor index", ge=0, lt=clip.actor_count)
               for a in list(actor_indices)[:bodies]]
    F, _, N, d = clip.joints.shape
    joints = np.zeros((F, 1, bodies * N, d))
    valid = np.zeros((F, 1, bodies * N), dtype=bool)
    for slot, a in enumerate(indices):
        joints[:, 0, slot * N:(slot + 1) * N] = clip.joints[:, a]
        valid[:, 0, slot * N:(slot + 1) * N] = clip.valid[:, a]
    return SkeletonClip(joints, valid, label=clip.label, clip_id=clip.clip_id)


def fill_clip(clip: SkeletonClip) -> SkeletonClip:
    """Interpolate every joint's gaps over time; the result is fully valid."""
    joints = clip.joints.copy()
    for a in range(clip.actor_count):
        for j in range(clip.joint_count):
            mask = clip.valid[:, a, j]
            if mask.all():
                continue
            joints[:, a, j, :] = fill_missing(clip.joints[:, a, j, :], mask)
    valid = np.ones_like(clip.valid)
    return replace(clip, joints=joints, valid=valid)


def _check_actor_array(actor_joints, descriptor: DatasetDescriptor | None = None) -> np.ndarray:
    arr = check_array(actor_joints, 3, "actor joints (frames, joints, dim)")
    N, d = arr.shape[1:]
    if descriptor is not None and (N != descriptor.joint_count or d != descriptor.dim):
        raise InputError(
            f"actor joints ({N} joints, dim {d}) do not match descriptor "
            f"({descriptor.joint_count} joints, dim {descriptor.dim})"
        )
    return arr
