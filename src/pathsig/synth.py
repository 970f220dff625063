"""Seeded synthetic skeleton clips for tests and demos.

Four single-actor motion families with clearly different temporal
structure (sway, drift, shake, pulse), plus a small two-actor interaction
set for exercising the two-stage pipeline.  Every clip is generated from
a seed sequence derived from (dataset seed, split, clip index), so any
clip is reproducible in isolation and datasets are stable across runs.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import InputError
from .io import write_clip_file, write_descriptor, write_manifest, ManifestRecord
from .skeleton import DatasetDescriptor, SkeletonClip

__all__ = [
    "ACTION_CLASSES",
    "INTERACTION_CLASSES",
    "action_descriptor",
    "interaction_descriptor",
    "make_action_clip",
    "make_action_dataset",
    "make_interaction_clip",
    "make_interaction_dataset",
    "write_dataset",
]

ACTION_CLASSES = ("sway", "drift", "shake", "pulse")
INTERACTION_CLASSES = ("solo_sway", "solo_drift", "pair_approach", "pair_circle")


def _pairwise_mirror(joint_count: int) -> tuple[int, ...]:
    # joint 0 is its own mirror; the rest swap in consecutive pairs
    mirror = list(range(joint_count))
    for i in range(1, joint_count - 1, 2):
        mirror[i], mirror[i + 1] = mirror[i + 1], mirror[i]
    return tuple(mirror)


def _descriptor(joint_count: int, dim: int, class_names) -> DatasetDescriptor:
    return DatasetDescriptor(joint_count=joint_count, dim=dim,
                             mirror=_pairwise_mirror(joint_count), class_names=class_names)


def action_descriptor(joint_count: int = 15, dim: int = 2) -> DatasetDescriptor:
    return _descriptor(joint_count, dim, ACTION_CLASSES)


def interaction_descriptor(joint_count: int = 5, dim: int = 2) -> DatasetDescriptor:
    return _descriptor(joint_count, dim, INTERACTION_CLASSES)


def _base_skeleton(rng: np.random.Generator, joint_count: int, dim: int) -> np.ndarray:
    return rng.uniform(-0.5, 0.5, (joint_count, dim))


def _clip_skeleton(rng: np.random.Generator, joint_count: int, dim: int,
                   base: np.ndarray | None, jitter: float) -> np.ndarray:
    """Per-clip skeleton: a jittered copy of the dataset's canonical pose.

    Sharing one canonical pose keeps the spatial feature blocks informative
    rather than dominated by per-clip shape randomness; the jitter level
    controls how much nuisance variation clips carry.  Without a canonical
    pose the skeleton is drawn fresh.
    """
    if base is None:
        return _base_skeleton(rng, joint_count, dim)
    return base + rng.normal(0.0, jitter, base.shape)


def _motion(rng: np.random.Generator, class_id: int, base: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Trajectory (F, N, d) of one actor performing motion family class_id."""
    F = t.size
    N, d = base.shape
    out = np.broadcast_to(base, (F, N, d)).copy()
    phase = rng.uniform(0, 2 * np.pi, N)
    if class_id == 0:  # sway: one slow revolution per joint
        radius = rng.uniform(0.08, 0.18, N)
        ang = 2 * np.pi * t[:, None] + phase
        out[..., 0] += radius * np.cos(ang)
        out[..., 1] += radius * np.sin(ang)
    elif class_id == 1:  # drift: common translation with per-joint jitter
        theta = rng.uniform(0, 2 * np.pi)
        speed = rng.uniform(0.4, 0.7)
        direction = np.array([np.cos(theta), np.sin(theta)])
        jitter = rng.uniform(0.8, 1.2, N)
        out[..., 0] += speed * jitter * direction[0] * t[:, None]
        out[..., 1] += speed * jitter * direction[1] * t[:, None]
    elif class_id == 2:  # shake: fast horizontal oscillation
        freq = rng.uniform(3.0, 5.0)
        amp = rng.uniform(0.06, 0.12, N)
        wave = np.sin(2 * np.pi * freq * t[:, None] + phase)
        out[..., 0] += amp * wave
        out[..., 1] += 0.25 * amp * np.cos(2 * np.pi * freq * t[:, None] + phase)
    elif class_id == 3:  # pulse: the whole body breathes around its centroid
        depth = rng.uniform(0.3, 0.5)
        scale = 1.0 + depth * np.sin(2 * np.pi * t + rng.uniform(0, 2 * np.pi))
        centered = base - base.mean(axis=0)
        out = base.mean(axis=0) + centered[None, :, :] * scale[:, None, None]
        out = np.ascontiguousarray(out)
    else:
        raise InputError(f"unknown action class id {class_id}")
    return out


def make_action_clip(class_id: int, seed, joint_count: int = 15, dim: int = 2,
                     clip_id: str = "", base_skeleton: np.ndarray | None = None,
                     jitter: float = 0.1) -> SkeletonClip:
    """One single-actor clip of the given motion family, fully observed."""
    if dim != 2:
        raise InputError("synthetic actions are generated in 2 dimensions")
    rng = np.random.default_rng(seed)
    F = int(rng.integers(16, 41))
    t = np.linspace(0.0, 1.0, F)
    base = _clip_skeleton(rng, joint_count, dim, base_skeleton, jitter)
    traj = _motion(rng, class_id, base, t)
    traj += rng.normal(0.0, 0.01, traj.shape)
    joints = traj[:, None, :, :]
    valid = np.ones((F, 1, joint_count), dtype=bool)
    return SkeletonClip(joints, valid, label=class_id, clip_id=clip_id)


def _make_dataset(make_clip, descriptor, train_clips, test_clips, seed, split_ids):
    """(train, test, descriptor): every clip jitters one canonical pose derived
    from ``seed``; clip i of a split gets class i % C and the seed
    [seed, split id, i], so any prefix of a split is stable."""
    N, d = descriptor.joint_count, descriptor.dim
    canon = _base_skeleton(np.random.default_rng([seed, 9]), N, d)
    C = len(descriptor.class_names)
    train, test = ([make_clip(i % C, [seed, split_id, i], N, d, clip_id=f"{split}{i:04d}",
                              base_skeleton=canon) for i in range(count)]
                   for split, count, split_id in (("train", train_clips, split_ids[0]),
                                                  ("test", test_clips, split_ids[1])))
    return train, test, descriptor


def make_action_dataset(train_clips: int = 200, test_clips: int = 100,
                        joint_count: int = 15, dim: int = 2, seed: int = 0):
    """Balanced four-class action set; returns (train, test, descriptor)."""
    return _make_dataset(make_action_clip, action_descriptor(joint_count, dim),
                         train_clips, test_clips, seed, (0, 1))


def make_interaction_clip(class_id: int, seed, joint_count: int = 5, dim: int = 2,
                          clip_id: str = "", base_skeleton: np.ndarray | None = None,
                          jitter: float = 0.1) -> SkeletonClip:
    """A one- or two-actor clip: solo classes 0-1, pair classes 2-3."""
    if dim != 2:
        raise InputError("synthetic actions are generated in 2 dimensions")
    rng = np.random.default_rng(seed)
    F = int(rng.integers(16, 33))
    t = np.linspace(0.0, 1.0, F)
    base = _clip_skeleton(rng, joint_count, dim, base_skeleton, jitter)
    if class_id in (0, 1):  # solo sway / solo drift
        traj = _motion(rng, class_id, base, t)
        joints = traj[:, None, :, :]
    elif class_id == 2:  # pair approach: two actors walk toward each other
        other = _clip_skeleton(rng, joint_count, dim, base_skeleton, jitter)
        left = _motion(rng, 1, base - [0.8, 0.0], t)
        right = _motion(rng, 1, other + [0.8, 0.0], t)
        gap = rng.uniform(1.2, 1.6)
        left[..., 0] += gap * t[:, None] * 0.5
        right[..., 0] -= gap * t[:, None] * 0.5
        joints = np.stack([left, right], axis=1)
    elif class_id == 3:  # pair circle: two actors orbit a shared center
        offset = rng.uniform(0.6, 0.9)
        ang = 2 * np.pi * t + rng.uniform(0, 2 * np.pi)
        c0 = np.stack([offset * np.cos(ang), offset * np.sin(ang)], axis=1)
        c1 = -c0
        other = _clip_skeleton(rng, joint_count, dim, base_skeleton, jitter)
        a0 = _motion(rng, 0, base, t) + c0[:, None, :]
        a1 = _motion(rng, 0, other, t) + c1[:, None, :]
        joints = np.stack([a0, a1], axis=1)
    else:
        raise InputError(f"unknown interaction class id {class_id}")
    joints = joints + rng.normal(0.0, 0.01, joints.shape)
    valid = np.ones(joints.shape[:3], dtype=bool)
    return SkeletonClip(joints, valid, label=class_id, clip_id=clip_id)


def make_interaction_dataset(train_clips: int = 40, test_clips: int = 20,
                             joint_count: int = 5, dim: int = 2, seed: int = 0):
    """Balanced four-class interaction set; returns (train, test, descriptor)."""
    return _make_dataset(make_interaction_clip, interaction_descriptor(joint_count, dim),
                         train_clips, test_clips, seed, (2, 3))


def write_dataset(train, test, descriptor: DatasetDescriptor, out_dir) -> tuple[str, str]:
    """Write clips, a manifest, and a descriptor under ``out_dir``.

    Returns (manifest path, descriptor path).  Clip files land in
    ``out_dir/clips`` and the manifest references them relatively.
    """
    clips_dir = os.path.join(out_dir, "clips")
    os.makedirs(clips_dir, exist_ok=True)
    records = []
    for split, clips in (("train", train), ("test", test)):
        for clip in clips:
            name = f"{clip.clip_id or split}_{len(records):05d}.clip"
            clip_path = os.path.join(clips_dir, name)
            write_clip_file(clip, clip_path)
            records.append(
                ManifestRecord(clip_path, descriptor.class_names[clip.label], split,
                               clip.actor_count)
            )
    manifest_path = os.path.join(out_dir, "manifest.txt")
    descriptor_path = os.path.join(out_dir, "descriptor.txt")
    write_manifest(records, manifest_path)
    write_descriptor(descriptor, descriptor_path)
    return manifest_path, descriptor_path
