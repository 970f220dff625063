"""The benchmark's workloads: seeded inputs, timed rounds, output checks.

Each workload is a closed loop with one client: ``round`` runs the same
fixed job on the same inputs, and the next round starts when the last one
ends.  Inputs come only from the seed.  Every synthetic clip is resampled
to ``FRAMES`` frames, because feature cost grows with clip length and the
seeded lengths (16..40 frames) would otherwise make each seed a different
amount of work.  Checks read the program's outputs after the timed region.

* ``sig_wide``: scalar ``path_signature`` on wide, deep single paths.
* ``pipeline``: ``features extract`` -> ``train`` -> ``eval`` through
  ``pathsig.cli.main``, then per-clip prediction with a loaded model.
* ``extract_dyadic``: ``features extract`` with dyadic windows, no
  augmentation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import math
import os
import re
import statistics
import struct
import time
from dataclasses import replace

import numpy as np

from pathsig import classifier, cli, signature, skeleton
from pathsig import io as pio
from pathsig.errors import FormatError, InputError
from pathsig.synth import make_action_dataset, write_dataset

FRAMES = 30
REL_TOL = 1e-10


def _rel_err(a, b) -> float:
    scale = float(np.max(np.abs(b))) or 1.0
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / scale


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _rss_mb() -> float:
    """Resident set size of this process now, from /proc/self/statm."""
    with open("/proc/self/statm", encoding="ascii") as f:
        resident_pages = int(f.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 1e6


def _cli(tracer, span_name: str, argv: list[str]) -> str:
    """Run one pathsig command in-process; returns what it printed."""
    out = stdio.StringIO()
    with _span(tracer, span_name) as rec, contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if rec is not None:
        rec["counts"] = {"rss_mb": _rss_mb()}
    if code != 0:
        raise RuntimeError(f"pathsig {' '.join(argv[:2])} exited with status {code}")
    return out.getvalue()


def _resample(clip, frames: int):
    """Linear resampling of a fully observed clip to ``frames`` frames."""
    F = clip.frame_count
    pos = np.linspace(0.0, F - 1.0, frames)
    i0 = np.minimum(pos.astype(np.intp), F - 2)
    w = (pos - i0)[:, None, None, None]
    joints = clip.joints[i0] * (1.0 - w) + clip.joints[i0 + 1] * w
    valid = np.ones((frames,) + clip.valid.shape[1:], dtype=bool)
    return replace(clip, joints=joints, valid=valid)


def _drop_entries(clips, seed: int, clip_share: float, entry_share: float):
    """Mark a seeded share of (frame, joint) entries missing in some clips.

    The first and last frames stay whole, so the frame count read back
    from a clip file is unchanged and every gap is interior.
    """
    rng = np.random.default_rng([seed, 7])
    out = []
    for clip in clips:
        if rng.random() < clip_share:
            keep = rng.random(clip.valid.shape) >= entry_share
            keep[0] = keep[-1] = True
            clip = replace(clip, valid=clip.valid & keep)
        out.append(clip)
    return out


def _action_clips(train: int, test: int, seed: int):
    train_clips, test_clips, descriptor = make_action_dataset(train, test, seed=seed)
    return ([_resample(c, FRAMES) for c in train_clips],
            [_resample(c, FRAMES) for c in test_clips], descriptor)


def _feat_header(path) -> tuple[int, int]:
    with open(path, "rb") as f:
        f.seek(8)
        return struct.unpack("<QQ", f.read(16))


def _feat_row(path, row: int) -> np.ndarray:
    rows, cols = _feat_header(path)
    with open(path, "rb") as f:
        f.seek(24 + row * cols * 8)
        return np.frombuffer(f.read(cols * 8), dtype="<f8")


def _feat_block(path, name: str) -> tuple[int, int]:
    """(offset, width) of the first footer block called ``name``."""
    rows, cols = _feat_header(path)
    with open(path, "rb") as f:
        f.seek(24 + rows * cols * 8)
        footer = f.read().decode("ascii")
    for line in footer.splitlines():
        block, offset, width = line.split()
        if block == name:
            return int(offset), int(width)
    raise KeyError(name)


def horner_cost(d: int, level: int, segments: int) -> tuple[int, int]:
    """Computed flops and bytes of ``path_signature``'s Horner loop.

    Per segment and level k: for j < k one add over d**j entries (three
    f64 streams) and one outer product d**j x d -> d**(j+1); then the
    level-k accumulate over d**k entries (three streams).  Bytes count
    each array read or written once, ignoring cache reuse.
    """
    flops = traffic = 0
    for k in range(1, level + 1):
        for j in range(1, k):
            flops += d ** j + d ** (j + 1)
            traffic += 8 * (4 * d ** j + d ** (j + 1))
        flops += d ** k
        traffic += 24 * d ** k
    return flops * segments, traffic * segments


def _count_paths(args, kwargs, result):
    return {"paths": int(np.shape(args[0])[0])}


def _count_signature(args, kwargs, result):
    L, d = np.shape(args[0])
    flops, traffic = horner_cost(d, int(args[1]), max(L - 1, 0))
    return {"flops": flops, "bytes": traffic}


def _count_forward(args, kwargs, result):
    return {"rows": 1 if np.ndim(args[1]) == 1 else int(np.shape(args[1])[0])}


def _count_train(args, kwargs, result):
    model, features = args[0], args[1]
    config = args[3] if len(args) > 3 else kwargs.get("config") or model.config
    rows = int(np.shape(features)[0])
    return {"batches": len(result) * math.ceil(rows / config.batch_size)}


def _count_feat_write(args, kwargs, result):
    rows, cols = np.shape(args[1])
    return {"bytes": 24 + rows * cols * 8}


def _count_feat_read(args, kwargs, result):
    return {"bytes": 24 + result[0].nbytes}


def _count_clip_read(args, kwargs, result):
    return {"bytes": result.joints.nbytes + result.valid.nbytes}


def install_wraps(tracer) -> None:
    """Wrap every traced function under the name its caller looks up.

    ``pathsig.skeleton`` calls the batch kernel and the two transforms;
    ``pathsig.cli`` and ``pathsig.classifier`` each imported the skeleton
    stages by name; ``pathsig.cli`` reaches I/O through the ``pathsig.io``
    module.  The benchmark's own calls go through ``pathsig.signature``,
    ``pathsig.skeleton`` and ``pathsig.classifier``.
    """
    wraps = [
        (signature, "path_signature", "signature.path_signature", _count_signature),
        (skeleton, "path_signature_batch", "signature.path_signature_batch", _count_paths),
        (skeleton, "fill_missing", "transforms.fill_missing", None),
        (skeleton, "dyadic_windows", "transforms.dyadic_windows", None),
        (skeleton, "temporal_joint_features", "skeleton.temporal_joint_features", None),
        (skeleton, "temporal_spatial_features", "skeleton.temporal_spatial_features", None),
        (skeleton, "apply_scaler", "skeleton.apply_scaler", None),
        (cli, "augment_clips", "skeleton.augment_clips", None),
        (cli, "fit_scaler", "skeleton.fit_scaler", None),
        (cli, "apply_scaler", "skeleton.apply_scaler", None),
        (cli, "train", "classifier.train", _count_train),
        (cli, "save_model", "classifier.save_model", None),
        (classifier, "extract_body_features", "classifier.extract_body_features", None),
        (pio, "read_clip_file", "io.read_clip_file", _count_clip_read),
        (pio, "write_feature_matrix", "io.write_feature_matrix", _count_feat_write),
        (pio, "read_feature_matrix", "io.read_feature_matrix", _count_feat_read),
    ]
    for module in (cli, classifier):
        wraps += [
            (module, "assemble_features", "skeleton.assemble_features", None),
            (module, "normalize_clip", "skeleton.normalize_clip", None),
            (module, "fill_clip", "skeleton.fill_clip", None),
            (module, "rank_actors", "classifier.rank_actors", None),
            (module, "forward", "classifier.forward", _count_forward),
            (module, "load_model", "classifier.load_model", None),
        ]
    for module, attr, name, count in wraps:
        tracer.wrap(module, attr, name, count)


class SigWide:
    """Scalar Horner kernel on wide and deep single paths.

    The d=60/level-4 shape is the acceptance gate's (13,179,660
    coefficients, level-4 block 103.7 MB, near the size of L3) with 16
    points instead of 100: every segment does the same work, so fewer
    segments keep a round short enough to repeat.
    """

    name = "sig_wide"
    SHAPES = ((60, 4, 16), (20, 5, 40), (8, 7, 20))  # (dim, level, points)

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, work_dir) -> None:
        rng = np.random.default_rng([self.seed, 11])
        self.paths = [rng.standard_normal((p, d)) for d, _, p in self.SHAPES]
        signature.path_signature(self.paths[-1][:3], 2)

    def round(self, tracer) -> dict:
        times, work, hashes = [], 0, {}
        for i, (path, (d, level, p)) in enumerate(zip(self.paths, self.SHAPES)):
            start = time.perf_counter()
            sig = signature.path_signature(path, level)
            times.append(time.perf_counter() - start)
            work += sig.data.size * (p - 1)
            hashes[f"path{i}.sig"] = hashlib.sha256(sig.data).hexdigest()
        round_s = sum(times)
        return {"round_s": round_s, "coeff_segments": work, "hashes": hashes,
                "attempted": len(times), "failed": 0}

    def named_metrics(self, rounds) -> dict:
        rate = statistics.median(r["coeff_segments"] / r["round_s"] for r in rounds)
        return {"sig_coeffs_per_s": (rate, "1/s")}

    def sizes(self) -> dict:
        out = {}
        for d, level, p in self.SHAPES:
            count = signature.signature_dimension(d, level)
            flops, traffic = horner_cost(d, level, p - 1)
            out[f"d{d}_n{level}_p{p}"] = {
                "coefficients": count,
                "signature_bytes": 8 * count,
                "top_level_block_bytes": 8 * d ** level,
                "flops_computed": flops,
                "bytes_computed": traffic,
            }
        return out

    def checks(self, rounds) -> list[tuple[str, bool, str]]:
        i = self.seed % len(self.paths)
        path, (d, level, p) = self.paths[i], self.SHAPES[i]
        whole = signature.path_signature(path, level)
        mid = p // 2
        joined = signature.chen_concat(signature.path_signature(path[:mid + 1], level),
                                       signature.path_signature(path[mid:], level))
        chen_err = _rel_err(joined.data, whole.data)
        inc_err = _rel_err(whole.level(1), path[-1] - path[0])
        digest = hashlib.sha256(whole.data).hexdigest()
        timed = digest == rounds[0]["hashes"][f"path{i}.sig"]
        return [
            (f"check path d={d} n={level} is the timed output", timed, "sha256 of coefficients"),
            (f"chen halves d={d} n={level}", chen_err <= REL_TOL, f"rel err {chen_err:.2e}"),
            (f"level 1 = increment d={d}", inc_err <= REL_TOL, f"rel err {inc_err:.2e}"),
        ]


class Pipeline:
    """The user's CLI path plus single-clip prediction with a loaded model."""

    name = "pipeline"
    TRAIN_CLIPS = 16  # x4 rows after flip and two noisy copies
    TEST_CLIPS = 8
    PREDICT_CLIPS = 100  # so predict_ms.p90 has 10 samples beyond it
    EPOCHS = 5
    GAP_CLIP_SHARE = 0.5
    GAP_ENTRY_SHARE = 0.1
    ACCURACY_FLOOR = 0.5  # over eval and predict clips; chance is 0.25
    WIDTH = 319_905

    def __init__(self, seed: int):
        self.seed = seed
        self.config = skeleton.FeatureConfig()

    def setup(self, work_dir) -> None:
        train, test, self.descriptor = _action_clips(
            self.TRAIN_CLIPS, self.TEST_CLIPS + self.PREDICT_CLIPS, self.seed)
        clips = _drop_entries(train + test, self.seed, self.GAP_CLIP_SHARE,
                              self.GAP_ENTRY_SHARE)
        train, test = clips[:len(train)], clips[len(train):]
        self.predict_clips = test[self.TEST_CLIPS:]
        self.manifest, self.descriptor_file = write_dataset(
            train, test[:self.TEST_CLIPS], self.descriptor, work_dir)
        self.prefix = os.path.join(work_dir, "feat")
        self.model_file = os.path.join(work_dir, "net.model")
        classifier.extract_body_features(self.predict_clips[0], 1, self.config,
                                         self.descriptor)

    def round(self, tracer) -> dict:
        p = self.prefix
        t0 = time.perf_counter()
        text = _cli(tracer, "cli.extract", [
            "features", "extract", "--manifest", self.manifest,
            "--descriptor", self.descriptor_file, "--output", p])
        t1 = time.perf_counter()
        _cli(tracer, "cli.train", [
            "train", "--features", f"{p}.train.feat", "--labels", f"{p}.train.labels",
            "--model", self.model_file, "--epochs", str(self.EPOCHS)])
        t2 = time.perf_counter()
        report = _cli(tracer, "cli.eval", [
            "eval", "--features", f"{p}.test.feat", "--labels", f"{p}.test.labels",
            "--model", self.model_file])
        t3 = time.perf_counter()
        model = classifier.load_model(self.model_file)
        scaler = pio.read_scaler(f"{p}.scaler.feat")
        latencies, predicted, failed = [], [], 0
        for clip in self.predict_clips:
            start = time.perf_counter()
            try:
                with _span(tracer, "bench.predict"):
                    x = classifier.extract_body_features(clip, 1, self.config,
                                                         self.descriptor)
                    probs = classifier.forward(model, skeleton.apply_scaler(scaler, x))
            except (InputError, FormatError):
                failed += 1
                continue
            latencies.append(time.perf_counter() - start)
            predicted.append(int(probs.argmax()) == clip.label)
        t4 = time.perf_counter()

        rows = re.search(r"train rows: (\d+), test rows: (\d+)", text)
        accuracy = re.search(r"overall accuracy: (\d+)/(\d+)", report)
        hashes = {name: _sha256(f"{p}{name}") for name in (
            ".train.feat", ".train.labels", ".test.feat", ".test.labels", ".scaler.feat")}
        hashes[".model"] = _sha256(self.model_file)
        return {
            "round_s": t4 - t0,
            "extract_s": t1 - t0, "train_s": t2 - t1, "eval_s": t3 - t2,
            "train_rows": int(rows.group(1)), "test_rows": int(rows.group(2)),
            "eval_correct": int(accuracy.group(1)), "eval_total": int(accuracy.group(2)),
            "predict_correct": sum(predicted), "predict_total": len(predicted),
            "latencies": latencies, "hashes": hashes,
            "attempted": 3 + len(self.predict_clips), "failed": failed,
        }

    def named_metrics(self, rounds) -> dict:
        med = statistics.median
        lat_ms = sorted(1e3 * v for r in rounds for v in r["latencies"])
        deciles = statistics.quantiles(lat_ms, n=10)
        return {
            "extract_rows_per_s": (med((r["train_rows"] + r["test_rows"]) / r["extract_s"]
                                       for r in rounds), "rows/s"),
            "train_rows_per_s": (med(r["train_rows"] * self.EPOCHS / r["train_s"]
                                     for r in rounds), "rows/s"),
            "eval_rows_per_s": (med(r["test_rows"] / r["eval_s"] for r in rounds), "rows/s"),
            "predict_ms.p50": (statistics.median(lat_ms), "ms"),
            "predict_ms.p90": (deciles[8], "ms"),
            "predict_samples": (len(lat_ms), "count"),
            "eval_accuracy": (med(r["eval_correct"] / r["eval_total"] for r in rounds), "share"),
            "predict_accuracy": (med(r["predict_correct"] / max(r["predict_total"], 1)
                                     for r in rounds), "share"),
        }

    def sizes(self) -> dict:
        train_rows = 4 * self.TRAIN_CLIPS
        return {
            "train_feat_bytes": 8 * train_rows * self.WIDTH,
            "test_feat_bytes": 8 * self.TEST_CLIPS * self.WIDTH,
            "w1_bytes": 8 * self.WIDTH * classifier.HIDDEN_UNITS,
            "gap_clip_share": self.GAP_CLIP_SHARE,
            "gap_entry_share": self.GAP_ENTRY_SHARE,
        }

    def checks(self, rounds) -> list[tuple[str, bool, str]]:
        _, cols = _feat_header(f"{self.prefix}.train.feat")
        worst = min((r["eval_correct"] + r["predict_correct"])
                    / (r["eval_total"] + r["predict_total"]) for r in rounds)
        return [
            ("feature width", cols == self.WIDTH, f"{cols} columns"),
            ("test accuracy floor", worst >= self.ACCURACY_FLOOR,
             f"{worst:.3f} >= {self.ACCURACY_FLOOR} over eval and predict clips"),
        ]


class ExtractDyadic:
    """``features extract`` with dyadic windows and no augmentation."""

    name = "extract_dyadic"
    CLIPS = 24
    WIDTH = 1_380_735

    def __init__(self, seed: int):
        self.seed = seed
        self.config = skeleton.FeatureConfig(dyadic=True)

    def setup(self, work_dir) -> None:
        train, _, self.descriptor = _action_clips(self.CLIPS, 0, self.seed)
        self.manifest, self.descriptor_file = write_dataset(train, [], self.descriptor,
                                                            work_dir)
        self.config_file = os.path.join(work_dir, "features.cfg")
        pio.write_feature_config(self.config, pio.ExtractionOptions(flip=False, noise_copies=0),
                                 self.config_file)
        self.prefix = os.path.join(work_dir, "feat")
        skeleton.assemble_features(train[0].joints[:, 0], self.config, self.descriptor)

    def round(self, tracer) -> dict:
        start = time.perf_counter()
        text = _cli(tracer, "cli.extract", [
            "features", "extract", "--manifest", self.manifest,
            "--descriptor", self.descriptor_file, "--config", self.config_file,
            "--output", self.prefix])
        round_s = time.perf_counter() - start
        rows = int(re.search(r"train rows: (\d+)", text).group(1))
        hashes = {name: _sha256(f"{self.prefix}{name}")
                  for name in (".train.feat", ".train.labels", ".scaler.feat")}
        return {"round_s": round_s, "rows": rows, "hashes": hashes,
                "attempted": 1, "failed": 0}

    def named_metrics(self, rounds) -> dict:
        rate = statistics.median(r["rows"] / r["round_s"] for r in rounds)
        return {"extract_rows_per_s": (rate, "rows/s")}

    def sizes(self) -> dict:
        return {"train_feat_bytes": 8 * self.CLIPS * self.WIDTH}

    def checks(self, rounds) -> list[tuple[str, bool, str]]:
        feat = f"{self.prefix}.train.feat"
        rows, cols = _feat_header(feat)
        out = [("feature width", cols == self.WIDTH, f"{cols} columns")]
        row, joint = self.seed % rows, self.seed % self.descriptor.joint_count
        values = _feat_row(feat, row) * _feat_row(f"{self.prefix}.scaler.feat", 0)
        offset, _ = _feat_block(feat, "joint_motion_sig")
        d, level = self.descriptor.dim + 1, self.config.joint_level
        m = signature.signature_dimension(d, level)
        windows = 2 ** self.config.dyadic_depth - 1
        base = offset + joint * windows * m
        sigs = [signature.TruncatedSignature(d, level, values[base + w * m:base + (w + 1) * m])
                for w in range(windows)]
        finest = sigs[2 ** (self.config.dyadic_depth - 1) - 1:]
        fold = finest[0]
        for sig in finest[1:]:
            fold = signature.chen_concat(fold, sig)
        err = _rel_err(fold.data, sigs[0].data)
        out.append((f"chen fold of finest windows, row {row} joint {joint}",
                    err <= REL_TOL, f"rel err {err:.2e}"))
        return out


WORKLOADS = {w.name: w for w in (SigWide, Pipeline, ExtractDyadic)}
