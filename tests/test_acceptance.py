"""Acceptance gates.

One test per numbered criterion; `pytest -v` prints one pass/fail line
for each.  Every tolerance and budget is pinned here as a constant so
the gates cannot drift.
"""

import subprocess
import sys
import time

import numpy as np

from pathsig import (
    DatasetDescriptor,
    FeatureConfig,
    TrainConfig,
    assemble_features,
    apply_scaler,
    chen_concat,
    dyadic_windows,
    feature_layout,
    fill_clip,
    fit_scaler,
    forward,
    gradient_check,
    init_model,
    normalize_clip,
    path_signature,
    signature_bruteforce,
    train,
)
from pathsig.synth import make_action_dataset

COEFF_TOL = 1e-10          # algebraic identities, per coefficient
ORACLE_TOL = 1e-3          # numeric-integration oracle, relative
GRAD_TOL = 1e-4            # finite-difference gradient check
ACCURACY_FLOOR = 0.95      # end-to-end test accuracy
CHEN_BUDGET_S = 10.0
ORACLE_BUDGET_S = 60.0
BENCH_BUDGET_S = 60.0
END_TO_END_BUDGET_S = 600.0

DESC15 = DatasetDescriptor(joint_count=15, dim=2)


def close_guarded(a, b, tol):
    """|a - b| <= tol * max(1, |a|) entrywise, the pinned comparison."""
    a = np.asarray(a)
    b = np.asarray(b)
    return np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(a)))


def test_criterion_01_pair_signature_block_widths():
    """Pair-signature widths at levels 1..4 (15 joints, 10 frames)."""
    expected = {1: 2100, 2: 6300, 3: 14700, 4: 31500}
    for level, width in expected.items():
        layout = feature_layout(FeatureConfig(pair_level=level), DESC15)
        got = sum(b.width for b in layout if b.name == "pair_sig")
        assert got == width, f"pair level {level}: {got} != {width}"


def test_criterion_02_triple_signature_block_widths():
    """Triple-signature widths at levels 1..6 (15 joints, 10 frames)."""
    expected = {1: 9100, 2: 27300, 3: 63700, 4: 136500, 5: 282100, 6: 573300}
    for level, width in expected.items():
        layout = feature_layout(FeatureConfig(triple_level=level), DESC15)
        got = sum(b.width for b in layout if b.name == "triple_sig")
        assert got == width, f"triple level {level}: {got} != {width}"


def test_criterion_03_chen_concatenation_property():
    """200 random splits: concatenated halves equal the whole, 1e-10."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for case in range(200):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        length = int(rng.integers(3, 21))
        path = rng.standard_normal((length, d))
        cut = int(rng.integers(1, length - 1))
        whole = path_signature(path, n)
        halves = chen_concat(path_signature(path[: cut + 1], n),
                             path_signature(path[cut:], n))
        assert close_guarded(whole.data, halves.data, COEFF_TOL), f"case {case}"
    assert time.perf_counter() - start < CHEN_BUDGET_S


def test_criterion_04_shuffle_identity():
    """100 random 2-D paths: S^1 * S^2 = S^12 + S^21, 1e-10."""
    rng = np.random.default_rng(16)
    for case in range(100):
        path = rng.standard_normal((int(rng.integers(2, 20)), 2))
        sig = path_signature(path, 2)
        s1, s2 = sig.level(1)
        lhs = s1 * s2
        rhs = sig.coefficient((0, 1)) + sig.coefficient((1, 0))
        assert abs(lhs - rhs) <= COEFF_TOL * max(1.0, abs(lhs)), f"case {case}"


def test_criterion_05_invariance_suites():
    """Reparameterization, reversal, translation: 100 paths each, 1e-10."""
    rng = np.random.default_rng(5)
    for case in range(100):
        d = int(rng.integers(1, 4))
        path = rng.standard_normal((int(rng.integers(3, 15)), d))
        sig = path_signature(path, 3)

        i = int(rng.integers(0, len(path) - 1))
        t = rng.uniform(0.0, 1.0)
        inserted = np.insert(path, i + 1, (1 - t) * path[i] + t * path[i + 1],
                             axis=0)
        assert close_guarded(sig.data, path_signature(inserted, 3).data,
                             COEFF_TOL), f"reparameterization, case {case}"

        undone = chen_concat(sig, path_signature(path[::-1], 3))
        assert np.all(np.abs(undone.data) <= COEFF_TOL), f"reversal, case {case}"

        shifted = path_signature(path + rng.standard_normal(d) * 50.0, 3)
        assert close_guarded(sig.data, shifted.data, COEFF_TOL), \
            f"translation, case {case}"


def test_criterion_06_integration_oracle_agreement():
    """20 random paths: independent nested-sum oracle within 1e-3."""
    start = time.perf_counter()
    rng = np.random.default_rng(6)
    for case in range(20):
        d = int(rng.integers(1, 4))
        length = int(rng.integers(2, 9))
        path = rng.standard_normal((length, d))
        fast = path_signature(path, 3)
        slow = signature_bruteforce(path, 3, subdivisions=10_000)
        assert close_guarded(fast.data, slow.data, ORACLE_TOL), f"case {case}"
    assert time.perf_counter() - start < ORACLE_BUDGET_S


def test_criterion_07_dyadic_window_consistency():
    """Depths 1..3, 50 paths: chen-folded windows equal the whole, 1e-10."""
    rng = np.random.default_rng(7)
    for case in range(50):
        length = int(rng.integers(9, 40))
        d = int(rng.integers(1, 4))
        path = rng.standard_normal((length, d))
        whole = path_signature(path, 3)
        for depth in (1, 2, 3):
            windows = dyadic_windows(length, depth)
            for level in range(depth):
                row = [w for w in windows if w.level == level]
                folded = path_signature(path[row[0].start: row[0].end + 1], 3)
                for w in row[1:]:
                    folded = chen_concat(
                        folded, path_signature(path[w.start: w.end + 1], 3))
                assert close_guarded(whole.data, folded.data, COEFF_TOL), \
                    f"case {case}, depth {depth}, level {level}"


def test_criterion_08_benchmark_scale():
    """CLI bench at dimension 60, level 4: 13,179,660 coefficients, < 60 s."""
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "pathsig", "bench", "--dim", "60",
         "--level", "4", "--points", "100"],
        capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - start
    assert result.returncode == 0, result.stderr
    assert "13,179,660" in result.stdout
    assert elapsed < BENCH_BUDGET_S, f"bench took {elapsed:.1f}s"


def test_criterion_09_gradient_check():
    """20 random small models: analytic vs central differences < 1e-4."""
    rng = np.random.default_rng(9)
    worst = 0.0
    for i in range(20):
        dim = int(rng.integers(3, 10))
        classes = int(rng.integers(2, 5))
        drop = float(rng.choice([0.0, 0.5, 0.95]))
        model = init_model(dim, classes, TrainConfig(drop_rate=drop, seed=i),
                           hidden_dim=int(rng.integers(2, 8)))
        x = rng.standard_normal(dim)
        worst = max(worst, gradient_check(model, x, int(rng.integers(classes))))
    assert worst < GRAD_TOL, f"worst relative error {worst:.3e}"


def test_criterion_10_end_to_end_synthetic_classification():
    """Seeded 4-class skeleton set (200 train / 100 test, 15 joints, 2-D):
    default feature stack + seeded training reaches >= 95% test accuracy,
    bit-deterministically, inside 10 minutes."""
    start = time.perf_counter()
    train_clips, test_clips, _ = make_action_dataset(
        train_clips=200, test_clips=100, joint_count=15, dim=2, seed=0)
    config = FeatureConfig()  # all defaults

    def rows(clips):
        feats = [
            assemble_features(fill_clip(normalize_clip(c)).joints[:, 0],
                              config, DESC15)
            for c in clips
        ]
        labels = np.array([c.label for c in clips], dtype=np.int64)
        return np.array(feats), labels

    x_train, y_train = rows(train_clips)
    x_test, y_test = rows(test_clips)
    scaler = fit_scaler(x_train)
    x_train = apply_scaler(scaler, x_train)
    x_test = apply_scaler(scaler, x_test)
    assert x_train.shape[1] == 319_905  # default stack dimension

    train_cfg = TrainConfig(max_epochs=25, seed=0)  # well within 200 epochs

    def fit_once():
        model = init_model(x_train.shape[1], 4, train_cfg)
        train(model, x_train, y_train)
        return model

    model_a = fit_once()
    accuracy = float((forward(model_a, x_test).argmax(axis=1) == y_test).mean())
    assert accuracy >= ACCURACY_FLOOR, f"test accuracy {accuracy:.3f}"

    model_b = fit_once()  # same seed: same model, bit for bit
    assert np.array_equal(model_a.w1, model_b.w1)
    assert np.array_equal(model_a.b1, model_b.b1)
    assert np.array_equal(model_a.w2, model_b.w2)
    assert np.array_equal(model_a.b2, model_b.b2)

    elapsed = time.perf_counter() - start
    assert elapsed < END_TO_END_BUDGET_S, f"end-to-end took {elapsed:.0f}s"


def test_criterion_11_external_dataset_ingestion_surface(tmp_path):
    """Benchmark-dataset accuracies are out of scope at this scale; the
    ingestion formats must still cover their shapes (many joints, 3-D
    coordinates, two actors, long clips)."""
    from pathsig import SkeletonClip
    from pathsig.io import read_clip_file, write_clip_file

    desc = DatasetDescriptor(joint_count=25, dim=3,
                             class_names=tuple(f"c{i}" for i in range(60)))
    rng = np.random.default_rng(11)
    clip = SkeletonClip(rng.standard_normal((300, 2, 25, 3)),
                        np.ones((300, 2, 25), dtype=bool))
    path = tmp_path / "large.clip"
    write_clip_file(clip, path)
    back = read_clip_file(path, desc, min_actors=2)
    assert back.frame_count == 300
    assert back.actor_count == 2
    assert back.joint_count == 25
    assert back.dim == 3
    # the two-body feature layout for this shape is well-defined
    width = sum(b.width for b in feature_layout(FeatureConfig(), desc.merged(2)))
    assert width > 0
