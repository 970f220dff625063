"""Skeleton feature stack: block dimensions, invariances, preprocessing."""

import tracemalloc

import numpy as np
import pytest

from pathsig import (
    DatasetDescriptor,
    ExtractionOptions,
    FeatureConfig,
    FeatureScaler,
    InputError,
    SkeletonClip,
    add_gaussian_noise,
    apply_scaler,
    assemble_features,
    augment_clips,
    dyadic_windows,
    enumerate_pathlets,
    feature_layout,
    fill_clip,
    fill_missing,
    fit_scaler,
    horizontal_flip,
    merge_actors,
    normalize_clip,
    path_signature,
    path_signature_batch,
    signature_dimension,
    temporal_joint_features,
    temporal_spatial_features,
)
from pathsig import skeleton
from pathsig.transforms import uniform_sample

DESC15 = DatasetDescriptor(joint_count=15, dim=2)
DESC5 = DatasetDescriptor(joint_count=5, dim=2)


def random_clip(rng, frames, actors, joints, dim=2, missing=0.0):
    coords = rng.standard_normal((frames, actors, joints, dim))
    valid = rng.random((frames, actors, joints)) >= missing
    if missing:
        valid[0] = True  # keep at least one valid frame per joint
    return SkeletonClip(coords, valid)


def block_total(layout, name):
    return sum(b.width for b in layout if b.name == name)


# ----------------------------------------------------------- block dimensions


def test_settings_default_to_the_reference_values():
    assert FeatureConfig() == FeatureConfig(sampled_frames=10, pair_level=2, triple_level=4,
                                            joint_level=5, evolution_level=2, lead_lag_dim=3,
                                            dyadic=False, dyadic_depth=3)
    assert ExtractionOptions() == ExtractionOptions(bodies=1, flip=True, noise_copies=2,
                                                    noise_sigma=0.01, seed=0)


def test_clip_counts_follow_the_joint_axes():
    clip = SkeletonClip(np.zeros((5, 3, 4, 2)), np.ones((5, 3, 4), dtype=bool))
    assert (clip.frame_count, clip.actor_count, clip.joint_count, clip.dim) == (5, 3, 4, 2)


def test_pair_block_widths_levels_1_to_4():
    # C(15,2) = 105 pairs, 10 sampled frames
    expected = {1: 2100, 2: 6300, 3: 14700, 4: 31500}
    for level, width in expected.items():
        layout = feature_layout(FeatureConfig(pair_level=level), DESC15)
        assert block_total(layout, "pair_sig") == width


def test_triple_block_widths_levels_1_to_6():
    # C(15,3) = 455 triples, 10 sampled frames
    expected = {1: 9100, 2: 27300, 3: 63700, 4: 136500, 5: 282100, 6: 573300}
    for level, width in expected.items():
        layout = feature_layout(FeatureConfig(triple_level=level), DESC15)
        assert block_total(layout, "triple_sig") == width


def test_default_block_widths_and_total():
    layout = feature_layout(FeatureConfig(), DESC15)
    assert block_total(layout, "joints") == 300
    assert block_total(layout, "pair_sig") == 6300
    assert block_total(layout, "triple_sig") == 136500
    assert block_total(layout, "joint_motion_sig") == 5445
    assert block_total(layout, "spatial_evolution_sig") == 171360
    assert sum(b.width for b in layout) == 319905


def test_dyadic_multiplies_temporal_blocks():
    layout = feature_layout(FeatureConfig(dyadic=True, dyadic_depth=3), DESC15)
    assert block_total(layout, "joint_motion_sig") == 7 * 5445
    assert block_total(layout, "spatial_evolution_sig") == 7 * 171360
    assert block_total(layout, "pair_sig") == 6300  # spatial blocks unchanged
    assert sum(b.width for b in layout) == 1380735


def test_layout_is_contiguous():
    layout = feature_layout(FeatureConfig(), DESC5)
    offset = 0
    for block in layout:
        assert block.offset == offset
        offset += block.width


def test_assemble_matches_layout():
    rng = np.random.default_rng(0)
    config = FeatureConfig(sampled_frames=4, triple_level=2, joint_level=3)
    joints = rng.standard_normal((12, 5, 2))
    vec = assemble_features(joints, config, DESC5)
    layout = feature_layout(config, DESC5)
    assert vec.shape == (sum(b.width for b in layout),) and vec.dtype == np.float64
    assert np.all(np.isfinite(vec))


def test_feature_dimension_independent_of_frame_count():
    rng = np.random.default_rng(1)
    config = FeatureConfig(sampled_frames=4, triple_level=2, joint_level=2)
    dims = {
        assemble_features(rng.standard_normal((F, 5, 2)), config, DESC5).size
        for F in (3, 8, 21, 40)
    }
    assert len(dims) == 1


# -------------------------------------------------------------------- pathlets


def test_pathlet_counts():
    assert len(enumerate_pathlets(15, 2)) == 105
    assert len(enumerate_pathlets(15, 3)) == 455
    assert len(enumerate_pathlets(4, 2)) == 6


def test_pathlets_follow_priority_order():
    # priority reverses the joints: pathlets enumerate ranks, map to ids
    pathlets = enumerate_pathlets(3, 2, priority=(2, 1, 0))
    assert pathlets == [(2, 1), (2, 0), (1, 0)]
    default = enumerate_pathlets(3, 2)
    assert default == [(0, 1), (0, 2), (1, 2)]


def test_pathlets_validate():
    with pytest.raises(InputError):
        enumerate_pathlets(3, 4)
    with pytest.raises(InputError):
        enumerate_pathlets(3, 2, priority=(0, 0, 1))
    assert enumerate_pathlets(2, 3) == []  # C(2,3) = 0, not an error


# --------------------------------------------------------- spatial correctness


def test_spatial_features_match_direct_signatures():
    rng = np.random.default_rng(2)
    desc3 = DatasetDescriptor(joint_count=3, dim=2)
    config = FeatureConfig(sampled_frames=1, pair_level=2, triple_level=2)
    frame = rng.standard_normal((3, 2))
    features = assemble_features(frame[None], config, desc3)
    spatial = feature_layout(config, desc3)[:3]  # joints, pair_sig, triple_sig of the one frame
    assert [b.name for b in spatial] == ["joints", "pair_sig", "triple_sig"]
    vec = features[:spatial[-1].offset + spatial[-1].width]
    pair_dim = signature_dimension(2, 2)
    expect = [frame.reshape(-1)]  # leading block is the raw joint coordinates
    for pathlet in enumerate_pathlets(3, 2):
        expect.append(path_signature(frame[list(pathlet)], 2).data)
    for pathlet in enumerate_pathlets(3, 3):
        expect.append(path_signature(frame[list(pathlet)], 2).data)
    assert vec.shape == (6 + 3 * pair_dim + 1 * pair_dim,)
    assert np.allclose(vec, np.concatenate(expect), rtol=1e-12, atol=1e-12)


def test_spatial_blocks_translation_invariant_joints_not():
    rng = np.random.default_rng(3)
    config = FeatureConfig(sampled_frames=3, triple_level=2, joint_level=2)
    joints = rng.standard_normal((6, 5, 2))
    a = assemble_features(joints, config, DESC5)
    b = assemble_features(joints + np.array([10.0, -4.0]), config, DESC5)
    layout = feature_layout(config, DESC5)
    for name in ("pair_sig", "triple_sig"):
        for blk in (blk for blk in layout if blk.name == name):
            sl = slice(blk.offset, blk.offset + blk.width)
            assert np.allclose(a[sl], b[sl], rtol=0, atol=1e-10)
    joint_block = next(blk for blk in layout if blk.name == "joints")
    sl = slice(joint_block.offset, joint_block.offset + joint_block.width)
    assert not np.allclose(a[sl], b[sl], atol=1e-3)


def test_temporal_joint_block_invariant_under_midpoint_refinement():
    # doubling the frame rate with spatial midpoints keeps the same
    # space-time polyline, so the time-augmented signatures cannot move
    rng = np.random.default_rng(4)
    config = FeatureConfig(joint_level=3)
    joints = rng.standard_normal((6, 4, 2))
    mids = 0.5 * (joints[:-1] + joints[1:])
    refined = np.empty((11, 4, 2))
    refined[0::2] = joints
    refined[1::2] = mids
    a = temporal_joint_features(joints, config)
    b = temporal_joint_features(refined, config)
    assert np.allclose(a, b, rtol=0, atol=1e-10)


# ----------------------------------------------- temporal blocks vs reference


def reference_windowed(paths, level, config):
    """The lifted-path, per-window batch signatures the temporal blocks replaced."""
    if not config.dyadic:
        return path_signature_batch(paths, level).reshape(-1)
    windows = dyadic_windows(paths.shape[1], config.dyadic_depth)
    parts = [path_signature_batch(paths[:, w.start:w.end + 1, :], level) for w in windows]
    return np.concatenate(parts, axis=1).reshape(-1)


def reference_joint_block(frames, config):
    F, N, d = frames.shape
    t = np.linspace(0.0, 1.0, F) if F > 1 else np.zeros(1)
    aug = np.concatenate([frames.transpose(1, 0, 2), np.broadcast_to(t, (N, F))[..., None]],
                         axis=2)
    return reference_windowed(aug, config.joint_level, config)


def reference_evolution_block(spatial_psf, config):
    F = spatial_psf.shape[0]
    k = config.lead_lag_dim
    lifted = np.zeros((spatial_psf.shape[1], F, k))
    for j in range(min(k, F)):  # a delay of F or more steps stays all zeros
        lifted[:, j:, j] = spatial_psf.T[:, : F - j]
    return reference_windowed(lifted, config.evolution_level, config)


def assert_matches_reference(got, expect, dyadic, what):
    if dyadic:  # coarse windows are Chen products: equal up to rounding
        assert np.all(np.abs(got - expect) <= 1e-12 * np.maximum(1.0, np.abs(expect))), what
    else:  # the same increments folded in the same order
        assert np.array_equal(got, expect), what


def test_temporal_blocks_match_per_window_reference():
    rng = np.random.default_rng(61)
    for dim in (2, 3):
        for depth in (1, 2, 3):
            for F in (2 ** (depth - 1) + 1, 17, 30, 40):
                frames = rng.standard_normal((F, 4, dim))
                psf = rng.standard_normal((F, 5))
                for level in range(1, 6):
                    for dyadic in (False, True):
                        config = FeatureConfig(joint_level=level, evolution_level=level,
                                               lead_lag_dim=dim, dyadic=dyadic,
                                               dyadic_depth=depth)
                        what = (dim, depth, F, level, dyadic)
                        assert_matches_reference(temporal_joint_features(frames, config),
                                                 reference_joint_block(frames, config),
                                                 dyadic, what)
                        got = temporal_spatial_features(psf, config)
                        assert_matches_reference(got, reference_evolution_block(psf, config),
                                                 dyadic, what)


def test_evolution_block_delays_past_the_clip_are_zero_channels():
    rng = np.random.default_rng(64)
    for F in (1, 2, 3, 5, 27):
        psf = rng.standard_normal((F, 6))
        for k in (F, F + 1, F + 2, F + 5):
            for dyadic in (False, True)[: 1 + (F >= 3)]:
                config = FeatureConfig(evolution_level=2, lead_lag_dim=k, dyadic=dyadic,
                                       dyadic_depth=2)
                got = temporal_spatial_features(psf, config)
                assert_matches_reference(got, reference_evolution_block(psf, config), dyadic,
                                         (F, k, dyadic))


@pytest.mark.parametrize("frame_count, dyadic, most", [(30, True, 1.5), (30, False, 2.5),
                                                       (120, False, 6)])
def test_feature_row_peak_memory_is_a_few_rows(frame_count, dyadic, most):
    """At the benchmark's clip shape the evolution increments are the only
    lead-lag array, and they and the window list are freed once folded;
    the row is allocated once and filled one pathlet tile at a time, so a
    longer clip adds only to a tile's working set."""
    frames = np.random.default_rng(65).standard_normal((frame_count, 15, 2))
    config = FeatureConfig(dyadic=dyadic)
    assemble_features(frames, config, DESC15)  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        row = assemble_features(frames, config, DESC15)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < most * row.nbytes, peak / row.nbytes


def concatenated_row(frames, config, descriptor):
    """The row as one concatenation of whole blocks, as it was built before tiling."""
    F, N, d = frames.shape
    blocks = [frames.reshape(F, N * d)]
    for size, level in ((2, config.pair_level), (3, config.triple_level)):
        pathlets = enumerate_pathlets(N, size, descriptor.priority)
        if pathlets:  # each pathlet size signed for every frame in one batched call
            paths = frames[:, np.array(pathlets, dtype=np.intp)].reshape(-1, size, d)
            blocks.append(path_signature_batch(paths, level).reshape(F, -1))
    spatial = np.concatenate(blocks, axis=1)
    return np.concatenate([spatial[i] for i in uniform_sample(F, config.sampled_frames)] + [
        temporal_joint_features(frames, config),
        temporal_spatial_features(spatial[:, N * d:], config),
    ])


@pytest.mark.parametrize("tile", [1, 2048])
def test_each_batched_call_signs_one_tile_of_pathlets(monkeypatch, tile):
    monkeypatch.setattr(skeleton, "_TILE_COLUMNS", tile)
    calls = []

    def recording(paths, level):
        calls.append((len(paths) // 30, level))
        return path_signature_batch(paths, level)

    monkeypatch.setattr(skeleton, "path_signature_batch", recording)
    frames = np.random.default_rng(67).standard_normal((30, 15, 2))
    assemble_features(frames, FeatureConfig(), DESC15)
    assert sum(count for count, level in calls) == 105 + 455  # every pair and triple once
    for count, level in calls:
        assert count <= max(1, tile // signature_dimension(2, level)), calls


TILED_DESCRIPTORS = [DESC5, DatasetDescriptor(5, 2, priority=(2, 0, 4, 1, 3)).merged(2),
                     DatasetDescriptor(2, 3)]  # the last has no triples


@pytest.mark.parametrize("tile", [1, 7, 11])
def test_tiled_row_matches_the_concatenated_row(monkeypatch, tile):
    monkeypatch.setattr(skeleton, "_TILE_COLUMNS", tile)
    rng = np.random.default_rng(66)
    for desc in TILED_DESCRIPTORS:
        columns = sum(b.width for b in feature_layout(FeatureConfig(sampled_frames=1), desc)[1:3])
        assert tile < columns and columns % 11  # several tiles, a short last one at 11
        for F in (1, 2, 30):
            frames = rng.standard_normal((F, desc.joint_count, desc.dim))
            for config in (FeatureConfig(), FeatureConfig(dyadic=True),
                           FeatureConfig(dyadic=True, dyadic_depth=1, sampled_frames=3)):
                try:
                    expect = concatenated_row(frames, config, desc)
                except InputError:  # a clip too short for its dyadic windows
                    with pytest.raises(InputError):
                        assemble_features(frames, config, desc)
                    continue
                got = assemble_features(frames, config, desc)
                assert got.tobytes() == expect.tobytes(), (desc, F, config)


def test_temporal_blocks_single_frame_and_short_dyadic_clip():
    frames = np.random.default_rng(62).standard_normal((1, 5, 2))
    config = FeatureConfig(joint_level=3)
    block = temporal_joint_features(frames, config)
    assert block.shape == (5 * signature_dimension(3, 3),) and not block.any()
    assert np.array_equal(block, reference_joint_block(frames, config))
    short = np.zeros((4, 5, 2))  # 3 segments cannot fill 4 windows at depth 3
    with pytest.raises(InputError, match="too short for depth 3"):
        temporal_joint_features(short, FeatureConfig(dyadic=True, dyadic_depth=3))
    with pytest.raises(InputError, match="too short for depth 3"):
        temporal_spatial_features(np.zeros((4, 40)), FeatureConfig(dyadic=True, dyadic_depth=3))


@pytest.mark.parametrize("dyadic", [False, True])
def test_temporal_blocks_reject_non_finite_input(dyadic):
    config = FeatureConfig(joint_level=2, dyadic=dyadic)
    rng = np.random.default_rng(63)
    frames = rng.standard_normal((12, 5, 2))
    bad = frames.copy()
    bad[6] = np.nan
    with pytest.raises(InputError, match="non-finite"):
        temporal_joint_features(bad, config)
    psf = rng.standard_normal((12, 40))
    psf[3, 7] = np.inf
    with pytest.raises(InputError, match="non-finite"):
        temporal_spatial_features(psf, config)


@pytest.mark.parametrize("dyadic", [False, True])
def test_temporal_spatial_features_rejects_an_empty_block(dyadic):
    for shape in ((5, 0), (0, 40)):
        with pytest.raises(InputError, match="non-empty"):
            temporal_spatial_features(np.zeros(shape), FeatureConfig(dyadic=dyadic))


# ----------------------------------------------------------------- preprocess


def test_normalize_centers_and_scales():
    rng = np.random.default_rng(5)
    clip = random_clip(rng, 7, 2, 5)
    out = normalize_clip(clip)
    for a in range(2):
        mask = out.valid[:, a, :]
        center = out.joints[:, a][mask].mean(axis=0)
        assert np.allclose(center, 0.0, atol=1e-12)
    assert np.max(np.abs(out.joints[out.valid])) == pytest.approx(1.0)


def test_normalize_preserves_shape_ratios():
    # uniform scale: distances within a frame shrink by one common factor
    rng = np.random.default_rng(6)
    clip = random_clip(rng, 4, 1, 5)
    out = normalize_clip(clip)
    d_in = np.linalg.norm(clip.joints[0, 0, 0] - clip.joints[0, 0, 1])
    e_in = np.linalg.norm(clip.joints[2, 0, 3] - clip.joints[2, 0, 4])
    d_out = np.linalg.norm(out.joints[0, 0, 0] - out.joints[0, 0, 1])
    e_out = np.linalg.norm(out.joints[2, 0, 3] - out.joints[2, 0, 4])
    assert d_out / d_in == pytest.approx(e_out / e_in, rel=1e-12)


def test_normalize_zero_clip_guard():
    clip = SkeletonClip(np.zeros((3, 1, 4, 2)), np.ones((3, 1, 4), dtype=bool))
    out = normalize_clip(clip)
    assert np.all(np.isfinite(out.joints))
    assert not out.joints.any()


def test_normalize_skips_an_actor_with_no_valid_joint():
    rng = np.random.default_rng(10)
    clip = random_clip(rng, 4, 2, 5)
    clip.valid[:, 1] = False
    out = normalize_clip(clip)
    alone = normalize_clip(SkeletonClip(clip.joints[:, :1], clip.valid[:, :1]))
    assert np.array_equal(out.joints[:, 0], alone.joints[:, 0])  # actor 1 sets no scale
    ratio = out.joints[:, 1] / clip.joints[:, 1]
    assert np.allclose(ratio, ratio.flat[0], rtol=1e-15, atol=0)  # scaled, not centered


def test_normalize_leaves_a_clip_with_no_valid_joint_unchanged():
    clip = random_clip(np.random.default_rng(11), 3, 2, 4)
    clip.valid[:] = False
    assert np.array_equal(normalize_clip(clip).joints, clip.joints)


def test_flip_is_involution():
    rng = np.random.default_rng(7)
    desc = DatasetDescriptor(joint_count=5, dim=2, mirror=(0, 2, 1, 4, 3))
    clip = random_clip(rng, 6, 2, 5)
    twice = horizontal_flip(horizontal_flip(clip, desc), desc)
    assert np.array_equal(twice.joints, clip.joints)
    assert np.array_equal(twice.valid, clip.valid)


def test_flip_negates_axis_and_swaps():
    desc = DatasetDescriptor(joint_count=2, dim=2, mirror=(1, 0))
    joints = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    clip = SkeletonClip(joints, np.ones((1, 1, 2), dtype=bool))
    out = horizontal_flip(clip, desc)
    assert out.joints[0, 0, 0].tolist() == [-3.0, 4.0]
    assert out.joints[0, 0, 1].tolist() == [-1.0, 2.0]


def test_flip_and_features_reject_a_clip_of_another_layout():
    clip = random_clip(np.random.default_rng(12), 6, 1, 5)
    for desc in (DESC15, DatasetDescriptor(joint_count=5, dim=3)):
        with pytest.raises(InputError, match=r"^clip layout \(5 joints, dim 2\) does not match"):
            horizontal_flip(clip, desc)
        with pytest.raises(InputError,
                           match=r"^actor joints \(5 joints, dim 2\) do not match descriptor"):
            assemble_features(clip.joints[:, 0], FeatureConfig(sampled_frames=2), desc)


def test_noise_statistics_and_masking():
    clip = SkeletonClip(np.zeros((100, 1, 50, 2)), np.ones((100, 1, 50), dtype=bool))
    clip.valid[:, :, 0] = False
    out = add_gaussian_noise(clip, sigma=0.5, seed=11)
    assert not out.joints[:, :, 0].any()  # invalid joints untouched
    sample = out.joints[:, :, 1:]  # 9900 x 2 coordinates
    assert abs(sample.std() - 0.5) < 0.01
    again = add_gaussian_noise(clip, sigma=0.5, seed=11)
    assert np.array_equal(out.joints, again.joints)


def test_augment_produces_expected_variants():
    rng = np.random.default_rng(8)
    desc = DatasetDescriptor(joint_count=5, dim=2, mirror=(0, 2, 1, 4, 3))
    clip = random_clip(rng, 5, 1, 5)
    options = ExtractionOptions(flip=True, noise_copies=2, seed=3)
    variants = augment_clips(clip, desc, options, 0)
    assert len(variants) == 4
    assert variants[0] is clip
    assert np.array_equal(variants[1].joints,
                          horizontal_flip(clip, desc).joints)
    assert not np.array_equal(variants[2].joints, variants[3].joints)
    again = augment_clips(clip, desc, options, 0)
    assert np.array_equal(variants[3].joints, again[3].joints)


def test_fill_clip_completes_gaps():
    rng = np.random.default_rng(9)
    clip = random_clip(rng, 12, 2, 4, missing=0.3)
    out = fill_clip(clip)
    assert out.valid.all()
    # spot-check one joint against the underlying interpolation
    series = clip.joints[:, 1, 2, :]
    mask = clip.valid[:, 1, 2]
    assert np.allclose(out.joints[:, 1, 2, :], fill_missing(series, mask),
                       rtol=0, atol=1e-12)


def test_merge_actors_layout():
    rng = np.random.default_rng(10)
    clip = random_clip(rng, 6, 3, 4)
    merged = merge_actors(clip, [2, 0], 2)
    assert merged.actor_count == 1
    assert merged.joint_count == 8
    assert np.array_equal(merged.joints[:, 0, :4], clip.joints[:, 2])
    assert np.array_equal(merged.joints[:, 0, 4:], clip.joints[:, 0])


def test_merge_actors_pads_missing_body():
    rng = np.random.default_rng(11)
    clip = random_clip(rng, 4, 1, 3)
    merged = merge_actors(clip, [0], 2)
    assert merged.joint_count == 6
    assert merged.valid[:, 0, :3].all()
    assert not merged.valid[:, 0, 3:].any()


def test_merged_descriptor():
    desc = DatasetDescriptor(joint_count=3, dim=2, priority=(2, 0, 1),
                             mirror=(0, 2, 1))
    m = desc.merged(2)
    assert m.joint_count == 6
    assert m.priority == (2, 0, 1, 5, 3, 4)
    assert m.mirror == (0, 2, 1, 3, 5, 4)


# --------------------------------------------------------------------- scaler


def test_scaler_fit_apply():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((20, 7)) * np.array([1, 10, 0.1, 5, 2, 3, 4])
    x[:, 3] = 0.0  # constant zero column keeps scale 1
    scaler = fit_scaler(x)
    assert scaler.scale[3] == 1.0
    scaled = apply_scaler(scaler, x)
    assert np.abs(scaled).max() == pytest.approx(1.0)
    assert np.all(np.abs(scaled) <= 1.0 + 1e-12)
    one_row = apply_scaler(scaler, x[0])
    assert np.array_equal(one_row, scaled[0])


def test_scaler_matches_abs_max_reference():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((9, 8))
    x[:, 0] = 0.0
    x[:, 1] = -0.0
    x[:, 2] = -np.abs(x[:, 2])
    x[:, 3] = np.where(np.arange(9) % 2, 0.0, -0.0)
    x[2, 4], x[5, 4] = 7.5, -7.5
    expect = np.max(np.abs(x), axis=0)  # the full |x| copy fit_scaler no longer makes
    expect[expect == 0.0] = 1.0
    assert fit_scaler(x).scale.tobytes() == expect.tobytes()
    x[4, 5] = np.nan  # a NaN scale is rejected, as it was
    with pytest.raises(InputError, match="scale contains non-finite values"):
        fit_scaler(x)


def test_scaler_fit_makes_no_matrix_sized_copy():
    x = np.random.default_rng(14).standard_normal((40, 200_000))
    tracemalloc.start()
    try:
        scaler = fit_scaler(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scaler.scale.shape == (200_000,)
    assert peak < 0.25 * x.nbytes


def test_scaler_fit_holds_two_rows_and_keeps_its_bits():
    # features extract fits each scaler on one row: the running max |x| per column
    rng = np.random.default_rng(15)
    bound = np.abs(rng.standard_normal(500_000))
    bound[::7] = 0.0
    tracemalloc.start()
    try:
        scaler = fit_scaler(bound[None])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * bound.nbytes  # the max and min rows, and the check's masks
    assert scaler.scale.tobytes() == np.where(bound == 0.0, 1.0, bound).tobytes()
    x = rng.standard_normal((9, 1_000)) * 10.0 ** rng.integers(-3, 4, size=1_000)
    x[:, 0::5] = 0.0
    x[:, 1::5] = -0.0
    x[:, 2::5] = -np.abs(x[:, 2::5])
    expect = np.maximum(x.max(axis=0), -x.min(axis=0))  # the scale as first written
    expect[expect == 0.0] = 1.0
    assert (expect[0::5] == 1.0).all() and (expect[1::5] == 1.0).all()
    assert fit_scaler(x).scale.tobytes() == expect.tobytes()


def test_scaler_validates():
    with pytest.raises(InputError):
        FeatureScaler(np.array([1.0, 0.0]))
    with pytest.raises(InputError):
        fit_scaler(np.zeros((0, 3)))
    scaler = fit_scaler(np.ones((2, 3)))
    with pytest.raises(InputError):
        apply_scaler(scaler, np.ones(4))


# ----------------------------------------------------------------- clip model


def test_clip_validation():
    with pytest.raises(InputError):
        SkeletonClip(np.zeros((2, 1, 1, 2)), np.ones((2, 1, 1), dtype=bool))
    with pytest.raises(InputError):
        SkeletonClip(np.zeros((2, 1, 4, 4)), np.ones((2, 1, 4), dtype=bool))
    with pytest.raises(InputError):
        SkeletonClip(np.full((2, 1, 4, 2), np.nan), np.ones((2, 1, 4), dtype=bool))
    with pytest.raises(InputError):
        SkeletonClip(np.zeros((2, 1, 4, 2)), np.ones((2, 2, 4), dtype=bool))


def test_descriptor_validation():
    with pytest.raises(InputError):
        DatasetDescriptor(joint_count=1, dim=2)
    with pytest.raises(InputError):
        DatasetDescriptor(joint_count=3, dim=4)
    with pytest.raises(InputError):
        DatasetDescriptor(joint_count=3, dim=2, mirror=(1, 2, 0))  # not involution
    with pytest.raises(InputError):
        DatasetDescriptor(joint_count=3, dim=2, priority=(0, 0, 1))
