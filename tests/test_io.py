"""File formats: round-trips and malformed-input diagnostics."""

import dataclasses
import re
import struct
import tracemalloc

import numpy as np
import pytest

from pathsig import (
    Block,
    InputError,
    DatasetDescriptor,
    FeatureConfig,
    FeatureScaler,
    FormatError,
    SkeletonClip,
)
from pathsig.io import (
    ExtractionOptions,
    FeatureMatrixWriter,
    FeatureRows,
    ManifestRecord,
    read_clip_file,
    read_descriptor,
    read_feature_config,
    read_feature_matrix,
    read_labels,
    read_manifest,
    read_partition,
    read_path_file,
    read_scaler,
    write_clip_file,
    write_descriptor,
    write_feature_config,
    write_feature_matrix,
    write_labels,
    write_manifest,
    write_partition,
    write_scaler,
)

DESC = DatasetDescriptor(joint_count=3, dim=2, class_names=("a", "b"))


# ---------------------------------------------------------------- path files


def test_path_file_roundtrip(tmp_path):
    p = tmp_path / "path.txt"
    p.write_text("# comment\n1.5,2\n\n3,4.25\n")
    arr = read_path_file(p)
    assert arr.tolist() == [[1.5, 2.0], [3.0, 4.25]]


def test_path_file_dimension_mismatch_names_line(tmp_path):
    p = tmp_path / "path.txt"
    p.write_text("1,2\n3,4,5\n")
    with pytest.raises(FormatError) as err:
        read_path_file(p)
    assert f"{p}:2" in str(err.value)


def test_path_file_non_numeric(tmp_path):
    p = tmp_path / "path.txt"
    p.write_text("1,2\nx,4\n")
    with pytest.raises(FormatError) as err:
        read_path_file(p)
    assert f"{p}:2" in str(err.value)


def test_path_file_empty_errors(tmp_path):
    p = tmp_path / "path.txt"
    p.write_text("# nothing\n")
    with pytest.raises(FormatError, match=re.escape(f"{p}: no samples found")):
        read_path_file(p)


# ---------------------------------------------------------------- clip files


def make_clip(rng, frames=4, actors=2, missing=0.25):
    coords = rng.standard_normal((frames, actors, 3, 2))
    valid = rng.random((frames, actors, 3)) >= missing
    valid[0, 0, 0] = True
    return SkeletonClip(coords, valid)


def test_clip_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    clip = make_clip(rng)
    p = tmp_path / "c.clip"
    write_clip_file(clip, p)
    back = read_clip_file(p, DESC, label=1, min_actors=clip.actor_count)
    assert back.label == 1
    assert np.array_equal(back.valid, clip.valid)
    assert np.array_equal(back.joints[back.valid], clip.joints[clip.valid])
    assert not back.joints[~back.valid].any()  # absent rows read as zero


def test_clip_id_is_the_file_path(tmp_path):
    p = tmp_path / "c.clip"
    write_clip_file(SkeletonClip(np.zeros((2, 1, 3, 2)), np.ones((2, 1, 3), dtype=bool),
                                 clip_id="written"), p)
    assert read_clip_file(p, DESC).clip_id == str(p)


def test_clip_min_actors_pads(tmp_path):
    rng = np.random.default_rng(1)
    clip = SkeletonClip(rng.standard_normal((2, 1, 3, 2)),
                        np.ones((2, 1, 3), dtype=bool))
    p = tmp_path / "c.clip"
    write_clip_file(clip, p)
    back = read_clip_file(p, DESC, min_actors=2)
    assert back.actor_count == 2
    assert not back.valid[:, 1].any()


def test_clip_malformed_rows(tmp_path):
    p = tmp_path / "c.clip"
    p.write_text("0,0,0,1.0,2.0\n0,0,5,1.0,2.0\n")
    with pytest.raises(FormatError) as err:
        read_clip_file(p, DESC)
    assert f"{p}:2" in str(err.value)  # joint index out of range

    p.write_text("0,0,0,1.0\n")
    with pytest.raises(FormatError):
        read_clip_file(p, DESC)  # wrong coordinate count

    p.write_text("0,0,0,1.0,2.0\n0,0,0,3.0,4.0\n")
    with pytest.raises(FormatError) as err:
        read_clip_file(p, DESC)
    assert "duplicate" in str(err.value)

    p.write_text("0,-1,0,1.0,2.0\n")
    with pytest.raises(FormatError):
        read_clip_file(p, DESC)


@pytest.mark.parametrize("padding, row, index", [
    ("", "2000000000,0,1,1.0,2.0", "frame index 2000000000"),
    ("", "0,2000000000,1,1.0,2.0", "actor index 2000000000"),
    ("#" * 200_000 + "\n\n", "150000,0,1,1.0,2.0", "frame index 150000"),  # comments buy no frames
], ids=["frame", "actor", "padded"])
def test_clip_huge_index_rejected_before_allocating(tmp_path, padding, row, index):
    p = tmp_path / "c.clip"
    p.write_text(f"{padding}0,0,0,1.0,2.0\n{row}\n")
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as err:
            read_clip_file(p, DESC)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    message = str(err.value)
    assert str(p) in message and index in message
    assert f"file's {14 + len(row) + 1} bytes of joint rows" in message  # two rows + newlines
    assert peak < 1 << 20


def test_clip_bound_admits_exactly_as_many_frames_as_bytes(tmp_path):
    p = tmp_path / "c.clip"
    p.write_text("10,0,0,1,2\n")  # 11 bytes of joint rows: 11 frames fit
    assert read_clip_file(p, DESC).frame_count == 11
    p.write_text("11,0,0,1,2\n")  # 11 bytes, 12 frames
    with pytest.raises(FormatError, match="12 frames x 1 actors"):
        read_clip_file(p, DESC)


def test_clip_huge_min_actors_rejected(tmp_path):
    p = tmp_path / "c.clip"
    p.write_text("0,0,0,1.0,2.0\n")
    with pytest.raises(FormatError, match="2000000000 actors"):
        read_clip_file(p, DESC, min_actors=2_000_000_000)


def test_clip_bound_admits_every_synth_clip(tmp_path):
    from pathsig.synth import make_action_dataset, make_interaction_dataset, write_dataset

    for make in (make_action_dataset, make_interaction_dataset):
        train, test, desc = make(train_clips=8, test_clips=4, joint_count=5, dim=2, seed=1)
        manifest, _ = write_dataset(train, test, desc, tmp_path / make.__name__)
        for rec, clip in zip(read_manifest(manifest), train + test):
            back = read_clip_file(rec.clip_path, desc, min_actors=rec.actor_count)
            assert np.array_equal(back.joints[back.valid], clip.joints[clip.valid])
    sparse = SkeletonClip(np.ones((40, 1, 3, 2)), np.zeros((40, 1, 3), dtype=bool))
    sparse.valid[[0, 39], 0, :] = True  # 38 of 40 frames missing still fit the bound
    write_clip_file(sparse, tmp_path / "sparse.clip")
    assert read_clip_file(tmp_path / "sparse.clip", DESC).frame_count == 40


# ----------------------------------------------------------------- manifests


def test_manifest_roundtrip(tmp_path):
    records = [
        ManifestRecord(str(tmp_path / "clips/x.clip"), "a", "train", 1),
        ManifestRecord(str(tmp_path / "clips/y.clip"), "b", "test", 2),
    ]
    p = tmp_path / "manifest.txt"
    write_manifest(records, p)
    # rows are stored relative to the manifest's own directory
    assert p.read_text().splitlines()[0] == "clips/x.clip,a,train,1"
    back = read_manifest(p)
    assert [r.label_name for r in back] == ["a", "b"]
    assert [r.split for r in back] == ["train", "test"]
    assert [r.actor_count for r in back] == [1, 2]
    assert back[0].clip_path == str(tmp_path / "clips/x.clip")


def test_manifest_rejects_bad_split(tmp_path):
    p = tmp_path / "manifest.txt"
    p.write_text("x.clip,a,validation,1\n")
    with pytest.raises(FormatError) as err:
        read_manifest(p)
    assert f"{p}:1" in str(err.value)


def test_manifest_rejects_bad_count(tmp_path):
    p = tmp_path / "manifest.txt"
    p.write_text("x.clip,a,train,0\n")
    with pytest.raises(FormatError, match=re.escape(f"{p}:1: actor count = 0 must be >= 1")):
        read_manifest(p)
    p.write_text("x.clip,a,train,2.5\n")
    with pytest.raises(FormatError, match=re.escape(f"{p}:1: malformed actor count '2.5'")):
        read_manifest(p)
    p.write_text("x.clip,a,train\n")
    with pytest.raises(FormatError):
        read_manifest(p)


# --------------------------------------------------------------- descriptors


def test_descriptor_roundtrip(tmp_path):
    desc = DatasetDescriptor(joint_count=5, dim=3, priority=(4, 3, 2, 1, 0),
                             mirror=(0, 2, 1, 4, 3), horizontal_axis=1,
                             class_names=("walk", "run"))
    p = tmp_path / "desc.txt"
    write_descriptor(desc, p)
    assert read_descriptor(p) == desc


def test_descriptor_defaults(tmp_path):
    p = tmp_path / "desc.txt"
    p.write_text("joints = 4\ndims = 2\nclasses = a,b,c\n")
    desc = read_descriptor(p)
    assert desc.priority == (0, 1, 2, 3)
    assert desc.mirror == (0, 1, 2, 3)
    assert desc.horizontal_axis == 0
    assert desc.class_names == ("a", "b", "c")


def test_descriptor_joint_count_is_capped(tmp_path):
    p = tmp_path / "desc.txt"
    p.write_text("joints = 1000\ndims = 2\nclasses = a\n")
    assert read_descriptor(p).priority == tuple(range(1000))
    p.write_text("joints = 1001\ndims = 2\nclasses = a\n")  # checking it would build 1001-long lists
    with pytest.raises(FormatError, match=re.escape(
            f"{p}: invalid descriptor: joint_count = 1001 is more than the 1000 allowed")):
        read_descriptor(p)


def test_descriptor_missing_key(tmp_path):
    p = tmp_path / "desc.txt"
    p.write_text("joints = 4\nclasses = a\n")
    with pytest.raises(FormatError, match=re.escape(f"{p}: missing key 'dims'")):
        read_descriptor(p)


def test_descriptor_invalid_mirror(tmp_path):
    p = tmp_path / "desc.txt"
    p.write_text("joints = 3\ndims = 2\nclasses = a\nmirror = 1,2,0\n")
    with pytest.raises(FormatError):
        read_descriptor(p)


def test_descriptor_duplicate_key(tmp_path):
    p = tmp_path / "desc.txt"
    p.write_text("joints = 3\njoints = 4\ndims = 2\nclasses = a\n")
    with pytest.raises(FormatError) as err:
        read_descriptor(p)
    assert "duplicate" in str(err.value)


# ------------------------------------------------------------ feature config


def test_feature_config_roundtrip(tmp_path):
    config = FeatureConfig(sampled_frames=6, pair_level=3, triple_level=2, joint_level=4,
                           evolution_level=3, lead_lag_dim=2, dyadic=True, dyadic_depth=2)
    options = ExtractionOptions(bodies=2, flip=False, noise_copies=0,
                                noise_sigma=0.5, seed=9)
    for settings in (config, options):  # every field away from its default
        for field in dataclasses.fields(settings):
            assert getattr(settings, field.name) != field.default, field.name
    p = tmp_path / "cfg.txt"
    write_feature_config(config, options, p)
    back_c, back_o = read_feature_config(p)
    assert back_c == config
    assert back_o == options


def test_feature_config_partial_keeps_defaults(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("pair_level = 4\n")
    config, options = read_feature_config(p)
    assert config.pair_level == 4
    assert config.sampled_frames == 10
    assert options == ExtractionOptions()


def test_feature_config_unknown_key(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("pair_level = 3\n\npair_levle = 4\n")
    with pytest.raises(FormatError, match=re.escape(f"{p}:3: unknown key 'pair_levle'")):
        read_feature_config(p)


def test_feature_config_bad_bool(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("dyadic = maybe\n")
    with pytest.raises(FormatError):
        read_feature_config(p)


# ------------------------------------------------------------ feature matrix


def test_feature_matrix_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(2)
    matrix = rng.standard_normal((5, 7))
    layout = (Block("alpha", 0, 3), Block("beta", 3, 4))
    p = tmp_path / "m.feat"
    write_feature_matrix(p, matrix, layout)
    back, blocks = read_feature_matrix(p)
    assert np.array_equal(back, matrix)  # bit-exact float64 round-trip
    assert blocks == layout


def test_feature_matrix_write_needs_a_2d_matrix(tmp_path):
    for shape in ((3,), (2, 3, 4)):
        with pytest.raises(InputError, match=r"^feature matrix must be 2-D, got shape"):
            write_feature_matrix(tmp_path / "m.feat", np.zeros(shape))
    assert not list(tmp_path.iterdir())


def test_feature_matrix_bad_magic(tmp_path):
    p = tmp_path / "m.feat"
    p.write_bytes(b"WRONGMAG" + b"\x00" * 16)
    with pytest.raises(FormatError) as err:
        read_feature_matrix(p)
    assert "magic" in str(err.value)


def test_feature_matrix_truncated(tmp_path):
    rng = np.random.default_rng(3)
    p = tmp_path / "m.feat"
    write_feature_matrix(p, rng.standard_normal((4, 4)))
    data = p.read_bytes()
    p.write_bytes(data[:40])
    with pytest.raises(FormatError) as err:
        read_feature_matrix(p)
    assert "truncated" in str(err.value)


def test_feature_matrix_oversized_header_rejected_before_allocating(tmp_path):
    p = tmp_path / "m.feat"
    p.write_bytes(b"SIGFEAT1" + struct.pack("<QQ", 10**6, 10**6) + b"\x00" * 64)
    with pytest.raises(FormatError) as err:
        read_feature_matrix(p)
    message = str(err.value)
    assert str(p) in message
    assert str(24 + 8 * 10**12) in message and "88 bytes" in message


def test_feature_matrix_read_holds_the_payload_once(tmp_path):
    matrix = np.random.default_rng(4).standard_normal((40, 200_000))
    p = tmp_path / "wide.feat"
    write_feature_matrix(p, matrix)
    tracemalloc.start()
    try:
        back, _ = read_feature_matrix(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, matrix)
    assert peak < 1.5 * matrix.nbytes


def test_feature_matrix_write_makes_no_payload_copy(tmp_path):
    matrix = np.random.default_rng(5).standard_normal((40, 200_000))
    p = tmp_path / "wide.feat"
    tracemalloc.start()
    try:
        write_feature_matrix(p, matrix, (Block("all", 0, 200_000),))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * matrix.nbytes
    expect = (b"SIGFEAT1" + struct.pack("<QQ", 40, 200_000) + matrix.astype("<f8").tobytes()
              + b"all 0 200000\n")
    assert p.read_bytes() == expect


def test_feature_matrix_non_ascii_footer(tmp_path):
    p = tmp_path / "m.feat"
    write_feature_matrix(p, np.ones((2, 3)), (Block("alpha", 0, 3),))
    p.write_bytes(p.read_bytes()[:-1] + b"\xff")
    with pytest.raises(FormatError, match="byte 0xff") as err:
        read_feature_matrix(p)
    assert f"{p} footer" in str(err.value)


@pytest.mark.parametrize("blocks, cols, where", [
    ([("a", 0, 2), ("b", 5, 4)], 6, "must start at column 2"),  # gap
    ([("a", 0, 4), ("b", 2, 4)], 6, "must start at column 4"),  # overlap
    ([("a", 0, 4), ("b", 4, 5)], 6, "end at column 9, not at 6"),  # overrun
    ([("a", 0, 4)], 6, "end at column 4, not at 6"),  # short
    ([("a", 1, 5)], 6, "must start at column 0"),
    ([("a", 0, 5), ("b", 5, -2), ("c", 3, 3)], 6, "width >= 0"),
])
def test_feature_footer_must_tile_columns(tmp_path, blocks, cols, where):
    p = tmp_path / "m.feat"
    footer = "".join(f"{name} {offset} {width}\n" for name, offset, width in blocks)
    p.write_bytes(b"SIGFEAT1" + struct.pack("<QQ", 1, cols) + np.zeros(cols).tobytes()
                  + footer.encode("ascii"))
    with pytest.raises(FormatError, match=where) as err:
        read_feature_matrix(p)
    assert str(p) in str(err.value)


def test_feature_footer_empty_or_tiling_is_legal(tmp_path):
    p = tmp_path / "m.feat"
    write_feature_matrix(p, np.ones((2, 6)))
    assert read_feature_matrix(p)[1] == ()
    layout = (Block("a", 0, 2), Block("empty", 2, 0), Block("b", 2, 4))
    write_feature_matrix(p, np.ones((2, 6)), layout)
    assert read_feature_matrix(p)[1] == layout


def test_feature_matrix_writer_matches_one_shot_write(tmp_path):
    import pathsig.io as pio

    matrix = np.random.default_rng(6).standard_normal((9, 5))
    layout = (Block("alpha", 0, 3), Block("beta", 3, 2))
    write_feature_matrix(tmp_path / "ref.feat", matrix / 3.0, layout)
    out = tmp_path / "rows.feat"
    with pio.published(out) as tmp, FeatureMatrixWriter(tmp, 5, layout) as writer:
        writer.write(matrix[0])
        writer.write(matrix[1:4])
        for row in matrix[4:]:
            writer.write(row)
        assert not out.exists()  # published only on close
        writer.map_rows(lambda block: block / 3.0)
    assert out.read_bytes() == (tmp_path / "ref.feat").read_bytes()
    assert sorted(f.name for f in tmp_path.iterdir()) == ["ref.feat", "rows.feat"]


def test_feature_matrix_writer_map_rows_uses_bounded_blocks(tmp_path, monkeypatch):
    import pathsig.io as pio

    monkeypatch.setattr(pio, "_BLOCK_BYTES", 3 * 8 * 4)  # three 4-column rows per block
    seen = []
    with FeatureMatrixWriter(tmp_path / "m.feat", 4) as writer:
        writer.write(np.arange(40.0).reshape(10, 4))
        writer.map_rows(lambda block: seen.append(block.shape[0]) or -block)
    assert seen == [3, 3, 3, 1]
    assert np.array_equal(read_feature_matrix(tmp_path / "m.feat")[0],
                          -np.arange(40.0).reshape(10, 4))


def test_feature_matrix_writer_discards_on_error(tmp_path):
    import pathsig.io as pio

    out = tmp_path / "m.feat"
    with pytest.raises(RuntimeError):
        with pio.published(out) as tmp, FeatureMatrixWriter(tmp, 3) as writer:
            writer.write(np.ones(3))
            raise RuntimeError("extraction failed")
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(InputError, match="need 3 columns"):
        with pio.published(out) as tmp, FeatureMatrixWriter(tmp, 3) as writer:
            writer.write(np.ones((2, 4)))
    assert list(tmp_path.iterdir()) == []


def test_feature_rows_read_blocks_and_take(tmp_path, monkeypatch):
    import pathsig.io as pio

    matrix = np.random.default_rng(7).standard_normal((7, 5))
    layout = (Block("a", 0, 2), Block("b", 2, 3))
    write_feature_matrix(tmp_path / "m.feat", matrix, layout)
    monkeypatch.setattr(pio, "_BLOCK_BYTES", 2 * 8 * 5)  # two rows per block
    with FeatureRows(tmp_path / "m.feat") as rows:
        assert rows.shape == (7, 5) and rows.layout == layout
        assert np.array_equal(rows.read(2, 6), matrix[2:6])
        assert [b.shape[0] for b in rows.blocks()] == [2, 2, 2, 1]
        assert np.array_equal(np.vstack([b.copy() for b in rows.blocks()]), matrix)
        picked = np.array([6, 0, 3, 3])
        for cols in (slice(1, 4), slice(3, None), slice(-2, 9), slice(4, 2)):
            out = rows[picked, cols]
            assert np.array_equal(out, matrix[picked, cols])
            assert out.flags.c_contiguous and out.dtype == np.float64
        view = rows[[5, 1, 4]][[2, 0]]
        assert view.shape == (2, 5)
        assert np.array_equal(view.read(0, 2), matrix[[4, 5]])
        assert np.array_equal(view[[1], 0:5], matrix[[5]])
        assert np.array_equal(rows[2:6][1:3, 1:4], matrix[3:5, 1:4])
        for bad in (lambda: rows[[7], 0:5],
                    lambda: rows[[0], 0:4:2],
                    lambda: rows[0],
                    lambda: rows[[0], 1],
                    lambda: rows[[True], 0:5],
                    lambda: list(rows),
                    lambda: rows.read(5, 8),
                    lambda: rows[[-1]],
                    lambda: rows[0:6:2]):
            with pytest.raises(InputError):
                bad()


def test_feature_rows_take_row_slices_as_the_matrix_does(tmp_path):
    matrix = np.random.default_rng(8).standard_normal((6, 4))
    write_feature_matrix(tmp_path / "m.feat", matrix)
    with FeatureRows(tmp_path / "m.feat") as rows:
        view = rows[[4, 0, 5, 2]]
        for a, b in ((0, 6), (1, 4), (2, 2), (4, 1), (-3, None), (None, -2), (-9, 9), (7, 9)):
            for cols in (slice(0, 4), slice(1, 3), slice(-3, -1), slice(3, 1)):
                out = rows[a:b, cols]
                assert out.flags.c_contiguous and out.dtype == np.float64
                assert out.tobytes() == matrix[a:b, cols].tobytes(), (a, b, cols)
                assert view[a:b, cols].tobytes() == matrix[[4, 0, 5, 2]][a:b, cols].tobytes()
            assert rows[a:b].shape == matrix[a:b].shape
        for step in (2, -1, 0):
            with pytest.raises(InputError, match="slice of step 1"):
                rows[0:6:step, 0:4]


def test_feature_rows_view_leaves_its_parents_file_open(tmp_path):
    matrix = np.random.default_rng(9).standard_normal((4, 6))
    write_feature_matrix(tmp_path / "m.feat", matrix)
    with FeatureRows(tmp_path / "m.feat") as rows:
        with rows[[1, 2]] as view:
            assert np.array_equal(view.read(0, 2), matrix[[1, 2]])
        view.close()
        assert np.array_equal(rows[np.arange(2), 0:5], matrix[:2, 0:5])
    with pytest.raises(ValueError, match="closed file"):
        rows.read(0, 1)


@pytest.mark.parametrize("shape", [(0, 4), (3, 0), (0, 0)])
def test_feature_rows_empty_shapes(tmp_path, shape):
    p = tmp_path / "m.feat"
    write_feature_matrix(p, np.zeros(shape))
    assert read_feature_matrix(p)[0].shape == shape
    with FeatureRows(p) as rows:
        assert [b.shape for b in rows.blocks()] == ([shape] if shape[0] else [])
        assert rows[[0] * shape[0], 0:0].shape == (shape[0], 0)


def test_feature_rows_file_cut_short_after_opening(tmp_path):
    p = tmp_path / "m.feat"
    write_feature_matrix(p, np.ones((4, 3)))
    with FeatureRows(p) as rows:
        with open(p, "r+b") as f:
            f.truncate(24 + 8 * 3 * 2)
        with pytest.raises(FormatError, match="ends at byte"):
            rows.read(0, 4)


@pytest.mark.parametrize("rows, cols, payload", [
    (0, 2**62, 0),  # no entries, but no array can have this shape
    (10**6, 10**6, 64),  # more bytes than the file holds
    (3, 2**61 + 1, 64),  # rows x cols past the file size, product past 2^64
])
def test_feature_rows_reject_hostile_header_before_allocating(tmp_path, rows, cols, payload):
    p = tmp_path / "m.feat"
    p.write_bytes(b"SIGFEAT1" + struct.pack("<QQ", rows, cols) + b"\x00" * payload)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as err:
            FeatureRows(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(p) in str(err.value)
    assert peak < 64 * 1024


# ------------------------------------------------------------ labels, scaler


def test_labels_roundtrip(tmp_path):
    p = tmp_path / "y.labels"
    write_labels(np.array([0, 2, 1, 1]), p)
    assert read_labels(p).tolist() == [0, 2, 1, 1]


def test_labels_reject_non_integer(tmp_path):
    p = tmp_path / "y.labels"
    p.write_text("0\n1.5\n")
    with pytest.raises(FormatError) as err:
        read_labels(p)
    assert f"{p}:2" in str(err.value)


def test_labels_name_a_field_past_the_int_digit_limit_by_its_length(tmp_path):
    p = tmp_path / "big.labels"
    p.write_text("1" * 5000 + "\n")
    with pytest.raises(FormatError) as err:
        read_labels(p)
    assert str(err.value) == f"{p}:1: label of 5,000 characters is too long, expected an integer"


def test_labels_reject_non_utf8_line(tmp_path):
    p = tmp_path / "y.labels"
    p.write_bytes(b"0\n\xff\n1\n")
    with pytest.raises(FormatError, match="byte 0xff") as err:
        read_labels(p)
    assert f"{p}:2" in str(err.value)


def test_scaler_roundtrip(tmp_path):
    scaler = FeatureScaler(np.array([1.0, 0.5, 3.25]))
    p = tmp_path / "s.feat"
    write_scaler(scaler, p)
    back = read_scaler(p)
    assert np.array_equal(back.scale, scaler.scale)


def test_scaler_rejects_matrix(tmp_path):
    p = tmp_path / "s.feat"
    write_feature_matrix(p, np.ones((2, 3)))
    with pytest.raises(FormatError):
        read_scaler(p)


def test_scaler_rejects_nonpositive(tmp_path):
    p = tmp_path / "s.feat"
    write_feature_matrix(p, np.array([[1.0, -2.0]]))
    with pytest.raises(FormatError):
        read_scaler(p)


# ----------------------------------------------------------------- partition


def test_partition_roundtrip(tmp_path):
    p = tmp_path / "part.txt"
    write_partition([1.04, 1.95, 1.5], [False, True, False], p)
    means, multi = read_partition(p)
    assert means.tolist() == [1.04, 1.95, 1.5]
    assert multi.tolist() == [False, True, False]


def test_partition_missing_key(tmp_path):
    p = tmp_path / "part.txt"
    p.write_text("classes = 2\nmeans = 1,2\n")
    with pytest.raises(FormatError, match=re.escape(f"{p}: missing key 'multi'")):
        read_partition(p)


def test_partition_length_mismatch(tmp_path):
    p = tmp_path / "part.txt"
    p.write_text("classes = 3\nmeans = 1,2\nmulti = 0,1\n")
    with pytest.raises(FormatError):
        read_partition(p)


# -------------------------------------------------- rules of the line readers


@pytest.mark.parametrize("read, text, line, key", [
    (read_descriptor, "joints = 3\ndims = 2\nclasses = a\nprority = 2,1,0\n", 4, "prority"),
    (read_descriptor, "joints = 3\nmirorr = 0,2,1\ndims = 2\nclasses = a\n", 2, "mirorr"),
    (read_partition, "classes = 2\nmeans = 1,2\nmulti = 0,1\nmutli = 1,1\n", 4, "mutli"),
], ids=["descriptor_priority", "descriptor_mirror", "partition"])
def test_key_value_readers_reject_an_unknown_key_naming_its_line(tmp_path, read, text, line,
                                                                  key):
    p = tmp_path / "kv.txt"
    p.write_text(text)
    with pytest.raises(FormatError, match=re.escape(f"{p}:{line}: unknown key {key!r}")):
        read(p)


@pytest.mark.parametrize("read, what", [
    (lambda p: read_clip_file(p, DatasetDescriptor(joint_count=3, dim=2)), "joint rows"),
    (read_manifest, "manifest rows"),
    (read_labels, "labels"),
], ids=["clip", "manifest", "labels"])
def test_line_readers_reject_a_file_with_no_data_line(tmp_path, read, what):
    p = tmp_path / "data.txt"
    for text in ("", "\n  \n# a comment\n"):
        p.write_text(text)
        with pytest.raises(FormatError, match=re.escape(f"{p}: no {what} found")):
            read(p)
