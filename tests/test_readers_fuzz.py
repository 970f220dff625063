"""Every reader, fed byte-mutated copies of a file its writer wrote, raises
only FormatError or InputError and holds memory on the order of the file."""

import dataclasses
import struct
import tracemalloc

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from pathsig import io as pio  # noqa: E402
from pathsig.classifier import TrainConfig, init_model, load_model, save_model  # noqa: E402
from pathsig.errors import FormatError, InputError  # noqa: E402
from pathsig.skeleton import (Block, DatasetDescriptor, FeatureConfig,  # noqa: E402
                              FeatureScaler, SkeletonClip)
from test_settings import BOUNDS, _edges  # noqa: E402

# The clip reader's dense arrays hold 8 * joints * dims + joints bytes per
# (frame, actor), and frames x actors may not exceed the file's size, so
# 3 joints in 2-D stay within 51 bytes of array per byte of file.
DESC = DatasetDescriptor(joint_count=3, dim=2, priority=(2, 0, 1), mirror=(1, 0, 2),
                         class_names=("a", "b"))
MiB = 1 << 20


def _read_rows(path):
    """Every read ``FeatureRows`` offers, over a whole file: blocks of all
    columns, then one column range of the last and first rows."""
    with pio.FeatureRows(path) as rows:
        n, cols = rows.shape
        for _ in rows.blocks():
            pass
        picked = rows[[n - 1, 0] if n else []]
        picked[range(picked.shape[0]), cols // 2:]


def _seed_files(root):
    """{reader name: (bytes of a small valid file its writer wrote, the reader)}."""
    rng = np.random.default_rng(11)
    valid = rng.random((4, 2, 3)) < 0.8
    valid[0, 0, 0] = True
    clip = SkeletonClip(rng.standard_normal((4, 2, 3, 2)), valid)
    records = [pio.ManifestRecord(str(root / f"c{i}.clip"), "ab"[i % 2], ("train", "test")[i // 2],
                                  1 + i % 2) for i in range(3)]
    writers = {
        "path": (lambda p: p.write_text("0,0\n1,0.5\n2,2.25\n-1e3,4\n"), pio.read_path_file),
        "clip": (lambda p: pio.write_clip_file(clip, p),
                 lambda p: pio.read_clip_file(p, DESC, min_actors=2)),
        "manifest": (lambda p: pio.write_manifest(records, p), pio.read_manifest),
        "descriptor": (lambda p: pio.write_descriptor(DESC, p), pio.read_descriptor),
        "feature_config": (lambda p: pio.write_feature_config(FeatureConfig(),
                                                              pio.ExtractionOptions(), p),
                           pio.read_feature_config),
        "sigfeat1": (lambda p: pio.write_feature_matrix(
            p, rng.standard_normal((3, 4)), (Block("a", 0, 1), Block("b", 1, 3))),
            pio.read_feature_matrix),
        "scaler": (lambda p: pio.write_scaler(FeatureScaler(rng.uniform(0.5, 2, 4)), p),
                   pio.read_scaler),
        "labels": (lambda p: pio.write_labels([0, 3, 1, 2, 0], p), pio.read_labels),
        "partition": (lambda p: pio.write_partition([1.0, 1.75, 1.25], [False, True, False], p),
                      pio.read_partition),
        "signet1": (lambda p: save_model(init_model(4, 2, TrainConfig(), hidden_dim=3), p),
                    load_model),
        # last, so the readers above keep the seed files they had before it
        "sigfeat1_rows": (lambda p: pio.write_feature_matrix(
            p, rng.standard_normal((3, 4)), (Block("a", 0, 1), Block("b", 1, 3))), _read_rows),
    }
    seeds = {}
    for name, (write, read) in writers.items():
        path = root / f"seed.{name}"
        write(path)
        read(path)  # the seed itself is valid
        seeds[name] = (path.read_bytes(), read)
    return seeds


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    return root, _seed_files(root)


@pytest.fixture(scope="module")
def text_file(tmp_path_factory):
    return tmp_path_factory.mktemp("roundtrip") / "file.txt"


@st.composite
def _descriptors(draw):
    """Any descriptor ``read_descriptor`` can return: a priority permutation,
    a mirror map swapping drawn pairs of joints, and class names, stripped,
    non-empty and comma-free, that may hold spaces, ``=`` and ``#``."""
    joints = draw(st.integers(2, 12))
    dim = draw(st.sampled_from((2, 3)))
    order = draw(st.permutations(range(joints)))
    mirror = list(range(joints))
    for i in range(0, 2 * draw(st.integers(0, joints // 2)), 2):
        mirror[order[i]], mirror[order[i + 1]] = order[i + 1], order[i]
    name = st.text(" =#_-.aé1Z\t", min_size=1, max_size=8).map(str.strip).filter(bool)
    return DatasetDescriptor(joint_count=joints, dim=dim,
                             priority=tuple(draw(st.permutations(range(joints)))),
                             mirror=tuple(mirror), horizontal_axis=draw(st.integers(0, dim - 1)),
                             class_names=tuple(draw(st.lists(name, max_size=5))))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(descriptor=_descriptors())
def test_descriptor_round_trips(text_file, descriptor):
    pio.write_descriptor(descriptor, text_file)
    written = text_file.read_bytes()
    assert pio.read_descriptor(text_file) == descriptor
    pio.write_descriptor(pio.read_descriptor(text_file), text_file)
    assert text_file.read_bytes() == written


def _setting_values(cls):
    """Per field of ``cls``: its default and the accepted edges of its bounds
    in ``test_settings``, or both bools for an unbounded (bool) field."""
    return {f.name: st.sampled_from([f.default, *(_edges(cls, f.name)[0] if (cls, f.name) in BOUNDS
                                                  else (True, False))])
            for f in dataclasses.fields(cls)}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(config=st.fixed_dictionaries(_setting_values(FeatureConfig)).map(
           lambda kw: FeatureConfig(**kw)),
       options=st.fixed_dictionaries(_setting_values(pio.ExtractionOptions)).map(
           lambda kw: pio.ExtractionOptions(**kw)))
def test_feature_config_round_trips(text_file, config, options):
    pio.write_feature_config(config, options, text_file)
    written = text_file.read_bytes()
    assert pio.read_feature_config(text_file) == (config, options)
    pio.write_feature_config(*pio.read_feature_config(text_file), text_file)
    assert text_file.read_bytes() == written


# Values for whole u64 fields: the binary headers' counts and lengths.
_EDGES = (0, 1, 2, 255, 2**31, 2**32 - 1, 2**40, 2**59, 2**62, 2**63 - 1, 2**64 - 1)
_POS = st.integers(0, 40) | st.integers(0, 1 << 12)
_MUTATION = st.one_of(
    st.tuples(st.just("set"), _POS, st.integers(0, 255)),
    st.tuples(st.just("insert"), _POS, st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("insert"), _POS,
              st.text("0123456789-+.,e=\n #", min_size=1, max_size=12).map(str.encode)),
    st.tuples(st.just("delete"), _POS, st.integers(1, 16)),
    st.tuples(st.just("truncate"), _POS, st.just(0)),
    st.tuples(st.just("u64"), st.sampled_from((8, 16, 24)) | _POS,  # header fields, or anywhere
              st.sampled_from(_EDGES) | st.integers(0, 2**64 - 1)),
)


def _mutate(data: bytes, mutations) -> bytes:
    buf = bytearray(data)
    for kind, pos, arg in mutations:
        pos %= len(buf) + 1
        if kind == "set" and pos < len(buf):
            buf[pos] = arg
        elif kind == "insert":
            buf[pos:pos] = arg
        elif kind == "delete":
            del buf[pos:pos + arg]
        elif kind == "truncate":
            del buf[pos:]
        elif kind == "u64":
            buf[pos:pos + 8] = struct.pack("<Q", arg)
    return bytes(buf)


@pytest.mark.parametrize("name", ["path", "clip", "manifest", "descriptor", "feature_config",
                                  "sigfeat1", "sigfeat1_rows", "scaler", "labels", "partition",
                                  "signet1"])
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(mutations=st.lists(_MUTATION, min_size=1, max_size=4))
def test_reader_rejects_mutated_files_cleanly(seeds, name, mutations):
    root, files = seeds
    data, read = files[name]
    path = root / f"mutant.{name}"
    path.write_bytes(_mutate(data, mutations))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        read(path)
    except (FormatError, InputError):
        pass
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    assert peak < 64 * size + MiB, f"{name}: peak {peak} bytes for a {size}-byte file"


def _model_text_edit(path, old: bytes, new: bytes):
    """A SIGNET1 file whose config text has ``old`` replaced by ``new`` of the same length."""
    save_model(init_model(4, 2, TrainConfig(), hidden_dim=3), path)
    data = path.read_bytes()
    at = data.rindex(old)
    path.write_bytes(data[:at] + new + data[at + len(old):])


def _footer_edit(path, old: bytes, new: bytes):
    """A SIGFEAT1 file whose footer has ``old`` replaced by ``new``."""
    pio.write_feature_matrix(path, np.ones((2, 4)), (Block("a", 0, 1), Block("b", 1, 3)))
    data = path.read_bytes()
    assert data.endswith(old)
    path.write_bytes(data[:-len(old)] + new)


# Per text reader: a file with one malformed numeric field, the reader, and that field.
_MALFORMED = {
    "path": (lambda p: p.write_text("0,0\n1,0.5\n2,2.2.5\n"), pio.read_path_file, "2.2.5"),
    "clip": (lambda p: p.write_text("0,0,0,1.0,2.0\n1,0,x1,1.0,2.0\n"),
             lambda p: pio.read_clip_file(p, DESC), "x1"),
    "manifest": (lambda p: p.write_text("c.clip,a,train,1e0\n"), pio.read_manifest, "1e0"),
    "descriptor": (lambda p: p.write_text("joints = 3\ndims = 2\nclasses = a\nmirror = 1,0,two\n"),
                   pio.read_descriptor, "two"),
    "feature_config": (lambda p: p.write_text("pair_level = 2\ndyadic = yes\n"),
                       pio.read_feature_config, "yes"),
    "signet1": (lambda p: _model_text_edit(p, b"max_epochs = 200", b"max_epochs = 2e2"),
                load_model, "2e2"),
    "sigfeat1_footer": (lambda p: _footer_edit(p, b"b 1 3\n", b"b 1 3.0\n"),
                        pio.read_feature_matrix, "3.0"),
    "labels": (lambda p: p.write_text("0\n1\n1.0\n"), pio.read_labels, "1.0"),
    "partition": (lambda p: p.write_text("classes = 2\nmeans = 1.0,1..5\nmulti = 0,1\n"),
                  pio.read_partition, "1..5"),
    "partition_flag": (lambda p: p.write_text("classes = 2\nmeans = 1.0,2.0\nmulti = 0,2\n"),
                       pio.read_partition, "2"),
}


@pytest.mark.parametrize("name", list(_MALFORMED))
def test_a_malformed_field_is_named_with_its_file(tmp_path, name):
    write, read, field = _MALFORMED[name]
    path = tmp_path / f"bad.{name}"
    write(path)
    with pytest.raises(FormatError) as err:
        read(path)
    message = str(err.value)
    assert message.startswith(str(path)), message
    assert repr(field) in message, message
    assert "invalid literal" not in message
