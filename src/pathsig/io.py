"""Readers and writers for the package's on-disk formats.

Text formats (paths, clips, manifests, descriptors, labels, key-value
config) are line-oriented, diffable, and tool-free to produce.  The
feature matrix format is binary for bulk float data:

    SIGFEAT1 <rows u64 LE> <cols u64 LE> <rows*cols f64 LE row-major>
    <text footer: one "name offset width" line per layout block>

A non-empty footer tiles ``[0, cols)`` in order.  ``FeatureMatrixWriter``
is the one SIGFEAT1 writer: it writes the header with a row count of 0,
appends rows as they come, can rewrite the rows in place block by block
(``map_rows``), and on success ``close`` patches the row count and appends
the footer.  ``write_feature_matrix`` is its one one-shot caller, and
``write_scaler`` is one call of it.  Every writer writes where it is told,
and only the commands publish: each file a command writes goes through
``published``, the one code that renames or deletes a file, which yields
a temporary name and renames it onto the file's own only when the block
succeeds.
``FeatureRows`` is the one SIGFEAT1 reader: ``read_feature_matrix``,
``read_scaler`` and ``map_rows`` read it a block at a time, and
``classifier.train`` and ``forward`` a chunk of some rows at a time.

Malformed input raises FormatError naming the file and the line number or
byte offset.  ``_data_lines`` owns the rules of a text file's lines (blanks,
``#`` comments, a file with no data line) and ``_parse_key_values`` those of
its keys (unknown, duplicate, missing).  Readers only parse: every text
field goes through ``_parse``, which reads one line's int, float or bool
fields at once and names the field that is none, and every reader builds
its value through ``_checked``, which turns the InputError of a value that
breaks a rule (a NaN coordinate or weight, a setting out of bounds, more
joints or feature columns than ``skeleton`` allows) into a FormatError
starting with the file's path.  Every writer/reader pair round-trips bit-exactly.  Binary
readers check each size from a header against the file size before they
allocate, and read arrays in place; the SIGNET1 model reader in
``classifier`` shares them, ``_checked`` and the ``key = value`` settings
codec (``_parse_settings``, ``_format_settings``).
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import math
import os
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InputError, check_array, check_number
from .skeleton import (Block, DatasetDescriptor, ExtractionOptions, FeatureConfig, FeatureScaler,
                       SkeletonClip)

__all__ = [
    "ManifestRecord",
    "read_path_file",
    "read_clip_file",
    "write_clip_file",
    "read_manifest",
    "write_manifest",
    "read_descriptor",
    "write_descriptor",
    "read_feature_config",
    "write_feature_config",
    "ExtractionOptions",
    "published",
    "FeatureMatrixWriter",
    "FeatureRows",
    "read_feature_matrix",
    "write_feature_matrix",
    "read_labels",
    "write_labels",
    "read_scaler",
    "write_scaler",
    "read_partition",
    "write_partition",
]

_FEAT_MAGIC = b"SIGFEAT1"
_FEAT_HEADER = len(_FEAT_MAGIC) + 16  # magic, rows, cols
_BLOCK_BYTES = 1 << 18  # FeatureRows.blocks reads this many bytes at a time, at least one row
_BOOLS = {"true": True, "false": False, "1": True, "0": False}
_EXPECTED = {int: "an integer", float: "a number", bool: "true, false, 1 or 0"}
_MAX_FIELD = sys.int_info.default_max_str_digits  # 4,300: int() reads no longer literal


def _data_lines(path, what=None):
    """Yield ("path:line_number", stripped_text) skipping blanks and # comments;
    given ``what``, a file with no such line is a FormatError naming ``what``."""
    found = False
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            where = f"{path}:{lineno}"
            text = _decode(raw, where, "utf-8").strip()
            if not text or text.startswith("#"):
                continue
            found = True
            yield where, text
    if what and not found:
        raise FormatError(f"{path}: no {what} found")


def _decode(data: bytes, where: str, encoding: str = "ascii") -> str:
    """``data`` as text, or FormatError naming ``where`` and the offending byte."""
    try:
        return data.decode(encoding)
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"{where}: byte 0x{data[exc.start]:02x} at position {exc.start} is not {encoding} text"
        ) from None


def _parse(texts, kinds, where: str, what: str) -> list:
    """The fields ``texts`` of one line read as ``kinds``: int, float or bool,
    one kind for every field or a sequence of one per field.  A field that is
    not its kind's literal (a bool is true, false, 1 or 0, in any case) is a
    FormatError naming ``where``, ``what`` and the field's text, or its
    length when it is longer than ``_MAX_FIELD`` characters."""
    if isinstance(kinds, type):
        kinds = (kinds,) * len(texts)
    values = []
    try:
        for kind, text in zip(kinds, texts):
            values.append(_BOOLS[text.strip().lower()] if kind is bool else kind(text))
    except (KeyError, ValueError):
        problem = (f"{what} of {len(text):,} characters is too long" if len(text) > _MAX_FIELD
                   else f"malformed {what} {text!r}")
        raise FormatError(f"{where}: {problem}, expected {_EXPECTED[kind]}") from None
    return values


def _checked(where, build, *args, **kwargs):
    """``build(*args, **kwargs)``, a value built from a file's contents; an
    InputError it raises becomes a FormatError starting with ``where``."""
    try:
        return build(*args, **kwargs)
    except InputError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def read_path_file(path) -> np.ndarray:
    """Read a path: one sample per line, comma-separated coordinates.

    The dimension is inferred from the first data line; blank lines and
    ``#`` comments are ignored.
    """
    rows = []
    dim = None
    for where, text in _data_lines(path, "samples"):
        fields = text.split(",")
        if dim is None:
            dim = len(fields)
        elif len(fields) != dim:
            raise FormatError(f"{where}: expected {dim} coordinates, got {len(fields)}")
        rows.append(_parse(fields, float, where, "coordinate"))
    return _checked(path, check_array, rows, 2, "path")


def read_clip_file(path, descriptor: DatasetDescriptor, label: int | None = None,
                   min_actors: int = 1) -> SkeletonClip:
    """Read a clip, with its file path as its clip id: rows of frame, actor,
    joint, then d coordinates.

    Indices are 0-based; entries absent from the file are marked invalid.
    Frame and actor counts come from the largest indices seen
    (``min_actors`` keeps room for actors that never appear).  Frames x
    actors may not exceed the byte count of the file's joint rows
    (comments and blank lines do not count), which bounds the dense array
    by what the file can describe before it is allocated.
    """
    min_actors = check_number(min_actors, "min_actors", ge=1)
    d = descriptor.dim
    N = descriptor.joint_count
    entries = {}
    max_frame = -1
    max_actor = -1
    size = 0  # bytes of joint rows
    kinds = (int,) * 3 + (float,) * d
    for where, text in _data_lines(path, "joint rows"):
        size += len(text) + 1
        fields = text.split(",")
        if len(fields) != 3 + d:
            raise FormatError(
                f"{where}: expected frame, actor, joint + {d} coordinates, "
                f"got {len(fields)} fields"
            )
        frame, actor, joint, *coords = _parse(fields, kinds, where, "field")
        if frame < 0 or actor < 0 or joint < 0:
            raise FormatError(f"{where}: negative index in {text!r}")
        if joint >= N:
            raise FormatError(f"{where}: joint index {joint} out of range for {N} joints")
        key = (frame, actor, joint)
        if key in entries:
            raise FormatError(f"{where}: duplicate entry for frame {frame}, "
                              f"actor {actor}, joint {joint}")
        entries[key] = coords
        max_frame = max(max_frame, frame)
        max_actor = max(max_actor, actor)
    F = max_frame + 1
    A = max(max_actor + 1, min_actors)
    if F * A > size:
        raise FormatError(
            f"{path}: frame index {max_frame}, actor index {max_actor}: {F} frames x "
            f"{A} actors is more than the file's {size} bytes of joint rows can describe"
        )
    joints = np.zeros((F, A, N, d))
    valid = np.zeros((F, A, N), dtype=bool)
    for (frame, actor, joint), coords in entries.items():
        joints[frame, actor, joint] = coords
        valid[frame, actor, joint] = True
    return _checked(path, SkeletonClip, joints, valid, label=label, clip_id=str(path))


def write_clip_file(clip: SkeletonClip, path) -> None:
    """Write a clip's valid entries, rows sorted by (frame, actor, joint)."""
    with open(path, "w", encoding="utf-8") as f:
        for frame in range(clip.frame_count):
            for actor in range(clip.actor_count):
                for joint in range(clip.joint_count):
                    if not clip.valid[frame, actor, joint]:
                        continue
                    coords = ",".join(f"{v:.17g}" for v in clip.joints[frame, actor, joint])
                    f.write(f"{frame},{actor},{joint},{coords}\n")


@dataclass(frozen=True)
class ManifestRecord:
    """One dataset entry: clip file, class name, split tag, actor count."""

    clip_path: str
    label_name: str
    split: str
    actor_count: int


def read_manifest(path) -> list[ManifestRecord]:
    """Read manifest rows: clip path, label name, split, actor count.

    Clip paths are resolved relative to the manifest's directory.
    """
    base = os.path.dirname(os.path.abspath(path))
    records = []
    for where, text in _data_lines(path, "manifest rows"):
        fields = [v.strip() for v in text.split(",")]
        if len(fields) != 4:
            raise FormatError(
                f"{where}: expected clip path, label, split, actor count; "
                f"got {len(fields)} fields"
            )
        clip_path, label_name, split, count_text = fields
        if split not in ("train", "test"):
            raise FormatError(f"{where}: split must be 'train' or 'test', got {split!r}")
        actor_count = _parse([count_text], int, where, "actor count")[0]
        _checked(where, check_number, actor_count, "actor count", ge=1)
        if not os.path.isabs(clip_path):
            clip_path = os.path.join(base, clip_path)
        records.append(ManifestRecord(clip_path, label_name, split, actor_count))
    return records


def write_manifest(records, path) -> None:
    base = os.path.dirname(os.path.abspath(path))
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            rel = os.path.relpath(rec.clip_path, base)
            f.write(f"{rel},{rec.label_name},{rec.split},{rec.actor_count}\n")


def _parse_key_values(lines, path, keys, required=()) -> dict[str, str]:
    """``key = value`` fields of the (where, text) pairs of file ``path``: each key one of
    ``keys`` and given once, and each of ``required`` given, or a FormatError naming the
    key's line (``where``), or ``path`` for a missing key."""
    fields = {}
    for where, text in lines:
        if "=" not in text:
            raise FormatError(f"{where}: expected 'key = value', got {text!r}")
        key, _, value = text.partition("=")
        key = key.strip()
        if key not in keys:
            raise FormatError(f"{where}: unknown key {key!r}")
        if key in fields:
            raise FormatError(f"{where}: duplicate key {key!r}")
        fields[key] = value.strip()
    for key in required:
        if key not in fields:
            raise FormatError(f"{path}: missing key {key!r}")
    return fields


def read_descriptor(path) -> DatasetDescriptor:
    """Read a skeleton descriptor key-value file.

    Required keys: joints (2 to 1000), dims, classes.  Optional: priority, mirror
    (identity when omitted), horizontal_axis (0 when omitted).
    """
    required = ("joints", "dims", "classes")
    fields = _parse_key_values(_data_lines(path), path,
                               required + ("priority", "mirror", "horizontal_axis"), required)
    joints, dims = (_parse([fields[key]], int, path, key)[0] for key in ("joints", "dims"))
    axis = _parse([fields.get("horizontal_axis", "0")], int, path, "horizontal_axis")[0]
    priority, mirror = (tuple(_parse(fields[key].split(","), int, path, key) if fields.get(key)
                              else ()) for key in ("priority", "mirror"))
    classes = tuple(v.strip() for v in fields["classes"].split(",") if v.strip())
    return _checked(f"{path}: invalid descriptor", DatasetDescriptor, joint_count=joints, dim=dims,
                    priority=priority, mirror=mirror, horizontal_axis=axis, class_names=classes)


def write_descriptor(descriptor: DatasetDescriptor, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"joints = {descriptor.joint_count}\n")
        f.write(f"dims = {descriptor.dim}\n")
        f.write(f"priority = {','.join(map(str, descriptor.priority))}\n")
        f.write(f"mirror = {','.join(map(str, descriptor.mirror))}\n")
        f.write(f"horizontal_axis = {descriptor.horizontal_axis}\n")
        f.write(f"classes = {','.join(descriptor.class_names)}\n")


def _parse_settings(lines, where, *classes, complete: bool = False) -> tuple:
    """The settings dataclasses ``classes`` built from the ``key = value`` lines
    of ``where`` (``_parse_key_values`` pairs): each key a field name, parsed by
    the type of its default; an omitted key is at its default, or with
    ``complete`` a FormatError.  A malformed or out-of-bounds value is a
    FormatError naming ``where``."""
    schema = {f.name: (cls, type(f.default)) for cls in classes for f in dataclasses.fields(cls)}
    kwargs = {cls: {} for cls in classes}
    for key, value in _parse_key_values(lines, where, schema, schema if complete else ()).items():
        cls, kind = schema[key]
        kwargs[cls][key] = _parse([value], kind, where, key)[0]
    return tuple(_checked(where, cls, **kwargs[cls]) for cls in classes)


def _format_settings(*settings) -> str:
    """A ``key = value`` line per field of each dataclass, no final newline."""
    return "\n".join(f"{field.name} = {str(getattr(s, field.name)).lower()}"
                     for s in settings for field in dataclasses.fields(s))


def read_feature_config(path) -> tuple[FeatureConfig, ExtractionOptions]:
    """Read feature and extraction settings from a key-value file.

    The keys are the field names of FeatureConfig and ExtractionOptions,
    each optional and held to the bounds its field declares.
    """
    return _parse_settings(_data_lines(path), path, FeatureConfig, ExtractionOptions)


def write_feature_config(config: FeatureConfig, options: ExtractionOptions, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(_format_settings(config, options) + "\n")


def _naming(path, fn, *args):
    """``fn(*args)``; an OSError it raises is raised again naming ``path`` alone."""
    try:
        return fn(*args)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None


@contextlib.contextmanager
def published(path):
    """A temporary name next to ``path``, created on entry: renamed onto ``path`` if the block
    succeeds, deleted if the block or the rename raises.  A failed creation or rename names
    ``path``.  Entered for every output before any work, these fail first on an output that
    cannot be written and rename all or none; a rename failing after others did (as a crash)
    is out of scope.  The temporary is created exclusively: two outputs that are one file
    (``m`` and ``./m``) fail on entry."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    _naming(path, open, tmp, "xb").close()
    try:
        yield tmp
        _naming(path, os.replace, tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


class FeatureMatrixWriter:
    """A SIGFEAT1 file written row by row to ``path``; as a context manager it
    finishes the file (``close``) only when the block succeeds."""

    def __init__(self, path, cols: int, layout=()):
        self.path, self.layout, self.rows = os.fspath(path), layout, 0
        self.cols = check_number(cols, "cols", ge=0)
        self._file = open(self.path, "w+b")
        self._file.write(_FEAT_MAGIC + struct.pack("<QQ", 0, self.cols))

    def write(self, rows) -> None:
        """Append one row, or a (rows, cols) block."""
        block = np.atleast_2d(np.ascontiguousarray(rows, dtype="<f8"))
        if block.ndim != 2 or block.shape[1] != self.cols:
            raise InputError(f"{self.path}: rows of shape {block.shape} need {self.cols} columns")
        self._file.write(block.data)
        self.rows += block.shape[0]

    def map_rows(self, fn) -> None:
        """Replace each block of the rows written so far by ``fn(block)``, in
        place; the blocks are ``FeatureRows.blocks`` of the file."""
        self._patch_rows()  # the file is now a SIGFEAT1 file without a footer
        with FeatureRows(self.path) as rows:
            offset = _FEAT_HEADER
            for block in rows.blocks():
                self._file.seek(offset)
                self._file.write(np.ascontiguousarray(fn(block), dtype="<f8").data)
                offset += block.nbytes
        self._file.seek(0, os.SEEK_END)

    def _patch_rows(self) -> None:
        self._file.seek(len(_FEAT_MAGIC))
        self._file.write(struct.pack("<Q", self.rows))
        self._file.flush()

    def close(self) -> None:
        """Append the footer, patch the row count and close the file."""
        footer = "".join(f"{b.name} {b.offset} {b.width}\n" for b in self.layout)
        self._file.write(footer.encode("ascii"))
        self._patch_rows()
        self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.close()
        self._file.close()  # a no-op after close


def write_feature_matrix(path, matrix: np.ndarray, layout=()) -> None:
    """Write a (rows, cols) float matrix in the SIGFEAT1 layout."""
    arr = np.asarray(matrix)
    if arr.ndim != 2:
        raise InputError(f"feature matrix must be 2-D, got shape {arr.shape}")
    with FeatureMatrixWriter(path, arr.shape[1], layout) as writer:
        writer.write(arr)


def _truncated(path, what: str, offset: int, count: int, size: int) -> FormatError:
    return FormatError(
        f"{path}: truncated while reading {what}: wanted {count} bytes at offset "
        f"{offset}, up to byte {offset + count}, but the file has {size} bytes"
    )


def _read_exact(f, count: int, path, what: str, buffer=bytearray):
    """Read ``count`` bytes into ``buffer(count)``, allocated only once the file is
    known to hold them, so a count from a hostile header is never allocated."""
    offset = f.tell()
    size = os.fstat(f.fileno()).st_size
    data = buffer(count) if offset + count <= size else None
    if data is None or f.readinto(data) != count:
        raise _truncated(path, what, offset, count, size)
    return data


def _array_bytes(shape, path, what: str, itemsize: int = 8) -> int:
    """Bytes of an array of ``shape`` with ``itemsize``-byte entries; a shape
    numpy cannot make, even one with no entries, is a FormatError."""
    if itemsize * math.prod(n for n in shape if n) > np.iinfo(np.intp).max:
        raise FormatError(f"{path}: {what} shape {shape} is too large for an array")
    return itemsize * math.prod(shape)


def _read_array(f, shape, path, what: str, dtype) -> np.ndarray:
    """Read a row-major array of ``shape`` and ``dtype`` into a fresh array."""
    shape = tuple(int(n) for n in shape)  # Python ints: a hostile product cannot wrap
    dtype = np.dtype(dtype)
    return _read_exact(f, _array_bytes(shape, path, what, dtype.itemsize), path, what,
                       lambda _: np.empty(shape, dtype=dtype))


def _parse_footer(footer: str, cols: int, path) -> tuple[Block, ...]:
    """The layout blocks of a SIGFEAT1 footer, which must tile ``[0, cols)`` in order."""
    blocks, end = [], 0
    for lineno, line in enumerate(footer.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise FormatError(f"{path}: malformed footer line {lineno}: {line!r}")
        block = Block(parts[0], *_parse(parts[1:], int, f"{path}: footer line {lineno}", "column"))
        if block.offset != end or block.width < 0:
            raise FormatError(f"{path}: footer line {lineno}: block {line!r} must start at "
                              f"column {end} and have a width >= 0")
        end += block.width
        blocks.append(block)
    if blocks and end != cols:
        raise FormatError(f"{path}: footer blocks end at column {end}, not at {cols}")
    return tuple(blocks)


class FeatureRows:
    """A SIGFEAT1 file open for positional reads of its rows.

    Opening checks the magic, the header, the payload size and the footer
    once, before anything sized from the header is allocated: the declared
    rows x cols must fit the file, and a non-empty footer must tile
    ``[0, cols)`` in order.  ``shape`` is (rows, cols) and ``layout`` the
    footer's blocks.  ``read``, ``blocks``, ``rows[batch, r0:r1]`` and a
    ``rows[batch]`` view then read with ``os.preadv``; a file cut short
    since it was opened is a FormatError.  The file is read, not mapped: mapped pages that a
    process touches count toward its resident memory, page-cache pages
    filled by a read do not.  As a context manager it closes the file.
    """

    def __init__(self, path):
        self.path, self._rows = path, None  # _rows: file row of each row of a ``rows[batch]`` view
        self._file = open(path, "rb")
        try:
            f = self._file
            magic = _read_exact(f, len(_FEAT_MAGIC), path, "magic")
            if magic != _FEAT_MAGIC:
                raise FormatError(f"{path}: bad magic {bytes(magic)!r}, expected {_FEAT_MAGIC!r}")
            self.shape = struct.unpack("<QQ", _read_exact(f, 16, path, "header"))
            count = _array_bytes(self.shape, path, "data")
            size = os.fstat(f.fileno()).st_size
            if _FEAT_HEADER + count > size:
                raise _truncated(path, "data", _FEAT_HEADER, count, size)
            f.seek(_FEAT_HEADER + count)
            self.layout = _parse_footer(_decode(f.read(), f"{path} footer"), self.shape[1], path)
        except BaseException:
            self._file.close()
            raise

    def _pread(self, out: np.ndarray, offset: int) -> None:
        view = memoryview(out).cast("B") if out.size else memoryview(b"")  # no cast of empty shapes
        while view.nbytes:
            got = os.preadv(self._file.fileno(), [view], offset)
            if not got:
                raise FormatError(f"{self.path}: the file ends at byte {offset}, inside its rows")
            view, offset = view[got:], offset + got

    def read(self, start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
        """Rows [start, stop), every column, into ``out`` (a C-contiguous
        (stop - start, cols) float64 array) or a fresh array."""
        if not 0 <= start <= stop <= self.shape[0]:
            raise InputError(f"{self.path}: cannot read rows [{start}, {stop}) of {self.shape[0]}")
        if out is None:
            out = np.empty((stop - start, self.shape[1]), dtype="<f8")
        if self._rows is not None:
            return self._pread_rows(self._rows[start:stop], 0, out)
        self._pread(out, _FEAT_HEADER + 8 * self.shape[1] * start)
        return out

    def blocks(self):
        """Yield the rows in order, about ``_BLOCK_BYTES`` at a time (at least
        one row), each block read into one reused buffer that the next block
        overwrites."""
        rows, cols = self.shape
        step = max(1, _BLOCK_BYTES // (8 * cols)) if cols else max(1, rows)
        buffer = np.empty((min(step, rows), cols), dtype="<f8")
        for start in range(0, rows, step):
            yield self.read(start, min(start + step, rows), buffer[:rows - start])

    def __getitem__(self, key):
        """``rows[batch]``: the rows ``batch`` (indices or a slice), in that
        order, as a view sharing this file.  ``rows[batch, r0:r1]``: their
        columns [r0, r1) as the matrix gives them (a fresh C-contiguous
        float64 array); one read per row.  Slices follow numpy's rules with a
        step of 1; any other key is an InputError."""
        if not isinstance(key, tuple):
            view = copy.copy(self)
            view._rows = self._file_rows(key)
            view.shape = (view._rows.size, self.shape[1])
            return view
        if not (len(key) == 2 and isinstance(key[1], slice) and key[1].step in (None, 1)):
            raise InputError(f"{self.path}: rows are indexed as rows[batch, r0:r1], got {key!r}")
        r0, r1, _ = key[1].indices(self.shape[1])
        file_rows = self._file_rows(key[0])
        return self._pread_rows(file_rows, r0, np.empty((file_rows.size, max(r1 - r0, 0))))

    def _pread_rows(self, file_rows: np.ndarray, r0: int, out: np.ndarray) -> np.ndarray:
        """Fill row i of ``out`` from column r0 on of file row ``file_rows[i]``."""
        stride, first = 8 * self.shape[1], _FEAT_HEADER + 8 * r0
        for i, row in enumerate(file_rows.tolist()):
            self._pread(out[i], first + stride * row)
        return out

    def _file_rows(self, rows) -> np.ndarray:
        if isinstance(rows, slice) and rows.step in (None, 1):
            rows = np.arange(*rows.indices(self.shape[0]))
        rows = np.asarray(rows)
        if rows.ndim != 1 or rows.size and (rows.dtype.kind not in "iu"
                                            or not 0 <= rows.min() <= rows.max() < self.shape[0]):
            raise InputError(f"{self.path}: rows are a slice of step 1 or a list of integers "
                             f"within 0..{self.shape[0] - 1}")
        rows = rows.astype(np.int64)
        return rows if self._rows is None else self._rows[rows]

    def close(self) -> None:
        if self._rows is None:  # a ``rows[batch]`` view leaves its parent's file open
            self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()


def read_feature_matrix(path) -> tuple[np.ndarray, tuple[Block, ...]]:
    """Read a SIGFEAT1 file whole; returns (matrix, layout blocks).

    ``FeatureRows`` checks the header against the file size before any
    payload is read, so a hostile header cannot trigger a huge allocation.
    """
    with FeatureRows(path) as rows:
        return rows.read(0, rows.shape[0]), rows.layout


def read_labels(path) -> np.ndarray:
    """Read labels: one integer per line."""
    values = []
    for where, text in _data_lines(path, "labels"):
        values += _parse([text], int, where, "label")
    return np.array(values, dtype=np.int64)


def write_labels(labels, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for v in labels:
            f.write(f"{int(v)}\n")


def write_scaler(scaler: FeatureScaler, path) -> None:
    """Persist a scaler as a single-row SIGFEAT1 matrix."""
    write_feature_matrix(path, scaler.scale[None], (Block("scale", 0, scaler.scale.size),))


def read_scaler(path) -> FeatureScaler:
    with FeatureRows(path) as rows:
        if rows.shape[0] != 1:
            raise FormatError(f"{path}: scaler file must have exactly one row, got {rows.shape[0]}")
        scale = rows.read(0, 1)[0]
    return _checked(f"{path}: invalid scaler", FeatureScaler, scale)


def write_partition(means, multi, path) -> None:
    """Persist the two-stage class split as a key-value file."""
    means = np.asarray(means, dtype=np.float64)
    multi = np.asarray(multi, dtype=bool)
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"classes = {means.size}\n")
        f.write(f"means = {','.join(f'{v:.17g}' for v in means)}\n")
        f.write(f"multi = {','.join(str(int(v)) for v in multi)}\n")


def read_partition(path):
    """Read the two-stage class split; returns (means, multi) arrays."""
    keys = ("classes", "means", "multi")
    fields = _parse_key_values(_data_lines(path), path, keys, keys)
    count = _parse([fields["classes"]], int, path, "classes")[0]
    means = np.array(_parse(fields["means"].split(","), float, path, "means"))
    multi = np.array(_parse(fields["multi"].split(","), bool, path, "multi"))
    if means.shape != (count,) or multi.shape != (count,):
        raise FormatError(
            f"{path}: partition arrays must have length {count}, "
            f"got {means.size} means and {multi.size} flags"
        )
    return means, multi
