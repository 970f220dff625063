"""Exception types shared across the package, and the checks that raise them.

Both exceptions derive from ValueError so callers that do not care about
the distinction can catch a single builtin type.  The CLI maps InputError
to exit status 1 and FormatError to exit status 2.  Each input rule is
written once, here:

* numbers and settings: ``check_number`` holds a count, level or float to
  ``ge``/``gt``/``le``/``lt`` bounds, and refuses an int given as a float or
  a string rather than truncate it; ``check_settings`` applies it to each
  field a settings dataclass declares with ``setting``;
* arrays: ``check_array`` (float64 or a given dtype, rank, no empty axis,
  finite entries);
* labels: ``check_labels`` (every label one of 0..count-1);
* sizes: ``check_entries`` (a count of float64 values past any array's
  byte count is a MemoryError).
"""

import dataclasses
import math
import operator
import sys

import numpy as np


class InputError(ValueError):
    """A caller-supplied value violates a documented precondition."""


class FormatError(ValueError):
    """A file or byte stream does not match its documented layout.

    Messages should name the offending file and, where possible, the line
    number or byte offset.
    """


def _shown(value, spec: str = "") -> str:
    """``format(value, spec)`` for a message; an int of more than 4,096 bits
    is named by its bit length (Python refuses to print past 4,300 digits)."""
    if isinstance(value, int) and value.bit_length() > 1 << 12:
        return f"an integer of {value.bit_length():,} bits"
    return format(value, spec)


_BOUNDS = {"ge": (operator.ge, "must be >= {}"), "gt": (operator.gt, "must be > {}"),
           "le": (operator.le, "is more than the {} allowed"), "lt": (operator.lt, "must be < {}")}


def setting(default, **bounds):
    """A settings dataclass field of ``default`` that ``check_settings`` holds
    to ``bounds``: any of ``ge``, ``gt``, ``le`` and ``lt`` (>=, >, <=, <)."""
    return dataclasses.field(default=default, metadata=bounds)


def check_number(value, what: str, kind=int, **bounds):
    """``value`` as a Python ``kind`` (int or float) within ``bounds``, any of
    ``ge``, ``gt``, ``le`` and ``lt``; otherwise an InputError naming ``what``.

    An int goes through ``operator.index``, so a float or a string is refused,
    never truncated, and a numpy integer passes; a float must be finite.
    """
    try:  # math.isfinite, like operator.index, takes no string
        finite = kind is int or math.isfinite(value)
        number = operator.index(value) if kind is int else float(value)
    except TypeError:
        expected = "an integer" if kind is int else "a number"
        raise InputError(f"{what} = {value!r} is not {expected}") from None
    except OverflowError:  # an int past any float
        finite = False
    if not finite:
        raise InputError(f"{what} = {_shown(value)} is not finite")
    for bound, limit in bounds.items():
        passes, failure = _BOUNDS[bound]
        if not passes(number, limit):
            raise InputError(f"{what} = {_shown(value)} {failure.format(limit)}")
    return number


def check_settings(settings) -> None:
    """``check_number`` of each int and float field of the dataclass
    ``settings``, by the type of its default, held to its ``setting`` bounds."""
    for field in dataclasses.fields(settings):
        if type(field.default) in (int, float):
            check_number(getattr(settings, field.name), field.name, type(field.default),
                         **field.metadata)


def check_array(values, ndim: int, what: str, dtype=np.float64) -> np.ndarray:
    """``values`` as an array of ``dtype`` (float64 by default; not copied when
    it is one) of ``ndim`` axes, none of them empty and every entry finite;
    otherwise an InputError naming ``what``."""
    arr = np.asarray(values, dtype=dtype)
    if arr.ndim != ndim or 0 in arr.shape:
        raise InputError(f"{what} must be a non-empty {ndim}-D array, got shape {arr.shape}")
    if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):  # NaN propagates; no bool copy
        raise InputError(f"{what} contains non-finite values")
    return arr


def check_labels(labels, count: int, what: str) -> np.ndarray:
    """``labels`` as an int64 array whose every label is one of 0..count-1;
    otherwise an InputError naming ``what`` and the first label that is not."""
    y = np.asarray(labels)
    bad = ~np.isin(y, np.arange(count))
    if bad.any():
        raise InputError(f"{what}: label {y[bad.nonzero()][0]} is outside 0..{count - 1}")
    return y.astype(np.int64)


def check_entries(count: int, what: str) -> None:
    """MemoryError, where numpy would raise ValueError, when ``count`` float64
    values pass any array's byte count: every size too large is out of memory."""
    if 8 * count > sys.maxsize:
        raise MemoryError(f"{what}: {_shown(count, ',')} float64 values or more, "
                          "past any array's size")
