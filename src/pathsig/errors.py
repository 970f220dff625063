"""Exception types shared across the package, and the checks that raise them.

Both exceptions derive from ValueError so callers that do not care about
the distinction can catch a single builtin type.  The CLI maps InputError
to exit status 1 and FormatError to exit status 2.  Each input rule is
written once, here: one check for settings, one for arrays, one for sizes.
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


_BOUNDS = {"ge": (operator.ge, "must be >= {}"), "gt": (operator.gt, "must be > {}"),
           "le": (operator.le, "is more than the {} allowed"), "lt": (operator.lt, "must be < {}")}


def setting(default, **bounds):
    """A settings dataclass field of ``default`` that ``check_settings`` holds
    to ``bounds``: any of ``ge``, ``gt``, ``le`` and ``lt`` (>=, >, <=, <)."""
    return dataclasses.field(default=default, metadata=bounds)


def check_settings(settings) -> None:
    """InputError naming the first field of the dataclass ``settings`` that
    breaks its ``setting`` bounds, or that is a float field and not finite."""
    for field in dataclasses.fields(settings):
        value = getattr(settings, field.name)
        if type(field.default) is float and not math.isfinite(value):
            raise InputError(f"{field.name} = {value} is not finite")
        for bound, limit in field.metadata.items():
            passes, failure = _BOUNDS[bound]
            if not passes(value, limit):
                raise InputError(f"{field.name} = {value} {failure.format(limit)}")


def check_array(values, ndim: int, what: str) -> np.ndarray:
    """``values`` as a float64 array of ``ndim`` axes, none of them empty and
    every entry finite; otherwise an InputError naming ``what``."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != ndim or 0 in arr.shape:
        raise InputError(f"{what} must be a non-empty {ndim}-D array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InputError(f"{what} contains non-finite values")
    return arr


def check_entries(count: int, what: str) -> None:
    """MemoryError, where numpy would raise ValueError, when ``count`` float64
    values pass any array's byte count: every size too large is out of memory."""
    if 8 * count > sys.maxsize:
        raise MemoryError(f"{what}: {count:,} float64 values or more, past any array's size")
