"""The input policy: the one place that decides what pcomb takes as a number.

Every public entry point passes its numeric arguments through these
coercers once, on entry.  A **number** is an ``int``, ``float``,
``np.integer`` or ``np.floating`` in the float range, returned as a float;
bools, strings, ``None`` and all else are refused, and so are NaN and +-inf
where a finite value is required.  An **integer** is an ``int``,
``np.integer`` or integral float of magnitude at most 2**53 (``5.0`` is 5),
returned as an int.  A **probability** is a number in (0, 1).  A **list**
(of numbers, method names or distributions) is a list, tuple or 1-D ndarray;
a string, ``None``, a bare scalar or an array of another rank is not.  A
refusal is a one-line ValueError: ``<name> must be <what>, got <repr>``.
A plain ``int`` or ``float`` passes at once, a 1-D int or float ndarray on
its dtype (and one ``isfinite`` where entries must be finite), and any other
list entry by entry.  pcomb's own named-family models and p-value
distributions skip all this: valid as built, read-only.
"""

from __future__ import annotations

import math
import reprlib
import sys
from collections.abc import Sequence

import numpy as np

INT64_MAX = 2 ** 63 - 1
_FLOAT_MAX = int(sys.float_info.max)


def _refuse(name: str, what: str, value) -> ValueError:
    return ValueError(f"{name} must be {what}, got {reprlib.repr(value)}")


def number(value, name: str, *, positive: bool = False, finite: bool = True) -> float:
    """A number, finite unless ``finite`` is False, and > 0 if ``positive``."""
    what = "a finite number" if finite else "a number"
    v = value
    if type(value) is not float:
        if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
            raise _refuse(name, what, value)
        try:
            v = float(value)
        except OverflowError:   # an int beyond the float range
            raise _refuse(name, what, value) from None
    if positive and not 0.0 < v < math.inf:
        raise ValueError(f"{name} must be a positive finite number, got {v}")
    if finite and not math.isfinite(v):
        raise ValueError(f"{name} must be {what}, got {v}")
    return v


def probability(value, name: str) -> float:
    v = number(value, name, finite=False)
    if not 0.0 < v < 1.0:   # NaN fails too
        raise ValueError(f"{name} must be in (0, 1), got {v}")
    return v


def integer(value, name: str, minimum: int | None = None, maximum: int | None = None) -> int:
    if type(value) is int:
        v = value
    elif isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        v = int(value)
    elif (isinstance(value, (float, np.floating)) and math.isfinite(value)
          and float(value).is_integer() and abs(value) <= 2 ** 53):
        v = int(value)
    else:
        raise _refuse(name, "an integer", value)
    if not -_FLOAT_MAX <= v <= _FLOAT_MAX:
        raise _refuse(name, "a finite number", value)
    if minimum is not None and v < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {v}")
    if maximum is not None and v > maximum:
        raise ValueError(f"{name} must be <= {maximum}, got {v}")
    return v


def sequence(value, name: str, noun: str = "numbers") -> list:
    """The entries of a list, tuple or 1-D ndarray; a string, a scalar or an
    array of another rank is refused as not a list of ``noun``."""
    if (isinstance(value, (str, bytes)) or not isinstance(value, (Sequence, np.ndarray))
            or getattr(value, "ndim", 1) != 1):
        raise _refuse(name, f"a list of {noun}", value)
    return value.tolist() if isinstance(value, np.ndarray) else list(value)


def numbers(value, name: str, *, integral: bool = False, finite: bool = True) -> np.ndarray:
    """A 1-D float64 array of numbers (finite unless ``finite`` is False), or
    an int64 array when ``integral``."""
    dtype = np.int64 if integral else np.float64
    if (type(value) is np.ndarray and value.ndim == 1
            and value.dtype.kind in ("i" if integral else "fiu")
            and (not finite or value.dtype.kind != "f" or np.isfinite(value).all())):
        return value if value.dtype.type is dtype else value.astype(dtype)
    value = sequence(value, name)   # the loop below names the entry that fails
    out = np.empty(len(value), dtype=dtype)
    for i, v in enumerate(value):
        try:
            out[i] = integer(v, name) if integral else number(v, name, finite=finite)
        except (ValueError, OverflowError):   # storing past 64 bits overflows
            what = "64-bit integers" if integral else "finite numbers" if finite else "numbers"
            raise _refuse(f"{name} entries", what, v) from None
    return out
