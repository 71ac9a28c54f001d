"""The input policy: the one place that decides what pcomb takes as a number,
an object, a JSON value or a size.

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
An **object** is an instance of its pcomb class.  A **size** (a support, a
convolution, a test count) past ``SUPPORT_CAP`` is refused unallocated.
A plain ``int`` or ``float`` passes at once, a 1-D int or float ndarray on
its dtype (and one ``isfinite`` where entries must be finite), a list of
plain 64-bit ints that ``integers`` reads as it is, and any other list entry
by entry.  pcomb's own named-family models and p-value
distributions skip all this: valid as built, read-only.
"""

from __future__ import annotations

import math
import reprlib
import sys
from collections.abc import Mapping, Sequence

import numpy as np

INT64_MAX = 2 ** 63 - 1
_INT64_MIN = -2 ** 63
_FLOAT_MAX = int(sys.float_info.max)
# the most points a support or a test count may hold (Poisson at rate 1e9
# would need 7.45 GiB; a replicate holds about 64 B per test)
SUPPORT_CAP = 10_000_000
_JSON_TYPES = {"object": Mapping, "list": (list, tuple)}


def _refuse(name: str, what: str, value, show=reprlib.repr) -> ValueError:
    """``<name> must be <what>, got <value>``, the value as ``show`` writes it."""
    return ValueError(f"{name} must be {what}, got {show(value)}")


def _refuse_support(points) -> ValueError:
    """The one refusal of a size: a count, or a bound such as "over 1e+300"."""
    return ValueError(f"the support would have {points} points, more than the cap of {SUPPORT_CAP}")


def cap_support(points: int) -> None:
    """Refuse, before anything is allocated, a support of more than SUPPORT_CAP points."""
    if points > SUPPORT_CAP:
        raise _refuse_support(points)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _instance(value, cls: type, name: str, what: str):
    """``value``, once found to be a ``cls``: the check of every parameter
    that takes one pcomb object, such as a model, a distribution or a scenario."""
    if not isinstance(value, cls):
        raise _refuse(name, what, value)
    return value


def _json(value, kind: str, what: str, keys: Sequence[str] = ()):
    """``value``, which must be a JSON ``kind`` ("object" or "list") holding
    ``keys``; its numbers go through this policy as a library caller's do."""
    if not isinstance(value, _JSON_TYPES[kind]):
        raise _refuse(what, f"a JSON {kind}", value)
    for key in keys:
        _require(key in value, f"{what} needs the key {key!r}")
    return value


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
        raise _refuse(name, "a positive finite number", v, str)
    if finite and not math.isfinite(v):
        raise _refuse(name, what, v, str)
    return v


def probability(value, name: str) -> float:
    v = number(value, name, finite=False)
    if not 0.0 < v < 1.0:   # NaN fails too
        raise _refuse(name, "in (0, 1)", v, str)
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
        raise _refuse(name, f">= {minimum}", v, str)
    if maximum is not None and v > maximum:
        raise _refuse(name, f"<= {maximum}", v, str)
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


def integers(value, name: str) -> list[int]:
    """``numbers(value, name, integral=True).tolist()``: a list of plain ints
    in the int64 range, with no bools, is returned as it is."""
    if type(value) is list and all(type(v) is int and _INT64_MIN <= v <= INT64_MAX
                                   for v in value):
        return value
    return numbers(value, name, integral=True).tolist()
