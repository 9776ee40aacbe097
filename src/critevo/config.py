"""One strict reader for every JSON document critevo accepts.

A table maps each allowed key of a document to a :class:`Key`.  :func:`read`
rejects unknown keys, missing required keys, wrong JSON types (a bool is
not an int, a float is not an int, a string is not a bool), non-finite
numbers and out-of-range values.  :func:`load_json` also refuses the
NaN/Infinity tokens.  No numpy here: parsing stays light.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Mapping

from .errors import ValidationError

REQUIRED = object()

#: how a decay fit judges its slope against the target (the decay module's
#: ``mode``); defined here so the CLI's decay table reads it without numpy
FIT_MODES = ("two-sided", "at-least-as-fast")
#: the largest test-function smooth_order: C(2o + 1, o), a coefficient of the
#: descent polynomial, leaves the double range at o = 515
MAX_SMOOTH_ORDER = 500

_NAMES = {"int": "a JSON integer", "number": "a finite number", "bool": "true or false",
          "str": "a string", "rational": "a rational (number or \"a/b\" string)",
          "object": "an object", "list": "a list"}


@dataclass(frozen=True)
class Key:
    """One allowed key: JSON type, default and range predicate.

    ``kind`` is a type of ``_NAMES``, a list of one (``"number[]"``, read
    as a tuple) or alternatives joined by ``|``; numbers read as floats,
    rationals as Fractions.  ``words`` are strings accepted as values; a
    None default accepts null.  ``rule`` says what ``ok`` demands.
    """

    kind: str
    default: Any = REQUIRED
    ok: Callable[[Any], bool] | None = None
    rule: str = ""
    words: tuple[str, ...] = ()


def as_fraction(value) -> Fraction:
    """Coerce ints, strings like '7/3', and floats equal to a fraction a/b, b <= 10**9."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValidationError("boolean is not a rational number")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"cannot parse rational from {value!r}") from exc
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValidationError("rational value must be finite")
        frac = Fraction(value).limit_denominator(10**9)
        if float(frac) != value:
            raise ValidationError(f"{value!r} is not a/b with b <= 10**9; pass it as \"a/b\"")
        return frac
    raise ValidationError(f"cannot parse rational from {value!r}")


def format_fraction(x: Fraction) -> str:
    """Canonical string form: "a/b", or the integer when the denominator is 1."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _typed(kind: str, value):
    """``value`` read as ``kind``; TypeError when its JSON type differs."""
    if kind.endswith("[]"):
        if not isinstance(value, (list, tuple)):
            raise TypeError
        return tuple(_typed(kind[:-2], v) for v in value)
    types = {"int": int, "number": (int, float), "bool": bool, "str": str,
             "rational": (int, float, str), "object": Mapping, "list": (list, tuple)}[kind]
    if isinstance(value, bool) != (kind == "bool") or not isinstance(value, types):
        raise TypeError
    if isinstance(value, float) and not math.isfinite(value):
        raise ValidationError(f"{value!r} is not a finite number")
    out = as_fraction(value) if kind == "rational" else value
    # an int or a Fraction compares with a float exactly
    if isinstance(out, (int, Fraction)) and abs(out) > sys.float_info.max:
        raise ValidationError(f"a value of magnitude above {sys.float_info.max:.4g} "
                              "leaves the double range")
    return float(out) if kind == "number" else out


def check(key: Key, value, where: str):
    """One value, typed and range-checked against its key."""
    if value in key.words or (value is None and key.default is None):
        return value
    for kind in key.kind.split("|"):
        try:
            out = _typed(kind, value)
            break
        except TypeError:
            continue
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from exc
    else:
        names = [_NAMES[k] if k in _NAMES else f"a list of {_NAMES[k[:-2]]}s"
                 for k in key.kind.split("|")] + [repr(w) for w in key.words]
        raise ValidationError(f"{where} must be {' or '.join(names)}, got {value!r}")
    if key.ok is not None and not key.ok(out):
        raise ValidationError(f"{where} must be {key.rule}, got {value!r}")
    return out


def read(doc, table: Mapping[str, Key], where: str) -> dict:
    """Every key of ``table`` read from ``doc``, defaults filled in."""
    if not isinstance(doc, Mapping):
        raise ValidationError(f"{where} must be a JSON object")
    unknown = sorted(set(doc) - set(table))
    if unknown:
        raise ValidationError(f"unknown keys in {where}: {unknown} (allowed: {sorted(table)})")
    out = {}
    for name, key in table.items():
        if name in doc:
            out[name] = check(key, doc[name], f"{where}.{name}")
        elif key.default is REQUIRED:
            raise ValidationError(f"{where} is missing required key {name!r}")
        else:
            out[name] = key.default
    return out


def _no_constant(token: str):
    raise ValueError(f"{token} is not allowed (JSON has no NaN or Infinity)")


def loads(text: str, where: str):
    """json.loads that rejects NaN and Infinity."""
    try:
        return json.loads(text, parse_constant=_no_constant)
    except ValueError as exc:
        raise ValidationError(f"{where} is not valid JSON: {exc}") from exc


def load_json(path: str | Path, what: str) -> dict:
    """The JSON object in a file, loaded strictly."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc
    doc = loads(text, f"{what} {path}")
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} {path} must hold a JSON object")
    return doc
