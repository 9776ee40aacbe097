"""Deterministic artifact emission.

Every artifact is reproducible byte for byte from the same inputs: no
timestamps, no environment capture, dict insertion order preserved,
floats rendered by repr (shortest round-trip form), exact rationals as
"a/b" strings.  Non-finite floats are rendered as the strings "inf",
"-inf", "nan" since strict JSON has no spelling for them.

A report is rendered by :func:`jsonify`: a dataclass instance becomes
its fields, by name and in declaration order, each rendered in turn.  A
``to_json`` method exists only where the JSON differs from the fields: a
key is added or dropped, or the document is an input that is read back.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from .config import format_fraction

SCHEMA_VERSION = 1


def jsonify(obj):
    """Recursively coerce report objects into plain JSON-safe values."""
    if hasattr(obj, "to_json"):
        return jsonify(obj.to_json())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonify(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, Fraction):
        return format_fraction(obj)
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, float):
        if np.isnan(obj):
            return "nan"
        if np.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, complex):
        return {"re": jsonify(obj.real), "im": jsonify(obj.imag)}
    return obj


def artifact(kind: str, payload: dict) -> dict:
    """Wrap a payload with the schema header every artifact carries."""
    out = {"schema_version": SCHEMA_VERSION, "kind": kind}
    out.update(payload)
    return out


def dumps_json(obj) -> str:
    return json.dumps(jsonify(obj), indent=2, allow_nan=False) + "\n"


def write_json(path: str | Path, obj) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps_json(obj), encoding="utf-8")
    return path


def format_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        v = float(v)
        if np.isnan(v):
            return "nan"
        if np.isinf(v):
            return "inf" if v > 0 else "-inf"
        return repr(v)
    return str(v)


def dumps_csv(columns: dict[str, "np.ndarray | list"]) -> str:
    names = list(columns)
    cols = [np.asarray(columns[k]).ravel() for k in names]
    lengths = {c.size for c in cols}
    if len(lengths) > 1:
        raise ValueError(f"csv columns have unequal lengths: {sorted(lengths)}")
    lines = [",".join(names)]
    for row in zip(*cols):
        lines.append(",".join(format_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def write_csv(path: str | Path, columns: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps_csv(columns), encoding="utf-8")
    return path
