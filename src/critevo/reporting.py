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

A recorded field stack, (frames, *shape) float64, is written and read one
frame at a time by :class:`FrameWriter` and :class:`FrameReader`, so its
length costs disk, not memory.  Neither maps the file: a memory map's
touched pages count towards the process's resident set, which is the
whole-stack cost the streaming avoids.

numpy is imported only where arrays are built: a JSON artifact of exact
values is written without it.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import os
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from .config import format_fraction
from .errors import ValidationError

if TYPE_CHECKING:
    import numpy as np

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
    if hasattr(obj, "tolist"):  # a numpy array or scalar, as Python values
        return jsonify(obj.tolist())
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
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
    if hasattr(v, "tolist"):  # a numpy scalar
        v = v.tolist()
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return repr(v)
    return str(v)


def dumps_csv(columns: dict[str, "np.ndarray | list"]) -> str:
    import numpy as np

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


_FRAME_DTYPE = "<f8"


def _frame_header(frames: int, shape: tuple[int, ...]) -> bytes:
    """The .npy 1.0 header ``np.save`` writes for a (frames, *shape) float64 array.

    numpy pads it for a first axis of GROWTH_AXIS_MAX_DIGITS digits, so its
    length does not depend on ``frames``.
    """
    import numpy as np

    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": _FRAME_DTYPE, "fortran_order": False, "shape": (int(frames),) + shape})
    return buf.getvalue()


class FrameWriter:
    """A (frames, *shape) float64 .npy written one frame at a time.

    ``writer[i] = frame`` appends frame i (in order) to a ``.part`` file
    beside ``path``, whose header is written for ``max_frames``.  ``close``
    rewrites the header for the frames actually written, in place, and
    renames the file to ``path``; the result is byte-identical to
    ``np.save(path, stack)``.  ``discard`` removes what was written.
    """

    def __init__(self, path: str | Path, max_frames: int, shape: tuple[int, ...]):
        self.path = Path(path)
        self.shape = tuple(int(s) for s in shape)
        self.written = 0
        self._part = self.path.with_name(self.path.name + ".part")
        self._header = _frame_header(max_frames, self.shape)
        self._committed = False
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fp = open(self._part, "wb")
        self._fp.write(self._header)

    def __setitem__(self, index: int, frame: np.ndarray) -> None:
        import numpy as np

        if index != self.written:
            raise IndexError(f"frame {index} written after {self.written} frames")
        frame = np.ascontiguousarray(frame, dtype=_FRAME_DTYPE)
        if frame.shape != self.shape:
            raise ValueError(f"frame shape {frame.shape} != {self.shape}")
        self._fp.write(memoryview(frame).cast("B"))
        self.written += 1

    def close(self) -> None:
        header = _frame_header(self.written, self.shape)
        if len(header) != len(self._header):
            raise RuntimeError(f"the .npy header of {self.path} changed length on rewrite")
        self._fp.seek(0)
        self._fp.write(header)
        self._fp.close()
        os.replace(self._part, self.path)
        self._committed = True

    def discard(self) -> None:
        """Remove the file, whether or not it was closed."""
        self._fp.close()
        self._part.unlink(missing_ok=True)
        if self._committed:
            self.path.unlink(missing_ok=True)


class FrameReader:
    """The frames of a (frames, *shape) .npy of real numbers, read one at a time.

    The header is checked when the reader is made: the file must hold a
    real, C-ordered array of exactly ``shape`` and be exactly as long as its
    header says, so a cut file is rejected before any frame is read.
    ``reader[i]`` reads frame i as float.  An unreadable header raises
    ValueError; every other defect raises ValidationError naming the file.
    """

    def __init__(self, path: str | Path, shape: tuple[int, ...]):
        import numpy as np

        self.path = Path(path)
        self.shape = tuple(shape)
        with open(self.path, "rb") as fp:
            version = np.lib.format.read_magic(fp)
            read_header = {(1, 0): np.lib.format.read_array_header_1_0,
                           (2, 0): np.lib.format.read_array_header_2_0}.get(version)
            if read_header is None:
                raise ValueError(f".npy format version {version} is not read here")
            stored, fortran_order, dtype = read_header(fp)
            self._offset = fp.tell()
            size = os.fstat(fp.fileno()).st_size
        if dtype.kind not in "biuf":
            raise ValidationError(f"{self.path} must hold real numbers, not {dtype}")
        if fortran_order:
            raise ValidationError(f"{self.path} is stored in Fortran order; save it in C order")
        if stored != self.shape:
            raise ValidationError(f"{self.path} holds shape {stored}, not {self.shape}")
        self.dtype = dtype
        self._frame_bytes = math.prod(self.shape[1:]) * dtype.itemsize
        want = self._offset + self.shape[0] * self._frame_bytes
        if size != want:
            raise ValidationError(f"{self.path} is {size} bytes long, not the {want} its "
                                  "header gives; the file is cut or padded")

    def __getitem__(self, index: int) -> np.ndarray:
        import numpy as np

        if not 0 <= index < self.shape[0]:
            raise IndexError(f"frame {index} of {self.shape[0]}")
        frame = np.empty(self.shape[1:], dtype=self.dtype)
        with open(self.path, "rb") as fp:
            fp.seek(self._offset + index * self._frame_bytes)
            got = fp.readinto(memoryview(frame).cast("B"))
        if got != self._frame_bytes:
            raise ValidationError(f"{self.path} ended inside frame {index}")
        return frame.astype(float, copy=False)
