"""Spans and counts around critevo's public entry points, recorded from outside.

The tracer patches each entry point where its caller looks it up (for
example ``critevo.solver.eval_F``, which ``nonlinear_step`` reads from the
solver module's globals), so no file of the package changes.  Patches are
installed only around traced operations and restored afterwards.  Spans
(name, parent, start, end) stay in memory and are written once, at the
end of the run; counts cover hot calls whose individual spans would cost
more than the work they measure.

A target that no longer exists (a later refactor may fuse or rename it)
is skipped and its metric reported as absent, never an error.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from array import array
from pathlib import Path

import numpy as np

_np_load = np.load  # the tracer reads its own files unobserved

# (span name, module, attribute path).  A path "A.b" patches attribute b
# of class A; "_COMMANDS.sweep" patches key "sweep" of the dict _COMMANDS.
TIMED = [
    ("cli.main", "critevo.cli", "main"),
    ("cli.cmd_sweep", "critevo.cli", "_COMMANDS.sweep"),
    ("cli.cmd_simulate", "critevo.cli", "_COMMANDS.simulate"),
    ("cli.cmd_residual", "critevo.cli", "_COMMANDS.residual"),
    ("operators.parse_operator", "critevo.cli", "parse_operator"),
    ("operators.parse_operator", "critevo.operators", "parse_operator"),
    ("operators.companion", "critevo.operators", "EvolutionOperator.companion"),
    ("operators.radial_companion", "critevo.operators", "EvolutionOperator.radial_companion"),
    ("envelope.critical_exponent", "critevo.cli", "critical_exponent"),
    ("envelope.critical_exponent", "critevo.envelope", "critical_exponent"),
    ("envelope.build_envelope", "critevo.envelope", "build_envelope"),
    ("envelope.maximize", "critevo.envelope", "maximize"),
    ("mu.integral_condition", "critevo.cli", "integral_condition"),
    ("mu.integral_condition", "critevo.mu", "integral_condition"),
    ("mu.lipschitz_certificate", "critevo.cli", "lipschitz_certificate"),
    ("mu.eval_F", "critevo.solver", "eval_F"),
    ("mu.eval_F", "critevo.residual", "eval_F"),
    ("mu.eval_F", "critevo.mu", "eval_F"),
    ("solver.run", "critevo.cli", "run"),
    ("solver.ModePropagator", "critevo.solver", "ModePropagator.__init__"),
    ("solver.nonlinear_step", "critevo.solver", "nonlinear_step"),
    ("solver.grid_norms", "critevo.solver", "grid_norms"),
    ("solver.init_state", "critevo.solver", "init_state"),
    ("decay.l2_decay_curve", "critevo.decay", "l2_decay_curve"),
    ("decay.spectral_gap", "critevo.decay", "spectral_gap"),
    ("decay.fit_decay", "critevo.decay", "fit_decay"),
    ("residual.make_test_function", "critevo.cli", "make_test_function"),
    ("residual.weak_residual", "critevo.cli", "weak_residual"),
    ("reporting.write_json", "critevo.reporting", "write_json"),
    ("reporting.write_csv", "critevo.reporting", "write_csv"),
    ("numpy.save", "numpy", "save"),
    ("numpy.load", "numpy", "load"),
]

# (count name, module, attribute path, span that must be open, or None)
COUNTED = [
    ("mu.eval_mu", "critevo.mu", "eval_mu", None),
    ("numpy.linalg.eig", "numpy.linalg", "eig", None),
] + [("numpy.fft", "numpy.fft", fn, "solver.run")
     for fn in ("fftn", "ifftn", "rfftn", "irfftn")]


def _lookup(module: str, path: str):
    """(owner, key, current value) of an attribute path; raises if it is gone."""
    obj = importlib.import_module(module)
    *parents, key = path.split(".")
    for part in parents:
        obj = obj[part] if isinstance(obj, dict) else getattr(obj, part)
    if isinstance(obj, dict):
        return obj, key, obj[key]
    if isinstance(obj, type):
        return obj, key, vars(obj)[key]
    return obj, key, getattr(obj, key)


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("q")
        self._t0 = array("q")
        self._t1 = array("q")
        self._stack = [-1]
        self._open: list[int] = []
        self.counts: dict[str, int] = {}
        self.present: set[str] = set()
        self.absent: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return self._ids[name]

    def _timed(self, name: str, fn):
        nid = self._id(name)
        names, parents, t0s, t1s = self._name, self._parent, self._t0, self._t1
        stack, open_ = self._stack, self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            t1s.append(0)
            stack.append(idx)
            open_[nid] += 1
            t0s.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t1s[idx] = clock()
                open_[nid] -= 1
                stack.pop()

        return wrapper

    def _counted(self, name: str, scope: str | None, fn):
        counts, open_ = self.counts, self._open
        counts.setdefault(name, 0)
        sid = self._id(scope) if scope is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sid is None or open_[sid]:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Patch every target that exists; record the ones that do not."""
        specs = [(n, mod, path, lambda fn, n=n: self._timed(n, fn)) for n, mod, path in TIMED]
        specs += [(n, mod, path, lambda fn, n=n, s=s: self._counted(n, s, fn))
                  for n, mod, path, s in COUNTED]
        for name, module, path, make in specs:
            try:
                owner, key, original = _lookup(module, path)
            except (ImportError, AttributeError, KeyError):
                self.absent.add(f"{module}.{path}")
                continue
            self._patches.append((owner, key, original))
            _set(owner, key, make(original))
            self.present.add(name)

    def restore(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            _set(owner, key, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def _arrays(self):
        return (np.asarray(self._name, dtype=np.int32),
                np.asarray(self._parent, dtype=np.int64),
                np.asarray(self._t0, dtype=np.int64),
                np.asarray(self._t1, dtype=np.int64))

    def totals(self) -> dict[str, dict[str, float]]:
        """name -> {'s', 'self_s', 'calls'}; self time excludes child spans."""
        name, parent, t0, t1 = self._arrays()
        dur = (t1 - t0) / 1e9
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        k = len(self.names)
        s = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)
        calls = np.bincount(name, minlength=k)
        return {n: {"s": float(s[i]), "self_s": float(own[i]), "calls": int(calls[i])}
                for i, n in enumerate(self.names)}

    def save(self, path: Path) -> None:
        name, parent, t0, t1 = self._arrays()
        np.savez(path, name=name, parent=parent, t0=t0, t1=t1,
                 meta=np.array(json.dumps({
                     "names": self.names, "counts": self.counts,
                     "present": sorted(self.present), "absent": sorted(self.absent),
                 })))

    def merge(self, path: Path) -> None:
        """Append the spans and counts another process saved."""
        with _np_load(path) as data:
            meta = json.loads(str(data["meta"]))
            remap = np.array([self._id(n) for n in meta["names"]], dtype=np.int32)
            offset = len(self._name)
            parent = data["parent"]
            self._name.extend(remap[data["name"]].tolist())
            self._parent.extend(np.where(parent >= 0, parent + offset, -1).tolist())
            self._t0.extend(data["t0"].tolist())
            self._t1.extend(data["t1"].tolist())
        for n, c in meta["counts"].items():
            self.counts[n] = self.counts.get(n, 0) + c
        self.present.update(meta["present"])
        self.absent.update(meta["absent"])
