"""Linear decay verification: whole-space L2 curves, rate fits, verdicts.

For radial operators (every level a sum of Laplacian powers) the linear
solution with data f in the top layer has the exact Fourier representation
u^(t, xi) = [exp(t A(|xi|))]_{layer, m-1} f^(|xi|), so whole-space norms at
q = 2 reduce to a one-dimensional Plancherel integral

    ||d_t^layer u(t)||_2^2 = c_n * integral_0^inf |K(t,rho)|^2 |f^(rho)|^2 rho^{n-1} drho,

with c_n = |S^{n-1}| / (2 pi)^n.  The integrand develops a peak near
rho ~ t^{-1/(2(sigma-delta))}-type scales at late times, so the quadrature
takes the mu module's panels in s = log rho, 8 decades down from the tail
cutoff P, doubled until every value of the curve is stable.

Each panel density evaluates the kernel K (:func:`_kernel_matrix`) with
one stacked eigen-solve of the companion matrices at all its nodes, and
by :func:`~critevo.operators.exp_blocks` at the nearly defective ones.

Rate fitting is deliberately dumb and transparent: least squares on
log-norm against log(1+t) (power laws) or against t (exponential decay),
with an RMS flag for "this was not a power law at all".  Targets come
from the caller (1/p_c from the exponent module, or a closed-form rate);
nothing here derives its own target.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import FIT_MODES
from .errors import NumericalError, ValidationError
from .mu import GAUSS_LEGENDRE16, log_panels, settle
from .operators import EvolutionOperator, exp_blocks
from . import solver as _solver


@dataclass(frozen=True)
class RadialProfile:
    """Radial data shape on whole space, known through its Fourier transform.

    The gaussian is L1-normalized (unit mass): f^(rho) = exp(-w^2 rho^2 / 2),
    f^(0) = 1.  ``l2_norm`` reports ||f||_2 for reference alongside.
    """

    width: float = 1.0

    def __post_init__(self):
        if not (self.width > 0):
            raise ValidationError("width must be > 0")

    def fourier(self, rho: np.ndarray) -> np.ndarray:
        return np.exp(-0.5 * (self.width * np.asarray(rho, dtype=float)) ** 2)

    def l2_norm(self, n: int) -> float:
        # ||f||_2^2 = (2 pi)^{-n} integral |f^|^2 = (4 pi w^2)^{-n/2}
        try:
            return (4.0 * math.pi * self.width**2) ** (-n / 4.0)
        except (OverflowError, ZeroDivisionError):
            raise ValidationError(f"width {self.width!r} puts ||f||_2 in R^{n} out of float range")

    def tail_cutoff(self) -> float:
        # |f^(rho)|^2 = exp(-(w rho)^2) < 1e-40 beyond this
        return math.sqrt(40.0 * math.log(10.0)) / self.width


def sphere_area(n: int) -> float:
    """Surface measure of S^{n-1} in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


_GAP_TOL = 1e-8
_QTOL = 1e-8
#: RMS of the log residuals below which a fit counts as clean
_RMS_TOL = 0.05
# complex exponentials per block of nodes (128 KB): the kernel's
# temporaries stay small next to K itself, whatever the node and time counts
_EXP_BLOCK = 1 << 13
#: nodes x times of the kernel matrix at 64 panels per decade (8 208 nodes) and
#: the CLI's 1000 times, 131 MB of complex K: 128 (16 400 nodes) is tried under it
_MAX_NODE_TIMES = 8208 * 1000


def _kernel_matrix(op: EvolutionOperator, rhos: np.ndarray, times: np.ndarray,
                   layer: int) -> tuple[np.ndarray, int]:
    """K[i, j] = [exp(times_j A(rhos_i))]_{layer, m-1}, and the nearly-defective node count.

    One stacked eigen-solve covers every node.  A node whose eigenvalues lie
    closer than ``_GAP_TOL * max(|lambda|, 1)`` is nearly defective and takes
    :func:`~critevo.operators.exp_blocks` at all times.  Both paths run a
    block of nodes at a time, the eigen path as exp(times lambda) @ w.  Each
    eigen-path node's arithmetic is the one a per-node loop would do, so the
    stacking changes no bit of it.
    """
    m = op.m
    with np.errstate(over="ignore", invalid="ignore"):
        A = op.radial_companion(rhos)
    if not np.isfinite(A).all():
        raise ValidationError("the symbol overflows in the data's Fourier tail; enlarge width")
    lam, V = np.linalg.eig(A)
    scale = np.maximum(np.max(np.abs(lam), axis=1), 1.0)
    gaps = np.abs(lam[:, :, None] - lam[:, None, :]) + np.eye(m) * scale[:, None, None]
    defective = np.min(gaps, axis=(1, 2)) < _GAP_TOL * scale
    good = np.flatnonzero(~defective)
    Vinv = np.linalg.inv(V[good])
    w = V[good, layer, :] * Vinv[:, :, m - 1]
    K = np.empty((rhos.size, times.size), dtype=complex)
    # per node: exp(outer(times, lam)) @ w, a (times, m) matrix-vector product
    step = max(1, _EXP_BLOCK // (times.size * m))
    for lo in range(0, good.size, step):
        nodes = good[lo:lo + step]
        E = times[:, None] * lam[nodes][:, None, :]
        np.exp(E, out=E)
        K[nodes] = (E @ w[lo:lo + step, :, None])[:, :, 0]
    confluent = np.flatnonzero(defective)
    for lo in range(0, confluent.size, step):
        nodes = confluent[lo:lo + step]
        K[nodes] = exp_blocks(A[nodes], times)[:, :, layer, m - 1]
    return K, int(confluent.size)


def _plancherel_nodes(P: float, density: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of drho on (0, P]: one 16-node panel on [0, 1e-8 P], then
    :func:`~critevo.mu.log_panels` in s = log rho, where drho = rho ds."""
    x, w = (np.array(a) for a in GAUSS_LEGENDRE16)
    edges = [math.log(P) - k * math.log(10) for k in range(8, -1, -1)]
    mid, half, _ = np.array(log_panels(edges, density)).T
    rhos, head = np.exp(mid[:, None] + half[:, None] * x).ravel(), 0.5 * (1e-8 * P)
    return (np.concatenate([head * (x + 1.0), rhos]),
            np.concatenate([head * w, (half[:, None] * w).ravel() * rhos]))


@dataclass(frozen=True)
class QuadratureEvidence:
    """How the whole-space quadrature of one decay curve settled.

    ``last_relative_change`` is the largest move of one curve value v from
    the density before, relative to max(|v|, 1e-13 ||f||_2 / qtol), at the
    accepted panel density; ``expm_fallback_nodes`` counts the nodes of that
    density whose eigensystem was too close to defective for the eigen path.
    """

    panels_per_decade: int
    nodes: int
    last_relative_change: float
    expm_fallback_nodes: int


def l2_decay_curve(op: EvolutionOperator, profile: RadialProfile,
                   times: Sequence[float], layer: int = 0,
                   qtol: float = _QTOL) -> np.ndarray:
    """||d_t^layer u_lin(t)||_{L2(R^n)} at the given times (exact linear flow).

    Requires a radial operator, an integer layer in [0, m), a non-empty list
    of finite times >= 0 and qtol > 0.  The panels per decade double from 2
    until each value v moves by at most qtol * max(|v|, 1e-13 ||f||_2 / qtol),
    and reach 128 only up to 500 times (K holds at most 8 208 x 1000 values).
    The gaussian data weight certifies the tail beyond the cutoff negligible.
    """
    return _decay_quadrature(op, profile, times, layer, qtol)[0]


def _decay_quadrature(op: EvolutionOperator, profile: RadialProfile,
                      times: Sequence[float], layer: int,
                      qtol: float) -> tuple[np.ndarray, QuadratureEvidence]:
    """l2_decay_curve's values together with the evidence of their quadrature."""
    if not op.is_radial():
        raise ValidationError("whole-space decay needs a radial operator")
    if isinstance(layer, bool) or not isinstance(layer, (int, np.integer)):
        raise ValidationError(f"layer must be an integer, got {layer!r}")
    if not (0 <= layer < op.m):
        raise ValidationError("layer out of range")
    times = np.asarray(list(times), dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValidationError("times must be a non-empty list of numbers")
    if not np.all(np.isfinite(times)):
        raise ValidationError("times must be finite")
    if np.any(times < 0):
        raise ValidationError("times must be >= 0")
    if not qtol > 0:
        raise ValidationError(f"qtol must be > 0, got {qtol!r}")
    n = op.n
    cn = sphere_area(n) / (2.0 * math.pi) ** n
    P = profile.tail_cutoff()

    # curves can be legitimately ~0 (e.g. layer 0 at t = 0); anything below
    # roundoff of the linear flow applied to the data counts as stable
    floor = 1e-13 * profile.l2_norm(n)
    if (n - 1) * math.log(P) >= math.log(sys.float_info.max):
        raise ValidationError(
            f"width {profile.width!r} puts the radial weight rho^{n - 1} in R^{n} out of "
            f"float range at the data's Fourier cutoff {P:.3g}; enlarge width")
    fallback = {}

    def curve(density):
        rhos, wts = _plancherel_nodes(P, density)
        K, fallback[density] = _kernel_matrix(op, rhos, times, layer)
        dens = (np.abs(K) ** 2) * (profile.fourier(rhos) ** 2 * rhos ** (n - 1))[:, None]
        return np.sqrt(np.maximum(cn * (wts[:, None] * dens).sum(axis=0), 0.0)), rhos.size

    ladder = (2, 4, 8, 16, 32, 64) + ((128,) if 16400 * times.size <= _MAX_NODE_TIMES else ())
    vals, (density, nodes, _, change) = settle(
        curve, ladder, qtol, floor / qtol, f"decay quadrature (<= {_MAX_NODE_TIMES} nodes x times)")
    return vals, QuadratureEvidence(density, nodes, change, fallback[density])


def spectral_gap(op: EvolutionOperator) -> float:
    """c1 = -sup_rho max_i Re lambda_i(A(rho)) over 4001 radii in [0, 10]."""
    if not op.is_radial():
        raise ValidationError("spectral gap scan needs a radial operator")
    rhos = np.linspace(0.0, 10.0, 4001)
    A = op.radial_companion(rhos)
    lam = np.linalg.eigvals(A)
    worst = float(np.max(np.real(lam)))
    return -worst


@dataclass(frozen=True)
class DecayFit:
    """Least-squares decay fit over a time window.

    slope is d log(norm) / d log(1+t) for kind='power' and
    d log(norm) / dt for kind='exponential'.  ``clean`` flags whether the
    model explains the window (RMS of log residuals at most 0.05).
    """

    kind: str
    slope: float
    intercept: float
    rms: float
    n_samples: int
    window: tuple[float, float]
    clean: bool
    target: float | None = None
    tol: float | None = None
    verdict: str | None = None


def _fit(times, values, window, transform, kind, target, tol, mode) -> DecayFit:
    if mode not in FIT_MODES:
        raise ValidationError(f"fit mode must be one of {list(FIT_MODES)}, got {mode!r}")
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    lo, hi = window
    sel = (times >= lo) & (times <= hi)
    if int(np.sum(sel)) < 10:
        raise ValidationError(
            f"need >= 10 samples inside the window [{lo}, {hi}]; got {int(np.sum(sel))}"
        )
    tt, vv = times[sel], values[sel]
    if np.any(vv <= 0):
        i = int(np.argmax(vv <= 0))
        raise NumericalError(
            f"the norm is {vv[i]:.3g} at t = {tt[i]:.6g}, the first time in the window "
            f"[{lo}, {hi}] at which it is not positive, and a log fit needs positive norms"
            + (f"; end the window at t = {tt[i - 1]:.6g}, the last positive sample before it, "
               "or earlier" if i else ""))
    x = transform(tt)
    y = np.log(vv)
    # a window whose abscissae agree to rounding determines no line: polyfit then
    # finds its system rank-deficient at rcond = samples * eps, or its column
    # scaling leaves the normal float range
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error", np.exceptions.RankWarning)
        try:
            slope, intercept = np.polyfit(x, y, 1)
        except (np.exceptions.RankWarning, FloatingPointError, np.linalg.LinAlgError):
            raise ValidationError(
                f"window [{lo}, {hi}] determines no {kind} fit: the abscissae of its "
                f"{int(np.sum(sel))} samples agree to rounding, or their squares leave the "
                "normal float range") from None
    rms = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    clean = rms <= _RMS_TOL
    verdict = None
    if target is not None:
        if mode == "two-sided":
            verdict = "pass" if abs(slope - target) <= tol else "fail"
        else:  # at-least-as-fast: slope must not exceed target + tol
            verdict = "pass" if slope <= target + tol else "fail"
    return DecayFit(kind=kind, slope=float(slope), intercept=float(intercept),
                    rms=rms, n_samples=int(np.sum(sel)), window=(float(lo), float(hi)),
                    clean=clean, target=target, tol=tol, verdict=verdict)


def fit_decay(times, values, window, target: float | None = None,
              tol: float = 0.05, mode: str = "two-sided") -> DecayFit:
    """Power-law fit log(norm) ~ slope * log(1+t); verdict against a target."""
    return _fit(times, values, window, lambda t: np.log1p(t), "power", target, tol, mode)


def fit_exponential(times, values, window, target: float | None = None,
                    tol: float = 0.05, mode: str = "two-sided") -> DecayFit:
    """Exponential fit log(norm) ~ slope * t (slope = -rate)."""
    return _fit(times, values, window, lambda t: t, "exponential", target, tol, mode)


@dataclass(frozen=True)
class HypothesisEntry:
    q: float
    fit: DecayFit
    # the fitted curve, for CSV emission; not part of the JSON verdict
    times: tuple[float, ...] = ()
    values: tuple[float, ...] = ()
    # whole-space entries only: how the Plancherel quadrature settled
    quadrature: QuadratureEvidence | None = None

    def to_json(self) -> dict:
        out = {"q": self.q, "fit": self.fit}
        if self.quadrature is not None:
            out["quadrature"] = self.quadrature
        return out


@dataclass(frozen=True)
class HypothesisReport:
    """Per-q verdicts for the linear-decay premise behind global existence.

    The premise asks ||d_t^ell u_lin(t)||_q <= C (1+t)^{-1/p_c} for q from
    p_c up to infinity; each entry checks 'fitted decay at least as fast as
    -1/p_c' on its window.  Whole-space mode supports q = 2 only
    (Plancherel); torus mode fits solver norms and inherits the box
    horizon caveat.
    """

    mode: str
    p_c: float
    entries: tuple[HypothesisEntry, ...]
    notes: tuple[str, ...] = ()

    @property
    def all_pass(self) -> bool:
        return all(e.fit.verdict == "pass" for e in self.entries)

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "p_c": self.p_c,
            "entries": self.entries,
            "all_pass": self.all_pass,
            "notes": self.notes,
        }


def check_linear_decay_hypothesis(
    op: EvolutionOperator, ell: int, p_c: float, q_list: Sequence[float],
    profile: RadialProfile | None = None, mode: str = "whole-space",
    window: tuple[float, float] = (1e2, 1e4), n_times: int = 40,
    tol: float = 0.05, torus_grid: "_solver.Grid | None" = None,
    targets: Mapping[float, float] | None = None, fit_mode: str = "at-least-as-fast",
) -> HypothesisReport:
    """Fit ||d_t^ell u_lin||_q on the window and compare against -1/p_c.

    ``targets`` overrides the -1/p_c target per q (use it to check a known
    exact rate two-sided instead of the one-sided premise); each of its q
    must be in ``q_list``.
    """
    if not (p_c > 0):
        raise ValidationError("p_c must be > 0")
    targets = dict(targets or {})
    for q in targets:
        if q not in q_list:
            raise ValidationError(f"targets key {q!r} is not in q_list {list(q_list)}")

    def target_for(q: float) -> float:
        return float(targets.get(q, -1.0 / p_c))

    notes: list[str] = []
    entries: list[HypothesisEntry] = []

    if mode == "whole-space":
        profile = profile or RadialProfile()
        # q_list and the window are checked before the curve is computed
        for q in q_list:
            if q != 2:
                raise ValidationError(
                    "whole-space mode evaluates L2 only (Plancherel); "
                    f"q = {q} needs torus mode"
                )
        if not window[1] > 1e-3:
            raise ValidationError(
                "whole-space sample times start at 1e-3, so the window "
                f"[{window[0]}, {window[1]}] must end after 1e-3")
        times = np.geomspace(max(window[0], 1e-3), window[1], n_times)
        vals, evidence = _decay_quadrature(op, profile, times, ell, _QTOL)
        fit = fit_decay(times, vals, window, target=target_for(2), tol=tol, mode=fit_mode)
        entries.append(HypothesisEntry(q=2.0, fit=fit,
                                       times=tuple(float(t) for t in times),
                                       values=tuple(float(v) for v in vals),
                                       quadrature=evidence))
    elif mode == "torus":
        if torus_grid is None:
            raise ValidationError("torus mode needs a grid")
        horizon = _solver.box_horizon(op, torus_grid)
        if window[1] > horizon:
            notes.append(
                f"window end {window[1]} exceeds the box horizon {horizon:.3g}; "
                "late-time fits reflect the box, not whole space"
            )
        width = profile.width if profile is not None else 1.0
        prof = _solver.DataProfile(kind="gaussian", width=width, zero_mean=True)
        for q in q_list:
            # a linear step is the exact flow exp(dt A): step once per record.
            # Each run takes amplitude 1, whose check in run() does not depend
            # on q, so the first run rejects a box too large for it before any step
            cfg = _solver.RunConfig(
                op=op, grid=torus_grid, profile=prof, ell=ell, dt=window[1] / 400,
                T=window[1], p_for_norms=2.0 if math.isinf(q) else float(q),
            )
            # L^inf is always recorded; the Lp column carries the finite q
            col = f"Linf[{ell}]" if math.isinf(q) else f"Lp[{ell}]"
            report, = _solver.run(cfg, [(1.0, None)])
            fit = fit_decay(report.times, report.series[col], window,
                            target=target_for(q), tol=tol, mode=fit_mode)
            entries.append(HypothesisEntry(q=float(q), fit=fit,
                                           times=tuple(float(t) for t in report.times),
                                           values=tuple(float(v) for v in report.series[col])))
    else:
        raise ValidationError(f"unknown mode {mode!r}")
    return HypothesisReport(mode=mode, p_c=float(p_c), entries=tuple(entries),
                            notes=tuple(notes))
