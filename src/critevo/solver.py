"""Periodic pseudospectral solver for d_t^m u + sum P_j(d_x) d_t^j u = F(d_t^l u).

Space is a centered periodic box [-L/2, L/2)^n (n = 1 or 2) on N^n points.
Fields are real, so the state keeps only the real half spectrum: the rfftn
coefficients, N/2 + 1 columns along the last axis (``Grid.half``), whose
other modes are conjugate mirrors; irfftn(..., s=grid.shape) maps it back
to a field that is real by construction.  Each kept Fourier mode carries
the companion state v = (u, d_t u, ..., d_t^{m-1} u)^ and evolves by
v' = A(xi) v + e_{m-1} F^(d_t^l u).  The linear flow is the
exact matrix exponential E = exp(dt A), and the source enters through the
Duhamel weight Phi = integral_0^dt exp(s A) ds, so no quadrature in time
is involved.  For m = 2, E is :func:`~critevo.operators.exp2_parts`'
closed form and Phi its integral from the same two roots; any other m
exponentiates the (m+1) x (m+1) Van Loan block [[A, e_{m-1}], [0, 0]],
which holds E top-left and Phi e_{m-1} in its last column.  Both are built
per mode, one stacked call over every kept mode.  The nonlinear term is
advanced by an exponential predictor-corrector,

    v* = E v + Phi e F^(t),      v+ = E v + Phi e (F^(t) + F^*(t+dt)) / 2,

whose averaged source matches the Duhamel integral to O(dt^3) locally,
i.e. second order globally.  Products are formed in physical space
(irfftn, F, rfftn) and dealiased with the 2/3 rule (modes with any
|k| > N/3 dropped, the Nyquist column N/2 among them), applied to the
initial data and to every nonlinear transform; the linear flow is diagonal
per mode and cannot repopulate masked modes.

The state always carries a leading member axis, (B, m, *half); a single
run is a batch of one.  A member is an amplitude and a nonlinearity of one
config, whose propagator the batch shares; F is elementwise, and every
reduction that feeds a report (norms, the X-norm, the blow-up check) runs
on one member's own rows, so each member's report equals its single run.

Periodic-box caveat: polynomial decay laws of the whole-space problem hold
only while the box still resolves the relevant low frequencies; every run
report records the estimated horizon 1/|Re lambda_max(A(xi_min))|, the
slowest of the smallest nonzero modes along each axis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .config import Key, read
from .errors import ValidationError
from .mu import NonlinearitySpec, eval_F
from .operators import EvolutionOperator, exp2_parts, exp_blocks
from .reporting import FrameWriter

BLOWUP_FACTOR = 1e6
#: the most grid points N^n a run may take: 1-D N <= 4 194 304, 2-D N <= 2 048
MAX_GRID_POINTS = 2**22


@functools.cache
def _half_weights(N: int) -> np.ndarray:
    w = np.full(N // 2 + 1, 2.0)
    w[[0, -1]] = 1.0
    w.flags.writeable = False
    return w


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L/2, L/2)^n."""

    n: int
    N: int
    L: float

    def __post_init__(self):
        # type() is int, not isinstance(): a bool is an int subclass
        if type(self.n) is not int or self.n not in (1, 2):
            raise ValidationError("grid supports n = 1 or 2")
        if not (type(self.N) is int and self.N >= 8 and self.N % 2 == 0):
            raise ValidationError("N must be an even integer >= 8")
        if self.N**self.n > MAX_GRID_POINTS:
            raise ValidationError(f"N^n = {self.N}^{self.n} grid points must be at most "
                                  f"2^22 = {MAX_GRID_POINTS}")
        if not (self.L > 0 and 0 < math.prod([self.L / self.N] * self.n) < math.inf):
            raise ValidationError(f"box length L must be > 0 with (L/N)^n a float, got {self.L!r}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.n

    @property
    def h(self) -> float:
        return self.L / self.N

    @property
    def space_axes(self) -> tuple[int, ...]:
        """The trailing n array axes, the spatial ones of a (..., *shape) array."""
        return tuple(range(-self.n, 0))

    def axes(self) -> list[np.ndarray]:
        x = -self.L / 2 + self.h * np.arange(self.N)
        return [x] * self.n

    def coords(self) -> list[np.ndarray]:
        return list(np.meshgrid(*self.axes(), indexing="ij"))

    def wavenumbers(self) -> list[np.ndarray]:
        k_int = np.fft.fftfreq(self.N, d=1.0 / self.N)
        ks = [(2 * np.pi / self.L) * k_int] * self.n
        return list(np.meshgrid(*ks, indexing="ij"))

    @property
    def half(self) -> tuple:
        """Index of the real half spectrum in a (..., *shape) full-spectrum array.

        rfftn keeps the last-axis columns 0..N/2; every other column of a
        real field's spectrum is the conjugate mirror of a kept one.
        """
        return (..., slice(0, self.N // 2 + 1))

    def half_weights(self) -> np.ndarray:
        """Last-axis column weights (1, 2, ..., 2, 1) of a half-spectrum sum.

        Columns 0 and N/2 are their own mirrors; every other column also
        stands for its mirror, so for a Hermitian spectrum the weighted half
        sum of |u^|, or of Re(conj f^ g^), equals the full-spectrum sum.
        The array is built once per N and is read-only.
        """
        return _half_weights(self.N)

    def dealias_mask(self) -> np.ndarray:
        k_int = np.abs(np.fft.fftfreq(self.N, d=1.0 / self.N))
        keep1d = k_int <= self.N / 3
        mask = np.ones(self.shape, dtype=bool)
        for axis in range(self.n):
            shape = [1] * self.n
            shape[axis] = self.N
            mask &= keep1d.reshape(shape)
        return mask

    def quad_weight(self) -> float:
        return self.h**self.n


@dataclass(frozen=True)
class DataProfile:
    """Initial shape for the data layer (placed at time-derivative m-1).

    'gaussian' and 'bump' peak at 1 at the box center; 'custom_table' takes
    the physical values directly.  ``zero_mean`` removes the spatial mean
    spectrally, which is how a periodic run avoids the conserved-mean
    artifact when mimicking whole-space decay.
    """

    kind: str = "gaussian"
    width: float = 1.0
    zero_mean: bool = False
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "bump", "custom_table"):
            raise ValidationError(f"unknown profile kind {self.kind!r}")
        square = self.width * self.width
        if self.kind != "custom_table" and not (self.width > 0 and 0 < square < math.inf):
            raise ValidationError(f"profile width must be > 0 with a float square: {self.width!r}")
        if self.kind == "custom_table" and not self.values:
            raise ValidationError("custom_table profile needs values")

    def render(self, grid: Grid) -> np.ndarray:
        coords = grid.coords()
        # an r^2 past the float range only ever means f = 0 there, for either kind
        with np.errstate(over="ignore"):
            r2 = sum(c**2 for c in coords)
        if self.kind == "gaussian":
            f = np.exp(-r2 / (2 * self.width**2))
        elif self.kind == "bump":
            rr = r2 / self.width**2
            f = np.zeros(grid.shape)
            inside = rr < 1.0
            f[inside] = np.exp(1.0 - 1.0 / (1.0 - rr[inside]))
        else:
            vals = np.asarray(self.values, dtype=float)
            if vals.size != np.prod(grid.shape):
                raise ValidationError(
                    f"custom_table needs {np.prod(grid.shape)} values, got {vals.size}"
                )
            f = vals.reshape(grid.shape)
        peak = float(np.max(np.abs(f)))
        if peak == 0.0:
            raise ValidationError("profile is identically zero")
        edge = np.max(np.abs(f[0])) if grid.n == 1 else max(
            float(np.max(np.abs(f[0, :]))), float(np.max(np.abs(f[:, 0])))
        )
        if self.kind != "custom_table" and edge > 1e-12 * peak:
            raise ValidationError(
                f"profile does not vanish at the box edge (edge/peak = {edge / peak:.2e}); "
                "shrink the width or enlarge the box (aliasing guard)"
            )
        if self.zero_mean:
            f = f - float(np.mean(f))
        return f


#: every profile key; a kind reads its own
_PROFILE = {
    "kind": Key("str", "gaussian"),
    "width": Key("number", 1.0),
    "zero_mean": Key("bool", False),
    "values": Key("number[]", None),
}
_KIND_KEYS = {
    "gaussian": ("kind", "width", "zero_mean"),
    "bump": ("kind", "width", "zero_mean"),
    "custom_table": ("kind", "zero_mean", "values"),
}


def parse_profile(doc: Mapping) -> DataProfile:
    kind = doc.get("kind", "gaussian") if isinstance(doc, Mapping) else None
    # any other kind reads every key, so read() or DataProfile names what is wrong
    keys = _KIND_KEYS.get(kind, _PROFILE) if isinstance(kind, str) else _PROFILE
    return DataProfile(**read(doc, {k: _PROFILE[k] for k in keys}, "profile"))


def init_state(op: EvolutionOperator, grid: Grid, profile: DataProfile,
               amplitudes: Sequence[float]) -> np.ndarray:
    """State (B, m, *half) at t = 0, layer k of member b holding rfftn(d_t^k u):
    zero except the data layer m-1 = amplitudes[b] * profile (dealiased).  Each
    member takes its own rfftn of the one rendered profile, so keeps its bits."""
    if op.n != grid.n:
        raise ValidationError("operator and grid dimensions disagree")
    f = profile.render(grid)
    mask = grid.dealias_mask()[grid.half]
    modes = np.zeros((len(amplitudes), op.m) + mask.shape, dtype=complex)
    for b, a in enumerate(amplitudes):
        modes[b, op.m - 1] = np.fft.rfftn(a * f) * mask
    return modes


def initial_sign_functional(op: EvolutionOperator, ell: int,
                            initial_layers: np.ndarray, grid: Grid) -> float:
    """Diagnostic sum_{j >= ell, c_{j+1,0} != 0} c_{j+1,0} * int u_j dx.

    Positivity of this functional is the data hypothesis of the blow-up
    machinery (the top layer always contributes: the monic level m has
    constant coefficient 1).  It is reported as a diagnostic only; nothing
    here claims a link between its sign and an observed numerical blow-up.

    Summing N terms in any order errs by at most N * eps * sum |term|.  A
    total within (grid points + m) * eps * sum_j |c_j| int |u_j| dx is
    rounding noise of unknown sign, so it is reported as exactly 0.0; this
    is what zero-mean data gives.
    """
    initial_layers = np.asarray(initial_layers, dtype=float)
    if initial_layers.shape != (op.m,) + grid.shape:
        raise ValidationError("initial_layers must have shape (m, *grid.shape)")
    total = 0.0
    magnitude = 0.0
    for j in range(ell, op.m):
        c = op.constant_coefficient(j + 1)
        if c != 0.0:
            total += c * float(np.sum(initial_layers[j]) * grid.quad_weight())
            magnitude += abs(c) * float(np.sum(np.abs(initial_layers[j])) * grid.quad_weight())
    bound = (initial_layers[0].size + op.m) * np.finfo(float).eps * magnitude
    return 0.0 if abs(total) <= bound else total


def _grid_companion(op: EvolutionOperator, grid: Grid, xi: list[np.ndarray]) -> np.ndarray:
    """op.companion(xi) at wavenumbers of the grid; a non-finite symbol is invalid input."""
    with np.errstate(over="ignore", invalid="ignore"):
        A = op.companion(xi)
    if not np.isfinite(A).all():
        raise ValidationError(f"the symbol overflows on a grid of L = {grid.L!r}; enlarge grid.L")
    return A


#: |dt (lam1 - lam2)| at or below which G is a contour mean, not a difference quotient
_CONTOUR_GAP = 0.1
# 16 points on the unit circle, offset by half a step so that none is real
_CIRCLE = np.exp(2j * np.pi * (np.arange(16) + 0.5) / 16)


def _flow2(A: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """E = exp(dt A_i), (k, 2, 2), and Phi e_1, (k, 2), of 2x2 blocks in closed form.

    E = e^{dt lam2} I + D (A - lam2 I) and the roots lam1, lam2 come from
    one :func:`~critevo.operators.exp2_parts` pass.  Integrating E over
    [0, dt] gives Phi = g(lam2) I + G (A - lam2 I), with g(lam) =
    expm1(dt lam) / lam (g(0) = dt), G = g[lam1, lam2] its divided
    difference and A11 - lam2 taken as lam1 - A00, as in E.  G is the
    difference quotient where |dt (lam1 - lam2)| > 0.1; closer roots would
    cancel in it, so there G = dt^2 phi1[z1, z2] (z = dt lam, phi1(z) =
    expm1(z) / z) is Cauchy's integral on the unit circle about the mean
    root, whose 16-point trapezoid rule errs by about 0.05^16 plus the 17th
    Taylor coefficient of phi1 (Kassam & Trefethen 2005).
    """
    lam1, lam2, E = (x[:, 0] for x in exp2_parts(A, np.array([dt])))
    a = A[:, 0, 0]

    def g(lam):
        return np.divide(np.expm1(dt * lam), lam, out=np.full_like(lam, dt), where=lam != 0)

    z1, z2 = dt * lam1, dt * lam2
    near = np.abs(z1 - z2) <= _CONTOUR_GAP
    far = ~near
    G = np.empty_like(lam1)
    G[far] = (g(lam1[far]) - g(lam2[far])) / (lam1[far] - lam2[far])
    # phi1(w) (w - c) / ((w - z1)(w - z2)) at w = c + u, c the mean root
    u, h = _CIRCLE, 0.5 * (z1[near] - z2[near])[:, None]
    w = 0.5 * (z1[near] + z2[near])[:, None] + u
    G[near] = dt * dt * np.mean(np.expm1(w) / w * u / (u * u - h * h), axis=1)
    phi = np.stack([G * A[:, 0, 1], g(lam2) + G * (lam1 - a)], axis=-1)
    return E, phi


def _flow_expm(A: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """E = exp(dt A_i) and Phi e_{m-1} of m x m blocks from the exponential of the
    (m+1) x (m+1) Van Loan block [[A, e_{m-1}], [0, 0]] (Van Loan 1978): E is its
    top-left block, Phi e_{m-1} the top of its last column."""
    k, m, _ = A.shape
    aug = np.zeros((k, m + 1, m + 1), dtype=complex)
    aug[:, :m, :m] = A
    aug[:, m - 1, m] = 1.0
    big = exp_blocks(aug, [dt])[:, 0]
    return big[:, :m, :m], big[:, :m, m]


class ModePropagator:
    """Exact one-step linear flow E and Duhamel weight Phi for a fixed dt.

    Built once per (operator, grid, dt) on the half-spectrum wavenumbers:
    E = exp(dt A) and the last column of Phi = integral_0^dt exp(sA) ds,
    from one :func:`_flow2` (m = 2) or :func:`_flow_expm` call over the
    companion blocks of every mode.  dt must be finite and > 0, and a flow
    that overflows at it is rejected rather than stepped.  Only what
    stepping reads is kept: E layer-major, ``_E`` of shape (m, m, *half),
    so the per-mode product runs along contiguous space, the last column of
    Phi as ``_phi``, (m, *half), and the 2/3-rule dealias mask of the half
    spectrum as ``mask``.  Both methods act on batched (B, m, *half) modes.
    """

    def __init__(self, op: EvolutionOperator, grid: Grid, dt: float):
        if not (0 < dt < math.inf):
            raise ValidationError(f"dt must be a finite number > 0, got {dt!r}")
        self.grid = grid
        self.dt = float(dt)
        m = op.m
        A = _grid_companion(op, grid, [k[grid.half] for k in grid.wavenumbers()])
        blocks = A.reshape(-1, m, m)
        with np.errstate(over="ignore", invalid="ignore"):
            E, phi = _flow2(blocks, self.dt) if m == 2 else _flow_expm(blocks, self.dt)
        if not (np.isfinite(E).all() and np.isfinite(phi).all()):
            raise ValidationError(
                f"exp(dt A) overflows at dt = {dt!r} on a grid of L = {grid.L!r}; "
                "take a smaller dt")
        self._E = np.ascontiguousarray(np.moveaxis(E.reshape(A.shape), (-2, -1), (0, 1)))
        # Phi e_{m-1}, the weight of the source in each layer: (m, *half)
        self._phi = np.ascontiguousarray(np.moveaxis(phi.reshape(A.shape[:-1]), -1, 0))
        self.mask = grid.dealias_mask()[grid.half]

    def apply_linear(self, modes: np.ndarray) -> np.ndarray:
        """E v for every mode of every member."""
        return np.einsum("ij...,bj...->bi...", self._E, modes)

    def apply_source(self, modes: np.ndarray, source_hat: np.ndarray) -> np.ndarray:
        """modes + Phi e_{m-1} source_hat, a member's source broadcast over its layers."""
        out = self._phi * source_hat[:, None]
        out += modes
        return out


def row_groups(nls: Sequence[NonlinearitySpec | None]) -> list[tuple]:
    """(nonlinearity, rows) of each distinct nonlinearity of the batch rows, first
    seen first, so a step takes one F per group; one shared by all covers slice(None)."""
    rows: dict = {}
    for r, nl in enumerate(nls):
        rows.setdefault(nl, []).append(r)
    return [(nls[0], slice(None))] if len(rows) == 1 else list(rows.items())


def nonlinear_step(modes: np.ndarray, t: float, prop: ModePropagator, ell: int, groups: list,
                   forcing: Callable[[float], np.ndarray] | None = None) -> np.ndarray:
    """The modes one exponential predictor-corrector step of size prop.dt after t,
    the rows' nonlinearities given as their :func:`row_groups`."""
    grid, axes = prop.grid, prop.grid.space_axes

    def source(v: np.ndarray, t: float) -> np.ndarray:
        w = np.fft.irfftn(v[:, ell], s=grid.shape, axes=axes)
        if len(groups) == 1:
            nl = groups[0][0]
            s = eval_F(nl, w) if nl is not None else np.zeros_like(w)
        else:
            s = np.empty_like(w)
            for nl, rows in groups:
                s[rows] = eval_F(nl, w[rows])
        if forcing is not None:
            s = s + forcing(t)
        # passing s spares numpy's own derivation of the transform shape
        s_hat = np.fft.rfftn(s, s=grid.shape, axes=axes)
        s_hat *= prop.mask
        return s_hat

    Ev = prop.apply_linear(modes)
    s0 = source(modes, t)
    pred = prop.apply_source(Ev, s0)
    s0 += source(pred, t + prop.dt)
    s0 *= 0.5
    return prop.apply_source(Ev, s0)


def grid_norms(w: np.ndarray, weight: float, p: float) -> dict[str, float]:
    """L1/L2/Lp/Linf of a physical field under the uniform quadrature weight.

    Each is max|w| times the norm of |w| / max|w| (as BLAS nrm2 scales), whose
    powers lie in [0, 1] and sum to at least 1: on a box of volume v, no norm
    of a field of max c overflows unless c * max(1, v) does, and none of a
    nonzero field underflows in its power, whatever p.
    """
    a = np.abs(w)
    top = float(np.max(a))
    a /= top or 1.0  # a zero field keeps zero norms
    return {
        "L1": top * float(np.sum(a) * weight),
        "L2": top * math.sqrt(np.sum(a * a) * weight),
        "Lp": top * float(np.sum(a**p) * weight) ** (1.0 / p),
        "Linf": top,
    }


@dataclass
class RunConfig:
    """What a run's members share: all but their amplitude and nonlinearity (see :func:`run`)."""

    op: EvolutionOperator
    grid: Grid
    profile: DataProfile
    ell: int
    dt: float
    T: float
    p_for_norms: float | None = None
    record_every: int = 1
    forcing: Callable[[float], np.ndarray] | None = None

    def __post_init__(self):
        if not (type(self.ell) is int and 0 <= self.ell < self.op.m):
            raise ValidationError(f"ell must be an integer in [0, {self.op.m - 1}]")
        if not (0 < self.dt < math.inf and 0 < self.T < math.inf):
            raise ValidationError(f"dt and T must be finite and > 0, got dt = {self.dt!r}, "
                                  f"T = {self.T!r}")
        steps = self.T / self.dt
        if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9 * steps:
            raise ValidationError(f"T = {self.T} must be a multiple of dt = {self.dt}")
        if not (type(self.record_every) is int and self.record_every >= 1):
            raise ValidationError("record_every must be an integer >= 1")
        if self.p_for_norms is not None and not (self.p_for_norms >= 1):
            raise ValidationError("p_for_norms must be >= 1")

    def check_amplitudes(self, amplitudes: Sequence[float]) -> None:
        """Reject the first amplitude whose threshold c = BLOWUP_FACTOR * |amplitude|
        * max|profile|, where :func:`blown` stops a field, has c * max(1, N^n h^n)
        past the float range: a field's :func:`grid_norms` could overflow there."""
        peak = float(np.max(np.abs(self.profile.render(self.grid))))
        volume = self.grid.N**self.grid.n * self.grid.quad_weight()
        for a in amplitudes:
            limit = BLOWUP_FACTOR * abs(a) * peak
            if not limit * max(1.0, volume) < math.inf:
                raise ValidationError(
                    f"amplitude {a!r} puts the blow-up threshold {BLOWUP_FACTOR:g} * "
                    f"|amplitude| * max|profile| = {limit:.3g} out of the float range of "
                    f"the norms on the box of volume {volume:.3g} (grid.L = "
                    f"{self.grid.L:g} in n = {self.grid.n}); a smaller grid.L or "
                    "amplitude keeps them in range")

    def norm_power(self, nl: NonlinearitySpec | None) -> float:
        """p_for_norms if set, else the power of the member's nonlinearity ``nl``, else 2."""
        if self.p_for_norms is not None:
            return self.p_for_norms
        return nl.p if nl is not None else 2.0


@dataclass
class RunReport:
    """Everything one member of a run leaves behind, filled as the run steps.

    :func:`run` builds it before the first step with the member's ``meta``,
    its physical ``initial_layers`` (m, *shape), their data-sign diagnostic
    :func:`initial_sign_functional` and an empty ``series``, which maps
    column name -> list (one entry per recorded time); norm columns are per
    layer k <= ell, e.g. 'L2[0]', then 'xnorm_weighted' and
    'xnorm_running_sup'.  Each record appends to ``times`` and ``series`` and
    raises ``xnorm_sup``, stamping ``xnorm_last_increase``; a blow-up sets
    ``outcome``, ``blowup_time`` (the last time before it) and
    ``meta["steps_taken"]``.  A recorded field is not part of the report:
    ``run`` streams it to a field file.
    """

    meta: dict
    initial_layers: np.ndarray
    initial_sign_functional: float
    series: dict[str, list[float]]
    times: list[float] = field(default_factory=list)
    outcome: str = "completed"  # completed | blowup_detected
    blowup_time: float | None = None
    xnorm_sup: float = 0.0
    xnorm_last_increase: float = 0.0

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome,
            "blowup_time": self.blowup_time,
            "xnorm_sup": self.xnorm_sup,
            "xnorm_last_increase": self.xnorm_last_increase,
            "initial_sign_functional": self.initial_sign_functional,
            "meta": self.meta,
            "n_records": len(self.times),
        }


def box_horizon(op: EvolutionOperator, grid: Grid) -> float:
    """Decay horizon of the slowest axis's smallest nonzero mode (inf if undamped)."""
    A = _grid_companion(op, grid, list(2 * np.pi / grid.L * np.eye(grid.n)))
    rate = -float(np.max(np.real(np.linalg.eigvals(A))))
    if rate <= 1e-300:
        return math.inf
    return 1.0 / rate


#: relative slack of the blow-up screen, far above the rounding of either side
SCREEN_MARGIN = 1e-9


def blown(modes: np.ndarray, ref: np.ndarray, grid: Grid) -> np.ndarray:
    """Per member of batched half-spectrum modes (B, m, *half): not finite,
    or some layer past the threshold.

    Member b has blown up when a physical layer's max |u_k| exceeds
    BLOWUP_FACTOR * ref[b].  Since max |u_k| <= sum |u^_k| / N^n over the
    full spectrum, which is the half-spectrum sum weighted by
    ``Grid.half_weights``, a member whose sums stay below the threshold by
    SCREEN_MARGIN cannot have; only the others pay the exact irfftn,
    so the decision is the exact one.  A non-finite member fails the screen
    and is blown.
    """
    limit = BLOWUP_FACTOR * ref
    # weighted sum along the last axis, then a plain one along the other (n = 2)
    sums = (np.abs(modes) @ grid.half_weights()).sum(axis=grid.space_axes[1:]).max(axis=1)
    out = ~(sums <= (1.0 - SCREEN_MARGIN) * grid.N**grid.n * limit)
    if not out.any():
        return out
    for b in np.flatnonzero(out):
        if np.isfinite(modes[b]).all():
            layers = np.fft.irfftn(modes[b], s=grid.shape, axes=grid.space_axes)
            out[b] = float(np.max(np.abs(layers))) > limit[b]
    return out


def run(config: RunConfig, members: Sequence[tuple[float, NonlinearitySpec | None]],
        field_files: Sequence[str | Path] | None = None) -> list[RunReport]:
    """March to T (or blow-up), recording norms and the weighted X-history.

    Returns one RunReport per (amplitude, nonlinearity or None) of ``members``,
    a member's data being its amplitude times ``config.profile``; all members
    have a nonlinearity or none has.  They share one propagator and step
    together as one batch, and each report equals its member's alone.
    ``config.check_amplitudes`` judges them before any file is opened.  Each
    report is built before the first step with its initial layers, sign
    functional and meta, and filled as the batch steps: every record appends
    to its series, and a member that blows up has its outcome set at that
    step and leaves the batch.

    A run records fields exactly when ``field_files`` names one .npy path
    per member: each member's d_t^ell u is written to its file as it is
    recorded, and the file ends byte-identical to ``np.save`` of its
    (records, *shape) stack.  A run that raises leaves none of these files.
    """
    members = list(members)
    if not members or len({nl is None for _, nl in members}) > 1:
        raise ValidationError("members must be a non-empty list, all with a nonlinearity or none")
    if field_files is not None and len(field_files) != len(members):
        raise ValidationError("field_files needs one path per member")
    config.check_amplitudes([a for a, _ in members])
    op, grid, ell = config.op, config.grid, config.ell
    amps, nls = zip(*members)
    modes = init_state(op, grid, config.profile, amps)
    prop = ModePropagator(op, grid, config.dt)
    n_steps = int(round(config.T / config.dt))
    initial = np.fft.irfftn(modes, s=grid.shape, axes=grid.space_axes)
    # the meta every member shares, in two parts around each member's own keys
    # so that the artifact keeps its key order
    head = {"m": op.m, "n": op.n, "ell": ell, "N": grid.N, "L": grid.L, "dt": config.dt,
            "T": config.T}
    tail = {
        "dealias_modes_kept": int(np.sum(grid.dealias_mask())),
        "box_horizon": box_horizon(op, grid),
        "box_horizon_caveat": (
            "periodic box: whole-space polynomial decay laws are meaningful only "
            "up to roughly the horizon above, where the slowest retained mode "
            "stops decaying like its whole-space counterpart"
        ),
        "blowup_factor": BLOWUP_FACTOR,
    }
    columns = [f"{name}[{k}]" for k in range(ell + 1) for name in ("L1", "L2", "Lp", "Linf")]
    columns += ["xnorm_weighted", "xnorm_running_sup"]
    reports = [
        RunReport(meta={**head, "amplitude": a, "steps_taken": n_steps,
                        "norm_power": config.norm_power(nl), **tail},
                  initial_layers=layers,
                  initial_sign_functional=initial_sign_functional(op, ell, layers, grid),
                  series={c: [] for c in columns})
        for a, nl, layers in zip(amps, nls, initial)]
    # zero data is a legitimate run (the state stays zero); keep a unit
    # reference so any numerical escape still trips the threshold
    ref = np.array([float(np.max(np.abs(layers))) or 1.0 for layers in initial])
    live = np.arange(len(amps))  # the member each batch row belongs to
    linear = config.forcing is None and nls[0] is None
    groups = row_groups(nls)
    weight = grid.quad_weight()
    n_records = 1 + n_steps // config.record_every + (n_steps % config.record_every != 0)
    writers: list[FrameWriter] = []

    def record(t: float) -> None:
        """Norms of each live member's physical layers 0..ell at time t, its
        X-norm, and its layer ell if streamed."""
        layers = np.fft.irfftn(modes[:, :ell + 1], s=grid.shape, axes=grid.space_axes)
        for row, b in enumerate(live):
            r, p = reports[b], reports[b].meta["norm_power"]
            r.times.append(t)
            xval = 0.0
            for k in range(ell + 1):
                norms = grid_norms(layers[row, k], weight, p)
                for name, val in norms.items():
                    r.series[f"{name}[{k}]"].append(val)
                xval += (1.0 + t) ** (1.0 / p + k - ell) * max(norms["Lp"], norms["Linf"])
            r.series["xnorm_weighted"].append(xval)
            if xval > r.xnorm_sup * (1.0 + 1e-12):
                r.xnorm_sup, r.xnorm_last_increase = xval, t
            r.series["xnorm_running_sup"].append(r.xnorm_sup)
            if writers:
                writers[b][len(r.times) - 1] = layers[row, ell]

    try:
        for path in field_files or ():
            writers.append(FrameWriter(path, n_records, grid.shape))
        t = 0.0
        record(t)
        # a member that overflows is caught by blown(), which counts a non-finite
        # value as a blow-up, so numpy's overflow warnings say nothing more
        with np.errstate(over="ignore", invalid="ignore"):
            for step in range(1, n_steps + 1):
                if linear:
                    modes = prop.apply_linear(modes)
                else:
                    modes = nonlinear_step(modes, t, prop, ell, groups, config.forcing)
                out = blown(modes, ref[live], grid)
                if out.any():
                    # a blown member's time is the last one it passed, t
                    for b in live[out]:
                        reports[b].outcome = "blowup_detected"
                        reports[b].blowup_time = t
                        reports[b].meta["steps_taken"] = step
                    modes = modes[~out]
                    live = live[~out]
                    if not live.size:
                        break
                    groups = row_groups([nls[b] for b in live])
                t = step * prop.dt  # not a running sum, which drifts
                if step % config.record_every == 0 or step == n_steps:
                    record(t)
        for w in writers:
            w.close()
    except BaseException:
        for w in writers:
            w.discard()
        raise
    return reports
