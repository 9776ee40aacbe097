"""Periodic pseudospectral solver for d_t^m u + sum P_j(d_x) d_t^j u = F(d_t^l u).

Space is a centered periodic box [-L/2, L/2)^n (n = 1 or 2) on N^n points.
Fields are real, so the state keeps only the real half spectrum: the rfftn
coefficients, N/2 + 1 columns along the last axis (``Grid.half``), whose
other modes are conjugate mirrors; irfftn(..., s=grid.shape) maps it back
to a field that is real by construction.  Each kept Fourier mode carries
the companion state v = (u, d_t u, ..., d_t^{m-1} u)^ and evolves by
v' = A(xi) v + e_{m-1} F^(d_t^l u).  The linear flow is the
exact matrix exponential E = exp(dt A); the Duhamel weight
Phi = integral_0^dt exp(s A) ds comes from the same scaling-and-squaring
call on the augmented block [[A, I], [0, 0]] (top-right block of its
exponential), so no quadrature in time is involved.  The nonlinear term is
advanced by an exponential predictor-corrector,

    v* = E v + Phi e F^(t),      v+ = E v + Phi e (F^(t) + F^*(t+dt)) / 2,

whose averaged source matches the Duhamel integral to O(dt^3) locally,
i.e. second order globally.  Products are formed in physical space
(irfftn, F, rfftn) and dealiased with the 2/3 rule (modes with any
|k| > N/3 dropped, the Nyquist column N/2 among them), applied to the
initial data and to every nonlinear transform; the linear flow is diagonal
per mode and cannot repopulate masked modes.

Several amplitudes of one config can run as one batch: the state then
carries a leading member axis, the members share the propagator, and
every reduction that feeds a report (norms, the X-norm, the blow-up check)
runs on one member's own rows, so each member's report equals its single
run bit for bit.

Periodic-box caveat: polynomial decay laws of the whole-space problem hold
only while the box still resolves the relevant low frequencies; every run
report records the estimated horizon 1/|Re lambda_max(A(xi_min))| for the
smallest nonzero mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .config import Key, read
from .errors import ValidationError
from .mu import NonlinearitySpec, eval_F
from .operators import EvolutionOperator

BLOWUP_FACTOR = 1e6


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L/2, L/2)^n."""

    n: int
    N: int
    L: float

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValidationError("grid supports n = 1 or 2")
        if not (isinstance(self.N, int) and self.N >= 8 and self.N % 2 == 0):
            raise ValidationError("N must be an even integer >= 8")
        if not (self.L > 0):
            raise ValidationError("box length L must be > 0")

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
        """
        w = np.full(self.N // 2 + 1, 2.0)
        w[[0, -1]] = 1.0
        return w

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
        if self.kind != "custom_table" and not (self.width > 0):
            raise ValidationError("profile width must be > 0")
        if self.kind == "custom_table" and not self.values:
            raise ValidationError("custom_table profile needs values")

    def render(self, grid: Grid) -> np.ndarray:
        coords = grid.coords()
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


_PROFILE = {
    "kind": Key("str", "gaussian"),
    "width": Key("number", 1.0),
    "zero_mean": Key("bool", False),
    "values": Key("number[]", None),
}


def parse_profile(doc: Mapping) -> DataProfile:
    return DataProfile(**read(doc, _PROFILE, "profile"))


def _layer(modes: np.ndarray, k: int, n: int) -> np.ndarray:
    """Layer k of (m, *shape) or batched (B, m, *shape) modes."""
    return modes[(..., k) + (slice(None),) * n]


@dataclass
class SimState:
    """Companion-state half-spectrum coefficients of one run or of a batch of runs.

    ``modes`` is (m, *half), layer k holding rfftn(d_t^k u) with
    *half = (*grid.shape[:-1], N/2 + 1), or carries a leading batch axis,
    (B, m, *half), for B runs that share t, the grid and the operator.
    """

    t: float
    modes: np.ndarray
    grid: Grid

    def physical(self, layer: int) -> np.ndarray:
        return np.fft.irfftn(_layer(self.modes, layer, self.grid.n),
                             s=self.grid.shape, axes=self.grid.space_axes)


def init_state(op: EvolutionOperator, grid: Grid, profile: DataProfile,
               amplitude: float = 1.0) -> SimState:
    """Zero state except the data layer m-1 = amplitude * profile (dealiased)."""
    if op.n != grid.n:
        raise ValidationError("operator and grid dimensions disagree")
    f_hat = np.fft.rfftn(amplitude * profile.render(grid)) * grid.dealias_mask()[grid.half]
    modes = np.zeros((op.m,) + f_hat.shape, dtype=complex)
    modes[op.m - 1] = f_hat
    return SimState(t=0.0, modes=modes, grid=grid)


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


class ModePropagator:
    """Exact one-step linear flow E and Duhamel weight Phi for a fixed dt.

    Built once per (operator, grid, dt) on the half-spectrum wavenumbers:
    exp(dt [[A, I], [0, 0]]) yields E = exp(dt A) in the top-left block and
    Phi = integral_0^dt exp(sA) ds in the top-right.  A(xi) takes far fewer
    values than there are modes (a radial symbol depends on |xi|^2 only),
    so the exponential runs once per distinct companion block, compared bit
    for bit, and is gathered back to every mode; expm treats each block on
    its own, so the result equals a per-mode build exactly.  Only what
    stepping reads is kept: E layer-major, ``_E`` of shape (m, m, *half), so
    the per-mode product runs along contiguous space, and the last column of
    Phi as ``_phi``, (m, *half).
    """

    def __init__(self, op: EvolutionOperator, grid: Grid, dt: float):
        from scipy.linalg import expm

        if not (dt > 0):
            raise ValidationError("dt must be > 0")
        self.grid = grid
        self.dt = float(dt)
        m = op.m
        A = op.companion([k[grid.half] for k in grid.wavenumbers()])
        rows = np.ascontiguousarray(A).reshape(-1, m * m)
        # a void view compares the raw bytes, so -0.0 and 0.0 stay apart
        keys = rows.view(np.dtype((np.void, rows.itemsize * m * m))).ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        aug = np.zeros((first.size, 2 * m, 2 * m), dtype=complex)
        aug[:, :m, :m] = rows[first].reshape(-1, m, m)
        for i in range(m):
            aug[:, i, m + i] = 1.0
        big = expm(self.dt * aug)
        E = big[:, :m, :m][inverse].reshape(A.shape)
        self._E = np.ascontiguousarray(np.moveaxis(E, (-2, -1), (0, 1)))
        # Phi e_{m-1}, the weight of the source in each layer: (m, *half)
        phi = big[:, :m, 2 * m - 1][inverse].reshape(A.shape[:-1])
        self._phi = np.ascontiguousarray(np.moveaxis(phi, -1, 0))
        self._layer_axis = (..., None) + (slice(None),) * grid.n

    def apply_linear(self, modes: np.ndarray) -> np.ndarray:
        """E v for every mode of (m, *half) or batched (B, m, *half) modes."""
        if modes.ndim == self.grid.n + 1:
            return self.apply_linear(modes[None])[0]
        return np.einsum("ij...,bj...->bi...", self._E, modes)

    def apply_source(self, modes: np.ndarray, source_hat: np.ndarray) -> np.ndarray:
        """modes + Phi e_{m-1} source_hat, the source broadcast over the layers."""
        return modes + self._phi * source_hat[self._layer_axis]


def linear_step(state: SimState, prop: ModePropagator) -> None:
    state.modes = prop.apply_linear(state.modes)
    state.t += prop.dt


def nonlinear_step(state: SimState, prop: ModePropagator, ell: int,
                   nl: NonlinearitySpec | None,
                   forcing: Callable[[float], np.ndarray] | None = None,
                   mask: np.ndarray | None = None) -> None:
    """One exponential predictor-corrector step of size prop.dt (one run or a batch)."""
    grid = state.grid
    if mask is None:
        mask = grid.dealias_mask()[grid.half]
    axes = grid.space_axes

    def source(modes: np.ndarray, t: float) -> np.ndarray:
        w = np.fft.irfftn(_layer(modes, ell, grid.n), s=grid.shape, axes=axes)
        s = np.asarray(eval_F(nl, w)) if nl is not None else np.zeros_like(w)
        if forcing is not None:
            s = s + forcing(t)
        return np.fft.rfftn(s, axes=axes) * mask

    Ev = prop.apply_linear(state.modes)
    s0 = source(state.modes, state.t)
    pred = prop.apply_source(Ev, s0)
    s1 = source(pred, state.t + prop.dt)
    state.modes = prop.apply_source(Ev, 0.5 * (s0 + s1))
    state.t += prop.dt


def grid_norms(w: np.ndarray, weight: float, p: float) -> dict[str, float]:
    """L1/L2/Lp/Linf of a physical field under the uniform quadrature weight."""
    a = np.abs(w)
    return {
        "L1": float(np.sum(a) * weight),
        "L2": float(math.sqrt(np.sum(a**2) * weight)),
        "Lp": float(np.sum(a**p) * weight) ** (1.0 / p),
        "Linf": float(np.max(a)),
    }


@dataclass
class RunConfig:
    op: EvolutionOperator
    grid: Grid
    profile: DataProfile
    ell: int
    dt: float
    T: float
    amplitude: float = 1.0
    nl: NonlinearitySpec | None = None
    p_for_norms: float | None = None
    record_every: int = 1
    record_fields: bool = False
    forcing: Callable[[float], np.ndarray] | None = None

    def __post_init__(self):
        if not (isinstance(self.ell, int) and 0 <= self.ell < self.op.m):
            raise ValidationError(f"ell must be an integer in [0, {self.op.m - 1}]")
        if not (self.dt > 0 and self.T > 0):
            raise ValidationError("dt and T must be > 0")
        steps = self.T / self.dt
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ValidationError(f"T = {self.T} must be a multiple of dt = {self.dt}")
        if self.record_every < 1:
            raise ValidationError("record_every must be >= 1")
        if self.p_for_norms is not None and not (self.p_for_norms >= 1):
            raise ValidationError("p_for_norms must be >= 1")

    @property
    def norm_power(self) -> float:
        if self.p_for_norms is not None:
            return self.p_for_norms
        if self.nl is not None:
            return self.nl.p
        return 2.0


@dataclass
class RunReport:
    """Everything a run leaves behind.

    ``series`` maps column name -> list (one entry per recorded time);
    norm columns are per layer k <= ell, e.g. 'L2[0]'.  ``fields`` (only
    when requested) holds the physical layers 0 and ell at each recorded
    time for the weak-residual check.  ``initial_sign_functional`` is the
    data-sign diagnostic of :func:`initial_sign_functional` at t = 0.
    """

    outcome: str  # completed | blowup_detected
    blowup_time: float | None
    times: list[float]
    series: dict[str, list[float]]
    meta: dict
    fields: dict[str, np.ndarray] | None = None
    initial_layers: np.ndarray | None = None
    xnorm_sup: float = math.nan
    xnorm_last_increase: float = math.nan
    initial_sign_functional: float = math.nan

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
    """Decay horizon of the slowest retained nonzero mode (inf if undamped)."""
    xi_min = [np.array(0.0)] * grid.n
    xi_min[0] = np.array(2 * np.pi / grid.L)
    A = op.companion(xi_min)
    lam = np.linalg.eigvals(A)
    rate = -float(np.max(np.real(lam)))
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
    SCREEN_MARGIN cannot have; only the others pay the exact inverse FFTs,
    so the decision is the exact one.  A non-finite member fails the screen
    and is blown.
    """
    limit = BLOWUP_FACTOR * ref
    # weighted sum along the last axis, then a plain one along the other (n = 2)
    sums = (np.abs(modes) @ grid.half_weights()).sum(axis=grid.space_axes[1:]).max(axis=1)
    out = ~(sums <= (1.0 - SCREEN_MARGIN) * grid.N**grid.n * limit)
    for b in np.flatnonzero(out):
        if np.isfinite(modes[b]).all():
            layers = np.fft.irfftn(modes[b], s=grid.shape, axes=grid.space_axes)
            out[b] = float(np.max(np.abs(layers))) > limit[b]
    return out


class _History:
    """What one member of a run records: norm series, X-norm, fields and outcome.

    With ``frames_shape`` = (records, *shape), each recorded field is written
    into a preallocated per-layer array; layer ell shares layer 0's when
    ell = 0.
    """

    def __init__(self, ell: int, p: float, weight: float,
                 frames_shape: tuple[int, ...] | None, n_steps: int):
        self.ell, self.p, self.weight = ell, p, weight
        self.times: list[float] = []
        self.series: dict[str, list[float]] = {
            f"{name}[{k}]": [] for k in range(ell + 1) for name in ("L1", "L2", "Lp", "Linf")
        }
        self.series["xnorm_weighted"] = []
        self.series["xnorm_running_sup"] = []
        self.frames: tuple[np.ndarray, np.ndarray] | None = None
        if frames_shape is not None:
            layer0 = np.empty(frames_shape)
            self.frames = (layer0, np.empty(frames_shape) if ell else layer0)
        self.xsup = 0.0
        self.xsup_time = 0.0
        self.outcome = "completed"
        self.blowup_time: float | None = None
        self.steps = n_steps

    def record(self, t: float, layers: np.ndarray) -> None:
        """Norms of the physical layers 0..ell at time t (and the fields, if kept)."""
        ell, p = self.ell, self.p
        self.times.append(t)
        xval = 0.0
        for k in range(ell + 1):
            norms = grid_norms(layers[k], self.weight, p)
            for name, val in norms.items():
                self.series[f"{name}[{k}]"].append(val)
            xval += (1.0 + t) ** (1.0 / p + k - ell) * max(norms["Lp"], norms["Linf"])
        self.series["xnorm_weighted"].append(xval)
        if xval > self.xsup * (1.0 + 1e-12):
            self.xsup = xval
            self.xsup_time = t
        self.series["xnorm_running_sup"].append(self.xsup)
        if self.frames is not None:
            i = len(self.times) - 1
            self.frames[0][i] = layers[0]
            if ell:
                self.frames[1][i] = layers[ell]

    def fields(self) -> dict[str, np.ndarray] | None:
        """The recorded layers 0 and ell, sliced to the frames actually recorded."""
        if self.frames is None:
            return None
        count = len(self.times)
        layer0 = self.frames[0][:count]
        return {"layer0": layer0, "layer_ell": self.frames[1][:count] if self.ell else layer0}


def run(config: RunConfig,
        amplitudes: Sequence[float] | None = None) -> RunReport | list[RunReport]:
    """March to T (or blow-up), recording norms and the weighted X-history.

    Returns one RunReport.  With ``amplitudes`` it returns one report per
    amplitude, each equal to ``run(replace(config, amplitude=a))``: the
    members share one propagator and step together as one batch, and a
    member that blows up is finalised at that step and leaves the batch.
    """
    amps = [config.amplitude] if amplitudes is None else list(amplitudes)
    if not amps:
        raise ValidationError("amplitudes must be a non-empty list")
    op, grid = config.op, config.grid
    ell = config.ell
    p = config.norm_power
    states = [init_state(op, grid, config.profile, a) for a in amps]
    prop = ModePropagator(op, grid, config.dt)
    mask = grid.dealias_mask()[grid.half]
    n_steps = int(round(config.T / config.dt))

    initial = [np.stack([s.physical(k) for k in range(op.m)]) for s in states]
    # zero data is a legitimate run (the state stays zero); keep a unit
    # reference so any numerical escape still trips the threshold
    ref = np.array([float(np.max(np.abs(layers))) or 1.0 for layers in initial])
    state = SimState(t=0.0, modes=np.stack([s.modes for s in states]), grid=grid)
    n_records = 1 + n_steps // config.record_every + (n_steps % config.record_every != 0)
    frames_shape = (n_records,) + grid.shape if config.record_fields else None
    hist = [_History(ell, p, grid.quad_weight(), frames_shape, n_steps) for _ in amps]
    live = np.arange(len(amps))  # the member each batch row belongs to

    def record():
        layers = np.fft.irfftn(state.modes[:, :ell + 1], s=grid.shape, axes=grid.space_axes)
        for row, b in enumerate(live):
            hist[b].record(state.t, layers[row])

    record()
    last_good_t = state.t
    # a member that overflows is caught by blown(), which counts a non-finite
    # value as a blow-up, so numpy's overflow warnings say nothing more
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            if config.nl is None and config.forcing is None:
                linear_step(state, prop)
            else:
                nonlinear_step(state, prop, ell, config.nl, config.forcing, mask)
            out = blown(state.modes, ref[live], grid)
            if out.any():
                for b in live[out]:
                    hist[b].outcome = "blowup_detected"
                    hist[b].blowup_time = last_good_t
                    hist[b].steps = step
                state.modes = state.modes[~out]
                live = live[~out]
                if not live.size:
                    break
            last_good_t = state.t
            if step % config.record_every == 0 or step == n_steps:
                record()

    horizon = box_horizon(op, grid)
    reports = [_report(config, amp, h, layers, horizon, int(np.sum(grid.dealias_mask())))
               for amp, h, layers in zip(amps, hist, initial)]
    return reports[0] if amplitudes is None else reports


def _report(config: RunConfig, amplitude, h: _History, initial_layers: np.ndarray,
            horizon: float, modes_kept: int) -> RunReport:
    op, grid = config.op, config.grid
    meta = {
        "m": op.m,
        "n": op.n,
        "ell": config.ell,
        "N": grid.N,
        "L": grid.L,
        "dt": config.dt,
        "T": config.T,
        "amplitude": amplitude,
        "steps_taken": h.steps,
        "norm_power": h.p,
        "dealias_modes_kept": modes_kept,
        "box_horizon": horizon,
        "box_horizon_caveat": (
            "periodic box: whole-space polynomial decay laws are meaningful only "
            "up to roughly the horizon above, where the slowest retained mode "
            "stops decaying like its whole-space counterpart"
        ),
        "blowup_factor": BLOWUP_FACTOR,
    }
    return RunReport(
        outcome=h.outcome,
        blowup_time=h.blowup_time,
        times=h.times,
        series=h.series,
        meta=meta,
        fields=h.fields(),
        initial_layers=initial_layers,
        xnorm_sup=h.xsup,
        xnorm_last_increase=h.xsup_time,
        initial_sign_functional=initial_sign_functional(op, config.ell, initial_layers, grid),
    )
