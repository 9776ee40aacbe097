"""Weak-form identity residual for recorded solver runs.

A weak solution on [0, T) must satisfy, for every admissible test function
psi (smooth, compactly supported in [0, T) x box),

    int int F(d_t^l u) psi dx dt
      = sum_{j in J u {m}} (-1)^{j-l} int int d_t^l u * P~_j(d_x) D_t^{j-l} psi dx dt
        - sum_{j > l} sum_{i=0}^{j-l-1} (-1)^i int u_{j-1-i} P~_j d_t^i psi(0) dx
        - sum_{j < l} sum_{i=0}^{l-j-1} (-1)^i int u_{j+i} P~_j (D_t^{-(i+1)} psi)(0) dx,

where P~_j is the formal adjoint level (multiplier conj(P_j(i k)) for real
coefficients), D_t^k psi is the plain k-th time derivative for k >= 0 and
the backward time anti-derivative  D_t^{-1} w(t) = -int_t^T w  for k < 0.
The boundary sums collect every initial layer the time integrations by
parts strand at t = 0; the i >= 1 pieces vanish only when the data lives
inside the core where psi(0, x) is identically 1, which is not assumed.

The test function is the scaled bump

    psi(t, x) = chi((t + rho(x)) / R)^{q_tf},
    rho(x) = (|x|^2 + reg_eps^2)^{eta_bar / 2},

with chi == 1 on [0, 1/2], a polynomial smoothstep transition with
``smooth_order`` vanishing derivatives down to 0 at 1, and 0 beyond.  Time
derivatives of psi are closed-form piecewise polynomials; adjoint spatial
levels act through Fourier multipliers on the grid (psi is smooth and
supported strictly inside the box, so the periodic representation is the
function itself); anti-derivatives are numeric backward trapezoids over
the recorded times.

The returned relative residual is |LHS - RHS| / (|LHS| + |RHS| + floor)
with floor the gross scale sum_j |term_j| + |data term| (so a linear run,
where LHS = 0 and RHS cancels to zero, is scored against the size of what
cancelled).  Passing this check is necessary for the recorded field to be
a weak solution, never sufficient: it is one test function out of the
whole admissible class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .config import MAX_SMOOTH_ORDER, as_fraction
from .envelope import critical_exponent
from .errors import ValidationError
from .mu import NonlinearitySpec, eval_F
from .operators import EvolutionOperator
from .reporting import FrameReader
from .solver import Grid


def _series_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cauchy product of truncated Taylor series stacked along axis 0."""
    c = np.zeros_like(a)
    for i in range(a.shape[0]):
        for r in range(i + 1):
            c[i] += a[r] * b[i - r]
    return c


def _series_pow(c: np.ndarray, q: int) -> np.ndarray:
    out = np.zeros_like(c)
    out[0] = 1.0
    base = c
    while q:
        if q & 1:
            out = _series_mul(out, base)
        q >>= 1
        if q:
            base = _series_mul(base, base)
    return out


@dataclass(frozen=True)
class TestFunctionSpec:
    """Bump psi(t,x) = chi((t + rho(x))/R)^q_tf (see module docstring).

    ``eta_bar`` sets the parabolic-type spatial scaling |x|^eta_bar;
    ``scale`` is R; ``flat_fraction`` the end of the chi == 1 core;
    ``reg_epsilon`` regularizes |x|^eta_bar at the origin when eta_bar/2
    is not an integer (0 keeps the bare power).  Every field is the resolved
    value; ``make_test_function`` derives the defaults from the operator.
    """

    eta_bar: Fraction
    scale: float
    q_tf: int
    flat_fraction: float
    smooth_order: int
    reg_epsilon: float

    __test__ = False  # keep pytest from collecting the Test* name

    def __post_init__(self):
        object.__setattr__(self, "eta_bar", as_fraction(self.eta_bar))
        if self.eta_bar <= 0:
            raise ValidationError("eta_bar must be > 0")
        if not (self.scale > 0):
            raise ValidationError("scale R must be > 0")
        if not (type(self.q_tf) is int and self.q_tf >= 1):
            raise ValidationError("q_tf must be an integer >= 1")
        if not (type(self.smooth_order) is int and 1 <= self.smooth_order <= MAX_SMOOTH_ORDER):
            raise ValidationError(f"smooth_order must be an integer in [1, {MAX_SMOOTH_ORDER}], "
                                  f"got {self.smooth_order!r}")
        if not (0 < self.flat_fraction < 1):
            raise ValidationError("flat_fraction must be in (0, 1)")
        if self.reg_epsilon < 0:
            raise ValidationError("reg_epsilon must be >= 0")

    @cached_property
    def _beta_norm(self) -> float:
        """B(o+1, o+1) = o!^2 / (2o+1)!."""
        o = self.smooth_order
        return math.factorial(o) ** 2 / math.factorial(2 * o + 1)

    def _chi_taylor(self, k: int, u: np.ndarray) -> np.ndarray:
        """Taylor rows chi^(i)(u)/i!, i = 0..k, of the descent polynomial.

        chi = 1 - I_u(o+1, o+1) is the binomial tail sum_{j<=o} C(2o+1, j)
        u^j (1-u)^{2o+1-j}, non-negative term by term, and its derivatives
        come from the Leibniz expansion of u^o (1-u)^o.  Expanding chi**q_tf
        into monomial coefficients instead is catastrophically ill-conditioned
        (degree ~ 40, coefficients ~ 1e19, total cancellation near u = 1),
        which corrupts the identity at the support edge.
        """
        o = self.smooth_order
        rows = np.empty((k + 1,) + u.shape)
        rows[0] = sum(math.comb(2 * o + 1, j) * u**j * (1.0 - u) ** (2 * o + 1 - j)
                      for j in range(o + 1))
        for i in range(1, k + 1):
            r = i - 1
            acc = np.zeros_like(u)
            for a in range(r + 1):
                if a > o or r - a > o:
                    continue
                fall_a = math.prod(range(o, o - a, -1))
                fall_b = math.prod(range(o, o - (r - a), -1))
                acc += (math.comb(r, a) * fall_a * fall_b * (-1) ** (r - a)
                        * u ** (o - a) * (1.0 - u) ** (o - (r - a)))
            rows[i] = -acc / (self._beta_norm * math.factorial(i))
        return rows

    def weights(self, k: int, s: np.ndarray) -> np.ndarray:
        """The s-derivatives 0..k of chi(s)^q_tf, (k + 1, *s.shape), piecewise closed form.

        One Taylor pass to order k gives every row: row i of a truncated
        Cauchy product reads only rows <= i of its factors, so it holds the
        bits a pass to order i would.
        """
        s = np.asarray(s, dtype=float)
        out = np.zeros((k + 1,) + s.shape)
        s0 = self.flat_fraction
        core = s <= s0
        out[0][core] = 1.0
        mid = (~core) & (s < 1.0)
        if np.any(mid):
            u = (s[mid] - s0) / (1.0 - s0)
            series = _series_pow(self._chi_taylor(k, u), self.q_tf)
            for i in range(k + 1):
                out[i][mid] = series[i] * math.factorial(i) / (1.0 - s0) ** i
        return out

    def rho(self, grid: Grid) -> np.ndarray:
        coords = grid.coords()
        r2 = sum(c**2 for c in coords) + self.reg_epsilon**2
        return r2 ** (float(self.eta_bar) / 2.0)

    def time_derivatives(self, k: int, t: float, rho: np.ndarray) -> np.ndarray:
        """d_t^i psi(t, .) on the grid for i = 0..k, (k + 1, *rho.shape)."""
        out = self.weights(k, (t + rho) / self.scale)
        for i in range(1, k + 1):
            out[i] /= self.scale**i
        return out

    def support_checks(self, grid: Grid, t_end: float) -> list[str]:
        msgs = []
        if self.scale > t_end * (1 + 1e-12):
            msgs.append(
                f"psi needs recorded times up to R = {self.scale}, run ends at {t_end}"
            )
        half = grid.L / 2.0
        rho_edge = (half**2 + self.reg_epsilon**2) ** (float(self.eta_bar) / 2.0)
        if rho_edge < self.scale * (1 - 1e-12):
            msgs.append(
                "psi support leaks through the box edge: (L/2)^eta_bar = "
                f"{rho_edge:.6g} < R = {self.scale}"
            )
        if (self.reg_epsilon ** float(self.eta_bar)) / self.scale > self.flat_fraction:
            msgs.append("reg_epsilon so large that psi is not 1 at the origin")
        return msgs


def default_q_tf(op: EvolutionOperator, ell: int, p_c) -> int:
    """ceil of max_j (d_j + (j - ell)_+) * p_c', with p_c' = p_c/(p_c - 1)."""
    if p_c == math.inf:
        dual = Fraction(1)
    else:
        p_c = as_fraction(p_c)
        if p_c <= 1:
            raise ValidationError("q_tf default needs p_c > 1 (finite conjugate)")
        dual = p_c / (p_c - 1)
    worst = max(
        op.spatial_order(j) + max(j - ell, 0) for j in op.order_set()
    )
    return max(1, math.ceil(worst * dual))


def make_test_function(op: EvolutionOperator, ell: int, grid: Grid, t_end: float,
                       eta_bar="critical", scale="auto", q_tf: int | None = None,
                       flat_fraction: float = 0.5, smooth_order: int | None = None,
                       reg_epsilon: float | None = None) -> TestFunctionSpec:
    """The test function for a run of (op, ell) on ``grid`` recorded up to
    ``t_end``, every default resolved: "critical" eta_bar is eta* of (op, ell);
    "auto" scale is 0.98 min(t_end, (L/2)^eta_bar), inside the recorded times
    and the box; q_tf is ``default_q_tf`` at p_c; smooth_order is
    max(6, ceil(d) + 2, m - ell + 2), covering every derivative the identity
    takes (d the largest spatial order); reg_epsilon is 0 when eta_bar is an
    even integer (|x|^eta_bar is then smooth) and h/4 otherwise."""
    rep = critical_exponent(op, ell, op.n) if eta_bar == "critical" or q_tf is None else None
    if eta_bar == "critical":
        if rep.eta_star == math.inf:
            raise ValidationError("critical scaling weight is infinite; pass test_function.eta_bar")
        if rep.eta_star <= 0:
            raise ValidationError("critical eta is 0; pass a positive test_function.eta_bar")
        eta_bar = rep.eta_star
    eta_bar = as_fraction(eta_bar)
    if reg_epsilon is None:
        even_integer = eta_bar.denominator == 1 and eta_bar.numerator % 2 == 0
        reg_epsilon = 0.0 if even_integer else grid.h / 4.0
    # rho = (|x|^2 + reg_epsilon^2)^(eta_bar / 2) must be a float on the whole grid; it
    # is largest at the box corner, and the Python-float powers of the auto scale and
    # of support_checks raise OverflowError past the range
    if not reg_epsilon * reg_epsilon < math.inf:
        raise ValidationError(f"test_function.reg_epsilon = {reg_epsilon!r} is too large: "
                              "its square is past the float range")
    corner = grid.n * (grid.L / 2.0) * (grid.L / 2.0) + reg_epsilon * reg_epsilon
    try:
        rho_max = corner ** (float(eta_bar) / 2.0)
    except OverflowError:
        rho_max = math.inf
    if not rho_max < math.inf:
        raise ValidationError(
            f"test_function.eta_bar = {float(eta_bar)!r} puts rho = (|x|^2 + "
            f"reg_epsilon^2)^(eta_bar/2) past the float range at the corner of the box of "
            f"L = {grid.L!r}")
    if scale == "auto":
        scale = 0.98 * min(t_end, (grid.L / 2.0) ** float(eta_bar))
    if scale < 1 and scale ** (op.m - ell) < np.finfo(float).tiny:  # d_t^k psi divides by R^k
        raise ValidationError(f"test_function.scale R = {scale!r} is too small: R**{op.m - ell} "
                              "is not a normal float")
    if q_tf is None:
        q_tf = default_q_tf(op, ell, rep.p_c)
    if smooth_order is None:
        smooth_order = max(6, int(math.ceil(op.max_spatial_order())) + 2, op.m - ell + 2)
    return TestFunctionSpec(eta_bar=eta_bar, scale=scale, q_tf=q_tf,
                            flat_fraction=flat_fraction, smooth_order=smooth_order,
                            reg_epsilon=reg_epsilon)


@dataclass(frozen=True)
class ResidualReport:
    residual: float
    lhs: float
    rhs: float
    data_term: float
    contributions: dict[str, float]
    floor: float
    test_function: TestFunctionSpec


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Re sum conj(a) * b over two arrays of one shape, in a fixed order.

    A complex array is read as its interleaved (re, im) floats, so the real
    part of the Hermitian product is one real dot product; einsum's own loop
    keeps the summation order independent of BLAS threading.
    """
    return float(np.einsum("i,i->", a.reshape(-1).view(float), b.reshape(-1).view(float)))


def _finite(a: np.ndarray) -> bool:
    # min and max propagate NaN and expose +-inf without a full-size mask
    return a.size == 0 or bool(np.isfinite(a.min()) and np.isfinite(a.max()))


def _real(a, name: str) -> np.ndarray:
    """``a`` as a float array; a complex (or other non-real) dtype is rejected,
    never cast, since the cast would drop the imaginary part."""
    a = np.asarray(a)
    if a.dtype.kind not in "biuf":
        raise ValidationError(f"{name} must hold real numbers, not {a.dtype}")
    return a.astype(float, copy=False)


def weak_residual(op: EvolutionOperator, ell: int, grid: Grid,
                  times, u_ell_frames: np.ndarray | FrameReader, tf: TestFunctionSpec,
                  nl: NonlinearitySpec | None = None,
                  initial_layers: np.ndarray | None = None) -> ResidualReport:
    """Evaluate the identity for one recorded run and one test function.

    ``u_ell_frames`` has shape (len(times), *grid.shape) holding the
    physical d_t^l u: an array, or a :class:`~critevo.reporting.FrameReader`
    of a recorded run's file; either way it is read one frame at a time,
    as ``u_ell_frames[t]``.  ``initial_layers`` has shape (m, *grid.shape)
    with the physical initial layers (zero rows for absent data).  Every
    entry must be real and finite; a frame is checked as the pass reaches it.

    One pass runs over the frames from the last recorded time back to the
    first and keeps only per-frame arrays, so a recorded run's stack is
    never in memory whole.  A level with a real constant
    multiplier pairs the frame with its psi weight directly; every other
    level pairs them in Fourier space by Parseval on the real half spectrum,
    sum_x f * ifft(m fft G) = N^-n sum_k conj(f^) m G^.  Levels j < l carry
    their backward anti-derivatives of psi^ as running trapezoids, one per
    nesting depth, whose values at the first time give the stranded layers.
    The psi weights of a frame come from one Taylor pass to the largest
    order the levels need.
    """
    times = _real(times, "times")
    if times.ndim != 1 or times.size < 3 or not _finite(times) or np.any(np.diff(times) <= 0):
        raise ValidationError("times must be finite and strictly increasing, length >= 3")
    frames = (u_ell_frames if isinstance(u_ell_frames, FrameReader)
              else _real(u_ell_frames, "u_ell_frames"))
    if frames.shape != (times.size,) + grid.shape:
        raise ValidationError(
            f"u_ell_frames shape {frames.shape} != {(times.size,) + grid.shape}"
        )
    problems = tf.support_checks(grid, float(times[-1]))
    if problems:
        raise ValidationError("; ".join(problems))
    if not (type(ell) is int and 0 <= ell < op.m):
        raise ValidationError(f"ell must be an integer in [0, {op.m - 1}]")
    if initial_layers is None:
        initial_layers = np.zeros((op.m,) + grid.shape)
    initial_layers = _real(initial_layers, "initial_layers")
    if initial_layers.shape != (op.m,) + grid.shape:
        raise ValidationError("initial_layers must have shape (m, *grid.shape)")
    if not _finite(initial_layers):
        raise ValidationError("initial_layers holds a NaN or infinite value")

    dx = grid.quad_weight()
    rho = tf.rho(grid)
    N, n = grid.N, grid.n
    ks = grid.wavenumbers()
    mirror = np.ix_(*[(-np.arange(N)) % N] * n)  # the index of -k for each k

    # (j, multiplier on the half spectrum or None, real constant or None)
    levels = []
    for j in op.order_set():
        mult = np.conj(op.multiplier(j, ks))
        c = mult.flat[0]
        if j >= ell and c.imag == 0 and np.all(mult == c):
            levels.append((j, None, float(c.real)))
            continue
        # The real part of the full sum pairs k with -k, so the half sum
        # takes the Hermitian part of the multiplier; it differs from the
        # multiplier only where a Nyquist index has no mirror of its own.
        herm = 0.5 * (mult + np.conj(mult[mirror]))
        levels.append((j, herm[grid.half] * grid.half_weights() / N**n, None))
    depth = max((ell - j for j in op.order_set() if j < ell), default=0)
    transformed = {j - ell for j, mw, _ in levels if mw is not None and j >= ell}
    if depth:
        transformed.add(0)

    ips = {j: np.empty(times.size) for j, _, _ in levels}
    lhs_ip = np.empty(times.size)
    acc = None  # acc[d] = (D_t^-d psi)^ at the current frame
    for t in range(times.size - 1, -1, -1):
        frame = frames[t]
        if not _finite(frame):
            raise ValidationError(
                f"u_ell_frames holds a NaN or infinite value at t = {float(times[t])!r}")
        # d_t^k psi for every order k <= m - ell a level j >= ell takes
        G = tf.time_derivatives(op.m - ell, times[t], rho)
        G_hat = {k: np.fft.rfftn(G[k]) for k in transformed}
        f_hat = np.fft.rfftn(frame) if transformed else None
        if depth and acc is None:
            acc = [G_hat[0]] + [np.zeros_like(G_hat[0])] * depth
        elif depth:
            h = times[t + 1] - times[t]
            cur = [G_hat[0]]
            for d in range(1, depth + 1):
                cur.append(acc[d] - h * (cur[d - 1] + acc[d - 1]) / 2.0)
            acc = cur
        for j, mw, c in levels:
            if c is not None:
                ips[j][t] = c * _dot(frame, G[j - ell]) * dx
            else:
                v_hat = G_hat[j - ell] if j >= ell else acc[ell - j]
                ips[j][t] = _dot(f_hat, mw * v_hat) * dx
        if nl is not None:
            lhs_ip[t] = _dot(np.asarray(eval_F(nl, frame)), G[0]) * dx

    layer_hats: dict[int, np.ndarray] = {}

    def layer_hat(i: int) -> np.ndarray:
        if i not in layer_hats:
            layer_hats[i] = np.fft.rfftn(initial_layers[i])
        return layer_hats[i]

    contributions: dict[str, float] = {}
    rhs_sum = 0.0
    gross = 0.0
    data_term = 0.0
    for j, mw, c in levels:
        # each backward anti-derivative strands one initial layer at t = 0
        for i in range(ell - j):
            if np.any(initial_layers[j + i]):
                data_term += (-1) ** i * _dot(layer_hat(j + i), mw * acc[i + 1]) * dx
        val = float((-1) ** abs(j - ell) * np.trapezoid(ips[j], x=times))
        contributions[str(j)] = val
        rhs_sum += val
        gross += abs(val)
        # layers stranded by moving d_t^{j-l} onto psi
        for i in range(j - ell):
            layer = initial_layers[j - 1 - i]
            if not np.any(layer):
                continue
            psi_i0 = tf.time_derivatives(i, 0.0, rho)[i]
            if c is not None:
                pair = c * _dot(layer, psi_i0)
            else:
                pair = _dot(layer_hat(j - 1 - i), mw * np.fft.rfftn(psi_i0))
            data_term += (-1) ** i * pair * dx

    rhs = rhs_sum - data_term
    gross += abs(data_term)
    lhs = 0.0 if nl is None else float(np.trapezoid(lhs_ip, x=times))

    floor = gross + 1e-30
    residual = abs(lhs - rhs) / (abs(lhs) + abs(rhs) + floor)
    return ResidualReport(
        residual=residual, lhs=lhs, rhs=rhs, data_term=data_term,
        contributions=contributions, floor=floor, test_function=tf,
    )
