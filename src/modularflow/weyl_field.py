"""Generalized free field on a light ray in a quasi-free thermal state.

The field with scaling index n has one-particle weight p^{2n}; exponentiated
(Weyl) generators obey

    W(f) W(g) = e^{-K(f, g)/2} W(f + g),
    K(f, g)   = int p^{2n+1} ft(-p) gt(p) dp,

with ft(p) = (1/2pi) int e^{-ipx} f(x) dx, and the thermal state at inverse
temperature beta is the Gaussian

    omega(W(f)) = exp(-c * omega2(f, f)),
    omega2(f, g) = int dens(p) ft(-p) gt(p) dp,
    dens(p)      = p^{2n+1} / (1 - e^{-beta p}).

Momentum space is the ground truth for all bilinear forms; the regularized
position kernel is provided as a cross-check only, related to the momentum
pairing by the derived constant _FOURIER_PAIR_CONSTANT = -1/4 (see
calibrate_fourier_pair).

Every integral, in momentum or position space, is one composite Simpson
rule on a uniform grid with an odd node count: a dot product with the
weight vector of _simpson_weights.  Momentum integrals run on a fixed
symmetric grid, each through _pair, which refuses supports too far apart
for it and reads transforms on p >= 0 only (ft(-p) = conj ft(p) for real
f), each kernel folded into the Simpson weights there.  Transforms are
evaluated by the chirp-z algorithm on numpy's FFT, so results are
deterministic and bit-stable across runs.  The chirp-z routine keeps its
chirp and kernel spectrum in a small plan cache keyed on (n, m, log w), and a
TestFunction keeps its transform per momentum grid, so a function paired
many times on one grid is transformed once.  A deviation function derived
from f is sampled on f's own lattice, one increment of f's spline per entry,
so it shares f's step and chirp-z ratio w, and the deviations at one flow
parameter u and a row of separations t go through one 2-D chirp-z call.

The module-level caches are sized to one beta's working set, since every
caller works at one context at a time: the momentum grid, the folded density
and the folded K weight keep 2 contexts each (a caller alternating between
a pair still hits), and the chirp-z plans keep 4, because a transform is
cached on its function and a plan is reused only by the Thm 2.2 and rates
rows on one lattice and by functions that share a lattice step.  Larger
caches only hold the arrays of contexts that are never seen again.

Off-grid values come from a not-a-knot cubic spline on the samples'
lattice (_spline), and higher-index actions integrate by a cumulative
Simpson rule on a uniform step; both are plain lattice formulas on numpy,
the package's only runtime dependency.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np
from numpy.fft import fft, ifft

from .axb_group import TWO_PI
from .errors import DomainViolation, QuadratureError, ResolutionError
from .files import atomic_write
from .flow_maps import (
    RayDirection, ThermalContext, gamma_flow_ray, modular_flow_ray, modular_remainder,
)


# ----------------------------------------------------------------------
# test functions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TestFunction:
    """Real function sampled on a uniform grid with declared support.

    For compact_support=True (the default) the samples must vanish outside
    the declared support interval; transforms of higher-index fields return
    compact_support=False, where the support field records the sampled
    window only.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    samples: np.ndarray
    x0: float
    dx: float
    support: tuple[float, float]
    compact_support: bool = True

    def __post_init__(self):
        arr = np.array(self.samples, dtype=float)  # own copy, frozen below
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        if arr.ndim != 1 or len(arr) < 2:
            raise ValueError("samples must be a 1D array with at least 2 entries")
        for name, v in (("samples", arr), ("x0", self.x0), ("dx", self.dx)):
            if not np.isfinite(v).all():
                raise ValueError(f"{name} must be finite")
        if not self.dx > 0:
            raise ValueError(f"dx must be positive, got {self.dx}")
        a, b = self.support
        if not a < b:
            raise ValueError(f"support must be a nonempty interval, got {self.support}")
        tol = 1e-6 * self.dx + 1e-12 * max(1.0, abs(a), abs(b))
        lo, hi = self.x0, self.x0 + (len(arr) - 1) * self.dx
        if a < lo - tol or b > hi + tol:
            raise ValueError("grid must cover the declared support")
        interior = np.count_nonzero((self.x > a) & (self.x < b))
        if interior < 8:
            raise ValueError("support must contain at least 8 interior grid nodes")
        if self.compact_support:
            outside = (self.x < a - tol) | (self.x > b + tol)
            if np.any(arr[outside] != 0.0):
                raise ValueError("samples must vanish outside the declared support")

    @cached_property
    def x(self) -> np.ndarray:
        g = self.x0 + self.dx * np.arange(len(self.samples))
        g.setflags(write=False)
        return g

    @cached_property
    def _spline(self) -> _Spline:
        return _spline(self.x0, self.dx, self.samples)

    def __call__(self, pts):
        """Evaluate by cubic spline; zero outside the sampled window, ±inf
        included.  A NaN point raises DomainViolation."""
        pts = np.asarray(pts, dtype=float)
        scalar = pts.ndim == 0
        pts = np.atleast_1d(pts)
        _finite("x", pts[~np.isinf(pts)])
        out = np.zeros_like(pts)
        a, b = self.support
        if not self.compact_support:
            a, b = self.x[0], self.x[-1]
        inside = (pts >= a) & (pts <= b)
        if np.any(inside):
            out[inside] = self._spline(pts[inside])
        return float(out[0]) if scalar else out

    @staticmethod
    def bump(
        center: float, halfwidth: float, n: int = 2048, amplitude: float = 1.0
    ) -> "TestFunction":
        """Smooth bump amplitude * exp(-1/(1 - s^2)), s = (x-center)/halfwidth.

        Exactly supported on [center - halfwidth, center + halfwidth].
        """
        if halfwidth <= 0:
            raise ValueError("halfwidth must be positive")
        x = np.linspace(center - halfwidth, center + halfwidth, n)
        s = (x - center) / halfwidth
        vals = np.zeros_like(x)
        inside = np.abs(s) < 1.0
        vals[inside] = amplitude * np.exp(-1.0 / (1.0 - s[inside] ** 2))
        return TestFunction(
            vals, x[0], x[1] - x[0], (center - halfwidth, center + halfwidth)
        )

    def translate(self, t: float) -> "TestFunction":
        """Shift by t: x -> x - t maps onto the same samples (exact).

        A built spline table is shared with the translate: it depends on dx
        and the samples only, and is read-only."""
        a, b = self.support
        moved = replace(self, x0=self.x0 + t, support=(a + t, b + t))
        spline = self.__dict__.get("_spline")
        if spline is not None:
            moved.__dict__["_spline"] = _Spline(moved.x0, self.dx, spline.c)
        return moved

    def scaled(self, factor: float) -> "TestFunction":
        return replace(self, samples=self.samples * factor)

    def to_dict(self) -> dict:
        return {
            "x0": self.x0,
            "dx": self.dx,
            "support": list(self.support),
            "samples": self.samples.tolist(),
            "compact_support": self.compact_support,
        }

    @staticmethod
    def from_dict(d: dict) -> "TestFunction":
        compact = d.get("compact_support", True) if isinstance(d, dict) else None
        if not isinstance(compact, bool):
            raise ValueError("a test function is a JSON object; compact_support is true or false")
        try:
            for v in (d["x0"], d["dx"], *d["support"], *d["samples"]):
                if isinstance(v, (bool, str)):  # float() reads both
                    kind = "boolean" if isinstance(v, bool) else "string"
                    raise TypeError(f"a JSON {kind} where a number goes: {v!r}")
            return TestFunction(
                np.asarray(d["samples"], dtype=float),
                float(d["x0"]),
                float(d["dx"]),
                (float(d["support"][0]), float(d["support"][1])),
                compact,
            )
        except (KeyError, TypeError, IndexError) as e:
            raise ValueError(f"malformed test function: {e!r}") from None

    def save(self, path: str):
        atomic_write(path, json.dumps(self.to_dict()) + "\n")

    @staticmethod
    def load(path: str) -> "TestFunction":
        with open(path) as fh:
            return TestFunction.from_dict(json.load(fh))


@dataclass(frozen=True)
class FieldSpec:
    """Field selector: one-particle weight p^{2n}, scaling dimension n + 1."""

    n: int = 0

    def __post_init__(self):
        if self.n < 0 or self.n != int(self.n):
            raise ValueError(f"scaling index must be a non-negative integer, got {self.n}")


@dataclass(frozen=True)
class StateNormalization:
    """Constant c in omega(W(f)) = exp(-c * omega2(f, f)); c > 0, default 1."""

    c: float = 1.0

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError(f"normalization must be positive, got {self.c}")


# ----------------------------------------------------------------------
# cubic spline and cumulative integral
# ----------------------------------------------------------------------


class _Spline:
    """Cubic spline on the lattice x0 + k dx, k < n, by its Taylor data at
    the knots: rows c = (c0, c1, c2, y) of n columns, with c2 the slopes, c1
    half the curvatures and c0 the cubic coefficient of the piece to the
    knot's right (the last column repeats the last piece's).

    A point's piece is floor((pt - x0)/dx), clipped to [0, n-2], so the
    end pieces extend past the outer knots; each piece is summed by
    Horner's rule.  Points are a 1-D float array without NaN.
    """

    def __init__(self, x0: float, dx: float, c: np.ndarray):
        self.x0 = x0
        self.dx = dx
        self.c = c

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        c = self.c
        i = np.clip((pts - self.x0) / self.dx, 0, c.shape[1] - 2).astype(np.intp)
        s = pts - (self.x0 + i * self.dx)
        out = c[0].take(i)
        for ck in c[1:]:
            out *= s
            out += ck.take(i)
        return out


# The interior rows s_{i-1} + 4 s_i + s_{i+1} = r_i of the slope system have
# the decaying solutions z^i, z = sqrt(3) - 2, and the Green's function
# C z^|k|, C = 1/(2 sqrt(3)); |z|^31 ~ 2e-18, so 61 taps and 31 entries at
# each end carry every term above rounding
_Z = math.sqrt(3.0) - 2.0
_ENDS = 31
_GREEN = _Z ** np.abs(np.arange(1 - _ENDS, _ENDS)) / (2.0 * math.sqrt(3.0))


def _slopes(m: np.ndarray) -> np.ndarray:
    """Knot slopes of the not-a-knot cubic spline through samples y at step
    dx, from the secant slopes m_i = (y_{i+1} - y_i)/dx (3 or more).

    They solve s_{i-1} + 4 s_i + s_{i+1} = 3(m_{i-1} + m_i) at interior
    knots and, for a continuous third derivative at the second and the
    last-but-one knot, s_0 + 2 s_1 = (5 m_0 + m_1)/2 and its mirror.  A
    particular solution of the interior rows is the right side convolved
    with the Green's function; a z^i + b z^{n-1-i}, fixed by a 2x2 solve,
    then meets both end rows.
    """
    n = len(m) + 1
    r = np.zeros(n)
    r[1:-1] = 3.0 * (m[:-1] + m[1:])
    s = np.convolve(r, _GREEN)[_ENDS - 1 : 1 - _ENDS]
    d0 = (5.0 * m[0] + m[1]) / 2.0 - (s[0] + 2.0 * s[1])
    d1 = (m[-2] + 5.0 * m[-1]) / 2.0 - (2.0 * s[-2] + s[-1])
    # each end row's coefficient of its own and of the far homogeneous term
    own, far = 1.0 + 2.0 * _Z, _Z ** (n - 2) * (2.0 + _Z)
    det = own * own - far * far
    zk = _Z ** np.arange(min(n, _ENDS))
    s[: len(zk)] += (own * d0 - far * d1) / det * zk
    s[n - len(zk) :] += (own * d1 - far * d0) / det * zk[::-1]
    return s


def _spline(x0: float, dx: float, y: np.ndarray) -> _Spline:
    """Not-a-knot cubic spline through the samples y on the lattice x0 + k dx."""
    m = np.diff(y) / dx
    s = _slopes(m)
    t = (s[:-1] + s[1:] - 2.0 * m) / dx
    c0, c1 = t / dx, (m - s[:-1]) / dx - t
    # the last knot's half curvature is the last piece's at its right end
    c = np.stack((np.append(c0, c0[-1]), np.append(c1, c1[-1] + 3.0 * t[-1]), s, y))
    c.setflags(write=False)  # shared by a TestFunction's translates
    return _Spline(x0, dx, c)


def _cumulative_simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative Simpson integral of the samples y at step dx, from 0 at the
    first node (3 or more samples).

    Subinterval j takes the quadratic through its node triple to the right,
    (dx/12)(5 y_j + 8 y_{j+1} - y_{j+2}), when j is even and is not the
    last, and otherwise the mirror through the triple to its left.
    """
    right = 5.0 * y[:-2] + 8.0 * y[1:-1] - y[2:]
    left = -y[:-2] + 8.0 * y[1:-1] + 5.0 * y[2:]
    sub = np.empty(len(y) - 1)
    sub[:-1:2] = right[::2]
    sub[1::2] = left[::2]
    sub[-1] = left[-1]
    sub *= dx / 12.0
    return np.concatenate(([0.0], np.cumsum(sub)))


# ----------------------------------------------------------------------
# momentum grid and transforms
# ----------------------------------------------------------------------


# The beta-keyed caches hold two entries: every caller works at one context
# at a time (an mfl process, a verify suite, a benchmark operation), and two
# still serve a caller that alternates between a pair; a larger cache only
# keeps grids and kernels of contexts that are never seen again.
@lru_cache(maxsize=2)
def _grid_cached(pmax: float, npts: int) -> np.ndarray:
    n = npts | 1  # composite Simpson wants an odd count
    p = np.linspace(-pmax, pmax, n)
    p.setflags(write=False)
    return p


def momentum_grid(ctx: ThermalContext) -> np.ndarray:
    return _grid_cached(ctx.pmax, ctx.npts)


def _next_fast_len(target: int) -> int:
    """Smallest 11-smooth n >= target, a fast length for pocketfft's complex
    transforms; a target below 1 is returned as it is, for the FFT to
    reject."""
    n = target
    while n > 0:
        r = n
        for q in (2, 3, 5, 7, 11):
            while r % q == 0:
                r //= q
        if r == 1:
            break
        n += 1
    return n


# A transform is cached on its function, so a plan is reused only by the
# Thm 2.2 and rates rows on one lattice and by functions that share a
# lattice step.  At a fresh beta a verify pass builds 35 plans and a field
# query 7 whatever the size; four keep the Thm 2.2 rows' three for a rerun
# at the same beta, and older plans are never read again.
@lru_cache(maxsize=4)
def _czt_plan(n: int, m: int, log_w: complex):
    """Bluestein plan (wk2[:n], Fwk2, wk2[:m], nfft) for n samples and m
    nodes: the chirp wk2 = w^{k^2/2} = exp(k^2/2 log w), and Fwk2 the FFT
    of its reciprocal over lags -(n-1) .. m-1, on an 11-smooth length nfft.
    """
    k = np.arange(max(m, n), dtype=np.min_scalar_type(-max(m, n) ** 2))
    wk2 = np.exp(k**2 / 2.0 * log_w)
    nfft = _next_fast_len(n + m - 1)
    fwk2 = fft(1 / np.hstack((wk2[n - 1 : 0 : -1], wk2[:m])), nfft)
    for arr in (fwk2, wk2):
        arr.setflags(write=False)  # shared by every call with this plan
    return wk2[:n], fwk2, wk2[:m], nfft


def czt(x: np.ndarray, m: int, *, log_w: complex, out=None) -> np.ndarray:
    """Chirp-z transform X_k = sum_j x_j w^{jk}, k < m, by Bluestein's algorithm
    (Rabiner, Schafer & Rader 1969), along the last axis of x.

    The ratio is given as log_w = log w: a unit-modulus ratio e^{i theta} is
    exact as log_w = i theta, where np.log(np.exp(i theta)) keeps a real
    part of rounding size that scales term j k by |w|^{jk}.
    The chirp and kernel spectrum come from a plan cached on (n, m, log w),
    n the length of x's last axis, and every row of a 2-D x shares it.  The
    transform is formed in one complex buffer of the FFT length nfft =
    _next_fast_len(n + m - 1) and returned as a view into it; out, when
    given, is that buffer, of shape x.shape[:-1] + (nfft,).
    """
    n = x.shape[-1]
    wk2_n, fwk2, wk2_m, nfft = _czt_plan(n, m, complex(log_w))
    y = np.empty(x.shape[:-1] + (nfft,), dtype=complex) if out is None else out
    np.multiply(x, wk2_n, out=y[..., :n])
    y[..., n:] = 0.0
    fft(y, out=y)
    ifft(np.multiply(fwk2, y, out=y), out=y)
    res = y[..., n - 1 : n + m - 1]
    res *= wk2_m
    return res


def fourier(f: TestFunction, p: np.ndarray) -> np.ndarray:
    """Transform ft(p) = (1/2pi) int e^{-ipx} f(x) dx on a uniform symmetric grid.

    The grid sum is evaluated with the chirp-z algorithm; since f is smooth
    and vanishes at the sampled window's ends, the plain Riemann sum is
    spectrally accurate.  The grid must be symmetric about 0 with an odd
    node count; only the p >= 0 half is computed and the rest mirrored, so
    conjugate symmetry ft(-p) = conj(ft(p)) holds exactly for the real
    samples stored in a TestFunction.
    """
    p = np.asarray(p, dtype=float)
    if len(p) < 3 or len(p) % 2 == 0:
        raise ValueError("momentum grid needs an odd node count >= 3")
    dp = p[1] - p[0]
    if abs(p[0] + p[-1]) > 1e-9 * max(1.0, abs(p[-1])):
        raise ValueError("momentum grid must be symmetric about 0")
    if np.max(np.abs(np.diff(p) - dp)) > 1e-9 * dp:
        raise ValueError("momentum grid must be uniform")
    half = _lattice_fourier(f.samples, f.x0, f.dx, p)
    return np.concatenate((np.conj(half[:0:-1]), half))


def _lattice_fourier(samples: np.ndarray, x0: float, dx: float, p: np.ndarray, out=None):
    """fourier's transform of samples on the lattice x0 + k dx, on the
    p >= 0 half of the symmetric grid p, row by row along the last axis:
    one chirp-z call, on the exact unit-modulus ratio e^{-i dp dx}, and one
    phase e^{-ip x0} serve every row.  out is czt's."""
    m = len(p) // 2 + 1
    dp = p[1] - p[0]
    half = czt(samples, m, log_w=-1j * (dp * dx), out=out)
    half *= _phases(dp, x0, m, dx / TWO_PI)
    return half


# _phases takes ceil(m/_FINE) + _FINE complex exponentials for m phases
_FINE = 64


def _phases(dp: float, x, m: int, scale: float = 1.0, out=None) -> np.ndarray:
    """scale * e^{-ik dp x} for k < m: shape (m,) for a float x, and one row
    per entry of a 1-D array x.

    Node k = q _FINE + r is the coarse entry scale * e^{-i (q _FINE dp) x}
    times the fine entry e^{-i (r dp) x}; each angle is one rounding of
    (k dp) x, as in np.exp(-1j * p * x) on nodes p = k dp.  The result is a
    view into one complex array of ceil(m/_FINE) _FINE entries per row,
    out when given.
    """
    x = np.asarray(x, dtype=float)[..., None, None]
    blocks = -(-m // _FINE)
    fine = np.exp(-1j * (dp * np.arange(_FINE)) * x)
    coarse = np.exp(-1j * (_FINE * dp * np.arange(blocks)[:, None]) * x)
    coarse *= scale
    if out is not None:
        out = out.reshape(x.shape[:-2] + (blocks, _FINE))
    return np.multiply(coarse, fine, out=out).reshape(x.shape[:-2] + (-1,))[..., :m]


def _transforms(ctx: ThermalContext, f: TestFunction) -> np.ndarray:
    """ft on the p >= 0 half of the momentum grid, all a pairing reads.

    The transform is kept read-only in f's __dict__, keyed on the grid's
    (pmax, npts), like the cached x and _spline: the samples are read-only
    and translate, scaled and replace build new instances, so it cannot go
    stale.
    """
    cache = f.__dict__.setdefault("_transforms", {})
    key = (ctx.pmax, ctx.npts)
    t = cache.get(key)
    if t is None:
        t = _lattice_fourier(f.samples, f.x0, f.dx, momentum_grid(ctx))
        t.setflags(write=False)
        cache[key] = t
    return t


def _simpson_weights(n: int, d: float) -> np.ndarray:
    """Composite Simpson weights (d/3) (1, 4, 2, 4, ..., 2, 4, 1) on n nodes,
    n odd.  A sum is np.vecdot(w, y), along y's last axis, with the real
    weights first: vecdot conjugates its first argument."""
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (d / 3.0)


def _finite(name: str, values: np.ndarray):
    """Raise DomainViolation on NaN or inf, worded like flow_maps._operands."""
    if not np.isfinite(values).all():
        raise DomainViolation(
            f"{name} must be finite, got {name}={values[~np.isfinite(values)][0]}"
        )


def two_point_momentum(ctx: ThermalContext, spec: FieldSpec, p):
    """Thermal two-point density p^{2n+1}/(1 - e^{-beta p}).

    The removable singularity at p = 0 evaluates to 1/beta for n = 0 and to
    0 for n >= 1; both tails are handled without overflow.
    """
    if not ctx.finite:
        raise DomainViolation("two-point density requires finite beta")
    p = np.asarray(p, dtype=float)
    scalar = p.ndim == 0
    p = np.atleast_1d(p).astype(float)
    _finite("p", p)
    beta = ctx.beta
    out = np.empty_like(p)
    bp = beta * p
    tiny = np.abs(bp) < 1e-7
    # p/(1 - e^{-beta p}) = (1/beta) (1 + bp/2 + bp^2/12 + O(bp^4))
    base_tiny = (1.0 + bp[tiny] / 2.0 + bp[tiny] ** 2 / 12.0) / beta
    out[tiny] = base_tiny * p[tiny] ** (2 * spec.n)
    rest = ~tiny
    bpr = bp[rest]
    with np.errstate(over="ignore"):
        denom = -np.expm1(-bpr)
    big_neg = bpr < -700.0
    base = np.empty_like(bpr)
    ok = ~big_neg
    base[ok] = p[rest][ok] / denom[ok]
    # beta p << -1: density ~ -p e^{beta p}, underflowing to +0
    base[big_neg] = -p[rest][big_neg] * np.exp(bpr[big_neg])
    out[rest] = base * p[rest] ** (2 * spec.n)
    return float(out[0]) if scalar else out


def _fold(ctx: ThermalContext, k) -> np.ndarray:
    """Kernel function k as _pair's read-only rows (w (k(p) + k(-p)),
    w (k(p) - k(-p)), |k(p)|) on p >= 0: w, the grid's Simpson weights with the
    one at p = 0 halved, makes sum w (F(p) + F(-p)) the full grid's sum of F."""
    p = momentum_grid(ctx)
    w = _simpson_weights(len(p), p[1] - p[0])[len(p) // 2 :]
    w[0] /= 2.0
    p = p[len(p) // 2 :]
    k_p, k_m = k(np.stack((p, -p)))
    kernel = np.stack((w * (k_p + k_m), w * (k_p - k_m), np.abs(k_p)))
    kernel.setflags(write=False)
    return kernel


@lru_cache(maxsize=2)  # one context's, like _grid_cached
def _density(ctx: ThermalContext, spec: FieldSpec) -> np.ndarray:
    """two_point_momentum folded by _fold, cached per (beta, pmax, npts) and n."""
    return _fold(ctx, lambda p: two_point_momentum(ctx, spec, p))


@lru_cache(maxsize=2)  # one context's, like _grid_cached
def _field_weight(ctx: ThermalContext, spec: FieldSpec) -> np.ndarray:
    """K's kernel p^{2n+1} folded by _fold, odd by construction: even row 0."""
    return _fold(ctx, lambda p: np.sign(p) * np.abs(p) ** (2 * spec.n + 1))


# |Re z| from which the position kernel takes the asymptote of sinh(z)^2;
# sinh(z)^2 itself overflows past 355
_FAR = 350.0


def _sinh_cosh(z: np.ndarray):
    """Real sinh z and cosh z for the position kernel, 0 where |z| >= _FAR,
    and that mask, None when no |z| reaches _FAR."""
    if -_FAR < z.min() and z.max() < _FAR:
        return np.sinh(z), np.cosh(z), None
    near = np.abs(z) < _FAR
    sinh_z, cosh_z = np.zeros((2,) + z.shape)
    np.sinh(z, out=sinh_z, where=near)
    np.cosh(z, out=cosh_z, where=near)
    return sinh_z, cosh_z, ~near


def _position_kernel(
    ctx: ThermalContext, epsilon: float, z: np.ndarray, sinh_z, cosh_z, far
) -> np.ndarray:
    """Real and imaginary parts of (1/beta^2) sinh^{-2}(z + ib), b = pi eps/beta,
    from the real grids z, sinh z, cosh z and the |z| >= _FAR mask of
    _sinh_cosh (None for no such z): a real array of shape (2,) + z.shape.

    For real b, s = sinh(z + ib) = sinh z cos b + i cosh z sin b and
    |s|^2 = sinh^2 z + sin^2 b (cosh^2 = 1 + sinh^2), so 1/s^2 = r^2 with
    r = conj(s)/|s|^2, and no complex number is formed.  |s|^4 is never
    formed: it overflows from |z| ~ 177.  Where |z| >= _FAR the asymptote
    sinh(z + ib)^2 ~ e^{2|z|} e^{2ib sgn z}/4 takes over.
    """
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if not ctx.finite:
        raise DomainViolation("position kernel requires finite beta")
    beta = ctx.beta
    b = math.pi * epsilon / beta
    out = np.empty((2,) + z.shape)
    re, im = out
    # 1/(beta |s|^2), left at sin^2 b where |z| >= _FAR (sinh z is 0 there)
    q = np.multiply(sinh_z, sinh_z, out=re)
    q += math.sin(b) ** 2
    np.divide(1.0 / beta, q, out=q, where=True if far is None else ~far)
    # r = conj(s)/(beta |s|^2), so that r^2 carries the 1/beta^2
    r_re = sinh_z * q
    r_re *= math.cos(b)
    r_im = q
    r_im *= cosh_z
    r_im *= -math.sin(b)
    # r^2 = Re r^2 - Im r^2 + 2i Re r Im r
    np.multiply(r_re, r_im, out=im)
    im *= 2.0
    r_im *= r_im
    r_re *= r_re
    np.subtract(r_re, r_im, out=re)
    if far is not None:
        e = 4.0 / beta**2 * np.exp(-2.0 * np.abs(z[far]))
        re[far] = e * math.cos(2.0 * b)
        im[far] = -e * np.sign(z[far]) * math.sin(2.0 * b)
    return out


def two_point_position(ctx: ThermalContext, xi, epsilon: float):
    """Regularized position-space kernel (1/beta^2) sinh^{-2}(pi(xi + i eps)/beta).

    Only the lowest scaling index has this closed form; the asymptotic branch
    avoids overflow for |xi| >> beta.
    """
    xi = np.asarray(xi, dtype=float)
    scalar = xi.ndim == 0
    xi = np.atleast_1d(xi)
    _finite("xi", xi)
    z = math.pi * xi / ctx.beta
    out = np.empty(z.shape, dtype=complex)
    out.real, out.imag = _position_kernel(ctx, epsilon, z, *_sinh_cosh(z))
    return complex(out[0]) if scalar else out


# narrow smooth bumps reach the default cutoff with relative tails around
# 1e-4; a genuinely unconverged quadrature shows an O(1) tail, which is what
# this guard is for
_TAIL_RTOL = 1e-3


def _tail_check(size: np.ndarray, what: str):
    """Raise when size = |k(p) z| on p >= 0 tops _TAIL_RTOL of its peak on the full
    grid's last max(4, n // 100) nodes; |k(p)| >= |k(-p)| for both kernels."""
    n_tail = max(4, (2 * len(size) - 1) // 100)
    tail = float(np.max(size[-n_tail:]))
    peak = float(np.max(size))
    if peak > 0 and tail > _TAIL_RTOL * peak:
        raise QuadratureError(
            f"{what}: integrand tail {tail:.3e} above {_TAIL_RTOL:.0e} * peak "
            f"{peak:.3e} at the momentum cutoff; increase pmax"
        )


def _pair(ctx: ThermalContext, span, kernel, a, b, what: str | None = None, work=None):
    """Momentum pairing int k(p) conj(at(p)) bt(p) dp, the one Simpson sum
    over the momentum grid.

    a and b are transforms of real functions on p >= 0, so with z = conj(a) b
    the integrand at -p is k(-p) conj(z); the sum is vecdot(even, Re z) +
    i vecdot(odd, Im z), kernel = _fold(k), and z in real arithmetic makes
    Im z odd in (a, b) and 0 at a = b bit for bit.  1-D transforms give a
    complex, row stacks one sum per row (bit for bit the 1-D sum of each
    row).  span, a float or one per row, is the widest separation of the
    paired supports: Simpson's T_2dp part is periodic in the separation
    with period pi/dp and the kernels decay like e^{-2 pi |y - x|/beta}, so
    a span above pi/dp - 6 beta (an alias above 1e-16) raises
    QuadratureError.  With what given (1-D transforms) the integrand's tail
    at the cutoff is checked too; what names the pairing in both messages.
    work, when given, is a real array of shape (2,) + the stack's shape that
    takes the products in place of two new ones.
    """
    p = momentum_grid(ctx)
    dp = p[1] - p[0]
    limit = math.pi / dp - 6.0 * ctx.beta
    widest = float(np.max(span))
    if widest > limit:
        raise QuadratureError(
            f"{what or 'momentum pairing'}: supports {widest:.6g} apart, above the "
            f"grid's alias-free separation {limit:.6g}; increase npts"
        )
    even, odd, size = kernel
    # a part that is 0 by construction is not formed: a kernel row of zeros
    # (K's even row; the tail check still reads |z|), and Im conj(a) a = 0
    shape = np.broadcast_shapes(a.shape, b.shape)
    x, y = np.empty((2,) + shape) if work is None else work
    re = im = 0.0
    re_sum = im_sum = np.zeros(shape[:-1])
    if what is not None or even.any():
        re = np.multiply(a.real, b.real, out=x)
        re += np.multiply(a.imag, b.imag, out=y)
        re_sum = np.vecdot(even, re)
    if a is not b and (what is not None or odd.any()):
        im = np.multiply(a.real, b.imag, out=y)
        # x is free once Re z is summed, unless the tail check reads it
        im -= np.multiply(a.imag, b.real, out=x if what is None else None)
        im_sum = np.vecdot(odd, im)
    if what is not None:
        _tail_check(size * np.hypot(re, im), what)
    val = re_sum + 1j * im_sum
    return complex(val) if np.ndim(val) == 0 else val


def _separation(f: TestFunction, g: TestFunction) -> float:
    """Widest separation y - x or x - y, x in supp f and y in supp g."""
    return max(g.support[1] - f.support[0], f.support[1] - g.support[0])


def symplectic_K(
    ctx: ThermalContext, spec: FieldSpec, f: TestFunction, g: TestFunction
) -> complex:
    """Symplectic form K(f, g); purely imaginary and antisymmetric on real pairs.

    The kernel p^{2n+1} is odd, so only Im conj(ft) gt enters the sum, and
    K(f, g) = -K(g, f) and K(f, f) = 0 hold exactly (see _pair).  Raises
    QuadratureError when the supports lie too far apart for the grid.
    """
    tf, tg = _transforms(ctx, f), _transforms(ctx, g)
    return _pair(ctx, _separation(f, g), _field_weight(ctx, spec), tf, tg, what="symplectic form")


def omega2(
    ctx: ThermalContext, spec: FieldSpec, f: TestFunction, g: TestFunction
) -> complex:
    """Thermal two-point form omega2(f, g) = conj omega2(g, f), real and >= 0 at f = g.

    Raises QuadratureError when the supports lie too far apart for the grid.
    """
    tf, tg = _transforms(ctx, f), _transforms(ctx, g)
    return _pair(ctx, _separation(f, g), _density(ctx, spec), tf, tg, what="two-point form")


def weyl_inner(
    ctx: ThermalContext,
    spec: FieldSpec,
    norm: StateNormalization,
    g: TestFunction,
    f: TestFunction,
) -> complex:
    """Gaussian overlap of Weyl vectors, e^{K(g,f)/2} exp(-c omega2(f-g, f-g)).

    omega2(f-g, f-g) pairs the difference of the cached transforms (both are
    linear); QuadratureError when the supports together span too far for the
    grid.  That pairing comes first: its union span covers K's separation.
    """
    d = _transforms(ctx, f) - _transforms(ctx, g)
    span = max(f.support[1], g.support[1]) - min(f.support[0], g.support[0])
    o = _pair(ctx, span, _density(ctx, spec), d, d, what="two-point form").real
    k = symplectic_K(ctx, spec, g, f)
    return complex(np.exp(k / 2.0 - norm.c * o))


# deviation rows are zero-padded to a multiple of this many lattice nodes
_DEVIATION_PAD = 64


def _deviation_samples(ctx, f: TestFunction, u: float, t: np.ndarray):
    """delta_u(f(. - t)) - f(. - (t - beta u)) over f's own coordinates, one
    row per entry of the 1-D array t.

    Returns (rows, x0, shift, (lo, hi)): row r is the deviation at t[r],
    supported in [lo[r], hi[r]], translated back by shift[r] = t[r] - beta u
    and sampled on f's lattice x0 + k f.dx, so the translate is f's own
    samples and every row shares f's chirp-z step.  The rows span the union
    of the nodes' index ranges, rounded up to whole _DEVIATION_PAD blocks;
    outside its own range a row is exactly 0 (both functions vanish there),
    so each row is its node's deviation zero-padded to the common range.
    The parameter shift L(u, y) - y - beta u is the modular remainder at -u,
    delta = flow_maps.modular_remainder(beta, -u, y).  Entry k is
    f(x_k + delta) - f(x_k), summed from the knot j nearest x_k + delta on
    x_k's side as (y_j - y_k) + s (c2_j + s (c1_j + s c0)) with the data of
    f's _Spline, s = x_k + delta - x_j (|s| <= dx) and c0 from the piece on
    s's side.  For |delta| < dx, j = k and the sum has no constant term, so
    it keeps full relative accuracy down to shifts ~ 1e-300.  A target
    outside supp f, or a NaN delta, leaves -y_k.
    """
    beta = ctx.beta
    a0, b0 = f.support
    dx = f.dx
    shift = t - beta * u
    # the grid must cover both supports: the translate sits on [a0, b0] in
    # base coordinates, the modular image on the flow image of [a0+t, b0+t]
    # pulled back by the shift (defined for all u since a0 + t > 0)
    img_lo = modular_flow_ray(ctx, RayDirection.PLUS, u, a0 + t) - shift
    img_hi = modular_flow_ray(ctx, RayDirection.PLUS, u, b0 + t) - shift
    lo = math.floor((min(a0, img_lo.min()) - f.x0) / dx) - 10
    hi = math.ceil((max(b0, img_hi.max()) - f.x0) / dx) + 11
    # whole blocks, so rows of nearby ranges share one chirp-z plan
    k = np.arange(lo, lo - (lo - hi) // _DEVIATION_PAD * _DEVIATION_PAD)
    a_grid = f.x0 + k * dx
    # NaN where L(u, y) is undefined: those entries keep only the translate
    delta = modular_remainder(beta, -u, a_grid + shift[:, None])
    own = (k >= 0) & (k < len(f.samples))
    neg = np.zeros(len(k))  # -y_k, 0 off f's lattice
    neg[own] = -f.samples[k[own]]
    target = a_grid + delta
    out = ~((target >= a0) & (target <= b0))  # NaN included
    delta[out] = 0.0
    c0, c1, c2, y = f._spline.c
    # the cast rounds delta/dx toward 0, to the knot on x_k's side
    j = np.clip(k + (delta / dx).astype(np.intp), 0, len(y) - 1)
    s = np.multiply(j - k, -dx, out=target)
    s += delta
    p = c0.take(j - (s < 0), mode="clip")
    for ck in (c1, c2):
        p *= s
        p += ck.take(j)
    p *= s
    rows = y.take(j)
    rows += neg
    rows += p
    np.copyto(rows, neg, where=out)
    support = (np.minimum(a0, img_lo) + shift, np.maximum(b0, img_hi) + shift)
    return rows, float(a_grid[0]), shift, support


def _deviation_exponents(
    ctx: ThermalContext, spec: FieldSpec, norm: StateNormalization,
    f: TestFunction, u: float, t: np.ndarray, g: TestFunction | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exponents (z2, dz) of the Weyl overlaps along the modular deviation,
    at one u for each entry of the 1-D array t.

    With h1 the modular image of f(. - t), h2 = f(. - (t - beta u)),
    d = h1 - h2 and e = h2 - g: z2 = -c Re omega2(e, e) = log|<W(g)O, W(h2)O>|
    and dz = i Im K(g, d)/2 - c Re omega2(d, d + 2e), so that
    |<W(g)O, W(h1)O> - <W(g)O, W(h2)O>| = e^{z2} |expm1(dz)| (Re K = 0 on real
    functions).  dz pairs d only, so nothing cancels at the e^{-2pi t/beta}
    scale; those pairings are not tail-checked.  g = None means g = h2 (e = 0,
    z2 = 0); a given g and f get symplectic_K's tail check on their own
    transforms on every call, raising QuadratureError when too narrow for
    the cutoff.

    The t values form one row: their deviations, zero-padded to a common
    range of f's lattice, go through one 2-D chirp-z call, and each pairing
    is one _pair call on the row stack, with each row's span against g (its
    own for g = None), so a row spanning too far for the grid raises
    QuadratureError.  A row of a dozen nodes keeps the stacks near the cache
    size; padding moves last bits only.
    """
    if f.support[0] <= 0.0:
        raise DomainViolation("supp f must lie in the positive half-line")
    dens, wgt = _density(ctx, spec), _field_weight(ctx, spec)
    tf = _transforms(ctx, f)
    rows, x0, shift, (lo, hi) = _deviation_samples(ctx, f, u, t)
    if g is not None:
        tg = _transforms(ctx, g)
        for th in (tf, tg):  # symplectic_K's tail check on each own transform
            _tail_check(wgt[2] * (th.real**2 + th.imag**2), "symplectic form")
        lo, hi = np.minimum(lo, g.support[0]), np.maximum(hi, g.support[1])
    span = hi - lo
    p = momentum_grid(ctx)
    (n_rows, n), m = rows.shape, len(tf)
    # the row pipeline runs in one buffer per call, freed on return: the
    # chirp-z transform's (td is a view into it), the shift phases (h2's
    # transform, then e's) and the pairings' two real products
    sizes = n_rows * np.array([_next_fast_len(n + m - 1), _FINE * -(-m // _FINE), m])
    fft_buf, ph_buf, work = np.split(np.empty(sizes.sum(), dtype=complex), np.cumsum(sizes)[:-1])
    td = _lattice_fourier(rows, x0, f.dx, p, out=fft_buf.reshape(n_rows, -1))
    # both translates move by the shift through one phase e^{-ip shift}
    th2 = _phases(p[1] - p[0], shift, m, out=ph_buf)
    td *= th2
    th2 *= tf  # h2's transform
    work = work.view(float).reshape(2, n_rows, m)
    k = _pair(ctx, span, wgt, th2 if g is None else tg, td, work=work)
    if g is None:
        z2, te = np.zeros(len(t)), td  # e = 0
    else:
        te = th2
        te -= tg
        z2 = -norm.c * _pair(ctx, span, dens, te, te, work=work).real
        te *= 2.0
        te += td  # td + 2 te
    # Re omega2(d, d + 2e) alone: the density's even row, a zero odd row
    o = _pair(ctx, span, (dens[0], np.zeros(m), dens[2]), td, te, work=work).real
    return z2, -norm.c * o + 1j * (k.imag / 2.0)


# ----------------------------------------------------------------------
# flow actions on smearing functions
# ----------------------------------------------------------------------


def _pull_back(ctx: ThermalContext, flow, param: float, f: TestFunction) -> TestFunction:
    """Move the support along flow(param); pull samples back through flow(-param).

    The flow maps raise DomainViolation at the support edges when the
    admissibility inequality fails there (the maps are monotone, so the
    edges are the worst case).
    """
    a, b = f.support
    new_a = flow(ctx, RayDirection.PLUS, param, a)
    new_b = flow(ctx, RayDirection.PLUS, param, b)
    y = np.linspace(new_a, new_b, len(f.samples))
    vals = f(flow(ctx, RayDirection.PLUS, -param, y))
    vals[0] = 0.0
    vals[-1] = 0.0
    return TestFunction(vals, y[0], y[1] - y[0], (new_a, new_b))


def modular_transform(ctx: ThermalContext, u: float, f: TestFunction) -> TestFunction:
    """Smearing-function action of the half-line modular flow.

    The support moves forward along the flow while sample values pull back
    through the inverse point map.  The flow must be defined on all of the
    support: always for u >= 0, and for u < 0 on any compact support in the
    right half-line.
    """
    if not f.compact_support:
        raise ValueError("modular transform needs a compactly supported function")
    return _pull_back(ctx, modular_flow_ray, u, f)


def gamma_transform(ctx: ThermalContext, tau: float, f: TestFunction) -> TestFunction:
    """Smearing-function action of the positive-generator flow, tau >= 0.

    The support moves by the flow; at tau >= beta/(2 pi) every compactly
    supported function lands in the right half-line.
    """
    if tau < 0:
        raise DomainViolation("positive-generator transform is defined for tau >= 0")
    if not f.compact_support:
        raise ValueError("transform needs a compactly supported function")
    return _pull_back(ctx, gamma_flow_ray, tau, f)


# ----------------------------------------------------------------------
# derivatives and higher-index actions
# ----------------------------------------------------------------------


def _spectral_ok(spec: np.ndarray) -> bool:
    """Whether the zero-padded spectrum spec of the samples has decayed at
    the Nyquist band."""
    size = np.abs(spec)
    top = size[-max(2, len(size) // 50) :]
    peak = size.max()
    return peak > 0 and top.max() < 1e-12 * peak


def _derivative_once_fd4(vals: np.ndarray, dx: float) -> np.ndarray:
    out = np.zeros_like(vals)
    out[2:-2] = (
        vals[:-4] - 8.0 * vals[1:-3] + 8.0 * vals[3:-1] - vals[4:]
    ) / (12.0 * dx)
    # one-sided 4th-order stencils at the edges
    c = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12.0 * dx)
    for i in (0, 1):
        out[i] = np.dot(c, vals[i : i + 5])
        out[-1 - i] = -np.dot(c, vals[-1 - i : -6 - i : -1])
    return out


def _derivative_values(vals: np.ndarray, dx: float, n: int) -> np.ndarray:
    m = 2 * len(vals)
    spec = np.fft.rfft(vals, m)
    if _spectral_ok(spec):
        freq = np.fft.rfftfreq(m, dx) * TWO_PI
        out = np.fft.irfft(spec * (1j * freq) ** n, m)[: len(vals)]
    else:
        out = np.asarray(vals, dtype=float)
        for _ in range(n):
            out = _derivative_once_fd4(out, dx)
    return out


def nth_derivative(f: TestFunction, n: int) -> TestFunction:
    """n-th derivative on the same grid.

    Spectral differentiation (zero-padded FFT) when the sampled spectrum has
    decayed at the grid's Nyquist band, otherwise repeated 4th-order finite
    differences.
    """
    if FieldSpec(n).n == 0:
        return f
    vals = _derivative_values(f.samples, f.dx, n).copy()
    vals[0] = 0.0
    vals[-1] = 0.0
    return replace(f, samples=vals)


def _resolution_guard(f: TestFunction, n: int):
    """Compare against the half-resolution derivative; raise when they disagree."""
    if len(f.samples) < 65:
        raise ResolutionError("grid too coarse for derivative estimation")
    d_full = nth_derivative(f, n)
    d_half = _derivative_values(f.samples[::2], 2.0 * f.dx, n)
    ref = np.max(np.abs(d_full.samples))
    if ref == 0.0:
        return d_full
    dev = np.max(np.abs(d_full.samples[::2] - d_half)) / ref
    if dev > 1e-3:
        raise ResolutionError(
            f"derivative of order {n} unresolved: full/half-grid estimates "
            f"deviate by {dev:.2e} (tolerance 1e-03); refine the grid"
        )
    return d_full


def higher_transform(
    ctx: ThermalContext, n: int, which: str, param: float, f: TestFunction
) -> TestFunction:
    """Flow action on smearing functions of the field with scaling index n.

    For n >= 1 the action is the n-fold iterated integral from 0 of the
    index-0 action on the n-th derivative; the result generally grows like
    x^{n-1} and is returned on an extended grid with compact_support=False.
    Requires supp f inside the positive half-line for n >= 1.
    """
    FieldSpec(n)
    if which not in ("modular", "gamma"):
        raise ValueError(f"which must be 'modular' or 'gamma', got {which!r}")
    transform = modular_transform if which == "modular" else gamma_transform
    if n == 0:
        return transform(ctx, param, f)
    if f.support[0] <= 0.0:
        raise DomainViolation(
            "higher-index actions need supp f inside the positive half-line"
        )
    moved = transform(ctx, param, _resolution_guard(f, n))
    lo = 0.0
    hi = moved.support[1] + max(
        2.0 * (ctx.beta if ctx.finite else 1.0),
        moved.support[1] - moved.support[0],
        f.support[1] - f.support[0],
    )
    m = min(2 * len(f.samples) + 1, 8193)
    x = np.linspace(lo, hi, m)
    vals = moved(x)
    for _ in range(n):
        vals = _cumulative_simpson(vals, x[1] - x[0])
    return TestFunction(
        vals, float(x[0]), float(x[1] - x[0]), (float(x[0]), float(x[-1])),
        compact_support=False,
    )


def localization_defect(
    ctx: ThermalContext, n: int, u: float, f: TestFunction, interval: tuple[float, float]
) -> float:
    """Interval integral certifying (dis)localization of the modular action.

    For n >= 1: the integral of the index-0 modular action applied to the
    n-th derivative over the interval.  A nonzero value stable under
    enlarging the interval shows the transformed observable fits in no
    bounded region.  For n = 0 the analogous integral of the derivative of
    the transformed function is returned; it vanishes once the interval
    covers the image support (compact support is preserved).
    """
    if FieldSpec(n).n >= 1:
        if f.support[0] <= 0.0:
            raise DomainViolation(
                "localization defect needs supp f inside the positive half-line"
            )
        integrand = modular_transform(ctx, u, _resolution_guard(f, n))
    else:
        integrand = nth_derivative(modular_transform(ctx, u, f), 1)
    lo = max(interval[0], integrand.support[0])
    hi = min(interval[1], integrand.support[1])
    if lo >= hi:
        return 0.0
    x = np.linspace(lo, hi, 4097)
    return float(np.vecdot(_simpson_weights(len(x), x[1] - x[0]), integrand(x)))


# ----------------------------------------------------------------------
# position-space cross-check
# ----------------------------------------------------------------------


def omega2_position(
    ctx: ThermalContext,
    f: TestFunction,
    g: TestFunction,
    epsilon: float,
) -> complex:
    """Two-point form smeared with the regularized position kernel.

    Integrates kernel(y - x) f(x) g(y) using the correlation
    F(s) = int f(x) g(x + s) dx on a grid fine enough to resolve epsilon.
    The kernel is taken on the lower side of the real axis, the complex
    conjugate of the kernel as written (+i eps): that boundary value matches
    the momentum-space pairing.
    """
    # both functions sampled with one exact common step, so the correlation
    # lattice lines up
    dx = min(f.dx, g.dx)

    def on_step(fn: TestFunction):
        a, b = fn.support
        count = int(math.ceil((b - a) / dx - 1e-12)) + 1
        return a, fn(a + dx * np.arange(count))

    af, vf = on_step(f)
    ag, vg = on_step(g)
    corr = np.correlate(vg, vf, mode="full") * dx
    # F on the correlation lattice s0 + k dx, k < len(corr)
    s0 = ag - (af + (len(vf) - 1) * dx)
    s1 = s0 + (len(corr) - 1) * dx
    F = _spline(s0, dx, corr)
    h = min(dx, epsilon / 16.0)
    n = int(math.ceil((s1 - s0) / h)) | 1
    sf = np.linspace(s0, s1, n)
    k = np.conj(two_point_position(ctx, sf, epsilon))
    # numpy's own sum, not np.vecdot: OpenBLAS threads a dot above 10000
    # entries, and a threaded dot stalls for milliseconds while another
    # process holds a core
    return complex(np.sum(_simpson_weights(n, sf[1] - sf[0]) * F(sf) * k))


# int dens(p) e^{-eps p} e^{ipz} dp = -(pi/beta)^2 sinh^{-2}(pi (z + i eps)/beta)
# at n = 0 and conj ft gt carries (1/2pi)^2, so the damped momentum pairing is
# (1/4pi^2)(-pi^2) = -1/4 times omega2_position's lower-boundary smear
_FOURIER_PAIR_CONSTANT = -0.25


@dataclass(frozen=True)
class FourierPairCalibration:
    """Momentum/position ratio on the first pair; see calibrate_fourier_pair."""

    constant: complex
    max_relative_deviation: float


def calibrate_fourier_pair(
    ctx: ThermalContext,
    pairs: list[tuple[TestFunction, TestFunction]],
    epsilon: float,
) -> FourierPairCalibration:
    """Check the momentum/position constant on every pair.

    The ratio of the n = 0 momentum pairing, damped by e^{-eps p} to match
    the kernel's eps, to the lower-boundary position smearing must be
    _FOURIER_PAIR_CONSTANT for every pair; max_relative_deviation is the
    worse of its spread and its relative deviation from that constant.
    """
    if not pairs:
        raise ValueError("at least one pair is needed")
    if epsilon >= ctx.beta:
        raise ValueError("damping scale must stay below beta")
    dens = _fold(ctx, lambda p: two_point_momentum(ctx, FieldSpec(0), p) * np.exp(-epsilon * p))
    ratios = []
    for f, g in pairs:
        mom = _pair(ctx, _separation(f, g), dens, _transforms(ctx, f), _transforms(ctx, g))
        ratios.append(mom / omega2_position(ctx, f, g, epsilon))
    c0 = ratios[0]
    devs = [(abs(r - c0) / abs(c0), abs(r / _FOURIER_PAIR_CONSTANT - 1.0)) for r in ratios]
    dev = float(np.max(devs))  # keeps a NaN
    return FourierPairCalibration(constant=c0, max_relative_deviation=dev)
