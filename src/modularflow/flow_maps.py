"""Half-sided flow maps on a light ray.

Two one-parameter flows act on the half-line algebras at inverse temperature
beta: the modular flow ``phi`` and the positive-generator flow ``psi``.  Both
are affine in the coordinate

    xi_+(x) = +(beta/2pi) (e^{+2pi x/beta} - 1)      (right half-line)
    xi_-(x) = -(beta/2pi) (e^{-2pi x/beta} - 1)      (left half-line)

where the modular flow is pure scaling, xi -> e^{-2pi u} xi (plus direction),
and the positive-generator flow is pure translation, xi -> xi + tau.  All
flows here are evaluated through cancellation-free forms of that chart
conjugation; the modular flow's deviation from time translation by -beta u
is written once, in modular_remainder, for every module that needs it (the
point map's own translation form sums that log's argument from its positive
terms instead, so it stays exact at the fixed point).

beta = inf is a first-class value: the flows degenerate to the linear maps
x -> e^{-2pi u} x and x -> x + tau.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .axb_group import TWO_PI
from .errors import DomainViolation


@dataclass(frozen=True)
class ThermalContext:
    """Inverse temperature plus shared numerical settings.

    beta:  inverse temperature in (0, inf]; math.inf selects the vacuum maps.
    pmax:  momentum cutoff of the field quadratures (default 200/beta).
    npts:  momentum node count (forced odd internally; >= 16).
    """

    beta: float = 1.0
    pmax: float | None = None
    npts: int = 8192

    def __post_init__(self):
        if not (self.beta > 0.0):
            raise ValueError(f"beta must be positive or inf, got {self.beta}")
        if self.pmax is None:
            object.__setattr__(
                self, "pmax", 200.0 / self.beta if math.isfinite(self.beta) else 200.0
            )
        if not self.pmax > 0.0:
            raise ValueError(f"pmax must be positive, got {self.pmax}")
        if self.pmax == math.inf:
            raise ValueError(f"pmax must be finite, got {self.pmax}")
        if not isinstance(self.npts, numbers.Integral):
            raise ValueError(f"npts must be an integer, got {self.npts!r}")
        if self.npts < 16:
            raise ValueError(f"npts must be at least 16, got {self.npts}")

    @property
    def finite(self) -> bool:
        return math.isfinite(self.beta)


class RayDirection(Enum):
    PLUS = "plus"
    MINUS = "minus"


def _require_finite(ctx: ThermalContext, what: str):
    if not ctx.finite:
        raise DomainViolation(f"{what} requires finite beta, got beta=inf")


def _finite(name: str, values: np.ndarray):
    """Raise DomainViolation on NaN or inf, worded like _operands."""
    if not np.isfinite(values).all():
        raise DomainViolation(
            f"{name} must be finite, got {name}={values[~np.isfinite(values)][0]}"
        )


def xi_chart(ctx: ThermalContext, direction: RayDirection, x):
    """Linearizing coordinate of the half-line flows, +-b expm1(+-x/b) with
    b = beta/2pi.

    Strictly increasing; range (-beta/2pi, inf) for PLUS and
    (-inf, beta/2pi) for MINUS.  A non-finite x, or an image beyond the
    float range, raises DomainViolation.
    """
    _require_finite(ctx, "xi_chart")
    b, s = ctx.beta / TWO_PI, (1.0 if direction is RayDirection.PLUS else -1.0)
    x = np.asarray(x, dtype=float)
    _finite("x", x)
    with np.errstate(over="ignore"):
        out = s * b * np.expm1(s * x / b)
    if not np.isfinite(out).all():
        bad = x[~np.isfinite(out)][0]
        raise DomainViolation(f"chart image leaves the float range, got x={bad}")
    return out if out.ndim else float(out)


def xi_inverse(ctx: ThermalContext, direction: RayDirection, xi):
    """Inverse of xi_chart; raises outside the open range of the chart and
    for a non-finite xi."""
    _require_finite(ctx, "xi_inverse")
    b, s = ctx.beta / TWO_PI, (1.0 if direction is RayDirection.PLUS else -1.0)
    xi = np.asarray(xi, dtype=float)
    _finite("xi", xi)
    with np.errstate(over="ignore"):
        arg = s * xi / b
    if np.any(arg <= -1.0):
        need, got = ("xi > -beta/2pi =", np.min(xi)) if s > 0.0 else ("xi < beta/2pi =", np.max(xi))
        raise DomainViolation(f"xi out of range: need {need} {-s * b}, got {got}")
    # where s xi/b leaves the float range, log1p(s xi/b) is log(s xi) - log b
    # to rounding; the maximum keeps the unused entries' logs finite
    far = np.log(np.maximum(s * xi, b)) - math.log(b)
    out = s * b * np.where(np.isinf(arg), far, np.log1p(arg))
    return out if out.ndim else float(out)


def _undefined(what: str, conds, floor: float, mirror: bool) -> str:
    """Domain text of a ray map whose argument must exceed floor.

    conds holds the positivity condition of the PLUS and the MINUS map; a
    MINUS map (mirror=True) states the bound as the caller's x meets it.
    """
    if mirror:
        # 0.0 - floor: a floor of 0.0 reads as 0.0, not -0.0
        return f"{what} undefined: {conds[1]} must be positive; needs x < {0.0 - floor}"
    return f"{what} undefined: {conds[0]} must be positive; needs x > {floor}"


def _raise_at_first(bad, u, x, name: str, reason, mirror: bool = False):
    """Raise DomainViolation at the first parameter with a failing element.

    bad marks the failing elements of the broadcast of u and x (a 1-D
    parameter array and a point array, one of them with one element).  The
    message is reason (or reason(parameter) for a function), then the
    parameter and the smallest failing point; exit_param is the parameter.
    A MINUS map is evaluated as the reflection -f_+(-param, -x); mirror=True
    states the parameter and the point as the caller gave them.
    """
    if not np.count_nonzero(bad):
        return
    v = float(u[0] if u.size == 1 else u[np.argmax(bad)])
    got = float(np.min(x[bad] if u.size == 1 else x))
    param, got = (-v, -got) if mirror else (v, got)
    head = reason(v) if callable(reason) else reason
    raise DomainViolation(f"{head} at {name}={param}, got x={got}", exit_param=param)


def _operands(name: str, param, x):
    """(param as a 1-D array, x as an array of at least one dimension,
    whether the result is a float).

    param is a scalar, or a 1-D array against a scalar x.  A non-finite
    parameter raises, then a non-finite x; with no parameter there is no
    image to compute and x is not read.
    """
    p = np.asarray(param, dtype=float)
    x_arr = np.asarray(x, dtype=float)
    if p.ndim > 1 or (p.ndim == 1 and x_arr.ndim != 0):
        raise ValueError(
            f"flow parameter {name} must be a scalar, or a 1-D array against a scalar x"
        )
    params = p.reshape(-1)
    for r in params.tolist():
        if not math.isfinite(r):
            raise DomainViolation(f"flow parameter {name} must be finite, got {r}", exit_param=r)
    # math.isfinite costs far less than a reduction on a scalar point
    if params.size and not (
        math.isfinite(x_arr) if x_arr.ndim == 0 else np.isfinite(x_arr).all()
    ):
        bad = x_arr[~np.isfinite(x_arr)][0]
        raise DomainViolation(f"point x must be finite, got x={bad}")
    return params, np.atleast_1d(x_arr), p.ndim == 0 and x_arr.ndim == 0


def _per_sign(u, x, pos, neg):
    """Images of x under the parameters u, each sign through its own form.

    u is a 1-D parameter array and x a point array, one of them with one
    element; the result has their broadcast shape.  pos and neg map the
    parameters of their sign and x to images, and u = 0 is the identity.
    One parameter takes its sign's form on every point; a parameter array
    hands each form its own parameters.
    """
    if u.size == 1:
        return pos(u, x) if u[0] > 0.0 else neg(u, x) if u[0] < 0.0 else x.copy()
    out = np.empty(u.shape)
    for at, form in ((u > 0.0, pos), (u < 0.0, neg)):
        if np.count_nonzero(at):
            out[at] = form(u[at], x)
    out[u == 0.0] = x
    return out


_PHI_CONDS = ("1 + e^{-2 pi u}(e^{2 pi x/beta} - 1)", "1 + e^{2 pi u}(e^{-2 pi x/beta} - 1)")
_PSI_CONDS = ("1 + (2 pi tau/beta) e^{-2 pi x/beta}", "1 - (2 pi tau/beta) e^{2 pi x/beta}")
_LOG_MAX = math.log(sys.float_info.max)  # math.exp overflows above it


def modular_remainder(beta: float, u, x):
    """R(u, x) = b log1p(expm1(2pi u) e^{-x/b}), b = beta/2pi, so that
    phi_+(u, x) = x - beta u + R(u, x): exponentially small for x >> beta.

    u is a float or a 1-D array, x an array broadcasting against it; each
    u's constant comes from math, one call per parameter (past 2pi u = 709,
    where expm1 overflows, R is b log(1 + e^{(beta u - x)/b})).  R(0, x) is 0
    for every x.  NaN, with no numpy warning, where the log1p argument is
    <= -1: the caller decides.
    """
    b = beta / TWO_PI
    with np.errstate(over="ignore", invalid="ignore"):
        w = TWO_PI * u
        c = np.minimum(np.ravel(w), 709.0)
        c = np.fromiter(map(math.expm1, c.tolist()), float, c.size).reshape(np.shape(u))
        arg = c * np.exp(-x / b)
        if not np.all(c):  # R(0, x) = 0, also where e^{-x/b} overflows
            arg = np.where(c == 0.0, c, arg)
        out = b * np.log1p(np.where(arg > -1.0, arg, np.nan))
        if np.any(w > 709.0):
            out = np.where(w > 709.0, b * np.logaddexp(0.0, (beta * u - x) / b), out)
    return out


def _phi_plus(beta: float, u, x, mirror: bool = False):
    """Modular flow on the right half-line.

    phi_+(u, x) = (beta/2pi) log{ 1 + e^{-2pi u}(e^{2pi x/beta} - 1) },
    i.e. scaling by e^{-2pi u} in the plus chart.  One form serves both
    signs of u: with b = beta/2pi, the scaled chart
    b log1p(e^{-2pi u} expm1(x/b)), and where x/b - 2pi u > 700 and the
    scaled term would overflow the translation form
    x - beta u + b log(-expm1(-x/b) + e^{-(x - beta u)/b}), whose two terms
    are positive for x > 0.  u = 0 and the fixed point x = 0 map to x
    itself.  Left of the fixed point (x < 0, outside the half-line) with
    u > 0, where the log1p argument falls below -1/2, the image is
    b log(-expm1(-2pi u) + e^{x/b - 2pi u}).
    mirror marks a MINUS call (see _raise_at_first).

    u and x are arrays as in _per_sign.  The constants of each u come from
    math, one call per parameter, and numpy acts elementwise, so each element
    is the value of the one-parameter, one-point call.  Overflow is left to
    the caller.
    """
    b = beta / TWO_PI

    def at(mask):  # parameters and points of the masked elements
        return (u, x[mask]) if u.size == 1 else (u[mask], x)

    # x/b - 2pi u, formed so that u and x near the float maximum meet no inf - inf
    big = (x - beta * u) / b > 700.0
    # e^{-2pi u}, capped to [e^{-745}, e^{709}]: with -2pi u > 709 a chart
    # element has x/b < -9, so arg < -1 and the check raises either way; the
    # lower cap keeps it nonzero, so an overflowing expm1(x/b) gives inf
    w = TWO_PI * u
    chart = np.fromiter(map(math.exp, (-np.clip(w, -709.0, 745.0)).tolist()), float, w.size)
    arg = chart * np.expm1(x / b)
    far = np.isinf(arg) | (w > 700.0)
    if np.count_nonzero(far):
        # expm1(x/b) leaves the float range or e^{-2pi u} the normal numbers;
        # for x > 0 their product is e^{x/b - 2pi u} (1 - e^{-x/b}), at most e^{700}
        far &= ~big & (x > 0.0)
        uf, xf = at(far)
        arg[far] = -np.exp((xf - beta * uf) / b) * np.expm1(-xf / b)
    out = b * np.log1p(np.where(arg > -1.0, arg, np.nan))
    # left of the fixed point 1 + arg cancels; for u > 0 it is the sum of
    # the positive terms -expm1(-2pi u) and e^{x/b - 2pi u}
    near = arg < -0.5
    if np.count_nonzero(near) and np.count_nonzero(near := near & (w > 0.0)):
        un, xn = at(near)
        wn = TWO_PI * un
        lead = -np.fromiter(map(math.expm1, (-wn).tolist()), float, wn.size)
        out[near] = b * np.log(lead + np.exp(xn / b - wn))
    if np.count_nonzero(big):
        # the remainder's 1 + expm1(2pi u) e^{-x/b} as the sum of its terms,
        # so nothing cancels near the fixed point when e^{2pi u} is tiny;
        # NaN left of it, where the sum is negative
        ub, xb = at(big)
        lead = xb - beta * ub
        with np.errstate(divide="ignore", invalid="ignore"):
            moved = lead + b * np.log(-np.expm1(-xb / b) + np.exp(-lead / b))
        out[big] = np.where(xb == 0.0, xb, moved)
    out = np.where(u == 0.0, x, out)

    def undefined(v):  # only u < 0 fails: for u > 0 the image is defined for every x
        floor = b * math.log(-math.expm1(TWO_PI * v))
        return _undefined("modular flow", _PHI_CONDS, floor, mirror)

    _raise_at_first(np.isnan(out), u, x, "u", undefined, mirror)
    return out


def modular_flow_ray(ctx: ThermalContext, direction: RayDirection, u, x):
    """Point map of the modular flow of the half-line algebra.

    PLUS direction: defined where 1 + e^{-2pi u}(e^{2pi x/beta} - 1) > 0;
    MINUS is the reflection -phi_+(-u, -x).  For beta = inf the maps are the
    dilations e^{-2pi u} x (PLUS) and e^{+2pi u} x (MINUS).

    u is a float, or a 1-D array of parameters against a float x: the result
    is then the array of images of x, each bit for bit the value of the call
    with that one u.  A non-finite u raises before any domain check; the
    DomainViolation carries the offending u as exit_param, the first one in
    the array.  An image beyond the float range raises too, and at beta = inf
    x = 0 stays fixed for every finite u.
    """
    u, x_arr, scalar = _operands("u", u, x)
    with np.errstate(over="ignore"):
        if not ctx.finite:
            sign = 1.0 if direction is RayDirection.PLUS else -1.0
            # e^{-2pi u} is inf past |u| = 113, and x = 0 stays 0, not inf * 0
            w = [-TWO_PI * sign * v for v in u.tolist()]
            scale = np.array([math.exp(c) if c <= _LOG_MAX else math.inf for c in w])
            with np.errstate(invalid="ignore"):
                out = np.where(x_arr == 0.0, x_arr, scale * x_arr)
            if any(c > _LOG_MAX for c in w):
                # where only the scale overflows, the image e^{-2pi u + log|x|}
                # may still be finite
                with np.errstate(divide="ignore", invalid="ignore"):
                    moved = np.copysign(np.exp(np.array(w) + np.log(np.abs(x_arr))), x_arr)
                out = np.where(np.isinf(scale) & (x_arr != 0.0), moved, out)
        elif direction is RayDirection.PLUS:
            out = _phi_plus(ctx.beta, u, x_arr)
        else:
            out = -_phi_plus(ctx.beta, -u, -x_arr, mirror=True)
    _raise_at_first(~np.isfinite(out), u, x_arr, "u", "modular flow image leaves the float range")
    return float(out[0]) if scalar else out


def _psi_plus(beta: float, tau, x, mirror: bool = False):
    """Positive-generator flow on the right half-line.

    psi_+(tau, x) = (beta/2pi) log{ e^{2pi x/beta} + 2pi tau/beta },
    i.e. translation by tau in the plus chart.  For tau > 0 this is a
    logaddexp of two positive terms (exact down to results below the
    smallest subnormal); for tau < 0 the correction form
    x + b log1p(r e^{-x/b}) is used on its domain x > b log(-r).  mirror
    marks a MINUS call (see _raise_at_first).

    tau and x are arrays as in _phi_plus, with the same elementwise result.
    """
    b = beta / TWO_PI

    def log_abs_r(t):
        # r = tau/b; for b > 2 (beta > 4 pi) a subnormal tau makes r underflow
        # to 0, and for b < 1 a tau near the float maximum makes it overflow
        r = t / b
        return math.log(abs(r)) if 0.0 < abs(r) < math.inf else math.log(abs(t)) - math.log(b)

    def pos(tau, x):
        log_r = np.array([log_abs_r(t) for t in tau.tolist()])
        out = b * np.logaddexp(x / b, log_r)
        # log_r is finite, so out is inf only where x/b overflows; the image
        # is then x + b log1p(r e^{-x/b}), whose last term is 0
        over = np.isinf(out)
        if np.count_nonzero(over):
            out = np.where(over, x, out)
        return out

    def neg(tau, x):
        log_r = np.array([log_abs_r(t) for t in tau.tolist()])

        def undefined(t):
            return _undefined("positive-generator flow", _PSI_CONDS, b * log_abs_r(t), mirror)

        _raise_at_first(x <= b * log_r, tau, x, "tau", undefined, mirror)
        with np.errstate(invalid="ignore"):
            arg = tau / b * np.exp(-x / b)
        # above the floor r e^{-x/b} lies in (-1, 0), but for |r| < e^{-709}
        # (subnormal tau) e^{-x/b} alone can overflow there: inf, or NaN where
        # r underflowed to 0
        over = ~np.isfinite(arg)
        if np.count_nonzero(over):
            arg = np.where(over, -np.exp(log_r - x / b), arg)
        return x + b * np.log1p(arg)

    return _per_sign(tau, x, pos, neg)


def gamma_flow_ray(ctx: ThermalContext, direction: RayDirection, tau, x):
    """Point map of the positive-generator flow: translation by tau in the chart.

    PLUS direction: defined where 1 + (2pi tau/beta) e^{-2pi x/beta} > 0;
    MINUS (defined where 1 - (2pi tau/beta) e^{+2pi x/beta} > 0) is the
    reflection -psi_+(-tau, -x).  For beta = inf both reduce to x + tau.

    tau is a float, or a 1-D array of parameters against a float x: the
    result is then the array of images of x, each bit for bit the value of
    the call with that one tau.  A non-finite tau raises before any domain
    check; the DomainViolation carries the offending tau as exit_param, the
    first one in the array.  An image beyond the float range raises too.
    """
    tau, x_arr, scalar = _operands("tau", tau, x)
    with np.errstate(over="ignore"):
        if not ctx.finite:
            out = x_arr + tau
        elif direction is RayDirection.PLUS:
            out = _psi_plus(ctx.beta, tau, x_arr)
        else:
            out = -_psi_plus(ctx.beta, -tau, -x_arr, mirror=True)
    reason = "positive-generator flow image leaves the float range"
    _raise_at_first(~np.isfinite(out), tau, x_arr, "tau", reason)
    return float(out[0]) if scalar else out


def check_translation_commutation(ctx: ThermalContext, u: float, t: float, x_grid):
    """Deviation in the point-map form of the translation/modular commutation.

    Conjugating a translation by t with the modular flow at parameter u is a
    translation by phi_+(u, t) followed by the modular flow at
    v = (phi_+(u, t) - t)/beta:

        phi_+(u, phi_+(-u, x) + t) = phi_+(v, x) + phi_+(u, t).

    Returns the maximum absolute deviation over x_grid.
    """
    x = np.asarray(x_grid, dtype=float)
    phi_ut = modular_flow_ray(ctx, RayDirection.PLUS, u, t)
    v = (phi_ut - t) / ctx.beta
    lhs = modular_flow_ray(
        ctx, RayDirection.PLUS, u, modular_flow_ray(ctx, RayDirection.PLUS, -u, x) + t
    )
    rhs = modular_flow_ray(ctx, RayDirection.PLUS, v, x) + phi_ut
    return float(np.max(np.abs(lhs - rhs)))
