"""Half-sided flow maps on a light ray.

Two one-parameter flows act on the half-line algebras at inverse temperature
beta: the modular flow ``phi`` and the positive-generator flow ``psi``.  Both
are affine in the coordinate

    xi_+(x) = +(beta/2pi) (e^{+2pi x/beta} - 1)      (right half-line)
    xi_-(x) = -(beta/2pi) (e^{-2pi x/beta} - 1)      (left half-line)

where the modular flow is pure scaling, xi -> e^{-2pi u} xi (plus direction),
and the positive-generator flow is pure translation, xi -> xi + tau.  All
flows here are evaluated through fused, cancellation-free forms of that
chart conjugation; expm1/log1p keep |x| << beta and |x| >> beta both exact.

beta = inf is a first-class value: the flows degenerate to the linear maps
x -> e^{-2pi u} x and x -> x + tau.
"""

from __future__ import annotations

import math
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


def xi_chart(ctx: ThermalContext, direction: RayDirection, x):
    """Linearizing coordinate of the half-line flows.

    Strictly increasing; range (-beta/2pi, inf) for PLUS and
    (-inf, beta/2pi) for MINUS.
    """
    _require_finite(ctx, "xi_chart")
    b = ctx.beta / TWO_PI
    x = np.asarray(x, dtype=float)
    if direction is RayDirection.PLUS:
        out = b * np.expm1(x / b)
    else:
        out = -b * np.expm1(-x / b)
    return out if out.ndim else float(out)


def xi_inverse(ctx: ThermalContext, direction: RayDirection, xi):
    """Inverse of xi_chart; raises outside the open range of the chart."""
    _require_finite(ctx, "xi_inverse")
    b = ctx.beta / TWO_PI
    xi = np.asarray(xi, dtype=float)
    if direction is RayDirection.PLUS:
        arg = xi / b
        if np.any(arg <= -1.0):
            raise DomainViolation(
                f"xi out of range: need xi > -beta/(2 pi) = {-b}, got min {np.min(xi)}"
            )
        out = b * np.log1p(arg)
    else:
        arg = -xi / b
        if np.any(arg <= -1.0):
            raise DomainViolation(
                f"xi out of range: need xi < beta/(2 pi) = {b}, got max {np.max(xi)}"
            )
        out = -b * np.log1p(arg)
    return out if out.ndim else float(out)


def _domain_violation(what: str, conds, floor: float, name: str, param: float, x, mirror: bool):
    """DomainViolation for a ray map whose argument must exceed floor.

    conds holds the positivity condition of the PLUS and the MINUS map.  A
    MINUS map is evaluated as the reflection -f_+(-param, -x); mirror=True
    states the bound, the parameter and the argument as the caller gave them.
    """
    if mirror:
        # 0.0 - floor: a floor of 0.0 reads as 0.0, not -0.0
        return DomainViolation(
            f"{what} undefined: {conds[1]} must be positive; needs x < {0.0 - floor} "
            f"at {name}={-param}, got x={-np.min(x)}"
        )
    return DomainViolation(
        f"{what} undefined: {conds[0]} must be positive; needs x > {floor} "
        f"at {name}={param}, got x={np.min(x)}"
    )


def _points(x):
    """(x as a 1-D float array, whether x was a scalar); NaN or inf x raises."""
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    # math.isfinite costs far less than a reduction on the per-point flow lines
    if not (math.isfinite(x_arr) if scalar else np.isfinite(x_arr).all()):
        bad = x_arr[~np.isfinite(x_arr)][0]
        raise DomainViolation(f"point x must be finite, got x={bad}")
    return np.atleast_1d(x_arr), scalar


_PHI_CONDS = ("1 + e^{-2 pi u}(e^{2 pi x/beta} - 1)", "1 + e^{2 pi u}(e^{-2 pi x/beta} - 1)")
_PSI_CONDS = ("1 + (2 pi tau/beta) e^{-2 pi x/beta}", "1 - (2 pi tau/beta) e^{2 pi x/beta}")


def _phi_plus(beta: float, u: float, x, mirror: bool = False):
    """Modular flow on the right half-line.

    phi_+(u, x) = (beta/2pi) log{ 1 + e^{-2pi u}(e^{2pi x/beta} - 1) },
    i.e. scaling by e^{-2pi u} in the plus chart.  Two cancellation-free
    forms cover the sign of u:

        u > 0:  b * logaddexp(x/b - 2pi u, log(1 - e^{-2pi u}))
        u < 0:  x - beta u + b * log1p((e^{2pi u} - 1) e^{-x/b})

    with b = beta/2pi.  The first is a sum of exponentials (both terms
    positive), the second isolates the small correction; both stay exact for
    |x| << beta and |x| >> beta.  mirror marks a MINUS call (see
    _domain_violation).
    """
    b = beta / TWO_PI
    x = np.asarray(x, dtype=float)
    if u == 0.0:
        return x.copy()
    if u > 0.0:
        rest = -math.expm1(-TWO_PI * u)  # 1 - e^{-2pi u} in (0, 1)
        return b * np.logaddexp(x / b - TWO_PI * u, math.log(rest))
    # u < 0: scaled-chart form, exact at the fixed point x = 0; the scaled
    # term e^{-2pi u} expm1(x/b) would overflow for x/b - 2pi u > ~709, where
    # the translation-dominated form takes over
    out = np.empty_like(x)
    big = x / b - TWO_PI * u > 700.0
    if np.any(big):
        # e^{-x/b} overflows only where 2pi u < -1400: arg = -inf fails the check
        with np.errstate(over="ignore"):
            arg = math.expm1(TWO_PI * u) * np.exp(-x[big] / b)
        _check_phi_domain(b, u, arg, x, big, mirror)
        out[big] = x[big] - beta * u + b * np.log1p(arg)
    small = ~big
    if np.any(small):
        # capped below overflow: with -2pi u > 709 a small-branch x has
        # x/b < -9, so arg < -1 and the domain check raises either way
        arg = math.exp(min(-TWO_PI * u, 709.0)) * np.expm1(x[small] / b)
        _check_phi_domain(b, u, arg, x, small, mirror)
        out[small] = b * np.log1p(arg)
    return out


def _check_phi_domain(b: float, u: float, arg, x, part, mirror: bool):
    """Raise DomainViolation unless arg > -1; arg is the log1p argument at x[part]."""
    if np.any(arg <= -1.0):
        floor = b * math.log(-math.expm1(TWO_PI * u))
        raise _domain_violation("modular flow", _PHI_CONDS, floor, "u", u, x[part], mirror)


def modular_flow_ray(ctx: ThermalContext, direction: RayDirection, u: float, x):
    """Point map of the modular flow of the half-line algebra.

    PLUS direction: defined where 1 + e^{-2pi u}(e^{2pi x/beta} - 1) > 0;
    MINUS is the reflection -phi_+(-u, -x).  For beta = inf the maps are the
    dilations e^{-2pi u} x (PLUS) and e^{+2pi u} x (MINUS).
    """
    if not math.isfinite(u):
        raise DomainViolation(f"flow parameter u must be finite, got {u}")
    x_arr, scalar = _points(x)
    if not ctx.finite:
        sign = 1.0 if direction is RayDirection.PLUS else -1.0
        out = math.exp(-TWO_PI * sign * u) * x_arr
    elif direction is RayDirection.PLUS:
        out = _phi_plus(ctx.beta, u, x_arr)
    else:
        out = -_phi_plus(ctx.beta, -u, -x_arr, mirror=True)
    return float(out[0]) if scalar else out


def _psi_plus(beta: float, tau: float, x, mirror: bool = False):
    """Positive-generator flow on the right half-line.

    psi_+(tau, x) = (beta/2pi) log{ e^{2pi x/beta} + 2pi tau/beta },
    i.e. translation by tau in the plus chart.  For tau > 0 this is a
    logaddexp of two positive terms (exact down to results below the
    smallest subnormal); for tau < 0 the correction form
    x + b log1p(r e^{-x/b}) is used on its domain x > b log(-r).  mirror
    marks a MINUS call (see _domain_violation).
    """
    b = beta / TWO_PI
    x = np.asarray(x, dtype=float)
    if tau == 0.0:
        return x.copy()
    r = tau / b
    # for b > 2 (beta > 4 pi) a subnormal tau makes r underflow to 0
    log_r = math.log(abs(r)) if r != 0.0 else math.log(abs(tau)) - math.log(b)
    if tau > 0.0:
        return b * np.logaddexp(x / b, log_r)
    floor = b * log_r
    if np.any(x <= floor):
        raise _domain_violation(
            "positive-generator flow", _PSI_CONDS, floor, "tau", tau, x, mirror
        )
    with np.errstate(over="ignore", invalid="ignore"):
        arg = r * np.exp(-x / b)
    # above the floor r e^{-x/b} lies in (-1, 0), but for |r| < e^{-709}
    # (subnormal tau) e^{-x/b} alone can overflow there: inf, or NaN where
    # r underflowed to 0
    over = ~np.isfinite(arg)
    if np.any(over):
        arg[over] = -np.exp(log_r - x[over] / b)
    return x + b * np.log1p(arg)


def gamma_flow_ray(ctx: ThermalContext, direction: RayDirection, tau: float, x):
    """Point map of the positive-generator flow: translation by tau in the chart.

    PLUS direction: defined where 1 + (2pi tau/beta) e^{-2pi x/beta} > 0;
    MINUS (defined where 1 - (2pi tau/beta) e^{+2pi x/beta} > 0) is the
    reflection -psi_+(-tau, -x).  For beta = inf both reduce to x + tau.
    """
    if not math.isfinite(tau):
        raise DomainViolation(f"flow parameter tau must be finite, got {tau}")
    x_arr, scalar = _points(x)
    if not ctx.finite:
        out = x_arr + tau
    elif direction is RayDirection.PLUS:
        out = _psi_plus(ctx.beta, tau, x_arr)
    else:
        out = -_psi_plus(ctx.beta, -tau, -x_arr, mirror=True)
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
