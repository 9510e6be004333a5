"""Exact algebra of the two-dimensional affine group of the line.

Group elements are pairs (lambda, tau) acting on the line as x -> lambda*x + tau,
with lambda > 0.  The scale factor is stored directly (rather than its
logarithm) so that long compositions never leave the floating range; the
log-parameter is available as ``GroupElement.u``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainViolation

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, slots=True)
class GroupElement:
    """Element (lambda, tau) of the affine group, lambda = e^{-2 pi u} > 0."""

    lam: float
    tau: float

    def __post_init__(self):
        if not self.lam > 0.0:
            raise ValueError(f"scale factor must be positive, got {self.lam}")

    @property
    def u(self) -> float:
        """Dilation parameter u with lambda = e^{-2 pi u}."""
        return -math.log(self.lam) / TWO_PI

    @staticmethod
    def identity() -> "GroupElement":
        return GroupElement(1.0, 0.0)


@dataclass(frozen=True, slots=True)
class SubgroupParams:
    """Generator (a, b) of a one-parameter subgroup r -> (e^{ar}, (b/a)(e^{ar}-1))."""

    a: float
    b: float

    def __post_init__(self):
        if self.a == 0.0 and self.b == 0.0:
            raise ValueError("(a, b) = (0, 0) generates only the identity")


# The three distinguished subgroups: dilations about 0, pure translations,
# and dilations about the fixed point -1/(2 pi).
DILATION_PARAMS = SubgroupParams(-TWO_PI, 0.0)
TRANSLATION_PARAMS = SubgroupParams(0.0, 1.0)
SHIFTED_DILATION_PARAMS = SubgroupParams(-TWO_PI, -1.0)


def compose(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """Group product: (l1, t1) o (l2, t2) = (l1*l2, t1 + l1*t2)."""
    return GroupElement(g1.lam * g2.lam, g1.tau + g1.lam * g2.tau)


def inverse(g: GroupElement) -> GroupElement:
    return GroupElement(1.0 / g.lam, -g.tau / g.lam)


def subgroup_element(p: SubgroupParams, r: float) -> GroupElement:
    """Element at parameter r of the one-parameter subgroup generated by (a, b).

    The translation part (b/a)(e^{ar}-1) has a removable singularity at a=0;
    for |a*r| below 1e-8 the second-order expansion b*r*(1 + ar/2 + (ar)^2/6)
    is used instead.
    """
    a, b = p.a, p.b
    ar = a * r
    lam = math.exp(ar)
    if a == 0.0 or abs(ar) < 1e-8:
        tau = b * r * (1.0 + ar / 2.0 + ar * ar / 6.0)
    else:
        tau = (b / a) * math.expm1(ar)
    return GroupElement(lam, tau)


def exchange_exponent(u: float, s: float) -> float:
    """Exponent re-ordering a dilation past a shifted dilation.

    Returns the value F with g_dil(u) o g_shift(s) = g_shift(F) o g_dil(-F+s+u),
    F = -(1/2pi) * log{1 + e^{-2pi u}(e^{-2pi s} - 1)}.

    Raises DomainViolation when the brace is not positive (always fine
    for s <= 0).
    """
    inner = math.exp(-TWO_PI * u) * math.expm1(-TWO_PI * s)
    if inner <= -1.0:
        raise DomainViolation(
            "exchange undefined: 1 + e^{-2 pi u}(e^{-2 pi s} - 1) must be "
            f"positive, got {1.0 + inner} at u={u}, s={s}"
        )
    return -math.log1p(inner) / TWO_PI


def decompose_translation(tau: float, branch: str) -> tuple[float, float]:
    """Split a pure translation into shifted-dilation and dilation factors.

    Returns (s, u) with, for branch "first" (valid for tau > -1/(2 pi)):

        g_trans(tau) = g_shift(s) o g_dil(u),  s = -u = -(1/2pi) log(1 + 2 pi tau)

    and for branch "second" (valid for tau < 1/(2 pi)):

        g_trans(tau) = g_dil(u) o g_shift(s),  s = -u = (1/2pi) log(1 - 2 pi tau).
    """
    if branch == "first":
        arg = TWO_PI * tau
        if arg <= -1.0:
            raise DomainViolation(
                f"first decomposition needs tau > -1/(2 pi), got tau={tau}"
            )
        u = math.log1p(arg) / TWO_PI
        return -u, u
    if branch == "second":
        arg = -TWO_PI * tau
        if arg <= -1.0:
            raise DomainViolation(
                f"second decomposition needs tau < 1/(2 pi), got tau={tau}"
            )
        s = math.log1p(arg) / TWO_PI
        return s, -s
    raise ValueError(f"branch must be 'first' or 'second', got {branch!r}")


def compose_decomposition(tau: float, branch: str) -> GroupElement:
    """Re-assemble the branch decomposition; equals g_trans(tau) up to rounding."""
    s, u = decompose_translation(tau, branch)
    shift = subgroup_element(SHIFTED_DILATION_PARAMS, s)
    dil = subgroup_element(DILATION_PARAMS, u)
    if branch == "first":
        return compose(shift, dil)
    return compose(dil, shift)


def conjugate_translation(p: SubgroupParams, r: float, tau: float) -> float:
    """Translation parameter of g_{a,b}(r) o g_trans(tau) o g_{a,b}(-r) = g_trans(e^{ar} tau)."""
    return math.exp(p.a * r) * tau
