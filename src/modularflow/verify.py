"""Numerical verification of the operator-level statements in the Weyl model.

The concrete quasi-free thermal representation makes the abstract relations
checkable: Weyl vectors give Gaussian matrix elements, the modular and
positive-generator groups act by explicit reparametrizations, and the
matrix-element bound and convergence rates become finite computations.
A case never recomputes a value by the route that produced it: it holds it
against a closed form, a group law, an identity or a bound, so it can fail.

Numerical care: the deviation between the modular action and a pure time
translation decays like e^{-2pi t/beta}; at large separations it is far
below the rounding noise of naive grid subtraction, so the matrix-element
bound and the deviation norm both take the change of the Weyl overlap from
one routine, weyl_field._deviation_exponents, which builds the deviation
function from the parameter shift, flow_maps' modular remainder (the code
the flow maps themselves run), as increments of f's spline from its knots,
and pairs only that deviation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import axb_group, cone_wedge
from .axb_group import TWO_PI
from .cone_wedge import Region, SpacetimePoint
from .errors import DomainViolation, QuadratureError
from .flow_maps import (
    RayDirection,
    ThermalContext,
    check_translation_commutation,
    gamma_flow_ray,
    modular_flow_ray,
    xi_chart,
    xi_inverse,
)
from .weyl_field import (
    FieldSpec,
    StateNormalization,
    TestFunction,
    calibrate_fourier_pair,
    gamma_transform,
    localization_defect,
    modular_transform,
    omega2,
    symplectic_K,
    two_point_momentum,
    weyl_inner,
    _deviation_exponents,
    _finite,
    _position_kernel,
    _simpson_weights,
)


@dataclass(frozen=True)
class BoundReport:
    """The matrix-element bound at one u: lhs and rhs are floats for a float
    t, and arrays over t for an array t."""

    lhs: float | np.ndarray
    rhs: float | np.ndarray

    @property
    def margin(self) -> float | np.ndarray:
        return self.rhs - self.lhs


@dataclass(frozen=True)
class RateReport:
    """Fit of the decay of the modular/translation deviation."""

    deviations: tuple[float, ...]
    fitted_slope: float
    expected_slope: float

    @property
    def slope_relative_error(self) -> float:
        return abs(self.fitted_slope - self.expected_slope) / abs(self.expected_slope)


def _separations(t) -> np.ndarray:
    """t as a 1-D array: a scalar is the one-element row."""
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise ValueError(f"separation t must be a scalar, or a 1-D array, got shape {ts.shape}")
    return np.atleast_1d(ts)


def _expm1_ratio(a: float, b: float) -> float:
    """min(|e^a - 1| / (e^b - 1), 1) for b > 0.  Past expm1's range (709) it
    is 1 at a >= b, and below that e^{max(a,0) - b} (1 - e^{-|a|}), as
    1 - e^{-b} is 1: finite, and it may underflow to 0."""
    if max(a, b) < 709.0:
        return min(abs(math.expm1(a)) / math.expm1(b), 1.0)
    return 1.0 if a >= b else -math.expm1(-abs(a)) * math.exp(max(a, 0.0) - b)


def matrix_element_bound(
    ctx: ThermalContext,
    spec: FieldSpec,
    f: TestFunction,
    g: TestFunction,
    u: float,
    t: float | np.ndarray,
    norm: StateNormalization = StateNormalization(),
) -> BoundReport:
    """Matrix-element bound between the modular action and time translation.

    f is translated by t into the half-line algebra (supp f must lie in the
    positive axis, supp g in the negative axis, t > 0); the bound is
    2 M min{|e^{2pi u} - 1| / (e^{2pi t/beta} - 1), 1} with M = 1 for Weyl
    vectors, which holds by construction (K(f, f) = 0).  Raises
    QuadratureError when f or g is too narrow for the momentum cutoff.

    lhs is |<W(g)O, W(h1)O> - <W(g)O, W(h2)O>| = e^{z2} |expm1(dz)| for h1
    the modular image of f(. - t) and h2 = f(. - (t - beta u)), with the
    exponents (z2, dz) of weyl_field._deviation_exponents.  t is a float, or
    a 1-D array of separations that go through that routine as one row.
    """
    if g.support[1] >= 0.0:
        raise DomainViolation("supp g must lie in the negative half-line")
    ts = _separations(t)
    if not np.all(ts > 0.0):
        raise DomainViolation("t must be positive")
    z2, dz = _deviation_exponents(ctx, spec, norm, f, u, ts, g)
    lhs = np.exp(z2) * np.abs(np.expm1(dz))
    rhs = np.array([2.0 * _expm1_ratio(TWO_PI * u, TWO_PI * tj / ctx.beta) for tj in ts.tolist()])
    if np.ndim(t) == 0:
        return BoundReport(lhs=float(lhs[0]), rhs=float(rhs[0]))
    return BoundReport(lhs=lhs, rhs=rhs)


def vector_deviation(
    ctx: ThermalContext,
    spec: FieldSpec,
    f: TestFunction,
    u: float,
    t: float | np.ndarray,
    norm: StateNormalization = StateNormalization(),
) -> float | np.ndarray:
    """Norm of (modular - translated) Weyl vector at separation t.

    D(t)^2 = 2 - 2 Re (W(h2)O, W(h1)O) = -2 Re expm1(dz) with h1 the
    modular image of the t-translate of f, h2 its time translate and dz the
    overlap exponent of weyl_field._deviation_exponents at g = h2; expm1
    keeps the result accurate at the e^{-2pi t/beta} scale.  t is a float,
    or a 1-D array of separations, one row of that routine, for an array of
    norms.

    For u != 0, D^2 below the smallest normal double has lost its digits to
    underflow in the pairing (it reads exactly 0 a few beta later), so it
    raises QuadratureError; at u = 0 the deviation is 0.
    """
    ts = _separations(t)
    _, dz = _deviation_exponents(ctx, spec, norm, f, u, ts)
    d2 = -2.0 * np.expm1(dz).real
    lost = ~(d2 >= np.finfo(float).tiny)
    if u != 0.0 and lost.any():
        j = int(np.argmax(lost))
        raise QuadratureError(
            f"deviation underflowed at t={ts[j]:g}: D^2 = {d2[j]:.3g} is below the "
            "smallest normal double; use smaller separations"
        )
    dev = np.sqrt(np.maximum(d2, 0.0))
    return float(dev[0]) if np.ndim(t) == 0 else dev


def convergence_rate(
    ctx: ThermalContext,
    spec: FieldSpec,
    f: TestFunction,
    u: float,
    t_list,
    norm: StateNormalization = StateNormalization(),
) -> RateReport:
    """Fit log D(t) against t; the slope must reproduce -2 pi / beta.

    The deviations of all of t_list come from one row of
    weyl_field._deviation_exponents."""
    t_arr = np.asarray(list(t_list), dtype=float)
    if len(t_arr) < 2 or np.any(np.diff(t_arr) <= 0):
        raise ValueError("t_list must be increasing with at least 2 entries")
    # for u != 0, vector_deviation raises where D underflows
    if u == 0.0:
        raise ValueError("u must be nonzero: at u = 0 the deviation is 0 and has no rate")
    devs = vector_deviation(ctx, spec, f, u, t_arr, norm)
    coeffs = np.polyfit(t_arr, np.log(devs), 1)
    return RateReport(
        deviations=tuple(float(d) for d in devs),
        fitted_slope=float(coeffs[0]),
        expected_slope=-TWO_PI / ctx.beta,
    )


# ----------------------------------------------------------------------
# operator relations as smearing-function identities
# ----------------------------------------------------------------------


def _sup_norm_difference(a: TestFunction, b: TestFunction) -> float:
    lo = min(a.support[0], b.support[0]) - 0.05
    hi = max(a.support[1], b.support[1]) + 0.05
    x = np.linspace(lo, hi, 4001)
    return float(np.max(np.abs(a(x) - b(x))))


def translation_conjugation_deviation(
    ctx: ThermalContext, f: TestFunction, u: float, t: float
) -> float:
    """Conjugating a translation with the modular group, on smearing functions.

    delta_u[f(. - t)] must equal delta_{u'}[f] translated by phi_+(u, t),
    u' = u + (phi_+(u, t) - t)/beta.  Returns the sup-norm deviation.
    """
    left = modular_transform(ctx, u, f.translate(t))
    phi_ut = modular_flow_ray(ctx, RayDirection.PLUS, u, t)
    u2 = u + (phi_ut - t) / ctx.beta
    right = modular_transform(ctx, u2, f).translate(phi_ut)
    return _sup_norm_difference(left, right)


def gamma_conjugation_deviation(
    ctx: ThermalContext, f: TestFunction, tau: float, t: float
) -> float:
    """Translation covariance of the positive-generator action.

    Conjugating the action at tau with a translation by t rescales the
    parameter to e^{2pi t/beta} tau; returned as a sup-norm deviation of the
    two smearing functions.
    """
    left = gamma_transform(ctx, tau, f.translate(-t)).translate(t)
    right = gamma_transform(ctx, math.exp(TWO_PI * t / ctx.beta) * tau, f)
    return _sup_norm_difference(left, right)


# ----------------------------------------------------------------------
# thermal boundary condition of the modular action
# ----------------------------------------------------------------------


def _continued_parts(b: np.ndarray, b2: np.ndarray, eps: float) -> np.ndarray:
    """The grids 1/D, 1/D^2 and B/D^2, D = B^2 + eps^2, from B and B^2, as
    one real array of shape (3,) + b.shape.

    1/(-B + i eps)^2 = ((B^2 - eps^2) + 2i B eps)/D^2
                     = (1/D - 2 eps^2/D^2) + 2i eps B/D^2,
    so sums of the three grids against one weight vector give the real and
    imaginary parts of the sum of the continued form."""
    inv = 1.0 / (b2 + eps * eps)
    inv2 = inv * inv
    return np.stack((inv, inv2, inv2 * b))


def _modular_jacobian(u: float, e):
    """phi_u'(x) = lam E/(1 + lam (E - 1)) of the modular flow on the right
    half-line, from E = e^{2pi x/beta}; lam = e^{-2pi u}."""
    lam = np.exp(-TWO_PI * u)
    return lam * e / (1.0 + lam * (e - 1.0))


def _kms_inner_sums(ctx: ThermalContext, u_grid, x, y, wy, epsilons):
    """Sums over y, weighted by wy, of both closed forms of the continued
    two-point integrand, for each regulator in epsilons, u in u_grid and x.

    continued: the boundary value at u - i of the integrand of
    omega2(f, delta_u g), in the explicit e^{+-pi u} form
    pref/(-B + i eps)^2 with the regulator added to the bracket B;
    direct: the kernel composition W2(x - L(-u, y)) dL(-u, y)/dy, the
    integrand of omega2(delta_u g, f).

    Returns the complex arrays (continued, direct), each of shape
    (len(epsilons), len(u_grid), len(x)).  Both forms are a real-part and an
    imaginary-part grid over (x, y) times a factor of y alone, pref for the
    continued form and dL for the direct one; with wy that factor makes one
    weight vector per u and side, and each sum over y is a row of a
    matrix-vector product with it.  No complex grid is formed: the direct
    form's grids come from _position_kernel, the continued form's from
    _continued_parts.  L, dL, the weights, the kernel argument z and the
    continued form's grids that do not depend on the regulator are computed
    once per u; _position_kernel forms sinh z and cosh z on each call.  The
    products are np.vecdot, one dot product per row, so a row's sum does not
    depend on the BLAS thread count; a BLAS matrix-vector product's
    summation order does.
    """
    beta = ctx.beta
    ey = np.exp(TWO_PI * y / beta)
    # prefactor from the half-angle split of the kernel and the flow
    # jacobian: (1/beta^2) sinh^{-2} composed with e^{pi u}-scaling of the
    # bracket yields 4 e^{2 pi y/beta}/beta^2 (validated against the direct
    # kernel composition)
    w_cont = 4.0 * ey / beta**2 * wy
    cx = math.pi * x / beta
    sh, ch = np.sinh(cx), np.cosh(cx)
    em = ch - sh
    # per regulator, u and x row: the sums of the kernel's two parts and of
    # _continued_parts' three grids
    shape = (len(epsilons), len(u_grid), len(x))
    direct_sums, continued_sums = np.empty((2,) + shape), np.empty((3,) + shape)
    for i, u in enumerate(map(float, u_grid)):
        # the bracket e^{-pi u}(ey - 1)(ch - sh) - 2 e^{pi u} sh is an x
        # column times a y row, minus an x column
        by = math.exp(-math.pi * u) * (ey - 1.0)
        bx = math.exp(math.pi * u) * 2.0 * sh
        b = em[:, None] * by - bx[:, None]
        b2 = b * b
        # direct side through the flow map and its derivative
        L = modular_flow_ray(ctx, RayDirection.PLUS, u, y)
        # x - L is monotone in x, so its first and last rows bound the grid
        _finite("xi", x[[0, -1], None] - L)
        w_direct = _modular_jacobian(u, ey) * wy
        z = cx[:, None] - math.pi * L / beta
        for k, eps in enumerate(epsilons):
            # the kernel first: it refuses a bad regulator or beta
            kernel = _position_kernel(ctx, eps, z)
            np.vecdot(kernel, w_direct, out=direct_sums[:, k, i])
            np.vecdot(_continued_parts(b, b2, eps), w_cont, out=continued_sums[:, k, i])
    e = np.asarray(epsilons, dtype=float)[:, None, None]
    inv, inv2, b_inv2 = continued_sums
    continued = (inv - 2.0 * e * e * inv2) + 2j * e * b_inv2
    return continued, direct_sums[0] + 1j * direct_sums[1]


def kms_pointwise_identity(
    ctx: ThermalContext, u: float, x: float, y: float, epsilon: float
) -> tuple[complex, complex]:
    """The two closed forms at one point (x, y); they agree up to the
    regulator's placement, which is O(eps) near coincidence and negligible
    away from it."""
    continued, direct = _kms_inner_sums(
        ctx, [u], np.asarray([x], dtype=float), np.asarray([y], dtype=float),
        np.ones(1), [epsilon],
    )
    return complex(continued.flat[0]), complex(direct.flat[0])


@dataclass(frozen=True)
class KmsReport:
    """Thermal boundary check: the extrapolated smear of the difference of the
    two closed forms, largest over the u grid in absolute terms (deviation)
    and relative to the smear of the direct form at the same u (relative)."""

    deviation: float
    relative: float


def kms_boundary_check(
    ctx: ThermalContext,
    f: TestFunction,
    g: TestFunction,
    u_grid,
    epsilon: float,
) -> KmsReport:
    """Deviation between the continued and swapped two-point smears.

    Smears both closed forms against f(x) g(y) and returns the largest
    absolute value of their difference over the u grid, and the largest
    ratio of it to the direct form's smear.  Supports must lie in the
    positive half-line; the comparison is sharp when the flow image of
    supp g stays clear of supp f.  The regulator enters the two forms
    differently (additively in the bracket vs. inside the kernel argument),
    a discrepancy of O(eps) and O(eps^2) that vanishes in the boundary
    value; the smeared difference D is therefore taken at eps/4, eps/2 and
    eps and extrapolated to eps -> 0 as (8 D(eps/4) - 6 D(eps/2) + D(eps))/3,
    which cancels both orders and leaves an O(eps^3) residue.  Both forms
    are smeared at every regulator; the relative scale is the direct form's
    smear at the smallest one, eps/4.

    Composite Simpson on 101 nodes per axis: _kms_inner_sums takes g(y)
    and the Simpson weights over y into its weight vectors and leaves the
    inner sum of every x row; the outer sum over x, Simpson weights times
    f(x), runs once at the end.
    """
    if f.support[0] <= 0.0 or g.support[0] <= 0.0:
        raise DomainViolation("both supports must lie in the positive half-line")
    u_grid = np.atleast_1d(np.asarray(u_grid, dtype=float))
    if len(u_grid) == 0:
        raise ValueError("u grid must not be empty")
    n = 101  # Simpson nodes per axis
    x = np.linspace(f.support[0], f.support[1], n)
    y = np.linspace(g.support[0], g.support[1], n)
    wy = g(y) * _simpson_weights(n, y[1] - y[0])
    # inner sums per regulator (eps/4, eps/2, eps), u and x row
    epsilons = (epsilon / 4.0, epsilon / 2.0, epsilon)
    continued, direct = _kms_inner_sums(ctx, u_grid, x, y, wy, epsilons)
    wx = f(x) * _simpson_weights(n, x[1] - x[0])
    quarter, half, full = np.vecdot(wx, continued - direct)
    devs = np.abs(8.0 * quarter - 6.0 * half + full) / 3.0
    scales = np.abs(np.vecdot(wx, direct[0]))
    worst = worst_rel = 0.0
    for dev, scale in zip(devs, scales):
        worst = _worst(worst, dev)
        worst_rel = _worst(worst_rel, dev / scale if scale else math.inf)
    return KmsReport(deviation=float(worst), relative=float(worst_rel))


# ----------------------------------------------------------------------
# named suites
# ----------------------------------------------------------------------


@dataclass
class CaseResult:
    check: str
    params: dict
    lhs: float
    rhs: float
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = bool(self.lhs <= self.rhs)


def _case(check, params, value, tol) -> CaseResult:
    return CaseResult(check=check, params=params, lhs=float(value), rhs=float(tol))


def _worst(*values: float) -> float:
    """Largest value, or NaN if any is NaN: builtin max drops a NaN not in front."""
    return math.nan if any(map(math.isnan, values)) else max(values)


def _relative_deviation(left, right) -> float:
    """Largest of the (lam, tau) differences, each relative to max(1, |right|)."""
    return _worst(
        abs(left.lam - right.lam) / max(1.0, abs(right.lam)),
        abs(left.tau - right.tau) / max(1.0, abs(right.tau)),
    )


def _suite_group_laws(beta: float) -> list[CaseResult]:
    # the samples are drawn as arrays, the stream of one scalar draw per
    # parameter in the same order, and read back as floats
    cases = []
    draws = np.random.default_rng(1234).uniform((0.1, -4.0), (10.0, 4.0), size=(200, 3, 2))
    worst = 0.0
    for triple in draws.tolist():
        gs = [axb_group.GroupElement(lam, tau) for lam, tau in triple]
        left = axb_group.compose(axb_group.compose(gs[0], gs[1]), gs[2])
        right = axb_group.compose(gs[0], axb_group.compose(gs[1], gs[2]))
        worst = _worst(worst, _relative_deviation(left, right))
    cases.append(_case("associativity", {"samples": 200}, worst, 1e-12))

    worst = 0.0
    grid, rs = np.linspace(-2, 2, 10).tolist(), np.linspace(-1.5, 1.5, 10).tolist()
    for a in grid:
        for bb in grid:
            if a == 0 and bb == 0:
                continue
            pp = axb_group.SubgroupParams(a, bb)
            step = axb_group.subgroup_element(pp, 0.7)
            for r in rs:
                lhs = axb_group.compose(axb_group.subgroup_element(pp, r), step)
                rhs = axb_group.subgroup_element(pp, r + 0.7)
                worst = _worst(worst, _relative_deviation(lhs, rhs))
    cases.append(_case("subgroup-additivity", {"grid": "10x10x10"}, worst, 1e-12))

    worst = 0.0
    grid = np.linspace(-1, 1, 15).tolist()
    for u in grid:
        for s in grid:
            if math.exp(-TWO_PI * u) * math.expm1(-TWO_PI * s) <= -1.0:
                continue
            F = axb_group.exchange_exponent(u, s)
            lhs = axb_group.compose(
                axb_group.subgroup_element(axb_group.DILATION_PARAMS, u),
                axb_group.subgroup_element(axb_group.SHIFTED_DILATION_PARAMS, s),
            )
            rhs = axb_group.compose(
                axb_group.subgroup_element(axb_group.SHIFTED_DILATION_PARAMS, F),
                axb_group.subgroup_element(axb_group.DILATION_PARAMS, -F + s + u),
            )
            worst = _worst(worst, _relative_deviation(lhs, rhs))
    cases.append(_case("exchange-identity", {"grid": "15x15"}, worst, 1e-12))

    worst = 0.0
    for tau in np.linspace(-0.14, 0.14, 15).tolist():
        for branch in ("first", "second"):
            gg = axb_group.compose_decomposition(tau, branch)
            worst = _worst(worst, abs(gg.lam - 1.0), abs(gg.tau - tau))
    cases.append(_case("translation-decomposition", {"grid": 15}, worst, 1e-12))

    worst = 0.0
    draws = np.random.default_rng(99).uniform((-2, -2, -1, -3), (2, 2, 1, 3), size=(100, 4))
    for a, bb, r, tau in draws.tolist():
        pp = axb_group.SubgroupParams(a, bb)
        conj = axb_group.compose(
            axb_group.subgroup_element(pp, r),
            axb_group.compose(
                axb_group.GroupElement(1.0, tau), axb_group.subgroup_element(pp, -r)
            ),
        )
        expected = axb_group.conjugate_translation(pp, r, tau)
        worst = _worst(worst, abs(conj.lam - 1.0), abs(conj.tau - expected))
    cases.append(_case("translation-conjugation", {"samples": 100}, worst, 1e-12))
    return cases


def _suite_flows(beta: float) -> list[CaseResult]:
    ctx = ThermalContext(beta=beta)
    cases = []
    x_pos = np.linspace(0.05 * beta, 6.0 * beta, 120)

    worst = 0.0
    for d in (RayDirection.PLUS, RayDirection.MINUS):
        xs = x_pos if d is RayDirection.PLUS else -x_pos
        for u1, u2 in ((0.3, 0.5), (-0.2, 0.6), (0.9, -0.1)):
            a = modular_flow_ray(ctx, d, u1, modular_flow_ray(ctx, d, u2, xs))
            bb = modular_flow_ray(ctx, d, u1 + u2, xs)
            worst = _worst(worst, float(np.max(np.abs(a - bb))))
        for t1, t2 in ((0.2, 0.5), (0.8, 0.1)):
            tt1, tt2 = (t1, t2) if d is RayDirection.PLUS else (-t1, -t2)
            a = gamma_flow_ray(ctx, d, tt1, gamma_flow_ray(ctx, d, tt2, xs))
            bb = gamma_flow_ray(ctx, d, tt1 + tt2, xs)
            worst = _worst(worst, float(np.max(np.abs(a - bb))))
    cases.append(_case("flow-group-laws", {"beta": beta}, worst, 1e-12))

    worst = 0.0
    for d in (RayDirection.PLUS, RayDirection.MINUS):
        xs = x_pos if d is RayDirection.PLUS else -x_pos
        back = modular_flow_ray(ctx, d, -0.4, modular_flow_ray(ctx, d, 0.4, xs))
        worst = _worst(worst, float(np.max(np.abs(back - xs))))
        tt = 0.3 if d is RayDirection.PLUS else -0.3
        back = gamma_flow_ray(ctx, d, -tt, gamma_flow_ray(ctx, d, tt, xs))
        worst = _worst(worst, float(np.max(np.abs(back - xs))))
    cases.append(_case("flow-inverses", {"beta": beta}, worst, 1e-12))

    # in the plus chart the modular flow scales and the positive-generator flow shifts
    u, tau = 0.45, 0.35
    xi = xi_chart(ctx, RayDirection.PLUS, x_pos)
    worst = 0.0
    for a, moved in (
        (modular_flow_ray(ctx, RayDirection.PLUS, u, x_pos), math.exp(-TWO_PI * u) * xi),
        (gamma_flow_ray(ctx, RayDirection.PLUS, tau, x_pos), xi + tau),
    ):
        worst = _worst(worst, float(np.max(np.abs(a - xi_inverse(ctx, RayDirection.PLUS, moved)))))
    cases.append(_case("chart-conjugacy", {"beta": beta}, worst, 1e-12))

    worst = 0.0
    grid = np.linspace(0.01 * beta, 5.0 * beta, 150)
    for u in (-0.5, 0.3, 0.9):
        for t in (0.1 * beta, 0.7 * beta, 2.0 * beta):
            worst = _worst(worst, check_translation_commutation(ctx, u, t, grid))
    cases.append(_case("translation-commutation", {"beta": beta}, worst, 1e-10))

    # translation covariance of the positive-generator flow as a point map
    worst = 0.0
    for tau in (0.1 * beta, 0.4 * beta):
        for t in (-0.5 * beta, 0.3 * beta):
            lhs = (
                gamma_flow_ray(ctx, RayDirection.PLUS, tau, grid - t) + t
            )
            rhs = gamma_flow_ray(
                ctx, RayDirection.PLUS, math.exp(TWO_PI * t / beta) * tau, grid
            )
            worst = _worst(worst, float(np.max(np.abs(lhs - rhs))))
    cases.append(_case("gamma-translation-covariance", {"beta": beta}, worst, 1e-10))

    worst = 0.0
    u = np.array([-0.1, 0.3, 1.0])
    scale = np.array([math.exp(-TWO_PI * v) for v in u.tolist()])
    for x in (0.5, -0.25, 3.0):
        got = modular_flow_ray(ThermalContext(beta=1e6 * abs(x)), RayDirection.PLUS, u, x)
        worst = _worst(worst, *(np.abs(got - scale * x) / abs(x)).tolist())
    cases.append(_case("vacuum-limit", {"beta_over_x": 1e6}, worst, 1e-5))

    tau_full = beta / TWO_PI
    xs = np.linspace(-40.0 * beta, 40.0 * beta, 801)
    img = gamma_flow_ray(ctx, RayDirection.PLUS, tau_full, xs)
    ok = float(np.min(img)) >= 0.0 and bool(np.all(np.diff(img) > 0))
    edge = gamma_flow_ray(ctx, RayDirection.PLUS, tau_full, -1e6 * beta)
    cases.append(
        _case(
            "half-line-image",
            {"tau": tau_full},
            0.0 if (ok and edge >= 0.0 and img[-1] > 30 * beta) else 1.0,
            0.5,
        )
    )
    return cases


def _suite_geometry(beta: float) -> list[CaseResult]:
    ctx = ThermalContext(beta=beta)
    cases = []
    cone, wedge = Region.FORWARD_CONE, Region.RIGHT_WEDGE
    pts = {
        cone: [
            SpacetimePoint(0.8 * beta, 0.3 * beta),
            SpacetimePoint(1.5 * beta, -0.9 * beta),
            SpacetimePoint(0.07 * beta, 0.02 * beta),
        ],
        wedge: [
            SpacetimePoint(0.3 * beta, 0.8 * beta),
            SpacetimePoint(-0.9 * beta, 1.5 * beta),
            SpacetimePoint(0.02 * beta, 0.07 * beta),
        ],
    }

    # one flow call per region and point over each case's u row; numpy's
    # arithmetic is elementwise IEEE, so every entry is the scalar call's
    worst = 0.0
    u = np.array([-0.7, 0.2, 1.1])
    for region, plist in pts.items():
        for p in plist:
            r0, r1 = cone_wedge.remainder_terms(ctx, region, u, p)
            q = cone_wedge.modular_flow_2d(ctx, region, u, p)
            worst = _worst(worst, *np.abs(q.x0 - (p.x0 - beta * u + r0)).tolist(),
                           *np.abs(q.x1 - (p.x1 + r1)).tolist())
    cases.append(_case("remainder-reconstruction", {"beta": beta}, worst, 1e-12))

    deep = SpacetimePoint.from_lightcone(9.0 * beta, 12.0 * beta)
    u = np.array([-1.0, 0.5, 1.0])
    q = cone_wedge.modular_flow_2d(ctx, cone, u, deep)
    worst = _worst(0.0, *(np.abs(q.x0 - (deep.x0 - beta * u)) / beta).tolist(),
                   *(np.abs(q.x1 - deep.x1) / beta).tolist())
    cases.append(_case("deep-interior-translation", {"depth": "8 beta"}, worst, 1e-6))

    worst = 0.0
    u = np.array([-0.1, 0.1, 1.5])
    lam = np.array([math.exp(-TWO_PI * v) for v in u.tolist()])
    for p in (
        SpacetimePoint(1e-3 * beta, 2e-4 * beta),
        SpacetimePoint(5e-4 * beta, -3e-4 * beta),
    ):
        q = cone_wedge.modular_flow_2d(ctx, cone, u, p)
        scale = max(abs(p.x0), abs(p.x1))
        worst = _worst(worst, *(np.abs(q.x0 - lam * p.x0) / scale).tolist(),
                       *(np.abs(q.x1 - lam * p.x1) / scale).tolist())
    cases.append(_case("near-apex-dilation", {"x_over_beta": 1e-3}, worst, 1e-2))

    worst = 0.0
    u = np.array([-0.1, 0.1])
    shrink = np.array([math.exp(-TWO_PI * v) for v in u.tolist()])
    grow = np.array([math.exp(TWO_PI * v) for v in u.tolist()])
    for p in (
        SpacetimePoint(2e-4 * beta, 8e-4 * beta),
        SpacetimePoint(-3e-4 * beta, 6e-4 * beta),
    ):
        q = cone_wedge.modular_flow_2d(ctx, wedge, u, p)
        scale = max(abs(p.xR), abs(p.xL))
        worst = _worst(worst, *(np.abs(q.xR - shrink * p.xR) / scale).tolist(),
                       *(np.abs(q.xL - grow * p.xL) / scale).tolist())
    cases.append(_case("near-edge-boost", {"x_over_beta": 1e-3}, worst, 1e-2))

    worst = 0.0
    h = 1e-4 * beta / TWO_PI
    grid = np.linspace(-1.4 * beta, 1.4 * beta, 9).tolist()
    for region in (cone, wedge):
        pts = []
        for a in grid:
            for bb in grid:
                if region is cone:
                    p = SpacetimePoint(abs(a) + abs(bb) + 0.05 * beta, a)
                else:
                    p = SpacetimePoint(a, abs(a) + abs(bb) + 0.05 * beta)
                if max(abs(p.xR), abs(p.xL)) > 1.5 * beta:
                    continue
                pts.append(p)
        # all points in one call per sign of h, as a point of coordinate
        # arrays: the ray maps take the scalar h against a point array
        grid_pt = SpacetimePoint(*np.array([(p.x0, p.x1) for p in pts]).T)
        qp = cone_wedge.gamma_flow_2d(ctx, region, h, grid_pt)
        qm = cone_wedge.gamma_flow_2d(ctx, region, -h, grid_pt)
        v_num = ((qp.x1 - qm.x1) / (qp.x0 - qm.x0)).tolist()
        worst = _worst(
            worst,
            *(abs(v - cone_wedge.velocity_field(ctx, region, p)) for v, p in zip(v_num, pts)),
        )
    cases.append(_case("velocity-consistency", {"span": "3 beta"}, worst, 1e-6))

    # the integration constant the figures are drawn from, read at every
    # point of a flow line traced by the flow maps
    worst = 0.0
    for region, seed, span, n in (
        (cone, SpacetimePoint(0.8 * beta, 0.3 * beta), (-0.05 * beta, 4.0 * beta), 101),
        (wedge, SpacetimePoint(0.0, 0.5 * beta), (-0.08 * beta, 0.08 * beta), 61),
    ):
        ln = cone_wedge.flow_line(ctx, region, "gamma", seed, span, n)
        consts = [
            cone_wedge.gamma_line_constant(ctx, region, SpacetimePoint(*p))
            for p in ln.points.tolist()
        ]
        worst = _worst(worst, *(abs(c - consts[0]) for c in consts))
    cases.append(_case("closed-form-flow-lines", {"beta": beta}, worst, 1e-8))
    return cases


def _suite_kernels(beta: float) -> list[CaseResult]:
    ctx = ThermalContext(beta=beta)
    spec = FieldSpec(0)
    cases = []

    rng = np.random.default_rng(7)
    p = rng.uniform(-40 / beta, 40 / beta, 300)
    lhs = two_point_momentum(ctx, spec, -p)
    rhs = np.exp(-beta * p) * two_point_momentum(ctx, spec, p)
    dev = float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)))
    cases.append(_case("momentum-kms-identity", {"samples": 300}, dev, 1e-14))

    def bumps(seed, count):
        r = np.random.default_rng(seed)
        out = []
        for _ in range(count):
            w = r.uniform(0.25, 0.5) * beta
            m = r.uniform(-1.5 * beta + w, 2.5 * beta - w)
            out.append(TestFunction.bump(m, w, amplitude=r.uniform(0.4, 1.2)))
        return out

    worst = 0.0
    fs = bumps(21, 6)
    for i in range(0, 6, 2):
        f, g = fs[i], fs[i + 1]
        lhs = omega2(ctx, spec, f, g) - omega2(ctx, spec, g, f)
        rhs = symplectic_K(ctx, spec, f, g)
        worst = _worst(worst, abs(lhs - rhs))
    cases.append(_case("commutator-identity", {"pairs": 3}, worst, 1e-10))

    eps = 1e-3 * beta
    pairs = [
        (TestFunction.bump(0.7 * beta, 0.4 * beta), TestFunction.bump(1.4 * beta, 0.4 * beta)),
        (TestFunction.bump(0.5 * beta, 0.3 * beta), TestFunction.bump(0.9 * beta, 0.35 * beta)),
        (TestFunction.bump(1.1 * beta, 0.35 * beta), TestFunction.bump(1.2 * beta, 0.45 * beta)),
    ]
    cal = calibrate_fourier_pair(ctx, pairs, eps)
    cases.append(
        _case(
            "fourier-pair-calibration",
            {"epsilon": eps, "constant_re": cal.constant.real},
            cal.max_relative_deviation,
            1e-4,
        )
    )

    fs = bumps(33, 8)
    norm = StateNormalization()
    # eigvalsh reads the lower triangle only (UPLO="L")
    G = np.zeros((8, 8), dtype=complex)
    for i, fi in enumerate(fs):
        for j in range(i + 1):
            G[i, j] = weyl_inner(ctx, spec, norm, fi, fs[j])
    min_eig = float(np.linalg.eigvalsh(G).min())
    cases.append(_case("gram-positivity", {"vectors": 8}, -min_eig, 1e-8))
    return cases


def _lattice_integral(samples: np.ndarray, dx: float) -> float:
    """Simpson sum of samples on their lattice, over its longest odd prefix:
    at most a last sample, 0 for the suite's functions, is left out."""
    n = len(samples) - 1 + len(samples) % 2
    return float(np.vecdot(_simpson_weights(n, dx), samples[:n]))


def _suite_modular_action(beta: float) -> list[CaseResult]:
    """The actions on smearing functions: group laws, omega2 and K invariance,
    the thermal boundary identity, supports, integrals and the n = 1
    localization defect against closed forms, conjugation by translations."""
    ctx = ThermalContext(beta=beta)
    spec = FieldSpec(0)
    cases = []
    f = TestFunction.bump(1.2 * beta, 0.5 * beta)
    g = TestFunction.bump(0.6 * beta, 0.25 * beta)

    a = modular_transform(ctx, 0.3, modular_transform(ctx, 0.45, f))
    bb = modular_transform(ctx, 0.75, f)
    cases.append(
        _case("modular-group-law", {"u": (0.3, 0.45)}, _sup_norm_difference(a, bb), 1e-8)
    )

    a = gamma_transform(ctx, 0.2 * beta, gamma_transform(ctx, 0.7 * beta, f))
    bb = gamma_transform(ctx, 0.9 * beta, f)
    cases.append(
        _case("gamma-additivity", {"tau": (0.2, 0.7)}, _sup_norm_difference(a, bb), 1e-8)
    )

    o_fg, k_fg = omega2(ctx, spec, f, g), symplectic_K(ctx, spec, f, g)
    worst_o = worst_k = 0.0
    for u in (-0.4, 0.25):
        df, dg = modular_transform(ctx, u, f), modular_transform(ctx, u, g)
        worst_o = _worst(worst_o, abs(omega2(ctx, spec, df, dg) - o_fg))
        worst_k = _worst(worst_k, abs(symplectic_K(ctx, spec, df, dg) - k_fg))
    cases.append(_case("two-point-invariance", {"u": (-0.4, 0.25)}, worst_o, 1e-6))
    cases.append(_case("symplectic-invariance", {"u": (-0.4, 0.25)}, worst_k, 1e-6))

    dev = kms_boundary_check(
        ctx,
        TestFunction.bump(0.5 * beta, 0.3 * beta),
        TestFunction.bump(1.85 * beta, 0.35 * beta),
        np.linspace(-0.5, 0.5, 7),
        epsilon=1e-4 * beta,
    )
    # relative to the direct form's smear: 7.4e-12 at every beta, the O(eps^3)
    # residue of the three-regulator extrapolation, while a direct form off by
    # a factor 1 + 1e-7 reads 1e-7; the gate is about 100 times the floor
    cases.append(
        _case("kms-boundary-identity", {"epsilon": 1e-4 * beta}, dev.relative, 1e-9)
    )

    # supports move to the flow images phi_u = b log(1 + e^{-2pi u}(E - 1))
    # and psi_tau = b log(E + tau/b) of their edges, b = beta/2pi, E = e^{x/b},
    # and integrals pick up the jacobian: int delta_u f = int f phi_u', ...
    b = beta / TWO_PI
    e, ends = np.exp(f.x / b), np.exp(np.asarray(f.support) / b)
    pulled = [(modular_transform(ctx, u, f), _modular_jacobian(u, e),
               b * np.log(1.0 + math.exp(-TWO_PI * u) * (ends - 1.0))) for u in (-0.3, 0.5)]
    pulled += [(gamma_transform(ctx, t * beta, f), e / (e + TWO_PI * t),
                b * np.log(ends + TWO_PI * t)) for t in (0.2, 0.8)]
    worst = 0.0
    for h, jac, edges in pulled:
        want = _lattice_integral(f.samples * jac, f.dx)
        off = np.abs(np.subtract(h.support, edges)) / beta
        worst = _worst(worst, abs(_lattice_integral(h.samples, h.dx) - want) / abs(want), *off)
    params = {"n": 0, "u": (-0.3, 0.5), "tau": (0.2, 0.8)}
    cases.append(_case("pull-back-integral", params, worst, 1e-10))

    # n = 1: d1 = int f' phi_u' = -int f phi_u'', nonzero for u != 0: the
    # action leaves no bounded localization region
    d1 = localization_defect(ctx, 1, 0.2, f, (0.0, 50.0 * beta))
    jac = _modular_jacobian(0.2, e)
    exact = -_lattice_integral(f.samples * jac * (1.0 - jac) / b, f.dx)
    params = {"n": 1, "u": 0.2, "d1": d1, "closed_form": exact}
    cases.append(_case("localization-defect", params, abs(d1 - exact) / abs(exact), 2e-7))

    worst = 0.0
    for u in (-0.25, 0.25):
        for t in (0.3 * beta, 0.8 * beta):
            worst = _worst(worst, translation_conjugation_deviation(ctx, f, u, t))
    cases.append(_case("translation-conjugation-smeared", {}, worst, 1e-8))

    worst = 0.0
    for tau in (0.1 * beta, 0.3 * beta):
        for t in (-0.4 * beta, 0.5 * beta):
            worst = _worst(worst, gamma_conjugation_deviation(ctx, f, tau, t))
    cases.append(_case("gamma-conjugation-smeared", {}, worst, 1e-8))
    return cases


def _suite_bound(beta: float) -> list[CaseResult]:
    ctx = ThermalContext(beta=beta)
    spec = FieldSpec(0)
    f = TestFunction.bump(0.5 * beta, 0.5 * beta).translate(0.02 * beta)
    g = TestFunction.bump(-1.5 * beta, 0.5 * beta)
    cases = []
    worst_margin = math.inf
    worst_at = None
    ts = np.linspace(0.5 * beta, 6.0 * beta, 12)
    for u in np.linspace(-1.0, 1.0, 21):
        rep = matrix_element_bound(ctx, spec, f, g, float(u), ts)
        for t, margin in zip(ts, rep.margin):
            # a NaN margin is kept as the worst (NaN fails every comparison)
            if not margin >= worst_margin and not math.isnan(worst_margin):
                worst_margin = float(margin)
                worst_at = (float(u), float(t))
    cases.append(
        _case(
            "matrix-element-bound",
            {"grid": "21x12", "worst_at": worst_at, "M": 1.0},
            -worst_margin,
            1e-9,
        )
    )
    return cases


def _suite_rates(beta: float) -> list[CaseResult]:
    ctx = ThermalContext(beta=beta)
    spec = FieldSpec(0)
    cases = []
    shapes = [
        TestFunction.bump(0.5 * beta, 0.45 * beta).translate(0.06 * beta),
        TestFunction.bump(0.6 * beta, 0.25 * beta),
        TestFunction.bump(1.0 * beta, 0.8 * beta).translate(0.05 * beta),
    ]
    t_list = [3.0 * beta, 4.0 * beta, 5.0 * beta, 6.0 * beta]
    for i, f in enumerate(shapes):
        rep = convergence_rate(ctx, spec, f, 0.3, t_list)
        cases.append(
            _case(
                "decay-rate",
                {"shape": i, "slope": rep.fitted_slope, "expected": rep.expected_slope},
                rep.slope_relative_error,
                0.05,
            )
        )
        mono = all(
            rep.deviations[i + 1] < rep.deviations[i]
            for i in range(len(rep.deviations) - 1)
        )
        cases.append(_case("deviation-monotone", {"shape": i}, 0.0 if mono else 1.0, 0.5))
    return cases


SUITES = {
    "group-laws": _suite_group_laws,
    "flows": lambda beta: _suite_flows(beta) + _suite_geometry(beta),
    "kernels": _suite_kernels,
    "kms": _suite_modular_action,
    "thm22": _suite_bound,
    "rates": _suite_rates,
}


def run_suite(name: str, beta: float = 1.0) -> list[CaseResult]:
    """Run one named suite (or "all"); returns the per-case results."""
    if name == "all":
        out = []
        for key in SUITES:
            out.extend(SUITES[key](beta))
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](beta)


def report_json(cases: list[CaseResult]) -> str:
    doc = [
        {
            "check": c.check,
            "params": c.params,
            "lhs": c.lhs,
            "rhs": c.rhs,
            "pass": c.passed,
        }
        for c in cases
    ]
    return json.dumps(doc, indent=1, default=float) + "\n"
