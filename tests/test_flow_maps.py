"""Flow-map tests.

The independent oracle throughout is the literal logarithmic form of the
flows (evaluated naively), plus the chart algebra: modular flow must be pure
scaling and the positive-generator flow pure translation of xi.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modularflow import flow_maps
from modularflow.errors import DomainViolation
from modularflow.flow_maps import (
    RayDirection,
    ThermalContext,
    check_translation_commutation,
    gamma_flow_ray,
    modular_flow_ray,
    xi_chart,
    xi_inverse,
)

TWO_PI = 2.0 * math.pi
PLUS, MINUS = RayDirection.PLUS, RayDirection.MINUS


def phi_plus_literal(beta, u, x):
    return (beta / TWO_PI) * np.log(
        1.0 + np.exp(-TWO_PI * u) * (np.exp(TWO_PI * x / beta) - 1.0)
    )


def psi_plus_literal(beta, tau, x):
    return x + (beta / TWO_PI) * np.log(
        1.0 + (TWO_PI * tau / beta) * np.exp(-TWO_PI * x / beta)
    )


class TestContext:
    def test_defaults(self):
        ctx = ThermalContext()
        assert ctx.beta == 1.0
        assert ctx.pmax == 200.0
        assert ctx.npts == 8192

    def test_pmax_scales_with_beta(self):
        assert ThermalContext(beta=4.0).pmax == 50.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ThermalContext(beta=-1.0)
        with pytest.raises(ValueError):
            ThermalContext(npts=8)

    def test_pmax_finite_and_npts_integer(self):
        # pmax = inf made omega2 say "p must be finite, got p=nan", and a
        # float npts failed later with a TypeError in the grid
        with pytest.raises(ValueError, match="pmax must be finite, got inf"):
            ThermalContext(pmax=math.inf)
        for npts in (100.5, 8192.0, math.nan):
            with pytest.raises(ValueError, match="npts must be an integer"):
                ThermalContext(npts=npts)
        assert ThermalContext(npts=np.int64(1024)).npts == 1024

    def test_infinite_beta_allowed(self):
        ctx = ThermalContext(beta=math.inf)
        assert not ctx.finite


class TestXiChart:
    def test_zero_both_directions(self):
        ctx = ThermalContext(beta=0.7)
        assert xi_chart(ctx, PLUS, 0.0) == 0.0
        assert xi_chart(ctx, MINUS, 0.0) == 0.0

    def test_plus_example(self):
        ctx = ThermalContext(beta=TWO_PI)
        assert abs(xi_chart(ctx, PLUS, math.log(3.0)) - 2.0) < 1e-14

    def test_minus_example(self):
        ctx = ThermalContext(beta=TWO_PI)
        assert abs(xi_chart(ctx, MINUS, -math.log(2.0)) - (-1.0)) < 1e-14

    def test_inverse_roundtrip(self):
        ctx = ThermalContext(beta=1.3)
        x = np.linspace(-4, 4, 101)
        for d in (PLUS, MINUS):
            xi = xi_chart(ctx, d, x)
            np.testing.assert_allclose(xi_inverse(ctx, d, xi), x, atol=1e-12)
            np.testing.assert_allclose(
                xi_chart(ctx, d, xi_inverse(ctx, d, xi)), xi, atol=1e-12
            )

    def test_inverse_example(self):
        ctx = ThermalContext(beta=TWO_PI)
        assert abs(xi_inverse(ctx, PLUS, 1.0) - math.log(2.0)) < 1e-14

    def test_boundary_excluded(self):
        ctx = ThermalContext(beta=TWO_PI)
        with pytest.raises(DomainViolation):
            xi_inverse(ctx, PLUS, -ctx.beta / TWO_PI)
        with pytest.raises(DomainViolation):
            xi_inverse(ctx, MINUS, ctx.beta / TWO_PI)

    def test_monotone_and_range(self):
        # strict monotonicity where adjacent chart values are still resolvable
        # in float64 (the chart saturates at its asymptote below e^{-36})
        ctx = ThermalContext(beta=2.2)
        x = np.linspace(-10, 10, 301)
        xp = xi_chart(ctx, PLUS, x)
        xm = xi_chart(ctx, MINUS, x)
        assert np.all(np.diff(xp) > 0)
        assert np.all(np.diff(xm) > 0)
        assert np.all(xp > -ctx.beta / TWO_PI)
        assert np.all(xm < ctx.beta / TWO_PI)

    def test_charts_glue_to_first_order_at_zero(self):
        # both charts are tangent to the identity at 0, so the plus chart on
        # x >= 0 and the minus chart on x < 0 glue to a C^1 chart; their
        # second derivatives there are +-2pi/beta
        ctx = ThermalContext(beta=1.9)
        h = 1e-4
        for d, s in ((PLUS, 1.0), (MINUS, -1.0)):
            f = lambda x: xi_chart(ctx, d, x)
            assert abs((f(h) - f(-h)) / (2 * h) - 1.0) < 1e-7
            second = (f(h) - 2 * f(0.0) + f(-h)) / h**2
            assert abs(second - s * TWO_PI / ctx.beta) < 1e-5

    def test_requires_finite_beta(self):
        with pytest.raises(DomainViolation):
            xi_chart(ThermalContext(beta=math.inf), PLUS, 1.0)

    def test_image_beyond_the_float_range_raises(self):
        # expm1 overflowed with a RuntimeWarning, and returned inf without
        # warnings as errors; a scalar and an array entry name the point
        ctx = ThermalContext(beta=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d, x in ((PLUS, 200.0), (MINUS, -200.0), (PLUS, np.array([1.0, 1e308]))):
                with pytest.raises(DomainViolation, match=r"leaves the float range, got x=-?(200|1e\+308)"):
                    xi_chart(ctx, d, x)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_raises(self, x):
        # a NaN point returned NaN, and xi_inverse(inf) returned inf
        ctx = ThermalContext(beta=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d in (PLUS, MINUS):
                with pytest.raises(DomainViolation, match=f"x must be finite, got x={x}"):
                    xi_chart(ctx, d, x)
                with pytest.raises(DomainViolation, match=f"xi must be finite, got xi={x}"):
                    xi_inverse(ctx, d, np.array([0.0, x]))

    def test_inverse_past_the_float_range_of_its_ratio(self):
        # at beta = 1, xi/b overflows for xi above 2.9e307: the inverse is
        # b log(xi/b) there, finite, where log1p(inf) read inf with a warning
        ctx = ThermalContext(beta=1.0)
        b = 1.0 / TWO_PI
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for xi in (1e308, 1.7e308):
                want = b * (math.log(xi) - math.log(b))
                assert xi_inverse(ctx, PLUS, xi) == pytest.approx(want, rel=1e-15)
                assert xi_inverse(ctx, MINUS, -xi) == pytest.approx(-want, rel=1e-15)
            # the chart of the image is back near xi
            assert xi_chart(ctx, PLUS, xi_inverse(ctx, PLUS, 1e300)) == pytest.approx(1e300, rel=1e-12)


class TestModularFlow:
    def test_u_zero_identity(self):
        ctx = ThermalContext(beta=0.9)
        x = np.linspace(-3, 3, 41)
        np.testing.assert_array_equal(modular_flow_ray(ctx, PLUS, 0.0, x), x)

    def test_origin_fixed(self):
        ctx = ThermalContext(beta=1.7)
        for u in (-2.0, -0.3, 0.4, 3.0):
            assert abs(modular_flow_ray(ctx, PLUS, u, 0.0)) < 1e-13

    def test_chart_oracle_example(self):
        # beta = 2 pi, e^{-2 pi u} = 0.5: xi = 2 at x = ln 3 scales to 1, x' = ln 2
        ctx = ThermalContext(beta=TWO_PI)
        u = math.log(2.0) / TWO_PI
        got = modular_flow_ray(ctx, PLUS, u, math.log(3.0))
        assert abs(got - math.log(2.0)) < 1e-14

    def test_matches_literal_formula(self):
        ctx = ThermalContext(beta=0.8)
        x = np.linspace(0.01, 5.0, 200)
        for u in (-1.0, -0.2, 0.0, 0.5, 2.0):
            np.testing.assert_allclose(
                modular_flow_ray(ctx, PLUS, u, x),
                phi_plus_literal(ctx.beta, u, x),
                atol=1e-12,
            )

    def test_matches_chart_conjugation(self):
        ctx = ThermalContext(beta=1.9)
        x = np.linspace(-1.0, 4.0, 100)
        u = 0.37
        expected = xi_inverse(
            ctx, PLUS, math.exp(-TWO_PI * u) * xi_chart(ctx, PLUS, x)
        )
        np.testing.assert_allclose(
            modular_flow_ray(ctx, PLUS, u, x), expected, atol=1e-12
        )

    def test_minus_reflection(self):
        # u > 0 on the minus ray: domain is x < (beta/2pi) |log(1 - e^{-2pi u})|
        ctx = ThermalContext(beta=1.1)
        x = np.linspace(-5.0, -0.05, 50)
        u = 0.6
        got = modular_flow_ray(ctx, MINUS, u, x)
        expected = -modular_flow_ray(ctx, PLUS, -u, -x)
        np.testing.assert_allclose(got, expected, atol=0)
        # minus chart scales by e^{+2 pi u}
        xi = xi_chart(ctx, MINUS, x)
        np.testing.assert_allclose(
            xi_chart(ctx, MINUS, got), math.exp(TWO_PI * u) * xi, rtol=1e-12
        )

    def test_group_law_and_inverse(self):
        ctx = ThermalContext(beta=1.4)
        x = np.linspace(0.05, 6.0, 80)
        for d in (PLUS, MINUS):
            xs = x if d is PLUS else -x
            a = modular_flow_ray(ctx, d, 0.3, modular_flow_ray(ctx, d, 0.45, xs))
            b = modular_flow_ray(ctx, d, 0.75, xs)
            np.testing.assert_allclose(a, b, atol=1e-12)
            back = modular_flow_ray(ctx, d, -0.3, modular_flow_ray(ctx, d, 0.3, xs))
            np.testing.assert_allclose(back, xs, atol=1e-12)

    def test_monotone_in_x(self):
        ctx = ThermalContext(beta=2.0)
        x = np.linspace(-1.0, 8.0, 400)
        assert np.all(np.diff(modular_flow_ray(ctx, PLUS, 0.8, x)) > 0)

    def test_support_stability(self):
        # u >= 0 and tau >= 0 both map (0, inf) into (0, inf)
        ctx = ThermalContext(beta=0.6)
        x = np.linspace(1e-6, 20.0, 100)
        for u in (0.0, 0.1, 1.0, 10.0):
            assert np.all(modular_flow_ray(ctx, PLUS, u, x) > 0)
        for tau in (0.0, 0.2, 5.0):
            assert np.all(gamma_flow_ray(ctx, PLUS, tau, x) > 0)

    def test_attractor_at_origin(self):
        # every point flows to the origin once u exceeds x/beta by a few units
        ctx = ThermalContext(beta=1.0)
        for x in (0.3, 2.0, 50.0):
            prev = abs(modular_flow_ray(ctx, PLUS, x + 5.0, x))
            got = abs(modular_flow_ray(ctx, PLUS, x + 20.0, x))
            assert got < prev
            assert got < 1e-10

    def test_vacuum_limit(self):
        # relative error below 1e-5 at beta = 1e6 |x|; the deviation from a
        # pure dilation is ~ (pi x / beta) |e^{-2pi u} - 1|, so u is kept in a
        # range where that prefactor is O(1)
        for x in (0.5, -0.25, 3.0):
            ctx = ThermalContext(beta=1e6 * abs(x))
            for u in (-0.1, 0.3, 1.0):
                exact = math.exp(-TWO_PI * u) * x
                got = modular_flow_ray(ctx, PLUS, u, x)
                assert abs(got - exact) / abs(x) < 1e-5

    def test_beta_inf_is_dilation(self):
        # vacuum wedge action: the two light-cone directions scale oppositely
        # (a boost), consistent with the finite-beta reflection identity
        ctx = ThermalContext(beta=math.inf)
        x = np.linspace(-2, 2, 11)
        np.testing.assert_allclose(
            modular_flow_ray(ctx, PLUS, 0.25, x), math.exp(-TWO_PI * 0.25) * x
        )
        np.testing.assert_allclose(
            modular_flow_ray(ctx, MINUS, 0.25, x), math.exp(TWO_PI * 0.25) * x
        )
        big = ThermalContext(beta=1e9)
        np.testing.assert_allclose(
            modular_flow_ray(big, MINUS, 0.25, -1.0),
            math.exp(TWO_PI * 0.25) * -1.0,
            rtol=1e-6,
        )

    def test_domain_violation(self):
        ctx = ThermalContext(beta=1.0)
        with pytest.raises(DomainViolation):
            modular_flow_ray(ctx, PLUS, -1.0, -0.5)
        with pytest.raises(DomainViolation):
            modular_flow_ray(ctx, MINUS, 1.0, 0.5)

    @pytest.mark.parametrize("u", [-111.0, -112.0, -200.0])
    def test_translation_dominated_branch(self, u):
        # x/b - 2 pi u > 700 selects the translation-dominated form; with
        # e^{-2 pi u} factored out of the logarithm the literal formula is
        # -u + log(e^{2 pi x} - 1 + e^{2 pi u})/(2 pi) at beta = 1, and
        # e^{2 pi u} is far below the rounding of e^{2 pi x} - 1
        ctx = ThermalContext(beta=1.0)
        x = 0.5
        expected = -u + math.log(math.expm1(TWO_PI * x)) / TWO_PI
        got = modular_flow_ray(ctx, PLUS, u, x)
        assert math.isfinite(got)
        assert got == pytest.approx(expected, rel=1e-15)
        with pytest.raises(DomainViolation):
            modular_flow_ray(ctx, PLUS, u, -0.5)

    @pytest.mark.parametrize("direction,u,x", [(PLUS, -300.0, -120.0), (MINUS, 300.0, 120.0)])
    def test_overflowing_branch_raises_without_warning(self, direction, u, x):
        # e^{-x/b} overflows on the translation-dominated branch here; the
        # domain violation is the only thing that may come out
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainViolation):
                modular_flow_ray(ThermalContext(beta=1.0), direction, u, x)

    def test_minus_message_names_callers_arguments(self):
        ctx = ThermalContext(beta=1.0)
        with pytest.raises(DomainViolation) as err:
            modular_flow_ray(ctx, MINUS, 300.0, 120.0)
        msg = str(err.value)
        assert "needs x < 0.0 at u=300.0, got x=120.0" in msg
        assert "e^{2 pi u}(e^{-2 pi x/beta} - 1)" in msg
        # the stated upper bound is where the MINUS map stops being defined
        ceiling = -math.log(-math.expm1(-TWO_PI)) / TWO_PI
        with pytest.raises(DomainViolation) as err:
            modular_flow_ray(ctx, MINUS, 1.0, 0.5)
        assert f"needs x < {ceiling} at u=1.0, got x=0.5" in str(err.value)
        assert math.isfinite(modular_flow_ray(ctx, MINUS, 1.0, ceiling - 1e-6))
        with pytest.raises(DomainViolation):
            modular_flow_ray(ctx, MINUS, 1.0, ceiling + 1e-6)

    @pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_rejected(self, u):
        with pytest.raises(DomainViolation):
            modular_flow_ray(ThermalContext(beta=1.0), PLUS, u, 0.5)
        with pytest.raises(DomainViolation):
            modular_flow_ray(ThermalContext(beta=math.inf), MINUS, u, -0.5)


class TestGammaFlow:
    def test_tau_zero_identity(self):
        ctx = ThermalContext(beta=1.2)
        x = np.linspace(-3, 3, 17)
        np.testing.assert_array_equal(gamma_flow_ray(ctx, PLUS, 0.0, x), x)

    def test_chart_oracle_example(self):
        ctx = ThermalContext(beta=TWO_PI)
        got = gamma_flow_ray(ctx, PLUS, 1.0, 0.0)
        assert abs(got - math.log(2.0)) < 1e-14

    def test_matches_literal_formula(self):
        ctx = ThermalContext(beta=1.6)
        x = np.linspace(-1.0, 4.0, 150)
        for tau in (0.05, 0.7, 3.0):
            np.testing.assert_allclose(
                gamma_flow_ray(ctx, PLUS, tau, x),
                psi_plus_literal(ctx.beta, tau, x),
                atol=1e-12,
            )

    def test_matches_chart_translation(self):
        ctx = ThermalContext(beta=0.9)
        x = np.linspace(-0.5, 3.0, 70)
        tau = 0.41
        expected = xi_inverse(ctx, PLUS, xi_chart(ctx, PLUS, x) + tau)
        np.testing.assert_allclose(gamma_flow_ray(ctx, PLUS, tau, x), expected, atol=1e-12)

    def test_half_line_onto_positive_axis(self):
        # at tau = beta/(2 pi) the whole line lands in (0, inf); far-left
        # points land exponentially close to 0 (representable case)
        ctx = ThermalContext(beta=TWO_PI)
        tau = 1.0
        got = gamma_flow_ray(ctx, PLUS, tau, -100.0)
        assert got > 0.0
        assert abs(got - math.log1p(math.exp(-100.0))) < 1e-30
        # extreme case: correctly rounds to the boundary 0 of the image
        assert gamma_flow_ray(ctx, PLUS, tau, -1e6) == 0.0
        # large x: psi(x) - x -> 0 from above
        assert gamma_flow_ray(ctx, PLUS, tau, 800.0) == 800.0

    def test_image_endpoints_machine_precision(self):
        # bijection of R onto (0, inf) at tau = beta/(2 pi): monotone, endpoint
        # limits 0 and +inf confirmed through the chart ranges
        ctx = ThermalContext(beta=3.0)
        tau = ctx.beta / TWO_PI
        x = np.linspace(-60, 60, 1201)
        y = gamma_flow_ray(ctx, PLUS, tau, x)
        assert np.all(y > 0)
        assert np.all(np.diff(y) > 0)
        assert y[0] < 1e-50
        assert y[-1] > 50.0

    def test_group_law_and_inverse(self):
        ctx = ThermalContext(beta=1.1)
        x = np.linspace(0.2, 4.0, 60)
        a = gamma_flow_ray(ctx, PLUS, 0.3, gamma_flow_ray(ctx, PLUS, 0.5, x))
        b = gamma_flow_ray(ctx, PLUS, 0.8, x)
        np.testing.assert_allclose(a, b, atol=1e-12)
        back = gamma_flow_ray(ctx, PLUS, -0.3, gamma_flow_ray(ctx, PLUS, 0.3, x))
        np.testing.assert_allclose(back, x, atol=1e-12)

    def test_minus_direction(self):
        # tau > 0 on the minus ray: domain is x < -(beta/2pi) log(2pi tau/beta)
        ctx = ThermalContext(beta=1.3)
        x = np.linspace(-4.0, -0.1, 40)
        tau = 0.2
        got = gamma_flow_ray(ctx, MINUS, tau, x)
        np.testing.assert_allclose(got, -gamma_flow_ray(ctx, PLUS, -tau, -x), atol=0)
        # translation by tau in the minus chart as well
        np.testing.assert_allclose(
            xi_chart(ctx, MINUS, got), xi_chart(ctx, MINUS, x) + tau, atol=1e-12
        )

    def test_beta_inf_is_translation(self):
        ctx = ThermalContext(beta=math.inf)
        x = np.linspace(-2, 2, 11)
        np.testing.assert_allclose(gamma_flow_ray(ctx, PLUS, 0.7, x), x + 0.7)

    def test_domain_violation(self):
        ctx = ThermalContext(beta=1.0)
        with pytest.raises(DomainViolation):
            gamma_flow_ray(ctx, PLUS, -1.0, -1.0)
        with pytest.raises(DomainViolation):
            gamma_flow_ray(ctx, MINUS, 1.0, 1.0)

    def test_monotone_in_x(self):
        ctx = ThermalContext(beta=1.0)
        x = np.linspace(-2.0, 6.0, 300)
        assert np.all(np.diff(gamma_flow_ray(ctx, PLUS, 0.9, x)) > 0)

    def test_subnormal_tau_does_not_overflow(self):
        # |tau/b| < e^{-709} lets e^{-x/b} overflow at x above the floor,
        # where r e^{-x/b} is still above -1; the value scaled by 2^-100 is
        # the oracle
        ctx = ThermalContext(beta=1.0)
        b = 1.0 / TWO_PI
        x = -711.0 * b
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = gamma_flow_ray(ctx, PLUS, -1e-310, x)
            got_minus = gamma_flow_ray(ctx, MINUS, 1e-310, -x)
        arg = -(1e-310 * 2.0**100 / b) * math.exp(711.0 - 100.0 * math.log(2.0))
        expected = x + b * math.log1p(arg)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got_minus == -got

    @pytest.mark.parametrize("tau", [5e-324, -5e-324])
    def test_subnormal_tau_underflowing_ratio(self, tau):
        # at beta = 20, tau/b underflows to 0 for the smallest subnormal tau;
        # the shift it stands for is far below the rounding of x
        ctx = ThermalContext(beta=20.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gamma_flow_ray(ctx, PLUS, tau, 1.0) == 1.0
            assert gamma_flow_ray(ctx, MINUS, -tau, -1.0) == -1.0
            # e^{-x/b} overflows above the floor b (log|tau| - log b) = -2373.3
            far = gamma_flow_ray(ctx, PLUS, tau, -2370.0)
        b = 20.0 / TWO_PI
        arg = math.copysign(math.exp(-1074.0 * math.log(2.0) - math.log(b) + 2370.0 / b), tau)
        assert far == pytest.approx(-2370.0 + b * math.log1p(arg), rel=1e-12)

    def test_minus_message_names_callers_arguments(self):
        ctx = ThermalContext(beta=1.0)
        ceiling = math.log(1.0 / TWO_PI) / TWO_PI
        with pytest.raises(DomainViolation) as err:
            gamma_flow_ray(ctx, MINUS, 1.0, 5.0)
        msg = str(err.value)
        assert f"needs x < {ceiling} at tau=1.0, got x=5.0" in msg
        assert "1 - (2 pi tau/beta) e^{2 pi x/beta}" in msg
        assert math.isfinite(gamma_flow_ray(ctx, MINUS, 1.0, ceiling - 1e-6))
        with pytest.raises(DomainViolation):
            gamma_flow_ray(ctx, MINUS, 1.0, ceiling + 1e-6)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_rejected(self, tau):
        with pytest.raises(DomainViolation):
            gamma_flow_ray(ThermalContext(beta=1.0), PLUS, tau, 0.5)
        with pytest.raises(DomainViolation):
            gamma_flow_ray(ThermalContext(beta=math.inf), MINUS, tau, -0.5)


class TestNonFinitePoint:
    # a NaN fails every domain comparison, so without its own check a NaN
    # or infinite point coordinate used to come back as NaN or inf
    @pytest.mark.parametrize("flow,param", [(modular_flow_ray, 0.3), (gamma_flow_ray, 1.0)])
    @pytest.mark.parametrize("direction", [PLUS, MINUS])
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("beta", [1.0, math.inf])
    def test_scalar_rejected(self, flow, param, direction, x, beta):
        for p in (param, -param):
            with pytest.raises(DomainViolation, match="point x must be finite"):
                flow(ThermalContext(beta=beta), direction, p, x)

    @pytest.mark.parametrize("flow,param", [(modular_flow_ray, 0.3), (gamma_flow_ray, 1.0)])
    @pytest.mark.parametrize("direction", [PLUS, MINUS])
    def test_array_rejected_naming_the_value(self, flow, param, direction):
        x = np.array([0.5, 1.0, math.nan, math.inf])
        if direction is MINUS:
            x = -x
        with pytest.raises(DomainViolation, match="got x=nan"):
            flow(ThermalContext(beta=1.0), direction, param, x)


@pytest.mark.parametrize("beta", [0.6, 1.0, 1.7])
@pytest.mark.parametrize("u", [0.3, 1.0, 2.0, 20.0])
@pytest.mark.parametrize("x", [1e-9, 1e-12, 1e-300])
def test_modular_flow_near_the_fixed_point_matches_mpmath(beta, u, x):
    # relative accuracy down to the fixed point for both signs of u, on the
    # plus ray and on its mirror, the minus ray; an image below the normal
    # numbers may round to a subnormal
    import mpmath

    ctx = ThermalContext(beta=beta)
    for v in (u, -u):
        with mpmath.workdps(50):
            b = mpmath.mpf(beta) / (2 * mpmath.pi)
            w = float(b * mpmath.log1p(mpmath.exp(-2 * mpmath.pi * v) * mpmath.expm1(x / b)))
        for direction, sign in ((PLUS, 1.0), (MINUS, -1.0)):
            got = sign * modular_flow_ray(ctx, direction, sign * v, sign * x)
            assert abs(got - w) <= 1e-13 * abs(w) + 5e-324


@pytest.mark.parametrize("beta", [0.6, 1.0, 1.7])
@pytest.mark.parametrize("u", [5e-18, 1e-17, 1e-7, 0.01, 0.3])
@pytest.mark.parametrize("x", [-0.1, -1.0, -10.0, -300.0])
def test_modular_flow_left_of_the_fixed_point_matches_mpmath(beta, u, x):
    # for u > 0 and x < 0 the image is defined at every x, and 1 + e^{-2pi u}
    # expm1(x/b) cancels as x/b falls; at 5e-18 e^{-2pi u} rounds to 1
    import mpmath

    ctx = ThermalContext(beta=beta)
    with mpmath.workdps(50):
        b = mpmath.mpf(beta) / (2 * mpmath.pi)
        w = float(b * mpmath.log1p(mpmath.exp(-2 * mpmath.pi * u) * mpmath.expm1(x / b)))
    for direction, sign in ((PLUS, 1.0), (MINUS, -1.0)):
        got = sign * modular_flow_ray(ctx, direction, sign * u, sign * x)
        assert abs(got - w) <= 1e-13 * abs(w)


@pytest.mark.parametrize("beta", [0.6, 1.0, 1.7])
@pytest.mark.parametrize("u", [-120.0, -200.0, -1000.0])
@pytest.mark.parametrize("x", [1e-300, 1e-10, 1e-3, 0.5])
def test_modular_flow_past_2pi_u_700_matches_mpmath(beta, u, x):
    # where x/b - 2 pi u > 700 the translation form takes over; within b of
    # the fixed point 1 + expm1(2 pi u) e^{-x/b} must not cancel there
    import mpmath

    ctx = ThermalContext(beta=beta)
    with mpmath.workdps(50):
        b = mpmath.mpf(beta) / (2 * mpmath.pi)
        w = float(b * mpmath.log1p(mpmath.exp(-2 * mpmath.pi * u) * mpmath.expm1(x / b)))
    for direction, sign in ((PLUS, 1.0), (MINUS, -1.0)):
        got = sign * modular_flow_ray(ctx, direction, sign * u, sign * x)
        assert abs(got - w) <= 1e-13 * abs(w)


@pytest.mark.parametrize("beta", [0.6, 1.0, 1.7])
@pytest.mark.parametrize("direction", [PLUS, MINUS])
def test_fixed_point_maps_to_itself_for_every_u(beta, direction):
    ctx = ThermalContext(beta=beta)
    us = [-1e308, -1000.0, -200.0, -120.0, -100.0, -1.0, 0.0, 1.0, 120.0, 200.0, 1e308]
    got = modular_flow_ray(ctx, direction, np.array(us), 0.0)
    assert np.array_equal(got, np.zeros(len(us)))
    assert all(modular_flow_ray(ctx, direction, u, 0.0) == 0.0 for u in us)
    # the parameter array is the scalar call near the fixed point too
    x = 1e-10 if direction is PLUS else -1e-10
    got = modular_flow_ray(ctx, direction, np.array(us[1:-1]), x)
    assert np.array_equal(got, [modular_flow_ray(ctx, direction, u, x) for u in us[1:-1]])


LOG_REST_03 = math.log(-math.expm1(-0.6 * math.pi)) / TWO_PI  # phi_+(0.3, -inf) at beta = 1


class TestOverflow:
    # an image beyond the float range is a DomainViolation naming the
    # parameter, never inf, NaN, a numpy warning or a raw OverflowError
    @pytest.mark.parametrize(
        "flow, beta, direction, param, x",
        [
            (modular_flow_ray, math.inf, PLUS, -200.0, 1.0),  # math.exp overflowed
            (modular_flow_ray, math.inf, MINUS, 200.0, 1.0),
            (modular_flow_ray, math.inf, PLUS, -100.0, 1e300),
            (modular_flow_ray, math.inf, PLUS, -150.0, 1e-100),  # e^{712}
            (modular_flow_ray, math.inf, MINUS, 150.0, -1e-100),
            (gamma_flow_ray, math.inf, PLUS, 1e308, 1e308),
            (gamma_flow_ray, math.inf, MINUS, -1e308, -1e308),
        ],
    )
    def test_image_beyond_float_range_raises(self, flow, beta, direction, param, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainViolation, match="leaves the float range") as err:
                flow(ThermalContext(beta=beta), direction, param, x)
        assert err.value.exit_param == param
        assert f"={param}, got x={x}" in str(err.value)

    @pytest.mark.parametrize(
        "flow, direction, param, x, want",
        [
            # x/b overflows here too, but the image is finite
            (modular_flow_ray, PLUS, -0.3, 1e308, 1e308 + 0.3),
            (modular_flow_ray, MINUS, 0.3, -1e308, -1e308 - 0.3),
            (modular_flow_ray, PLUS, 0.3, -1e308, LOG_REST_03),
            (modular_flow_ray, MINUS, -0.3, 1e308, -LOG_REST_03),
            # x/b - 2 pi u formed as written is inf - inf; the image is b log 2
            (modular_flow_ray, PLUS, 1e308, 1e308, math.log(2.0) / TWO_PI),
            (modular_flow_ray, MINUS, -1e308, -1e308, -math.log(2.0) / TWO_PI),
            (gamma_flow_ray, PLUS, -0.3, 1e308, 1e308),
            (gamma_flow_ray, PLUS, 0.3, -1e308, math.log(0.6 * math.pi) / TWO_PI),
            (gamma_flow_ray, MINUS, -0.3, 1e308, -math.log(0.6 * math.pi) / TWO_PI),
        ],
    )
    def test_finite_images_stay_finite_without_warning(self, flow, direction, param, x, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = flow(ThermalContext(beta=1.0), direction, param, x)
        assert got == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize(
        "flow, beta, direction, param, x",
        [
            # e^{-2 pi u} overflows, the image e^{300 pi} 1e-300 is 2.1e109
            (modular_flow_ray, math.inf, PLUS, -150.0, 1e-300),
            (modular_flow_ray, math.inf, MINUS, 150.0, -1e-300),
            (modular_flow_ray, math.inf, PLUS, -150.0, -1e-300),
            # x/b overflows, the image is about x
            (modular_flow_ray, 1.0, PLUS, 0.3, 1e308),
            (modular_flow_ray, 1.0, MINUS, -0.3, -1e308),
            (modular_flow_ray, 1.0, PLUS, 0.3, 1.7976931348623157e308),
            (modular_flow_ray, 0.1, PLUS, 1e306, 1e308),
            (gamma_flow_ray, 1.0, PLUS, 0.3, 1e308),
            (gamma_flow_ray, 1.0, MINUS, -0.3, -1e308),
            # tau/b overflows, the image is about b log(tau/b)
            (gamma_flow_ray, 1.0, PLUS, 1e308, 1.0),
            (gamma_flow_ray, 1.0, MINUS, -1e308, -1.0),
            (gamma_flow_ray, 1.0, PLUS, -1e308, 1e308),
        ],
    )
    def test_finite_image_after_overflowing_intermediate(self, flow, beta, direction, param, x):
        import mpmath

        with mpmath.workdps(50):
            sign = 1 if direction is PLUS else -1
            v, y, s = mpmath.mpf(sign * param), mpmath.mpf(sign * x), mpmath.mpf(sign)
            if beta == math.inf:
                want = s * mpmath.exp(-2 * mpmath.pi * v) * y
            else:
                b = mpmath.mpf(beta) / (2 * mpmath.pi)
                # the literal forms of phi_+ and psi_+, mirrored for MINUS
                inner = (
                    1 + mpmath.exp(-2 * mpmath.pi * v) * mpmath.expm1(y / b)
                    if flow is modular_flow_ray
                    else mpmath.exp(y / b) + v / b
                )
                want = s * b * mpmath.log(inner)
            want = float(want)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = flow(ThermalContext(beta=beta), direction, param, x)
            assert flow(ThermalContext(beta=beta), direction, np.array([param]), x) == got
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_vacuum_scale_overflow_beside_the_fixed_point(self):
        ctx = ThermalContext(beta=math.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = modular_flow_ray(ctx, PLUS, -150.0, np.array([0.0, 1e-300, -1e-300]))
            assert got[0] == 0.0
            assert got[1] == -got[2] == modular_flow_ray(ctx, PLUS, -150.0, 1e-300)
            # e^{2 pi 1e308} + log 0 is NaN on the fixed point, and not read
            with pytest.raises(DomainViolation, match="leaves the float range"):
                modular_flow_ray(ctx, PLUS, -1e308, np.array([0.0, 1.0]))

    @pytest.mark.parametrize("direction", [PLUS, MINUS])
    @pytest.mark.parametrize("x", [0.0, -0.0])
    def test_vacuum_fixed_point_for_every_finite_u(self, direction, x):
        ctx = ThermalContext(beta=math.inf)
        us = np.array([-1e300, -200.0, -1.0, 0.0, 1.0, 200.0, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = modular_flow_ray(ctx, direction, us, x)
            assert all(modular_flow_ray(ctx, direction, float(v), x) == 0.0 for v in us)
        assert np.array_equal(got, np.zeros(len(us)))
        assert np.array_equal(np.signbit(got), np.full(len(us), math.copysign(1.0, x) < 0))

    def test_first_overflowing_parameter_and_smallest_point_named(self):
        ctx = ThermalContext(beta=math.inf)
        with pytest.raises(DomainViolation) as err:
            modular_flow_ray(ctx, PLUS, np.array([0.0, -50.0, -120.0, -200.0]), 1.0)
        assert err.value.exit_param == -120.0
        assert "at u=-120.0, got x=1.0" in str(err.value)
        with pytest.raises(DomainViolation) as err:
            modular_flow_ray(ctx, PLUS, -120.0, np.array([0.0, 1.0, -2.0, 1e-300]))
        assert "at u=-120.0, got x=-2.0" in str(err.value)
        with pytest.raises(DomainViolation) as err:
            gamma_flow_ray(ctx, PLUS, 1e308, np.array([1.0, 1.5e308, 1e308]))
        assert "at tau=1e+308, got x=1e+308" in str(err.value)


class TestTranslationCommutation:
    def test_u_zero(self):
        ctx = ThermalContext(beta=1.0)
        assert check_translation_commutation(ctx, 0.0, 0.7, np.linspace(0.1, 3, 50)) == 0.0

    def test_t_zero(self):
        ctx = ThermalContext(beta=1.0)
        assert (
            check_translation_commutation(ctx, 0.4, 0.0, np.linspace(0.1, 3, 50))
            < 1e-12
        )

    def test_reference_case(self):
        ctx = ThermalContext(beta=1.0)
        dev = check_translation_commutation(ctx, 0.3, 0.4, np.linspace(0.01, 5.0, 200))
        assert dev < 1e-10

    def test_parameter_sweep(self):
        ctx = ThermalContext(beta=2.3)
        grid = np.linspace(0.05, 8.0, 100)
        for u in (-0.5, 0.2, 0.9):
            for t in (0.1, 1.0, 2.5):
                assert check_translation_commutation(ctx, u, t, grid) < 1e-10

    def test_vacuum_check_goes_through_the_flow_maps(self, monkeypatch):
        vacuum = ThermalContext(beta=math.inf)
        grid = np.linspace(0.01, 5.0, 150)
        for u in (-0.5, 0.3, 0.9):
            for t in (0.1, 0.7, 2.0):
                assert check_translation_commutation(vacuum, u, t, grid) < 1e-13
        # a map ignoring beta = inf (the beta = 1 flow) must be caught
        finite = ThermalContext(beta=1.0)
        real = flow_maps.modular_flow_ray
        monkeypatch.setattr(
            flow_maps, "modular_flow_ray", lambda ctx, d, u, x: real(finite, d, u, x)
        )
        assert check_translation_commutation(vacuum, 0.3, 0.7, grid) > 0.1


# Properties over the whole parameter range.  x, u and tau are drawn in units
# of beta, with beta log-uniform in [0.1, 10].
LOG_BETA = st.floats(min_value=math.log(0.1), max_value=math.log(10.0))
DIRECTIONS = st.sampled_from([PLUS, MINUS])


@settings(max_examples=400, deadline=None)
@given(
    LOG_BETA,
    DIRECTIONS,
    st.sampled_from([modular_flow_ray, gamma_flow_ray]),
    st.floats(min_value=-300.0, max_value=300.0),
    st.floats(min_value=-1e3, max_value=1e3),
)
@example(0.0, PLUS, modular_flow_ray, -300.0, -120.0)  # e^{-x/b} overflows
@example(0.0, MINUS, modular_flow_ray, 300.0, 120.0)
@example(0.0, PLUS, gamma_flow_ray, -1e-310, -711.0 / TWO_PI)  # subnormal tau
def test_ray_maps_finite_or_domain_violation(log_beta, direction, flow, s, y):
    beta = math.exp(log_beta)
    param = s if flow is modular_flow_ray else s * beta  # u, or tau
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = flow(ThermalContext(beta=beta), direction, param, y * beta)
        except DomainViolation:
            return
    assert math.isfinite(out)


@settings(max_examples=400, deadline=None)
@given(
    LOG_BETA,
    DIRECTIONS,
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.0, max_value=10.0),
)
def test_ray_maps_group_law_and_inverse(log_beta, direction, y, u1, u2, s1, s2):
    # the MINUS ray is the mirror image: x <= 0 and tau <= 0 there
    beta = math.exp(log_beta)
    ctx = ThermalContext(beta=beta)
    sign = 1.0 if direction is PLUS else -1.0
    x, tau1, tau2 = sign * y * beta, sign * s1 * beta, sign * s2 * beta
    tol = 1e-12 * max(beta, abs(x))

    def phi(u, v):
        return modular_flow_ray(ctx, direction, u, v)

    def psi(tau, v):
        return gamma_flow_ray(ctx, direction, tau, v)

    assert abs(phi(u1, phi(u2, x)) - phi(u1 + u2, x)) <= tol
    assert abs(phi(-u1, phi(u1, x)) - x) <= tol
    assert abs(psi(tau1, psi(tau2, x)) - psi(tau1 + tau2, x)) <= tol
    assert abs(psi(-tau1, psi(tau1, x)) - x) <= tol


# Parameter arrays.  A ray map called with a 1-D array of parameters against
# one point returns, element by element, the bits of the one-parameter call.
# The reference below is that call written out: the parameter's constants
# from math, the point's terms from numpy on a one-element array.  numpy's
# exp, expm1 and log differ from math's in the last bit on a few percent of
# arguments, so constants computed with numpy over the parameter array fail
# this comparison.


def phi_plus_reference(beta, u, x):
    b, xa = beta / TWO_PI, np.array([x])
    if u == 0.0 or x == 0.0:
        return x
    if (x - beta * u) / b > 700.0:
        lead = xa - beta * u
        out = lead + b * np.log(-np.expm1(-xa / b) + np.exp(-lead / b))
    else:
        out = b * np.log1p(math.exp(-max(TWO_PI * u, -709.0)) * np.expm1(xa / b))
    return float(out[0])


def psi_plus_reference(beta, tau, x):
    b, xa = beta / TWO_PI, np.array([x])
    if tau == 0.0:
        return x
    r = tau / b
    if tau > 0.0:
        return float((b * np.logaddexp(xa / b, math.log(abs(r))))[0])
    return float((xa + b * np.log1p(r * np.exp(-xa / b)))[0])


def ray_reference(flow, beta, direction, param, x):
    plus = phi_plus_reference if flow is modular_flow_ray else psi_plus_reference
    if direction is PLUS:
        return plus(beta, param, x)
    return -plus(beta, -param, -x)


@settings(max_examples=300, deadline=None)
@given(
    LOG_BETA,
    DIRECTIONS,
    st.sampled_from([modular_flow_ray, gamma_flow_ray]),
    st.floats(min_value=math.log(1e-6), max_value=math.log(60.0)),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.integers(min_value=1, max_value=100),
    st.floats(min_value=-200.0, max_value=0.0),
)
def test_parameter_array_is_the_scalar_call(log_beta, direction, flow, log_y, lo, hi, n, far):
    # the point lies in the ray's half-line, where the modular flow is
    # defined for every u; tau is kept above the positive-generator flow's
    # bound, and one u reaches the translation-dominated form (x/b - 2 pi u > 700)
    beta = math.exp(log_beta)
    b, sign = beta / TWO_PI, (1.0 if direction is PLUS else -1.0)
    x = sign * math.exp(log_y) * beta
    s = np.linspace(lo, hi, n).tolist()  # a sweep, as a flow line draws it
    if flow is modular_flow_ray:
        params = [*s, sign * far]
    else:
        floor = -0.99 * b * math.exp(abs(x) / b)  # tau bound, in the ray's own sign
        params = [sign * max(v * beta, floor) for v in s]
    ctx = ThermalContext(beta=beta)
    got = flow(ctx, direction, np.array(params), x)
    want = [ray_reference(flow, beta, direction, v, x) for v in params]
    assert got.shape == (len(params),)
    assert np.array_equal(got, want)
    assert all(flow(ctx, direction, v, x) == w for v, w in zip(params, want))


def test_per_parameter_constants_are_the_math_loop():
    # each u's constant is one math call, as a per-parameter loop computes it:
    # the remainder's expm1(2 pi u), capped at 709, and phi_+'s -expm1(-2 pi u)
    # left of the fixed point, where it sums its positive terms
    beta = 1.3
    b = beta / TWO_PI
    us = np.array([-1e308, -200.0, -1.0, -0.0, 0.0, 1e-300, 0.3, 708.5 / TWO_PI, 113.0, 1e308])
    x = np.array([[0.4], [2.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        w = TWO_PI * us
        c = np.array([math.expm1(min(v, 709.0)) for v in w.tolist()])
        arg = c * np.exp(-x / b)
        want = b * np.log1p(np.where(arg > -1.0, arg, np.nan))
        want = np.where(w > 709.0, b * np.logaddexp(0.0, (beta * us - x) / b), want)
        got = flow_maps.modular_remainder(beta, us, x)
    assert np.array_equal(got, want, equal_nan=True)
    us = np.array([1e-3, 0.01, 0.05, 0.1])
    w = TWO_PI * us
    want = b * np.log(np.array([-math.expm1(-v) for v in w.tolist()]) + np.exp(-3.0 / b - w))
    assert np.array_equal(modular_flow_ray(ThermalContext(beta=beta), PLUS, us, -3.0), want)


def test_remainder_at_u_zero_is_zero():
    # where e^{-x/b} overflows too, not expm1(0) * inf = NaN; the u = 0 entry
    # of a parameter array alike
    x = np.array([-1e308, -200.0, 0.0, 3.0, 1e308])
    for u in (0.0, -0.0):
        assert np.all(flow_maps.modular_remainder(1.3, u, x) == 0.0)
    got = flow_maps.modular_remainder(1.3, np.array([0.0, 0.3]), np.array([-200.0, 3.0]))
    assert got[0] == 0.0 and 0.0 < got[1] < 1e-5


class TestParameterArray:
    @pytest.mark.parametrize("flow", [modular_flow_ray, gamma_flow_ray])
    @pytest.mark.parametrize("direction", [PLUS, MINUS])
    def test_vacuum(self, flow, direction):
        ctx = ThermalContext(beta=math.inf)
        params = np.linspace(-2.0, 2.0, 9)
        got = flow(ctx, direction, params, 0.7)
        assert np.array_equal(got, [flow(ctx, direction, float(v), 0.7) for v in params])

    def test_empty(self):
        got = modular_flow_ray(ThermalContext(beta=1.0), PLUS, np.array([]), 0.5)
        assert got.shape == (0,)

    @pytest.mark.parametrize("u, x", [(np.array([0.1, 0.2]), np.array([0.5, 1.0])),
                                      (np.zeros((2, 2)), 0.5)])
    def test_shapes_rejected(self, u, x):
        with pytest.raises(ValueError, match="1-D array against a scalar x"):
            modular_flow_ray(ThermalContext(beta=1.0), PLUS, u, x)

    def test_first_offending_parameter_named(self):
        # x = -0.5 leaves the plus ray's modular domain once u < -0.0071
        ctx = ThermalContext(beta=1.0)
        us = np.array([0.2, -0.001, -0.3, -0.5])
        with pytest.raises(DomainViolation) as err:
            modular_flow_ray(ctx, PLUS, us, -0.5)
        with pytest.raises(DomainViolation) as one:
            modular_flow_ray(ctx, PLUS, -0.3, -0.5)
        assert str(err.value) == str(one.value)
        assert err.value.exit_param == one.value.exit_param == -0.3

    def test_smallest_failing_point_named(self):
        # u = -130 puts x = -20 on the scaled-chart form and x = -1, 1 on the
        # translation-dominated one; both x = -20 and x = -1 fail, and the
        # message names the smaller, as the one-point call at x = -20 does
        ctx = ThermalContext(beta=1.0)
        with pytest.raises(DomainViolation) as err:
            modular_flow_ray(ctx, PLUS, -130.0, np.array([-20.0, -1.0, 1.0]))
        with pytest.raises(DomainViolation) as one:
            modular_flow_ray(ctx, PLUS, -130.0, -20.0)
        assert "got x=-20.0" in str(err.value)
        assert str(err.value) == str(one.value)
        assert err.value.exit_param == -130.0

    def test_minus_ray_names_the_callers_parameter(self):
        ctx = ThermalContext(beta=1.0)
        with pytest.raises(DomainViolation) as err:
            # x = -0.5 bounds tau above by (beta/2pi) e^{pi} = 3.68
            gamma_flow_ray(ctx, MINUS, np.array([0.0, 0.1, 5.0, 6.0]), -0.5)
        assert "at tau=5.0, got x=-0.5" in str(err.value)
        assert err.value.exit_param == 5.0

    @pytest.mark.parametrize(
        "us, exit_param, text",
        [
            # any non-finite parameter is reported before a domain exit
            ([0.2, -0.5, math.nan], math.nan, "must be finite, got nan"),
            ([0.2, math.inf, -math.inf], math.inf, "must be finite, got inf"),
            ([0.2, -0.5, 0.3], -0.5, "must be positive"),
            ([math.nan, -0.5], math.nan, "must be finite, got nan"),
        ],
    )
    def test_non_finite_parameter_first(self, us, exit_param, text):
        with pytest.raises(DomainViolation, match=text) as err:
            modular_flow_ray(ThermalContext(beta=1.0), PLUS, np.array(us), -0.5)
        r = err.value.exit_param
        assert r == exit_param or (math.isnan(r) and math.isnan(exit_param))
