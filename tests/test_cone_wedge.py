"""2D geometry tests.

Oracles: componentwise ray flows through the chart, finite differences of
trajectories for the velocity field, and an adaptive RK integration of the
velocity field for the closed-form flow lines.
"""

import csv
import json
import math
import re
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from modularflow import cone_wedge
from modularflow.cone_wedge import (
    FigureSpec,
    FlowLine,
    Region,
    SpacetimePoint,
    emit_flow_figure,
    figure_lines,
    flow_line,
    gamma_flow_2d,
    gamma_line_constant,
    modular_flow_2d,
    remainder_terms,
    velocity_field,
)
from modularflow.errors import DomainViolation
from modularflow.flow_maps import (
    RayDirection,
    ThermalContext,
    modular_flow_ray,
)

TWO_PI = 2.0 * math.pi
CONE, WEDGE = Region.FORWARD_CONE, Region.RIGHT_WEDGE


def cone_points(beta):
    return [
        SpacetimePoint(0.8 * beta, 0.3 * beta),
        SpacetimePoint(1.5 * beta, -0.9 * beta),
        SpacetimePoint(0.05 * beta, 0.0),
    ]


def wedge_points(beta):
    return [
        SpacetimePoint(0.3 * beta, 0.8 * beta),
        SpacetimePoint(-0.9 * beta, 1.5 * beta),
        SpacetimePoint(0.0, 0.05 * beta),
    ]


class TestSpacetimePoint:
    def test_lightcone_identities(self):
        # exactly representable coordinates make the identities exact in floats
        p = SpacetimePoint(1.5, -0.25)
        assert p.xR + p.xL == 2 * p.x0
        assert p.xR - p.xL == 2 * p.x1
        assert SpacetimePoint.from_lightcone(p.xL, p.xR) == p
        q = SpacetimePoint(1.3, -0.4)
        r = SpacetimePoint.from_lightcone(q.xL, q.xR)
        assert abs(r.x0 - q.x0) < 1e-15 and abs(r.x1 - q.x1) < 1e-15

    def test_from_lightcone_near_float_max(self):
        # xR + xL overflows where the spacetime point is finite
        assert SpacetimePoint.from_lightcone(1.7e308, 1.7e308) == SpacetimePoint(1.7e308, 0.0)
        assert SpacetimePoint.from_lightcone(-1.7e308, 1.7e308) == SpacetimePoint(0.0, 1.7e308)

    def test_region_membership(self):
        assert CONE.contains(SpacetimePoint(1.0, 0.5))
        assert not CONE.contains(SpacetimePoint(0.5, 1.0))
        assert WEDGE.contains(SpacetimePoint(0.5, 1.0))
        assert not WEDGE.contains(SpacetimePoint(1.0, 0.5))


class TestModularFlow2D:
    def test_u_zero(self):
        ctx = ThermalContext(beta=1.2)
        p = SpacetimePoint(0.7, 0.2)
        q = modular_flow_2d(ctx, CONE, 0.0, p)
        assert abs(q.x0 - p.x0) < 1e-15 and abs(q.x1 - p.x1) < 1e-15

    def test_time_axis_stays(self):
        ctx = ThermalContext(beta=0.9)
        p = SpacetimePoint(1.4, 0.0)
        q = modular_flow_2d(ctx, CONE, 0.6, p)
        assert q.x1 == 0.0

    def test_componentwise_chart_oracle(self):
        ctx = ThermalContext(beta=TWO_PI)
        u = math.log(2.0) / TWO_PI
        p = SpacetimePoint.from_lightcone(math.log(3.0), math.log(3.0))
        q = modular_flow_2d(ctx, CONE, u, p)
        assert abs(q.xL - math.log(2.0)) < 1e-14
        assert abs(q.xR - math.log(2.0)) < 1e-14

    def test_matches_ray_flows(self):
        ctx = ThermalContext(beta=1.7)
        for region, pts in ((CONE, cone_points(1.7)), (WEDGE, wedge_points(1.7))):
            for p in pts:
                for u in (-1.2, 0.4, 2.0):
                    q = modular_flow_2d(ctx, region, u, p)
                    assert abs(
                        q.xR - modular_flow_ray(ctx, RayDirection.PLUS, u, p.xR)
                    ) < 1e-13
                    assert abs(
                        q.xL - modular_flow_ray(ctx, region.left_direction, u, p.xL)
                    ) < 1e-13

    def test_region_preserved_all_u(self):
        ctx = ThermalContext(beta=1.0)
        for region, pts in ((CONE, cone_points(1.0)), (WEDGE, wedge_points(1.0))):
            for p in pts:
                for u in (-5.0, -0.5, 0.5, 5.0):
                    assert region.contains(modular_flow_2d(ctx, region, u, p))

    def test_error_names_component(self):
        ctx = ThermalContext(beta=1.0)
        p = SpacetimePoint(0.5, 0.0)  # wedge needs xL < 0
        with pytest.raises(DomainViolation, match="xL"):
            modular_flow_2d(ctx, WEDGE, 5.0, p)


class TestGammaFlow2D:
    def test_tau_zero(self):
        ctx = ThermalContext(beta=1.0)
        p = SpacetimePoint(0.3, 0.1)
        q = gamma_flow_2d(ctx, CONE, 0.0, p)
        assert abs(q.x0 - p.x0) < 1e-15 and abs(q.x1 - p.x1) < 1e-15

    def test_origin_path(self):
        # through the origin the cone flow runs up the time axis:
        # x0 = (beta/2pi) log(1 + 2 pi tau/beta)
        ctx = ThermalContext(beta=1.3)
        b = ctx.beta / TWO_PI
        for tau in (0.2, 1.0, 7.0):
            q = gamma_flow_2d(ctx, CONE, tau, SpacetimePoint(0.0, 0.0))
            assert abs(q.x0 - b * math.log1p(tau / b)) < 1e-14
            assert q.x1 == 0.0

    def test_wedge_origin_path(self):
        # through the origin the wedge flow bends: with w = 2 pi tau/beta,
        # x0 = (beta/2pi) atanh w and x1 = (beta/4pi) log(1 - w^2)
        ctx = ThermalContext(beta=0.8)
        b = ctx.beta / TWO_PI
        for tau in (-0.1, 0.05, 0.12):
            q = gamma_flow_2d(ctx, WEDGE, tau, SpacetimePoint(0.0, 0.0))
            w = tau / b
            assert abs(q.x0 - b * math.atanh(w)) < 1e-14
            assert abs(q.x1 - 0.5 * b * math.log1p(-w * w)) < 1e-14

    def test_wedge_origin_path_proper_time(self):
        # proper time along the wedge path through the origin is
        # (beta/2pi) asin(2 pi tau/beta): summed chords of a fine tau row
        ctx = ThermalContext(beta=0.8)
        b = ctx.beta / TWO_PI
        taus = np.linspace(-0.12, 0.12, 20001)
        q = gamma_flow_2d(ctx, WEDGE, taus, SpacetimePoint(0.0, 0.0))
        chords = np.sqrt(np.diff(q.x0) ** 2 - np.diff(q.x1) ** 2)
        proper = np.concatenate(([0.0], np.cumsum(chords)))
        proper -= proper[len(taus) // 2]
        assert np.max(np.abs(proper - b * np.arcsin(taus / b))) < 1e-8

    @pytest.mark.parametrize(
        "region, sign, named",
        [(WEDGE, 1.0, "xL"), (WEDGE, -1.0, "xR"), (CONE, -1.0, "xL")],
    )
    def test_origin_path_ends_at_beta_over_2pi(self, region, sign, named):
        # the origin's path is defined for tau > -beta/2pi on the cone and
        # |tau| < beta/2pi on the wedge, the bound itself excluded
        ctx = ThermalContext(beta=0.8)
        tau = sign * ctx.beta / TWO_PI
        with pytest.raises(DomainViolation, match=f"light-cone coordinate {named}="):
            gamma_flow_2d(ctx, region, tau, SpacetimePoint(0.0, 0.0))
        q = gamma_flow_2d(ctx, region, tau * (1 - 1e-9), SpacetimePoint(0.0, 0.0))
        assert math.isfinite(q.x0) and math.isfinite(q.x1)

    def test_wedge_upper_bound_is_strict(self):
        ctx = ThermalContext(beta=1.0)
        p = SpacetimePoint(0.0, 0.7)
        b = ctx.beta / TWO_PI
        tau_max = b * math.exp(-TWO_PI * p.xL / ctx.beta)
        with pytest.raises(DomainViolation):
            gamma_flow_2d(ctx, WEDGE, tau_max, p)
        q = gamma_flow_2d(ctx, WEDGE, tau_max * (1 - 1e-9), p)
        assert math.isfinite(q.x0)

    def test_cone_lower_bound(self):
        ctx = ThermalContext(beta=1.0)
        p = SpacetimePoint(0.8, 0.3)
        b = ctx.beta / TWO_PI
        tau_min = -b * min(
            math.exp(TWO_PI * p.xL / ctx.beta), math.exp(TWO_PI * p.xR / ctx.beta)
        )
        with pytest.raises(DomainViolation):
            gamma_flow_2d(ctx, CONE, tau_min, p)
        q = gamma_flow_2d(ctx, CONE, tau_min * (1 - 1e-9), p)
        assert math.isfinite(q.x0)

    def test_image_membership_under_stronger_condition(self):
        # tau above -(beta/2pi)(min e^{2pi x/beta} - 1) keeps cone points in the cone
        ctx = ThermalContext(beta=1.0)
        b = ctx.beta / TWO_PI
        for p in cone_points(1.0):
            lo = -b * (
                min(math.exp(TWO_PI * p.xL), math.exp(TWO_PI * p.xR)) - 1.0
            )
            for tau in np.linspace(lo + 1e-9, lo + 5.0, 7):
                assert CONE.contains(gamma_flow_2d(ctx, CONE, float(tau), p))
        for p in wedge_points(1.0):
            lo = -b * (math.exp(TWO_PI * p.xR) - 1.0)
            hi = b * (math.exp(-TWO_PI * p.xL) - 1.0)
            for tau in np.linspace(lo + 1e-9, hi - 1e-9, 7):
                assert WEDGE.contains(gamma_flow_2d(ctx, WEDGE, float(tau), p))


    def test_a_point_of_arrays_maps_pointwise(self):
        # verify's velocity-consistency maps its grid of points in one call
        # per region and sign of tau: each image is the one-point call's
        rng = np.random.default_rng(8)
        for beta in (0.6, 1.0, 1.7):
            ctx = ThermalContext(beta=beta)
            a = rng.uniform(-1.4, 1.4, 40) * beta
            c = np.abs(a) + rng.uniform(0.05, 1.4, 40) * beta
            for region, x0, x1 in ((CONE, c, a), (WEDGE, a, c)):
                for tau in (1e-4 * beta / TWO_PI, -1e-4 * beta / TWO_PI, 0.05 * beta):
                    q = gamma_flow_2d(ctx, region, tau, SpacetimePoint(x0, x1))
                    for i, (p0, p1) in enumerate(zip(x0.tolist(), x1.tolist())):
                        want = gamma_flow_2d(ctx, region, tau, SpacetimePoint(p0, p1))
                        assert (q.x0[i], q.x1[i]) == (want.x0, want.x1)


class TestRemainders:
    def test_u_zero(self):
        ctx = ThermalContext(beta=1.0)
        assert remainder_terms(ctx, CONE, 0.0, SpacetimePoint(1.0, 0.2)) == (0.0, 0.0)

    def test_reconstructs_flow(self):
        ctx = ThermalContext(beta=1.0)
        for region, pts in ((CONE, cone_points(1.0)), (WEDGE, wedge_points(1.0))):
            for p in pts:
                # past 2 pi |u| = 709 expm1(2 pi u) or e^{-2 pi u} leaves the float range
                for u in (-120.0, -0.7, 0.2, 1.1, 120.0):
                    r0, r1 = remainder_terms(ctx, region, u, p)
                    q = modular_flow_2d(ctx, region, u, p)
                    assert abs(q.x0 - (p.x0 - ctx.beta * u + r0)) < 1e-12
                    assert abs(q.x1 - (p.x1 + r1)) < 1e-12

    @pytest.mark.parametrize("beta", [0.6, 1.0, 1.7])
    def test_u_row_equals_the_scalar_calls(self, beta):
        # each entry of a u row is the float of the one-u call, bit for bit,
        # past 2 pi |u| = 709 and at u = 0 too
        ctx = ThermalContext(beta)
        us = np.array([-120.0, -0.7, 0.0, 0.2, 1.1, 120.0])
        for region, pts in ((CONE, cone_points(beta)), (WEDGE, wedge_points(beta))):
            for p in pts:
                rows = np.stack(remainder_terms(ctx, region, us, p))
                want = [remainder_terms(ctx, region, u, p) for u in us.tolist()]
                assert all(type(r) is float for pair in want for r in pair)
                assert rows.shape == (2, len(us))
                assert np.array_equal(rows.view(np.int64), np.array(want).T.view(np.int64))

    @pytest.mark.parametrize(
        "region, xL, ok, bad", [(CONE, -0.1, 0.2, -0.7), (WEDGE, 0.1, -0.2, 0.7)]
    )
    def test_u_row_with_a_failing_u_raises(self, region, xL, ok, bad):
        # xL outside the region: the flow of xL is undefined for u below
        # -0.12 (cone, plus ray) or above 0.12 (wedge, minus ray)
        ctx = ThermalContext(beta=1.0)
        p = SpacetimePoint.from_lightcone(xL, 1.0)
        remainder_terms(ctx, region, ok, p)
        with pytest.raises(DomainViolation) as scalar:
            remainder_terms(ctx, region, bad, p)
        with pytest.raises(DomainViolation) as row:
            remainder_terms(ctx, region, np.array([ok, bad, 0.0]), p)
        assert str(row.value) == str(scalar.value) == (
            f"remainder undefined at x={p.xL}: modular flow domain violated"
        )

    def test_deep_interior_small(self):
        beta = 1.0
        ctx = ThermalContext(beta=beta)
        p = SpacetimePoint(12.0 * beta, 0.0)  # xR = xL = 12 beta
        r0, r1 = remainder_terms(ctx, CONE, 1.0, p)
        assert abs(r0) < 1e-8 * beta
        assert abs(r1) < 1e-8 * beta

    def test_example_value(self):
        # beta=1, u=0.2, (xL, xR) = (0.5, 0.5): remainders from the flow itself
        ctx = ThermalContext(beta=1.0)
        p = SpacetimePoint.from_lightcone(0.5, 0.5)
        q = modular_flow_2d(ctx, CONE, 0.2, p)
        r0, r1 = remainder_terms(ctx, CONE, 0.2, p)
        assert abs(r0 - (q.x0 - p.x0 + ctx.beta * 0.2)) < 1e-13
        assert abs(r1 - (q.x1 - p.x1)) < 1e-13


class TestLimits:
    def test_deep_interior_is_time_translation(self):
        beta = 0.8
        ctx = ThermalContext(beta=beta)
        pts = [
            SpacetimePoint.from_lightcone(9.0 * beta, 11.0 * beta),
            SpacetimePoint.from_lightcone(8.5 * beta, 20.0 * beta),
        ]
        for p in pts:
            for u in (-1.0, -0.3, 0.5, 1.0):
                q = modular_flow_2d(ctx, CONE, u, p)
                assert abs(q.x0 - (p.x0 - beta * u)) < 1e-6 * beta
                assert abs(q.x1 - p.x1) < 1e-6 * beta

    def test_near_apex_dilation(self):
        # the deviation from a dilation carries a |1 - e^{-2pi u}| prefactor,
        # so the 1e-2 window is checked for moderate u
        beta = 1.0
        ctx = ThermalContext(beta=beta)
        for u in (-0.1, 0.1, 1.5):
            lam = math.exp(-TWO_PI * u)
            for p in (
                SpacetimePoint(1e-3 * beta, 2e-4 * beta),
                SpacetimePoint(5e-4 * beta, -3e-4 * beta),
            ):
                q = modular_flow_2d(ctx, CONE, u, p)
                scale = max(abs(p.x0), abs(p.x1))
                assert abs(q.x0 - lam * p.x0) / scale < 1e-2
                assert abs(q.x1 - lam * p.x1) / scale < 1e-2

    def test_near_edge_boost(self):
        beta = 1.0
        ctx = ThermalContext(beta=beta)
        for u in (-0.1, 0.1):
            for p in (SpacetimePoint(2e-4, 8e-4), SpacetimePoint(-3e-4, 6e-4)):
                q = modular_flow_2d(ctx, WEDGE, u, p)
                scale = max(abs(p.xR), abs(p.xL))
                assert abs(q.xR - math.exp(-TWO_PI * u) * p.xR) / scale < 1e-2
                assert abs(q.xL - math.exp(TWO_PI * u) * p.xL) / scale < 1e-2


class TestVelocity:
    def test_axis_values(self):
        ctx = ThermalContext(beta=1.0)
        assert velocity_field(ctx, CONE, SpacetimePoint(0.7, 0.0)) == 0.0
        assert velocity_field(ctx, WEDGE, SpacetimePoint(0.0, 0.7)) == 0.0

    def test_cone_value(self):
        ctx = ThermalContext(beta=TWO_PI)
        v = velocity_field(ctx, CONE, SpacetimePoint(0.0, 1.0))
        assert abs(v - (-math.tanh(1.0))) < 1e-12

    def test_bounded_by_light_speed(self):
        ctx = ThermalContext(beta=0.5)
        for p in cone_points(0.5) + wedge_points(0.5):
            assert abs(velocity_field(ctx, CONE, p)) < 1.0
            assert abs(velocity_field(ctx, WEDGE, p)) < 1.0
        # past |2 pi x/beta| ~ 19 tanh rounds to 1: the field reaches the
        # speed of light in floats, and stays finite out to the float maximum
        ctx = ThermalContext(beta=1.0)
        for x in (3.5, 1e3, 1e308, -3.5, -1e308):
            for v in (velocity_field(ctx, CONE, SpacetimePoint(0.3, x)),
                      velocity_field(ctx, WEDGE, SpacetimePoint(x, 0.3))):
                assert math.isfinite(v) and abs(v) == 1.0

    @pytest.mark.parametrize("x0, x1", [(math.nan, 0.3), (0.3, math.nan), (math.inf, 0.3)])
    def test_non_finite_point_raises(self, x0, x1):
        # the cone's field reads x1 only: (nan, 0.3) gave -0.9549, a finite
        # velocity for a NaN point, and (0.3, nan) gave NaN
        for ctx in (ThermalContext(beta=1.0), ThermalContext(beta=math.inf)):
            for region in (CONE, WEDGE):
                with pytest.raises(DomainViolation, match=re.escape(f"finite point, got ({x0}, {x1})")):
                    velocity_field(ctx, region, SpacetimePoint(x0, x1))

    def test_finite_difference_oracle(self):
        # differentiate the gamma trajectory in tau and compare dx1/dx0; the
        # central difference is conditioned only while the chart magnitudes
        # stay moderate (flow speeds decay like e^{-2pi|x|/beta}), so points
        # beyond 1.5 beta in either light-cone coordinate are skipped
        beta = 1.1
        ctx = ThermalContext(beta=beta)
        grid = np.linspace(-1.5 * beta, 1.5 * beta, 9)
        h = 1e-4 * beta / TWO_PI
        worst = 0.0
        checked = 0
        for region in (CONE, WEDGE):
            for a in grid:
                for b_ in grid:
                    if region is CONE:
                        p = SpacetimePoint(abs(a) + abs(b_) + 0.08 * beta, a)
                    else:
                        p = SpacetimePoint(a, abs(a) + abs(b_) + 0.08 * beta)
                    if max(abs(p.xR), abs(p.xL)) > 1.5 * beta:
                        continue
                    qp = gamma_flow_2d(ctx, region, h, p)
                    qm = gamma_flow_2d(ctx, region, -h, p)
                    v_num = (qp.x1 - qm.x1) / (qp.x0 - qm.x0)
                    worst = max(worst, abs(v_num - velocity_field(ctx, region, p)))
                    checked += 1
        assert checked > 20
        assert worst < 1e-6


class TestFlowLine:
    def test_modular_line_time_axis(self):
        ctx = ThermalContext(beta=1.0)
        ln = flow_line(ctx, CONE, "modular", SpacetimePoint(1.2, 0.0), (-1, 1), 41)
        assert np.max(np.abs(ln.points[:, 1])) == 0.0

    def test_gamma_cone_closed_form(self):
        # every sampled point satisfies the sinh line with one constant
        ctx = ThermalContext(beta=1.4)
        seed = SpacetimePoint(0.8, 0.3)
        ln = flow_line(ctx, CONE, "gamma", seed, (-0.05, 4.0), 101)
        b = ctx.beta / TWO_PI
        consts = ln.points[:, 0] + b * np.log(np.abs(np.sinh(ln.points[:, 1] / b)))
        assert np.max(np.abs(consts - consts[0])) < 1e-8

    def test_gamma_wedge_closed_form(self):
        ctx = ThermalContext(beta=0.9)
        seed = SpacetimePoint(0.0, 0.5)
        ln = flow_line(ctx, WEDGE, "gamma", seed, (-0.1, 0.1), 61)
        b = ctx.beta / TWO_PI
        consts = ln.points[:, 1] + b * np.log(np.cosh(ln.points[:, 0] / b))
        assert np.max(np.abs(consts - consts[0])) < 1e-8
        # the wedge line through (0, C) has its apex value C at x0 = 0
        assert abs(gamma_line_constant(ctx, WEDGE, seed) - 0.5) < 1e-14

    @pytest.mark.parametrize("x0, x1", [(math.nan, 0.3), (0.3, math.nan)])
    def test_line_constant_of_a_nan_point_raises(self, x0, x1):
        # it returned NaN
        ctx = ThermalContext(beta=1.0)
        for region in (CONE, WEDGE):
            with pytest.raises(DomainViolation, match=re.escape(f"({x0}, {x1}) has no finite constant")):
                gamma_line_constant(ctx, region, SpacetimePoint(x0, x1))

    def test_line_constant_beyond_the_float_range_raises(self):
        # (0.3, 1e308) in the cone returned inf: 2 pi x1/beta overflows; in
        # the wedge x1 = 1e308 is the constant itself, and x0 = 1e308 overflows
        ctx = ThermalContext(beta=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for region, p in ((CONE, (0.3, 1e308)), (CONE, (1e308, 1e308)), (WEDGE, (1e308, 0.3))):
                with pytest.raises(DomainViolation, match="has no finite constant"):
                    gamma_line_constant(ctx, region, SpacetimePoint(*p))
            assert gamma_line_constant(ctx, WEDGE, SpacetimePoint(0.0, 1e308)) == 1e308

    @pytest.mark.parametrize("region, seed", [(CONE, (1.0, 0.2)), (WEDGE, (0.2, 1.0))])
    def test_ends_whose_distance_overflows_raise(self, tmp_path, region, seed):
        # hi - lo overflows inside np.linspace: numpy's overflow warning
        # escaped before the DomainViolation at parameter nan
        ctx, path = ThermalContext(beta=1.0), tmp_path / "f.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainViolation, match="at parameter nan"):
                flow_line(ctx, region, "modular", SpacetimePoint(*seed), (-1e308, 1e308), 5)
            with pytest.raises(DomainViolation, match="at parameter nan"):
                emit_flow_figure(ctx, region, "modular", str(path), spec=FigureSpec(param_span=1e308))
        assert not path.exists()

    def test_closed_form_vs_integrated_velocity(self):
        # independent oracle: integrate dx1/dx0 = -tanh(2 pi x1/beta) with RK45
        beta = 1.0
        ctx = ThermalContext(beta=beta)
        seed = SpacetimePoint(0.2, 1.1)
        C = gamma_line_constant(ctx, CONE, seed)
        b = beta / TWO_PI

        sol = solve_ivp(
            lambda t, y: [-math.tanh(TWO_PI * y[0] / beta)],
            (seed.x0, seed.x0 + 2.0),
            [seed.x1],
            rtol=1e-10,
            atol=1e-12,
            dense_output=True,
        )
        for x0 in np.linspace(seed.x0, seed.x0 + 2.0, 20):
            x1 = sol.sol(x0)[0]
            assert abs(x0 + b * math.log(abs(math.sinh(x1 / b))) - C) < 1e-6

    def test_domain_exit_reports_parameter(self):
        ctx = ThermalContext(beta=1.0)
        p = SpacetimePoint(0.0, 0.7)
        b = ctx.beta / TWO_PI
        tau_max = b * math.exp(-TWO_PI * p.xL / ctx.beta)
        with pytest.raises(DomainViolation) as exc:
            flow_line(ctx, WEDGE, "gamma", p, (0.0, 2.0 * tau_max), 64)
        assert exc.value.exit_param is not None
        assert exc.value.exit_param >= tau_max - 1e-12


def reference_line(ctx, region, flow, seed, param_range, n):
    """(points, None) or (None, (message, exit_param)): flow_line as one point
    map per parameter, stopping at the first parameter that fails."""
    step = modular_flow_2d if flow == "modular" else gamma_flow_2d
    with np.errstate(invalid="ignore"):
        params = np.linspace(*param_range, n)
    pts = np.empty((n, 2))
    for i, r in enumerate(params):
        try:
            q = step(ctx, region, float(r), seed)
        except DomainViolation as e:
            return None, (f"flow line leaves the domain at parameter {r}: {e}", float(r))
        pts[i] = (q.x0, q.x1)
    return pts, None


def line_outcome(ctx, region, flow, seed, param_range, n):
    """flow_line's result in reference_line's form."""
    try:
        return flow_line(ctx, region, flow, seed, param_range, n).points, None
    except DomainViolation as e:
        return None, (str(e), e.exit_param)


def assert_same_outcome(got, want):
    (pts, err), (ref_pts, ref_err) = got, want
    if ref_err is None:
        assert err is None, err
        assert np.array_equal(pts, ref_pts)
        return
    assert pts is None
    assert err[0] == ref_err[0]
    assert err[1] == ref_err[1] or (math.isnan(err[1]) and math.isnan(ref_err[1]))


@st.composite
def line_cases(draw):
    """A flow line through a point of its region, over a parameter range that
    crosses 0: the modular lines stay inside, the gamma lines may leave."""
    flow = draw(st.sampled_from(["modular", "gamma"]))
    region = draw(st.sampled_from([CONE, WEDGE]))
    beta = draw(st.one_of(
        st.floats(math.log(0.1), math.log(10.0)).map(math.exp), st.just(math.inf)
    ))
    scale = beta if math.isfinite(beta) else 1.0
    xr = draw(st.floats(1e-3, 5.0)) * scale
    xl = draw(st.floats(1e-3, 5.0)) * scale * (1.0 if region is CONE else -1.0)
    span = draw(st.sampled_from([0.05, 1.0, 3.0])) * (1.0 if flow == "modular" else scale)
    lo, hi = -draw(st.floats(0.0, 1.0)) * span, draw(st.floats(0.0, 1.0)) * span
    if draw(st.booleans()):
        lo, hi = hi, lo
    n = draw(st.integers(0, 200))
    return ThermalContext(beta=beta), region, flow, SpacetimePoint.from_lightcone(xl, xr), (lo, hi), n


class TestFlowLineIsThePointMap:
    """Each line evaluates both ray maps once over its parameter array; every
    point and every domain exit is the one the point map gives."""

    @settings(max_examples=150, deadline=None)
    @given(line_cases())
    def test_points_bitwise_equal(self, case):
        assert_same_outcome(line_outcome(*case), reference_line(*case))

    @pytest.mark.parametrize(
        "region, flow, seed, param_range, side",
        [
            # the wedge's gamma flow bounds tau above through xL only
            (WEDGE, "gamma", SpacetimePoint(0.0, 0.1), (0.0, 1.0), "left"),
            # and below through xR only
            (WEDGE, "gamma", SpacetimePoint(0.0, 0.1), (0.0, -1.0), "right"),
            # a cone seed on the time axis has xL = xR: both leave at one
            # parameter, and xL is named
            (CONE, "gamma", SpacetimePoint(0.3, 0.0), (0.0, -2.0), "left"),
            # a seed left of the cone: xL < 0 leaves the plus ray for u << 0
            (CONE, "modular", SpacetimePoint(0.0, 0.5), (0.5, -2.0), "left"),
            # xR leaves first although xL leaves further along
            (CONE, "gamma", SpacetimePoint(0.05, -0.04), (0.0, -1.0), "right"),
        ],
    )
    def test_domain_exit(self, region, flow, seed, param_range, side):
        ctx = ThermalContext(beta=1.0)
        want = reference_line(ctx, region, flow, seed, param_range, 64)
        assert want[1] is not None
        assert f": {side} light-cone coordinate" in want[1][0]
        assert_same_outcome(line_outcome(ctx, region, flow, seed, param_range, 64), want)

    @pytest.mark.parametrize(
        "param_range", [(0.0, math.nan), (0.0, math.inf), (-math.inf, 1.0), (math.nan, 0.0)]
    )
    @pytest.mark.parametrize("flow", ["modular", "gamma"])
    def test_non_finite_range(self, flow, param_range):
        ctx = ThermalContext(beta=1.0)
        seed = SpacetimePoint(0.3, 1.2)
        want = reference_line(ctx, WEDGE, flow, seed, param_range, 5)
        assert "must be finite" in want[1][0]
        assert_same_outcome(line_outcome(ctx, WEDGE, flow, seed, param_range, 5), want)

    def test_two_ray_calls_per_line(self, monkeypatch):
        from modularflow import cone_wedge

        calls = []

        def counted(ctx, direction, u, x):
            calls.append(np.size(u))
            return modular_flow_ray(ctx, direction, u, x)

        monkeypatch.setattr(cone_wedge, "modular_flow_ray", counted)
        flow_line(ThermalContext(beta=1.0), CONE, "modular", SpacetimePoint(1.0, 0.2), (-1, 1), 50)
        assert calls == [50, 50]


class TestFigures:
    def test_cone_modular_figure(self, tmp_path):
        ctx = ThermalContext(beta=1.0)
        path = tmp_path / "fig1.json"
        emit_flow_figure(ctx, CONE, "modular", str(path), fmt="json")
        doc = json.loads(path.read_text())
        assert doc["region"] == "cone"
        assert doc["flow"] == "modular"
        assert len(doc["lines"]) == 12
        for line in doc["lines"]:
            for x0, x1 in line["points"]:
                assert x0 + x1 > 0 and x0 - x1 > 0  # inside the cone

    def test_csv_schema(self, tmp_path):
        ctx = ThermalContext(beta=1.0)
        path = tmp_path / "fig2.csv"
        emit_flow_figure(ctx, WEDGE, "modular", str(path), fmt="csv")
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["line_id", "param", "x0", "x1", "xR", "xL"]
        for r in rows[1:]:
            x0, x1, xr, xl = map(float, r[2:])
            assert abs(xr - (x0 + x1)) < 1e-15
            assert abs(xl - (x0 - x1)) < 1e-15

    def test_svg_output(self, tmp_path):
        ctx = ThermalContext(beta=1.0)
        path = tmp_path / "fig3.svg"
        emit_flow_figure(ctx, CONE, "gamma", str(path), fmt="svg")
        text = path.read_text()
        assert text.count("<polyline") == 12
        assert 'viewBox="-3 -3 6 6"' in text

    @pytest.mark.parametrize("window", [120.0, 400.0])
    @pytest.mark.parametrize("region", [CONE, WEDGE])
    def test_gamma_figures_past_sinh_cosh_overflow(self, tmp_path, region, window):
        # 2 pi x/beta reaches 754 and 2513: figure 3's and 4's points read
        # -inf, and at 400 gamma_line_constant's math.sinh overflowed
        ctx, spec = ThermalContext(beta=1.0), FigureSpec(window=window)
        lines = figure_lines(ctx, region, "gamma", spec)
        for seed, ln in lines:
            assert np.all(np.isfinite(ln.points))
            c = gamma_line_constant(ctx, region, seed)
            for p in ln.points.tolist():
                assert abs(gamma_line_constant(ctx, region, SpacetimePoint(*p)) - c) < 1e-8
        for fmt in ("csv", "json", "svg"):
            path = tmp_path / f"big.{fmt}"
            emit_flow_figure(ctx, region, "gamma", str(path), fmt=fmt, spec=spec)
            text = path.read_text()
            assert not re.search("inf|nan", text, re.IGNORECASE)
        doc = json.loads((tmp_path / "big.json").read_text())
        assert len(doc["lines"]) == len(lines)

    def test_far_log_forms_continue_the_near_ones(self):
        # both sides of |2 pi x/beta| = 700 agree to rounding, and a point
        # below it keeps math's value bit for bit
        ctx, b = ThermalContext(beta=1.0), 1.0 / TWO_PI
        for y in (699.0, 700.0, 700.0 + 1e-9, 701.0, 709.0):
            for x in (y * b, -y * b):
                cone = gamma_line_constant(ctx, CONE, SpacetimePoint(0.0, x))
                wedge = gamma_line_constant(ctx, WEDGE, SpacetimePoint(x, 0.0))
                want_cone = b * math.log(abs(math.sinh(x / b)))
                want_wedge = b * math.log(math.cosh(x / b))
                assert cone == pytest.approx(want_cone, rel=1e-15)
                assert wedge == pytest.approx(want_wedge, rel=1e-15)
                if y <= 700.0:
                    assert (cone, wedge) == (want_cone, want_wedge)

    def test_cone_gamma_translation_invariance(self):
        # the plan's consecutive seeds differ by (delta, 0): their polylines
        # are shifted by (delta, 0) point by point
        ctx, spec = ThermalContext(beta=1.0), FigureSpec()
        lines = figure_lines(ctx, CONE, "gamma", spec)
        assert len(lines) == spec.n_lines
        for (s1, l1), (s2, l2) in zip(lines, lines[1:]):
            delta = s2.x0 - s1.x0
            assert s2.x1 == s1.x1 and delta == pytest.approx(1.5 * 3.0 / (spec.n_lines - 1))
            np.testing.assert_allclose(l2.points[:, 0] - l1.points[:, 0], delta, atol=1e-10)
            np.testing.assert_allclose(l2.points[:, 1], l1.points[:, 1], atol=1e-10)

    def test_wedge_gamma_translation_invariance(self):
        # the plan's consecutive seeds differ by (0, delta)
        ctx, spec = ThermalContext(beta=1.0), FigureSpec()
        lines = figure_lines(ctx, WEDGE, "gamma", spec)
        assert len(lines) == spec.n_lines
        for (s1, l1), (s2, l2) in zip(lines, lines[1:]):
            delta = s2.x1 - s1.x1
            assert s2.x0 == s1.x0 and delta == pytest.approx(1.5 * 3.0 / (spec.n_lines - 1))
            np.testing.assert_allclose(l2.points[:, 1] - l1.points[:, 1], delta, atol=1e-10)
            np.testing.assert_allclose(l2.points[:, 0], l1.points[:, 0], atol=1e-10)

    def test_spec_takes_no_seeds(self):
        # the plan is the only source of seeds
        assert [f.name for f in fields(FigureSpec)] == ["n_lines", "n_samples", "param_span", "window"]
        with pytest.raises(TypeError):
            FigureSpec(seeds=(SpacetimePoint(1.0, 0.2),))

    @pytest.mark.parametrize("window, w", [(None, 5.1), (2.0, 2.0)])
    @pytest.mark.parametrize("region, flow", [(CONE, "modular"), (WEDGE, "modular"), (CONE, "gamma"), (WEDGE, "gamma")])
    def test_plan_places_the_seeds(self, region, flow, window, w):
        ctx, spec = ThermalContext(beta=1.7), FigureSpec(n_lines=5, n_samples=9, window=window)
        lines = figure_lines(ctx, region, flow, spec)
        seeds = [(s.x0, s.x1) for s, _ in lines]
        if flow == "modular":
            # fanned across the region at half the window
            fan = 0.5 * w * np.linspace(-0.9, 0.9, 5)
            want = [(0.5 * w, f) for f in fan] if region is CONE else [(f, 0.5 * w) for f in fan]
            assert all(region.contains(s) for s, _ in lines)
        elif region is CONE:
            want = [(c, 0.35 * w) for c in np.linspace(-0.75 * w, 0.75 * w, 5)]
        else:
            want = [(0.0, c) for c in np.linspace(-1.25 * w, 0.25 * w, 5)]
        np.testing.assert_allclose(seeds, want, rtol=1e-15, atol=0.0)
        if (region, flow) == (CONE, "gamma"):
            # the cone's log term is formed on x1 > 0 only
            for _, ln in lines:
                assert np.all(ln.points[:, 1] > 0.0)

    @pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
    def test_default_window_needs_finite_beta(self, tmp_path, fmt):
        # the default window is 3 beta: at beta = inf it is raised on, before
        # any seed is placed, and no file is written
        ctx = ThermalContext(beta=math.inf)
        path = tmp_path / f"inf.{fmt}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainViolation, match="FigureSpec\\(window="):
                emit_flow_figure(ctx, CONE, "modular", str(path), fmt=fmt)
        assert not path.exists()
        emit_flow_figure(ctx, CONE, "modular", str(path), fmt=fmt, spec=FigureSpec(window=3.0))
        assert path.exists()

    def test_deterministic_output(self, tmp_path):
        ctx = ThermalContext(beta=2.0)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_flow_figure(ctx, WEDGE, "gamma", str(p1), fmt="csv")
        emit_flow_figure(ctx, WEDGE, "gamma", str(p2), fmt="csv")
        assert p1.read_bytes() == p2.read_bytes()


# The renderers as they were written before they formatted one row or point
# per "%": per-value format(float(x), ".17g") and json.dumps(doc, indent=1).
def reference_fmt(x):
    return format(float(x), ".17g")


def reference_csv(lines):
    rows = ["line_id,param,x0,x1,xR,xL"]
    for i, (_, ln) in enumerate(lines):
        for r, (x0, x1) in zip(ln.params, ln.points):
            rows.append(",".join([str(i), *map(reference_fmt, (r, x0, x1, x0 + x1, x0 - x1))]))
    return "\n".join(rows) + "\n"


def reference_json(ctx, region, flow, lines):
    doc = {
        "region": region.value,
        "flow": flow,
        "beta": ctx.beta,
        "lines": [
            {
                "id": i,
                "seed": [seed.x0, seed.x1],
                "points": [[float(a), float(b)] for a, b in ln.points],
            }
            for i, (seed, ln) in enumerate(lines)
        ],
    }
    return json.dumps(doc, indent=1) + "\n"


def reference_svg(lines, window, stroke_width):
    f, w, sw = reference_fmt, window, stroke_width
    text = (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{f(-w)} {f(-w)} {f(2 * w)} {f(2 * w)}">\n'
        f'<line x1="{f(-w)}" y1="{f(-w)}" x2="{f(w)}" y2="{f(w)}" '
        f'stroke="#888" stroke-width="{f(sw / 2)}"/>\n'
        f'<line x1="{f(-w)}" y1="{f(w)}" x2="{f(w)}" y2="{f(-w)}" '
        f'stroke="#888" stroke-width="{f(sw / 2)}"/>\n'
    )
    for _, ln in lines:
        pts = " ".join(f"{f(x1)},{f(-x0)}" for x0, x1 in ln.points)
        text += f'<polyline fill="none" stroke="#000" stroke-width="{f(sw)}" points="{pts}"/>\n'
    return text + "</svg>\n"


# -0, subnormals, the float extremes, non-finite values, and values whose
# repr (0.1) and "%.17g" (0.10000000000000001) differ
SPECIAL = [0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1e308, 1.7976931348623157e308,
           math.nan, math.inf, -math.inf, 0.1, -1 / 3, 1e16, 1e-5, 2.0**-1074 * 3]
numbers = st.one_of(st.sampled_from(SPECIAL), st.floats())
coordinates = st.one_of(st.integers(-10**6, 10**6), numbers, numbers.map(np.float64))
rows = st.lists(st.tuples(numbers, numbers, numbers), max_size=5)  # one-point and empty lines
figure = st.lists(st.tuples(st.builds(SpacetimePoint, coordinates, coordinates), rows), max_size=4)


def as_lines(drawn):
    return [
        (seed, FlowLine(np.array([r[0] for r in pts], dtype=float),
                        np.array([r[1:] for r in pts], dtype=float).reshape(-1, 2)))
        for seed, pts in drawn
    ]


class TestRenderers:
    # the renderers write the bytes of the per-value references
    @settings(max_examples=300, deadline=None)
    @given(
        drawn=figure,
        beta=st.one_of(st.integers(1, 5), st.floats(1e-3, 1e3)),
        region=st.sampled_from(list(Region)),
        flow=st.sampled_from(["modular", "gamma"]),
        window=numbers,
    )
    def test_same_bytes_as_the_references(self, drawn, beta, region, flow, window):
        ctx, lines = ThermalContext(beta=beta), as_lines(drawn)
        render = {
            "csv": cone_wedge._render_csv,
            "json": lambda fig: cone_wedge._render_json(fig, ctx, region, flow),
            "svg0": lambda fig: cone_wedge._render_svg(fig, window, 0.01 * beta),
            "svg1": lambda fig: cone_wedge._render_svg(fig, window, window),
        }
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, 1e308 + 1e308
            want = {
                "csv": reference_csv(lines),
                "json": reference_json(ctx, region, flow, lines),
                "svg0": reference_svg(lines, window, 0.01 * beta),
                "svg1": reference_svg(lines, window, window),
            }
            # each format on a figure of its own, then all of them on one
            # figure, svg first and csv first
            for fmt in render:
                assert render[fmt](cone_wedge._figure(lines)) == want[fmt]
            for order in (["svg0", "json", "csv", "svg1"], ["csv", "svg1", "json", "svg0"]):
                fig = cone_wedge._figure(lines)
                for fmt in order:
                    assert render[fmt](fig) == want[fmt]

    @pytest.mark.parametrize("beta", [1, 1.7])
    @pytest.mark.parametrize("spec", [FigureSpec(n_lines=3, n_samples=9), FigureSpec(n_samples=1), FigureSpec(n_lines=0)])
    @pytest.mark.parametrize("region, flow", [(CONE, "modular"), (WEDGE, "modular"), (CONE, "gamma"), (WEDGE, "gamma")])
    def test_figures_match_the_references(self, tmp_path, beta, spec, region, flow):
        ctx = ThermalContext(beta=beta)
        lines = figure_lines(ctx, region, flow, spec)
        w = 3.0 * beta
        for fmt, want in (("csv", reference_csv(lines)),
                          ("json", reference_json(ctx, region, flow, lines)),
                          ("svg", reference_svg(lines, w, 0.01 * beta))):
            path = tmp_path / f"figure.{fmt}"
            emit_flow_figure(ctx, region, flow, str(path), fmt=fmt, spec=spec)
            assert path.read_text() == want

    @pytest.mark.parametrize("region", [CONE, WEDGE])
    def test_infinite_beta_writes_valid_json_and_svg(self, tmp_path, region):
        # the vacuum figures `mfl figure --which 1|2 --beta inf` draws
        ctx, spec = ThermalContext(beta=math.inf), FigureSpec(window=3.0)

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        emit_flow_figure(ctx, region, "modular", str(tmp_path / "f.json"), fmt="json", spec=spec)
        doc = json.loads((tmp_path / "f.json").read_text(), parse_constant=reject)
        assert doc["beta"] == "inf" and len(doc["lines"]) == 12
        emit_flow_figure(ctx, region, "modular", str(tmp_path / "f.svg"), fmt="svg", spec=spec)
        text = (tmp_path / "f.svg").read_text()
        values = re.findall(r'="([^"]*)"', text)
        assert not [v for v in values if re.search("inf|nan", v)]
        assert text.count('stroke-width="0.01"') == 12  # window/300, 0.01 beta at a 3 beta window


class TestEmittedLines:
    """emit_flow_figure computes a figure's lines once for all its formats."""

    @pytest.fixture(autouse=True)
    def cold(self):
        cone_wedge._emitted_figure.cache_clear()
        yield
        cone_wedge._emitted_figure.cache_clear()

    @staticmethod
    def emit(path, ctx, region, flow, spec, fmt):
        emit_flow_figure(ctx, region, flow, str(path), fmt=fmt, spec=spec)
        return path.read_text()

    def cold_emit(self, path, *args):
        cone_wedge._emitted_figure.cache_clear()
        return self.emit(path, *args)

    def test_one_figure_lines_call_for_three_formats(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return figure_lines(*args)

        monkeypatch.setattr(cone_wedge, "figure_lines", counted)
        ctx, spec = ThermalContext(beta=1.3), FigureSpec(n_lines=3, n_samples=7)
        for region, flow in [(CONE, "modular"), (WEDGE, "modular"), (CONE, "gamma"), (WEDGE, "gamma")]:
            for fmt in ("csv", "json", "svg", "csv"):
                got = self.emit(tmp_path / f"warm.{fmt}", ctx, region, flow, spec, fmt)
                assert got == self.cold_emit(tmp_path / f"cold.{fmt}", ctx, region, flow, spec, fmt)
        # one call per figure when warm, one per cold emission
        assert len(calls) == 4 + 4 * 4

    @pytest.mark.parametrize("order", [("csv", "json", "svg"), ("svg", "json", "csv"), ("json", "svg", "csv")])
    @pytest.mark.parametrize("beta", [1.0, math.inf])
    def test_every_order_writes_the_cold_bytes(self, tmp_path, beta, order):
        ctx, spec = ThermalContext(beta=beta), FigureSpec(n_lines=3, n_samples=9, window=3.0)
        figures = [(CONE, "modular"), (WEDGE, "modular")]
        if ctx.finite:
            figures += [(CONE, "gamma"), (WEDGE, "gamma")]
        for region, flow in figures:
            cold = {fmt: self.cold_emit(tmp_path / f"cold.{fmt}", ctx, region, flow, spec, fmt)
                    for fmt in order}
            cone_wedge._emitted_figure.cache_clear()
            for fmt in order:
                assert self.emit(tmp_path / f"warm.{fmt}", ctx, region, flow, spec, fmt) == cold[fmt]

    def test_svg_alone_formats_only_x0_and_x1(self, tmp_path, monkeypatch):
        formatted = []

        def spy(col, spec, memo):
            formatted.append((col.tobytes(), spec))
            return strings(col, spec, memo)

        strings = cone_wedge._strings
        monkeypatch.setattr(cone_wedge, "_strings", spy)
        ctx, spec = ThermalContext(beta=1.0), FigureSpec(n_lines=3, n_samples=9)
        self.emit(tmp_path / "f.svg", ctx, CONE, "modular", spec, "svg")
        lines = figure_lines(ctx, CONE, "modular", spec)
        assert formatted == [(c.tobytes(), "%.17g") for _, ln in lines for c in ln.points.T]

    @pytest.mark.parametrize("x0, y", [
        (0.0, "-0"), (-0.0, "0"), (math.nan, "nan"), (math.inf, "-inf"), (-math.inf, "inf"),
        (5e-324, "-4.9406564584124654e-324"), (-2.5e-310, "2.5000000000000171e-310"),
    ])
    def test_svg_toggles_the_sign_of_x0(self, x0, y):
        # the svg y coordinate is "%.17g" % -x0, made from x0's string
        assert "%.17g" % -x0 == y
        line = FlowLine(np.array([0.0]), np.array([[x0, 1.0]]))
        fig = cone_wedge._figure([(SpacetimePoint(1.0, 0.0), line)])
        assert f'points="1,{y}"' in cone_wedge._render_svg(fig, 1.0, 0.01)

    @pytest.mark.parametrize("region, field, a, b, fmt", [
        (CONE, "param_span", 0.0, -0.0, "csv"),
        (CONE, "window", 0.0, -0.0, "csv"),
        (CONE, "window", -0.0, 0.0, "json"),
        (WEDGE, "param_span", -0.0, 0.0, "json"),
        (WEDGE, "window", 0.0, -0.0, "csv"),
    ])
    def test_signed_zeros_are_distinct_figures(self, tmp_path, region, field, a, b, fmt):
        # 0.0 == -0.0 and both hash alike, but they print apart
        ctx = ThermalContext(beta=1.0)
        for value in (a, b):
            spec = FigureSpec(n_lines=2, n_samples=2, **{field: value})
            got = self.emit(tmp_path / f"warm.{fmt}", ctx, region, "modular", spec, fmt)
            assert got == self.cold_emit(tmp_path / f"cold.{fmt}", ctx, region, "modular", spec, fmt)

    def test_negative_zero_span_after_positive(self, tmp_path):
        ctx = ThermalContext(beta=1.0)
        for span in (0.0, -0.0):
            spec = FigureSpec(n_lines=2, n_samples=2, param_span=span)
            text = self.emit(tmp_path / "f.csv", ctx, CONE, "modular", spec, "csv")
        assert text.splitlines()[2].startswith("0,-0,1.5,")

    def test_cached_lines_are_read_only(self, tmp_path):
        ctx, spec = ThermalContext(beta=1.0), FigureSpec(n_lines=2, n_samples=5)
        for region, flow in [(CONE, "modular"), (CONE, "gamma"), (WEDGE, "gamma")]:
            self.emit(tmp_path / "f.csv", ctx, region, flow, spec, "csv")
            lines = cone_wedge._emitted_figure(repr((ctx, spec)), ctx, region, flow, spec).lines
            assert isinstance(lines, tuple)
            for _, ln in lines:
                for a in (ln.params, ln.points):
                    with pytest.raises(ValueError, match="read-only"):
                        a[0] = 7.0
        assert cone_wedge._emitted_figure.cache_info().hits == 3

    def test_public_lines_stay_writable_and_apart(self, tmp_path):
        ctx, spec = ThermalContext(beta=1.0), FigureSpec(n_lines=2, n_samples=5)
        want = self.emit(tmp_path / "a.csv", ctx, WEDGE, "modular", spec, "csv")
        lines = figure_lines(ctx, WEDGE, "modular", spec)
        for _, ln in lines:
            ln.params[:] = 7.0
            ln.points[:] = 7.0
        lines.clear()
        assert self.emit(tmp_path / "b.csv", ctx, WEDGE, "modular", spec, "csv") == want

    @pytest.mark.parametrize("beta, flow, spec, error", [
        (1.0, "spiral", FigureSpec(), ValueError),
        # the span's width 2e308 overflows: the first u is nan, where the flow fails
        (1.0, "modular", FigureSpec(param_span=1e308), DomainViolation),
        (math.inf, "modular", FigureSpec(), DomainViolation),
    ])
    def test_failures_raise_on_every_repeat(self, tmp_path, beta, flow, spec, error):
        ctx = ThermalContext(beta=beta)
        for fmt in ("csv", "json", "svg") * 2:
            path = tmp_path / f"f.{fmt}"
            with pytest.raises(error):
                emit_flow_figure(ctx, CONE, flow, str(path), fmt=fmt, spec=spec)
            assert not path.exists()
        assert cone_wedge._emitted_figure.cache_info().currsize == 0
