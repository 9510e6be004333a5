"""Verification-layer tests.

The Gaussian matrix elements act as the oracle throughout: bound values are
direct formula evaluations, rates are predicted by the e^{-2 pi t/beta}
factor in the deviation, and the boundary identity compares two
independently coded closed forms.
"""

import json
import math
import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from modularflow import cone_wedge, flow_maps, verify, weyl_field
from modularflow.errors import DomainViolation, QuadratureError
from modularflow.flow_maps import ThermalContext
from modularflow.verify import (
    CaseResult,
    convergence_rate,
    gamma_conjugation_deviation,
    kms_boundary_check,
    kms_pointwise_identity,
    translation_conjugation_deviation,
    report_json,
    run_suite,
    matrix_element_bound,
    vector_deviation,
)
from modularflow.weyl_field import (
    FieldSpec,
    StateNormalization,
    TestFunction,
    _czt_plan,
    _simpson_weights,
    modular_transform,
    weyl_inner,
)

TWO_PI = 2.0 * math.pi
N0 = FieldSpec(0)


@pytest.fixture(scope="module")
def ctx():
    return ThermalContext(beta=1.0)


@pytest.fixture(scope="module")
def f_pos():
    # bump inside the open positive half-line
    return TestFunction.bump(0.5, 0.5).translate(0.02)


@pytest.fixture(scope="module")
def g_neg():
    return TestFunction.bump(-1.5, 0.5)


class TestBound:
    def test_u_zero_trivial(self, ctx, f_pos, g_neg):
        rep = matrix_element_bound(ctx, N0, f_pos, g_neg, 0.0, 1.0)
        assert rep.lhs == 0.0
        assert rep.rhs == 0.0
        assert rep.margin == 0.0

    def test_reference_formula_value(self, ctx, f_pos, g_neg):
        # t = 5 beta, u = 0.1: bound is 2 (e^{0.2 pi} - 1)/(e^{10 pi} - 1)
        rep = matrix_element_bound(ctx, N0, f_pos, g_neg, 0.1, 5.0)
        expected = 2.0 * (math.exp(0.2 * math.pi) - 1.0) / (math.exp(10 * math.pi) - 1.0)
        # rhs is 3.97e-14: approx's default absolute tolerance of 1e-12 would
        # let rhs = 0 or 2 * expected pass
        assert rep.rhs == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert rep.lhs <= rep.rhs

    def test_small_t_branch_saturates(self, ctx, f_pos, g_neg):
        # for t -> 0+ the min picks 1 and the bound is 2M = 2
        rep = matrix_element_bound(ctx, N0, f_pos, g_neg, 1.0, 0.05)
        assert rep.rhs == 2.0
        assert rep.lhs <= 2.0

    @pytest.mark.parametrize("npts, u, t", [(65536, 0.5, 115.0), (32768, 120.0, 2.0)])
    def test_rhs_past_the_expm1_range(self, f_pos, g_neg, npts, u, t):
        # 2 pi t/beta or 2 pi u above 709.78, where math.expm1 raised
        # OverflowError: the bound is 2 min(|e^{2pi u} - 1|/(e^{2pi t} - 1), 1),
        # a subnormal 6.9e-313 and 2 (the grids keep the rows alias-free)
        import mpmath

        rep = matrix_element_bound(ThermalContext(1.0, npts=npts), N0, f_pos, g_neg, u, t)
        a, b = TWO_PI * mpmath.mpf(u), TWO_PI * mpmath.mpf(t)
        want = float(2 * min(abs(mpmath.expm1(a)) / mpmath.expm1(b), 1))
        assert rep.rhs == pytest.approx(want, rel=1e-9, abs=0.0)
        assert rep.lhs <= rep.rhs

    def test_bound_ratio_across_the_expm1_range(self):
        # the ratio min(|e^a - 1|/(e^b - 1), 1) on both sides of a, b = 709,
        # against mpmath; past 745 it underflows to 0
        import mpmath

        cases = [(3.0, 708.9), (3.0, 709.0), (-2.0, 709.5), (0.0, 720.0), (708.5, 709.5),
                 (750.0, 760.0), (800.0, 790.0), (709.5, 100.0), (3.0, 760.0)]
        for a, b in cases:
            want = min(abs(mpmath.expm1(a)) / mpmath.expm1(b), 1)
            assert verify._expm1_ratio(a, b) == pytest.approx(float(want), rel=1e-12, abs=0.0)
        assert verify._expm1_ratio(3.0, 760.0) == 0.0

    def test_margin_on_subgrid(self, ctx, f_pos, g_neg):
        for u in (-1.0, -0.3, 0.4, 1.0):
            for t in (0.5, 2.0, 6.0):
                rep = matrix_element_bound(ctx, N0, f_pos, g_neg, u, t)
                assert rep.margin >= -1e-9

    def test_preconditions(self, ctx, f_pos, g_neg):
        with pytest.raises(DomainViolation):
            matrix_element_bound(ctx, N0, g_neg, g_neg, 0.1, 1.0)
        with pytest.raises(DomainViolation):
            matrix_element_bound(ctx, N0, f_pos, f_pos, 0.1, 1.0)
        with pytest.raises(DomainViolation):
            matrix_element_bound(ctx, N0, f_pos, g_neg, 0.1, -1.0)

    def test_under_resolved_f_raises(self, ctx, g_neg):
        narrow = TestFunction.bump(0.5, 0.02)
        with pytest.raises(QuadratureError, match="symplectic form"):
            matrix_element_bound(ctx, N0, narrow, g_neg, 0.3, 1.0)

    def test_under_resolved_g_raises(self, ctx, f_pos):
        narrow = TestFunction.bump(0.5, 0.02).translate(-1.0)
        with pytest.raises(QuadratureError, match="symplectic form"):
            matrix_element_bound(ctx, N0, f_pos, narrow, 0.3, 1.0)

    def test_lhs_is_the_overlap_difference(self, ctx, f_pos, g_neg):
        # at t >= beta the two overlaps agree to every digit and their
        # difference cancels completely, so compare at t = 0.5 beta
        u, t = 1.0, 0.5
        h1 = modular_transform(ctx, u, f_pos.translate(t))
        h2 = f_pos.translate(t - ctx.beta * u)
        norm = StateNormalization()
        direct = abs(weyl_inner(ctx, N0, norm, g_neg, h1) - weyl_inner(ctx, N0, norm, g_neg, h2))
        rep = matrix_element_bound(ctx, N0, f_pos, g_neg, u, t)
        assert rep.lhs == pytest.approx(direct, rel=1e-6)

    def test_lhs_matches_refined_reference(self, ctx, f_pos, g_neg):
        # the thm22 bumps at u = 0.1, t = 2.5 beta against the same bumps on
        # 8192 samples and 16384 momentum nodes; a deviation on a grid of
        # its own put the lhs 2.35% off
        fine_f = TestFunction.bump(0.5, 0.5, n=8192).translate(0.02)
        fine_g = TestFunction.bump(-1.5, 0.5, n=8192)
        fine_ctx = ThermalContext(beta=1.0, npts=16384)
        ref = matrix_element_bound(fine_ctx, N0, fine_f, fine_g, 0.1, 2.5).lhs
        lhs = matrix_element_bound(ctx, N0, f_pos, g_neg, 0.1, 2.5).lhs
        assert lhs == pytest.approx(ref, rel=1e-3, abs=0.0)

    def test_thm22_pass_builds_few_plans(self):
        # every deviation shares f's step, so its chirp-z plans differ only
        # in length; one plan per node was 178 builds
        _czt_plan.cache_clear()
        run_suite("thm22", beta=1.0)
        assert _czt_plan.cache_info().misses <= 12

    def test_verify_pass_builds_few_plans(self):
        # transforms are cached on their functions, so a pass at a new beta
        # builds its plans afresh whatever the cache keeps: four cached plans
        # cost it two builds over sixteen (33)
        _czt_plan.cache_clear()
        run_suite("all", beta=1.0)
        before = _czt_plan.cache_info().misses
        run_suite("all", beta=1.4)
        assert _czt_plan.cache_info().misses - before <= 35
        assert _czt_plan.cache_info().currsize <= 4

    def test_beta_keyed_caches_hold_two_contexts(self):
        # each pass at a new beta builds its grid and folded kernels once
        # and the caches keep no more than two contexts
        caches = (weyl_field._grid_cached, weyl_field._density, weyl_field._field_weight)
        for cache in caches:
            cache.cache_clear()
        for beta in (0.6, 1.0, 1.7):
            misses = [cache.cache_info().misses for cache in caches]
            run_suite("all", beta=beta)
            for cache, before in zip(caches, misses):
                assert cache.cache_info().misses - before == 1
                assert cache.cache_info().currsize <= 2

    def test_rows_take_no_grid_sized_complex_exp(self, monkeypatch, ctx):
        # every phase over the momentum grid is built from _phases' two
        # small tables; a chirp-z plan computes its chirp once, so the plans
        # are warmed first, and the functions are fresh, transforms included
        m = len(weyl_field.momentum_grid(ctx)) // 2 + 1

        def rows():
            f = TestFunction.bump(0.5, 0.5).translate(0.02)
            g = TestFunction.bump(-1.5, 0.5)
            matrix_element_bound(ctx, N0, f, g, 0.3, np.linspace(0.5, 6.0, 12))
            convergence_rate(ctx, N0, f, 0.3, [3.0, 4.0, 5.0, 6.0])

        rows()
        big, exp = [], np.exp

        def exp_spy(x, *args, **kw):
            if np.iscomplexobj(x) and np.size(x) >= m:
                big.append(np.shape(x))
            return exp(x, *args, **kw)

        monkeypatch.setattr(np, "exp", exp_spy)
        rows()
        assert big == []

    def test_nan_margin_fails_the_suite(self, monkeypatch):
        # `margin < worst_margin` is False for NaN, so the NaN node was
        # skipped; it must stay the worst even where later margins are smaller.
        # The suite evaluates one u row of t values per call.
        def bound(ctx, spec, f, g, u, t):
            nan_at = (abs(u - 0.3) < 1e-9) & (t == 2.0)
            lhs = np.where(nan_at, math.nan, 0.5 * (u == 1.0))
            return verify.BoundReport(lhs=lhs, rhs=np.ones_like(t))

        monkeypatch.setattr(verify, "matrix_element_bound", bound)
        (case,) = run_suite("thm22", beta=1.0)
        assert math.isnan(case.lhs)
        assert not case.passed
        assert case.params["worst_at"] == (pytest.approx(0.3), 2.0)

    @pytest.mark.parametrize("u", [-1.0, -0.3, 0.0, 0.4, 1.0])
    def test_row_matches_single_nodes(self, ctx, f_pos, g_neg, u):
        # a row of 12 t values is zero-padded to one length and transformed
        # at once; each node alone is padded to its own range only
        ts = np.linspace(0.5, 6.0, 12)
        row = matrix_element_bound(ctx, N0, f_pos, g_neg, u, ts)
        lhs, rhs = row.lhs, row.rhs
        assert lhs.shape == rhs.shape == ts.shape
        single = [matrix_element_bound(ctx, N0, f_pos, g_neg, u, float(t)) for t in ts]
        assert np.array_equal(rhs, [rep.rhs for rep in single])
        if u == 0.0:
            assert np.all(lhs == 0.0)
            assert all(rep.lhs == 0.0 for rep in single)
        else:
            assert np.all(lhs > 0.0)
            assert lhs == pytest.approx([rep.lhs for rep in single], rel=1e-6, abs=0.0)

    def test_rate_row_matches_single_nodes(self, ctx, f_pos):
        ts = [3.0, 4.0, 5.0, 6.0]
        rep = convergence_rate(ctx, N0, f_pos, 0.3, ts)
        single = [vector_deviation(ctx, N0, f_pos, 0.3, t) for t in ts]
        assert rep.deviations == pytest.approx(single, rel=1e-6, abs=0.0)
        assert np.array_equal(vector_deviation(ctx, N0, f_pos, 0.3, np.array(ts)),
                              rep.deviations)

    # pi/dp - 6 beta ~ 58.34 beta on the default grid: at t = 62 beta the
    # row spans 64.5 beta against g, and unguarded the lhs read 5.11e-174
    # where 65536 nodes give 7.05e-178
    def test_aliased_row_raises(self, ctx, f_pos, g_neg):
        for t in (62.0, np.array([6.0, 62.0])):
            with pytest.raises(QuadratureError, match="supports 64.52 apart"):
                matrix_element_bound(ctx, N0, f_pos, g_neg, 0.5, t)

    # the lhs is what is left of near-cancelling pairings, so it follows the
    # transforms' last digits; a direct DFT of the same lattice sums gives
    # 4.6520308818e-25 and 9.0716559315e-159
    @pytest.mark.parametrize(
        "t, lhs, dev",
        [(6.0, 4.65203088377021e-25, 4.535307143656997e-17),
         (55.0, 9.071655919031277e-159, 8.86592447734657e-151)],
    )
    def test_guarded_values_kept(self, ctx, f_pos, g_neg, t, lhs, dev):
        # the values of the unguarded sums, inside the guard's reach
        rep = matrix_element_bound(ctx, N0, f_pos, g_neg, 0.5, t)
        assert rep.lhs == pytest.approx(lhs, rel=1e-9, abs=0.0)
        assert vector_deviation(ctx, N0, f_pos, 0.5, t) == pytest.approx(dev, rel=1e-9, abs=0.0)

    def test_underflowed_deviation_raises(self, ctx, f_pos):
        # D^2 ~ e^{-4 pi t/beta} underflows inside the pairing: at t = 62 the
        # norm read exactly 0.0 where the e^{-2 pi t/beta} rate from
        # D(55) = 8.87e-151 puts it near 7e-170
        for t in (62.0, np.array([6.0, 62.0])):
            with pytest.raises(QuadratureError, match="underflowed at t=62"):
                vector_deviation(ctx, N0, f_pos, 0.5, t)
        dev = vector_deviation(ctx, N0, f_pos, 0.5, 6.0)
        assert dev == pytest.approx(4.5353071436510885e-17, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("t", [np.ones((2, 2)), np.ones((1, 3))])
    def test_2d_separations_name_their_shape(self, monkeypatch, ctx, f_pos, g_neg, t):
        # numpy's broadcast error from inside the pairings said nothing of t
        def pairing(*args):
            raise AssertionError("paired a 2-D t")

        monkeypatch.setattr(verify, "_deviation_exponents", pairing)
        msg = re.escape(f"t must be a scalar, or a 1-D array, got shape {t.shape}")
        with pytest.raises(ValueError, match=msg):
            matrix_element_bound(ctx, N0, f_pos, g_neg, 0.3, t)
        with pytest.raises(ValueError, match=msg):
            vector_deviation(ctx, N0, f_pos, 0.3, t)

    @pytest.mark.parametrize(
        "suite, name, t_at, calls",
        [("thm22", "matrix_element_bound", 5, 21), ("rates", "vector_deviation", 4, 3)],
    )
    def test_suite_rows_go_through_the_public_function(
        self, monkeypatch, suite, name, t_at, calls
    ):
        # one call per u row of the thm22 grid and per rates shape, so a
        # wrapper on the public function (as in a traced run) sees the work
        seen = []
        fn = getattr(verify, name)

        def spy(*args, **kwargs):
            seen.append(args[t_at])
            return fn(*args, **kwargs)

        monkeypatch.setattr(verify, name, spy)
        run_suite(suite, beta=1.0)
        assert len(seen) == calls
        assert all(np.ndim(t) == 1 for t in seen)


class TestRate:
    def test_u_zero_gives_zero_deviation(self, ctx, f_pos):
        assert vector_deviation(ctx, N0, f_pos, 0.0, 3.0) == 0.0
        # nothing underflowed there: it used to raise "deviation underflowed"
        with pytest.raises(ValueError, match="u must be nonzero"):
            convergence_rate(ctx, N0, f_pos, 0.0, [3.0, 4.0])

    def test_slope_matches_prediction(self, ctx, f_pos):
        rep = convergence_rate(ctx, N0, f_pos, 0.3, [3.0, 4.0, 5.0, 6.0])
        assert rep.slope_relative_error < 0.05
        assert rep.expected_slope == pytest.approx(-TWO_PI)

    def test_monotone_decrease(self, ctx, f_pos):
        rep = convergence_rate(ctx, N0, f_pos, 0.3, [3.0, 4.0, 5.0, 6.0])
        assert all(
            rep.deviations[i + 1] < rep.deviations[i]
            for i in range(len(rep.deviations) - 1)
        )

    def test_three_shapes(self, ctx):
        for f in (
            TestFunction.bump(0.6, 0.25),
            TestFunction.bump(1.0, 0.8).translate(0.05),
        ):
            rep = convergence_rate(ctx, N0, f, 0.3, [3.0, 4.5, 6.0])
            assert rep.slope_relative_error < 0.05

    def test_deviation_scale(self, ctx, f_pos):
        # D(t) tracks e^{-2 pi t} over three decades
        d3 = vector_deviation(ctx, N0, f_pos, 0.3, 3.0)
        d4 = vector_deviation(ctx, N0, f_pos, 0.3, 4.0)
        assert d4 / d3 == pytest.approx(math.exp(-TWO_PI), rel=1e-2)

    @pytest.mark.parametrize("beta", [1.0, 1.7])
    @pytest.mark.parametrize("u", [0.3, -0.2])
    @pytest.mark.parametrize("t_over_beta", [0.5, 1.0])
    def test_deviation_is_the_overlap_norm(self, beta, u, t_over_beta):
        # D(t)^2 = 2 - 2 Re <W(h2)O, W(h1)O>; beyond t ~ 2 beta the overlap
        # is 1 to all but a few digits and the direct form cancels away
        ctx = ThermalContext(beta=beta)
        f = TestFunction.bump(0.5 * beta, 0.5 * beta).translate(0.02 * beta)
        t = t_over_beta * beta
        h1 = modular_transform(ctx, u, f.translate(t))
        h2 = f.translate(t - beta * u)
        direct = math.sqrt(2.0 - 2.0 * weyl_inner(ctx, N0, StateNormalization(), h2, h1).real)
        assert vector_deviation(ctx, N0, f, u, t) == pytest.approx(direct, rel=1e-7)


class TestOperatorRelations:
    def test_translation_conjugation_trivial(self, ctx, f_pos):
        assert translation_conjugation_deviation(ctx, f_pos, 0.0, 0.7) < 1e-12
        assert translation_conjugation_deviation(ctx, f_pos, 0.4, 0.0) < 1e-10

    def test_translation_conjugation_reference(self, ctx, f_pos):
        assert translation_conjugation_deviation(ctx, f_pos, 0.25, 0.5) < 1e-8

    def test_parameter_grid(self, ctx, f_pos):
        worst = 0.0
        for u in np.linspace(-0.4, 0.4, 5):
            for t in np.linspace(0.1, 1.2, 5):
                worst = max(
                    worst, translation_conjugation_deviation(ctx, f_pos, float(u), float(t))
                )
        assert worst < 1e-8

    def test_gamma_conjugation_trivial(self, ctx, f_pos):
        assert gamma_conjugation_deviation(ctx, f_pos, 0.0, 0.5) < 1e-12
        assert gamma_conjugation_deviation(ctx, f_pos, 0.1, 0.0) < 1e-10

    def test_gamma_conjugation_reference(self, ctx, f_pos):
        # t chosen so the conjugated parameter scale is exactly 2
        t = math.log(2.0) / TWO_PI
        assert gamma_conjugation_deviation(ctx, f_pos, 0.1, t) < 1e-8

    def test_gamma_grid(self, ctx, f_pos):
        worst = 0.0
        for tau in np.linspace(0.02, 0.3, 5):
            for t in np.linspace(-0.5, 0.5, 5):
                worst = max(
                    worst, gamma_conjugation_deviation(ctx, f_pos, float(tau), float(t))
                )
        assert worst < 1e-8


class TestKmsBoundary:
    def test_pointwise_closed_forms_agree(self, ctx):
        # At finite eps the two forms differ only through the regulator's
        # placement (O(eps) in Im, O(eps^2) in Re); the boundary values they
        # define, recovered by extrapolation, agree to 1e-10.  The reference
        # point (x, y, u) = (1, 2, 0.3) is checked along with a grid of
        # positive (x, y) at several u.
        eps = 1e-4

        def extrapolated(u, x, y, e):
            c1, d1 = kms_pointwise_identity(ctx, u, x, y, e)
            c2, d2 = kms_pointwise_identity(ctx, u, x, y, e / 2)
            c0 = complex((4 * c2.real - c1.real) / 3, 2 * c2.imag - c1.imag)
            d0 = complex((4 * d2.real - d1.real) / 3, 2 * d2.imag - d1.imag)
            return c0, d0, c1, d1

        c0, d0, c1, d1 = extrapolated(0.3, 1.0, 2.0, eps)
        assert abs(c1 - d1) / abs(d1) < 1e-3
        assert abs(c1.real - d1.real) / abs(d1.real) < 1e-6
        assert abs(c0 - d0) / abs(d0) < 1e-10
        # grid sweep: residuals grow like (eps/|x - L|)^4 near the flow image
        # of y, so the sweep uses a smaller regulator
        worst = 0.0
        for u in (-0.4, 0.2, 0.6):
            for x in (0.4, 1.3):
                for y in (0.7, 2.2):
                    c0, d0, _, _ = extrapolated(u, x, y, 1e-5)
                    worst = max(worst, abs(c0 - d0) / abs(d0))
        assert worst < 1e-10

    def test_smeared_identity(self, ctx):
        f = TestFunction.bump(0.5, 0.3)
        g = TestFunction.bump(1.85, 0.35)
        rep = kms_boundary_check(ctx, f, g, np.linspace(-0.5, 0.5, 5), 1e-4)
        assert rep.deviation < 1e-6
        assert rep.relative < 1e-6

    def test_matches_complex_reference_smear(self, ctx):
        # both closed forms as complex grids on the whole 101 x 101 grid
        # (complex sinh(z + ib), complex division, the flow image in its
        # closed form) at eps/4, eps/2 and eps, summed over both axes by
        # scipy's simpson; they agree to 1.0e-8 of a deviation that is
        # 7.4e-12 of the direct form's smear, so that is rounding
        from scipy.integrate import simpson

        beta, eps, us = 1.0, 1e-4, [-0.5, 0.0, 0.5]
        f, g = TestFunction.bump(0.5, 0.3), TestFunction.bump(1.85, 0.35)
        x = np.linspace(*f.support, 101)[:, None]
        y = np.linspace(*g.support, 101)[None, :]
        fg = f(x[:, 0])[:, None] * g(y[0])[None, :]

        def smear(form):
            return simpson(simpson(form * fg, x=y[0], axis=1), x=x[:, 0])

        ey = np.exp(TWO_PI * y / beta)
        sh, ch = np.sinh(math.pi * x / beta), np.cosh(math.pi * x / beta)
        deviation = relative = 0.0
        for u in us:
            L = beta / TWO_PI * np.log1p(math.exp(-TWO_PI * u) * np.expm1(TWO_PI * y / beta))
            dL = math.exp(-TWO_PI * u) * ey / (1.0 + math.exp(-TWO_PI * u) * (ey - 1.0))
            bracket = math.exp(-math.pi * u) * (ey - 1.0) * (ch - sh) - math.exp(
                math.pi * u
            ) * 2.0 * sh
            diff = []
            for e in (eps / 4.0, eps / 2.0, eps):
                continued = 4.0 * ey / beta**2 / (-bracket + 1j * e) ** 2
                z = math.pi * (x - L) / beta + 1j * math.pi * e / beta
                direct = dL / (beta**2 * np.sinh(z) ** 2)
                diff.append(smear(continued - direct))
                if e == eps / 4.0:
                    scale = abs(smear(direct))
            dev = abs(8.0 * diff[0] - 6.0 * diff[1] + diff[2]) / 3.0
            deviation = max(deviation, dev)
            relative = max(relative, dev / scale)
        rep = kms_boundary_check(ctx, f, g, us, eps)
        assert rep.deviation == pytest.approx(deviation, rel=1e-7, abs=0.0)
        assert rep.relative == pytest.approx(relative, rel=1e-7, abs=0.0)

    # reference values: the unnormalized deviation at the suite's inputs from
    # the complex-sinh reference smear above, on the suite's seven u
    @pytest.mark.parametrize(
        "beta, before",
        [(0.6, 5.814337856781869e-15), (1.0, 5.81433742822266e-15), (1.7, 5.814337634296326e-15)],
    )
    def test_suite_inputs_keep_their_deviation(self, beta, before):
        rep = self.suite_check(beta)
        assert rep.deviation == pytest.approx(before, rel=1e-7, abs=0.0)
        assert rep.relative < 1e-11

    @staticmethod
    def suite_check(beta):
        return kms_boundary_check(
            ThermalContext(beta=beta),
            TestFunction.bump(0.5 * beta, 0.3 * beta),
            TestFunction.bump(1.85 * beta, 0.35 * beta),
            np.linspace(-0.5, 0.5, 7),
            1e-4 * beta,
        )

    @pytest.mark.parametrize("beta", [0.6, 1.0, 1.7])
    def test_101_nodes_agree_with_1601(self, beta):
        # the same inner sums and extrapolation on 1601 nodes per axis, x in
        # row slices to keep the grids small; 101 nodes read about 1e-6
        # relative below it (5.8e-6 at 81 nodes, 1.6e-5 at 61)
        ctx, eps, n = ThermalContext(beta=beta), 1e-4 * beta, 1601
        f, g = TestFunction.bump(0.5 * beta, 0.3 * beta), TestFunction.bump(1.85 * beta, 0.35 * beta)
        x, y = np.linspace(*f.support, n), np.linspace(*g.support, n)
        wy = g(y) * _simpson_weights(n, y[1] - y[0])
        sums = [
            verify._kms_inner_sums(
                ctx, np.linspace(-0.5, 0.5, 7), rows, y, wy, (eps / 4.0, eps / 2.0, eps)
            )
            for rows in np.array_split(x, 16)
        ]
        continued, direct = (np.concatenate(side, axis=-1) for side in zip(*sums))
        wx = f(x) * _simpson_weights(n, x[1] - x[0])
        quarter, half, full = np.vecdot(wx, continued - direct)
        fine = np.max(
            np.abs(8.0 * quarter - 6.0 * half + full) / 3.0 / np.abs(np.vecdot(wx, direct[0]))
        )
        assert self.suite_check(beta).relative == pytest.approx(fine, rel=1e-5, abs=0.0)

    def test_traced_peak_stays_small(self):
        # 1.3 MB measured: 101 x 101 grids take 80 KB each
        import tracemalloc

        tracemalloc.start()
        try:
            self.suite_check(1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    @pytest.mark.parametrize("eps", [0.0, math.nan, math.inf])
    def test_epsilon_must_be_positive_and_finite(self, ctx, eps):
        f, g = TestFunction.bump(0.5, 0.3), TestFunction.bump(1.85, 0.35)
        with pytest.raises(ValueError, match="positive and finite"):
            kms_boundary_check(ctx, f, g, [0.1], eps)

    def test_infinite_beta_raises(self):
        f, g = TestFunction.bump(0.5, 0.3), TestFunction.bump(1.85, 0.35)
        with pytest.raises(DomainViolation, match="finite beta"):
            kms_boundary_check(ThermalContext(beta=math.inf), f, g, [0.1], 1e-4)

    @staticmethod
    def scaled_kernel(r):
        # scales the direct form by 1 + r through its kernel, the routine the
        # direct side calls for the real and imaginary parts
        original = verify._position_kernel

        def mutant(*args, **kwargs):
            out = original(*args, **kwargs)
            out *= 1.0 + r
            return out

        return mutant

    def test_mutant_direct_form_detected(self, ctx, monkeypatch):
        # the check smears the difference of the two forms, so an error in
        # either one must show: scaling the direct form by 1 + r adds r times
        # its smear (about 2e-4 at u = 0.3) to the clean value
        f = TestFunction.bump(0.5, 0.3)
        g = TestFunction.bump(1.85, 0.35)
        clean = kms_boundary_check(ctx, f, g, [0.3], 1e-4).deviation
        monkeypatch.setattr(verify, "_position_kernel", self.scaled_kernel(1e-4))
        assert kms_boundary_check(ctx, f, g, [0.3], 1e-4).deviation > 100.0 * clean
        monkeypatch.setattr(verify, "_position_kernel", self.scaled_kernel(1e-2))
        assert kms_boundary_check(ctx, f, g, [0.3], 1e-4).deviation > 1e-6

    def test_relative_gate_fails_a_direct_form_off_by_1e4(self, monkeypatch):
        # an absolute 1e-6 on a smear of about 8e-4 let this mutant pass at
        # 7.9e-8; relative to the smear it reads about 1e-4
        def boundary_case():
            (case,) = [c for c in run_suite("kms") if c.check == "kms-boundary-identity"]
            return case

        assert boundary_case().passed
        monkeypatch.setattr(verify, "_position_kernel", self.scaled_kernel(1e-4))
        case = boundary_case()
        assert not case.passed
        assert case.lhs > 5e-5

    def test_relative_gate_fails_a_continued_form_off_by_1e4(self, monkeypatch):
        # the mirror of the direct-form mutant: the continued form's grids
        # scaled by 1 + 1e-4, so each of the two closed forms can fail the case
        original = verify._continued_parts

        def mutant(*args, **kwargs):
            out = original(*args, **kwargs)
            out *= 1.0 + 1e-4
            return out

        monkeypatch.setattr(verify, "_continued_parts", mutant)
        (case,) = [c for c in run_suite("kms") if c.check == "kms-boundary-identity"]
        assert not case.passed
        assert case.lhs > 5e-5

    def test_u_zero_matches_commutator(self, ctx):
        # at u = 0 the two sides are the plain two-point smears in either
        # order; their difference is the symplectic form, which vanishes for
        # disjoint supports
        f = TestFunction.bump(0.5, 0.3)
        g = TestFunction.bump(1.85, 0.35)
        dev = kms_boundary_check(ctx, f, g, [0.0], 1e-4).deviation
        assert dev < 1e-9

    def test_swap_symmetry_via_group_property(self, ctx):
        # omega2(f, delta_u g) = omega2(delta_{-u} f, g): moving the action to
        # the other argument inverts the parameter because the flow maps
        # compose to the identity
        from modularflow.weyl_field import modular_transform, omega2

        f = TestFunction.bump(0.5, 0.3)
        g = TestFunction.bump(1.85, 0.35)
        for u in (-0.3, 0.4):
            lhs = omega2(ctx, N0, f, modular_transform(ctx, u, g))
            rhs = omega2(ctx, N0, modular_transform(ctx, -u, f), g)
            assert abs(lhs - rhs) < 1e-6

    def test_supports_must_be_positive(self, ctx):
        f = TestFunction.bump(-0.5, 0.3)
        g = TestFunction.bump(1.8, 0.3)
        with pytest.raises(DomainViolation):
            kms_boundary_check(ctx, f, g, [0.1], 1e-4)

    def test_empty_u_grid_raises(self, ctx):
        # an empty grid returned a deviation of 0.0, a pass that checked nothing
        f, g = TestFunction.bump(0.5, 0.3), TestFunction.bump(1.85, 0.35)
        with pytest.raises(ValueError, match="u grid"):
            kms_boundary_check(ctx, f, g, [], 1e-4)


class TestSuites:
    def test_all_suite_names(self):
        for name in ("group-laws", "flows", "kernels", "kms", "rates"):
            cases = run_suite(name)
            assert cases
            assert all(c.passed for c in cases), [
                (c.check, c.lhs, c.rhs) for c in cases if not c.passed
            ]

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("nonsense")

    def test_report_schema(self):
        cases = run_suite("group-laws")
        doc = json.loads(report_json(cases))
        assert isinstance(doc, list)
        for entry in doc:
            assert set(entry) == {"check", "params", "lhs", "rhs", "pass"}
            assert isinstance(entry["pass"], bool)

    def test_determinism(self):
        a = report_json(run_suite("kernels"))
        b = report_json(run_suite("kernels"))
        assert a == b

    def test_nan_fails_its_check(self, monkeypatch):
        # builtin max(worst, nan) returns worst, so a NaN at u = 0.3 used to
        # pass both checks at 1.8e-15; vacuum-limit reads 0.3 in a u row
        real_ray, real_commutation = verify.modular_flow_ray, verify.check_translation_commutation

        def ray(ctx, d, u, x):
            # NaN at u = 0.3, whether u is a float or a row
            return real_ray(ctx, d, u, x) * np.where(np.equal(u, 0.3), math.nan, 1.0)

        def commutation(ctx, u, t, grid):
            return math.nan if u == 0.3 else real_commutation(ctx, u, t, grid)

        monkeypatch.setattr(verify, "modular_flow_ray", ray)
        monkeypatch.setattr(verify, "check_translation_commutation", commutation)
        cases = {c.check: c for c in run_suite("flows", 1.0)}
        for name in ("flow-group-laws", "translation-commutation", "vacuum-limit"):
            assert math.isnan(cases[name].lhs)
            assert not cases[name].passed

    def test_case_result_pass_logic(self):
        assert CaseResult("x", {}, 0.5, 1.0).passed
        assert not CaseResult("x", {}, 2.0, 1.0).passed


def test_group_laws_batched_draws_are_the_scalar_stream():
    # the group-laws suite draws its random samples as arrays: the stream of
    # one scalar draw per parameter, in the order its loops used to take them
    rng = np.random.default_rng(1234)
    scalar = [[[rng.uniform(0.1, 10.0), rng.uniform(-4, 4)] for _ in range(3)] for _ in range(200)]
    batched = np.random.default_rng(1234).uniform((0.1, -4.0), (10.0, 4.0), size=(200, 3, 2))
    assert batched.tolist() == scalar
    rng = np.random.default_rng(99)
    scalar = [[rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-1, 1), rng.uniform(-3, 3)]
              for _ in range(100)]
    batched = np.random.default_rng(99).uniform((-2, -2, -1, -3), (2, 2, 1, 3), size=(100, 4))
    assert batched.tolist() == scalar


def test_thm22_suites_run_the_shared_modular_remainder(monkeypatch):
    # the deviation rows take their parameter shift from
    # flow_maps.modular_remainder; at the chart scale b = beta/pi instead of
    # beta/2pi the deviation decays like e^{-pi t/beta}, which the bound and
    # the fitted rate must notice
    from modularflow import cone_wedge, flow_maps, weyl_field

    real = flow_maps.modular_remainder

    def wrong_scale(beta, u, x):
        return real(2.0 * beta, u, x)

    for module in (flow_maps, weyl_field, cone_wedge):
        monkeypatch.setattr(module, "modular_remainder", wrong_scale)
    cases = run_suite("thm22", 1.0) + run_suite("rates", 1.0)
    failed = {c.check for c in cases if not c.passed}
    assert {"matrix-element-bound", "decay-rate"} <= failed
    slopes = [c.params["slope"] for c in cases if c.check == "decay-rate"]
    assert all(abs(s + math.pi) < 1e-6 for s in slopes)


def _samples_times_1_01(real, ctx, flow, param, f):
    return real(ctx, flow, param, f).scaled(1.01)


def _support_1pct_wide(real, ctx, flow, param, f):
    # samples unchanged, declared support 1% wider: zeros past the image
    h = real(ctx, flow, param, f)
    samples = np.concatenate([h.samples, np.zeros(len(h.samples) // 100)])
    return replace(h, samples=samples, support=(h.support[0], h.x0 + (len(samples) - 1) * h.dx))


def _u_times_1_1(real, beta, u, x, mirror=False):
    return real(beta, 1.1 * np.asarray(u), x, mirror)


def _x0_times_1_01(real, ctx, region, p):
    return real(ctx, region, replace(p, x0=1.01 * p.x0))


def _times_1_01(real, *args):
    return 1.01 * real(*args)


def _times_1_plus_1e7(real, *args):
    return (1.0 + 1e-7) * real(*args)


# mutant: the module function it wraps, its suite and the cases that must
# fail under it; each case passes without a mutant
MUTANTS = {
    "pull-back samples x1.01": (weyl_field, "_pull_back", _samples_times_1_01, "kms",
                                {"pull-back-integral", "localization-defect"}),
    "pull-back support 1% wide": (weyl_field, "_pull_back", _support_1pct_wide, "kms",
                                  {"pull-back-integral"}),
    "modular parameter u -> 1.1 u": (flow_maps, "_phi_plus", _u_times_1_1, "kms",
                                     {"pull-back-integral", "localization-defect"}),
    "line constant at 1.01 x0": (cone_wedge, "gamma_line_constant", _x0_times_1_01, "flows",
                                 {"closed-form-flow-lines"}),
    # every pair's ratio moves alike, so only the derived -1/4 notices
    "position kernel x1.01": (weyl_field, "two_point_position", _times_1_01, "kernels",
                              {"fourier-pair-calibration"}),
    # reads 1e-7: only a regulator floor far below it (7.4e-12 with three
    # regulators) lets the boundary identity see it
    "direct form x(1 + 1e-7)": (verify, "_position_kernel", _times_1_plus_1e7, "kms",
                                {"kms-boundary-identity"}),
}


@pytest.mark.parametrize("mutant", [None, *MUTANTS])
def test_each_check_can_fail(monkeypatch, mutant):
    if mutant is None:
        cases = run_suite("kms", 1.0) + run_suite("flows", 1.0) + run_suite("kernels", 1.0)
        checks = set().union(*(m[4] for m in MUTANTS.values()))
        assert checks <= {c.check for c in cases if c.passed}
        return
    module, name, wrapper, suite, killed = MUTANTS[mutant]
    monkeypatch.setattr(module, name, partial(wrapper, getattr(module, name)))
    failed = {c.check for c in run_suite(suite, 1.0) if not c.passed}
    assert killed <= failed, failed
