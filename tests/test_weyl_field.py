"""Field-layer tests.

Oracles: closed-form Gaussian transform, geometric-series values of the
thermal density, Laurent expansion of the position kernel, chart-based
support mapping, cumulative-integral tails, and Gram positive
semidefiniteness of Gaussian overlaps.
"""

import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson, simpson
from scipy.interpolate import CubicSpline

import modularflow
from modularflow.errors import DomainViolation, QuadratureError, ResolutionError
from modularflow.flow_maps import (
    RayDirection, ThermalContext, gamma_flow_ray, modular_flow_ray, modular_remainder,
)
from modularflow.weyl_field import (
    FieldSpec,
    StateNormalization,
    TestFunction,
    _cumulative_simpson,
    _czt_plan,
    _density,
    _derivative_once_fd4,
    _derivative_values,
    _deviation_exponents,
    _deviation_hull,
    _deviation_samples,
    _field_weight,
    _fold,
    _next_fast_len,
    _pair,
    _phases,
    _position_kernel,
    _simpson_weights,
    _slopes,
    _spectral_ok,
    _spline,
    _transforms,
    calibrate_fourier_pair,
    czt,
    fourier,
    gamma_transform,
    higher_transform,
    localization_defect,
    modular_transform,
    momentum_grid,
    nth_derivative,
    omega2,
    omega2_position,
    symplectic_K,
    two_point_momentum,
    two_point_position,
    weyl_inner,
)

TWO_PI = 2.0 * math.pi
N0 = FieldSpec(0)
NORM = StateNormalization()


def random_bumps(rng, count, lo=0.2, hi=3.0):
    out = []
    for _ in range(count):
        w = rng.uniform(0.1, 0.6)
        m = rng.uniform(lo + w, hi - w)
        out.append(TestFunction.bump(m, w, amplitude=rng.uniform(0.3, 1.5)))
    return out


class TestTestFunction:
    def test_bump_support_exact(self):
        f = TestFunction.bump(1.5, 0.5)
        assert f.support == (1.0, 2.0)
        assert f.samples[0] == 0.0 and f.samples[-1] == 0.0
        assert f(0.99) == 0.0 and f(2.01) == 0.0
        assert f(1.5) == pytest.approx(math.exp(-1.0))

    def test_validation(self):
        with pytest.raises(ValueError, match="vanish"):
            TestFunction(np.ones(32), 0.0, 0.1, (0.5, 2.0))
        with pytest.raises(ValueError, match="cover"):
            TestFunction(np.zeros(32), 0.0, 0.01, (0.0, 2.0))
        with pytest.raises(ValueError, match="interior"):
            TestFunction(np.zeros(32), 0.0, 1.0, (0.0, 0.5))

    def test_rejects_non_finite_inputs(self):
        # a NaN sample used to turn every pairing into NaN without an error
        f = TestFunction.bump(1.5, 0.5)
        for bad in (math.nan, math.inf):
            vals = f.samples.copy()
            vals[100] = bad
            for field, value in (("samples", vals), ("x0", bad), ("dx", bad)):
                with pytest.raises(ValueError, match=f"{field} must be finite"):
                    replace(f, **{field: value})

    def test_nan_point_raises(self):
        # a NaN point fails every window comparison, so it must raise
        # before the mask could read it as 0.0
        f = TestFunction.bump(0.5, 0.5)
        with pytest.raises(DomainViolation, match="x must be finite, got x=nan"):
            f(math.nan)
        with pytest.raises(DomainViolation, match="x=nan"):
            f([math.nan, 0.5, math.inf])
        # ±inf lies outside the sampled window
        assert f(math.inf) == 0.0 and f(-math.inf) == 0.0
        got = f([-math.inf, 0.5, math.inf])
        assert got[0] == got[2] == 0.0 and got[1] == pytest.approx(math.exp(-1.0))
        with pytest.raises(DomainViolation) as err:
            f(np.array([0.5, 0.2, math.nan]))
        assert str(err.value) == "x must be finite, got x=nan"
        assert np.array_equal(f([math.inf, -math.inf]), [0.0, 0.0])
        assert all(type(f(x)) is float for x in (0.5, np.float64(0.5), math.inf, -3.0))

    def test_all_inside_path_equals_the_masked_evaluation(self):
        # points inside the window, outside it and at its edges, in 1-D and
        # 2-D arrays: the masked spline evaluation, shape and all, and the
        # scalar calls give the same values
        rng = np.random.default_rng(11)
        open_window = TestFunction(np.linspace(0.0, 1.0, 50) ** 2, 0.25, 0.1, (0.25, 5.15),
                                   compact_support=False)
        for f in (TestFunction.bump(0.5, 0.5), TestFunction.bump(1.3, 0.2, n=300).translate(0.7),
                  open_window):
            a, b = (f.x[0], f.x[-1]) if not f.compact_support else f.support
            for pts in (rng.uniform(a, b, 1000), rng.uniform(a - 0.3, b + 0.3, 1000),
                        np.array([a, b]), rng.uniform(a, b, (7, 9))):
                inside = (pts >= a) & (pts <= b)
                want = np.zeros_like(pts)
                want[inside] = f._spline(pts[inside])
                got = f(pts)
                assert got.shape == pts.shape and np.array_equal(got, want)
                assert [f(x) for x in pts.ravel()[:25].tolist()] == want.ravel()[:25].tolist()

    def test_translate_exact(self):
        f = TestFunction.bump(1.0, 0.3)
        g = f.translate(2.5)
        assert g.support == (0.7 + 2.5, 1.3 + 2.5)
        np.testing.assert_array_equal(g.samples, f.samples)
        assert g(3.5) == pytest.approx(f(1.0), abs=1e-15)

    def test_translate_shares_the_spline_table(self):
        # a translate reads its source's read-only table, which depends on dx
        # and the samples only: its values are a fresh spline's bit for bit,
        # inside and outside the sampled window
        f = TestFunction.bump(1.0, 0.3)
        f(1.0)  # builds f's spline
        rng = np.random.default_rng(11)
        for t in (2.5, -0.7, 1e-3 / 3, 1e5 + 0.1):
            g = f.translate(t).translate(0.25)
            assert g._spline.c is f._spline.c and not g._spline.c.flags.writeable
            fresh = replace(f, x0=g.x0, support=g.support)
            assert "_spline" not in fresh.__dict__
            pts = rng.uniform(g.x[0] - 0.3, g.x[-1] + 0.3, 10_000)
            pts[:4] = (g.x[0], g.x[-1], g.support[0], g.support[1])
            np.testing.assert_array_equal(g._spline(pts), fresh._spline(pts))
            np.testing.assert_array_equal(g(pts), fresh(pts))
            np.testing.assert_array_equal(fresh._spline.c, f._spline.c)
        # a source without a table gives a translate without one
        assert "_spline" not in TestFunction.bump(1.0, 0.3).translate(1.0).__dict__

    def test_json_roundtrip(self, tmp_path):
        f = TestFunction.bump(0.8, 0.25, n=256)
        path = tmp_path / "f.json"
        f.save(str(path))
        g = TestFunction.load(str(path))
        assert g.x0 == f.x0 and g.dx == f.dx and g.support == f.support
        np.testing.assert_array_equal(g.samples, f.samples)
        assert g.compact_support
        assert path.read_text() == json.dumps(f.to_dict()) + "\n"

    def test_failed_save_leaves_the_old_file(self, tmp_path, monkeypatch):
        # the document is serialized, written beside the path and renamed:
        # a failure part way through leaves neither a truncated file nor a temporary
        path = tmp_path / "f.json"
        path.write_text("old")
        monkeypatch.setattr(TestFunction, "to_dict", lambda self: {"x0": 1.0, "bad": object()})
        with pytest.raises(TypeError):
            TestFunction.bump(0.8, 0.25).save(str(path))
        assert path.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["f.json"]


class TestFourier:
    def test_zero_function(self):
        f = TestFunction(np.zeros(64), 0.0, 0.1, (1.0, 5.0))
        p = momentum_grid(ThermalContext())
        assert np.all(fourier(f, p) == 0.0)

    def test_even_real_gives_real_even(self):
        f = TestFunction.bump(0.0, 1.0)  # even about 0
        p = momentum_grid(ThermalContext())
        t = fourier(f, p)
        assert np.max(np.abs(t.imag)) < 1e-12
        np.testing.assert_allclose(t, t[::-1], atol=1e-12)

    def test_conjugate_symmetry(self):
        f = TestFunction.bump(0.7, 0.4)
        p = momentum_grid(ThermalContext())
        t = fourier(f, p)
        np.testing.assert_allclose(t[::-1], np.conj(t), atol=1e-12)

    def test_gaussian_closed_form(self):
        # truncated Gaussian against (sigma/sqrt(2 pi)) e^{-ip m} e^{-sigma^2 p^2/2}
        sigma, m = 0.35, 1.2
        x = np.linspace(m - 10 * sigma, m + 10 * sigma, 4096)
        vals = np.exp(-((x - m) ** 2) / (2 * sigma**2))
        f = TestFunction(vals, x[0], x[1] - x[0], (x[0], x[-1]), compact_support=False)
        p = np.linspace(-40.0, 40.0, 2001)
        got = fourier(f, p)
        expected = sigma / math.sqrt(TWO_PI) * np.exp(-1j * p * m - sigma**2 * p**2 / 2)
        assert np.max(np.abs(got - expected)) / np.max(np.abs(expected)) < 1e-8

    def test_grid_validation(self):
        f = TestFunction.bump(1.0, 0.5)
        with pytest.raises(ValueError, match="symmetric"):
            fourier(f, np.linspace(0.0, 10.0, 11))


class TestTransformLayer:
    @staticmethod
    def _cases():
        # (samples, m, w) as fourier passes them: the default bump on the
        # default 8193-node grid, a deviation grid from the thm22 setting,
        # and one case each with fewer and more samples than nodes
        ctx = ThermalContext(beta=1.0)
        dp = momentum_grid(ctx)[1] - momentum_grid(ctx)[0]
        f = TestFunction.bump(1.2, 0.5)
        (d,), _ = _deviation_samples(ctx, f, 0.5, *_deviation_hull(ctx, f, 0.5, np.array([2.0])))
        rng = np.random.default_rng(7)
        return [
            (f.samples, 4097, np.exp(-1j * dp * f.dx)),
            (d, 4097, np.exp(-1j * dp * f.dx)),
            (rng.standard_normal(100), 257, np.exp(-0.013j)),
            (rng.standard_normal(8193), 4097, np.exp(-1j * dp * 1e-3)),
        ]

    def test_czt_matches_scipy(self):
        # worst measured 2.8e-15 of max |X|
        from scipy.signal import czt as scipy_czt

        for x, m, w in self._cases():
            want = scipy_czt(x, m=m, w=w, a=1.0 + 0.0j)
            # twice: once building the plan, once from the cache
            for _ in range(2):
                got = czt(x, m, log_w=np.log(w))
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_chirp_matches_power(self):
        # the chirp is exp(k^2/2 log w) throughout, the plan keyed on log w;
        # numpy's power multiplies for k^2/2 < 100 instead: worst measured
        # 7.6e-15 (|chirp| = 1), and czt against scipy's 1.4e-15 of sum |x|;
        # sizes below 15 and n > m are among the draws
        from scipy.signal import czt as scipy_czt

        rng = np.random.default_rng(15)
        sizes = [(1, 1), (3, 14), (14, 2), (9, 5), (15, 15), (16, 3)]
        sizes += [tuple(s) for s in rng.integers(1, 9001, size=(120, 2)).tolist()]
        assert any(n > m for n, m in sizes) and any(max(n, m) < 15 for n, m in sizes)
        for i, (n, m) in enumerate(sizes):
            w = np.exp(-1j * math.exp(rng.uniform(math.log(1e-7), math.log(0.5))))
            awk2, _, wk2, _ = _czt_plan(n, m, complex(np.log(w)))
            chirp = awk2 if n >= m else wk2
            k = np.arange(max(n, m))
            want = np.complex128(w) ** (k**2 / 2.0)
            assert np.max(np.abs(chirp - want)) <= 2e-13, (n, m, w)
            if i < 12:
                x = rng.standard_normal(n)
                got = czt(x, m, log_w=np.log(w)) - scipy_czt(x, m=m, w=w, a=1.0 + 0.0j)
                assert np.max(np.abs(got)) <= 1e-13 * np.sum(np.abs(x)), (n, m, w)

    def test_lattice_sum_against_mpmath(self):
        # the lattice sum (dx/2pi) sum_j f_j e^{-ip_k (x0 + j dx)} at beta 1;
        # worst measured 1.2e-16, 1.6e-17, 1.6e-14, 3.7e-13 and 1.3e-12 at
        # these k, against 2.0e-14, 7.3e-13, 8.3e-11, 4.9e-11 and 1.1e-10 on
        # the ratio np.exp(-1j dp dx), whose |w| - 1 ~ 2e-17 scaled term j k
        # by |w|^{jk}; the chirp's angle k^2/2 dp dx rounds like k^2, so the
        # bound is about 100x the measured 1e-16 + 8e-20 k^2
        import mpmath

        f = TestFunction.bump(0.8, 0.4)
        p = momentum_grid(ThermalContext(beta=1.0))
        got = fourier(f, p)
        m = len(p) // 2
        with mpmath.workprec(113):
            dp, x0, dx = (mpmath.mpf(v) for v in (p[1] - p[0], f.x0, f.dx))
            for k in (1, 37, 1000, 2500, 4096):
                terms = (
                    mpmath.mpf(f.samples[j]) * mpmath.expj(-k * dp * (x0 + j * dx))
                    for j in np.flatnonzero(f.samples).tolist()
                )
                want = complex(mpmath.fsum(terms) * dx / (2 * mpmath.pi))
                assert abs(got[m + k] - want) <= (1e-14 + 1e-17 * k**2) * abs(want), k

    def test_phase_table(self):
        # each angle is one rounding of (k dp) x, as in np.exp, so both lie
        # within about half an ulp of the largest angle of the exact phase
        # (worst measured 8.5e-13 at x = 49.3, against a one-ulp bound of
        # 1.8e-12), and they agree to 2.5e-16 where (k dp) x is exact
        import mpmath

        p = momentum_grid(ThermalContext(beta=1.0))
        m = len(p) // 2 + 1
        dp = p[1] - p[0]
        assert np.array_equal(p[m - 1 :], dp * np.arange(m))  # nodes k dp
        dyadic = [0.0, 0.5, 5.5, 54.5, 61.0]
        x = np.array(dyadic + np.random.default_rng(5).uniform(0.0, 61.0, 4).tolist())
        got = _phases(dp, x, m)
        assert got.shape == (len(x), m)
        want = np.exp(-1j * p[m - 1 :] * x[:, None])
        assert np.max(np.abs(got[: len(dyadic)] - want[: len(dyadic)])) <= 1e-15
        k = np.arange(0, m, 37)
        with mpmath.workprec(150):
            for row, xi in zip(got, x.tolist()):
                exact = [complex(mpmath.expj(-int(kk) * mpmath.mpf(dp) * xi)) for kk in k]
                limit = np.spacing(dp * (m - 1) * xi) + 1e-15
                assert np.max(np.abs(row[k] - exact)) <= limit, xi
        # a float x gives one row, the scale rides on it, and out takes it
        out = np.empty(-(-m // 64) * 64, dtype=complex)
        one = _phases(dp, 54.5, m, 0.25, out=out)
        assert one.shape == (m,) and np.shares_memory(one, out)
        assert np.max(np.abs(one - 0.25 * want[3])) <= 1e-15

    def test_plan_cache_bounded(self):
        info = _czt_plan.cache_info()
        assert info.maxsize is not None and info.maxsize <= 64

    def test_simpson_weights_match_scipy(self):
        # the error scale of a sum is sum w |y|: worst measured 6.9e-17 of it
        rng = np.random.default_rng(3)
        for n in (3, 5, 8193):
            y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            w = _simpson_weights(n, 0.37)
            got = np.vecdot(w, y)
            assert abs(got - simpson(y, dx=0.37)) <= 5e-15 * np.vecdot(w, np.abs(y))
        # rows reduce independently along the last axis, each as in 1-D
        y = rng.standard_normal((4, 801)) + 1j * rng.standard_normal((4, 801))
        w = _simpson_weights(801, 0.37)
        got = np.vecdot(w, y)
        assert got.shape == (4,)
        scale = np.vecdot(w, np.abs(y))
        assert np.all(np.abs(got - simpson(y, dx=0.37, axis=-1)) <= 5e-15 * scale)
        assert all(got[i] == np.vecdot(w, y[i]) for i in range(4))

    def test_fold_rows(self):
        # the rows are w (k(p) + k(-p)), w (k(p) - k(-p)) and |k(p)| on p >= 0,
        # w the full grid's Simpson weights there with the one at p = 0 halved
        ctx = ThermalContext()
        p = momentum_grid(ctx)
        m = len(p) // 2
        w = _simpson_weights(len(p), p[1] - p[0])[m:]
        w[0] /= 2.0
        kernel = _fold(ctx, lambda q: np.exp(q) - 3.0)
        q = p[m:]
        k_p, k_m = np.exp(q) - 3.0, np.exp(-q) - 3.0
        assert np.array_equal(kernel, [w * (k_p + k_m), w * (k_p - k_m), np.abs(k_p)])
        assert not kernel.flags.writeable

    # npts | 1 nodes: 8193 = 1 mod 4 puts a Simpson weight 2 at p = 0, 8195 a 4
    @pytest.mark.parametrize("npts", [8192, 8194])
    def test_folded_sum_is_the_full_grid_simpson_sum(self, npts):
        # the pairing on p >= 0 is scipy's simpson of the mirrored integrand
        # on the full grid, k(p) z at p and k(-p) conj(z) at -p, z = conj(a) b;
        # worst measured 1.3e-17 of sum w |integrand|
        ctx = ThermalContext(npts=npts)
        p = momentum_grid(ctx)
        m = len(p) // 2
        rng = np.random.default_rng(npts)
        a, b = rng.standard_normal((2, m + 1)) + 1j * rng.standard_normal((2, m + 1))
        a[0], b[0] = a[0].real, b[0].real  # transforms of real functions are real at 0

        def k(q):
            return np.exp(q / 80.0) + np.sin(q)  # neither even nor odd

        z = np.conj(a) * b
        q = p[m:]
        integrand = np.concatenate(((k(-q) * np.conj(z))[:0:-1], k(q) * z))
        got = _pair(ctx, 0.0, _fold(ctx, k), a, b)
        want = simpson(integrand, dx=p[1] - p[0])
        w = _simpson_weights(len(p), p[1] - p[0])
        assert abs(got - want) <= 1e-15 * np.vecdot(w, np.abs(integrand))

    def test_position_integrals_use_the_package_rule(self, monkeypatch):
        # omega2_position and localization_defect sum with _simpson_weights,
        # on an odd node count (no even-count correction)
        import modularflow.weyl_field as wf

        counts = []

        def spy(n, d):
            counts.append(n)
            return _simpson_weights(n, d)

        monkeypatch.setattr(wf, "_simpson_weights", spy)
        ctx = ThermalContext()
        f, g = TestFunction.bump(0.7, 0.4), TestFunction.bump(1.4, 0.4)
        omega2_position(ctx, f, g, 1e-3)
        assert len(counts) == 1
        localization_defect(ctx, 1, 0.2, TestFunction.bump(1.5, 0.5), (0.0, 50.0))
        assert len(counts) == 2
        assert counts[1] == 4097
        assert all(n % 2 == 1 for n in counts)

    def test_transform_memoized_read_only(self):
        # kept on p >= 0 only: fourier's p < 0 half is its mirror image
        ctx = ThermalContext(beta=1.0)
        f = TestFunction.bump(1.2, 0.5)
        t = _transforms(ctx, f)
        p = momentum_grid(ctx)
        assert np.array_equal(t, fourier(f, p)[len(p) // 2 :])
        assert _transforms(ctx, f) is t
        assert not t.flags.writeable
        with pytest.raises(ValueError):
            t[0] = 0.0

    def test_new_instances_do_not_inherit_the_transform(self):
        ctx = ThermalContext(beta=1.0)
        p = momentum_grid(ctx)
        f = TestFunction.bump(1.2, 0.5)
        _transforms(ctx, f)
        for g in (f.translate(0.3), f.scaled(2.0), replace(f, samples=f.samples**2)):
            assert "_transforms" not in g.__dict__
            assert np.array_equal(_transforms(ctx, g), fourier(g, p)[len(p) // 2 :])
            assert not np.array_equal(_transforms(ctx, g), _transforms(ctx, f))

    def test_grids_do_not_share_a_transform(self):
        f = TestFunction.bump(1.2, 0.5)
        for ctx in (
            ThermalContext(beta=1.0, npts=1024),
            ThermalContext(beta=1.0, npts=2048),
            ThermalContext(beta=1.0, npts=2048, pmax=150.0),
        ):
            p = momentum_grid(ctx)
            assert np.array_equal(_transforms(ctx, f), fourier(f, p)[len(p) // 2 :])
        assert len(f.__dict__["_transforms"]) == 3

    def test_kernels_memoized_read_only(self):
        ctx = ThermalContext(beta=1.3)
        dens = _density(ctx, N0)
        assert np.array_equal(dens, _fold(ctx, lambda p: two_point_momentum(ctx, N0, p)))
        assert _density(ThermalContext(beta=1.3), FieldSpec(0)) is dens
        assert not dens.flags.writeable
        assert not np.array_equal(_density(ctx, FieldSpec(1)), dens)
        assert _density(ThermalContext(beta=1.3, npts=1024), N0).shape == (3, 513)
        # K's kernel p^{2n+1} is odd to the last bit, so its even row is 0;
        # numpy's power is not: (-p)**3 != -(p**3) at about 5% of the nodes
        for n in (0, 1, 2):
            wgt = _field_weight(ctx, FieldSpec(n))
            assert _field_weight(ctx, FieldSpec(n)) is wgt and not wgt.flags.writeable
            assert np.all(wgt[0] == 0.0)
            odd = _fold(ctx, lambda p: np.stack((p[0] ** (2 * n + 1), -p[0] ** (2 * n + 1))))
            assert np.array_equal(wgt, odd)

    def test_deviation_grid_work_done_once(self, monkeypatch):
        # the density does not change along a thm22 grid, so repeated nodes
        # do not compute it again; the tail checks of f and g run on every
        # call with a given g
        import modularflow.weyl_field as wf

        densities, tails = [], []
        monkeypatch.setattr(
            wf, "two_point_momentum",
            lambda *a: densities.append(a) or two_point_momentum(*a),
        )
        tail_check = wf._tail_check
        monkeypatch.setattr(wf, "_tail_check", lambda *a: tails.append(a) or tail_check(*a))
        ctx = ThermalContext(beta=1.2345)  # a beta no other test caches
        f = TestFunction.bump(0.5, 0.5).translate(0.02)
        g = TestFunction.bump(-1.5, 0.5)
        first = _deviation_exponents(ctx, N0, NORM, f, 0.3, np.array([1.0]), g)
        assert (len(densities), len(tails)) == (1, 2)
        for u, t in ((0.3, [1.0]), (-0.5, [2.0, 3.0]), (1.0, [0.5])):
            got = _deviation_exponents(ctx, N0, NORM, f, u, np.array(t), g)
        assert (len(densities), len(tails)) == (1, 8)
        _deviation_exponents(ctx, N0, NORM, f, 0.3, np.array([1.0]))
        assert (len(densities), len(tails)) == (1, 8)
        again = _deviation_exponents(ctx, N0, NORM, f, 0.3, np.array([1.0]), g)
        assert all(np.array_equal(a, b) for a, b in zip(again, first))
        again = _deviation_exponents(ctx, N0, NORM, f, 1.0, np.array([0.5]), g)
        assert all(np.array_equal(a, b) for a, b in zip(again, got))

    def test_narrow_function_raises_on_every_call(self):
        ctx = ThermalContext(beta=1.0)
        narrow = TestFunction.bump(0.5, 0.02)
        g = TestFunction.bump(-1.5, 0.5)
        for _ in range(2):
            with pytest.raises(QuadratureError, match="symplectic form"):
                _deviation_exponents(ctx, N0, NORM, narrow, 0.3, np.array([1.0]), g)

    def test_narrow_g_raises_on_every_call(self):
        # a too-narrow g raises twice in a row, and again after f passed
        # with a wide g at the same context
        ctx = ThermalContext(beta=1.0)
        f = TestFunction.bump(0.5, 0.5).translate(0.02)
        narrow = TestFunction.bump(-1.5, 0.02)
        for wide_first in (False, True):
            if wide_first:
                _deviation_exponents(ctx, N0, NORM, f, 0.3, np.array([1.0]), TestFunction.bump(-1.5, 0.5))
            for _ in range(2):
                with pytest.raises(QuadratureError, match="symplectic form"):
                    _deviation_exponents(ctx, N0, NORM, f, 0.3, np.array([1.0]), narrow)


def _scipy_modules(*argv):
    """The scipy modules loaded by `mfl argv`, or by importing the CLI when
    argv is empty, in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(modularflow.__file__)))
    code = (
        "import json, sys, modularflow.cli as cli; "
        "code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0; "
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.')))); sys.exit(code)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


# a meta-path finder in front of every other one: `import scipy` fails
_BLOCK_SCIPY = """
import sys
class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
sys.meta_path.insert(0, BlockScipy())
import modularflow.cli as cli
sys.exit(cli.main(sys.argv[1:]))
"""


class TestScipyImports:
    """numpy is the only runtime dependency: no command loads scipy."""

    def test_cli_import_leaves_out_scipy(self):
        assert _scipy_modules() == []

    @pytest.mark.parametrize(
        "argv",
        [
            ("flow", "--region", "cone", "--flow", "modular", "--u", "0.3", "--point", "1,0"),
            ("flow", "--region", "wedge", "--flow", "gamma", "--tau", "0.5", "--point", "0,1"),
            ("figure", "--which", "3", "--format", "svg", "-o", "OUT"),
            ("verify", "group-laws", "-o", "OUT"),
            ("verify", "flows", "-o", "OUT"),
            ("verify", "kernels", "-o", "OUT"),
            ("verify", "thm22", "-o", "OUT"),
            ("verify", "all", "-o", "OUT"),
            ("transform", "IN", "--u", "0.2", "--n", "1", "-o", "OUT"),
            ("kernel", "--p", "1.0"),
            ("kernel", "--xi", "0.5", "--epsilon", "1e-3"),
        ],
    )
    def test_commands_load_no_scipy(self, tmp_path, argv):
        TestFunction.bump(1.5, 0.5).save(str(tmp_path / "in.json"))
        names = {"IN": str(tmp_path / "in.json"), "OUT": str(tmp_path / "out")}
        assert _scipy_modules(*[names.get(a, a) for a in argv]) == []

    def test_verify_all_runs_with_scipy_blocked(self, tmp_path):
        src = os.path.dirname(os.path.dirname(os.path.abspath(modularflow.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        reports = []
        for code in (_BLOCK_SCIPY, "import sys, modularflow.cli as cli; sys.exit(cli.main())"):
            out = tmp_path / f"report{len(reports)}.json"
            subprocess.run(
                [sys.executable, "-c", code, "verify", "all", "--beta", "1", "-o", str(out)],
                env=env, capture_output=True, check=True, timeout=120,
            )
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


def _spline_pairs(x0, dx, y, pts):
    """(ours, scipy's, scale) for the spline through the samples y on the
    lattice x0 + k dx: its values at pts, then its slopes and curvatures
    (2 c1) at all knots, each difference measured against max |y|, the
    largest knot slope and the largest knot curvature."""
    x = x0 + dx * np.arange(len(y))
    ours, ref = _spline(x0, dx, y), CubicSpline(x, y)
    _, c1, c2, _ = ours.c
    pairs = [(ours(pts), ref(pts), np.max(np.abs(y)))]
    for got, nu in ((c2, 1), (2.0 * c1, 2)):
        want = ref(x, nu)
        pairs.append((got, want, np.max(np.abs(want))))
    return pairs


def _assert_spline_close(pairs, value_tol, slope_tol, curvature_tol):
    for (got, want, scale), tol in zip(pairs, (value_tol, slope_tol, curvature_tol)):
        assert np.max(np.abs(got - want)) <= tol * scale


class TestOwnedNumerics:
    """The spline and the cumulative Simpson rule are plain uniform-lattice
    formulas, compared with scipy's CubicSpline and cumulative_simpson to
    tolerances about 10-100 times the worst measured difference; the FFT
    length is scipy's rule exactly."""

    @staticmethod
    def _bump_points(rng, f):
        x = f.x
        return np.concatenate((
            x,
            np.nextafter(x, -np.inf),
            np.nextafter(x, np.inf),
            [x[0] - 0.5 * f.dx, x[-1] + 0.5 * f.dx],  # past both ends
            rng.uniform(x[0], x[-1], 3000),
        ))

    def test_slopes_solve_the_not_a_knot_system(self):
        # interior rows s_{i-1} + 4 s_i + s_{i+1} = 3(m_{i-1} + m_i), end rows
        # s_0 + 2 s_1 = (5 m_0 + m_1)/2 and the mirror, each to 1e-14 of the
        # largest right side (worst measured 7.4e-16); short lattices have
        # both ends' homogeneous terms on every entry
        rng = np.random.default_rng(5)
        for n in (4, 5, 10, 31, 32, 61, 62, 63, 2048, 5001):
            for y in (rng.standard_normal(n), np.exp(-np.linspace(-2.0, 2.0, n) ** 2)):
                dx = rng.uniform(1e-3, 2.0)
                m = np.diff(y) / dx
                s = _slopes(m)
                rows = np.concatenate(
                    ([s[0] + 2 * s[1]], s[:-2] + 4 * s[1:-1] + s[2:], [2 * s[-2] + s[-1]])
                )
                rhs = np.concatenate(
                    ([(5 * m[0] + m[1]) / 2], 3 * (m[:-1] + m[1:]), [(m[-2] + 5 * m[-1]) / 2])
                )
                assert np.max(np.abs(rows - rhs)) <= 1e-14 * np.max(np.abs(rhs)), n

    def test_spline_matches_scipy_on_bump_grids(self):
        # worst measured: values 1.3e-15 of max |y|, slopes 6.6e-13 and
        # curvatures 4.1e-10 of the largest at a knot (scipy's steps
        # np.diff(x) are not exactly dx; on exact steps the curvatures agree
        # to 1e-12)
        rng = np.random.default_rng(16)
        sizes = [20, 21, 5000] + rng.integers(20, 5001, size=30).tolist()
        for n in sizes:
            f = TestFunction.bump(rng.uniform(-3.0, 3.0), rng.uniform(0.05, 4.0), n=n)
            pairs = _spline_pairs(f.x0, f.dx, f.samples, self._bump_points(rng, f))
            _assert_spline_close(pairs, 1e-13, 1e-11, 1e-8)
            # TestFunction evaluates through the same spline: 9.1e-16 of max |y|
            pts = rng.uniform(*f.support, 500)
            want = CubicSpline(f.x, f.samples)(pts)
            assert np.max(np.abs(f(pts) - want)) <= 5e-14 * np.max(f.samples)

    def test_spline_matches_scipy_on_a_pull_back(self):
        # worst measured: values 1.1e-15, slopes 6.8e-13, curvatures 1.4e-10
        ctx = ThermalContext(beta=1.0)
        rng = np.random.default_rng(161)
        f = TestFunction.bump(1.5, 0.5)
        for u in (-0.4, 0.3, 1.1):
            g = modular_transform(ctx, u, f)
            # g's samples are f's spline at the inverse image of g's grid
            y = modular_flow_ray(ctx, RayDirection.PLUS, -u, g.x[1:-1])
            _assert_spline_close(_spline_pairs(f.x0, f.dx, f.samples, y), 1e-13, 1e-11, 1e-8)
            pts = self._bump_points(rng, g)
            _assert_spline_close(_spline_pairs(g.x0, g.dx, g.samples, pts), 1e-13, 1e-11, 1e-8)

    def test_spline_matches_scipy_on_a_correlation_grid(self, monkeypatch):
        # every spline omega2_position builds (f's, g's and the correlation
        # F's), at the points it evaluates them on; worst measured: values
        # 5.7e-16, slopes 2.2e-13, curvatures 2.6e-11
        import modularflow.weyl_field as wf

        built, seen = [], []

        def spy(x0, dx, y):
            sp = _spline(x0, dx, y)
            built.append(x0)

            def call(pts):
                seen.append((x0, dx, y, pts))
                return sp(pts)

            return call

        monkeypatch.setattr(wf, "_spline", spy)
        ctx = ThermalContext(beta=1.0)
        f, g = TestFunction.bump(0.7, 0.4, n=1000), TestFunction.bump(1.4, 0.3, n=1500)
        omega2_position(ctx, f, g, 1e-3)
        # each is evaluated once, F over the whole node array
        assert len(built) == len(seen) == 3
        for x0, dx, y, pts in seen:
            _assert_spline_close(_spline_pairs(x0, dx, y, pts), 5e-14, 1e-11, 1e-9)

    def test_cumulative_simpson_matches_scipy_on_higher_transform_grids(self, monkeypatch):
        # worst measured 1.4e-16 of the largest |integral|
        import modularflow.weyl_field as wf

        seen = []

        def spy(y, dx):
            out = _cumulative_simpson(y, dx)
            seen.append((y, dx, out))
            return out

        monkeypatch.setattr(wf, "_cumulative_simpson", spy)
        ctx = ThermalContext(beta=1.0)
        f = TestFunction.bump(1.5, 0.5)
        higher_transform(ctx, 2, "modular", 0.3, f)
        higher_transform(ctx, 1, "gamma", 0.4, f)
        higher_transform(ctx, 1, "modular", -0.2, TestFunction.bump(2.0, 0.6, n=700))
        assert len(seen) == 4
        for y, dx, out in seen:
            want = cumulative_simpson(y, dx=dx, initial=0.0)
            assert np.max(np.abs(out - want)) <= 1e-14 * np.max(np.abs(want))

    def test_next_fast_len_rule(self):
        # the smallest 2^a o >= n with o a 7-smooth odd number up to 64,
        # against every such length up to 80000
        def odd_part(k):
            while k % 2 == 0:
                k //= 2
            return k

        def smooth(o):
            for q in (3, 5, 7):
                while o % q == 0:
                    o //= q
            return o == 1

        fast = [k for k in range(1, 80001) if odd_part(k) <= 64 and smooth(odd_part(k))]
        targets = np.arange(1, 70001)
        got = np.array([_next_fast_len(n) for n in targets.tolist()])
        assert np.array_equal(got, np.array(fast)[np.searchsorted(fast, targets)])
        assert np.all(9 * got < 10 * targets)
        # a single transform's 2048 + 4097 - 1, a Thm 2.2 row's 2112 + 4097 - 1
        # (6237 by the 11-smooth rule) and npts = 65536's 2048 + 32769 - 1
        assert [_next_fast_len(n) for n in (6144, 6208, 34816)] == [6144, 6272, 35840]
        # no samples: the FFT rejects the length, as scipy.signal.czt does
        assert _next_fast_len(0) == 0
        with pytest.raises(ValueError):
            czt(np.zeros(0), 1, log_w=-0.1j)


def _spline_increment(f, k, d):
    """f(x_k + d) - f(x_k) in mpmath on the pieces of f's coefficient table,
    x_k = x0 + k dx exactly: -y_k for a target off supp f, and otherwise the
    piece holding the target, taken from x_k itself when x_k ends that piece
    (y_k is 0 off f's lattice).  A target within rounding of a support edge
    is on the side of the rounded sum x_k + d (both sides are 0 there to
    about |d f'|)."""
    import mpmath as mp

    c = f._spline.c
    n = len(f.samples)
    x0, dx = mp.mpf(f.x0), mp.mpf(f.dx)
    xk = x0 + k * dx
    yk = mp.mpf(f.samples[k]) if 0 <= k < n else mp.mpf(0)
    if not f.support[0] <= (f.x0 + k * f.dx) + d <= f.support[1]:
        return -yk
    target = xk + mp.mpf(d)
    i = min(max(int(mp.floor((target - x0) / dx)), 0), n - 2)

    def piece(x):
        s = x - (x0 + i * dx)
        return ((mp.mpf(c[0, i]) * s + mp.mpf(c[1, i])) * s + mp.mpf(c[2, i])) * s + mp.mpf(c[3, i])

    return piece(target) - (piece(xk) if i <= k <= i + 1 else yk)


def _reference_deviation_samples(ctx, f, u, t):
    """_deviation_samples as formulated with one ray call per support edge
    and boolean-index assignments, the reference its rows are pinned to."""
    import modularflow.weyl_field as wf

    beta = ctx.beta
    a0, b0 = f.support
    dx = f.dx
    shift = t - beta * u
    img_lo = modular_flow_ray(ctx, RayDirection.PLUS, u, a0 + t) - shift
    img_hi = modular_flow_ray(ctx, RayDirection.PLUS, u, b0 + t) - shift
    lo = math.floor((min(a0, img_lo.min()) - f.x0) / dx) - 10
    hi = math.ceil((max(b0, img_hi.max()) - f.x0) / dx) + 11
    k = np.arange(lo, lo - (lo - hi) // wf._DEVIATION_PAD * wf._DEVIATION_PAD)
    a_grid = f.x0 + k * dx
    delta = modular_remainder(beta, -u, a_grid + shift[:, None])
    own = (k >= 0) & (k < len(f.samples))
    neg = np.zeros(len(k))
    neg[own] = -f.samples[k[own]]
    target = a_grid + delta
    out = ~((target >= a0) & (target <= b0))
    delta[out] = 0.0
    c0, c1, c2, y = f._spline.c
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


class TestDeviationRows:
    """_deviation_samples sums each entry f(x_k + delta) - f(x_k) as one
    Taylor increment of f's spline from a knot."""

    @pytest.mark.parametrize("beta", [0.6, 1.0, 1.7])
    def test_rows_bit_for_bit_against_the_reference_formulation(self, beta):
        # thm22's f, its 21 u and its row of 12 t; a t whose image lies
        # outside supp f; and the rates suite's separations
        ctx = ThermalContext(beta)
        f = TestFunction.bump(0.5 * beta, 0.5 * beta).translate(0.02 * beta)
        rows_t = (np.linspace(0.5 * beta, 6.0 * beta, 12), np.array([0.05 * beta]),
                  np.array([3.0 * beta, 4.0 * beta]))
        for u in np.linspace(-1.0, 1.0, 21).tolist():
            for t in rows_t:
                shift, lo, hi = _deviation_hull(ctx, f, u, t)
                rows, x0 = _deviation_samples(ctx, f, u, shift, lo, hi)
                lo, hi = lo + shift, hi + shift
                want_rows, want_x0, want_shift, (want_lo, want_hi) = (
                    _reference_deviation_samples(ctx, f, u, t)
                )
                assert np.array_equal(rows, want_rows, equal_nan=True), (u, t)
                assert x0 == want_x0 and np.array_equal(shift, want_shift)
                assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)

    def test_rows_against_mpmath(self, monkeypatch):
        # shifts |delta|/dx from 1e-16 to 10 of both signs, and NaN, cycled
        # over the entries in place of the modular remainder; worst measured
        # 2.4e-16 of |delta| max |f'|, which keeps full relative accuracy at
        # the smallest shifts
        import mpmath as mp
        import warnings

        import modularflow.weyl_field as wf

        mp.mp.prec = 200
        bump = TestFunction.bump(0.6, 0.4, n=200)
        # the bump's window is its support; the padded copy's knots run 6
        # steps past the support at both ends
        padded = TestFunction(np.pad(bump.samples, 6), bump.x0 - 6 * bump.dx, bump.dx, bump.support)
        for f in (bump, padded):
            ratios = np.concatenate((10.0 ** np.arange(-16.0, 0.0), np.arange(1.0, 11.0)))
            pattern = np.concatenate((ratios * f.dx, -ratios * f.dx, [np.nan]))
            monkeypatch.setattr(wf, "modular_remainder", lambda beta, u, y: np.resize(pattern, y.shape))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                hull = _deviation_hull(ThermalContext(1.0), f, 0.3, np.linspace(1.0, 2.0, 8))
                rows, x0 = _deviation_samples(ThermalContext(1.0), f, 0.3, *hull)
            delta = np.resize(pattern, rows.shape)
            k = round((x0 - f.x0) / f.dx) + np.arange(rows.shape[1])
            x = f.x0 + k * f.dx
            scale = np.max(np.abs(f._spline.c[2]))
            a, b = f.support
            crossings = np.zeros(4, dtype=int)
            for (r, col), got in np.ndenumerate(rows):
                d = delta[r, col]
                if math.isnan(d):
                    # the modular image is undefined: the translate alone
                    want = -f.samples[k[col]] if 0 <= k[col] < len(f.samples) else 0.0
                    assert got == want
                    continue
                want = _spline_increment(f, int(k[col]), d)
                assert abs(mp.mpf(got) - want) <= 1e-14 * abs(d) * scale, (f.x0, k[col], d)
                y, target = x[col], x[col] + d
                crossings += [y < a <= target, target < a <= y, y <= b < target, target <= b < y]
            # targets cross both support edges, from either side
            assert np.all(crossings > 0), crossings

    def test_rows_vanish_at_u_zero(self):
        ctx = ThermalContext(1.0)
        for f in (TestFunction.bump(0.6, 0.4), TestFunction.bump(1.5, 0.5).translate(0.02)):
            hull = _deviation_hull(ctx, f, 0.0, np.array([0.5, 1.0, 3.0]))
            rows, _ = _deviation_samples(ctx, f, 0.0, *hull)
            assert not rows.any()


def _reference_deviation_exponents(ctx, spec, norm, f, u, t, g=None):
    """_deviation_exponents as formulated before the u = 0 row skipped its
    deviation: every u samples, transforms and pairs the rows."""
    import modularflow.weyl_field as wf

    if f.support[0] <= 0.0:
        raise DomainViolation("supp f must lie in the positive half-line")
    dens, wgt = _density(ctx, spec), _field_weight(ctx, spec)
    tf = _transforms(ctx, f)
    shift, lo, hi = _deviation_hull(ctx, f, u, t)
    rows, x0 = _deviation_samples(ctx, f, u, shift, lo, hi)
    lo, hi = lo + shift, hi + shift
    if g is not None:
        tg = _transforms(ctx, g)
        for th in (tf, tg):
            wf._tail_check(wgt[2] * (th.real**2 + th.imag**2), "symplectic form")
        lo, hi = np.minimum(lo, g.support[0]), np.maximum(hi, g.support[1])
    span = hi - lo
    p = momentum_grid(ctx)
    (n_rows, n), m = rows.shape, len(tf)
    i = n_rows * wf._next_fast_len(n + m - 1)
    j = i + n_rows * wf._FINE * -(-m // wf._FINE)
    buf = np.empty(j + n_rows * m, dtype=complex)
    fft_buf, ph_buf, work = buf[:i], buf[i:j], buf[j:]
    td = wf._lattice_fourier(rows, x0, f.dx, p, out=fft_buf.reshape(n_rows, -1))
    th2 = _phases(p[1] - p[0], shift, m, out=ph_buf)
    td *= th2
    th2 *= tf
    work = work.view(float).reshape(2, n_rows, m)
    k = _pair(ctx, span, wgt, th2 if g is None else tg, td, work=work)
    if g is None:
        z2, te = np.zeros(len(t)), td
    else:
        te = th2
        te -= tg
        z2 = -norm.c * _pair(ctx, span, dens, te, te, work=work).real
        te *= 2.0
        te += td
    o = _pair(ctx, span, (dens[0], np.zeros(m), dens[2]), td, te, work=work).real
    return z2, -norm.c * o + 1j * (k.imag / 2.0)


def _eleven_smooth_len(target):
    """The FFT length rule before the 7-smooth one: the smallest 11-smooth
    n >= target."""
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


class TestIdentityRow:
    """At u = 0 the modular image of f(. - t) is f(. - t) itself, so the
    deviation d and dz are 0: _deviation_exponents forms no deviation, but
    z2 and every check stay as at any u."""

    @pytest.mark.parametrize("beta", [0.6, 1.0, 1.7])
    def test_exponents_without_a_transform(self, beta, monkeypatch):
        # thm22's f and g, its row of 12 t, and single t
        import modularflow.weyl_field as wf

        ctx = ThermalContext(beta)
        f = TestFunction.bump(0.5 * beta, 0.5 * beta).translate(0.02 * beta)
        g = TestFunction.bump(-1.5 * beta, 0.5 * beta)
        for h in (f, g):
            _transforms(ctx, h)  # the own transforms, built before the spy
        calls = []
        plain_czt = wf.czt
        monkeypatch.setattr(wf, "czt", lambda *a, **k: calls.append(a) or plain_czt(*a, **k))
        rows_t = (np.linspace(0.5 * beta, 6.0 * beta, 12), np.array([0.05 * beta]),
                  np.array([3.0 * beta, 4.0 * beta]))
        for u in (0.0, -0.0):
            for t in rows_t:
                for gg in (g, None):
                    z2, dz = _deviation_exponents(ctx, N0, NORM, f, u, t, gg)
                    assert calls == []
                    want_z2, want_dz = _reference_deviation_exponents(ctx, N0, NORM, f, u, t, gg)
                    calls.clear()
                    assert np.array_equal(z2, want_z2)
                    assert dz.shape == want_dz.shape == t.shape
                    assert np.all(dz == 0.0) and np.all(want_dz == 0.0)

    def test_checks_still_raise(self):
        # a too-narrow f or g fails its own tail check, a g 60 beta away tops
        # the alias-free separation (58.3 at the default grid), and with
        # g = None a support 3 wide tops it on a grid of 1025 nodes (2.04);
        # the reference formulation raises the same
        ctx, t = ThermalContext(1.0), np.array([1.0])
        f = TestFunction.bump(0.5, 0.5).translate(0.02)
        g = TestFunction.bump(-1.5, 0.5)
        cases = [
            (ctx, TestFunction.bump(0.5, 0.02), g, QuadratureError, "symplectic form"),
            (ctx, f, TestFunction.bump(-1.5, 0.02), QuadratureError, "symplectic form"),
            (ctx, f, TestFunction.bump(-60.0, 0.5), QuadratureError, "alias-free"),
            (ThermalContext(1.0, npts=1025), TestFunction.bump(3.0, 1.5), None,
             QuadratureError, "alias-free"),
            (ctx, TestFunction.bump(0.3, 0.5), g, DomainViolation, "positive half-line"),
        ]
        for c, ff, gg, error, text in cases:
            for exponents in (_deviation_exponents, _reference_deviation_exponents):
                with pytest.raises(error, match=text):
                    exponents(c, N0, NORM, ff, 0.0, t, gg)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_separation_raises(self, t):
        # at u != 0 the ray call on the support edges raised; u = 0 makes none
        ctx, f = ThermalContext(1.0), TestFunction.bump(0.5, 0.5).translate(0.02)
        for u in (0.0, 0.3):
            with pytest.raises(DomainViolation, match="t must be finite"):
                _deviation_exponents(ctx, N0, NORM, f, u, np.array([1.0, t]))

    @pytest.mark.parametrize("beta", [0.6, 1.0, 1.7])
    def test_thm22_rows_agree_with_the_eleven_smooth_lengths(self, beta, monkeypatch):
        # every thm22 node's lhs e^{z2} |expm1(dz)|, run at the 7-smooth and at
        # the 11-smooth FFT lengths; fresh functions, so no transform is reused
        import modularflow.weyl_field as wf

        def lhs_grid():
            ctx = ThermalContext(beta)
            f = TestFunction.bump(0.5 * beta, 0.5 * beta).translate(0.02 * beta)
            g = TestFunction.bump(-1.5 * beta, 0.5 * beta)
            ts = np.linspace(0.5 * beta, 6.0 * beta, 12)
            out = []
            for u in np.linspace(-1.0, 1.0, 21).tolist():
                z2, dz = _deviation_exponents(ctx, N0, NORM, f, u, ts, g)
                out.append(np.exp(z2) * np.abs(np.expm1(dz)))
            return np.array(out)

        new = lhs_grid()
        lengths = []
        monkeypatch.setattr(wf, "_next_fast_len", lambda n: lengths.append(_eleven_smooth_len(n)) or lengths[-1])
        _czt_plan.cache_clear()  # a plan holds its FFT length
        try:
            old = lhs_grid()
        finally:
            _czt_plan.cache_clear()
        assert 6237 in lengths
        assert np.all(new[10] == 0.0) and np.all(old[10] == 0.0)  # u = 0
        assert np.all(np.abs(new - old) <= 1e-8 * np.abs(old))

    def test_row_buffer_takes_the_cached_plans_length(self, monkeypatch):
        # a thm22 row with its plan warm, then again under another valid
        # length rule: the row buffer and the transform read the length of
        # the one cached plan, so the row is the same bits (a buffer sized
        # by the new rule met the plan's 6272 and could not broadcast)
        import modularflow.weyl_field as wf

        ctx = ThermalContext(1.0)
        f = TestFunction.bump(0.5, 0.5).translate(0.02)
        g = TestFunction.bump(-1.5, 0.5)
        ts = np.linspace(0.5, 6.0, 12)
        z2, dz = _deviation_exponents(ctx, N0, NORM, f, 0.3, ts, g)
        monkeypatch.setattr(wf, "_next_fast_len", lambda n: 1 << (n - 1).bit_length())
        again = _deviation_exponents(ctx, N0, NORM, f, 0.3, ts, g)
        assert np.array_equal(again[0], z2) and np.array_equal(again[1], dz)


class TestTwoPointMomentum:
    def test_zero_limit_n0(self):
        ctx = ThermalContext(beta=2.5)
        assert two_point_momentum(ctx, N0, 0.0) == pytest.approx(1.0 / 2.5, rel=1e-14)

    def test_zero_limit_higher(self):
        ctx = ThermalContext(beta=1.0)
        assert two_point_momentum(ctx, FieldSpec(1), 0.0) == 0.0

    def test_series_oracle(self):
        # 1/(1 - e^{-1}) = sum_{k>=0} e^{-k}
        ctx = ThermalContext(beta=1.0)
        expected = sum(math.exp(-k) for k in range(60))
        got = two_point_momentum(ctx, N0, 1.0)
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(1.5819767068693265, rel=1e-12)

    def test_kms_identity_pointwise(self):
        ctx = ThermalContext(beta=0.7)
        rng = np.random.default_rng(5)
        p = rng.uniform(-50, 50, 200)
        for spec in (N0, FieldSpec(1), FieldSpec(2)):
            lhs = two_point_momentum(ctx, spec, -p)
            rhs = np.exp(-ctx.beta * p) * two_point_momentum(ctx, spec, p)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-14, atol=1e-300)

    def test_positive(self):
        ctx = ThermalContext(beta=1.3)
        p = np.linspace(-80, 80, 1001)
        assert np.all(two_point_momentum(ctx, N0, p) >= 0.0)

    def test_extreme_arguments(self):
        ctx = ThermalContext(beta=1.0)
        assert two_point_momentum(ctx, N0, -800.0) == 0.0
        assert two_point_momentum(ctx, N0, 800.0) == 800.0

    # NaN p returned NaN, and so did -inf, whose limit is 0
    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf, [1.0, math.nan]])
    def test_non_finite_momentum_raises(self, p):
        with pytest.raises(DomainViolation, match="p must be finite"):
            two_point_momentum(ThermalContext(beta=1.0), N0, p)


def _reference_position_kernel(ctx, epsilon, z):
    """_position_kernel as formulated when its callers formed sinh z, cosh z
    and the |z| >= 350 mask (None when no |z| reaches it) in a routine of
    their own and passed them in; the kernel's range checks are left out."""
    if -350.0 < z.min() and z.max() < 350.0:
        sinh_z, cosh_z, far = np.sinh(z), np.cosh(z), None
    else:
        near = np.abs(z) < 350.0
        sinh_z, cosh_z = np.zeros((2,) + z.shape)
        np.sinh(z, out=sinh_z, where=near)
        np.cosh(z, out=cosh_z, where=near)
        far = ~near
    beta = ctx.beta
    b = math.pi * epsilon / beta
    sin_b = math.sin(b)
    sin2 = sin_b**2
    out = np.empty((2,) + z.shape)
    re, im = out
    q = np.multiply(sinh_z, sinh_z, out=re)
    q += sin2
    np.divide(1.0 / beta, q, out=q, where=True if far is None else ~far)
    r_re = sinh_z * q
    r_re *= math.cos(b)
    r_im = q
    r_im *= cosh_z
    r_im *= -sin_b
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


class TestTwoPointPosition:
    def test_decay(self):
        ctx = ThermalContext(beta=1.0)
        v1 = abs(two_point_position(ctx, 5.0, 1e-3))
        v2 = abs(two_point_position(ctx, 10.0, 1e-3))
        assert v2 < v1 * math.exp(-2 * math.pi * 4.9)

    def test_laurent_at_zero(self):
        # sinh^{-2} at i pi eps/beta: -1/(pi^2 eps^2) - 1/(3 beta^2) + O(eps^2)
        ctx = ThermalContext(beta=1.7)
        eps = 1e-5
        got = two_point_position(ctx, 0.0, eps)
        lead = -1.0 / (math.pi**2 * eps**2)
        assert got.imag == pytest.approx(0.0, abs=1e-6)
        assert got.real == pytest.approx(lead - 1.0 / (3 * ctx.beta**2), rel=1e-9)

    def test_asymptotic_branch_continuous(self):
        ctx = ThermalContext(beta=0.01)  # push |Re z| past the branch switch
        eps = 1e-5
        xi_a = 349.0 * ctx.beta / math.pi
        xi_b = 351.0 * ctx.beta / math.pi
        va = two_point_position(ctx, xi_a, eps)
        vb = two_point_position(ctx, xi_b, eps)
        assert abs(va) > abs(vb) > 0.0

    def test_real_sinh_cosh_kernel_against_mpmath(self):
        # sinh(z + ib) from real sinh z and cosh z, against 50 digits, for
        # |z| from 1e-9 to 349.9 of both signs, b from 1e-8 to 1, and the
        # asymptote just past the switch at |z| = 350; |s|^4 would overflow
        # from |z| ~ 177, so 170 and 180 sit on either side of that edge
        import mpmath

        rng = np.random.default_rng(11)
        mags = np.concatenate([
            np.exp(rng.uniform(math.log(1e-9), math.log(349.9), 120)),
            [1e-9, 1.0, 170.0, 180.0, 349.9, 349.99, 350.0, 350.5, 352.0],
        ])
        z = np.concatenate([mags, -mags])
        worst = 0.0
        for beta in (0.6, 1.0, 1.7):
            ctx = ThermalContext(beta=beta)
            for b_target in np.exp(np.linspace(math.log(1e-8), 0.0, 5)):
                eps = b_target * beta / math.pi
                b = math.pi * eps / beta  # the b the kernel forms
                re, im = _position_kernel(ctx, eps, z)
                with mpmath.workdps(50):
                    for zi, gi in zip(z, re + 1j * im):
                        ref = 1 / (mpmath.mpf(beta) ** 2 * mpmath.sinh(mpmath.mpc(zi, b)) ** 2)
                        worst = max(worst, abs(complex(gi) - complex(ref)) / abs(complex(ref)))
        assert worst < 1e-14

    @pytest.mark.parametrize("beta", [0.6, 1.0, 1.7])
    def test_kernel_equals_the_separately_fed_formulation(self, beta):
        # z all inside |z| < 350, and z on both sides of it and on it, at b
        # from 1e-8 to 1: bit for bit
        ctx = ThermalContext(beta=beta)
        near = np.linspace(-349.0, 349.0, 1001)
        mixed = np.concatenate((np.linspace(-400.0, 400.0, 1001), [-350.0, 350.0, 349.99]))
        for b in np.exp(np.linspace(math.log(1e-8), 0.0, 5)):
            eps = b * beta / math.pi
            for z in (near, mixed, mixed.reshape(-1, 2)):
                got = _position_kernel(ctx, eps, z)
                assert np.array_equal(got, _reference_position_kernel(ctx, eps, z))

    def test_epsilon_required(self):
        with pytest.raises(ValueError):
            two_point_position(ThermalContext(), 1.0, 0.0)

    # NaN passed an "epsilon <= 0" test and inf gave NaN
    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_epsilon_must_be_finite(self, eps):
        with pytest.raises(ValueError, match="positive and finite"):
            two_point_position(ThermalContext(), 1.0, eps)

    @pytest.mark.parametrize("xi", [math.nan, -math.inf, [0.5, math.inf]])
    def test_non_finite_separation_raises(self, xi):
        with pytest.raises(DomainViolation, match="xi must be finite"):
            two_point_position(ThermalContext(), xi, 1e-4)

    # 1/(beta sin b)^2 overflows at beta <= 1; at beta = 4 the intermediate
    # 1/(beta sin^2 b), and at beta = 1e100 sin^2 b underflows to 0
    @pytest.mark.parametrize("beta, eps", [(0.3, 1e-155), (1.0, 1e-155), (1.0, 1e-300),
                                           (1.0, 5e-324), (4.0, 4e-155), (1e100, 1e-110)])
    def test_kernel_beyond_the_float_range_raises(self, beta, eps):
        # at beta = 1 and eps = 1e-155 the kernel read nan+nanj: it raises at
        # every xi now
        with pytest.raises(DomainViolation, match="leaves the float range"):
            two_point_position(ThermalContext(beta=beta), [0.0, beta], eps)

    def test_kernel_just_inside_the_float_range(self):
        got = two_point_position(ThermalContext(), 0.0, 2.4e-155)
        assert math.isfinite(got.real) and got.real < -1e308 / 2 and got.imag == 0.0

    def test_regulator_over_beta_beyond_the_float_range_raises(self):
        # b = pi eps/beta overflowed to inf and math.sin raised "math domain error"
        for beta, eps in ((1e-300, 1e10), (1.0, 1e308), (0.5, 1e308)):
            with pytest.raises(DomainViolation, match=re.escape(f"epsilon={eps}, beta={beta}: b = pi")):
                two_point_position(ThermalContext(beta=beta), 0.0, eps)

    @pytest.mark.parametrize("beta, eps", [(1.0, 5.6e307), (1e10, 1e308)])
    def test_regulator_over_beta_just_inside_the_float_range(self, beta, eps):
        # pi eps/beta = 1.76e308; and 3.1e298, where pi eps alone overflows
        got = two_point_position(ThermalContext(beta=beta), [0.0, 0.5 * beta], eps)
        assert np.all(np.isfinite(got.real)) and np.all(np.isfinite(got.imag))

    def test_separation_past_the_float_range_over_pi(self):
        # pi xi overflows to inf without a warning: the asymptote's 0 there
        got = two_point_position(ThermalContext(), [1e308, -1e308], 1e-4)
        assert np.array_equal(got.real, [0.0, 0.0]) and np.all(np.isfinite(got))


def reference_omega2_position(ctx, f, g, epsilon, block=None):
    """omega2_position as formulated before: its kernel and products over the
    whole correlation grid in one array each (block None), or block by block
    into one array of terms, each block with its own spline and kernel call."""
    dx = min(f.dx, g.dx)

    def on_step(fn):
        a, b = fn.support
        count = int(math.ceil((b - a) / dx - 1e-12)) + 1
        return a, fn(a + dx * np.arange(count))

    af, vf = on_step(f)
    ag, vg = on_step(g)
    corr = np.correlate(vg, vf, mode="full") * dx
    s0 = ag - (af + (len(vf) - 1) * dx)
    s1 = s0 + (len(corr) - 1) * dx
    F = _spline(s0, dx, corr)
    h = min(dx, epsilon / 16.0)
    n = int(math.ceil((s1 - s0) / h)) | 1
    sf = np.linspace(s0, s1, n)
    w = _simpson_weights(n, sf[1] - sf[0])
    if block is None:
        k = np.conj(two_point_position(ctx, sf, epsilon))
        return complex(np.sum(w * F(sf) * k))
    terms = np.empty(n, dtype=complex)
    for i in range(0, n, block):
        b = slice(i, i + block)
        k = two_point_position(ctx, sf[b], epsilon)
        np.multiply(w[b] * F(sf[b]), np.conj(k, out=k), out=terms[b])
    return complex(np.sum(terms))


class TestOmega2Position:
    @pytest.mark.parametrize("eps", [0.0, -1.0, math.inf, math.nan])
    def test_epsilon_must_be_positive_and_finite(self, eps):
        # 0 raised OverflowError and -1 numpy's "Number of samples, -31"
        ctx, f = ThermalContext(), TestFunction.bump(0.7, 0.4)
        for call in (lambda: omega2_position(ctx, f, f, eps),
                     lambda: calibrate_fourier_pair(ctx, [(f, f)], eps)):
            with pytest.raises(ValueError, match=f"epsilon must be positive and finite, got {eps}"):
                call()

    @pytest.mark.parametrize("beta", [0.6, 1.0, 1.37, 1.7])
    @pytest.mark.parametrize("eps_over_beta", [1e-3, 0.2])
    def test_one_array_sums_the_reference_formulas(self, beta, eps_over_beta):
        # the kernels suite's calibration pairs, bit for bit against both
        # references: 25601 nodes (12.5 blocks of 2048) at its epsilon, 4095
        # (a block and a short one) at 0.2 beta
        ctx, eps = ThermalContext(beta=beta), eps_over_beta * beta
        pairs = [
            (TestFunction.bump(0.7 * beta, 0.4 * beta), TestFunction.bump(1.4 * beta, 0.4 * beta)),
            (TestFunction.bump(0.5 * beta, 0.3 * beta), TestFunction.bump(0.9 * beta, 0.35 * beta)),
            (TestFunction.bump(1.1 * beta, 0.35 * beta), TestFunction.bump(1.2 * beta, 0.45 * beta)),
        ]
        for f, g in pairs:
            got = omega2_position(ctx, f, g, eps)
            assert got == reference_omega2_position(ctx, f, g, eps)
            assert got == reference_omega2_position(ctx, f, g, eps, block=2048)

    def test_one_array_sums_the_blocks_across_the_asymptote_switch(self, monkeypatch):
        # at beta 0.01 the kernel argument pi s/beta of this pair's 5121 nodes
        # runs from -31 to 471 and reaches |z| = 350 in the second block of
        # 2048: the first block took the kernel's unmasked branch, the others
        # the masked one, where the whole array takes the masked one
        import modularflow.weyl_field as wf

        ctx, eps = ThermalContext(beta=0.01), 5e-3
        f, g = TestFunction.bump(0.7, 0.4), TestFunction.bump(1.4, 0.4)
        unmasked = []
        plain_kernel = wf._position_kernel
        spy = lambda c, e, z: unmasked.append(np.abs(z).max() < wf._FAR) or plain_kernel(c, e, z)
        monkeypatch.setattr(wf, "_position_kernel", spy)
        want = reference_omega2_position(ctx, f, g, eps, block=2048)
        assert unmasked == [True, False, False]
        assert omega2_position(ctx, f, g, eps) == want
        assert unmasked[3:] == [False]

    @pytest.mark.parametrize("eps", [1e-300, 5e-324])
    def test_grid_beyond_the_node_cap_raises(self, eps):
        # 1e-300 raised numpy's "Maximum allowed size exceeded", and at 5e-324
        # the step eps/16 underflows to 0; both raise before any allocation
        import tracemalloc

        ctx, f = ThermalContext(beta=1.0), TestFunction.bump(0.7, 0.4)
        tracemalloc.start()
        try:
            with pytest.raises(ResolutionError, match=re.escape(f"epsilon={eps} needs about")):
                omega2_position(ctx, f, f, eps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e5

    def test_node_cap_edge(self, monkeypatch):
        # this pair takes 25613 nodes at epsilon 1e-3: the even cap above
        # admits it, the one below refuses it
        import modularflow.weyl_field as wf

        ctx, f, g = ThermalContext(beta=1.0), TestFunction.bump(0.7, 0.4), TestFunction.bump(1.4, 0.4)
        want = omega2_position(ctx, f, g, 1e-3)
        monkeypatch.setattr(wf, "_POSITION_NODES", 25614)
        assert omega2_position(ctx, f, g, 1e-3) == want
        monkeypatch.setattr(wf, "_POSITION_NODES", 25612)
        with pytest.raises(ResolutionError, match="above the cap of 25612"):
            omega2_position(ctx, f, g, 1e-3)

    def test_peak_memory(self):
        # 25613 nodes: 2.25 MB, about 88 bytes a node for the grid, weights,
        # kernel and terms over the whole node array
        import tracemalloc

        ctx, f, g = ThermalContext(beta=1.0), TestFunction.bump(0.7, 0.4), TestFunction.bump(1.4, 0.4)
        omega2_position(ctx, f, g, 1e-3)  # f's and g's splines are built once
        tracemalloc.start()
        try:
            omega2_position(ctx, f, g, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.4e6


class TestSymplecticForm:
    def test_kff_exactly_zero(self):
        ctx = ThermalContext()
        f = TestFunction.bump(1.0, 0.5)
        assert symplectic_K(ctx, N0, f, f) == 0.0

    def test_antisymmetry_exact(self):
        ctx = ThermalContext()
        rng = np.random.default_rng(11)
        f, g = random_bumps(rng, 2)
        assert symplectic_K(ctx, N0, f, g) == -symplectic_K(ctx, N0, g, f)

    def test_purely_imaginary(self):
        ctx = ThermalContext()
        rng = np.random.default_rng(12)
        f, g = random_bumps(rng, 2)
        assert symplectic_K(ctx, N0, f, g).real == 0.0

    def test_disjoint_supports_commute(self):
        ctx = ThermalContext()
        f = TestFunction.bump(0.5, 0.3)
        g = TestFunction.bump(2.5, 0.4)
        assert abs(symplectic_K(ctx, N0, f, g)) < 1e-7

    def test_tail_error(self):
        ctx = ThermalContext(pmax=3.0, npts=64)  # far too small a cutoff
        f = TestFunction.bump(1.0, 0.2)
        with pytest.raises(QuadratureError):
            symplectic_K(ctx, N0, f, f.translate(0.05))


    # pi/dp ~ 64.35 beta is the alias period of the default grid: unguarded,
    # K read 4.4e-4 i at d = 64.35 and -2.6e-3 i at 128.7, where 65536
    # nodes give below 1e-13
    @pytest.mark.parametrize("d", [64.35, 128.7])
    def test_aliased_separation_raises(self, d):
        f = TestFunction.bump(1.5, 0.5)
        with pytest.raises(QuadratureError, match="alias-free separation"):
            symplectic_K(ThermalContext(), N0, f, f.translate(d))

    def test_guarded_value_is_the_simpson_sum(self):
        # the guard leaves the value alone: it is the odd-weight sum of
        # Im conj(ft) gt, bit for bit, and scipy's simpson of the full-grid
        # integrand p ft(-p) gt(p) to 5e-17 of sum w |integrand| (worst
        # measured 1.4e-18; K itself is 3.7e-13, a cancellation)
        ctx = ThermalContext()
        f = TestFunction.bump(1.5, 0.5)
        g = f.translate(50.0)
        tf, tg = _transforms(ctx, f), _transforms(ctx, g)
        got = symplectic_K(ctx, N0, f, g)
        im = tf.real * tg.imag - tf.imag * tg.real
        assert got == complex(0.0, np.vecdot(_field_weight(ctx, N0)[1], im))
        p = momentum_grid(ctx)
        integrand = p * fourier(f, p)[::-1] * fourier(g, p)
        want = simpson(integrand, dx=p[1] - p[0]).imag
        w = _simpson_weights(len(p), p[1] - p[0])
        assert abs(got.imag - want) <= 5e-17 * np.vecdot(w, np.abs(integrand))


class TestPair:
    def test_row_stack_is_each_row(self):
        ctx = ThermalContext()
        m = len(momentum_grid(ctx)) // 2 + 1
        rng = np.random.default_rng(19)
        a = rng.standard_normal((5, m)) + 1j * rng.standard_normal((5, m))
        b = rng.standard_normal((5, m)) + 1j * rng.standard_normal((5, m))
        spans = np.linspace(1.0, 50.0, 5)
        for kernel in (_density(ctx, N0), _field_weight(ctx, N0)):
            got = _pair(ctx, spans, kernel, a, b)
            assert got.shape == (5,)
            for i in range(5):
                one = _pair(ctx, spans[i], kernel, a[i], b[i])
                assert type(one) is complex
                assert got[i] == one
            # one 1-D factor against a row stack is that factor in every row
            got = _pair(ctx, spans, kernel, a[0], b)
            assert all(got[i] == _pair(ctx, spans[i], kernel, a[0], b[i]) for i in range(5))

    def test_skipped_parts_are_the_full_sum(self):
        # K's even row is 0 and Im conj(a) a is 0, so those parts are not
        # formed; the result is bit for bit the two-part sum, 1-D and per row
        ctx = ThermalContext()
        m = len(momentum_grid(ctx)) // 2 + 1
        rng = np.random.default_rng(23)
        decay = np.exp(-np.arange(m) / 40.0)  # within the tail rule
        a, b = (rng.standard_normal((2, 3, m)) + 1j * rng.standard_normal((2, 3, m))) * decay
        a[:, 0], b[:, 0] = a[:, 0].real, b[:, 0].real
        for kernel in (_density(ctx, N0), _field_weight(ctx, N0), _density(ctx, FieldSpec(1))):
            even, odd, _ = kernel
            for x, y in ((a, b), (a, a), (b, b)):
                want = (np.vecdot(even, x.real * y.real + x.imag * y.imag)
                        + 1j * np.vecdot(odd, x.real * y.imag - x.imag * y.real))
                work = np.empty((2,) + x.shape)
                for got in (_pair(ctx, 1.0, kernel, x, y), _pair(ctx, 1.0, kernel, x, y, work=work)):
                    assert got.shape == (3,) and np.array_equal(got, want)
                for i in range(3):
                    xi = x[i]
                    yi = xi if x is y else y[i]
                    for what in (None, "test pairing"):
                        assert _pair(ctx, 1.0, kernel, xi, yi, what=what) == want[i]
        assert not _field_weight(ctx, N0)[0].any()

    def test_one_wide_row_raises(self):
        ctx = ThermalContext()
        y = np.ones((3, len(momentum_grid(ctx)) // 2 + 1), dtype=complex)
        with pytest.raises(QuadratureError, match="supports 60 apart"):
            _pair(ctx, np.array([1.0, 60.0, 2.0]), _density(ctx, N0), y, y)

    def test_every_momentum_sum_is_a_guarded_pair(self, monkeypatch):
        # a sum over the momentum nodes happens only inside _pair, and every
        # _pair call gets the span of what it pairs
        import modularflow.weyl_field as wf

        ctx = ThermalContext()
        m = len(momentum_grid(ctx)) // 2 + 1
        inside, outside, spans = [False], [], []
        vecdot = np.vecdot

        def vecdot_spy(x, y, **kw):
            if m in np.shape(x)[-1:] + np.shape(y)[-1:] and not inside[0]:
                outside.append((np.shape(x), np.shape(y)))
            return vecdot(x, y, **kw)

        def pair_spy(ctx, span, *factors, **kw):
            spans.append(np.max(span))
            inside[0] = True
            try:
                return _pair(ctx, span, *factors, **kw)
            finally:
                inside[0] = False

        monkeypatch.setattr(np, "vecdot", vecdot_spy)
        monkeypatch.setattr(wf, "_pair", pair_spy)
        f, g = TestFunction.bump(1.5, 0.5), TestFunction.bump(-1.5, 0.5)
        omega2(ctx, N0, f, g)
        symplectic_K(ctx, N0, f, g)
        weyl_inner(ctx, N0, NORM, g, f)
        calibrate_fourier_pair(ctx, [(f, g)], 0.05)
        assert spans == [4.0, 4.0, 4.0, 4.0, 4.0]
        ts = np.array([1.0, 3.0])
        _deviation_exponents(ctx, N0, NORM, f, 0.3, ts, g)
        _deviation_exponents(ctx, N0, NORM, f, 0.3, ts)
        assert len(spans) == 10 and outside == []
        # against g the span reaches its far end; without g a row spans
        # only its own deviation
        assert spans[5:8] == pytest.approx([ts[-1] - 0.3 + 2.0 + 2.0] * 3, abs=1e-9)
        assert max(spans[8:]) < 1.1

    def test_damped_pairing_guarded(self):
        f = TestFunction.bump(1.5, 0.5)
        with pytest.raises(QuadratureError, match="alias-free separation"):
            calibrate_fourier_pair(ThermalContext(), [(f, f.translate(62.0))], 0.05)


class TestOmega2:
    def test_zero_function(self):
        ctx = ThermalContext()
        z = TestFunction(np.zeros(64), 0.0, 0.05, (1.0, 2.0))
        f = TestFunction.bump(1.5, 0.4)
        assert omega2(ctx, N0, z, f) == 0.0

    def test_positivity_random(self):
        ctx = ThermalContext()
        rng = np.random.default_rng(21)
        for f in random_bumps(rng, 100, lo=-2.0, hi=3.0):
            val = omega2(ctx, N0, f, f)
            assert val.real >= -1e-12
            assert val.imag == 0.0

    def test_commutator_identity(self):
        # omega2(f, g) - omega2(g, f) = K(f, g)
        ctx = ThermalContext()
        rng = np.random.default_rng(22)
        for _ in range(5):
            f, g = random_bumps(rng, 2, lo=-1.0, hi=2.5)
            lhs = omega2(ctx, N0, f, g) - omega2(ctx, N0, g, f)
            rhs = symplectic_K(ctx, N0, f, g)
            assert abs(lhs - rhs) < 1e-10

    def test_hermitian_on_real_pairs(self):
        # bit for bit: summed over the full grid, 15 of these 20 pairs
        # missed by rounding
        ctx = ThermalContext()
        rng = np.random.default_rng(23)
        for _ in range(20):
            f, g = random_bumps(rng, 2)
            assert omega2(ctx, N0, g, f) == np.conj(omega2(ctx, N0, f, g))

    def test_real_on_an_equal_copy(self):
        # no `f is g` branch: a copy pairs to a real number too (it read
        # an imaginary part of -2.1e-20 with the full-grid integrand)
        ctx = ThermalContext()
        f = TestFunction.bump(1.2, 0.5)
        g = replace(f)
        assert g is not f and _transforms(ctx, g) is not _transforms(ctx, f)
        assert omega2(ctx, N0, f, g).imag == 0.0
        assert omega2(ctx, N0, f, g) == omega2(ctx, N0, f, f)

    def test_far_supports_match_fine_grid(self):
        # Simpson's T_2dp part aliases at separation pi/dp ~ 64.35 beta; 50 is clear
        f = TestFunction.bump(1.5, 0.5)
        g = f.translate(50.0)
        ref = omega2(ThermalContext(npts=65536), N0, f, g)
        assert abs(omega2(ThermalContext(), N0, f, g) - ref) < 1e-12

    # unguarded, d = 62 is off by 2.8e-8 and d = 130 by 5.1e-5; 17 nodes
    # alias at separation 0.126 and give omega2(f, f) = 0.0208, not 0.01788
    @pytest.mark.parametrize("npts, d", [(8192, 62.0), (8192, 130.0), (17, 0.0)])
    def test_aliased_separation_raises(self, npts, d):
        f = TestFunction.bump(1.5, 0.5)
        with pytest.raises(QuadratureError, match="two-point form"):
            omega2(ThermalContext(npts=npts), N0, f, f.translate(d))


class TestWeylInner:
    def test_same_function_is_one(self):
        ctx = ThermalContext()
        f = TestFunction.bump(1.0, 0.4)
        assert weyl_inner(ctx, N0, NORM, f, f) == pytest.approx(1.0, abs=1e-14)

    def test_state_value_against_zero(self):
        ctx = ThermalContext()
        f = TestFunction.bump(1.2, 0.5)
        zero = TestFunction(np.zeros(64), 1.0, 0.02, (1.2, 2.2))
        got = weyl_inner(ctx, N0, NORM, zero, f)
        expected = math.exp(-NORM.c * omega2(ctx, N0, f, f).real)
        assert got == pytest.approx(expected, rel=1e-10)

    def test_hermiticity(self):
        ctx = ThermalContext()
        rng = np.random.default_rng(31)
        f, g = random_bumps(rng, 2)
        a = weyl_inner(ctx, N0, NORM, g, f)
        b = weyl_inner(ctx, N0, NORM, f, g)
        assert abs(a - np.conj(b)) < 1e-10

    def test_modulus_bounded(self):
        ctx = ThermalContext()
        rng = np.random.default_rng(32)
        for _ in range(10):
            f, g = random_bumps(rng, 2)
            assert abs(weyl_inner(ctx, N0, NORM, g, f)) <= 1.0 + 1e-12

    def test_alias_guard_on_the_union_span(self):
        # f and its translate by d span d + 1 together; the default grid
        # resolves up to pi/dp - 6 beta ~ 58.3
        ctx = ThermalContext()
        f = TestFunction.bump(1.5, 0.5)
        with pytest.raises(QuadratureError, match="two-point form"):
            weyl_inner(ctx, N0, NORM, f, f.translate(62.0))
        assert 0.0 < abs(weyl_inner(ctx, N0, NORM, f, f.translate(50.0))) < 1.0

    def test_pairs_the_cached_transforms(self, monkeypatch):
        import modularflow.weyl_field as wf

        ctx = ThermalContext()
        f, g = TestFunction.bump(1.2, 0.5), TestFunction.bump(0.4, 0.3)
        expected = weyl_inner(ctx, N0, NORM, g, f)
        calls = []
        monkeypatch.setattr(wf, "fourier", lambda *a: calls.append(a) or fourier(*a))
        assert weyl_inner(ctx, N0, NORM, g, f) == expected
        assert calls == []

    def test_gram_positive_semidefinite(self):
        ctx = ThermalContext()
        rng = np.random.default_rng(33)
        fs = random_bumps(rng, 8, lo=-1.5, hi=3.5)
        G = np.empty((8, 8), dtype=complex)
        for i, fi in enumerate(fs):
            for j, fj in enumerate(fs):
                G[i, j] = weyl_inner(ctx, N0, NORM, fi, fj)
        evals = np.linalg.eigvalsh(G)
        assert evals.min() > -1e-8


class TestPullBack:
    """Both support edges go through one flow call."""

    def test_support_edges_are_the_scalar_maps(self):
        ctx = ThermalContext(1.3)
        f = TestFunction.bump(1.2, 0.5)
        for transform, flow, param in ((modular_transform, modular_flow_ray, -0.4),
                                       (modular_transform, modular_flow_ray, 0.7),
                                       (gamma_transform, gamma_flow_ray, 0.3)):
            h = transform(ctx, param, f)
            assert h.support == tuple(flow(ctx, RayDirection.PLUS, param, x) for x in f.support)
            assert all(type(edge) is float for edge in h.support)

    def test_failing_support_edge_keeps_the_scalar_maps_error(self):
        # u < 0 with a support reaching left of the flow's floor near 0: the
        # lower edge fails alone, or both do; either way the error is the
        # scalar map's at the lower edge, with its exit parameter
        ctx = ThermalContext(1.0)
        for f in (TestFunction.bump(0.0, 0.05), TestFunction.bump(-0.5, 0.1)):
            for u in (-0.3, -1.0):
                with pytest.raises(DomainViolation) as want:
                    modular_flow_ray(ctx, RayDirection.PLUS, u, f.support[0])
                with pytest.raises(DomainViolation) as got:
                    modular_transform(ctx, u, f)
                assert str(got.value) == str(want.value)
                assert got.value.exit_param == want.value.exit_param == u


class TestModularTransform:
    def test_u_zero_identity(self):
        ctx = ThermalContext()
        f = TestFunction.bump(1.5, 0.5)
        g = modular_transform(ctx, 0.0, f)
        x = np.linspace(0.9, 2.1, 500)
        assert np.max(np.abs(g(x) - f(x))) < 1e-10

    def test_support_mapping_example(self):
        # beta = 2 pi, scale factor 2 on the chart: [1, 2] lands on
        # [log(1 + (e - 1)/2), log(1 + (e^2 - 1)/2)]
        ctx = ThermalContext(beta=TWO_PI)
        u = math.log(2.0) / TWO_PI
        f = TestFunction.bump(1.5, 0.5)
        g = modular_transform(ctx, u, f)
        assert g.support[0] == pytest.approx(math.log(1 + (math.e - 1) / 2), abs=1e-12)
        assert g.support[1] == pytest.approx(
            math.log(1 + (math.e**2 - 1) / 2), abs=1e-12
        )
        assert g.support[0] == pytest.approx(0.6201145070, abs=1e-9)
        assert g.support[1] == pytest.approx(1.4337808305, abs=1e-9)

    def test_group_law(self):
        ctx = ThermalContext()
        f = TestFunction.bump(1.2, 0.5)
        a = modular_transform(ctx, 0.3, modular_transform(ctx, 0.45, f))
        b = modular_transform(ctx, 0.75, f)
        x = np.linspace(min(a.support[0], b.support[0]), max(a.support[1], b.support[1]), 1500)
        assert np.max(np.abs(a(x) - b(x))) < 1e-8

    def test_unitarity_of_two_point_form(self):
        ctx = ThermalContext()
        rng = np.random.default_rng(41)
        f, g = random_bumps(rng, 2, lo=0.3, hi=2.8)
        for u in (-0.4, 0.25):
            df, dg = modular_transform(ctx, u, f), modular_transform(ctx, u, g)
            assert abs(omega2(ctx, N0, df, dg) - omega2(ctx, N0, f, g)) < 1e-6

    def test_symplectic_invariance(self):
        ctx = ThermalContext()
        rng = np.random.default_rng(42)
        f, g = random_bumps(rng, 2, lo=0.3, hi=2.8)
        for u in (-0.3, 0.5):
            df, dg = modular_transform(ctx, u, f), modular_transform(ctx, u, g)
            assert (
                abs(symplectic_K(ctx, N0, df, dg) - symplectic_K(ctx, N0, f, g)) < 1e-6
            )

    def test_negative_u_domain(self):
        ctx = ThermalContext()
        f = TestFunction.bump(-1.0, 0.5)  # support [-1.5, -0.5]
        with pytest.raises(DomainViolation):
            modular_transform(ctx, -1.0, f)

    def test_clip_left_supported_positive_u(self):
        # u >= 0 admits any compact support; the image squeezes against the
        # flow's floor but nothing is lost
        ctx = ThermalContext()
        f = TestFunction.bump(-1.0, 0.5)
        g = modular_transform(ctx, 0.8, f)
        floor = (ctx.beta / TWO_PI) * math.log(-math.expm1(-TWO_PI * 0.8))
        assert g.support[0] > floor
        for edge, orig in zip(g.support, f.support):
            assert edge == pytest.approx(
                modular_flow_ray(ctx, RayDirection.PLUS, 0.8, orig), abs=1e-13
            )
        # value fidelity at mild compression (deep-left supports squeeze the
        # whole shape into a few nodes of the regenerated uniform grid)
        f2 = TestFunction.bump(-0.1, 0.5)
        g2 = modular_transform(ctx, 0.1, f2)
        x = np.linspace(g2.support[0], g2.support[1], 4001)
        back = modular_flow_ray(ctx, RayDirection.PLUS, -0.1, x)
        assert np.max(np.abs(g2(x) - f2(back))) < 1e-5


class TestGammaTransform:
    def test_tau_zero_identity(self):
        ctx = ThermalContext()
        f = TestFunction.bump(0.7, 0.3)
        g = gamma_transform(ctx, 0.0, f)
        x = np.linspace(0.3, 1.1, 500)
        assert np.max(np.abs(g(x) - f(x))) < 1e-10

    def test_negative_tau_rejected(self):
        ctx = ThermalContext()
        with pytest.raises(DomainViolation):
            gamma_transform(ctx, -0.1, TestFunction.bump(1.0, 0.3))

    def test_support_in_positive_axis_at_threshold(self):
        ctx = ThermalContext(beta=1.4)
        tau = ctx.beta / TWO_PI
        for f in (TestFunction.bump(-3.0, 0.8), TestFunction.bump(0.5, 1.2)):
            g = gamma_transform(ctx, tau, f)
            assert g.support[0] >= 0.0

    def test_support_mapping_chart_oracle(self):
        ctx = ThermalContext()
        f = TestFunction.bump(1.1, 0.4)
        tau = 0.6
        g = gamma_transform(ctx, tau, f)
        for edge, orig in zip(g.support, f.support):
            assert edge == pytest.approx(
                gamma_flow_ray(ctx, RayDirection.PLUS, tau, orig), abs=1e-13
            )

    def test_additivity(self):
        ctx = ThermalContext()
        f = TestFunction.bump(0.9, 0.35)
        a = gamma_transform(ctx, 0.2, gamma_transform(ctx, 0.7, f))
        b = gamma_transform(ctx, 0.9, f)
        x = np.linspace(b.support[0] - 0.1, b.support[1] + 0.1, 1200)
        assert np.max(np.abs(a(x) - b(x))) < 1e-8


class TestHigherTransform:
    def test_n0_delegates(self):
        ctx = ThermalContext()
        f = TestFunction.bump(1.0, 0.4)
        a = higher_transform(ctx, 0, "modular", 0.3, f)
        b = modular_transform(ctx, 0.3, f)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_u_zero_recovers_function(self):
        ctx = ThermalContext()
        f = TestFunction.bump(1.2, 0.5)
        for n in (1, 2):
            g = higher_transform(ctx, n, "modular", 0.0, f)
            x = np.linspace(0.6, 1.9, 700)
            assert np.max(np.abs(g(x) - f(x))) < 1e-7
            assert not g.compact_support

    def test_requires_positive_support(self):
        ctx = ThermalContext()
        f = TestFunction.bump(0.0, 0.5)
        with pytest.raises(DomainViolation):
            higher_transform(ctx, 1, "modular", 0.1, f)
        with pytest.raises(DomainViolation):
            higher_transform(ctx, 1, "gamma", 0.1, f)

    def test_n1_tail_matches_total_integral(self):
        # delta_u^{(1)} f tends to int_0^inf delta_u^{(0)} f' dy, nonzero
        ctx = ThermalContext()
        f = TestFunction.bump(1.5, 0.5)
        u = 0.2
        g = higher_transform(ctx, 1, "modular", u, f)
        moved = modular_transform(ctx, u, nth_derivative(f, 1))
        x = np.linspace(moved.support[0], moved.support[1], 8193)
        from scipy.integrate import simpson

        total = simpson(moved(x), dx=x[1] - x[0])
        assert abs(total) > 1e-4
        tail_at = g.support[1] - 0.1
        assert g(tail_at) == pytest.approx(total, rel=1e-5)

    def test_gamma_branch(self):
        ctx = ThermalContext()
        f = TestFunction.bump(1.0, 0.4)
        g = higher_transform(ctx, 1, "gamma", 0.3, f)
        assert not g.compact_support
        assert abs(g(g.support[1] - 0.05)) > 1e-5

    def test_resolution_error(self):
        ctx = ThermalContext()
        f = TestFunction.bump(1.0, 0.4, n=48)
        with pytest.raises(ResolutionError):
            higher_transform(ctx, 3, "modular", 0.2, f)

    def test_overflowing_derivative_is_unresolved(self):
        # (i p)^150 overflows: the samples used to fail TestFunction's
        # "samples must be finite" ValueError, after numpy warnings
        f = TestFunction.bump(1.5, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: nth_derivative(f, 150),
                         lambda: higher_transform(ThermalContext(), 150, "modular", 0.2, f)):
                with pytest.raises(ResolutionError, match="order 150 overflows the float range"):
                    call()


    @pytest.mark.parametrize("n", [-1, 1.5])
    def test_index_rule(self, n):
        # FieldSpec's rule for every index: localization_defect used to
        # return the n = 0 value at n = -1, nth_derivative NaN samples
        ctx = ThermalContext()
        f = TestFunction.bump(1.5, 0.5)
        for call in (
            lambda: higher_transform(ctx, n, "modular", 0.2, f),
            lambda: localization_defect(ctx, n, 0.2, f, (0.0, 50.0)),
            lambda: nth_derivative(f, n),
        ):
            with pytest.raises(ValueError, match="non-negative integer"):
                call()


def _derivative_two_spectra(vals, dx, n):
    """_derivative_values as it was with its spectral check forming a
    spectrum of its own."""
    spec = np.abs(np.fft.rfft(vals, 2 * len(vals)))
    top = spec[-max(2, len(spec) // 50) :]
    if spec.max() > 0 and top.max() < 1e-12 * spec.max():
        m = 2 * len(vals)
        freq = np.fft.rfftfreq(m, dx) * TWO_PI
        return np.fft.irfft(np.fft.rfft(vals, m) * (1j * freq) ** n, m)[: len(vals)]
    out = np.asarray(vals, dtype=float)
    for _ in range(n):
        out = _derivative_once_fd4(out, dx)
    return out


class TestDerivative:
    def test_one_spectrum_per_derivative(self, monkeypatch):
        # a smooth bump takes the spectral branch, a kinked one the finite
        # differences; both equal the two-spectra formula bit for bit, full
        # grid and half grid, and each forms one spectrum
        smooth = TestFunction.bump(1.2, 0.5)
        x = np.linspace(0.7, 1.7, 2048)
        kinked = TestFunction(np.maximum(0.0, 0.25 - np.abs(x - 1.2)), x[0], x[1] - x[0], (0.7, 1.7))
        real_rfft, calls = np.fft.rfft, []
        monkeypatch.setattr(np.fft, "rfft", lambda *a, **k: calls.append(1) or real_rfft(*a, **k))
        for f in (smooth, kinked):
            for n in (1, 2, 3):
                for vals, dx in ((f.samples, f.dx), (f.samples[::2], 2.0 * f.dx)):
                    want = _derivative_two_spectra(vals, dx, n)
                    calls.clear()
                    got = _derivative_values(vals, dx, n)
                    assert len(calls) == 1
                    np.testing.assert_array_equal(got, want)
        for f, spectral in ((smooth, True), (kinked, False)):
            assert bool(_spectral_ok(real_rfft(f.samples, 2 * len(f.samples)))) is spectral


class TestLocalizationDefect:
    def test_u_zero_vanishes(self):
        ctx = ThermalContext()
        f = TestFunction.bump(1.5, 0.5)
        assert abs(localization_defect(ctx, 1, 0.0, f, (0.0, 50.0))) < 1e-10

    def test_nonzero_and_stable(self):
        ctx = ThermalContext()
        f = TestFunction.bump(1.5, 0.5)
        d1 = localization_defect(ctx, 1, 0.2, f, (0.0, 50.0))
        d2 = localization_defect(ctx, 1, 0.2, f, (0.0, 100.0))
        assert abs(d1) > 1e-4
        assert abs(d1 - d2) < 1e-8

    def test_n0_compact_support_preserved(self):
        ctx = ThermalContext()
        f = TestFunction.bump(1.5, 0.5)
        assert abs(localization_defect(ctx, 0, 0.35, f, (0.0, 50.0))) < 1e-9


class TestFieldIdentification:
    def test_higher_density_equals_derivative_pairing(self):
        # int dens_n ft(-p) gt(p) = int dens_0 (f^(n))t(-p) (g^(n))t(p);
        # the p^{2n+1} density needs a higher cutoff to decay
        ctx = ThermalContext(pmax=500.0, npts=16384)
        rng = np.random.default_rng(51)
        f, g = random_bumps(rng, 2, lo=0.4, hi=2.6)
        for n in (1, 2):
            lhs = omega2(ctx, FieldSpec(n), f, g)
            rhs = omega2(ctx, N0, nth_derivative(f, n), nth_derivative(g, n))
            assert abs(lhs - rhs) < 1e-8


class TestFourierPairCalibration:
    def test_constant_is_pair_independent(self):
        ctx = ThermalContext()
        eps = 1e-3 * ctx.beta
        pairs = [
            (TestFunction.bump(0.7, 0.4), TestFunction.bump(1.4, 0.4)),
            (TestFunction.bump(0.5, 0.3), TestFunction.bump(0.9, 0.35)),
            (TestFunction.bump(1.1, 0.35), TestFunction.bump(1.2, 0.45)),
        ]
        cal = calibrate_fourier_pair(ctx, pairs, eps)
        assert cal.max_relative_deviation < 1e-4

    def test_derived_constant_reproduces_momentum_form(self):
        # at matched regularization -1/4 times the position smear reproduces
        # the damped momentum pairing on each pair to well under 1e-4
        ctx = ThermalContext()
        eps = 1e-3 * ctx.beta
        f, g = TestFunction.bump(0.45, 0.3), TestFunction.bump(1.0, 0.5)
        cal = calibrate_fourier_pair(ctx, [(f, g)], eps)
        assert abs(cal.constant / -0.25 - 1.0) < 1e-6
        assert cal.max_relative_deviation == abs(cal.constant / -0.25 - 1.0)
        # removing the regularization moves the value only at O(eps)
        mom = cal.constant * omega2_position(ctx, f, g, eps)
        mom0 = omega2(ctx, N0, f, g)
        assert abs(mom0 - mom) / abs(mom0) < 5e-2
