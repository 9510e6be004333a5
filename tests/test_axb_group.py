"""Group algebra tests; expected values come from a 2x2 matrix oracle."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modularflow.axb_group import (
    DILATION_PARAMS,
    SHIFTED_DILATION_PARAMS,
    TRANSLATION_PARAMS,
    GroupElement,
    SubgroupParams,
    compose,
    compose_decomposition,
    conjugate_translation,
    decompose_translation,
    exchange_exponent,
    inverse,
    subgroup_element,
)
from modularflow.errors import DomainViolation

TWO_PI = 2.0 * math.pi


def as_matrix(g: GroupElement) -> np.ndarray:
    return np.array([[g.lam, g.tau], [0.0, 1.0]])


def from_matrix(m: np.ndarray) -> GroupElement:
    return GroupElement(m[0, 0], m[0, 1])


def assert_close(g: GroupElement, h: GroupElement, tol=1e-12):
    assert abs(g.lam - h.lam) <= tol * max(1.0, abs(h.lam))
    assert abs(g.tau - h.tau) <= tol * max(1.0, abs(h.tau))


class TestCompose:
    def test_identity_left(self):
        g = GroupElement(0.7, -2.3)
        assert compose(GroupElement.identity(), g) == g

    def test_matrix_product_oracle(self):
        g = GroupElement(0.5, 2.0)
        expected = from_matrix(as_matrix(g) @ as_matrix(g))
        got = compose(g, g)
        assert got == GroupElement(0.25, 3.0)
        assert_close(got, expected)

    def test_inverse_roundtrip(self):
        g = GroupElement(0.3, -1.7)
        assert_close(compose(g, inverse(g)), GroupElement.identity(), 1e-14)
        assert_close(compose(inverse(g), g), GroupElement.identity(), 1e-14)

    def test_random_pairs_match_matrix_product(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g1 = GroupElement(rng.uniform(0.05, 20.0), rng.uniform(-5, 5))
            g2 = GroupElement(rng.uniform(0.05, 20.0), rng.uniform(-5, 5))
            expected = from_matrix(as_matrix(g1) @ as_matrix(g2))
            assert_close(compose(g1, g2), expected, 1e-14)


class TestInverse:
    def test_identity(self):
        assert inverse(GroupElement.identity()) == GroupElement.identity()

    def test_matrix_inverse_oracle(self):
        g = GroupElement(0.5, 2.0)
        expected = from_matrix(np.linalg.inv(as_matrix(g)))
        got = inverse(g)
        assert got == GroupElement(2.0, -4.0)
        assert_close(got, expected)

    def test_pure_dilation(self):
        g = GroupElement(0.25, 0.0)
        assert inverse(g) == GroupElement(4.0, 0.0)


class TestSubgroups:
    def test_dilation_subgroup(self):
        u = 0.37
        g = subgroup_element(DILATION_PARAMS, u)
        assert_close(g, GroupElement(math.exp(-TWO_PI * u), 0.0), 1e-14)

    def test_translation_subgroup(self):
        tau = -1.9
        g = subgroup_element(TRANSLATION_PARAMS, tau)
        assert_close(g, GroupElement(1.0, tau), 1e-14)

    def test_shifted_dilation_subgroup(self):
        s = 0.21
        g = subgroup_element(SHIFTED_DILATION_PARAMS, s)
        expected = GroupElement(
            math.exp(-TWO_PI * s), (math.exp(-TWO_PI * s) - 1.0) / TWO_PI
        )
        assert_close(g, expected, 1e-14)

    def test_generator_matches_finite_difference(self):
        # d/dr g(r) at r=0 equals [[a, b], [0, 0]] componentwise
        h = 1e-6
        for p in (
            DILATION_PARAMS,
            TRANSLATION_PARAMS,
            SHIFTED_DILATION_PARAMS,
            SubgroupParams(1.3, -0.4),
        ):
            gp = as_matrix(subgroup_element(p, h))
            gm = as_matrix(subgroup_element(p, -h))
            d = (gp - gm) / (2 * h)
            assert abs(d[0, 0] - p.a) < 1e-6
            assert abs(d[0, 1] - p.b) < 1e-6

    def test_small_parameter_limit(self):
        # a*r below the Taylor switch threshold
        p = SubgroupParams(1e-12, 2.0)
        g = subgroup_element(p, 1.0)
        assert abs(g.tau - 2.0) < 1e-10
        assert abs(g.lam - 1.0) < 1e-10

    def test_additivity_grid(self):
        # g(r1) o g(r2) = g(r1 + r2) over a 10x10x10 (a, b, r) sample
        a_vals = np.linspace(-2.0, 2.0, 10)
        b_vals = np.linspace(-2.0, 2.0, 10)
        r_vals = np.linspace(-1.5, 1.5, 10)
        worst = 0.0
        for a in a_vals:
            for b in b_vals:
                if a == 0.0 and b == 0.0:
                    continue
                p = SubgroupParams(a, b)
                for r in r_vals:
                    lhs = compose(subgroup_element(p, r), subgroup_element(p, 0.4))
                    rhs = subgroup_element(p, r + 0.4)
                    worst = max(
                        worst, abs(lhs.lam - rhs.lam), abs(lhs.tau - rhs.tau)
                    )
        assert worst < 1e-12


class TestExchange:
    def test_u_zero_returns_s(self):
        assert abs(exchange_exponent(0.0, -0.7) - (-0.7)) < 1e-14

    def test_s_zero_returns_zero(self):
        assert exchange_exponent(1.3, 0.0) == 0.0

    def test_log_two_case(self):
        # e^{-2 pi u} = 0.5, e^{-2 pi s} = 3: brace is 2
        u = math.log(2.0) / TWO_PI
        s = -math.log(3.0) / TWO_PI
        expected = -math.log(2.0) / TWO_PI
        assert abs(exchange_exponent(u, s) - expected) < 1e-14
        # matrix-product oracle for the exchange identity itself
        lhs = as_matrix(
            compose(
                subgroup_element(DILATION_PARAMS, u),
                subgroup_element(SHIFTED_DILATION_PARAMS, s),
            )
        )
        F = exchange_exponent(u, s)
        rhs = as_matrix(
            compose(
                subgroup_element(SHIFTED_DILATION_PARAMS, F),
                subgroup_element(DILATION_PARAMS, -F + s + u),
            )
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_identity_on_admissible_grid(self):
        # deviation is relative: lam grows like e^{4.8 pi} on this grid, where
        # an absolute 1e-12 would be below one ulp
        worst = 0.0
        for u in np.linspace(-1.2, 1.2, 15):
            for s in np.linspace(-1.2, 1.2, 15):
                if math.exp(-TWO_PI * u) * math.expm1(-TWO_PI * s) <= -1.0:
                    continue
                F = exchange_exponent(u, s)
                lhs = compose(
                    subgroup_element(DILATION_PARAMS, u),
                    subgroup_element(SHIFTED_DILATION_PARAMS, s),
                )
                rhs = compose(
                    subgroup_element(SHIFTED_DILATION_PARAMS, F),
                    subgroup_element(DILATION_PARAMS, -F + s + u),
                )
                worst = max(
                    worst,
                    abs(lhs.lam - rhs.lam) / max(1.0, abs(rhs.lam)),
                    abs(lhs.tau - rhs.tau) / max(1.0, abs(rhs.tau)),
                )
        assert worst < 1e-12

    def test_domain_violation(self):
        # s > 0 large with u large makes the brace non-positive
        with pytest.raises(DomainViolation):
            exchange_exponent(-2.0, 1.0)

    def test_boundary_is_error_not_inf(self):
        # brace exactly zero must raise, not return -inf
        # e^{-2 pi u} (e^{-2 pi s} - 1) = -1 at u = 0, s = +inf-direction; pick
        # values engineered to land on <= -1 in floating point
        with pytest.raises(DomainViolation):
            exchange_exponent(0.0, 1e3)


class TestDecomposeTranslation:
    def test_zero_both_branches(self):
        assert decompose_translation(0.0, "first") == (0.0, 0.0)
        assert decompose_translation(0.0, "second") == (0.0, 0.0)

    def test_known_point_first_branch(self):
        tau = (math.exp(TWO_PI) - 1.0) / TWO_PI
        s, u = decompose_translation(tau, "first")
        assert abs(s + 1.0) < 1e-12
        assert abs(u - 1.0) < 1e-12

    def test_compose_oracle_both_branches(self):
        for tau in np.linspace(-0.12, 0.12, 11):
            for branch in ("first", "second"):
                g = compose_decomposition(tau, branch)
                assert abs(g.lam - 1.0) < 1e-12
                assert abs(g.tau - tau) < 1e-12

    def test_branch_overlap_agreement(self):
        # |tau| < 1/(2 pi): both branches reproduce the same translation
        for tau in np.linspace(-0.9 / TWO_PI, 0.9 / TWO_PI, 21):
            g1 = compose_decomposition(tau, "first")
            g2 = compose_decomposition(tau, "second")
            assert abs(g1.lam - g2.lam) < 1e-12
            assert abs(g1.tau - g2.tau) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainViolation):
            decompose_translation(-1.0 / TWO_PI, "first")
        with pytest.raises(DomainViolation):
            decompose_translation(1.0 / TWO_PI, "second")


class TestConjugateTranslation:
    def test_dilation_case(self):
        # e^{-2 pi u} = 0.5 acting on tau=2 gives 1
        u = math.log(2.0) / TWO_PI
        assert abs(conjugate_translation(DILATION_PARAMS, u, 2.0) - 1.0) < 1e-14

    def test_r_zero(self):
        assert conjugate_translation(SubgroupParams(0.3, 1.0), 0.0, 5.0) == 5.0

    def test_shifted_dilation_case(self):
        # e^{-2 pi s} = 4 acting on tau=1 gives 4
        s = -math.log(4.0) / TWO_PI
        got = conjugate_translation(SHIFTED_DILATION_PARAMS, s, 1.0)
        assert abs(got - 4.0) < 1e-13

    def test_matrix_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            p = SubgroupParams(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if p.a == 0.0 and p.b == 0.0:
                continue
            r = rng.uniform(-1, 1)
            tau = rng.uniform(-3, 3)
            m = (
                as_matrix(subgroup_element(p, r))
                @ as_matrix(GroupElement(1.0, tau))
                @ as_matrix(subgroup_element(p, -r))
            )
            assert abs(m[0, 0] - 1.0) < 1e-12
            assert abs(conjugate_translation(p, r, tau) - m[0, 1]) < 1e-11


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=20.0),
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=0.05, max_value=20.0),
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=0.05, max_value=20.0),
    st.floats(min_value=-5.0, max_value=5.0),
)
def test_associativity(l1, t1, l2, t2, l3, t3):
    g1, g2, g3 = GroupElement(l1, t1), GroupElement(l2, t2), GroupElement(l3, t3)
    left = compose(compose(g1, g2), g3)
    right = compose(g1, compose(g2, g3))
    assert abs(left.lam - right.lam) <= 1e-12 * max(1.0, abs(right.lam))
    assert abs(left.tau - right.tau) <= 1e-12 * max(1.0, abs(right.tau))


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=20.0),
    st.floats(min_value=-5.0, max_value=5.0),
)
def test_inverse_property(lam, tau):
    g = GroupElement(lam, tau)
    gid = compose(inverse(g), g)
    assert abs(gid.lam - 1.0) < 1e-13
    assert abs(gid.tau) < 1e-12


class TestSlots:
    """GroupElement and SubgroupParams are frozen dataclasses with slots."""

    @pytest.mark.parametrize(
        "cls, args, name", [(GroupElement, (2.0, 0.5), "lam"), (SubgroupParams, (1.0, -0.5), "a")]
    )
    def test_frozen_slotted_dataclass(self, cls, args, name):
        obj = cls(*args)
        assert not hasattr(obj, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, 3.0)
        # a new attribute has no slot and is refused; on Python 3.11 the
        # frozen __setattr__ raises TypeError there, from its super() call on
        # the class as it was before the slots were added
        with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
            obj.other = 3.0
        assert obj == cls(*args) and obj != cls(args[0], 7.0)
        assert hash(obj) == hash(cls(*args)) == hash(args)
        assert dataclasses.astuple(obj) == args
        moved = dataclasses.replace(obj, **{name: 4.0})
        assert moved == cls(4.0, args[1]) and obj == cls(*args)
        assert repr(obj) == f"{cls.__name__}({name}={args[0]!r}, {dataclasses.fields(cls)[1].name}={args[1]!r})"

    def test_validation_unchanged(self):
        for lam in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="scale factor must be positive"):
                GroupElement(lam, 0.0)
        with pytest.raises(ValueError, match="scale factor must be positive"):
            dataclasses.replace(GroupElement(2.0, 0.5), lam=-2.0)
        with pytest.raises(ValueError, match=r"\(0, 0\) generates only the identity"):
            SubgroupParams(0.0, 0.0)
        assert GroupElement.identity() == GroupElement(1.0, 0.0)
        assert GroupElement(math.exp(-TWO_PI * 0.25), 0.0).u == pytest.approx(0.25, rel=1e-15)
