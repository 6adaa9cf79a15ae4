import itertools
import math
import random

import pytest

import rdlab as R
from rdlab.errors import BudgetExceededError, IndexRadiusError, SpecMismatchError

Z = R.FreeAbelian(1)
Z2 = R.FreeAbelian(2)
F2 = R.FreeGroup(2)


def brute_convolve(a, b):
    """Independent oracle: (a*b)(h) = sum_g a(g) b(g^-1 h) evaluated per h."""
    spec = a.spec
    candidates = {spec.multiply(g, h) for g in a.coeffs for h in b.coeffs}
    out = {}
    for h in candidates:
        total = 0.0
        for g, cg in a.coeffs.items():
            total += cg * b.coeffs.get(spec.multiply(spec.inverse(g), h), 0.0)
        if total != 0.0:
            out[h] = total
    return out


def random_element(spec, index, rng, radius, size, integer=False):
    pool = list(index.ball(radius))
    supp = rng.sample(pool, min(size, len(pool)))
    coeffs = {}
    for g in supp:
        c = rng.randint(-3, 3) if integer else rng.uniform(-1, 1)
        if c:
            coeffs[g] = float(c)
    return R.AlgebraElement(spec=spec, coeffs=coeffs, support_radius=radius)


class TestElement:
    def test_zero_coefficients_dropped_from_a_copy(self):
        given = {(3,): 1.0, (1,): 0.0, (2,): -0.0, (0,): 2.0}
        a = R.AlgebraElement(spec=Z, coeffs=given, support_radius=3)
        assert list(a.coeffs.items()) == [((3,), 1.0), ((0,), 2.0)]
        assert len(given) == 4
        b = R.AlgebraElement(spec=Z, coeffs=a.coeffs, support_radius=3)
        assert list(b.coeffs.items()) == list(a.coeffs.items())
        assert b.coeffs is not a.coeffs


class TestCharacteristic:
    def test_ball_on_z(self, z_index):
        el = R.char_ball(z_index, 1)
        assert el.coeffs == {(-1,): 1.0, (0,): 1.0, (1,): 1.0}
        assert el.support_radius == 1

    def test_sphere_on_f2(self, f2_index):
        el = R.char_sphere(f2_index, 2)
        assert len(el) == 12
        assert set(el.coeffs.values()) == {1.0}

    def test_point_is_identity_for_convolution(self, z2_index):
        delta = R.point_mass(Z2, (0, 0))
        other = R.char_ball(z2_index, 2)
        assert R.convolve(delta, other).coeffs == other.coeffs
        assert R.convolve(other, delta).coeffs == other.coeffs

    def test_radius_guard(self, z_index):
        with pytest.raises(IndexRadiusError):
            R.char_ball(z_index, z_index.radius + 1)


class TestConvolve:
    def test_delta_convolution(self, f2_index):
        dg = R.point_mass(F2, "ab")
        dh = R.point_mass(F2, "Ba")
        assert R.convolve(dg, dh).coeffs == {"aa": 1.0}

    def test_ball_one_squared_on_z(self, z_index):
        b1 = R.char_ball(z_index, 1)
        out = R.convolve(b1, b1)
        assert {g[0]: v for g, v in out.coeffs.items()} == \
            {-2: 1.0, -1: 2.0, 0: 3.0, 1: 2.0, 2: 1.0}
        assert out.support_radius == 2

    def test_f2_sphere_squared(self, f2_index):
        # enumerate all 16 generator pairs by hand
        expected = {}
        for u, v in itertools.product("aAbB", repeat=2):
            w = F2.multiply(u, v)
            expected[w] = expected.get(w, 0.0) + 1.0
        s1 = R.char_sphere(f2_index, 1)
        assert R.convolve(s1, s1).coeffs == expected
        assert expected[""] == 4.0
        assert sum(1 for w in expected if len(w) == 2) == 12

    @pytest.mark.parametrize("spec,radius", [(Z2, 3), (F2, 3)])
    def test_matches_brute_force(self, spec, radius):
        index = R.enumerate_balls(spec, radius)
        rng = random.Random(7)
        for _ in range(5):
            a = random_element(spec, index, rng, 2, 6)
            b = random_element(spec, index, rng, 3, 8)
            got = R.convolve(a, b).coeffs
            want = brute_convolve(a, b)
            assert set(got) == set(want)
            for g in got:
                assert got[g] == pytest.approx(want[g], rel=1e-12, abs=1e-15)

    def test_associativity(self):
        index = R.enumerate_balls(F2, 3)
        rng = random.Random(3)
        for _ in range(5):
            a = random_element(F2, index, rng, 3, 6)
            b = random_element(F2, index, rng, 3, 6)
            c = random_element(F2, index, rng, 3, 6)
            left = R.convolve(R.convolve(a, b), c)
            right = R.convolve(a, R.convolve(b, c))
            assert set(left.coeffs) == set(right.coeffs)
            for g, v in left.coeffs.items():
                assert v == pytest.approx(right.coeffs[g], rel=1e-12, abs=1e-12)

    def test_young_bound(self, z2_index):
        rng = random.Random(11)
        for _ in range(10):
            a = random_element(Z2, z2_index, rng, 3, 8)
            b = random_element(Z2, z2_index, rng, 3, 8)
            lhs = R.norm(R.convolve(a, b), "l2")
            assert lhs <= R.norm(a, "l1") * R.norm(b, "l2") + 1e-9

    @pytest.mark.parametrize("spec,n,m", [(Z, 2, 3), (Z2, 1, 2), (F2, 1, 2)])
    def test_ball_product_support(self, spec, n, m):
        index = R.enumerate_balls(spec, n + m)
        out = R.convolve(R.char_ball(index, n), R.char_ball(index, m))
        assert set(out.coeffs) == set(index.ball(n + m))
        assert all(v > 0 for v in out.coeffs.values())

    def test_support_radius_bounds_lengths(self, z2_index):
        rng = random.Random(21)
        a = random_element(Z2, z2_index, rng, 3, 8)
        b = random_element(Z2, z2_index, rng, 4, 8)
        out = R.convolve(a, b)
        assert out.support_radius == 7
        for g in out.coeffs:
            assert Z2.word_length(g) <= out.support_radius

    def test_spec_mismatch(self, z_index, z2_index):
        with pytest.raises(SpecMismatchError):
            R.convolve(R.char_ball(z_index, 1), R.char_ball(z2_index, 1))

    def test_budget(self, z_index):
        big = R.char_ball(z_index, 64)
        with pytest.raises(BudgetExceededError):
            R.convolve(big, big, budget=10)


class TestAdjointAndNorms:
    def test_adjoint_examples(self, z_index):
        assert R.adjoint(R.point_mass(F2, "ab")).coeffs == {"BA": 1.0}
        b2 = R.char_ball(z_index, 2)
        assert R.adjoint(b2).coeffs == b2.coeffs
        a = R.AlgebraElement(spec=Z, coeffs={(1,): 2.0, (3,): -1.0}, support_radius=3)
        assert R.adjoint(a).coeffs == {(-1,): 2.0, (-3,): -1.0}

    def test_adjoint_involution_and_isometry(self, z2_index):
        rng = random.Random(5)
        for _ in range(10):
            a = random_element(Z2, z2_index, rng, 4, 10)
            assert R.adjoint(R.adjoint(a)).coeffs == a.coeffs
            assert R.norm(R.adjoint(a), "l2") == pytest.approx(R.norm(a, "l2"))

    def test_norm_examples(self, z_index):
        b4 = R.char_ball(z_index, 4)
        assert R.norm(b4, "l1") == 9.0
        assert R.norm(b4, "l2") == 3.0
        b1 = R.char_ball(z_index, 1)
        assert R.norm(b1, ("l2s", 1.0)) == pytest.approx(3.0)
        delta = R.point_mass(Z2, (0, 0))
        assert R.norm(delta, ("l2s", 7.5)) == 1.0

    def test_l2s_zero_is_l2(self, z2_index):
        rng = random.Random(9)
        a = random_element(Z2, z2_index, rng, 5, 12)
        assert R.norm(a, ("l2s", 0.0)) == R.norm(a, "l2")

    def test_l2s_on_h3_reads_the_closed_length(self):
        # |z| = 4 on H3, with no index
        a = R.point_mass(R.DiscreteHeisenberg(), (0, 0, 1))
        assert a.support_radius == 4
        assert R.norm(a, ("l2s", 0.5)) == pytest.approx(5 ** 0.5)


class TestPointwise:
    def test_examples(self, z_index):
        b1, b2 = R.char_ball(z_index, 1), R.char_ball(z_index, 2)
        assert R.pointwise_geq(b2, b1) == (True, 0.0)
        assert R.pointwise_geq(b1, R.scale(2.0, b1)) == (False, -1.0)
        empty = R.AlgebraElement(spec=Z, coeffs={}, support_radius=0)
        assert R.pointwise_geq(empty, empty) == (True, 0.0)

    def test_infinite_slacks_are_the_least(self):
        # every slack +inf: the least is inf, not the empty support's 0.0
        a = R.AlgebraElement(spec=Z2, coeffs={(0, 0): math.inf})
        assert R.pointwise_geq(a, R.point_mass(Z2, (0, 0))) == (True, math.inf)

    @pytest.mark.parametrize("a", [
        {(0, 0): math.nan},
        {(0, 0): math.nan, (1, 0): 1.0},
        {(1, 0): -1.0, (0, 0): math.nan, (0, 1): 5.0},
    ])
    def test_a_nan_slack_fails(self, a):
        # nan < min_slack is False: alone the nan slack passed as (True, 0.0),
        # and beside finite slacks it gave way to the least of them
        ok, slack = R.pointwise_geq(R.AlgebraElement(spec=Z2, coeffs=a),
                                    R.point_mass(Z2, (0, 0)))
        assert ok is False and math.isnan(slack)


class TestLinearCombine:
    def test_cancellation(self):
        d = R.point_mass(Z, (0,))
        assert len(R.linear_combine([(1.0, d), (-1.0, d)])) == 0

    def test_example(self, z_index):
        el = R.linear_combine([(2.0, R.char_sphere(z_index, 1)),
                               (1.0, R.point_mass(Z, (0,)))])
        assert {g[0]: v for g, v in el.coeffs.items()} == {-1: 2.0, 0: 1.0, 1: 2.0}

    def test_power_weighted_sum(self, z_index):
        el = R.linear_combine([((1.0 + n) ** -1, R.char_sphere(z_index, n))
                               for n in (1, 2)])
        assert el.coeffs[(1,)] == 0.5
        assert el.coeffs[(-2,)] == pytest.approx(1 / 3)


class TestJson:
    def test_roundtrip(self, z2_index):
        rng = random.Random(17)
        a = random_element(Z2, z2_index, rng, 4, 9)
        data = a.to_json_dict()
        assert data["group"] == "Z^2"
        keys = [k for k, _ in data["coeffs"]]
        assert keys == sorted(keys)
        back = R.AlgebraElement.from_json_dict(Z2, data)
        assert back.coeffs == a.coeffs
        assert back.support_radius == a.support_radius

    def test_wrong_group_rejected(self, z_index):
        data = R.char_ball(z_index, 1).to_json_dict()
        with pytest.raises(SpecMismatchError):
            R.AlgebraElement.from_json_dict(Z2, data)

    def test_duplicate_keys_rejected(self):
        data = {"group": "Z^2", "support_radius": 1,
                "coeffs": [["1,0", 5.0], ["1,0", 2.0]]}
        with pytest.raises(ValueError, match="twice"):
            R.AlgebraElement.from_json_dict(Z2, data)
        # another spelling of the same element is no key at all
        data["coeffs"][1][0] = "01,0"
        with pytest.raises(ValueError, match="not a canonical integer"):
            R.AlgebraElement.from_json_dict(Z2, data)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "-inf"])
    def test_non_finite_coefficient_rejected(self, value):
        data = {"group": "Z^2", "support_radius": 1, "coeffs": [["0,1", value]]}
        with pytest.raises(ValueError, match="value"):
            R.AlgebraElement.from_json_dict(Z2, data)

    def test_support_radius_below_closed_length_rejected(self):
        data = {"group": "Z^2", "support_radius": 1, "coeffs": [["0,3", 1.0]]}
        with pytest.raises(ValueError, match="support_radius"):
            R.AlgebraElement.from_json_dict(Z2, data)
        data["support_radius"] = 3
        assert R.AlgebraElement.from_json_dict(Z2, data).coeffs == {(0, 3): 1.0}
