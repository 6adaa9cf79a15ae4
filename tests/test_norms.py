import math
import random

import pytest

import rdlab as R
from rdlab.errors import BudgetExceededError, IndexRadiusError, RdlabError
from rdlab.norms import least_squares

Z = R.FreeAbelian(1)
Z2 = R.FreeAbelian(2)
F2 = R.FreeGroup(2)


def central_trinomial(n):
    """Coefficient of x^n in (1 + x + x^2)^n, by integer polynomial powers."""
    poly = [1]
    for _ in range(n):
        out = [0] * (len(poly) + 2)
        for i, c in enumerate(poly):
            out[i] += c
            out[i + 1] += c
            out[i + 2] += c
        poly = out
    return poly[n]


def tree_return_walks(degree, length):
    """Closed walks at the root of the infinite degree-regular tree (exact DP)."""
    dp = [0] * (length + 2)
    dp[0] = 1
    for _ in range(length):
        nxt = [0] * (length + 2)
        for d, ways in enumerate(dp):
            if not ways:
                continue
            if d == 0:
                nxt[1] += degree * ways
            else:
                nxt[d - 1] += ways
                nxt[d + 1] += (degree - 1) * ways
        dp = nxt
    return dp[0]


class TestTracePower:
    def test_z_sphere_exact_steps(self, z_index):
        s1 = R.char_sphere(z_index, 1)
        est = R.op_norm_trace_power(s1, exponent=20)
        # closed walks on Z of length 2k: central binomial C(2k, k)
        assert est.steps[-1] == pytest.approx(184756 ** (1 / 20), rel=1e-12)
        for step, two_k in zip(est.steps, (2, 4, 8, 16, 20)):
            want = math.comb(two_k, two_k // 2) ** (1.0 / two_k)
            assert step == pytest.approx(want, rel=1e-12)
        assert est.upper == 2.0

    def test_z_sphere_converges_to_two(self, z_index):
        s1 = R.char_sphere(z_index, 1)
        est = R.op_norm_trace_power(s1, exponent=200)
        assert 1.95 <= est.lower < 2.0

    def test_delta_is_unitary(self, z_index):
        est = R.op_norm_trace_power(R.point_mass(Z, (5,)), depth=4)
        assert est.steps == [1.0] * 5
        assert est.lower == est.upper == 1.0
        assert est.converged

    def test_z_ball_against_trinomial(self, z_index):
        b1 = R.char_ball(z_index, 1)
        est = R.op_norm_trace_power(b1, exponent=40)
        want = central_trinomial(40) ** (1 / 40)
        assert est.steps[-1] == pytest.approx(want, rel=1e-12)
        assert est.upper == 3.0
        assert est.lower >= 0.9 * 3.0

    def test_f2_matches_tree_walks(self, f2_index):
        s1 = R.char_sphere(f2_index, 1)
        est = R.op_norm_trace_power(s1, exponent=60)
        want = tree_return_walks(4, 60) ** (1 / 60)
        assert est.steps[-1] == pytest.approx(want, rel=1e-12)

    def test_radial_input_equals_dense(self, f2_index):
        dense = R.op_norm_trace_power(R.char_sphere(f2_index, 1), exponent=24)
        radial = R.op_norm_trace_power(R.radial_sphere(2, 1), exponent=24)
        assert radial.steps == pytest.approx(dense.steps, rel=1e-12)

    def test_steps_nondecreasing(self, z2_index):
        rng = random.Random(2)
        pool = list(z2_index.ball(2))
        for _ in range(5):
            supp = rng.sample(pool, 5)
            a = R.AlgebraElement(spec=Z2,
                                 coeffs={g: float(rng.randint(-3, 3) or 1) for g in supp},
                                 support_radius=2)
            est = R.op_norm_trace_power(a, depth=4)
            assert all(b >= a_ - 1e-12 * abs(a_)
                       for a_, b in zip(est.steps, est.steps[1:]))
            assert est.lower <= R.norm(a, "l1") + 1e-9

    def test_lower_at_most_amenable_exact(self, z_index):
        b2 = R.char_ball(z_index, 2)
        exact = R.op_norm_positive_amenable(b2).lower
        prev_gap = math.inf
        for exponent in (8, 16, 32, 64):
            est = R.op_norm_trace_power(b2, exponent=exponent)
            gap = exact - est.lower
            assert 0 <= gap <= prev_gap + 1e-12
            prev_gap = gap

    def test_dense_budget_guard(self, f2_index):
        # not radial: one lopsided coefficient breaks sphere constancy
        a = R.AlgebraElement(spec=F2, coeffs={"a": 1.0, "b": 2.0, "A": 1.0, "B": 1.0},
                             support_radius=1)
        with pytest.raises(BudgetExceededError,
                           match="exhausted its budget before the first step"):
            R.op_norm_trace_power(a, depth=8, budget=5)
        partial = R.op_norm_trace_power(a, depth=8, budget=2000)
        assert partial.iterations < 9
        assert partial.steps

    def test_stop_reasons(self, z_index):
        est = R.op_norm_trace_power(R.char_sphere(z_index, 1), exponent=20)
        assert (est.iterations, est.target_steps, est.stop_reason) == (5, 5, "done")
        # F2 sphere 1: b-exponent 512 is the last whose trace stays finite
        est = R.op_norm_trace_power(R.radial_sphere(2, 1), exponent=10000)
        assert (est.iterations, est.target_steps, est.stop_reason) == \
            (9, 14, "float_range")
        a = R.AlgebraElement(spec=F2, coeffs={"a": 1.0, "b": 2.0, "A": 1.0, "B": 1.0},
                             support_radius=1)
        est = R.op_norm_trace_power(a, depth=8, budget=2000)
        assert (est.target_steps, est.stop_reason) == (9, "budget")

    @pytest.mark.parametrize("spec", [F2, R.FreeAbelian(2),
                                      R.DiscreteHeisenberg()])
    @pytest.mark.parametrize("value,got", [(1e200, "inf"), (1e-200, "0.0")])
    def test_first_step_past_the_float_range(self, spec, value, got):
        # tau(b) = value^2 overflows or underflows; no budget is reached
        a = R.AlgebraElement(spec=spec, coeffs={spec.identity(): value})
        with pytest.raises(BudgetExceededError,
                           match=rf"tau\(b\) = \|\|a\|\|_2\^2 left the float "
                                 rf"range \(got {got}\)"):
            R.op_norm_trace_power(a, depth=3)

    def test_extrapolation_diagnostic(self, z_index):
        s1 = R.char_sphere(z_index, 1)
        plain = R.op_norm_trace_power(s1, exponent=200)
        diag = R.op_norm_trace_power(s1, exponent=200, extrapolate=True)
        # diagnostic only: the bound is untouched, the intercept is closer to 2
        assert diag.lower == plain.lower
        assert plain.extrapolated is None
        assert diag.lower < diag.extrapolated < 2.0
        assert "extrapolated" in diag.to_json_dict()
        assert "extrapolated" not in plain.to_json_dict()
        one_step = R.op_norm_trace_power(s1, exponent=2, extrapolate=True)
        assert one_step.extrapolated is None

    def test_least_squares_keeps_the_float_operations(self):
        # the inline formula fit_loglog and the step extrapolation used before
        # they shared least_squares; results must agree to the last bit
        def reference(xs, ys):
            mean_x = sum(xs) / len(xs)
            mean_y = sum(ys) / len(ys)
            sxx = sum((x - mean_x) ** 2 for x in xs)
            sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
            slope = sxy / sxx
            return slope, mean_y - slope * mean_x

        rng = random.Random(5)
        for _ in range(200):
            m = rng.randint(2, 12)
            xs = [rng.uniform(-3, 3) for _ in range(m)]
            ys = [rng.uniform(-50, 50) for _ in range(m)]
            assert least_squares(xs, ys) == reference(xs, ys)
        assert least_squares([2.0, 2.0], [1.0, 5.0]) is None

    def test_exponent_validation(self, z_index):
        s1 = R.char_sphere(z_index, 1)
        with pytest.raises(ValueError):
            R.op_norm_trace_power(s1, exponent=15)
        with pytest.raises(ValueError):
            R.op_norm_trace_power(s1, depth=0)


class TestPowerIteration:
    def test_zero_element_is_the_exact_zero_bracket(self, z_index):
        # the trace ladder's zero-element estimate, before any matrix is built
        zero = R.AlgebraElement(spec=Z, coeffs={}, support_radius=0)
        est = R.op_norm_power_iteration(zero, R=3, iters=50, index=z_index)
        trace = R.op_norm_trace_power(zero)
        assert est.to_json_dict() == dict(trace.to_json_dict(),
                                          method="power_iteration")
        assert (est.lower, est.upper, est.steps, est.stop_reason) == \
            (0.0, 0.0, [0.0], "done")
        assert (est.iterations, est.target_steps, est.converged) == (1, 1, True)

    def test_zero_element_l1_is_a_float(self):
        zero = R.AlgebraElement(spec=Z, coeffs={}, support_radius=0)
        for x in (zero, R.free_radial(2, [0.0, 0.0])):
            assert type(R.op_norm_l1_bracket(x).upper) is float

    def test_scalar_operator(self, z_index):
        two_delta = R.scale(2.0, R.point_mass(Z, (0,)))
        est = R.op_norm_power_iteration(two_delta, R=2, iters=3, seed=1,
                                        index=z_index)
        assert est.lower == pytest.approx(2.0, rel=1e-12)

    def test_z_sphere_compression(self, z_index):
        s1 = R.char_sphere(z_index, 1)
        est = R.op_norm_power_iteration(s1, R=64, iters=200, seed=0, index=z_index)
        # top eigenvalue of the even-sublattice compression: 2 + 2 cos(pi/66)
        assert est.lower >= 1.99
        assert est.lower <= math.sqrt(2 + 2 * math.cos(math.pi / 66)) + 1e-9

    def test_f2_sphere_compression(self, f2_index):
        s1 = R.char_sphere(f2_index, 1)
        est = R.op_norm_power_iteration(s1, R=8, iters=200, seed=0, index=f2_index)
        assert 3.3 <= est.lower <= 2 * math.sqrt(3) + 1e-9

    def test_monotone_in_radius(self, z_index):
        s1 = R.char_sphere(z_index, 1)
        lows = [R.op_norm_power_iteration(s1, R=r, iters=300, seed=0,
                                          index=z_index).lower
                for r in (8, 10)]
        assert lows[0] <= lows[1] + 1e-12

    def test_deterministic(self, z2_index):
        a = R.char_ball(z2_index, 2)
        e1 = R.op_norm_power_iteration(a, R=6, iters=50, seed=42, index=z2_index)
        e2 = R.op_norm_power_iteration(a, R=6, iters=50, seed=42, index=z2_index)
        assert e1.steps == e2.steps

    def test_stop_reasons(self, z_index):
        s1 = R.char_sphere(z_index, 1)
        est = R.op_norm_power_iteration(s1, R=64, iters=5, index=z_index)
        assert (est.iterations, est.target_steps, est.stop_reason) == (5, 5, "done")
        delta = R.char_ball(z_index, 0)
        est = R.op_norm_power_iteration(delta, R=4, iters=50, index=z_index)
        assert (est.iterations, est.target_steps, est.stop_reason) == \
            (2, 50, "converged")

    def test_domain_radius_guard(self, z2_index):
        a = R.char_ball(z2_index, 3)
        with pytest.raises(IndexRadiusError):
            R.op_norm_power_iteration(a, R=2, index=z2_index)


class TestAmenableExact:
    def test_z_balls_are_growth(self, z_index):
        for n in (0, 1, 4, 10):
            est = R.op_norm_positive_amenable(R.char_ball(z_index, n))
            assert est.lower == est.upper == 2 * n + 1

    def test_z2_ball(self, z2_index):
        assert R.op_norm_positive_amenable(R.char_ball(z2_index, 2)).lower == 13.0

    def test_non_amenable_rejected(self, f2_index):
        with pytest.raises(RdlabError):
            R.op_norm_positive_amenable(R.char_ball(f2_index, 1))

    def test_negative_coefficients_rejected(self, z_index):
        a = R.AlgebraElement(spec=Z, coeffs={(0,): -1.0}, support_radius=0)
        with pytest.raises(RdlabError):
            R.op_norm_positive_amenable(a)

    def test_l1_bracket(self, f2_index):
        est = R.op_norm_l1_bracket(R.char_ball(f2_index, 1))
        assert est.lower == pytest.approx(math.sqrt(5))
        assert est.upper == 5.0


class TestRadial:
    def test_sphere_products(self):
        out = R.radial_convolve(R.radial_sphere(2, 1), R.radial_sphere(2, 1))
        assert out.coeffs == [4.0, 0.0, 1.0]
        out = R.radial_convolve(R.radial_sphere(2, 1), R.radial_sphere(2, 2))
        assert out.coeffs == [0.0, 3.0, 0.0, 1.0]

    def test_identity(self):
        x = R.free_radial(3, [0.5, -1.0, 2.0])
        out = R.radial_convolve(R.free_radial(3, [1.0]), x)
        assert out.coeffs == x.coeffs

    def test_rank_mismatch(self):
        with pytest.raises(RdlabError):
            R.radial_convolve(R.radial_sphere(2, 1), R.radial_sphere(3, 1))

    def test_sizes_match_bfs(self, f2_index):
        assert R.sphere_sizes(F2, 8) == f2_index.sphere_sizes
        assert R.ball_sizes(F2, 8) == f2_index.ball_sizes

    def test_roundtrip(self, f2_index):
        x = R.free_radial(2, [0.5, 0.0, 2.0, -1.0])
        back = R.radial_from_algebra(R.radial_to_algebra(x, f2_index))
        assert back.coeffs == x.coeffs

    def test_non_radial_detected(self, f2_index):
        a = R.AlgebraElement(spec=F2, coeffs={"a": 1.0, "b": 2.0}, support_radius=1)
        assert R.radial_from_algebra(a) is None
        partial = R.AlgebraElement(spec=F2, coeffs={"a": 1.0}, support_radius=1)
        assert R.radial_from_algebra(partial) is None

    def _assert_matches_dense(self, rank, x, y, index, rel=0.0):
        got = R.radial_convolve(x, y)
        dense = R.convolve(R.radial_to_algebra(x, index),
                           R.radial_to_algebra(y, index))
        by_len = {}
        counts = {}
        for g, c in dense.coeffs.items():
            by_len.setdefault(len(g), set()).add(c)
            counts[len(g)] = counts.get(len(g), 0) + 1
        for j, c in enumerate(got.coeffs):
            if c == 0.0:
                assert j not in by_len
                continue
            assert counts[j] == R.sphere_sizes(R.FreeGroup(rank), j)[j]
            for v in by_len[j]:
                assert v == pytest.approx(c, rel=max(rel, 1e-15), abs=1e-15)

    @pytest.mark.parametrize("rank,max_m", [(1, 6), (2, 5), (3, 4)])
    def test_matches_dense_random(self, rank, max_m):
        spec = R.FreeGroup(rank)
        index = R.enumerate_balls(spec, 2 * max_m)
        rng = random.Random(rank)
        for _ in range(3):
            x = R.free_radial(rank, [float(rng.randint(-3, 3))
                                     for _ in range(max_m + 1)])
            y = R.free_radial(rank, [float(rng.randint(-3, 3))
                                     for _ in range(max_m + 1)])
            self._assert_matches_dense(rank, x, y, index)

    @pytest.mark.parametrize("rank,i,j", [(2, 6, 1), (2, 2, 6), (3, 6, 1), (3, 5, 2)])
    def test_matches_dense_boundary_spheres(self, rank, i, j):
        spec = R.FreeGroup(rank)
        index = R.enumerate_balls(spec, i + j)
        self._assert_matches_dense(rank, R.radial_sphere(rank, i),
                                   R.radial_sphere(rank, j), index)

    def test_matches_dense_float_coefficients(self):
        rng = random.Random(99)
        index = R.enumerate_balls(F2, 8)
        x = R.free_radial(2, [rng.uniform(-1, 1) for _ in range(5)])
        y = R.free_radial(2, [rng.uniform(-1, 1) for _ in range(5)])
        self._assert_matches_dense(2, x, y, index, rel=1e-9)

    def test_bracket_invariant(self):
        with pytest.raises(RdlabError):
            R.NormEstimate(lower=2.0, upper=1.0, method="l1_bound")
