import math
import random

import pytest

import rdlab as R
import rdlab.algebra
import rdlab.cli
import rdlab.rd
from rdlab.cache import find_cache, write_ball_cache
from rdlab.errors import (
    BudgetExceededError,
    CoverageError,
    IndexRadiusError,
    RdlabError,
)
from rdlab.norms import coefficient_norm, radial_inner
from rdlab.rd import make_witness

Z = R.FreeAbelian(1)
Z2 = R.FreeAbelian(2)
H3 = R.DiscreteHeisenberg()
F2 = R.FreeGroup(2)
C5 = R.FiniteCyclic(5)
C12 = R.FiniteCyclic(12)


def dense_products(monkeypatch):
    """Send every product check down the dense branch, as on a group
    without radial convolution."""
    monkeypatch.setattr(rdlab.rd, "radial_rank", lambda spec: None)


class TestGrowthHelpers:
    @pytest.mark.parametrize("spec,radius", [(Z, 12), (Z2, 10), (F2, 8),
                                             (C12, 10),
                                             (R.DirectProduct([Z, F2]), 6)])
    def test_closed_sphere_series_matches_bfs(self, spec, radius):
        index = R.enumerate_balls(spec, radius)
        assert R.sphere_sizes(spec, radius) == index.sphere_sizes
        assert R.ball_sizes(spec, radius) == index.ball_sizes

    def test_heisenberg_needs_index(self, h3_index):
        with pytest.raises(IndexRadiusError):
            R.sphere_sizes(H3, 4)
        assert R.ball_sizes(H3, 2, h3_index)[2] == 17


class _Loaded(Exception):
    """Raised by a recording load: the computation read its index."""


def loaded_radius(spec, method, needs, radius, domain_radius):
    """Radius of the ball index a command's computation to ``radius`` loads
    through ``_Run.index``, or None if it loads none.  ``needs`` names the
    computation: "witness" norms a witness with ``method`` (sphere sizes
    alone when ``method`` is None), "element" norms a given dense element of
    that support radius, and "series" runs zseries with r = 1, K = radius."""
    args = ["zseries", "--group", spec.descriptor(), "--r", "1",
            "--alpha", "1.0", "--k", str(radius)]
    run = rdlab.cli._Run(rdlab.cli.build_parser().parse_args(args))
    loads = []

    def load(spec, radius):
        loads.append(radius)
        raise _Loaded
    run.get_index = load
    try:
        if needs == "series":
            rdlab.cli.cmd_zseries(run, run.args)
        elif needs == "element":
            element = rdlab.algebra.AlgebraElement(
                spec, {spec.identity(): 1.0}, support_radius=radius)
            index = run.index(spec, element.support_radius, method,
                              domain_radius)
            R.norm_bracket(element, method=method, index=index,
                           R=domain_radius)
        elif method is None:
            R.sphere_sizes(spec, radius, run.index(spec, radius))
        else:
            index = run.index(spec, radius, method, domain_radius)
            element = make_witness(spec, "ball", radius, index)
            R.norm_bracket(element, method=method, index=index,
                           R=domain_radius)
    except _Loaded:
        pass
    assert len(loads) <= 1
    return loads[0] if loads else None


class TestIndexPlanning:
    F2_OTHER = R.FreeGroup(2, generators=["a", "A", "ab", "BA"])

    @pytest.mark.parametrize("spec,method,needs,radius,want", [
        (F2, "trace", "witness", 5, None),
        (F2, "auto", "witness", 5, None),
        (F2, "power", "witness", 5, 9),
        (F2_OTHER, "trace", "witness", 5, 5),
        (H3, "exact", "witness", 5, 5),     # sphere sizes need the index
        (H3, "trace", "witness", 5, 5),
        (Z2, "trace", "element", 5, None),
        (H3, "trace", "element", 5, None),
        (H3, "power", "element", 5, 9),
        (F2, None, "witness", 5, None),     # sphere sizes only
        (Z2, None, "witness", 5, None),
        (H3, None, "witness", 5, 5),
        (F2, None, "series", 7, 7),        # |B_7| = 4373: element attached
        (F2, None, "series", 8, None),     # |B_8| = 13121
        (H3, None, "series", 30, 30),
        (Z2, "auto", "witness", 5, None),   # amenable: exact from sphere sizes
        (C12, "auto", "witness", 5, None),  # amenable, closed-form sizes
        (R.DirectProduct([Z, F2]), "auto", "witness", 5, 5),  # convolves
        (Z2, "exact", "witness", 5, None),
        (Z2, "l1", "witness", 5, None),
        (Z2, "trace", "witness", 5, 5),
    ])
    def test_planner(self, spec, method, needs, radius, want):
        # the index each computation loads lazily, with --R 9
        assert loaded_radius(spec, method, needs, radius, domain_radius=9) == want

    @pytest.mark.parametrize("generators", [["a", "A", "b", "B"],
                                            ["B", "a", "b", "A"]])
    def test_standard_generators_in_any_order(self, generators, tmp_path):
        spec = R.FreeGroup(2, generators=generators)
        assert spec.has_standard_generators() and spec == F2
        assert spec.generators() == F2.generators()
        assert spec.closed_sphere_sizes(4) == [1, 4, 12, 36, 108]
        write_ball_cache(R.enumerate_balls(F2, 3), tmp_path / "F2.N3.ballcache")
        assert find_cache(tmp_path, spec, 3) == tmp_path / "F2.N3.ballcache"
        other = self.F2_OTHER
        assert not other.has_standard_generators() and other != F2
        assert other.closed_sphere_sizes(4) is None
        assert find_cache(tmp_path, other, 3) is None

    def test_power_domain_default_is_at_least_one(self, z2_index):
        # norm_bracket compresses to the domain radius R, else
        # max(support radius, 1)
        point = make_witness(Z2, "ball", 0, z2_index)
        est = R.norm_bracket(point, method="power", index=z2_index)
        assert (est.lower, est.upper) == (1.0, 1.0)

    def test_planner_matches_the_witness_form(self, monkeypatch):
        # the witness is always a sphere function; norm_bracket expands it
        # from its index where the estimator needs group elements
        expanded = []

        def expand(x, index):
            expanded.append(R.radial_to_algebra(x, index))
            return expanded[-1]
        monkeypatch.setattr(rdlab.rd, "witness_element", expand)
        for spec, method, dense in [
                (F2, "trace", False), (F2, "auto", False), (F2, "l1", False),
                (F2, "power", True), (Z2, "trace", True), (Z2, "power", True),
                (Z2, "auto", False), (Z2, "exact", False),
                (R.DirectProduct([Z, F2]), "auto", True)]:   # auto: trace
            index = R.enumerate_balls(spec, 3)
            witness = make_witness(spec, "ball", 3, index)
            assert isinstance(witness, R.RadialElement)
            expanded.clear()
            R.norm_bracket(witness, method=method, index=index, depth=1,
                           iters=5)
            assert [len(a.coeffs) for a in expanded] == \
                ([index.ball_sizes[3]] if dense else [])
            if dense:
                with pytest.raises(IndexRadiusError):
                    R.norm_bracket(witness, method=method, depth=1, iters=5)

    def test_radial_and_dense_witnesses_agree(self, f2_index, z_index):
        for witness in ("ball", "sphere", "aN"):
            radial = make_witness(F2, witness, 3, d_hat=1.5)
            dense = R.witness_element(radial, f2_index)
            assert R.radial_from_algebra(dense) == radial
        # the empty aN witness at n = 0 is skipped on every group
        for spec, index in ((F2, None), (Z, z_index)):
            ser = R.ratio_series(spec, "aN", [0, 2], method="l1", index=index,
                                 d_hat=1.0)
            assert [e.n for e in ser.entries] == [2]

    def test_radial_and_dense_brackets_agree(self, f2_index):
        for method in ("l1", "trace"):
            witness = make_witness(F2, "sphere", 3)
            radial = R.norm_bracket(witness, method=method, depth=3)
            dense = R.norm_bracket(R.witness_element(witness, f2_index),
                                   method=method, depth=3)
            assert (radial.lower, radial.upper) == (dense.lower, dense.upper)
        with pytest.raises(RdlabError):
            R.norm_bracket(R.radial_ball(2, 2), method="power")
        with pytest.raises(RdlabError):
            R.norm_bracket(R.radial_ball(2, 2), method="exact")

    def test_misspelt_settings_raise(self, z_index):
        with pytest.raises(TypeError, match="exponnent"):
            R.ratio_series(F2, "ball", [2, 3], method="trace", exponnent=8)
        with pytest.raises(TypeError, match="exponnent"):
            R.norm_bracket(R.radial_ball(2, 2), exponnent=8)
        with pytest.raises(TypeError, match="exponnent"):
            R.verify_heredity(R.standard_embedding("Z:Z"), [4],
                              R.enumerate_balls(Z, 5), exponnent=8)

    def test_rank_one_radial_witness_is_exact(self):
        est = R.norm_bracket(make_witness(R.FreeGroup(1), "ball", 4))
        assert est.method == "amenable_exact" and est.lower == est.upper == 9.0


class TestRatioSeries:
    def test_z_ball_exact(self, z_index):
        ser = R.ratio_series(Z, "ball", [1, 4], method="exact", index=z_index)
        assert ser.entries[0].ratio_lower == pytest.approx(math.sqrt(3))
        assert ser.entries[1].ratio_lower == pytest.approx(3.0)
        assert all(e.ratio_lower == e.ratio_upper for e in ser.entries)

    def test_finite_cyclic_saturates(self):
        index = R.enumerate_balls(C5, 12)
        ser = R.ratio_series(C5, "ball", [2, 6, 10], method="exact", index=index)
        for e in ser.entries:
            assert e.ratio_lower == pytest.approx(math.sqrt(5))

    def test_f2_sphere_trace_grows_linearly(self):
        ser = R.ratio_series(F2, "sphere", [1, 2, 3, 4, 5], method="trace",
                             exponent=128)
        lows = [e.ratio_lower for e in ser.entries]
        assert all(b > a for a, b in zip(lows, lows[1:]))
        assert lows[4] / lows[0] >= 2.0  # roughly linear in n, not flat

    def test_f2_ball_needs_no_index(self):
        ser = R.ratio_series(F2, "ball", [16, 32], method="trace", exponent=8)
        assert len(ser.entries) == 2
        assert ser.entries[0].norm_upper == R.ball_sizes(F2, 16)[16]

    def test_empty_sphere_skipped(self):
        index = R.enumerate_balls(C5, 12)
        ser = R.ratio_series(C5, "sphere", [1, 2, 8], method="exact", index=index)
        assert [e.n for e in ser.entries] == [1, 2]

    def test_aN_witness(self, z_index):
        ser = R.ratio_series(Z, "aN", [2], method="exact", index=z_index,
                             d_hat=1.0)
        # a_2 has l1 = 2(1/2 + 1/3), l2 = sqrt(2(1/4 + 1/9))
        assert ser.entries[0].norm_lower == pytest.approx(2 * (0.5 + 1 / 3))
        assert ser.entries[0].l2 == pytest.approx(math.sqrt(2 * (0.25 + 1 / 9)))

    def test_increasing_n_required(self, z_index):
        with pytest.raises(ValueError):
            R.ratio_series(Z, "ball", [4, 2], method="exact", index=z_index)


class TestFits:
    @pytest.mark.parametrize("sigma", [0.0, 0.5, 1.7])
    def test_recovers_synthetic_exponent(self, sigma):
        pairs = [(n, 3.7 * (1 + n) ** sigma) for n in range(4, 40)]
        fit = R.fit_loglog(pairs, window=(4, None))
        assert fit.slope == pytest.approx(sigma, abs=1e-9)
        assert fit.constant == pytest.approx(3.7, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_z_ball_slope_half(self, z_index):
        ser = R.ratio_series(Z, "ball", list(range(4, 257)), method="exact",
                             index=z_index)
        fit = R.fit_exponent(ser, window=(4, 256))
        assert abs(fit.slope - 0.5) <= 0.02

    def test_finite_slope_zero(self):
        index = R.enumerate_balls(C5, 64)
        ser = R.ratio_series(C5, "ball", list(range(4, 65)), method="exact",
                             index=index)
        fit = R.fit_exponent(ser, window=(4, 64))
        assert abs(fit.slope) <= 0.01

    def test_z2_ball_slope_one(self, z2_index):
        ser = R.ratio_series(Z2, "ball", list(range(4, 49)), method="exact",
                             index=z2_index)
        fit = R.fit_exponent(ser, window=(4, 48))
        assert abs(fit.slope - 1.0) <= 0.05

    def test_degenerate_window(self, z_index):
        ser = R.ratio_series(Z, "ball", [4, 5], method="exact", index=z_index)
        with pytest.raises(ValueError):
            R.fit_exponent(ser, window=(4, 5))


class TestConstantSeries:
    def test_z_divergent_at_small_s(self, z_index):
        ns = [8, 16, 32, 64, 128, 256]
        ser = R.ratio_series(Z, "ball", ns, method="exact", index=z_index)
        points, verdict = R.rd_constant_series(ser, 0.4)
        values = dict(points)
        assert values[8] == pytest.approx(math.sqrt(17) / 9 ** 0.4, rel=1e-12)
        assert values[8] == pytest.approx(1.712, abs=1e-3)
        assert values[256] == pytest.approx(math.sqrt(513) / 257 ** 0.4, rel=1e-12)
        assert verdict == "divergent"

    def test_z_bounded_at_half(self, z_index):
        ns = [8, 16, 32, 64, 128, 256]
        ser = R.ratio_series(Z, "ball", ns, method="exact", index=z_index)
        points, verdict = R.rd_constant_series(ser, 0.5)
        assert verdict == "bounded trend"
        assert all(c <= math.sqrt(2) + 1e-9 for _, c in points)

    def test_finite_constant_tail(self):
        index = R.enumerate_balls(C5, 64)
        ser = R.ratio_series(C5, "ball", [4, 8, 16, 32, 64], method="exact",
                             index=index)
        points, verdict = R.rd_constant_series(ser, 0.0)
        assert verdict == "bounded trend"
        assert all(c == pytest.approx(math.sqrt(5)) for _, c in points)

    def test_fitted_slope_splits_verdicts(self, z_index, z2_index):
        cases = [
            (R.ratio_series(Z, "ball", [8, 16, 32, 64, 128, 256],
                            method="exact", index=z_index), (8, 256)),
            (R.ratio_series(Z2, "ball", [4, 8, 16, 32, 48],
                            method="exact", index=z2_index), (4, 48)),
            (R.ratio_series(F2, "ball", [4, 8, 16, 32, 64],
                            method="trace", exponent=8), (4, 64)),
        ]
        for ser, window in cases:
            slope = R.fit_exponent(ser, window=window).slope
            _, at_slope = R.rd_constant_series(ser, slope)
            _, below = R.rd_constant_series(ser, slope - 0.1)
            assert at_slope == "bounded trend"
            assert below == "divergent"


class TestDelocalization:
    def test_closed_forms(self):
        assert R.delocalize_constant(1.0, 0.0, 0.5) == pytest.approx(
            math.sqrt(2), rel=1e-12)
        assert R.delocalize_constant(1.0, 1.0, 1.0) == pytest.approx(
            2 / math.sqrt(0.75), rel=1e-12)
        assert R.delocalize_constant(0.0, 2.0, 0.3) == 0.0

    def test_eps_guard(self):
        with pytest.raises(ValueError):
            R.delocalize_constant(1.0, 0.0, 0.0)

    def test_empirical_bound_on_z2(self, z2_index):
        ser = R.ratio_series(Z2, "ball", list(range(4, 49)), method="exact",
                             index=z2_index)
        fit = R.fit_exponent(ser, window=(4, 48))
        c_prime = R.delocalize_constant(fit.constant, 1.0, 0.25)
        rng = random.Random(0)
        pool = list(z2_index.ball(16))
        for _ in range(100):
            supp = rng.sample(pool, rng.randint(1, 40))
            coeffs = {g: rng.uniform(0.0, 1.0) + 1e-9 for g in supp}
            a = R.AlgebraElement(spec=Z2, coeffs=coeffs, support_radius=16)
            exact = R.op_norm_positive_amenable(a).lower
            weighted = R.norm(a, ("l2s", 1.25), z2_index)
            assert exact <= c_prime * weighted


class TestBallProductBound:
    def test_examples(self, z_index, f2_index, h3_index):
        assert R.verify_ball_product_bound(Z, 1, 1, z_index) == (True, 0.0)
        assert R.verify_ball_product_bound(F2, 1, 1) == (True, 0.0)
        ok, slack = R.verify_ball_product_bound(H3, 2, 2, h3_index)
        assert ok and slack >= 0.0

    @pytest.mark.parametrize("spec,index_name,max_sum", [
        (Z, "z_index", 8), (Z2, "z2_index", 6), (H3, "h3_index", 6),
        (F2, "f2_index", 6), (C12, "c12_index", 6)])
    def test_small_sweeps_exact_zero(self, spec, index_name, max_sum, request):
        index = request.getfixturevalue(index_name)
        ok, slack, worst = R.ball_product_sweep(spec, max_sum, index)
        assert ok and slack == 0.0

    def test_product_group_sweep(self):
        spec = R.DirectProduct([Z, F2])
        index = R.enumerate_balls(spec, 5)
        ok, slack, _ = R.ball_product_sweep(spec, 5, index)
        assert ok and slack == 0.0

    def test_radial_and_dense_agree(self, f2_index, monkeypatch):
        # the dense branch gives exactly 0 on every pair, as the radial one does
        pairs = [(n, k) for n in range(1, 6) for k in range(1, 7 - n)]
        radial = [R.verify_ball_product_bound(F2, n, k) for n, k in pairs]
        dense_products(monkeypatch)
        for (n, k), want in zip(pairs, radial):
            assert R.verify_ball_product_bound(F2, n, k, f2_index) == want == \
                (True, 0.0)

    def test_index_too_small(self, h3_index):
        with pytest.raises(IndexRadiusError):
            R.verify_ball_product_bound(H3, 6, 6, h3_index)


class TestDoubling:
    def test_f2_r2(self):
        ratios = R.doubling_ratios(F2, 2, 6)
        assert ratios[0] == pytest.approx(math.sqrt(161 / 17))
        min_ratio, ok = R.verify_doubling(F2, 2, 6)
        assert ok and min_ratio >= 3.0

    def test_z_r2_fails(self):
        min_ratio, ok = R.verify_doubling(Z, 2, 6)
        assert not ok
        assert min_ratio == pytest.approx(math.sqrt(29 / 25))

    def test_f2_r1_fails(self):
        min_ratio, ok = R.verify_doubling(F2, 1, 6)
        assert not ok
        assert min_ratio == pytest.approx(math.sqrt(4373 / 1457))
        assert abs(min_ratio - math.sqrt(3)) < 5e-4

    def test_heisenberg_uses_index(self, h3_index):
        ratios = R.doubling_ratios(H3, 2, 4, h3_index)
        assert ratios[0] == pytest.approx(math.sqrt(135 / 17))

    def test_ratio_past_the_float_range(self):
        with pytest.raises(BudgetExceededError,
                           match=r"\|B_1400\|/\|B_700\| of F2 leaves the float range"):
            R.doubling_ratios(F2, 700, 1)

    def test_huge_balls_with_ratios_inside_the_float_range(self):
        # |B_1200| is far past the float range, but each quotient fits
        assert R.ball_sizes(F2, 1200)[1200] > 10 ** 500
        min_ratio, ok = R.verify_doubling(F2, 400, 2)
        assert ok and min_ratio == pytest.approx(3.0 ** 200, rel=1e-12)


class TestBallSeries:
    def test_single_term_is_normalized(self, z_index):
        ser = R.build_ball_series(Z, 3, 0.7, 1, index=z_index)
        assert coefficient_norm(ser.function, "l2") == \
            pytest.approx(1.0, rel=1e-12)
        bounds = R.ball_series_l2_bounds(ser)
        assert (bounds.lower, bounds.actual, bounds.upper) == \
            pytest.approx((1.0, 1.0, 4.0), rel=1e-12)
        assert bounds.doubling_ok

    def test_z_identity_coefficient(self, z_index):
        ser = R.build_ball_series(Z, 1, 1.0, 2, index=z_index)
        want = 1 / math.sqrt(3) + 0.5 / math.sqrt(5)
        element = R.radial_to_algebra(ser.function, z_index)
        assert element.coeffs[(0,)] == pytest.approx(want, rel=1e-12)
        assert ser.value_on_sphere(0) == pytest.approx(want, rel=1e-12)

    def test_f2_small_dense_matches_shells(self):
        index = R.enumerate_balls(F2, 6)
        ser = R.build_ball_series(F2, 2, 1.0, 3, index=index)
        element = R.radial_to_algebra(ser.function, index)
        assert element.support_radius == 6
        assert set(element.coeffs) == set(index.ball(6))
        # constant on B_2 (every term's ball contains it)
        for g in index.ball(2):
            assert element.coeffs[g] == ser.value_on_sphere(0)
        for g, c in element.coeffs.items():
            assert c == ser.value_on_sphere(len(g))
        # dense l2 agrees with the sphere-size bookkeeping
        dense = R.norm(element, "l2") ** 2
        assert dense == pytest.approx(radial_inner(ser.function, ser.function),
                                      rel=1e-12)

    def test_ball_sizes_past_the_float_range(self):
        R.build_ball_series(F2, 1, 1.0, 645)
        with pytest.raises(BudgetExceededError, match="at radius 646"):
            R.build_ball_series(F2, 2, 1.0, 323)

    def test_element_matches_linear_combination(self, z_index):
        index = z_index
        ser = R.build_ball_series(Z, 2, 0.8, 4, index=index)
        terms = [(k ** -0.8 / math.sqrt(4 * k + 1), R.char_ball(index, 2 * k))
                 for k in range(1, 5)]
        want = R.linear_combine(terms)
        element = R.radial_to_algebra(ser.function, index)
        assert set(element.coeffs) == set(want.coeffs)
        for g, c in want.coeffs.items():
            assert element.coeffs[g] == pytest.approx(c, rel=1e-12)

    def test_f2_k12_bounds(self):
        ser = R.build_ball_series(F2, 2, 1.0, 12)
        b = R.ball_series_l2_bounds(ser)
        assert b.lower == pytest.approx(1.564977, abs=1e-6)
        assert b.upper == pytest.approx(6.259907, abs=1e-6)
        assert b.lower < b.actual < b.upper
        assert b.doubling_ok

    def test_z_doubling_fails_only_lower_asserted(self, z_index):
        ser = R.build_ball_series(Z, 2, 1.0, 8, index=z_index)
        b = R.ball_series_l2_bounds(ser)
        assert not b.doubling_ok
        assert b.lower <= b.actual

    @pytest.mark.parametrize("alpha", [0.6, 0.75, 1.0, 1.5])
    @pytest.mark.parametrize("K", [4, 8, 12])
    def test_f2_sweep_bounds_hold(self, alpha, K):
        b = R.ball_series_l2_bounds(R.build_ball_series(F2, 2, alpha, K))
        assert b.doubling_ok
        assert b.lower <= b.actual <= b.upper


class TestSeriesProductBound:
    def test_f2_finite_chain(self):
        rep = R.verify_series_product_bound(F2, 2, 1.0, 1.0, 6)
        assert rep.ok and rep.min_slack >= 0.0

    def test_z_finite_chain(self, z_index):
        rep = R.verify_series_product_bound(Z, 1, 1.0, 1.0, 6, index=z_index)
        assert rep.ok and rep.min_slack >= 0.0

    def test_k1_vacuous(self, z_index):
        rep = R.verify_series_product_bound(Z, 1, 1.0, 1.0, 1, index=z_index)
        assert rep.ok
        assert rep.tail_comparison == []

    def test_heisenberg_dense_path(self, h3_index):
        rep = R.verify_series_product_bound(H3, 1, 1.0, 1.0, 3, index=h3_index)
        assert rep.ok and rep.min_slack >= 0.0

    def test_tail_diagnostic_shape(self):
        rep = R.verify_series_product_bound(F2, 2, 1.0, 1.0, 6)
        assert len(rep.tail_comparison) == 5
        for j, truncated, bound in rep.tail_comparison:
            assert truncated > 0 and bound > 0
            assert truncated < bound  # truncation falls below the integral

    def test_radial_and_dense_agree(self, f2_index, monkeypatch):
        cases = [(1, 4, 0.00038819875776397513), (2, 3, 7.626019980172346e-05)]
        radials = [R.verify_series_product_bound(F2, r, 1.0, 1.0, K)
                   for r, K, _ in cases]
        dense_products(monkeypatch)
        for (r, K, want), radial in zip(cases, radials):
            dense = R.verify_series_product_bound(F2, r, 1.0, 1.0, K, f2_index)
            assert dense.ok and radial.ok
            assert radial.min_slack == pytest.approx(want, rel=1e-12)
            assert dense.min_slack == pytest.approx(radial.min_slack, rel=1e-12)

    def test_parameter_guard(self):
        with pytest.raises(ValueError):
            R.verify_series_product_bound(F2, 2, 0.4, 0.5, 4)


class TestSphereSum:
    def test_z_harmonic(self, z_index):
        rep = R.harmonic_sphere_sum(Z, 1.0, 100, z_index)
        want = 2 * (sum(1.0 / i for i in range(1, 102)) - 1.0)
        assert rep.final() == pytest.approx(want, rel=1e-12)
        assert rep.final() == pytest.approx(8.39, abs=0.02)
        (m1, inc1), (m2, inc2) = rep.increments
        assert (m1, m2) == (25, 50)
        assert inc2 == pytest.approx(2 * math.log(2), rel=0.05)

    def test_wrong_exponent_detected(self, z_index):
        rep = R.harmonic_sphere_sum(Z, 3.0, 100, z_index)
        (_, inc1), (_, inc2) = rep.increments
        assert inc2 < inc1 < 0.01

    def test_heisenberg_with_index(self, h3_index):
        rep = R.harmonic_sphere_sum(H3, 4.0, 10, h3_index)
        assert len(rep.partial_sums) == 10
        assert rep.partial_sums == sorted(rep.partial_sums)

    def test_sizes_past_the_float_range(self):
        assert R.harmonic_sphere_sum(F2, 1.0, 645).final() < math.inf
        with pytest.raises(BudgetExceededError, match="float range at radius 646"):
            R.harmonic_sphere_sum(F2, 1.0, 700)


class TestHeredity:
    def test_z_into_z2(self):
        emb = R.standard_embedding("Z:Z^2")
        sub_index = R.enumerate_balls(Z, 33)
        rep = R.verify_heredity(emb, [4, 8, 16, 32], sub_index)
        assert rep.ok
        for row in rep.rows:
            n = row.n
            assert row.sub_ratio_lower == pytest.approx(math.sqrt(2 * n + 1))
            assert row.ambient_ratio_upper == pytest.approx(
                math.sqrt(2 * n * n + 2 * n + 1))

    def test_identity_embedding_equality(self):
        emb = R.standard_embedding("Z:Z")
        sub_index = R.enumerate_balls(Z, 17)
        rep = R.verify_heredity(emb, [4, 16], sub_index)
        assert rep.ok
        for row in rep.rows:
            assert row.sub_ratio_lower == pytest.approx(row.ambient_ratio_upper)

    def test_trivial_subgroup(self):
        emb = R.standard_embedding("e:Z^2")
        sub_index = R.enumerate_balls(R.FiniteCyclic(1), 33)
        rep = R.verify_heredity(emb, [4, 32], sub_index)
        assert rep.ok
        assert all(r.sub_ratio_lower == 1.0 for r in rep.rows)

    def test_z_into_f2_uses_radial_ambient_bracket(self):
        emb = R.standard_embedding("Z:F2")
        sub_index = R.enumerate_balls(Z, 33)
        rep = R.verify_heredity(emb, [2, 4, 8, 16, 32], sub_index, exponent=64)
        assert rep.ok
        last = rep.rows[-1]
        assert last.sub_ratio_lower == pytest.approx(math.sqrt(65))
        assert last.ambient_ratio_upper == pytest.approx(
            R.ball_sizes(F2, 32)[32] / math.sqrt(R.ball_sizes(F2, 32)[32]))

    def test_all_shipped_embeddings_to_32(self):
        for name, (sub, _, _) in R.standard_embeddings().items():
            emb = R.standard_embedding(name)
            sub_index = R.enumerate_balls(sub, 33)
            rep = R.verify_heredity(emb, [4, 8, 16, 32], sub_index, exponent=32)
            assert rep.ok, name

    def test_coverage_guard(self):
        emb = R.standard_embedding("Z:Z^2")
        sub_index = R.enumerate_balls(Z, 8)
        with pytest.raises(CoverageError):
            R.verify_heredity(emb, [16], sub_index)


class TestContradictionTrace:
    def test_parameter_constraints(self):
        params = R.DivergenceParameters(s=0.4, t=0.45, alpha=0.96, beta=0.54)
        assert params.alpha > 0.5 + params.t
        with pytest.raises(ValueError):
            R.DivergenceParameters(s=0.4, t=0.3, alpha=0.96, beta=0.54)
        with pytest.raises(ValueError):
            R.DivergenceParameters(s=0.4, t=0.45, alpha=0.9, beta=0.54)
        with pytest.raises(ValueError):
            R.DivergenceParameters(s=0.4, t=0.45, alpha=0.99, beta=0.6)

    def test_f2_trace(self):
        params = R.DivergenceParameters(s=0.4, t=0.45, alpha=0.96, beta=0.54)
        rep = R.contradiction_trace(F2, params, 2, 12)
        assert rep.weighted_ok and rep.beta_ok
        assert rep.exhibit_exponent == pytest.approx(1.0)
        assert rep.exhibit_partial_sums[-1] == pytest.approx(
            sum(1.0 / k for k in range(1, 13)), rel=1e-12)
        assert rep.exhibit_partial_sums[-1] == pytest.approx(3.103, abs=1e-3)

    def test_exhibit_grows_like_log(self):
        params = R.DivergenceParameters(s=0.1, t=0.2, alpha=0.75, beta=0.75)
        rep = R.contradiction_trace(F2, params, 2, 64)
        sums = rep.exhibit_partial_sums
        assert sums[63] - sums[31] == pytest.approx(math.log(2), rel=0.05)

    def test_doubling_failure_rejected(self, z_index):
        params = R.DivergenceParameters(s=0.4, t=0.45, alpha=0.96, beta=0.54)
        with pytest.raises(RdlabError):
            R.contradiction_trace(Z, params, 2, 8, index=z_index)


class TestReport:
    def test_growth_and_ratio_consistency(self, z_index, z2_index, h3_index):
        for spec, index, top in [(Z, z_index, 32), (Z2, z2_index, 48),
                                 (H3, h3_index, 10)]:
            ns = list(range(4, top + 1))
            report = R.build_report(spec, ns, s_values=[0.4], method="exact",
                                    index=index)
            assert abs(report.ball_fit.slope - report.growth_fit.slope / 2) <= 0.1
            assert report.constant_series[0.4]["verdict"] in ("divergent",
                                                              "bounded trend")

    def test_json_shape(self, z_index):
        report = R.build_report(Z, list(range(4, 33)), s_values=[0.5],
                                method="exact", index=z_index)
        data = report.to_json_dict()
        assert data["group"] == "Z^1"
        assert "slope" in data["ball_fit"]
        assert data["constant_series"]["0.5"]["verdict"] == "bounded trend"
