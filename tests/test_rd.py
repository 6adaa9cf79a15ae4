import math
import random
from unittest import mock

import pytest

import rdlab as R
import rdlab.algebra
import rdlab.cli
import rdlab.groups
import rdlab.rd
from rdlab.errors import (
    BudgetExceededError,
    CoverageError,
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
                                             (R.DirectProduct([Z, F2]), 6),
                                             (H3, 40),
                                             (R.parse_descriptor("H3xZ"), 6),
                                             (R.parse_descriptor("H3xC3"), 6),
                                             (R.parse_descriptor("H3xF2"), 6)])
    def test_closed_sphere_series_matches_bfs(self, spec, radius):
        index = R.enumerate_balls(spec, radius)
        assert R.sphere_sizes(spec, radius) == index.sphere_sizes
        assert R.ball_sizes(spec, radius) == index.ball_sizes

    @pytest.mark.parametrize("descriptor", ["Z^2", "H3", "F2", "C12",
                                            "Z^1xH3", "H3xF2"])
    def test_a_witness_takes_its_sizes_from_the_growth_series(
            self, descriptor, monkeypatch):
        # no ball is searched for the sizes, H3 and its products included
        spec = R.parse_descriptor(descriptor)
        want = R.enumerate_balls(spec, 5).sphere_sizes

        def searched(*args):
            raise AssertionError("a ball was searched")
        monkeypatch.setattr(R.groups, "_enumerate", searched)
        for witness in ("ball", "sphere", "aN"):
            x = make_witness(spec, witness, 5, d_hat=1.5)
            assert x.sizes == want and len(x.coeffs) == 6


class _Computed(Exception):
    """Raised where an estimator would start to compute: the balls it needs
    are loaded by then."""


def loaded_radii(spec, method, needs, radius, domain_radius, monkeypatch):
    """Radii of the balls a command's computation to ``radius`` loads through
    ``ball_index``, in order.  ``needs`` names the computation: "witness"
    norms a witness with ``method``, "element" norms a given dense element of
    that support radius, and "series" runs zseries with r = 1, K = radius.
    The trace ladder and the power-iteration matrix stop before they start."""
    args = ["zseries", "--group", spec.descriptor(), "--r", "1",
            "--alpha", "1.0", "--k", str(radius)]
    run = rdlab.cli._Run(rdlab.cli.build_parser().parse_args(args))
    loads = []

    def load(spec, radius, budget):
        loads.append(radius)
        return R.enumerate_balls(spec, radius, budget)

    def computed(*args, **kwargs):
        raise _Computed
    monkeypatch.setattr(rdlab.rd, "op_norm_trace_power", computed)
    monkeypatch.setattr(rdlab.norms, "_compression_matrix", computed)
    with R.holding_balls(load):
        try:
            if needs == "series":
                rdlab.cli.cmd_zseries(run, run.args)
            else:
                element = make_witness(spec, "ball", radius)
                if needs == "element":
                    element = rdlab.algebra.AlgebraElement(
                        spec, {spec.identity(): 1.0}, support_radius=radius)
                # no budget: the matrix of F2's B_9 by B_5 passes the default
                R.norm_bracket(element, method=method, R=domain_radius,
                               budget=None)
        except _Computed:
            pass
    return loads


class TestIndexPlanning:
    @pytest.mark.parametrize("spec,method,needs,radius,want", [
        (F2, "trace", "witness", 5, []),
        (F2, "auto", "witness", 5, []),
        (F2, "power", "witness", 5, [5, 9]),
        (H3, "trace", "witness", 5, [5]),
        (Z2, "trace", "element", 5, []),
        (H3, "trace", "element", 5, []),
        (H3, "power", "element", 5, [9]),
        (F2, None, "series", 7, [7]),        # |B_7| = 4373: element attached
        (F2, None, "series", 8, []),         # |B_8| = 13121
        (Z2, None, "series", 30, [30]),      # |B_30| = 1861: element attached
        (Z2, "auto", "witness", 5, []),      # amenable: exact from sphere sizes
        (C12, "auto", "witness", 5, []),     # amenable, closed-form sizes
        (R.DirectProduct([Z, F2]), "auto", "witness", 5, [5]),  # convolves
        (Z2, "exact", "witness", 5, []),
        (Z2, "l1", "witness", 5, []),
        (Z2, "trace", "witness", 5, [5]),
        (H3, "exact", "witness", 5, []),     # closed sphere sizes
        (H3, None, "series", 30, []),        # |B_30| = 345,149
    ])
    def test_planner(self, spec, method, needs, radius, want, monkeypatch):
        # the balls each computation loads, with --R 9: a power norm loads
        # the witness's ball, then its domain's
        assert loaded_radii(spec, method, needs, radius, 9, monkeypatch) == want

    def test_power_domain_default_is_at_least_one(self):
        # norm_bracket compresses to the domain radius R, else
        # max(support radius, 1)
        point = make_witness(Z2, "ball", 0)
        est = R.norm_bracket(point, method="power")
        assert (est.lower, est.upper) == (1.0, 1.0)

    def test_planner_matches_the_witness_form(self, monkeypatch):
        # the witness is always a sphere function; norm_bracket expands it
        # from its ball where the estimator needs group elements
        expanded = []

        def expand(x, budget):
            expanded.append(R.radial_to_algebra(x, budget))
            return expanded[-1]
        monkeypatch.setattr(rdlab.rd, "witness_element", expand)
        for spec, method, dense in [
                (F2, "trace", False), (F2, "auto", False), (F2, "l1", False),
                (F2, "power", True), (Z2, "trace", True), (Z2, "power", True),
                (Z2, "auto", False), (Z2, "exact", False),
                (R.DirectProduct([Z, F2]), "auto", True)]:   # auto: trace
            witness = make_witness(spec, "ball", 3)
            assert isinstance(witness, R.RadialElement)
            expanded.clear()
            R.norm_bracket(witness, method=method, depth=1, iters=5)
            assert [len(a.coeffs) for a in expanded] == \
                ([R.ball_sizes(spec, 3)[3]] if dense else [])

    def test_ratio_series_reads_the_sizes_per_witness(self, monkeypatch):
        # one sphere-size lookup per witness, each to its own n, and the
        # entries of one witness at a time
        calls = []

        def recording_sizes(spec, up_to):
            calls.append(up_to)
            return R.sphere_sizes(spec, up_to)
        monkeypatch.setattr(rdlab.rd, "sphere_sizes", recording_sizes)
        for spec in (Z2, H3):
            calls.clear()
            ser = R.ratio_series(spec, "aN", [1, 4, 7], method="exact",
                                 d_hat=1.5)
            assert calls == [1, 4, 7]
            for n, entry in zip([1, 4, 7], ser.entries):
                x = make_witness(spec, "aN", n, 1.5)
                est = R.norm_bracket(x, method="exact")
                assert (entry.norm_lower, entry.l2) == \
                    (est.lower, coefficient_norm(x, "l2"))

    def test_radial_and_dense_witnesses_agree(self):
        for witness in ("ball", "sphere", "aN"):
            radial = make_witness(F2, witness, 3, d_hat=1.5)
            dense = R.witness_element(radial)
            assert R.radial_from_algebra(dense) == radial
        # the empty aN witness at n = 0 is skipped on every group
        for spec in (F2, Z):
            ser = R.ratio_series(spec, "aN", [0, 2], method="l1",
                                 d_hat=1.0)
            assert [e.n for e in ser.entries] == [2]

    def test_radial_and_dense_brackets_agree(self):
        for method in ("l1", "trace"):
            witness = make_witness(F2, "sphere", 3)
            radial = R.norm_bracket(witness, method=method, depth=3)
            dense = R.norm_bracket(R.witness_element(witness),
                                   method=method, depth=3)
            assert (radial.lower, radial.upper) == (dense.lower, dense.upper)
        with pytest.raises(RdlabError):
            R.norm_bracket(R.radial_ball(2, 2), method="exact")

    def test_misspelt_settings_raise(self):
        with pytest.raises(TypeError, match="exponnent"):
            R.ratio_series(F2, "ball", [2, 3], method="trace", exponnent=8)
        with pytest.raises(TypeError, match="exponnent"):
            R.norm_bracket(R.radial_ball(2, 2), exponnent=8)
        with pytest.raises(TypeError, match="exponnent"):
            R.verify_heredity(R.standard_embedding("Z:Z"), [4], exponnent=8)

    @pytest.fixture
    def searches(self, monkeypatch):
        """The (group, radius) of each search, in order."""
        searched = []
        enumerate_balls = rdlab.groups.enumerate_balls

        def recording(spec, N, *args, **kwargs):
            searched.append((spec.descriptor(), N))
            return enumerate_balls(spec, N, *args, **kwargs)
        monkeypatch.setattr(rdlab.groups, "enumerate_balls", recording)
        return searched

    def test_a_library_call_searches_each_ball_once(self, searches):
        # outside any holder an entry point holds its own balls: the series
        # product bound expands both series from B_16 and reads B_14; the
        # power series expands witnesses from B_4 (reached from n = 1) and
        # compresses each to B_6
        R.verify_series_product_bound(Z2, 2, 1.0, 1.0, 8)
        assert searches == [("Z^2", 16)]
        searches.clear()
        R.ratio_series(H3, "ball", [1, 2, 3, 4], method="power", R=6)
        assert searches == [("H3", 4), ("H3", 6)]
        # the balls go when the call ends
        R.verify_series_product_bound(Z2, 2, 1.0, 1.0, 8)
        assert searches[2:] == [("Z^2", 16)]

    def test_an_active_holder_serves_the_call(self, searches):
        # within a holder, such as a command's, its loader serves every
        # load, none searches around it, and its balls outlive the call
        loads = []

        def load(spec, radius, budget):
            loads.append(radius)
            return R.enumerate_balls(spec, radius, budget)
        with R.holding_balls(load):
            for _ in range(2):
                R.verify_series_product_bound(Z2, 2, 1.0, 1.0, 8)
        assert loads == [16] and searches == []

    def test_a_negative_radius_is_refused_held_or_not(self, searches):
        # within a holder a negative radius is not raised to a held or
        # reached radius: it is refused as outside one, and loads nothing
        loads = []

        def load(spec, radius, budget):
            loads.append(radius)
            return R.enumerate_balls(spec, radius, budget)
        with pytest.raises(ValueError, match="radius must be >= 0"):
            rdlab.groups.ball_index(Z2, -1)
        with R.holding_balls(load):
            with pytest.raises(ValueError, match="radius must be >= 0"):
                rdlab.groups.ball_index(Z2, -1)
            rdlab.groups.ball_index(Z2, 3)
            with rdlab.groups.reaching(Z2, 5):
                with pytest.raises(ValueError, match="radius must be >= 0"):
                    rdlab.groups.ball_index(Z2, -1)
        assert loads == [3] and searches == []

    def test_rank_one_radial_witness_is_exact(self):
        est = R.norm_bracket(make_witness(R.FreeGroup(1), "ball", 4))
        assert est.method == "amenable_exact" and est.lower == est.upper == 9.0


class TestRatioSeries:
    def test_z_ball_exact(self):
        ser = R.ratio_series(Z, "ball", [1, 4], method="exact")
        assert ser.entries[0].ratio_lower == pytest.approx(math.sqrt(3))
        assert ser.entries[1].ratio_lower == pytest.approx(3.0)
        assert all(e.ratio_lower == e.ratio_upper for e in ser.entries)

    def test_finite_cyclic_saturates(self):
        index = R.enumerate_balls(C5, 12)
        ser = R.ratio_series(C5, "ball", [2, 6, 10], method="exact")
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
        ser = R.ratio_series(C5, "sphere", [1, 2, 8], method="exact")
        assert [e.n for e in ser.entries] == [1, 2]

    def test_aN_witness(self):
        ser = R.ratio_series(Z, "aN", [2], method="exact",
                             d_hat=1.0)
        # a_2 has l1 = 2(1/2 + 1/3), l2 = sqrt(2(1/4 + 1/9))
        assert ser.entries[0].norm_lower == pytest.approx(2 * (0.5 + 1 / 3))
        assert ser.entries[0].l2 == pytest.approx(math.sqrt(2 * (0.25 + 1 / 9)))

    def test_increasing_n_required(self):
        with pytest.raises(ValueError):
            R.ratio_series(Z, "ball", [4, 2], method="exact")


class TestFits:
    @pytest.mark.parametrize("sigma", [0.0, 0.5, 1.7])
    def test_recovers_synthetic_exponent(self, sigma):
        pairs = [(n, 3.7 * (1 + n) ** sigma) for n in range(4, 40)]
        fit = R.fit_loglog(pairs, window=(4, None))
        assert fit.slope == pytest.approx(sigma, abs=1e-9)
        assert fit.constant == pytest.approx(3.7, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_z_ball_slope_half(self):
        ser = R.ratio_series(Z, "ball", list(range(4, 257)), method="exact")
        fit = R.fit_exponent(ser, window=(4, 256))
        assert abs(fit.slope - 0.5) <= 0.02

    def test_finite_slope_zero(self):
        ser = R.ratio_series(C5, "ball", list(range(4, 65)), method="exact")
        fit = R.fit_exponent(ser, window=(4, 64))
        assert abs(fit.slope) <= 0.01

    def test_z2_ball_slope_one(self):
        ser = R.ratio_series(Z2, "ball", list(range(4, 49)), method="exact")
        fit = R.fit_exponent(ser, window=(4, 48))
        assert abs(fit.slope - 1.0) <= 0.05

    def test_degenerate_window(self):
        ser = R.ratio_series(Z, "ball", [4, 5], method="exact")
        with pytest.raises(ValueError):
            R.fit_exponent(ser, window=(4, 5))

    def test_repeated_n_has_no_spread(self):
        # three points at one n: their log(1+n) may average to a float a
        # last bit off, and no slope may come out of them
        with pytest.raises(ValueError, match="degenerate fit window: no spread in n"):
            R.fit_loglog([(5, 1.0), (5, 5.0), (5, 3.0)])

    def test_least_squares_keeps_the_float_operations(self):
        # the least-squares formula in its original order of float
        # operations; fit slopes and intercepts must agree to the last bit
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
            # fit_loglog reads x = log(1+n) and y = log(value)
            pairs = [(math.expm1(x), math.exp(y)) for x, y in zip(xs, ys)]
            if m < 3:
                with pytest.raises(ValueError, match="2 usable points"):
                    R.fit_loglog(pairs, window=(-1, None))
                continue
            fit = R.fit_loglog(pairs, window=(-1, None))
            assert (fit.slope, fit.intercept) == reference(
                [math.log1p(n) for n, _ in pairs], [math.log(v) for _, v in pairs])
        with pytest.raises(ValueError, match="degenerate fit window: no spread in n"):
            R.fit_loglog([(0, 1.0), (0, 5.0), (0, 3.0)], window=(0, None))


class TestConstantSeries:
    def test_z_divergent_at_small_s(self):
        ns = [8, 16, 32, 64, 128, 256]
        ser = R.ratio_series(Z, "ball", ns, method="exact")
        points, verdict = R.rd_constant_series(ser, 0.4)
        values = dict(points)
        assert values[8] == pytest.approx(math.sqrt(17) / 9 ** 0.4, rel=1e-12)
        assert values[8] == pytest.approx(1.712, abs=1e-3)
        assert values[256] == pytest.approx(math.sqrt(513) / 257 ** 0.4, rel=1e-12)
        assert verdict == "divergent"

    def test_z_bounded_at_half(self):
        ns = [8, 16, 32, 64, 128, 256]
        ser = R.ratio_series(Z, "ball", ns, method="exact")
        points, verdict = R.rd_constant_series(ser, 0.5)
        assert verdict == "bounded trend"
        assert all(c <= math.sqrt(2) + 1e-9 for _, c in points)

    def test_finite_constant_tail(self):
        ser = R.ratio_series(C5, "ball", [4, 8, 16, 32, 64], method="exact")
        points, verdict = R.rd_constant_series(ser, 0.0)
        assert verdict == "bounded trend"
        assert all(c == pytest.approx(math.sqrt(5)) for _, c in points)

    def test_fitted_slope_splits_verdicts(self):
        cases = [
            (R.ratio_series(Z, "ball", [8, 16, 32, 64, 128, 256],
                            method="exact"), (8, 256)),
            (R.ratio_series(Z2, "ball", [4, 8, 16, 32, 48],
                            method="exact"), (4, 48)),
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
        ser = R.ratio_series(Z2, "ball", list(range(4, 49)), method="exact")
        fit = R.fit_exponent(ser, window=(4, 48))
        c_prime = R.delocalize_constant(fit.constant, 1.0, 0.25)
        rng = random.Random(0)
        pool = list(z2_index.ball(16))
        for _ in range(100):
            supp = rng.sample(pool, rng.randint(1, 40))
            coeffs = {g: rng.uniform(0.0, 1.0) + 1e-9 for g in supp}
            a = R.AlgebraElement(spec=Z2, coeffs=coeffs, support_radius=16)
            exact = R.op_norm_positive_amenable(a).lower
            weighted = R.norm(a, ("l2s", 1.25))
            assert exact <= c_prime * weighted


class TestBallProductBound:
    def test_examples(self):
        assert R.verify_ball_product_bound(Z, 1, 1) == (True, 0.0)
        assert R.verify_ball_product_bound(F2, 1, 1) == (True, 0.0)
        ok, slack = R.verify_ball_product_bound(H3, 2, 2)
        assert ok and slack >= 0.0

    @pytest.mark.parametrize("spec,max_sum", [
        (Z, 8), (Z2, 6), (H3, 6), (F2, 6), (C12, 6)])
    def test_small_sweeps_exact_zero(self, spec, max_sum):
        ok, slack, worst = R.ball_product_sweep(spec, max_sum)
        assert ok and slack == 0.0

    def test_product_group_sweep(self):
        spec = R.DirectProduct([Z, F2])
        ok, slack, _ = R.ball_product_sweep(spec, 5)
        assert ok and slack == 0.0

    def test_radial_and_dense_agree(self, monkeypatch):
        # the dense branch gives exactly 0 on every pair, as the radial one does
        pairs = [(n, k) for n in range(1, 6) for k in range(1, 7 - n)]
        radial = [R.verify_ball_product_bound(F2, n, k) for n, k in pairs]
        dense_products(monkeypatch)
        for (n, k), want in zip(pairs, radial):
            assert R.verify_ball_product_bound(F2, n, k) == want == \
                (True, 0.0)


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

    def test_heisenberg_from_the_growth_series(self):
        ratios = R.doubling_ratios(H3, 2, 4)
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
    def test_single_term_is_normalized(self):
        ser = R.build_ball_series(Z, 3, 0.7, 1)
        assert coefficient_norm(ser.function, "l2") == \
            pytest.approx(1.0, rel=1e-12)
        bounds = R.ball_series_l2_bounds(ser)
        assert (bounds.lower, bounds.actual, bounds.upper) == \
            pytest.approx((1.0, 1.0, 4.0), rel=1e-12)
        assert bounds.doubling_ok

    def test_z_identity_coefficient(self):
        ser = R.build_ball_series(Z, 1, 1.0, 2)
        want = 1 / math.sqrt(3) + 0.5 / math.sqrt(5)
        element = R.radial_to_algebra(ser.function)
        assert element.coeffs[(0,)] == pytest.approx(want, rel=1e-12)
        assert ser.function.coeffs[0] == pytest.approx(want, rel=1e-12)

    def test_f2_small_dense_matches_shells(self):
        index = R.enumerate_balls(F2, 6)
        ser = R.build_ball_series(F2, 2, 1.0, 3)
        element = R.radial_to_algebra(ser.function)
        assert element.support_radius == 6
        assert set(element.coeffs) == set(index.ball(6))
        # constant on B_2 (every term's ball contains it)
        for g in index.ball(2):
            assert element.coeffs[g] == ser.function.coeffs[0]
        for g, c in element.coeffs.items():
            assert c == ser.function.coeffs[len(g)]
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
        ser = R.build_ball_series(Z, 2, 0.8, 4)
        terms = [(k ** -0.8 / math.sqrt(4 * k + 1), R.char_ball(index, 2 * k))
                 for k in range(1, 5)]
        want = R.linear_combine(terms)
        element = R.radial_to_algebra(ser.function)
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

    def test_z_doubling_fails_only_lower_asserted(self):
        ser = R.build_ball_series(Z, 2, 1.0, 8)
        b = R.ball_series_l2_bounds(ser)
        assert not b.doubling_ok
        assert b.lower <= b.actual
        # 4 * lower is no bound without doubling, and none is given
        assert b.upper is None
        assert b.to_json_dict()["upper_reason"] == rdlab.rd.NO_UPPER_REASON

    @pytest.mark.parametrize("alpha", [0.51, 0.54, 0.6, 0.75, 1.0, 1.5])
    @pytest.mark.parametrize("K", [4, 8, 12])
    def test_f2_sweep_bounds_hold(self, alpha, K):
        b = R.ball_series_l2_bounds(R.build_ball_series(F2, 2, alpha, K))
        assert b.doubling_ok
        assert b.lower <= b.actual <= b.upper


class TestSeriesProductBound:
    def test_f2_finite_chain(self):
        rep = R.verify_series_product_bound(F2, 2, 1.0, 1.0, 6)
        assert rep.ok and rep.min_slack >= 0.0

    def test_z_finite_chain(self):
        rep = R.verify_series_product_bound(Z, 1, 1.0, 1.0, 6)
        assert rep.ok and rep.min_slack >= 0.0

    def test_k1_vacuous(self):
        rep = R.verify_series_product_bound(Z, 1, 1.0, 1.0, 1)
        assert rep.ok
        assert rep.tail_comparison == []

    def test_heisenberg_dense_path(self):
        rep = R.verify_series_product_bound(H3, 1, 1.0, 1.0, 3)
        assert rep.ok and rep.min_slack >= 0.0

    def test_tail_diagnostic_shape(self):
        rep = R.verify_series_product_bound(F2, 2, 1.0, 1.0, 6)
        assert len(rep.tail_comparison) == 5
        for j, truncated, bound in rep.tail_comparison:
            assert truncated > 0 and bound > 0
            assert truncated < bound  # truncation falls below the integral

    def test_radial_and_dense_agree(self, monkeypatch):
        cases = [(1, 4, 0.42484696565854474), (2, 3, 0.2752891695198586)]
        radials = [R.verify_series_product_bound(F2, r, 1.0, 1.0, K)
                   for r, K, _ in cases]
        dense_products(monkeypatch)
        for (r, K, want), radial in zip(cases, radials):
            dense = R.verify_series_product_bound(F2, r, 1.0, 1.0, K)
            assert dense.ok and radial.ok
            assert radial.min_slack == pytest.approx(want, rel=1e-12)
            assert dense.min_slack == pytest.approx(radial.min_slack, rel=1e-12)

    @pytest.mark.parametrize("r, K", [(1, 6), (2, 5)])
    def test_slack_is_taken_where_the_right_side_lives(self, r, K):
        # on Z, |B_m| = 2m + 1: sum the series, their product and the right
        # side element by element, and take the least slack on B_{r(K-1)}
        def series(i):
            j = max(1, -(-i // r))
            return sum(1.0 / (k * math.sqrt(2 * r * k + 1)) for k in range(j, K + 1))

        def product(g):
            return sum(series(abs(h)) * series(abs(g - h))
                       for h in range(-r * K, r * K + 1) if abs(g - h) <= r * K)

        def rhs(g):
            return sum(1.0 / (k * (j + k) * math.sqrt(2 * r * j + 1))
                       for j in range(1, K) for k in range(1, K - j + 1)
                       if abs(g) <= r * j)

        want = min(product(g) - rhs(g) for g in range(-r * (K - 1), r * (K - 1) + 1))
        rep = R.verify_series_product_bound(Z, r, 1.0, 1.0, K)
        assert rep.ok and rep.min_slack == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("spec", [Z2, H3, F2], ids=str)
    @pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "loop"])
    def test_a_nan_slack_is_the_least(self, spec, kernel, monkeypatch):
        # the finite slack at e comes before the nan ones on S_1, and builtin
        # min returned it; so does a check whose product or sums are nan
        if not kernel:      # the dense product as a dict, read key by key
            monkeypatch.setattr(rdlab.algebra, "_convolve_arrays",
                                lambda *args: None)
        x = R.RadialElement(spec=spec, coeffs=[1.0, 1.0])
        assert math.isnan(rdlab.rd._product_slack(x, x, [0.0, math.nan]))

    def test_parameter_guard(self):
        with pytest.raises(ValueError):
            R.verify_series_product_bound(F2, 2, 0.4, 0.5, 4)

    @pytest.mark.parametrize("call", [
        lambda: R.verify_series_product_bound(Z, 1, math.nan, 1.0, 3),
        lambda: R.verify_series_product_bound(Z, 1, 1.0, math.nan, 3),
        lambda: R.build_ball_series(Z, 1, math.nan, 3),
        lambda: R.harmonic_sphere_sum(Z, math.nan, 8),
        lambda: make_witness(F2, "aN", 3, d_hat=math.nan),
    ], ids=["alpha", "beta", "series", "sphere sum", "aN"])
    def test_nan_exponents_are_refused(self, call):
        with pytest.raises(ValueError, match="> 0"):
            call()


class TestSphereSum:
    def test_z_harmonic(self):
        rep = R.harmonic_sphere_sum(Z, 1.0, 100)
        want = 2 * (sum(1.0 / i for i in range(1, 102)) - 1.0)
        assert rep.final() == pytest.approx(want, rel=1e-12)
        assert rep.final() == pytest.approx(8.39, abs=0.02)
        (m1, inc1), (m2, inc2) = rep.increments
        assert (m1, m2) == (25, 50)
        assert inc2 == pytest.approx(2 * math.log(2), rel=0.05)

    def test_wrong_exponent_detected(self):
        rep = R.harmonic_sphere_sum(Z, 3.0, 100)
        (_, inc1), (_, inc2) = rep.increments
        assert inc2 < inc1 < 0.01

    def test_heisenberg_from_the_growth_series(self):
        rep = R.harmonic_sphere_sum(H3, 4.0, 10)
        assert len(rep.partial_sums) == 10
        assert rep.partial_sums == sorted(rep.partial_sums)

    def test_sizes_past_the_float_range(self):
        assert R.harmonic_sphere_sum(F2, 1.0, 645).final() < math.inf
        with pytest.raises(BudgetExceededError, match="float range at radius 646"):
            R.harmonic_sphere_sum(F2, 1.0, 700)


class TestHeredity:
    def test_z_into_z2(self):
        emb = R.standard_embedding("Z:Z^2")
        rep = R.verify_heredity(emb, [4, 8, 16, 32])
        assert rep.ok
        for row in rep.rows:
            n = row.n
            assert row.sub_ratio_lower == pytest.approx(math.sqrt(2 * n + 1))
            assert row.ambient_ratio_upper == pytest.approx(
                math.sqrt(2 * n * n + 2 * n + 1))

    def test_identity_embedding_equality(self):
        emb = R.standard_embedding("Z:Z")
        rep = R.verify_heredity(emb, [4, 16])
        assert rep.ok
        for row in rep.rows:
            assert row.sub_ratio_lower == pytest.approx(row.ambient_ratio_upper)

    def test_trivial_subgroup(self):
        emb = R.standard_embedding("e:Z^2")
        rep = R.verify_heredity(emb, [4, 32])
        assert rep.ok
        assert all(r.sub_ratio_lower == 1.0 for r in rep.rows)

    def test_z_into_f2_uses_radial_ambient_bracket(self):
        emb = R.standard_embedding("Z:F2")
        rep = R.verify_heredity(emb, [2, 4, 8, 16, 32], exponent=64)
        assert rep.ok
        last = rep.rows[-1]
        assert last.sub_ratio_lower == pytest.approx(math.sqrt(65))
        assert last.ambient_ratio_upper == pytest.approx(
            R.ball_sizes(F2, 32)[32] / math.sqrt(R.ball_sizes(F2, 32)[32]))

    def test_all_shipped_embeddings_to_32(self):
        for name, (sub, _, _) in R.standard_embeddings().items():
            emb = R.standard_embedding(name)
            rep = R.verify_heredity(emb, [4, 8, 16, 32], exponent=32)
            assert rep.ok, name

    def test_coverage_guard(self):
        # (0, 1) maps to (1, 1), so (-16, 1) of length 17 maps to (-15, 1)
        # of length 16: B_17 of the subgroup cannot certify n = 16
        emb = R.embed(Z2, Z2, {(1, 0): (1, 0), (0, 1): (1, 1)})
        with pytest.raises(CoverageError, match="radius 17 cannot certify"):
            R.verify_heredity(emb, [16])

    def test_witnesses_keep_ball_order(self, monkeypatch):
        # image lengths |a| + 3|b| do not grow along the ball, so each n adds
        # elements between the previous n's members
        emb = R.embed(Z2, Z2, {(1, 0): (1, 0), (0, 1): (0, 3)})
        sub_index = R.enumerate_balls(Z2, 13)
        witnesses = []

        def spy(element, **settings):
            if isinstance(element, R.AlgebraElement):
                witnesses.append(element)
            return norm_bracket(element, **settings)

        norm_bracket = rdlab.rd.norm_bracket
        monkeypatch.setattr(rdlab.rd, "norm_bracket", spy)
        ns = [1, 2, 3, 5, 8, 12]
        rep = R.verify_heredity(emb, ns, method="exact")
        ball = list(sub_index.ball(13))
        assert len(witnesses) == len(ns)
        for n, row, witness in zip(ns, rep.rows, witnesses):
            members = [g for g in ball if emb.ambient_length(g) <= n]
            assert list(witness.coeffs) == members
            assert row.subgroup_count == len(members)
            assert witness.support_radius == max(map(Z2.word_length, members))

    def test_witnesses_read_each_length_once(self):
        # one image length and one word length per element of the subgroup
        # ball, where filtering the ball afresh for each n read about 40,500
        # word lengths for n up to 400 and 161,000 up to 800
        def calls(top):
            emb = R.standard_embedding("Z:Z^2")
            with mock.patch.object(emb, "ambient_length",
                                   wraps=emb.ambient_length) as image, \
                    mock.patch.object(emb.sub, "word_length",
                                      wraps=emb.sub.word_length) as length:
                R.verify_heredity(emb, range(4, top + 1, 4),
                                  method="exact")
            return image.call_count, length.call_count

        short, long = calls(400), calls(800)
        assert max(short) <= 2 * 401 + 1
        assert all(b <= 2.1 * a for a, b in zip(short, long))


class TestReport:
    def test_growth_and_ratio_consistency(self):
        for spec, top in [(Z, 32), (Z2, 48), (H3, 10)]:
            ns = list(range(4, top + 1))
            report = R.build_report(spec, ns, s_values=[0.4], method="exact")
            assert abs(report.ball_fit.slope - report.growth_fit.slope / 2) <= 0.1
            assert report.constant_series[0.4]["verdict"] in ("divergent",
                                                              "bounded trend")

    def test_json_shape(self):
        report = R.build_report(Z, list(range(4, 33)), s_values=[0.5],
                                method="exact")
        data = report.to_json_dict()
        assert data["group"] == "Z^1"
        assert "slope" in data["ball_fit"]
        assert data["constant_series"]["0.5"]["verdict"] == "bounded trend"
