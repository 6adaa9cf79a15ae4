import json
import math
import os
import random
import subprocess
import sys

from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import rdlab as R
from rdlab import algebra, norms
from rdlab.cli import run_command
from rdlab.errors import BudgetExceededError, IndexRadiusError, RdlabError
from rdlab.groups import DEFAULT_BUDGET
from rdlab.norms import _trace_exponents, radial_rank
from rdlab.rd import make_witness

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

    def test_radial_ladder_stops_at_the_budget(self):
        # b^m of F2 sphere 1 has 2m + 1 sphere coefficients, so b^4 passes 5;
        # tau(b^m) counts the closed walks of length 2m: 4, 28, 2092 for m = 1, 2, 4
        est = R.op_norm_trace_power(R.radial_sphere(2, 1), depth=4, budget=5)
        assert (est.target_steps, est.stop_reason) == (5, "budget")
        assert est.steps == pytest.approx([4 ** (1 / 2), 28 ** (1 / 4),
                                           2092 ** (1 / 8)], rel=1e-15)

    @pytest.mark.parametrize("budget", range(7))
    def test_radial_b_meets_the_budget(self, budget):
        # b = chi(B_3)^2 on F2 has 7 sphere coefficients; a budget below that
        # stops the radial ladder before its first step, as it does the dense
        with pytest.raises(BudgetExceededError,
                           match="exhausted its budget before the first step"):
            R.op_norm_trace_power(R.radial_ball(2, 3), depth=6, budget=budget)

    def test_radial_b_within_the_budget(self):
        # b^2 has 13 sphere coefficients: the steps at b-exponents 1 and 2
        # read b only
        est = R.op_norm_trace_power(R.radial_ball(2, 3), depth=6, budget=7)
        assert (est.iterations, est.target_steps, est.stop_reason) == \
            (2, 7, "budget")

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

    def test_exponent_validation(self, z_index):
        s1 = R.char_sphere(z_index, 1)
        with pytest.raises(ValueError):
            R.op_norm_trace_power(s1, exponent=15)
        with pytest.raises(ValueError):
            R.op_norm_trace_power(s1, depth=0)

    @pytest.mark.parametrize("depth", range(1, 13))
    def test_a_depth_is_the_exponent_two_to_depth_plus_one(self, depth):
        # one ladder: powers of two below the target, then the target
        ladder = _trace_exponents(depth, None)
        assert ladder == _trace_exponents(6, 2 ** (depth + 1))
        assert ladder == [2 ** j for j in range(depth + 1)]


def reference_ladder(a, depth=6, budget=DEFAULT_BUDGET, exponent=None):
    """The trace ladder of ``op_norm_trace_power`` with every step formed:
    no step is skipped for a trace proved past the float range, the ladder
    stops only on a non-finite or non-positive trace or a budget overrun.
    Returns (steps, lower, stop_reason, target_steps, converged)."""
    radial = (a.trimmed() if isinstance(a, R.RadialElement)
              else R.radial_from_algebra(a))
    ops = (norms._DenseOps(a, budget) if radial is None
           else norms._RadialOps(radial, budget))
    ms = _trace_exponents(depth, exponent)
    squares = [ops.b]      # squares[j] = b^(2^j)

    def power(k):
        result = None
        for j in range(k.bit_length()):
            if j == len(squares):
                squares.append(ops.mul(squares[-1], squares[-1]))
            if k >> j & 1:
                result = squares[j] if result is None else ops.mul(result,
                                                                   squares[j])
        return result

    steps, stop_reason = [], "done"
    for m in ms:
        try:
            half = power(m // 2) if m > 1 else None
            trace = (ops.trace(ops.b) if m == 1 else
                     ops.inner(half, ops.mul(half, ops.b) if m % 2 else half))
        except BudgetExceededError:
            stop_reason = "budget"
            break
        if not math.isfinite(trace) or trace <= 0.0:
            stop_reason = "float_range"
            break
        steps.append(trace ** (1.0 / (2.0 * m)))
    if not steps:
        raise BudgetExceededError("no step")
    converged = (len(steps) >= 2 and stop_reason != "budget" and
                 abs(steps[-1] - steps[-2]) <= norms.CONVERGED_RTOL * steps[-1])
    return steps, steps[-1], stop_reason, len(ms), converged


def as_bits(outcome):
    """A ladder outcome with its floats as hex, so that equality is bitwise."""
    steps, lower, *rest = outcome
    return [list(map(float.hex, steps)), float.hex(lower), *rest]


LADDER_SETTINGS = st.one_of(
    # 42 ends on the odd b-exponent 21: an inner product of two powers
    st.builds(dict, exponent=st.sampled_from([42, 64, 1024, 10000])),
    st.just({"depth": 6}))
# small dyadic numbers sum exactly and cancel; drawn floats round, so that
# the order of every sum shows
DENSE_COEFFS = st.one_of(st.sampled_from([1.0, -1.0, 2.0, 0.5, -3.0, 1.5]),
                         st.floats(-3.0, 3.0).filter(bool))
Z5 = R.FreeAbelian(5)


def dense_point(spec):
    """A point of a small box; on Z^5 and Z^10 most coordinates are 0, so
    that products' boxes are sparse there, and a ladder switches between
    the numpy kernel and the dict loop as its supports and budget grow."""
    d = len(spec.identity())
    if d <= 3:
        return st.tuples(*[st.integers(-2, 2)] * d)
    return st.tuples(*[st.sampled_from([0, 0, 0, 1, -1, 2, -2])] * d)


def dense_element(spec, coeffs):
    return R.AlgebraElement(spec=spec, coeffs=coeffs, support_radius=max(
        map(spec.word_length, coeffs)))


@st.composite
def dense_elements(draw):
    """A small Z^2, H3, Z^5 or Z^10 element, scaled so that some ladders
    leave the float range within a few steps (past it at 1e200 at once:
    inf, and nan where infinities cancel)."""
    spec = draw(st.sampled_from([Z2, R.DiscreteHeisenberg(), Z5,
                                 R.FreeAbelian(10)]))
    points = draw(st.lists(dense_point(spec), min_size=1, max_size=6,
                           unique=True))
    scale = draw(st.sampled_from([1.0, 1e10, 1e40, 1e100, 1e200]))
    return dense_element(spec, {g: scale * draw(DENSE_COEFFS) for g in points})


def ladder_outcome(a, settings):
    """The reference ladder's outcome in bits, or None when it makes no step."""
    try:
        return as_bits(reference_ladder(a, **settings))
    except BudgetExceededError:
        return None


class TestLadderShortcut:
    """A step whose trace is proved past the float range is not formed; the
    ladder still reports what forming it would have."""

    @given(rank=st.sampled_from([2, 3]),
           witness=st.sampled_from(["ball", "sphere", "aN"]),
           n=st.integers(1, 12), settings=LADDER_SETTINGS,
           budget=st.one_of(st.just(DEFAULT_BUDGET), st.none(),
                            st.integers(1, 2000)))
    def test_free_witnesses_match_the_reference_ladder(self, rank, witness, n,
                                                       settings, budget):
        a = make_witness(R.FreeGroup(rank), witness, n,
                         d_hat=1.0 if witness == "aN" else None)
        self.check(a, dict(settings, budget=budget))

    @given(a=dense_elements(), settings=LADDER_SETTINGS,
           budget=st.integers(1, 3000))
    # b on the dict loop, b^2 in the kernel's arrays, b^4 on the dict loop
    # from those arrays (the budget leaves the box too sparse), b^8 past
    # the budget
    @example(a=dense_element(Z5, {(0, -1, 0, 0, 1): 1.0, (0, 0, 0, -2, 0): -1.0,
                                  (0, 0, 0, 0, 0): 2.0, (0, 0, 0, 0, 1): 1.0,
                                  (0, 2, 0, 0, 0): 1.0}),
             settings={"exponent": 64}, budget=900)
    def test_dense_elements_match_the_reference_ladder(self, a, settings,
                                                       budget):
        self.check(a, dict(settings, budget=budget))

    @staticmethod
    def check(a, settings):
        expected = ladder_outcome(a, settings)
        # bit for bit the ladder of the dict loop alone, whose products are
        # dicts that inner products and traces read key by key
        with mock.patch.object(algebra, "_convolve_arrays", return_value=None):
            assert ladder_outcome(a, settings) == expected
        if expected is None:
            # no step: b is past the budget or its trace is not finite
            with pytest.raises(BudgetExceededError):
                R.op_norm_trace_power(a, **settings)
            return
        est = R.op_norm_trace_power(a, **settings)
        assert as_bits((est.steps, est.lower, est.stop_reason,
                        est.target_steps, est.converged)) == expected

    def test_a_budget_stop_keeps_precedence(self, capsys):
        # F2 ball 10: b has radius 20 and the trace at b-exponent 64 leaves
        # the float range; that step forms b^32, 641 coefficients, past every
        # budget here, while b^16 (321) fits
        a = make_witness(F2, "ball", 10)
        for budget in range(321, 641):
            est = R.op_norm_trace_power(a, exponent=1024, budget=budget)
            assert (est.iterations, est.target_steps, est.stop_reason) == \
                (6, 10, "budget")
        for budget in ("321", "640"):
            assert run_command(["norm", "--group", "F2", "--witness", "ball",
                                "--n", "10", "--method", "trace",
                                "--exponent", "1024", "--budget", budget]) == 0
            est = json.loads(capsys.readouterr().out)
            assert (est["iterations"], est["target_steps"],
                    est["stop_reason"]) == (6, 10, "budget")

    def test_the_skipped_squarings_are_not_formed(self, monkeypatch, capsys):
        # F2 balls 2..10 at exponent 1024: every ladder stops on float_range
        # at a power-of-two b-exponent m, and all but one skip the squaring
        # that would form b^(m/2); at n = 6 the last finite step, 243.9 at
        # m = 32, proves only tau(b^64) >= 243.9^128 = e^703.7, inside the
        # float range, so that ladder forms it and finds inf
        calls = []

        def counting(x, y):
            calls.append(None)
            return convolve(x, y)

        convolve = norms.radial_convolve
        monkeypatch.setattr(norms, "radial_convolve", counting)
        skipped = []
        for n in range(2, 11):
            a = make_witness(F2, "ball", n)
            calls.clear()
            R.op_norm_trace_power(a, exponent=1024)
            formed = len(calls)
            calls.clear()
            reference_ladder(a, exponent=1024)
            skipped.append(len(calls) - formed)
        assert skipped == [1, 1, 1, 1, 0, 1, 1, 1, 1]
        # the command runs the same nine ladders: 59 products formed in full
        calls.clear()
        assert run_command(["ratio", "--group", "F2", "--range", "2:10",
                            "--method", "trace", "--exponent", "1024"]) == 0
        assert len(calls) == 51
        capsys.readouterr()


class TestPowerIteration:
    def test_zero_element_is_the_exact_zero_bracket(self):
        # the trace ladder's zero-element estimate, before any matrix is built
        zero = R.AlgebraElement(spec=Z, coeffs={}, support_radius=0)
        est = R.op_norm_power_iteration(zero, R=3, iters=50)
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

    def test_scalar_operator(self):
        two_delta = R.scale(2.0, R.point_mass(Z, (0,)))
        est = R.op_norm_power_iteration(two_delta, R=2, iters=3, seed=1)
        assert est.lower == pytest.approx(2.0, rel=1e-12)

    def test_z_sphere_compression(self, z_index):
        s1 = R.char_sphere(z_index, 1)
        est = R.op_norm_power_iteration(s1, R=64, iters=200, seed=0)
        # top eigenvalue of the even-sublattice compression: 2 + 2 cos(pi/66)
        assert est.lower >= 1.99
        assert est.lower <= math.sqrt(2 + 2 * math.cos(math.pi / 66)) + 1e-9

    def test_f2_sphere_compression(self, f2_index):
        s1 = R.char_sphere(f2_index, 1)
        est = R.op_norm_power_iteration(s1, R=8, iters=200, seed=0)
        assert 3.3 <= est.lower <= 2 * math.sqrt(3) + 1e-9

    def test_monotone_in_radius(self, z_index):
        s1 = R.char_sphere(z_index, 1)
        lows = [R.op_norm_power_iteration(s1, R=r, iters=300, seed=0).lower
                for r in (8, 10)]
        assert lows[0] <= lows[1] + 1e-12

    def test_deterministic(self, z2_index):
        a = R.char_ball(z2_index, 2)
        e1 = R.op_norm_power_iteration(a, R=6, iters=50, seed=42)
        e2 = R.op_norm_power_iteration(a, R=6, iters=50, seed=42)
        assert e1.steps == e2.steps

    def test_blas_threads_leave_the_artifact_alone(self, tmp_path):
        # w has 12,195 entries here, past the length from which a BLAS dot
        # product splits its sum across threads
        argv = [sys.executable, "-m", "rdlab.cli", "norm", "--group", "H3",
                "--witness", "ball", "--n", "3", "--method", "power",
                "--R", "10"]
        artifacts = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.json"
            subprocess.run(argv + ["--out", str(out)], check=True,
                           capture_output=True,
                           env=dict(os.environ, OPENBLAS_NUM_THREADS=threads))
            artifacts.append(out.read_bytes())
        assert artifacts[0] == artifacts[1]

    def test_stop_reasons(self, z_index):
        s1 = R.char_sphere(z_index, 1)
        est = R.op_norm_power_iteration(s1, R=64, iters=5)
        assert (est.iterations, est.target_steps, est.stop_reason) == (5, 5, "done")
        delta = R.char_ball(z_index, 0)
        est = R.op_norm_power_iteration(delta, R=4, iters=50)
        assert (est.iterations, est.target_steps, est.stop_reason) == \
            (2, 50, "converged")

    def test_domain_radius_guard(self, z2_index):
        a = R.char_ball(z2_index, 3)
        with pytest.raises(IndexRadiusError):
            R.op_norm_power_iteration(a, R=2)


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

    @pytest.mark.parametrize("descriptor, rank", [
        ("F1", 1), ("F3", 3), ("Z^1", None), ("C2", None), ("Z^1xF2", None)])
    def test_radial_rank_is_that_of_a_free_group(self, descriptor, rank):
        assert radial_rank(R.parse_descriptor(descriptor)) == rank

    def test_sizes_match_bfs(self, f2_index):
        assert R.sphere_sizes(F2, 8) == f2_index.sphere_sizes
        assert R.ball_sizes(F2, 8) == f2_index.ball_sizes

    def test_roundtrip(self):
        x = R.free_radial(2, [0.5, 0.0, 2.0, -1.0])
        back = R.radial_from_algebra(R.radial_to_algebra(x))
        assert back.coeffs == x.coeffs

    def test_non_radial_detected(self, f2_index):
        a = R.AlgebraElement(spec=F2, coeffs={"a": 1.0, "b": 2.0}, support_radius=1)
        assert R.radial_from_algebra(a) is None
        partial = R.AlgebraElement(spec=F2, coeffs={"a": 1.0}, support_radius=1)
        assert R.radial_from_algebra(partial) is None

    def _assert_matches_dense(self, rank, x, y, rel=0.0):
        got = R.radial_convolve(x, y)
        dense = R.convolve(R.radial_to_algebra(x), R.radial_to_algebra(y))
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
        rng = random.Random(rank)
        for _ in range(3):
            x = R.free_radial(rank, [float(rng.randint(-3, 3))
                                     for _ in range(max_m + 1)])
            y = R.free_radial(rank, [float(rng.randint(-3, 3))
                                     for _ in range(max_m + 1)])
            self._assert_matches_dense(rank, x, y)

    @pytest.mark.parametrize("rank,i,j", [(2, 6, 1), (2, 2, 6), (3, 6, 1), (3, 5, 2)])
    def test_matches_dense_boundary_spheres(self, rank, i, j):
        self._assert_matches_dense(rank, R.radial_sphere(rank, i),
                                   R.radial_sphere(rank, j))

    def test_matches_dense_float_coefficients(self):
        rng = random.Random(99)
        x = R.free_radial(2, [rng.uniform(-1, 1) for _ in range(5)])
        y = R.free_radial(2, [rng.uniform(-1, 1) for _ in range(5)])
        self._assert_matches_dense(2, x, y, rel=1e-9)

    def test_bracket_invariant(self):
        with pytest.raises(RdlabError):
            R.NormEstimate(lower=2.0, upper=1.0, method="l1_bound")
