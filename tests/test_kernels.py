"""The numpy convolution kernels against the plain Python loops they replace.

On Z^d and H3 ``convolve`` runs in numpy blocks; everywhere else, and when an
input falls outside the kernel's limits, it runs the dict loop.  Both must give
the same floats, bit for bit, in the same order, and raise on the same budgets.
On free groups ``radial_convolve`` runs the sphere recursion on arrays; it must
give the list recursion's numbers, bit for bit and of the same Python types.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rdlab as R
from rdlab import algebra, norms, rd
from rdlab.cli import run_command
from rdlab.errors import BudgetExceededError

H3 = R.DiscreteHeisenberg()
SPECS = [R.FreeAbelian(1), R.FreeAbelian(2), R.FreeAbelian(3), H3]

# small integers make exact cancellation common; arbitrary floats make sums
# whose value depends on the order of addition
COEFFS = st.one_of(st.sampled_from([1.0, -1.0, 2.0, -2.0, 0.5, -3.0]),
                   st.floats(-4.0, 4.0, allow_nan=False).filter(bool))
# products of these leave the float range: inf, and nan where infs cancel
HUGE_COEFFS = st.one_of(COEFFS, st.sampled_from([1e200, -1e200]))


def coordinates(spec):
    if spec is H3:
        return st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                         st.integers(-6, 6))
    return st.tuples(*[st.integers(-4, 4)] * spec.rank)


def length_bound(spec, g):
    if spec is H3:      # no closed form: the length of its generator word
        a, b, c = g
        return abs(a) + abs(b) + 4 * abs(c - a * b)
    return spec.word_length_closed(g)


def element(spec, coeffs):
    radius = max((length_bound(spec, g) for g in coeffs), default=0)
    return R.AlgebraElement(spec=spec, coeffs=coeffs, support_radius=radius)


@st.composite
def operand_pairs(draw, specs=SPECS, min_size=1, coeffs=COEFFS):
    spec = draw(st.sampled_from(specs))
    supports = st.dictionaries(coordinates(spec), coeffs, min_size=min_size,
                               max_size=14)
    return element(spec, draw(supports)), element(spec, draw(supports))


def dict_loop(a, b, budget=R.DEFAULT_BUDGET):
    """``convolve`` with the numpy kernel switched off."""
    with mock.patch.object(algebra, "_convolve_arrays", return_value=None):
        return R.convolve(a, b, budget=budget)


# tiny blocks put one key's terms in several blocks, and split rows
BLOCKS = st.sampled_from([3, 7, algebra.PAIR_BLOCK])


def numpy_kernel(a, b, budget=R.DEFAULT_BUDGET, block=algebra.PAIR_BLOCK):
    """``convolve`` that fails unless the numpy kernel runs.  The box-size
    limit, which guards memory and not correctness, is lifted so that
    scattered random supports reach the kernel too."""
    with mock.patch.object(algebra, "_convolve_dicts",
                           side_effect=AssertionError("dict loop ran")), \
            mock.patch.object(algebra, "BOX_CELLS_PER_PRODUCT", 2 ** 40), \
            mock.patch.object(algebra, "PAIR_BLOCK", block):
        return R.convolve(a, b, budget=budget)


def bits(x):
    return [(g, c.hex()) for g, c in x.coeffs.items()], x.support_radius


def touched(a, b):
    """Elements the generic loop touches, sums that cancel to 0.0 included."""
    return len(algebra._convolve_dicts(a.spec.multiply, a.coeffs, b.coeffs,
                                       False, None))


@given(operand_pairs(coeffs=HUGE_COEFFS), BLOCKS)
@example((element(SPECS[1], {(0, 0): 1e200, (1, 0): 1.0}),
          element(SPECS[1], {(0, 0): 1e200, (1, 0): 1.0})), 3)
@example((element(SPECS[0], {(0,): 1e200, (1,): -1e200}),
          element(SPECS[0], {(0,): 1e200, (1,): 1e200})), 3)
def test_numpy_kernel_matches_dict_loop(pair, block):
    # silently, as the dict loop is: the suite turns warnings into errors
    a, b = pair
    assert bits(numpy_kernel(a, b, block=block)) == bits(dict_loop(a, b))


@given(operand_pairs(), BLOCKS)
def test_budget_parity(pair, block):
    a, b = pair
    n = touched(a, b)
    assume(n >= 2)     # budget 0 leaves nothing for the kernel to hold
    with pytest.raises(BudgetExceededError):
        dict_loop(a, b, budget=n - 1)
    with pytest.raises(BudgetExceededError):
        numpy_kernel(a, b, budget=n - 1, block=block)
    assert bits(numpy_kernel(a, b, budget=n, block=block)) == \
        bits(dict_loop(a, b, budget=n))


def test_many_float_terms_per_element_across_blocks():
    # blocks of two rows: terms of one element meet inside a block and across
    # blocks, where a blockwise sum would round differently
    rng = np.random.default_rng(5)
    z = SPECS[0]
    a = element(z, {(x,): float(c) for x, c in
                    zip(range(-15, 16), rng.uniform(-1, 1, 31))})
    b = element(z, {(x,): float(c) for x, c in
                    zip(range(-15, 16), rng.uniform(-1, 1, 31))})
    assert bits(numpy_kernel(a, b, block=62)) == bits(dict_loop(a, b))


def test_exact_cancellation_drops_the_element_but_counts_it():
    z = SPECS[0]
    a = element(z, {(0,): 1.0, (1,): -1.0})
    b = element(z, {(0,): 1.0, (1,): 1.0})
    out = numpy_kernel(a, b)
    assert list(out.coeffs.items()) == [((0,), 1.0), ((2,), -1.0)]
    assert touched(a, b) == 3
    with pytest.raises(BudgetExceededError):
        numpy_kernel(a, b, budget=2)


def test_equal_sizes_and_flip_on_h3():
    # H3 is not commutative, so the flipped loop must keep a on the left
    index = R.enumerate_balls(H3, 3)
    ball = R.char_ball(index, 2)
    shifted = element(H3, {(1, 0, 0): 2.0, (0, 1, 0): -1.0, (1, 1, 3): 0.5})
    other = element(H3, {(0, 0, 1): 1.0, (-1, 2, 0): 3.0, (2, 0, -1): -0.25})
    for a, b in [(ball, shifted), (shifted, ball), (shifted, other)]:
        assert bits(numpy_kernel(a, b)) == bits(dict_loop(a, b))
    assert bits(numpy_kernel(ball, shifted)) != bits(numpy_kernel(shifted, ball))


def test_empty_operands():
    z2 = SPECS[1]
    empty = element(z2, {})
    one = element(z2, {(1, 2): 1.5})
    for a, b in [(empty, one), (one, empty), (empty, empty)]:
        assert R.convolve(a, b).coeffs == {}
        assert bits(R.convolve(a, b)) == bits(dict_loop(a, b))


def keys_for(a, b):
    return algebra.product_keys(a.spec, list(a.coeffs), list(b.coeffs), False)


BIG = 3 * 2 ** 30


@pytest.mark.parametrize("a, b", [
    ({(0,): 1.0, (2 ** 31,): 2.0}, {(0,): 1.0, (1,): -1.0, (2,): 0.5}),
    ({(-2 ** 31,): 1.0}, {(0,): 1.0}),
    ({(2 ** 70,): 1.0}, {(0,): 1.0}),
    # a one-cell box, but a * b' leaves int64
    ({(BIG, 0, 0): 1.0}, {(0, BIG, 0): 2.0}),
])
def test_huge_coordinates_fall_back(a, b):
    spec = H3 if len(next(iter(a))) == 3 else SPECS[0]
    a, b = element(spec, a), element(spec, b)
    assert keys_for(a, b) is None
    assert bits(R.convolve(a, b)) == bits(dict_loop(a, b))
    assert bits(R.convolve(a, b)) == bits(dict_loop(a, b))


def test_far_apart_sparse_supports_fall_back():
    z2 = SPECS[1]
    a = element(z2, {(0, 0): 1.0, (1000, 1000): 1.0})
    b = element(z2, {(0, 0): 1.0, (0, 1000): 2.0})
    assert keys_for(a, b) is None
    assert bits(R.convolve(a, b)) == bits(dict_loop(a, b))


def test_budget_caps_the_box():
    index = R.enumerate_balls(SPECS[1], 4)
    ball = R.char_ball(index, 4)
    assert keys_for(ball, ball) is not None
    assert algebra.product_keys(SPECS[1], list(ball.coeffs), list(ball.coeffs),
                                False, max_support=2) is None


def test_groups_without_an_array_law_fall_back(f2_index, c12_index):
    for index in (f2_index, c12_index):
        ball = R.char_ball(index, 2)
        assert keys_for(ball, ball) is None
    assert R.FreeGroup(2).multiply_arrays(np.zeros((1, 1)), np.zeros((1, 1))) is None


def test_integer_coefficients_keep_the_dict_loop():
    # the dict loop rounds the exact integer product once; float64 operands
    # would round 2^53 + 1 first and lose the 2^54 term
    a = element(SPECS[0], {(0,): 2 ** 53 + 1})
    assert R.convolve(a, a).coeffs == {(0,): float(2 ** 106 + 2 ** 54)}


@pytest.mark.parametrize("spec, max_sum", [(H3, 8), (SPECS[1], 14)])
def test_ball_product_sweep_slack_is_exactly_zero(spec, max_sum):
    index = R.enumerate_balls(spec, max_sum)
    ok, slack, _ = R.ball_product_sweep(spec, max_sum, index)
    assert ok and slack == 0


@given(operand_pairs(specs=SPECS[:3], min_size=0), st.integers(0, 6))
def test_region_through_the_index_matches_closed_lengths(pair, region):
    a, b = pair
    index = R.enumerate_balls(a.spec, region)
    assert R.pointwise_geq(a, b, region=region, index=index) == \
        R.pointwise_geq(a, b, region=region)


def h3_power_case():
    index = R.enumerate_balls(H3, 6)
    a = R.linear_combine([(1.0, R.char_ball(index, 2)),
                          (-0.5, R.char_sphere(index, 1))])
    return a, index


def test_power_iteration_matrix_matches_the_loop():
    a, index = h3_power_case()
    cols = [g for n in range(7) for g in index.sphere(n)]
    fast = norms._compression_matrix(a, cols)
    with mock.patch.object(norms, "product_keys", return_value=None):
        slow = norms._compression_matrix(a, cols)
    for part in ("indptr", "indices", "data"):
        x, y = getattr(fast, part), getattr(slow, part)
        assert x.dtype == y.dtype and np.array_equal(x, y)


def test_power_iteration_steps_are_unchanged():
    a, index = h3_power_case()
    est = R.op_norm_power_iteration(a, 6, iters=12, seed=3, index=index)
    assert est.steps == [
        3.6810513254401136, 7.359171527007313, 9.253311627283736,
        10.453480766104951, 11.316979805402038, 11.834318591086808,
        12.09519537005534, 12.215502555991938, 12.269496407730127,
        12.293852568291804, 12.305059124226513, 12.310353188817505]


# -- the radial kernel ----------------------------------------------------------


def list_apply_sphere_one(rank, d):
    """Coefficients of chi(S_1) * (sum d_n chi(S_n))."""
    q = 2 * rank - 1
    out = [0] * (len(d) + 1)
    if len(d) > 1:
        out[0] = 2 * rank * d[1]
    out[1] += d[0]
    for n in range(2, len(d)):
        out[n - 1] += q * d[n]
    for n in range(1, len(d)):
        out[n + 1] += d[n]
    return out


def list_radial_convolve(x, y):
    """The list recursion ``radial_convolve`` ran before its array kernel."""
    rank = norms.radial_rank(x.spec)
    q = 2 * rank - 1
    cx = x.coeffs
    # y_m = chi(S_m) * y, built by the three-term recursion in m
    y_prev = list(y.coeffs)            # m = 0
    out = [cx[0] * v for v in y_prev]

    def add(acc, vec, c):
        if len(vec) > len(acc):
            acc.extend([0] * (len(vec) - len(acc)))
        for i, v in enumerate(vec):
            acc[i] += c * v

    if len(cx) > 1:
        y_cur = list_apply_sphere_one(rank, y_prev)   # m = 1
        add(out, y_cur, cx[1])
        for m in range(2, len(cx)):
            bump = 2 * rank if m == 2 else q
            y_next = list_apply_sphere_one(rank, y_cur)
            for i, v in enumerate(y_prev):
                y_next[i] -= bump * v
            y_prev, y_cur = y_cur, y_next
            add(out, y_cur, cx[m])
    return R.RadialElement(spec=x.spec, coeffs=out,
                           sizes=x.spec.closed_sphere_sizes(len(out) - 1)).trimmed()


def radial_bits(x):
    return [(type(c), repr(c)) for c in x.coeffs], x.sizes


# signed zeros, subnormals, and +-1e300, whose products overflow to inf and
# whose sums of infinities give nan
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -3.0, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1e300, -1e300]),
    st.floats(-4.0, 4.0, allow_nan=False))
# past 2^53, where a float would round
INTS = st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70))
RADIAL_COEFFS = {"float": FLOATS, "int": INTS, "mixed": st.one_of(FLOATS, INTS)}


@st.composite
def radial_pairs(draw):
    rank = draw(st.integers(1, 4))
    coeffs = RADIAL_COEFFS[draw(st.sampled_from(sorted(RADIAL_COEFFS)))]
    x, y = (draw(st.lists(coeffs, min_size=1, max_size=64)) for _ in "xy")
    return R.free_radial(rank, x), R.free_radial(rank, y)


@settings(max_examples=300)
@given(radial_pairs())
def test_radial_kernel_matches_the_list_recursion(pair):
    x, y = pair
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = R.radial_convolve(x, y)
    assert radial_bits(got) == radial_bits(list_radial_convolve(x, y))


@pytest.mark.parametrize("coeff", [1.0, 1])
def test_radial_kernel_overflows_silently_as_the_loop_does(coeff):
    # past the float range the recursion meets inf - inf; the kernel keeps
    # the loop's nan coefficients, and raises no warning on the way
    x = R.free_radial(2, [coeff] * 701)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = R.radial_convolve(x, x)
    assert radial_bits(got) == radial_bits(list_radial_convolve(x, x))
    nans = sum(1 for c in got.coeffs if isinstance(c, float) and math.isnan(c))
    assert nans == (109 if type(coeff) is float else 0)


def test_radial_kernel_keeps_integers_exact():
    x = R.free_radial(3, [2 ** 60 + 1, -1, 0, 7])
    got = R.radial_convolve(x, x)
    assert all(type(c) is int for c in got.coeffs)
    assert got.coeffs[0] == (2 ** 60 + 1) ** 2 + 6 + 49 * 6 * 25


def pair_slack(spec, n, k, index=None):
    """The ball product check at one pair, as one product per pair: the min
    of chi(B_n) * chi(B_{n+k}) - |B_n| over B_k, by ``radial_convolve`` on a
    free group on its standard generators, else by ``convolve`` of the two
    dense balls and ``pointwise_geq``."""
    size = R.ball_sizes(spec, n, index)[n]
    if norms.radial_rank(spec) is not None:
        lhs = R.radial_convolve(R.free_radial(spec.rank, [1] * (n + 1)),
                                R.free_radial(spec.rank, [1] * (n + k + 1)))
        return min(lhs.coeffs[: k + 1]) - size
    lhs = R.convolve(R.char_ball(index, n), R.char_ball(index, n + k))
    rhs = R.AlgebraElement(spec=spec, coeffs={g: float(size)
                                              for g in index.ball(k)},
                           support_radius=k)
    return R.pointwise_geq(lhs, rhs, region=k, index=index)[1]


def assert_sweep_matches_each_pair(spec, max_sum, index=None):
    for total in range(2, max_sum + 1):
        got = dict(rd._ball_product_slacks(spec, total, total - 1, index))
        assert list(got) == list(range(1, total))
        for n, slack in got.items():
            want = pair_slack(spec, n, total - n, index)
            assert slack == want == 0 and type(slack) is type(want)
    for n in range(1, max_sum):
        assert R.verify_ball_product_bound(spec, n, max_sum - n, index) == \
            (True, 0.0)
    assert R.ball_product_sweep(spec, max_sum, index) == (True, 0.0, (1, 1))


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_shared_sweep_matches_each_pair(rank):
    # Python ints from the sphere recursion, exact past 2^53
    assert_sweep_matches_each_pair(R.FreeGroup(rank), 24)
    assert all(type(slack) is int for _, slack in
               rd._ball_product_slacks(R.FreeGroup(rank), 24, 23))


@pytest.mark.parametrize("spec,max_sum", [
    (R.FreeAbelian(1), 8), (R.FreeAbelian(2), 8), (H3, 7),
    (R.FiniteCyclic(12), 8), (R.parse_descriptor("Z^1xC5"), 7),
    (R.parse_descriptor("Z^1xF2"), 5),
    (R.FreeGroup(2, generators=["a", "A", "ab", "BA"]), 6)],
    ids=lambda x: x.descriptor() if isinstance(x, R.GroupSpec) else str(x))
def test_shared_sweep_matches_the_dense_pairs(spec, max_sum):
    assert_sweep_matches_each_pair(spec, max_sum,
                                   R.enumerate_balls(spec, max_sum))


def test_sweep_reports_the_first_worst_pair(monkeypatch):
    def slacks(spec, total, top, index, budget):
        for n in range(1, top + 1):
            yield n, -1 if (n, total - n) in {(2, 3), (3, 1), (2, 4)} else 0
    monkeypatch.setattr(rd, "_ball_product_slacks", slacks)
    assert R.ball_product_sweep(R.FreeGroup(2), 6) == (False, -1.0, (2, 3))


@pytest.mark.parametrize("argv,budget", [
    ("verify lemma1 --group Z^2 --n 2 --k 3", 113),     # |B_7| of Z^2
    ("verify lemma1 --group H3 --n 2 --k 2", 593),      # |B_6| of H3
    ("verify lemma1 --group H3 --radius 4", 1069),      # |B_7| of H3
])
def test_ball_product_budget_bounds_the_product_support(argv, budget):
    # chi(B_n) * chi(B_{n+k}) fills B_{2n+k}; the budget bounds that support
    run = argv.split() + ["--budget"]
    assert run_command(run + [str(budget - 1)]) == 3
    assert run_command(run + [str(budget)]) == 0


def test_integer_trace_ladder_ends_at_its_last_finite_step():
    # tau(b^200) of an integer ball leaves the float range as a Python int
    exact = R.op_norm_trace_power(R.free_radial(2, [1, 1, 1, 1]), exponent=400)
    rounded = R.op_norm_trace_power(R.radial_ball(2, 3), exponent=400)
    assert len(exact.steps) == len(rounded.steps) == 7
    assert exact.steps == pytest.approx(rounded.steps, rel=1e-15)
    assert exact.upper == rounded.upper == 53.0
    # tau(b) itself past the float range: no step, as for the float ball
    for ball in (R.free_radial(2, [1] * 701), R.radial_ball(2, 700)):
        with pytest.raises(BudgetExceededError):
            R.op_norm_trace_power(ball, depth=1)


def test_integer_products_past_the_float_range_are_infinite():
    x = R.free_radial(2, [0] * 700 + [1])
    assert norms.radial_inner(x, x) == math.inf
    assert norms.radial_inner(x, R.free_radial(2, [0] * 700 + [-1])) == -math.inf
