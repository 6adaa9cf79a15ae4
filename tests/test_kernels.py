"""The numpy convolution kernels against the plain Python loops they replace.

On Z^d and H3 ``convolve`` runs in numpy blocks; everywhere else, and when an
input falls outside the kernel's limits, it runs the dict loop.  Both must give
the same floats, bit for bit, in increasing element order, and raise on the
same budgets.
Its keys, summed from per-element keys and the group's bilinear terms, must
be the cell keys of the products that ``multiply`` gives.
On free groups ``radial_convolve`` runs the sphere recursion on arrays; it must
give the list recursion's numbers, bit for bit and of the same Python types.
The ball product counts of ``ball_pair_counts`` must be the coefficients of
the convolution of two balls, gathered on int64 rows or from length dicts.
The ball cache records of Z^d and H3 come from per-column word tables; they
must be the text the ``%`` template wrote.  The O(K^2) sums of ``verify
lemma2`` run on numpy row blocks; they must be the floats its loops added.
"""

import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rdlab as R
from rdlab import algebra, cache, groups, norms, rd
from rdlab.cli import run_command
from rdlab.errors import BudgetExceededError, IndexRadiusError
from rdlab.groups import COORD_LIMIT, cell_keys

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
    if spec is H3:      # the length of its generator word, at least |g|
        a, b, c = g
        return abs(a) + abs(b) + 4 * abs(c - a * b)
    return spec.word_length(g)


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


def assert_in_element_order(*products):
    for x in products:
        support = list(x.coeffs)
        assert support == sorted(support)


def touched(a, b):
    """Elements the generic loop touches, sums that cancel to 0.0 included."""
    return len(algebra._convolve_dicts(a.spec.multiply, a.coeffs, b.coeffs,
                                       False, None))


# beside those, products that underflow to +0.0 or -0.0 inside a sum
EXTREME_COEFFS = st.one_of(HUGE_COEFFS, st.sampled_from([1e-200, -1e-200]))


def assert_dict_twins(product, twin):
    """``product``, held in the kernel's arrays, has the length, ``repr``,
    JSON and equality of ``twin``, the same product held as a dict."""
    assert isinstance(product.coeffs, algebra.ArrayCoeffs)
    assert type(twin.coeffs) is dict
    assert len(product) == len(product.coeffs) == len(twin)
    assert repr(product) == repr(twin)
    assert (json.dumps(product.to_json_dict())
            == json.dumps(twin.to_json_dict()))
    # nan equals nothing, so elements holding it are unequal, twins or not
    if not any(math.isnan(c) for c in twin.coeffs.values()):
        assert product == twin and twin == product
        assert product.coeffs == twin.coeffs and twin.coeffs == product.coeffs


# products whose operands are earlier products: the kernel's own arrays,
# their adjoints, and operands beside them
CHAINS = [lambda p, a, b: (p, a), lambda p, a, b: (b, p),
          lambda p, a, b: (R.adjoint(p), p)]


@given(operand_pairs(coeffs=EXTREME_COEFFS), BLOCKS)
@example((element(SPECS[1], {(0, 0): 1e200, (1, 0): 1.0}),
          element(SPECS[1], {(0, 0): 1e200, (1, 0): 1.0})), 3)
@example((element(SPECS[0], {(0,): 1e200, (1,): -1e200}),
          element(SPECS[0], {(0,): 1e200, (1,): 1e200})), 3)
# -1e-200 * 1e-200 is -0.0, and 1e-200 - 1e-200 cancels to 0.0
@example((element(SPECS[0], {(0,): 1e-200, (1,): 1.0}),
          element(SPECS[0], {(0,): -1e-200, (1,): 1.0})), 3)
# every product underflows to 0.0 or -0.0: the product is empty, and so
# are its own products
@example((element(SPECS[0], {(0,): 1e-200, (1,): -1e-200}),
          element(SPECS[0], {(0,): 1e-200})), 3)
def test_numpy_kernel_matches_dict_loop(pair, block):
    # silently, as the dict loop is: the suite turns warnings into errors
    a, b = pair
    product, twin = numpy_kernel(a, b, block=block), dict_loop(a, b)
    assert bits(product) == bits(twin)
    assert_in_element_order(product, twin)
    assert bits(R.adjoint(product)) == bits(R.adjoint(twin))
    for chain in CHAINS:
        want = dict_loop(*chain(twin, a, b))
        if len(product):       # the kernel takes no empty operand
            got = numpy_kernel(*chain(product, a, b), block=block)
            assert bits(got) == bits(want)
            assert_in_element_order(got)
            assert_reads_match(got, want, product, twin)
        # within the kernel's box limit, or on the dict loop, which reads
        # the arrays' dict
        either = R.convolve(*chain(product, a, b))
        assert bits(either) == bits(want)
        assert_in_element_order(either, want)
    assert_dict_twins(product, twin)


def float_bits_of(value):
    return type(value), float(value).hex()


def assert_reads_match(x, x_twin, y, y_twin):
    """The inner products, traces and norms of the trace ladder and the
    lemma2 minimum, read from arrays, have the bits their dict twins give."""
    index = R.enumerate_balls(x.spec, 2)
    rhs = [0.5, -1.0, 0.25]
    for read in (lambda p, q: norms._DenseOps.inner(p, q),
                 lambda p, q: norms._DenseOps.inner(q, p),
                 lambda p, q: norms._DenseOps.trace(p),
                 lambda p, q: R.norm(p, "l1"), lambda p, q: R.norm(p, "l2"),
                 lambda p, q: algebra.least_slack_on_spheres(p, index, rhs)):
        assert float_bits_of(read(x, y)) == float_bits_of(read(x_twin, y_twin))


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


# commands whose products stay in the kernel's arrays, and the products
# each forms through norms.convolve and rd.convolve, as many as ever
ARRAY_COMMANDS = [
    ("ratio --group H3 --witness sphere --range 1:4 --method trace --depth 2",
     8),
    ("verify lemma2 --group H3 --r 1 --k 7", 1),
    ("norm --group H3 --witness ball --n 3 --method power --R 10 --seed 1", 0),
]


@pytest.mark.parametrize("argv, products", ARRAY_COMMANDS)
def test_products_build_no_dict(argv, products, capsys):
    # ArrayCoeffs builds its dict only inside the dict loop, which reads
    # the small witnesses whose products' box is too sparse for the kernel,
    # and never for a product the kernel formed; so adjoints, inner
    # products, traces, norms, the power matrix and the lemma2 minimum all
    # read arrays
    formed, looping, calls = [], [], []
    kernel, loop = algebra._convolve_arrays, algebra._convolve_dicts
    decoded, convolve = algebra.ArrayCoeffs.decoded, R.convolve

    def kernel_products(*args):
        formed.append(kernel(*args))
        return formed[-1]

    def dict_loop_reading(*args):
        looping.append(None)
        try:
            return loop(*args)
        finally:
            looping.pop()

    def refuse(coeffs):
        assert looping, "an element built its dict outside the dict loop"
        assert not any(coeffs is p for p in formed), "a product built its dict"
        return decoded(coeffs)

    def counting(a, b, budget=R.DEFAULT_BUDGET):
        calls.append(None)
        return convolve(a, b, budget=budget)

    with mock.patch.object(algebra, "_convolve_arrays", kernel_products), \
            mock.patch.object(algebra, "_convolve_dicts", dict_loop_reading), \
            mock.patch.object(algebra.ArrayCoeffs, "decoded", refuse), \
            mock.patch.object(norms, "convolve", counting), \
            mock.patch.object(rd, "convolve", counting):
        assert run_command(argv.split()) == 0
    capsys.readouterr()
    assert len(calls) == products
    assert any(p is not None for p in formed) == (products > 0)


@pytest.mark.parametrize("spec, coeffs", [
    (SPECS[1], [0.5, 0.0, -2.0, 1e200]), (H3, [1.0, 1.0, 3.0]),
    (SPECS[0], [0.0, 0.25])])
def test_sphere_functions_expand_from_rows(spec, coeffs):
    # the rows of the ball, sphere by sphere, zero coefficients left out:
    # the dict that the spheres' tuples give, in its order
    x = norms.RadialElement(spec=spec, coeffs=coeffs)
    dense = R.radial_to_algebra(x)
    index = R.enumerate_balls(spec, len(coeffs) - 1)
    twin = R.AlgebraElement(spec=spec, support_radius=len(coeffs) - 1, coeffs={
        g: c for j, c in enumerate(coeffs) if c for g in index.sphere(j)})
    assert isinstance(dense.coeffs, algebra.ArrayCoeffs)
    assert bits(dense) == bits(twin)
    assert_dict_twins(dense, twin)


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


KEY_SPECS = [R.FreeAbelian(d) for d in range(1, 5)] + [H3]
FAR = 2 ** 20
CENTRES = st.one_of(st.integers(-FAR, FAR), st.integers(-8, 8))


@st.composite
def far_operands(draw):
    """A group of KEY_SPECS and two lists of distinct elements, each list
    within 3 of a centre whose coordinates reach 2^20 in absolute value.
    Where a group's law multiplies g_i by h_j, a far coordinate i or j of
    one centre holds the other list's coordinate j or i fixed, so that the
    products' box stays small while g_i h_j is large."""
    spec = draw(st.sampled_from(KEY_SPECS))
    d = len(spec.identity())
    centres = [draw(st.tuples(*[CENTRES] * d)) for _ in range(2)]
    spreads = [[draw(st.integers(0, 3)) for _ in range(d)] for _ in range(2)]
    for i, j, _ in spec.bilinear_terms:
        for x, y in ((0, 1), (1, 0)):   # either list can be the left factor
            if abs(centres[x][i]) > 8:
                spreads[y][j] = 0
            if abs(centres[y][j]) > 8:
                spreads[x][i] = 0
    lists = []
    for centre, spread in zip(centres, spreads):
        offsets = draw(st.lists(st.tuples(*[st.integers(0, s) for s in spread]),
                                min_size=1, max_size=12, unique=True))
        lists.append([tuple(c + o for c, o in zip(centre, offset))
                      for offset in offsets])
    return spec, *lists


@given(far_operands(), st.booleans(), BLOCKS)
@example((H3, [(FAR, 5, FAR), (FAR, 5, FAR - 3)],
          [(-7, FAR, -FAR), (-7, FAR, 3 - FAR)]), True, 3)
@example((H3, [(FAR, 5, FAR), (FAR, 5, FAR - 3)],
          [(-7, FAR, -FAR), (-7, FAR, 3 - FAR)]), False, 3)
def test_keys_are_the_cell_keys_of_products(operands, flip, block):
    spec, outer, inner = operands
    with mock.patch.object(algebra, "BOX_CELLS_PER_PRODUCT", 2 ** 40), \
            mock.patch.object(algebra, "PAIR_BLOCK", block):
        keys = algebra.product_keys(spec, outer, inner, flip)
        got = np.concatenate([k for _, _, k in keys.blocks()])
    products = [spec.multiply(h, g) if flip else spec.multiply(g, h)
                for g in outer for h in inner]
    cols = tuple(np.array(products, dtype=np.int64).T)
    assert np.array_equal(got, cell_keys(cols, keys.lo, keys.spans))
    assert list(zip(*keys.columns(got).tolist())) == products


@given(st.sampled_from(KEY_SPECS).flatmap(lambda spec: st.tuples(
    st.just(spec),
    *[st.tuples(*[st.integers(-2 ** 30, 2 ** 30)] * len(spec.identity()))] * 2)))
def test_bilinear_terms_give_the_law(case):
    spec, g, h = case
    want = [x + y for x, y in zip(g, h)]
    for i, j, k in spec.bilinear_terms:
        want[k] += g[i] * h[j]
    assert spec.multiply(g, h) == tuple(want)
    cols = spec.multiply(*(tuple(np.array([x]) for x in e) for e in (g, h)))
    assert [int(col[0]) for col in cols] == want


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
    # C3xC4 has flat integer-tuple elements, but no array law
    c3xc4_index = R.enumerate_balls(R.parse_descriptor("C3xC4"), 2)
    for index in (f2_index, c12_index, c3xc4_index):
        ball = R.char_ball(index, 2)
        assert keys_for(ball, ball) is None


def test_integer_coefficients_keep_the_dict_loop():
    # the dict loop rounds the exact integer product once; float64 operands
    # would round 2^53 + 1 first and lose the 2^54 term
    a = element(SPECS[0], {(0,): 2 ** 53 + 1})
    assert R.convolve(a, a).coeffs == {(0,): float(2 ** 106 + 2 ** 54)}


@pytest.mark.parametrize("spec, max_sum", [(H3, 8), (SPECS[1], 14)])
def test_ball_product_sweep_slack_is_exactly_zero(spec, max_sum):
    ok, slack, _ = R.ball_product_sweep(spec, max_sum)
    assert ok and slack == 0


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
    # row j lists the products s * g_j, numbered in increasing element
    # order, with the coefficient of s, by increasing number
    products = sorted({H3.multiply(s, g) for g in cols for s in a.coeffs})
    number = {h: i for i, h in enumerate(products)}
    rows = [sorted((number[H3.multiply(s, g)], c) for s, c in a.coeffs.items())
            for g in cols]
    assert fast.shape == (len(cols), len(products))
    assert fast.indices.tolist() == [i for row in rows for i, _ in row]
    assert fast.data.tolist() == [c for row in rows for _, c in row]


def test_power_iteration_steps_are_unchanged():
    # the bits of numpy's pairwise sums of squares, with the matrix's rows
    # in increasing element order; the BLAS dot products used before gave
    # steps within 2 ulp of these (3.6810513254401136 first), and so did rows
    # in order of first appearance
    a, index = h3_power_case()
    est = R.op_norm_power_iteration(a, 6, iters=12, seed=3)
    assert est.steps == [
        3.681051325440114, 7.359171527007314, 9.253311627283736,
        10.453480766104953, 11.316979805402037, 11.834318591086806,
        12.095195370055336, 12.215502555991941, 12.269496407730127,
        12.293852568291804, 12.305059124226512, 12.310353188817505]


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
    return R.RadialElement(spec=x.spec, coeffs=out).trimmed()


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


def running_sum(x, out):
    return R.RadialElement(spec=x.spec, coeffs=out.tolist()).trimmed()


@settings(max_examples=200)
@given(radial_pairs())
@example((R.free_radial(2, [-0.0, math.inf, 1.0, math.nan, -0.0]),
          R.free_radial(2, [-0.0, 1.0, -math.inf, 0.0])))
@example((R.free_radial(2, [1e300, -0.0, 1e300]), R.free_radial(2, [1e300, 1.0])))
@example((R.free_radial(3, [2 ** 60 + 1, -(2 ** 70), 3]),
          R.free_radial(3, [2 ** 55, 1, -1, 2 ** 64])))
# x of one and of two coefficients: no step, and one with no subtraction,
# where (-0 + 0) + -0 is +0 but -0 + -0 is -0
@example((R.free_radial(2, [-0.0]), R.free_radial(2, [1.0, -0.0, 3.0])))
@example((R.free_radial(1, [1.0, 2.0]),
          R.free_radial(1, [-0.0, -0.0, -0.0, 1.0])))
# y of one coefficient; three in x reach the subtraction of 2r y at m = 2
@example((R.free_radial(3, [1.0, -2.0, -0.0]), R.free_radial(3, [-0.0])))
@example((R.free_radial(2, [0.5, 1.0, -3.0]), R.free_radial(2, [1.0, -0.0])))
# inf or nan in x: the running sum is added across each product's length
@example((R.free_radial(2, [1.0, -3.0, math.nan, -0.0]),
          R.free_radial(2, [-0.0, 0.5, 1.0])))
# finite x, inf and nan in y: the running sum is added across the rows
@example((R.free_radial(2, [1.0, -3.0, -0.0, 0.5, 2.0]),
          R.free_radial(2, [math.inf, -0.0, math.nan, 1.0])))
# ints and floats in one object array
@example((R.free_radial(2, [1, -0.0, 2.5, 3, -2]),
          R.free_radial(2, [-0.0, 2, 0.5, 2 ** 60])))
def test_every_running_sum_matches_the_list_recursion(pair):
    # the m-th sum is the product with x cut to its first m+1 coefficients
    x, y = pair
    with np.errstate(over="ignore", invalid="ignore"):
        sums = [running_sum(x, out)
                for out in norms.radial_partial_products(x, y)]
    assert len(sums) == len(x.coeffs)
    for m, got in enumerate(sums):
        cut = R.free_radial(x.spec.rank, x.coeffs[: m + 1])
        assert radial_bits(got) == radial_bits(list_radial_convolve(cut, y))


@pytest.mark.parametrize("coeff", [1.0, 1])
def test_the_recursion_allocates_its_rows_once(coeff):
    # as many arrays for 200 steps as for 10
    def allocations(n):
        x = R.free_radial(2, [coeff] * n)
        with mock.patch.object(norms.np, "zeros", wraps=np.zeros) as zeros, \
                mock.patch.object(norms.np, "empty", wraps=np.empty) as empty:
            for _ in norms.radial_partial_products(x, x):
                pass
        return zeros.call_count + empty.call_count

    assert allocations(10) == allocations(200)


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
    free group, else by ``convolve`` of the two dense balls, read on B_k."""
    size = R.ball_sizes(spec, n)[n]
    if norms.radial_rank(spec) is not None:
        lhs = R.radial_convolve(R.free_radial(spec.rank, [1] * (n + 1)),
                                R.free_radial(spec.rank, [1] * (n + k + 1)))
        return min(lhs.coeffs[: k + 1]) - size
    lhs = R.convolve(R.char_ball(index, n), R.char_ball(index, n + k))
    return min(lhs.value(g) for g in index.ball(k)) - size


def assert_sweep_matches_each_pair(spec, max_sum, index=None):
    want = {(n, total - n): pair_slack(spec, n, total - n, index)
            for total in range(2, max_sum + 1) for n in range(1, total)}
    for top in range(1, max_sum):
        got = list(rd._ball_product_slacks(spec, max_sum, top))
        assert [(n, k) for n, k, _ in got] == [
            (n, total - n) for total in range(max_sum, 1, -1)
            for n in range(1, min(top, total - 1) + 1)]
        for n, k, slack in got:
            assert slack == want[n, k] == 0
            assert type(slack) is type(want[n, k])
    for n in range(1, max_sum):
        assert R.verify_ball_product_bound(spec, n, max_sum - n) == \
            (True, 0.0)
    assert R.ball_product_sweep(spec, max_sum) == (True, 0.0, (1, 1))


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_shared_sweep_matches_each_pair(rank):
    # Python ints from the sphere recursion, exact past 2^53
    assert_sweep_matches_each_pair(R.FreeGroup(rank), 24)
    assert all(type(slack) is int for *_, slack in
               rd._ball_product_slacks(R.FreeGroup(rank), 24, 23))


@pytest.mark.parametrize("spec,max_sum", [
    (R.FreeAbelian(1), 8), (R.FreeAbelian(2), 8), (H3, 7),
    (R.FiniteCyclic(12), 8), (R.parse_descriptor("Z^1xC5"), 7),
    (R.parse_descriptor("Z^1xF2"), 5)],
    ids=lambda x: x.descriptor() if isinstance(x, R.GroupSpec) else str(x))
def test_shared_sweep_matches_the_dense_pairs(spec, max_sum):
    assert_sweep_matches_each_pair(spec, max_sum,
                                   R.enumerate_balls(spec, max_sum))


def test_sweep_reports_the_first_worst_pair(monkeypatch):
    def slacks(spec, max_sum, top, budget):
        for total in range(max_sum, 1, -1):
            for n in range(1, min(top, total - 1) + 1):
                k = total - n
                yield n, k, -1 if (n, k) in {(2, 3), (3, 1), (2, 4)} else 0
    monkeypatch.setattr(rd, "_ball_product_slacks", slacks)
    assert R.ball_product_sweep(R.FreeGroup(2), 6) == (False, -1.0, (2, 3))


def test_a_sweep_builds_one_table_of_counts():
    with mock.patch.object(algebra, "ball_pair_counts",
                           wraps=algebra.ball_pair_counts) as counts:
        assert R.ball_product_sweep(H3, 6) == (True, 0.0, (1, 1))
    counts.assert_called_once()


def test_a_free_pair_runs_one_sphere_recursion():
    with mock.patch.object(rd, "radial_partial_products",
                           wraps=norms.radial_partial_products) as products:
        assert R.verify_ball_product_bound(R.FreeGroup(2), 100, 100) == \
            (True, 0.0)
    products.assert_called_once()


@pytest.mark.parametrize("argv,budget", [
    # max over r < M = n+k of |S_r| (min(n, M-r) + 1) (M+1)
    ("verify lemma1 --group Z^2 --n 2 --k 3", 216),     # |S_3| 3 6
    ("verify lemma1 --group H3 --n 2 --k 2", 360),      # |S_3| 2 5
    ("verify lemma1 --group H3 --radius 4", 360),       # |S_3| 2 5 at n = 3
])
def test_ball_product_budget_bounds_the_product_support(argv, budget):
    # the budget bounds the entries of each table of counts c[g, n, T] that
    # lemma1 builds, one per sphere S_r of g: rows n' <= min(n, M-r), T <= M
    run = argv.split() + ["--budget"]
    assert run_command(run + [str(budget - 1)]) == 3
    assert run_command(run + [str(budget)]) == 0


# the first four are searched on int64 rows
COUNT_CASES = [
    (R.FreeAbelian(1), 6), (R.FreeAbelian(2), 5), (H3, 4), (R.FreeAbelian(3), 4),
    (R.FreeGroup(2), 4), (R.FiniteCyclic(12), 8),
    (R.parse_descriptor("Z^1xC5"), 4), (R.parse_descriptor("Z^1xF2"), 3),
    (R.parse_descriptor("Z^1xH3"), 3)]
COUNT_IDS = [spec.descriptor() for spec, _ in COUNT_CASES]


def dict_index(index):
    """``index`` rebuilt from its elements, without int64 rows."""
    return R.LengthIndex(index.spec, index.radius, index.sphere_sizes,
                         lambda: index.ball(index.radius))


def counts_of(index, M, top=None, budget=R.DEFAULT_BUDGET):
    return [(r, c.tolist()) for r, c in
            algebra.ball_pair_counts(index, M, top, budget)]


@pytest.mark.parametrize("spec,M", COUNT_CASES, ids=COUNT_IDS)
def test_pair_counts_are_ball_product_coefficients(spec, M):
    index = R.enumerate_balls(spec, M)
    ball = [R.char_ball(index, n) for n in range(M + 1)]
    products = {(n, T): R.convolve(ball[n], ball[T])
                for n in range(M) for T in range(M + 1)}
    for r, c in algebra.ball_pair_counts(index, M):
        assert c.shape == (index.sphere_sizes[r], M - r + 1 if r else M, M + 1)
        for g, counts in zip(index.sphere(r), c.tolist()):
            assert counts == [[products[n, T].value(g) for T in range(M + 1)]
                              for n in range(len(counts))]
    # a top below M - 1 cuts the n range and keeps the counts
    top = counts_of(index, M, top=1)
    assert top == [(r, [g[: 2] for g in c]) for r, c in counts_of(index, M)]


@pytest.mark.parametrize("spec,M", COUNT_CASES, ids=COUNT_IDS)
def test_minima_of_one_table_match_each_total(spec, M):
    # the least count on B_{T-n}, from the tables of radius T itself
    index = R.enumerate_balls(spec, M)
    want = {}
    for T in range(1, M + 1):
        for r, c in algebra.ball_pair_counts(index, T, T):
            for n in range(1, T - r + 1 if len(c) else 1):
                want[n, T] = min(want.get((n, T), math.inf),
                                 c[:, n, T].min().item())
    for top in range(M + 1):
        least = algebra.ball_product_minima(index, M, top)
        assert least[0] == [1] * (M + 1)
        assert least[1:] == [[want.get((n, T), math.inf) for T in range(M + 1)]
                             for n in range(1, top + 1)]
        assert all(type(v) is int for n, row in enumerate(least)
                   for v in row[n:])


@pytest.mark.parametrize("spec,M", COUNT_CASES[:4], ids=COUNT_IDS[:4])
def test_row_and_dict_gathers_count_alike(spec, M):
    index = R.enumerate_balls(spec, M)
    assert index.rows is not None
    with mock.patch.object(algebra, "_DictLengths",
                           side_effect=AssertionError("dict gather")):
        rows = counts_of(index, M)
    with mock.patch.object(algebra, "_RowLengths",
                           side_effect=AssertionError("row gather")):
        assert counts_of(dict_index(index), M) == rows


def test_a_sparse_ball_takes_the_dict_gather():
    # B_4 of Z^10 spans 9^10 cells of its bounding box for 8,361 elements;
    # B_4 of Z^2 fills about half of its 81
    sparse = R.enumerate_balls(R.FreeAbelian(10), 4)
    assert sparse.rows is not None
    with mock.patch.object(algebra, "_RowLengths",
                           side_effect=AssertionError("row gather")):
        assert counts_of(sparse, 4) == counts_of(dict_index(sparse), 4)
    dense = R.enumerate_balls(R.FreeAbelian(2), 4)
    want = counts_of(dict_index(dense), 4)
    with mock.patch.object(algebra, "_DictLengths",
                           side_effect=AssertionError("dict gather")):
        assert counts_of(dense, 4) == want


@pytest.mark.parametrize("rows", [True, False], ids=["rows", "dicts"])
def test_index_that_does_not_fit_its_group_raises(rows, monkeypatch):
    # B_2 of Z without -2: 1^-1 * -1 = -2 has length 2 but is not found
    if rows:
        index = R.LengthIndex(R.FreeAbelian(1), 2, [1, 2, 1],
                              lambda: [(0,), (-1,), (1,), (2,)],
                              rows=np.array([[0], [-1], [1], [2]]))
    else:
        index = R.LengthIndex(R.FreeAbelian(1), 2, [1, 2, 1],
                              lambda: [(0,), (-1,), (1,), (2,)])
    with pytest.raises(IndexRadiusError,
                       match=r"'1'\^-1 \* '-1' = '-2' is not in B_2"):
        list(algebra.ball_pair_counts(index, 2))
    monkeypatch.setattr(groups, "enumerate_balls", lambda *args: index)
    with pytest.raises(IndexRadiusError):
        R.ball_product_sweep(R.FreeAbelian(1), 2)


def test_dict_gather_reads_lengths_past_M_as_outside():
    # -2 listed at length 3 in an index of radius 3: outside B_2
    index = R.LengthIndex(R.FreeAbelian(1), 3, [1, 2, 1, 1],
                          lambda: [(0,), (-1,), (1,), (2,), (-2,)])
    with pytest.raises(IndexRadiusError, match="is not in B_2"):
        list(algebra.ball_pair_counts(index, 2))


def test_pair_counts_need_an_index_of_radius_M():
    with pytest.raises(IndexRadiusError):
        list(algebra.ball_pair_counts(R.enumerate_balls(H3, 3), 4))
    with pytest.raises(IndexRadiusError):
        list(algebra.ball_pair_counts(None, 4))


def test_pair_count_budget_is_checked_before_the_gather_is_built():
    # Z^2, M = 5, top = 2: the table of S_3 has 12 * 3 * 6 entries
    index = R.enumerate_balls(R.FreeAbelian(2), 5)
    assert len(counts_of(index, 5, 2, budget=216)) == 5
    with mock.patch.object(algebra, "_RowLengths") as rows, \
            pytest.raises(BudgetExceededError, match="216 entries"):
        counts_of(index, 5, 2, budget=215)
    rows.assert_not_called()


def test_a_long_pair_on_z_keeps_to_the_default_budget():
    # its tables hold 15 million entries together, 60,802 at most each
    assert R.verify_ball_product_bound(R.FreeAbelian(1), 100, 200) == \
        (True, 0.0)


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


def percent_records(table):
    """The record lines ``cache._records`` wrote by one ``%`` template, a
    block of RECORD_BLOCK rows at a time, before its word tables."""
    record = ",".join(["%d"] * (table.shape[1] - 1)) + "\t%d\n"
    blocks = np.split(table, range(cache.RECORD_BLOCK, len(table), cache.RECORD_BLOCK))
    return "".join((record * len(block)) % tuple(block.ravel().tolist())
                   for block in blocks)


ENTRY_LIMIT = COORD_LIMIT - 1
# signs, 0, the coordinate limit (entries of 11 and 12 characters, two
# words) and 8-character entries, one byte past a word with the separator
RECORD_VALUES = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([0, -1, 9, -10, ENTRY_LIMIT, -ENTRY_LIMIT, 12345678,
                     -1234567]),
    st.integers(-ENTRY_LIMIT, ENTRY_LIMIT))
# a block size the drawn tables straddle; the kernel's own block is met by
# test_record_blocks_straddle
SMALL_BLOCK = 4


@st.composite
def record_tables(draw):
    """An int64 table of 2-5 columns and 0 to 13 rows; a wide value makes a
    column's span longer than the table."""
    width = draw(st.integers(2, 5))
    count = draw(st.integers(0, 3 * SMALL_BLOCK + 1))
    cells = draw(st.lists(RECORD_VALUES, min_size=count * width,
                          max_size=count * width))
    return np.array(cells, dtype=np.int64).reshape(count, width)


@settings(max_examples=200)
@given(record_tables())
@example(np.zeros((0, 3), dtype=np.int64))
@example(np.array([[ENTRY_LIMIT, -ENTRY_LIMIT, 0]], dtype=np.int64))
def test_record_kernel_matches_the_percent_template(table):
    with mock.patch.object(cache, "RECORD_BLOCK", SMALL_BLOCK):
        assert cache._records(list(table.T)) == percent_records(table)
    # a word table has at most one row more than its column
    for column in table.T if len(table) else ():
        assert len(cache._column_words(column, ",")[0]) <= len(column) + 1


@pytest.mark.parametrize("count", [cache.RECORD_BLOCK - 1, cache.RECORD_BLOCK,
                                   cache.RECORD_BLOCK + 1])
def test_record_blocks_straddle(count):
    # narrow columns take the span table, wide ones the distinct values
    rng = np.random.default_rng(count)
    narrow = rng.integers(-3, 4, size=(count, 2))
    wide = rng.choice(np.array([ENTRY_LIMIT, -ENTRY_LIMIT, 12345678, -1234567, 0]),
                      size=(count, 2))
    table = np.column_stack([narrow[:, 0], wide[:, 0], narrow[:, 1], wide[:, 1]])
    assert cache._records(list(table.T)) == percent_records(table)


def left_sum(terms):
    """``sum`` of floats before Python 3.12, which adds left to right from 0;
    from 3.12 ``sum`` compensates, so the reference spells the loop out."""
    total = 0
    for term in terms:
        total += term
    return total


def loop_series_product_sums(r, alpha, beta, K, ball_size_at_rk):
    """The right side and the tail comparison of ``verify lemma2`` as its
    loops computed them before its numpy row blocks."""
    weights = [left_sum(k ** (-alpha) * (j + k) ** (-beta) for k in range(1, K - j + 1))
               for j in range(1, K)]
    rhs = [0.0] * (r * (K - 1) + 1)
    for j, w in enumerate(weights, start=1):
        c = w / math.sqrt(ball_size_at_rk[j - 1])
        for i in range(r * j + 1):
            rhs[i] += c
    power = alpha + beta
    tails = [(j, left_sum((j + k) ** (-power) for k in range(1, K - j + 1)),
              j ** (-(power - 1.0)) / (power - 1.0))
             for j in range(1, K)]
    return rhs, tails


def float_bits(values):
    return [(type(v), v.hex()) if isinstance(v, float) else v for v in values]


def assert_lemma2_sums_match_the_loops(spec, r, alpha, beta, K):
    with mock.patch.object(rd, "_product_slack", return_value=0.0) as slack:
        report = rd.verify_series_product_bound(spec, r, alpha, beta, K)
    series = rd.build_ball_series(spec, r, alpha, K)
    rhs, tails = loop_series_product_sums(r, alpha, beta, K, series.ball_size_at_rk)
    assert float_bits(slack.call_args.args[2]) == float_bits(rhs)
    assert ([float_bits(row) for row in report.tail_comparison]
            == [float_bits(row) for row in tails])


@pytest.mark.parametrize("spec", [R.FreeAbelian(1), R.FreeGroup(2)], ids=str)
@pytest.mark.parametrize("r, alpha, beta, K", [
    (1, 1.0, 1.0, 600), (2, 1.0, 1.0, 300), (1, 0.7, 0.6, 200),
    (3, 1.3, 0.2, 50), (1, 1.0, 1.0, 2), (2, 1.0, 1.0, 1), (1, 1, 2, 40)])
def test_lemma2_sums_match_the_loops(spec, r, alpha, beta, K):
    assert_lemma2_sums_match_the_loops(spec, r, alpha, beta, K)


@given(st.integers(1, 3), st.floats(0.05, 4.0), st.floats(0.05, 4.0),
       st.integers(1, 60))
def test_lemma2_sums_match_the_loops_on_drawn_exponents(r, alpha, beta, K):
    assume(alpha + beta > 1)
    assert_lemma2_sums_match_the_loops(R.FreeAbelian(2), r, alpha, beta, K)


# 1e16 + 1.0 rounds back to 1e16: added left to right these terms sum to
# 1e16, and to 1e16 + 2 with the compensation builtin sum has from Python 3.12
LOPSIDED = [1e16, 1.0, 1.0]


def test_float_sums_add_left_to_right():
    assert algebra.float_sum(LOPSIDED) == 1e16
    assert algebra.float_sum([1e16, 1.0, -1e16, 1.0]) == 1.0
    z = SPECS[0]
    a = element(z, {(n,): c for n, c in enumerate(LOPSIDED)})
    ones = element(z, {(n,): 1.0 for n in range(3)})
    assert R.norm(a, "l1") == 1e16
    assert norms._DenseOps.inner(a, ones) == 1e16
    x = norms.RadialElement(spec=z, coeffs=[1e16, 0.5, 0.5])
    y = norms.RadialElement(spec=z, coeffs=[1.0, 1.0, 1.0])
    assert norms.coefficient_norm(x, "l1") == 1e16
    assert norms.radial_inner(x, y) == 1e16


def test_array_sums_add_left_to_right():
    # past eight terms numpy's own sum splits them into eight partial sums,
    # which here would keep the ones that 1e16 absorbs one at a time
    z = SPECS[0]
    terms = [1e16] + [1.0] * 16
    assert algebra.float_sum(terms) == 1e16
    delta = element(z, {(0,): 1.0})
    a = numpy_kernel(element(z, {(n,): c for n, c in enumerate(terms)}), delta)
    ones = numpy_kernel(element(z, {(n,): 1.0 for n in range(len(terms))}),
                        delta)
    assert isinstance(a.coeffs, algebra.ArrayCoeffs)
    assert R.norm(a, "l1") == 1e16
    assert norms._DenseOps.inner(a, ones) == 1e16
