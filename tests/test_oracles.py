"""Closed-form norms of nonnegative sphere functions, against every bracket.

A nonnegative sphere function sum_L c_L chi(S_L) on Z^d, C_m, H3, F_r or a
product of them has the exact norm sum_L c_L W_L, where W is the Cauchy
product of one weight series per factor:

* an amenable factor gives its sphere sizes.  For a nonnegative a and an
  amenable normal subgroup N, ||a|| = ||a summed over the cosets of N||
  (Kesten), so the factor enters only through how many of its elements
  have each length;
* F_r, with q = 2r - 1, gives W_m = |S_m| phi(m), with Haagerup's spherical
  function phi(m) = (1 + m (q - 1)/(q + 1)) q^(-m/2).  A nonnegative radial
  element peaks at the edge 2 sqrt(q) of the spectrum of chi(S_1), where
  chi(S_m) takes the value W_m; on several free factors a nonnegative
  combination of products of radial elements peaks at the corner.

The sizes and weights here come from this file's own formulas, or a
breadth-first search, never from the package's growth series, so the
check is not circular.

A dense nonnegative element of an amenable group has the norm ||a||_1
(Kesten's criterion: the trivial representation is weakly contained in the
regular one), whatever its support.

A signed element of C_m has its norm from the Fourier transform: the
largest |sum_j a_j e^(2 pi i j k / m)| over k.  One of Z^d has the largest
|sum_x a_x e^(2 pi i x.t)| over the torus, which a grid brackets: the
largest value G on the grid is at most the norm, and Bernstein's inequality
bounds the norm by G / (1 - pi d n / M) for a support in B_n and M grid
points per axis.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import rdlab as R
from rdlab.rd import make_witness

# no bracket rounds outward yet: an exact value computed in another order
# may sit a few ulps outside [lower, upper]
SLACK = 1 + 1e-12


def free_abelian_spheres(d, N):
    # points of Z^d with |x|_1 = n: choose k nonzero coordinates, their signs,
    # and a composition of n into k positive parts
    return [1] + [sum(2 ** k * math.comb(d, k) * math.comb(n - 1, k - 1)
                      for k in range(1, min(d, n) + 1)) for n in range(1, N + 1)]


def cyclic_spheres(m, N):
    return [1] + [2 if 2 * n < m else 1 if 2 * n == m else 0
                  for n in range(1, N + 1)]


def bfs_spheres(spec, N):
    seen, sphere, sizes = {spec.identity()}, [spec.identity()], [1]
    for _ in range(N):
        sphere = [h for h in {spec.multiply(g, s) for g in sphere
                              for s in spec.generators()} if h not in seen]
        seen.update(sphere)
        sizes.append(len(sphere))
    return sizes


def free_weights(r, N):
    q = 2 * r - 1
    spheres = [1] + [2 * r * q ** (m - 1) for m in range(1, N + 1)]
    return [size * (1 + m * (q - 1) / (q + 1)) * q ** (-m / 2)
            for m, size in enumerate(spheres)]


def weights(spec, N):
    """W_0..W_N of ``spec``."""
    if isinstance(spec, R.DirectProduct):
        out = [1.0] + [0.0] * N
        for factor in spec.factors:
            w = weights(factor, N)
            out = [math.fsum(out[i] * w[L - i] for i in range(L + 1))
                   for L in range(N + 1)]
        return out
    if isinstance(spec, R.FreeGroup):
        return free_weights(spec.rank, N)
    if isinstance(spec, R.FreeAbelian):
        return free_abelian_spheres(spec.rank, N)
    if isinstance(spec, R.FiniteCyclic):
        return cyclic_spheres(spec.order, N)
    return bfs_spheres(spec, N)


def exact_norm(x):
    """sum_L c_L W_L of the nonnegative sphere function ``x``."""
    w = weights(x.spec, len(x.coeffs) - 1)
    return math.fsum(c * wl for c, wl in zip(x.coeffs, w))


SQRT3 = math.sqrt(3)


@pytest.mark.parametrize("descriptor,witness,n,d_hat,want", [
    ("F2", "sphere", 1, None, 2 * SQRT3),
    ("F2", "ball", 3, None, 29.7846096908),
    ("Z^1xF2", "ball", 2, None, 13 + 6 * SQRT3),
    ("Z^1xF2", "ball", 3, None, 31 + 20 * SQRT3),
    ("Z^1xF2", "aN", 4, 1.5, 19.0187456),
    ("H3xF2", "ball", 2, None, 42.3205080757),
    ("F2xF2", "ball", 2, None, 35.9282032303),
])
def test_the_oracle_gives_the_closed_forms(descriptor, witness, n, d_hat, want):
    x = make_witness(R.parse_descriptor(descriptor), witness, n, d_hat)
    assert exact_norm(x) == pytest.approx(want, rel=1e-8)


def test_the_free_weights_are_haagerups_closed_form():
    # W_0 = 1 and W_m = q^(m/2 - 1) (q + 1 + m (q - 1)); F3's sphere ratio
    # W_m / sqrt|S_m| at m = 50 is sqrt((q+1)/q) (1 + m (q-1)/(q+1))
    for r in (1, 2, 3):
        q = 2 * r - 1
        closed = [1.0] + [q ** (m / 2 - 1) * (q + 1 + m * (q - 1))
                          for m in range(1, 30)]
        assert free_weights(r, 29) == pytest.approx(closed, rel=1e-13)
    ratio = free_weights(3, 50)[50] / math.sqrt(6 * 5 ** 49)
    assert ratio == pytest.approx(37.6103, abs=1e-4)


def test_the_amenable_sizes_match_a_search():
    for descriptor, sizes in [("Z^3", free_abelian_spheres(3, 5)),
                              ("C6", cyclic_spheres(6, 5)),
                              ("C7", cyclic_spheres(7, 5))]:
        assert sizes == bfs_spheres(R.parse_descriptor(descriptor), 5)


ATOMS = ["Z^1", "Z^2", "Z^3", "C2", "C5", "C8", "H3", "F1", "F2", "F3"]
# the largest n of a witness on one factor; a product's dense ladders run
# the dict loop, so its witnesses stop at n = 1
ATOM_TOP = 3
PRODUCT_TOP = 1


@functools.cache
def index_of(descriptor, radius):
    return R.enumerate_balls(R.parse_descriptor(descriptor), radius)


@st.composite
def oracle_cases(draw):
    factors = draw(st.lists(st.sampled_from(ATOMS), min_size=1, max_size=2))
    descriptor = "x".join(factors)
    n = draw(st.integers(0, ATOM_TOP if len(factors) == 1 else PRODUCT_TOP))
    witness = draw(st.sampled_from(["ball", "sphere", "aN"]))
    d_hat = (draw(st.floats(0.1, 6.0, allow_subnormal=False))
             if witness == "aN" else None)
    exponent = draw(st.sampled_from([2, 4, 8]))
    return descriptor, witness, n, d_hat, exponent


@given(case=oracle_cases())
# the largest witnesses each kind of group draws, which fixed draws seldom
# reach
@example(case=("F2", "sphere", 3, None, 8))
@example(case=("F3", "ball", 3, None, 8))
@example(case=("H3", "aN", 3, 1.5, 8))
@example(case=("Z^3", "ball", 3, None, 8))
@example(case=("Z^1xF2", "ball", 1, None, 8))
@example(case=("H3xF2", "aN", 1, 0.5, 8))
@example(case=("F2xF2", "sphere", 1, None, 8))
def test_every_bracket_holds_the_exact_norm(case):
    descriptor, witness, n, d_hat, exponent = case
    spec = R.parse_descriptor(descriptor)
    x = make_witness(spec, witness, n, d_hat)
    want = exact_norm(x)
    R_power = max(n, 1)
    brackets = {
        "l1": {},
        "trace": {"exponent": exponent},
        "power": {"R": R_power, "iters": 30},
    }
    if spec.amenable:
        brackets["exact"] = {}
    for method, settings in brackets.items():
        est = R.norm_bracket(x, method=method, **settings)
        assert est.lower <= want * SLACK, method
        assert want <= est.upper * SLACK, method


def cyclic_norm(m, coeffs):
    """max_k |sum_j a_j e^(2 pi i j k / m)|: the characters of C_m diagonalise
    convolution, so the norm of a signed ``coeffs`` {j: a_j} is its largest
    Fourier coefficient in absolute value."""
    def fourier(k):
        turns = [2 * math.pi * (j * k % m) / m for j in coeffs]
        return math.hypot(
            math.fsum(a * math.cos(t) for a, t in zip(coeffs.values(), turns)),
            math.fsum(a * math.sin(t) for a, t in zip(coeffs.values(), turns)))
    return max(fourier(k) for k in range(m))


def test_the_cyclic_oracle_gives_the_closed_forms():
    # chi(S_1) on C_m has the Fourier coefficients 2 cos(2 pi k / m); its
    # norm is 2.  delta_0 - delta_1 on C_3 has |1 - w| = sqrt(3) at k = 1, 2
    assert cyclic_norm(6, {1: 1.0, 5: 1.0}) == pytest.approx(2.0, rel=1e-15)
    assert cyclic_norm(5, {1: 1.0, 4: 1.0}) == pytest.approx(2.0, rel=1e-15)
    assert cyclic_norm(3, {0: 1.0, 1: -1.0}) == pytest.approx(SQRT3, rel=1e-15)
    assert cyclic_norm(2, {0: 1.0, 1: -1.0}) == pytest.approx(2.0, rel=1e-15)


@st.composite
def signed_cyclic_cases(draw):
    m = draw(st.integers(2, 12))
    # the trace ladder stops with an error, by design, on an element whose
    # ||a||_2^2 underflows, so a coefficient below 1e-6 in size becomes 0
    values = draw(st.lists(
        st.floats(-10.0, 10.0).map(lambda v: v if abs(v) >= 1e-6 else 0.0),
        min_size=m, max_size=m))
    exponent = draw(st.sampled_from([2, 4, 6, 8]))
    return m, dict(enumerate(values)), exponent


@given(case=signed_cyclic_cases())
# cancellations that leave one nonzero Fourier coefficient, a symmetric
# element with real coefficients of both signs, and the zero element
@example(case=(2, {0: 1.0, 1: -1.0}, 8))
@example(case=(12, {j: (-1.0) ** j for j in range(12)}, 8))
@example(case=(7, {0: 3.0, 3: -2.5, 4: -2.5}, 6))
@example(case=(4, {0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0}, 2))
def test_every_bracket_holds_the_cyclic_norm_of_a_signed_element(case):
    m, coeffs, exponent = case
    spec = R.FiniteCyclic(m)
    x = R.AlgebraElement(spec, coeffs, max(min(j, m - j) for j in coeffs))
    want = cyclic_norm(m, coeffs)
    brackets = {
        "l1": {},
        "trace": {"exponent": exponent},
        "power": {"R": m // 2, "iters": 30},
    }
    for method, settings in brackets.items():
        est = R.norm_bracket(x, method=method, **settings)
        assert est.lower <= want * SLACK, method
        assert want <= est.upper * SLACK, method


def torus_bracket(d, n, coeffs):
    """[G, G / (1 - pi d n / M)] around the norm of a signed ``coeffs``
    {x: a_x} on Z^d supported in B_n.

    The characters t in the torus [0, 1)^d diagonalise convolution, so the
    norm is the largest |f(t)| = |sum_x a_x e^(2 pi i x.t)|.  G is the
    largest |f| on the grid t in (Z / M)^d, one FFT of the coefficients
    folded mod M.  A largest point t* lies within 1 / (2M) of the grid on
    each axis, and by Bernstein's inequality |df / dt_k| <= 2 pi n sup |f|,
    since f has degree at most n in t_k; so sup |f| - G <= pi d n sup |f| / M.
    M is the least power of two at least 2 pi d n, so the upper end is at
    most 2G.
    """
    M = 1 << max(1, math.ceil(math.log2(2 * math.pi * d * max(n, 1))))
    grid = np.zeros((M,) * d)
    for x, a in coeffs.items():
        grid[tuple(c % M for c in x)] += a
    G = float(np.abs(np.fft.fftn(grid)).max())
    return G, G / (1 - math.pi * d * n / M)


def test_the_torus_oracle_gives_the_closed_forms():
    # delta_0 - delta_1 on Z peaks at t = 1/2, which the grid holds: |1 - -1|;
    # chi(S_1) of Z^2 is 2 cos 2 pi t_1 + 2 cos 2 pi t_2, 4 at t = 0; a point
    # mass has |f| = |a| everywhere
    low, high = torus_bracket(1, 1, {(0,): 1.0, (1,): -1.0})
    assert low == pytest.approx(2.0, rel=1e-15)
    assert high == pytest.approx(2.0 / (1 - math.pi / 8), rel=1e-15)
    low, _ = torus_bracket(2, 1, {(1, 0): 1.0, (-1, 0): 1.0, (0, 1): 1.0,
                                  (0, -1): 1.0})
    assert low == pytest.approx(4.0, rel=1e-15)
    assert torus_bracket(3, 0, {(0, 0, 0): -2.5}) == (2.5, 2.5)


@st.composite
def signed_torus_cases(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(0, ATOM_TOP))
    ball = list(index_of(f"Z^{d}", n).ball(n))
    support = draw(st.lists(st.sampled_from(ball), unique=True, max_size=12))
    # as for C_m: a coefficient below 1e-6 in size becomes 0, so that no
    # ||a||_2^2 underflows
    values = [draw(st.floats(-10.0, 10.0).map(
        lambda v: v if abs(v) >= 1e-6 else 0.0)) for _ in support]
    exponent = draw(st.sampled_from([2, 4, 6, 8]))
    return d, n, dict(zip(support, values)), exponent


@given(case=signed_torus_cases())
# cancellations: chi(S_1) of Z less 2 delta_0 vanishes at t = 0 and peaks
# at 1/2; a signed element of Z^2 whose peak lies off the grid; a point
# mass and the zero element
@example(case=(1, 1, {(-1,): 1.0, (0,): -2.0, (1,): 1.0}, 8))
@example(case=(2, 2, {(0, 0): 1.0, (1, 1): -3.0, (-2, 0): 2.5, (0, -1): 0.5},
               6))
@example(case=(3, 3, {(1, -1, 1): -4.0}, 2))
@example(case=(3, 0, {}, 2))
def test_every_bracket_holds_the_torus_norm_of_a_signed_element(case):
    d, n, coeffs, exponent = case
    spec = R.FreeAbelian(d)
    x = R.AlgebraElement(spec, coeffs,
                         max(map(spec.word_length, coeffs), default=0))
    low, high = torus_bracket(d, n, coeffs)
    brackets = {
        "l1": {},
        "trace": {"exponent": exponent},
        "power": {"R": max(n, 1), "iters": 30},
    }
    for method, settings in brackets.items():
        est = R.norm_bracket(x, method=method, **settings)
        assert est.lower <= high * SLACK, method
        assert low <= est.upper * SLACK, method


AMENABLE_ATOMS = ["Z^1", "Z^2", "Z^3", "C2", "C5", "C8", "H3"]


@st.composite
def dense_nonnegative_cases(draw):
    factors = draw(st.lists(st.sampled_from(AMENABLE_ATOMS), min_size=1,
                            max_size=2))
    descriptor = "x".join(factors)
    r = draw(st.integers(0, ATOM_TOP if len(factors) == 1 else PRODUCT_TOP))
    ball = list(index_of(descriptor, r).ball(r))
    support = draw(st.lists(st.sampled_from(ball), unique=True, max_size=12))
    # as for signed elements: a coefficient below 1e-6 becomes 0, so that no
    # ||a||_2^2 underflows
    values = [draw(st.floats(0.0, 10.0).map(lambda v: v if v >= 1e-6 else 0.0))
              for _ in support]
    exponent = draw(st.sampled_from([2, 4, 8]))
    return descriptor, dict(zip(support, values)), exponent


@given(case=dense_nonnegative_cases())
# a scattered element on the array path, one on a product's dict loop, a
# point mass and the zero element
@example(case=("Z^2", {(0, 0): 1.0, (2, -1): 2.5, (-3, 0): 0.25}, 8))
@example(case=("H3", {(1, 1, 1): 3.0, (-1, 0, 2): 1.0, (0, 2, 0): 0.5}, 8))
@example(case=("C5xH3", {(0, (0, 0, 0)): 1.0, (2, (1, 0, 0)): 4.0}, 4))
@example(case=("C8", {3: 7.0}, 2))
@example(case=("Z^1xC2", {}, 2))
def test_every_bracket_holds_the_l1_norm_of_a_dense_nonnegative_element(case):
    descriptor, coeffs, exponent = case
    spec = R.parse_descriptor(descriptor)
    support_radius = max(map(spec.word_length, coeffs), default=0)
    x = R.AlgebraElement(spec, coeffs, support_radius)
    want = math.fsum(coeffs.values())
    brackets = {
        "exact": {},
        "l1": {},
        "trace": {"exponent": exponent},
        # power iteration lists its domain B_R through ``ball_index``
        "power": {"R": max(support_radius, 1), "iters": 30},
    }
    for method, settings in brackets.items():
        est = R.norm_bracket(x, method=method, **settings)
        assert est.lower <= want * SLACK, method
        assert want <= est.upper * SLACK, method
