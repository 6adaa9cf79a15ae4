"""Group laws, word lengths, sphere sizes and the convolution algebra, on
elements drawn from enumerated balls.

Each group is enumerated to twice the radius its elements are drawn from, so
every product of two drawn elements has its breadth-first length in the
index.  Coefficients are small integers held as floats, so every sum in a
convolution is exact and products compare by equality.
"""

import functools

import pytest
from hypothesis import given, strategies as st

import rdlab as R

# (descriptor, radius elements are drawn from)
GROUPS = {
    "Z^1": 4, "Z^2": 3, "Z^3": 2, "H3": 3, "F1": 4, "F2": 3, "F3": 2,
    "C1": 1, "C2": 1, "C7": 3, "C12": 4, "Z^4": 2, "Z^1xC5": 3, "Z^1xF2": 2,
    "Z^1xH3": 2, "F2xC4": 2,
}
# the groups whose convolution runs the dict loop
DICT_LOOP = ["F2", "C12", "Z^1xF2"]


@functools.cache
def index_of(name):
    return R.enumerate_balls(R.parse_descriptor(name), 2 * GROUPS[name])


def draw_elements(data, name, count, radius=None):
    """``count`` elements of the ball of ``name`` of the given radius
    (default GROUPS[name])."""
    ball = list(index_of(name).ball(GROUPS[name] if radius is None else radius))
    return [data.draw(st.sampled_from(ball)) for _ in range(count)]


@pytest.mark.parametrize("name", GROUPS)
@given(data=st.data())
def test_group_axioms(name, data):
    spec = index_of(name).spec
    g, h, k = draw_elements(data, name, 3)
    e = spec.identity()
    mul = spec.multiply
    assert mul(mul(g, h), k) == mul(g, mul(h, k))
    assert mul(e, g) == mul(g, e) == g
    assert mul(g, spec.inverse(g)) == mul(spec.inverse(g), g) == e
    spec.check_element(mul(g, h))       # products come out canonical
    assert spec.parse_key(spec.element_key(g)) == g


@pytest.mark.parametrize("name", GROUPS)
@given(data=st.data())
def test_word_lengths(name, data):
    index = index_of(name)
    spec = index.spec
    g, h = draw_elements(data, name, 2)
    gh = spec.multiply(g, h)
    for x in (g, spec.inverse(g), gh):
        assert spec.word_length(x) == index.lengths[x]
    assert spec.word_length(spec.inverse(g)) == spec.word_length(g)
    assert spec.word_length(gh) <= spec.word_length(g) + spec.word_length(h)


@pytest.mark.parametrize("name", GROUPS)
@given(data=st.data())
def test_closed_sphere_sizes(name, data):
    # the growth series counts the breadth-first spheres
    index = index_of(name)
    radius = data.draw(st.integers(0, index.radius))
    assert R.sphere_sizes(index.spec, radius) == index.sphere_sizes[: radius + 1]


SERIES_COMPONENTS = ["Z", "Z^2", "H3", "F1", "F2", "F3",
                     "C1", "C2", "C3", "C4", "C5", "C6"]


def cauchy_product(a, b):
    """The first len(a) terms of the product of the series ``a`` and ``b``
    (``b`` at least as long), term by term."""
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(len(a))]


@given(parts=st.lists(st.sampled_from(SERIES_COMPONENTS), min_size=1, max_size=3),
       radius=st.integers(0, 300))
def test_growth_series_division(parts, radius):
    # a product's sphere sizes are the Cauchy product of its factors' sizes,
    # and Q times the sizes is P, both truncated to the radius
    spec = R.parse_descriptor("x".join(parts))
    sizes = R.sphere_sizes(spec, radius)
    want = [1] + [0] * radius
    for part in parts:
        want = cauchy_product(want, R.sphere_sizes(R.parse_descriptor(part), radius))
    assert sizes == want

    def truncated(coeffs):
        return (list(coeffs) + [0] * radius)[: radius + 1]
    P, Q = spec.growth_series()
    assert Q[0] == 1
    assert cauchy_product(truncated(Q), sizes) == truncated(P)


def draw_algebra_elements(data, name, count):
    """``count`` elements supported in the ball of radius 2 of ``name``,
    with small-integer coefficients."""
    spec = index_of(name).spec
    return [R.AlgebraElement(spec=spec, support_radius=2, coeffs={
        g: float(data.draw(st.integers(-3, 3)))
        for g in draw_elements(data, name, data.draw(st.integers(1, 6)), 2)})
        for _ in range(count)]


@pytest.mark.parametrize("name", DICT_LOOP)
@given(data=st.data())
def test_convolution_is_associative(name, data):
    a, b, c = draw_algebra_elements(data, name, 3)
    assert R.convolve(R.convolve(a, b), c) == R.convolve(a, R.convolve(b, c))


@pytest.mark.parametrize("name", DICT_LOOP)
@given(data=st.data())
def test_adjoint(name, data):
    a, b = draw_algebra_elements(data, name, 2)
    star = R.adjoint(a)
    assert R.adjoint(star) == a
    assert R.norm(star, "l2") == R.norm(a, "l2")
    assert R.adjoint(R.convolve(a, b)) == R.convolve(R.adjoint(b), star)
