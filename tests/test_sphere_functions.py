"""Witnesses held as sphere functions against their dense expansion.

Ball and sphere witnesses have coefficients 0 and 1, so every sum is an exact
integer and the two forms must agree bit for bit.  The aN weights are not
integers.  The sphere function rounds one product per radius and sums n+1
terms, so its error has a bound that does not grow with the ball; the dense
element rounds one addition per group element.  Neither is always the closer
of the two, so the test checks the sphere function against its bound.
"""

import decimal
import functools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import rdlab as R
from rdlab.norms import coefficient_norm
from rdlab.rd import make_witness, witness_element

UNIT_ROUNDOFF = 2.0 ** -53

# (descriptor, index radius); H3 has no closed-form sphere sizes, so its come
# from the index
GROUPS = [("Z^1", 40), ("Z^2", 14), ("Z^3", 7), ("C5", 8), ("Z^1xC5", 8),
          ("H3", 7), ("F2", 6), ("F3", 4)]


@functools.cache
def index_of(descriptor):
    return R.enumerate_balls(R.parse_descriptor(descriptor),
                             dict(GROUPS)[descriptor])


@st.composite
def witnesses(draw, kinds):
    descriptor, radius = draw(st.sampled_from(GROUPS))
    return (descriptor, draw(st.sampled_from(kinds)), draw(st.integers(0, radius)),
            draw(st.floats(0.25, 4.0)))


def both_forms(descriptor, witness, n, d_hat):
    index = index_of(descriptor)
    x = make_witness(index.spec, witness, n, d_hat)
    dense = witness_element(x)
    assert isinstance(x, R.RadialElement)
    assert isinstance(dense, R.AlgebraElement)
    return x, dense


@given(witnesses(["ball", "sphere"]))
def test_indicator_norms_equal_the_dense_ones(case):
    descriptor, witness, n, _ = case
    x, dense = both_forms(descriptor, witness, n, None)
    assert x.sizes == index_of(descriptor).sphere_sizes[: n + 1]
    for kind in ("l1", "l2"):
        assert coefficient_norm(x, kind) == R.norm(dense, kind)
    for form in (x, dense):
        with pytest.raises(ValueError, match="unknown norm kind"):
            coefficient_norm(form, "l3")
    if x.spec.amenable:
        assert R.op_norm_positive_amenable(x).lower == \
            R.op_norm_positive_amenable(dense).lower


@given(witnesses(["aN"]))
def test_weighted_norms_within_the_sphere_count_error_bound(case):
    descriptor, witness, n, d_hat = case
    x, dense = both_forms(descriptor, witness, n, d_hat)
    weights = [Fraction(w) for w in x.coeffs]
    exact_l1 = sum(w * s for w, s in zip(weights, x.sizes))
    exact_l2sq = sum(w * w * s for w, s in zip(weights, x.sizes))
    # one rounding per product and per addition: gamma_(n+1) = (n+1) u
    # to first order, plus the square and the square root for l2
    l1 = coefficient_norm(x, "l1")
    assert abs(Fraction(l1) - exact_l1) <= (n + 2) * UNIT_ROUNDOFF * exact_l1
    with decimal.localcontext(decimal.Context(prec=60)):
        exact_l2 = (decimal.Decimal(exact_l2sq.numerator)
                    / decimal.Decimal(exact_l2sq.denominator)).sqrt()
        l2 = decimal.Decimal(coefficient_norm(x, "l2"))
        bound = (n + 3) * decimal.Decimal(UNIT_ROUNDOFF) * exact_l2
        assert abs(l2 - exact_l2) <= bound
    assert l1 == pytest.approx(R.norm(dense, "l1"), rel=1e-12)
