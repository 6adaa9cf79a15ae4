"""Witness ratio series against witnesses built one at a time.

``ratio_series`` extends the running l1, l2 and sign sums of one witness to
the next.  Every entry must carry the bits of the same witness built alone,
its norms summed afresh by ``coefficient_norm``, and the sums must cost
linear work in the range.
"""

import functools
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

import rdlab as R
from rdlab import norms
from rdlab.errors import BudgetExceededError
from rdlab.norms import coefficient_norm, radial_rank
from rdlab.rd import make_witness

GROUPS = ["Z", "Z^2", "H3", "C7", "Z^1xC3", "F2", "Z^1xF2"]
F2 = R.FreeGroup(2)
# F2's ball sizes leave the float range at radius 646; its n reach past it
F2_TOP = 700
# the largest n of the other groups, and of a trace ladder that convolves
# dense elements
TOP = 60
DENSE_TRACE_TOP = 3


@st.composite
def series_cases(draw):
    descriptor = draw(st.sampled_from(GROUPS))
    spec = R.parse_descriptor(descriptor)
    method = draw(st.sampled_from(
        ["exact", "l1", "trace"] if spec.amenable else ["l1", "trace"]))
    dense = method == "trace" and radial_rank(spec) is None
    top = DENSE_TRACE_TOP if dense else F2_TOP if descriptor == "F2" else TOP
    ns = sorted(draw(st.sets(st.integers(0, top), min_size=1, max_size=6)))
    witness = draw(st.sampled_from(["ball", "sphere", "aN"]))
    d_hat = (draw(st.floats(0.1, 6.0, allow_subnormal=False))
             if witness == "aN" else None)
    return spec, witness, d_hat, ns, method


def alone(spec, witness, n, d_hat, method, settings):
    """(norm_lower, norm_upper, l2) in hex of the witness at n built alone,
    its sums dropped so that coefficient_norm sums its radii afresh; None
    for a zero witness, which a series skips."""
    built = make_witness(spec, witness, n, d_hat)
    x = R.RadialElement(spec=spec, coeffs=built.coeffs)
    l2 = coefficient_norm(x, "l2")
    if l2 == 0.0:
        return None
    est = R.norm_bracket(x, method=method, **settings)
    return est.lower.hex(), est.upper.hex(), l2.hex()


@given(case=series_cases())
# ranges that cross F2's float range, which drawn lists seldom reach
@example(case=(F2, "ball", None, [3, 640, 645, 646, 700], "l1"))
@example(case=(F2, "aN", 1.5, [600, 650], "trace"))
@example(case=(F2, "sphere", None, [644, 645, 647], "l1"))
def test_series_entries_have_the_bits_of_witnesses_alone(case):
    spec, witness, d_hat, ns, method = case
    settings = {"exponent": 4} if method == "trace" else {}
    past = [n for n in ns if n >= 646 and spec == F2]
    if past:
        with pytest.raises(BudgetExceededError) as alone_error:
            make_witness(spec, witness, past[0], d_hat)
        with pytest.raises(BudgetExceededError,
                           match="float range at radius 646") as series_error:
            R.ratio_series(spec, witness, ns, method=method, d_hat=d_hat,
                           **settings)
        assert str(series_error.value) == str(alone_error.value)
        ns = ns[: ns.index(past[0])]
    ser = R.ratio_series(spec, witness, ns, method=method, d_hat=d_hat,
                         **settings)
    got = {e.n: (e.norm_lower.hex(), e.norm_upper.hex(), e.l2.hex())
           for e in ser.entries}
    want = {n: alone(spec, witness, n, d_hat, method, settings)
            for n in ns}
    assert got == {n: v for n, v in want.items() if v is not None}


def float_calls(ns):
    """The calls of ``norms._as_float`` that the Z^2 exact ball series over
    ``ns`` makes."""
    with mock.patch.object(norms, "_as_float",
                           wraps=norms._as_float) as as_float:
        R.ratio_series(R.FreeAbelian(2), "ball", ns, method="exact")
    return as_float.call_count


def test_a_series_adds_each_radius_once():
    # three conversions per radius, one for its l1 term and two for its l2
    # term, where summing each witness afresh would make about 240,000
    short, long = float_calls(range(4, 401)), float_calls(range(4, 801))
    assert short <= 4 * 400
    assert long <= 2.1 * short
