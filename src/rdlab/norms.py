"""Operator-norm estimation for left convolution on l2 of the group.

Three estimators bracket ||a||:

* ``op_norm_trace_power``: monotone lower bounds from traces of powers of
  b = a* a.  With tau(x) = x(e), the values tau(b^m)^(1/2m) increase to
  ||a|| as m grows; powers are built by repeated convolution squaring, and
  the last trace never needs a full product since tau(b^(2m)) = ||b^m||_2^2.
* ``op_norm_power_iteration``: largest singular value of the convolution
  operator compressed to l2(B_R); always a lower bound.
* ``op_norm_positive_amenable``: for amenable groups and nonnegative
  coefficients the norm equals ||a||_1 exactly.

||a||_1 is always a valid upper bound.

Elements whose coefficients are constant on spheres are held as
``RadialElement``s: one coefficient per radius plus the group's sphere
sizes, which is all their l1 and l2 norms read.  A family whose coefficient
at each radius is the same in every member carries those sums
(``RadialSums``) from one member to the next.  On a free group they form
a commutative subalgebra, and convolution uses the sphere product rule
chi(S_1) chi(S_n) = chi(S_{n+1}) + (2r-1) chi(S_{n-1}) (n >= 2, with
chi(S_1)^2 = chi(S_2) + 2r delta_e), extended bilinearly.
Supports then grow linearly in the radius instead of exponentially, which
is what makes deep trace powers on free groups affordable.  One generator,
``radial_partial_products``, runs the recursion in a few numpy rows that it
allocates once and rotates: float64 when every coefficient is a Python
float, else an object array of Python numbers, so integer inputs stay
exact.  Both give the bits of the plain Python loop, nan included where
inf - inf meets in float64.

``window_sums`` adds the O(K^2) sums of the lemma2 series bound on numpy
row blocks, in the order and to the bits of Python's left-to-right loop.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .algebra import (
    AlgebraElement,
    adjoint,
    convolve,
    float_sum,
    identity_value,
    inner,
    kernel_support,
    norm,
    product_keys,
    sphere_sum,
)
from .errors import BudgetExceededError, IndexRadiusError, RdlabError
from .groups import (
    DEFAULT_BUDGET,
    FreeGroup,
    GroupSpec,
    ball_index,
    ball_sizes,
    sphere_sizes,
)

# the relative change between the last two steps at which an iterative
# estimator reports convergence
CONVERGED_RTOL = 1e-10

# log(2 DBL_MAX): a trace proved at least this large leaves the float range
# with a factor 2 to spare for the rounding of the steps that prove it
LOG_TWICE_FLOAT_MAX = math.log(sys.float_info.max) + math.log(2.0)


@dataclass
class NormEstimate:
    """Bracket [lower, upper] for an operator norm plus iteration diagnostics.

    The iterative estimators also report ``target_steps``, the step count
    asked for, and ``stop_reason``: "done" (every step asked for),
    "converged", or, for the trace ladder, "budget" or "float_range".
    """

    lower: float
    upper: float
    method: str
    steps: list = field(default_factory=list)
    converged: bool = False
    target_steps: int = None
    stop_reason: str = None

    def __post_init__(self):
        if self.lower > self.upper + 1e-12 * max(1.0, abs(self.upper)):
            raise RdlabError(
                f"norm bracket inverted: lower={self.lower} > upper={self.upper}")

    @property
    def iterations(self):
        return len(self.steps)

    def to_json_dict(self):
        out = {
            "lower": self.lower,
            "upper": self.upper,
            "method": self.method,
            "steps": list(self.steps),
            "iterations": self.iterations,
            "converged": self.converged,
        }
        if self.stop_reason is not None:
            out["target_steps"] = self.target_steps
            out["stop_reason"] = self.stop_reason
        return out


def _zero_estimate(method):
    """The exact bracket [0, 0] of the zero element, as one finished step."""
    return NormEstimate(lower=0.0, upper=0.0, method=method, steps=[0.0],
                        converged=True, target_steps=1,
                        stop_reason="done")


# -- sphere functions ---------------------------------------------------------


@dataclass(frozen=True)
class RadialSums:
    """The l1 norm, the squared l2 norm and the sign of a sphere function,
    summed as ``coefficient_norm`` and ``RadialElement.is_nonnegative`` sum
    them: each sum adds its terms left to right over the nonzero
    coefficients, l1 from 0.0 and l2^2 from 0.

    ``extended`` adds the terms of further radii to the sums so far.  A sum
    extended radius block by radius block is the one sum over all of them,
    bit for bit, so a family of sphere functions whose coefficient at each
    radius does not depend on the family member costs one pass over its
    largest member.
    """

    l1: float = 0.0
    l2sq: float = 0
    nonnegative: bool = True

    def extended(self, coeffs, sizes):
        """The sums with the radii of ``coeffs`` and ``sizes`` added."""
        return RadialSums(
            l1=float_sum(_l1_terms(coeffs, sizes), self.l1),
            l2sq=float_sum(_inner_terms(coeffs, coeffs, sizes), self.l2sq),
            nonnegative=self.nonnegative and all(c >= 0.0 for c in coeffs))


@dataclass
class RadialElement:
    """The sphere function sum_j coeffs[j] chi(S_j) on ``spec``.

    ``sizes[j]`` is the exact sphere size |S_j| from the growth series,
    read at each use; l1, l2 and the exact amenable norm are then sums over
    radii on every group.  Convolution stays with the free groups of
    ``radial_rank``.

    ``sums``, when the builder gives it, is the element's ``RadialSums``,
    which ``coefficient_norm`` and ``is_nonnegative`` then read in place of
    a pass over the radii.  It is not part of the element's value.
    """

    spec: GroupSpec
    coeffs: list
    sums: RadialSums = field(default=None, compare=False, repr=False)

    @property
    def sizes(self):
        return sphere_sizes(self.spec, len(self.coeffs) - 1)

    def is_nonnegative(self):
        if self.sums is not None:
            return self.sums.nonnegative
        return all(c >= 0.0 for c in self.coeffs)

    def trimmed(self):
        c = list(self.coeffs)
        while c and c[-1] == 0.0:
            c.pop()
        c = c or [0.0]
        return RadialElement(spec=self.spec, coeffs=c)


def radial_rank(spec):
    """The rank of a free group, else None: the groups whose sphere-constant
    elements form the radial subalgebra."""
    if isinstance(spec, FreeGroup):
        return spec.rank
    return None


def free_radial(rank, coeffs):
    """sum_j coeffs[j] chi(S_j) on the free group of the given rank."""
    return RadialElement(spec=FreeGroup(rank), coeffs=list(coeffs))


def radial_ball(rank, n):
    return free_radial(rank, [1.0] * (n + 1))


def radial_sphere(rank, n):
    return free_radial(rank, [0.0] * n + [1.0])


def radial_from_algebra(a: AlgebraElement):
    """The radial form of ``a``, or None if it is not constant on spheres.

    Values must match bitwise within each sphere and every occupied sphere
    must be complete; anything else falls back to the dense path.
    """
    rank = radial_rank(a.spec)
    if rank is None:
        return None
    by_len = {}
    for g, c in a.coeffs.items():
        by_len.setdefault(len(g), []).append(c)
    top = max(by_len) if by_len else 0
    coeffs = [0.0] * (top + 1)
    sizes = sphere_sizes(a.spec, top)
    for j, values in by_len.items():
        if len(values) != sizes[j]:
            return None
        first = values[0]
        if any(v != first for v in values):
            return None
        coeffs[j] = first
    return RadialElement(spec=a.spec, coeffs=coeffs)


def radial_to_algebra(x: RadialElement, budget=DEFAULT_BUDGET):
    """The dense element of the sphere function ``x``, listed from its ball
    (``ball_index`` under ``budget``) by ``sphere_sum``: from the ball's
    int64 rows on Z^d and H3."""
    return sphere_sum(ball_index(x.spec, len(x.coeffs) - 1, budget), x.coeffs)


def radial_partial_products(x: RadialElement, y: RadialElement):
    """The sums sum_{m<=n} x_m chi(S_m) * y for n = 0 .. len(x)-1, yielded as
    one array that each step updates in place.

    chi(S_m) * y follows the recursion chi(S_1) chi(S_m) = chi(S_{m+1}) +
    q chi(S_{m-1}) (2r in place of q at m = 1).  All-float coefficients run in
    float64, anything else in an object array of Python numbers, so integers
    stay exact; float64 may overflow to inf and nan, which the caller
    silences with ``np.errstate``.

    The recursion runs in three rows, chi(S_j) * y for j = m-2, m-1 and m,
    and q times the first two in two more.  Each row is allocated once, two
    entries wider than the longest product, and holds +0 (the integer 0 in
    an object array) past its own length.  A step writes every entry with
    the operations of the plain Python loop over the coefficients, in its
    order: (0 + a) + b there is (a + 0) + b here, the same number, signed
    zeros included, and the zero past a row's length changes nothing it is
    added to or subtracted from.

    The running sum adds x_m chi(S_m) * y across the whole width in float64
    when every x_m is finite, else across chi(S_m) * y's own length: inf * 0
    is nan, and in an object array a float x_m times the integer 0 past it
    would turn a 0 there into 0.0.
    """
    rank = radial_rank(x.spec)
    if rank is None or x.spec != y.spec:
        raise RdlabError("radial convolution needs two sphere functions on one "
                         "free group")
    cx = x.coeffs
    floats = all(type(v) is float for v in chain(cx, y.coeffs))
    dtype, zero = (np.float64, 0.0) if floats else (object, 0)
    wide = floats and all(map(math.isfinite, cx))
    q, size = 2 * rank - 1, len(y.coeffs)
    rows = np.zeros((7, size + len(cx) + 1), dtype)
    # the recursion rows as (row, row[1:-1], row[:-2]) and the q rows as
    # (row, row[2:]), views made once: entry i of the next row reads entries
    # i - 1 and i + 1 of the current ones
    prev, cur, nxt = ((row, row[1:-1], row[:-2]) for row in rows[:3])
    qprev, qcur = ((row, row[2:]) for row in rows[3:5])
    term, acc = rows[5:]
    out = acc[:-2]
    cur[0][:size] = y.coeffs
    out[:size] = cx[0] * cur[0][:size]     # an assignment keeps signed zeros
    yield out
    for m, c in enumerate(cx[1:], start=1):
        np.multiply(q, cur[0], out=qcur[0])
        np.add(cur[2], zero, out=nxt[1])
        np.add(nxt[1], qcur[1], out=nxt[1])
        nxt[0][0] = 2 * rank * cur[0][1]
        if m == 2:
            np.multiply(2 * rank, prev[0], out=qprev[0])
        if m > 1:
            np.subtract(nxt[0], qprev[0], out=nxt[0])
        if wide:
            np.multiply(c, nxt[0], out=term)
            np.add(acc, term, out=acc)
        else:
            n = size + m
            np.multiply(c, nxt[0][:n], out=term[:n])
            np.add(acc[:n], term[:n], out=acc[:n])
        prev, cur, nxt = cur, nxt, prev
        qprev, qcur = qcur, qprev
        yield out


def radial_convolve(x: RadialElement, y: RadialElement):
    """Convolution via the sphere recursion; cost O(M_x (M_x + M_y)).

    The last of ``radial_partial_products``, whose preallocated rows apply
    each operation of a plain Python loop over the coefficients in the
    loop's order, so the result has its bits and types (signed zeros, inf
    and nan included).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        *_, out = radial_partial_products(x, y)
    return RadialElement(spec=x.spec, coeffs=out.tolist()).trimmed()


def _as_float(value):
    # exact when it fits a double; +-inf past the float range, where an
    # integer would raise OverflowError (the caller's step ladder then stops
    # gracefully, as it does on a float that overflowed)
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _l1_terms(coeffs, sizes):
    return (abs(c) * _as_float(s) for c, s in zip(coeffs, sizes) if c != 0.0)


def _inner_terms(cx, cy, sizes):
    return (_as_float(a * b) * _as_float(s) for a, b, s in zip(cx, cy, sizes)
            if a != 0.0 and b != 0.0)


def radial_inner(x: RadialElement, y: RadialElement):
    return float_sum(_inner_terms(x.coeffs, y.coeffs, x.sizes))


def coefficient_norm(x, kind):
    """The norm ``kind`` of a dense element (any kind of ``algebra.norm``) or
    of a sphere function ("l1" or "l2").

    A sphere function's norms are sums over its radii, added left to right
    over the nonzero coefficients; one that carries its ``RadialSums``
    returns the sums it carries, which have the same bits.
    """
    if not isinstance(x, RadialElement):
        return norm(x, kind)
    if kind == "l1":
        if x.sums is not None:
            return x.sums.l1
        return float_sum(_l1_terms(x.coeffs, x.sizes), 0.0)
    if kind == "l2":
        return math.sqrt(radial_inner(x, x) if x.sums is None else x.sums.l2sq)
    raise ValueError(f"unknown norm kind {kind!r}")


# -- trace of convolution powers ---------------------------------------------


class _DenseOps:
    """Convolution-algebra operations on sparse AlgebraElements."""

    def __init__(self, a, budget):
        self.budget = budget
        self.b = convolve(adjoint(a), a, budget=budget)

    def mul(self, x, y):
        return convolve(x, y, budget=self.budget)

    def fits(self, k):
        """Whether every product of powers of b up to b^k fits the budget:
        each element it touches lies in B_R, R = k support_radius(b)."""
        return self.budget is None or sum(sphere_sizes(
            self.b.spec, k * self.b.support_radius)) <= self.budget

    inner = staticmethod(inner)
    trace = staticmethod(identity_value)


class _RadialOps:
    """Same interface as _DenseOps on radial free-group elements."""

    def __init__(self, ra, budget):
        self.budget = budget
        self.b = self.mul(ra, ra)  # radial elements are self-adjoint

    def mul(self, x, y):
        z = radial_convolve(x, y)
        if self.budget is not None and len(z.coeffs) > self.budget:
            raise BudgetExceededError("radial support passed the budget")
        return z

    def fits(self, k):
        """Whether every product of powers of b up to b^k fits the budget:
        it has at most k radius(b) + 1 coefficients."""
        return (self.budget is None or
                k * (len(self.b.coeffs) - 1) + 1 <= self.budget)

    @staticmethod
    def inner(x, y):
        return radial_inner(x, y)

    @staticmethod
    def trace(x):
        return _as_float(x.coeffs[0])


def _trace_exponents(depth, exponent):
    """b-exponents at which steps are reported for the a-exponent 2k =
    ``exponent``: the powers of two below k, then k.  Without an exponent,
    ``depth`` d stands for the exponent 2^(d+1)."""
    if exponent is None:
        if depth < 1:
            raise ValueError("depth must be >= 1")
        exponent = 2 ** (depth + 1)
    if exponent < 2 or exponent % 2:
        raise ValueError("exponent must be an even integer >= 2")
    target = exponent // 2
    return [1 << j for j in range((target - 1).bit_length())] + [target]


def op_norm_trace_power(a: AlgebraElement, depth=6, budget=DEFAULT_BUDGET,
                        exponent=None):
    """Monotone lower bounds tau(b^m)^(1/2m) -> ||a|| for b = a* a.

    ``depth`` requests steps at b-exponents 1, 2, 4, ..., 2^depth; passing
    ``exponent`` = 2k instead ends the ladder with an exact step at b-exponent
    k (so the last step uses the a-exponent 2k), reached by binary
    exponentiation over the squares already computed.  Stops early if the
    support budget or float range is exhausted, reporting what was achieved.

    "float_range" also covers a next trace that provably leaves the float
    range.  The steps never decrease (Lyapunov's inequality for the positive
    b), so tau(b^m) >= steps[-1]^(2m), and the ladder stops before step m if

        2m log(steps[-1]) > log(2 DBL_MAX)

    and b^ceil(m/2), the step's largest product, surely fits the budget;
    otherwise the step runs, so a "budget" stop keeps precedence.
    """
    radial = a.trimmed() if isinstance(a, RadialElement) else radial_from_algebra(a)
    if not (a.coeffs if radial is None else any(radial.coeffs)):
        return _zero_estimate("trace_power")
    try:
        ops = _DenseOps(a, budget) if radial is None else _RadialOps(radial, budget)
    except BudgetExceededError:
        raise BudgetExceededError("trace-power estimator exhausted its budget "
                                  "before the first step") from None
    upper = coefficient_norm(a, "l1")
    ms = _trace_exponents(depth, exponent)

    # powers[j] = b^(2^j); traces come from inner products of half powers
    powers = [ops.b]
    steps = []
    stop_reason = "done"
    for m in ms:
        if (steps and 2 * m * math.log(steps[-1]) > LOG_TWICE_FLOAT_MAX
                and ops.fits((m + 1) // 2)):
            stop_reason = "float_range"
            break
        try:
            if m == 1:
                trace = ops.trace(ops.b)
            else:
                half = _binary_power(ops, powers, m // 2)
                other = ops.mul(half, ops.b) if m % 2 else half
                trace = ops.inner(half, other)
        except BudgetExceededError:
            stop_reason = "budget"
            break
        if not math.isfinite(trace) or trace <= 0.0:
            stop_reason = "float_range"
            break
        steps.append(trace ** (1.0 / (2.0 * m)))
    if not steps:
        # the first step only reads tau(b) = ||a||_2^2
        raise BudgetExceededError(
            "trace-power estimator stopped before the first step: tau(b) = "
            f"||a||_2^2 left the float range (got {trace!r})")
    converged = (len(steps) >= 2 and stop_reason != "budget" and
                 abs(steps[-1] - steps[-2]) <= CONVERGED_RTOL * steps[-1])
    return NormEstimate(lower=steps[-1], upper=upper,
                        method="trace_power", steps=steps, converged=converged,
                        target_steps=len(ms), stop_reason=stop_reason)


def _binary_power(ops, powers, m):
    """b^m from the cached squares, extending the cache as needed."""
    j = 0
    result = None
    while m:
        if m & 1:
            while len(powers) <= j:
                powers.append(ops.mul(powers[-1], powers[-1]))
            result = powers[j] if result is None else ops.mul(result, powers[j])
        m >>= 1
        j += 1
    return result


# -- compressed power iteration ----------------------------------------------


def _compression_matrix(a: AlgebraElement, cols):
    """The CSR matrix of the transpose of v -> a*v, from l2(cols) into l2 of
    the products.

    ``cols`` lists group elements, or is their int64 coordinate columns.
    The products are numbered in increasing element order.  Row j holds
    the coefficient of each s in the support of ``a`` at the product s*g of
    the j-th element g, sorted by the product's number; ``product_keys``
    supplies the products on Z^d and H3, whose keys order as they do.
    """
    # imported here, not at the top: it costs every command about 0.16 s
    import scipy.sparse

    spec = a.spec
    support, values = kernel_support(a.coeffs)
    keys = product_keys(spec, cols, support, flip=True)
    if keys is None:
        if isinstance(cols, np.ndarray):
            cols = list(zip(*cols.tolist()))
        support = list(a.coeffs)
        products = [spec.multiply(s, g) for g in cols for s in support]
        number = {h: i for i, h in enumerate(sorted(set(products)))}
        rows = np.array([number[h] for h in products], dtype=np.int64)
        count = len(number)
    else:
        rows = np.concatenate([k for _, _, k in keys.blocks()])
        seen = np.zeros(keys.size, dtype=bool)
        seen[rows] = True
        number = np.cumsum(seen) - 1
        rows, count = number[rows], int(number[-1]) + 1
    # sort each row's entries by product through one key: number, then s
    depth = len(values)
    shift = max(depth - 1, 1).bit_length()
    order = np.sort(rows.reshape(-1, depth) << shift | np.arange(depth),
                    axis=1).ravel()
    indptr = np.arange(0, len(order) + 1, depth)
    return scipy.sparse.csr_matrix(
        (values[order & ((1 << shift) - 1)], order >> shift, indptr),
        shape=(len(indptr) - 1, count))


def _sum_of_squares(v):
    """sum of v_i^2 by numpy's pairwise reduction: BLAS's dot product splits
    long vectors across threads, and its sums then vary with their number."""
    return float(np.add.reduce(v * v))


def op_norm_power_iteration(a: AlgebraElement, R, iters=200, seed=0,
                            budget=DEFAULT_BUDGET):
    """Largest singular value of convolution by ``a`` compressed to l2(B_R).

    Builds the sparse matrix of v -> a*v from B_R into the reachable set and
    applies power iteration to its normal matrix; the Rayleigh quotient is a
    lower bound for ||a||^2 at every step.  Deterministic for a fixed seed,
    whatever the number of BLAS threads: no step calls BLAS.
    A matrix of more than ``budget`` entries, |B_R| |supp a| with |B_R|
    from the growth series, raises BudgetExceededError before B_R is listed.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if R < a.support_radius:
        raise IndexRadiusError(
            f"domain radius {R} below element support radius {a.support_radius}")
    if not a.coeffs:
        return _zero_estimate("power_iteration")
    entries = ball_sizes(a.spec, R)[R] * len(a.coeffs)
    if budget is not None and entries > budget:
        raise BudgetExceededError(
            f"power iteration's matrix would hold {entries} entries, past the "
            f"budget of {budget}")
    index = ball_index(a.spec, R, budget)
    ball = (index.ball(R) if index.rows is None
            else index.rows[: index.ball_sizes[R]].T)
    mat_t = _compression_matrix(a, ball)
    # mat v through the CSC view adds each entry's terms from 0.0 in
    # increasing column order, as a CSR row loop of mat would; mat^T w adds
    # them in increasing row order of mat
    mat = mat_t.T

    rng = np.random.default_rng(seed)
    v = rng.standard_normal(mat.shape[1])
    v /= math.sqrt(_sum_of_squares(v))
    steps = []
    converged = False
    for _ in range(iters):
        w = mat @ v
        steps.append(math.sqrt(_sum_of_squares(w)))
        v = mat_t @ w
        nv = math.sqrt(_sum_of_squares(v))
        if nv == 0.0:
            break
        v /= nv
        if len(steps) >= 2 and abs(steps[-1] - steps[-2]) <= (
                CONVERGED_RTOL * max(steps[-1], 1e-300)):
            converged = True
            break
    return NormEstimate(lower=steps[-1], upper=coefficient_norm(a, "l1"),
                        method="power_iteration", steps=steps, converged=converged,
                        target_steps=iters,
                        stop_reason="converged" if converged else "done")


# -- exact and trivial brackets ------------------------------------------------


def op_norm_positive_amenable(a):
    """||a|| = ||a||_1 for nonnegative coefficients on an amenable group; ``a``
    is dense or radial."""
    if not a.spec.amenable:
        raise RdlabError(
            f"{a.spec.descriptor()} is not flagged amenable; the l1 identity "
            "does not apply")
    if not a.is_nonnegative():
        raise RdlabError("the l1 identity needs nonnegative coefficients")
    value = coefficient_norm(a, "l1")
    return NormEstimate(lower=value, upper=value, method="amenable_exact",
                        steps=[], converged=True)


def op_norm_l1_bracket(a):
    """The free bracket ||a||_2 <= ||a|| <= ||a||_1 of a dense or radial element."""
    return NormEstimate(lower=coefficient_norm(a, "l2"),
                        upper=coefficient_norm(a, "l1"),
                        method="l1_bound", steps=[], converged=False)


# Floats per row block of ``window_sums``: each temporary stays near 256 kB.
WINDOW_BLOCK = 1 << 15


def window_sums(values, weights=None):
    """For each start s, the sum over t of weights[t] * values[s + t] while
    s + t < len(values) (weights all 1 when None), as Python floats added
    left to right from t = 0, as ``sum`` adds floats before Python 3.12.

    The terms must be nonnegative: a block of starts is summed at a time, on
    windows of ``values`` cut at the block's longest row, so that the shorter
    rows run past the end of ``values`` on zeros, and ``cumsum`` adds along a
    row in order."""
    m = len(values)
    windows = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([values, np.zeros(m)]), m)[:m]
    rows = max(1, WINDOW_BLOCK // max(m, 1))
    scale = None if weights is None else np.asarray(weights)
    sums = []
    for start in range(0, m, rows):
        width = m - start
        terms = windows[start: start + rows, :width]
        if scale is not None:
            terms = terms * scale[:width]
        sums += np.cumsum(terms, axis=1)[:, -1].tolist()
    return sums
