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
sizes, which is all their l1 and l2 norms read.  On a free group they form
a commutative subalgebra, and convolution uses the sphere product rule
chi(S_1) chi(S_n) = chi(S_{n+1}) + (2r-1) chi(S_{n-1}) (n >= 2, with
chi(S_1)^2 = chi(S_2) + 2r delta_e), extended bilinearly.
Supports then grow linearly in the radius instead of exponentially, which
is what makes deep trace powers on free groups affordable.  The recursion
runs on numpy arrays, a few slice operations per sphere: float64 when every
coefficient is a Python float, else an object array of Python numbers, so
integer inputs stay exact.  Both give the bits of the plain Python loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
import scipy.sparse

from .algebra import AlgebraElement, adjoint, convolve, norm, product_keys
from .errors import BudgetExceededError, IndexRadiusError, RdlabError
from .groups import DEFAULT_BUDGET, FreeGroup, GroupSpec, LengthIndex

TRACE_CONVERGED_RTOL = 1e-10
POWER_CONVERGED_RTOL = 1e-10


@dataclass
class NormEstimate:
    """Bracket [lower, upper] for an operator norm plus iteration diagnostics.

    ``extrapolated``, when present, is a convergence diagnostic (the
    zero-of-1/k intercept of the step sequence), never a rigorous bound.
    The iterative estimators also report ``target_steps``, the step count
    asked for, and ``stop_reason``: "done" (every step asked for),
    "converged", or, for the trace ladder, "budget" or "float_range".
    """

    lower: float
    upper: float
    method: str
    steps: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    extrapolated: float = None
    target_steps: int = None
    stop_reason: str = None

    def __post_init__(self):
        if self.lower > self.upper + 1e-12 * max(1.0, abs(self.upper)):
            raise RdlabError(
                f"norm bracket inverted: lower={self.lower} > upper={self.upper}")

    def to_json_dict(self):
        out = {
            "lower": self.lower,
            "upper": self.upper,
            "method": self.method,
            "steps": list(self.steps),
            "iterations": self.iterations,
            "converged": self.converged,
        }
        if self.extrapolated is not None:
            out["extrapolated"] = self.extrapolated
        if self.stop_reason is not None:
            out["target_steps"] = self.target_steps
            out["stop_reason"] = self.stop_reason
        return out


def _zero_estimate(method):
    """The exact bracket [0, 0] of the zero element, as one finished step."""
    return NormEstimate(lower=0.0, upper=0.0, method=method, steps=[0.0],
                        iterations=1, converged=True, target_steps=1,
                        stop_reason="done")


# -- sphere functions ---------------------------------------------------------


@dataclass
class RadialElement:
    """The sphere function sum_j coeffs[j] chi(S_j) on ``spec``.

    ``sizes[j]`` is the exact sphere size |S_j| (a closed form, else counted
    by a ball index), resolved once when the element is built; l1, l2 and
    the exact amenable norm are then sums over radii on every group.
    Convolution stays with the free groups of ``radial_rank``.
    """

    spec: GroupSpec
    coeffs: list
    sizes: list

    def is_nonnegative(self):
        return all(c >= 0.0 for c in self.coeffs)

    def trimmed(self):
        c = list(self.coeffs)
        while c and c[-1] == 0.0:
            c.pop()
        c = c or [0.0]
        return RadialElement(spec=self.spec, coeffs=c, sizes=self.sizes[: len(c)])


def radial_rank(spec):
    """The rank of a free group on its standard generators, else None: the
    groups whose sphere-constant elements form the radial subalgebra."""
    if isinstance(spec, FreeGroup) and spec.has_standard_generators():
        return spec.rank
    return None


def free_radial(rank, coeffs):
    """sum_j coeffs[j] chi(S_j) on the free group of the given rank."""
    spec, coeffs = FreeGroup(rank), list(coeffs)
    return RadialElement(spec=spec, coeffs=coeffs,
                         sizes=spec.closed_sphere_sizes(len(coeffs) - 1))


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
    sizes = a.spec.closed_sphere_sizes(top)
    for j, values in by_len.items():
        if len(values) != sizes[j]:
            return None
        first = values[0]
        if any(v != first for v in values):
            return None
        coeffs[j] = first
    return RadialElement(spec=a.spec, coeffs=coeffs, sizes=sizes)


def radial_to_algebra(x: RadialElement, index: LengthIndex):
    """The dense element of the sphere function ``x``, built from ``index``."""
    if index is None or index.spec != x.spec:
        raise IndexRadiusError(
            f"expanding a sphere function on {x.spec.descriptor()} needs its "
            "LengthIndex")
    top = len(x.coeffs) - 1
    if top > index.radius:
        raise IndexRadiusError("index too small to expand the sphere function")
    coeffs = {g: c for j, c in enumerate(x.coeffs) if c != 0.0
              for g in index.sphere(j)}
    return AlgebraElement(spec=x.spec, coeffs=coeffs, support_radius=top)


def _apply_sphere_one(rank, d):
    """Coefficients of chi(S_1) * (sum d_n chi(S_n)), as a new array of d's
    dtype."""
    n = len(d)
    out = np.zeros(n + 1, d.dtype)
    if n > 1:
        out[0] = 2 * rank * d[1]
    out[1] += d[0]
    out[1:n - 1] += (2 * rank - 1) * d[2:]
    out[2:] += d[1:]
    return out


def sphere_multiples(rank, y, count):
    """chi(S_m) * y for m = 0 .. count-1, as arrays of y's dtype.

    The three-term recursion chi(S_1) chi(S_m) = chi(S_{m+1}) + q chi(S_{m-1})
    (2r in place of q at m = 1); a float64 ``y`` may overflow to inf and nan,
    which the caller silences with ``np.errstate``.
    """
    yield y
    if count < 2:
        return
    prev, cur = y, _apply_sphere_one(rank, y)
    yield cur
    for m in range(2, count):
        nxt = _apply_sphere_one(rank, cur)
        nxt[: len(prev)] -= (2 * rank if m == 2 else 2 * rank - 1) * prev
        prev, cur = cur, nxt
        yield cur


def radial_convolve(x: RadialElement, y: RadialElement):
    """Convolution via the sphere recursion; cost O(M_x (M_x + M_y)).

    Coefficients that are all Python floats run in float64; anything else
    (ints, mixed lists) runs in an object array of Python numbers, so integer
    coefficients stay exact.  Both apply each operation of a plain Python
    loop over the coefficients, in the loop's order, so the result has its
    bits and types (signed zeros, inf and nan included).
    """
    rank = radial_rank(x.spec)
    if rank is None or x.spec != y.spec:
        raise RdlabError("radial convolution needs two sphere functions on one "
                         "free group on its standard generators")
    cx = x.coeffs
    dtype = (np.float64 if all(type(v) is float for v in chain(cx, y.coeffs))
             else object)
    d = np.array(y.coeffs, dtype)
    out = np.zeros(len(d) + len(cx) - 1, dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        steps = sphere_multiples(rank, d, len(cx))
        out[: len(d)] = cx[0] * next(steps)
        for c, y_m in zip(cx[1:], steps):
            out[: len(y_m)] += c * y_m
    coeffs = out.tolist()
    return RadialElement(spec=x.spec, coeffs=coeffs,
                         sizes=x.spec.closed_sphere_sizes(len(coeffs) - 1)).trimmed()


def _as_float(value):
    # exact when it fits a double; +-inf past the float range, where an
    # integer would raise OverflowError (the caller's step ladder then stops
    # gracefully, as it does on a float that overflowed)
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def radial_inner(x: RadialElement, y: RadialElement):
    return sum(_as_float(cx * cy) * _as_float(s)
               for cx, cy, s in zip(x.coeffs, y.coeffs, x.sizes)
               if cx != 0.0 and cy != 0.0)


def coefficient_norm(x, kind):
    """The "l1" or "l2" norm of a dense element or a sphere function."""
    if not isinstance(x, RadialElement):
        return norm(x, kind)
    if kind == "l1":
        return sum((abs(c) * _as_float(s)
                    for c, s in zip(x.coeffs, x.sizes) if c != 0.0), 0.0)
    return math.sqrt(radial_inner(x, x))


# -- trace of convolution powers ---------------------------------------------


class _DenseOps:
    """Convolution-algebra operations on sparse AlgebraElements."""

    def __init__(self, a, budget):
        self.budget = budget
        self.b = convolve(adjoint(a), a, budget=budget)

    def mul(self, x, y):
        return convolve(x, y, budget=self.budget)

    @staticmethod
    def inner(x, y):
        small, big = (x, y) if len(x.coeffs) <= len(y.coeffs) else (y, x)
        return sum(c * big.coeffs.get(g, 0.0) for g, c in small.coeffs.items())

    @staticmethod
    def trace(x):
        return x.coeffs.get(x.spec.identity(), 0.0)


class _RadialOps:
    """Same interface as _DenseOps on radial free-group elements."""

    def __init__(self, ra, budget):
        self.budget = budget
        self.b = radial_convolve(ra, ra)  # radial elements are self-adjoint

    def mul(self, x, y):
        z = radial_convolve(x, y)
        if self.budget is not None and len(z.coeffs) > self.budget:
            raise BudgetExceededError("radial support passed the budget")
        return z

    @staticmethod
    def inner(x, y):
        return radial_inner(x, y)

    @staticmethod
    def trace(x):
        return _as_float(x.coeffs[0])


def _trace_exponents(depth, exponent):
    """b-exponents at which steps are reported: powers of two, then the target."""
    if exponent is not None:
        if exponent < 2 or exponent % 2:
            raise ValueError("exponent must be an even integer >= 2")
        target = exponent // 2
        ms = [1]
        while ms[-1] * 2 < target:
            ms.append(ms[-1] * 2)
        if ms[-1] != target:
            ms.append(target)
        return ms
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return [2 ** j for j in range(depth + 1)]


def op_norm_trace_power(a: AlgebraElement, depth=6, budget=DEFAULT_BUDGET,
                        exponent=None, extrapolate=False):
    """Monotone lower bounds tau(b^m)^(1/2m) -> ||a|| for b = a* a.

    ``depth`` requests steps at b-exponents 1, 2, 4, ..., 2^depth; passing
    ``exponent`` = 2k instead ends the ladder with an exact step at b-exponent
    k (so the last step uses the a-exponent 2k), reached by binary
    exponentiation over the squares already computed.  Stops early if the
    support budget or float range is exhausted, reporting what was achieved.

    ``extrapolate`` fits log(step) against 1/k over the last half of the
    ladder and reports the intercept (the polynomial-correction limit) as a
    diagnostic; the returned bound stays the last computed step.
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
                 abs(steps[-1] - steps[-2]) <= TRACE_CONVERGED_RTOL * steps[-1])
    diagnostic = None
    if extrapolate:
        diagnostic = _extrapolate_steps(ms[: len(steps)], steps)
    return NormEstimate(lower=steps[-1], upper=upper,
                        method="trace_power", steps=steps,
                        iterations=len(steps), converged=converged,
                        extrapolated=diagnostic, target_steps=len(ms),
                        stop_reason=stop_reason)


def least_squares(xs, ys):
    """(slope, intercept) of the least-squares line through the points, or
    None when the xs have no spread."""
    m = len(xs)
    mean_x = sum(xs) / m
    mean_y = sum(ys) / m
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0.0:
        return None
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sxx
    return slope, mean_y - slope * mean_x


def _extrapolate_steps(ms, steps):
    """Intercept of log(step) regressed on 1/k over the last half of the ladder."""
    half = len(steps) // 2
    line = least_squares([1.0 / m for m in ms[half:]],
                         [math.log(s) for s in steps[half:]])
    return None if line is None else math.exp(line[1])


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
    """Sparse matrix of v -> a*v from l2(cols) into l2 of the products.

    Rows are numbered by first appearance, columns outside and the support
    of ``a`` inside; ``product_keys`` supplies the products on Z^d and H3.
    """
    spec = a.spec
    supp = list(a.coeffs.items())
    keys = product_keys(spec, cols, list(a.coeffs), flip=True)
    if keys is None:
        rows_of = {}
        data, row_idx, col_idx = [], [], []
        for j, g in enumerate(cols):
            for s, c in supp:
                h = spec.multiply(s, g)
                i = rows_of.setdefault(h, len(rows_of))
                data.append(c)
                row_idx.append(i)
                col_idx.append(j)
        shape = (len(rows_of), len(cols))
    else:
        keys_of_pairs = np.concatenate([k for _, _, k in keys.blocks()])
        cells = keys.first_touch_order()
        row_of = np.empty(keys.size, dtype=np.int64)
        row_of[cells] = np.arange(len(cells))
        row_idx = row_of[keys_of_pairs]
        col_idx = np.repeat(np.arange(len(cols)), len(supp))
        data = np.tile([c for _, c in supp], len(cols))
        shape = (len(cells), len(cols))
    return scipy.sparse.csr_matrix((data, (row_idx, col_idx)), shape=shape)


def op_norm_power_iteration(a: AlgebraElement, R, iters=200, seed=0,
                            index: LengthIndex = None, tol=POWER_CONVERGED_RTOL):
    """Largest singular value of convolution by ``a`` compressed to l2(B_R).

    Builds the sparse matrix of v -> a*v from B_R into the reachable set and
    applies power iteration to its normal matrix; the Rayleigh quotient is a
    lower bound for ||a||^2 at every step.  Deterministic for a fixed seed.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if index is None or index.spec != a.spec:
        raise IndexRadiusError("power iteration needs a LengthIndex for the group")
    if index.radius < R:
        raise IndexRadiusError(f"index radius {index.radius} < domain radius {R}")
    if R < a.support_radius:
        raise IndexRadiusError(
            f"domain radius {R} below element support radius {a.support_radius}")
    if not a.coeffs:
        return _zero_estimate("power_iteration")
    mat = _compression_matrix(a, [g for n in range(R + 1) for g in index.sphere(n)])

    rng = np.random.default_rng(seed)
    v = rng.standard_normal(mat.shape[1])
    v /= np.linalg.norm(v)
    steps = []
    converged = False
    used = 0
    for _ in range(iters):
        w = mat @ v
        rayleigh = float(w @ w)
        steps.append(math.sqrt(max(rayleigh, 0.0)))
        used += 1
        v = mat.T @ w
        nv = np.linalg.norm(v)
        if nv == 0.0:
            break
        v /= nv
        if len(steps) >= 2 and abs(steps[-1] - steps[-2]) <= tol * max(steps[-1], 1e-300):
            converged = True
            break
    return NormEstimate(lower=steps[-1], upper=norm(a, "l1"),
                        method="power_iteration", steps=steps,
                        iterations=used, converged=converged,
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
                        steps=[], iterations=0, converged=True)


def op_norm_l1_bracket(a):
    """The free bracket ||a||_2 <= ||a|| <= ||a||_1 of a dense or radial element."""
    return NormEstimate(lower=coefficient_norm(a, "l2"),
                        upper=coefficient_norm(a, "l1"),
                        method="l1_bound", steps=[], iterations=0, converged=False)
