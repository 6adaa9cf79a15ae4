"""Quantitative rapid-decay measurements on concrete groups.

The rapid decay property with exponent s asks for a constant C with
||a|| <= C (1+n)^s ||a||_2 for every a supported in the n-ball.  Nothing
here proves or refutes the property; instead the module measures its finite
numerical content:

* witness ratio series ||a||/||a||_2 for the ball, sphere, and power-weighted
  sphere-sum witnesses, with exact norms on amenable groups;
* log-log exponent fits and the constant series C_s(n) = ratio / (1+n)^s
  whose divergence trend is the finite shadow of "s is too small";
* exact pointwise inequalities: the ball convolution bound
  chi(B_n) chi(B_{n+k}) >= |B_n| chi(B_k), and its consequence for products
  of power-weighted normalized-ball series, both posed on sphere functions
  and checked by one product check (radial on free groups, dense elsewhere);
* the l2 doubling condition ||chi(B_{r(k+1)})||_2 >= 2 ||chi(B_{rk})||_2 and
  the resulting two-sided l2 bounds for those series;
* subgroup domination (heredity) checks through an embedding;
* the sphere series sum (1+n)^{-d} |S_n| whose divergence pins the growth
  degree from below.

Sphere and ball sizes come from ``groups.sphere_sizes`` and
``groups.ball_sizes``: the closed forms live on the group classes, and a
ball index answers for the rest.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .algebra import (
    AlgebraElement,
    GEQ_TOLERANCE,
    char_sphere,
    convolve,
    pointwise_geq,
)
from .errors import BudgetExceededError, CoverageError, RdlabError
from .groups import (
    DEFAULT_BUDGET,
    Embedding,
    FiniteCyclic,
    FreeAbelian,
    FreeGroup,
    LengthIndex,
    ball_sizes,
    embed,
    sphere_sizes,
)
from .norms import (
    RadialElement,
    coefficient_norm,
    least_squares,
    op_norm_l1_bracket,
    op_norm_positive_amenable,
    op_norm_power_iteration,
    op_norm_trace_power,
    radial_convolve,
    radial_inner,
    radial_rank,
    radial_to_algebra,
    sphere_multiples,
)


# -- ball sizes in floats ------------------------------------------------------


def _check_float_range(spec, balls):
    """Raise BudgetExceededError if |B_n| for n = len(balls) - 1 is past the
    float range, where l1 and l2 norms stop being finite."""
    if balls[-1] > sys.float_info.max:
        first = next(i for i, b in enumerate(balls) if b > sys.float_info.max)
        raise BudgetExceededError(
            f"ball sizes of {spec.descriptor()} leave the float range at radius "
            f"{first}; radius {len(balls) - 1} must stay below it")


# -- estimator choice -----------------------------------------------------------


def resolve_method(method, spec, nonnegative=True):
    """The estimator ``method`` names: "auto" is "exact" for a nonnegative
    element on an amenable group, else "trace"."""
    if method == "auto":
        return "exact" if spec.amenable and nonnegative else "trace"
    return method


def power_domain(R, support_radius):
    """Radius of the ball power iteration compresses to: ``R`` when given,
    else the support radius, at least 1."""
    return max(support_radius, 1) if R is None else R


# -- witness elements and ratio series ----------------------------------------


def _witness_weights(witness, n, d_hat):
    """Coefficients on S_0..S_n of the witness supported in B_n: "ball",
    "sphere", or "aN" (power-weighted sphere sum with exponent d_hat:
    sum_{1<=m<=n} (1+m)^(-d_hat) chi(S_m))."""
    if witness == "ball":
        return [1.0] * (n + 1)
    if witness == "sphere":
        return [0.0] * n + [1.0]
    if witness == "aN":
        if d_hat is None or d_hat <= 0:
            raise ValueError("the aN witness needs d_hat > 0")
        return [0.0] + [(1.0 + m) ** (-d_hat) for m in range(1, n + 1)]
    raise ValueError(f"unknown witness {witness!r}")


def witness_element(x: RadialElement, index: LengthIndex):
    """The dense form of the witness sphere function ``x``, from ``index``."""
    return radial_to_algebra(x, index)


def witness_label(witness, d_hat=None):
    return f"aN({d_hat:g})" if witness == "aN" else witness


def make_witness(spec, witness, n, index=None, d_hat=None):
    """The witness as a sphere function, its sizes closed-form or else from
    ``index`` (norm_bracket expands it where an estimator needs the dense
    element).  Ball sizes past the float range raise BudgetExceededError."""
    if n < 0:
        raise ValueError("witness radius must be >= 0")
    sizes = sphere_sizes(spec, n, index)
    _check_float_range(spec, list(accumulate(sizes)))
    return RadialElement(spec=spec, coeffs=_witness_weights(witness, n, d_hat),
                         sizes=sizes)


def norm_bracket(a, method="auto", index=None, *, depth=6, exponent=None,
                 extrapolate=False, R=None, iters=200, seed=0,
                 budget=DEFAULT_BUDGET):
    """Dispatch to the estimator ``resolve_method`` picks for ``a``, an
    AlgebraElement or a RadialElement.  A sphere function is expanded from
    ``index`` where the estimator needs group elements: for power iteration,
    which compresses to the ball of ``power_domain`` radius, and for the
    trace ladder on a group without radial convolution."""
    method = resolve_method(method, a.spec, a.is_nonnegative())
    if isinstance(a, RadialElement) and (
            method == "power" or method == "trace" and radial_rank(a.spec) is None):
        a = witness_element(a, index)
    if method == "exact":
        return op_norm_positive_amenable(a)
    if method == "trace":
        return op_norm_trace_power(a, depth=depth, budget=budget,
                                   exponent=exponent, extrapolate=extrapolate)
    if method == "power":
        return op_norm_power_iteration(a, R=power_domain(R, a.support_radius),
                                       iters=iters, seed=seed, index=index)
    if method == "l1":
        return op_norm_l1_bracket(a)
    raise ValueError(f"unknown norm method {method!r}")


@dataclass
class RatioEntry:
    n: int
    norm_lower: float
    norm_upper: float
    l2: float

    @property
    def ratio_lower(self):
        return self.norm_lower / self.l2

    @property
    def ratio_upper(self):
        return self.norm_upper / self.l2

    def ratio(self, which):
        return self.ratio_lower if which == "lower" else self.ratio_upper


@dataclass
class RatioSeries:
    """Per-n operator-norm-to-l2 ratios of a witness family."""

    group: str
    witness: str
    method: str
    entries: list = field(default_factory=list)

    def to_csv_rows(self):
        for e in self.entries:
            yield [self.group, self.witness, e.n, e.norm_lower, e.norm_upper,
                   e.l2, e.ratio_lower, e.ratio_upper]

    def to_json_dict(self):
        return {
            "group": self.group,
            "witness": self.witness,
            "method": self.method,
            "entries": [{"n": e.n, "norm_lower": e.norm_lower,
                         "norm_upper": e.norm_upper, "l2": e.l2,
                         "ratio_lower": e.ratio_lower,
                         "ratio_upper": e.ratio_upper} for e in self.entries],
        }


def ratio_series(spec, witness, n_list, method="auto", index=None, d_hat=None,
                 **settings):
    """Norm bracket and l2 norm of the witness at each n (skips empty witnesses).

    Witnesses are sphere functions, so their l2 norm and the l1 and exact
    norms need sphere sizes only; ``index`` supplies the sizes that have no
    closed form and the dense elements the other methods need (see
    norm_bracket).  ``settings`` are the estimator settings of norm_bracket.
    """
    n_list = list(n_list)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n values must be strictly increasing")
    series = RatioSeries(group=spec.descriptor(),
                         witness=witness_label(witness, d_hat), method=method)
    for n in n_list:
        element = make_witness(spec, witness, n, index, d_hat)
        l2 = coefficient_norm(element, "l2")
        if l2 == 0.0:
            continue
        est = norm_bracket(element, method=method, index=index, **settings)
        series.entries.append(RatioEntry(n=n, norm_lower=est.lower,
                                         norm_upper=est.upper, l2=l2))
    return series


# -- exponent fitting ----------------------------------------------------------


@dataclass
class ExponentFit:
    """Least-squares fit of log(value) against log(1+n)."""

    slope: float
    intercept: float
    residual_sum: float
    r_squared: float
    window: tuple
    points: int

    @property
    def constant(self):
        """exp(intercept): the multiplicative constant of the fitted power law."""
        return math.exp(self.intercept)


def fit_loglog(pairs, window=(4, None)):
    """Fit log y = slope * log(1+n) + intercept over window; needs >= 3 points."""
    lo, hi = window
    pts = [(n, y) for n, y in pairs
           if n >= lo and (hi is None or n <= hi) and y > 0]
    if len(pts) < 3:
        raise ValueError(f"degenerate fit window {window!r}: {len(pts)} usable points")
    xs = [math.log1p(n) for n, _ in pts]
    ys = [math.log(y) for _, y in pts]
    line = least_squares(xs, ys)
    if line is None:
        raise ValueError("degenerate fit window: no spread in n")
    slope, intercept = line
    m = len(pts)
    mean_y = sum(ys) / m
    ss_res = sum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    # constant data (ss_tot at float-dust level) is fit perfectly by slope 0
    if ss_tot <= 1e-20 * max(1.0, mean_y * mean_y) * m:
        r2 = 1.0
    else:
        r2 = min(1.0, max(0.0, 1.0 - ss_res / ss_tot))
    return ExponentFit(slope=slope, intercept=intercept, residual_sum=ss_res,
                       r_squared=r2, window=(lo, hi if hi is not None else pts[-1][0]),
                       points=m)


def fit_exponent(series: RatioSeries, window=(4, None), which="lower"):
    return fit_loglog(((e.n, e.ratio(which)) for e in series.entries), window)


def rd_constant_series(series: RatioSeries, s, which="lower",
                       growth_threshold=1.25):
    """C_s(n) = ratio(n) / (1+n)^s with a divergence-trend verdict.

    "divergent" needs the last half of the series nondecreasing and total
    growth last/first >= growth_threshold; anything else is "bounded trend".
    No finite computation proves unboundedness, so this is a trend call.
    """
    points = [(e.n, e.ratio(which) / (1.0 + e.n) ** s) for e in series.entries]
    if not points:
        raise ValueError("empty ratio series")
    values = [c for _, c in points]
    tail = values[len(values) // 2:]
    monotone = all(b >= a - 1e-12 for a, b in zip(tail, tail[1:]))
    grew = values[-1] >= growth_threshold * values[0]
    verdict = "divergent" if (monotone and grew) else "bounded trend"
    return points, verdict


def delocalize_constant(C, s, eps):
    """Constant turning a ball-wise bound into a weighted-norm bound.

    Splitting along the annuli {2^n - 1 <= |g| < 2^(n+1) - 1} and applying
    Cauchy-Schwarz across annuli gives
    C' = 2^s C (sum_n 4^(-eps n))^(1/2) = 2^s C (1 - 4^(-eps))^(-1/2).
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    if C < 0:
        raise ValueError("C must be >= 0")
    return (2.0 ** s) * C / math.sqrt(1.0 - 4.0 ** (-eps))


# -- exact pointwise inequalities ----------------------------------------------


def _product_slack(x, y, rhs, index: LengthIndex = None,
                   budget=DEFAULT_BUDGET):
    """min of (x * y)(g) - rhs(g) over both supports for sphere functions
    x, y and rhs on one group: radial on a free group of ``radial_rank``,
    elsewhere expanded from ``index``."""
    if radial_rank(x.spec) is not None:
        lhs = radial_convolve(x, y).coeffs
        return min((lhs[i] if i < len(lhs) else 0.0)
                   - (rhs.coeffs[i] if i < len(rhs.coeffs) else 0.0)
                   for i in range(len(x.coeffs) + len(y.coeffs) - 1))
    lhs = convolve(radial_to_algebra(x, index), radial_to_algebra(y, index),
                   budget=budget)
    return pointwise_geq(lhs, radial_to_algebra(rhs, index))[1]


def _ball_product_slacks(spec, total, top, index: LengthIndex = None,
                         budget=DEFAULT_BUDGET):
    """(n, slack) of the ball product bound at (n, total - n), n = 1..top:
    the min of chi(B_n) * chi(B_total) - |B_n| over B_{total-n}.

    chi(B_n) * chi(B_total) is the prefix sum over m <= n of
    chi(S_m) * chi(B_total), so one pass over the spheres serves every n.
    The products come by radius from the sphere recursion, in Python ints,
    on a free group of ``radial_rank``, else by element from ``convolve``
    on ``index``.  Every coefficient is an integer count, so the slack is
    exact.  ``budget`` bounds the support of the sum.
    """
    spheres = sphere_sizes(spec, total, index)
    balls = list(accumulate(spheres))
    rank = radial_rank(spec)
    if rank is not None:
        lhs = np.zeros(total + top + 1, dtype=object)
        ball = np.array([1] * (total + 1), dtype=object)
        for n, product in enumerate(sphere_multiples(rank, ball, top + 1)):
            lhs[: len(product)] += product
            if n:
                yield n, min(lhs[: total - n + 1]) - balls[n]
        return
    ball = radial_to_algebra(RadialElement(spec=spec, coeffs=[1.0] * (total + 1),
                                           sizes=spheres), index)
    lhs = {}
    for n in range(top + 1):
        product = convolve(char_sphere(index, n), ball, budget=budget)
        for g, c in product.coeffs.items():
            lhs[g] = lhs.get(g, 0.0) + c
        if budget is not None and len(lhs) > budget:
            raise BudgetExceededError(
                f"convolution support passed {budget} elements")
        if n:
            yield n, min(lhs[g] for g in index.ball(total - n)) - balls[n]


def verify_ball_product_bound(spec, n, k, index: LengthIndex = None,
                              budget=DEFAULT_BUDGET):
    """Check chi(B_n) * chi(B_{n+k}) >= |B_n| chi(B_k) on the ball B_k.

    Holds with slack exactly 0 for every group: each g in B_n contributes to
    the coefficient at every h in B_k because g^-1 h lands in B_{n+k}.
    Returns (ok, min slack), exact at any radius (see
    ``_ball_product_slacks``).
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    *_, (_, slack) = _ball_product_slacks(spec, n + k, n, index, budget)
    return (slack >= GEQ_TOLERANCE, float(slack))


def ball_product_sweep(spec, max_sum, index: LengthIndex = None,
                       budget=DEFAULT_BUDGET):
    """Min slack of the ball product bound over all n, k >= 1 with n+k <= max_sum.

    Returns (ok, min slack, (n, k)); of equal slacks the first (n, k) in
    lexicographic order is the one reported.
    """
    if max_sum < 2:
        raise ValueError("max_sum must be >= 2")
    slack, worst = min(
        (float(slack), (n, total - n))
        for total in range(2, max_sum + 1)
        for n, slack in _ball_product_slacks(spec, total, total - 1, index,
                                             budget))
    return (slack >= GEQ_TOLERANCE, slack, worst)


def doubling_ratios(spec, r, k_max, index: LengthIndex = None):
    """Consecutive l2 ratios ||chi(B_{r(k+1)})||_2 / ||chi(B_{rk})||_2, k <= k_max."""
    if r < 1 or k_max < 1:
        raise ValueError("r and k_max must be >= 1")
    sizes = ball_sizes(spec, r * (k_max + 1), index)
    ratios = []
    for k in range(1, k_max + 1):
        try:
            ratios.append(math.sqrt(sizes[r * (k + 1)] / sizes[r * k]))
        except OverflowError:
            raise BudgetExceededError(
                f"the ball size ratio |B_{r * (k + 1)}|/|B_{r * k}| of "
                f"{spec.descriptor()} leaves the float range") from None
    return ratios


def verify_doubling(spec, r, k_max, index: LengthIndex = None):
    """(min ratio, min ratio >= 2) over k in [1, k_max]."""
    ratios = doubling_ratios(spec, r, k_max, index)
    min_ratio = min(ratios)
    return (min_ratio, min_ratio >= 2.0)


# -- power-weighted normalized-ball series ---------------------------------------


@dataclass
class BallSeries:
    """Truncation of sum_{k>=1} k^(-alpha) chi(B_{rk}) / ||chi(B_{rk})||_2.

    ``function`` is the series as a sphere function: on sphere i it equals
    shell_values[j-1] for j = max(1, ceil(i/r)), i.e. the tail sum
    sum_{k=j..K} k^(-alpha)/||chi(B_{rk})||_2.  Norms and products come from
    it; ``radial_to_algebra`` expands it where a dense element is needed.
    """

    r: int
    alpha: float
    K: int
    ball_size_at_rk: list
    function: RadialElement

    @property
    def spec(self):
        return self.function.spec

    @property
    def group(self):
        return self.spec.descriptor()

    @property
    def shell_values(self):
        return self.function.coeffs[self.r::self.r]

    def value_on_sphere(self, i):
        values = self.function.coeffs
        return values[i] if i < len(values) else 0.0

    def weighted_l2(self, t):
        total = sum(v ** 2 * (1.0 + i) ** (2.0 * t) * s
                    for i, (v, s) in enumerate(zip(self.function.coeffs,
                                                   self.function.sizes)))
        return math.sqrt(total)

    def ball_l2(self, k):
        return math.sqrt(self.ball_size_at_rk[k - 1])

    def min_doubling_ratio(self):
        """Min of ||chi(B_{r(k+1)})||_2/||chi(B_{rk})||_2 over pairs inside the
        truncation (k = 1..K-1); inf when K = 1."""
        if self.K == 1:
            return math.inf
        return min(self.ball_l2(k + 1) / self.ball_l2(k)
                   for k in range(1, self.K))

    def to_json_dict(self):
        return {
            "group": self.group,
            "r": self.r,
            "alpha": self.alpha,
            "K": self.K,
            "ball_sizes": list(self.ball_size_at_rk),
            "shell_values": list(self.shell_values),
        }


def build_ball_series(spec, r, alpha, K, index: LengthIndex = None):
    """Construct the truncated series as a sphere function; ``index`` is read
    only for sphere sizes without a closed form.  Ball sizes past the float
    range raise BudgetExceededError."""
    if r < 1 or K < 1:
        raise ValueError("r and K must be >= 1")
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    top = r * K
    spheres = sphere_sizes(spec, top, index)
    balls = list(accumulate(spheres))
    _check_float_range(spec, balls)
    ball_at_rk = [balls[r * k] for k in range(1, K + 1)]

    shell = [0.0] * K
    tail = 0.0
    for k in range(K, 0, -1):
        tail += k ** (-alpha) / math.sqrt(ball_at_rk[k - 1])
        shell[k - 1] = tail

    values = [shell[0]] + [shell[(i - 1) // r] for i in range(1, top + 1)]
    return BallSeries(r=r, alpha=alpha, K=K, ball_size_at_rk=ball_at_rk,
                      function=RadialElement(spec=spec, coeffs=values,
                                             sizes=spheres))


@dataclass
class SeriesL2Bounds:
    lower: float       # sum_{k<=K} k^(-2 alpha); holds unconditionally
    actual: float      # ||series||_2^2
    upper: float       # 4 * lower; asserted only under doubling
    doubling_ok: bool
    min_doubling_ratio: float

    def to_json_dict(self):
        return {"lower": self.lower, "actual": self.actual, "upper": self.upper,
                "doubling_ok": self.doubling_ok,
                "min_doubling_ratio": self.min_doubling_ratio}


def ball_series_l2_bounds(series: BallSeries):
    """Two-sided bounds for ||series||_2^2 against the zeta partial sum.

    The lower bound keeps only diagonal inner products (all terms are
    nonnegative).  The upper bound 4x rests on the l2 doubling of consecutive
    truncation balls; ``doubling_ok`` reports whether that held.
    """
    diag = sum(k ** (-2.0 * series.alpha) for k in range(1, series.K + 1))
    min_ratio = series.min_doubling_ratio()
    return SeriesL2Bounds(lower=diag,
                          actual=radial_inner(series.function, series.function),
                          upper=4.0 * diag,
                          doubling_ok=bool(min_ratio >= 2.0),
                          min_doubling_ratio=min_ratio)


@dataclass
class SeriesProductReport:
    ok: bool
    min_slack: float
    # per j: (j, sum_{k<=K-j} (j+k)^-(a+b), j^-(a+b-1)/(a+b-1)); diagnostic only
    tail_comparison: list


def verify_series_product_bound(spec, r, alpha, beta, K,
                                index: LengthIndex = None,
                                budget=DEFAULT_BUDGET):
    """Finite pointwise bound for the product of two truncated series.

    Checks S(alpha) * S(beta) >= sum_{j,k>=1, j+k<=K} k^(-alpha) (j+k)^(-beta)
    chi(B_{rj})/||chi(B_{rj})||_2, which follows from the ball product bound
    plus ||chi(B_{r(j+k)})||_2 <= ||chi(B_{rj})||_2 ||chi(B_{rk})||_2 term by
    term, so the slack is expected >= 0 for every group.  The reported tail
    comparison against the integral j^-(a+b-1)/(a+b-1) is a convergence
    diagnostic, never an assertion: truncated sums fall below the integral.
    """
    if alpha <= 0 or beta <= 0 or alpha + beta <= 1:
        raise ValueError("need alpha, beta > 0 with alpha + beta > 1")
    za = build_ball_series(spec, r, alpha, K, index)
    zb = build_ball_series(spec, r, beta, K, index)

    weights = [sum(k ** (-alpha) * (j + k) ** (-beta) for k in range(1, K - j + 1))
               for j in range(1, K)]

    # the right side as a function of the sphere radius, 0 past r(K-1)
    rhs = [0.0] * (r * K + 1)
    for j, w in enumerate(weights, start=1):
        c = w / za.ball_l2(j)
        for i in range(r * j + 1):
            rhs[i] += c
    rhs = RadialElement(spec=spec, coeffs=rhs, sizes=za.function.sizes)
    min_slack = _product_slack(za.function, zb.function, rhs, index, budget)

    power = alpha + beta
    tails = [(j, sum((j + k) ** (-power) for k in range(1, K - j + 1)),
              j ** (-(power - 1.0)) / (power - 1.0))
             for j in range(1, K)]
    return SeriesProductReport(ok=min_slack >= GEQ_TOLERANCE,
                               min_slack=min_slack, tail_comparison=tails)


# -- sphere series divergence ---------------------------------------------------


@dataclass
class SphereSumReport:
    d_hat: float
    partial_sums: list            # partial_sums[m-1] = sum_{n<=m} (1+n)^(-d_hat) |S_n|
    increments: list              # [(m, S(2m) - S(m))] for m = N//4, N//2

    def final(self):
        return self.partial_sums[-1]


def harmonic_sphere_sum(spec, d_hat, N, index: LengthIndex = None):
    """Partial sums of sum_n (1+n)^(-d_hat) |S_n|.

    With d_hat at the growth degree the series diverges (|S_n| grows like
    n^(d-1)); with d_hat too large the doubling increments S(2m) - S(m) die
    out, which is how a wrong exponent shows up.
    """
    if d_hat <= 0:
        raise ValueError("d_hat must be > 0")
    if N < 1:
        raise ValueError("N must be >= 1")
    sizes = sphere_sizes(spec, N, index)
    _check_float_range(spec, list(accumulate(sizes)))
    sums = []
    total = 0.0
    for n in range(1, N + 1):
        total += (1.0 + n) ** (-d_hat) * sizes[n]
        sums.append(total)
    increments = []
    for m in (N // 4, N // 2):
        if m >= 1 and 2 * m <= N:
            increments.append((m, sums[2 * m - 1] - sums[m - 1]))
    return SphereSumReport(d_hat=d_hat, partial_sums=sums, increments=increments)


# -- heredity -------------------------------------------------------------------


@dataclass
class HeredityRow:
    n: int
    subgroup_count: int
    sub_ratio_lower: float
    sub_ratio_upper: float
    ambient_ratio_lower: float
    ambient_ratio_upper: float

    @property
    def dominated(self):
        return self.sub_ratio_lower <= self.ambient_ratio_upper + 1e-9


@dataclass
class HeredityReport:
    ok: bool
    rows: list


def verify_heredity(embedding: Embedding, n_list, sub_index: LengthIndex,
                    ambient_index: LengthIndex = None, method="auto", **settings):
    """Subgroup witness ratios, measured in the ambient word-length, against
    the ambient ball-witness ratio at the same n.

    For each n the subgroup witness is the indicator of the elements whose
    image has ambient length <= n; its image lands in the ambient n-ball and
    stays injective, so domination is the expected outcome.  Raises
    CoverageError when the enumerated subgroup range cannot certify the
    requested n (some longer subgroup element might still have a short image).
    Both ratios come from norm_bracket with ``method`` and ``settings``.
    """
    n_list = list(n_list)
    sub = embedding.sub
    elems = [g for m in range(sub_index.radius + 1) for g in sub_index.sphere(m)]
    image_length = {g: embedding.ambient_length(g, ambient_index) for g in elems}

    top_sphere = sub_index.sphere(sub_index.radius)
    if top_sphere:
        fringe = min(image_length[g] for g in top_sphere)
        if fringe <= max(n_list):
            raise CoverageError(
                f"subgroup index radius {sub_index.radius} cannot certify "
                f"n up to {max(n_list)}: outermost images reach length {fringe}")

    rows = []
    for n in n_list:
        members = [g for g in elems if image_length[g] <= n]
        coeffs = {g: 1.0 for g in members}
        radius = max((sub_index.length(g) for g in members), default=0)
        witness = AlgebraElement(spec=sub, coeffs=coeffs, support_radius=radius)
        sub_est = norm_bracket(witness, method=method, index=sub_index, **settings)
        sub_l2 = math.sqrt(len(members))

        amb = make_witness(embedding.ambient, "ball", n, ambient_index)
        amb_est = norm_bracket(amb, method=method, index=ambient_index, **settings)
        amb_l2 = coefficient_norm(amb, "l2")
        rows.append(HeredityRow(
            n=n, subgroup_count=len(members),
            sub_ratio_lower=sub_est.lower / sub_l2,
            sub_ratio_upper=sub_est.upper / sub_l2,
            ambient_ratio_lower=amb_est.lower / amb_l2,
            ambient_ratio_upper=amb_est.upper / amb_l2))
    return HeredityReport(ok=all(r.dominated for r in rows), rows=rows)


def standard_embeddings():
    """Named generator-image maps for the embeddings shipped with the CLI."""
    z = FreeAbelian(1)
    z2 = FreeAbelian(2)
    f2 = FreeGroup(2)
    trivial = FiniteCyclic(1)
    return {
        "Z:Z^2": (z, z2, {(1,): (1, 0)}),
        "Z:Z^2:diag": (z, z2, {(1,): (1, 1)}),
        "e:Z^2": (trivial, z2, {}),
        "Z:F2": (z, f2, {(1,): "a"}),
        "Z:Z": (z, z, {(1,): (1,)}),
    }


def standard_embedding(name, check_radius=3):
    try:
        sub, ambient, images = standard_embeddings()[name]
    except KeyError:
        raise ValueError(f"unknown embedding {name!r}; choose from "
                         f"{sorted(standard_embeddings())}") from None
    return embed(sub, ambient, images, check_radius=check_radius)


# -- incompatible-bounds trace ----------------------------------------------------


@dataclass
class DivergenceParameters:
    """Exponents for the incompatibility trace at a hypothetical s < 1/2.

    Constraints: s < t < 1/2, alpha > 1/2 + t, beta > 1/2, and
    alpha + beta - 1 <= 1/2 (so the product series cannot be
    square-summable while both factors are controlled).
    """

    s: float
    t: float
    alpha: float
    beta: float

    def __post_init__(self):
        if not 0.0 <= self.s < 0.5:
            raise ValueError("need 0 <= s < 1/2")
        if not self.s < self.t < 0.5:
            raise ValueError("need s < t < 1/2")
        if not self.alpha > 0.5 + self.t:
            raise ValueError("need alpha > 1/2 + t")
        if not self.beta > 0.5:
            raise ValueError("need beta > 1/2")
        if not self.alpha + self.beta - 1.0 <= 0.5:
            raise ValueError("need alpha + beta - 1 <= 1/2")


@dataclass
class ContradictionReport:
    params: DivergenceParameters
    r: int
    K: int
    weighted_norm: float          # ||S(alpha)||_{2,t}
    weighted_bound: float         # (2r)^t ||S(alpha - t)||_2
    weighted_ok: bool
    beta_l2: float                # ||S(beta)||_2
    beta_bound: float             # 2 sqrt(sum k^(-2 beta)); valid under doubling
    beta_ok: bool
    min_doubling_ratio: float
    exhibit_exponent: float       # 2 (alpha + beta - 1) <= 1
    exhibit_partial_sums: list    # partial sums of k^(-2(alpha+beta-1)); unbounded

    def to_json_dict(self):
        return {
            "params": {"s": self.params.s, "t": self.params.t,
                       "alpha": self.params.alpha, "beta": self.params.beta},
            "r": self.r, "K": self.K,
            "weighted_norm": self.weighted_norm,
            "weighted_bound": self.weighted_bound,
            "weighted_ok": self.weighted_ok,
            "beta_l2": self.beta_l2,
            "beta_bound": self.beta_bound,
            "beta_ok": self.beta_ok,
            "min_doubling_ratio": self.min_doubling_ratio,
            "exhibit_exponent": self.exhibit_exponent,
            "exhibit_partial_sums": list(self.exhibit_partial_sums),
        }


def contradiction_trace(spec, params: DivergenceParameters, r, K,
                        index: LengthIndex = None):
    """Numerical shadow of the incompatibility at s < 1/2 on ``spec``.

    Requires the doubling condition at scale r (the construction's standing
    assumption).  Reports (i) the weighted norm of the alpha-series against
    its (2r)^t bound, (ii) the l2 norm of the beta-series against its
    convergent bound, and (iii) the unbounded partial sums standing in for
    the series at exponent alpha + beta - 1, which no square-summable element
    can carry.
    """
    za = build_ball_series(spec, r, params.alpha, K, index)
    min_ratio = za.min_doubling_ratio()
    if min_ratio < 2.0:
        raise RdlabError(
            f"doubling fails on {spec.descriptor()} at r={r} "
            f"(min ratio {min_ratio:.4f} < 2); pick a faster-growing group or larger r")

    weighted = za.weighted_l2(params.t)
    za_shift = build_ball_series(spec, r, params.alpha - params.t, K, index)
    bound = (2.0 * r) ** params.t * coefficient_norm(za_shift.function, "l2")

    zb = build_ball_series(spec, r, params.beta, K, index)
    beta_l2 = coefficient_norm(zb.function, "l2")
    beta_bound = 2.0 * math.sqrt(sum(k ** (-2.0 * params.beta)
                                     for k in range(1, K + 1)))

    gamma = params.alpha + params.beta - 1.0
    sums = []
    total = 0.0
    for k in range(1, K + 1):
        total += k ** (-2.0 * gamma)
        sums.append(total)

    rel = 1e-9
    return ContradictionReport(
        params=params, r=r, K=K,
        weighted_norm=weighted, weighted_bound=bound,
        weighted_ok=weighted <= bound * (1 + rel),
        beta_l2=beta_l2, beta_bound=beta_bound,
        beta_ok=beta_l2 <= beta_bound * (1 + rel),
        min_doubling_ratio=min_ratio,
        exhibit_exponent=2.0 * gamma,
        exhibit_partial_sums=sums)


# -- consolidated report -----------------------------------------------------------


@dataclass
class RdReport:
    """Growth and witness measurements with divergence verdicts per s."""

    group: str
    growth_fit: ExponentFit
    ball_fit: ExponentFit
    sphere_fit: ExponentFit
    ball_series: RatioSeries
    sphere_series: RatioSeries
    constant_series: dict         # s -> {"points": [(n, C_s)], "verdict": str}
    manifest_ref: str = None

    def to_json_dict(self):
        def fit_dict(f):
            return {"slope": f.slope, "intercept": f.intercept,
                    "residual_sum": f.residual_sum, "r_squared": f.r_squared,
                    "window": list(f.window), "points": f.points}
        return {
            "group": self.group,
            "growth_fit": fit_dict(self.growth_fit),
            "ball_fit": fit_dict(self.ball_fit),
            "sphere_fit": fit_dict(self.sphere_fit),
            "ball_series": self.ball_series.to_json_dict(),
            "sphere_series": self.sphere_series.to_json_dict(),
            "constant_series": {
                str(s): {"points": [[n, c] for n, c in data["points"]],
                         "verdict": data["verdict"]}
                for s, data in self.constant_series.items()},
            "manifest_ref": self.manifest_ref,
        }


def build_report(spec, n_list, s_values=(), method="auto",
                 index: LengthIndex = None, window=(4, None), **settings):
    n_list = list(n_list)
    balls = ball_sizes(spec, max(n_list), index)
    growth_fit = fit_loglog(((n, balls[n]) for n in n_list), window)
    ball_ser = ratio_series(spec, "ball", n_list, method=method, index=index,
                            **settings)
    sphere_ser = ratio_series(spec, "sphere", n_list, method=method, index=index,
                              **settings)
    constant = {}
    for s in s_values:
        points, verdict = rd_constant_series(ball_ser, s)
        constant[s] = {"points": points, "verdict": verdict}
    return RdReport(group=spec.descriptor(),
                    growth_fit=growth_fit,
                    ball_fit=fit_exponent(ball_ser, window),
                    sphere_fit=fit_exponent(sphere_ser, window),
                    ball_series=ball_ser,
                    sphere_series=sphere_ser,
                    constant_series=constant)
