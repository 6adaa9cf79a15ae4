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
  chi(B_n) chi(B_{n+k}) >= |B_n| chi(B_k), radial on free groups and
  counted pair by pair elsewhere, and its consequence for products of
  power-weighted normalized-ball series, posed on sphere functions and
  checked by one product check (radial on free groups, dense elsewhere);
* the l2 doubling condition ||chi(B_{r(k+1)})||_2 >= 2 ||chi(B_{rk})||_2 and
  the resulting two-sided l2 bounds for those series;
* subgroup domination (heredity) checks through an embedding;
* the sphere series sum (1+n)^{-d} |S_n| whose divergence pins the growth
  degree from below.

Sphere and ball sizes come from the group's growth series, through
``groups.sphere_sizes`` and ``groups.ball_sizes``.  Products of sphere
functions on free groups come from the one sphere recursion,
``norms.radial_partial_products``; this module orchestrates and builds no
arrays of its own.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field
from itertools import accumulate

from .algebra import (
    AlgebraElement,
    GEQ_TOLERANCE,
    ball_product_minima,
    convolve,
    float_sum,
    least,
    least_slack_on_spheres,
)
from .errors import BudgetExceededError, CoverageError
from .groups import (
    DEFAULT_BUDGET,
    Embedding,
    FiniteCyclic,
    FreeAbelian,
    FreeGroup,
    ball_index,
    ball_sizes,
    embed,
    holds_balls,
    reaching,
    sphere_sizes,
)
from .norms import (
    RadialElement,
    RadialSums,
    coefficient_norm,
    op_norm_l1_bracket,
    op_norm_positive_amenable,
    op_norm_power_iteration,
    op_norm_trace_power,
    radial_convolve,
    radial_inner,
    radial_partial_products,
    radial_rank,
    radial_to_algebra,
    window_sums,
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


# -- witness elements and ratio series ----------------------------------------


def _witness_weights(witness, n, d_hat, start=0):
    """Coefficients on S_start..S_n of the witness supported in B_n: "ball",
    "sphere", or "aN" (power-weighted sphere sum with exponent d_hat:
    sum_{1<=m<=n} (1+m)^(-d_hat) chi(S_m)).  The ball and aN coefficient at
    each radius does not depend on n."""
    if witness == "ball":
        return [1.0] * (n + 1 - start)
    if witness == "sphere":
        return [0.0] * (n - start) + [1.0]
    if witness == "aN":
        if d_hat is None or not d_hat > 0:
            raise ValueError("the aN witness needs d_hat > 0")
        return [0.0][start:] + [(1.0 + m) ** (-d_hat)
                                for m in range(max(start, 1), n + 1)]
    raise ValueError(f"unknown witness {witness!r}")


def _witness_family(spec, witness, n_list, d_hat):
    """The witness at each n of the strictly increasing ``n_list``, each
    carrying its ``RadialSums``.

    Ball and aN coefficients are prefixes of one sequence, so witness n
    extends the sums, the coefficients and the ball size |B_n| of the
    previous n by the radii past it; a sphere witness sums its one nonzero
    term.  A family to max(n_list) = N then costs O(N) Python steps plus
    the list copies each witness owns.  Each n is checked on its own, in
    this order: its radius, the float range of |B_n|, the witness name and
    d_hat.
    """
    weights, sums, ball, done = [], RadialSums(), 0, 0   # radii < done added
    for n in n_list:
        if n < 0:
            raise ValueError("witness radius must be >= 0")
        sizes = sphere_sizes(spec, n)
        ball += sum(sizes[done:])
        if ball > sys.float_info.max:
            _check_float_range(spec, list(accumulate(sizes)))
        if witness == "sphere":
            coeffs = _witness_weights(witness, n, d_hat)
            carried = RadialSums().extended(coeffs[n:], sizes[n:])
        else:
            weights += _witness_weights(witness, n, d_hat, start=done)
            coeffs = weights[: n + 1]
            sums = carried = sums.extended(coeffs[done:], sizes[done:])
        done = n + 1
        yield RadialElement(spec=spec, coeffs=coeffs, sums=carried)


def witness_element(x: RadialElement, budget=DEFAULT_BUDGET):
    """The dense form of the witness sphere function ``x``, listed from its
    ball under ``budget``."""
    return radial_to_algebra(x, budget)


def witness_label(witness, d_hat=None):
    return f"aN({d_hat:g})" if witness == "aN" else witness


def make_witness(spec, witness, n, d_hat=None):
    """The witness as a sphere function (norm_bracket expands it where an
    estimator needs the dense element).  Ball sizes past the float range
    raise BudgetExceededError."""
    return next(_witness_family(spec, witness, [n], d_hat))


def norm_bracket(a, method="auto", *, depth=6, exponent=None, R=None,
                 iters=200, seed=0, budget=DEFAULT_BUDGET):
    """Dispatch to the estimator ``method`` names for ``a``, an AlgebraElement
    or a RadialElement: "auto" is "exact" for a nonnegative element on an
    amenable group, else "trace".  A sphere function is expanded to its dense
    element where the estimator needs group elements: for power iteration,
    which compresses to the ball B_R (R defaults to the support radius, at
    least 1), and for the trace ladder on a group without radial
    convolution."""
    if method == "auto":
        method = "exact" if a.spec.amenable and a.is_nonnegative() else "trace"
    if isinstance(a, RadialElement) and (
            method == "power" or method == "trace" and radial_rank(a.spec) is None):
        a = witness_element(a, budget)
    if method == "exact":
        return op_norm_positive_amenable(a)
    if method == "trace":
        return op_norm_trace_power(a, depth=depth, budget=budget,
                                   exponent=exponent)
    if method == "power":
        return op_norm_power_iteration(
            a, R=max(a.support_radius, 1) if R is None else R, iters=iters,
            seed=seed, budget=budget)
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

    CSV_HEADER = ("group", "witness", "n", "norm_lower", "norm_upper", "l2",
                  "ratio_lower", "ratio_upper")

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


@holds_balls
def ratio_series(spec, witness, n_list, method="auto", d_hat=None, **settings):
    """Norm bracket and l2 norm of the witness at each n (skips empty witnesses).

    Witnesses are sphere functions, so their l2 norm and the l1 and exact
    norms need sphere sizes only; the other methods expand them (see
    norm_bracket).  ``settings`` are the estimator settings of norm_bracket.

    The n must increase strictly: each witness extends the running l1, l2
    and sign sums of the previous one by the radii past it (see
    ``_witness_family``), so those sums cost O(max n) over the whole
    series, with the bits ``make_witness`` and ``coefficient_norm`` give
    each witness alone.  The first witness expanded loads the ball of the
    largest n (``reaching``), which then serves the others.
    """
    n_list = list(n_list)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n values must be strictly increasing")
    series = RatioSeries(group=spec.descriptor(),
                         witness=witness_label(witness, d_hat), method=method)
    with reaching(spec, max(n_list, default=0)):
        for n, element in zip(n_list, _witness_family(spec, witness, n_list,
                                                      d_hat)):
            l2 = coefficient_norm(element, "l2")
            if l2 == 0.0:
                continue
            est = norm_bracket(element, method=method, **settings)
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


# the fewest points fit_loglog fits, and the least n a report fits
FIT_POINTS = 3
REPORT_FIT_FROM = 4


def fit_loglog(pairs, window=(4, None)):
    """Fit log y = slope * log(1+n) + intercept over window; needs at least
    FIT_POINTS points."""
    lo, hi = window
    pts = [(n, y) for n, y in pairs
           if n >= lo and (hi is None or n <= hi) and y > 0]
    if len(pts) < FIT_POINTS:
        raise ValueError(f"degenerate fit window {window!r}: {len(pts)} usable points")
    xs = [math.log1p(n) for n, _ in pts]
    if len(set(xs)) < 2:
        raise ValueError("degenerate fit window: no spread in n")
    ys = [math.log(y) for _, y in pts]
    m = len(pts)
    mean_x = float_sum(xs) / m
    mean_y = float_sum(ys) / m
    sxx = float_sum((x - mean_x) ** 2 for x in xs)
    slope = float_sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sxx
    intercept = mean_y - slope * mean_x
    ss_res = float_sum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys))
    ss_tot = float_sum((y - mean_y) ** 2 for y in ys)
    # constant data (ss_tot at float-dust level) is fit perfectly by slope 0
    if ss_tot <= 1e-20 * max(1.0, mean_y * mean_y) * m:
        r2 = 1.0
    else:
        r2 = min(1.0, max(0.0, 1.0 - ss_res / ss_tot))
    return ExponentFit(slope=slope, intercept=intercept, residual_sum=ss_res,
                       r_squared=r2, window=(lo, hi if hi is not None else pts[-1][0]),
                       points=m)


def fit_exponent(series: RatioSeries, window=(4, None), which="lower"):
    """Fit the series' ratios over ``window``; fewer than FIT_POINTS n there
    with a nonzero witness raise ValueError naming the witness."""
    require_nonzero(series, window, FIT_POINTS, "a fit")
    return fit_loglog(((e.n, e.ratio(which)) for e in series.entries), window)


def require_nonzero(series: RatioSeries, window, need, use):
    """ValueError naming the witness unless ``series`` has ``need`` n in
    ``window`` (lo, hi), hi None for no upper end; the series holds only the
    n whose witness is nonzero."""
    lo, hi = window
    nonzero = sum(e.n >= lo and (hi is None or e.n <= hi) for e in series.entries)
    if nonzero < need:
        where = f">= {lo}" if hi is None else f"in {lo}:{hi}"
        raise ValueError(
            f"the {series.witness} witness on {series.group} is nonzero at "
            f"{nonzero} of its n {where}; {use} needs {need}")


# the growth last/first of C_s(n) that rd_constant_series calls divergent
DIVERGENT_GROWTH = 1.25


def rd_constant_series(series: RatioSeries, s, which="lower"):
    """C_s(n) = ratio(n) / (1+n)^s with a divergence-trend verdict.

    "divergent" needs the last half of the series nondecreasing and total
    growth last/first >= DIVERGENT_GROWTH; anything else is "bounded trend".
    No finite computation proves unboundedness, so this is a trend call.
    """
    points = [(e.n, e.ratio(which) / (1.0 + e.n) ** s) for e in series.entries]
    if not points:
        raise ValueError("empty ratio series")
    values = [c for _, c in points]
    tail = values[len(values) // 2:]
    monotone = all(b >= a - 1e-12 for a, b in zip(tail, tail[1:]))
    grew = values[-1] >= DIVERGENT_GROWTH * values[0]
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


def _product_slack(x, y, rhs, budget=DEFAULT_BUDGET):
    """min of (x * y)(g) - rhs[i] over the g in S_i, i < len(rhs), for sphere
    functions x and y on one group and ``rhs`` listing one value per sphere:
    radial on a free group of ``radial_rank``, elsewhere the dense product of
    x and y expanded from their balls.  A nan slack is the min (``least``)."""
    if radial_rank(x.spec) is not None:
        lhs = radial_convolve(x, y).coeffs
        return least(lhs[i] - c for i, c in enumerate(rhs))
    lhs = convolve(radial_to_algebra(x, budget), radial_to_algebra(y, budget),
                   budget=budget)
    return least_slack_on_spheres(lhs, ball_index(x.spec, len(rhs) - 1, budget),
                                  rhs)


def _ball_product_slacks(spec, max_sum, top, budget=DEFAULT_BUDGET):
    """(n, k, slack) of the ball product bound, the min of
    chi(B_n) * chi(B_{n+k}) - |B_n| over B_k, for n + k = max_sum,
    max_sum - 1, ..., 2 and n = 1..min(top, n + k - 1).

    On a free group of ``radial_rank``, chi(B_n) * chi(B_{n+k}) is the
    prefix sum over m <= n of chi(S_m) * chi(B_{n+k}), by radius from one
    ``radial_partial_products`` per n + k in Python ints, run when the
    generator reaches that n + k.  Elsewhere its coefficient at g is
    #{x in B_n : |x^-1 g| <= n + k}, and every slack is read from the one
    table of ``ball_product_minima`` for max_sum, counted over the pairs with
    |x| + |g| <= max_sum only, whose x^-1 g the ball B_max_sum holds; the
    slacks are floats there.  Every coefficient is an integer
    count, so the slack is exact.  ``budget`` bounds the entries of the
    largest table of counts (see ``ball_pair_counts``).
    """
    balls = ball_sizes(spec, max_sum)
    radial = radial_rank(spec) is not None
    least = None if radial else ball_product_minima(
        ball_index(spec, max_sum, budget), max_sum, top, budget)
    for total in range(max_sum, 1, -1):
        width = min(top, total - 1)
        if radial:
            x, y = (RadialElement(spec=spec, coeffs=[1] * (m + 1))
                    for m in (width, total))
            for n, lhs in enumerate(radial_partial_products(x, y)):
                if n:
                    yield n, total - n, min(lhs[: total - n + 1]) - balls[n]
        else:
            for n in range(1, width + 1):
                yield n, total - n, float(least[n][total] - balls[n])


def verify_ball_product_bound(spec, n, k, budget=DEFAULT_BUDGET):
    """Check chi(B_n) * chi(B_{n+k}) >= |B_n| chi(B_k) on the ball B_k.

    Holds with slack exactly 0 for every group: each g in B_n contributes to
    the coefficient at every h in B_k because g^-1 h lands in B_{n+k}.
    Returns (ok, min slack), exact at any radius: counted from the pairs
    (g, h) with |g| + |h| <= n + k, from the ball B_{n+k}, on groups without
    radial convolution; ``budget`` bounds that ball and the table of counts
    (see ``_ball_product_slacks``).
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    slack = next(slack for m, _, slack in
                 _ball_product_slacks(spec, n + k, n, budget) if m == n)
    return (slack >= 0, float(slack))


def ball_product_sweep(spec, max_sum, budget=DEFAULT_BUDGET):
    """Min slack of the ball product bound over all n, k >= 1 with n+k <= max_sum.

    Returns (ok, min slack, (n, k)); of equal slacks the first (n, k) in
    lexicographic order is the one reported.
    """
    if max_sum < 2:
        raise ValueError("max_sum must be >= 2")
    slack, worst = min(
        (float(slack), (n, k)) for n, k, slack in
        _ball_product_slacks(spec, max_sum, max_sum - 1, budget))
    return (slack >= 0, slack, worst)


def _l2_ratios(spec, r, ball_at_rk):
    """||chi(B_{r(k+1)})||_2 / ||chi(B_{rk})||_2 for consecutive entries of
    ``ball_at_rk`` = [|B_r|, |B_2r|, ...]: the square root of the double
    nearest the exact quotient |B_{r(k+1)}|/|B_{rk}| of the integer sizes."""
    ratios = []
    for k, (small, big) in enumerate(zip(ball_at_rk, ball_at_rk[1:]), start=1):
        try:
            ratios.append(math.sqrt(big / small))
        except OverflowError:
            raise BudgetExceededError(
                f"the ball size ratio |B_{r * (k + 1)}|/|B_{r * k}| of "
                f"{spec.descriptor()} leaves the float range") from None
    return ratios


def doubling_ratios(spec, r, k_max):
    """Consecutive l2 ratios ||chi(B_{r(k+1)})||_2 / ||chi(B_{rk})||_2, k <= k_max."""
    if r < 1 or k_max < 1:
        raise ValueError("r and k_max must be >= 1")
    return _l2_ratios(spec, r, ball_sizes(spec, r * (k_max + 1))[r::r])


def verify_doubling(spec, r, k_max):
    """(min ratio, min ratio >= 2) over k in [1, k_max]."""
    min_ratio = min(doubling_ratios(spec, r, k_max))
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

    def to_json_dict(self):
        return {
            "group": self.group,
            "r": self.r,
            "alpha": self.alpha,
            "K": self.K,
            "ball_sizes": list(self.ball_size_at_rk),
            "shell_values": list(self.shell_values),
        }


def build_ball_series(spec, r, alpha, K):
    """Construct the truncated series as a sphere function.  Ball sizes past
    the float range raise BudgetExceededError."""
    if r < 1 or K < 1:
        raise ValueError("r and K must be >= 1")
    if not alpha > 0:
        raise ValueError("alpha must be > 0")
    top = r * K
    balls = ball_sizes(spec, top)
    _check_float_range(spec, balls)
    ball_at_rk = [balls[r * k] for k in range(1, K + 1)]

    shell = [0.0] * K
    tail = 0.0
    for k in range(K, 0, -1):
        tail += k ** (-alpha) / math.sqrt(ball_at_rk[k - 1])
        shell[k - 1] = tail

    values = [shell[0]] + [shell[(i - 1) // r] for i in range(1, top + 1)]
    return BallSeries(r=r, alpha=alpha, K=K, ball_size_at_rk=ball_at_rk,
                      function=RadialElement(spec=spec, coeffs=values))


# why a SeriesL2Bounds has no upper end
NO_UPPER_REASON = ("l2 doubling fails, and 4 * lower bounds ||series||_2^2 "
                   "only under l2 doubling")


@dataclass
class SeriesL2Bounds:
    lower: float       # sum_{k<=K} k^(-2 alpha); holds unconditionally
    actual: float      # ||series||_2^2
    upper: float       # 4 * lower under l2 doubling, else None
    doubling_ok: bool
    min_doubling_ratio: float   # None when K = 1: no pair of balls

    def to_json_dict(self):
        out = asdict(self)
        if self.upper is None:
            out["upper_reason"] = NO_UPPER_REASON
        return out


def ball_series_l2_bounds(series: BallSeries):
    """Bounds for ||series||_2^2 against the zeta partial sum.

    The lower bound keeps only diagonal inner products (all terms are
    nonnegative).  The upper bound 4x rests on the l2 doubling of consecutive
    truncation balls, the ``doubling_ratios`` of the pairs k = 1..K-1, and is
    None where that fails; ``doubling_ok`` reports whether it held, and holds
    vacuously at K = 1.
    """
    diag = float_sum(k ** (-2.0 * series.alpha) for k in range(1, series.K + 1))
    min_ratio = min(_l2_ratios(series.spec, series.r, series.ball_size_at_rk),
                    default=None)
    doubling_ok = min_ratio is None or min_ratio >= 2.0
    return SeriesL2Bounds(lower=diag,
                          actual=radial_inner(series.function, series.function),
                          upper=4.0 * diag if doubling_ok else None,
                          doubling_ok=doubling_ok,
                          min_doubling_ratio=min_ratio)


@dataclass
class SeriesProductReport:
    ok: bool
    min_slack: float
    # per j: (j, sum_{k<=K-j} (j+k)^-(a+b), j^-(a+b-1)/(a+b-1)); diagnostic only
    tail_comparison: list


@holds_balls
def verify_series_product_bound(spec, r, alpha, beta, K, budget=DEFAULT_BUDGET):
    """Finite pointwise bound for the product of two truncated series.

    Checks S(alpha) * S(beta) >= sum_{j,k>=1, j+k<=K} k^(-alpha) (j+k)^(-beta)
    chi(B_{rj})/||chi(B_{rj})||_2, which follows from the ball product bound
    plus ||chi(B_{r(j+k)})||_2 <= ||chi(B_{rj})||_2 ||chi(B_{rk})||_2 term by
    term, so the slack is expected >= 0 for every group.  The reported tail
    comparison against the integral j^-(a+b-1)/(a+b-1) is a convergence
    diagnostic, never an assertion: truncated sums fall below the integral.

    ``min_slack`` is the least slack on B_{r(K-1)}, where the right side
    lives.  Outside it the right side is 0 and the product is nonnegative,
    so the bound holds there and ``ok`` reads the slack inside only.
    """
    if not (alpha > 0 and beta > 0 and alpha + beta > 1):
        raise ValueError("need alpha, beta > 0 with alpha + beta > 1")
    za = build_ball_series(spec, r, alpha, K)
    zb = build_ball_series(spec, r, beta, K)

    # weights[j-1] = sum_{k <= K-j} k^-alpha (j+k)^-beta, for j = 1..K-1
    weights = window_sums([n ** (-beta) for n in range(2, K + 1)],
                          [k ** (-alpha) for k in range(1, K)])
    # the right side on S_i is the sum over j >= i/r of weights[j-1] /
    # ||chi(B_{rj})||_2, added from the least j; it is 0 past r(K-1)
    from_j = window_sums([w / math.sqrt(size) for w, size
                          in zip(weights, za.ball_size_at_rk)]) + [0.0]
    rhs = [from_j[0]] + [from_j[(i - 1) // r] for i in range(1, r * (K - 1) + 1)]
    min_slack = _product_slack(za.function, zb.function, rhs, budget)

    power = alpha + beta
    tail_sums = window_sums([n ** (-power) for n in range(2, K + 1)])
    tails = [(j, tail, j ** (-(power - 1.0)) / (power - 1.0))
             for j, tail in enumerate(tail_sums, start=1)]
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


def harmonic_sphere_sum(spec, d_hat, N):
    """Partial sums of sum_n (1+n)^(-d_hat) |S_n|.

    With d_hat at the growth degree the series diverges (|S_n| grows like
    n^(d-1)); with d_hat too large the doubling increments S(2m) - S(m) die
    out, which is how a wrong exponent shows up.
    """
    if not d_hat > 0:
        raise ValueError("d_hat must be > 0")
    if N < 1:
        raise ValueError("N must be >= 1")
    sizes = sphere_sizes(spec, N)
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
        return self.sub_ratio_lower <= self.ambient_ratio_upper - GEQ_TOLERANCE


@dataclass
class HeredityReport:
    ok: bool
    rows: list


@holds_balls
def verify_heredity(embedding: Embedding, n_list, method="auto", **settings):
    """Subgroup witness ratios, measured in the ambient word-length, against
    the ambient ball-witness ratio at the same n.

    For each n the subgroup witness is the indicator of the elements whose
    image has ambient length <= n; its image lands in the ambient n-ball and
    stays injective, so domination is the expected outcome.  The witnesses
    are listed from the subgroup ball one radius past max(n), and
    CoverageError is raised when its outermost sphere cannot certify the
    requested n (some longer subgroup element might still have a short image).
    Both ratios come from norm_bracket with ``method`` and ``settings``, the
    ambient ones through ``ratio_series``, so ``n_list`` must increase.
    """
    n_list = list(n_list)
    sub, top = embedding.sub, max(n_list) + 1
    sub_index = ball_index(sub, top, settings.get("budget", DEFAULT_BUDGET))
    elems = sub_index.ball(top)
    image_length = {g: embedding.ambient_length(g) for g in elems}

    top_sphere = sub_index.sphere(top)
    if top_sphere:
        fringe = min(image_length[g] for g in top_sphere)
        if fringe <= max(n_list):
            raise CoverageError(
                f"subgroup ball radius {top} cannot certify "
                f"n up to {max(n_list)}: outermost images reach length {fringe}")

    # a ball witness never has l2 norm 0, so the series has an entry per n
    ambient = ratio_series(embedding.ambient, "ball", n_list, method,
                           **settings)
    # positions in ``elems`` by image length, ties in ball order: each n's
    # members are the previous n's and the next run of these, kept in ball
    # order (sorted merges the two runs in one pass)
    order = sorted(range(len(elems)), key=lambda p: image_length[elems[p]])
    positions, taken, radius = [], 0, 0
    rows = []
    for n, amb in zip(n_list, ambient.entries):
        start = taken
        while taken < len(order) and image_length[elems[order[taken]]] <= n:
            taken += 1
        new = order[start:taken]
        radius = max([radius, *(sub.word_length(elems[p]) for p in new)])
        positions = sorted(positions + new)
        coeffs = dict.fromkeys(map(elems.__getitem__, positions), 1.0)
        witness = AlgebraElement(spec=sub, coeffs=coeffs, support_radius=radius)
        sub_est = norm_bracket(witness, method=method, **settings)
        sub_l2 = math.sqrt(len(positions))
        rows.append(HeredityRow(
            n=n, subgroup_count=len(positions),
            sub_ratio_lower=sub_est.lower / sub_l2,
            sub_ratio_upper=sub_est.upper / sub_l2,
            ambient_ratio_lower=amb.ratio_lower,
            ambient_ratio_upper=amb.ratio_upper))
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


def standard_embedding(name):
    try:
        sub, ambient, images = standard_embeddings()[name]
    except KeyError:
        raise ValueError(f"unknown embedding {name!r}; choose from "
                         f"{sorted(standard_embeddings())}") from None
    return embed(sub, ambient, images)


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
        return {
            "group": self.group,
            "growth_fit": asdict(self.growth_fit),
            "ball_fit": asdict(self.ball_fit),
            "sphere_fit": asdict(self.sphere_fit),
            "ball_series": self.ball_series.to_json_dict(),
            "sphere_series": self.sphere_series.to_json_dict(),
            "constant_series": {
                str(s): {"points": [[n, c] for n, c in data["points"]],
                         "verdict": data["verdict"]}
                for s, data in self.constant_series.items()},
            "manifest_ref": self.manifest_ref,
        }


@holds_balls
def build_report(spec, n_list, s_values=(), method="auto", **settings):
    n_list = list(n_list)
    window = (REPORT_FIT_FROM, None)
    balls = ball_sizes(spec, max(n_list))
    growth_fit = fit_loglog(((n, balls[n]) for n in n_list), window)
    ball_ser = ratio_series(spec, "ball", n_list, method=method, **settings)
    sphere_ser = ratio_series(spec, "sphere", n_list, method=method, **settings)
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
