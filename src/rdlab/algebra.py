"""Finitely supported real coefficient functions on a group.

Elements are sparse maps from canonical group elements to nonzero doubles.
Products are convolutions: (a*b)(h) = sum_g a(g) b(g^-1 h).  All operations
treat elements as immutable and are safe to run concurrently.

Coefficients are real: every witness family handled here (ball and sphere
indicators, their power-weighted sums) is real and nonnegative, so complex
storage would buy nothing.

A product that the numpy kernel forms stays in the kernel's own form,
``ArrayCoeffs``: int64 coordinate columns and float64 values.  Products,
adjoints, inner products, traces and norms read those arrays; the dict of
integer tuples is built the first time anything else reads the element's
coefficients.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceededError, IndexRadiusError, SpecMismatchError
from .groups import (
    COORD_LIMIT,
    DEFAULT_BUDGET,
    GroupSpec,
    IntegerTupleGroup,
    LengthIndex,
    cell_keys,
)

# Slack threshold below which a floating comparison counts as a violation;
# the test surface is dominated by exact small-integer sums.
GEQ_TOLERANCE = -1e-9

# Element pairs per numpy block: bigger blocks add peak memory, not speed.
PAIR_BLOCK = 1 << 16
# Bounding a product box takes 4^d corner pairs in d coordinates.
MAX_CORNER_PAIRS = 1 << 16
# Array kernels hold a few numbers per cell of the products' bounding box;
# a box of more cells than this per possible product stays on the dict loop.
BOX_CELLS_PER_PRODUCT = 4
# Cell keys of a box of this many cells or more could leave int64.
MAX_BOX_CELLS = 1 << 62


class ArrayCoeffs(Mapping):
    """Coefficients of an integer-tuple group held as arrays: int64
    coordinate columns ``cols`` (one row per coordinate, one column per
    element) and float64 values ``data``, in the order of the columns, with
    no exact zero.  A product lists its support in increasing element order.

    The length reads the arrays.  Every other read builds the dict of integer
    tuples once (``decoded``) and reads that, so the mapping compares, prints
    and iterates as that dict does.
    """

    __slots__ = ("cols", "data", "_dict")

    def __init__(self, cols, data):
        self.cols = cols
        self.data = data
        self._dict = None

    def decoded(self):
        """The dict of integer tuples, built at its first read."""
        if self._dict is None:
            self._dict = dict(zip(zip(*self.cols.tolist()), self.data.tolist()))
        return self._dict

    def __len__(self):
        return len(self.data)

    def __getitem__(self, g):
        return self.decoded()[g]

    def __iter__(self):
        return iter(self.decoded())

    def get(self, g, default=None):
        return self.decoded().get(g, default)

    def items(self):
        return self.decoded().items()

    def values(self):
        return self.decoded().values()

    def __eq__(self, other):
        return self.decoded() == other

    def __repr__(self):
        return repr(self.decoded())


def _array_coeffs(cols, data):
    """ArrayCoeffs of ``cols`` and ``data`` with the exact zeros dropped."""
    keep = data != 0.0
    if not keep.all():
        cols, data = cols[:, keep], data[keep]
    return ArrayCoeffs(cols, data)


@dataclass
class AlgebraElement:
    """Sparse real function on a group; ``support_radius`` bounds its support.

    ``coeffs`` maps elements to nonzero coefficients: a dict, or the
    ``ArrayCoeffs`` of a product the numpy kernel formed, which builds its
    dict at the first read of anything but its length.  Either compares
    equal to the same dict, so an element equals its dict twin.

    ``support_radius`` is the smallest *known* n with support inside B_n; it
    is maintained arithmetically (sums under convolution, maxima under linear
    combination), not recomputed from lengths.
    """

    spec: GroupSpec
    coeffs: Mapping = field(repr=False)
    support_radius: int = 0

    def __post_init__(self):
        if isinstance(self.coeffs, ArrayCoeffs):
            return
        coeffs = dict(self.coeffs)
        if 0.0 in coeffs.values():
            coeffs = {g: c for g, c in coeffs.items() if c != 0.0}
        self.coeffs = coeffs

    def __len__(self):
        return len(self.coeffs)

    def value(self, g):
        return self.coeffs.get(g, 0.0)

    def is_nonnegative(self):
        if isinstance(self.coeffs, ArrayCoeffs):
            return bool((self.coeffs.data >= 0.0).all())
        return all(c >= 0.0 for c in self.coeffs.values())

    def to_json_dict(self):
        key = self.spec.element_key
        pairs = sorted((key(g), c) for g, c in self.coeffs.items())
        return {
            "group": self.spec.descriptor(),
            "support_radius": self.support_radius,
            "coeffs": [[k, c] for k, c in pairs],
        }

    @classmethod
    def from_json_dict(cls, spec, data):
        """The element that ``to_json_dict`` wrote; malformed data raises
        ValueError and data for another group SpecMismatchError."""
        if not isinstance(data, dict):
            raise ValueError("element JSON must be an object, not "
                             f"{type(data).__name__}")
        missing = [k for k in ("group", "support_radius", "coeffs") if k not in data]
        if missing:
            raise ValueError(f"element JSON has no {', '.join(missing)}")
        if data["group"] != spec.descriptor():
            raise SpecMismatchError(
                f"element JSON is for {data['group']!r}, not {spec.descriptor()!r}")
        radius = data["support_radius"]
        if type(radius) is not int:
            raise ValueError("element JSON has support_radius "
                             f"{radius!r}, not an integer")
        if radius < 0:
            raise ValueError(f"element JSON has support_radius {radius}, below 0")
        if not isinstance(data["coeffs"], list):
            raise ValueError("element JSON coeffs must be a list of [key, value]")
        coeffs = {}
        for pair in data["coeffs"]:
            if not (isinstance(pair, list) and len(pair) == 2
                    and isinstance(pair[0], str)):
                raise ValueError(f"element JSON coefficient {pair!r} is not a "
                                 "[key, value] pair with a string key")
            k, c = pair
            g = spec.parse_key(k)
            if g in coeffs:
                raise ValueError(f"element JSON lists {spec.element_key(g)!r} twice")
            # a JSON number, finite as a double; strings and booleans are not
            if not (type(c) in (int, float) and abs(c) <= sys.float_info.max):
                raise ValueError(f"element JSON gives {k!r} the value {c!r}")
            coeffs[g] = float(c)
        element = cls(spec=spec, coeffs=coeffs, support_radius=radius)
        element.check_support()
        return element

    def check_support(self):
        """Raise ValueError naming the first support element outside
        B_{support_radius}."""
        spec, radius = self.spec, self.support_radius
        for g in self.coeffs:
            length = spec.word_length(g)
            if length > radius:
                raise ValueError(
                    f"element {spec.element_key(g)!r} has length {length}, "
                    f"beyond support_radius {radius}")


def point_mass(spec, g):
    """The delta function at ``g`` (the convolution identity when g = e)."""
    spec.check_element(g)
    return AlgebraElement(spec=spec, coeffs={g: 1.0},
                          support_radius=spec.word_length(g))


def char_ball(index: LengthIndex, n):
    coeffs = {g: 1.0 for g in index.ball(n)}
    return AlgebraElement(spec=index.spec, coeffs=coeffs, support_radius=n)


def char_sphere(index: LengthIndex, n):
    coeffs = {g: 1.0 for g in index.sphere(n)}
    return AlgebraElement(spec=index.spec, coeffs=coeffs, support_radius=n)


def sphere_sum(index: LengthIndex, coeffs):
    """The element sum_j coeffs[j] chi(S_j), listed sphere by sphere in the
    order of ``index``, zero coefficients left out.  From the int64 rows of
    the index when it has them and every coefficient is a float, as
    ``ArrayCoeffs``; otherwise as a dict."""
    top = len(coeffs) - 1
    if index.rows is not None and all(type(c) is float for c in coeffs):
        data = np.repeat(np.array(coeffs, dtype=np.float64),
                         index.sphere_sizes[: top + 1])
        cols = index.rows[: index.ball_sizes[top]].T
        out = _array_coeffs(cols, data)
    else:
        out = {g: c for j, c in enumerate(coeffs) if c != 0.0
               for g in index.sphere(j)}
    return AlgebraElement(spec=index.spec, coeffs=out, support_radius=top)


class ProductKeys:
    """Integer keys for the products of two element lists, pair by pair.

    Pair p = i * len(inner) + j is the product of outer[i] and inner[j]
    (inner[j] * outer[i] with ``flip``): the order of a loop with the outer
    list outside.  Keys number the cells of the products' bounding box
    (corner ``lo``, side lengths ``spans``) as ``cell_keys`` does, so equal
    products get equal keys and ``columns`` decodes keys.

    Keys are formed without the group law.  ``cell_keys`` is linear in the
    coordinates, and g*h adds the coordinates of g and h plus the group's
    ``bilinear_terms``, so with s_k the stride of coordinate k

        key(g*h) = K(g) + K'(h) + sum over terms (i, j, k) of g_i h_j s_k,

    where K numbers the outer elements from the least corner c of their own
    box and K' the inner ones from lo - c (under ``flip`` the roles in the
    terms swap).  K and K' are computed once per element; a block of keys is
    one ``np.add.outer`` and, on H3, one ``np.multiply.outer``.

    Every number stays inside int64.  Coordinates are below COORD_LIMIT =
    2^31 in absolute value, so the corners' products are below 2^62 + 2^32,
    and the box has fewer than 2^60 cells, since a product allocates a
    float64 per cell (and the box-cell guard of ``product_keys`` allows at
    most BOX_CELLS_PER_PRODUCT cells per pair).  Each digit g_k - c_k lies
    in [0, span_k), as the box spans the outer elements in every
    coordinate, so 0 <= K < size.  H3's one term, a * b', is below 2^62 in
    absolute value and lands on the last coordinate, whose stride is 1; K'
    differs from a key of the box by the least a * b' over the corners,
    also below 2^62.  So K' and K + K' = key - a * b' stay below
    2^62 + 2^60 in absolute value, and adding the term gives the key, in
    [0, size).  Increasing key is increasing element order: the digits
    order as the coordinates do, the first the most significant.
    """

    def __init__(self, spec, outer, inner, flip, lo, spans):
        self.lo = lo
        self.spans = spans
        self.size = math.prod(spans)
        corner = outer.min(axis=1).tolist()
        self.outer_keys = cell_keys(outer, corner, spans)
        self.inner_keys = cell_keys(inner, [a - b for a, b in zip(lo, corner)],
                                    spans)
        strides = [math.prod(spans[k + 1:]) for k in range(len(spans))]
        # (outer column, inner column) per term; the left factor is inner
        # under flip
        self.terms = [(outer[j] * strides[k], inner[i]) if flip else
                      (outer[i] * strides[k], inner[j])
                      for i, j, k in spec.bilinear_terms]

    def blocks(self, budget=None):
        """(outer slice, inner slice, keys of their pairs) for consecutive
        blocks of at most PAIR_BLOCK pairs: whole rows, or parts of one.

        BudgetExceededError once more than ``budget`` keys have been
        touched; the keys are counted, on a bool map of the cells touched,
        only when the box has more cells than that.
        """
        height, width = len(self.outer_keys), len(self.inner_keys)
        seen = (np.zeros(self.size, dtype=bool)
                if budget is not None and self.size > budget else None)
        touched = 0
        rows = max(1, PAIR_BLOCK // width)
        step = min(width, PAIR_BLOCK)
        for r in range(0, height, rows):
            outer_ids = slice(r, min(r + rows, height))
            for c in range(0, width, step):
                inner_ids = slice(c, min(c + step, width))
                keys = np.add.outer(self.outer_keys[outer_ids],
                                    self.inner_keys[inner_ids])
                for g, h in self.terms:
                    keys += np.multiply.outer(g[outer_ids], h[inner_ids])
                keys = keys.ravel()
                if seen is not None:
                    touched += len(np.unique(keys[~seen[keys]]))
                    if touched > budget:
                        raise BudgetExceededError(
                            f"convolution support passed {budget} elements")
                    seen[keys] = True
                yield outer_ids, inner_ids, keys

    def columns(self, keys):
        """int64 coordinate columns of the product elements ``keys`` encode."""
        cols = np.empty((len(self.spans), len(keys)), dtype=np.int64)
        for k in range(len(self.spans) - 1, -1, -1):
            keys, digit = np.divmod(keys, self.spans[k])
            np.add(digit, self.lo[k], out=cols[k])
        return cols


def _coordinate_columns(elements):
    """int64 columns of integer-tuple elements, given as a list of tuples or
    as the columns themselves, or None if there are none or a coordinate
    reaches COORD_LIMIT."""
    if isinstance(elements, np.ndarray):
        cols = elements
    else:
        try:
            cols = np.array(elements, dtype=np.int64).T
        except OverflowError:
            return None
    if (cols.ndim != 2 or cols.shape[1] == 0 or cols.min() <= -COORD_LIMIT
            or cols.max() >= COORD_LIMIT):
        return None
    return cols


def _box_corners(cols):
    lo, hi = cols.min(axis=1), cols.max(axis=1)
    return np.array(list(itertools.product(*zip(lo, hi))), dtype=np.int64).T


def product_keys(spec, outer, inner, flip, max_support=None):
    """ProductKeys for outer[i] * inner[j] (inner[j] * outer[i] with ``flip``),
    formed from per-element keys and the group's ``bilinear_terms``; each
    list is of integer tuples or is their int64 coordinate columns.

    None when the group has no array law (it is no IntegerTupleGroup), a
    list is empty, a coordinate reaches COORD_LIMIT, or the bounding box has
    more than BOX_CELLS_PER_PRODUCT cells per possible product: per pair, and
    per element of ``max_support`` when given.
    """
    if not isinstance(spec, IntegerTupleGroup):
        return None
    outer_cols = _coordinate_columns(outer)
    inner_cols = _coordinate_columns(inner)
    if outer_cols is None or inner_cols is None:
        return None
    # the law is multilinear in the coordinates, so the products of the
    # operands' box corners bound every product
    g, h = _box_corners(outer_cols), _box_corners(inner_cols)
    if g.shape[1] * h.shape[1] > MAX_CORNER_PAIRS:
        return None
    g, h = g[:, :, None], h[:, None, :]
    corners = spec.multiply(h, g) if flip else spec.multiply(g, h)
    lo = [int(col.min()) for col in corners]
    spans = [int(col.max()) - low + 1 for col, low in zip(corners, lo)]
    pairs = outer_cols.shape[1] * inner_cols.shape[1]
    products = pairs if max_support is None else min(pairs, max_support)
    if math.prod(spans) > BOX_CELLS_PER_PRODUCT * products:
        return None
    return ProductKeys(spec, outer_cols, inner_cols, flip, lo, spans)


def kernel_support(coeffs):
    """The support of a coefficient map as ``product_keys`` takes it, and
    its coefficients as an array, both in the map's order: the arrays of
    ArrayCoeffs as they are, else the keys and values of the dict."""
    if isinstance(coeffs, ArrayCoeffs):
        return coeffs.cols, coeffs.data
    return list(coeffs), np.array(list(coeffs.values()))


def _all_floats(coeffs):
    return (isinstance(coeffs, ArrayCoeffs)
            or all(type(c) is float for c in coeffs.values()))


def _convolve_arrays(spec, left, right, flip, budget):
    """``_convolve_dicts`` in numpy, as ``ArrayCoeffs``, or None when a
    coefficient is not a float or ``product_keys`` gives None.

    ``np.add.at`` adds each key's terms in pair order, as the dict loop does,
    so every sum is bitwise the same.  The support is the cells whose sum is
    not zero (nan included), in increasing cell key: increasing element
    order, the order of the dict loop's result.
    """
    if not (_all_floats(left) and _all_floats(right)):
        return None
    (left_g, left_c), (right_g, right_c) = map(kernel_support, (left, right))
    keys = product_keys(spec, left_g, right_g, flip, max_support=budget)
    if keys is None:
        return None
    sums = np.zeros(keys.size)
    # products past the float range give inf and nan, as in the dict loop
    with np.errstate(over="ignore", invalid="ignore"):
        for outer_ids, inner_ids, k in keys.blocks(budget):
            np.add.at(sums, k,
                      np.outer(left_c[outer_ids], right_c[inner_ids]).ravel())
    cells = np.flatnonzero(sums)
    return ArrayCoeffs(keys.columns(cells), sums[cells])


def _convolve_dicts(mul, left, right, flip, budget):
    """sum over left x right of c_g c_h at g*h (h*g when ``flip``), as a dict
    sorted by element; the generic path for every group.  Each sum adds its
    terms in pair order, the left operand's outside."""
    out = {}
    get = out.get
    for g, cg in left.items():
        for h, ch in right.items():
            k = mul(h, g) if flip else mul(g, h)
            out[k] = get(k, 0.0) + cg * ch
        if budget is not None and len(out) > budget:
            raise BudgetExceededError(
                f"convolution support passed {budget} elements")
    return dict(sorted(out.items()))


def convolve(a: AlgebraElement, b: AlgebraElement, budget=DEFAULT_BUDGET):
    """Convolution product; cost is |supp a| * |supp b| sparse updates.

    The outer loop runs over the smaller support.  On Z^d and H3 the updates
    run in numpy blocks (``_convolve_arrays``), each product keyed by the
    sum of its factors' own cell keys, plus a * b' on H3 (``ProductKeys``),
    when all coefficients are floats, coordinates stay below 2^31 in
    absolute value, and the products' bounding box has at most
    BOX_CELLS_PER_PRODUCT cells per pair and per budgeted element;
    otherwise, and on every other group, a dict loop runs.
    Both give the same floats, bit for bit, listed in increasing element
    order.  The budget counts every element touched, including sums that
    cancel to zero.

    A product of the numpy blocks stays in their arrays (``ArrayCoeffs``),
    which the next product reads as they are; its dict is built at its
    first read.
    """
    if a.spec != b.spec:
        raise SpecMismatchError("convolution operands live on different groups")
    # outer loop over the smaller support keeps the per-row dict hot
    if len(a.coeffs) <= len(b.coeffs):
        left, right, flip = a.coeffs, b.coeffs, False
    else:
        left, right, flip = b.coeffs, a.coeffs, True
    out = _convolve_arrays(a.spec, left, right, flip, budget)
    if out is None:
        out = _convolve_dicts(a.spec.multiply, left, right, flip, budget)
    return AlgebraElement(spec=a.spec, coeffs=out,
                          support_radius=a.support_radius + b.support_radius)


# -- ball product counts --------------------------------------------------------


class _RowLengths:
    """Word lengths of the x^-1 g on int64 rows: x^-1 by ``spec.inverse`` on
    coordinate columns, x^-1 g by ``spec.multiply``, and each length read
    from a table over the bounding box (corner ``lo``, far corner ``hi``) of
    B_M, the rows ``ball``, whose cells ``cell_keys`` numbers; -1 outside
    B_M."""

    def __init__(self, index, M, width, ball, lo, hi):
        self.lo, self.hi = lo, hi
        self.spans = (hi - lo + 1).tolist()
        self.table = np.full(math.prod(self.spans), -1,
                             dtype=np.min_scalar_type(-M - 1))
        self.table[cell_keys(ball.T, lo, self.spans)] = np.repeat(
            np.arange(M + 1), index.sphere_sizes[: M + 1])
        x = index.rows[: index.ball_sizes[width]]
        inverses = index.spec.inverse(tuple(x.T))
        self.inverses = [col[None, :] for col in inverses]
        self.law = index.spec.multiply
        self.index = index

    def __call__(self, r, a, b, count):
        start = self.index.ball_sizes[r] - self.index.sphere_sizes[r]
        g = self.index.rows[start + a: start + b].T[:, :, None]
        y = self.law([col[:, :count] for col in self.inverses], tuple(g))
        inside = np.ones(y[0].shape, dtype=bool)
        for col, low, high in zip(y, self.lo, self.hi):
            inside &= (col >= low) & (col <= high)
        keys = np.where(inside, cell_keys(y, self.lo, self.spans), 0)
        return np.where(inside, self.table[keys], -1)


class _DictLengths:
    """Word lengths of the x^-1 g from ``index.lengths``; -1 outside B_M."""

    def __init__(self, index, M, width):
        spec = index.spec
        self.inverses = [spec.inverse(x) for x in index.ball(width)]
        self.spheres = index.spheres
        self.mul = spec.multiply
        self.get = index.lengths.get
        self.M = M

    def __call__(self, r, a, b, count):
        mul, get, inverses = self.mul, self.get, self.inverses[:count]
        lengths = np.fromiter((get(mul(x, g), -1) for g in self.spheres[r][a:b]
                               for x in inverses),
                              dtype=np.int64, count=(b - a) * count)
        lengths[lengths > self.M] = -1
        return lengths.reshape(b - a, count)


def _pair_lengths(index, M, width, pairs, budget):
    """The gather of ``ball_pair_counts``: ``_RowLengths`` where the index has
    int64 rows and the bounding box of B_M has at most BOX_CELLS_PER_PRODUCT
    cells per pair, and per budgeted entry, else ``_DictLengths``."""
    if index.rows is not None:
        ball = index.rows[: index.ball_sizes[M]]
        lo, hi = ball.min(axis=0), ball.max(axis=0)
        cells = math.prod((hi - lo + 1).tolist())
        limit = pairs if budget is None else min(pairs, budget)
        if cells <= BOX_CELLS_PER_PRODUCT * limit:
            return _RowLengths(index, M, width, ball, lo, hi)
    return _DictLengths(index, M, width)


def _outside_error(index, M, r, a, lengths):
    """IndexRadiusError naming the first pair of ``lengths`` (g from sphere
    r, from its a-th element on) whose x^-1 g is not in B_M."""
    spec, key = index.spec, index.spec.element_key
    i, p = np.argwhere(lengths < 0)[0].tolist()
    g = index.sphere(r)[a + i]
    x = index.ball(M)[p]
    y = spec.multiply(spec.inverse(x), g)
    return IndexRadiusError(
        f"{key(x)!r}^-1 * {key(g)!r} = {key(y)!r} is not in B_{M} of the "
        f"index of {spec.descriptor()}, although {key(x)!r} and {key(g)!r} "
        f"have lengths summing to at most {M}: the index does not fit its "
        "group")


def ball_pair_counts(index: LengthIndex, M, top=None, budget=DEFAULT_BUDGET):
    """Coefficients of chi(B_n) * chi(B_T) on the g with n + |g| <= M, counted
    pair by pair.

    Yields (r, c) for r = 0..M-1, where
    c[a, n, T] = #{x in B_n : |x^-1 g| <= T} for g = index.sphere(r)[a],
    0 <= n <= min(top, M - r) (``top`` defaults to M - 1) and 0 <= T <= M.
    So the tables for M hold the coefficient of chi(B_n) * chi(B_T) at every
    g in B_{T-n}, for every T <= M: one call serves every n + k <= M.
    Only pairs with |x| + |g| <= M are visited, so every x^-1 g lies in B_M
    and the index of radius M gives its length: c is a histogram over
    (g, |x|, |x^-1 g|) followed by prefix sums over |x| and |x^-1 g|.  The
    lengths come from ``_pair_lengths``, on int64 rows or from length dicts;
    both give the same counts.

    The c are built one at a time, so ``budget`` bounds the entries of the
    largest, max over r of |S_r| (min(top, M-r) + 1) (M+1); it is checked
    before any array is allocated.  An x^-1 g outside B_M, which only an
    index that does not fit its group can give, raises IndexRadiusError.
    """
    if index is None or index.radius < M:
        raise IndexRadiusError(f"ball product counts to radius {M} need a "
                               "LengthIndex of that radius")
    top = M - 1 if top is None else top
    sizes, balls = index.sphere_sizes, index.ball_sizes
    widths = [min(top, M - r) for r in range(M)]
    entries = max((sizes[r] * (w + 1) * (M + 1) for r, w in enumerate(widths)),
                  default=0)
    if budget is not None and entries > budget:
        raise BudgetExceededError(
            f"a table of ball product counts would hold {entries} entries, "
            f"past the budget of {budget}")
    pairs = sum(sizes[r] * balls[w] for r, w in enumerate(widths))
    lengths = _pair_lengths(index, M, max(widths, default=0), pairs, budget)
    for r, width in enumerate(widths):
        count, cell = balls[width], (width + 1) * (M + 1)
        x_keys = np.repeat(np.arange(width + 1) * (M + 1), sizes[: width + 1])
        c = np.empty((sizes[r], width + 1, M + 1), dtype=np.int64)
        step = max(1, PAIR_BLOCK // count)
        for a in range(0, sizes[r], step):
            b = min(a + step, sizes[r])
            ys = lengths(r, a, b, count)
            if ys.min() < 0:
                raise _outside_error(index, M, r, a, ys)
            keys = ys + x_keys + (np.arange(b - a) * cell)[:, None]
            c[a:b] = np.bincount(keys.ravel(), minlength=(b - a) * cell
                                 ).reshape(b - a, width + 1, M + 1)
        c.cumsum(axis=1, out=c)
        c.cumsum(axis=2, out=c)
        yield r, c


def ball_product_minima(index: LengthIndex, M, top, budget=DEFAULT_BUDGET):
    """least[n][T] for n = 0..top and T = 0..M: the least coefficient of
    chi(B_n) * chi(B_T) on B_{T-n}, min over g there of
    #{x in B_n : |x^-1 g| <= T}, as Python ints (math.inf where T < n).

    One pass over ``ball_pair_counts(index, M, top, budget)`` gives every
    cell: a g in S_r counts toward the cell (n, T) only when r <= T - n.
    """
    least = [[math.inf] * (M + 1) for _ in range(top + 1)]
    for r, c in ball_pair_counts(index, M, top, budget):
        if len(c):
            for n, row in enumerate(c.min(axis=0).tolist()):
                least[n][n + r:] = map(min, least[n][n + r:], row[n + r:])
    return least


def adjoint(a: AlgebraElement):
    """a*(g) = a(g^-1); an involution, isometric for the l2 norm.  Inverted
    column by column when ``a`` is held as ArrayCoeffs."""
    coeffs = a.coeffs
    # coordinates below 2^31 keep H3's a * b - c inside int64
    if (isinstance(coeffs, ArrayCoeffs)
            and _coordinate_columns(coeffs.cols) is not None):
        cols = np.array(a.spec.inverse(tuple(coeffs.cols)), dtype=np.int64)
        out = ArrayCoeffs(cols, coeffs.data)
    else:
        inv = a.spec.inverse
        out = {inv(g): c for g, c in coeffs.items()}
    return AlgebraElement(spec=a.spec, coeffs=out,
                          support_radius=a.support_radius)


def float_sum(values, start=0):
    """``start`` plus ``values`` added left to right, as builtin ``sum`` adds
    before Python 3.12, whose float sum compensates: a float result has the
    same bits on every supported Python."""
    return functools.reduce(operator.add, values, start)


def _array_sum(terms, start):
    """``float_sum`` of a float64 array: ``cumsum`` adds left to right."""
    if not len(terms):
        return start
    with np.errstate(over="ignore", invalid="ignore"):
        return np.cumsum(np.concatenate(([start], terms)))[-1].item()


def _values_at(coeffs: ArrayCoeffs, cols):
    """float64 values of ``coeffs`` at the points with int64 coordinate
    columns ``cols``, 0.0 at a point outside its support, found among the
    support's sorted cell keys; None when the points' joint bounding box has
    MAX_BOX_CELLS cells or more."""
    if not len(coeffs):
        return np.zeros(cols.shape[1])
    both = np.concatenate([coeffs.cols, cols], axis=1)
    lo = [int(low) for low in both.min(axis=1)]
    spans = [int(high) - low + 1 for high, low in zip(both.max(axis=1), lo)]
    if math.prod(spans) >= MAX_BOX_CELLS:
        return None
    keys, wanted = cell_keys(coeffs.cols, lo, spans), cell_keys(cols, lo, spans)
    order = np.argsort(keys)
    at = np.minimum(np.searchsorted(keys[order], wanted), len(keys) - 1)
    found = order[at]
    return np.where(keys[found] == wanted, coeffs.data[found], 0.0)


def inner(x: AlgebraElement, y: AlgebraElement):
    """sum_g x(g) y(g), over the smaller support (x's on a tie) in its order,
    added left to right from 0 by ``float_sum``.  On the arrays of two
    ArrayCoeffs when both elements are held so, with the same terms in the
    same order."""
    small, big = (x, y) if len(x.coeffs) <= len(y.coeffs) else (y, x)
    s, b = small.coeffs, big.coeffs
    if isinstance(s, ArrayCoeffs) and isinstance(b, ArrayCoeffs):
        other = b.data if s is b else _values_at(b, s.cols)
        if other is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                return _array_sum(s.data * other, 0)
    return float_sum(c * b.get(g, 0.0) for g, c in s.items())


def identity_value(x: AlgebraElement):
    """x(e), the trace of x; 0.0 off the support."""
    coeffs, e = x.coeffs, x.spec.identity()
    if isinstance(coeffs, ArrayCoeffs):
        at = np.flatnonzero((coeffs.cols == np.array(e)[:, None]).all(axis=0))
        return coeffs.data[at[0]].item() if len(at) else 0.0
    return coeffs.get(e, 0.0)


def norm(a: AlgebraElement, kind):
    """Norms on coefficients: kind is "l1", "l2", or ("l2s", s), the weighted
    norm ||a||_{2,s} = sqrt(sum |a_g|^2 (1+|g|)^{2s})."""
    arrays = isinstance(a.coeffs, ArrayCoeffs)
    if kind == "l1":
        if arrays:
            return _array_sum(np.abs(a.coeffs.data), 0.0)
        return float_sum(map(abs, a.coeffs.values()), 0.0)
    if kind == "l2":
        if arrays:
            with np.errstate(over="ignore"):
                return math.sqrt(_array_sum(a.coeffs.data * a.coeffs.data, 0))
        return math.sqrt(float_sum(c * c for c in a.coeffs.values()))
    if isinstance(kind, tuple) and kind[0] == "l2s":
        s = float(kind[1])
        if s < 0:
            raise ValueError("weight exponent s must be >= 0")
        total = 0.0
        for g, c in a.coeffs.items():
            ell = a.spec.word_length(g)
            total += c * c * (1.0 + ell) ** (2.0 * s)
        return math.sqrt(total)
    raise ValueError(f"unknown norm kind {kind!r}")


def least(values):
    """The least of ``values``, the first of equal ones, as builtin ``min``
    gives it; but the first nan when there is one, which ``min`` returns only
    when it comes first."""
    values = list(values)
    nan = next((v for v in values if v != v), None)
    return min(values) if nan is None else nan


def least_slack_on_spheres(a: AlgebraElement, index: LengthIndex, rhs):
    """``least`` of a(g) - rhs[i] over the g of S_i for i < len(rhs).  On
    the rows of the index when ``a`` is held as ArrayCoeffs and every
    rhs[i] is a float, where the minimum is nan when a slack is nan, as
    ``least``'s is.  No slack is -0.0, since a(g) is never -0.0, so no two
    equal slacks differ in sign."""
    top = len(rhs) - 1
    if (isinstance(a.coeffs, ArrayCoeffs) and index.rows is not None
            and all(type(c) is float for c in rhs)):
        values = _values_at(a.coeffs, index.rows[: index.ball_sizes[top]].T)
        if values is not None:
            rhs = np.repeat(np.array(rhs, dtype=np.float64),
                            index.sphere_sizes[: top + 1])
            with np.errstate(over="ignore", invalid="ignore"):
                return (values - rhs).min().item()
    return least(a.value(g) - c for i, c in enumerate(rhs)
                 for g in index.sphere(i))


def pointwise_geq(a: AlgebraElement, b: AlgebraElement):
    """Whether a >= b pointwise on the union of supports; returns (ok, min slack).

    Slack down to GEQ_TOLERANCE still counts as >=; a nan slack fails, and
    is the one returned.
    """
    if a.spec != b.spec:
        raise SpecMismatchError("comparison operands live on different groups")
    support = set(a.coeffs) | set(b.coeffs)
    if not support:
        return (True, 0.0)
    min_slack = math.inf
    for g in support:
        slack = a.value(g) - b.value(g)
        if slack != slack:
            return (False, slack)
        if slack < min_slack:
            min_slack = slack
    return (min_slack >= GEQ_TOLERANCE, min_slack)


def linear_combine(terms):
    """sum_i c_i a_i over (scalar, element) pairs, dropping zero coefficients."""
    terms = list(terms)
    if not terms:
        raise ValueError("linear_combine needs at least one term")
    spec = terms[0][1].spec
    out = {}
    radius = 0
    for c, a in terms:
        if a.spec != spec:
            raise SpecMismatchError("terms live on different groups")
        if c == 0.0:
            continue
        radius = max(radius, a.support_radius)
        for g, v in a.coeffs.items():
            out[g] = out.get(g, 0.0) + c * v
    return AlgebraElement(spec=spec, coeffs=out, support_radius=radius)


def scale(c, a: AlgebraElement):
    return linear_combine([(c, a)])
