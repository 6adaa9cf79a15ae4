"""Concrete finitely generated groups with word-lengths and ball enumeration.

Each group comes with a canonical element form, its standard symmetric
generating set, its rational growth series sum |S_n| z^n = P(z)/Q(z), whose
division gives every sphere size, and a closed formula for its word length.
Balls and spheres are enumerated sphere by sphere; the result is a
:class:`LengthIndex`, whose elements are listed at their first read.  The
analysis layers ask ``ball_index`` for the ball each computation needs, and
the kernels that consume one are handed it.
``sphere_sizes`` and ``ball_sizes`` answer from the
growth series and ``word_length`` from the formula, so neither reads an
index, and ``enumerate_balls`` meets its budget from the series before any
search starts.

Z^d and H3 (:class:`IntegerTupleGroup`) have an array law and a closed box
that holds B_N, and their search runs on int64 coordinate columns: with a
symmetric generating set S_{n+1} = S_n * gens minus S_{n-1} and S_n.  Each
point is keyed by its cell in that box, and a move adds the generator's key
offset; a bitmap of the cells reached, or where the box is sparse a binary
search among the keys of S_{n-1} and S_n, tells the fresh points.  Those
are keyed by the text ranks of their coordinates (:class:`TextRanks`),
through a few lookup tables over parts of the box, so one sort both drops
repeats and puts the sphere in text-key order.  Their index also holds the
ball as one array of rows, from which its element tuples are decoded.  On
F_r each word of S_n, extended by every letter that does not cancel its
last one, gives S_{n+1} already in text order.  A :class:`DirectProduct`
searches each factor by the factor's own path and assembles S_n as the
union over i + j = n of S_i(first factors) x S_j(next factor), ordered by
one int64 key per pair built from the ranks of the two keys; its element
tuples are zipped from the factors' balls.  C_m runs the search on a dict
of element values.  Every path lists each sphere in text-key order.

Canonical element values are plain hashable Python data:

==================  =============================================
group               element value
==================  =============================================
FreeAbelian(d)      tuple of d ints
DiscreteHeisenberg  (a, b, c) ints, product (a,b,c)(a',b',c') =
                    (a+a', b+b', c+c'+a*b')
FreeGroup(r)        reduced word string, lowercase generators and
                    uppercase inverses ("aB")
FiniteCyclic(m)     residue int in [0, m)
DirectProduct       tuple of factor elements
==================  =============================================

Text keys (for cache files and JSON) serialize these values: integer tuples
as "3,-2", free words verbatim, residues as decimals, product components
joined with "|".  ``parse_key`` accepts exactly the keys ``element_key``
writes: no sign on a nonnegative number, no leading zero, no space.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import math
import operator
import random
import re
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, HomomorphismError, IndexRadiusError

DEFAULT_BUDGET = 5_000_000
# Coordinates of integer-tuple elements stay below this in absolute value on
# the array paths, so that products such as H3's c + c' + a*b' fit in int64.
COORD_LIMIT = 1 << 31

_LETTERS = "abcdefghijklmnopqrstuvwxyz"

# ``embed`` checks the homomorphism on at most this many pairs of its ball,
# drawn with this seed when there are more
EMBED_SAMPLES = 200
EMBED_SEED = 0

_SERIES_TERMS = {}  # (P, Q) -> the sphere sizes computed so far

# (load, {spec: the largest ball loaded}) inside ``holding_balls``, else None
_HELD = contextvars.ContextVar("rdlab_held_balls", default=None)
# {spec: least radius of a held load}; ``reaching`` sets a new dict each time
_REACH = contextvars.ContextVar("rdlab_ball_reach", default={})


def _once_per_instance(method):
    """``method``, which takes no arguments, run once per instance: its value
    is kept on the instance under the method's name with a leading "_"."""
    key = "_" + method.__name__

    @functools.wraps(method)
    def cached(self):
        if key not in self.__dict__:
            self.__dict__[key] = method(self)
        return self.__dict__[key]
    return cached


class GroupSpec:
    """A concrete group on its standard symmetric generating set.

    Subclasses supply the group law on canonical values, the generators, the
    growth series and the word-length formula.
    """

    # -- group law ---------------------------------------------------------

    def identity(self):
        raise NotImplementedError

    def multiply(self, g, h):
        raise NotImplementedError

    def inverse(self, g):
        raise NotImplementedError

    def check_element(self, g):
        """Raise ValueError unless ``g`` is a canonical element value."""
        raise NotImplementedError

    # -- generating set ----------------------------------------------------

    def generators(self):
        raise NotImplementedError

    def generator_word(self, g):
        """A generator sequence whose product is ``g`` (not necessarily
        geodesic); used by embeddings."""
        raise NotImplementedError

    # -- closed forms and naming ----------------------------------------------

    def word_length(self, g):
        """The word length of ``g`` on the standard generators."""
        raise NotImplementedError

    def growth_series(self):
        """Integer tuples (P, Q), Q[0] = 1, with P/Q = sum |S_n| z^n."""
        raise NotImplementedError

    def element_key(self, g):
        raise NotImplementedError

    def parse_key(self, s):
        raise NotImplementedError

    def descriptor(self):
        raise NotImplementedError

    @property
    def amenable(self):
        raise NotImplementedError

    # -- identity-sensitive plumbing ----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, GroupSpec):
            return NotImplemented
        return self.descriptor() == other.descriptor()

    def __hash__(self):
        return hash(self.descriptor())

    def __repr__(self):
        return f"{type(self).__name__}({self.descriptor()!r})"


def parse_int(text):
    """The int whose decimal ``str`` is ``text``; ValueError for any other
    text, such as "+2", "01", "-0" or " 1"."""
    value = int(text)
    if str(value) != text:
        raise ValueError(f"{text!r} is not a canonical integer")
    return value


class IntegerTupleGroup(GroupSpec):
    """A group on tuples of ints with an array law, keyed as "3,-2".

    ``multiply`` and ``inverse`` also take elements as coordinate columns,
    one int64 array per coordinate (the arrays of multiply's two operands
    broadcast against each other), and give the columns of the results.
    Coordinate k of g*h is g_k + h_k plus g_i * h_j for each (i, j, k) in
    ``bilinear_terms``, so every result coordinate is a polynomial of degree
    at most one in each input coordinate, and its extremes over a box of
    inputs lie at the box's corners.
    """

    bilinear_terms = ()

    def ball_bounds(self, N):
        """The largest |x_i| over the ball B_N, one bound per coordinate i."""
        raise NotImplementedError

    def element_key(self, g):
        return ",".join(map(str, g))

    def parse_key(self, s):
        g = tuple(parse_int(p) for p in s.split(","))
        self.check_element(g)
        return g


class FreeAbelian(IntegerTupleGroup):
    """Z^d with unit vectors and their negatives as standard generators."""

    def __init__(self, rank):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.rank = rank

    def identity(self):
        return (0,) * self.rank

    def multiply(self, g, h):
        return tuple(x + y for x, y in zip(g, h))

    def inverse(self, g):
        return tuple(-x for x in g)

    def check_element(self, g):
        if not (isinstance(g, tuple) and len(g) == self.rank
                and all(isinstance(x, int) for x in g)):
            raise ValueError(f"not a Z^{self.rank} element: {g!r}")

    def generators(self):
        gens = []
        for i in range(self.rank):
            e = tuple(1 if j == i else 0 for j in range(self.rank))
            gens.append(e)
            gens.append(self.inverse(e))
        return gens

    def generator_word(self, g):
        word = []
        for i, x in enumerate(g):
            step = tuple((1 if x > 0 else -1) if j == i else 0 for j in range(self.rank))
            word.extend([step] * abs(x))
        return word

    def word_length(self, g):
        return sum(abs(x) for x in g)

    def ball_bounds(self, N):
        return (N,) * self.rank

    @_once_per_instance
    def growth_series(self):
        # ((1 + z) / (1 - z))^d, the d-th power of Z's series
        return (_poly_product([(1, 1)] * self.rank),
                _poly_product([(1, -1)] * self.rank))

    def descriptor(self):
        return f"Z^{self.rank}"

    @property
    def amenable(self):
        return True


class DiscreteHeisenberg(IntegerTupleGroup):
    """Integer Heisenberg group on triples with standard generators x, y.

    Product rule: (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a*b').  The center is
    generated by z = (0,0,1) = x y x^-1 y^-1.  Its growth series is Shapiro's
    and its word length Blachere's formula ("Word distance on the discrete
    Heisenberg group", Colloq. Math. 95, 2003).
    """

    X = (1, 0, 0)
    Y = (0, 1, 0)
    bilinear_terms = ((0, 1, 2),)    # c + c' gains a * b'

    def identity(self):
        return (0, 0, 0)

    def multiply(self, g, h):
        a, b, c = g
        a2, b2, c2 = h
        return (a + a2, b + b2, c + c2 + a * b2)

    def inverse(self, g):
        a, b, c = g
        return (-a, -b, a * b - c)

    def check_element(self, g):
        if not (isinstance(g, tuple) and len(g) == 3
                and all(isinstance(x, int) for x in g)):
            raise ValueError(f"not a Heisenberg element: {g!r}")

    def generators(self):
        x, y = self.X, self.Y
        return [x, self.inverse(x), y, self.inverse(y)]

    def generator_word(self, g):
        # (a,b,c) = x^a y^b z^(c-ab); z = x y x^-1 y^-1, z^-1 = y x y^-1 x^-1
        a, b, c = g
        x, y = self.X, self.Y
        xi, yi = self.inverse(x), self.inverse(y)
        word = [x if a > 0 else xi] * abs(a)
        word += [y if b > 0 else yi] * abs(b)
        twists = c - a * b
        z_word = [x, y, xi, yi] if twists > 0 else [y, x, yi, xi]
        word += z_word * abs(twists)
        return word

    def word_length(self, g):
        # (a, b, c) -> (-a, b, -c), (a, -b, -c) and (b, a, ab - c) are
        # automorphisms that permute the generators, so they keep lengths:
        # they bring g to a, b >= 0 and c >= 0 (c > ab after the swap)
        a, b, c = g
        if a < 0:
            a, c = -a, -c
        if b < 0:
            b, c = -b, -c
        if c < 0:
            a, b, c = b, a, a * b - c
        x, y = min(a, b), max(a, b)
        if c <= a * b:
            return a + b
        if c <= y * y:
            return 2 * -(-c // y) + y - x
        # 2 ceil(2 sqrt(c)) - a - b, with ceil(sqrt(4c)) = isqrt(4c - 1) + 1
        return 2 * (math.isqrt(4 * c - 1) + 1) - a - b

    def ball_bounds(self, N):
        # a word with p letters x^+-1 has |c| <= p (N - p), and
        # x^ceil(N/2) y^floor(N/2) = (ceil(N/2), floor(N/2), floor(N^2/4))
        return N, N, N * N // 4

    @_once_per_instance
    def growth_series(self):
        # Shapiro (1989, Math. Ann. 285):
        # (1 + z + 4z^2 + 11z^3 + 8z^4 + 21z^5 + 6z^6 + 9z^7 + z^8)
        #   / ((1 - z)^4 (1 + z^2) (1 + z + z^2))
        return ((1, 1, 4, 11, 8, 21, 6, 9, 1),
                _poly_product([(1, -1)] * 4 + [(1, 0, 1), (1, 1, 1)]))

    def descriptor(self):
        return "H3"

    @property
    def amenable(self):
        return True


class FreeGroup(GroupSpec):
    """Free group of rank r on letters a, b, c, ... with uppercase inverses."""

    def __init__(self, rank):
        if not 1 <= rank <= len(_LETTERS):
            raise ValueError(f"rank must be in [1, {len(_LETTERS)}]")
        self.rank = rank
        self._alphabet = _LETTERS[:rank]

    def identity(self):
        return ""

    def multiply(self, g, h):
        i = len(g)
        j = 0
        while i > 0 and j < len(h) and g[i - 1] == h[j].swapcase():
            i -= 1
            j += 1
        return g[:i] + h[j:]

    def inverse(self, g):
        return g[::-1].swapcase()

    def check_element(self, g):
        if not isinstance(g, str):
            raise ValueError(f"not a free word: {g!r}")
        for ch in g:
            if ch.lower() not in self._alphabet:
                raise ValueError(f"letter {ch!r} outside rank-{self.rank} alphabet")
        for u, v in zip(g, g[1:]):
            if u == v.swapcase():
                raise ValueError(f"word not reduced: {g!r}")

    def generators(self):
        gens = []
        for ch in self._alphabet:
            gens.append(ch)
            gens.append(ch.upper())
        return gens

    def generator_word(self, g):
        return list(g)

    def word_length(self, g):
        return len(g)

    @_once_per_instance
    def growth_series(self):
        # |S_n| = 2r (2r-1)^(n-1) for n >= 1
        return (1, 1), (1, 1 - 2 * self.rank)

    def element_key(self, g):
        return g

    def parse_key(self, s):
        self.check_element(s)
        return s

    def descriptor(self):
        return f"F{self.rank}"

    @property
    def amenable(self):
        return self.rank < 2


class FiniteCyclic(GroupSpec):
    """Cyclic group of order m, residues 0..m-1, generators +-1 mod m."""

    def __init__(self, order):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order

    def identity(self):
        return 0

    def multiply(self, g, h):
        return (g + h) % self.order

    def inverse(self, g):
        return (-g) % self.order

    def check_element(self, g):
        if not (isinstance(g, int) and 0 <= g < self.order):
            raise ValueError(f"not a residue mod {self.order}: {g!r}")

    def generators(self):
        gens = []
        for g in (1 % self.order, (self.order - 1) % self.order):
            if g != 0 and g not in gens:
                gens.append(g)
        return gens

    def generator_word(self, g):
        m = self.order
        if g <= m - g:
            return [1 % m] * g
        return [(m - 1) % m] * (m - g)

    def word_length(self, g):
        return min(g, self.order - g)

    @_once_per_instance
    def growth_series(self):
        # two residues at each radius below m/2, and one at m/2 for even m
        m = self.order
        return (1,) + (2,) * ((m - 1) // 2) + (1,) * (1 - m % 2), (1,)

    def element_key(self, g):
        return str(g)

    def parse_key(self, s):
        g = parse_int(s)
        self.check_element(g)
        return g

    def descriptor(self):
        return f"C{self.order}"

    @property
    def amenable(self):
        return True


class DirectProduct(GroupSpec):
    """Direct product of group specs; nested products are flattened.

    The generators are the factors' generators, each acting on its own
    coordinate, so the word-length is the sum of the factor lengths.
    """

    def __init__(self, factors):
        flat = []
        for f in factors:
            if isinstance(f, DirectProduct):
                flat.extend(f.factors)
            else:
                flat.append(f)
        if len(flat) < 1:
            raise ValueError("product needs at least one factor")
        self.factors = flat

    def identity(self):
        return tuple(f.identity() for f in self.factors)

    def multiply(self, g, h):
        return tuple(f.multiply(x, y) for f, x, y in zip(self.factors, g, h))

    def inverse(self, g):
        return tuple(f.inverse(x) for f, x in zip(self.factors, g))

    def check_element(self, g):
        if not (isinstance(g, tuple) and len(g) == len(self.factors)):
            raise ValueError(f"not a product element: {g!r}")
        for f, x in zip(self.factors, g):
            f.check_element(x)

    def _embed(self, i, x):
        return tuple(x if j == i else f.identity()
                     for j, f in enumerate(self.factors))

    def generators(self):
        gens = []
        for i, f in enumerate(self.factors):
            for s in f.generators():
                gens.append(self._embed(i, s))
        return gens

    def generator_word(self, g):
        word = []
        for i, (f, x) in enumerate(zip(self.factors, g)):
            word.extend(self._embed(i, s) for s in f.generator_word(x))
        return word

    def word_length(self, g):
        return sum(f.word_length(x) for f, x in zip(self.factors, g))

    @_once_per_instance
    def growth_series(self):
        # S_n is the union over i + j = n of S_i(prefix) x S_j(factor)
        parts = zip(*(f.growth_series() for f in self.factors))
        return tuple(map(_poly_product, parts))

    def element_key(self, g):
        return "|".join([f.element_key(x) for f, x in zip(self.factors, g)])

    def parse_key(self, s):
        parts = s.split("|")
        if len(parts) != len(self.factors):
            raise ValueError(f"expected {len(self.factors)} components in {s!r}")
        return tuple(f.parse_key(p) for f, p in zip(self.factors, parts))

    def descriptor(self):
        return "x".join(f.descriptor() for f in self.factors)

    @property
    def amenable(self):
        return all(f.amenable for f in self.factors)


def _poly_product(polys):
    """The coefficients, constant term first, of the product of ``polys``."""
    product = np.ones(1, dtype=object)
    for poly in polys:
        product = np.convolve(product, np.array(poly, dtype=object))
    return tuple(product.tolist())


# the descriptor components named by a letter and a number
_RANKED = {"Z^": FreeAbelian, "F": FreeGroup, "C": FiniteCyclic}


def parse_descriptor(text):
    """Build a GroupSpec from a descriptor like "Z^2", "H3", "F2", "C12", "Z^1xF2"."""
    specs = []
    for part in text.split("x"):
        part = part.strip()
        ranked = re.fullmatch(r"(Z\^|F|C)([0-9]+)", part)
        if part == "Z":
            specs.append(FreeAbelian(1))
        elif part == "H3":
            specs.append(DiscreteHeisenberg())
        elif ranked:
            specs.append(_RANKED[ranked[1]](int(ranked[2])))
        else:
            raise ValueError(f"unknown group descriptor component: {part!r}")
    if len(specs) == 1:
        return specs[0]
    return DirectProduct(specs)


class LengthIndex:
    """Radius-bounded word-length table with sphere and ball counts.

    The ball B_radius is one list of elements, sphere after sphere, each
    sorted by text key so that every search (array, word, product or dict;
    a cache read is a search checked against the file) yields the same
    order.  ``elements``, a function of no arguments, returns the list at
    the first read of an element; ``sphere(n)`` and ``ball(n)`` are slices
    of it, and ``spheres`` and ``lengths`` (each element's length) are
    derived from it at each read.  ``rows``, on an IntegerTupleGroup, is an
    int64 array with one row of coordinates per element in the same order.
    """

    def __init__(self, spec, radius, sphere_sizes, elements, rows=None):
        self.spec = spec
        self.radius = radius
        self.rows = rows
        self.sphere_sizes = list(sphere_sizes)
        self.ball_sizes = list(itertools.accumulate(self.sphere_sizes))
        self._load, self._elements = elements, None

    def _ball(self):
        if self._load is not None:
            self._elements, self._load = self._load(), None
        return self._elements

    @property
    def spheres(self):
        return [self.sphere(n) for n in range(self.radius + 1)]

    @property
    def lengths(self):
        return {g: n for n, sphere in enumerate(self.spheres) for g in sphere}

    def sphere(self, n):
        if n > self.radius:
            raise IndexRadiusError(f"sphere {n} exceeds index radius {self.radius}")
        end = self.ball_sizes[n]
        return self._ball()[end - self.sphere_sizes[n]: end]

    def ball(self, n):
        if n > self.radius:
            raise IndexRadiusError(f"ball {n} exceeds index radius {self.radius}")
        return self._ball()[: self.ball_sizes[n]]

    def size(self):
        return self.ball_sizes[-1]


class TextRanks:
    """Keys of the integer tuples in the box |x_i| <= bounds[i] that order
    as their text keys do.

    ',' sorts below every character of a number, so text keys compare
    coordinate by coordinate, each by its ``str``.  A tuple's key is the
    mixed radix number of its columns' ranks in that order, the first column
    the most significant.  The columns are taken in consecutive parts: all
    of them when the box numbers at most ``most`` cells, else the parts of
    each half, split where the larger half has fewest cells, down to single
    columns (``most`` = 0 gives one part per column).  Each part has three
    tables over its cells: ``ranks`` maps a cell (numbered as ``cell_keys``
    numbers them) to the part's key, and ``cells`` and ``values`` map a key
    back to the cell and to the coordinates.  A cell of the box is the mixed
    radix number of its parts' cells and its key that of their keys, so
    keying takes one division per part after the first and one gather per
    part.  The box must number fewer than 2^63 cells.
    """

    def __init__(self, bounds, most=0):
        self.bounds = list(bounds)
        self.spans = [2 * m + 1 for m in bounds]
        # each column's values in text order, so a value's place is its rank
        values = [np.array(sorted(range(-m, m + 1), key=str), dtype=np.int64)
                  for m in bounds]
        self.parts, self.sizes = [], []
        self.ranks, self.cells, self.values = [], [], []
        start = 0
        for width in _parts(self.spans, most):
            part = slice(start, start + width)
            grid = _grid(values[part])
            cells = cell_keys(tuple(grid.T), [-m for m in self.bounds[part]],
                              self.spans[part])
            self.parts.append(part)
            self.sizes.append(len(grid))
            self.ranks.append(_inverse(cells))
            self.cells.append(cells)
            self.values.append(grid)
            start += width

    def keys(self, cols):
        """The keys of the tuples with int64 coordinate columns ``cols``."""
        return self.of_cells(cell_keys(cols, [-m for m in self.bounds],
                                       self.spans))

    def of_cells(self, cells):
        """The keys of the tuples in the box's cells ``cells``, numbered as
        ``cell_keys`` numbers them from the corner -bounds."""
        return self._convert(self.ranks, cells)

    def decode(self, keys, rows):
        """Write the coordinates of the tuples with ``keys`` into the int64
        array ``rows``, one row per key; return their cells."""
        return self._convert(self.cells, keys, rows)

    def _convert(self, tables, numbers, rows=None):
        """The mixed radix number of the ``tables`` entries at the parts'
        digits of ``numbers``; the parts' coordinates go into ``rows``."""
        digits = [numbers]
        for size in self.sizes[:0:-1]:
            # floor division by a scalar and a product run several times
            # faster than np.divmod
            quotient = digits[0] // size
            digits[0] = digits[0] - quotient * size
            digits.insert(0, quotient)
        out = tables[0][digits[0]]
        for table, size, digit in zip(tables[1:], self.sizes[1:], digits[1:]):
            out *= size
            out += table[digit]
        if rows is not None:
            for part, values, digit in zip(self.parts, self.values, digits):
                rows[:, part] = values.take(digit, axis=0)
        return out


def _parts(spans, most):
    """The widths of consecutive parts of the columns with ``spans``: all of
    them while their cells number at most ``most``, else the parts of each
    half, split where the larger half has fewest cells."""
    if len(spans) == 1 or math.prod(spans) <= most:
        return [len(spans)]
    cut = min(range(1, len(spans)),
              key=lambda k: max(math.prod(spans[:k]), math.prod(spans[k:])))
    return _parts(spans[:cut], most) + _parts(spans[cut:], most)


def _grid(columns):
    """Every choice of one entry from each of ``columns``, one row each, in
    the mixed radix order of the entries' places, the last column the
    least significant."""
    size = inner = math.prod(map(len, columns))
    grid = np.empty((size, len(columns)), dtype=np.int64)
    for k, column in enumerate(columns):
        inner //= len(column)
        grid[:, k] = np.tile(column.repeat(inner), size // (len(column) * inner))
    return grid


def cell_keys(cols, lo, spans):
    """The numbers of the cells that the points with coordinate columns
    ``cols`` occupy in the box with corner ``lo`` and side lengths ``spans``,
    in mixed radix: the first coordinate is the most significant digit."""
    keys = np.asarray(cols[0] - lo[0], dtype=np.int64)
    for col, low, span in zip(cols[1:], lo[1:], spans[1:]):
        keys *= span
        keys += col
        keys -= low
    return keys


def _sorted_unique(keys):
    keys = np.sort(keys)
    return keys[np.concatenate([[True], keys[1:] != keys[:-1]])]


class _BoxBitmap:
    """Freshness by one bool per cell of the box: the cells reached so far."""

    def __init__(self, cells, start):
        self.seen = np.zeros(cells, dtype=bool)
        self.seen[start] = True

    def __call__(self, moves):
        """The moves into cells not reached before, repeats kept; they are
        reached from now on."""
        moves = moves[~self.seen[moves]]
        self.seen[moves] = True
        return moves


class _SortedSpheres:
    """Freshness by binary search among the sorted cell keys of the last two
    spheres, which hold every point a move from the last one reaches
    outside the next one."""

    def __init__(self, start):
        self.known = [start]

    def __call__(self, moves):
        """The moves outside the last two spheres, sorted, without repeats;
        they are the last sphere from now on."""
        moves = _sorted_unique(moves)
        for sphere in self.known:
            at = np.minimum(sphere.searchsorted(moves), len(sphere) - 1)
            moves = moves[sphere[at] != moves]
        self.known = [moves, self.known[0]]
        return moves


def _array_rows(spec, N):
    """The rows of B_N of an IntegerTupleGroup: one int64 row of coordinates
    per element, sphere after sphere, each sphere in text-key order; or None
    when the box of B_N reaches COORD_LIMIT or numbers 2^63 cells or more.

    Every point of B_N lies in the box ``spec.ball_bounds(N)`` and is keyed
    by its cell there (``cell_keys``).  The key is linear in the
    coordinates, and x*s adds s's coordinates to x's plus the group's
    ``bilinear_terms``, so the keys of S_{n-1} * gens are the keys of
    S_{n-1} plus each generator's key offset, plus on H3 +-a for the moves
    y^+-1; no group law runs.  A generating set is symmetric, so the moves
    from S_{n-1} land in S_{n-2}, S_{n-1} and S_n: S_n is what they reach
    outside the first two.  A bool bitmap of the cells reached so far tells
    the fresh moves by one gather; it is kept when it takes no more bytes
    than the rows of B_N, box cells <= 8 d |B_N| (always on H3 and Z^1-Z^4),
    and otherwise a binary search among the sorted keys of S_{n-1} and
    S_{n-2} tells them.  Only the fresh points are text-keyed, through
    tables over parts of the columns, none longer than B_N
    (:class:`TextRanks`; on H3 to radius 24, two of 2,401 and 289 entries);
    one sort of their keys, with repeats dropped, is S_n in text-key order,
    and the same tables write its rows into the array of |B_N| rows, the
    size the growth series gives.
    """
    bounds = spec.ball_bounds(N)
    spans = [2 * m + 1 for m in bounds]
    cells = math.prod(spans)
    if max(bounds) >= COORD_LIMIT or cells >= 1 << 63:
        return None
    balls = ball_sizes(spec, N)
    rows = np.empty((balls[-1], len(spans)), dtype=np.int64)
    ranks = TextRanks(bounds, most=len(rows))
    lo = [-m for m in bounds]
    strides = [math.prod(spans[k + 1:]) for k in range(len(spans))]
    gens = np.array(spec.generators(), dtype=np.int64)
    offsets = cell_keys(tuple(gens.T), [0] * len(spans), spans)
    # (i, generator g, s_j stride_k): the key of x*s, s the g-th generator,
    # gains x_i s_j stride_k for each term (i, j, k)
    twists = [(i, g, int(s[j]) * strides[k]) for i, j, k in spec.bilinear_terms
              for g, s in enumerate(gens) if s[j]]
    rows[0] = spec.identity()
    keys = cell_keys(tuple(rows[:1].T), lo, spans)
    fresh = (_BoxBitmap(cells, keys) if cells <= 8 * rows.size
             else _SortedSpheres(keys))
    for start, end, stop in zip([0] + balls, balls, balls[1:]):
        moves = np.add.outer(offsets, keys)
        for i, g, step in twists:
            moves[g] += rows[start:end, i] * step
        text = _sorted_unique(ranks.of_cells(fresh(moves.ravel())))
        keys = ranks.decode(text, rows[end:stop])
    return rows


def _free_spheres(spec, N):
    """S_0..S_N of a FreeGroup as lists of words in text-key order.

    S_n is each word of S_{n-1} extended, in sorted letter order, by every
    letter that does not cancel its last letter.  The words of S_{n-1} share
    one length and come in text order, so their extensions do too.
    """
    letters = sorted(spec.generators())
    follow = {last: [x for x in letters if x != last.swapcase()]
              for last in ["", *letters]}
    spheres = [[""]]
    for _ in range(N):
        spheres.append([w + x for w in spheres[-1] for x in follow[w[-1:]]])
    return spheres


def enumerate_balls(spec, N, budget=DEFAULT_BUDGET):
    """The balls B_0..B_N of ``spec`` as a LengthIndex, every sphere in
    text-key order whichever search builds it: the factors' indexes for a
    DirectProduct, the array search for an IntegerTupleGroup, the word
    extension for a FreeGroup, else breadth-first search on a dict of
    elements.

    Raises BudgetExceededError, carrying the last radius within it, when a
    ball B_n, n >= 1, holds more than ``budget`` elements (None: no bound).
    The growth series gives the sizes, so this is decided before any search
    starts; the array search reads |B_N| from it too, to choose between a
    bitmap of its box and a binary search for the fresh points.
    """
    if N < 0:
        raise ValueError("radius must be >= 0")
    balls = itertools.accumulate(itertools.islice(_sphere_terms(spec), N + 1))
    failed = None if budget is None else next(
        (n for n, ball in enumerate(balls) if n and ball > budget), None)
    if failed is not None:
        raise BudgetExceededError(
            f"ball enumeration for {spec.descriptor()} passed {budget} "
            f"elements at radius {failed}", radius_reached=failed - 1)
    return _enumerate(spec, N)


@contextlib.contextmanager
def holding_balls(load):
    """Within the block, ``ball_index`` loads a ball by ``load(spec, radius,
    budget)`` and holds the largest ball of each group it has loaded; the
    balls go when the block ends."""
    token = _HELD.set((load, {}))
    try:
        yield
    finally:
        _HELD.reset(token)


def holds_balls(function):
    """``function`` run within ``holding_balls`` of new enumerations when no
    holder is active, so that one call searches each ball once; within an
    active holder it runs as it is, on that holder's loads.
    ``enumerate_balls`` is looked up at each load, as in ``ball_index``."""
    @functools.wraps(function)
    def holding(*args, **kwargs):
        if _HELD.get() is not None:
            return function(*args, **kwargs)
        with holding_balls(lambda *ball: enumerate_balls(*ball)):
            return function(*args, **kwargs)
    return holding


@contextlib.contextmanager
def reaching(spec, radius):
    """Within the block, a ball of ``spec`` that ``ball_index`` loads and
    holds reaches ``radius``, so that a computation asking for balls up to
    ``radius`` one after another loads once."""
    token = _REACH.set({**_REACH.get(), spec: radius})
    try:
        yield
    finally:
        _REACH.reset(token)


def ball_index(spec, radius, budget=DEFAULT_BUDGET):
    """A LengthIndex of ``spec`` to at least ``radius``, with the spheres of
    ``enumerate_balls(spec, radius)`` first: inside ``holding_balls`` the
    ball held for ``spec`` if it reaches ``radius``, else a new load held in
    its place; outside, a new enumeration.  ``enumerate_balls`` is looked up
    at each call, so a wrapper set on this module sees every load.  A
    negative radius raises ValueError, held balls or not."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    held = _HELD.get()
    if held is None:
        return enumerate_balls(spec, radius, budget)
    load, balls = held
    if spec not in balls or balls[spec].radius < radius:
        balls.pop(spec, None)      # let the smaller ball go before the load
        radius = max(radius, _REACH.get().get(spec, 0))
        balls[spec] = load(spec, radius, budget)
    return balls[spec]


def _enumerate(spec, N):
    if isinstance(spec, DirectProduct):
        return _product_index(spec, N)
    if isinstance(spec, FreeGroup):
        return _listed_index(spec, N, _free_spheres(spec, N))
    if isinstance(spec, IntegerTupleGroup):
        rows = _array_rows(spec, N)
        if rows is not None:
            return LengthIndex(spec, N, sphere_sizes(spec, N),
                               lambda: list(map(tuple, rows.tolist())), rows)
    return _dict_index(spec, N)


def _listed_index(spec, N, spheres):
    """The index of the lists ``spheres``, S_0..S_N, one after another."""
    ball = list(itertools.chain.from_iterable(spheres))
    return LengthIndex(spec, N, map(len, spheres), lambda: ball)


def _dict_index(spec, N):
    e = spec.identity()
    gens = spec.generators()
    seen = {e}
    spheres = [[e]]
    for _ in range(N):
        nxt = []
        for g in spheres[-1]:
            for s in gens:
                h = spec.multiply(g, s)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        nxt.sort(key=spec.element_key)
        spheres.append(nxt)
    return _listed_index(spec, N, spheres)


def _product_index(spec, N):
    """The index of a DirectProduct, whose word length is the sum of the
    factor lengths: S_n is the union over i + j = n of S_i(prefix) x
    S_j(factor), one factor joined at a time, each sphere sorted by the text
    keys ``key_prefix + "|" + key_factor``.  No factor's key holds "|", and
    every prefix key holds as many, so of two distinct prefix keys + "|"
    neither begins the other: the keys order as the pairs (rank of
    key_prefix + "|" in the prefix's ball, rank of key_factor in the
    factor's ball), one int64 each, and one sort of those orders a sphere.
    A factor's ball is no larger than the product's, so the product's
    budget covers every factor's search.  The product's element tuples are
    zipped from the factors' balls at the first read of one.
    """
    factors = [_enumerate(f, N) for f in spec.factors]
    balls = [index.ball(N) for index in factors]
    # the product's elements, in sphere order, as positions in each factor's
    # ball; the positions in that order of the ranks of their keys + "|"
    where = [np.arange(len(balls[0]))]
    by_pipe = _text_order(factors[0].spec, balls[0], "|")
    sizes = factors[0].sphere_sizes
    for k in range(1, len(factors)):
        index, ball = factors[k], balls[k]
        pipe = _inverse(by_pipe)
        by_rank = _text_order(index.spec, ball, "")
        ranks = _inverse(by_rank)
        starts = [0, *itertools.accumulate(sizes)]
        part_starts = [0, *index.ball_sizes]
        spheres = [np.sort(np.concatenate([
            np.add.outer(pipe[starts[i]:starts[i + 1]] * len(ball),
                         ranks[part_starts[n - i]:part_starts[n - i + 1]]).ravel()
            for i in range(n + 1)])) for n in range(N + 1)]
        pairs = np.concatenate(spheres)
        first = pairs // len(ball)
        part = by_rank[pairs - first * len(ball)]
        where = [w[by_pipe[first]] for w in where] + [part]
        sizes = list(map(len, spheres))
        if k + 1 < len(factors):
            # the joined keys + "|" order as the pairs (rank of key_prefix +
            # "|", rank of key_factor + "|")
            part_pipe = _inverse(_text_order(index.spec, ball, "|"))
            by_pipe = np.argsort(first * len(ball) + part_pipe[part])
    return LengthIndex(spec, N, sizes, lambda: list(zip(*(
        map(ball.__getitem__, w.tolist()) for ball, w in zip(balls, where)))))


def _text_order(spec, elements, suffix):
    """The positions of ``elements`` in the order of their text keys +
    ``suffix``."""
    keys = [key + suffix for key in map(spec.element_key, elements)]
    return np.array(sorted(range(len(keys)), key=keys.__getitem__),
                    dtype=np.int64)


def _inverse(order):
    """The inverse of the permutation ``order``."""
    inverse = np.empty_like(order)
    inverse[order] = np.arange(len(order))
    return inverse


def _sphere_terms(spec):
    """|S_0|, |S_1|, ...: the terms of the growth series, each computed at
    its first request (``_terms_to``)."""
    for n in itertools.count():
        yield _terms_to(spec, n)[n]


def _terms_to(spec, up_to):
    """The list of sphere sizes kept in ``_SERIES_TERMS`` for the growth
    series P/Q of ``spec``, extended to at least |S_up_to| by
    s_n = P_n - sum_{k >= 1} Q_k s_{n-k}, computing only the terms it lacks."""
    P, Q = series = spec.growth_series()
    sizes = _SERIES_TERMS.setdefault(series, [])
    for n in range(len(sizes), up_to + 1):
        head = P[n] if n < len(P) else 0
        sizes.append(head - sum(map(operator.mul, Q[1:], sizes[: -len(Q): -1])))
    return sizes


def sphere_sizes(spec, up_to):
    """|S_0..S_up_to| as a new list."""
    return _terms_to(spec, up_to)[: up_to + 1]


def ball_sizes(spec, up_to):
    return list(itertools.accumulate(sphere_sizes(spec, up_to)))


@dataclass
class Embedding:
    """An injective homomorphism of ``sub`` into ``ambient``.

    ``images`` maps every generator of ``sub`` to an ambient element; other
    elements are pushed through their generator words.
    """

    sub: GroupSpec
    ambient: GroupSpec
    images: dict

    def apply(self, g):
        """The product of the images along ``sub.generator_word(g)``; a run
        of k equal letters takes O(log k) products, by repeated squaring."""
        mul = self.ambient.multiply
        out = self.ambient.identity()
        for s, run in itertools.groupby(self.sub.generator_word(g)):
            x, k = self.images[s], len(list(run))
            while k:
                if k & 1:
                    out = mul(out, x)
                k >>= 1
                if k:
                    x = mul(x, x)
        return out

    def ambient_length(self, g):
        return self.ambient.word_length(self.apply(g))


def embed(sub, ambient, images, check_radius=3):
    """Validate generator images and return an Embedding.

    The homomorphism property is checked on all pairs from the sub-group ball
    of ``check_radius`` (sampled down to EMBED_SAMPLES pairs when large), and
    injectivity on that ball.  Failures raise HomomorphismError.
    """
    full_images = dict(images)
    for s in sub.generators():
        if s in full_images:
            continue
        inv = sub.inverse(s)
        if inv in full_images:
            full_images[s] = ambient.inverse(full_images[inv])
        else:
            raise HomomorphismError(
                f"no image supplied for generator {sub.element_key(s)!r}")
    emb = Embedding(sub=sub, ambient=ambient, images=full_images)

    elems = enumerate_balls(sub, check_radius).ball(check_radius)
    image_of = {g: emb.apply(g) for g in elems}

    seen = {}
    for g, im in image_of.items():
        if im in seen:
            raise HomomorphismError(
                f"images collide: {sub.element_key(g)!r} and "
                f"{sub.element_key(seen[im])!r} both map to "
                f"{ambient.element_key(im)!r}")
        seen[im] = g

    pairs = list(itertools.product(elems, repeat=2))
    if len(pairs) > EMBED_SAMPLES:
        pairs = random.Random(EMBED_SEED).sample(pairs, EMBED_SAMPLES)
    for g, h in pairs:
        lhs = emb.apply(sub.multiply(g, h))
        rhs = ambient.multiply(image_of[g], image_of[h])
        if lhs != rhs:
            raise HomomorphismError(
                f"image of product differs from product of images at "
                f"({sub.element_key(g)!r}, {sub.element_key(h)!r})")
    return emb
