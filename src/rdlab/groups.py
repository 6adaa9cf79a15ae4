"""Concrete finitely generated groups with word-lengths and ball enumeration.

Each group comes with a canonical element form, a symmetric generating set,
and the closed forms it has: the word-length and the sphere sizes of Z^d,
F_r, C_m and their products live on the group classes, valid on the standard
generators only.  Balls and spheres are enumerated by breadth-first search
over the generating set; the result is a :class:`LengthIndex` that the
algebra and analysis layers consume.  ``word_length``, ``sphere_sizes`` and
``ball_sizes`` answer from the closed form, else from an index.

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
joined with "|".
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass, field

from .errors import (
    BudgetExceededError,
    HomomorphismError,
    IndexRadiusError,
    SpecMismatchError,
)

DEFAULT_BUDGET = 5_000_000

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class GroupSpec:
    """A concrete group: element arithmetic plus a symmetric generating set.

    Subclasses supply the group law on canonical values, and the closed
    forms they have as ``_length_formula`` and ``_sphere_formula``.  A custom
    symmetric generating set may be passed to the constructor; doing so
    disables the closed forms (they are only valid for the standard set).
    The standard set passed in any order is no custom set.
    """

    def __init__(self, generators=None):
        self._custom_generators = None
        if generators is not None:
            gens = list(generators)
            for g in gens:
                self.check_element(g)
            if self.identity() in gens:
                raise ValueError("generating set must not contain the identity")
            missing = [g for g in gens if self.inverse(g) not in gens]
            if missing:
                raise ValueError(f"generating set is not symmetric: {missing!r}")
            if not gens:
                raise ValueError("generating set must be nonempty")
            if set(gens) != set(self.default_generators()):
                self._custom_generators = gens

    # -- group law ---------------------------------------------------------

    def identity(self):
        raise NotImplementedError

    def multiply(self, g, h):
        raise NotImplementedError

    def inverse(self, g):
        raise NotImplementedError

    def multiply_arrays(self, g_cols, h_cols):
        """The group law on coordinate columns, or None without one.

        ``g_cols`` and ``h_cols`` hold one int64 array per coordinate of an
        integer-tuple element, and the arrays of the two broadcast against
        each other; the result holds one array per coordinate of the products.
        Every product coordinate must be a polynomial of degree at most one in
        each input coordinate, so that its extremes over a box of inputs lie
        at the box's corners.
        """
        return None

    def check_element(self, g):
        """Raise ValueError unless ``g`` is a canonical element value."""
        raise NotImplementedError

    # -- generating set ----------------------------------------------------

    def default_generators(self):
        raise NotImplementedError

    def generators(self):
        if self._custom_generators is not None:
            return list(self._custom_generators)
        return self.default_generators()

    def has_standard_generators(self):
        return self._custom_generators is None

    def generator_word(self, g):
        """A generator sequence whose product is ``g`` (not necessarily geodesic).

        Only available for the standard generating set; used by embeddings.
        """
        raise NotImplementedError

    # -- closed forms and naming ----------------------------------------------

    def word_length_closed(self, g):
        """Exact word-length of ``g`` from a closed form, or None."""
        return self._closed(self._length_formula, g)

    def closed_sphere_sizes(self, up_to):
        """|S_0..S_up_to| from a closed form, or None."""
        return self._closed(self._sphere_formula, up_to)

    def _closed(self, formula, arg):
        # the one guard: closed forms hold for the standard generators only
        return formula(arg) if self.has_standard_generators() else None

    def _length_formula(self, g):
        return None

    def _sphere_formula(self, up_to):
        return None

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

    def _signature(self):
        gens = tuple(self.element_key(g) for g in self.generators())
        return (self.descriptor(), gens)

    def __eq__(self, other):
        if not isinstance(other, GroupSpec):
            return NotImplemented
        return self._signature() == other._signature()

    def __hash__(self):
        return hash(self._signature())

    def __repr__(self):
        return f"{type(self).__name__}({self.descriptor()!r})"


class FreeAbelian(GroupSpec):
    """Z^d with unit vectors and their negatives as standard generators."""

    def __init__(self, rank, generators=None):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.rank = rank
        super().__init__(generators)

    def identity(self):
        return (0,) * self.rank

    def multiply(self, g, h):
        return tuple(x + y for x, y in zip(g, h))

    def multiply_arrays(self, g_cols, h_cols):
        return self.multiply(g_cols, h_cols)

    def inverse(self, g):
        return tuple(-x for x in g)

    def check_element(self, g):
        if not (isinstance(g, tuple) and len(g) == self.rank
                and all(isinstance(x, int) for x in g)):
            raise ValueError(f"not a Z^{self.rank} element: {g!r}")

    def default_generators(self):
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

    def _length_formula(self, g):
        return sum(abs(x) for x in g)

    def _sphere_formula(self, up_to):
        # points with i nonzero coordinates: their places, signs and sizes
        d = self.rank
        return [1] + [sum(2 ** i * math.comb(d, i) * math.comb(n - 1, i - 1)
                          for i in range(1, min(d, n) + 1))
                      for n in range(1, up_to + 1)]

    def element_key(self, g):
        return ",".join(str(x) for x in g)

    def parse_key(self, s):
        g = tuple(int(p) for p in s.split(","))
        self.check_element(g)
        return g

    def descriptor(self):
        return f"Z^{self.rank}"

    @property
    def amenable(self):
        return True


class DiscreteHeisenberg(GroupSpec):
    """Integer Heisenberg group on triples with standard generators x, y.

    Product rule: (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a*b').  The center is
    generated by z = (0,0,1) = x y x^-1 y^-1.  There is no implemented closed
    form for the word-length or the sphere sizes; both go through a
    LengthIndex.
    """

    X = (1, 0, 0)
    Y = (0, 1, 0)

    def identity(self):
        return (0, 0, 0)

    def multiply(self, g, h):
        a, b, c = g
        a2, b2, c2 = h
        return (a + a2, b + b2, c + c2 + a * b2)

    def multiply_arrays(self, g_cols, h_cols):
        return self.multiply(g_cols, h_cols)

    def inverse(self, g):
        a, b, c = g
        return (-a, -b, a * b - c)

    def check_element(self, g):
        if not (isinstance(g, tuple) and len(g) == 3
                and all(isinstance(x, int) for x in g)):
            raise ValueError(f"not a Heisenberg element: {g!r}")

    def default_generators(self):
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

    def element_key(self, g):
        return ",".join(str(x) for x in g)

    def parse_key(self, s):
        g = tuple(int(p) for p in s.split(","))
        self.check_element(g)
        return g

    def descriptor(self):
        return "H3"

    @property
    def amenable(self):
        return True


class FreeGroup(GroupSpec):
    """Free group of rank r on letters a, b, c, ... with uppercase inverses."""

    def __init__(self, rank, generators=None):
        if not 1 <= rank <= len(_LETTERS):
            raise ValueError(f"rank must be in [1, {len(_LETTERS)}]")
        self.rank = rank
        self._alphabet = _LETTERS[:rank]
        super().__init__(generators)

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

    def default_generators(self):
        gens = []
        for ch in self._alphabet:
            gens.append(ch)
            gens.append(ch.upper())
        return gens

    def generator_word(self, g):
        return list(g)

    def _length_formula(self, g):
        return len(g)

    def _sphere_formula(self, up_to):
        # |S_n| = 2r (2r-1)^(n-1) for n >= 1
        steps = [2 * self.rank] + [2 * self.rank - 1] * (up_to - 1)
        sizes = itertools.accumulate(steps, operator.mul, initial=1)
        return list(sizes)[: up_to + 1]

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

    def __init__(self, order, generators=None):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        super().__init__(generators)

    def identity(self):
        return 0

    def multiply(self, g, h):
        return (g + h) % self.order

    def inverse(self, g):
        return (-g) % self.order

    def check_element(self, g):
        if not (isinstance(g, int) and 0 <= g < self.order):
            raise ValueError(f"not a residue mod {self.order}: {g!r}")

    def default_generators(self):
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

    def _length_formula(self, g):
        return min(g, self.order - g)

    def _sphere_formula(self, up_to):
        # B_n has min(2n+1, m) residues
        return [1] + [max(0, min(2, self.order + 1 - 2 * n))
                      for n in range(1, up_to + 1)]

    def element_key(self, g):
        return str(g)

    def parse_key(self, s):
        g = int(s)
        self.check_element(g)
        return g

    def descriptor(self):
        return f"C{self.order}"

    @property
    def amenable(self):
        return True


class DirectProduct(GroupSpec):
    """Direct product of group specs; nested products are flattened.

    With the standard generating set (factor generators acting on their own
    coordinate) the word-length is the sum of the factor lengths.
    """

    def __init__(self, factors, generators=None):
        flat = []
        for f in factors:
            if isinstance(f, DirectProduct):
                flat.extend(f.factors)
            else:
                flat.append(f)
        if len(flat) < 1:
            raise ValueError("product needs at least one factor")
        self.factors = flat
        super().__init__(generators)

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

    def default_generators(self):
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

    def has_standard_generators(self):
        # a factor on custom generators makes the product's set custom too
        return (super().has_standard_generators()
                and all(f.has_standard_generators() for f in self.factors))

    def _length_formula(self, g):
        parts = [f.word_length_closed(x) for f, x in zip(self.factors, g)]
        return None if None in parts else sum(parts)

    def _sphere_formula(self, up_to):
        # the Cauchy product of the factors' sphere series
        parts = [f.closed_sphere_sizes(up_to) for f in self.factors]
        if None in parts:
            return None
        series = parts[0]
        for part in parts[1:]:
            series = [sum(map(operator.mul, series[: n + 1], part[n::-1]))
                      for n in range(up_to + 1)]
        return series

    def element_key(self, g):
        return "|".join(f.element_key(x) for f, x in zip(self.factors, g))

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


def parse_descriptor(text):
    """Build a GroupSpec from a descriptor like "Z^2", "H3", "F2", "C12", "Z^1xF2"."""
    parts = text.split("x")
    specs = []
    for part in parts:
        part = part.strip()
        if part in ("Z", "Z^1"):
            specs.append(FreeAbelian(1))
        elif part.startswith("Z^"):
            specs.append(FreeAbelian(int(part[2:])))
        elif part == "H3":
            specs.append(DiscreteHeisenberg())
        elif part.startswith("F"):
            specs.append(FreeGroup(int(part[1:])))
        elif part.startswith("C"):
            specs.append(FiniteCyclic(int(part[1:])))
        else:
            raise ValueError(f"unknown group descriptor component: {part!r}")
    if len(specs) == 1:
        return specs[0]
    return DirectProduct(specs)


@dataclass
class LengthIndex:
    """Radius-bounded word-length table with sphere and ball counts.

    ``spheres[n]`` lists the elements at distance exactly n, sorted by their
    text key so that every construction path (fresh BFS or cache reload)
    yields the same order.
    """

    spec: GroupSpec
    radius: int
    lengths: dict = field(repr=False)
    spheres: list = field(repr=False)
    sphere_sizes: list = field(default_factory=list)
    ball_sizes: list = field(default_factory=list)

    def __post_init__(self):
        if not self.sphere_sizes:
            self.sphere_sizes = [len(s) for s in self.spheres]
        if not self.ball_sizes:
            self.ball_sizes = list(itertools.accumulate(self.sphere_sizes))

    def length(self, g):
        try:
            return self.lengths[g]
        except KeyError:
            raise IndexRadiusError(
                f"element {self.spec.element_key(g)!r} outside index radius "
                f"{self.radius} for {self.spec.descriptor()}") from None

    def __contains__(self, g):
        return g in self.lengths

    def sphere(self, n):
        if n > self.radius:
            raise IndexRadiusError(f"sphere {n} exceeds index radius {self.radius}")
        return self.spheres[n]

    def ball(self, n):
        if n > self.radius:
            raise IndexRadiusError(f"ball {n} exceeds index radius {self.radius}")
        return itertools.chain.from_iterable(self.spheres[: n + 1])

    def size(self):
        return len(self.lengths)


def enumerate_balls(spec, N, budget=DEFAULT_BUDGET):
    """Breadth-first enumeration of the balls B_0..B_N of ``spec``.

    Raises BudgetExceededError (carrying the last completed radius) if the
    element count passes ``budget``.
    """
    if N < 0:
        raise ValueError("radius must be >= 0")
    e = spec.identity()
    gens = spec.generators()
    lengths = {e: 0}
    spheres = [[e]]
    frontier = [e]
    for n in range(1, N + 1):
        nxt = []
        for g in frontier:
            for s in gens:
                h = spec.multiply(g, s)
                if h not in lengths:
                    lengths[h] = n
                    nxt.append(h)
                    if len(lengths) > budget:
                        raise BudgetExceededError(
                            f"ball enumeration for {spec.descriptor()} passed "
                            f"{budget} elements at radius {n}",
                            radius_reached=n - 1)
        nxt.sort(key=spec.element_key)
        spheres.append(nxt)
        frontier = nxt
    return LengthIndex(spec=spec, radius=N, lengths=lengths, spheres=spheres)


def word_length(spec, g, index=None):
    """Word-length of ``g``: closed form when exact, else a table lookup."""
    closed = spec.word_length_closed(g)
    if closed is not None:
        return closed
    if index is None:
        raise IndexRadiusError(
            f"{spec.descriptor()} has no closed word-length formula; "
            "a LengthIndex is required")
    if index.spec != spec:
        raise SpecMismatchError("index was built for a different group")
    return index.length(g)


def sphere_sizes(spec, up_to, index: LengthIndex = None):
    """|S_0..S_up_to|: the closed form when there is one, else the index."""
    closed = spec.closed_sphere_sizes(up_to)
    if closed is not None:
        return closed
    if index is None or index.radius < up_to:
        raise IndexRadiusError(
            f"need sphere sizes to radius {up_to} for {spec.descriptor()}; "
            "supply a LengthIndex of that radius")
    return list(index.sphere_sizes[: up_to + 1])


def ball_sizes(spec, up_to, index: LengthIndex = None):
    return list(itertools.accumulate(sphere_sizes(spec, up_to, index)))


def multiply(spec, g, h):
    spec.check_element(g)
    spec.check_element(h)
    return spec.multiply(g, h)


def inverse(spec, g):
    spec.check_element(g)
    return spec.inverse(g)


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
        out = self.ambient.identity()
        for s in self.sub.generator_word(g):
            out = self.ambient.multiply(out, self.images[s])
        return out

    def ambient_length(self, g, ambient_index=None):
        return word_length(self.ambient, self.apply(g), ambient_index)


def embed(sub, ambient, images, check_radius=3, seed=0, samples=200):
    """Validate generator images and return an Embedding.

    The homomorphism property is checked on all pairs from the sub-group ball
    of ``check_radius`` (sampled down to ``samples`` pairs when large), and
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

    index = enumerate_balls(sub, check_radius)
    elems = [g for n in range(index.radius + 1) for g in index.sphere(n)]
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
    if len(pairs) > samples:
        rng = random.Random(seed)
        pairs = rng.sample(pairs, samples)
    for g, h in pairs:
        lhs = emb.apply(sub.multiply(g, h))
        rhs = ambient.multiply(image_of[g], image_of[h])
        if lhs != rhs:
            raise HomomorphismError(
                f"image of product differs from product of images at "
                f"({sub.element_key(g)!r}, {sub.element_key(h)!r})")
    return emb
