"""The array ball search of Z^d and H3, the word extension of F_r and the
product search from the factors' spheres against the dict search they
replaced, and the cache read that checks a file against that search.

``enumerate_balls`` runs sphere by sphere on int64 rows for Z^d and H3,
extends words for F_r, and assembles a product from its factors' indexes;
it must give the dict search's spheres, lengths, cache bytes and budget
errors, and meet its budget before any search starts.  A ball to R must
hold the ball to r <= R as its first spheres, in order, since
``ball_index`` serves r from a held ball to R.  The array search tells
fresh points by a bitmap of its box, or by a binary search where the box
is sparse; both give the same rows, and each ball takes the one its box
density picks.
``read_ball_cache`` takes a file only when it holds the bytes the writer
gives for a fresh search, and names the first line of any other file.
"""

import hashlib
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import rdlab as R
import rdlab.cli
import rdlab.groups
from rdlab.cache import (
    CacheFormatError,
    cache_roundtrip,
    read_ball_cache,
    serialize_index,
    write_ball_cache,
)
from rdlab.errors import BudgetExceededError
from rdlab.groups import COORD_LIMIT, IntegerTupleGroup, TextRanks, cell_keys

# the largest radius each group is searched to: a few thousand elements
RADII = {"Z^1": 40, "Z^2": 12, "Z^3": 6, "Z^4": 4, "H3": 6}


def dict_bfs(spec, N, budget=R.DEFAULT_BUDGET):
    """Spheres S_0..S_N as lists sorted by text key, by breadth-first search
    over a dict of every element seen."""
    e = spec.identity()
    lengths = {e: 0}
    spheres = [[e]]
    for n in range(1, N + 1):
        nxt = []
        for g in spheres[-1]:
            for s in spec.generators():
                h = spec.multiply(g, s)
                if h not in lengths:
                    lengths[h] = n
                    nxt.append(h)
                    if len(lengths) > budget:
                        raise BudgetExceededError(
                            f"ball enumeration for {spec.descriptor()} passed "
                            f"{budget} elements at radius {n}",
                            radius_reached=n - 1)
        spheres.append(sorted(nxt, key=spec.element_key))
    return spheres


def record_bytes(spec, spheres):
    sizes = ",".join(str(len(s)) for s in spheres)
    lines = [f"rdlab-ball-cache v2 | {spec.descriptor()} | N={len(spheres) - 1} | "
             f"spheres={sizes}"]
    lines += [f"{spec.element_key(g)}\t{n}" for n, s in enumerate(spheres) for g in s]
    return "\n".join(lines) + "\n"


def assert_same_index(spec, N, index):
    spheres = dict_bfs(spec, N)
    assert [index.sphere(n) for n in range(N + 1)] == spheres
    assert index.lengths == {g: n for n, s in enumerate(spheres) for g in s}
    assert index.size() == sum(map(len, spheres))
    assert serialize_index(index) == record_bytes(spec, spheres)


@st.composite
def groups(draw):
    """A Z^d or H3 and the largest radius it is searched to."""
    name = draw(st.sampled_from(sorted(RADII)))
    return R.parse_descriptor(name), RADII[name]


@given(groups(), st.data())
def test_array_search_matches_the_dict_search(group, data):
    spec, top = group
    N = data.draw(st.integers(0, top))
    index = R.enumerate_balls(spec, N)
    assert index.rows is not None
    assert_same_index(spec, N, index)


@given(groups(), st.data())
def test_the_sorted_freshness_test_matches_the_bitmap(group, data):
    # every ball of RADII has a box of at most 8 d |B_N| cells, so it takes
    # the bitmap; forced onto the binary search among the last two spheres,
    # it must give the same rows
    spec, top = group
    N = data.draw(st.integers(0, top))
    with mock.patch.object(rdlab.groups, "_SortedSpheres",
                           side_effect=AssertionError("sorted test")):
        bitmap = R.enumerate_balls(spec, N)
    sorted_test = rdlab.groups._SortedSpheres
    with mock.patch.object(rdlab.groups, "_BoxBitmap",
                           lambda cells, start: sorted_test(start)):
        index = R.enumerate_balls(spec, N)
    assert np.array_equal(index.rows, bitmap.rows)
    assert index.sphere_sizes == bitmap.sphere_sizes
    assert index.spheres == rdlab.groups._dict_index(spec, N).spheres
    assert_same_index(spec, N, index)


# sha256 of the cache bytes of the balls the benchmark workloads build; H3
# to 24 crosses c = 9 -> 10 and 99 -> 100, where the digit widths change
PINNED_BALLS = [
    ("H3", 24, "4791b18425e65aae7d628fbc4c470bfc2c4ccbc963e8a65f08dd87a747436900"),
    ("Z^3", 40, "8d917d8b780d0369f71dca28ac74752e4aeada1bf5d6729c47c7c8de7a7995b3"),
    ("Z^2", 200, "e2db0358b10618bb2e725f8aac30af60d5894351b2a3522dbd0674da473b8735"),
    ("Z^4", 16, "ade0ea7f82d097d3a2702fc869881cd47077b7e6812d241be0b5ddcfb148d930"),
    ("F2", 10, "086470eff2e035f2ed1e68c1558c41a58d579d77cad71ffd1ea0cc36d4d4ce90"),
    ("Z^1xF2", 8, "d2567005cbe2531031c88909329f7db8cfaa1314bda3551d27e7e4ff76f6dddc"),
]


@pytest.mark.parametrize("descriptor, N, digest", PINNED_BALLS)
def test_benchmark_size_balls_keep_their_bytes(descriptor, N, digest):
    spec = R.parse_descriptor(descriptor)
    index = R.enumerate_balls(spec, N)
    assert (index.rows is not None) == isinstance(spec, IntegerTupleGroup)
    assert hashlib.sha256(serialize_index(index).encode()).hexdigest() == digest


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_free_search_matches_the_dict_search(rank):
    spec = R.FreeGroup(rank)
    index = R.enumerate_balls(spec, 7)
    searched = rdlab.groups._dict_index(spec, 7)
    assert index.spheres == searched.spheres
    assert index.lengths == searched.lengths


def test_the_h3_box_is_tight():
    # over B_N, max |a| = max |b| = N and max |c| = floor(N^2 / 4)
    spec = R.DiscreteHeisenberg()
    index = R.enumerate_balls(spec, 24)
    for N, end in enumerate(index.ball_sizes):
        assert np.abs(index.rows[:end]).max(axis=0).tolist() == [
            N, N, N * N // 4]
        assert spec.ball_bounds(N) == (N, N, N * N // 4)


# (product, radius, the factors the dict search enumerates)
PRODUCTS = [
    (R.parse_descriptor("Z^1xF2"), 5, []),
    (R.parse_descriptor("Z^2xC3"), 8, ["C3"]),
    (R.parse_descriptor("F2xC4"), 4, ["C4"]),
    (R.parse_descriptor("Z^1xH3"), 4, []),
    (R.parse_descriptor("Z^1xF2xC5"), 4, ["C5"]),
    (R.parse_descriptor("C3xZ^1"), 5, ["C3"]),
    (R.parse_descriptor("F1xZ^2xH3"), 3, []),
]
PRODUCT_IDS = ["Z^1xF2", "Z^2xC3", "F2xC4", "Z^1xH3", "Z^1xF2xC5", "C3xZ^1",
               "F1xZ^2xH3"]


def joined_key_spheres(factors, N):
    """S_0..S_N of the product of ``factors``, joined one factor at a time:
    sphere n holds prefix + (h,) for prefix in S_i of the factors before
    and h in S_{n-i} of the next, sorted by prefix key + "|" + key of h."""
    def key(spec, g):
        return "|".join(f.element_key(x) for f, x in zip(spec, g))
    first = R.enumerate_balls(factors[0], N).spheres
    spheres = [[(g,) for g in sphere] for sphere in first]
    for k, factor in enumerate(factors[1:], start=1):
        parts = R.enumerate_balls(factor, N).spheres
        spheres = [sorted((g + (h,) for i in range(n + 1) for g in spheres[i]
                           for h in parts[n - i]),
                          key=lambda g: key(factors[:k], g[:k]) + "|"
                          + factor.element_key(g[k]))
                   for n in range(N + 1)]
    return spheres


PRODUCT_FACTORS = ["Z^1", "Z^2", "H3", "C3", "C4", "C12", "F1", "F2", "F3"]


@given(st.lists(st.sampled_from(PRODUCT_FACTORS), min_size=2, max_size=3),
       st.integers(0, 4))
# "a" and "ab" in F2: "ab|" sorts before "a|", where "a" sorts before "ab"
@example(["F2", "Z^1"], 3)
@example(["F2", "F2", "C3"], 3)
@example(["Z^2", "F3", "H3"], 2)
def test_product_spheres_sort_by_joined_keys(names, N):
    factors = [R.parse_descriptor(name) for name in names]
    spec = R.DirectProduct(factors)
    assume(R.ball_sizes(spec, N)[-1] <= 20_000)
    assert R.enumerate_balls(spec, N).spheres == joined_key_spheres(factors, N)


@pytest.fixture
def element_loads(monkeypatch):
    """[(index, its element list loads so far)] for each LengthIndex of a
    product built from now on."""
    built = []

    class Counted(rdlab.groups.LengthIndex):
        def __init__(self, spec, radius, sphere_sizes, elements, rows=None):
            loads = []

            def load():
                loads.append(radius)
                return elements()
            super().__init__(spec, radius, sphere_sizes, load, rows)
            if isinstance(spec, R.DirectProduct):
                built.append((self, loads))
    monkeypatch.setattr(rdlab.groups, "LengthIndex", Counted)
    return built


def test_a_product_lists_its_elements_at_the_first_read(element_loads,
                                                        capsys):
    # growth reads sphere sizes only, so Z^1xF2's 26,225 tuples are never
    # built; a library search builds them at the first element read, once,
    # in the joined-key order
    assert rdlab.cli.run_command(["growth", "--group", "Z^1xF2",
                                  "--radius", "8"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "8,17494,26225"
    [(_, loads)] = element_loads
    assert loads == []
    index = R.enumerate_balls(R.parse_descriptor("Z^1xF2"), 8)
    assert index.size() == 26225
    assert element_loads[1:] == [(index, [])]
    factors = [R.FreeAbelian(1), R.FreeGroup(2)]
    assert index.spheres == joined_key_spheres(factors, 8)
    assert index.sphere(3) == index.ball(3)[-index.sphere_sizes[3]:]
    assert element_loads[1:] == [(index, [8])]


@pytest.fixture
def dict_searches(monkeypatch):
    """The descriptors of the groups the dict search runs on, in order."""
    searched = []
    dict_index = rdlab.groups._dict_index

    def recording(spec, N):
        searched.append(spec.descriptor())
        return dict_index(spec, N)
    monkeypatch.setattr(rdlab.groups, "_dict_index", recording)
    return searched


@pytest.mark.parametrize("spec, N, searched", PRODUCTS, ids=PRODUCT_IDS)
def test_product_search_matches_the_dict_search(spec, N, searched,
                                                dict_searches):
    index = R.enumerate_balls(spec, N)
    assert dict_searches == searched
    assert R.sphere_sizes(spec, N) == index.sphere_sizes
    assert_same_index(spec, N, index)


@pytest.mark.parametrize("descriptor, N", [("Z^10", 4), ("Z^5", 12)])
def test_a_sparse_box_takes_the_sorted_test(descriptor, N):
    # B_4 of Z^10 holds 8,361 elements in 9^10 cells, B_12 of Z^5 85,305 in
    # 25^5 cells: more than 8 d cells per element, so no bitmap is made
    spec = R.parse_descriptor(descriptor)
    with mock.patch.object(rdlab.groups, "_BoxBitmap",
                           side_effect=AssertionError("bitmap")):
        index = R.enumerate_balls(spec, N)
    assert index.rows is not None
    assert index.sphere_sizes == R.sphere_sizes(spec, N)
    assert len(np.unique(index.rows, axis=0)) == index.size()
    assert np.abs(index.rows).sum(axis=1).tolist() == [
        n for n, size in enumerate(index.sphere_sizes) for _ in range(size)]
    for sphere in index.spheres:
        keys = list(map(spec.element_key, sphere))
        assert keys == sorted(keys)


@pytest.mark.parametrize("descriptor, N", [("H3", 24), ("Z^4", 16)])
def test_a_dense_box_takes_the_bitmap(descriptor, N):
    # B_24 of H3 fills about one cell in five of its box, B_16 of Z^4 one in
    # 24: within 8 d cells per element
    spec = R.parse_descriptor(descriptor)
    with mock.patch.object(rdlab.groups, "_SortedSpheres",
                           side_effect=AssertionError("sorted test")):
        index = R.enumerate_balls(spec, N)
    digest = next(digest for name, radius, digest in PINNED_BALLS
                  if (name, radius) == (descriptor, N))
    assert hashlib.sha256(serialize_index(index).encode()).hexdigest() == digest


# one group per search path: Z^d and H3 rows, F_r words, products with
# their keys, and C_m on the dict search (C12 past its diameter of 6)
HELD_RADII = {"Z^2": 12, "H3": 6, "F2": 6, "Z^1xF2": 4, "H3xC3": 3, "C7": 5,
              "C12": 8}


@given(st.sampled_from(sorted(HELD_RADII)), st.data())
def test_a_larger_ball_holds_the_smaller_ones(descriptor, data):
    # ``ball_index`` serves a radius r from a held ball of radius R >= r,
    # whose spheres S_0..S_r must be those of the search to r, in order
    spec = R.parse_descriptor(descriptor)
    big_radius = data.draw(st.integers(0, HELD_RADII[descriptor]))
    r = data.draw(st.integers(0, big_radius))
    big, small = R.enumerate_balls(spec, big_radius), R.enumerate_balls(spec, r)
    assert [big.sphere(n) for n in range(r + 1)] == small.spheres
    assert big.sphere_sizes[: r + 1] == small.sphere_sizes
    assert list(big.ball(r)) == list(small.ball(r))
    if small.rows is not None:
        assert np.array_equal(big.rows[: small.size()], small.rows)


@given(groups() | st.sampled_from([(p, N) for p, N, _ in PRODUCTS]), st.data())
def test_budget_errors_match_the_dict_search(group, data):
    spec, top = group
    n = data.draw(st.integers(1, top))
    ball = sum(map(len, dict_bfs(spec, n)))
    assert R.enumerate_balls(spec, n, budget=ball).size() == ball
    # the ball less one, then any smaller budget: on a product, one that a
    # factor's ball passes first too
    for budget in (ball - 1, data.draw(st.integers(0, ball - 1))):
        with pytest.raises(BudgetExceededError) as raised:
            R.enumerate_balls(spec, n, budget=budget)
        with pytest.raises(BudgetExceededError) as expected:
            dict_bfs(spec, n, budget=budget)
        assert str(raised.value) == str(expected.value)
        assert raised.value.radius_reached == expected.value.radius_reached
        assert raised.value.radius_reached == n - 1 or budget < ball - 1


def test_a_factor_past_the_budget_names_the_product():
    # F2 passes 5000 elements at radius 8, Z^1xF2 at radius 7
    with pytest.raises(BudgetExceededError) as raised:
        R.enumerate_balls(R.parse_descriptor("Z^1xF2"), 8, budget=5000)
    assert str(raised.value) == ("ball enumeration for Z^1xF2 passed 5000 "
                                 "elements at radius 7")
    assert raised.value.radius_reached == 6


@pytest.mark.parametrize("descriptor", ["Z^2", "H3", "F2", "C12", "Z^1xF2"])
def test_a_budget_overrun_raises_before_any_search(descriptor, monkeypatch):
    # B_3 is one element past the budget; the growth series says so before
    # any group law runs, however far the radius asked for lies beyond
    spec = R.parse_descriptor(descriptor)
    budget = R.ball_sizes(spec, 3)[3] - 1

    def multiply(g, h):
        raise AssertionError("the search started")
    for group in [spec, *getattr(spec, "factors", [])]:
        monkeypatch.setattr(group, "multiply", multiply)
    with pytest.raises(BudgetExceededError) as raised:
        R.enumerate_balls(spec, 10_000, budget=budget)
    assert str(raised.value) == (f"ball enumeration for {descriptor} passed "
                                 f"{budget} elements at radius 3")
    assert raised.value.radius_reached == 2


@pytest.mark.parametrize("descriptor, N, limit", [
    # coordinates reach a limit of 3 at radius 3
    ("Z^2", 3, 3),
    ("H3", 3, 3),
    # a bounding box of 3^40 cells at radius 1, past 2^63
    ("Z^40", 1, COORD_LIMIT),
])
def test_coordinates_past_the_limits_fall_back_to_the_dict_search(
        descriptor, N, limit, monkeypatch):
    # N is the first radius at which a guard trips: the array search runs to
    # N - 1, the dict search from N on
    monkeypatch.setattr(rdlab.groups, "COORD_LIMIT", limit)
    spec = R.parse_descriptor(descriptor)
    assert R.enumerate_balls(spec, N - 1).rows is not None
    for radius in (N, N + 1):
        index = R.enumerate_balls(spec, radius)
        assert index.rows is None
        assert_same_index(spec, radius, index)


ENTRIES = st.one_of(st.integers(-12, 12), st.integers(-1000, 1000),
                    st.sampled_from([0, 1, -1, 9, 10, -10, 99, 100, -100, 101]))


@given(st.integers(1, 4).flatmap(
    lambda k: st.lists(st.tuples(*[ENTRIES] * k), min_size=1, max_size=40)))
@example([(1,), (10,), (2,), (-1,), (-10,), (-2,), (0,), (100,), (11,)])
@example([(1, 2), (12, -3), (1, -20), (-1, 0), (0, 0), (10, 5), (1, 10)])
# columns of mixed digit widths
@example([(-100, 9, 10), (99, -9, 100), (0, -1, 1), (-100, 9, 1), (9, -9, 10),
          (99, -10, 100), (-1, 0, -1), (10, 9, 100)])
def test_text_order_sorts_as_element_key(rows):
    # in the box the rows just fit, so each column's extremes are its edges
    key = R.FreeAbelian(len(rows[0])).element_key
    ranks = TextRanks([max(abs(x) for x in col) for col in zip(*rows)])
    cols = tuple(np.array(rows, dtype=np.int64).T)
    keys = ranks.keys(cols)
    assert [rows[i] for i in keys.argsort(kind="stable")] == sorted(rows, key=key)
    back = np.empty((len(rows), len(rows[0])), dtype=np.int64)
    ranks.decode(keys, back)
    assert list(map(tuple, back.tolist())) == rows


@pytest.mark.parametrize("descriptor, N, sizes", [
    ("H3", 24, [2401, 289]),
    ("Z^1", 1000, [2001]),
    ("Z^5", 12, [625, 15625]),
    # 9^5 cells in each half of the columns, more than the 8,361 elements
    # of B_4: each half is split again
    ("Z^10", 4, [81, 729, 81, 729]),
    # 3^39 cells for the 79 elements of B_1: halved down to 9 or 27 cells
    ("Z^39", 1, None),
])
def test_the_search_tables_give_the_text_ranks(descriptor, N, sizes):
    # the search keys cells through tables over parts of the columns, none
    # longer than the ball; they must give the keys of one table per column
    spec = R.parse_descriptor(descriptor)
    bounds = spec.ball_bounds(N)
    index = R.enumerate_balls(spec, N)
    tables = TextRanks(bounds, most=index.size())
    columns = TextRanks(bounds)
    assert max(tables.sizes) <= index.size()
    assert sizes in (None, tables.sizes)
    assert columns.sizes == [2 * m + 1 for m in bounds]
    spans = columns.spans
    cells = np.concatenate([
        cell_keys(tuple(index.rows.T), [-m for m in bounds], spans),
        np.random.default_rng(0).integers(0, math.prod(spans), 10_000)])
    keys = columns.of_cells(cells)
    assert np.array_equal(tables.of_cells(cells), keys)
    rows, back = (np.empty((len(keys), len(bounds)), dtype=np.int64)
                  for _ in range(2))
    assert np.array_equal(tables.decode(keys, rows), cells)
    assert np.array_equal(columns.decode(keys, back), cells)
    assert np.array_equal(rows, back)
    assert np.array_equal(rows[: index.size()], index.rows)


def cut(lines):
    return lines[:-3]


def reverse(lines):
    return lines[:1] + lines[:0:-1]


def swap_within_a_sphere(lines):
    return lines[:2] + [lines[3], lines[2]] + lines[4:]


def duplicate_across_spheres(lines):
    # the identity again, in its sorted place on sphere 2
    key = lines[1].split("\t")[0]
    sphere = [line for line in lines if line.endswith("\t2\n")]
    placed = sorted(sphere + [f"{key}\t2\n"])
    start = lines.index(sphere[0])
    return lines[:start] + placed + lines[start + len(sphere):]


def negative_length(lines):
    return lines[:1] + [lines[1].replace("\t0", "\t-1")] + lines[2:]


def wrong_arity(lines):
    return lines[:1] + [lines[1].replace("\t", ",0\t")] + lines[2:]


def respell(number, spelling):
    """Spell the first coordinate ``number`` of a record as ``spelling``."""
    def corrupt(lines):
        i = next(i for i, line in enumerate(lines) if line.startswith(number + ","))
        return lines[:i] + [spelling + lines[i][len(number):]] + lines[i + 1:]
    corrupt.__name__ = f"respell_{number}_as_{spelling.strip()}"
    return corrupt


# each corrupted file is named at its first line that differs from the
# writer's bytes for the ball its header names
CORRUPTIONS = [
    (cut, {"Z^2": ":84: the file ends, expected '5,-1\\t6\\n'",
           "H3": ":592: the file ends, expected '5,1,4\\t6\\n'"}),
    (reverse, {"Z^2": ":2: expected '0,0\\t0\\n', found '6,0\\t6\\n'",
               "H3": ":2: expected '0,0,0\\t0\\n', found '6,0,0\\t6\\n'"}),
    (swap_within_a_sphere,
     {"Z^2": ":3: expected '-1,0\\t1\\n', found '0,-1\\t1\\n'",
      "H3": ":3: expected '-1,0,0\\t1\\n', found '0,-1,0\\t1\\n'"}),
    (duplicate_across_spheres,
     {"Z^2": ":11: expected '0,2\\t2\\n', found '0,0\\t2\\n'",
      "H3": ":13: expected '0,2,0\\t2\\n', found '0,0,0\\t2\\n'"}),
    (negative_length, {"Z^2": ":2: expected '0,0\\t0\\n', found '0,0\\t-1\\n'",
                       "H3": ":2: expected '0,0,0\\t0\\n', found '0,0,0\\t-1\\n'"}),
    (wrong_arity, {"Z^2": ":2: expected '0,0\\t0\\n', found '0,0,0\\t0\\n'",
                   "H3": ":2: expected '0,0,0\\t0\\n', found '0,0,0,0\\t0\\n'"}),
    (respell("1", "01"), {"Z^2": ":6: expected '1,0\\t1\\n', found '01,0\\t1\\n'",
                          "H3": ":6: expected '1,0,0\\t1\\n', found '01,0,0\\t1\\n'"}),
    (respell("1", "+1"), {"Z^2": ":6: expected '1,0\\t1\\n', found '+1,0\\t1\\n'",
                          "H3": ":6: expected '1,0,0\\t1\\n', found '+1,0,0\\t1\\n'"}),
    (respell("1", " 1"), {"Z^2": ":6: expected '1,0\\t1\\n', found ' 1,0\\t1\\n'",
                          "H3": ":6: expected '1,0,0\\t1\\n', found ' 1,0,0\\t1\\n'"}),
    (respell("0", "-0"), {"Z^2": ":2: expected '0,0\\t0\\n', found '-0,0\\t0\\n'",
                          "H3": ":2: expected '0,0,0\\t0\\n', found '-0,0,0\\t0\\n'"}),
]


@pytest.mark.parametrize("corrupt, messages", CORRUPTIONS,
                         ids=[c.__name__ for c, _ in CORRUPTIONS])
@pytest.mark.parametrize("descriptor", ["Z^2", "H3"])
def test_corrupt_files_name_their_fault(tmp_path, descriptor, corrupt, messages):
    spec = R.parse_descriptor(descriptor)
    path = tmp_path / f"{descriptor}.N6.ballcache"
    write_ball_cache(R.enumerate_balls(spec, 6), path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(corrupt(lines)), encoding="utf-8")
    with pytest.raises(CacheFormatError, match=re.escape(messages[descriptor])):
        read_ball_cache(path, spec, 6)


@pytest.mark.parametrize("descriptor, rows", [("Z^2", True), ("H3", True),
                                              ("F2", False), ("Z^1xC5", False)])
def test_whole_files_read_back_the_search(tmp_path, descriptor, rows):
    spec = R.parse_descriptor(descriptor)
    path = tmp_path / f"{descriptor}.N5.ballcache"
    assert cache_roundtrip(spec, 5, path)
    loaded = read_ball_cache(path, spec, 5)
    assert (loaded.rows is not None) == rows
    assert serialize_index(loaded) == path.read_text(encoding="utf-8")
    # a file without its last newline is not what the writer wrote
    text = path.read_text(encoding="utf-8")
    path.write_text(text[:-1], encoding="utf-8")
    last = text.splitlines()[-1]
    message = f":{text.count(chr(10))}: expected {last + chr(10)!r}, found {last!r}"
    with pytest.raises(CacheFormatError, match=re.escape(message)):
        read_ball_cache(path, spec, 5)
