import random

import pytest

import rdlab as R
from rdlab.errors import BudgetExceededError, HomomorphismError, IndexRadiusError


Z = R.FreeAbelian(1)
Z2 = R.FreeAbelian(2)
H3 = R.DiscreteHeisenberg()
F2 = R.FreeGroup(2)
C12 = R.FiniteCyclic(12)


class TestGroupLaw:
    def test_free_abelian_product(self):
        assert Z2.multiply((1, 2), (3, -1)) == (4, 1)

    def test_heisenberg_product(self):
        # normal-form product rule with a*b' = 1
        assert H3.multiply((1, 0, 0), (0, 1, 0)) == (1, 1, 1)

    def test_free_reduction(self):
        assert F2.multiply("aB", "ba") == "aa"
        assert F2.multiply("ab", "BA") == ""

    def test_inverse_examples(self):
        assert Z.inverse((5,)) == (-5,)
        assert H3.inverse((1, 1, 1)) == (-1, -1, 0)
        assert F2.inverse("ab") == "BA"

    def test_cyclic(self):
        assert C12.multiply(7, 8) == 3
        assert C12.inverse(5) == 7

    @pytest.mark.parametrize("spec", [Z, Z2, H3, F2, C12, R.DirectProduct([Z, F2])])
    def test_inverse_is_inverse_on_ball(self, spec):
        index = R.enumerate_balls(spec, 4)
        e = spec.identity()
        for g in index.ball(4):
            assert spec.multiply(g, spec.inverse(g)) == e
            assert spec.multiply(spec.inverse(g), g) == e

    @pytest.mark.parametrize("spec", [Z2, H3, F2, C12])
    def test_products_stay_canonical(self, spec):
        index = R.enumerate_balls(spec, 4)
        rng = random.Random(1)
        elems = list(index.ball(4))
        for _ in range(200):
            g, h = rng.choice(elems), rng.choice(elems)
            spec.check_element(spec.multiply(g, h))

    def test_product_agrees_with_bfs_representative(self):
        # products of enumerated elements land back in the enumerated table
        for spec in (Z2, H3, F2):
            index = R.enumerate_balls(spec, 8)
            for g in index.ball(4):
                for h in index.sphere(4):
                    assert spec.multiply(g, h) in index


class TestWordLength:
    def test_closed_forms(self):
        assert R.word_length(Z2, (3, -2)) == 5
        assert R.word_length(F2, "abab") == 4
        assert R.word_length(C12, 7) == 5
        assert R.word_length(R.DirectProduct([Z, F2]), ((2,), "aB")) == 4

    def test_heisenberg_needs_index(self, h3_index):
        with pytest.raises(IndexRadiusError):
            R.word_length(H3, (0, 0, 1))
        assert R.word_length(H3, (0, 0, 1), h3_index) == 4

    @pytest.mark.parametrize("spec,size", [(Z, lambda n: 2 * n + 1),
                                           (F2, lambda n: 2 * 3 ** n - 1),
                                           (C12, lambda n: min(2 * n + 1, 12))])
    def test_closed_form_matches_bfs(self, spec, size):
        index = R.enumerate_balls(spec, 10)
        for g, ell in index.lengths.items():
            assert spec.word_length_closed(g) == ell
        for n in range(11):
            assert index.ball_sizes[n] == size(n)

    def test_length_symmetry(self, h3_index):
        for g, ell in h3_index.lengths.items():
            assert h3_index.length(H3.inverse(g)) == ell

    def test_triangle_inequality(self, h3_index):
        rng = random.Random(0)
        elems = list(h3_index.ball(5))
        for _ in range(300):
            g, h = rng.choice(elems), rng.choice(elems)
            gh = H3.multiply(g, h)
            if gh in h3_index:
                assert h3_index.length(gh) <= h3_index.length(g) + h3_index.length(h)


class TestEnumeration:
    def test_ball_sizes_examples(self):
        assert R.enumerate_balls(Z, 4).ball_sizes == [1, 3, 5, 7, 9]
        assert R.enumerate_balls(Z2, 3).ball_sizes == [1, 5, 13, 25]
        assert R.enumerate_balls(F2, 3).ball_sizes == [1, 5, 17, 53]

    def test_heisenberg_small_balls(self):
        index = R.enumerate_balls(H3, 2)
        assert index.ball_sizes[1] == 5
        assert index.ball_sizes[2] == 17
        assert index.sphere_sizes[2] == 12

    def test_z2_formula(self, z2_index):
        for n in range(49):
            assert z2_index.ball_sizes[n] == 2 * n * n + 2 * n + 1

    def test_infinite_growth_strict(self, h3_index):
        assert all(b < a for b, a in zip(h3_index.ball_sizes, h3_index.ball_sizes[1:]))

    def test_finite_saturation(self, c12_index):
        assert c12_index.ball_sizes[6:] == [12] * 5
        assert c12_index.sphere_sizes[7] == 0

    def test_identity_length_zero(self, z2_index):
        assert z2_index.length(Z2.identity()) == 0

    def test_budget_exceeded_reports_radius(self):
        with pytest.raises(BudgetExceededError) as err:
            R.enumerate_balls(Z2, 10, budget=10)
        assert err.value.radius_reached == 1

    def test_dict_search_budget_reports_radius(self):
        # |B_3| = 53 and |B_4| = 161 on F2
        with pytest.raises(BudgetExceededError) as err:
            R.enumerate_balls(F2, 6, budget=100)
        assert err.value.radius_reached == 3

    def test_product_without_closed_sizes_reads_the_index(self):
        # F2 on a, ab has no closed sphere sizes, and so neither has its
        # product with Z
        other = R.FreeGroup(2, generators=["a", "A", "ab", "BA"])
        spec = R.DirectProduct([other, Z])
        assert spec.closed_sphere_sizes(4) is None
        with pytest.raises(IndexRadiusError):
            R.sphere_sizes(spec, 4)
        # the Cauchy product of its spheres with |S_0| = 1, |S_n| = 2 of Z
        f = R.enumerate_balls(other, 4).sphere_sizes
        want = [f[n] + 2 * sum(f[:n]) for n in range(5)]
        assert R.sphere_sizes(spec, 4, R.enumerate_balls(spec, 4)) == want

    def test_repr_lists_no_elements(self, h3_index):
        # lengths and spheres hold every element; the repr names the index only
        assert len(repr(h3_index)) < 200

    def test_spheres_sorted_by_key(self, f2_index):
        for n in range(f2_index.radius + 1):
            keys = [F2.element_key(g) for g in f2_index.sphere(n)]
            assert keys == sorted(keys)


class TestKeys:
    @pytest.mark.parametrize("spec", [Z, Z2, H3, F2, C12,
                                      R.DirectProduct([Z, F2])])
    def test_key_roundtrip(self, spec):
        index = R.enumerate_balls(spec, 4)
        for g in index.ball(4):
            assert spec.parse_key(spec.element_key(g)) == g

    def test_key_formats(self):
        assert Z2.element_key((3, -2)) == "3,-2"
        assert H3.element_key((1, 2, -3)) == "1,2,-3"
        assert F2.element_key("aB") == "aB"
        assert C12.element_key(7) == "7"
        assert R.DirectProduct([Z, F2]).element_key(((3,), "aB")) == "3|aB"

    def test_nested_products_flatten(self):
        spec = R.DirectProduct([R.DirectProduct([Z, F2]), C12])
        assert spec.factors == [Z, F2, C12]
        assert spec.descriptor() == "Z^1xF2xC12"
        assert spec == R.parse_descriptor("Z^1xF2xC12")

    def test_descriptor_parsing(self):
        for text, descriptor in [("Z", "Z^1"), ("Z^2", "Z^2"), ("H3", "H3"),
                                 ("F2", "F2"), ("C12", "C12"),
                                 ("Z^1xF2", "Z^1xF2")]:
            assert R.parse_descriptor(text).descriptor() == descriptor
        with pytest.raises(ValueError):
            R.parse_descriptor("Q8")

    def test_reduced_word_validation(self):
        with pytest.raises(ValueError):
            F2.parse_key("aA")
        with pytest.raises(ValueError):
            F2.parse_key("xy")


class TestCustomGenerators:
    def test_symmetry_required(self):
        with pytest.raises(ValueError):
            R.FreeAbelian(1, generators=[(1,)])

    def test_custom_generators_change_lengths(self):
        spec = R.FreeAbelian(1, generators=[(1,), (-1,), (2,), (-2,)])
        assert spec.word_length_closed((4,)) is None
        index = R.enumerate_balls(spec, 4)
        assert index.length((4,)) == 2
        assert index.ball_sizes[1] == 5


class TestEmbeddings:
    def test_z_into_z2(self):
        emb = R.embed(Z, Z2, {(1,): (1, 0)})
        assert emb.apply((7,)) == (7, 0)
        assert emb.ambient_length((7,)) == 7

    def test_z_into_f2(self):
        emb = R.embed(Z, F2, {(1,): "a"})
        assert emb.apply((-3,)) == "AAA"
        assert emb.ambient_length((-3,)) == 3

    def test_z_diagonal(self):
        emb = R.embed(Z, Z2, {(1,): (1, 1)})
        assert emb.apply((4,)) == (4, 4)
        assert emb.ambient_length((4,)) == 8

    def test_heisenberg_center(self, h3_index):
        emb = R.embed(Z, H3, {(1,): (0, 0, 1)})
        assert emb.apply((2,)) == (0, 0, 2)

    def test_heisenberg_into_itself(self, h3_index):
        # x -> x^2, y -> y is the homomorphism (a, b, c) -> (2a, b, 2c)
        emb = R.embed(H3, H3, {(1, 0, 0): (2, 0, 0), (0, 1, 0): (0, 1, 0)})
        for g in h3_index.ball(4):
            a, b, c = g
            assert emb.apply(g) == (2 * a, b, 2 * c)

    def test_product_into_z2(self):
        spec = R.parse_descriptor("Z^1xZ^1")
        emb = R.embed(spec, Z2, {((1,), (0,)): (1, 0), ((0,), (1,)): (0, 1)})
        for (a,), (b,) in R.enumerate_balls(spec, 4).ball(4):
            assert emb.apply(((a,), (b,))) == (a, b)

    def test_large_balls_check_sampled_pairs(self, monkeypatch):
        samples = []

        class Recording(random.Random):
            def sample(self, population, k):
                samples.append((len(population), k))
                return super().sample(population, k)
        monkeypatch.setattr(R.groups.random, "Random", Recording)
        emb = R.embed(F2, R.FreeGroup(3), {"a": "a", "b": "b"})
        # |B_3| = 53 on F2: 53^2 pairs, of which 200 are checked
        assert samples == [(2809, 200)]
        assert emb.apply("aBB") == "aBB"

    def test_missing_generator_image(self):
        with pytest.raises(HomomorphismError):
            R.embed(Z2, Z, {(1, 0): (1,)})

    def test_injectivity_failure(self):
        # a -> 1, b -> 1 collapses ab^-1 to the identity's image
        with pytest.raises(HomomorphismError):
            R.embed(F2, Z, {"a": (1,), "b": (1,)})

    def test_homomorphism_failure(self):
        # C12 cannot map onto Z via 1 -> 1: wraps around at 6 + 6
        with pytest.raises(HomomorphismError):
            R.embed(C12, Z, {1: (1,)}, check_radius=6)

    def test_trivial_embedding(self):
        emb = R.standard_embedding("e:Z^2")
        assert emb.apply(0) == (0, 0)
