import collections
import hashlib
import json
import random
from unittest import mock

import pytest

import rdlab as R
from rdlab.errors import BudgetExceededError, HomomorphismError


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
            lengths = index.lengths
            for g in index.ball(4):
                for h in index.sphere(4):
                    assert spec.multiply(g, h) in lengths


class TestWordLength:
    def test_closed_forms(self):
        assert Z2.word_length((3, -2)) == 5
        assert F2.word_length("abab") == 4
        assert C12.word_length(7) == 5
        assert R.DirectProduct([Z, F2]).word_length(((2,), "aB")) == 4

    def test_heisenberg_examples(self):
        # z = [x, y] has length 4, z^4 = [x^2, y^2] length 8, and each of
        # Blachere's three cases shows: c <= ab, ab < c <= max(a, b)^2, and
        # c beyond it
        examples = {(0, 0, 1): 4, (0, 0, -1): 4, (0, 0, 4): 8, (0, 0, 2): 6,
                    (1, 1, 1): 2, (3, -2, -6): 5, (4, 1, 6): 7, (-1, 1, 5): 8}
        assert {g: H3.word_length(g) for g in examples} == examples

    def test_heisenberg_formula_matches_bfs(self):
        # every element of B_24, 141,225 of them
        index = R.enumerate_balls(H3, 24)
        assert {g: n for g, n in index.lengths.items()
                if H3.word_length(g) != n} == {}

    def test_heisenberg_formula_counts_shapiro_spheres(self):
        # a word of length n has |a|, |b| <= n and |c| <= n^2, so the box
        # holds B_12, and the formula's sphere counts in it are Shapiro's
        counts = collections.Counter(
            H3.word_length((a, b, c)) for a in range(-12, 13)
            for b in range(-12, 13) for c in range(-144, 145))
        assert [counts[n] for n in range(13)] == R.sphere_sizes(H3, 12)

    @pytest.mark.parametrize("spec,size", [(Z, lambda n: 2 * n + 1),
                                           (F2, lambda n: 2 * 3 ** n - 1),
                                           (C12, lambda n: min(2 * n + 1, 12))])
    def test_closed_form_matches_bfs(self, spec, size):
        index = R.enumerate_balls(spec, 10)
        for g, ell in index.lengths.items():
            assert spec.word_length(g) == ell
        for n in range(11):
            assert index.ball_sizes[n] == size(n)

    @pytest.mark.parametrize("descriptor", ["Z^3", "F3", "C7", "Z^1xC3",
                                            "F2xC4", "H3", "H3xZ^1",
                                            "Z^1xF2xH3"])
    def test_closed_form_matches_bfs_on_every_group(self, descriptor):
        # a product's length is the sum of its factors' lengths
        spec = R.parse_descriptor(descriptor)
        index = R.enumerate_balls(spec, 3)
        assert {g: spec.word_length(g) for g in index.ball(3)} == index.lengths

    def test_length_symmetry(self, h3_index):
        for g, ell in h3_index.lengths.items():
            assert H3.word_length(H3.inverse(g)) == ell

    def test_triangle_inequality(self, h3_index):
        rng = random.Random(0)
        elems = list(h3_index.ball(5))
        for _ in range(300):
            g, h = rng.choice(elems), rng.choice(elems)
            assert H3.word_length(H3.multiply(g, h)) <= \
                H3.word_length(g) + H3.word_length(h)


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
        assert z2_index.lengths[Z2.identity()] == 0

    def test_budget_exceeded_reports_radius(self):
        with pytest.raises(BudgetExceededError) as err:
            R.enumerate_balls(Z2, 10, budget=10)
        assert err.value.radius_reached == 1

    def test_dict_search_budget_reports_radius(self):
        # |B_3| = 53 and |B_4| = 161 on F2
        with pytest.raises(BudgetExceededError) as err:
            R.enumerate_balls(F2, 6, budget=100)
        assert err.value.radius_reached == 3

    def test_repr_lists_no_elements(self, h3_index):
        # lengths and spheres hold every element; the repr names the index only
        assert len(repr(h3_index)) < 200

    def test_spheres_sorted_by_key(self, f2_index):
        for n in range(f2_index.radius + 1):
            keys = [F2.element_key(g) for g in f2_index.sphere(n)]
            assert keys == sorted(keys)


# sha256 of the JSON text of sphere_sizes, computed with the sizes of
# each class written out (a binomial sum for Z^d, H3's order-8 recurrence,
# powers for F_r, a min formula for C_m, a Cauchy product for products): far
# past any radius an index reaches, so a change of rule shows here
CLOSED_SIZE_PINS = {
    ("Z", 600): "ddcfdf502d2d023deadd34ad34264bcc1cbd194ef7f0bc245d181d24da2ca23b",
    ("Z^2", 600): "d2ba564f50e9140c1a6373a70216629c25748c2219ff9f6a6e4270011368fbd6",
    ("Z^3", 600): "99e2624702ddc8a38e322fb7723a2a4bd5c98c1a0b5db195ce3b67fab76a4a8e",
    ("Z^5", 600): "f402d238d33d5ae78b86e1ea6f14988a83a044dcc929a705149b54b77bbed359",
    ("H3", 600): "a735b1984fd6d08d96044bf182a8a4b42f25d0b033ec356b68f40f25cc3853dd",
    ("F1", 600): "ddcfdf502d2d023deadd34ad34264bcc1cbd194ef7f0bc245d181d24da2ca23b",
    ("F2", 600): "77d1e33354cddeb3b77140eae75e9cd856516f5e9e7ddfb95dbd59d883d9574e",
    ("F3", 600): "608180a758a6f00d976bb01c4e37de4799412c3d18a13ae19a4f17aac6b45a6e",
    ("F7", 600): "51a6e6f1fe80ee95c83acb444c8a70c59e01da660263be7af412f44bac0ac89f",
    ("C1", 600): "45bd6c2dd76488f9d822726bc83d77b699346150b6508b56b0ff2ffd84eb26a3",
    ("C2", 600): "479162bb76cda70c106d3833b902fbdc11ba763d8bfb2cb27b574e530dfa9454",
    ("C3", 600): "d2dbd06c16104e73616492bdcb7e07100bc2401cade6a79759f0ef1f49fd2f80",
    ("C4", 600): "0762071e3092f1ddc8723ad079c237cb105211103761fcd7f6cb1bf9a30e7473",
    ("C5", 600): "602c4b7b39628f57d710a433531fd6d1dd73ada608ce3d33ed9a7fb06b131f70",
    ("C6", 600): "0963f31adc511905e3b21f67fca5a09d14da4ac08300e65e36bfb3699355372f",
    ("C12", 600): "2b13617454ca261075986b61c1be25f3f6c503cd68bf52aa55e48231747a9056",
    ("Z^1xF2", 600): "ef773703980cf7387a0b88b5577b0aa8f528eb6f18e26762a2b049aa97bac926",
    ("H3xC3", 600): "ffcc41a997a2d85c865899e1e0020c5566e289189bef646456aefac9f75d279f",
    ("Z^2xC4xF2", 600): "71abb3c2000a9fefbfd6e99a76e1915dc82de0aca35a3e5b492b523bd4116808",
    ("H3xZ^1", 600): "bc1ec22aca9963a0eaf1661f3b29e6f4b63da3f2a5de450d7c9dff18d8a8ff47",
    ("Z^1xC3", 600): "ec33ec6e3fbb44d867b066dd1a87261e2176bc4bfe03427d2ba507aef14aafbc",
    ("H3xZ^1xF2", 600): "7309eeb2facc23a238e2b3b10d2b38af9bd3262b5dc08fb2ace06eea10094e31",
    ("C1xC2xF1", 600): "2e93d374d5cc6092afee720493d1018d32b843683a591217c3121f9c5e8e2722",
    ("F2xF3xH3", 600): "aa62c7a3f253e61f360b204f66fcb59d209bdc8a362a56d9ae59f482efa3a9d1",
    ("Z^1xC3", 4000): "cfbf53f71d88d85a4d410f201941f9c4c42fb467b5efc8c9723e1bbf6da48d59",
    ("H3xZ^1xF2", 2000): "19922e0138efdb7d87d2dcf75c1d4240f544c913864568c465d0595ff4d03789",
}


class TestClosedSphereSizes:
    @pytest.mark.parametrize("descriptor,radius", CLOSED_SIZE_PINS)
    def test_pinned_sizes(self, descriptor, radius):
        sizes = R.sphere_sizes(R.parse_descriptor(descriptor), radius)
        assert len(sizes) == radius + 1
        digest = hashlib.sha256(json.dumps(sizes).encode()).hexdigest()
        assert digest == CLOSED_SIZE_PINS[descriptor, radius]

    @pytest.mark.parametrize("read", [R.sphere_sizes, R.ball_sizes],
                             ids=["sphere_sizes", "ball_sizes"])
    @pytest.mark.parametrize("descriptor", ["F2", "Z^2", "C4", "H3xZ^1"])
    def test_each_call_gets_its_own_list(self, descriptor, read, monkeypatch):
        # from an empty store of terms, so that a request as long as the
        # stored terms comes up too
        monkeypatch.setattr(R.groups, "_SERIES_TERMS", {})
        spec = R.parse_descriptor(descriptor)
        want = list(read(spec, 12))
        longer = read(spec, 12)
        longer[3] = -1
        longer.append(-1)
        # a shorter request after a longer one gets exactly its radii
        shorter = read(spec, 5)
        assert shorter == want[:6]
        shorter[0] = -1
        shorter.append(-1)
        assert read(spec, 12) == want
        assert read(spec, 5) == want[:6]


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

    @pytest.mark.parametrize("a, b, same", [
        (Z, R.parse_descriptor("Z"), True),
        (R.DirectProduct([Z, F2]), R.parse_descriptor("Z^1xF2"), True),
        (Z, R.FreeGroup(1), False),        # Z^1 and F1: the same lengths
        (R.parse_descriptor("Z^1xF2"), R.parse_descriptor("F2xZ^1"), False),
    ], ids=["Z", "Z^1xF2", "Z^1-F1", "factor-order"])
    def test_groups_are_equal_when_their_descriptors_are(self, a, b, same):
        assert (a == b) is same and (a != b) is not same
        assert (len({a, b}) == 1) is same
        assert (a.descriptor() == b.descriptor()) is same

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
        assert emb.ambient_length((2,)) == 6

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

    def test_powered_runs_give_the_product_of_the_images(self, h3_index):
        # x -> x^2 y, y -> y: images whose powers move every coordinate
        emb = R.embed(H3, H3, {(1, 0, 0): (2, 1, 0), (0, 1, 0): (0, 1, 0)})
        for g in [*h3_index.ball(3), (37, -21, 500), (-64, 63, -5)]:
            out = H3.identity()
            for s in H3.generator_word(g):
                out = H3.multiply(out, emb.images[s])
            assert emb.apply(g) == out

    def test_a_run_of_k_letters_takes_log_k_products(self):
        emb = R.embed(Z, Z2, {(1,): (1, 0)})
        with mock.patch.object(Z2, "multiply", wraps=Z2.multiply) as mul:
            assert emb.apply((-1000,)) == (-1000, 0)
        assert mul.call_count <= 2 * (1000).bit_length()
