import pytest

from bruhat_atlas.coxeter import WeylGroup
from bruhat_atlas.errors import InputError
from bruhat_atlas.rootdata import (
    CocharSpec,
    DynkinSpec,
    cartan_from_spec,
    identity_automorphism,
    pairing,
    positive_roots,
    reflect,
    validate_automorphism,
)


def spec(*factors):
    return DynkinSpec(tuple(factors))


class TestDynkinSpec:
    def test_rank_and_order(self):
        s = spec(("A", 2), ("C", 3))
        assert s.rank == 5
        assert WeylGroup(cartan_from_spec(s)).order == 6 * 48
        assert s.describe() == "A2 x C3"

    @pytest.mark.parametrize(
        "letter,rank", [("A", 0), ("B", 1), ("C", 1), ("D", 2), ("E", 6)]
    )
    def test_bad_factors_rejected(self, letter, rank):
        with pytest.raises(InputError):
            spec((letter, rank))

    def test_error_names_the_factor(self):
        with pytest.raises(InputError, match="factor 1"):
            spec(("A", 2), ("D", 2))


class TestCartanMatrix:
    def test_a2(self):
        assert cartan_from_spec(spec(("A", 2))).entries == ((2, -1), (-1, 2))

    def test_c2_long_root_last(self):
        # node 1 carries the long root: <alpha_1, alpha_0-coroot> = -2
        assert cartan_from_spec(spec(("C", 2))).entries == ((2, -2), (-1, 2))

    def test_b2_is_c2_transposed(self):
        assert cartan_from_spec(spec(("B", 2))).entries == ((2, -1), (-2, 2))

    def test_product_block_diagonal(self):
        assert cartan_from_spec(spec(("A", 1), ("A", 1))).entries == ((2, 0), (0, 2))

    def test_d4_central_node(self):
        a = cartan_from_spec(spec(("D", 4))).entries
        assert [a[1][j] for j in range(4)] == [-1, 2, -1, -1]
        assert a[0][2] == a[0][3] == a[2][3] == 0

    def test_diagonal_and_sign_pattern(self):
        for s in [spec(("B", 3)), spec(("C", 4)), spec(("D", 5)), spec(("A", 4))]:
            a = cartan_from_spec(s).entries
            n = s.rank
            for i in range(n):
                assert a[i][i] == 2
                for j in range(n):
                    if i != j:
                        assert a[i][j] <= 0
                        assert (a[i][j] == 0) == (a[j][i] == 0)


class TestPositiveRoots:
    def test_a2(self):
        roots = positive_roots(cartan_from_spec(spec(("A", 2))))
        assert set(roots) == {(1, 0), (0, 1), (1, 1)}

    def test_c2_highest_root(self):
        roots = positive_roots(cartan_from_spec(spec(("C", 2))))
        assert len(roots) == 4
        assert (2, 1) in roots

    def test_c5_count(self):
        assert len(positive_roots(cartan_from_spec(spec(("C", 5))))) == 25

    @pytest.mark.parametrize(
        "letter,max_rank", [("A", 7), ("B", 6), ("C", 6), ("D", 6)]
    )
    def test_counts_match_closed_form(self, letter, max_rank):
        from bruhat_atlas.rootdata import _MIN_RANK

        for rank in range(_MIN_RANK[letter], max_rank + 1):
            s = spec((letter, rank))
            assert len(positive_roots(cartan_from_spec(s))) == s.positive_root_count

    def test_simple_units_present_once(self):
        cartan = cartan_from_spec(spec(("C", 3)))
        roots = positive_roots(cartan)
        units = [r for r in roots if sum(r) == 1]
        assert len(units) == 3
        assert all(all(c >= 0 for c in r) for r in roots)

    def test_reflection_permutes_other_positives(self):
        # s_i negates alpha_i and permutes the remaining positive roots
        for name in [("A", 3), ("C", 3), ("D", 4)]:
            cartan = cartan_from_spec(spec(name))
            roots = set(positive_roots(cartan))
            for i in range(cartan.n):
                alpha_i = tuple(1 if k == i else 0 for k in range(cartan.n))
                images = {reflect(cartan, i, r) for r in roots - {alpha_i}}
                assert images == roots - {alpha_i}
                assert reflect(cartan, i, alpha_i) == tuple(-c for c in alpha_i)


class TestAutomorphisms:
    def test_identity_always_valid(self, request):
        cartan = cartan_from_spec(spec(("A", 2)))
        assert validate_automorphism([0, 1], cartan).order == 1

    def test_a2_flip(self):
        cartan = cartan_from_spec(spec(("A", 2)))
        assert validate_automorphism([1, 0], cartan).order == 2

    def test_c2_swap_rejected(self):
        cartan = cartan_from_spec(spec(("C", 2)))
        with pytest.raises(InputError, match=r"\(0,1\)|\(1,0\)"):
            validate_automorphism([1, 0], cartan)

    def test_non_bijection_rejected(self):
        cartan = cartan_from_spec(spec(("A", 2)))
        with pytest.raises(InputError, match="bijection"):
            validate_automorphism([1, 1], cartan)

    def test_d4_triality(self):
        cartan = cartan_from_spec(spec(("D", 4)))
        phi = validate_automorphism([2, 1, 3, 0], cartan)
        assert phi.order == 3

    def test_composition_is_valid(self):
        cartan = cartan_from_spec(spec(("A", 3)))
        flip = validate_automorphism([2, 1, 0], cartan)
        composed = tuple(flip.perm[flip.perm[i]] for i in range(3))
        assert validate_automorphism(composed, cartan).order == 1

    def test_powers_cycle(self):
        cartan = cartan_from_spec(spec(("A", 1), ("A", 1), ("A", 1)))
        phi = validate_automorphism([1, 2, 0], cartan)
        assert phi.order == 3
        assert phi.power(3).is_identity
        assert phi.power(1).perm == phi.perm


class TestPairing:
    def test_linearity(self):
        assert pairing(CocharSpec((0, 1)), (1, 1)) == 1

    def test_zero_cocharacter(self):
        mu = CocharSpec((0, 0))
        for root in positive_roots(cartan_from_spec(spec(("A", 2)))):
            assert pairing(mu, root) == 0

    def test_c2_siegel_highest_root(self):
        assert pairing(CocharSpec((0, 1)), (2, 1)) == 1

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            pairing(CocharSpec((0, 1)), (1, 0, 0))

    def test_dominance_enforced(self):
        with pytest.raises(InputError):
            CocharSpec((0, -1))
