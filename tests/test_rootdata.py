import copy
import pickle

import pytest

from bruhat_atlas.atlas import Atlas, PELCase, StratumRecord
from bruhat_atlas.coxeter import WeylGroup
from bruhat_atlas.errors import InputError
from bruhat_atlas.galois import OrbitPoset
from bruhat_atlas.oracle import CheckResult, VerificationReport
from bruhat_atlas.rootdata import (
    CartanMatrix,
    CocharSpec,
    DiagramAutomorphism,
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
        assert validate_automorphism([0, 1], cartan).is_identity

    def test_a2_flip(self):
        cartan = cartan_from_spec(spec(("A", 2)))
        flip = validate_automorphism([1, 0], cartan)
        assert not flip.is_identity and flip.power(2).is_identity

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
        assert [phi.power(k).is_identity for k in range(1, 4)] == [False, False, True]

    def test_composition_is_valid(self):
        cartan = cartan_from_spec(spec(("A", 3)))
        flip = validate_automorphism([2, 1, 0], cartan)
        composed = tuple(flip.perm[flip.perm[i]] for i in range(3))
        assert validate_automorphism(composed, cartan) == flip.power(2)
        assert flip.power(2).is_identity

    def test_powers_cycle(self):
        cartan = cartan_from_spec(spec(("A", 1), ("A", 1), ("A", 1)))
        phi = validate_automorphism([1, 2, 0], cartan)
        assert phi.power(3).is_identity
        assert phi.power(1).perm == phi.perm

    @pytest.mark.parametrize(
        "factors,perm,order",
        [
            ((("D", 4),), [2, 1, 3, 0], 3),
            ((("A", 1),) * 5, [1, 2, 3, 4, 0], 5),  # the cycle of hilbert:5
        ],
        ids=["D4-triality", "hilbert:5"],
    )
    def test_power_is_the_k_fold_composite(self, factors, perm, order):
        phi = validate_automorphism(perm, cartan_from_spec(spec(*factors)))
        composite = tuple(range(len(perm)))
        for k in range(2 * order + 1):
            assert phi.power(k) == DiagramAutomorphism(composite)
            assert phi.power(k).is_identity == (k % order == 0)
            composite = tuple(perm[i] for i in composite)


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


def _c2_case(**fields):
    c2 = spec(("C", 2))
    return PELCase(c2, identity_automorphism(cartan_from_spec(c2)), **fields)


# per value type: its fields, a maker of fresh instances from equal fields,
# and an instance that differs from them in one field
VALUES = {
    "DynkinSpec": (
        ("factors",),
        lambda: spec(("A", 2), ("C", 3)),
        spec(("A", 2), ("C", 4)),
    ),
    "CartanMatrix": (
        ("spec", "entries"),
        lambda: cartan_from_spec(spec(("B", 3))),
        cartan_from_spec(spec(("C", 3))),
    ),
    "DiagramAutomorphism": (
        ("perm",),
        lambda: DiagramAutomorphism((1, 0)),
        DiagramAutomorphism((0, 1)),
    ),
    "CocharSpec": (("pairings",), lambda: CocharSpec((0, 1)), CocharSpec((1, 0))),
    "PELCase": (
        ("spec", "phi", "mu", "J", "minuscule_check", "element_bound"),
        lambda: _c2_case(mu=CocharSpec((0, 1))),
        _c2_case(mu=CocharSpec((0, 1)), element_bound=5),
    ),
}


@pytest.mark.parametrize("name", sorted(VALUES))
class TestValueTypes:
    def test_equal_fields_give_equal_values(self, name):
        fields, make, other = VALUES[name]
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != other and other == other
        assert a != tuple(getattr(a, f) for f in fields)

    def test_attribute_assignment_is_refused(self, name):
        fields, make, _ = VALUES[name]
        value = make()
        for field in fields:
            before = getattr(value, field)
            with pytest.raises(AttributeError):
                setattr(value, field, None)
            with pytest.raises(AttributeError):
                delattr(value, field)
            assert getattr(value, field) is before
        with pytest.raises(AttributeError):
            value.extra = 1

    def test_repr_names_every_field_in_order(self, name):
        fields, make, _ = VALUES[name]
        value = make()
        inner = ", ".join(f"{f}={getattr(value, f)!r}" for f in fields)
        assert repr(value) == f"{name}({inner})"

    def test_copy_and_pickle_keep_the_value(self, name):
        value = VALUES[name][1]()
        assert copy.copy(value) == value
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize(
    "record",
    [
        Atlas,
        CheckResult,
        OrbitPoset,
        StratumRecord,
        VerificationReport,
    ],
    ids=lambda record: record.__name__,
)
def test_record_sets_its_slots_by_position_or_by_name(record):
    fields = record.__slots__
    values = [object() for _ in fields]
    by_position = record(*values)
    by_name = record(**dict(zip(fields, reversed(values))))
    assert [getattr(by_position, f) for f in fields] == values
    assert [getattr(by_name, f) for f in fields] == values[::-1]
    copied = copy.copy(by_position)
    assert copied is not by_position
    assert [getattr(copied, f) for f in fields] == values
    with pytest.raises(TypeError, match=f"missing field {fields[-1]!r}"):
        record(*values[:-1])
    with pytest.raises(TypeError, match=f"has {len(fields)} fields"):
        record(*values, None)
    with pytest.raises(TypeError, match="unexpected fields"):
        record(*values, extra=None)
    with pytest.raises(TypeError, match="unexpected fields"):
        record(*values, **{fields[0]: None})


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: DynkinSpec(()), "at least one factor required"),
        (
            lambda: spec(("A", 2), ("E", 6)),
            "factor 1: type 'E' not supported; only A, B, C, D",
        ),
        (lambda: spec(("D", 2)), "factor 0: type D needs rank >= 3, got 2"),
        (lambda: spec(("C", True)), "factor 0: type C needs rank >= 2, got True"),
        (
            lambda: CocharSpec((0, -1)),
            "pairings must be >= 0 (dominance), got (0, -1)",
        ),
        (
            lambda: _c2_case(mu=CocharSpec((0, 1)), J=frozenset({0})),
            "exactly one of mu and J must be given",
        ),
        (lambda: _c2_case(), "exactly one of mu and J must be given"),
        (
            lambda: _c2_case(J=frozenset(), element_bound=0),
            "options.element_bound must be an integer >= 1, got 0",
        ),
    ],
    ids=[
        "no-factors",
        "bad-type",
        "low-rank",
        "bool-rank",
        "negative-pairing",
        "mu-and-J",
        "neither-mu-nor-J",
        "bound-below-1",
    ],
)
def test_constructor_checks_fire_with_their_message(build, message):
    with pytest.raises(InputError) as info:
        build()
    assert str(info.value) == message
