import copy
import itertools
import json
import pickle
from fractions import Fraction

import pytest

from freestoch.cumulants import CumulantFunctional, MomentFunctional
from freestoch.errors import CrossingPartitionError, DimensionError
from freestoch.partitions import ClassSplit, Partition
from freestoch.processes import (
    Atom,
    ProcessSpec,
    Subdivision,
    free_family,
    make_custom_process,
    make_free_poisson,
    make_semicircular,
    make_tuple,
    spec_from_descriptor,
)
from freestoch.measures import MeasureWord, exact_moment, limit_expect_st

from helpers import (
    CUSTOM_SEQ,
    derived_diagonal_tuple,
    diagonal_substitution_residual,
    increment_cumulant,
    one_hat,
    process_fixtures,
    restrict_spec,
    unit_cumulant,
    word_cumulant,
)


def _value_objects():
    """Two equal builds, from separate inputs, of each hashable value class."""
    def build():
        atom = Atom(7, "custom", (Fraction(1, 2), Fraction(1, 3)))
        p = Partition(((1, 3), (2,)))
        return [p, atom, ProcessSpec(((atom,), (atom, atom))),
                Subdivision((Fraction(1, 3), Fraction(2, 3))),
                MeasureWord(Fraction(2, 3), ((p, "st"),), ((atom,), (atom,), (atom,))),
                ClassSplit(((1, 4),), ((2, 3),))]
    return list(zip(build(), build()))


@pytest.mark.parametrize("value, field", [
    (Partition(((1, 3), (2,))), "k"),
    (Partition(((1, 3), (2,))), "blocks"),
    (Atom(7, "poisson", (Fraction(1),)), "data"),
    (make_free_poisson(1), "words"),
    (Subdivision.uniform(2), "lengths"),
])
def test_value_fields_cannot_be_assigned(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)


@pytest.mark.parametrize("a, b", _value_objects(), ids=lambda v: type(v).__name__)
def test_equal_builds_compare_and_hash_equal(a, b):
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != object() and not (a == (a,))
    assert copy.deepcopy(a) == b and pickle.loads(pickle.dumps(a)) == b


def test_functionals_compare_by_class_and_every_field_and_do_not_hash():
    moments = MomentFunctional.from_single_variable(2, [1, 2])
    assert moments != MomentFunctional.from_single_variable(2, [1, 3])
    assert moments != MomentFunctional.from_single_variable(1, [1, 2])
    assert moments == MomentFunctional.from_single_variable(2, [1, 2])
    assert moments != CumulantFunctional.from_single_variable(2, [1, 2])
    with pytest.raises(TypeError):
        hash(moments)


def test_free_poisson_cumulants():
    spec = make_free_poisson(1)
    for n in (1, 2, 3):
        assert word_cumulant(spec.words[0] * n) == 1
    assert exact_moment(make_tuple(spec, "identical", k=3)) == 5
    lam = make_free_poisson(Fraction(3, 2))
    spec3 = make_tuple(lam, "identical", k=3)
    t = Fraction(2, 5)
    assert increment_cumulant(spec3, one_hat(3), [(0, t)] * 3) == t * Fraction(3, 2)
    with pytest.raises(ValueError):
        make_free_poisson(0)


def test_semicircular_cumulants():
    spec = make_semicircular()
    assert word_cumulant(spec.words[0] * 2) == 1
    assert word_cumulant(spec.words[0] * 3) == 0
    assert exact_moment(make_tuple(spec, "identical", k=4)) == 2
    for n in (1, 3, 5):
        assert exact_moment(make_tuple(spec, "identical", k=n)) == 0


def test_identical_copies():
    spec = make_tuple(make_semicircular(), "identical", k=3)
    assert unit_cumulant(spec, (1, 3)) == 1
    assert unit_cumulant(spec, (1, 2, 3)) == 0
    base = make_custom_process(CUSTOM_SEQ)
    k1 = make_tuple(base, "identical", k=1)
    assert unit_cumulant(k1, (1,)) == unit_cumulant(base, (1,))


def test_free_family_mixed_cumulants_vanish():
    fam = free_family([make_free_poisson(1), make_free_poisson(1)])
    assert unit_cumulant(fam, (1, 2)) == 0
    assert unit_cumulant(fam, (1,)) == 1
    # the same spec object twice still comes out free
    base = make_semicircular()
    fam2 = free_family([base, base])
    assert unit_cumulant(fam2, (1, 2)) == 0


def test_increment_cumulant_interval_rules():
    spec2 = make_tuple(make_free_poisson(1), "identical", k=2)
    # disjoint intervals: empty intersection
    assert increment_cumulant(spec2, one_hat(2),
                              [(0, Fraction(1, 2)), (Fraction(1, 2), 1)]) == 0
    # nested intervals: the inner length times r_2
    assert increment_cumulant(spec2, one_hat(2),
                              [(0, Fraction(1, 4)), (0, 1)]) == Fraction(1, 4)
    with pytest.raises(CrossingPartitionError):
        spec4 = make_tuple(make_free_poisson(1), "identical", k=4)
        increment_cumulant(spec4, Partition.parse("((1,3)(2,4))"), [(0, 1)] * 4)
    with pytest.raises(ValueError):
        increment_cumulant(spec2, one_hat(2), [(1, 1), (0, 1)])


def test_increment_scaling_is_additive():
    spec = make_tuple(make_custom_process(CUSTOM_SEQ), "identical", k=3)
    one = one_hat(3)
    a, b = Fraction(2, 7), Fraction(5, 7)
    left = increment_cumulant(spec, one, [(0, a)] * 3)
    right = increment_cumulant(spec, one, [(a, b)] * 3)
    total = increment_cumulant(spec, one, [(0, b)] * 3)
    assert left + right == total


def test_derived_diagonal_examples():
    base = make_custom_process(CUSTOM_SEQ)
    spec = make_tuple(base, "identical", k=3)
    one_group = derived_diagonal_tuple(spec, [(1, 2)])
    assert unit_cumulant(one_group, (1,)) == unit_cumulant(spec, (1, 2))

    poisson = make_tuple(make_free_poisson(1), "identical", k=3)
    derived = derived_diagonal_tuple(poisson, [(1, 2), (3,), (1, 3)])
    for b in [(1,), (2,), (1, 2), (1, 2, 3)]:
        assert unit_cumulant(derived, b) == 1

    semi = make_tuple(make_semicircular(), "identical", k=2)
    d2 = derived_diagonal_tuple(semi, [(1, 2), (1, 2)])
    assert unit_cumulant(d2, (1, 2)) == 0  # fourth cumulant of the underlying word
    with pytest.raises(ValueError):
        derived_diagonal_tuple(semi, [()])


def test_substitution_rule_oracle_matrix():
    for name, base in process_fixtures().items():
        for k in (1, 2, 3):
            spec = make_tuple(base, "identical", k=k)
            subsets = [c for r in range(1, k + 1)
                       for c in itertools.combinations(range(1, k + 1), r)]
            for m in (1, 2, 3):
                for groups in itertools.product(subsets, repeat=m):
                    if sum(len(g) for g in groups) > 6:
                        continue
                    assert diagonal_substitution_residual(spec, list(groups)) == {}, (
                        name, groups)


def test_substitution_oracle_on_free_families():
    fam = free_family([make_free_poisson(1), make_semicircular()])
    for groups in ([(1,), (2,)], [(1, 2)], [(1, 2), (1, 2)], [(2,), (1, 2), (1,)]):
        assert diagonal_substitution_residual(fam, groups) == {}


def test_derived_of_derived_matches_flat():
    # interval groups of the derived components flatten to one diagonal
    base = make_custom_process(CUSTOM_SEQ)
    spec = make_tuple(base, "identical", k=4)
    derived = derived_diagonal_tuple(spec, [(1, 2), (3,), (4,)])
    nested = derived_diagonal_tuple(derived, [(1, 2), (3,)])
    flat = derived_diagonal_tuple(spec, [(1, 2, 3), (4,)])
    from freestoch.cumulants import nonempty_subsets

    for b in nonempty_subsets(2):
        assert unit_cumulant(nested, b) == unit_cumulant(flat, b)


def test_subdivision_validation():
    sub = Subdivision.of(["1/2", "1/3", "1/6"])
    assert sub.t == 1 and sub.n == 3
    uni = Subdivision.uniform(4, t=2)
    assert uni.lengths == (Fraction(1, 2),) * 4
    assert "uniform" in uni.describe()
    with pytest.raises(ValueError):
        Subdivision((Fraction(3, 2), Fraction(-1, 2)))
    with pytest.raises(ValueError):
        Subdivision.uniform(0)


def test_restrict_and_reverse():
    fam = free_family([make_free_poisson(1), make_semicircular()])
    sub = restrict_spec(fam, [2, 1, 2])
    assert sub.k == 3
    assert unit_cumulant(sub, (1, 3)) == 1  # both are the semicircular copy
    rev = restrict_spec(fam, [2, 1])  # the components read backwards
    assert unit_cumulant(rev, (1,)) == unit_cumulant(fam, (2,))
    assert unit_cumulant(rev, (2,)) == unit_cumulant(fam, (1,)) == 1


def test_descriptor_roundtrip():
    # each descriptor, sent through JSON, gives the unit cumulants it declares
    # on the subsets of its first two components
    half, third = Fraction(1, 2), Fraction(1, 3)
    for desc, k, expected in (
        ({"type": "free_poisson", "rate": "3/2"}, 1, {(1,): Fraction(3, 2)}),
        ({"type": "semicircular"}, 1, {(1,): 0}),
        ({"type": "custom", "cumulants": {"1": "1/2", "2": "1/3"}}, 1, {(1,): half}),
        ({"type": "tuple", "mode": "identical", "k": 3, "base": {"type": "semicircular"}},
         3, {(1,): 0, (2,): 0, (1, 2): 1}),
        ({"type": "tuple", "mode": "identical", "k": 2,
          "base": {"type": "custom", "cumulants": {"1": "1/2", "2": "1/3"}}},
         2, {(1,): half, (2,): half, (1, 2): third}),
        ({"type": "tuple", "mode": "free_family",
          "components": [{"type": "free_poisson", "rate": "2/1"}, {"type": "semicircular"}]},
         2, {(1,): 2, (2,): 0, (1, 2): 0}),
    ):
        spec = spec_from_descriptor(json.loads(json.dumps(desc)))
        assert spec.k == k
        assert {b: unit_cumulant(spec, b) for b in expected} == expected, desc
    assert unit_cumulant(spec_from_descriptor("free_poisson"), (1,)) == 1
    assert unit_cumulant(spec_from_descriptor("semicircular"), (1, 1)) == 1
    with pytest.raises(ValueError):
        spec_from_descriptor({"type": "nope"})


def test_dimension_checks():
    spec = make_tuple(make_free_poisson(1), "identical", k=2)
    with pytest.raises(DimensionError):
        limit_expect_st(one_hat(3), spec)
    with pytest.raises(DimensionError):
        derived_diagonal_tuple(spec, [(1, 5)])
    with pytest.raises(DimensionError):
        make_tuple(spec, "identical", k=2)
