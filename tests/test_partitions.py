import math

import pytest

import freestoch.partitions as partitions_module
from freestoch.errors import CrossingPartitionError, DimensionError, SizeGuardError
from freestoch.partitions import (
    Partition,
    classify_classes,
    coarsenings,
    enumerate_noncrossing,
    enumerate_set_partitions,
    is_noncrossing,
    kreweras,
    mobius,
    opposite,
    refines,
    restrict,
)

from helpers import (
    all_rgs_strings,
    bell_numbers,
    catalan,
    compositions,
    from_rgs,
    has_crossing,
    interval_partition,
    iter_exact_index_tuples,
    iter_geq_index_tuples,
    join,
    joined_text,
    meet,
    mobius_zero_hat_full,
    one_hat,
    rotate,
    set_partitions_by_insertion,
)

PAPER_EXAMPLE = "((1,6,7)(2,5)(3)(4)(8)(9,10))"


def test_counts_match_bell_and_catalan():
    bell = bell_numbers(8)
    for k in range(1, 9):
        assert len(enumerate_set_partitions(k)) == bell[k]
    for k in range(1, 12):
        assert len(enumerate_noncrossing(k)) == catalan(k)


def test_enumeration_matches_independent_generator():
    for k in range(1, 7):
        mine = {p.blocks for p in enumerate_set_partitions(k)}
        other = {
            tuple(sorted((tuple(sorted(b)) for b in part), key=lambda b: b[0]))
            for part in set_partitions_by_insertion(range(1, k + 1))
        }
        assert mine == other


def test_enumeration_is_the_restricted_growth_order():
    for k in range(1, 10):
        assert enumerate_set_partitions(k) == [from_rgs(r) for r in all_rgs_strings(k)]


def test_text_matches_the_joined_blocks():
    for k in range(1, 9):
        assert all(str(p) == joined_text(p) for p in enumerate_set_partitions(k))


def test_noncrossing_is_the_filtered_full_lattice():
    for k in range(1, 10):
        filtered = [p for p in enumerate_set_partitions(k) if is_noncrossing(p)]
        assert enumerate_noncrossing(k) == filtered


@pytest.mark.parametrize("build", [
    lambda: from_rgs(()),
    lambda: Partition.zero_hat(0),
    lambda: one_hat(-1),
    lambda: Partition(()),
    lambda: Partition(((1,), ())),
    lambda: Partition(((1, 2), (2,))),
    lambda: Partition(((1, 3),)),
    lambda: Partition(((0, 1),)),
    lambda: Partition.parse("((1000000000000))"),
    lambda: interval_partition([]),
    lambda: interval_partition([2, 0]),
])
def test_constructors_reject_bad_blocks(build):
    with pytest.raises(ValueError):
        build()


def test_enumeration_guards():
    with pytest.raises(SizeGuardError):
        enumerate_set_partitions(11)
    with pytest.raises(SizeGuardError):
        enumerate_noncrossing(13)
    with pytest.raises(SizeGuardError):
        enumerate_set_partitions(0)


def test_is_noncrossing_examples():
    assert not is_noncrossing(Partition.parse("((1,3)(2,4))"))
    assert is_noncrossing(Partition.parse(PAPER_EXAMPLE))
    for k in range(1, 6):
        assert is_noncrossing(one_hat(k))


def test_is_noncrossing_is_the_four_point_definition_on_all_of_p10():
    # every partition of k <= 10 from an independent generator, past the cache
    count = 0
    for k in range(1, 11):
        for rgs in all_rgs_strings(k):
            p = from_rgs(rgs)
            assert is_noncrossing.__wrapped__(p) is not has_crossing(p), p
            count += 1
    assert count == 142_417


def test_refines_examples():
    for p in enumerate_set_partitions(4):
        assert refines(Partition.zero_hat(4), p)
        assert refines(p, one_hat(4))
    assert not refines(Partition.parse("((1,2)(3))"), Partition.parse("((1)(2,3))"))
    with pytest.raises(DimensionError):
        refines(Partition.zero_hat(2), Partition.zero_hat(3))


def test_refines_is_a_partial_order():
    for k in range(1, 7):
        parts = enumerate_set_partitions(k)
        for p in parts:
            assert refines(p, p)
        for a in parts:
            for b in parts:
                if refines(a, b) and refines(b, a):
                    assert a == b
        for b in parts:
            down = [a for a in parts if refines(a, b)]
            up = [c for c in parts if refines(b, c)]
            for a in down:
                for c in up:
                    assert refines(a, c)


def test_meet_join_examples():
    a = Partition.parse("((1,2)(3))")
    b = Partition.parse("((1)(2,3))")
    assert meet(a, b) == Partition.zero_hat(3)
    assert join(a, b) == one_hat(3)
    for p in enumerate_set_partitions(4):
        assert meet(p, p) == p
        assert join(p, p) == p


def test_meet_join_are_lattice_operations():
    parts = enumerate_set_partitions(4)
    for a in parts:
        for b in parts:
            m, j = meet(a, b), join(a, b)
            assert refines(m, a) and refines(m, b)
            assert refines(a, j) and refines(b, j)
            # m is the greatest lower bound, j the least upper bound
            for c in parts:
                if refines(c, a) and refines(c, b):
                    assert refines(c, m)
                if refines(a, c) and refines(b, c):
                    assert refines(j, c)


def test_meet_of_noncrossing_is_noncrossing():
    for k in range(1, 7):
        ncs = enumerate_noncrossing(k)
        for a in ncs:
            for b in ncs:
                assert is_noncrossing(meet(a, b))


def _interleave_noncrossing(p, sigma):
    blocks = [[2 * i - 1 for i in b] for b in p.blocks]
    blocks += [[2 * i for i in b] for b in sigma.blocks]
    return not has_crossing(Partition(blocks))


def test_kreweras_examples():
    for k in range(1, 6):
        assert kreweras(Partition.zero_hat(k)) == one_hat(k)
        assert kreweras(one_hat(k)) == Partition.zero_hat(k)
    assert kreweras(Partition.parse("((1,2)(3))")) == Partition.parse("((1)(2,3))")
    with pytest.raises(CrossingPartitionError):
        kreweras(Partition.parse("((1,3)(2,4))"))


def test_kreweras_is_the_largest_compatible_complement():
    for k in range(1, 7):
        for p in enumerate_noncrossing(k):
            kp = kreweras(p)
            candidates = [s for s in enumerate_noncrossing(k)
                          if _interleave_noncrossing(p, s)]
            assert kp in candidates
            assert all(refines(c, kp) for c in candidates)


def test_kreweras_block_count_and_double_complement():
    for k in range(1, 9):
        for p in enumerate_noncrossing(k):
            kp = kreweras(p)
            assert p.num_blocks + kp.num_blocks == k + 1
            kkp = kreweras(kp)
            assert kkp.num_blocks == p.num_blocks
            assert kkp == rotate(p, -1)


def test_opposite_concat_examples():
    assert opposite(Partition.parse("((1,2)(3))")) == Partition.parse("((1)(2,3))")
    for k in range(1, 7):
        for p in enumerate_set_partitions(k):
            assert opposite(opposite(p)) == p
    for k in range(1, 6):
        for p in enumerate_noncrossing(k):
            assert is_noncrossing(opposite(p))


def test_classify_paper_example():
    split = classify_classes(Partition.parse(PAPER_EXAMPLE))
    assert split.inner == ((2, 5), (3,), (4,))
    assert split.outer == ((1, 6, 7), (8,), (9, 10))
    assert len(split.outer) == 3 and len(split.inner) == 3


def test_classify_simple_cases():
    for k in range(1, 6):
        split = classify_classes(one_hat(k))
        assert len(split.outer) == 1 and len(split.inner) == 0
    split = classify_classes(Partition.parse("((1,3)(2))"))
    assert split.outer == ((1, 3),)
    assert split.inner == ((2,),)
    with pytest.raises(CrossingPartitionError):
        classify_classes(Partition.parse("((1,3)(2,4))"))


def test_classify_invariants():
    for k in range(1, 8):
        for p in enumerate_noncrossing(k):
            split = classify_classes(p)
            assert set(split.outer) | set(split.inner) == set(p.blocks)
            # the outer spans are disjoint intervals covering [k]
            spans = [set(range(b[0], b[-1] + 1)) for b in split.outer]
            union = set()
            for span in spans:
                assert not (union & span)
                union |= span
            assert union == set(range(1, k + 1))
            for b in split.inner:
                homes = [span for span in spans if set(b) <= span]
                assert len(homes) == 1


def test_restrict():
    p = Partition.parse(PAPER_EXAMPLE)
    assert restrict(p, [2, 3, 4, 5]) == Partition.parse("((1,4)(2)(3))")
    assert restrict(p, range(1, 11)) == p


@pytest.mark.parametrize("elements", [[1, 2, 99], [0, 1], [1, 1, 2], [11], []])
def test_restrict_refuses_elements_that_are_not_distinct_points_of_p(elements):
    with pytest.raises(ValueError):
        restrict(Partition.parse(PAPER_EXAMPLE), elements)


def test_mobius_examples():
    for p in enumerate_noncrossing(4):
        assert mobius(p, p, "noncrossing") == 1
        assert mobius(p, p, "full") == 1
    assert mobius(Partition.zero_hat(3), one_hat(3), "noncrossing") == 2
    assert mobius(Partition.zero_hat(4), one_hat(4), "full") == -6
    with pytest.raises(ValueError):
        mobius(Partition.parse("((1,2)(3))"), Partition.parse("((1)(2,3))"))
    with pytest.raises(CrossingPartitionError):
        mobius(Partition.parse("((1,3)(2,4))"), one_hat(4), "noncrossing")


def test_mobius_closed_forms():
    # full lattice: (-1)^(n-1) (n-1)!; noncrossing: (-1)^(n-1) Catalan(n-1)
    fact = 1
    for n in range(1, 7):
        if n > 1:
            fact *= n - 1
        sign = 1 if (n - 1) % 2 == 0 else -1
        zero, one = Partition.zero_hat(n), one_hat(n)
        assert mobius(zero, one, "full") == sign * fact
        assert mobius(zero, one, "noncrossing") == sign * catalan(n - 1)
    for k in range(1, 7):
        for p in enumerate_set_partitions(k):
            assert mobius(Partition.zero_hat(k), p, "full") == mobius_zero_hat_full(p)


def test_mobius_duality():
    # sum of mu(sigma, p) over sigma in [s, p] is 1 iff s == p, else 0
    for k in range(1, 7):
        ncs = enumerate_noncrossing(k)
        for s in ncs:
            for p in ncs:
                if not refines(s, p):
                    continue
                total = sum(
                    mobius(sigma, p, "noncrossing")
                    for sigma in ncs
                    if refines(s, sigma) and refines(sigma, p)
                )
                assert total == (1 if s == p else 0)


def test_kernel_index_counts():
    # N!/(N-|p|)! tuples have pattern exactly p, N^|p| are constant on its blocks
    assert len(list(iter_exact_index_tuples(Partition.zero_hat(2), 3))) == 6
    assert len(list(iter_exact_index_tuples(Partition.zero_hat(4), 3))) == 0  # pigeonhole
    for k in range(1, 5):
        for p in enumerate_set_partitions(k):
            m = p.num_blocks
            assert len(list(iter_exact_index_tuples(p, 4))) == math.perm(4, m)
            assert len(list(iter_geq_index_tuples(p, 4))) == 4**m


def test_index_tuples_have_the_right_pattern():
    p = Partition.parse("((1,3)(2))")
    for v in iter_exact_index_tuples(p, 4):
        assert v[0] == v[2] and v[0] != v[1]
    geq = list(iter_geq_index_tuples(p, 4))
    assert (1, 1, 1) in geq


def test_iteration_guard():
    with pytest.raises(SizeGuardError):
        list(iter_geq_index_tuples(Partition.zero_hat(8), 64, max_tuples=10**6))


def test_coarsenings():
    p = Partition.parse("((1,2)(3))")
    assert set(coarsenings(p)) == {p, one_hat(3)}
    for q in enumerate_set_partitions(4):
        cs = coarsenings(q)
        assert all(refines(q, c) for c in cs)
        assert len(cs) == len([c for c in enumerate_set_partitions(4) if refines(q, c)])
    # [p, 1-hat] is P(|p|), so the enumeration guard bounds the blocks of p
    assert len(coarsenings(one_hat(12))) == 1
    with pytest.raises(SizeGuardError):
        coarsenings(Partition.zero_hat(11))


def test_interval_partition():
    assert interval_partition([2, 1, 3]) == Partition.parse("((1,2)(3)(4,5,6))")
    assert interval_partition([4]) == one_hat(4)


def test_the_interval_members_of_p_k_reversed_are_the_compositions_in_order():
    for k in range(1, 11):
        members = [p for p in reversed(enumerate_set_partitions(k))
                   if all(b[-1] - b[0] < len(b) for b in p.blocks)]
        assert members == [interval_partition(c) for c in compositions(k)], k


def test_lattice_caches_are_bounded():
    unbounded, bounds = set(), set()
    for name, obj in vars(partitions_module).items():
        info = getattr(obj, "cache_parameters", None)
        if callable(info):
            if info()["maxsize"] is None:
                unbounded.add(name)
            else:
                bounds.add(info()["maxsize"])
    # keyed by k alone and bounded by the enumeration guards
    assert unbounded == {"_all_set_partitions", "_all_noncrossing"}
    assert bounds == {partitions_module.CACHE_MAXSIZE}
    # the first-block plans: one cache, bounded by the first blocks it holds
    # (tests/test_first_block_plans.py fills and evicts it)
    assert partitions_module._stored <= partitions_module.CACHE_MAXSIZE

def test_text_syntax():
    p = Partition.parse(" ( (1, 6,7) (2,5)(3)(4)(8)(9,10) ) ")
    assert str(p) == PAPER_EXAMPLE
    assert Partition.parse(str(p)) == p
    with pytest.raises(ValueError):
        Partition.parse("((1,2)")
    with pytest.raises(ValueError):
        Partition.parse("((1,2)(2,3))")


def test_canonical_form_is_enforced():
    # the checked constructor sorts each block and orders the blocks by their minima
    assert Partition(((2, 1), (3,))) == Partition.parse("((1,2)(3))")
    assert Partition(((2,), (1,))) == Partition.parse("((1)(2))")
    assert Partition([[3], [2, 1]]).blocks == ((1, 2), (3,))
