"""First-block plans against the callback recursion they replace.

The plans are built once per layout and kept in one cache bounded by the
first blocks it holds, so every case runs twice: on a cold cache, and again
on the plan that another process's weights (another functional, another
cumulant sequence) left warm.  Values must equal the recursion's with `==`.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from freestoch import measures, partitions
from freestoch.cumulants import (
    MAX_SCALED_BITS,
    CumulantFunctional,
    MomentFunctional,
    cumulant_functional,
    moment_functional,
    nonempty_subsets,
)
from freestoch.measures import exact_moment, limit_product_of_st
from freestoch.partitions import (
    Partition,
    enumerate_noncrossing,
    enumerate_set_partitions,
    first_block_plan,
)
from freestoch.processes import free_family, make_custom_process, make_semicircular, make_tuple

from helpers import (
    cumulant_functional_by_recursion,
    limit_product_by_recursion,
    moment_functional_by_recursion,
)

PROPERTY_SETTINGS = settings(deadline=None, derandomize=True)
PRIMES = [p for p in range(1009, 3000) if all(p % d for d in range(2, int(p**0.5) + 1))]


def _clear_plans():
    partitions._plans.clear()
    partitions._stored = 0


def _stored_terms():
    """The first blocks the kept plans hold, counted from the plans themselves."""
    return sum(sum(len(states) for _, states in sets) for _, _, sets in partitions._plans.values())


@st.composite
def functionals(draw, k_max: int):
    """Values on every subset of [k], zeros among them; or, wide, over
    distinct prime denominators past MAX_SCALED_BITS (the Fraction sums)."""
    k = draw(st.integers(1, k_max))
    subsets = nonempty_subsets(k)
    if draw(st.booleans()) and k == 7:
        values = [Fraction(draw(st.sampled_from((-3, -1, 1, 2))), p)
                  for p in PRIMES[:len(subsets)]]
        assert k * math.lcm(*(v.denominator for v in values)).bit_length() > MAX_SCALED_BITS
    else:
        values = draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=5),
                               min_size=len(subsets), max_size=len(subsets)))
    return k, dict(zip(subsets, values))


@given(functionals(7), functionals(7))
@settings(PROPERTY_SETTINGS, max_examples=60)
def test_transforms_match_the_recursion_cold_and_warm(first, second):
    _clear_plans()
    for k, values in (first, (first[0], second[1]) if first[0] == second[0] else second):
        r, m = CumulantFunctional(k, values), MomentFunctional(k, values)
        assert moment_functional(r).values == moment_functional_by_recursion(r).values
        assert cumulant_functional(m).values == cumulant_functional_by_recursion(m).values


def test_the_wide_functional_sums_in_fractions():
    k = 7
    values = {b: Fraction(1 + i % 3, p)
              for i, (b, p) in enumerate(zip(nonempty_subsets(k), PRIMES))}
    m = MomentFunctional(k, values)
    assert cumulant_functional(m).values == cumulant_functional_by_recursion(m).values
    assert moment_functional(cumulant_functional(m)).values == values


@st.composite
def factor_lists(draw, arity_max: int):
    """Consecutive St/Pr factors, crossing ones too, of total arity at most arity_max."""
    left, factors = draw(st.integers(1, arity_max)), []
    while left:
        k = draw(st.integers(1, left))
        left -= k
        factors.append((draw(st.sampled_from(enumerate_set_partitions(k))),
                        draw(st.sampled_from(("st", "pr")))))
    return factors


cumulant_sequences = st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=4)
                              | st.just(Fraction(0)), min_size=8, max_size=8)


@given(factor_lists(7), cumulant_sequences, cumulant_sequences, st.booleans(),
       st.sampled_from((Fraction(1), Fraction(3, 2))))
@settings(PROPERTY_SETTINGS, max_examples=80)
def test_limit_products_match_the_recursion_cold_and_warm(factors, seq_a, seq_b, mixed, t):
    arity = sum(p.k for p, _ in factors)
    _clear_plans()
    for seq in (seq_a, seq_b):
        base = make_custom_process(seq)
        if mixed:  # a free family: words over two atoms, crossing cumulants vanish
            half = (arity + 1) // 2
            spec = free_family([make_tuple(base, "identical", k=half),
                                make_tuple(make_custom_process(seq[::-1]), "identical",
                                           k=arity - half)] if arity > 1 else [base])
        else:
            spec = make_tuple(base, "identical", k=arity)
        assert limit_product_of_st(factors, spec, t) == \
            limit_product_by_recursion(factors, spec, t), (factors, seq, t)


def test_every_pair_of_small_factors_matches_the_recursion():
    """Each St/Pr pair of arity at most 3 each: groups that recur after a
    unit of another group, crossing factors and straddling blocks."""
    small = [p for k in (1, 2, 3) for p in enumerate_set_partitions(k)]
    for seq in ((Fraction(3, 2),) * 6, (Fraction(1, 2), 0, Fraction(-1, 3), 2, 0, Fraction(5, 7))):
        base = make_custom_process(seq)
        for p in small:
            for q in small:
                spec = make_tuple(base, "identical", k=p.k + q.k)
                for kinds in (("st", "st"), ("st", "pr"), ("pr", "st"), ("pr", "pr")):
                    factors = [(p, kinds[0]), (q, kinds[1])]
                    assert limit_product_of_st(factors, spec) == \
                        limit_product_by_recursion(factors, spec), factors


def test_exact_moment_of_sixteen_is_streamed_not_stored():
    _clear_plans()
    spec = make_tuple(make_semicircular(), "identical", k=16)
    assert exact_moment(spec) == 1430  # Catalan(8): the pairings of 16 points
    assert partitions._plans == {} and partitions._stored == 0
    small = make_tuple(make_semicircular(), "identical", k=8)
    assert exact_moment(small) == 14
    assert len(partitions._plans) == 1 and partitions._stored == _stored_terms()


def test_stored_terms_stay_within_the_bound_and_evicted_plans_rebuild(monkeypatch):
    monkeypatch.setattr(partitions, "CACHE_MAXSIZE", 120)
    _clear_plans()
    spec = make_tuple(make_custom_process((Fraction(1, 2), 0, Fraction(-1, 3), 2, 0, 1)),
                      "identical", k=6)
    layouts = [[(p, kind)] for p in enumerate_set_partitions(6)[::7] for kind in ("st", "pr")]
    first = [limit_product_of_st(f, spec) for f in layouts]
    for f, value in zip(layouts, first):
        assert partitions._stored == _stored_terms() <= 120
        assert limit_product_of_st(f, spec) == value == limit_product_by_recursion(f, spec)
    before = exact_moment(spec)  # the Pr plan of 0-hat_6: 120 first blocks
    zero6 = (tuple(2 << i for i in range(6)), tuple(range(6)), False)
    assert zero6 in partitions._plans
    for f in layouts:  # the others push it out
        limit_product_of_st(f, spec)
    assert zero6 not in partitions._plans
    assert exact_moment(spec) == before == \
        limit_product_by_recursion([(Partition.zero_hat(6), "pr")], spec)
    assert partitions._stored == _stored_terms() <= 120


def _structural_keys(cache: str):
    """More than CACHE_MAXSIZE distinct keys of one structural cache: pairs
    of one-factor tuples for the layouts, noncrossing partitions of 9 and 10
    points for the class splits and outer patterns."""
    if cache == "_layout":
        singles = [((p, kind),) for k in range(1, 6) for p in enumerate_set_partitions(k)
                   for kind in ("st", "pr")]
        return [(f, g) for f in singles for g in singles]
    return [(p,) for k in (9, 10) for p in enumerate_noncrossing(k)]


@pytest.mark.parametrize("module, cache", [(measures, "_layout"), (measures, "_outer_pattern"),
                                           (partitions, "classify_classes")])
def test_structural_caches_stay_within_the_bound(module, cache):
    cached, keys = getattr(module, cache), _structural_keys(cache)
    assert cached.cache_parameters()["maxsize"] == partitions.CACHE_MAXSIZE < len(keys)
    for key in keys:
        cached(*key)
    assert cached.cache_info().currsize <= partitions.CACHE_MAXSIZE
    misses = cached.cache_info().misses
    rebuilt, fresh = cached(*keys[0]), cached.__wrapped__(*keys[0])
    assert cached.cache_info().misses == misses + 1  # the first key was evicted
    assert rebuilt == fresh


@pytest.mark.parametrize("k", [1, 3, 6])
def test_a_transform_plan_covers_every_subset_once(k):
    blocks, sets = first_block_plan(tuple(1 << i for i in range(k)), tuple(range(k)), every=True)
    assert blocks is None  # a kept transform plan stores no blocks: the transforms read sets only
    assert sorted(s for s, _ in sets) == list(range(1, 1 << k))
    assert sum(len(states) for _, states in sets) == (3**k - 1) // 2  # S with V in S holding min S
