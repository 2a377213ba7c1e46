"""Property tests: closed forms and interval walks against whole-lattice oracles.

Sizes are bounded so that the worst drawn case (the recursion over all of
NC(8), or a product expansion over all of P(8)) stays near a second.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from freestoch.measures import (
    _product_patterns,
    expect_product_of_st,
    expect_st,
    limit_product_of_st,
)
from freestoch.partitions import (
    Partition,
    enumerate_noncrossing,
    enumerate_set_partitions,
    is_noncrossing,
    join,
    mobius,
)
from freestoch.processes import Subdivision, make_custom_process, make_tuple

from helpers import CUSTOM_SEQ, product_patterns_by_filter, recursive_mobius

PROPERTY_SETTINGS = settings(deadline=None, derandomize=True)
CUSTOM = make_custom_process(CUSTOM_SEQ)


@st.composite
def intervals(draw, lattice: str, k_max: int):
    """[s, join(s, r)] for random s in the lattice and r in P(k); in NC(k) a
    crossing join is replaced by 1-hat."""
    k = draw(st.integers(1, k_max))
    nc = lattice == "noncrossing"
    s = draw(st.sampled_from(enumerate_noncrossing(k) if nc else enumerate_set_partitions(k)))
    p = join(s, draw(st.sampled_from(enumerate_set_partitions(k))))
    if nc and not is_noncrossing(p):
        p = Partition.one_hat(k)
    return s, p


@st.composite
def factor_lists(draw, arity_max: int):
    """Consecutive St/Pr factors of total arity at most arity_max."""
    left = draw(st.integers(1, arity_max))
    factors = []
    while left:
        k = draw(st.integers(1, left))
        left -= k
        factors.append((draw(st.sampled_from(enumerate_set_partitions(k))),
                        draw(st.sampled_from(("st", "pr")))))
    return factors


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(intervals("full", 6))
def test_closed_form_mobius_matches_recursion_full(interval):
    s, p = interval
    assert mobius(s, p, "full") == recursive_mobius(s, p, "full")


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(intervals("noncrossing", 8))
def test_closed_form_mobius_matches_recursion_noncrossing(interval):
    s, p = interval
    assert mobius(s, p, "noncrossing") == recursive_mobius(s, p, "noncrossing")


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(factor_lists(8))
def test_limit_product_walk_matches_lattice_filter(factors):
    k = sum(p.k for p, _ in factors)
    spec = make_tuple(CUSTOM, "identical", k=k)
    t = Fraction(3, 2)
    oracle = sum((t**sigma.num_blocks * spec.partition_cumulant(sigma)
                  for sigma in product_patterns_by_filter(factors, noncrossing=True)),
                 Fraction(0))
    assert limit_product_of_st(factors, spec, t) == oracle


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(factor_lists(8))
def test_product_pattern_walk_matches_lattice_filter(factors):
    spec = make_tuple(CUSTOM, "identical", k=sum(p.k for p, _ in factors))
    walked = _product_patterns(factors, spec)
    assert len(set(walked)) == len(walked)
    assert set(walked) == set(product_patterns_by_filter(factors))


@settings(PROPERTY_SETTINGS, max_examples=30)
@given(factor_lists(5))
def test_finite_product_walk_matches_lattice_filter(factors):
    k = sum(p.k for p, _ in factors)
    spec = make_tuple(CUSTOM, "identical", k=k)
    sub = Subdivision.of((Fraction(1, 3), Fraction(2, 3)))
    oracle = sum((expect_st(sigma, sub, spec, max_blocks=k)
                  for sigma in product_patterns_by_filter(factors)), Fraction(0))
    assert expect_product_of_st(factors, spec, sub) == oracle
