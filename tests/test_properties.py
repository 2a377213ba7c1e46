"""Property tests: closed forms, interval and refinement walks, the finite
trace tables and the first-block recursion against whole-lattice,
pattern-walk, per-subset, pairwise, per-subdivision and index-tuple
oracles; partitions built without the constructor's checks against the
checked constructor, which takes its blocks in any order.

Sizes are bounded so that the worst drawn case (the recursion over all of
NC(8), or the coarsenings of a 0-hat_8) stays near a second.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from freestoch.cumulants import (
    MAX_SCALED_BITS,
    CumulantFunctional,
    MomentFunctional,
    cumulant_functional,
    moment_functional,
    nonempty_subsets,
)
from freestoch.measures import (
    MeasureWord,
    TraceTable,
    exact_moment,
    identity_suite,
    l2_residual,
    limit_expect_st,
    limit_product_of_st,
    st_uniform_formula,
)
from freestoch.partitions import (
    Partition,
    coarsenings,
    enumerate_noncrossing,
    enumerate_set_partitions,
    is_noncrossing,
    kreweras,
    mobius,
    noncrossing_refinements,
    opposite,
    refines,
)
from freestoch.processes import (
    ProcessSpec,
    Subdivision,
    free_family,
    make_custom_process,
    make_free_poisson,
    make_semicircular,
    make_tuple,
)

from helpers import (
    CUSTOM_SEQ,
    FiniteTraces,
    adjoint,
    all_rgs_strings,
    brute_expect_pr,
    brute_expect_st,
    cumulant_functional_by_subsets,
    formula_at,
    from_rgs,
    has_crossing,
    identity_suite_by_pairs,
    join,
    l2_residual_by_four_traces,
    limit_product_by_patterns,
    meet,
    moment_functional_by_subsets,
    noncrossing_coarsenings,
    noncrossing_refinements_by_filter,
    one_hat,
    pair_trace,
    partition_cumulant,
    process_fixtures,
    product_patterns_by_filter,
    recursive_mobius,
    rotate,
)

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
        p = one_hat(k)
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


@st.composite
def subdivisions(draw, n_max: int):
    """Subdivisions into 1..n_max intervals of small positive rational lengths."""
    n = draw(st.integers(1, n_max))
    return Subdivision.of(draw(st.lists(st.fractions(min_value=Fraction(1, 9), max_value=3,
                                                     max_denominator=9),
                                        min_size=n, max_size=n)))


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
    oracle = sum((t**sigma.num_blocks * partition_cumulant(spec, sigma)
                  for sigma in product_patterns_by_filter(factors, noncrossing=True)),
                 Fraction(0))
    assert limit_product_of_st(factors, spec, t) == oracle


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(st.integers(1, 8).flatmap(lambda k: st.tuples(
    st.sampled_from(enumerate_set_partitions(k)),
    st.one_of(st.none(), st.sampled_from(enumerate_set_partitions(k))))))
def test_noncrossing_walk_is_the_filtered_walk(drawn):
    # a coarsening keeps apart the blocks of p in one block of `apart` iff
    # its meet with `apart` is p
    p, other = drawn
    apart = None if other is None else join(p, other)
    walked = noncrossing_coarsenings(p, apart)
    assert walked == [s for s in coarsenings(p) if is_noncrossing(s)
                      and (apart is None or meet(s, apart) == p)]


@settings(PROPERTY_SETTINGS, max_examples=12)
@given(subdivisions(4), st.sampled_from(sorted(process_fixtures())))
def test_finite_traces_match_index_tuple_sums(sub, name):
    # one table per k serves every p, as in the identity suite
    for k in range(1, 5):
        spec = make_tuple(process_fixtures()[name], "identical", k=k)
        table, oracle = TraceTable(spec), FiniteTraces(spec, sub)
        value, scale = table.at(sub)
        for p in enumerate_set_partitions(k):
            st_p, pr_p = Fraction(value(table.st(p)), scale), Fraction(value(table.pr(p)), scale)
            assert st_p == oracle.st(p) == brute_expect_st(p, sub, spec), p
            assert pr_p == oracle.pr(p) == brute_expect_pr(p, sub, spec), p


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(st.integers(1, 5).flatmap(lambda k: st.sampled_from(enumerate_set_partitions(k))),
       st.integers(1, 64), st.sampled_from(sorted(process_fixtures())),
       st.sampled_from((Fraction(1), Fraction(3, 2))))
def test_uniform_formula_matches_the_oracle_at_uniform_subdivisions(p, n, name, t):
    spec = make_tuple(process_fixtures()[name], "identical", k=p.k)
    oracle = FiniteTraces(spec, Subdivision.uniform(n, t)).st(p)
    assert formula_at(st_uniform_formula(p, spec, t), n) == oracle


def test_uniform_formula_constant_term_is_the_mesh_limit():
    for name, base in process_fixtures().items():
        for k in range(1, 6):
            spec = make_tuple(base, "identical", k=k)
            for p in enumerate_set_partitions(k):
                for t in (Fraction(1), Fraction(2, 3)):
                    assert (dict(st_uniform_formula(p, spec, t)).get(0, 0)
                            == limit_expect_st(p, spec, t)), (name, p, t)


@settings(PROPERTY_SETTINGS, max_examples=6)
@given(st.lists(subdivisions(4), min_size=1, max_size=3))
def test_identity_suite_matches_pairwise_oracle(battery):
    for name, base in process_fixtures().items():
        assert (identity_suite(base, 3, battery=battery, process_name=name)
                == identity_suite_by_pairs(base, 3, battery=battery, process_name=name))


# ---------------------------------------------------------------------------
# partitions built without checks (from_rgs, the enumerations, the walk)


@st.composite
def rgs_strings(draw, k_max: int, k_min: int = 1, blocks_max: int | None = None):
    """A restricted-growth string: each label at most one above the largest
    before it, and below blocks_max if given."""
    top = (blocks_max or k_max) - 1
    labels = [0]
    for _ in range(draw(st.integers(k_min, k_max)) - 1):
        labels.append(draw(st.integers(0, min(max(labels) + 1, top))))
    return tuple(labels)


def partitions(k_max: int, k_min: int = 1):
    return rgs_strings(k_max, k_min).map(from_rgs)


def _validated(p: Partition) -> Partition:
    """p rebuilt by the checked constructor, which raises on a bad block list
    and canonicalizes any other, so it equals p only if p was canonical."""
    return Partition(p.blocks)


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(rgs_strings(12))
def test_from_rgs_builds_valid_partitions(rgs):
    p = from_rgs(rgs)
    assert p == _validated(p) and hash(p) == hash(_validated(p))
    assert p.rgs() == rgs and all(type(b) is tuple for b in p.blocks)


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(partitions(7), st.randoms(use_true_random=False))
def test_the_checked_constructor_takes_the_blocks_in_any_order(p, rnd):
    shuffled = [rnd.sample(b, len(b)) for b in rnd.sample(p.blocks, p.num_blocks)]
    q = Partition(shuffled)
    assert q == p and hash(q) == hash(p) and q.k == sum(map(len, shuffled))
    assert eval(repr(p)) == p and Partition.parse(str(p)) == p
    bad = [shuffled + [[rnd.randint(1, p.k)]],  # a point twice
           [[x + (x == p.k) for x in b] for b in shuffled],  # a gap at k
           [[x - (x == 1) for x in b] for b in shuffled],  # a point 0
           shuffled + [[]]]
    for blocks in bad:
        with pytest.raises(ValueError):
            Partition(blocks)


@settings(PROPERTY_SETTINGS, max_examples=8)
@given(st.integers(1, 8))
def test_enumerations_build_valid_partitions(k):
    for p in enumerate_set_partitions(k) + enumerate_noncrossing(k):
        assert p == _validated(p)
    assert Partition.zero_hat(k) == _validated(Partition.zero_hat(k))
    assert one_hat(k) == _validated(one_hat(k))


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(partitions(7))
def test_coarsenings_build_valid_partitions(p):
    for sigma in coarsenings(p):
        assert sigma == _validated(sigma) and refines(p, sigma)


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(partitions(8))
def test_coarsenings_are_the_merges_in_restricted_growth_order(p):
    # the order is part of the contract: the matrix St sums add floats in it
    merges = []
    for rgs in all_rgs_strings(p.num_blocks):
        groups = [[] for _ in range(max(rgs) + 1)]
        for block, label in zip(p.blocks, rgs):
            groups[label].extend(block)
        merges.append(Partition(groups))
    assert coarsenings(p) == tuple(merges)


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(partitions(9))
def test_refinement_walk_is_the_filtered_lattice(p):
    # crossing p included; the walk must keep the restricted-growth order
    walked = noncrossing_refinements(p)
    assert list(walked) == noncrossing_refinements_by_filter(p)
    assert all(r == _validated(r) for r in walked)


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(partitions(9))
def test_opposite_is_the_validated_reversal(p):
    reversed_p = opposite(p)
    assert _validated(reversed_p) == reversed_p
    assert reversed_p == Partition([[p.k + 1 - i for i in b] for b in p.blocks])
    assert opposite(reversed_p) == p


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(st.integers(1, 8).flatmap(lambda k: st.tuples(*[partitions(k, k)] * 3)))
def test_meet_and_join_obey_the_lattice_laws(abc):
    a, b, c = abc
    assert meet(a, b) == meet(b, a) and join(a, b) == join(b, a)
    assert meet(meet(a, b), c) == meet(a, meet(b, c))
    assert join(join(a, b), c) == join(a, join(b, c))
    assert meet(a, join(a, b)) == a == join(a, meet(a, b))
    assert refines(meet(a, b), a) and refines(a, join(a, b))
    assert refines(a, b) == (meet(a, b) == a) == (join(a, b) == b)
    for q in (meet(a, b), join(a, b)):
        assert q == _validated(q)


@st.composite
def noncrossing_partitions(draw, k_min: int, k_max: int):
    """A noncrossing partition of [k], built by the first-block split: the
    block of a segment's first point leaves gaps that are filled apart."""
    k = draw(st.integers(k_min, k_max))
    blocks = []

    def fill(segment):
        if not segment:
            return
        first, rest = segment[0], segment[1:]
        block = [first] + [x for x in rest if draw(st.booleans())]
        blocks.append(block)
        bounds = block + [segment[-1] + 1]
        for lo, hi in zip(bounds, bounds[1:]):
            fill([x for x in rest if lo < x < hi])

    fill(list(range(1, k + 1)))
    return Partition(blocks)


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(noncrossing_partitions(9, 12))
def test_kreweras_double_complement_is_a_rotation(p):
    # the exhaustive test in test_partitions stops at k = 8
    assert is_noncrossing(p)
    kkp = kreweras(kreweras(p))
    assert kkp == rotate(p, -1)
    assert p.num_blocks + kreweras(p).num_blocks == p.k + 1


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(st.one_of(partitions(20), noncrossing_partitions(1, 20)))
def test_is_noncrossing_is_the_four_point_definition(p):
    # the exhaustive test in test_partitions stops at k = 10
    assert is_noncrossing.__wrapped__(p) is not has_crossing(p)


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(partitions(12))
def test_parse_inverts_str(p):
    assert Partition.parse(str(p)) == p
    assert Partition.parse(" ".join(str(p))) == p


# ---------------------------------------------------------------------------
# the first-block recursion: limit products, exact moments, the transforms

# Three free atoms: a custom one whose cumulants of order 3, 6, ... vanish,
# a free Poisson and a semicircular.  A word (a, a) stands for a diagonal
# component, and a word (a, c) zeroes every cumulant it enters.
FAMILY = free_family([make_custom_process([Fraction(n % 3, n) for n in range(1, 25)]),
                      make_free_poisson(Fraction(2, 3)), make_semicircular()])
(ATOM_A,), (ATOM_B,), (ATOM_C,) = FAMILY.words
WORD_POOLS = (((ATOM_A,),), ((ATOM_B,),), ((ATOM_C,),), ((ATOM_A,), (ATOM_A, ATOM_A)),
              ((ATOM_A,), (ATOM_B,), (ATOM_C,), (ATOM_A, ATOM_A), (ATOM_A, ATOM_C)))


@st.composite
def specs(draw, k: int):
    """k components, each a word from one drawn pool."""
    pool = draw(st.sampled_from(WORD_POOLS))
    return ProcessSpec(tuple(draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))))


@st.composite
def limit_products(draw, arity_max: int):
    """St/Pr factors of total arity at most arity_max, and a tuple for them.

    Pr factors have at most 3 blocks, so many of them cross; an St factor
    may be 0-hat, as in the L2 expansions.  At most 8 groups are kept apart
    (each St factor, each Pr block), which bounds the pattern oracle's work.
    """
    left = draw(st.integers(1, arity_max))
    factors = []
    while left:
        k = draw(st.integers(1, left))
        left -= k
        kind = draw(st.sampled_from(("st", "pr")))
        if kind == "st" and draw(st.booleans()):
            p = Partition.zero_hat(k)
        else:
            p = from_rgs(draw(rgs_strings(k, k, 3 if kind == "pr" else k)))
        factors.append((p, kind))
    assume(sum(1 if kind == "st" else p.num_blocks for p, kind in factors) <= 8)
    return factors, draw(specs(sum(p.k for p, _ in factors)))


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(limit_products(12), st.sampled_from((Fraction(1), Fraction(3, 2))))
def test_limit_product_recursion_matches_pattern_walk(case, t):
    factors, spec = case
    assert limit_product_of_st(factors, spec, t) == limit_product_by_patterns(factors, spec, t)


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(limit_products(6), limit_products(6), st.sampled_from((Fraction(1), Fraction(3, 2))))
def test_limit_products_of_a_word_and_an_adjoint_are_symmetric(a_case, b_case, t):
    """tau(A B*) = tau(B A*), the identity that lets an L2 residual skip a
    pair trace: every limit trace is a real rational."""
    a, b = (MeasureWord(Fraction(1), tuple(factors), spec.words)
            for factors, spec in (a_case, b_case))
    assert pair_trace(a, adjoint(b), t) == pair_trace(b, adjoint(a), t)


@st.composite
def l2_pairs(draw):
    """Two measure words of arity at most 6, each scalar possibly 0: b shares
    a's factors and words, only its factors (on freshly drawn words), or
    neither; b may be a scalar with no factors."""
    scalars = st.sampled_from((Fraction(0), Fraction(1), Fraction(5, 3), Fraction(-1, 2)))
    factors, spec = draw(limit_products(6))
    a = MeasureWord(draw(scalars), tuple(factors), spec.words)
    shared = draw(st.sampled_from(("factors and words", "factors", "neither", "scalar")))
    if shared == "factors and words":
        b_factors, b_words = a.factors, a.words
    elif shared == "factors":
        b_factors, b_words = a.factors, draw(specs(len(a.words))).words
    elif shared == "scalar":
        b_factors, b_words = (), ()
    else:
        b_factors, b_spec = draw(limit_products(6))
        b_factors, b_words = tuple(b_factors), b_spec.words
    return a, MeasureWord(draw(scalars), b_factors, b_words)


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(l2_pairs(), st.sampled_from((Fraction(1), Fraction(3, 2), Fraction(2, 7))))
def test_integer_l2_matches_the_four_trace_expansion(pair, t):
    """The L2 residual summed in integers over one denominator, with two
    traces merged by symmetry, equals all four pair traces in Fractions."""
    a, b = pair
    assert l2_residual(a, b, t) == l2_residual_by_four_traces(a, b, t)


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(st.integers(1, 9).flatmap(specs), st.sampled_from((Fraction(1), Fraction(2, 5))))
def test_exact_moment_is_the_noncrossing_sum(spec, t):
    oracle = sum((t**sigma.num_blocks * partition_cumulant(spec, sigma)
                  for sigma in enumerate_noncrossing(spec.k)), Fraction(0))
    assert exact_moment(spec, t) == oracle


@st.composite
def functionals(draw, k_max: int):
    """k and one small rational, a third of them 0, per nonempty subset of
    [k]; the values come from a drawn generator, which is much faster to
    draw than 2^k - 1 separate values."""
    k = draw(st.integers(1, k_max))
    rng = draw(st.randoms(use_true_random=False))
    return k, {b: Fraction(rng.randint(-3, 3), rng.randint(1, 5)) if rng.randrange(3) else
               Fraction(0) for b in nonempty_subsets(k)}


@settings(PROPERTY_SETTINGS, max_examples=30)
@given(functionals(8))
def test_transforms_match_the_per_subset_sums(drawn):
    k, values = drawn
    r, m = CumulantFunctional(k, values), MomentFunctional(k, values)
    assert moment_functional(r).values == moment_functional_by_subsets(r).values
    assert cumulant_functional(m).values == cumulant_functional_by_subsets(m).values


PRIMES = [n for n in range(2, 320) if all(n % d for d in range(2, int(n**0.5) + 1))]


@st.composite
def functionals_by_width(draw, k_max: int):
    """(kind, k, values): integer values (D = 1), denominators in 1..5, or a
    distinct prime power per subset, raised until k * bit_length(D) passes
    MAX_SCALED_BITS, so that the transforms sum the Fractions themselves.
    No value is 0, which would drop its prime from D (`functionals` draws 0s)."""
    kind = draw(st.sampled_from(("integer", "small", "primes")))
    k = draw(st.integers(1, k_max))
    rng = draw(st.randoms(use_true_random=False))
    subsets = nonempty_subsets(k)
    power = MAX_SCALED_BITS // (k * len(subsets)) + 1
    denominators = {"integer": [1] * len(subsets),
                    "small": [rng.randint(1, 5) for _ in subsets],
                    "primes": [q**power for q in PRIMES[:len(subsets)]]}[kind]
    return kind, k, {b: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), d)
                     for b, d in zip(subsets, denominators)}


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(functionals_by_width(6))
def test_transforms_on_each_side_of_the_width_bound(drawn):
    kind, k, values = drawn
    width = k * math.lcm(*(v.denominator for v in values.values())).bit_length()
    assert (width > MAX_SCALED_BITS) == (kind == "primes")
    r, m = CumulantFunctional(k, values), MomentFunctional(k, values)
    moments, cumulants = moment_functional(r), cumulant_functional(m)
    assert moments.values == moment_functional_by_subsets(r).values
    assert cumulants.values == cumulant_functional_by_subsets(m).values
    assert all(type(v) is Fraction for f in (moments, cumulants) for v in f.values.values())
    assert cumulant_functional(moments).values == values
    assert moment_functional(cumulants).values == values
