"""The integer paths of the exact engine against their Fraction oracles.

Limit products and trace tables sum in integers over a common denominator
and form one Fraction at the end.  These cases are the ones where that
scaling could slip: interval lengths with pairwise coprime denominators, a
rate that is not an integer, cumulants over several denominators, and free
families whose words mix atoms.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from freestoch.cumulants import (
    CumulantFunctional,
    MomentFunctional,
    cumulant_functional,
    moment_functional,
)
from freestoch.measures import (
    MeasureWord,
    TraceTable,
    _inner_peeling_sides,
    _main_theorem_sides,
    example_formulas_check,
    exact_moment,
    expect_pr,
    expect_st,
    free_sandwich_residual,
    identity_suite,
    inner_peeling_residual,
    l2_residual,
    limit_expect_st,
    limit_product_of_st,
    main_theorem_residual,
    st_uniform_formula,
)
from freestoch.partitions import (
    Partition,
    classify_classes,
    enumerate_noncrossing,
    enumerate_set_partitions,
    is_noncrossing,
    mobius,
    restrict,
)
from freestoch.processes import (
    ProcessSpec,
    ScaledCumulants,
    Subdivision,
    free_family,
    make_custom_process,
    make_free_poisson,
    make_semicircular,
    make_tuple,
)
from freestoch.rational import format_rational

from helpers import (
    FiniteTraces,
    adjoint,
    derived_diagonal_tuple,
    formula_at,
    identity_suite_by_pairs,
    limit_product_by_patterns,
    one_hat,
    pair_trace,
    pair_trace_on_table,
    partition_cumulant,
    restrict_spec,
    unit_cumulant,
    word_cumulant,
)

PROPERTY_SETTINGS = settings(deadline=None, derandomize=True)

POISSON = make_free_poisson(Fraction(3, 2))
CUSTOM = make_custom_process([Fraction(1, 3), Fraction(-2, 5), Fraction(3, 7), Fraction(4, 15),
                              Fraction(-1, 21), Fraction(5, 7), Fraction(2, 35), Fraction(1, 105),
                              Fraction(-3, 5), Fraction(2, 3), Fraction(1, 7), Fraction(6, 5)])
BASES = {"poisson_3/2": POISSON, "custom_3_5_7": CUSTOM, "semicircular": make_semicircular()}
FAMILY = free_family(list(BASES.values()))
(ATOM_A,), (ATOM_B,), (ATOM_C,) = FAMILY.words
# single-atom words, repeated atoms, and words that mix atoms
WORDS = ((ATOM_A,), (ATOM_B,), (ATOM_C,), (ATOM_B, ATOM_B), (ATOM_A, ATOM_B), (ATOM_C, ATOM_A))
# lengths over 2, 3, 7 and 11: t = 1/2 + 1/3 + 2/7 + 5/11 = 725/462
COPRIME = Subdivision.of((Fraction(1, 2), Fraction(1, 3), Fraction(2, 7), Fraction(5, 11)))
BATTERY = (COPRIME, Subdivision.of((Fraction(2, 3), Fraction(1, 5), Fraction(3, 7))))
T = Fraction(2, 7)


def _mixed_specs(k):
    """A few k-tuples over the family's words, mixed words included."""
    return [ProcessSpec(tuple(WORDS[(i * step + shift) % len(WORDS)] for i in range(k)))
            for step, shift in ((1, 0), (2, 1), (5, 3))]


def _specs(k):
    return [make_tuple(base, "identical", k=k) for base in BASES.values()] + _mixed_specs(k)


def test_scaled_cumulants_are_b_times_the_unit_cumulants():
    spec = ProcessSpec(WORDS)
    lcm = 2 * 105  # lcm of 3/2 and the custom denominators
    for t in (Fraction(1), Fraction(2, 7), Fraction(9, 4)):
        scaled = ScaledCumulants(spec, t)
        assert scaled.scale == t.denominator * lcm
        for r in range(1, 4):
            for subset in itertools.combinations(range(1, spec.k + 1), r):
                part = scaled.merge(scaled.parts[i - 1] for i in subset)
                assert type(scaled.value(part)) is int
                assert Fraction(scaled.value(part), scaled.scale) == t * unit_cumulant(spec, subset)


def test_trace_tables_match_finite_traces_at_coprime_lengths():
    for k in range(1, 5):
        for spec in _specs(k):
            oracle = FiniteTraces(spec, COPRIME)
            table = TraceTable(spec)
            value, scale = table.at(COPRIME)
            for p in enumerate_set_partitions(k):
                assert Fraction(value(table.st(p)), scale) == oracle.st(p), (spec, p)
                assert Fraction(value(table.pr(p)), scale) == oracle.pr(p), (spec, p)
                assert expect_st(p, COPRIME, spec) == oracle.st(p)
                assert expect_pr(p, COPRIME, spec) == oracle.pr(p)


def test_uniform_formula_matches_finite_traces_at_fractional_t():
    for k in range(1, 5):
        for spec in _specs(k):
            for p in enumerate_set_partitions(k):
                formula = st_uniform_formula(p, spec, T)
                for n in (1, 3, 7):
                    assert formula_at(formula, n) == FiniteTraces(
                        spec, Subdivision.uniform(n, T)).st(p), (spec, p, n)


@st.composite
def limit_cases(draw, arity_max: int):
    """St/Pr factors of total arity at most arity_max on a tuple of WORDS
    (at arity 6 a word has length at most 12, as many cumulants as CUSTOM
    declares)."""
    left = draw(st.integers(1, arity_max))
    factors = []
    while left:
        k = draw(st.integers(1, left))
        left -= k
        kind = draw(st.sampled_from(("st", "pr")))
        pool = enumerate_set_partitions(k) if kind == "pr" else [Partition.zero_hat(k),
                                                                  one_hat(k)]
        factors.append((draw(st.sampled_from(pool)), kind))
    k = sum(p.k for p, _ in factors)
    return factors, ProcessSpec(tuple(draw(st.lists(st.sampled_from(WORDS),
                                                    min_size=k, max_size=k))))


@settings(PROPERTY_SETTINGS, max_examples=120)
@given(limit_cases(6), st.sampled_from((T, Fraction(1), Fraction(9, 4))))
def test_limit_products_match_the_pattern_sums(case, t):
    factors, spec = case
    value = limit_product_of_st(factors, spec, t)
    assert type(value) is Fraction
    assert value == limit_product_by_patterns(factors, spec, t)


def test_exact_moments_match_the_pattern_sums_at_t_2_7():
    for k in range(1, 7):
        for spec in _specs(k):
            oracle = limit_product_by_patterns([(Partition.zero_hat(k), "pr")], spec, T)
            assert exact_moment(spec, T) == oracle


def _limit_by_fractions(p, spec, t):
    return t**p.num_blocks * partition_cumulant(spec, p) if is_noncrossing(p) else Fraction(0)


def test_limit_scalars_match_the_fraction_oracle_at_t_2_7():
    for k in range(1, 6):
        for spec in _mixed_specs(k):
            for p in enumerate_set_partitions(k):
                assert limit_expect_st(p, spec, T) == _limit_by_fractions(p, spec, T), (spec, p)
            for p in enumerate_noncrossing(k):
                split = classify_classes(p)
                scalar = math.prod((T * unit_cumulant(spec, b) for b in split.inner),
                                   start=Fraction(1))
                left = _limit_by_fractions(p, spec, T)
                derived = derived_diagonal_tuple(spec, split.outer)
                assert main_theorem_residual(p, spec, "L1", T) == left - scalar * (
                    _limit_by_fractions(Partition.zero_hat(derived.k), derived, T)), (spec, p)
                support = sorted(el for b in split.outer for el in b)
                assert inner_peeling_residual(p, spec, "L1", T) == left - scalar * (
                    _limit_by_fractions(restrict(p, support), restrict_spec(spec, support), T))
    z = (Fraction(2, 3), Fraction(-1, 5), Fraction(3, 7))
    for word in WORDS:
        base = ProcessSpec((word,))
        sandwich = ProcessSpec((word, make_custom_process(z).words[0], word))
        single_x_block = sum(partition_cumulant(sandwich, rho) for rho in enumerate_noncrossing(3)
                             if sum(1 for b in rho.blocks if 1 in b or 3 in b) == 1)
        expected = T * single_x_block - z[0] * T * word_cumulant(word * 2)
        assert free_sandwich_residual(base, z, T) == expected, word


def _shared_table_families():
    """Tuples whose atoms a shared table must keep apart: two free Poissons
    of equal rate, and a custom process beside a semicircular one, each with
    its atoms interleaved as A, B, A, B."""
    poissons = free_family([make_tuple(make_free_poisson(1), "identical", k=2)] * 2)
    mixed = free_family([make_tuple(CUSTOM, "identical", k=2),
                         make_tuple(make_semicircular(), "identical", k=2)])
    return {"poissons": restrict_spec(poissons, (1, 3, 2, 4)),
            "custom+semi": restrict_spec(mixed, (1, 3, 2, 4))}


def test_one_table_per_residual_keeps_the_atoms_apart():
    nonzero = {name: 0 for name in _shared_table_families()}
    for name, family in _shared_table_families().items():
        for k in (2, 3, 4):
            spec = restrict_spec(family, range(1, k + 1))
            for p in enumerate_noncrossing(k):
                lhs = MeasureWord(Fraction(1), ((p, "st"),), spec.words)
                for sides, residual in ((_main_theorem_sides, main_theorem_residual),
                                        (_inner_peeling_sides, inner_peeling_residual)):
                    table = ScaledCumulants(spec, T)
                    rhs = sides(p, spec, table)
                    scalar = math.prod((T * unit_cumulant(spec, b)
                                        for b in classify_classes(p).inner), start=Fraction(1))
                    assert rhs.scalar == scalar, (name, p)
                    traces = []
                    for a, b in ((lhs, adjoint(lhs)), (lhs, adjoint(rhs)), (rhs, adjoint(rhs))):
                        parts = [table.part(w) for w in a.words + b.words]
                        shared = pair_trace_on_table(a, b, table, parts)
                        oracle = a.scalar * b.scalar * limit_product_by_patterns(
                            a.factors + b.factors, ProcessSpec(a.words + b.words), T)
                        assert shared == pair_trace(a, b, T) == oracle, (name, p, a, b)
                        traces.append(oracle)
                        nonzero[name] += oracle != 0
                    l1 = (limit_product_by_patterns(lhs.factors, ProcessSpec(lhs.words), T)
                          - rhs.scalar * limit_product_by_patterns(rhs.factors,
                                                                   ProcessSpec(rhs.words), T))
                    l2 = traces[0] - 2 * traces[1] + traces[2]
                    assert residual(p, spec, "L1", T) == l1, (name, p)
                    assert residual(p, spec, "L2", T) == l2_residual(lhs, rhs, T) == l2, (name, p)
    assert all(nonzero.values()), nonzero


def test_a_cumulant_table_refuses_atoms_it_was_not_built_over():
    # The scale covers only the table's own atoms: over a semicircular table
    # (scale 1) a word of CUSTOM (r_1 = 1/3) would floor every cumulant to 0.
    semi = make_tuple(make_semicircular(), "identical", k=2)
    table = ScaledCumulants(semi)
    own = semi.words[0]
    assert table.part(own * 3) == (0, 3)
    for word in (CUSTOM.words[0], own + CUSTOM.words[0], make_semicircular().words[0]):
        with pytest.raises(ValueError, match="not in this cumulant table"):
            table.part(word)


def test_identity_suite_matches_the_pair_oracle_at_coprime_lengths():
    for name in ("poisson_3/2", "custom_3_5_7"):
        base = BASES[name]
        assert (identity_suite(base, 3, battery=BATTERY, process_name=name)
                == identity_suite_by_pairs(base, 3, battery=BATTERY, process_name=name))


def test_public_exact_functions_return_fractions():
    semi = make_tuple(BASES["semicircular"], "identical", k=1)  # every value below is 0
    zero = Partition.zero_hat(1)
    values = [
        expect_st(zero, COPRIME, semi), expect_pr(zero, COPRIME, semi),
        limit_product_of_st([(zero, "st")], semi, T), exact_moment(semi, T),
        limit_expect_st(zero, semi, T), main_theorem_residual(zero, semi, "L1", T),
        main_theorem_residual(zero, semi, "L2", T), inner_peeling_residual(zero, semi, "L2"),
        *example_formulas_check("brownian", Partition.parse("((1)(2,3))"), T),
        *(c for _, c in st_uniform_formula(one_hat(2), make_tuple(POISSON, "identical", k=2),
                                           T)),
        exact_moment(make_tuple(POISSON, "identical", k=3), 2),
    ]
    zeros = {b: Fraction(0) for b in ((1,), (2,), (1, 2))}
    for f in (moment_functional(CumulantFunctional(2, zeros)),
              cumulant_functional(MomentFunctional(2, zeros)),
              moment_functional(CumulantFunctional(2, {b: 1 for b in zeros}))):
        values.extend(f.values.values())
    assert all(type(v) is Fraction for v in values), [type(v) for v in values]
    assert [format_rational(v) for v in values[:9]] == ["0/1"] * 9
    assert format_rational(exact_moment(make_tuple(POISSON, "identical", k=3), 2)) == "57/1"
    one = one_hat(3)
    mus = [mobius(zero, zero), mobius(Partition.zero_hat(3), one, "full"),
           mobius(Partition.zero_hat(3), one, "noncrossing")]
    assert [type(mu) for mu in mus] == [int] * 3 and mus == [1, 2, 2]


def test_suite_records_keep_their_rational_format():
    records = identity_suite(CUSTOM, 2, battery=BATTERY, process_name="custom")
    assert records and all(r["pass"] and r["residual"] == "0/1" for r in records)
    for p in enumerate_noncrossing(3):
        assert main_theorem_residual(p, make_tuple(CUSTOM, "identical", k=3), "L2", T) == 0
