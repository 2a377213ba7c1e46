from fractions import Fraction

import pytest

from freestoch import measures
from freestoch.errors import CrossingPartitionError, DimensionError, SizeGuardError
from freestoch.measures import (
    MAX_LIMIT_ARITY,
    MAX_SUITE_K,
    MeasureWord,
    SUBDIVISION_BATTERY,
    _inner_peeling_sides,
    _main_theorem_sides,
    free_sandwich_residual,
    diagonal_nesting_residual,
    exact_moment,
    example_formulas_check,
    expect_pr,
    expect_st,
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
    coarsenings,
    enumerate_noncrossing,
    enumerate_set_partitions,
    mobius,
)
from freestoch.processes import (
    ProcessSpec,
    ScaledCumulants,
    Subdivision,
    make_custom_process,
    make_free_poisson,
    make_semicircular,
    make_tuple,
)

from helpers import (
    CENTERED_SEQ,
    CUSTOM_SEQ,
    FiniteTraces,
    brute_expect_pr,
    brute_expect_st,
    catalan,
    expect_product_of_st,
    formula_at,
    formula_limit,
    l2_residual_by_four_traces,
    one_hat,
    process_fixtures,
    st_report,
)

POISSON2 = make_tuple(make_free_poisson(1), "identical", k=2)


def test_poisson_uniform_closed_forms():
    # the order-2 diagonal trace is 1 + 1/N, the off-diagonal one 1 - 1/N
    for n in (1, 2, 4, 8):
        sub = Subdivision.uniform(n)
        assert expect_st(one_hat(2), sub, POISSON2) == 1 + Fraction(1, n)
        assert expect_st(Partition.zero_hat(2), sub, POISSON2) == 1 - Fraction(1, n)


def test_engine_matches_brute_force_small():
    subs = [Subdivision.uniform(3), Subdivision.of(["1/2", "1/3", "1/6"])]
    for name, base in process_fixtures().items():
        for k in (1, 2, 3):
            spec = make_tuple(base, "identical", k=k)
            for sub in subs:
                for p in enumerate_set_partitions(k):
                    assert expect_st(p, sub, spec) == brute_expect_st(p, sub, spec), (name, p)
                    assert expect_pr(p, sub, spec) == brute_expect_pr(p, sub, spec), (name, p)


def test_pr_at_zero_hat_is_the_full_moment():
    for sub in SUBDIVISION_BATTERY:
        for k in (1, 2, 3):
            spec = make_tuple(make_free_poisson(1), "identical", k=k)
            scaled = exact_moment(spec, sub.t)
            assert expect_pr(Partition.zero_hat(k), sub, spec) == scaled


def test_pr_equals_st_at_one_hat():
    sub = Subdivision.uniform(5)
    spec = make_tuple(make_semicircular(), "identical", k=3)
    one = one_hat(3)
    assert expect_pr(one, sub, spec) == expect_st(one, sub, spec)


def test_finite_inversion_and_mobius_consistency():
    sub = Subdivision.of(["1/7", "2/7", "4/7"])
    for name, base in process_fixtures().items():
        for k in (2, 3, 4):
            spec = make_tuple(base, "identical", k=k)
            for p in enumerate_set_partitions(k):
                via_st = sum(
                    (expect_st(s, sub, spec) for s in coarsenings(p)),
                    Fraction(0))
                assert expect_pr(p, sub, spec) == via_st, (name, p)
                back = sum(
                    (mobius(p, s, "full") * expect_pr(s, sub, spec) for s in coarsenings(p)),
                    Fraction(0))
                assert expect_st(p, sub, spec) == back, (name, p)


def test_uniform_formula_reproduces_finite_values():
    spec = make_tuple(make_custom_process(CENTERED_SEQ), "identical", k=4)
    for p in enumerate_set_partitions(4):
        formula = st_uniform_formula(p, spec)
        for n in (1, 2, 3, 7):
            assert formula_at(formula, n) == expect_st(p, Subdivision.uniform(n), spec)
        assert formula_limit(formula) == limit_expect_st(p, spec)


def test_crossing_patterns_decay():
    cross = Partition.parse("((1,3)(2,4))")
    for base in process_fixtures().values():
        spec = make_tuple(base, "identical", k=4)
        formula = st_uniform_formula(cross, spec)
        assert formula_limit(formula) == 0
        assert limit_expect_st(cross, spec) == 0


def test_finite_values_converge_to_the_limit():
    spec = make_tuple(make_free_poisson(1), "identical", k=3)
    p = Partition.parse("((1,3)(2))")
    limit = limit_expect_st(p, spec)
    gaps = [abs(expect_st(p, Subdivision.uniform(n), spec) - limit) for n in (2, 4, 8, 16)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_limit_formula_examples():
    poisson = make_tuple(make_free_poisson(1), "identical", k=4)
    t = Fraction(5, 3)
    for p in enumerate_noncrossing(4):
        assert limit_expect_st(p, poisson, t) == t ** p.num_blocks
    semi = make_tuple(make_semicircular(), "identical", k=4)
    for p in enumerate_noncrossing(4):
        expected = t ** p.num_blocks if all(len(b) == 2 for b in p.blocks) else 0
        assert limit_expect_st(p, semi, t) == expected


def test_st_report_invariants():
    spec = make_tuple(make_free_poisson(1), "identical", k=3)
    p = Partition.parse("((1,2)(3))")
    sub = Subdivision.uniform(6)
    rep = st_report(p, spec, sub)
    assert formula_at(rep.uniform_formula, 6) == rep.finite_value
    assert formula_limit(rep.uniform_formula) == rep.limit_value


def test_empty_product_is_one():
    empty = ProcessSpec(())
    assert expect_product_of_st([], empty, Subdivision.uniform(3)) == 1
    assert limit_product_of_st([], empty) == 1


def test_product_of_two_diagonals_is_the_second_moment():
    sub = Subdivision.of(["1/2", "1/2"])
    spec = make_tuple(make_free_poisson(1), "identical", k=2)
    one1 = one_hat(1)
    value = expect_product_of_st([(one1, "st"), (one1, "st")], spec, sub)
    assert value == exact_moment(spec, sub.t)


def test_psi2_squared_matches_brute_force():
    # double off-diagonal sum: every pair of exact-pattern tuples, moments
    # computed through the cumulant transform rather than the engine
    from helpers import iter_exact_index_tuples, moments_from_cumulants, tuple_increment_cumulants

    sub = Subdivision.uniform(4)
    zero2 = Partition.zero_hat(2)
    for base in (make_semicircular(), make_free_poisson(1)):
        spec4 = make_tuple(base, "identical", k=4)
        value = expect_product_of_st([(zero2, "st"), (zero2, "st")], spec4, sub)
        brute = Fraction(0)
        for va in iter_exact_index_tuples(zero2, sub.n):
            for vb in iter_exact_index_tuples(zero2, sub.n):
                functional = tuple_increment_cumulants(spec4, sub, va + vb)
                brute += moments_from_cumulants(functional)
        assert value == brute


def test_limit_product_matches_finite_extrapolation():
    spec4 = make_tuple(make_free_poisson(1), "identical", k=4)
    zero2 = Partition.zero_hat(2)
    factors = [(zero2, "st"), (zero2, "st")]
    limit = limit_product_of_st(factors, spec4)
    gaps = [abs(expect_product_of_st(factors, spec4, Subdivision.uniform(n)) - limit)
            for n in (4, 8, 16)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_main_theorem_residuals_vanish():
    t = Fraction(4, 3)
    for name, base in process_fixtures().items():
        for k in range(1, 5):
            spec = make_tuple(base, "identical", k=k)
            for p in enumerate_noncrossing(k):
                assert main_theorem_residual(p, spec, "L1", t) == 0, (name, p)
                assert main_theorem_residual(p, spec, "L2", t) == 0, (name, p)


def test_l2_residuals_vanish_on_all_of_nc6():
    # arity 12: the custom process needs cumulants up to order 12
    custom = make_custom_process(CUSTOM_SEQ + tuple(Fraction(1, q) for q in (23, 29, 31, 37)))
    for name, base in (("free_poisson", make_free_poisson(1)),
                       ("semicircular", make_semicircular()), ("custom", custom)):
        spec = make_tuple(base, "identical", k=6)
        for p in enumerate_noncrossing(6):
            assert main_theorem_residual(p, spec, "L2") == 0, (name, p)


def test_limit_guard_holds_at_16_and_trips_at_17():
    # the full moment: Catalan(16) for free Poisson, Catalan(8) for the
    # semicircle, whose only nonzero cumulant is the variance
    base = make_free_poisson(1)
    spec16 = make_tuple(base, "identical", k=16)
    assert limit_product_of_st([(Partition.zero_hat(16), "pr")], spec16) == catalan(16)
    assert exact_moment(make_tuple(make_semicircular(), "identical", k=16)) == catalan(8)
    spec17 = make_tuple(base, "identical", k=17)
    for factors in ([(Partition.zero_hat(17), "pr")],
                    [(Partition.zero_hat(8), "st"), (one_hat(9), "pr")]):
        with pytest.raises(SizeGuardError):
            limit_product_of_st(factors, spec17)
    with pytest.raises(SizeGuardError):
        exact_moment(spec17)


def test_l2_residual_is_the_four_trace_expansion():
    # tau(B A*) = tau(A B*) lets the residual skip one pair trace, and a zero
    # scalar skips its pair traces; neither may move a value.  Arity 10 at
    # k = 5: the custom process needs cumulants up to order 10.
    fixtures = {**process_fixtures(),
                "custom": make_custom_process(CUSTOM_SEQ + (Fraction(1, 23), Fraction(1, 29)))}
    for t in (Fraction(1), Fraction(3, 2)):
        for name, base in fixtures.items():
            for k in range(1, 6):
                spec = make_tuple(base, "identical", k=k)
                for p in enumerate_noncrossing(k):
                    lhs = MeasureWord(Fraction(1), ((p, "st"),), spec.words)
                    for sides in (_main_theorem_sides, _inner_peeling_sides):
                        rhs = sides(p, spec, ScaledCumulants(spec, t))
                        assert l2_residual(lhs, rhs, t) == \
                            l2_residual_by_four_traces(lhs, rhs, t), (name, p, t)


def _no_recursion(monkeypatch):
    def refuse(*args):
        raise AssertionError("a first-block plan was asked for")

    monkeypatch.setattr(measures, "first_block_plan", refuse)


def test_limit_product_guards_run_in_order_before_the_recursion(monkeypatch):
    _no_recursion(monkeypatch)
    base = make_free_poisson(1)
    spec3, spec17 = make_tuple(base, "identical", k=3), make_tuple(base, "identical", k=17)
    zero17, one2 = Partition.zero_hat(17), one_hat(2)
    # each case also breaks every later guard
    with pytest.raises(ValueError, match="kind"):
        limit_product_of_st([(one2, "st"), (zero17, "diag")], spec3)
    with pytest.raises(DimensionError):
        limit_product_of_st([(one2, "st"), (zero17, "pr")], spec3)
    with pytest.raises(SizeGuardError):
        limit_product_of_st([(zero17, "pr")], spec17)


def test_a_zero_scalar_word_keeps_the_arity_guard(monkeypatch):
    _no_recursion(monkeypatch)
    spec9 = make_tuple(make_free_poisson(1), "identical", k=9)  # arity 18 > 16
    zero = MeasureWord(Fraction(0), ((Partition.zero_hat(9), "st"),), spec9.words)
    one = MeasureWord(Fraction(1), (), ())
    for a, b in ((zero, one), (one, zero)):
        with pytest.raises(SizeGuardError):
            l2_residual(a, b)


def _shared_factor_pairs():
    """Pairs a != b whose sides share their factors and word parts: a scaled
    St word against itself, Pr factors (alone and after an St factor), and
    a word against distinct but equal derived words, singletons and length
    2, as the main theorem's 0-hat sides build them."""
    spec = make_tuple(make_custom_process(CUSTOM_SEQ), "identical", k=4)
    words, p = spec.words, Partition.parse("((1,4)(2)(3))")
    zero4, zero2, one2 = Partition.zero_hat(4), Partition.zero_hat(2), one_hat(2)
    singles = tuple(spec.subset_word((i,)) for i in range(1, 5))
    pairs = (spec.subset_word((1, 2)), spec.subset_word((3, 4)))
    for factors, a_words, b_words in (
            (((p, "st"),), words, words),
            (((p, "pr"),), words, words),
            (((zero2, "st"), (one2, "pr")), words, words),
            (((zero4, "st"),), words, singles),
            (((zero2, "st"),), pairs, tuple(w[::-1] for w in pairs))):
        yield (MeasureWord(Fraction(5, 3), factors, a_words),
               MeasureWord(Fraction(-1, 2), factors, b_words))


def test_shared_factor_residuals_take_one_limit_product(monkeypatch):
    products = []
    limit_sum = measures._limit_sum  # the integer core of every limit product

    def count(*args):
        products.append(args)
        return limit_sum(*args)

    monkeypatch.setattr(measures, "_limit_sum", count)
    for a, b in _shared_factor_pairs():
        for t in (Fraction(1), Fraction(3, 2), Fraction(2, 7)):
            products.clear()
            residual = l2_residual(a, b, t)
            assert len(products) == 1, (a, t)
            assert residual == l2_residual_by_four_traces(a, b, t) != 0, (a, t)


def test_equal_shared_factor_sides_run_no_recursion(monkeypatch):
    _no_recursion(monkeypatch)
    for a, b in _shared_factor_pairs():
        assert l2_residual(a, MeasureWord(a.scalar, b.factors, b.words)) == 0
    # the main theorem's 0-hat sides for free Poisson: no inner class, scalar 1
    spec = make_tuple(make_free_poisson(1), "identical", k=4)
    assert main_theorem_residual(Partition.zero_hat(4), spec, "L2") == 0
    spec9 = make_tuple(make_free_poisson(1), "identical", k=9)  # arity 18 > 16
    word = MeasureWord(Fraction(1), ((Partition.zero_hat(9), "st"),), spec9.words)
    with pytest.raises(SizeGuardError):
        l2_residual(word, word)


def test_main_theorem_sides_for_a_known_case():
    spec = make_tuple(make_free_poisson(1), "identical", k=3)
    p = Partition.parse("((1,3)(2))")
    assert limit_expect_st(p, spec) == 1  # R_p at t = 1
    assert main_theorem_residual(p, spec, "L1") == 0


def test_main_theorem_guards():
    spec9 = make_tuple(make_free_poisson(1), "identical", k=9)
    with pytest.raises(SizeGuardError):
        main_theorem_residual(one_hat(9), spec9, "L2")
    with pytest.raises(CrossingPartitionError):
        spec4 = make_tuple(make_free_poisson(1), "identical", k=4)
        main_theorem_residual(Partition.parse("((1,3)(2,4))"), spec4, "L1")


@pytest.mark.parametrize("residual", [main_theorem_residual, inner_peeling_residual])
@pytest.mark.parametrize("order", ["L1", "L2", "L3"])
def test_residuals_refuse_a_tuple_of_another_size(residual, order):
    # checked after the crossing test and before either side is built or
    # the order is read
    p = Partition.parse("((1,4)(2,3))")
    for k in (2, 6):
        spec = make_tuple(make_free_poisson(1), "identical", k=k)
        with pytest.raises(DimensionError, match=f"partition of \\[4\\] vs {k} components"):
            residual(p, spec, order)
        with pytest.raises(CrossingPartitionError):
            residual(Partition.parse("((1,3)(2,4))"), spec, order)


def test_one_outer_class_shape():
    # single outer class: the residual reduces to scalar peeling onto the
    # diagonal of the outer block
    spec = make_tuple(make_custom_process(CENTERED_SEQ), "identical", k=4)
    for text in ("((1,4)(2,3))", "((1,4)(2)(3))", "((1,2,4)(3))"):
        p = Partition.parse(text)
        assert len(classify_classes(p).outer) == 1
        assert main_theorem_residual(p, spec, "L1") == 0
        assert main_theorem_residual(p, spec, "L2") == 0
        assert inner_peeling_residual(p, spec, "L2") == 0


def test_inner_singleton_vanishing_for_centered_processes():
    # centered process, inner singleton: both the trace and the L2 norm of
    # the measure must vanish
    for base in (make_semicircular(), make_custom_process(CENTERED_SEQ)):
        for k in (3, 4):
            spec = make_tuple(base, "identical", k=k)
            for p in enumerate_noncrossing(k):
                split = classify_classes(p)
                if not any(len(b) == 1 for b in split.inner):
                    continue
                lhs = MeasureWord(Fraction(1), ((p, "st"),), spec.words)
                zero = MeasureWord(Fraction(0), (), ())
                assert limit_expect_st(p, spec) == 0
                assert l2_residual(lhs, zero) == 0


def test_inner_peeling_residuals():
    for base in process_fixtures().values():
        for k in (2, 3, 4):
            spec = make_tuple(base, "identical", k=k)
            for p in enumerate_noncrossing(k):
                assert inner_peeling_residual(p, spec, "L1") == 0
                assert inner_peeling_residual(p, spec, "L2") == 0


def test_diagonal_nesting():
    for base in process_fixtures().values():
        spec = make_tuple(base, "identical", k=4)
        for blocks in ([(1, 2), (3, 4)], [(1,), (2, 3, 4)], [(1, 2, 3, 4)]):
            assert diagonal_nesting_residual(spec, blocks) == 0
    with pytest.raises(ValueError):
        diagonal_nesting_residual(spec, [(1, 3), (2, 4)])


def test_free_sandwich_limit():
    for base in process_fixtures().values():
        for t in (Fraction(1), Fraction(2, 3)):
            res = free_sandwich_residual(base, (Fraction(5, 7), Fraction(1), Fraction(2)), t)
            assert res == 0


def test_example_formulas():
    for which in ("free_poisson", "brownian"):
        for k in range(1, 5):
            for p in enumerate_noncrossing(k):
                l1, l2 = example_formulas_check(which, p, Fraction(1))
                assert l1 == 0 and l2 == 0, (which, p)
    # order-2 diagonal of the centered process is the scalar t
    semi2 = make_tuple(make_semicircular(), "identical", k=2)
    t = Fraction(7, 5)
    assert limit_expect_st(one_hat(2), semi2, t) == t


def test_identity_suite_all_fixtures():
    # inner_peeling_l2 at k takes limit products of arity 2k: every k the
    # suite admits fits the limit guard
    assert 2 * MAX_SUITE_K <= MAX_LIMIT_ARITY
    for name, base in process_fixtures().items():
        records = identity_suite(base, 3, process_name=name)
        assert records and all(r["pass"] for r in records)
        checks = {r["check"] for r in records}
        assert {"st_pr_inversion", "mobius_inversion",
                "inner_peeling_l1", "inner_peeling_l2", "diagonal_nesting",
                "free_sandwich_limit"} <= checks


def test_engine_guards():
    # no N or block-count guard: N = 65 and the six blocks of 0-hat_6 give
    # the oracle's value and the uniform closed form
    spec = make_tuple(make_free_poisson(1), "identical", k=2)
    zero2, sub65 = Partition.zero_hat(2), Subdivision.uniform(65)
    assert expect_st(zero2, sub65, spec) == FiniteTraces(spec, sub65).st(zero2) \
        == 1 - Fraction(1, 65)
    spec6 = make_tuple(make_free_poisson(1), "identical", k=6)
    zero6 = Partition.zero_hat(6)
    for n in (4, 1000):
        assert expect_st(zero6, Subdivision.uniform(n), spec6) == \
            formula_at(st_uniform_formula(zero6, spec6), n)
    sub = Subdivision.of(["1/2", "1/3", "1/6"])
    assert expect_st(zero6, sub, spec6) == FiniteTraces(spec6, sub).st(zero6) == 0
    with pytest.raises(DimensionError):
        expect_st(Partition.zero_hat(3), Subdivision.uniform(4), spec)
    spec17 = make_tuple(make_free_poisson(1), "identical", k=17)
    with pytest.raises(SizeGuardError):
        limit_product_of_st([(Partition.zero_hat(17), "st")], spec17)


def test_st_arity_guard_holds_at_10_and_trips_at_11():
    # one interval: St of 1-hat is the full moment, Catalan(k) for free
    # Poisson, and so is Pr of 1-hat, which walks all of NC(k) under the
    # same guard
    base, one = make_free_poisson(1), Subdivision.uniform(1)
    spec10 = make_tuple(base, "identical", k=10)
    for expect in (expect_st, expect_pr):
        assert expect(one_hat(10), one, spec10) == catalan(10)
    spec11 = make_tuple(base, "identical", k=11)
    for call in (lambda: expect_st(one_hat(11), one, spec11),
                 lambda: expect_pr(one_hat(11), one, spec11),
                 lambda: st_uniform_formula(one_hat(11), spec11)):
        with pytest.raises(SizeGuardError, match="St arity 11 exceeds guard 10"):
            call()


def test_suite_and_product_run_past_n_64():
    base = make_free_poisson(1)
    factors = [(Partition.zero_hat(1), "st"), (one_hat(1), "pr")]
    zero2 = Partition.zero_hat(2)
    for n in (64, 65, 200):
        sub = Subdivision.uniform(n)
        battery = (Subdivision.uniform(2), sub)
        assert all(r["pass"] for r in identity_suite(base, 2, battery=battery))
        value = expect_product_of_st(factors, POISSON2, sub)
        assert value == expect_pr(zero2, sub, POISSON2) == FiniteTraces(POISSON2, sub).pr(zero2)
