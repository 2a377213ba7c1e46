"""The identity suite's inversions on trace polynomials, Pr by its rho-outer
pass, and the residual path that takes several orders from one set of sides.

Each is checked against the path it replaced: the per-p union-find Pr, the
suite summed from fresh finite traces pair by pair, and one residual call
per order.
"""

import math
from fractions import Fraction

import pytest

import freestoch.measures as measures_module
from freestoch.cli import run
from freestoch.measures import (
    MAX_SUITE_K,
    SUBDIVISION_BATTERY,
    MeasureWord,
    TraceTable,
    _injective_weight,
    _inner_peeling_sides,
    _residuals,
    _suite_table,
    example_formulas_check,
    examples_suite,
    identity_suite,
    inner_peeling_residual,
    l2_residual,
    main_theorem_residual,
    main_theorem_suite,
)
from freestoch.partitions import (
    Partition,
    classify_classes,
    enumerate_noncrossing,
    enumerate_set_partitions,
    refines,
)
from freestoch.processes import (
    ScaledCumulants,
    Subdivision,
    make_custom_process,
    make_free_poisson,
    make_semicircular,
    make_tuple,
)
from freestoch.rational import format_rational

from helpers import FiniteTraces, identity_suite_by_pairs, pr_by_union_find

# twelve cumulants of both signs, four of them zero, so that some R_rho
# vanish on a process that is neither free Poisson nor semicircular
SIGNED_ZEROS = make_custom_process([Fraction(1, 2), Fraction(-2, 3), Fraction(0), Fraction(3, 5),
                                    Fraction(-1, 7), Fraction(0), Fraction(5, 3), Fraction(-4, 5),
                                    Fraction(0), Fraction(2, 7), Fraction(0), Fraction(-1, 3)])
# (process, largest k): the oracle takes about 2 s over P(7) for free
# Poisson, where no R_rho vanishes, so that process stops at P(6)
PR_PROCESSES = {"poisson_3/2": (make_free_poisson(Fraction(3, 2)), 6),
                "semicircular": (make_semicircular(), 7), "signed_zeros": (SIGNED_ZEROS, 7)}


@pytest.mark.parametrize("name", PR_PROCESSES)
def test_pr_equals_the_union_find_oracle(name):
    base, k_max = PR_PROCESSES[name]
    for k in range(1, k_max + 1):
        spec = make_tuple(base, "identical", k=k)
        table, oracle = TraceTable(spec), TraceTable(spec)
        for p in enumerate_set_partitions(k):
            assert table.pr(p) == pr_by_union_find(oracle, p), (name, p)


def _perturb(monkeypatch, kind, target, change):
    """Make TraceTable.<kind> return target's polynomial plus `change`, on
    tables built from now on: the suite's cached tables are dropped, so none
    filled before the patch can hide it."""
    original = getattr(TraceTable, kind)
    _suite_table.cache_clear()

    def perturbed(self, p):
        poly = original(self, p)
        if p != target:
            return poly
        poly = dict(poly)
        for mono, c in change.items():
            poly[mono] = poly.get(mono, 0) + c
        return poly

    monkeypatch.setattr(TraceTable, kind, perturbed)


@pytest.mark.parametrize("kind", ["st", "pr"])
@pytest.mark.parametrize("change", [{(1, 1): 1}, {(2,): 1, (1, 1): -1}],
                         ids=["one_coefficient", "zero_at_one_interval"])
def test_a_wrong_table_fails_the_suite_where_its_differences_move(monkeypatch, kind, change):
    # Pr_p - sum St_sigma (sigma >= p) holds St_target for p <= target and
    # Pr_p only for p = target; St_p - sum mu(p, sigma) Pr_sigma the other
    # way round.  P[2] - P[1]^2 vanishes on the one interval of uniform(N=1).
    base, target = make_free_poisson(1), Partition.parse("((1,2)(3))")
    below = {str(p) for p in enumerate_set_partitions(3) if refines(p, target)}
    moved = {"st": ("st_pr_inversion", "mobius_inversion"),
             "pr": ("mobius_inversion", "st_pr_inversion")}[kind]
    touched = {(moved[0], p) for p in below} | {(moved[1], str(target))}
    _perturb(monkeypatch, kind, target, change)
    records = identity_suite(base, 3)
    assert records == identity_suite_by_pairs(base, 3)
    failing = [r for r in records if not r["pass"]]
    assert {(r["check"], r["partition"]) for r in failing} == touched
    vanishing = {"uniform(N=1,t=1/1)"} if len(change) == 2 else set()
    wheres = {r["subdivision"] for r in records if r["check"] == "st_pr_inversion"}
    assert len(failing) == len(touched) * len(wheres - vanishing)
    assert not any(r["subdivision"] in vanishing for r in failing)


# an 8-cumulant process and a 3-piece subdivision with small rational entries
EIGHT_CUMULANTS = make_custom_process([Fraction(2, 3), Fraction(-1, 5), Fraction(3, 4), Fraction(1),
                                       Fraction(-3, 2), Fraction(1, 3), Fraction(2, 5),
                                       Fraction(-1, 4)])
THREE_PIECES = Subdivision.of((Fraction(3, 11), Fraction(5, 11), Fraction(3, 11)))


@pytest.mark.parametrize("name", ["free_poisson", "semicircular", "eight_cumulants",
                                  "signed_zeros"])
def test_the_suite_matches_the_pair_oracle_at_k_max_4(name):
    # six patterns in NC(4) have an inner block, against one in NC(3)
    base = {"free_poisson": make_free_poisson(1), "semicircular": make_semicircular(),
            "eight_cumulants": EIGHT_CUMULANTS, "signed_zeros": SIGNED_ZEROS}[name]
    battery = SUBDIVISION_BATTERY + (THREE_PIECES,)
    assert sum(1 for p in enumerate_noncrossing(4) if classify_classes(p).inner) == 6
    oracle = identity_suite_by_pairs(base, 4, battery=battery, process_name=name)
    # the repeated call reads the k = 1..4 tables the first one kept
    _suite_table.cache_clear()
    cold = identity_suite(base, 4, battery=battery, process_name=name)
    before = _suite_table.cache_info()
    warm = identity_suite(base, 4, battery=battery, process_name=name)
    after = _suite_table.cache_info()
    assert cold == oracle and warm == oracle
    assert after.hits - before.hits == 4 and after.misses == before.misses
    assert all(r["pass"] for r in warm)


def test_measures_caches_are_bounded_and_the_suite_tables_evict():
    bounds = {name: obj.cache_parameters()["maxsize"] for name, obj in vars(measures_module).items()
              if callable(getattr(obj, "cache_parameters", None))}
    assert "_suite_table" in bounds and None not in bounds.values(), bounds
    # three suites to k_max 4 cycle through 12 tables; a smaller LRU would never hit
    maxsize = bounds["_suite_table"]
    assert maxsize == 4 * MAX_SUITE_K >= 12
    _suite_table.cache_clear()
    bases = [make_custom_process([Fraction(1, n), Fraction(n, 3)]) for n in range(1, maxsize + 3)]
    first = identity_suite(bases[0], 2)
    for base in bases[1:]:  # two tables each: the first base's are evicted
        identity_suite(base, 2)
    info = _suite_table.cache_info()
    assert info.currsize == maxsize and info.misses == 2 * len(bases) and info.hits == 0
    assert identity_suite(bases[0], 2) == first == identity_suite_by_pairs(bases[0], 2)
    assert _suite_table.cache_info().misses == info.misses + 2


@pytest.mark.parametrize("name,which", [("free_poisson", "free_poisson"),
                                        ("semicircular", "brownian")])
def test_both_orders_equal_the_one_order_calls(name, which):
    base = make_free_poisson(1) if name == "free_poisson" else make_semicircular()
    peeled = {r["partition"]: r["residual"]
              for r in identity_suite(base, 6) if r["check"] == "inner_peeling_l2"}
    assert len(peeled) == sum(len(enumerate_noncrossing(k)) for k in range(1, 7))
    for k in range(1, 7):
        spec = make_tuple(base, "identical", k=k)
        for p in enumerate_noncrossing(k):
            assert peeled[str(p)] == format_rational(inner_peeling_residual(p, spec, "L2"))
            assert example_formulas_check(which, p) == (main_theorem_residual(p, spec, "L1"),
                                                        main_theorem_residual(p, spec, "L2"))


def test_both_orders_of_a_wrong_side_keep_their_values_and_order():
    # a doubled inner scalar gives nonzero residuals in both orders
    def doubled(p, spec, table):
        rhs = _inner_peeling_sides(p, spec, table)
        return MeasureWord(2 * rhs.scalar, rhs.factors, rhs.words)

    t = Fraction(3, 2)
    for base in (make_free_poisson(Fraction(3, 2)), SIGNED_ZEROS):
        spec = make_tuple(base, "identical", k=4)
        for p in (Partition.parse("((1,4)(2,3))"), Partition.parse("((1,2)(3,4))")):
            table = ScaledCumulants(spec, t)
            l1, l2 = _residuals(p, spec, doubled, ("L1", "L2"), table)
            assert l1 and l2, p
            assert _residuals(p, spec, doubled, ("L2", "L1"), table) == [l2, l1]
            assert _residuals(p, spec, doubled, ("L1",), table) == [l1]
            # the public L2 builds its own table over the sides' words
            lhs = MeasureWord(Fraction(1), ((p, "st"),), spec.words)
            assert l2_residual(lhs, doubled(p, spec, ScaledCumulants(spec, t)), t) == l2


def test_a_residual_reads_each_right_side_word_once_and_no_left_side_word(monkeypatch, capsys):
    # The St_p side's parts are its table's own: outside the table's
    # construction, one residual call per p reduces each word of the right
    # side to its part once, whatever the orders asked for.
    tables, reads, building = [], [], []
    init, part = ScaledCumulants.__init__, ScaledCumulants.part

    def counted_init(self, spec, t=1):
        tables.append(spec)
        building.append(spec)
        init(self, spec, t)
        building.pop()

    def counted_part(self, word):
        if not building:
            reads.append(word)
        return part(self, word)

    monkeypatch.setattr(ScaledCumulants, "__init__", counted_init)
    monkeypatch.setattr(ScaledCumulants, "part", counted_part)
    assert run(["verify", "main-theorem", "--process", "free_poisson", "--order", "both",
                "--k-max", "5", "--t", "3/2"]) == 0
    capsys.readouterr()
    ps = [p for k in range(1, 6) for p in enumerate_noncrossing(k)]
    assert [spec.k for spec in tables] == [1, 2, 3, 4, 5]  # one table per k
    assert reads == [tables[p.k - 1].subset_word(b) for p in ps
                     for b in classify_classes(p).outer]
    for which, p, right_words in (("free_poisson", "((1,4)(2,3)(5))", 2),
                                  ("brownian", "((1,2,3)(4))", 0)):  # a factorless side
        tables.clear()
        reads.clear()
        assert example_formulas_check(which, Partition.parse(p)) == (0, 0)
        assert len(tables) == 1 and len(reads) == right_words, (which, reads)


@pytest.mark.parametrize("order", ["L1", "L2", "both"])
def test_the_main_theorem_sweep_builds_one_cumulant_table_per_k(monkeypatch, capsys, order):
    # the 14 patterns of NC(4) and the 9 below it read four tables, at the time asked for
    times = []
    init = ScaledCumulants.__init__

    def counted_init(self, spec, t=1):
        times.append((spec.k, t))
        init(self, spec, t)

    monkeypatch.setattr(ScaledCumulants, "__init__", counted_init)
    assert run(["verify", "main-theorem", "--k-max", "4", "--order", order, "--t", "2/7"]) == 0
    capsys.readouterr()
    assert times == [(k, Fraction(2, 7)) for k in range(1, 5)]


@pytest.mark.parametrize("residual", [main_theorem_residual, inner_peeling_residual])
def test_an_unknown_order_on_a_valid_partition_is_a_value_error(residual):
    # a crossing p and a tuple of another size are refused first
    # (test_residuals_refuse_a_tuple_of_another_size[...-L3])
    spec = make_tuple(make_free_poisson(1), "identical", k=4)
    with pytest.raises(ValueError, match="unknown order 'L3'") as refused:
        residual(Partition.parse("((1,4)(2,3))"), spec, "L3")
    assert type(refused.value) is ValueError


@pytest.mark.parametrize("k_max", [0, -3, True, 2.0, "2", None])
def test_identity_suite_refuses_a_k_max_that_is_not_an_integer_of_at_least_one(k_max):
    with pytest.raises(ValueError, match="integer k_max >= 1") as refused:
        identity_suite(make_free_poisson(1), k_max)
    assert type(refused.value) is ValueError


@pytest.mark.parametrize("k_max", [0, -1, True, 2.0, None])
@pytest.mark.parametrize("suite", [
    lambda k_max: identity_suite(make_free_poisson(1), k_max),
    lambda k_max: main_theorem_suite(make_free_poisson(1), k_max),
    lambda k_max: examples_suite("free_poisson", k_max),
], ids=["identity", "main_theorem", "examples"])
def test_every_suite_refuses_a_k_max_that_is_not_an_integer_of_at_least_one(suite, k_max):
    with pytest.raises(ValueError, match="integer k_max >= 1") as refused:
        suite(k_max)
    assert type(refused.value) is ValueError


def _exponent_multisets(n, low=1):
    """The sorted tuples of positive exponents summing to n."""
    if n == 0:
        yield ()
        return
    for first in range(low, n + 1):
        for rest in _exponent_multisets(n - first, first):
            yield (first,) + rest


def test_the_shared_injective_weights_equal_the_coincidence_partition_sums():
    # the St tables of every tuple read one weight per exponent multiset: 139 of
    # them sum to at most MAX_ST_ARITY = 10, the empty one included
    sub = Subdivision.of((Fraction(1, 2), Fraction(1, 3), Fraction(2, 7), Fraction(5, 11)))
    traces = FiniteTraces(make_tuple(make_free_poisson(1), "identical", k=10), sub)
    assert _injective_weight(()) == {(): 1}
    for n in range(1, 11):
        for exponents in _exponent_multisets(n):
            value = sum(c * math.prod(traces.power_sums[e] for e in mono)
                        for mono, c in _injective_weight(exponents).items())
            assert value == traces._injective_weight(exponents), exponents
    assert _injective_weight.cache_info().currsize <= 139
