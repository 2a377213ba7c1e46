"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the engine's own combinatorics: counts
come from recurrences, partitions from a different generator, expectations
from direct index-tuple sums.
"""

from fractions import Fraction

import numpy as np

from freestoch.cumulants import moments_from_cumulants
from freestoch.measures import (
    MAX_PRODUCT_ARITY,
    SUBDIVISION_BATTERY,
    _compositions,
    _record,
    diagonal_nesting_residual,
    expect_pr,
    expect_product_of_st,
    expect_st,
    free_sandwich_residual,
    inner_peeling_residual,
)
from freestoch.partitions import (
    Partition,
    classify_classes,
    coarsenings,
    enumerate_noncrossing,
    enumerate_set_partitions,
    interval_partition,
    is_noncrossing,
    iter_exact_index_tuples,
    iter_geq_index_tuples,
    mobius,
    refines,
    restrict,
)
from freestoch.processes import (
    make_custom_process,
    make_free_poisson,
    make_semicircular,
    make_tuple,
    tuple_increment_cumulants,
)
from freestoch.rational import format_rational

CUSTOM_SEQ = (
    Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7),
    Fraction(1, 11), Fraction(1, 13), Fraction(1, 17), Fraction(1, 19),
)

# centered variant: first cumulant zero, used for inner-singleton vanishing
CENTERED_SEQ = (
    Fraction(0), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7),
    Fraction(1, 11), Fraction(1, 13), Fraction(1, 17), Fraction(1, 19),
)


def process_fixtures():
    return {
        "free_poisson": make_free_poisson(1),
        "semicircular": make_semicircular(),
        "custom": make_custom_process(CUSTOM_SEQ),
    }


def bell_numbers(n_max):
    """Bell numbers by the binomial recurrence."""
    from math import comb

    bell = [1]
    for n in range(n_max):
        bell.append(sum(comb(n, i) * bell[i] for i in range(n + 1)))
    return bell  # bell[k] = B_k, bell[0] = 1


def catalan(n):
    from math import comb

    return comb(2 * n, n) // (n + 1)


def set_partitions_by_insertion(elements):
    """Independent generator: insert the last element into every slot."""
    elements = list(elements)
    if not elements:
        yield []
        return
    rest, last = elements[:-1], elements[-1]
    for smaller in set_partitions_by_insertion(rest):
        for i, subset in enumerate(smaller):
            yield smaller[:i] + [subset + [last]] + smaller[i + 1:]
        yield smaller + [[last]]


def brute_expect_st(p, sub, spec):
    """Direct sum over exact-pattern index tuples of per-tuple mixed moments."""
    total = Fraction(0)
    for v in iter_exact_index_tuples(p, sub.n):
        total += moments_from_cumulants(tuple_increment_cumulants(spec, sub, v))
    return total


def brute_expect_pr(p, sub, spec):
    total = Fraction(0)
    for v in iter_geq_index_tuples(p, sub.n):
        total += moments_from_cumulants(tuple_increment_cumulants(spec, sub, v))
    return total


def identity_suite_by_pairs(base, k_max, battery=SUBDIVISION_BATTERY, process_name="process"):
    """The identity suite with every finite trace computed afresh for each
    lattice pair: one expect_st/expect_pr call per term, and the outer-block
    product through expect_product_of_st on the restricted tuple."""
    records = []
    for k in range(1, k_max + 1):
        spec = make_tuple(base, "identical", k=k)
        for sub in battery:
            for p in enumerate_set_partitions(k):
                direct = expect_pr(p, sub, spec)
                via_st = sum((expect_st(s, sub, spec, max_blocks=k) for s in coarsenings(p)),
                             Fraction(0))
                records.append(_record("st_pr_inversion", p, process_name,
                                       sub.describe(), direct - via_st))
                back = sum((mobius(p, s, "full") * expect_pr(s, sub, spec)
                            for s in coarsenings(p)), Fraction(0))
                records.append(_record("mobius_inversion", p, process_name,
                                       sub.describe(), expect_st(p, sub, spec, max_blocks=k) - back))
            for p in enumerate_noncrossing(k):
                split = classify_classes(p)
                factors, indices = [], []
                for i, _outer in enumerate(split.outer):
                    covered = sorted(split.covered_sets[i])
                    factors.append((restrict(p, covered), "pr"))
                    indices.extend(covered)
                lhs = expect_pr(p, sub, spec)
                rhs = expect_product_of_st(factors, spec.restrict(indices), sub)
                records.append(_record("pr_outer_product", p, process_name,
                                       sub.describe(), lhs - rhs))
        for p in enumerate_noncrossing(k):
            records.append(_record("inner_peeling_l1", p, process_name, "limit",
                                   inner_peeling_residual(p, spec, "L1")))
            if 2 * k <= MAX_PRODUCT_ARITY:
                records.append(_record("inner_peeling_l2", p, process_name, "limit",
                                       inner_peeling_residual(p, spec, "L2")))
        for sizes in _compositions(k):
            nesting = interval_partition(sizes)
            records.append(_record("diagonal_nesting", nesting, process_name, "limit",
                                   diagonal_nesting_residual(spec, nesting.blocks)))
    for t in (Fraction(1), Fraction(3, 2)):
        records.append(_record("free_sandwich_limit", None, process_name,
                               f"t={format_rational(t)}",
                               free_sandwich_residual(base, (Fraction(1), Fraction(1, 2),
                                                             Fraction(1, 3)), t)))
    return records


def dense_index_sum(tuples, mats):
    """Sum of the words mats[0][v_1 - 1] mats[1][v_2 - 1] ... over index tuples v."""
    total = np.zeros_like(mats[0][0], dtype=complex)
    for v in tuples:
        word = mats[0][v[0] - 1]
        for comp, i in zip(mats[1:], v[1:]):
            word = word @ comp[i - 1]
        total += word
    return total


def dense_pr_sum(p, mats):
    """Pr_p of dense increment matrices, straight from its definition."""
    return dense_index_sum(iter_geq_index_tuples(p, len(mats[0])), mats)


def dense_st_sum(p, mats):
    """St_p of dense increment matrices, straight from its definition."""
    return dense_index_sum(iter_exact_index_tuples(p, len(mats[0])), mats)


def interval_members(s, p, noncrossing):
    """All z with s <= z <= p (and z noncrossing, if asked), by merging the
    blocks of s inside each block of p in every possible way."""
    plabels = p.rgs()
    groups = {}
    for block in s.blocks:
        groups.setdefault(plabels[block[0] - 1], []).append(block)
    members = [[]]
    for blocks in groups.values():
        members = [
            done + [[el for i in grp for el in blocks[i - 1]] for grp in grouping.blocks]
            for done in members
            for grouping in enumerate_set_partitions(len(blocks))
        ]
    out = [Partition.of(m, s.k) for m in members]
    return [z for z in out if not noncrossing or is_noncrossing(z)]


def recursive_mobius(s, p, lattice="full"):
    """Mobius function of [s, p] from its defining recursion
    mu(s, s) = 1, mu(s, z) = -sum over s <= y < z of mu(s, y)."""
    members = interval_members(s, p, lattice == "noncrossing")
    # finest first: a strict refinement has strictly more blocks
    members.sort(key=lambda q: -q.num_blocks)
    labels = [q.rgs() for q in members]
    mu = []
    for j, z in enumerate(members):
        if z == s:
            mu.append(Fraction(1))
            continue
        below = Fraction(0)
        for i in range(j):
            if members[i].num_blocks > z.num_blocks and all(
                    labels[j][el - 1] == labels[j][block[0] - 1]
                    for block in members[i].blocks for el in block):
                below += mu[i]
        mu.append(-below)
    return mu[members.index(p)]


def factor_match(sigma, tau, targets, kinds):
    """Does sigma's within-factor pattern meet each factor's constraint?
    St factors pin the restriction to their positions exactly, Pr factors
    only bound it below."""
    for cblock, target, kind in zip(tau.blocks, targets, kinds):
        within = restrict(sigma, cblock)
        if kind == "st":
            if within != target:
                return False
        elif not refines(target, within):
            return False
    return True


def product_patterns_by_filter(factors, noncrossing=False):
    """The product-expansion patterns, by filtering the whole lattice."""
    parts = [p for p, _ in factors]
    kinds = [kind for _, kind in factors]
    k = sum(p.k for p in parts)
    tau = interval_partition([p.k for p in parts])
    lattice = enumerate_noncrossing(k) if noncrossing else enumerate_set_partitions(k)
    return [sigma for sigma in lattice if factor_match(sigma, tau, parts, kinds)]
