"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the engine's own combinatorics: counts
come from recurrences, partitions from a different generator, expectations
from direct index-tuple sums.
"""

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from freestoch.cumulants import (
    CumulantFunctional,
    MomentFunctional,
    _scaled,
    _unscaled,
    nonempty_subsets,
)
from freestoch.errors import CrossingPartitionError, DimensionError, SizeGuardError
from freestoch.measures import (
    SUBDIVISION_BATTERY,
    MeasureWord,
    _limit_sum,
    _record,
    expect_pr,
    expect_st,
    inner_peeling_residual,
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
    mobius,
    opposite,
    refines,
    restrict,
)
from freestoch.processes import (
    ProcessSpec,
    ScaledCumulants,
    make_custom_process,
    make_free_poisson,
    make_semicircular,
    make_tuple,
)

CUSTOM_SEQ = (
    Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7),
    Fraction(1, 11), Fraction(1, 13), Fraction(1, 17), Fraction(1, 19),
)

# centered variant: first cumulant zero, used for inner-singleton vanishing
CENTERED_SEQ = (
    Fraction(0), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7),
    Fraction(1, 11), Fraction(1, 13), Fraction(1, 17), Fraction(1, 19),
)


def word_cumulant(word):
    """Unit-time cumulant of a word of atoms, as a Fraction; zero across
    distinct atoms."""
    if not word:
        raise ValueError("empty word")
    first = word[0]
    if any(a is not first and a != first for a in word[1:]):
        return Fraction(0)
    return first.cumulant(len(word))


def unit_cumulant(spec, subset):
    """R(B; X) per unit time: the cumulant of the subset's concatenated word."""
    return word_cumulant(spec.subset_word(subset))


def partition_cumulant(spec, p):
    """R_p(X) per unit time: the product over blocks, in Fractions."""
    if p.k != spec.k:
        raise DimensionError(f"partition of [{p.k}] vs {spec.k} components")
    out = Fraction(1)
    for block in p.blocks:
        out *= unit_cumulant(spec, block)
        if out == 0:
            return out
    return out


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


def all_rgs_strings(k):
    """All restricted-growth strings of length k, lexicographically."""
    a = [0] * k

    def rec(i, m):
        if i == k:
            yield tuple(a)
            return
        for v in range(m + 2):
            a[i] = v
            yield from rec(i + 1, max(m, v))

    yield from rec(1, 0) if k > 1 else iter([(0,)] if k == 1 else [])


def from_rgs(rgs):
    """The partition of a restricted-growth string (0-based labels), built
    without the block checks: it is canonical as built."""
    blocks = []
    for pos, label in enumerate(rgs, start=1):
        if label == len(blocks):
            blocks.append([pos])
        else:
            blocks[label].append(pos)
    return Partition._trusted(sum(map(len, blocks)), tuple(tuple(b) for b in blocks))


def compositions(k):
    """Ordered compositions of k (interval-partition block sizes), recursively."""
    if k == 0:
        yield ()
        return
    for first in range(1, k + 1):
        for rest in compositions(k - first):
            yield (first,) + rest


def one_hat(k):
    """The one-block partition of [k], the top of both lattices."""
    return Partition((range(1, k + 1),))


def interval_partition(sizes):
    """Consecutive blocks of the given sizes: (1..s1)(s1+1..s1+s2)..."""
    blocks, pos = [], 0
    for s in sizes:
        blocks.append(tuple(range(pos + 1, pos + s + 1)))
        pos += s
    return Partition(blocks)


def has_crossing(p):
    """The definition of a crossing, point by point: some a < b < c < d with
    a, c in one block and b, d in another."""
    labels = p.rgs()
    return any(labels[a] == labels[c] != labels[b] == labels[d]
               for a, b, c, d in itertools.combinations(range(p.k), 4))


def joined_text(p):
    """The text of a partition, joined block by block without a cache."""
    return "(" + "".join("(" + ",".join(map(str, b)) + ")" for b in p.blocks) + ")"


# Bound on the index tuples one iteration may visit.
MAX_INDEX_TUPLES = 2_000_000


def meet(s, p):
    """Common refinement: blockwise intersections, empty ones dropped."""
    groups = {}
    sl, pl = s.rgs(), p.rgs()
    for el in range(1, s.k + 1):
        groups.setdefault((sl[el - 1], pl[el - 1]), []).append(el)
    return Partition(groups.values())


def join(s, p):
    """Finest common coarsening: merge blocks of s and p that share a point
    until no two groups overlap."""
    groups = []
    for block in s.blocks + p.blocks:
        merged = set(block)
        for g in [g for g in groups if g & merged]:
            merged |= g
            groups.remove(g)
        groups.append(merged)
    return Partition(groups)


def iter_exact_index_tuples(p, n, max_tuples=MAX_INDEX_TUPLES):
    """Tuples v in [N]^k whose coincidence pattern is exactly p."""
    m = p.num_blocks
    if n**m > max_tuples:
        raise SizeGuardError(f"N^|p| = {n ** m} exceeds iteration guard")
    labels = p.rgs()
    for assignment in itertools.permutations(range(1, n + 1), m):
        yield tuple(assignment[labels[i]] for i in range(p.k))


def iter_geq_index_tuples(p, n, max_tuples=MAX_INDEX_TUPLES):
    """Tuples v in [N]^k constant on the blocks of p (pattern >= p)."""
    m = p.num_blocks
    if n**m > max_tuples:
        raise SizeGuardError(f"N^|p| = {n ** m} exceeds iteration guard")
    labels = p.rgs()
    for assignment in itertools.product(range(1, n + 1), repeat=m):
        yield tuple(assignment[labels[i]] for i in range(p.k))


def on_partition(f, p):
    """The value of a subset functional on a partition: the product of its
    values on the blocks."""
    return math.prod((f.values[block] for block in p.blocks), start=Fraction(1))


def noncrossing_refinements_by_filter(p):
    """All rho in NC(k) with rho <= p, by filtering the whole of NC(k)."""
    return [r for r in enumerate_noncrossing(p.k) if refines(r, p)]


def moments_from_cumulants(r, p=None):
    """M_p = sum of R_sigma over noncrossing sigma refining p (p = None: full moment)."""
    if p is None:
        p = one_hat(r.k)
    if p.k != r.k:
        raise DimensionError(f"partition of [{p.k}] vs functional arity {r.k}")
    total = Fraction(0)
    for sigma in enumerate_noncrossing(r.k):
        if refines(sigma, p):
            total += on_partition(r, sigma)
    return total


def cumulants_from_moments(m, p=None):
    """R_p by Mobius inversion over the noncrossing partitions below p."""
    if p is None:
        p = one_hat(m.k)
    if p.k != m.k:
        raise DimensionError(f"partition of [{p.k}] vs functional arity {m.k}")
    total = Fraction(0)
    for sigma in enumerate_noncrossing(m.k):
        if refines(sigma, p):
            total += mobius(sigma, p, "noncrossing") * on_partition(m, sigma)
    return total


def _subset_word(base, inner):
    """Re-index a block of [len(base)] through the subset base."""
    return tuple(base[i - 1] for i in inner)


def moment_functional_by_subsets(r):
    """The full moment functional, one sum over NC(|S|) per subset S."""
    values = {}
    for b in nonempty_subsets(r.k):
        total = Fraction(0)
        for sigma in enumerate_noncrossing(len(b)):
            term = Fraction(1)
            for block in sigma.blocks:
                term *= r.values[_subset_word(b, block)]
            total += term
        values[b] = total
    return MomentFunctional(r.k, values)


def cumulant_functional_by_subsets(m):
    """The full cumulant functional, one Mobius-weighted sum over NC(|S|)
    per subset S."""
    weighted = {n: [(sigma, mobius(sigma, one_hat(n), "noncrossing"))
                    for sigma in enumerate_noncrossing(n)] for n in range(1, m.k + 1)}
    values = {}
    for b in nonempty_subsets(m.k):
        total = Fraction(0)
        for sigma, term in weighted[len(b)]:
            for block in sigma.blocks:
                term *= m.values[_subset_word(b, block)]
            total += term
        values[b] = total
    return CumulantFunctional(m.k, values)


def restrict_spec(spec, indices):
    """Sub-tuple of the chosen components of spec, in the given order."""
    return ProcessSpec(tuple(spec.words[i - 1] for i in indices))


def derived_diagonal_tuple(spec, groups):
    """The tuple of diagonal measures over the given index groups.

    Component j stands for the diagonal measure of the sub-tuple over
    G_j, and its cumulants are those of the concatenated underlying word.
    That substitution rule is validated against an independent expansion
    by diagonal_substitution_residual; the engine applies it to the merged
    parts of a cumulant table.
    """
    groups = [tuple(g) for g in groups]
    if any(not g for g in groups):
        raise ValueError("empty group")
    for g in groups:
        if any(not 1 <= i <= spec.k for i in g):
            raise DimensionError(f"group {g} outside [1, {spec.k}]")
    return ProcessSpec(tuple(spec.subset_word(sorted(g)) for g in groups))


def diagonal_substitution_residual(spec, groups):
    """Difference of two expansions of the t-polynomial moment of a
    product of diagonal measures, keyed by power of t.

    Route (a) expands over noncrossing coarsenings of the interval
    pattern on the flattened word; route (b) applies the forward
    moment-cumulant sum to the derived tuple.  The derived tuple's
    substitution rule is trustworthy only because this comes back empty.
    """
    groups = [tuple(sorted(g)) for g in groups]
    flat = [i for g in groups for i in g]
    flattened = restrict_spec(spec, flat)
    sigma = interval_partition([len(g) for g in groups])

    poly_a = {}
    for tau in enumerate_noncrossing(len(flat)):
        if refines(sigma, tau):
            val = partition_cumulant(flattened, tau)
            if val:
                poly_a[tau.num_blocks] = poly_a.get(tau.num_blocks, Fraction(0)) + val

    derived = derived_diagonal_tuple(spec, groups)
    poly_b = {}
    for rho in enumerate_noncrossing(len(groups)):
        val = partition_cumulant(derived, rho)
        if val:
            poly_b[rho.num_blocks] = poly_b.get(rho.num_blocks, Fraction(0)) + val

    diff = {}
    for deg in set(poly_a) | set(poly_b):
        d = poly_a.get(deg, Fraction(0)) - poly_b.get(deg, Fraction(0))
        if d:
            diff[deg] = d
    return diff


def mobius_zero_hat_full(p):
    """mu(0-hat, p) in P(k): the product over blocks of (-1)^(n-1) (n-1)!."""
    return Fraction(math.prod((-1) ** (len(b) - 1) * math.factorial(len(b) - 1)
                              for b in p.blocks))


def rotate(p, shift=1):
    """Cyclically shift all elements by `shift` (mod k)."""
    k = p.k
    return Partition([[(i - 1 + shift) % k + 1 for i in b] for b in p.blocks])


class FiniteTraces:
    """The St/Pr traces of one tuple at one subdivision, as numbers.

    Every trace is summed afresh at the subdivision's power sums: St_p over
    the noncrossing refinements of p (filtered from all of NC(k)) with
    injective weights, Pr_p over all of NC(k) with the groups read off
    join(rho, p).  The engine's trace tables build the same sums once as
    polynomials in the power sums.
    """

    def __init__(self, spec, sub):
        self.spec = spec
        self.power_sums = [sum((l**c for l in sub.lengths), Fraction(0))
                           for c in range(spec.k + 1)]

    def _injective_weight(self, exponents):
        """Sum over injective maps w of prod_i lengths[w(i)]^e_i, by
        inclusion-exclusion over the coincidence partitions gamma."""
        total = Fraction(0)
        for gamma in enumerate_set_partitions(len(exponents)):
            term = mobius_zero_hat_full(gamma)
            for grp in gamma.blocks:
                term *= self.power_sums[sum(exponents[i - 1] for i in grp)]
            total += term
        return total

    def st(self, p):
        labels = p.rgs()
        total = Fraction(0)
        for rho in noncrossing_refinements_by_filter(p):
            exps = [0] * p.num_blocks
            for block in rho.blocks:
                exps[labels[block[0] - 1]] += 1
            total += partition_cumulant(self.spec, rho) * self._injective_weight(exps)
        return total

    def pr(self, p):
        total = Fraction(0)
        for rho in enumerate_noncrossing(p.k):
            term = partition_cumulant(self.spec, rho)
            jlabels = join(rho, p).rgs()
            for c in Counter(jlabels[block[0] - 1] for block in rho.blocks).values():
                term *= self.power_sums[c]
            total += term
        return total


def pr_by_union_find(table, p):
    """Trace polynomial of Pr_p, one pass over all of NC(k) per p: the
    groups into which the blocks of rho collapse the blocks of p come from
    a union-find over the p-labels each block of rho touches."""
    labels = p.rgs()
    poly = {}
    for rho in enumerate_noncrossing(p.k):
        r = table._cumulant(rho)
        if r == 0:
            continue
        group = list(range(p.num_blocks))
        for block in rho.blocks:
            roots = {group[labels[el - 1]] for el in block}
            if len(roots) > 1:
                root = min(roots)
                group = [root if g in roots else g for g in group]
        counts = [0] * p.num_blocks
        for block in rho.blocks:
            counts[group[labels[block[0] - 1]]] += 1
        mono = tuple(sorted(c for c in counts if c))
        poly[mono] = poly.get(mono, 0) + r
    return {m: c for m, c in poly.items() if c}


@dataclass(frozen=True)
class ExpectationReport:
    finite_value: Fraction
    uniform_formula: list  # the rows (j, coefficient of N^(-j)) of st_uniform_formula
    limit_value: Fraction


def formula_at(rows, n):
    """The value of a uniform closed form at N = n: the polynomial in 1/n."""
    return sum((c * Fraction(1, n**j) for j, c in rows), Fraction(0))


def formula_limit(rows):
    """The mesh limit of a uniform closed form: its constant term."""
    return dict(rows).get(0, Fraction(0))


def st_report(p, spec, sub):
    """The finite St_p trace, its uniform closed form and its mesh limit."""
    return ExpectationReport(
        finite_value=expect_st(p, sub, spec),
        uniform_formula=st_uniform_formula(p, spec, sub.t),
        limit_value=limit_expect_st(p, spec, sub.t),
    )


def _intersection_length(intervals):
    lo = max(a for a, _ in intervals)
    hi = min(b for _, b in intervals)
    return max(hi - lo, Fraction(0))


def increment_cumulant(spec, p, intervals):
    """R_p of the components evaluated on the given intervals.

    Equals the product over blocks of the intersection length inside the
    block, times the unit-time R_p.
    """
    if not is_noncrossing(p):
        raise CrossingPartitionError(f"{p} is crossing")
    ivs = [(Fraction(a), Fraction(b)) for a, b in intervals]
    if p.k != len(ivs) or p.k != spec.k:
        raise DimensionError("partition, intervals, and components must agree")
    if any(b <= a for a, b in ivs):
        raise ValueError("intervals must be nonempty half-open [a, b)")
    out = Fraction(1)
    for block in p.blocks:
        out *= _intersection_length([ivs[i - 1] for i in block])
        if out == 0:
            return out
    return out * partition_cumulant(spec, p)


def tuple_increment_cumulants(spec, sub, indices):
    """Cumulant functional of (X^(1)(I_v1), ..., X^(k)(I_vk)).

    The value on a subset is the shared interval length (zero unless the
    subset's indices coincide) times the unit-time cumulant.  Its full
    moment is the mixed moment of one Riemann-sum term, independently of
    the expectation engine.
    """
    if len(indices) != spec.k:
        raise DimensionError("one interval index per component")
    values = {}
    for b in nonempty_subsets(spec.k):
        chosen = {indices[i - 1] for i in b}
        if len(chosen) == 1:
            values[b] = sub.lengths[next(iter(chosen)) - 1] * unit_cumulant(spec, b)
        else:
            values[b] = Fraction(0)
    return CumulantFunctional(spec.k, values)


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
    lattice pair: one expect_st/expect_pr call per term."""
    records = []
    for k in range(1, k_max + 1):
        spec = make_tuple(base, "identical", k=k)
        for sub in battery:
            for p in enumerate_set_partitions(k):
                direct = expect_pr(p, sub, spec)
                via_st = sum((expect_st(s, sub, spec) for s in coarsenings(p)), Fraction(0))
                records.append(_record("st_pr_inversion", p, process_name,
                                       sub.describe(), direct - via_st))
                back = sum((mobius(p, s, "full") * expect_pr(s, sub, spec)
                            for s in coarsenings(p)), Fraction(0))
                records.append(_record("mobius_inversion", p, process_name,
                                       sub.describe(), expect_st(p, sub, spec) - back))
        for p in enumerate_noncrossing(k):
            records.append(_record("inner_peeling_l2", p, process_name, "limit",
                                   inner_peeling_residual(p, spec, "L2")))
    return records


def hermitian_gaussian_complex(rng, dim, part=slice(None)):
    """The Hermitian Gaussian assembled in complex arithmetic, (a + a*) / s
    with a = x + iy: the byte-equality oracle of matrixsim's real assembly."""
    x, y = rng.standard_normal((dim, dim)), rng.standard_normal((dim, dim))
    a = x[part, part] + 1j * y[part, part]
    return (a + a.conj().T) / math.sqrt(4 * dim)


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
    out = [Partition(m) for m in members]
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


def expect_product_of_st(factors, spec, sub):
    """Trace of a product of St/Pr factors over consecutive component groups
    at a finite subdivision: the St traces of the coincidence patterns of
    the concatenated word that match each factor, summed."""
    if not factors:
        return Fraction(1)
    return sum((expect_st(sigma, sub, spec) for sigma in product_patterns_by_filter(factors)),
               Fraction(0))


def concat(p, s):
    """Place s after p on a ground set of size p.k + s.k."""
    shifted = [[i + p.k for i in b] for b in s.blocks]
    return Partition(list(p.blocks) + shifted)


def _span(mask):
    """The bits from the lowest set bit of mask up to, not including, its highest."""
    return (1 << (mask.bit_length() - 1)) - (mask & -mask)


def noncrossing_coarsenings(p, apart=None):
    """The noncrossing sigma >= p that join no two blocks of p lying in one
    block of `apart`, by a backtracking walk over the blocks of p.  Two
    disjoint groups cross iff each has a point inside the other's span, and
    a crossing stays as blocks are added, so a crossing branch is dropped
    at once."""
    labels = (apart or p).rgs()
    tags = [labels[block[0] - 1] for block in p.blocks]
    bits = [sum(1 << el for el in block) for block in p.blocks]
    out, groups, group_tags, masks = [], [], [], []

    def crosses(mask, skip):
        span = _span(mask)
        return any(other & span and mask & _span(other) and i != skip
                   for i, other in enumerate(masks))

    def walk(j):
        if j == p.num_blocks:
            out.append(Partition(groups))
            return
        block, tag, bit = p.blocks[j], tags[j], bits[j]
        for i, (g, used) in enumerate(zip(groups, group_tags)):
            if tag not in used and not crosses(masks[i] | bit, i):
                g.extend(block)
                used.add(tag)
                masks[i] |= bit
                walk(j + 1)
                del g[len(g) - len(block):]
                used.discard(tag)
                masks[i] ^= bit
        if not crosses(bit, -1):
            groups.append(list(block))
            group_tags.append({tag})
            masks.append(bit)
            walk(j + 1)
            groups.pop()
            group_tags.pop()
            masks.pop()

    walk(0)
    return out


def limit_product_by_patterns(factors, spec, t=1):
    """Mesh limit of a product trace as one term t^|sigma| R_sigma per
    noncrossing pattern sigma: the coarsenings of the concatenated pattern
    that keep apart each St factor and each block of a Pr factor."""
    if not factors:
        return Fraction(1)
    t = Fraction(t)
    pi_total = functools.reduce(concat, (p for p, _ in factors))
    apart = functools.reduce(concat, (one_hat(p.k) if kind == "st" else p
                                      for p, kind in factors))
    total = Fraction(0)
    for sigma in noncrossing_coarsenings(pi_total, apart):
        r = partition_cumulant(spec, sigma)
        if r:
            total += t**sigma.num_blocks * r
    return total


def adjoint(word):
    """The measure word of the adjoint: the factors reversed, each pattern
    opposite, and the words reversed in order and each read backwards."""
    factors = tuple((opposite(p), kind) for p, kind in reversed(word.factors))
    return MeasureWord(word.scalar, factors, tuple(w[::-1] for w in reversed(word.words)))


def pair_trace(a, b, t=1):
    """tau(A B) for two measure words by one limit product, run whatever
    the scalars."""
    factors = list(a.factors + b.factors)
    if not factors:
        return a.scalar * b.scalar
    return a.scalar * b.scalar * limit_product_of_st(factors, ProcessSpec(a.words + b.words), t)


def pair_trace_on_table(a, b, table, parts):
    """tau(A B) by the engine's integer limit sum on a shared cumulant table
    (at its time), given the parts of A's and B's words in it."""
    factors = tuple(a.factors + b.factors)
    if not factors:
        return a.scalar * b.scalar
    total, n = _limit_sum(factors, (), parts, table)
    return a.scalar * b.scalar * Fraction(total, table.scale ** n)


def l2_residual_by_four_traces(a, b, t=1):
    """tau((A - B)(A - B)*) expanded into all four pair traces."""
    a_star, b_star = adjoint(a), adjoint(b)
    return (pair_trace(a, a_star, t) - pair_trace(a, b_star, t)
            - pair_trace(b, a_star, t) + pair_trace(b, b_star, t))


def first_block_sum(units: int, bits, weight, value, tags=None):
    """F(units) = sum over first blocks V of weight(V) * prod of value(gap),
    by the callback recursion: each first block is listed and its gaps are
    found by a scan over the later units.

    F sums the product of block weights over the noncrossing groupings of
    the units (the set bits of `units`; unit i covers the points bits[i]
    and lies in group tags[i], its own if tags is None) whose blocks take
    at most one unit per group.  V holds the lowest unit; the gaps are the
    units between consecutive points of V or after its last one, and none
    may straddle a point of V.  value(gap) is F(gap), supplied by the
    caller.  A V of weight 0 is skipped unsplit.
    """
    order = [i for i in range(units.bit_length()) if units >> i & 1]
    first, rest = order[0], order[1:]
    tags = range(len(bits)) if tags is None else tags
    blocks = [(1 << first, bits[first], 1 << tags[first])]
    for i in rest:
        unit, points, tag = 1 << i, bits[i], 1 << tags[i]
        blocks += [(v | unit, pts | points, used | tag)
                   for v, pts, used in blocks if not used & tag]
    spans = [(i, bits[i], _span(bits[i])) for i in rest]
    total = 0
    for v, points, _ in blocks:
        term = weight(v)
        if not term:
            continue
        gaps: dict[int, int] = {}  # keyed by the points of V below the gap
        for i, b, span in spans:
            if v >> i & 1:
                continue
            if points & span:
                break
            below = points & ((b & -b) - 1)
            gaps[below] = gaps.get(below, 0) | 1 << i
        else:
            for gap in gaps.values():
                term *= value(gap)
                if not term:
                    break
            total += term
    return total


def moment_functional_by_recursion(r):
    """moment_functional by the callback recursion, on the same scaled values."""
    cumulants, powers = _scaled(r)
    bits, moments = [1 << i for i in range(r.k)], {}
    for s in sorted(cumulants, key=int.bit_count):
        moments[s] = first_block_sum(s, bits, cumulants.__getitem__, moments.__getitem__)
    return MomentFunctional(r.k, _unscaled(r.k, moments, powers))


def cumulant_functional_by_recursion(m):
    """cumulant_functional by the callback recursion, on the same scaled values."""
    moments, powers = _scaled(m)
    bits, cumulants = [1 << i for i in range(m.k)], {}
    for s in sorted(moments, key=int.bit_count):
        cumulants[s] = 0  # drops the V = S term from the sum
        cumulants[s] = moments[s] - first_block_sum(s, bits, cumulants.__getitem__,
                                                    moments.__getitem__)
    return CumulantFunctional(m.k, _unscaled(m.k, cumulants, powers))


def limit_product_by_recursion(factors, spec, t=1):
    """limit_product_of_st by the callback recursion over sets of units,
    each set's sum memoized for the one call."""
    if not factors:
        return Fraction(1)
    t, table = Fraction(t), ScaledCumulants(spec)
    scale = table.scale * t.denominator
    bits, tags, merged = [], [], {}
    offset = group = 0
    for p, kind in factors:
        for j, block in enumerate(p.blocks):
            bits.append(sum(1 << (offset + el) for el in block))
            tags.append(group if kind == "st" else group + j)
            merged[1 << len(merged)] = table.merge([table.parts[offset + el - 1] for el in block])
        offset += p.k
        group += 1 if kind == "st" else p.num_blocks
    powers = [t.numerator * scale**n for n in range(len(bits))]
    sums = {}

    def part(v):
        if v not in merged:
            top = 1 << (v.bit_length() - 1)
            merged[v] = table.merge((part(v ^ top), merged[top]))
        return merged[v]

    def weight(v):
        return table.value(part(v)) * powers[v.bit_count() - 1]

    def total(units):
        if units not in sums:
            sums[units] = first_block_sum(units, bits, weight, total, tags)
        return sums[units]

    return Fraction(total((1 << len(bits)) - 1), scale ** len(bits))
