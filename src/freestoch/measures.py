"""Exact expectations of partition-indexed Riemann sums and their limits.

The engine evaluates the trace of St_p / Pr_p sums (and products of such
factors) for a consistent tuple, at a finite subdivision and in the mesh
limit, entirely in rational arithmetic.  Operator-level statements are
checked through the trace of (L - R)(L - R)*, which vanishes iff L = R
because the state is faithful; that expansion is the only bridge between
operator identities and computable numbers used here.

Finite-level inversions run over the full partition lattice: crossing
patterns contribute at any finite subdivision and only die in the limit.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import CrossingPartitionError, DimensionError, SizeGuardError
from .partitions import (
    Partition,
    classify_classes,
    coarsenings,
    concat,
    enumerate_noncrossing,
    enumerate_set_partitions,
    interval_partition,
    is_noncrossing,
    join,
    mobius,
    mobius_zero_hat_full,
    noncrossing_refinements,
    opposite,
    restrict,
)
from .processes import (
    Atom,
    ProcessSpec,
    Subdivision,
    derived_diagonal_tuple,
    make_custom_process,
    make_free_poisson,
    make_semicircular,
    make_tuple,
    word_cumulant,
)
from .rational import format_rational

# Guards for the direct finite-subdivision sums; the uniform closed form
# has no N limit.  Product expansions cap the concatenated arity.
MAX_DIRECT_BLOCKS = 5
MAX_DIRECT_N = 64
MAX_PRODUCT_ARITY = 8

Factor = tuple[Partition, str]  # kind: "st" | "pr"


def _power_sums(lengths, max_power: int) -> list[Fraction]:
    """P[c] = sum of lengths^c for c = 0..max_power."""
    out = [Fraction(len(lengths))]
    for c in range(1, max_power + 1):
        out.append(sum((l**c for l in lengths), Fraction(0)))
    return out


def _injective_weight(exponents, power_sums) -> Fraction:
    """Sum over injective maps w of prod_i lengths[w(i)]^e_i.

    Coincidence inclusion-exclusion: sum over set partitions gamma of the
    index set of mu(0, gamma) times the power-sum product with exponents
    merged along gamma.  The closed-form Mobius values keep this fast; the
    recursive definition cross-checks them in the tests.
    """
    m = len(exponents)
    total = Fraction(0)
    for gamma in enumerate_set_partitions(m):
        term = mobius_zero_hat_full(gamma)
        for grp in gamma.blocks:
            term *= power_sums[sum(exponents[i - 1] for i in grp)]
        total += term
    return total


def _check_engine_args(p: Partition, sub: Subdivision, spec: ProcessSpec,
                       max_blocks: int | None, max_n: int | None) -> None:
    if p.k != spec.k:
        raise DimensionError(f"partition of [{p.k}] vs {spec.k} components")
    max_blocks = MAX_DIRECT_BLOCKS if max_blocks is None else max_blocks
    max_n = MAX_DIRECT_N if max_n is None else max_n
    if p.num_blocks > max_blocks:
        raise SizeGuardError(f"|p| = {p.num_blocks} exceeds direct-sum guard {max_blocks}")
    if sub.n > max_n:
        raise SizeGuardError(f"N = {sub.n} exceeds direct-sum guard {max_n}")


def expect_st(p: Partition, sub: Subdivision, spec: ProcessSpec,
              max_blocks: int | None = None, max_n: int | None = None) -> Fraction:
    """Trace of St_p(X, S): indices distinct across blocks, constant on them.

    Only noncrossing refinements of p contribute (a cumulant block across
    two p-blocks meets two disjoint intervals), each weighted by the
    injective interval-product sum.
    """
    _check_engine_args(p, sub, spec, max_blocks, max_n)
    labels = p.rgs()
    power_sums = _power_sums(sub.lengths, p.k)
    total = Fraction(0)
    for rho in noncrossing_refinements(p):
        r = spec.partition_cumulant(rho)
        if r == 0:
            continue
        exps = [0] * p.num_blocks
        for block in rho.blocks:
            exps[labels[block[0] - 1]] += 1
        total += r * _injective_weight(exps, power_sums)
    return total


def expect_pr(p: Partition, sub: Subdivision, spec: ProcessSpec) -> Fraction:
    """Trace of Pr_p(X, S): indices merely constant on the blocks of p.

    Free maps factor over the groups into which join(rho, p) collapses
    the blocks of p, giving plain power sums instead of injective ones.
    """
    if p.k != spec.k:
        raise DimensionError(f"partition of [{p.k}] vs {spec.k} components")
    if p.k > MAX_PRODUCT_ARITY:
        raise SizeGuardError(f"arity {p.k} exceeds guard {MAX_PRODUCT_ARITY}")
    power_sums = _power_sums(sub.lengths, p.k)
    total = Fraction(0)
    for rho in enumerate_noncrossing(p.k):
        r = spec.partition_cumulant(rho)
        if r == 0:
            continue
        jlabels = join(rho, p).rgs()
        counts: dict[int, int] = {}
        for block in rho.blocks:
            lab = jlabels[block[0] - 1]
            counts[lab] = counts.get(lab, 0) + 1
        term = r
        for c in counts.values():
            term *= power_sums[c]
        total += term
    return total


def limit_expect_st(p: Partition, spec: ProcessSpec, t=1) -> Fraction:
    """Mesh limit of the St_p trace: t^|p| R_p when p is noncrossing, else 0."""
    if p.k != spec.k:
        raise DimensionError(f"partition of [{p.k}] vs {spec.k} components")
    t = Fraction(t)
    if not is_noncrossing(p):
        return Fraction(0)
    return t**p.num_blocks * spec.partition_cumulant(p)


def exact_moment(spec: ProcessSpec, t=1) -> Fraction:
    """Trace of the full product X^(1)(t)...X^(k)(t)."""
    t = Fraction(t)
    total = Fraction(0)
    for sigma in enumerate_noncrossing(spec.k):
        r = spec.partition_cumulant(sigma)
        if r:
            total += t**sigma.num_blocks * r
    return total


# ---------------------------------------------------------------------------
# uniform closed form


@dataclass(frozen=True)
class UniformFormula:
    """Exact value of a trace at uniform subdivisions, as a polynomial in 1/N.

    coeffs[j] multiplies N^(-j); the constant term is the mesh limit.
    """

    coeffs: dict[int, Fraction]

    def evaluate(self, n: int) -> Fraction:
        return sum((c * Fraction(1, n**j) for j, c in self.coeffs.items()), Fraction(0))

    @property
    def limit(self) -> Fraction:
        return self.coeffs.get(0, Fraction(0))

    @property
    def constant_term(self) -> Fraction:
        return self.limit

    def rows(self):
        return [(j, self.coeffs[j]) for j in sorted(self.coeffs)]


def _falling_factorial_coeffs(m: int) -> list[Fraction]:
    """Coefficients of N(N-1)...(N-m+1) in powers of N."""
    poly = [Fraction(1)]
    for j in range(m):
        shifted = [Fraction(0)] + poly
        poly = [a - j * b for a, b in itertools.zip_longest(shifted, poly + [Fraction(0)],
                                                            fillvalue=Fraction(0))]
        poly = poly[: m + 1]
    return poly


def st_uniform_formula(p: Partition, spec: ProcessSpec, t=1) -> UniformFormula:
    """St_p trace at the uniform N-subdivision of [0, t), exactly in 1/N.

    Each noncrossing refinement rho contributes R_rho t^|rho| times the
    falling factorial N^(|p|) over N^|rho|.
    """
    if p.k != spec.k:
        raise DimensionError(f"partition of [{p.k}] vs {spec.k} components")
    t = Fraction(t)
    m = p.num_blocks
    stirling = _falling_factorial_coeffs(m)
    coeffs: dict[int, Fraction] = {}
    for rho in noncrossing_refinements(p):
        r = spec.partition_cumulant(rho)
        if r == 0:
            continue
        base = r * t**rho.num_blocks
        for power, s in enumerate(stirling):
            if s:
                j = rho.num_blocks - power
                coeffs[j] = coeffs.get(j, Fraction(0)) + base * s
    return UniformFormula({j: c for j, c in coeffs.items() if c})


@dataclass(frozen=True)
class ExpectationReport:
    finite_value: Fraction
    uniform_formula: UniformFormula
    limit_value: Fraction


def st_report(p: Partition, spec: ProcessSpec, sub: Subdivision) -> ExpectationReport:
    return ExpectationReport(
        finite_value=expect_st(p, sub, spec),
        uniform_formula=st_uniform_formula(p, spec, sub.t),
        limit_value=limit_expect_st(p, spec, sub.t),
    )


# ---------------------------------------------------------------------------
# products of St/Pr factors


def _combined_pattern(factors) -> tuple[Partition, Partition]:
    """The concatenated pattern of the factors, and the partition whose
    blocks keep a factor's blocks apart: a whole St factor, since St pins
    its within-factor pattern exactly, and each block of a Pr factor, which
    only bounds that pattern from below."""
    if any(kind not in ("st", "pr") for _, kind in factors):
        raise ValueError("factor kind must be 'st' or 'pr'")
    pi_total = functools.reduce(concat, (p for p, _ in factors))
    apart = functools.reduce(concat, (Partition.one_hat(p.k) if kind == "st" else p
                                      for p, kind in factors))
    return pi_total, apart


def _product_patterns(factors, spec: ProcessSpec) -> list[Partition]:
    """Coincidence patterns sigma of the concatenated word whose restriction
    to each factor matches it: the coarsenings of the concatenated pattern
    that merge no two blocks of one St factor."""
    pi_total, apart = _combined_pattern(factors)
    if pi_total.k != spec.k:
        raise DimensionError(f"factors cover [{pi_total.k}] vs {spec.k} components")
    if pi_total.k > MAX_PRODUCT_ARITY:
        raise SizeGuardError(f"total arity {pi_total.k} exceeds guard {MAX_PRODUCT_ARITY}")
    return coarsenings(pi_total, apart)


def expect_product_of_st(factors, spec: ProcessSpec, sub: Subdivision) -> Fraction:
    """Trace of a product of St/Pr factors over consecutive component groups.

    Expands over the coincidence patterns sigma of the concatenated word
    that match each factor, then sums the St_sigma traces.
    """
    return sum((expect_st(sigma, sub, spec, max_blocks=spec.k)
                for sigma in _product_patterns(factors, spec)), Fraction(0))


def limit_product_of_st(factors, spec: ProcessSpec, t=1) -> Fraction:
    """Mesh limit of the product trace; only noncrossing patterns survive."""
    if not factors:
        return Fraction(1)
    t = Fraction(t)
    total = Fraction(0)
    for sigma in _product_patterns(factors, spec):
        if is_noncrossing(sigma):
            r = spec.partition_cumulant(sigma)
            if r:
                total += t**sigma.num_blocks * r
    return total


# ---------------------------------------------------------------------------
# operator words and second-order (L2) residuals


@dataclass(frozen=True)
class MeasureWord:
    """A scalar multiple of a product of St/Pr factors on given words."""

    scalar: Fraction
    factors: tuple[Factor, ...]
    words: tuple[tuple[Atom, ...], ...]

    def adjoint(self) -> "MeasureWord":
        factors = tuple((opposite(p), kind) for p, kind in reversed(self.factors))
        words = tuple(w[::-1] for w in reversed(self.words))
        return MeasureWord(self.scalar, factors, words)


def _pair_trace(a: MeasureWord, b: MeasureWord, t) -> Fraction:
    factors = a.factors + b.factors
    if not factors:
        return a.scalar * b.scalar
    spec = ProcessSpec(a.words + b.words)
    return a.scalar * b.scalar * limit_product_of_st(list(factors), spec, t)


def l2_residual(a: MeasureWord, b: MeasureWord, t=1) -> Fraction:
    """Trace of (A - B)(A - B)*; zero iff A = B by faithfulness."""
    a_star, b_star = a.adjoint(), b.adjoint()
    return (_pair_trace(a, a_star, t) - _pair_trace(a, b_star, t)
            - _pair_trace(b, a_star, t) + _pair_trace(b, b_star, t))


def _st_word(p: Partition, spec: ProcessSpec, scalar=1) -> MeasureWord:
    return MeasureWord(Fraction(scalar), ((p, "st"),), spec.words)


def _main_theorem_sides(p: Partition, spec: ProcessSpec, t) -> tuple[MeasureWord, MeasureWord]:
    split = classify_classes(p)
    t = Fraction(t)
    scalar = Fraction(1)
    for c_block in split.inner:
        scalar *= t * spec.unit_cumulant(c_block)
    derived_words = tuple(spec.subset_word(b) for b in split.outer)
    rhs = MeasureWord(scalar, ((Partition.zero_hat(split.outer_count), "st"),), derived_words)
    return _st_word(p, spec), rhs


def main_theorem_residual(p: Partition, spec: ProcessSpec, order: str = "L1", t=1) -> Fraction:
    """Residual of St_p against the inner-scalar times off-diagonal form.

    L1 compares traces of the two sides; L2 expands the trace of
    (L - R)(L - R)* over the concatenated word and must also vanish.
    """
    if not is_noncrossing(p):
        raise CrossingPartitionError(f"{p} is crossing")
    if p.k != spec.k:
        raise DimensionError(f"partition of [{p.k}] vs {spec.k} components")
    lhs, rhs = _main_theorem_sides(p, spec, t)
    if order == "L1":
        split = classify_classes(p)
        derived = derived_diagonal_tuple(spec, split.outer)
        left = limit_expect_st(p, spec, t)
        right = rhs.scalar * limit_expect_st(Partition.zero_hat(derived.k), derived, t)
        return left - right
    if order == "L2":
        if 2 * p.k > MAX_PRODUCT_ARITY:
            raise SizeGuardError(f"L2 at k={p.k} needs arity {2 * p.k} > {MAX_PRODUCT_ARITY}")
        return l2_residual(lhs, rhs, t)
    raise ValueError(f"unknown order {order!r}")


def inner_peeling_residual(p: Partition, spec: ProcessSpec, order: str = "L1", t=1) -> Fraction:
    """Residual of St_p against peeling all inner classes off as scalars,
    keeping St of the outer blocks on their own positions."""
    if not is_noncrossing(p):
        raise CrossingPartitionError(f"{p} is crossing")
    split = classify_classes(p)
    t = Fraction(t)
    scalar = Fraction(1)
    for c_block in split.inner:
        scalar *= t * spec.unit_cumulant(c_block)
    support = sorted(el for b in split.outer for el in b)
    outer_part = restrict(p, support)
    rhs = MeasureWord(scalar, ((outer_part, "st"),),
                      tuple(spec.words[i - 1] for i in support))
    if order == "L1":
        return limit_expect_st(p, spec, t) - scalar * limit_expect_st(
            outer_part, spec.restrict(support), t)
    if order == "L2":
        if 2 * p.k > MAX_PRODUCT_ARITY:
            raise SizeGuardError(f"L2 at k={p.k} needs arity {2 * p.k} > {MAX_PRODUCT_ARITY}")
        return l2_residual(_st_word(p, spec), rhs, t)
    raise ValueError(f"unknown order {order!r}")


def diagonal_nesting_residual(spec: ProcessSpec, interval_blocks, t=1) -> Fraction:
    """Trace residual of the diagonal of diagonals against the flat diagonal."""
    blocks = [tuple(sorted(b)) for b in interval_blocks]
    flat = [i for b in blocks for i in b]
    if flat != list(range(1, spec.k + 1)):
        raise ValueError("blocks must form an interval partition of the components")
    derived = derived_diagonal_tuple(spec, blocks)
    lhs = limit_expect_st(Partition.one_hat(derived.k), derived, t)
    rhs = limit_expect_st(Partition.one_hat(spec.k), spec, t)
    return lhs - rhs


def free_sandwich_residual(base: ProcessSpec, z_cumulants, t=1) -> Fraction:
    """Limit trace of the X_i Z X_i sum against tau(Z) times the order-2 diagonal.

    Z is modeled as a fresh component free from the process; a cumulant
    block covering the X positions scales with one interval length per
    block, so only single-X-block patterns survive the limit.
    """
    if base.k != 1:
        raise DimensionError("the sandwich check takes a single-component process")
    t = Fraction(t)
    z_spec = make_custom_process(z_cumulants)
    sandwich = ProcessSpec((base.words[0], z_spec.words[0], base.words[0]))
    total = Fraction(0)
    for rho in enumerate_noncrossing(3):
        r = sandwich.partition_cumulant(rho)
        if r == 0:
            continue
        x_blocks = sum(1 for b in rho.blocks if 1 in b or 3 in b)
        if x_blocks == 1:
            total += t * r
    tau_z = Fraction(z_cumulants[0])
    delta2 = t * word_cumulant(base.words[0] * 2)
    return total - tau_z * delta2


# ---------------------------------------------------------------------------
# worked closed-form examples and the identity suite


def example_formulas_check(which: str, p: Partition, t=1) -> tuple[Fraction, Fraction]:
    """(L1, L2) residuals of St_p against its closed form for the two
    canonical processes.

    For the constant-cumulant process the closed form is t^inner times the
    off-diagonal sum of outer order; for the centered variance process the
    closed form collapses to a scalar times a lower-order off-diagonal sum,
    or to zero when a block is too big or an inner singleton appears.
    """
    if not is_noncrossing(p):
        raise CrossingPartitionError(f"{p} is crossing")
    t = Fraction(t)
    split = classify_classes(p)
    if which == "free_poisson":
        spec = make_tuple(make_free_poisson(1), "identical", k=p.k)
        o = split.outer_count
        rhs = MeasureWord(t**split.inner_count, ((Partition.zero_hat(o), "st"),),
                          (spec.words[0],) * o)
    elif which == "brownian":
        spec = make_tuple(make_semicircular(), "identical", k=p.k)
        oversized = any(len(b) > 2 for b in p.blocks)
        inner_singleton = any(len(b) == 1 for b in split.inner)
        if oversized or inner_singleton:
            rhs = MeasureWord(Fraction(0), (), ())
        else:
            pairs = sum(1 for b in p.blocks if len(b) == 2)
            singles = sum(1 for b in split.outer if len(b) == 1)
            if singles:
                rhs = MeasureWord(t**pairs, ((Partition.zero_hat(singles), "st"),),
                                  (spec.words[0],) * singles)
            else:
                rhs = MeasureWord(t**pairs, (), ())
    else:
        raise ValueError(f"unknown example {which!r}")
    lhs = _st_word(p, spec)
    l1 = _pair_trace(lhs, MeasureWord(Fraction(1), (), ()), t) - _pair_trace(
        rhs, MeasureWord(Fraction(1), (), ()), t)
    l2 = l2_residual(lhs, rhs, t)
    return l1, l2


SUBDIVISION_BATTERY = (
    Subdivision.uniform(1),
    Subdivision.uniform(2),
    Subdivision.uniform(3),
    Subdivision.uniform(5),
    Subdivision.of((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))),
    Subdivision.of((Fraction(1, 7), Fraction(2, 7), Fraction(4, 7))),
    Subdivision.of((Fraction(1, 2), Fraction(3, 2))),
)


def _record(check: str, partition, process: str, subdivision: str, residual: Fraction) -> dict:
    return {
        "check": check,
        "partition": str(partition) if partition is not None else "",
        "process": process,
        "subdivision": subdivision,
        "residual": format_rational(residual),
        "pass": residual == 0,
    }


def identity_suite(base: ProcessSpec, k_max: int, battery=SUBDIVISION_BATTERY,
                   process_name: str = "process") -> list[dict]:
    """Run the exact identity battery for identical copies of one process.

    Covers finite St/Pr inversion over the full lattice, the outer-block
    product rule for Pr, inner-class peeling in L1 and L2, diagonal
    nesting, and the free-sandwich limit; every residual must be 0.
    """
    if base.k != 1:
        raise DimensionError("identity_suite takes a single-component process")
    if k_max > 5:
        raise SizeGuardError("identity suite capped at k_max = 5")
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
                               free_sandwich_residual(base, (Fraction(1), Fraction(1, 2), Fraction(1, 3)), t)))
    return records


def _compositions(k: int):
    """Ordered compositions of k (interval-partition block sizes)."""
    if k == 0:
        yield ()
        return
    for first in range(1, k + 1):
        for rest in _compositions(k - first):
            yield (first,) + rest
