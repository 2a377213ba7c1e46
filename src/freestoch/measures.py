"""Exact expectations of partition-indexed Riemann sums and their limits.

The engine evaluates the trace of St_p / Pr_p sums for a consistent tuple,
at a finite subdivision and in the mesh limit, and of their products in the
mesh limit, entirely in rational arithmetic.  Operator-level statements are
checked through the trace of (L - R)(L - R)*, which vanishes iff L = R
because the state is faithful; that expansion is the only bridge between
operator identities and computable numbers used here.

Finite-level inversions run over the full partition lattice: crossing
patterns contribute at any finite subdivision and only die in the limit.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from fractions import Fraction
from functools import lru_cache

from .errors import CrossingPartitionError, DimensionError, SizeGuardError
from .partitions import (
    CACHE_MAXSIZE,
    Frozen,
    Partition,
    classify_classes,
    coarsenings,
    enumerate_noncrossing,
    enumerate_set_partitions,
    first_block_plan,
    first_block_sums,
    is_noncrossing,
    mobius,
    noncrossing_refinements,
    opposite,
    restrict,
)
from .processes import (
    Atom,
    ProcessSpec,
    ScaledCumulants,
    Subdivision,
    make_free_poisson,
    make_semicircular,
    make_tuple,
)
from .rational import format_rational

# Arity guards; no trace depends on N beyond its k + 1 power sums.  An St
# trace of arity k sums over the noncrossing refinements of its pattern, a
# Pr trace over all of NC(k), and a limit product over at most 2^arity sets
# of blocks.  The identity suite covers all of P(k) per k.
MAX_ST_ARITY = 10
MAX_LIMIT_ARITY = 16
MAX_SUITE_K = 6

Factor = tuple[Partition, str]  # kind: "st" | "pr"


Poly = dict[tuple[int, ...], int]  # monomial (sorted c's of prod P[c]) -> B^k * coefficient


class TraceTable:
    """The St/Pr traces of one tuple as polynomials in the power sums.

    At a subdivision with lengths l_i, P[c] = sum_i l_i^c, and each trace is
    the sum over its monomials of coefficient * prod P[c].  The coefficients
    do not depend on the subdivision, so one table serves them all.  It holds
    B^k R_rho for the unit-time R_rho (B the scale of its `cumulants`, so
    these are integers) and every St_p and Pr_p asked for, with integer
    coefficients over B^k; the callers check the guards.  Every entry is
    filled once, from the tuple alone, and stored whole, so a table may serve
    several calls (`_suite_table`).
    """

    def __init__(self, spec: ProcessSpec):
        self.spec = spec
        self.cumulants = ScaledCumulants(spec)
        self._r: dict[Partition, int] = {}  # B^k R_rho
        self._st: dict[Partition, Poly] = {}
        self._pr: dict[Partition, Poly] = {}
        self._nonzero: list[tuple[tuple, int]] | None = None  # (blocks, B^k R_rho), R_rho != 0
        self._inversions: list[tuple[str, str, Poly]] | None = None

    def _cumulant(self, rho: Partition) -> int:
        """B^k R_rho: each of the |rho| block cumulants times B, and B for
        each of the k - |rho| missing factors."""
        if rho not in self._r:
            scaled = self.cumulants
            self._r[rho] = scaled.scale ** (rho.k - rho.num_blocks) * scaled.product(rho.blocks)
        return self._r[rho]

    def st(self, p: Partition) -> Poly:
        """Trace polynomial of St_p: indices distinct across blocks, constant
        on them.

        Only noncrossing refinements of p contribute (a cumulant block
        across two p-blocks meets two disjoint intervals), each weighted by
        the injective interval-product sum.
        """
        if p not in self._st:
            labels = p.rgs()
            poly: Poly = {}
            for rho in noncrossing_refinements(p):
                r = self._cumulant(rho)
                if r == 0:
                    continue
                exps = [0] * p.num_blocks
                for block in rho.blocks:
                    exps[labels[block[0] - 1]] += 1
                for mono, c in _injective_weight(tuple(sorted(exps))).items():
                    poly[mono] = poly.get(mono, 0) + r * c
            self._st[p] = {m: c for m, c in poly.items() if c}
        return self._st[p]

    def pr(self, p: Partition) -> Poly:
        """Trace polynomial of Pr_p: indices merely constant on the blocks of p.

        Free maps factor over the groups into which the blocks of rho
        collapse the blocks of p, each giving the plain power sum of its
        number of rho blocks.  The rho in NC(k) with R_rho != 0 are listed
        once per table; each of their blocks, as the bitmask of the p-labels
        it touches, merges the groups it meets.
        """
        if p not in self._pr:
            if self._nonzero is None:
                self._nonzero = [(rho.blocks, r) for rho in enumerate_noncrossing(self.spec.k)
                              if (r := self._cumulant(rho))]
            bits = [1 << label for label in p.rgs()]
            poly: Poly = {}
            for blocks, r in self._nonzero:
                groups: list[tuple[int, int]] = []  # (mask of p-labels, rho blocks)
                for block in blocks:
                    mask, count, kept = 0, 1, []
                    for el in block:
                        mask |= bits[el - 1]
                    for g in groups:
                        if g[0] & mask:
                            mask, count = mask | g[0], count + g[1]
                        else:
                            kept.append(g)
                    groups = kept + [(mask, count)]
                mono = tuple(sorted(count for _, count in groups))
                poly[mono] = poly.get(mono, 0) + r
            self._pr[p] = {m: c for m, c in poly.items() if c}
        return self._pr[p]

    def inversions(self) -> list[tuple[str, str, Poly]]:
        """(check, text of p, difference) for each p in P(k): the polynomials
        Pr_p - sum of St_sigma ("st_pr_inversion") and St_p - sum of
        mu(p, sigma) Pr_sigma ("mobius_inversion") over sigma >= p, with
        their zero coefficients dropped, so each is empty when its identity
        holds."""
        if self._inversions is None:
            checks = []
            for p in enumerate_set_partitions(self.spec.k):
                via_st, back, text = dict(self.pr(p)), dict(self.st(p)), str(p)
                for s in coarsenings(p):
                    mu = mobius(p, s, "full")
                    for mono, c in self.st(s).items():
                        via_st[mono] = via_st.get(mono, 0) - c
                    for mono, c in self.pr(s).items():
                        back[mono] = back.get(mono, 0) - mu * c
                for check, delta in (("st_pr_inversion", via_st), ("mobius_inversion", back)):
                    checks.append((check, text, {m: c for m, c in delta.items() if c}))
            self._inversions = checks
        return self._inversions

    def at(self, sub: Subdivision) -> tuple[Callable[[Poly], int], int]:
        """Evaluation at one subdivision in integers: (value, D^k), where
        value(poly) is the trace times D^k, D = qB and q the lcm of the
        length denominators.  With a_i = q l_i and a monomial of degree d,
        q^k prod P[c] is the integer q^(k - d) prod sum_i a_i^c.  Each power
        sum and each monomial is computed once."""
        k = self.spec.k
        q = math.lcm(*(l.denominator for l in sub.lengths))
        scaled = [l.numerator * (q // l.denominator) for l in sub.lengths]
        power_sums = [sum(a**c for a in scaled) for c in range(k + 1)]
        monomials: dict[tuple[int, ...], int] = {}

        def value(poly: Poly) -> int:
            total = 0
            for mono, coeff in poly.items():
                if mono not in monomials:
                    monomials[mono] = q ** (k - sum(mono)) * math.prod(power_sums[c] for c in mono)
                total += coeff * monomials[mono]
            return total

        return value, (q * self.cumulants.scale) ** k


@lru_cache(maxsize=CACHE_MAXSIZE)
def _injective_weight(exponents: tuple[int, ...]) -> Poly:
    """Sum over injective maps w of prod_i lengths[w(i)]^e_i, one entry per
    sorted exponent tuple e, shared by every table: it depends on e alone.

    Coincidence inclusion-exclusion one index at a time: the last index
    ranges freely, giving P[e] times the weight of the rest, less each
    coincidence with an index of the rest, where the two exponents merge.
    Unrolled, this is the sum over set partitions gamma of the indices of
    mu(0, gamma) times the merged power sums, without listing the
    P(|exponents|) gammas.
    """
    if not exponents:
        return {(): 1}
    rest, last = exponents[:-1], exponents[-1]
    poly = {tuple(sorted(m + (last,))): c for m, c in _injective_weight(rest).items()}
    for e in sorted(set(rest)):
        i = rest.index(e)
        merged = tuple(sorted(rest[:i] + rest[i + 1:] + (e + last,)))
        for m, c in _injective_weight(merged).items():
            poly[m] = poly.get(m, 0) - rest.count(e) * c
    return {m: c for m, c in poly.items() if c}


def _check_st(p: Partition, spec: ProcessSpec) -> None:
    if p.k != spec.k:
        raise DimensionError(f"partition of [{p.k}] vs {spec.k} components")
    if p.k > MAX_ST_ARITY:
        raise SizeGuardError(f"St arity {p.k} exceeds guard {MAX_ST_ARITY}")


def expect_st(p: Partition, sub: Subdivision, spec: ProcessSpec) -> Fraction:
    """Trace of St_p(X, S), indices distinct across blocks (TraceTable.st)."""
    _check_st(p, spec)
    table = TraceTable(spec)
    value, scale = table.at(sub)
    return Fraction(value(table.st(p)), scale)


def expect_pr(p: Partition, sub: Subdivision, spec: ProcessSpec) -> Fraction:
    """Trace of Pr_p(X, S), indices constant on blocks (TraceTable.pr)."""
    _check_st(p, spec)
    table = TraceTable(spec)
    value, scale = table.at(sub)
    return Fraction(value(table.pr(p)), scale)


def _limit_weight(blocks, table: ScaledCumulants) -> Fraction:
    """The product of the table's cumulants of the blocks (sets of
    components, as in `table.product`), over scale^|blocks|."""
    return Fraction(table.product(blocks), table.scale ** len(blocks))


def limit_expect_st(p: Partition, spec: ProcessSpec, t=1) -> Fraction:
    """Mesh limit of the St_p trace: t^|p| R_p when p is noncrossing, else 0."""
    if p.k != spec.k:
        raise DimensionError(f"partition of [{p.k}] vs {spec.k} components")
    if not is_noncrossing(p):
        return Fraction(0)
    return _limit_weight(p.blocks, ScaledCumulants(spec, t))


def exact_moment(spec: ProcessSpec, t=1) -> Fraction:
    """Trace of the full product X^(1)(t)...X^(k)(t): the limit product of
    one Pr factor on 0-hat, which admits every noncrossing pattern."""
    return limit_product_of_st([(Partition.zero_hat(spec.k), "pr")], spec, t)


# ---------------------------------------------------------------------------
# uniform closed form


def st_uniform_formula(p: Partition, spec: ProcessSpec, t=1) -> list[tuple[int, Fraction]]:
    """St_p trace at the uniform N-subdivision of [0, t), exactly in 1/N: the
    rows (j, coefficient of N^(-j)), nonzero and by increasing j, or the one
    row (0, 0) of a zero trace.  The j = 0 row is the mesh limit.

    The St_p polynomial read at P[c] = t^c N^(1 - c): a monomial of degree
    d in m power sums contributes t^d N^(m - d).  Each coefficient is summed
    in integers over (B t.denominator)^k.
    """
    _check_st(p, spec)
    t = Fraction(t)
    # a finite trace: time enters through the interval lengths, so the table
    # keeps t = 1 and t is read here, in the power sums
    table = TraceTable(spec)
    numerators: dict[int, int] = {}
    for mono, c in table.st(p).items():
        degree = sum(mono)
        j = degree - len(mono)
        term = c * t.numerator**degree * t.denominator ** (spec.k - degree)
        numerators[j] = numerators.get(j, 0) + term
    scale = (table.cumulants.scale * t.denominator) ** spec.k
    return [(j, Fraction(n, scale)) for j, n in sorted(numerators.items()) if n] or [(0, Fraction(0))]


# ---------------------------------------------------------------------------
# products of St/Pr factors


def _check_factors(factors, k: int) -> None:
    """The guards of a limit product, in order: the factor kinds, the total
    arity against the k components, the total arity against the cap."""
    if any(kind not in ("st", "pr") for _, kind in factors):
        raise ValueError("factor kind must be 'st' or 'pr'")
    arity = sum(p.k for p, _ in factors)
    if arity != k:
        raise DimensionError(f"factors cover [{arity}] vs {k} components")
    if arity > MAX_LIMIT_ARITY:
        raise SizeGuardError(f"total arity {arity} exceeds guard {MAX_LIMIT_ARITY}")


def _check_k_max(k_max) -> None:
    """The guard every suite runs first: k_max is an int, not a bool, >= 1."""
    if type(k_max) is not int or k_max < 1:
        raise ValueError(f"a suite needs an integer k_max >= 1, got {k_max!r}")


def _check_sweep(k_max: int, orders) -> None:
    """The guards of a residual sweep over k <= k_max, run before any work: L2
    at k takes limit products of arity 2k, L1 St limits of arity k."""
    _check_k_max(k_max)
    if "L2" in orders and k_max > MAX_LIMIT_ARITY // 2:
        raise SizeGuardError(f"L2 at k={k_max} needs arity {2 * k_max} > {MAX_LIMIT_ARITY}")
    if k_max > MAX_ST_ARITY:
        raise SizeGuardError(f"L1 at k={k_max} exceeds St arity guard {MAX_ST_ARITY}")


def limit_product_of_st(factors, spec: ProcessSpec, t=1) -> Fraction:
    """Mesh limit of the product trace at time t: the sum of t^|sigma| R_sigma
    over the noncrossing coincidence patterns sigma that the factors admit.

    The patterns are never listed.  The first-block plan of the layout runs
    over sets of blocks of the concatenated pattern (units), as bitmasks: a
    block of sigma is a union of them that keeps apart the units of one
    group and weighs the time-t cumulant of its word.  The units,
    their groups and their components are read off the factors at a running
    offset, once per factor tuple (`_layout`): a whole St factor is one
    group, since St pins its within-factor pattern exactly, and each block
    of a Pr factor its own, since Pr only bounds it below.

    Time enters through the table alone: `ScaledCumulants(spec, t)` holds
    the integers D t R, D its scale.  The sums run in integers
    (`_limit_sum`): a block of n units weighs D^n t R, and one Fraction
    N / D^m is formed at the end of a sum over m units.
    """
    _check_factors(factors, spec.k)
    table = ScaledCumulants(spec, t)
    total, n = _limit_sum(tuple(factors), (), table.parts, table)
    return Fraction(total, table.scale ** n)


@lru_cache(maxsize=CACHE_MAXSIZE)
def _layout(factors: tuple[Factor, ...], adjoint: tuple[Factor, ...]):
    """(bits, tags, 0-based components) of the units of the factors followed
    by the adjoint's: those factors reversed, each pattern opposite."""
    bits, tags, units = [], [], []
    offset = group = 0
    for p, kind in factors + tuple((opposite(p), kind) for p, kind in reversed(adjoint)):
        for j, block in enumerate(p.blocks):
            units.append(tuple(offset + el - 1 for el in block))
            bits.append(sum(1 << (offset + el) for el in block))
            tags.append(group if kind == "st" else group + j)
        offset += p.k
        group += 1 if kind == "st" else p.num_blocks
    return tuple(bits), tuple(tags), tuple(units)


def _limit_sum(factors, adjoint, parts, table: ScaledCumulants) -> tuple[int, int]:
    """limit_product_of_st of the factors and the adjoint's (`_layout`), guards
    passed, on components with these parts, as (N, n): the product is N / D^n
    over the n units, D the table's scale; the empty product is (1, 0)."""
    bits, tags, units = _layout(factors, adjoint)
    if not bits:
        return 1, 0
    n, scale = len(bits), table.scale
    weights, merge, value = [0] * (1 << n), table.merge, table.value
    merged = {1 << i: merge([parts[c] for c in unit]) for i, unit in enumerate(units)}
    powers = [scale**m for m in range(n)]  # t R D^m = (D t R) powers[m - 1]
    blocks, sets = first_block_plan(bits, tags)
    for v in blocks:  # each after itself less its top unit
        top = 1 << (v.bit_length() - 1)
        if v != top:
            merged[v] = merge((merged[v ^ top], merged[top]))
        if w := value(merged[v]):
            weights[v] = w * powers[v.bit_count() - 1]
    sums: dict[int, int] = {}
    for s, total in first_block_sums(sets, weights, sums):
        sums[s] = total
    return sums[(1 << n) - 1], n


# ---------------------------------------------------------------------------
# operator words and second-order (L2) residuals


class MeasureWord(Frozen):
    """A scalar multiple of a product of St/Pr factors on given words."""

    __slots__ = ("scalar", "factors", "words")

    def __init__(self, scalar: Fraction, factors: tuple[Factor, ...],
                 words: tuple[tuple[Atom, ...], ...]):
        object.__setattr__(self, "scalar", scalar)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "words", words)


def l2_residual(a: MeasureWord, b: MeasureWord, t=1) -> Fraction:
    """Trace of (A - B)(A - B)*; zero iff A = B by faithfulness.

    Every trace here is a real rational and tau(X*) is the conjugate of
    tau(X), so tau(B A*) = tau(A B*): three pair traces, not four, on one
    cumulant table.  Sides that share their factors and parts need one:
    A - B = (a - b) W, so the residual is (a - b)^2 tau(W W*).  The traces
    with nonzero scalars are summed in integers over one denominator.
    """
    table = ScaledCumulants(ProcessSpec(a.words + b.words), t)
    return _l2(a, b, table, table.parts[:len(a.words)], table.parts[len(a.words):])


def _l2(a: MeasureWord, b: MeasureWord, table: ScaledCumulants, pa, pb) -> Fraction:
    """l2_residual on a table that holds both words' atoms; pa, pb: their
    parts, reversed for the adjoints.  With scalars u / (d_a d_b) and
    v / (d_a d_b), the traces carry u^2, -2uv and v^2 over (d_a d_b)^2."""
    sa, sb = a.scalar, b.scalar
    u, v = sa.numerator * sb.denominator, sb.numerator * sa.denominator
    pairs = ((u * u, a, a, pa, pa), (-2 * u * v, a, b, pa, pb), (v * v, b, b, pb, pb))
    if a.factors == b.factors and pa == pb:  # three equal traces
        pairs = (((u - v) ** 2, a, a, pa, pa),)
    den = (sa.denominator * sb.denominator) ** 2
    scale, total, power = table.scale, 0, 0  # the sum is total / (den D^power)
    for c, x, y, px, py in pairs:  # the guards of x y*: y* has y's kinds and arities
        _check_factors(x.factors + y.factors, len(px) + len(py))
        if not c:
            continue
        num, n = _limit_sum(x.factors, y.factors, px + py[::-1], table)
        if n > power:
            total, power = total * scale ** (n - power), n
        total += c * num * scale ** (power - n)
    return Fraction(total, den * scale**power)


def _residuals(p: Partition, spec: ProcessSpec, sides, orders,
               table: ScaledCumulants) -> list[Fraction]:
    """The residual for each order asked for of the St_p word L against the
    right side R = sides(p, spec, table), once p is checked noncrossing and
    then against the tuple's size.  The table, over the tuple's atoms at the
    time of the residual, serves all of them: L's parts are its own and R's
    are read once.  L1 compares t^|p| R_p with R's scalar times the closed
    form of its one St factor, if any; L2 expands (L - R)(L - R)*.
    """
    if not is_noncrossing(p):
        raise CrossingPartitionError(f"{p} is crossing")
    if p.k != spec.k:
        raise DimensionError(f"partition of [{p.k}] vs {spec.k} components")
    rhs = sides(p, spec, table)
    lhs = MeasureWord(Fraction(1), ((p, "st"),), spec.words)
    rhs_parts = [table.part(w) for w in rhs.words]
    q_blocks = rhs.factors[0][0].blocks if rhs.factors else ()
    residual = {"L1": lambda: _l1(p.blocks, rhs.scalar, q_blocks, rhs_parts, table),
                "L2": lambda: _l2(lhs, rhs, table, table.parts, rhs_parts)}
    for order in orders:
        if order not in residual:
            raise ValueError(f"unknown order {order!r}")
    return [residual[order]() for order in orders]


def _l1(p_blocks, s, q_blocks, q_parts, table: ScaledCumulants) -> Fraction:
    """t^|p| R_p less s t^|q| R_q, q over q_parts, as one integer difference:
    t^m R is the table's product over D^m, D its scale."""
    d, m, n = table.scale, len(p_blocks), len(q_blocks)
    left = s.denominator * table.product(p_blocks) * d ** max(n - m, 0)
    right = s.numerator * table.product(q_blocks, q_parts) * d ** max(m - n, 0)
    return Fraction(left - right, s.denominator * d ** max(m, n))


def _main_theorem_sides(p: Partition, spec: ProcessSpec, table: ScaledCumulants):
    split = classify_classes(p)
    scalar = _limit_weight(split.inner, table)
    derived_words = tuple(spec.subset_word(b) for b in split.outer)
    return MeasureWord(scalar, ((Partition.zero_hat(len(split.outer)), "st"),), derived_words)


def main_theorem_residual(p: Partition, spec: ProcessSpec, order: str = "L1", t=1) -> Fraction:
    """Residual of St_p against the inner-scalar times off-diagonal form."""
    return _residuals(p, spec, _main_theorem_sides, (order,), ScaledCumulants(spec, t))[0]


@lru_cache(maxsize=CACHE_MAXSIZE)
def _outer_pattern(p: Partition) -> tuple[tuple[int, ...], Partition]:
    """The points of a noncrossing p's outer blocks, and p restricted to them."""
    support = tuple(sorted(el for b in classify_classes(p).outer for el in b))
    return support, restrict(p, support)


def _inner_peeling_sides(p: Partition, spec: ProcessSpec, table: ScaledCumulants):
    support, outer = _outer_pattern(p)
    scalar = _limit_weight(classify_classes(p).inner, table)
    return MeasureWord(scalar, ((outer, "st"),), tuple(spec.words[i - 1] for i in support))


def inner_peeling_residual(p: Partition, spec: ProcessSpec, order: str = "L1", t=1) -> Fraction:
    """Residual of St_p against peeling all inner classes off as scalars,
    keeping St of the outer blocks on their own positions."""
    return _residuals(p, spec, _inner_peeling_sides, (order,), ScaledCumulants(spec, t))[0]


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
    t = Fraction(t)
    split = classify_classes(p)  # refuses a crossing p first
    if which == "free_poisson":
        spec = make_tuple(make_free_poisson(1), "identical", k=p.k)
        o = len(split.outer)
        rhs = MeasureWord(t**len(split.inner), ((Partition.zero_hat(o), "st"),),
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
            factors = ((Partition.zero_hat(singles), "st"),) if singles else ()
            rhs = MeasureWord(t**pairs, factors, (spec.words[0],) * singles)
    else:
        raise ValueError(f"unknown example {which!r}")
    return tuple(_residuals(p, spec, lambda *_: rhs, ("L1", "L2"), ScaledCumulants(spec, t)))


SUBDIVISION_BATTERY = (
    Subdivision.uniform(1),
    Subdivision.uniform(2),
    Subdivision.uniform(3),
    Subdivision.uniform(5),
    Subdivision.of((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))),
    Subdivision.of((Fraction(1, 7), Fraction(2, 7), Fraction(4, 7))),
    Subdivision.of((Fraction(1, 2), Fraction(3, 2))),
)


def _record(check: str, partition, process: str, subdivision: str, residual) -> dict:
    return {
        "check": check,
        "partition": str(partition),
        "process": process,
        "subdivision": subdivision,
        "residual": format_rational(residual),
        "pass": residual == 0,
    }


@lru_cache(maxsize=4 * MAX_SUITE_K)
def _suite_table(spec: ProcessSpec) -> TraceTable:
    """The identity suite's TraceTable of a tuple, kept across calls: its
    polynomials and inversions depend on the tuple alone.  The bound holds
    k = 1..MAX_SUITE_K for four bases, or the 12 tables of three suites to
    k_max = 4.  No other caller reads it, so one-off tables cannot evict it."""
    return TraceTable(spec)


def identity_suite(base: ProcessSpec, k_max: int, battery=SUBDIVISION_BATTERY,
                   process_name: str = "process") -> list[dict]:
    """Run the exact identity battery for identical copies of one process;
    every residual must be 0.

    The St/Pr inversions over the full lattice are checked on the trace
    polynomials Pr_p - sum of St_sigma and St_p - sum of mu(p, sigma) Pr_sigma
    over sigma >= p (`TraceTable.inversions`): evaluation is linear, so a
    record's residual is their value at its subdivision, 0 when one is empty.
    These (St refinement sums against the rho-outer Pr pass) and the L2
    inner-peeling residuals compare independent computations; the suite has
    no L1 record, since an L1 residual regroups one `ScaledCumulants`
    product and holds by the representation.  The tables come from
    `_suite_table`, so repeated suites on one base reuse them; the records
    and limit residuals are computed on every call.
    """
    if base.k != 1:
        raise DimensionError("identity_suite takes a single-component process")
    _check_k_max(k_max)
    if k_max > MAX_SUITE_K:
        raise SizeGuardError(f"identity suite capped at k_max = {MAX_SUITE_K}")
    records, wheres = [], [sub.describe() for sub in battery]
    for k in range(1, k_max + 1):
        spec = make_tuple(base, "identical", k=k)
        table = _suite_table(spec)
        checks = table.inversions()
        evaluate = any(delta for _, _, delta in checks)  # else every residual is 0
        for sub, where in zip(battery, wheres):
            value, scale = table.at(sub) if evaluate else (None, None)
            for check, text, delta in checks:
                residual = Fraction(value(delta), scale) if delta else 0
                records.append(_record(check, text, process_name, where, residual))
        scaled = table.cumulants
        for p in enumerate_noncrossing(k):
            (l2,) = _residuals(p, spec, _inner_peeling_sides, ("L2",), scaled)
            records.append(_record("inner_peeling_l2", p, process_name, "limit", l2))
    return records


def main_theorem_suite(base: ProcessSpec, k_max: int, orders=("L1", "L2"), t=1,
                       process_name: str = "process") -> list[dict]:
    """The main-theorem residual records, in the orders asked for, of every
    noncrossing p of k <= k_max identical copies of one process at time t:
    one cumulant table per k serves all of its p."""
    _check_sweep(k_max, orders)
    where, records = f"limit,t={format_rational(Fraction(t))}", []
    for k in range(1, k_max + 1):
        spec = make_tuple(base, "identical", k=k)
        table = ScaledCumulants(spec, t)
        for p in enumerate_noncrossing(k):
            residuals = _residuals(p, spec, _main_theorem_sides, orders, table)
            records += [_record(f"main_theorem_{order.lower()}", p, process_name, where, res)
                        for order, res in zip(orders, residuals)]
    return records


def examples_suite(which: str, k_max: int, t=1) -> list[dict]:
    """The (L1, L2) records of `example_formulas_check` on every noncrossing
    p of k <= k_max."""
    _check_sweep(k_max, ("L1", "L2"))
    where, records = f"limit,t={format_rational(Fraction(t))}", []
    for k in range(1, k_max + 1):
        for p in enumerate_noncrossing(k):
            l1, l2 = example_formulas_check(which, p, t)
            record = _record(f"example_{which}", p, which, where, l1)
            passed = record.pop("pass") and l2 == 0  # "pass" stays the last key
            records.append({**record, "residual_l2": format_rational(l2), "pass": passed})
    return records
