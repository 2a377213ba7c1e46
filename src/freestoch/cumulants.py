"""Joint moments, joint free cumulants, and the transforms between them.

Functionals are indexed by the nonempty increasing subsets of [k]; the
value on a partition is the product of the values on its blocks.  Moments
determine cumulants (and back) through sums over the noncrossing lattice,
which the first-block recursion evaluates for every subset at once without
listing the lattice.  The sums are exact, in integers over powers of the
denominators' lcm (in Fractions when it is too wide), and return Fractions.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .errors import SizeGuardError
from .partitions import Frozen, first_block_plan, first_block_sums
from .rational import format_rational, parse_rational

Subset = tuple[int, ...]

# Largest k the transforms take: a plan holds (3^k - 1) / 2 first blocks, so at k = 12 it
# is streamed, and a transform takes 0.08-0.11 s in scaled integers, first call or repeat,
# and 3.0-3.6 s in Fractions (4095 distinct prime denominators; 2-core Xeon, Python 3.11.7).
MAX_TRANSFORM_ORDER = 12
# Widest k * bit_length(D) summed in scaled integers, D the denominators'
# lcm: integers won at every measured width to 5.5 kbit, Fractions from 7.
MAX_SCALED_BITS = 4000


def nonempty_subsets(k: int) -> list[Subset]:
    out = []
    for r in range(1, k + 1):
        out.extend(itertools.combinations(range(1, k + 1), r))
    return out


@lru_cache(maxsize=MAX_TRANSFORM_ORDER)
def _subset_table(k: int) -> tuple[tuple[tuple[Subset, int, int], ...], frozenset[Subset]]:
    """Rows (subset, bitmask, size) in nonempty_subsets order, and the set of the subsets."""
    rows = tuple((b, sum(1 << (i - 1) for i in b), len(b)) for b in nonempty_subsets(k))
    return rows, frozenset(b for b, _, _ in rows)


def _check_values(k: int, values: dict) -> None:
    if k < 1 or (len(values) + 1).bit_length() != k + 1:  # before building 2^k subsets
        raise ValueError(f"functional on [{k}] needs 2^{k} - 1 values, got {len(values)}")
    need = _subset_table(k)[1]
    if values.keys() != need:
        missing = sorted(need - values.keys())
        extra = sorted(values.keys() - need)
        raise ValueError(f"functional must cover all nonempty subsets of [{k}]; "
                         f"missing {missing[:3]}..., extra {extra[:3]}...")


class _SubsetFunctional(Frozen):
    """One value per nonempty subset of [k]; a partition gets the product
    of the values on its blocks."""

    __slots__ = ("k", "values")

    def __init__(self, k: int, values: dict[Subset, Fraction]):
        _check_values(k, values)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_single_variable(cls, k: int, seq):
        """All components equal; the value depends only on the subset size."""
        seq = [Fraction(x) for x in seq]
        if len(seq) < k:
            raise ValueError(f"need {k} orders, got {len(seq)}")
        return cls(k, {b: seq[size - 1] for b, _, size in _subset_table(k)[0]})

    @classmethod
    def from_json(cls, obj):
        """Read the wire format that functional_to_json writes (see below)."""
        if not (isinstance(obj, dict) and type(obj.get("k")) is int
                and isinstance(obj.get("values"), dict)):
            raise ValueError('a functional is a JSON object {"k": <int>, "values": {...}}')
        values = {}
        for key, val in obj["values"].items():
            subset = tuple(int(x) for x in key.split(","))
            if subset in values:  # "01,2" names the subset of "1,2"
                raise ValueError(f"functional names subset {','.join(map(str, subset))} twice")
            values[subset] = parse_rational(val)
        return cls(obj["k"], values)


class MomentFunctional(_SubsetFunctional):
    """Joint moments M(B; A) of a k-tuple."""

    __slots__ = ()


class CumulantFunctional(_SubsetFunctional):
    """Joint free cumulants R(B; A) of a k-tuple."""

    __slots__ = ()


def _scaled(f: _SubsetFunctional) -> tuple[dict[int, int], list[int]]:
    """The values of f times D^|S| keyed by subset bitmask S, and the powers
    of D: integers, for D the lcm of f's denominators, on which a transform's
    products over disjoint subsets run unchanged.  Past MAX_SCALED_BITS D is
    1: the same Fractions."""
    if f.k > MAX_TRANSFORM_ORDER:
        raise SizeGuardError(f"transform order {f.k} exceeds guard {MAX_TRANSFORM_ORDER}")
    rows, values, d = _subset_table(f.k)[0], f.values, 1
    for b, _, _ in rows:  # by size: the lcm grows only on a new denominator
        if d % (q := values[b].denominator):
            d = math.lcm(d, q)
            if f.k * d.bit_length() > MAX_SCALED_BITS:  # wide: stop before the whole lcm
                return {mask: values[b] for b, mask, _ in rows}, [1] * (f.k + 1)
    powers = [d**n for n in range(f.k + 1)]
    return {mask: (v := values[b]).numerator * (powers[size] // v.denominator)
            for b, mask, size in rows}, powers


def _unscaled(k: int, table: dict[int, int], powers: list[int]) -> dict[Subset, Fraction]:
    """Each integer sum over its power of D; a sum of Fractions as it is."""
    return {b: x if type(x := table[mask]) is Fraction else Fraction(x, powers[size])
            for b, mask, size in _subset_table(k)[0]}


def _plan(k: int):
    """The first-block sets of k points: every nonempty subset."""
    return first_block_plan(tuple(1 << i for i in range(k)), tuple(range(k)), every=True)[1]


def moment_functional(r: CumulantFunctional) -> MomentFunctional:
    """The full moment functional of r: on each subset S, the sum of r(V)
    times the moments of the gaps, over the first blocks V of S."""
    cumulants, powers = _scaled(r)
    moments: dict[int, int] = {}
    for s, total in first_block_sums(_plan(r.k), cumulants, moments):
        moments[s] = total
    return MomentFunctional(r.k, _unscaled(r.k, moments, powers))


def cumulant_functional(m: MomentFunctional) -> CumulantFunctional:
    """The full cumulant functional of m, inverse of moment_functional: the
    cumulant of S is its moment less the first-block sum, in which it reads 0."""
    moments, powers = _scaled(m)
    cumulants = dict.fromkeys(moments, 0)
    for s, total in first_block_sums(_plan(m.k), cumulants, moments):
        cumulants[s] = moments[s] - total
    return CumulantFunctional(m.k, _unscaled(m.k, cumulants, powers))


# ---------------------------------------------------------------------------
# JSON wire format: {"k": 3, "values": {"1,3": "1/2", ...}}


def functional_to_json(f) -> dict:
    return {
        "k": f.k,
        "values": {
            ",".join(map(str, b)): format_rational(v) for b, v in sorted(f.values.items())
        },
    }
