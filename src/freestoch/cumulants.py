"""Joint moments, joint free cumulants, and the transforms between them.

Functionals are indexed by the nonempty increasing subsets of [k]; the
value on a partition is the product of the values on its blocks.  Moments
determine cumulants (and back) through sums over the noncrossing lattice,
which the first-block recursion evaluates for every subset at once without
listing the lattice.  Everything is exact rational arithmetic.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import SizeGuardError
from .partitions import Frozen, first_block_sum
from .rational import format_rational, parse_rational

Subset = tuple[int, ...]

# Largest k the transforms take: the recursion visits about 3^k / 2
# (subset, first block) pairs, under 3 s at k = 12.
MAX_TRANSFORM_ORDER = 12


def nonempty_subsets(k: int) -> list[Subset]:
    out = []
    for r in range(1, k + 1):
        out.extend(itertools.combinations(range(1, k + 1), r))
    return out


def _check_values(k: int, values: dict) -> None:
    if k < 1 or (len(values) + 1).bit_length() != k + 1:  # before building 2^k subsets
        raise ValueError(f"functional on [{k}] needs 2^{k} - 1 values, got {len(values)}")
    need = set(nonempty_subsets(k))
    have = set(values)
    if have != need:
        missing = sorted(need - have)
        extra = sorted(have - need)
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
        return cls(k, {b: seq[len(b) - 1] for b in nonempty_subsets(k)})


class MomentFunctional(_SubsetFunctional):
    """Joint moments M(B; A) of a k-tuple."""

    __slots__ = ()


class CumulantFunctional(_SubsetFunctional):
    """Joint free cumulants R(B; A) of a k-tuple."""

    __slots__ = ()


def _mask(subset: Subset) -> int:
    return sum(1 << (i - 1) for i in subset)


def _masked(f: _SubsetFunctional) -> tuple[list[int], dict[int, Fraction]]:
    """The point bitmasks of [k] and the values of f keyed by subset bitmask,
    smallest subsets first."""
    if f.k > MAX_TRANSFORM_ORDER:
        raise SizeGuardError(f"transform order {f.k} exceeds guard {MAX_TRANSFORM_ORDER}")
    return [1 << i for i in range(f.k)], {_mask(b): f.values[b] for b in nonempty_subsets(f.k)}


def _unmasked(k: int, table: dict[int, Fraction]) -> dict[Subset, Fraction]:
    return {b: table[_mask(b)] for b in nonempty_subsets(k)}


def moment_functional(r: CumulantFunctional) -> MomentFunctional:
    """The full moment functional of r: on each subset S, the sum of r(V)
    times the moments of the gaps, over the first blocks V of S."""
    bits, cumulants = _masked(r)
    moments: dict[int, Fraction] = {}
    for s in cumulants:
        moments[s] = Fraction(first_block_sum(s, bits, cumulants.__getitem__,
                                              moments.__getitem__))
    return MomentFunctional(r.k, _unmasked(r.k, moments))


def cumulant_functional(m: MomentFunctional) -> CumulantFunctional:
    """The full cumulant functional of m; inverse of moment_functional.

    Solves the moment recursion for its V = S term: the cumulant of S is
    its moment minus the first-block sum over the proper V.
    """
    bits, moments = _masked(m)
    cumulants: dict[int, Fraction] = {}
    for s in moments:
        cumulants[s] = Fraction(0)  # drops the V = S term from the sum
        cumulants[s] = Fraction(moments[s] - first_block_sum(s, bits, cumulants.__getitem__,
                                                             moments.__getitem__))
    return CumulantFunctional(m.k, _unmasked(m.k, cumulants))


# ---------------------------------------------------------------------------
# JSON wire format: {"k": 3, "values": {"1,3": "1/2", ...}}


def functional_to_json(f) -> dict:
    return {
        "k": f.k,
        "values": {
            ",".join(map(str, b)): format_rational(v) for b, v in sorted(f.values.items())
        },
    }


def _values_from_json(obj) -> tuple[int, dict]:
    if not (isinstance(obj, dict) and isinstance(obj.get("k"), int)
            and isinstance(obj.get("values"), dict)):
        raise ValueError('a functional is a JSON object {"k": <int>, "values": {...}}')
    k = obj["k"]
    values = {
        tuple(int(x) for x in key.split(",")): parse_rational(val)
        for key, val in obj["values"].items()
    }
    return k, values


def moment_functional_from_json(obj: dict) -> MomentFunctional:
    return MomentFunctional(*_values_from_json(obj))


def cumulant_functional_from_json(obj: dict) -> CumulantFunctional:
    return CumulantFunctional(*_values_from_json(obj))
