"""Joint moments, joint free cumulants, and the transforms between them.

Functionals are indexed by the nonempty increasing subsets of [k]; the
value on a partition is the product of the values on its blocks.  Moments
determine cumulants (and back) through sums over the noncrossing lattice,
with the noncrossing Mobius function supplying the inversion.  Everything
is exact rational arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionError
from .partitions import Partition, enumerate_noncrossing, mobius, refines
from .rational import format_rational, parse_rational

Subset = tuple[int, ...]


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


def _subset_word(base: Subset, inner: Subset) -> Subset:
    """Re-index a block of [len(base)] through the subset base."""
    return tuple(base[i - 1] for i in inner)


@dataclass(frozen=True)
class _SubsetFunctional:
    """One value per nonempty subset of [k]; a partition gets the product
    of the values on its blocks."""

    k: int
    values: dict[Subset, Fraction]

    def __post_init__(self):
        _check_values(self.k, self.values)

    @classmethod
    def from_single_variable(cls, k: int, seq):
        """All components equal; the value depends only on the subset size."""
        seq = [Fraction(x) for x in seq]
        if len(seq) < k:
            raise ValueError(f"need {k} orders, got {len(seq)}")
        return cls(k, {b: seq[len(b) - 1] for b in nonempty_subsets(k)})

    def on_partition(self, p: Partition) -> Fraction:
        out = Fraction(1)
        for block in p.blocks:
            out *= self.values[block]
        return out


@dataclass(frozen=True)
class MomentFunctional(_SubsetFunctional):
    """Joint moments M(B; A) of a k-tuple."""


@dataclass(frozen=True)
class CumulantFunctional(_SubsetFunctional):
    """Joint free cumulants R(B; A), with optional freeness and norm data.

    `freeness` partitions the component indices into freely independent
    families; `norms` are per-component norm bounds used only by the
    16^k bound check.
    """

    freeness: Partition | None = None
    norms: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.freeness is not None and self.freeness.k != self.k:
            raise DimensionError("freeness partition arity mismatch")
        if self.norms is not None and len(self.norms) != self.k:
            raise DimensionError("need one norm per component")


def moments_from_cumulants(r: CumulantFunctional, p: Partition | None = None) -> Fraction:
    """M_p = sum of R_sigma over noncrossing sigma refining p (p = None: full moment)."""
    if p is None:
        p = Partition.one_hat(r.k)
    if p.k != r.k:
        raise DimensionError(f"partition of [{p.k}] vs functional arity {r.k}")
    total = Fraction(0)
    for sigma in enumerate_noncrossing(r.k):
        if refines(sigma, p):
            total += r.on_partition(sigma)
    return total


def cumulants_from_moments(m: MomentFunctional, p: Partition | None = None) -> Fraction:
    """R_p by Mobius inversion over the noncrossing partitions below p."""
    if p is None:
        p = Partition.one_hat(m.k)
    if p.k != m.k:
        raise DimensionError(f"partition of [{p.k}] vs functional arity {m.k}")
    total = Fraction(0)
    for sigma in enumerate_noncrossing(m.k):
        if refines(sigma, p):
            total += mobius(sigma, p, "noncrossing") * m.on_partition(sigma)
    return total


def _transform_subsetwise(k: int, convert) -> dict:
    return {b: convert(b) for b in nonempty_subsets(k)}


def moment_functional(r: CumulantFunctional) -> MomentFunctional:
    """The full moment functional of r, one noncrossing sum per subset."""

    def convert(b: Subset) -> Fraction:
        total = Fraction(0)
        for sigma in enumerate_noncrossing(len(b)):
            term = Fraction(1)
            for block in sigma.blocks:
                term *= r.values[_subset_word(b, block)]
            total += term
        return total

    return MomentFunctional(r.k, _transform_subsetwise(r.k, convert))


def cumulant_functional(m: MomentFunctional) -> CumulantFunctional:
    """The full cumulant functional of m; inverse of moment_functional."""

    # mu(sigma, 1-hat) depends on sigma alone: one list per subset size
    weighted = {n: [(sigma, mobius(sigma, Partition.one_hat(n), "noncrossing"))
                    for sigma in enumerate_noncrossing(n)] for n in range(1, m.k + 1)}

    def convert(b: Subset) -> Fraction:
        total = Fraction(0)
        for sigma, term in weighted[len(b)]:
            for block in sigma.blocks:
                term *= m.values[_subset_word(b, block)]
            total += term
        return total

    return CumulantFunctional(m.k, _transform_subsetwise(m.k, convert))


def mixed_cumulant_vanishing_check(r: CumulantFunctional) -> bool:
    """True iff R vanishes on every subset meeting two free families.

    Vacuously true when no freeness structure is declared.
    """
    if r.freeness is None:
        return True
    labels = r.freeness.rgs()
    for b, value in r.values.items():
        families = {labels[i - 1] for i in b}
        if len(families) > 1 and value != 0:
            return False
    return True


def norm_bound_ok(r: CumulantFunctional) -> bool:
    """Check |R(B)| <= 16^|B| * prod of declared component norms."""
    if r.norms is None:
        return True
    for b, value in r.values.items():
        bound = Fraction(16) ** len(b)
        for i in b:
            bound *= abs(r.norms[i - 1])
        if abs(value) > bound:
            return False
    return True


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
