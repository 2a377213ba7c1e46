"""Set partitions of [k] and their lattice structure.

Covers enumeration of the full and noncrossing lattices, the refinement
order, Kreweras complements, inner/outer classification, noncrossing
refinements and coarsenings, and the Mobius function of both lattices.

Partitions are kept in canonical block form (each block sorted, blocks
ordered by their minima), so values are hashable, comparable, and the
enumeration order is reproducible.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from functools import lru_cache

from .errors import CrossingPartitionError, DimensionError, SizeGuardError

# Enumeration guards.
MAX_FULL_ENUMERATION = 10
MAX_NONCROSSING_ENUMERATION = 12

# Bound of every per-partition lru_cache below, far above the few thousand
# entries a long exact session keeps live.
CACHE_MAXSIZE = 1 << 14

Block = tuple[int, ...]

_set = object.__setattr__


class Frozen:
    """Base of the exact layers' value classes: __init__ sets each field
    once through object.__setattr__; assigning or deleting one raises.
    The fields are the __slots__ of the class and its bases.  Values of one
    class are equal when their fields are, and hash by their field tuple."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for c in reversed(cls.__mro__)
                            for name in c.__dict__.get("__slots__", ()))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        for name in self._fields:
            if getattr(self, name) != getattr(other, name):
                return False
        return True

    def __hash__(self):
        return hash(tuple(getattr(self, name) for name in self._fields))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __setstate__(self, state):  # copy and pickle pass (None, {field: value})
        for name, value in state[1].items():
            _set(self, name, value)


class Partition(Frozen):
    """A set partition of [k] in canonical block form; equal by (k, blocks),
    hashed by the blocks, which determine k."""

    __slots__ = ("k", "blocks")

    def __init__(self, k: int, blocks: tuple[Block, ...]):
        if k < 1:
            raise ValueError("ground set must be nonempty")
        seen = []
        for block in blocks:
            if not block:
                raise ValueError("empty block")
            if list(block) != sorted(block):
                raise ValueError("block not internally sorted")
            seen.extend(block)
        if len(seen) != k or sorted(seen) != list(range(1, k + 1)):
            raise ValueError(f"blocks do not partition [{k}]")
        mins = [b[0] for b in blocks]
        if mins != sorted(mins):
            raise ValueError("blocks not ordered by minimum")
        _set(self, "k", k)
        _set(self, "blocks", blocks)

    def __hash__(self):  # the blocks fix k; no field tuple on ~900 hashes per exact-warm pass
        return hash(self.blocks)

    def __repr__(self):
        return f"Partition({self.k}, {self.blocks})"

    @classmethod
    def of(cls, blocks, k: int | None = None) -> "Partition":
        """Build from any iterable of iterables, canonicalizing order."""
        blks = sorted((tuple(sorted(b)) for b in blocks if b), key=lambda b: b[0])
        if k is None:
            k = max((b[-1] for b in blks), default=0)
        return cls(k, tuple(blks))

    @classmethod
    def _trusted(cls, k: int, blocks: tuple[Block, ...]) -> "Partition":
        """Skip the block checks: only for blocks built in canonical form."""
        if k < 1:
            raise ValueError("ground set must be nonempty")
        p = object.__new__(cls)
        _set(p, "k", k)
        _set(p, "blocks", blocks)
        return p

    @classmethod
    def zero_hat(cls, k: int) -> "Partition":
        return cls._trusted(k, tuple((i,) for i in range(1, k + 1)))

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse the text syntax "((1,6,7)(2,5)(3))"; whitespace ignored."""
        compact = re.sub(r"\s+", "", text)
        if not re.fullmatch(r"\((\(\d+(,\d+)*\))+\)", compact):
            raise ValueError(f"bad partition syntax: {text!r}")
        blocks = [
            tuple(int(x) for x in grp.split(","))
            for grp in re.findall(r"\(([\d,]+)\)", compact[1:-1])
        ]
        return cls.of(blocks)

    def __str__(self) -> str:
        return "(" + "".join(map(block_text, self.blocks)) + ")"

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def rgs(self) -> tuple[int, ...]:
        """Restricted-growth string; canonical block order makes it valid."""
        labels = [0] * self.k
        for idx, block in enumerate(self.blocks):
            for el in block:
                labels[el - 1] = idx
        return tuple(labels)


@lru_cache(maxsize=CACHE_MAXSIZE)
def block_text(block: Block) -> str:
    """A block as text, "(1,6,7)"; P(k <= 10) has at most 1023 distinct blocks."""
    return "(" + ",".join(map(str, block)) + ")"


# ---------------------------------------------------------------------------
# enumeration


def _extended(k: int, noncrossing: bool, labels=None) -> tuple[Partition, ...]:
    """P(k), NC(k) or, given the labels of p, the members of NC(k) below p,
    all by one-point extension in restricted-growth order.

    Each block list of [j - 1] lets point j join, in block order, each block
    that may take it, and then open its own; appending the possible last
    labels in ascending order keeps restricted-growth order.  In P(k) every
    block may take j.  In NC(k) only a chain may: the block of j - 1, the
    block of the point just below that block's minimum, and so on down; any
    other block has a later one straddling its last point (Nica-Speicher,
    Lectures on the Combinatorics of Free Probability, Lectures 9-10).  The
    chain is kept in block order beside each block list: joining its c-th
    block closes the blocks after it, and a new block goes on its end.  With
    labels, j joins only the chain blocks of its own label.
    """
    level, chains = [()], [()]  # the chains stay empty for P(k)
    for j in range(1, k + 1):
        label = None if labels is None else labels[j - 1]
        grown, grown_chains = [], []
        for blocks, chain in zip(level, chains):
            n = len(blocks)
            for c, i in enumerate(chain if noncrossing else range(n)):
                block = blocks[i]
                if label is None or labels[block[0] - 1] == label:
                    grown.append(blocks[:i] + (block + (j,),) + blocks[i + 1:])
                    grown_chains.append(chain[:c + 1])
            grown.append(blocks + ((j,),))
            grown_chains.append(chain + (n,) if noncrossing else chain)
        level, chains = grown, grown_chains
    return tuple([Partition._trusted(k, blocks) for blocks in level])


# The two whole-lattice caches are keyed by k alone, and k is bounded by the
# enumeration guards, so they stay unbounded.
@lru_cache(maxsize=None)
def _all_set_partitions(k: int) -> tuple[Partition, ...]:
    return _extended(k, noncrossing=False)


@lru_cache(maxsize=None)
def _all_noncrossing(k: int) -> tuple[Partition, ...]:
    return _extended(k, noncrossing=True)


def enumerate_set_partitions(k: int) -> list[Partition]:
    """All of P(k), ordered lexicographically by restricted-growth string."""
    if not 1 <= k <= MAX_FULL_ENUMERATION:
        raise SizeGuardError(f"k={k} outside enumeration guard [1, {MAX_FULL_ENUMERATION}]")
    return list(_all_set_partitions(k))


def enumerate_noncrossing(k: int) -> list[Partition]:
    """All of NC(k), in the same restricted-growth-string order."""
    if not 1 <= k <= MAX_NONCROSSING_ENUMERATION:
        raise SizeGuardError(
            f"k={k} outside enumeration guard [1, {MAX_NONCROSSING_ENUMERATION}]")
    return list(_all_noncrossing(k))


# ---------------------------------------------------------------------------
# order and lattice operations


def _complement_cycles(p: Partition) -> list[list[int]]:
    """The cycles of alpha^-1 gamma, alpha the blocks of p read as increasing
    cycles and gamma the long cycle (1 2 ... k), each from its least point,
    in increasing order of it (Nica-Speicher, Lectures on the Combinatorics
    of Free Probability, Lectures 9-10)."""
    k = p.k
    before = [0] * (k + 1)  # alpha^-1
    for block in p.blocks:
        for a, b in zip(block[-1:] + block, block):
            before[b] = a
    cycles, seen = [], set()
    for start in range(1, k + 1):
        if start not in seen:
            cycle = [start]
            while (i := before[cycle[-1] % k + 1]) != start:
                cycle.append(i)
            seen.update(cycle)
            cycles.append(cycle)
    return cycles


@lru_cache(maxsize=CACHE_MAXSIZE)
def is_noncrossing(p: Partition) -> bool:
    """True iff no a < b < c < d has a, c and b, d in two distinct blocks: iff
    the blocks and the cycles of alpha^-1 gamma number k + 1 together, the
    most they can (Biane, Some properties of crossings and partitions,
    Discrete Math. 175, 1997)."""
    return p.num_blocks + len(_complement_cycles(p)) == p.k + 1


def refines(s: Partition, p: Partition) -> bool:
    """The lattice order s <= p: every block of s sits inside a block of p."""
    if s.k != p.k:
        raise DimensionError(f"ground sets differ: {s.k} vs {p.k}")
    plabels = p.rgs()
    for block in s.blocks:
        lab = plabels[block[0] - 1]
        if any(plabels[el - 1] != lab for el in block[1:]):
            return False
    return True


def kreweras(p: Partition) -> Partition:
    """Kreweras complement on the interleaved ground set 1, 1', ..., k, k':
    the cycles of alpha^-1 gamma, as blocks."""
    if not is_noncrossing(p):
        raise CrossingPartitionError(f"{p} is crossing")
    return Partition.of(_complement_cycles(p), p.k)


def opposite(p: Partition) -> Partition:
    """Reverse the ground set: i maps to k - i + 1, blockwise.  Each image
    block is sorted once read backwards, and sorting the disjoint blocks
    orders them by their minima, so the result is canonical."""
    k = p.k
    return Partition._trusted(k, tuple(sorted(tuple(k + 1 - i for i in reversed(b))
                                              for b in p.blocks)))


def restrict(p: Partition, elements) -> Partition:
    """Partition induced on a subset, re-indexed to 1..len(elements)."""
    elems = sorted(elements)
    index = {el: i + 1 for i, el in enumerate(elems)}
    blocks = []
    for block in p.blocks:
        hit = [index[el] for el in block if el in index]
        if hit:
            blocks.append(hit)
    return Partition.of(blocks, len(elems))


def coarsenings(p: Partition) -> tuple[Partition, ...]:
    """All sigma >= p: each q in P(|p|), in restricted-growth order, merges
    the blocks of p that it groups, since [p, 1-hat] is P(|p|) (Nica-Speicher,
    Lectures on the Combinatorics of Free Probability, Lectures 9-10).
    Uncached, as is `mobius`: the trace tables keep the inversions that read
    both, and a matrix sum spends far longer on each sigma than either."""
    out = []
    for q in enumerate_set_partitions(p.num_blocks):
        merged = (tuple(sorted(sum((p.blocks[i - 1] for i in group), ()))) for group in q.blocks)
        out.append(Partition._trusted(p.k, tuple(merged)))
    return tuple(out)


def _grown(states: list[tuple], mark: tuple) -> list[tuple]:
    """The first-block states of a set of units from those of the set less
    its last unit: (V, its points, what it forbids a new unit, the closed
    gaps, the open gap or 0, the points of V below the open gap), in
    increasing order of V, the order in which Fraction sums stay small."""
    unit, points, need, span, below = mark
    grown, joined = [], []
    for v, pts, forbid, closed, gap, key in states:
        if not need & forbid:  # the unit joins V
            joined.append((v | unit, pts | points, forbid | need, closed, gap, key))
        if not pts & span:  # the unit is left out, in a new gap past a point of V
            if (low := pts & below) == key or not gap:
                grown.append((v, pts, forbid | span, closed, gap | unit, low))
            else:
                grown.append((v, pts, forbid | span, closed + (gap,), unit, low))
    return grown + joined


def _planned(bits, tags, every: bool):
    """(set, its states) for every nonempty set of units if `every`, else for
    every run of consecutive units, each grown from the set less its last unit."""
    shift = max(bits).bit_length()  # group marks sit above every point
    marks = [(1 << i, b, b | 1 << (shift + tag), (1 << (b.bit_length() - 1)) - (b & -b),
              (b & -b) - 1) for i, (b, tag) in enumerate(zip(bits, tags))]  # span, points below
    n = len(marks)

    def visit(units, states, last):
        yield units, states
        for i in range(n - 1, last, -1) if every else range(last + 1, min(last + 2, n)):
            yield from visit(units | 1 << i, _grown(states, marks[i]), i)

    for first in range(n - 1, -1, -1):
        unit, points, need, _, _ = marks[first]
        yield from visit(unit, [(unit, points, need, (), 0, 0)], first)


_plans: dict[tuple, tuple] = {}  # layout -> (first blocks, blocks, sets), oldest use first
_stored = 0  # first blocks held in _plans


def first_block_plan(bits: tuple[int, ...], tags: tuple[int, ...], every: bool = False):
    """The first-block recursion of a layout, as (blocks, sets).

    Unit i covers the points bits[i] and lies in group tags[i], units in
    order of their lowest point.  F(S), the sum over the noncrossing
    groupings of S with at most one unit per group in a block of the
    product of block weights, is the sum over the first blocks V of S of
    weight(V) times F of each gap (Nica-Speicher, Lectures on the
    Combinatorics of Free Probability, Lecture 11).  V holds the lowest
    unit and no point in the span of a unit left out; a gap is a run of
    units left out with no point of V between them.  So `sets` holds every
    run of units, or with `every` every set, after its gaps and first
    blocks, and `blocks` every first block after itself less its last unit,
    or None in a kept plan with `every`, whose sets are all its callers read.
    Kept plans hold at most CACHE_MAXSIZE first blocks, the least recently
    used dropped first; a larger plan streams, with all sets as blocks.
    """
    global _stored
    key = bits, tags, every
    if key in _plans:
        _plans[key] = _plans.pop(key)
        return _plans[key][1:]
    sets, kept, terms = _planned(bits, tags, every), [], 0
    for item in sets:
        kept.append(item)
        terms += len(item[1])
        if terms > CACHE_MAXSIZE:
            return range(1, 1 << len(bits)), itertools.chain(kept, sets)
    while _stored + terms > CACHE_MAXSIZE:
        _stored -= _plans.pop(next(iter(_plans)))[0]
    _stored += terms
    blocks = None if every else sorted({state[0] for _, states in kept for state in states})
    _plans[key] = terms, blocks, kept
    return _plans[key][1:]


def first_block_sums(sets, weights, values):
    """(S, F(S)) for each set of a plan, in order, as the caller stores F(S) in values[S]; a V of
    weight 0 is skipped unsplit, and a sum from the integer 0 keeps the weights' type."""
    for units, states in sets:
        total = 0
        for v, _, _, closed, gap, _ in states:
            term = weights[v]
            if term:
                for g in closed:
                    term *= values[g]
                total += term * values[gap] if gap else term
        yield units, total


def noncrossing_refinements(p: Partition) -> tuple[Partition, ...]:
    """All rho in NC(k) with rho <= p, in restricted-growth-string order: the
    one-point extension of NC(k), each point joining only blocks that lie in
    its own block of p."""
    return _extended(p.k, noncrossing=True, labels=p.rgs())


# ---------------------------------------------------------------------------
# inner/outer classification


class ClassSplit(Frozen):
    """Outer/inner decomposition of a noncrossing partition."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer: tuple[Block, ...], inner: tuple[Block, ...]):
        _set(self, "outer", outer)
        _set(self, "inner", inner)


@lru_cache(maxsize=CACHE_MAXSIZE)
def classify_classes(p: Partition) -> ClassSplit:
    """Split blocks into inner (strictly enclosed by another block's span)
    and outer."""
    if not is_noncrossing(p):
        raise CrossingPartitionError(f"{p} is crossing")
    spans = [(b[0], b[-1]) for b in p.blocks]
    inner, outer = [], []
    for b, (lo, hi) in zip(p.blocks, spans):
        covered = any(
            other is not b and olo < lo and hi < ohi
            for other, (olo, ohi) in zip(p.blocks, spans)
        )
        (inner if covered else outer).append(b)
    return ClassSplit(tuple(outer), tuple(inner))


# ---------------------------------------------------------------------------
# Mobius function


def _mu_full(n: int) -> int:
    """mu(0-hat, 1-hat) in P(n): (-1)^(n-1) (n-1)!."""
    return (-1) ** (n - 1) * math.factorial(n - 1)


def _mu_noncrossing(n: int) -> int:
    """mu(0-hat, 1-hat) in NC(n): (-1)^(n-1) Catalan(n-1)."""
    return (-1) ** (n - 1) * (math.comb(2 * n - 2, n - 1) // n)


def mobius(s: Partition, p: Partition, lattice: str = "full") -> int:
    """Mobius function of the interval [s, p] in P(k) or NC(k), in closed form.

    The interval is the product over the blocks W of p of the intervals
    [s|W, 1-hat] (Nica-Speicher, Lectures on the Combinatorics of Free
    Probability, Lectures 9-10), and mu multiplies along the factors.  In
    P(k) a factor is the whole lattice P(n), n the number of blocks of s
    inside W, so it contributes (-1)^(n-1) (n-1)!.  In NC(k) the Kreweras
    complement K maps [s|W, 1-hat] onto [0-hat, K(s|W)], itself a product
    of NC(|V|) over the blocks V of K(s|W), so the factor is the product of
    (-1)^(|V|-1) Catalan(|V|-1).
    """
    if lattice not in ("full", "noncrossing"):
        raise ValueError(f"unknown lattice {lattice!r}")
    nc = lattice == "noncrossing"
    if nc and (not is_noncrossing(s) or not is_noncrossing(p)):
        raise CrossingPartitionError("noncrossing lattice requires noncrossing endpoints")
    if not refines(s, p):
        raise ValueError(f"{s} does not refine {p}: interval is empty")
    out = 1
    if nc:
        for w in p.blocks:
            for cycle in _complement_cycles(restrict(s, w)):
                out *= _mu_noncrossing(len(cycle))
    else:
        plabels = p.rgs()
        for n in Counter(plabels[block[0] - 1] for block in s.blocks).values():
            out *= _mu_full(n)
    return out
