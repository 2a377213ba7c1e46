"""Consistent tuples of free-increment measures, specified by cumulants.

A tuple is stored as one word of primitive atoms per component.  Atoms are
single free-increment processes with a declared per-unit-time cumulant
sequence; distinct atoms are freely independent by construction, so the
joint unit-time cumulant of any word is the atom's own sequence when the
word stays on one atom and zero otherwise.  This makes identical copies,
free families, and diagonal-measure components all closed under one rule:
the cumulant of a set of components is the cumulant of the concatenation
of their words.

Interval dependence enters only through the scaling law: the cumulant of
increments over intervals J_1..J_n at pattern pi is the product over
blocks of the intersection lengths times the unit-time cumulant.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import DimensionError, SizeGuardError
from .partitions import Frozen
from .rational import format_rational, parse_rational

_ATOM_UIDS = itertools.count(1)


class Atom(Frozen):
    """A primitive free-increment process with unit-time cumulants r_n,
    equal by its fields (uid, kind, data) and hashed by the uid alone.

    The uid keeps separately created atoms freely independent even when
    their parameters coincide (two free Poissons in a free family).
    """

    __slots__ = ("uid", "kind", "data")

    def __init__(self, uid: int, kind: str, data: tuple):
        object.__setattr__(self, "uid", uid)
        object.__setattr__(self, "kind", kind)  # "poisson" | "semicircular" | "custom"
        object.__setattr__(self, "data", data)

    def __hash__(self):  # Fraction data hashes in Python; ~500 hashes per exact-warm pass
        return hash(self.uid)

    def cumulant(self, order: int) -> Fraction:
        if order < 1:
            raise ValueError("cumulant order must be >= 1")
        if self.kind == "poisson":
            return Fraction(self.data[0])
        if self.kind == "semicircular":
            return Fraction(1) if order == 2 else Fraction(0)
        if order > len(self.data):
            raise SizeGuardError(
                f"custom process declares cumulants up to order {len(self.data)}, "
                f"order {order} requested"
            )
        return self.data[order - 1]


def _new_atom(kind: str, data: tuple) -> Atom:
    return Atom(next(_ATOM_UIDS), kind, data)


class ProcessSpec(Frozen):
    """A consistent tuple of free stochastic measures, one word per
    component; equal and hashed by its one field, the words."""

    __slots__ = ("words",)

    def __init__(self, words: tuple[tuple[Atom, ...], ...]):
        object.__setattr__(self, "words", words)

    @property
    def k(self) -> int:
        return len(self.words)

    def subset_word(self, subset) -> tuple[Atom, ...]:
        """Concatenated word of the components in an increasing subset."""
        return tuple(a for i in subset for a in self.words[i - 1])

    def atoms(self) -> tuple[Atom, ...]:
        return tuple(dict.fromkeys(a for w in self.words for a in w))


Part = tuple[int | None, int]  # (atom index, or None across atoms; word length)


class ScaledCumulants:
    """Cumulants at time t of sets of a tuple's components, as integers: the
    one way the exact engine evaluates them.

    Free increments are stationary, so the process at time t has the free
    cumulants t r_n.  `scale` is t.denominator B, B the lcm of the
    denominators of every cumulant the atoms declare, so scale t R(S) is an
    integer for every set S of components.  R(S) depends only on the atom of
    S's word and its length, so each component is reduced to that part
    (`parts`) and the scaled values are cached per part.  The table holds the
    spec's atoms only, so `part` refuses a word over any other: its
    cumulants' denominators are not in B.
    """

    def __init__(self, spec: ProcessSpec, t=1):
        t = Fraction(t)
        self._atoms: list[Atom] = list(spec.atoms())
        self.parts: list[Part] = [self.part(w) for w in spec.words]
        self._lcm = math.lcm(*(x.denominator for a in self._atoms for x in a.data))
        self._t, self.scale = t.numerator, t.denominator * self._lcm
        self._values: dict[Part, int] = {}

    def _index(self, atom: Atom) -> int:
        for i, a in enumerate(self._atoms):
            if a is atom or a == atom:
                return i
        raise ValueError(f"atom {atom.kind} {atom.uid} is not in this cumulant table")

    def part(self, word) -> Part:
        """The part of any word over the spec's atoms, adjoint and derived
        ones too."""
        atoms = {self._index(a) for a in word}
        return (atoms.pop() if len(atoms) == 1 else None), len(word)

    @staticmethod
    def merge(parts) -> Part:
        """The part of the concatenated word; a pair of parts in one step."""
        if type(parts) is tuple and len(parts) == 2:
            (a, m), (b, n) = parts
            return (a if a == b else None), m + n
        rest = iter(parts)
        atom, length = next(rest)
        for a, n in rest:
            if a != atom:
                atom = None
            length += n
        return atom, length

    def value(self, part: Part) -> int:
        """scale times the time-t cumulant of a word with this part."""
        if part[0] is None:
            return 0
        if part not in self._values:
            r = self._atoms[part[0]].cumulant(part[1])
            self._values[part] = self._t * r.numerator * (self._lcm // r.denominator)
        return self._values[part]

    def product(self, blocks, parts=None) -> int:
        """scale^|blocks| times the product of the time-t cumulants of the blocks,
        each a set of components: of the spec, or of words with these parts."""
        parts = self.parts if parts is None else parts
        out = 1
        for block in blocks:
            out *= self.value(self.merge(parts[i - 1] for i in block))
            if not out:
                break
        return out


# ---------------------------------------------------------------------------
# constructors


def make_free_poisson(rate) -> ProcessSpec:
    """One component with every unit-time cumulant equal to the rate."""
    rate = Fraction(rate)
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    return ProcessSpec(((_new_atom("poisson", (rate,)),),))


def make_semicircular() -> ProcessSpec:
    """One centered component with unit variance and no higher cumulants."""
    return ProcessSpec(((_new_atom("semicircular", ()),),))


def make_custom_process(seq) -> ProcessSpec:
    """One component with the given cumulant sequence r_1, r_2, ..."""
    data = tuple(Fraction(x) for x in seq)
    if not data:
        raise ValueError("need at least r_1")
    return ProcessSpec(((_new_atom("custom", data),),))


def make_tuple(base: ProcessSpec, mode: str, k: int | None = None) -> ProcessSpec:
    """Identical copies of a single process (the only mode, "identical"):
    all k components share the base's atom, so every mixed cumulant is the
    base's r_n.  Freely independent families come from free_family."""
    if mode != "identical":
        raise ValueError(f"unknown mode {mode!r}")
    if base.k != 1:
        raise DimensionError("identical copies need a single-component base")
    if type(k) is not int or k < 1:  # a JSON float or bool k included
        raise ValueError(f"identical copies need an integer k >= 1, got {k!r}")
    return ProcessSpec((base.words[0],) * k)


def free_family(specs: list[ProcessSpec]) -> ProcessSpec:
    """A freely independent family: each input keeps its own internal
    structure but gets fresh atoms, so cumulants across inputs vanish (this
    holds even if the same spec object is passed twice)."""
    words: list[tuple[Atom, ...]] = []
    for spec in specs:
        fresh = {a: _new_atom(a.kind, a.data) for a in spec.atoms()}
        words.extend(tuple(fresh[a] for a in w) for w in spec.words)
    if not words:
        raise ValueError("free_family needs at least one component")
    return ProcessSpec(tuple(words))


# ---------------------------------------------------------------------------
# subdivisions


class Subdivision(Frozen):
    """Ordered interval lengths of [0, t), all positive exact rationals, and
    t, their sum; equal and hashed by the fields (t, lengths)."""

    __slots__ = ("t", "lengths")

    def __init__(self, lengths: tuple[Fraction, ...]):
        if not lengths:
            raise ValueError("need at least one interval")
        if any(l <= 0 for l in lengths):
            raise ValueError("interval lengths must be positive")
        object.__setattr__(self, "t", sum(lengths))
        object.__setattr__(self, "lengths", lengths)

    @classmethod
    def uniform(cls, n: int, t=1) -> "Subdivision":
        if n < 1:
            raise ValueError(f"need at least one interval, got N={n}")
        return cls((Fraction(t) / n,) * n)

    @classmethod
    def of(cls, lengths) -> "Subdivision":
        return cls(tuple(Fraction(l) for l in lengths))

    @property
    def n(self) -> int:
        return len(self.lengths)

    def describe(self) -> str:
        if len(set(self.lengths)) == 1:
            return f"uniform(N={self.n},t={format_rational(self.t)})"
        return "lengths(" + ",".join(format_rational(l) for l in self.lengths) + ")"


# ---------------------------------------------------------------------------
# JSON descriptors


def _field(obj: dict, key: str):
    """obj[key] of a descriptor, refused by name when obj lacks the key."""
    if key not in obj:
        raise ValueError(f"process descriptor {obj} lacks the key {key!r}")
    return obj[key]


def spec_from_descriptor(obj) -> ProcessSpec:
    """Build a spec from its JSON descriptor (dict or shorthand name)."""
    if isinstance(obj, str):
        name = obj.strip()
        if name == "free_poisson":
            return make_free_poisson(1)
        if name == "semicircular":
            return make_semicircular()
        raise ValueError(f"unknown process name {name!r}")
    kind = obj.get("type")
    if kind == "free_poisson":
        return make_free_poisson(parse_rational(obj.get("rate", "1")))
    if kind == "semicircular":
        return make_semicircular()
    if kind == "custom":
        cum = _field(obj, "cumulants")
        orders = [str(i) for i in range(1, len(cum) + 1)]
        if missing := [o for o in orders if o not in cum.keys()]:  # .keys(): a list is malformed
            given = ", ".join(repr(key) for key in cum if key not in orders)
            raise ValueError(f"cumulants need the orders 1..{len(cum)} as keys: "
                             f"order {missing[0]} is missing, {given} given")
        return make_custom_process([parse_rational(cum[o]) for o in orders])
    if kind == "tuple":
        mode = _field(obj, "mode")
        if mode == "identical":
            base = spec_from_descriptor(_field(obj, "base"))
            return make_tuple(base, "identical", k=_field(obj, "k"))
        if mode == "free_family":
            return free_family([spec_from_descriptor(c) for c in _field(obj, "components")])
        raise ValueError(f"unknown tuple mode {mode!r}")
    raise ValueError(f"unknown process type {kind!r}")
