"""Canonical hereditarily finite sets over a finite atom universe.

A value is either an :class:`Atom` (an opaque urelement taken from an input
structure) or an :class:`HfSet`, an immutable finite set of values.  All set
construction funnels through :func:`make_set` and :func:`ordinal`, which
hand out one object per set, so two values are extensionally equal exactly
when they are the same Python object.  Equality is therefore an identity
check and structure is shared aggressively.  The package runs
single-threaded: the tables are plain dicts with no locking, and a set is
built only when its member set is not held yet.

Von Neumann ordinals serve as the natural numbers: ``ordinal(n)`` is the set
``{0, 1, ..., n-1}``.  Ordinals 0 and 1 double as the truth values.  An
ordinal is held as its number, an :class:`Ordinal` kept in a table of its
own, in the manner of the special forms for common values in Filliâtre and
Conchon, "Type-safe modular hash-consing" (2006): making one, counting it,
a member test on it and its union cost O(1), and its members are built only
when something iterates them.  :func:`make_set` hands back the ordinal
whenever the listed members are exactly ``0, ..., n-1``, so an ordinal has
one object however it is built.

Canonical form: any other set is interned on its member frozenset, which is
all it holds.  Iterating a set follows that frozenset, an order set by
memory addresses that no operation here depends on: every consumer collects
what it visits into a set, counts it, or asks whether some member
qualifies, which is what keeps programs built on these values
order-blind.  Only ``repr`` shows members, and it sorts them.

The convention for every operation applied off its natural domain (for
example a member query on an atom) is to return ordinal 0.
"""
from __future__ import annotations

__all__ = [
    "Atom",
    "HfSet",
    "HfValue",
    "Ordinal",
    "EMPTY",
    "TRUE",
    "make_set",
    "pair",
    "union_all",
    "the_unique",
    "card",
    "ordinal",
    "ordinal_value",
    "transitive_closure",
]

class Atom:
    """An urelement from an input universe.

    Atoms are never sets: membership queries on them are false and they
    have no members.  Two atoms are equal only if they are the same object,
    so distinct universes never collide.
    """

    __slots__ = ("name",)
    members = ()

    def __init__(self, name: str):
        self.name = str(name)

    def __repr__(self) -> str:
        return f"Atom({self.name!r})"


class HfSet:
    """A canonical, interned, immutable hereditarily finite set.

    Do not instantiate directly; use :func:`make_set` (or the derived
    constructors below), which dedupe and intern.  Because of interning,
    ``a == b`` is simply ``a is b``, and the default identity hash agrees
    with it.
    """

    __slots__ = ("members",)

    def __init__(self, members: frozenset):
        self.members = members

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, value: "HfValue") -> bool:
        return value in self.members

    def __repr__(self) -> str:
        n = ordinal_value(self)
        if n is not None:
            return f"ord({n})"
        inner = sorted(m.name if isinstance(m, Atom) else repr(m) for m in self.members)
        return "{" + ", ".join(inner) + "}"


class Ordinal(HfSet):
    """The von Neumann ordinal ``{0, 1, ..., n-1}``, held as ``n``.

    Do not instantiate directly; use :func:`ordinal`.  The member tuple is
    built each time it is read, so an ordinal that is only counted,
    compared or tested for membership never costs more than its number.
    """

    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = n

    @property
    def members(self) -> tuple:
        return tuple(map(ordinal, range(self.n)))

    def __len__(self) -> int:
        return self.n

    def __contains__(self, value: "HfValue") -> bool:
        return type(value) is Ordinal and value.n < self.n


HfValue = Atom | HfSet

_INTERN: dict = {}  # member set -> the non-ordinal set with those members
_ORDINALS: dict = {}  # n -> ordinal(n)


def make_set(elems) -> HfSet:
    """Build the canonical set of the given values (duplicates collapse)."""
    key = frozenset(elems)
    found = _INTERN.get(key)
    if found is None:
        n = len(key)
        for m in key:
            if type(m) is not Ordinal or m.n >= n:
                break
        else:
            # n distinct ordinals below n are exactly 0, ..., n-1
            return ordinal(n)
        found = _INTERN[key] = HfSet(key)
    return found


def ordinal(n: int) -> Ordinal:
    """The von Neumann ordinal ``{0, 1, ..., n-1}``."""
    found = _ORDINALS.get(n)
    if found is None:
        if n < 0:
            raise ValueError("ordinals are nonnegative")
        found = _ORDINALS.setdefault(n, Ordinal(n))
    return found


EMPTY = ordinal(0)
TRUE = ordinal(1)


def ordinal_value(value: HfValue) -> int | None:
    """Decode a von Neumann ordinal to an int, or None for anything else."""
    return value.n if type(value) is Ordinal else None


def pair(x: HfValue, y: HfValue) -> HfSet:
    """The unordered pair ``{x, y}`` (a singleton when x = y)."""
    return make_set((x, y))


def union_all(x: HfValue) -> HfSet:
    """Union of all set members of ``x``; atoms contribute nothing and
    the union of an atom is the empty set."""
    if type(x) is Ordinal:
        # the union of n is its greatest member n - 1
        return ordinal(x.n - 1) if x.n else EMPTY
    if isinstance(x, Atom):
        return EMPTY
    acc: list = []
    for m in x.members:
        if isinstance(m, HfSet):
            acc.extend(m.members)
    return make_set(acc)


def the_unique(x: HfValue) -> HfValue:
    """The sole member of a singleton set, ordinal 0 otherwise."""
    if isinstance(x, HfSet) and len(x) == 1:
        (member,) = x.members
        return member
    return EMPTY


def card(x: HfValue) -> HfSet:
    """Cardinality as a von Neumann ordinal; atoms count 0."""
    if isinstance(x, Atom):
        return EMPTY
    return ordinal(len(x))


def transitive_closure(value: HfValue) -> frozenset:
    """``{value}`` together with members, members of members, and so on."""
    seen: set = set()
    stack = [value]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        if isinstance(v, HfSet):
            stack.extend(v.members)
    return frozenset(seen)
