"""Finite abelian groups K(delta), their characters, and the pairing on K x K^.

A group is given by its elementary divisors delta = (d_1, ..., d_r) with
d_{i+1} | d_i; its order is N = prod(d_i).  Characters are coordinatized by
the same residue tuples as group elements through the fixed identification

    ell_c(x) = zeta_N ^ (sum_i (N // d_i) * c_i * x_i),

which is one concrete choice of the (noncanonical) isomorphism between K and
its dual; fixing it once makes every enumeration reproducible.  All character
values are reported in mu_N, the group of N-th roots of unity, even when the
individual character has smaller order.

H = K x K^ carries the nondegenerate alternating bi-additive pairing

    e((x, l), (x', l')) = l'(x) / l(x'),

and the central objects here are its isotropic subgroups: every one of them
has order dividing N and index divisible by N.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .errors import BadDelta, BudgetExceeded, GroupMismatch, NotASubgroup, NotIsotropic
from .scalars import RootOfUnity

DEFAULT_SPAN_BUDGET = 20736  # cap on #H = N^2 during subgroup enumeration


def parse_delta(text: str) -> tuple[int, ...]:
    """Parse a comma-separated elementary-divisor chain like "4,2"."""
    try:
        parts = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise BadDelta(f"cannot parse delta from {text!r}") from exc
    validate_delta(parts)
    return parts


def validate_delta(delta: Sequence[int]) -> None:
    if not delta:
        raise BadDelta("delta must be nonempty")
    for d in delta:
        if d < 1:
            raise BadDelta(f"elementary divisors must be >= 1, got {d}")
    for above, below in zip(delta, delta[1:]):
        if above % below != 0:
            raise BadDelta(f"{below} does not divide {above} in delta={tuple(delta)}")


@dataclass(frozen=True)
class FinAbGroup:
    """K(delta) = Z/d_1 x ... x Z/d_r with d_{i+1} | d_i."""

    delta: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "delta", tuple(int(d) for d in self.delta))
        validate_delta(self.delta)

    @property
    def order(self) -> int:
        n = 1
        for d in self.delta:
            n *= d
        return n

    @property
    def exponent(self) -> int:
        return self.delta[0]

    @property
    def rank(self) -> int:
        return len(self.delta)

    def element(self, coords: Sequence[int]) -> "KElement":
        return KElement(self, tuple(coords))

    def character(self, coords: Sequence[int]) -> "Character":
        return Character(self, tuple(coords))

    def zero(self) -> "KElement":
        return self.element([0] * self.rank)

    def trivial_character(self) -> "Character":
        return self.character([0] * self.rank)

    def elements(self) -> list["KElement"]:
        return [self.element(c) for c in itertools.product(*(range(d) for d in self.delta))]

    def characters(self) -> list["Character"]:
        return [self.character(c) for c in itertools.product(*(range(d) for d in self.delta))]

    def h_zero(self) -> "HPoint":
        return HPoint(self.zero(), self.trivial_character())

    def h_order(self) -> int:
        return self.order ** 2

    def h_elements(self) -> list["HPoint"]:
        """All of H = K x K^ in lexicographic (x, ell) order."""
        return [HPoint(x, ell) for x in self.elements() for ell in self.characters()]

    def __repr__(self):
        return f"K{self.delta}"


def _reduce(group: FinAbGroup, coords: tuple[int, ...]) -> tuple[int, ...]:
    if len(coords) != group.rank:
        raise GroupMismatch(f"expected {group.rank} coordinates, got {len(coords)}")
    return tuple(c % d for c, d in zip(coords, group.delta))


def _same_group(a, b) -> None:
    if a.group != b.group:
        raise GroupMismatch(f"{a!r} and {b!r} live in different groups")


@dataclass(frozen=True)
class KElement:
    """Element of K(delta), written additively."""

    group: FinAbGroup
    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", _reduce(self.group, self.coords))

    def __add__(self, other: "KElement") -> "KElement":
        _same_group(self, other)
        return KElement(self.group, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "KElement":
        return KElement(self.group, tuple(-a for a in self.coords))

    def __sub__(self, other: "KElement") -> "KElement":
        return self + (-other)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __repr__(self):
        return f"{self.coords}"


@dataclass(frozen=True)
class Character:
    """Character of K(delta), written multiplicatively; values lie in mu_N."""

    group: FinAbGroup
    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", _reduce(self.group, self.coords))

    def __call__(self, x: KElement) -> RootOfUnity:
        _same_group(self, x)
        n = self.group.order
        exponent = sum((n // d) * c * a for d, c, a in zip(self.group.delta, self.coords, x.coords))
        return RootOfUnity(n, exponent)

    def __mul__(self, other: "Character") -> "Character":
        _same_group(self, other)
        return Character(self.group, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def inverse(self) -> "Character":
        return Character(self.group, tuple(-a for a in self.coords))

    @property
    def is_trivial(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __repr__(self):
        return f"chi{self.coords}"


@dataclass(frozen=True)
class HPoint:
    """Point (x, ell) of H = K x K^."""

    x: KElement
    ell: Character

    def __post_init__(self):
        _same_group(self.x, self.ell)

    @property
    def group(self) -> FinAbGroup:
        return self.x.group

    def __add__(self, other: "HPoint") -> "HPoint":
        return HPoint(self.x + other.x, self.ell * other.ell)

    def __neg__(self) -> "HPoint":
        return HPoint(-self.x, self.ell.inverse())

    def __sub__(self, other: "HPoint") -> "HPoint":
        return self + (-other)

    @property
    def is_zero(self) -> bool:
        return self.x.is_zero and self.ell.is_trivial

    def sort_key(self):
        return (self.x.coords, self.ell.coords)

    def __repr__(self):
        return f"({self.x!r},{self.ell!r})"


def pairing(h1: HPoint, h2: HPoint) -> RootOfUnity:
    """The alternating form e(h1, h2) = ell_2(x_1) / ell_1(x_2)."""
    _same_group(h1.x, h2.x)
    return h2.ell(h1.x) * h1.ell(h2.x).inverse()


def h_tables(group: FinAbGroup, form: Callable[[HPoint, HPoint], RootOfUnity]
             ) -> tuple[list[HPoint], list[list[int]], list[list[int]]]:
    """H in h_elements() order with its addition table and the Gram table of form.

    add[i][j] is the index of h_i + h_j and gram[i][j] the mu_N exponent of
    form(h_i, h_j), normally pairing.  Both are filled once from the object
    operations, so a claim checked on the tables is a claim about
    HPoint.__add__ and the form.
    """
    h = group.h_elements()
    index = {p: i for i, p in enumerate(h)}
    add = [[index[a + b] for b in h] for a in h]
    gram = [[form(a, b).exponent for b in h] for a in h]
    return h, add, gram


@dataclass(frozen=True)
class HSubgroup:
    """An enumerated subgroup of H = K x K^, kept in canonical sorted order."""

    group: FinAbGroup
    elements: tuple[HPoint, ...]
    generators: tuple[HPoint, ...] = field(default=())

    @property
    def order(self) -> int:
        return len(self.elements)

    def index(self) -> int:
        return self.group.h_order() // self.order

    def __contains__(self, h: HPoint) -> bool:
        return h in set(self.elements)

    def __iter__(self):
        return iter(self.elements)


def _close_under_addition(group: FinAbGroup, gens: Sequence[HPoint]) -> set[HPoint]:
    seen = {group.h_zero()}
    frontier = [g for g in gens if g not in seen]
    seen.update(frontier)
    while frontier:
        fresh = []
        for h in frontier:
            for s in list(seen):
                for cand in (h + s, s - h):
                    if cand not in seen:
                        seen.add(cand)
                        fresh.append(cand)
        frontier = fresh
    return seen


def span_in(group: FinAbGroup, gens: Iterable[HPoint], budget: int = DEFAULT_SPAN_BUDGET) -> HSubgroup:
    gens = tuple(gens)
    for g in gens:
        if g.group != group:
            raise GroupMismatch(f"{g!r} is not in H over {group!r}")
    if group.h_order() > budget:
        raise BudgetExceeded(f"#H = {group.h_order()} exceeds enumeration budget {budget}")
    closed = _close_under_addition(group, gens)
    return HSubgroup(group, tuple(sorted(closed, key=HPoint.sort_key)), gens)


def _as_subgroup(e) -> HSubgroup:
    if isinstance(e, HSubgroup):
        return e
    elements = tuple(e)
    if not elements:
        raise NotASubgroup("a subgroup must contain the identity")
    group = elements[0].group
    elem_set = set(elements)
    if group.h_zero() not in elem_set:
        raise NotASubgroup("element set does not contain the identity")
    for a in elements:
        for b in elements:
            if a + b not in elem_set:
                raise NotASubgroup(f"{a!r} + {b!r} escapes the element set")
    return HSubgroup(group, tuple(sorted(elem_set, key=HPoint.sort_key)))


def is_isotropic(e) -> bool:
    """True when the pairing restricts trivially to the subgroup."""
    sub = _as_subgroup(e)
    return all(pairing(a, b).is_one for a in sub.elements for b in sub.elements)


def orthogonal_complement(e) -> HSubgroup:
    """All h in H pairing trivially with every element of the subgroup."""
    sub = _as_subgroup(e)
    perp = [h for h in sub.group.h_elements() if all(pairing(h, a).is_one for a in sub.elements)]
    return HSubgroup(sub.group, tuple(sorted(perp, key=HPoint.sort_key)))


@dataclass(frozen=True)
class IsotropicWitness:
    """An isotropic subgroup with its complement and verified index facts."""

    generators: tuple[HPoint, ...]
    elements: HSubgroup
    complement: HSubgroup
    index: int

    @property
    def group(self) -> FinAbGroup:
        return self.elements.group


def isotropic_witness(e) -> IsotropicWitness:
    """Certify an isotropic subgroup: #E | N, N | [H : E], E <= E_perp, #E_perp = N^2 / #E."""
    sub = _as_subgroup(e)
    if not is_isotropic(sub):
        raise NotIsotropic(f"subgroup of order {sub.order} is not isotropic")
    n = sub.group.order
    perp = orthogonal_complement(sub)
    index = sub.index()
    if n % sub.order != 0:
        raise NotIsotropic(f"#E = {sub.order} does not divide N = {n}")
    if index % n != 0:
        raise NotIsotropic(f"index {index} is not divisible by N = {n}")
    if not set(sub.elements) <= set(perp.elements):
        raise NotIsotropic("E is not contained in its orthogonal complement")
    if perp.order * sub.order != sub.group.h_order():
        raise NotIsotropic("orthogonal complement has the wrong order")
    gens = sub.generators or _minimal_generators(sub)
    return IsotropicWitness(gens, sub, perp, index)


def _minimal_generators(sub: HSubgroup) -> tuple[HPoint, ...]:
    gens: list[HPoint] = []
    current = {sub.group.h_zero()}
    for h in sub.elements:
        if h not in current:
            gens.append(h)
            current = _close_under_addition(sub.group, gens)
            if len(current) == sub.order:
                break
    return tuple(gens)


def all_h_subgroups(group: FinAbGroup, budget: int = DEFAULT_SPAN_BUDGET) -> list[HSubgroup]:
    """Every subgroup of H, enumerated over an integer addition table.

    H is abelian, so each lattice step is a coset product rather than a
    closure search; the walk covers the entire lattice.
    """
    if group.h_order() > budget:
        raise BudgetExceeded(f"#H = {group.h_order()} exceeds enumeration budget {budget}")
    from .gtable import GroupTable

    everything = group.h_elements()
    table = GroupTable.from_elements(everything, lambda a, b: a + b)
    subgroups = []
    for members, gens in table.abelian_subgroups(max_gens=None).items():
        elements = tuple(sorted((everything[i] for i in members), key=HPoint.sort_key))
        subgroups.append(HSubgroup(group, elements, tuple(everything[i] for i in gens)))
    return sorted(subgroups, key=lambda s: (s.order, tuple(h.sort_key() for h in s.elements)))
