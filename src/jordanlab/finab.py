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
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import BadDelta, BudgetExceeded, GroupMismatch, NotASubgroup, NotIsotropic
from .frozen import Frozen, set_field
from .gtable import GroupTable
from .scalars import RootOfUnity

H_TABLE_BUDGET = 1 << 20  # cap on the #H^2 = N^4 entries of one H table (N <= 32)


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


class FinAbGroup(Frozen):
    """K(delta) = Z/d_1 x ... x Z/d_r with d_{i+1} | d_i."""

    __slots__ = ("delta",)

    def __init__(self, delta: tuple[int, ...]):
        delta = tuple(int(d) for d in delta)
        validate_delta(delta)
        set_field(self, "delta", delta)

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
        """All of H = K x K^ in lexicographic (x, ell) order, which is HPoint.sort_key order."""
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


class KElement(Frozen):
    """Element of K(delta), written additively."""

    __slots__ = ("group", "coords")

    def __init__(self, group: FinAbGroup, coords: tuple[int, ...]):
        set_field(self, "group", group)
        set_field(self, "coords", _reduce(group, coords))

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


class Character(Frozen):
    """Character of K(delta), written multiplicatively; values lie in mu_N."""

    __slots__ = ("group", "coords")

    def __init__(self, group: FinAbGroup, coords: tuple[int, ...]):
        set_field(self, "group", group)
        set_field(self, "coords", _reduce(group, coords))

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


class HPoint(Frozen):
    """Point (x, ell) of H = K x K^."""

    __slots__ = ("x", "ell")

    def __init__(self, x: KElement, ell: Character):
        _same_group(x, ell)
        set_field(self, "x", x)
        set_field(self, "ell", ell)

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


@lru_cache(maxsize=16)
def k_tables(group: FinAbGroup) -> tuple[list[list[int]], list[list[int]]]:
    """K's addition table and character table, indexed in group.elements() order.

    add[x][y] is the index of x + y, from KElement.__add__; characters share
    the coordinates, so it also multiplies them.  chi[l][x] is the mu_N
    exponent of ell_l(x).  N^2 object calls each, once per group: every H and
    G1 table is built from these two.  Cached and shared, so read only.
    """
    ks = group.elements()
    k_index = {x: i for i, x in enumerate(ks)}
    add = [[k_index[x + y] for y in ks] for x in ks]
    chi = [[ell(x).exponent for x in ks] for ell in group.characters()]
    return add, chi


@lru_cache(maxsize=16)
def _h_group(group: FinAbGroup) -> tuple[list[HPoint], GroupTable]:
    """H in h_elements() order with its addition table, cached per group: read only.

    (x, l) has index x * N + l, and (x, l) + (x', l') = (x + x', l l') gives
    add[x*N + l][x'*N + l'] = add_K[x][x'] * N + add_K[l][l'] from K's addition
    table: row (x, l) is the chain of the blocks q N + add_K[l] for q in add_K[x].
    Refused before anything is allocated when it would exceed H_TABLE_BUDGET.
    """
    if group.h_order() ** 2 > H_TABLE_BUDGET:
        raise BudgetExceeded(f"#H^2 = {group.h_order() ** 2} table entries exceed "
                             f"H_TABLE_BUDGET {H_TABLE_BUDGET}")
    n = group.order
    add = k_tables(group)[0]
    blocks = [[[q * n + t for t in row] for q in range(n)] for row in add]  # blocks[l][q]
    rows = [list(itertools.chain.from_iterable(map(blocks[l].__getitem__, add[x])))
            for x in range(n) for l in range(n)]
    return group.h_elements(), GroupTable(rows)


def h_tables(group: FinAbGroup) -> tuple[list[HPoint], GroupTable, list[list[int]]]:
    """H in h_elements() order with its addition table and the Gram table of pairing.

    add[i][j] is the index of h_i + h_j and gram[i][j] the mu_N exponent of
    pairing(h_i, h_j) = l'(x) / l(x') for h_i = (x, l), h_j = (x', l'), that is
    gram[x*N + l][x'*N + l'] = chi[l'][x] - chi[l][x'] mod N.  Both tables rest
    on K's two tables (k_tables), so a claim checked on them is a claim about
    KElement.__add__ and the character values; HPoint.__add__ and pairing are
    the oracles the tests compare them against.  add is the cached GroupTable
    of H: read only.
    """
    h, table = _h_group(group)
    n = group.order
    chi = k_tables(group)[1]
    # blocks[x][d][l'] = chi[l'][x] - d: row (x, l) chains the blocks of d = chi[l][x']
    blocks = [[[(c - d) % n for c in column] for d in range(n)] for column in zip(*chi)]
    gram = [list(itertools.chain.from_iterable(map(blocks[x].__getitem__, chi[l])))
            for x in range(n) for l in range(n)]
    return h, table, gram


class HSubgroup(Frozen):
    """An enumerated subgroup of H = K x K^, kept in canonical sorted order."""

    __slots__ = ("group", "elements")

    def __init__(self, group: FinAbGroup, elements: tuple[HPoint, ...]):
        set_field(self, "group", group)
        set_field(self, "elements", elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def index(self) -> int:
        return self.group.h_order() // self.order


def span_in(group: FinAbGroup, gens: Iterable[HPoint]) -> HSubgroup:
    """The subgroup of H generated by gens, closed over the integer addition table."""
    gens = tuple(gens)
    for g in gens:
        if g.group != group:
            raise GroupMismatch(f"{g!r} is not in H over {group!r}")
    h, table = _h_group(group)
    position = {p: i for i, p in enumerate(h)}
    members = table.closure(position[g] for g in gens)
    return HSubgroup(group, tuple(h[i] for i in sorted(members)))


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


class IsotropicWitness(Frozen):
    """An isotropic subgroup with its complement and verified index facts."""

    __slots__ = ("elements", "complement", "index")

    def __init__(self, elements: HSubgroup, complement: HSubgroup, index: int):
        set_field(self, "elements", elements)
        set_field(self, "complement", complement)
        set_field(self, "index", index)

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
    return IsotropicWitness(sub, perp, index)


def all_h_subgroups(group: FinAbGroup) -> list[HSubgroup]:
    """Every subgroup of H, enumerated over an integer addition table.

    H is abelian, so each lattice step is a coset product rather than a
    closure search; the walk covers the entire lattice.
    """
    h = _h_group(group)[0]
    return [HSubgroup(group, tuple(h[i] for i in sorted(members)))
            for members in h_subgroups(group)]


def h_subgroups(group: FinAbGroup) -> list[frozenset[int]]:
    """Every subgroup of H as a set of indices into h_elements(), sorted by order,
    then elements: index order is sort_key order.  This order fixes which
    counterexample a claim names first."""
    table = _h_group(group)[1]
    return sorted(table.abelian_subgroups(max_gens=None), key=lambda s: (len(s), sorted(s)))
