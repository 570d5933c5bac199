"""Multiplication-table machinery for small finite groups.

Enumeration jobs (subgroup lattices, abelian-subgroup scans) run over integer
indices against a precomputed table, which keeps the inner loops free of
object arithmetic.
"""

from __future__ import annotations

import operator
from functools import cached_property
from itertools import chain
from math import gcd
from typing import Callable, Iterable, Sequence

from .errors import CertificateError


_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")  # bytes of bools to a binary string


def bitmask(flags: Iterable[bool]) -> int:
    """The integer whose bit i is set when flags[i] is true, built in C: bit i is
    character i from the right of a binary string."""
    return int(bytes(flags)[::-1].translate(_TO_DIGITS), 2)


def gather(indices: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """A map from v to the tuple of v[i] for i in indices, gathered in C; a tuple also
    for one index, where an itemgetter would return the entry itself."""
    if len(indices) == 1:
        i, = indices
        return lambda v: (v[i],)
    return operator.itemgetter(*indices)


def reach(start: Iterable[int], step: Callable[[int], Iterable[int]]) -> frozenset[int]:
    """Everything reachable from start by repeated steps, in a breadth-first search."""
    seen = frontier = set(start)
    while frontier:
        frontier = {y for x in frontier for y in step(x)} - seen
        seen |= frontier
    return frozenset(seen)


class GroupTable:
    """A finite group as elements 0..n-1 with a dense multiplication table.

    The caller's rows are kept, not copied: a table is read only once built."""

    def __init__(self, table: list[list[int]]):
        self.table = table
        self.order = len(self.table)
        self.identity = self._find_identity()
        self.inverse = self._build_inverses()
        self._commuting: dict[int, int] = {}  # commuting masks read so far, by element

    @classmethod
    def from_elements(cls, elements: Sequence, mul: Callable) -> "GroupTable":
        index = {e: i for i, e in enumerate(elements)}
        if len(index) != len(elements):
            raise ValueError("elements are not distinct")
        table = [[index[mul(a, b)] for b in elements] for a in elements]
        return cls(table)

    def _find_identity(self) -> int:
        n = self.order
        for e in range(n):
            if all(self.table[e][g] == g and self.table[g][e] == g for g in range(n)):
                return e
        raise CertificateError("table has no identity element")

    def _build_inverses(self) -> list[int]:
        """inverse[g] is the first h in row g with g h the identity."""
        inv = []
        for g, row in enumerate(self.table):
            try:
                inv.append(row.index(self.identity))  # one scan of the row, in C
            except ValueError:
                raise CertificateError(f"element {g} has no inverse") from None
        return inv

    def __getitem__(self, a: int) -> list[int]:
        """Row a, so that table[a][b] is the index of a b."""
        return self.table[a]

    def commutes(self, a: int, b: int) -> bool:
        return self.table[a][b] == self.table[b][a]

    def is_abelian_subset(self, subset: Iterable[int]) -> bool:
        """Whether a b = b a for all a, b in subset: row a against column a, each gathered
        at the members in C."""
        members = list(subset)
        if not members:
            return True
        at_members = gather(members)
        return all(at_members(self.table[a]) == at_members(self.columns[a]) for a in members)

    def closure(self, gens: Iterable[int]) -> frozenset[int]:
        """The subgroup generated by gens: the identity, stepped by right multiplication.
        Inverses come for free in a finite group, since powers of g reach g^-1."""
        gens = tuple(gens)
        table = self.table
        return reach([self.identity], lambda x: [table[x][g] for g in gens])

    def generators(self, members: frozenset[int]) -> tuple[int, ...]:
        """Generators of the subgroup `members`: each element, in index order, not yet reached."""
        gens: list[int] = []
        current: frozenset[int] = frozenset({self.identity})
        for g in sorted(members):
            if g not in current:
                gens.append(g)
                current = self.closure(gens)
                if current == members:
                    break
        return tuple(gens)

    @cached_property
    def columns(self) -> list[tuple[int, ...]]:
        """Columns of the table: columns[b][a] is the index of a b.  Built once, read only."""
        return list(zip(*self.table))

    def commuting_mask(self, g: int) -> int:
        """Bit h is set when g h = h g: row g against column g.  Computed the first time
        it is read, then kept."""
        mask = self._commuting.get(g)
        if mask is None:
            mask = self._commuting[g] = bitmask(map(operator.eq, self.table[g], self.columns[g]))
        return mask

    @cached_property
    def commuting(self) -> list[int]:
        """Every commuting mask: bit h of commuting[g] is set when g h = h g."""
        return [self.commuting_mask(g) for g in range(self.order)]

    def abelian_subgroups(self, max_gens: int | None = None) -> dict[frozenset[int], tuple[int, ...]]:
        """All abelian subgroups with at most max_gens generators.

        A breadth-first walk that extends each abelian subgroup H only by
        elements g of its centralizer; <H, g> is then the coset product
        H * <g>, abelian again, so no closure search is needed.  Each frontier
        entry carries the members of H, as a tuple and as a bitmask, and the
        centralizer of H as a bitmask: the AND of the commuting masks of its
        generators, since H and its generators have the same centralizer.  A
        commuting mask is computed only for a g that yields a new subgroup.
        The walk lists the cosets H g^k for k = 1 .. m - 1, m the order of g H
        in <H, g> / H, each by one gather of column g^k at the members of H.
        Every h g^k with gcd(k, m) = 1 generates <H, g> together with H, as
        g^k H generates the cyclic quotient, so once g is tried all those
        cosets are cleared, by one mask; the other powers generate smaller
        extensions and are still tried.  Candidates are tried in ascending
        order, so the first producer of each subgroup, and so each generator
        tuple and the insertion order, stay those of the plain walk over every
        centralizing element.
        """
        table, columns = self.table, self.columns
        bit = [1 << x for x in range(self.order)]
        e = self.identity
        found: dict[frozenset[int], tuple[int, ...]] = {frozenset({e}): ()}
        seen = {bit[e]}  # the member masks of found
        frontier = [((e,), (), bit[e], (1 << self.order) - 1)]
        level = 0
        while frontier and (max_gens is None or level < max_gens):
            level += 1
            fresh = []
            for members, gens, inside, central in frontier:
                coset_of = gather(members)  # coset_of(columns[c]) is H c
                untried = central & ~inside
                while untried:
                    g = (untried & -untried).bit_length() - 1
                    cosets, masks = [], []
                    power = g
                    while not inside >> power & 1:  # H g^k for k = 1, 2, ... until g^k is in H
                        coset = coset_of(columns[power])
                        cosets.append(coset)
                        masks.append(sum(map(bit.__getitem__, coset)))
                        power = table[power][g]
                    m = len(masks) + 1
                    grown, cleared = inside, 0
                    for k, mask in enumerate(masks, 1):
                        grown |= mask
                        if gcd(k, m) == 1:
                            cleared |= mask
                    untried &= ~cleared
                    if grown not in seen:
                        seen.add(grown)
                        new_gens = gens + (g,)
                        bigger = members + tuple(chain.from_iterable(cosets))
                        found[frozenset(bigger)] = new_gens
                        fresh.append((bigger, new_gens, grown, central & self.commuting_mask(g)))
            frontier = fresh
        return found
