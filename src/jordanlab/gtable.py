"""Multiplication-table machinery for small finite groups.

Enumeration jobs (subgroup lattices, abelian-subgroup scans) run over integer
indices against a precomputed table, which keeps the inner loops free of
object arithmetic.
"""

from __future__ import annotations

import operator
from functools import cached_property
from math import gcd
from typing import Callable, Iterable, Sequence

from .errors import CertificateError


_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")  # bytes of bools to a binary string


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
            if self.identity not in row:
                raise CertificateError(f"element {g} has no inverse")
            inv.append(row.index(self.identity))
        return inv

    def __getitem__(self, a: int) -> list[int]:
        """Row a, so that table[a][b] is the index of a b."""
        return self.table[a]

    def commutes(self, a: int, b: int) -> bool:
        return self.table[a][b] == self.table[b][a]

    def is_abelian_subset(self, subset: Iterable[int]) -> bool:
        members = list(subset)
        return all(self.commutes(a, b) for i, a in enumerate(members) for b in members[i + 1:])

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

    @cached_property
    def commuting(self) -> list[int]:
        """Commuting bitmasks: bit h of commuting[g] is set when g h = h g.  Built once."""
        # bit h is character h from the right of the binary string: b"\x01" for g h = h g
        return [int(bytes(map(operator.eq, row[::-1], col[::-1])).translate(_TO_DIGITS), 2)
                for row, col in zip(self.table, self.columns)]

    def abelian_subgroups(self, max_gens: int | None = None) -> dict[frozenset[int], tuple[int, ...]]:
        """All abelian subgroups with at most max_gens generators.

        A breadth-first walk that extends each abelian subgroup H only by
        elements g of its centralizer; <H, g> is then the coset product
        H * <g>, abelian again, so no closure search is needed.  Each frontier
        entry carries the centralizer of H as a bitmask: the AND of the
        commuting masks of its generators, since H and its generators have the
        same centralizer.  The walk lists the cosets H g^k for k = 1 .. m - 1,
        m the order of g H in <H, g> / H.  Every h g^k with gcd(k, m) = 1
        generates <H, g> together with H, as g^k H generates the cyclic
        quotient, so once g is tried all those cosets are cleared; the other
        powers generate smaller extensions and are still tried.  Candidates are
        tried in ascending order, so the first producer of each subgroup, and
        so each generator tuple and the insertion order, stay those of the
        plain walk over every centralizing element.
        """
        table, comm = self.table, self.commuting
        trivial = frozenset({self.identity})
        found: dict[frozenset[int], tuple[int, ...]] = {trivial: ()}
        frontier = [(trivial, (), (1 << self.order) - 1)]
        level = 0
        while frontier and (max_gens is None or level < max_gens):
            level += 1
            fresh = []
            for members, gens, central in frontier:
                untried = central
                for h in members:
                    untried &= ~(1 << h)
                while untried:
                    g = (untried & -untried).bit_length() - 1
                    coset = [table[h][g] for h in members]
                    cosets = []
                    while coset[0] not in members:  # coset is H g^k for k = 1, 2, ...
                        cosets.append(coset)
                        coset = [table[x][g] for x in coset]
                    m = len(cosets) + 1
                    out = set(members)
                    for k, coset in enumerate(cosets, 1):
                        out.update(coset)
                        if gcd(k, m) == 1:
                            for x in coset:
                                untried &= ~(1 << x)
                    bigger = frozenset(out)
                    if bigger not in found:
                        new_gens = gens + (g,)
                        found[bigger] = new_gens
                        fresh.append((bigger, new_gens, central & comm[g]))
            frontier = fresh
        return found
