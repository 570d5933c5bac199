"""Multiplication-table machinery for small finite groups.

Enumeration jobs (subgroup lattices, abelian-subgroup scans) run over integer
indices against a precomputed table, which keeps the inner loops free of
object arithmetic.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, Sequence

from .errors import CertificateError


class GroupTable:
    """A finite group as elements 0..n-1 with a dense multiplication table."""

    def __init__(self, table: Sequence[Sequence[int]]):
        self.table = [list(row) for row in table]
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
        inv = [-1] * self.order
        for g in range(self.order):
            for h in range(self.order):
                if self.table[g][h] == self.identity:
                    inv[g] = h
                    break
            if inv[g] < 0:
                raise CertificateError(f"element {g} has no inverse")
        return inv

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def __getitem__(self, a: int) -> list[int]:
        """Row a, so that table[a][b] is the index of a b."""
        return self.table[a]

    def commutes(self, a: int, b: int) -> bool:
        return self.table[a][b] == self.table[b][a]

    def is_abelian_subset(self, subset: Iterable[int]) -> bool:
        members = list(subset)
        return all(self.commutes(a, b) for i, a in enumerate(members) for b in members[i + 1:])

    def closure(self, gens: Iterable[int]) -> frozenset[int]:
        # inverses come for free in a finite group: powers of g reach g^-1
        seen = {self.identity}
        frontier = [g for g in gens if g not in seen]
        seen.update(frontier)
        table = self.table
        while frontier:
            fresh = []
            for g in frontier:
                for s in list(seen):
                    for cand in (table[g][s], table[s][g]):
                        if cand not in seen:
                            seen.add(cand)
                            fresh.append(cand)
            frontier = fresh
        return frozenset(seen)

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

    def subgroups(self, max_gens: int | None = None) -> dict[frozenset[int], tuple[int, ...]]:
        """All subgroups reachable with at most max_gens generators.

        Returns a map from element set to the generator tuple that first
        produced it.  max_gens=None iterates to a fixpoint, which enumerates
        the full subgroup lattice.
        """
        trivial = frozenset({self.identity})
        found: dict[frozenset[int], tuple[int, ...]] = {trivial: ()}
        frontier = [(trivial, ())]
        level = 0
        while frontier and (max_gens is None or level < max_gens):
            level += 1
            fresh = []
            for members, gens in frontier:
                for g in range(self.order):
                    if g in members:
                        continue
                    bigger = self.closure(gens + (g,))
                    if bigger not in found:
                        new_gens = gens + (g,)
                        found[bigger] = new_gens
                        fresh.append((bigger, new_gens))
            frontier = fresh
        return found

    @cached_property
    def commuting(self) -> list[int]:
        """Commuting bitmasks: bit h of commuting[g] is set when g h = h g.  Built once."""
        table = self.table
        return [int("".join("1" if gh == hg else "0" for gh, hg in zip(row[::-1], col[::-1])), 2)
                for row, col in zip(table, zip(*table))]

    def abelian_subgroups(self, max_gens: int | None = None) -> dict[frozenset[int], tuple[int, ...]]:
        """All abelian subgroups with at most max_gens generators.

        A breadth-first walk that extends each abelian subgroup H only by
        elements g of its centralizer; <H, g> is then the coset product
        H * <g>, abelian again, so no closure search is needed.  Each frontier
        entry carries the centralizer of H as a bitmask: the AND of the
        commuting masks of its generators, since H and its generators have the
        same centralizer.  Every element h g of the coset H g gives the same
        <H, g>, and candidates are tried in ascending order, so once g is
        tried its whole coset is cleared: the first producer of each subgroup,
        and so each generator tuple and the insertion order, stay those of the
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
                    for x in coset:
                        untried &= ~(1 << x)
                    out = set(members)
                    while coset[0] not in members:  # coset is H g^k for k = 1, 2, ...
                        out.update(coset)
                        coset = [table[x][g] for x in coset]
                    bigger = frozenset(out)
                    if bigger not in found:
                        new_gens = gens + (g,)
                        found[bigger] = new_gens
                        fresh.append((bigger, new_gens, central & comm[g]))
            frontier = fresh
        return found

