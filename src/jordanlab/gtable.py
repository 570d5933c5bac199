"""Multiplication-table machinery for small finite groups.

Enumeration jobs (subgroup lattices, abelian-subgroup scans) run over integer
indices against a precomputed table, which keeps the inner loops free of
object arithmetic.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence


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
        raise ValueError("table has no identity element")

    def _build_inverses(self) -> list[int]:
        inv = [-1] * self.order
        for g in range(self.order):
            for h in range(self.order):
                if self.table[g][h] == self.identity:
                    inv[g] = h
                    break
            if inv[g] < 0:
                raise ValueError(f"element {g} has no inverse")
        return inv

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

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

    def centralizing(self, subset: Iterable[int]) -> list[int]:
        members = list(subset)
        return [g for g in range(self.order) if all(self.commutes(g, h) for h in members)]

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

    def _commuting_extension(self, members: frozenset[int], g: int) -> frozenset[int]:
        """<H, g> for abelian H and centralizing g: the coset product H * <g>.

        No closure search is needed: with g commuting with all of H the
        products h * g^k already form a subgroup.
        """
        out = set(members)
        power = g
        while power != self.identity:
            out.update(self.table[h][power] for h in members)
            power = self.table[power][g]
        return frozenset(out)

    def abelian_subgroups(self, max_gens: int | None = None) -> dict[frozenset[int], tuple[int, ...]]:
        """All abelian subgroups with at most max_gens generators.

        Extensions are restricted to elements centralizing the current
        subgroup; an abelian group extended by a centralizing element stays
        abelian, so the scan never leaves abelian territory.
        """
        trivial = frozenset({self.identity})
        found: dict[frozenset[int], tuple[int, ...]] = {trivial: ()}
        frontier = [(trivial, ())]
        level = 0
        while frontier and (max_gens is None or level < max_gens):
            level += 1
            fresh = []
            for members, gens in frontier:
                for g in self.centralizing(members):
                    if g in members:
                        continue
                    bigger = self._commuting_extension(members, g)
                    if bigger not in found:
                        new_gens = gens + (g,)
                        found[bigger] = new_gens
                        fresh.append((bigger, new_gens))
            frontier = fresh
        return found
