"""Heisenberg-type central extensions of K x K^ by roots of unity.

G1 = mu_N x K x K^ carries the twisted product

    (a, x, l) (a', x', l') = (a a' l'(x), x + x', l l'),

a central extension of H = K x K^ by mu_N whose commutator map is exactly
the alternating pairing on H.  A subgroup is commutative precisely when its
image in H is isotropic, which forces every abelian subgroup of G1 to have
index at least N.  min_abelian_index certifies that bound and, for small N,
finds the exact minimum by brute-force subgroup enumeration; the subgroup
mu_N x K x {1} realizes index exactly N.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from functools import lru_cache
from itertools import chain

from .errors import BudgetExceeded, CertificateError, GroupMismatch
from .finab import H_TABLE_BUDGET, Character, FinAbGroup, HPoint, KElement, _h_group, k_tables
from .frozen import Frozen, set_field
from .gtable import GroupTable
from .scalars import RootOfUnity

EXHAUSTIVE_CAP = 9  # largest N for which the subgroup scan runs by default


class HeisElement(Frozen):
    """Element (a, x, ell) of G1 = mu_N x K x K^."""

    __slots__ = ("a", "x", "ell")

    def __init__(self, a: RootOfUnity, x: KElement, ell: Character):
        if x.group != ell.group:
            raise GroupMismatch("group part and character part disagree")
        if a.modulus != x.group.order:
            raise GroupMismatch(f"scalar lives in mu_{a.modulus}, expected mu_{x.group.order}")
        set_field(self, "a", a)
        set_field(self, "x", x)
        set_field(self, "ell", ell)

    @property
    def group(self) -> FinAbGroup:
        return self.x.group

    def __mul__(self, other: "HeisElement") -> "HeisElement":
        if self.group != other.group:
            raise GroupMismatch("cannot multiply over different groups")
        scalar = self.a * other.a * other.ell(self.x)
        return HeisElement(scalar, self.x + other.x, self.ell * other.ell)

    def inverse(self) -> "HeisElement":
        return HeisElement(self.a.inverse() * self.ell(self.x), -self.x, self.ell.inverse())

    def project(self) -> HPoint:
        """The quotient map to H, forgetting the central scalar."""
        return HPoint(self.x, self.ell)

    def sort_key(self):
        return (self.x.coords, self.ell.coords, self.a.exponent)

    def __repr__(self):
        return f"({self.a!r},{self.x!r},{self.ell!r})"


def identity(group: FinAbGroup) -> HeisElement:
    return HeisElement(RootOfUnity.one(group.order), group.zero(), group.trivial_character())


def commutator(g: HeisElement, h: HeisElement) -> RootOfUnity:
    """Scalar part of g h g^-1 h^-1; the group and character parts vanish."""
    c = g * h * g.inverse() * h.inverse()
    if not (c.x.is_zero and c.ell.is_trivial):
        raise CertificateError(f"commutator of {g!r} and {h!r} escaped the center")
    return c.a


def elements(group: FinAbGroup) -> list[HeisElement]:
    """All N^3 elements of G1 in canonical (x, ell, a) order."""
    n = group.order
    return [
        HeisElement(RootOfUnity(n, k), x, ell)
        for x in group.elements()
        for ell in group.characters()
        for k in range(n)
    ]


def check_g1_budget(n: int) -> None:
    """Refuse a G1 table for |K| = n when its n^6 entries would exceed H_TABLE_BUDGET."""
    if n ** 6 > H_TABLE_BUDGET:
        raise BudgetExceeded(f"#G1^2 = {n ** 6} table entries exceed "
                             f"H_TABLE_BUDGET {H_TABLE_BUDGET}")


class G1Elements(Sequence):
    """G1's N^3 elements in sort_key order, as group_table labels them: the element at
    index (x * N + ell) * N + k is (zeta^k, x, ell), built the first time that index is
    read, and kept."""

    __slots__ = ("_n", "_labels", "_xs", "_chars", "_built")

    def __init__(self, group: FinAbGroup):
        self._n = group.order
        self._labels = range(self._n ** 3)
        self._xs = group.elements()
        self._chars = group.characters()
        self._built: dict[int, HeisElement] = {}

    def __len__(self) -> int:
        return len(self._labels)

    def __getitem__(self, i: int) -> HeisElement:
        i = self._labels[i]  # as a tuple indexes: from the end when negative, IndexError past it
        element = self._built.get(i)
        if element is None:
            rest, k = divmod(i, self._n)
            x, ell = divmod(rest, self._n)
            element = self._built[i] = HeisElement(RootOfUnity(self._n, k), self._xs[x],
                                                   self._chars[ell])
        return element


@lru_cache(maxsize=None)
def group_table(group: FinAbGroup) -> tuple[GroupTable, G1Elements]:
    """G1's multiplication table and its elements in sort_key order.

    Element (zeta^k, x, ell) has index (x * N + ell) * N + k, with x and ell
    indexed in group.elements() order: its image in H has index // N and
    zeta^k has index k.  The elements are a G1Elements sequence, so a run builds
    only the HeisElements it reads, such as a witness's generators; the table
    itself is built from labels alone.  The twisted product (zeta^k, h)
    (zeta^k', h') = (zeta^(k + k' + ell'(x)), h + h') runs over H's addition
    table and K's character table (finab.k_tables), so row (h, k) is, for each
    h', the block of the N labels (h + h') * N + (k + ell'(x) + k') mod N.  Row
    (h, 0) chains those blocks from a precomputed list, and row (h, k + 1) is
    row (h, k) moved one step along each fiber, entry h' * N + k' read from
    h' * N + (k' + 1) mod N.  Refused before anything is allocated when the N^6
    entries would exceed H_TABLE_BUDGET (N <= 10), which also bounds the
    table's commuting masks.
    """
    n = group.order
    check_g1_budget(n)
    h_add = _h_group(group)[1].table
    twists = [list(column) * n for column in zip(*k_tables(group)[1])]  # twists[x][h'] = ell'(x)
    # blocks[q * N + t] holds the N labels q * N + (t + k') mod N
    blocks = [[q * n + (t + k2) % n for k2 in range(n)] for q in range(n * n) for t in range(n)]
    step = operator.itemgetter(*[q * n + (t + 1) % n for q in range(n * n) for t in range(n)])
    table = []
    for p, row in enumerate(h_add):
        keys = map(operator.add, map(n.__mul__, row), twists[p // n])
        table.append(list(chain.from_iterable(map(blocks.__getitem__, keys))))
        for _ in range(1, n):
            table.append(list(step(table[-1])))
    return GroupTable(table), G1Elements(group)


def label_product(n: int, u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, int, int]:
    """G1's law for K = Z/n on labels (i, j, k) = (zeta^k, i, chi_j), index (i*n + j)*n + k."""
    (i, j, k), (i2, j2, k2) = u, v
    return (i + i2) % n, (j + j2) % n, (k + k2 + i * j2) % n


def label_commutator(n: int, u: tuple[int, ...], v: tuple[int, ...]) -> int:
    """The e of u v u^-1 v^-1 = (0, 0, e) under label_product; u, v may omit k."""
    return (u[0] * v[1] - v[0] * u[1]) % n


def lagrangian_lift(group: FinAbGroup) -> list[HeisElement]:
    """The abelian subgroup mu_N x K x {1}; its index in G1 is exactly N."""
    n = group.order
    triv = group.trivial_character()
    return [
        HeisElement(RootOfUnity(n, k), x, triv)
        for x in group.elements()
        for k in range(n)
    ]


def lagrangian_labels(group: FinAbGroup) -> frozenset[int]:
    """The indices in group_table of mu_N x K x {1}: (x * N + 0) * N + k."""
    n = group.order
    return frozenset(x * n * n + k for x in range(n) for k in range(n))


class IndexReport(Frozen):
    """Result of the minimal-abelian-index computation on G1."""

    __slots__ = ("delta", "group_order", "certified_lower_bound", "min_abelian_index",
                 "witness_generators", "witness_order", "witness_index", "exhaustive",
                 "subgroups_scanned")

    def __init__(self, delta: tuple[int, ...], group_order: int, certified_lower_bound: int,
                 min_abelian_index: int | None, witness_generators: tuple[HeisElement, ...],
                 witness_order: int, witness_index: int, exhaustive: bool,
                 subgroups_scanned: int):
        set_field(self, "delta", delta)
        set_field(self, "group_order", group_order)
        set_field(self, "certified_lower_bound", certified_lower_bound)
        set_field(self, "min_abelian_index", min_abelian_index)
        set_field(self, "witness_generators", witness_generators)
        set_field(self, "witness_order", witness_order)
        set_field(self, "witness_index", witness_index)
        set_field(self, "exhaustive", exhaustive)
        set_field(self, "subgroups_scanned", subgroups_scanned)

    def to_dict(self) -> dict:
        return {
            "delta": list(self.delta),
            "N": self.certified_lower_bound,
            "group_order": self.group_order,
            "min_abelian_index": self.min_abelian_index,
            "certified_lower_bound": self.certified_lower_bound,
            "witness_generators": [
                {"a": g.a.exponent, "x": list(g.x.coords), "ell": list(g.ell.coords)}
                for g in self.witness_generators
            ],
            "witness_order": self.witness_order,
            "witness_index": self.witness_index,
            "exhaustive": self.exhaustive,
        }


def min_abelian_index(
    delta: Sequence[int] | FinAbGroup,
    exhaustive_cap: int = EXHAUSTIVE_CAP,
) -> IndexReport:
    """Minimum index of an abelian subgroup of G1, with the certified bound N.

    The exact minimum is found by enumerating every abelian subgroup.  An
    abelian subgroup meets the center mu_N in a cyclic group, and its image in
    H = K x K^ needs at most rank(H) = 2 rank(K) generators, so the scan stops
    at 1 + 2 rank(K) generators: 3 for cyclic K.  Beyond the exhaustive cap
    only the certified bound N and the index-N witness mu_N x K x {1} are
    reported.
    """
    group = delta if isinstance(delta, FinAbGroup) else FinAbGroup(tuple(delta))
    n = group.order
    order = n ** 3

    if n > exhaustive_cap:
        # closed-form generators of mu_N x K x {1}: the central root plus one
        # generator per cyclic factor of K
        triv = group.trivial_character()
        gens = [HeisElement(RootOfUnity(n, 1), group.zero(), triv)] if n > 1 else []
        for slot in range(group.rank):
            coords = [0] * group.rank
            coords[slot] = 1
            gens.append(HeisElement(RootOfUnity.one(n), group.element(coords), triv))
        return IndexReport(
            delta=group.delta,
            group_order=order,
            certified_lower_bound=n,
            min_abelian_index=None,
            witness_generators=tuple(gens),
            witness_order=n * n,
            witness_index=n,
            exhaustive=False,
            subgroups_scanned=0,
        )

    table, elems = group_table(group)
    lagr = lagrangian_labels(group)
    if not table.is_abelian_subset(lagr):
        raise CertificateError(f"the lagrangian lift mu_N x K x 1 over {group!r} is not abelian")

    found = table.abelian_subgroups(1 + 2 * group.rank)
    # the witness is the least in sorted order among the subgroups of the largest order,
    # the lift included: only those are sorted
    largest = max(len(lagr), *map(len, found))
    best_members = min((members for members in chain([lagr], found) if len(members) == largest),
                       key=sorted)
    min_index = order // largest
    if min_index < n:
        raise CertificateError(f"abelian subgroup of index {min_index} beat the certified bound {n}")

    gens = table.generators(best_members)
    return IndexReport(
        delta=group.delta,
        group_order=order,
        certified_lower_bound=n,
        min_abelian_index=min_index,
        witness_generators=tuple(elems[i] for i in gens),
        witness_order=len(best_members),
        witness_index=min_index,
        exhaustive=True,
        subgroups_scanned=len(found),
    )
