"""The abelian-subgroup scan against the plain walk over every centralizing element,
closure by generators against the two-sided closure, and the reference subgroup
lattice that other tests compare against."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanlab import gtable
from jordanlab.errors import CertificateError
from jordanlab.finab import FinAbGroup, _h_group
from jordanlab.gtable import GroupTable
from jordanlab.heisenberg import group_table


def reference_abelian_subgroups(table, max_gens=None):
    """The scan as it stood before centralizer masks and coset skipping.

    Each abelian subgroup H is extended by every element g outside H that
    commutes with all of H, in index order, and <H, g> is the coset product
    H * <g>; the first generator tuple to reach a subgroup is kept.
    """
    t, identity = table.table, table.identity

    def centralizing(members):
        return [g for g in range(table.order) if all(t[g][h] == t[h][g] for h in members)]

    def extension(members, g):
        out = set(members)
        power = g
        while power != identity:
            out.update(t[h][power] for h in members)
            power = t[power][g]
        return frozenset(out)

    trivial = frozenset({identity})
    found = {trivial: ()}
    frontier = [(trivial, ())]
    level = 0
    while frontier and (max_gens is None or level < max_gens):
        level += 1
        fresh = []
        for members, gens in frontier:
            for g in centralizing(members):
                if g in members:
                    continue
                bigger = extension(members, g)
                if bigger not in found:
                    found[bigger] = gens + (g,)
                    fresh.append((bigger, gens + (g,)))
        frontier = fresh
    return found


def reference_closure(table, gens):
    """The closure as it stood before the search by generators: every new element
    multiplied by every reached element, on both sides."""
    t = table.table
    seen = {table.identity}
    frontier = [g for g in gens if g not in seen]
    seen.update(frontier)
    while frontier:
        fresh = []
        for g in frontier:
            for s in list(seen):
                for cand in (t[g][s], t[s][g]):
                    if cand not in seen:
                        seen.add(cand)
                        fresh.append(cand)
        frontier = fresh
    return frozenset(seen)


def reference_subgroups(table, max_gens=None):
    """All subgroups reachable with at most max_gens generators, as a map from element
    set to the generator tuple that first produced it: the reference lattice.

    Each subgroup on the frontier is extended by every element outside it, and
    <gens, g> is closed from the identity again.  max_gens=None iterates to a
    fixpoint, which enumerates the full subgroup lattice.
    """
    trivial = frozenset({table.identity})
    found = {trivial: ()}
    frontier = [(trivial, ())]
    level = 0
    while frontier and (max_gens is None or level < max_gens):
        level += 1
        fresh = []
        for members, gens in frontier:
            for g in range(table.order):
                if g in members:
                    continue
                bigger = table.closure(gens + (g,))
                if bigger not in found:
                    found[bigger] = gens + (g,)
                    fresh.append((bigger, gens + (g,)))
        frontier = fresh
    return found


def dihedral(m, relabel):
    """D_m as r^i s^j, relabelled so that r^i s^j gets index relabel[i + m j]."""
    def product(e, f):  # r^i s^j r^k s^l = r^(i + (-1)^j k) s^(j + l)
        i, j, k, l = e % m, e // m, f % m, f // m
        return (i + (k if j == 0 else -k)) % m + m * ((j + l) % 2)

    order = 2 * m
    table = [[0] * order for _ in range(order)]
    for e in range(order):
        for f in range(order):
            table[relabel[e]][relabel[f]] = relabel[product(e, f)]
    return GroupTable(table)


def assert_same_scan(table, max_gens):
    got = list(table.abelian_subgroups(max_gens).items())
    assert got == list(reference_abelian_subgroups(table, max_gens).items())


@pytest.mark.parametrize("max_gens", [1, 2, 3])
@pytest.mark.parametrize("delta", [(2,), (3,), (4,), (2, 2), (5,), (6,), (7,)])
def test_g1_scan_matches_reference(delta, max_gens):
    assert_same_scan(group_table(FinAbGroup(delta))[0], max_gens)


@pytest.mark.parametrize("delta", [(2,), (3,), (4,), (2, 2), (5,), (6,)])
def test_h_scan_matches_reference(delta):
    assert_same_scan(_h_group(FinAbGroup(delta))[1], None)


def product_table(moduli):
    """Z/m_1 x ... x Z/m_r, the tuple of residues numbered in product order."""
    elements = list(itertools.product(*(range(m) for m in moduli)))
    index = {e: i for i, e in enumerate(elements)}
    return GroupTable([[index[tuple((a + b) % m for a, b, m in zip(e, f, moduli))]
                        for f in elements] for e in elements])


def quaternion_table():
    """Q8 as s u for s in {1, -1} and u in {1, i, j, k}, numbered 4 (s == -1) + u."""
    units = {(0, 0): (1, 0), (1, 1): (-1, 0), (2, 2): (-1, 0), (3, 3): (-1, 0),
             (1, 2): (1, 3), (2, 3): (1, 1), (3, 1): (1, 2),
             (2, 1): (-1, 3), (3, 2): (-1, 1), (1, 3): (-1, 2)}

    def product(e, f):
        (s, u), (t, v) = divmod(e, 4), divmod(f, 4)
        sign, w = units.get((u, v)) or (1, u + v)  # a product with 1
        return 4 * ((s + t + (sign < 0)) % 2) + w

    return GroupTable([[product(e, f) for f in range(8)] for e in range(8)])


SMALL_GROUPS = {"Z/12": product_table([12]), "Z/2 x Z/6": product_table([2, 6]),
                "Q8": quaternion_table()}


@pytest.mark.parametrize("max_gens", [1, 2, None])
@pytest.mark.parametrize("name", SMALL_GROUPS)
def test_small_group_scans_match_reference(name, max_gens):
    assert_same_scan(SMALL_GROUPS[name], max_gens)


def test_quaternion_table_is_q8():
    table = SMALL_GROUPS["Q8"]
    orders = sorted(len(table.closure([g])) for g in range(8))
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]  # one involution, six elements of order 4
    assert not table.is_abelian_subset(range(8))
    assert reference_closure(table, range(8)) == frozenset(range(8))
    assert all(table[table[a][b]][c] == table[a][table[b][c]]
               for a, b, c in itertools.product(range(8), repeat=3))


@pytest.mark.parametrize("name", SMALL_GROUPS)
def test_scan_that_clears_every_power_misses_subgroups(name, monkeypatch):
    table = SMALL_GROUPS[name]
    monkeypatch.setattr(gtable, "gcd", lambda k, m: 1)  # every power read as a generator
    got = table.abelian_subgroups()
    reference = reference_abelian_subgroups(table)
    assert set(got) < set(reference)  # a cyclic subgroup of a cyclic extension is lost


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 12).flatmap(lambda m: st.tuples(
    st.just(m), st.permutations(range(2 * m)), st.sampled_from([1, 2, 3, None]))))
def test_dihedral_scan_matches_reference(case):
    m, relabel, max_gens = case
    table = dihedral(m, relabel)
    assert not table.is_abelian_subset(range(table.order))
    assert_same_scan(table, max_gens)


@pytest.mark.parametrize("delta", [(2,), (3,), (2, 2)])
def test_commuting_masks_match_the_table(delta):
    table = group_table(FinAbGroup(delta))[0]
    for g in range(table.order):
        assert [h for h in range(table.order) if table.commuting[g] >> h & 1] == [
            h for h in range(table.order) if table.commutes(g, h)]


DELTAS = [(2,), (3,), (4,), (2, 2), (5,), (6,)]  # every chain with N <= 6


@pytest.mark.parametrize("which", ["G1", "H"])
@pytest.mark.parametrize("delta", DELTAS)
def test_commuting_masks_match_a_per_bit_reference(delta, which):
    group = FinAbGroup(delta)
    table = group_table(group)[0] if which == "G1" else _h_group(group)[1]
    t = table.table
    reference = [sum(1 << h for h in range(table.order) if t[g][h] == t[h][g])
                 for g in range(table.order)]
    assert table.commuting == reference


@pytest.mark.parametrize("delta,read", [((4,), 31), ((2, 2), 47), ((5,), 31), ((6,), 97)])
def test_scan_computes_a_commuting_mask_only_for_an_extending_element(delta, read):
    group = FinAbGroup(delta)
    table = GroupTable(group_table(group)[0].table)  # a fresh table: no mask read yet
    found = table.abelian_subgroups(1 + 2 * group.rank)
    extending = {gens[-1] for gens in found.values() if gens}
    assert set(table._commuting) == extending and len(extending) == read < table.order
    t = table.table
    for g, mask in table._commuting.items():
        assert mask == sum(1 << h for h in range(table.order) if t[g][h] == t[h][g])


@pytest.mark.parametrize("which", ["G1", "H"])
@pytest.mark.parametrize("delta", DELTAS)
def test_closure_matches_the_two_sided_closure(delta, which):
    group = FinAbGroup(delta)
    table = group_table(group)[0] if which == "G1" else _h_group(group)[1]
    rng = random.Random(f"{delta}:{which}")
    for _ in range(12):
        gens = rng.sample(range(table.order), rng.randint(0, 3))
        assert table.closure(gens) == reference_closure(table, gens)
    assert table.closure(iter(gens)) == reference_closure(table, gens)  # a one-pass iterable


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 12).flatmap(lambda m: st.tuples(
    st.just(m), st.permutations(range(2 * m)), st.lists(st.integers(0, 2 * m - 1), max_size=3))))
def test_dihedral_closure_matches_the_two_sided_closure(case):
    m, relabel, gens = case
    table = dihedral(m, relabel)
    assert table.closure(gens) == reference_closure(table, gens)


@pytest.mark.parametrize("delta,max_gens", [((2,), None), ((3,), None), ((4,), 2), ((2, 2), 2)])
def test_subgroup_lattice_matches_the_two_sided_closure(delta, max_gens, monkeypatch):
    table = group_table(FinAbGroup(delta))[0]
    got = list(reference_subgroups(table, max_gens).items())
    monkeypatch.setattr(table, "closure", lambda gens: reference_closure(table, gens))
    assert got == list(reference_subgroups(table, max_gens).items())


def test_element_without_inverse_is_a_certificate_error():
    with pytest.raises(CertificateError, match="^element 1 has no inverse$"):
        GroupTable([[0, 1], [1, 1]])  # {0, 1} under max: 0 is the identity, 1 is idempotent
