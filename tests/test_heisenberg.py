"""The twisted product on mu_N x K x K^ and the minimal-abelian-index search."""

import itertools
import random

import pytest

from jordanlab import cli, heisenberg
from jordanlab.errors import BudgetExceeded, CertificateError, GroupMismatch
from jordanlab.finab import H_TABLE_BUDGET, FinAbGroup, KElement, is_isotropic, k_tables, pairing
from jordanlab.gtable import GroupTable
from jordanlab.heisenberg import (
    EXHAUSTIVE_CAP,
    HeisElement,
    commutator,
    elements,
    group_table,
    identity,
    label_commutator,
    label_product,
    lagrangian_labels,
    lagrangian_lift,
    min_abelian_index,
)
from jordanlab.scalars import RootOfUnity
from test_finab import chains
from test_gtable import reference_subgroups


def heis(group, a, x, ell):
    n = group.order
    return HeisElement(RootOfUnity(n, a), group.element(x), group.character(ell))


def test_mul_examples():
    g = FinAbGroup((2,))
    left = heis(g, 0, [1], [0]) * heis(g, 0, [0], [1])
    assert left == heis(g, 1, [1], [1])  # scalar chi(1) = -1
    right = heis(g, 0, [0], [1]) * heis(g, 0, [1], [0])
    assert right == heis(g, 0, [1], [1])  # trivial character at 0: no twist
    assert left != right  # noncommutativity in one pair
    e = identity(g)
    for elem in elements(g):
        assert e * elem == elem and elem * e == elem


def test_mul_group_mismatch():
    with pytest.raises(GroupMismatch):
        identity(FinAbGroup((2,))) * identity(FinAbGroup((3,)))


def test_inverse_examples():
    g = FinAbGroup((2,))
    e = identity(g)
    assert e.inverse() == e
    elem = heis(g, 0, [1], [1])
    assert elem.inverse() == heis(g, 1, [1], [1])  # (chi(1), x, chi)
    central = heis(g, 1, [0], [0])
    assert central.inverse() == central  # own inverse in mu_2
    for x in elements(g):
        assert (x * x.inverse()) == e
        assert (x.inverse() * x) == e


def test_commutator_examples():
    g = FinAbGroup((2,))
    central = heis(g, 1, [0], [0])
    a = heis(g, 0, [1], [0])
    b = heis(g, 0, [0], [1])
    assert commutator(central, a).is_one
    assert commutator(a, b) == RootOfUnity(2, 1)
    assert commutator(a, a).is_one


def test_projection():
    g = FinAbGroup((2,))
    central = heis(g, 1, [0], [0])
    assert central.project().is_zero
    elem = heis(g, 1, [1], [1])
    assert elem.project().x.coords == (1,) and elem.project().ell.coords == (1,)
    images = {e.project().sort_key() for e in elements(g)}
    assert len(images) == 4  # surjective onto H


@pytest.mark.parametrize("delta", [(2,), (3,)])
def test_associativity_exhaustive(delta):
    els = elements(FinAbGroup(delta))
    for a, b, c in itertools.product(els, repeat=3):
        assert (a * b) * c == a * (b * c)


def test_associativity_randomized_n6():
    els = elements(FinAbGroup((6,)))
    rng = random.Random(6)
    for _ in range(400):
        a, b, c = (rng.choice(els) for _ in range(3))
        assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("delta", [(2,), (3,), (4,), (2, 2)])
def test_scalars_are_central_and_commutator_matches_pairing(delta):
    g = FinAbGroup(delta)
    n = g.order
    els = elements(g)
    for k in range(n):
        central = HeisElement(RootOfUnity(n, k), g.zero(), g.trivial_character())
        for e in els[:: max(1, len(els) // 16)]:
            assert central * e == e * central
    for a, b in itertools.product(els, repeat=2):
        assert commutator(a, b) == pairing(a.project(), b.project())


@pytest.mark.parametrize("delta", [(2,), (3,), (4,), (2, 2)])
def test_abelian_iff_isotropic_image(delta):
    g = FinAbGroup(delta)
    table, els = group_table(g)
    found = reference_subgroups(table, max_gens=2 if g.order >= 4 else None)
    for members in found:
        subgroup = [els[i] for i in members]
        image_points = {e.project().sort_key(): e.project() for e in subgroup}
        abelian = table.is_abelian_subset(members)
        assert abelian == is_isotropic(list(image_points.values()))


@pytest.mark.parametrize("delta,expected", [((1,), 1), ((2,), 2), ((3,), 3), ((2, 2), 4)])
def test_min_abelian_index_examples(delta, expected):
    report = min_abelian_index(delta)
    assert report.exhaustive
    assert report.min_abelian_index == expected
    assert report.certified_lower_bound == expected
    assert report.witness_index == report.min_abelian_index
    # the witness generators really span an abelian subgroup of that index
    table, els = group_table(FinAbGroup(delta))
    index_of = {e: i for i, e in enumerate(els)}
    members = table.closure([index_of[g] for g in report.witness_generators])
    assert table.is_abelian_subset(members)
    assert report.group_order // len(members) == report.min_abelian_index


def test_min_abelian_index_respects_bound_up_to_5():
    values = []
    for n in range(1, 6):
        report = min_abelian_index((n,))
        assert report.min_abelian_index >= n
        values.append(report.min_abelian_index)
    assert values == [1, 2, 3, 4, 5]  # strictly increasing


def test_bounded_generators_match_full_lattice_up_to_4():
    for delta in [(2,), (3,), (4,), (2, 2)]:
        table, _ = group_table(FinAbGroup(delta))
        bounded = table.abelian_subgroups(max_gens=3)
        full = {m for m in reference_subgroups(table, max_gens=None) if table.is_abelian_subset(m)}
        assert set(bounded) == full


def test_exhaustive_scan_reaches_n9():
    assert EXHAUSTIVE_CAP == 9
    report = min_abelian_index((9,))
    assert report.exhaustive and report.subgroups_scanned == 206
    assert report.min_abelian_index == report.certified_lower_bound == 9


@pytest.mark.parametrize("delta", [(4, 2), (2, 2, 2)])
def test_generator_bound_reaches_every_abelian_subgroup(delta):
    # three generators would miss 9 abelian subgroups for (4, 2), and for
    # (2, 2, 2) every abelian subgroup of the minimal index 8
    full = group_table(FinAbGroup(delta))[0].abelian_subgroups(max_gens=None)
    report = min_abelian_index(delta)
    assert report.subgroups_scanned == len(full)
    assert report.witness_index == report.min_abelian_index == FinAbGroup(delta).order


def test_g1_table_budget_refuses_before_filling(monkeypatch):
    calls = 0
    add = KElement.__add__

    def counted(a, b):
        nonlocal calls
        calls += 1
        return add(a, b)

    monkeypatch.setattr(KElement, "__add__", counted)
    assert 10 ** 6 <= H_TABLE_BUDGET < 11 ** 6
    with pytest.raises(BudgetExceeded, match=(
            rf"^#G1\^2 = 1771561 table entries exceed H_TABLE_BUDGET {H_TABLE_BUDGET}$")):
        group_table(FinAbGroup((11,)))
    with pytest.raises(BudgetExceeded):
        min_abelian_index((11,), exhaustive_cap=11)
    assert calls == 0


def test_budget_gives_certificate_only():
    report = min_abelian_index((7,), exhaustive_cap=6)
    assert not report.exhaustive
    assert report.min_abelian_index is None
    assert report.certified_lower_bound == 7
    assert report.witness_index == 7  # index-N upper bound from the lagrangian lift


def test_lagrangian_lift():
    for delta in [(2,), (3,), (2, 2)]:
        g = FinAbGroup(delta)
        n = g.order
        lift = lagrangian_lift(g)
        assert len(lift) == n * n
        for a, b in itertools.product(lift[:10], repeat=2):
            assert a * b == b * a
        points = {e.project() for e in lift}
        assert is_isotropic(list(points))


def test_index_report_serialization():
    report = min_abelian_index((2,))
    data = report.to_dict()
    for key in ("delta", "N", "group_order", "min_abelian_index",
                "certified_lower_bound", "witness_generators"):
        assert key in data
    assert data["group_order"] == 8
    assert all({"a", "x", "ell"} <= set(g) for g in data["witness_generators"])


@pytest.mark.parametrize("delta", chains(6))
def test_group_table_matches_object_product(delta):
    assert FinAbGroup(delta).order <= EXHAUSTIVE_CAP
    table, els = group_table(FinAbGroup(delta))
    assert list(els) == sorted(elements(FinAbGroup(delta)), key=HeisElement.sort_key)
    assert table.table == GroupTable.from_elements(els, lambda a, b: a * b).table


@pytest.mark.parametrize("delta", chains(6))
def test_group_table_elements_read_as_the_sorted_tuple(delta):
    group = FinAbGroup(delta)
    reference = tuple(sorted(elements(group), key=HeisElement.sort_key))
    els = group_table(group)[1]
    assert len(els) == len(reference)
    assert tuple(els) == reference  # iteration order
    order = list(range(len(reference)))
    random.Random(f"{delta}").shuffle(order)
    assert [els[i] for i in order] == [reference[i] for i in order]  # indexing, in any order
    assert [els[-i] for i in range(1, len(els) + 1)] == list(reversed(reference))
    for past in (len(reference), -len(reference) - 1):
        with pytest.raises(IndexError):
            els[past]
    assert els[order[0]] is els[order[0]]  # built once, then kept
    mul = lambda a, b: a * b
    assert GroupTable.from_elements(els, mul).table == GroupTable.from_elements(reference, mul).table


def test_abstract_builds_only_the_witness_generators(monkeypatch):
    built = []
    init = HeisElement.__init__
    monkeypatch.setattr(HeisElement, "__init__",
                        lambda self, *args: built.append(self) or init(self, *args))
    group_table.cache_clear()
    report = cli.run_abstract((6,), cli.ISOTROPIC_SCAN_CAP)
    assert not report.failed
    witness = report.to_dict()["witness"]["witness_generators"]
    assert len(built) == len(witness) == 2  # not the 216 elements of G1
    assert [{"a": g.a.exponent, "x": list(g.x.coords), "ell": list(g.ell.coords)}
            for g in built] == witness


def reference_witness(table, found, lagr):
    """The witness as picked before: the least (index, sorted members) over the lift and
    every subgroup found, the lift kept on a tie."""
    best_members, best = lagr, (table.order // len(lagr), tuple(sorted(lagr)))
    for members in found:
        candidate = (table.order // len(members), tuple(sorted(members)))
        if candidate < best:
            best, best_members = candidate, members
    return best_members


@pytest.mark.parametrize("delta", chains(EXHAUSTIVE_CAP))
def test_witness_is_the_reference_pick(delta):
    group = FinAbGroup(delta)
    table, els = group_table(group)
    found = table.abelian_subgroups(1 + 2 * group.rank)
    members = reference_witness(table, found, lagrangian_labels(group))
    report = min_abelian_index(group)
    assert report.witness_generators == tuple(els[i] for i in table.generators(members))
    assert (report.witness_order, report.subgroups_scanned) == (len(members), len(found))


@pytest.mark.parametrize("delta", [(1,), (2,), (3,), (4,), (5,), (6,), (2, 2), (4, 2), (3, 3)])
def test_group_table_matches_the_per_entry_formula(delta):
    # (zeta^k, x, l) (zeta^k', x', l') = (zeta^(k + k' + chi[l'][x]), x + x', l l') on K's tables
    group = FinAbGroup(delta)
    n = group.order
    add, chi = k_tables(group)
    labels = list(itertools.product(range(n), repeat=3))  # (x, l, k) has index (x*n + l)*n + k
    table = group_table(group)[0].table
    for g, (x, l, k) in enumerate(labels):
        assert table[g] == [(add[x][x2] * n + add[l][l2]) * n + (k + chi[l2][x] + k2) % n
                            for x2, l2, k2 in labels], (delta, g)


@pytest.mark.parametrize("delta", chains(EXHAUSTIVE_CAP))
def test_labels_match_inverse_projection_and_lift(delta):
    group = FinAbGroup(delta)
    table, els = group_table(group)
    index_of = {e: i for i, e in enumerate(els)}
    h = group.h_elements()
    for g, e in enumerate(els):
        assert table.inverse[g] == index_of[e.inverse()]
        assert h[g // group.order] == e.project()
    assert lagrangian_labels(group) == {index_of[e] for e in lagrangian_lift(group)}


@pytest.mark.parametrize("n", range(1, EXHAUSTIVE_CAP + 1))
def test_label_law_matches_the_group_table(n):
    table = group_table(FinAbGroup((n,)))[0]
    labels = list(itertools.product(range(n), repeat=3))  # (i, j, k) has index (i*n + j)*n + k
    index = {ijk: e for e, ijk in enumerate(labels)}
    t, inv = table.table, table.inverse
    for g, u in enumerate(labels):
        assert t[g] == [index[label_product(n, u, v)] for v in labels]
        commutators = [t[t[t[g][h]][inv[g]]][inv[h]] for h in range(len(labels))]
        assert commutators == [index[(0, 0, label_commutator(n, u, v))] for v in labels]


def test_noncentral_commutator_raises(monkeypatch):
    g = FinAbGroup((3,))
    x, y = heis(g, 0, [1], [0]), heis(g, 0, [0], [1])
    monkeypatch.setattr(HeisElement, "inverse", lambda self: self)  # x y x y is not central
    with pytest.raises(CertificateError, match="escaped the center"):
        commutator(x, y)


def test_nonabelian_lagrangian_lift_raises(monkeypatch):
    monkeypatch.setattr(heisenberg, "lagrangian_labels",
                        lambda group: frozenset(range(group.order ** 3)))  # all of G1
    with pytest.raises(CertificateError, match="lagrangian lift"):
        min_abelian_index((2,))


def test_subgroup_beating_the_bound_raises(monkeypatch):
    def whole_group(self, max_gens=None):
        return {frozenset(range(self.order)): ()}

    monkeypatch.setattr(GroupTable, "abelian_subgroups", whole_group)
    with pytest.raises(CertificateError, match="beat the certified bound"):
        min_abelian_index((2,))
