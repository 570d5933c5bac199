"""Finite abelian groups, characters, the alternating pairing, isotropy."""

import pytest

from jordanlab.errors import BadDelta, BudgetExceeded, GroupMismatch, NotASubgroup, NotIsotropic
from jordanlab.finab import (
    FinAbGroup,
    HPoint,
    all_h_subgroups,
    h_tables,
    is_isotropic,
    isotropic_witness,
    orthogonal_complement,
    pairing,
    parse_delta,
    span_in,
)
from jordanlab.scalars import RootOfUnity

SMALL_DELTAS = [(2,), (3,), (4,), (2, 2)]


def hpoint(group, x, ell):
    return HPoint(group.element(x), group.character(ell))


def test_parse_delta():
    assert parse_delta("2,2") == (2, 2)
    assert parse_delta("4,2") == (4, 2)
    with pytest.raises(BadDelta):
        parse_delta("2,3")  # 3 does not divide 2
    with pytest.raises(BadDelta):
        parse_delta("0")
    with pytest.raises(BadDelta):
        parse_delta("x")


def test_group_basics():
    g = FinAbGroup((4, 2))
    assert g.order == 8 and g.exponent == 4
    assert len(g.elements()) == 8
    assert len(set(g.elements())) == 8
    assert g.h_order() == 64


def test_char_eval_examples():
    g = FinAbGroup((2,))
    chi = g.character([1])
    assert chi(g.element([1])) == RootOfUnity(2, 1)
    assert chi(g.element([0])).is_one
    assert g.trivial_character()(g.element([1])).is_one


def test_char_values_use_group_order_modulus():
    g = FinAbGroup((2, 2))
    chi = g.character([1, 0])
    value = chi(g.element([1, 1]))
    assert value.modulus == 4  # N = 4 even though the character has order 2
    assert value == RootOfUnity(4, 2)


def test_char_group_mismatch():
    g1, g2 = FinAbGroup((2,)), FinAbGroup((3,))
    with pytest.raises(GroupMismatch):
        g1.character([1])(g2.element([1]))
    with pytest.raises(GroupMismatch):
        pairing(g1.h_zero(), g2.h_zero())


def test_pairing_examples():
    g = FinAbGroup((2,))
    h1 = hpoint(g, [1], [0])
    h2 = hpoint(g, [0], [1])
    assert pairing(h1, h2) == RootOfUnity(2, 1)  # -1
    g3 = FinAbGroup((3,))
    assert pairing(hpoint(g3, [1], [0]), hpoint(g3, [0], [1])) == RootOfUnity(3, 1)
    for h in g.h_elements():
        assert pairing(h, h).is_one


@pytest.mark.parametrize("delta", SMALL_DELTAS + [(6,), (3, 3)])
def test_pairing_is_alternating_and_nondegenerate(delta):
    g = FinAbGroup(delta)
    h = g.h_elements()
    for a in h:
        assert pairing(a, a).is_one
        if not a.is_zero:
            assert any(not pairing(a, b).is_one for b in h)
    for a in h:
        for b in h:
            assert pairing(a, b) == pairing(b, a).inverse()


@pytest.mark.parametrize("delta", SMALL_DELTAS + [(6,)])
def test_pairing_is_bi_additive(delta):
    g = FinAbGroup(delta)
    h = g.h_elements()
    for a in h:
        for b in h:
            for c in h:
                assert pairing(a + b, c) == pairing(a, c) * pairing(b, c)
                assert pairing(a, b + c) == pairing(a, b) * pairing(a, c)


def test_span_examples():
    g = FinAbGroup((2,))
    assert span_in(g, ()).order == 1
    e = span_in(g, (hpoint(g, [1], [0]),))
    assert e.order == 2
    g22 = FinAbGroup((2, 2))
    gens = (hpoint(g22, [1, 0], [0, 0]), hpoint(g22, [0, 1], [0, 0]))
    assert span_in(g22, gens).order == 4


def test_span_budget():
    tight = FinAbGroup((145,))  # N^2 = 21025 > 20736
    with pytest.raises(BudgetExceeded):
        span_in(tight, ())


def test_is_isotropic_examples():
    g = FinAbGroup((2,))
    assert is_isotropic(span_in(g, ()))
    k_part = span_in(g, (hpoint(g, [1], [0]),))
    assert is_isotropic(k_part)
    assert not is_isotropic(span_in(g, tuple(g.h_elements())))
    with pytest.raises(NotASubgroup):
        is_isotropic([hpoint(g, [1], [0])])  # missing identity


def test_orthogonal_complement_examples():
    g = FinAbGroup((2,))
    assert orthogonal_complement(span_in(g, ())).order == 4
    k_part = span_in(g, (hpoint(g, [1], [0]),))
    assert orthogonal_complement(k_part).elements == k_part.elements  # Lagrangian
    g22 = FinAbGroup((2, 2))
    k22 = span_in(g22, (hpoint(g22, [1, 0], [0, 0]), hpoint(g22, [0, 1], [0, 0])))
    assert orthogonal_complement(k22).elements == k22.elements


def test_isotropic_witness_examples():
    g = FinAbGroup((2,))
    w = isotropic_witness(span_in(g, (hpoint(g, [1], [0]),)))
    assert w.index == 2 and w.index % g.order == 0
    g3 = FinAbGroup((3,))
    w0 = isotropic_witness(span_in(g3, ()))
    assert w0.index == 9 and w0.index % 3 == 0
    g22 = FinAbGroup((2, 2))
    w22 = isotropic_witness(
        span_in(g22, (hpoint(g22, [1, 0], [0, 0]), hpoint(g22, [0, 1], [0, 0])))
    )
    assert w22.index == 4 == g22.order
    with pytest.raises(NotIsotropic):
        isotropic_witness(span_in(g, tuple(g.h_elements())))


@pytest.mark.parametrize("delta", SMALL_DELTAS)
def test_every_isotropic_subgroup_has_index_divisible_by_n(delta):
    g = FinAbGroup(delta)
    n = g.order
    subgroups = all_h_subgroups(g)
    isotropic = [s for s in subgroups if is_isotropic(s)]
    assert isotropic, "the trivial subgroup is always isotropic"
    for s in isotropic:
        w = isotropic_witness(s)
        assert n % s.order == 0
        assert w.index % n == 0
        assert set(s.elements) <= set(w.complement.elements)
        assert w.complement.order * s.order == g.h_order()


def test_subgroup_lattice_sizes():
    # (Z/2)^2 has 5 subgroups; (Z/2)^4 has 67
    assert len(all_h_subgroups(FinAbGroup((2,)))) == 5
    assert len(all_h_subgroups(FinAbGroup((2, 2)))) == 67


@pytest.mark.parametrize("delta", SMALL_DELTAS + [(6,)])
def test_h_tables_match_object_operations(delta):
    g = FinAbGroup(delta)
    h, add, gram = h_tables(g, pairing)
    assert h == g.h_elements()
    for i, a in enumerate(h):
        for j, b in enumerate(h):
            assert h[add[i][j]] == a + b
            assert RootOfUnity(g.order, gram[i][j]) == pairing(a, b)
