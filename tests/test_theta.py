"""Theta group of the degree-one bundle: product law, commutators, transport."""

import functools
import itertools
import json
import random
from pathlib import Path

import pytest

from jordanlab import claims, cli, ellcurve, theta
from jordanlab.cli import main
from jordanlab.ellcurve import (
    Curve,
    CurvePoint,
    Divisor,
    TrackedFunction,
    affine_points,
    enumerate_points,
    iter_admissible_curves,
    miller_function,
    torsion_subgroup,
    weil_pairing,
    weil_pairing_table,
)
from jordanlab.errors import (
    BasisMismatch,
    BudgetExceeded,
    CertificateError,
    DegenerateAfterRetries,
    EvalAtSupport,
    LevelMismatch,
    NotAdmissible,
    NotTorsion,
    ScaleNotRootOfUnity,
    ZeroScale,
)
from jordanlab.finab import FinAbGroup
from jordanlab.heisenberg import HeisElement, group_table, label_commutator
from jordanlab.scalars import RootOfUnity, multiplicative_order, mu_generator, nth_root
from jordanlab.theta import (
    ThetaElement,
    certify_divisor,
    find_theta_curve,
    h_of_level,
    mu_commutator,
    mu_inverse,
    mu_product,
    orientation_sigma,
    symplectic_basis,
    theta_commutator,
    theta_enumerate_mu,
    theta_identity,
    theta_inv,
    theta_make,
    theta_mul,
    theta_power,
    theta_equal,
    theta_structure,
    theta_to_heisenberg,
)

C2 = find_theta_curve(2)  # (7, 3, 0)
C3 = find_theta_curve(3)  # (13, 7, 0)


def test_found_theta_curves_are_the_expected_ones():
    assert (C2.p, C2.a.value, C2.b.value) == (7, 3, 0)
    assert (C3.p, C3.a.value, C3.b.value) == (13, 7, 0)


def test_h_of_level_orders():
    assert h_of_level(C2, 1).elements == (C2.infinity(),)
    level2 = h_of_level(C2, 2)
    assert level2.order == 4
    assert set(level2.elements) == set(torsion_subgroup(C2, 2))
    level3 = h_of_level(C3, 3)
    assert level3.order == 9
    assert set(level3.elements) == set(torsion_subgroup(C3, 3))


def test_h_of_level_reads_e_n_without_multiplying_by_n(monkeypatch):
    torsion_subgroup(C3, 3)  # E[3], listed once for the structure
    factors, honest = [], CurvePoint.__rmul__
    monkeypatch.setattr(CurvePoint, "__rmul__", lambda x, k: factors.append(k) or honest(x, k))
    assert h_of_level(C3, 3).elements == torsion_subgroup(C3, 3)
    assert factors and set(factors) <= {-1, 1}  # the principality scan's point sums only


def test_theta_verify_lists_e_n_once_per_curve(monkeypatch):
    listed, honest = [], ellcurve.torsion_subgroup.__wrapped__
    counted = functools.lru_cache(maxsize=None)(
        lambda curve, n: listed.append((curve, n)) or honest(curve, n))
    monkeypatch.setattr(theta, "torsion_subgroup", counted)
    monkeypatch.setattr(theta, "_STRUCTURES", {})
    assert main(["theta-verify", "--n", "3", "--p", "13", "--a", "7", "--b", "0"]) == 0
    assert listed == [(C3, 3)]
    listed.clear()
    assert main(["theta-verify", "--n", "4"]) == 0  # the search tries several curves
    assert (theta_curve(4), 4) in listed and len(set(listed)) == len(listed)


def test_h_of_level_not_admissible():
    with pytest.raises(NotAdmissible):
        h_of_level(C2, 3)  # no full 3-torsion on this curve


def test_theta_make_shapes():
    o = C2.infinity()
    e = theta_make(2, o, 1)
    assert e.f.divisor().is_zero
    for x in torsion_subgroup(C2, 2):
        g = theta_make(2, x, 1)
        expected = (
            Divisor.zero(C2)
            if x.is_infinity
            else Divisor.of(C2, [(o, 2), (-x, -2)])
        )
        assert g.f.divisor() == expected
    for x in torsion_subgroup(C3, 3):
        g = theta_make(3, x, 5)
        if not x.is_infinity:
            assert g.f.divisor() == Divisor.of(C3, [(C3.infinity(), 3), (-x, -3)])
    with pytest.raises(ZeroScale):
        theta_make(2, o, 0)
    non_torsion = next(p for p in enumerate_points(C3) if not (2 * p).is_infinity)
    with pytest.raises(NotTorsion):
        theta_make(2, non_torsion, 1)


def test_theta_mul_examples():
    e = theta_identity(C2, 2)
    t = torsion_subgroup(C2, 2)
    g = theta_make(2, t[0], 3)
    assert theta_equal(theta_mul(e, g), g)
    assert theta_equal(theta_mul(g, e), g)
    # central elements multiply as scalars
    c1 = theta_make(2, C2.infinity(), 2)
    c2 = theta_make(2, C2.infinity(), 4)
    prod = theta_mul(c1, c2)
    assert prod.x.is_infinity and prod.f.constant_value() == C2.fe(8 % 7)
    # point parts add by the group law
    h = theta_make(2, t[1], 1)
    assert theta_mul(g, h).x == t[0] + t[1]
    with pytest.raises(LevelMismatch):
        theta_mul(theta_make(2, t[0], 1), theta_make(3, torsion_subgroup(C3, 3)[0], 1))


def test_theta_inv():
    e = theta_identity(C2, 2)
    assert theta_equal(theta_inv(e), e)
    for x in torsion_subgroup(C2, 2):
        g = theta_make(2, x, 5)
        assert theta_equal(theta_mul(g, theta_inv(g)), e)
        assert theta_equal(theta_mul(theta_inv(g), g), e)
    c = theta_make(2, C2.infinity(), 3)
    assert theta_inv(c).f.constant_value() == C2.fe(3).inverse()


def test_theta_commutator_properties():
    tor = [x for x in torsion_subgroup(C2, 2) if not x.is_infinity]
    g = theta_make(2, tor[0], 1)
    h = theta_make(2, tor[1], 1)
    central = theta_make(2, C2.infinity(), 5)
    assert theta_commutator(central, g) == C2.fe(1)
    assert theta_commutator(g, g) == C2.fe(1)
    value = theta_commutator(g, h)
    assert value ** 2 == C2.fe(1) and value != C2.fe(1)
    # scale parts are central: commutator ignores them
    assert theta_commutator(theta_make(2, tor[0], 4), theta_make(2, tor[1], 6)) == value


def test_commutator_is_bimultiplicative():
    structure = theta_structure(C3, 3)
    section = list(structure.section.values())
    for g1, g2, h in itertools.product(section[:5], section[:5], section[:5]):
        lhs = theta_commutator(theta_mul(g1, g2), h)
        assert lhs == theta_commutator(g1, h) * theta_commutator(g2, h)


def test_commutator_matches_weil_up_to_global_orientation():
    for curve, n in [(C2, 2), (C3, 3)]:
        sigma = orientation_sigma(curve, n)
        assert sigma == -1
        gen = mu_generator(curve.p, n)
        tor = torsion_subgroup(curve, n)
        for x, y in itertools.product(tor, repeat=2):
            comm = theta_commutator(theta_make(n, x), theta_make(n, y))
            expected = (weil_pairing(x, y, n) ** sigma).embed_in_field(curve.p, gen)
            assert comm == expected


def test_symplectic_basis():
    p1, q1 = symplectic_basis(C2, 2)
    assert weil_pairing(p1, q1, 2).order() == 2
    assert symplectic_basis(C2, 2) == (p1, q1)  # deterministic
    p3, q3 = symplectic_basis(C3, 3)
    assert weil_pairing(p3, q3, 3).order() == 3
    # every torsion point decomposes uniquely over the basis
    combos = {(i * p3 + j * q3) for i in range(3) for j in range(3)}
    assert combos == set(torsion_subgroup(C3, 3))


def test_symplectic_basis_rejects_obstructed_curve():
    # full 2-torsion but no order-2 lifts over F_7: transport impossible
    with pytest.raises(NotAdmissible):
        symplectic_basis(Curve.make(7, 0, 1), 2)
    # full 2-torsion but no points beyond it: evaluations degenerate
    with pytest.raises(NotAdmissible):
        symplectic_basis(Curve.make(5, 1, 0), 2)


def test_theta_enumerate_mu_sizes_and_closure():
    els2 = theta_enumerate_mu(C2, 2)
    assert len(els2) == 8
    els3 = theta_enumerate_mu(C3, 3)
    assert len(els3) == 27
    with pytest.raises(BudgetExceeded):
        theta_enumerate_mu(C2, 9)


def test_transport_identity_and_center():
    structure = theta_structure(C2, 2)
    basis = structure.basis
    group = FinAbGroup((2,))
    e = theta_identity(C2, 2)
    assert theta_to_heisenberg(e, basis) == HeisElement(
        RootOfUnity(2, 0), group.zero(), group.trivial_character()
    )
    central = theta_make(2, C2.infinity(), structure.t)
    img = theta_to_heisenberg(central, basis)
    assert img.x.is_zero and img.ell.is_trivial and img.a == RootOfUnity(2, 1)


def test_transport_rejects_scale_outside_mu():
    structure = theta_structure(C2, 2)
    bad = theta_make(2, C2.infinity(), 3)  # 3 has order 6 in F_7^*, not in mu_2
    assert multiplicative_order(C2.fe(3)) == 6
    with pytest.raises(ScaleNotRootOfUnity):
        theta_to_heisenberg(bad, structure.basis)


def test_transport_rejects_wrong_basis():
    structure = theta_structure(C2, 2)
    p1, q1 = structure.basis
    with pytest.raises(BasisMismatch):
        theta_to_heisenberg(theta_identity(C2, 2), (q1, p1))


@pytest.mark.parametrize("curve,n", [(C2, 2), (C3, 3)])
def test_transport_is_a_multiplication_table_isomorphism(curve, n):
    structure = theta_structure(curve, n)
    elements = theta_enumerate_mu(curve, n)
    images = [structure.to_heisenberg(g) for g in elements]
    assert len({img.sort_key() for img in images}) == n ** 3  # bijective
    for (g, img_g), (h, img_h) in itertools.product(zip(elements, images), repeat=2):
        assert structure.to_heisenberg(theta_mul(g, h)) == img_g * img_h


@pytest.mark.parametrize("curve,n", [(C2, 2), (C3, 3)])
def test_theta_group_axioms_on_mu_layer(curve, n):
    structure = theta_structure(curve, n)
    elements = theta_enumerate_mu(curve, n)
    e = theta_identity(curve, n)
    # identity and inverses elementwise; associativity via the faithful image
    images = [structure.to_heisenberg(g) for g in elements]
    for g in elements:
        assert theta_equal(theta_mul(e, g), g)
        assert theta_equal(theta_mul(g, theta_inv(g)), e)
    for a, b, c in itertools.product(images, repeat=3):
        assert (a * b) * c == a * (b * c)


def test_theta_power_closes():
    structure = theta_structure(C3, 3)
    for ij, s in structure.section.items():
        cube = certify_divisor(theta_power(s, 3))
        assert cube.x.is_infinity
        value = cube.f.constant_value()
        assert value ** 3 == C3.fe(1)


def test_mu_layer_min_abelian_index_transports():
    # the transported witness: abelian subgroups of the image have index >= n
    from jordanlab.heisenberg import min_abelian_index

    for curve, n in [(C2, 2), (C3, 3)]:
        structure = theta_structure(curve, n)
        elements = theta_enumerate_mu(curve, n)
        images = {structure.to_heisenberg(g).sort_key() for g in elements}
        assert len(images) == n ** 3
        report = min_abelian_index((n,))
        assert report.min_abelian_index == n


@pytest.mark.parametrize("curve,n", [(C2, 2), (C3, 3)])
def test_value_tables_match_the_object_layer(curve, n):
    structure = theta_structure(curve, n)
    tables = structure.tables
    elements = theta_enumerate_mu(curve, n)
    images = [structure.to_heisenberg(g) for g in elements]
    assert set(tables.points) == set(torsion_subgroup(curve, n))
    assert set(tables.others) == set(enumerate_points(curve)) - set(tables.points)
    assert tables.others  # symplectic_basis requires #E > n^2

    def values(g):
        return tables.points.index(g.x), tuple(g.f(s).value for s in tables.others)

    # every layer vector is its own function evaluated on S, and so are inverses
    labels = structure.mu_labels()
    vectors = [tables.vector(*ijk) for ijk in labels]
    assert vectors == [values(g) for g in elements]
    for g, vec in zip(elements, vectors):
        assert mu_inverse(tables, vec) == values(theta_inv(g))
    # the located vector product is the object product, transported
    for (i, g), (j, h) in itertools.product(enumerate(elements), repeat=2):
        k = labels.index(tables.locate(mu_product(tables, vectors[i], vectors[j])))
        assert images[k] == structure.to_heisenberg(theta_mul(g, h))
    # the label t^k s(i, j) -> (i*n + j)*n + k names each element's transport in G1
    g1 = group_table(FinAbGroup((n,)))[1]
    assert sorted(labels) == list(itertools.product(range(n), repeat=3))  # all distinct
    for e, (i, j, k) in enumerate(labels):
        assert g1[(i * n + j) * n + k] == structure.to_heisenberg(elements[e])
    # every section commutator is theta_commutator's value
    vectors = section_vectors(structure)
    for (a, g), (b, h) in itertools.product(structure.section.items(), repeat=2):
        value = mu_commutator(tables, vectors[a], vectors[b])
        assert value == theta_commutator(g, h).value


@pytest.mark.parametrize("n", [2, 3, 4])
def test_vector_and_locate_are_inverse_and_match_the_objects(n):
    curve = find_theta_curve(n)  # (7, 3, 0), (13, 7, 0) and the level-4 curve
    structure = theta_structure(curve, n)
    tables = structure.tables
    p = curve.p
    labels = list(itertools.product(range(n), repeat=3))
    for ijk in labels:
        g = tables.vector(*ijk)
        assert tables.locate(g) == ijk
        element = structure.element(*ijk)
        assert g == (tables.points.index(element.x),
                     tuple(ellcurve.function_values(element.f, tables.others)))
    # off the layer: one entry changed, a scale outside mu_n, a section over another point
    outside = next(c for c in range(2, p) if pow(c, n, p) != 1)
    for i, j, k in labels:
        x, values = tables.vector(i, j, k)
        for s in (0, len(values) - 1):
            changed = values[:s] + (values[s] * outside % p,) + values[s + 1:]
            assert tables.locate((x, changed)) is None
        assert tables.locate((x, tuple(v * outside % p for v in values))) is None
        for y in range(n * n):
            if y != x:
                assert tables.locate((y, values)) is None


def section_vectors(structure):
    """The layer vector of each s(i, j), built as the label (i, j, 0)."""
    return {ij: structure.tables.vector(*ij, 0) for ij in structure.section}


def assert_layer_is_the_objects_evaluated(curve, n):
    structure = theta_structure(curve, n)
    tables = structure.tables
    assert [tables.vector(*ijk) for ijk in structure.mu_labels()] == [
        (tables.points.index(g.x), tuple(ellcurve.function_values(g.f, tables.others)))
        for g in structure.mu_elements()]


@pytest.mark.parametrize("n", range(2, 9))
def test_layer_from_the_lifts_is_the_objects_evaluated_on_the_found_curves(n):
    assert_layer_is_the_objects_evaluated(theta_curve(n), n)


def test_layer_from_the_lifts_is_the_objects_evaluated_on_the_pool():
    for abc in POOL[:20]:
        assert_layer_is_the_objects_evaluated(Curve.make(*abc), 3)


def assert_structure_is_the_object_build(curve, n):
    """t, the points, the labels and the section as the structure built them before from
    objects: t the certified object commutator of the lifts, s(i, j) their theta_mul
    products, E[n] the points of s(i, j) and the labels sorted by them."""
    structure = theta_structure(curve, n)
    t = theta_commutator(*structure.lifts)
    assert structure.t == t
    a_pow, b_pow = (list(itertools.accumulate([g] * (n - 1), theta_mul,
                                              initial=theta_identity(curve, n)))
                    for g in structure.lifts)
    section = {(i, j): theta_mul(a_pow[i], b_pow[j]).scaled(t ** ((-i * j) % n))
               for i in range(n) for j in range(n)}
    decomposition = {elem.x: ij for ij, elem in section.items()}
    assert list(structure.decomposition.items()) == list(decomposition.items())
    assert structure.mu_labels() == sorted(itertools.product(range(n), repeat=3),
                                           key=lambda ijk: (section[ijk[:2]].x.sort_key(), ijk[2]))
    assert structure.section == section


@pytest.mark.parametrize("n", range(2, 9))
def test_structure_is_the_object_build_on_the_found_curves(n):
    assert_structure_is_the_object_build(theta_curve(n), n)


def test_structure_is_the_object_build_on_the_pool():
    for abc in POOL[:20]:
        assert_structure_is_the_object_build(Curve.make(*abc), 3)


def test_structures_are_built_without_object_products(monkeypatch):
    for name in ("theta_mul", "theta_commutator"):
        monkeypatch.setattr(theta, name, lambda *args, name=name: pytest.fail(f"{name} called"))
    monkeypatch.setattr(theta, "_STRUCTURES", {})
    for n in (2, 3, 4):
        find_theta_curve(n)
    assert len(theta._STRUCTURES) == 3
    theta._STRUCTURES.clear()
    assert main(["nonjordan", "--n-max", "4"]) == 0
    assert len(theta._STRUCTURES) == 3


def test_non_primitive_t_is_a_certificate_error(capsys, monkeypatch):
    # t^2 has order 2 at level 4: a fault, so the search stops there instead of skipping
    structure = theta_structure(theta_curve(4), 4)  # honest, built before the doctoring
    honest = theta.mu_commutator
    monkeypatch.setattr(theta, "mu_commutator",
                        lambda tables, g, h: pow(honest(tables, g, h), 2, tables.p))
    monkeypatch.setattr(theta, "_STRUCTURES", {})
    with pytest.raises(CertificateError, match="is not a primitive level-4 root"):
        find_theta_curve(4)
    assert main(["theta-verify", "--n", "4"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: CertificateError: commutator of the lifts (A, B) = ({!r}, {!r}): "
                       "value {} is not a primitive level-4 root\n".format(
                           *structure.lifts, (structure.t ** 2).value))


def test_basis_that_does_not_generate_is_a_certificate_error(capsys, monkeypatch):
    honest = theta._liftable_basis
    monkeypatch.setattr(theta, "_liftable_basis", lambda cosets: (honest(cosets)[0],) * 2)
    monkeypatch.setattr(theta, "_STRUCTURES", {})
    with pytest.raises(CertificateError, match=r"does not generate E\[3\]"):
        find_theta_curve(3)
    assert main(["theta-verify", "--n", "3", "--p", "13", "--a", "7", "--b", "0"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    p1 = honest(theta._Cosets(C3, 3))[0][0].x
    assert out.err == f"error: CertificateError: ({p1!r}, {p1!r}) does not generate E[3]\n"


def test_lift_constant_without_a_root_is_a_certificate_error(monkeypatch):
    # 2 is no cube mod 13, so the doctored constant of P has no cube root
    honest = theta._liftable_basis
    monkeypatch.setattr(theta, "_liftable_basis", lambda cosets: tuple(
        (g, values, c * 2 if i == 0 else c) for i, (g, values, c) in enumerate(honest(cosets))))
    monkeypatch.setattr(theta, "_STRUCTURES", {})
    assert nth_root(C3.fe(2), 3) is None
    with pytest.raises(CertificateError, match="no order-3 lift over "):
        find_theta_curve(3)


def test_find_theta_curve_skips_a_degenerate_curve(monkeypatch):
    first = find_theta_curve(2)
    pairing_of = theta.weil_pairing

    def degenerate_on_first(p1, p2, n, **kwargs):
        if p1.curve == first:
            raise DegenerateAfterRetries(f"doctored on {first!r}")
        return pairing_of(p1, p2, n, **kwargs)

    monkeypatch.setattr(theta, "_STRUCTURES", {})
    monkeypatch.setattr(theta, "weil_pairing", degenerate_on_first)
    found = find_theta_curve(2)
    # the next curve the unpatched search would accept
    later = (c for c in iter_admissible_curves(2, 200)
             if (c.p, c.a.value, c.b.value) > (first.p, first.a.value, first.b.value)
             and c.point_count() > 4)
    for curve in later:
        try:
            theta_structure(curve, 2)
        except NotAdmissible:
            continue
        break
    assert found == curve != first


def test_products_derive_no_divisor(monkeypatch):
    structure = theta_structure(C3, 3)
    g, h = structure.section[(1, 0)], structure.section[(1, 2)]
    calls = 0
    honest = TrackedFunction.divisor

    def counted(self):
        nonlocal calls
        calls += 1
        return honest(self)

    monkeypatch.setattr(TrackedFunction, "divisor", counted)
    made = [theta_mul(g, h), theta_inv(g), g.scaled(5), theta_power(h, 4), theta_power(g, -2)]
    assert calls == 0
    for e in made:
        certify_divisor(e)
    assert calls == len(made)


@pytest.mark.parametrize("curve,n", [(C2, 2), (C3, 3)])
def test_products_keep_the_divisor_law(curve, n):
    # div(T_x^* h * f) = T_x^* div h + div f: what lets theta_mul skip the check
    layer = theta_enumerate_mu(curve, n)
    pairs = list(itertools.product(layer, repeat=2))
    for g, h in pairs[::max(1, len(pairs) // 80)]:
        certify_divisor(theta_mul(g, h))
        certify_divisor(theta_inv(g))
        certify_divisor(theta_power(g, n + 1))


def test_certify_divisor_rejects_a_wrong_function(monkeypatch):
    x = theta_structure(C3, 3).basis[0]
    g = theta_make(3, x)
    with pytest.raises(CertificateError, match="!= required"):
        certify_divisor(ThetaElement(3, x, g.f * g.f))
    # theta_mul without T_x^*: the point is right, the function is not
    with pytest.raises(CertificateError, match="!= required"):
        certify_divisor(ThetaElement(3, x + x, g.f * g.f))
    # theta_make certifies the function it is handed
    monkeypatch.setattr(theta, "miller_function", lambda n, p: miller_function(n, p) ** 2)
    with pytest.raises(CertificateError, match="!= required"):
        theta_make(3, x)


def test_only_elements_over_o_have_a_scalar():
    x = theta_structure(C3, 3).basis[0]
    assert theta._scalar(theta_make(3, C3.infinity(), 5)) == C3.fe(5)
    with pytest.raises(CertificateError, match="does not lie over O"):
        theta._scalar(theta_make(3, x))


def test_commutator_certifies_its_divisor(monkeypatch):
    a, b = theta_structure(C3, 3).basis
    g, h = theta_make(3, a), theta_make(3, b)
    monkeypatch.setattr(theta, "theta_mul",
                        lambda g, h: ThetaElement(g.level, g.x + h.x, h.f * g.f))
    with pytest.raises(CertificateError, match="!= required 0"):
        theta_commutator(g, h)


def test_structure_certifies_the_lifts_and_t_and_no_section_element(monkeypatch):
    monkeypatch.setattr(theta, "_STRUCTURES", {})
    certified, made = [], []
    honest, make = theta.certify_divisor, theta.theta_make

    def recorded(g):
        certified.append(g)
        return honest(g)

    monkeypatch.setattr(theta, "certify_divisor", recorded)
    monkeypatch.setattr(theta, "theta_make",
                        lambda n, x, scale=1: made.append(make(n, x, scale)) or made[-1])
    structure = theta_structure(C3, 3)
    assert structure.tables.sections  # multiplied out from the lifts, certifying nothing more
    assert structure.section  # built on first use, certifying nothing either
    # A and B are certified lifts rescaled: a constant leaves the divisor as it is
    assert all(any(g.x == c.x and g.f.atoms == c.f.atoms for c in certified)
               for g in structure.lifts)
    assert not any(g is c for g in structure.section.values() for c in certified)
    # certify_divisor sees theta_make's outputs only; t is read off the vector
    # commutator of the lifts, and the certified object commutator agrees
    assert all(any(c is g for g in made) for c in certified)
    assert structure.t == theta_commutator(*structure.lifts)


def test_structure_reuses_the_liftability_constant(monkeypatch):
    monkeypatch.setattr(theta, "_STRUCTURES", {})
    made, powers, evaluated, valued = [], [], [], []
    make, power, lift_power = theta.theta_make, theta.theta_power, theta._lift_power
    values = theta.function_values
    monkeypatch.setattr(theta, "theta_make",
                        lambda n, x, scale=1: made.append((x, scale)) or make(n, x, scale))
    monkeypatch.setattr(theta, "theta_power", lambda g, k: powers.append(g.x) or power(g, k))
    monkeypatch.setattr(theta, "_lift_power",
                        lambda cosets, x: evaluated.append(x) or lift_power(cosets, x))
    monkeypatch.setattr(theta, "function_values",
                        lambda fn, points: valued.append(fn) or values(fn, points))
    structure = theta_structure(C3, 3)
    assert powers == []  # the n-th powers are evaluated, not multiplied out
    # one Miller lift built and evaluated per point tried, and nothing more
    assert made == [(x, 1) for x in evaluated] and len(valued) == len(evaluated)
    for x, lift in zip(structure.basis, structure.lifts):
        assert [scale for y, scale in made if y == x] == [1]  # the rescaled lift is no new build
        assert evaluated.count(x) == 1  # one n-th power, in symplectic_basis
        assert valued.count(make(3, x).f) == 1  # one vector on S, which the tables rescale
        assert certify_divisor(power(lift, 3)).f.constant_value() == C3.fe(1)


def test_wrong_lift_scale_fails_exact_order(monkeypatch):
    monkeypatch.setattr(theta, "_STRUCTURES", {})
    honest = theta.nth_root
    monkeypatch.setattr(theta, "nth_root",
                        lambda value, n: None if honest(value, n) is None else honest(value, n) * 2)
    with pytest.raises(CertificateError, match="rescaled lift failed to have exact order n"):
        theta_structure(C3, 3)


def test_level_one_has_no_structure(monkeypatch):
    monkeypatch.setattr(theta, "_STRUCTURES", {})
    with pytest.raises(NotAdmissible, match="no admissible symplectic basis"):
        theta_structure(C2, 1)


def test_theta_equal_is_false_for_functions_with_different_divisors():
    g = next(e for e in theta_enumerate_mu(C2, 2) if not e.x.is_infinity)
    h = ThetaElement(2, g.x, TrackedFunction.one(C2))
    assert g.f.divisor() != h.f.divisor()
    assert not theta_equal(g, h) and not theta_equal(h, g)
    assert theta_equal(g, g.scaled(1)) and not theta_equal(g, g.scaled(-1))


# ---------------------------------------------------------------------------
# pairings and lift constants from Miller values on integer points

POOL = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "expected.json")
                  .read_text())["theta_pool"]


@functools.cache
def theta_curve(n):
    return find_theta_curve(n)


@pytest.mark.parametrize("abc,n", [((7, 3, 0), 2), ((11, 1, 2), 2),
                                   (tuple(POOL[0]), 3), (tuple(POOL[3]), 3)])
def test_product_value_is_the_entry_of_the_vector_product(abc, n):
    structure = theta_structure(Curve.make(*abc), n)
    tables = structure.tables
    labels = structure.mu_labels()
    for u, v in itertools.product(labels, repeat=2):
        product = mu_product(tables, tables.vector(*u), tables.vector(*v))[1]
        assert [tables.product_value(u, v, s) for s in range(len(product))] == list(product)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_pairing_table_equals_weil_pairing_on_every_pair(n):
    curve = theta_curve(n)
    torsion = list(torsion_subgroup(curve, n))
    for seed in range(3):
        assert weil_pairing_table(torsion, n, seed) == [
            [weil_pairing(x, y, n, seed).exponent for y in torsion] for x in torsion]


def first_draw_misses(curve, n, seed, torsion):
    """The pairs whose quotient meets a support at weil_pairing's first draw."""
    rng = random.Random(f"{seed}:{curve.p}:{n}")
    r, s = rng.choice(affine_points(curve)), rng.choice(affine_points(curve))
    missed = []
    for P, Q in itertools.product([x for x in torsion if not x.is_infinity], repeat=2):
        fa, fb = miller_function(n, P).translate(-r), miller_function(n, Q).translate(-s)
        try:
            (fa(Q + s) / fa(s)) / (fb(P + r) / fb(r))
        except EvalAtSupport:
            missed.append((P, Q))
    return missed


def test_pairing_table_retries_a_pair_whose_first_offsets_meet_a_support(monkeypatch):
    curve, n, seed = theta_curve(2), 2, 0
    torsion = list(torsion_subgroup(curve, n))
    missed = first_draw_misses(curve, n, seed, torsion)
    assert missed
    with monkeypatch.context() as patch:  # the table takes the next draw itself
        patch.setattr(ellcurve, "weil_pairing",
                      lambda *args, **kwargs: pytest.fail("weil_pairing called"))
        table = weil_pairing_table(torsion, n, seed)
    assert table == [[weil_pairing(x, y, n, seed).exponent for y in torsion] for x in torsion]
    # with one draw allowed, a pair that misses it is degenerate in both
    monkeypatch.setattr(ellcurve, "PAIRING_RETRIES", 1)
    P, Q = missed[0]
    with pytest.raises(DegenerateAfterRetries):
        weil_pairing(P, Q, n, seed)
    with pytest.raises(DegenerateAfterRetries):
        weil_pairing_table(torsion, n, seed)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pairing_table_takes_each_miller_function_once(monkeypatch, n):
    # n = 2 is the case above, whose first draw misses a pair, so the table draws again
    curve, seed = theta_curve(n), 0
    torsion = list(torsion_subgroup(curve, n))
    if n == 2:
        assert first_draw_misses(curve, n, seed, torsion)
    calls = []
    monkeypatch.setattr(ellcurve, "miller_function",
                        lambda n, x: calls.append(x) or miller_function(n, x))
    weil_pairing_table(torsion, n, seed)
    assert sorted(calls, key=CurvePoint.sort_key) == torsion[:-1]


def test_pairing_table_keeps_weil_pairings_preconditions():
    x = theta_structure(C3, 3).basis[0]
    with pytest.raises(NotTorsion):
        weil_pairing_table([x], 2)
    o = C3.infinity()
    assert weil_pairing_table([o, o], 1) == [[0] * 2] * 2
    assert weil_pairing_table([x, o], 3) == [[0] * 2] * 2
    assert weil_pairing_table([], 3) == []


def test_the_curve_layer_holds_its_field_elements_as_ints():
    # after a structure and a theta-verify run on E(13:7:0) at n = 3: kept points, lift
    # lines (int triples) and lift constants hold ints in [0, p), and the Weil table
    # holds exponents
    curve = Curve.make(13, 7, 0)
    structure = theta_structure(curve, 3)
    report = cli.run_theta_verify(curve, 3, 0, 0).to_dict()
    assert all(c["status"] == "verified" for c in report["claims"])
    p = curve.p

    def reduced(v):
        return type(v) is int and 0 <= v < p

    curves = {id(c): c for c in (curve, structure.curve)}.values()  # one, or two equal
    kept = [P for c in curves for P in c._points.values() if not P.is_infinity]
    assert kept and all(reduced(P.x) and reduced(P.y) for P in kept)
    for lift in structure.lifts:
        assert reduced(lift.f.const) and lift.f.atoms
        assert all(type(line) is tuple and len(line) == 3 and all(map(reduced, line))
                   for line, *_ in lift.f.atoms)
    torsion = list(torsion_subgroup(structure.curve, 3))
    for seed in range(3):
        table = weil_pairing_table(torsion, 3, seed)
        assert all(type(e) is int for row in table for e in row)
        assert table == [[weil_pairing(P, Q, 3, seed).exponent for Q in torsion] for P in torsion]
    for P in kept:
        assert CurvePoint(P.curve, P.x + p, P.y) == P == P.curve.point(P.x + p, P.y - p)


def old_liftable_basis(curve, n):
    """_liftable_basis as it stood before: a weil_pairing call per pair, and the n-th
    power of each lift multiplied out and certified."""
    points = enumerate_points(curve)
    torsion = [x for x in torsion_subgroup(curve, n) if not x.is_infinity]
    if len(torsion) + 1 != n * n or len(points) <= n * n:
        raise NotAdmissible("no full level-n structure, or no points outside it")
    power = {}

    def is_liftable(x):
        if x not in power:
            c = certify_divisor(theta_power(theta_make(n, x), n)).f.constant_value()
            power[x] = c if nth_root(c, n) is not None else None
        return power[x] is not None

    for p1 in torsion:
        if not is_liftable(p1):
            continue
        for p2 in torsion:
            if p2 == p1 or not is_liftable(p2):
                continue
            if weil_pairing(p1, p2, n).order() == n:
                return (p1, power[p1]), (p2, power[p2])
    raise NotAdmissible("no admissible symplectic basis")


def same_basis_search(curve, n):
    try:
        old = old_liftable_basis(curve, n)
    except NotAdmissible:
        with pytest.raises(NotAdmissible):
            theta._liftable_basis(theta._Cosets(curve, n))
        return False
    lifts = theta._liftable_basis(theta._Cosets(curve, n))
    assert tuple((g.x, c) for g, _, c in lifts) == old
    assert all(g == theta_make(n, g.x) for g, _, _ in lifts)
    assert symplectic_basis(curve, n) == (old[0][0], old[1][0])
    return True


def test_basis_equals_the_per_pair_search_on_the_pool():
    assert all(same_basis_search(Curve.make(*abc), 3) for abc in POOL[:20])


def tried_curves(n):
    """Every curve find_theta_curve(n) tries: those it refuses and the one it takes."""
    found = theta_curve(n)
    return [c for c in iter_admissible_curves(n, found.p)
            if c.point_count() > n * n and (c.p, c.a.value, c.b.value) <=
            (found.p, found.a.value, found.b.value)]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_basis_equals_the_per_pair_search_on_the_found_curves(n):
    tried = tried_curves(n)
    assert [same_basis_search(c, n) for c in tried] == [c == theta_curve(n) for c in tried]


def assert_label_tables_are_point_addition(curve, n):
    """The tables of _Cosets, label arithmetic only, against CurvePoint addition."""
    cosets = theta._Cosets(curve, n)
    points, others = cosets.points, cosets.others
    g, h = cosets.generators
    assert points == tuple(a * g + b * h for a in range(n) for b in range(n))
    assert cosets.label == {x: e for e, x in enumerate(points)}
    assert set(points) == set(torsion_subgroup(curve, n))
    assert cosets.torsion == [x for x in torsion_subgroup(curve, n) if not x.is_infinity]
    assert points[cosets.origin] == curve.infinity()
    assert [points[e] for e in cosets.neg] == [-x for x in points]
    assert [[points[e] for e in row] for row in cosets.add] == [
        [x + y for y in points] for x in points]
    assert len(set(others)) == len(others) and set(others) == set(
        enumerate_points(curve)) - set(points)
    assert [[others[k] for k in row] for row in cosets.shift] == [
        [s + x for s in others] for x in points]


@pytest.mark.parametrize("n", range(2, 9))
def test_label_tables_are_point_addition_on_the_tried_curves(n):
    for curve in tried_curves(n):
        assert_label_tables_are_point_addition(curve, n)


def test_label_tables_are_point_addition_on_the_pool():
    for abc in POOL[:20]:
        assert_label_tables_are_point_addition(Curve.make(*abc), 3)


class TransposedCosets(theta._Cosets):
    """x = aG + bH added as bG + aH: the label law with its coordinates transposed."""

    def __init__(self, curve, n):
        super().__init__(curve, n)
        self.add = [[row[b * n + a] for a in range(n) for b in range(n)] for row in self.add]


class SwappedCosets(theta._Cosets):
    """S with its first two points swapped, the tables left as they were."""

    def __init__(self, curve, n):
        super().__init__(curve, n)
        first, second, *rest = self.others
        self.others = (second, first, *rest)


@pytest.mark.parametrize("doctored", [TransposedCosets, SwappedCosets])
@pytest.mark.parametrize("curve,n", [(C2, 2), (C3, 3)])
def test_doctored_label_tables_exit_1(capsys, monkeypatch, doctored, curve, n):
    # the check of the generators against point addition refuses the tables
    with pytest.raises(CertificateError, match="the label tables take "):
        theta.MuTables(theta_structure(curve, n), doctored(curve, n))
    # in a run the basis search shares them, and whichever check comes first stops it
    monkeypatch.setattr(theta, "_Cosets", doctored)
    monkeypatch.setattr(theta, "_STRUCTURES", {})
    assert main(["theta-verify", "--n", str(n), "--p", str(curve.p),
                 "--a", str(curve.a.value), "--b", str(curve.b.value)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: CertificateError: ")


def test_a_structure_lists_s_once(monkeypatch):
    built = []

    class Counted(theta._Cosets):
        def __init__(self, curve, n):
            built.append((curve, n))
            super().__init__(curve, n)

    monkeypatch.setattr(theta, "_Cosets", Counted)
    monkeypatch.setattr(theta, "_STRUCTURES", {})
    for curve, n in [(C2, 2), (C3, 3), (theta_curve(6), 6)]:
        theta_structure(curve, n)
        assert built == [(curve, n)]  # one S for the basis search and the layer
        built.clear()


def lift_constants(curve, n):
    """The constant of each point's _lift_power, whose lift and vector are checked as the
    certified Miller lift and its values on S."""
    cosets = theta._Cosets(curve, n)
    constants = {}
    for x in cosets.points:
        g, (label, values), constants[x] = theta._lift_power(cosets, x)
        assert g == theta_make(n, x) and cosets.points[label] == x
        assert list(values) == ellcurve.function_values(g.f, cosets.others)
    return constants


@pytest.mark.parametrize("curve,n", [(C2, 2), (C3, 3), (Curve.make(7, 0, 1), 2),
                                     (Curve.make(29, 4, 7), 4), (Curve.make(41, 6, 0), 5)])
def test_evaluated_lift_constant_equals_the_certified_power(curve, n):
    constants = lift_constants(curve, n)
    assert len(constants) == n * n
    for x, c in constants.items():
        assert c == certify_divisor(theta_power(theta_make(n, x), n)).f.constant_value()
    if curve == Curve.make(7, 0, 1):  # the obstructed curve: some constant has no root
        assert any(nth_root(c, n) is None for c in constants.values())


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_bilinear_pairing_equals_weil_pairing_on_every_pair(n):
    curve = theta_curve(n)
    torsion = [x for x in torsion_subgroup(curve, n) if not x.is_infinity]
    g, h, coords = theta._coordinates(torsion, n)
    assert set(coords) == set(torsion_subgroup(curve, n))
    assert all(a * g + b * h == x for x, (a, b) in coords.items())
    w = weil_pairing(g, h, n)
    for x, y in itertools.product(coords, repeat=2):
        assert w ** label_commutator(n, coords[x], coords[y]) == weil_pairing(x, y, n)


def per_pair_commutator_claim(curve, n, table=weil_pairing_table):
    """commutator-matches-weil by the per-pair vector loop: each of the n^4 section
    commutators multiplied out with mu_commutator and compared with its Miller value."""
    structure = theta_structure(curve, n)
    tables = structure.tables
    sigma = orientation_sigma(curve, n)
    gen = mu_generator(curve.p, n)
    section = list(structure.section.items())
    vectors = section_vectors(structure)
    weil = table([g.x for _, g in section], n, seed=0)
    bad = [(g, h) for (ia, (a, g)), (ib, (b, h)) in itertools.product(enumerate(section), repeat=2)
           if mu_commutator(tables, vectors[a], vectors[b])
           != RootOfUnity(n, weil[ia][ib] * sigma).embed_in_field(curve.p, gen).value]
    detail = f"sigma = {sigma}"
    if bad:
        detail += "; first counterexample (g, h) = ({!r}, {!r})".format(*bad[0])
    return {"id": "commutator-matches-weil", "status": "failed" if bad else "verified",
            "checked": n ** 4, "failures": len(bad), "detail": detail}


def assert_derived_commutators_match_the_vector_loop(curve, n):
    structure = theta_structure(curve, n)
    tables = structure.tables
    vectors = section_vectors(structure)
    for u, v in itertools.product(structure.section, repeat=2):
        derived = (structure.t ** label_commutator(n, u, v)).value
        assert derived == mu_commutator(tables, vectors[u], vectors[v]), (u, v)
    report = cli.run_theta_verify(curve, n, 0, 0).to_dict()
    by_id = {c["id"]: c for c in report["claims"]}
    oracle = per_pair_commutator_claim(curve, n, claims.weil_pairing_table)  # skewed or not
    assert by_id["commutator-matches-weil"] == oracle


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_derived_commutators_equal_the_vector_loop_on_the_found_curves(n):
    assert_derived_commutators_match_the_vector_loop(theta_curve(n), n)


def test_derived_commutators_equal_the_vector_loop_on_the_pool():
    for abc in POOL[:20]:
        assert_derived_commutators_match_the_vector_loop(Curve.make(*abc), 3)


def test_derived_commutators_equal_the_vector_loop_on_a_skewed_pairing(monkeypatch):
    honest = claims.weil_pairing_table

    def skewed(points, n, seed=0):
        table = honest(points, n, seed=seed)
        table[1][2] = (table[1][2] + 1) % n
        return table

    monkeypatch.setattr(claims, "weil_pairing_table", skewed)
    assert_derived_commutators_match_the_vector_loop(C3, 3)
    assert per_pair_commutator_claim(C3, 3, skewed)["failures"] == 1


def test_non_constant_lift_power_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(theta, "_STRUCTURES", {})
    honest = theta.function_values

    def doctored(fn, points):  # one value of every vector doubled
        values = honest(fn, points)
        return [values[0] * 2 % fn.curve.p] + values[1:]

    monkeypatch.setattr(theta, "function_values", doctored)
    with pytest.raises(CertificateError, match="power of the lift over .* takes 2 values"):
        theta_structure(C3, 3)
    assert main(["theta-verify", "--n", "3", "--p", "13", "--a", "7", "--b", "0"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: CertificateError: the level-3 power of the lift over ")


@pytest.mark.parametrize("curve,n,exponent", [(C3, 3, 0), (Curve.make(29, 4, 7), 4, 2)])
def test_non_primitive_basis_pairing_is_a_certificate_error(monkeypatch, curve, n, exponent):
    monkeypatch.setattr(theta, "_STRUCTURES", {})
    monkeypatch.setattr(theta, "weil_pairing", lambda p1, p2, n, seed=0: RootOfUnity(n, exponent))
    with pytest.raises(CertificateError, match="is not primitive for the generators"):
        theta_structure(curve, n)
