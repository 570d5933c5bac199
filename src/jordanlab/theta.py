"""Theta groups of level n for the degree-one bundle on an elliptic curve.

Elements are pairs (x, f) with x in E[n] and f a rational function whose
divisor is n(O) - n(-x), multiplied by

    (x, f) (y, h) = (x + y, T_x^* h * f),

the left factor acting first.  The scalar freedom in f is genuine central
data: the constants F_p^* sit inside the group, and the commutator of two
elements is a constant function whose value is the level-n pairing of the
underlying points.

The finite layer with scalars in mu_n is materialized through a canonical
section built on a symplectic basis (P, Q) of E[n]: both basis lifts are
rescaled to have exact order n (possible only when the n-th power of the
Miller lift lands in (F_p^*)^n, a real rationality condition over F_p that
fails on some curves; admissibility is checked, not assumed), and

    s(i, j) = t^(-i*j) * A^i * B^j,      t = commutator(A, B),

which satisfies s(u) s(v) = t^(i_u * j_v) s(u + v) exactly.  That is the same
cocycle as the Heisenberg-type group over Z/n, so labelling an element
t^k s(i,j) by (zeta_n^k, i, chi_j) is an isomorphism onto it, verified against
the label law heisenberg.label_product on the generators s(1, 0) and s(0, 1).

For those checks the layer is also held as integers (MuTables): a function as
its value vector on the points outside E[n], where the product is a gather
through a translation table and a pointwise multiply mod p.  The basis search
builds, certifies and evaluates each Miller lift once and multiplies its n-th
power out of its values (_liftable_basis, one Weil pairing per curve); A and B
are the two lifts it takes, rescaled with their vectors.  t is the commutator of
those vectors, the n^2 sections s(i, j) are their products, as above, and an
element is its label (i, j, k), with the vector t^k s(i, j) built when asked.  The
section objects, built on first use, name elements and are the tables' oracle.
E[n], S and translation come from one _Cosets per structure, where translation by
E[n] is label arithmetic on generators G, H; the labels of P and Q give iP + jQ.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property, reduce

from .errors import (
    BasisMismatch,
    BudgetExceeded,
    CertificateError,
    DegenerateAfterRetries,
    EvalAtSupport,
    LevelMismatch,
    NonConstantCommutator,
    NotAdmissible,
    NotTorsion,
    ScaleNotRootOfUnity,
    ZeroScale,
)
from .ellcurve import (
    Curve,
    CurvePoint,
    Divisor,
    TrackedFunction,
    enumerate_points,
    function_values,
    iter_admissible_curves,
    miller_function,
    ratio_constant,
    same_function,
    torsion_subgroup,
    weil_pairing,
)
from .finab import FinAbGroup
from .frozen import Frozen, set_field
from .heisenberg import HeisElement, label_commutator
from .scalars import FpElement, RootOfUnity, mu_generator, multiplicative_order, nth_root

THETA_BUDGET = 8  # largest level enumerated as a full mu-layer


def check_theta_budget(n: int) -> None:
    """Refuse a level whose mu layer would be enumerated past THETA_BUDGET."""
    if n > THETA_BUDGET:
        raise BudgetExceeded(f"level {n} exceeds the mu-layer budget {THETA_BUDGET}")


class ThetaElement(Frozen):
    """Pair (x, f) with div(f) = n(O) - n(-x); the scale of f is central data.

    Products keep the law, div(T_x^* h * f) = T_x^* div h + div f, so building
    one derives no divisor; certify_divisor checks it where a conclusion rests on it."""

    __slots__ = ("level", "x", "f")

    def __init__(self, level: int, x: CurvePoint, f: TrackedFunction):
        if x.curve != f.curve:
            raise LevelMismatch("point and function live on different curves")
        set_field(self, "level", level)
        set_field(self, "x", x)
        set_field(self, "f", f)

    @property
    def curve(self) -> Curve:
        return self.x.curve

    def __mul__(self, other: "ThetaElement") -> "ThetaElement":
        return theta_mul(self, other)

    def inverse(self) -> "ThetaElement":
        return theta_inv(self)

    def scaled(self, value: FpElement | int) -> "ThetaElement":
        return ThetaElement(self.level, self.x, self.f.scale(value))

    def __repr__(self):
        return f"Theta{self.level}({self.x!r}; {self.f!r})"


def certify_divisor(g: ThetaElement) -> ThetaElement:
    """g, once div f is derived from its atoms and found to be n(O) - n(-x).  Run on
    theta_make's output: the lift whose n-th power _lift_power evaluates, and which A
    or B rescales.  theta_commutator, an oracle, runs it too."""
    curve, n = g.curve, g.level
    expected = Divisor.of(curve, [(curve.infinity(), n), (-g.x, -n)])  # 0 over O
    got = g.f.divisor()
    if got != expected:
        raise CertificateError(f"function divisor {got!r} != required {expected!r}")
    return g


def _scalar(g: ThetaElement) -> FpElement:
    """The constant of g, once g is certified to lie over O with divisor 0."""
    if not g.x.is_infinity:
        raise CertificateError(f"{g!r} does not lie over O")
    return certify_divisor(g).f.constant_value()


def theta_identity(curve: Curve, n: int) -> ThetaElement:
    return ThetaElement(n, curve.infinity(), TrackedFunction.one(curve))


def theta_make(n: int, x: CurvePoint, scale: FpElement | int = 1) -> ThetaElement:
    """Element over x with f = scale / miller(n, -x); constant scale over O."""
    curve = x.curve
    if isinstance(scale, FpElement):
        scale = scale.value
    if not scale % curve.p:
        raise ZeroScale("theta elements need a nonzero scale")
    if not (n * x).is_infinity:
        raise NotTorsion(f"{x!r} is not killed by {n}")
    f = (TrackedFunction.constant(curve, scale) if x.is_infinity
         else miller_function(n, -x).inverse().scale(scale))
    return certify_divisor(ThetaElement(n, x, f))


def _check_pair(g: ThetaElement, h: ThetaElement) -> None:
    if g.level != h.level or g.curve != h.curve:
        raise LevelMismatch(f"{g!r} and {h!r} are not composable")


def theta_mul(g: ThetaElement, h: ThetaElement) -> ThetaElement:
    _check_pair(g, h)
    return ThetaElement(g.level, g.x + h.x, h.f.translate(g.x) * g.f)


def theta_inv(g: ThetaElement) -> ThetaElement:
    return ThetaElement(g.level, -g.x, g.f.inverse().translate(-g.x))


def theta_power(g: ThetaElement, k: int) -> ThetaElement:
    if k < 0:
        return theta_power(theta_inv(g), -k)
    acc = theta_identity(g.curve, g.level)
    for _ in range(k):
        acc = theta_mul(acc, g)
    return acc


def theta_equal(g: ThetaElement, h: ThetaElement) -> bool:
    """Equality as group elements: same point and the same function.

    An object oracle for the tests; no claim calls it."""
    return g.level == h.level and g.curve == h.curve and g.x == h.x and same_function(g.f, h.f)


def theta_commutator(g: ThetaElement, h: ThetaElement) -> FpElement:
    """Constant value of g h g^-1 h^-1; a root of unity of order dividing n."""
    _check_pair(g, h)
    try:
        value = _scalar(theta_mul(theta_mul(theta_mul(g, h), theta_inv(g)), theta_inv(h)))
    except EvalAtSupport as exc:
        raise NonConstantCommutator(str(exc)) from exc
    if value ** g.level != g.curve.fe(1):
        raise NonConstantCommutator(f"commutator value {value} has order not dividing {g.level}")
    return value


class HofL(Frozen):
    """The translation-stabilizer group of the level-n bundle: equals E[n]."""

    __slots__ = ("level", "elements")

    def __init__(self, level: int, elements: tuple[CurvePoint, ...]):
        set_field(self, "level", level)
        set_field(self, "elements", elements)

    @property
    def order(self) -> int:
        return len(self.elements)


def h_of_level(curve: Curve, n: int) -> HofL:
    """Points x with n*x fixing the degree-one bundle, computed via principality.

    The base stabilizer {x : (O) - (-x) principal} is trivial on an elliptic
    curve, so the level-n stabilizer is exactly E[n], the torsion_subgroup _Cosets
    reads; the order n^2 is asserted and failure means the curve lacks full
    level-n structure.
    """
    base = [x for x in enumerate_points(curve)
            if Divisor.of(curve, [(curve.infinity(), 1), (-x, -1)]).is_principal()]
    if base != [curve.infinity()]:
        raise CertificateError(f"base stabilizer should be trivial, got {base!r}")
    level = torsion_subgroup(curve, n)  # in point order, as HofL lists it
    if len(level) != n * n:
        raise NotAdmissible(
            f"{curve!r} carries only {len(level)} of the required {n * n} level-{n} points")
    return HofL(n, level)


# ---------------------------------------------------------------------------
# canonical mu_n layer and the transport to the Heisenberg-type model


def symplectic_basis(curve: Curve, n: int) -> tuple[CurvePoint, CurvePoint]:
    """Lexicographically least admissible basis pair of E[n].

    Admissible means the pairing of the pair is a primitive n-th root of
    unity and both fibers admit lifts of exact order n (their Miller-lift
    n-th powers are n-th powers in F_p^*); the second condition is what makes
    the canonical section, and hence the structure transport, exist over F_p.
    """
    return tuple(g.x for g, _, _ in _liftable_basis(_Cosets(curve, n)))


def _coordinates(torsion: list[CurvePoint], n: int) -> tuple[CurvePoint, CurvePoint,
                                                             dict[CurvePoint, tuple[int, int]]]:
    """Generators G, H of E[n] and each point of it as (a, b) with x = aG + bH: G is the
    first point of order n in torsion, H the first whose nonzero multiples miss <G>."""
    g = next((x for x in torsion if x.order() == n), torsion[0])
    g_multiples = [k * g for k in range(n)]
    for h in torsion:
        h_multiples = [k * h for k in range(n)]
        if set(g_multiples).isdisjoint(h_multiples[1:]):
            coords = {ga + hb: (a, b) for a, ga in enumerate(g_multiples)
                      for b, hb in enumerate(h_multiples)}
            if len(coords) == n * n:
                return g, h, coords
    raise CertificateError(f"E[{n}] has {n * n} points but no pair of generators")


class _Cosets:
    """E[n] and S = E(F_p) \\ E[n] of one curve, listed once for the basis search and
    the theta layer.

    E[n] is written on the generators G, H of _coordinates: `points[a*n + b]` is
    x = aG + bH, and `label` maps x to a*n + b.  S is listed by its cosets r + E[n],
    each as r + aG + bH in label order, so translation by E[n] is label arithmetic:
    `add[x][y]` is the label of x + y, `neg[x]` that of -x, `shift[x][k]` the index in
    S of others[k] + x, and `origin` that of O.  MuTables checks these tables against
    point addition."""

    def __init__(self, curve: Curve, n: int):
        points = enumerate_points(curve)
        torsion = [x for x in torsion_subgroup(curve, n) if not x.is_infinity]
        if len(torsion) + 1 != n * n:
            raise NotAdmissible(f"{curve!r} does not carry full level-{n} structure")
        if len(points) <= n * n:
            raise NotAdmissible(
                f"{curve!r} has no points outside the level-{n} part; evaluations degenerate")
        if not torsion:
            raise NotAdmissible(f"no admissible symplectic basis on {curve!r} at level {n}")
        g, h, coords = _coordinates(torsion, n)
        self.curve, self.level, self.p = curve, n, curve.p
        self.torsion, self.generators = torsion, (g, h)  # E[n] but O, in point order
        self.points = tuple(sorted(coords, key=coords.get))
        self.label = {x: a * n + b for x, (a, b) in coords.items()}
        self.origin = 0  # O = 0G + 0H
        self.add = [[(a + c) % n * n + (b + d) % n for c in range(n) for d in range(n)]
                    for a in range(n) for b in range(n)]
        self.neg = [(-a) % n * n + (-b) % n for a in range(n) for b in range(n)]
        others: list[CurvePoint] = []
        covered = set(coords)
        for r in points:
            if r not in covered:
                coset = [r + y for y in self.points]
                covered.update(coset)
                others.extend(coset)
        self.others = tuple(others)
        self.shift = [[base + k for base in range(0, len(others), n * n) for k in row]
                      for row in self.add]


Values = tuple[int, tuple[int, ...]]  # (label of x in E[n], values on S) of a function over x
Lift = tuple[ThetaElement, Values, FpElement]  # certified lift over x, its Values, c of its power


def _lift_power(cosets: _Cosets, x: CurvePoint) -> Lift:
    """The certified g = theta_make(n, x), its vector on S = E(F_p) \\ E[n], which no
    atom of g meets, and the constant of g^n evaluated there.

    That power is (O, F) with F(s) = prod_{k<n} f(s + kx) for the function f of g,
    so div F = 0 and F is a constant.  F is the n-th mu_product power of f's value
    vector on S, and must take one value on all of S."""
    n, others = cosets.level, cosets.others
    g = theta_make(n, x)
    values = function_values(g.f, others)
    if None in values:
        raise CertificateError(f"{g!r} has a zero or pole off E[{n}] at "
                               f"{others[values.index(None)]!r}")
    lift = cosets.label[x], tuple(values)
    power = reduce(lambda u, v: mu_product(cosets, u, v), [lift] * n)[1]
    if any(v != power[0] for v in power):
        raise CertificateError(f"the level-{n} power of the lift over {x!r} takes "
                               f"{len(set(power))} values on the points off E[{n}]")
    return g, lift, x.curve.fe(power[0])


def _liftable_basis(cosets: _Cosets) -> tuple[Lift, Lift]:
    """symplectic_basis, each point x as its _lift_power: the certified lift, its
    vector on S and the constant c of its n-th power, which decided that x lifts.

    The Weil pairing is computed once: with E[n] written on generators G, H and
    w = e_n(G, H), bilinearity gives e_n(aG + bH, cG + dH) = w^(ad - bc)
    (Silverman, AEC III.8.1), so each pair's pairing is an exponent.  The pairs
    are tried in the same order as ever, so the basis found is the same."""
    n, label = cosets.level, cosets.label
    g, h = cosets.generators
    w = weil_pairing(g, h, n)
    if w.order() != n:
        raise CertificateError(f"e_{n}(G, H) = {w} is not primitive for the generators "
                               f"G = {g!r}, H = {h!r} of E[{n}]")
    @cache
    def liftable(x: CurvePoint) -> Lift | None:  # None when x does not lift
        lift = _lift_power(cosets, x)
        return lift if nth_root(lift[2], n) is not None else None

    for p1 in cosets.torsion:
        if liftable(p1) is None:
            continue
        u = divmod(label[p1], n)  # (a, b) of p1 = aG + bH
        for p2 in cosets.torsion:
            if (w ** label_commutator(n, u, divmod(label[p2], n))).order() == n and liftable(p2):
                return liftable(p1), liftable(p2)
    raise NotAdmissible(f"no admissible symplectic basis on {cosets.curve!r} at level {n}")


def _order_n_lift(g: ThetaElement, values: Values, c: FpElement) -> tuple[ThetaElement, Values]:
    """kappa * g and its vector times kappa, for the _lift_power (g, vector, c) of x:
    the n-th power kappa^n c is 1.  _liftable_basis took x because c is an n-th power,
    so 1/c is one too."""
    n, p = g.level, g.curve.p
    kappa = nth_root(c.inverse(), n)
    if kappa is None:
        raise CertificateError(f"no order-{n} lift over {g.x!r}, which the basis search took")
    if kappa ** n * c != g.curve.fe(1):
        raise CertificateError("rescaled lift failed to have exact order n")
    x, f = values
    return g.scaled(kappa), (x, tuple(v * kappa.value % p for v in f))


class ThetaStructure:
    """Canonical mu_n layer of the theta group with its Heisenberg labelling.

    Carries the basis (P, Q), the certified order-n lifts A, B, the layer's integer
    tables with the primitive commutator value t read off the vectors of A and B, and
    the exact isomorphism with mu_n x Z/n x dual(Z/n).  The section s(i, j) =
    t^(-ij) A^i B^j as objects is built on first use: it names elements.
    """

    def __init__(self, curve: Curve, n: int):
        self.curve, self.level = curve, n
        cosets = _Cosets(curve, n)
        (a, a_values), (b, b_values) = (_order_n_lift(*lift) for lift in _liftable_basis(cosets))
        self.basis, self.lifts = (a.x, b.x), (a, b)
        # iP + jQ = (i pa + j qa)G + (i pb + j qb)H, read off the labels of P and Q
        (pa, pb), (qa, qb) = (divmod(cosets.label[x], n) for x in self.basis)
        self.decomposition = {cosets.points[(i * pa + j * qa) % n * n + (i * pb + j * qb) % n]:
                              (i, j) for i in range(n) for j in range(n)}
        if len(self.decomposition) != n * n:
            raise CertificateError(f"{self.basis!r} does not generate E[{n}]")
        self.tables = MuTables(self, cosets, a_values, b_values)
        self.t = curve.fe(self.tables.t)

    @cached_property
    def section(self) -> dict[tuple[int, int], ThetaElement]:
        """s(i, j) = t^(-ij) A^i B^j as objects, built on first use.  Not certified:
        they name counterexamples, give compose-semantics its samples and are the
        oracle the tables are tested against."""
        n = self.level
        a_pow, b_pow = (list(itertools.accumulate([g] * (n - 1), theta_mul,
                                                  initial=theta_identity(self.curve, n)))
                        for g in self.lifts)
        return {(i, j): theta_mul(a_pow[i], b_pow[j]).scaled(self.t ** (-i * j % n))
                for i in range(n) for j in range(n)}

    def to_heisenberg(self, g: ThetaElement) -> HeisElement:
        """The label (zeta^k, i, chi_j) of g = t^k s(i, j), read off the functions.

        An object oracle for the tests: the claims read labels from mu_labels, and
        no claim calls this."""
        ij = self.decomposition.get(g.x)
        if ij is None:
            raise BasisMismatch(f"{g.x!r} is not a level-{self.level} point here")
        n, (i, j) = self.level, ij
        ratio = ratio_constant(g.f, self.section[ij].f)
        k = next((k for k in range(n) if self.t ** k == ratio), None)
        if k is None:
            raise ScaleNotRootOfUnity(f"scale {ratio} lies outside mu_{n}")
        group = FinAbGroup((n,))
        return HeisElement(RootOfUnity(n, k), group.element([i]), group.character([j]))

    def mu_labels(self) -> list[tuple[int, int, int]]:
        """(i, j, k) of each element t^k s(i, j) of the mu layer, by point, then k."""
        point = {ij: x for x, ij in self.decomposition.items()}
        return sorted(itertools.product(range(self.level), repeat=3),
                      key=lambda ijk: (point[ijk[:2]].sort_key(), ijk[2]))

    def element(self, i: int, j: int, k: int) -> ThetaElement:
        """t^k s(i, j), the mu layer element labelled (i, j, k)."""
        return self.section[(i, j)].scaled(pow(self.t.value, k, self.curve.p))

    def mu_elements(self) -> list[ThetaElement]:
        """All n^3 elements with a mu_n scale over the canonical section."""
        return [self.element(*ijk) for ijk in self.mu_labels()]


class MuTables:
    """The mu_n layer as integers: the n^2 section vectors s(i, j) over the scalar t.

    E[n], S and their translation tables are those of the structure's _Cosets, the
    ones the basis search used; translation by the generators G and H is checked
    against point addition on every point of S and of E[n] (CertificateError naming
    the point), and claims.check_translations extends that to all of E[n].  A and
    B come with their vectors from the basis search.  mu_product keeps the divisor
    law, so with A and B certified their vector commutator has divisor 0 over O: t is
    its one value on S, a primitive n-th root, and `t_pow[k]` is t^k.  `sections[i, j]`
    is s(i, j) = t^(-ij) A^i B^j, fixed up to one constant by its divisor n(O) - n(-x),
    so equal vectors over one point are equal elements.  The element labelled (i, j, k)
    is t^k s(i, j).  mu_product is pointwise in each factor, so (t^k s)(t^l c) =
    t^(k + l) (s c): products of all n^3 elements need only the sections.  `vector`
    builds t^k s(i, j) when asked, `value` and `product_value` read one entry of it or
    of a product without building it, and `locate` reads a label off a vector.
    """

    def __init__(self, structure: ThetaStructure, cosets: _Cosets, *lifts: Values):
        curve, n = structure.curve, structure.level
        self.p, self.points, self.others = cosets.p, cosets.points, cosets.others
        self.add, self.neg, self.shift = cosets.add, cosets.neg, cosets.shift
        self.origin, self.decomposition = cosets.origin, structure.decomposition
        for x in cosets.generators:
            column = cosets.label[x]
            for listed, moved in ((self.others, self.shift[column]),
                                  (self.points, [row[column] for row in self.add])):
                for s, k in zip(listed, moved):
                    if listed[k] != s + x:
                        raise CertificateError(f"the label tables take {s!r} + {x!r} to "
                                               f"{listed[k]!r}, not to {s + x!r}")
        try:
            self.t = mu_commutator(self, *lifts)
            if multiplicative_order(curve.fe(self.t)) != n:
                raise NonConstantCommutator(f"value {self.t} is not a primitive level-{n} root")
        except NonConstantCommutator as exc:
            raise CertificateError("commutator of the lifts (A, B) = ({!r}, {!r}): {}".format(
                *structure.lifts, exc)) from exc
        self.t_pow = [pow(self.t, k, self.p) for k in range(n)]
        one = self.origin, (1,) * len(self.others)
        a_pow, b_pow = (list(itertools.accumulate(
            [g] * (n - 1), lambda u, v: mu_product(self, u, v), initial=one)) for g in lifts)
        self.sections: dict[tuple[int, int], Values] = {}
        for i, j in itertools.product(range(n), repeat=2):  # A^i B^j, then times t^(-ij)
            self.sections[i, j] = mu_product(self, a_pow[i], b_pow[j])
            self.sections[i, j] = self.vector(i, j, -i * j % n)

    def vector(self, i: int, j: int, k: int) -> Values:
        """t^k s(i, j), the element labelled (i, j, k)."""
        (x, values), scale, p = self.sections[i, j], self.t_pow[k], self.p
        return x, tuple(v * scale % p for v in values)

    def value(self, i: int, j: int, k: int, s: int) -> tuple[int, int]:
        """(point, entry s) of vector(i, j, k).  Elements over one point differ by a
        constant, so two are equal exactly when these pairs are, at any s."""
        x, values = self.sections[i, j]
        return x, values[s] * self.t_pow[k] % self.p

    def product_value(self, u: tuple[int, int, int], v: tuple[int, int, int], s: int) -> int:
        """Entry s of vector(*u) vector(*v): the sections' product times t^(k_u + k_v),
        read as mu_product reads it, f_v at the shift of s by the point x of u."""
        (x, f_u), f_v = self.sections[u[:2]], self.sections[v[:2]][1]
        scale = self.t_pow[(u[2] + v[2]) % len(self.t_pow)]
        return f_v[self.shift[x][s]] * f_u[s] * scale % self.p

    def locate(self, g: Values) -> tuple[int, int, int] | None:
        """The label (i, j, k) of g, or None when g is off the layer: (i, j) is read
        from the point, k from the first value, then the whole vector is compared."""
        x, values = g
        i, j = self.decomposition[self.points[x]]
        k = next((k for k in range(len(self.t_pow)) if self.value(i, j, k, 0) == (x, values[0])),
                 None)
        return None if k is None or self.vector(i, j, k) != g else (i, j, k)


def mu_product(tables: MuTables | _Cosets, g: Values, h: Values) -> Values:
    """theta_mul on value vectors: (x + y, T_x^* f_h * f_g)."""
    (x, f_g), (y, f_h) = g, h
    p = tables.p
    return tables.add[x][y], tuple(f_h[s] * v % p for s, v in zip(tables.shift[x], f_g))


def mu_inverse(tables: MuTables, g: Values) -> Values:
    """theta_inv on value vectors: (-x, T_{-x}^* (1 / f))."""
    x, f = g
    minus = tables.neg[x]
    return minus, tuple(pow(f[s], -1, tables.p) for s in tables.shift[minus])


def mu_commutator(tables: MuTables, g: Values, h: Values) -> int:
    """The constant value of g h g^-1 h^-1 on value vectors; NonConstantCommutator if
    it does not lie over O or is not constant on S.  MuTables reads t from it."""
    x, c = mu_product(tables, mu_product(tables, mu_product(tables, g, h), mu_inverse(tables, g)),
                      mu_inverse(tables, h))
    if x != tables.origin or any(v != c[0] for v in c):
        raise NonConstantCommutator(f"commutator lies over {tables.points[x]!r} with "
                                    f"{len(set(c))} distinct values on S")
    return c[0]


_STRUCTURES: dict[tuple[Curve, int], ThetaStructure] = {}


def theta_structure(curve: Curve, n: int) -> ThetaStructure:
    if (curve, n) not in _STRUCTURES:
        _STRUCTURES[curve, n] = ThetaStructure(curve, n)
    return _STRUCTURES[curve, n]


def theta_to_heisenberg(g: ThetaElement, basis: tuple[CurvePoint, CurvePoint]) -> HeisElement:
    """Transport along the canonical section over the given symplectic basis."""
    structure = theta_structure(g.curve, g.level)
    if tuple(basis) != structure.basis:
        raise BasisMismatch(
            f"transport is built on basis {structure.basis!r}, got {tuple(basis)!r}")
    return structure.to_heisenberg(g)


def theta_enumerate_mu(curve: Curve, n: int) -> list[ThetaElement]:
    """The full mu_n layer: the n^3 elements over the canonical section; multiplies nothing.

    `theta-verify` certifies closure: each product with s(1, 0) or s(0, 1) must lie on the
    layer (MuTables.locate), these steps must reach the whole layer from the generators,
    and every other product is a chain of such steps."""
    check_theta_budget(n)
    return theta_structure(curve, n).mu_elements()


def orientation_sigma(curve: Curve, n: int) -> int:
    """Sign relating the theta commutator to the independent pairing oracle.

    -1 when commutator(A, B) equals the inverse of the embedded pairing of
    the basis pair, +1 when it equals the pairing itself; at level 2 the two
    coincide and the inverse branch is reported, keeping the sign constant
    across instances.  Any other outcome is an error.
    """
    structure = theta_structure(curve, n)
    p1, p2 = structure.basis
    w = weil_pairing(p1, p2, n)
    embedded = w.embed_in_field(curve.p, mu_generator(curve.p, n))
    if structure.t == embedded.inverse():
        return -1
    if structure.t == embedded:
        return 1
    raise CertificateError("commutator and pairing oracle disagree beyond orientation")


def find_theta_curve(n: int, p_max: int = 200) -> Curve:
    """First curve (by p, a, b) whose level-n structure transports over F_p."""
    if n == 1:
        raise ValueError("level 1 is trivial; any curve works")
    for curve in iter_admissible_curves(n, p_max):
        if curve.point_count() <= n * n:
            continue
        try:
            theta_structure(curve, n)
            return curve
        except (NotAdmissible, EvalAtSupport, DegenerateAfterRetries):
            continue
    raise NotAdmissible(f"no curve with a transportable level-{n} structure below {p_max}")
