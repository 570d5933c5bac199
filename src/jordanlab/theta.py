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
t^k s(i,j) by (zeta_n^k, i, chi_j) is an isomorphism onto it, verified by
full multiplication-table comparison at small levels.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BasisMismatch,
    BudgetExceeded,
    EvalAtSupport,
    JordanLabError,
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
    miller_function,
    ratio_constant,
    torsion_subgroup,
    weil_pairing,
)
from .finab import FinAbGroup
from .heisenberg import HeisElement
from .scalars import FpElement, RootOfUnity, mu_generator, multiplicative_order, nth_root

THETA_BUDGET = 4  # largest level enumerated as a full mu-layer by default


@dataclass(frozen=True)
class ThetaElement:
    """Pair (x, f) with div(f) = n(O) - n(-x); the scale of f is central data."""

    level: int
    x: CurvePoint
    f: TrackedFunction

    def __post_init__(self):
        if self.x.curve != self.f.curve:
            raise LevelMismatch("point and function live on different curves")
        if not (self.level * self.x).is_infinity:
            raise NotTorsion(f"{self.x!r} is not {self.level}-torsion")
        expected = _theta_divisor(self.level, self.x)
        if self.f.divisor() != expected:
            raise JordanLabError(
                f"function divisor {self.f.divisor()!r} != required {expected!r}"
            )

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


def _theta_divisor(n: int, x: CurvePoint) -> Divisor:
    curve = x.curve
    if x.is_infinity:
        return Divisor.zero(curve)
    return Divisor.of(curve, {curve.infinity(): n, -x: -n})


def theta_identity(curve: Curve, n: int) -> ThetaElement:
    return ThetaElement(n, curve.infinity(), TrackedFunction.one(curve))


def theta_make(n: int, x: CurvePoint, scale: FpElement | int = 1) -> ThetaElement:
    """Element over x with f = scale / miller(n, -x); constant scale over O."""
    curve = x.curve
    if isinstance(scale, int):
        scale = curve.fe(scale)
    if scale.is_zero:
        raise ZeroScale("theta elements need a nonzero scale")
    if not (n * x).is_infinity:
        raise NotTorsion(f"{x!r} is not killed by {n}")
    if x.is_infinity:
        return ThetaElement(n, x, TrackedFunction.constant(curve, scale))
    return ThetaElement(n, x, miller_function(n, -x).inverse().scale(scale))


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
    """Equality as group elements: same point and literally the same function."""
    if g.level != h.level or g.curve != h.curve or g.x != h.x:
        return False
    return ratio_constant(g.f, h.f) == g.curve.fe(1)


def theta_commutator(g: ThetaElement, h: ThetaElement) -> FpElement:
    """Constant value of g h g^-1 h^-1; a root of unity of order dividing n."""
    _check_pair(g, h)
    c = theta_mul(theta_mul(theta_mul(g, h), theta_inv(g)), theta_inv(h))
    if not c.x.is_infinity or not c.f.divisor().is_zero:
        raise NonConstantCommutator(f"commutator of {g!r}, {h!r} is not central")
    try:
        value = c.f.constant_value()
    except (EvalAtSupport, JordanLabError) as exc:
        raise NonConstantCommutator(str(exc)) from exc
    if value ** g.level != g.curve.fe(1):
        raise NonConstantCommutator(f"commutator value {value} has order not dividing {g.level}")
    return value


@dataclass(frozen=True)
class HofL:
    """The translation-stabilizer group of the level-n bundle: equals E[n]."""

    level: int
    elements: tuple[CurvePoint, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def h_of_level(curve: Curve, n: int) -> HofL:
    """Points x with n*x fixing the degree-one bundle, computed via principality.

    The base stabilizer {x : (O) - (-x) principal} is trivial on an elliptic
    curve, so the level-n stabilizer is exactly E[n]; the order n^2 is
    asserted and failure means the curve lacks full level-n structure.
    """
    points = enumerate_points(curve)
    base = [x for x in points
            if Divisor.of(curve, [(curve.infinity(), 1), (-x, -1)]).is_principal()]
    if base != [curve.infinity()]:
        raise JordanLabError(f"base stabilizer should be trivial, got {base!r}")
    base_set = set(base)
    level = [x for x in points if (n * x) in base_set]
    if len(level) != n * n:
        raise NotAdmissible(
            f"{curve!r} carries only {len(level)} of the required {n * n} level-{n} points"
        )
    return HofL(n, tuple(sorted(level, key=CurvePoint.sort_key)))


# ---------------------------------------------------------------------------
# canonical mu_n layer and the transport to the Heisenberg-type model


def _lift_power_scalar(n: int, x: CurvePoint) -> FpElement:
    """The central constant of the n-th power of the Miller lift over x."""
    return theta_power(theta_make(n, x), n).f.constant_value()


def symplectic_basis(curve: Curve, n: int) -> tuple[CurvePoint, CurvePoint]:
    """Lexicographically least admissible basis pair of E[n].

    Admissible means the pairing of the pair is a primitive n-th root of
    unity and both fibers admit lifts of exact order n (their Miller-lift
    n-th powers are n-th powers in F_p^*); the second condition is what makes
    the canonical section, and hence the structure transport, exist over F_p.
    """
    points = enumerate_points(curve)
    torsion = [x for x in torsion_subgroup(curve, n) if not x.is_infinity]
    if len(torsion) + 1 != n * n:
        raise NotAdmissible(f"{curve!r} does not carry full level-{n} structure")
    if len(points) <= n * n:
        raise NotAdmissible(
            f"{curve!r} has no points outside the level-{n} part; evaluations degenerate"
        )
    liftable: dict[CurvePoint, bool] = {}

    def is_liftable(x: CurvePoint) -> bool:
        if x not in liftable:
            c = _lift_power_scalar(n, x)
            liftable[x] = nth_root(c, n) is not None
        return liftable[x]

    for p1 in torsion:
        if not is_liftable(p1):
            continue
        for p2 in torsion:
            if p2 == p1 or not is_liftable(p2):
                continue
            if weil_pairing(p1, p2, n).order() == n:
                return (p1, p2)
    raise NotAdmissible(f"no admissible symplectic basis on {curve!r} at level {n}")


class ThetaStructure:
    """Canonical mu_n layer of the theta group with its Heisenberg labelling.

    Carries the basis (P, Q), order-n lifts A, B, the primitive commutator
    value t, the section s(i,j) = t^(-ij) A^i B^j, and the resulting exact
    isomorphism with mu_n x Z/n x dual(Z/n).
    """

    def __init__(self, curve: Curve, n: int):
        self.curve = curve
        self.level = n
        self.group = FinAbGroup((n,))
        if n == 1:
            self.basis = None
            self.t = curve.fe(1)
            self.section = {(0, 0): theta_identity(curve, 1)}
            self.decomposition = {curve.infinity(): (0, 0)}
            self.scalar_log = {curve.fe(1).value: 0}
            return
        p1, p2 = symplectic_basis(curve, n)
        self.basis = (p1, p2)
        lift_a = self._order_n_lift(p1)
        lift_b = self._order_n_lift(p2)
        self.t = theta_commutator(lift_a, lift_b)
        if multiplicative_order(self.t) != n:
            raise NotAdmissible(f"commutator {self.t} is not a primitive level-{n} root")
        t_pow = [self.t ** k for k in range(n)]
        self.scalar_log = {v.value: k for k, v in enumerate(t_pow)}
        a_pow = [theta_identity(curve, n)]
        b_pow = [theta_identity(curve, n)]
        for _ in range(n - 1):
            a_pow.append(theta_mul(a_pow[-1], lift_a))
            b_pow.append(theta_mul(b_pow[-1], lift_b))
        self.section = {
            (i, j): theta_mul(a_pow[i], b_pow[j]).scaled(t_pow[(-i * j) % n])
            for i in range(n)
            for j in range(n)
        }
        self.decomposition = {elem.x: ij for ij, elem in self.section.items()}
        if len(self.decomposition) != n * n:
            raise BasisMismatch(f"{self.basis!r} does not generate E[{n}]")

    def _order_n_lift(self, x: CurvePoint) -> ThetaElement:
        n = self.level
        c = _lift_power_scalar(n, x)
        kappa = nth_root(c.inverse(), n)
        if kappa is None:
            raise NotAdmissible(f"no order-{n} lift over {x!r}")
        lift = theta_make(n, x, kappa)
        check = theta_power(lift, n)
        if check.f.constant_value() != self.curve.fe(1):
            raise JordanLabError("rescaled lift failed to have exact order n")
        return lift

    def scalar_exponent(self, value: FpElement) -> int:
        k = self.scalar_log.get(value.value)
        if k is None:
            raise ScaleNotRootOfUnity(f"scale {value} lies outside mu_{self.level}")
        return k

    def to_heisenberg(self, g: ThetaElement) -> HeisElement:
        ij = self.decomposition.get(g.x)
        if ij is None:
            raise BasisMismatch(f"{g.x!r} is not a level-{self.level} point here")
        i, j = ij
        ratio = ratio_constant(g.f, self.section[ij].f)
        k = self.scalar_exponent(ratio)
        return HeisElement(
            RootOfUnity(self.level, k), self.group.element([i]), self.group.character([j])
        )

    def mu_elements(self) -> list[ThetaElement]:
        """All n^3 elements with a mu_n scale over the canonical section."""
        n = self.level
        keyed = [
            ((self.section[(i, j)].x.sort_key(), k), self.section[(i, j)].scaled(self.t ** k))
            for i in range(n)
            for j in range(n)
            for k in range(n)
        ]
        return [elem for _, elem in sorted(keyed, key=lambda pair: pair[0])]


_STRUCTURES: dict[tuple[Curve, int], ThetaStructure] = {}


def theta_structure(curve: Curve, n: int) -> ThetaStructure:
    key = (curve, n)
    if key not in _STRUCTURES:
        _STRUCTURES[key] = ThetaStructure(curve, n)
    return _STRUCTURES[key]


def theta_to_heisenberg(g: ThetaElement, basis: tuple[CurvePoint, CurvePoint]) -> HeisElement:
    """Transport along the canonical section over the given symplectic basis."""
    structure = theta_structure(g.curve, g.level)
    if structure.basis is not None and tuple(basis) != structure.basis:
        raise BasisMismatch(
            f"transport is built on basis {structure.basis!r}, got {tuple(basis)!r}"
        )
    return structure.to_heisenberg(g)


def theta_enumerate_mu(curve: Curve, n: int, budget: int = THETA_BUDGET) -> list[ThetaElement]:
    """The full mu_n layer: the n^3 elements over the canonical section.

    Multiplies nothing.  Closure of the layer is certified by `theta-verify`
    (cli.run_theta_verify), which transports every product g h through
    ThetaStructure.to_heisenberg and fails the run if one escapes.
    """
    if n > budget:
        raise BudgetExceeded(f"level {n} exceeds the mu-layer budget {budget}")
    return theta_structure(curve, n).mu_elements()


def orientation_sigma(curve: Curve, n: int) -> int:
    """Sign relating the theta commutator to the independent pairing oracle.

    -1 when commutator(A, B) equals the inverse of the embedded pairing of
    the basis pair, +1 when it equals the pairing itself; at level 2 the two
    coincide and the inverse branch is reported, keeping the sign constant
    across instances.  Any other outcome is an error.
    """
    structure = theta_structure(curve, n)
    if structure.basis is None:
        return 1
    p1, p2 = structure.basis
    w = weil_pairing(p1, p2, n)
    embedded = w.embed_in_field(curve.p, mu_generator(curve.p, n))
    if structure.t == embedded.inverse():
        return -1
    if structure.t == embedded:
        return 1
    raise JordanLabError("commutator and pairing oracle disagree beyond orientation")


def find_theta_curve(n: int, p_max: int = 200) -> Curve:
    """First curve (by p, a, b) whose level-n structure transports over F_p."""
    from .ellcurve import iter_admissible_curves

    if n == 1:
        raise ValueError("level 1 is trivial; any curve works")
    for curve in iter_admissible_curves(n, p_max):
        if len(enumerate_points(curve)) <= n * n:
            continue
        try:
            theta_structure(curve, n)
            return curve
        except (NotAdmissible, EvalAtSupport):
            continue
    raise NotAdmissible(f"no curve with a transportable level-{n} structure below {p_max}")
