"""Short Weierstrass curves over small prime fields, with exact function fields.

Everything here is exact and enumeration-friendly: points are found by
scanning x-coordinates, torsion by filtering, and rational functions are kept
in factored form as products of line atoms

    constant * prod_i  line_i(point + offset_i) ^ exponent_i,

where each line is either vertical (x - c) or a chord/tangent (y - lam*x - nu)
and the offset implements translation pullback.  Multiplication, inversion,
pullback and divisor bookkeeping are then trivial and exact; the price is the
lack of a canonical form, so function equality is decided by divisor equality
plus a constant-ratio check at sample points.

Miller functions (divisor n(P) - n(O)) are accumulated from lines by the
standard double-and-add ladder, and the Weil pairing is computed from two
Miller functions evaluated on translated divisors, retrying the random
auxiliary offsets whenever supports collide.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import (
    BudgetExceeded,
    CurveMismatch,
    DegenerateAfterRetries,
    EvalAtSupport,
    JordanLabError,
    NotTorsion,
    OffCurve,
)
from .scalars import FpElement, RootOfUnity, discrete_log_in_mu, is_prime, mu_generator

POINT_BUDGET = 2000  # largest field size enumerate_points will scan


@dataclass(frozen=True)
class Curve:
    """y^2 = x^3 + a*x + b over F_p, p >= 5, nonsingular."""

    p: int
    a: FpElement
    b: FpElement

    def __post_init__(self):
        if self.p < 5 or not is_prime(self.p):
            raise ValueError(f"need a prime p >= 5, got {self.p}")
        if self.a.p != self.p or self.b.p != self.p:
            raise ValueError("coefficients live in the wrong field")
        disc = self.fe(4) * self.a ** 3 + self.fe(27) * self.b ** 2
        if disc.is_zero:
            raise ValueError(f"curve {self.p}:{self.a}:{self.b} is singular")

    @classmethod
    def make(cls, p: int, a: int, b: int) -> "Curve":
        return cls(p, FpElement(p, a), FpElement(p, b))

    def fe(self, v: int) -> FpElement:
        return FpElement(self.p, v)

    def rhs(self, x: FpElement) -> FpElement:
        return x ** 3 + self.a * x + self.b

    def infinity(self) -> "CurvePoint":
        return CurvePoint(self, None, None)

    def point(self, x: int, y: int) -> "CurvePoint":
        return CurvePoint(self, self.fe(x), self.fe(y))

    def __repr__(self):
        return f"E({self.p}:{self.a}:{self.b})"


@dataclass(frozen=True)
class CurvePoint:
    """Affine point (x, y) or the identity O (x = y = None)."""

    curve: Curve
    x: FpElement | None
    y: FpElement | None

    def __post_init__(self):
        if (self.x is None) != (self.y is None):
            raise OffCurve("half-infinite coordinates")
        if self.x is not None and self.y ** 2 != self.curve.rhs(self.x):
            raise OffCurve(f"({self.x},{self.y}) is not on {self.curve!r}")

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def _check(self, other: "CurvePoint") -> None:
        if self.curve != other.curve:
            raise CurveMismatch(f"{self!r} and {other!r} are on different curves")

    def __add__(self, other: "CurvePoint") -> "CurvePoint":
        self._check(other)
        if self.is_infinity:
            return other
        if other.is_infinity:
            return self
        if self.x == other.x and self.y != other.y:
            return self.curve.infinity()
        if self == other:
            if self.y.is_zero:
                return self.curve.infinity()
            lam = (self.curve.fe(3) * self.x ** 2 + self.curve.a) / (self.curve.fe(2) * self.y)
        else:
            lam = (other.y - self.y) / (other.x - self.x)
        x3 = lam ** 2 - self.x - other.x
        y3 = lam * (self.x - x3) - self.y
        return CurvePoint(self.curve, x3, y3)

    def __neg__(self) -> "CurvePoint":
        if self.is_infinity:
            return self
        return CurvePoint(self.curve, self.x, -self.y)

    def __sub__(self, other: "CurvePoint") -> "CurvePoint":
        return self + (-other)

    def __rmul__(self, k: int) -> "CurvePoint":
        if k < 0:
            return (-k) * (-self)
        acc = self.curve.infinity()
        step = self
        while k:
            if k & 1:
                acc = acc + step
            step = step + step
            k >>= 1
        return acc

    def order(self, cap: int = 10 * POINT_BUDGET) -> int:
        acc = self
        for k in range(1, cap + 1):
            if acc.is_infinity:
                return k
            acc = acc + self
        raise JordanLabError(f"order of {self!r} exceeds cap {cap}")

    def sort_key(self):
        if self.is_infinity:
            return (self.curve.p, self.curve.p)
        return (self.x.value, self.y.value)

    def __repr__(self):
        return "O" if self.is_infinity else f"({self.x},{self.y})"


@lru_cache(maxsize=None)
def _sqrt_table(p: int) -> dict[int, tuple[int, ...]]:
    table: dict[int, list[int]] = {}
    for y in range(p):
        table.setdefault(y * y % p, []).append(y)
    return {v: tuple(ys) for v, ys in table.items()}


def _point_count(p: int, a: int, b: int) -> int:
    sqrts = _sqrt_table(p)
    count = 1
    for x in range(p):
        count += len(sqrts.get((x * x * x + a * x + b) % p, ()))
    return count


@lru_cache(maxsize=512)
def enumerate_points(curve: Curve, budget: int = POINT_BUDGET) -> tuple[CurvePoint, ...]:
    """All F_p-points in sorted order, the identity last; Hasse-checked."""
    if curve.p > budget:
        raise BudgetExceeded(f"p = {curve.p} exceeds point enumeration budget {budget}")
    sqrts = _sqrt_table(curve.p)
    points = []
    for x in range(curve.p):
        for y in sqrts.get(curve.rhs(curve.fe(x)).value, ()):
            points.append(curve.point(x, y))
    points.sort(key=CurvePoint.sort_key)
    points.append(curve.infinity())
    count = len(points)
    if (count - curve.p - 1) ** 2 > 4 * curve.p:
        raise JordanLabError(f"point count {count} violates the Hasse bound on {curve!r}")
    return tuple(points)


def affine_points(curve: Curve) -> tuple[CurvePoint, ...]:
    return enumerate_points(curve)[:-1]


@lru_cache(maxsize=512)
def torsion_subgroup(curve: Curve, n: int) -> tuple[CurvePoint, ...]:
    """The points killed by n, in sorted order (identity last)."""
    return tuple(P for P in enumerate_points(curve) if (n * P).is_infinity)


def iter_admissible_curves(n: int, p_max: int) -> Iterator[Curve]:
    """Curves with p = 1 (mod n) carrying full level-n structure, (p, a, b) ordered."""
    if n < 2:
        raise ValueError("level must be at least 2")
    n2 = n * n
    for p in range(5, p_max + 1):
        if not is_prime(p) or (p - 1) % n != 0:
            continue
        for a in range(p):
            for b in range(p):
                if (4 * a * a * a + 27 * b * b) % p == 0:
                    continue
                if _point_count(p, a, b) % n2 != 0:
                    continue
                curve = Curve.make(p, a, b)
                if len(torsion_subgroup(curve, n)) == n2:
                    yield curve


def curve_search(n: int, p_max: int) -> list[Curve]:
    """All admissible (p, a, b) with p <= p_max, in lexicographic order."""
    return list(iter_admissible_curves(n, p_max))


# ---------------------------------------------------------------------------
# divisors


@dataclass(frozen=True)
class Divisor:
    """Finite formal sum of points with nonzero integer multiplicities."""

    curve: Curve
    items: tuple[tuple[CurvePoint, int], ...]

    @classmethod
    def of(cls, curve: Curve, data: dict[CurvePoint, int] | Iterable[tuple[CurvePoint, int]]) -> "Divisor":
        acc: dict[CurvePoint, int] = {}
        pairs = data.items() if isinstance(data, dict) else data
        for point, mult in pairs:
            if point.curve != curve:
                raise CurveMismatch(f"{point!r} is not on {curve!r}")
            acc[point] = acc.get(point, 0) + mult
        cleaned = tuple(sorted(((pt, m) for pt, m in acc.items() if m != 0),
                               key=lambda it: it[0].sort_key()))
        return cls(curve, cleaned)

    @classmethod
    def zero(cls, curve: Curve) -> "Divisor":
        return cls(curve, ())

    @property
    def is_zero(self) -> bool:
        return not self.items

    def multiplicity(self, point: CurvePoint) -> int:
        for pt, m in self.items:
            if pt == point:
                return m
        return 0

    def support(self) -> tuple[CurvePoint, ...]:
        return tuple(pt for pt, _ in self.items)

    def degree(self) -> int:
        return sum(m for _, m in self.items)

    def point_sum(self) -> CurvePoint:
        """The group-law sum of the divisor, sum of mult * P."""
        acc = self.curve.infinity()
        for pt, m in self.items:
            acc = acc + m * pt
        return acc

    def is_principal(self) -> bool:
        """Degree zero and group-law sum O: the divisor of some rational function."""
        return self.degree() == 0 and self.point_sum().is_infinity

    def translate(self, y: CurvePoint) -> "Divisor":
        """Pullback along translation by y: every point Q becomes Q - y."""
        return Divisor.of(self.curve, [(pt - y, m) for pt, m in self.items])

    def __add__(self, other: "Divisor") -> "Divisor":
        if self.curve != other.curve:
            raise CurveMismatch("divisors on different curves")
        return Divisor.of(self.curve, self.items + other.items)

    def __neg__(self) -> "Divisor":
        return Divisor.of(self.curve, [(pt, -m) for pt, m in self.items])

    def __sub__(self, other: "Divisor") -> "Divisor":
        return self + (-other)

    def scale(self, k: int) -> "Divisor":
        return Divisor.of(self.curve, [(pt, k * m) for pt, m in self.items])

    def __repr__(self):
        if not self.items:
            return "0"
        return " + ".join(f"{m}*({pt!r})" for pt, m in self.items)


def is_principal(divisor: Divisor) -> bool:
    return divisor.is_principal()


# ---------------------------------------------------------------------------
# tracked rational functions


@dataclass(frozen=True)
class VerticalLine:
    """The function x - c."""

    c: FpElement

    def eval(self, point: CurvePoint) -> FpElement:
        return point.x - self.c


@dataclass(frozen=True)
class ChordLine:
    """The function y - lam*x - nu."""

    lam: FpElement
    nu: FpElement

    def eval(self, point: CurvePoint) -> FpElement:
        return point.y - self.lam * point.x - self.nu


@dataclass(frozen=True)
class Atom:
    """One factor line(point + offset) ^ exponent with its known base divisor."""

    line: VerticalLine | ChordLine
    base_divisor: Divisor
    offset: CurvePoint
    exponent: int

    def divisor(self) -> Divisor:
        return self.base_divisor.translate(self.offset).scale(self.exponent)

    def eval(self, point: CurvePoint) -> FpElement:
        arg = point + self.offset
        if arg.is_infinity:
            raise EvalAtSupport(f"atom argument hit the identity at {point!r}")
        value = self.line.eval(arg)
        if value.is_zero:
            raise EvalAtSupport(f"atom vanished at {point!r}")
        return value ** self.exponent


@dataclass(frozen=True)
class TrackedFunction:
    """A nonzero rational function as constant * product of offset line atoms."""

    curve: Curve
    const: FpElement
    atoms: tuple[Atom, ...]

    def __post_init__(self):
        if self.const.is_zero:
            raise ValueError("tracked functions are nonzero")

    @classmethod
    def constant(cls, curve: Curve, value: FpElement | int) -> "TrackedFunction":
        if isinstance(value, int):
            value = curve.fe(value)
        return cls(curve, value, ())

    @classmethod
    def one(cls, curve: Curve) -> "TrackedFunction":
        return cls.constant(curve, 1)

    def divisor(self) -> Divisor:
        acc = Divisor.zero(self.curve)
        for atom in self.atoms:
            acc = acc + atom.divisor()
        return acc

    def _merged(self, atoms: Iterable[Atom]) -> tuple[Atom, ...]:
        merged: dict[tuple, Atom] = {}
        for atom in atoms:
            key = (atom.line, atom.offset)
            if key in merged:
                prev = merged[key]
                total = prev.exponent + atom.exponent
                if total == 0:
                    del merged[key]
                else:
                    merged[key] = Atom(prev.line, prev.base_divisor, prev.offset, total)
            else:
                merged[key] = atom
        return tuple(merged.values())

    def __mul__(self, other: "TrackedFunction") -> "TrackedFunction":
        if self.curve != other.curve:
            raise CurveMismatch("functions on different curves")
        return TrackedFunction(self.curve, self.const * other.const,
                               self._merged(self.atoms + other.atoms))

    def inverse(self) -> "TrackedFunction":
        flipped = tuple(Atom(a.line, a.base_divisor, a.offset, -a.exponent) for a in self.atoms)
        return TrackedFunction(self.curve, self.const.inverse(), flipped)

    def __pow__(self, k: int) -> "TrackedFunction":
        if k == 0:
            return TrackedFunction.one(self.curve)
        base = self if k > 0 else self.inverse()
        k = abs(k)
        scaled = tuple(Atom(a.line, a.base_divisor, a.offset, k * a.exponent) for a in base.atoms)
        return TrackedFunction(self.curve, base.const ** k, scaled)

    def scale(self, value: FpElement | int) -> "TrackedFunction":
        if isinstance(value, int):
            value = self.curve.fe(value)
        return TrackedFunction(self.curve, self.const * value, self.atoms)

    def translate(self, y: CurvePoint) -> "TrackedFunction":
        """Translation pullback: the function P -> f(P + y)."""
        if y.curve != self.curve:
            raise CurveMismatch("offset point on a different curve")
        moved = tuple(Atom(a.line, a.base_divisor, a.offset + y, a.exponent) for a in self.atoms)
        return TrackedFunction(self.curve, self.const, moved)

    def __call__(self, point: CurvePoint) -> FpElement:
        if point.curve != self.curve:
            raise CurveMismatch(f"{point!r} is not on {self.curve!r}")
        value = self.const
        for atom in self.atoms:
            value = value * atom.eval(point)
        return value

    def constant_value(self, samples: int = 3) -> FpElement:
        """Value of a divisor-free function, cross-checked at several points."""
        if not self.divisor().is_zero:
            raise JordanLabError("constant_value on a function with nontrivial divisor")
        values = []
        for point in affine_points(self.curve):
            try:
                values.append(self(point))
            except EvalAtSupport:
                continue
            if len(values) >= samples:
                break
        if not values:
            raise EvalAtSupport("no sample point avoids the atom supports")
        if any(v != values[0] for v in values):
            raise JordanLabError("divisor-free function is not constant; atom bookkeeping bug")
        return values[0]

    def __repr__(self):
        return f"Fn({self.const}; {len(self.atoms)} atoms)"


def ratio_constant(f: TrackedFunction, g: TrackedFunction) -> FpElement:
    """The constant f/g for functions with equal divisors."""
    return (f * g.inverse()).constant_value()


def line_function(p1: CurvePoint, p2: CurvePoint) -> TrackedFunction:
    """The line through two points (tangent if equal, vertical through O)."""
    p1._check(p2)
    curve = p1.curve
    if p1.is_infinity and p2.is_infinity:
        raise OffCurve("no line atom through O twice")
    if p1.is_infinity or p2.is_infinity:
        base = p1 if p2.is_infinity else p2
        return _vertical(curve, base)
    if p1.x == p2.x and (p1 != p2 or p1.y.is_zero):
        return _vertical(curve, p1)
    if p1 == p2:
        lam = (curve.fe(3) * p1.x ** 2 + curve.a) / (curve.fe(2) * p1.y)
    else:
        lam = (p2.y - p1.y) / (p2.x - p1.x)
    nu = p1.y - lam * p1.x
    third = -(p1 + p2)
    div = Divisor.of(curve, [(p1, 1), (p2, 1), (third, 1), (curve.infinity(), -3)])
    atom = Atom(ChordLine(lam, nu), div, curve.infinity(), 1)
    return TrackedFunction(curve, curve.fe(1), (atom,))


def _vertical(curve: Curve, point: CurvePoint) -> TrackedFunction:
    div = Divisor.of(curve, [(point, 1), (-point, 1), (curve.infinity(), -2)])
    atom = Atom(VerticalLine(point.x), div, curve.infinity(), 1)
    return TrackedFunction(curve, curve.fe(1), (atom,))


def _line_over_vertical(r: CurvePoint, s: CurvePoint) -> TrackedFunction:
    """line(r, s) / vertical(r + s), the Miller ladder step factor."""
    total = r + s
    line = line_function(r, s)
    if total.is_infinity:
        return line
    return line * _vertical(r.curve, total).inverse()


def _miller_ladder(order: int, point: CurvePoint) -> TrackedFunction:
    f = TrackedFunction.one(point.curve)
    r = point
    for bit in bin(order)[3:]:
        f = f * f * _line_over_vertical(r, r)
        r = r + r
        if bit == "1":
            f = f * _line_over_vertical(r, point)
            r = r + point
    if not r.is_infinity:
        raise NotTorsion(f"ladder did not close: order {order} is wrong for {point!r}")
    return f


def _normalize(fn: TrackedFunction) -> TrackedFunction:
    """Scale so the value at the least evaluable affine reference point is 1."""
    for ref in affine_points(fn.curve):
        try:
            value = fn(ref)
        except EvalAtSupport:
            continue
        return fn.scale(value.inverse())
    raise EvalAtSupport(f"no reference point available on {fn.curve!r}")


def miller_function(n: int, point: CurvePoint) -> TrackedFunction:
    """Normalized function with divisor n(P) - n(O), for any P with nP = O."""
    if point.is_infinity:
        raise NotTorsion("the base point of a Miller function must differ from O")
    d = point.order()
    if n <= 0 or n % d != 0:
        raise NotTorsion(f"{point!r} has order {d}, which does not divide n = {n}")
    f = _miller_ladder(d, point)
    if n != d:
        f = f ** (n // d)
    return _normalize(f)


def weil_pairing(
    p1: CurvePoint,
    p2: CurvePoint,
    n: int,
    seed: int = 0,
    max_retries: int = 16,
) -> RootOfUnity:
    """The level-n pairing of two n-torsion points, as an exponent in mu_n.

    Computed as f_A(B) / f_B(A) with A ~ (P) - (O) and B ~ (Q) - (O) moved by
    random auxiliary offsets so the supports stay disjoint; the value is
    discrete-logged against the fixed order-n generator of mu_n in F_p.
    """
    p1._check(p2)
    curve = p1.curve
    if not (n * p1).is_infinity or not (n * p2).is_infinity:
        raise NotTorsion(f"both points must be killed by {n}")
    if n == 1 or p1.is_infinity or p2.is_infinity:
        return RootOfUnity.one(n)
    generator = mu_generator(curve.p, n)
    f1 = miller_function(n, p1)
    f2 = miller_function(n, p2)
    rng = random.Random(f"{seed}:{curve.p}:{n}")
    pool = affine_points(curve)
    for _ in range(max_retries):
        r = rng.choice(pool)
        s = rng.choice(pool)
        fa = f1.translate(-r)  # divisor n(P + R) - n(R)
        fb = f2.translate(-s)  # divisor n(Q + S) - n(S)
        try:
            value = (fa(p2 + s) / fa(s)) / (fb(p1 + r) / fb(r))
        except EvalAtSupport:
            continue
        if value ** n != curve.fe(1):
            raise JordanLabError(f"pairing value {value} escaped mu_{n}")
        return RootOfUnity(n, discrete_log_in_mu(value, generator, n))
    raise DegenerateAfterRetries(
        f"no offset choice avoided the supports after {max_retries} tries on {curve!r}"
    )


# ---------------------------------------------------------------------------
# CLI literals


def parse_curve(text: str) -> Curve:
    """Parse the "p:a:b" curve literal."""
    try:
        p, a, b = (int(part) for part in text.split(":"))
    except ValueError as exc:
        raise ValueError(f"cannot parse curve literal {text!r}, want p:a:b") from exc
    return Curve.make(p, a, b)


def parse_point(curve: Curve, text: str) -> CurvePoint:
    """Parse "inf" or "x,y" into a point on the curve."""
    if text.strip().lower() == "inf":
        return curve.infinity()
    try:
        x, y = (int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse point literal {text!r}, want x,y or inf") from exc
    return curve.point(x, y)
