"""Short Weierstrass curves over small prime fields, with exact function fields.

Everything here is exact and enumeration-friendly: points are found by
scanning x-coordinates, torsion by filtering, and rational functions are kept
in factored form as products of line atoms

    constant * prod_i  line_i(point + offset_i) ^ exponent_i,

where each line is an int triple (u, v, w), the function u*y + v*x + w mod p:
(0, 1, -c) for the vertical x - c, (1, -lam, -nu) for the chord or tangent
y - lam*x - nu.  An atom is a plain tuple (line, offset, exponent, base divisor),
and the offset implements translation pullback.  Multiplication, inversion,
pullback and divisor bookkeeping are then trivial and exact; the price is the
lack of a canonical form, so function equality is decided by divisor equality
plus a constant-ratio check at sample points.

Miller functions (divisor n(P) - n(O)) are accumulated from lines by the
standard double-and-add ladder, and the Weil pairing is computed from two
Miller functions evaluated on translated divisors, retrying the random
auxiliary offsets whenever supports collide.  function_values evaluates a
function at many points, and weil_pairing_table gives the pairing exponent of
every pair of a point list from one evaluation per point.  Every sum, multiple
and atom argument goes through one law, Curve._add, on kept CurvePoints.

Inside the layer an element of F_p is an int in [0, p): coordinates, line
coefficients, function constants and the values of TrackedFunction.value_at.
Curve search runs on ints too: admissible_rows yields (p, a, b, #E) rows, and
iter_admissible_curves builds a Curve from a row for the callers that need one.
FpElement is kept at its edge: Curve.a and .b, the values __call__ returns, the
arguments of scale and constant, weil_pairing.
"""

from __future__ import annotations

import operator
import random
from functools import lru_cache
from itertools import compress, repeat
from math import isqrt
from typing import Iterable, Iterator, Sequence

from .errors import (
    BudgetExceeded,
    CertificateError,
    CurveMismatch,
    DegenerateAfterRetries,
    EvalAtSupport,
    JordanLabError,
    NotTorsion,
    OffCurve,
)
from .frozen import Frozen, set_field
from .scalars import FpElement, RootOfUnity, discrete_log_in_mu, is_prime, mu_generator

POINT_BUDGET = 2000  # largest field size enumerate_points will scan
ORDER_CAP = 10 * POINT_BUDGET  # largest point order CurvePoint.order will step to
CONSTANT_SAMPLES = 3  # points at which constant_value cross-checks a function
PAIRING_RETRIES = 16  # offset pairs weil_pairing tries before giving up


class Curve(Frozen):
    """y^2 = x^3 + a*x + b over F_p, p >= 5, nonsingular.  count, if given, is #E(F_p) as
    the caller counted and Hasse-checked it; iter_admissible_curves passes the count of its
    row, which its class took on points or as 2p + 2 minus its twist's, and which
    _torsion_count's pass over the roots then matched.  Each instance keeps one CurvePoint
    per coordinate pair in _points, at most #E(F_p) of them, and a memo _sums of the sums
    of two affine points, keyed on their coordinates (x1, y1, x2, y2), at most #E(F_p)^2
    entries.  The memo is made at the first sum, so a Curve that never adds, as most that
    iter_admissible_curves yields, holds none.  Equality and hashing read p, a and b only."""

    __slots__ = ("p", "a", "b", "_count", "_points", "_sums")

    def __init__(self, p: int, a: FpElement, b: FpElement, count: int | None = None):
        if p < 5 or not is_prime(p):
            raise ValueError(f"need a prime p >= 5, got {p}")
        if a.p != p or b.p != p:
            raise ValueError("coefficients live in the wrong field")
        if (4 * a.value ** 3 + 27 * b.value ** 2) % p == 0:
            raise ValueError(f"curve {p}:{a}:{b} is singular")
        set_field(self, "p", p)
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "_count", count)
        set_field(self, "_points", {})
        set_field(self, "_sums", None)  # made by _add at the first addition

    @classmethod
    def make(cls, p: int, a: int, b: int) -> "Curve":
        return cls(p, FpElement(p, a), FpElement(p, b))

    def fe(self, v: int) -> FpElement:
        return FpElement(self.p, v)

    def infinity(self) -> "CurvePoint":
        point = self._points.get(None)
        if point is None:
            point = self._points[None] = CurvePoint(self, None, None)
        return point

    def point(self, x: int, y: int) -> "CurvePoint":
        """The one point kept for (x, y) mod p, built and checked on the curve at first
        use; a pair off the curve raises OffCurve on every call and is never kept."""
        p = self.p
        key = (x % p, y % p)
        point = self._points.get(key)
        if point is None:
            point = self._points[key] = CurvePoint(self, *key)
        return point

    def _add(self, P: "CurvePoint", Q: "CurvePoint") -> "CurvePoint":
        """P + Q for points of this curve, unchecked: P or Q itself when the other is O,
        else the kept sum, by _chord_tangent and Curve.point at the first call for the
        pair of coordinates and from _sums after."""
        if P.x is None:
            return Q
        if Q.x is None:
            return P
        key = (P.x, P.y, Q.x, Q.y)
        sums = self._sums
        if sums is None:
            sums = {}
            set_field(self, "_sums", sums)
        point = sums.get(key)
        if point is None:
            # the law unchecked: Curve.point checks a new sum on the curve
            coords = _chord_tangent(self.p, self.a.value, *key)
            point = sums[key] = self.infinity() if coords is None else self.point(*coords)
        return point

    def point_count(self) -> int:
        """#E(F_p), counted on integer coordinates and Hasse-checked, unless given."""
        return self._count or _point_count(self.p, self.a.value, self.b.value)

    def __eq__(self, other):
        if other.__class__ is not Curve:
            return NotImplemented
        return (self.p, self.a, self.b) == (other.p, other.a, other.b)

    def __hash__(self):
        # the ints __eq__ compares, without hashing two FpElements
        return hash((self.p, self.a.value, self.b.value))

    def __repr__(self):
        return f"E({self.p}:{self.a}:{self.b})"


class CurvePoint(Frozen):
    """Affine point (x, y) of ints in [0, p), reduced by __init__, or O (x = y = None).

    The group law is Curve._add, _chord_tangent on the integer coordinates with a
    memo, and k * P runs double-and-add over it.  Sums, negatives, multiples and
    enumerate_points take their points from Curve.point, so each coordinate pair of
    a Curve instance is built and checked on the curve once, by __init__, and the
    point is kept.  P + Q of two affine points is read from the memo of P's curve,
    keyed on the coordinates of P and Q, never on their ids: a point built directly
    is not kept, and its id may be reused.
    """

    __slots__ = ("curve", "x", "y")

    def __init__(self, curve: Curve, x: int | None, y: int | None):
        if (x is None) != (y is None):
            raise OffCurve("half-infinite coordinates")
        if x is not None:
            p = curve.p
            x, y = x % p, y % p
            if (y * y - (x * x + curve.a.value) * x - curve.b.value) % p:
                raise OffCurve(f"({x},{y}) is not on {curve!r}")
        set_field(self, "curve", curve)
        set_field(self, "x", x)
        set_field(self, "y", y)

    def __eq__(self, other):
        if self is other:  # points are kept per curve, so this decides most comparisons
            return True
        if other.__class__ is not CurvePoint:
            return NotImplemented
        return (self.curve, self.x, self.y) == (other.curve, other.x, other.y)

    def __hash__(self):
        # the coordinates alone, without hashing the Curve
        return hash(None if self.x is None else (self.x, self.y))

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def _check(self, other: "CurvePoint") -> None:
        if self.curve is not other.curve and self.curve != other.curve:
            raise CurveMismatch(f"{self!r} and {other!r} are on different curves")

    def __add__(self, other: "CurvePoint") -> "CurvePoint":
        if other.curve is not self.curve:  # most sums are of points of one instance
            self._check(other)
        return self.curve._add(self, other)

    def __neg__(self) -> "CurvePoint":
        if self.is_infinity:
            return self
        return self.curve.point(self.x, -self.y)

    def __sub__(self, other: "CurvePoint") -> "CurvePoint":
        return self + (-other)

    def __rmul__(self, k: int) -> "CurvePoint":
        if k < 0:
            return (-k) * (-self)
        # double-and-add: one Curve._add per addition or doubling, none past a doubling to O
        add = self.curve._add
        acc, step = self.curve.infinity(), self
        while k and step.x is not None:
            if k & 1:
                acc = add(acc, step)
            k >>= 1
            if k:
                step = add(step, step)
        return acc

    def order(self) -> int:
        acc = self
        for k in range(1, ORDER_CAP + 1):
            if acc.is_infinity:
                return k
            acc = acc + self
        raise JordanLabError(f"order of {self!r} exceeds cap {ORDER_CAP}")

    def sort_key(self):
        if self.is_infinity:
            return (self.curve.p, self.curve.p)
        return (self.x, self.y)

    def __repr__(self):
        return "O" if self.is_infinity else f"({self.x},{self.y})"


@lru_cache(maxsize=None)
def _sqrt_table(p: int) -> dict[int, tuple[int, ...]]:
    table: dict[int, list[int]] = {}
    for y in range(p):
        table.setdefault(y * y % p, []).append(y)
    return {v: tuple(ys) for v, ys in table.items()}


@lru_cache(maxsize=16)  # the scan moves on prime by prime
def _cubes(p: int) -> list[int]:
    return [x * x * x % p for x in range(p)]


def _rhs_values(p: int, a: int, b: int) -> Iterator[int]:
    """x^3 + a x + b mod p for x = 0, 1, ..., p - 1, by map over the cubes mod p."""
    cubes = _cubes(p)
    shifted = map(operator.add, cubes, range(b, b + a * p, a)) if a else map(b.__add__, cubes)
    return map(operator.mod, shifted, repeat(p))


# Integer kernel: the chord-tangent law under Curve._add, and the counts of curve search,
# which build no points.


def _budget_check(p: int) -> None:
    if p > POINT_BUDGET:
        raise BudgetExceeded(f"p = {p} exceeds point enumeration budget {POINT_BUDGET}")


def _slope(p: int, a: int, x1: int, y1: int, x2: int, y2: int) -> int:
    """Slope of the chord through two affine points, or of the tangent when they are equal."""
    if x1 == x2:
        return (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    return (y2 - y1) * pow(x2 - x1, -1, p) % p


def _chord_tangent(p: int, a: int, x1: int, y1: int, x2: int, y2: int) -> tuple[int, int] | None:
    """P + Q for affine P, Q by the chord-tangent law (Silverman III.2.3); unchecked.
    Curve._add is its one caller."""
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    lam = _slope(p, a, x1, y1, x2, y2)
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _point_count(p: int, a: int, b: int) -> int:
    """#E(F_p), Hasse-checked."""
    _budget_check(p)
    count = 1 + sum(map(len, filter(None, map(_sqrt_table(p).get, _rhs_values(p, a, b)))))
    if (count - p - 1) ** 2 > 4 * p:
        raise CertificateError(f"point count {count} violates the Hasse bound on E({p}:{a}:{b})")
    return count


def _division_values(p: int, a: int, b: int, n: int, xs: list[int], rhs: list[int]) -> list[int]:
    """f_n(x) mod p for each x of xs, where rhs holds x^3 + a x + b: f_n is the division
    polynomial psi_n for odd n and psi_n / psi_2 for even n (Washington 3.2), a polynomial
    in x alone.  With F = 4(x^3 + a x + b) = psi_2^2, f_1 = f_2 = 1, f_3 and f_4 are given in
    closed form, and for larger k
        f_{2m+1} = F^2 f_{m+2} f_m^3 - f_{m-1} f_{m+1}^3   (m even),
        f_{2m+1} = f_{m+2} f_m^3 - F^2 f_{m-1} f_{m+1}^3   (m odd),
        f_{2m}   = f_m (f_{m+2} f_{m-1}^2 - f_{m-2} f_{m+1}^2),
    each an int list over xs, made only for the indices that f_n needs."""
    f: dict[int, list[int]] = {}
    big_f2: list[int] = []  # F^2, made at the first odd index past 4

    def value(k: int) -> list[int]:
        if k in f:
            return f[k]
        m = k // 2
        if k <= 2:
            row = [1] * len(xs)
        elif k == 3:
            row = [((3 * x * x + 6 * a) * x * x + 12 * b * x - a * a) % p for x in xs]
        elif k == 4:
            row = [2 * ((((x * x + 5 * a) * x + 20 * b) * x - 5 * a * a) * x * x
                        - 4 * a * b * x - 8 * b * b - a * a * a) % p for x in xs]
        elif k % 2 == 0:
            row = [v * (u * s * s - q * t * t) % p for v, u, s, q, t in
                   zip(value(m), value(m + 2), value(m - 1), value(m - 2), value(m + 1))]
        else:
            if not big_f2:
                big_f2.extend(16 * r * r % p for r in rhs)
            terms = zip(value(m + 2), value(m), value(m - 1), value(m + 1), big_f2)
            if m % 2:
                row = [(u * v ** 3 - w * s * t ** 3) % p for u, v, s, t, w in terms]
            else:
                row = [(w * u * v ** 3 - s * t ** 3) % p for u, v, s, t, w in terms]
        f[k] = row
        return row

    return value(n)


def _torsion_count(p: int, a: int, b: int, n: int) -> tuple[int, int]:
    """(#E[n](F_p), #E(F_p)), O included in both, from one pass over the x with roots.

    For p not dividing n an affine P = (x, y) is killed by n exactly when f_n(x) = 0
    (_division_values), or when n is even and y = 0, so P has order 2: for even n, when
    (x^3 + a x + b) f_n(x) = 0.  Both roots y and -y of one x are killed or neither.  The
    same pass sums the root counts."""
    _budget_check(p)
    if n % p == 0:
        raise ValueError(f"division polynomials count E[{n}] only for p not dividing n, got p = {p}")
    rhs = list(_rhs_values(p, a, b))
    roots = list(map(_sqrt_table(p).get, rhs))
    xs, rhs = list(compress(range(p), roots)), list(compress(rhs, roots))
    roots = list(filter(None, roots))
    values = _division_values(p, a, b, n, xs, rhs)
    if n % 2 == 0:
        values = map(operator.mul, values, rhs)
    killed = sum(map(len, compress(roots, map(operator.not_, values))))
    return 1 + killed, 1 + sum(map(len, roots))


@lru_cache(maxsize=512)
def enumerate_points(curve: Curve) -> tuple[CurvePoint, ...]:
    """All F_p-points in sorted order, the identity last; Hasse-checked."""
    p, a, b = curve.p, curve.a.value, curve.b.value
    _budget_check(p)
    points = []
    for x, ys in enumerate(map(_sqrt_table(p).get, _rhs_values(p, a, b))):
        for y in ys or ():
            points.append(curve.point(x, y))
    points.sort(key=CurvePoint.sort_key)
    points.append(curve.infinity())
    count = len(points)
    if (count - curve.p - 1) ** 2 > 4 * curve.p:
        raise CertificateError(f"point count {count} violates the Hasse bound on {curve!r}")
    return tuple(points)


def affine_points(curve: Curve) -> tuple[CurvePoint, ...]:
    return enumerate_points(curve)[:-1]


@lru_cache(maxsize=512)
def torsion_subgroup(curve: Curve, n: int) -> tuple[CurvePoint, ...]:
    """The points killed by n, in sorted order (identity last)."""
    return tuple(P for P in enumerate_points(curve) if (n * P).is_infinity)


def _hasse_allows(p: int, n2: int) -> bool:
    """Whether Hasse's interval [p + 1 - isqrt(4p), p + 1 + isqrt(4p)] holds a multiple of n2."""
    r = isqrt(4 * p)
    return (p + 1 + r) // n2 * n2 >= p + 1 - r


def _coset_leaders(p: int, powers: list[int]) -> list[int]:
    """The least member of each coset of the subgroup powers of F_p^*."""
    leaders, seen = [], set()
    for v in range(1, p):
        if v not in seen:
            leaders.append(v)
            seen.update(v * w % p for w in powers)
    return leaders


def _least_nonresidue(p: int) -> int:
    return next(v for v in range(2, p) if pow(v, (p - 1) // 2, p) == p - 1)


def _class_representatives(p: int, coset: list[int], d: int) -> list[tuple[int, int]]:
    """One (a, b) per isomorphism class whose a lies in coset, a coset of the fourth powers
    in increasing order.  With ab != 0 the class is fixed by a^3 / b^2 = J and by whether ab
    is a square (Silverman III.1, X.5): (J, J) and its twist (J d^2, J d^3) for the least
    nonresidue d, the twist written (c, c d) with c = J d^2 in the coset."""
    singular = -27 * pow(4, -1, p) % p  # 4 J^3 + 27 J^2 = 0 for J != 0
    return ([(coset[0], 0)] + [(j, j) for j in coset if j != singular]
            + [(c, c * d % p) for c in coset if c != singular * d * d % p])


def _class_rows(p: int, units: list[tuple[int, int]], d: int) -> dict[int, list[tuple[int, int]]]:
    """One (a, b) per isomorphism class of nonsingular curves over F_p, filed under the row
    at which _admissible_at counts it.  units holds (u^4, u^6) for u = 1 .. (p - 1) / 2 and
    d is the least nonresidue.  Row 0 holds the classes (0, v), v the least member of a
    coset of the sixth powers; row c, the least member of a coset of the fourth powers,
    holds the classes of _class_representatives whose a lies in that coset."""
    fourths = [u4 for u4, _ in units]
    rows = {0: [(0, v) for v in _coset_leaders(p, [u6 for _, u6 in units])]}
    for c in _coset_leaders(p, fourths):
        rows[c] = _class_representatives(p, sorted({c * w % p for w in fourths}), d)
    return rows


def _admissible_at(p: int, n: int) -> Iterator[tuple[int, int, int, int]]:
    """(p, a, b, #E) for the curves over F_p carrying full level-n structure, in (a, b) order.

    Every member (u^4 a, u^6 b) of a class with a != 0 has its a in the coset of the fourth
    powers that holds the representative's.  So the rows a = 0, 1, 2, ... are walked in
    turn, and when a row of _class_rows comes up, its classes are counted, each once at its
    representative, and the members of the admissible ones are listed by row.  Each row is
    yielded sorted by b.

    The quadratic twist (a d^2, b d^3) has 2p + 2 - #E points, so a class whose twist's
    class was counted first takes that count, and the other half are counted on points
    (_point_count).  A class with n^2 | #E has E[n] counted by _torsion_count, whose pass
    also counts its points: they must match the count it took, or CertificateError."""
    n2 = n * n
    units = [(u ** 4 % p, u ** 6 % p) for u in range(1, (p + 1) // 2)]  # u and -u act alike
    d = _least_nonresidue(p)
    d2, d3, back = d * d % p, d ** 3 % p, pow(d, -2, p)
    fourths, sixths = [u4 for u4, _ in units], [u6 for _, u6 in units]
    twin_counts: dict[tuple[int, int], int] = {}  # class -> 2p + 2 - #E of its twist's
    rows: dict[int, list[tuple[int, int]]] = {}

    def twist(a: int, b: int) -> tuple[int, int]:
        """The representative of the class of (a d^2, b d^3)."""
        if not a:
            return 0, min(b * d3 * w % p for w in sixths)
        if not b:
            return min(a * d2 * w % p for w in fourths), 0
        if a == b:  # (J, J) -> (J d^2, J d^3)
            return a * d2 % p, a * d3 % p
        return a * back % p, a * back % p  # (c, c d) -> (c / d^2, c / d^2)

    classes = _class_rows(p, units, d)
    for row in range(p):
        for rep in classes.get(row, ()):
            a, b = rep
            count = twin_counts.pop(rep, None)
            if count is None:
                count = _point_count(p, a, b)
                twin_counts[twist(a, b)] = 2 * p + 2 - count
            if count % n2:
                continue
            killed, points = _torsion_count(p, a, b, n)
            if points != count:
                raise CertificateError(f"E({p}:{a}:{b}) has {points} points on its roots, "
                                       f"not the {count} its class took")
            if killed == n2:
                # a set: the orbit of (0, v) or (v, 0) meets a member twice when u^6 or u^4 does
                for x, y in {(u4 * a % p, u6 * b % p) for u4, u6 in units}:
                    rows.setdefault(x, []).append((y, count))
        for b, count in sorted(rows.pop(row, ())):
            yield p, row, b, count


def admissible_rows(n: int, p_max: int) -> Iterator[tuple[int, int, int, int]]:
    """(p, a, b, #E) for the curves with p = 1 (mod n) carrying full level-n structure, in
    (p, a, b) order.

    Full level-n structure needs n^2 | #E: a prime whose Hasse interval holds no multiple
    of n^2 is ruled out by the Hasse bound and skipped.  (a, b) and (u^4 a, u^6 b) are
    isomorphic by (x, y) -> (u^2 x, u^3 y), with the same #E and E[n], so #E is taken
    once per isomorphism class, at a representative, on integer coordinates or from its
    twist, and E[n] is counted off the division polynomials, as
    _admissible_at lays out; no Curve is built.  Only p = 1 (mod n) is visited.  A prime
    p = 1 (mod n) past the point budget, where the scan would stop, is refused before the
    first prime is scanned.
    """
    if n < 2:
        raise ValueError("level must be at least 2")
    # the least q > POINT_BUDGET, and the least p >= 5, with q, p = 1 (mod n)
    for q in range(POINT_BUDGET + 1 + -POINT_BUDGET % n, p_max + 1, n):
        if is_prime(q):
            _budget_check(q)  # raises BudgetExceeded
    n2 = n * n
    for p in range(5 + -4 % n, min(p_max, POINT_BUDGET) + 1, n):
        if is_prime(p) and _hasse_allows(p, n2):
            yield from _admissible_at(p, n)


def iter_admissible_curves(n: int, p_max: int) -> Iterator[Curve]:
    """The curves of admissible_rows, each built from its row and carrying its count."""
    for p, a, b, count in admissible_rows(n, p_max):
        yield Curve(p, FpElement(p, a), FpElement(p, b), count)


def curve_search(n: int, p_max: int) -> list[Curve]:
    """All admissible (p, a, b) with p <= p_max, in lexicographic order."""
    return list(iter_admissible_curves(n, p_max))


# ---------------------------------------------------------------------------
# divisors


class Divisor(Frozen):
    """Finite formal sum of points with nonzero integer multiplicities."""

    __slots__ = ("curve", "items")

    def __init__(self, curve: Curve, items: tuple[tuple[CurvePoint, int], ...]):
        set_field(self, "curve", curve)
        set_field(self, "items", items)

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


class TrackedFunction(Frozen):
    """A nonzero rational function as const * product of offset line atoms; const is an
    int, reduced by __init__.

    An atom is a tuple (line, offset, exponent, base_divisor), the factor
    line(point + offset) ^ exponent, where base_divisor is the divisor of line itself.
    A line is an int triple (u, v, w) in [0, p), the function u*y + v*x + w: the
    vertical x - c is (0, 1, -c) and the chord y - lam*x - nu is (1, -lam, -nu), mod p."""

    __slots__ = ("curve", "const", "atoms")

    def __init__(self, curve: Curve, const: int, atoms: tuple[tuple, ...]):
        const %= curve.p
        if not const:
            raise ValueError("tracked functions are nonzero")
        set_field(self, "curve", curve)
        set_field(self, "const", const)
        set_field(self, "atoms", atoms)

    @classmethod
    def constant(cls, curve: Curve, value: FpElement | int) -> "TrackedFunction":
        return cls(curve, _int(value), ())

    @classmethod
    def one(cls, curve: Curve) -> "TrackedFunction":
        return cls.constant(curve, 1)

    def divisor(self) -> Divisor:
        """The sum over atoms of exponent * (base divisor pulled back along the offset)."""
        return Divisor.of(self.curve, [(pt - offset, e * m) for _, offset, e, base in self.atoms
                                       for pt, m in base.items])

    def _merged(self, atoms: Iterable[tuple]) -> tuple[tuple, ...]:
        """The atoms with the exponents of one line at one offset summed, dropped at 0."""
        merged: dict[tuple, tuple] = {}
        for atom in atoms:
            line, offset, e, base = atom
            key = (line, offset.x, offset.y)
            prev = merged.get(key)
            if prev is None:
                merged[key] = atom
            elif prev[2] + e:
                merged[key] = (prev[0], prev[1], prev[2] + e, prev[3])
            else:
                del merged[key]
        return tuple(merged.values())

    def __mul__(self, other: "TrackedFunction") -> "TrackedFunction":
        if self.curve is not other.curve and self.curve != other.curve:
            raise CurveMismatch("functions on different curves")
        return TrackedFunction(self.curve, self.const * other.const,
                               self._merged(self.atoms + other.atoms))

    def inverse(self) -> "TrackedFunction":
        flipped = tuple((line, offset, -e, base) for line, offset, e, base in self.atoms)
        return TrackedFunction(self.curve, pow(self.const, -1, self.curve.p), flipped)

    def __pow__(self, k: int) -> "TrackedFunction":
        if k == 0:
            return TrackedFunction.one(self.curve)
        base = self if k > 0 else self.inverse()
        k = abs(k)
        scaled = tuple((line, offset, k * e, div) for line, offset, e, div in base.atoms)
        return TrackedFunction(self.curve, pow(base.const, k, self.curve.p), scaled)

    def scale(self, value: FpElement | int) -> "TrackedFunction":
        return TrackedFunction(self.curve, self.const * _int(value), self.atoms)

    def translate(self, y: CurvePoint) -> "TrackedFunction":
        """Translation pullback: the function P -> f(P + y)."""
        curve = self.curve
        if y.curve is not curve and y.curve != curve:
            raise CurveMismatch("offset point on a different curve")
        add = curve._add
        moved = tuple([(line, add(offset, y), e, base) for line, offset, e, base in self.atoms])
        return TrackedFunction(curve, self.const, moved)

    def value_at(self, point: CurvePoint) -> int:
        """The value at point, an int in [1, p): each atom's argument point + offset is a
        kept point, read from the curve's memo of sums (Curve._add), its line is evaluated
        on the integer coordinates, and the lines of negative exponent are multiplied
        apart, so a call costs one inverse.  EvalAtSupport at the first atom, in order,
        whose argument is O or whose line vanishes there."""
        curve = self.curve
        if point.curve is not curve and point.curve != curve:
            raise CurveMismatch(f"{point!r} is not on {curve!r}")
        p, add = curve.p, curve._add
        num, den = self.const, 1
        for (u, v, w), offset, e, _ in self.atoms:
            arg = add(point, offset)
            x = arg.x
            if x is None:
                raise EvalAtSupport(f"atom argument hit the identity at {point!r}")
            value = (u * arg.y + v * x + w) % p
            if not value:
                raise EvalAtSupport(f"atom vanished at {point!r}")
            if e == 1:
                num = num * value % p
            elif e > 0:
                num = num * pow(value, e, p) % p
            else:
                den = den * pow(value, -e, p) % p
        return num * pow(den, -1, p) % p

    def __call__(self, point: CurvePoint) -> FpElement:
        """The value at point as an FpElement, for callers outside the layer (value_at)."""
        return FpElement(self.curve.p, self.value_at(point))

    def constant_value(self) -> FpElement:
        """Value of a function known to have divisor 0, cross-checked at several points."""
        values = []
        for point in affine_points(self.curve):
            try:
                values.append(self.value_at(point))
            except EvalAtSupport:
                continue
            if len(values) >= CONSTANT_SAMPLES:
                break
        if not values:
            raise EvalAtSupport("no sample point avoids the atom supports")
        if any(v != values[0] for v in values):
            raise CertificateError("divisor-free function is not constant; atom bookkeeping bug")
        return FpElement(self.curve.p, values[0])

    def __repr__(self):
        return f"Fn({self.const}; {len(self.atoms)} atoms)"


def _int(value: FpElement | int) -> int:
    return value.value if isinstance(value, FpElement) else value  # an FpElement as its value


def function_values(fn: TrackedFunction, points: Sequence[CurvePoint]) -> list[int | None]:
    """The value of fn at each point, or None where an atom meets its support (where
    fn(point) raises EvalAtSupport): TrackedFunction.value_at over a list of points.

    Each atom's arguments point + offset are taken through the memo of sums
    (Curve._add) once per distinct offset, and the lines of negative exponent are
    multiplied apart, so a point costs one inverse; p is prime, so a product is 0
    exactly when one of its lines is."""
    curve = fn.curve
    for point in points:
        if point.curve is not curve and point.curve != curve:
            raise CurveMismatch(f"{point!r} is not on {curve!r}")
    p, add = curve.p, curve._add
    num = [fn.const] * len(points)
    den = [1] * len(points)
    moved: dict[tuple[int | None, int | None], list[CurvePoint]] = {}
    for (u, v, w), offset, exponent, _ in fn.atoms:
        key = (offset.x, offset.y)
        args = moved.get(key)
        if args is None:
            args = moved[key] = [add(P, offset) for P in points]
        # unreduced, and 0 at O, the line's pole
        values = [0 if P.x is None else u * P.y + v * P.x + w for P in args]
        e = abs(exponent)
        if e != 1:
            values = [pow(r, e, p) for r in values]
        if exponent > 0:
            num = [acc * r % p for acc, r in zip(num, values)]
        else:
            den = [acc * r % p for acc, r in zip(den, values)]
    return [n * pow(d, -1, p) % p if n and d else None for n, d in zip(num, den)]


def ratio_constant(f: TrackedFunction, g: TrackedFunction) -> FpElement:
    """The constant f/g for functions with equal divisors.

    An object oracle for the tests, under ThetaStructure.to_heisenberg; no claim calls it."""
    quotient = f * g.inverse()
    if not quotient.divisor().is_zero:
        raise JordanLabError("ratio_constant of functions with different divisors")
    return quotient.constant_value()


def same_function(f: TrackedFunction, g: TrackedFunction) -> bool:
    """f and g are one function: f/g has divisor 0 and constant value 1."""
    quotient = f * g.inverse()
    return quotient.divisor().is_zero and quotient.constant_value().value == 1


def line_function(p1: CurvePoint, p2: CurvePoint) -> TrackedFunction:
    """The line through two points (tangent if equal, vertical through O)."""
    p1._check(p2)
    curve = p1.curve
    if p1.is_infinity and p2.is_infinity:
        raise OffCurve("no line atom through O twice")
    if p1.is_infinity or p2.is_infinity:
        base = p1 if p2.is_infinity else p2
        return _vertical(curve, base)
    if p1.x == p2.x and (p1 != p2 or not p1.y):
        return _vertical(curve, p1)
    p = curve.p
    lam = _slope(p, curve.a.value, p1.x, p1.y, p2.x, p2.y)
    third = -(p1 + p2)
    div = Divisor.of(curve, [(p1, 1), (p2, 1), (third, 1), (curve.infinity(), -3)])
    # y - lam*x - nu with nu = y1 - lam*x1
    line = (1, -lam % p, (lam * p1.x - p1.y) % p)
    return TrackedFunction(curve, 1, ((line, curve.infinity(), 1, div),))


def _vertical(curve: Curve, point: CurvePoint) -> TrackedFunction:
    div = Divisor.of(curve, [(point, 1), (-point, 1), (curve.infinity(), -2)])
    line = (0, 1, -point.x % curve.p)  # x - c
    return TrackedFunction(curve, 1, ((line, curve.infinity(), 1, div),))


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
            value = fn.value_at(ref)
        except EvalAtSupport:
            continue
        return fn.scale(pow(value, -1, fn.curve.p))
    raise EvalAtSupport(f"no reference point available on {fn.curve!r}")


@lru_cache(maxsize=512)
def miller_function(n: int, point: CurvePoint) -> TrackedFunction:
    """Normalized function with divisor n(P) - n(O), for any P with nP = O.

    Cached: the Weil pairing, the basis search and the theta lifts ask for the
    same few torsion points again and again, and TrackedFunction is frozen.
    """
    if point.is_infinity:
        raise NotTorsion("the base point of a Miller function must differ from O")
    d = point.order()
    if n <= 0 or n % d != 0:
        raise NotTorsion(f"{point!r} has order {d}, which does not divide n = {n}")
    f = _miller_ladder(d, point)
    if n != d:
        f = f ** (n // d)
    return _normalize(f)


def weil_pairing(p1: CurvePoint, p2: CurvePoint, n: int, seed: int = 0) -> RootOfUnity:
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
    for _ in range(PAIRING_RETRIES):
        r = rng.choice(pool)
        s = rng.choice(pool)
        fa = f1.translate(-r)  # divisor n(P + R) - n(R)
        fb = f2.translate(-s)  # divisor n(Q + S) - n(S)
        try:
            value = (fa(p2 + s) / fa(s)) / (fb(p1 + r) / fb(r))
        except EvalAtSupport:
            continue
        if value ** n != curve.fe(1):
            raise CertificateError(f"pairing value {value} escaped mu_{n}")
        return RootOfUnity(n, discrete_log_in_mu(value, generator, n))
    raise DegenerateAfterRetries(
        f"no offset choice avoided the supports after {PAIRING_RETRIES} tries on {curve!r}"
    )


def weil_pairing_table(points: Sequence[CurvePoint], n: int, seed: int = 0) -> list[list[int]]:
    """The exponent in [0, n) of weil_pairing(P, Q, n, seed) for every P, Q of points,
    as table[i][j].

    The Miller function f_P of each affine point is taken once per call.  Each draw of
    offsets R, S serves every pair still open: each f_P is translated by -R and
    evaluated on the points Q + S, and f_P^-1 by -S on the points P + R, once per
    point, so the quotient of a pair is two lookups.  A pair whose quotient meets
    a support takes the next draw of the same stream, as weil_pairing retries, up to
    PAIRING_RETRIES draws."""
    for point in points:
        points[0]._check(point)
        if not (n * point).is_infinity:
            raise NotTorsion(f"{point!r} is not killed by {n}")
    table = [[0] * len(points) for _ in points]
    if n == 1 or not points:
        return table
    curve = points[0].curve
    p, add = curve.p, curve._add
    generator = mu_generator(p, n)
    log = {(generator ** k).value: k for k in range(n)}
    rng = random.Random(f"{seed}:{curve.p}:{n}")
    pool = affine_points(curve)
    millers = {i: miller_function(n, P) for i, P in enumerate(points) if not P.is_infinity}
    open_pairs = [(i, j) for i in millers for j in millers]

    def quotients(f: TrackedFunction, at: list) -> list[int | None] | None:
        """f at each point of at over f at the last one; None where a value meets a support."""
        *values, base = function_values(f, at)
        if base is None:
            return None
        inv = pow(base, -1, p)
        return [None if v is None else v * inv % p for v in values]

    for _ in range(PAIRING_RETRIES):
        r = rng.choice(pool)
        s = rng.choice(pool)
        at_s = [add(q, s) for q in points] + [s]
        at_r = [add(q, r) for q in points] + [r]
        # left[i][j] = f_i(Q_j + S - R) / f_i(S - R); right[j][i] = f_j(R - S) / f_j(P_i + R - S)
        left = {i: quotients(millers[i].translate(-r), at_s) for i in {i for i, _ in open_pairs}}
        right = {j: quotients(millers[j].inverse().translate(-s), at_r)
                 for j in {j for _, j in open_pairs}}
        missed = []
        for i, j in open_pairs:
            row, col = left[i], right[j]
            if row is None or col is None or row[j] is None or col[i] is None:
                missed.append((i, j))
                continue
            value = row[j] * col[i] % p
            if value not in log:
                raise CertificateError(f"pairing value {value} escaped mu_{n}")
            table[i][j] = log[value]
        open_pairs = missed
        if not open_pairs:
            return table
    raise DegenerateAfterRetries(
        f"no offset choice avoided the supports after {PAIRING_RETRIES} tries on {curve!r}")
