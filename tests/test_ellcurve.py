"""Curve arithmetic, divisors, tracked functions, Miller ladders, pairing."""

import functools
import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jordanlab import ellcurve, theta
from jordanlab.birgroup import compose, theta_embed
from jordanlab.cli import run_curve_search
from jordanlab.ellcurve import (
    POINT_BUDGET,
    Curve,
    CurvePoint,
    Divisor,
    TrackedFunction,
    _point_count,
    _rhs_values,
    _sqrt_table,
    _torsion_count,
    affine_points,
    curve_search,
    enumerate_points,
    function_values,
    line_function,
    miller_function,
    ratio_constant,
    torsion_subgroup,
    weil_pairing,
)
from jordanlab.errors import (
    BudgetExceeded,
    CertificateError,
    CurveMismatch,
    DegenerateAfterRetries,
    EvalAtSupport,
    JordanLabError,
    NotTorsion,
    OffCurve,
)
from jordanlab.scalars import FpElement, RootOfUnity, is_prime, primes_up_to
from jordanlab.theta import theta_structure

# e2-only curve with 8 points; the workhorse for level-2 checks
C730 = Curve.make(7, 3, 0)
# 18-point curve with full 3-torsion
C1370 = Curve.make(13, 7, 0)


def test_curve_validation():
    with pytest.raises(ValueError):
        Curve.make(4, 1, 1)  # p not prime
    with pytest.raises(ValueError):
        Curve.make(3, 1, 1)  # p < 5
    with pytest.raises(ValueError):
        Curve.make(5, 0, 0)  # singular
    with pytest.raises(OffCurve):
        C730.point(1, 1)


def test_point_identities():
    points = enumerate_points(C730)
    o = C730.infinity()
    for p in points:
        assert p + o == p
        assert p + (-p) == o
        assert 0 * p == o
    t = C730.point(0, 0)
    assert (2 * t).is_infinity  # y = 0 forces self-negation


def kept(P):
    """The point its curve keeps for P's coordinates."""
    return P.curve.infinity() if P.is_infinity else P.curve.point(P.x, P.y)


@pytest.mark.parametrize("curve", [C730, C1370])
def test_each_coordinate_pair_is_one_kept_point(curve):
    points = enumerate_points(curve)
    curve = points[0].curve  # the cache may hold an equal curve's points
    p = curve.p
    assert curve.infinity() is curve.infinity()
    for P in points:
        assert kept(P) is P
        if not P.is_infinity:
            x, y = P.x, P.y
            assert curve.point(x, y) is curve.point(x + p, y - 3 * p) is kept(P)
        assert -P is kept(-P)
        for Q in points:
            assert P + Q is kept(P + Q)
    assert len(curve._points) <= curve.point_count() == len(points)


def test_an_off_curve_pair_raises_every_time_and_is_never_kept():
    curve = Curve.make(7, 3, 0)  # (1, 1) is off it: 1 != 1 + 3 + 0
    for _ in range(3):
        with pytest.raises(OffCurve):
            curve.point(1, 1)
        with pytest.raises(OffCurve):
            curve.point(8, -6)
    assert (1, 1) not in curve._points
    assert all(key is None or reference_on_curve(curve, curve.fe(key[0]), curve.fe(key[1]))
               is None for key in curve._points)


def test_points_of_equal_but_distinct_curves_add_and_compare_as_before():
    twin = Curve.make(13, 7, 0)
    assert twin is not C1370 and twin == C1370 and hash(twin) == hash(C1370)
    for P in enumerate_points(C1370):
        Q = twin.infinity() if P.is_infinity else twin.point(P.x, P.y)
        assert Q is not P and Q == P and hash(Q) == hash(P)
        for R in enumerate_points(C1370)[::4]:
            assert Q + R == P + R == reference_add(P, R)
            assert R + Q == reference_add(R, P)
            assert R - Q == reference_add(R, -P)


@pytest.mark.parametrize("curve", [C730, C1370])
def test_group_axioms_exhaustive(curve):
    points = enumerate_points(curve)
    assert len(points) <= 40
    for a, b in itertools.product(points, repeat=2):
        assert a + b == b + a
    for a, b, c in itertools.product(points, repeat=3):
        assert (a + b) + c == a + (b + c)


def test_enumerate_points_and_hasse():
    for curve in [C730, C1370, Curve.make(5, 4, 0)]:
        points = enumerate_points(curve)
        count = len(points)
        assert (count - curve.p - 1) ** 2 <= 4 * curve.p
        for p in points[:-1]:
            assert reference_on_curve(curve, curve.fe(p.x), curve.fe(p.y)) is None
    assert len(enumerate_points(Curve.make(5, 4, 0))) % 4 == 0  # full 2-torsion


def test_enumerate_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_points(Curve.make(2003, 1, 1))


def test_torsion_subgroup():
    assert torsion_subgroup(C730, 1) == (C730.infinity(),)
    t2 = torsion_subgroup(C730, 2)
    assert len(t2) == 4
    assert {p.sort_key() for p in t2[:-1]} == {(0, 0), (2, 0), (5, 0)}
    assert len(torsion_subgroup(C1370, 3)) == 9


def test_curve_search_examples():
    found = curve_search(2, 5)
    assert [(c.p, c.a.value, c.b.value) for c in found] == [(5, 1, 0), (5, 4, 0)]
    for c in found:
        assert len(torsion_subgroup(c, 2)) == 4
    assert curve_search(2, 3) == []  # no prime >= 5 in range
    assert curve_search(3, 50)  # nonempty
    with pytest.raises(ValueError):
        curve_search(1, 10)


def nonsingular(p):
    return [(a, b) for a, b in itertools.product(range(p), repeat=2)
            if (4 * a ** 3 + 27 * b ** 2) % p]


LADDER_LEVELS = 12  # the largest n ladder_torsion_count is asked for


@functools.cache
def ladder_orders(p, a, b):
    """(order of (x, y), root count of x) for each x with roots y, taken at its least root
    by successive addition through ellcurve._chord_tangent, every multiple checked on the
    curve here; an order past LADDER_LEVELS reads 0."""
    orders = []
    for x, ys in enumerate(map(_sqrt_table(p).get, _rhs_values(p, a, b))):
        if not ys:
            continue
        P = acc = (x, ys[0])
        order = 1
        while acc is not None and order < LADDER_LEVELS:
            acc = ellcurve._chord_tangent(p, a, *acc, *P)
            order += 1
            if acc is not None and (acc[1] ** 2 - acc[0] ** 3 - a * acc[0] - b) % p:
                raise OffCurve(f"{acc} is not on E({p}:{a}:{b})")
        orders.append((order if acc is None else 0, len(ys)))
    return tuple(orders)


def ladder_torsion_count(p, a, b, n):
    """#E[n](F_p) off the orders of ladder_orders: the count the scan took on points
    before it read E[n] off the division polynomials, kept as their reference."""
    # n(-P) = -(nP), so n kills both roots y and -y or neither
    return 1 + sum(roots for order, roots in ladder_orders(p, a, b) if order and n % order == 0)


point_count = functools.cache(_point_count)  # the reference count, once per (p, a, b)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_integer_counts_match_point_objects(p):
    for a, b in nonsingular(p):
        curve = Curve.make(p, a, b)
        assert curve.point_count() == len(enumerate_points(curve))
        for n in range(2, 9):
            if n % p:
                assert _torsion_count(p, a, b, n) == (len(torsion_subgroup(curve, n)),
                                                      curve.point_count()), (curve, n)


@pytest.mark.parametrize("n", range(2, 13))
def test_division_polynomial_count_matches_the_ladder(n):
    # every nonsingular pair, not one per class, so the count is not read off an isomorphism
    cases = 0
    for p in primes_up_to(61)[2:]:
        if n % p == 0:
            continue
        for a, b in nonsingular(p):
            assert _torsion_count(p, a, b, n) == (ladder_torsion_count(p, a, b, n),
                                                  point_count(p, a, b)), (p, a, b)
            cases += 1
    assert cases == sum(p * p - p for p in primes_up_to(61)[2:] if n % p)


@pytest.mark.parametrize("n,p_max", [(2, 23), (3, 30), (4, 30)])
def test_curve_search_matches_object_filter(n, p_max):
    # the filter as it stood on point objects: count the points n kills
    reference = []
    for p in range(5, p_max + 1):
        if not is_prime(p) or (p - 1) % n:
            continue
        for a, b in nonsingular(p):
            curve = Curve.make(p, a, b)
            points = enumerate_points(curve)
            if len(points) % (n * n) == 0 and sum((n * P).is_infinity for P in points) == n * n:
                reference.append(curve)
    assert curve_search(n, p_max) == reference


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
def test_class_wise_search_matches_per_curve_filter(n):
    # every nonsingular curve counted on its own, no isomorphism classes
    p_max = 40 if n < 5 else 100
    reference = [Curve.make(p, a, b) for p in range(5, p_max + 1)
                 if is_prime(p) and (p - 1) % n == 0 for a, b in nonsingular(p)
                 if _point_count(p, a, b) % (n * n) == 0 and ladder_torsion_count(p, a, b, n) == n * n]
    assert reference
    assert curve_search(n, p_max) == reference


@functools.lru_cache(maxsize=None)
def unit_powers(p):
    """(u^4, u^6) mod p for u = 1, ..., (p - 1) / 2; u and -u give the same pair."""
    return [(u ** 4 % p, u ** 6 % p) for u in range(1, (p + 1) // 2)]


def orbit(p, a, b):
    """The class of (a, b): its members (u^4 a, u^6 b)."""
    return {(u4 * a % p, u6 * b % p) for u4, u6 in unit_powers(p)}


def class_count(p):
    return math.gcd(6, p - 1) + math.gcd(4, p - 1) + 2 * (p - 2)


def record_classes(monkeypatch):
    """{p: the rows of classes _class_rows files at p}, filled as the scan reaches p."""
    listed = {}
    class_rows = ellcurve._class_rows

    def recording(p, units, d):
        listed[p] = class_rows(p, units, d)
        return listed[p]

    monkeypatch.setattr(ellcurve, "_class_rows", recording)
    return listed


def in_scan_order(rows):
    return [rep for a in sorted(rows) for rep in rows[a]]


def nonresidue(p):
    # the largest, not the least the scan takes: a twist's class is the same for every one
    return max(v for v in range(1, p) if pow(v, (p - 1) // 2, p) == p - 1)


def twist_class(p, rep, reps):
    """The class among reps that holds the quadratic twist (a d^2, b d^3) of rep = (a, b)."""
    d = nonresidue(p)
    (found,) = [r for r in reps if (rep[0] * d * d % p, rep[1] * d ** 3 % p) in orbit(p, *r)]
    return found


def test_class_wise_search_counts_each_class_once(monkeypatch):
    listed = record_classes(monkeypatch)
    counted = []
    count = ellcurve._point_count
    monkeypatch.setattr(ellcurve, "_point_count",
                        lambda p, a, b: counted.append((p, a, b)) or count(p, a, b))
    curve_search(2, 13)
    assert len(counted) == len(set(counted))
    assert sorted(listed) == [5, 7, 11, 13]
    for p, rows in listed.items():
        reps = in_scan_order(rows)
        at_p = [(a, b) for q, a, b in counted if q == p]
        assert len(reps) == class_count(p) and set(at_p) <= set(reps)
        for rep in reps:
            # of a class and its twist's class, the first met is counted on points and the
            # other takes 2p + 2 - #E; a class that is its own twist is counted
            twin = twist_class(p, rep, reps)
            first = min(rep, twin, key=reps.index)
            assert (rep in at_p) == (rep == first), (p, rep, twin)
        assert len(at_p) < len(reps) * 2 // 3
    assert len(counted) < sum(len(nonsingular(p)) for p in (5, 7, 11, 13)) // 6


def test_class_representatives_partition_the_nonsingular_pairs(monkeypatch):
    listed = record_classes(monkeypatch)
    # counts that n = 2 never admits, 1 and 2p + 1 for the twists, so nothing is yielded
    monkeypatch.setattr(ellcurve, "_point_count", lambda p, a, b: 1)
    assert curve_search(2, 199) == []
    assert sorted(listed) == primes_up_to(199)[2:]
    for p, rows in listed.items():
        representatives = in_scan_order(rows)
        assert len(representatives) == class_count(p)
        covered = set()
        for a, b in representatives:
            members = orbit(p, a, b)
            assert not covered & members, (p, a, b)
            covered |= members
        assert len(covered) == p * p - p
        assert all((4 * a ** 3 + 27 * b ** 2) % p for a, b in covered)
        # filed under row 0, or under the least a of its members, which the scan meets first
        for row, reps in rows.items():
            assert all(row == min(x for x, _ in orbit(p, *rep)) for rep in reps), (p, row)


def test_a_class_and_its_twist_have_2p_plus_2_points():
    for p in primes_up_to(199)[2:]:
        d = nonresidue(p)
        for a, b in in_scan_order(ellcurve._class_rows(p, unit_powers(p),
                                                       ellcurve._least_nonresidue(p))):
            twisted = _point_count(p, a * d * d % p, b * d ** 3 % p)
            assert _point_count(p, a, b) + twisted == 2 * p + 2, (p, a, b)


def test_first_level_16_curve_counts_only_row_0_of_its_prime(monkeypatch):
    listed = record_classes(monkeypatch)
    counted = []
    count = ellcurve._point_count
    monkeypatch.setattr(ellcurve, "_point_count",
                        lambda p, a, b: counted.append((p, a, b)) or count(p, a, b))
    assert repr(next(ellcurve.iter_admissible_curves(16, 2000))) == "E(241:0:17)"
    # row 0 holds gcd(6, 240) = 6 classes, three pairs of twists, one of each counted
    at_241 = [(a, b) for p, a, b in counted if p == 241]
    assert len(listed[241][0]) == math.gcd(6, 240) == 6
    assert len(at_241) == 3 and set(at_241) <= set(listed[241][0])


def test_level_16_theta_curve_is_unchanged():
    assert repr(theta.find_theta_curve(16, 2000)) == "E(769:0:1)"


# the ids of the first three cases are those they had as the levels at p_max = 40
@pytest.mark.parametrize("n,p_max", [
    pytest.param(2, 40, id="2"), pytest.param(3, 40, id="3"), pytest.param(4, 40, id="4"),
    pytest.param(3, 50, id="3-50"), pytest.param(4, 60, id="4-60"),  # the bench's items
])
def test_curve_search_rows_carry_the_object_point_count(n, p_max):
    rows = run_curve_search(n, p_max).data["rows"]
    assert rows
    for row in rows:
        assert row["group_order"] == len(enumerate_points(Curve.make(row["p"], row["a"], row["b"])))


def test_curve_search_builds_no_curve_and_no_field_element(monkeypatch):
    built = []
    for cls in (Curve, FpElement):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *args, init=init:
                            built.append(type(self).__name__) or init(self, *args))
    assert len(run_curve_search(2, 40).data["rows"]) == 693
    assert built == []
    curve_search(2, 5)  # the public list is of curves, each with its two coefficients
    assert sorted(set(built)) == ["Curve", "FpElement"]


def test_search_counts_no_yielded_curve_again(monkeypatch):
    # the rows read #E from the scan, which counts each isomorphism class once
    counted = []
    for name in ("_point_count", "_torsion_count"):
        kernel = getattr(ellcurve, name)
        monkeypatch.setattr(ellcurve, name, lambda *args, kernel=kernel, name=name:
                            counted.append((name, *args)) or kernel(*args))
    assert run_curve_search(2, 13).data["rows"]
    in_run = list(counted)
    counted.clear()
    curve_search(2, 13)
    assert in_run == counted and len(set(counted)) == len(counted)
    assert {name for name, *_ in counted} == {"_point_count", "_torsion_count"}


def hasse_skipped():
    return [(n, p) for n in range(2, 17) for p in range(5, 101)
            if is_prime(p) and (p - 1) % n == 0 and not ellcurve._hasse_allows(p, n * n)]


def test_hasse_prefilter_skips_only_primes_without_curves(monkeypatch):
    skipped = hasse_skipped()
    assert len(skipped) == 35 and (4, 5) in skipped and (16, 97) in skipped
    for n, p in skipped:  # no multiple of n^2 within Hasse's bound of p + 1
        assert all((m - p - 1) ** 2 > 4 * p for m in range(0, 2 * p + 3, n * n))
    monkeypatch.setattr(ellcurve, "_hasse_allows", lambda p, n2: True)
    for n, p in skipped:
        assert not [c for c in ellcurve.iter_admissible_curves(n, p) if c.p == p], (n, p)


@pytest.mark.parametrize("n,p_max", [(2, 40), (3, 50), (4, 60)])
def test_hasse_prefilter_keeps_the_search_result(monkeypatch, n, p_max):
    filtered = [(c, c.point_count()) for c in curve_search(n, p_max)]
    monkeypatch.setattr(ellcurve, "_hasse_allows", lambda p, n2: True)
    assert [(c, c.point_count()) for c in curve_search(n, p_max)] == filtered


def test_point_sum_is_checked_on_the_curve_once(monkeypatch):
    points = enumerate_points(C1370)
    pairs = list(itertools.product(points, repeat=2))
    sums = [reference_add(P, Q) for P, Q in pairs]
    multiples = [reference_mul(k, P) for P in points for k in range(-4, 5)]
    # a fresh instance builds, and so checks on the curve, each coordinate pair once, in
    # CurvePoint.__init__: its points at first use, and no sum or multiple again
    built = []
    init = CurvePoint.__init__
    monkeypatch.setattr(CurvePoint, "__init__",
                        lambda self, curve, x, y: built.append((x, y)) or init(self, curve, x, y))
    fresh = Curve.make(13, 7, 0)
    moved = {P: fresh.infinity() if P.is_infinity else fresh.point(P.x, P.y) for P in points}
    for _ in range(2):
        assert [moved[P] + moved[Q] for P, Q in pairs] == sums
        assert [k * moved[P] for P in points for k in range(-4, 5)] == multiples
    assert len(built) == len(set(built)) == len(points)
    # a law gone wrong still meets the one check, in CurvePoint.__init__.  fresh has every
    # sum above memoized, so the wrong law runs on new instances with an empty memo
    monkeypatch.setattr(ellcurve, "_chord_tangent", lambda p, a, x1, y1, x2, y2: (x1, y1 + 1))
    affine = [R for R in points if not R.is_infinity and R.y != 6]  # (y + 1)^2 != y^2
    other = Curve.make(13, 7, 0)
    P, Q = [other.point(R.x, R.y) for R in affine[:2]]
    with pytest.raises(OffCurve):
        P + Q
    with pytest.raises(OffCurve):  # the ladder's first doubling
        5 * Curve.make(13, 7, 0).point(affine[0].x, affine[0].y)


@pytest.mark.parametrize("p, a, b", [(13, 7, 0), (43, 0, 1)])
def test_memoized_sums_match_the_reference_law(p, a, b):
    curve = Curve.make(p, a, b)  # a fresh instance, so the first sums run the law
    points = [curve.infinity() if R.is_infinity else curve.point(R.x, R.y)
              for R in enumerate_points(curve)]
    pairs = list(itertools.product(points, repeat=2))
    want = [reference_add(P, Q) for P, Q in pairs]
    assert curve._sums is None  # made at the first addition
    first = [P + Q for P, Q in pairs]
    assert len(curve._sums) == (len(points) - 1) ** 2  # one entry per pair of affine points
    second = [P + Q for P, Q in pairs]
    assert first == want and second == want
    assert all(R is S and R.curve is curve for R, S in zip(first, second))


def test_an_equal_curve_is_not_served_the_sums_of_another():
    first, second = Curve.make(13, 7, 0), Curve.make(13, 7, 0)
    u, v = [(R.x, R.y) for R in affine_points(first) if R.y != 6][:2]  # (y + 1)^2 != y^2
    total = first.point(*u) + first.point(*v)
    assert total == reference_add(first.point(*u), first.point(*v))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ellcurve, "_chord_tangent", lambda p, a, x1, y1, x2, y2: (x1, y1 + 1))
        assert first.point(*u) + first.point(*v) is total  # first's memo, the law unrun
        with pytest.raises(OffCurve):  # the wrong law runs on second's own, empty memo
            second.point(*u) + second.point(*v)
    assert second._sums == {}
    assert (second.point(*u) + second.point(*v)).curve is second


@pytest.mark.parametrize("doctored, n", [("every", 3), ("tangent", 2), ("chord", 3)])
def test_torsion_count_checks_every_point_of_the_ladder(monkeypatch, doctored, n):
    # the reference adds P to each multiple: 2P is a tangent, and 3P onwards chords
    chord_tangent = ellcurve._chord_tangent

    def law(p, a, x1, y1, x2, y2):
        point = chord_tangent(p, a, x1, y1, x2, y2)
        if point is None or doctored == ("chord" if x1 == x2 else "tangent"):
            return point
        return point[0], point[1] + 1

    want = (len(torsion_subgroup(C1370, n)), len(enumerate_points(C1370)))
    assert ladder_torsion_count(13, 7, 0, n) == want[0]
    monkeypatch.setattr(ellcurve, "_chord_tangent", law)
    with pytest.raises(OffCurve):  # uncached, so the doctored law runs
        ladder_orders.__wrapped__(13, 7, 0)
    assert _torsion_count(13, 7, 0, n) == want  # the scan's count runs no ladder


def test_a_doctored_root_table_fails_the_count_cross_check(monkeypatch):
    # 1 keeps only its root 1 mod 13: E(13:0:3) takes 12 points from its twist's count, the
    # pass over its roots finds 9, so the scan refuses it
    table = dict(_sqrt_table(13))
    table[1] = (1,)
    honest = ellcurve._sqrt_table
    monkeypatch.setattr(ellcurve, "_sqrt_table", lambda p: table if p == 13 else honest(p))
    with pytest.raises(CertificateError, match=r"E\(13:0:3\) has 9 points on its roots, not the 12"):
        curve_search(2, 13)


def test_integer_kernel_budget_and_hasse(monkeypatch):
    monkeypatch.setattr(ellcurve, "_sqrt_table", lambda p: pytest.fail("prime was scanned"))
    monkeypatch.setattr(ellcurve, "_rhs_values", lambda p, a, b: pytest.fail("prime was scanned"))
    for count in (_point_count, lambda p, a, b: _torsion_count(p, a, b, 2)):
        with pytest.raises(BudgetExceeded):
            count(POINT_BUDGET + 3, 1, 1)
    with pytest.raises(BudgetExceeded):  # the budget before the level
        _torsion_count(POINT_BUDGET + 3, 1, 1, POINT_BUDGET + 3)
    # the division polynomials see E[n] only for p not dividing n
    for p, n in ((5, 5), (7, 14), (11, 33), (13, 13)):
        with pytest.raises(ValueError, match="p not dividing n"):
            _torsion_count(p, 1, 1, n)
    monkeypatch.setattr(ellcurve, "_rhs_values", _rhs_values)
    # two roots for every value of x^3 + a x + b: 15 points on F_7 break the Hasse bound
    monkeypatch.setattr(ellcurve, "_sqrt_table", lambda p: {v: (1, p - 1) for v in range(p)})
    with pytest.raises(JordanLabError, match="Hasse"):
        _point_count(7, 3, 0)


def test_line_function_divisors():
    t = C730.point(0, 0)
    vertical = line_function(t, t)
    assert vertical.divisor() == Divisor.of(C730, [(t, 2), (C730.infinity(), -2)])
    p = enumerate_points(C730)[3]
    through_pair = line_function(p, -p)
    assert through_pair.divisor() == Divisor.of(
        C730, [(p, 1), (-p, 1), (C730.infinity(), -2)]
    )
    q = enumerate_points(C730)[4]
    chord = line_function(p, q)
    assert chord.divisor().is_principal()
    assert chord.divisor().degree() == 0


def test_divisor_algebra():
    o = C730.infinity()
    p = C730.point(0, 0)
    d = Divisor.of(C730, [(p, 2), (o, -2)])
    assert d.degree() == 0
    assert (d - d).is_zero
    assert d.scale(3).multiplicity(p) == 6
    assert Divisor.of(C730, [(p, 1), (p, -1)]).is_zero


def test_is_principal_examples():
    o = C730.infinity()
    p = C730.point(0, 0)
    q = enumerate_points(C730)[3]
    assert Divisor.zero(C730).is_principal()
    assert not Divisor.of(C730, [(o, 1), (q, -1)]).is_principal()
    assert Divisor.of(C730, [(p, 2), (o, -2)]).is_principal()  # 2P = O
    assert not Divisor.of(C730, [(p, 1), (o, -1)]).is_principal()


def test_miller_function_small_cases():
    t = C730.point(0, 0)
    f = miller_function(2, t)
    assert f.divisor() == Divisor.of(C730, [(t, 2), (C730.infinity(), -2)])
    assert len(f.atoms) == 1  # a single vertical line
    with pytest.raises(NotTorsion):
        miller_function(2, C730.infinity())
    with pytest.raises(NotTorsion):
        miller_function(3, t)


@pytest.mark.parametrize("curve,n", [(C730, 2), (C1370, 3), (C1370, 6), (C730, 6), (C730, 4)])
def test_miller_divisor_bookkeeping(curve, n):
    o = curve.infinity()
    for p in enumerate_points(curve):
        if p.is_infinity or not (n * p).is_infinity:
            continue
        assert Divisor.of(curve, [(p, n), (o, -n)]).is_principal()
        f = miller_function(n, p)
        assert f.divisor() == Divisor.of(curve, [(p, n), (o, -n)])
        d = f.divisor()
        assert d.degree() == 0 and d.point_sum().is_infinity


def test_function_arithmetic():
    t = C730.point(0, 0)
    f = miller_function(2, t)
    g = miller_function(2, C730.point(2, 0))
    assert (f * g).divisor() == f.divisor() + g.divisor()
    inv = f.inverse()
    assert (f * inv).divisor().is_zero
    assert (f * inv).constant_value() == C730.fe(1)
    const = TrackedFunction.constant(C730, 5)
    assert const.divisor().is_zero
    for p in affine_points(C730):
        assert const(p) == C730.fe(5)
    with pytest.raises(ValueError):
        TrackedFunction.constant(C730, 0)


def test_eval_at_support_raises():
    t = C730.point(0, 0)
    f = miller_function(2, t)
    with pytest.raises(EvalAtSupport):
        f(t)
    with pytest.raises(EvalAtSupport):
        f(C730.infinity())


def test_equal_divisors_differ_by_constant():
    t = C730.point(0, 0)
    f = miller_function(2, t)
    g = line_function(t, t)  # same divisor, unnormalized
    c = ratio_constant(f, g)
    assert not c.is_zero
    for p in affine_points(C730):
        try:
            assert f(p) == c * g(p)
        except EvalAtSupport:
            continue


def test_ratio_constant_needs_equal_divisors():
    t = C730.point(0, 0)
    other = next(p for p in affine_points(C730) if p != t and p != -t)
    with pytest.raises(JordanLabError, match="different divisors"):
        ratio_constant(miller_function(2, t), line_function(other, other))


def test_translate_pullback_semantics():
    t = C730.point(0, 0)
    f = miller_function(2, t)
    o = C730.infinity()
    assert f.translate(o) == f
    y = enumerate_points(C730)[3]
    assert f.translate(y).translate(-y) == f
    g = f.translate(y)
    checked = 0
    for p in enumerate_points(C730):
        try:
            expected = f(p + y)
        except EvalAtSupport:
            continue
        assert g(p) == expected
        checked += 1
    assert checked >= 4


def test_translate_pullback_divisor_rule():
    t = C730.point(0, 0)
    f = miller_function(2, t)
    y = enumerate_points(C730)[3]
    moved = f.translate(y).divisor()
    assert moved == Divisor.of(C730, [(t - y, 2), (C730.infinity() - y, -2)])


def test_weil_pairing_level2():
    t2 = [p for p in torsion_subgroup(C730, 2)]
    for p in t2:
        assert weil_pairing(p, p, 2).is_one
    nonzero = [p for p in t2 if not p.is_infinity]
    for p, q in itertools.combinations(nonzero, 2):
        assert weil_pairing(p, q, 2) == RootOfUnity(2, 1)
    # bilinearity over the full table
    for a, b, c in itertools.product(t2, repeat=3):
        assert weil_pairing(a + b, c, 2) == weil_pairing(a, c, 2) * weil_pairing(b, c, 2)


def test_weil_pairing_level3():
    t3 = torsion_subgroup(C1370, 3)
    nonzero = [p for p in t3 if not p.is_infinity]
    for p in t3:
        assert weil_pairing(p, p, 3).is_one
    for p in nonzero:
        assert any(weil_pairing(p, q, 3).order() == 3 for q in nonzero)
    for a, b, c in itertools.product(t3, repeat=3):
        assert weil_pairing(a + b, c, 3) == weil_pairing(a, c, 3) * weil_pairing(b, c, 3)


def test_weil_pairing_independent_of_offsets():
    t3 = [p for p in torsion_subgroup(C1370, 3) if not p.is_infinity]
    p, q = t3[0], t3[2]
    values = {weil_pairing(p, q, 3, seed=s) for s in range(6)}
    assert len(values) == 1


def test_weil_pairing_torsion_precondition():
    p = next(q for q in enumerate_points(C1370) if not (2 * q).is_infinity)
    with pytest.raises(NotTorsion):
        weil_pairing(p, p, 2)


def test_weil_pairing_degenerates_when_every_point_is_torsion():
    # 4-point curve: every auxiliary offset collides with a support
    tiny = Curve.make(5, 1, 0)
    t2 = [p for p in torsion_subgroup(tiny, 2) if not p.is_infinity]
    with pytest.raises(DegenerateAfterRetries):
        weil_pairing(t2[0], t2[1], 2)


def test_line_function_through_infinity_is_vertical():
    p = enumerate_points(C730)[3]
    through_o = line_function(p, C730.infinity())
    assert through_o.divisor() == Divisor.of(
        C730, [(p, 1), (-p, 1), (C730.infinity(), -2)]
    )
    with pytest.raises(OffCurve):
        line_function(C730.infinity(), C730.infinity())


def test_every_produced_function_has_principal_divisor():
    rng = random.Random(1)
    t3 = [p for p in torsion_subgroup(C1370, 3) if not p.is_infinity]
    fns = [miller_function(3, p) for p in t3]
    for _ in range(30):
        f = rng.choice(fns)
        g = rng.choice(fns)
        y = rng.choice(enumerate_points(C1370))
        combined = (f * g.inverse()).translate(y)
        d = combined.divisor()
        assert d.degree() == 0
        assert d.point_sum().is_infinity


def test_point_order_and_scalar_mul():
    orders = {p.order() for p in enumerate_points(C1370)}
    assert orders <= {1, 2, 3, 6, 9, 18}
    g = max(enumerate_points(C1370), key=lambda p: 0 if p.is_infinity else p.order())
    k = g.order()
    assert (k * g).is_infinity
    assert not any((m * g).is_infinity for m in range(1, k))
    assert (-3) * g == 3 * (-g)


def test_scalar_multiple_makes_the_fewest_additions(monkeypatch):
    # k * P runs double-and-add over Curve._add: on a fresh Curve, whose memo of sums is
    # empty, one _chord_tangent per addition or doubling, and none when k * P is repeated
    add = ellcurve._chord_tangent
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return add(*args)

    two, six = affine_points(C1370)[:2]
    assert (two.order(), six.order()) == (2, 6)
    monkeypatch.setattr(ellcurve, "_chord_tangent", counted)

    def counts(point):
        nonlocal calls
        found = []
        for k in (1, 2, 3, 4, 8):
            fresh = Curve.make(13, 7, 0)
            P = fresh.point(point.x, point.y)
            calls = 0
            k * P
            found.append(calls)
            assert k * P is k * P and calls == found[-1], k
        return found

    assert counts(six) == [0, 1, 2, 2, 3]
    assert counts(two) == [0, 1, 1, 1, 1]  # the ladder stops once a doubling reaches O


def test_scalar_multiple_matches_repeated_addition():
    points = enumerate_points(C1370)
    order = len(points)
    for point in points:
        multiples = {0: C1370.infinity()}
        acc = C1370.infinity()
        for k in range(1, 2 * order + 1):
            acc = acc + point
            multiples[k], multiples[-k] = acc, -acc
        for k in range(-2 * order, 2 * order + 1):
            assert k * point == multiples[k], (point, k)


def test_miller_function_is_cached_and_pairing_unchanged(monkeypatch):
    tor = torsion_subgroup(C1370, 3)
    first = miller_function(3, tor[0])
    hits = miller_function.cache_info().hits
    assert miller_function(3, tor[0]) is first
    assert miller_function.cache_info().hits == hits + 1
    cached = {(x, y): weil_pairing(x, y, 3) for x, y in itertools.product(tor, repeat=2)}
    monkeypatch.setattr(ellcurve, "miller_function", miller_function.__wrapped__)
    assert cached == {(x, y): weil_pairing(x, y, 3) for x, y in itertools.product(tor, repeat=2)}


# ---------------------------------------------------------------------------
# the integer point law against the FpElement formula it replaced


def reference_on_curve(curve, x, y):
    """The on-curve check as it stood on FpElement arithmetic."""
    if (x is None) != (y is None):
        raise OffCurve("half-infinite coordinates")
    if x is not None and y ** 2 != x ** 3 + curve.a * x + curve.b:
        raise OffCurve(f"({x},{y}) is not on {curve!r}")


def reference_add(P, Q):
    """P + Q by the chord-tangent law on FpElement coordinates, read off the int ones."""
    if P.curve != Q.curve:
        raise CurveMismatch(f"{P!r} and {Q!r} are on different curves")
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    curve = P.curve
    x1, y1, x2, y2 = map(curve.fe, (P.x, P.y, Q.x, Q.y))
    if x1 == x2 and y1 != y2:
        return curve.infinity()
    if y1 == y2 and x1 == x2:
        if y1.is_zero:
            return curve.infinity()
        lam = (curve.fe(3) * x1 ** 2 + curve.a) / (curve.fe(2) * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam ** 2 - x1 - x2
    y3 = lam * (x1 - x3) - y1
    reference_on_curve(curve, x3, y3)
    return CurvePoint(curve, x3.value, y3.value)


def reference_mul(k, P):
    acc = P.curve.infinity()
    for _ in range(abs(k)):
        acc = reference_add(acc, P)
    return acc if k >= 0 else -acc


def outcome(fn):
    """The value of fn(), or the type of the exception it raised."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the type is the result compared
        return type(exc)


SMALL_PRIMES = [p for p in primes_up_to(59) if p >= 5]


@st.composite
def curves(draw):
    p = draw(st.sampled_from(SMALL_PRIMES))
    a, b = draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))
    assume((4 * a ** 3 + 27 * b ** 2) % p)
    return Curve.make(p, a, b)


@st.composite
def curve_with_points(draw, count):
    curve = draw(curves())
    points = enumerate_points(curve)
    return curve, [points[draw(st.integers(0, len(points) - 1))] for _ in range(count)]


@settings(max_examples=150, deadline=None)
@given(curve_with_points(2), st.integers(-40, 40))
def test_point_law_matches_the_fp_formula(case, k):
    curve, (P, Q) = case
    assert P + Q == reference_add(P, Q)
    assert P - Q == reference_add(P, -Q)
    assert k * P == reference_mul(k, P)


@settings(max_examples=150, deadline=None)
@given(curve_with_points(3))
def test_point_law_is_associative(case):
    _, (P, Q, R) = case
    assert (P + Q) + R == P + (Q + R)


@settings(max_examples=150, deadline=None)
@given(curves(), st.integers(-130, 130), st.integers(-130, 130))
def test_point_check_raises_as_before(curve, x, y):
    # int coordinates, unreduced ones too, against the check on their FpElements
    want = outcome(lambda: reference_on_curve(curve, curve.fe(x), curve.fe(y)))
    got = outcome(lambda: CurvePoint(curve, x, y))
    if want is None:
        assert isinstance(got, CurvePoint)
        assert (got.x, got.y) == (x % curve.p, y % curve.p)
    else:
        assert got == want
    for half in ((x, None), (None, y)):
        with pytest.raises(OffCurve):
            CurvePoint(curve, *half)


@settings(max_examples=100, deadline=None)
@given(curve_with_points(1), curve_with_points(1))
def test_mixed_curve_sums_raise_as_before(first, second):
    (c1, (P,)), (c2, (Q,)) = first, second
    assert outcome(lambda: P + Q) == outcome(lambda: reference_add(P, Q))
    twin = Curve.make(c1.p, c1.a.value, c1.b.value)  # equal, but another object
    assert twin == c1 and hash(twin) == hash(c1) == hash((c1.p, c1.a.value, c1.b.value))
    moved = twin.infinity() if P.is_infinity else twin.point(P.x, P.y)
    assert moved + P == reference_add(P, P)


# ---------------------------------------------------------------------------
# tracked functions on the integer point law, and the one-pass divisor


def reference_eval(fn, point):
    """fn(point) as it stood: point + offset on CurvePoint, each line (u, v, w), the
    function u*y + v*x + w, on FpElement."""
    fe = fn.curve.fe
    value = fe(fn.const)
    for (u, v, w), offset, exponent, _ in fn.atoms:
        arg = reference_add(point, offset)
        if arg.is_infinity:
            raise EvalAtSupport(f"atom argument hit the identity at {point!r}")
        line = fe(u) * fe(arg.y) + fe(v) * fe(arg.x) + fe(w)
        if line.is_zero:
            raise EvalAtSupport(f"atom vanished at {point!r}")
        value = value * line ** exponent
    return value


def reference_divisor(fn):
    """div fn as it stood: the per-atom divisors summed one at a time."""
    acc = Divisor.zero(fn.curve)
    for _, offset, exponent, base in fn.atoms:
        acc = acc + base.translate(offset).scale(exponent)
    return acc


def tracked_functions(curve, n):
    """Miller functions at level n, their translates, products, inverses and powers."""
    points = enumerate_points(curve)
    millers = [miller_function(n, x) for x in torsion_subgroup(curve, n) if not x.is_infinity]
    fns = list(millers)
    for f in millers:
        fns += [f.translate(y) for y in points[::3]]
        fns += [f.inverse(), f ** 2, f ** -3]
    for f, g in itertools.combinations(millers, 2):
        fns += [f * g, f * g.inverse().translate(points[1]), (f * g) ** 2]
    return fns


def evaluation(call):
    """The value of call(), or the type and message of the exception it raised."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the type and message are the result compared
        return type(exc), str(exc)


def assert_evaluation_matches_the_object_formula(fns, curve):
    """fn(point) and reference_eval agree at every point of curve: the same value, or
    EvalAtSupport with the same message; both outcomes are met."""
    outcomes = set()
    for fn in fns:
        for point in enumerate_points(curve):
            got = evaluation(lambda: fn(point))
            assert got == evaluation(lambda: reference_eval(fn, point))
            assert isinstance(got, FpElement) or got[0] is EvalAtSupport
            outcomes.add(type(got))
    assert outcomes == {FpElement, tuple}


@pytest.mark.parametrize("curve, n", [(C730, 2), (C1370, 3)])
def test_evaluation_matches_the_object_formula(curve, n):
    assert_evaluation_matches_the_object_formula(tracked_functions(curve, n), curve)


# E(7:3:0) at level 2, and the first five curves of the bench's level-3 theta pool
@pytest.mark.parametrize("p, a, b, n", [(7, 3, 0, 2), (13, 7, 0, 3), (13, 8, 0, 3),
                                        (13, 11, 0, 3), (19, 0, 5, 3), (19, 0, 16, 3)])
def test_evaluation_of_the_mu_layer_and_its_products_matches_the_object_formula(p, a, b, n):
    # the functions compose-semantics evaluates: each mu layer element's, and the
    # function of every composite of two of them
    curve = Curve.make(p, a, b)
    maps = [theta_embed(g) for g in theta_structure(curve, n).mu_elements()]
    fns = [m.f for m in maps] + [compose(second, first).f for first in maps for second in maps]
    assert_evaluation_matches_the_object_formula(fns, curve)


@pytest.mark.parametrize("curve, n", [(C730, 2), (C1370, 3)])
def test_function_values_match_the_call_at_every_point(curve, n):
    points = enumerate_points(curve)
    unevaluable = 0
    for fn in tracked_functions(curve, n):
        want = [outcome(lambda: fn(point)) for point in points]
        assert function_values(fn, points) == [None if w is EvalAtSupport else w.value
                                               for w in want]
        unevaluable += want.count(EvalAtSupport)
    assert unevaluable  # zeros and poles of numerator and denominator lines are met
    with pytest.raises(CurveMismatch):
        function_values(miller_function(2, torsion_subgroup(C730, 2)[0]), [C1370.infinity()])


@pytest.mark.parametrize("curve, n", [(C730, 2), (C1370, 3)])
def test_one_pass_divisor_matches_the_per_atom_sum(curve, n):
    for fn in tracked_functions(curve, n):
        assert fn.divisor() == reference_divisor(fn)


def test_curve_search_refuses_a_prime_past_the_budget_before_scanning(monkeypatch):
    monkeypatch.setattr(ellcurve, "_admissible_at", lambda *args: pytest.fail("a prime was scanned"))
    monkeypatch.setattr(ellcurve, "_sqrt_table", lambda *args: pytest.fail("a prime was scanned"))
    # 2003 is the first prime past the budget, and 2011 the first that is 1 mod 3
    for n, over in ((2, 2003), (3, 2011), (4, 2017)):
        with pytest.raises(BudgetExceeded) as exc:
            curve_search(n, over + 50)
        assert str(exc.value) == f"p = {over} exceeds point enumeration budget {POINT_BUDGET}"
    # no prime 1 mod 4 lies in (2000, 2016], so for (4, 2016) the scan itself decides:
    # test_scan_refuses_a_prime_past_the_budget_before_its_first_prime pins that


def test_scan_refuses_a_prime_past_the_budget_before_its_first_prime(monkeypatch):
    class Scanned(Exception):
        pass

    def first_count(p, a, b):
        raise Scanned(p)

    monkeypatch.setattr(ellcurve, "_point_count", first_count)
    # no prime 1 mod 4 lies in (2000, 2016], so the scan starts at 13, the first such prime
    # whose Hasse interval holds a multiple of 16; 2017 is refused up front
    with pytest.raises(Scanned) as exc:
        next(ellcurve.iter_admissible_curves(4, 2016))
    assert exc.value.args == (13,)
    with pytest.raises(BudgetExceeded) as exc:
        next(ellcurve.iter_admissible_curves(4, 2017))
    assert str(exc.value) == f"p = 2017 exceeds point enumeration budget {POINT_BUDGET}"


def test_scan_visits_only_candidates_1_mod_n(monkeypatch):
    calls = []
    monkeypatch.setattr(ellcurve, "is_prime", lambda q: calls.append(q) or is_prime(q))
    assert curve_search(10 ** 6, 300000) == []
    assert len(calls) <= 300000 // 10 ** 6 + 2
    assert curve_search(10 ** 9, 10 ** 9 - 1) == []
    calls.clear()
    found = curve_search(4, 60)
    assert found and set(calls) <= set(range(5, 61)) and all(q % 4 == 1 for q in calls)
