"""The claims of each layer, written into a run's report one claim at a time.

`abstract_claims` checks the pairing on H = K x K^ and the Heisenberg-type group
G1 of one K; `theta_claims` checks the theta group of one curve at one level and
its embedding into Bir(E x A^1).  Each writes its data fields and claims into a
RunReport in record order, so a claim's wall_s times that claim alone.  Neither
reads argv, searches for a curve or prints.  A broken certificate raises
CertificateError.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
import time
from collections import Counter

from . import birgroup
from .errors import CertificateError, Undefined
from .ellcurve import Curve, weil_pairing_table
from .finab import FinAbGroup, h_subgroups, h_tables
from .gtable import bitmask, gather, reach
from .heisenberg import (
    EXHAUSTIVE_CAP,
    group_table,
    label_commutator,
    label_product,
    min_abelian_index,
)
from .scalars import RootOfUnity, mu_generator
from .theta import MuTables, h_of_level, mu_product, orientation_sigma, theta_structure

VERIFIED = "verified"
FAILED = "failed"
SKIPPED = "skipped-budget"

ISOTROPIC_SCAN_CAP = 400  # largest #H whose subgroups abstract scans for isotropy


class Claim:
    """One verdict of a run.  wall_s, the seconds since the run's previous claim or its
    start, is timing only: the record carries it apart from the claims, under
    claim_wall_s, and the repr leaves it out."""

    __slots__ = ("id", "status", "checked", "failures", "detail", "wall_s")

    def __init__(self, id: str, status: str, checked: int = 0, failures: int = 0,
                 detail: str = ""):
        self.id = id
        self.status = status
        self.checked = checked
        self.failures = failures
        self.detail = detail
        self.wall_s = 0.0  # set by RunReport when the claim is made

    def to_dict(self) -> dict:
        out = {"id": self.id, "status": self.status, "checked": self.checked,
               "failures": self.failures}
        if self.detail:
            out["detail"] = self.detail
        return out

    def __repr__(self):
        return (f"Claim(id={self.id!r}, status={self.status!r}, checked={self.checked!r}, "
                f"failures={self.failures!r}, detail={self.detail!r})")


class RunReport:
    """The record of one run, built as the run starts: each claim's wall_s is the time
    since the previous claim or lap, or since the report was built."""

    __slots__ = ("command", "params", "claims", "data", "wall_time_s", "_mark")

    def __init__(self, command: str, params: dict):
        self.command = command
        self.params = params
        self.claims: list[Claim] = []
        self.data: dict = {}
        self.wall_time_s = 0.0
        self._mark = time.perf_counter()

    def lap(self) -> float:
        """Seconds since the previous claim or lap, or since the report was built; the
        next claim or lap counts from now."""
        now = time.perf_counter()
        seconds, self._mark = now - self._mark, now
        return seconds

    def _add(self, c: Claim) -> Claim:
        c.wall_s = round(self.lap(), 3)
        self.claims.append(c)
        return c

    def claim(self, id: str, ok: bool, checked: int, failures: int = 0, detail: str = "") -> Claim:
        return self._add(Claim(id, VERIFIED if ok else FAILED, checked, failures, detail))

    def skip(self, id: str, detail: str) -> Claim:
        return self._add(Claim(id, SKIPPED, detail=detail))

    @property
    def failed(self) -> bool:
        return any(c.status == FAILED for c in self.claims)

    def to_dict(self) -> dict:
        out = {"command": self.command, "params": self.params}
        out.update(self.data)
        out["claims"] = [c.to_dict() for c in self.claims]
        out["claim_wall_s"] = {c.id: c.wall_s for c in self.claims}
        out["wall_time_s"] = round(self.wall_time_s, 3)
        return out

    def __repr__(self):
        return (f"RunReport(command={self.command!r}, params={self.params!r}, "
                f"claims={self.claims!r}, data={self.data!r}, wall_time_s={self.wall_time_s!r})")


def counterexample(names: str, bad: list[tuple], detail: str = "") -> str:
    """Claim detail, followed by the first tuple of bad, named by names, when there is one."""
    if not bad:
        return detail
    shown = ", ".join(map(repr, bad[0]))
    first = f"first counterexample {names} = " + (f"({shown})" if len(bad[0]) > 1 else shown)
    return f"{detail}; {first}" if detail else first


def check_associative(add: list[list[int]], gens: tuple[int, ...], group: str, names) -> None:
    """Light's criterion on the addition table add, whose labels names[a] name: raise
    CertificateError at the first (a, g), then b, with (a + b) + g != a + (b + g) for a
    generator g in gens.  Each row is gathered in C and compared whole (itemgetters
    return tuples, as add has at least two labels when there is a generator)."""
    cols = [[row[g] for row in add] for g in gens]  # cols[i][b] is b + gens[i]
    through_col = [operator.itemgetter(*col) for col in cols]  # through_col[i](v)[b]: v[b + g]
    for a, row in enumerate(add):
        through_row = operator.itemgetter(*row)  # through_row(v)[b] is v[a + b]
        for g, col, at_col in zip(gens, cols, through_col):
            if through_row(col) != at_col(row):
                b = next(b for b in range(len(row)) if col[row[b]] != row[col[b]])
                raise CertificateError(f"addition of {group} is not associative at (a, g) = "
                                       f"({names[a]!r}, {names[g]!r}): (a + b) + g != "
                                       f"a + (b + g) for b = {names[b]!r}")


# ---------------------------------------------------------------------------
# abstract: symplectic layer + Heisenberg-type layer for one delta


def abstract_claims(report: RunReport, group: FinAbGroup, budget: int) -> None:
    """Write the pairing and G1 claims of group into report, with the data fields delta,
    n, group_order, min_abelian_index, certified_lower_bound and witness.  budget bounds
    #H for the isotropy scan, as ISOTROPIC_SCAN_CAP does."""
    n = group.order
    report.data["delta"] = list(group.delta)
    report.data["n"] = n
    report.data["group_order"] = n ** 3

    # every pairing claim is a lookup into integer tables of H built from K's two tables
    h, h_table, gram = h_tables(group)
    add = h_table.table
    m = len(h)
    gens = h_table.generators(frozenset(range(m)))
    # Light's criterion: (a + b) + g = a + (b + g) for every a, b and generator g makes
    # the addition associative.  Every b is then a word (...(g_1 + g_2) + ...) + g_k, so
    # e(a + g, c) = e(a, c) e(g, c) and e(a, g + c) = e(a, g) e(a, c) for every a, c and
    # generator g give both laws on every triple (a, b, c) by induction on k
    check_associative(add, gens, "H", h)
    # Each row of a law is built in C and compared whole.  Gram rows are bytes, as the
    # exponents stay below N <= 32 (H_TABLE_BUDGET), and integers with a byte per entry,
    # so one sum adds two rows without a carry; translate tables reduce mod N or add a
    # constant; itemgetters gather through the addition table (tuples, as m >= 2 when
    # there is a generator)
    rows = [bytes(e) for e in gram]
    packed = [int.from_bytes(e, "big") for e in rows]
    cycle = bytes(range(n)) * (256 // n + 2)  # cycle[k] is k % n
    mod_n = cycle[:256]
    plus = [cycle[s:s + 256] for s in range(n)]  # plus[s][k] is (k + s) % n
    through_g = [operator.itemgetter(*add[g]) for g in gens]  # through_g[i](v)[c] is v[g + c]
    failures, first = 0, []
    for a, (e_a, row) in enumerate(zip(rows, add)):
        for g, at_g in zip(gens, through_g):
            e_ag = rows[row[g]]
            left = (packed[a] + packed[g]).to_bytes(m, "big").translate(mod_n)
            shifted = bytes(at_g(e_a))
            right = e_a.translate(plus[e_a[g]])
            if e_ag == left and shifted == right:
                continue
            bad = [c for c in range(m) if e_ag[c] != left[c] or shifted[c] != right[c]]
            failures += sum(e_ag[c] != left[c] for c in bad) + sum(shifted[c] != right[c] for c in bad)
            if not first:
                first = [(h[a], h[g], h[bad[0]])]
    report.claim("pairing-bi-additive", failures == 0, 2 * m ** 3, failures,
                 counterexample("(a, g, c)", first) or
                 f"{len(gens)} generators checked, every triple by induction")

    alt_bad = [a for a in range(m) if gram[a][a] != 0]
    report.claim("pairing-alternating", not alt_bad, m, len(alt_bad),
                 counterexample("a", [(h[a],) for a in alt_bad]))

    nd_bad = [a for a in range(m) if not h[a].is_zero and not any(gram[a])]
    report.claim("pairing-nondegenerate", not nd_bad, m, len(nd_bad),
                 counterexample("a", [(h[a],) for a in nd_bad]))

    if group.h_order() <= min(budget, ISOTROPIC_SCAN_CAP):
        # gram holds mu_N exponents, so 0 is a trivial pairing.  Bit r of zero_in[a] is
        # set when gram[r][a] == 0, so E^perp, the rows that are 0 on E, is the AND of
        # zero_in[a] over E, and E is isotropic when it lies in E^perp
        subs = h_subgroups(group)
        zero_in = [bitmask(map((0).__eq__, column)) for column in zip(*gram)]
        bit = [1 << a for a in range(m)]
        iso, bad = [], []
        for s in subs:
            perp = functools.reduce(operator.and_, map(zero_in.__getitem__, s))
            if sum(map(bit.__getitem__, s)) & ~perp:
                continue
            iso.append(s)
            k = len(s)
            if n % k or (m // k) % n or perp.bit_count() * k != m:
                bad.append(s)
        detail = f"{len(subs)} subgroups, {len(iso)} isotropic"
        if bad:
            gens = ", ".join(repr(h[g]) for g in h_table.generators(bad[0]))
            detail += f"; first counterexample E = <{gens}> of order {len(bad[0])}"
        report.claim("isotropic-index-divisibility", not bad, len(iso), len(bad), detail)
    else:
        bound = (f"ISOTROPIC_SCAN_CAP {ISOTROPIC_SCAN_CAP}" if group.h_order() > ISOTROPIC_SCAN_CAP
                 else f"--budget {budget}")
        report.skip("isotropic-index-divisibility", f"#H = {group.h_order()} exceeds {bound}")

    if n <= EXHAUSTIVE_CAP:
        # g h g^-1 h^-1 must be the central element zeta^e(g, h), for every pair; G1
        # label g lies over H label g // n, and zeta^k is label k.  Each row is gathered
        # in C: column g^-1 read at the labels g h gives g h g^-1, and column h^-1 read
        # at entry h of that gives the commutator
        table, elems = group_table(group)
        t, inv, columns = table.table, table.inverse, table.columns
        at_inverse = [columns[i] for i in inv]  # at_inverse[h][c] is c h^-1
        failures, first = 0, []
        for a, e_a in enumerate(gram):
            want = [e for e in e_a for _ in range(n)]
            for g in range(a * n, a * n + n):
                conj = gather(t[g])(columns[inv[g]])
                got = list(map(operator.getitem, at_inverse, conj))
                if got == want:
                    continue
                bad = [hh for hh in range(len(elems)) if got[hh] != want[hh]]
                failures += len(bad)
                if not first:
                    first = [(elems[g], elems[bad[0]])]
        report.claim("commutator-identity", failures == 0, len(elems) ** 2, failures,
                     counterexample("(g, h)", first))
    else:
        report.skip("commutator-identity", f"N = {n} beyond exhaustive cap")

    idx = min_abelian_index(group)
    report.data["min_abelian_index"] = idx.min_abelian_index
    report.data["certified_lower_bound"] = idx.certified_lower_bound
    report.data["witness"] = idx.to_dict()
    if idx.exhaustive:
        report.claim("min-abelian-index", idx.min_abelian_index >= n, idx.subgroups_scanned,
                     detail=f"min = {idx.min_abelian_index}, certified >= {n}")
    else:
        report.skip("min-abelian-index", f"N = {n} enumerated by certificate only")


# ---------------------------------------------------------------------------
# theta: the mu_n layer of one curve and its embedding into Bir(E x A^1)


def check_translations(tables: MuTables, n: int) -> None:
    """Raise CertificateError, naming the first failing points, unless add[x][y] is the
    label of x + y and shift[x] translates S by x for every x and y.  Checked on the
    generators G and H (labels n and 1), whose columns add[x][g] and rows shift[g]
    MuTables checks against point addition.  Light's criterion makes add associative,
    and every y is a word (...(g_1 + g_2) + ...) + g_k, so add[x][y] = (x + (...)) + g_k
    is x + y by induction on k.  With shift[O] the identity, shift[x + g] = shift[g]
    after shift[x] makes every shift[x] translation by x by the same induction."""
    points, others, add, shift = tables.points, tables.others, tables.add, tables.shift
    gens = (n, 1)
    check_associative(add, gens, f"E[{n}]", points)
    for g in gens:
        at_g = shift[g].__getitem__
        for x, row in enumerate(shift):
            moved = shift[add[x][g]]
            if list(map(at_g, row)) != moved:
                s = next(s for s, v in enumerate(row) if at_g(v) != moved[s])
                raise CertificateError(f"translation by (x, g) = ({points[x]!r}, {points[g]!r}) "
                                       f"is not by x then by g at {others[s]!r}")
    if shift[tables.origin] != list(range(len(others))) or len(set(map(tuple, shift))) < len(shift):
        raise CertificateError(f"E[{n}] does not act faithfully on the points off E[{n}]")


def theta_claims(report: RunReport, curve: Curve | None, n: int, seed: int) -> None:
    """Write the nine theta-layer claims of curve at level n into report, with the data
    fields n, p, a, b and orientation_sigma; seed draws the sampled claim.  Below level 2
    only h-of-level-order is claimed, and curve may be None."""
    if curve is not None:
        report.data.update({"n": n, "p": curve.p, "a": curve.a.value, "b": curve.b.value})
    if n < 2:
        level = h_of_level(curve, 1) if curve is not None else None
        report.claim("h-of-level-order", level is None or level.order == 1,
                     1, detail="level 1 is degenerate")
        return

    level = h_of_level(curve, n)  # NotAdmissible on a curve without full level-n structure
    structure = theta_structure(curve, n)
    torsion, found = set(structure.tables.points), set(level.elements)
    stray = [x for x in level.elements + structure.tables.points if (x in found) != (x in torsion)]
    report.claim("h-of-level-order", level.order == n * n and not stray, n * n, len(stray),
                 counterexample("x", [(x,) for x in stray], f"order {level.order} == {n}^2"))

    # every per-pair fact follows from checks on the generators s(1, 0) and s(0, 1), run
    # on the value vectors of the layer (theta.MuTables), with t^k s(i, j) labelled
    # (zeta^k, i, chi_j) in G1.  Translation by E[n] is a faithful action on S, so
    # mu_product composes the maps (s, t) -> (s + x, f(s) t) of S x F_p^* and is
    # associative.  Every h is a word c_1 ... c_m in the generators, so g h is
    # (...(g c_1)...) c_m, and a law of g c for every g and generator c, in an
    # associative target, holds for g h by induction on m
    tables = structure.tables
    check_translations(tables, n)
    shift, points, others = tables.shift, tables.points, tables.others

    labels = structure.mu_labels()  # by point, then k: (i, j, k) is number[i, j] + k
    size = len(labels)
    number = {ijk[:2]: e for e, ijk in enumerate(labels) if ijk[2] == 0}
    gens = [number[1, 0], number[0, 1]]

    @functools.cache
    def element(e: int):  # layer element e, built once, where a claim names or applies it
        return structure.element(*labels[e])

    @functools.cache
    def embedded_map(e: int):  # element e on E x A^1, embedded once
        return birgroup.theta_embed(element(e))

    # (t^k s) c = t^k (s c) (MuTables): each section times each generator is located once,
    # in label order; with s(i, j) c labelled (a, b, k'), t^k s(i, j) c is (a, b, k' + k)
    by_gen = [tables.vector(*labels[c]) for c in gens]
    located = {ij: [tables.locate(mu_product(tables, tables.vector(*ij, 0), c)) for c in by_gen]
               for ij in number}
    for ij, row in located.items():
        if None in row:
            raise CertificateError(f"product of (g, h) = ({element(number[ij])!r}, "
                                   f"{element(gens[row.index(None)])!r}) leaves the mu_{n} layer")
    right = [[number[a, b] + (c + k) % n for a, b, c in located[i, j]] for i, j, k in labels]
    reached = reach(gens, lambda g: right[g])
    if len(reached) != size:
        raise CertificateError(
            f"s(1, 0) and s(0, 1) generate {len(reached)} of the {size} mu_{n} layer elements")
    report.claim("mu-layer-closure", size == n ** 3, size * size,
                 detail=f"{size} elements, all words in the generators; "
                        "every product by induction")
    # elements over one point differ by a constant: (point, value at S[0]) decides each
    keys = [tables.value(*ijk, 0) for ijk in labels]
    copies = Counter(keys)
    report.claim("transport-bijective", len(copies) == size, size, size - len(copies))

    def generator_claim(id: str, checked: int, detail: str, bad: list[tuple]) -> None:
        report.claim(id, not bad, checked, len(bad), counterexample("(g, c)", bad, detail))

    iso_bad = [(element(g), element(c)) for g, row in enumerate(right)
               for c, k in zip(gens, row) if labels[k] != label_product(n, labels[g], labels[c])]
    generator_claim("structure-isomorphism", size * size,
                    "labels checked on the generators, every pair by induction", iso_bad)
    # a group: right multiplication by a generator c permutes the layer, so some power
    # of c fixes every element; that power is the identity, and c, like every word in
    # the generators, has an inverse
    perm_bad = [next((element(g), element(c)) for g, k in enumerate(col) if col.index(k) < g)
                for col, c in zip(zip(*right), gens) if len(set(col)) < size]
    generator_claim("theta-group-axioms", size ** 3,
                    "associativity from the translation action, identity and inverses "
                    "from the generators permuting the layer", perm_bad)
    report.data["orientation_sigma"] = sigma = orientation_sigma(curve, n)
    # with the labelling a homomorphism, the commutator of s(u) and s(v) is the element
    # labelled (0, 0, i_u j_v - i_v j_u): by MuTables' formula, the constant t to that
    # power over O, where t is the vector commutator of s(1, 0) = A and s(0, 1) = B.
    # Each is compared with Miller's formula for its own pair, from one table
    gen = mu_generator(curve.p, n)
    embedded = [RootOfUnity(n, k).embed_in_field(curve.p, gen).value for k in range(n)]
    coords = [structure.decomposition[x] for x in points]  # (i, j) of each point
    weil = weil_pairing_table(points, n, seed=seed)
    comm_bad = [] if iso_bad else [
        (structure.section[u], structure.section[v])
        for (a, u), (b, v) in itertools.product(enumerate(coords), repeat=2)
        if tables.value(0, 0, label_commutator(n, u, v), 0)[1]
        != embedded[weil[a][b] * sigma % n]]
    detail = f"sigma = {sigma}" + ("; premise failed: structure-isomorphism verified"
                                   if iso_bad else "")
    report.claim("commutator-matches-weil", not (iso_bad or comm_bad), len(coords) ** 2,
                 1 if iso_bad else len(comm_bad), counterexample("(g, h)", comm_bad, detail))

    # embed(g c) and embed(c) after embed(g) carry the divisor n(O) - n(-(x_g + x_c)), so
    # agreeing at (S[0], 1), where embed(g) is read from g's vector, they agree everywhere
    moved = [birgroup.SamplePoint(others[shift[x][0]], value) for x, value in keys]
    generator_claim("embed-homomorphism", size * size,
                    f"the action at ({others[0]!r}, 1) checked on the generators, "
                    "every pair by induction",
                    [(element(g), element(c)) for g, row in enumerate(right)
                     for c, k in zip(gens, row)
                     if birgroup.apply(embedded_map(c), moved[g]) != moved[k]])

    # maps over one point are equal exactly when their value vectors are
    first = next(([(element(e), element(keys.index(key, e + 1)))]
                  for e, key in enumerate(keys) if copies[key] > 1), [])
    report.claim("embed-injective", not first,
                 sum(m * (m - 1) // 2 for m in Counter(x for x, _ in keys).values()),
                 sum(m * (m - 1) // 2 for m in copies.values()), counterexample("(g, h)", first))

    # pointwise through the functions; at a sample in S the entry there of the vector of
    # a b (MuTables.product_value) gives the same fiber coordinate, tying vectors to functions
    at = {s: k for k, s in enumerate(others)}
    sem_ok = sem_skipped = sem_failures = 0
    samples = birgroup.sample_points(curve, seed=seed, count=400)  # built as drawn
    rng = random.Random(f"{seed}:compose")
    while sem_ok < 100 and sem_skipped < 4000:
        a, b = rng.choice(range(size)), rng.choice(range(size))
        s = rng.choice(samples)
        try:
            first, second = embedded_map(a), embedded_map(b)
            lhs = birgroup.apply(birgroup.compose(second, first), s)
            rhs = birgroup.apply(second, birgroup.apply(first, s))
        except Undefined:
            sem_skipped += 1
            continue
        k = at.get(s.x)
        if lhs != rhs or (k is not None and lhs.t != tables.product_value(
                labels[a], labels[b], k) * s.t % curve.p):
            sem_failures += 1
        sem_ok += 1
    report.claim("compose-semantics", sem_failures == 0 and sem_ok >= 100, sem_ok,
                 sem_failures, detail=f"{sem_skipped} undefined samples skipped")
