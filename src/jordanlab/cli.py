"""Command-line front end: verification suites and the non-Jordan witness table.

Each subcommand emits one structured JSON record on stdout and a short
human-readable summary on stderr (--format table swaps the table onto
stdout).  The exit code is 0 exactly when no claim failed; claims that were
skipped for budget reasons do not fail the run.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import operator
import random
import sys
import time
from collections import Counter
from types import SimpleNamespace

from . import birgroup
from .errors import (
    BadArgument,
    CertificateError,
    DegenerateAfterRetries,
    JordanLabError,
    NotAdmissible,
    Undefined,
)
from .ellcurve import Curve, curve_search, iter_admissible_curves, weil_pairing_table
from .finab import FinAbGroup, h_subgroups, h_tables, parse_delta
from .gtable import reach
from .heisenberg import (
    EXHAUSTIVE_CAP,
    check_g1_budget,
    group_table,
    label_commutator,
    label_product,
    min_abelian_index,
)
from .scalars import RootOfUnity, mu_generator
from .theta import (
    check_theta_budget,
    find_theta_curve,
    h_of_level,
    mu_product,
    orientation_sigma,
    theta_structure,
)

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

    def __init__(self, command: str, params: dict, claims: list[Claim] | None = None,
                 data: dict | None = None, wall_time_s: float = 0.0):
        self.command = command
        self.params = params
        self.claims = [] if claims is None else claims
        self.data = {} if data is None else data
        self.wall_time_s = wall_time_s
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

    def human_lines(self) -> list[str]:
        lines = [f"== {self.command} {self.params}"]
        for key, value in self.data.items():
            if key == "rows":
                lines.append(f"{'n':>3} {'p':>5} {'a':>4} {'b':>4} {'|G|':>6} "
                             f"{'certified':>9} {'min_index':>9} {'transport':>9}")
                for row in value:
                    lines.append(
                        f"{row['n']:>3} {row.get('p') or '-':>5} "
                        f"{row.get('a') if row.get('a') is not None else '-':>4} "
                        f"{row.get('b') if row.get('b') is not None else '-':>4} "
                        f"{row['group_order']:>6} {row['certified_lower_bound']:>9} "
                        f"{row['min_abelian_index'] if row['min_abelian_index'] is not None else '-':>9} "
                        f"{str(row.get('theta_transport', '-')):>9}")
            elif key != "witness":
                lines.append(f"  {key}: {value}")
        for c in self.claims:
            lines.append(f"  [{c.status:>14}] {c.id} checked={c.checked} failures={c.failures}"
                         + (f"  ({c.detail})" if c.detail else ""))
        lines.append(f"  wall time {self.wall_time_s:.2f}s  -> {'FAIL' if self.failed else 'OK'}")
        return lines

    def __repr__(self):
        return (f"RunReport(command={self.command!r}, params={self.params!r}, "
                f"claims={self.claims!r}, data={self.data!r}, wall_time_s={self.wall_time_s!r})")


def _emit(report: RunReport, fmt: str) -> int:
    text = "\n".join(report.human_lines())
    if fmt == "table":
        print(text)
    else:
        print(json.dumps(report.to_dict()))  # one line, by json's C encoder
        print(text, file=sys.stderr)
    return 1 if report.failed else 0


# ---------------------------------------------------------------------------
# abstract: symplectic layer + Heisenberg-type layer for one delta


def _counterexample(names: str, bad: list[tuple], detail: str = "") -> str:
    """Claim detail, followed by the first tuple of bad, named by names, when there is one."""
    if not bad:
        return detail
    shown = ", ".join(map(repr, bad[0]))
    first = f"first counterexample {names} = " + (f"({shown})" if len(bad[0]) > 1 else shown)
    return f"{detail}; {first}" if detail else first


def run_abstract(delta: tuple[int, ...], budget: int) -> RunReport:
    start = time.perf_counter()
    report = RunReport("abstract", {"delta": list(delta), "budget": budget})
    group = FinAbGroup(delta)
    n = group.order
    report.data["delta"] = list(delta)
    report.data["n"] = n
    report.data["group_order"] = n ** 3

    # every pairing claim is a lookup into integer tables of H built from K's two tables
    h, h_table, gram = h_tables(group)
    add = h_table.table
    m = len(h)
    gens = h_table.generators(frozenset(range(m)))
    cols = [[row[g] for row in add] for g in gens]  # cols[i][b] is b + gens[i]
    # Light's criterion: (a + b) + g = a + (b + g) for every a, b and generator g makes
    # the addition associative.  Every b is then a word (...(g_1 + g_2) + ...) + g_k, so
    # e(a + g, c) = e(a, c) e(g, c) and e(a, g + c) = e(a, g) e(a, c) for every a, c and
    # generator g give both laws on every triple (a, b, c) by induction on k.
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
    through_col = [operator.itemgetter(*col) for col in cols]  # through_col[i](v)[b]: v[b + g]
    failures, first = 0, []
    for a, (e_a, row) in enumerate(zip(rows, add)):
        through_row = operator.itemgetter(*row)  # through_row(v)[b] is v[a + b]
        for g, col, at_g, at_col in zip(gens, cols, through_g, through_col):
            if through_row(col) != at_col(row):
                b = next(b for b in range(m) if col[row[b]] != row[col[b]])
                raise CertificateError(f"addition of H is not associative at (a, g) = "
                                       f"({h[a]!r}, {h[g]!r}): (a + b) + g != a + (b + g) "
                                       f"for b = {h[b]!r}")
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
                 _counterexample("(a, g, c)", first) or
                 f"{len(gens)} generators checked, every triple by induction")

    alt_bad = [a for a in range(m) if gram[a][a] != 0]
    report.claim("pairing-alternating", not alt_bad, m, len(alt_bad),
                 _counterexample("a", [(h[a],) for a in alt_bad]))

    nd_bad = [a for a in range(m) if not h[a].is_zero and not any(gram[a])]
    report.claim("pairing-nondegenerate", not nd_bad, m, len(nd_bad),
                 _counterexample("a", [(h[a],) for a in nd_bad]))

    if group.h_order() <= min(budget, ISOTROPIC_SCAN_CAP):
        # gram holds mu_N exponents, so 0 is a trivial pairing
        subs = h_subgroups(group)
        iso = [s for s in subs if not any(gram[a][b] for a in s for b in s)]
        bad = []
        for s in iso:
            perp = {r for r in range(m) if not any(gram[r][a] for a in s)}
            k = len(s)
            if n % k or (m // k) % n or not s <= perp or len(perp) * k != m:
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
        # in C: column g^-1 read at the labels g h gives g h g^-1, and the rows of those
        # read at h^-1 give the commutators
        table, elems = group_table(group)
        t, inv, columns = table.table, table.inverse, table.columns
        failures, first = 0, []
        for a, e_a in enumerate(gram):
            want = [e for e in e_a for _ in range(n)]
            for g in range(a * n, a * n + n):
                t_g, col = t[g], columns[inv[g]]
                # an itemgetter of one index returns the entry, not a tuple: G1 at N = 1
                conj = operator.itemgetter(*t_g)(col) if len(t_g) > 1 else (col[t_g[0]],)
                got = list(map(operator.getitem, map(t.__getitem__, conj), inv))
                if got == want:
                    continue
                bad = [hh for hh in range(len(elems)) if got[hh] != want[hh]]
                failures += len(bad)
                if not first:
                    first = [(elems[g], elems[bad[0]])]
        report.claim("commutator-identity", failures == 0, len(elems) ** 2, failures,
                     _counterexample("(g, h)", first))
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

    report.wall_time_s = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# curve-search


def run_curve_search(n: int, p_max: int) -> RunReport:
    start = time.perf_counter()
    report = RunReport("curve-search", {"n": n, "p_max": p_max})
    curves = curve_search(n, p_max)
    # each curve carries its isomorphism class's count from the search
    report.data["rows"] = [{"n": n, "p": c.p, "a": c.a.value, "b": c.b.value,
                            "group_order": c.point_count(), "certified_lower_bound": n,
                            "min_abelian_index": None} for c in curves]
    report.data["found"] = len(curves)
    # level n over F_p needs mu_n in F_p and E[n] in E(F_p); one row per curve, in order
    keys = [(c.p, c.a.value, c.b.value) for c in curves]
    bad = [(c,) for c, key, before in zip(curves, keys, [()] + keys)
           if c.p > p_max or c.p % n != 1 or c.point_count() % (n * n) or key <= before]
    report.claim("search-complete", not bad, len(curves), len(bad), _counterexample(
        "curve", bad, f"{len(curves)} admissible curves with p <= {p_max}"))
    report.wall_time_s = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# theta-verify


def run_theta_verify(curve: Curve | None, n: int, p_max: int, seed: int) -> RunReport:
    start = time.perf_counter()
    report = RunReport("theta-verify", {"n": n, "seed": seed})
    check_theta_budget(n)  # before any curve is searched or structure built
    if curve is None and n >= 2:
        curve = find_theta_curve(n, p_max)
    if curve is not None:
        report.params.update({"p": curve.p, "a": curve.a.value, "b": curve.b.value})
        report.data.update({"n": n, "p": curve.p, "a": curve.a.value, "b": curve.b.value})

    if n < 2:
        level = h_of_level(curve, 1) if curve is not None else None
        report.claim("h-of-level-order", level is None or level.order == 1,
                     1, detail="level 1 is degenerate")
        report.wall_time_s = time.perf_counter() - start
        return report

    level = h_of_level(curve, n)  # NotAdmissible on a curve without full level-n structure
    structure = theta_structure(curve, n)
    torsion, found = set(structure.tables.points), set(level.elements)
    stray = [x for x in level.elements + structure.tables.points if (x in found) != (x in torsion)]
    report.claim("h-of-level-order", level.order == n * n and not stray, n * n, len(stray),
                 _counterexample("x", [(x,) for x in stray], f"order {level.order} == {n}^2"))

    # every per-pair fact follows from checks on the generators s(1, 0) and s(0, 1), run
    # on the value vectors of the layer (theta.MuTables), with t^k s(i, j) labelled
    # (zeta^k, i, chi_j) in G1.  Translation by E[n] is a faithful action on S, so
    # mu_product composes the maps (s, t) -> (s + x, f(s) t) of S x F_p^* and is
    # associative.  Every h is a word c_1 ... c_m in the generators, so g h is
    # (...(g c_1)...) c_m, and a law of g c for every g and generator c, in an
    # associative target, holds for g h by induction on m
    tables = structure.tables
    shift, points, others = tables.shift, tables.points, tables.others
    for (x, row), y in itertools.product(enumerate(shift), range(len(shift))):
        xy = shift[tables.add[x][y]]
        if [shift[y][v] for v in row] != xy:
            s = next(s for s, v in enumerate(row) if shift[y][v] != xy[s])
            raise CertificateError(f"translation by (x, y) = ({points[x]!r}, {points[y]!r}) "
                                   f"is not by x then by y at {others[s]!r}")
    if shift[tables.origin] != list(range(len(others))) or len(set(map(tuple, shift))) < len(shift):
        raise CertificateError(f"E[{n}] does not act faithfully on the points off E[{n}]")

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
        report.claim(id, not bad, checked, len(bad), _counterexample("(g, c)", bad, detail))

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
        != embedded[(weil[a][b] ** sigma).exponent]]
    detail = f"sigma = {sigma}" + ("; premise failed: structure-isomorphism verified"
                                   if iso_bad else "")
    report.claim("commutator-matches-weil", not (iso_bad or comm_bad), len(coords) ** 2,
                 1 if iso_bad else len(comm_bad), _counterexample("(g, h)", comm_bad, detail))

    # embed(g c) and embed(c) after embed(g) carry the divisor n(O) - n(-(x_g + x_c)), so
    # agreeing at (S[0], 1), where embed(g) is read from g's vector, they agree everywhere
    moved = [birgroup.SamplePoint(others[shift[x][0]], curve.fe(value)) for x, value in keys]
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
                 sum(m * (m - 1) // 2 for m in copies.values()), _counterexample("(g, h)", first))

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
        if lhs != rhs or (k is not None and lhs.t.value != tables.product_value(
                labels[a], labels[b], k) * s.t.value % curve.p):
            sem_failures += 1
        sem_ok += 1
    report.claim("compose-semantics", sem_failures == 0 and sem_ok >= 100, sem_ok,
                 sem_failures, detail=f"{sem_skipped} undefined samples skipped")

    report.wall_time_s = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# nonjordan


def run_nonjordan(n_max: int, p_max: int, exhaustive_max: int, theta_max: int, seed: int) -> RunReport:
    start = time.perf_counter()
    report = RunReport("nonjordan", {
        "n_max": n_max, "p_max": p_max,
        "exhaustive_max": exhaustive_max, "theta_max": theta_max, "seed": seed,
    })
    check_theta_budget(theta_max)  # before any row, as theta-verify --n does
    exact_max = min(n_max, exhaustive_max)  # the largest n whose G1 table is built
    if exact_max > 0:
        check_g1_budget(exact_max)
    rows = []
    sigma_seen: set[int] = set()
    for n in range(1, n_max + 1):
        row: dict = {
            "n": n,
            "delta": [n],
            "group_order": n ** 3,
            "certified_lower_bound": n,
            "p": None, "a": None, "b": None,
            "min_abelian_index": None,
            "theta_transport": None,
        }
        idx = min_abelian_index((n,), exhaustive_cap=exhaustive_max)
        row["min_abelian_index"] = idx.min_abelian_index
        if idx.exhaustive:
            report.claim(f"min-index-n{n}", idx.min_abelian_index == n,
                         idx.subgroups_scanned, detail=f"exact minimum {idx.min_abelian_index}")
        else:
            report.skip(f"min-index-n{n}", "certified bound only at this size")

        if n >= 2:
            curve = None
            if n <= theta_max:
                try:
                    curve = find_theta_curve(n, p_max)
                    row["theta_transport"] = True
                    sigma_seen.add(orientation_sigma(curve, n))
                except (NotAdmissible, DegenerateAfterRetries):
                    curve = None
            if curve is None:
                row["theta_transport"] = False if n <= theta_max else None
                curve = next(iter_admissible_curves(n, p_max), None)
            # the search apart, so that the next row's min-index claim times its scan only
            row["curve_wall_s"] = round(report.lap(), 3)
            if curve is None:
                report.skip(f"curve-n{n}", f"no admissible curve below {p_max}")
            else:
                row.update({"p": curve.p, "a": curve.a.value, "b": curve.b.value})
        rows.append(row)

    report.data["rows"] = rows
    if sigma_seen:
        report.data["orientation_sigma"] = sorted(sigma_seen)[0]
        report.claim("orientation-constant", len(sigma_seen) == 1, len(sigma_seen),
                     detail=f"signs {sorted(sigma_seen)}")
    bounds = [row["certified_lower_bound"] for row in rows]
    report.claim("bounds-strictly-increasing",
                 all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:])), len(bounds),
                 detail=f"certified bounds {bounds}")
    report.wall_time_s = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# argument parsing


# subcommand -> (help, {flag: (default, least, help)}).  A default of int or str marks a
# required flag of that type; every other flag is an int, at least `least` unless that is
# None.  --format json|table may stand before or after the subcommand
_COMMANDS = {
    "abstract": ("verify the symplectic and Heisenberg layers", {
        "--delta": (str, None, "elementary divisors, e.g. 4,2"),
        "--budget": (ISOTROPIC_SCAN_CAP, 1,
                     "scans H for isotropy if #H <= min(--budget, ISOTROPIC_SCAN_CAP)")}),
    "curve-search": ("list curves with full level-n structure", {
        "--n": (int, 2, "the level"), "--p-max": (50, 0, "largest prime searched")}),
    "theta-verify": ("verify the theta layer on one curve", {
        "--n": (int, 1, "the level"),
        "--p": (None, None, "the curve y^2 = x^3 + ax + b over F_p; needs --a and --b"),
        "--a": (None, None, "a of the curve"), "--b": (None, None, "b of the curve"),
        "--p-max": (2000, 0, "search bound when no curve is given"),
        "--seed": (0, None, "seed of the sampled claims")}),
    "nonjordan": ("emit the unbounded-index witness table", {
        "--n-max": (4, 1, "rows n = 1 .. n-max"),
        "--p-max": (2000, 0, "largest prime searched"),
        "--exhaustive-max": (4, 0, "largest n with brute-force exact minimum; 0 for none"),
        "--theta-max": (4, 0, "largest n given a theta curve; 0 for none"),
        "--seed": (0, None, "recorded in params only: no nonjordan step is random")}),
}


def _help() -> str:
    lines = ["usage: jordanlab [--format json|table] COMMAND [--flag value | --flag=value ...]",
             "  --format          json or table: what goes to stdout (default json)"]
    for command, (text, flags) in _COMMANDS.items():
        lines.append(f"{command}: {text}")
        for flag, (default, least, about) in flags.items():
            shown = "required" if default in (int, str) else f"default {default}"
            lines.append(f"  {flag:<17} {about} ({shown}"
                         + ("" if least is None else f", at least {least}") + ")")
    return "\n".join(lines)


def _parse(argv: list[str]) -> SimpleNamespace | str:
    """The values argv gives main, or the help text for -h or --help.  A flag takes the
    next word or its =value, is never abbreviated, and its last occurrence wins."""
    command, given = None, {}
    words = iter(argv)
    for word in words:
        if word in ("-h", "--help"):
            return _help()
        if command is None and not word.startswith("-"):
            if word not in _COMMANDS:
                raise BadArgument(f"{word!r} is not one of the subcommands {', '.join(_COMMANDS)}")
            command = word
            continue
        flag, eq, value = word.partition("=")
        if flag != "--format" and flag not in (_COMMANDS[command][1] if command else ()):
            raise BadArgument(f"{command or 'jordanlab'} takes no argument {flag!r}")
        given[flag] = value if eq else next(words, None)
        if given[flag] is None:
            raise BadArgument(f"{flag} needs a value")
    if command is None:
        raise BadArgument(f"no subcommand; choose from {', '.join(_COMMANDS)}")
    args = SimpleNamespace(format=given.pop("--format", "json"), command=command)
    if args.format not in ("json", "table"):
        raise BadArgument(f"--format must be json or table, got {args.format!r}")
    for flag, (default, least, _) in _COMMANDS[command][1].items():
        value = given.get(flag, default)
        if value in (int, str):
            raise BadArgument(f"{command} needs {flag}")
        if flag in given and default is not str:
            try:
                value = int(value)
            except ValueError:
                raise BadArgument(f"{flag} takes an integer, got {value!r}") from None
        if least is not None and value < least:
            raise BadArgument(f"{flag} must be " + (f"at least {least}" if least else
                                                     "non-negative") + f", got {value}")
        setattr(args, flag[2:].replace("-", "_"), value)
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):  # -h or --help
            print(args)
            return 0
        if args.command == "abstract":
            report = run_abstract(parse_delta(args.delta), args.budget)
        elif args.command == "curve-search":
            report = run_curve_search(args.n, args.p_max)
        elif args.command == "theta-verify":
            curve = None
            if args.p is None and (args.a is not None or args.b is not None):
                raise BadArgument("--a and --b require --p")
            if args.p is not None:
                if args.a is None or args.b is None:
                    raise BadArgument("--p requires --a and --b")
                try:
                    curve = Curve.make(args.p, args.a, args.b)
                except ValueError as exc:  # non-prime p, p < 5 or a singular curve
                    raise BadArgument(str(exc)) from exc
            report = run_theta_verify(curve, args.n, args.p_max, args.seed)
        else:
            report = run_nonjordan(args.n_max, args.p_max, args.exhaustive_max,
                                   args.theta_max, args.seed)
    except CertificateError as exc:  # a broken certificate fails the run; it is not bad input
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except JordanLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return _emit(report, args.format)


# The imported modules' objects live as long as the process.  Frozen, they are
# left out of every later collection, which would otherwise walk them all again.
gc.freeze()


if __name__ == "__main__":
    raise SystemExit(main())
