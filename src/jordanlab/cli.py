"""Command-line front end: verification suites and the non-Jordan witness table.

Each subcommand emits one structured JSON record on stdout and a short
human-readable summary on stderr (--format table swaps the table onto
stdout).  The exit code is 0 exactly when no claim failed; claims that were
skipped for budget reasons do not fail the run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
import time
from dataclasses import dataclass, field

from . import birgroup
from .errors import (
    BadArgument,
    BasisMismatch,
    CertificateError,
    DegenerateAfterRetries,
    JordanLabError,
    NotAdmissible,
    ScaleNotRootOfUnity,
    Undefined,
)
from .ellcurve import Curve, curve_search, enumerate_points, iter_admissible_curves, weil_pairing
from .finab import (
    DEFAULT_SPAN_BUDGET,
    FinAbGroup,
    all_h_subgroups,
    h_tables,
    is_isotropic,
    isotropic_witness,
    pairing,
    parse_delta,
)
from .gtable import GroupTable
from .heisenberg import EXHAUSTIVE_CAP, HeisElement, group_table, min_abelian_index
from .scalars import RootOfUnity, mu_generator
from .theta import (
    find_theta_curve,
    h_of_level,
    orientation_sigma,
    theta_commutator,
    theta_enumerate_mu,
    theta_mul,
    theta_structure,
)

VERIFIED = "verified"
FAILED = "failed"
SKIPPED = "skipped-budget"

PAIRING_TRIPLE_CAP = 2_000_000
ISOTROPIC_SCAN_CAP = 400  # largest #H whose subgroups abstract scans for isotropy
EMBED_LEVEL_CAP = 3  # largest level whose mu layer theta-verify embeds into Bir(E x A^1)


@dataclass
class Claim:
    id: str
    status: str
    checked: int = 0
    failures: int = 0
    detail: str = ""

    def to_dict(self) -> dict:
        out = {"id": self.id, "status": self.status, "checked": self.checked,
               "failures": self.failures}
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class RunReport:
    command: str
    params: dict
    claims: list[Claim] = field(default_factory=list)
    data: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    def claim(self, id: str, ok: bool, checked: int, failures: int = 0, detail: str = "") -> Claim:
        c = Claim(id, VERIFIED if ok else FAILED, checked, failures, detail)
        self.claims.append(c)
        return c

    def skip(self, id: str, detail: str) -> Claim:
        c = Claim(id, SKIPPED, detail=detail)
        self.claims.append(c)
        return c

    @property
    def failed(self) -> bool:
        return any(c.status == FAILED for c in self.claims)

    def to_dict(self) -> dict:
        out = {"command": self.command, "params": self.params}
        out.update(self.data)
        out["claims"] = [c.to_dict() for c in self.claims]
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


def _emit(report: RunReport, fmt: str) -> int:
    text = "\n".join(report.human_lines())
    if fmt == "table":
        print(text)
    else:
        print(json.dumps(report.to_dict(), indent=2))
        print(text, file=sys.stderr)
    return 1 if report.failed else 0


# ---------------------------------------------------------------------------
# abstract: symplectic layer + Heisenberg-type layer for one delta


def _counterexample(names: str, items: tuple | None) -> str:
    """Claim detail naming the first bad tuple, or "" when there is none."""
    if items is None:
        return ""
    shown = ", ".join(map(repr, items))
    return f"first counterexample {names} = " + (f"({shown})" if len(items) > 1 else shown)


def run_abstract(delta: tuple[int, ...], budget: int) -> RunReport:
    start = time.perf_counter()
    report = RunReport("abstract", {"delta": list(delta), "budget": budget})
    group = FinAbGroup(delta)
    n = group.order
    report.data["delta"] = list(delta)
    report.data["n"] = n
    report.data["group_order"] = n ** 3

    # every pairing claim is a lookup into integer tables of H built once
    h, add, gram = h_tables(group, pairing)
    m = len(h)
    if m ** 3 <= PAIRING_TRIPLE_CAP:
        failures, first = 0, None
        for a, b in itertools.product(range(m), repeat=2):
            e_a, e_ab = gram[a], gram[add[a][b]]
            # e(a+b, c) = e(a, c) e(b, c) and e(a, b+c) = e(a, b) e(a, c), over all c
            left = [(u + v) % n for u, v in zip(e_a, gram[b])]
            shifted = [e_a[bc] for bc in add[b]]
            right = [(e_a[b] + u) % n for u in e_a]
            if e_ab == left and shifted == right:
                continue
            bad = [c for c in range(m) if e_ab[c] != left[c] or shifted[c] != right[c]]
            failures += sum(e_ab[c] != left[c] for c in bad) + sum(shifted[c] != right[c] for c in bad)
            if first is None:
                first = (h[a], h[b], h[bad[0]])
        report.claim("pairing-bi-additive", failures == 0, 2 * m ** 3, failures,
                     _counterexample("(a, b, c)", first))
    else:
        report.skip("pairing-bi-additive", f"{m}^3 triples exceed cap")

    alt_bad = [a for a in range(m) if gram[a][a] != 0]
    report.claim("pairing-alternating", not alt_bad, m, len(alt_bad),
                 _counterexample("a", (h[alt_bad[0]],) if alt_bad else None))

    nd_bad = [a for a in range(m) if not h[a].is_zero and not any(gram[a])]
    report.claim("pairing-nondegenerate", not nd_bad, m, len(nd_bad),
                 _counterexample("a", (h[nd_bad[0]],) if nd_bad else None))

    if group.h_order() <= min(budget, ISOTROPIC_SCAN_CAP):
        subs = all_h_subgroups(group, budget=budget)
        iso = [s for s in subs if is_isotropic(s)]
        bad = 0
        for s in iso:
            witness = isotropic_witness(s)  # raises on violation
            if n % witness.elements.order != 0 or witness.index % n != 0:
                bad += 1
        report.claim("isotropic-index-divisibility", bad == 0, len(iso), bad,
                     f"{len(subs)} subgroups, {len(iso)} isotropic")
    else:
        report.skip("isotropic-index-divisibility", f"#H = {group.h_order()} too large")

    if n <= EXHAUSTIVE_CAP:
        # g h g^-1 h^-1 must be the central element zeta^e(g, h), for every pair
        table, elems = group_table(group)
        t = table.table
        index_of = {e: i for i, e in enumerate(elems)}
        h_index = {p: i for i, p in enumerate(h)}
        inv = [index_of[e.inverse()] for e in elems]
        proj = [h_index[e.project()] for e in elems]
        zero, triv = group.zero(), group.trivial_character()
        central = [index_of[HeisElement(RootOfUnity(n, k), zero, triv)] for k in range(n)]
        failures, first = 0, None
        for g, t_g in enumerate(t):
            t_ginv = [t[gh][inv[g]] for gh in t_g]
            got = [t[ghg][ih] for ghg, ih in zip(t_ginv, inv)]
            e_g = gram[proj[g]]
            want = [central[e_g[ph]] for ph in proj]
            if got == want:
                continue
            bad = [hh for hh in range(len(elems)) if got[hh] != want[hh]]
            failures += len(bad)
            if first is None:
                first = (elems[g], elems[bad[0]])
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
    rows = []
    for curve in curves:
        rows.append({
            "n": n,
            "p": curve.p,
            "a": curve.a.value,
            "b": curve.b.value,
            "group_order": len(enumerate_points(curve)),
            "certified_lower_bound": n,
            "min_abelian_index": None,
        })
    report.data["rows"] = rows
    report.data["found"] = len(curves)
    report.claim("search-complete", True, len(curves),
                 detail=f"{len(curves)} admissible curves with p <= {p_max}")
    report.wall_time_s = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# theta-verify


def run_theta_verify(curve: Curve | None, n: int, p_max: int, seed: int) -> RunReport:
    start = time.perf_counter()
    if curve is None and n >= 2:
        curve = find_theta_curve(n, p_max)
    params = {"n": n, "seed": seed}
    if curve is not None:
        params.update({"p": curve.p, "a": curve.a.value, "b": curve.b.value})
    report = RunReport("theta-verify", params)
    if curve is not None:
        report.data.update({"n": n, "p": curve.p, "a": curve.a.value, "b": curve.b.value})

    if n < 2:
        level = h_of_level(curve, 1) if curve is not None else None
        report.claim("h-of-level-order", level is None or level.order == 1,
                     1, detail="level 1 is degenerate")
        report.wall_time_s = time.perf_counter() - start
        return report

    level = h_of_level(curve, n)
    report.claim("h-of-level-order", level.order == n * n, level.order,
                 detail=f"order {level.order} == {n}^2")

    structure = theta_structure(curve, n)
    elements = theta_enumerate_mu(curve, n)
    size = len(elements)
    images = [structure.to_heisenberg(g) for g in elements]
    index_of = {img.sort_key(): i for i, img in enumerate(images)}

    # one pass over the n^6 products: transporting g h certifies closure and the
    # isomorphism, and at small levels its embedding certifies the homomorphism
    embed = n <= EMBED_LEVEL_CAP
    embedded = [birgroup.theta_embed(g) for g in elements] if embed else []
    iso_failures = hom_failures = 0
    prod_index = [[0] * size for _ in range(size)]
    for i, g in enumerate(elements):
        for j, h in enumerate(elements):
            gh = theta_mul(g, h)
            try:
                img = structure.to_heisenberg(gh)
            except (ScaleNotRootOfUnity, BasisMismatch) as exc:
                raise CertificateError(
                    f"product of (g, h) = ({g!r}, {h!r}) leaves the mu_{n} layer: {exc}"
                ) from exc
            prod_index[i][j] = index_of[img.sort_key()]
            if img != images[i] * images[j]:
                iso_failures += 1
            if embed and not birgroup.bir_equal(birgroup.theta_embed(gh),
                                                birgroup.compose(embedded[j], embedded[i])):
                hom_failures += 1
    report.claim("mu-layer-closure", size == n ** 3, size * size,
                 detail=f"{size} elements, all products stay in the layer")
    report.claim("transport-bijective", len(index_of) == size, size)
    report.claim("structure-isomorphism", iso_failures == 0, size * size, iso_failures,
                 detail="full multiplication-table comparison")

    table = GroupTable(prod_index)
    assoc_failures = sum(
        1
        for i, j, k in itertools.product(range(size), repeat=3)
        if table.mul(table.mul(i, j), k) != table.mul(i, table.mul(j, k))
    )
    report.claim("theta-group-axioms", assoc_failures == 0, size ** 3, assoc_failures,
                 detail="associativity, identity and inverses on the index table")

    sigma = orientation_sigma(curve, n)
    report.data["orientation_sigma"] = sigma
    gen = mu_generator(curve.p, n)
    comm_failures = comm_checked = 0
    section = list(structure.section.values())
    for g, h in itertools.product(section, repeat=2):
        value = theta_commutator(g, h)
        expected = (weil_pairing(g.x, h.x, n, seed=seed) ** sigma).embed_in_field(curve.p, gen)
        if value != expected:
            comm_failures += 1
        comm_checked += 1
    report.claim("commutator-matches-weil", comm_failures == 0, comm_checked, comm_failures,
                 detail=f"sigma = {sigma}")

    if embed:
        report.claim("embed-homomorphism", hom_failures == 0, size * size, hom_failures)

        inj_failures = 0
        pairs = 0
        for i in range(size):
            for j in range(i + 1, size):
                if embedded[i].y != embedded[j].y:
                    continue
                pairs += 1
                if birgroup.bir_equal(embedded[i], embedded[j]):
                    inj_failures += 1
        report.claim("embed-injective", inj_failures == 0, pairs, inj_failures)

        sem_ok = sem_skipped = sem_failures = 0
        samples = list(birgroup.sample_points(curve, seed=seed, count=400))
        rng = random.Random(f"{seed}:compose")
        while sem_ok < 100 and sem_skipped < 4000:
            a = rng.choice(embedded)
            b = rng.choice(embedded)
            s = rng.choice(samples)
            try:
                lhs = birgroup.apply(birgroup.compose(b, a), s)
                rhs = birgroup.apply(b, birgroup.apply(a, s))
            except Undefined:
                sem_skipped += 1
                continue
            if lhs != rhs:
                sem_failures += 1
            sem_ok += 1
        report.claim("compose-semantics", sem_failures == 0 and sem_ok >= 100, sem_ok,
                     sem_failures, detail=f"{sem_skipped} undefined samples skipped")
    else:
        report.skip("embed-homomorphism", f"level {n} beyond the embedding budget")

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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jordanlab",
        description="Exact verification suites for Heisenberg-type groups, theta groups "
                    "and the unbounded abelian-index witness in Bir(E x A^1).",
    )
    parser.add_argument("--format", choices=("json", "table"), default="json")
    # accepted after the subcommand too; SUPPRESS keeps the outer value intact
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=(
        lambda **kw: argparse.ArgumentParser(parents=[common], **kw)))

    p_abstract = sub.add_parser("abstract", help="verify the symplectic and Heisenberg layers")
    p_abstract.add_argument("--delta", required=True, help="elementary divisors, e.g. 4,2")
    p_abstract.add_argument("--budget", type=int, default=DEFAULT_SPAN_BUDGET,
                            help="element cap for subgroup enumeration")

    p_search = sub.add_parser("curve-search", help="list curves with full level-n structure")
    p_search.add_argument("--n", type=int, required=True)
    p_search.add_argument("--p-max", type=int, default=50)

    p_theta = sub.add_parser("theta-verify", help="verify the theta layer on one curve")
    p_theta.add_argument("--n", type=int, required=True)
    p_theta.add_argument("--p", type=int)
    p_theta.add_argument("--a", type=int)
    p_theta.add_argument("--b", type=int)
    p_theta.add_argument("--p-max", type=int, default=200,
                         help="search bound when no curve is given")
    p_theta.add_argument("--seed", type=int, default=0)

    p_table = sub.add_parser("nonjordan", help="emit the unbounded-index witness table")
    p_table.add_argument("--n-max", type=int, default=4)
    p_table.add_argument("--p-max", type=int, default=2000)
    p_table.add_argument("--exhaustive-max", type=int, default=4,
                         help="largest n with brute-force exact minimum")
    p_table.add_argument("--theta-max", type=int, default=4,
                         help="largest n for which the curve transport is attempted")
    p_table.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "abstract":
            report = run_abstract(parse_delta(args.delta), args.budget)
        elif args.command == "curve-search":
            if args.n < 2:
                raise BadArgument(f"--n must be at least 2, got {args.n}")
            report = run_curve_search(args.n, args.p_max)
        elif args.command == "theta-verify":
            if args.n < 1:
                raise BadArgument(f"--n must be at least 1, got {args.n}")
            curve = None
            if args.p is not None:
                if args.a is None or args.b is None:
                    raise BadArgument("--p requires --a and --b")
                try:
                    curve = Curve.make(args.p, args.a, args.b)
                except ValueError as exc:  # non-prime p, p < 5 or a singular curve
                    raise BadArgument(str(exc)) from exc
            report = run_theta_verify(curve, args.n, args.p_max, args.seed)
        else:
            if args.n_max < 1:
                raise BadArgument(f"--n-max must be at least 1, got {args.n_max}")
            report = run_nonjordan(args.n_max, args.p_max, args.exhaustive_max,
                                   args.theta_max, args.seed)
    except CertificateError as exc:  # a broken certificate fails the run; it is not bad input
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except JordanLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return _emit(report, args.format)


if __name__ == "__main__":
    raise SystemExit(main())
