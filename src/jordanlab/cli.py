"""Command-line front end: verification suites and the non-Jordan witness table.

Each subcommand emits one structured JSON record on stdout and a short
human-readable summary on stderr (--format table swaps the table onto
stdout).  The exit code is 0 exactly when no claim failed; claims that were
skipped for budget reasons do not fail the run.  This module parses argv,
refuses a budget before any search, finds the curve, times the run and writes
its record; the claims of the abstract and theta layers are those of
`claims.abstract_claims` and `claims.theta_claims`.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from types import SimpleNamespace

from .claims import ISOTROPIC_SCAN_CAP, RunReport, abstract_claims, theta_claims
from .ellcurve import Curve, admissible_rows, iter_admissible_curves
from .errors import (
    BadArgument,
    CertificateError,
    DegenerateAfterRetries,
    JordanLabError,
    NotAdmissible,
)
from .finab import FinAbGroup, parse_delta
from .heisenberg import check_g1_budget, min_abelian_index
from .scalars import is_prime
from .theta import check_theta_budget, find_theta_curve, orientation_sigma


def _human_lines(report: RunReport) -> list[str]:
    lines = [f"== {report.command} {report.params}"]
    for key, value in report.data.items():
        if key == "rows":
            # one format for the header and every row; "-" where a row has no value
            row_line = "%3s %5s %4s %4s %6s %9s %9s %9s"
            lines.append(row_line % ("n", "p", "a", "b", "|G|", "certified", "min_index",
                                     "transport"))
            for row in value:
                a, b, index = row.get("a"), row.get("b"), row["min_abelian_index"]
                lines.append(row_line % (row["n"], row.get("p") or "-", "-" if a is None else a,
                                         "-" if b is None else b, row["group_order"],
                                         row["certified_lower_bound"],
                                         "-" if index is None else index,
                                         row.get("theta_transport", "-")))
        elif key != "witness":
            lines.append(f"  {key}: {value}")
    for c in report.claims:
        lines.append(f"  [{c.status:>14}] {c.id} checked={c.checked} failures={c.failures}"
                     + (f"  ({c.detail})" if c.detail else ""))
    lines.append(f"  wall time {report.wall_time_s:.2f}s  -> {'FAIL' if report.failed else 'OK'}")
    return lines


def _emit(report: RunReport, fmt: str) -> int:
    text = "\n".join(_human_lines(report))
    if fmt == "table":
        print(text)
    else:
        print(json.dumps(report.to_dict()))  # one line, by json's C encoder
        print(text, file=sys.stderr)
    return 1 if report.failed else 0


# ---------------------------------------------------------------------------
# abstract: symplectic layer + Heisenberg-type layer for one delta


def run_abstract(delta: tuple[int, ...], budget: int) -> RunReport:
    start = time.perf_counter()
    report = RunReport("abstract", {"delta": list(delta), "budget": budget})
    abstract_claims(report, FinAbGroup(delta), budget)
    report.wall_time_s = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# curve-search


def run_curve_search(n: int, p_max: int) -> RunReport:
    start = time.perf_counter()
    report = RunReport("curve-search", {"n": n, "p_max": p_max})
    rows = list(admissible_rows(n, p_max))  # (p, a, b, #E), #E as its class counted it
    report.data["rows"] = [{"n": n, "p": p, "a": a, "b": b, "group_order": count,
                            "certified_lower_bound": n, "min_abelian_index": None}
                           for p, a, b, count in rows]
    report.data["found"] = len(rows)
    # level n over F_p needs mu_n in F_p and E[n] in E(F_p), and a curve a prime p >= 5 and
    # 4a^3 + 27b^2 != 0 mod p; one row per curve, each above the last in (p, a, b) order
    prime = {p: p >= 5 and is_prime(p) for p in {row[0] for row in rows}}
    bad = [(p, a, b) for (p, a, b, count), (q, c, d, _) in zip(rows, [(0, 0, 0, 0)] + rows)
           if p > p_max or p % n != 1 or count % (n * n) or (p, a, b) <= (q, c, d)
           or not prime[p] or not (4 * a ** 3 + 27 * b * b) % p]
    detail = f"{len(rows)} admissible curves with p <= {p_max}"
    report.claim("search-complete", not bad, len(rows), len(bad), detail + (
        "; first counterexample curve = E(%d:%d:%d)" % bad[0] if bad else ""))
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
    theta_claims(report, curve, n, seed)
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
