"""CLI subcommands: report schema, exit codes, output routing."""

import ast
import copy
import functools
import itertools
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from jordanlab import birgroup, claims, cli, ellcurve, finab, heisenberg, theta
from jordanlab.cli import main
from jordanlab.errors import CertificateError
from jordanlab.finab import (
    FinAbGroup,
    HPoint,
    KElement,
    all_h_subgroups,
    is_isotropic,
    pairing,
    parse_delta,
)
from jordanlab.gtable import GroupTable
from jordanlab.heisenberg import HeisElement, elements
from jordanlab.scalars import RootOfUnity
from jordanlab.theta import mu_product, theta_enumerate_mu, theta_mul

SRC = Path(__file__).resolve().parent.parent / "src"


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, json.loads(out.out), out.err


def test_abstract_delta2(capsys):
    code, report, err = run_json(capsys, ["abstract", "--delta", "2"])
    assert code == 0
    assert report["command"] == "abstract"
    assert report["min_abelian_index"] == 2
    assert report["certified_lower_bound"] == 2
    assert all(c["status"] in ("verified", "skipped-budget") for c in report["claims"])
    assert "wall_time_s" in report
    assert err  # human summary on stderr


def test_abstract_delta22(capsys):
    code, report, _ = run_json(capsys, ["abstract", "--delta", "2,2"])
    assert code == 0
    assert report["min_abelian_index"] == 4


def test_abstract_delta1_trivial(capsys):
    code, report, _ = run_json(capsys, ["abstract", "--delta", "1"])
    assert code == 0
    assert report["min_abelian_index"] == 1
    # the whole record, untimed: G1 has one element, so the commutator gather takes one index
    del report["wall_time_s"], report["claim_wall_s"]
    witness = {"delta": [1], "N": 1, "group_order": 1, "min_abelian_index": 1,
               "certified_lower_bound": 1, "witness_generators": [], "witness_order": 1,
               "witness_index": 1, "exhaustive": True}
    assert report == {
        "command": "abstract", "params": {"delta": [1], "budget": 400}, "delta": [1], "n": 1,
        "group_order": 1, "min_abelian_index": 1, "certified_lower_bound": 1, "witness": witness,
        "claims": [
            {"id": "pairing-bi-additive", "status": "verified", "checked": 2, "failures": 0,
             "detail": "0 generators checked, every triple by induction"},
            {"id": "pairing-alternating", "status": "verified", "checked": 1, "failures": 0},
            {"id": "pairing-nondegenerate", "status": "verified", "checked": 1, "failures": 0},
            {"id": "isotropic-index-divisibility", "status": "verified", "checked": 1,
             "failures": 0, "detail": "1 subgroups, 1 isotropic"},
            {"id": "commutator-identity", "status": "verified", "checked": 1, "failures": 0},
            {"id": "min-abelian-index", "status": "verified", "checked": 1, "failures": 0,
             "detail": "min = 1, certified >= 1"}]}


def test_abstract_bad_delta():
    assert main(["abstract", "--delta", "2,3"]) == 2


def test_curve_search(capsys):
    code, report, _ = run_json(capsys, ["curve-search", "--n", "2", "--p-max", "5"])
    assert code == 0
    rows = report["rows"]
    assert {(r["p"], r["a"], r["b"]) for r in rows} == {(5, 1, 0), (5, 4, 0)}
    code, report, _ = run_json(capsys, ["curve-search", "--n", "2", "--p-max", "2"])
    assert code == 0 and report["rows"] == []


def curves_repeated(rows):  # the third row listed twice
    return rows[:3] + rows[2:]


def curves_past_the_bound(rows):  # a row of p = 53 > 50 appended
    return rows + [list(ellcurve.admissible_rows(3, 53))[-1]]


def curves_of_level_2(rows):  # the level-2 rows, from p = 5: most lack level 3
    return list(ellcurve.admissible_rows(2, 50))


def without_level_3(rows):  # rows with mu_3 outside F_p or E[3] outside E(F_p)
    return sum(row["p"] % 3 != 1 or row["group_order"] % 9 != 0 for row in rows)


def search_with_rows(capsys, monkeypatch, rows, n, p_max):
    """curve-search --n n --p-max p_max run on the (p, a, b, #E) rows given in place of the
    scan's: the exit code, the records' rows and the search-complete claim."""
    monkeypatch.setattr(cli, "admissible_rows", lambda *args: iter(rows))
    code, report, _ = run_json(capsys, ["curve-search", "--n", str(n), "--p-max", str(p_max)])
    return code, report["rows"], claim_map(report)["search-complete"]


@pytest.mark.parametrize("doctored,failures,first", [
    (curves_repeated, lambda rows: 1, lambda rows: rows[2]),
    (curves_past_the_bound, lambda rows: 1, lambda rows: list(ellcurve.admissible_rows(3, 53))[-1]),
    (curves_of_level_2, without_level_3, lambda rows: next(ellcurve.admissible_rows(2, 50))),
])
def test_doctored_search_fails_search_complete(capsys, monkeypatch, doctored, failures, first):
    honest = list(ellcurve.admissible_rows(3, 50))
    code, rows, claim = search_with_rows(capsys, monkeypatch, doctored(honest), 3, 50)
    assert code == 1
    assert claim["status"] == "failed" and claim["checked"] == len(rows)
    assert claim["failures"] == failures(rows) > 0
    # the claim names a row as its Curve prints
    assert claim["detail"] == (f"{len(rows)} admissible curves with p <= 50; first "
                               f"counterexample curve = {ellcurve.Curve.make(*first(honest)[:3])!r}")


@pytest.mark.parametrize("n,p_max,extra,named", [
    (3, 50, [(13, 0, 0, 18)], "E(13:0:0)"),  # singular: 4a^3 + 27b^2 = 0
    (3, 50, [(25, 1, 1, 27)], "E(25:1:1)"),  # a composite p = 1 mod 3
    (3, 50, [(25, 1, 1, 27), (13, 0, 0, 18)], "E(13:0:0)"),
    (2, 13, [(3, 1, 0, 4)], "E(3:1:0)"),  # a prime below 5
])
def test_rows_of_no_curve_fail_search_complete(capsys, monkeypatch, n, p_max, extra, named):
    # each row is in order, below the bound and with n^2 | #E, so only the curve check fails
    doctored = sorted(list(ellcurve.admissible_rows(n, p_max)) + extra)
    code, rows, claim = search_with_rows(capsys, monkeypatch, doctored, n, p_max)
    assert code == 1 and len(rows) == len(doctored)
    assert claim["status"] == "failed" and claim["checked"] == len(rows)
    assert claim["failures"] == len(extra)
    assert claim["detail"] == (f"{len(rows)} admissible curves with p <= {p_max}; "
                               f"first counterexample curve = {named}")


def test_curve_search_past_the_budget_exits_2_before_scanning(capsys, monkeypatch):
    for name in ("_admissible_at", "_sqrt_table"):
        monkeypatch.setattr(ellcurve, name, lambda *args: pytest.fail("a prime was scanned"))
    assert main(["curve-search", "--n", "2", "--p-max", "2100"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: BudgetExceeded: p = 2003 exceeds point enumeration budget 2000\n"


def test_curve_search_at_a_huge_level_exits_2_at_the_first_prime_past_the_budget(capsys):
    # 22000001 is the least prime 1 mod 10^6
    assert main(["curve-search", "--n", "1000000", "--p-max", "1000000000"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: BudgetExceeded: p = 22000001 exceeds point enumeration budget 2000\n"


@pytest.mark.parametrize("argv, over", [(["theta-verify", "--n", "3"], 2011),
                                        (["nonjordan", "--n-max", "2"], 2003)])
def test_curve_lookup_past_the_budget_exits_2_before_scanning(capsys, monkeypatch, argv, over):
    # both commands stop at their first good curve, which lies on a small prime
    for name in ("_admissible_at", "_sqrt_table"):
        monkeypatch.setattr(ellcurve, name, lambda *args: pytest.fail("a prime was scanned"))
    assert main([*argv, "--p-max", "2100"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: BudgetExceeded: p = {over} exceeds point enumeration budget 2000\n"


def test_theta_verify_explicit_curve(capsys):
    code, report, _ = run_json(
        capsys, ["theta-verify", "--n", "2", "--p", "7", "--a", "3", "--b", "0"]
    )
    assert code == 0
    assert report["orientation_sigma"] == -1
    ids = {c["id"]: c for c in report["claims"]}
    for required in (
        "h-of-level-order",
        "mu-layer-closure",
        "structure-isomorphism",
        "theta-group-axioms",
        "commutator-matches-weil",
        "embed-homomorphism",
        "embed-injective",
        "compose-semantics",
    ):
        assert ids[required]["status"] == "verified", required
        assert ids[required]["failures"] == 0
    assert ids["compose-semantics"]["checked"] >= 100


def test_stray_h_of_level_point_fails_its_claim(capsys, monkeypatch):
    # one point of E[3] swapped for a point off it: H(L) is compared with the E[3] the
    # structure is built on, after h_of_level has let the curve through
    curve = cli.Curve.make(13, 7, 0)
    honest = theta.h_of_level(curve, 3)
    off = next(x for x in ellcurve.enumerate_points(curve) if x not in honest.elements)
    swapped = theta.HofL(3, (off,) + honest.elements[1:])
    monkeypatch.setattr(claims, "h_of_level", lambda c, n: swapped if (c, n) == (curve, 3)
                        else pytest.fail("h_of_level on another curve"))
    code, report, _ = run_json(capsys, THETA_N3)
    assert code == 1
    first = report["claims"][0]
    assert first == {"id": "h-of-level-order", "status": "failed", "checked": 9, "failures": 2,
                     "detail": f"order 9 == 3^2; first counterexample x = {off!r}"}
    assert all(c["status"] == "verified" for c in report["claims"][1:])


def test_theta_verify_rejects_inadmissible(capsys):
    code = main(["theta-verify", "--n", "3", "--p", "7", "--a", "3", "--b", "0"])
    assert code == 2
    assert "NotAdmissible" in capsys.readouterr().err


def test_theta_verify_level1(capsys):
    code, report, _ = run_json(
        capsys, ["theta-verify", "--n", "1", "--p", "7", "--a", "3", "--b", "0"]
    )
    assert code == 0


def test_nonjordan_table(capsys):
    code, report, _ = run_json(capsys, ["nonjordan", "--n-max", "3", "--p-max", "60"])
    assert code == 0
    rows = report["rows"]
    assert [r["certified_lower_bound"] for r in rows] == [1, 2, 3]
    assert [r["min_abelian_index"] for r in rows] == [1, 2, 3]
    assert rows[1]["p"] is not None and rows[2]["p"] is not None
    ids = {c["id"] for c in report["claims"]}
    assert "bounds-strictly-increasing" in ids
    assert all(c["status"] != "failed" for c in report["claims"])


def test_table_format_goes_to_stdout(capsys):
    code = main(["--format", "table", "abstract", "--delta", "2"])
    out = capsys.readouterr()
    assert code == 0
    assert "min_abelian_index" in out.out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out.out)


def test_record_is_one_line_of_json(capsys, monkeypatch):
    # compact, so json uses its C encoder; the record loads back to the dict it came from
    records, honest = [], claims.RunReport.to_dict
    monkeypatch.setattr(claims.RunReport, "to_dict", lambda self: records.append(honest(self))
                        or records[-1])
    assert main(["curve-search", "--n", "2", "--p-max", "40"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and out.endswith("\n")
    assert len(records) == 1 and len(records[0]["rows"]) == 693
    assert json.loads(out) == records[0]


@pytest.mark.parametrize("argv,message", [
    (["curve-search", "--n", "1"], "--n must be at least 2"),
    (["theta-verify", "--n", "3", "--p", "31"], "--p requires --a and --b"),
    (["theta-verify", "--n", "3", "--p", "4", "--a", "1", "--b", "1"], "not prime"),
    (["theta-verify", "--n", "0"], "--n must be at least 1"),
    (["theta-verify", "--n", "-2"], "--n must be at least 1"),
    (["nonjordan", "--n-max", "0"], "--n-max must be at least 1"),
    (["curve-search", "--n", "2", "--p-max", "-5"], "--p-max must be non-negative"),
    (["nonjordan", "--n-max", "2", "--p-max", "-1"], "--p-max must be non-negative"),
    (["abstract", "--delta", "4", "--budget", "0"], "--budget must be at least 1"),
    (["abstract", "--delta", "2", "--budget", "-3"], "--budget must be at least 1"),
    (["nonjordan", "--n-max", "3", "--exhaustive-max", "-1"],
     "--exhaustive-max must be non-negative"),
    (["nonjordan", "--n-max", "2", "--theta-max", "-3"], "--theta-max must be non-negative"),
    ([], "no subcommand; choose from abstract, curve-search, theta-verify, nonjordan"),
    (["verify", "--n", "2"], "'verify' is not one of the subcommands abstract, curve-search"),
    (["--format", "table"], "no subcommand"),
    (["abstract", "--delta", "2", "--bogus", "1"], "abstract takes no argument '--bogus'"),
    (["abstract", "--delta", "2", "stray"], "abstract takes no argument 'stray'"),
    (["--delta", "2", "abstract"], "jordanlab takes no argument '--delta'"),
    (["curve-search", "--n", "2", "--delta", "2"], "curve-search takes no argument '--delta'"),
    (["theta-verify", "--n-max", "2"], "theta-verify takes no argument '--n-max'"),
    (["curve-search", "--n"], "--n needs a value"),
    (["abstract", "--delta", "2", "--format"], "--format needs a value"),
    (["curve-search", "--n", "two"], "--n takes an integer, got 'two'"),
    (["theta-verify", "--n", "3", "--p=1.5", "--a", "1", "--b", "1"],
     "--p takes an integer, got '1.5'"),
    (["nonjordan", "--seed="], "--seed takes an integer, got ''"),
    (["abstract"], "abstract needs --delta"),
    (["abstract", "--budget", "9"], "abstract needs --delta"),
    (["curve-search", "--p-max", "40"], "curve-search needs --n"),
    (["theta-verify", "--seed", "1"], "theta-verify needs --n"),
    (["--format", "xml", "abstract", "--delta", "2"], "--format must be json or table, got 'xml'"),
    (["abstract", "--delta", "2", "--format=xml"], "--format must be json or table, got 'xml'"),
    # no prefix abbreviations: --n is not --n-max
    (["nonjordan", "--n", "2"], "nonjordan takes no argument '--n'"),
    # without --p the curve would be searched for, and --a and --b dropped
    (["theta-verify", "--n", "2", "--a", "5", "--b", "1"], "--a and --b require --p"),
    (["theta-verify", "--n", "2", "--b=1"], "--a and --b require --p"),
])
def test_input_errors_exit_2(capsys, argv, message):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: BadArgument:") and message in out.err
    assert len(out.err.splitlines()) == 1


FLAGS = {
    "abstract": ["--delta", "--budget"],
    "curve-search": ["--n", "--p-max"],
    "theta-verify": ["--n", "--p", "--a", "--b", "--p-max", "--seed"],
    "nonjordan": ["--n-max", "--p-max", "--exhaustive-max", "--theta-max", "--seed"],
}


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["abstract", "--help"],
                                  ["--format", "table", "nonjordan", "--n-max", "2", "-h"]])
def test_help_exits_0_and_lists_every_subcommand_and_flag(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out.startswith("usage: jordanlab [--format json|table] COMMAND")
    assert "  --format          json or table: what goes to stdout (default json)\n" in out.out
    assert "  --delta           elementary divisors, e.g. 4,2 (required)\n" in out.out
    assert "  --p-max           largest prime searched (default 50, at least 0)\n" in out.out
    assert list(cli._COMMANDS) == list(FLAGS)
    for command, (about, flags) in cli._COMMANDS.items():
        assert list(flags) == FLAGS[command]
        section = out.out.split(f"\n{command}: {about}\n")[1].split("\n")[:len(flags)]
        for line, (flag, (_, _, text)) in zip(section, flags.items()):
            assert line.startswith(f"  {flag:<17} {text} (") and text, line


# each argv with the values the former argparse parser gave for it, defaults included
PARSED = [
    (["abstract", "--delta", "4,2"],
     {"format": "json", "command": "abstract", "delta": "4,2", "budget": 400}),
    (["--format", "table", "abstract", "--delta=2", "--budget", "7", "--format", "json"],
     {"format": "json", "command": "abstract", "delta": "2", "budget": 7}),
    (["curve-search", "--n", "3"],
     {"format": "json", "command": "curve-search", "n": 3, "p_max": 50}),
    (["curve-search", "--n=2", "--p-max", "40", "--format", "table"],
     {"format": "table", "command": "curve-search", "n": 2, "p_max": 40}),
    (["theta-verify", "--n", "3", "--p", "13", "--a", "7", "--b", "0", "--seed", "5",
      "--p-max", "300"],
     {"format": "json", "command": "theta-verify", "n": 3, "p": 13, "a": 7, "b": 0,
      "p_max": 300, "seed": 5}),
    (["theta-verify", "--n", "3", "--p", "13", "--a", "-6", "--b=0"],
     {"format": "json", "command": "theta-verify", "n": 3, "p": 13, "a": -6, "b": 0,
      "p_max": 2000, "seed": 0}),
    (["theta-verify", "--n", "4"],
     {"format": "json", "command": "theta-verify", "n": 4, "p": None, "a": None, "b": None,
      "p_max": 2000, "seed": 0}),
    (["nonjordan"],
     {"format": "json", "command": "nonjordan", "n_max": 4, "p_max": 2000,
      "exhaustive_max": 4, "theta_max": 4, "seed": 0}),
    (["nonjordan", "--n-max", "9", "--exhaustive-max", "0", "--theta-max", "8", "--p-max",
      "100", "--seed", "-3", "--n-max", "2"],
     {"format": "json", "command": "nonjordan", "n_max": 2, "p_max": 100,
      "exhaustive_max": 0, "theta_max": 8, "seed": -3}),
]


@pytest.mark.parametrize("argv,values", PARSED)
def test_flags_parse_to_the_former_values(argv, values):
    assert vars(cli._parse(argv)) == values


def test_negative_values_reach_their_range_check(capsys):
    assert main(["nonjordan", "--exhaustive-max", "-1"]) == 2
    assert capsys.readouterr().err == (
        "error: BadArgument: --exhaustive-max must be non-negative, got -1\n")


def claim_map(report):
    return {c["id"]: c for c in report["claims"]}


def test_isotropic_skip_names_the_bound(capsys, monkeypatch):
    _, report, _ = run_json(capsys, ["abstract", "--delta", "4", "--budget", "10"])
    claim = claim_map(report)["isotropic-index-divisibility"]
    assert claim["status"] == "skipped-budget"
    assert claim["detail"] == "#H = 16 exceeds --budget 10"
    monkeypatch.setattr(claims, "ISOTROPIC_SCAN_CAP", 10)
    _, report, _ = run_json(capsys, ["abstract", "--delta", "4"])
    assert claim_map(report)["isotropic-index-divisibility"]["detail"] == (
        "#H = 16 exceeds ISOTROPIC_SCAN_CAP 10")


def test_budget_defaults_to_the_scan_cap(capsys):
    _, report, _ = run_json(capsys, ["abstract", "--delta", "2"])
    assert report["params"]["budget"] == cli.ISOTROPIC_SCAN_CAP == 400


def test_skewed_pairing_fails_bi_additivity(capsys, monkeypatch):
    h = FinAbGroup((4,)).h_elements()
    bad_pair = (h[5], h[6])

    def skewed(a, b):
        value = pairing(a, b)
        return value * RootOfUnity(value.modulus, 1) if (a, b) == bad_pair else value

    honest = claims.h_tables
    table = honest(FinAbGroup((4,)))[1]
    gens = [h[g] for g in table.generators(frozenset(range(table.order)))]
    assert gens == [h[1], h[4]]  # (0, chi) and (1, 1): the generators the claim checks

    def skewed_tables(group):  # the Gram entry of bad_pair one step off
        h, add, gram = honest(group)
        gram = [row[:] for row in gram]
        gram[5][6] = (gram[5][6] + 1) % group.order
        return h, add, gram

    monkeypatch.setattr(claims, "h_tables", skewed_tables)
    code, report, _ = run_json(capsys, ["abstract", "--delta", "4"])
    assert code == 1
    claim = claim_map(report)["pairing-bi-additive"]
    assert claim["status"] == "failed" and claim["checked"] == 2 * 16 ** 3
    # each law failed at (a, g, c), in order of a, then the generators, then c, on the objects
    bad = [(a, g, c, (skewed(a + g, c) != skewed(a, c) * skewed(g, c))
            + (skewed(a, g + c) != skewed(a, g) * skewed(a, c)))
           for a in h for g in gens for c in h]
    assert claim["failures"] == sum(t[3] for t in bad) > 0
    first = next(t[:3] for t in bad if t[3])
    assert claim["detail"] == "first counterexample (a, g, c) = ({!r}, {!r}, {!r})".format(*first)
    assert claim_map(report)["commutator-identity"]["status"] == "failed"


def triple_loop_claim(group):
    """pairing-bi-additive as the full triple loop over the tables: (ok, checked, failures)."""
    _, table, gram = finab.h_tables(group)
    add, m, n = table.table, table.order, group.order
    failures = sum((gram[add[a][b]][c] - gram[a][c] - gram[b][c]) % n != 0
                   for a, b, c in itertools.product(range(m), repeat=3))
    failures += sum((gram[a][add[b][c]] - gram[a][b] - gram[a][c]) % n != 0
                    for a, b, c in itertools.product(range(m), repeat=3))
    return failures == 0, 2 * m ** 3, failures


@pytest.mark.parametrize("delta", ["1", "2", "3", "4", "2,2", "5", "6"])
def test_generator_certificate_matches_the_triple_loop(capsys, delta):
    code, report, _ = run_json(capsys, ["abstract", "--delta", delta])
    claim = claim_map(report)["pairing-bi-additive"]
    ok, checked, failures = triple_loop_claim(FinAbGroup(parse_delta(delta)))
    assert (claim["status"], claim["checked"], claim["failures"]) == (
        "verified" if ok else "failed", checked, failures)
    assert code == 0 and ok


def test_non_associative_h_addition_fails_the_certificate(capsys, monkeypatch):
    honest = claims.h_tables
    group = FinAbGroup((4,))
    h, table, gram = honest(group)
    rows = [row[:] for row in table.table]
    rows[5][6], rows[5][7] = rows[5][7], rows[5][6]  # h_5 + h_6 and h_5 + h_7 swapped
    doctored = GroupTable(rows)
    gens = doctored.generators(frozenset(range(16)))
    a, g = next((a, g) for a in range(16) for g in gens
                if any(rows[rows[a][b]][g] != rows[a][rows[b][g]] for b in range(16)))
    monkeypatch.setattr(claims, "h_tables", lambda group: (h, doctored, gram))
    assert main(["abstract", "--delta", "4"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: CertificateError: addition of H is not associative at "
                              f"(a, g) = ({h[a]!r}, {h[g]!r}): ")


@pytest.mark.parametrize("delta", ["12", "16"])
def test_abstract_verifies_bi_additivity_past_the_old_triple_cap(capsys, delta):
    code, report, _ = run_json(capsys, ["abstract", "--delta", delta])
    assert code == 0
    claim = claim_map(report)["pairing-bi-additive"]
    m = int(delta) ** 2
    assert (claim["status"], claim["checked"], claim["failures"]) == ("verified", 2 * m ** 3, 0)
    assert claim["detail"] == "2 generators checked, every triple by induction"


def check_doctored_inverse_fails_commutator_identity(capsys, monkeypatch, delta):
    group = FinAbGroup(parse_delta(delta))
    table = claims.group_table(group)[0]  # the cached table that run_abstract reads
    monkeypatch.setattr(table, "inverse", list(range(table.order)))  # g h g h: not central
    code, report, _ = run_json(capsys, ["abstract", "--delta", delta])
    assert code == 1
    by_id = claim_map(report)
    assert by_id["pairing-bi-additive"]["status"] == "verified"
    claim = by_id["commutator-identity"]
    assert claim["status"] == "failed" and claim["failures"] > 0
    first = next((g, h) for g, h in itertools.product(elements(group), repeat=2)
                 if g * h * g * h != HeisElement(pairing(g.project(), h.project()),
                                                 group.zero(), group.trivial_character()))
    assert claim["detail"] == "first counterexample (g, h) = ({!r}, {!r})".format(*first)
    assert (claim["failures"], claim["detail"]) == entry_loop_commutator_claim(group, table)


def test_doctored_inverse_fails_commutator_identity(capsys, monkeypatch):
    check_doctored_inverse_fails_commutator_identity(capsys, monkeypatch, "4")


@pytest.mark.parametrize("delta", ["2,2", "6"])
def test_doctored_inverse_fails_commutator_identity_past_n4(capsys, monkeypatch, delta):
    check_doctored_inverse_fails_commutator_identity(capsys, monkeypatch, delta)


def entry_loop_commutator_claim(group, table):
    """commutator-identity as the per-entry loop over a G1 table: for every g and h,
    g h g^-1 h^-1 read entry by entry against zeta^e(g, h), e read off the Gram table of
    the images in H.  (failures, detail) as the claim reports them."""
    t, inv, n = table.table, table.inverse, group.order
    gram = finab.h_tables(group)[2]
    elems = heisenberg.group_table(group)[1]
    bad = [(g, h) for g in range(table.order) for h in range(table.order)
           if t[t[t[g][h]][inv[g]]][inv[h]] != gram[g // n][h // n]]
    detail = ("first counterexample (g, h) = ({!r}, {!r})".format(*(elems[i] for i in bad[0]))
              if bad else "")
    return len(bad), detail


@pytest.mark.parametrize("delta", ["1", "2", "3", "4", "2,2", "5", "6"])
def test_commutator_claim_matches_the_entry_loop(capsys, delta):
    group = FinAbGroup(parse_delta(delta))
    code, report, _ = run_json(capsys, ["abstract", "--delta", delta])
    claim = claim_map(report)["commutator-identity"]
    assert (claim["failures"], claim.get("detail", "")) == entry_loop_commutator_claim(
        group, heisenberg.group_table(group)[0]) == (0, "")
    assert (claim["status"], claim["checked"], code) == ("verified", group.order ** 6, 0)


@pytest.mark.parametrize("delta,entries", [("4", [(5, 6)]), ("4", [(63, 1)]),
                                           ("4", [(5, 6), (5, 9)]), ("2,2", [(17, 40)]),
                                           ("6", [(100, 200)])])
def test_commutator_claim_on_a_doctored_product_matches_the_entry_loop(capsys, monkeypatch,
                                                                       delta, entries):
    group = FinAbGroup(parse_delta(delta))
    honest, elems = heisenberg.group_table(group)
    rows = [row[:] for row in honest.table]
    for a, b in entries:
        assert rows[a][b] not in (honest.identity, honest.identity + 1)
        rows[a][b] = honest.identity + 1  # a b read as zeta: inverses are kept
    doctored = GroupTable(rows)  # its own rows, so its own columns
    assert doctored.inverse == honest.inverse and doctored.columns != honest.columns
    monkeypatch.setattr(claims, "group_table", lambda group: (doctored, elems))
    code, report, _ = run_json(capsys, ["abstract", "--delta", delta])
    claim = claim_map(report)["commutator-identity"]
    failures, detail = entry_loop_commutator_claim(group, doctored)
    assert code == 1 and failures > 0
    assert (claim["status"], claim["checked"], claim["failures"], claim["detail"]) == (
        "failed", group.order ** 6, failures, detail)


def test_broken_certificate_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(GroupTable, "abelian_subgroups",
                        lambda self, max_gens=None: {frozenset(range(self.order)): ()})
    assert main(["abstract", "--delta", "2"]) == 1
    assert "error: CertificateError:" in capsys.readouterr().err


def test_optimized_interpreter_gives_the_same_claims():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    claims = []
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-m", "jordanlab.cli", "abstract",
                               "--delta", "4"], capture_output=True, text=True, env=env,
                              check=True)
        claims.append(json.loads(proc.stdout)["claims"])
    assert claims[0] == claims[1]
    assert all(c["status"] == "verified" for c in claims[0])


THETA_N2 = ["theta-verify", "--n", "2", "--p", "7", "--a", "3", "--b", "0"]


def theta_argv(curve, n):
    """theta-verify at level n on the given curve."""
    return ["theta-verify", "--n", str(n), "--p", str(curve.p),
            "--a", str(curve.a.value), "--b", str(curve.b.value)]


def generators(curve, n):
    """Layer indices of s(1, 0) and s(0, 1)."""
    labels = theta.theta_structure(curve, n).mu_labels()
    return [labels.index((1, 0, 0)), labels.index((0, 1, 0))]


def counted_products(monkeypatch):
    """The layer products theta-verify makes: the pairs of labels claims.mu_product
    multiplies, then the pairs MuTables.product_value reads one entry of."""
    calls, reads = [], []

    def counted(tables, g, h):
        calls.append((tables.locate(g), tables.locate(h)))
        return mu_product(tables, g, h)

    honest = theta.MuTables.product_value
    monkeypatch.setattr(claims, "mu_product", counted)
    monkeypatch.setattr(theta.MuTables, "product_value",
                        lambda tables, u, v, s: reads.append((u, v)) or honest(tables, u, v, s))
    return calls, reads


def test_theta_verify_multiplies_each_pair_once(capsys, monkeypatch):
    calls, reads = counted_products(monkeypatch)
    code, report, _ = run_json(capsys, THETA_N2)
    assert code == 0
    # each pair (s, c) of a section and a generator once, sections in label order; then
    # compose-semantics reads one entry of one product for each sample it checks on S
    labels = theta.theta_structure(cli.Curve.make(7, 3, 0), 2).mu_labels()
    sections = [ijk for ijk in labels if ijk[2] == 0]
    assert calls == [(s, c) for s in sections for c in [(1, 0, 0), (0, 1, 0)]]
    assert 0 < len(reads) <= claim_map(report)["compose-semantics"]["checked"] == 100
    # with the structure built, listing the layer multiplies nothing
    monkeypatch.setattr(theta, "theta_mul", lambda g, h: pytest.fail("theta_mul called"))
    monkeypatch.setattr(theta, "mu_product", lambda *args: pytest.fail("mu_product called"))
    assert len(theta_enumerate_mu(cli.Curve.make(7, 3, 0), 2)) == 8


@pytest.mark.parametrize("n", [2, 3, 4])
def test_theta_verify_multiplies_each_section_by_each_generator(capsys, monkeypatch, n):
    calls, reads = counted_products(monkeypatch)
    code, report, _ = run_json(capsys, ["theta-verify", "--n", str(n)])
    assert code == 0
    # 2 n^2 section products, then at most one per compose-semantics sample
    assert len(calls) == 2 * n ** 2
    assert 0 < len(reads) <= claim_map(report)["compose-semantics"]["checked"]


def test_escaping_product_exits_1(capsys, monkeypatch):
    calls = []

    def doctored(tables, g, h):
        calls.append((tables.locate(g), tables.locate(h)))
        x, values = mu_product(tables, g, h)
        if len(calls) == 3:  # 3 has order 6 in F_7^*, not in mu_2
            values = tuple(3 * v % tables.p for v in values)
        return x, values

    monkeypatch.setattr(claims, "mu_product", doctored)
    assert main(THETA_N2) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: CertificateError:")
    curve = cli.Curve.make(7, 3, 0)
    layer = theta_enumerate_mu(curve, 2)
    labels = theta.theta_structure(curve, 2).mu_labels()
    # the section of the second point times s(1, 0): its fibre's k = 0 element is the
    # first element whose product by a generator escapes
    i, j = (labels.index(ijk) for ijk in calls[2])
    assert (i, j) == (2, generators(curve, 2)[0])
    assert out.err == ("error: CertificateError: product of (g, h) = ({!r}, {!r}) leaves the "
                       "mu_2 layer\n".format(layer[i], layer[j]))


THETA_N3 = ["theta-verify", "--n", "3", "--p", "13", "--a", "7", "--b", "0"]


def test_product_without_translation_exits_1(capsys, monkeypatch):
    # the object product builds no vector: the vector claims stay verified, and the
    # objects it gives fail compose-semantics against the vectors
    monkeypatch.setattr(theta, "_STRUCTURES", {})  # build the structure under the doctoring
    monkeypatch.setattr(theta, "theta_mul",
                        lambda g, h: theta.ThetaElement(g.level, g.x + h.x, h.f * g.f))
    code, report, _ = run_json(capsys, THETA_N3)
    assert code == 1
    claims = claim_map(report)
    assert [id for id, c in claims.items() if c["status"] != "verified"] == ["compose-semantics"]
    assert claims["compose-semantics"]["failures"] == 60


def test_compose_without_translation_fails_compose_semantics_alone(capsys, monkeypatch):
    # both sides of lhs == rhs evaluate through TrackedFunction.value_at; a composite
    # whose second function is not pulled back along the first translation differs
    monkeypatch.setattr(birgroup, "compose", lambda second, first: birgroup.BirAuto(
        first.y + second.y, second.f * first.f))
    code, report, _ = run_json(capsys, THETA_N3)
    assert code == 1
    claims = claim_map(report)
    assert [id for id, c in claims.items() if c["status"] != "verified"] == ["compose-semantics"]
    assert claims["compose-semantics"]["checked"] == 100
    assert claims["compose-semantics"]["failures"] > 0


def test_evaluation_without_its_denominator_fails_against_the_vectors(capsys, monkeypatch):
    # the structure is built honestly first; then every function value the claims read
    # off the objects, by the int evaluation birgroup.apply calls, drops the lines of
    # negative exponent, which the value vectors keep.  embed-homomorphism compares
    # object values with the vectors and nothing else
    theta.theta_structure(cli.Curve.make(13, 7, 0), 3)
    honest = ellcurve.TrackedFunction.value_at

    def numerator(fn, point):
        kept = tuple(atom for atom in fn.atoms if atom[2] > 0)  # (line, offset, exponent, base)
        return honest(ellcurve.TrackedFunction(fn.curve, fn.const, kept), point)

    monkeypatch.setattr(ellcurve.TrackedFunction, "value_at", numerator)
    code, report, _ = run_json(capsys, THETA_N3)
    assert code == 1
    failed = [id for id, c in claim_map(report).items() if c["status"] == "failed"]
    assert "embed-homomorphism" in failed
    assert set(failed) <= {"embed-homomorphism", "compose-semantics"}


def test_theta_verify_builds_each_point_once(capsys, monkeypatch):
    # a counter guard, not a timing: with every cache cold, the run builds each point
    # of its curve at most once, all on the one Curve instance main made
    built = []
    honest = ellcurve.CurvePoint.__init__
    monkeypatch.setattr(ellcurve.CurvePoint, "__init__",
                        lambda self, curve, x, y: built.append(curve) or honest(self, curve, x, y))
    monkeypatch.setattr(theta, "_STRUCTURES", {})
    for cached in (ellcurve.enumerate_points, ellcurve.torsion_subgroup,
                   ellcurve.miller_function):
        cached.cache_clear()
    code, report, _ = run_json(capsys, THETA_N3)
    assert code == 0 and all(c["status"] == "verified" for c in report["claims"])
    (curve,) = {id(c): c for c in built}.values()
    assert curve == cli.Curve.make(13, 7, 0) and curve.point_count() == 18
    assert len(curve._points) <= 18 and len(built) <= 18


def test_compose_semantics_builds_no_field_element(capsys, monkeypatch):
    # a counter guard, not a timing: with every cache cold, compose-semantics draws its
    # samples, composes the maps and applies them on ints, so no FpElement is built
    # between the embed-injective claim and its own
    built, at_claim = [0], {}
    honest_init, honest_add = ellcurve.FpElement.__init__, claims.RunReport._add

    def counted(self, p, value):
        built[0] += 1
        honest_init(self, p, value)

    def noted(self, claim):
        at_claim[claim.id] = built[0]
        return honest_add(self, claim)

    monkeypatch.setattr(ellcurve.FpElement, "__init__", counted)
    monkeypatch.setattr(claims.RunReport, "_add", noted)
    monkeypatch.setattr(theta, "_STRUCTURES", {})
    for cached in (ellcurve.enumerate_points, ellcurve.torsion_subgroup,
                   ellcurve.miller_function):
        cached.cache_clear()
    code, report, _ = run_json(capsys, THETA_N3)
    assert code == 0 and all(c["status"] == "verified" for c in report["claims"])
    assert report["claims"][-1]["checked"] == 100
    assert list(at_claim)[-2:] == ["embed-injective", "compose-semantics"]
    assert built[0] > 0  # the structure and the pairing still build some
    assert at_claim["compose-semantics"] - at_claim["embed-injective"] == 0


def test_wrong_miller_divisor_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(theta, "_STRUCTURES", {})
    honest = ellcurve.miller_function
    monkeypatch.setattr(theta, "miller_function", lambda n, x: honest(n, x) ** 2)
    assert main(THETA_N3) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: CertificateError: function divisor ")


def noncommuting_generator_pairs(curve, n):
    """Pairs (g, c) with g c != c g, for g in layer order and c = s(1, 0), s(0, 1), on
    the objects."""
    structure = theta.theta_structure(curve, n)
    layer = theta_enumerate_mu(curve, n)
    return [(g, layer[c]) for g in layer for c in generators(curve, n)
            if structure.to_heisenberg(theta_mul(g, layer[c]))
            != structure.to_heisenberg(theta_mul(layer[c], g))]


def transposed_label_law(monkeypatch):  # the opposite group: g * h is read as h * g
    honest = claims.label_product
    monkeypatch.setattr(claims, "label_product", lambda n, u, v: honest(n, v, u))


def test_wrong_heisenberg_product_fails_isomorphism(capsys, monkeypatch):
    transposed_label_law(monkeypatch)
    code, report, _ = run_json(capsys, THETA_N2)
    assert code == 1
    claims = claim_map(report)
    bad = noncommuting_generator_pairs(cli.Curve.make(7, 3, 0), 2)
    claim = claims["structure-isomorphism"]
    assert claim["status"] == "failed" and claim["failures"] == len(bad) > 0
    assert claim["checked"] == 8 ** 2
    assert claim["detail"] == ("labels checked on the generators, every pair by induction; "
                               "first counterexample (g, c) = ({!r}, {!r})".format(*bad[0]))
    assert claims["embed-homomorphism"]["status"] == "verified"
    assert claims["theta-group-axioms"]["status"] == "verified"


def test_theta_verify_uses_no_object_transport(capsys, monkeypatch):
    monkeypatch.setattr(theta.ThetaStructure, "to_heisenberg",
                        lambda self, g: pytest.fail("to_heisenberg called"))
    monkeypatch.setattr(HeisElement, "__mul__",
                        lambda self, other: pytest.fail("HeisElement.__mul__ called"))
    code, report, _ = run_json(capsys, THETA_N2)
    assert code == 0
    assert all(c["status"] == "verified" for c in report["claims"])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_theta_verify_builds_no_g1_table_and_one_vector_commutator(capsys, monkeypatch, n):
    for owner in (claims, heisenberg):
        monkeypatch.setattr(owner, "group_table", lambda group: pytest.fail("group_table called"))
    monkeypatch.setattr(theta, "_STRUCTURES", {})
    calls = []
    honest = theta.mu_commutator
    monkeypatch.setattr(theta, "mu_commutator",
                        lambda *args: calls.append(args) or honest(*args))
    code, report, _ = run_json(capsys, ["theta-verify", "--n", str(n)])
    assert code == 0
    assert all(c["status"] == "verified" for c in report["claims"])
    # one call, by MuTables on the vectors of A = s(1, 0) and B = s(0, 1)
    curve = theta.find_theta_curve(n)
    tables = theta.theta_structure(curve, n).tables
    assert calls == [(tables, tables.sections[1, 0], tables.sections[0, 1])]


def test_transposed_label_law_fails_the_derived_commutators(capsys, monkeypatch):
    transposed_label_law(monkeypatch)
    code, report, _ = run_json(capsys, THETA_N3)
    assert code == 1
    by_id = claim_map(report)
    assert by_id["structure-isomorphism"]["status"] == "failed"
    claim = by_id["commutator-matches-weil"]
    assert claim["status"] == "failed" and claim["failures"] == 1
    assert claim["checked"] == 3 ** 4
    assert claim["detail"] == "sigma = -1; premise failed: structure-isomorphism verified"
    # with the premise unmet no pair is compared, so a skewed Weil entry changes nothing
    honest = claims.weil_pairing_table

    def skewed(points, n, seed=0):
        table = honest(points, n, seed=seed)
        table[1][2] = (table[1][2] + 1) % n
        return table

    monkeypatch.setattr(claims, "weil_pairing_table", skewed)
    assert claim_map(run_json(capsys, THETA_N3)[1])["commutator-matches-weil"] == claim


def doctored_t_claims(capsys, monkeypatch, argv, power):
    """The failed claims of argv, run with t read as t^power while the tables are built."""
    monkeypatch.setattr(theta, "_STRUCTURES", {})
    honest = theta.mu_commutator
    monkeypatch.setattr(theta, "mu_commutator",
                        lambda tables, g, h: pow(honest(tables, g, h), power, tables.p))
    code, report, _ = run_json(capsys, argv)
    assert code == 1
    return {id: c for id, c in claim_map(report).items() if c["status"] != "verified"}


def test_wrong_vector_commutator_fails_its_premise(capsys, monkeypatch):
    # t^2 is the other primitive cube root: the layer is built on it, and its labels
    # miss the label law wherever a product by s(1, 0) passes s(0, 1)
    failed = doctored_t_claims(capsys, monkeypatch, THETA_N3, 2)
    assert list(failed) == ["structure-isomorphism", "commutator-matches-weil"]
    assert failed["structure-isomorphism"]["failures"] == 18
    assert failed["commutator-matches-weil"]["failures"] == 1
    assert failed["commutator-matches-weil"]["detail"] == (
        "sigma = 1; premise failed: structure-isomorphism verified")


def test_wrong_central_scalar_fails_its_premises(capsys, monkeypatch):
    failed = doctored_t_claims(capsys, monkeypatch, ["theta-verify", "--n", "4"], 3)
    assert list(failed) == ["structure-isomorphism", "commutator-matches-weil"]
    assert failed["structure-isomorphism"]["failures"] == 32
    claim = failed["commutator-matches-weil"]
    assert claim["failures"] == 1
    assert claim["detail"] == "sigma = 1; premise failed: structure-isomorphism verified"


def test_theta_verify_level4_runs_every_claim(capsys):
    code, report, _ = run_json(capsys, ["theta-verify", "--n", "4"])
    assert code == 0
    claims = claim_map(report)
    assert list(claims) == [
        "h-of-level-order", "mu-layer-closure", "transport-bijective", "structure-isomorphism",
        "theta-group-axioms", "commutator-matches-weil", "embed-homomorphism",
        "embed-injective", "compose-semantics",
    ]
    assert all(c["status"] == "verified" and c["failures"] == 0 for c in claims.values())
    assert claims["structure-isomorphism"]["checked"] == 64 ** 2
    assert claims["embed-homomorphism"]["checked"] == 64 ** 2
    assert claims["compose-semantics"]["checked"] >= 100


def test_theta_budget_fails_before_any_search(capsys, monkeypatch):
    monkeypatch.setattr(cli, "find_theta_curve", lambda *args: pytest.fail("curve searched"))
    monkeypatch.setattr(claims, "theta_structure", lambda *args: pytest.fail("structure built"))
    assert main(["theta-verify", "--n", "9"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: BudgetExceeded: level 9 exceeds the mu-layer budget 8\n"


def test_theta_max_budget_fails_before_any_row(capsys, monkeypatch):
    monkeypatch.setattr(cli, "find_theta_curve", lambda *args: pytest.fail("curve searched"))
    monkeypatch.setattr(cli, "min_abelian_index", lambda *args, **kw: pytest.fail("row built"))
    assert main(["nonjordan", "--theta-max", "9"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: BudgetExceeded: level 9 exceeds the mu-layer budget 8\n"


def test_wrong_composition_fails_embed_homomorphism(capsys, monkeypatch):
    # each map multiplies after translating, (s, t) -> (s + x, f(s + x) t)
    monkeypatch.setattr(birgroup, "theta_embed",
                        lambda g: birgroup.BirAuto(g.x, g.f.translate(g.x)))
    code, report, _ = run_json(capsys, THETA_N2)
    assert code == 1
    claims = claim_map(report)
    curve = cli.Curve.make(7, 3, 0)
    tables = theta.theta_structure(curve, 2).tables
    base = birgroup.SamplePoint(tables.others[0], 1)
    layer = theta_enumerate_mu(curve, 2)
    labels = theta.theta_structure(curve, 2).mu_labels()
    vectors = [tables.vector(*ijk) for ijk in labels]
    # the induction form: each element's image of base read from its vector, and the map
    # of each generator c applied after it
    moved = [birgroup.SamplePoint(tables.others[tables.shift[x][0]], values[0])
             for x, values in vectors]
    bad = [(layer[g], layer[c]) for g in range(len(layer)) for c in generators(curve, 2)
           if birgroup.apply(birgroup.theta_embed(layer[c]), moved[g])
           != moved[labels.index(tables.locate(mu_product(tables, vectors[g], vectors[c])))]]
    claim = claims["embed-homomorphism"]
    assert claim["status"] == "failed" and claim["failures"] == len(bad) > 0
    assert claim["checked"] == 8 ** 2
    assert claim["detail"] == (f"the action at ({base.x!r}, 1) checked on the generators, "
                               "every pair by induction; "
                               "first counterexample (g, c) = ({!r}, {!r})".format(*bad[0]))
    assert claims["structure-isomorphism"]["status"] == "verified"


def test_wrong_pairing_fails_commutator_check(capsys, monkeypatch):
    section = list(theta.theta_structure(cli.Curve.make(7, 3, 0), 2).section.values())
    g, h = section[1], section[2]
    table_of = claims.weil_pairing_table

    def skewed(points, n, seed=0):
        table = table_of(points, n, seed=seed)
        i, j = points.index(g.x), points.index(h.x)
        table[i][j] = (table[i][j] + 1) % n
        return table

    monkeypatch.setattr(claims, "weil_pairing_table", skewed)
    code, report, _ = run_json(capsys, THETA_N2)
    assert code == 1
    claim = claim_map(report)["commutator-matches-weil"]
    assert claim["status"] == "failed" and claim["failures"] == 1
    assert claim["detail"] == "sigma = -1; first counterexample (g, h) = ({!r}, {!r})".format(g, h)


def test_noncentral_commutator_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(theta, "_STRUCTURES", {})  # t is read while the tables are built
    monkeypatch.setattr(theta, "mu_inverse", lambda tables, g: g)  # g h g h: not over O
    assert main(["theta-verify", "--n", "3", "--p", "13", "--a", "7", "--b", "0"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    monkeypatch.undo()
    lifts = theta.theta_structure(cli.Curve.make(13, 7, 0), 3).lifts
    assert out.err.startswith("error: CertificateError: commutator of the lifts (A, B) = "
                              "({!r}, {!r}): commutator lies over ".format(*lifts))


def test_optimized_interpreter_gives_the_same_theta_claims():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for argv in (THETA_N2, THETA_N3):
        claims = []
        for flags in ([], ["-O"]):
            proc = subprocess.run([sys.executable, *flags, "-m", "jordanlab.cli", *argv],
                                  capture_output=True, text=True, env=env, check=True)
            claims.append(json.loads(proc.stdout)["claims"])
        assert claims[0] == claims[1]
        assert all(c["status"] == "verified" for c in claims[0])


@pytest.mark.parametrize("delta", [(2,), (3,), (4,), (2, 2), (5,), (6,), (4, 2)])
def test_isotropic_claim_counts_match_the_object_layer(delta):
    report = cli.run_abstract(delta, cli.ISOTROPIC_SCAN_CAP).to_dict()
    claim = claim_map(report)["isotropic-index-divisibility"]
    subgroups = all_h_subgroups(FinAbGroup(delta))
    isotropic = [s for s in subgroups if is_isotropic(s)]
    assert claim["status"] == "verified" and claim["failures"] == 0
    assert claim["checked"] == len(isotropic)
    assert claim["detail"] == f"{len(subgroups)} subgroups, {len(isotropic)} isotropic"


@pytest.mark.parametrize("delta,scanned", [("3,3", 1043), ("4,2", 1451)])
def test_abstract_verifies_every_claim_up_to_the_exhaustive_cap(capsys, delta, scanned):
    code, report, _ = run_json(capsys, ["abstract", "--delta", delta])
    assert code == 0
    claims = claim_map(report)
    assert list(claims) == [
        "pairing-bi-additive", "pairing-alternating", "pairing-nondegenerate",
        "isotropic-index-divisibility", "commutator-identity", "min-abelian-index",
    ]
    assert all(c["status"] == "verified" and c["failures"] == 0 for c in claims.values())
    assert claims["commutator-identity"]["checked"] == report["group_order"] ** 2
    assert claims["min-abelian-index"]["checked"] == scanned
    assert report["min_abelian_index"] == report["n"]
    assert report["witness"]["exhaustive"]


def test_abstract_fills_one_h_addition_table(monkeypatch):
    calls = Counter()
    for owner, name in ((HPoint, "__add__"), (KElement, "__add__"), (HeisElement, "__mul__"),
                        (HeisElement, "inverse"), (HeisElement, "project"), (finab, "pairing")):
        label = f"{owner.__name__}.{name}"
        monkeypatch.setattr(owner, name, lambda *args, honest=getattr(owner, name), label=label:
                            calls.update([label]) or honest(*args))
    for cached in (finab.k_tables, finab._h_group, heisenberg.group_table):
        cached.cache_clear()
    cli.run_abstract((4,), cli.ISOTROPIC_SCAN_CAP)
    # K's addition table is the only object arithmetic; H and G1 are built from it by formula
    assert calls == Counter({"KElement.__add__": 4 ** 2})


def test_abstract_finds_the_h_identity_once(monkeypatch):
    orders = []
    find = GroupTable._find_identity
    monkeypatch.setattr(GroupTable, "_find_identity",
                        lambda self: orders.append(self.order) or find(self))
    finab._h_group.cache_clear()
    cli.run_abstract((4,), cli.ISOTROPIC_SCAN_CAP)
    assert orders.count(16) == 1  # the cached table of H serves every claim


def test_exhaustive_budget_fails_before_any_row(capsys, monkeypatch):
    monkeypatch.setattr(cli, "min_abelian_index", lambda *args, **kw: pytest.fail("row built"))
    assert 11 ** 6 > finab.H_TABLE_BUDGET >= 10 ** 6
    assert main(["nonjordan", "--n-max", "11", "--exhaustive-max", "11"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: BudgetExceeded: #G1^2 = 1771561 table entries exceed "
                       f"H_TABLE_BUDGET {finab.H_TABLE_BUDGET}\n")


@pytest.mark.parametrize("argv", [["--n-max", "3", "--exhaustive-max", "11"],
                                  ["--n-max", "11", "--exhaustive-max", "10"],
                                  ["--n-max", "11", "--exhaustive-max", "0"]])
def test_exhaustive_budget_admits_the_sizes_it_builds(monkeypatch, argv):
    class RowStarted(Exception):
        pass

    def first_row(*args, **kw):
        raise RowStarted

    monkeypatch.setattr(cli, "min_abelian_index", first_row)
    with pytest.raises(RowStarted):
        main(["nonjordan", *argv])


def test_h_table_budget_refuses_before_filling(capsys, monkeypatch):
    monkeypatch.setattr(KElement, "__add__", lambda a, b: pytest.fail("K table filled"))
    assert 144 ** 4 > finab.H_TABLE_BUDGET
    assert main(["abstract", "--delta", "144"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: BudgetExceeded: #H^2 = 429981696 table entries exceed "
                       f"H_TABLE_BUDGET {finab.H_TABLE_BUDGET}\n")


def test_abstract_delta_32_runs_on_the_tables_in_seconds(capsys):
    start = time.perf_counter()
    code, report, _ = run_json(capsys, ["abstract", "--delta", "32"])
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert {c["id"]: c["status"] for c in report["claims"]} == {
        "pairing-bi-additive": "verified",
        "pairing-alternating": "verified",
        "pairing-nondegenerate": "verified",
        "isotropic-index-divisibility": "skipped-budget",
        "commutator-identity": "skipped-budget",
        "min-abelian-index": "skipped-budget",
    }
    assert claim_map(report)["pairing-nondegenerate"]["checked"] == 32 ** 2
    assert claim_map(report)["pairing-bi-additive"]["checked"] == 2 * 1024 ** 3


def test_trivial_pairing_fails_isotropic_claim(capsys, monkeypatch):
    honest = finab.k_tables
    monkeypatch.setattr(finab, "k_tables", lambda group: (  # every character value 0
        honest(group)[0], [[0] * group.order for _ in range(group.order)]))
    code, report, _ = run_json(capsys, ["abstract", "--delta", "4"])
    assert code == 1
    claim = claim_map(report)["isotropic-index-divisibility"]
    # every subgroup is isotropic for the trivial form, and only {0} has the right E_perp
    subgroups = all_h_subgroups(FinAbGroup((4,)))
    assert claim["status"] == "failed"
    assert claim["checked"] == len(subgroups) and claim["failures"] == len(subgroups) - 1 > 0
    first = next(s for s in subgroups if s.order > 1)
    assert claim["detail"] == (f"{len(subgroups)} subgroups, {len(subgroups)} isotropic; "
                               f"first counterexample E = <{first.elements[1]!r}> of order 2")


def set_loop_isotropic_claim(group, gram):
    """isotropic-index-divisibility as the set-based loop over the subgroups of H: E is
    isotropic when gram is 0 on E x E, and E^perp is the set of rows r with gram[r][a]
    == 0 for every a in E.  (status, checked, failures, detail) as the claim reports."""
    h, h_table, _ = finab.h_tables(group)
    n, m = group.order, len(h)
    subs = finab.h_subgroups(group)
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
    return "failed" if bad else "verified", len(iso), len(bad), detail


@pytest.mark.parametrize("delta,seed", [("4", 0), ("4", 1), ("2,2", 0), ("6", 0), ("6", 1)])
def test_isotropic_claim_on_a_one_sided_gram_matches_the_set_loop(capsys, monkeypatch, delta,
                                                                  seed):
    group = FinAbGroup(parse_delta(delta))
    h, h_table, honest = finab.h_tables(group)
    m = len(h)
    rng = random.Random(f"{delta}:{seed}")
    gram = [row[:] for row in honest]
    for r in rng.sample(range(1, m), m // 4):  # some rows read as trivial on a few columns
        for a in rng.sample(range(m), m // 2):
            gram[r][a] = 0
    assert any(gram[r][a] == 0 != gram[a][r] for r in range(m) for a in range(m))  # one-sided
    monkeypatch.setattr(claims, "h_tables", lambda group: (h, h_table, gram))
    code, report, _ = run_json(capsys, ["abstract", "--delta", delta])
    assert code == 1
    claim = claim_map(report)["isotropic-index-divisibility"]
    want = set_loop_isotropic_claim(group, gram)
    assert (claim["status"], claim["checked"], claim["failures"], claim["detail"]) == want
    assert want[2] > 0  # the doctored form breaks the claim


def test_product_table_without_identity_exits_1(capsys, monkeypatch):
    curve = cli.Curve.make(7, 3, 0)
    labels = theta.theta_structure(curve, 2).mu_labels()
    identity = labels.index((0, 0, 0))
    c = generators(curve, 2)[0]

    def doctored(tables, g, h):
        if (tables.locate(g), tables.locate(h)) == ((0, 0, 0), (1, 0, 0)):
            return mu_product(tables, h, h)  # the identity times c is c^2, as c c is
        return mu_product(tables, g, h)

    monkeypatch.setattr(claims, "mu_product", doctored)
    code, report, _ = run_json(capsys, THETA_N2)
    assert code == 1
    layer = theta_enumerate_mu(curve, 2)
    assert identity > c  # the identity lies over O, listed last, so its product repeats
    by_id = claim_map(report)
    claim = by_id["theta-group-axioms"]
    assert claim["status"] == "failed" and claim["failures"] == 1
    assert claim["checked"] == 8 ** 3
    assert claim["detail"] == (
        "associativity from the translation action, identity and inverses from the "
        "generators permuting the layer; "
        "first counterexample (g, c) = ({!r}, {!r})".format(layer[identity], layer[c]))
    # (t s) c = t (s c): the doctored product moves the whole fibre over O, t as well
    for id in ("structure-isomorphism", "embed-homomorphism"):
        assert by_id[id]["status"] == "failed" and by_id[id]["failures"] == 2
        assert by_id[id]["detail"].endswith(
            "first counterexample (g, c) = ({!r}, {!r})".format(layer[identity], layer[c]))


def broken_shift_row(tables):
    """tables.shift with the images in the row of the first point but O rotated by one."""
    shift = [list(row) for row in tables.shift]
    x = next(x for x in range(len(shift)) if x != tables.origin)
    shift[x] = shift[x][1:] + shift[x][:1]
    return shift


def test_broken_associativity_names_the_first_triple(capsys, monkeypatch):
    curve = cli.Curve.make(7, 3, 0)
    tables = theta.theta_structure(curve, 2).tables
    shift = broken_shift_row(tables)
    monkeypatch.setattr(tables, "shift", shift)
    assert main(THETA_N2) == 1
    out = capsys.readouterr()
    assert out.out == ""
    # the first (g, x, s), for the generators G then H (labels n and 1), where
    # translating by x, then g, is not translating by x + g
    points, others = tables.points, tables.others
    g, x, s = next((g, x, s) for g in (2, 1) for x in range(len(points))
                   for s in range(len(others))
                   if shift[g][shift[x][s]] != shift[tables.add[x][g]][s])
    assert out.err == (f"error: CertificateError: translation by (x, g) = ({points[x]!r}, "
                       f"{points[g]!r}) is not by x then by g at {others[s]!r}\n")


def test_unfaithful_translation_exits_1(capsys, monkeypatch):
    tables = theta.theta_structure(cli.Curve.make(7, 3, 0), 2).tables
    size = len(tables.others)
    # both compose as an action would: every point fixed, and every point sent to S[0]
    for rows in ([list(range(size))] * 4, [[0] * size] * 4):
        monkeypatch.setattr(tables, "shift", rows)
        assert main(THETA_N2) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("error: CertificateError: E[2] does not act faithfully on the "
                           "points off E[2]\n")


THETA_N3 = ["theta-verify", "--n", "3", "--p", "13", "--a", "7", "--b", "0"]


def test_label_sum_wrong_off_the_generator_columns_exits_1(capsys, monkeypatch):
    # add[4][4] lies outside the columns of the generators G and H, the only ones MuTables
    # checks against point addition; Light's criterion on G and H must catch it, at the
    # first (a, g) = (4, G) and b = 1, where a + (b + g) reads add[4][4]
    class Doctored(theta._Cosets):
        def __init__(self, curve, n):
            super().__init__(curve, n)
            assert [self.label[x] for x in self.generators] == [3, 1]
            self.add[4][4] = (self.add[4][4] + 1) % (n * n)

    monkeypatch.setattr(theta, "_Cosets", Doctored)
    monkeypatch.setattr(theta, "_STRUCTURES", {})
    assert main(THETA_N3) == 1
    out = capsys.readouterr()
    assert out.out == ""
    points = theta.theta_structure(cli.Curve.make(13, 7, 0), 3).tables.points
    assert out.err == (f"error: CertificateError: addition of E[3] is not associative at "
                       f"(a, g) = ({points[4]!r}, {points[3]!r}): (a + b) + g != a + (b + g) "
                       f"for b = {points[1]!r}\n")


@pytest.mark.parametrize("n", [2, 3])
def test_theta_verify_builds_no_full_object_layer(capsys, monkeypatch, n):
    argv = ["theta-verify", "--n", str(n)]
    _, honest, _ = run_json(capsys, argv)
    monkeypatch.setattr(theta.ThetaStructure, "mu_elements",
                        lambda self: pytest.fail("mu_elements called"))
    monkeypatch.setattr(theta, "_STRUCTURES", {})
    code, report, _ = run_json(capsys, argv)
    assert code == 0
    for record in (honest, report):
        del record["wall_time_s"], record["claim_wall_s"]
    assert report == honest


def test_corrupted_product_fails_at_the_first_generator_pair(capsys, monkeypatch):
    curve = cli.Curve.make(13, 7, 0)
    c = generators(curve, 3)[1]
    labels = theta.theta_structure(curve, 3).mu_labels()
    g = 3  # the section of the second point: s c becomes s' c for the section s' before it,
    # so c maps the two fibres alike

    def doctored(tables, a, b):
        if (tables.locate(a), tables.locate(b)) == (labels[g], labels[c]):
            a = tables.vector(*labels[0])
        return mu_product(tables, a, b)

    monkeypatch.setattr(claims, "mu_product", doctored)
    code, report, _ = run_json(capsys, THETA_N3)
    assert code == 1
    layer = theta_enumerate_mu(curve, 3)
    by_id = claim_map(report)
    # the three elements over the point fail; the permutation check fails once, at c
    for id, failures in (("structure-isomorphism", 3), ("theta-group-axioms", 1),
                         ("embed-homomorphism", 3)):
        claim = by_id[id]
        assert claim["status"] == "failed" and claim["failures"] == failures, id
        assert claim["detail"].endswith(
            "; first counterexample (g, c) = ({!r}, {!r})".format(layer[g], layer[c]))
    assert by_id["mu-layer-closure"]["status"] == "verified"


def test_generators_that_miss_part_of_the_layer_exit_1(capsys, monkeypatch):
    def doctored(tables, g, h):  # right multiplication by s(0, 1) fixes every element
        return g if tables.locate(h) == (0, 1, 0) else mu_product(tables, g, h)

    monkeypatch.setattr(claims, "mu_product", doctored)
    assert main(THETA_N3) == 1
    out = capsys.readouterr()
    assert out.out == ""
    # s(1, 0) has order 3: its powers, and s(0, 1) times them
    assert out.err == ("error: CertificateError: s(1, 0) and s(0, 1) generate 6 of the 27 "
                       "mu_3 layer elements\n")


def test_generator_checks_spare_the_pair_loop(capsys, monkeypatch):
    calls = 0

    def counted(tables, g, h):
        nonlocal calls
        calls += 1
        return mu_product(tables, g, h)

    monkeypatch.setattr(claims, "mu_product", counted)  # mu_commutator multiplies in theta
    code, report, _ = run_json(capsys, ["theta-verify", "--n", "4"])
    assert code == 0
    claim = claim_map(report)["theta-group-axioms"]
    assert claim["status"] == "verified" and claim["checked"] == 64 ** 3
    # two generator products per element, then one per compose-semantics sample
    assert calls <= 2 * 64 + 100 < 64 ** 2


def locate_as_now(monkeypatch, tables):
    """tables.locate on a copy of tables as they are now, whatever is doctored later.  Set
    in the instance dict, whose undo deletes the key: setattr's undo would write the bound
    method back there, and a later copy of tables would locate on these tables."""
    monkeypatch.setitem(vars(tables), "locate", functools.partial(theta.MuTables.locate,
                                                                  copy.copy(tables)))


def test_locate_as_now_leaves_no_locate_on_the_tables():
    tables = theta.theta_structure(cli.Curve.make(7, 3, 0), 2).tables
    with pytest.MonkeyPatch.context() as patch:
        locate_as_now(patch, tables)
        assert "locate" in vars(tables)
    assert "locate" not in vars(tables)


def powers_read_as(monkeypatch, tables, powers):
    """tables with t^k read as powers[k], so t^k s(i, j) is powers[k] s(i, j), while the
    products by the generators are still located on the honest powers."""
    locate_as_now(monkeypatch, tables)
    monkeypatch.setattr(tables, "t_pow", powers)


def test_equal_layer_vectors_fail_embed_injective(capsys, monkeypatch):
    curve = cli.Curve.make(7, 3, 0)
    tables = theta.theta_structure(curve, 2).tables
    powers_read_as(monkeypatch, tables, [1, 1])  # t read as 1: both scales of each point alike
    code, report, _ = run_json(capsys, THETA_N2)
    assert code == 1
    elements = theta_enumerate_mu(curve, 2)
    claims = claim_map(report)
    claim = claims["embed-injective"]
    assert claim["status"] == "failed" and claim["failures"] == 4  # one pair per point
    assert claim["detail"] == "first counterexample (g, h) = ({!r}, {!r})".format(*elements[:2])
    claim = claims["transport-bijective"]
    assert claim["status"] == "failed" and claim["failures"] == 8 - 4


def test_embed_injective_counts_equal_pairs_by_multiplicity(capsys, monkeypatch):
    curve = cli.Curve.make(13, 7, 0)
    tables = theta.theta_structure(curve, 3).tables
    powers_read_as(monkeypatch, tables, [1, 1, 1])  # the three scales of each point alike
    code, report, _ = run_json(capsys, THETA_N3)
    assert code == 1
    elements = theta_enumerate_mu(curve, 3)
    claims = claim_map(report)
    claim = claims["embed-injective"]
    # n^2 points with n elements each: n^3 (n - 1) / 2 pairs over one point
    assert claim["checked"] == 27 * 2 // 2
    # three equal pairs over each of the 9 points
    assert claim["status"] == "failed" and claim["failures"] == 9 * 3
    assert claim["detail"] == "first counterexample (g, h) = ({!r}, {!r})".format(*elements[:2])
    assert claims["transport-bijective"]["failures"] == 27 - 9


def test_transport_counts_a_section_equal_to_a_scaled_other(capsys, monkeypatch):
    # two sections over one point: s(1, 1) placed over O as t s(0, 0), so the two fibres
    # over O pair up, t^k s(1, 1) = t^(k + 1) s(0, 0): three equal pairs
    curve = cli.Curve.make(13, 7, 0)
    tables = theta.theta_structure(curve, 3).tables
    locate_as_now(monkeypatch, tables)
    monkeypatch.setattr(tables, "sections", {**tables.sections, (1, 1): tables.vector(0, 0, 1)})
    code, report, _ = run_json(capsys, THETA_N3)
    assert code == 1
    claims = claim_map(report)
    assert claims["transport-bijective"]["failures"] == 3
    assert claims["embed-injective"]["failures"] == 3


PAIR_CLAIMS = ("mu-layer-closure", "structure-isomorphism", "theta-group-axioms",
               "embed-homomorphism")


def per_pair_verdicts(curve, n):
    """The verdicts of the PAIR_CLAIMS by the exhaustive loop over every pair of the layer
    (every triple, for associativity): "exit 1" when a product leaves the layer."""
    structure = theta.theta_structure(curve, n)
    tables = structure.tables
    labels = structure.mu_labels()
    number = {ijk: e for e, ijk in enumerate(labels)}
    layer = [tables.vector(*ijk) for ijk in labels]
    r = range(len(layer))
    prod = [[number.get(tables.locate(claims.mu_product(tables, g, h))) for h in layer]
            for g in layer]
    if any(None in row for row in prod):
        return "exit 1"
    identity = [e for e in r if all(prod[e][g] == g == prod[g][e] for g in r)]
    group = bool(identity) and all(identity[0] in row for row in prod) and all(
        prod[prod[a][b]][c] == prod[a][prod[b][c]] for a in r for b in r for c in r)
    embedded = [birgroup.theta_embed(g) for g in structure.mu_elements()]
    base = birgroup.SamplePoint(tables.others[0], 1)
    moved = [birgroup.apply(e, base) for e in embedded]
    verdicts = [len(layer) == n ** 3,
                all(labels[prod[a][b]] == claims.label_product(n, labels[a], labels[b])
                    for a in r for b in r),
                group,
                all(birgroup.apply(embedded[b], moved[a]) == moved[prod[a][b]]
                    for a in r for b in r)]
    return {id: "verified" if ok else "failed" for id, ok in zip(PAIR_CLAIMS, verdicts)}


def generator_verdicts(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    if not out.out:
        return f"exit {code}"
    claims = claim_map(json.loads(out.out))
    return {id: claims[id]["status"] for id in PAIR_CLAIMS}


@pytest.mark.parametrize("n,curve", [(2, (7, 3, 0)), (3, (13, 7, 0)), (3, (19, 0, 5)),
                                     (3, (31, 1, 11)), (4, None)])
def test_generator_checks_match_the_pair_loop_on_honest_curves(capsys, n, curve):
    curve = theta.find_theta_curve(n) if curve is None else cli.Curve.make(*curve)
    argv = theta_argv(curve, n)
    verdicts = per_pair_verdicts(curve, n)
    assert verdicts == dict.fromkeys(PAIR_CLAIMS, "verified")
    assert generator_verdicts(capsys, argv) == verdicts


def doctor_shift(monkeypatch, tables):
    monkeypatch.setattr(tables, "shift", broken_shift_row(tables))


def doctor_g1(monkeypatch, tables):
    transposed_label_law(monkeypatch)


def doctor_embed(monkeypatch, tables):
    monkeypatch.setattr(birgroup, "theta_embed",
                        lambda g: birgroup.BirAuto(g.x, g.f.scale(2)))


def untranslated_product(tables, g, h):  # mu_product with T_x^* dropped
    return tables.add[g[0]][h[0]], tuple(u * v % tables.p for u, v in zip(g[1], h[1]))


def doctor_translation(monkeypatch, tables):
    monkeypatch.setattr(claims, "mu_product", untranslated_product)


def doctor_layer(monkeypatch, tables):  # s(1, 1) a copy of s(0, 0): two fibres alike
    locate_as_now(monkeypatch, tables)
    monkeypatch.setattr(tables, "sections", {**tables.sections, (1, 1): tables.sections[0, 0]})


def doctor_identity(monkeypatch, tables):
    monkeypatch.setattr(claims, "mu_product", lambda tables, g, h: mu_product(
        tables, *((h, h) if tables.locate(g) == (0, 0, 0) else (g, h))))


@pytest.mark.parametrize("doctor", [doctor_shift, doctor_g1, doctor_embed, doctor_translation,
                                    doctor_layer, doctor_identity])
@pytest.mark.parametrize("argv", [THETA_N2, THETA_N3])
def test_generator_checks_match_the_pair_loop_on_doctored_cases(capsys, monkeypatch,
                                                                doctor, argv):
    curve = cli.Curve.make(*map(int, argv[4::2]))
    n = int(argv[2])
    doctor(monkeypatch, theta.theta_structure(curve, n).tables)
    verdicts = per_pair_verdicts(curve, n)
    assert verdicts != dict.fromkeys(PAIR_CLAIMS, "verified")
    # a broken translation table or product stops both before any claim; every other
    # doctoring reaches the claims, and they must agree claim by claim
    assert (verdicts == "exit 1") == (doctor in (doctor_shift, doctor_translation))
    assert generator_verdicts(capsys, argv) == verdicts


@pytest.mark.parametrize("argv", [THETA_N2, THETA_N3])
def test_powers_of_t_read_wrong_fail_the_claims_that_read_vectors(capsys, monkeypatch, argv):
    # the generator table takes its k direction from (t^k s) c = t^k (s c), with the
    # element (i, j, k) t^k s(i, j) by construction: structure-isomorphism and
    # theta-group-axioms read labels only, so t read as 1 passes them, while the pair
    # loop, which multiplies the n^3 vectors, fails them.  Every claim that reads a
    # vector at k != 0 fails, so the run exits 1
    curve = cli.Curve.make(*map(int, argv[4::2]))
    n = int(argv[2])
    powers_read_as(monkeypatch, theta.theta_structure(curve, n).tables, [1] * n)
    assert per_pair_verdicts(curve, n) == {
        "mu-layer-closure": "verified", "structure-isomorphism": "failed",
        "theta-group-axioms": "failed", "embed-homomorphism": "failed"}
    code, report, _ = run_json(capsys, argv)
    assert code == 1
    assert [id for id, c in claim_map(report).items() if c["status"] == "failed"] == [
        "transport-bijective", "commutator-matches-weil", "embed-homomorphism",
        "embed-injective", "compose-semantics"]


def rebuilt_tables(monkeypatch, structure, **doctored):
    """structure.tables built again from the honest basis search's lifts, with the names
    in doctored replaced in theta while the lifts are rescaled and the tables built; the
    honest tables come back when the test ends."""
    cosets = theta._Cosets(structure.curve, structure.level)
    lifts = theta._liftable_basis(cosets)
    with monkeypatch.context() as patch:
        for name, value in doctored.items():
            patch.setattr(theta, name, value)
        tables = theta.MuTables(structure, cosets, *(theta._order_n_lift(*g)[1] for g in lifts))
    monkeypatch.setattr(structure, "tables", tables)
    return tables


def lift_doctoring(structure):  # one value of the vector of A doubled
    # once rescaled: the vector whose n-th power the basis search evaluates is left honest
    honest, lift = theta._order_n_lift, structure.lifts[0]

    def doctored(g, values, c):
        scaled, (x, f) = honest(g, values, c)
        if scaled == lift:
            f = (f[0] * 2 % structure.curve.p,) + f[1:]
        return scaled, (x, f)

    return {"_order_n_lift": doctored}


def translation_doctoring(structure):
    return {"mu_product": untranslated_product}


@pytest.mark.parametrize("doctoring", [lift_doctoring, translation_doctoring])
@pytest.mark.parametrize("n,curve", [(3, (13, 7, 0)), (4, None)])
def test_doctored_layer_trust_root_exits_1(capsys, monkeypatch, doctoring, n, curve):
    # the layer rests on the two lift vectors and on mu_product; with either doctored
    # while the tables are built, t is not read off the commutator of the lifts, so no
    # layer is built and the run exits 1 before any record.  The basis search multiplies
    # with mu_product too, so a doctored product stops the run earlier, at a lift power
    curve = theta.find_theta_curve(n) if curve is None else cli.Curve.make(*curve)
    structure = theta.theta_structure(curve, n)
    doctored = doctoring(structure)
    with pytest.raises(CertificateError) as exc:
        rebuilt_tables(monkeypatch, structure, **doctored)
    assert str(exc.value).startswith(
        "commutator of the lifts (A, B) = ({!r}, {!r}): ".format(*structure.lifts))
    monkeypatch.setattr(theta, "_STRUCTURES", {})  # built in the run, under the doctoring
    for name, value in doctored.items():
        monkeypatch.setattr(theta, name, value)
    if doctoring is translation_doctoring:
        with pytest.raises(CertificateError, match=f"the level-{n} power of the lift over ") as exc:
            theta.symplectic_basis(curve, n)
    assert main(theta_argv(curve, n)) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: CertificateError: {exc.value}\n"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_theta_verify_evaluates_each_tried_lift_once_and_applies_two_maps(capsys, monkeypatch, n):
    curve = theta.find_theta_curve(n)
    evaluated, applied, tried = [], [], []
    values, apply, lift_power = theta.function_values, birgroup.apply, theta._lift_power
    monkeypatch.setattr(theta, "function_values",
                        lambda fn, points: evaluated.append(fn) or values(fn, points))
    monkeypatch.setattr(theta, "_lift_power",
                        lambda cosets, x: tried.append(x) or lift_power(cosets, x))
    monkeypatch.setattr(birgroup, "apply", lambda a, s: applied.append(a) or apply(a, s))
    monkeypatch.setattr(theta, "_STRUCTURES", {})
    structure = theta.theta_structure(curve, n)
    # the basis search evaluates the Miller lift over each point it tries, once; A and B
    # are two of those lifts rescaled, and building the tables evaluates nothing more
    assert len(set(tried)) == len(tried) and set(structure.basis) <= set(tried)
    assert evaluated == [theta.theta_make(n, x).f for x in tried]
    assert not hasattr(structure.tables, "section")
    # A and B were certified when made; the run certifies no divisor
    monkeypatch.setattr(theta, "certify_divisor", lambda g: pytest.fail("certify_divisor called"))
    code, report, _ = run_json(capsys, theta_argv(curve, n))
    assert code == 0
    assert all(c["status"] == "verified" for c in report["claims"])
    assert len(evaluated) == len(tried)  # the run evaluates nothing more on S
    # embed-homomorphism applies the maps of the two generators, once per element each;
    # then compose-semantics applies at most three maps per sample it draws
    assert len({id(a) for a in applied[:2 * n ** 3]}) == 2
    semantics = claim_map(report)["compose-semantics"]
    drawn = semantics["checked"] + int(semantics["detail"].split()[0])
    assert 2 * n ** 3 < len(applied) <= 2 * n ** 3 + 3 * drawn


def test_hasse_violation_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(ellcurve, "_sqrt_table", lambda p: {})
    assert main(["curve-search", "--n", "2", "--p-max", "20"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: CertificateError: point count 1 violates the Hasse bound")


def test_orientation_disagreement_exits_1(capsys, monkeypatch):
    curve = cli.Curve.make(13, 7, 0)
    theta.theta_structure(curve, 3)  # built with the true pairing
    # t is a primitive cube root, so neither t nor t^-1 is the trivial value
    monkeypatch.setattr(theta, "weil_pairing", lambda p1, p2, n, seed=0: RootOfUnity(n, 0))
    assert main(["theta-verify", "--n", "3", "--p", "13", "--a", "7", "--b", "0"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: CertificateError: "
                       "commutator and pairing oracle disagree beyond orientation\n")


def test_package_checks_nothing_with_assert():
    # python -O strips assert statements, so no certificate may rest on one
    for path in sorted((SRC / "jordanlab").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} asserts on lines {lines}"


def test_package_imports_no_dataclasses():
    # each dataclass decoration execs its generated methods at import: plain slotted
    # classes keep that, and the import of dataclasses and inspect, off every CLI start
    for path in sorted((SRC / "jordanlab").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names]
        imported += [node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module]
        assert not [name for name in imported if name.split(".")[0] == "dataclasses"], path.name


def test_the_curve_layer_has_one_group_law():
    # the chord-tangent law runs inside Curve._add alone, and the int-tuple point kernel
    # that carried it a second time is gone
    retired = {"_affine_add", "_affine_mul", "_on_curve", "_function_values"}
    callers, defined = [], []

    def visit(node, scope, name):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
                if child.name in retired:
                    defined.append((name, child.name))
            elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
                if child.id in retired:
                    defined.append((name, child.id))
            elif isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", getattr(func, "attr", None)) == "_chord_tangent":
                    callers.append((name, ".".join(scope)))
            visit(child, inner, name)

    for path in sorted((SRC / "jordanlab").glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), (), path.name)
    assert callers == [("ellcurve.py", "Curve._add")]
    assert not defined


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # nor, through a whole run, argparse and the gettext and locale it imports
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import jordanlab.cli\n"
              "code = jordanlab.cli.main(['abstract', '--delta', '2'])\n"
              "print(code, sorted({'dataclasses', 'inspect', 'argparse', 'gettext', 'locale'}\n"
              "                   & (set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_cli_import_leaves_the_module_heap_out_of_later_collections():
    # gc.get_objects() lists the three collected generations, not the frozen one
    script = ("import gc\n"
              "import jordanlab.cli, jordanlab.ellcurve\n"
              "code = jordanlab.cli.main(['abstract', '--delta', '2'])\n"
              "young = {id(o) for o in gc.get_objects()}\n"
              "print(code, gc.get_freeze_count() > 0, id(jordanlab.cli.main) in young,\n"
              "      id(jordanlab.ellcurve.Curve.__dict__) in young)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    assert proc.stdout.splitlines()[-1] == "0 True False False"


def test_module_entry_point_exits_2_on_one_line_and_0_on_help():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "jordanlab.cli"], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("error: BadArgument: no subcommand; choose from abstract, "
                           "curve-search, theta-verify, nonjordan\n")
    proc = subprocess.run([sys.executable, "-m", "jordanlab.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("usage: jordanlab")


@pytest.mark.parametrize("argv", [["abstract", "--delta", "4"], THETA_N2,
                                  ["nonjordan", "--n-max", "2"]])
def test_claim_wall_s_times_each_claim_in_the_record_only(capsys, argv):
    code, report, err = run_json(capsys, argv)
    assert code == 0
    times = report["claim_wall_s"]
    assert list(times) == [c["id"] for c in report["claims"]]
    assert all(t >= 0 and round(t, 3) == t for t in times.values())
    # each is the time since the previous claim, or since the run started
    assert sum(times.values()) <= report["wall_time_s"] + 0.0005 * (len(times) + 1)
    assert all("wall_s" not in c for c in report["claims"])
    assert "claim_wall_s" not in err


def test_lap_restarts_the_clock_of_the_next_claim(monkeypatch):
    clock = iter([10.0, 10.5, 12.0, 12.25])
    monkeypatch.setattr(claims, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    report = claims.RunReport("nonjordan", {})
    assert report.lap() == 0.5
    report.claim("min-index-n1", True, 1)
    assert report.claims[0].wall_s == 1.5
    assert report.lap() == 0.25


def test_nonjordan_times_each_curve_search_apart(capsys, monkeypatch):
    honest = cli.find_theta_curve
    monkeypatch.setattr(cli, "find_theta_curve",
                        lambda n, p_max: time.sleep(0.05) or honest(n, p_max))
    code, report, _ = run_json(capsys, ["nonjordan", "--n-max", "3"])
    assert code == 0
    rows = report["rows"]
    assert "curve_wall_s" not in rows[0]
    assert rows[1]["curve_wall_s"] >= 0.05 and rows[2]["curve_wall_s"] >= 0.05
    # row 3's scan starts after row 2's search
    assert report["claim_wall_s"]["min-index-n3"] < 0.05
