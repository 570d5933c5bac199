"""The claims functions called directly, with no argv, and the E[n] certificate."""

import ast
import copy
import itertools
import json
from pathlib import Path

import pytest

from jordanlab import cli, theta
from jordanlab.claims import RunReport, abstract_claims, check_translations, theta_claims
from jordanlab.ellcurve import Curve
from jordanlab.errors import CertificateError
from jordanlab.finab import FinAbGroup
from test_golden_records import GOLDEN, untimed

SRC = Path(__file__).resolve().parent.parent / "src" / "jordanlab"

GOLDEN_ENTRIES = [entry for entry in json.loads(GOLDEN.read_text())
                  if entry["argv"][0] in ("abstract", "theta-verify")]


@pytest.mark.parametrize("entry", GOLDEN_ENTRIES, ids=lambda entry: " ".join(entry["argv"]))
def test_claims_functions_give_the_golden_records(entry):
    record = entry["record"]
    params = record["params"]
    report = RunReport(record["command"], params)
    if record["command"] == "abstract":
        abstract_claims(report, FinAbGroup(params["delta"]), params["budget"])
    else:
        curve = Curve.make(params["p"], params["a"], params["b"]) if "p" in params else None
        theta_claims(report, curve, params["n"], params["seed"])
    assert untimed(report.to_dict()) == record


def test_theta_claims_verify_on_the_curves_nonjordan_picks():
    rows = cli.run_nonjordan(4, 2000, 4, 4, 0).data["rows"]
    picked = [(row["n"], Curve.make(row["p"], row["a"], row["b"])) for row in rows if row["n"] >= 2]
    assert [n for n, _ in picked] == [2, 3, 4]
    for n, curve in picked:
        report = RunReport("theta-verify", {"n": n})
        theta_claims(report, curve, n, 0)
        assert len(report.claims) == 9
        assert all(c.status == "verified" for c in report.claims), (n, curve)


def imported_names(path: Path) -> set[str]:
    """Every module and name that path imports, relative imports by their last part."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
            if node.module:
                names.add(node.module.rsplit(".", 1)[-1])
    return names


def test_claims_module_stands_apart_from_cli():
    assert "cli" not in imported_names(SRC / "claims.py")
    table_internals = {"mu_product", "label_product", "label_commutator", "weil_pairing_table",
                       "group_table", "h_tables", "reach", "RootOfUnity"}
    assert not imported_names(SRC / "cli.py") & table_internals


# ---------------------------------------------------------------------------
# the E[n] certificate against the all-pairs loop it replaces


def all_pairs_verdict(tables) -> bool:
    """Whether the label tables act as E[n] does, by every pair: T_(x+y) = T_y T_x on S
    for all x, y (n^4 |S| lookups), translation by O the identity, and distinct points
    translating S differently."""
    shift, add = tables.shift, tables.add
    law = all(shift[y][v] == shift[add[x][y]][s]
              for x, y in itertools.product(range(len(shift)), repeat=2)
              for s, v in enumerate(shift[x]))
    return (law and shift[tables.origin] == list(range(len(tables.others)))
            and len(set(map(tuple, shift))) == len(shift))


def certificate_verdict(tables, n: int) -> bool:
    try:
        check_translations(tables, n)
    except CertificateError:
        return False
    return True


def doctored(tables, **rows):
    """A copy of tables with the named tables replaced; the cached structure is left as it is."""
    out = copy.copy(tables)
    for name, value in rows.items():
        setattr(out, name, value)
    return out


def shift_row_permuted(tables, x):  # the images in row x rotated by one
    shift = [list(row) for row in tables.shift]
    shift[x] = shift[x][1:] + shift[x][:1]
    return doctored(tables, shift=shift)


def add_row_transposed(tables, x):  # x + O and x + (-G - H) swapped, neither a generator column
    add = [list(row) for row in tables.add]
    add[x][0], add[x][-1] = add[x][-1], add[x][0]
    return doctored(tables, add=add)


def coset_rows_rotated(tables, x):  # the rows over x + <G> rotated alike: G's law holds
    n = len(tables.t_pow)
    shift = [list(row) for row in tables.shift]
    for y in range(x % n, n * n, n):  # labels a*n + b, b that of x
        shift[y] = shift[y][1:] + shift[y][:1]
    return doctored(tables, shift=shift)


@pytest.mark.parametrize("n", range(2, 9))
def test_generator_certificate_matches_the_all_pairs_loop_on_honest_curves(n):
    tables = theta.theta_structure(theta.find_theta_curve(n), n).tables
    assert all_pairs_verdict(tables)
    assert certificate_verdict(tables, n)


# at n = 2 the rows over H + <G> rotated alike still compose as an action: neither
# check sees that fault there
@pytest.mark.parametrize("fault,n", [(fault, n) for fault in (shift_row_permuted, add_row_transposed)
                                     for n in (2, 3, 4)]
                         + [(coset_rows_rotated, 3), (coset_rows_rotated, 4)])
def test_generator_certificate_matches_the_all_pairs_loop_on_each_faulty_row(fault, n):
    tables = theta.theta_structure(theta.find_theta_curve(n), n).tables
    for x in range(n * n):
        faulty = fault(tables, x)
        assert not all_pairs_verdict(faulty), x
        assert not certificate_verdict(faulty, n), x
