"""CLI subcommands: report schema, exit codes, output routing."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from jordanlab import cli, theta
from jordanlab.cli import main
from jordanlab.finab import FinAbGroup, pairing
from jordanlab.gtable import GroupTable
from jordanlab.heisenberg import HeisElement, elements
from jordanlab.scalars import RootOfUnity
from jordanlab.theta import theta_enumerate_mu, theta_mul

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


def test_abstract_bad_delta():
    assert main(["abstract", "--delta", "2,3"]) == 2


def test_curve_search(capsys):
    code, report, _ = run_json(capsys, ["curve-search", "--n", "2", "--p-max", "5"])
    assert code == 0
    rows = report["rows"]
    assert {(r["p"], r["a"], r["b"]) for r in rows} == {(5, 1, 0), (5, 4, 0)}
    code, report, _ = run_json(capsys, ["curve-search", "--n", "2", "--p-max", "2"])
    assert code == 0 and report["rows"] == []


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


@pytest.mark.parametrize("argv,message", [
    (["curve-search", "--n", "1"], "--n must be at least 2"),
    (["theta-verify", "--n", "3", "--p", "31"], "--p requires --a and --b"),
    (["theta-verify", "--n", "3", "--p", "4", "--a", "1", "--b", "1"], "not prime"),
    (["theta-verify", "--n", "0"], "--n must be at least 1"),
    (["theta-verify", "--n", "-2"], "--n must be at least 1"),
    (["nonjordan", "--n-max", "0"], "--n-max must be at least 1"),
])
def test_input_errors_exit_2(capsys, argv, message):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: BadArgument:") and message in out.err
    assert len(out.err.splitlines()) == 1


def claim_map(report):
    return {c["id"]: c for c in report["claims"]}


def test_skewed_pairing_fails_bi_additivity(capsys, monkeypatch):
    h = FinAbGroup((4,)).h_elements()
    bad_pair = (h[5], h[6])

    def skewed(a, b):
        value = pairing(a, b)
        return value * RootOfUnity(value.modulus, 1) if (a, b) == bad_pair else value

    monkeypatch.setattr(cli, "pairing", skewed)
    code, report, _ = run_json(capsys, ["abstract", "--delta", "4"])
    assert code == 1
    claim = claim_map(report)["pairing-bi-additive"]
    assert claim["status"] == "failed" and claim["failures"] > 0
    # the first bad triple in (a, b, c) order, found on the objects
    first = next(t for t in itertools.product(h, repeat=3)
                 if skewed(t[0] + t[1], t[2]) != skewed(t[0], t[2]) * skewed(t[1], t[2])
                 or skewed(t[0], t[1] + t[2]) != skewed(t[0], t[1]) * skewed(t[0], t[2]))
    assert claim["detail"] == "first counterexample (a, b, c) = ({!r}, {!r}, {!r})".format(*first)
    assert claim_map(report)["commutator-identity"]["status"] == "failed"


def test_doctored_inverse_fails_commutator_identity(capsys, monkeypatch):
    monkeypatch.setattr(HeisElement, "inverse", lambda self: self)  # g h g h: not central
    code, report, _ = run_json(capsys, ["abstract", "--delta", "4"])
    assert code == 1
    claims = claim_map(report)
    assert claims["pairing-bi-additive"]["status"] == "verified"
    claim = claims["commutator-identity"]
    assert claim["status"] == "failed" and claim["failures"] > 0
    group = FinAbGroup((4,))
    first = next((g, h) for g, h in itertools.product(elements(group), repeat=2)
                 if g * h * g * h != HeisElement(pairing(g.project(), h.project()),
                                                 group.zero(), group.trivial_character()))
    assert claim["detail"] == "first counterexample (g, h) = ({!r}, {!r})".format(*first)


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


def test_theta_verify_multiplies_each_pair_once(capsys, monkeypatch):
    calls = 0

    def counted(g, h):
        nonlocal calls
        calls += 1
        return theta_mul(g, h)

    monkeypatch.setattr(cli, "theta_mul", counted)
    code, report, _ = run_json(capsys, THETA_N2)
    assert code == 0
    assert calls == 8 ** 2  # one product per pair of the mu layer
    # with the structure built, listing the layer multiplies nothing
    monkeypatch.setattr(theta, "theta_mul", lambda g, h: pytest.fail("theta_mul called"))
    assert len(theta_enumerate_mu(cli.Curve.make(7, 3, 0), 2)) == 8


def test_escaping_product_exits_1(capsys, monkeypatch):
    calls = []

    def doctored(g, h):
        calls.append((g, h))
        gh = theta_mul(g, h)
        return gh.scaled(3) if len(calls) == 5 else gh  # 3 has order 6 in F_7^*, not in mu_2

    monkeypatch.setattr(cli, "theta_mul", doctored)
    assert main(THETA_N2) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: CertificateError:")
    assert "({!r}, {!r})".format(*calls[4]) in out.err
