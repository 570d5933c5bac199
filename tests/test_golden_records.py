"""Whole JSON records of fixed CLI runs, compared with tests/golden_records.json.

Timing is left out of both sides: wall_time_s, claim_wall_s and each row's
curve_wall_s.  Everything else (claim ids, statuses, checked, failures, details
and data keys) must match exactly.  To re-record after a deliberate change to a
record, run `python tests/test_golden_records.py` and review the diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from jordanlab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden_records.json"

COMMANDS = (
    [["theta-verify", "--n", str(n)] for n in range(1, 9)]
    + [["theta-verify", "--n", "3", "--p", "31", "--a", "15", "--b", "20", "--seed", seed]
       for seed in ("1", "2")]
    + [["abstract", "--delta", delta] for delta in ("2", "4", "2,2", "5", "6", "9")]
    + [["curve-search", "--n", n, "--p-max", p_max]
       for n, p_max in (("2", "40"), ("3", "50"), ("4", "60"))]
    + [["nonjordan", "--n-max", "4"]]
)


def untimed(record: dict) -> dict:
    """record without wall_time_s, claim_wall_s and the rows' curve_wall_s."""
    out = {k: v for k, v in record.items() if k not in ("wall_time_s", "claim_wall_s")}
    if "rows" in out:
        out["rows"] = [{k: v for k, v in row.items() if k != "curve_wall_s"}
                       for row in out["rows"]]
    return out


def run(argv: list[str], capsys) -> tuple[int, dict]:
    code = main(argv)
    return code, untimed(json.loads(capsys.readouterr().out))


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_record_matches_golden(argv, capsys):
    golden = {" ".join(entry["argv"]): entry for entry in json.loads(GOLDEN.read_text())}
    entry = golden[" ".join(argv)]
    code, record = run(argv, capsys)
    assert code == entry["exit"]
    assert record == entry["record"]


def test_golden_file_lists_exactly_the_commands():
    assert [entry["argv"] for entry in json.loads(GOLDEN.read_text())] == COMMANDS


if __name__ == "__main__":  # re-record
    entries = []
    for argv in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        entries.append({"argv": argv, "exit": code, "record": untimed(json.loads(out.getvalue()))})
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
