"""Bench records reproduced in-process: each must match its digest in perfbench/expected.json.

The benchmark checks these digests in fresh interpreters; this runs a subset of its
items through cli.main in the test process, so a change of a certified result
fails here first.  expected.json is read, never written.
"""

import contextlib
import importlib
import io
import json
import sys
from pathlib import Path

import pytest

from jordanlab.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("run")
    finally:
        sys.path.remove(str(PERFBENCH))


def items(bench) -> list[list[str]]:
    pool = bench.load_expected()["theta_pool"][:20]
    theta = [["theta-verify", "--n", "3", "--p", str(p), "--a", str(a), "--b", str(b)]
             for p, a, b in pool]
    return theta + [["nonjordan", "--n-max", "4"]] + bench.SMOKE


def test_records_match_their_bench_digests(bench):
    digests = bench.load_expected()["digests"]
    checked = 0
    for argv in items(bench):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        record = json.loads(out.getvalue())
        assert code == 0, argv
        assert bench.check_record(record, digests[bench.item_key(argv)]) is None, argv
        checked += 1
    assert checked == 24
