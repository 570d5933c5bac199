"""The human text of fixed CLI runs, compared with tests/golden_text.json.

A JSON run prints its record to stdout and the text table to stderr; a
`--format table` run prints the table to stdout and nothing to stderr.  The one
timed line, `  wall time 0.00s  -> OK`, has its seconds masked on both sides;
every other byte must match.  To re-record after a deliberate change to the
text, run `python tests/test_golden_text.py` and review the diff.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from jordanlab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden_text.json"

# (argv, the stream that carries the text)
COMMANDS = (
    (["curve-search", "--n", "2", "--p-max", "20"], "stderr"),
    (["nonjordan", "--n-max", "4"], "stderr"),
    (["theta-verify", "--n", "3", "--p", "13", "--a", "7", "--b", "0"], "stderr"),
    (["--format", "table", "nonjordan", "--n-max", "4"], "stdout"),
)

WALL_TIME = re.compile(r"^  wall time \d+\.\d\ds  ", re.MULTILINE)


def masked(text: str) -> str:
    return WALL_TIME.sub("  wall time *s  ", text)


def run(argv: list[str]) -> tuple[int, dict[str, str]]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, {"stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("argv, stream", COMMANDS, ids=[" ".join(argv) for argv, _ in COMMANDS])
def test_text_matches_golden(argv, stream):
    golden = {" ".join(entry["argv"]): entry for entry in json.loads(GOLDEN.read_text())}
    entry = golden[" ".join(argv)]
    code, streams = run(argv)
    assert code == entry["exit"]
    assert entry["stream"] == stream
    assert len(WALL_TIME.findall(streams[stream])) == 1  # the mask hides one line's seconds
    assert masked(streams[stream]) == entry["text"]
    if stream == "stdout":  # a table run writes nothing else
        assert streams["stderr"] == ""


def test_golden_file_lists_exactly_the_commands():
    assert [(entry["argv"], entry["stream"]) for entry in json.loads(GOLDEN.read_text())] == [
        (argv, stream) for argv, stream in COMMANDS]


if __name__ == "__main__":  # re-record
    entries = []
    for argv, stream in COMMANDS:
        code, streams = run(argv)
        entries.append({"argv": argv, "stream": stream, "exit": code,
                        "text": masked(streams[stream])})
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
