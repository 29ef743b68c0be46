"""Golden CLI transcripts: stdout and exit code of every command, on
explicit, generated and truncated rings, in json, table and dot format.

`data/cli_golden.json` lists each invocation with its recorded output.
Commands run in-process, from inside `tests/data`, so the ring, group,
restriction and sigma files there are named by relative path.  To
re-record after a deliberate output change, run this file as a script:
`PYTHONPATH=src python tests/test_cli_golden.py`.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from fusionrings import cli

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden.json"


def run_cli(args):
    """(exit code, stdout) of `fusionrings ARGS`, run through the real entry
    point with the working directory at `tests/data`."""
    saved_argv, saved_cwd = sys.argv, os.getcwd()
    sys.argv = ["fusionrings", *args]
    os.chdir(DATA)
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            try:
                cli._main()
                code = 0
            except SystemExit as exc:
                code = exc.code
        return code, stdout.getvalue()
    finally:
        sys.argv = saved_argv
        os.chdir(saved_cwd)


def _entries():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("entry", _entries(), ids=lambda e: " ".join(e["args"]))
def test_transcript(entry):
    code, stdout = run_cli(entry["args"])
    assert (code, stdout) == (entry["exit"], entry["stdout"])


def record():
    entries = [{"args": e["args"], **dict(zip(("exit", "stdout"), run_cli(e["args"])))}
               for e in _entries()]
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")


if __name__ == "__main__":
    record()
