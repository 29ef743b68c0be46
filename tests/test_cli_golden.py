"""Golden CLI transcripts: the one place that pins exact CLI behaviour.

`data/cli_golden.json` lists each invocation of `fusionrings` with its
recorded exit code, stdout and stderr.  An entry's keys are `args`,
`exit`, `stderr`, one of `stdout` or `stdout_sha256`, and an optional
`env` that sets variables of `ENV` for the run; the recorder keeps
stdout whole up to `HASHED` bytes and its sha256 above.  No two entries
share both `args` and `env`.  Every command runs from inside
`tests/data`, so the ring, group, restriction and sigma files there are
named by relative path, and with `COLUMNS` at 80, so that `--help` wraps
the same way in a terminal and in a pipe.

Two runners replay the file with the same comparison, `transcript`:
pytest runs each command in-process through the real entry point,
`run_cli`, and `python tests/test_cli_golden.py --replay fusionrings`
runs each through the installed console script, one process per
command, within `TIMEOUT` seconds.  To add a CLI check, append an entry
with its `args` (and `env`) and re-record; to re-record after a
deliberate output change, run this file as a script:
`PYTHONPATH=src python tests/test_cli_golden.py`.

`run_cli` is also how the other tests run the CLI.  `run_fresh` starts a
new interpreter for the few checks that only a fresh process can show.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest

from fusionrings import cli

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden.json"
HASHED = 64 * 1024  # bytes of stdout above which a transcript keeps its sha256
ENV = {"FUSIONRING_SEARCH_BUDGET"}  # the variables a transcript may set
TIMEOUT = 20  # seconds a command in a fresh process may take
# the PYTHONPATH of a fresh interpreter: this checkout's `fusionrings` first
FRESH_PATH = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                           os.environ.get("PYTHONPATH")]))


def transcript(entry, code, stdout, stderr):
    """The golden entry of one run of `entry`'s args and env."""
    out = stdout.encode()
    return {"args": entry["args"], **({"env": entry["env"]} if "env" in entry else {}),
            "exit": code,
            **({"stdout": stdout} if len(out) <= HASHED
               else {"stdout_sha256": hashlib.sha256(out).hexdigest()}),
            "stderr": stderr}


def _environ(env):
    """The process environment with the variables `env` sets, no other of
    `ENV`, and `COLUMNS` at 80, the width argparse wraps `--help` to."""
    return {k: v for k, v in os.environ.items() if k not in ENV} | {"COLUMNS": "80"} | (env or {})


def run_cli(args, env=None):
    """(exit code, stdout, stderr) of `fusionrings ARGS` with `env` set, run
    in-process through the real entry point with the working directory at
    `tests/data`."""
    saved_argv, saved_cwd = sys.argv, os.getcwd()
    sys.argv = ["fusionrings", *args]
    os.chdir(DATA)
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with mock.patch.dict(os.environ, _environ(env), clear=True), \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                cli._main()
                code = 0
            except SystemExit as exc:
                code = exc.code
        return code, stdout.getvalue(), stderr.getvalue()
    finally:
        sys.argv = saved_argv
        os.chdir(saved_cwd)


def run_fresh(args, env=None, cwd=DATA):
    """(exit code, stdout, stderr) of `python ARGS` in a new interpreter that
    imports this checkout's `fusionrings`, run from `cwd` with `env` set,
    within `TIMEOUT` seconds.  Only what a run in-process cannot show runs
    this way: output under several PYTHONHASHSEEDs, the modules a fresh
    `fusionrings.cli` imports, and paths resolved from another working
    directory."""
    run = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                         env=_environ(env) | {"PYTHONPATH": FRESH_PATH}, timeout=TIMEOUT)
    return run.returncode, run.stdout, run.stderr


def replay(command, entries):
    """Run each entry through `command`, a console script and any leading
    arguments, one process per entry, from `tests/data`; print one line per
    entry and return the number that differ from their transcript or time out."""
    failed = 0
    for entry in entries:
        start = time.perf_counter()
        try:
            run = subprocess.run([*command, *entry["args"]], cwd=DATA,
                                 env=_environ(entry.get("env")), capture_output=True,
                                 text=True, timeout=TIMEOUT)
            got = transcript(entry, run.returncode, run.stdout, run.stderr)
        except subprocess.TimeoutExpired:
            got = {"timeout": TIMEOUT}
        ok = got == entry
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {time.perf_counter() - start:5.2f} s  "
              f"{' '.join(entry['args'])}")
        if not ok:
            for key in sorted(set(got) | set(entry)):
                if got.get(key) != entry.get(key):
                    print(f"  {key}: expected {entry.get(key)!r}\n"
                          f"  {key}: got      {got.get(key)!r}")
    return failed


def record():
    entries = [transcript(e, *run_cli(e["args"], e.get("env"))) for e in _entries()]
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")


def _entries():
    return json.loads(GOLDEN.read_text())


def _name(entry):
    """An entry as a shell line: its env, then its args."""
    return " ".join([*(f"{k}={v}" for k, v in entry.get("env", {}).items()), *entry["args"]])


def test_every_transcript_has_the_recorded_shape():
    # a misspelled key would otherwise skip a comparison
    for entry in _entries():
        assert set(entry) - {"env"} in ({"args", "exit", "stdout", "stderr"},
                                        {"args", "exit", "stdout_sha256", "stderr"}), entry
        assert set(entry.get("env", ())) <= ENV, entry


def test_no_two_transcripts_share_args_and_env():
    runs = [json.dumps([entry["args"], entry.get("env")]) for entry in _entries()]
    assert sorted({run for run in runs if runs.count(run) > 1}) == []


@pytest.mark.parametrize("entry", _entries(), ids=_name)
def test_transcript(entry):
    assert transcript(entry, *run_cli(entry["args"], entry.get("env"))) == entry


@pytest.mark.parametrize("edit, failed", [
    (lambda entry: entry, 0), (lambda entry: {**entry, "stderr": "edited"}, 3)],
    ids=["recorded", "edited"])
def test_replay_compares_runs_of_the_console_script(monkeypatch, edit, failed):
    # the runner CI points at the installed script: one transcript with an
    # env, one kept as a sha256 and one with stderr, each in a fresh process
    wanted = ["FUSIONRING_SEARCH_BUDGET=abc automorphisms --catalog klein",
              "center --catalog au --depth 9", "product --catalog su2 V1 X3"]
    entries = [edit(entry) for entry in _entries() if _name(entry) in wanted]
    assert len(entries) == len(wanted)
    monkeypatch.setenv("PYTHONPATH", FRESH_PATH)
    assert replay([sys.executable, "-m", "fusionrings.cli"], entries) == failed


if __name__ == "__main__":
    if sys.argv[1:2] == ["--replay"]:
        sys.exit(replay(sys.argv[2:], _entries()) > 0)
    record()
