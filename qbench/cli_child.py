"""Traced CLI process: installs the benchmark's wrappers, then runs the
command line exactly as `python -m fusionrings.cli` would.

Usage: python qbench/cli_child.py SPANS_FILE ARGS...

Run from the repository root with `src` on PYTHONPATH.  The environment
variable QBENCH_SPAWNED holds the parent's time.time() at spawn, so that
the time from spawn to the entry of `_main` (interpreter start, imports,
wrapper installation) is reported as cli.startup_s.  The phase aggregates
and spans are written to SPANS_FILE as JSON when the command ends, however
it ends.
"""

import json
import os
import sys
import time


def main():
    spans_file, argv = sys.argv[1], sys.argv[2:]
    import fusionrings
    import fusionrings.cli

    import tracer

    tr = tracer.install(fusionrings)
    sys.argv = ["fusionrings", *argv]
    startup = time.time() - float(os.environ["QBENCH_SPAWNED"])
    tr.enabled = True
    try:
        fusionrings.cli._main()
    finally:
        tr.enabled = False
        phase = tr.take()
        phase["samples"] = {"cli.startup_s": [startup]}
        with open(spans_file, "w") as fh:
            json.dump(phase, fh)


if __name__ == "__main__":
    main()
