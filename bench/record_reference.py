#!/usr/bin/env python3
"""Record the outputs of every fixed-input task into reference.json.

    python3 bench/record_reference.py

The output checks compare each run against these values, so re-record
only when a change is meant to move a recorded value, and say so in the
change.  Seeded tasks are not recorded: they are checked by a second route.
"""

from __future__ import annotations

import json
import sys
import time

import clicmds
import run


def main() -> int:
    deadline = time.monotonic() + 600.0
    reference = {}
    for wl in ("scan-ring", "paper-bounds"):
        reference[wl] = {}
        for scale in ("full", "small"):
            args = ["rep", wl, "--seed", "1"] + ["--small"] * (scale == "small")
            rep, _ = run.worker(args, deadline)
            if rep["failures"]:
                print(f"{wl} {scale}: {rep['failures']}", file=sys.stderr)
                return 1
            reference[wl][scale] = {
                k: v for k, v in rep["outputs"].items() if k not in rep["seeded"]
            }
    cli = run.cli_rep(1, deadline)
    if cli.failures:
        print(f"cli-readme: {cli.failures}", file=sys.stderr)
        return 1
    reference["cli-readme"] = {
        "full": {k: v for k, v in cli.outputs.items() if k not in clicmds.SEEDED}
    }
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
