#!/usr/bin/env python3
"""Self-test of the service benchmark's own checks.

    python3 svcbench/selftest.py

Runs three short `ingest` runs through svcbench/run.py and checks that
the benchmark judges each one correctly:

  * clean:    no fault injected  -> exit 0, correct, no failed operation;
  * checksum: one expected checksum is corrupted -> the run fails
              (non-zero exit, "correct": false, a MISMATCH line naming
              the first differing series);
  * refusal:  bosd is started with an append queue smaller than one
              batch, so it refuses every append -> the run fails
              (non-zero exit, "failed" > 0, refusals counted per
              operation type, no silent retries).

Exit status 0 when all three behave as described.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def run(fault):
    cmd = [sys.executable, str(RUN), "--workload", "ingest", "--seed", "1",
           "--seconds", "2", "--trace", "0", "--fault", fault]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p.returncode, result, p.stdout


def main():
    problems = []

    code, result, _ = run("none")
    if code != 0 or not result or not result["correct"] or result["failed"]:
        problems.append(f"clean run: exit {code}, result {result}")

    code, result, out = run("checksum")
    if code == 0 or not result or result["correct"] or "MISMATCH" not in out:
        problems.append(f"corrupted checksum was not caught: exit {code}, "
                        f"result {result}")

    code, result, out = run("refusal")
    if code == 0 or not result or result["failed"] == 0 or \
            "refused=0" in out.split("ops.append:")[1].splitlines()[0]:
        problems.append(f"forced refusal did not fail the run: exit {code}, "
                        f"result {result}")

    for p in problems:
        print(f"selftest FAILED: {p}")
    if not problems:
        print("selftest ok: clean run passes; corrupted checksum and forced "
              "refusal both fail the run")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
