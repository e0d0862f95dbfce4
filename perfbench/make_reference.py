"""Write regions_reference.json: the winner of every lattice point for each
regions command of the workloads, as computed by the checked-out program.

    python3 perfbench/make_reference.py

Run it only on a commit whose winners are known to be right; the stored
grid is what later commits must reproduce label for label, "tie" included.
"""

from __future__ import annotations

import json
import subprocess
import sys

import checks
import run

CODES = {"t1:1": "1", "t3": "3", "polytomy": "p", "unconstrained": "u", "tie": "=", "error": "!"}


def regions_commands() -> list[list[str]]:
    return [c for w in run.load_workloads().values() for c in w["commands"] if c[0] == "regions"]


def main() -> int:
    reference = {}
    for command in regions_commands():
        proc = subprocess.run([sys.executable, "-m", "aicg.cli", *command], env=run.child_env(),
                              cwd=run.ROOT, capture_output=True, check=True)
        _, rows = checks.table(proc.stdout.decode("utf-8"))
        reference[checks.arg(command, "--pair")] = {
            "n": int(checks.arg(command, "--n")),
            "resolution": int(checks.arg(command, "--resolution")),
            "codes": CODES,
            "winners": "".join(CODES[row[3]] for row in rows),
        }
    checks.REGIONS_REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
