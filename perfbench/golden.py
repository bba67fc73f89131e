"""Record the golden output digests of every seed-independent request.

    python3 perfbench/golden.py

Runs each such request of homology_sweep, bott_cross and complex_export
once and writes the sha256 of its stdout to ``perfbench/golden.json``.
Only rerun it when an output is meant to change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    digests = {}
    for name in ("homology_sweep", "bott_cross", "complex_export"):
        for req in workloads.build_requests(name, 0):
            if not req.seeded:
                digests[req.key] = workloads.digest(workloads.run_cli(req.payload))
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({"format": "perfbench.golden/1", "digests": dict(sorted(digests.items()))},
                  fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
