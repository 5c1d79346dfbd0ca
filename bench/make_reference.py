"""Write bench/reference.json: every checked result of each workload at the
reference seed, the documented inputs.

    PYTHONPATH=src python3 bench/make_reference.py

The benchmark fails any result that later moves from these values by more
than its tolerance, so regenerate the file only with a change that is meant
to move the numbers, and record the drift.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads


def main() -> int:
    reference = {}
    for name, make in workloads.BATCHES.items():
        values = {}
        for item in make(workloads.REFERENCE_SEED):
            for r in item.check(item.call()):
                if not r.ok:
                    print(f"{item.label}: {r.key}: {r.why}", file=sys.stderr)
                    return 1
                values[r.key] = r.value
        reference[name] = values
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
