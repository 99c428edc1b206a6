"""Regenerate ``reference.json``: the per-unit output digests of every
seeded workload for every seed slot.

    python3 perfbench/make_reference.py

Run it only when a change is meant to move simulator outputs, and say
why in the change; a digest that moves otherwise is a failed unit.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import REFERENCE_PATH, SEED_SLOTS, WORKLOADS  # noqa: E402


def main() -> int:
    reference = {}
    for name, cls in WORKLOADS.items():
        if not cls.seed_applies:
            continue
        reference[name] = {}
        for slot in range(SEED_SLOTS):
            workload = cls(slot, os.path.join(ROOT, ".perfbench", "ref"))
            reference[name][str(slot)] = {
                unit.name: workload.digest(unit.run(0))
                for unit in workload.units
            }
            workload.close()
            print(f"{name} slot {slot}: {len(workload.units)} units",
                  flush=True)
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
