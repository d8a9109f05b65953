#!/usr/bin/env python3
"""Record the output references the benchmark checks every op against.

    python3 perfbench/record.py

For each workload and each of the ``generate.POOL`` input variants, runs one
op on the current code and stores its summary (exact values and hashes, plus
floats compared within ``workloads.REL_TOL``). Every run writes a fresh
``perfbench/references.json`` that replaces the old one whole. Re-record only
when a change is meant to alter the program's outputs, and say so where the
change is described.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    sys.path.insert(0, str(SRC))
    import generate
    import run
    import workloads

    doc = {
        "recorded_at": run.git_commit(),
        "src_sha256": run.source_digest(),
        "pool": generate.POOL,
        "workloads": {},
    }
    work_dir = run.RUNS / "record"
    for name in workloads.CLASSES:
        entries = {}
        for variant in range(generate.POOL):
            shutil.rmtree(work_dir, ignore_errors=True)
            workload = workloads.build(name, variant, work_dir, None, SRC)
            raw = workload.op(0)
            entries[str(variant)] = workload.summarise(raw)
            print(f"{name} variant {variant}: {len(entries[str(variant)]['exact'])} exact, "
                  f"{len(entries[str(variant)]['close'])} close", file=sys.stderr)
        doc["workloads"][name] = entries
    shutil.rmtree(work_dir, ignore_errors=True)
    run.REFERENCES.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
