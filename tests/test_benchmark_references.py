"""The benchmark's recorded outputs, checked in the test suite.

``perfbench/references.json`` holds the expected summary of each workload's op
for each of its input variants. The segment-long op runs the segmentation DP
(explicit k and BIC selection), the trend-model fit and the classification on
three 1200-month gaps, so its 32 variants guard every decision of the DP at the
benchmark's shape. This module only imports the benchmark's files.
"""

import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_segment_long_matches_every_reference_variant(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import generate
    import workloads

    references = json.loads((PERFBENCH / "references.json").read_text(encoding="utf-8"))
    recorded = references["workloads"]["segment-long"]
    assert sorted(map(int, recorded)) == list(range(generate.POOL))
    for variant in range(generate.POOL):
        workload = workloads.SegmentLong(variant, recorded[str(variant)])
        assert workload.check(workload.op(0)) == [], f"variant {variant}"
