"""Every committed BENCH_*.json carries the numbers a performance claim needs.

A benchmark record names the workload it claims a gain on, the parent
commit it was measured against, the claimed end-to-end metric, how it was
measured and on what machine, and for each workload run the number of
parent/change pairs, whether every run was correct, how many operations
failed, and the parent and change medians of each metric.  The workload and
metric names come from BENCHMARK.json.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_are_benchmark_records():
    assert RECORDS


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_benchmark_record_schema(path):
    rec = json.loads(path.read_text())
    assert rec["label"] in WORKLOADS
    assert path.name == f"BENCH_{rec['label']}.json"
    assert re.fullmatch(r"[0-9a-f]{7,40}", rec["parent_commit"])
    claimed = rec["claimed"]
    assert claimed["workload"] in WORKLOADS
    assert claimed["metric"] in END_TO_END
    assert rec["method"] and rec["machine"]
    results = rec["results"]
    assert claimed["workload"] in results
    assert claimed["metric"] in results[claimed["workload"]]["metrics"]
    for workload, res in results.items():
        assert workload in WORKLOADS
        assert isinstance(res["pairs"], int) and res["pairs"] >= 1
        assert isinstance(res["all_correct"], bool)
        assert all(isinstance(res["failed"][side], int)
                   for side in ("parent", "change"))
        assert res["metrics"]
        for metric, sides in res["metrics"].items():
            assert metric in END_TO_END, (workload, metric)
            assert _is_number(sides["parent"]["median"])
            assert _is_number(sides["change"]["median"])
