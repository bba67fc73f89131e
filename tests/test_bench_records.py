"""Every ``BENCH_<n>.json`` at the repository root is a complete record.

Each performance change records its before/after measurement in one of
these files.  This checks that each has the keys of the reference record
(``BENCH_19.json``) at every level, covers every workload that
``BENCHMARK.json`` declares with a correct run, and that the claimed
metric's median moved the right way on the claimed workload.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "BENCH_19.json"
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _load(path):
    return json.loads(path.read_text())


def _benchmark():
    return _load(ROOT / "BENCHMARK.json")


def test_records_exist():
    assert REFERENCE in RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_shape(path):
    ref, record = _load(REFERENCE), _load(path)
    assert set(ref) <= set(record)
    ref_workload = next(iter(ref["workloads"].values()))
    ref_metric = next(iter(ref_workload["metrics"].values()))
    for name, workload in record["workloads"].items():
        assert set(ref_workload) <= set(workload), name
        for metric, stats in workload["metrics"].items():
            assert set(ref_metric) <= set(stats), (name, metric)
            for side in ("parent", "change"):
                assert set(ref_metric[side]) <= set(stats[side]), (name, metric, side)


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_covers_every_workload_correctly(path):
    record = _load(path)
    names = {w["name"] for w in _benchmark()["workloads"]}
    assert set(record["workloads"]) == names
    assert all(record["workloads"][name]["correct"] is True for name in names)


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_claimed_metric_improves(path):
    record = _load(path)
    claimed = record["claimed"]
    better = {m["name"]: m["better"] for m in _benchmark()["end_to_end"]}[claimed["metric"]]
    stats = record["workloads"][claimed["workload"]]["metrics"][claimed["metric"]]
    parent, change = stats["parent"]["median"], stats["change"]["median"]
    assert change < parent if better == "lower" else change > parent
