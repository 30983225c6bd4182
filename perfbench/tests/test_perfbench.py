"""Tests of the benchmark itself, on the sl2:3 smoke variants (a few seconds).

Run from the checkout root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_emitted_metrics():
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    assert list(layer_map) == [name for name, _, _ in layers.PER_LAYER]


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric_with_its_unit(tmp_path, trace):
    proc = bench("--workload", "all", "--smoke", "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--results", str(tmp_path / "r.jsonl"))
    out = last_json(proc)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 4
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    for wl in run.WORKLOADS:
        for m in expected:
            got = out["metrics"][f"{wl}.{m['name']}"]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
            if not trace:
                assert got["value"] > 0
    printed = [m["name"] for m in expected] + ["fail_ratio"]
    assert all(f"  {name} " in proc.stdout for name in printed)
    records = [json.loads(x) for x in (tmp_path / "r.jsonl").read_text().splitlines()]
    assert {r["manifest"]["blas_threads"] for r in records} == {run.BLAS_THREADS}
    assert all(r["manifest"]["argv"] and r["manifest"]["numpy"] for r in records)


def test_wrong_reference_value_fails_the_check(tmp_path):
    ref = json.loads((HERE / "reference.json").read_text())
    row = ref["smoke"]["boost-a5m4"]["csv"]["rows"][1]
    row[3] = repr(float(row[3]) * 1.001)          # linf_rel after the step
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(ref))
    out = last_json(bench("--workload", "boost-a5m4", "--smoke", "--seconds", "1",
                          "--reference", str(bad), "--results", str(tmp_path / "r.jsonl")))
    assert not out["correct"] and out["failed"] == out["attempted"] >= 1


def test_csv_check_tolerates_rounding_and_floor():
    ref = json.loads((HERE / "reference.json").read_text())["full"]["boost-a5m4"]["csv"]
    text = ",".join(ref["header"]) + "\n" + "\n".join(",".join(r) for r in ref["rows"]) + "\n"
    assert checks.check_csv(text, ref) == []
    floor = checks.numerical_floor(ref["size"])
    rows = [list(r) for r in ref["rows"]]
    rows[1][3] = repr(float(rows[1][3]) * (1 + 1e-12))     # last-bit rounding passes
    rows[1][4] = repr(floor / 2)                           # below the floor passes
    ok = ",".join(ref["header"]) + "\n" + "\n".join(",".join(r) for r in rows) + "\n"
    assert checks.check_csv(ok, ref) == []
    rows[1][4] = repr(floor * 2)                           # above the floor fails
    bad = ",".join(ref["header"]) + "\n" + "\n".join(",".join(r) for r in rows) + "\n"
    assert checks.check_csv(bad, ref)


def test_verdicts():
    a = [10.0, 10.1, 9.9, 10.05, 9.95]
    assert run.verdict(a, [x * 0.5 for x in a], 0.1, "lower") == "better"
    assert run.verdict(a, [x * 1.01 for x in a], 0.1, "lower") == "no worse"
    assert run.verdict(a, [x * 1.3 for x in a], 0.1, "lower") == "worse"
    assert run.verdict(a, [5.0, 20.0, 9.0, 11.0], 0.1, "lower") == "unresolved"
    assert run.verdict(a, [10.0], 0.1, "lower") == "unresolved"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "boost-a5m4", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
