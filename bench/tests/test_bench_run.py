"""run.py end to end, in a throwaway copy of the checkout."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
IGNORE = shutil.ignore_patterns("_runs", "__pycache__", "*.egg-info")


@pytest.fixture()
def checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=IGNORE)
    return tmp_path


def run(cwd, *extra):
    cmd = SPEC["command"][1:]
    return subprocess.run([sys.executable, *cmd, "--workload", "solve-stiff", "--seed", "3",
                           "--seconds", "0.1", *extra],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_prints_every_metric(checkout, trace, section):
    shutil.copytree(ROOT / "src", checkout / "src", ignore=IGNORE)
    proc = run(checkout, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] == 4
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert not [p for p in (checkout / "bench" / "_runs").iterdir() if p.is_dir()]


def test_refuses_to_run_without_the_package(checkout):
    proc = run(checkout, "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
