"""The measuring scripts under tools/ run against this checkout's package.

They read the package's internals, so a change to those that breaks a
script fails here rather than at its next measurement.
"""

import importlib
import os
from pathlib import Path

import pytest

import hkfrac

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def bench_tables(monkeypatch):
    pytest.importorskip("mpmath")
    # the script sets one-thread defaults on import: keep them out of later tests' environment
    monkeypatch.setattr(os, "environ", dict(os.environ))
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("bench_tables")


@pytest.mark.parametrize("side", ["left", "right"])
def test_bench_tables_times_and_checks_a_cold_apply(bench_tables, side):
    config = (f"alpha=0.5 n=512 {side}", 0.5, 0.0, 2.0, 512, side)
    timed = bench_tables.cold_build(hkfrac, config)
    assert set(timed) == {"total", "band", "hat_moments", "rest"}
    # the timed apply builds the table: its band and hat moments take time
    assert timed["total"] > timed["band"] > 0.0 and timed["hat_moments"] > 0.0
    assert bench_tables.cold_peak(hkfrac, config) > 0.0
    accuracy = bench_tables.accuracy(hkfrac, config)
    assert 0.0 < accuracy["band_error"] <= 1e-13
    assert 0.0 < accuracy["closed_form_gap"] <= 1e-4


@pytest.fixture
def bench_series(monkeypatch):
    mpmath = pytest.importorskip("mpmath")
    # the script sets mpmath's working precision on import: keep it out of later tests
    monkeypatch.setattr(mpmath.mp, "dps", 50)
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("bench_series")


def test_bench_series_times_and_checks_the_oracle_calls(bench_series):
    pkgs = {"parent": hkfrac, "change": hkfrac}
    calls = bench_series.oracle_calls(hkfrac, 4)
    assert len(calls) == 16 and {fn for _, fn, _ in calls} == {"ml2", "ml_ks"}
    timed = bench_series.time_calls(pkgs, 4, 1)
    assert list(timed) == [name for name, _, _ in calls]
    assert all(row[side]["median_us"] > 0.0 for row in timed.values() for side in pkgs)
    points = [("ml2", (0.5, 0.5, -2.0)), ("ml2", (0.5, 0.5, 51.0)), ("ml_ks", (0.5, 1.0, 2.0, 0.7))]
    for side, found in bench_series.errors(pkgs, points).items():
        assert (found["measured"], found["refused"]) == (2, 1)
        assert 0.0 <= found["max_rel_error"] <= 1e-14
