"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every criterion checks its stated tolerance and runtime budget.
"""

import time

from hkfrac import verify


def _check(number, label, records, elapsed, budget):
    ok = verify.all_passed(records)
    worst = max((r["error"] / r["tolerance"] for r in records if r["tolerance"] > 0), default=0.0)
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    print(
        f"[{status}] criterion {number}: {label} -- {len(records)} cases, "
        f"worst err/tol {worst:.3f}, {elapsed:.1f}s (budget {budget:.0f}s)"
    )
    failures = [r["case"] for r in records if not r["passed"]]
    assert not failures, f"criterion {number} failed cases: {failures}"
    assert elapsed <= budget, f"criterion {number} exceeded runtime budget"


def test_criterion_1_power_rule_suite():
    t0 = time.time()
    records = verify.run_power_rule()
    _check(1, "power rule accuracy and n->2n convergence", records, time.time() - t0, 10.0)


def test_criterion_2_semigroup_suite():
    t0 = time.time()
    records = verify.run_semigroup()
    _check(2, "semigroup composition of fractional integrals", records, time.time() - t0, 20.0)


def test_criterion_3_inversion_suite():
    t0 = time.time()
    records = verify.run_inversion()
    _check(3, "derivative inverts the integral", records, time.time() - t0, 30.0)


def test_criterion_4_picard_vs_closed_form():
    t0 = time.time()
    records = verify._picard_closed_form()
    _check(4, "Picard solver vs closed-form solution + decay certificate",
           records, time.time() - t0, 60.0)


def test_criterion_5_kilbas_saigo_consistency():
    t0 = time.time()
    records = [
        r for r in verify.run_kilbas_saigo()
        if r["case"].startswith(("telescoping", "xi=0"))
    ]
    _check(5, "Kilbas-Saigo telescoping and xi=0 reduction", records, time.time() - t0, 2.0)


def test_criterion_6_interpolation_limits():
    t0 = time.time()
    records = verify.run_limits()
    _check(6, "Hadamard limit of z and classical power rules", records, time.time() - t0, 5.0)


def test_criterion_7_special_function_spot_values():
    t0 = time.time()
    records = [
        r for r in verify.run_kilbas_saigo()
        if r["case"].startswith(("E_", "golden ml2"))
    ]
    assert records, "spot-value records missing"
    _check(7, "Mittag-Leffler spot values", records, time.time() - t0, 1.0)


def test_criterion_8_picard_iterate_series_match():
    t0 = time.time()
    records = verify._picard_iterate_series()
    _check(8, "solver iterates match the truncated series", records, time.time() - t0, 10.0)


def test_picard_suite_runs_all_three_parts():
    records = verify.run_picard()
    cases = [r["case"] for r in records]
    assert len(records) == 52
    assert sum("closed-form gap" in c or "geometric decay" in c for c in cases) == 38
    assert sum(c.startswith("stiff") for c in cases) == 2
    assert sum(c.startswith("iterate-series") for c in cases) == 12
    assert sum(c.startswith("linear golden") for c in cases) == 2
    assert verify.all_passed(records)
