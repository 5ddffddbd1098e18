"""Acceptance suite: every criterion as one test, with its runtime budget.

Each test replays the corresponding built-in fact (the same code path the
``verify-paper`` CLI command runs), asserts the verdict, and prints one
pass/fail line.  Budgets quoted in seconds are part of the criteria.
"""
from ivpoly.verify import run_facts


def _run(number, fact_id, budget_seconds=None):
    report = run_facts([fact_id])
    assert len(report.results) == 1, f"unknown fact {fact_id}"
    result = report.results[0]
    verdict = "PASS" if result.passed else "FAIL"
    print(f"CRITERION {number:2d} [{fact_id}]: {verdict} "
          f"({result.elapsed:.2f}s) {result.detail}")
    assert result.passed, f"criterion {number} failed: {result.detail}"
    if budget_seconds is not None:
        assert result.elapsed < budget_seconds, (
            f"criterion {number} exceeded its {budget_seconds}s budget "
            f"({result.elapsed:.2f}s)"
        )
    return result


def test_c01_grams_atoms():
    _run(1, "grams-atoms", budget_seconds=1.0)


def test_c02_grams_accp_chain():
    _run(2, "grams-accp", budget_seconds=1.0)


def test_c03_gregory_newton_roundtrip():
    _run(3, "newton-roundtrip")


def test_c04_non_hfd_witness():
    _run(4, "hfd-witness", budget_seconds=30.0)


def test_c05_binomial_irreducibility():
    _run(5, "binomial-irreducible", budget_seconds=120.0)


def test_c06_divisor_oracle_equivalence():
    _run(6, "divisor-oracle")


def test_c07_pulling_sequence():
    _run(7, "pulling-sequence")


def test_c08_ckd_family():
    _run(8, "ckd-family")


def test_c09_furstenberg_nonatomicity():
    _run(9, "furstenberg")


def test_c10_cone_verifier():
    _run(10, "cone-idf", budget_seconds=10.0)


def test_c11_antimatter_frobenius():
    _run(11, "frobenius-roots")


def test_c12_ffd_stability():
    _run(12, "ffd-stability")


def test_c13_finite_site_divisors():
    _run(13, "finite-site-divisors", budget_seconds=2.0)


def test_all_facts_pass_together():
    report = run_facts()
    assert report.all_passed
    assert len(report.results) == 13
