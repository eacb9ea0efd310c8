"""The acceptance battery: one test per criterion, plus determinism.

Run with ``pytest tests/test_acceptance.py -s`` to see the one-line report
per criterion; the CLI equivalent is ``finsetrep verify --seed 7``.
"""

from pathlib import Path

import pytest

from finsetrep.acceptance import render_report, run_all

SEED = 7
# the exact text of ``finsetrep verify --seed 7``: a change to it must be deliberate
PINNED_REPORT = Path(__file__).parent / "data" / "verify_seed7.txt"


@pytest.fixture(scope="module")
def report():
    results = run_all(SEED)
    print()
    print(render_report(results, SEED), end="")
    return results


def _check(report, index):
    result = report[index - 1]
    print("criterion %d (%s): %s" % (index, result.title, "PASS" if result.passed else "FAIL"))
    assert result.passed, result.detail
    return result


def test_criterion_01_hom_counts(report):
    _check(report, 1)


def test_criterion_02_category_laws(report):
    _check(report, 2)


def test_criterion_03_normalization(report):
    _check(report, 3)


def test_criterion_04_dimension_polynomials(report):
    _check(report, 4)


def test_criterion_05_descends_through_forget(report):
    _check(report, 5)


def test_criterion_06_character_polynomials(report):
    _check(report, 6)


def test_criterion_07_invariant_monotonicity(report):
    _check(report, 7)


def test_criterion_08_replication(report):
    _check(report, 8)


def test_criterion_09_admissible_word_oracle(report):
    _check(report, 9)


def test_criterion_10_determinism(report):
    _check(report, 10)


def test_report_matches_the_pinned_text(report):
    assert render_report(report, SEED) == PINNED_REPORT.read_text()


def test_full_report_is_byte_deterministic(report):
    again = run_all(SEED)
    assert render_report(again, SEED) == render_report(report, SEED)
