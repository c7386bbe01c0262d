"""End-to-end acceptance checks with runtime budgets.

Each test exercises one headline guarantee of the package at the full
advertised bounds, times it, and prints a single pass/fail line that
survives pytest's capture.  All comparisons are exact; there are no
tolerances anywhere.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import pytest

from starfact.algebra import (
    AlgebraElement,
    NotCentralError,
    evaluate,
    h,
    jm_element,
    p,
    transitive_evaluate,
    transitive_power,
)
from starfact.factorisations import (
    count_monotone,
    count_monotone_double,
    count_star,
    count_star_unconstrained,
)
from starfact.perms import Partition, Permutation, symmetric_group
from starfact.verify import run_suite


@pytest.fixture
def announce(capfd):
    """Print one uncaptured line per criterion so the run shows a live
    pass/fail ledger even under default capture."""

    @contextmanager
    def criterion(number, label, budget):
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            elapsed = time.perf_counter() - start
            with capfd.disabled():
                print(f"criterion {number:2d}: FAIL ({elapsed:6.2f}s) {label}")
            raise
        elapsed = time.perf_counter() - start
        with capfd.disabled():
            print(f"criterion {number:2d}: PASS ({elapsed:6.2f}s < {budget}s) {label}")
        assert elapsed < budget

    return criterion


def test_criterion_01_fourth_power_of_top_slot(announce):
    with announce(1, "J_4^4 decomposition and transitive part", 1):
        n = 4
        xi = jm_element(n, n)
        fourth = xi ** 4

        assert fourth.coefficient(Permutation.identity(n)) == 15
        with pytest.raises(NotCentralError):
            fourth.decompose()

        assert transitive_evaluate(p(4), n).decompose() == {
            Partition((3, 1)): 3,
            Partition((2, 2)): 4,
        }
        assert evaluate(p(4), n).decompose() == {
            Partition((1, 1, 1, 1)): 22,
            Partition((3, 1)): 8,
            Partition((2, 2)): 4,
        }
        assert transitive_power(n, 4) == transitive_evaluate(p(4), n)


def test_criterion_02_transitive_star_counts_in_s3(announce):
    with announce(2, "star counts for both transposition targets in S_3", 1):
        omega_12 = Permutation.from_cycles(3, [(1, 2)])
        omega_23 = Permutation.from_cycles(3, [(2, 3)])

        assert count_star(omega_12, 0, 3) == 2
        assert count_star(omega_23, 0, 3) == 2
        assert count_star_unconstrained(omega_12, 3, 3) == 2
        assert count_star_unconstrained(omega_23, 3, 3) == 3


def test_criterion_03_star_equals_monotone_double(announce):
    with announce(3, "star = (cycle, monotone tail) counts, n <= 5, g <= 2", 300):
        report = run_suite("theorem-1.4")
        assert report.passed, "\n".join(report.lines())


def test_criterion_04_bijections_round_trip(announce):
    with announce(4, "all bijections invert exactly on exhaustive domains", 300):
        report = run_suite("bijections")
        assert report.passed, "\n".join(report.lines())


def test_criterion_05_generating_elements_match_counts(announce):
    with announce(5, "class-sum strata and h-coefficient count identities", 120):
        report = run_suite("theorem-1.1")
        assert report.passed, "\n".join(report.lines())

        # Coefficient extraction against the DP counters, both families.
        for n in range(1, 6):
            interval = AlgebraElement.one(n)
            for k in range(2, n + 1):
                interval = interval * jm_element(n, k)
            complete = {0: evaluate(h(0), n)}
            for omega in symmetric_group(n):
                c = len(omega.cycles())
                for g in range(3):
                    m = n - c + 2 * g
                    if m not in complete:
                        complete[m] = evaluate(h(m), n)
                    assert count_monotone(omega, g) == complete[m].coefficient(omega)
                    k = c - 1 + 2 * g
                    if k not in complete:
                        complete[k] = evaluate(h(k), n)
                    expected = (interval * complete[k]).coefficient(omega)
                    assert count_monotone_double(omega, g) == expected


def test_criterion_06_top_power_closed_form(announce):
    with announce(6, "top-slot powers equal e_(n-1) h_k in both bases", 120):
        report = run_suite("corollary-1.6")
        assert report.passed, "\n".join(report.lines())


def test_criterion_07_transitive_images_are_central(announce):
    with announce(7, "transitive images of symmetric functions are central", 120):
        report = run_suite("theorem-1.7")
        assert report.passed, "\n".join(report.lines())


def test_criterion_08_join_cut_recurrence(announce):
    with announce(8, "join-cut recurrence matches DP counts, i+|alpha| <= 6", 60):
        report = run_suite("recurrence-2.1")
        assert report.passed, "\n".join(report.lines())


def test_criterion_09_closed_formulas(announce):
    with announce(9, "series formula, closed forms, and their recurrence", 120):
        for name in ("formulas-6.2", "recurrence-6.3"):
            report = run_suite(name)
            assert report.passed, "\n".join(report.lines())
            # at the defaults every listing fits its budget
            assert not any("skipped" in c.detail for c in report.checks)


def test_criterion_10_double_hurwitz_relation(announce):
    with announce(10, "padded double Hurwitz relation by exhaustion", 600):
        report = run_suite("relation-6.4")
        assert report.passed, "\n".join(report.lines())
