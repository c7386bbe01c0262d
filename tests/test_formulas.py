"""Special numbers, closed formulas, the series formula and the join-cut recurrence."""

from math import comb

import pytest

from starfact import Partition, partitions_of
from starfact.factorisations import count_monotone_double, count_star
from starfact.formulas import (
    catalan,
    central_factorial,
    closed_form,
    feray_count,
    md_full_cycle,
    md_identity,
    recurrence_star,
    stirling2,
)
from starfact.perms import class_representative
from starfact.verify import agreement_row, run_suite

from oracles import central_factorial_direct, feray_series, stirling_direct


class TestSpecialNumbers:
    def test_stirling_values(self):
        assert stirling2(5, 2) == 15
        for m in range(7):
            assert stirling2(m, m) == 1
        for m in range(1, 7):
            assert stirling2(m, 0) == 0

    def test_stirling_against_set_partitions(self):
        for m in range(7):
            for k in range(m + 2):
                assert stirling2(m, k) == stirling_direct(m, k)

    def test_central_factorial_values(self):
        assert central_factorial(3, 2) == 5
        assert central_factorial(2, 1) == 1
        for m in range(6):
            assert central_factorial(m, m) == 1

    def test_central_factorial_against_paired_partitions(self):
        for m in range(6):
            for k in range(m + 2):
                assert central_factorial(m, k) == central_factorial_direct(m, k)

    def test_catalan(self):
        assert [catalan(k) for k in range(6)] == [1, 1, 2, 5, 14, 42]


class TestClosedForms:
    def test_feray_values(self):
        assert feray_count(Partition((2,)), 0) == 1
        assert feray_count(Partition((2, 1)), 0) == 2
        assert feray_count(Partition((3,)), 1) == 5

    def test_single_fixed_point_is_genus_zero_only(self):
        assert feray_count(Partition((1,)), 0) == 1
        for genus in (1, 2, 3):
            assert feray_count(Partition((1,)), genus) == 0

    def test_feray_refuses_negative_genus_and_empty_partition(self):
        with pytest.raises(ValueError, match="genus must be nonnegative"):
            feray_count(Partition((2,)), -1)
        with pytest.raises(ValueError, match="partition must be nonempty"):
            feray_count(Partition(()), 0)

    def test_feray_matches_closed_forms_to_degree_40(self):
        for n in range(2, 41):
            for genus in range(6):
                assert feray_count(Partition((n,)), genus) == md_full_cycle(n, genus), (n, genus)
                assert feray_count(Partition((1,) * n), genus) == md_identity(n, genus), (n, genus)

    def test_feray_matches_dynamic_programme(self):
        for n in range(1, 5):
            for lam in partitions_of(n):
                rep = class_representative(lam)
                for genus in (0, 1, 2):
                    assert feray_count(lam, genus) == count_star(rep, genus, n), (
                        lam,
                        genus,
                    )

    def test_feray_matches_the_rational_series(self):
        for n in range(1, 13):
            for lam in partitions_of(n):
                for genus in range(6):
                    assert feray_count(lam, genus) == feray_series(lam, genus), (lam, genus)

    def test_feray_matches_the_rational_series_at_genus_30(self):
        lam = Partition((13, 12, 11, 10, 9, 9, 8, 7, 6, 5, 4, 3, 2, 1))
        assert feray_count(lam, 30) == feray_series(lam, 30)

    def test_feray_matches_closed_forms_at_degree_200_genus_300(self):
        assert feray_count(Partition((200,)), 300) == md_full_cycle(200, 300)
        assert feray_count(Partition((1,) * 200), 300) == md_identity(200, 300)

    def test_full_cycle_values(self):
        assert md_full_cycle(3, 0) == 1
        assert md_full_cycle(3, 1) == 5
        assert md_full_cycle(2, 0) == 1

    def test_full_cycle_is_a_scaled_stirling_number(self):
        for n in (2, 3, 4, 5):
            for genus in (0, 1, 2):
                expected, rem = divmod(stirling2(2 * genus + n, n - 1), comb(n, 2))
                assert rem == 0
                assert md_full_cycle(n, genus) == expected

    def test_identity_values(self):
        assert md_identity(3, 0) == 4
        assert md_identity(3, 1) == 20
        assert md_identity(1, 0) == 1

    def test_closed_forms_at_genus_400(self):
        # S(m, 2) = 2^(m-1) - 1 and T(m, 2) = (4^(m-1) - 1) / 3, far past
        # any recursion limit
        assert stirling2(803, 2) == 2**802 - 1
        assert md_full_cycle(3, 400) == (2**802 - 1) // 3
        assert central_factorial(402, 2) == (4**401 - 1) // 3
        assert md_identity(3, 400) == 2 * 2 * (4**401 - 1) // 3

    def test_closed_forms_match_enumeration(self):
        for n in (2, 3, 4):
            for genus in (0, 1):
                cycle = class_representative(Partition((n,)))
                assert md_full_cycle(n, genus) == count_monotone_double(cycle, genus)
                ident = class_representative(Partition((1,) * n))
                assert md_identity(n, genus) == count_monotone_double(ident, genus)


class TestClosedForm:
    def test_degree_one_is_the_identity(self):
        for genus in (0, 1, 2):
            assert closed_form(Partition((1,)), genus) == md_identity(1, genus)

    def test_full_cycle(self):
        assert closed_form(Partition((3,)), 1) == md_full_cycle(3, 1) == 5
        assert closed_form(Partition((4,)), 2) == md_full_cycle(4, 2)

    def test_identity(self):
        assert closed_form(Partition((1, 1, 1)), 1) == md_identity(3, 1) == 20

    def test_no_closed_form_for_other_classes(self):
        assert closed_form(Partition((2, 1)), 0) is None
        assert closed_form(Partition((2, 2)), 1) is None


class TestRecurrence:
    def test_base_cases(self):
        assert recurrence_star(1, Partition(()), 0) == 1
        assert recurrence_star(2, Partition(()), 0) == 1
        assert recurrence_star(1, Partition((1,)), 0) == 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            recurrence_star(0, Partition(()), 0)
        with pytest.raises(ValueError):
            recurrence_star(1, Partition(()), -1)

    def test_matches_dynamic_programme(self):
        # key (i, alpha): root cycle of length i, remaining cycles alpha
        from starfact.perms import Permutation

        for total in range(1, 7):
            for i in range(1, total + 1):
                for alpha in partitions_of(total - i):
                    # build a target whose root cycle has length i
                    rest = list(range(1, total - i + 1))
                    cyc = []
                    at = 0
                    for part in alpha.parts:
                        cyc.append(tuple(rest[at : at + part]))
                        at += part
                    cyc.append(tuple(range(total - i + 1, total + 1)))
                    target = Permutation.from_cycles(total, cyc)
                    for genus in (0, 1, 2):
                        assert recurrence_star(i, alpha, genus) == count_star(
                            target, genus, total
                        ), (i, alpha, genus)

    def test_matches_series_formula_at_every_root_part(self):
        # the root cycle may be any part of the class, so agreement at every
        # distinct part also checks that the recurrence depends on the class
        for n in range(2, 11):
            for lam in partitions_of(n):
                for i in set(lam.parts):
                    rest = list(lam.parts)
                    rest.remove(i)
                    for genus in range(5):
                        assert recurrence_star(i, Partition(tuple(rest)), genus) == feray_count(
                            lam, genus
                        ), (lam, i, genus)

    def test_identity_recurrence(self):
        report = run_suite("recurrence-6.3", n=5, gmax=3)
        assert [c.label for c in report.checks] == [
            f"identity-count recurrence holds, n={n}" for n in (2, 3, 4, 5)
        ]
        assert report.passed


class TestHurwitzRelation:
    @staticmethod
    def outcomes(n):
        report = run_suite("relation-6.4", n=n)
        return {c.label.removeprefix("padded double Hurwitz relation, "): c.passed
                for c in report.checks}

    def test_transposition_class(self):
        assert self.outcomes(2) == {
            f"alpha={alpha}, g={g}": True for alpha in ("[2]", "[1,1]") for g in (0, 1, 2)
        }

    def test_two_fixed_points(self):
        outcomes = self.outcomes(3)
        assert len(outcomes) == 15 and all(outcomes.values())
        assert outcomes["alpha=[1,1], g=0"] and outcomes["alpha=[1,1,1], g=2"]


class TestAgreementTable:
    def test_row_shape(self):
        row = agreement_row(Partition((3,)), 1)
        assert row == {
            "partition": "[3]",
            "genus": 1,
            "count_star": 5,
            "md_count": 5,
            "feray": 5,
            "closed_form": 5,
            "all_agree": True,
        }

    def test_closed_form_absent_for_mixed_classes(self):
        row = agreement_row(Partition((2, 1)), 0)
        assert row["closed_form"] == ""
        assert row["all_agree"] is True
