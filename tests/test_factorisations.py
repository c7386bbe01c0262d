"""Factorisation families: records, counts, listings, closed conventions.

Counts are cross-checked against the brute-force tuple generators in
``oracles`` on small degrees; the heavier exhaustive sweeps live in the
verify suites and the acceptance tests.
"""

import copy
import json
import pickle
import subprocess
import sys
import textwrap
from itertools import permutations, product

import pytest

from starfact import Partition, Permutation, TotalOrder, Transposition, partitions_of
from starfact.factorisations import (
    ConditionViolation,
    MonotoneDoubleFactorisation,
    MonotoneFactorisation,
    StarFactorisation,
    b_number,
    count_double_hurwitz,
    count_monotone,
    count_monotone_double,
    count_star,
    count_star_unconstrained,
    enumerate_monotone,
    enumerate_monotone_double,
    enumerate_star,
    full_cycles,
    monotone_double_sweep,
    monotone_length,
    star_length,
)
from starfact import factorisations
from starfact.algebra import evaluate, h, jm_element
from starfact.formulas import feray_count
from starfact.perms import (
    all_transpositions,
    class_representative,
    class_size,
    conjugacy_classes,
    symmetric_group,
)
from starfact.verify import order_panel

from oracles import (
    double_hurwitz_count,
    monotone_double_tuples,
    monotone_tuples,
    star_tuples,
    swap_rank_rows,
)


def perm(text, n=None):
    return Permutation.parse(text, n)


SMALL_ORDERS = [
    TotalOrder.natural(3),
    TotalOrder.parse("3<2<1"),
    TotalOrder.parse("2<3<1"),
]


class TestStarRecord:
    def test_legs_expand_to_factors(self):
        f = StarFactorisation(3, 3, (1, 2, 1), perm("(1 2)(3)"), 0)
        assert f.factors == (
            Transposition(1, 3),
            Transposition(2, 3),
            Transposition(1, 3),
        )
        assert f.to_line() == "(1 3)(2 3)(1 3)"

    def test_factors_are_built_once(self):
        f = StarFactorisation(3, 3, (1, 2, 1), perm("(1 2)(3)"), 0)
        assert f.factors is f.factors
        # the kept tuple is no field: equality, hash, repr and pickling
        # see the same record before and after it is read
        g = StarFactorisation(3, 3, (1, 2, 1), perm("(1 2)(3)"), 0)
        assert "factors" in vars(f) and "factors" not in vars(g)
        assert (f, hash(f), repr(f)) == (g, hash(g), repr(g))
        h = pickle.loads(pickle.dumps(f))
        assert h == f == g and hash(h) == hash(g) and h.factors == f.factors
        assert copy.deepcopy(g) == g
        with pytest.raises(AttributeError):
            f.legs = (2, 1, 2)

    def test_coverage_reported_before_length(self):
        # legs (1, 1) miss symbol 2 and have the wrong parity; coverage wins
        with pytest.raises(ConditionViolation) as exc:
            StarFactorisation.from_legs(3, 3, (1, 1), perm("(2 3)", 3))
        assert str(exc.value) == "condition S2' violated: (2 3) never appears"
        assert exc.value.condition == "S2'"

    def test_length_condition_message(self):
        with pytest.raises(ConditionViolation) as exc:
            StarFactorisation(3, 3, (1, 2, 1, 1), perm("(1 2)(3)"), 0)
        assert str(exc.value) == "condition S1 violated: length 4 != 3 + 2 - 2 + 2*0"

    def test_from_legs_rejects_lengths_with_no_genus(self):
        with pytest.raises(ConditionViolation) as exc:
            StarFactorisation.from_legs(3, 3, (1, 2, 1, 1), perm("(1 2)(3)"))
        assert str(exc.value) == "condition S1 violated: length 4 has no genus: 3 + 2 - 2 + 2g"

    def test_product_condition_message(self):
        # (1 3)(2 3)(2 3) = (1 3), covered and of valid length
        with pytest.raises(ConditionViolation) as exc:
            StarFactorisation(3, 3, (1, 2, 2), perm("(1 2)(3)"), 0)
        assert str(exc.value) == "condition product violated: factors do not multiply to (1 2)(3)"

    def test_root_must_lie_in_range(self):
        with pytest.raises(ValueError):
            StarFactorisation(3, 4, (1, 2, 1), perm("(1 2)(3)"), 0)

    def test_legs_must_avoid_root(self):
        with pytest.raises(ValueError):
            StarFactorisation(3, 3, (1, 3, 2), perm("(1 2)(3)"), 0)

    def test_from_legs_derives_genus(self):
        f = StarFactorisation.from_legs(2, 2, (1, 1, 1, 1), perm("(1)(2)"))
        assert f.genus == 1

    def test_record_fields(self):
        f = StarFactorisation(3, 3, (1, 2, 1), perm("(1 2)(3)"), 0)
        assert f.to_record() == {
            "family": "star",
            "n": 3,
            "root": 3,
            "genus": 0,
            "target": "(1 2)(3)",
            "factors": ["(1 3)", "(2 3)", "(1 3)"],
        }

    def test_empty_record_for_trivial_group(self):
        f = StarFactorisation(1, 1, (), Permutation.identity(1), 0)
        assert f.to_line() == ""
        assert f.factors == ()


class TestStarCounts:
    def test_worked_s3_example(self):
        assert count_star(perm("(1 2)(3)"), 0, 3) == 2
        assert count_star(perm("(1)(2 3)"), 0, 3) == 2
        assert count_star_unconstrained(perm("(1 2)(3)"), 3, 3) == 2
        assert count_star_unconstrained(perm("(1)(2 3)"), 3, 3) == 3

    def test_listing_matches_worked_example(self):
        legs = [f.legs for f in enumerate_star(perm("(1 2)(3)"), 0, 3)]
        assert legs == [(1, 2, 1), (2, 1, 2)]

    def test_two_symbols(self):
        fs = enumerate_star(perm("(1 2)"), 0, 2)
        assert [f.legs for f in fs] == [(1,)]

    def test_one_symbol(self):
        fs = enumerate_star(Permutation.identity(1), 0, 1)
        assert len(fs) == 1 and fs[0].legs == ()

    def test_negative_genus_is_empty(self):
        assert enumerate_star(perm("(1 2 3)"), -1, 1) == []
        assert count_star(perm("(1 2 3)"), -1, 1) == 0

    def test_root_out_of_range(self):
        with pytest.raises(ValueError):
            count_star(perm("(1 2 3)"), 0, 4)
        with pytest.raises(ValueError):
            enumerate_star(perm("(1 2 3)"), 0, 0)

    def test_unconstrained_length_zero(self):
        assert count_star_unconstrained(Permutation.identity(3), 0, 1) == 1
        assert count_star_unconstrained(perm("(1 2)", 3), 0, 1) == 0

    def test_unconstrained_identity_matches_jm_power(self):
        # the same number counts length-4 walks returning to the identity
        assert count_star_unconstrained(Permutation.identity(4), 4, 4) == 15

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_counts_match_brute_force(self, n):
        for target in symmetric_group(n):
            for genus in (0, 1):
                m = star_length(target, genus)
                for root in range(1, n + 1):
                    expected = len(star_tuples(target, m, root, transitive=True))
                    assert count_star(target, genus, root) == expected
                free = len(star_tuples(target, m, n, transitive=False))
                assert count_star_unconstrained(target, m, n) == free

    @pytest.mark.parametrize("n", [3, 4])
    def test_enumeration_matches_dp(self, n):
        for target in symmetric_group(n):
            for genus in (0, 1):
                fs = enumerate_star(target, genus, n)
                assert len(fs) == count_star(target, genus, n)
                assert len({f.legs for f in fs}) == len(fs)
                lines = [f.legs for f in fs]
                assert lines == sorted(lines)

    def test_count_depends_only_on_cycle_type_and_not_root(self):
        for n in (3, 4):
            for lam, members in conjugacy_classes(n).items():
                for genus in (0, 1):
                    vals = {
                        count_star(w, genus, root)
                        for w in members
                        for root in range(1, n + 1)
                    }
                    assert len(vals) == 1, (lam, genus, vals)


class TestMonotoneRecord:
    def test_weakly_increasing_condition(self):
        with pytest.raises(ConditionViolation) as exc:
            MonotoneFactorisation(
                3,
                TotalOrder.natural(3),
                (Transposition(2, 3), Transposition(1, 2)),
                perm("(1 2 3)"),
                0,
            )
        assert (
            str(exc.value)
            == "condition H2 violated: larger symbols not weakly increasing under 1<2<3"
        )

    def test_monotonicity_follows_the_given_order(self):
        # (2 3)(1 2) is monotone when 3 precedes 2 precedes 1
        f = MonotoneFactorisation(
            3,
            TotalOrder.parse("3<2<1"),
            (Transposition(2, 3), Transposition(1, 2)),
            perm("(1 2 3)"),
            0,
        )
        assert f.to_line() == "(2 3)(1 2)"

    def test_length_condition_message(self):
        with pytest.raises(ConditionViolation) as exc:
            MonotoneFactorisation(
                3, TotalOrder.natural(3), (Transposition(1, 2),) * 3, perm("(1 2)", 3), 0
            )
        assert str(exc.value) == "condition H1 violated: length 3 != 3 - 2 + 2*0"

    def test_from_factors_rejects_bad_parity(self):
        with pytest.raises(ConditionViolation) as exc:
            MonotoneFactorisation.from_factors(
                3, TotalOrder.natural(3), (Transposition(1, 2),) * 2, perm("(1 2)", 3)
            )
        assert str(exc.value) == "condition H1 violated: length 2 has no genus: 3 - 2 + 2g"

    def test_product_condition(self):
        with pytest.raises(ConditionViolation, match="factors do not multiply"):
            MonotoneFactorisation(
                3,
                TotalOrder.natural(3),
                (Transposition(1, 2), Transposition(1, 3)),
                perm("(1 3 2)"),
                0,
            )

    def test_record_fields(self):
        f = MonotoneFactorisation(
            3,
            TotalOrder.natural(3),
            (Transposition(1, 2), Transposition(2, 3)),
            perm("(1 3 2)"),
            0,
        )
        rec = f.to_record()
        assert rec["family"] == "monotone"
        assert rec["order"] == "1<2<3"
        assert rec["root"] is None
        assert rec["factors"] == ["(1 2)", "(2 3)"]


class TestMonotoneCounts:
    def test_worked_example(self):
        fs = enumerate_monotone(perm("(1 3 2)"), 0)
        assert [f.factors for f in fs] == [
            (Transposition(1, 2), Transposition(2, 3)),
            (Transposition(2, 3), Transposition(1, 3)),
        ]

    def test_identity_has_one_empty_factorisation(self):
        fs = enumerate_monotone(Permutation.identity(3), 0)
        assert len(fs) == 1 and fs[0].factors == ()

    def test_single_transposition(self):
        fs = enumerate_monotone(perm("(1 2)", 3), 0)
        assert [f.factors for f in fs] == [(Transposition(1, 2),)]

    def test_negative_genus(self):
        assert enumerate_monotone(perm("(1 2)", 3), -1) == []
        assert count_monotone(perm("(1 2)", 3), -1) == 0

    def test_order_of_another_degree_is_rejected(self):
        with pytest.raises(ValueError, match="order/target degree differs from n"):
            count_monotone(perm("(1 4)"), 0, TotalOrder.natural(3))

    @pytest.mark.parametrize("sequence", [(3, 2, 1), (1,)], ids=str)
    def test_listing_refuses_an_order_of_another_degree(self, sequence):
        order = TotalOrder(sequence)
        for route in (count_monotone, enumerate_monotone):
            with pytest.raises(ValueError, match="order/target degree differs from n"):
                route(perm("(1 2)"), 0, order)

    def test_listing_is_rank_lexicographic(self):
        # each factor keys as (rank of larger symbol, rank of smaller) under
        # the order; the listing is strictly increasing in those key tuples
        for order in order_panel(4):
            for target in symmetric_group(4):
                for genus in (0, 1):
                    keys = [
                        tuple((order.rank(order.larger_of(t)),
                               order.rank(t.other(order.larger_of(t)))) for t in f.factors)
                        for f in enumerate_monotone(target, genus, order)
                    ]
                    assert all(x < y for x, y in zip(keys, keys[1:])), (order, target, genus)
                    assert len(keys) == count_monotone(target, genus, order)

    @pytest.mark.parametrize("order", SMALL_ORDERS, ids=str)
    def test_counts_match_brute_force_in_s3(self, order):
        for target in symmetric_group(3):
            for genus in (0, 1):
                m = monotone_length(target, genus)
                expected = len(monotone_tuples(target, m, order))
                assert count_monotone(target, genus, order) == expected
                fs = enumerate_monotone(target, genus, order)
                assert len(fs) == expected

    def test_count_is_order_independent_in_s4(self):
        panel = [
            TotalOrder.natural(4),
            TotalOrder.parse("4<3<2<1"),
            TotalOrder.parse("2<4<1<3"),
        ]
        for target in symmetric_group(4):
            for genus in (0, 1):
                vals = {count_monotone(target, genus, o) for o in panel}
                assert len(vals) == 1

    def test_count_depends_only_on_cycle_type(self):
        for lam, members in conjugacy_classes(4).items():
            for genus in (0, 1):
                assert len({count_monotone(w, genus) for w in members}) == 1

    def test_jm_power_coefficients(self):
        # the count at genus g is the target's coefficient in the complete
        # homogeneous sum of degree n - c + 2g over the deferred generators
        for n in (2, 3, 4):
            for target in symmetric_group(n):
                for genus in (0, 1):
                    m = monotone_length(target, genus)
                    elt = evaluate(h(m), n) if m else evaluate(h(), n)
                    assert count_monotone(target, genus) == elt.coefficient(target)


class TestMonotoneDouble:
    def test_worked_example(self):
        fs = enumerate_monotone_double(perm("(1 2)(3)"), 0)
        got = [(str(f.sigma), f.factors) for f in fs]
        assert got == [
            ("(1 2 3)", (Transposition(1, 3),)),
            ("(1 3 2)", (Transposition(2, 3),)),
        ]

    def test_full_cycle_target_has_empty_tail(self):
        fs = enumerate_monotone_double(perm("(1 2 3)"), 0)
        assert len(fs) == 1
        assert fs[0].sigma == perm("(1 2 3)") and fs[0].factors == ()

    def test_identity_count(self):
        assert len(enumerate_monotone_double(Permutation.identity(3), 0)) == 4
        assert count_monotone_double(Permutation.identity(3), 0) == 4

    def test_sigma_must_be_a_full_cycle(self):
        with pytest.raises(ConditionViolation) as exc:
            MonotoneDoubleFactorisation(
                3, perm("(1 2)(3)"), (Transposition(1, 3),), perm("(1 2)(3)"), 0
            )
        assert str(exc.value) == "condition H0 violated: (1 2)(3) is not a full cycle"

    def test_tail_length_condition(self):
        with pytest.raises(ConditionViolation) as exc:
            MonotoneDoubleFactorisation(
                3, perm("(1 2 3)"), (Transposition(1, 3),), perm("(1 2 3)"), 0
            )
        assert str(exc.value) == "condition H1 violated: tail length 1 != 1 - 1 + 2*0"

    def test_factor_symbols_must_lie_in_range(self):
        with pytest.raises(ValueError, match=r"factor symbol outside \[3\]"):
            MonotoneDoubleFactorisation(
                3, perm("(1 2 3)"), (Transposition(1, 5),) * 2, perm("(1 2 3)"), 1
            )

    def test_from_factors_derives_genus(self):
        f = MonotoneDoubleFactorisation.from_factors(
            3, perm("(1 2 3)"), (Transposition(1, 2), Transposition(1, 3)), perm("(1 3 2)")
        )
        assert f.genus == 1
        assert f == enumerate_monotone_double(perm("(1 3 2)"), 1)[0]

    def test_from_factors_rejects_a_tail_with_no_genus(self):
        # a full cycle, so that the tail length is the first condition broken
        with pytest.raises(ConditionViolation) as exc:
            MonotoneDoubleFactorisation.from_factors(
                3, perm("(1 2 3)"), (Transposition(1, 2),), Permutation.identity(3)
            )
        assert str(exc.value) == "condition H1 violated: tail length 1 has no genus: 3 - 1 + 2g"

    def test_tail_monotonicity_condition(self):
        # the tail (1 4)(2 3) has larger symbols 4 then 3
        with pytest.raises(ConditionViolation) as exc:
            MonotoneDoubleFactorisation(
                4,
                perm("(1 2 3 4)"),
                (Transposition(1, 4), Transposition(2, 3)),
                perm("(1 3)(2)(4)"),
                0,
            )
        assert str(exc.value) == "condition H2 violated: larger symbols not weakly increasing"

    @pytest.mark.parametrize("n", [2, 3])
    def test_counts_match_brute_force(self, n):
        for target in symmetric_group(n):
            for genus in (0, 1, 2):
                k = target.cycle_count - 1 + 2 * genus
                expected = len(monotone_double_tuples(target, k))
                assert count_monotone_double(target, genus) == expected
                assert len(enumerate_monotone_double(target, genus)) == expected

    def test_enumeration_matches_dp_in_s4(self):
        for target in symmetric_group(4):
            for genus in (0, 1):
                fs = enumerate_monotone_double(target, genus)
                assert len(fs) == count_monotone_double(target, genus)
                assert len({(f.sigma.images, f.factors) for f in fs}) == len(fs)

    def test_jm_interval_coefficients(self):
        # full cycle then tail: J_2...J_n times the complete homogeneous
        # part of degree c - 1 + 2g picks out the same count
        for n in (2, 3, 4):
            prefix = evaluate(h(), n)
            for k in range(2, n + 1):
                prefix = prefix * jm_element(n, k)
            for target in symmetric_group(n):
                for genus in (0, 1):
                    k = target.cycle_count - 1 + 2 * genus
                    elt = prefix * (evaluate(h(k), n) if k else evaluate(h(), n))
                    assert count_monotone_double(target, genus) == elt.coefficient(target)

    def test_record_lists_sigma_first(self):
        f = enumerate_monotone_double(perm("(1 2)(3)"), 0)[0]
        rec = f.to_record()
        assert rec["family"] == "monotone_double"
        assert rec["factors"][0] == "(1 2 3)"
        assert f.to_line() == "(1 2 3)(1 3)"


class TestStrictlyMonotone:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_term_count_identity(self, n):
        # expanding the degree-k elementary sum gives one strictly monotone
        # factorisation per permutation moved down by k cycles, so the class
        # count equals the subset sum of products of (s - 1)
        from itertools import combinations
        from math import prod

        for k in range(n):
            lhs = sum(1 for w in symmetric_group(n) if n - w.cycle_count == k)
            rhs = sum(
                prod(s - 1 for s in subset)
                for subset in combinations(range(2, n + 1), k)
            )
            assert lhs == rhs


class TestDoubleHurwitz:
    def test_worked_examples(self):
        assert count_double_hurwitz(3, Partition((3,)), Partition((2, 1)), 0) == 6
        assert b_number(3, Partition((2, 1)), 0) == 2
        assert count_double_hurwitz(2, Partition((2,)), Partition((2,)), 0) == 1
        assert b_number(2, Partition((2,)), 0) == 1
        # two full cycles, each with three two-step factorisations of its inverse
        assert count_double_hurwitz(3, Partition((3,)), Partition((1, 1, 1)), 0) == 6

    @pytest.mark.parametrize("n, genus", [(2, 0), (2, 1), (3, 0), (3, 1), (4, 0)])
    def test_counts_match_naive_oracle(self, n, genus):
        for alpha in partitions_of(n):
            for beta in partitions_of(n):
                expected = double_hurwitz_count(n, alpha, beta, genus)
                assert count_double_hurwitz(n, alpha, beta, genus) == expected, (alpha, beta)

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            count_double_hurwitz(3, Partition((2,)), Partition((3,)), 0)

    @pytest.mark.parametrize("genus", [0, 1])
    def test_degree_zero_rejected(self, genus):
        # at g = 0 the tuple length is -2, which no walk layer has
        with pytest.raises(ValueError, match=r"n must be at least 1 \(got 0\)"):
            count_double_hurwitz(0, Partition(()), Partition(()), genus)

    def test_negative_genus(self):
        assert count_double_hurwitz(3, Partition((3,)), Partition((3,)), -1) == 0

    def test_b_number_scales_by_class_size(self):
        total = count_double_hurwitz(3, Partition((3,)), Partition((2, 1)), 0)
        assert total == b_number(3, Partition((2, 1)), 0) * class_size(3, Partition((2, 1)))


class TestFullCycles:
    def test_count_and_degree(self):
        from math import factorial

        for n in (1, 2, 3, 4):
            cycles = full_cycles(n)
            assert len(cycles) == factorial(n - 1)
            assert all(w.cycle_count == 1 for w in cycles)

    def test_equal_class_listing(self):
        got = {w.images for w in full_cycles(4)}
        expected = {w.images for w in conjugacy_classes(4)[Partition((4,))]}
        assert got == expected


class TestCountsAgreeAcrossFamilies:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_star_equals_monotone_double(self, n):
        for lam in partitions_of(n):
            w = class_representative(lam)
            for genus in (0, 1):
                assert count_star(w, genus, n) == count_monotone_double(w, genus)

    def test_star_monotone_double_and_feray_agree_on_every_class_of_s8(self):
        for lam in partitions_of(8):
            rep = class_representative(lam)
            for genus in (0, 1):
                star = count_star(rep, genus, 8)
                assert star == count_monotone_double(rep, genus) == feray_count(lam, genus), (
                    str(lam), genus)


class TestWalkTables:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_coding_matches_value_swaps(self, n):
        perms, index, act = factorisations._coding(n)
        assert perms == tuple(map(bytes, permutations(range(1, n + 1))))
        assert index == {p: r for r, p in enumerate(perms)}
        assert {t: list(row) for t, row in act.items()} == swap_rank_rows(n)

    def test_monotone_double_shares_the_natural_monotone_walk(self):
        w = perm("(1 2 3)(4 5)")
        factorisations._WALKS.clear()
        assert count_monotone_double(w, 1) == len(enumerate_monotone_double(w, 1))
        assert count_monotone(w, 1) == len(enumerate_monotone(w, 1))
        assert list(factorisations._WALKS) == [(5, ("monotone",))]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_monotone_double_sweep_is_the_count_at_every_target(self, n):
        assert list(monotone_double_sweep(n, 2)) == [
            [count_monotone_double(w, genus) for w in symmetric_group(n)] for genus in range(3)]

    def test_monotone_double_sweep_is_one_cached_class_walk(self):
        factorisations._WALKS.clear()
        assert list(monotone_double_sweep(4, -1)) == []
        assert not factorisations._WALKS
        list(monotone_double_sweep(4, 1))
        list(monotone_double_sweep(4, 0))
        assert list(factorisations._WALKS) == [(4, ("monotone-double",))]

    def test_unconstrained_star_shares_the_star_walk(self):
        w = perm("(1 2 3)(4 5)")
        factorisations._WALKS.clear()
        assert count_star(w, 1, 2) == len(enumerate_star(w, 1, 2))
        assert count_star_unconstrained(w, 7, 2) == len(star_tuples(w, 7, 2, transitive=False))
        assert list(factorisations._WALKS) == [(5, ("star", 2))]


    def test_star_walk_is_one_entry_of_leg_prefix_groups(self):
        # the leg-prefix aux k = 0..5 keeps at most (k+1)!/2 ranks per group
        # in a layer, 436 in all; a covered-leg mask would keep up to 815
        factorisations._WALKS.clear()
        count_star(Permutation.identity(6), 2, 6)
        assert list(factorisations._WALKS) == [(6, ("star", 6))]
        layers = factorisations._WALKS[6, ("star", 6)][0]
        assert len(layers) == star_length(Permutation.identity(6), 2) + 1
        assert max(sum(map(len, layer.values())) for layer in layers) <= 436


class TestMonotoneOrdersRelabelToTheNaturalOrder:
    """Monotone factorisations under an order o, with every symbol s
    relabelled by its rank rho(s) under o, are the natural ones of rho w
    rho^{-1}; ``count_monotone`` reads every order that way."""

    ORDERS = [TotalOrder(seq) for seq in permutations(range(1, 5))]

    def test_relabelled_listing_is_the_natural_listing(self):
        # counts are class functions, so they cannot tell rho from its
        # inverse; the factors can
        for order in self.ORDERS:
            rho = {s: order.rank(s) for s in range(1, 5)}
            for w in symmetric_group(4):
                images = [0] * 4
                for s in range(1, 5):
                    images[rho[s] - 1] = rho[w.apply(s)]
                relabelled_target = Permutation(images)
                for genus in (0, 1):
                    relabelled = [tuple(tuple(sorted((rho[t.a], rho[t.b]))) for t in f.factors)
                                  for f in enumerate_monotone(w, genus, order)]
                    natural = [tuple((t.a, t.b) for t in f.factors)
                               for f in enumerate_monotone(relabelled_target, genus)]
                    assert len(set(relabelled)) == len(relabelled) == len(natural)
                    assert set(relabelled) == set(natural), (str(w), genus, str(order))

    def test_count_is_the_listing_under_every_order_of_s4(self):
        for order in self.ORDERS:
            for w in symmetric_group(4):
                for genus in (0, 1, 2):
                    expected = len(enumerate_monotone(w, genus, order))
                    assert count_monotone(w, genus, order) == expected, (str(w), genus, str(order))


class TestDpMatchesListingsInS5:
    """Every class of S_5 at g <= 1: each DP count against its lister, or
    against brute force where no lister exists."""

    CLASSES = [class_representative(lam) for lam in partitions_of(5)]

    def test_star_at_every_target_and_root_in_genus_0(self):
        # targets that fix 0 to 4 legs and move or fix the root: every term
        # count of the inclusion-exclusion over left-out legs
        for w in symmetric_group(5):
            for root in range(1, 6):
                expected = len(enumerate_star(w, 0, root))
                assert count_star(w, 0, root) == expected, (str(w), root)

    def test_star_at_every_root(self):
        for w in self.CLASSES:
            for genus in (0, 1):
                for root in range(1, 6):
                    expected = len(enumerate_star(w, genus, root))
                    assert count_star(w, genus, root) == expected, (str(w), genus, root)

    def test_star_unconstrained_at_lengths_up_to_5(self):
        for w in self.CLASSES:
            for root in range(1, 6):
                for length in range(6):
                    expected = len(star_tuples(w, length, root, transitive=False))
                    assert count_star_unconstrained(w, length, root) == expected

    def test_monotone_under_the_order_panel(self):
        for w in self.CLASSES:
            for genus in (0, 1):
                for order in order_panel(5):
                    expected = len(enumerate_monotone(w, genus, order))
                    assert count_monotone(w, genus, order) == expected, (str(w), genus, order)

    def test_monotone_double(self):
        for w in self.CLASSES:
            for genus in (0, 1):
                expected = len(enumerate_monotone_double(w, genus))
                assert count_monotone_double(w, genus) == expected, (str(w), genus)

    def test_walk_cache_stays_bounded_over_every_order(self):
        ident = Permutation.identity(5)
        factorisations._WALKS.clear()
        for seq in permutations(range(1, 6)):
            order = TotalOrder(seq)
            assert count_monotone(ident, 1, order) == len(enumerate_monotone(ident, 1, order))
            assert len(factorisations._WALKS) <= factorisations._WALK_CACHE_SIZE
        assert list(factorisations._WALKS) == [(5, ("monotone",))]


# Every record condition, the expression that breaks it, and the exception
# it raises, with the message of the original checks.  Run in process and
# under ``python -O``, which must not drop any of them.
RECORD_CHECKS = [
    ('star root range', 'StarFactorisation(3, 4, (1, 2, 1), perm("(1 2)(3)"), 0)', 'ValueError', 'root 4 outside [3]'),
    ('star target degree', 'StarFactorisation(3, 3, (1, 2, 1), perm("(1 2)(3)(4)"), 0)', 'ValueError', 'target degree differs from n'),
    ('star leg at root', 'StarFactorisation(3, 3, (1, 3, 2), perm("(1 2)(3)"), 0)', 'ValueError', 'legs must avoid the root and stay in [3]'),
    ('star leg range', 'StarFactorisation(3, 3, (1, 4, 2), perm("(1 2)(3)"), 0)', 'ValueError', 'legs must avoid the root and stay in [3]'),
    ("star S2'", 'StarFactorisation(3, 3, (1, 1, 1), perm("(1 2)(3)"), 0)', 'ConditionViolation', "condition S2' violated: (2 3) never appears"),
    ('star S1', 'StarFactorisation(3, 3, (1, 2, 1, 1), perm("(1 2)(3)"), 0)', 'ConditionViolation', 'condition S1 violated: length 4 != 3 + 2 - 2 + 2*0'),
    ('star S1 negative genus', 'StarFactorisation(3, 3, (1, 2, 1), perm("(1 2)(3)"), -1)', 'ConditionViolation', 'condition S1 violated: length 3 != 3 + 2 - 2 + 2*-1'),
    ('star product', 'StarFactorisation(3, 3, (1, 2, 2), perm("(1 2)(3)"), 0)', 'ConditionViolation', 'condition product violated: factors do not multiply to (1 2)(3)'),
    ("star from_legs S2'", 'StarFactorisation.from_legs(3, 3, (1, 1), perm("(2 3)", 3))', 'ConditionViolation', "condition S2' violated: (2 3) never appears"),
    ('star from_legs S1', 'StarFactorisation.from_legs(3, 3, (1, 2, 1, 1), perm("(1 2)(3)"))', 'ConditionViolation', 'condition S1 violated: length 4 has no genus: 3 + 2 - 2 + 2g'),
    ('monotone order degree', 'MonotoneFactorisation(3, TotalOrder.natural(4), (T(1, 2),), perm("(1 2)(3)"), 0)', 'ValueError', 'order/target degree differs from n'),
    ('monotone target degree', 'MonotoneFactorisation(3, TotalOrder.natural(3), (T(1, 2),), perm("(1 2)(3)(4)"), 0)', 'ValueError', 'order/target degree differs from n'),
    ('monotone symbol range', 'MonotoneFactorisation(3, TotalOrder.natural(3), (T(1, 4),), perm("(1 2)(3)"), 0)', 'ValueError', 'factor symbol outside [3]'),
    ('monotone H2', 'MonotoneFactorisation(3, TotalOrder.natural(3), (T(1, 3), T(1, 2)), perm("(1 3 2)"), 0)', 'ConditionViolation', 'condition H2 violated: larger symbols not weakly increasing under 1<2<3'),
    ('monotone H2 other order', 'MonotoneFactorisation(3, TotalOrder.parse("3<2<1"), (T(1, 2), T(2, 3)), perm("(1 2 3)"), 0)', 'ConditionViolation', 'condition H2 violated: larger symbols not weakly increasing under 3<2<1'),
    ('monotone H1', 'MonotoneFactorisation(3, TotalOrder.natural(3), (T(1, 2),) * 3, perm("(1 2)", 3), 0)', 'ConditionViolation', 'condition H1 violated: length 3 != 3 - 2 + 2*0'),
    ('monotone H1 negative genus', 'MonotoneFactorisation(3, TotalOrder.natural(3), (T(1, 2),), perm("(1 2)", 3), -1)', 'ConditionViolation', 'condition H1 violated: length 1 != 3 - 2 + 2*-1'),
    ('monotone product', 'MonotoneFactorisation(3, TotalOrder.natural(3), (T(1, 3),), perm("(1 2)", 3), 0)', 'ConditionViolation', 'condition product violated: factors do not multiply to (1 2)(3)'),
    ('monotone from_factors H1', 'MonotoneFactorisation.from_factors(3, TotalOrder.natural(3), (T(1, 2),) * 2, perm("(1 2)", 3))', 'ConditionViolation', 'condition H1 violated: length 2 has no genus: 3 - 2 + 2g'),
    ('md sigma degree', 'MonotoneDoubleFactorisation(3, perm("(1 2 3 4)"), (), perm("(1 2 3)"), 0)', 'ValueError', 'sigma/target degree differs from n'),
    ('md target degree', 'MonotoneDoubleFactorisation(3, perm("(1 2 3)"), (), perm("(1 2 3)(4)"), 0)', 'ValueError', 'sigma/target degree differs from n'),
    ('md symbol range', 'MonotoneDoubleFactorisation(3, perm("(1 2 3)"), (T(1, 5),), perm("(1 2)(3)"), 0)', 'ValueError', 'factor symbol outside [3]'),
    ('md H0', 'MonotoneDoubleFactorisation(3, perm("(1 2)(3)"), (T(1, 2),), perm("(1)(2)(3)"), 0)', 'ConditionViolation', 'condition H0 violated: (1 2)(3) is not a full cycle'),
    ('md H1', 'MonotoneDoubleFactorisation(3, perm("(1 2 3)"), (T(1, 2),), perm("(1 2 3)"), 0)', 'ConditionViolation', 'condition H1 violated: tail length 1 != 1 - 1 + 2*0'),
    ('md H1 negative genus', 'MonotoneDoubleFactorisation(3, perm("(1 2 3)"), (), perm("(1 2 3)"), -1)', 'ConditionViolation', 'condition H1 violated: tail length 0 != 1 - 1 + 2*-1'),
    ('md H2', 'MonotoneDoubleFactorisation(3, perm("(1 2 3)"), (T(1, 3), T(1, 2)), perm("(1)(2)(3)"), 0)', 'ConditionViolation', 'condition H2 violated: larger symbols not weakly increasing'),
    ('md product', 'MonotoneDoubleFactorisation(3, perm("(1 2 3)"), (T(1, 2),), perm("(1 2)(3)"), 0)', 'ConditionViolation', 'condition product violated: factors do not multiply to (1 2)(3)'),
    ('md from_factors H1', 'MonotoneDoubleFactorisation.from_factors(3, perm("(1 2 3)"), (T(1, 2),), perm("(1 2 3)"))', 'ConditionViolation', 'condition H1 violated: tail length 1 has no genus: 1 - 1 + 2g'),
    # two conditions broken at once, the later one earlier in the tuple: the
    # check made first must still be the one that reports
    ("star leg range before S2'", 'StarFactorisation(4, 4, (1, 1, 5), perm("(1 2)(3)(4)"), 0)', 'ValueError', 'legs must avoid the root and stay in [4]'),
    ("star leg at root before S2'", 'StarFactorisation(3, 3, (1, 1, 3), perm("(1 2)(3)"), 0)', 'ValueError', 'legs must avoid the root and stay in [3]'),
    ("star S2' before S1", 'StarFactorisation(3, 3, (1, 1, 1, 1, 1), perm("(1 2)(3)"), 0)', 'ConditionViolation', "condition S2' violated: (2 3) never appears"),
    ('star from_legs root range', 'StarFactorisation.from_legs(3, 4, (1, 2, 1), perm("(1 2)(3)"))', 'ValueError', 'root 4 outside [3]'),
    ("star from_legs S2' before S1", 'StarFactorisation.from_legs(3, 3, (1, 1, 1, 1), perm("(1 2)(3)"))', 'ConditionViolation', "condition S2' violated: (2 3) never appears"),
    ('star from_legs root range before S1', 'StarFactorisation.from_legs(3, 4, (1, 2, 1, 1), perm("(1 2)(3)"))', 'ValueError', 'root 4 outside [3]'),
    ('monotone from_factors H2 before H1', 'MonotoneFactorisation.from_factors(3, TotalOrder.natural(3), (T(1, 3), T(1, 2)), perm("(1 2)", 3))', 'ConditionViolation', 'condition H2 violated: larger symbols not weakly increasing under 1<2<3'),
    ('monotone from_factors symbol range before H1', 'MonotoneFactorisation.from_factors(3, TotalOrder.natural(3), (T(1, 5), T(1, 2)), perm("(1 2)", 3))', 'ValueError', 'factor symbol outside [3]'),
    ('md from_factors H0 before H1', 'MonotoneDoubleFactorisation.from_factors(3, perm("(1 2)(3)"), (T(1, 2),), perm("(1)(2)(3)"))', 'ConditionViolation', 'condition H0 violated: (1 2)(3) is not a full cycle'),
    ('star S1 before product', 'StarFactorisation(3, 3, (1, 2, 2, 1), perm("(1 2)(3)"), 0)', 'ConditionViolation', 'condition S1 violated: length 4 != 3 + 2 - 2 + 2*0'),
    ('monotone symbol range before H2', 'MonotoneFactorisation(3, TotalOrder.natural(3), (T(1, 3), T(1, 2), T(1, 4)), perm("(1 2)(3)"), 0)', 'ValueError', 'factor symbol outside [3]'),
    ('monotone H2 before H1', 'MonotoneFactorisation(3, TotalOrder.natural(3), (T(1, 3), T(1, 2), T(1, 2)), perm("(1 2)(3)"), 0)', 'ConditionViolation', 'condition H2 violated: larger symbols not weakly increasing under 1<2<3'),
    ('monotone H1 before product', 'MonotoneFactorisation(3, TotalOrder.natural(3), (T(1, 3), T(1, 3), T(2, 3)), perm("(1 2)(3)"), 0)', 'ConditionViolation', 'condition H1 violated: length 3 != 3 - 2 + 2*0'),
    ('md symbol range before H0 and H2', 'MonotoneDoubleFactorisation(3, perm("(1 2)(3)"), (T(1, 3), T(1, 2), T(2, 5)), perm("(1 2 3)"), 0)', 'ValueError', 'factor symbol outside [3]'),
    ('md H0 before H2', 'MonotoneDoubleFactorisation(3, perm("(1 2)(3)"), (T(1, 3), T(1, 2)), perm("(1 2 3)"), 0)', 'ConditionViolation', 'condition H0 violated: (1 2)(3) is not a full cycle'),
    ('md H1 before H2', 'MonotoneDoubleFactorisation(3, perm("(1 2 3)"), (T(1, 3), T(1, 2), T(1, 2)), perm("(1 2 3)"), 0)', 'ConditionViolation', 'condition H1 violated: tail length 3 != 1 - 1 + 2*0'),
    ('md H2 before product', 'MonotoneDoubleFactorisation(3, perm("(1 2 3)"), (T(1, 3), T(1, 2)), perm("(1 2 3)"), 1)', 'ConditionViolation', 'condition H2 violated: larger symbols not weakly increasing'),
]

RECORD_CHECK_PRELUDE = """
from starfact.factorisations import (
    MonotoneDoubleFactorisation, MonotoneFactorisation, StarFactorisation,
)
from starfact.perms import Permutation, TotalOrder, Transposition as T
perm = Permutation.parse
"""


def _raised(code: str, namespace: dict) -> tuple[str, str] | None:
    try:
        eval(code, namespace)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return None


class TestEveryRecordCheck:
    @pytest.mark.parametrize("label, code, kind, message", RECORD_CHECKS,
                             ids=[case[0] for case in RECORD_CHECKS])
    def test_condition_raises_its_message(self, label, code, kind, message):
        namespace: dict = {}
        exec(RECORD_CHECK_PRELUDE, namespace)
        assert _raised(code, namespace) == (kind, message)

    def test_conditions_survive_optimisation(self):
        script = textwrap.dedent(RECORD_CHECK_PRELUDE) + textwrap.dedent("""
            import json, sys
            def raised(code):
                try:
                    eval(code)
                except Exception as exc:
                    return [type(exc).__name__, str(exc)]
            print(json.dumps([raised(code) for code in json.load(sys.stdin)]))
        """)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            input=json.dumps([code for _, code, _, _ in RECORD_CHECKS]),
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[kind, message] for _, _, kind, message in RECORD_CHECKS]


class TestProduct:
    def test_left_to_right_fold_of_every_short_sequence_in_s4(self):
        n = 4
        firsts = list(symmetric_group(n))
        seen = 0
        for length in range(5):
            for seq in product(all_transpositions(n), repeat=length):
                fold = Permutation.identity(n)
                for t in seq:
                    fold = fold * t.as_permutation(n)
                assert factorisations._product(n, seq) == fold.images
                assert factorisations._product(n, ((t.a, t.b) for t in seq)) == fold.images
                first = firsts[seen % len(firsts)]
                assert factorisations._product(n, seq, first) == (first * fold).images
                seen += 1
        assert seen == 1 + 6 + 6**2 + 6**3 + 6**4
