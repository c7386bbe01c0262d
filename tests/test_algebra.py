"""Group algebra: deferred-slot elements, symmetric polynomials in them,
and the transitivity operator.

The frozen fourth-power table guards against sign or convention drift; the
oracle recomputes it by expanding words of star transpositions literally.
"""

import importlib
import pkgutil
import random
import sys
from itertools import permutations, product
from math import factorial

import pytest

import starfact
from starfact import Partition, Permutation, TotalOrder, partitions_of
from starfact.algebra import (
    AlgebraElement,
    NotCentralError,
    _transitive_monomial,
    _transitive_move_list,
    _transitive_moves,
    class_sum,
    e,
    evaluate,
    format_class_decomposition,
    h,
    jm_element,
    jm_var,
    p,
    transitive_evaluate,
    transitive_power,
)
from starfact.formulas import recurrence_star
from starfact.perms import _PARTITIONS_CACHE_SIZE, conjugacy_classes, sort_swaps
from starfact.bijections import _ranks, _star_factors
from starfact.factorisations import (
    _WALK_CACHE_SIZE,
    _WALKS,
    _rank_sorted_moves,
    count_double_hurwitz,
    count_monotone,
    count_monotone_double,
    count_star,
    star_length,
)
from starfact.perms import class_representative, symmetric_group
from starfact.verify import run_suite

from oracles import jm_power_table, set_partitions, slot_expansion, transitive_monomial


def perm(text, n=None):
    return Permutation.parse(text, n)


def monomials(nmax, wmax):
    """(n, exponents of slots 2..n) for every monomial of weight <= wmax,
    1 <= n <= nmax."""
    for n in range(1, nmax + 1):
        for exps in product(range(wmax + 1), repeat=n - 1):
            if sum(exps) <= wmax:
                yield n, exps


class TestElements:
    def test_first_slot_is_zero(self):
        assert jm_element(4, 1) == AlgebraElement.zero(4)

    def test_slot_three(self):
        j3 = jm_element(3, 3)
        assert j3.coefficient(perm("(1 3)", 3)) == 1
        assert j3.coefficient(perm("(2 3)", 3)) == 1
        assert j3.support_size() == 2

    def test_slot_bounds(self):
        with pytest.raises(ValueError):
            jm_element(3, 0)
        with pytest.raises(ValueError):
            jm_element(3, 4)

    def test_slots_commute(self):
        els = {k: jm_element(5, k) for k in range(2, 6)}
        for i in range(2, 6):
            for j in range(2, 6):
                assert els[i] * els[j] == els[j] * els[i]

    def test_arithmetic(self):
        x = jm_element(3, 3)
        zero = AlgebraElement.zero(3)
        one = AlgebraElement.one(3)
        assert x * zero == zero and zero * x == zero
        assert x * one == x and one * x == x
        assert x - x == zero
        assert 2 * x == x + x
        assert x**0 == one and x**2 == x * x
        with pytest.raises(ValueError):
            x ** (-1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_product_composes_term_by_term(self, n):
        # the reference multiplies every pair of terms with Permutation.__mul__
        def reference(a, b):
            out = {}
            for p_images, c1 in a.terms.items():
                for q_images, c2 in b.terms.items():
                    r = (Permutation(p_images) * Permutation(q_images)).images
                    out[r] = out.get(r, 0) + c1 * c2
            return AlgebraElement(n, out)

        rng = random.Random(n)
        group = [w.images for w in symmetric_group(n)]
        dense = AlgebraElement(n, {w: rng.choice([-3, -1, 1, 2, 5]) for w in group})
        picked = rng.sample(group, min(3, len(group)))
        sparse = AlgebraElement(n, {w: rng.randint(-4, 4) or 1 for w in picked})
        jm = jm_element(n, n)
        elements = (dense, sparse, jm, -jm, AlgebraElement.one(n), AlgebraElement.zero(n))
        for a in elements:
            for b in elements:
                got, want = a * b, reference(a, b)
                assert got == want
                assert list(got.terms) == list(want.terms)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            jm_element(3, 2) * jm_element(4, 2)

    def test_class_sum_decomposition_is_trivial(self):
        for n in (2, 3, 4):
            for lam in partitions_of(n):
                assert class_sum(n, lam).decompose() == {lam: 1}

    def test_class_sum_degree_check(self):
        with pytest.raises(ValueError):
            class_sum(3, Partition((2,)))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_zero_is_central_without_reading_classes(self, monkeypatch, n):
        # zero has no coefficient to compare, so no class of S_n is walked
        def unread(n):
            raise AssertionError("conjugacy_classes called for the zero element")

        monkeypatch.setattr("starfact.algebra.conjugacy_classes", unread)
        zero = AlgebraElement.zero(n)
        assert zero.central_witness() is None
        assert zero.is_central()


class TestFourthPowerTable:
    def setup_method(self):
        self.j44 = jm_element(4, 4) ** 4

    def test_frozen_coefficients(self):
        expected = {
            "(1)(2)(3)(4)": 15,
            "(1 2 3)(4)": 3,
            "(1 3 2)(4)": 3,
            "(1 2 4)(3)": 8,
            "(1 4 2)(3)": 8,
            "(1 3 4)(2)": 8,
            "(1 4 3)(2)": 8,
            "(2 3 4)(1)": 8,
            "(2 4 3)(1)": 8,
            "(1 2)(3 4)": 4,
            "(1 3)(2 4)": 4,
            "(1 4)(2 3)": 4,
            "(1 2)(3)(4)": 0,
            "(1 2 3 4)": 0,
        }
        for text, coeff in expected.items():
            assert self.j44.coefficient(perm(text, 4)) == coeff, text

    def test_total_weight(self):
        assert sum(self.j44.terms.values()) == 3**4

    def test_matches_word_expansion(self):
        table = jm_power_table(4, 4, 4)
        for w in symmetric_group(4):
            assert self.j44.coefficient(w) == table.get(w, 0)

    def test_not_central(self):
        assert not self.j44.is_central()
        witness = self.j44.central_witness()
        assert witness is not None
        a, b = witness
        assert a.cycle_type() == b.cycle_type()
        assert self.j44.coefficient(a) != self.j44.coefficient(b)
        with pytest.raises(NotCentralError, match="not central: coefficient"):
            self.j44.decompose()

    def test_power_sum_is_central(self):
        p4 = evaluate(p(4), 4)
        assert p4.decompose() == {
            Partition((1, 1, 1, 1)): 22,
            Partition((3, 1)): 8,
            Partition((2, 2)): 4,
        }
        assert (
            format_class_decomposition(p4.decompose())
            == "22*K[1,1,1,1] + 8*K[3,1] + 4*K[2,2]"
        )


class TestExpansion:
    """Generator expansions against the ``itertools`` oracle."""

    @pytest.mark.parametrize("basis", [e, h, p], ids=["e", "h", "p"])
    def test_single_generators(self, basis):
        for n in range(1, 7):
            for k in range(7):
                assert basis(k).expand(n) == slot_expansion(basis.__name__, (k,), n), (n, k)

    @pytest.mark.parametrize("basis, parts", [(e, (2, 1)), (h, (1, 1)), (p, (2, 1))],
                             ids=["e21", "h11", "p21"])
    def test_products(self, basis, parts):
        for n in range(1, 7):
            assert basis(*parts).expand(n) == slot_expansion(basis.__name__, parts, n), n

    def test_edge_cases(self):
        for n in range(2, 7):
            zero = (0,) * (n - 1)
            assert p(0).expand(n) == {zero: n - 1}
            assert h(0).expand(n) == e().expand(n) == {zero: 1}
        # S_1 has no slots: only the constants survive
        assert p(0).expand(1) == {} == e(1).expand(1) == p(2).expand(1)
        assert h(0).expand(1) == e(0).expand(1) == {(): 1}
        assert h(3).expand(1) == {}


class TestSymbolicEvaluation:
    def test_empty_products_are_one(self):
        for n in (1, 2, 3):
            assert evaluate(e(), n) == AlgebraElement.one(n)
            assert evaluate(e(0), n) == AlgebraElement.one(n)
            assert evaluate(h(0), n) == AlgebraElement.one(n)

    def test_degree_zero_power_sum_counts_slots(self):
        # p_0 is the number of variables, here the n - 1 usable slots
        assert evaluate(p(0), 4) == 3 * AlgebraElement.one(4)

    def test_too_high_elementary_vanishes(self):
        assert evaluate(e(5), 3) == AlgebraElement.zero(3)
        assert evaluate(e(3), 3) == AlgebraElement.zero(3)

    def test_slot_variable(self):
        assert evaluate(jm_var(3), 3) == jm_element(3, 3)
        assert evaluate(jm_var(3) ** 2, 4) == jm_element(4, 3) ** 2
        with pytest.raises(ValueError):
            jm_var(1)
        with pytest.raises(ValueError):
            evaluate(jm_var(4), 3)

    def test_power_zero_keeps_its_base(self):
        # x^0 is 1, but a slot the degree lacks is refused at every exponent
        assert (jm_var(3) ** 0).expand(3) == {(0, 0): 1}
        for k in (0, 1, 3):
            with pytest.raises(ValueError, match="slot 7 absent for n=3"):
                evaluate(jm_var(7) ** k, 3)
            with pytest.raises(ValueError, match="slot 7 absent for n=3"):
                transitive_evaluate(jm_var(7) ** k, 3)

    def test_power_past_the_recursion_limit(self):
        k = sys.getrecursionlimit() + 200
        assert (jm_var(2) ** k).expand(3) == {(k, 0): 1}
        assert ((jm_var(2) + jm_var(3)) ** 2).expand(3) == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
        # symbol 3 is never moved by a power of the slot-2 variable
        assert transitive_evaluate(jm_var(2) ** k, 3) == AlgebraElement.zero(3)
        # words in (1 3), (2 3) span {1, 2, 3} unless they use one letter only
        top = transitive_evaluate(jm_var(3) ** k, 3)
        assert sum(top.terms.values()) == 2**k - 2

    def test_monomials_match_explicit_products(self):
        # the canonical product, slots ascending, against the regrouped fold
        for n, exps in monomials(5, 5):
            expr, expected = e(), AlgebraElement.one(n)
            for j, a in enumerate(exps, 2):
                expr = expr * jm_var(j) ** a
                expected = expected * jm_element(n, j) ** a
            assert evaluate(expr, n) == expected, (n, exps)
            assert evaluate(-3 * expr, n) == -3 * expected, (n, exps)

    def test_mixed_polynomials_match_explicit_products(self):
        # coefficients spread over shared and unshared exponent suffixes
        rng = random.Random(5)
        for n in (2, 3, 4, 5):
            for _ in range(10):
                expr, expected = e() - 1, AlgebraElement.zero(n)
                for _ in range(rng.randint(1, 6)):
                    coeff = rng.choice([-2, -1, 1, 3])
                    term, value = e(), AlgebraElement.one(n)
                    for j in range(2, n + 1):
                        a = rng.randint(0, 3)
                        term = term * jm_var(j) ** a
                        value = value * jm_element(n, j) ** a
                    expr = expr + coeff * term
                    expected = expected + coeff * value
                assert evaluate(expr, n) == expected, n

    def test_high_degree_matches_the_monotone_dp(self):
        # h_k at the slots has, at w, the monotone count with 3 - c + 2g = k
        k = 1200
        got = evaluate(h(k), 3)
        for w in symmetric_group(3):
            twice_g = k - 3 + w.cycle_count
            expected = count_monotone(w, twice_g // 2) if twice_g % 2 == 0 else 0
            assert got.coefficient(w) == expected, w
        # the augmentation (every permutation to 1) sends J_j to j - 1, and
        # h_k(1, 2) is 2^(k + 1) - 1
        assert sum(got.terms.values()) == 2 ** (k + 1) - 1

    def test_expression_arithmetic_matches_algebra(self):
        n = 4
        lhs = evaluate((e(1) + 2) * h(1) - p(2), n)
        rhs = (
            (evaluate(e(1), n) + 2 * AlgebraElement.one(n)) * evaluate(h(1), n)
            - evaluate(p(2), n)
        )
        assert lhs == rhs

    def test_newton_identity_degree_two(self):
        # p_2 = e_1^2 - 2 e_2 holds after evaluation
        for n in (2, 3, 4):
            assert evaluate(p(2), n) == evaluate(e(1) ** 2 - 2 * e(2), n)

    def test_elementary_class_sums(self):
        report = run_suite("theorem-1.1", n=5)
        assert len(report.checks) == 5 and report.passed

    def test_elementary_decomposition_by_cycle_count(self):
        for n in (3, 4, 5):
            for k in range(n):
                got = evaluate(e(k), n).decompose()
                expected = {
                    lam: 1 for lam in partitions_of(n) if lam.length == n - k
                }
                assert got == expected

    @pytest.mark.parametrize("basis", [e, h, p], ids=["e", "h", "p"])
    def test_symmetric_values_are_central(self, basis):
        for n in (2, 3, 4):
            for weight in range(1, 5):
                for lam in partitions_of(weight):
                    assert evaluate(basis(*lam.parts), n).is_central(), (n, lam)


class TestTransitivityOperator:
    def test_kills_non_spanning_words(self):
        assert transitive_evaluate(e(1), 3) == AlgebraElement.zero(3)

    def test_keeps_spanning_words(self):
        t = transitive_evaluate(e(2), 3)
        assert t == evaluate(e(2), 3)
        assert t == class_sum(3, Partition((3,)))

    def test_worked_power(self):
        got = transitive_power(4, 4)
        assert got.decompose() == {Partition((3, 1)): 3, Partition((2, 2)): 4}
        assert format_class_decomposition(got.decompose()) == "3*K[3,1] + 4*K[2,2]"

    def test_methods_agree(self):
        # the layered walk against literal enumeration of the spanning words
        for n, exps in monomials(5, 5):
            expr = e()  # the empty product
            for j, a in enumerate(exps, 2):
                expr = expr * jm_var(j) ** a
            expected = AlgebraElement(
                n, {w.images: c for w, c in transitive_monomial(n, exps).items()}
            )
            assert transitive_evaluate(expr, n) == expected, (n, exps)

    def test_caches_stay_bounded(self):
        _transitive_monomial.cache_clear()
        sweep = list(monomials(5, 5))
        first = {}
        for i, (n, exps) in enumerate(sweep):
            _transitive_monomial(n, exps)
            # counting and double Hurwitz walks share the cache with these
            lam = partitions_of(n)[i % len(partitions_of(n))]
            counts = (
                count_star(class_representative(lam), 1, n),
                count_monotone_double(class_representative(lam), 0),
                count_double_hurwitz(n, lam, Partition((n,)), 1),
            )
            assert first.setdefault(lam, counts) == counts, lam
            assert len(_WALKS) <= _WALK_CACHE_SIZE
        # the memo holds each transitive value, so no transitive walk is kept
        assert not [key for _, key in _WALKS if key[0] == "transitive"]
        info = _transitive_monomial.cache_info()
        assert info.misses == info.currsize == len(sweep)
        assert _transitive_move_list.cache_info().currsize > 0
        # the value-type and class memos, driven past the degrees and orders
        # the package uses
        for n in range(1, 7):
            assert sum(map(len, conjugacy_classes(n).values())) == factorial(n)
        # the order memos of the listers and the rewrite core, past S_6's
        # orders, and the star factor tables past the roots of degree 10
        order_memos = (sort_swaps, _ranks, _rank_sorted_moves)
        for seq in permutations(range(1, 8)):
            sort_swaps(seq)
            _ranks(seq)
            _rank_sorted_moves(TotalOrder(seq))
        for n in range(1, 12):
            for root in range(1, n + 1):
                _star_factors(n, root)
        for memo in (*order_memos, _star_factors):
            info = memo.cache_info()
            assert info.misses > info.maxsize, memo.__wrapped__.__qualname__
        for n in range(2, 12):
            for a, b in permutations(range(1, n + 1), 2):
                Permutation.transposition(n, a, b)
            TotalOrder.natural(n)
        for n in range(_PARTITIONS_CACHE_SIZE + 4):
            partitions_of(n)
        for total in range(1, 9):
            for i in range(1, total + 1):
                for alpha in partitions_of(total - i):
                    recurrence_star(i, alpha, 3)
        assert conjugacy_classes.cache_info().currsize == 2
        # every module-level memo of the package, found rather than listed,
        # so a new unbounded one fails here
        memos = {
            obj
            for info in pkgutil.iter_modules(starfact.__path__, "starfact.")
            for obj in vars(importlib.import_module(info.name)).values()
            if hasattr(obj, "cache_info")
        }
        assert {_transitive_monomial, _transitive_move_list, conjugacy_classes, *order_memos,
                _star_factors} <= memos
        for memo in memos:
            info = memo.cache_info()
            assert info.maxsize is not None, memo.__qualname__
            assert info.currsize <= info.maxsize, memo.__qualname__

    def test_linear_over_expansion(self):
        n = 4
        assert transitive_evaluate(e(2) + h(3), n) == transitive_evaluate(
            e(2), n
        ) + transitive_evaluate(h(3), n)

    def test_powers_are_central(self):
        for n in (2, 3, 4):
            for t in range(n + 5):
                assert transitive_power(n, t).is_central(), (n, t)

    def test_power_coefficients_count_star_factorisations(self):
        for n in (2, 3, 4):
            for lam in partitions_of(n):
                w = class_representative(lam)
                for genus in (0, 1):
                    m = star_length(w, genus)
                    assert transitive_power(n, m).coefficient(w) == count_star(
                        w, genus, n
                    ), (lam, genus)

    def test_fixed_point_free_targets_need_no_filter(self):
        # words landing on a fixed-point-free permutation already span
        for n in (2, 3, 4):
            free = [w for w in symmetric_group(n) if all(w.apply(s) != s for s in range(1, n + 1))]
            for length in range(n + 3):
                plain = evaluate(jm_var(n) ** length, n) if n >= 2 else None
                filtered = transitive_power(n, length)
                for w in free:
                    assert filtered.coefficient(w) == plain.coefficient(w)

    @pytest.mark.parametrize("n", [3, 4])
    def test_not_multiplicative(self, n):
        # the operator annihilates each factor yet not their product
        joint = transitive_evaluate(e(n - 1) * e(1), n)
        assert joint != AlgebraElement.zero(n)
        left = transitive_evaluate(e(n - 1), n)
        right = transitive_evaluate(e(1), n)
        assert left * right == AlgebraElement.zero(n)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            transitive_power(3, -1)


class TestTopPowerClosedForm:
    def test_small_cases(self):
        report = run_suite("corollary-1.6", n=4, kmax=2)
        assert len(report.checks) == 9 and report.passed

    def test_worked_base_case(self):
        # degree n - 1 already forces every slot to appear exactly once
        assert transitive_power(3, 2) == jm_element(3, 2) * jm_element(3, 3)
        assert transitive_power(3, 2) == evaluate(e(2), 3)
        assert transitive_power(2, 1) == AlgebraElement.from_permutation(perm("(1 2)"))


class TestPrunedTransitiveWalk:
    """The transitive walk offers only moves after which the blocks can
    still be joined into one; its values against the brute-force oracle."""

    @staticmethod
    def oracle(n, expansion, memo):
        """The transitive value of an expansion, summed over the oracle's
        spanning words monomial by monomial."""
        total = {}
        for exps, coeff in expansion.items():
            if (n, exps) not in memo:
                memo[n, exps] = transitive_monomial(n, exps)
            for w, cnt in memo[n, exps].items():
                total[w.images] = total.get(w.images, 0) + coeff * cnt
        return AlgebraElement(n, total)

    def test_mixed_expressions_match_the_oracle(self):
        memo = {}
        for n in range(1, 6):
            # e_2 e_1 + 3 h_3 - p_2: mixed integer coefficients across monomials
            mixed = {}
            for kind, parts, coeff in (("e", (2, 1), 1), ("h", (3,), 3), ("p", (2,), -1)):
                for exps, c in slot_expansion(kind, parts, n).items():
                    mixed[exps] = mixed.get(exps, 0) + coeff * c
            got = transitive_evaluate(e(2, 1) + 3 * h(3) - p(2), n)
            assert got == self.oracle(n, mixed, memo), n
            for weight in range(n + 2):
                for lam in partitions_of(weight):
                    for basis in (e, h, p):
                        expansion = slot_expansion(basis.__name__, lam.parts, n)
                        assert transitive_evaluate(basis(*lam.parts), n) == self.oracle(
                            n, expansion, memo), (n, basis.__name__, lam)

    def test_short_and_slot_free_monomials(self):
        memo, trees = {}, 0
        for n, exps in monomials(5, 5):
            expr = 2 * e()
            for j, a in enumerate(exps, 2):
                expr = expr * jm_var(j) ** a
            got = transitive_evaluate(expr, n)
            assert got == self.oracle(n, {exps: 2}, memo), (n, exps)
            if n == 1:
                continue
            if sum(exps) < n - 1 or exps[-1] == 0:
                # too few factors to join n blocks, or symbol n never moved
                assert got == AlgebraElement.zero(n), (n, exps)
            elif sum(exps) == n - 1:
                # spanning words are then trees, whose products are full cycles
                assert all(Permutation(w).cycle_count == 1 for w in got.terms), (n, exps)
                trees += bool(got.terms)
        # a tree needs at least n - k + 1 edges with larger end in k..n, for
        # every k, so the nonzero monomials number C_(n-1): 1 + 2 + 5 + 14
        assert trees == 22

    def test_moves_keep_the_connect_bound(self):
        # every labelling of every set partition, at every position of slot
        # sequences shorter than, equal to and longer than n - 1
        for n in range(2, 7):
            labellings = [
                tuple(min(b for b in blocks if s in b) for s in range(n))
                for blocks in set_partitions(tuple(range(n)))
            ]
            for slots in ((n,) * (n - 2), tuple(range(2, n + 1)),
                          tuple(range(2, n + 1)) + (n, n)):
                for pos, j in enumerate(slots):
                    left = len(slots) - pos - 1
                    for blocks in labellings:
                        count = len(set(blocks))
                        offered = dict(_transitive_moves(slots, (pos, blocks)))
                        for i in range(1, j):
                            joins = blocks[i - 1] != blocks[j - 1]
                            can_connect = count - joins - 1 <= left
                            assert ((i, j) in offered) == can_connect, (slots, pos, blocks, i)
                            if can_connect:
                                nxt, joined = offered[i, j]
                                assert nxt == pos + 1 and len(set(joined)) == count - joins
