"""Core permutation, partition, transposition and order machinery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starfact import Partition, Permutation, TotalOrder, Transposition, partitions_of
from starfact.perms import (
    DegreeMismatchError,
    all_transpositions,
    class_representative,
    class_size,
    conjugacy_classes,
    conjugating_permutation,
    order_from_conjugator,
    sort_swaps,
)

from oracles import JoinCut, join_cut, spans_all


def perm(text, n=None):
    return Permutation.parse(text, n)


perms_of = st.integers(2, 6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(lambda images: Permutation(tuple(images)))


class TestPermutation:
    def test_left_to_right_product(self):
        assert str(perm("(1 2)", 3) * perm("(1 3)", 3)) == "(1 2 3)"

    def test_parse_and_str_round_trip(self):
        for text in ["(1 2)(3)", "(1 2 3)", "(1)(2)(3)", "(1 4)(2 3)"]:
            assert str(perm(text)) == text

    def test_parse_infers_degree(self):
        assert perm("(2 5)").n == 5

    def test_parse_rejects_repeats(self):
        with pytest.raises(ValueError):
            perm("(1 2)(2 3)")

    def test_identity_and_fixed_points(self):
        w = perm("(1 2)", 4)
        assert w.apply(3) == 3 and w.apply(4) == 4

    def test_cycle_type_and_count(self):
        w = perm("(1 2 3)(4 5)(6)")
        assert w.cycle_type() == Partition((3, 2, 1))
        assert w.cycle_count == 3

    def test_inverse(self):
        w = perm("(1 2 3)")
        assert w * w.inverse() == Permutation.identity(3)

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            perm("(1 2)", 2) * perm("(1 2)", 3)

    @given(perms_of, perms_of)
    def test_relabel_is_conjugation(self, w, d):
        if w.n != d.n:
            return
        rel = w.relabel(d)
        for s in range(1, w.n + 1):
            assert rel.apply(d.apply(s)) == d.apply(w.apply(s))

    @given(perms_of)
    def test_from_cycles_round_trip(self, w):
        assert Permutation.from_cycles(w.n, w.cycles()) == w


class TestPartition:
    def test_parse_and_str(self):
        assert str(Partition.parse("[3,1,1]")) == "[3,1,1]"
        assert Partition.parse("[]") == Partition(())

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((1, 3))

    def test_union_remove(self):
        lam = Partition((3, 1))
        assert lam.union(2) == Partition((3, 2, 1))
        assert lam.remove(1) == Partition((3,))

    def test_partitions_of_counts(self):
        for n, expected in [(0, 1), (1, 1), (2, 2), (3, 3), (4, 5), (5, 7), (6, 11)]:
            assert len(partitions_of(n)) == expected


class TestClasses:
    def test_class_sizes_sum_to_group_order(self):
        from math import factorial

        for n in range(1, 6):
            assert sum(class_size(n, lam) for lam in partitions_of(n)) == factorial(n)

    def test_class_members_have_the_type(self):
        for lam, members in conjugacy_classes(4).items():
            assert len(members) == class_size(4, lam)
            assert all(w.cycle_type() == lam for w in members)

    def test_representative(self):
        assert class_representative(Partition((3, 1))).cycle_type() == Partition((3, 1))

    @given(perms_of, perms_of)
    def test_conjugating_permutation(self, src, dst):
        if src.n != dst.n or src.cycle_type() != dst.cycle_type():
            return
        d = conjugating_permutation(src, dst)
        assert src.relabel(d.inverse()) == dst


class TestTransposition:
    def test_normalises(self):
        t = Transposition(4, 2)
        assert (t.a, t.b) == (2, 4)
        assert str(t) == "(2 4)"

    def test_contains_other(self):
        t = Transposition(2, 4)
        assert 2 in t and 4 in t and 3 not in t
        assert t.other(2) == 4

    def test_relabel(self):
        t = Transposition(1, 2)
        assert t.relabel(perm("(1 3)", 3)) == Transposition(2, 3)

    def test_all_transpositions(self):
        assert len(all_transpositions(5)) == 10


class TestTotalOrder:
    def test_parse_str(self):
        order = TotalOrder.parse("3<2<1")
        assert str(order) == "3<2<1"
        assert order.sequence == (3, 2, 1)

    def test_rank_precedes_larger(self):
        order = TotalOrder.parse("3<2<1")
        assert order.rank(3) == 1 and order.rank(1) == 3
        assert order.larger_of(Transposition(1, 3)) == 1

    def test_natural(self):
        assert TotalOrder.natural(3).is_natural
        assert not TotalOrder.parse("2<1<3").is_natural

    def test_swapped(self):
        order = TotalOrder.parse("3<2<1")
        assert order.swapped(1).sequence == (2, 3, 1)

    @given(st.permutations(list(range(1, 6))))
    def test_sort_swaps_reaches_natural(self, seq):
        order = TotalOrder(tuple(seq))
        for j in sort_swaps(order):
            order = order.swapped(j)
        assert order.is_natural

    @given(perms_of)
    def test_order_from_conjugator(self, d):
        order = order_from_conjugator(d)
        dinv = d.inverse()
        assert order.sequence == tuple(dinv.apply(i) for i in range(1, d.n + 1))


class TestJoinCut:
    @given(perms_of, st.data())
    def test_classification_tracks_cycle_count(self, w, data):
        n = w.n
        a = data.draw(st.integers(1, n - 1))
        b = data.draw(st.integers(a + 1, n))
        t = Transposition(a, b)
        after = w * t.as_permutation(n)
        kind = join_cut(w, t)
        delta = after.cycle_count - w.cycle_count
        assert (kind, delta) in {(JoinCut.JOIN, -1), (JoinCut.CUT, 1)}

    def test_join_merges_two_cycles(self):
        w = perm("(1 2)(3)")
        assert join_cut(w, Transposition(1, 3)) is JoinCut.JOIN
        assert join_cut(w, Transposition(1, 2)) is JoinCut.CUT


class TestDecompositions:
    def test_simple_reflections_rebuild_each_order(self):
        from itertools import permutations as iterperm

        for seq in iterperm(range(1, 5)):
            target = TotalOrder(seq)
            order = TotalOrder.natural(4)
            for j in reversed(sort_swaps(target)):
                order = order.swapped(j)
            assert order == target


def test_spans_all_oracle_helper():
    assert spans_all(3, [Transposition(1, 2), Transposition(2, 3)])
    assert not spans_all(3, [Transposition(1, 2)])
