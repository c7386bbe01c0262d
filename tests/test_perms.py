"""Core permutation, partition, transposition and order machinery."""

import copy
import pickle
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from starfact import Partition, Permutation, TotalOrder, Transposition, partitions_of
from starfact.perms import (
    DegreeMismatchError,
    all_transpositions,
    class_representative,
    class_size,
    conjugacy_classes,
    conjugating_permutation,
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


def fresh_cycles(images):
    """Cycles of a permutation, recomputed here from its images."""
    out, seen = [], set()
    for start in range(1, len(images) + 1):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        while images[cycle[-1] - 1] != start:
            cycle.append(images[cycle[-1] - 1])
            seen.add(cycle[-1])
        out.append(tuple(cycle))
    return tuple(out)


class TestCycleCache:
    """Cycles are computed once per object and kept; every query must still
    agree with a fresh decomposition, whichever constructor made the object
    and whichever query comes first."""

    QUERIES = {
        "cycles": lambda w: w.cycles(),
        "cycle_count": lambda w: w.cycle_count,
        "cycle_type": lambda w: w.cycle_type(),
        "str": str,
    }

    @staticmethod
    def expected(images):
        cycles = fresh_cycles(images)
        return {
            "cycles": cycles,
            "cycle_count": len(cycles),
            "cycle_type": Partition(tuple(sorted(map(len, cycles), reverse=True))),
            "str": "".join("(" + " ".join(map(str, c)) + ")" for c in cycles),
        }

    def built(self, n, images):
        """The permutation with these images from every constructor."""
        w = Permutation(images)
        rotation = Permutation(tuple(range(2, n + 1)) + (1,))
        yield "__init__", w
        yield "__mul__", rotation * w
        yield "inverse", w.inverse()
        yield "relabel", w.relabel(rotation)
        yield "from_cycles", Permutation.from_cycles(n, fresh_cycles(images))
        yield "parse", Permutation.parse(self.expected(images)["str"], n)

    def check(self, w, first: str, where) -> None:
        want = self.expected(w.images)
        order = [first] + [q for q in self.QUERIES if q != first]
        for _ in range(2):
            for query in order:
                assert self.QUERIES[query](w) == want[query], (where, query)
        assert w.cycles() is w.cycles()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_constructor_on_the_whole_group(self, n):
        firsts = list(self.QUERIES)
        for i, images in enumerate(permutations(range(1, n + 1))):
            for how, w in self.built(n, images):
                self.check(w, firsts[i % len(firsts)], (images, how))
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                if a != b:
                    w = Permutation.transposition(n, a, b)
                    self.check(w, firsts[(a + b) % len(firsts)], (n, a, b))
                    assert Transposition(a, b).as_permutation(n) == w

    def test_images_and_cycles_cannot_be_reassigned(self):
        w = Permutation.parse("(1 2 3)(4)")
        assert w.cycle_count == 2
        with pytest.raises(AttributeError):
            w.images = (1, 2, 3, 4)
        with pytest.raises(AttributeError):
            w._cycles = ((1,), (2,), (3,), (4,))
        with pytest.raises(AttributeError):
            del w.images
        assert w.images == (2, 3, 1, 4)
        assert (str(w), w.cycle_count) == ("(1 2 3)(4)", 2)

    @pytest.mark.parametrize("read_cycles_first", [False, True])
    def test_pickle_and_copy(self, read_cycles_first):
        w = Permutation.parse("(1 3)(2 4 5)")
        if read_cycles_first:
            w.cycles()
        for twin in (pickle.loads(pickle.dumps(w)), copy.deepcopy(w), copy.copy(w)):
            assert type(twin) is Permutation and twin == w and hash(twin) == hash(w)
            assert twin.cycles() == ((1, 3), (2, 4, 5))
            with pytest.raises(AttributeError):
                twin.images = w.images

    def test_transposition_memo_still_refuses(self):
        assert Permutation.transposition(4, 3, 1) is Permutation.transposition(4, 3, 1)
        with pytest.raises(ValueError, match=r"bad transposition \(2 2\) in S_4"):
            Permutation.transposition(4, 2, 2)
        with pytest.raises(ValueError, match=r"bad transposition \(1 5\) in S_4"):
            Transposition(1, 5).as_permutation(4)


class TestPartition:
    def test_parse_and_str(self):
        assert str(Partition.parse("[3,1,1]")) == "[3,1,1]"
        assert Partition.parse("[]") == Partition(())

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((1, 3))

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

    def test_equality_and_hash_ignore_argument_order(self):
        assert Transposition(3, 1) == Transposition(1, 3)
        assert not Transposition(3, 1) != Transposition(1, 3)
        assert hash(Transposition(3, 1)) == hash(Transposition(1, 3)) == hash((1, 3))
        assert Transposition(1, 2) != Transposition(1, 3)
        assert len({Transposition(a, b) for a in range(1, 5) for b in range(1, 5) if a != b}) == 6

    def test_never_equal_to_a_plain_pair(self):
        t = Transposition(1, 2)
        assert t != (1, 2) and (1, 2) != t
        assert not t == (1, 2) and not (1, 2) == t
        assert t != "(1 2)"

    def test_ordering_is_by_pair(self):
        ts = all_transpositions(5)
        assert ts == tuple(sorted(ts, key=lambda t: (t.a, t.b)))
        assert sorted(reversed(ts)) == list(ts)
        assert Transposition(1, 3) < Transposition(2, 3) <= Transposition(3, 2)
        assert Transposition(1, 3) > Transposition(1, 2) >= Transposition(2, 1)

    @pytest.mark.parametrize("compare", ["<", "<=", ">", ">="])
    def test_ordering_refuses_other_types(self, compare):
        for left, right in [(Transposition(1, 2), (1, 3)), ((1, 3), Transposition(1, 2))]:
            with pytest.raises(TypeError):
                eval(f"left {compare} right")

    def test_str_and_repr(self):
        assert str(Transposition(3, 1)) == "(1 3)"
        assert repr(Transposition(3, 1)) == "Transposition(a=1, b=3)"

    @pytest.mark.parametrize("a, b", [(2, 2), (0, 1), (1, 0), (-1, 2), (0, 0)])
    def test_refuses_bad_pairs(self, a, b):
        with pytest.raises(ValueError, match=rf"^bad transposition \({a} {b}\)$"):
            Transposition(a, b)

    def test_immutable_and_copyable(self):
        t = Transposition(4, 2)
        with pytest.raises(AttributeError):
            t.a = 1
        assert (t.a, t.b) == (2, 4)
        assert pickle.loads(pickle.dumps(t)) == t
        assert copy.deepcopy(t) == t and type(copy.copy(t)) is Transposition


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

    def test_shared_natural_order_cannot_be_reassigned(self):
        order = TotalOrder.natural(3)
        with pytest.raises(AttributeError):
            order.sequence = (3, 2, 1)
        with pytest.raises(AttributeError):
            order._rank = {3: 1, 2: 2, 1: 3}
        with pytest.raises(AttributeError):
            del order.sequence
        assert TotalOrder.natural(3) is order
        assert str(order) == "1<2<3" and order.rank(1) == 1

    def test_pickle_and_copy(self):
        order = TotalOrder.parse("2<3<1")
        for twin in (pickle.loads(pickle.dumps(order)), copy.deepcopy(order), copy.copy(order)):
            assert type(twin) is TotalOrder and twin == order and hash(twin) == hash(order)
            assert twin.rank(1) == 3
            with pytest.raises(AttributeError):
                twin.sequence = (1, 2, 3)

    @given(st.permutations(list(range(1, 6))))
    def test_sort_swaps_reaches_natural(self, seq):
        order = TotalOrder(tuple(seq))
        for j in sort_swaps(order.sequence):
            order = order.swapped(j)
        assert order.is_natural


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
            for j in reversed(sort_swaps(target.sequence)):
                order = order.swapped(j)
            assert order == target


def test_spans_all_oracle_helper():
    assert spans_all(3, [Transposition(1, 2), Transposition(2, 3)])
    assert not spans_all(3, [Transposition(1, 2)])
