"""Text round trips for the core types and the CLI input helpers."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from starfact import (
    MonotoneDoubleFactorisation,
    MonotoneFactorisation,
    Partition,
    Permutation,
    StarFactorisation,
    TotalOrder,
    Transposition,
)
from starfact.cli import (
    UsageError,
    _parse_factors,
    _parse_legs,
    _parse_order,
    _parse_partition,
    _parse_permutation,
)
from starfact.factorisations import (
    enumerate_monotone,
    enumerate_monotone_double,
    enumerate_star,
)
from starfact.perms import Frozen
from starfact.verify import CheckResult, SuiteReport, SuiteSpec, suite_theorem_1_1


perms = st.integers(1, 6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(lambda images: Permutation(tuple(images)))

orders = st.integers(1, 6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(lambda seq: TotalOrder(tuple(seq)))


class TestTextRoundTrips:
    @given(perms)
    def test_permutation(self, w):
        assert Permutation.parse(str(w), w.n) == w
        assert Permutation.parse(str(w)) == w  # degree recoverable: all symbols shown

    @given(orders)
    def test_order(self, order):
        assert TotalOrder.parse(str(order)) == order

    @given(st.lists(st.integers(1, 9), min_size=0, max_size=6))
    def test_partition(self, parts):
        lam = Partition(tuple(sorted(parts, reverse=True)))
        assert Partition.parse(str(lam)) == lam

    def test_transposition(self):
        assert str(Transposition(3, 1)) == "(1 3)"


class TestRecords:
    def test_star_record_keys(self):
        f = enumerate_star(Permutation.parse("(1 2)(3)"), 0, 3)[0]
        rec = f.to_record()
        assert set(rec) == {"family", "n", "root", "genus", "target", "factors"}
        assert rec["family"] == "star"
        assert isinstance(rec["factors"], list)

    def test_monotone_record_keys(self):
        f = enumerate_monotone(Permutation.parse("(1 3 2)"), 0)[0]
        rec = f.to_record()
        assert set(rec) == {"family", "n", "root", "genus", "target", "factors", "order"}
        assert rec["root"] is None

    def test_monotone_double_record_keys(self):
        f = enumerate_monotone_double(Permutation.parse("(1 2)(3)"), 0)[0]
        rec = f.to_record()
        assert set(rec) == {"family", "n", "root", "genus", "target", "factors"}
        assert rec["family"] == "monotone_double"
        # the leading factor is the full cycle, the rest the tail
        assert rec["factors"] == ["(1 2 3)", "(1 3)"]

    def test_line_formats(self):
        star = enumerate_star(Permutation.parse("(1 2)(3)"), 0, 3)[0]
        assert star.to_line() == "(1 3)(2 3)(1 3)"
        mono = enumerate_monotone(Permutation.parse("(1 3 2)"), 0)[0]
        assert mono.to_line() == "(1 2)(2 3)"
        md = enumerate_monotone_double(Permutation.parse("(1 2 3)"), 0)[0]
        assert md.to_line() == "(1 2 3)"


def _perm(text):
    return Permutation.parse(text)


# each record class, built positionally and by keyword, with its repr
RECORDS = {
    "Partition": (
        lambda: Partition((3, 1)),
        lambda: Partition(parts=[3, 1]),
        "Partition(parts=(3, 1))",
    ),
    "Partition-empty": (lambda: Partition(), lambda: Partition(parts=()), "Partition(parts=())"),
    "StarFactorisation": (
        lambda: StarFactorisation(3, 3, (1, 2, 1), _perm("(1 2)(3)"), 0),
        lambda: StarFactorisation(n=3, root=3, legs=(1, 2, 1), target=_perm("(1 2)(3)"), genus=0),
        "StarFactorisation(n=3, root=3, legs=(1, 2, 1), target=Permutation.parse('(1 2)(3)'),"
        " genus=0)",
    ),
    "MonotoneFactorisation": (
        lambda: MonotoneFactorisation(3, TotalOrder.natural(3),
                                      (Transposition(1, 2), Transposition(2, 3)), _perm("(1 3 2)"), 0),
        lambda: MonotoneFactorisation(n=3, order=TotalOrder((1, 2, 3)), target=_perm("(1 3 2)"),
                                      factors=(Transposition(1, 2), Transposition(2, 3)), genus=0),
        "MonotoneFactorisation(n=3, order=TotalOrder((1, 2, 3)), factors=(Transposition(a=1, b=2),"
        " Transposition(a=2, b=3)), target=Permutation.parse('(1 3 2)'), genus=0)",
    ),
    "MonotoneDoubleFactorisation": (
        lambda: MonotoneDoubleFactorisation(3, _perm("(1 2 3)"), (Transposition(1, 3),),
                                            _perm("(1 2)(3)"), 0),
        lambda: MonotoneDoubleFactorisation(n=3, sigma=_perm("(1 2 3)"), genus=0,
                                            factors=(Transposition(1, 3),), target=_perm("(1 2)(3)")),
        "MonotoneDoubleFactorisation(n=3, sigma=Permutation.parse('(1 2 3)'),"
        " factors=(Transposition(a=1, b=3),), target=Permutation.parse('(1 2)(3)'), genus=0)",
    ),
    "CheckResult": (
        lambda: CheckResult("a", True),
        lambda: CheckResult(label="a", passed=True, detail=""),
        "CheckResult(label='a', passed=True, detail='')",
    ),
    "SuiteReport": (
        lambda: SuiteReport("demo", (CheckResult("a", False, "x"),)),
        lambda: SuiteReport(checks=(CheckResult("a", False, detail="x"),), suite="demo"),
        "SuiteReport(suite='demo', checks=(CheckResult(label='a', passed=False, detail='x'),))",
    ),
    "SuiteSpec": (
        lambda: SuiteSpec("t", suite_theorem_1_1),
        lambda: SuiteSpec(name="t", runner=suite_theorem_1_1, caps={}),
        f"SuiteSpec(name='t', runner={suite_theorem_1_1!r}, caps={{}})",
    ),
}


class TestRecordValues:
    @pytest.mark.parametrize("kind", sorted(RECORDS))
    def test_equal_hash_repr_frozen_and_pickled(self, kind):
        positional, by_keyword, text = RECORDS[kind]
        a, b = positional(), by_keyword()
        assert a is not b and a == b and not a != b
        assert a != tuple(a.__dict__.values()) and a != object()
        if kind == "SuiteSpec":
            # its caps are a dict, so it has no hash
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
        assert repr(a) == repr(b) == text
        field = next(iter(a.__dict__))
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
        with pytest.raises(AttributeError):
            a.extra = None
        for twin in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
            assert twin == a and repr(twin) == text

    def test_default_caps_are_fresh_per_spec(self):
        assert SuiteSpec("t", suite_theorem_1_1).caps is not SuiteSpec("t", suite_theorem_1_1).caps

    def test_a_differing_field_breaks_equality(self):
        assert CheckResult("a", True) != CheckResult("a", True, "x")
        assert Partition((2, 1)) != Partition((3,))

    def test_equality_and_hash_are_defined_once(self):
        # every record takes __eq__ and __hash__ from Frozen, which reads _fields
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        records = [cls for cls in subclasses(Frozen) if "_fields" in vars(cls)]
        assert {cls.__name__ for cls in records} == {
            type(positional()).__name__ for positional, _, _ in RECORDS.values()}
        for cls in records:
            assert not {"__eq__", "__hash__"} & set(vars(cls)), cls.__name__


class TestInputHelpers:
    def test_permutation_accepts_and_rejects(self):
        assert _parse_permutation("(1 2)(3)", 3) == Permutation.parse("(1 2)", 3)
        with pytest.raises(UsageError, match="bad permutation"):
            _parse_permutation("(1 2", 3)
        with pytest.raises(UsageError, match="bad permutation"):
            _parse_permutation("(1 2)(2 3)", 3)

    def test_partition(self):
        assert _parse_partition("[3,1]") == Partition((3, 1))
        with pytest.raises(UsageError, match="bad partition"):
            _parse_partition("3,1")

    def test_order_checks_width(self):
        assert _parse_order("2<1<3", 3) == TotalOrder((2, 1, 3))
        with pytest.raises(UsageError, match="expected 3"):
            _parse_order("2<1", 3)
        with pytest.raises(UsageError, match="bad order"):
            _parse_order("2<<1", 3)

    def test_legs(self):
        assert _parse_legs("1,2,1") == (1, 2, 1)
        assert _parse_legs("") == ()
        with pytest.raises(UsageError, match="bad legs"):
            _parse_legs("1,x")

    def test_factors(self):
        assert _parse_factors("(1 3)(2 3)") == (Transposition(1, 3), Transposition(2, 3))
        assert _parse_factors("(1 3), (2 3)") == (
            Transposition(1, 3),
            Transposition(2, 3),
        )
        assert _parse_factors("") == ()
        with pytest.raises(UsageError, match="leftover text"):
            _parse_factors("(1 3) junk")
        with pytest.raises(UsageError, match="not a transposition"):
            _parse_factors("(2 2)")
