"""Permutations of {1..n}, integer partitions, transpositions and total orders.

Symbols are the integers 1..n throughout.  Products are read left to
right: ``(p * q)(x) == q(p(x))``, i.e. apply ``p`` first, then ``q``.

The values here are lean because factorisation records are validated on
them once per record: a :class:`Permutation` computes its cycles at most
once and keeps them, :meth:`Permutation.transposition` reads a bounded
memo, and a :class:`Transposition` is an immutable ``(a, b)`` pair that
costs one tuple to build.

>>> str(Permutation.parse("(1 2)", 3) * Permutation.parse("(1 3)", 3))
'(1 2 3)'
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import permutations as _iter_permutations
from math import factorial
from operator import attrgetter, itemgetter


class DegreeMismatchError(ValueError):
    """Two operands live in symmetric groups of different degree."""


class Frozen:
    """Base of the package's immutable values: assigning or deleting any
    attribute raises AttributeError.

    A record subclass names its fields in ``_fields`` and writes its own
    ``__init__``, which stores each field in the instance ``__dict__`` and
    then calls ``__post_init__`` to validate the record.  Equality, hash
    and ``repr`` are defined here once and read ``_fields`` alone: two
    records are equal when they share a class and their field values, the
    hash is that of the values, and a dict field leaves a record
    unhashable.  So a record is built, compared and pickled as a frozen
    dataclass would be, without the cost of importing ``dataclasses``.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        if "_fields" in vars(cls):
            cls._values = attrgetter(*cls._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign {name!r}: a {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: a {type(self).__name__} is immutable")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


# ---------------------------------------------------------------------------
# partitions


class Partition(Frozen):
    """A weakly decreasing tuple of positive integers; ``()`` is empty.

    >>> Partition((3, 1)).n, Partition((3, 1)).length
    (4, 2)
    """

    _fields = ("parts",)

    def __init__(self, parts: tuple[int, ...] = ()) -> None:
        self.__dict__["parts"] = parts
        self.__post_init__()

    def __post_init__(self) -> None:
        parts = self.__dict__["parts"] = tuple(self.parts)
        if any(x < 1 for x in parts):
            raise ValueError(f"parts must be positive: {parts}")
        if list(parts) != sorted(parts, reverse=True):
            raise ValueError(f"parts must weakly decrease: {parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __str__(self) -> str:
        return "[" + ",".join(str(x) for x in self.parts) + "]"

    @staticmethod
    def parse(text: str) -> "Partition":
        """Parse ``"[3,1,1]"`` (or ``"[]"``)."""
        text = text.strip()
        if not (text.startswith("[") and text.endswith("]")):
            raise ValueError(f"expected [a,b,...]: {text!r}")
        inner = text[1:-1].strip()
        if not inner:
            return Partition(())
        return Partition(tuple(int(tok) for tok in inner.split(",")))


# Degrees whose partition lists ``partitions_of`` keeps; the package's loops
# run over at most a dozen degrees.
_PARTITIONS_CACHE_SIZE = 32


@lru_cache(maxsize=_PARTITIONS_CACHE_SIZE)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of ``n`` in descending lexicographic order."""

    def gen(rest: int, cap: int) -> list[tuple[int, ...]]:
        if rest == 0:
            return [()]
        out = []
        for first in range(min(rest, cap), 0, -1):
            out.extend((first,) + tail for tail in gen(rest - first, first))
        return out

    return tuple(Partition(parts) for parts in gen(n, n))


# ---------------------------------------------------------------------------
# permutations


def _cycles_of(images: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Cycles of the permutation with these images, each starting at its
    smallest symbol, sorted by that symbol; fixed points included."""
    seen = [False] * (len(images) + 1)
    out = []
    for start in range(1, len(images) + 1):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        x = images[start - 1]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = images[x - 1]
        out.append(tuple(cyc))
    return tuple(out)


def _cycle_type_of(cycles) -> Partition:
    return Partition(tuple(sorted(map(len, cycles), reverse=True)))


class Permutation(Frozen):
    """A bijection of {1..n}, stored as the tuple of images of 1, 2, ..., n.

    The cycles are computed on first use and kept, so ``cycles()``,
    ``cycle_count``, ``cycle_type()`` and ``str()`` decompose each object
    at most once.  Neither the images nor the kept cycles can be assigned
    after construction, so the two always agree.
    """

    __slots__ = ("images", "_cycles")

    def __init__(self, images) -> None:
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a bijection of [{len(images)}]: {images}")
        _set_images(self, images)

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Permutation":
        """A permutation on images that are a bijection by construction (a
        product, inverse or relabelling of permutations), unchecked."""
        p = object.__new__(cls)
        _set_images(p, images)
        return p

    def __reduce__(self):
        return (self.__class__, (self.images,))

    # construction -----------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def transposition(cls, n: int, a: int, b: int) -> "Permutation":
        return _transposition(n, a, b)

    @classmethod
    def from_cycles(cls, n: int, cycles) -> "Permutation":
        images = list(range(1, n + 1))
        seen: set[int] = set()
        for cyc in cycles:
            cyc = tuple(cyc)
            for s in cyc:
                if not 1 <= s <= n:
                    raise ValueError(f"symbol {s} outside [{n}]")
                if s in seen:
                    raise ValueError(f"symbol {s} repeated across cycles")
                seen.add(s)
            for i, s in enumerate(cyc):
                images[s - 1] = cyc[(i + 1) % len(cyc)]
        return cls(images)

    @classmethod
    def parse(cls, text: str, n: int | None = None) -> "Permutation":
        """Parse cycle notation, e.g. ``"(1 2)(3)"``.

        Fixed points may be omitted when ``n`` is given; otherwise the
        degree is the largest symbol mentioned.
        """
        text = text.strip()
        if not re.fullmatch(r"(\s*\([0-9\s]*\)\s*)+", text):
            raise ValueError(f"not cycle notation: {text!r}")
        cycles = []
        for group in re.findall(r"\(([0-9\s]*)\)", text):
            syms = tuple(int(tok) for tok in group.split())
            if syms:
                cycles.append(syms)
        degree = max((max(c) for c in cycles), default=0)
        if n is None:
            n = degree
            if n == 0:
                raise ValueError("cannot infer degree from empty cycles")
        elif degree > n:
            raise ValueError(f"symbol {degree} outside [{n}]")
        return cls.from_cycles(n, cycles)

    # basic queries ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.images)

    def apply(self, s: int) -> int:
        return self.images[s - 1]

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Cycles (fixed points included), each starting at its smallest
        symbol, sorted by that symbol."""
        try:
            return self._cycles
        except AttributeError:  # first use: the slot is still empty
            cycles = _cycles_of(self.images)
            _set_cycles(self, cycles)
            return cycles

    def cycle_type(self) -> Partition:
        return _cycle_type_of(self.cycles())

    @property
    def cycle_count(self) -> int:
        return len(self.cycles())

    # arithmetic -------------------------------------------------------

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Left-to-right product: apply ``self`` first, then ``other``."""
        if self.n != other.n:
            raise DegreeMismatchError(f"S_{self.n} vs S_{other.n}")
        q = other.images
        return Permutation._trusted(tuple([q[x - 1] for x in self.images]))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.images):
            inv[v - 1] = i + 1
        return Permutation._trusted(tuple(inv))

    def relabel(self, by: "Permutation") -> "Permutation":
        """The permutation whose cycles are this one's with every symbol
        ``s`` replaced by ``by(s)``.

        >>> str(Permutation.parse("(1 2)(3)").relabel(Permutation.parse("(1 3)")))
        '(1)(2 3)'
        """
        if self.n != by.n:
            raise DegreeMismatchError(f"S_{self.n} vs S_{by.n}")
        out = [0] * self.n
        b = by.images
        for x in range(1, self.n + 1):
            out[b[x - 1] - 1] = b[self.images[x - 1] - 1]
        return Permutation._trusted(tuple(out))

    # protocol ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __str__(self) -> str:
        return "".join("(" + " ".join(str(s) for s in c) + ")" for c in self.cycles())

    def __repr__(self) -> str:
        return f"Permutation.parse({str(self)!r})"


# The slots' own setters: the only writes that pass ``Permutation.__setattr__``.
_set_images = Permutation.images.__set__
_set_cycles = Permutation._cycles.__set__


# Transposition permutations kept by ``Permutation.transposition``: every
# (a, b) in both orders up to degree 9 fits.
_TRANSPOSITION_CACHE_SIZE = 1024


@lru_cache(maxsize=_TRANSPOSITION_CACHE_SIZE)
def _transposition(n: int, a: int, b: int) -> Permutation:
    if a == b or not (1 <= a <= n and 1 <= b <= n):
        raise ValueError(f"bad transposition ({a} {b}) in S_{n}")
    images = list(range(1, n + 1))
    images[a - 1], images[b - 1] = b, a
    return Permutation(images)


def symmetric_group(n: int):
    """Yield all of S_n in lexicographic image order."""
    for images in _iter_permutations(range(1, n + 1)):
        yield Permutation(images)


# Every caller walks the classes of one degree before the next, so two
# degrees suffice.
@lru_cache(maxsize=2)
def conjugacy_classes(n: int) -> dict[Partition, tuple[Permutation, ...]]:
    """Cycle type -> all members, in lexicographic image order."""
    out: dict[Partition, list[Permutation]] = {}
    for p in symmetric_group(n):
        # classified without caching cycles on the members the memo keeps
        out.setdefault(_cycle_type_of(_cycles_of(p.images)), []).append(p)
    return {lam: tuple(members) for lam, members in out.items()}


def class_size(n: int, lam: Partition) -> int:
    """Size of the conjugacy class of cycle type ``lam`` in S_n."""
    if lam.n != n:
        raise ValueError(f"{lam} is not a partition of {n}")
    denom = 1
    for part in lam.parts:
        denom *= part
    mult: dict[int, int] = {}
    for part in lam.parts:
        mult[part] = mult.get(part, 0) + 1
    for m in mult.values():
        denom *= factorial(m)
    return factorial(n) // denom


def class_representative(lam: Partition) -> Permutation:
    """Canonical member of the class: cycles filled with consecutive symbols."""
    cycles = []
    next_sym = 1
    for part in lam.parts:
        cycles.append(tuple(range(next_sym, next_sym + part)))
        next_sym += part
    return Permutation.from_cycles(lam.n, cycles)


def conjugating_permutation(src: Permutation, dst: Permutation) -> Permutation:
    """A ``d`` whose inverse-relabelling carries ``src`` to ``dst``, i.e.
    ``src.relabel(d.inverse()) == dst``.  Cycles are matched sorted by
    (length descending, smallest symbol), so the choice is deterministic.
    """
    if src.cycle_type() != dst.cycle_type():
        raise ValueError(f"{src} and {dst} are not conjugate")
    key = lambda c: (-len(c), c[0])
    r = [0] * src.n
    for cs, cd in zip(sorted(src.cycles(), key=key), sorted(dst.cycles(), key=key)):
        for s, t in zip(cs, cd):
            r[s - 1] = t
    return Permutation(r).inverse()


# ---------------------------------------------------------------------------
# transpositions


def _among_transpositions(compare):
    """The tuple ordering ``compare``, refused against anything but a
    Transposition."""

    def method(self, other) -> bool:
        if other.__class__ is not Transposition:
            raise TypeError(f"cannot order Transposition against {type(other).__name__}")
        return compare(self, other)

    return method


class Transposition(tuple):
    """An unordered pair of distinct symbols, stored with ``a < b``.

    An immutable ``(a, b)`` tuple: equal, hashed and ordered as that pair,
    but equal only to other transpositions, never to a plain tuple.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int) -> "Transposition":
        if a == b or a < 1 or b < 1:
            raise ValueError(f"bad transposition ({a} {b})")
        return tuple.__new__(cls, (a, b) if a < b else (b, a))

    def __getnewargs__(self) -> tuple[int, int]:
        return tuple(self)

    a = property(itemgetter(0), doc="The smaller symbol.")
    b = property(itemgetter(1), doc="The larger symbol.")

    def __eq__(self, other) -> bool:
        return other.__class__ is Transposition and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return other.__class__ is not Transposition or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__
    __lt__ = _among_transpositions(tuple.__lt__)
    __le__ = _among_transpositions(tuple.__le__)
    __gt__ = _among_transpositions(tuple.__gt__)
    __ge__ = _among_transpositions(tuple.__ge__)

    def other(self, s: int) -> int:
        a, b = self
        if s == a:
            return b
        if s == b:
            return a
        raise ValueError(f"{s} not in {self}")

    def as_permutation(self, n: int) -> Permutation:
        return _transposition(n, self[0], self[1])

    def relabel(self, by: Permutation) -> "Transposition":
        return Transposition(by.apply(self[0]), by.apply(self[1]))

    def __str__(self) -> str:
        return f"({self[0]} {self[1]})"

    def __repr__(self) -> str:
        return f"Transposition(a={self[0]}, b={self[1]})"


def all_transpositions(n: int) -> tuple[Transposition, ...]:
    return tuple(
        Transposition(a, b) for a in range(1, n) for b in range(a + 1, n + 1)
    )


# ---------------------------------------------------------------------------
# total orders


class TotalOrder(Frozen):
    """A total order on {1..n}, given as its sequence from smallest to largest.

    ``TotalOrder((3, 2, 1))`` is the order 3 < 2 < 1.  Orders are shared
    (``natural`` is memoised), so neither the sequence nor the ranks can be
    assigned after construction.
    """

    __slots__ = ("sequence", "_rank")

    def __init__(self, sequence) -> None:
        sequence = tuple(sequence)
        if sorted(sequence) != list(range(1, len(sequence) + 1)):
            raise ValueError(f"not an arrangement of [{len(sequence)}]: {sequence}")
        object.__setattr__(self, "sequence", sequence)
        object.__setattr__(self, "_rank", {s: i + 1 for i, s in enumerate(sequence)})

    def __reduce__(self):
        return (self.__class__, (self.sequence,))

    @classmethod
    def natural(cls, n: int) -> "TotalOrder":
        return _natural_order(n)

    @property
    def n(self) -> int:
        return len(self.sequence)

    @property
    def is_natural(self) -> bool:
        return all(s == i + 1 for i, s in enumerate(self.sequence))

    def rank(self, s: int) -> int:
        return self._rank[s]

    def larger_of(self, t: Transposition) -> int:
        return t.b if self._rank[t.a] < self._rank[t.b] else t.a

    def swapped(self, j: int) -> "TotalOrder":
        """This order with the symbols in positions j, j+1 exchanged (1-based)."""
        if not 1 <= j <= self.n - 1:
            raise ValueError(f"swap position {j} outside 1..{self.n - 1}")
        seq = list(self.sequence)
        seq[j - 1], seq[j] = seq[j], seq[j - 1]
        return TotalOrder(seq)

    def __eq__(self, other) -> bool:
        return isinstance(other, TotalOrder) and self.sequence == other.sequence

    def __hash__(self) -> int:
        return hash(self.sequence)

    def __str__(self) -> str:
        return "<".join(str(s) for s in self.sequence)

    def __repr__(self) -> str:
        return f"TotalOrder({self.sequence})"

    @staticmethod
    def parse(text: str) -> "TotalOrder":
        """Parse ``"3<2<1"``."""
        return TotalOrder(tuple(int(tok) for tok in text.strip().split("<")))


@lru_cache(maxsize=16)
def _natural_order(n: int) -> TotalOrder:
    return TotalOrder(range(1, n + 1))


# Order sequences whose swap lists ``sort_swaps`` keeps: all of S_6's fit.
_SORT_SWAPS_CACHE_SIZE = 1024


@lru_cache(maxsize=_SORT_SWAPS_CACHE_SIZE)
def sort_swaps(sequence: tuple[int, ...]) -> tuple[int, ...]:
    """Adjacent-swap positions that bubble-sort the order ``sequence`` into
    the natural one, in the order the swaps are applied."""
    seq = list(sequence)
    swaps = []
    changed = True
    while changed:
        changed = False
        for j in range(1, len(seq)):
            if seq[j - 1] > seq[j]:
                seq[j - 1], seq[j] = seq[j], seq[j - 1]
                swaps.append(j)
                changed = True
    return tuple(swaps)
