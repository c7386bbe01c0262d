"""Integer group-algebra arithmetic for S_n, Jucys-Murphy elements, and the
transitivity operator on polynomials in them.

The Jucys-Murphy element for slot k is the sum of the transpositions
(1 k), (2 k), ..., (k-1 k).  Polynomials in the commuting family of all
slots from 2 to n are handled symbolically by :class:`SymExpr`, one class
holding an expansion function: ``e``, ``h``, ``p``, ``jm_var`` and integers
wrap small ones, and ``+``, ``-``, ``*`` and ``**`` compose them.  Expanding an
expression produces monomials, each a tuple of exponents for slots 2..n
(inside, one int with a 64-bit field per slot, so that multiplying two
monomials adds two ints), and every monomial has a canonical multiline form

    product over slots j ascending of (sum of (i j) over i < j)^(exponent).

The transitivity operator keeps, inside that canonical expansion, exactly
the transposition tuples whose edges connect all of {1..n}.  It is linear
over monomials but deliberately NOT an algebra homomorphism; see
``transitive_evaluate``.

Plain values are products of ``AlgebraElement``s.  A product composes each
left term with every right term.  When its operands' coefficient groups are
large enough that composed keys must repeat (``_counting_pays``), the pairs
are counted at C level: each composition is one ``bytes.translate`` that
also carries both coefficients' indices, one ``Counter`` counts them, and
only the distinct keys are folded in Python (``_counted_product``).  Other
products, a slot times an accumulator or a one-term operand, add each pair
in Python through one ``operator.itemgetter`` per left term.  Both keep the
terms in the order the pairs first make them, left term major.  Centrality,
class decompositions and class sums read one memo, ``_classes``, of S_n's
classes as image tuples, for the last two degrees read.  The slots commute,
so ``evaluate`` may regroup the expansion: it sums slot 2 against one table
of its powers and folds each later slot in by Horner's rule, with no memo.
Transitive values of a monomial come from the layered walk of
``factorisations`` over (prefix product, connectivity blocks), pruned to the
states whose blocks the factors left can still join into one.  One memo,
``_transitive_monomial``, keeps the (rank, count) pairs of at most
``_MONOMIAL_CACHE_SIZE`` monomials, and ``transitive_evaluate`` sums them by
rank over S_n.  The moves out of a state depend only on its block labels and
the slot in play, so every walk reads them from one shared memo,
``_transitive_move_list``, of at most ``_MOVE_LIST_CACHE_SIZE`` lists.
This module is a route only; :mod:`starfact.verify` compares it with others.
"""

from __future__ import annotations

import sys
from collections import Counter
from functools import lru_cache, partial, reduce
from itertools import combinations, combinations_with_replacement, compress, permutations
from math import factorial
from operator import itemgetter

from .factorisations import _coding, _join, _walk
from .perms import Partition, Permutation, _cycles_of


class NotCentralError(ValueError):
    """Raised when a class decomposition is requested for a non-central
    element; ``witness`` holds two same-cycle-type permutations whose
    coefficients differ."""

    def __init__(self, witness: tuple[Permutation, Permutation], message: str) -> None:
        self.witness = witness
        super().__init__(message)


def _plus(lhs: dict, rhs: dict) -> dict:
    """Sum of two sparse coefficient maps, without zero entries."""
    out = dict(lhs)
    for key, coeff in rhs.items():
        out[key] = out.get(key, 0) + coeff
    return {k: v for k, v in out.items() if v}


def _counting_pays(n: int, left: dict, right: dict) -> bool:
    """Whether ``_counted_product`` should multiply these term maps: its
    bytes have room for the degree and both sides' coefficient groups, and
    a pair of groups, one from each side, holds on average more term pairs
    than S_n has elements, so that their composed keys must repeat.  Below
    that, the pairwise loop of ``AlgebraElement.__mul__`` is cheaper."""
    pairs = len(left) * len(right)
    if not 1 < n < 255 or pairs <= factorial(n):
        return False
    lgroups, rgroups = len(set(left.values())), len(set(right.values()))
    return lgroups <= 255 - n and rgroups <= 256 and pairs > factorial(n) * lgroups * rgroups


def _counted_product(n: int, left: dict, right: dict) -> dict:
    """Product of two term maps, 1 < n <= 254, with at most 255 - n distinct
    coefficients on the left and 256 on the right, counted at C level.

    Each right term q is a 256-byte ``bytes.translate`` table sending v in
    1..n to q's v-th image, 0 to the index of q's coefficient and every
    byte past n to itself.  Each left term p is the bytes of its images, a
    0 and n + 1 plus the index of its coefficient, so translating p by q
    gives the images of p then q followed by both coefficients' indices.
    One ``Counter`` counts these keys over every pair, left term major, so
    its keys first appear in the order the pairwise product makes them;
    each key's count times its two coefficients is folded into its images
    in that order."""
    lids = {c: n + 1 + i for i, c in enumerate(dict.fromkeys(left.values()))}
    rids = {c: i for i, c in enumerate(dict.fromkeys(right.values()))}
    rest = bytes(range(n + 1, 256))
    tables = [bytes((rids[c], *q)) + rest for q, c in right.items()]
    counts: Counter[bytes] = Counter()
    for p, c in left.items():
        counts.update(map(bytes((*p, 0, lids[c])).translate, tables))
    weight = {bytes((j, i)): c1 * c2 for c1, i in lids.items() for c2, j in rids.items()}
    out: dict[bytes, int] = {}
    get = out.get
    for key, k in counts.items():
        r = key[:n]
        out[r] = get(r, 0) + weight[key[n:]] * k
    return {tuple(r): v for r, v in out.items() if v}


class AlgebraElement:
    """An element of the integer group algebra of S_n, as a sparse
    permutation-to-coefficient map."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict | None = None) -> None:
        self.n = n
        self.terms: dict[tuple[int, ...], int] = {
            tuple(images): coeff for images, coeff in (terms or {}).items() if coeff}

    @classmethod
    def _trusted(cls, n: int, terms: dict[tuple[int, ...], int]) -> "AlgebraElement":
        """An element on a term map whose keys are already image tuples and
        whose coefficients are all nonzero, unchecked."""
        out = object.__new__(cls)
        out.n, out.terms = n, terms
        return out

    @classmethod
    def zero(cls, n: int) -> "AlgebraElement":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "AlgebraElement":
        return cls(n, {tuple(range(1, n + 1)): 1})

    @classmethod
    def from_permutation(cls, p: Permutation, coeff: int = 1) -> "AlgebraElement":
        return cls(p.n, {p.images: coeff})

    def coefficient(self, p: Permutation) -> int:
        return self.terms.get(p.images, 0)

    def support_size(self) -> int:
        return len(self.terms)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.n != other.n:
            raise ValueError("degree mismatch")
        # tuple keys, no zeros: no second pass
        return AlgebraElement._trusted(self.n, _plus(self.terms, other.terms))

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.n, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __rmul__(self, scalar: int) -> "AlgebraElement":
        return AlgebraElement(self.n, {k: scalar * v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return other * self
        n = self.n
        if n != other.n:
            raise ValueError("degree mismatch")
        left, right = self.terms, other.terms
        if _counting_pays(n, left, right):
            return AlgebraElement._trusted(n, _counted_product(n, left, right))
        # p then q is q read at p's images, so one itemgetter per p composes
        # at C level, except below degree 2, where S_n is trivial and a
        # single-index itemgetter would return a scalar
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        right_items = right.items()
        for p, c1 in left.items():
            compose = itemgetter(*[v - 1 for v in p]) if n > 1 else tuple
            for q, c2 in right_items:
                r = compose(q)
                out[r] = get(r, 0) + c1 * c2
        return AlgebraElement._trusted(n, {k: v for k, v in out.items() if v})

    def __pow__(self, k: int) -> "AlgebraElement":
        if k < 0:
            raise ValueError("negative power")
        out = AlgebraElement.one(self.n)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"AlgebraElement(n={self.n}, support={len(self.terms)})"

    # class structure ----------------------------------------------------

    def central_witness(self) -> tuple[Permutation, Permutation] | None:
        """Two same-type permutations with different coefficients, or None:
        the first member of the first class whose coefficients differ, and
        its first member with another coefficient."""
        if not self.terms:  # zero is central; no class need be read
            return None
        get = self.terms.get
        for _, members in _classes(self.n):
            if len(set(map(get, members))) > 1:
                first = get(members[0])
                other = next(q for q in members if get(q) != first)
                return Permutation(members[0]), Permutation(other)
        return None

    def is_central(self) -> bool:
        return self.central_witness() is None

    def decompose(self) -> dict[Partition, int]:
        """Write a central element over class sums; keys are cycle types."""
        witness = self.central_witness()
        if witness is not None:
            a, b = witness
            raise NotCentralError(
                witness,
                f"not central: coefficient {self.coefficient(a)} at {a} "
                f"but {self.coefficient(b)} at {b}",
            )
        get = self.terms.get
        return {lam: coeff for lam, members in _classes(self.n) if (coeff := get(members[0]))}


# Every caller reads the classes of one degree before the next, so two
# degrees suffice, as for ``perms.conjugacy_classes``.
@lru_cache(maxsize=2)
def _classes(n: int) -> tuple[tuple[Partition, tuple[tuple[int, ...], ...]], ...]:
    """The conjugacy classes of S_n in ``conjugacy_classes`` order, each as
    its cycle type and its members' images in lexicographic order."""
    members: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for images in permutations(range(1, n + 1)):
        parts = tuple(sorted(map(len, _cycles_of(images)), reverse=True))
        members.setdefault(parts, []).append(images)
    return tuple((Partition(parts), tuple(group)) for parts, group in members.items())


def jm_element(n: int, k: int) -> AlgebraElement:
    """The slot-k Jucys-Murphy element (1 k) + (2 k) + ... + (k-1 k)."""
    if not 1 <= k <= n:
        raise ValueError(f"slot {k} outside [{n}]")
    return AlgebraElement(n, {Permutation.transposition(n, i, k).images: 1 for i in range(1, k)})


def class_sum(n: int, lam: Partition) -> AlgebraElement:
    if lam.n != n:
        raise ValueError(f"{lam} is not a partition of {n}")
    return AlgebraElement._trusted(n, dict.fromkeys(dict(_classes(n))[lam], 1))


def ordered_decomposition(decomp: dict[Partition, int]) -> list[tuple[Partition, int]]:
    """Class-sum coefficients with more parts first, then lexicographically
    larger part lists first."""
    return sorted(
        decomp.items(), key=lambda kv: (-kv[0].length, tuple(-p for p in kv[0].parts))
    )


def format_class_decomposition(decomp: dict[Partition, int]) -> str:
    """Render e.g. ``22*K[1,1,1,1] + 8*K[3,1] + 4*K[2,2]``, in the order of
    ``ordered_decomposition``."""
    if not decomp:
        return "0"
    return " + ".join(f"{coeff}*K{lam}" for lam, coeff in ordered_decomposition(decomp))


# ---------------------------------------------------------------------------
# symbolic symmetric polynomials in the Jucys-Murphy slots


# Bits per slot in a packed monomial.  A field would carry only at an
# exponent of 2^64, which takes 2^64 multiplications, or a part that long.
_SLOT_BITS = 64


class SymExpr:
    """Polynomial in the slot variables, held as its expansion function:
    ``packed(n)`` gives a monomial-to-coefficient dict over packed monomials,
    each one int with slot j's exponent in bits [64(j - 2), 64(j - 1)), so
    that multiplying two monomials adds two ints.  ``expand(n)`` unpacks it
    into exponent tuples for slots 2..n.  ``+``, ``-``, ``*`` and ``**``
    build a new expression whose function combines the operands' packed
    expansions.

    >>> (e(1) ** 2 - p(2)).expand(3)
    {(1, 1): 2}
    >>> (jm_var(3) ** 0).expand(2)
    Traceback (most recent call last):
    ...
    ValueError: slot 3 absent for n=2
    """

    __slots__ = ("packed",)

    def __init__(self, packed) -> None:
        self.packed = packed

    def expand(self, n: int) -> dict[tuple[int, ...], int]:
        """The expansion over exponent tuples for slots 2..n."""
        return {_unpack(key, n): coeff for key, coeff in self.packed(n).items()}

    def __add__(self, other):
        return sum_of((self, other))

    def __radd__(self, other):
        return sum_of((other, self))

    def __sub__(self, other):
        return self + -1 * _as_expr(other)

    def __mul__(self, other):
        return product_of((self, other))

    def __rmul__(self, other):
        return product_of((other, self))

    def __pow__(self, k: int):
        """The base is expanded once, even at k = 0, so a slot it cannot
        have is refused at every exponent, then multiplied in k times."""
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")

        def packed(n: int) -> dict[int, int]:
            base, out = self.packed(n), {0: 1}
            for _ in range(k):
                out = _times(out, base)
            return out

        return SymExpr(packed)


def _unpack(monomial: int, n: int) -> tuple[int, ...]:
    """The exponents of slots 2..n in a packed monomial: its bytes, read as
    64-bit fields in native order."""
    width = _SLOT_BITS // 8 * max(n - 1, 0)
    return tuple(memoryview(monomial.to_bytes(width, sys.byteorder)).cast("Q"))


def _combine(merge, *operands: SymExpr) -> SymExpr:
    """The expression whose expansion merges the operands' expansions left
    to right in one loop, so it never recurses once per operand."""
    return SymExpr(lambda n: reduce(merge, (x.packed(n) for x in operands)))


def sum_of(terms) -> SymExpr:
    """``terms[0] + terms[1] + ...`` as one flat expression."""
    return _combine(_plus, *map(_as_expr, terms))


def product_of(factors) -> SymExpr:
    """``factors[0] * factors[1] * ...`` as one flat expression."""
    return _combine(_times, *map(_as_expr, factors))


def _as_expr(x) -> SymExpr:
    if isinstance(x, SymExpr):
        return x
    if isinstance(x, int):
        return SymExpr(lambda n: {0: x} if x else {})
    raise TypeError(f"cannot treat {x!r} as an expression")


def _times(lhs: dict, rhs: dict) -> dict[int, int]:
    """Product of two packed expansions."""
    out: dict[int, int] = {}
    get = out.get
    for ka, va in lhs.items():
        for kb, vb in rhs.items():
            key = ka + kb
            out[key] = get(key, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def _generator(choose, k: int, n: int) -> dict[int, int]:
    """One generator of degree k over slots 2..n, packed: ``choose(units,
    k)`` picks among the slots' unit monomials, and each pick adds one to
    the sum of its units."""
    units = [1 << _SLOT_BITS * i for i in range(n - 1)]
    return Counter(map(sum, choose(units, k)))


def _gen_product(choose, parts: tuple[int, ...]) -> SymExpr:
    if any(k < 0 for k in parts):
        raise ValueError("negative degree")
    out = _as_expr(1)
    for k in parts:
        out = out * SymExpr(partial(_generator, choose, k))
    return out


def e(*parts: int) -> SymExpr:
    """Product of elementary symmetric polynomials, one per part."""
    return _gen_product(combinations, parts)


def h(*parts: int) -> SymExpr:
    """Product of complete homogeneous symmetric polynomials."""
    return _gen_product(combinations_with_replacement, parts)


def p(*parts: int) -> SymExpr:
    """Product of power sums; p_k takes one slot k times, so p_0 is n - 1."""
    return _gen_product(lambda units, k: ((unit,) * k for unit in units), parts)


def jm_var(k: int) -> SymExpr:
    """The single slot variable for position k (k >= 2)."""
    if k < 2:
        raise ValueError("slots start at 2")

    def packed(n: int) -> dict[int, int]:
        if k > n:
            raise ValueError(f"slot {k} absent for n={n}")
        return {1 << _SLOT_BITS * (k - 2): 1}

    return SymExpr(packed)


# ---------------------------------------------------------------------------
# evaluation, plain and transitive


def evaluate(expr: SymExpr, n: int) -> AlgebraElement:
    """Evaluate an expression at the slot-2..n Jucys-Murphy elements.

    The slots commute, so the expansion is regrouped by the exponents of
    the slots not yet folded in.  Slot 2's scalar coefficients are summed
    against a table of its powers; by Horner's rule, each later slot j folds
    the elements c_0..c_top sharing a suffix into c_0 + J_j(c_1 + J_j(...)).
    """
    terms = expr.expand(n)
    zero = AlgebraElement.zero(n)
    if n == 1:
        return sum(terms.values()) * AlgebraElement.one(1)
    powers = [AlgebraElement.one(n)]
    slot = jm_element(n, 2)
    for _ in range(max((exps[0] for exps in terms), default=0)):
        powers.append(slot * powers[-1])
    rest: dict[tuple[int, ...], AlgebraElement] = {}
    for exps, coeff in terms.items():
        rest[exps[1:]] = rest.get(exps[1:], zero) + coeff * powers[exps[0]]
    for j in range(3, n + 1):
        slot = jm_element(n, j)
        by_suffix: dict[tuple[int, ...], dict[int, AlgebraElement]] = {}
        for exps, value in rest.items():
            by_suffix.setdefault(exps[1:], {})[exps[0]] = value
        rest = {}
        for suffix, coeffs in by_suffix.items():
            top = max(coeffs)
            acc = coeffs[top]
            for a in range(top - 1, -1, -1):
                acc = slot * acc + coeffs.get(a, zero)
            rest[suffix] = acc
    return rest.get((), zero)


# Move lists kept by ``_transitive_move_list``; the largest uses in the package
# need fewer: 382 for verify theorem-1.7 at its caps, 1 535 at n = 7, wmax = 6.
_MOVE_LIST_CACHE_SIZE = 2048


@lru_cache(maxsize=_MOVE_LIST_CACHE_SIZE)
def _transitive_move_list(blocks: tuple[int, ...], j: int) -> tuple[tuple[int, ...], ...]:
    """The block labels after (i j), for i = 1, ..., j - 1.  They depend only
    on the labels and the slot, so every transitive walk shares them."""
    return tuple(_join(blocks, i, j) for i in range(1, j))


def _transitive_moves(slots: tuple[int, ...], aux):
    """Moves (i j) of a transitive walk, j the slot at the aux's position.
    The aux is (slot position, block labels), where block labels give each
    symbol the least (0-based) symbol joined to it by the factors so far.

    A factor joins at most two blocks, so a state with b blocks and r
    factors left can reach the single block read at the end only while
    b - 1 <= r.  Only the moves that keep this bound are offered: every move
    while it holds with room to spare, only the joining moves when it holds
    with none, so the walk keeps exactly the states that can still connect."""
    pos, blocks = aux
    j, nxt = slots[pos], pos + 1
    # factors left after this move, less the b - 1 joins still owed before it
    slack = len(slots) - nxt - len(set(blocks)) + 1
    if slack < -1:
        return []
    return [((i, j), (nxt, joined))
            for i, joined in enumerate(_transitive_move_list(blocks, j), 1)
            if slack >= 0 or blocks[i - 1] != blocks[j - 1]]


# Monomial values kept by ``_transitive_monomial``; the largest uses need
# fewer: 786 for verify theorem-1.7 at its caps, 923 for
# demos/span_dimension.py over n = 2..5.
_MONOMIAL_CACHE_SIZE = 1024


@lru_cache(maxsize=_MONOMIAL_CACHE_SIZE)
def _transitive_monomial(n: int, monomial: int) -> tuple[tuple[int, int], ...]:
    """Transitive part of a canonical monomial, packed as in ``SymExpr``, as
    (rank in S_n, count) pairs: the layered walk over (prefix product,
    connectivity partition of {1..n}), slots ascending, factors per slot
    chosen left to right, pruned to the states that can still connect
    (``_transitive_moves``) and read where one block is left."""
    slots = tuple(j for j, mult in enumerate(_unpack(monomial, n), 2) for _ in range(mult))
    layer = _walk(n, ("transitive", slots), partial(_transitive_moves, slots), len(slots),
                  {(0, tuple(range(n))): {0: 1}}, keep=False)
    return tuple(layer.get((len(slots), (0,) * n), {}).items())


def transitive_evaluate(expr: SymExpr, n: int) -> AlgebraElement:
    """Apply the transitivity operator to the canonical expansion of ``expr``
    and evaluate.  Linear over monomials; NOT multiplicative across them, so
    the result depends on the expression only through its expansion.  The
    monomials' counts are summed by rank into one list over S_n, and each
    rank is turned into its images once.
    """
    perms = _coding(n)[0]
    total = [0] * len(perms)
    for monomial, coeff in expr.packed(n).items():
        for rank, cnt in _transitive_monomial(n, monomial):
            total[rank] += coeff * cnt
    # the nonzero counts and their permutations, paired in rank order at C level
    return AlgebraElement(n, dict(zip(compress(perms, total), filter(None, total))))


def transitive_power(n: int, t: int) -> AlgebraElement:
    """Transitive part of the t-th power of the top slot variable; its
    coefficients count transitive star factorisations rooted at n."""
    if t < 0:
        raise ValueError("negative power")
    if n == 1:
        return transitive_evaluate(e(), n) if t == 0 else AlgebraElement.zero(n)
    return transitive_evaluate(jm_var(n) ** t, n)
