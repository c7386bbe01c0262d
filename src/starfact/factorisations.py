"""Transposition factorisations of permutations: records, listers, counters.

Four families are covered.

* Star factorisations: every factor is (a root); the tuple must use every
  non-root symbol at least once (condition S2') and have length
  n + c - 2 + 2g (condition S1), where c counts the target's cycles.
* Monotone factorisations: length n - c + 2g, and the factors' larger
  symbols (under a fixed total order) weakly increase left to right (H2).
* Monotone double factorisations: a full cycle followed by a monotone tail
  of length c - 1 + 2g (conditions H0/H1/H2).
* Double Hurwitz tuples: a permutation from a fixed class followed by
  arbitrary transpositions, landing in a second class, generating a
  transitive group (H3''); these are counted, not listed.

Each record is a plain frozen class on :class:`~starfact.perms.Frozen`
rather than a dataclass, whose import and class decoration were most of
the time ``import starfact`` took: its ``__init__`` stores the five fields
and calls ``__post_init__``, and ``Frozen`` derives its equality, hash
and ``repr`` from the field names in ``_fields``.
``__post_init__`` validates the record once, in O(n + m) for m
factors: the conditions read integer images and symbols, the cycle counts
come from the cycle data each :class:`Permutation` computes once and
keeps, and ``_product`` swaps two entries of an inverse-image list per
factor before comparing the images with the target's.

Counting and listing are deliberately separate code paths.  The listers
share one pruned depth-first search, ``_list``, which carries the distance
of the remaining product down the recursion and returns the found
sequences; each is then built once into a validated record.  The counters
share one layered walk over (prefix product, aux), where the product is its
rank in S_n, moved by a per-degree table act[(a, b)][rank], and aux is the
covered-leg bitmask (star; the unconstrained count sums over every mask),
the least order rank of the next factor (monotone; monotone double reads
the natural walk summed over the full-cycle class) or the orbit block
labels (double Hurwitz).  The transitive part of a Jucys-Murphy monomial in
``algebra`` runs on the same walk, with aux (slot position, block labels).
One cache keeps the ``_WALK_CACHE_SIZE`` most recently used walks.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import cached_property, lru_cache, partial
from itertools import combinations, permutations, repeat
from operator import attrgetter, itemgetter, methodcaller

from .perms import (
    Frozen,
    Partition,
    Permutation,
    TotalOrder,
    Transposition,
    _cycles_of,
    all_transpositions,
    class_representative,
    class_size,
)


# the larger symbol of a transposition, its second entry
_larger = itemgetter(1)


class ConditionViolation(ValueError):
    """A factorisation record failed one of its defining conditions."""

    def __init__(self, condition: str, message: str) -> None:
        self.condition = condition
        super().__init__(f"condition {condition} violated: {message}")


def _product(n: int, pairs, first: Permutation | None = None) -> tuple[int, ...]:
    """Images of ``first`` (the identity if None) times the transpositions
    (a b) for (a, b) in ``pairs``, left to right, in O(n + m).

    It keeps the product's inverse: inv[v] is the symbol sent to v, and a
    factor (a b) applied after the product exchanges inv[a] and inv[b].
    """
    inv = list(range(n + 1))
    if first is not None:
        for s, v in enumerate(first.images, 1):
            inv[v] = s
    for a, b in pairs:
        inv[a], inv[b] = inv[b], inv[a]
    images = [0] * n
    for v in range(1, n + 1):
        images[inv[v] - 1] = v
    return tuple(images)


def _at_derived_genus(build, condition: str, what: str, length: int, base: int,
                      formula: str):
    """``build(g)`` at the genus g with ``length == base + 2g``, where
    ``formula`` spells out ``base``.  A length with no such g is built at
    genus -1, which its length check ``condition`` always refuses, so any
    check the constructor makes first reports first; that refusal is then
    reworded as the length having no genus."""
    twice_g = length - base
    if twice_g >= 0 and twice_g % 2 == 0:
        return build(twice_g // 2)
    try:
        build(-1)
    except ConditionViolation as exc:
        if exc.condition != condition:
            raise
    raise ConditionViolation(condition, f"{what} {length} has no genus: {formula} + 2g")


# ---------------------------------------------------------------------------
# records


class StarFactorisation(Frozen):
    """Legs (a_1, ..., a_m), standing for the product (a_1 root)...(a_m root)."""

    _fields = ("n", "root", "legs", "target", "genus")

    def __init__(self, n: int, root: int, legs: tuple[int, ...], target: Permutation,
                 genus: int) -> None:
        self.__dict__.update(n=n, root=root, legs=legs, target=target, genus=genus)
        self.__post_init__()

    def __post_init__(self) -> None:
        n, root, legs, target = self.n, self.root, self.legs, self.target
        if not 1 <= root <= n:
            raise ValueError(f"root {root} outside [{n}]")
        if len(target.images) != n:
            raise ValueError("target degree differs from n")
        if legs and (root in legs or min(legs) < 1 or max(legs) > n):
            raise ValueError(f"legs must avoid the root and stay in [{n}]")
        # the legs avoid the root and stay in [n], so they cover it when
        # n - 1 of them are distinct
        if len(set(legs)) != n - 1:
            missing = set(range(1, n + 1)) - {root} - set(legs)
            t = Transposition(min(missing), root)
            raise ConditionViolation("S2'", f"{t} never appears")
        c = len(target.cycles())
        if self.genus < 0 or len(legs) != n + c - 2 + 2 * self.genus:
            raise ConditionViolation(
                "S1",
                f"length {len(legs)} != {n} + {c} - 2 + 2*{self.genus}",
            )
        if _product(n, zip(legs, repeat(root))) != target.images:
            raise ConditionViolation("product", f"factors do not multiply to {target}")

    @classmethod
    def from_legs(cls, n: int, root: int, legs, target: Permutation) -> "StarFactorisation":
        """Build a record, deriving the genus from the leg count."""
        legs = tuple(legs)
        c = target.cycle_count
        return _at_derived_genus(lambda g: cls(n, root, legs, target, g),
                                 "S1", "length", len(legs), n + c - 2, f"{n} + {c} - 2")

    @cached_property
    def factors(self) -> tuple[Transposition, ...]:
        return tuple(Transposition(a, self.root) for a in self.legs)

    def to_line(self) -> str:
        return "".join(str(t) for t in self.factors)

    def to_record(self) -> dict:
        return {
            "family": "star",
            "n": self.n,
            "root": self.root,
            "genus": self.genus,
            "target": str(self.target),
            "factors": [str(t) for t in self.factors],
        }


class MonotoneFactorisation(Frozen):
    """Transpositions whose larger symbols weakly increase under ``order``."""

    _fields = ("n", "order", "factors", "target", "genus")

    def __init__(self, n: int, order: TotalOrder, factors: tuple[Transposition, ...],
                 target: Permutation, genus: int) -> None:
        self.__dict__.update(n=n, order=order, factors=factors, target=target, genus=genus)
        self.__post_init__()

    def __post_init__(self) -> None:
        n, order, factors, target = self.n, self.order, self.factors, self.target
        if len(order.sequence) != n or len(target.images) != n:
            raise ValueError("order/target degree differs from n")
        if factors and max(map(_larger, factors)) > n:
            raise ValueError(f"factor symbol outside [{n}]")
        rank = order._rank
        last = 0
        for a, b in factors:
            ra, rb = rank[a], rank[b]
            r = ra if ra > rb else rb
            if r < last:
                raise ConditionViolation("H2", f"larger symbols not weakly increasing under {order}")
            last = r
        c = len(target.cycles())
        if self.genus < 0 or len(factors) != n - c + 2 * self.genus:
            raise ConditionViolation(
                "H1", f"length {len(factors)} != {n} - {c} + 2*{self.genus}"
            )
        if _product(n, factors) != target.images:
            raise ConditionViolation("product", f"factors do not multiply to {target}")

    @classmethod
    def from_factors(cls, n, order, factors, target) -> "MonotoneFactorisation":
        """Build a record, deriving the genus from the length."""
        factors = tuple(factors)
        c = target.cycle_count
        return _at_derived_genus(lambda g: cls(n, order, factors, target, g),
                                 "H1", "length", len(factors), n - c, f"{n} - {c}")

    def to_line(self) -> str:
        return "".join(str(t) for t in self.factors)

    def to_record(self) -> dict:
        return {
            "family": "monotone",
            "n": self.n,
            "root": None,
            "genus": self.genus,
            "target": str(self.target),
            "factors": [str(t) for t in self.factors],
            "order": str(self.order),
        }


class MonotoneDoubleFactorisation(Frozen):
    """A full cycle, then a tail monotone under the natural order."""

    _fields = ("n", "sigma", "factors", "target", "genus")

    def __init__(self, n: int, sigma: Permutation, factors: tuple[Transposition, ...],
                 target: Permutation, genus: int) -> None:
        self.__dict__.update(n=n, sigma=sigma, factors=factors, target=target, genus=genus)
        self.__post_init__()

    def __post_init__(self) -> None:
        n, sigma, factors, target = self.n, self.sigma, self.factors, self.target
        if len(sigma.images) != n or len(target.images) != n:
            raise ValueError("sigma/target degree differs from n")
        if factors and max(map(_larger, factors)) > n:
            raise ValueError(f"factor symbol outside [{n}]")
        if len(sigma.cycles()) != 1:
            raise ConditionViolation("H0", f"{sigma} is not a full cycle")
        c = len(target.cycles())
        if self.genus < 0 or len(factors) != c - 1 + 2 * self.genus:
            raise ConditionViolation(
                "H1", f"tail length {len(factors)} != {c} - 1 + 2*{self.genus}"
            )
        last = 0
        for _, b in factors:
            if b < last:
                raise ConditionViolation("H2", "larger symbols not weakly increasing")
            last = b
        if _product(n, factors, sigma) != target.images:
            raise ConditionViolation("product", f"factors do not multiply to {target}")

    @classmethod
    def from_factors(cls, n, sigma, factors, target) -> "MonotoneDoubleFactorisation":
        """Build a record, deriving the genus from the tail length."""
        factors = tuple(factors)
        c = target.cycle_count
        return _at_derived_genus(lambda g: cls(n, sigma, factors, target, g),
                                 "H1", "tail length", len(factors), c - 1, f"{c} - 1")

    def to_line(self) -> str:
        return str(self.sigma) + "".join(str(t) for t in self.factors)

    def to_record(self) -> dict:
        return {
            "family": "monotone_double",
            "n": self.n,
            "root": None,
            "genus": self.genus,
            "target": str(self.target),
            "factors": [str(self.sigma)] + [str(t) for t in self.factors],
        }


# ---------------------------------------------------------------------------
# small shared helpers


@lru_cache(maxsize=2)
def full_cycles(n: int) -> tuple[Permutation, ...]:
    """All n-cycles of S_n, in lexicographic image order, each built from
    its cycle (1 a_2 ... a_n), so that building them decomposes nothing."""
    if n < 1:
        return ()
    built = (Permutation.from_cycles(n, [(1,) + rest]) for rest in permutations(range(2, n + 1)))
    return tuple(sorted(built, key=attrgetter("images")))


@lru_cache(maxsize=2)
def _full_cycle_images(n: int) -> tuple[bytes, ...]:
    return tuple(bytes(c.images) for c in full_cycles(n))


# ---------------------------------------------------------------------------
# the layered walk behind every counter


# Walks kept at once; past this the least recently used walk is dropped.
_WALK_CACHE_SIZE = 8
_WALKS: OrderedDict[tuple, tuple[list[dict], dict]] = OrderedDict()


@lru_cache(maxsize=2)
def _coding(n: int) -> tuple[tuple[bytes, ...], dict[bytes, int], dict[tuple, tuple[int, ...]]]:
    """S_n by lexicographic rank: the images as bytes by rank, their index
    {images: rank}, and the rows act[(a, b)][rank of p] == rank of p * (a b).
    Only the rows (c-1 c) translate images; (a c) is (c-1 c)(a c-1)(c-1 c)."""
    perms = tuple(map(bytes, permutations(range(1, n + 1))))
    index = dict(zip(perms, range(len(perms))))
    act = {}
    for c in range(2, n + 1):
        swap = methodcaller("translate", bytes.maketrans(bytes((c - 1, c)), bytes((c, c - 1))))
        adjacent = act[c - 1, c] = tuple(map(index.__getitem__, map(swap, perms)))
        for a in range(1, c - 1):
            act[a, c] = itemgetter(*itemgetter(*adjacent)(act[a, c - 1]))(adjacent)
    return perms, index, act


def _rank(p: Permutation) -> int:
    return _coding(p.n)[1][bytes(p.images)]


def _join(blocks: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    """Block labels after joining the blocks of symbols a and b, where each
    symbol's label is the least (0-based) symbol of its block."""
    lo, hi = sorted((blocks[a - 1], blocks[b - 1]))
    if lo == hi:
        return blocks
    return tuple(lo if x == hi else x for x in blocks)


def _walk(n: int, key: tuple, moves, steps: int, start=0, start_aux=0, keep=True) -> dict:
    """Layer ``steps`` of the walk ``key`` on S_n: aux -> {prefix rank: walks}.

    The walk begins at the permutation of rank ``start`` (0 is the identity)
    with aux ``start_aux``; from aux ``x`` it may multiply by (a, b) and
    take aux ``y`` for each ((a, b), y) in ``moves(x)``.  Layers are built
    on demand and, with ``keep``, cached with the walk.  Callers: the star
    and monotone counters here, from the identity with aux 0 (unconstrained
    star sums the star walk over every mask, monotone double the natural
    monotone walk over the full-cycle class); the double Hurwitz counter,
    from a class representative with its cycles as blocks; and
    ``algebra._transitive_monomial``, from the identity with aux (0,
    singleton blocks), whose moves reach only states that can still end in
    one block; it keeps nothing, as it memoises the (rank, count) pairs it
    reads from the last layer.
    """
    entry = _WALKS.pop((n, key), None)
    if entry is None:
        entry = [{start_aux: {start: 1}}], {}
    if keep:
        _WALKS[n, key] = entry
        if len(_WALKS) > _WALK_CACHE_SIZE:
            _WALKS.popitem(last=False)
    layers, table = entry
    while len(layers) <= steps:
        nxt: dict[int, dict[int, int]] = {}
        for x, group in layers[-1].items():
            if x not in table:
                table[x] = [(_coding(n)[2][t], y) for t, y in moves(x)]
            for row, y in table[x]:
                dst = nxt.setdefault(y, {})
                get = dst.get
                for r, c in group.items():
                    r = row[r]
                    dst[r] = get(r, 0) + c
        layers.append(nxt)
    return layers[steps]


# ---------------------------------------------------------------------------
# the pruned listing behind every lister


def _list(target: Permutation, length: int, moves, feasible=None) -> list[tuple]:
    """Every sequence of ``length`` items whose transpositions multiply to
    ``target``, by depth-first search, in the order ``moves`` offers them.

    From aux ``x`` (0 at the start) the search may take each
    (item, a, b, next aux) in ``moves(x)``; ``feasible(x, rem)``, when
    given, prunes a node with ``rem`` factors still to place.  The search
    keeps the images of prefix^{-1} * target and that product's distance
    n - c from the identity, which the factor (a b) lowers by 1 when a and b
    share one of its cycles and raises by 1 otherwise; a node is pruned
    once the distance exceeds the factors left.  Both bounds are tested on
    a child before the search enters it, so a pruned child costs one cycle
    walk and no call.  Each factor changes both by one, so the parity of
    their difference is checked once, at the root.
    Counting runs on ``_walk`` instead, so the two routes share no code.
    """
    n = target.n
    remaining = list(target.images)
    out: list[tuple] = []
    path: list = []

    def rec(rem: int, dist: int, aux) -> None:
        rem -= 1
        for item, a, b, nxt in moves(aux):
            x = remaining[a - 1]
            while x != a and x != b:
                x = remaining[x - 1]
            d = dist - 1 if x == b else dist + 1
            if d > rem or (feasible is not None and not feasible(nxt, rem)):
                continue
            path.append(item)
            if rem:
                remaining[a - 1], remaining[b - 1] = remaining[b - 1], remaining[a - 1]
                rec(rem, d, nxt)
                remaining[a - 1], remaining[b - 1] = remaining[b - 1], remaining[a - 1]
            else:
                out.append(tuple(path))
            path.pop()

    dist = n - target.cycle_count
    if dist <= length and (length - dist) % 2 == 0 and (feasible is None or feasible(0, length)):
        if length:
            rec(length, dist, 0)
        else:
            out.append(())
    return out


# ---------------------------------------------------------------------------
# star factorisations


def _star_moves(n: int, root: int, mask: int):
    """Moves (a root) of a star walk, whose aux is the bitmask of legs used."""
    for a in range(1, n + 1):
        if a != root:
            yield (min(a, root), max(a, root)), mask | 1 << (a - 1)


def star_length(target: Permutation, genus: int) -> int:
    return target.n + target.cycle_count - 2 + 2 * genus


def count_star(target: Permutation, genus: int, root: int) -> int:
    """Number of transitive star factorisations, by dynamic programme."""
    n = target.n
    if not 1 <= root <= n:
        raise ValueError(f"root {root} outside [{n}]")
    if genus < 0:
        return 0
    m = star_length(target, genus)
    full = ((1 << n) - 1) & ~(1 << (root - 1))
    layer = _walk(n, ("star", root), partial(_star_moves, n, root), m)
    return layer.get(full, {}).get(_rank(target), 0)


def count_star_unconstrained(target: Permutation, length: int, root: int) -> int:
    """Number of length-``length`` star-transposition tuples with the given
    product, with no coverage requirement: the star walk summed over every
    mask of covered legs."""
    n = target.n
    if not 1 <= root <= n:
        raise ValueError(f"root {root} outside [{n}]")
    if length < 0:
        return 0
    layer = _walk(n, ("star", root), partial(_star_moves, n, root), length)
    rank = _rank(target)
    return sum(group.get(rank, 0) for group in layer.values())


def enumerate_star(target: Permutation, genus: int, root: int) -> list[StarFactorisation]:
    """All transitive star factorisations, legs in lexicographic order."""
    n = target.n
    if not 1 <= root <= n:
        raise ValueError(f"root {root} outside [{n}]")
    if genus < 0:
        return []
    full = ((1 << n) - 1) & ~(1 << (root - 1))
    legs = [a for a in range(1, n + 1) if a != root]

    @lru_cache(maxsize=None)
    def moves(mask: int) -> tuple:
        return tuple((a, a, root, mask | 1 << (a - 1)) for a in legs)

    def feasible(mask: int, rem: int) -> bool:
        return (full & ~mask).bit_count() <= rem

    return [
        StarFactorisation(n, root, found, target, genus)
        for found in _list(target, star_length(target, genus), moves, feasible)
    ]


# ---------------------------------------------------------------------------
# monotone factorisations


def _monotone_moves(order: TotalOrder, least: int):
    """Moves of a monotone walk whose aux is the least order rank that the
    next factor's larger symbol may have; the move's rank becomes the aux."""
    for t in all_transpositions(order.n):
        big = order.rank(order.larger_of(t))
        if big >= least:
            yield (t.a, t.b), big


def monotone_length(target: Permutation, genus: int) -> int:
    return target.n - target.cycle_count + 2 * genus


def _monotone_layer(order: TotalOrder, steps: int) -> dict:
    """Layer ``steps`` of the monotone walk for ``order``, from the identity."""
    return _walk(order.n, ("monotone", order.sequence), partial(_monotone_moves, order), steps)


def count_monotone(target: Permutation, genus: int, order: TotalOrder | None = None) -> int:
    """Number of monotone factorisations, by dynamic programme."""
    n = target.n
    if order is None:
        order = TotalOrder.natural(n)
    if order.n != n:
        raise ValueError("order/target degree differs from n")
    if genus < 0:
        return 0
    layer = _monotone_layer(order, monotone_length(target, genus))
    rank = _rank(target)
    return sum(group.get(rank, 0) for group in layer.values())


def count_monotone_double(target: Permutation, genus: int) -> int:
    """Number of (full cycle sigma, monotone tail) factorisations, by DP: the
    natural monotone walk summed at c * target over the full cycles c = sigma^{-1}."""
    n = target.n
    if genus < 0:
        return 0
    layer = _monotone_layer(TotalOrder.natural(n), target.cycle_count - 1 + 2 * genus)
    index, then_target = _coding(n)[1], bytes((0, *target.images)).ljust(256, b"\0")
    ranks = [index[c.translate(then_target)] for c in _full_cycle_images(n)]
    return sum(sum(map(group.get, ranks, repeat(0))) for group in layer.values())


# Orders whose listing moves ``_rank_sorted_moves`` keeps; the suites and
# the benchmark list under at most a few dozen orders at once.
_MOVES_CACHE_SIZE = 64


@lru_cache(maxsize=_MOVES_CACHE_SIZE)
def _rank_sorted_moves(order: TotalOrder):
    """Listing moves for factors monotone under ``order``: sorted by (rank of
    larger symbol, rank of smaller), and from aux r only those whose larger
    symbol has rank at least r, so listings come out rank-lexicographic."""
    ranked = sorted(
        (order.rank(order.larger_of(t)), order.rank(t.other(order.larger_of(t))), t)
        for t in all_transpositions(order.n)
    )
    table = [tuple((t, t.a, t.b, big) for big, _, t in ranked if big >= least)
             for least in range(order.n + 1)]
    return table.__getitem__


def enumerate_monotone(
    target: Permutation, genus: int, order: TotalOrder | None = None
) -> list[MonotoneFactorisation]:
    """All monotone factorisations, factor sequences in rank-lexicographic order."""
    n = target.n
    if order is None:
        order = TotalOrder.natural(n)
    if order.n != n:
        raise ValueError("order/target degree differs from n")
    if genus < 0:
        return []
    return [
        MonotoneFactorisation(n, order, facs, target, genus)
        for facs in _list(target, monotone_length(target, genus), _rank_sorted_moves(order))
    ]


def enumerate_monotone_double(target: Permutation, genus: int) -> list[MonotoneDoubleFactorisation]:
    """All (full cycle, monotone tail) factorisations of the target."""
    n = target.n
    if genus < 0:
        return []
    k = target.cycle_count - 1 + 2 * genus
    moves = _rank_sorted_moves(TotalOrder.natural(n))
    return [
        MonotoneDoubleFactorisation(n, sigma, facs, target, genus)
        for sigma in full_cycles(n)
        for facs in _list(sigma.inverse() * target, k, moves)
    ]


# ---------------------------------------------------------------------------
# double Hurwitz tuples


def _double_hurwitz_moves(blocks: tuple[int, ...]):
    """Moves of a double Hurwitz walk: every transposition, joining the
    blocks of its two symbols in the aux."""
    for a, b in combinations(range(1, len(blocks) + 1), 2):
        yield (a, b), _join(blocks, a, b)


def count_double_hurwitz(n: int, alpha: Partition, beta: Partition, genus: int) -> int:
    """Number of (sigma, tau_1, ..., tau_m) with sigma of type ``alpha``, the
    product of type ``beta``, m = len(alpha) + len(beta) - 2 + 2g, and the
    whole tuple acting transitively.

    Tuple sets for conjugate choices of sigma are in product- and
    transitivity-preserving bijection, so the walk starts at one
    representative, with its cycles as the blocks, and the count is scaled
    by the class size.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1 (got {n})")
    if alpha.n != n or beta.n != n:
        raise ValueError("alpha and beta must be partitions of n")
    if genus < 0:
        return 0
    m = alpha.length + beta.length - 2 + 2 * genus
    sigma = class_representative(alpha)
    least = {s: cyc[0] - 1 for cyc in sigma.cycles() for s in cyc}
    layer = _walk(n, ("double-hurwitz", alpha), _double_hurwitz_moves, m, start=_rank(sigma),
                  start_aux=tuple(least[s] for s in range(1, n + 1)))
    perms = _coding(n)[0]
    total = sum(c for r, c in layer.get((0,) * n, {}).items()
                if tuple(sorted(map(len, _cycles_of(perms[r])), reverse=True)) == beta.parts)
    return total * class_size(n, alpha)


def b_number(n: int, beta: Partition, genus: int) -> int:
    """Transitive double Hurwitz count from the full-cycle class, divided
    exactly by the size of the target class."""
    total = count_double_hurwitz(n, Partition((n,)), beta, genus)
    cls = class_size(n, beta)
    if total % cls:
        raise ArithmeticError(
            f"count {total} not divisible by class size {cls} for {beta}"
        )
    return total // cls
