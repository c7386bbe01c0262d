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
share one engine, the layered walk ``_walk`` over (prefix product, aux),
where the product is its rank in S_n, moved by a per-degree table
act[(a, b)][rank], from a start layer that each caller passes.  The aux is
the number k of legs a star walk may use, always its first k legs (star,
from the identity at every k at once; the unconstrained count reads k =
n - 1, and ``count_star`` sums over the legs the target fixes by
inclusion-exclusion), the least larger symbol of the next factor
(monotone, from the identity, in the natural order only: ``count_monotone``
reads any other order at a relabelled target, so there is one monotone walk
per degree) or the orbit block labels (double Hurwitz, from a class
representative).  The transitive part of a Jucys-Murphy monomial in
``algebra`` runs on the same walk, with aux (slot position, block labels).
One cache keeps the ``_WALK_CACHE_SIZE`` most recently used walks.

Monotone double counts have two readers of the natural monotone walk.
``count_monotone_double`` reads the walk from the identity at the (n-1)!
ranks c * target, c running over the full cycles; ``monotone_double_sweep``
starts the walk at every full cycle at once and reads the count at every
target of S_n.  Each is the cheaper one for its callers.  Cold, on one
core (Python 3.11, x86-64), the sweeps of S_6 at g = 0, 1, 2 take 9.9 ms,
while the per-target reader takes 4.0 ms over S_6's eleven class
representatives, as a counter of a few targets needs.  Over the whole group
the per-target reader pays (n-1)! lookups per target: the ``theorem-1.4``
suite took 181.6 s at n = 8, g <= 1 with it, and 2.4 s with the sweep.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterator
from functools import cached_property, lru_cache, partial
from itertools import chain, combinations, permutations, repeat
from math import factorial
from operator import itemgetter

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
def _full_cycle_images(n: int) -> tuple[bytes, ...]:
    """The images of every n-cycle of S_n as bytes, in lexicographic order,
    each read off its cycle (1 a_2 ... a_n) as a byte translation."""
    if n < 1:
        return ()
    ident = bytes(range(1, n + 1))
    one = ident[:1]
    return tuple(sorted(ident.translate(bytes.maketrans(one + rest, rest + one))
                        for rest in map(bytes, permutations(ident[1:]))))


@lru_cache(maxsize=2)
def full_cycles(n: int) -> tuple[Permutation, ...]:
    """All n-cycles of S_n, in lexicographic image order."""
    return tuple(Permutation._trusted(tuple(images)) for images in _full_cycle_images(n))


# ---------------------------------------------------------------------------
# the layered walk behind every counter


# Walks kept at once; past this the least recently used walk is dropped.
_WALK_CACHE_SIZE = 8
_WALKS: OrderedDict[tuple, tuple[list[dict], dict]] = OrderedDict()


@lru_cache(maxsize=2)
def _coding(n: int) -> tuple[tuple[bytes, ...], dict[bytes, int], dict[tuple, tuple[int, ...]]]:
    """S_n by lexicographic rank: the images as bytes by rank, their index
    {images: rank}, and the rows act[(a, b)][rank of p] == rank of p * (a b).

    The rows (c-1 c) come from ``_adjacent_rows``, and every other row from
    them, as (a c) is (c-1 c)(a c-1)(c-1 c).  Rows and index share the int
    objects of one tuple(range(n!))."""
    perms = tuple(map(bytes, permutations(range(1, n + 1))))
    ranks = tuple(range(len(perms)))
    index = dict(zip(perms, ranks))
    adjacent_rows = _adjacent_rows(n, ranks)
    # n! slots that no row needs past this point: about 3 MB at n = 9
    del ranks
    act = {}
    for c, adjacent in enumerate(adjacent_rows, 2):
        act[c - 1, c] = adjacent
        for a in range(1, c - 1):
            act[a, c] = itemgetter(*itemgetter(*adjacent)(act[a, c - 1]))(adjacent)
    return perms, index, act


def _adjacent_rows(n: int, ranks: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The rows (c-1 c), c = 2..n, of S_n's lexicographic coding, built up
    from S_1, with every entry read from ``ranks``, tuple(range(n!)).

    S_m in lexicographic order is m blocks of (m-1)!, block j holding the
    permutations with first image j, its other images ordered as S_{m-1}
    after relabelling [m] - {j} onto [m-1].  Exchanging the values c-1 and c
    moves block c-1 onto block c and back, entry for entry, and inside
    any other block j it is S_{m-1}'s swap (c-2 c-1) if j < c-1, else
    (c-1 c)."""
    rows: list[tuple[int, ...]] = []
    for m in range(2, n + 1):
        size = factorial(m - 1)
        blocks = [ranks[j:j + size] for j in range(0, m * size, size)]
        rows = [tuple(chain.from_iterable(
                    blocks[c - 1] if j == c - 1 else blocks[c - 2] if j == c
                    else map(block.__getitem__, rows[c - 3 if j < c - 1 else c - 2])
                    for j, block in enumerate(blocks, 1)))
                for c in range(2, m + 1)]
    return rows


def _rank(p: Permutation) -> int:
    return _coding(p.n)[1][bytes(p.images)]


def _join(blocks: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    """Block labels after joining the blocks of symbols a and b, where each
    symbol's label is the least (0-based) symbol of its block."""
    lo, hi = sorted((blocks[a - 1], blocks[b - 1]))
    if lo == hi:
        return blocks
    return tuple(lo if x == hi else x for x in blocks)


def _walk(n: int, key: tuple, moves, steps: int, start: dict, keep=True) -> dict:
    """Layer ``steps`` of the walk ``key`` on S_n: aux -> {prefix rank: walks}.

    The walk begins at the layer ``start``, {aux: {rank: walks}}; from aux
    ``x`` it may multiply by (a, b) and take aux ``y`` for each
    ((a, b), y) in ``moves(x)``.  Layers are built on demand and, with
    ``keep``, cached with the walk; ``start`` is read only when the walk is
    not cached yet.  Each caller passes its own start layer: the star
    counters start at the identity with every leg prefix k = 0..n-1 as
    aux, in one walk; the monotone counters start the natural monotone walk,
    the only one per degree, at the identity with aux 0;
    ``monotone_double_sweep`` starts the natural monotone moves at every
    full cycle at once, with aux 0, as a walk of its own; the double
    Hurwitz counter starts at a class representative with its
    cycles as blocks; and ``algebra._transitive_monomial`` starts at the
    identity with aux (0, singleton blocks), with moves that reach only
    states that can still end in one block; it keeps nothing, as it
    memoises the (rank, count) pairs it reads from the last layer.
    """
    entry = _WALKS.pop((n, key), None)
    if entry is None:
        entry = [start], {}
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


def _star_moves(root: int, k: int):
    """Moves (a root) of a star walk whose aux k allows only the first k
    legs, the symbols other than the root in increasing order; the aux
    never changes."""
    for i in range(1, k + 1):
        a = i if i < root else i + 1
        yield (min(a, root), max(a, root)), k


def star_length(target: Permutation, genus: int) -> int:
    return target.n + target.cycle_count - 2 + 2 * genus


def _star_layer(n: int, root: int, steps: int) -> dict:
    """Layer ``steps`` of the star walk rooted at ``root``: from the
    identity at every leg prefix k = 0, ..., n - 1 at once."""
    return _walk(n, ("star", root), partial(_star_moves, root), steps, _star_start(n))


# the star walk's start layer, shared by every root; no walk writes to it
@lru_cache(maxsize=2)
def _star_start(n: int) -> dict:
    return {k: {0: 1} for k in range(n)}


def count_star(target: Permutation, genus: int, root: int) -> int:
    """Number of transitive star factorisations, by dynamic programme.

    A star tuple fixes every leg it leaves out, so only the f legs that the
    target fixes can be missing.  By inclusion-exclusion over them, the
    count is sum_j (-1)^j C(f, j) U_{n-1-j}(w'), where U_k counts the
    tuples on the first k legs (the star walk's aux-k group) and w' is the
    target with its moved legs relabelled onto the first legs and the root
    kept.  A target that fixes no leg is one read of U_{n-1}.
    """
    n = target.n
    if not 1 <= root <= n:
        raise ValueError(f"root {root} outside [{n}]")
    if genus < 0:
        return 0
    layer = _star_layer(n, root, star_length(target, genus))
    cycles = target.cycles()
    free = list(map(len, cycles)).count(1) - (target.images[root - 1] == root)
    if not free:
        return layer.get(n - 1, {}).get(_rank(target), 0)
    # relabel the moved legs, in cycle order, onto the first legs
    new = list(range(n + 1))
    relabelled = bytearray(range(1, n + 1))
    leg = 0
    for cycle in cycles:
        if len(cycle) > 1:
            for s in cycle:
                if s != root:
                    leg += 2 if leg + 1 == root else 1
                    new[s] = leg
            before = new[cycle[-1]]
            for s in cycle:
                relabelled[before - 1] = new[s]
                before = new[s]
    rank = _coding(n)[1][bytes(relabelled)]
    total, coefficient = 0, 1  # (-1)^j C(free, j)
    for j in range(free + 1):
        total += coefficient * layer.get(n - 1 - j, {}).get(rank, 0)
        coefficient = coefficient * (j - free) // (j + 1)
    return total


def count_star_unconstrained(target: Permutation, length: int, root: int) -> int:
    """Number of length-``length`` star-transposition tuples with the given
    product, with no coverage requirement: the star walk's group for the
    prefix of every leg."""
    n = target.n
    if not 1 <= root <= n:
        raise ValueError(f"root {root} outside [{n}]")
    if length < 0:
        return 0
    return _star_layer(n, root, length).get(n - 1, {}).get(_rank(target), 0)


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


def _monotone_moves(n: int, least: int):
    """Moves of the natural monotone walk on S_n, whose aux is the least
    larger symbol that the next factor may have; the move's larger symbol
    becomes the aux."""
    for t in all_transpositions(n):
        if t.b >= least:
            yield (t.a, t.b), t.b


def monotone_length(target: Permutation, genus: int) -> int:
    return target.n - target.cycle_count + 2 * genus


def _monotone_layer(n: int, steps: int) -> dict:
    """Layer ``steps`` of the natural monotone walk on S_n, from the identity."""
    return _walk(n, ("monotone",), partial(_monotone_moves, n), steps, {0: {0: 1}})


def count_monotone(target: Permutation, genus: int, order: TotalOrder | None = None) -> int:
    """Number of monotone factorisations, by dynamic programme.

    Relabelling every symbol s by its rank rho(s) under ``order`` sends the
    factorisations of w monotone under ``order`` one to one onto the
    naturally monotone factorisations of rho w rho^{-1}, the permutation
    taking rho(s) to rho(w(s)).  So every order reads the one natural
    monotone walk, at that relabelled target.  Monotone counts are class
    functions, so reading w itself would give the same number; the
    relabel keeps the count from resting on that theorem.
    """
    n = target.n
    if order is None:
        order = TotalOrder.natural(n)
    if order.n != n:
        raise ValueError("order/target degree differs from n")
    if genus < 0:
        return 0
    layer = _monotone_layer(n, monotone_length(target, genus))
    rho, images = order._rank, target.images
    rank = _coding(n)[1][bytes(rho[images[s - 1]] for s in order.sequence)]
    return sum(group.get(rank, 0) for group in layer.values())


def count_monotone_double(target: Permutation, genus: int) -> int:
    """Number of (full cycle sigma, monotone tail) factorisations, by DP: the
    natural monotone walk summed at c * target over the full cycles c = sigma^{-1}."""
    n = target.n
    if genus < 0:
        return 0
    layer = _monotone_layer(n, target.cycle_count - 1 + 2 * genus)
    index, then_target = _coding(n)[1], bytes((0, *target.images)).ljust(256, b"\0")
    ranks = list(map(index.__getitem__,
                     map(bytes.translate, _full_cycle_images(n), repeat(then_target))))
    return sum(sum(map(group.get, ranks, repeat(0))) for group in layer.values())


def monotone_double_sweep(n: int, gmax: int) -> Iterator[list[int]]:
    """``count_monotone_double`` at every permutation of S_n, by
    lexicographic rank, for each genus 0, ..., gmax in turn, from one walk:
    the natural monotone walk started at every full cycle at once.  Its
    layer c - 1 + 2g holds, summed over the aux, the genus-g count at every
    target with c cycles; the targets are grouped by cycle count once."""
    if gmax < 0:
        return
    perms, index, _ = _coding(n)
    by_cycles: list[list[int]] = [[] for _ in range(n + 1)]
    for rank, images in enumerate(perms):
        by_cycles[len(_cycles_of(images))].append(rank)
    start = {0: dict.fromkeys(map(index.__getitem__, _full_cycle_images(n)), 1)}
    moves = partial(_monotone_moves, n)
    for genus in range(gmax + 1):
        total = [0] * len(perms)
        for c in range(1, n + 1):
            layer = _walk(n, ("monotone-double",), moves, c - 1 + 2 * genus, start)
            for group in layer.values():
                get = group.get
                for rank in by_cycles[c]:
                    total[rank] += get(rank, 0)
        yield total


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
    start = {tuple(least[s] for s in range(1, n + 1)): {_rank(sigma): 1}}
    layer = _walk(n, ("double-hurwitz", alpha), _double_hurwitz_moves, m, start)
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
