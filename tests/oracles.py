"""Brute-force oracles, independent of the package internals.

Everything here recomputes a quantity from first principles with plain
loops over ``itertools`` products so the library's DP tables, caches and
bijections have something dumb and trustworthy to disagree with.
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations, combinations_with_replacement, permutations, product

from starfact import Partition, Permutation, TotalOrder, Transposition


def compose_all(n: int, perms) -> Permutation:
    out = Permutation.identity(n)
    for q in perms:
        out = out * q
    return out


def spans_all(n: int, transpositions, extra: Permutation | None = None) -> bool:
    """Connectivity of the union of factor supports and cycles of ``extra``."""
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def join(x: int, y: int) -> None:
        parent[find(x)] = find(y)

    for t in transpositions:
        join(t.a, t.b)
    if extra is not None:
        for cyc in extra.cycles():
            for x, y in zip(cyc, cyc[1:]):
                join(x, y)
    return len({find(s) for s in range(1, n + 1)}) == 1


def star_tuples(target: Permutation, length: int, root: int, transitive: bool):
    """All leg tuples (a_1..a_m) with (a_1 root)...(a_m root) = target."""
    n = target.n
    legs = [a for a in range(1, n + 1) if a != root]
    out = []
    for combo in product(legs, repeat=length):
        facs = [Permutation.transposition(n, a, root) for a in combo]
        if compose_all(n, facs) != target:
            continue
        if transitive and set(combo) != set(legs):
            continue
        out.append(combo)
    return out


def monotone_tuples(target: Permutation, length: int, order: TotalOrder):
    n = target.n
    trans = [Transposition(a, b) for a, b in combinations(range(1, n + 1), 2)]
    out = []
    for combo in product(trans, repeat=length):
        ranks = [order.rank(order.larger_of(t)) for t in combo]
        if any(x > y for x, y in zip(ranks, ranks[1:])):
            continue
        if compose_all(n, [t.as_permutation(n) for t in combo]) == target:
            out.append(combo)
    return out


def monotone_double_tuples(target: Permutation, tail_length: int):
    n = target.n
    nat = TotalOrder.natural(n)
    out = []
    for images in permutations(range(1, n + 1)):
        sigma = Permutation(images)
        if sigma.cycle_count != 1:
            continue
        rest = sigma.inverse() * target
        for combo in monotone_tuples(rest, tail_length, nat):
            out.append((sigma, combo))
    return out


def swap_rank_rows(n: int) -> dict[tuple[int, int], list[int]]:
    """For every a < b, the list whose entry at the lexicographic rank of p
    is the rank of p's images with the values a and b exchanged."""
    perms = list(permutations(range(1, n + 1)))
    rank = {p: r for r, p in enumerate(perms)}
    rows = {}
    for a, b in combinations(range(1, n + 1), 2):
        swapped = {a: b, b: a}
        rows[a, b] = [rank[tuple(swapped.get(x, x) for x in p)] for p in perms]
    return rows


def double_hurwitz_count(n: int, alpha: Partition, beta: Partition, genus: int) -> int:
    """Transitive tuples (sigma, t_1..t_m), sigma over the whole alpha class."""
    m = alpha.length + beta.length - 2 + 2 * genus
    trans = [Transposition(a, b) for a, b in combinations(range(1, n + 1), 2)]
    count = 0
    for images in permutations(range(1, n + 1)):
        sigma = Permutation(images)
        if sigma.cycle_type() != alpha:
            continue
        for combo in product(trans, repeat=m):
            prod = sigma * compose_all(n, [t.as_permutation(n) for t in combo])
            if prod.cycle_type() != beta:
                continue
            if spans_all(n, combo, sigma):
                count += 1
    return count


def jm_power_table(n: int, k: int, length: int) -> dict[Permutation, int]:
    """Coefficients of J_k^length by walking every word of transpositions."""
    choices = [Permutation.transposition(n, j, k) for j in range(1, k)]
    table: dict[Permutation, int] = {}
    for word in product(choices, repeat=length):
        prod = compose_all(n, word)
        table[prod] = table.get(prod, 0) + 1
    return table


def slot_expansion(kind: str, parts: tuple[int, ...], n: int) -> dict[tuple[int, ...], int]:
    """Expansion over slots 2..n of the product of e_k, h_k or p_k over the
    parts: each factor picks a k-subset, a k-multiset or one slot k times,
    and every pick of one choice per factor adds its exponents to one
    monomial (p_0 picks each of the n - 1 slots zero times)."""
    slots = range(n - 1)
    choices = {
        "e": lambda k: list(combinations(slots, k)),
        "h": lambda k: list(combinations_with_replacement(slots, k)),
        "p": lambda k: [(i,) * k for i in slots],
    }[kind]
    table: dict[tuple[int, ...], int] = {}
    for picks in product(*(choices(k) for k in parts)):
        exps = [0] * (n - 1)
        for pick in picks:
            for i in pick:
                exps[i] += 1
        table[tuple(exps)] = table.get(tuple(exps), 0) + 1
    return table


def transitive_monomial(n: int, exps: tuple[int, ...]) -> dict[Permutation, int]:
    """Transitive part of the canonical monomial with these exponents for
    slots 2..n: every word picking (i j), i < j, once per factor of slot j,
    slots ascending, kept when its transpositions span {1..n}."""
    slots = [j for j, mult in enumerate(exps, 2) for _ in range(mult)]
    table: dict[Permutation, int] = {}
    for picks in product(*(range(1, j) for j in slots)):
        word = [Transposition(i, j) for i, j in zip(picks, slots)]
        if spans_all(n, word):
            prod = compose_all(n, [t.as_permutation(n) for t in word])
            table[prod] = table.get(prod, 0) + 1
    return table


def set_partitions(items: tuple):
    """All set partitions, as tuples of frozensets."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        yield (frozenset((first,)),) + sub
        for i, block in enumerate(sub):
            yield sub[:i] + (block | {first},) + sub[i + 1:]


def stirling_direct(m: int, k: int) -> int:
    return sum(1 for pp in set_partitions(tuple(range(m))) if len(pp) == k)


def central_factorial_direct(m: int, k: int) -> int:
    """Partitions of {1,1',...,m,m'} into k blocks where each block
    contains both copies of its least index.  Primed copies are encoded
    as i + m."""
    items = tuple(range(1, 2 * m + 1))

    def base(x: int) -> int:
        return x if x <= m else x - m

    count = 0
    for pp in set_partitions(items):
        if len(pp) != k:
            continue
        good = True
        for block in pp:
            least = min(base(x) for x in block)
            if least not in block or least + m not in block:
                good = False
                break
        if good:
            count += 1
    return count


class JoinCut(Enum):
    JOIN = "join"
    CUT = "cut"


def join_cut(nu: Permutation, t: Transposition) -> JoinCut:
    """JOIN when ``t``'s symbols lie in different cycles of ``nu`` (so the
    product ``nu * t`` has one cycle fewer), CUT when in the same cycle."""
    x = nu.apply(t.a)
    while x != t.a:
        if x == t.b:
            return JoinCut.CUT
        x = nu.apply(x)
    return JoinCut.JOIN
