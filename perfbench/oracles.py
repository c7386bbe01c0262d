"""Numbers computed apart from starfact, for checking its outputs.

Nothing here imports starfact.  Permutations are tuples of images of
1..n; products compose left to right, as in starfact: (p*q)(x) = q(p(x)).

Identities the benchmark checks (n symbols, root n, |C_lam| the class size):

* sum over classes of |C_lam| * star count at length m = (n-1)! S(m, n-1):
  a length-m sequence of legs that uses every leg is exactly one
  transitive star factorisation of its product;
* sum of |C_lam| * (full cycle, monotone tail) count at tail length k
  = (n-1)! h_k(1, ..., n-1): the cycle is free and the tail is any
  monotone sequence, whose slot j offers j-1 transpositions;
* sum of |C_lam| * monotone count at length m = h_m(1, ..., n-1), under
  any total order on the symbols;
* coefficient sum of e_k at the slot elements = c(n, n-k), the number of
  permutations with n-k cycles.
"""

from __future__ import annotations

import re
from itertools import permutations, product
from math import factorial


def stirling2(m: int, k: int) -> int:
    """Set partitions of an m-set into k blocks."""
    row = [1] + [0] * k
    for _ in range(m):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def stirling1(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind: permutations of n with k cycles."""
    row = [1] + [0] * k
    for i in range(n):
        row = [0] + [i * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def complete_h(k: int, values) -> int:
    """Complete homogeneous symmetric polynomial h_k at the given integers."""
    acc = [1] + [0] * k
    for x in values:
        for d in range(1, k + 1):
            acc[d] += x * acc[d - 1]
    return acc[k]


def partitions(n: int) -> list[tuple[int, ...]]:
    """Partitions of n, parts non-increasing."""
    out: list[tuple[int, ...]] = []

    def rec(rest: int, cap: int, parts: tuple[int, ...]) -> None:
        if rest == 0:
            out.append(parts)
            return
        for part in range(min(rest, cap), 0, -1):
            rec(rest - part, part, parts + (part,))

    rec(n, n, ())
    return out


def class_size(lam: tuple[int, ...]) -> int:
    """n! / z_lam."""
    z = 1
    for part in set(lam):
        mult = lam.count(part)
        z *= part ** mult * factorial(mult)
    return factorial(sum(lam)) // z


def class_member(lam: tuple[int, ...], relabel: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation of cycle type lam whose cycles are runs of consecutive
    symbols, with every symbol s renamed relabel[s-1]."""
    n = sum(lam)
    images = [0] * n
    start = 0
    for part in lam:
        run = [relabel[start + i] for i in range(part)]
        for i, s in enumerate(run):
            images[s - 1] = run[(i + 1) % part]
        start += part
    return tuple(images)


def cycle_type(images: tuple[int, ...]) -> tuple[int, ...]:
    seen = [False] * len(images)
    lengths = []
    for s in range(len(images)):
        length = 0
        while not seen[s]:
            seen[s] = True
            s = images[s] - 1
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Apply p first, then q."""
    return tuple(q[x - 1] for x in p)


def transposition(n: int, a: int, b: int) -> tuple[int, ...]:
    images = list(range(1, n + 1))
    images[a - 1], images[b - 1] = b, a
    return tuple(images)


def product_of(n: int, pairs) -> tuple[int, ...]:
    """Left-to-right product of transpositions given as (a, b) pairs."""
    out = tuple(range(1, n + 1))
    for a, b in pairs:
        out = compose(out, transposition(n, a, b))
    return out


def parse_cycles(text: str, n: int) -> tuple[int, ...]:
    """Images of 1..n from cycle notation such as "(1 2 3)(4)"."""
    images = list(range(1, n + 1))
    for group in re.findall(r"\(([0-9 ]*)\)", text):
        cyc = [int(tok) for tok in group.split()]
        for i, s in enumerate(cyc):
            images[s - 1] = cyc[(i + 1) % len(cyc)]
    if sorted(images) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of [{n}]: {text!r}")
    return tuple(images)


def parse_partition(text: str) -> tuple[int, ...]:
    """Parts from text such as "[3,1,1]"."""
    return tuple(int(tok) for tok in re.findall(r"\d+", text))


def star_total(n: int, m: int) -> int:
    return factorial(n - 1) * stirling2(m, n - 1)


def md_total(n: int, k: int) -> int:
    return factorial(n - 1) * complete_h(k, range(1, n))


def monotone_total(n: int, m: int) -> int:
    return complete_h(m, range(1, n))


def complete_lengths(n: int, gmax: int, base) -> dict[int, list[tuple[tuple[int, ...], int]]]:
    """Lengths L whose contributors all have genus <= gmax, each mapped to
    its (class, genus) contributors.

    A class lam contributes to length L = base(lam) + 2g at genus g >= 0;
    L is complete when every such g is within the computed range.
    """
    by_length: dict[int, list[tuple[tuple[int, ...], int]]] = {}
    incomplete: set[int] = set()
    lams = partitions(n)
    top = max(base(lam) for lam in lams) + 2 * gmax
    for lam in lams:
        b = base(lam)
        for length in range(b, top + 1, 2):
            g = (length - b) // 2
            if g > gmax:
                incomplete.add(length)
            else:
                by_length.setdefault(length, []).append((lam, g))
    return {L: c for L, c in sorted(by_length.items()) if L not in incomplete}


def class_sum_check(n: int, gmax: int, base, counts: dict, total) -> list[str]:
    """Compare sum over classes of |C_lam| * counts[(lam, g)] with total(L)
    at every complete length; return one message per mismatch."""
    errors = []
    lengths = complete_lengths(n, gmax, base)
    if not lengths:
        errors.append(f"no complete length at n={n}, gmax={gmax}")
    for length, contributors in lengths.items():
        got = sum(class_size(lam) * counts[(lam, g)] for lam, g in contributors)
        want = total(n, length)
        if got != want:
            errors.append(f"n={n} length={length}: class sum {got} != {want}")
    return errors


def star_base(n: int):
    return lambda lam: n + len(lam) - 2


def md_base(n: int):
    return lambda lam: len(lam) - 1


def monotone_base(n: int):
    return lambda lam: n - len(lam)


# ---------------------------------------------------------------------------
# brute force, for the self-test


def brute_star_counts(n: int, m: int) -> dict[tuple[int, ...], int]:
    """Per cycle type, the number of covering leg sequences of length m."""
    out: dict[tuple[int, ...], int] = {}
    legs = range(1, n)
    for seq in product(legs, repeat=m):
        if len(set(seq)) != n - 1:
            continue
        lam = cycle_type(product_of(n, ((a, n) for a in seq)))
        out[lam] = out.get(lam, 0) + 1
    return out


def _monotone_sequences(n: int, k: int, order: tuple[int, ...]):
    rank = {s: i for i, s in enumerate(order)}
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    for seq in product(pairs, repeat=k):
        bigs = [max(rank[a], rank[b]) for a, b in seq]
        if all(x <= y for x, y in zip(bigs, bigs[1:])):
            yield seq


def selftest(nmax: int = 4) -> list[str]:
    """Compare every oracle above with brute force at n <= nmax."""
    errors = []
    for n in range(1, nmax + 1):
        group = list(permutations(range(1, n + 1)))
        sizes: dict[tuple[int, ...], int] = {}
        cycles: dict[int, int] = {}
        for w in group:
            lam = cycle_type(w)
            sizes[lam] = sizes.get(lam, 0) + 1
            cycles[len(lam)] = cycles.get(len(lam), 0) + 1
        for lam in partitions(n):
            if sizes.get(lam) != class_size(lam):
                errors.append(f"class size {lam}: {sizes.get(lam)} != {class_size(lam)}")
            relabel = group[len(group) // 2]
            if cycle_type(class_member(lam, relabel)) != lam:
                errors.append(f"class member of {lam} has the wrong type")
        for k in range(1, n + 1):
            if cycles.get(k, 0) != stirling1(n, k):
                errors.append(f"c({n}, {k}): {cycles.get(k, 0)} != {stirling1(n, k)}")
        if n < 2:
            continue
        for m in range(n - 1, n + 3):
            per_type = brute_star_counts(n, m)
            if sum(per_type.values()) != star_total(n, m):
                errors.append(f"star total n={n} m={m}")
        full_cycles = sum(1 for w in group if len(cycle_type(w)) == 1)
        orders = [tuple(range(1, n + 1)), tuple(range(n, 0, -1))]
        for k in range(0, 4):
            for order in orders:
                tails = sum(1 for _ in _monotone_sequences(n, k, order))
                if tails != monotone_total(n, k):
                    errors.append(f"monotone total n={n} k={k} order={order}")
                if full_cycles * tails != md_total(n, k):
                    errors.append(f"md total n={n} k={k}")
    # class sums of brute-force star counts, one member per class
    n, gmax = 4, 1
    counts = {}
    for lam in partitions(n):
        for g in range(gmax + 1):
            m = n + len(lam) - 2 + 2 * g
            counts[(lam, g)] = brute_star_counts(n, m).get(lam, 0) // class_size(lam)
    errors += class_sum_check(n, gmax, star_base(n), counts, star_total)
    return errors
