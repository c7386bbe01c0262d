"""Closed-form counts, integer triangles and the genus recurrence.

A route only: it reads just :mod:`starfact.perms`, and
:mod:`starfact.verify` compares its values with the other routes.
Everything is exact: every stated division is checked to come out even.
The series formula works in integers only: with z = e^(t/2) its product
of sinh series is one Laurent polynomial in z over a power of t, so the
count is one signed sum of integer powers (see :func:`feray_count`).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import comb, factorial

from .perms import Partition

# ---------------------------------------------------------------------------
# integer triangles


def _triangle(m: int, k: int, weight) -> int:
    """Entry (m, k) of the triangle with T(0, 0) = 1, T(m, 0) = T(0, k) = 0
    otherwise, and T(m, k) = T(m-1, k-1) + weight(k) T(m-1, k), built row by
    row over columns 0..k."""
    if m < 0 or k < 0:
        raise ValueError("arguments must be nonnegative")
    row = [1] + [0] * k
    for _ in range(m):
        for j in range(k, 0, -1):
            row[j] = row[j - 1] + weight(j) * row[j]
        row[0] = 0
    return row[k]


def stirling2(m: int, k: int) -> int:
    """Partitions of an m-set into k nonempty blocks.

    >>> stirling2(5, 2)
    15
    """
    return _triangle(m, k, lambda j: j)


def central_factorial(m: int, k: int) -> int:
    """Central factorial number T(m, k).

    Counts partitions of {1,1',...,m,m'} into k blocks such that every
    block contains both i and i' for its least index i.  Computed by the
    recurrence T(m,k) = T(m-1,k-1) + k^2 T(m-1,k); the test suite checks
    it against a direct count over paired set partitions.

    >>> central_factorial(3, 2)
    5
    """
    return _triangle(m, k, lambda j: j * j)


def catalan(m: int) -> int:
    """The m-th Catalan number.

    >>> catalan(3)
    5
    """
    if m < 0:
        raise ValueError("argument must be nonnegative")
    return comb(2 * m, m) // (m + 1)


# ---------------------------------------------------------------------------
# closed formulas


def feray_count(lam: Partition, genus: int) -> int:
    """Transitive star count for a target of cycle type ``lam``, from the
    series formula: (2g+n+l-2)!/n! times the product of the parts times
    the coefficient of t^(2g) in f(t)^(n-2) * prod f(part*t), where
    f(t) = 2 sinh(t/2)/t.

    Equal parts are grouped: e_c is the multiplicity of the part c, plus
    n - 2 when c = 1, and every e_c is nonnegative (for n = 1 the single
    part cancels f^(-1)).  Put z = e^(t/2), so f(c*t) = (z^c - z^-c)/(c*t)
    and the product is P(z) / (t^E prod parts), with E = sum e_c = n+l-2
    and P = prod_c (z^c - z^-c)^e_c, expanded binomially into integer
    coefficients P_m of z^m.  Reading t^K, K = 2g + E, off each
    z^m = e^(m t/2) gives the count sum_m P_m (m/2)^K / n!.  Every exponent
    of P has the parity of sum c e_c = 2n - 2, so only even m = 2k occur,
    and P_(-m) (-m)^K = P_m m^K since P has the parity of E: the count is
    2 sum_(k>0) P_(2k) k^K / n!, plus P_0 when K = 0.  The result is
    checked to be a nonnegative integer.

    >>> feray_count(Partition((2, 1)), 0)
    2
    """
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    n = lam.n
    if n < 1:
        raise ValueError("partition must be nonempty")
    exponents = Counter(lam.parts)
    exponents[1] += n - 2
    # the coefficients of z^-width..z^width, multiplied in one factor at a
    # time, the factor with the most terms first
    poly, width = [1], 0
    for c, e in exponents.most_common():
        width += c * e
        out = [0] * (2 * width + 1)
        for j in range(e + 1):
            coef = -comb(e, j) if j % 2 else comb(e, j)
            # poly's lowest term times z^(c(e - 2j)) lands at 2c(e - j) in out
            start = 2 * c * (e - j)
            end = start + len(poly)
            out[start:end] = [b + coef * a for a, b in zip(poly, out[start:end])]
        poly = out
    power = 2 * genus + sum(exponents.values())  # K
    total = 2 * sum(poly[width + 2 * k] * k**power for k in range(1, n))
    if power == 0:
        total += poly[width]
    value, rest = divmod(total, factorial(n))
    if rest or value < 0:
        raise ArithmeticError(f"series formula gave {total}/{n}!, not a count, for {lam}")
    return value


def md_full_cycle(n: int, genus: int) -> int:
    """Monotone double count for a full cycle: S(2g+n, n-1) / C(n,2).

    >>> md_full_cycle(3, 1)
    5
    """
    if n < 2:
        raise ValueError("full-cycle formula needs n >= 2")
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    num = stirling2(2 * genus + n, n - 1)
    den = comb(n, 2)
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"S({2*genus+n},{n-1}) = {num} not divisible by {den}")
    return q


def md_identity(n: int, genus: int) -> int:
    """Monotone double count for the identity:
    (n-1)! * Cat(n-1) * T(g+n-1, n-1).

    >>> md_identity(3, 1)
    20
    """
    if n < 1:
        raise ValueError("n must be positive")
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    return (
        factorial(n - 1)
        * catalan(n - 1)
        * central_factorial(genus + n - 1, n - 1)
    )


def closed_form(lam: Partition, genus: int) -> int | None:
    """Monotone double count of the class ``lam`` from its closed form: the
    full cycle for n >= 2, or the identity; None for every other class.

    >>> closed_form(Partition((3,)), 1), closed_form(Partition((2, 1)), 1)
    (5, None)
    """
    n = lam.n
    if n >= 2 and lam == Partition((n,)):
        return md_full_cycle(n, genus)
    if lam == Partition((1,) * n):
        return md_identity(n, genus)
    return None


# ---------------------------------------------------------------------------
# the genus recurrence


def recurrence_star(i: int, alpha: Partition, genus: int) -> int:
    """Transitive star count computed purely from the join-cut recurrence.

    The key (i, alpha, g) stands for targets in S_(i+|alpha|) whose cycle
    containing the root has length i and whose remaining cycles form
    alpha.  Value:

        a_g(i-1, alpha)
      + sum over parts t of alpha of  t * a_g(i+t, alpha minus t)
      + sum over 1 <= t <= i-1 of  a_(g-1)(i-t, alpha plus t)

    with a_0(1, ()) = 1 and zero whenever i <= 0 or g < 0.
    """
    if i < 1:
        raise ValueError("cycle length i must be positive")
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    return _recurrence(i, alpha.parts, genus)


# Values kept by ``_recurrence``; every (i, alpha, g) with i + |alpha| <= 7
# and g <= 3, the caps of verify recurrence-2.1, takes 484, and n <= 10,
# g <= 5 takes 2 554.
_RECURRENCE_CACHE_SIZE = 4096


@lru_cache(maxsize=_RECURRENCE_CACHE_SIZE)
def _recurrence(i: int, parts: tuple[int, ...], genus: int) -> int:
    if i <= 0 or genus < 0:
        return 0
    if i == 1 and not parts:
        return 1 if genus == 0 else 0
    total = _recurrence(i - 1, parts, genus)
    for k, t in enumerate(parts):
        total += t * _recurrence(i + t, parts[:k] + parts[k + 1:], genus)
    for t in range(1, i):
        total += _recurrence(i - t, tuple(sorted(parts + (t,), reverse=True)), genus - 1)
    return total
