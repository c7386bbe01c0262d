"""Closed-form counts, integer triangles and the genus recurrence.

A route only: it reads just :mod:`starfact.perms`, and
:mod:`starfact.verify` compares its values with the other routes.
Everything is exact: every stated division is checked to come out even.
The series formula works on plain lists of `Fraction` coefficients: its
series are even, so each list holds the coefficients of t^0, t^2, ...,
t^(2g), and grouping equal parts leaves only nonnegative powers, with no
series inverse.  Only the series functions import :mod:`fractions` (and
the :mod:`decimal` it pulls in), so that ``import starfact`` stays light.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import comb, factorial, prod

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


def _even_power(c: int, e: int, genus: int) -> list:
    """Coefficients of u^0..u^genus, u = t^2, in f(c*t)^e for e >= 0, where
    f(t) = 2 sinh(t/2)/t has c^(2k) / (4^k (2k+1)!) at u^k.  Since f(0) = 1,
    the power obeys k p_k = sum_(j=1..k) ((e+1) j - k) f_j p_(k-j)."""
    from fractions import Fraction

    f = [Fraction(c ** (2 * k), 4**k * factorial(2 * k + 1)) for k in range(genus + 1)]
    p = [Fraction(1)]
    for k in range(1, genus + 1):
        p.append(sum(((e + 1) * j - k) * f[j] * p[k - j] for j in range(1, k + 1)) / k)
    return p


def feray_count(lam: Partition, genus: int) -> int:
    """Transitive star count for a target of cycle type ``lam``, from the
    series formula: (2g+n+l-2)!/n! times the product of the parts times
    the coefficient of t^(2g) in f(t)^(n-2) * prod f(part*t).

    Every factor is even, so each is kept as its coefficients of t^0, t^2,
    ..., t^(2g).  Equal parts are grouped: the product is prod_c f(c*t)^e_c,
    where e_c is the multiplicity of the part c, plus n - 2 when c = 1.
    Every e_c is nonnegative (for n = 1 the single part cancels f^(-1)),
    so each factor is one power of a series with constant term 1, and no
    series inverse is needed.  The result is asserted to be a nonnegative
    integer.

    >>> feray_count(Partition((2, 1)), 0)
    2
    """
    from fractions import Fraction

    if genus < 0:
        raise ValueError("genus must be nonnegative")
    n = lam.n
    if n < 1:
        raise ValueError("partition must be nonempty")
    exponents = Counter(lam.parts)
    exponents[1] += n - 2
    series = [Fraction(1)] + [Fraction(0)] * genus
    for c, e in exponents.items():
        power = _even_power(c, e, genus)
        series = [sum(series[j] * power[k - j] for j in range(k + 1)) for k in range(genus + 1)]
    value = (
        Fraction(factorial(2 * genus + n + lam.length - 2), factorial(n))
        * prod(lam.parts)
        * series[genus]
    )
    if value.denominator != 1 or value < 0:
        raise ArithmeticError(f"series formula gave non-integral {value} for {lam}")
    return int(value)


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
