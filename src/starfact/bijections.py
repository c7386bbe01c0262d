"""Hurwitz moves and constructive bijections between factorisation families.

A right-hand move (RHM) on an adjacent factor pair sends (t, u) to
(u^t, t): the left factor hops right unchanged, the displaced factor is
relabelled through it.  A left-hand move (LHM) is its inverse, sending
(t, u) to (u, t^u).  Both preserve the two-factor product, hence the whole
factorisation's product.

Built from these:

* ``lambda_j``        swaps two adjacent symbols of the monotonicity order,
* ``lambda_order``    rewrites order-monotone factorisations as
                      natural-monotone ones (and back),
* ``gamma``           turns a star factorisation into a (full cycle,
                      monotone tail) factorisation,
* ``reroot``          moves a star factorisation to a different root,
* ``delta``/``theta`` transport factorisations along a conjugation,
* ``centrality_witness``  maps star factorisations of a target to star
                      factorisations of any conjugate target.

Every function takes an optional ``trace`` list and appends one
:class:`TraceStep` per elementary move, so each rewrite is replayable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .perms import (
    Permutation,
    TotalOrder,
    Transposition,
    conjugating_permutation,
    order_from_conjugator,
    sort_swaps,
)
from .factorisations import (
    MonotoneDoubleFactorisation,
    MonotoneFactorisation,
    StarFactorisation,
)


@dataclass(frozen=True)
class TraceStep:
    """One elementary move on the adjacent pair at 1-based position ``pos``.

    ``move`` is "RHM", "LHM", or "S2"; the last marks right-hand moves made
    by an order-swap's second stage, which the inverse must undo separately.
    """

    pos: int
    move: str
    before: tuple[Transposition, Transposition]
    after: tuple[Transposition, Transposition]

    def __str__(self) -> str:
        b1, b2 = self.before
        a1, a2 = self.after
        return f"pos={self.pos} move={self.move} before={b1}{b2} after={a1}{a2}"


def _through(u: Transposition, t: Transposition) -> Transposition:
    a = t.other(u.a) if u.a in t else u.a
    b = t.other(u.b) if u.b in t else u.b
    return Transposition(a, b)


def rhm(pair: tuple[Transposition, Transposition]) -> tuple[Transposition, Transposition]:
    """Right-hand move: (t, u) -> (u^t, t), preserving the product."""
    t, u = pair
    return (_through(u, t), t)


def lhm(pair: tuple[Transposition, Transposition]) -> tuple[Transposition, Transposition]:
    """Left-hand move: (t, u) -> (u, t^u), inverse to :func:`rhm`."""
    t, u = pair
    return (u, _through(t, u))


def _apply(facs: list, k: int, move: str, trace: list | None) -> None:
    before = (facs[k], facs[k + 1])
    after = lhm(before) if move == "LHM" else rhm(before)
    facs[k], facs[k + 1] = after
    if trace is not None:
        trace.append(TraceStep(k + 1, move, before, after))


def replay(factors: Sequence[Transposition], steps: Iterable[TraceStep]) -> tuple[Transposition, ...]:
    """Re-apply recorded steps to a factor sequence, checking each matches."""
    facs = list(factors)
    for st in steps:
        k = st.pos - 1
        if k + 1 >= len(facs) or (facs[k], facs[k + 1]) != st.before:
            raise ValueError(f"trace step does not match state: {st}")
        facs[k], facs[k + 1] = st.after
    return tuple(facs)


# ---------------------------------------------------------------------------
# adjacent order swaps


def lambda_j(
    f: MonotoneFactorisation, j: int, trace: list | None = None
) -> MonotoneFactorisation:
    """Rewrite ``f`` to be monotone for the order with positions j, j+1
    swapped, preserving target and genus.

    Stage 1 takes each factor whose larger symbol is the j-th order element,
    rightmost first, and right-hand-moves it past every factor whose larger
    symbol is the (j+1)-st.  Stage 2 takes each occurrence of the
    transposition made of the two swapped symbols, rightmost first, and
    right-hand-moves it past the remaining factors of the (j+1)-st block;
    those moves are recorded as "S2".
    """
    order = f.order
    n = f.n
    if not 1 <= j <= n - 1:
        raise ValueError(f"swap position {j} outside [1, {n - 1}]")
    ij, ij1 = order.sequence[j - 1], order.sequence[j]
    special = Transposition(ij, ij1)
    facs = list(f.factors)

    movers = [idx for idx, t in enumerate(facs) if order.larger_of(t) == ij]
    for idx in reversed(movers):
        k = idx
        while k + 1 < len(facs) and order.larger_of(facs[k + 1]) == ij1:
            _apply(facs, k, "RHM", trace)
            k += 1

    specials = [idx for idx, t in enumerate(facs) if t == special]
    for idx in reversed(specials):
        k = idx
        while (
            k + 1 < len(facs)
            and facs[k + 1] != special
            and order.larger_of(facs[k + 1]) == ij1
        ):
            _apply(facs, k, "S2", trace)
            k += 1

    return MonotoneFactorisation(n, order.swapped(j), tuple(facs), f.target, f.genus)


def lambda_j_inverse(
    f: MonotoneFactorisation, j: int, trace: list | None = None
) -> MonotoneFactorisation:
    """The unique ``h`` monotone for the swapped order with lambda_j(h, j) == f."""
    n = f.n
    if not 1 <= j <= n - 1:
        raise ValueError(f"swap position {j} outside [1, {n - 1}]")
    source_order = f.order.swapped(j)
    ij, ij1 = source_order.sequence[j - 1], source_order.sequence[j]
    special = Transposition(ij, ij1)
    facs = list(f.factors)

    # undo stage 2: leftmost swapped-pair occurrence first, move left past
    # its own restored block
    specials = [idx for idx, t in enumerate(facs) if t == special]
    for idx in specials:
        k = idx
        while (
            k - 1 >= 0
            and facs[k - 1] != special
            and source_order.larger_of(facs[k - 1]) == ij
        ):
            _apply(facs, k - 1, "LHM", trace)
            k -= 1

    # undo stage 1: factors whose source-order larger symbol is the j-th
    # element, leftmost first, move left past the (j+1)-st block
    movers = [idx for idx, t in enumerate(facs) if source_order.larger_of(t) == ij]
    for idx in movers:
        k = idx
        while k - 1 >= 0 and source_order.larger_of(facs[k - 1]) == ij1:
            _apply(facs, k - 1, "LHM", trace)
            k -= 1

    return MonotoneFactorisation(n, source_order, tuple(facs), f.target, f.genus)


def lambda_order(
    f: MonotoneFactorisation, trace: list | None = None
) -> MonotoneFactorisation:
    """Rewrite an order-monotone factorisation as a natural-monotone one by
    composing adjacent swaps along a bubble sort of the order."""
    for j in sort_swaps(f.order):
        f = lambda_j(f, j, trace)
    return f


def lambda_order_inverse(
    f: MonotoneFactorisation, order: TotalOrder, trace: list | None = None
) -> MonotoneFactorisation:
    """Inverse of :func:`lambda_order` toward the given order."""
    if not f.order.is_natural:
        raise ValueError("input must be natural-monotone")
    for j in reversed(sort_swaps(order)):
        f = lambda_j_inverse(f, j, trace)
    if f.order != order:
        raise AssertionError("swap composition did not reach the requested order")
    return f


# ---------------------------------------------------------------------------
# conjugation transport


def delta(
    f: MonotoneFactorisation, d: Permutation, trace: list | None = None
) -> MonotoneFactorisation:
    """Carry a natural-monotone factorisation to one of the conjugated
    target: relabel every symbol s to d^{-1}(s), then rewrite monotone."""
    if not f.order.is_natural:
        raise ValueError("input must be natural-monotone")
    if d.n != f.n:
        raise ValueError("conjugator degree differs from n")
    dinv = d.inverse()
    relabelled = tuple(t.relabel(dinv) for t in f.factors)
    new_target = f.target.relabel(dinv)
    order = order_from_conjugator(d)
    mono = MonotoneFactorisation(f.n, order, relabelled, new_target, f.genus)
    return lambda_order(mono, trace)


def theta(
    md: MonotoneDoubleFactorisation, d: Permutation, trace: list | None = None
) -> MonotoneDoubleFactorisation:
    """Carry a (full cycle, monotone tail) factorisation to one of the
    conjugated target, preserving genus."""
    n = md.n
    if d.n != n:
        raise ValueError("conjugator degree differs from n")
    dinv = d.inverse()
    sigma = md.sigma.relabel(dinv)
    tail = tuple(t.relabel(dinv) for t in md.factors)
    new_target = md.target.relabel(dinv)
    order = order_from_conjugator(d)
    rest = sigma.inverse() * new_target
    g2 = (len(tail) - (n - rest.cycle_count)) // 2
    mono = MonotoneFactorisation(n, order, tail, rest, g2)
    mono = lambda_order(mono, trace)
    return MonotoneDoubleFactorisation(n, sigma, mono.factors, new_target, md.genus)


# ---------------------------------------------------------------------------
# star <-> (full cycle, monotone tail)


def _apply_marked(facs: list, marks: list, k: int, move: str, trace: list | None) -> None:
    _apply(facs, k, move, trace)
    marks[k], marks[k + 1] = marks[k + 1], marks[k]


def _gamma_rooted(f: StarFactorisation, trace: list | None = None) -> MonotoneDoubleFactorisation:
    """Star factorisation (any root) to (full cycle, natural-monotone tail).

    Mark the first appearance of each leg symbol; left-hand-move each marked
    factor leftward until it rests beside the previously marked one.  The
    marked prefix multiplies to the full cycle of first appearances ending
    at the root; the remainder is monotone for that first-appearance order
    and is rewritten natural-monotone.
    """
    n, root = f.n, f.root
    facs = [Transposition(a, root) for a in f.legs]
    marks: list[int | None] = [None] * len(facs)
    first_appearance: list[int] = []
    seen: set[int] = set()
    for idx, a in enumerate(f.legs):
        if a not in seen:
            seen.add(a)
            first_appearance.append(a)
            marks[idx] = len(first_appearance)

    for p in range(2, n):
        k = marks.index(p)
        while marks[k - 1] != p - 1:
            _apply_marked(facs, marks, k - 1, "LHM", trace)
            k -= 1
    if marks[: n - 1] != list(range(1, n)):
        raise AssertionError("marked factors not in prefix")

    sequence = tuple(first_appearance) + (root,)
    sigma = Permutation.from_cycles(n, [sequence])
    order = TotalOrder(sequence)
    tail = tuple(facs[n - 1 :])
    rest = sigma.inverse() * f.target
    g2 = (len(tail) - (n - rest.cycle_count)) // 2
    mono = MonotoneFactorisation(n, order, tail, rest, g2)
    mono = lambda_order(mono, trace)
    return MonotoneDoubleFactorisation(n, sigma, mono.factors, f.target, f.genus)


def _reconstruct_star(
    md: MonotoneDoubleFactorisation, root: int, trace: list | None = None
) -> StarFactorisation:
    """Inverse construction: rotate the cycle to end at ``root``, rewrite the
    tail monotone for the rotated order, expand the cycle into marked
    factors, and right-hand-move each back into star position."""
    n = md.n
    if not 1 <= root <= n:
        raise ValueError(f"root {root} outside [{n}]")
    cyc = md.sigma.cycles()[0]
    pos = cyc.index(root)
    sequence = cyc[pos + 1 :] + cyc[: pos + 1]
    order = TotalOrder(sequence)
    rest = md.sigma.inverse() * md.target
    g2 = (len(md.factors) - (n - rest.cycle_count)) // 2
    natural = MonotoneFactorisation(n, TotalOrder.natural(n), md.factors, rest, g2)
    mono = lambda_order_inverse(natural, order, trace)

    facs = [Transposition(i, root) for i in sequence[:-1]] + list(mono.factors)
    for p in range(n - 1, 0, -1):
        k = p - 1
        while k + 1 < len(facs) and root not in facs[k + 1]:
            _apply(facs, k, "RHM", trace)
            k += 1
    if not all(root in t for t in facs):
        raise AssertionError("push-back left a non-star factor")

    legs = tuple(t.other(root) for t in facs)
    out = StarFactorisation.from_legs(n, root, legs, md.target)
    if out.genus != md.genus:
        raise AssertionError(f"rebuilt star factorisation has genus {out.genus}, not {md.genus}")
    return out


def gamma(f: StarFactorisation, trace: list | None = None) -> MonotoneDoubleFactorisation:
    """Star to (full cycle, monotone tail); inverse is :func:`gamma_inverse`
    when the root is n."""
    return _gamma_rooted(f, trace)


def gamma_inverse(
    md: MonotoneDoubleFactorisation, trace: list | None = None
) -> StarFactorisation:
    return _reconstruct_star(md, md.n, trace)


def reroot(f: StarFactorisation, root: int, trace: list | None = None) -> StarFactorisation:
    """The same-genus star factorisation of the same target with a new root."""
    return _reconstruct_star(_gamma_rooted(f, trace), root, trace)


def centrality_witness(
    f: StarFactorisation, target: Permutation, trace: list | None = None
) -> StarFactorisation:
    """Carry a star factorisation to one of any conjugate target with the
    same root and genus, through the cycle form and a conjugation."""
    d = conjugating_permutation(f.target, target)
    md = theta(_gamma_rooted(f, trace), d, trace)
    return _reconstruct_star(md, f.root, trace)
