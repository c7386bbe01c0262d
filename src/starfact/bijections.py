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
* ``reroot``          moves a star factorisation to a different root
                      (``reroot_all`` to every root at once),
* ``delta``/``theta`` transport factorisations along a conjugation,
* ``centrality_witness``  maps star factorisations of a target to star
                      factorisations of any conjugate target.

The maps share one rewrite core on plain lists of factors and plain order
sequences: ``_swap`` and ``_unswap`` (one adjacent order swap and its
inverse), ``_to_natural`` and ``_from_natural`` (swaps composed along
``sort_swaps`` of an order sequence, whose rank list ``_ranks`` keeps),
``_cycle_form`` and ``_star_legs`` (star legs to and from the cycle form,
with the star factors of each (n, root) from one table) and
``transport`` (conjugation).  ``transport(d)`` computes d^{-1}'s images,
its relabelling of every transposition and the bubble sort of its order
once, and returns a function that moves any number of plain
(images, tail) pairs.  No record or order value is built inside the core;
each public map builds and validates the one record it returns, at the
end.  The ``bijections`` suite of ``verify`` runs the transport check on
the plain keys alone, comparing them with the keys of validated listings.
Along a bubble sort the core keeps each factor's larger symbol in one list
of ints, and skips the idle steps: a swap whose (j+1)-st order symbol is
the larger symbol of no factor moves nothing and records no step, so only
the order changes.

Every function takes an optional ``trace`` list and appends one
:class:`TraceStep` per elementary move, so each rewrite is replayable.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import lru_cache

from .perms import (
    Permutation,
    TotalOrder,
    Transposition,
    all_transpositions,
    conjugating_permutation,
    sort_swaps,
)
from .factorisations import (
    MonotoneDoubleFactorisation,
    MonotoneFactorisation,
    StarFactorisation,
)


class TraceStep(namedtuple("TraceStep", "pos move before after")):
    """One elementary move on the adjacent pair at 1-based position ``pos``,
    from the factor pair ``before`` to the pair ``after``.

    ``move`` is "RHM", "LHM", or "S2"; the last marks right-hand moves made
    by an order-swap's second stage, which the inverse must undo separately.
    """

    __slots__ = ()

    def __str__(self) -> str:
        b1, b2 = self.before
        a1, a2 = self.after
        return f"pos={self.pos} move={self.move} before={b1}{b2} after={a1}{a2}"


def _through(u: Transposition, t: Transposition) -> Transposition:
    """``u`` with each of its symbols that ``t`` moves sent through ``t``."""
    a, b = u
    x, y = t
    if a == x:
        a = y
    elif a == y:
        a = x
    if b == x:
        b = y
    elif b == y:
        b = x
    # two distinct symbols stay distinct, so the pair needs no re-validation
    return tuple.__new__(Transposition, (a, b) if a < b else (b, a))


def rhm(pair: tuple[Transposition, Transposition]) -> tuple[Transposition, Transposition]:
    """Right-hand move: (t, u) -> (u^t, t), preserving the product."""
    t, u = pair
    return (_through(u, t), t)


def lhm(pair: tuple[Transposition, Transposition]) -> tuple[Transposition, Transposition]:
    """Left-hand move: (t, u) -> (u, t^u), inverse to :func:`rhm`."""
    t, u = pair
    return (u, _through(t, u))


def _apply(facs: list, k: int, move: str, trace: list | None) -> None:
    """The one place a move happens: :func:`lhm` or :func:`rhm` on the pair
    at 0-based position ``k``, in place."""
    t, u = facs[k], facs[k + 1]
    if move == "LHM":
        facs[k], facs[k + 1] = u, _through(t, u)
    else:
        facs[k], facs[k + 1] = _through(u, t), t
    if trace is not None:
        # tuple.__new__ skips the namedtuple's Python-level constructor
        trace.append(tuple.__new__(TraceStep, (k + 1, move, (t, u), (facs[k], facs[k + 1]))))


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
# the rewrite core: plain factor lists, no records


def _swap(facs: list, big: list[int], seq: list[int], j: int, trace: list | None) -> None:
    """The two stages of :func:`lambda_j` on a factor list monotone for the
    order ``seq``, with ``big`` holding each factor's larger symbol under
    it; all three then describe the order with positions j, j+1 exchanged."""
    ij, ij1 = seq[j - 1], seq[j]
    m = len(facs)

    # a mover keeps ij and the factor it passes keeps ij1 as larger symbol
    movers = [k for k, s in enumerate(big) if s == ij]
    for k in reversed(movers):
        while k + 1 < m and big[k + 1] == ij1:
            _apply(facs, k, "RHM", trace)
            big[k], big[k + 1] = ij1, ij
            k += 1

    # each (ij ij1), rightmost first, passes the factors (s ij1) after it,
    # which become (s ij); it takes its larger symbol under the exchanged
    # order, ij, where it settles, so the next one to its left stops there
    specials = [k for k, s in enumerate(big) if s == ij1 and ij in facs[k]]
    for k in reversed(specials):
        while k + 1 < m and big[k + 1] == ij1:
            _apply(facs, k, "S2", trace)
            big[k] = ij
            k += 1
        big[k] = ij

    seq[j - 1], seq[j] = ij1, ij


def _unswap(facs: list, big: list[int], seq: list[int], j: int, trace: list | None) -> None:
    """Undo :func:`_swap`: ``facs`` is monotone for ``seq``, and afterwards
    for ``seq`` with positions j, j+1 exchanged back."""
    ij, ij1 = seq[j], seq[j - 1]
    seq[j - 1], seq[j] = ij, ij1

    # undo stage 2: leftmost (ij ij1) first, move left past its own restored
    # block; back in the restored order its larger symbol is ij1
    specials = [k for k, s in enumerate(big) if s == ij and ij1 in facs[k]]
    for k in specials:
        while k > 0 and big[k - 1] == ij:
            _apply(facs, k - 1, "LHM", trace)
            big[k] = ij1
            k -= 1
        big[k] = ij1

    # undo stage 1: factors whose source-order larger symbol is the j-th
    # element, leftmost first, move left past the (j+1)-st block
    movers = [k for k, s in enumerate(big) if s == ij]
    for k in movers:
        while k > 0 and big[k - 1] == ij1:
            _apply(facs, k - 1, "LHM", trace)
            big[k - 1], big[k] = ij, ij1
            k -= 1


# Order sequences whose rank lists ``_ranks`` keeps: all of S_6's fit.
_RANKS_CACHE_SIZE = 1024


@lru_cache(maxsize=_RANKS_CACHE_SIZE)
def _ranks(sequence: tuple[int, ...]) -> tuple[int, ...]:
    """The rank of each symbol under the order ``sequence``, indexed by the
    symbol (index 0 unused)."""
    rank = [0] * (len(sequence) + 1)
    for r, s in enumerate(sequence, 1):
        rank[s] = r
    return tuple(rank)


def _bigs(facs, rank) -> list[int]:
    """The larger symbol of each factor under the order with ranks ``rank``."""
    return [b if rank[a] < rank[b] else a for a, b in facs]


def _bubble(facs: list, sequence, rank, swaps, trace: list | None) -> None:
    """Rewrite ``facs`` from monotone for the order ``sequence``, whose ranks
    and bubble sort are ``rank`` and ``swaps``, to natural-monotone by one
    :func:`_swap` per step of the sort that is not idle."""
    seq, big = list(sequence), _bigs(facs, rank)
    for j in swaps:
        if seq[j] in big:
            _swap(facs, big, seq, j, trace)
        else:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]


def _to_natural(facs: list, sequence: tuple[int, ...], trace: list | None) -> None:
    """:func:`_bubble` for the order ``sequence``, its ranks and bubble sort
    read from their memos."""
    _bubble(facs, sequence, _ranks(sequence), sort_swaps(sequence), trace)


def _from_natural(facs: list, sequence: tuple[int, ...], trace: list | None) -> None:
    """Inverse of :func:`_to_natural`, skipping the same idle steps: those
    where the symbol at position j is the larger symbol of no factor, nor
    (once restored to position j+1) of the pair of the exchanged symbols."""
    seq, big = list(range(1, len(sequence) + 1)), [b for _, b in facs]
    for j in reversed(sort_swaps(sequence)):
        ij, ij1 = seq[j], seq[j - 1]
        if ij1 in big or (ij in big and any(ij1 in t for t in facs if ij in t)):
            _unswap(facs, big, seq, j, trace)
        else:
            seq[j - 1], seq[j] = ij, ij1
    if tuple(seq) != sequence:
        raise AssertionError("swap composition did not reach the requested order")


def transport(d: Permutation):
    """Conjugation by ``d`` on plain data: ``move(images, tail, trace=None)``.

    ``move`` sends the images of a permutation and a natural-monotone tail
    to the images of that permutation relabelled by d^{-1}, and the tail
    relabelled by d^{-1} and rewritten natural-monotone, both as tuples.
    The relabelled tail is monotone for the order d^{-1}(1) < ... <
    d^{-1}(n), under which symbol s has rank d(s); d^{-1}'s images, its
    relabelling of every transposition and that order's bubble sort are
    computed here, once for every record ``move`` is given.
    """
    dinv = d.inverse().images
    n = len(dinv)
    rank, swaps = (0, *d.images), sort_swaps(dinv)
    relabelled = [[None] * (n + 1) for _ in range(n + 1)]
    for a, b in all_transpositions(n):
        relabelled[a][b] = Transposition(dinv[a - 1], dinv[b - 1])

    def move(images, tail, trace: list | None = None):
        out = [0] * n
        for x, y in zip(dinv, images):
            out[x - 1] = dinv[y - 1]
        facs = [relabelled[a][b] for a, b in tail]
        _bubble(facs, dinv, rank, swaps, trace)
        return tuple(out), tuple(facs)

    return move


# Star factor tables ``_star_factors`` keeps: every root up to degree 10 fits.
_STAR_FACTORS_CACHE_SIZE = 55


@lru_cache(maxsize=_STAR_FACTORS_CACHE_SIZE)
def _star_factors(n: int, root: int) -> tuple[Transposition | None, ...]:
    """(a root) at index a, for every a != root in [n]."""
    return tuple(None if a in (0, root) else Transposition(a, root) for a in range(n + 1))


def _cycle_form(n: int, root: int, legs, trace: list | None) -> tuple[Permutation, list]:
    """Star legs (any root) to (full cycle, natural-monotone tail).

    Mark the first appearance of each leg symbol; left-hand-move each marked
    factor leftward until it rests beside the previously marked one.  The
    marked prefix multiplies to the full cycle of first appearances ending
    at the root; the remainder is monotone for that first-appearance order
    and is rewritten natural-monotone, with trace positions relative to it.
    """
    facs = list(map(_star_factors(n, root).__getitem__, legs))
    marks: list[int | None] = [None] * len(facs)
    first_appearance: list[int] = []
    for idx, a in enumerate(legs):
        if a not in first_appearance:
            first_appearance.append(a)
            marks[idx] = len(first_appearance)

    for p in range(2, n):
        k = marks.index(p)
        while marks[k - 1] != p - 1:
            _apply(facs, k - 1, "LHM", trace)
            marks[k - 1], marks[k] = marks[k], marks[k - 1]
            k -= 1
    if marks[: n - 1] != list(range(1, n)):
        raise AssertionError("marked factors not in prefix")

    sequence = tuple(first_appearance) + (root,)
    tail = facs[n - 1 :]
    _to_natural(tail, sequence, trace)
    # the n distinct symbols of ``sequence`` in one cycle: a full cycle
    images = [0] * n
    for a, b in zip(sequence, sequence[1:] + sequence[:1]):
        images[a - 1] = b
    return Permutation._trusted(tuple(images)), tail


def _star_legs(n: int, sigma: Permutation, tail, root: int, trace: list | None) -> tuple[int, ...]:
    """Inverse construction: rotate the cycle to end at ``root``, rewrite the
    tail monotone for the rotated order, expand the cycle into marked
    factors, and right-hand-move each back into star position."""
    if not 1 <= root <= n:
        raise ValueError(f"root {root} outside [{n}]")
    cyc = sigma.cycles()[0]
    pos = cyc.index(root)
    sequence = cyc[pos + 1 :] + cyc[: pos + 1]
    rest = list(tail)
    _from_natural(rest, sequence, trace)

    facs = list(map(_star_factors(n, root).__getitem__, sequence[:-1])) + rest
    for p in range(n - 1, 0, -1):
        k = p - 1
        while k + 1 < len(facs) and root not in facs[k + 1]:
            _apply(facs, k, "RHM", trace)
            k += 1
    if not all(root in t for t in facs):
        raise AssertionError("push-back left a non-star factor")
    return tuple([a + b - root for a, b in facs])


# ---------------------------------------------------------------------------
# adjacent order swaps


def _adjacent(f: MonotoneFactorisation, j: int, stage, trace: list | None) -> MonotoneFactorisation:
    if not 1 <= j <= f.n - 1:
        raise ValueError(f"swap position {j} outside [1, {f.n - 1}]")
    facs = list(f.factors)
    seq, big = list(f.order.sequence), _bigs(facs, _ranks(f.order.sequence))
    stage(facs, big, seq, j, trace)
    return MonotoneFactorisation(f.n, TotalOrder(seq), tuple(facs), f.target, f.genus)


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
    return _adjacent(f, j, _swap, trace)


def lambda_j_inverse(
    f: MonotoneFactorisation, j: int, trace: list | None = None
) -> MonotoneFactorisation:
    """The unique ``h`` monotone for the swapped order with lambda_j(h, j) == f."""
    return _adjacent(f, j, _unswap, trace)


def lambda_order(
    f: MonotoneFactorisation, trace: list | None = None
) -> MonotoneFactorisation:
    """Rewrite an order-monotone factorisation as a natural-monotone one by
    composing adjacent swaps along a bubble sort of the order."""
    facs = list(f.factors)
    _to_natural(facs, f.order.sequence, trace)
    return MonotoneFactorisation(f.n, TotalOrder.natural(f.n), tuple(facs), f.target, f.genus)


def lambda_order_inverse(
    f: MonotoneFactorisation, order: TotalOrder, trace: list | None = None
) -> MonotoneFactorisation:
    """Inverse of :func:`lambda_order` toward the given order."""
    if not f.order.is_natural:
        raise ValueError("input must be natural-monotone")
    if order.n != f.n:
        raise ValueError("order degree differs from n")
    facs = list(f.factors)
    _from_natural(facs, order.sequence, trace)
    return MonotoneFactorisation(f.n, order, tuple(facs), f.target, f.genus)


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
    images, facs = transport(d)(f.target.images, f.factors, trace)
    return MonotoneFactorisation(f.n, f.order, facs, Permutation(images), f.genus)


def theta(
    md: MonotoneDoubleFactorisation, d: Permutation, trace: list | None = None
) -> MonotoneDoubleFactorisation:
    """Carry a (full cycle, monotone tail) factorisation to one of the
    conjugated target, preserving genus."""
    if d.n != md.n:
        raise ValueError("conjugator degree differs from n")
    images, facs = transport(d)(md.sigma.images, md.factors, trace)
    target = md.target.relabel(d.inverse())
    return MonotoneDoubleFactorisation(md.n, Permutation(images), facs, target, md.genus)


# ---------------------------------------------------------------------------
# star <-> (full cycle, monotone tail)


def gamma(f: StarFactorisation, trace: list | None = None) -> MonotoneDoubleFactorisation:
    """Star (any root) to (full cycle, monotone tail); inverse is
    :func:`gamma_inverse` when the root is n."""
    sigma, tail = _cycle_form(f.n, f.root, f.legs, trace)
    return MonotoneDoubleFactorisation(f.n, sigma, tuple(tail), f.target, f.genus)


def gamma_inverse(
    md: MonotoneDoubleFactorisation, trace: list | None = None
) -> StarFactorisation:
    n = md.n
    legs = _star_legs(n, md.sigma, md.factors, n, trace)
    return StarFactorisation(n, n, legs, md.target, md.genus)


def _rerooted(f: StarFactorisation, form, root: int, trace: list | None) -> StarFactorisation:
    """The star factorisation at ``root`` read from ``form``, the cycle form of ``f``."""
    sigma, tail = form
    legs = _star_legs(f.n, sigma, tail, root, trace)
    return StarFactorisation(f.n, root, legs, f.target, f.genus)


def reroot(f: StarFactorisation, root: int, trace: list | None = None) -> StarFactorisation:
    """The same-genus star factorisation of the same target with a new root."""
    return _rerooted(f, _cycle_form(f.n, f.root, f.legs, trace), root, trace)


def reroot_all(f: StarFactorisation) -> tuple[StarFactorisation, ...]:
    """``reroot(f, r)`` for r = 1, ..., n, all read from one cycle form."""
    form = _cycle_form(f.n, f.root, f.legs, None)
    return tuple(_rerooted(f, form, r, None) for r in range(1, f.n + 1))


def centrality_witness(
    f: StarFactorisation, target: Permutation, trace: list | None = None
) -> StarFactorisation:
    """Carry a star factorisation to one of any conjugate target with the
    same root and genus, through the cycle form and a conjugation."""
    d = conjugating_permutation(f.target, target)
    sigma, tail = _cycle_form(f.n, f.root, f.legs, trace)
    images, tail = transport(d)(sigma.images, tail, trace)
    legs = _star_legs(f.n, Permutation(images), tail, f.root, trace)
    return StarFactorisation(f.n, f.root, legs, f.target.relabel(d.inverse()), f.genus)
