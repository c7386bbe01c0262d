"""Named verification suites over the package's headline identities.

The route modules each compute on their own; every comparison between
routes, the suites and the rows of the agreement table, is made here.
Each suite is a generator that yields its exact checks, in order, at
caller-supplied bounds; nothing is sampled, every check is either an
exhaustive loop or an exact closed-form comparison.  ``run_suite`` alone
collects the checks into a report named by the suite's id in ``SUITES``,
and refuses bounds that leave no checks.  The command line front end
exposes the suites under those ids.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from functools import lru_cache
from math import factorial

from .algebra import (
    AlgebraElement,
    SymExpr,
    class_sum,
    e,
    evaluate,
    h,
    jm_element,
    p,
    transitive_evaluate,
    transitive_power,
)
from .bijections import (
    centrality_witness,
    cycle_form,
    gamma,
    gamma_inverse,
    lambda_j,
    lambda_j_inverse,
    lambda_order,
    lambda_order_inverse,
    reroot,
    reroot_all,
    transport,
)
from .factorisations import (
    b_number,
    count_monotone_double,
    count_star,
    enumerate_monotone,
    enumerate_monotone_double,
    enumerate_star,
    monotone_double_sweep,
)
from .formulas import (
    closed_form,
    feray_count,
    md_full_cycle,
    md_identity,
    recurrence_star,
)
from .perms import (
    Frozen,
    Partition,
    Permutation,
    TotalOrder,
    class_representative,
    conjugacy_classes,
    partitions_of,
    symmetric_group,
)


class CheckResult(Frozen):
    _fields = ("label", "passed", "detail")

    def __init__(self, label: str, passed: bool, detail: str = "") -> None:
        self.__dict__.update(label=label, passed=passed, detail=detail)

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        tail = f"  ({self.detail})" if self.detail else ""
        return f"[{mark}] {self.label}{tail}"


class SuiteReport(Frozen):
    _fields = ("suite", "checks")

    def __init__(self, suite: str, checks: tuple[CheckResult, ...]) -> None:
        self.__dict__.update(suite=suite, checks=checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = [c.line() for c in self.checks]
        done = sum(c.passed for c in self.checks)
        verdict = "PASS" if self.passed else "FAIL"
        out.append(f"suite {self.suite}: {verdict} ({done}/{len(self.checks)} checks)")
        return out


def order_panel(n: int) -> tuple[TotalOrder, ...]:
    """A deterministic panel of total orders on {1..n}: natural, reversed,
    both rotations, and the two adjacent swaps at the ends (six distinct
    orders for n >= 3)."""
    base = tuple(range(1, n + 1))
    raw = [base, base[::-1]]
    if n >= 2:
        raw.append(base[1:] + base[:1])
        raw.append(base[-1:] + base[:-1])
        raw.append((base[1], base[0]) + base[2:])
        raw.append(base[:-2] + (base[-1], base[-2]))
    seen: set = set()
    panel = []
    for seq in raw:
        if seq not in seen:
            seen.add(seq)
            panel.append(TotalOrder(seq))
    return tuple(panel)


def agreement_row(lam: Partition, genus: int) -> dict:
    """One row of the cross-method table: DP star count, DP monotone
    double count, the series formula, and the closed form when the class
    is a full cycle or the identity."""
    rep = class_representative(lam)
    star = count_star(rep, genus, lam.n)
    md = count_monotone_double(rep, genus)
    feray = feray_count(lam, genus)
    closed = closed_form(lam, genus)
    agree = star == md == feray and (closed is None or closed == star)
    return {
        "partition": str(lam),
        "genus": genus,
        "count_star": star,
        "md_count": md,
        "feray": feray,
        "closed_form": "" if closed is None else closed,
        "all_agree": agree,
    }


def _bijective(sources, images, codomain, inverse=None) -> bool:
    """Whether ``images``, those of ``sources`` in order, are pairwise
    distinct and make up ``codomain``; and, given ``inverse``, whether it
    returns each image to its source (asked only of a correct image set).
    A codomain given as a frozenset is compared as it stands, uncopied, so
    a caller that tests many maps into one codomain builds its set once."""
    image_set = set(images)
    if len(image_set) != len(images) or image_set != frozenset(codomain):
        return False
    return inverse is None or all(inverse(im) == f for f, im in zip(sources, images))


# ---------------------------------------------------------------------------
# suites


def suite_theorem_1_1(n: int = 6) -> Iterator[CheckResult]:
    """Elementary polynomials in the slot elements expand to class sums by
    cycle-count deficit, exhaustively over the group algebra."""
    for nn in range(1, n + 1):
        strata = [AlgebraElement.zero(nn)] * (nn + 1)  # class sums by cycle count
        for lam in partitions_of(nn):
            strata[lam.length] += class_sum(nn, lam)
        ok = all(evaluate(e(k), nn) == strata[nn - k] for k in range(nn + 1))
        yield CheckResult(f"elementary slot polynomials equal class-sum strata, n={nn}", ok,
                          f"k = 0..{nn}")


# theorem-1.4 lists both families and maps them only up to this (n, g)
_BIJECTION_LISTING_BOUND = (4, 1)


def suite_theorem_1_4(n: int = 5, gmax: int = 2) -> Iterator[CheckResult]:
    """Transitive star counts equal (full cycle, monotone tail) counts:
    dynamic programming for every target, then listing plus the explicit
    bijection only at n <= 4, g <= 1, whatever the bounds.  The DP check
    of each (n, g) past that bound says that its listing was skipped.

    The DP check compares the star count at every target of S_n with
    ``monotone_double_sweep``, which reads the count at every target and
    genus from one walk started on the whole full-cycle class.  The
    listing check sends each star record through ``cycle_form``, the plain
    core of ``gamma``, and compares the (images, tail) keys with those of
    the validated (full cycle, monotone tail) listing: a key set equal to
    a validated listing's is valid, so no image record is built."""
    list_n, list_g = _BIJECTION_LISTING_BOUND
    for nn in range(1, n + 1):
        for g, md in enumerate(monotone_double_sweep(nn, gmax)):
            bad = sum(count_star(w, g, nn) != count
                      for w, count in zip(symmetric_group(nn), md))
            detail = f"{len(md)} targets via DP"
            if nn > list_n or g > list_g:
                detail += f"; listing skipped: past n <= {list_n}, g <= {list_g}"
            yield CheckResult(
                f"star count equals monotone double count, n={nn}, g={g}", bad == 0, detail
            )
    for nn in range(1, min(n, list_n) + 1):
        for g in range(min(gmax, list_g) + 1):
            ok = True
            pairs = 0
            for w in symmetric_group(nn):
                stars = enumerate_star(w, g, nn)
                mds = enumerate_monotone_double(w, g)
                if (len(stars) != count_star(w, g, nn) or len(mds) != len(stars)
                        or not _bijective(stars, [cycle_form(nn, nn, f.legs) for f in stars],
                                          [(f.sigma.images, f.factors) for f in mds])):
                    ok = False
                    break
                pairs += len(stars)
            yield CheckResult(
                f"explicit bijection matches listings, n={nn}, g={g}",
                ok,
                f"{pairs} factorisations",
            )


def power_sums_in_e(kmax: int) -> list[SymExpr]:
    """p_1, ..., p_kmax written in the elementary basis by Newton's identity
    p_k = sum over i < k of (-1)^(i-1) e_i p_(k-i), plus (-1)^(k-1) k e_k."""
    sums: list[SymExpr] = []
    for k in range(1, kmax + 1):
        p_k = (-1) ** (k - 1) * k * e(k)
        for i in range(1, k):
            p_k = p_k + (-1) ** (i - 1) * e(i) * sums[k - i - 1]
        sums.append(p_k)
    return sums


def suite_theorem_1_7(n: int = 5, wmax: int = 5) -> Iterator[CheckResult]:
    """The transitive part of any elementary/homogeneous/power-sum value
    at the slot elements is central, and the same for a power sum written
    in either basis."""
    bases = (("e", e), ("h", h), ("p", p))
    via_e = power_sums_in_e(wmax)
    for nn in range(2, n + 1):
        for name, basis in bases:
            bad = []
            count = 0
            for w in range(1, wmax + 1):
                for lam in partitions_of(w):
                    count += 1
                    el = transitive_evaluate(basis(*lam.parts), nn)
                    if not el.is_central():
                        bad.append((name, lam))
            yield CheckResult(
                f"transitive part of {name}-basis values is central, n={nn}",
                not bad,
                f"{count} partitions of weight <= {wmax}",
            )
        yield CheckResult(
            f"transitive power sums agree with their e-basis forms, n={nn}",
            all(transitive_evaluate(p(k), nn) == transitive_evaluate(p_k, nn)
                for k, p_k in enumerate(via_e, 1)),
            f"k = 1..{wmax}",
        )


def suite_corollary_1_6(n: int = 5, kmax: int = 3) -> Iterator[CheckResult]:
    """Four routes to the transitive top-slot power agree: the J-power
    form, the power-sum form, and the closed form both symbolically and
    as explicit products."""
    for nn in range(2, n + 1):
        chain = AlgebraElement.one(nn)
        for j in range(2, nn + 1):
            chain = chain * jm_element(nn, j)
        for k in range(kmax + 1):
            degree = nn - 1 + k
            ok = (transitive_power(nn, degree) == transitive_evaluate(p(degree), nn)
                  == evaluate(e(nn - 1) * h(k), nn) == chain * evaluate(h(k), nn))
            yield CheckResult(f"transitive power routes agree, n={nn}, k={k}", ok)


def _recurrence_target(i: int, alpha: Partition) -> Permutation:
    """A permutation whose cycle through the top symbol has length i and
    whose other cycles realise alpha."""
    n = i + alpha.n
    cycles = []
    nxt = 1
    for part in alpha:
        cycles.append(tuple(range(nxt, nxt + part)))
        nxt += part
    cycles.append(tuple(range(nxt, nxt + i)))
    return Permutation.from_cycles(n, cycles)


def suite_recurrence_2_1(n: int = 6, gmax: int = 2) -> Iterator[CheckResult]:
    """The join-cut recurrence reproduces every DP star count."""
    yield CheckResult("initial condition a_0(1, []) = 1",
                      recurrence_star(1, Partition(()), 0) == 1)
    for total in range(1, n + 1):
        for g in range(gmax + 1):
            bad = 0
            keys = 0
            for i in range(1, total + 1):
                for alpha in partitions_of(total - i):
                    keys += 1
                    w = _recurrence_target(i, alpha)
                    if recurrence_star(i, alpha, g) != count_star(w, g, total):
                        bad += 1
            yield CheckResult(
                f"recurrence equals DP star counts, i+|alpha|={total}, g={g}",
                bad == 0,
                f"{keys} keys",
            )


# listing budget: (n, g) is listed only while the identity has at most this
# many monotone double factorisations.  Measured (Python 3.11, 2-core x86-64):
# listing the identity takes 4.2 s and 67 MB at (5, 2), 210 672 records, and
# 8.1 s and 78 MB at (6, 1), 277 200 records; a run that also listed (5, 3),
# 3 843 840 records, and (6, 2), 10 090 080, was stopped after 9 minutes at 1.4 GB
_LISTING_RECORD_CAP = 300_000


def suite_formulas_6_2(n: int = 5, gmax: int = 2) -> Iterator[CheckResult]:
    """The series formula and both closed forms agree with DP counts, and
    with exhaustive listings within the listing budget; every division
    involved is exact.  The DP check of each (n, g) past the budget names
    the listing it skipped."""
    listed = []
    for nn in range(1, n + 1):
        for g in range(gmax + 1):
            bad = sum(not agreement_row(lam, g)["all_agree"] for lam in partitions_of(nn))
            detail = f"{len(partitions_of(nn))} classes"
            if nn >= 2:
                records = count_monotone_double(Permutation.identity(nn), g)
                if records > _LISTING_RECORD_CAP:
                    detail += (f"; listing skipped: {records} records of the identity,"
                               f" over the budget of {_LISTING_RECORD_CAP}")
                else:
                    listed.append((nn, g))
            yield CheckResult(
                f"series formula, star DP and monotone double DP agree, n={nn}, g={g}",
                bad == 0,
                detail,
            )
    for nn, g in listed:
        cyc = class_representative(Partition((nn,)))
        ident = Permutation.identity(nn)
        ok = (
            md_full_cycle(nn, g) == len(enumerate_monotone_double(cyc, g))
            and md_identity(nn, g) == len(enumerate_monotone_double(ident, g))
        )
        yield CheckResult(f"closed forms match exhaustive listings, n={nn}, g={g}", ok)


def suite_recurrence_6_3(n: int = 5, gmax: int = 3) -> Iterator[CheckResult]:
    """Three-term recurrence for identity-target monotone double counts."""
    for nn in range(2, n + 1):
        # n md_g(id_n) = n (n-1)^2 md_(g-1)(id_n) + 2 (n-1)(2n-3) md_g(id_(n-1)),
        # with the g-1 term read as zero at g = 0
        ok = all(
            nn * md_identity(nn, g)
            == nn * (nn - 1) ** 2 * (md_identity(nn, g - 1) if g else 0)
            + 2 * (nn - 1) * (2 * nn - 3) * md_identity(nn - 1, g)
            for g in range(gmax + 1)
        )
        yield CheckResult(f"identity-count recurrence holds, n={nn}", ok, f"g = 0..{gmax}")


# genus budget per |alpha|, from measured cost (Python 3.11, 2-core x86-64):
# sizes up to 4 take 0.4 s and 19 MB in all; size 5 takes 26 s and 222 MB,
# most of that memory being the action table of S_9
_RELATION_GENUS_CAP = {2: 2, 3: 2, 4: 1, 5: 0}


def suite_relation_6_4(n: int = 4) -> Iterator[CheckResult]:
    """Star counts against normalised transitive double Hurwitz counts of
    the padded class, by exhaustive enumeration in the doubled group: for
    alpha of size s, b(alpha + 1^(s-1)) = s! (2s-1)^(s+l(alpha)+2g-3) times
    the transitive star count of alpha."""
    for size in range(2, n + 1):
        gcap = _RELATION_GENUS_CAP.get(size, 0)
        big = 2 * size - 1
        for alpha in partitions_of(size):
            padded = Partition(alpha.parts + (1,) * (size - 1))
            rep = class_representative(alpha)
            for g in range(gcap + 1):
                scale = factorial(size) * big ** (size + alpha.length + 2 * g - 3)
                yield CheckResult(
                    f"padded double Hurwitz relation, alpha={alpha}, g={g}",
                    b_number(big, padded, g) == scale * count_star(rep, g, size),
                    f"exhaustive in S_{big}",
                )


def _traced(fn, sources) -> tuple[list, bool, int]:
    """The image of each source under ``fn``, called with a trace list;
    whether every move kept its pair's product; and the number of moves."""
    images, ok, moves = [], True, 0
    for f in sources:
        trace: list = []
        images.append(fn(f, trace))
        moves += len(trace)
        for step in trace:
            (t, u), (a, b) = step.before, step.after
            n = max(t.b, u.b, a.b, b.b)
            ok &= (t.as_permutation(n) * u.as_permutation(n)
                   == a.as_permutation(n) * b.as_permutation(n))
    return images, ok, moves


def suite_bijections(n: int = 4, gmax: int = 1) -> Iterator[CheckResult]:
    """Round trips, image checks and product preservation for every
    constructive map, exhausting all factorisations at the given bounds."""
    for nn in range(2, n + 1):
        panel = order_panel(nn)
        natural = TotalOrder.natural(nn)
        roots = range(1, nn + 1)
        for g in range(gmax + 1):
            at = f", n={nn}, g={g}"
            # each domain and codomain is listed once per (n, g)
            monotone = lru_cache(maxsize=None)(lambda w, order: enumerate_monotone(w, g, order))
            mds = lru_cache(maxsize=None)(lambda w: enumerate_monotone_double(w, g))
            stars = lru_cache(maxsize=None)(lambda w, root: enumerate_star(w, g, root))
            # plain keys of the natural-monotone and md listings, in listing
            # order as transport sources, and as sets that every conjugator's
            # transport check reads uncopied as its codomain
            monotone_keys = lru_cache(maxsize=None)(
                lambda w: [(f.target.images, f.factors) for f in monotone(w, natural)])
            md_keys = lru_cache(maxsize=None)(lambda w: [(f.sigma.images, f.factors) for f in mds(w)])
            monotone_set = lru_cache(maxsize=None)(lambda w: frozenset(monotone_keys(w)))
            md_set = lru_cache(maxsize=None)(lambda w: frozenset(md_keys(w)))

            # adjacent-swap rewrite: bijection between order classes
            ok, moved = True, 0
            for w in symmetric_group(nn):
                for order in panel:
                    source = monotone(w, order)
                    for j in range(1, nn):
                        image, steps_ok, moves = _traced(lambda f, tr: lambda_j(f, j, tr), source)
                        moved += moves
                        ok &= steps_ok and _bijective(source, image, monotone(w, order.swapped(j)),
                                                      lambda im: lambda_j_inverse(im, j))
            yield CheckResult(f"adjacent-swap rewrite bijective with exact round trips{at}", ok,
                              f"{moved} local moves checked")

            # full order rewrite to natural and back
            yield CheckResult(f"order rewrite to natural is bijective per order{at}", all(
                _bijective(monotone(w, order), [lambda_order(f) for f in monotone(w, order)],
                           monotone(w, natural), lambda im: lambda_order_inverse(im, order))
                for w in symmetric_group(nn) for order in panel
            ))

            # star <-> monotone double, from every root; gamma_inverse undoes root n
            ok, count = True, 0
            for w in symmetric_group(nn):
                for root in roots:
                    rooted = stars(w, root)
                    count += len(rooted)
                    image, steps_ok, _ = _traced(gamma, rooted)
                    ok &= (steps_ok and all(reroot(f, root) == f for f in rooted)
                           and _bijective(rooted, image, mds(w),
                                          gamma_inverse if root == nn else None))
            yield CheckResult(f"star to monotone double bijective from every root{at}", ok,
                              f"{count} star factorisations")

            # rerooting is a bijection between root classes; a round trip
            # reads the image's own rerootings, so every row of them must
            # first be a tuple with one rerooting per root
            ok = True
            for w in symmetric_group(nn):
                rows = {r: list(map(reroot_all, stars(w, r))) for r in roots}
                if not all(isinstance(row, tuple) and len(row) == nn
                           for r in roots for row in rows[r]):
                    ok = False
                    break
                by_record = {r: dict(zip(stars(w, r), rows[r])) for r in roots}
                ok &= all(
                    _bijective(stars(w, r), [row[r2 - 1] for row in rows[r]], stars(w, r2),
                               lambda im: by_record[r2][im][r - 1])
                    for r in roots for r2 in roots
                )
            yield CheckResult(f"rerooting bijective with round trips{at}", ok)

            # conjugation transport on monotone and monotone double forms, on
            # the plain (images, factors) keys that delta and theta build their
            # records from; a key set equal to a validated listing's is valid
            ok = True
            for w in symmetric_group(nn):
                mono_source, md_source = monotone_keys(w), md_keys(w)
                for d in symmetric_group(nn):
                    move = transport(d)
                    relabelled = w.relabel(d.inverse())
                    ok &= (_bijective(mono_source, [move(*k) for k in mono_source],
                                      monotone_set(relabelled))
                           and _bijective(md_source, [move(*k) for k in md_source],
                                          md_set(relabelled)))
            yield CheckResult(f"conjugation transport bijective for every conjugator{at}", ok)

            # centrality witness: same count at every member of the class
            yield CheckResult(f"class transport witnesses equal counts{at}", all(
                _bijective(stars(members[0], nn),
                           [centrality_witness(f, other) for f in stars(members[0], nn)],
                           stars(other, nn))
                for members in conjugacy_classes(nn).values() for other in members
            ))


# ---------------------------------------------------------------------------
# registry


class SuiteSpec(Frozen):
    """A suite's id, its runner, and the caps on the runner's bounds (a
    fresh dict when none are given); the caps dict leaves it unhashable."""

    _fields = ("name", "runner", "caps")

    def __init__(self, name: str, runner: Callable[..., Iterator[CheckResult]],
                 caps: dict | None = None) -> None:
        self.__dict__.update(name=name, runner=runner, caps={} if caps is None else caps)

    @property
    def defaults(self) -> dict:
        """The runner's parameters that have defaults, with those defaults, in
        signature order (every runner takes positional parameters only)."""
        code, values = self.runner.__code__, self.runner.__defaults__ or ()
        names = code.co_varnames[code.co_argcount - len(values):code.co_argcount]
        return dict(zip(names, values))


SUITES: dict[str, SuiteSpec] = {
    spec.name: spec
    for spec in (
        SuiteSpec(
            "theorem-1.1",
            suite_theorem_1_1,
            {"n": 7},
        ),
        # caps from measured cost (Python 3.11, 2-core x86-64, one fresh
        # process each): n = 8 takes 3.2-4.0 s and 95 MB at g <= 1, 6-7 s and
        # 150 MB at g <= 4 and 23 s and 381 MB at g <= 16; n = 9 takes 62 s
        # and 817 MB at g = 0.  The defaults stay at n = 5, g = 2: perfbench's
        # cli-session workload runs the suite at its defaults, so raising
        # them would slow its verify op.
        SuiteSpec(
            "theorem-1.4",
            suite_theorem_1_4,
            {"n": 8, "gmax": 16},
        ),
        SuiteSpec(
            "theorem-1.7",
            suite_theorem_1_7,
            {"n": 6, "wmax": 6},
        ),
        SuiteSpec(
            "corollary-1.6",
            suite_corollary_1_6,
            {"n": 6, "kmax": 4},
        ),
        # caps from measured cost (Python 3.11, 2-core x86-64, one fresh
        # process each): g <= 3 takes 0.65 s and 53 MB at n = 8, and 14-16 s
        # and 478-480 MB at n = 9, about 150 MB of that the action table of S_9
        SuiteSpec(
            "recurrence-2.1",
            suite_recurrence_2_1,
            {"n": 9, "gmax": 3},
        ),
        SuiteSpec(
            "formulas-6.2",
            suite_formulas_6_2,
            {"n": 6, "gmax": 3},
        ),
        SuiteSpec(
            "recurrence-6.3",
            suite_recurrence_6_3,
            {"n": 7, "gmax": 5},
        ),
        SuiteSpec(
            "relation-6.4",
            suite_relation_6_4,
            {"n": 5},
        ),
        SuiteSpec(
            "bijections",
            suite_bijections,
            {"n": 4, "gmax": 2},
        ),
    )
}


# the least value of a bound that leaves a sweep nonempty; every other starts at 0
BOUND_FLOORS = {"n": 1, "nmax": 1, "wmax": 1}


def run_suite(name: str, **overrides) -> SuiteReport:
    """Run a named suite with parameter overrides (unknown names, bounds
    below their floors and bounds that leave no checks are rejected)."""
    if name not in SUITES:
        known = ", ".join(sorted(SUITES))
        raise KeyError(f"unknown suite {name!r}; available: {known}")
    spec = SUITES[name]
    params = dict(spec.defaults)
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in spec.defaults:
            raise ValueError(f"suite {name} takes no parameter {key!r}")
        least = BOUND_FLOORS.get(key, 0)
        if value < least:
            raise ValueError(f"{key} must be at least {least} (got {value})")
        params[key] = value
    checks = tuple(spec.runner(**params))
    if not checks:
        bounds = ", ".join(f"{key}={value}" for key, value in params.items())
        raise ValueError(f"suite {name} has no checks at {bounds}")
    return SuiteReport(name, checks)
