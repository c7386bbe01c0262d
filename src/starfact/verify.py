"""Named verification suites over the package's headline identities.

The route modules each compute on their own; every comparison between
routes, the suites and the rows of the agreement table, is made here.
Each suite runs exact checks at caller-supplied bounds and returns a
structured report; nothing is sampled, every check is either an
exhaustive loop or an exact closed-form comparison.  The command line
front end exposes these under fixed suite ids.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial
from typing import Callable

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
    delta,
    gamma,
    gamma_inverse,
    lambda_j,
    lambda_j_inverse,
    lambda_order,
    lambda_order_inverse,
    reroot,
    reroot_all,
    theta,
)
from .factorisations import (
    b_number,
    count_monotone_double,
    count_star,
    enumerate_monotone,
    enumerate_monotone_double,
    enumerate_star,
)
from .formulas import (
    closed_form,
    feray_count,
    md_full_cycle,
    md_identity,
    recurrence_star,
)
from .perms import (
    Partition,
    Permutation,
    TotalOrder,
    class_representative,
    conjugacy_classes,
    partitions_of,
    symmetric_group,
)


@dataclass(frozen=True)
class CheckResult:
    label: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        tail = f"  ({self.detail})" if self.detail else ""
        return f"[{mark}] {self.label}{tail}"


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    checks: tuple[CheckResult, ...]

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


# ---------------------------------------------------------------------------
# suites


def suite_theorem_1_1(n: int = 6) -> SuiteReport:
    """Elementary polynomials in the slot elements expand to class sums by
    cycle-count deficit, exhaustively over the group algebra."""
    checks = []
    for nn in range(1, n + 1):
        strata = [AlgebraElement.zero(nn)] * (nn + 1)  # class sums by cycle count
        for lam in partitions_of(nn):
            strata[lam.length] += class_sum(nn, lam)
        ok = all(evaluate(e(k), nn) == strata[nn - k] for k in range(nn + 1))
        checks.append(
            CheckResult(f"elementary slot polynomials equal class-sum strata, n={nn}", ok,
                        f"k = 0..{nn}")
        )
    return SuiteReport("theorem-1.1", tuple(checks))


def suite_theorem_1_4(n: int = 5, gmax: int = 2) -> SuiteReport:
    """Transitive star counts equal (full cycle, monotone tail) counts:
    dynamic programming for every target, listing plus the explicit
    bijection at the smaller bound."""
    checks = []
    for nn in range(1, n + 1):
        for g in range(gmax + 1):
            bad = 0
            total = 0
            for w in symmetric_group(nn):
                total += 1
                if count_star(w, g, nn) != count_monotone_double(w, g):
                    bad += 1
            checks.append(
                CheckResult(
                    f"star count equals monotone double count, n={nn}, g={g}",
                    bad == 0,
                    f"{total} targets via DP",
                )
            )
    list_n = min(n, 4)
    list_g = min(gmax, 1)
    for nn in range(1, list_n + 1):
        for g in range(list_g + 1):
            ok = True
            pairs = 0
            for w in symmetric_group(nn):
                stars = enumerate_star(w, g, nn)
                mds = enumerate_monotone_double(w, g)
                if len(stars) != count_star(w, g, nn) or len(mds) != len(stars):
                    ok = False
                    break
                image = {gamma(f) for f in stars}
                if len(image) != len(stars) or image != set(mds):
                    ok = False
                    break
                pairs += len(stars)
            checks.append(
                CheckResult(
                    f"explicit bijection matches listings, n={nn}, g={g}",
                    ok,
                    f"{pairs} factorisations",
                )
            )
    return SuiteReport("theorem-1.4", tuple(checks))


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


def suite_theorem_1_7(n: int = 5, wmax: int = 5) -> SuiteReport:
    """The transitive part of any elementary/homogeneous/power-sum value
    at the slot elements is central, and the same for a power sum written
    in either basis."""
    checks = []
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
            checks.append(
                CheckResult(
                    f"transitive part of {name}-basis values is central, n={nn}",
                    not bad,
                    f"{count} partitions of weight <= {wmax}",
                )
            )
        checks.append(
            CheckResult(
                f"transitive power sums agree with their e-basis forms, n={nn}",
                all(transitive_evaluate(p(k), nn) == transitive_evaluate(p_k, nn)
                    for k, p_k in enumerate(via_e, 1)),
                f"k = 1..{wmax}",
            )
        )
    return SuiteReport("theorem-1.7", tuple(checks))


def suite_corollary_1_6(n: int = 5, kmax: int = 3) -> SuiteReport:
    """Four routes to the transitive top-slot power agree: the J-power
    form, the power-sum form, and the closed form both symbolically and
    as explicit products."""
    checks = []
    for nn in range(2, n + 1):
        chain = AlgebraElement.one(nn)
        for j in range(2, nn + 1):
            chain = chain * jm_element(nn, j)
        for k in range(kmax + 1):
            degree = nn - 1 + k
            ok = (transitive_power(nn, degree) == transitive_evaluate(p(degree), nn)
                  == evaluate(e(nn - 1) * h(k), nn) == chain * evaluate(h(k), nn))
            checks.append(
                CheckResult(f"transitive power routes agree, n={nn}, k={k}", ok)
            )
    return SuiteReport("corollary-1.6", tuple(checks))


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


def suite_recurrence_2_1(n: int = 6, gmax: int = 2) -> SuiteReport:
    """The join-cut recurrence reproduces every DP star count."""
    checks = [
        CheckResult("initial condition a_0(1, []) = 1",
                    recurrence_star(1, Partition(()), 0) == 1)
    ]
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
            checks.append(
                CheckResult(
                    f"recurrence equals DP star counts, i+|alpha|={total}, g={g}",
                    bad == 0,
                    f"{keys} keys",
                )
            )
    return SuiteReport("recurrence-2.1", tuple(checks))


def suite_formulas_6_2(n: int = 5, gmax: int = 2) -> SuiteReport:
    """The series formula and both closed forms agree with DP counts and
    with exhaustive listings; every division involved is exact."""
    checks = []
    for nn in range(1, n + 1):
        for g in range(gmax + 1):
            bad = sum(not agreement_row(lam, g)["all_agree"] for lam in partitions_of(nn))
            checks.append(
                CheckResult(
                    f"series formula, star DP and monotone double DP agree, n={nn}, g={g}",
                    bad == 0,
                    f"{len(partitions_of(nn))} classes",
                )
            )
    for nn in range(2, n + 1):
        for g in range(gmax + 1):
            cyc = class_representative(Partition((nn,)))
            ident = Permutation.identity(nn)
            ok = (
                md_full_cycle(nn, g) == len(enumerate_monotone_double(cyc, g))
                and md_identity(nn, g) == len(enumerate_monotone_double(ident, g))
            )
            checks.append(
                CheckResult(
                    f"closed forms match exhaustive listings, n={nn}, g={g}", ok
                )
            )
    return SuiteReport("formulas-6.2", tuple(checks))


def suite_recurrence_6_3(n: int = 5, gmax: int = 3) -> SuiteReport:
    """Three-term recurrence for identity-target monotone double counts."""
    checks = []
    for nn in range(2, n + 1):
        # n md_g(id_n) = n (n-1)^2 md_(g-1)(id_n) + 2 (n-1)(2n-3) md_g(id_(n-1)),
        # with the g-1 term read as zero at g = 0
        ok = all(
            nn * md_identity(nn, g)
            == nn * (nn - 1) ** 2 * (md_identity(nn, g - 1) if g else 0)
            + 2 * (nn - 1) * (2 * nn - 3) * md_identity(nn - 1, g)
            for g in range(gmax + 1)
        )
        checks.append(
            CheckResult(
                f"identity-count recurrence holds, n={nn}", ok, f"g = 0..{gmax}"
            )
        )
    return SuiteReport("recurrence-6.3", tuple(checks))


# genus budget per |alpha|, from measured cost (Python 3.11, 2-core x86-64):
# sizes up to 4 take 0.4 s and 19 MB in all; size 5 takes 26 s and 222 MB,
# most of that memory being the action table of S_9
_RELATION_GENUS_CAP = {2: 2, 3: 2, 4: 1, 5: 0}


def suite_relation_6_4(n: int = 4) -> SuiteReport:
    """Star counts against normalised transitive double Hurwitz counts of
    the padded class, by exhaustive enumeration in the doubled group: for
    alpha of size s, b(alpha + 1^(s-1)) = s! (2s-1)^(s+l(alpha)+2g-3) times
    the transitive star count of alpha."""
    checks = []
    for size in range(2, n + 1):
        gcap = _RELATION_GENUS_CAP.get(size, 0)
        big = 2 * size - 1
        for alpha in partitions_of(size):
            padded = Partition(alpha.parts + (1,) * (size - 1))
            rep = class_representative(alpha)
            for g in range(gcap + 1):
                scale = factorial(size) * big ** (size + alpha.length + 2 * g - 3)
                checks.append(
                    CheckResult(
                        f"padded double Hurwitz relation, alpha={alpha}, g={g}",
                        b_number(big, padded, g) == scale * count_star(rep, g, size),
                        f"exhaustive in S_{big}",
                    )
                )
    return SuiteReport("relation-6.4", tuple(checks))


def _step_products_preserved(trace) -> bool:
    for step in trace:
        t, u = step.before
        a, b = step.after
        n = max(t.b, u.b, a.b, b.b)
        lhs = t.as_permutation(n) * u.as_permutation(n)
        rhs = a.as_permutation(n) * b.as_permutation(n)
        if lhs != rhs:
            return False
    return True


def suite_bijections(n: int = 4, gmax: int = 1) -> SuiteReport:
    """Round trips, image checks and product preservation for every
    constructive map, exhausting all factorisations at the given bounds."""
    checks = []
    for nn in range(2, n + 1):
        panel = order_panel(nn)
        natural = TotalOrder.natural(nn)
        for g in range(gmax + 1):
            # each domain and codomain is listed once per (n, g)
            monotone = lru_cache(maxsize=None)(lambda w, order: enumerate_monotone(w, g, order))
            mds = lru_cache(maxsize=None)(lambda w: enumerate_monotone_double(w, g))
            stars = lru_cache(maxsize=None)(lambda w, root: enumerate_star(w, g, root))

            # adjacent-swap rewrite: bijection between order classes
            ok = True
            moved = 0
            for w in symmetric_group(nn):
                for order in panel:
                    source = monotone(w, order)
                    for j in range(1, nn):
                        target_set = set(monotone(w, order.swapped(j)))
                        image = []
                        for f in source:
                            trace: list = []
                            im = lambda_j(f, j, trace)
                            if not _step_products_preserved(trace):
                                ok = False
                            if lambda_j_inverse(im, j) != f:
                                ok = False
                            image.append(im)
                            moved += len(trace)
                        if len(set(image)) != len(source) or set(image) != target_set:
                            ok = False
            checks.append(
                CheckResult(
                    f"adjacent-swap rewrite bijective with exact round trips, n={nn}, g={g}",
                    ok,
                    f"{moved} local moves checked",
                )
            )

            # full order rewrite to natural and back
            ok = True
            for w in symmetric_group(nn):
                natural_set = set(monotone(w, natural))
                for order in panel:
                    source = monotone(w, order)
                    image = [lambda_order(f) for f in source]
                    if any(not f.order.is_natural for f in image):
                        ok = False
                    if set(image) != natural_set or len(set(image)) != len(source):
                        ok = False
                    if any(
                        lambda_order_inverse(im, order) != f
                        for f, im in zip(source, image)
                    ):
                        ok = False
            checks.append(
                CheckResult(
                    f"order rewrite to natural is bijective per order, n={nn}, g={g}", ok
                )
            )

            # star <-> monotone double, all roots, traced
            ok = True
            count = 0
            for w in symmetric_group(nn):
                md_set = set(mds(w))
                for root in range(1, nn + 1):
                    rooted = stars(w, root)
                    count += len(rooted)
                    image = []
                    for f in rooted:
                        trace = []
                        md = gamma(f, trace)
                        if not _step_products_preserved(trace):
                            ok = False
                        if reroot(f, root) != f:
                            ok = False
                        image.append(md)
                    if set(image) != md_set or len(set(image)) != len(rooted):
                        ok = False
                    if root == nn and any(
                        gamma_inverse(md) != f for f, md in zip(rooted, image)
                    ):
                        ok = False
            checks.append(
                CheckResult(
                    f"star to monotone double bijective from every root, n={nn}, g={g}",
                    ok,
                    f"{count} star factorisations",
                )
            )

            # rerooting is a bijection between root classes; a round trip
            # reads the image's own rerootings
            ok = True
            roots = range(1, nn + 1)
            for w in symmetric_group(nn):
                rows = [list(map(reroot_all, stars(w, r))) for r in roots]
                by_record = [dict(zip(stars(w, r), rows[r - 1])) for r in roots]
                for r in roots:
                    for r2 in roots:
                        back = by_record[r2 - 1]
                        image = [row[r2 - 1] for row in rows[r - 1]]
                        if set(image) != set(stars(w, r2)):
                            ok = False
                        if any(im not in back or back[im][r - 1] != f
                               for f, im in zip(stars(w, r), image)):
                            ok = False
            checks.append(
                CheckResult(f"rerooting bijective with round trips, n={nn}, g={g}", ok)
            )

            # conjugation transport on monotone and monotone double forms
            ok = True
            for w in symmetric_group(nn):
                for d in symmetric_group(nn):
                    relabelled = w.relabel(d.inverse())
                    mono_image = [delta(f, d) for f in monotone(w, natural)]
                    if set(mono_image) != set(monotone(relabelled, natural)):
                        ok = False
                    md_image = [theta(f, d) for f in mds(w)]
                    if set(md_image) != set(mds(relabelled)):
                        ok = False
            checks.append(
                CheckResult(
                    f"conjugation transport bijective for every conjugator, n={nn}, g={g}",
                    ok,
                )
            )

            # centrality witness: same count at every member of the class
            ok = True
            for members in conjugacy_classes(nn).values():
                base = stars(members[0], nn)
                for other in members:
                    image = [centrality_witness(f, other) for f in base]
                    if set(image) != set(stars(other, nn)):
                        ok = False
            checks.append(
                CheckResult(
                    f"class transport witnesses equal counts, n={nn}, g={g}", ok
                )
            )
    return SuiteReport("bijections", tuple(checks))


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class SuiteSpec:
    name: str
    runner: Callable[..., SuiteReport]
    caps: dict = field(default_factory=dict)

    @property
    def defaults(self) -> dict:
        """The runner's parameters and their defaults, in signature order."""
        params = inspect.signature(self.runner).parameters.values()
        return {p.name: p.default for p in params if p.default is not p.empty}


SUITES: dict[str, SuiteSpec] = {
    spec.name: spec
    for spec in (
        SuiteSpec(
            "theorem-1.1",
            suite_theorem_1_1,
            {"n": 7},
        ),
        SuiteSpec(
            "theorem-1.4",
            suite_theorem_1_4,
            {"n": 6, "gmax": 3},
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
        SuiteSpec(
            "recurrence-2.1",
            suite_recurrence_2_1,
            {"n": 7, "gmax": 3},
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
    report = spec.runner(**params)
    if not report.checks:
        bounds = ", ".join(f"{key}={value}" for key, value in params.items())
        raise ValueError(f"suite {name} has no checks at {bounds}")
    return report
