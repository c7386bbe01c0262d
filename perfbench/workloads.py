"""The four workloads: inputs from a seed, ops through starfact's public
functions, and checks of every output against perfbench.oracles.

An op returns a record: raw seconds, peak RSS in MB of the process that did
the work, counters, spans, and a list of problems found by the checks.  An
op that raises is a failed op; an op whose outputs fail a check makes the
run incorrect.  Library ops run in a child forked from the parent, so every
op starts with starfact's module-level caches as import left them.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import sys
import time

from harness import Tracer, maxrss_mb, run_command, run_forked, span_totals
from oracles import (
    brute_star_counts,
    class_member,
    class_size,
    class_sum_check,
    complete_h,
    compose,
    cycle_type,
    md_base,
    md_total,
    monotone_base,
    monotone_total,
    parse_cycles,
    parse_partition,
    partitions,
    product_of,
    star_base,
    star_total,
    stirling1,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _seeded_members(rng: random.Random, n: int):
    """One member of every class of S_n, each relabelled by its own seeded
    shuffle; returns (cycle type, images) pairs."""
    out = []
    for lam in partitions(n):
        relabel = list(range(1, n + 1))
        rng.shuffle(relabel)
        out.append((lam, class_member(lam, tuple(relabel))))
    return out


def _forked_op(work, check, inputs, traced: bool, op_id: int) -> dict:
    """Run work(inputs, tracer) in a fresh fork, timing it; check its outputs
    in the child, after the clock stops."""

    def child() -> dict:
        tracer = Tracer(traced, op_id)
        rss0 = maxrss_mb()
        t0 = time.perf_counter()
        with tracer.span("op"):
            outputs, counters = work(inputs, tracer)
        raw = time.perf_counter() - t0
        counters["rss_growth_mb"] = maxrss_mb() - rss0
        return {"raw": raw, "counters": counters, "spans": tracer.spans,
                "problems": check(inputs, outputs)}

    record, rss = run_forked(child)
    record["rss"] = rss
    return record


def _scaled_span_ms(record: dict, prefix: str) -> float:
    total = sum(v for k, v in span_totals(record["spans"]).items() if k.startswith(prefix))
    return total * record["factor"] * 1000


def _rate(records: list[dict], counter: str, prefix: str) -> float:
    """Counter total per scaled second spent in spans starting with prefix."""
    work = sum(r["counters"][counter] for r in records)
    secs = sum(_scaled_span_ms(r, prefix) for r in records) / 1000
    return work / secs


def _median_span_ms(records: list[dict], prefix: str) -> float:
    return statistics.median(_scaled_span_ms(r, prefix) for r in records)


class Workload:
    name = ""
    # ops whose total scaled time is run_s
    batch = 1
    # the harness reference that scales this workload's ops
    reference = "kernel"

    def setup(self, seed: int) -> dict:
        raise NotImplementedError

    def round(self, inputs: dict) -> list:
        """The fixed ops of one round, as (label, fn(traced, op_id)) pairs."""
        raise NotImplementedError

    def extras(self, inputs: dict) -> list:
        """Ops that feed per-layer metrics only, run once a round when traced."""
        return []

    def layers(self, records: list[dict]) -> dict[str, float]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# dp-counts


def _dp_work(inp, tr):
    from starfact.factorisations import count_monotone, count_monotone_double, count_star

    n, order = inp["n"], inp["order"]
    rows = []
    for g in range(inp["gmax"] + 1):
        for lam, w in inp["targets"]:
            with tr.span("factorisations.count_star"):
                s = count_star(w, g, n)
            with tr.span("factorisations.count_monotone_double"):
                d = count_monotone_double(w, g)
            with tr.span("factorisations.count_monotone"):
                m = count_monotone(w, g, order)
            rows.append((lam, g, s, d, m))
    return rows, {"dp_calls": 3 * len(rows)}


def _dp_check(inp, rows) -> list[str]:
    n, gmax = inp["n"], inp["gmax"]
    star = {(lam, g): s for lam, g, s, _, _ in rows}
    md = {(lam, g): d for lam, g, _, d, _ in rows}
    mono = {(lam, g): m for lam, g, _, _, m in rows}
    problems = [f"star {s} != monotone double {d} at {lam}, g={g}"
                for lam, g, s, d, _ in rows if s != d]
    problems += class_sum_check(n, gmax, star_base(n), star, star_total)
    problems += class_sum_check(n, gmax, md_base(n), md, md_total)
    problems += class_sum_check(n, gmax, monotone_base(n), mono, monotone_total)
    return problems


class DpCounts(Workload):
    """Cold layered-DP counts of every class of S_6 at g = 0..2."""

    name = "dp-counts"
    batch = 40
    n, gmax = 6, 2

    def setup(self, seed):
        from starfact.perms import Permutation
        from starfact.verify import order_panel

        rng = random.Random(seed)
        targets = [(lam, Permutation(w)) for lam, w in _seeded_members(rng, self.n)]
        order = rng.choice([o for o in order_panel(self.n) if not o.is_natural])
        return {"n": self.n, "gmax": self.gmax, "targets": targets, "order": order}

    def round(self, inputs):
        return [("dp", lambda traced, op: _forked_op(_dp_work, _dp_check, inputs, traced, op))]

    def layers(self, records):
        return {
            "factorisations.dp_ms": _median_span_ms(records, "factorisations.count"),
            "factorisations.dp_targets_per_s": _rate(records, "dp_calls", "factorisations.count"),
            "factorisations.dp_rss_mb": statistics.median(
                r["counters"]["rss_growth_mb"] for r in records),
        }


# ---------------------------------------------------------------------------
# bijection-roundtrips


def _bij_work(inp, tr):
    from starfact.bijections import gamma, gamma_inverse, lambda_order, lambda_order_inverse
    from starfact.factorisations import (
        enumerate_monotone,
        enumerate_monotone_double,
        enumerate_star,
    )
    from starfact.perms import Permutation

    n = inp["n"]
    c = {"listed": 0, "maps": 0, "moves": 0, "muls": 0, "cycles": 0}
    out = []
    for g in range(inp["gmax"] + 1):
        for lam, w in inp["targets"]:
            with tr.span("factorisations.enumerate_star"):
                stars = enumerate_star(w, g, n)
            with tr.span("factorisations.enumerate_monotone_double"):
                mds = enumerate_monotone_double(w, g)
            with tr.span("factorisations.enumerate_monotone"):
                natural = enumerate_monotone(w, g)
            trace: list = []
            with tr.span("bijections.gamma"):
                images = [gamma(f, trace) for f in stars]
            with tr.span("bijections.gamma_inverse"):
                backs = [gamma_inverse(md, trace) for md in images]
            by_order = []
            for order in inp["orders"]:
                with tr.span("factorisations.enumerate_monotone"):
                    mons = enumerate_monotone(w, g, order)
                with tr.span("bijections.lambda_order"):
                    ims = [lambda_order(f, trace) for f in mons]
                with tr.span("bijections.lambda_order_inverse"):
                    bks = [lambda_order_inverse(im, order, trace) for im in ims]
                by_order.append((mons, ims, bks))
                c["listed"] += len(mons)
                c["maps"] += 2 * len(mons)
            with tr.span("perms.mul"):
                products = []
                for f in stars + natural:
                    prod = Permutation.identity(n)
                    for t in f.factors:
                        prod = prod * t.as_permutation(n)
                    products.append(prod)
                    c["muls"] += len(f.factors)
            with tr.span("perms.cycles"):
                cycles = [prod.cycles() for prod in products]
            c["cycles"] += len(cycles)
            c["listed"] += len(stars) + len(mds) + len(natural)
            c["maps"] += 2 * len(stars)
            c["moves"] += len(trace)
            out.append((lam, g, w, stars, mds, natural, images, backs, by_order, cycles))
    return out, c


def _factor_pairs(f) -> tuple:
    return tuple((t.a, t.b) for t in f.factors)


def _bij_check(inp, out) -> list[str]:
    n, gmax = inp["n"], inp["gmax"]
    problems = []
    star_n, md_n = {}, {}
    mono_n = [dict() for _ in inp["orders"]]
    for lam, g, w, stars, mds, natural, images, backs, by_order, cycles in out:
        where = f"{lam}, g={g}"
        star_n[(lam, g)] = len(stars)
        md_n[(lam, g)] = len(mds)
        if len(set(images)) != len(stars) or set(images) != set(mds):
            problems.append(f"gamma image differs from the monotone double listing at {where}")
        if backs != stars:
            problems.append(f"gamma_inverse does not return its input at {where}")
        for i, (mons, ims, bks) in enumerate(by_order):
            mono_n[i][(lam, g)] = len(mons)
            if len(set(ims)) != len(mons) or set(ims) != set(natural):
                problems.append(f"lambda_order image differs from the natural listing "
                                f"at {where}, order {inp['orders'][i]}")
            if bks != mons:
                problems.append(f"lambda_order_inverse does not return its input at {where}")
        target = w.images
        for f in stars + natural:
            if product_of(n, _factor_pairs(f)) != target:
                problems.append(f"factors of {f.to_line()} do not multiply to {w}")
        for cyc in cycles:
            if tuple(sorted((len(x) for x in cyc), reverse=True)) != lam:
                problems.append(f"cycle decomposition of a product is not of type {lam}")
    problems += class_sum_check(n, gmax, star_base(n), star_n, star_total)
    problems += class_sum_check(n, gmax, md_base(n), md_n, md_total)
    for counts in mono_n:
        problems += class_sum_check(n, gmax, monotone_base(n), counts, monotone_total)
    return problems


class BijectionRoundtrips(Workload):
    """Listings of every class of S_4 at g = 0..1, sent through gamma and
    lambda_order and back."""

    name = "bijection-roundtrips"
    batch = 40
    n, gmax = 4, 1

    def setup(self, seed):
        from starfact.perms import Permutation
        from starfact.verify import order_panel

        rng = random.Random(seed)
        targets = [(lam, Permutation(w)) for lam, w in _seeded_members(rng, self.n)]
        return {"n": self.n, "gmax": self.gmax, "targets": targets,
                "orders": order_panel(self.n)}

    def round(self, inputs):
        return [("roundtrip",
                 lambda traced, op: _forked_op(_bij_work, _bij_check, inputs, traced, op))]

    def layers(self, records):
        return {
            "factorisations.list_ms": _median_span_ms(records, "factorisations.enumerate"),
            "factorisations.listed_per_s": _rate(records, "listed", "factorisations.enumerate"),
            "bijections.map_ms": _median_span_ms(records, "bijections."),
            "bijections.maps_per_s": _rate(records, "maps", "bijections."),
            "bijections.moves_per_s": _rate(records, "moves", "bijections."),
            "perms.mul_per_s": _rate(records, "muls", "perms.mul"),
            "perms.cycles_per_s": _rate(records, "cycles", "perms.cycles"),
        }


# ---------------------------------------------------------------------------
# transitive-algebra


def _alg_work(inp, tr):
    from starfact.algebra import AlgebraElement, e, evaluate, h, p, transitive_evaluate
    from starfact.perms import Permutation

    n = inp["n"]
    c = {"mul_terms": 0}
    transitive = []
    for name, basis in (("e", e), ("h", h), ("p", p)):
        for weight in range(1, inp["wmax"] + 1):
            for lam in partitions(weight):
                with tr.span("algebra.transitive_evaluate"):
                    value = transitive_evaluate(basis(*lam), n)
                with tr.span("algebra.is_central"):
                    central = value.is_central()
                transitive.append((name, lam, value, central))
    plain = {}
    for name, basis, top in (("e", e, n - 1), ("h", h, 3)):
        for k in range(top + 1):
            with tr.span("algebra.evaluate"):
                plain[(name, k)] = evaluate(basis(k), n)

    def mul(a, b):
        c["mul_terms"] += len(a.terms) * len(b.terms)
        with tr.span("algebra.mul"):
            return a * b

    products = []
    for left, right in inp["pairs"]:
        a, b = plain[left], plain[right]
        prod = mul(a, b)
        with tr.span("algebra.is_central"):
            central = prod.is_central()
        products.append((left, right, prod, central))
    sigma = Permutation(inp["sigma"])
    s = AlgebraElement.from_permutation(sigma)
    s_inv = AlgebraElement.from_permutation(sigma.inverse())
    last_image = transitive[-1][2]
    conjugated = [(z, mul(mul(s, z), s_inv)) for z in (products[-1][2], last_image)]
    return (transitive, plain, products, conjugated), c


def _coefficient_sum(element) -> int:
    return sum(element.terms.values())


def _alg_check(inp, outputs) -> list[str]:
    n = inp["n"]
    transitive, plain, products, conjugated = outputs
    problems = []
    for name, lam, value, central in transitive:
        if not central:
            problems.append(f"transitive image of {name}{list(lam)} is not central")
        if name == "p" and len(lam) == 1 and _coefficient_sum(value) != star_total(n, lam[0]):
            problems.append(f"coefficient sum of T(p[{lam[0]}]) != (n-1)! S({lam[0]}, n-1)")
    for (name, k), value in plain.items():
        want = stirling1(n, n - k) if name == "e" else complete_h(k, range(1, n))
        if _coefficient_sum(value) != want:
            problems.append(f"coefficient sum of {name}[{k}] is {_coefficient_sum(value)}, not {want}")
    for left, right, prod, central in products:
        if not central:
            problems.append(f"product {left} * {right} of central elements is not central")
        if _coefficient_sum(prod) != _coefficient_sum(plain[left]) * _coefficient_sum(plain[right]):
            problems.append(f"coefficient sum of {left} * {right} is not the product of sums")
    for z, zc in conjugated:
        if zc != z:
            problems.append("conjugation moved a central element")
    return problems


class TransitiveAlgebra(Workload):
    """Transitive e, h and p images up to weight 5 at n = 6, plain slot
    polynomials, and their products."""

    name = "transitive-algebra"
    batch = 40
    n, wmax = 6, 5

    def setup(self, seed):
        import starfact.algebra  # noqa: F401  (import cost belongs to set-up)

        rng = random.Random(seed)
        sigma = list(range(1, self.n + 1))
        rng.shuffle(sigma)
        pairs = [(("e", 1), ("e", 2)), (("e", 2), ("e", 3)), (("h", 2), ("e", 2)),
                 (("h", 3), ("e", 1)), (("e", 3), ("h", 2))]
        return {"n": self.n, "wmax": self.wmax, "sigma": tuple(sigma), "pairs": pairs}

    def round(self, inputs):
        return [("algebra",
                 lambda traced, op: _forked_op(_alg_work, _alg_check, inputs, traced, op))]

    def layers(self, records):
        return {
            "algebra.transitive_ms": _median_span_ms(records, "algebra.transitive_evaluate"),
            "algebra.evaluate_ms": _median_span_ms(records, "algebra.evaluate"),
            "algebra.central_ms": _median_span_ms(records, "algebra.is_central"),
            "algebra.mul_terms_per_s": _rate(records, "mul_terms", "algebra.mul"),
        }


# ---------------------------------------------------------------------------
# cli-session


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("STARFACT_THREADS", None)
    return env


def _pairs(factors: list[str]) -> list[tuple[int, int]]:
    out = []
    for text in factors:
        a, b = (int(x) for x in text.strip("()").split())
        out.append((a, b))
    return out


def _check_count(args, reply) -> list[str]:
    lam, g = args
    n = sum(lam)
    m = n + len(lam) - 2 + 2 * g
    want = brute_star_counts(n, m).get(lam, 0) // class_size(lam)
    got = [r["count"] for r in reply["results"]]
    return [] if got and all(x == want for x in got) else [f"count replied {got}, want {want}"]


def _check_list(args, reply) -> list[str]:
    lam, target, g = args
    n = sum(lam)
    want = brute_star_counts(n, n + len(lam) - 2 + 2 * g).get(lam, 0) // class_size(lam)
    records = reply["results"]
    problems = [] if len(records) == want else [f"list gave {len(records)} records, want {want}"]
    lines = set()
    for rec in records:
        pairs = _pairs(rec["factors"])
        lines.add(tuple(pairs))
        if any(n not in pair for pair in pairs) or product_of(n, pairs) != target:
            problems.append(f"listed record {rec['factors']} is not a star factorisation")
    if len(lines) != len(records):
        problems.append("list repeated a record")
    return problems


def _check_trace(args, reply) -> list[str]:
    n, legs = args
    star_product = product_of(n, ((a, n) for a in legs))
    steps, end = reply["results"][:-1], reply["results"][-1]["end"]
    problems = []
    for st in steps:
        if product_of(n, _pairs(st["before"])) != product_of(n, _pairs(st["after"])):
            problems.append(f"trace step {st} changed the product")
    sigma = parse_cycles(end["factors"][0], n)
    tail = _pairs(end["factors"][1:])
    if cycle_type(sigma) != (n,):
        problems.append("gamma did not start with a full cycle")
    if compose(sigma, product_of(n, tail)) != star_product:
        problems.append("gamma changed the product")
    bigs = [max(pair) for pair in tail]
    if bigs != sorted(bigs):
        problems.append("gamma tail is not monotone")
    return problems


def _check_algebra(args, reply) -> list[str]:
    n, k = args
    res = reply["results"][0]
    if res.get("kind") != "central":
        return [f"T(p[{k}]) at n={n} is not central"]
    total = sum(class_size(parse_partition(lam)) * c for lam, c in res["decomposition"].items())
    want = star_total(n, k)
    return [] if total == want else [f"T(p[{k}]) coefficient sum {total} != {want}"]


def _check_verify(args, reply) -> list[str]:
    failed = [r["label"] for r in reply["results"] if not r["passed"]]
    return [f"verify check failed: {label}" for label in failed]


def _check_table(args, reply) -> list[str]:
    nmax, gmax = args
    rows = reply["results"]
    problems = [f"table row disagrees: {r}" for r in rows
                if not r["all_agree"] or r["count_star"] != r["md_count"]]
    for n in range(2, nmax + 1):
        counts = {(parse_partition(r["partition"]), r["genus"]): r["count_star"]
                  for r in rows if sum(parse_partition(r["partition"])) == n}
        problems += class_sum_check(n, gmax, star_base(n), counts, star_total)
    return problems


class CliSession(Workload):
    """One fresh `python -m starfact.cli ... --format json` process per op,
    cycling through count, list, trace, algebra, verify and table."""

    name = "cli-session"
    batch = 60
    reference = "start"

    def setup(self, seed):
        import starfact.cli  # noqa: F401  (import cost belongs to set-up)

        # the seed picks members and orders, not sizes: every seed does the
        # same amount of work
        rng = random.Random(seed)
        count_lam = rng.choice(partitions(3))
        count_g = rng.randrange(3)
        list_lam = (2, 1, 1)
        relabel = list(range(1, 5))
        rng.shuffle(relabel)
        list_target = class_member(list_lam, tuple(relabel))
        legs = [1, 2, 3] + [rng.randrange(1, 4) for _ in range(4)]
        rng.shuffle(legs)
        power = rng.choice((5, 6))
        target_text = "".join(f"({' '.join(map(str, cyc))})"
                              for cyc in _cycles_of(list_target))
        specs = [
            ("count", ["count", "--family", "star", "--partition",
                       "[" + ",".join(map(str, count_lam)) + "]", "--genus", str(count_g)],
             _check_count, (count_lam, count_g)),
            ("list", ["list", "--family", "star", "--target", target_text, "--genus", "1"],
             _check_list, (list_lam, list_target, 1)),
            ("trace", ["trace", "--map", "gamma", "--n", "4", "--root", "4",
                       "--legs", ",".join(map(str, legs))],
             _check_trace, (4, tuple(legs))),
            ("algebra", ["algebra", "--expr", f"T(p[{power}])", "--n", "5"],
             _check_algebra, (5, power)),
            ("verify", ["verify", "--suite", "theorem-1.4"], _check_verify, None),
            ("table", ["table", "--nmax", "4", "--gmax", "1"], _check_table, (4, 1)),
        ]
        return {"specs": specs, "env": _cli_env()}

    def round(self, inputs):
        return [(label, self._call(inputs["env"], argv, check, args))
                for label, argv, check, args in inputs["specs"]]

    def _call(self, env, argv, check, args):
        def run(traced, op):
            tracer = Tracer(traced, op)
            with tracer.span("cli." + argv[0]):
                code, out, err, raw, rss = run_command(
                    [sys.executable, "-m", "starfact.cli", *argv, "--format", "json"], env, ROOT)
            if code != 0:
                raise RuntimeError(f"{argv[0]} exited {code}: {err.decode(errors='replace')}")
            reply = json.loads(out)
            problems = [] if reply.get("pass") is True else [f"{argv[0]} replied pass != true"]
            problems += check(args, reply)
            return {"raw": raw, "rss": rss, "counters": {}, "spans": tracer.spans,
                    "problems": problems}

        return run

    def extras(self, inputs):
        env = inputs["env"]

        def interpreter(code):
            def run(traced, op):
                status, _, err, raw, rss = run_command([sys.executable, "-c", code], env, ROOT)
                if status != 0:
                    raise RuntimeError(err.decode(errors="replace"))
                return {"raw": raw, "rss": rss, "counters": {}, "spans": [], "problems": []}
            return run

        def suite(traced, op):
            def work(_inputs, tr):
                from starfact.verify import run_suite

                with tr.span("verify.run_suite"):
                    report = run_suite("theorem-1.4")
                return report.passed, {}

            def check(_inputs, passed):
                return [] if passed else ["run_suite('theorem-1.4') failed"]

            return _forked_op(work, check, None, traced, op)

        return [("verify.run_suite", suite),
                ("cli.import", interpreter("import starfact.cli")),
                ("cli.bare", interpreter("pass"))]

    def layers(self, records):
        def scaled_ms(label):
            return [r["raw"] * r["factor"] * 1000 for r in records if r["label"] == label]

        imports, bare = scaled_ms("cli.import"), scaled_ms("cli.bare")
        return {
            "cli.start_ms": statistics.median(scaled_ms("count")),
            "cli.import_ms": statistics.median(imports) - statistics.median(bare),
            "verify.suite_ms": statistics.median(scaled_ms("verify.run_suite")),
        }


def _cycles_of(images: tuple[int, ...]) -> list[tuple[int, ...]]:
    seen, out = set(), []
    for start in range(1, len(images) + 1):
        if start in seen:
            continue
        cyc, x = [], start
        while x not in seen:
            seen.add(x)
            cyc.append(x)
            x = images[x - 1]
        out.append(tuple(cyc))
    return out


WORKLOADS = {wl.name: wl for wl in (DpCounts(), BijectionRoundtrips(),
                                     TransitiveAlgebra(), CliSession())}
