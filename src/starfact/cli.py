"""Command line front end: counting, listing, bijection traces, algebra
expressions, verification suites and agreement tables.

Every command prints deterministically; ``--format json`` wraps results in
the stable shape {command, config, results, pass}.  Exit status is 0 on
success, 1 when a verification fails, 2 for usage or bounds errors.
"""

from __future__ import annotations

import argparse
import operator
import os
import re
import sys
from functools import reduce

from .algebra import (
    AlgebraElement,
    NotCentralError,
    SymExpr,
    e,
    evaluate,
    format_class_decomposition,
    h,
    jm_element,
    jm_var,
    ordered_decomposition,
    p,
    product_of,
    sum_of,
    transitive_evaluate,
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
    theta,
)
from .factorisations import (
    ConditionViolation,
    MonotoneDoubleFactorisation,
    MonotoneFactorisation,
    StarFactorisation,
    b_number,
    count_monotone,
    count_monotone_double,
    count_star,
    enumerate_monotone,
    enumerate_monotone_double,
    enumerate_star,
)
from .formulas import closed_form, feray_count
from .perms import (
    Partition,
    Permutation,
    TotalOrder,
    Transposition,
    class_representative,
    partitions_of,
)
from .verify import BOUND_FLOORS, SUITES, agreement_row, run_suite


class UsageError(Exception):
    """Bad flags, malformed input text, or an exceeded bound."""


# ---------------------------------------------------------------------------
# input parsing helpers


def _parsed(kind: str, parse, text: str, *args):
    try:
        return parse(text, *args)
    except ValueError as exc:
        raise UsageError(f"bad {kind} {text!r}: {exc}") from None


def _parse_permutation(text: str, n: int | None) -> Permutation:
    return _parsed("permutation", Permutation.parse, text, n)


def _parse_partition(text: str) -> Partition:
    return _parsed("partition", Partition.parse, text)


def _parse_order(text: str, n: int) -> TotalOrder:
    order = _parsed("order", TotalOrder.parse, text)
    if len(order.sequence) != n:
        raise UsageError(f"order {text!r} has {len(order.sequence)} symbols, expected {n}")
    return order


def _parse_legs(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise UsageError(f"bad legs {text!r}: expected comma-separated integers") from None


_FACTOR_RE = re.compile(r"\(\s*(\d+)\s+(\d+)\s*\)")


def _parse_factors(text: str) -> tuple[Transposition, ...]:
    """Parse a factor list like ``(1 3)(2 3)`` (commas or spaces allowed)."""
    rest = _FACTOR_RE.sub("", text).replace(",", "").strip()
    if rest:
        raise UsageError(f"bad factors {text!r}: leftover text {rest!r}")
    out = []
    for a, b in _FACTOR_RE.findall(text):
        x, y = int(a), int(b)
        if x == y:
            raise UsageError(f"bad factors {text!r}: ({a} {b}) is not a transposition")
        out.append(Transposition(x, y))
    return tuple(out)


# what a bound guards -> the largest value of each flag it reads; a
# verification suite brings its own caps from ``verify.SUITES``
_CAPS = {
    "DP counting": {"n": 6, "genus": 8},
    "listing": {"n": 5, "genus": 2},
    # each closed form's worst measured corner (Python 3.11, 2-core x86-64): the
    # star series formula at 44 distinct parts summing to 1000, genus 100, 6.4 s
    # (n = 100 at genus 200 takes 12 s; it slows with genus and distinct parts);
    # the md closed form at [1000], genus 1000, 3.4 s (it slows with n(n + 2g))
    "star formula route": {"n": 1000, "genus": 100},
    "md formula route": {"n": 1000, "genus": 1000},
    "double Hurwitz enumeration": {"n": 7, "genus": 1},
    "group algebra": {"n": 6},
    "transitive evaluation": {"n": 5},
    "agreement table": {"nmax": 5, "gmax": 2},
    "trace": {},
}


def _check_bound(args, what: str, caps: dict | None = None, **values: int) -> None:
    """Refuse each value below its floor and, unless --unsafe-bounds is
    given, above its cap in ``caps`` (by default ``_CAPS[what]``)."""
    caps = _CAPS[what] if caps is None else caps
    for name, value in values.items():
        least = BOUND_FLOORS.get(name, 0)
        if value < least:
            raise UsageError(f"--{name} must be at least {least} (got {value})")
        cap = caps.get(name)
        if cap is not None and value > cap and not args.unsafe_bounds:
            raise UsageError(
                f"bound exceeded for {what}: {name} <= {cap} (got {name}={value}); "
                "pass --unsafe-bounds to override"
            )


def _given(args, flag: str):
    """The value of a flag such as ``--to-order``; None when it was not given."""
    return getattr(args, flag[2:].replace("-", "_"), None)


def _refuse_unread(args, owner: str, flags) -> None:
    """Refuse the first of ``flags`` that was given: ``owner`` reads none."""
    for flag in flags:
        if _given(args, flag) is not None:
            raise UsageError(f"{owner} takes no {flag}")


# ---------------------------------------------------------------------------
# expression language


class ExpressionError(UsageError):
    def __init__(self, position: int, message: str) -> None:
        super().__init__(f"parse error at position {position}: {message}")


_TOKEN_RE = re.compile(r"(\d+)|([JehpT])|([\[\]()+\-*^,])|(\S)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        pos = m.start()
        if m.group(1):
            tokens.append(("int", m.group(1), pos))
        elif m.group(2):
            tokens.append(("name", m.group(2), pos))
        elif m.group(3):
            tokens.append(("punct", m.group(3), pos))
        else:
            raise ExpressionError(pos, f"unexpected character {m.group(4)!r}")
    tokens.append(("end", "", len(text)))
    return tokens


class _ExprParser:
    """Recursive descent over  expr := term (('+'|'-') term)*,
    term := power ('*' power)*,  power := atom ('^' INT)*,
    atom := INT | J[k] | e[parts] | h[parts] | p[parts] | T(expr) | (expr).
    Sums and products stay flat, as ("+", terms) and ("*", factors), with
    a subtracted term held as ("neg", term), so no chain nests the tree."""

    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str) -> None:
        kind, got, pos = self.take()
        if got != value:
            raise ExpressionError(pos, f"expected {value!r}, found {got or 'end of input'!r}")

    def parse(self):
        node = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExpressionError(pos, f"unexpected {value!r}")
        return node

    def expr(self):
        terms = [self.term()]
        while self.peek()[1] in ("+", "-"):
            _, op, _ = self.take()
            term = self.term()
            terms.append(term if op == "+" else ("neg", term))
        return terms[0] if len(terms) == 1 else ("+", terms)

    def term(self):
        factors = [self.power()]
        while self.peek()[1] == "*":
            self.take()
            factors.append(self.power())
        return factors[0] if len(factors) == 1 else ("*", factors)

    def power(self):
        node = self.atom()
        while self.peek()[1] == "^":
            self.take()
            kind, value, pos = self.take()
            if kind != "int":
                raise ExpressionError(pos, "exponent must be an integer")
            node = ("^", node, int(value))
        return node

    def atom(self):
        kind, value, pos = self.take()
        if kind == "int":
            return ("int", int(value))
        if kind == "punct" and value == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind == "name" and value == "J":
            self.expect("[")
            k = self.int_arg()
            self.expect("]")
            return ("jm", k)
        if kind == "name" and value in ("e", "h", "p"):
            self.expect("[")
            parts = [self.int_arg()]
            while self.peek()[1] == ",":
                self.take()
                parts.append(self.int_arg())
            self.expect("]")
            return ("gen", value, tuple(parts))
        if kind == "name" and value == "T":
            self.expect("(")
            node = self.expr()
            self.expect(")")
            return ("T", node)
        raise ExpressionError(pos, f"unexpected {value or 'end of input'!r}")

    def int_arg(self) -> int:
        kind, value, pos = self.take()
        if kind != "int":
            raise ExpressionError(pos, "expected an integer")
        return int(value)


# a flat sum or product node -> (its fold inside T(...), its binary operator outside)
_FOLDS = {"+": (sum_of, operator.add), "*": (product_of, operator.mul)}


def _value(node, n: int, inside_t: bool = False) -> SymExpr | AlgebraElement:
    """Value of a parse tree at degree n: an element of the group algebra
    outside T(...) (where J[1] is the empty sum, zero), and a polynomial in
    the slot variables inside it."""
    kind = node[0]
    if kind == "int":
        return node[1] * (e() if inside_t else AlgebraElement.one(n))
    if kind == "jm":
        return jm_var(node[1]) if inside_t else jm_element(n, node[1])
    if kind == "gen":
        poly = {"e": e, "h": h, "p": p}[node[1]](*node[2])
        return poly if inside_t else evaluate(poly, n)
    if kind == "neg":
        return -1 * _value(node[1], n, inside_t)
    if kind in _FOLDS:
        # folded in a loop, however many operands, as the parser keeps them flat
        values = [_value(x, n, inside_t) for x in node[1]]
        flat, binary = _FOLDS[kind]
        return flat(values) if inside_t else reduce(binary, values)
    if kind == "^":
        return _value(node[1], n, inside_t) ** node[2]
    if kind == "T":
        if inside_t:
            raise UsageError("nested T(...) is not supported")
        return transitive_evaluate(_value(node[1], n, True), n)
    raise AssertionError(kind)


# ---------------------------------------------------------------------------
# output plumbing


def _emit(args, command: str, config: dict, results, passed: bool, text_lines) -> None:
    if args.format == "json":
        import json  # only JSON output pays for it

        payload = {
            "command": command,
            "config": config,
            "results": results,
            "pass": passed,
        }
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# count and list


# family -> (DP counter, lister, closed form): the counter and the lister
# are called as (target, genus, *extra), the closed form as (class, genus)
_FAMILIES = {
    "star": (count_star, enumerate_star, feray_count),
    "monotone": (count_monotone, enumerate_monotone, None),
    "md": (count_monotone_double, enumerate_monotone_double, closed_form),
}


def _resolve_input(args) -> tuple[Permutation, Partition | None, int]:
    """The target, its partition when one was given, and the checked genus;
    a flag that the family or the partition would leave unread is refused."""
    _refuse_unread(args, f"family {args.family}", [
        flag for flag, family in (("--root", "star"), ("--order", "monotone"))
        if family != args.family])
    if args.partition is not None:
        _refuse_unread(args, "--partition", ("--target", "--n"))
    if args.genus < 0:
        raise UsageError("genus must be nonnegative")
    if args.partition:
        lam = _parse_partition(args.partition)
        if lam.n == 0:
            raise UsageError("partition must be nonempty")
        return class_representative(lam), lam, args.genus
    if args.target:
        return _parse_permutation(args.target, args.n), None, args.genus
    raise UsageError("one of --target or --partition is required")


def _family_extra(args, n: int) -> tuple[dict, tuple]:
    """Config entries and extra counter/lister arguments of the family: the
    star root (default n), or the monotone order when one is given."""
    if args.family == "star":
        root = args.root if args.root is not None else n
        if not 1 <= root <= n:
            raise UsageError(f"root {root} outside [{n}]")
        return {"root": root}, (root,)
    if args.family == "monotone" and args.order:
        order = _parse_order(args.order, n)
        return {"order": str(order)}, (order,)
    return {}, ()


def _count_one(args, method: str, target: Permutation, lam: Partition | None,
               genus: int, extra: tuple) -> int:
    counter, lister, formula = _FAMILIES[args.family]
    if method == "formula":
        if formula is None:
            raise UsageError(f"no closed form for family {args.family}")
        shape = lam if lam is not None else target.cycle_type()
        _check_bound(args, f"{args.family} formula route", n=shape.n, genus=genus)
        value = formula(shape, genus)
        if value is None:
            raise UsageError(f"no closed form for family {args.family} at class {shape}")
        return value
    _check_bound(args, "DP counting" if method == "dp" else "listing", n=target.n, genus=genus)
    if method == "dp":
        return counter(target, genus, *extra)
    return len(lister(target, genus, *extra))


def cmd_count(args) -> int:
    target, lam, genus = _resolve_input(args)
    if args.family == "dh":
        # dh has one route, the layered walk of ``count_double_hurwitz``
        missing = {"listing": "listing", "formula": "closed form"}.get(args.method)
        if missing:
            raise UsageError(f"no {missing} for family dh")
        beta = lam if lam is not None else target.cycle_type()
        _check_bound(args, "double Hurwitz enumeration", n=beta.n, genus=genus)
        config = {"family": "dh", "partition": str(beta), "genus": genus}
        results = [{"method": "dp", "count": b_number(beta.n, beta, genus)}]
    else:
        config = {"family": args.family}
        if lam is not None:
            config["partition"] = str(lam)
        config["target"] = str(target)
        family_config, extra = _family_extra(args, target.n)
        config.update(family_config)
        config["genus"] = genus
        method = "dp" if args.method == "auto" else args.method
        results = [{"method": method,
                    "count": _count_one(args, method, target, lam, genus, extra)}]
        # auto adds the formula wherever the class of a given partition has one
        formula = _FAMILIES[args.family][2]
        if args.method == "auto" and lam is not None and formula is not None:
            value = formula(lam, genus)
            if value is not None:
                results.append({"method": "formula", "count": value})
    # Python converts an integer to text only up to a limit on its digits (0
    # for none; the limit is absent before Python 3.10.7)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit and any(r["count"] >= 10**limit for r in results):
        raise UsageError(f"the count has more than {limit} decimal digits, more than can be printed")
    lines = [" ".join(f"{key}={value}" for key, value in config.items())]
    lines += [f"method={r['method']} count={r['count']}" for r in results]
    passed = len({r["count"] for r in results}) == 1
    if not passed:
        lines.append("methods disagree")
    _emit(args, "count", config, results, passed, lines)
    return 0 if passed else 1


def cmd_list(args) -> int:
    target, _, genus = _resolve_input(args)
    _check_bound(args, "listing", n=target.n, genus=genus)
    config: dict = {"family": args.family, "target": str(target), "genus": genus}
    family_config, extra = _family_extra(args, target.n)
    config.update(family_config)
    items = _FAMILIES[args.family][1](target, genus, *extra)
    lines = [f.to_line() for f in items]
    lines.append(f"total={len(items)}")
    _emit(args, "list", config, [f.to_record() for f in items], True, lines)
    return 0


# ---------------------------------------------------------------------------
# trace


def _require(args, flag: str):
    value = _given(args, flag)
    if value is None:
        raise UsageError(f"--map {args.map} requires {flag}")
    return value


def _star_input(args) -> StarFactorisation:
    n = _require(args, "--n")
    root = _require(args, "--root")
    legs = _parse_legs(_require(args, "--legs"))
    if args.target:
        target = _parse_permutation(args.target, n)
    else:
        if not 1 <= root <= n:
            raise UsageError(f"root {root} outside [{n}]")
        target = Permutation.identity(n)
        for a in legs:
            if not 1 <= a <= n or a == root:
                raise UsageError(f"leg {a} invalid for root {root} in [1, {n}]")
            target = target * Permutation.transposition(n, a, root)
    return StarFactorisation.from_legs(n, root, legs, target)


def _monotone_input(args) -> MonotoneFactorisation:
    n = _require(args, "--n")
    factors = _parse_factors(args.factors if args.factors is not None else "")
    order = (
        _parse_order(args.order, n)
        if args.order
        else TotalOrder.natural(n)
    )
    if args.target:
        target = _parse_permutation(args.target, n)
    else:
        target = Permutation.identity(n)
        for t in factors:
            target = target * t.as_permutation(n)
    return MonotoneFactorisation.from_factors(n, order, factors, target)


def _md_input(args) -> MonotoneDoubleFactorisation:
    n = _require(args, "--n")
    sigma = _parse_permutation(_require(args, "--sigma"), n)
    tail = _parse_factors(args.tail if args.tail is not None else "")
    target = sigma
    for t in tail:
        target = target * t.as_permutation(n)
    if args.target:
        stated = _parse_permutation(args.target, n)
        if stated != target:
            raise UsageError(f"stated target {stated} differs from product {target}")
    return MonotoneDoubleFactorisation.from_factors(n, sigma, tail, target)


# input kind -> the flags it reads besides --n and --target, and its reader
_TRACE_INPUTS = {
    "star": (("--root", "--legs"), _star_input),
    "monotone": (("--factors", "--order"), _monotone_input),
    "md": (("--sigma", "--tail"), _md_input),
}

# map -> its input kind, its own flag (if any), how that flag's text is read
# at the input's degree (None: as given), and the map itself
_TRACE_MAPS = {
    "gamma": ("star", None, None, gamma),
    "gamma-inverse": ("md", None, None, gamma_inverse),
    "lambda-j": ("monotone", "--j", None, lambda_j),
    "lambda-j-inverse": ("monotone", "--j", None, lambda_j_inverse),
    "lambda-order": ("monotone", None, None, lambda_order),
    "lambda-order-inverse": ("monotone", "--to-order", _parse_order, lambda_order_inverse),
    "delta": ("monotone", "--conjugator", _parse_permutation, delta),
    "theta": ("md", "--conjugator", _parse_permutation, theta),
    "reroot": ("star", "--new-root", None, reroot),
    "witness": ("star", "--to-target", _parse_permutation, centrality_witness),
}


def _trace_reads(name: str) -> tuple:
    """The flags a map reads besides --n and --target: its input's, then its own."""
    kind, own, _, _ = _TRACE_MAPS[name]
    return _TRACE_INPUTS[kind][0] + ((own,) if own else ())


# record type -> its end line, given the record and its factors as one string
_END_LINES = {
    StarFactorisation:
        "end: family=star root={0.root} factors={1} target={0.target} genus={0.genus}",
    MonotoneFactorisation:
        "end: family=monotone order={0.order} factors={1} target={0.target} genus={0.genus}",
    MonotoneDoubleFactorisation:
        "end: family=md sigma={0.sigma} tail={1} target={0.target} genus={0.genus}",
}


def cmd_trace(args) -> int:
    reads = _trace_reads(args.map)
    _refuse_unread(args, f"--map {args.map}", [
        flag for flag in dict.fromkeys(sum(map(_trace_reads, _TRACE_MAPS), ()))
        if flag not in reads])
    if args.n is not None:
        _check_bound(args, "trace", n=args.n)
    kind, own, read, move = _TRACE_MAPS[args.map]
    start = _TRACE_INPUTS[kind][1](args)
    trace: list = []
    if own is None:
        result = move(start, trace)
    else:
        value = _require(args, own)
        result = move(start, value if read is None else read(value, start.n), trace)
    lines = [str(step) for step in trace]
    lines.append(_END_LINES[type(result)].format(result, "".join(map(str, result.factors))))
    results = [
        {
            "pos": s.pos,
            "move": s.move,
            "before": [str(t) for t in s.before],
            "after": [str(t) for t in s.after],
        }
        for s in trace
    ]
    results.append({"end": result.to_record()})
    config = {"map": args.map}
    _emit(args, "trace", config, results, True, lines)
    return 0


# ---------------------------------------------------------------------------
# algebra


def cmd_algebra(args) -> int:
    n = args.n
    node = _ExprParser(args.expr).parse()
    # the tokenizer admits T only as the head of a T(...) atom
    _check_bound(args, "transitive evaluation" if "T" in args.expr else "group algebra", n=n)
    element = _value(node, n)
    config = {"n": n, "expr": args.expr}
    try:
        decomp = element.decompose()
    except NotCentralError as exc:
        a, b = exc.witness
        line = (
            f"NotCentral: coefficient {element.coefficient(a)} at {a} "
            f"but {element.coefficient(b)} at {b}"
        )
        results = [
            {
                "kind": "not_central",
                "witness": [str(a), str(b)],
                "coefficients": [element.coefficient(a), element.coefficient(b)],
            }
        ]
        _emit(args, "algebra", config, results, True, [line])
        return 0
    rendered = format_class_decomposition(decomp)
    results = [
        {
            "kind": "central",
            "decomposition": {str(lam): c for lam, c in ordered_decomposition(decomp)},
            "rendered": rendered,
        }
    ]
    _emit(args, "algebra", config, results, True, [rendered])
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    spec = SUITES[args.suite]
    names = ("n", "gmax", "kmax", "wmax")
    owner = f"suite {args.suite}"
    _refuse_unread(args, owner, [f"--{name}" for name in names if name not in spec.defaults])
    overrides = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    _check_bound(args, owner, spec.caps, **overrides)
    report = run_suite(args.suite, **overrides)
    config = {"suite": args.suite, **spec.defaults, **overrides}
    results = [
        {"label": c.label, "passed": c.passed, "detail": c.detail}
        for c in report.checks
    ]
    _emit(args, "verify", config, results, report.passed, report.lines())
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# table


def cmd_table(args) -> int:
    _check_bound(args, "agreement table", nmax=args.nmax, gmax=args.gmax)
    rows = []
    for n in range(1, args.nmax + 1):
        for lam in partitions_of(n):
            for g in range(args.gmax + 1):
                rows.append(agreement_row(lam, g))
    passed = all(r["all_agree"] for r in rows)
    config = {"nmax": args.nmax, "gmax": args.gmax}
    columns = ["partition", "genus", "count_star", "md_count", "feray",
               "closed_form", "all_agree"]
    # every cell as printed; all_agree, the last column, reads yes or no
    grid = [columns] + [[str(row[c]) for c in columns[:-1]] + ["yes" if row["all_agree"] else "no"]
                        for row in rows]
    if args.format == "csv":
        lines = [",".join(cells) for cells in grid]
    else:  # text renders as markdown; json reads only the rows
        lines = ["| " + " | ".join(cells) + " |" for cells in grid]
        lines.insert(1, "|" + "|".join(" --- " for _ in columns) + "|")
    _emit(args, "table", config, rows, passed, lines)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starfact",
        description="Exact counting, bijections and group-algebra checks "
        "for transposition factorisations in symmetric groups.",
    )

    def common(*formats: str) -> list[argparse.ArgumentParser]:
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument("--format", default="text",
                            choices=["text", "json", *formats], help="output format")
        return [parent]

    # only the subcommands with feasibility bounds take the override
    bounded = argparse.ArgumentParser(add_help=False)
    bounded.add_argument("--unsafe-bounds", action="store_true",
                         help="override the built-in feasibility bounds")

    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("count", parents=common() + [bounded],
                        help="count factorisations of one target")
    pc.add_argument("--family", required=True,
                    choices=["star", "monotone", "md", "dh"])
    pc.add_argument("--target", help='permutation, e.g. "(1 2)(3)"')
    pc.add_argument("--partition", help='cycle type, e.g. "[3,1]"')
    pc.add_argument("--n", type=int, help="degree override for --target")
    pc.add_argument("--genus", type=int, required=True)
    pc.add_argument("--root", type=int, help="star root (default: n)")
    pc.add_argument("--order", help='total order for family monotone, e.g. "3<2<1"')
    pc.add_argument("--method", default="auto",
                    choices=["auto", "dp", "listing", "formula"])
    pc.set_defaults(func=cmd_count)

    pl = sub.add_parser("list", parents=common() + [bounded],
                        help="list factorisations of one target")
    pl.add_argument("--family", required=True, choices=["star", "monotone", "md"])
    pl.add_argument("--target")
    pl.add_argument("--partition")
    pl.add_argument("--n", type=int)
    pl.add_argument("--genus", type=int, required=True)
    pl.add_argument("--root", type=int)
    pl.add_argument("--order")
    pl.set_defaults(func=cmd_list)

    pt = sub.add_parser("trace", parents=common(),
                        help="print the move-by-move trace of a bijection")
    pt.add_argument("--map", required=True, choices=list(_TRACE_MAPS))
    pt.add_argument("--n", type=int)
    pt.add_argument("--root", type=int)
    pt.add_argument("--legs", help='star legs, e.g. "1,2,1"')
    pt.add_argument("--order")
    pt.add_argument("--factors", help='transpositions, e.g. "(1 3)(2 3)"')
    pt.add_argument("--sigma", help="leading full cycle")
    pt.add_argument("--tail", help="monotone tail transpositions")
    pt.add_argument("--target")
    pt.add_argument("--j", type=int, help="order position to swap")
    pt.add_argument("--to-order", dest="to_order")
    pt.add_argument("--conjugator")
    pt.add_argument("--new-root", dest="new_root", type=int)
    pt.add_argument("--to-target", dest="to_target")
    pt.set_defaults(func=cmd_trace)

    pa = sub.add_parser("algebra", parents=common() + [bounded],
                        help="evaluate an expression in the group algebra")
    pa.add_argument("--n", type=int, required=True)
    pa.add_argument("--expr", required=True,
                    help='e.g. "T(J[4]^4)", "p[4]", "e[2,1]"')
    pa.set_defaults(func=cmd_algebra)

    pv = sub.add_parser("verify", parents=common() + [bounded],
                        help="run a named verification suite")
    pv.add_argument("--suite", required=True, choices=sorted(SUITES))
    pv.add_argument("--n", type=int)
    pv.add_argument("--gmax", type=int)
    pv.add_argument("--kmax", type=int)
    pv.add_argument("--wmax", type=int)
    pv.set_defaults(func=cmd_verify)

    pb = sub.add_parser("table", parents=common("csv") + [bounded],
                        help="cross-method agreement table over classes")
    pb.add_argument("--nmax", type=int, default=4)
    pb.add_argument("--gmax", type=int, default=1)
    pb.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        if sys.stdout is not None:  # None when started with stdout closed
            sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early, as ``| head`` does: stop quietly,
        # with stdout on the null device so the flush at exit cannot fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConditionViolation as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # a parse tree, expression or listing deeper than the Python stack
        print(f"error: input nests past the recursion limit ({sys.getrecursionlimit()})",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
