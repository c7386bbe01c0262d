"""Command-line surface: worked examples, formats, bounds, exit codes.

Everything runs in process through ``cli.main`` so coverage tools see it;
one subprocess test at the bottom guards the installed entry point.
"""

import json
import re
import subprocess
import sys

import pytest

from starfact import Permutation, cli, count_monotone
from starfact.algebra import (
    NotCentralError,
    e,
    evaluate,
    format_class_decomposition,
    jm_element,
    jm_var,
    p,
    transitive_evaluate,
)
from starfact.verify import CheckResult, SuiteSpec, SUITES


# trace: a valid start of each input kind, a value for every map-specific flag,
# and each map's input kind and own flag, in the order --map lists the maps
TRACE_STARTS = {
    "star": ("--n", "3", "--root", "3", "--legs", "1,2,1"),
    "monotone": ("--n", "3", "--factors", "(1 2)(1 3)"),
    "md": ("--n", "3", "--sigma", "(1 2 3)"),
}
TRACE_VALUES = {
    "--root": "3", "--legs": "1,2,1", "--sigma": "(1 2 3)", "--tail": "(1 2)",
    "--factors": "(1 2)", "--order": "3<2<1", "--j": "1", "--to-order": "3<2<1",
    "--conjugator": "(1 2)", "--new-root": "1", "--to-target": "(1 3)",
}
TRACE_MAPS = {
    "gamma": ("star", None), "gamma-inverse": ("md", None),
    "lambda-j": ("monotone", "--j"), "lambda-j-inverse": ("monotone", "--j"),
    "lambda-order": ("monotone", None), "lambda-order-inverse": ("monotone", "--to-order"),
    "delta": ("monotone", "--conjugator"), "theta": ("md", "--conjugator"),
    "reroot": ("star", "--new-root"), "witness": ("star", "--to-target"),
}
TRACE_INPUT_FLAGS = {"star": ("--root", "--legs"), "monotone": ("--factors", "--order"),
                     "md": ("--sigma", "--tail")}


def trace_reads(name):
    kind, own = TRACE_MAPS[name]
    return TRACE_INPUT_FLAGS[kind] + ((own,) if own else ())


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_star_worked_example(self, capsys):
        code, out, err = run(
            capsys,
            "count", "--family", "star", "--target", "(1 2)(3)",
            "--genus", "0", "--root", "3",
        )
        assert code == 0 and err == ""
        assert out == "family=star target=(1 2)(3) root=3 genus=0\nmethod=dp count=2\n"

    def test_md_trivial(self, capsys):
        code, out, _ = run(
            capsys, "count", "--family", "md", "--target", "(1 2 3)", "--genus", "0"
        )
        assert code == 0
        assert out.endswith("method=dp count=1\n")

    def test_partition_runs_both_methods(self, capsys):
        code, out, _ = run(
            capsys, "count", "--family", "star", "--partition", "[3]", "--genus", "1"
        )
        assert code == 0
        assert out == (
            "family=star partition=[3] target=(1 2 3) root=3 genus=1\n"
            "method=dp count=5\n"
            "method=formula count=5\n"
        )

    def test_formula_at_large_genus(self, capsys):
        code, out, err = run(
            capsys, "count", "--family", "md", "--partition", "[3]",
            "--genus", "400", "--method", "formula",
        )
        assert code == 0 and err == ""
        assert out == (
            "family=md partition=[3] target=(1 2 3) genus=400\n"
            f"method=formula count={(2**802 - 1) // 3}\n"
        )

    def test_formula_route_past_its_cap(self, capsys):
        # each family's closed form has its own caps: the md closed form stops
        # at genus 1000, far below the star series formula's genus cap
        argv = ("count", "--family", "md", "--partition", "[3]", "--method", "formula")
        code, out, err = run(capsys, *argv, "--genus", "401")
        assert (code, err) == (0, "")
        assert out.endswith(f"method=formula count={(2**804 - 1) // 3}\n")
        assert run(capsys, *argv, "--genus", "1001")[0] == 2
        code, out, err = run(capsys, *argv, "--genus", "1001", "--unsafe-bounds")
        assert (code, err) == (0, "")
        assert out.endswith(f"method=formula count={(2**2004 - 1) // 3}\n")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python prints integers of any length")
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_count_past_the_printable_digits_is_refused(self, capsys, fmt):
        # (2^40002 - 1) / 3 has 12 042 digits, past Python's default limit of
        # 4300 on converting an integer to text
        limit = sys.get_int_max_str_digits()
        code, out, err = run(
            capsys, "count", "--family", "md", "--partition", "[3]", "--genus", "20000",
            "--method", "formula", "--unsafe-bounds", "--format", fmt,
        )
        assert (code, out) == (2, "")
        assert err == (f"error: the count has more than {limit} decimal digits, "
                       "more than can be printed\n")

    def test_monotone_with_order(self, capsys):
        code, out, _ = run(
            capsys,
            "count", "--family", "monotone", "--target", "(1 3 2)",
            "--genus", "0", "--order", "3<2<1",
        )
        assert code == 0
        assert out == "family=monotone target=(1 3 2) order=3<2<1 genus=0\nmethod=dp count=2\n"

    def test_double_hurwitz_ratio(self, capsys):
        code, out, _ = run(
            capsys, "count", "--family", "dh", "--partition", "[2,1]", "--genus", "0"
        )
        assert code == 0
        assert out == "family=dh partition=[2,1] genus=0\nmethod=dp count=2\n"

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys,
            "count", "--family", "star", "--partition", "[3]",
            "--genus", "1", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"command", "config", "results", "pass"}
        assert doc["command"] == "count"
        assert doc["pass"] is True
        assert doc["results"] == [
            {"method": "dp", "count": 5},
            {"method": "formula", "count": 5},
        ]
        assert doc["config"]["partition"] == "[3]"

    def test_negative_genus_is_a_usage_error(self, capsys):
        code, out, err = run(
            capsys, "count", "--family", "md", "--target", "(1 2)", "--genus", "-1"
        )
        assert code == 2
        assert err.startswith("error: genus must be nonnegative")

    def test_table_formats_are_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["count", "--family", "star", "--target", "(1 2)(3)",
                      "--genus", "0", "--format", "csv"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --format: invalid choice: 'csv'" in err

    def test_dp_bound_refused(self, capsys):
        code, _, err = run(
            capsys, "count", "--family", "star", "--partition", "[7]", "--genus", "0"
        )
        assert code == 2
        assert err == (
            "error: bound exceeded for DP counting: n <= 6 (got n=7); "
            "pass --unsafe-bounds to override\n"
        )

    def test_unsafe_bounds_overrides(self, capsys):
        code, out, _ = run(
            capsys,
            "count", "--family", "star", "--partition", "[7]",
            "--genus", "0", "--unsafe-bounds",
        )
        assert code == 0
        assert out.endswith("method=dp count=1\nmethod=formula count=1\n")

    def test_listing_method(self, capsys):
        code, out, err = run(
            capsys, "count", "--family", "star", "--partition", "[2,1]",
            "--genus", "1", "--method", "listing",
        )
        assert (code, err) == (0, "")
        assert out == (
            "family=star partition=[2,1] target=(1 2)(3) root=3 genus=1\n"
            "method=listing count=10\n"
        )

    @pytest.mark.parametrize("argv, error", [
        (("--partition", "[]"), "partition must be nonempty"),
        ((), "one of --target or --partition is required"),
    ])
    def test_missing_target_is_refused(self, capsys, argv, error):
        code, out, err = run(capsys, "count", "--family", "star", "--genus", "0", *argv)
        assert (code, out, err) == (2, "", f"error: {error}\n")

    @pytest.mark.parametrize("command, argv, error", [
        # each flag would be read by no step of the command, so it is refused
        ("count", ("--family", "star", "--target", "(1 2)", "--n", "3", "--partition", "[3]"),
         "--partition takes no --target"),
        ("count", ("--family", "md", "--partition", "[2,1]", "--n", "3"),
         "--partition takes no --n"),
        ("count", ("--family", "md", "--target", "(1 2)", "--root", "2"),
         "family md takes no --root"),
        ("count", ("--family", "dh", "--partition", "[2,1]", "--root", "1"),
         "family dh takes no --root"),
        ("count", ("--family", "star", "--target", "(1 2)", "--order", "2<1"),
         "family star takes no --order"),
        ("list", ("--family", "monotone", "--target", "(1 2)", "--root", "2"),
         "family monotone takes no --root"),
        ("list", ("--family", "md", "--target", "(1 2)", "--order", "2<1"),
         "family md takes no --order"),
        ("list", ("--family", "star", "--partition", "[2]", "--target", "(1 2)"),
         "--partition takes no --target"),
    ], ids=["count-partition-target", "count-partition-n", "count-md-root", "count-dh-root",
            "count-star-order", "list-monotone-root", "list-md-order", "list-partition-target"])
    def test_unread_flags_are_refused(self, capsys, command, argv, error):
        code, out, err = run(capsys, command, *argv, "--genus", "0")
        assert (code, out, err) == (2, "", f"error: {error}\n")

    def test_dh_counts_by_dp_only(self, capsys):
        # the double Hurwitz count has one route, the layered walk
        argv = ("count", "--family", "dh", "--partition", "[2,1]", "--genus", "0", "--method")
        assert run(capsys, *argv, "dp") == (
            0, "family=dh partition=[2,1] genus=0\nmethod=dp count=2\n", "")
        assert run(capsys, *argv, "listing") == (2, "", "error: no listing for family dh\n")
        assert run(capsys, *argv, "formula") == (2, "", "error: no closed form for family dh\n")

    def test_root_beyond_degree_is_refused(self, capsys):
        # worded as trace and StarFactorisation word it
        assert run(capsys, "count", "--family", "star", "--target", "(1 2)(3)", "--root", "4",
                   "--genus", "0") == (2, "", "error: root 4 outside [3]\n")


class TestList:
    def test_star_listing(self, capsys):
        code, out, _ = run(
            capsys,
            "list", "--family", "star", "--target", "(1 2)(3)",
            "--genus", "0", "--root", "3",
        )
        assert code == 0
        assert out == "(1 3)(2 3)(1 3)\n(2 3)(1 3)(2 3)\ntotal=2\n"

    def test_listing_bound_refused(self, capsys):
        code, _, err = run(
            capsys,
            "list", "--family", "star", "--target", "(1 2 3 4 5 6)",
            "--genus", "0", "--root", "6",
        )
        assert code == 2
        assert "bound exceeded for listing: n <= 5 (got n=6)" in err

    def test_json_records(self, capsys):
        code, out, _ = run(
            capsys,
            "list", "--family", "monotone", "--target", "(1 3 2)",
            "--genus", "0", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert [r["factors"] for r in doc["results"]] == [
            ["(1 2)", "(2 3)"],
            ["(2 3)", "(1 3)"],
        ]


class TestTrace:
    def test_gamma_worked_example(self, capsys):
        code, out, _ = run(
            capsys, "trace", "--map", "gamma", "--n", "3", "--root", "3",
            "--legs", "1,2,1",
        )
        assert code == 0
        assert out == "end: family=md sigma=(1 2 3) tail=(1 3) target=(1 2)(3) genus=0\n"

    def test_lambda_j_identity_case_has_empty_trace(self, capsys):
        code, out, _ = run(
            capsys, "trace", "--map", "lambda-j", "--n", "3",
            "--factors", "(1 2)", "--j", "2",
        )
        assert code == 0
        assert out == "end: family=monotone order=1<3<2 factors=(1 2) target=(1 2)(3) genus=0\n"

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_degree_below_one_is_refused(self, capsys, n):
        # an empty order and factor list would trace to an empty record
        code, out, err = run(capsys, "trace", "--map", "lambda-order", "--n", n, "--factors", "")
        assert (code, out) == (2, "")
        assert err == f"error: --n must be at least 1 (got {n})\n"

    def test_condition_violation_is_reported(self, capsys):
        code, out, err = run(
            capsys, "trace", "--map", "gamma", "--n", "3", "--root", "3",
            "--legs", "1,1", "--target", "(2 3)",
        )
        assert code == 2
        assert out == ""
        assert err == "condition S2' violated: (2 3) never appears\n"

    @pytest.mark.parametrize("target", [(), ("--target", "(1 2)(3)")],
                             ids=["from-legs", "stated-target"])
    def test_root_beyond_degree_is_refused(self, capsys, target):
        code, out, err = run(
            capsys, "trace", "--map", "gamma", "--n", "3", "--root", "4", "--legs", "1,2,1",
            *target,
        )
        assert (code, out, err) == (2, "", "error: root 4 outside [3]\n")

    def test_tail_with_no_genus_is_reported(self, capsys):
        code, out, err = run(
            capsys, "trace", "--map", "gamma-inverse", "--n", "3",
            "--sigma", "(1 2)", "--tail", "(1 2)",
        )
        # the sigma is not a full cycle, which the record checks before the tail
        assert code == 2 and out == ""
        assert err == "condition H0 violated: (1 2)(3) is not a full cycle\n"

    def test_stated_target_must_match_the_product(self, capsys):
        code, out, err = run(
            capsys, "trace", "--map", "gamma-inverse", "--n", "3",
            "--sigma", "(1 2 3)", "--tail", "(1 2)", "--target", "(1 2)",
        )
        assert code == 2 and out == ""
        assert err == "error: stated target (1 2)(3) differs from product (1)(2 3)\n"

    def test_genus_comes_from_the_tail(self, capsys):
        code, out, _ = run(
            capsys, "trace", "--map", "gamma-inverse", "--n", "3",
            "--sigma", "(1 2 3)", "--tail", "(1 2)(1 3)", "--target", "(1 3 2)",
        )
        assert code == 0
        assert out.endswith("target=(1 3 2) genus=1\n")

    def test_reroot_round_trip_visible(self, capsys):
        code, out, _ = run(
            capsys, "trace", "--map", "reroot", "--n", "3", "--root", "3",
            "--legs", "1,2,1", "--new-root", "1",
        )
        assert code == 0
        assert out.endswith(
            "end: family=star root=1 factors=(1 2)(1 3)(1 3) target=(1 2)(3) genus=0\n"
        )

    @pytest.mark.parametrize("argv, expected", [
        (("--map", "lambda-j-inverse", "--n", "3", "--factors", "(2 3)(1 2)",
          "--order", "1<3<2", "--j", "2"),
         "pos=1 move=LHM before=(2 3)(1 2) after=(1 2)(1 3)\n"
         "end: family=monotone order=1<2<3 factors=(1 2)(1 3) target=(1 2 3) genus=0\n"),
        (("--map", "lambda-order-inverse", "--n", "3", "--factors", "(1 2)(2 3)",
          "--to-order", "3<2<1"),
         "pos=1 move=LHM before=(1 2)(2 3) after=(2 3)(1 3)\n"
         "end: family=monotone order=3<2<1 factors=(2 3)(1 3) target=(1 3 2) genus=0\n"),
        (("--map", "delta", "--n", "3", "--factors", "(1 2)(1 3)",
          "--conjugator", "(1 2 3)"),
         "pos=1 move=RHM before=(1 3)(2 3) after=(1 2)(1 3)\n"
         "end: family=monotone order=1<2<3 factors=(1 2)(1 3) target=(1 2 3) genus=0\n"),
    ])
    def test_inverse_and_transport_maps(self, capsys, argv, expected):
        assert run(capsys, "trace", *argv) == (0, expected, "")

    @pytest.mark.parametrize("argv, error", [
        (("--map", "gamma", "--n", "3", "--root", "3", "--legs", "1,2,1", "--order", "3<2<1",
          "--j", "2", "--conjugator", "(1 2)"), "--map gamma takes no --order"),
        (("--map", "gamma-inverse", "--n", "3", "--sigma", "(1 2 3)", "--root", "3"),
         "--map gamma-inverse takes no --root"),
        (("--map", "lambda-order", "--n", "3", "--factors", "(1 2)", "--j", "1"),
         "--map lambda-order takes no --j"),
        (("--map", "lambda-j", "--n", "3", "--factors", "(1 2)", "--j", "1",
          "--to-order", "3<2<1"), "--map lambda-j takes no --to-order"),
        (("--map", "delta", "--n", "3", "--factors", "(1 2)", "--conjugator", "(1 2)",
          "--tail", "(1 2)"), "--map delta takes no --tail"),
        (("--map", "theta", "--n", "3", "--sigma", "(1 2 3)", "--conjugator", "(1 2)",
          "--new-root", "1"), "--map theta takes no --new-root"),
        (("--map", "reroot", "--n", "3", "--root", "3", "--legs", "1,2,1", "--new-root", "1",
          "--to-target", "(1 3)"), "--map reroot takes no --to-target"),
        (("--map", "witness", "--n", "3", "--root", "3", "--legs", "1,2,1",
          "--to-target", "(1 3)", "--factors", "(1 2)"), "--map witness takes no --factors"),
    ], ids=["gamma-order", "gamma-inverse-root", "lambda-order-j", "lambda-j-to-order",
            "delta-tail", "theta-new-root", "reroot-to-target", "witness-factors"])
    def test_unread_flags_are_refused(self, capsys, argv, error):
        assert run(capsys, "trace", *argv) == (2, "", f"error: {error}\n")

    @pytest.mark.parametrize("name, flag", [
        (name, flag) for name in TRACE_MAPS for flag in TRACE_VALUES
        if flag not in trace_reads(name)])
    def test_every_unread_flag_is_refused(self, capsys, name, flag):
        argv = ("--map", name, *TRACE_STARTS[TRACE_MAPS[name][0]], flag, TRACE_VALUES[flag])
        assert run(capsys, "trace", *argv) == (2, "", f"error: --map {name} takes no {flag}\n")

    # every flag of a valid start and the map's own flag, but --factors: no factors is valid
    @pytest.mark.parametrize("name, flag", [
        (name, flag) for name, (kind, own) in TRACE_MAPS.items()
        for flag in TRACE_STARTS[kind][::2] + ((own,) if own else ()) if flag != "--factors"])
    def test_every_needed_flag_is_required(self, capsys, name, flag):
        kind, own = TRACE_MAPS[name]
        given = dict(zip(TRACE_STARTS[kind][::2], TRACE_STARTS[kind][1::2]))
        if own:
            given[own] = TRACE_VALUES[own]
        del given[flag]
        argv = [token for pair in given.items() for token in pair]
        assert run(capsys, "trace", "--map", name, *argv) == (
            2, "", f"error: --map {name} requires {flag}\n")

    @pytest.mark.parametrize("name", [name for name, (_, own) in TRACE_MAPS.items() if own])
    def test_input_is_read_before_the_own_flag(self, capsys, name):
        # a bad input is reported ahead of the map's missing own flag, for every map
        bad = {"star": ("--n", "3", "--root", "3", "--legs", "1,x"),
               "monotone": ("--n", "3", "--factors", "(1 2) junk"),
               "md": ("--n", "3", "--sigma", "(1 2")}
        error = {"star": "bad legs '1,x': expected comma-separated integers",
                 "monotone": "bad factors '(1 2) junk': leftover text 'junk'",
                 "md": "bad permutation '(1 2': not cycle notation: '(1 2'"}
        kind = TRACE_MAPS[name][0]
        assert run(capsys, "trace", "--map", name, *bad[kind]) == (2, "", f"error: {error[kind]}\n")

    def test_unknown_map_lists_every_map(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["trace", "--map", "nope"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        listed = re.search(r"invalid choice: 'nope' \(choose from (.*)\)\n", err).group(1)
        assert listed.replace("'", "").split(", ") == list(TRACE_MAPS)

    def test_unsafe_bounds_is_refused(self, capsys):
        # a trace has no feasibility bound to override
        with pytest.raises(SystemExit) as exc:
            cli.main(["trace", "--map", "gamma", "--n", "3", "--root", "3",
                      "--legs", "1,2,1", "--unsafe-bounds"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith("error: unrecognized arguments: --unsafe-bounds\n")

    @pytest.mark.parametrize("argv", [
        ("count", "--family", "md", "--target", "(1 2)", "--genus", "0"),
        ("list", "--family", "md", "--target", "(1 2)", "--genus", "0"),
        ("algebra", "--n", "3", "--expr", "e[1]"),
        ("verify", "--suite", "theorem-1.1", "--n", "2"),
        ("table", "--nmax", "1", "--gmax", "0"),
    ], ids=lambda argv: argv[0])
    def test_bounded_commands_take_unsafe_bounds(self, capsys, argv):
        assert run(capsys, *argv, "--unsafe-bounds") == run(capsys, *argv)
        assert run(capsys, *argv)[0] == 0

    def test_experiment_is_gone(self, capsys):
        # its checks live in verify theorem-1.7 and demos/span_dimension.py
        with pytest.raises(SystemExit) as exc:
            cli.main(["experiment", "--name", "span-dimension", "--n", "4"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument command: invalid choice: 'experiment'" in err


class TestAlgebra:
    def test_transitive_power_worked_example(self, capsys):
        code, out, _ = run(capsys, "algebra", "--n", "4", "--expr", "T(J[4]^4)")
        assert code == 0
        assert out == "3*K[3,1] + 4*K[2,2]\n"

    def test_degree_below_one_is_refused(self, capsys):
        code, out, err = run(capsys, "algebra", "--n", "0", "--expr", "J[2]")
        assert (code, out, err) == (2, "", "error: --n must be at least 1 (got 0)\n")

    def test_power_sum_worked_example(self, capsys):
        code, out, _ = run(capsys, "algebra", "--n", "4", "--expr", "p[4]")
        assert code == 0
        assert out == "22*K[1,1,1,1] + 8*K[3,1] + 4*K[2,2]\n"

    def test_non_central_witness(self, capsys):
        code, out, _ = run(capsys, "algebra", "--n", "4", "--expr", "J[4]^4")
        assert code == 0
        assert out == "NotCentral: coefficient 8 at (1)(2 3 4) but 3 at (1 2 3)(4)\n"

    def test_parse_error_positions(self, capsys):
        code, _, err = run(capsys, "algebra", "--n", "4", "--expr", "T(J[4]^4")
        assert code == 2
        assert err == "error: parse error at position 8: expected ')', found 'end of input'\n"
        code, _, err = run(capsys, "algebra", "--n", "3", "--expr", "e[2 1]")
        assert code == 2
        assert err == "error: parse error at position 4: expected ']', found '1'\n"

    @pytest.mark.parametrize("expr, error", [
        ("p[q]", "parse error at position 2: unexpected character 'q'"),
        ("e[1] J", "parse error at position 5: unexpected 'J'"),
        ("e[1]^J", "parse error at position 5: exponent must be an integer"),
        ("e[2,]", "parse error at position 4: expected an integer"),
    ])
    def test_parse_errors(self, capsys, expr, error):
        assert run(capsys, "algebra", "--n", "3", "--expr", expr) == (2, "", f"error: {error}\n")

    def test_parentheses_and_left_associative_powers(self, capsys):
        assert run(capsys, "algebra", "--n", "3", "--expr", "2*(J[2] + J[3])^2 - e[1]^2") == (
            0, "3*K[1,1,1] + 3*K[3]\n", "")
        assert run(capsys, "algebra", "--n", "3", "--expr", "p[1]^2^2") == (
            0, "27*K[1,1,1] + 27*K[3]\n", "")
        # (p_1^2)^3 = p_1^6, not p_1^(2^3) = p_1^8
        assert run(capsys, "algebra", "--n", "3", "--expr", "p[1]^2^3") == run(
            capsys, "algebra", "--n", "3", "--expr", "p[1]^6")
        assert run(capsys, "algebra", "--n", "3", "--expr", "p[1]^2^3")[1] != run(
            capsys, "algebra", "--n", "3", "--expr", "p[1]^8")[1]

    def test_nested_transitive_rejected(self, capsys):
        code, _, err = run(capsys, "algebra", "--n", "3", "--expr", "T(T(J[3]))")
        assert code == 2
        assert "nested T(...) is not supported" in err

    @staticmethod
    def rendered(element):
        try:
            return format_class_decomposition(element.decompose())
        except NotCentralError as exc:
            a, b = exc.witness
            return (f"NotCentral: coefficient {element.coefficient(a)} at {a} "
                    f"but {element.coefficient(b)} at {b}")

    @pytest.mark.parametrize("n", [3, 4])
    def test_transitive_values_mixed_with_plain_ones(self, capsys, n):
        expected = {
            "T(p[3]) - J[3]*J[2]":
                transitive_evaluate(p(3), n) - evaluate(jm_var(3) * jm_var(2), n),
            "T(J[3]^2)*e[1]": transitive_evaluate(jm_var(3) ** 2, n) * evaluate(e(1), n),
            "J[2] + T(e[2])": evaluate(jm_var(2), n) + transitive_evaluate(e(2), n),
        }
        for expr, element in expected.items():
            code, out, _ = run(capsys, "algebra", "--n", str(n), "--expr", expr)
            assert code == 0
            assert out == self.rendered(element) + "\n", expr

    def test_first_slot_is_zero_outside_transitive(self, capsys):
        for expr in ("J[1]", "J[1]*T(p[2])", "J[1]^2 + J[1]"):
            code, out, _ = run(capsys, "algebra", "--n", "3", "--expr", expr)
            assert (code, out) == (0, "0\n"), expr
        code, _, err = run(capsys, "algebra", "--n", "3", "--expr", "T(J[1])")
        assert code == 2
        assert err == "error: slots start at 2\n"

    def test_large_power_of_a_plain_expression(self, capsys):
        # the exponent is past Python's recursion limit: a plain power is
        # taken in the group algebra, not expanded as a polynomial
        element = evaluate(e(1), 3) ** 3000 - evaluate(jm_var(3), 3)
        code, out, _ = run(capsys, "algebra", "--n", "3", "--expr", "e[1]^3000 - J[3]")
        assert code == 0
        assert out == self.rendered(element) + "\n"

    def test_high_degree_generator(self, capsys):
        # a generator of degree past Python's recursion limit is evaluated in
        # loops, one Jucys-Murphy factor at a time
        j2, j3 = jm_element(3, 2), jm_element(3, 3)
        code, out, err = run(capsys, "algebra", "--n", "3", "--expr", "p[1200]")
        assert (code, err) == (0, "")
        assert out == self.rendered(j2 ** 1200 + j3 ** 1200) + "\n"
        code, out, err = run(capsys, "algebra", "--n", "2", "--expr", "h[1200]")
        assert (code, out, err) == (0, self.rendered(jm_element(2, 2) ** 1200) + "\n", "")
        assert out == "1*K[1,1]\n"

    def test_high_degree_complete_polynomial(self, capsys):
        # 1201 monomials, each of degree past Python's recursion limit; the
        # class coefficients are monotone counts of genus 600 (identity) and
        # 599 (3-cycles)
        code, out, err = run(capsys, "algebra", "--n", "3", "--expr", "h[1200]")
        assert (code, err) == (0, "")
        ident, cycle = Permutation.identity(3), Permutation.parse("(1 2 3)")
        assert out == (f"{count_monotone(ident, 600)}*K[1,1,1] + "
                       f"{count_monotone(cycle, 599)}*K[3]\n")

    def test_slot_beyond_degree_is_refused(self, capsys):
        code, _, err = run(capsys, "algebra", "--n", "3", "--expr", "J[4]^0")
        assert code == 2
        assert err == "error: slot 4 outside [3]\n"
        code, _, err = run(capsys, "algebra", "--n", "3", "--expr", "T(J[4])")
        assert code == 2
        assert err == "error: slot 4 absent for n=3\n"

    def test_slot_beyond_degree_is_refused_at_power_zero(self, capsys):
        code, out, err = run(capsys, "algebra", "--n", "3", "--expr", "T(J[7]^0)")
        assert (code, out, err) == (2, "", "error: slot 7 absent for n=3\n")

    def test_large_power_inside_transitive(self, capsys):
        code, out, _ = run(capsys, "algebra", "--n", "3", "--expr", "T(J[2]^1200)")
        assert (code, out) == (0, "0\n")
        element = transitive_evaluate(jm_var(3) ** 1200, 3)
        code, out, _ = run(capsys, "algebra", "--n", "3", "--expr", "T(J[3]^1200)")
        assert code == 0
        assert out == self.rendered(element) + "\n"

    def test_mixed_expression(self, capsys):
        # h[1]^2 and e[1,1] are the same element, so they cancel exactly
        code, out, _ = run(capsys, "algebra", "--n", "3", "--expr", "2*e[1] + h[1]^2 - e[1,1]")
        assert code == 0
        assert out == "2*K[2,1]\n"


class TestVerify:
    def test_pass_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "theorem-1.4", "--n", "3", "--gmax", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "suite theorem-1.4: PASS (12/12 checks)"
        assert all(line.startswith("[PASS]") for line in lines[:-1])

    def test_basis_agreement_check(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "theorem-1.7", "--n", "2", "--wmax", "2")
        assert (code, out) == (0, (
            "[PASS] transitive part of e-basis values is central, n=2  "
            "(3 partitions of weight <= 2)\n"
            "[PASS] transitive part of h-basis values is central, n=2  "
            "(3 partitions of weight <= 2)\n"
            "[PASS] transitive part of p-basis values is central, n=2  "
            "(3 partitions of weight <= 2)\n"
            "[PASS] transitive power sums agree with their e-basis forms, n=2  (k = 1..2)\n"
            "suite theorem-1.7: PASS (4/4 checks)\n"
        ))

    def test_corollary_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "corollary-1.6", "--n", "4", "--kmax", "2")
        assert code == 0
        assert out.splitlines()[-1].startswith("suite corollary-1.6: PASS")

    def test_bound_refusal(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "relation-6.4", "--n", "6")
        assert code == 2
        assert err == (
            "error: bound exceeded for suite relation-6.4: n <= 5 (got n=6); "
            "pass --unsafe-bounds to override\n"
        )

    @pytest.mark.parametrize("suite, flag, value, least", [
        ("theorem-1.4", "--n", "-3", 1),
        ("theorem-1.1", "--n", "0", 1),
        ("theorem-1.4", "--gmax", "-1", 0),
        ("corollary-1.6", "--kmax", "-1", 0),
        ("theorem-1.7", "--wmax", "-2", 1),
        ("theorem-1.7", "--wmax", "0", 1),
    ])
    def test_empty_sweep_is_refused(self, capsys, suite, flag, value, least):
        # a sweep over nothing would print PASS (0/0 checks)
        code, out, err = run(capsys, "verify", "--suite", suite, flag, value)
        assert (code, out) == (2, "")
        assert err == f"error: {flag} must be at least {least} (got {value})\n"

    @pytest.mark.parametrize("suite, bounds", [
        ("relation-6.4", "n=1"),
        ("theorem-1.7", "n=1, wmax=5"),
        ("corollary-1.6", "n=1, kmax=3"),
        ("recurrence-6.3", "n=1, gmax=3"),
        ("bijections", "n=1, gmax=1"),
    ])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_suite_with_no_checks_is_refused(self, capsys, suite, bounds, fmt):
        # these suites start above n = 1, so the run would print PASS (0/0 checks)
        code, out, err = run(capsys, "verify", "--suite", suite, "--n", "1", "--format", fmt)
        assert (code, out) == (2, "")
        assert err == f"error: suite {suite} has no checks at {bounds}\n"

    def test_unknown_suite_exits_via_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "nope"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'nope'" in err

    def test_parameter_not_taken(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "theorem-1.1", "--gmax", "1")
        assert code == 2
        assert err == "error: suite theorem-1.1 takes no --gmax\n"

    def test_unread_flag_is_refused_before_any_bound(self, capsys):
        # --n 99 is past the suite's cap, but the unread --gmax is named first
        code, out, err = run(capsys, "verify", "--suite", "theorem-1.1", "--n", "99", "--gmax", "1")
        assert (code, out) == (2, "")
        assert err == "error: suite theorem-1.1 takes no --gmax\n"

    def test_failing_suite_exits_one(self, capsys, monkeypatch):
        def doomed():
            yield CheckResult("doomed", False, "by design")

        monkeypatch.setitem(
            SUITES,
            "always-fails",
            SuiteSpec("always-fails", doomed, {}),
        )
        code, out, _ = run(capsys, "verify", "--suite", "always-fails")
        assert code == 1
        assert out.splitlines()[0] == "[FAIL] doomed  (by design)"
        assert out.splitlines()[-1] == "suite always-fails: FAIL (0/1 checks)"

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "recurrence-6.3", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"command", "config", "results", "pass"}
        assert doc["pass"] is True
        assert doc["config"]["suite"] == "recurrence-6.3"
        assert all(r["passed"] for r in doc["results"])


class TestTable:
    def test_markdown_default(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "2", "--gmax", "1")
        assert code == 0
        assert out == (
            "| partition | genus | count_star | md_count | feray | closed_form | all_agree |\n"
            "| --- | --- | --- | --- | --- | --- | --- |\n"
            "| [1] | 0 | 1 | 1 | 1 | 1 | yes |\n"
            "| [1] | 1 | 0 | 0 | 0 | 0 | yes |\n"
            "| [2] | 0 | 1 | 1 | 1 | 1 | yes |\n"
            "| [2] | 1 | 1 | 1 | 1 | 1 | yes |\n"
            "| [1,1] | 0 | 1 | 1 | 1 | 1 | yes |\n"
            "| [1,1] | 1 | 1 | 1 | 1 | 1 | yes |\n"
        )

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "2", "--gmax", "0", "--format", "csv")
        assert code == 0
        assert out == (
            "partition,genus,count_star,md_count,feray,closed_form,all_agree\n"
            "[1],0,1,1,1,1,yes\n"
            "[2],0,1,1,1,1,yes\n"
            "[1,1],0,1,1,1,1,yes\n"
        )

    def test_markdown_format_is_refused(self, capsys):
        # text already renders the markdown table, so there is no separate choice
        with pytest.raises(SystemExit) as exc:
            cli.main(["table", "--nmax", "2", "--gmax", "0", "--format", "markdown"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --format: invalid choice: 'markdown'" in err

    def test_json_rows(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "3", "--gmax", "1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        row = next(
            r for r in doc["results"] if r["partition"] == "[3]" and r["genus"] == 1
        )
        assert row["count_star"] == row["md_count"] == row["feray"] == row["closed_form"] == 5

    def test_bound(self, capsys):
        code, _, err = run(capsys, "table", "--n", "6")
        assert code == 2
        assert "bound exceeded" in err

    @pytest.mark.parametrize("argv, error", [
        (("--nmax", "-1", "--gmax", "-5"), "--nmax must be at least 1 (got -1)"),
        (("--nmax", "0"), "--nmax must be at least 1 (got 0)"),
        (("--gmax", "-5"), "--gmax must be at least 0 (got -5)"),
    ])
    def test_empty_table_is_refused(self, capsys, argv, error):
        code, out, err = run(capsys, "table", *argv)
        assert (code, out, err) == (2, "", f"error: {error}\n")


# (argv, what the bound guards, flag, cap, value): one refusal per cap in cli._CAPS
CAP_CASES = [
    (("count", "--family", "star", "--partition", "[7]", "--genus", "0"),
     "DP counting", "n", 6, 7),
    (("count", "--family", "star", "--partition", "[2,1]", "--genus", "9"),
     "DP counting", "genus", 8, 9),
    (("list", "--family", "star", "--target", "(1 2 3 4 5 6)", "--genus", "0"),
     "listing", "n", 5, 6),
    (("count", "--family", "star", "--partition", "[3]", "--genus", "3",
      "--method", "listing"), "listing", "genus", 2, 3),
    (("count", "--family", "star", "--partition", "[1001]", "--genus", "0",
      "--method", "formula"), "star formula route", "n", 1000, 1001),
    (("count", "--family", "star", "--partition", "[3]", "--genus", "15001",
      "--method", "formula"), "star formula route", "genus", 15000, 15001),
    (("count", "--family", "md", "--partition", "[20000]", "--genus", "0",
      "--method", "formula"), "md formula route", "n", 1000, 20000),
    (("count", "--family", "md", "--partition", "[3]", "--genus", "1001",
      "--method", "formula"), "md formula route", "genus", 1000, 1001),
    (("count", "--family", "dh", "--partition", "[8]", "--genus", "0"),
     "double Hurwitz enumeration", "n", 7, 8),
    (("count", "--family", "dh", "--partition", "[2,1]", "--genus", "2"),
     "double Hurwitz enumeration", "genus", 1, 2),
    (("algebra", "--n", "7", "--expr", "e[1]"), "group algebra", "n", 6, 7),
    (("algebra", "--n", "6", "--expr", "T(p[2])"), "transitive evaluation", "n", 5, 6),
    (("table", "--nmax", "6"), "agreement table", "nmax", 5, 6),
    (("table", "--gmax", "3"), "agreement table", "gmax", 2, 3),
]
CAP_IDS = ["dp-n", "dp-genus", "listing-n", "listing-genus", "star-formula-n",
           "star-formula-genus", "md-formula-n", "md-formula-genus", "dh-n", "dh-genus",
           "algebra-n", "transitive-n", "table-nmax", "table-gmax"]


class TestBounds:
    @pytest.mark.parametrize("argv, what, name, cap, value", CAP_CASES, ids=CAP_IDS)
    def test_cap_refusal(self, capsys, argv, what, name, cap, value):
        assert run(capsys, *argv) == (2, "", (
            f"error: bound exceeded for {what}: {name} <= {cap} (got {name}={value}); "
            "pass --unsafe-bounds to override\n"))

    def test_every_cap_has_a_case(self):
        # a cap added to cli._CAPS lands with its refusal case in CAP_CASES
        cases = {(what, name): cap for _, what, name, cap, _ in CAP_CASES}
        assert cases == {(what, name): cap for what, caps in cli._CAPS.items()
                         for name, cap in caps.items()}
        assert cli._CAPS["trace"] == {}


class TestParser:
    @staticmethod
    def parsed(capsys, parser, *argv):
        """What ``parser`` prints when it stops on ``argv``: stdout, stderr."""
        with pytest.raises(SystemExit):
            parser.parse_args(list(argv))
        captured = capsys.readouterr()
        return captured.out, captured.err

    @pytest.mark.parametrize("command", cli._COMMANDS)
    def test_one_subcommand_parser_prints_as_the_full_one(self, capsys, command):
        lazy, full = cli._build_parser(command), cli._build_parser()
        for argv in ((command, "--help"), (command, "--bogus"), (command, "--format", "xml")):
            assert self.parsed(capsys, lazy, *argv) == self.parsed(capsys, full, *argv), argv
        assert lazy.format_usage() == full.format_usage()

    def test_main_builds_every_subparser_without_a_leading_subcommand(self, capsys):
        for argv in ((), ("--help",), ("bogus",), ("--format", "json", "count")):
            with pytest.raises(SystemExit):
                cli.main(list(argv))
            assert capsys.readouterr() == self.parsed(capsys, cli._build_parser(), *argv)


class TestEnvironment:
    def test_thread_env_is_ignored(self, capsys, monkeypatch):
        argv = ("count", "--family", "md", "--target", "(1 2)", "--genus", "0",
                "--format", "json")
        base = run(capsys, *argv)
        monkeypatch.setenv("STARFACT_THREADS", "zero")
        assert run(capsys, *argv) == base
        assert base[0] == 0
        assert "threads" not in json.loads(base[1])["config"]

    def test_runs_are_byte_identical(self, capsys):
        first = run(capsys, "verify", "--suite", "theorem-1.1", "--n", "4")
        second = run(capsys, "verify", "--suite", "theorem-1.1", "--n", "4")
        assert first == second

    @pytest.mark.parametrize("argv", [
        ("algebra", "--n", "3", "--expr", "(" * 3000 + "1" + ")" * 3000),
        ("list", "--family", "star", "--target", "(1 2)", "--genus", "600", "--unsafe-bounds"),
    ], ids=["nested-parentheses", "deep-listing"])
    def test_over_deep_input_exits_two(self, capsys, argv):
        # parse trees and listing searches recurse once per level
        assert run(capsys, *argv) == (2, "", (
            f"error: input nests past the recursion limit ({sys.getrecursionlimit()})\n"))

    @pytest.mark.parametrize("expr, short, rendered", [
        ("+".join(["1"] * 3000), "3000", "3000*K[1,1,1]"),
        ("T(" + "+".join(["J[2]"] * 3000) + ")", "T(3000*J[2])", "0"),
        ("T(" + "+".join(["J[3]^2"] * 3000) + ")", "T(3000*J[3]^2)", "3000*K[3]"),
        ("T(" + "-".join(["J[3]^2"] * 3000) + ")", "T(0-2998*J[3]^2)", "-2998*K[3]"),
        ("*".join(["J[2]"] * 3000), "J[2]^3000", "1*K[1,1,1]"),
        ("T(" + "*".join(["J[3]"] * 3000) + ")", "T(J[3]^3000)", None),
    ], ids=["long-sum", "long-transitive-sum", "long-transitive-square-sum",
            "long-transitive-difference", "long-product", "long-transitive-product"])
    def test_long_flat_input_is_evaluated(self, capsys, expr, short, rendered):
        # flat sums and products are folded in a loop, in and out of T(...),
        # however many operands they have
        code, out, err = run(capsys, "algebra", "--n", "3", "--expr", expr)
        assert (code, err) == (0, "")
        assert run(capsys, "algebra", "--n", "3", "--expr", short) == (0, out, "")
        if rendered is not None:
            assert out == rendered + "\n"


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "starfact.cli", "count", "--family", "star",
         "--target", "(1 2)(3)", "--genus", "0", "--root", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "family=star target=(1 2)(3) root=3 genus=0\nmethod=dp count=2\n"


def test_closed_stdout_exits_quietly():
    # the reader stops after one line, as ``| head -1`` does; the listing is
    # far larger than a pipe's buffer, so the writer meets the closed end
    proc = subprocess.Popen(
        [sys.executable, "-m", "starfact.cli", "list", "--family", "star",
         "--partition", "[1,1,1,1]", "--genus", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert first == "(1 4)(1 4)(1 4)(1 4)(1 4)(1 4)(2 4)(2 4)(3 4)(3 4)\n"
    assert (proc.wait(), err) == (1, "")
