"""Suite registry plumbing; the suites' mathematics runs in test_acceptance."""

from inspect import isgeneratorfunction
from pathlib import Path

import pytest

from starfact.algebra import p
from starfact.bijections import transport
from starfact.perms import Permutation
from starfact.verify import (
    BOUND_FLOORS,
    CheckResult,
    SUITES,
    SuiteReport,
    SuiteSpec,
    order_panel,
    power_sums_in_e,
    run_suite,
    suite_theorem_1_1,
)


class TestOrderPanel:
    def test_six_orders_from_degree_three(self):
        for n in (3, 4, 5):
            panel = order_panel(n)
            assert len(panel) == 6
            assert len({o.sequence for o in panel}) == 6
            assert panel[0].is_natural

    def test_tiny_degrees_deduplicate(self):
        assert len(order_panel(2)) == 2
        assert len(order_panel(1)) == 1

    def test_deterministic(self):
        assert order_panel(4) == order_panel(4)


class TestNewtonIdentity:
    def test_power_sums_in_e_expand_like_power_sums(self):
        for k, via_e in enumerate(power_sums_in_e(8), 1):
            for n in range(1, 7):
                assert via_e.expand(n) == p(k).expand(n), (k, n)


class TestReportShapes:
    def test_check_lines(self):
        assert CheckResult("it holds", True, "3 cases").line() == "[PASS] it holds  (3 cases)"
        assert CheckResult("it broke", False).line() == "[FAIL] it broke"

    def test_report_aggregates(self):
        report = SuiteReport("demo", (CheckResult("a", True), CheckResult("b", False)))
        assert not report.passed
        assert report.lines()[-1] == "suite demo: FAIL (1/2 checks)"


class TestRegistry:
    def test_every_suite_is_described_and_bounded(self):
        assert len(SUITES) == 9
        for name, spec in SUITES.items():
            assert spec.name == name
            assert set(spec.caps) == set(spec.defaults)

    def test_defaults_follow_each_runners_signature(self):
        assert {name: list(spec.defaults.items()) for name, spec in SUITES.items()} == {
            "theorem-1.1": [("n", 6)],
            "theorem-1.4": [("n", 5), ("gmax", 2)],
            "theorem-1.7": [("n", 5), ("wmax", 5)],
            "corollary-1.6": [("n", 5), ("kmax", 3)],
            "recurrence-2.1": [("n", 6), ("gmax", 2)],
            "formulas-6.2": [("n", 5), ("gmax", 2)],
            "recurrence-6.3": [("n", 5), ("gmax", 3)],
            "relation-6.4": [("n", 4)],
            "bijections": [("n", 4), ("gmax", 1)],
        }

    def test_readme_table_lists_every_suite_with_its_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Verification suites", 1)[1].split("\n## ", 1)[0]
        rows = [line.strip("|").split("|") for line in section.splitlines() if line.startswith("| ")]
        cells = {row[0].strip(): row[2].strip() for row in rows[2:]}  # past the header and its rule
        assert set(cells) == set(SUITES)
        labels = {"n": "n", "gmax": "g", "kmax": "k", "wmax": "weight"}
        for name, spec in SUITES.items():
            expected = ", ".join(f"{labels[key]} <= {value}" for key, value in spec.defaults.items())
            assert cells[name].startswith(expected), (name, cells[name], expected)

    def test_unknown_suite(self):
        with pytest.raises(KeyError, match="available:"):
            run_suite("theorem-9.9")

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="takes no parameter 'kmax'"):
            run_suite("theorem-1.4", kmax=2)

    @pytest.mark.parametrize("suite, name, value, least", [
        ("theorem-1.1", "n", 0, 1),
        ("theorem-1.4", "gmax", -1, 0),
        ("corollary-1.6", "kmax", -1, 0),
        ("theorem-1.7", "wmax", 0, 1),
    ])
    def test_bounds_below_their_floors(self, suite, name, value, least):
        # each would sweep nothing and report PASS over no cases
        with pytest.raises(ValueError, match=rf"^{name} must be at least {least} \(got {value}\)$"):
            run_suite(suite, **{name: value})

    def test_floors_themselves_run(self):
        assert run_suite("theorem-1.4", n=1, gmax=0).passed
        assert run_suite("corollary-1.6", n=2, kmax=0).passed
        assert run_suite("theorem-1.7", n=2, wmax=1).passed

    @pytest.mark.parametrize("suite, bounds", [
        ("relation-6.4", "n=1"),
        ("theorem-1.7", "n=1, wmax=5"),
        ("bijections", "n=1, gmax=1"),
    ])
    def test_suite_with_no_checks(self, suite, bounds):
        with pytest.raises(ValueError, match=rf"^suite {suite} has no checks at {bounds}$"):
            run_suite(suite, n=1)

    def test_none_overrides_fall_back_to_defaults(self):
        report = run_suite("recurrence-6.3", n=None, gmax=1)
        assert report.passed

    def test_small_suite_runs(self):
        report = run_suite("theorem-1.1", n=3)
        assert report.passed
        assert all(c.passed for c in report.checks)


class TestSuiteProtocol:
    @pytest.mark.parametrize("name", list(SUITES))
    def test_every_runner_yields_checks(self, name):
        # at its floors, with n raised to 2 so that every suite has a check
        runner = SUITES[name].runner
        bounds = {key: BOUND_FLOORS.get(key, 0) for key in SUITES[name].defaults}
        bounds["n"] = max(bounds["n"], 2)
        assert isgeneratorfunction(runner)
        checks = list(runner(**bounds))
        assert checks and all(type(c) is CheckResult for c in checks)

    def test_report_is_named_by_its_registry_key(self, monkeypatch):
        monkeypatch.setitem(SUITES, "renamed", SuiteSpec("renamed", suite_theorem_1_1, {"n": 7}))
        report = run_suite("renamed", n=2)
        assert report == SuiteReport("renamed", run_suite("theorem-1.1", n=2).checks)
        assert report.lines()[-1] == "suite renamed: PASS (2/2 checks)"


# each map the bijections suite calls, replaced by a wrong map of the same
# signature, with the one check that map belongs to
_GAMMA = "star to monotone double bijective from every root"
_TRANSPORT = "conjugation transport bijective for every conjugator"
_WITNESS = "class transport witnesses equal counts"


def _unsorted_transport(d):
    """The transport by d that relabels the tail but never sorts it."""
    dinv = d.inverse()
    return lambda images, tail, trace=None: (Permutation(images).relabel(dinv).images,
                                             tuple(t.relabel(dinv) for t in tail))


_BROKEN_MAPS = [
    ("gamma", lambda f, trace=None: None, _GAMMA),
    ("gamma", lambda f, trace=None: f, _GAMMA),
    ("gamma_inverse", lambda md, trace=None: None, _GAMMA),
    ("gamma_inverse", lambda md, trace=None: md, _GAMMA),
    ("lambda_j_inverse", lambda f, j, trace=None: f,
     "adjacent-swap rewrite bijective with exact round trips"),
    ("lambda_order_inverse", lambda f, order, trace=None: None,
     "order rewrite to natural is bijective per order"),
    ("lambda_order_inverse", lambda f, order, trace=None: f,
     "order rewrite to natural is bijective per order"),
    ("reroot_all", lambda f: (f,) * f.n, "rerooting bijective with round trips"),
    # the transport check runs on the plain core that delta and theta share
    ("transport", lambda d: lambda images, tail, trace=None: None, _TRANSPORT),
    ("transport", lambda d: lambda images, tail, trace=None: (images, tail), _TRANSPORT),
    ("transport", lambda d: transport(d.inverse()), _TRANSPORT),
    ("transport", _unsorted_transport, _TRANSPORT),
    ("centrality_witness", lambda f, target, trace=None: None, _WITNESS),
    ("centrality_witness", lambda f, target, trace=None: f, _WITNESS),
    # rows of the wrong shape, which the round trip would index into
    ("reroot_all", lambda f: None, "rerooting bijective with round trips"),
    ("reroot_all", lambda f: (f,), "rerooting bijective with round trips"),
]


def _failed_labels(report: SuiteReport) -> set[str]:
    """The failed checks' labels, with their ', n=..., g=...' tails cut off."""
    return {c.label.split(", n=")[0] for c in report.checks if not c.passed}


class TestBrokenMapsFailTheirOwnCheck:
    @pytest.mark.parametrize("name, wrong, label", _BROKEN_MAPS,
                             ids=[f"{name}-{i}" for i, (name, _, _) in enumerate(_BROKEN_MAPS)])
    def test_bijections_suite(self, monkeypatch, name, wrong, label):
        monkeypatch.setattr(f"starfact.verify.{name}", wrong)
        assert _failed_labels(run_suite("bijections", n=3, gmax=1)) == {label}

    @pytest.mark.parametrize("wrong", [lambda f, trace=None: None, lambda f, trace=None: f])
    def test_theorem_1_4_listing_half(self, monkeypatch, wrong):
        monkeypatch.setattr("starfact.verify.gamma", wrong)
        report = run_suite("theorem-1.4", n=3, gmax=1)
        assert _failed_labels(report) == {"explicit bijection matches listings"}


def test_formulas_listing_check_keeps_to_its_budget(monkeypatch):
    # the identity has 30 factorisations at (4, 0) and 420 at (4, 1)
    monkeypatch.setattr("starfact.verify._LISTING_RECORD_CAP", 30)
    report = run_suite("formulas-6.2", n=4, gmax=1)
    listed = [c.label for c in report.checks if c.label.startswith("closed forms match")]
    assert report.passed
    assert listed == [f"closed forms match exhaustive listings, n={n}, g={g}"
                      for n, g in ((2, 0), (2, 1), (3, 0), (3, 1), (4, 0))]
    # the one pair past the budget is named, by the DP check of that pair
    assert [(c.label, c.detail) for c in report.checks if "skipped" in c.detail] == [(
        "series formula, star DP and monotone double DP agree, n=4, g=1",
        "5 classes; listing skipped: 420 records of the identity, over the budget of 30",
    )]


def test_theorem_1_4_names_the_listings_it_skips(monkeypatch):
    monkeypatch.setattr("starfact.verify._BIJECTION_LISTING_BOUND", (2, 0))
    report = run_suite("theorem-1.4", n=3, gmax=1)
    listed = [c.label for c in report.checks if c.label.startswith("explicit bijection")]
    assert report.passed
    assert listed == [f"explicit bijection matches listings, n={n}, g=0" for n in (1, 2)]
    # every DP check past the bound says so, and only those
    assert [(c.label, c.detail) for c in report.checks if "skipped" in c.detail] == [
        (f"star count equals monotone double count, n={n}, g={g}",
         f"{targets} targets via DP; listing skipped: past n <= 2, g <= 0")
        for n, targets in ((1, 1), (2, 2), (3, 6)) for g in (0, 1) if n > 2 or g > 0
    ]
