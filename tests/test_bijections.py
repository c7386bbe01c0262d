"""Hurwitz moves and the constructive maps between factorisation families.

Each map is checked three ways on small degrees: round trips compose to the
identity, image sets coincide with direct enumeration of the codomain, and
every recorded move preserves the running product.  Degree 4 sweeps live in
the verify suites.
"""

import subprocess
import sys
import textwrap

import pytest
from hypothesis import given
from hypothesis import strategies as st

from starfact import Permutation, TotalOrder, Transposition, bijections, symmetric_group
from starfact.bijections import (
    TraceStep,
    centrality_witness,
    delta,
    gamma,
    gamma_inverse,
    lambda_j,
    lambda_j_inverse,
    lambda_order,
    lambda_order_inverse,
    lhm,
    replay,
    reroot,
    reroot_all,
    rhm,
    theta,
    transport,
)
from starfact.factorisations import (
    ConditionViolation,
    MonotoneDoubleFactorisation,
    MonotoneFactorisation,
    StarFactorisation,
    enumerate_monotone,
    enumerate_monotone_double,
    enumerate_star,
)
from starfact.perms import (
    all_transpositions,
    conjugacy_classes,
    sort_swaps,
)
from starfact.verify import order_panel


def perm(text, n=None):
    return Permutation.parse(text, n)


def orders_of(n):
    from itertools import permutations

    return [TotalOrder(seq) for seq in permutations(range(1, n + 1))]


def products_agree(trace, n):
    for step in trace:
        before = step.before[0].as_permutation(n) * step.before[1].as_permutation(n)
        after = step.after[0].as_permutation(n) * step.after[1].as_permutation(n)
        if before != after:
            return False
    return True


transposition_pairs = st.integers(2, 5).flatmap(
    lambda n: st.tuples(
        st.sampled_from(all_transpositions(n)),
        st.sampled_from(all_transpositions(n)),
        st.just(n),
    )
)


class TestMoves:
    @given(transposition_pairs)
    def test_moves_preserve_products_and_invert(self, pair_n):
        t, u, n = pair_n
        for move in (rhm, lhm):
            a, b = move((t, u))
            assert a.as_permutation(n) * b.as_permutation(n) == t.as_permutation(
                n
            ) * u.as_permutation(n)
        assert lhm(rhm((t, u))) == (t, u)
        assert rhm(lhm((t, u))) == (t, u)

    def test_disjoint_pairs_commute(self):
        assert rhm((Transposition(1, 2), Transposition(3, 4))) == (
            Transposition(3, 4),
            Transposition(1, 2),
        )

    def test_overlapping_pair(self):
        # (1 2)(2 3) = (2 3)^{(1 2)} (1 2) = (1 3)(1 2)
        assert rhm((Transposition(1, 2), Transposition(2, 3))) == (
            Transposition(1, 3),
            Transposition(1, 2),
        )

    def test_step_rendering(self):
        step = TraceStep(
            2,
            "RHM",
            (Transposition(1, 3), Transposition(1, 2)),
            (Transposition(2, 3), Transposition(1, 3)),
        )
        assert str(step) == "pos=2 move=RHM before=(1 3)(1 2) after=(2 3)(1 3)"

    def test_step_equality(self):
        before = (Transposition(1, 3), Transposition(1, 2))
        after = (Transposition(2, 3), Transposition(1, 3))
        step = TraceStep(2, "RHM", before, after)
        assert step == TraceStep(2, "RHM", before, after)
        assert step == TraceStep(pos=2, move="RHM", before=before, after=after)
        assert hash(step) == hash(TraceStep(2, "RHM", before, after))
        assert (step.pos, step.move, step.before, step.after) == (2, "RHM", before, after)
        for other in [TraceStep(1, "RHM", before, after), TraceStep(2, "S2", before, after),
                      TraceStep(2, "RHM", after, before)]:
            assert step != other

    def test_recorded_steps_render_as_before(self):
        trace = []
        out = gamma(StarFactorisation(3, 3, (1, 1, 1, 2, 1), perm("(1 2)(3)"), 1), trace)
        assert out.to_line() == "(1 2 3)(1 2)(1 2)(1 3)"
        assert [type(step) for step in trace] == [TraceStep, TraceStep]
        assert [str(step) for step in trace] == [
            "pos=3 move=LHM before=(1 3)(2 3) after=(2 3)(1 2)",
            "pos=2 move=LHM before=(1 3)(2 3) after=(2 3)(1 2)",
        ]


class TestReplay:
    def test_replays_a_recorded_trace(self):
        f = StarFactorisation(3, 3, (1, 2, 1), perm("(1 2)(3)"), 0)
        trace = []
        gamma(f, trace)
        # replaying the recorded moves must retrace the same states and
        # leave the product unchanged
        replayed = replay(f.factors, trace)
        prod = Permutation.identity(3)
        for t in replayed:
            prod = prod * t.as_permutation(3)
        assert prod == f.target

    def test_rejects_mismatched_state(self):
        steps = [
            TraceStep(
                1,
                "RHM",
                (Transposition(1, 2), Transposition(2, 3)),
                (Transposition(1, 3), Transposition(1, 2)),
            )
        ]
        with pytest.raises(ValueError, match="trace step does not match state"):
            replay((Transposition(2, 3), Transposition(1, 2)), steps)


class TestAdjacentSwap:
    def test_no_movers_is_a_no_op(self):
        f = MonotoneFactorisation(
            3, TotalOrder.natural(3), (Transposition(1, 2),), perm("(1 2)", 3), 0
        )
        trace = []
        out = lambda_j(f, 2, trace)
        assert out.factors == f.factors
        assert out.order == TotalOrder.parse("1<3<2")
        assert trace == []

    def test_position_bounds(self):
        f = enumerate_monotone(perm("(1 2)", 3), 0)[0]
        with pytest.raises(ValueError):
            lambda_j(f, 0)
        with pytest.raises(ValueError):
            lambda_j(f, 3)

    @pytest.mark.parametrize("genus", [0, 1])
    def test_bijection_by_exhaustion_in_s3(self, genus):
        for order in orders_of(3):
            for j in (1, 2):
                swapped = order.swapped(j)
                for target in symmetric_group(3):
                    src = enumerate_monotone(target, genus, order)
                    dst = enumerate_monotone(target, genus, swapped)
                    image = []
                    for f in src:
                        trace = []
                        out = lambda_j(f, j, trace)
                        assert out.order == swapped
                        assert out.target == target and out.genus == genus
                        assert products_agree(trace, 3)
                        back = lambda_j_inverse(out, j)
                        assert back == f
                        image.append(out)
                    assert {g.factors for g in image} == {g.factors for g in dst}
                    for g in dst:
                        assert lambda_j(lambda_j_inverse(g, j), j) == g

    def test_stage_two_moves_are_tagged(self):
        # a factorisation containing the swapped pair itself exercises S2
        seen = set()
        for order in orders_of(3):
            for target in symmetric_group(3):
                for f in enumerate_monotone(target, 1, order):
                    for j in (1, 2):
                        trace = []
                        lambda_j(f, j, trace)
                        seen.update(step.move for step in trace)
        assert "S2" in seen and "RHM" in seen


class TestOrderChange:
    def test_worked_example(self):
        f = MonotoneFactorisation(
            3,
            TotalOrder.parse("3<2<1"),
            (Transposition(2, 3), Transposition(1, 2)),
            perm("(1 2 3)"),
            0,
        )
        trace = []
        out = lambda_order(f, trace)
        assert out.order.is_natural
        assert out.target == f.target
        assert [str(s) for s in trace] == [
            "pos=1 move=RHM before=(2 3)(1 2) after=(1 3)(2 3)"
        ]
        assert lambda_order_inverse(out, TotalOrder.parse("3<2<1")) == f

    @pytest.mark.parametrize("genus", [0, 1])
    def test_round_trips_in_s3(self, genus):
        for order in orders_of(3):
            for target in symmetric_group(3):
                for f in enumerate_monotone(target, genus, order):
                    trace = []
                    nat = lambda_order(f, trace)
                    assert nat.order.is_natural
                    assert products_agree(trace, 3)
                    assert lambda_order_inverse(nat, order) == f

    def test_inverse_requires_natural_input(self):
        order = TotalOrder.parse("3<2<1")
        f = MonotoneFactorisation(
            3, order, (Transposition(2, 3), Transposition(1, 2)), perm("(1 2 3)"), 0
        )
        with pytest.raises(ValueError, match="natural-monotone"):
            lambda_order_inverse(f, order)


def composed_lambda_order(f, trace):
    """``lambda_order`` as the definition spells it: one ``lambda_j`` per
    step of the bubble sort, idle steps included."""
    for j in sort_swaps(f.order.sequence):
        f = lambda_j(f, j, trace)
    return f


def composed_lambda_order_inverse(f, order, trace):
    for j in reversed(sort_swaps(order.sequence)):
        f = lambda_j_inverse(f, j, trace)
    assert f.order == order
    return f


def monotone_record(n, sequence, facs):
    target = Permutation.identity(n)
    for t in facs:
        target = target * t.as_permutation(n)
    return MonotoneFactorisation.from_factors(n, TotalOrder(sequence), facs, target)


def composed_to_natural(facs, sequence, trace):
    nat = composed_lambda_order(monotone_record(len(sequence), sequence, facs), trace)
    facs[:] = nat.factors


def composed_from_natural(facs, sequence, trace):
    n = len(sequence)
    nat = monotone_record(n, range(1, n + 1), facs)
    facs[:] = composed_lambda_order_inverse(nat, TotalOrder(sequence), trace).factors


class TestIdleStepsSkipped:
    """The order rewrites skip the bubble steps that move nothing; composing
    the public ``lambda_j`` at every step must give the same records and the
    same traces, step for step."""

    @pytest.mark.parametrize("genus", [0, 1])
    def test_lambda_order_is_the_composed_swaps(self, genus):
        idle = active = 0
        for order in order_panel(4):
            for target in symmetric_group(4):
                for f in enumerate_monotone(target, genus, order):
                    direct, composed = [], []
                    nat = lambda_order(f, direct)
                    assert composed_lambda_order(f, composed) == nat
                    assert composed == direct
                    direct, composed = [], []
                    back = lambda_order_inverse(nat, order, direct)
                    assert composed_lambda_order_inverse(nat, order, composed) == back == f
                    assert composed == direct
                    # both kinds of step occur; an idle one keeps every factor
                    step = f
                    for j in sort_swaps(order.sequence):
                        after = lambda_j(step, j)
                        if step.order.sequence[j] in map(step.order.larger_of, step.factors):
                            active += 1
                        else:
                            assert after.factors == step.factors
                            idle += 1
                        step = after
        assert idle and active

    @pytest.mark.parametrize("genus", [0, 1])
    def test_gamma_tail_rewrites_are_the_composed_swaps(self, genus, monkeypatch):
        stars = [f for target in symmetric_group(4) for root in range(1, 5)
                 for f in enumerate_star(target, genus, root)]
        mds = [md for target in symmetric_group(4)
               for md in enumerate_monotone_double(target, genus)]

        def run_all():
            out = []
            for f in stars:
                trace = []
                out.append((gamma(f, trace), trace))
            for md in mds:
                trace = []
                out.append((gamma_inverse(md, trace), trace))
            return out

        direct = run_all()
        monkeypatch.setattr(bijections, "_to_natural", composed_to_natural)
        monkeypatch.setattr(bijections, "_from_natural", composed_from_natural)
        assert run_all() == direct


class TestValidatedOnce:
    def test_each_map_builds_one_record(self, monkeypatch):
        # the rewrites run on plain factor lists; only the returned record is
        # built and validated, even across the six swaps of the reversed order
        built = []
        for cls in (StarFactorisation, MonotoneFactorisation, MonotoneDoubleFactorisation):
            def counting(self, validate=cls.__post_init__):
                built.append(self)
                validate(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        reversed_order = TotalOrder.parse("4<3<2<1")
        assert len(sort_swaps(reversed_order.sequence)) == 6
        mono = enumerate_monotone(perm("(1 2 3 4)"), 1, reversed_order)[0]
        nat = lambda_order(mono)
        swapped = lambda_j(mono, 2)
        star = enumerate_star(perm("(1 2)(3 4)"), 1, 4)[7]
        md = gamma(star)
        d = perm("(1 3 2 4)")
        calls = [
            lambda tr: lambda_order(mono, tr),
            lambda tr: lambda_order_inverse(nat, reversed_order, tr),
            lambda tr: lambda_j(mono, 2, tr),
            lambda tr: lambda_j_inverse(swapped, 2, tr),
            lambda tr: delta(nat, d, tr),
            lambda tr: theta(md, d, tr),
            lambda tr: gamma(star, tr),
            lambda tr: gamma_inverse(md, tr),
            lambda tr: reroot(star, 2, tr),
            lambda tr: centrality_witness(star, perm("(1 3)(2 4)"), tr),
        ]
        for call in calls:
            built.clear()
            trace = []
            out = call(trace)
            assert trace and built == [out]


class TestConjugationTransport:
    def test_identity_conjugator_fixes_everything(self):
        for target in symmetric_group(3):
            for f in enumerate_monotone(target, 0):
                assert delta(f, Permutation.identity(3)) == f
        for target in symmetric_group(3):
            for md in enumerate_monotone_double(target, 0):
                assert theta(md, Permutation.identity(3)) == md

    def test_delta_lands_on_the_conjugated_target(self):
        d = perm("(1 2 3)")
        for target in symmetric_group(3):
            expected_target = target.relabel(d.inverse())
            for f in enumerate_monotone(target, 0):
                out = delta(f, d)
                assert out.target == expected_target
                assert out.order.is_natural
                assert out.genus == f.genus

    @pytest.mark.parametrize("genus", [0, 1])
    def test_delta_image_sets_in_s3(self, genus):
        for d in symmetric_group(3):
            for target in symmetric_group(3):
                src = enumerate_monotone(target, genus)
                dst = enumerate_monotone(target.relabel(d.inverse()), genus)
                image = {delta(f, d).factors for f in src}
                assert image == {g.factors for g in dst}

    @pytest.mark.parametrize("genus", [0, 1])
    def test_theta_image_sets_in_s3(self, genus):
        for d in symmetric_group(3):
            for target in symmetric_group(3):
                src = enumerate_monotone_double(target, genus)
                dst = enumerate_monotone_double(target.relabel(d.inverse()), genus)
                image = {(theta(md, d).sigma.images, theta(md, d).factors) for md in src}
                assert image == {(g.sigma.images, g.factors) for g in dst}


class TestPlainTransport:
    """``theta`` and ``delta`` are records built on the plain core that the
    ``bijections`` suite compares by key; each still validates its record."""

    @pytest.mark.parametrize("genus", [0, 1])
    def test_maps_are_the_plain_keys_rebuilt(self, genus):
        natural = TotalOrder.natural(4)
        for w in symmetric_group(4):
            for d in symmetric_group(4):
                move = transport(d)
                relabelled = w.relabel(d.inverse())
                for f in enumerate_monotone(w, genus):
                    images, facs = move(f.target.images, f.factors)
                    assert images == relabelled.images
                    assert delta(f, d) == MonotoneFactorisation(
                        4, natural, facs, Permutation(images), genus)
                for md in enumerate_monotone_double(w, genus):
                    images, facs = move(md.sigma.images, md.factors)
                    assert theta(md, d) == MonotoneDoubleFactorisation(
                        4, Permutation(images), facs, relabelled, genus)

    @staticmethod
    def spread_out(records, d):
        """The first record whose transported tail has strictly increasing
        larger symbols, the last at least 3."""
        move = transport(d)
        for rec in records:
            tail = move(rec.target.images if isinstance(rec, MonotoneFactorisation)
                        else rec.sigma.images, rec.factors)[1]
            bigs = [t.b for t in tail]
            if len(tail) >= 2 and bigs == sorted(set(bigs)) and bigs[-1] >= 3:
                return rec
        raise LookupError("no record with a spread-out tail")

    @pytest.mark.parametrize("wrong, condition", [
        (lambda tail: tail[:-1], "H1"),
        (lambda tail: tail[::-1], "H2"),
        (lambda tail: tail[:-1] + (Transposition(2 if tail[-1].a == 1 else 1, tail[-1].b),),
         "product"),
    ], ids=["short", "unsorted", "wrong-product"])
    def test_maps_refuse_a_wrong_tail_from_the_core(self, monkeypatch, wrong, condition):
        d = perm("(1 3 2 4)")
        f = self.spread_out(enumerate_monotone(perm("(1 2 3 4)"), 0), d)
        md = self.spread_out(enumerate_monotone_double(Permutation.identity(4), 0), d)
        core = bijections.transport

        def broken(d):
            move = core(d)

            def wrong_move(images, tail, trace=None):
                images, tail = move(images, tail, trace)
                return images, wrong(tail)

            return wrong_move

        monkeypatch.setattr(bijections, "transport", broken)
        for call in (lambda: delta(f, d), lambda: theta(md, d)):
            with pytest.raises(ConditionViolation) as caught:
                call()
            assert caught.value.condition == condition


class TestStarToCycleForm:
    def test_worked_example(self):
        f = StarFactorisation(3, 3, (1, 2, 1), perm("(1 2)(3)"), 0)
        md = gamma(f)
        assert str(md.sigma) == "(1 2 3)"
        assert md.factors == (Transposition(1, 3),)
        assert gamma_inverse(md) == f

    @pytest.mark.parametrize("genus", [0, 1])
    def test_bijection_from_any_root_in_s3(self, genus):
        for target in symmetric_group(3):
            dst = enumerate_monotone_double(target, genus)
            dst_keys = {(g.sigma.images, g.factors) for g in dst}
            for root in (1, 2, 3):
                image = set()
                for f in enumerate_star(target, genus, root):
                    trace = []
                    md = gamma(f, trace)
                    assert products_agree(trace, 3)
                    assert md.target == target and md.genus == genus
                    image.add((md.sigma.images, md.factors))
                assert image == dst_keys

    @pytest.mark.parametrize("genus", [0, 1])
    def test_round_trips_at_root_n(self, genus):
        for target in symmetric_group(3):
            for f in enumerate_star(target, genus, 3):
                assert gamma_inverse(gamma(f)) == f
            for md in enumerate_monotone_double(target, genus):
                assert gamma(gamma_inverse(md)) == md


class TestReroot:
    def test_same_root_is_the_identity(self):
        for target in symmetric_group(3):
            for f in enumerate_star(target, 0, 2):
                assert reroot(f, 2) == f

    @pytest.mark.parametrize("genus", [0, 1])
    def test_bijection_between_root_classes(self, genus):
        for target in symmetric_group(3):
            by_root = {
                r: enumerate_star(target, genus, r) for r in (1, 2, 3)
            }
            for r in (1, 2, 3):
                for s in (1, 2, 3):
                    image = set()
                    for f in by_root[r]:
                        trace = []
                        out = reroot(f, s, trace)
                        assert out.root == s
                        assert out.target == target and out.genus == genus
                        assert products_agree(trace, 3)
                        assert reroot(out, r) == f
                        image.add(out.legs)
                    assert image == {g.legs for g in by_root[s]}

    @pytest.mark.parametrize("genus", [0, 1])
    def test_all_roots_at_once(self, genus):
        for target in symmetric_group(4):
            for f in enumerate_star(target, genus, 2):
                assert reroot_all(f) == tuple(reroot(f, r) for r in range(1, 5))

    def test_push_back_check_fires_when_moves_are_lost(self, monkeypatch):
        # with Hurwitz moves turned into no-ops only the push-back stage needs
        # a move here, so its invariant check is what must catch the loss
        f = StarFactorisation(3, 3, (1, 2, 2, 1), Permutation.identity(3), 0)
        monkeypatch.setattr(bijections, "_apply", lambda *args: None)
        with pytest.raises(AssertionError, match="push-back left a non-star factor"):
            reroot(f, 1)

    def test_push_back_check_survives_optimisation(self):
        code = textwrap.dedent("""
            from starfact import bijections
            from starfact.factorisations import StarFactorisation
            from starfact.perms import Permutation

            f = StarFactorisation(3, 3, (1, 2, 2, 1), Permutation.identity(3), 0)
            bijections._apply = lambda *args: None
            try:
                bijections.reroot(f, 1)
            except AssertionError as exc:
                print(exc)
        """)
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "push-back left a non-star factor\n"


class TestCentralityWitness:
    def test_worked_pair(self):
        src = perm("(1 2)(3)")
        dst = perm("(1)(2 3)")
        image = {centrality_witness(f, dst).legs for f in enumerate_star(src, 0, 3)}
        assert image == {f.legs for f in enumerate_star(dst, 0, 3)}
        assert image == {(1, 1, 2), (2, 1, 1)}

    @pytest.mark.parametrize("genus", [0, 1])
    def test_bijection_across_whole_classes(self, genus):
        for members in conjugacy_classes(3).values():
            for src in members:
                for dst in members:
                    expected = {f.legs for f in enumerate_star(dst, genus, 3)}
                    image = set()
                    for f in enumerate_star(src, genus, 3):
                        trace = []
                        out = centrality_witness(f, dst, trace)
                        assert out.target == dst and out.root == 3
                        assert products_agree(trace, 3)
                        image.add(out.legs)
                    assert image == expected

    def test_keeps_the_root(self):
        f = enumerate_star(perm("(1 2)(3)"), 0, 1)[0]
        out = centrality_witness(f, perm("(1 3)(2)"))
        assert out.root == 1
