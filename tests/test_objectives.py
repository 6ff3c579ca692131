import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from orientopt.graph import DegreeVector, build_graph, degrees_of_order
from orientopt.instances import (
    FIG4_DECMIN_ORDER,
    FIG4_INCMAX_ORDER,
    fig4_graph,
    random_multigraph,
)
from orientopt.objectives import (
    DecMax,
    DecMin,
    ForbiddenSubpaths,
    IncMax,
    IncMin,
    LiftedCost,
    LiftedPhi,
    MaxWeightedIndeg,
    PhiSpec,
    PhiSum,
    RhoDeltaSum,
    _sum_parts,
    abs_balance,
    binom2,
    cube,
    evaluate,
    exp_base,
    linear,
    neg_exp_base,
    square,
    table,
    zero,
)
from orientopt.ordering import _dp_form

from paper_facts import rank_key, rank_of, validate_convex

costs = st.builds(
    LiftedCost,
    st.integers(min_value=0, max_value=50),
    st.one_of(st.integers(-100, 100), st.fractions(max_denominator=20)),
)


class TestLiftedCost:
    def test_penalty_dominates(self):
        assert LiftedCost(1, -1000) > LiftedCost(0, 1000)
        assert LiftedCost(0, 3) < LiftedCost(0, Fraction(7, 2))

    def test_arithmetic(self):
        a = LiftedCost(1, 2)
        b = LiftedCost(3, Fraction(1, 2))
        assert a + b == LiftedCost(4, Fraction(5, 2))
        assert a - b == LiftedCost(-2, Fraction(3, 2))
        assert -a == LiftedCost(-1, -2)

    def test_feasible(self):
        assert LiftedCost(0, 99).feasible
        assert not LiftedCost(1, 0).feasible

    @given(costs, costs)
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(costs, costs, costs)
    def test_addition_associates(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(costs, costs, costs)
    def test_order_is_translation_invariant(self, a, b, c):
        assert (a < b) == (a + c < b + c)


class TestSpecs:
    def test_builtin_values(self):
        assert [square()(z) for z in range(4)] == [0, 1, 4, 9]
        assert [cube()(z) for z in range(4)] == [0, 1, 8, 27]
        assert [binom2()(z) for z in range(5)] == [0, 0, 1, 3, 6]
        assert [abs_balance(3)(z) for z in range(4)] == [3, 1, 1, 3]
        assert exp_base(2)(10) == 1024
        assert neg_exp_base(3)(2) == Fraction(1, 9)
        assert linear(Fraction(1, 2), 1)(4) == 3
        assert zero()(7) == 0

    def test_neg_exp_stays_exact_deep(self):
        # float arithmetic dies around z=1100 for base 2; exact rationals don't
        v = neg_exp_base(2)(1100)
        assert v == Fraction(1, 2 ** 1100)
        assert v > 0

    def test_exp_base_needs_base_two(self):
        with pytest.raises(ValueError):
            exp_base(1)
        with pytest.raises(ValueError):
            neg_exp_base(0)

    def test_table_bounds(self):
        t = table([5, 2, 2, 4])
        assert len(t.params) - 1 == 3
        assert t(0) == 5
        with pytest.raises(ValueError):
            t(4)
        with pytest.raises(ValueError):
            table([])

    def test_abs_balance_unresolved(self):
        with pytest.raises(ValueError):
            abs_balance()(1)
        with pytest.raises(ValueError):
            abs_balance(-1)

    def test_float_parameters_are_read_as_decimals(self):
        assert PhiSpec("exp_base", (2.5,))(40) == Fraction(5, 2) ** 40
        assert PhiSpec("linear", (0.1, 0.2))(3) == Fraction(1, 2)
        assert PhiSpec("table", [0.5, "3/4", 2]).params == (Fraction(1, 2), Fraction(3, 4), 2)

    @pytest.mark.parametrize("d", [1.5, 2.0, True, False, -1, "2"])
    def test_abs_balance_refuses_all_but_non_negative_ints(self, d):
        with pytest.raises(ValueError, match="^`d` must be a non-negative integer$"):
            abs_balance(d)

    @pytest.mark.parametrize("make", [exp_base, neg_exp_base])
    @pytest.mark.parametrize("b", [2.5, 2.0, True, 1, None, Fraction(3)])
    def test_exponential_bases_must_be_ints_from_two(self, make, b):
        with pytest.raises(ValueError, match="^`base` must be an integer >= 2$"):
            make(b)

    def test_empty_table_is_refused(self):
        for values in ([], (), iter([])):
            with pytest.raises(ValueError, match="^`table` needs a non-empty `values` list$"):
                table(values)

    @pytest.mark.parametrize("kind, params", [
        ("linear", (1,)), ("linear", (1, 2, 3)), ("exp_base", ()), ("neg_exp_base", (2, 3)),
        ("abs_balance", ()), ("square", (3,)), ("zero", (0,)), ("cube", (None,)), ("table", ()),
    ])
    def test_parameter_count_is_checked_at_construction(self, kind, params):
        with pytest.raises(ValueError, match=f"^`{kind}` (takes|needs a non-empty)"):
            PhiSpec(kind, params)

    @pytest.mark.parametrize("build", [
        lambda: LiftedPhi(square(), 0.5),
        lambda: LiftedPhi(square(), None, True),
        lambda: LiftedPhi("square"),
        lambda: PhiSum(shared=square(), f=0.5),
        lambda: PhiSum(shared=square(), g=(1, 2.0)),
        lambda: PhiSum(per_vertex=("square",) * 3),
        lambda: PhiSum(shared=square(), per_vertex=(square(),)),
        lambda: PhiSpec("bogus"),
        lambda: PhiSpec(["square"]),
        lambda: PhiSpec("linear", (True, 0)),
        lambda: PhiSpec("linear", (0, False)),
        lambda: linear(True),
        lambda: table([True, 2]),
        lambda: table([0, [1]]),
    ])
    def test_invalid_costs_are_refused_at_construction(self, build):
        with pytest.raises(ValueError):
            build()


class TestValidateConvex:
    def test_square_breakpoints(self):
        assert validate_convex(square(), 4) == (1, 2, 3)

    def test_linear_has_none(self):
        assert validate_convex(linear(2, 5), 4) == ()

    def test_table_breakpoints(self):
        assert validate_convex(table([0, 0, 1, 3]), 3) == (1, 2)

    def test_violation_reports_witness(self):
        with pytest.raises(ValueError, match="indegree 2"):
            validate_convex(table([0, 5, 10, 11]), 3)

    def test_table_too_short(self):
        with pytest.raises(ValueError):
            validate_convex(table([0, 1]), 4)


class TestLift:
    def test_in_range_is_plain(self):
        assert LiftedPhi(zero(), 2, 2).cost(2) == LiftedCost(0, 0)

    def test_below_lower_bound(self):
        assert LiftedPhi(zero(), 2, 2).cost(0) == LiftedCost(2, 0)

    def test_above_upper_bound_clamps_base(self):
        assert LiftedPhi(square(), 1, 3).cost(5) == LiftedCost(2, 9)

    def test_empty_interval(self):
        with pytest.raises(ValueError):
            LiftedPhi(zero(), 3, 1)
        with pytest.raises(ValueError):
            LiftedPhi(zero(), f=-1)

    @given(st.integers(0, 8))
    def test_full_interval_is_identity(self, z):
        phi = LiftedPhi(square(), 0, 8)
        assert phi.cost(z) == LiftedCost(0, z * z)


class TestEvaluate:
    def test_fig4_decmin_key(self):
        g = fig4_graph()
        dv = degrees_of_order(g, FIG4_DECMIN_ORDER)
        assert evaluate(DecMin(), g, dv) == (3, 3, 3, 3, 2, 2, 1, 1, 0)

    def test_fig4_incmax_key(self):
        g = fig4_graph()
        dv = degrees_of_order(g, FIG4_INCMAX_ORDER)
        assert evaluate(IncMax(), g, dv) == (0, 1, 2, 2, 2, 2, 2, 3, 4)

    def test_k3_eulerian_rho_delta(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        dv = degrees_of_order(g, (0, 1, 2))
        # 0,1,2 gives indegrees 0,1,2 -- not Eulerian
        assert evaluate(RhoDeltaSum(), g, dv) == 0 * 2 + 1 * 1 + 2 * 0
        from orientopt.graph import Orientation, degrees_of_orientation

        eul = degrees_of_orientation(g, Orientation((1, 2, 0)))
        assert evaluate(RhoDeltaSum(), g, eul) == 3

    def test_forbidden_subpaths_counts_pairs(self):
        g = build_graph(4, [(0, 3), (1, 3), (2, 3)])
        dv = degrees_of_order(g, (0, 1, 2, 3))
        assert evaluate(ForbiddenSubpaths(), g, dv) == 3

    def test_weighted_max_indegree(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)], [2, "1/2", 3])
        dv = degrees_of_order(g, (0, 1, 2), weighted=True)
        assert evaluate(MaxWeightedIndeg(), g, dv) == Fraction(7, 2)

    def test_phi_sum_square(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        dv = degrees_of_order(g, (0, 1, 2))
        assert evaluate(PhiSum(shared=square()), g, dv) == LiftedCost(0, 5)

    def test_abs_balance_is_total_imbalance(self):
        g = fig4_graph()
        for order in (FIG4_DECMIN_ORDER, FIG4_INCMAX_ORDER, tuple(range(9))):
            dv = degrees_of_order(g, order)
            want = sum(abs(i - o) for i, o in zip(dv.indeg, dv.outdeg))
            got = evaluate(PhiSum(shared=abs_balance()), g, dv)
            assert got == LiftedCost(0, want)

    def test_rank_of_flips_maximizers(self):
        assert rank_of(IncMax(), (0, 1, 2)) == (0, -1, -2)
        assert rank_of(RhoDeltaSum(), 7) == -7
        assert rank_of(DecMin(), (2, 1)) == (2, 1)
        assert rank_of(PhiSum(shared=square()), LiftedCost(1, 5)) == (1, 5)

    def test_rank_key_prefers_better_orders(self):
        g = fig4_graph()
        good = rank_key(DecMin(), g, degrees_of_order(g, FIG4_DECMIN_ORDER))
        other = rank_key(DecMin(), g, degrees_of_order(g, tuple(range(9))))
        assert good <= other


def ref_phi_sum(objective, graph, indeg):
    """The phi_sum key as a plain per-vertex sum: clamp into [f, g], count
    the units clamped, and add one exact value per vertex."""
    penalty, base = 0, 0
    for phi, z in zip(objective.resolve(graph), indeg):
        if phi.f is not None and z < phi.f:
            penalty, z = penalty + phi.f - z, phi.f
        if phi.g is not None and z > phi.g:
            penalty, z = penalty + z - phi.g, phi.g
        base += phi.spec(z)
    return LiftedCost(penalty, base)


def random_specs(rng, graph):
    """One cost of every kind, with int, Fraction and mixed parameters."""
    top = max(graph.degrees, default=0) + 3  # bounds may clamp z up to 2
    frac = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return [
        square(), cube(), binom2(), zero(), abs_balance(), abs_balance(rng.randint(0, 4)),
        exp_base(rng.randint(2, 4)), neg_exp_base(rng.randint(2, 4)),
        linear(rng.randint(-5, 5), rng.randint(-3, 3)), linear(frac(), frac()),
        linear(frac(), rng.randint(0, 3)), linear(rng.randint(-2, 2), frac()),
        linear(Fraction(4, 2), Fraction(0)), PhiSpec("linear", (0.1, 0.2)),
        table([rng.randint(-5, 5) for _ in range(top)]),
        table([frac() for _ in range(top)]),
        table([rng.choice([rng.randint(0, 3), frac()]) for _ in range(top)]),
    ]


class TestEvaluateAgainstPlainSum:
    """evaluate sums phi_sum keys per denominator; the key, and its int or
    Fraction type, must be those of a plain per-vertex sum."""

    def check(self, objective, graph, rng):
        for _ in range(3):
            order = list(range(graph.n))
            rng.shuffle(order)
            dv = degrees_of_order(graph, order)
            got = evaluate(objective, graph, dv)
            want = ref_phi_sum(objective, graph, dv.indeg)
            assert got == want
            assert (type(got.base), repr(got)) == (type(want.base), repr(want))

    def test_every_kind_shared_and_bounded(self):
        rng = random.Random(5)
        for seed in range(12):
            g = random_multigraph(rng.randint(2, 9), rng.randint(0, 16), seed)
            for spec in random_specs(rng, g):
                f, upper = rng.randint(0, 2), rng.randint(1, 3)
                self.check(PhiSum(shared=spec), g, rng)
                self.check(PhiSum(shared=spec, f=f, g=max(f, upper)), g, rng)
                per_f = tuple(rng.randint(0, 2) for _ in range(g.n))
                self.check(PhiSum(shared=spec, f=per_f), g, rng)

    def test_per_vertex_mixtures(self):
        rng = random.Random(9)
        for seed in range(40):
            g = random_multigraph(rng.randint(2, 10), rng.randint(0, 20), seed)
            pool = random_specs(rng, g)
            per = []
            for _ in range(g.n):
                spec = rng.choice(pool)
                if rng.random() < 0.3 and spec != abs_balance():  # lifted costs resolve as given
                    f = rng.randint(0, 2)
                    spec = LiftedPhi(spec, f, f + rng.randint(0, 2))
                per.append(spec)
            objective = PhiSum(per_vertex=tuple(per))
            if not any(isinstance(p, LiftedPhi) for p in per) and rng.random() < 0.5:
                objective = PhiSum(per_vertex=tuple(per), g=rng.randint(0, 3))
            self.check(objective, g, rng)

    def test_values_are_ints_and_fractions_only(self):
        rng = random.Random(3)
        for seed in range(8):
            g = random_multigraph(rng.randint(2, 8), rng.randint(0, 14), seed)
            for spec in random_specs(rng, g):
                if spec == abs_balance():
                    spec = abs_balance(rng.randint(0, 4))
                phi = LiftedPhi(spec, 1, 2)
                for z in range(max(g.degrees, default=0) + 1):
                    assert type(spec(z)) in (int, Fraction), (spec, z)
                    penalty, base = phi.parts(z)
                    assert type(penalty) is int and type(base) in (int, Fraction), (spec, z)
                dv = degrees_of_order(g, range(g.n))
                for objective in (PhiSum(shared=spec), PhiSum(shared=spec, f=1, g=2)):
                    key = evaluate(objective, g, dv)
                    assert type(key.penalty) is int and type(key.base) in (int, Fraction), spec

    def test_integral_fraction_sums_stay_fractions(self):
        g = build_graph(2, [(0, 1)])
        dv = degrees_of_order(g, (0, 1))
        half = Fraction(1, 2)
        key = evaluate(PhiSum(per_vertex=(linear(half), linear(half, half))), g, dv)
        assert (key, type(key.base)) == (LiftedCost(0, 1), Fraction)
        key = evaluate(PhiSum(shared=table([Fraction(2), 3])), g, dv)
        assert (key, type(key.base)) == (LiftedCost(0, 5), Fraction)
        key = evaluate(PhiSum(shared=linear(2, 1)), g, dv)
        assert (key, type(key.base)) == (LiftedCost(0, 4), int)


class TestPhiSumResolve:
    def test_shared_bounds_accept_arrays(self):
        g = build_graph(2, [(0, 1)])
        obj = PhiSum(shared=zero(), f=(0, 1), g=(0, 1))
        phis = obj.resolve(g)
        assert phis[0].f == 0 and phis[1].g == 1

    def test_wrong_bound_length(self):
        g = build_graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            PhiSum(shared=zero(), f=(0, 1, 2)).resolve(g)

    def test_wrong_per_vertex_length(self):
        g = build_graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            PhiSum(per_vertex=(LiftedPhi(zero()),)).resolve(g)

    def test_lifted_entries_clash_with_shared_bounds(self):
        g = build_graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            PhiSum(per_vertex=(LiftedPhi(zero(), 0, 1), LiftedPhi(zero(), 0, 1)), f=0)

    def test_plain_specs_in_per_vertex_get_lifted(self):
        g = build_graph(2, [(0, 1)])
        phis = PhiSum(per_vertex=(square(), cube()), f=0, g=5).resolve(g)
        assert all(isinstance(p, LiftedPhi) for p in phis)
        assert phis[1].spec.kind == "cube"

    def test_equal_costs_share_one_object(self):
        g = random_multigraph(40, 100, seed=4)
        phis = PhiSum(shared=abs_balance()).resolve(g)
        assert [phi.spec for phi in phis] == [abs_balance(d) for d in g.degrees]
        assert len({id(phi) for phi in phis}) == len(set(g.degrees))
        f = tuple(v % 3 for v in range(g.n))
        phis = PhiSum(shared=square(), f=f, g=4).resolve(g)
        assert [(phi.f, phi.g) for phi in phis] == [(fv, 4) for fv in f]
        assert len({id(phi) for phi in phis}) == 3
        sq, lifted = square(), LiftedPhi(cube(), 1, 2)
        phis = PhiSum(per_vertex=(sq, lifted) * (g.n // 2)).resolve(g)
        assert phis[1::2] == (lifted,) * (g.n // 2) and phis[1] is lifted
        assert len({id(phi) for phi in phis[::2]}) == 1

    @pytest.mark.parametrize("objective", [
        PhiSum(shared=square()),
        PhiSum(shared=cube(), f=1, g=3),
        PhiSum(shared=linear(Fraction(1, 3), 2), f=tuple(v % 4 for v in range(30)),
               g=tuple(3 + v % 2 for v in range(30))),
        PhiSum(shared=abs_balance()),
        PhiSum(shared=abs_balance(), f=2),
        PhiSum(per_vertex=tuple(abs_balance() if v % 2 else table([0, 1, 3, 6, 10] * 4)
                                for v in range(30)), g=5),
    ], ids=["shared", "shared-bounded", "per-vertex-bounds", "abs_balance",
            "abs_balance-bounded", "per-vertex-abs_balance"])
    def test_shared_objects_keep_the_keys(self, objective):
        """``_sum_parts`` of a resolve that shares objects equals that of one
        fresh LiftedPhi per vertex, the resolve before objects were shared."""
        g = random_multigraph(30, 60, seed=6)

        def at(bound, v):
            return bound if bound is None or isinstance(bound, int) else bound[v]

        entries = objective.per_vertex or (objective.shared,) * g.n
        fresh = [LiftedPhi(abs_balance(d) if e == abs_balance() else e,
                           at(objective.f, v), at(objective.g, v))
                 for v, (e, d) in enumerate(zip(entries, g.degrees))]
        rng = random.Random(2)
        for _ in range(5):
            order = list(range(g.n))
            rng.shuffle(order)
            indeg = degrees_of_order(g, order).indeg
            got, want = _sum_parts(objective.resolve(g), indeg), _sum_parts(fresh, indeg)
            assert (got, type(got.base)) == (want, type(want.base))

    def test_neither_shared_nor_per_vertex(self):
        with pytest.raises(ValueError):
            PhiSum()


def _cmp(a, b) -> int:
    return (a > b) - (a < b)


class TestExpKeyAgreement:
    """The DP's power-sum forms order degree vectors as the lexicographic
    keys do: the form's sum, negated when maximized, against ``rank_of``."""

    KINDS = (DecMin(), DecMax(), IncMax(), IncMin())

    def agree(self, dv1, dv2):
        g = build_graph(len(dv1), [])
        dvs = [DegreeVector(tuple(dv), ()) for dv in (dv1, dv2)]
        for objective in self.KINDS:
            form, maximize = _dp_form(g, objective)
            sums = [evaluate(form, g, dv) for dv in dvs]
            if maximize:
                sums = [-x for x in sums]
            ranks = [rank_key(objective, g, dv) for dv in dvs]
            assert _cmp(*sums) == _cmp(*ranks), (objective.kind, dv1, dv2)

    def test_spec_example_pair(self):
        # 3^2 + 2 = 11 > 3 + 3 + 1 = 7, and (2,0,0) > (1,1,0) lexicographically
        self.agree((2, 0, 0), (1, 1, 0))

    def test_equal_vectors_tie(self):
        self.agree((1, 2, 0, 1), (0, 1, 1, 2))

    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(0, 5), min_size=n, max_size=n),
                st.lists(st.integers(0, 5), min_size=n, max_size=n),
            )
        )
    )
    def test_agreement_holds_for_all_pairs(self, pair):
        self.agree(*pair)

    def test_exhaustive_small_sweep(self):
        from itertools import product

        vectors = list(product(range(4), repeat=3))
        for dv1 in vectors:
            for dv2 in vectors:
                self.agree(dv1, dv2)


def _same_preorder(keys1, keys2):
    for i in range(len(keys1)):
        for j in range(len(keys1)):
            if (keys1[i] < keys1[j]) != (keys2[i] < keys2[j]):
                return False
    return True


def test_forbidden_subpaths_orders_like_square_sum():
    # at fixed edge count, sum C(z,2) = (sum z^2 - m) / 2
    from itertools import product

    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    vectors = [dv for dv in product(range(5), repeat=4) if sum(dv) == g.m]

    class FakeDV:
        def __init__(self, indeg):
            self.indeg = indeg
            self.outdeg = tuple(g.degrees[v] - z for v, z in enumerate(indeg))

    sub = [evaluate(ForbiddenSubpaths(), g, FakeDV(dv)) for dv in vectors]
    sq = [evaluate(PhiSum(shared=square()), g, FakeDV(dv)) for dv in vectors]
    assert _same_preorder(sub, sq)
