"""The contract of the package's immutable value classes: equality within
a class only, a hash that agrees with it, ``LiftedCost`` ordering, no
assignment or deletion, the ``Name(field=value, ...)`` repr, copy and
pickle round trips, and keyword construction with defaults."""

import copy
import pickle
from fractions import Fraction

import pytest

from orientopt.exhaustive import BruteResult
from orientopt.flow import CyclicSolution
from orientopt.graph import Block, BlockTree, DegreeVector, Multigraph, Orientation
from orientopt.instances import SchedulingInstance
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
    square,
)
from orientopt.ordering import TrialsResult

SQUARE = "PhiSpec(kind='square', params=())"

# (make, a value of the same class that differs, repr of make(), field names)
CASES = [
    (lambda: Multigraph(3, ((0, 1), (1, 2))), Multigraph(3, ((0, 1),)),
     "Multigraph(n=3, edges=((0, 1), (1, 2)), weights=None, allow_loops=False)",
     ("n", "edges", "weights", "allow_loops")),
    (lambda: Orientation((1, 2)), Orientation((0, 2)),
     "Orientation(heads=(1, 2))", ("heads",)),
    (lambda: DegreeVector((0, 1), (1, 0)), DegreeVector((1, 0), (0, 1)),
     "DegreeVector(indeg=(0, 1), outdeg=(1, 0))", ("indeg", "outdeg")),
    (lambda: Block((0, 1), (0,)), Block((0, 1), (1,)),
     "Block(vertices=(0, 1), edge_ids=(0,))", ("vertices", "edge_ids")),
    (lambda: BlockTree((Block((0, 1), (0,)),), frozenset()),
     BlockTree((Block((0, 1), (0,)),), frozenset(), ((),)),
     "BlockTree(blocks=(Block(vertices=(0, 1), edge_ids=(0,)),), cut_vertices=frozenset(),"
     " block_cuts=())", ("blocks", "cut_vertices", "block_cuts")),
    (lambda: LiftedCost(0, 3), LiftedCost(0, Fraction(7, 2)),
     "LiftedCost(penalty=0, base=3)", ("penalty", "base")),
    (lambda: PhiSpec("linear", (2, 1)), PhiSpec("linear", (2, 0)),
     "PhiSpec(kind='linear', params=(2, 1))", ("kind", "params")),
    (lambda: LiftedPhi(square(), 1), LiftedPhi(square(), 1, 4),
     f"LiftedPhi(spec={SQUARE}, f=1, g=None)", ("spec", "f", "g")),
    (lambda: PhiSum(shared=square(), g=2), PhiSum(shared=square()),
     f"PhiSum(shared={SQUARE}, per_vertex=None, f=None, g=2)",
     ("shared", "per_vertex", "f", "g")),
    (DecMin, None, "DecMin()", ()),
    (IncMax, None, "IncMax()", ()),
    (IncMin, None, "IncMin()", ()),
    (DecMax, None, "DecMax()", ()),
    (RhoDeltaSum, None, "RhoDeltaSum()", ()),
    (MaxWeightedIndeg, None, "MaxWeightedIndeg()", ()),
    (ForbiddenSubpaths, None, "ForbiddenSubpaths()", ()),
    (lambda: CyclicSolution(Orientation((1,)), LiftedCost(0, 1), True),
     CyclicSolution(Orientation((1,)), LiftedCost(1, 1), False),
     "CyclicSolution(orientation=Orientation(heads=(1,)), key=LiftedCost(penalty=0, base=1),"
     " feasible=True)", ("orientation", "key", "feasible")),
    (lambda: TrialsResult((1, 0), 2, Fraction(3, 2)), TrialsResult((0, 1), 2, Fraction(3, 2)),
     "TrialsResult(order=(1, 0), value=2, mean=Fraction(3, 2))", ("order", "value", "mean")),
    (lambda: BruteResult((2, 1), (0, 1), None), BruteResult((2, 1), (0, 1), 3),
     "BruteResult(key=(2, 1), witness=(0, 1), count=None)", ("key", "witness", "count")),
    (lambda: SchedulingInstance(1, (frozenset({0}),), (square(),)),
     SchedulingInstance(1, (frozenset({0}), frozenset({0})), (square(),)),
     f"SchedulingInstance(num_slots=1, feasible=(frozenset({{0}}),), slot_costs=({SQUARE},))",
     ("num_slots", "feasible", "slot_costs")),
]
IDS = [case[2].partition("(")[0] for case in CASES]


@pytest.mark.parametrize("make, other, text, fields", CASES, ids=IDS)
def test_equal_within_the_class_with_an_agreeing_hash(make, other, text, fields):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) and len({a, b}) == 1
    if other is not None:
        assert a != other and not a == other
        assert len({a, other}) == 2


def test_unequal_across_classes():
    values = [make() for make, *_ in CASES]
    for i, a in enumerate(values):
        for b in values[i + 1:]:
            assert a != b and not a == b
    assert DecMin() != IncMax()
    assert LiftedCost(0, 1) != (0, 1) and (0, 1) != LiftedCost(0, 1)
    assert Orientation((1, 2)) != (1, 2) and PhiSpec("square") != "square"


def test_hash_agrees_with_equal_fields_of_other_types():
    assert LiftedCost(0, Fraction(2)) == LiftedCost(0, 2)
    assert hash(LiftedCost(0, Fraction(2))) == hash(LiftedCost(0, 2))
    assert PhiSpec("linear", (Fraction(1), 0)) == PhiSpec("linear", (1, 0))
    assert len({PhiSpec("linear", (Fraction(1), 0)), PhiSpec("linear", (1, 0))}) == 1


def test_lifted_cost_orders_penalty_first():
    small, big = LiftedCost(0, 100), LiftedCost(1, -5)
    assert small < big and small <= big and big > small and big >= small
    assert not big < small and not small > big
    assert LiftedCost(2, Fraction(1, 3)) < LiftedCost(2, Fraction(1, 2))
    assert LiftedCost(1, 1) <= LiftedCost(1, 1) >= LiftedCost(1, 1)
    assert sorted([big, LiftedCost(0, 7), small, LiftedCost(-1, 9)]) == [
        LiftedCost(-1, 9), LiftedCost(0, 7), small, big]
    assert min(big, small) is small
    with pytest.raises(TypeError):
        LiftedCost(0, 1) < (0, 2)
    with pytest.raises(TypeError):
        LiftedCost(0, 1) >= 0


@pytest.mark.parametrize("make, other, text, fields", CASES, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(make, other, text, fields):
    value = make()
    for name in fields or ("kind",):
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.not_a_field = 1


@pytest.mark.parametrize("make, other, text, fields", CASES, ids=IDS)
def test_repr_names_every_field(make, other, text, fields):
    assert repr(make()) == text


@pytest.mark.parametrize("make, other, text, fields", CASES, ids=IDS)
def test_copy_deepcopy_and_pickle_round_trip(make, other, text, fields):
    value = make()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
        assert repr(twin) == text


def test_a_copied_graph_computes_its_own_properties():
    g = Multigraph(3, ((0, 1), (1, 2), (0, 1)))
    assert g.degrees == (2, 3, 1)
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert twin.degrees == (2, 3, 1) and twin.neighbor_counts[1] == {0: 2, 2: 1}


@pytest.mark.parametrize("make, other, text, fields", CASES, ids=IDS)
def test_keyword_construction_matches_positional(make, other, text, fields):
    value = make()
    args = [getattr(value, name) for name in fields]
    assert type(value)(*args) == value
    assert type(value)(**dict(zip(fields, args))) == value


def test_keyword_construction_with_defaults():
    assert PhiSum(shared=square()) == PhiSum(square(), None, None, None)
    assert PhiSum(per_vertex=(LiftedPhi(square()),)).shared is None
    assert LiftedPhi(spec=square(), g=3) == LiftedPhi(square(), None, 3)
    assert PhiSpec(kind="cube") == PhiSpec("cube", ())
    tree = BlockTree(blocks=(Block((0, 1), (0,)),), cut_vertices=frozenset())
    assert tree.block_cuts == ()
    g = Multigraph(n=2, edges=((0, 1),))
    assert (g.weights, g.allow_loops) == (None, False)
    assert Multigraph(1, ((0, 0),), allow_loops=True).has_loops


def test_constructors_still_check_their_arguments():
    with pytest.raises(ValueError, match="non-negative"):
        LiftedPhi(square(), f=-1)
    with pytest.raises(ValueError, match="empty degree interval"):
        LiftedPhi(square(), 3, 2)
    with pytest.raises(ValueError, match="one cost function per timeslot"):
        SchedulingInstance(2, (frozenset({0}),), (square(),))
    with pytest.raises(ValueError, match="no feasible timeslot"):
        SchedulingInstance(1, (frozenset(),), (square(),))
    with pytest.raises(TypeError):
        DecMin(1)
