"""The value contract of the read-only records, every one an
``errors._Record``: ``graphs.Graph``, ``graphs.CycleWitness``,
``winding.OddCycleCtx``, ``coloring.ColorVerdict``, ``expo.ExpoGraph``,
``verify.VerificationReport`` and ``bench.BenchResult``.  Each is equal
by its fields, hashed by them where they are hashable, prints its fields
by name, refuses assignment and deletion, and survives ``pickle``
(``verify --threads`` sends the host to its workers and its reports
back) and ``copy``; the first three validate what they are given."""

import copy
import pickle

import pytest

from expocolor.bench import BenchResult
from expocolor.coloring import Branch, ColorVerdict, color_vertex
from expocolor.errors import ParityDomainError
from expocolor.expo import ExpoGraph, build_exponential
from expocolor.graphs import CycleWitness, Graph
from expocolor.verify import VerificationReport
from expocolor.winding import OddCycleCtx

TRIANGLE = ((1, 2), (0, 2), (0, 1))
POINT = Graph(1, ((),))
BELOW = Branch.BELOW_HALF

# each record by its positional form, its keyword form and its builder (for
# the two that hold a wall time, which no routine gives twice, a call mixing
# both forms); then one record of the same class that differs, and its repr
CASES = {
    "graph": (
        Graph(3, TRIANGLE),
        Graph(vertex_count=3, neighbors=TRIANGLE),
        Graph.from_edges(3, [(2, 0), (0, 1), (1, 2)]),
        Graph(3, ((1,), (0,), ())),
        "Graph(vertex_count=3, neighbors=((1, 2), (0, 2), (0, 1)))",
    ),
    "witness": (
        CycleWitness((0, 1, 2)),
        CycleWitness(vertices=(0, 1, 2)),
        CycleWitness.canonical([2, 1, 0]),
        CycleWitness((0, 1, 2, 3, 4)),
        "CycleWitness(vertices=(0, 1, 2))",
    ),
    "ctx": (
        OddCycleCtx(2, 3, 0, 4),
        OddCycleCtx(n=2, k=3, a=0, b=4),
        OddCycleCtx.make(2, 3, (4, 0)),
        OddCycleCtx.make(2, 5),
        "OddCycleCtx(n=2, k=3, a=0, b=4)",
    ),
    "verdict": (
        ColorVerdict(2, BELOW, 0, -2),
        ColorVerdict(color=2, branch=BELOW, ell2=0, p2=-2),
        color_vertex((2, 1, 1, 1, 1), OddCycleCtx.make(2, 3)),
        ColorVerdict(2, Branch.ABOVE_HALF, 0, 2),
        "ColorVerdict(color=2, branch=<Branch.BELOW_HALF: 'BelowHalf'>, ell2=0, p2=-2)",
    ),
    "expo": (
        ExpoGraph(POINT, 2, False, ((1,), (2,)), ((1,), (0,)), frozenset({0, 1})),
        ExpoGraph(
            host=POINT,
            k=2,
            cycle_target=False,
            vertices=((1,), (2,)),
            adjacency=((1,), (0,)),
            loops=frozenset({0, 1}),
        ),
        build_exponential(POINT, 2),
        build_exponential(POINT, 3),
        "ExpoGraph(host=Graph(vertex_count=1, neighbors=((),)), k=2, cycle_target=False, "
        "vertices=((1,), (2,)), adjacency=((1,), (0,)), loops=frozenset({0, 1}))",
    ),
    "report": (
        VerificationReport("s", {"n": 1}, 3, [], 0.5, {"pairs": 2}),
        VerificationReport(
            statement="s", params={"n": 1}, checked=3, violations=[], wall_time=0.5,
            details={"pairs": 2},
        ),
        VerificationReport("s", {"n": 1}, 3, [], wall_time=0.5, details={"pairs": 2}),
        VerificationReport("s", {"n": 1}, 3, ["f"], 0.5, {"pairs": 2}),
        "VerificationReport(statement='s', params={'n': 1}, checked=3, violations=[], "
        "wall_time=0.5, details={'pairs': 2})",
    ),
    "bench": (
        BenchResult("explicit", 10, 1, 0, 0.5, (0.5,), {}),
        BenchResult(
            mode="explicit", n=10, reps=1, seed=0, median_seconds=0.5, rep_seconds=(0.5,),
            details={},
        ),
        BenchResult("explicit", 10, 1, 0, median_seconds=0.5, rep_seconds=(0.5,), details={}),
        BenchResult("baseline", 10, 1, 0, 0.5, (0.5,), {}),
        "BenchResult(mode='explicit', n=10, reps=1, seed=0, median_seconds=0.5, "
        "rep_seconds=(0.5,), details={})",
    ),
}
FIELDS = {
    "graph": "vertex_count",
    "witness": "vertices",
    "ctx": "n",
    "verdict": "color",
    "expo": "k",
    "report": "checked",
    "bench": "n",
}
# a dict field makes a record unhashable, as it made the classes these replaced
UNHASHABLE = {"report", "bench"}


@pytest.mark.parametrize("name", CASES)
def test_equal_by_value_and_hashed_alike(name):
    record, by_keyword, built, other, _ = CASES[name]
    assert record == by_keyword == built and record is not built
    assert record != other and not record == other
    # another class compares unequal, and never equal to the bare fields
    assert type(record).__eq__(record, object()) is NotImplemented
    assert record != (getattr(record, FIELDS[name]),)
    assert all(record != o for o in (c[0] for c in CASES.values()) if o is not record)
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
        return
    assert hash(record) == hash(by_keyword) == hash(built)
    assert len({record, by_keyword, built, other}) == 2


@pytest.mark.parametrize("name", CASES)
def test_repr_names_every_field(name):
    record, *_, text = CASES[name]
    assert repr(record) == text


@pytest.mark.parametrize("name", CASES)
def test_assignment_and_deletion_raise(name):
    record = CASES[name][0]
    field = FIELDS[name]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) == before and not hasattr(record, "extra")


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize(
    "clone",
    [
        lambda r: pickle.loads(pickle.dumps(r)),
        lambda r: pickle.loads(pickle.dumps(r, protocol=0)),
        copy.copy,
        copy.deepcopy,
    ],
    ids=["pickle", "pickle-0", "copy", "deepcopy"],
)
def test_pickle_and_copy_round_trip(name, clone):
    record = CASES[name][0]
    again = clone(record)
    assert type(again) is type(record)
    assert again == record and repr(again) == repr(record)
    assert name in UNHASHABLE or hash(again) == hash(record)
    with pytest.raises(AttributeError):
        setattr(again, FIELDS[name], None)


def test_context_fold_table_is_cached_and_rebuilt_after_a_round_trip():
    ctx = OddCycleCtx.make(3, 5)
    fold = ctx.bin_fold
    assert ctx.bin_fold is fold and not fold.flags.writeable
    for again in (pickle.loads(pickle.dumps(ctx)), copy.deepcopy(ctx)):
        assert again == ctx
        assert (again.bin_fold == fold).all()


@pytest.mark.parametrize(
    ("build", "error", "message"),
    [
        (lambda: Graph(-1, ()), ValueError, "vertex_count must be nonnegative"),
        (lambda: Graph(2, ((1,),)), ValueError, "adjacency length != vertex_count"),
        (lambda: Graph(2, ((2,), ())), ValueError, "neighbor id 2 out of range"),
        (lambda: Graph(2, ((0,), ())), ValueError, "self-loop at vertex 0"),
        (lambda: Graph(3, ((2, 1), (0,), (0,))), ValueError, "adjacency of 0 not sorted/deduped"),
        (lambda: Graph(2, ((1,), ())), ValueError, "asymmetric edge (0,1)"),
        (lambda: CycleWitness((0, 1, 2, 3)), ValueError, "cycle length must be odd and >= 3"),
        (lambda: CycleWitness((0, 1)), ValueError, "cycle length must be odd and >= 3"),
        (lambda: CycleWitness((0, 1, 1)), ValueError, "cycle vertices must be distinct"),
        (lambda: OddCycleCtx(0, 3, 0, 0), ParityDomainError, "n must be >= 1, got 0"),
        (
            lambda: OddCycleCtx(2, 4, 0, 4),
            ParityDomainError,
            "codomain size must be odd and >= 3, got 4",
        ),
        (lambda: OddCycleCtx(2, 3, 4, 0), ValueError, "(a,b)=(4,0) is not n-arc oriented"),
        (lambda: OddCycleCtx(2, 3, 0, 2), ValueError, "(0,2) is not an edge of a 5-cycle"),
    ],
)
def test_validation_messages(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message
