"""The value contract of the three immutable records that callers build
and keep: ``graphs.Graph``, ``graphs.CycleWitness`` and
``winding.OddCycleCtx``.  Each is equal and hashed by its fields, prints
its fields by name, refuses assignment and deletion, survives ``pickle``
(``verify --threads`` sends the host to its workers) and ``copy``, and
validates what it is given."""

import copy
import pickle

import pytest

from expocolor.errors import ParityDomainError
from expocolor.graphs import CycleWitness, Graph
from expocolor.winding import OddCycleCtx

TRIANGLE = ((1, 2), (0, 2), (0, 1))

# each record by its positional form, its keyword form and its builder;
# then one record of the same class that differs, and its repr
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
}
FIELDS = {"graph": "vertex_count", "witness": "vertices", "ctx": "n"}


@pytest.mark.parametrize("name", CASES)
def test_equal_by_value_and_hashed_alike(name):
    record, by_keyword, built, other, _ = CASES[name]
    assert record == by_keyword == built and record is not built
    assert hash(record) == hash(by_keyword) == hash(built)
    assert len({record, by_keyword, built, other}) == 2
    assert record != other and not record == other
    # another class compares unequal, and never equal to the bare fields
    assert type(record).__eq__(record, object()) is NotImplemented
    assert record != (getattr(record, FIELDS[name]),)
    assert all(record != o for o in (c[0] for c in CASES.values()) if o is not record)


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
    assert again == record and hash(again) == hash(record)
    assert repr(again) == repr(record)
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
