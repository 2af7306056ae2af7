"""Value semantics of the library's records: normalised, immutable, comparable values."""

import inspect
import pickle

import pytest

from carefulsync import (
    CheckResult,
    FamilySpec,
    ForcedStep,
    LiftedCernyMeasurement,
    Pfa,
    RunResult,
    SearchResult,
    SweepRow,
    automaton_from_json,
    automaton_to_json,
    gen_random,
    gen_witness,
    parse_family,
    shortest_careful_word,
    sweep,
)

_P = "POSITIONAL_OR_KEYWORD"
_E = inspect.Parameter.empty

# (name, kind, default) of each constructor parameter; annotations are left
# out, since their rendering depends on how the record class is built
CONSTRUCTORS = {
    CheckResult: [("name", _P, _E), ("passed", _P, _E), ("detail", _P, _E)],
    FamilySpec: [("kind", _P, _E), ("d", _P, None), ("k", _P, None), ("n", _P, None),
                 ("letter_count", _P, None), ("density", _P, None), ("seed", _P, None)],
    ForcedStep: [("position", _P, _E), ("subset", _P, _E)],
    LiftedCernyMeasurement: [("d", _P, _E), ("n", _P, _E), ("base_word_length", _P, _E),
                             ("word_length", _P, _E), ("synchronizes", _P, _E),
                             ("lower_bound_ok", _P, _E)],
    Pfa: [("letters", _P, _E), ("delta", _P, _E), ("state_names", _P, None)],
    RunResult: [("final", _P, _E), ("trace", _P, _E), ("undefined_at", _P, None)],
    SearchResult: [("word", _P, _E), ("visited_subsets", _P, _E),
                   ("synchronized_state", _P, _E)],
    SweepRow: [("spec", _P, _E), ("d", _P, _E), ("size", _P, _E), ("states", _P, _E),
               ("bfs_status", _P, _E), ("bfs_length", _P, _E), ("builder_length", _P, _E),
               ("claimed_length", _P, _E), ("visited_subsets", _P, _E),
               ("wall_time_s", _P, _E)],
}


@pytest.mark.parametrize("record", CONSTRUCTORS, ids=lambda record: record.__name__)
def test_constructor_parameters(record):
    params = inspect.signature(record).parameters.values()
    assert [(p.name, p.kind.name, p.default) for p in params] == CONSTRUCTORS[record]


@pytest.mark.parametrize("record", CONSTRUCTORS, ids=lambda record: record.__name__)
def test_fields_cannot_be_assigned(record):
    names = [name for name, *_ in CONSTRUCTORS[record]]
    value = record(*[()] * len(names))
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    with pytest.raises(AttributeError):
        value.extra = 0


def test_pfa_holds_only_tuples_and_compares_by_value():
    built, given = Pfa(["a"], [[0]], ["s"]), Pfa(("a",), ((0,),), ("s",))
    assert built == given and hash(built) == hash(given)
    assert type(built.letters) is tuple and type(built.state_names) is tuple
    assert type(built.delta) is tuple and all(type(row) is tuple for row in built.delta)
    assert Pfa(["a"], [[0]]).state_names is None
    assert Pfa(["a"], [[0]]) != built
    assert Pfa(["a", "b"], [[0, None]]) != Pfa(["a", "b"], [[0, 0]])
    assert repr(Pfa(["a"], [[0]])) == "Pfa(letters=('a',), delta=((0,),), state_names=None)"
    with pytest.raises(AttributeError):
        Pfa(["a"], [[0]]).letters = ("b",)


def test_pfa_survives_pickle_and_document_round_trips():
    for pfa in (gen_witness(), gen_random(5, 28, 0.5, 3), Pfa(("a",), ((None,),))):
        restored = pickle.loads(pickle.dumps(pfa))
        assert type(restored) is Pfa and restored == pfa
        assert automaton_from_json(automaton_to_json(pfa)) == pfa
        assert pfa.n == len(pfa.delta) and pfa.full_set() == (1 << pfa.n) - 1


@pytest.mark.parametrize("text,args,sort_key", [
    ("witness", (), ("witness",)),
    ("grid:d=3,k=4", (3, 4), ("grid", 3, 4)),
    ("cerny:n=5", (5,), ("cerny", 5)),
    ("chain:k=3", (3,), ("chain", 3)),
    ("padded:d=3,n=7", (3, 7), ("padded", 3, 7)),
    ("random:n=4,l=3,p=0.8,seed=42", (4, 3, 0.8, 42), ("random", 4, 3, 0.8, 42)),
])
def test_family_spec_derived_values(text, args, sort_key):
    spec = parse_family(text)
    assert (spec.args, spec.to_string(), spec.sort_key()) == (args, text, sort_key)
    assert spec == parse_family(spec.to_string()) and hash(spec) == hash(parse_family(text))


def test_family_spec_repr_and_defaults():
    assert repr(FamilySpec("cerny", n=5)) == (
        "FamilySpec(kind='cerny', d=None, k=None, n=5, letter_count=None, density=None, seed=None)")
    assert FamilySpec("grid", d=3, k=4) == parse_family("grid:d=3,k=4")


def test_search_result_length():
    found = shortest_careful_word(gen_witness())
    assert found == SearchResult((0, 1, 2, 0, 1, 0, 1, 1, 2, 0), 11, 1)
    assert found.length == 10 and SearchResult((), 1, 0).length == 0


def test_sweep_row_agreement():
    rows = sweep([parse_family(text) for text in
                  ("grid:d=2,k=2", "cerny:n=4", "random:n=3,l=2,p=0.3,seed=1", "chain:k=3")])
    assert [(row.spec, row.bfs_status, row.bfs_length, row.builder_length, row.claimed_length,
             row.agree_builder_bfs, row.agree_claimed_bfs) for row in rows] == [
        ("cerny:n=4", "ok", 9, 9, 9, True, True),
        ("chain:k=3", "ok", 2, 2, None, True, None),
        ("grid:d=2,k=2", "ok", 5, 5, 6, True, False),
        ("random:n=3,l=2,p=0.3,seed=1", "not-sync", None, None, None, None, None),
    ]
