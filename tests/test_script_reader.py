"""The script reader: `from_json(to_json(s), g)` gives back every planned
script, and a script text with a wrong type, a missing key or a bad
structure raises DataError and nothing else."""

import copy
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradmorph.gen import random_matching, random_spanning_forest
from gradmorph.graph import DataError, Graph
from gradmorph.mcm import plan_mcm
from gradmorph.msf import plan_msf
from gradmorph.mwm import plan_mwm_auto
from gradmorph.script import PROBLEMS, TransformationScript


@st.composite
def _plans(draw):
    """A planned script on a graph of up to 10 vertices whose edges and
    weights Hypothesis draws, between two random matchings or forests."""
    problem = draw(st.sampled_from(PROBLEMS))
    n = draw(st.integers(2, 10))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda p: p[0] != p[1]),
                          min_size=1, max_size=20,
                          unique_by=lambda p: (min(p), max(p))))
    g = Graph()
    for v in range(n):
        g.ensure_vertex(v)
    for u, v in pairs:
        g.add_edge(u, v, draw(st.floats(min_value=1e-3, max_value=1e3)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if problem == "msf":
        return plan_msf(g, random_spanning_forest(rng, g),
                        random_spanning_forest(rng, g))
    a, b = random_matching(rng, g), random_matching(rng, g)
    if problem == "mcm":
        return plan_mcm(g, a, b)
    return plan_mwm_auto(g, a, b, draw(st.sampled_from([0.1, 0.25, 0.5])))


@settings(max_examples=150, deadline=None)
@given(_plans())
def test_planned_scripts_round_trip(script):
    text = script.to_json()
    again = TransformationScript.from_json(text, script.g)
    assert again == script
    assert again.to_json() == text


def _read(text, g):
    """The script that text holds, checked where it is read: its structure,
    its problem's epsilon and its budget."""
    return TransformationScript.from_json(text, g)


def _base():
    """A two-phase mwm script on the 4-path, as a JSON object, and its
    graph."""
    g = Graph()
    for u, w in ((0, 1.0), (1, 2.0), (2, 3.0)):
        g.add_edge(u, u + 1, w)
    obj = {"problem": "mwm", "epsilon": 0.5, "budget": 9, "phases": [
        {"ops": [{"op": "remove", "u": 1, "v": 2, "w": 2.0},
                 {"op": "add", "u": 0, "v": 1, "w": 1.0}]},
        {"ops": [{"op": "add", "u": 2, "v": 3, "w": 3.0}]}]}
    _read(json.dumps(obj), g)
    return obj, g


NAN, INF = float("nan"), float("inf")   # json.dumps writes NaN and Infinity
HUGE = "<1e400>"   # stands for the JSON number 1e400, which reads as inf
DELETE = object()


def _mutations():
    """(where, value) pairs: where is a path of keys and indices into the
    base object, and the value DELETE deletes what it names."""
    op = ("phases", 0, "ops", 1)
    for field in ("u", "v", "w"):
        for value in (True, False, "1", [1], {}, NAN, INF, HUGE, 2**70, 10**400):
            yield op + (field,), value
    for value in (True, "9", 9.0, [9], NAN, INF, HUGE, -1, 1):
        yield ("budget",), value   # -1 and 1: not the mwm Δ = 9
    for value in (True, "0.5", [0.5], {}, NAN, INF, HUGE, 0, 0.75, 10**400):
        yield ("epsilon",), value
    for value in ("move", "ADD", 1, [], ["add"], {}):
        yield op + ("op",), value
    for value in ("mst", 1, [], ["mwm"]):
        yield ("problem",), value
    for value in ([], {}, "ops", 5):
        yield ("phases", 1, "ops"), value   # []: phase 1 is empty; {}: not a list
    for value in ({"ops": []}, {}, "x", 5, [5], [[]], [{}]):
        yield ("phases",), value   # {}: phases is not a list
    for value in ([], 5, "op"):
        yield op, value
    for key in ("problem", "epsilon", "budget", "phases"):
        yield (key,), DELETE
    for key in ("op", "u", "v", "w"):
        yield op + (key,), DELETE
    yield ("phases", 0, "ops"), DELETE


def _mutated(obj, where, value):
    """The JSON text of obj with value at where."""
    obj = copy.deepcopy(obj)
    holder = obj
    for key in where[:-1]:
        holder = holder[key]
    if value is DELETE:
        del holder[where[-1]]
    else:
        holder[where[-1]] = value
    return json.dumps(obj).replace(json.dumps(HUGE), "1e400")


def _name(where, value):
    text = "deleted" if value is DELETE else repr(value)
    return ".".join(map(str, where)) + "=" + (
        text if len(text) < 20 else text[:8] + "...")


@pytest.mark.parametrize("where, value", list(_mutations()),
                         ids=[_name(*m) for m in _mutations()])
def test_a_mutated_script_raises_only_data_error(where, value):
    obj, g = _base()
    with pytest.raises(DataError):
        _read(_mutated(obj, where, value), g)


@pytest.mark.parametrize("text", ["", "{", "[]", "5", '"x"', "null",
                                  '{"phases": []}'])
def test_a_script_text_that_is_no_script_raises_data_error(text):
    with pytest.raises(DataError):
        _read(text, _base()[1])


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["op", "u", "v", "w", "ops"]), inner,
                      max_size=3),
    max_leaves=6)


def _paths(obj, path=()):
    """Every path of keys and indices into obj, the root's included."""
    yield path
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _paths(value, path + (key,))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_any_replaced_value_reads_or_raises_data_error(data):
    obj, g = _base()
    where = data.draw(st.sampled_from(list(_paths(obj))[1:]))
    value = data.draw(_JSON)
    try:
        _read(_mutated(obj, where, value), g)
    except DataError:
        pass
