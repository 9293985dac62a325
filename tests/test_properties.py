"""Property tests at the text and JSON boundaries.

Examples are drawn deterministically (derandomize) and without a deadline,
so the suite gives the same verdict on every run and machine. A failure
that hypothesis shrinks becomes a fixed case in the tests of the module
at fault.
"""

import copy
import json
import math
import random

from hypothesis import given, settings, strategies as st

from nomre.automata import from_json, to_json
from nomre.compiler import compile_expr
from nomre.errors import SchemaError
from nomre.expr import parse, render
from nomre.genexpr import random_nre

LETTERS = ("a", "b")

steady = settings(derandomize=True, deadline=None, database=None, max_examples=150)


@st.composite
def expressions(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return random_nre(
        rng,
        LETTERS,
        max_depth=draw(st.integers(0, 3)),
        size=draw(st.integers(1, 12)),
        allow_under=draw(st.booleans()),
        allow_perm=draw(st.booleans()),
    )


@steady
@given(expressions())
def test_parse_inverts_render(e):
    assert parse(render(e), LETTERS) == e


@steady
@given(expressions())
def test_json_round_trips_compiled_automata(e):
    a = compile_expr(e)
    assert from_json(to_json(a)) == a


scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
ids = st.sampled_from(["q0", "q1"])
# JSON numbers beyond the float range, such as 1e400, decode to infinities
counts = st.integers(-1, 3) | st.sampled_from([math.inf, -math.inf, math.nan]) | scalars
labels = st.fixed_dictionaries(
    {"kind": st.sampled_from(["eps", "star", "letter", "reg", "under", "close"]) | scalars},
    optional={"letter": scalars, "index": counts},
)
states = st.fixed_dictionaries({"id": ids | scalars, "regs": counts}, optional={"final": scalars})
transitions = st.fixed_dictionaries({"from": ids, "label": labels | scalars, "to": ids})
documents = st.fixed_dictionaries(
    {
        "states": st.lists(states, min_size=1, max_size=3),
        "initial": ids | scalars,
        "transitions": st.lists(transitions, max_size=3),
    }
)


# Documents close to what to_json writes, some with a stray key: from_json
# accepts a good share of them.
layers = st.integers(0, 2)
stray = {"note": scalars}
plausible_labels = st.fixed_dictionaries(
    {"kind": st.sampled_from(["eps", "star", "letter", "reg", "under", "close"])},
    optional={"letter": st.sampled_from(LETTERS), "index": layers, **stray},
)
plausible_documents = st.fixed_dictionaries(
    {
        "states": st.lists(
            st.fixed_dictionaries({"id": ids, "regs": layers}, optional={"final": st.booleans(), **stray}),
            min_size=1, max_size=2, unique_by=lambda s: s["id"],
        ),
        "initial": ids,
        "transitions": st.lists(
            st.fixed_dictionaries({"from": ids, "label": plausible_labels, "to": ids}, optional=stray),
            max_size=3,
        ),
    },
    optional=stray,
)


@steady
@given(plausible_documents)
def test_from_json_keeps_every_field_of_what_it_accepts(doc):
    try:
        a = from_json(json.dumps(doc))
    except SchemaError:
        return
    want = copy.deepcopy(doc)
    for s in want["states"]:
        s.setdefault("final", False)
    assert json.loads(to_json(a)) == want


@steady
@given(documents)
def test_from_json_raises_only_schema_errors(doc):
    try:
        from_json(json.dumps(doc))
    except SchemaError:
        pass


@steady
@given(st.text(max_size=40) | json_values.map(json.dumps))
def test_from_json_raises_only_schema_errors_on_any_text(text):
    try:
        from_json(text)
    except SchemaError:
        pass
