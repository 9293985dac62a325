import copy
import itertools
import json
import random

import pytest

import nomre.oracle as oracle
from nomre.automata import (
    Cda,
    CdaClass,
    EPS,
    Label,
    STAR,
    State,
    _Engine,
    accept,
    cda_concat,
    cda_star,
    cda_union,
    class_of,
    enumerate_words,
    equiv_bounded,
    from_json,
    lab_close,
    lab_letter,
    lab_reg,
    lab_under,
    to_dot,
    to_json,
    word_sort_key,
)
from nomre.calculus import language_enumerate, language_member
from nomre.compiler import ContextTriple, compile_expr, compile_in_context
from nomre.corpus import (
    ALPHABET,
    LONET_TEXT,
    LSES_TEXT,
    LTHS_TEXT,
    default_pool,
    lonet_automaton,
    lses_automaton,
)
from nomre.errors import SchemaError, ValidationError
from nomre.expr import Bind, Cat, Nam, parse, render
from nomre.extract import extract_expr
from nomre.genexpr import corpus_of_classes, random_nre
from nomre.nominal import Letter, chronicle, name, natural_chronicle, placeholder, sys_name
from nomre.oracle import Configuration, accept_reference, enumerate_reference, step

r1, r2, r3 = name("r1"), name("r2"), name("r3")
S0, S1, P1 = sys_name(0), sys_name(1), placeholder(1)
A, B = Letter("a"), Letter("b")


def P(text):
    return parse(text, ALPHABET)


def test_validate_trivial():
    a = Cda([State("q0", 0)], "q0", [])
    assert a.states == (State("q0", 0),) and a.transitions == ()
    # states and transitions are stored as tuples, so an automaton hashes
    assert hash(a) == hash(Cda((State("q0", 0),), "q0", ()))


def test_validate_star_delta():
    with pytest.raises(ValidationError, match="must be 1"):
        Cda((State("q0", 0), State("q1", 0)), "q0", (("q0", STAR, "q1"),))


def test_validate_final_regcount():
    with pytest.raises(ValidationError, match="final state q1"):
        Cda((State("q0", 0), State("q1", 1, True)), "q0", (("q0", STAR, "q1"),))


def test_validate_index_range():
    with pytest.raises(ValidationError, match="out of range"):
        Cda(
            (State("q0", 0), State("q1", 1), State("q2", 1)),
            "q0",
            (("q0", STAR, "q1"), ("q1", lab_reg(2), "q2")),
        )


_Q = (State("q0", 0), State("q1", 1))


@pytest.mark.parametrize("states, initial, transitions", [
    pytest.param(_Q[:1], "q0", [("q0", Label("warp"), "q0")], id="unknown kind"),
    pytest.param(_Q[:1], "q0", [("q0", Label(None), "q0")], id="no kind"),
    pytest.param(_Q[:1], "q0", [("q0", Label("reg"), "q0")], id="reg without index"),
    pytest.param(_Q, "q0", [("q0", STAR, "q1"), ("q1", Label("close", index=True), "q0")],
                 id="close with a bool index"),
    pytest.param(_Q[:1], "q0", [("q0", Label("letter"), "q0")], id="letter without Letter"),
    pytest.param(_Q[:1], "q0", [("q0", Label("letter", letter="a"), "q0")], id="letter spelled as a str"),
    pytest.param(_Q[:1], "q0", [("q0", Label("eps", index=1), "q0")], id="eps with an index"),
    pytest.param(_Q[:1], "q0", [("q0", EPS)], id="transition not a triple"),
    pytest.param(_Q[:1], "q0", [["q0", EPS, "q0"]], id="transition a list"),
    pytest.param((State(1, 0, True),), 1, (), id="state id 1"),
    pytest.param((State("q0", True),), "q0", (), id="regs True"),
    pytest.param((State("q0", 0, "no"),), "q0", (), id="final 'no'"),
    pytest.param((State("q0", 0), State("q0", 0)), "q0", (), id="duplicate id"),
    pytest.param((State("q0", -1),), "q0", (), id="negative regs"),
    pytest.param(_Q[:1], "q9", (), id="initial missing"),
    pytest.param(_Q[:1], "q0", [("q0", EPS, "q9")], id="dangling endpoint"),
    pytest.param(("q0",), "q0", (), id="state not a State"),
])
def test_construction_rejects_malformed_pieces(states, initial, transitions):
    with pytest.raises(ValidationError, match="invalid automaton"):
        Cda(states, initial, transitions)


def test_construction_lists_every_violation():
    with pytest.raises(ValidationError) as err:
        Cda((State("q0", 0), State("q0", 0), State("q1", 2, True)), "q0",
            [("q0", Label("reg"), "q0"), ("q0", EPS, "q9")])
    msg = str(err.value)
    for part in ("duplicate state id", "final state q1", "malformed label", "dangling endpoint"):
        assert part in msg, part


def test_class_of_lses_is_ca():
    info = class_of(lses_automaton())
    assert info.tag is CdaClass.CA


def test_class_of_non_top_close_is_not_ca():
    a = Cda(
        (
            State("q0", 0),
            State("q1", 1),
            State("q2", 2),
            State("q3", 1),
            State("q4", 0, True),
        ),
        "q0",
        (
            ("q0", STAR, "q1"),
            ("q1", STAR, "q2"),
            ("q2", lab_close(1), "q3"),
            ("q3", lab_close(1), "q4"),
        ),
    )
    assert class_of(a).tag is CdaClass.DA


def test_class_of_plain_automaton():
    a = Cda(
        (State("q0", 0), State("q1", 0, True)),
        "q0",
        (("q0", lab_letter("a"), "q1"),),
    )
    assert class_of(a).tag is CdaClass.A


def test_step_star_candidates():
    a = lses_automaton()
    w = (A, B, r1)
    c = Configuration("q2", 2, ())
    succs = step(a, c, w)
    # one branch per unread-suffix name plus one canonical fresh name
    assert {s.state for s in succs} == {"q3"}
    allocated = {s.extant[0].cv for s in succs}
    assert r1 in allocated
    assert any(x.kind == 1 for x in allocated)  # a reserved machine name
    for s in succs:
        assert len(s.extant) == 1
        assert s.extant[0].hist == (s.extant[0].cv,)


def test_step_under_blocks_history():
    a = lses_automaton()
    w = (r1,)
    c = Configuration("q3", 0, (chronicle([r2, r1], r2),))
    # the head name is already in the register's chronicle: no consuming move
    assert [s for s in step(a, c, w) if s.pos == 1] == []
    c2 = Configuration("q3", 0, (chronicle([r2], r2),))
    succs = [s for s in step(a, c2, w) if s.pos == 1]
    assert [s.state for s in succs] == ["q3"]
    s = succs[0]
    assert s.extant[0].cv is r1
    assert s.extant[0].hist == (r2, r1)


def test_step_close_moves_top_value():
    a = Cda(
        (State("q0", 0), State("p2", 2), State("p1", 1)),
        "q0",
        (("p2", lab_close(2), "p1"),),
    )
    na, nb = name("a"), name("b")
    # allocation order a then b, so b sits in both histories
    c = Configuration("p2", 0, (chronicle([na, nb], na), chronicle([nb], nb)))
    # close on the top register is a pure pop
    (s,) = step(a, c, ())
    assert s.state == "p1"
    assert [x.cv for x in s.extant] == [na]
    # close below the top moves the popped current value into that register
    a2 = Cda(
        (State("q0", 0), State("p2", 2), State("p1", 1)),
        "q0",
        (("p2", lab_close(1), "p1"),),
    )
    (s2,) = step(a2, c, ())
    assert [x.cv for x in s2.extant] == [nb]
    assert s2.extant[0].hist == (na, nb)


def test_accept_lses_words():
    a = lses_automaton()
    assert accept(a, (A, B, r1, r2, r3))
    assert not accept(a, (A, B, r1, r1))
    assert accept(a, (A, B))
    assert not accept(a, (A, r1))


def test_accept_lonet_reuse():
    a = lonet_automaton()
    p0, q0 = name("p0"), name("q0")
    w = (A, B, r1, p0, q0, r2, r2, q0)  # second p equals the current run name
    assert not accept(a, w)
    w2 = (A, B, r1, p0, q0, r2, p0, q0)  # reuse of p0 across runs is fine
    assert accept(a, w2)
    w3 = (A, B, r1, p0, q0, p0, p0, q0)  # run names must be globally fresh
    assert not accept(a, w3)


def test_enumerate_one_and_zero(pool3):
    assert enumerate_words(compile_expr(P("1")), pool3, 2) == {()}
    assert enumerate_words(compile_expr(P("0")), pool3, 2) == set()


def test_enumerate_successive_distinct_counts(pool3):
    a = compile_expr(P("<$m.(<$n.$n>$m)*>"))
    words = enumerate_words(a, pool3, 3)
    exact3 = {w for w in words if len(w) == 3}
    brute = {
        w
        for w in itertools.product(pool3, repeat=3)
        if all(w[i] is not w[i + 1] for i in range(2))
    }
    assert exact3 == brute
    assert len(exact3) == 12


def test_equiv_bounded_self_and_trivial(pool3):
    a = compile_expr(P("1"))
    z = compile_expr(P("0"))
    assert equiv_bounded(a, a, pool3, 3) is None
    assert equiv_bounded(a, z, pool3, 3) == ()


def test_equiv_bounded_reports_least_word(rng):
    # equiv_bounded compares one word per renaming class; its witness must
    # still be the least word of the difference of the whole languages, in
    # any pool order
    pool = (r1, r2, r3)
    orders = (pool, pool[::-1], tuple(rng.sample(pool, len(pool))))
    lses = P(LSES_TEXT)
    pairs = [(P("a b"), P("a b + a"), 3)] + [(lses, P(t), 4) for t in (
        LONET_TEXT,
        "a b <$m. _$m* >",
        "a b <$n. $n* >",
        "b a <$n. _$n* >",
        "a b <$n. _$n* > <$m. _$m* >",
        "a b <$n. _$n <$m. _$m* > >",
    )]
    full = {}
    for l, r, maxlen in pairs:
        a, b = compile_expr(l), compile_expr(r)
        for e, x in ((l, a), (r, b)):
            if (e, maxlen) not in full:
                full[e, maxlen] = enumerate_reference(x, pool, maxlen)
        diff = full[l, maxlen] ^ full[r, maxlen]
        want = min(diff, key=word_sort_key) if diff else None
        for order in orders:
            assert equiv_bounded(a, b, order, maxlen) == want, (render(r), order)
    assert equiv_bounded(compile_expr(P("a b")), compile_expr(P("a b + a")), pool, 3) == (A,)


def test_sum_against_union_construction(rng, pool3):
    from nomre.expr import Sum

    for _ in range(30):
        e1 = random_nre(rng, size=4)
        e2 = random_nre(rng, size=4)
        lhs = compile_expr(Sum(e1, e2))
        rhs = cda_union(compile_expr(e1), compile_expr(e2))
        assert equiv_bounded(lhs, rhs, pool3, 4) is None


def test_json_roundtrip_random(rng, hand_automata):
    autos = list(hand_automata.values())
    for _ in range(100):
        autos.append(compile_expr(random_nre(rng, size=5)))
    for a in autos:
        b = from_json(to_json(a))
        assert b == a


def test_from_json_schema_errors():
    with pytest.raises(SchemaError):
        from_json("{")
    with pytest.raises(SchemaError):
        from_json('{"states": [], "initial": "q", "transitions": []}')
    with pytest.raises(SchemaError):
        from_json(
            '{"states": [{"id": "q", "regs": 0, "final": false}],'
            ' "initial": "q",'
            ' "transitions": [{"from": "q", "label": {"kind": "warp"}, "to": "q"}]}'
        )
    # numbers beyond the float range decode to infinities
    doc = '{"states": [{"id": "q", "regs": %s}], "initial": "q", "transitions": [%s]}'
    reg = '{"from": "q", "label": {"kind": "reg", "index": 1e400}, "to": "q"}'
    for regs, trs in (("1e400", ""), ("-1e400", ""), ("0", reg)):
        with pytest.raises(SchemaError):
            from_json(doc % (regs, trs))
    with pytest.raises(SchemaError):
        from_json("[" * 100000 + "]" * 100000)
    # field types are checked, not coerced: each change below was once read
    # as a valid automaton that the document does not describe
    base = {
        "states": [
            {"id": "1", "regs": 0, "final": True},
            {"id": "2", "regs": 1, "final": False},
            {"id": "3", "regs": 3, "final": False},
        ],
        "initial": "1",
        "transitions": [
            {"from": "1", "label": {"kind": "star"}, "to": "2"},
            {"from": "2", "label": {"kind": "reg", "index": 1}, "to": "2"},
            {"from": "2", "label": {"kind": "letter", "letter": "a"}, "to": "2"},
            {"from": "2", "label": {"kind": "close", "index": 1}, "to": "1"},
        ],
    }
    assert from_json(json.dumps(base)).states[0] == State("1", 0, True)
    for path, value in (
        (("states", 0, "final"), "false"),
        (("states", 0, "regs"), 0.9),
        (("states", 2, "regs"), "3"),
        (("states", 0, "id"), 1),
        (("initial",), 1),
        (("transitions", 0, "from"), 1),
        (("transitions", 0, "to"), 2),
        (("transitions", 1, "label", "index"), True),
        (("transitions", 2, "label", "letter"), 7),
        # nothing the document adds is dropped without a word
        (("transitions", 0, "label", "index"), 5),
        (("transitions", 2, "label", "index"), 1),
        (("transitions", 1, "label", "letter"), "a"),
        (("transitions", 0, "weight"), 1),
        (("states", 1, "name"), "two"),
        (("comment",), "hand-made"),
    ):
        doc = copy.deepcopy(base)
        node = doc
        for k in path[:-1]:
            node = node[k]
        node[path[-1]] = value
        with pytest.raises(SchemaError):
            from_json(json.dumps(doc))


def test_json_round_trips_automata_in_context():
    # a compiled expression in context starts and ends on layer |C|: it is
    # an automaton, which serializes and draws, but it neither runs nor
    # extracts
    n = name("n")
    a = compile_in_context(ContextTriple((r1,), Cat(Bind(n, Nam(n), r1), Nam(r1)), natural_chronicle((r1,))))
    assert a.state_map()[a.initial].regs == 1
    assert from_json(to_json(a)) == a
    assert to_dot(a).startswith("digraph")
    for run in (lambda: accept(a, (r1,)), lambda: enumerate_words(a, (r1,), 2), lambda: extract_expr(a)):
        with pytest.raises(ValidationError, match="closed"):
            run()
    for b in (Cda((State("1", 0, True),), "1", ()),
              Cda((State("q0", 0), State("q1", 1), State("q2", 0, True)), "q0",
                  (("q0", STAR, "q1"), ("q1", lab_close(1), "q2")))):
        assert from_json(to_json(b)) == b


def test_words_hold_only_letters_and_names():
    a = lses_automaton()
    e = P(LSES_TEXT)
    assert accept(a, (A, B, r1)) and language_member(e, (A, B, r1))
    for w in ((A, B, 3), ("a", "b"), (A, B, None)):
        with pytest.raises(ValidationError, match="letters or names"):
            accept(a, w)
        with pytest.raises(ValidationError, match="letters or names"):
            language_member(e, w)


def test_dot_single_node():
    a = Cda((State("q0", 0),), "q0", ())
    dot = to_dot(a)
    assert sum(1 for line in dot.splitlines() if "shape=circle" in line or "doublecircle" in line) == 1


def test_dot_lses_layout():
    dot = to_dot(lses_automaton())
    nodes = [l for l in dot.splitlines() if "shape=" in l and "point" not in l]
    ranks = [l for l in dot.splitlines() if "rank=same" in l]
    assert len(nodes) == 5
    assert len(ranks) == 2
    assert 'label="u1"' in dot and 'label="close1"' in dot and 'label="*"' in dot


def test_register_count_discipline_and_close_positions():
    # every explored configuration keeps |extant| = regcount(state); on the
    # chronicle automata the only closes taken are top closes
    for auto in (lses_automaton(), lonet_automaton()):
        sm = auto.state_map()
        w = (A, B, r1, name("p"), name("q"), r2, name("p2"), name("q2"))
        frontier = [Configuration(auto.initial, 0, ())]
        seen = set()
        steps = 0
        while frontier and steps < 4000:
            c = frontier.pop()
            key = (c.state, c.pos, tuple((x.cv, frozenset(x.hist)) for x in c.extant))
            if key in seen:
                continue
            seen.add(key)
            assert len(c.extant) == sm[c.state].regs
            for s in step(auto, c, w):
                steps += 1
                frontier.append(s)


def test_engine_agrees_with_reference(rng, pool3):
    for _ in range(15):
        e = random_nre(rng, size=4)
        a = compile_expr(e)
        for w in sorted(enumerate_words(a, pool3, 3), key=word_sort_key):
            assert accept_reference(a, w)
        for w in (
            (),
            (r1,),
            (A, r1),
            (r1, r1),
            (A, B),
            (r1, r2, r1),
            (S1, S0),
            (A, S1, S0),
            (S0, P1, S0),
            (r1, S1, P1),
        ):
            assert accept(a, w) == accept_reference(a, w)
    # reserved names in the word are input names like any other
    lses = lses_automaton()
    for w in ((A, B, S1, S0), (A, B, S0, P1, S1), (A, B, r1, S0, S0)):
        assert accept(lses, w) == accept_reference(lses, w)


def test_engine_macro_states_do_not_grow_with_the_word(monkeypatch):
    # A * pushes one pending value instead of guessing among the word's
    # names, so the largest closure is a constant of the automaton.
    peaks = []
    closure = _Engine.closure

    def recording(self, *args):
        out = closure(self, *args)
        peaks[-1] = max(peaks[-1], len(out))
        return out

    monkeypatch.setattr(_Engine, "closure", recording)

    def run(a, w):
        peaks.append(0)
        return accept(a, w), peaks[-1]

    lses = compile_expr(P(LSES_TEXT))
    sizes = set()
    for n in (8, 32, 64, 128):
        good = (A, B) + tuple(name("s%d" % i) for i in range(n))
        sizes.add(run(lses, good))
        sizes.add(run(lses, good[:-1] + (good[2],)))
    assert {v for v, _ in sizes} == {True, False}
    assert len({peak for _, peak in sizes}) == 1
    # lths sessions r (l d) (m d): m and l are allocated before they are read
    lths = compile_expr(P(LTHS_TEXT))
    D = Letter("d")
    sizes = set()
    for n in (2, 3):
        w = (A, B)
        for k in range(n):
            w += (name("r%d" % k), name("l%d" % k), D, name("m%d" % k), D)
        sizes.add(run(lths, w))
        sizes.add(run(lths, w + (name("r0"),)))
    assert {v for v, _ in sizes} == {True, False}
    assert len({peak for _, peak in sizes}) == 1


def test_reference_configurations_stay_finite_on_allocation_loops():
    # Each <$y.1> unfolding allocates without a read. Machine names that
    # avoided every history made each unfolding's configuration new, and
    # accept_reference ran out of memory before its budget tripped.
    a = compile_expr(P("<$x.<$y.1>* _$x*>"))
    w = (r1, r2, B)
    seen = set()
    stack = [Configuration(a.initial, 0, ())]
    while stack:
        c = stack.pop()
        if c not in seen:
            seen.add(c)
            assert len(seen) <= 1000
            stack.extend(step(a, c, w))
    assert accept_reference(a, w) is False
    assert accept(a, w) is False


def test_kleene_differential_over_reserved_pool():
    pool = (S0, P1, S1)
    for e in corpus_of_classes(seed=101, total=200):
        assert enumerate_words(compile_expr(e), pool, 4) == language_enumerate(e, pool, 4), render(e)


def test_enumerations_reject_bad_bounds(pool3):
    e = P(LSES_TEXT)
    a = compile_expr(e)
    bad = (((r1, r1), 2), (pool3, -1), ((A,), 3), ((r1, B), 3), ("ab", 2), ((r1, "r2"), 2),
           (pool3, 2.5), (pool3, True), (pool3, "2"))
    for pool, maxlen in bad:
        with pytest.raises(ValidationError):
            enumerate_words(a, pool, maxlen)
        with pytest.raises(ValidationError):
            language_enumerate(e, pool, maxlen)
        with pytest.raises(ValidationError):
            equiv_bounded(a, a, pool, maxlen)
    # reserved names and placeholders are names like any other
    want = {(A, B), (A, B, S0), (A, B, P1)}
    assert enumerate_words(a, (S0, P1), 3) == language_enumerate(e, (S0, P1), 3) == want


def test_enumerate_words_agrees_with_reference(corpus_exprs, oracle_pools):
    # the reference tries every word, with no renaming classes
    for key, e in corpus_exprs.items():
        a = compile_expr(e)
        for pool in oracle_pools:
            maxlen = 4 if len(pool) == 3 and key != "lths" else 3
            assert enumerate_words(a, pool, maxlen) == enumerate_reference(a, pool, maxlen), key
    for i, e in enumerate(corpus_of_classes(seed=7, total=200)[::4]):
        pool = oracle_pools[i % len(oracle_pools)]
        maxlen = 3 if len(pool) == 3 else 2
        a = compile_expr(e)
        assert enumerate_words(a, pool, maxlen) == enumerate_reference(a, pool, maxlen), render(e)


def test_enumeration_work_is_one_orbit_at_a_time(monkeypatch):
    # each step offers the used pool names and one unused name, not the
    # whole pool, so the macro states explored stay few
    calls = [0]
    closure = _Engine.closure

    def counting(self, *args):
        calls[0] += 1
        return closure(self, *args)

    monkeypatch.setattr(_Engine, "closure", counting)
    words = enumerate_words(compile_expr(P(LTHS_TEXT)), default_pool(5), 8)
    assert len(words) == 9371
    assert calls[0] <= 1000


def test_accept_invariant_under_fresh_sequence_shift(monkeypatch, pool3, corpus_exprs):
    # replacing the canonical fresh sequence by a disjoint one changes nothing
    a = compile_expr(corpus_exprs["succ_distinct"])
    words = [w for n in range(4) for w in itertools.product(pool3, repeat=n)]
    base = [accept_reference(a, w) for w in words]
    orig = oracle.canonical_fresh

    def shifted(avoid):
        return orig(avoid | {sys_name(i) for i in range(40)})

    monkeypatch.setattr(oracle, "canonical_fresh", shifted)
    assert [accept_reference(a, w) for w in words] == base


def test_permutation_closure_of_acceptance(rng, pool3, corpus_exprs):
    from nomre.nominal import perm_from_lists
    from nre_helpers import apply_perm_word

    extra = [name("f%d" % i) for i in range(3)]
    universe = list(pool3) + extra
    for key in ("lses", "succ_distinct", "diamond"):
        a = compile_expr(corpus_exprs[key])
        for w in sorted(enumerate_words(a, pool3, 4), key=word_sort_key):
            for _ in range(5):
                tgt = universe[:]
                rng.shuffle(tgt)
                p = perm_from_lists(universe, tgt)
                assert accept(a, apply_perm_word(p, w))
