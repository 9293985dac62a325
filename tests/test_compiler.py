import itertools

import pytest

from nomre.automata import (
    Cda,
    CdaClass,
    accept,
    cda_concat,
    cda_star,
    cda_union,
    class_of,
    enumerate_words,
    equiv_bounded,
)
from nomre.calculus import language_enumerate
from nomre.compiler import ContextTriple, compile_expr, compile_in_context
from nomre.corpus import ALPHABET, default_pool, lses_predicate
from nomre.errors import ContextError
from nomre.expr import Bind, Cat, Nam, NreClass, Star, Sum, Under, classify, parse, render
from nomre.genexpr import corpus_of_classes, random_nre
from nomre.nominal import Chronicle, Letter, name, natural_chronicle, sys_name

A, B = Letter("a"), Letter("b")


def P(text):
    return parse(text, ALPHABET)


def test_compile_lses_class_and_language(pool3):
    a = compile_expr(P("ab<$n._$n*>"))
    assert class_of(a).tag is CdaClass.CA
    r1, r2, r3 = pool3
    assert accept(a, (A, B, r1, r2, r3))
    assert not accept(a, (A, B, r1, r2, r1))
    assert accept(a, (A, B))


def test_compile_one_and_zero(pool3):
    assert enumerate_words(compile_expr(P("1")), pool3, 3) == {()}
    assert enumerate_words(compile_expr(P("0")), pool3, 3) == set()


def test_compile_lths_register_ceiling():
    a = compile_expr(P("a b <$n. ( _$n <$m. ( <$l. ($m + $l)* d >$m + <$l. ($m + $l)* d > )* > )* >"))
    assert max(s.regs for s in a.states) == 3
    assert class_of(a).tag is CdaClass.CDA


def test_compile_in_context_name_read():
    na = name("a")
    t = ContextTriple((na,), Nam(na), (Chronicle((na,), na),))
    a = compile_in_context(t)
    assert isinstance(a, Cda)
    assert len(a.states) == 2
    assert all(s.regs == 1 for s in a.states)
    ((f, lab, to),) = a.transitions
    assert lab.kind == "reg" and lab.index == 1
    # an extant post-context has pairwise distinct current values
    with pytest.raises(ContextError, match="extant"):
        compile_in_context(ContextTriple((na,), Nam(na), (Chronicle((na,), na),) * 2))


def test_compile_in_context_under_read():
    na = name("a")
    t = ContextTriple((na,), Under(na), (Chronicle((na,), na),))
    a = compile_in_context(t)
    ((f, lab, to),) = a.transitions
    assert lab.kind == "under" and lab.index == 1


def test_compile_in_context_simple_binder(pool3):
    n = name("n")
    a = compile_in_context(ContextTriple((), Bind(n, Nam(n), n), ()))
    kinds = sorted(lab.kind for _, lab, _ in a.transitions)
    assert kinds == ["close", "reg", "star"]
    close = next(lab for _, lab, _ in a.transitions if lab.kind == "close")
    reg = next(lab for _, lab, _ in a.transitions if lab.kind == "reg")
    assert close.index == 1 and reg.index == 1
    assert enumerate_words(a, pool3, 2) == {(x,) for x in pool3}


@pytest.mark.parametrize("text", [
    "<$n. <$n. $n >$n $n >",
    "<$n. $n <$n. _$n $n > $n >",
    "<$n. (<$n. $n _$n >$n)* $n >",
    "<$x. <$y. <$x. $x $y>$y $y $x> >",
])
def test_shadowed_binders_read_the_innermost_register(text):
    # a name reads the register of its innermost binder, with no renaming
    e = P(text)
    pool = default_pool(3)
    assert enumerate_words(compile_expr(e), pool, 5) == language_enumerate(e, pool, 5)


def test_reserved_context_name_is_not_captured_by_a_binder():
    # the binder's register is its level, so a context holding ~0 compiles
    z = sys_name(0)
    n = name("n")
    a = compile_in_context(ContextTriple((z,), Cat(Bind(n, Nam(n), n), Nam(z)), natural_chronicle((z,))))
    succ = {f: (lab, t) for f, lab, t in a.transitions}
    assert len(succ) == len(a.transitions)
    labels, q = [], a.initial
    while q in succ:
        lab, q = succ[q]
        labels.append(repr(lab))
    assert labels == ["*", "r2", "close2", "eps", "r1"]
    assert a.state_map()[q].final


def test_compile_requires_closed_wellformed():
    with pytest.raises(ContextError):
        compile_expr(P("$n"))
    with pytest.raises(ContextError):
        compile_expr(P("_$n"))
    with pytest.raises(ContextError):
        compile_expr(P("<$n.$n>$m"))


_CLASS_MAP = {
    NreClass.B: CdaClass.A,
    NreClass.P: CdaClass.DA,
    NreClass.U: CdaClass.CA,
    NreClass.UP: CdaClass.CDA,
}

_CLASS_LE = {
    CdaClass.A: {CdaClass.A, CdaClass.CA, CdaClass.DA, CdaClass.CDA},
    CdaClass.CA: {CdaClass.CA, CdaClass.CDA},
    CdaClass.DA: {CdaClass.DA, CdaClass.CDA},
    CdaClass.CDA: {CdaClass.CDA},
}


def test_class_fidelity_exact_on_zero_free():
    # A permuting binder over an empty body emits no close edge, so exact
    # class agreement is stated for zero-free expressions.
    exprs = corpus_of_classes(seed=77, total=120, allow_zero=False)
    seen = set()
    for e in exprs:
        a = compile_expr(e)
        assert class_of(a).tag is _CLASS_MAP[classify(e)], render(e)
        seen.add(classify(e))
    assert seen == set(_CLASS_MAP)


def test_class_fidelity_upper_bound_in_general():
    for e in corpus_of_classes(seed=78, total=60):
        got = class_of(compile_expr(e)).tag
        assert _CLASS_MAP[classify(e)] in _CLASS_LE[got], render(e)


def test_closure_corollary_constructions(rng, pool3):
    for _ in range(30):
        e1 = random_nre(rng, size=4)
        e2 = random_nre(rng, size=4)
        a1, a2 = compile_expr(e1), compile_expr(e2)
        assert equiv_bounded(compile_expr(Sum(e1, e2)), cda_union(a1, a2), pool3, 4) is None
        assert equiv_bounded(compile_expr(Cat(e1, e2)), cda_concat(a1, a2), pool3, 4) is None
        assert equiv_bounded(compile_expr(Star(e1)), cda_star(a1), pool3, 4) is None


def test_closure_corollary_set_level(rng, pool3):
    maxlen = 4
    for _ in range(12):
        e1 = random_nre(rng, size=4)
        e2 = random_nre(rng, size=4)
        w1 = enumerate_words(compile_expr(e1), pool3, maxlen)
        w2 = enumerate_words(compile_expr(e2), pool3, maxlen)
        union = enumerate_words(compile_expr(Sum(e1, e2)), pool3, maxlen)
        assert union == w1 | w2
        cat = enumerate_words(compile_expr(Cat(e1, e2)), pool3, maxlen)
        assert cat == {u + v for u in w1 for v in w2 if len(u) + len(v) <= maxlen}
        star = enumerate_words(compile_expr(Star(e1)), pool3, maxlen)
        closure = {()}
        while True:
            nxt = closure | {u + v for u in w1 for v in closure if len(u) + len(v) <= maxlen}
            if nxt == closure:
                break
            closure = nxt
        assert star == closure


def test_eps_edges_preserve_regcount(rng):
    for _ in range(20):
        a = compile_expr(random_nre(rng, size=6))
        sm = a.state_map()
        for f, lab, t in a.transitions:
            if lab.kind == "eps":
                assert sm[f].regs == sm[t].regs


def test_lses_against_predicate_small(pool3):
    a = compile_expr(P("ab<$n._$n*>"))
    tokens = [A, B] + list(pool3)
    for n in range(0, 5):
        for w in itertools.product(tokens, repeat=n):
            assert accept(a, w) == lses_predicate(w), w
