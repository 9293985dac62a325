import random
import sys

import pytest

from nomre.automata import Cda, State, enumerate_words, lab_letter
from nomre.compiler import compile_expr
from nomre.corpus import ALPHABET, default_pool
from nomre.errors import ParseError, ResourceLimitError
from nomre.expr import (
    Bind,
    Cat,
    Lit,
    Nam,
    NreClass,
    ONE,
    Star,
    Sum,
    Under,
    alpha_eq,
    apply_perm_expr,
    check_wellformed,
    classify,
    classify_first_degree,
    free_names,
    parse,
    render,
)
from nomre.extract import extract_expr
from nomre.genexpr import random_nre
from nomre.nominal import Letter, name, transpose
from nre_helpers import binder_depth, rename_bound


def P(text):
    return parse(text, ALPHABET)


def test_parse_session_expression():
    e = P("ab<$n._$n*>")
    la, lb, n = Lit(Letter("a")), Lit(Letter("b")), name("n")
    assert e == Cat(Cat(la, lb), Bind(n, Star(Under(n)), n))


def test_parse_one():
    assert P("1") is ONE or P("1") == ONE
    # surrounding whitespace, trailing included, is skipped
    assert P("  \n a b   \n\t") == P("a b")


def test_parse_successive_distinct():
    e = P("<$m.(<$n.$n>$m)*>")
    m, n = name("m"), name("n")
    assert e == Bind(m, Star(Bind(n, Nam(n), m)), m)


def test_parse_splits_an_identifier_into_one_character_letters_only():
    a, b = Lit(Letter("a")), Lit(Letter("b"))
    assert parse("ab", ("a", "b")) == Cat(a, b)
    # no split into longer letters: "abc" is not read as "ab" then "c"
    with pytest.raises(ParseError, match="letter 'abc' not in alphabet"):
        parse("abc", ("ab", "c"))


def test_parse_errors():
    with pytest.raises(ParseError):
        P("ab<$n._$n*")  # unclosed binder
    with pytest.raises(ParseError):
        P("q")  # letter not declared
    with pytest.raises(ParseError):
        P("$n >$m")  # dangling close annotation
    with pytest.raises(ParseError):
        parse("a b ?", ("a", "b"))


@pytest.mark.parametrize(
    "text, line, col, msg",
    [
        ("a b\n  <$x.\n $x ?>", 3, 5, "unexpected character '?'"),
        ("a b\n\n  <$x.$x> xyz", 3, 11, "letter 'xyz' not in alphabet"),
        ("a\n  <$x\n   $x>", 3, 4, "expected ., found 'x'"),
        ("a (b\n  +\n   *)", 3, 4, "unexpected '*'"),
        ("a (b\n  ", 2, 3, "expected ), found 'end of input'"),
        ("a b\n<$x. $x", 2, 8, "expected >, found 'end of input'"),
    ],
)
def test_parse_error_positions(text, line, col, msg):
    with pytest.raises(ParseError) as info:
        P(text)
    assert (info.value.line, info.value.col) == (line, col)
    assert str(info.value) == "%d:%d: %s" % (line, col, msg)


def test_render_basics():
    assert render(ONE) == "1"
    n = name("n")
    assert render(Bind(n, Nam(n), n)) == "<$n.$n>"


def test_render_parse_roundtrip_random():
    rng = random.Random(42)
    for _ in range(1000):
        e = random_nre(rng, size=rng.randint(2, 9))
        assert parse(render(e), ALPHABET) == e


def test_render_parse_identity_on_text():
    for text in ("ab<$n._$n*>", "<$m.(<$n.$n>$m)*>", "(a + b) a*", "1 + 0 a"):
        e = P(text)
        assert parse(render(e), ALPHABET) == e


def test_classify():
    assert classify(P("ab<$n._$n*>")) is NreClass.U
    assert classify(P("<$m.(<$n.$n>$m)*>")) is NreClass.P
    assert classify(P("<$n.$n>")) is NreClass.B
    assert classify(P("<$m._$m<$n.$n>$m>")) is NreClass.UP


def test_wellformed_scope_condition():
    rep = check_wellformed(P("<$n.$n>$m"))
    assert not rep.ok
    assert any(i.kind == "scope-condition" for i in rep.issues)
    assert check_wellformed(P("<$m.<$n.$n>$m>")).ok


def test_wellformed_rejects_a_value_that_is_no_expression():
    for bad in (42, "a b", None, Cat(P("a"), 42), Bind(name("n"), (), name("n"))):
        with pytest.raises(TypeError):
            check_wellformed(bad)
        with pytest.raises(TypeError):
            classify(bad)


# nesting past Python's recursion limit is a documented error, not a crash
# with a bare RecursionError
DEEP_PARENS = "(" * 3000 + "a" + ")" * 3000
DEEP_BINDERS = "".join("<$x%d. " % i for i in range(300)) + "a" + " >" * 300


def _assert_too_deep(run):
    with pytest.raises(ResourceLimitError, match="recursion limit of %d" % sys.getrecursionlimit()) as err:
        run()
    assert err.value.__cause__ is None and err.value.__suppress_context__


def test_parse_of_deeply_nested_parentheses_is_a_resource_limit():
    _assert_too_deep(lambda: P(DEEP_PARENS))


def test_parse_of_deeply_nested_binders_is_a_resource_limit():
    _assert_too_deep(lambda: P(DEEP_BINDERS))


def test_wellformed_of_a_deep_star_tower_is_a_resource_limit():
    e = P("a" + "*" * 5000)  # the parser reads postfix stars in a loop
    _assert_too_deep(lambda: check_wellformed(e))
    _assert_too_deep(lambda: classify(e))


def test_render_of_a_long_word_is_a_resource_limit():
    # the parser reads juxtaposed letters in a loop, but each one nests the
    # binary tree it builds a level deeper
    e = P(" ".join(["a"] * 2000))
    _assert_too_deep(lambda: render(e))


def test_renaming_and_shape_tests_of_a_long_word_are_a_resource_limit():
    e = P(" ".join(["a"] * 2000))
    _assert_too_deep(lambda: apply_perm_expr({}, e))
    _assert_too_deep(lambda: alpha_eq(e, e))
    _assert_too_deep(lambda: classify_first_degree(e))


def _letter_chain(n):
    states = [State("q%d" % i, 0, i == n) for i in range(n + 1)]
    return Cda(states, "q0", [("q%d" % i, lab_letter("a"), "q%d" % (i + 1)) for i in range(n)])


def test_render_takes_one_frame_per_nesting_level():
    # a 700-state chain extracts to an expression 602 levels deep
    text = render(extract_expr(_letter_chain(700)))
    assert text.count("a") == 700 and render(P(text)) == text
    _assert_too_deep(lambda: render(extract_expr(_letter_chain(2000))))


def test_wellformed_underline_locality():
    rep = check_wellformed(P("_$n"))
    assert not rep.ok
    assert any(i.kind == "underline-locality" for i in rep.issues)


def test_free_names():
    n, m = name("n"), name("m")
    assert free_names(P("$n<$n.$n>$n")) == {n}
    assert free_names(P("<$n.$n>")) == frozenset()
    assert free_names(P("<$n.$n>$m")) == {m}


def test_apply_perm_expr():
    e = P("<$n.$n>")
    assert apply_perm_expr({}, e) == e
    n, m = name("n"), name("m")
    assert apply_perm_expr(transpose(n, m), e) == P("<$m.$m>")
    lit = P("a")
    assert apply_perm_expr(transpose(n, m), lit) == lit


def test_alpha_eq_basic():
    assert alpha_eq(P("<$n.$n>"), P("<$m.$m>"))
    assert not alpha_eq(P("$n"), P("$m"))
    # close names rename together with the binder that bound them
    assert alpha_eq(P("<$m.<$n.$n>$m>"), P("<$x.<$y.$y>$x>"))
    assert not alpha_eq(P("<$m.<$n.$n>$m>"), P("<$m.<$n.$n>>"))


def test_alpha_eq_is_equivalence(rng):
    exprs = [random_nre(rng, size=4) for _ in range(12)]
    for e in exprs:
        assert alpha_eq(e, e)
    for e1 in exprs:
        for e2 in exprs:
            assert alpha_eq(e1, e2) == alpha_eq(e2, e1)
            for e3 in exprs:
                if alpha_eq(e1, e2) and alpha_eq(e2, e3):
                    assert alpha_eq(e1, e3)


def test_alpha_eq_implies_equal_bounded_language(rng, pool3):
    fresh = [name("alpha%d" % i) for i in range(4)]
    checked = 0
    for _ in range(50):
        e = random_nre(rng, size=5)
        e2 = e
        for old in ("x", "y", "z"):
            e2 = rename_bound(e2, name(old), fresh[checked % 4])
        if alpha_eq(e, e2):
            w1 = enumerate_words(compile_expr(e), pool3, 4)
            w2 = enumerate_words(compile_expr(e2), pool3, 4)
            assert w1 == w2, render(e)
        checked += 1


def test_classify_invariant_under_permutation(rng):
    names = [name(x) for x in "nmxyz"]
    for _ in range(30):
        e = random_nre(rng, size=6)
        p = transpose(rng.choice(names), rng.choice(names))
        assert classify(apply_perm_expr(p, e)) is classify(e)


def _unbind_some(rng, e):
    """e with each binder dropped, body kept, at even odds: an open
    expression whose free names include the names those binders bound."""
    if isinstance(e, (Sum, Cat)):
        return type(e)(_unbind_some(rng, e.l), _unbind_some(rng, e.r))
    if isinstance(e, Star):
        return Star(_unbind_some(rng, e.e))
    if isinstance(e, Bind):
        body = _unbind_some(rng, e.body)
        return body if rng.random() < 0.5 else Bind(e.n, body, e.close)
    return e


def test_free_names_equivariant(rng):
    names = [name(x) for x in "xyzw"]
    moved = 0
    for _ in range(60):
        e = _unbind_some(rng, random_nre(rng, size=8))
        free = free_names(e)
        # a free name, when there is one, is one side of the transposition
        p = transpose(rng.choice(sorted(free) or names), rng.choice(names))
        assert free_names(apply_perm_expr(p, e)) == frozenset(p.get(x, x) for x in free)
        moved += any(p.get(x, x) is not x for x in free)
    assert moved >= 10


def test_binder_depth_equals_max_regcount(rng):
    for _ in range(25):
        e = random_nre(rng, size=7)
        a = compile_expr(e)
        assert max(s.regs for s in a.states) == binder_depth(e)


def test_classify_first_degree():
    assert classify_first_degree(P("<$n1.<$n2.($n1+_$n2)*>>")) == 2
    assert classify_first_degree(P("<$n.<$m.$m<$l.$l>>>")) is None
    assert classify_first_degree(P("1")) == 0
    # read-and-store atoms close on a prefix name
    assert classify_first_degree(P("<$n1.(<$x.$x>$n1 $n1)*>")) == 1
    assert classify_first_degree(P("<$n1.<$x.$x a>$n1>")) is None
