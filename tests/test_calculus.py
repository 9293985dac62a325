import itertools
import random

import pytest

from nomre.automata import enumerate_words
from nomre.calculus import (
    DerivationTree,
    Global,
    Local,
    Neq,
    SchematicWord,
    VOID,
    ctxc_derive,
    derivation_dump,
    equal_mod_renaming,
    flatten_to_neqs,
    forest_language_enumerate,
    language_enumerate,
    language_member,
    lngc_eval,
    schematic_member,
    schematic_normalize,
    schematic_words_of,
)
from nomre.compiler import ContextTriple, compile_expr
from nomre.corpus import ALPHABET, BIG_TEXT, DIAMOND_TEXT, default_pool
from nomre.errors import ResourceLimitError
from nomre.expr import ONE, Star, Under, parse
from nomre.genexpr import random_nre
from nomre.nominal import (
    Letter,
    chronicle,
    name,
    natural_chronicle,
    placeholder,
    sys_name,
)

A = Letter("a")


def P(text):
    return parse(text, ALPHABET)


def _derive_single(e):
    trees = ctxc_derive(ContextTriple((), e, ()), 2)
    assert len(trees) == 1
    return trees[0]


def _walk(node):
    yield node
    for c in node.children:
        yield from _walk(c)


def test_ctxc_diamond_tree_reproduces_contexts():
    tree = _derive_single(P(DIAMOND_TEXT))
    rules = sorted(n.rule for n in _walk(tree))
    assert rules == ["bind!=", "bind=", "bind=", "cat", "cat", "name", "under", "under"]
    x0, x1, x2 = sys_name(0), sys_name(1), sys_name(2)
    # the permuting binder's body sees the third register holding the old
    # close name and the close name's register holding the new atom
    neq = next(n for n in _walk(tree) if n.rule == "bind!=")
    (leaf,) = neq.children
    assert leaf.rule == "name"
    assert leaf.pre == (x0, x1, x2)
    assert [c.hist for c in leaf.post] == [(x0, x1, x2), (x1, x2), (x2, x1)]
    assert [c.cv for c in leaf.post] == [x0, x2, x1]
    # the two underline leaves live in the singleton context
    unders = [n for n in _walk(tree) if n.rule == "under"]
    assert all(u.pre == (x0,) for u in unders)


def test_ctxc_one_is_single_node():
    tree = _derive_single(ONE)
    assert tree.rule == "one" and tree.children == ()


def test_ctxc_star_unfolding_counts():
    n = name("n")
    t = ContextTriple((n,), Star(Under(n)), natural_chronicle((n,)))
    trees = ctxc_derive(t, 2)
    assert [tr.h for tr in trees] == [0, 1, 2]
    assert len(trees) == 3


def test_ctxc_forest_cap():
    e = P("((1 + a)*)*")
    with pytest.raises(ResourceLimitError):
        ctxc_derive(ContextTriple((), e, ()), 14)


from golden_data import big_expected_neqs, big_expected_structured, diamond_expected

_diamond_expected = diamond_expected


def test_lngc_diamond_golden():
    tree = _derive_single(P(DIAMOND_TEXT))
    sw = lngc_eval(tree)
    assert equal_mod_renaming(sw, _diamond_expected())


_big_expected_word_and_neqs = big_expected_neqs
_big_expected_structured = big_expected_structured


def test_lngc_appendix_golden():
    tree = _derive_single(P(BIG_TEXT))
    sw = lngc_eval(tree)
    assert equal_mod_renaming(sw, _big_expected_structured())
    flat = flatten_to_neqs(schematic_normalize(sw))
    expected = flatten_to_neqs(_big_expected_word_and_neqs())
    assert len(flat.cond) == 13
    assert equal_mod_renaming(flat, expected)


def test_lngc_zero_annihilates(pool3):
    tree = _derive_single(P("0 a"))
    assert lngc_eval(tree).void
    assert language_enumerate(P("<$n.0>"), pool3, 3) == set()


def test_lngc_eval_deterministic():
    t1 = _derive_single(P(BIG_TEXT))
    t2 = _derive_single(P(BIG_TEXT))
    a = schematic_normalize(lngc_eval(t1))
    b = schematic_normalize(lngc_eval(t2))
    assert a == b


def test_lngc_placeholder_freshness():
    tree = _derive_single(P(DIAMOND_TEXT))
    lngc_eval(tree)
    owners = []
    for node in _walk(tree):
        sw, _ = node.result
        if node.rule == "under":
            owners.append(sw.word[0])
        elif node.rule in ("bind=", "bind!="):
            # the abstraction placeholder heads the node's condition list
            owners.append(sw.cond[0].p)
    # every underline and every abstraction introduced its own placeholder
    assert len(owners) == 5
    assert len(owners) == len(set(owners))


def test_schematic_member_basics(pool3):
    p1, p2 = placeholder(1), placeholder(2)
    sw = SchematicWord((p1, p2), (Neq(p1, p2),))
    r1, r2 = pool3[0], pool3[1]
    assert schematic_member(sw, (r1, r2))
    assert not schematic_member(sw, (r1, r1))
    assert not schematic_member(sw, (r1,))
    assert not schematic_member(sw, (A, r1))
    assert not schematic_member(VOID, ())


def test_schematic_member_diamond(pool3):
    sw = _diamond_expected()
    r1, r2, r3 = pool3
    assert schematic_member(sw, (r1, r2, r3))
    assert not schematic_member(sw, (r1, r2, r2))  # third must differ from second
    assert not schematic_member(sw, (r1, r2, r1))  # and from the first
    assert not schematic_member(sw, (r1, r1, r2))


def test_schematic_member_appendix_shape(pool3):
    sw = _big_expected_word_and_neqs()
    r1, r2, r3 = pool3
    extra = [name("k%d" % i) for i in range(4)]
    ws = (r1, r2, r3, r3, extra[0], extra[1], extra[2])
    assert schematic_member(sw, ws)
    broken = (r1, r2, r3, extra[3], extra[0], extra[1], extra[2])
    assert not schematic_member(sw, broken)  # positions 3 and 4 must agree


def test_language_member_lses(pool3):
    e = P("ab<$n._$n*>")
    r1, r2 = pool3[0], pool3[1]
    B = Letter("b")
    assert language_member(e, (A, B, r1, r2))
    assert not language_member(e, (A, B, r1, r1))
    assert language_member(e, (A, B))
    assert not language_member(e, (A,))


def test_open_context_schematic_word(pool3):
    n = name("n")
    e = P("$n <$n.$n> $n")
    sws = schematic_words_of(e, pre=(n,), post=natural_chronicle((n,)), maxlen=3)
    assert len(sws) == 1
    sw = schematic_normalize(sws[0])
    p = placeholder(1)
    assert equal_mod_renaming(sw, SchematicWord((n, p, n), (Local(p, (n,)),)))
    r1 = pool3[0]
    assert schematic_member(sw, (n, r1, n))
    assert not schematic_member(sw, (n, n, n))


def test_language_enumerate_succ_distinct(pool3):
    e = P("<$m.(<$n.$n>$m)*>")
    words = language_enumerate(e, pool3, 3)
    exact3 = {w for w in words if len(w) == 3}
    assert len(exact3) == 12
    brute = {
        w for w in itertools.product(pool3, repeat=3)
        if all(w[i] is not w[i + 1] for i in range(2))
    }
    assert exact3 == brute


def test_normalize_idempotent(rng, pool3):
    seen = 0
    for _ in range(40):
        e = random_nre(rng, size=5)
        for sw in schematic_words_of(e, maxlen=4):
            n1 = schematic_normalize(sw)
            assert schematic_normalize(n1) == n1
            seen += 1
            if seen >= 200:
                return
    assert seen > 50


def test_normalize_canonical_fixed_point():
    p1, p2 = placeholder(1), placeholder(2)
    sw = SchematicWord((p1, p2), (Local(p1, (p2,)),))
    assert schematic_normalize(sw) == sw


def test_normalize_dedups_and_drops_vacuous():
    p1, p2 = placeholder(1), placeholder(2)
    raw = SchematicWord((p1, p2), (Local(p1, (p2, p2)), Local(p2, ())))
    n = schematic_normalize(raw)
    assert n.cond == (Local(p1, (p2,)),)


def test_star_bound_stability(pool3):
    for text in ("ab<$n._$n*>", "<$m.(<$n.$n>$m)*>", "(a + <$n.$n>)*"):
        e = P(text)
        base = language_enumerate(e, pool3, 3)
        bigger = set()
        for sw in schematic_words_of(e, maxlen=3, star_bound=6):
            slots = []
            for x in sw.word:
                if x not in slots and not isinstance(x, Letter) and x.kind == 2:
                    slots.append(x)
            for choice in itertools.product(pool3, repeat=len(slots)):
                binding = dict(zip(slots, choice))
                from nomre.calculus import _cond_ok

                if all(_cond_ok(c, binding) for c in sw.cond):
                    bigger.add(tuple(binding.get(x, x) for x in sw.word))
        assert bigger == base


def test_cat_associative_at_language_level(rng, pool3):
    from nomre.expr import Cat

    for _ in range(10):
        e1, e2, e3 = (random_nre(rng, size=3) for _ in range(3))
        l = language_enumerate(Cat(Cat(e1, e2), e3), pool3, 4)
        r = language_enumerate(Cat(e1, Cat(e2, e3)), pool3, 4)
        assert l == r


def test_forest_agrees_with_fused(rng, pool3, corpus_exprs):
    checked = 0
    for _ in range(25):
        e = random_nre(rng, size=4)
        try:
            a = forest_language_enumerate(e, pool3, 3)
        except ResourceLimitError:
            continue
        checked += 1
        assert a == language_enumerate(e, pool3, 3)
    assert checked >= 10
    # diamond and big extend relative-global conditions across permuting
    # closes; lths exceeds the forest cap
    pool4 = default_pool(4)
    for key in ("lses", "lonet", "succ_distinct", "diamond", "big"):
        e = corpus_exprs[key]
        assert forest_language_enumerate(e, pool4, 7) == language_enumerate(e, pool4, 7), key


def test_permutation_closure_of_language(rng, pool3, corpus_exprs):
    from nomre.nominal import apply_perm_word, perm_from_lists

    extra = [name("g%d" % i) for i in range(3)]
    universe = list(pool3) + extra
    for key in ("lses", "diamond", "succ_distinct"):
        e = corpus_exprs[key]
        for w in sorted(language_enumerate(e, pool3, 4), key=lambda w: (len(w), repr(w)))[:25]:
            for _ in range(4):
                tgt = universe[:]
                rng.shuffle(tgt)
                p = perm_from_lists(universe, tgt)
                assert language_member(e, apply_perm_word(p, w))


def test_derivation_dump_mentions_rules():
    text = derivation_dump(P(DIAMOND_TEXT))
    assert "(bind!=)" in text and "(n_)" in text
    assert "schematic:" in text and "inequations:" in text
