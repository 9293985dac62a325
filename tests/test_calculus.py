import itertools
import random
import time

import pytest

import nomre.calculus as calculus
from nomre.automata import enumerate_words
from nomre.calculus import (
    DerivationTree,
    _instances,
    Global,
    Local,
    Neq,
    SchematicWord,
    VOID,
    ctxc_derive,
    derivation_dump,
    flatten_to_neqs,
    language_enumerate,
    language_member,
    lngc_eval,
    lngc_results,
    schematic_member,
    schematic_normalize,
    schematic_words_of,
)
from nomre.compiler import ContextTriple, compile_expr, compile_in_context
from nomre.corpus import ALPHABET, BIG_TEXT, DIAMOND_TEXT, default_pool
from nomre.errors import ContextError, NomreError, ResourceLimitError, ValidationError
from nomre.expr import ONE, Bind, Cat, Lit, Nam, Star, Sum, Under, check_wellformed, parse, render
from nomre.genexpr import corpus_of_classes, random_nre
from nomre.nominal import (
    Chronicle,
    Letter,
    Name,
    is_placeholder,
    name,
    natural_chronicle,
    placeholder,
    sys_name,
)
from nomre.oracle import equal_mod_renaming, forest_language_enumerate

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
    # a negative bound is an error, not a forest without the star's trees,
    # and so is a bound that is not an int (a bool is none)
    for bad in (-1, "2", 1.5, True):
        with pytest.raises(ValidationError, match="star_bound"):
            ctxc_derive(t, bad)
        with pytest.raises(ValidationError, match="star_bound"):
            derivation_dump(Star(Under(n)), star_bound=bad, pre=(n,), post=natural_chronicle((n,)))


def test_ctxc_forest_cap():
    e = P("((1 + a)*)*")
    with pytest.raises(ResourceLimitError):
        ctxc_derive(ContextTriple((), e, ()), 14)


def test_outcome_cap(monkeypatch):
    monkeypatch.setattr(calculus, "_OUTCOME_CAP", 5)
    with pytest.raises(ResourceLimitError, match="schematic outcome set exceeds 5 entries"):
        language_enumerate(P("(a + b)*"), default_pool(3), 4)


def test_calculus_of_a_long_word_is_a_resource_limit():
    # check_wellformed accepts the word, but the evaluators take one or two
    # frames per nesting level, and they report the limit, not a bare
    # RecursionError
    e = P(" ".join(["a"] * 600))
    assert check_wellformed(e).ok
    w = [Letter("a")] * 600
    tree = ctxc_derive(ContextTriple((), e, ()), 0)[0]
    for run in (
        lambda: language_member(e, w),
        lambda: language_enumerate(e, default_pool(1), 600),
        lambda: schematic_words_of(e, maxlen=600),
        lambda: derivation_dump(e, 0),
        lambda: lngc_results(tree),
    ):
        with pytest.raises(ResourceLimitError, match="recursion limit"):
            run()


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


def _placeholders(sw):
    """Every placeholder of sw, those of the word first."""
    atoms = [sw.word] + [(c.l, c.r) if isinstance(c, Neq) else (c.p,) + c.wrt for c in sw.cond]
    return list(dict.fromkeys(x for x in itertools.chain(*atoms) if is_placeholder(x)))


def _like(c, p, wrt):
    """The Local or Global c with p and wrt in place of its own."""
    return Local(p, wrt) if isinstance(c, Local) else Global(p, c.reg, wrt)


def _subst(sw, ren):
    r = lambda x: ren.get(x, x)
    conds = tuple(Neq(r(c.l), r(c.r)) if isinstance(c, Neq)
                  else _like(c, r(c.p), tuple(map(r, c.wrt))) for c in sw.cond)
    return SchematicWord(tuple(map(r, sw.word)), conds)


def _mutants(sw):
    """Copies of sw that no renaming of placeholders makes equal to it: a
    condition dropped, a Global's register raised, a wrt name removed, two
    word placeholders swapped in the word, two placeholders merged."""
    conds = list(sw.cond)
    for i, c in enumerate(conds):
        yield SchematicWord(sw.word, tuple(conds[:i] + conds[i + 1:]))
        if isinstance(c, Global):
            yield SchematicWord(sw.word, tuple(conds[:i] + [Global(c.p, c.reg + 1, c.wrt)] + conds[i + 1:]))
        for j in range(0 if isinstance(c, Neq) else len(c.wrt)):
            fewer = _like(c, c.p, c.wrt[:j] + c.wrt[j + 1:])
            yield SchematicWord(sw.word, tuple(conds[:i] + [fewer] + conds[i + 1:]))
    slots = list(dict.fromkeys(x for x in sw.word if is_placeholder(x)))
    for x, y in itertools.combinations(slots, 2):
        yield SchematicWord(tuple({x: y, y: x}.get(t, t) for t in sw.word), sw.cond)
    for x, y in itertools.combinations(_placeholders(sw), 2):
        yield _subst(sw, {y: x})


def test_equal_mod_renaming_tells_renamed_copies_from_mutants():
    rng = random.Random(16)
    for sw in (_diamond_expected(), _big_expected_structured()):
        phs = _placeholders(sw)
        for _ in range(5):
            # placeholders permuted, conditions shuffled, Neq sides swapped,
            # wrt lists reordered
            images = [placeholder(40 + i) for i in range(len(phs))]
            rng.shuffle(images)
            copy = _subst(sw, dict(zip(phs, images)))
            conds = [Neq(c.r, c.l) if isinstance(c, Neq) else _like(c, c.p, tuple(rng.sample(c.wrt, len(c.wrt))))
                     for c in copy.cond]
            rng.shuffle(conds)
            copy = SchematicWord(copy.word, tuple(conds))
            flat = flatten_to_neqs(copy)
            flat = SchematicWord(flat.word, tuple(Neq(c.r, c.l) for c in reversed(flat.cond)))
            assert equal_mod_renaming(sw, copy) and equal_mod_renaming(copy, sw)
            assert equal_mod_renaming(flatten_to_neqs(sw), flat)
            mutants = list(_mutants(copy))
            assert len(mutants) > 2 * len(sw.cond)
            for bad in mutants:
                assert not equal_mod_renaming(sw, bad), bad
                assert not equal_mod_renaming(bad, sw), bad


def test_equal_mod_renaming_masks_condition_only_placeholders_first():
    # nine placeholders occur only in conditions, so 9! bijections, all of
    # which fail against a mutant that drops a condition or moves a Global to
    # another register; with those placeholders masked the conditions differ
    p, qs = placeholder(1), [placeholder(i) for i in range(2, 11)]
    conds = [Local(q, (p,)) for q in qs] + [Global(q, 1, (p, r)) for q, r in zip(qs[1:], qs)]
    sw = SchematicWord((p,), tuple(conds))
    assert equal_mod_renaming(sw, sw)
    moved = conds[:-1] + [Global(conds[-1].p, 2, conds[-1].wrt)]
    for bad in (SchematicWord((p,), tuple(conds[1:])), SchematicWord((p,), tuple(moved))):
        start = time.perf_counter()
        assert not equal_mod_renaming(sw, bad) and not equal_mod_renaming(bad, sw)
        assert time.perf_counter() - start < 0.5


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
    results = lngc_results(tree)
    owners = []
    for node in _walk(tree):
        sw, _ = results[node]
        if node.rule == "under":
            owners.append(sw.word[0])
        elif node.rule in ("bind=", "bind!="):
            # the abstraction placeholder heads the node's condition list
            owners.append(sw.cond[0].p)
    # every underline and every abstraction introduced its own placeholder
    assert len(owners) == 5
    assert len(owners) == len(set(owners))


def test_lngc_results_stay_per_tree():
    # the two trees share the concatenation's right-hand `_$x` node, which
    # each tree's evaluation numbers differently
    trees = ctxc_derive(ContextTriple((), P("<$x. (1 + _$x) _$x >"), ()), 1)
    results = [lngc_results(t) for t in trees]
    (cat1,), (cat2,) = (t.children for t in trees)
    shared = cat1.children[1]
    assert shared is cat2.children[1]
    assert results[0][cat1][0].word == results[0][shared][0].word == (placeholder(1),)
    assert results[1][shared][0].word == (placeholder(2),)
    assert results[1][cat2][0].word == (placeholder(1), placeholder(2))


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


def test_context_must_not_hold_the_calculus_name_supplies():
    # binder atoms are ~k and placeholders *k, so a context holding either
    # would be captured; such a context is rejected, naming the culprit
    n = name("n")
    sys1, ph1 = sys_name(1), placeholder(1)
    cases = [
        ((sys1,), Cat(Bind(n, Nam(n), n), Nam(sys1)), natural_chronicle((sys1,)), "~1"),
        ((ph1,), Cat(Under(ph1), Nam(ph1)), natural_chronicle((ph1,)), r"\*1"),
        ((n,), Nam(n), (Chronicle((n, sys1), n),), "~1"),
    ]
    for pre, e, post, culprit in cases:
        with pytest.raises(ContextError, match=culprit):
            schematic_words_of(e, pre=pre, post=post, maxlen=3)
        with pytest.raises(ContextError, match=culprit):
            ctxc_derive(ContextTriple(pre, e, post), 2)
        with pytest.raises(ContextError, match=culprit):
            derivation_dump(e, pre=pre, post=post)


_N, _M = name("n"), name("m")


@pytest.mark.parametrize("text, pre, post", [
    ("_$n", (_N, _N), natural_chronicle((_N, _N))),  # repeated pre-context name
    ("<$x.$x>", (_N,), (Chronicle((_N,), _N), Chronicle((_M,), _M))),  # post longer than pre
    ("<$x.$x>", (_N, _M), (Chronicle((_N,), _N),)),  # post shorter than pre
    ("$n", (_N,), ((_N,),)),  # post of tuples, not chronicles
    ("1", ("n",), (Chronicle(("n",), "n"),)),  # pre of strings, not names
    ("$n", (_N,), (Chronicle(("x",), "x"),)),  # post history of strings, not names
    ("$n", (_N,), (Chronicle((_N, "x", Letter("a")), _N),)),  # non-names beside a name
], ids=["repeated-pre", "long-post", "short-post", "not-chronicles", "not-names",
        "post-not-names", "post-mixed"])
def test_every_entry_point_rejects_a_malformed_context(text, pre, post):
    e = P(text)
    with pytest.raises(ContextError):
        schematic_words_of(e, pre=pre, post=post, maxlen=2)
    with pytest.raises(ContextError):
        ctxc_derive(ContextTriple(pre, e, post), 2)
    with pytest.raises(ContextError):
        derivation_dump(e, pre=pre, post=post)
    with pytest.raises(ContextError):
        compile_in_context(ContextTriple(pre, e, post))


@pytest.mark.parametrize("text", ["$z", "_$z", "0 $z", "a $z", "$z*"])
def test_a_read_outside_the_context_is_rejected(text):
    # whatever the bound, and whether or not a derivation reaches the read
    e, pre, post = P(text), (_N,), natural_chronicle((_N,))
    for bound in (0, 1, 2):
        with pytest.raises(ContextError, match=r"free name \$z"):
            schematic_words_of(e, pre=pre, post=post, maxlen=bound)
        with pytest.raises(ContextError, match=r"free name \$z"):
            ctxc_derive(ContextTriple(pre, e, post), bound)
    with pytest.raises(ContextError, match=r"free name \$z"):
        compile_in_context(ContextTriple(pre, e, post))


def test_close_name_must_be_a_current_value_in_both_semantics():
    m, z = name("m"), name("z")
    t = ContextTriple((m,), P("<$n.$n>$m"), (Chronicle((m, z), z),))
    with pytest.raises(ContextError, match="close name"):
        compile_in_context(t)
    with pytest.raises(ContextError, match="close name"):
        ctxc_derive(t, 2)
    with pytest.raises(ContextError, match="close name"):
        schematic_words_of(t.payload, pre=t.pre, post=t.post)
    # a close name that only the post-context holds names that register
    e = P("<$n.$n>$z")
    (close,) = [lab for _, lab, _ in compile_in_context(ContextTriple((m,), e, t.post)).transitions
                if lab.kind == "close"]
    assert close.index == 1
    assert schematic_words_of(e, pre=(m,), post=t.post, maxlen=1)
    # a close name that neither context holds fails whatever the bound
    for text in ("0 <$y.$y>$z", "(<$y.$y>$z)*"):
        with pytest.raises(ContextError, match=r"close name \$z"):
            schematic_words_of(P(text), maxlen=0)
        with pytest.raises(ContextError, match=r"close name \$z"):
            derivation_dump(P(text), star_bound=0)


def _verdicts(t):
    """Whether each entry point accepts the triple (True), or else the class
    of the error it rejects it with; a resource limit propagates."""
    calls = [lambda: compile_in_context(t)]
    calls += [lambda b=b: ctxc_derive(t, b) for b in (0, 1, 2)]
    calls += [lambda n=n: schematic_words_of(t.payload, t.pre, t.post, maxlen=n) for n in (0, 2, 4)]
    calls.append(lambda: derivation_dump(t.payload, star_bound=0, pre=t.pre, post=t.post))
    out = []
    for call in calls:
        try:
            call()
            out.append(True)
        except ResourceLimitError:
            raise
        except NomreError as exc:
            out.append(type(exc))
    return out


_Z = name("z")
_AT_Z = (Chronicle((_M, _Z), _Z),)  # pre ($m,), post {$m $z @ $z}


@pytest.mark.parametrize("text, legal", [
    ("<$n.$n>$m a", True),  # after a Cat's left: the pre-context's names
    ("<$n.$n>$z a", False),
    ("(<$n.$n>$z)* <$k.$k>$z", False),  # inside a star: both contexts
    ("(<$n.$n>$m)*", False),
    ("0 <$n.$n>$z", True),  # in tail position: the post's current values
    ("0 <$n.$n>$m", False),
    ("<$k.(<$n.$n>$k)* a>", True),  # bound by an enclosing binder: always
    ("<$k.<$n.$n>$k a>", True),
], ids=["cat-left", "cat-left-post-only", "star-pre-missing", "star-post-missing",
        "tail", "tail-pre-only", "bound-in-star", "bound-after-cat"])
def test_close_name_legality_by_position(text, legal):
    assert _verdicts(ContextTriple((_M,), P(text), _AT_Z)) == [True if legal else ContextError] * 8


_CTX = [name(x) for x in ("m", "z", "w")]
_BINDERS = [name(x) for x in ("x", "y", "k")]


def _open_nre(rng, pre, env=(), budget=5):
    """A random expression with binder nesting <= 3 whose reads are mostly
    of pre or of its enclosing binders, and whose permuting binders close on
    an enclosing binder or on one of $m $z $w."""
    picks = ["lit", "one"]
    if budget > 1:
        picks += ["sum", "cat", "cat", "star"]
    if env or pre:
        picks += ["name", "under"]
    if len(env) < 3:
        picks += ["bind"] * 3
    pick = rng.choice(picks)
    if pick in ("lit", "one"):
        return Lit(rng.choice((A, Letter("b")))) if pick == "lit" else ONE
    if pick in ("name", "under"):
        n = rng.choice(_CTX if rng.random() < 0.05 else list(env) + list(pre))
        return Nam(n) if pick == "name" else Under(n)
    if pick == "star":
        return Star(_open_nre(rng, pre, env, budget - 1))
    if pick in ("sum", "cat"):
        cut = budget // 2
        l, r = _open_nre(rng, pre, env, cut), _open_nre(rng, pre, env, budget - cut)
        return Sum(l, r) if pick == "sum" else Cat(l, r)
    n = _BINDERS[len(env)]
    close = n if rng.random() < 0.4 else rng.choice(list(env) + _CTX)
    return Bind(n, _open_nre(rng, pre, env + (n,), budget - 1), close)


def test_every_entry_point_agrees_on_context_legality():
    # the compiler and both calculus evaluators, at every bound, give one
    # verdict on a triple, and reject it with one error class, however far
    # a derivation gets
    rng = random.Random(17)
    seen = set()
    for _ in range(3000):
        pre = tuple(rng.sample(_CTX, rng.randint(0, 2)))
        post, taken = [], set(pre)
        for c in natural_chronicle(pre):
            if rng.random() < 0.5:
                cv = rng.choice([n for n in _CTX + [name("u")] if n not in taken])
                taken.add(cv)
                c = Chronicle(c.hist + (cv,), cv)
            post.append(c)
        t = ContextTriple(pre, _open_nre(rng, pre, budget=rng.randint(2, 6)), tuple(post))
        try:
            verdicts = _verdicts(t)
        except ResourceLimitError:
            continue
        assert len(set(verdicts)) == 1, (t, verdicts)
        seen.add(verdicts[0])
    assert seen == {True, ContextError}


def test_language_of_an_open_or_ill_formed_expression_is_an_error(pool3):
    for text, why in (("$n a", r"free name \$n"), ("<$n. _$m>", r"free name \$m")):
        with pytest.raises(ContextError, match=why):
            language_enumerate(P(text), pool3, 3)
        with pytest.raises(ContextError, match=why):
            language_member(P(text), (A,))


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


def test_language_enumerate_nested_binders_under_stars(pool3):
    # placeholders left only in post histories must not multiply outcomes
    e = P("<$x.<$y.<$z.$z* + 1*>*>*>")
    words = language_enumerate(e, pool3, 5)
    assert words == enumerate_words(compile_expr(e), pool3, 5)
    assert len(words) == 364


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


def test_stars_unfold_to_their_fixpoint(pool3):
    # <$y.1>$x renames x without reading, so a word of length 4 can take
    # more than five unfoldings of the star; the calculus must not stop at
    # a bound taken from the word length
    r1, r2 = pool3[:2]
    for text, count in (("<$x.($x + <$y.1>$x)*>", 121), ("<$x.(<$y.1>$x + $x)* $x>", 120)):
        e = P(text)
        words = language_enumerate(e, pool3, 4)
        assert words == enumerate_words(compile_expr(e), pool3, 4)
        assert len(words) == count
        assert language_member(e, (r1, r1, r2, r1))
    for text in ("ab<$n._$n*>", "<$m.(<$n.$n>$m)*>", "(a + <$n.$n>)*"):
        e = P(text)
        assert language_enumerate(e, pool3, 3) == enumerate_words(compile_expr(e), pool3, 3)


def test_cat_associative_at_language_level(rng, pool3):
    from nomre.expr import Cat

    for _ in range(10):
        e1, e2, e3 = (random_nre(rng, size=3) for _ in range(3))
        l = language_enumerate(Cat(Cat(e1, e2), e3), pool3, 4)
        r = language_enumerate(Cat(e1, Cat(e2, e3)), pool3, 4)
        assert l == r


def test_concat_map_is_positional(monkeypatch, pool3, corpus_exprs):
    # _concat renames the right outcome by pre[i] -> hcv(left post)[i] alone:
    # exact because the left's current values off the pre-context and the
    # right's names off it are placeholders, the right's above the left's
    concat = calculus._concat
    calls = [0]

    def checked(left, right, pre, shift):
        ph = [x.key for x in calculus._atoms(*left) if is_placeholder(x)]
        for ch in left[2]:
            assert ch.cv in pre or is_placeholder(ch.cv), (left, pre)
        for x in calculus._atoms(*right):
            if isinstance(x, Name):
                assert x in pre or is_placeholder(x), (right, pre)
                if is_placeholder(x):
                    assert x.key + shift > max(ph, default=0), (left, right, shift)
        calls[0] += 1
        return concat(left, right, pre, shift)

    monkeypatch.setattr(calculus, "_concat", checked)
    for e in list(corpus_exprs.values()) + corpus_of_classes(seed=7, total=60):
        language_enumerate(e, pool3, 4)
        derivation_dump(e, star_bound=1)
    assert calls[0] > 1000


def test_forest_agrees_with_fused(rng, pool3, corpus_exprs, oracle_pools):
    # the forest oracle binds every placeholder to every pool name, where
    # the fused enumerator expands one instance per renaming class
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
    for key in ("lses", "lonet", "succ_distinct", "diamond", "big"):
        e = corpus_exprs[key]
        for pool in oracle_pools:
            maxlen = 7 if pool == default_pool(4) else 5
            assert forest_language_enumerate(e, pool, maxlen) == language_enumerate(e, pool, maxlen), key
    checked = 0
    for i, e in enumerate(corpus_of_classes(seed=101, total=200)[::8]):
        pool = oracle_pools[i % len(oracle_pools)]
        try:
            a = forest_language_enumerate(e, pool, 3)
        except ResourceLimitError:
            continue
        checked += 1
        assert a == language_enumerate(e, pool, 3), render(e)
    assert checked >= 40


def test_instances_give_one_word_per_orbit(pool3):
    # each placeholder takes a name already bound or the next unused one
    reps = [
        w
        for sw in schematic_words_of(P("<$x._$x*>"), maxlen=5)
        for w in _instances(sw.word, sw.cond, pool3)
    ]
    assert sorted(reps, key=len) == [pool3[:n] for n in range(4)]
    assert len(language_enumerate(P("<$x._$x*>"), pool3, 5)) == 1 + 3 + 6 + 6


def test_permutation_closure_of_language(rng, pool3, corpus_exprs):
    from nre_helpers import apply_perm_word

    extra = [name("g%d" % i) for i in range(3)]
    universe = list(pool3) + extra
    for key in ("lses", "diamond", "succ_distinct"):
        e = corpus_exprs[key]
        for w in sorted(language_enumerate(e, pool3, 4), key=lambda w: (len(w), repr(w)))[:25]:
            for _ in range(4):
                tgt = universe[:]
                rng.shuffle(tgt)
                p = dict(zip(universe, tgt))
                assert language_member(e, apply_perm_word(p, w))


def test_derivation_dump_mentions_rules():
    text = derivation_dump(P(DIAMOND_TEXT))
    assert "(bind!=)" in text and "(n_)" in text
    assert "schematic:" in text and "inequations:" in text
    text = derivation_dump(P("<$x._$x*>"), star_bound=2)
    assert all("(star h=%d)" % h in text for h in (0, 1, 2))
    assert "(star h=3)" not in text
