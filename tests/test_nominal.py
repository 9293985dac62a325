from concurrent.futures import ProcessPoolExecutor
import copy
import itertools
import multiprocessing
import pickle
import random
import sys
import threading

import pytest

from nomre.automata import Cda, CdaClass, ClassInfo, Label, State, accept, enumerate_words, word_sort_key
from nomre.calculus import DerivationTree, Global, Local, Neq, SchematicWord, schematic_words_of
from nomre.compiler import compile_expr
from nomre.corpus import ALPHABET, LSES_TEXT, LTHS_TEXT, default_pool
from nomre.nominal import (
    Chronicle,
    Letter,
    hcv,
    name,
    natural_chronicle,
    placeholder,
    sys_name,
    transpose,
)
from nomre.errors import ValidationError
from nomre.expr import (
    ONE,
    Bind,
    Cat,
    ContextTriple,
    Issue,
    Lit,
    Nam,
    One,
    Star,
    Sum,
    Under,
    Zero,
    apply_perm_expr,
    check_wellformed,
    parse,
)
from nomre.oracle import Configuration, canonical_fresh
from nre_helpers import apply_perm_word

n, m, k = name("n"), name("m"), name("k")
a, b, c = name("a"), name("b"), name("c")


def test_transpose_degenerate_is_identity():
    assert transpose(n, n) == {}


def test_transpose_swaps_and_fixes():
    p = transpose(n, m)
    assert p == {n: m, m: n}
    assert p.get(k, k) is k


def test_perm_inverse_roundtrip():
    # a renaming dict is a bijection on its keys, so swapping keys and
    # values inverts it, off its keys as well
    rng = random.Random(7)
    names = [name("x%d" % i) for i in range(8)]
    for _ in range(50):
        shuffled = names[:]
        rng.shuffle(shuffled)
        p = dict(zip(names, shuffled))
        q = {v: k for k, v in p.items()}
        for x in names + [name("outside")]:
            assert q.get(p.get(x, x), x) is x


def test_perm_compose_action_on_words():
    # acting by q then p is acting by their composite dict
    rng = random.Random(9)
    names = [name("y%d" % i) for i in range(5)]
    for _ in range(30):
        s1, s2 = names[:], names[:]
        rng.shuffle(s1)
        rng.shuffle(s2)
        p = dict(zip(names, s1))
        q = dict(zip(names, s2))
        pq = {x: p.get(q.get(x, x), q.get(x, x)) for x in set(p) | set(q)}
        w = tuple(rng.choice(names) for _ in range(6))
        assert apply_perm_word(p, apply_perm_word(q, w)) == apply_perm_word(pq, w)


def test_renaming_helpers_take_names_only():
    for bad in ("a", Letter("a"), None):
        with pytest.raises(ValidationError, match="maps names to names"):
            transpose(bad, b)
        with pytest.raises(ValidationError, match="maps names to names"):
            transpose(a, bad)
        for renaming in ({n: bad}, {bad: n}):
            with pytest.raises(ValidationError, match="maps names to names"):
                apply_perm_expr(renaming, parse("<$n.$n>"))


def test_apply_perm_expr_rejects_a_non_injective_renaming():
    # with the identity off its keys, each of these sends two names to one,
    # so <$n.$n $m> would capture $m
    e = parse("<$n.$n $m>")
    for bad in ({n: m}, {n: k, m: k}, {n: m, m: m}, [(n, m)]):
        with pytest.raises(ValidationError):
            apply_perm_expr(bad, e)
    assert apply_perm_expr({n: m, m: n}, e) == parse("<$m.$m $n>")


def test_apply_perm_word():
    la = Letter("a")
    w = (la, name("n1"), name("n2"))
    assert apply_perm_word({}, w) == w
    p = transpose(name("n1"), name("n2"))
    assert apply_perm_word(p, (name("n1"), name("n2"), name("n1"))) == (
        name("n2"),
        name("n1"),
        name("n2"),
    )
    assert apply_perm_word(p, (la, Letter("b"))) == (la, Letter("b"))


def test_chronicle_cv_must_be_in_history():
    with pytest.raises(ValueError):
        Chronicle((a,), b)
    with pytest.raises(ValueError):
        Chronicle((), a)


def test_canonical_fresh_sequence():
    assert canonical_fresh(set()) is sys_name(0)
    assert canonical_fresh({sys_name(0)}) is sys_name(1)


def test_canonical_fresh_avoids():
    rng = random.Random(1)
    for _ in range(100):
        avoid = {sys_name(rng.randint(0, 20)) for _ in range(rng.randint(0, 15))}
        avoid |= {name("u%d" % rng.randint(0, 5)) for _ in range(3)}
        assert canonical_fresh(avoid) not in avoid


def test_natural_chronicle_suffixes():
    nat = natural_chronicle((a, b, c))
    assert [x.hist for x in nat] == [(a, b, c), (b, c), (c,)]
    assert hcv(nat) == (a, b, c)
    # the natural chronicle is extant: it fits its pre-context
    assert ContextTriple((a, b, c), ONE, nat).post == nat


def test_name_ordering_is_total_and_stable():
    xs = [name("b"), name("a"), sys_name(1), sys_name(0)]
    assert sorted(xs, key=lambda x: x.sort_key()) == [name("a"), name("b"), sys_name(0), sys_name(1)]


def test_interning_is_thread_safe():
    # a tiny switch interval makes threads interleave inside the constructors
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(100):
            spellings = ["race%d_%d" % (trial, i) for i in range(200)]
            barrier = threading.Barrier(8)
            got = [None] * 8

            def intern(slot):
                barrier.wait()
                got[slot] = [(name(s), Letter(s)) for s in spellings]

            threads = [threading.Thread(target=intern, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for objs in got[1:]:
                assert all(x is y and u is v for (x, u), (y, v) in zip(got[0], objs))
    finally:
        sys.setswitchinterval(old)


def _copies(x):
    return pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)


def test_atoms_pickle_and_copy_to_the_interned_object():
    for x in (name("x"), sys_name(3), placeholder(2), Letter("a")):
        assert all(y is x for y in _copies(x))
    # values that hold atoms come back equal, and an automaton's run index,
    # keyed by letters, still finds the letters of a word
    e = parse(LTHS_TEXT, ALPHABET)
    a = compile_expr(e)
    before = _copies(a)
    words = sorted(enumerate_words(a, default_pool(3), 5), key=word_sort_key)
    words += [w[::-1] for w in words]
    after = _copies(a)
    assert all("_run_index" in vars(b) for b in after)
    sws = schematic_words_of(parse(LSES_TEXT, ALPHABET), maxlen=4)
    chron = Chronicle((n, m), m)
    for value, copies in ((e, _copies(e)), (a, before), (a, after), (sws, _copies(sws)),
                          (chron, _copies(chron))):
        assert all(y == value for y in copies)
    want = [accept(a, w) for w in words]
    assert True in want and False in want
    for b in before + after:
        assert [accept(b, w) for w in words] == want
    # a fresh interpreter interns the atoms of what it unpickles anew
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        assert list(pool.map(accept, itertools.repeat(after[0]), words, timeout=120)) == want


def _value_samples():
    """One value of each immutable value class, with the repr it had when
    the classes were dataclasses."""
    la, p = Letter("a"), placeholder(1)
    lit = Lit(la)
    return [
        (Chronicle((n, m), m), "{$n $m @ $m}"),
        (One(), "One()"),
        (Zero(), "Zero()"),
        (lit, "Lit(s=a)"),
        (Nam(n), "Nam(n=$n)"),
        (Under(n), "Under(n=$n)"),
        (Sum(lit, Nam(n)), "Sum(l=Lit(s=a), r=Nam(n=$n))"),
        (Cat(lit, Nam(n)), "Cat(l=Lit(s=a), r=Nam(n=$n))"),
        (Star(lit), "Star(e=Lit(s=a))"),
        (Bind(n, Nam(n), m), "Bind(n=$n, body=Nam(n=$n), close=$m)"),
        (ContextTriple((n,), lit, (Chronicle((n,), n),)),
         "ContextTriple(pre=($n,), payload=Lit(s=a), post=({$n @ $n},))"),
        (Issue("scope-condition", "<$n.$n>$m", "why"),
         "Issue(kind='scope-condition', subterm='<$n.$n>$m', detail='why')"),
        (check_wellformed(Bind(n, Nam(n), m)),
         "WfReport(ok=False, issues=(Issue(kind='scope-condition', subterm='<$n.$n>$m', "
         "detail='close name $m is not bound by an enclosing binder'),), free=frozenset({$m}), "
         "nre_class=<NreClass.P: 'p-NRE'>, free_reads=frozenset(), closes_in_pre=frozenset(), "
         "closes_in_post=frozenset({$m}))"),
        (Label("letter", letter=la), "a"),
        (Label("reg", index=1), "r1"),
        (Label("bogus", index=True), "Label('bogus', letter=None, index=True)"),
        (State("q0", 0), "State(id='q0', regs=0, final=False)"),
        (Cda((State("q0", 0, True),), "q0", ()),
         "Cda(states=(State(id='q0', regs=0, final=True),), initial='q0', transitions=())"),
        (ClassInfo(CdaClass.A), "ClassInfo(tag=<CdaClass.A: 'A#'>)"),
        (Neq(n, p), "$n != *1"),
        (Local(p, (n,)), "*1 # $n"),
        (Global(p, 1, (n, m)), "*1 #_1 $n $m"),
        (SchematicWord((la, n), (Neq(n, m),)), "[[ a $n | $n != $m ]]"),
        (SchematicWord((), (), True), "[[ - | absurd ]]"),
        (DerivationTree("one", (), ONE, ()),
         "DerivationTree(rule='one', pre=(), expr=One(), post=(), children=(), h=None)"),
        (Configuration("q0", 0, (Chronicle((n,), n),)),
         "Configuration(state='q0', pos=0, extant=({$n @ $n},))"),
    ]


def test_values_are_immutable_and_compare_hash_print_and_copy_by_their_fields():
    samples = _value_samples()
    assert len({type(v) for v, _ in samples}) == 23
    for v, text in samples:
        cls = type(v)
        fields = [f for f in cls.__slots__ if f != "__dict__"]
        values = tuple(getattr(v, f) for f in fields)
        assert repr(v) == text
        for f in fields + ["other"]:
            with pytest.raises(AttributeError):
                setattr(v, f, None)
            with pytest.raises(AttributeError):
                delattr(v, f)
        assert tuple(getattr(v, f) for f in fields) == values
        twin = cls(*values)
        if cls is DerivationTree:
            # a derivation node compares and hashes by identity
            assert twin != v and hash(twin) != hash(v)
            assert all(repr(y) == text for y in _copies(v))
            continue
        assert twin == v and not twin != v and hash(twin) == hash(v) == hash(values)
        assert all(y == v and hash(y) == hash(v) for y in _copies(v))
    # the class is part of the value: equal fields in two classes differ
    lit, x = Lit(Letter("a")), Nam(n)
    for u, w in ((Sum(lit, x), Cat(lit, x)), (Nam(n), Under(n)), (One(), Zero()),
                 (Local(n, (m,)), Neq(n, (m,))), (ClassInfo(n), Star(n))):
        assert u != w and w != u and hash(u) == hash(w)
    # an interned atom is shared by every holder, so it loses no field either
    for x in (n, Letter("a")):
        for f in type(x).__slots__:
            with pytest.raises(AttributeError):
                delattr(x, f)
        assert x is _copies(x)[0]
