from concurrent.futures import ProcessPoolExecutor
import copy
import itertools
import multiprocessing
import pickle
import random
import sys
import threading

import pytest

from nomre.automata import accept, enumerate_words, word_sort_key
from nomre.calculus import schematic_words_of
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
from nomre.expr import ONE, ContextTriple, apply_perm_expr, parse
from nomre.oracle import canonical_fresh
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
