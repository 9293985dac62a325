import random
import sys
import threading

import pytest

from nomre.nominal import (
    Chronicle,
    IDENTITY,
    Letter,
    apply_perm_word,
    canonical_fresh,
    chronicle,
    check_extant,
    extant_delete,
    extant_extend,
    hcv,
    name,
    natural_chronicle,
    perm_from_lists,
    sys_name,
    transpose,
)

n, m, k = name("n"), name("m"), name("k")
a, b, c = name("a"), name("b"), name("c")


def test_transpose_degenerate_is_identity():
    assert transpose(n, n) is IDENTITY or transpose(n, n).is_identity()


def test_transpose_swaps_and_fixes():
    p = transpose(n, m)
    assert p(n) is m
    assert p(m) is n
    assert p(k) is k


def test_perm_from_lists_empty():
    assert perm_from_lists([], []).is_identity()


def test_perm_from_lists_singleton_completion():
    p = perm_from_lists([a], [b])
    assert p(a) is b
    assert p(b) is a


def test_perm_from_lists_cycle_completion():
    # the unique deterministic completion on the 3-element support
    p = perm_from_lists([a, b], [b, c])
    assert p(a) is b and p(b) is c and p(c) is a
    # brute-force check: restriction to [a, b] is exactly the positional map
    # and the whole thing is a bijection on {a, b, c}
    imgs = {p(x) for x in (a, b, c)}
    assert imgs == {a, b, c}


def test_perm_from_lists_errors():
    with pytest.raises(ValueError):
        perm_from_lists([a], [b, c])
    with pytest.raises(ValueError):
        perm_from_lists([a, a], [b, c])


def test_apply_perm_word():
    la = Letter("a")
    w = (la, name("n1"), name("n2"))
    assert apply_perm_word(IDENTITY, w) == w
    p = transpose(name("n1"), name("n2"))
    assert apply_perm_word(p, (name("n1"), name("n2"), name("n1"))) == (
        name("n2"),
        name("n1"),
        name("n2"),
    )
    assert apply_perm_word(p, (la, Letter("b"))) == (la, Letter("b"))


def test_perm_inverse_roundtrip():
    rng = random.Random(7)
    names = [name("x%d" % i) for i in range(8)]
    for _ in range(50):
        shuffled = names[:]
        rng.shuffle(shuffled)
        p = perm_from_lists(names, shuffled)
        q = p.inverse()
        for x in names + [name("outside")]:
            assert q(p(x)) is x


def test_perm_compose_action_on_words():
    rng = random.Random(9)
    names = [name("y%d" % i) for i in range(5)]
    for _ in range(30):
        s1, s2 = names[:], names[:]
        rng.shuffle(s1)
        rng.shuffle(s2)
        p = perm_from_lists(names, s1)
        q = perm_from_lists(names, s2)
        w = tuple(rng.choice(names) for _ in range(6))
        assert apply_perm_word(p, apply_perm_word(q, w)) == apply_perm_word(p.compose(q), w)


def test_chronicle_extend():
    s = chronicle([n], n)
    assert s.extend(()) is s
    s2 = chronicle([a, b], a).extend([c])
    assert s2.hist == (a, b, c)
    assert s2.cv is a
    ext = (chronicle([a], a), chronicle([b], b))
    ext2 = extant_extend(ext, [n])
    assert [x.hist for x in ext2] == [(a, n), (b, n)]
    assert hcv(ext2) == (a, b)


def test_chronicle_delete():
    s = chronicle([a, b, a], b).delete([a])
    assert s.hist == (b,)
    assert s.cv is b
    t = chronicle([a, b], a)
    assert t.delete([]) is t
    with pytest.raises(ValueError):
        chronicle([a], a).delete([a])
    with pytest.raises(ValueError):
        extant_delete((chronicle([a, b], b),), [b])


def test_chronicle_cv_must_be_in_history():
    with pytest.raises(ValueError):
        Chronicle((a,), b)
    with pytest.raises(ValueError):
        Chronicle((), a)


def test_extend_delete_preserve_cv():
    rng = random.Random(3)
    names = [name("z%d" % i) for i in range(6)]
    for _ in range(40):
        hist = [rng.choice(names) for _ in range(rng.randint(1, 6))]
        cv = rng.choice(hist)
        s = chronicle(hist, cv)
        assert s.extend([rng.choice(names)]).cv is cv
        drop = [x for x in names if x is not cv][: rng.randint(0, 3)]
        assert s.delete(drop).cv is cv


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
    check_extant(nat)


def test_check_extant_rejects_duplicate_current_values():
    with pytest.raises(ValueError):
        check_extant((chronicle([a], a), chronicle([b, a], a)))


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
