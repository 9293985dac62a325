"""Acceptance suite: one test per shipped exit criterion.

Each test prints a single PASS/FAIL line so the whole gate is readable
from the pytest -s output.
"""

import itertools
import os
import random
import time

import pytest

from nomre.automata import (
    accept,
    class_of,
    CdaClass,
    enumerate_words,
    equiv_bounded,
    word_sort_key,
)
from nomre.calculus import (
    ctxc_derive,
    derivation_dump,
    flatten_to_neqs,
    language_enumerate,
    lngc_eval,
    schematic_normalize,
)
from nomre.compiler import ContextTriple, compile_expr
from nomre.corpus import (
    ALPHABET,
    BIG_TEXT,
    DIAMOND_TEXT,
    LONET_TEXT,
    LSES_TEXT,
    SUCC_DISTINCT_TEXT,
    all_expr_texts,
    default_pool,
    handbuilt_automata,
    lonet_predicate,
    lses_predicate,
)
from nomre.expr import NreClass, alpha_eq, classify, parse, render
from nomre.extract import extract_expr
from nomre.genexpr import corpus_of_classes, random_nre
from nomre.nominal import Letter, name
from nomre.oracle import equal_mod_renaming
from nre_helpers import apply_perm_word, rename_bound

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _report(num, label, ok, detail=""):
    print("criterion %d (%s): %s%s" % (num, label, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed%s" % (num, detail)


def P(text):
    return parse(text, ALPHABET)


def test_criterion_1_lses_fidelity(pool3):
    t0 = time.time()
    a = compile_expr(P(LSES_TEXT))
    tokens = [Letter("a"), Letter("b")] + list(pool3)
    mismatch = 0
    total = 0
    for n in range(0, 7):
        for w in itertools.product(tokens, repeat=n):
            total += 1
            if accept(a, w) != lses_predicate(w):
                mismatch += 1
    dt = time.time() - t0
    _report(1, "session-language fidelity", mismatch == 0 and dt < 5.0,
            " [%d words, %d mismatches, %.2fs]" % (total, mismatch, dt))


def test_criterion_2_lonet_behaviour():
    a = compile_expr(P(LONET_TEXT))
    hand = handbuilt_automata()["lonet"]
    A, B = Letter("a"), Letter("b")
    r0, p0, q0, r1 = name("r0"), name("p0"), name("q0"), name("r1")
    fresh_ok = (A, B, r0, p0, q0, r1, p0, q0)
    reuse_run_name = (A, B, r0, p0, q0, p0, p0, q0)
    second_p_is_r0 = (A, B, r0, p0, q0, r1, r0, q0)
    scripted = (
        accept(a, fresh_ok) and accept(hand, fresh_ok),
        not accept(a, reuse_run_name) and not accept(hand, reuse_run_name),
        accept(a, second_p_is_r0) and accept(hand, second_p_is_r0),
    )
    pool4 = default_pool(4)
    mismatch = 0
    for tail in itertools.product(pool4, repeat=6):
        w = (A, B) + tail
        if accept(a, w) != lonet_predicate(w):
            mismatch += 1
    _report(2, "one-thread traces", all(scripted) and mismatch == 0,
            " [scripted %s, %d shape mismatches]" % (list(scripted), mismatch))


def test_criterion_3_successive_distinct_counts(pool3):
    a = compile_expr(P(SUCC_DISTINCT_TEXT))
    words = enumerate_words(a, pool3, 4)
    ok = True
    detail = []
    for L in range(1, 5):
        got = sum(1 for w in words if len(w) == L)
        brute = sum(
            1
            for w in itertools.product(pool3, repeat=L)
            if all(w[i] is not w[i + 1] for i in range(L - 1))
        )
        want = 3 * 2 ** (L - 1)
        detail.append("L%d:%d" % (L, got))
        ok = ok and got == want == brute
    _report(3, "successive-distinct counts", ok, " [%s]" % " ".join(detail))


def test_criterion_4_golden_schematic_words():
    from golden_data import big_expected_neqs, big_expected_structured, diamond_expected

    diamond = lngc_eval(ctxc_derive(ContextTriple((), P(DIAMOND_TEXT), ()), 2)[0])
    big = lngc_eval(ctxc_derive(ContextTriple((), P(BIG_TEXT), ()), 2)[0])
    ok_d = equal_mod_renaming(diamond, diamond_expected())
    ok_b = equal_mod_renaming(big, big_expected_structured())
    flat = flatten_to_neqs(schematic_normalize(big))
    ok_n = len(flat.cond) == 13 and equal_mod_renaming(flat, big_expected_neqs())
    with open(os.path.join(GOLDEN, "diamond_derivation.txt")) as f:
        ok_gd = derivation_dump(P(DIAMOND_TEXT)) == f.read()
    with open(os.path.join(GOLDEN, "big_derivation.txt")) as f:
        ok_gb = derivation_dump(P(BIG_TEXT)) == f.read()
    _report(4, "golden schematic words", ok_d and ok_b and ok_n and ok_gd and ok_gb,
            " [3-star:%s appendix:%s neqs:%s dumps:%s/%s]" % (ok_d, ok_b, ok_n, ok_gd, ok_gb))


def test_criterion_5_kleene_differential(pool3):
    t0 = time.time()
    exprs = corpus_of_classes(seed=101, total=200)
    classes = {classify(e) for e in exprs}
    mismatches = []
    for e in exprs:
        la = enumerate_words(compile_expr(e), pool3, 5)
        lc = language_enumerate(e, pool3, 5)
        if la != lc:
            mismatches.append(render(e))
    dt = time.time() - t0
    ok = not mismatches and len(exprs) >= 200 and classes == set(NreClass) and dt < 120
    _report(5, "kleene differential", ok,
            " [%d exprs, %d mismatches, %.1fs]" % (len(exprs), len(mismatches), dt))
    if mismatches:
        print("first mismatches:", mismatches[:3])


def test_criterion_6_extraction_round_trip(pool3):
    autos = list(handbuilt_automata().values())
    assert len(autos) == 10
    autos += [compile_expr(e) for e in corpus_of_classes(seed=103, total=20)[:20]]
    bad = 0
    for a in autos:
        ce = equiv_bounded(a, compile_expr(extract_expr(a)), pool3, 5)
        if ce is not None:
            bad += 1
    _report(6, "extraction round trip", bad == 0,
            " [%d automata, %d failures]" % (len(autos), bad))


def test_criterion_7_permutation_and_alpha_closure(pool3):
    rng = random.Random(104)
    fresh = [name("perm%d" % i) for i in range(3)]
    universe = list(pool3) + fresh
    bad = 0
    checked = 0
    for key, text in all_expr_texts().items():
        e = P(text)
        a = compile_expr(e)
        for w in sorted(enumerate_words(a, pool3, 4), key=word_sort_key)[:30]:
            for _ in range(10):
                tgt = universe[:]
                rng.shuffle(tgt)
                p = dict(zip(universe, tgt))
                checked += 1
                if not accept(a, apply_perm_word(p, w)):
                    bad += 1
    alpha_bad = 0
    for _ in range(20):
        e = random_nre(rng, size=5)
        e2 = e
        for old, new in (("x", "ax"), ("y", "ay"), ("z", "az")):
            e2 = rename_bound(e2, name(old), name(new))
        if alpha_eq(e, e2):
            if enumerate_words(compile_expr(e), pool3, 4) != enumerate_words(
                compile_expr(e2), pool3, 4
            ):
                alpha_bad += 1
    _report(7, "permutation and alpha closure", bad == 0 and alpha_bad == 0,
            " [%d permuted words, %d failures, %d alpha failures]" % (checked, bad, alpha_bad))


def test_criterion_8_closure_corollary(pool3):
    from nomre.expr import Cat, Star, Sum

    rng = random.Random(105)
    maxlen = 4
    bad = 0
    for _ in range(30):
        e1 = random_nre(rng, size=4)
        e2 = random_nre(rng, size=4)
        w1 = enumerate_words(compile_expr(e1), pool3, maxlen)
        w2 = enumerate_words(compile_expr(e2), pool3, maxlen)
        if enumerate_words(compile_expr(Sum(e1, e2)), pool3, maxlen) != w1 | w2:
            bad += 1
        cat = {u + v for u in w1 for v in w2 if len(u) + len(v) <= maxlen}
        if enumerate_words(compile_expr(Cat(e1, e2)), pool3, maxlen) != cat:
            bad += 1
        closure = {()}
        while True:
            nxt = closure | {u + v for u in w1 for v in closure if len(u) + len(v) <= maxlen}
            if nxt == closure:
                break
            closure = nxt
        if enumerate_words(compile_expr(Star(e1)), pool3, maxlen) != closure:
            bad += 1
    _report(8, "closure corollary", bad == 0, " [30 pairs, %d failures]" % bad)


def test_criterion_9_class_fidelity():
    want = {
        NreClass.B: CdaClass.A,
        NreClass.P: CdaClass.DA,
        NreClass.U: CdaClass.CA,
        NreClass.UP: CdaClass.CDA,
    }
    back = {
        CdaClass.A: {NreClass.B},
        CdaClass.CA: {NreClass.B, NreClass.U},
        CdaClass.DA: {NreClass.B, NreClass.P},
        CdaClass.CDA: set(NreClass),
    }
    exprs = corpus_of_classes(seed=106, total=120, allow_zero=False)
    seen = set()
    bad = 0
    for e in exprs:
        a = compile_expr(e)
        if class_of(a).tag is not want[classify(e)]:
            bad += 1
        if classify(extract_expr(a)) not in back[class_of(a).tag]:
            bad += 1
        seen.add(classify(e))
    for a in handbuilt_automata().values():
        if classify(extract_expr(a)) not in back[class_of(a).tag]:
            bad += 1
    _report(9, "class fidelity", bad == 0 and seen == set(want),
            " [%d exprs, classes %s, %d failures]" % (len(exprs), len(seen), bad))
