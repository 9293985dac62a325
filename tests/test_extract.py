import os
import re

import pytest

from nomre import extract
from nomre.automata import (
    Cda,
    CdaClass,
    State,
    class_of,
    enumerate_words,
    equiv_bounded,
    lab_letter,
)
from nomre.compiler import compile_expr
from nomre.errors import ValidationError
from nomre.corpus import ALPHABET, all_expr_texts, handbuilt_automata
from nomre.expr import NreClass, check_wellformed, classify, parse, render
from nomre.extract import extract_expr
from nomre.genexpr import corpus_of_classes
from nomre.nominal import Letter


def P(text):
    return parse(text, ALPHABET)


def test_extract_trivial(pool3):
    a = compile_expr(P("1"))
    e = extract_expr(a)
    assert enumerate_words(compile_expr(e), pool3, 3) == {()}
    z = extract_expr(compile_expr(P("0")))
    assert enumerate_words(compile_expr(z), pool3, 3) == set()


def one_letter_automaton(sym):
    """Accepts exactly the one-letter word of the letter spelled sym."""
    return Cda((State("s0", 0), State("s1", 0, True)), "s0", (("s0", lab_letter(sym), "s1"),))


@pytest.mark.parametrize("sym", ["1", "0", "*", "x y", "_a", "a$"])
def test_extract_rejects_a_letter_the_grammar_cannot_spell(sym):
    # rendered, "1" would read back as the empty word, and the others not at all
    with pytest.raises(ValidationError, match=re.escape(repr(sym))):
        extract_expr(one_letter_automaton(sym))


def test_extract_keeps_identifier_letters():
    for sym in ("a", "ab", "b2", "c_d'"):
        e = extract_expr(one_letter_automaton(sym))
        assert parse(render(e), (sym,)) == e


def test_extract_lses_roundtrip(pool3, hand_automata):
    a = hand_automata["lses"]
    e = extract_expr(a)
    rep = check_wellformed(e)
    assert rep.ok and rep.closed
    assert equiv_bounded(a, compile_expr(e), pool3, 6) is None


def test_extract_handbuilt_roundtrips(pool3, hand_automata):
    for nm, a in hand_automata.items():
        e = extract_expr(a)
        rep = check_wellformed(e)
        assert rep.ok and rep.closed, nm
        assert equiv_bounded(a, compile_expr(e), pool3, 5) is None, nm


def test_extract_random_roundtrips(pool3):
    exprs = corpus_of_classes(seed=13, total=30)[:30]
    for e in exprs:
        a = compile_expr(e)
        e2 = extract_expr(a)
        assert equiv_bounded(a, compile_expr(e2), pool3, 4) is None, render(e)


_MATCH = {
    CdaClass.A: {NreClass.B},
    CdaClass.CA: {NreClass.B, NreClass.U},
    CdaClass.DA: {NreClass.B, NreClass.P},
    CdaClass.CDA: {NreClass.B, NreClass.P, NreClass.U, NreClass.UP},
}


def test_extract_class_preservation(hand_automata):
    autos = list(hand_automata.values())
    autos += [compile_expr(e) for e in corpus_of_classes(seed=15, total=20)[:20]]
    for a in autos:
        got = classify(extract_expr(a))
        assert got in _MATCH[class_of(a).tag]


def test_eliminate_all_pairs_agree_with_single_pairs(monkeypatch, corpus_exprs):
    """One elimination per layer gives, for each source and sink, what an
    elimination with only that source and that sink gives."""
    one_pass = extract._eliminate
    pairs_per_call = []

    def checked(nodes, edges, sources, sinks):
        got = one_pass(nodes, edges, sources, sinks)
        for src, node in sources.items():
            for tag in set(sinks.values()):
                alone = one_pass(nodes, edges, {src: node},
                                 {n: t for n, t in sinks.items() if t == tag})
                assert got.get((src, tag)) == alone.get((src, tag))
        assert set(got) <= {(src, tag) for src in sources for tag in sinks.values()}
        pairs_per_call.append(len(sources) * len(set(sinks.values())))
        return got

    monkeypatch.setattr(extract, "_eliminate", checked)
    autos = list(handbuilt_automata().values())
    autos += [compile_expr(e) for e in corpus_exprs.values()]
    for a in autos:
        extract_expr(a)
    assert len(pairs_per_call) > len(autos) and max(pairs_per_call) > 1


def _round_trip(e):
    """The text of the extraction of e's compiled automaton."""
    return render(extract_expr(compile_expr(e)))


def _first_two_trips(e):
    """The texts of two round trips from e; the second is checked before a
    third is built, since a growing text grows faster with every trip."""
    first = _round_trip(e)
    second = _round_trip(P(first))
    assert len(second) <= 1.25 * len(first), (render(e), len(first), len(second))
    return first, second


def test_second_round_trip_of_random_expressions_keeps_its_size():
    for e in corpus_of_classes(seed=103, total=200):
        _first_two_trips(e)


def test_round_trips_of_corpus_texts_reach_a_fixed_point():
    for key, text in all_expr_texts().items():
        _, second = _first_two_trips(P(text))
        assert _round_trip(P(second)) == second, key


GOLDEN_EXTRACT = os.path.join(os.path.dirname(__file__), "golden", "extract.txt")


def _extraction_lines():
    autos = [("hand " + k, a) for k, a in handbuilt_automata().items()]
    autos += [("compiled " + k, compile_expr(P(t))) for k, t in all_expr_texts().items()]
    autos += [("corpus103 %d" % i, compile_expr(e))
              for i, e in enumerate(corpus_of_classes(seed=103, total=200))]
    return ["%s\t%s\n" % (k, render(extract_expr(a))) for k, a in autos]


def test_extract_golden_text():
    """Extraction text is pinned: a change of elimination order regenerates it."""
    with open(GOLDEN_EXTRACT) as fh:
        want = fh.readlines()
    got = _extraction_lines()
    assert [line.split("\t")[0] for line in got] == [line.split("\t")[0] for line in want]
    for g, w in zip(got, want):
        assert g == w, g.split("\t")[0]


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_extract.py rewrites the golden file.
    with open(GOLDEN_EXTRACT, "w") as fh:
        fh.writelines(_extraction_lines())
