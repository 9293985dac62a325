import os

import pytest

from nomre import extract
from nomre.automata import (
    Cda,
    CdaClass,
    EPS,
    State,
    class_of,
    enumerate_words,
    equiv_bounded,
    lab_letter,
)
from nomre.compiler import compile_expr
from nomre.corpus import ALPHABET, all_expr_texts, handbuilt_automata
from nomre.expr import NreClass, check_wellformed, classify, parse, render
from nomre.extract import determinize_layers, extract_expr, layered_view
from nomre.genexpr import corpus_of_classes
from nomre.nominal import Letter


def P(text):
    return parse(text, ALPHABET)


def test_layered_view_edge_families(hand_automata):
    a = hand_automata["lonet"]
    view = layered_view(a)
    sm = a.state_map()
    for f, t in view.star_edges:
        assert sm[t].regs == sm[f].regs + 1
    for f, i, t in view.close_edges:
        assert sm[t].regs == sm[f].regs - 1
        assert 1 <= i <= sm[f].regs
    for k, edges in view.intra.items():
        for f, lab, t in edges:
            assert sm[f].regs == sm[t].regs == k


def test_determinize_deterministic_single_layer_is_isomorphic(hand_automata):
    a = hand_automata["letters_only"]
    d = determinize_layers(a)
    assert len(d.states) == len(a.states)
    assert len(d.transitions) == len(a.transitions)
    assert equiv_bounded(a, d, (), 6) is None


def test_determinize_lses(pool3, hand_automata):
    a = hand_automata["lses"]
    d = determinize_layers(a)
    assert equiv_bounded(a, d, pool3, 6) is None
    assert not any(lab.kind == "eps" for _, lab, _ in d.transitions)


def test_determinize_merges_parallel_eps_branches():
    a = Cda(
        (
            State("s0", 0),
            State("s1", 0),
            State("s2", 0),
            State("s3", 0, True),
        ),
        "s0",
        (
            ("s0", EPS, "s1"),
            ("s0", EPS, "s2"),
            ("s1", lab_letter("a"), "s3"),
            ("s2", lab_letter("b"), "s3"),
        ),
    )
    d = determinize_layers(a)
    start_edges = {lab.letter.sym for f, lab, _ in d.transitions if f == d.initial}
    assert start_edges == {"a", "b"}
    assert len([s for s in d.states if s.id == d.initial]) == 1


def test_determinize_no_eps_and_label_unique(rng, hand_automata):
    from nomre.genexpr import random_nre

    autos = list(hand_automata.values())
    autos += [compile_expr(random_nre(rng, size=5)) for _ in range(10)]
    for a in autos:
        d = determinize_layers(a)
        seen = set()
        for f, lab, t in d.transitions:
            assert lab.kind != "eps"
            assert (f, lab) not in seen
            seen.add((f, lab))


def test_determinize_equivalent(rng, pool3, hand_automata):
    from nomre.genexpr import random_nre

    autos = list(hand_automata.values())
    autos += [compile_expr(random_nre(rng, size=5)) for _ in range(8)]
    for a in autos:
        assert equiv_bounded(a, determinize_layers(a), pool3, 4) is None


def test_extract_trivial(pool3):
    a = compile_expr(P("1"))
    e = extract_expr(a)
    assert enumerate_words(compile_expr(e), pool3, 3) == {()}
    z = extract_expr(compile_expr(P("0")))
    assert enumerate_words(compile_expr(z), pool3, 3) == set()


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


GOLDEN_EXTRACT = os.path.join(os.path.dirname(__file__), "golden", "extract.txt")


def _extraction_lines():
    autos = [("hand " + k, a) for k, a in handbuilt_automata().items()]
    autos += [("compiled " + k, compile_expr(P(t))) for k, t in all_expr_texts().items()]
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
