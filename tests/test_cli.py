import json
import os

import pytest

from nomre.automata import from_json, to_json
from nomre.cli import main, parse_word
from nomre.compiler import compile_expr
from nomre.corpus import ALPHABET, LSES_TEXT, lses_automaton
from nomre.expr import parse


@pytest.fixture
def lses_file(tmp_path):
    p = tmp_path / "lses.nre"
    p.write_text(LSES_TEXT)
    return str(p)


@pytest.fixture
def lses_json(tmp_path):
    p = tmp_path / "lses.json"
    p.write_text(to_json(lses_automaton()))
    return str(p)


def test_check_lses(lses_file, capsys):
    rc = main(["check", lses_file, "--letters", "a,b"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "class: u-NRE" in out
    assert "well-formed" in out


def test_check_lths(tmp_path, capsys):
    p = tmp_path / "lths.nre"
    from nomre.corpus import LTHS_TEXT

    p.write_text(LTHS_TEXT)
    rc = main(["check", str(p), "--letters", "a,b,d"])
    assert rc == 0
    assert "class: up-NRE" in capsys.readouterr().out


def test_check_underline_locality(tmp_path, capsys):
    p = tmp_path / "bad.nre"
    p.write_text("_$n")
    rc = main(["check", str(p)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "underline-locality" in out


def test_compile_accept_cycle(lses_file, tmp_path, capsys):
    out = tmp_path / "a.json"
    assert main(["compile", lses_file, str(out), "--letters", "a,b"]) == 0
    assert main(["accept", str(out), "a b $n1 $n2"]) == 0
    assert main(["accept", str(out), "a b $n1 $n1"]) == 1
    assert main(["accept", str(out), ""]) == 1


def test_accept_hand_automaton(lses_json):
    assert main(["accept", lses_json, "a b $n1 $n2"]) == 0
    assert main(["accept", lses_json, "a b $n1 $n1"]) == 1


def test_enumerate_output(lses_json, capsys):
    rc = main(["enumerate", lses_json, "--pool", "$r1,$r2", "--maxlen", "4"])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert "a b" in out
    assert "a b $r1 $r2" in out
    assert "a b $r1 $r1" not in out


def test_equiv_output(lses_file, lses_json, tmp_path, capsys):
    cj = tmp_path / "c.json"
    assert main(["compile", lses_file, str(cj), "--letters", "a,b"]) == 0
    rc = main(["equiv", str(cj), lses_json, "--pool", "$r1,$r2,$r3", "--maxlen", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "equivalent (bounded)" in out
    one = tmp_path / "one.nre"
    one.write_text("1")
    oj = tmp_path / "one.json"
    assert main(["compile", str(one), str(oj)]) == 0
    rc = main(["equiv", str(cj), str(oj), "--pool", "$r1", "--maxlen", "2"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "counterexample: eps" in out


def test_extract_command(lses_json, tmp_path, capsys):
    out = tmp_path / "back.nre"
    assert main(["extract", lses_json, str(out)]) == 0
    text = out.read_text().strip()
    e = parse(text, ALPHABET)
    a2 = compile_expr(e)
    assert main(["accept", lses_json, "a b $k1 $k2"]) == 0
    from nomre.automata import accept

    assert accept(a2, parse_word("a b $k1 $k2"))


def test_derive_command(tmp_path, capsys):
    p = tmp_path / "d.nre"
    from nomre.corpus import DIAMOND_TEXT

    p.write_text(DIAMOND_TEXT)
    rc = main(["derive", str(p)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "schematic:" in out and "(bind!=)" in out


def test_dot_command(lses_json, capsys):
    assert main(["dot", lses_json]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")


def test_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.nre"
    bad.write_text("<$n.")
    assert main(["check", str(bad)]) == 3
    badj = tmp_path / "bad.json"
    badj.write_text("{}")
    assert main(["accept", str(badj), ""]) == 4
    # an automaton violating the register discipline is a validation error
    doc = {
        "states": [{"id": "q0", "regs": 0, "final": False}, {"id": "q1", "regs": 2, "final": False}],
        "initial": "q0",
        "transitions": [{"from": "q0", "label": {"kind": "star"}, "to": "q1"}],
    }
    badj2 = tmp_path / "bad2.json"
    badj2.write_text(json.dumps(doc))
    assert main(["accept", str(badj2), ""]) == 4
    missing = str(tmp_path / "missing.nre")
    assert main(["check", missing]) == 2


def test_compile_dot_format(lses_file, lses_json, capsys):
    assert main(["compile", lses_file, "-", "--letters", "a,b", "--format", "dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")
    # --format belongs to compile alone, and only json and dot exist
    for argv in (["compile", lses_file, "-", "--format", "text"],
                 ["accept", lses_json, "a b", "--format", "dot"],
                 ["accept", lses_json, "a b", "--seed", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_resource_limit_exit(tmp_path, capsys):
    p = tmp_path / "wide.nre"
    p.write_text("((1 + a)*)*")
    rc = main(["derive", str(p), "--letters", "a", "--star-bound", "14"])
    assert rc == 5
