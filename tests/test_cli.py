import json
import os
import subprocess
import sys

import pytest

import nomre
from nomre.automata import from_json, to_json
from nomre.cli import build_parser, main, parse_word
from nomre.compiler import ContextTriple, compile_expr, compile_in_context
from nomre.corpus import ALPHABET, LSES_TEXT, lses_automaton
from nomre.expr import Bind, Nam, parse
from nomre.nominal import name, natural_chronicle


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


def test_enumerate_rejects_bad_bounds(lses_json, capsys):
    assert main(["enumerate", lses_json, "--pool", "$r1,$r1"]) == 4
    assert main(["enumerate", lses_json, "--maxlen", "-1"]) == 4


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


def test_exit_codes(lses_file, lses_json, tmp_path, capsys):
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
    badj3 = tmp_path / "bad3.json"
    badj3.write_text('{"states": [{"id": "q", "regs": 1e400}], "initial": "q", "transitions": []}')
    assert main(["accept", str(badj3), ""]) == 4
    badj4 = tmp_path / "bad4.json"
    badj4.write_text('{"states": [{"id": "q", "regs": 0, "final": "false"}], "initial": "q", "transitions": []}')
    assert main(["accept", str(badj4), ""]) == 4
    missing = str(tmp_path / "missing.nre")
    assert main(["check", missing]) == 2
    # a negative star bound is rejected like a negative maxlen
    assert main(["derive", lses_file, "--letters", "a,b", "--star-bound", "-1"]) == 4
    # a '$' with no spelling names nothing, in a word or in a pool
    assert main(["accept", lses_json, "$"]) == 4
    assert main(["enumerate", lses_json, "--pool", "$,$r", "--maxlen", "3"]) == 4
    assert capsys.readouterr().out == ""


def test_an_automaton_in_context_draws_but_does_not_run(tmp_path, capsys):
    n, m = name("n"), name("m")
    a = compile_in_context(ContextTriple((m,), Bind(n, Nam(n), m), natural_chronicle((m,))))
    p = tmp_path / "in_context.json"
    p.write_text(to_json(a))
    for argv in (["accept", str(p), "$m"], ["enumerate", str(p)], ["extract", str(p)]):
        assert main(argv) == 4
    assert capsys.readouterr().out == ""
    assert main(["dot", str(p)]) == 0
    assert capsys.readouterr().out.startswith("digraph")


# The nomre modules that each subcommand loads, run through cli.main in a
# fresh interpreter: `import nomre` loads no submodule, and a subcommand
# imports only what it uses.
_BASE = {"nomre", "nomre.cli", "nomre.errors", "nomre.nominal"}
_RUN = _BASE | {"nomre.automata"}
_LOADS = {
    "accept": _RUN,
    "enumerate": _RUN,
    "equiv": _RUN,
    "dot": _RUN,
    "check": _BASE | {"nomre.expr"},
    "compile": _RUN | {"nomre.expr", "nomre.compiler"},
    "extract": _RUN | {"nomre.expr", "nomre.extract"},
    "derive": _BASE | {"nomre.expr", "nomre.calculus"},
}


def test_cli_leaves_the_oracle_unimported(lses_file, lses_json, tmp_path):
    # the reference semantics live in nomre.oracle alone, off the paths
    # that `import nomre` and the nomre command take
    code = (
        "import json, sys, nomre.cli\n"
        "rc = nomre.cli.main(json.loads(sys.argv[1]))\n"
        "loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'nomre')\n"
        "moved = ('Configuration', 'step', 'accept_reference', 'canonical_fresh',\n"
        "         'forest_language_enumerate', 'equal_mod_renaming', '_Bij', 'enumerate_reference')\n"
        "for m in (nomre, nomre.automata, nomre.nominal, nomre.calculus):\n"
        "    assert not [n for n in moved if hasattr(m, n)], m\n"
        "assert 'nomre.oracle' not in sys.modules\n"
        "print(json.dumps([rc, loaded]))\n"
    )
    letters = ["--letters", "a,b"]
    commands = {
        "accept": ["accept", lses_json, "a b $n1 $n2"],
        "enumerate": ["enumerate", lses_json, "--pool", "$r1,$r2", "--maxlen", "3"],
        "equiv": ["equiv", lses_json, lses_json, "--pool", "$r1,$r2", "--maxlen", "3"],
        "dot": ["dot", lses_json],
        "check": ["check", lses_file] + letters,
        "compile": ["compile", lses_file, str(tmp_path / "c.json")] + letters,
        "extract": ["extract", lses_json, str(tmp_path / "back.nre")],
        "derive": ["derive", lses_file, "--star-bound", "1"] + letters,
    }
    subcommands = next(a.choices for a in build_parser()._actions if a.dest == "command")
    assert sorted(commands) == sorted(_LOADS) == sorted(subcommands)
    src = os.path.dirname(os.path.dirname(nomre.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for cmd, argv in commands.items():
        r = subprocess.run([sys.executable, "-c", code, json.dumps(argv)], env=env,
                           capture_output=True, text=True)
        assert r.returncode == 0, (cmd, r.stderr)
        rc, loaded = json.loads(r.stdout.splitlines()[-1])
        assert rc == 0, cmd
        assert set(loaded) == _LOADS[cmd], cmd


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
