"""The public names of the package: which they are, where they live, and
that loading them on first use gives every caller the same objects; and
the CI workflows that test the package."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import nomre

# Every name `nomre` exports, by the submodule that defines it.
EXPORTS = {
    "automata": [
        "Cda", "CdaClass", "Label", "State", "accept", "class_of", "enumerate_words",
        "equiv_bounded", "from_json", "to_dot", "to_json",
    ],
    "calculus": [
        "DerivationTree", "Global", "Local", "Neq", "SchematicWord", "ctxc_derive",
        "derivation_dump", "flatten_to_neqs", "language_enumerate", "language_member",
        "lngc_eval", "lngc_results", "schematic_member", "schematic_normalize",
        "schematic_words_of",
    ],
    "compiler": ["compile_expr", "compile_in_context"],
    "errors": [
        "ContextError", "NomreError", "ParseError", "ResourceLimitError", "SchemaError",
        "ValidationError",
    ],
    "expr": [
        "ContextTriple", "NreClass", "alpha_eq", "apply_perm_expr", "check_wellformed",
        "classify", "classify_first_degree", "free_names", "parse", "render",
    ],
    "extract": ["extract_expr"],
    "nominal": [
        "Chronicle", "Letter", "Name", "name", "placeholder", "transpose",
    ],
}
HOME = {n: "nomre." + m for m, names in EXPORTS.items() for n in names}


def test_public_names_are_pinned():
    assert len(HOME) == 51
    assert sorted(nomre.__all__) == sorted(HOME)
    assert set(nomre.__all__) <= set(dir(nomre))
    for n, home in HOME.items():
        assert getattr(nomre, n) is getattr(importlib.import_module(home), n), n
    for m in EXPORTS:
        assert getattr(nomre, m) is sys.modules["nomre." + m]
    # the modules that used to define these still re-export them
    from nomre.automata import check_bounds
    from nomre.compiler import ContextTriple
    assert ContextTriple is nomre.ContextTriple
    assert check_bounds is importlib.import_module("nomre.nominal").check_bounds


def test_star_import_binds_every_export():
    ns = {}
    exec("from nomre import *", ns)
    for n in HOME:
        assert ns[n] is getattr(nomre, n), n


def test_unknown_names_raise_attribute_error():
    for n in ("no_such_name", "accept_reference", "canonical_fresh"):
        with pytest.raises(AttributeError, match=n):
            getattr(nomre, n)
    assert not hasattr(nomre, "word_sort_key")


def test_first_access_from_many_threads():
    # `import nomre` loads no submodule; then 8 threads read every export at
    # once, with the interpreter switching threads as often as it can, and
    # each must see the objects of the home module.
    code = (
        "import importlib, json, sys, threading\n"
        "import nomre\n"
        "assert [m for m in sys.modules if m.startswith('nomre.')] == []\n"
        "home = json.loads(sys.argv[1])\n"
        "names = sorted(home)\n"
        "start = threading.Barrier(8)\n"
        "seen = [None] * 8\n"
        "def read(k):\n"
        "    start.wait()\n"
        "    order = names[7 * k:] + names[:7 * k]\n"
        "    seen[k] = {n: getattr(nomre, n) for n in order}\n"
        "sys.setswitchinterval(1e-6)\n"
        "threads = [threading.Thread(target=read, args=(k,)) for k in range(8)]\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join(60)\n"
        "assert not any(t.is_alive() for t in threads)\n"
        "for got in seen:\n"
        "    assert got is not None and sorted(got) == names\n"
        "    for n, v in got.items():\n"
        "        assert v is getattr(importlib.import_module(home[n]), n), n\n"
        "assert not hasattr(nomre, 'oracle') and 'nomre.oracle' not in sys.modules\n"
        "print('ok')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nomre.__file__)))
    r = subprocess.run([sys.executable, "-c", code, json.dumps(HOME)], env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["ok"]


def test_ci_workflows_are_valid_yaml():
    # CI rejects a workflow that does not parse, and then runs none of its steps
    yaml = pytest.importorskip("yaml")
    root = os.path.join(os.path.dirname(__file__), os.pardir, ".github", "workflows")
    files = sorted(f for f in os.listdir(root) if f.endswith(".yml"))
    assert files
    for f in files:
        with open(os.path.join(root, f), encoding="utf-8") as fh:
            assert isinstance(yaml.safe_load(fh), dict), f


def test_committed_bench_files_name_a_declared_gain():
    # each BENCH_<n>.json at the root parses, and a claimed gain names a
    # workload and an end-to-end metric that BENCHMARK.json declares
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = {w["name"] for w in bench["workloads"]}
    metrics = {m["name"] for m in bench["end_to_end"]}
    files = sorted(f for f in os.listdir(root) if f.startswith("BENCH_") and f.endswith(".json"))
    assert files
    for f in files:
        with open(os.path.join(root, f), encoding="utf-8") as fh:
            doc = json.load(fh)
        gain = doc["claimed_gain"]
        if gain is not None:
            assert gain["workload"] in workloads, f
            assert gain["metric"] in metrics, f
