"""Command line surface.

Exit codes: 0 success (for accept: word accepted), 1 negative result,
2 usage, 3 parse failure, 4 validation failure, 5 resource limit.
Words on the command line are whitespace-separated tokens: letters bare,
names $-prefixed; the empty string is the empty word.
"""

import argparse
import sys
from dataclasses import dataclass

from . import automata, calculus, compiler, extract
from .errors import (
    CompileError,
    ContextError,
    NomreError,
    ParseError,
    ResourceLimitError,
    SchemaError,
    ValidationError,
)
from .expr import check_wellformed, classify, parse, render
from .nominal import Letter, name

EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_VALIDATION = 4
EXIT_RESOURCE = 5


@dataclass(frozen=True)
class RunConfig:
    alphabet: tuple
    pool: tuple
    maxlen: int
    star_bound: int

    def __post_init__(self):
        if len(set(self.pool)) != len(self.pool):
            raise ValidationError("pool must be repetition-free")
        if self.maxlen < 0:
            raise ValidationError("maxlen must be >= 0")


def parse_word(text):
    toks = []
    for raw in text.split():
        if raw.startswith("$"):
            toks.append(name(raw[1:]))
        else:
            toks.append(Letter(raw))
    return tuple(toks)


def format_word(w):
    if not w:
        return "eps"
    return " ".join(t.sym if isinstance(t, Letter) else "$" + t.key for t in w)


def _parse_pool(text):
    out = []
    for raw in text.replace(",", " ").split():
        if not raw.startswith("$"):
            raise ValidationError("pool entries are $-prefixed names, got %r" % raw)
        out.append(name(raw[1:]))
    return tuple(out)


def _parse_letters(text):
    return tuple(x for x in text.replace(",", " ").split() if x)


def _load_expr(path, letters):
    with open(path) as f:
        text = f.read()
    return parse(text, letters)


def _load_automaton(path):
    with open(path) as f:
        return automata.from_json(f.read())


def _config(args):
    return RunConfig(
        alphabet=_parse_letters(getattr(args, "letters", "") or ""),
        pool=_parse_pool(getattr(args, "pool", "") or ""),
        maxlen=getattr(args, "maxlen", 0),
        star_bound=getattr(args, "star_bound", 2),
    )


def cmd_check(args):
    cfg = _config(args)
    e = _load_expr(args.expr_file, cfg.alphabet)
    rep = check_wellformed(e)
    print("class: %s" % classify(e).value)
    if rep.ok:
        print("well-formed" + ("" if rep.closed else " (open: %s)" % ", ".join(
            sorted("$" + n.key for n in rep.free))))
        return 0
    for issue in rep.issues:
        print(str(issue))
    return 1


def cmd_compile(args):
    cfg = _config(args)
    e = _load_expr(args.expr_file, cfg.alphabet)
    a = compiler.compile_expr(e)
    payload = automata.to_dot(a) if args.format == "dot" else automata.to_json(a)
    if args.out == "-":
        print(payload)
    else:
        with open(args.out, "w") as f:
            f.write(payload + "\n")
    return 0


def cmd_accept(args):
    a = _load_automaton(args.automaton)
    w = parse_word(args.word)
    return 0 if automata.accept(a, w) else 1


def cmd_enumerate(args):
    cfg = _config(args)
    a = _load_automaton(args.automaton)
    words = automata.enumerate_words(a, cfg.pool, cfg.maxlen)
    for w in sorted(words, key=automata.word_sort_key):
        print(format_word(w))
    return 0


def cmd_equiv(args):
    cfg = _config(args)
    a = _load_automaton(args.automaton)
    b = _load_automaton(args.automaton_b)
    ce = automata.equiv_bounded(a, b, cfg.pool, cfg.maxlen)
    if ce is None:
        print("equivalent (bounded)")
        return 0
    print("counterexample: %s" % format_word(ce))
    return 1


def cmd_extract(args):
    a = _load_automaton(args.automaton)
    e = extract.extract_expr(a)
    text = render(e)
    if args.out == "-":
        print(text)
    else:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    return 0


def cmd_derive(args):
    cfg = _config(args)
    e = _load_expr(args.expr_file, cfg.alphabet)
    sys.stdout.write(calculus.derivation_dump(e, star_bound=cfg.star_bound))
    return 0


def cmd_dot(args):
    a = _load_automaton(args.automaton)
    print(automata.to_dot(a))
    return 0


def _add_common(p, pool=False, maxlen=False, letters=False, star=False):
    if letters:
        p.add_argument("--letters", default="", help="comma or space separated alphabet")
    if pool:
        p.add_argument("--pool", default="", help="name pool, e.g. '$r1,$r2,$r3'")
    if maxlen:
        p.add_argument("--maxlen", type=int, default=4)
    if star:
        p.add_argument("--star-bound", dest="star_bound", type=int, default=2)


def build_parser():
    top = argparse.ArgumentParser(prog="nomre", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="classify and well-formedness check")
    p.add_argument("expr_file")
    _add_common(p, letters=True)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("compile", help="expression file to automaton json")
    p.add_argument("expr_file")
    p.add_argument("out")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    _add_common(p, letters=True)
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("accept", help="run an automaton on a word")
    p.add_argument("automaton")
    p.add_argument("word", nargs="?", default="")
    _add_common(p)
    p.set_defaults(fn=cmd_accept)

    p = sub.add_parser("enumerate", help="bounded language of an automaton")
    p.add_argument("automaton")
    _add_common(p, pool=True, maxlen=True)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("equiv", help="bounded equivalence of two automata")
    p.add_argument("automaton")
    p.add_argument("automaton_b")
    _add_common(p, pool=True, maxlen=True)
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("extract", help="automaton json to expression text")
    p.add_argument("automaton")
    p.add_argument("out", nargs="?", default="-")
    _add_common(p)
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("derive", help="dump context/language derivations")
    p.add_argument("expr_file")
    _add_common(p, letters=True, star=True)
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("dot", help="graphviz rendering of an automaton")
    p.add_argument("automaton")
    _add_common(p)
    p.set_defaults(fn=cmd_dot)

    return top


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as e:
        print("parse error: %s" % e, file=sys.stderr)
        return EXIT_PARSE
    except ResourceLimitError as e:
        print("resource limit: %s" % e, file=sys.stderr)
        return EXIT_RESOURCE
    except (SchemaError, ValidationError, CompileError, ContextError) as e:
        print("invalid input: %s" % e, file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:
        print("io error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except NomreError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
