"""Command line surface.

Exit codes: 0 success (for accept: word accepted), 1 negative result,
2 usage, 3 parse failure, 4 validation failure, 5 resource limit.
Words on the command line are whitespace-separated tokens: letters bare,
names $-prefixed; the empty string is the empty word.
"""

import argparse
import sys

# Each subcommand imports the rest of the package it needs when it runs,
# so that a process loads only its own modules: accept never loads the
# expression parser or the calculus.
from .errors import (
    ContextError,
    NomreError,
    ParseError,
    ResourceLimitError,
    SchemaError,
    ValidationError,
    too_deep,
)
from .nominal import Letter, name

EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_VALIDATION = 4
EXIT_RESOURCE = 5


def _name(raw):
    if raw == "$":
        raise ValidationError("a name needs a spelling after '$'")
    return name(raw[1:])


def parse_word(text):
    toks = []
    for raw in text.split():
        if raw.startswith("$"):
            toks.append(_name(raw))
        else:
            toks.append(Letter(raw))
    return tuple(toks)


def format_word(w):
    if not w:
        return "eps"
    return " ".join(map(repr, w))


def _parse_pool(text):
    out = []
    for raw in text.replace(",", " ").split():
        if not raw.startswith("$"):
            raise ValidationError("pool entries are $-prefixed names, got %r" % raw)
        out.append(_name(raw))
    return tuple(out)


def _parse_letters(text):
    return tuple(x for x in text.replace(",", " ").split() if x)


def _load_expr(path, letters):
    from .expr import parse

    with open(path, encoding="utf-8") as f:
        text = f.read()
    return parse(text, letters)


def _load_automaton(path):
    from .automata import from_json

    with open(path, encoding="utf-8") as f:
        return from_json(f.read())


def _write_out(out, text):
    """Print text to stdout when out is "-", else write it, newline-ended,
    to the UTF-8 file out."""
    if out == "-":
        print(text)
    else:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text + "\n")


def cmd_check(args):
    from .expr import check_wellformed

    e = _load_expr(args.expr_file, _parse_letters(args.letters))
    rep = check_wellformed(e)
    print("class: %s" % rep.nre_class.value)
    if rep.ok:
        print("well-formed" + ("" if rep.closed else " (open: %s)" % ", ".join(sorted(map(repr, rep.free)))))
        return 0
    for issue in rep.issues:
        print(str(issue))
    return 1


def cmd_compile(args):
    from .automata import to_dot, to_json
    from .compiler import compile_expr

    e = _load_expr(args.expr_file, _parse_letters(args.letters))
    a = compile_expr(e)
    _write_out(args.out, to_dot(a) if args.format == "dot" else to_json(a))
    return 0


def cmd_accept(args):
    from .automata import accept

    a = _load_automaton(args.automaton)
    w = parse_word(args.word)
    return 0 if accept(a, w) else 1


def cmd_enumerate(args):
    from .automata import enumerate_words, word_sort_key

    a = _load_automaton(args.automaton)
    words = enumerate_words(a, _parse_pool(args.pool), args.maxlen)
    for w in sorted(words, key=word_sort_key):
        print(format_word(w))
    return 0


def cmd_equiv(args):
    from .automata import equiv_bounded

    a = _load_automaton(args.automaton)
    b = _load_automaton(args.automaton_b)
    ce = equiv_bounded(a, b, _parse_pool(args.pool), args.maxlen)
    if ce is None:
        print("equivalent (bounded)")
        return 0
    print("counterexample: %s" % format_word(ce))
    return 1


def cmd_extract(args):
    from .expr import render
    from .extract import extract_expr

    a = _load_automaton(args.automaton)
    _write_out(args.out, render(extract_expr(a)))
    return 0


def cmd_derive(args):
    from .calculus import derivation_dump

    e = _load_expr(args.expr_file, _parse_letters(args.letters))
    sys.stdout.write(derivation_dump(e, star_bound=args.star_bound))
    return 0


def cmd_dot(args):
    from .automata import to_dot

    a = _load_automaton(args.automaton)
    print(to_dot(a))
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
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("derive", help="dump context/language derivations")
    p.add_argument("expr_file")
    _add_common(p, letters=True, star=True)
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("dot", help="graphviz rendering of an automaton")
    p.add_argument("automaton")
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
    except RecursionError:
        # nesting that reaches a recursive walk that does not map it itself
        print("resource limit: %s" % too_deep(), file=sys.stderr)
        return EXIT_RESOURCE
    except (SchemaError, ValidationError, ContextError) as e:
        print("invalid input: %s" % e, file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, UnicodeDecodeError) as e:
        print("io error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except NomreError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
