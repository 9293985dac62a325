"""The four workloads: seeded inputs, one operation, and output checks.

Every workload makes its inputs from the seed alone and hands the program
only those inputs. An operation calls the library through ``call(layer,
fn, *args)`` so that the traced run can time each call from outside; the
untraced run passes a plain call. Expected outputs come from how an input
was built or from a second semantics, never from the code being timed.
"""

import contextlib
import io
import itertools
import os
import random
import subprocess
import sys

from nomre import automata, calculus, cli, compiler, expr, extract
from nomre.corpus import (
    ALPHABET,
    DIAMOND_TEXT,
    LONET_TEXT,
    LSES_TEXT,
    LTHS_TEXT,
    SUCC_DISTINCT_TEXT,
    all_expr_texts,
    handbuilt_automata,
)
from nomre.errors import NomreError
from nomre.genexpr import corpus_of_classes
from nomre.nominal import Letter, Name, name

A, B, D = Letter("a"), Letter("b"), Letter("d")

# Grammar classes an extracted expression may have, by automaton class.
EXTRACT_CLASSES = {
    automata.CdaClass.A: {expr.NreClass.B},
    automata.CdaClass.CA: {expr.NreClass.B, expr.NreClass.U},
    automata.CdaClass.DA: {expr.NreClass.B, expr.NreClass.P},
    automata.CdaClass.CDA: set(expr.NreClass),
}


def fresh_names(rng, prefix):
    """Endless distinct names with seeded spellings."""
    seen = set()
    while True:
        k = rng.randrange(10 ** 6)
        if k not in seen:
            seen.add(k)
            yield name("%s%d" % (prefix, k))


def seeded_pool(rng, k=3):
    return tuple(itertools.islice(fresh_names(rng, "p"), k))


def lses_ok(w):
    """Brute-force lses: a b, then pairwise distinct names."""
    rest = w[2:]
    return (
        w[:2] == (A, B)
        and all(isinstance(t, Name) for t in rest)
        and len(set(rest)) == len(rest)
    )


def lonet_ok(w):
    """Brute-force lonet: a b (r p q)*, p and q distinct from r and each
    other, each r new to every name of the earlier runs."""
    rest = w[2:]
    if w[:2] != (A, B) or len(rest) % 3 or not all(isinstance(t, Name) for t in rest):
        return False
    seen = set()
    for i in range(0, len(rest), 3):
        r, p, q = rest[i:i + 3]
        if r in seen or len({r, p, q}) < 3:
            return False
        seen.update((r, p, q))
    return True


def brute_language(ok, tokens, maxlen):
    return {
        w for n in range(maxlen + 1) for w in itertools.product(tokens, repeat=n) if ok(w)
    }


def compile_text(text):
    return compiler.compile_expr(expr.parse(text, ALPHABET))


# ------------------------------------------------------------ accept-long

def lses_pair(rng, names, n_names):
    """a b and n distinct names; the twin repeats an earlier name last."""
    ns = [next(names) for _ in range(n_names)]
    good = (A, B) + tuple(ns)
    bad = good[:-1] + (ns[rng.randrange(n_names - 1)],)
    return good, bad


def lonet_pair(rng, names, runs):
    """a b and runs of three new names; the twin's last name repeats the
    p or the r of its own run."""
    w = [A, B]
    for _ in range(runs):
        w += [next(names), next(names), next(names)]
    good = tuple(w)
    bad = good[:-1] + (good[-2] if rng.random() < 0.5 else good[-3],)
    return good, bad


def lths_pair(rng, names, sessions, reads):
    """a b, then sessions of a new name r and one thread per entry of
    reads, in seeded order, that reads a new name l that many times and
    ends in d; a last new r closes the trace. The twin's last r is a name
    read earlier, which breaks the global freshness of r."""
    w = [A, B]
    for _ in range(sessions):
        w.append(next(names))
        for k in rng.sample(reads, len(reads)):
            w += [next(names)] * k + [D]
    earlier = [t for t in w if isinstance(t, Name)]
    good = tuple(w) + (next(names),)
    bad = tuple(w) + (rng.choice(earlier),)
    return good, bad


class Workload:
    """What the four workloads share unless they say otherwise."""

    failure = NomreError  # an operation that raises it counts as failed
    round_ops = None  # operations in a round; None is one pass over the inputs

    def setup(self, call):
        pass

    def check(self, item, out):
        return None

    def final_checks(self, firsts):
        return []


class AcceptLong(Workload):
    """Long session traces decided by the automata of lses, lonet, lths."""

    name = "accept-long"
    round_ops = 3
    tail_pct = 90
    min_ops = 102
    setup_code = (
        "from nomre.corpus import ALPHABET, LSES_TEXT, LONET_TEXT, LTHS_TEXT\n"
        "autos = [nomre.compile_expr(nomre.parse(t, ALPHABET))"
        " for t in (LSES_TEXT, LONET_TEXT, LTHS_TEXT)]\n"
    )

    def setup(self, call):
        self.autos = {
            k: call("compiler.compile_expr", compiler.compile_expr,
                    call("expr.parse", expr.parse, t, ALPHABET))
            for k, t in (("lses", LSES_TEXT), ("lonet", LONET_TEXT), ("lths", LTHS_TEXT))
        }

    def prepare(self, seed, smoke):
        rng = random.Random(seed)
        names = fresh_names(rng, "u")
        if smoke:
            return [("lses", lses_pair(rng, names, 8)), ("lonet", lonet_pair(rng, names, 3)),
                    ("lths", lths_pair(rng, names, 1, (2,)))]
        items = []
        for _ in range(8):
            items += [("lses", lses_pair(rng, names, 110)),
                      ("lonet", lonet_pair(rng, names, 11)),
                      ("lths", lths_pair(rng, names, 2, (2, 3)))]
        return items

    def op(self, item, call):
        kind, (good, bad) = item
        a = self.autos[kind]
        return (call("automata.accept", automata.accept, a, good),
                call("automata.accept", automata.accept, a, bad))

    def check(self, item, out):
        if out != (True, False):
            return "%s pair decided %r, built as (member, non-member)" % (item[0], out)
        return None

    def states(self, firsts):
        return sum(len(a.states) for a in self.autos.values())


# ------------------------------------------------------------ kleene-diff

KLEENE_MAXLEN = 5
# Band on (|language up to length 3| + 1) * |states|: it predicts the cost
# of an operation at length 5 for a fraction of it, and keeps operations of
# like cost.
KLEENE_BAND = (50, 150)
# Enough expressions that the top 1 % of a pass, where the p99 tail falls,
# holds about nine of them rather than one or two.
KLEENE_QUOTA = {expr.NreClass.B: 480, expr.NreClass.U: 288, expr.NreClass.P: 96,
                expr.NreClass.UP: 24}
KLEENE_SHIPPED = (("lses", LSES_TEXT), ("lonet", LONET_TEXT), ("succ_distinct", SUCC_DISTINCT_TEXT))


def children(e):
    return [getattr(e, k) for k in ("l", "r", "e", "body") if hasattr(e, k)]


def subterms(e):
    yield e
    for c in children(e):
        yield from subterms(c)


def nullable(e):
    if isinstance(e, (expr.One, expr.Star)):
        return True
    if isinstance(e, expr.Sum):
        return nullable(e.l) or nullable(e.r)
    if isinstance(e, expr.Cat):
        return nullable(e.l) and nullable(e.r)
    if isinstance(e, expr.Bind):
        return nullable(e.body)
    return False


def unread(b):
    return not any(isinstance(s, (expr.Nam, expr.Under)) and s.n is b.n for s in subterms(b.body))


def loops_over_guesses(e, in_star=False):
    """Whether the run engine may loop without reading: a star over a
    nullable body, or a binder whose name is never read, inside a star or
    over one. The engine then keeps every guessed allocation live, so such
    expressions cost several times what their output predicts."""
    if isinstance(e, expr.Star) and nullable(e.e):
        return True
    if isinstance(e, expr.Bind) and unread(e) and (
            in_star or any(isinstance(s, expr.Star) for s in subterms(e.body))):
        return True
    inside = in_star or isinstance(e, expr.Star)
    return any(loops_over_guesses(c, inside) for c in children(e))


class KleeneDiff(Workload):
    """One closed expression: automaton language vs calculus language."""

    name = "kleene-diff"
    tail_pct = 99
    min_ops = 1000
    setup_code = (
        "from nomre.corpus import ALPHABET, LSES_TEXT, LONET_TEXT, SUCC_DISTINCT_TEXT\n"
        "exprs = [nomre.parse(t, ALPHABET) for t in (LSES_TEXT, LONET_TEXT, SUCC_DISTINCT_TEXT)]\n"
    )

    def prepare(self, seed, smoke):
        rng = random.Random(seed)
        self.pool = seeded_pool(rng)
        maxlen = 3 if smoke else KLEENE_MAXLEN
        items = [(k, expr.parse(t, ALPHABET), maxlen) for k, t in KLEENE_SHIPPED]
        quota = {c: 1 for c in KLEENE_QUOTA} if smoke else dict(KLEENE_QUOTA)
        lo, hi = KLEENE_BAND
        draw = 0
        while any(quota.values()):
            draw += 1
            for e in corpus_of_classes(seed=seed * 1000 + draw, total=400, max_depth=2):
                c = expr.classify(e)
                if not quota[c] or loops_over_guesses(e):
                    continue
                a = compiler.compile_expr(e)
                cost = (len(automata.enumerate_words(a, self.pool, 3)) + 1) * len(a.states)
                if lo <= cost <= hi:
                    quota[c] -= 1
                    items.append(("random", e, maxlen))
        rng.shuffle(items)
        return items

    def op(self, item, call):
        _, e, maxlen = item
        a = call("compiler.compile_expr", compiler.compile_expr, e)
        return (len(a.states),
                call("automata.enumerate_words", automata.enumerate_words, a, self.pool, maxlen),
                call("calculus.language_enumerate", calculus.language_enumerate, e, self.pool, maxlen))

    def check(self, item, out):
        kind, e, maxlen = item
        _, by_automaton, by_calculus = out
        if by_automaton != by_calculus:
            return "Kleene property fails on %s" % expr.render(e)
        return None

    def final_checks(self, firsts):
        errors = []
        for (kind, e, maxlen), (_, words, _) in firsts:
            if kind == "succ_distinct":
                for n in range(1, maxlen + 1):
                    got = sum(1 for w in words if len(w) == n)
                    if got != 3 * 2 ** (n - 1):
                        errors.append("succ_distinct has %d words of length %d" % (got, n))
            elif kind in ("lses", "lonet"):
                ok = lses_ok if kind == "lses" else lonet_ok
                want = brute_language(ok, (A, B) + self.pool, maxlen)
                if words != want:
                    errors.append("%s language differs from its brute-force predicate" % kind)
        return errors

    def states(self, firsts):
        return sum(out[0] for _, out in firsts)


# -------------------------------------------------------------- roundtrip

# Band on the transitions of an input automaton, which predict the cost of
# its round trip well; compiled lths, with 39 transitions and an extracted
# expression of 1,768 characters, costs as much as the middle of the band.
ROUNDTRIP_BAND = (85, 125)
ROUNDTRIP_COUNT = 240
ROUNDTRIP_CHECK_MAXLEN = 4


def combine(rng, bases):
    """A seeded union, concatenation or star over three bases."""
    x, y, z = (rng.choice(bases) for _ in range(3))
    pick = rng.randrange(4)
    if pick == 0:
        return automata.cda_concat(automata.cda_union(x, y), z)
    if pick == 1:
        return automata.cda_union(automata.cda_concat(x, y), automata.cda_star(z))
    if pick == 2:
        return automata.cda_star(automata.cda_concat(x, automata.cda_union(y, z)))
    return automata.cda_concat(automata.cda_concat(x, y), automata.cda_star(z))


class Roundtrip(Workload):
    """Automaton -> extract_expr -> render -> parse -> compile_expr."""

    name = "roundtrip"
    round_ops = 24
    tail_pct = 99
    min_ops = 1000
    setup_code = (
        "from nomre.corpus import ALPHABET, all_expr_texts, handbuilt_automata\n"
        "autos = list(handbuilt_automata().values())\n"
        "autos += [nomre.compile_expr(nomre.parse(t, ALPHABET)) for t in all_expr_texts().values()]\n"
    )

    def setup(self, call):
        self.bases = dict(handbuilt_automata())
        for k, t in all_expr_texts().items():
            self.bases["compiled_" + k] = call(
                "compiler.compile_expr", compiler.compile_expr,
                call("expr.parse", expr.parse, t, ALPHABET))

    def prepare(self, seed, smoke):
        rng = random.Random(seed)
        self.pool = seeded_pool(rng)
        if smoke:
            return [("hand", self.bases[k]) for k in ("lses", "lonet", "lths")]
        items = [("corpus", self.bases["compiled_lths"])]
        bases = [a for k, a in self.bases.items() if k != "compiled_lths"]
        lo, hi = ROUNDTRIP_BAND
        while len(items) < ROUNDTRIP_COUNT:
            a = combine(rng, [combine(rng, bases) for _ in range(3)])
            if lo <= len(a.transitions) <= hi:
                items.append(("random", a))
        rng.shuffle(items)
        return items

    def op(self, item, call):
        e = call("extract.extract_expr", extract.extract_expr, item[1])
        text = call("expr.render", expr.render, e)
        back = call("expr.parse", expr.parse, text, ALPHABET)
        a2 = call("compiler.compile_expr", compiler.compile_expr, back)
        return text, len(a2.states)

    def final_checks(self, firsts):
        errors = []
        for (kind, a), (text, _) in firsts:
            e = expr.parse(text, ALPHABET)
            want = automata.enumerate_words(a, self.pool, ROUNDTRIP_CHECK_MAXLEN)
            if calculus.language_enumerate(e, self.pool, ROUNDTRIP_CHECK_MAXLEN) != want:
                errors.append("extracted %s expression has another language" % kind)
            if expr.classify(e) not in EXTRACT_CLASSES[automata.class_of(a).tag]:
                errors.append("extracted %s expression has class %s" % (kind, expr.classify(e)))
        return errors

    def states(self, firsts):
        return sum(out[1] for _, out in firsts)


# -------------------------------------------------------------------- cli

CLI_FILES = {
    "lses": LSES_TEXT,
    "lonet": LONET_TEXT,
    "succ": SUCC_DISTINCT_TEXT,
    "diamond": DIAMOND_TEXT,
    "lses_alpha": LSES_TEXT.replace("$n", "$k"),
}
CLI_LETTERS = ",".join(ALPHABET)


def dollar(n):
    return "$" + n.key


def word_text(w):
    return " ".join(t.sym if isinstance(t, Letter) else dollar(t) for t in w)


def read_word(line):
    if line == "eps":
        return ()
    return tuple(name(t[1:]) if t.startswith("$") else Letter(t) for t in line.split())


class Cli(Workload):
    """One nomre process per operation, on small corpus files."""

    name = "cli"
    round_ops = 6
    tail_pct = 90
    min_ops = 102

    def __init__(self, root, work):
        self.root = root
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def nomre(self, *args):
        return [sys.executable, "-m", "nomre.cli"] + list(args)

    def run(self, argv):
        p = subprocess.run(argv, cwd=self.work, env=self.env, capture_output=True, text=True)
        return p.returncode, p.stdout

    def path(self, stem, ext):
        return os.path.join(self.work, stem + ext)

    def setup_commands(self):
        return [self.nomre("compile", self.path(k, ".nre"), self.path(k, ".json"),
                           "--letters", CLI_LETTERS) for k in CLI_FILES]

    def setup(self, call):
        for k, text in CLI_FILES.items():
            with open(self.path(k, ".nre"), "w") as f:
                f.write(text + "\n")
        for argv in self.setup_commands():
            code, _ = call("cli.process", self.run, argv)
            if code != 0:
                raise RuntimeError("setup failed: %s" % " ".join(argv))
        self.autos = {k: self.load(k) for k in CLI_FILES}

    def load(self, stem):
        with open(self.path(stem, ".json")) as f:
            return automata.from_json(f.read())

    def prepare(self, seed, smoke):
        rng = random.Random(seed)
        names = fresh_names(rng, "w")
        stems = ["lses", "lonet", "succ", "diamond"]
        items = []
        for i in range(1 if smoke else 17):
            stem = stems[i % len(stems)]
            pool = seeded_pool(rng)
            pool_text = ",".join(dollar(n) for n in pool)
            good, bad = lses_pair(rng, names, rng.randint(4, 10))
            member = rng.random() < 0.5
            other = "lses_alpha" if rng.random() < 0.5 else "lonet"
            items += [
                ("check", stem, self.nomre("check", self.path(stem, ".nre"), "--letters", CLI_LETTERS)),
                ("compile", stem, self.nomre("compile", self.path(stem, ".nre"),
                                             self.path("out_" + stem, ".json"), "--letters", CLI_LETTERS)),
                ("accept", good if member else bad,
                 self.nomre("accept", self.path("lses", ".json"), word_text(good if member else bad))),
                ("enumerate", (stem, pool, 3), self.nomre("enumerate", self.path(stem, ".json"),
                                                         "--pool", pool_text, "--maxlen", "3")),
                ("extract", stem, self.nomre("extract", self.path(stem, ".json"))),
                ("equiv", (other, pool, 4), self.nomre("equiv", self.path("lses", ".json"),
                                                      self.path(other, ".json"),
                                                      "--pool", pool_text, "--maxlen", "4")),
            ]
        return items

    def op(self, item, call):
        return call("cli.process", self.run, item[2])

    def in_process(self, item, call):
        """The same command through cli.main in this process."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = call("cli.main", cli.main, item[2][3:])
        return code, buf.getvalue()

    def check(self, item, out):
        kind, arg, _ = item
        code, text = out
        if kind == "accept":
            want = 0 if lses_ok(arg) else 1
            if code != want:
                return "accept exited %d, built for %d" % (code, want)
        elif kind == "equiv":
            if code != (0 if arg[0] == "lses_alpha" else 1):
                return "equiv lses %s exited %d" % (arg[0], code)
        elif code != 0:
            return "%s %s exited %d" % (kind, arg, code)
        return None

    def final_checks(self, firsts):
        errors = []
        for (kind, arg, _), (code, text) in firsts:
            lines = text.splitlines()
            if kind == "check":
                e = expr.parse(CLI_FILES[arg], ALPHABET)
                if lines[:2] != ["class: %s" % expr.classify(e).value, "well-formed"]:
                    errors.append("check %s printed %r" % (arg, lines))
            elif kind == "compile":
                if self.load("out_" + arg) != compile_text(CLI_FILES[arg]):
                    errors.append("compile %s wrote another automaton" % arg)
            elif kind == "enumerate":
                stem, pool, maxlen = arg
                want = automata.enumerate_words(self.autos[stem], pool, maxlen)
                if {read_word(x) for x in lines} != want or len(lines) != len(want):
                    errors.append("enumerate %s printed another language" % stem)
            elif kind == "extract":
                e = expr.parse(text, ALPHABET)
                pool = (name("x1"), name("x2"), name("x3"))
                if calculus.language_enumerate(e, pool, 4) != automata.enumerate_words(
                        self.autos[arg], pool, 4):
                    errors.append("extract %s printed an expression of another language" % arg)
            elif kind == "equiv" and code == 1:
                other, pool, _ = arg
                w = read_word(lines[0].split(": ", 1)[1])
                if automata.accept(self.autos["lses"], w) == automata.accept(self.autos[other], w):
                    errors.append("equiv printed %r, which both automata decide alike" % lines[0])
        return errors

    def states(self, firsts):
        return sum(len(a.states) for a in self.autos.values())


def probe(call, work):
    """One call into every layer on lses, in the traced run of every
    workload, so that no per-layer metric is left unmeasured."""
    pool = (name("q1"), name("q2"), name("q3"))
    e = call("expr.parse", expr.parse, LSES_TEXT, ALPHABET)
    call("expr.render", expr.render, e)
    a = call("compiler.compile_expr", compiler.compile_expr, e)
    call("automata.accept", automata.accept, a, (A, B) + pool)
    call("automata.enumerate_words", automata.enumerate_words, a, pool, 3)
    call("calculus.language_enumerate", calculus.language_enumerate, e, pool, 3)
    call("extract.extract_expr", extract.extract_expr, a)
    path = os.path.join(work, "probe.json")
    with open(path, "w") as f:
        f.write(automata.to_json(a))
    with contextlib.redirect_stdout(io.StringIO()):
        call("cli.main", cli.main, ["accept", path, "a b $q1 $q2"])


def make(name_, root, work):
    if name_ == "cli":
        return Cli(root, work)
    return {"accept-long": AcceptLong, "kleene-diff": KleeneDiff, "roundtrip": Roundtrip}[name_]()


WORKLOADS = ("accept-long", "kleene-diff", "roundtrip", "cli")
