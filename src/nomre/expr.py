"""Abstract syntax, grammar, and static analysis of nominal regular expressions.

Concrete grammar (whitespace-insensitive):

    expr    := term ('+' term)*
    term    := factor factor*            juxtaposition is concatenation
    factor  := atom '*'*                 postfix star binds tightest
    atom    := '1' | '0' | letter | '$'ident | '_' '$'ident
             | '<' '$'ident '.' expr '>' ('$'ident)?
             | '(' expr ')'

Letters are bare identifiers from the declared finite alphabet; a maximal
identifier not itself in the alphabet is split greedily into alphabet
symbols (so "ab" lexes as two letters when the alphabet is {a, b}).
A binder ``<$n. e >`` closes on its own name; ``<$n. e >$m`` deallocates m
and leaks n on exit. The close annotation attaches to ``>`` without
whitespace; ``<$n.$n> $m`` is a self-closing binder followed by the name m.
"""

import enum
import re
from dataclasses import dataclass

from .errors import ParseError
from .nominal import Letter, Name, name, transpose


@dataclass(frozen=True, slots=True)
class One:
    def __repr__(self):
        return "1"


@dataclass(frozen=True, slots=True)
class Zero:
    def __repr__(self):
        return "0"


@dataclass(frozen=True, slots=True)
class Lit:
    s: Letter

    def __repr__(self):
        return self.s.sym


@dataclass(frozen=True, slots=True)
class Nam:
    n: Name

    def __repr__(self):
        return repr(self.n)


@dataclass(frozen=True, slots=True)
class Under:
    n: Name

    def __repr__(self):
        return "_" + repr(self.n)


@dataclass(frozen=True, slots=True)
class Sum:
    l: "Nre"
    r: "Nre"


@dataclass(frozen=True, slots=True)
class Cat:
    l: "Nre"
    r: "Nre"


@dataclass(frozen=True, slots=True)
class Star:
    e: "Nre"


@dataclass(frozen=True, slots=True)
class Bind:
    n: Name
    body: "Nre"
    close: Name


Nre = One | Zero | Lit | Nam | Under | Sum | Cat | Star | Bind

ONE = One()
ZERO = Zero()


class NreClass(enum.Enum):
    B = "b-NRE"
    P = "p-NRE"
    U = "u-NRE"
    UP = "up-NRE"


# ---------------------------------------------------------------- lexing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<close>>\$[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<name>\$[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<under>_)"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9_']*)"
    r"|(?P<punct>[10+*<>().]))"
)


def _linecol(text, i):
    line = text.count("\n", 0, i) + 1
    return line, i - text.rfind("\n", 0, i)


def _lex(text, alphabet):
    """Tokens: (kind, value, line, col). Splits identifier runs by alphabet."""
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            rest = text[pos:]
            if not rest.strip():
                break
            bad = pos + len(rest) - len(rest.lstrip())
            line, col = _linecol(text, bad)
            raise ParseError("unexpected character %r" % text[bad], line, col)
        line, col = _linecol(text, m.start(m.lastgroup))
        val = m.group(m.lastgroup)
        kind = m.lastgroup
        if kind == "ident":
            for part in _split_letters(val, alphabet, line, col):
                toks.append(("letter", part, line, col))
        elif kind == "name":
            toks.append(("name", val[1:], line, col))
        elif kind == "close":
            toks.append(("close", val[2:], line, col))
        elif kind == "under":
            toks.append(("_", val, line, col))
        else:
            toks.append((val, val, line, col))
        pos = m.end()
    line, col = _linecol(text, len(text))
    toks.append(("eof", "", line, col))
    return toks


def _split_letters(ident, alphabet, line, col):
    if ident in alphabet:
        return [ident]
    if all(ch in alphabet for ch in ident):
        return list(ident)
    raise ParseError("letter %r not in alphabet" % ident, line, col)


# ---------------------------------------------------------------- parsing

class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None):
        tok = self.toks[self.i]
        if kind is not None and tok[0] != kind:
            raise ParseError("expected %s, found %r" % (kind, tok[1] or "end of input"), tok[2], tok[3])
        self.i += 1
        return tok

    def expr(self):
        e = self.term()
        while self.peek()[0] == "+":
            self.take()
            e = Sum(e, self.term())
        return e

    def term(self):
        e = self.factor()
        while self.peek()[0] in ("1", "0", "letter", "name", "_", "<", "("):
            e = Cat(e, self.factor())
        return e

    def factor(self):
        e = self.atom()
        while self.peek()[0] == "*":
            self.take()
            e = Star(e)
        return e

    def atom(self):
        kind, val, line, col = self.peek()
        if kind == "1":
            self.take()
            return ONE
        if kind == "0":
            self.take()
            return ZERO
        if kind == "letter":
            self.take()
            return Lit(Letter(val))
        if kind == "name":
            self.take()
            return Nam(name(val))
        if kind == "_":
            self.take()
            tok = self.take("name")
            return Under(name(tok[1]))
        if kind == "(":
            self.take()
            e = self.expr()
            self.take(")")
            return e
        if kind == "<":
            self.take()
            bound = name(self.take("name")[1])
            self.take(".")
            body = self.expr()
            if self.peek()[0] == "close":
                return Bind(bound, body, name(self.take()[1]))
            self.take(">")
            return Bind(bound, body, bound)
        raise ParseError("unexpected %r" % (val or "end of input"), line, col)


def parse(text, alphabet=()):
    """Parse expression text against a declared alphabet of letters."""
    alpha = {a.sym if isinstance(a, Letter) else a for a in alphabet}
    p = _Parser(_lex(text, alpha))
    e = p.expr()
    p.take("eof")
    return e


# --------------------------------------------------------------- rendering

def _prec(e):
    # 0 = sum, 1 = concat, 2 = star/atom
    if isinstance(e, Sum):
        return 0
    if isinstance(e, Cat):
        return 1
    return 2


def _wrap(e, minimum):
    s = render(e)
    return "(" + s + ")" if _prec(e) < minimum else s


def render(e):
    """Canonical text form; parse(render(e)) is structurally e."""
    if isinstance(e, One):
        return "1"
    if isinstance(e, Zero):
        return "0"
    if isinstance(e, Lit):
        return e.s.sym
    if isinstance(e, Nam):
        return repr(e.n)
    if isinstance(e, Under):
        return "_" + repr(e.n)
    if isinstance(e, Sum):
        return "%s + %s" % (_wrap(e.l, 0), _wrap(e.r, 1) if isinstance(e.r, Sum) else _wrap(e.r, 0))
    if isinstance(e, Cat):
        return "%s %s" % (_wrap(e.l, 1), _wrap(e.r, 2) if isinstance(e.r, Cat) else _wrap(e.r, 1))
    if isinstance(e, Star):
        return _wrap(e.e, 2) + "*"
    if isinstance(e, Bind):
        body = render(e.body)
        if e.close is e.n:
            return "<%r.%s>" % (e.n, body)
        return "<%r.%s>%r" % (e.n, body, e.close)
    raise TypeError(e)


# ---------------------------------------------------------------- analysis

def _walk(e):
    yield e
    if isinstance(e, (Sum, Cat)):
        yield from _walk(e.l)
        yield from _walk(e.r)
    elif isinstance(e, Star):
        yield from _walk(e.e)
    elif isinstance(e, Bind):
        yield from _walk(e.body)


def classify(e):
    """Least grammar class containing e."""
    has_under = any(isinstance(sub, Under) for sub in _walk(e))
    has_perm = any(isinstance(sub, Bind) and sub.close is not sub.n for sub in _walk(e))
    if has_under and has_perm:
        return NreClass.UP
    if has_under:
        return NreClass.U
    if has_perm:
        return NreClass.P
    return NreClass.B


def free_names(e):
    """Names with an occurrence outside every binder of that name.

    The close name of ``<$n.e>$m`` counts as a use of m resolved outside
    the binder.
    """
    def go(e, bound):
        if isinstance(e, Nam) or isinstance(e, Under):
            return frozenset() if e.n in bound else frozenset((e.n,))
        if isinstance(e, (Sum, Cat)):
            return go(e.l, bound) | go(e.r, bound)
        if isinstance(e, Star):
            return go(e.e, bound)
        if isinstance(e, Bind):
            out = go(e.body, bound | {e.n})
            if e.close is not e.n and e.close not in bound:
                out |= {e.close}
            return out
        return frozenset()

    return go(e, frozenset())


@dataclass(frozen=True, slots=True)
class Issue:
    kind: str
    subterm: str
    detail: str

    def __str__(self):
        return "%s at `%s`: %s" % (self.kind, self.subterm, self.detail)


@dataclass(frozen=True, slots=True)
class WfReport:
    ok: bool
    issues: tuple
    free: frozenset

    @property
    def closed(self):
        return not self.free


def check_wellformed(e):
    """Scope condition, underline locality, and the free-name set.

    Closedness itself is not a violation (open expressions are legal in
    contexts); callers that need a closed expression check ``report.closed``.
    """
    issues = []

    def go(e, bound):
        if isinstance(e, Under):
            if e.n not in bound:
                issues.append(Issue("underline-locality", render(e), "_$%s has no enclosing binder of $%s" % (e.n.key, e.n.key)))
        elif isinstance(e, (Sum, Cat)):
            go(e.l, bound)
            go(e.r, bound)
        elif isinstance(e, Star):
            go(e.e, bound)
        elif isinstance(e, Bind):
            if e.close is not e.n and e.close not in bound:
                issues.append(Issue("scope-condition", render(e), "close name $%s is not bound by an enclosing binder" % e.close.key))
            go(e.body, bound | {e.n})

    go(e, frozenset())
    return WfReport(not issues, tuple(issues), free_names(e))


def apply_perm_expr(p, e):
    """Structural permutation action; maps binder and close names too."""
    if isinstance(e, (One, Zero, Lit)):
        return e
    if isinstance(e, Nam):
        return Nam(p(e.n))
    if isinstance(e, Under):
        return Under(p(e.n))
    if isinstance(e, Sum):
        return Sum(apply_perm_expr(p, e.l), apply_perm_expr(p, e.r))
    if isinstance(e, Cat):
        return Cat(apply_perm_expr(p, e.l), apply_perm_expr(p, e.r))
    if isinstance(e, Star):
        return Star(apply_perm_expr(p, e.e))
    if isinstance(e, Bind):
        return Bind(p(e.n), apply_perm_expr(p, e.body), p(e.close))
    raise TypeError(e)


def _alpha_canon(e, env):
    """de Bruijn form; close names resolve to the level of their binder."""
    if isinstance(e, (One, Zero, Lit)):
        return e
    if isinstance(e, (Nam, Under)):
        tag = "n" if isinstance(e, Nam) else "u"
        if e.n in env:
            return (tag, "b", len(env) - 1 - env.index(e.n))
        return (tag, "f", e.n)
    if isinstance(e, Sum):
        return ("+", _alpha_canon(e.l, env), _alpha_canon(e.r, env))
    if isinstance(e, Cat):
        return (".", _alpha_canon(e.l, env), _alpha_canon(e.r, env))
    if isinstance(e, Star):
        return ("*", _alpha_canon(e.e, env))
    if isinstance(e, Bind):
        if e.close is e.n:
            close = ("self",)
        elif e.close in env:
            close = ("b", len(env) - 1 - env.index(e.close))
        else:
            close = ("f", e.close)
        return ("<>", close, _alpha_canon(e.body, env + [e.n]))
    raise TypeError(e)


def alpha_eq(e1, e2):
    """Equality up to consistent renaming of bound names."""
    return _alpha_canon(e1, []) == _alpha_canon(e2, [])


def binder_depth(e):
    if isinstance(e, (Sum, Cat)):
        return max(binder_depth(e.l), binder_depth(e.r))
    if isinstance(e, Star):
        return binder_depth(e.e)
    if isinstance(e, Bind):
        return 1 + binder_depth(e.body)
    return 0


def rename_bound(e, old, new):
    """Consistently rename one bound name (helper for alpha variants)."""
    if isinstance(e, Bind) and e.n is old:
        body = apply_perm_expr(transpose(old, new), e.body)
        close = new if e.close is old else e.close
        return Bind(new, body, close)
    if isinstance(e, Sum):
        return Sum(rename_bound(e.l, old, new), rename_bound(e.r, old, new))
    if isinstance(e, Cat):
        return Cat(rename_bound(e.l, old, new), rename_bound(e.r, old, new))
    if isinstance(e, Star):
        return Star(rename_bound(e.e, old, new))
    if isinstance(e, Bind):
        return Bind(e.n, rename_bound(e.body, old, new), e.close)
    return e


def classify_first_degree(e):
    """Prefix length h when e is an h-prefixed first-degree expression.

    The shape is <$n1. ... <$nh. fne > ... > with pairwise distinct prefix
    names, where fne uses only letters, 1, 0, names and underlines of the
    prefix names, the regular operators, and read-and-store binder atoms
    <$x.$x>$ni whose close name is one of the prefix names. Returns None
    when no prefix split fits.
    """
    prefix = []
    node = e
    while isinstance(node, Bind) and node.close is node.n and node.n not in prefix:
        prefix.append(node.n)
        node = node.body

    def fne_ok(t, names):
        if isinstance(t, (One, Zero, Lit)):
            return True
        if isinstance(t, (Nam, Under)):
            return t.n in names
        if isinstance(t, (Sum, Cat)):
            return fne_ok(t.l, names) and fne_ok(t.r, names)
        if isinstance(t, Star):
            return fne_ok(t.e, names)
        if isinstance(t, Bind):
            return (
                t.n not in names
                and isinstance(t.body, Nam)
                and t.body.n is t.n
                and t.close in names
            )
        return False

    for h in range(len(prefix), -1, -1):
        body = e
        for _ in range(h):
            body = body.body
        if fne_ok(body, set(prefix[:h])):
            return h
    return None
