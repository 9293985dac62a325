"""Abstract syntax, grammar, and static analysis of nominal regular expressions.

Concrete grammar (whitespace-insensitive):

    expr    := term ('+' term)*
    term    := factor factor*            juxtaposition is concatenation
    factor  := atom '*'*                 postfix star binds tightest
    atom    := '1' | '0' | letter | '$'ident | '_' '$'ident
             | '<' '$'ident '.' expr '>' ('$'ident)?
             | '(' expr ')'

Letters are bare identifiers from the declared finite alphabet; a maximal
identifier not itself in the alphabet is split into its characters when
each is a letter (so "ab" lexes as two letters when the alphabet is
{a, b}), and is an error otherwise ("abc" over {ab, c}).
A binder ``<$n. e >`` closes on its own name; ``<$n. e >$m`` deallocates m
and leaks n on exit. The close annotation attaches to ``>`` without
whitespace; ``<$n.$n> $m`` is a self-closing binder followed by the name m.
"""

import enum
import re

from .errors import ContextError, ParseError, bounded
from .nominal import Chronicle, Letter, Name, _Atom, _Value, _field_repr, _set, check_renaming, hcv, name


class _Node(_Atom, base=True):
    """An expression node, interned like a name: equal nodes are identical,
    so == is identity, and a node hashes as its field tuple, computed once."""

    __slots__ = ("_hash",)

    def __hash__(self):
        return self._hash

    __repr__ = _field_repr


class One(_Node):
    __slots__ = ()


class Zero(_Node):
    __slots__ = ()


class Lit(_Node):
    __slots__ = ("s",)


class Nam(_Node):
    __slots__ = ("n",)


class Under(_Node):
    __slots__ = ("n",)


class Sum(_Node):
    __slots__ = ("l", "r")


class Cat(_Node):
    __slots__ = ("l", "r")


class Star(_Node):
    __slots__ = ("e",)


class Bind(_Node):
    __slots__ = ("n", "body", "close")


Nre = One | Zero | Lit | Nam | Under | Sum | Cat | Star | Bind

ONE = One()
ZERO = Zero()


class ContextTriple(_Value):
    """An expression in context ``C ‡ e ‡ E``. The pre-context C holds
    pairwise distinct names, outermost first; the post-context E is an
    extant chronicle: one Chronicle of names per name of C, with pairwise
    distinct current values. Both are stored as tuples. This is the one
    place the contract is checked; a context that breaks it raises
    ContextError."""

    __slots__ = ("pre", "payload", "post")

    def __init__(self, pre, payload, post):
        pre, post = tuple(pre), tuple(post)
        if not all(isinstance(n, Name) for n in pre) or len(set(pre)) != len(pre):
            raise ContextError("pre-context must hold pairwise distinct names: %r" % (list(pre),))
        if (len(post) != len(pre) or not all(isinstance(c, Chronicle) for c in post)
                or not all(isinstance(x, Name) for c in post for x in c.hist)
                or len(set(hcv(post))) != len(post)):
            raise ContextError("post-context must be an extant chronicle of names, one per pre-context name: %r" % (post,))
        _set(self, "pre", pre)
        _set(self, "payload", payload)
        _set(self, "post", post)


def context_violation(t):
    """Why the expression of a ContextTriple is not legal in its context, or
    None. A free read must be in the pre-context. A free close name must be
    a current value where its binder closes: in the pre-context after a
    Cat's left or inside a star, in the post-context in tail position (a
    star's last iteration is, so inside a star in both). The empty context
    makes exactly the closed expressions legal."""
    rep = check_wellformed(t.payload)
    for names, held, why in (
        (rep.free_reads, t.pre, "free name %r not in pre-context %r"),
        (rep.closes_in_pre, t.pre, "close name %r is not in the pre-context %r"),
        (rep.closes_in_post, hcv(t.post), "close name %r is not a current value of the post-context %r"),
    ):
        missing = names.difference(held)
        if missing:
            return why % (min(missing, key=repr), list(held))
    return None


class NreClass(enum.Enum):
    B = "b-NRE"
    P = "p-NRE"
    U = "u-NRE"
    UP = "up-NRE"


# ---------------------------------------------------------------- lexing

# The spelling of a letter: a bare identifier. The lexer reads one with this
# pattern, and extraction rejects a letter it would not read back.
LETTER_RE = re.compile(r"[A-Za-z][A-Za-z0-9_']*")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<close>>\$[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<name>\$[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<under>_)"
    r"|(?P<ident>" + LETTER_RE.pattern + ")"
    r"|(?P<punct>[10+*<>().]))"
)


def _parse_error(text, i, msg):
    """A ParseError at character offset i, reported as (line, column)."""
    return ParseError(msg, text.count("\n", 0, i) + 1, i - text.rfind("\n", 0, i))


def _lex(text, alphabet):
    """Tokens: (kind, value, offset). Splits identifier runs by alphabet."""
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            rest = text[pos:]
            if not rest.strip():
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise _parse_error(text, bad, "unexpected character %r" % text[bad])
        at = m.start(m.lastgroup)
        val = m.group(m.lastgroup)
        kind = m.lastgroup
        if kind == "ident":
            for part in _split_letters(val, alphabet, text, at):
                toks.append(("letter", part, at))
        elif kind == "name":
            toks.append(("name", val[1:], at))
        elif kind == "close":
            toks.append(("close", val[2:], at))
        elif kind == "under":
            toks.append(("_", val, at))
        else:
            toks.append((val, val, at))
        pos = m.end()
    toks.append(("eof", "", len(text)))
    return toks


def _split_letters(ident, alphabet, text, at):
    if ident in alphabet:
        return [ident]
    if all(ch in alphabet for ch in ident):
        return list(ident)
    raise _parse_error(text, at, "letter %r not in alphabet" % ident)


# ---------------------------------------------------------------- parsing

class _Parser:
    def __init__(self, text, toks):
        self.text = text
        self.toks = toks
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None):
        tok = self.toks[self.i]
        if kind is not None and tok[0] != kind:
            raise _parse_error(self.text, tok[2], "expected %s, found %r" % (kind, tok[1] or "end of input"))
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
        kind, val, at = self.peek()
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
        raise _parse_error(self.text, at, "unexpected %r" % (val or "end of input"))


@bounded
def parse(text, alphabet=()):
    """Parse expression text against a declared alphabet of letters. Text
    nested past Python's recursion limit is a ResourceLimitError."""
    alpha = {a.sym if isinstance(a, Letter) else a for a in alphabet}
    p = _Parser(text, _lex(text, alpha))
    e = p.expr()
    p.take("eof")
    return e


# --------------------------------------------------------------- rendering

@bounded
def render(e):
    """Canonical text form; parse(render(e)) is e. An expression nested
    past Python's recursion limit is a ResourceLimitError."""
    return _render(e, 0)


def _render(e, prec):
    """e's text, parenthesized when e binds looser than prec: 0 for a sum,
    1 for a concatenation, 2 for a star or an atom."""
    if isinstance(e, Sum):
        s = "%s + %s" % (_render(e.l, 0), _render(e.r, 1))
        return "(" + s + ")" if prec > 0 else s
    if isinstance(e, Cat):
        s = "%s %s" % (_render(e.l, 1), _render(e.r, 2))
        return "(" + s + ")" if prec > 1 else s
    if isinstance(e, Star):
        return _render(e.e, 2) + "*"
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
    if isinstance(e, Bind):
        body = _render(e.body, 0)
        if e.close is e.n:
            return "<%r.%s>" % (e.n, body)
        return "<%r.%s>%r" % (e.n, body, e.close)
    raise TypeError(e)


# ---------------------------------------------------------------- analysis

class Issue(_Value):
    __slots__ = ("kind", "subterm", "detail")

    def __str__(self):
        return "%s at `%s`: %s" % (self.kind, self.subterm, self.detail)


class WfReport(_Value):
    """What check_wellformed finds. free_reads: the free names that some $n
    or _$n reads; closes_in_pre: the free close names of a binder after a
    Cat's left or in a star; closes_in_post: those of a binder in tail
    position."""

    __slots__ = ("ok", "issues", "free", "nre_class", "free_reads", "closes_in_pre", "closes_in_post")

    @property
    def closed(self):
        return not self.free


@bounded
def check_wellformed(e):
    """The package's one scope walk: scope condition and underline locality
    issues, the free-name set, and the least grammar class, in one pass.

    A free name has an occurrence outside every binder of that name; the
    close name of ``<$n.e>$m`` counts as a use of m resolved outside the
    binder. The free names that a read uses are reported apart, and so is
    where each free close name must be held (see ``context_violation``).
    Closedness itself is not a violation (open expressions are legal
    in contexts); callers that need a closed expression check
    ``report.closed``. An expression nested past Python's recursion limit
    is a ResourceLimitError.
    """
    issues = []
    reads, closes = set(), {"pre": set(), "post": set()}
    kinds = set()  # Under once an underline occurs, Bind once a permuting binder does

    def go(e, bound, where):
        # where: the contexts that must hold a free close name here
        if isinstance(e, Nam):
            if e.n not in bound:
                reads.add(e.n)
        elif isinstance(e, Under):
            kinds.add(Under)
            if e.n not in bound:
                reads.add(e.n)
                issues.append(Issue("underline-locality", render(e), "_%r has no enclosing binder of %r" % (e.n, e.n)))
        elif isinstance(e, (Sum, Cat)):
            go(e.l, bound, ("pre",) if isinstance(e, Cat) else where)
            go(e.r, bound, where)
        elif isinstance(e, Star):
            go(e.e, bound, ("pre", "post") if "post" in where else ("pre",))
        elif isinstance(e, Bind):
            if e.close is not e.n:
                kinds.add(Bind)
                if e.close not in bound:
                    for ctx in where:
                        closes[ctx].add(e.close)
                    issues.append(Issue("scope-condition", render(e), "close name %r is not bound by an enclosing binder" % (e.close,)))
            go(e.body, bound | {e.n}, where)
        elif not isinstance(e, (One, Zero, Lit)):
            raise TypeError(e)

    go(e, frozenset(), ("post",))
    under, perm = Under in kinds, Bind in kinds
    cls = NreClass.UP if under and perm else NreClass.U if under else NreClass.P if perm else NreClass.B
    pre, post = frozenset(closes["pre"]), frozenset(closes["post"])
    return WfReport(not issues, tuple(issues), frozenset(reads) | pre | post, cls, frozenset(reads), pre, post)


def classify(e):
    """Least grammar class containing e."""
    return check_wellformed(e).nre_class


def free_names(e):
    """Names with an occurrence outside every binder of that name."""
    return check_wellformed(e).free


@bounded
def apply_perm_expr(m, e):
    """Structural action of the renaming dict m (identity off its keys);
    maps binder and close names too. A non-injective m would capture names,
    so it is a ValidationError, as is a key or value that is no name. An
    expression nested past Python's recursion limit is a
    ResourceLimitError."""
    check_renaming(m)
    return _rename(m, e)


def _rename(m, e):
    if isinstance(e, (One, Zero, Lit)):
        return e
    if isinstance(e, Nam):
        return Nam(m.get(e.n, e.n))
    if isinstance(e, Under):
        return Under(m.get(e.n, e.n))
    if isinstance(e, Sum):
        return Sum(_rename(m, e.l), _rename(m, e.r))
    if isinstance(e, Cat):
        return Cat(_rename(m, e.l), _rename(m, e.r))
    if isinstance(e, Star):
        return Star(_rename(m, e.e))
    if isinstance(e, Bind):
        return Bind(m.get(e.n, e.n), _rename(m, e.body), m.get(e.close, e.close))
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


@bounded
def alpha_eq(e1, e2):
    """Equality up to consistent renaming of bound names. An expression
    nested past Python's recursion limit is a ResourceLimitError."""
    return _alpha_canon(e1, []) == _alpha_canon(e2, [])


@bounded
def classify_first_degree(e):
    """Prefix length h when e is an h-prefixed first-degree expression.

    The shape is <$n1. ... <$nh. fne > ... > with pairwise distinct prefix
    names, where fne uses only letters, 1, 0, names and underlines of the
    prefix names, the regular operators, and read-and-store binder atoms
    <$x.$x>$ni whose close name is one of the prefix names. Returns None
    when the body under the whole prefix is no such fne. Only the whole
    prefix can fit: a shorter one leaves a self-closing binder at the head
    of the body, and fne admits no self-closing binder (its close name
    would have to be a prefix name and not one at once). An expression
    nested past Python's recursion limit is a ResourceLimitError.
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

    return len(prefix) if fne_ok(node, set(prefix)) else None
