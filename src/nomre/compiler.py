"""Inductive construction of automata from expressions, in context.

An expression in-context ``C ‡ e ‡ E`` compiles to an automaton whose
initial and final states live on layer |C|. Free names and underlines
read the register holding that name in C. A binder allocates with ``*``,
compiles its body one layer up under a renamed bound name, and closes
every body-final into the register that the static post-context assigns
to the bound name: the top register for a self-closing binder, the
register that held the close name otherwise.

Post-contexts drift at run time once sums or stars are involved; the
automaton semantics tracks real chronicles, and the static post-context
is consulted only for close-index resolution. That needs only its
current values, so the compiler threads those alone. The left side of a
concatenation and star bodies compile against the natural chronicle of
C, whose current values are C itself: the frame every loop entry
restarts from.
"""

from dataclasses import dataclass

from .automata import Cda, EPS, STAR, State, lab_close, lab_letter, lab_reg, lab_under
from .errors import CompileError
from .expr import Bind, Cat, Lit, Nam, One, Star, Sum, Under, Zero, apply_perm_expr, check_wellformed, render
from .nominal import Chronicle, hcv, sys_name, transpose


@dataclass(frozen=True)
class ContextTriple:
    pre: tuple  # pairwise distinct names/placeholders
    payload: object
    post: tuple  # extant chronicle

    def __post_init__(self):
        if len(set(self.pre)) != len(self.pre):
            raise CompileError("pre-context is not repetition-free")


class _Builder:
    """Accumulates states and edges; finality is assigned once at the top."""

    def __init__(self):
        self.states = []
        self.transitions = []
        self.counter = 0
        self.scratch = 0

    def state(self, regs):
        sid = "q%d" % self.counter
        self.counter += 1
        self.states.append(State(sid, regs, False))
        return sid

    def edge(self, f, lab, t):
        self.transitions.append((f, lab, t))

    def fresh_name(self):
        n = sys_name(self.scratch)
        self.scratch += 1
        return n

    def build(self, e, pre, vals):
        """Returns (initial, finals) of the sub-automaton for pre ‡ e ‡ post,
        where vals are the current values of the static post-context."""
        k = len(pre)
        if isinstance(e, One):
            q = self.state(k)
            return q, [q]
        if isinstance(e, Zero):
            q = self.state(k)
            return q, []
        if isinstance(e, Lit):
            q0 = self.state(k)
            q1 = self.state(k)
            self.edge(q0, lab_letter(e.s), q1)
            return q0, [q1]
        if isinstance(e, (Nam, Under)):
            if e.n not in pre:
                raise CompileError("free name %r has no register in context %r" % (e.n, list(pre)))
            i = pre.index(e.n) + 1
            q0 = self.state(k)
            q1 = self.state(k)
            self.edge(q0, lab_reg(i) if isinstance(e, Nam) else lab_under(i), q1)
            return q0, [q1]
        if isinstance(e, Sum):
            q0 = self.state(k)
            i1, f1 = self.build(e.l, pre, vals)
            i2, f2 = self.build(e.r, pre, vals)
            self.edge(q0, EPS, i1)
            self.edge(q0, EPS, i2)
            return q0, f1 + f2
        if isinstance(e, Cat):
            i1, f1 = self.build(e.l, pre, pre)
            i2, f2 = self.build(e.r, pre, vals)
            for f in f1:
                self.edge(f, EPS, i2)
            return i1, f2
        if isinstance(e, Star):
            # A fresh hub marks iteration boundaries. Reusing the body's
            # initial as the star's final over-accepts whenever the body
            # can re-enter its own initial mid-run (a star at the head of
            # the body does exactly that).
            hub = self.state(k)
            i1, f1 = self.build(e.e, pre, pre)
            self.edge(hub, EPS, i1)
            for f in f1:
                self.edge(f, EPS, hub)
            return hub, [hub]
        if isinstance(e, Bind):
            return self._build_binder(e, pre, vals)
        raise TypeError(e)

    def _build_binder(self, e, pre, vals):
        k = len(pre)
        x = self.fresh_name()
        body = apply_perm_expr(transpose(e.n, x), e.body)
        if e.close is e.n:
            sub_vals = vals + (x,)
        else:
            if e.close not in vals:
                raise CompileError(
                    "close name %r is not a current value of the post-context of `%s`"
                    % (e.close, render(e))
                )
            sub_vals = tuple(map(transpose(e.close, x), vals)) + (e.close,)
        if sub_vals.count(x) != 1:
            raise CompileError("no unique close register for `%s`" % render(e))
        close_ix = sub_vals.index(x) + 1
        qs = self.state(k)
        qt = self.state(k)
        i0, fs = self.build(body, pre + (x,), sub_vals)
        self.edge(qs, STAR, i0)
        for f in fs:
            self.edge(f, lab_close(close_ix), qt)
        return qs, [qt]


def compile_in_context(t: ContextTriple) -> Cda:
    """Build the automaton in-context for a context triple over an expression."""
    b = _Builder()
    for c in t.post:
        if not isinstance(c, Chronicle):
            raise CompileError("post-context must be an extant chronicle")
    init, finals = b.build(t.payload, tuple(t.pre), hcv(t.post))
    keep_final = set(finals)
    states = tuple(State(s.id, s.regs, s.id in keep_final) for s in b.states)
    return Cda(states, init, tuple(b.transitions))


def compile_expr(e) -> Cda:
    """Compile a closed well-formed expression to an automaton."""
    rep = check_wellformed(e)
    if not rep.ok:
        raise CompileError("ill-formed expression: %s" % "; ".join(map(str, rep.issues)))
    if not rep.closed:
        raise CompileError(
            "expression is open; free names: %s" % ", ".join(sorted(map(repr, rep.free)))
        )
    return compile_in_context(ContextTriple((), e, ()))
