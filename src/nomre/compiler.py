"""Inductive construction of automata from expressions, in context.

An expression in-context ``C ‡ e ‡ E`` compiles to an automaton whose
initial and final states live on layer |C|. Registers are positions: the
binder at level k allocates register k + 1 with ``*``, and a name or
underline reads the register of its innermost binding in C extended by
the enclosing binders (its de Bruijn level), so no body is ever renamed.
A binder closes every body-final into the register that the static
post-context assigns to its level: the top register for a self-closing
binder, the register that held the close name otherwise.

Post-contexts drift at run time once sums or stars are involved; the
automaton semantics tracks real chronicles, and the static post-context
is consulted only for close-index resolution. That needs only the levels
of its current values, so the compiler threads those alone. The left side
of a concatenation and star bodies compile against the natural chronicle
of C, whose current values are C itself: the frame every loop entry
restarts from.
"""

from .automata import Cda, EPS, STAR, State, lab_close, lab_letter, lab_reg, lab_under
from .errors import CompileError
from .expr import Bind, Cat, ContextTriple, Lit, Nam, One, Star, Sum, Under, Zero, check_wellformed, render
from .nominal import hcv


def _level(pre, n):
    """The position of n's innermost binding in pre."""
    if n not in pre:
        raise CompileError("free name %r has no register in context %r" % (n, list(pre)))
    return len(pre) - 1 - pre[::-1].index(n)


class _Builder:
    """Accumulates (id, regs) pairs and edges; finality is assigned at the top."""

    def __init__(self):
        self.states = []
        self.transitions = []

    def state(self, regs):
        sid = "q%d" % len(self.states)
        self.states.append((sid, regs))
        return sid

    def edge(self, f, lab, t):
        self.transitions.append((f, lab, t))

    def build(self, e, pre, vals):
        """Returns (initial, finals) of the sub-automaton for pre ‡ e ‡ post,
        where pre holds the names in scope, outermost first, and vals the
        levels of the static post-context's current values; a value that pre
        does not bind stands for itself."""
        k = len(pre)
        if isinstance(e, (One, Zero)):
            q = self.state(k)
            return q, [q] if isinstance(e, One) else []
        if isinstance(e, (Lit, Nam, Under)):
            if isinstance(e, Lit):
                lab = lab_letter(e.s)
            else:
                lab = (lab_reg if isinstance(e, Nam) else lab_under)(_level(pre, e.n) + 1)
            q0 = self.state(k)
            q1 = self.state(k)
            self.edge(q0, lab, q1)
            return q0, [q1]
        if isinstance(e, Sum):
            q0 = self.state(k)
            i1, f1 = self.build(e.l, pre, vals)
            i2, f2 = self.build(e.r, pre, vals)
            self.edge(q0, EPS, i1)
            self.edge(q0, EPS, i2)
            return q0, f1 + f2
        if isinstance(e, Cat):
            i1, f1 = self.build(e.l, pre, tuple(range(k)))
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
            i1, f1 = self.build(e.e, pre, tuple(range(k)))
            self.edge(hub, EPS, i1)
            for f in f1:
                self.edge(f, EPS, hub)
            return hub, [hub]
        if isinstance(e, Bind):
            # Level k lands in the top register if self-closing, else in the
            # close name's register, whose level moves to the top.
            if e.close is e.n:
                sub_vals = vals + (k,)
            else:
                m = _level(pre, e.close) if e.close in pre else e.close
                if m not in vals:
                    raise CompileError(
                        "close name %r is not a current value of the post-context of `%s`"
                        % (e.close, render(e))
                    )
                sub_vals = tuple(k if v == m else v for v in vals) + (m,)
            close_ix = sub_vals.index(k) + 1
            qs = self.state(k)
            qt = self.state(k)
            i0, fs = self.build(e.body, pre + (e.n,), sub_vals)
            self.edge(qs, STAR, i0)
            for f in fs:
                self.edge(f, lab_close(close_ix), qt)
            return qs, [qt]
        raise TypeError(e)


def compile_in_context(t: ContextTriple) -> Cda:
    """Build the automaton in-context for a context triple over an expression."""
    level = {n: i for i, n in enumerate(t.pre)}
    b = _Builder()
    init, finals = b.build(t.payload, t.pre, tuple(level.get(v, v) for v in hcv(t.post)))
    finals = set(finals)
    states = [State(sid, regs, sid in finals) for sid, regs in b.states]
    return Cda(states, init, b.transitions)


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
