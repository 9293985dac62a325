"""Reference semantics: the test oracles, kept off the production paths.

``step`` and ``accept_reference`` run an automaton one move at a time on
whole configurations, choosing real machine names for fresh allocations;
``automata.accept`` must agree with them, and ``enumerate_reference``,
which tries every word, with ``automata.enumerate_words``.
``forest_language_enumerate`` evaluates the derivation forest of
``calculus.ctxc_derive`` tree by tree; ``calculus.language_enumerate`` must
agree with it on expressions whose every star iteration reads a symbol.
Both enumeration oracles try every pool name wherever a name can go, where
the production enumerators compute one word per renaming class and
expand it.
``equal_mod_renaming`` compares schematic words up to a
renaming of placeholders. No module of the package imports this one.
"""

from dataclasses import dataclass
import itertools

from .automata import validate
from .calculus import Global, Neq, SchematicWord, ctxc_derive, lngc_eval, schematic_normalize
from .calculus import _cond_ok, _require_closed
from .errors import ResourceLimitError, ValidationError
from .expr import ContextTriple
from .nominal import Chronicle, Letter, Name, hcv, is_placeholder, sys_name


# ----------------------------------------------------------- run semantics

@dataclass(frozen=True, slots=True)
class Configuration:
    state: str
    pos: int
    extant: tuple  # of Chronicle, register order


def canonical_fresh(avoid):
    """Least reserved name not in ``avoid``.

    The reserved sequence is disjoint from user names, so machine-chosen
    fresh names never collide with input data.
    """
    k = 0
    while sys_name(k) in avoid:
        k += 1
    return sys_name(k)


def _names(w):
    return tuple(dict.fromkeys(t for t in w if isinstance(t, Name)))


def step(a, c, w):
    """Single-move successors of a configuration, per the move relation.

    Fresh allocations branch over the names of the unread suffix plus one
    canonical machine name. Histories are kept in order (deduplicated),
    so results are directly comparable in tests.
    """
    sm = a.state_map()
    if c.state not in sm:
        raise ValidationError("unknown state %r" % c.state)
    if len(c.extant) != sm[c.state].regs:
        raise ValidationError("register count mismatch in configuration")
    w = tuple(w)
    out = []
    head = w[c.pos] if c.pos < len(w) else None
    vals = hcv(c.extant)
    for f, lab, t in a.transitions:
        if f != c.state:
            continue
        if lab.kind == "eps":
            out.append(Configuration(t, c.pos, c.extant))
        elif lab.kind == "letter":
            if head is lab.letter:
                out.append(Configuration(t, c.pos + 1, c.extant))
        elif lab.kind == "reg":
            if head is not None and head is vals[lab.index - 1]:
                out.append(Configuration(t, c.pos + 1, c.extant))
        elif lab.kind == "under":
            i = lab.index
            if (
                isinstance(head, Name)
                and head not in vals
                and head not in c.extant[i - 1].hist
            ):
                ext = tuple(
                    Chronicle(ch.hist + (head,), head if j == i - 1 else ch.cv).dedup()
                    for j, ch in enumerate(c.extant)
                )
                out.append(Configuration(t, c.pos + 1, ext))
        elif lab.kind == "star":
            # A machine name equals no input token, so which one is chosen
            # never changes a verdict. Avoiding only the current values and
            # the word's names keeps the configuration space finite.
            cands = [n for n in _names(w[c.pos:]) if n not in vals]
            cands.append(canonical_fresh(set(vals).union(_names(w))))
            for n in cands:
                ext = tuple(Chronicle(ch.hist + (n,), ch.cv).dedup() for ch in c.extant)
                ext += (Chronicle((n,), n),)
                out.append(Configuration(t, c.pos, ext))
        elif lab.kind == "close":
            i = lab.index
            if not c.extant or i > len(c.extant):
                continue
            top_cv = c.extant[-1].cv
            rest = c.extant[:-1]
            if i <= len(rest):
                rest = rest[: i - 1] + (Chronicle(rest[i - 1].hist, top_cv),) + rest[i:]
            out.append(Configuration(t, c.pos, rest))
    return out


def accept_reference(a, w):
    """accept() recomputed naively on top of step(); test oracle only."""
    rep = validate(a)
    if not rep.ok:
        raise ValidationError("invalid automaton")
    w = tuple(w)
    finals = a.finals()
    seen = set()
    stack = [Configuration(a.initial, 0, ())]
    budget = 200000
    while stack:
        budget -= 1
        if budget < 0:
            raise ResourceLimitError("reference search exceeded its budget")
        c = stack.pop()
        key = (c.state, c.pos, tuple((ch.cv, frozenset(ch.hist)) for ch in c.extant))
        if key in seen:
            continue
        seen.add(key)
        if c.state in finals and c.pos == len(w) and not c.extant:
            return True
        stack.extend(step(a, c, w))
    return False


def enumerate_reference(a, pool, maxlen):
    """Every word over the letters of ``a`` plus ``pool``, of length at most
    maxlen, that accept_reference accepts; test oracle only."""
    tokens = sorted(a.letters(), key=lambda l: l.sym) + list(pool)
    return {
        w
        for n in range(maxlen + 1)
        for w in itertools.product(tokens, repeat=n)
        if accept_reference(a, w)
    }


# ------------------------------------------------------ language calculus

class _Bij:
    """Backtrackable partial bijection between placeholders."""

    def __init__(self):
        self.fwd = {}
        self.bwd = {}

    def bind(self, x, y):
        if is_placeholder(x) != is_placeholder(y):
            return False
        if not is_placeholder(x):
            return x is y
        if self.fwd.get(x, y) is not y or self.bwd.get(y, x) is not x:
            return False
        self.fwd[x] = y
        self.bwd[y] = x
        return True

    def snapshot(self):
        return dict(self.fwd), dict(self.bwd)

    def restore(self, snap):
        self.fwd, self.bwd = dict(snap[0]), dict(snap[1])


def equal_mod_renaming(a: SchematicWord, b: SchematicWord) -> bool:
    """Structural equality up to a bijection between placeholders."""
    a = schematic_normalize(a)
    b = schematic_normalize(b)
    if a.void or b.void:
        return a.void == b.void
    if len(a.word) != len(b.word) or len(a.cond) != len(b.cond):
        return False
    bij = _Bij()
    for x, y in zip(a.word, b.word):
        if isinstance(x, Letter) or isinstance(y, Letter):
            if x is not y:
                return False
        elif not bij.bind(x, y):
            return False

    def match_sets(xs, ys):
        if not xs:
            return True
        x = xs[0]
        for j, y in enumerate(ys):
            snap = bij.snapshot()
            if bij.bind(x, y) and match_sets(xs[1:], ys[:j] + ys[j + 1 :]):
                return True
            bij.restore(snap)
        return False

    def match_cond(ca, cb):
        if isinstance(ca, Neq):
            snap = bij.snapshot()
            if bij.bind(ca.l, cb.l) and bij.bind(ca.r, cb.r):
                return True
            bij.restore(snap)
            return bij.bind(ca.l, cb.r) and bij.bind(ca.r, cb.l)
        if isinstance(ca, Global) and ca.reg != cb.reg:
            return False
        if not bij.bind(ca.p, cb.p) or len(ca.wrt) != len(cb.wrt):
            return False
        return match_sets(list(ca.wrt), list(cb.wrt))

    def match(conds_a, conds_b):
        if not conds_a:
            return not conds_b
        ca = conds_a[0]
        for j, cb in enumerate(conds_b):
            if type(ca) is not type(cb):
                continue
            snap = bij.snapshot()
            if match_cond(ca, cb) and match(conds_a[1:], conds_b[:j] + conds_b[j + 1 :]):
                return True
            bij.restore(snap)
        return False

    return match(list(a.cond), list(b.cond))


def _instances(sw, pool):
    """The words binding the schematic word's placeholders to pool names
    so that its conditions hold: every binding is tried."""
    slots = tuple(dict.fromkeys(x for x in sw.word if is_placeholder(x)))
    for choice in itertools.product(pool, repeat=len(slots)):
        binding = dict(zip(slots, choice))
        if all(_cond_ok(c, binding) for c in sw.cond):
            yield tuple(binding.get(x, x) for x in sw.word)


def forest_language_enumerate(e, pool, maxlen):
    """Reference enumeration through explicit derivation trees, stars
    unfolded at most maxlen + 1 times: a test oracle only where every star
    iteration reads a symbol."""
    _require_closed(e)
    pool = tuple(pool)
    words = set()
    for tree in ctxc_derive(ContextTriple((), e, ()), maxlen + 1):
        sw = lngc_eval(tree)
        if not sw.void and len(sw.word) <= maxlen:
            words.update(_instances(sw, pool))
    return words


