"""Reference semantics: the test oracles, kept off the production paths.

``step`` and ``accept_reference`` run an automaton one move at a time on
whole configurations, choosing real machine names for fresh allocations;
a reference run indexes the automaton's out-edges once. ``automata.accept``
must agree with them, and ``enumerate_reference``, which tries every word,
with ``automata.enumerate_words``. ``forest_language_enumerate`` evaluates
the derivation forest of ``calculus.ctxc_derive`` tree by tree;
``calculus.language_enumerate`` must agree with it on expressions whose
every star iteration reads a symbol. Both enumeration oracles try every pool
name wherever a name can go, where the production enumerators compute one
word per renaming class and expand it. ``equal_mod_renaming`` compares
schematic words up to a renaming of placeholders, trying every bijection of
those the words leave open. No module of the package imports this one.
"""

from collections import Counter
import itertools

from .calculus import Global, Neq, SchematicWord, ctxc_derive, lngc_eval, schematic_normalize
from .calculus import _cond_ok
from .errors import ResourceLimitError, ValidationError
from .expr import ContextTriple
from .nominal import Chronicle, Name, _Value, _set, hcv, is_placeholder, sys_name


# ----------------------------------------------------------- run semantics

class Configuration(_Value):
    __slots__ = ("state", "pos", "extant")  # extant: a tuple of Chronicles, register order

    def __init__(self, state, pos, extant):
        _set(self, "state", state)
        _set(self, "pos", pos)
        _set(self, "extant", extant)


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


def _index(a):
    """Each state's register count and out-edges, in transition order."""
    table = {s.id: (s.regs, []) for s in a.states}
    for f, lab, t in a.transitions:
        table[f][1].append((lab, t))
    return table


def step(a, c, w):
    """Single-move successors of a configuration, per the move relation.

    Fresh allocations branch over the names of the unread suffix plus one
    canonical machine name. Histories are kept in order (deduplicated),
    so results are directly comparable in tests.
    """
    return _step(_index(a), c, tuple(w))


def _step(table, c, w):
    if c.state not in table:
        raise ValidationError("unknown state %r" % c.state)
    regs, edges = table[c.state]
    if len(c.extant) != regs:
        raise ValidationError("register count mismatch in configuration")
    out = []
    head = w[c.pos] if c.pos < len(w) else None
    vals = hcv(c.extant)
    for lab, t in edges:
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
            if isinstance(head, Name) and head not in vals and head not in c.extant[i - 1].hist:
                ext = tuple(Chronicle(ch.hist + (head,), head if j == i - 1 else ch.cv).dedup()
                            for j, ch in enumerate(c.extant))
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
            i, rest = lab.index, c.extant[:-1]
            if i <= len(rest):
                rest = rest[: i - 1] + (Chronicle(rest[i - 1].hist, c.extant[-1].cv),) + rest[i:]
            out.append(Configuration(t, c.pos, rest))
    return out


def accept_reference(a, w):
    """accept() recomputed naively on top of step(); test oracle only."""
    table, w = _index(a), tuple(w)
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
        stack.extend(_step(table, c, w))
    return False


def enumerate_reference(a, pool, maxlen):
    """Every word over the letters of ``a`` plus ``pool``, of length at most
    maxlen, that accept_reference accepts; test oracle only."""
    tokens = sorted(a.letters(), key=lambda l: l.sym) + list(pool)
    words = (w for n in range(maxlen + 1) for w in itertools.product(tokens, repeat=n))
    return {w for w in words if accept_reference(a, w)}


# ------------------------------------------------------ language calculus

def _cond_atoms(c):
    return (c.l, c.r) if isinstance(c, Neq) else (c.p,) + c.wrt


def _cond_form(c, ren):
    """A renamed condition, with a Neq's sides and a wrt list as sets."""
    xs = [ren.get(x, x) for x in _cond_atoms(c)]
    if isinstance(c, Neq):
        return Neq, frozenset(xs)
    return type(c), c.reg if isinstance(c, Global) else 0, xs[0], frozenset(xs[1:])


def equal_mod_renaming(a: SchematicWord, b: SchematicWord) -> bool:
    """Structural equality up to a bijection between placeholders.

    The word fixes the image of each placeholder it holds; every bijection
    is tried on the placeholders that occur only in conditions, once the
    conditions agree with those placeholders masked. The renamed conditions
    must then equal the other word's as a multiset.
    """
    a, b = schematic_normalize(a), schematic_normalize(b)
    if a.void or b.void:
        return a.void == b.void
    if len(a.word) != len(b.word):
        return False
    ren = {}
    for x, y in zip(a.word, b.word):
        if is_placeholder(x) and is_placeholder(y):
            if ren.setdefault(x, y) is not y:
                return False
        elif x is not y:
            return False
    image = set(ren.values())
    if len(image) != len(ren):
        return False
    rest_a = list({x for c in a.cond for x in _cond_atoms(c) if is_placeholder(x)} - set(ren))
    rest_b = list({y for c in b.cond for y in _cond_atoms(c) if is_placeholder(y)} - image)
    if len(rest_a) != len(rest_b):
        return False
    # masking the open placeholders (to None) commutes with every bijection of them
    if (Counter(_cond_form(c, {**ren, **dict.fromkeys(rest_a)}) for c in a.cond)
            != Counter(_cond_form(c, dict.fromkeys(rest_b)) for c in b.cond)):
        return False
    want = Counter(_cond_form(c, {}) for c in b.cond)
    for perm in itertools.permutations(rest_b):
        full = {**ren, **dict(zip(rest_a, perm))}
        if Counter(_cond_form(c, full) for c in a.cond) == want:
            return True
    return False


def _all_instances(sw, pool):
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
    pool = tuple(pool)
    words = set()
    for tree in ctxc_derive(ContextTriple((), e, ()), maxlen + 1):
        sw = lngc_eval(tree)
        if not sw.void and len(sw.word) <= maxlen:
            words.update(_all_instances(sw, pool))
    return words


