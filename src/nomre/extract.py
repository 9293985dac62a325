"""From automata back to expressions: layered elimination.

Ignoring ``*`` and close transitions, each layer of a closed automaton is a
classical finite automaton whose atoms are letters and register reads.
Extraction folds layers top-down: every excursion that enters layer k+1 by
``*`` and leaves by ``close i`` contributes a generalized edge labelled by
a binder over the canonical k+1st name, closing on the canonical i-th name.
One state elimination per layer produces the label expressions for all
entry/exit pairs at once: every ``*`` target is a source, every close
source a sink. It removes the state of least in*out - in - out first (ties
by id), which keeps round trips from growing. Canonical register naming
(n1, n2, ...) is fixed; alpha-equivalence makes the choice immaterial.
"""

from functools import lru_cache
from heapq import heappop, heappush

from .automata import Cda
from .errors import ValidationError
from .expr import LETTER_RE, Bind, Cat, Lit, Nam, ONE, One, Star, Sum, Under, ZERO
from .nominal import name


@lru_cache(maxsize=None)
def canonical_register_name(i):
    return name("n%d" % i)


# ------------------------------------------------------ expression algebra
# Elimination never builds 0: two nodes that no path joins share no edge.

def mk_cat(a, b):
    if isinstance(a, One):
        return b
    if isinstance(b, One):
        return a
    return Cat(a, b)


def mk_star(e):
    if isinstance(e, One):
        return ONE
    if isinstance(e, Star):
        return e
    return Star(e)


_SRC = ("src",)
_DST = ("dst",)


def _eliminate(nodes, edges, sources, sinks):
    """Classical state elimination: one pass for all source/sink pairs.

    ``sources`` maps a source tag to the node it enters and ``sinks`` maps a
    node to the sink tag it leaves by; several nodes may share a sink tag.
    Tags are never eliminated, so one pass over ``nodes`` yields every path
    expression. The next node has the least in*out - in - out, self loops
    excluded and ties broken by id (Delgado & Morais, CIAA 2004); a heap
    keeps the weights, re-weighs only an eliminated node's neighbours and
    skips stale entries. Returns {(source tag, sink tag): expression}, with
    no entry where no path exists.
    """
    succ = {s: {} for s in (*nodes, *sources)}  # node or tag -> {successor: label}
    pred = {s: {} for s in (*nodes, *sinks.values())}  # node or tag -> {predecessor: label}
    current, heap = {}, []  # node -> its weight plus 1; (weight plus 1, node)

    def add(f, t, e):
        cur = succ[f].get(t)
        if cur is not None:
            e = cur if cur is e else Sum(cur, e)
        succ[f][t] = pred[t][f] = e

    def weigh(n):  # (in - 1) * (out - 1) is in*out - in - out plus 1
        out = succ[n]
        loop = n in out
        w = (len(pred[n]) - loop - 1) * (len(out) - loop - 1)
        if current.get(n) != w:
            current[n] = w
            heappush(heap, (w, n))

    for f, e, t in edges:
        add(f, t, e)
    for tag, node in sources.items():
        add(tag, node, ONE)
    for node, tag in sinks.items():
        add(node, tag, ONE)
    for s in nodes:
        weigh(s)
    while heap:
        w, s = heappop(heap)
        if current.get(s) != w:
            continue
        del current[s]
        outs = succ.pop(s)
        ins = pred.pop(s)
        loop = outs.pop(s, None)
        ins.pop(s, None)
        for f in ins:
            del succ[f][s]
        for t in outs:
            del pred[t][s]
        mid = mk_star(loop) if loop is not None else None
        for f, ein in ins.items():
            piece = ein if mid is None else mk_cat(ein, mid)
            for t, eout in outs.items():
                add(f, t, mk_cat(piece, eout))
        for n in (*ins, *outs):
            if n in current:
                weigh(n)
    return {(tag, t): e for tag in sources for t, e in succ[tag].items()}


def _atom(lab):
    """The expression of an eps, letter, reg or under label."""
    if lab.kind == "eps":
        return ONE
    if lab.kind == "letter":
        return Lit(lab.letter)
    if lab.kind == "reg":
        return Nam(canonical_register_name(lab.index))
    return Under(canonical_register_name(lab.index))


def extract_expr(a: Cda):
    """An expression with the same language as the automaton (canonical names)."""
    layer = {s.id: s.regs for s in a.states}
    if layer[a.initial]:
        raise ValidationError("only a closed automaton extracts: the initial state is not on layer 0")
    unspellable = sorted(l.sym for l in a.letters() if not LETTER_RE.fullmatch(l.sym))
    if unspellable:
        raise ValidationError("letters %r cannot be written as expression letters" % unspellable)
    top = max(layer.values())
    # by layer: its states, its atom edges and then binder edges, the * edges
    # that enter it and the close edges that leave it
    nodes, gen, entries, exits = ([[] for _ in range(top + 1)] for _ in range(4))
    for s in a.states:
        nodes[s.regs].append(s.id)
    for f, lab, t in a.transitions:
        if lab.kind == "star":
            entries[layer[t]].append((f, t))
        elif lab.kind == "close":
            exits[layer[f]].append((f, lab.index, t))
        else:
            gen[layer[f]].append((f, _atom(lab), t))
    for k in range(top, 0, -1):
        sources = {(_SRC, r): r for _, r in entries[k]}
        paths = _eliminate(nodes[k], gen[k], sources, {f: (_DST, f) for f, _, _ in exits[k]})
        for p, r in entries[k]:
            for f, i, q in exits[k]:
                body = paths.get(((_SRC, r), (_DST, f)))
                if body is not None:
                    binder = Bind(canonical_register_name(k), body, canonical_register_name(i))
                    gen[k - 1].append((p, binder, q))
    paths = _eliminate(nodes[0], gen[0], {_SRC: a.initial}, {f: _DST for f in sorted(a.finals())})
    return paths.get((_SRC, _DST), ZERO)
