"""From automata back to expressions: layered elimination and determinization.

Ignoring ``*`` and close transitions, each layer of a valid automaton is a
classical finite automaton whose atoms are letters and register reads.
Extraction folds layers top-down: every excursion that enters layer k+1 by
``*`` and leaves by ``close i`` contributes a generalized edge labelled by
a binder over the canonical k+1st name, closing on the canonical i-th name.
One state elimination per layer produces the label expressions for all
entry/exit pairs at once: every ``*`` target is a source, every close
source a sink.
Canonical register naming (n1, n2, ...) is fixed; alpha-equivalence makes
the choice immaterial.
"""

from dataclasses import dataclass

from .automata import Cda, State, require_valid, validate
from .errors import ValidationError
from .expr import Bind, Cat, Lit, Nam, ONE, One, Star, Sum, Under, ZERO, Zero
from .nominal import name


def canonical_register_name(i):
    return name("n%d" % i)


@dataclass(frozen=True)
class LayeredView:
    """States split by register count, with the three edge families."""

    layers: dict  # regcount -> tuple of state ids
    intra: dict  # regcount -> tuple of (from, Label, to)
    star_edges: tuple  # (from at k, to at k+1)
    close_edges: tuple  # (from at k, index, to at k-1)


def layered_view(a: Cda) -> LayeredView:
    require_valid(a)
    sm = a.state_map()
    layers = {}
    for s in a.states:
        layers.setdefault(s.regs, []).append(s.id)
    for k in layers:
        layers[k] = tuple(sorted(layers[k]))
    intra = {k: [] for k in layers}
    stars = []
    closes = []
    for f, lab, t in a.transitions:
        if lab.kind == "star":
            stars.append((f, t))
        elif lab.kind == "close":
            closes.append((f, lab.index, t))
        else:
            intra[sm[f].regs].append((f, lab, t))
    return LayeredView(
        layers,
        {k: tuple(v) for k, v in intra.items()},
        tuple(stars),
        tuple(closes),
    )


# ------------------------------------------------------ expression algebra

def mk_sum(a, b):
    if a is None or isinstance(a, Zero):
        return b if b is not None else ZERO
    if b is None or isinstance(b, Zero):
        return a
    if a == b:
        return a
    return Sum(a, b)


def mk_cat(a, b):
    if isinstance(a, Zero) or isinstance(b, Zero):
        return ZERO
    if isinstance(a, One):
        return b
    if isinstance(b, One):
        return a
    return Cat(a, b)


def mk_star(e):
    if isinstance(e, (Zero, One)):
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
    Tags are never eliminated, so one pass over ``nodes`` (ascending id
    order) yields every path expression. Returns {(source tag, sink tag):
    expression}, with no entry where no path exists.
    """
    succ = {}  # node -> {successor: label}
    pred = {}  # node -> {predecessor: label}

    def add(f, t, e):
        if e is None or isinstance(e, Zero):
            return
        cur = succ.setdefault(f, {}).get(t)
        if cur is not None:
            e = mk_sum(cur, e)
        succ[f][t] = pred.setdefault(t, {})[f] = e

    for f, e, t in edges:
        add(f, t, e)
    for tag, node in sources.items():
        add(tag, node, ONE)
    for node, tag in sinks.items():
        add(node, tag, ONE)
    for s in sorted(nodes):
        outs = succ.pop(s, {})
        ins = pred.pop(s, {})
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
    return {(tag, t): e for tag in sources for t, e in succ.get(tag, {}).items()}


def _atom(lab):
    if lab.kind == "eps":
        return ONE
    if lab.kind == "letter":
        return Lit(lab.letter)
    if lab.kind == "reg":
        return Nam(canonical_register_name(lab.index))
    if lab.kind == "under":
        return Under(canonical_register_name(lab.index))
    raise ValueError(lab)


def extract_expr(a: Cda):
    """An expression with the same language as the automaton (canonical names)."""
    view = layered_view(a)
    sm = a.state_map()
    if not view.layers:
        return ZERO
    top = max(view.layers)
    gen = {k: [(f, _atom(lab), t) for f, lab, t in view.intra.get(k, ())] for k in range(top + 1)}
    for k in range(top, 0, -1):
        nodes = view.layers.get(k, ())
        entries = [(p, r) for p, r in view.star_edges if sm[p].regs == k - 1]
        exits = [(f, i, q) for f, i, q in view.close_edges if sm[f].regs == k]
        sources = {(_SRC, r): r for _, r in entries}
        paths = _eliminate(nodes, gen.get(k, ()), sources, {f: (_DST, f) for f, _, _ in exits})
        for p, r in entries:
            for f, i, q in exits:
                body = paths.get(((_SRC, r), (_DST, f)))
                if body is None:
                    continue
                wrapped = Bind(canonical_register_name(k), body, canonical_register_name(i))
                gen.setdefault(k - 1, []).append((p, wrapped, q))
    finals = sorted(a.finals())
    paths = _eliminate(view.layers.get(0, ()), gen.get(0, ()), {_SRC: a.initial},
                       {f: _DST for f in finals})
    return paths.get((_SRC, _DST), ZERO)


# ---------------------------------------------------------- determinization

def determinize_layers(a: Cda) -> Cda:
    """Equivalent automaton with no eps edges and subset states per layer.

    Classical closure/powerset inside each layer; ``*`` and close edges are
    lifted subset-wise, one edge per label.
    """
    require_valid(a)
    sm = a.state_map()
    finals = a.finals()
    eps_out = {}
    for f, lab, t in a.transitions:
        if lab.kind == "eps":
            eps_out.setdefault(f, []).append(t)

    def eclose(states):
        seen = set(states)
        stack = list(states)
        while stack:
            s = stack.pop()
            for t in eps_out.get(s, ()):
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return frozenset(seen)

    start = eclose({a.initial})
    ids = {start: "D0"}
    order = [start]
    trs = []
    work = [start]
    while work:
        cur = work.pop()
        layer = sm[next(iter(cur))].regs
        buckets = {}
        for f, lab, t in a.transitions:
            if f in cur and lab.kind != "eps":
                buckets.setdefault(lab, set()).add(t)
        for lab, targets in sorted(buckets.items(), key=lambda kv: repr(kv[0])):
            nxt = eclose(targets)
            if nxt not in ids:
                ids[nxt] = "D%d" % len(ids)
                order.append(nxt)
                work.append(nxt)
            trs.append((ids[cur], lab, ids[nxt]))
    states = tuple(
        State(ids[sub], sm[next(iter(sub))].regs, bool(sub & finals)) for sub in order
    )
    out = Cda(states, "D0", tuple(trs))
    check = validate(out)
    if not check.ok:
        raise ValidationError(
            "determinization produced an invalid automaton: %s"
            % "; ".join(map(str, check.violations))
        )
    return out
