"""Chronicle deallocating automata: model, run semantics, and serialization.

States carry a register count (their layer). Transition labels are eps,
letters, register reads, ``*`` (allocate a locally fresh name on top),
underlined reads (relative global freshness against one register's
chronicle), and ``close i`` (pop the top chronicle, moving its current
value into register i).

Runs work on configurations (state, input position, extant chronicle).
Freshness tests only ever use membership, so the run engine keeps each
chronicle's history as a set. A ``*`` does not choose a name: it pushes a
pending value, which the first read of its register binds to the token
read, as long as the token is none of the names the value must differ
from. Configurations then hold input names only, and their number does not
grow with the input. ``accept`` also forgets each name at its last read, as
no later token can equal it, so its configurations hold only names that the
rest of the word reads again. ``nomre.oracle`` chooses real names instead.

eps moves change no register, so the engine never follows one. Each
automaton keeps a run index, built on first use: every state that a run
can enter by a non-eps move, or start in, carries the non-eps out-edges of
its whole eps-closure, and is final when that closure holds a final state
(classical eps-removal). A closure then follows only ``*`` and close.
"""

from collections import Counter
from functools import cached_property
import enum
import sys

from .errors import ResourceLimitError, SchemaError, ValidationError
from .nominal import Letter, _Value, _orbit_words, _set, atom_key, check_bounds, check_word


class Label(_Value):
    """A transition label: its kind, and a Letter for a letter or an int
    register index for reg, under and close."""

    __slots__ = ("kind", "letter", "index")
    _defaults = {"letter": None, "index": None}

    def shaped(self):
        """Whether the fields fit the kind: a Letter only for a letter, an int index only
        for reg, under and close."""
        if self.kind in ("eps", "star"):
            return self.letter is None and self.index is None
        if self.kind == "letter":
            return type(self.letter) is Letter and self.index is None
        if self.kind in ("reg", "under", "close"):
            return self.letter is None and type(self.index) is int
        return False

    def __repr__(self):
        if not self.shaped():
            return "Label(%r, letter=%r, index=%r)" % (self.kind, self.letter, self.index)
        if self.kind == "letter":
            # a letter spelled like another label, or like a quoted letter, is
            # quoted, so that no two labels print alike
            sym = self.letter.sym
            head = sym.rstrip("0123456789")
            if sym in ("eps", "*") or sym[:1] in ("'", '"') or (head != sym and head in ("r", "u", "close")):
                return repr(sym)
            return sym
        if self.index is None:
            return _SPELLING[self.kind]
        return "%s%d" % (_SPELLING[self.kind], self.index)


_SPELLING = {"eps": "eps", "star": "*", "reg": "r", "under": "u", "close": "close"}

EPS = Label("eps")
STAR = Label("star")


def lab_letter(s):
    return Label("letter", letter=s if isinstance(s, Letter) else Letter(s))


def lab_reg(i):
    return Label("reg", index=i)


def lab_under(i):
    return Label("under", index=i)


def lab_close(i):
    return Label("close", index=i)


class State(_Value):
    __slots__ = ("id", "regs", "final")
    _defaults = {"final": False}


# kind -> change of layer
_DELTA = {"eps": 0, "star": 1, "letter": 0, "reg": 0, "under": 0, "close": -1}


class Cda(_Value):
    """A chronicle deallocating automaton, immutable once built.

    Construction raises ValidationError unless ``*`` enters the next layer,
    ``close i`` the one below, register indices lie within their source
    layer and every final state is on the initial state's layer. Only a
    closed automaton, whose initial state is on layer 0, runs or extracts.
    """

    # a transition is (from_id, Label, to_id); __dict__ holds the run index
    __slots__ = ("states", "initial", "transitions", "__dict__")

    def __init__(self, states, initial, transitions):
        states, transitions = tuple(states), tuple(transitions)
        bad = []
        layer = {}
        finals = []
        for s in states:
            if type(s) is not State or type(s.id) is not str or type(s.regs) is not int \
                    or type(s.final) is not bool:
                bad.append("malformed state %r" % (s,))
                continue
            if s.id in layer:
                bad.append("duplicate state id %r" % s.id)
            if s.regs < 0:
                bad.append("negative register count at %s" % s.id)
            if s.final:
                finals.append(s)
            layer[s.id] = s.regs
        k = layer.get(initial) if type(initial) is str else None
        if k is None:
            bad.append("initial state %r missing" % (initial,))
        else:
            bad.extend("final state %s is not on the initial layer %d" % (s.id, k)
                       for s in finals if s.regs != k)
        for tr in transitions:
            if type(tr) is not tuple or len(tr) != 3 or type(tr[0]) is not str or type(tr[2]) is not str:
                bad.append("malformed transition %r" % (tr,))
                continue
            f, lab, t = tr
            if type(lab) is not Label or not lab.shaped():
                bad.append("malformed label %r from %s" % (lab, f))
                continue
            kf, kt = layer.get(f), layer.get(t)
            if kf is None or kt is None:
                bad.append("dangling endpoint [%s -%r-> %s]" % tr)
                continue
            want = kf + _DELTA[lab.kind]
            if kt != want:
                bad.append("|q'| must be %d, is %d [%s -%r-> %s]" % (want, kt, f, lab, t))
            if lab.index is not None and not 1 <= lab.index <= kf:
                bad.append("register index out of range [%s -%r-> %s]" % tr)
        if bad:
            raise ValidationError("invalid automaton: %s" % "; ".join(bad))
        _set(self, "states", states)
        _set(self, "initial", initial)
        _set(self, "transitions", transitions)

    def state_map(self):
        return {s.id: s for s in self.states}

    def finals(self):
        return frozenset(s.id for s in self.states if s.final)

    def letters(self):
        return frozenset(l.letter for _, l, _ in self.transitions if l.kind == "letter")

    @cached_property
    def _run_index(self):
        """The run engine's index, built on first use (_build_run_index). It
        is no field, so equality, hashing and serialization ignore it."""
        return _build_run_index(self)


class CdaClass(enum.Enum):
    A = "A#"
    CA = "CA#"
    DA = "DA#"
    CDA = "CDA#"


class ClassInfo(_Value):
    __slots__ = ("tag",)


def class_of(a):
    """Least automaton class of an automaton.

    Chronicle automata never close below the top register; deallocating
    automata have no underlined reads at all.
    """
    sm = a.state_map()
    ca = all(l.index == sm[f].regs for f, l, _ in a.transitions if l.kind == "close")
    da = not any(l.kind == "under" for _, l, _ in a.transitions)
    if ca and da:
        tag = CdaClass.A
    elif ca:
        tag = CdaClass.CA
    elif da:
        tag = CdaClass.DA
    else:
        tag = CdaClass.CDA
    return ClassInfo(tag)


# ------------------------------------------------------------- run engine

def _assign(regs, i, token, depth):
    """regs with token as register i's current value. The token joins the
    histories of the bottom ``depth`` registers and the avoid set of every
    other pending value."""
    out = []
    for j, (cv, h) in enumerate(regs):
        if j == i - 1:
            cv = token
        elif type(cv) is tuple:
            cv = (cv[0] | {token}, cv[1])
        out.append((cv, h | {token} if j < depth else h))
    return tuple(out)


# a forgotten current value (equal to no token), the token of names read once
_DEAD, _ONCE = object(), object()


def _forget(regs, token):
    """regs after the last read of token: it leaves every current value,
    history and avoid set."""
    out = []
    for cv, h in regs:
        if cv is token:
            cv = _DEAD
        elif type(cv) is tuple:
            cv = (cv[0] - {token}, cv[1])
        out.append((cv, h - {token}))
    return tuple(out)


def _build_run_index(a):
    """(finals, by_state) over the entry states of a closed automaton: its
    initial state and the targets of non-eps edges, the only states a macro
    state holds. An entry state's slot holds the non-eps out-edges of every
    state of its eps-closure, each once; it is final when that closure holds
    a final state. One pass over the transitions, then one search of the eps
    edges per entry state."""
    if a.state_map()[a.initial].regs:
        raise ValidationError("only a closed automaton runs: the initial state is not on layer 0")
    eps, edges, entry = {}, {}, {a.initial: None}
    for f, lab, t in a.transitions:
        if lab.kind == "eps":
            eps.setdefault(f, []).append(t)
        else:
            edges.setdefault(f, []).append((lab, t))
            entry[t] = None
    final_states = a.finals()
    finals, by_state = set(), {}
    for q in entry:
        reach, todo = {q}, [q]
        while todo:
            for t in eps.get(todo.pop(), ()):
                if t not in reach:
                    reach.add(t)
                    todo.append(t)
        if not final_states.isdisjoint(reach):
            finals.add(q)
        slot = by_state[q] = {"star": [], "close": [], "letter": {}, "reg": {}, "under": {}}
        for p in reach:
            for lab, t in edges.get(p, ()):
                if lab.kind == "star":
                    targets = slot["star"]
                elif lab.kind == "close":
                    targets, t = slot["close"], (lab.index, t)
                elif lab.kind == "letter":
                    targets = slot["letter"].setdefault(lab.letter, [])
                else:
                    targets = slot[lab.kind].setdefault(lab.index, [])
                if t not in targets:
                    targets.append(t)
    return frozenset(finals), by_state


class _Engine:
    """Shared machinery for accept/enumerate over one automaton.

    A register is (current value, history). A ``*`` pushes a pending value
    (avoid, depth): the input names it must differ from, and how many bottom
    registers hold it in their history. The first ``reg`` read of its
    register binds it to any token outside avoid. A pending value that stops
    being current can never be read and drops out, so a configuration
    (state, regs) holds input names only and is its own visited key. In
    ``accept`` a step that forgets its token leaves only names read again.

    Its states are entry states, each with the non-eps edges of its
    eps-closure, from the index the automaton builds on its first run and
    keeps for every later one. The step cache is the engine's own.
    """

    def __init__(self, a):
        self.finals, self.by_state = a._run_index
        self.steps = {}

    def closure(self, configs):
        """All configs reachable via non-consuming moves (* and close); the
        index has already taken every eps move. These bring no new name into
        a configuration and a state fixes its register count, so finitely
        many are reachable: the loop ends."""
        out = set(configs)
        frontier = out
        while frontier:
            nxt = []
            for state, regs in frontier:
                slot = self.by_state[state]
                if slot["star"]:
                    avoid = frozenset(cv for cv, _ in regs if type(cv) is not tuple and cv is not _DEAD)
                    nregs = regs + (((avoid, len(regs) + 1), frozenset()),)
                    nxt.extend((t, nregs) for t in slot["star"])
                for i, t in slot["close"]:
                    top_cv = regs[-1][0]
                    nregs = regs[:-1]
                    if i <= len(nregs):
                        nregs = nregs[: i - 1] + ((top_cv, nregs[i - 1][1]),) + nregs[i:]
                    # a register pushed later will not hold these pending values
                    n = len(nregs)
                    nregs = tuple(
                        ((cv[0], n), h) if type(cv) is tuple and cv[1] > n else (cv, h)
                        for cv, h in nregs
                    )
                    nxt.append((t, nregs))
            frontier = set(nxt) - out
            out |= frontier
        return frozenset(out)

    def consume(self, configs, token):
        """One-symbol successors for every config in the macro state."""
        nxt = []
        if isinstance(token, Letter):
            for state, regs in configs:
                for t in self.by_state[state]["letter"].get(token, ()):
                    nxt.append((t, regs))
            return nxt
        for state, regs in configs:
            slot = self.by_state[state]
            for i, targets in slot["reg"].items():
                cv = regs[i - 1][0]
                if cv is token:
                    nregs = regs
                elif type(cv) is tuple and token not in cv[0]:
                    nregs = _assign(regs, i, token, cv[1])
                else:
                    continue
                for t in targets:
                    nxt.append((t, nregs))
            if slot["under"] and not any(cv is token for cv, _ in regs):
                for i, targets in slot["under"].items():
                    if token not in regs[i - 1][1]:
                        nregs = _assign(regs, i, token, len(regs))
                        for t in targets:
                            nxt.append((t, nregs))
        return nxt

    def step(self, macro, token, keep):
        """closure(consume(macro, token)), forgetting token unless keep; empty
        where no run reads the token. Each state's slot already holds the
        non-eps edges of its eps-closure, so no eps move is taken. Cached for
        the engine's one call."""
        got = self.steps.get((macro, token, keep))
        if got is None:
            stepped = self.consume(macro, token)
            if not keep:
                stepped = [(state, _forget(regs, token)) for state, regs in stepped]
            got = self.steps[macro, token, keep] = self.closure(stepped) if stepped else frozenset()
        return got

    def accepting(self, configs):
        return any(state in self.finals and not regs for state, regs in configs)


def accept(a, w):
    """Whether some run consumes all of w and ends final with no registers.

    Each name is forgotten at its last read, so configurations hold only
    names that the rest of w reads again. Each read of such a name empties
    the step cache, which so keeps no macro state from before that read.
    """
    w = check_word(w)
    last = {t: i for i, t in enumerate(w)}
    reads = Counter(w)
    eng = _Engine(a)
    macro = eng.closure([(a.initial, ())])
    for i, token in enumerate(w):
        if isinstance(token, Letter):
            macro = eng.step(macro, token, True)
        elif reads[token] == 1:  # it matches nothing held, so its step does not depend on it
            macro = eng.step(macro, _ONCE, False)
        else:
            eng.steps.clear()
            macro = eng.step(macro, token, last[token] != i)
        if not macro:
            return False
    return eng.accepting(macro)


def _representatives(a, pool, maxlen):
    """One accepted word per orbit of the bounded language under renaming
    within the pool: the word whose names first appear in pool order.

    A step offers the letters, the pool names already used and the next
    unused one. The automaton holds no names, so its language is closed
    under renaming and the other words of an orbit are accepted too. The
    search recurses once per symbol, so a maxlen near Python's recursion
    limit is a ResourceLimitError.
    """
    check_bounds(pool, maxlen)
    eng = _Engine(a)
    letters = tuple(sorted(a.letters(), key=lambda l: l.sym))
    memo = {}

    def go(macro, remaining, used):
        key = (macro, remaining, used)
        got = memo.get(key)
        if got is not None:
            return got
        out = set()
        if eng.accepting(macro):
            out.add(())
        if remaining > 0:
            for tok in letters + pool[: used + 1]:
                nxt = eng.step(macro, tok, True)
                if not nxt:
                    continue
                fresh = used < len(pool) and tok is pool[used]
                for suf in go(nxt, remaining - 1, used + fresh):
                    out.add((tok,) + suf)
        memo[key] = got = frozenset(out)
        return got

    try:
        return go(eng.closure([(a.initial, ())]), maxlen, 0)
    except RecursionError:
        raise ResourceLimitError("maxlen %d needs a recursion deeper than Python's recursion limit of %d"
                                 % (maxlen, sys.getrecursionlimit())) from None


def enumerate_words(a, pool, maxlen):
    """All accepted words over the letters of ``a`` plus ``pool``, length <= maxlen."""
    pool = tuple(pool)
    return _orbit_words(_representatives(a, pool, maxlen), pool)


def word_sort_key(w):
    return (len(w), tuple(map(atom_key, w)))


def equiv_bounded(a, b, pool, maxlen):
    """None when the bounded enumerations agree, else the least differing word.

    The two languages differ on whole orbits, so only the representatives
    that differ are expanded.
    """
    pool = tuple(pool)
    diff = _representatives(a, pool, maxlen) ^ _representatives(b, pool, maxlen)
    if not diff:
        return None
    return min(_orbit_words(diff, pool), key=word_sort_key)


# ------------------------------------------------------------ composition

def _relabel(a, prefix):
    states = tuple(State(prefix + s.id, s.regs, s.final) for s in a.states)
    trs = tuple((prefix + f, l, prefix + t) for f, l, t in a.transitions)
    return Cda(states, prefix + a.initial, trs)


def cda_union(a, b):
    """Closed-level sum construction: fresh initial with eps to both."""
    a = _relabel(a, "L.")
    b = _relabel(b, "R.")
    init = State("u0", 0)
    states = (init,) + a.states + b.states
    trs = (("u0", EPS, a.initial), ("u0", EPS, b.initial)) + a.transitions + b.transitions
    return Cda(states, "u0", trs)


def cda_concat(a, b):
    a = _relabel(a, "L.")
    b = _relabel(b, "R.")
    afin = a.finals()
    states = tuple(State(s.id, s.regs, False) for s in a.states) + b.states
    trs = a.transitions + tuple((f, EPS, b.initial) for f in sorted(afin)) + b.transitions
    return Cda(states, a.initial, trs)


def cda_star(a):
    a = _relabel(a, "S.")
    afin = a.finals()
    hub = State("s0", 0, True)
    states = (hub,) + tuple(State(s.id, s.regs, False) for s in a.states)
    trs = (("s0", EPS, a.initial),) + a.transitions + tuple(
        (f, EPS, "s0") for f in sorted(afin)
    )
    return Cda(states, "s0", trs)


# ----------------------------------------------------------- serialization

def _document(a):
    return {
        "states": [{"id": s.id, "regs": s.regs, "final": s.final} for s in a.states],
        "initial": a.initial,
        "transitions": [
            {"from": f, "label": _label_doc(l), "to": t} for f, l, t in a.transitions
        ],
    }


def to_json(a):
    import json  # on use: a process that reads and writes no JSON never loads it

    return json.dumps(_document(a), indent=2, sort_keys=True)


def _label_doc(l):
    d = {"kind": l.kind}
    if l.letter is not None:
        d["letter"] = l.letter.sym
    if l.index is not None:
        d["index"] = l.index
    return d


def _label(d):
    if d["kind"] != "letter":
        return Label(d["kind"], index=d.get("index"))
    if type(d["letter"]) is not str:
        raise SchemaError("a letter must be spelled as a string, got %r" % (d["letter"],))
    return lab_letter(d["letter"])


def _unique_keys(pairs):
    doc = {}
    for k, v in pairs:
        if k in doc:
            raise SchemaError("malformed automaton document: key %r repeats" % k)
        doc[k] = v
    return doc


def from_json(text):
    """The automaton that a to_json document describes. A state may omit
    "final", which defaults to false; any other missing, extra or repeated
    key, and any value of the wrong type, is a SchemaError."""
    import json

    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, RecursionError) as e:
        raise SchemaError("not valid JSON: %s" % e) from e
    try:
        states = [State(s["id"], s["regs"], s.get("final", False)) for s in doc["states"]]
        trs = [(t["from"], _label(t["label"]), t["to"]) for t in doc["transitions"]]
        initial = doc["initial"]
    except (KeyError, TypeError) as e:
        raise SchemaError("malformed automaton document: %s" % e) from e
    try:
        a = Cda(states, initial, trs)
    except ValidationError as e:
        raise SchemaError("document violates automaton contract: %s" % e) from e
    for s in doc["states"]:
        s.setdefault("final", False)
    if _document(a) != doc:
        raise SchemaError("malformed automaton document: it holds keys or values that to_json does not write")
    return a


def _quoted(text):
    """A DOT string: text in double quotes, with " and \\ escaped."""
    return '"%s"' % text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(a):
    """Graphviz rendering; states of one layer share a rank."""
    lines = ["digraph cda {", "  rankdir=LR;", '  hidden [shape=point, style=invis];']
    layers = {}
    for s in a.states:
        layers.setdefault(s.regs, []).append(s)
    for k in sorted(layers):
        ids = " ".join("%s;" % _quoted(s.id) for s in layers[k])
        lines.append("  { rank=same; %s }" % ids)
    for s in a.states:
        shape = "doublecircle" if s.final else "circle"
        lines.append("  %s [shape=%s, label=%s];" % (_quoted(s.id), shape, _quoted("%s|%d" % (s.id, s.regs))))
    lines.append("  hidden -> %s;" % _quoted(a.initial))
    for f, l, t in a.transitions:
        lines.append("  %s -> %s [label=%s];" % (_quoted(f), _quoted(t), _quoted(repr(l))))
    lines.append("}")
    return "\n".join(lines)
