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
grow with the input. The reference stepper in ``nomre.oracle`` chooses real
names instead.
"""

from dataclasses import dataclass
import enum
import json

from .errors import ResourceLimitError, SchemaError, ValidationError
from .nominal import Letter, _orbit_words, check_bounds, check_word


@dataclass(frozen=True, slots=True)
class Label:
    kind: str
    letter: Letter | None = None
    index: int | None = None

    def __repr__(self):
        if self.kind == "eps":
            return "eps"
        if self.kind == "letter":
            return self.letter.sym
        if self.kind == "reg":
            return "r%d" % self.index
        if self.kind == "star":
            return "*"
        if self.kind == "under":
            return "u%d" % self.index
        return "close%d" % self.index


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


@dataclass(frozen=True, slots=True)
class State:
    id: str
    regs: int
    final: bool = False


# kind -> change of layer
_DELTA = {"eps": 0, "star": 1, "letter": 0, "reg": 0, "under": 0, "close": -1}


@dataclass(frozen=True)
class Cda:
    """A chronicle deallocating automaton, immutable once built.

    Construction raises ValidationError unless ``*`` enters the next layer,
    ``close i`` the one below, register indices lie within their source
    layer and every final state is on the initial state's layer. Only a
    closed automaton, whose initial state is on layer 0, runs or extracts.
    """

    states: tuple
    initial: str
    transitions: tuple  # (from_id, Label, to_id)

    def __post_init__(self):
        states, transitions = tuple(self.states), tuple(self.transitions)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "transitions", transitions)
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
        k = layer.get(self.initial) if type(self.initial) is str else None
        if k is None:
            bad.append("initial state %r missing" % (self.initial,))
        else:
            bad.extend("final state %s is not on the initial layer %d" % (s.id, k)
                       for s in finals if s.regs != k)
        for tr in transitions:
            if type(tr) is not tuple or len(tr) != 3 or type(tr[0]) is not str or type(tr[2]) is not str:
                bad.append("malformed transition %r" % (tr,))
                continue
            f, lab, t = tr
            kind = lab.kind if type(lab) is Label else None
            if kind == "eps" or kind == "star":
                shaped = lab.letter is None and lab.index is None
            elif kind == "letter":
                shaped = type(lab.letter) is Letter and lab.index is None
            elif kind == "reg" or kind == "under" or kind == "close":
                shaped = lab.letter is None and type(lab.index) is int
            else:
                shaped = False
            if not shaped:
                if type(lab) is Label:
                    lab = (kind, lab.letter, lab.index)
                bad.append("malformed label %r from %s" % (lab, f))
                continue
            kf, kt = layer.get(f), layer.get(t)
            if kf is None or kt is None:
                bad.append("dangling endpoint [%s -%r-> %s]" % tr)
                continue
            want = kf + _DELTA[kind]
            if kt != want:
                bad.append("|q'| must be %d, is %d [%s -%r-> %s]" % (want, kt, f, lab, t))
            if lab.index is not None and not 1 <= lab.index <= kf:
                bad.append("register index out of range [%s -%r-> %s]" % tr)
        if bad:
            raise ValidationError("invalid automaton: %s" % "; ".join(bad))

    def state_map(self):
        return {s.id: s for s in self.states}

    def finals(self):
        return frozenset(s.id for s in self.states if s.final)

    def letters(self):
        return frozenset(l.letter for _, l, _ in self.transitions if l.kind == "letter")

    def max_regs(self):
        return max((s.regs for s in self.states), default=0)


class CdaClass(enum.Enum):
    A = "A#"
    CA = "CA#"
    DA = "DA#"
    CDA = "CDA#"


@dataclass(frozen=True)
class ClassInfo:
    tag: CdaClass


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


class _Engine:
    """Shared machinery for accept/enumerate over one automaton.

    A register is (current value, history). A ``*`` pushes a pending value
    (avoid, depth): the input names it must differ from, and how many bottom
    registers hold it in their history. The first ``reg`` read of its
    register binds it to any token outside avoid. A pending value that stops
    being current can never be read and drops out, so a configuration
    (state, regs) holds input names only and is its own visited key.
    """

    def __init__(self, a):
        if a.state_map()[a.initial].regs:
            raise ValidationError("only a closed automaton runs: the initial state is not on layer 0")
        self.finals = a.finals()
        self.cap = 20 * max(1, len(a.states)) * (a.max_regs() + 1)
        self.by_state = {s.id: {"eps": [], "star": [], "close": [], "letter": {}, "reg": {}, "under": {}} for s in a.states}
        for f, lab, t in a.transitions:
            slot = self.by_state[f]
            if lab.kind in ("eps", "star"):
                slot[lab.kind].append(t)
            elif lab.kind == "close":
                slot["close"].append((lab.index, t))
            elif lab.kind == "letter":
                slot["letter"].setdefault(lab.letter, []).append(t)
            else:
                slot[lab.kind].setdefault(lab.index, []).append(t)

    def closure(self, configs):
        """All configs reachable via non-consuming moves (eps, *, close)."""
        out = set(configs)
        frontier = out
        depth = 0
        while frontier:
            depth += 1
            if depth > self.cap:
                raise ResourceLimitError("non-consuming move chain exceeded %d steps" % self.cap)
            nxt = []
            for state, regs in frontier:
                slot = self.by_state[state]
                for t in slot["eps"]:
                    nxt.append((t, regs))
                if slot["star"]:
                    avoid = frozenset(cv for cv, _ in regs if type(cv) is not tuple)
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

    def accepting(self, configs):
        return any(state in self.finals and not regs for state, regs in configs)


def accept(a, w):
    """Whether some run consumes all of w and ends final with no registers."""
    w = check_word(w)
    eng = _Engine(a)
    macro = eng.closure([(a.initial, ())])
    for token in w:
        stepped = eng.consume(macro, token)
        if not stepped:
            return False
        macro = eng.closure(stepped)
    return eng.accepting(macro)


def _representatives(a, pool, maxlen):
    """One accepted word per orbit of the bounded language under renaming
    within the pool: the word whose names first appear in pool order.

    A step offers the letters, the pool names already used and the next
    unused one. The automaton holds no names, so its language is closed
    under renaming and the other words of an orbit are accepted too.
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
                stepped = eng.consume(macro, tok)
                if not stepped:
                    continue
                nxt = eng.closure(stepped)
                fresh = used < len(pool) and tok is pool[used]
                for suf in go(nxt, remaining - 1, used + fresh):
                    out.add((tok,) + suf)
        memo[key] = got = frozenset(out)
        return got

    return go(eng.closure([(a.initial, ())]), maxlen, 0)


def enumerate_words(a, pool, maxlen):
    """All accepted words over the letters of ``a`` plus ``pool``, length <= maxlen."""
    pool = tuple(pool)
    return _orbit_words(_representatives(a, pool, maxlen), pool)


def word_sort_key(w):
    return (len(w), tuple((0, t.sym) if isinstance(t, Letter) else (1,) + t.sort_key() for t in w))


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


def from_json(text):
    """The automaton that a to_json document describes. A state may omit
    "final", which defaults to false; any other missing or extra key, and
    any value of the wrong type, is a SchemaError."""
    try:
        doc = json.loads(text)
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


def to_dot(a):
    """Graphviz rendering; states of one layer share a rank."""
    lines = ["digraph cda {", "  rankdir=LR;", '  hidden [shape=point, style=invis];']
    layers = {}
    for s in a.states:
        layers.setdefault(s.regs, []).append(s)
    for k in sorted(layers):
        ids = " ".join('"%s";' % s.id for s in layers[k])
        lines.append("  { rank=same; %s }" % ids)
    for s in a.states:
        shape = "doublecircle" if s.final else "circle"
        lines.append('  "%s" [shape=%s, label="%s|%d"];' % (s.id, shape, s.id, s.regs))
    lines.append('  hidden -> "%s";' % a.initial)
    for f, l, t in a.transitions:
        lines.append('  "%s" -> "%s" [label="%r"];' % (f, t, l))
    lines.append("}")
    return "\n".join(lines)
