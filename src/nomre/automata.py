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
from .nominal import Letter, _orbit_words, check_bounds


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


@dataclass(frozen=True)
class Cda:
    """A chronicle deallocating automaton. Immutable once built."""

    states: tuple
    initial: str
    transitions: tuple  # (from_id, Label, to_id)

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


@dataclass(frozen=True)
class Violation:
    msg: str
    transition: tuple | None = None

    def __str__(self):
        if self.transition is None:
            return self.msg
        f, l, t = self.transition
        return "%s [%s -%r-> %s]" % (self.msg, f, l, t)


@dataclass(frozen=True)
class Report:
    violations: tuple

    @property
    def ok(self):
        return not self.violations


_DELTA = {"star": 1, "close": -1, "eps": 0, "letter": 0, "reg": 0, "under": 0}


def validate(a):
    """Structural contract: register discipline and index ranges."""
    out = []
    sm = a.state_map()
    if len(sm) != len(a.states):
        out.append(Violation("duplicate state ids"))
    if a.initial not in sm:
        out.append(Violation("initial state %r missing" % a.initial))
    elif sm[a.initial].regs != 0:
        out.append(Violation("|q| = 0 required for the initial state"))
    for s in a.states:
        if s.final and s.regs != 0:
            out.append(Violation("|q| = 0 required for final state %s" % s.id))
        if s.regs < 0:
            out.append(Violation("negative register count at %s" % s.id))
    for tr in a.transitions:
        f, lab, t = tr
        if f not in sm or t not in sm:
            out.append(Violation("dangling endpoint", tr))
            continue
        want = sm[f].regs + _DELTA[lab.kind]
        if sm[t].regs != want:
            out.append(Violation("|q'| must be %d, is %d" % (want, sm[t].regs), tr))
        if lab.kind in ("reg", "under", "close"):
            if not 1 <= lab.index <= sm[f].regs:
                out.append(Violation("register index out of range", tr))
    return Report(tuple(out))


def require_valid(a):
    """Raise ValidationError listing the violations of an invalid automaton."""
    rep = validate(a)
    if not rep.ok:
        raise ValidationError("invalid automaton: %s" % "; ".join(map(str, rep.violations)))


def class_of(a):
    """Least automaton class of a valid automaton.

    Chronicle automata never close below the top register; deallocating
    automata have no underlined reads at all.
    """
    require_valid(a)
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
        require_valid(a)
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

def to_json(a):
    doc = {
        "states": [{"id": s.id, "regs": s.regs, "final": s.final} for s in a.states],
        "initial": a.initial,
        "transitions": [
            {"from": f, "label": _label_doc(l), "to": t} for f, l, t in a.transitions
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def _label_doc(l):
    d = {"kind": l.kind}
    if l.letter is not None:
        d["letter"] = l.letter.sym
    if l.index is not None:
        d["index"] = l.index
    return d


def _typed(v, t, field):
    """v itself when its JSON type is t; a boolean is no integer."""
    if type(v) is not t:
        raise SchemaError("%s must be of type %s, got %r" % (field, t.__name__, v))
    return v


def from_json(text):
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise SchemaError("not valid JSON: %s" % e) from e
    try:
        states = tuple(
            State(_typed(s["id"], str, "id"), _typed(s["regs"], int, "regs"),
                  _typed(s.get("final", False), bool, "final"))
            for s in doc["states"]
        )
        initial = _typed(doc["initial"], str, "initial")
        trs = []
        for t in doc["transitions"]:
            lab = t["label"]
            kind = lab["kind"]
            if kind == "eps":
                l = EPS
            elif kind == "star":
                l = STAR
            elif kind == "letter":
                l = lab_letter(_typed(lab["letter"], str, "letter"))
            elif kind in ("reg", "under", "close"):
                l = Label(kind, index=_typed(lab["index"], int, "index"))
            else:
                raise SchemaError("unknown label kind %r" % kind)
            trs.append((_typed(t["from"], str, "from"), l, _typed(t["to"], str, "to")))
    except (KeyError, TypeError) as e:
        raise SchemaError("malformed automaton document: %s" % e) from e
    a = Cda(states, initial, tuple(trs))
    rep = validate(a)
    if not rep.ok:
        raise SchemaError("document violates automaton contract: %s" % "; ".join(map(str, rep.violations)))
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
