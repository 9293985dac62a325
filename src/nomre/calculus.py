"""Context and language calculi: symbolic language computation.

Context derivation threads pre-contexts (names in scope) and post-contexts
(the extant chronicle established after a subexpression) down the syntax
tree, resolving each sum to a branch and each star to a bounded unfolding.
Evaluating a resolved tree bottom-up produces a schematic word: a word of
placeholders, letters and context names together with freshness conditions.

Two freshness marks exist: ``p # xs`` (local: p differs from every current
value listed) and ``p #_i xs`` (relative global: p differs from everything
recorded in register i's chronicle). Concatenation renames the right-hand
word by the permutation matching the pre-context to the left post-context's
current values, and extends relative-global conditions with the left
chronicle of their register, which is how deallocated names stay
remembered.

A schematic word denotes the set of words obtained by binding its
placeholders to names so that all conditions hold; placeholders appearing
only in conditions are existentially quantified, and since conditions are
pure inequations over an infinite universe they only bite when both sides
are determined.
"""

import itertools
from dataclasses import dataclass, replace

from .errors import ContextError, ResourceLimitError, ValidationError
from .expr import (
    Bind,
    Cat,
    ContextTriple,
    Lit,
    Nam,
    One,
    ONE,
    Star,
    Sum,
    Under,
    Zero,
    apply_perm_expr,
    check_wellformed,
    render,
)
from .nominal import (
    Chronicle,
    Letter,
    Name,
    check_bounds,
    check_word,
    hcv,
    is_placeholder,
    _orbit_words,
    natural_chronicle,
    perm_from_lists,
    placeholder,
    sys_name,
    transpose,
)


# ------------------------------------------------------------- conditions

@dataclass(frozen=True, slots=True)
class Neq:
    l: object
    r: object

    def __repr__(self):
        return "%r != %r" % (self.l, self.r)


@dataclass(frozen=True, slots=True)
class Local:
    p: Name
    wrt: tuple

    def __repr__(self):
        return "%r # %s" % (self.p, " ".join(map(repr, self.wrt)))


@dataclass(frozen=True, slots=True)
class Global:
    p: Name
    reg: int
    wrt: tuple

    def __repr__(self):
        return "%r #_%d %s" % (self.p, self.reg, " ".join(map(repr, self.wrt)))


@dataclass(frozen=True, slots=True)
class SchematicWord:
    word: tuple
    cond: tuple
    void: bool = False

    def __repr__(self):
        if self.void:
            return "[[ - | absurd ]]"
        w = " ".join(map(repr, self.word)) if self.word else "eps"
        c = ", ".join(map(repr, self.cond))
        return "[[ %s | %s ]]" % (w, c) if c else "[[ %s ]]" % w


VOID = SchematicWord((), (), True)


# -------------------------------------------------------- context calculus

@dataclass(eq=False)
class DerivationTree:
    """One resolved derivation node; sums chosen, stars unfolded. The trees
    of one forest share subtrees, so a node compares by identity and holds
    no evaluation result."""

    rule: str
    pre: tuple
    expr: object
    post: tuple
    children: tuple = ()
    h: int | None = None
    scratch: Name | None = None


def _binder_subcontext(e, pre, post):
    """Fresh atom, renamed body, extended contexts for a binder node."""
    x = sys_name(len(pre))
    body = apply_perm_expr(transpose(e.n, x), e.body)
    if e.close is e.n:
        sub_post = tuple(c.extend((x,)) for c in post) + (Chronicle((x,), x),)
    else:
        if e.close not in hcv(post):
            raise ContextError(
                "close name %r is not a current value of the post-context of `%s`"
                % (e.close, render(e))
            )
        swap = transpose(e.close, x)
        sub_post = tuple(Chronicle(c.hist + (x,), swap(c.cv)) for c in post) + (
            Chronicle((x, e.close), e.close),
        )
    return x, body, pre + (x,), sub_post


def _check_context(pre, post):
    """The calculus's own rule on top of the ContextTriple contract: no ~k or
    *k in a context, since the calculus draws its binder atoms and
    placeholders from those supplies."""
    for x in itertools.chain(pre, _atoms((), (), post)):
        if isinstance(x, Name) and x.kind != Name.K_USER:
            raise ContextError("context name %r is reserved for the calculus" % (x,))


_FOREST_CAP = 20000


def ctxc_derive(t: ContextTriple, star_bound: int):
    """All resolved derivations of the triple, stars unfolded 0..star_bound."""
    if star_bound < 0:
        raise ValidationError("star_bound must be >= 0")
    _check_context(t.pre, t.post)
    count = [0]

    def charge(n=1):
        count[0] += n
        if count[0] > _FOREST_CAP:
            raise ResourceLimitError("derivation forest exceeds %d nodes" % _FOREST_CAP)

    def go(e, pre, post):
        charge()
        if isinstance(e, (One, Zero, Lit, Nam, Under)):
            rule = {
                One: "one", Zero: "zero", Lit: "letter", Nam: "name", Under: "under",
            }[type(e)]
            if isinstance(e, (Nam, Under)) and e.n not in pre:
                raise ContextError("free name %r not in pre-context %r" % (e.n, list(pre)))
            return [DerivationTree(rule, pre, e, post)]
        if isinstance(e, Sum):
            out = []
            for tag, branch in (("sum1", e.l), ("sum2", e.r)):
                for c in go(branch, pre, post):
                    charge()
                    out.append(DerivationTree(tag, pre, e, post, (c,)))
            return out
        if isinstance(e, Cat):
            lefts = go(e.l, pre, natural_chronicle(pre))
            rights = go(e.r, pre, post)
            out = []
            for cl in lefts:
                for cr in rights:
                    charge()
                    out.append(DerivationTree("cat", pre, e, post, (cl, cr)))
            return out
        if isinstance(e, Star):
            out = []
            for h in range(star_bound + 1):
                if h == 0:
                    chain = ONE
                else:
                    chain = e.e
                    for _ in range(h - 1):
                        chain = Cat(e.e, chain)
                for c in go(chain, pre, post):
                    charge()
                    out.append(DerivationTree("star", pre, e, post, (c,), h=h))
            return out
        if isinstance(e, Bind):
            rule = "bind=" if e.close is e.n else "bind!="
            x, body, spre, spost = _binder_subcontext(e, pre, post)
            out = []
            for c in go(body, spre, spost):
                charge()
                out.append(DerivationTree(rule, pre, e, post, (c,), scratch=x))
            return out
        raise TypeError(e)

    return go(t.payload, t.pre, t.post)


# ------------------------------------------------------- language calculus
#
# An evaluated derivation is an outcome (word, conditions, post). The rules
# below are shared by the tree evaluator behind the derivation dumps and the
# fused evaluator behind language enumeration; each takes the placeholder it
# introduces as an argument, since the two number placeholders differently.

def _atoms(word, conds, post=()):
    """Every atom of an outcome: the word, then the conditions, then the post."""
    yield from word
    for c in conds:
        if isinstance(c, Neq):
            yield c.l
            yield c.r
        else:
            yield c.p
            yield from c.wrt
    for ch in post:
        yield from ch.hist
        yield ch.cv


def _subst(f, word, conds, post=()):
    """Apply the atom map f to every atom of an outcome; f fixes letters."""
    out = []
    for c in conds:
        if isinstance(c, Local):
            out.append(Local(f(c.p), tuple(map(f, c.wrt))))
        elif isinstance(c, Global):
            out.append(Global(f(c.p), c.reg, tuple(map(f, c.wrt))))
        else:
            out.append(Neq(f(c.l), f(c.r)))
    post = tuple(Chronicle(tuple(map(f, ch.hist)), f(ch.cv)) for ch in post)
    return tuple(map(f, word)), tuple(out), post


def _under(n, pre, post, p):
    """The underline rule: p is locally fresh and fresh for n's register."""
    i = pre.index(n) + 1
    conds = (Local(p, pre), Global(p, i, natural_chronicle(pre)[i - 1].hist))
    swap = transpose(n, p)
    return (p,), conds, tuple(Chronicle(c.hist + (p,), swap(c.cv)).dedup() for c in post)


def _bind(x, sub, pre, q):
    """The binder rule: the body's scratch atom x becomes the fresh q and
    its register is dropped."""
    swap = transpose(x, q)
    word, conds, post = _subst(swap, sub[0], sub[1], sub[2][:-1])
    return word, (Local(q, pre),) + conds, tuple(c.dedup() for c in post)


def _concat(left, right, pre, shift):
    """The concatenation rule: one atom map moves the right outcome's
    placeholders up by shift, past the left's (0 when they are already
    disjoint), and renames every other atom by the permutation matching the
    pre-context to the left post's current values; the right's
    relative-global conditions are then extended by the left chronicle.
    Shifted placeholders miss the permutation's support: a context holds
    none, and the left post's placeholder values are the left's own."""
    w1, phi1, p1 = left
    pi = perm_from_lists(pre, hcv(p1))

    def shift_then_pi(x):
        return placeholder(x.key + shift) if is_placeholder(x) else pi(x)

    w2, phi2, p2 = _subst(shift_then_pi if shift else pi, *right)
    phi2 = tuple(
        Global(c.p, c.reg, p1[c.reg - 1].hist + c.wrt)
        if isinstance(c, Global) and c.reg <= len(p1) else c
        for c in phi2
    )
    post = tuple(Chronicle(a.hist + b.hist, b.cv).dedup() for a, b in zip(p1, p2))
    return w1 + w2, phi1 + phi2, post


def lngc_results(tree: DerivationTree) -> dict:
    """Evaluate a resolved derivation bottom-up; map each of its nodes to
    its (schematic word, real post-context) pair.

    The real posts are recomputed from the children and in general differ
    from the threaded static ones. Placeholders are numbered in the order
    evaluation introduces them, so a subtree shared with another tree of
    the forest gets this tree's numbering in this tree's map.
    """
    counter = itertools.count(1)
    results = {}

    def go(node):
        subs = [go(c) for c in node.children]
        r, e, C, E = node.rule, node.expr, node.pre, node.post
        if None in subs or r == "zero":
            res = None
        elif r == "one":
            res = ((), (), E)
        elif r == "letter":
            res = ((e.s,), (), E)
        elif r == "name":
            res = ((e.n,), (), E)
        elif r == "under":
            res = _under(e.n, C, E, placeholder(next(counter)))
        elif r in ("sum1", "sum2", "star"):
            res = subs[0]
        elif r == "cat":
            res = _concat(subs[0], subs[1], C, 0)
        elif r in ("bind=", "bind!="):
            res = _bind(node.scratch, subs[0], C, placeholder(next(counter)))
        else:
            raise ValueError("unknown rule %r" % r)
        results[node] = (VOID, E) if res is None else (SchematicWord(res[0], res[1]), res[2])
        return res

    go(tree)
    return results


def lngc_eval(tree: DerivationTree) -> SchematicWord:
    """The schematic word of a resolved derivation."""
    return lngc_results(tree)[tree][0]


# ------------------------------------------------------------- membership

def _binding_value(x, binding):
    return binding.get(x) if is_placeholder(x) else x


def _pair_ok(l, r, binding):
    if l is r:
        return False
    vl = _binding_value(l, binding)
    vr = _binding_value(r, binding)
    if vl is None or vr is None:
        return True  # an undetermined placeholder can avoid any finite set
    return vl is not vr


def _cond_ok(c, binding):
    if isinstance(c, Neq):
        return _pair_ok(c.l, c.r, binding)
    return all(_pair_ok(c.p, x, binding) for x in c.wrt)


def schematic_member(sw: SchematicWord, w) -> bool:
    """Whether the word is an instance of the schematic word."""
    if sw.void:
        return False
    w = tuple(w)
    if len(w) != len(sw.word):
        return False
    binding = {}
    for pat, tok in zip(sw.word, w):
        if isinstance(pat, Letter):
            if tok is not pat:
                return False
        elif is_placeholder(pat):
            if not isinstance(tok, Name):
                return False
            if binding.setdefault(pat, tok) is not tok:
                return False
        else:  # a concrete name from an open context
            if tok is not pat:
                return False
    return all(_cond_ok(c, binding) for c in sw.cond)


# ---------------------------------------------------------- normalization

def _mask(x):
    return ("P",) if is_placeholder(x) else ("A", repr(x))


def _signature(p, sw):
    """Renaming-invariant profile used to order placeholders canonically."""
    word_pos = tuple(i for i, x in enumerate(sw.word) if x is p)
    own = []
    member = []
    for c in sw.cond:
        if isinstance(c, (Local, Global)):
            kind = "L" if isinstance(c, Local) else "G%d" % c.reg
            if c.p is p:
                own.append((kind, len(c.wrt), tuple(_mask(x) for x in c.wrt)))
            for j, x in enumerate(c.wrt):
                if x is p:
                    member.append((kind, j, _mask(c.p)))
        elif isinstance(c, Neq):
            if c.l is p or c.r is p:
                own.append(("!", _mask(c.r if c.l is p else c.l)))
    return (word_pos, tuple(sorted(own)), tuple(sorted(member)))


def _atom_key(x):
    if isinstance(x, Letter):
        return (0, x.sym)
    return (1,) + x.sort_key()


def _cond_key(c):
    if isinstance(c, Local):
        return (0, _atom_key(c.p), 0, tuple(map(_atom_key, c.wrt)))
    if isinstance(c, Global):
        return (1, _atom_key(c.p), c.reg, tuple(map(_atom_key, c.wrt)))
    return (2, _atom_key(c.l), 0, (_atom_key(c.r),))


def schematic_normalize(sw: SchematicWord) -> SchematicWord:
    """Canonical form: deduplicated wrt lists, placeholders renumbered by a
    renaming-invariant order, conditions sorted. Idempotent."""
    if sw.void:
        return VOID
    conds = tuple(
        c if isinstance(c, Neq) else replace(c, wrt=tuple(dict.fromkeys(c.wrt)))
        for c in sw.cond if isinstance(c, Neq) or c.wrt
    )
    base = SchematicWord(sw.word, conds)
    phs = {x for x in _atoms(base.word, base.cond) if is_placeholder(x)}
    order = sorted(phs, key=lambda p: (_signature(p, base), p.sort_key()))
    ren = {p: placeholder(i + 1) for i, p in enumerate(order)}
    word, out, _ = _subst(lambda x: ren.get(x, x), base.word, base.cond)
    return SchematicWord(word, tuple(sorted(out, key=_cond_key)))


def flatten_to_neqs(sw: SchematicWord) -> SchematicWord:
    """Replace every freshness mark by its pairwise inequations."""
    if sw.void:
        return VOID
    pairs = set()
    for c in sw.cond:
        if isinstance(c, Neq):
            pairs.add(tuple(sorted((c.l, c.r), key=_atom_key)))
        else:
            for x in c.wrt:
                pairs.add(tuple(sorted((c.p, x), key=_atom_key)))
    conds = tuple(Neq(l, r) for l, r in sorted(pairs, key=lambda p: tuple(map(_atom_key, p))))
    return schematic_normalize(SchematicWord(sw.word, conds))


# ------------------------------------------------- language of an expression

def _nph(out):
    """The largest placeholder index in an outcome, 0 if none."""
    return max((x.key for x in _atoms(*out) if is_placeholder(x)), default=0)


def _canon_outcome(word, conds, post):
    """Canonical outcome: semantically vacuous conditions pruned, then
    placeholders renumbered by first occurrence so equal outcomes collide.

    A placeholder that occurs neither in the word nor as a current value of
    the post can never reach a word later (concatenation promotes current
    values only), so over an infinite universe every inequation on it is
    satisfiable and drops out. Such a placeholder leaves the post's
    histories too: a history only ever feeds relative-global conditions,
    where it would drop out again. Relative-global conditions with an
    observable owner are kept even when their list empties: concatenation
    still extends them with the left chronicle.
    """
    observable = {x for x in word if is_placeholder(x)}
    observable.update(ch.cv for ch in post if is_placeholder(ch.cv))

    def obs(x):
        return not is_placeholder(x) or x in observable

    pruned = []
    for c in conds:
        if isinstance(c, Local):
            if obs(c.p):
                wrt = tuple(dict.fromkeys(filter(obs, c.wrt)))
                if wrt:
                    pruned.append(Local(c.p, wrt))
        elif obs(c.p):
            pruned.append(Global(c.p, c.reg, tuple(dict.fromkeys(filter(obs, c.wrt)))))
    conds = tuple(pruned)
    post = tuple(Chronicle(tuple(filter(obs, ch.hist)), ch.cv) for ch in post)

    order = {}
    for x in _atoms(word, conds, post):
        if is_placeholder(x) and x not in order:
            order[x] = placeholder(len(order) + 1)
    return _subst(lambda x: order.get(x, x), word, conds, post)


_OUTCOME_CAP = 200000


class _Evaluator:
    """Fused context/language evaluation with sharing.

    Produces, per context triple, the set of (word, conditions, post)
    outcomes over all resolved derivations, pruned to a word-length budget
    and deduplicated up to placeholder renaming. A star unfolds until an
    unfolding adds no new outcome, which the budget makes finite.
    """

    def __init__(self):
        self.memo = {}
        self.size = 0

    def _charge(self, n):
        self.size += n
        if self.size > _OUTCOME_CAP:
            raise ResourceLimitError("schematic outcome set exceeds %d entries" % _OUTCOME_CAP)

    def compose(self, left, right, pre):
        return _canon_outcome(*_concat(left, right, pre, _nph(left)))

    def eval(self, e, pre, post, budget):
        key = (e, pre, post, budget)
        got = self.memo.get(key)
        if got is not None:
            return got
        out = self._eval(e, pre, post, budget)
        self._charge(len(out))
        self.memo[key] = out
        return out

    def _eval(self, e, pre, post, budget):
        if budget < 0:
            return frozenset()
        if isinstance(e, One):
            return frozenset(((() , (), post),))
        if isinstance(e, Zero):
            return frozenset()
        if isinstance(e, Lit):
            if budget < 1:
                return frozenset()
            return frozenset((((e.s,), (), post),))
        if isinstance(e, Nam):
            if e.n not in pre:
                raise ContextError("free name %r not in pre-context %r" % (e.n, list(pre)))
            if budget < 1:
                return frozenset()
            return frozenset((((e.n,), (), post),))
        if isinstance(e, Under):
            if e.n not in pre:
                raise ContextError("free name %r not in pre-context %r" % (e.n, list(pre)))
            if budget < 1:
                return frozenset()
            return frozenset((_canon_outcome(*_under(e.n, pre, post, placeholder(1))),))
        if isinstance(e, Sum):
            return self.eval(e.l, pre, post, budget) | self.eval(e.r, pre, post, budget)
        if isinstance(e, Cat):
            nat = natural_chronicle(pre)
            out = set()
            for left in self.eval(e.l, pre, nat, budget):
                rem = budget - len(left[0])
                for right in self.eval(e.r, pre, post, rem):
                    out.add(self.compose(left, right, pre))
            return frozenset(out)
        if isinstance(e, Star):
            frontier = self.eval(e.e, pre, post, budget)
            acc = {_canon_outcome((), (), post)} | frontier
            lefts = self.eval(e.e, pre, natural_chronicle(pre), budget) if frontier else ()
            while frontier:
                nxt = set()
                for left in lefts:
                    lw = len(left[0])
                    for right in frontier:
                        if lw + len(right[0]) <= budget:
                            nxt.add(self.compose(left, right, pre))
                frontier = nxt - acc
                self._charge(len(frontier))
                acc |= frontier
            return frozenset(acc)
        if isinstance(e, Bind):
            x, body, spre, spost = _binder_subcontext(e, pre, post)
            return frozenset(
                _canon_outcome(*_bind(x, sub, pre, placeholder(_nph(sub) + 1)))
                for sub in self.eval(body, spre, spost, budget)
            )
        raise TypeError(e)


def schematic_words_of(e, pre=(), post=(), maxlen=6):
    """All schematic words of the expression in-context, words <= maxlen."""
    t = ContextTriple(pre, e, post)
    _check_context(t.pre, t.post)
    outs = _Evaluator().eval(e, t.pre, t.post, maxlen)
    return [SchematicWord(w, c) for w, c, _ in sorted(outs, key=lambda o: (len(o[0]), repr(o)))]


def _require_closed(e):
    rep = check_wellformed(e)
    if not rep.ok:
        raise ContextError("ill-formed expression: %s" % "; ".join(map(str, rep.issues)))
    if not rep.closed:
        raise ContextError("expression must be closed, free: %r" % sorted(map(repr, rep.free)))


def language_member(e, w) -> bool:
    """Word membership in the language of a closed expression."""
    _require_closed(e)
    w = check_word(w)
    for sw in schematic_words_of(e, maxlen=len(w)):
        if schematic_member(sw, w):
            return True
    return False


def _instances(word, conds, pool):
    """One instance per orbit of an outcome: its placeholders bound, in the
    order they first occur in the word, each to a pool name already bound or
    to the next unused one, so that the conditions hold. An inequation is
    checked as soon as both its sides are bound."""
    slots = tuple(dict.fromkeys(x for x in word if is_placeholder(x)))
    rank = {p: i + 1 for i, p in enumerate(slots)}
    # due[i]: the inequations whose last slot is the i-th, counting from 1
    due = [[] for _ in range(len(slots) + 1)]
    for c in conds:
        for x in c.wrt:
            due[max(rank.get(c.p, 0), rank.get(x, 0))].append((c.p, x))
    binding = {}
    out = []

    def go(i, used):
        if not all(_pair_ok(l, r, binding) for l, r in due[i]):
            return
        if i == len(slots):
            out.append(tuple(binding.get(x, x) for x in word))
            return
        for k in range(min(used + 1, len(pool))):
            binding[slots[i]] = pool[k]
            go(i + 1, max(used, k + 1))
        binding.pop(slots[i], None)

    go(0, 0)
    return out


def language_enumerate(e, pool, maxlen):
    """The bounded language of a closed expression over the given name pool."""
    _require_closed(e)
    pool = tuple(pool)
    check_bounds(pool, maxlen)
    reps = set()
    for word, conds, _ in _Evaluator().eval(e, (), (), maxlen):
        reps.update(_instances(word, conds, pool))
    return _orbit_words(reps, pool)


# ------------------------------------------------------------------- dumps

def _fmt_atoms(xs):
    return " ".join(map(repr, xs)) if xs else "-"


def _fmt_extant(ext):
    return "[" + ", ".join("%s @ %r" % (_fmt_atoms(c.hist), c.cv) for c in ext) + "]"


def _fmt_ctx(pre, e, post):
    return "[%s] ## %s ## %s" % (", ".join(map(repr, pre)), render(e), _fmt_extant(post))


_RULE_NAMES = {
    "one": "(1)",
    "zero": "(0)",
    "letter": "(s)",
    "name": "(n)",
    "under": "(n_)",
    "cat": "(cat)",
    "sum1": "(sum-l)",
    "sum2": "(sum-r)",
    "star": "(star)",
    "bind=": "(bind=)",
    "bind!=": "(bind!=)",
}


def derivation_dump(e, star_bound=2, pre=(), post=()):
    """Linear proof-forest dump: one rule per line, with the evaluated
    schematic word and real post-context of every node."""
    trees = ctxc_derive(ContextTriple(pre, e, post), star_bound)
    lines = []
    for idx, tree in enumerate(trees, 1):
        results = lngc_results(tree)
        sw = results[tree][0]
        header = "tree %d" % idx
        if len(trees) == 1:
            header = "tree"
        lines.append("=== %s ===" % header)

        def emit(node, depth):
            tag = _RULE_NAMES[node.rule]
            if node.rule == "star":
                tag = "(star h=%d)" % node.h
            res, rpost = results[node]
            lines.append(
                "%s%s %s  =>  %r %s"
                % ("  " * depth, tag, _fmt_ctx(node.pre, node.expr, node.post), res, _fmt_extant(rpost))
            )
            for c in node.children:
                emit(c, depth + 1)

        emit(tree, 0)
        norm = schematic_normalize(sw)
        lines.append("schematic: %r" % norm)
        if not sw.void:
            lines.append("inequations: %r" % flatten_to_neqs(norm))
    return "\n".join(lines) + "\n"
