"""Context and language calculi: symbolic language computation.

Context derivation threads pre-contexts (names in scope) and post-contexts
(the extant chronicle established after a subexpression) down the syntax
tree, resolving each sum to a branch and each star to a bounded unfolding.
Evaluating a resolved tree bottom-up produces a schematic word: a word of
placeholders, letters and context names together with freshness conditions.

Two freshness marks exist: ``p # xs`` (local: p differs from every current
value listed) and ``p #_i xs`` (relative global: p differs from everything
recorded in register i's chronicle). Concatenation renames the right-hand
word by the positional map from the pre-context to the left post-context's
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

from .errors import ContextError, ResourceLimitError
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
    context_violation,
    render,
)
from .nominal import (
    Chronicle,
    Letter,
    Name,
    _Value,
    _set,
    atom_key,
    check_bounds,
    check_word,
    hcv,
    is_placeholder,
    _orbit_words,
    _check_bound,
    natural_chronicle,
    placeholder,
    sys_name,
    transpose,
)


# ------------------------------------------------------------- conditions

class Neq(_Value):
    __slots__ = ("l", "r")

    def __init__(self, l, r):
        _set(self, "l", l)
        _set(self, "r", r)

    def __repr__(self):
        return "%r != %r" % (self.l, self.r)


class Local(_Value):
    __slots__ = ("p", "wrt")

    def __init__(self, p, wrt):
        _set(self, "p", p)
        _set(self, "wrt", wrt)

    def __repr__(self):
        return "%r # %s" % (self.p, " ".join(map(repr, self.wrt)))


class Global(_Value):
    __slots__ = ("p", "reg", "wrt")

    def __init__(self, p, reg, wrt):
        _set(self, "p", p)
        _set(self, "reg", reg)
        _set(self, "wrt", wrt)

    def __repr__(self):
        return "%r #_%d %s" % (self.p, self.reg, " ".join(map(repr, self.wrt)))


class SchematicWord(_Value):
    __slots__ = ("word", "cond", "void")

    def __init__(self, word, cond, void=False):
        _set(self, "word", word)
        _set(self, "cond", cond)
        _set(self, "void", void)

    def __repr__(self):
        if self.void:
            return "[[ - | absurd ]]"
        w = " ".join(map(repr, self.word)) if self.word else "eps"
        c = ", ".join(map(repr, self.cond))
        return "[[ %s | %s ]]" % (w, c) if c else "[[ %s ]]" % w


VOID = SchematicWord((), (), True)


# -------------------------------------------------------- context calculus

class DerivationTree(_Value):
    """One resolved derivation node; sums chosen, stars unfolded. The trees
    of one forest share subtrees, so a node compares by identity and holds
    no evaluation result. h is a star node's unfolding count."""

    __slots__ = ("rule", "pre", "expr", "post", "children", "h")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, rule, pre, expr, post, children=(), h=None):
        _set(self, "rule", rule)
        _set(self, "pre", pre)
        _set(self, "expr", expr)
        _set(self, "post", post)
        _set(self, "children", children)
        _set(self, "h", h)


def _binder_subcontext(e, pre, post):
    """Renamed body and extended contexts for a binder node. The fresh atom
    ~len(pre) stands for the bound name and ends the extended pre-context."""
    x = sys_name(len(pre))
    body = apply_perm_expr(transpose(e.n, x), e.body)
    if e.close is e.n:
        sub_post = tuple(Chronicle(c.hist + (x,), c.cv) for c in post) + (Chronicle((x,), x),)
    else:
        swap = transpose(e.close, x)
        sub_post = tuple(Chronicle(c.hist + (x,), swap.get(c.cv, c.cv)) for c in post) + (
            Chronicle((x, e.close), e.close),
        )
    return body, pre + (x,), sub_post


def _check_context(t):
    """No ~k or *k in a context, since the calculus draws its binder atoms
    and placeholders from those supplies, then expr.context_violation: both
    before any derivation, so no bound or sibling subterm decides them."""
    for x in itertools.chain(t.pre, _atoms((), (), t.post)):
        if isinstance(x, Name) and x.kind != Name.K_USER:
            raise ContextError("context name %r is reserved for the calculus" % (x,))
    why = context_violation(t)
    if why:
        raise ContextError(why)


_FOREST_CAP = 20000


def ctxc_derive(t: ContextTriple, star_bound: int):
    """All resolved derivations of the triple, stars unfolded 0..star_bound."""
    _check_bound(star_bound, "star_bound")
    _check_context(t)
    count = [0]

    def charge():
        count[0] += 1
        if count[0] > _FOREST_CAP:
            raise ResourceLimitError("derivation forest exceeds %d nodes" % _FOREST_CAP)

    def grow(rule, e, pre, post, kids, h=None):
        """One node per tuple of children in kids, each charged to the cap;
        zip over one list of trees gives its 1-tuples."""
        out = []
        for children in kids:
            charge()
            out.append(DerivationTree(rule, pre, e, post, children, h))
        return out

    def go(e, pre, post):
        charge()
        if isinstance(e, (One, Zero, Lit, Nam, Under)):
            rule = {
                One: "one", Zero: "zero", Lit: "letter", Nam: "name", Under: "under",
            }[type(e)]
            return [DerivationTree(rule, pre, e, post)]
        if isinstance(e, Sum):
            out = grow("sum1", e, pre, post, zip(go(e.l, pre, post)))
            return out + grow("sum2", e, pre, post, zip(go(e.r, pre, post)))
        if isinstance(e, Cat):
            lefts = go(e.l, pre, natural_chronicle(pre))
            rights = go(e.r, pre, post)
            return grow("cat", e, pre, post, itertools.product(lefts, rights))
        if isinstance(e, Star):
            out, chain = [], ONE
            for h in range(star_bound + 1):
                out += grow("star", e, pre, post, zip(go(chain, pre, post)), h)
                chain = e.e if h == 0 else Cat(e.e, chain)
            return out
        if isinstance(e, Bind):
            rule = "bind=" if e.close is e.n else "bind!="
            return grow(rule, e, pre, post, zip(go(*_binder_subcontext(e, pre, post))))
        raise TypeError(e)

    return go(t.payload, t.pre, t.post)


# ------------------------------------------------------- language calculus
#
# An evaluated derivation is an outcome (word, conditions, post). Each rule
# below is stated once and shared by the tree evaluator behind the
# derivation dumps and the fused evaluator behind language enumeration; a
# rule that introduces a placeholder takes it as an argument, since the two
# evaluators number placeholders differently.

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


def _subst(m, word, conds, post=()):
    """Rename every atom of an outcome by the dict m, the identity off its
    keys; no letter is a key."""
    get = m.get
    out = []
    for c in conds:
        if isinstance(c, Local):
            out.append(Local(get(c.p, c.p), tuple([get(x, x) for x in c.wrt])))
        elif isinstance(c, Global):
            out.append(Global(get(c.p, c.p), c.reg, tuple([get(x, x) for x in c.wrt])))
        else:
            out.append(Neq(get(c.l, c.l), get(c.r, c.r)))
    post = tuple(Chronicle(tuple([get(x, x) for x in ch.hist]), get(ch.cv, ch.cv)) for ch in post)
    return tuple([get(x, x) for x in word]), tuple(out), post


def _leaf(e, pre, post, p):
    """The rules of 1, a letter, a name and an underline. An underline reads
    the fresh placeholder p, locally fresh and fresh for its name's register;
    the other leaves ignore p."""
    if isinstance(e, One):
        return (), (), post
    if isinstance(e, Lit):
        return (e.s,), (), post
    if isinstance(e, Nam):
        return (e.n,), (), post
    i = pre.index(e.n) + 1
    conds = (Local(p, pre), Global(p, i, pre[i - 1:]))
    swap = transpose(e.n, p)
    return (p,), conds, tuple(Chronicle(c.hist + (p,), swap.get(c.cv, c.cv)).dedup() for c in post)


def _bind(sub, pre, q):
    """The binder rule: the body's fresh atom ~len(pre) becomes the fresh q
    and its register is dropped."""
    swap = transpose(sys_name(len(pre)), q)
    word, conds, post = _subst(swap, sub[0], sub[1], sub[2][:-1])
    return word, (Local(q, pre),) + conds, tuple(c.dedup() for c in post)


def _concat(left, right, pre, shift):
    """The concatenation rule. The right outcome is renamed by the positional
    map from the pre-context to the left post's current values, and its
    placeholders move up by shift, past the left's (0 when they are already
    disjoint). The right holds only pre-context names and placeholders, so
    no other name needs an image, and the pre-context holds no placeholder,
    so the two parts of the map never share a key. The right's
    relative-global conditions are then extended by the left chronicle."""
    w1, phi1, p1 = left
    m = dict(zip(pre, hcv(p1)))
    if shift:
        m.update({x: placeholder(x.key + shift) for x in _atoms(*right) if is_placeholder(x)})
    w2, phi2, p2 = _subst(m, *right)
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
        elif r in ("one", "letter", "name", "under"):
            res = _leaf(e, C, E, placeholder(next(counter)) if r == "under" else None)
        elif r in ("sum1", "sum2", "star"):
            res = subs[0]
        elif r == "cat":
            res = _concat(subs[0], subs[1], C, 0)
        elif r in ("bind=", "bind!="):
            res = _bind(subs[0], C, placeholder(next(counter)))
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


def _cond_key(c):
    if isinstance(c, Local):
        return (0, atom_key(c.p), 0, tuple(map(atom_key, c.wrt)))
    if isinstance(c, Global):
        return (1, atom_key(c.p), c.reg, tuple(map(atom_key, c.wrt)))
    return (2, atom_key(c.l), 0, (atom_key(c.r),))


def schematic_normalize(sw: SchematicWord) -> SchematicWord:
    """Canonical form: deduplicated wrt lists, placeholders renumbered by a
    renaming-invariant order, conditions sorted. Idempotent."""
    if sw.void:
        return VOID
    conds = tuple(
        c if isinstance(c, Neq)
        else Local(c.p, tuple(dict.fromkeys(c.wrt))) if isinstance(c, Local)
        else Global(c.p, c.reg, tuple(dict.fromkeys(c.wrt)))
        for c in sw.cond if isinstance(c, Neq) or c.wrt
    )
    base = SchematicWord(sw.word, conds)
    phs = {x for x in _atoms(base.word, base.cond) if is_placeholder(x)}
    order = sorted(phs, key=lambda p: (_signature(p, base), p.sort_key()))
    ren = {p: placeholder(i + 1) for i, p in enumerate(order)}
    word, out, _ = _subst(ren, base.word, base.cond)
    return SchematicWord(word, tuple(sorted(out, key=_cond_key)))


def flatten_to_neqs(sw: SchematicWord) -> SchematicWord:
    """Replace every freshness mark by its pairwise inequations."""
    if sw.void:
        return VOID
    pairs = set()
    for c in sw.cond:
        if isinstance(c, Neq):
            pairs.add(tuple(sorted((c.l, c.r), key=atom_key)))
        else:
            for x in c.wrt:
                pairs.add(tuple(sorted((c.p, x), key=atom_key)))
    conds = tuple(Neq(l, r) for l, r in sorted(pairs, key=lambda p: tuple(map(atom_key, p))))
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
    return _subst(order, word, conds, post)


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
        if isinstance(e, Zero):
            return frozenset()
        if isinstance(e, (One, Lit, Nam, Under)):
            out = _leaf(e, pre, post, placeholder(1))
            return frozenset((out,)) if len(out[0]) <= budget else frozenset()
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
            acc = {_leaf(ONE, pre, post, None)} | frontier
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
            body, spre, spost = _binder_subcontext(e, pre, post)
            return frozenset(
                _canon_outcome(*_bind(sub, pre, placeholder(_nph(sub) + 1)))
                for sub in self.eval(body, spre, spost, budget)
            )
        raise TypeError(e)


def _outcomes(e, budget, pre=(), post=()):
    """The fused evaluator's outcomes of e in its context, words <= budget;
    the context is checked first, and the empty one admits exactly the
    closed, well-formed expressions."""
    t = ContextTriple(pre, e, post)
    _check_context(t)
    return _Evaluator().eval(e, t.pre, t.post, budget)


def schematic_words_of(e, pre=(), post=(), maxlen=6):
    """All schematic words of the expression in-context, words <= maxlen."""
    _check_bound(maxlen, "maxlen")
    outs = _outcomes(e, maxlen, pre, post)
    return [SchematicWord(w, c) for w, c, _ in sorted(outs, key=lambda o: (len(o[0]), repr(o)))]


def language_member(e, w) -> bool:
    """Word membership in the language of a closed expression."""
    w = check_word(w)
    outs = _outcomes(e, len(w))
    return any(schematic_member(SchematicWord(word, conds), w) for word, conds, _ in outs)


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
    pool = tuple(pool)
    check_bounds(pool, maxlen)
    reps = set()
    for word, conds, _ in _outcomes(e, maxlen):
        reps.update(_instances(word, conds, pool))
    return _orbit_words(reps, pool)


# ------------------------------------------------------------------- dumps

def _fmt_extant(ext):
    return "[" + ", ".join("%s @ %r" % (" ".join(map(repr, c.hist)), c.cv) for c in ext) + "]"


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
