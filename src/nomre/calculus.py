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
from dataclasses import dataclass

from .compiler import ContextTriple
from .errors import ContextError, ResourceLimitError
from .expr import (
    Bind,
    Cat,
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
    hcv,
    is_placeholder,
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

@dataclass
class DerivationTree:
    """One resolved derivation node; sums chosen, stars unfolded."""

    rule: str
    pre: tuple
    expr: object
    post: tuple
    children: tuple = ()
    h: int | None = None
    scratch: Name | None = None
    result: object = None  # (SchematicWord, post) after evaluation


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


_FOREST_CAP = 20000


def ctxc_derive(t: ContextTriple, star_bound: int):
    """All resolved derivations of the triple, stars unfolded 0..star_bound."""
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

    return go(t.payload, tuple(t.pre), tuple(t.post))


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


def _concat(left, right, pre):
    """The concatenation rule: the right outcome is renamed by the
    permutation matching the pre-context to the left post's current values,
    and its relative-global conditions are extended by the left chronicle."""
    w1, phi1, p1 = left
    pi = perm_from_lists(tuple(pre), hcv(p1))
    w2, phi2, p2 = _subst(pi, *right)
    phi2 = tuple(
        Global(c.p, c.reg, p1[c.reg - 1].hist + c.wrt)
        if isinstance(c, Global) and c.reg <= len(p1) else c
        for c in phi2
    )
    post = tuple(Chronicle(a.hist + b.hist, b.cv).dedup() for a, b in zip(p1, p2))
    return w1 + w2, phi1 + phi2, post


def lngc_eval(tree: DerivationTree) -> SchematicWord:
    """Evaluate a resolved derivation bottom-up to its schematic word.

    Nodes are annotated with their (schematic word, real post-context)
    pairs as evaluation proceeds; the real posts are recomputed from the
    children and in general differ from the threaded static ones.
    Placeholders are numbered in the order evaluation introduces them.
    """
    counter = itertools.count(1)

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
            res = _concat(subs[0], subs[1], C)
        elif r in ("bind=", "bind!="):
            if len(subs[0][2]) != len(C) + 1:
                raise ContextError("binder child post has wrong register count")
            res = _bind(node.scratch, subs[0], C, placeholder(next(counter)))
        else:
            raise ValueError("unknown rule %r" % r)
        node.result = (VOID, E) if res is None else (SchematicWord(res[0], res[1]), res[2])
        return res

    go(tree)
    return tree.result[0]


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

def _dedup_tuple(xs):
    seen = set()
    out = []
    for x in xs:
        if x not in seen:
            seen.add(x)
            out.append(x)
    return tuple(out)


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
    conds = []
    for c in sw.cond:
        if isinstance(c, Local):
            if c.wrt:
                conds.append(Local(c.p, _dedup_tuple(c.wrt)))
        elif isinstance(c, Global):
            if c.wrt:
                conds.append(Global(c.p, c.reg, _dedup_tuple(c.wrt)))
        else:
            conds.append(c)
    base = SchematicWord(sw.word, tuple(conds))
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
    satisfiable and drops out. Relative-global conditions with an
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
                wrt = _dedup_tuple(x for x in c.wrt if obs(x))
                if wrt:
                    pruned.append(Local(c.p, wrt))
        elif isinstance(c, Global):
            if obs(c.p):
                pruned.append(Global(c.p, c.reg, _dedup_tuple(x for x in c.wrt if obs(x))))
        else:
            if obs(c.l) and obs(c.r) or c.l is c.r:
                pruned.append(c)
    conds = tuple(pruned)

    order = {}
    for x in _atoms(word, conds, post):
        if is_placeholder(x) and x not in order:
            order[x] = placeholder(len(order) + 1)
    return _subst(lambda x: order.get(x, x), word, conds, post)


def _shift_outcome(out, by):
    if by == 0:
        return out
    return _subst(lambda x: placeholder(x.key + by) if is_placeholder(x) else x, *out)


_OUTCOME_CAP = 200000


class _Evaluator:
    """Fused context/language evaluation with sharing.

    Produces, per context triple, the set of (word, conditions, post)
    outcomes over all resolved derivations, pruned to a word-length budget
    and deduplicated up to placeholder renaming. Equivalent to evaluating
    every derivation of ctxc_derive separately.
    """

    def __init__(self, star_bound):
        self.star_bound = star_bound
        self.memo = {}
        self.size = 0

    def _charge(self, n):
        self.size += n
        if self.size > _OUTCOME_CAP:
            raise ResourceLimitError("schematic outcome set exceeds %d entries" % _OUTCOME_CAP)

    def compose(self, left, right, pre):
        right = _shift_outcome(right, _nph(left))
        return _canon_outcome(*_concat(left, right, pre))

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
            nat = natural_chronicle(pre)
            acc = {_canon_outcome((), (), post)}
            frontier = self.eval(e.e, pre, post, budget)
            acc |= frontier
            lefts = None
            for _ in range(2, self.star_bound + 1):
                if not frontier:
                    break
                if lefts is None:
                    lefts = self.eval(e.e, pre, nat, budget)
                    if not lefts:
                        break
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


def schematic_words_of(e, pre=(), post=(), maxlen=6, star_bound=None):
    """All schematic words of the expression in-context, words <= maxlen."""
    if star_bound is None:
        star_bound = maxlen + 1
    ev = _Evaluator(star_bound)
    outs = ev.eval(e, tuple(pre), tuple(post), maxlen)
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
    w = tuple(w)
    for sw in schematic_words_of(e, maxlen=len(w), star_bound=len(w) + 1):
        if schematic_member(sw, w):
            return True
    return False


def _instances(sw, pool):
    """The words binding the schematic word's placeholders to pool names
    so that its conditions hold."""
    slots = tuple(dict.fromkeys(x for x in sw.word if is_placeholder(x)))
    for choice in itertools.product(pool, repeat=len(slots)):
        binding = dict(zip(slots, choice))
        if all(_cond_ok(c, binding) for c in sw.cond):
            yield tuple(binding.get(x, x) for x in sw.word)


def language_enumerate(e, pool, maxlen):
    """The bounded language of a closed expression over the given name pool."""
    _require_closed(e)
    pool = tuple(pool)
    if len(set(pool)) != len(pool):
        raise ValueError("pool must be repetition-free")
    words = set()
    for sw in schematic_words_of(e, maxlen=maxlen, star_bound=maxlen + 1):
        words.update(_instances(sw, pool))
    return words


def forest_language_enumerate(e, pool, maxlen):
    """Reference enumeration through explicit derivation trees; test oracle."""
    _require_closed(e)
    pool = tuple(pool)
    words = set()
    for tree in ctxc_derive(ContextTriple((), e, ()), maxlen + 1):
        sw = lngc_eval(tree)
        if not sw.void and len(sw.word) <= maxlen:
            words.update(_instances(sw, pool))
    return words


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
    trees = ctxc_derive(ContextTriple(tuple(pre), e, tuple(post)), star_bound)
    lines = []
    for idx, tree in enumerate(trees, 1):
        sw = lngc_eval(tree)
        header = "tree %d" % idx
        if len(trees) == 1:
            header = "tree"
        lines.append("=== %s ===" % header)

        def emit(node, depth):
            tag = _RULE_NAMES[node.rule]
            if node.rule == "star":
                tag = "(star h=%d)" % node.h
            res, rpost = node.result
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
