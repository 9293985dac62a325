"""Names, letters, finite permutations, and chronicles.

Names come from a countably infinite totally ordered universe split into
three disjoint kinds: user names (written ``$x``), reserved machine names
(written ``~k``, used for canonical fresh choices and bound-name renaming),
and placeholders (written ``*k``, used by the symbolic language calculus).
Letters form a separate finite alphabet; the two lexical classes never
overlap.

Everything in this module is immutable and safe to share across threads.
"""

from dataclasses import dataclass
import itertools

from .errors import ValidationError


class Name:
    """An atom of the name universe. Interned: equal names are identical."""

    __slots__ = ("kind", "key")

    K_USER = 0
    K_SYS = 1
    K_PH = 2

    _table = {}

    def __new__(cls, kind, key):
        cached = cls._table.get((kind, key))
        if cached is not None:
            return cached
        obj = super().__new__(cls)
        object.__setattr__(obj, "kind", kind)
        object.__setattr__(obj, "key", key)
        return cls._table.setdefault((kind, key), obj)

    def __setattr__(self, *_):
        raise AttributeError("Name is immutable")

    def sort_key(self):
        return (self.kind, self.key)

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __repr__(self):
        if self.kind == Name.K_USER:
            return "$" + self.key
        if self.kind == Name.K_SYS:
            return "~%d" % self.key
        return "*%d" % self.key


def name(spelling):
    """User name with the given spelling."""
    return Name(Name.K_USER, spelling)


def sys_name(k):
    """The k-th reserved machine name."""
    return Name(Name.K_SYS, k)


def placeholder(k):
    """The k-th placeholder."""
    return Name(Name.K_PH, k)


def is_placeholder(x):
    return isinstance(x, Name) and x.kind == Name.K_PH


class Letter:
    """A symbol of the finite alphabet. Interned like Name."""

    __slots__ = ("sym",)
    _table = {}

    def __new__(cls, sym):
        cached = cls._table.get(sym)
        if cached is not None:
            return cached
        obj = super().__new__(cls)
        object.__setattr__(obj, "sym", sym)
        return cls._table.setdefault(sym, obj)

    def __setattr__(self, *_):
        raise AttributeError("Letter is immutable")

    def __repr__(self):
        return self.sym


class Perm:
    """A finitely generated permutation of the name universe.

    Stored as its support mapping; identity everywhere else. Injective on
    the support by construction.
    """

    __slots__ = ("_map",)

    def __init__(self, mapping=None):
        m = {}
        if mapping:
            for k, v in mapping.items():
                if k is not v:
                    m[k] = v
        if len(set(m.values())) != len(m):
            raise ValueError("mapping is not injective")
        self._map = m

    def __call__(self, n):
        return self._map.get(n, n)

    def support(self):
        return frozenset(self._map)

    def inverse(self):
        p = Perm()
        p._map = {v: k for k, v in self._map.items()}
        return p

    def compose(self, other):
        """self after other: (self.compose(other))(n) = self(other(n))."""
        m = {}
        for n in set(self._map) | set(other._map):
            img = self(other(n))
            if img is not n:
                m[n] = img
        p = Perm()
        p._map = m
        return p

    def is_identity(self):
        return not self._map

    def __eq__(self, other):
        return isinstance(other, Perm) and self._map == other._map

    def __hash__(self):
        return hash(frozenset(self._map.items()))

    def __repr__(self):
        if not self._map:
            return "Perm(id)"
        body = ", ".join(
            "%r>%r" % (k, v) for k, v in sorted(self._map.items(), key=lambda kv: kv[0].sort_key())
        )
        return "Perm(%s)" % body


IDENTITY = Perm()


def transpose(a, b):
    """The transposition (a b); identity when a = b."""
    if a is b:
        return IDENTITY
    return Perm({a: b, b: a})


def perm_from_lists(ns, ms):
    """Extend the positional map ns[i] -> ms[i] to a bijection on ns ∪ ms.

    Elements of the union without an assigned image are matched, in name
    order, with the elements lacking a preimage. Deterministic and
    order-stable.
    """
    if len(ns) != len(ms):
        raise ValueError("length mismatch: %d vs %d" % (len(ns), len(ms)))
    if len(set(ns)) != len(ns) or len(set(ms)) != len(ms):
        raise ValueError("repetition in permutation lists")
    mapping = dict(zip(ns, ms))
    domain = set(ns) | set(ms)
    sources = sorted((x for x in domain if x not in mapping), key=Name.sort_key)
    used = set(ms)
    targets = sorted((y for y in domain if y not in used), key=Name.sort_key)
    mapping.update(zip(sources, targets))
    return Perm(mapping)


def check_bounds(pool, maxlen):
    """Reject a pool of anything but distinct names, and a length bound that
    is not an int >= 0 (a bool is no int)."""
    for n in pool:
        if not isinstance(n, Name):
            raise ValidationError("pool members must be names, got %r" % (n,))
    if len(set(pool)) != len(pool):
        raise ValidationError("pool must be repetition-free")
    if type(maxlen) is not int or maxlen < 0:
        raise ValidationError("maxlen must be an int >= 0, got %r" % (maxlen,))


def check_word(w):
    """w as a tuple of letters and names; any other token is a ValidationError."""
    w = tuple(w)
    for t in w:
        if not isinstance(t, (Letter, Name)):
            raise ValidationError("word tokens must be letters or names, got %r" % (t,))
    return w


def _orbit_words(reps, pool):
    """Every word that maps one of the representatives injectively into the
    pool. A representative's names are the first names of the pool, in order
    of first appearance; over an equivariant language the words it yields are
    exactly the bounded words of its orbit."""
    index = {n: i for i, n in enumerate(pool)}
    out = set()
    for w in reps:
        code = tuple(index.get(t, t) for t in w)
        k = len({t for t in w if t in index})
        for choice in itertools.permutations(pool, k):
            out.add(tuple(choice[c] if type(c) is int else c for c in code))
    return out


@dataclass(frozen=True, slots=True)
class Chronicle:
    """A register's history word plus its designated current value."""

    hist: tuple
    cv: Name

    def __post_init__(self):
        if not self.hist:
            raise ValueError("chronicle history must be non-empty")
        if self.cv not in self.hist:
            raise ValueError("current value %r not in history" % (self.cv,))

    def extend(self, names):
        """s@t: append names to the history; current value unchanged."""
        if not names:
            return self
        return Chronicle(self.hist + tuple(names), self.cv)

    def delete(self, names):
        """s∖t: drop every occurrence of the given names from the history."""
        drop = set(names)
        if self.cv in drop:
            raise ValueError("cannot delete current value %r" % (self.cv,))
        if not drop:
            return self
        return Chronicle(tuple(x for x in self.hist if x not in drop), self.cv)

    def dedup(self):
        """Remove repeated history entries, keeping first occurrences."""
        out = tuple(dict.fromkeys(self.hist))
        return self if len(out) == len(self.hist) else Chronicle(out, self.cv)

    def __repr__(self):
        return "{%s @ %r}" % (" ".join(map(repr, self.hist)), self.cv)


def chronicle(names, cv):
    return Chronicle(tuple(names), cv)


# An extant chronicle is a tuple of Chronicles, one per live register,
# innermost (most recently allocated) last.

def hcv(extant):
    """List of current values, register order."""
    return tuple(c.cv for c in extant)


def natural_chronicle(pre):
    """The natural extant chronicle of a pre-context.

    Register i starts with history pre[i:] and current value pre[i].
    """
    pre = tuple(pre)
    return tuple(Chronicle(pre[i:], pre[i]) for i in range(len(pre)))
