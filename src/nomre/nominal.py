"""Names, letters, renamings, and chronicles.

Names come from a countably infinite totally ordered universe split into
three disjoint kinds: user names (written ``$x``), reserved machine names
(written ``~k``, used for canonical fresh choices and bound-name renaming),
and placeholders (written ``*k``, used by the symbolic language calculus).
Letters form a separate finite alphabet; the two lexical classes never
overlap. A renaming is a plain dict from names to names, the identity off
its keys; the calculus applies one with ``m.get(x, x)``.

Names, letters and chronicles are immutable and safe to share across
threads; each renaming is a new dict that belongs to its caller.
"""

import itertools
import operator

from .errors import ValidationError


_set = object.__setattr__  # how a constructor sets a field


class _Frozen:
    """No assignment to, or deletion of, an attribute after construction."""

    __slots__ = ()

    def __setattr__(self, *_):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, _):
        raise AttributeError("%s is immutable" % type(self).__name__)


class _Atom(_Frozen):
    """An interned immutable atom: equal fields give the identical object,
    also after pickle, copy and deepcopy, which rebuild it through the
    constructor. A subclass lists its fields in __slots__ and keeps its own
    _table; setdefault makes a race between two threads intern one object."""

    __slots__ = ()

    def __new__(cls, *fields):
        obj = cls._table.get(fields)
        if obj is None:
            if len(fields) != len(cls.__slots__):
                raise TypeError("%s takes %s" % (cls.__name__, ", ".join(cls.__slots__)))
            obj = super().__new__(cls)
            for slot, value in zip(cls.__slots__, fields):
                _set(obj, slot, value)
            obj = cls._table.setdefault(fields, obj)
        return obj

    def __reduce__(self):
        return type(self), tuple(getattr(self, slot) for slot in self.__slots__)


def _hash_fields(v):
    return hash(v._get(v))


def _hash_field(v):  # the attrgetter of one field gives it bare
    return hash((v._get(v),))


class _Value(_Frozen):
    """An immutable value. A subclass lists its fields in __slots__, in
    constructor order, and sets them with _set in its own __init__; a
    "__dict__" entry there is no field but room for cached properties.
    Values are equal when they have the same class and equal fields, and
    hash as their field tuple; repr is Class(field=value, ...). pickle, copy
    and deepcopy rebuild a value through its constructor, then restore its
    __dict__."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(s for s in cls.__slots__ if s != "__dict__")
        cls._get = operator.attrgetter(*cls._fields) if cls._fields else staticmethod(lambda v: ())
        if "__hash__" not in vars(cls):
            cls.__hash__ = _hash_field if len(cls._fields) == 1 else _hash_fields

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._get(self) == other._get(other)

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__,
                           ", ".join("%s=%r" % (f, getattr(self, f)) for f in self._fields))

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields), getattr(self, "__dict__", None)


class Name(_Atom):
    """An atom of the name universe. Interned: equal names are identical."""

    __slots__ = ("kind", "key")

    K_USER = 0
    K_SYS = 1
    K_PH = 2

    _table = {}

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


class Letter(_Atom):
    """A symbol of the finite alphabet. Interned like Name."""

    __slots__ = ("sym",)
    _table = {}

    def __repr__(self):
        return self.sym


def atom_key(x):
    """The order of word atoms: letters by spelling, then names."""
    if isinstance(x, Letter):
        return (0, x.sym)
    return (1,) + x.sort_key()


def _check_names(xs):
    for x in xs:
        if not isinstance(x, Name):
            raise ValidationError("a renaming maps names to names, got %r" % (x,))


def check_renaming(m):
    """Reject anything but a dict of names that, with the identity off its
    keys, is injective: one whose values are exactly its keys."""
    if not isinstance(m, dict):
        raise ValidationError("a renaming is a dict, got %r" % (m,))
    _check_names(itertools.chain(m, m.values()))
    if set(m.values()) != set(m):
        raise ValidationError("renaming %r is not injective" % (m,))


def transpose(a, b):
    """The transposition (a b) as a renaming: a dict that is the identity
    off its keys. Empty when a = b; a non-name is a ValidationError."""
    _check_names((a, b))
    return {} if a is b else {a: b, b: a}


def check_bounds(pool, maxlen):
    """Reject a pool of anything but distinct names, and a length bound that
    is not an int >= 0 (a bool is no int)."""
    for n in pool:
        if not isinstance(n, Name):
            raise ValidationError("pool members must be names, got %r" % (n,))
    if len(set(pool)) != len(pool):
        raise ValidationError("pool must be repetition-free")
    _check_bound(maxlen, "maxlen")


def _check_bound(value, what):
    """Reject a bound that is not an int >= 0 (a bool is no int)."""
    if type(value) is not int or value < 0:
        raise ValidationError("%s must be an int >= 0, got %r" % (what, value))


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


class Chronicle(_Value):
    """A register's history word (a tuple) plus its designated current value."""

    __slots__ = ("hist", "cv")

    def __init__(self, hist, cv):
        if not hist:
            raise ValueError("chronicle history must be non-empty")
        if cv not in hist:
            raise ValueError("current value %r not in history" % (cv,))
        _set(self, "hist", hist)
        _set(self, "cv", cv)

    def dedup(self):
        """Remove repeated history entries, keeping first occurrences."""
        out = tuple(dict.fromkeys(self.hist))
        return self if len(out) == len(self.hist) else Chronicle(out, self.cv)

    def __repr__(self):
        return "{%s @ %r}" % (" ".join(map(repr, self.hist)), self.cv)


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
