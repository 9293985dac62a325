"""Expression and word tools that only the tests use."""

from nomre.expr import Bind, Cat, Star, Sum, apply_perm_expr
from nomre.nominal import transpose


def apply_perm_word(m, w):
    """Pointwise action of the renaming dict m on a word: names mapped,
    letters fixed (no letter is a key)."""
    return tuple(m.get(t, t) for t in w)


def binder_depth(e):
    if isinstance(e, (Sum, Cat)):
        return max(binder_depth(e.l), binder_depth(e.r))
    if isinstance(e, Star):
        return binder_depth(e.e)
    if isinstance(e, Bind):
        return 1 + binder_depth(e.body)
    return 0


def rename_bound(e, old, new):
    """Consistently rename one bound name (helper for alpha variants)."""
    if isinstance(e, Bind) and e.n is old:
        body = apply_perm_expr(transpose(old, new), e.body)
        close = new if e.close is old else e.close
        return Bind(new, body, close)
    if isinstance(e, Sum):
        return Sum(rename_bound(e.l, old, new), rename_bound(e.r, old, new))
    if isinstance(e, Cat):
        return Cat(rename_bound(e.l, old, new), rename_bound(e.r, old, new))
    if isinstance(e, Star):
        return Star(rename_bound(e.e, old, new))
    if isinstance(e, Bind):
        return Bind(e.n, rename_bound(e.body, old, new), e.close)
    return e
