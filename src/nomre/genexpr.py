"""Seeded random generation of well-formed closed expressions.

Used by the property and acceptance suites; deterministic for a given
Random instance so failures replay.
"""

import random

from .expr import Bind, Cat, Lit, NreClass, ONE, Star, Sum, Under, ZERO, Nam, check_wellformed
from .nominal import Letter, name

_BOUND_NAMES = [name(x) for x in ("x", "y", "z", "w")]


def random_nre(rng, letters=("a", "b"), max_depth=3, size=8,
               allow_under=True, allow_perm=True, allow_zero=True):
    """One closed well-formed expression with binder nesting <= max_depth."""
    return _draw(rng, letters, max_depth, size, allow_under, allow_perm, allow_zero)[0]


def _draw(rng, letters, max_depth, size, allow_under, allow_perm, allow_zero):
    """A random_nre expression and its grammar class."""
    letters = [Letter(x) for x in letters]

    def go(depth, env, budget):
        choices = ["lit", "one"]
        if budget > 1:
            choices += ["sum", "cat", "cat", "star"]
        if env:
            choices += ["name", "name"]
            if allow_under:
                choices += ["under", "under"]
        if depth < max_depth:
            choices += ["bind", "bind"]
        if allow_zero and rng.random() < 0.03:
            return ZERO
        pick = rng.choice(choices)
        if pick == "one":
            return ONE
        if pick == "lit":
            return Lit(rng.choice(letters))
        if pick == "name":
            return Nam(rng.choice(env))
        if pick == "under":
            return Under(rng.choice(env))
        if pick == "sum":
            cut = max(1, budget // 2)
            return Sum(go(depth, env, cut), go(depth, env, budget - cut))
        if pick == "cat":
            cut = max(1, budget // 2)
            return Cat(go(depth, env, cut), go(depth, env, budget - cut))
        if pick == "star":
            return Star(go(depth, env, budget - 1))
        bound = _BOUND_NAMES[depth]
        close = bound
        if allow_perm and env and rng.random() < 0.4:
            close = rng.choice(env)
        return Bind(bound, go(depth + 1, env + [bound], budget - 1), close)

    e = go(0, [], size)
    rep = check_wellformed(e)
    assert rep.ok and rep.closed
    return e, rep.nre_class


def corpus_of_classes(seed, total=200, letters=("a", "b"), max_depth=3, allow_zero=True):
    """At least total expressions covering all four grammar classes."""
    rng = random.Random(seed)
    out = []
    counts = {c: 0 for c in NreClass}
    while len(out) < total or min(counts.values()) < 8:
        modes = [(True, True), (True, False), (False, True), (False, False)]
        allow_under, allow_perm = modes[len(out) % 4]
        e, cls = _draw(rng, letters, max_depth, rng.randint(3, 9), allow_under, allow_perm, allow_zero)
        out.append(e)
        counts[cls] += 1
        if len(out) > total * 40:
            raise RuntimeError("generator failed to cover all classes")
    return out
