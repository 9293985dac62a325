"""Shipped example languages: expressions, reference predicates, automata.

The three session-trace languages from the motivating scenario, the two
small pedagogical expressions, and the two worked symbolic examples, each
with word-level oracles where a closed-form predicate exists. Hand-built
automata mirror the figures: they are independent of the compiler and feed
the round-trip and differential suites.
"""

from .nominal import Letter, Name, name

ALPHABET = ("a", "b", "d")

# u-NRE for sessions: two letters then a run of globally fresh names.
LSES_TEXT = "a b <$n. _$n* >"
# u-NRE for one-shot threads: per run, a globally fresh name and two
# locally fresh thread names.
LONET_TEXT = "a b <$n. ( _$n <$m. $m <$l. $l> > )* >"
# up-NRE for delegating threads.
LTHS_TEXT = "a b <$n. ( _$n <$m. ( <$l. ($m + $l)* d >$m + <$l. ($m + $l)* d > )* > )* >"
# Open expression: free n around a locally fresh name.
NMN_TEXT = "$n <$n.$n> $n"
# p-NRE of all words with successive names distinct.
SUCC_DISTINCT_TEXT = "<$m. ( <$n.$n>$m )* >"
# The three-register example separating local from relative global freshness.
DIAMOND_TEXT = "<$n. _$n <$m. <$l. $m >$m > _$n >"
# The appendix-grade example with two underlines and a permuting close.
BIG_TEXT = "<$n. $n <$m. $m <$l.$l>$m $m <$l. _$n $l _$m > > >"


def all_expr_texts():
    return {
        "lses": LSES_TEXT,
        "lonet": LONET_TEXT,
        "lths": LTHS_TEXT,
        "succ_distinct": SUCC_DISTINCT_TEXT,
        "diamond": DIAMOND_TEXT,
        "big": BIG_TEXT,
    }


# ------------------------------------------------------------- predicates

_A, _B = Letter("a"), Letter("b")


def lses_predicate(w):
    """a b followed by zero or more pairwise distinct names."""
    w = tuple(w)
    if len(w) < 2 or w[0] is not _A or w[1] is not _B:
        return False
    rest = w[2:]
    if not all(isinstance(t, Name) for t in rest):
        return False
    return len(set(rest)) == len(rest)


def lonet_predicate(w):
    """a b (r p p')*: each p, p' locally fresh for its run; each r fresh
    for everything seen in earlier runs."""
    w = tuple(w)
    if len(w) < 2 or w[0] is not _A or w[1] is not _B:
        return False
    rest = w[2:]
    if len(rest) % 3 or not all(isinstance(t, Name) for t in rest):
        return False
    seen = []
    for i in range(0, len(rest), 3):
        r, p, q = rest[i : i + 3]
        if p is r or q is r or p is q:
            return False
        if r in seen:
            return False
        seen.extend((r, p, q))
    return True


# --------------------------------------------------------- hand automata
# Builders import the automaton module, so the texts above load without it.

def _cda(states, initial, transitions):
    from .automata import Cda, State
    return Cda(tuple(State(i, r, f) for i, r, f in states), initial, tuple(transitions))


def lses_automaton():
    """Five states, two layers: a, b, allocate, loop on underlined reads, close."""
    from .automata import STAR, lab_close, lab_letter, lab_under
    return _cda(
        [("q0", 0, False), ("q1", 0, False), ("q2", 0, False), ("q3", 1, False), ("q4", 0, True)],
        "q0",
        [
            ("q0", lab_letter("a"), "q1"),
            ("q1", lab_letter("b"), "q2"),
            ("q2", STAR, "q3"),
            ("q3", lab_under(1), "q3"),
            ("q3", lab_close(1), "q4"),
        ],
    )


def lonet_automaton():
    """One run: globally fresh r, then two allocate/read pairs, then closes."""
    from .automata import STAR, lab_close, lab_letter, lab_reg, lab_under
    return _cda(
        [
            ("q0", 0, False), ("q1", 0, False), ("q2", 0, False),
            ("q3", 1, False), ("q4", 1, False), ("q5", 2, False),
            ("q6", 2, False), ("q7", 3, False), ("q8", 3, False),
            ("q9", 2, False), ("q10", 1, False), ("q11", 0, True),
        ],
        "q0",
        [
            ("q0", lab_letter("a"), "q1"),
            ("q1", lab_letter("b"), "q2"),
            ("q2", STAR, "q3"),
            ("q3", lab_under(1), "q4"),
            ("q4", STAR, "q5"),
            ("q5", lab_reg(2), "q6"),
            ("q6", STAR, "q7"),
            ("q7", lab_reg(3), "q8"),
            ("q8", lab_close(3), "q9"),
            ("q9", lab_close(2), "q10"),
            ("q10", lab_under(1), "q4"),
            ("q10", lab_close(1), "q11"),
        ],
    )


def lths_automaton():
    """Sessions r w r with delegation: thread pairs on layer 3, a d per hop."""
    from .automata import EPS, STAR, lab_close, lab_letter, lab_reg, lab_under
    return _cda(
        [
            ("q0", 0, False), ("q1", 0, False), ("q2", 0, False),
            ("q3", 1, False), ("q4", 1, False), ("q5", 2, False),
            ("q6", 3, False), ("q7", 3, False), ("q8", 2, False),
            ("q9", 1, False), ("q10", 1, False), ("q11", 0, True),
        ],
        "q0",
        [
            ("q0", lab_letter("a"), "q1"),
            ("q1", lab_letter("b"), "q2"),
            ("q2", STAR, "q3"),
            ("q3", lab_under(1), "q4"),
            ("q4", EPS, "q9"),
            ("q4", STAR, "q5"),
            ("q5", STAR, "q6"),
            ("q6", lab_reg(2), "q6"),
            ("q6", lab_reg(3), "q6"),
            ("q6", lab_letter("d"), "q7"),
            ("q7", lab_close(2), "q8"),
            ("q7", lab_close(3), "q8"),
            ("q8", STAR, "q6"),
            ("q8", lab_close(2), "q9"),
            ("q9", lab_reg(1), "q10"),
            ("q10", EPS, "q3"),
            ("q10", lab_close(1), "q11"),
        ],
    )


def small_automata():
    """Hand-built fixtures beyond the three scenario automata."""
    from .automata import EPS, STAR, lab_close, lab_letter, lab_reg, lab_under
    out = {}
    out["letters_only"] = _cda(
        [("s0", 0, False), ("s1", 0, False), ("s2", 0, True)],
        "s0",
        [
            ("s0", lab_letter("a"), "s1"),
            ("s1", lab_letter("b"), "s2"),
            ("s2", lab_letter("a"), "s1"),
        ],
    )
    out["one_fresh"] = _cda(
        [("s0", 0, False), ("s1", 1, False), ("s2", 1, False), ("s3", 0, True)],
        "s0",
        [
            ("s0", STAR, "s1"),
            ("s1", lab_reg(1), "s2"),
            ("s2", lab_close(1), "s3"),
        ],
    )
    out["fresh_pair_swap"] = _cda(
        [
            ("s0", 0, False), ("s1", 1, False), ("s2", 2, False),
            ("s3", 2, False), ("s4", 1, False), ("s5", 1, False), ("s6", 0, True),
        ],
        "s0",
        [
            ("s0", STAR, "s1"),
            ("s1", STAR, "s2"),
            ("s2", lab_reg(2), "s3"),
            ("s3", lab_close(1), "s4"),  # non-top close: leaks the pair
            ("s4", lab_reg(1), "s5"),
            ("s5", lab_close(1), "s6"),
        ],
    )
    out["global_loop"] = _cda(
        [("s0", 0, False), ("s1", 1, False), ("s2", 1, False), ("s3", 0, True)],
        "s0",
        [
            ("s0", STAR, "s1"),
            ("s1", lab_under(1), "s2"),
            ("s2", lab_under(1), "s2"),
            ("s2", lab_close(1), "s3"),
        ],
    )
    out["eps_maze"] = _cda(
        [
            ("s0", 0, False), ("s1", 0, False), ("s2", 0, False),
            ("s3", 0, False), ("s4", 0, True),
        ],
        "s0",
        [
            ("s0", EPS, "s1"),
            ("s0", EPS, "s2"),
            ("s1", lab_letter("a"), "s3"),
            ("s2", lab_letter("b"), "s3"),
            ("s3", EPS, "s4"),
            ("s4", EPS, "s0"),
        ],
    )
    out["two_layer_mixed"] = _cda(
        [
            ("s0", 0, False), ("s1", 1, False), ("s2", 1, False),
            ("s3", 1, False), ("s4", 0, True),
        ],
        "s0",
        [
            ("s0", STAR, "s1"),
            ("s1", lab_letter("a"), "s2"),
            ("s1", lab_under(1), "s3"),
            ("s2", lab_reg(1), "s3"),
            ("s3", lab_close(1), "s4"),
            ("s4", lab_letter("d"), "s4"),
        ],
    )
    out["dead_branch"] = _cda(
        [("s0", 0, False), ("s1", 0, True), ("s2", 1, False)],
        "s0",
        [
            ("s0", lab_letter("a"), "s1"),
            ("s0", STAR, "s2"),
            ("s2", lab_reg(1), "s2"),
        ],
    )
    return out


def handbuilt_automata():
    out = {
        "lses": lses_automaton(),
        "lonet": lonet_automaton(),
        "lths": lths_automaton(),
    }
    out.update(small_automata())
    return out


def default_pool(k=3):
    return tuple(name("r%d" % i) for i in range(1, k + 1))
