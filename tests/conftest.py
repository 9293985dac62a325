import random

import pytest

from nomre.corpus import ALPHABET, all_expr_texts, default_pool, handbuilt_automata
from nomre.expr import parse
from nomre.nominal import placeholder, sys_name


@pytest.fixture(scope="session")
def pool3():
    return default_pool(3)


@pytest.fixture(scope="session")
def oracle_pools():
    """Pools the enumerators are checked on against the oracles: in sort
    order, of reserved names, and out of sort order."""
    r1, r2, r3, r4 = default_pool(4)
    return (default_pool(3), default_pool(4), (sys_name(0), placeholder(1), sys_name(1)),
            (r3, r1, r4, r2))


@pytest.fixture(scope="session")
def corpus_exprs():
    return {k: parse(v, ALPHABET) for k, v in all_expr_texts().items()}


@pytest.fixture(scope="session")
def hand_automata():
    return handbuilt_automata()


@pytest.fixture
def rng():
    return random.Random(20240901)
