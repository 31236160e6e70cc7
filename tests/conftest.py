import pytest

import helpers
from finflow import enumerate_semiflows, families

# One fixed-seed corpus shared by the property and acceptance suites.
CORPUS_SEED = 9157
CORPUS_SIZE = 200
CORPUS_MAX_N = 9


@pytest.fixture(scope="session")
def corpus():
    return list(families.random_corpus(CORPUS_SIZE, CORPUS_MAX_N, CORPUS_SEED))


@pytest.fixture(scope="session")
def corpus_flows(corpus):
    """(poset, enumerated semiflows) pairs, computed once per session."""
    return [(p, enumerate_semiflows(p)) for p in corpus]


@pytest.fixture(scope="session")
def shuffled_spaces():
    """Shuffled ``(labels, pairs)`` of 20-200-point posets, built once."""
    return helpers.shuffled_spaces(60, 2026)
