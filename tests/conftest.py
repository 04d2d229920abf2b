import pytest

from oracles import exact_scores

from graphbench import enumerate_connected_nonisomorphic


@pytest.fixture(scope="session")
def corpus6():
    return enumerate_connected_nonisomorphic(6)


@pytest.fixture(scope="session")
def corpus7():
    return enumerate_connected_nonisomorphic(7)


@pytest.fixture(scope="session")
def corpus965(corpus6, corpus7):
    return corpus6 + corpus7


@pytest.fixture(scope="session")
def exact965(corpus965):
    """:func:`oracles.exact_scores` of every census graph on 6 and 7
    vertices, in :func:`corpus965` order (about 10 s)."""
    pytest.importorskip("mpmath")
    return [exact_scores(g) for g in corpus965]


@pytest.fixture(scope="session")
def corpus_small():
    """All connected classes on 1..5 vertices."""
    graphs = []
    for n in range(1, 6):
        graphs.extend(enumerate_connected_nonisomorphic(n))
    return graphs
