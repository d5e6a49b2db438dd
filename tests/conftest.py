"""Shared fixtures: the walkthrough sequence and a pool of seeded random
instances reused by the solver cross-checks."""

import numpy as np
import pytest

from minpfsa import (
    Alphabet,
    TestConfig,
    compatibility_graph,
    count_windows,
    from_tokens,
    gen_fixture,
    parse_sequence,
    succ_table,
)


@pytest.fixture(scope="session")
def fixture_wc():
    return count_windows(gen_fixture(), 2)


@pytest.fixture(scope="session")
def fixture_graph(fixture_wc):
    return compatibility_graph(fixture_wc)


@pytest.fixture(scope="session")
def deep_text():
    """20,000 uniform symbols over abcd: at L = 5 it has 1,024 histories,
    more than a search recursing once per history could nest in Python."""
    rng = np.random.default_rng(1)
    return "".join("abcd"[i] for i in rng.integers(4, size=20000)) + "\n"


@pytest.fixture(scope="session")
def deep_wc(deep_text):
    return count_windows(parse_sequence(deep_text, "chars"), 5)


@pytest.fixture(scope="session")
def deep_graph(deep_wc):
    return compatibility_graph(deep_wc)


def make_instances(count, seed, max_histories=8, min_len=40, max_len=120):
    """Seeded random sequence instances with at most ``max_histories``
    distinct extendable length-2 histories.

    Sequences mix iid draws with runs of a repeated symbol so that the
    compatibility graphs vary between near-complete and near-edgeless.
    Returns (wc, graph, succ) triples under the default test config.
    """
    rng = np.random.default_rng(seed)
    cfg = TestConfig()
    out = []
    while len(out) < count:
        k = int(rng.integers(2, 4))
        length = int(rng.integers(min_len, max_len + 1))
        bias = rng.dirichlet(np.ones(k) * float(rng.choice([0.4, 1.0, 3.0])))
        toks = rng.choice(k, size=length, p=bias)
        if rng.random() < 0.3:
            run = int(rng.integers(10, 30))
            toks[:run] = int(rng.integers(k))
        alphabet = Alphabet(tuple(str(i) for i in range(k)))
        wc = count_windows(from_tokens(toks, alphabet), 2)
        graph = compatibility_graph(wc, cfg)
        n = len(graph.vertices)
        if n < 2 or n > max_histories:
            continue
        out.append((wc, graph, succ_table(wc, graph.vertices)))
    return out


@pytest.fixture(scope="session")
def instance_pool():
    """The 200 instances used by the solver equivalence checks."""
    return make_instances(200, seed=20260825)
