"""Branch-and-bound searches, the partition oracle and the IP view."""

import hashlib

import numpy as np
import pytest

from minpfsa import (
    BINARY,
    TooLargeForOracleError,
    brute_force_min_states,
    build_ip_model,
    compatibility_graph,
    count_windows,
    from_text,
    greedy_independent_set,
    solve_ip_model,
    solve_msdpfsa,
    solve_msndpfsa,
    succ_table,
    to_lp_text,
)
from tests.conftest import make_instances

FIXTURE_SUCC = ((0, 1), (3, 2), (3, None), (0, 1))


@pytest.fixture(scope="module")
def fixture_succ(fixture_graph, fixture_wc):
    return succ_table(fixture_wc, fixture_graph.vertices)


def test_succ_table_fixture(fixture_succ):
    # histories in first-appearance order 00, 01, 11, 10; 111 never occurs
    assert fixture_succ == FIXTURE_SUCC


def test_succ_table_obeys_shift_append():
    for wc, graph, succ in make_instances(10, seed=21):
        W = [tuple(h) for h in graph.vertices]
        for i, row in enumerate(succ):
            for a, l in enumerate(row):
                if l is None:
                    continue
                assert W[l] == W[i][1:] + (a,)
                assert wc.count(W[i] + (a,)) > 0


def test_greedy_independent_set_fixture(fixture_graph):
    assert greedy_independent_set(fixture_graph.mu.tolist()) == (0, 1, 2)


def test_greedy_independent_set_is_maximal():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        mu = rng.random((n, n)) < 0.4
        mu = np.logical_or(mu, mu.T)
        np.fill_diagonal(mu, True)
        chosen = greedy_independent_set(mu.tolist())
        for i, u in enumerate(chosen):
            for v in chosen[i + 1:]:
                assert not mu[u][v]
        for v in range(n):
            if v not in chosen:
                assert any(mu[v][u] for u in chosen)


def test_deterministic_search_fixture(fixture_graph, fixture_succ):
    res = solve_msdpfsa(fixture_graph, fixture_succ)
    assert res.optimum == 3
    assert res.partition.assign == (0, 1, 2, 0)
    blocks = sorted(tuple(BINARY.render(h) for h in b) for b in res.partition.blocks())
    assert blocks == [("00", "10"), ("01",), ("11",)]
    assert res.partition.num_states == res.optimum
    assert res.explored > 0
    assert res.elapsed >= 0.0


def test_nondeterministic_search_fixture(fixture_graph):
    res = solve_msndpfsa(fixture_graph)
    assert res.optimum == 3
    assert res.partition.num_states == 3


def test_deterministic_search_needs_succ(fixture_graph):
    with pytest.raises(ValueError):
        solve_msdpfsa(fixture_graph, None)


def test_edgeless_graph_needs_one_state_per_history():
    mu = np.eye(5, dtype=bool)
    assert solve_msndpfsa(mu).optimum == 5
    succ = tuple((None,) for _ in range(5))
    assert solve_msdpfsa(mu, succ).optimum == 5


def test_complete_graph_fits_one_state():
    mu = np.ones((4, 4), dtype=bool)
    assert solve_msndpfsa(mu).optimum == 1


def test_single_history_sequence():
    wc = count_windows(from_text("0" * 60), 2)
    graph = compatibility_graph(wc)
    succ = succ_table(wc, graph.vertices)
    assert solve_msdpfsa(graph, succ).optimum == 1
    assert solve_msndpfsa(graph).optimum == 1


def test_nondeterministic_never_exceeds_deterministic():
    for wc, graph, succ in make_instances(25, seed=7):
        msd = solve_msdpfsa(graph, succ).optimum
        msnd = solve_msndpfsa(graph).optimum
        assert msnd <= msd


def test_solutions_are_canonical_cliques():
    for wc, graph, succ in make_instances(15, seed=8):
        mu = graph.mu
        for res in (solve_msdpfsa(graph, succ), solve_msndpfsa(graph)):
            part = res.partition
            assert part.canonical() == part
            index = {tuple(h): i for i, h in enumerate(graph.vertices)}
            for block in part.blocks():
                for i, a in enumerate(block):
                    for b in block[i + 1:]:
                        assert mu[index[a], index[b]]


def test_deterministic_solution_has_consistent_targets():
    for wc, graph, succ in make_instances(15, seed=8):
        part = solve_msdpfsa(graph, succ).partition
        m = len(succ[0])
        for s in range(part.num_states):
            members = [i for i, t in enumerate(part.assign) if t == s]
            for a in range(m):
                targets = {
                    part.assign[succ[i][a]] for i in members if succ[i][a] is not None
                }
                assert len(targets) <= 1


def test_brute_force_fixture(fixture_graph, fixture_succ):
    assert brute_force_min_states(fixture_graph, fixture_succ, deterministic=True) == 3
    assert brute_force_min_states(fixture_graph) == 3


def test_brute_force_refuses_large_instances():
    with pytest.raises(TooLargeForOracleError):
        brute_force_min_states(np.eye(11, dtype=bool))


def test_brute_force_needs_succ_when_deterministic(fixture_graph):
    with pytest.raises(ValueError):
        brute_force_min_states(fixture_graph, None, deterministic=True)


def test_searches_match_brute_force():
    for wc, graph, succ in make_instances(15, seed=3):
        assert solve_msdpfsa(graph, succ).optimum == brute_force_min_states(
            graph, succ, deterministic=True
        )
        assert solve_msndpfsa(graph).optimum == brute_force_min_states(graph)


# ---------------------------------------------------------------------------
# the IP view


def test_ip_variable_counts(fixture_graph, fixture_succ):
    model = build_ip_model(fixture_graph, fixture_succ)
    assert model.variable_counts() == {"x": 16, "z": 32, "y": 32, "p": 4}
    relaxed = build_ip_model(fixture_graph, fixture_succ, deterministic=False)
    assert relaxed.variable_counts()["y"] == 0


def test_ip_model_needs_succ(fixture_graph):
    with pytest.raises(ValueError):
        build_ip_model(fixture_graph, None)


def test_ip_constraint_families(fixture_graph, fixture_succ):
    names = [name for name, _, _, _ in build_ip_model(fixture_graph, fixture_succ).constraints()]
    prefixes = {n.split("_")[0] for n in names}
    assert prefixes == {"assign", "trans", "det", "compat", "open"}
    relaxed = build_ip_model(fixture_graph, fixture_succ, deterministic=False)
    prefixes = {n.split("_")[0] for n, _, _, _ in relaxed.constraints()}
    assert prefixes == {"assign", "compat", "open"}


def test_ip_solution_matches_search_fixture(fixture_graph, fixture_succ):
    det = build_ip_model(fixture_graph, fixture_succ)
    assert solve_ip_model(det) == 3
    relaxed = build_ip_model(fixture_graph, fixture_succ, deterministic=False)
    assert solve_ip_model(relaxed) == 3


def test_ip_matches_search_random():
    for wc, graph, succ in make_instances(8, seed=4, max_histories=6):
        det = build_ip_model(graph, succ)
        assert solve_ip_model(det) == solve_msdpfsa(graph, succ).optimum
        relaxed = build_ip_model(graph, None, deterministic=False)
        assert solve_ip_model(relaxed) == solve_msndpfsa(graph).optimum


def test_ip_solver_refuses_large_models():
    model = build_ip_model(np.eye(9, dtype=bool), None, deterministic=False)
    with pytest.raises(TooLargeForOracleError):
        solve_ip_model(model)


def test_lp_text_structure(fixture_graph, fixture_succ):
    text = to_lp_text(build_ip_model(fixture_graph, fixture_succ))
    lines = text.splitlines()
    assert lines[0] == "Minimize"
    assert lines[1] == " obj: p_0 + p_1 + p_2 + p_3"
    assert "Subject To" in lines
    assert lines[-1] == "End"
    binaries = lines[lines.index("Binary") + 1 : lines.index("End")]
    assert len(binaries) == 16 + 32 + 4
    # the 00 history succeeds itself under symbol 0, so the j == k transition
    # row must carry coefficient 2 on the shared x variable
    assert " trans_0_0_0_0: 2 x_0_0 - y_0_0_0 <= 1" in lines


def test_lp_text_without_determinism(fixture_graph, fixture_succ):
    text = to_lp_text(build_ip_model(fixture_graph, fixture_succ, deterministic=False))
    assert "y_" not in text
    assert "trans_" not in text
    lines = text.splitlines()
    binaries = lines[lines.index("Binary") + 1 : lines.index("End")]
    assert len(binaries) == 16 + 4


# sha256 of to_lp_text, recorded before the constraint stream was rewritten:
# the LP bytes of every model must stay exactly as they were
FIXTURE_LP_SHA256 = {
    True: "6f3173516dbc0bbe5602a731ff329969effd5d4551e76f701e5a3c1754519c41",
    False: "0a4311fa903c590105b032b88d1adef76990ad5883e18e7d4d1aa5a187833269",
}
POOL_LP_SHA256 = [  # make_instances(4, seed=9): (deterministic, relaxed)
    ("164e2a48c5c17607aad6cbc7517ba10120c51615b8066a28980059fe65be4c09",
     "a13ac3b15886ac9f7795df95e8775bb98062f940411bd65262cbbf3b38752c7e"),
    ("7b0c64e67cf2f870af8fa5cd7e10df4d7a05e6e6805c5c911edfcbd1b45e12f6",
     "27e7d2c827c699d28a40a47736db83f6fe457267c9d26a7c728e421871de6223"),
    ("3d4a05c3abf1c338a4a6065b34f8626cfe9a4d2e689070c09c258947a46a4d64",
     "6ade8293e54bb6608b942399b9021d8ac85bdd2ea3b6f870cd6c68ed3112f689"),
    ("6340ad7f0952e2e55a9312770ecc86d58058ca94b16f48e66ebf87ebf4ecd4b0",
     "88112ff1196eea2c2ffd3f4b839a74128f435922b589530b6f3c204dce61d132"),
]


def _lp_sha256(graph, succ, deterministic):
    model = build_ip_model(graph, succ, deterministic=deterministic)
    return hashlib.sha256(to_lp_text(model).encode()).hexdigest()


@pytest.mark.parametrize("deterministic", [True, False])
def test_lp_text_bytes_fixture(fixture_graph, fixture_succ, deterministic):
    digest = _lp_sha256(fixture_graph, fixture_succ, deterministic)
    assert digest == FIXTURE_LP_SHA256[deterministic]


def test_lp_text_bytes_pool():
    instances = make_instances(4, seed=9)
    # self-successors (a history followed by itself) take the j == k row form
    assert any(
        row[a] == i for _, _, succ in instances for i, row in enumerate(succ)
        for a in range(len(row))
    )
    got = [
        (_lp_sha256(graph, succ, True), _lp_sha256(graph, succ, False))
        for _, graph, succ in instances
    ]
    assert got == POOL_LP_SHA256
