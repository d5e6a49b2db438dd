"""Acceptance gate. One test per shipping criterion; the pytest -v line of
each test is the pass or fail record for that criterion.

Criterion 1 is split: 1a covers the conditional distributions and the
runtime bound, 1b covers the published pairwise p-value matrix. The
published digits cannot be reproduced from any counts with the published
proportions (see the 1b docstring), so 1b checks what the matrix fixes:
the compatibility decisions, which entries are zero, and the order of the
positive entries. It prints the matrix under every supported test.
"""

import time

import numpy as np
import pytest

from minpfsa import (
    TESTS,
    BenchConfig,
    CSV_HEADER,
    TestConfig,
    bron_kerbosch,
    build_ip_model,
    build_machine,
    check_determinism,
    clique_pipeline,
    compatibility_graph,
    cond_dist,
    count_windows,
    cssr,
    gen_fixture,
    min_clique_cover,
    pvalue,
    run_bench,
    sample,
    solve_msdpfsa,
    solve_msndpfsa,
    state_dist,
    succ_table,
    write_csv,
)
from minpfsa.oracles import brute_force_min_states, solve_ip_model

TABLE1 = {
    "00": (0.9314, 0.0686),
    "01": (0.5789, 0.4211),
    "11": (1.0, 0.0),
    "10": (0.9737, 0.0263),
}

# published pairwise p-values, lower triangle in history order
TABLE2 = [
    ("01", "00", 0.0),
    ("11", "00", 0.0067),
    ("11", "01", 0.0),
    ("10", "00", 0.0944),
    ("10", "01", 0.0),
    ("10", "11", 0.7924),
]

# state-to-state transition probabilities of the three-state machine
TABLE4 = [
    [0.9341, 0.0659, 0.0],
    [0.5789, 0.0, 0.4211],
    [1.0, 0.0, 0.0],
]

OPTIMAL_BLOCKS = [("00", "10"), ("01",), ("11",)]

HISTORY = {"00": (0, 0), "01": (0, 1), "11": (1, 1), "10": (1, 0)}


def render_blocks(partition, alphabet):
    return sorted(tuple(alphabet.render(h) for h in b) for b in partition.blocks())


def transition_matrix(machine):
    n = machine.num_states
    T = np.zeros((n, n))
    for (j, a), targets in machine.delta.items():
        for k in targets:
            T[j, k] += machine.probs[(j, a)]
    return T


def test_c1a_fixture_conditional_distributions():
    t0 = time.perf_counter()
    wc = count_windows(gen_fixture(), 2)
    for name, expect in TABLE1.items():
        got = cond_dist(wc, HISTORY[name])
        assert np.allclose(got, expect, atol=5e-4), (name, got, expect)
    elapsed = time.perf_counter() - t0
    print("criterion 1a: conditional distributions ok, %.3fs" % elapsed)
    assert elapsed < 1.0


def test_c1b_fixture_pairwise_pvalues():
    """Table 2 under the default test: decisions, zeros and order.

    The published digits are not reachable by the Pearson homogeneity
    test from any counts with Table 1's proportions. History 11 puts all
    of its m windows in one column. Against a history with proportion p in
    the other column, the 2 x 2 statistic is X^2 = (m + n) m p / (m + n (1 - p)),
    which lies in [m p, m p / (1 - p)] whatever the other history's count n.
    11-00 = 0.0067 needs X^2 = 7.35 at p = 0.0686, so m is in [99.8, 107.2];
    10-11 = 0.7924 needs X^2 = 0.0692 at p = 0.0263, so m is in [2.56, 2.63].
    No single m satisfies both. So the test checks what the matrix fixes
    and the package promises: under the default test every pair gets
    Table 2's decision at alpha = 0.05, the published zeros come out below
    1e-3, and the positive entries keep their published order.
    """
    wc = count_windows(gen_fixture(), 2)
    names = ["00", "01", "11", "10"]
    ext = {n: wc.extension_counts(HISTORY[n]) for n in names}
    for test in TESTS:
        cfg = TestConfig(test=test, alpha=0.05)
        print("pairwise p-values under %s:" % test)
        for i, a in enumerate(names):
            row = [
                "%8.6f" % pvalue(ext[a], ext[b], cfg) for b in names[:i]
            ]
            print("  %s  %s" % (a, "  ".join(row)))
    cfg = TestConfig(alpha=0.05)
    got = {(a, b): pvalue(ext[a], ext[b], cfg) for a, b, _ in TABLE2}
    for a, b, expect in TABLE2:
        assert (got[a, b] > cfg.alpha) == (expect > cfg.alpha), (a, b, got[a, b], expect)
        if expect == 0.0:
            assert got[a, b] < 1e-3, (a, b, got[a, b])
    positive = sorted((expect, (a, b)) for a, b, expect in TABLE2 if expect > 0.0)
    ordered = [got[pair] for _, pair in positive]
    assert all(x < y for x, y in zip(ordered, ordered[1:])), list(zip(positive, ordered))


def test_c2_method_disagreement():
    t0 = time.perf_counter()
    wc = count_windows(gen_fixture(), 2)
    assert cssr(wc).num_states == 4

    graph = compatibility_graph(wc)
    succ = succ_table(wc, graph.vertices)
    exact = solve_msdpfsa(graph, succ)
    assert exact.optimum == 3
    assert render_blocks(exact.partition, wc.alphabet) == OPTIMAL_BLOCKS
    exact_machine = build_machine(wc, exact.partition)
    assert np.allclose(transition_matrix(exact_machine), TABLE4, atol=5e-4)
    assert solve_ip_model(build_ip_model(graph, succ)) == 3

    result = clique_pipeline(wc)
    assert result.machine.num_states == 3
    assert render_blocks(result.partition, wc.alphabet) == OPTIMAL_BLOCKS
    assert np.allclose(transition_matrix(result.machine), TABLE4, atol=5e-4)
    elapsed = time.perf_counter() - t0
    print("criterion 2: cssr 4, exact 3, pipeline 3, %.3fs" % elapsed)
    assert elapsed < 5.0


def test_c3_solvers_match_partition_oracle(instance_pool):
    t0 = time.perf_counter()
    assert len(instance_pool) == 200
    for wc, graph, succ in instance_pool:
        assert len(graph.vertices) <= 8
        det = brute_force_min_states(graph, succ, deterministic=True)
        assert solve_msdpfsa(graph, succ).optimum == det
        assert solve_msndpfsa(graph).optimum == brute_force_min_states(graph)
    elapsed = time.perf_counter() - t0
    print("criterion 3: 200 instances, both variants exact, %.1fs" % elapsed)
    assert elapsed < 120.0


def subset_cliques_oracle(mu):
    n = len(mu)
    cliques = []
    for mask in range(1, 1 << n):
        verts = [v for v in range(n) if mask >> v & 1]
        if all(mu[u][v] for i, u in enumerate(verts) for v in verts[i + 1:]):
            cliques.append(frozenset(verts))
    maximal = [c for c in cliques if not any(c < d for d in cliques)]
    return sorted(tuple(sorted(c)) for c in maximal)


def partition_cover_oracle(mu):
    """Minimum clique partition by plain enumeration of set partitions,
    skipping blocks that are not cliques."""
    n = len(mu)
    assign = [0] * n
    best = [n]

    def rec(v, used):
        if v == n:
            best[0] = min(best[0], used)
            return
        for s in range(used):
            if all(assign[u] != s or mu[v][u] for u in range(v)):
                assign[v] = s
                rec(v + 1, used)
        assign[v] = used
        rec(v + 1, used + 1)

    rec(0, 0)
    return best[0]


@pytest.fixture(scope="module")
def random_graphs():
    rng = np.random.default_rng(20260824)
    graphs = []
    for _ in range(100):
        n = int(rng.integers(2, 13))
        p = float(rng.uniform(0.15, 0.85))
        mu = rng.random((n, n)) < p
        mu = np.logical_or(mu, mu.T)
        np.fill_diagonal(mu, True)
        graphs.append(mu)
    return graphs


def test_c4_clique_machinery(random_graphs):
    t0 = time.perf_counter()
    covered = 0
    for mu in random_graphs:
        n = len(mu)
        cliques = bron_kerbosch(mu)
        assert cliques == subset_cliques_oracle(mu.tolist())
        if n <= 10:
            covered += 1
            optimum = min_clique_cover(cliques, n).optimum
            assert optimum == partition_cover_oracle(mu.tolist())
    elapsed = time.perf_counter() - t0
    print(
        "criterion 4: 100 graphs, %d cover-oracle checks, %.1fs" % (covered, elapsed)
    )
    assert covered >= 50
    assert elapsed < 120.0


def test_c5_cover_equals_nondeterministic_optimum(instance_pool, random_graphs):
    checked = 0
    for wc, graph, succ in instance_pool:
        n = len(graph.vertices)
        cover = min_clique_cover(bron_kerbosch(graph), n)
        assert cover.optimum == solve_msndpfsa(graph).optimum
        checked += 1
    for mu in random_graphs:
        cover = min_clique_cover(bron_kerbosch(mu), len(mu))
        assert cover.optimum == solve_msndpfsa(mu).optimum
        checked += 1
    print("criterion 5: cover optimum matched on %d instances" % checked)


def test_c6_determinism_and_row_sums(instance_pool):
    def check(machine):
        assert not check_determinism(machine)
        rows = machine.prob_rows()
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-9)

    wc = count_windows(gen_fixture(), 2)
    pool = [(wc, compatibility_graph(wc), None)] + list(instance_pool)
    for wc, graph, succ in pool:
        if succ is None:
            succ = succ_table(wc, graph.vertices)
        check(cssr(wc))
        check(build_machine(wc, solve_msdpfsa(graph, succ).partition))
        check(clique_pipeline(wc).machine)
    print("criterion 6: %d machines of each kind checked" % len(pool))


def test_c7_generative_closure():
    wc = count_windows(gen_fixture(), 2)
    machine = clique_pipeline(wc).machine
    seq = sample(machine, 50000, seed=20260825)
    recount = count_windows(seq, 2)
    for j, block in enumerate(machine.states):
        got = state_dist(recount, block)
        expect = machine.prob_rows()[j]
        assert np.allclose(got, expect, atol=0.03), (j, got, expect)
    print("criterion 7: 50000-symbol resample within 0.03 per state")


def test_c8_runtime_trend(tmp_path):
    config_a = BenchConfig(
        methods=("clique",), alphabets=(2,), lengths=(100, 1000, 10000),
        reps=3, seed=20260823, timeout=60.0,
    )
    rows_a = run_bench(config_a)
    assert all(r["flag"] == "ok" for r in rows_a)
    assert all(r["seconds"] < 5.0 for r in rows_a)
    means = [
        np.mean([r["seconds"] for r in rows_a if r["length"] == n])
        for n in config_a.lengths
    ]
    slope = np.polyfit(np.log(config_a.lengths), np.log(means), 1)[0]
    assert slope < 2.0

    config_b = BenchConfig(
        methods=("cssr", "ip", "clique"), alphabets=(3, 4), lengths=(50, 100),
        reps=5, seed=20260822, timeout=60.0,
    )
    rows_b = run_bench(config_b)
    assert not any(r["flag"] in ("timeout", "error") for r in rows_b)
    by_point = {}
    for r in rows_b:
        by_point.setdefault((r["alphabet"], r["length"], r["rep"]), {})[r["method"]] = r
    wins = sum(
        p["cssr"]["seconds"] < p["ip"]["seconds"]
        and p["cssr"]["seconds"] < p["clique"]["seconds"]
        for p in by_point.values()
    )
    fraction = wins / len(by_point)

    out = tmp_path / "bench.csv"
    with open(out, "w") as fh:
        write_csv(rows_a + rows_b, fh, meta="acceptance runtime trend")
    lines = out.read_text().splitlines()
    assert lines[1] == CSV_HEADER
    assert len(lines) == 2 + len(rows_a) + len(rows_b)

    print(
        "criterion 8: clique slope %.2f, cssr fastest in %d/%d points"
        % (slope, wins, len(by_point))
    )
    assert fraction >= 0.8
