"""Clique enumeration, minimum cover and the cover-based pipeline."""

import itertools

import numpy as np
import pytest

from minpfsa import (
    BINARY,
    CoverOverflowError,
    CoverResult,
    bron_kerbosch,
    check_determinism,
    clique_pipeline,
    compatibility_graph,
    count_windows,
    enumerate_exact_covers,
    from_text,
    min_clique_cover,
    reconstruct_deterministic,
    solve_msdpfsa,
    solve_msndpfsa,
)
from minpfsa.oracles import brute_force_min_states
from tests.conftest import make_instances


def random_graph(rng, n, p):
    mu = rng.random((n, n)) < p
    mu = np.logical_or(mu, mu.T)
    np.fill_diagonal(mu, True)
    return mu


def maximal_cliques_oracle(mu):
    """All maximal cliques by checking every vertex subset."""
    n = len(mu)
    cliques = []
    for mask in range(1, 1 << n):
        verts = [v for v in range(n) if mask >> v & 1]
        if all(mu[u][v] for i, u in enumerate(verts) for v in verts[i + 1:]):
            cliques.append(frozenset(verts))
    maximal = [c for c in cliques if not any(c < d for d in cliques)]
    return sorted(tuple(sorted(c)) for c in maximal)


def cover_size_oracle(cliques, n):
    """Smallest number of the given cliques whose union is everything."""
    for k in range(1, len(cliques) + 1):
        for combo in itertools.combinations(cliques, k):
            covered = set()
            for c in combo:
                covered.update(c)
            if len(covered) == n:
                return k
    raise AssertionError("cliques do not cover the vertex set")


def test_bron_kerbosch_fixture(fixture_graph):
    assert bron_kerbosch(fixture_graph) == [(0, 3), (1,), (2, 3)]


def test_bron_kerbosch_complete_graph():
    assert bron_kerbosch(np.ones((4, 4), dtype=bool)) == [(0, 1, 2, 3)]


def test_bron_kerbosch_edgeless_graph():
    assert bron_kerbosch(np.eye(4, dtype=bool)) == [(0,), (1,), (2,), (3,)]


def test_bron_kerbosch_matches_subset_oracle():
    rng = np.random.default_rng(12)
    for _ in range(40):
        n = int(rng.integers(2, 11))
        mu = random_graph(rng, n, float(rng.uniform(0.1, 0.9)))
        assert bron_kerbosch(mu) == maximal_cliques_oracle(mu.tolist())


def test_bron_kerbosch_outputs_are_maximal_and_cover():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(2, 13))
        mu = random_graph(rng, n, 0.5)
        cliques = bron_kerbosch(mu)
        covered = set()
        for c in cliques:
            for i, u in enumerate(c):
                for v in c[i + 1:]:
                    assert mu[u][v]
            for w in range(n):
                if w not in c:
                    assert not all(mu[w][u] for u in c)
            covered.update(c)
        assert covered == set(range(n))


def test_min_clique_cover_fixture(fixture_graph):
    cliques = bron_kerbosch(fixture_graph)
    result = min_clique_cover(cliques, 4, k_upper=4)
    assert result.optimum == 3
    assert result.k_upper == 4
    assert set(result.cover) <= set(cliques)
    assert set().union(*result.cover) == set(range(4))


def test_min_clique_cover_disjoint_triangles():
    mu = np.zeros((6, 6), dtype=bool)
    mu[:3, :3] = True
    mu[3:, 3:] = True
    result = min_clique_cover(bron_kerbosch(mu), 6)
    assert result.optimum == 2
    assert result.cover == ((0, 1, 2), (3, 4, 5))
    assert result.k_upper is None


def test_min_clique_cover_rejects_partial_input():
    with pytest.raises(ValueError):
        min_clique_cover([(0, 1)], 3)


def test_min_clique_cover_matches_oracles():
    # the combination search checks the cover optimum directly; the
    # partition oracle checks it equals the clique partition number
    rng = np.random.default_rng(14)
    for _ in range(30):
        n = int(rng.integers(2, 10))
        mu = random_graph(rng, n, float(rng.uniform(0.2, 0.8)))
        cliques = bron_kerbosch(mu)
        optimum = min_clique_cover(cliques, n).optimum
        assert optimum == cover_size_oracle(cliques, n)
        assert optimum == brute_force_min_states(mu)


def min_clique_cover_reference(cliques, n_vertices, k_upper=None):
    """The cover search without the independent-set bound: the same greedy
    incumbent and branch order, cut only when one more clique cannot beat
    the incumbent."""
    cliques = [tuple(sorted(c)) for c in cliques]
    containing = [[] for _ in range(n_vertices)]
    for ci, c in enumerate(cliques):
        for v in c:
            containing[v].append(ci)
    uncovered = set(range(n_vertices))
    greedy = []
    while uncovered:
        ci = int(np.argmax([len(uncovered & set(c)) for c in cliques]))
        greedy.append(ci)
        uncovered -= set(cliques[ci])
    best = {"count": len(greedy), "chosen": tuple(greedy)}
    chosen = []

    def recurse(uncovered):
        if not uncovered:
            if len(chosen) < best["count"]:
                best["count"] = len(chosen)
                best["chosen"] = tuple(chosen)
            return
        if len(chosen) + 1 >= best["count"]:
            return
        for ci in containing[min(uncovered)]:
            chosen.append(ci)
            recurse(uncovered - set(cliques[ci]))
            chosen.pop()

    recurse(frozenset(range(n_vertices)))
    cover = tuple(sorted(cliques[ci] for ci in best["chosen"]))
    return CoverResult(best["count"], cover, k_upper)


def test_min_clique_cover_matches_reference(instance_pool):
    # the independent-set bound only cuts branches that cannot beat the
    # incumbent, so the cover found first, and every field, stay the same;
    # the clique list is also tried reversed, which changes the branch order
    # (sparse graphs above 16 vertices take the reference seconds each)
    rng = np.random.default_rng(31)
    graphs = [graph.mu for _, graph, _ in instance_pool]
    for low, high, p_low, p_high in ((10, 25, 0.5, 0.95), (10, 17, 0.15, 0.5)):
        for _ in range(40):
            n = int(rng.integers(low, high))
            graphs.append(random_graph(rng, n, float(rng.uniform(p_low, p_high))))
    sizes = set()
    for mu in graphs:
        n = len(mu)
        sizes.add(n)
        cliques = bron_kerbosch(mu)
        for order in (cliques, cliques[::-1]):
            want = min_clique_cover_reference(order, n, k_upper=n)
            assert min_clique_cover(order, n, k_upper=n) == want, mu.tolist()
    assert {10, 24} <= sizes


def test_enumerate_exact_covers_fixture(fixture_graph):
    covers = enumerate_exact_covers(fixture_graph, 3)
    assert covers == [((0, 3), (1,), (2,)), ((0,), (1,), (2, 3))]


def test_enumerate_exact_covers_triangle():
    mu = np.ones((3, 3), dtype=bool)
    assert enumerate_exact_covers(mu, 1) == [((0, 1, 2),)]
    assert enumerate_exact_covers(mu, 2) == [
        ((0, 1), (2,)),
        ((0, 2), (1,)),
        ((0,), (1, 2)),
    ]


def test_enumerate_exact_covers_edge_cases():
    # more cliques than vertices: the walk stops at its root, because the
    # open states plus the vertices left fall short of k
    rng = np.random.default_rng(16)
    for n in range(1, 6):
        mu = random_graph(rng, n, 0.5)
        assert enumerate_exact_covers(mu, n + 1) == []
        assert len(enumerate_exact_covers(mu, n)) == 1
    empty = np.zeros((0, 0), dtype=bool)
    assert enumerate_exact_covers(empty, 0) == [()]
    assert enumerate_exact_covers(empty, 1) == []


def test_enumerate_exact_covers_blocks_are_cliques():
    rng = np.random.default_rng(15)
    for _ in range(15):
        n = int(rng.integers(2, 9))
        mu = random_graph(rng, n, 0.5)
        optimum = brute_force_min_states(mu)
        covers = enumerate_exact_covers(mu, optimum)
        assert covers
        for cover in covers:
            assert sorted(v for b in cover for v in b) == list(range(n))
            for b in cover:
                for i, u in enumerate(b):
                    for v in b[i + 1:]:
                        assert mu[u][v]


def test_enumerate_exact_covers_cap(fixture_graph):
    for cap in (0, 1):
        with pytest.raises(CoverOverflowError, match="^more than %d exact covers of 3 cliques$" % cap):
            enumerate_exact_covers(fixture_graph, 3, cap=cap)


def exact_covers_reference(mu, optimum, cap):
    """Reference enumeration: a plain block-list recursion in first-fit
    order, with the same cap and overflow message."""
    n = len(mu)
    covers = []
    blocks = []

    def recurse(v):
        if v == n:
            if len(blocks) == optimum:
                covers.append(tuple(tuple(b) for b in blocks))
                if len(covers) > cap:
                    raise CoverOverflowError(
                        "more than %d exact covers of %d cliques" % (cap, optimum)
                    )
            return
        if len(blocks) + (n - v) < optimum:
            return
        for b in blocks:
            if all(mu[v][u] for u in b):
                b.append(v)
                recurse(v + 1)
                b.pop()
        if len(blocks) < optimum:
            blocks.append([v])
            recurse(v + 1)
            blocks.pop()

    recurse(0)
    return covers


def _covers_or_message(enumerate_covers, mu, k, cap):
    try:
        return enumerate_covers(mu, k, cap)
    except CoverOverflowError as exc:
        return "overflow: %s" % exc


def test_enumerate_exact_covers_matches_reference():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(1, 11))
        mu = random_graph(rng, n, float(rng.uniform(0.1, 0.95)))
        optimum = brute_force_min_states(mu)
        # k None: the enumeration proves the optimum itself
        for k in [None, *range(1, n + 1)]:
            for cap in (0, 1, 7, 10000):
                got = _covers_or_message(enumerate_exact_covers, mu, k, cap)
                want = _covers_or_message(exact_covers_reference, mu.tolist(), k or optimum, cap)
                assert got == want, (mu.tolist(), k, cap)
    with pytest.raises(ValueError, match="^no histories to assign$"):
        enumerate_exact_covers(np.zeros((0, 0), dtype=bool))


def test_reconstruct_deterministic_fixture(fixture_graph, fixture_wc):
    W = fixture_graph.vertices
    keep = reconstruct_deterministic(((0, 3), (1,), (2,)), W, fixture_wc)
    assert keep.num_states == 3
    split = reconstruct_deterministic(((0,), (1,), (2, 3)), W, fixture_wc)
    assert split.num_states == 4
    singles = reconstruct_deterministic(((0,), (1,), (2,), (3,)), W, fixture_wc)
    assert singles.num_states == 4
    for bad in (((0, 3), (1, 3), (2,)), ((0, 3), (1,))):  # overlapping, short
        with pytest.raises(ValueError, match="^cover is not a partition of the vertices$"):
            reconstruct_deterministic(bad, W, fixture_wc)


def test_covers_share_one_int_per_vertex():
    # two cliques of 150 and a vertex that fits both: two covers, and each
    # vertex bigger than the interpreter's cached small ints is one object
    # in both, so ten thousand covers of many vertices hold one set of ints
    mu = np.zeros((301, 301), dtype=bool)
    mu[:150, :150] = mu[150:, 150:] = mu[300] = mu[:, 300] = True
    covers = enumerate_exact_covers(mu)
    assert [tuple(map(len, cover)) for cover in covers] == [(151, 150), (150, 151)]
    seen = {}
    assert all(seen.setdefault(v, v) is v for cover in covers for block in cover for v in block)
    assert len(seen) == 301


def test_deep_graph_overflows_the_cover_cap(deep_wc, deep_graph):
    # 1,024 histories are not too deep for the completion search: it
    # proves k = 11 and walks past the cap
    message = "^more than 10000 exact covers of 11 cliques$"
    with pytest.raises(CoverOverflowError, match=message):
        enumerate_exact_covers(deep_graph)
    with pytest.raises(CoverOverflowError, match=message):
        clique_pipeline(deep_wc)


def test_reconstruct_refines_the_cover():
    for wc, graph, succ in make_instances(10, seed=16):
        optimum = solve_msndpfsa(graph).optimum
        for cover in enumerate_exact_covers(graph, optimum)[:5]:
            part = reconstruct_deterministic(cover, graph.vertices, wc)
            blocks = {frozenset(b) for b in part.blocks()}
            for block in blocks:
                original = {
                    frozenset(tuple(graph.vertices[v]) for v in c) for c in cover
                }
                assert any(block <= o for o in original)


def test_pipeline_fixture(fixture_wc):
    result = clique_pipeline(fixture_wc)
    assert result.machine.num_states == 3
    assert result.optimum == 3
    assert result.final_counts == (3, 4)
    assert len(result.covers) == 2
    blocks = sorted(
        tuple(BINARY.render(h) for h in b) for b in result.partition.blocks()
    )
    assert blocks == [("00", "10"), ("01",), ("11",)]
    rows = result.machine.prob_rows()
    expect = [[0.9341, 0.0659], [0.5789, 0.4211], [1.0, 0.0]]
    assert np.allclose(rows, expect, atol=5e-4)


def test_pipeline_constant_sequence():
    wc = count_windows(from_text("0" * 80), 2)
    assert clique_pipeline(wc).machine.num_states == 1


def test_pipeline_cap_propagates(fixture_wc):
    with pytest.raises(CoverOverflowError):
        clique_pipeline(fixture_wc, cap=1)


def test_pipeline_bounded_by_cover_optimum():
    # the deterministic split can only add states on top of the cover, and
    # the chosen machine must be deterministic. A split clique partition is
    # a feasible deterministic partition, so the pipeline never lands below
    # the exact deterministic optimum; it may land above, and those
    # overcounts are only reported
    notes = []
    for idx, (wc, graph, succ) in enumerate(make_instances(20, seed=11)):
        result = clique_pipeline(wc)
        assert result.optimum == min_clique_cover(bron_kerbosch(graph), len(graph.vertices)).optimum
        assert result.machine.num_states >= result.optimum
        assert result.machine.num_states == min(result.final_counts)
        assert not check_determinism(result.machine)
        exact = solve_msdpfsa(graph, succ).optimum
        assert result.machine.num_states >= exact
        if result.machine.num_states != exact:
            notes.append((idx, result.machine.num_states, exact))
    if notes:
        print("pipeline vs exact deterministic optimum:", notes)
