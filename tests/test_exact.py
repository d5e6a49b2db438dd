"""Branch-and-bound searches, the partition oracle and the IP view."""

import hashlib
import io
import itertools

import numpy as np
import pytest

from minpfsa import (
    BINARY,
    Alphabet,
    IPModel,
    TooLargeForOracleError,
    build_ip_model,
    compatibility_graph,
    count_windows,
    from_text,
    from_tokens,
    greedy_independent_set,
    random_machine,
    sample,
    solve_msdpfsa,
    solve_msndpfsa,
    succ_table,
    to_lp_text,
    write_lp,
)
from minpfsa.cliques import bron_kerbosch, clique_pipeline, min_clique_cover
from minpfsa.errors import CoverOverflowError
from minpfsa.exact import _bitsets, _clique_partitions, _first_fit
from minpfsa.oracles import brute_force_min_states, lp_rows, solve_ip_model
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


def test_searches_reject_an_empty_graph():
    empty = np.zeros((0, 0), dtype=bool)
    with pytest.raises(ValueError, match="^no histories to assign$"):
        solve_msndpfsa(empty)
    with pytest.raises(ValueError, match="^no histories to assign$"):
        brute_force_min_states(empty)


def test_search_depth_limit_raises_typed_error(deep_graph):
    # every search runs on an explicit stack, so no input is too deep: the
    # completion search takes 1,024 histories, and the first-fit search a
    # first descent of 1,200, one level per history, which both a complete
    # and an edgeless graph make
    assert len(deep_graph.vertices) == 1024
    assert solve_msndpfsa(deep_graph).optimum == 11
    succ = ((None,),) * 1200
    assert solve_msdpfsa(np.ones((1200, 1200), dtype=bool), succ).optimum == 1
    assert solve_msdpfsa(np.eye(1200, dtype=bool), succ).optimum == 1200


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


def lex_least_oracle(mu, succ=None):
    """The first restricted-growth assignment, in lexicographic order, with
    the fewest states among those that keep only compatible histories
    together and, when succ is given, send each state's histories to one
    state per symbol. Tries every assignment."""
    n = len(mu)
    best = None

    def valid(assign):
        for i in range(n):
            for l in range(i + 1, n):
                if assign[i] == assign[l] and not mu[i][l]:
                    return False
        if succ is not None:
            targets = {}
            for i, row in enumerate(succ):
                for a, l in enumerate(row):
                    if l is not None and targets.setdefault((assign[i], a), assign[l]) != assign[l]:
                        return False
        return True

    def assignments(prefix, used):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for s in range(used + 1):
            yield from assignments(prefix + [s], max(used, s + 1))

    for assign in assignments([], 0):
        states = max(assign) + 1
        if (best is None or states < max(best) + 1) and valid(assign):
            best = assign
    return best


def test_searches_return_lex_least_optimum(fixture_graph, fixture_succ):
    cases = [(fixture_graph.mu, fixture_succ)]
    cases += [(g.mu, s) for _, g, s in make_instances(60, seed=11)]
    # successor tables no sequence produces: uniform targets, before or
    # after their source or on it, and unobserved (None) entries
    rng = np.random.default_rng(13)
    for _ in range(60):
        n, m = int(rng.integers(1, 8)), int(rng.integers(1, 4))
        mu = rng.random((n, n)) < rng.uniform(0.2, 0.95)
        mu = np.logical_or(mu, mu.T)
        np.fill_diagonal(mu, True)
        succ = [[None if rng.random() < 0.3 else int(rng.integers(n)) for _ in range(m)]
                for _ in range(n)]
        cases.append((mu, succ))
    for mu, succ in cases:
        rows = mu.tolist()
        assert solve_msdpfsa(mu, succ).partition.assign == lex_least_oracle(rows, succ)
        assert solve_msndpfsa(mu).partition.assign == lex_least_oracle(rows)


# (seed, source states, symbols, histories, optimum, sha256 of repr(assign))
# for binary sources at L = 6, recorded with the search that started at the
# greedy independent-set bound and proved each optimum by exhausting every
# smaller partition (0.0–6.3 s each); in all but the last two the greedy
# bound falls short of the optimum, so the clique cover proves it
ND_PARTITION_SHA256 = [
    (0, 5, 20000, 64, 5, "f0b18e9999edd8572c47cdbd5ce2c6d9329ef3888d33c4bb0e2a603a2d01ebee"),
    (3, 5, 2000, 64, 4, "0becede75fbb5892caa5accbddca0e053fde60cabe5f48a32c82b411515c4d5b"),
    (4, 2, 2000, 57, 5, "bcea97ac7e9be8d68e0e26fa921750ff1076aa9f405cb6b7c13202a54ae672e3"),
    (5, 3, 6000, 64, 5, "dcfac763195535d89920fb632cdea3cad02b5e6b97362bf8a35eec87667e662c"),
    (6, 5, 2000, 64, 5, "f280a05bc0de85b5e86055587ea323e1ead0c5e94519c9e19806e4df7d596281"),
    (4, 8, 20000, 64, 8, "c442c28661e98f1156b481a6b960beaeb092b62bb4c219767d76666e432ad16c"),
    (7, 3, 20000, 64, 6, "b62f59a4ae8eabb46d481fba7c9c09b9a227d8f9d315b23753f10394237fe0e0"),
    (5, 5, 6000, 64, 5, "c1ba31687abf7f444e98e23ebc884b354a99bf83e8a1d9ac650dcad092ae6107"),
    (2, 2, 2000, 52, 3, "e18cf4e20980e10accaa55a9e8a973032137562ceb663d2bb2c51751e6a00fc8"),
]


@pytest.mark.parametrize("seed, states, length, n, optimum, digest", ND_PARTITION_SHA256,
                         ids=["s%d-q%d-%d" % case[:3] for case in ND_PARTITION_SHA256])
def test_nondeterministic_partition_bytes(seed, states, length, n, optimum, digest):
    key = [seed, 2, states, length]
    source = random_machine(np.random.default_rng(key), states, BINARY)
    graph = compatibility_graph(count_windows(sample(source, length, key), 6))
    assert len(graph.vertices) == n
    bound = len(greedy_independent_set(graph.mu.tolist()))
    assert (bound < optimum) == ((seed, states) not in ((5, 5), (2, 2)))
    res = solve_msndpfsa(graph)
    assert res.optimum == optimum
    assert hashlib.sha256(repr(res.partition.assign).encode()).hexdigest() == digest


# (seed, source states, length, histories, optimum, sha256 of repr(assign))
# of the deterministic search on binary sources at L = 5, recorded with the
# search that checked each history's successor row and predecessor list
# apart (at most 0.08 s each); the nd optimum is 3-6 on all, so the
# determinism checks decide these optima
D_PARTITION_SHA256 = [
    (0, 3, 2000, 32, 20, "c9656fd99921c9bd6f197fb9578168ea79267c3efba48fae478c3051d47046ef"),
    (1, 5, 6000, 32, 21, "c6a62760a3d204daa92eebf349b842dfa7d02aea6efa7a2578ff89923138a849"),
    (3, 5, 2000, 32, 15, "140fb67472a9978ba124e75697934b626daf5007198118a49de5f8b129d8b397"),
    (4, 3, 2000, 32, 9, "90c050324f9531af60f1a49a358a65a223c0b48c39b7e57bae16d4050ce58727"),
    (6, 5, 6000, 32, 19, "1f7f5cc62c2ebbc806f9ed6ccc1178c9313b60e03e33075b2c8fb803c71eb570"),
    (8, 5, 6000, 32, 17, "e363d7645020d66acf50522461e06853a4fb7266cde1233116ff2dca2747d0be"),
]


@pytest.mark.parametrize("seed, states, length, n, optimum, digest", D_PARTITION_SHA256,
                         ids=["s%d-q%d-%d" % case[:3] for case in D_PARTITION_SHA256])
def test_deterministic_partition_bytes(seed, states, length, n, optimum, digest):
    key = [seed, 2, states, length]
    source = random_machine(np.random.default_rng(key), states, BINARY)
    wc = count_windows(sample(source, length, key), 5)
    graph = compatibility_graph(wc)
    assert len(graph.vertices) == n
    res = solve_msdpfsa(graph, succ_table(wc, graph.vertices))
    assert res.optimum == optimum
    assert hashlib.sha256(repr(res.partition.assign).encode()).hexdigest() == digest


def first_fit_partition(mu, k):
    """The first partition into exactly k cliques in first-fit order, as an
    assign tuple, by a plain restricted-growth recursion (no pruning but
    the state count), or None when there is none."""
    n = len(mu)
    assign, blocks = [], []

    def recurse(v):
        if v == n:
            return len(blocks) == k
        if len(blocks) + n - v < k:
            return False
        for s in range(min(len(blocks) + 1, k)):
            if s == len(blocks):
                blocks.append([])
            elif not all(mu[v][u] for u in blocks[s]):
                continue
            blocks[s].append(v)
            assign.append(s)
            if recurse(v + 1):
                return True
            assign.pop()
            blocks[s].pop()
            if not blocks[s]:
                blocks.pop()
        return False

    return tuple(assign) if recurse(0) else None


def greedy_first_fit_states(mu):
    """States of the greedy first fit: each vertex joins the lowest state
    it fits, or opens a new one."""
    blocks = []
    for v in range(len(mu)):
        for b in blocks:
            if all(mu[v][u] for u in b):
                b.append(v)
                break
        else:
            blocks.append([v])
    return len(blocks)


def test_clique_partition_matches_first_fit_search():
    # the optimum is the cover's, an independent prover, and the partition
    # the first one a plain first-fit recursion reaches at exactly that
    # many states
    rng = np.random.default_rng(41)
    below = 0
    for _ in range(150):
        n = int(rng.integers(8, 23))
        mu = rng.random((n, n)) < rng.uniform(0.15, 0.9)
        mu = np.logical_or(mu, mu.T)
        np.fill_diagonal(mu, True)
        k = min_clique_cover(bron_kerbosch(mu), n).optimum
        rows = mu.tolist()
        assert next(_clique_partitions(_bitsets(mu)))[:2] == (k, first_fit_partition(rows, k))
        # where the greedy first fit has more than k states, the
        # lexicographically least k-partition is not the greedy one
        below += k < greedy_first_fit_states(rows)
    assert below >= 50  # 65 of the 150 greedy first fits miss k


# sha256 of the repr of each list of (k, assign, explored) that
# _clique_partitions yields, at most 50 per graph and k, over the graphs of
# test_clique_partitions_are_pinned; recorded with the recursive completion
# search and walk that the explicit stack replaced
CLIQUE_PARTITIONS_SHA256 = "3bfe464f4dba9ab1f11177a6e11babcc1bbe88ba1c25e520eb190deddb16f97c"


def test_clique_partitions_are_pinned():
    # partitions, their order and the node counts, for a proven and for
    # each given k
    rng = np.random.default_rng(23)
    digest = hashlib.sha256()
    for _ in range(300):
        n = int(rng.integers(1, 12))
        mu = rng.random((n, n)) < rng.choice([0.2, 0.5, 0.8, 0.95])
        mu = np.logical_or(mu, mu.T)
        np.fill_diagonal(mu, True)
        adj = _bitsets(mu)
        for k in (None, 1, 2, 3, 4):
            digest.update(repr(list(itertools.islice(_clique_partitions(adj, k), 50))).encode())
    assert digest.hexdigest() == CLIQUE_PARTITIONS_SHA256


# sha256 of the repr of each (optimum, assign, explored) that _first_fit
# returns over the pool of test_first_fit_is_pinned; recorded with the
# recursive search that the explicit stack replaced
FIRST_FIT_SHA256 = "58876c8cf9d1a6de0a80f97a2c725ec62352ec595abebfb3739a67423931f79b"


def test_first_fit_is_pinned():
    # optimum, partition and node count of the deterministic search on
    # random relations and successor tables, a quarter of successors missing
    rng = np.random.default_rng(29)
    digest = hashlib.sha256()
    for _ in range(3000):
        n = int(rng.integers(1, 12))
        m = int(rng.integers(1, 4))
        mu = rng.random((n, n)) < rng.choice([0.2, 0.5, 0.8, 0.95])
        mu = np.logical_or(mu, mu.T)
        np.fill_diagonal(mu, True)
        succ = tuple(tuple(None if rng.random() < 0.25 else int(rng.integers(n)) for _ in range(m))
                     for _ in range(n))
        digest.update(repr(_first_fit(_bitsets(mu), succ)).encode())
    assert digest.hexdigest() == FIRST_FIT_SHA256


# (key of a four-symbol source at L = 3, histories, optimum): graphs whose
# cover optimum the first-fit search at exactly that many states did not
# reach in 20 s (the first four), and graphs whose optimum the minimum
# clique cover took seconds to minutes to prove (the last two)
FOUR_SYMBOL_HARD = [([2, 4, 8000], 64, 11), ([3, 4, 8000], 64, 11),
                    ([5, 3, 8000], 64, 10), ([14, 4, 3000], 64, 8),
                    ([1, 4, 8000], 64, 6), ([2, 4, 3000], 64, 8)]


def four_symbol_counts(key):
    source = random_machine(np.random.default_rng(key), key[1], Alphabet(tuple("0123")))
    return count_windows(sample(source, key[2], key), 3)


@pytest.mark.parametrize("key, n, optimum", FOUR_SYMBOL_HARD,
                         ids=["s%d-q%d-%d" % tuple(case[0]) for case in FOUR_SYMBOL_HARD])
def test_nondeterministic_partition_is_clique_partition(key, n, optimum):
    graph = compatibility_graph(four_symbol_counts(key))
    assert len(graph.vertices) == n
    res = solve_msndpfsa(graph)
    assert res.optimum == optimum == max(res.partition.assign) + 1
    blocks = {}
    for v, s in enumerate(res.partition.assign):
        blocks.setdefault(s, []).append(v)
    # first-fit numbering: state s opens before state s + 1
    assert [b[0] for b in blocks.values()] == sorted(b[0] for b in blocks.values())
    for block in blocks.values():
        assert graph.mu[np.ix_(block, block)].all()


@pytest.mark.parametrize("key", [[14, 4, 3000], [2, 4, 3000]], ids=["s14-q4-3000", "s2-q4-3000"])
def test_clique_route_overflows_fast(key):
    # a first-fit enumeration (the first key) or a minimum clique cover (the
    # second) takes seconds to minutes here; the route must fail fast instead
    with pytest.raises(CoverOverflowError, match="^more than 10000 exact covers of 8 cliques$"):
        clique_pipeline(four_symbol_counts(key))


# ---------------------------------------------------------------------------
# the IP view


def test_ip_variable_counts(fixture_graph, fixture_succ):
    # z holds constants, not variables: the counts name every LP binary
    for deterministic, total in ((True, 52), (False, 20)):
        model = build_ip_model(fixture_graph, fixture_succ, deterministic)
        lines = to_lp_text(model).splitlines()
        binaries = lines[lines.index("Binary") + 1 : lines.index("End")]
        assert sum(model.variable_counts().values()) == len(binaries) == total
    assert model.variable_counts() == {"x": 16, "y": 0, "p": 4}


def test_ip_model_needs_succ(fixture_graph):
    with pytest.raises(ValueError):
        build_ip_model(fixture_graph, None)


def _families(model):
    """Row count of each constraint family in the model's parsed LP text."""
    counts = {}
    for name, _, _, _ in lp_rows(to_lp_text(model)):
        family = name.split("_")[0]
        counts[family] = counts.get(family, 0) + 1
    return counts


def test_ip_constraint_families(fixture_graph, fixture_succ):
    det = build_ip_model(fixture_graph, fixture_succ)
    assert set(_families(det)) == {"assign", "trans", "det", "compat", "open"}
    relaxed = build_ip_model(fixture_graph, fixture_succ, deterministic=False)
    assert set(_families(relaxed)) == {"assign", "compat", "open"}


@pytest.mark.parametrize("deterministic", [True, False])
def test_lp_rows_per_family(fixture_graph, fixture_succ, deterministic):
    instances = [(fixture_graph, fixture_succ)]
    instances += [(graph, succ) for _, graph, succ in make_instances(4, seed=9)]
    self_rows = 0
    for graph, succ in instances:
        model = build_ip_model(graph, succ, deterministic=deterministic)
        n, m = model.n, model.n_symbols
        observed = sum(l is not None for row in succ for l in row)
        incompatible = sum(not model.mu[i][l] for i in range(n) for l in range(i + 1, n))
        expect = {"assign": n, "compat": n * incompatible, "open": n}
        if deterministic:
            expect.update(trans=n * n * observed, det=n * m)
        assert _families(model) == {f: c for f, c in expect.items() if c}
        rows = lp_rows(to_lp_text(model))
        assert ("open_0", tuple((1, "x_%d_0" % i) for i in range(n)) + ((-n, "p_0"),),
                "<=", 0) in rows
        for i, row in enumerate(succ):
            for a, l in enumerate(row):
                if deterministic and l == i:
                    self_rows += 1
                    name = "trans_%d_%d_0_0" % (a, i)
                    assert (name, ((2, "x_%d_0" % i), (-1, "y_%d_0_0" % a)), "<=", 1) in rows
    # the fixture's 00 history and the pool both have self-successors
    assert self_rows >= 2 if deterministic else self_rows == 0


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

# 27 histories at L = 3 over three symbols, with 14 missing successors, a
# self-successor (000 under 0) and incompatible pairs; recorded with the
# row-by-row formatter that the block writer replaced
WIDE_LP_SHA256 = {
    True: "25d579cfb7a8b1fead9a8d5d5c5e9672d6adac970759ff2be76f0c97b799ec21",
    False: "88896b624ae030120d1b3f40bb43ddb161c6e46c3883c11a6a3f15c72438c41e",
}


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


@pytest.mark.parametrize("deterministic", [True, False])
def test_lp_text_bytes_wide(deterministic):
    rng = np.random.default_rng(0)
    toks = np.concatenate([np.zeros(12, dtype=np.int64), rng.integers(0, 3, size=150)])
    wc = count_windows(from_tokens(toks, Alphabet(("0", "1", "2"))), 3)
    graph = compatibility_graph(wc)
    succ = succ_table(wc, graph.vertices)
    assert len(succ) == 27
    assert sum(l is None for row in succ for l in row) == 14
    assert any(row[a] == i for i, row in enumerate(succ) for a in range(3))
    assert not graph.mu.all()
    assert _lp_sha256(graph, succ, deterministic) == WIDE_LP_SHA256[deterministic]


def _reference_lp(model):
    """The LP text of the model formatted one row at a time, straight from
    the IPModel docstring: the oracle for the template writer."""
    n, m, r = model.n, model.n_symbols, range(model.n)

    def x(i, j):
        return "x_%d_%d" % (i, j)

    def y(a, j, k):
        return "y_%d_%d_%d" % (a, j, k)

    lines = ["Minimize", " obj: " + " + ".join("p_%d" % j for j in r), "Subject To"]
    lines += [" assign_%d: %s = 1" % (i, " + ".join(x(i, j) for j in r)) for i in r]
    if model.deterministic:
        for a in range(m):
            for i, l in enumerate(model.z[a]):
                if l is None:
                    continue
                for j in r:
                    for k in r:
                        if i == l and j == k:
                            lhs = "2 %s - %s" % (x(i, j), y(a, j, j))
                        else:
                            lhs = "%s + %s - %s" % (x(i, j), x(l, k), y(a, j, k))
                        lines.append(" trans_%d_%d_%d_%d: %s <= 1" % (a, i, j, k, lhs))
        lines += [" det_%d_%d: %s <= 1" % (j, a, " + ".join(y(a, j, k) for k in r))
                  for j in r for a in range(m)]
    for i in r:
        for l in range(i + 1, n):
            if not model.mu[i][l]:
                lines += [" compat_%d_%d_%d: %s + %s <= 1" % (i, l, j, x(i, j), x(l, j))
                          for j in r]
    coef = "" if n == 1 else "%d " % n
    lines += [" open_%d: %s - %sp_%d <= 0" % (j, " + ".join(x(i, j) for i in r), coef, j)
              for j in r]
    lines.append("Binary")
    lines += [" " + x(i, j) for i in r for j in r]
    if model.deterministic:
        lines += [" " + y(a, j, k) for a in range(m) for j in r for k in r]
    lines += [" p_%d" % j for j in r]
    lines.append("End")
    return "\n".join(lines) + "\n"


def _random_ip_model(rng, n, deterministic):
    """Three symbols and up to ten observed successors, each a shared
    target, the history itself or any history; then one history succeeds
    itself under symbols 0 and 1, and the first and last histories share a
    successor under symbol 2. Every other successor is missing."""
    m = 3
    mu = np.triu(rng.random((n, n)) < 0.7, 1)
    mu = mu | mu.T | np.eye(n, dtype=bool)
    z = [[None] * n for _ in range(m)]
    shared = int(rng.integers(n))
    for cell in rng.choice(n * m, size=min(n * m, 10), replace=False):
        a, i = divmod(int(cell), n)
        z[a][i] = (shared, i, int(rng.integers(n)))[int(rng.integers(3))]
    own = int(rng.integers(n))
    z[0][own] = z[1][own] = own
    z[2][0] = z[2][n - 1] = shared
    return IPModel(n, m, tuple(map(tuple, mu.tolist())), tuple(map(tuple, z)), deterministic)


def test_reference_lp_matches_pinned_bytes(fixture_graph, fixture_succ):
    for deterministic, digest in FIXTURE_LP_SHA256.items():
        text = _reference_lp(build_ip_model(fixture_graph, fixture_succ, deterministic))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("deterministic", [True, False])
@pytest.mark.parametrize("n", [1, 2, 11, 27, 101])
def test_lp_writers_match_row_by_row_reference(n, deterministic):
    rng = np.random.default_rng(n)
    for _ in range(3 if n < 100 else 1):
        model = _random_ip_model(rng, n, deterministic)
        if n > 2:
            assert any(l is None for row in model.z for l in row)
            assert not all(map(all, model.mu))
        expect = _reference_lp(model).splitlines(True)
        assert to_lp_text(model).splitlines(True) == expect
        fh = io.StringIO()
        write_lp(model, fh)
        assert fh.getvalue().splitlines(True) == expect
