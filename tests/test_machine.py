"""Machine construction, determinism checks, sampling and export formats."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minpfsa import (
    BINARY,
    Alphabet,
    DeadEndError,
    FormatError,
    PFSA,
    StatePartition,
    build_machine,
    check_determinism,
    clique_pipeline,
    compatibility_graph,
    cond_dist,
    count_windows,
    cssr,
    from_json,
    from_text,
    from_tokens,
    gen_fixture,
    histories,
    parse_sequence,
    partition_from_blocks,
    sample,
    solve_msdpfsa,
    solve_msndpfsa,
    split_to_deterministic,
    succ_table,
    to_dot,
    to_json,
)
from tests.conftest import make_instances

OPTIMAL_BLOCKS = [[(0, 0), (1, 0)], [(0, 1)], [(1, 1)]]


def optimal_partition(wc):
    return partition_from_blocks(histories(wc), OPTIMAL_BLOCKS)


# ---------------------------------------------------------------------------
# partitions


def test_partition_blocks_and_lookup():
    part = StatePartition(((0, 0), (0, 1), (1, 1)), (0, 1, 0))
    assert part.num_states == 2
    assert part.blocks() == [((0, 0), (1, 1)), ((0, 1),)]
    assert part.state_of((0, 1)) == 1


def test_partition_requires_contiguous_states():
    with pytest.raises(ValueError):
        StatePartition(((0, 0), (0, 1)), (0, 2))


def test_partition_canonical_first_fit():
    part = StatePartition(((0, 0), (0, 1), (1, 1)), (2, 0, 1)).canonical()
    assert part.assign == (0, 1, 2)


def test_partition_from_blocks_validates():
    W = [(0, 0), (0, 1)]
    with pytest.raises(ValueError):
        partition_from_blocks(W, [[(0, 0)], [(0, 0), (0, 1)]])
    with pytest.raises(ValueError):
        partition_from_blocks(W, [[(0, 0)]])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=8))
def test_canonical_is_idempotent(raw):
    labels = sorted(set(raw))
    remap = {v: i for i, v in enumerate(labels)}
    assign = tuple(remap[v] for v in raw)
    W = tuple((i,) for i in range(len(assign)))
    part = StatePartition(W, assign).canonical()
    assert part.canonical().assign == part.assign


# ---------------------------------------------------------------------------
# machine construction


def test_build_machine_reference_probs(fixture_wc):
    m = build_machine(fixture_wc, optimal_partition(fixture_wc))
    rows = m.prob_rows()
    assert np.allclose(rows[0], (0.9341, 0.0659), atol=5e-4)
    assert np.allclose(rows[1], (0.5789, 0.4211), atol=5e-4)
    assert np.allclose(rows[2], (1.0, 0.0), atol=5e-4)


def test_build_machine_delta(fixture_wc):
    m = build_machine(fixture_wc, optimal_partition(fixture_wc))
    # states are ordered by smallest member: q0={00,10}, q1={01}, q2={11}
    assert m.delta[(0, 0)] == frozenset([0])
    assert m.delta[(1, 0)] == frozenset([0])
    assert m.delta[(2, 0)] == frozenset([0])
    assert m.delta[(0, 1)] == frozenset([1])
    assert m.delta[(1, 1)] == frozenset([2])


def test_unobserved_symbol_has_no_edge(fixture_wc):
    # "11" is never followed by 1, so the state {11} has no symbol-1 edge
    # and no probability entry for it
    m = build_machine(fixture_wc, optimal_partition(fixture_wc))
    assert (2, 1) not in m.delta
    assert (2, 1) not in m.probs


def test_singleton_partition_mirrors_successors(fixture_wc):
    W = histories(fixture_wc)
    part = partition_from_blocks(W, [[h] for h in W])
    m = build_machine(fixture_wc, part)
    lookup = {h: j for j, block in enumerate(m.states) for h in block}
    for j, block in enumerate(m.states):
        h = block[0]
        for a in range(2):
            if fixture_wc.count(h + (a,)) > 0:
                succ = h[1:] + (a,)
                assert m.delta[(j, a)] == frozenset([lookup[succ]])


def test_start_state_contains_most_frequent_run(fixture_wc):
    m = build_machine(fixture_wc, optimal_partition(fixture_wc))
    assert (0, 0) in m.states[m.start_state]


def test_prob_rows_sum_to_one(fixture_wc):
    for blocks in (OPTIMAL_BLOCKS, [[h] for h in histories(fixture_wc)]):
        part = partition_from_blocks(histories(fixture_wc), blocks)
        m = build_machine(fixture_wc, part)
        for row in m.prob_rows():
            assert abs(row.sum() - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# determinism


def test_determinism_violation_reported(fixture_wc):
    blocks = [[(1, 1), (1, 0)], [(0, 0)], [(0, 1)]]
    part = partition_from_blocks(histories(fixture_wc), blocks)
    m = build_machine(fixture_wc, part)
    bad_state = next(j for j, b in enumerate(m.states) if len(b) == 2)
    violations = check_determinism(m)
    assert violations
    state, symbol, targets = violations[0]
    assert state == bad_state
    assert symbol == 0
    assert len(targets) == 2


def test_optimal_partition_is_deterministic(fixture_wc):
    m = build_machine(fixture_wc, optimal_partition(fixture_wc))
    assert check_determinism(m) == []
    assert m.is_deterministic()


def test_singletons_always_deterministic(fixture_wc):
    W = histories(fixture_wc)
    part = partition_from_blocks(W, [[h] for h in W])
    assert check_determinism(build_machine(fixture_wc, part)) == []


# ---------------------------------------------------------------------------
# successor-signature splitting


def test_split_separates_inconsistent_block(fixture_wc):
    blocks = [[(0, 0)], [(0, 1)], [(1, 1), (1, 0)]]
    part = partition_from_blocks(histories(fixture_wc), blocks)
    assert split_to_deterministic(part, fixture_wc).num_states == 4


def test_split_keeps_consistent_block(fixture_wc):
    part = optimal_partition(fixture_wc)
    out = split_to_deterministic(part, fixture_wc)
    assert out.num_states == 3
    assert sorted(out.blocks()) == sorted(part.blocks())


def test_split_fixpoint_on_singletons(fixture_wc):
    W = histories(fixture_wc)
    part = partition_from_blocks(W, [[h] for h in W])
    assert split_to_deterministic(part, fixture_wc).assign == part.assign


# ---------------------------------------------------------------------------
# sampling


def test_sample_single_state_machine():
    m = PFSA(BINARY, ((),), {(0, 0): frozenset([0])}, {(0, 0): 1.0})
    out = sample(m, 50, seed=3)
    assert out.text() == "0" * 50


def test_sample_dead_end():
    m = PFSA(BINARY, ((), ()), {(0, 0): frozenset([1])}, {(0, 0): 1.0})
    with pytest.raises(DeadEndError):
        sample(m, 10, seed=0)


def test_sample_is_seed_deterministic(fixture_wc):
    m = build_machine(fixture_wc, optimal_partition(fixture_wc))
    a = sample(m, 500, seed=11).text()
    b = sample(m, 500, seed=11).text()
    c = sample(m, 500, seed=12).text()
    assert a == b
    assert a != c


def test_sample_never_emits_one_from_pure_state(fixture_wc):
    # every visit to the {11} state must emit 0: walk the state sequence
    m = build_machine(fixture_wc, optimal_partition(fixture_wc))
    seq = sample(m, 10000, seed=5)
    state = m.start_state
    for tok in seq.tokens:
        if state == 2:
            assert tok == 0
        state = min(m.delta[(state, int(tok))])


def test_sample_recovers_conditional(fixture_wc):
    m = build_machine(fixture_wc, optimal_partition(fixture_wc))
    seq = sample(m, 50000, seed=7)
    wc2 = count_windows(seq, 2)
    got = cond_dist(wc2, (0, 1)).probs
    assert np.allclose(got, (0.5789, 0.4211), atol=0.03)


# ---------------------------------------------------------------------------
# formats


def test_json_round_trip_is_byte_identical(fixture_wc):
    m = build_machine(fixture_wc, optimal_partition(fixture_wc))
    text = to_json(m)
    again = to_json(from_json(text))
    assert text == again


def test_json_schema_fields(fixture_wc):
    m = build_machine(fixture_wc, optimal_partition(fixture_wc))
    obj = json.loads(to_json(m))
    assert set(obj) == {"alphabet", "states", "transitions"}
    assert obj["alphabet"] == ["0", "1"]
    assert [s["id"] for s in obj["states"]] == [1, 2, 3]
    assert obj["states"][0]["histories"] == ["00", "10"]
    tr = obj["transitions"][0]
    assert set(tr) == {"from", "symbol", "to", "prob"}


def test_from_json_rejects_missing_field():
    with pytest.raises(FormatError):
        from_json(json.dumps({"alphabet": ["0", "1"], "states": []}))


def test_from_json_rejects_unknown_symbol(fixture_wc):
    m = build_machine(fixture_wc, optimal_partition(fixture_wc))
    obj = json.loads(to_json(m))
    obj["transitions"][0]["symbol"] = "7"
    with pytest.raises(FormatError):
        from_json(json.dumps(obj))


def test_dot_has_five_nonzero_edges(fixture_wc):
    m = build_machine(fixture_wc, optimal_partition(fixture_wc))
    dot = to_dot(m)
    edges = [line for line in dot.splitlines() if "->" in line]
    assert len(edges) == 5
    assert 'label="0/0.9341"' in dot
    assert 'label="0/1.0000"' in dot


def test_dot_renders_dead_end_node():
    m = PFSA(BINARY, ((), ()), {(0, 0): frozenset([1])}, {(0, 0): 1.0})
    dot = to_dot(m)
    assert "q2" in dot
    edges = [line for line in dot.splitlines() if "->" in line]
    assert len(edges) == 1


@pytest.mark.parametrize("symbols", [("ab", "c"), ("x1", "y", "zz")])
@pytest.mark.parametrize("L", [0, 1, 2])
def test_json_round_trip_multi_character_symbols(symbols, L):
    rng = np.random.default_rng(17)
    text = " ".join(rng.choice(symbols, size=300))
    m = cssr(count_windows(parse_sequence(text, "tokens"), L))
    out = to_json(m)
    again = from_json(out)
    assert again.states == m.states
    assert to_json(again) == out


def test_render_parse_multi_character_symbols():
    alphabet = Alphabet(("ab", "c"))
    assert alphabet.render((0, 1, 0)) == "ab c ab"
    assert alphabet.parse("ab c ab") == (0, 1, 0)
    assert alphabet.parse(alphabet.render(())) == ()
    assert BINARY.render((0, 1, 1)) == "011"
    assert BINARY.parse("011") == (0, 1, 1)
    with pytest.raises(FormatError):
        alphabet.parse("ab d")
    with pytest.raises(FormatError):
        BINARY.parse("012")


# ---------------------------------------------------------------------------
# machine bytes


def _json_sha256(machine):
    return hashlib.sha256(to_json(machine).encode()).hexdigest()


def _pool_inputs():
    wcs = [count_windows(gen_fixture(), 2)]
    wcs += [wc for wc, _, _ in make_instances(8, seed=9)]
    wcs.append(count_windows(parse_sequence("001001011"), 2))
    return wcs


def _pool_machines(wc):
    """The cssr, ip and clique machines, then the machine of the
    non-deterministic optimum's partition."""
    graph = compatibility_graph(wc)
    return (
        cssr(wc),
        build_machine(wc, solve_msdpfsa(graph, succ_table(wc, graph.vertices)).partition),
        clique_pipeline(wc).machine,
        build_machine(wc, solve_msndpfsa(graph).partition),
    )


POOL_JSON_SHA256 = [  # (cssr, ip, clique, nd) per input of _pool_inputs
    ("e13ed8b12d0bd55d729c6dbb3afaf5614dd678860509ea271e09ae5b23cc73fe",
     "a5847af40f941df7e1db30ea61125c5cd224aece5bbfedeb63acca48c9c7af1e",
     "a5847af40f941df7e1db30ea61125c5cd224aece5bbfedeb63acca48c9c7af1e",
     "a5847af40f941df7e1db30ea61125c5cd224aece5bbfedeb63acca48c9c7af1e"),
    ("ddf345d018c3e72a4b1a323e34cd3e445c4c848411f0c81703ea50aac1f51537",
     "e4fc4fa18a790530b60831728bf03cb337a115f5d174c409c8a6f097b65d17fd",
     "e4fc4fa18a790530b60831728bf03cb337a115f5d174c409c8a6f097b65d17fd",
     "3cf3c8273b4f19555d015f36a2eaa81cd3b68f4d01c124abfcdc7a93337ea5f9"),
    ("e179625822de0ac19396dcc26a04bb18ca67dab2191e66931bf17ce57f7e295a",
     "e179625822de0ac19396dcc26a04bb18ca67dab2191e66931bf17ce57f7e295a",
     "e179625822de0ac19396dcc26a04bb18ca67dab2191e66931bf17ce57f7e295a",
     "e179625822de0ac19396dcc26a04bb18ca67dab2191e66931bf17ce57f7e295a"),
    ("ca570ca33c92aaa4e9f227b41fea8e26230b98075956214050df2268c488ebb3",
     "494524758c9d421fd3303e146c601a908f40113bbdadbd72f9a3a84aaf888f7d",
     "50e104f9f1480f748e7b3bdc4f03f40f3119ee3d80756eb78c8b90ce6855b6f1",
     "efbd29d9e782758e99d511fee2d22ec1726b3511c6281ce0cacabb71b1752ba4"),
    ("cb3b7f57f14b2cc712b31d31be8624dd0e3cb4d1693080fce9b378baf2669e94",
     "d128ecc449e47e27539ea9293d0b7562abdfa83d6a7dfeb5cdc05560aa0bfb07",
     "d128ecc449e47e27539ea9293d0b7562abdfa83d6a7dfeb5cdc05560aa0bfb07",
     "3a16466adcf0ae65d58d8d844c970fc43412729e7e032414190f7252e2c9fa2b"),
    ("79ef30f852e8900449055c3d6beb508e07284f20517a888fa70daaae70221fc3",
     "a6db6a7cb4bf51ca544a4671eb5b6bc05baee770a3c913684645887ab4f4ec0a",
     "a6db6a7cb4bf51ca544a4671eb5b6bc05baee770a3c913684645887ab4f4ec0a",
     "64154acfafa954659cf25248e94feb08a7347c5c17e666a7500a4c009bcb2313"),
    ("e16392a91717c56b5d31e59c62dd39b7f65600158597528f8e7dbbb0dd364cbf",
     "e16392a91717c56b5d31e59c62dd39b7f65600158597528f8e7dbbb0dd364cbf",
     "e16392a91717c56b5d31e59c62dd39b7f65600158597528f8e7dbbb0dd364cbf",
     "5ab95969b065f6ee1db5030171694d9420109d736f067b8c16934f9b3f847bf4"),
    ("f84fb66f85e555295f41d5003c91298f3b554f742ef542a09dfe97c1574a5913",
     "f84fb66f85e555295f41d5003c91298f3b554f742ef542a09dfe97c1574a5913",
     "f84fb66f85e555295f41d5003c91298f3b554f742ef542a09dfe97c1574a5913",
     "f84fb66f85e555295f41d5003c91298f3b554f742ef542a09dfe97c1574a5913"),
    ("2692841cdf47a3cf7fdd08974322725c8a6d61ff2cd8bb0b92dfdd810f423fad",
     "2692841cdf47a3cf7fdd08974322725c8a6d61ff2cd8bb0b92dfdd810f423fad",
     "2692841cdf47a3cf7fdd08974322725c8a6d61ff2cd8bb0b92dfdd810f423fad",
     "2692841cdf47a3cf7fdd08974322725c8a6d61ff2cd8bb0b92dfdd810f423fad"),
    ("bd32e93404543a113581c479480ff0ef2ba4dad78659caeb7e3a7809d581c593",
     "d6f859e53635b6406a70d5524101eae0ca8f831261d4b8da90e863b74f8a4595",
     "d6f859e53635b6406a70d5524101eae0ca8f831261d4b8da90e863b74f8a4595",
     "d6f859e53635b6406a70d5524101eae0ca8f831261d4b8da90e863b74f8a4595"),
]


def test_machine_json_bytes_pool():
    wcs = _pool_inputs()
    machines = [_pool_machines(wc) for wc in wcs]
    # the non-deterministic optima give some edges several targets
    assert any(not nd.is_deterministic() for *_, nd in machines)
    # in 001001011 at L = 2, 01 -> 1 leads to 11, which has no state, so
    # that transition is dropped
    last = wcs[-1]
    W = histories(last)
    assert last.count((0, 1, 1)) == 1 and (1, 1) not in W
    assert succ_table(last, W)[W.index((0, 1))][1] is None
    got = [tuple(_json_sha256(m) for m in ms) for ms in machines]
    assert got == POOL_JSON_SHA256
