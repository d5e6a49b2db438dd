"""Machine construction, determinism checks, sampling and export formats."""

import hashlib
import json
import tracemalloc

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
    random_machine,
    sample,
    solve_msdpfsa,
    solve_msndpfsa,
    split_to_deterministic,
    succ_table,
    to_dot,
    to_json,
)
from minpfsa import machine as machine_module
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
    assert part.assign[part.W.index((0, 1))] == 1


def test_partition_requires_contiguous_states():
    with pytest.raises(ValueError):
        StatePartition(((0, 0), (0, 1)), (0, 2))
    with pytest.raises(ValueError, match="assign length"):
        StatePartition(((0, 0), (0, 1)), (0,))


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


def test_sample_rejects_non_positive_length():
    m = PFSA(BINARY, ((),), {(0, 0): frozenset([0])}, {(0, 0): 1.0})
    with pytest.raises(ValueError, match="positive"):
        sample(m, 0, seed=3)


def test_sample_dead_end():
    m = PFSA(BINARY, ((), ()), {(0, 0): frozenset([1])}, {(0, 0): 1.0})
    with pytest.raises(DeadEndError, match="^state 1 has no outgoing transitions after 1 symbols$"):
        sample(m, 10, seed=0)


def test_sample_dead_end_message_counts_symbols():
    # state 0 repeats 0 until a rare 1 leads to the dead state 1; with this
    # seed the first 1 comes after the first block of uniforms
    p1 = 1e-5
    m = PFSA(BINARY, ((), ()), {(0, 0): frozenset([0]), (0, 1): frozenset([1])},
             {(0, 0): 1 - p1, (0, 1): p1})
    u = np.random.default_rng(4).random(300000)
    t = int(np.argmax(u >= 1 - p1))
    assert machine_module._SAMPLE_BLOCK < t < 300000
    with pytest.raises(DeadEndError, match=r"^state 1 has no outgoing transitions "
                       r"after %d symbols$" % (t + 1)):
        sample(m, 300000, seed=4)


@pytest.mark.parametrize("bad", [-0.5, float("nan")])
def test_sample_rejects_bad_weights_before_walking(bad):
    # state 1 is never reached, yet its weights are checked
    m = PFSA(BINARY, ((), ()),
             {(0, 0): frozenset([0]), (1, 0): frozenset([0]), (1, 1): frozenset([1])},
             {(0, 0): 1.0, (1, 0): 0.5, (1, 1): bad})
    with pytest.raises(ValueError, match="state 1"):
        sample(m, 5, seed=0)


def test_sample_does_not_depend_on_block_size(monkeypatch, fixture_wc):
    m = build_machine(fixture_wc, optimal_partition(fixture_wc))
    whole = sample(m, 5000, seed=9).tokens
    monkeypatch.setattr(machine_module, "_SAMPLE_BLOCK", 7)
    assert np.array_equal(sample(m, 5000, seed=9).tokens, whole)


def test_sample_memory_is_bounded_by_the_block():
    # the int64 output plus one block of draws, never a Python list of n items
    m = PFSA(BINARY, ((),), {(0, 0): frozenset([0]), (0, 1): frozenset([0])},
             {(0, 0): 0.5, (0, 1): 0.5})
    n = 400000
    tracemalloc.start()
    try:
        out = sample(m, n, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) == n
    assert peak < out.tokens.nbytes + 4 * 2**20


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
    got = cond_dist(wc2, (0, 1))
    assert np.allclose(got, (0.5789, 0.4211), atol=0.03)


def _hand_machines():
    """Sources that cssr does not build: edges with several targets, a
    one-symbol state, unnormalized weights and a zero weight."""
    abc = Alphabet(("a", "b", "c"))
    three = PFSA(
        abc, ((), (), ()),
        {(0, 0): frozenset([2, 1]), (0, 2): frozenset([0]), (1, 1): frozenset([2]),
         (2, 0): frozenset([1]), (2, 1): frozenset([0]), (2, 2): frozenset([0, 2])},
        {(0, 0): 2.0, (0, 2): 0.5, (1, 1): 1.0, (2, 0): 0.3, (2, 1): 0.0, (2, 2): 0.9},
        start_state=2,
    )
    skewed = PFSA(
        BINARY, ((), ()),
        {(0, 0): frozenset([1, 0]), (0, 1): frozenset([1]),
         (1, 0): frozenset([0, 1]), (1, 1): frozenset([1])},
        {(0, 0): 1e-3, (0, 1): 7.0, (1, 0): 0.1, (1, 1): 0.1},
        start_state=1,
    )
    rng = np.random.default_rng(2024)
    delta, probs = {}, {}
    for j in range(4):
        width = 1 if j == 3 else int(rng.integers(2, 6))
        syms = [0] if j == 3 else sorted(rng.choice(5, size=width, replace=False).tolist())
        for a in syms:
            targets = rng.choice(4, size=int(rng.integers(1, 4)), replace=False)
            delta[(j, a)] = frozenset(targets.tolist())
            probs[(j, a)] = float(rng.uniform(0.1, 5.0))
    five = PFSA(Alphabet(tuple("vwxyz")), ((),) * 4, delta, probs)
    return [three, skewed, five]


def _sample_pool_machines():
    """cssr machines of the fixture and of make_instances(8, seed=9), three
    bench.random_machine sources and the hand-built machines."""
    wcs = [count_windows(gen_fixture(), 2)] + [wc for wc, _, _ in make_instances(8, seed=9)]
    machines = [cssr(wc) for wc in wcs]
    for s, n_states, k in ((1, 3, 2), (2, 5, 4), (3, 8, 3)):
        alphabet = Alphabet(tuple(str(i) for i in range(k)))
        machines.append(random_machine(np.random.default_rng(s), n_states, alphabet))
    return machines + _hand_machines()


def _sample_sha256(machine):
    """One digest over the samples of every (seed, length) pair."""
    h = hashlib.sha256()
    for seed in (0, 7, [3, 1]):
        for n in (1, 2000, 150000):
            h.update(sample(machine, n, seed).tokens.astype("<i8").tobytes())
    return h.hexdigest()


SAMPLE_SHA256 = [  # per machine of _sample_pool_machines, from the per-step choice sampler
    "de53c0482f62bcf1d1d81595580e664ae91d7e18c1293e35b2be41f81739d93a",
    "02903fedb63a3d823ce90d25a422642541036eb8898ed358b8d14652c4dfb4df",
    "504ee6d2e71dceaa17785922d43f346a494521259f58047a1545f68ae251aa4d",
    "17feb5a7d3d4502e296d7e8830304cff2097d24d4d3bb15690fbbc6713768cf1",
    "a762e64e3c830b530511f09f47e0ed48c68a0ef75441de37910ee6fd254523a9",
    "25b7f6bc92f828fbc8b5f3b8e512c234093ffe3c3c143178e3611aeaeb8550d0",
    "428244a09d8cba35f538db138e36b98e52d466f321514d7ac18fc4cede12c211",
    "af52d51b10b726257f1ae18229a25827ed65a63d83c889ad1a6dc37f8eaf43ec",
    "419c83fdd34d51e0caaf285f01385f5591efc742b6c02b9f5b297910893f9e8f",
    "2feeebaaa65d7dd7dbcce7e8a60a178b41e9e6907a92ee227172475599f298db",
    "293be8f96df820c5ececa5aefcf836c1a917e54f98b03e60d9e781d5760e9d5e",
    "8117333865bd0bb5eafd4941f80912481f00019b1497465b830c2889eec3efee",
    "15d3a8b2eab9c736f8e32ae82948215efb1ef7108d0c38a85f728d3dd6860f37",
    "0bcff79c9f75f717210dce056a09c09856a53b701e33880c45d0d91a7327fffc",
    "544c8a3cdbfed3ffb6c36ff53b73816ed4f8bf3caf3dec5139d3d3444c1fb82a",
]


def test_sample_bytes_pool():
    machines = _sample_pool_machines()
    assert any(len(targets) > 1 for m in machines for targets in m.delta.values())
    assert [_sample_sha256(m) for m in machines] == SAMPLE_SHA256


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
    with pytest.raises(FormatError, match="not valid JSON"):
        from_json('{"alphabet": ["0", "1"],')


def test_from_json_rejects_unknown_symbol(fixture_wc):
    m = build_machine(fixture_wc, optimal_partition(fixture_wc))
    obj = json.loads(to_json(m))
    obj["transitions"][0]["symbol"] = "7"
    with pytest.raises(FormatError):
        from_json(json.dumps(obj))


def test_from_json_reads_start_state():
    m = PFSA(
        BINARY, ((), (), (), ()),
        {(j, a): frozenset([(j + a + 1) % 4]) for j in range(4) for a in range(2)},
        {(j, a): 0.5 for j in range(4) for a in range(2)},
        start_state=3,
    )
    obj = json.loads(to_json(m))
    assert "start" not in obj
    assert from_json(json.dumps(obj)).start_state == 0
    obj["start"] = 4
    again = from_json(json.dumps(obj))
    assert again.start_state == 3
    assert again == m


@pytest.mark.parametrize("start", [0, 5, "1", None])
def test_from_json_rejects_unknown_start(start):
    m = PFSA(BINARY, ((), ()), {(0, 0): frozenset([1])}, {(0, 0): 1.0})
    obj = json.loads(to_json(m))
    obj["start"] = start
    with pytest.raises(FormatError, match="start"):
        from_json(json.dumps(obj))


@pytest.mark.parametrize("prob", ["0.5", None, True])
def test_from_json_rejects_non_number_prob(prob):
    m = PFSA(BINARY, ((), ()), {(0, 0): frozenset([1])}, {(0, 0): 1.0})
    obj = json.loads(to_json(m))
    obj["transitions"][0]["prob"] = prob
    with pytest.raises(FormatError, match="prob is not a number"):
        from_json(json.dumps(obj))


@pytest.mark.parametrize("prob", [float("nan"), -0.5, -1e-300, 1.0000001, 7, float("inf")])
def test_from_json_rejects_prob_outside_unit_interval(prob):
    m = PFSA(BINARY, ((), ()), {(0, 0): frozenset([1])}, {(0, 0): 1.0})
    obj = json.loads(to_json(m))
    obj["transitions"][0]["prob"] = prob
    with pytest.raises(FormatError, match="prob is not in"):
        from_json(json.dumps(obj))


@pytest.mark.parametrize("prob", [0, 0.0, 1, 1.0])
def test_from_json_accepts_unit_interval_ends(prob):
    m = PFSA(BINARY, ((), ()), {(0, 0): frozenset([1])}, {(0, 0): 1.0})
    obj = json.loads(to_json(m))
    obj["transitions"][0]["prob"] = prob
    assert from_json(json.dumps(obj)).probs[(0, 0)] == prob


@pytest.mark.parametrize("alphabet", [["0", "0"], [0, 1], ["0", 1], "01", None])
def test_from_json_rejects_bad_alphabet(alphabet):
    m = PFSA(BINARY, ((), ()), {(0, 0): frozenset([1])}, {(0, 0): 1.0})
    obj = json.loads(to_json(m))
    obj["alphabet"] = alphabet
    with pytest.raises(FormatError, match="alphabet"):
        from_json(json.dumps(obj))


def test_from_json_rejects_over_nested_input():
    # the decoder recurses once per nesting level, past Python's limit here
    for text in ("[" * 100000, '{"alphabet": %s}' % ("[" * 100000 + "]" * 100000)):
        with pytest.raises(FormatError, match="^not valid JSON: maximum recursion depth"):
            from_json(text)


def test_from_json_rejects_duplicate_state_id():
    m = PFSA(BINARY, ((), ()), {(0, 0): frozenset([1])}, {(0, 0): 1.0})
    obj = json.loads(to_json(m))
    obj["states"][1]["id"] = obj["states"][0]["id"]
    with pytest.raises(FormatError, match="duplicate state id"):
        from_json(json.dumps(obj))


def test_from_json_rejects_conflicting_probs():
    m = PFSA(BINARY, ((), ()), {(0, 0): frozenset([0, 1])}, {(0, 0): 1.0})
    obj = json.loads(to_json(m))
    assert len(obj["transitions"]) == 2
    obj["transitions"][1]["prob"] = 0.5
    with pytest.raises(FormatError, match="conflicting probabilities for state 1 symbol 0"):
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


def test_dot_escapes_quotes_and_backslashes():
    alphabet = Alphabet(('a"b', "c\\"))
    m = PFSA(alphabet, (((0,), (1,)), ((1, 0),)),
             {(0, 0): frozenset([1]), (1, 1): frozenset([0])}, {(0, 0): 1.0, (1, 1): 1.0})
    dot = to_dot(m)
    assert '  q1 [label="q1\\n{a\\"b,c\\\\}"];' in dot
    assert '  q1 -> q2 [label="a\\"b/1.0000"];' in dot
    assert '  q2 -> q1 [label="c\\\\/1.0000"];' in dot


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


def _json_reference(machine):
    """The machine JSON as json.dumps lays it out, the layout that
    to_json writes from templates."""
    obj = {
        "alphabet": [str(t) for t in machine.alphabet.symbols],
        "states": [
            {"id": j + 1, "histories": [machine.alphabet.render(h) for h in block]}
            for j, block in enumerate(machine.states)
        ],
        "transitions": [
            {"from": j + 1, "symbol": str(machine.alphabet.symbols[a]), "to": k + 1,
             "prob": machine.probs[(j, a)]}
            for (j, a) in sorted(machine.delta)
            for k in sorted(machine.delta[(j, a)])
        ],
    }
    return json.dumps(obj, indent=2) + "\n"


def _two_state(alphabet, probs):
    """States {h0} and {h1, h0 h1}; symbol 0 from state 1 goes to both
    states, symbol 1 from state 2 goes back to state 1."""
    return PFSA(alphabet, (((0,),), ((1,), (0, 1))),
                {(0, 0): frozenset([0, 1]), (1, 1): frozenset([0])},
                dict(zip([(0, 0), (1, 1)], probs)))


JSON_REFERENCE_CASES = {
    "non-ascii": _two_state(Alphabet(("é", "中", "\U0001f600")), [0.25, 0.75]),
    "lone surrogate": _two_state(Alphabet(("\ud800", "a")), [0.5, 1.0]),
    "nul": _two_state(Alphabet(("\x00", "b")), [1.0, 1.0]),
    "quotes and backslashes": _two_state(Alphabet(('a"b', "c\\", '\\"')), [0.1, 0.9]),
    "np.float64": _two_state(BINARY, [np.float64(1 / 3), np.float64(0.0)]),
    "nan": _two_state(BINARY, [float("nan"), 1e-300]),
    "no transitions": PFSA(BINARY, (((0,), (1,)),), {}, {}),
    "no histories": PFSA(BINARY, ((), ()), {(0, 1): frozenset([1])}, {(0, 1): 1.0}),
    "no states": PFSA(BINARY, (), {}, {}),
    "ints from from_json": from_json(json.dumps({
        "alphabet": ["0", "1"],
        "states": [{"id": 1, "histories": ["0"]}, {"id": 2, "histories": ["1"]}],
        "transitions": [{"from": 1, "symbol": "0", "to": 2, "prob": 1},
                        {"from": 2, "symbol": "1", "to": 1, "prob": 0}],
    })),
}


@pytest.mark.parametrize("name", sorted(JSON_REFERENCE_CASES))
def test_to_json_matches_json_dumps(name):
    machine = JSON_REFERENCE_CASES[name]
    assert to_json(machine) == _json_reference(machine)


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
    assert any(check_determinism(nd) for *_, nd in machines)
    # in 001001011 at L = 2, 01 -> 1 leads to 11, which has no state, so
    # that transition is dropped
    last = wcs[-1]
    W = histories(last)
    assert last.count((0, 1, 1)) == 1 and (1, 1) not in W
    assert succ_table(last, W)[W.index((0, 1))][1] is None
    got = [tuple(_json_sha256(m) for m in ms) for ms in machines]
    assert got == POOL_JSON_SHA256
