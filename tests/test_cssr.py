"""The splitting-and-reconstruction heuristic."""

import numpy as np
import pytest

from minpfsa import (
    BINARY,
    Alphabet,
    TestConfig,
    WindowCounts,
    check_determinism,
    count_windows,
    cssr,
    cssr_reconstruct,
    cssr_split,
    from_text,
    from_tokens,
    gen_fixture,
    histories,
)
from minpfsa.cli import infer
from minpfsa.oracles import brute_force_min_states
from tests.conftest import make_instances


def render_blocks(partition):
    return sorted(tuple(BINARY.render(h) for h in b) for b in partition.blocks())


def test_split_reproduces_walkthrough(fixture_wc):
    part = cssr_split(fixture_wc)
    assert render_blocks(part) == [("00",), ("01",), ("11", "10")]


def test_split_trace_levels(fixture_wc):
    seq = gen_fixture()
    levels = [cssr_split(count_windows(seq, level)) for level in range(3)]
    assert levels[0].blocks() == [((),)]
    assert levels[-1] == cssr_split(fixture_wc)


def test_split_levels_match_shorter_counts():
    # the clustering of length l < L is that of the sequence counted at l:
    # the same histories, in the same order, with the same counts
    rng = np.random.default_rng(31)
    for _ in range(40):
        k, L = int(rng.integers(2, 4)), int(rng.integers(0, 4))
        toks = rng.integers(k, size=int(rng.integers(L + 1, 150)))
        seq = from_tokens(toks, Alphabet(tuple(str(i) for i in range(k))))
        wc = count_windows(seq, L)
        for level in range(L + 1):
            short = count_windows(seq, level)
            part = cssr_split(short)
            assert part.W == tuple(histories(wc, level))
            for h in part.W:
                assert np.array_equal(short.extension_counts(h), wc.extension_counts(h))
        assert part == cssr_split(wc)


def test_split_reads_each_history_counts_once(monkeypatch, fixture_wc):
    # count_windows derives each history's continuation counts and
    # successors once; no route reads them again through the count table
    toks = np.random.default_rng(3).integers(4, size=20000)
    wc = count_windows(from_tokens(toks, Alphabet(("a", "b", "c", "d"))), 3)
    assert len(wc.W) == 64
    calls = []
    extension_counts = WindowCounts.extension_counts

    def counted(self, history):
        calls.append(history)
        return extension_counts(self, history)

    monkeypatch.setattr(WindowCounts, "extension_counts", counted)
    infer(wc, "cssr", TestConfig())
    for method in ("cssr", "ip", "clique"):
        infer(fixture_wc, method, TestConfig())
    assert calls == []


def test_reconstruct_splits_inconsistent_state(fixture_wc):
    part = cssr_split(fixture_wc)
    out = cssr_reconstruct(part, fixture_wc)
    assert out.num_states == 4


def test_full_cssr_four_states(fixture_wc):
    m = cssr(fixture_wc)
    assert m.num_states == 4
    assert all(len(b) == 1 for b in m.states)


def test_uniform_noise_collapses_to_one_state():
    rng = np.random.default_rng(42)
    toks = rng.integers(0, 2, size=5000)
    wc = count_windows(from_tokens(toks, BINARY), 2)
    assert cssr(wc).num_states == 1


def test_high_alpha_keeps_every_history_separate(fixture_wc):
    m = cssr(fixture_wc, TestConfig(alpha=0.9999))
    assert m.num_states == 4
    assert all(len(b) == 1 for b in m.states)


def test_alternating_sequence_two_states():
    wc = count_windows(from_text("01" * 500), 2)
    assert cssr(wc).num_states == 2


def test_constant_sequence_one_state():
    wc = count_windows(from_text("0" * 1000), 2)
    assert cssr(wc).num_states == 1


def test_output_always_deterministic():
    for wc, _, _ in make_instances(30, seed=9):
        assert check_determinism(cssr(wc)) == []


def test_exact_bounds_heuristic_when_feasible():
    # The heuristic admits a history into a state by testing it against the
    # pooled state distribution, so a state can end up containing a
    # pairwise-incompatible pair. When that happens its partition is not
    # feasible for the exact search and can undercut the optimum. Whenever
    # every state is a clique of the compatibility graph, the partition is
    # feasible and the exact optimum must be a lower bound.
    undercuts = 0
    for wc, graph, succ in make_instances(30, seed=10):
        machine = cssr(wc)
        exact = brute_force_min_states(graph, succ, deterministic=True)
        index = {tuple(h): i for i, h in enumerate(graph.vertices)}
        feasible = all(
            graph.mu[index[a], index[b]]
            for block in machine.states
            for i, a in enumerate(block)
            for b in block[i + 1:]
        )
        if feasible:
            assert machine.num_states >= exact
        elif machine.num_states < exact:
            undercuts += 1
    assert undercuts > 0, "expected the pooled-admission undercut to occur here"


def test_rerun_is_identical(fixture_wc):
    a = cssr(fixture_wc)
    b = cssr(fixture_wc)
    assert a.states == b.states
    assert a.delta == b.delta
    assert a.probs == b.probs


def test_every_history_in_exactly_one_state(fixture_wc):
    m = cssr(fixture_wc)
    seen = [h for block in m.states for h in block]
    assert sorted(seen) == sorted([(0, 0), (0, 1), (1, 0), (1, 1)])
