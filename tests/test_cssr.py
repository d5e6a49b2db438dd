"""The splitting-and-reconstruction heuristic."""

import numpy as np
import pytest

from minpfsa import (
    BINARY,
    Alphabet,
    TestConfig,
    WindowCounts,
    brute_force_min_states,
    check_determinism,
    count_windows,
    cssr,
    cssr_reconstruct,
    cssr_split,
    from_text,
    from_tokens,
    histories,
)
from tests.conftest import make_instances


def render_blocks(partition):
    return sorted(tuple(BINARY.render(h) for h in b) for b in partition.blocks())


def test_split_reproduces_walkthrough(fixture_wc):
    part = cssr_split(fixture_wc)
    assert render_blocks(part) == [("00",), ("01",), ("11", "10")]


def test_split_trace_levels(fixture_wc):
    part, trace = cssr_split(fixture_wc, return_trace=True)
    assert [level for level, _ in trace] == [0, 1, 2]
    level0 = trace[0][1]
    assert level0 == [((),)]


def test_split_without_trace_matches_trace_last_level():
    for wc, _, _ in make_instances(40, seed=31):
        part, trace = cssr_split(wc, return_trace=True)
        assert cssr_split(wc) == part
        assert [level for level, _ in trace] == list(range(wc.L + 1))
        assert part.W == tuple(histories(wc))
        assert part.blocks() == trace[-1][1]


def test_split_reads_each_history_counts_once(monkeypatch):
    toks = np.random.default_rng(3).integers(4, size=20000)
    wc = count_windows(from_tokens(toks, Alphabet(("a", "b", "c", "d"))), 3)
    n = len(histories(wc))
    assert n == 64
    calls = []
    extension_counts = WindowCounts.extension_counts

    def counted(self, history):
        calls.append(history)
        return extension_counts(self, history)

    monkeypatch.setattr(WindowCounts, "extension_counts", counted)
    cssr_split(wc)
    # once to list the extendable histories, once to cluster each
    assert len(calls) <= 2 * n


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
