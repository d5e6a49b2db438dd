"""Two-sample tests and the compatibility graph."""

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import minpfsa
from minpfsa import (
    BINARY,
    Alphabet,
    DegenerateSampleError,
    TestConfig,
    chi2_pvalue,
    compatibility_graph,
    count_windows,
    from_tokens,
    ft_pvalue,
    ks_pvalue,
    pvalue,
)


def perm_pvalue(counts_a, counts_b, statistic, shuffles, rng):
    """Monte-Carlo permutation oracle with the mid-p tie convention:
    permutations tying the observed statistic contribute half weight."""
    ca = np.asarray(counts_a, dtype=np.int64)
    cb = np.asarray(counts_b, dtype=np.int64)
    keep = (ca + cb) > 0
    ca, cb = ca[keep], cb[keep]
    k = len(ca)
    na = int(ca.sum())
    tot = ca + cb
    t_obs = statistic(ca[None, :].astype(float), tot)
    pooled = np.repeat(np.arange(k), tot)
    perms = rng.permuted(np.tile(pooled, (shuffles, 1)), axis=1)[:, :na]
    rows_a = (perms[:, :, None] == np.arange(k)).sum(axis=1).astype(float)
    t = statistic(rows_a, tot)
    eps = 1e-9
    return float(((t > t_obs + eps).sum() + 0.5 * (np.abs(t - t_obs) <= eps).sum())
                 / shuffles)


def pearson_statistic(rows_a, tot):
    """Pearson statistic for 2 x k tables sharing fixed margins."""
    na = rows_a[0].sum() if rows_a.ndim > 1 else rows_a.sum()
    n = tot.sum()
    ea = tot * na / n
    eb = tot * (n - na) / n
    rows_b = tot - rows_a
    return ((rows_a - ea) ** 2 / ea).sum(axis=-1) + ((rows_b - eb) ** 2 / eb).sum(axis=-1)


def ks_statistic(rows_a, tot):
    na = rows_a[0].sum() if rows_a.ndim > 1 else rows_a.sum()
    nb = tot.sum() - na
    rows_b = tot - rows_a
    gap = np.cumsum(rows_a / na, axis=-1) - np.cumsum(rows_b / nb, axis=-1)
    return np.abs(gap).max(axis=-1)


def exhaustive_ks_midp(counts_a, counts_b):
    """Exact mid-p of the two-sample KS statistic by enumerating every
    2 x k table with the observed margins, in rational arithmetic."""
    cols = [(x, y) for x, y in zip(counts_a, counts_b) if x + y > 0]
    na = sum(x for x, _ in cols)
    nb = sum(y for _, y in cols)
    tot = [x + y for x, y in cols]

    def stat(row_a):
        cum_a = cum_b = 0
        best = Fraction(0)
        for x, t in zip(row_a, tot):
            cum_a, cum_b = cum_a + x, cum_b + t - x
            best = max(best, abs(Fraction(cum_a, na) - Fraction(cum_b, nb)))
        return best

    d_obs = stat([x for x, _ in cols])
    above = tied = 0
    for row_a in itertools.product(*(range(t + 1) for t in tot)):
        if sum(row_a) != na:
            continue
        weight = 1
        for x, t in zip(row_a, tot):
            weight *= comb(t, x)
        d = stat(row_a)
        if d > d_obs:
            above += weight
        elif d == d_obs:
            tied += weight
    return Fraction(2 * above + tied, 2 * comb(na + nb, na))


# ---------------------------------------------------------------------------
# direct values


def test_identical_proportions_give_one():
    assert chi2_pvalue((10, 10), (3, 3)) == 1.0
    assert ft_pvalue((10, 10), (3, 3)) == 1.0
    assert ks_pvalue((10, 10), (3, 3)) == 1.0


def test_chi2_matches_contingency_reference():
    rng = np.random.default_rng(5)
    for _ in range(30):
        ca = rng.integers(0, 20, size=3)
        cb = rng.integers(0, 20, size=3)
        if ca.sum() == 0 or cb.sum() == 0 or ((ca + cb) > 0).sum() < 2:
            continue
        table = np.stack([ca, cb])
        table = table[:, table.sum(axis=0) > 0]
        expect = stats.chi2_contingency(table, correction=False).pvalue
        assert abs(chi2_pvalue(ca, cb) - expect) < 1e-12


def test_ft_statistic_hand_computed():
    ca, cb = np.array([8.0, 2.0]), np.array([3.0, 7.0])
    tot = ca + cb
    stat = 0.0
    for row, n_row in ((ca, ca.sum()), (cb, cb.sum())):
        expected = tot * n_row / tot.sum()
        stat += (4 * (np.sqrt(row) - np.sqrt(expected)) ** 2).sum()
    expect = float(stats.chi2.sf(stat, df=1))
    assert abs(ft_pvalue((8, 2), (3, 7)) - expect) < 1e-12


def test_ks_maximal_separation():
    assert abs(ks_pvalue((100, 0), (0, 100))) < 1e-6


def test_ks_permutation_cross_check():
    p_asym = ks_pvalue((50, 50), (55, 45))
    rng = np.random.default_rng(99)
    p_perm = perm_pvalue((50, 50), (55, 45), ks_statistic, 10000, rng)
    assert abs(p_asym - p_perm) < 0.05, (p_asym, p_perm)


@pytest.mark.parametrize("k", [2, 3])
def test_ks_matches_exhaustive_enumeration(k):
    # the only error left is float64 rounding of the log-factorial weights
    rng = np.random.default_rng(40 + k)
    checked = 0
    while checked < 60:
        ca = [int(v) for v in rng.integers(0, 8, size=k)]
        cb = [int(v) for v in rng.integers(0, 8, size=k)]
        if sum(ca) == 0 or sum(cb) == 0:
            continue
        if all(x * sum(cb) == y * sum(ca) for x, y in zip(ca, cb)):
            continue  # identical proportions give 1.0 by contract
        got = ks_pvalue(ca, cb)
        expect = float(exhaustive_ks_midp(ca, cb))
        assert abs(got - expect) < 1e-12, (ca, cb, got, expect)
        checked += 1


def test_ks_needs_integer_counts():
    with pytest.raises(ValueError):
        ks_pvalue((1.5, 2), (1, 2))


def test_import_does_not_load_scipy_stats():
    # scipy.stats roughly doubles the import time of the package
    src = os.path.dirname(os.path.dirname(minpfsa.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, minpfsa; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_degenerate_sample():
    with pytest.raises(DegenerateSampleError):
        chi2_pvalue((0, 0), (1, 2))
    with pytest.raises(DegenerateSampleError):
        ks_pvalue((1, 2), (0, 0))


def test_zero_combined_column_dropped():
    assert chi2_pvalue((5, 0, 5), (7, 0, 3)) == chi2_pvalue((5, 5), (7, 3))


def test_pvalue_dispatch():
    ca, cb = (8, 2), (3, 7)
    assert pvalue(ca, cb, TestConfig(test="chi2")) == chi2_pvalue(ca, cb)
    assert pvalue(ca, cb, TestConfig(test="ks")) == ks_pvalue(ca, cb)
    assert pvalue(ca, cb, TestConfig()) == ft_pvalue(ca, cb)


def test_config_validation():
    with pytest.raises(ValueError):
        TestConfig(test="anova")
    with pytest.raises(ValueError):
        TestConfig(alpha=0.0)
    with pytest.raises(ValueError):
        TestConfig(alpha=1.0)


# ---------------------------------------------------------------------------
# permutation agreement


def test_chi2_agrees_with_permutation_on_small_tables():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(40):
        n_a = int(rng.integers(45, 51))
        n_b = int(rng.integers(45, 51))
        probs = rng.dirichlet(np.ones(4) * 6.0)
        ca = rng.multinomial(n_a, probs)
        cb = rng.multinomial(n_b, probs)
        p_asym = chi2_pvalue(ca, cb)
        p_perm = perm_pvalue(ca, cb, pearson_statistic, 4000, rng)
        worst = max(worst, abs(p_asym - p_perm))
    assert worst < 0.05, worst


# ---------------------------------------------------------------------------
# symmetry as a property


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 30), min_size=2, max_size=5),
    st.lists(st.integers(0, 30), min_size=2, max_size=5),
    st.sampled_from(["chi2", "freeman-tukey", "ks"]),
)
def test_pvalue_symmetric_in_samples(ca, cb, test):
    n = min(len(ca), len(cb))
    ca, cb = tuple(ca[:n]), tuple(cb[:n])
    if sum(ca) == 0 or sum(cb) == 0:
        return
    cfg = TestConfig(test=test)
    assert pvalue(ca, cb, cfg) == pvalue(cb, ca, cfg)


# ---------------------------------------------------------------------------
# compatibility graph


def test_fixture_graph_edges(fixture_graph):
    labels = [BINARY.render(h) for h in fixture_graph.vertices]
    assert labels == ["00", "01", "11", "10"]
    got = {(labels[i], labels[j]) for i, j in fixture_graph.edges()}
    assert got == {("00", "10"), ("11", "10")}


def test_fixture_graph_reflexive_symmetric(fixture_graph):
    mu = fixture_graph.mu
    assert mu.diagonal().all()
    assert np.array_equal(mu, mu.T)


def test_high_alpha_isolates_everything(fixture_wc):
    g = compatibility_graph(fixture_wc, TestConfig(alpha=0.9999))
    assert g.edges() == []


def test_low_alpha_connects_everything(fixture_wc):
    g = compatibility_graph(fixture_wc, TestConfig(alpha=1e-9))
    n = len(g.vertices)
    assert len(g.edges()) == n * (n - 1) // 2


def test_edges_monotone_in_alpha():
    rng = np.random.default_rng(7)
    alphabet = Alphabet(("0", "1"))
    for _ in range(10):
        toks = rng.choice(2, size=80, p=(0.7, 0.3))
        wc = count_windows(from_tokens(toks, alphabet), 2)
        alphas = (0.001, 0.05, 0.5)
        edge_sets = [set(compatibility_graph(wc, TestConfig(alpha=a)).edges())
                     for a in alphas]
        for tighter, looser in zip(edge_sets[1:], edge_sets[:-1]):
            assert tighter <= looser
