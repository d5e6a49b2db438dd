"""Two-sample tests and the compatibility graph."""

import hashlib
import itertools
import os
import subprocess
import sys
from fractions import Fraction
from math import comb
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats
from scipy.special import chdtrc

import minpfsa
from minpfsa import (
    BINARY,
    TESTS,
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
    stat_tests,
)
from tests.conftest import make_instances


def random_window_counts(count, seed):
    """Window counts of random sequences over 2 to 10 symbols at L 0 to 2.
    Over 8 or more symbols many history pairs keep 8 or more columns."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        k = int(rng.integers(2, 11))
        bias = rng.dirichlet(np.ones(k) * float(rng.choice([0.3, 1.0, 5.0])))
        toks = rng.choice(k, size=int(rng.integers(3, 300)), p=bias)
        alphabet = Alphabet(tuple(str(i) for i in range(k)))
        out.append(count_windows(from_tokens(toks, alphabet), int(rng.integers(0, 3))))
    return out


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


def numpy_chi2_family(counts_a, counts_b, freeman_tukey):
    """The Pearson or Freeman-Tukey p-value computed with whole-array numpy
    operations: the reference that the plain-float kernel must match bit
    for bit."""
    a = np.asarray(counts_a, dtype=float)
    b = np.asarray(counts_b, dtype=float)
    keep = (a + b) > 0
    a, b = a[keep], b[keep]
    if len(a) < 2 or np.allclose(a / a.sum(), b / b.sum(), rtol=0.0, atol=1e-12):
        return 1.0
    table = np.array([a, b])
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    if freeman_tukey:
        cells = 4.0 * (np.sqrt(table) - np.sqrt(expected)) ** 2
    else:
        cells = (table - expected) ** 2 / expected
    return float(chdtrc(len(a) - 1, (cells[0] + cells[1]).sum()))


def test_chi2_family_matches_numpy_formula():
    # numpy sums 8 or more terms in eight partial sums, so tables with 8+
    # kept columns pin that order; whole counts keep every total exact
    rng = np.random.default_rng(8)
    proportional = wide = 0
    for _ in range(1500):
        k = int(rng.integers(1, 11))
        top = int(10 ** rng.uniform(0, 6))
        ca = rng.integers(0, top + 1, size=k)
        cb = rng.integers(0, top + 1, size=k)
        gone = rng.random(k) < 0.15  # columns with no count in either sample
        ca[gone] = cb[gone] = 0
        if rng.random() < 0.1:
            cb = ca * int(rng.integers(1, 4))
        if ca.sum() == 0 or cb.sum() == 0:
            continue
        wide += ((ca + cb) > 0).sum() >= 8
        for test, freeman_tukey in ((chi2_pvalue, False), (ft_pvalue, True)):
            for x, y in ((ca, cb), (cb, ca)):
                expect = numpy_chi2_family(x, y, freeman_tukey)
                assert test(x, y) == expect, (test.__name__, x, y)
                assert test(x.tolist(), tuple(y)) == expect
        if np.array_equal(cb * ca.sum(), ca * cb.sum()):
            proportional += 1
            assert chi2_pvalue(ca, cb) == ft_pvalue(ca, cb) == 1.0
    assert proportional >= 50 and wide >= 100, (proportional, wide)


@pytest.mark.parametrize("test", [chi2_pvalue, ft_pvalue, ks_pvalue])
def test_negative_count_rejected(test):
    with pytest.raises(ValueError, match="non-negative"):
        test((-1, 5), (3, 3))


@pytest.mark.parametrize("test", [chi2_pvalue, ft_pvalue, ks_pvalue])
def test_nan_count_rejected(test):
    # a NaN column is not a zero column to be dropped
    with pytest.raises(ValueError, match="finite"):
        test((np.nan, 5), (0, 3))


@pytest.mark.parametrize("test", [chi2_pvalue, ft_pvalue, ks_pvalue])
def test_infinite_count_rejected(test):
    with pytest.raises(ValueError, match="finite"):
        test((4, 5), (3, np.inf))


def test_unequal_lengths_rejected():
    with pytest.raises(ValueError):
        chi2_pvalue((1, 2, 3), (1, 2))
    with pytest.raises(ValueError):
        ft_pvalue([[1, 2]], [[3, 4]])


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


def run_fresh(code, *args):
    """Standard output of code run in a new interpreter that imports the
    package from this checkout."""
    src = os.path.dirname(os.path.dirname(minpfsa.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout


def test_import_loads_no_scipy_and_bench_loads_it_before_forking():
    # the forked children must not pay the scipy.special import in their timers
    code = (
        "import sys, minpfsa, minpfsa.cli\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('scipy', 'multiprocessing')))\n"
        "rows = minpfsa.run_bench(minpfsa.BenchConfig(\n"
        "    methods=('cssr',), alphabets=(2,), lengths=(100,), reps=1))\n"
        "print([r['flag'] for r in rows])\n"
        "print('scipy.special' in sys.modules)\n"
    )
    assert run_fresh(code).split("\n") == ["[]", "['ok']", "True", ""]


FIRST_CALLS = {
    "ft": "ft_pvalue((9, 3, 0, 5), (4, 6, 2, 5))",
    "chi2": "chi2_pvalue((9, 3, 0, 5), (4, 6, 2, 5))",
    "ks": "ks_pvalue((9, 3, 0, 5), (4, 6, 2, 5))",
    "graph": "compatibility_graph(count_windows(gen_fixture(), 2)).pvalues",
}


@pytest.mark.parametrize("first", sorted(FIRST_CALLS))
def test_first_pvalue_of_a_fresh_process_is_bit_identical(first):
    # the first call goes through the stand-in that loads scipy.special
    code = (
        "import sys, numpy as np, minpfsa\n"
        "assert 'scipy.special' not in sys.modules\n"
        "for expr in sys.argv[1:]:\n"
        "    print(' '.join(float(v).hex() for v in np.ravel(eval(expr, vars(minpfsa)))))\n"
    )
    exprs = [FIRST_CALLS[first]] + [e for k, e in sorted(FIRST_CALLS.items()) if k != first]
    fresh = run_fresh(code, *exprs).splitlines()
    here = [" ".join(float(v).hex() for v in np.ravel(eval(e, vars(minpfsa)))) for e in exprs]
    assert fresh == here


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
        graphs = [compatibility_graph(wc, TestConfig(alpha=a)) for a in alphas]
        for g in graphs:
            n = len(g.vertices)
            # in row-major order, as Python ints
            assert g.edges() == [(i, l) for i in range(n) for l in range(i + 1, n) if g.mu[i, l]]
            assert all(type(v) is int for edge in g.edges() for v in edge)
        edge_sets = [set(g.edges()) for g in graphs]
        for tighter, looser in zip(edge_sets[1:], edge_sets[:-1]):
            assert tighter <= looser


# test: (pvalues, mu) over the fixture and make_instances(8, seed=9), as the
# numpy formula computed them
GRAPH_SHA256 = {
    "freeman-tukey": (
        "68c7194be2529597a41f8cec3dc19df9f71b91e28825e3fa2c5905bf95fe3fde",
        "09e8e44c6ef06f87d0eb8176302520b4a819248203e14197c56e5b3c0c8de038"),
    "chi2": (
        "f03ecc327923a2d972dcc6e874dc26a1dd7bf711eff34881c898fb86f053ae93",
        "381c9342e7ff755cfb7c10acda39f9660dbcfe540bfc327cdf8cf297ff4b2af3"),
    "ks": (
        "068a974880eaa000a05bed9f8947b15b2af5e913604963bd083cefb3d797da3f",
        "b486a1751eb89a91ad4ba5389e9a28c40258983c4c7565be92093da5dcaffa88"),
}


@pytest.mark.parametrize("test", TESTS)
def test_graph_bytes(fixture_wc, test):
    wcs = [fixture_wc] + [wc for wc, _, _ in make_instances(8, seed=9)]
    pvalues, mu = hashlib.sha256(), hashlib.sha256()
    for wc in wcs:
        graph = compatibility_graph(wc, TestConfig(test=test))
        pvalues.update(graph.pvalues.tobytes())
        mu.update(graph.mu.tobytes())
    assert (pvalues.hexdigest(), mu.hexdigest()) == GRAPH_SHA256[test]


@pytest.mark.parametrize("test", ["freeman-tukey", "chi2"])
def test_graph_pvalues_match_pairwise_tests(test):
    # the graph tests all pairs at once over arrays; each p-value must be
    # the bytes of the per-comparison test on the two histories' counts
    scalar = ft_pvalue if test == "freeman-tukey" else chi2_pvalue
    wide = 0
    for wc in random_window_counts(200, seed=17):
        graph = compatibility_graph(wc, TestConfig(test=test))
        ext = [wc.extension_counts(v) for v in graph.vertices]
        expect = np.ones((len(ext), len(ext)))
        for i, l in itertools.combinations(range(len(ext)), 2):
            expect[i, l] = expect[l, i] = scalar(ext[i], ext[l])
            wide += ((ext[i] + ext[l]) > 0).sum() >= 8
        assert graph.pvalues.tobytes() == expect.tobytes()
    assert wide >= 100, wide


@pytest.mark.parametrize("test", TESTS)
def test_graph_of_one_or_no_history(test):
    cfg = TestConfig(test=test)
    one = compatibility_graph(count_windows(from_tokens([0, 0, 0, 0], BINARY), 1), cfg)
    assert one.vertices == ((0,),)
    assert one.pvalues.tolist() == [[1.0]] and one.mu.tolist() == [[True]]
    # count_windows always sees one extendable history; a bare history table
    # with no history of length L gives the empty graph
    none = compatibility_graph(SimpleNamespace(L=1, counts={(): 0}, alphabet=BINARY, W=(),
                                               ext=np.zeros((0, 2), dtype=np.int64)), cfg)
    assert none.vertices == () and none.edges() == []
    assert none.pvalues.shape == none.mu.shape == (0, 0)


@pytest.mark.parametrize("block", [1, 7])
def test_graph_bytes_independent_of_pair_block(monkeypatch, block):
    wcs = random_window_counts(60, seed=23)

    def graph_bytes():
        # ks, an exact test, takes seconds over all 60, so it takes the first 20
        return [(g.pvalues.tobytes(), g.mu.tobytes())
                for g in (compatibility_graph(wc, TestConfig(test=t))
                          for t in TESTS for wc in (wcs[:20] if t == "ks" else wcs))]

    default = graph_bytes()
    monkeypatch.setattr(stat_tests, "_PAIR_BLOCK", block)
    assert graph_bytes() == default
