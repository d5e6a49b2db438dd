"""Two-sample homogeneity tests on next-symbol count vectors and the
compatibility graph they induce.

Three tests are provided. All operate on the 2 x |A| contingency table of
the two count vectors and drop columns whose combined count is zero.

- ``chi2_pvalue``: Pearson's chi-squared without continuity correction,
  df = (kept columns) - 1.
- ``ft_pvalue``: the Freeman-Tukey statistic 4 * sum (sqrt(O) - sqrt(E))^2,
  referred to the same chi-squared distribution. It penalises outcomes that
  one sample never exhibits much harder than Pearson does, which is what
  distinguishing an impossible continuation from a merely rare one needs
  on short sequences. This is the package default.
- ``ks_pvalue``: two-sample Kolmogorov-Smirnov over the ordered categories,
  referred to the exact conditional (permutation) distribution of D over
  all 2 x k tables with the observed margins, with the mid-p tie
  convention P(D > d) + P(D = d) / 2. The asymptotic Kolmogorov
  distribution assumes continuous data and is wrong on a few tied
  categories at every sample size.

Identical normalized count vectors always give p = 1.0.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc, gammaln

from .errors import DegenerateSampleError
from .sequences import histories

TESTS = ("freeman-tukey", "chi2", "ks")


@dataclass(frozen=True)
class TestConfig:
    """Which two-sample test to use and the significance level.

    Two histories are compatible (can share a state) when the p-value of
    their comparison is strictly greater than alpha.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    test: str = "freeman-tukey"
    alpha: float = 0.05

    def __post_init__(self):
        if self.test not in TESTS:
            raise ValueError("unknown test %r, expected one of %r" % (self.test, TESTS))
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")


def _clean_table(counts_a, counts_b):
    a = np.asarray(counts_a, dtype=float)
    b = np.asarray(counts_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("count vectors must be 1-d and of equal length")
    if a.sum() == 0 or b.sum() == 0:
        raise DegenerateSampleError("a sample with zero total count has no distribution")
    keep = (a + b) > 0
    return a[keep], b[keep]


def _identical_proportions(a, b):
    return np.allclose(a / a.sum(), b / b.sum(), rtol=0.0, atol=1e-12)


def _chi2_family_pvalue(counts_a, counts_b, terms):
    """Upper-tail chi-squared p-value of the statistic summing
    terms(observed, expected) over the cells of the 2 x k table."""
    a, b = _clean_table(counts_a, counts_b)
    if len(a) < 2 or _identical_proportions(a, b):
        return 1.0
    table = np.array([a, b])
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    cells = terms(table, expected)
    # pair the two rows per column before summing so swapping the samples
    # gives a bitwise-identical statistic
    stat = (cells[0] + cells[1]).sum()
    return float(chdtrc(len(a) - 1, stat))


def chi2_pvalue(counts_a, counts_b):
    """Pearson chi-squared two-sample homogeneity test, no continuity
    correction. Returns the upper-tail p-value."""
    return _chi2_family_pvalue(counts_a, counts_b, lambda o, e: (o - e) ** 2 / e)


def ft_pvalue(counts_a, counts_b):
    """Freeman-Tukey two-sample homogeneity test on the same table and
    degrees of freedom as ``chi2_pvalue``."""
    return _chi2_family_pvalue(
        counts_a, counts_b, lambda o, e: 4.0 * (np.sqrt(o) - np.sqrt(e)) ** 2
    )


# hypergeometric states of the KS recursion with probability below this
# are never formed; see ks_pvalue for the bound on the error this causes
_KS_PRUNE = 1e-18
# largest transition block, in matrix entries, formed at once
_KS_BLOCK = 1 << 20


def ks_pvalue(counts_a, counts_b):
    """Exact conditional two-sample Kolmogorov-Smirnov test over the
    ordered categories, with the mid-p tie convention.

    D is the maximum gap between the two samples' cumulative proportions.
    Given the margins (the sample sizes n_a, n_b and the column totals),
    the tables are equally likely arrangements of the pooled symbols, so
    the cumulative a-count S_j through category j is a Markov chain with
    hypergeometric steps. A recursion over j carries the probability of
    every S_j whose gap |S_j / n_a - (T_j - S_j) / n_b| has stayed inside
    the band, and collects the mass that leaves it. Gaps are compared as
    exact integers (scaled by n_a * n_b), so ties are found exactly. The
    recursion carries two rows at once: the open band (gap < d) loses
    P(D >= d) and the closed band (gap <= d) loses P(D > d). The result is
    their mean, that is P(D > d) + P(D = d) / 2.

    States whose unconditional probability is below 1e-18 are never
    formed. Each of the two tail probabilities is therefore at most
    1e-18 * (k - 1) * (min(n_a, n_b) + 1) below its exact value, plus
    floating-point rounding of the log-factorial weights. The samples are
    put in a canonical order first, so swapping them gives a bitwise
    identical result. Identical proportions give exactly 1.0. Counts must
    be whole numbers.
    """
    a, b = _clean_table(counts_a, counts_b)
    if _identical_proportions(a, b):
        return 1.0
    if np.any(a != np.rint(a)) or np.any(b != np.rint(b)):
        raise ValueError("ks_pvalue needs integer counts")
    a, b = a.astype(np.int64), b.astype(np.int64)
    # smaller sample first: swapping the arguments then changes no
    # arithmetic, and the recursion has at most min(n_a, n_b) + 1 states
    if (int(b.sum()), b.tolist()) < (int(a.sum()), a.tolist()):
        a, b = b, a
    na, n = int(a.sum()), int(a.sum() + b.sum())
    cols = a + b
    cum = np.cumsum(cols)
    d = int(np.max(np.abs(np.cumsum(a) * n - cum * na)))
    logfact = gammaln(np.arange(n + 1) + 1.0)

    def log_comb(top, r):
        return logfact[top] - logfact[r] - logfact[top - r]

    # rows: paths whose gaps so far are all < d, and all <= d
    low, mass = 0, np.ones((2, 1))
    leaves = np.zeros(2)
    left = n  # pooled symbols not yet placed in a category
    for t, c in zip(cols[:-1].tolist(), cum[:-1].tolist()):
        s_new = np.arange(max(0, na - (n - c)), min(c, na) + 1)
        tail = log_comb(n - c, na - s_new)
        keep = log_comb(c, s_new) + tail - log_comb(n, na) >= np.log(_KS_PRUNE)
        s_new, tail = s_new[keep], tail[keep]
        s_old = low + np.arange(mass.shape[1])
        head = log_comb(left, na - s_old)
        new = np.zeros((2, len(s_new)))
        step = max(1, _KS_BLOCK // len(s_new))
        for i in range(0, len(s_old), step):
            x = s_new[None, :] - s_old[i:i + step, None]
            w = log_comb(t, np.clip(x, 0, t)) + tail[None, :] - head[i:i + step, None]
            new += mass[:, i:i + step] @ np.where((x >= 0) & (x <= t), np.exp(w), 0.0)
        gap = np.abs(s_new * n - c * na)
        out = np.stack([gap >= d, gap > d])
        leaves += np.where(out, new, 0.0).sum(axis=1)
        new[out] = 0.0
        live = np.flatnonzero(new.any(axis=0))
        if len(live) == 0:
            break
        low, mass = int(s_new[live[0]]), new[:, live[0]:live[-1] + 1]
        left -= t
    return float(min(1.0, 0.5 * (leaves[0] + leaves[1])))


_DISPATCH = {"chi2": chi2_pvalue, "freeman-tukey": ft_pvalue, "ks": ks_pvalue}


def pvalue(counts_a, counts_b, config):
    """Run the configured two-sample test."""
    return _DISPATCH[config.test](counts_a, counts_b)


@dataclass(frozen=True)
class CompatibilityGraph:
    """Pairwise compatibility of the length-L histories of a sequence.

    vertices is the ordered history list (first-appearance order), pvalues
    the symmetric matrix of pairwise test results with 1.0 on the diagonal,
    and mu the boolean adjacency: mu[i, l] is True when histories i and l
    may share a state, that is when pvalues[i, l] > alpha. The diagonal is
    forced True.
    """

    vertices: tuple
    pvalues: np.ndarray
    mu: np.ndarray
    config: TestConfig

    def edges(self):
        """Off-diagonal compatible pairs (i, l) with i < l."""
        n = len(self.vertices)
        return [(i, l) for i in range(n) for l in range(i + 1, n) if self.mu[i, l]]


def compatibility_graph(wc, config=None):
    """Build the compatibility graph of the length-L histories of wc."""
    cfg = config or TestConfig()
    verts = tuple(histories(wc))
    n = len(verts)
    ext = [wc.extension_counts(v) for v in verts]
    pvals = np.ones((n, n))
    for i in range(n):
        for l in range(i + 1, n):
            p = pvalue(ext[i], ext[l], cfg)
            pvals[i, l] = pvals[l, i] = p
    mu = pvals > cfg.alpha
    np.fill_diagonal(mu, True)
    return CompatibilityGraph(verts, pvals, mu, cfg)

