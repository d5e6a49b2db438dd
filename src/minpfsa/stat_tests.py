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

Identical normalized count vectors always give p = 1.0. A negative, NaN
or infinite count raises ValueError in every test.

The Pearson and Freeman-Tukey statistics are one arithmetic in two
forms. cssr and the public functions run it per comparison, in plain
floats, on count lists they convert once per history or state
(``count_list``, ``list_pvalue``). The compatibility graph runs it over
arrays, on all history pairs i < l at once, in blocks of a fixed number
of pairs, so its temporaries do not grow with the square of the history
count. Each expected count is row total * column total / grand total.
The Freeman-Tukey cell is 4 * (d * d) with d = sqrt(O) - sqrt(E), the
Pearson cell d * d / E with d = O - E. Each column's two cells are added
first, then the columns are summed as ``ndarray.sum`` sums them: from
left to right below 8 kept columns, and by numpy itself from 8 on, where
it keeps eight partial sums.

The per-comparison form gives the p-value that the whole-array numpy
formula gives, bit for bit, on whole-number counts below 2**53: there
every row, column and grand total is exact in any order. The test suite
holds the numpy formula as its reference. The array form gives, bit for
bit, the p-value of the per-comparison form on the same two vectors of
whole-number counts. It sums every column from left to right, a dropped
column adding an exact 0.0, and a pair with 8 or more kept columns takes
``np.sum`` over its kept cells.

scipy.special, which supplies ``chdtrc`` and ``gammaln``, takes longer to
import than the rest of the package together, so it is loaded on the
first p-value rather than at import. ``load_special`` binds the two
module names to scipy's ufuncs; until then each name is a stand-in that
calls it and then the ufunc, so every later call goes straight to scipy.
A caller that forks workers calls ``load_special`` first, or each worker
pays the import again.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DegenerateSampleError

TESTS = ("freeman-tukey", "chi2", "ks")


def load_special():
    """Import scipy.special and bind ``chdtrc`` and ``gammaln`` here to
    its ufuncs. Calling it again changes nothing."""
    global chdtrc, gammaln
    import scipy.special

    chdtrc, gammaln = scipy.special.chdtrc, scipy.special.gammaln


def chdtrc(*args):  # rebound to scipy.special.chdtrc by load_special
    load_special()
    return chdtrc(*args)


def gammaln(*args):  # rebound to scipy.special.gammaln by load_special
    load_special()
    return gammaln(*args)


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


def count_list(counts):
    """A count vector as the list of floats that every test works on.
    Raises ValueError unless counts is 1-d."""
    a = np.asarray(counts, dtype=float)
    if a.ndim != 1:
        raise ValueError("count vectors must be 1-d and of equal length")
    return a.tolist()


def _clean_table(a, b):
    """The kept columns of the 2 x k table of two count lists, and the two
    sample sizes. Raises ValueError on lists of unequal length or on a
    negative, NaN or infinite count, and DegenerateSampleError when a
    sample has zero total count."""
    if len(a) != len(b):
        raise ValueError("count vectors must be 1-d and of equal length")
    kept_a, kept_b = [], []
    na = nb = 0.0
    for x, y in zip(a, b):
        if not (0.0 <= x < math.inf and 0.0 <= y < math.inf):
            raise ValueError("counts must be finite and non-negative")
        if x + y > 0.0:
            kept_a.append(x)
            kept_b.append(y)
            na += x
            nb += y
    if na == 0.0 or nb == 0.0:
        raise DegenerateSampleError("a sample with zero total count has no distribution")
    return kept_a, kept_b, na, nb


def _identical_proportions(a, b, na, nb):
    for x, y in zip(a, b):
        if abs(x / na - y / nb) > 1e-12:
            return False
    return True


def _chi2_family_pvalue(freeman_tukey, a, b):
    """Upper-tail chi-squared p-value of the Freeman-Tukey or the Pearson
    statistic of two count lists; see the module docstring for the order
    of the arithmetic."""
    a, b, na, nb = _clean_table(a, b)
    if len(a) < 2 or _identical_proportions(a, b, na, nb):
        return 1.0
    n = na + nb
    # each column's two cells are added first, so swapping the samples
    # gives a bitwise-identical statistic
    columns = []
    for x, y in zip(a, b):
        t = x + y
        ea = na * t / n
        eb = nb * t / n
        if freeman_tukey:
            da = math.sqrt(x) - math.sqrt(ea)
            db = math.sqrt(y) - math.sqrt(eb)
            columns.append(4.0 * (da * da) + 4.0 * (db * db))
        else:
            da = x - ea
            db = y - eb
            columns.append(da * da / ea + db * db / eb)
    if len(columns) < 8:
        stat = 0.0
        for c in columns:
            stat += c
    else:
        stat = np.sum(columns)  # numpy's own order: eight partial sums
    return float(chdtrc(len(a) - 1, stat))


def chi2_pvalue(counts_a, counts_b):
    """Pearson chi-squared two-sample homogeneity test, no continuity
    correction. Returns the upper-tail p-value."""
    return _chi2_family_pvalue(False, count_list(counts_a), count_list(counts_b))


def ft_pvalue(counts_a, counts_b):
    """Freeman-Tukey two-sample homogeneity test on the same table and
    degrees of freedom as ``chi2_pvalue``."""
    return _chi2_family_pvalue(True, count_list(counts_a), count_list(counts_b))


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
    return _ks_lists(count_list(counts_a), count_list(counts_b))


def _ks_lists(a, b):
    a, b, na, nb = _clean_table(a, b)
    if _identical_proportions(a, b, na, nb):
        return 1.0
    a, b = np.array(a), np.array(b)
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


_ON_LISTS = {
    "chi2": partial(_chi2_family_pvalue, False),
    "freeman-tukey": partial(_chi2_family_pvalue, True),
    "ks": _ks_lists,
}


def list_pvalue(config):
    """The configured test as a function of two ``count_list`` results.
    Callers that compare one count vector many times convert it once."""
    return _ON_LISTS[config.test]


def pvalue(counts_a, counts_b, config):
    """Run the configured two-sample test."""
    return list_pvalue(config)(count_list(counts_a), count_list(counts_b))


@dataclass(frozen=True)
class CompatibilityGraph:
    """Pairwise compatibility of the length-L histories of a sequence.

    vertices is the ordered history list (first-appearance order), pvalues
    the symmetric matrix of pairwise test results with 1.0 on the diagonal,
    and mu the boolean adjacency: mu[i, l] is True when histories i and l
    may share a state, that is when pvalues[i, l] > alpha. The diagonal is
    True, because alpha is below 1.
    """

    vertices: tuple
    pvalues: np.ndarray
    mu: np.ndarray

    def edges(self):
        """Off-diagonal compatible pairs (i, l) with i < l, in row-major
        order."""
        return list(zip(*(ix.tolist() for ix in np.nonzero(np.triu(self.mu, 1)))))


# upper-triangle history pairs whose tables the compatibility graph forms
# at once: its temporaries are a few (block, |A|) float arrays
_PAIR_BLOCK = 1 << 12


def _pair_pvalues(test, E, tot, i, l):
    """The named test's p-value of the count rows E[i[k]] and E[l[k]] for
    every k, bit for bit that of ``list_pvalue``, where tot holds the row
    totals of E. Every row must have a positive total, as every history of
    the graph has; see the module docstring for the order of the
    arithmetic."""
    if test == "ks":
        return [_ks_lists(a, b) for a, b in zip(E[i].tolist(), E[l].tolist())]
    x, y = E[i], E[l]
    na, nb = tot[i, None], tot[l, None]
    t = x + y
    kept = t > 0.0
    n = na + nb
    ea = na * t / n
    eb = nb * t / n
    if test == "freeman-tukey":
        da = np.sqrt(x) - np.sqrt(ea)
        db = np.sqrt(y) - np.sqrt(eb)
        cells = 4.0 * (da * da) + 4.0 * (db * db)
    else:
        da = x - ea
        db = y - eb
        # a dropped column then adds 0.0 rather than 0/0
        ea[~kept] = eb[~kept] = 1.0
        cells = da * da / ea + db * db / eb
    stat = np.zeros(len(i))
    for c in cells.T:  # left to right; an added 0.0 is exact
        stat += c
    k = kept.sum(axis=1)
    for r in np.flatnonzero(k >= 8):
        stat[r] = np.sum(cells[r][kept[r]])
    p = np.ones(len(i))
    test = (k >= 2) & np.any(np.abs(x / na - y / nb) > 1e-12, axis=1)
    p[test] = chdtrc(k[test] - 1, stat[test])
    return p


def compatibility_graph(wc, config=None):
    """Build the compatibility graph of the length-L histories of wc."""
    cfg = config or TestConfig()
    n = len(wc.W)
    E = wc.ext.astype(float)
    pvals = np.ones((n, n))
    tot = E.sum(axis=1)
    # pairs i < l in row-major order; row i starts at pair starts[i]
    rows = np.arange(n)
    starts = rows * (2 * n - rows - 1) // 2
    pairs = n * (n - 1) // 2
    for s in range(0, pairs, _PAIR_BLOCK):
        q = np.arange(s, min(s + _PAIR_BLOCK, pairs))
        i = np.searchsorted(starts, q, side="right") - 1
        l = q - starts[i] + i + 1
        pvals[i, l] = pvals[l, i] = _pair_pvalues(cfg.test, E, tot, i, l)
    return CompatibilityGraph(wc.W, pvals, pvals > cfg.alpha)
