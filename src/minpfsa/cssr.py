"""Causal-state splitting and reconstruction.

The splitting pass walks window lengths 0 through L. At each length the
observed histories of that length are clustered into fresh states: each
history, taken in order of first appearance in the sequence, is compared
against the pooled next-symbol distribution of every state formed so far
at this length and joins the best-matching state when the test accepts,
otherwise it opens a new state. Each state's pooled counts grow as
members join. Lengths below L only matter as a progress trace, so they
are clustered only when the trace is asked for; the partition of the
length-L histories is the splitting result.

The reconstruction pass then splits states whose members disagree on
which state their shift-append successors land in, repeating until the
state count is stable, which makes the transition structure
deterministic.
"""

from .machine import StatePartition, build_machine, split_to_deterministic
from .sequences import histories
from .stat_tests import TestConfig, pvalue


def _cluster_level(wc, level, cfg):
    """Cluster the extendable histories of one window length into a
    StatePartition, numbering states in the order they open. Each state
    keeps the running sum of its members' continuation counts."""
    W = tuple(histories(wc, level))
    pooled = []
    assign = []
    for h in W:
        ext = wc.extension_counts(h)
        best_p, best_state = -1.0, None
        for s, counts in enumerate(pooled):
            p = pvalue(ext, counts, cfg)
            if p > best_p:
                best_p, best_state = p, s
        if best_state is not None and best_p > cfg.alpha:
            pooled[best_state] += ext
        else:
            best_state = len(pooled)
            pooled.append(ext)
        assign.append(best_state)
    return StatePartition(W, tuple(assign))


def cssr_split(wc, config=None, return_trace=False):
    """Cluster the length-L histories of wc into approximately
    homogeneous states.

    Returns a StatePartition over the length-L histories (in order of
    first appearance). With return_trace=True, also returns the per-level
    clusterings as a list of (level, blocks) pairs.
    """
    cfg = config or TestConfig()
    if not return_trace:
        return _cluster_level(wc, wc.L, cfg)
    parts = [_cluster_level(wc, level, cfg) for level in range(wc.L + 1)]
    return parts[-1], [(level, part.blocks()) for level, part in enumerate(parts)]


def cssr_reconstruct(partition, wc):
    """Refine a splitting result until successor states are unambiguous."""
    return split_to_deterministic(partition, wc)


def cssr(wc, config=None):
    """Full inference: split, reconstruct, build the machine."""
    part = cssr_split(wc, config)
    part = cssr_reconstruct(part, wc)
    return build_machine(wc, part)
