"""Causal-state splitting and reconstruction.

The splitting pass walks window lengths 0 through L. At each length the
observed histories of that length are clustered into fresh states: each
history, taken in order of first appearance in the sequence, is compared
against the pooled next-symbol distribution of every state formed so far
at this length and joins the best-matching state when the test accepts,
otherwise it opens a new state. Pooled distributions are recomputed as
members join. Lengths below L only matter as a progress trace, so they
are clustered only when the trace is asked for; the partition of the
length-L histories is the splitting result.

The reconstruction pass then splits states whose members disagree on
which state their shift-append successors land in, repeating until the
state count is stable, which makes the transition structure
deterministic.
"""

import numpy as np

from .machine import build_machine, partition_from_blocks, split_to_deterministic
from .sequences import histories
from .stat_tests import TestConfig, pvalue


def _cluster_level(wc, level, cfg):
    """Cluster the extendable histories of one window length into states."""
    states = []
    for h in histories(wc, level):
        ext = wc.extension_counts(h)
        best_p, best_state = -1.0, None
        for s in states:
            pooled = np.sum([wc.extension_counts(m) for m in s], axis=0)
            p = pvalue(ext, pooled, cfg)
            if p > best_p:
                best_p, best_state = p, s
        if best_state is not None and best_p > cfg.alpha:
            best_state.append(h)
        else:
            states.append([h])
    return states


def cssr_split(wc, config=None, return_trace=False):
    """Cluster the length-L histories of wc into approximately
    homogeneous states.

    Returns a StatePartition over the length-L histories (in order of
    first appearance). With return_trace=True, also returns the per-level
    clusterings as a list of (level, blocks) pairs.
    """
    cfg = config or TestConfig()
    levels = range(wc.L + 1) if return_trace else [wc.L]
    trace = [(level, [tuple(s) for s in _cluster_level(wc, level, cfg)]) for level in levels]
    part = partition_from_blocks(histories(wc), trace[-1][1])
    if return_trace:
        return part, trace
    return part


def cssr_reconstruct(partition, wc):
    """Refine a splitting result until successor states are unambiguous."""
    return split_to_deterministic(partition, wc)


def cssr(wc, config=None):
    """Full inference: split, reconstruct, build the machine."""
    part = cssr_split(wc, config)
    part = cssr_reconstruct(part, wc)
    return build_machine(wc, part)
