"""Causal-state splitting and reconstruction.

The splitting pass clusters the histories of length L into states: each
history, taken in order of first appearance in the sequence, is compared
against the pooled next-symbol distribution of every state formed so far
and joins the best-matching state when the test accepts, otherwise it
opens a new state. Each state's pooled counts grow as members join. The
clustering of a shorter length l is that of ``count_windows(seq, l)``.

The reconstruction pass then splits states whose members disagree on
which state their shift-append successors land in, repeating until the
state count is stable, which makes the transition structure
deterministic.
"""

from .machine import StatePartition, build_machine, split_to_deterministic
from .stat_tests import TestConfig, list_pvalue


def cssr_split(wc, config=None):
    """Cluster the length-L histories wc.W into approximately homogeneous
    states: a StatePartition over wc.W, numbering states in the order
    they open."""
    cfg = config or TestConfig()
    test = list_pvalue(cfg)
    pooled = []
    assign = []
    for ext in wc.ext.astype(float).tolist():
        best_p, best_state = -1.0, None
        for s, counts in enumerate(pooled):
            p = test(ext, counts)
            if p > best_p:
                best_p, best_state = p, s
        if best_state is not None and best_p > cfg.alpha:
            pooled[best_state] = [x + y for x, y in zip(pooled[best_state], ext)]
        else:
            best_state = len(pooled)
            pooled.append(ext)
        assign.append(best_state)
    return StatePartition(wc.W, tuple(assign))


def cssr_reconstruct(partition, wc):
    """Refine a splitting result until successor states are unambiguous."""
    return split_to_deterministic(partition, wc)


def cssr(wc, config=None):
    """Full inference: split, reconstruct, build the machine."""
    part = cssr_split(wc, config)
    part = cssr_reconstruct(part, wc)
    return build_machine(wc, part)
