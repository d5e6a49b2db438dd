"""Seeded benchmark inputs: random unifilar sources simulated with numpy.

The inputs are made here and nowhere in the package, so a change to the
program cannot change what it is measured on. A source is unifilar: each
state emits each symbol with some probability and moves to one fixed
successor state for that symbol. Two families are drawn:

* ``shift``: the state is the last ``m`` symbols (an order-``m`` Markov
  chain), with emission rows spread apart in total variation. The
  length-L histories (L >= m) then fall into well separated groups, so the
  compatibility graph, and the work the solvers do on it, changes little
  from one simulated sequence to the next.
* ``random``: a few states with Dirichlet(2) emission rows and uniformly
  drawn successors. Such a source does not synchronise on short
  histories, every history carries a different mixture, and the
  compatibility graph is dense and tangled: the instances that hurt.

Each source is drawn from a key fixed per workload instance, so every run
of a workload measures the same population; ``--seed`` draws the
simulated sequences.
"""

import numpy as np

SYMBOLS = "0123456789"


def shift_source(rng, k, m, low=0.15):
    """Order-m source: one emission row per m-suffix. Every probability is
    at least ``low``, so that no history is rare and every pairwise test
    sees enough counts, and the rows are spread out: each is the candidate
    farthest, in total variation, from the rows already taken, among
    Dirichlet(1) draws. Returns (probs, succ)."""
    n_states = k ** m
    cand = (1.0 - k * low) * rng.dirichlet(np.ones(k), size=50 * n_states) + low
    taken = [0]
    dist = 0.5 * np.abs(cand - cand[0]).sum(axis=1)
    for _ in range(n_states - 1):
        taken.append(int(np.argmax(dist)))
        dist = np.minimum(dist, 0.5 * np.abs(cand - cand[taken[-1]]).sum(axis=1))
    probs = cand[rng.permutation(taken)]
    succ = np.array([[(s * k + a) % n_states for a in range(k)] for s in range(n_states)])
    return probs, succ


def random_source(rng, k, n_states):
    """Random unifilar source with Dirichlet(2) rows and random successors."""
    probs = rng.dirichlet(np.ones(k) * 2.0, size=n_states)
    succ = rng.integers(n_states, size=(n_states, k))
    return probs, succ


def simulate(rng, probs, succ, n):
    """Walk the source from state 0 for n steps; returns symbol ordinals."""
    cdf = np.cumsum(probs, axis=1)
    cdf[:, -1] = 1.0
    # per state, the symbol drawn for a uniform u is searchsorted(cdf, u)
    draws = rng.random(n)
    syms = np.stack([np.searchsorted(row, draws, side="right") for row in cdf])
    syms = np.minimum(syms, probs.shape[1] - 1).tolist()
    succ = succ.tolist()
    out = [0] * n
    s = 0
    for t in range(n):
        a = syms[s][t]
        out[t] = a
        s = succ[s][a]
    return np.array(out, dtype=np.uint8)


def make_text(spec, seed):
    """The sequence file text of one instance.

    spec is a dict with keys family, k, n and key (the source key), plus m
    for the shift family or states for the random family.
    """
    src_rng = np.random.default_rng([spec["key"], spec["k"], spec["n"]])
    if spec["family"] == "shift":
        probs, succ = shift_source(src_rng, spec["k"], spec["m"])
    else:
        probs, succ = random_source(src_rng, spec["k"], spec["states"])
    sim_rng = np.random.default_rng([seed, spec["key"]])
    toks = simulate(sim_rng, probs, succ, spec["n"])
    lut = np.frombuffer(SYMBOLS[:spec["k"]].encode(), dtype=np.uint8)
    return lut[toks].tobytes().decode() + "\n"
