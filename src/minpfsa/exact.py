"""Exact minimum-state searches.

``solve_msdpfsa`` finds the fewest states of a deterministic machine
consistent with the compatibility relation and the successor table;
``solve_msndpfsa`` drops determinism, which makes the problem clique
partitioning. Both, and ``cliques.enumerate_exact_covers``, run one
first-fit search (``_first_fit``): history i may only open the lowest
unused state, so each partition is visited once, in lexicographic
assignment order. The solvers bound it below by a greedy independent set
and return the lexicographically least optimum.

``build_ip_model`` states the problem as a 0/1 integer program and
``to_lp_text`` writes it; ``oracles.solve_ip_model`` solves that text.
"""

import time
from dataclasses import dataclass

import numpy as np

from .machine import StatePartition
# kept importable here: perfbench/routes.py imports succ_table from this module
from .sequences import succ_table  # noqa: F401


def _adjacency(graph):
    """Accept a CompatibilityGraph or a raw boolean matrix."""
    mu = getattr(graph, "mu", graph)
    return np.asarray(mu, dtype=bool)


def greedy_independent_set(mu):
    """Grow an independent set greedily, lowest index first."""
    n = len(mu)
    chosen = []
    for v in range(n):
        if all(not mu[v][u] for u in chosen):
            chosen.append(v)
    return tuple(chosen)


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact search: the minimum state count, the
    lexicographically least optimal partition, the number of search nodes
    explored and the wall-clock seconds spent."""

    optimum: int
    partition: StatePartition
    explored: int
    elapsed: float = 0.0


def _first_fit(graph, succ, low, high, visit):
    """Walk the first-fit assignments in lexicographic order, calling
    ``visit(assign, blocks)`` at each partition into low..high states
    (deterministic under succ unless succ is None). blocks lists each
    state's members, ascending; both arguments are live, so visit copies
    what it keeps. visit returns the new high, and the search stops once
    high < low. Returns the number of nodes explored."""
    mu = _adjacency(graph).tolist()
    n = len(mu)
    preds = [[] for _ in range(n)]
    if succ is not None:
        for u in range(n):
            for a, l in enumerate(succ[u]):
                if l is not None:
                    preds[l].append((u, a))

    assign = [-1] * n
    members = [[] for _ in range(n)]
    targets = {}
    explored = 0

    def undo(trail):
        for key in trail:
            del targets[key]

    def place(v, s):
        """Try to commit v to state s, returning an undo trail or None."""
        for m in members[s]:
            if not mu[v][m]:
                return None
        if succ is None:
            return []
        trail = []

        def force(state, symbol, target):
            key = (state, symbol)
            known = targets.get(key)
            if known is None:
                targets[key] = target
                trail.append(key)
                return True
            return known == target

        for a, l in enumerate(succ[v]):
            if l is not None and (l == v or assign[l] >= 0):
                if not force(s, a, s if l == v else assign[l]):
                    break
        else:
            for (u, a) in preds[v]:
                if u != v and assign[u] >= 0 and not force(assign[u], a, s):
                    break
            else:
                return trail
        undo(trail)
        return None

    def recurse(v, used):
        nonlocal explored, high
        explored += 1
        if v == n:
            if low <= used <= high:
                high = visit(assign, members[:used])
            return
        if used + n - v < low:
            return
        for s in range(used + 1):
            if s == used and used >= high:
                break
            trail = place(v, s)
            if trail is None:
                continue
            assign[v] = s
            members[s].append(v)
            recurse(v + 1, used + (s == used))
            members[s].pop()
            assign[v] = -1
            undo(trail)
            if used > high or high < low:
                return

    recurse(0, 0)
    return explored


def _solve(graph, succ):
    """The lexicographically least minimum partition, timed."""
    t0 = time.perf_counter()
    mu = _adjacency(graph).tolist()
    n = len(mu)
    if n == 0:
        raise ValueError("no histories to assign")
    best = [n + 1, None]

    def record(assign, blocks):
        best[:] = len(blocks), tuple(assign)
        return len(blocks) - 1

    explored = _first_fit(mu, succ, len(greedy_independent_set(mu)), n, record)
    W = getattr(graph, "vertices", tuple((i,) for i in range(n)))
    part = StatePartition(tuple(tuple(h) for h in W), best[1])
    return SolveResult(best[0], part, explored, time.perf_counter() - t0)


def solve_msdpfsa(graph, succ):
    """Minimum states of a deterministic machine consistent with the
    compatibility graph and successor table."""
    if succ is None:
        raise ValueError("the deterministic search needs a successor table")
    return _solve(graph, succ)


def solve_msndpfsa(graph):
    """Minimum states without the determinism requirement. Equals the
    minimum number of cliques that partition the compatibility graph."""
    return _solve(graph, None)


# ---------------------------------------------------------------------------
# explicit integer-program view


@dataclass(frozen=True)
class IPModel:
    """The assignment problem as an explicit 0/1 program.

    Variables: x[i][j] assigns history i to state j, y[a][j][k] marks a
    transition from state j to state k on symbol a, p[j] marks state j as
    used. z[a][i] are constants: the observed shift-append successor of
    history i under a, or None. The objective is the sum of p. The rows
    are defined by the LP text that ``to_lp_text`` writes: the variables
    are named ``x_i_j``, ``y_a_j_k`` and ``p_j``, the rows ``assign_i``,
    ``trans_a_i_j_k``, ``det_j_a``, ``compat_i_l_j`` and ``open_j``.

    Constraint families (n histories, m symbols):
      assignment      for each i:            sum_j x[i][j] = 1
      transition      for a, i, l=succ(i,a), all j, k:
                                             x[i][j] + x[l][k] - y[a][j][k] <= 1
      determinism     for each j, a:         sum_k y[a][j][k] <= 1
      compatibility   for incompatible i<l, all j:  x[i][j] + x[l][j] <= 1
      state-open      for each j:            sum_i x[i][j] <= n * p[j]

    A self-successor (l == i) has a single x term with coefficient 2 in
    its j == k transition rows. With deterministic=False the y variables
    and the transition and determinism families are omitted; only the
    co-assignment structure remains.
    """

    n: int
    n_symbols: int
    mu: tuple
    z: tuple
    deterministic: bool = True

    def variable_counts(self):
        n, m = self.n, self.n_symbols
        return {
            "x": n * n,
            "z": m * n * n,
            "y": m * n * n if self.deterministic else 0,
            "p": n,
        }


def build_ip_model(graph, succ, deterministic=True):
    """Materialize the minimum-state problem for the given compatibility
    graph and successor table. succ may be None when deterministic=False."""
    mu = _adjacency(graph)
    n = len(mu)
    if deterministic and succ is None:
        raise ValueError("the deterministic model needs a successor table")
    m = len(succ[0]) if succ else 0
    z = tuple(tuple(succ[i][a] for i in range(n)) for a in range(m))
    return IPModel(n, m, tuple(map(tuple, mu.tolist())), z, deterministic)


def to_lp_text(model):
    """Serialize the model in LP format, family by family in the order
    of the IPModel docstring, from tables of the variable names.
    Transition rows build their name prefix and x[i][j] term once per j."""
    n, m, r = model.n, model.n_symbols, range(model.n)
    x = [["x_%d_%d" % (i, j) for j in r] for i in r]
    y = [[["y_%d_%d_%d" % (a, j, k) for k in r] for j in r]
         for a in range(m if model.deterministic else 0)]
    p = ["p_%d" % j for j in r]
    out = ["Minimize\n obj: ", " + ".join(p), "\nSubject To\n"]
    out += [" assign_%d: %s = 1\n" % (i, " + ".join(x[i])) for i in r]
    if model.deterministic:
        ks = ["%d: " % k for k in r]
        x_minus = [[v + " - " for v in row] for row in x]
        y_le = [[[v + " <= 1\n" for v in row] for row in plane] for plane in y]
        for a in range(m):
            for i, l in enumerate(model.z[a]):
                if l is None:
                    continue
                for j in r:
                    head = " trans_%d_%d_%d_" % (a, i, j)
                    mid = x[i][j] + " + "
                    rows = [head + k + mid + xk + yk
                            for k, xk, yk in zip(ks, x_minus[l], y_le[a][j])]
                    if i == l:
                        rows[j] = "%s%d: 2 %s - %s" % (head, j, x[i][j], y_le[a][j][j])
                    out += rows
        out += [" det_%d_%d: %s <= 1\n" % (j, a, " + ".join(y[a][j]))
                for j in r for a in range(m)]
    for i in r:
        for l in range(i + 1, n):
            if not model.mu[i][l]:
                out += [" compat_%d_%d_%d: %s + %s <= 1\n" % (i, l, j, x[i][j], x[l][j])
                        for j in r]
    coef = "" if n == 1 else "%d " % n
    out += [" open_%d: %s - %s%s <= 0\n" % (j, " + ".join(row[j] for row in x), coef, p[j]) for j in r]
    binary = [v for row in x for v in row] + [v for pl in y for row in pl for v in row] + p
    out.append("Binary\n %s\nEnd\n" % "\n ".join(binary))
    return "".join(out)
