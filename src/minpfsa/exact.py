"""Exact minimum-state searches.

``solve_msdpfsa`` finds the minimum number of states of a deterministic
machine consistent with the pairwise compatibility relation and the
shift-append successor structure. ``solve_msndpfsa`` drops the determinism
requirement, which reduces the problem to partitioning the compatibility
graph into the fewest cliques.

Both run a depth-first branch and bound over history-to-state assignments
with first-fit symmetry breaking: history i may only open the lowest
still-unused state, so each partition is visited once, in lexicographic
assignment order. The lower bound is the size of a greedily grown
independent set of the compatibility graph, since pairwise-incompatible
histories can never share a state. Among minimum-state assignments the
lexicographically least one is returned.

``build_ip_model`` states the same problem as an explicit 0/1 integer
program. Its ``constraints`` generate the rows lazily, with the variable
names of the LP file, and both consumers read that one stream:
``to_lp_text`` formats each row, and ``solve_ip_model`` solves the model by
exhaustive search over the same rows, as an independence check on the
branch-and-bound.
"""

import time
from dataclasses import dataclass

import numpy as np

from .errors import TooLargeForOracleError
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


def _branch_and_bound(graph, succ):
    """Shared search, timed. succ is None for the non-deterministic variant."""
    t0 = time.perf_counter()
    mu = _adjacency(graph).tolist()
    W = getattr(graph, "vertices", tuple((i,) for i in range(len(mu))))
    n = len(mu)
    if n == 0:
        raise ValueError("no histories to assign")
    lower = len(greedy_independent_set(mu))

    preds = [[] for _ in range(n)]
    if succ is not None:
        for u in range(n):
            for a, l in enumerate(succ[u]):
                if l is not None:
                    preds[l].append((u, a))

    assign = [-1] * n
    members = [[] for _ in range(n)]
    targets = {}
    best = {"count": n + 1, "assign": None, "explored": 0}

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

        ok = True
        for a, l in enumerate(succ[v]):
            if l is not None and (l == v or assign[l] >= 0):
                t = s if l == v else assign[l]
                if not force(s, a, t):
                    ok = False
                    break
        if ok:
            for (u, a) in preds[v]:
                if u != v and assign[u] >= 0:
                    if not force(assign[u], a, s):
                        ok = False
                        break
        if not ok:
            undo(trail)
            return None
        return trail

    def recurse(v, used):
        best["explored"] += 1
        if v == n:
            if used < best["count"]:
                best["count"] = used
                best["assign"] = tuple(assign)
            return
        if max(used, lower) >= best["count"]:
            return
        limit = min(used + 1, n)
        for s in range(limit):
            opens = s == used
            if opens and used + 1 >= best["count"]:
                break
            trail = place(v, s)
            if trail is None:
                continue
            assign[v] = s
            members[s].append(v)
            recurse(v + 1, used + 1 if opens else used)
            members[s].pop()
            assign[v] = -1
            undo(trail)

    recurse(0, 0)
    part = StatePartition(tuple(tuple(h) for h in W), best["assign"])
    return SolveResult(best["count"], part, best["explored"], time.perf_counter() - t0)


def solve_msdpfsa(graph, succ):
    """Minimum states of a deterministic machine consistent with the
    compatibility graph and successor table."""
    if succ is None:
        raise ValueError("the deterministic search needs a successor table")
    return _branch_and_bound(graph, succ)


def solve_msndpfsa(graph):
    """Minimum states without the determinism requirement. Equals the
    minimum number of cliques that partition the compatibility graph."""
    return _branch_and_bound(graph, None)


def brute_force_min_states(graph, succ=None, deterministic=False, limit=10):
    """Independent oracle: enumerate set partitions of the histories and
    return the fewest blocks satisfying compatibility (and determinism
    when asked). Refuses more than ``limit`` histories.

    Enumeration is the standard restricted-growth recursion. A history is
    only added to a block when compatible with every member, which skips
    exactly the partitions that violate compatibility anyway.
    """
    mu = _adjacency(graph)
    n = len(mu)
    if n == 0:
        raise ValueError("no histories to assign")
    if n > limit:
        raise TooLargeForOracleError("%d histories exceed the oracle limit %d" % (n, limit))
    if deterministic and succ is None:
        raise ValueError("the deterministic oracle needs a successor table")

    assign = [-1] * n
    best = [n + 1]

    def deterministic_ok():
        blocks = {}
        for v, s in enumerate(assign):
            blocks.setdefault(s, []).append(v)
        for block in blocks.values():
            seen = {}
            for v in block:
                for a, l in enumerate(succ[v]):
                    if l is None:
                        continue
                    t = assign[l]
                    if seen.setdefault(a, t) != t:
                        return False
        return True

    def recurse(v, used):
        if v == n:
            if used < best[0] and (not deterministic or deterministic_ok()):
                best[0] = used
            return
        for s in range(used + 1):
            if all(assign[u] != s or mu[v][u] for u in range(v)):
                assign[v] = s
                recurse(v + 1, max(used, s + 1))
                assign[v] = -1

    recurse(0, 0)
    return best[0]


# ---------------------------------------------------------------------------
# explicit integer-program view


@dataclass(frozen=True)
class IPModel:
    """The assignment problem as an explicit 0/1 program.

    Variables: x[i][j] assigns history i to state j, y[a][j][k] marks a
    transition from state j to state k on symbol a, p[j] marks state j as
    used. z[a][i] are constants: the observed shift-append successor of
    history i under a, or None. The objective is the sum of p. In the LP
    text and in the rows of ``constraints`` the variables are named
    ``x_i_j``, ``y_a_j_k`` and ``p_j``.

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

    def _names(self):
        """Variable name tables x[i][j], y[a][j][k] (empty unless
        deterministic) and p[j]."""
        n, r = self.n, range(self.n)
        x = [["x_%d_%d" % (i, j) for j in r] for i in r]
        m = self.n_symbols if self.deterministic else 0
        y = [[["y_%d_%d_%d" % (a, j, k) for k in r] for j in r] for a in range(m)]
        return x, y, ["p_%d" % j for j in range(n)]

    def constraints(self):
        """Generate every constraint, in LP order, as (name, terms, sense,
        rhs). terms is a tuple of (coef, variable name) pairs; sense is
        "=" or "<="."""
        n, m = self.n, self.n_symbols
        x, y, p = self._names()
        for i in range(n):
            yield "assign_%d" % i, tuple((1, v) for v in x[i]), "=", 1
        if self.deterministic:
            for a in range(m):
                for i, l in enumerate(self.z[a]):
                    if l is None:
                        continue
                    for j in range(n):
                        for k in range(n):
                            if i == l and j == k:
                                terms = ((2, x[i][j]), (-1, y[a][j][k]))
                            else:
                                terms = ((1, x[i][j]), (1, x[l][k]), (-1, y[a][j][k]))
                            yield "trans_%d_%d_%d_%d" % (a, i, j, k), terms, "<=", 1
            for j in range(n):
                for a in range(m):
                    yield "det_%d_%d" % (j, a), tuple((1, v) for v in y[a][j]), "<=", 1
        for i in range(n):
            for l in range(i + 1, n):
                if not self.mu[i][l]:
                    for j in range(n):
                        terms = ((1, x[i][j]), (1, x[l][j]))
                        yield "compat_%d_%d_%d" % (i, l, j), terms, "<=", 1
        for j in range(n):
            terms = tuple((1, x[i][j]) for i in range(n)) + ((-n, p[j]),)
            yield "open_%d" % j, terms, "<=", 0


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


def _lp_expr(terms):
    """LP text of a linear expression: "2 x_0_0 - y_0_0_0"."""
    tokens = []
    for coef, var in terms:
        if tokens or coef < 0:
            tokens.append("-" if coef < 0 else "+")
        if abs(coef) != 1:
            tokens.append(str(abs(coef)))
        tokens.append(var)
    return " ".join(tokens)


def to_lp_text(model):
    """Serialize the model in LP format."""
    x, y, p = model._names()
    lines = ["Minimize", " obj: " + " + ".join(p), "Subject To"]
    for name, terms, sense, rhs in model.constraints():
        lines.append(" %s: %s %s %d" % (name, _lp_expr(terms), sense, rhs))
    lines.append("Binary")
    lines.extend(" " + v for row in x for v in row)
    lines.extend(" " + v for plane in y for row in plane for v in row)
    lines.extend(" " + v for v in p)
    lines.append("End")
    return "\n".join(lines) + "\n"


def solve_ip_model(model, limit=8):
    """Solve the model by exhaustive search over its own constraints.

    Enumerates the assignment space (every x satisfying the assignment
    family, up to state relabelling), derives the induced y and p, then
    keeps the candidate only if every row of ``constraints`` holds when
    the variables named in the candidate's set are 1 and all others 0.
    Deliberately independent of the branch-and-bound pruning logic.
    """
    n, m = model.n, model.n_symbols
    if n > limit:
        raise TooLargeForOracleError("%d histories exceed the model-search limit %d" % (n, limit))
    rows = list(model.constraints())
    best = [None]

    def evaluate(assign):
        ones = {"x_%d_%d" % (i, j) for i, j in enumerate(assign)}
        ones.update("p_%d" % j for j in assign)
        if model.deterministic:
            for a in range(m):
                for i, l in enumerate(model.z[a]):
                    if l is not None:
                        ones.add("y_%d_%d_%d" % (a, assign[i], assign[l]))
        for _, terms, sense, rhs in rows:
            total = sum(coef for coef, var in terms if var in ones)
            if (total != rhs) if sense == "=" else (total > rhs):
                return None
        return len(set(assign))

    assign = [0] * n

    def recurse(v, used):
        if v == n:
            cost = evaluate(assign)
            if cost is not None and (best[0] is None or cost < best[0]):
                best[0] = cost
            return
        for s in range(used + 1):
            assign[v] = s
            recurse(v + 1, max(used, s + 1))

    recurse(0, 0)
    return best[0]
