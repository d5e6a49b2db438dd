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

``build_ip_model`` materializes the same problem as an explicit 0/1
integer program (exportable as LP text) and ``solve_ip_model`` solves that
model by exhaustive search over its own constraints, as an independence
check on the branch-and-bound.
"""

import time
from dataclasses import dataclass, replace

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


def _branch_and_bound(mu, succ, W):
    """Shared search. succ is None for the non-deterministic variant."""
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
            for key in trail:
                del targets[key]
            return None
        return trail

    def undo(trail):
        for key in trail:
            del targets[key]

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
    return SolveResult(best["count"], part, best["explored"])


def solve_msdpfsa(graph, succ):
    """Minimum states of a deterministic machine consistent with the
    compatibility graph and successor table."""
    mu = _adjacency(graph)
    W = getattr(graph, "vertices", tuple((i,) for i in range(len(mu))))
    if succ is None:
        raise ValueError("the deterministic search needs a successor table")
    t0 = time.perf_counter()
    result = _branch_and_bound(mu.tolist(), succ, W)
    return replace(result, elapsed=time.perf_counter() - t0)


def solve_msndpfsa(graph):
    """Minimum states without the determinism requirement. Equals the
    minimum number of cliques that partition the compatibility graph."""
    mu = _adjacency(graph)
    W = getattr(graph, "vertices", tuple((i,) for i in range(len(mu))))
    t0 = time.perf_counter()
    result = _branch_and_bound(mu.tolist(), None, W)
    return replace(result, elapsed=time.perf_counter() - t0)


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
    history i under a, or None. The objective is the sum of p.

    Constraint families (n histories, m symbols, S the state-open scale):
      assignment      for each i:            sum_j x[i][j] = 1
      transition      for a, i, l=succ(i,a), all j, k:
                                             x[i][j] + x[l][k] - y[a][j][k] <= 1
      determinism     for each j, a:         sum_k y[a][j][k] <= 1
      compatibility   for incompatible i<l, all j:  x[i][j] + x[l][j] <= 1
      state-open      for each j:            sum_i x[i][j] <= S * p[j]

    With deterministic=False the y variables and the transition and
    determinism families are omitted; only the co-assignment structure
    remains.
    """

    n: int
    n_symbols: int
    mu: tuple
    z: tuple
    S: int
    deterministic: bool = True

    def variable_counts(self):
        n, m = self.n, self.n_symbols
        return {
            "x": n * n,
            "z": m * n * n,
            "y": m * n * n if self.deterministic else 0,
            "p": n,
        }

    def constraints(self):
        """Materialize every constraint as (name, {var: coef}, sense, rhs)."""
        n, m = self.n, self.n_symbols
        out = []
        for i in range(n):
            out.append(
                ("assign_%d" % i, {("x", i, j): 1 for j in range(n)}, "=", 1)
            )
        if self.deterministic:
            for a in range(m):
                for i in range(n):
                    l = self.z[a][i]
                    if l is None:
                        continue
                    for j in range(n):
                        for k in range(n):
                            coefs = {}
                            # accumulate so a self-successor with j == k gets
                            # coefficient 2 rather than a silently merged 1
                            for var, c in ((("x", i, j), 1), (("x", l, k), 1), (("y", a, j, k), -1)):
                                coefs[var] = coefs.get(var, 0) + c
                            out.append(
                                ("trans_%d_%d_%d_%d" % (a, i, j, k), coefs, "<=", 1)
                            )
            for j in range(n):
                for a in range(m):
                    out.append(
                        (
                            "det_%d_%d" % (j, a),
                            {("y", a, j, k): 1 for k in range(n)},
                            "<=",
                            1,
                        )
                    )
        for i in range(n):
            for l in range(i + 1, n):
                if not self.mu[i][l]:
                    for j in range(n):
                        out.append(
                            (
                                "compat_%d_%d_%d" % (i, l, j),
                                {("x", i, j): 1, ("x", l, j): 1},
                                "<=",
                                1,
                            )
                        )
        for j in range(n):
            coefs = {("x", i, j): 1 for i in range(n)}
            coefs[("p", j)] = -self.S
            out.append(("open_%d" % j, coefs, "<=", 0))
        return out


def build_ip_model(graph, succ, deterministic=True, S=None):
    """Materialize the minimum-state problem for the given compatibility
    graph and successor table. S defaults to the number of histories,
    making p[j] = 1 exactly when state j is occupied. succ may be None
    when deterministic=False."""
    mu = _adjacency(graph)
    n = len(mu)
    if deterministic and succ is None:
        raise ValueError("the deterministic model needs a successor table")
    m = len(succ[0]) if succ else 0
    z = tuple(tuple(succ[i][a] for i in range(n)) for a in range(m))
    return IPModel(
        n, m, tuple(map(tuple, mu.tolist())), z, S if S is not None else n, deterministic
    )


def _var_name(v):
    return "_".join(str(part) for part in v)


def to_lp_text(model):
    """Serialize the model in LP format."""
    lines = ["Minimize", " obj: " + " + ".join("p_%d" % j for j in range(model.n))]
    lines.append("Subject To")
    for name, coefs, sense, rhs in model.constraints():
        terms = []
        for var, coef in coefs.items():
            if coef == 1:
                terms.append("+ %s" % _var_name(var))
            elif coef == -1:
                terms.append("- %s" % _var_name(var))
            else:
                sign = "+" if coef >= 0 else "-"
                terms.append("%s %d %s" % (sign, abs(coef), _var_name(var)))
        expr = " ".join(terms).lstrip("+ ")
        op = {"<=": "<=", ">=": ">=", "=": "="}[sense]
        lines.append(" %s: %s %s %d" % (name, expr, op, rhs))
    lines.append("Binary")
    names = []
    for i in range(model.n):
        for j in range(model.n):
            names.append("x_%d_%d" % (i, j))
    if model.deterministic:
        for a in range(model.n_symbols):
            for j in range(model.n):
                for k in range(model.n):
                    names.append("y_%d_%d_%d" % (a, j, k))
    for j in range(model.n):
        names.append("p_%d" % j)
    lines.extend(" " + nm for nm in names)
    lines.append("End")
    return "\n".join(lines) + "\n"


def solve_ip_model(model, limit=8):
    """Solve the model by exhaustive search over its own constraints.

    Enumerates the assignment space (every x satisfying the assignment
    family, up to state relabelling), derives the induced y and p, then
    keeps the candidate only if every materialized constraint holds.
    Deliberately independent of the branch-and-bound pruning logic.
    """
    n, m = model.n, model.n_symbols
    if n > limit:
        raise TooLargeForOracleError("%d histories exceed the model-search limit %d" % (n, limit))
    constraints = model.constraints()
    best = [None]

    def evaluate(assign):
        x = [[0] * n for _ in range(n)]
        for i, j in enumerate(assign):
            x[i][j] = 1
        y = [[[0] * n for _ in range(n)] for _ in range(m)]
        if model.deterministic:
            for a in range(m):
                for i in range(n):
                    l = model.z[a][i]
                    if l is not None:
                        y[a][assign[i]][assign[l]] = 1
        p = [0] * n
        for j in assign:
            p[j] = 1
        values = {}
        for i in range(n):
            for j in range(n):
                values[("x", i, j)] = x[i][j]
        for a in range(m):
            for j in range(n):
                for k in range(n):
                    values[("y", a, j, k)] = y[a][j][k]
        for j in range(n):
            values[("p", j)] = p[j]
        for name, coefs, sense, rhs in constraints:
            total = sum(coef * values[var] for var, coef in coefs.items())
            if sense == "=" and total != rhs:
                return None
            if sense == "<=" and total > rhs:
                return None
            if sense == ">=" and total < rhs:
                return None
        return sum(p)

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
