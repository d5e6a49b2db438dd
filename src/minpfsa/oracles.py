"""Exhaustive oracles that the tests and demo 03 check the solvers
against. They enumerate every partition (or every assignment of the IP
model, checked against the rows parsed back from its LP text) and refuse
inputs above a small size limit; nothing in the package calls them.
"""

from .errors import TooLargeForOracleError
from .exact import _adjacency, to_lp_text


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


def lp_rows(text):
    """The constraint rows of LP text as written by ``to_lp_text``: a list
    of (name, terms, sense, rhs), where terms is a tuple of (coef,
    variable name) pairs and sense is "=" or "<="."""
    body = text.split("\nSubject To\n", 1)[1].split("\nBinary\n", 1)[0]
    rows = []
    for line in body.splitlines():
        name, expr = line[1:].split(": ", 1)
        *tokens, sense, rhs = expr.split()
        terms, coef = [], 1
        for tok in tokens:
            if tok == "-":
                coef = -1
            elif tok.isdigit():
                coef *= int(tok)
            elif tok != "+":
                terms.append((coef, tok))
                coef = 1
        rows.append((name, tuple(terms), sense, int(rhs)))
    return rows


def solve_ip_model(model, limit=8):
    """Solve the model by exhaustive search over the rows of its LP text.

    Enumerates the assignment space (every x satisfying the assignment
    family, up to state relabelling), derives the induced y and p, then
    keeps the candidate only if every row of ``lp_rows(to_lp_text(model))``
    holds when the variables named in the candidate's set are 1 and all
    others 0. Deliberately independent of the branch-and-bound pruning
    logic, and it checks the file that ``infer --lp`` writes.
    """
    n, m = model.n, model.n_symbols
    if n > limit:
        raise TooLargeForOracleError("%d histories exceed the model-search limit %d" % (n, limit))
    rows = lp_rows(to_lp_text(model))
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
