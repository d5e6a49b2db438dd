"""Exact minimum-state searches.

``solve_msdpfsa`` finds the fewest states of a deterministic machine
consistent with the compatibility relation and the successor table;
``solve_msndpfsa`` drops determinism, which makes the problem clique
partitioning. Both work on int bitsets of the compatibility graph and
return the lexicographically least optimum, numbered first fit: history
i may only open the lowest unused state. ``solve_msdpfsa`` runs a
first-fit search (``_first_fit``) that checks each transition once,
when the later of its two histories is placed, and whose forward
checking cuts the branches whose unplaceable histories need too many
new states. Clique partitions have one engine, the DSATUR-style
completion search of ``_clique_partitions``: it proves the fewest
cliques k, then walks the partitions into k cliques in first-fit order,
entering a branch only when the search completes it.
``solve_msndpfsa`` takes its first partition and
``cliques.enumerate_exact_covers`` all of them, from the same pass when
it is not given k. Every search expands value nodes, never changed in
place, on one explicit stack, ``_leaves``, so none has a depth limit.

``build_ip_model`` states the problem as a 0/1 integer program.
``to_lp_text`` returns its LP text and ``write_lp`` writes the same text
to a file block by block; both copy each symbol's transition rows, and
the compatibility rows, from a template formatted once with placeholders
for the history indices. ``oracles.solve_ip_model`` solves that text.
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


def _bitsets(graph):
    """Each vertex's closed neighbourhood (itself included) as an int
    bitset: bit u of entry v is set when u and v are compatible."""
    mu = _adjacency(graph)
    if mu.size == 0:
        return []
    rows = np.packbits(mu, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") | 1 << v for v, row in enumerate(rows)]


def _greedy_is(adj, mask):
    """A greedy independent set of the vertices in the bitset mask, lowest
    index first, as a bitset. adj holds closed neighbourhoods."""
    chosen = 0
    while mask:
        bit = mask & -mask
        chosen |= bit
        mask &= ~adj[bit.bit_length() - 1]
    return chosen


def _vertices(mask):
    """The members of a bitset, ascending."""
    out = []
    while mask:
        bit = mask & -mask
        out.append(bit.bit_length() - 1)
        mask ^= bit
    return tuple(out)


def greedy_independent_set(mu):
    """Grow an independent set greedily, lowest index first."""
    adj = _bitsets(mu)
    return _vertices(_greedy_is(adj, (1 << len(adj)) - 1))


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact search: the minimum state count, the
    lexicographically least optimal partition, the number of search nodes
    explored and the wall-clock seconds spent. Those are first-fit nodes
    for ``solve_msdpfsa`` and, for ``solve_msndpfsa``, the completion-search
    nodes of the proof and of the walk to the first partition."""

    optimum: int
    partition: StatePartition
    explored: int
    elapsed: float = 0.0


def _leaves(root, children):
    """The leaves below root, depth first, on one explicit stack: children(node)
    is None at a leaf, else an iterator over the node's children in order.
    Nodes are values, never changed in place: a node's children depend only
    on the node and on the bound learned from the subtrees walked before it
    (``_first_fit``'s incumbent, the completion search's failed subproblems)."""
    stack = [iter((root,))]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
        elif (below := children(node)) is None:
            yield node
        else:
            stack.append(below)


def _first_fit(adj, succ):
    """The fewest states of a partition that is deterministic under succ,
    the lexicographically least such partition, and the number of search
    nodes explored. adj holds each vertex's compatible vertices as a bitset
    (``_bitsets``).

    The search walks the first-fit assignments in lexicographic order from
    the greedy independent-set bound up to n states; each partition it
    reaches lowers the bound above to one state fewer, until the two
    bounds cross. Each open state keeps the bitset of vertices that fit
    it, so placing a vertex is one bit test, and each transition is checked
    for determinism once, when the later of its endpoints is placed, since
    first fit has then placed both. Forward checking prunes a node
    when the later vertices that fit no open state hold a greedy
    independent set too large for the states left below the upper bound.
    It cuts only subtrees without a better partition, so the result is
    that of the plain search.

    No node needs a check against the lower bound: every state is a
    clique, so the placed members of the greedy independent set lie in
    distinct states, at most ``used`` of them, and the others number at
    most n - v, so used + n - v >= low at every node. The lower bound only
    stops the search, once a partition meets it.

    The search runs on ``_leaves`` over value nodes (v, assign, fit,
    targets): the states of the first v vertices, the fit bitset of each
    open state, and the target each (state, symbol) pair is bound to. A
    child shares its parent's targets unless it binds a new pair, and a
    leaf's assign is its partition."""
    n = len(adj)
    links = [[] for _ in range(n)]
    for u, row in enumerate(succ):
        for a, l in enumerate(row):
            if l is not None:
                links[max(u, l)].append((u, a, l))

    low, high = _greedy_is(adj, (1 << n) - 1).bit_count(), n
    best = None
    full = (1 << n) - 1
    explored = 0

    def children(node):
        nonlocal explored
        explored += 1
        return None if node[0] == n else branches(*node)

    def branches(v, assign, fit, targets):
        used = len(fit)
        if used + n - v > high:
            opened = 0
            for f in fit:
                opened |= f
            free = full >> v << v & ~opened
            if used + free.bit_count() > high and used + _greedy_is(adj, free).bit_count() > high:
                return
        for s in range(used + 1):
            if s == used:
                if used >= high:
                    break
            elif not fit[s] >> v & 1:
                continue
            placed = assign + (s,)
            bound = targets
            for u, a, l in links[v]:
                key = (placed[u], a)
                known = bound.get(key)
                if known is None:
                    if bound is targets:
                        bound = targets.copy()
                    bound[key] = placed[l]
                elif known != placed[l]:
                    break  # the state would get two targets on one symbol
            else:
                trial = fit[:s] + (fit[s] & adj[v],) + fit[s + 1:] if s < used else fit + (adj[v],)
                yield v + 1, placed, trial, bound
                if used > high or high < low:
                    return

    for _, assign, fit, _ in _leaves((0, (), (), {}), children):
        best, high = assign, len(fit) - 1
    return high + 1, best, explored


def _clique_partitions(adj, k=None):
    """Every partition of the graph into exactly k cliques, in first-fit
    order: history i may only open the lowest unused state, so each
    partition comes once, in lexicographic assignment order. Each is
    yielded as (k, assign, explored), explored being the completion-search
    nodes so far. When k is None, k is first proven the fewest cliques.

    The completion search asks whether the open states, each with the
    bitset of vertices that fit it, plus ``spare`` new states can take the
    other vertices. A vertex that fits no open state takes a new one, and
    the search fails when those vertices hold a greedy independent set
    larger than spare. Otherwise it places, DSATUR-like, a vertex that
    fits the fewest open states in each of them in turn, then in a new
    one. It remembers the subproblems that failed, for every k. Its first
    completion from no open state at k = greedy independent-set bound,
    k + 1, ... proves k and is the first witness.

    The partitions are then walked depth first, history by history and
    state by state. A branch is entered only when the completion search
    completes it, which need not be asked of the witness's own state, and
    the completion found is the witness below that branch. A completion
    into fewer than k cliques splits into exactly k while the open states
    plus the histories left number at least k, so with that check every
    branch entered ends in a partition.

    Both run on ``_leaves``, at any depth, over nodes never changed in
    place: (fits, rest, spare) and (v, fits, witness, assign)."""
    n = len(adj)
    explored = 0
    label = [0] * n  # the index in fits of each vertex's state on the current path
    failed = set()

    def placements(node):
        nonlocal explored
        explored += 1
        return place(*node) if node[1] else None

    def place(fits, rest, spare):
        key = (rest, spare, tuple(sorted(f & rest for f in fits if f & rest)))
        if key in failed:
            return
        once = twice = thrice = 0
        for f in fits:
            thrice |= twice & f
            twice |= once & f
            once |= f
        zero = rest & ~once
        if zero:
            if spare and _greedy_is(adj, zero).bit_count() <= spare:
                w = (zero & -zero).bit_length() - 1
                label[w] = len(fits)
                yield fits + (adj[w],), rest & ~(1 << w), spare - 1
        else:
            # the vertices that fit one, two, or three or more open states
            for fewest in (rest & ~twice, rest & twice & ~thrice, rest & thrice):
                if fewest:
                    break
            w = (fewest & -fewest).bit_length() - 1  # the lowest, if each fits one state
            if fewest & twice:
                w = min(_vertices(fewest), key=lambda u: (adj[u] & rest).bit_count())
            bit = 1 << w
            for s, f in enumerate(fits):
                if f & bit:
                    label[w] = s
                    yield fits[:s] + (f & adj[w],) + fits[s + 1:], rest & ~bit, spare
            if spare:
                label[w] = len(fits)
                yield fits + (adj[w],), rest & ~bit, spare - 1
        failed.add(key)  # reached only once every branch has failed

    def completes(fits, rest, spare):
        return next(_leaves((fits, rest, spare), placements), None) is not None

    witness = None
    if k is None:
        # k = n always completes, so the loop ends there at the latest
        for k in range(_greedy_is(adj, (1 << n) - 1).bit_count(), n + 1):
            if completes((), (1 << n) - 1, k):
                break
        witness = label[:]

    def step(v, fits, witness, assign):
        used = len(fits)
        bit = 1 << v
        for s in range(min(used + 1, k)):
            if s < used and (not fits[s] & bit or used + n - v == k):
                continue
            trial = fits[:s] + (fits[s] & adj[v],) + fits[s + 1:] if s < used else fits + (adj[v],)
            below = witness
            # search unless the witness puts v in state s, or in a state not open yet
            if witness is None or min(witness[v], used) != s:
                if not completes(trial, (1 << n) - (bit << 1), k - len(trial)):
                    continue
                below = label[:]
                below[v] = s  # the completion labels only the vertices after v
            t = below[v]
            if t != s:
                # the witness's states from used on are not open yet: swap
                # the one v takes with the one the first fit numbers s
                below = [s if x == t else t if x == s else x for x in below]
            yield v + 1, trial, below, assign + (s,)

    if k > n:  # fewer histories than cliques
        return
    walk = _leaves((0, (), witness, ()), lambda node: None if node[0] == n else step(*node))
    for _, _, _, assign in walk:
        yield k, assign, explored


def _solved(graph, search):
    """Run ``search(adj)`` on the graph's bitsets, timed, and wrap the
    optimum, assign vector and node count it returns as a SolveResult.
    Every search runs on ``_leaves``, so no input is too deep for it."""
    t0 = time.perf_counter()
    adj = _bitsets(graph)
    if not adj:
        raise ValueError("no histories to assign")
    k, assign, explored = search(adj)
    W = getattr(graph, "vertices", tuple((i,) for i in range(len(adj))))
    part = StatePartition(tuple(tuple(h) for h in W), assign)
    return SolveResult(k, part, explored, time.perf_counter() - t0)


def solve_msdpfsa(graph, succ):
    """Minimum states of a deterministic machine consistent with the
    compatibility graph and successor table."""
    if succ is None:
        raise ValueError("the deterministic search needs a successor table")
    return _solved(graph, lambda adj: _first_fit(adj, succ))


def solve_msndpfsa(graph):
    """Minimum states without the determinism requirement: the minimum
    number of cliques that partition the compatibility graph, proven and
    recovered by one completion search: the first partition of
    ``_clique_partitions``."""
    return _solved(graph, lambda adj: next(_clique_partitions(adj)))


# ---------------------------------------------------------------------------
# explicit integer-program view


@dataclass(frozen=True)
class IPModel:
    """The assignment problem as an explicit 0/1 program.

    Variables: x[i][j] assigns history i to state j, y[a][j][k] marks a
    transition from state j to state k on symbol a, p[j] marks state j as
    used. z[a][i] are constants: the observed shift-append successor of
    history i under a, or None. The objective is the sum of p. The rows
    are defined by the LP text that ``to_lp_text`` returns: the variables
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


# Placeholders for the history indices i and l in the row templates: LP
# text never contains a control character.
_I, _L = "\0", "\1"


def _lp_blocks(model):
    """The LP text of the model as a sequence of blocks, family by family
    in the order of the IPModel docstring.

    Each symbol's n * n transition rows are formatted once, as a template
    with placeholders for i and l, so each observed successor costs two
    substitutions; a self-successor takes a second template whose j == k
    rows carry coefficient 2. The compatibility rows of each incompatible
    pair come from one template over j in the same way."""
    n, m, r = model.n, model.n_symbols, range(model.n)
    x = [["x_%d_%d" % (i, j) for j in r] for i in r]
    y = [[["y_%d_%d_%d" % (a, j, k) for k in r] for j in r]
         for a in range(m if model.deterministic else 0)]
    p = ["p_%d" % j for j in r]
    yield "Minimize\n obj: %s\nSubject To\n" % " + ".join(p)
    yield "".join(" assign_%d: %s = 1\n" % (i, " + ".join(x[i])) for i in r)
    for a, plane in enumerate(y):
        rows = [" trans_%d_%s_%d_%d: x_%s_%d + x_%s_%d - %s <= 1\n"
                % (a, _I, j, k, _I, j, _L, k, plane[j][k]) for j in r for k in r]
        pair, own = "".join(rows), None
        for i, l in enumerate(model.z[a]):
            if l is None:
                continue
            if l != i:
                yield pair.replace(_I, str(i)).replace(_L, str(l))
                continue
            if own is None:
                for j in r:
                    rows[j * n + j] = " trans_%d_%s_%d_%d: 2 x_%s_%d - %s <= 1\n" % (
                        a, _I, j, j, _I, j, plane[j][j])
                own = "".join(rows).replace(_L, _I)
            yield own.replace(_I, str(i))
    if y:
        yield "".join(" det_%d_%d: %s <= 1\n" % (j, a, " + ".join(y[a][j]))
                      for j in r for a in range(m))
    compat = "".join(" compat_%s_%s_%d: x_%s_%d + x_%s_%d <= 1\n" % (_I, _L, j, _I, j, _L, j)
                     for j in r)
    for i in r:
        for l in range(i + 1, n):
            if not model.mu[i][l]:
                yield compat.replace(_I, str(i)).replace(_L, str(l))
    coef = "" if n == 1 else "%d " % n
    yield "".join(" open_%d: %s - %s%s <= 0\n" % (j, " + ".join(row[j] for row in x), coef, p[j])
                  for j in r)
    binary = [v for row in x for v in row] + [v for pl in y for row in pl for v in row] + p
    yield "Binary\n %s\nEnd\n" % "\n ".join(binary)


def to_lp_text(model):
    """Serialize the model in LP format: the blocks of ``write_lp``, joined."""
    return "".join(_lp_blocks(model))


def write_lp(model, fh):
    """Write the model's LP text to the text file fh block by block, so the
    whole text is never held at once. The bytes are those of
    ``to_lp_text``."""
    fh.writelines(_lp_blocks(model))
