"""Maximal cliques, exact minimum clique cover and the cover pipeline.

The pipeline follows the reduction of the non-deterministic problem to
clique partitioning: one pass of the completion search
(``exact._clique_partitions``) proves the fewest cliques that partition
the histories and enumerates every partition into that many; each is
made deterministic by successor-signature splitting, and the smallest
result is built. ``bron_kerbosch`` and ``min_clique_cover`` work on int
bitsets of vertices; the cover search is bounded below by a greedy
independent set of the uncovered vertices. The pipeline calls neither:
they prove the clique-partition optimum independently of the completion
search, so each checks the other. Every search here, like those of
``exact``, runs on the one explicit stack ``exact._leaves``, so at any
depth the pipeline either returns or overflows the cover cap.
"""

from dataclasses import dataclass

from .errors import CoverOverflowError
from .exact import _bitsets, _clique_partitions, _greedy_is, _leaves, _vertices
from .machine import StatePartition, build_machine, split_to_deterministic
from .stat_tests import TestConfig, compatibility_graph


def bron_kerbosch(graph):
    """All maximal cliques, each a sorted tuple of vertex indices, the
    list sorted lexicographically.

    Classic Bron-Kerbosch with pivoting, on int bitsets and on the shared
    depth-first loop: the pivot is the vertex of P union X with the most
    neighbours inside P (lowest index on ties), and only non-neighbours of
    the pivot are branched on.
    """
    nbrs = [a & ~(1 << v) for v, a in enumerate(_bitsets(graph))]

    def extend(r, p, x):
        pivot = max(_vertices(p | x), key=lambda u: (p & nbrs[u]).bit_count())
        for v in _vertices(p & ~nbrs[pivot]):
            bit = 1 << v
            yield r | bit, p & nbrs[v], x & nbrs[v]
            p ^= bit
            x |= bit

    root = 0, (1 << len(nbrs)) - 1, 0
    leaves = _leaves(root, lambda node: extend(*node) if node[1] | node[2] else None)
    return sorted(_vertices(r) for r, _, _ in leaves)


@dataclass(frozen=True)
class CoverResult:
    """A minimum clique cover: the optimum count and the chosen cliques,
    sorted; the cliques may overlap."""

    optimum: int
    cover: tuple
    k_upper: int | None = None


def min_clique_cover(cliques, n_vertices, k_upper=None):
    """Exact minimum number of maximal cliques covering all vertices.

    Branch and bound over the uncovered vertices, seeded with a greedy
    cover as the incumbent. A branch is cut when the cliques chosen plus a
    greedy independent set of the uncovered vertices (vertices no given
    clique holds together, so each needs its own clique) cannot beat the
    incumbent; that cuts no strictly better cover, so the first optimum
    found is the same as without the bound. k_upper (a heuristic state
    count the caller may pass, such as a cssr machine's) is only recorded
    on the result; it does not constrain the search, so a wrong bound
    cannot make the result wrong.
    """
    cliques = [tuple(sorted(c)) for c in cliques]
    masks = [sum(1 << v for v in c) for c in cliques]
    full = (1 << n_vertices) - 1
    covered = 0
    for m in masks:
        covered |= m
    if covered != full:
        raise ValueError("cliques do not cover the vertex set")

    containing = [[] for _ in range(n_vertices)]
    adj = [0] * n_vertices
    for ci, c in enumerate(cliques):
        for v in c:
            containing[v].append(ci)
            adj[v] |= masks[ci]

    # greedy incumbent: repeatedly take the clique covering the most
    # still-uncovered vertices (lowest index on ties)
    uncovered = full
    best = ()
    while uncovered:
        gains = [(uncovered & m).bit_count() for m in masks]
        ci = gains.index(max(gains))
        best += (ci,)
        uncovered &= ~masks[ci]

    def branches(node):
        uncovered, chosen = node
        if not uncovered:
            return None
        if len(chosen) + _greedy_is(adj, uncovered).bit_count() >= len(best):
            return iter(())
        v = (uncovered & -uncovered).bit_length() - 1
        return ((uncovered & ~masks[ci], chosen + (ci,)) for ci in containing[v])

    for _, chosen in _leaves((full, ()), branches):
        if len(chosen) < len(best):
            best = chosen
    cover = tuple(sorted(cliques[ci] for ci in best))
    return CoverResult(len(best), cover, k_upper)


def enumerate_exact_covers(graph, optimum=None, cap=10000):
    """Every partition of the vertices into exactly ``optimum`` cliques,
    blocks ordered by their smallest vertex, in the first-fit order of
    ``exact._clique_partitions``. When optimum is None it is the fewest
    cliques, proven in the same pass; a graph without vertices then raises
    ValueError. Raises CoverOverflowError past ``cap``. The search runs on
    an explicit stack, so it has no depth limit."""
    adj = _bitsets(graph)
    if optimum is None and not adj:
        raise ValueError("no histories to assign")
    covers = []
    vertices = list(range(len(adj)))  # one int per vertex, shared by every cover
    for k, assign, _ in _clique_partitions(adj, optimum):
        blocks = [[] for _ in range(k)]
        for v, s in zip(vertices, assign):
            blocks[s].append(v)
        covers.append(tuple(map(tuple, blocks)))
        if len(covers) > cap:
            raise CoverOverflowError("more than %d exact covers of %d cliques" % (cap, k))
    return covers


def reconstruct_deterministic(cover, W, wc):
    """Turn one exact cover (blocks of vertex indices) into a
    deterministic partition by successor-signature splitting."""
    state = {v: s for s, block in enumerate(cover) for v in block}
    if sorted(state) != list(range(len(W))) or sum(map(len, cover)) != len(W):
        raise ValueError("cover is not a partition of the vertices")
    part = StatePartition(tuple(tuple(h) for h in W), tuple(state[v] for v in range(len(W))))
    return split_to_deterministic(part, wc)


@dataclass(frozen=True)
class PipelineResult:
    """Everything the cover pipeline produced: the selected machine, its
    partition, the graph, the fewest cliques that partition it, the exact
    covers tried and the final state count of each."""

    machine: object
    partition: object
    graph: object
    optimum: int
    covers: tuple
    final_counts: tuple


def clique_pipeline(wc, config=None, cap=10000):
    """Infer a machine by minimum clique partition plus deterministic
    reconstruction, trying every partition into the fewest cliques (proven
    and enumerated by one ``enumerate_exact_covers`` pass) and keeping the
    deterministic split with the fewest states (first in enumeration order
    on ties). Only that partition's machine is built, since a machine has
    one state per block."""
    cfg = config or TestConfig()
    graph = compatibility_graph(wc, cfg)
    covers = enumerate_exact_covers(graph, cap=cap)
    parts = [reconstruct_deterministic(cover, graph.vertices, wc) for cover in covers]
    best = min(parts, key=lambda part: part.num_states)
    return PipelineResult(
        build_machine(wc, best),
        best,
        graph,
        len(covers[0]),
        tuple(covers),
        tuple(part.num_states for part in parts),
    )
