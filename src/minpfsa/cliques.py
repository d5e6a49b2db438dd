"""Maximal-clique enumeration, exact minimum clique cover and the
cover-based inference pipeline.

The pipeline mirrors the reduction of the non-deterministic minimum-state
problem to clique partitioning: enumerate the maximal cliques of the
compatibility graph, cover the histories with the fewest cliques,
enumerate every partition of the histories into that many cliques, make
each one deterministic by successor-signature splitting, and build the
machine of the partition with the fewest final states.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CoverOverflowError
from .exact import _adjacency
from .machine import StatePartition, build_machine, split_to_deterministic
from .stat_tests import TestConfig, compatibility_graph


def bron_kerbosch(graph):
    """All maximal cliques, each a sorted tuple of vertex indices, the
    list sorted lexicographically.

    Classic recursion with pivoting: the pivot is the vertex of P union X
    with the most neighbours inside P (lowest index on ties), and only
    non-neighbours of the pivot are branched on.
    """
    mu = _adjacency(graph)
    n = len(mu)
    neighbours = [set(np.nonzero(mu[v])[0].tolist()) - {v} for v in range(n)]
    cliques = []

    def extend(r, p, x):
        if not p and not x:
            cliques.append(tuple(sorted(r)))
            return
        pivot = max(sorted(p | x), key=lambda u: len(p & neighbours[u]))
        for v in sorted(p - neighbours[pivot]):
            extend(r | {v}, p & neighbours[v], x & neighbours[v])
            p.remove(v)
            x.add(v)

    extend(set(), set(range(n)), set())
    return sorted(cliques)


@dataclass(frozen=True)
class CoverResult:
    """A minimum clique cover: the optimum count, the chosen cliques
    (sorted), and one vertex-to-clique assignment resolving overlaps by
    first chosen clique."""

    optimum: int
    cover: tuple
    assignment: tuple
    k_upper: int | None = None


def min_clique_cover(cliques, n_vertices, k_upper=None):
    """Exact minimum number of maximal cliques covering all vertices.

    Branch and bound over the uncovered vertices, seeded with a greedy
    cover as the incumbent. k_upper (a heuristic state count the caller
    may pass, such as a cssr machine's) is only recorded on the result;
    it does not constrain the search, so a wrong bound cannot make the
    result wrong. clique_pipeline passes none.
    """
    cliques = [tuple(sorted(c)) for c in cliques]
    all_covered = set()
    for c in cliques:
        all_covered.update(c)
    if all_covered != set(range(n_vertices)):
        raise ValueError("cliques do not cover the vertex set")

    containing = [[] for _ in range(n_vertices)]
    for ci, c in enumerate(cliques):
        for v in c:
            containing[v].append(ci)

    # greedy incumbent: repeatedly take the clique covering the most
    # still-uncovered vertices (lowest index on ties)
    uncovered = set(range(n_vertices))
    greedy = []
    while uncovered:
        gains = [len(uncovered & set(c)) for c in cliques]
        ci = int(np.argmax(gains))
        greedy.append(ci)
        uncovered -= set(cliques[ci])
    best = {"count": len(greedy), "chosen": tuple(greedy)}

    chosen = []

    def recurse(uncovered):
        if not uncovered:
            if len(chosen) < best["count"]:
                best["count"] = len(chosen)
                best["chosen"] = tuple(chosen)
            return
        if len(chosen) + 1 >= best["count"]:
            return
        v = min(uncovered)
        for ci in containing[v]:
            chosen.append(ci)
            recurse(uncovered - set(cliques[ci]))
            chosen.pop()

    recurse(frozenset(range(n_vertices)))

    chosen_cliques = tuple(sorted(cliques[ci] for ci in best["chosen"]))
    assignment = [None] * n_vertices
    for c in chosen_cliques:
        for v in c:
            if assignment[v] is None:
                assignment[v] = c
    return CoverResult(best["count"], chosen_cliques, tuple(assignment), k_upper)


def enumerate_exact_covers(graph, optimum, cap=10000):
    """Every partition of the vertices into exactly ``optimum`` cliques.

    Blocks need not be maximal. First-fit enumeration keeps each partition
    unique and orders blocks by their smallest vertex. Raises
    CoverOverflowError past ``cap`` partitions.
    """
    mu = _adjacency(graph)
    n = len(mu)
    covers = []
    blocks = []

    def recurse(v):
        if v == n:
            if len(blocks) == optimum:
                covers.append(tuple(tuple(b) for b in blocks))
                if len(covers) > cap:
                    raise CoverOverflowError(
                        "more than %d exact covers; raise the cap to enumerate them" % cap
                    )
            return
        if len(blocks) + (n - v) < optimum:
            return
        for b in blocks:
            if all(mu[v][u] for u in b):
                b.append(v)
                recurse(v + 1)
                b.pop()
        if len(blocks) < optimum:
            blocks.append([v])
            recurse(v + 1)
            blocks.pop()

    recurse(0)
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
    partition, the graph, the maximal cliques, the minimum cover, the
    exact covers tried and the final state count of each."""

    machine: object
    partition: object
    graph: object
    cliques: tuple
    cover: CoverResult
    covers: tuple
    final_counts: tuple


def clique_pipeline(wc, config=None, cap=10000):
    """Infer a machine by minimum clique cover plus deterministic
    reconstruction, trying every exact cover and keeping the partition with
    the fewest states (first in enumeration order on ties). Only that
    partition's machine is built, since a machine has one state per block.
    The cover's k_upper is None: the pipeline runs no heuristic."""
    cfg = config or TestConfig()
    graph = compatibility_graph(wc, cfg)
    W = list(graph.vertices)
    cliques = bron_kerbosch(graph)
    cover = min_clique_cover(cliques, len(W))
    covers = enumerate_exact_covers(graph, cover.optimum, cap)

    best_partition = None
    counts = []
    for exact_cover in covers:
        part = reconstruct_deterministic(exact_cover, W, wc)
        counts.append(part.num_states)
        if best_partition is None or part.num_states < best_partition.num_states:
            best_partition = part

    return PipelineResult(
        build_machine(wc, best_partition),
        best_partition,
        graph,
        tuple(cliques),
        cover,
        tuple(covers),
        tuple(counts),
    )
