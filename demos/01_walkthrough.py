#!/usr/bin/env python3
"""Walk the bundled example sequence through every stage of inference.

The sequence is 648 binary symbols: a long run of zeros followed by a
noisier tail. It is small enough to print every intermediate artifact,
and it is the canonical case where the splitting heuristic lands on four
states while the exact search needs only three.
"""

import numpy as np

from minpfsa import (
    TestConfig,
    build_machine,
    compatibility_graph,
    cond_dist,
    count_windows,
    cssr_reconstruct,
    cssr_split,
    gen_fixture,
    pvalue,
    solve_msdpfsa,
    succ_table,
)

seq = gen_fixture()
text = seq.text()
print("sequence: %d symbols, starts %s..., ends ...%s" % (len(text), text[:12], text[-12:]))

wc = count_windows(seq, 2)
render = seq.alphabet.render

print("\nlength-2 window counts:")
for h in [(0, 0), (0, 1), (1, 1), (1, 0)]:
    print("  %s  %3d" % (render(h), wc.count(h)))

print("\nconditional next-symbol distributions:")
for h in [(0, 0), (0, 1), (1, 1), (1, 0)]:
    d = cond_dist(wc, h)
    print("  p(. | %s) = (%.4f, %.4f)" % (render(h), d[0], d[1]))

cfg = TestConfig()
print("\npairwise p-values (%s test):" % cfg.test)
hs = [(0, 0), (0, 1), (1, 1), (1, 0)]
for i, a in enumerate(hs):
    cells = []
    for b in hs[:i]:
        p = pvalue(wc.extension_counts(a), wc.extension_counts(b), cfg)
        cells.append("%s:%.4f" % (render(b), p))
    print("  %s  %s" % (render(a), "  ".join(cells)))

# splitting: grow histories level by level, clustering each level by the
# two-sample test against the states formed so far
print("\nsplitting trace:")
for level in range(wc.L + 1):
    part = cssr_split(count_windows(seq, level), cfg)
    shown = ["{%s}" % ",".join(render(h) or "''" for h in b) for b in part.blocks()]
    print("  level %d: %s" % (level, "  ".join(shown)))

# reconstruction: split states until every (state, symbol) pair leads to
# a single successor state
heuristic = cssr_reconstruct(part, wc)
print("\nafter reconstruction: %d states" % heuristic.num_states)
for b in heuristic.blocks():
    print("  {%s}" % ",".join(render(h) for h in b))

# the exact search over the same compatibility structure
graph = compatibility_graph(wc, cfg)
print("\ncompatible pairs: %s" % [
    (render(graph.vertices[i]), render(graph.vertices[j])) for i, j in graph.edges()
])
result = solve_msdpfsa(graph, succ_table(wc, graph.vertices))
print("exact deterministic optimum: %d states (%d nodes explored, %.6fs)" % (
    result.optimum, result.explored, result.elapsed))
for b in result.partition.blocks():
    print("  {%s}" % ",".join(render(h) for h in b))

machine = build_machine(wc, result.partition)
print("\nstate-conditional emissions of the 3-state machine:")
for j, row in enumerate(machine.prob_rows()):
    members = ",".join(render(h) for h in machine.states[j])
    print("  q%d {%s}: %s" % (j + 1, members, np.round(row, 4)))

print("\nheuristic %d states vs exact %d states on the same input" % (
    heuristic.num_states, result.optimum))
