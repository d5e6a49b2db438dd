#!/usr/bin/env python3
"""Tour of the clique layer that powers the cover pipeline.

Starts from the example sequence's compatibility graph and walks through
maximal-clique enumeration, the exact minimum cover, enumeration of all
exact covers at the optimum, and the deterministic reconstruction of
each. Ends with the same problem expressed as an explicit 0/1 integer
program, solvable by any LP/IP solver that reads LP text.
"""

from minpfsa import (
    bron_kerbosch,
    build_ip_model,
    build_machine,
    compatibility_graph,
    count_windows,
    enumerate_exact_covers,
    gen_fixture,
    min_clique_cover,
    reconstruct_deterministic,
    solve_ip_model,
    succ_table,
    to_lp_text,
)

seq = gen_fixture()
wc = count_windows(seq, 2)
graph = compatibility_graph(wc)
render = seq.alphabet.render
names = [render(h) for h in graph.vertices]

print("vertices:", " ".join("%d=%s" % (i, n) for i, n in enumerate(names)))
print("edges:   ", graph.edges())

cliques = bron_kerbosch(graph)
print("\nmaximal cliques:")
for c in cliques:
    print("  %s = {%s}" % (c, ",".join(names[v] for v in c)))

cover = min_clique_cover(cliques, len(names))
print("\nminimum cover: %d cliques %s" % (cover.optimum, cover.cover))

covers = enumerate_exact_covers(graph, cover.optimum)
print("\nall exact covers at the optimum:")
for i, exact_cover in enumerate(covers):
    shown = ["{%s}" % ",".join(names[v] for v in b) for b in exact_cover]
    part = reconstruct_deterministic(exact_cover, graph.vertices, wc)
    machine = build_machine(wc, part)
    print("  cover %d: %s -> %d states after determinization" % (
        i, " ".join(shown), machine.num_states))

# one cover survives determinization at 3 states; the other needs a split
# because 11 and 10 disagree on where symbol 0 leads

model = build_ip_model(graph, succ_table(wc, graph.vertices))
counts = model.variable_counts()
print("\ninteger program: %d x, %d y, %d p variables, %d constraints" % (
    counts["x"], counts["y"], counts["p"], sum(1 for _ in model.constraints())))
print("exhaustive solve of the program: %d states" % solve_ip_model(model))

lp = to_lp_text(model)
print("\nfirst lines of the LP text:")
for line in lp.splitlines()[:8]:
    print("  " + line)
print("  ... (%d lines total)" % len(lp.splitlines()))
