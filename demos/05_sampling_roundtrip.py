#!/usr/bin/env python3
"""Sample from an inferred machine and re-infer from the sample.

Closes the loop: infer the 3-state machine from the example sequence,
generate 50,000 symbols from it, re-estimate the state-conditional
distributions from the sample, and check they come back within sampling
noise. Also shows the JSON and DOT renderings used by the command line.
"""

import numpy as np

from minpfsa import (
    clique_pipeline,
    count_windows,
    from_json,
    gen_fixture,
    sample,
    state_dist,
    to_dot,
    to_json,
)

wc = count_windows(gen_fixture(), 2)
machine = clique_pipeline(wc).machine
render = machine.alphabet.render

print("inferred machine: %d states" % machine.num_states)
for j, block in enumerate(machine.states):
    print("  q%d = {%s}" % (j + 1, ",".join(render(h) for h in block)))

N = 50000
seq = sample(machine, N, seed=20260825)
print("\nsampled %d symbols, first 40: %s" % (N, seq.text()[:40]))

recount = count_windows(seq, 2)
print("\nstate-conditional distributions, inferred vs resampled:")
worst = 0.0
for j, block in enumerate(machine.states):
    expect = machine.prob_rows()[j]
    got = state_dist(recount, block)
    worst = max(worst, float(np.abs(got - expect).max()))
    print("  q%d  expected %s  resampled %s" % (
        j + 1, np.round(expect, 4), np.round(got, 4)))
print("largest deviation: %.4f" % worst)

# the machine also re-infers to the same shape from its own output
again = clique_pipeline(recount).machine
print("\nre-inference from the sample: %d states" % again.num_states)

doc = to_json(machine)
print("\nJSON rendering (%d bytes), round trips: %s" % (
    len(doc), to_json(from_json(doc)) == doc))

print("\nDOT rendering:")
for line in to_dot(machine).splitlines():
    print("  " + line)
