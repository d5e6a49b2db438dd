"""State partitions, machine construction, determinism checking, sampling
and the JSON / DOT export formats.

A machine is built from a partition of the length-L histories of a counted
sequence. Each partition block becomes a state, transitions follow the
shift-append successor of each member history, and each state's
next-symbol distribution is the pooled ratio of summed member counts.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import DeadEndError, FormatError
from .sequences import Alphabet, SymbolSequence, state_dist, succ_table, successor

# ---------------------------------------------------------------------------
# partitions


@dataclass(frozen=True)
class StatePartition:
    """A partition of an ordered history list W into states.

    assign[i] is the state index of W[i]. State indices are contiguous,
    starting at 0, and in canonical form they appear in first-fit order
    along W (the first history is in state 0, the first history not in
    state 0 is in state 1, and so on).
    """

    W: tuple
    assign: tuple

    def __post_init__(self):
        if len(self.W) != len(self.assign):
            raise ValueError("assign length does not match W")
        labels = sorted(set(self.assign))
        if labels != list(range(len(labels))):
            raise ValueError("state indices must be contiguous from 0")

    @property
    def num_states(self):
        return max(self.assign) + 1 if self.assign else 0

    def blocks(self):
        """Members of each state, in W order, as a list of tuples."""
        out = [[] for _ in range(self.num_states)]
        for h, s in zip(self.W, self.assign):
            out[s].append(h)
        return [tuple(b) for b in out]

    def state_of(self, history):
        return self.assign[self.W.index(tuple(history))]

    def canonical(self):
        """Renumber states in first-fit order along W."""
        remap = {}
        for s in self.assign:
            if s not in remap:
                remap[s] = len(remap)
        return StatePartition(self.W, tuple(remap[s] for s in self.assign))


def partition_from_blocks(W, blocks):
    """Build a canonical StatePartition from an explicit block list."""
    W = tuple(tuple(h) for h in W)
    lookup = {}
    for s, block in enumerate(blocks):
        for h in block:
            h = tuple(h)
            if h in lookup:
                raise ValueError("history %r appears in two blocks" % (h,))
            lookup[h] = s
    if set(lookup) != set(W):
        raise ValueError("blocks do not cover W exactly")
    return StatePartition(W, tuple(lookup[h] for h in W)).canonical()


# ---------------------------------------------------------------------------
# deterministic refinement shared by the reconstruction steps


def split_to_deterministic(partition, wc):
    """Split partition blocks by successor-state signature until the state
    count is stable.

    Within a block, histories are grouped first-fit: a history joins the
    first group whose signature it does not contradict, where a signature
    maps each symbol to the state of the group members' successors and an
    unobserved (history, symbol) pair imposes no constraint. Growing a
    group can therefore narrow its signature for symbols earlier members
    left open.
    """
    part = partition.canonical()
    succ = succ_table(wc, part.W)
    while True:
        groups = [[] for _ in range(part.num_states)]
        for i, s in enumerate(part.assign):
            sig = {a: part.assign[l] for a, l in enumerate(succ[i]) if l is not None}
            for g in groups[s]:
                if all(g["sig"].get(a, v) == v for a, v in sig.items()):
                    g["sig"].update(sig)
                    g["members"].append(part.W[i])
                    break
            else:
                groups[s].append({"sig": sig, "members": [part.W[i]]})
        new_blocks = [tuple(g["members"]) for block in groups for g in block]
        new_part = partition_from_blocks(part.W, new_blocks)
        if new_part.num_states == part.num_states:
            return new_part
        part = new_part


# ---------------------------------------------------------------------------
# machines


@dataclass(frozen=True)
class PFSA:
    """A probabilistic finite-state automaton over history-labelled states.

    states[j] is the tuple of member histories of state j, ordered so that
    state j's smallest member history is lexicographically below state
    j+1's. delta maps (state, symbol) to a frozenset of target states and
    probs maps (state, symbol) to the emission probability, renormalized
    over the symbols that kept a target. dangling records the
    (state, symbol, history) triples whose successor had no state and were
    dropped from delta.
    """

    alphabet: Alphabet
    states: tuple
    delta: dict
    probs: dict
    start_state: int = 0
    dangling: tuple = ()

    @property
    def num_states(self):
        return len(self.states)

    def is_deterministic(self):
        return not check_determinism(self)

    def prob_rows(self):
        """Per-state emission rows as a num_states x |A| array."""
        rows = np.zeros((len(self.states), len(self.alphabet)))
        for (j, a), p in self.probs.items():
            rows[j, a] = p
        return rows


def check_determinism(machine):
    """Violations of determinism, as (state, symbol, sorted targets) for
    every (state, symbol) pair with more than one target."""
    out = []
    for (j, a), targets in sorted(machine.delta.items()):
        if len(targets) > 1:
            out.append((j, a, tuple(sorted(targets))))
    return out


def build_machine(wc, partition):
    """Build a PFSA from a partition of the length-L histories of wc.

    States are relabelled by smallest contained history. Emission
    probabilities pool the member continuation counts; symbols whose every
    successor fell outside the partition lose their edge and the remaining
    symbols are renormalized.
    """
    part = partition.canonical()
    blocks = part.blocks()
    order = sorted(range(len(blocks)), key=lambda s: min(blocks[s]))
    relabel = {old: new for new, old in enumerate(order)}
    states = tuple(blocks[old] for old in order)

    lookup = {}
    for j, block in enumerate(states):
        for h in block:
            lookup[h] = j

    delta = {}
    dangling = []
    for j, block in enumerate(states):
        for a in range(len(wc.alphabet)):
            targets = set()
            for h in block:
                if wc.count(tuple(h) + (a,)) == 0:
                    continue
                succ = successor(h, a)
                if succ in lookup:
                    targets.add(lookup[succ])
                else:
                    dangling.append((j, a, h))
            if targets:
                delta[(j, a)] = frozenset(targets)

    probs = {}
    for j, block in enumerate(states):
        dist = state_dist(wc, block)
        kept = [a for a in range(len(wc.alphabet)) if (j, a) in delta]
        mass = float(sum(dist.probs[a] for a in kept))
        for a in kept:
            probs[(j, a)] = float(dist.probs[a]) / mass

    mfs = int(np.argmax([wc.count((a,)) for a in range(len(wc.alphabet))]))
    home = tuple([mfs] * wc.L)
    start = lookup.get(home, 0)

    return PFSA(wc.alphabet, states, delta, probs, start, tuple(dangling))


def sample(machine, n, seed):
    """Sample n symbols by walking the machine from the start state.

    The next state follows delta; when a (state, symbol) pair has several
    targets the lowest-indexed one is taken. Reaching a state with no
    outgoing transition raises DeadEndError.
    """
    if n <= 0:
        raise ValueError("sample length must be positive")
    rng = np.random.default_rng(seed)
    state = machine.start_state
    n_sym = len(machine.alphabet)
    out = np.empty(n, dtype=np.int64)
    for t in range(n):
        syms = [a for a in range(n_sym) if (state, a) in machine.probs]
        if not syms:
            raise DeadEndError(
                "state %d has no outgoing transitions after %d symbols" % (state, t)
            )
        weights = np.array([machine.probs[(state, a)] for a in syms])
        a = syms[rng.choice(len(syms), p=weights / weights.sum())]
        out[t] = a
        state = min(machine.delta[(state, a)])
    return SymbolSequence(machine.alphabet, out)


# ---------------------------------------------------------------------------
# file formats


def to_json(machine):
    """Serialize to the JSON interchange format.

    State ids are 1-based in state order. Exporting, importing and
    exporting again yields byte-identical text.
    """
    obj = {
        "alphabet": [str(t) for t in machine.alphabet.symbols],
        "states": [
            {"id": j + 1, "histories": [machine.alphabet.render(h) for h in block]}
            for j, block in enumerate(machine.states)
        ],
        "transitions": [
            {
                "from": j + 1,
                "symbol": str(machine.alphabet.symbols[a]),
                "to": k + 1,
                "prob": machine.probs[(j, a)],
            }
            for (j, a) in sorted(machine.delta)
            for k in sorted(machine.delta[(j, a)])
        ],
    }
    return json.dumps(obj, indent=2) + "\n"


def from_json(text):
    """Parse the JSON interchange format back into a PFSA."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError("not valid JSON: %s" % exc)
    try:
        alphabet = Alphabet(tuple(obj["alphabet"]))
        tok_index = {t: i for i, t in enumerate(alphabet.symbols)}
        ids = [s["id"] for s in obj["states"]]
        id_map = {sid: j for j, sid in enumerate(ids)}
        states = []
        for s in obj["states"]:
            block = []
            for hist in s["histories"]:
                block.append(tuple(tok_index[c] for c in hist))
            states.append(tuple(block))
        delta = {}
        probs = {}
        for tr in obj["transitions"]:
            j = id_map[tr["from"]]
            a = tok_index[tr["symbol"]]
            k = id_map[tr["to"]]
            delta.setdefault((j, a), set()).add(k)
            prev = probs.get((j, a))
            if prev is not None and prev != tr["prob"]:
                raise FormatError(
                    "conflicting probabilities for state %s symbol %s"
                    % (tr["from"], tr["symbol"])
                )
            probs[(j, a)] = tr["prob"]
    except (KeyError, TypeError) as exc:
        raise FormatError("missing or malformed field: %s" % exc)
    delta = {k: frozenset(v) for k, v in delta.items()}
    return PFSA(alphabet, tuple(states), delta, probs)


def to_dot(machine):
    """Render as a Graphviz digraph, one edge per transition, labelled
    symbol/probability with four decimals."""
    lines = ["digraph pfsa {", "  rankdir=LR;"]
    for j, block in enumerate(machine.states):
        label = "q%d" % (j + 1)
        members = ",".join(machine.alphabet.render(h) for h in block)
        lines.append('  q%d [label="%s\\n{%s}"];' % (j + 1, label, members))
    for (j, a) in sorted(machine.delta):
        for k in sorted(machine.delta[(j, a)]):
            lines.append(
                '  q%d -> q%d [label="%s/%.4f"];'
                % (j + 1, k + 1, machine.alphabet.symbols[a], machine.probs[(j, a)])
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
