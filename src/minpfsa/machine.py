"""State partitions, machine construction, determinism checking, sampling
and the JSON / DOT export formats.

A machine is built from a partition of the length-L histories of a counted
sequence. Each partition block becomes a state, transitions follow the
shift-append successor of each member history, and each state's
next-symbol distribution is the pooled ratio of summed member counts.
"""

import json
from bisect import bisect_right
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import DeadEndError, FormatError
from .sequences import Alphabet, SymbolSequence, succ_table

_SAMPLE_BLOCK = 65536  # uniforms drawn per rng.random call in sample

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
    """Split partition states by successor-state signature until the state
    count is stable.

    Within a state, histories are grouped first-fit: a history joins the
    first group whose signature it does not contradict, where a signature
    maps each symbol to the state of the group members' successors and an
    unobserved (history, symbol) pair imposes no constraint. Growing a
    group can therefore narrow its signature for symbols earlier members
    left open. Each history's new state is its (old state, group) pair,
    numbered in first-fit order along W; when no state splits, the current
    partition is returned.
    """
    part = partition.canonical()
    succ = succ_table(wc, part.W)
    while True:
        sigs = [[] for _ in range(part.num_states)]
        labels = {}
        assign = []
        for s, row in zip(part.assign, succ):
            sig = {a: part.assign[l] for a, l in enumerate(row) if l is not None}
            for g, group_sig in enumerate(sigs[s]):
                if all(group_sig.get(a, v) == v for a, v in sig.items()):
                    group_sig.update(sig)
                    break
            else:
                g = len(sigs[s])
                sigs[s].append(sig)
            assign.append(labels.setdefault((s, g), len(labels)))
        if len(labels) == part.num_states:
            return part
        part = StatePartition(part.W, tuple(assign))


# ---------------------------------------------------------------------------
# machines


@dataclass(frozen=True)
class PFSA:
    """A probabilistic finite-state automaton over history-labelled states.

    states[j] is the tuple of member histories of state j, ordered so that
    state j's smallest member history is lexicographically below state
    j+1's. delta maps (state, symbol) to a frozenset of target states and
    probs maps (state, symbol) to the emission probability, renormalized
    over the symbols that kept a target.
    """

    alphabet: Alphabet
    states: tuple
    delta: dict
    probs: dict
    start_state: int = 0

    @property
    def num_states(self):
        return len(self.states)

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

    States are relabelled by smallest contained history. Each transition
    is read from succ_table: an observed continuation whose successor has
    no state of its own is dropped. Emission probabilities pool the
    members' rows of wc.ext; symbols that kept no transition lose their
    edge and the remaining symbols are renormalized.
    """
    blocks = partition.blocks()
    order = sorted(range(len(blocks)), key=lambda s: min(blocks[s]))
    relabel = {old: new for new, old in enumerate(order)}
    states = tuple(blocks[old] for old in order)
    state = [relabel[s] for s in partition.assign]

    targets = {}
    for i, row in enumerate(succ_table(wc, partition.W)):
        for a, l in enumerate(row):
            if l is not None:
                targets.setdefault((state[i], a), set()).add(state[l])
    delta = {key: frozenset(targets[key]) for key in sorted(targets)}

    pooled = np.zeros((len(states), len(wc.alphabet)), dtype=np.int64)
    np.add.at(pooled, state, wc.ext)
    probs = {}
    for j, dist in enumerate(pooled / pooled.sum(axis=1, keepdims=True)):
        kept = [a for a in range(len(wc.alphabet)) if (j, a) in delta]
        mass = float(sum(dist[a] for a in kept))
        for a in kept:
            probs[(j, a)] = float(dist[a]) / mass

    mfs = int(np.argmax([wc.count((a,)) for a in range(len(wc.alphabet))]))
    home = tuple([mfs] * wc.L)
    start = state[partition.W.index(home)] if home in partition.W else 0

    return PFSA(wc.alphabet, states, delta, probs, start)


def _walk_tables(machine):
    """Per-state sampling tables: state -> (cdf, symbols, next states).

    A state's symbols are those with an emission probability, ascending;
    the next state is the lowest-indexed target. The cdf is computed
    exactly as Generator.choice computes it from p = w / w.sum(), so a
    uniform u picks the same symbol through bisect_right as through
    choice. States with no symbol are absent. Raises ValueError for a
    state with a negative or NaN weight or without positive finite mass."""
    rows = {}
    for j, a in sorted(machine.probs):
        rows.setdefault(j, []).append(a)
    tables = {}
    for j, syms in rows.items():
        w = np.array([machine.probs[(j, a)] for a in syms])
        total = w.sum()
        if not (np.all(w >= 0) and 0 < total < np.inf):
            raise ValueError(
                "state %d has a negative or NaN probability, or no finite mass" % j
            )
        cdf = (w / total).cumsum()
        cdf /= cdf[-1]
        nxt = [min(machine.delta[(j, a)]) for a in syms]
        tables[j] = (cdf.tolist(), syms, nxt)
    return tables


def sample(machine, n, seed):
    """Sample n symbols by walking the machine from the start state.

    The next state follows delta; when a (state, symbol) pair has several
    targets the lowest-indexed one is taken. Reaching a state with no
    outgoing transition raises DeadEndError. A state whose emission weights
    are negative or NaN raises ValueError before the walk starts, whether
    or not the walk would reach it.

    Step t takes the t-th double drawn by np.random.default_rng(seed).random
    and picks the symbol whose cdf interval holds it. That is the draw and
    the symbol of Generator.choice(len(symbols), p=...) at each step, so a
    seeded sample is the one a per-step choice gives. The doubles are drawn
    in blocks of _SAMPLE_BLOCK, which does not change the stream.
    """
    if n <= 0:
        raise ValueError("sample length must be positive")
    rng = np.random.default_rng(seed)
    tables = _walk_tables(machine)
    state = machine.start_state
    out = np.empty(n, dtype=np.int64)
    for start in range(0, n, _SAMPLE_BLOCK):
        block = []
        for u in rng.random(min(_SAMPLE_BLOCK, n - start)).tolist():
            table = tables.get(state)
            if table is None:
                raise DeadEndError(
                    "state %d has no outgoing transitions after %d symbols"
                    % (state, start + len(block))
                )
            cdf, syms, nxt = table
            i = bisect_right(cdf, u)
            block.append(syms[i])
            state = nxt[i]
        out[start:start + len(block)] = block
    return SymbolSequence(machine.alphabet, out)


# ---------------------------------------------------------------------------
# file formats


def _json_array(items, depth):
    """Encoded items as json.dumps(..., indent=2) lays out an array that
    opens at nesting depth depth."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


_JSON_STATE = '{\n      "id": %d,\n      "histories": %s\n    }'
_JSON_TRANSITION = (
    '{\n      "from": %d,\n      "symbol": %s,\n      "to": %d,\n      "prob": %s\n    }'
)


def to_json(machine):
    """Serialize to the JSON interchange format.

    State ids are 1-based in state order. Exporting, importing and
    exporting again yields byte-identical text.

    The bytes are those of json.dumps(obj, indent=2) + "\\n" for the
    object {"alphabet", "states": [{"id", "histories"}], "transitions":
    [{"from", "symbol", "to", "prob"}]}, written from templates. Strings
    go through json's encode_basestring_ascii and the probabilities
    through one json.dumps of their list, so an int, an np.float64 or a
    NaN is written as json writes it.
    """
    alphabet = machine.alphabet
    symbols = [encode_basestring_ascii(str(t)) for t in alphabet.symbols]
    states = [
        _JSON_STATE % (j + 1, _json_array(
            [encode_basestring_ascii(alphabet.render(h)) for h in block], 3))
        for j, block in enumerate(machine.states)
    ]
    edges = [(j, a, k) for (j, a) in sorted(machine.delta) for k in sorted(machine.delta[(j, a)])]
    probs = json.dumps([machine.probs[(j, a)] for j, a, _ in edges])[1:-1].split(", ")
    transitions = [
        _JSON_TRANSITION % (j + 1, symbols[a], k + 1, p) for (j, a, k), p in zip(edges, probs)
    ]
    return '{\n  "alphabet": %s,\n  "states": %s,\n  "transitions": %s\n}\n' % (
        _json_array(symbols, 1), _json_array(states, 1), _json_array(transitions, 1))


def from_json(text):
    """Parse the JSON interchange format back into a PFSA.

    An optional ``"start"`` field names the start state by its id; without
    it the first state is the start. ``to_json`` does not write the field,
    so a machine read back from its output starts in its first state.
    A ``start``, ``from`` or ``to`` reference names the state whose id
    equals it and has its JSON type: ``true`` and ``1.0`` do not name id 1.
    The alphabet must be a list of distinct non-empty strings, each
    state's ``histories`` a list of strings, and every ``prob`` a JSON
    number in [0, 1].
    """
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the decoder recurses per nesting level
        raise FormatError("not valid JSON: %s" % exc)

    def strings(field, value):
        if type(value) is not list or any(type(t) is not str for t in value):
            raise FormatError("%s is not a list of strings: %r" % (field, value))
        return value

    try:
        if "" in strings("alphabet", obj["alphabet"]):
            raise FormatError("alphabet has an empty symbol: %r" % (obj["alphabet"],))
        alphabet = Alphabet(tuple(obj["alphabet"]))  # ValueError on a repeated symbol
        tok_index = {t: i for i, t in enumerate(alphabet.symbols)}
        ids = [s["id"] for s in obj["states"]]
        # keyed by type as well, since True == 1 == 1.0 as plain keys
        id_map = {(type(sid), sid): j for j, sid in enumerate(ids)}
        if len(id_map) != len(ids):
            raise FormatError("duplicate state id in %r" % (ids,))

        def state(field, ref):
            j = id_map.get((type(ref), ref))
            if j is None:
                raise FormatError("%s names no state: %r" % (field, ref))
            return j

        states = tuple(
            tuple(alphabet.parse(h) for h in strings("histories", s["histories"]))
            for s in obj["states"]
        )
        delta = {}
        probs = {}
        for tr in obj["transitions"]:
            j = state("from", tr["from"])
            a = tok_index[tr["symbol"]]
            k = state("to", tr["to"])
            if type(tr["prob"]) not in (int, float):
                raise FormatError("prob is not a number: %r" % (tr["prob"],))
            if not 0 <= tr["prob"] <= 1:
                raise FormatError("prob is not in [0, 1]: %r" % (tr["prob"],))
            delta.setdefault((j, a), set()).add(k)
            prev = probs.get((j, a))
            if prev is not None and prev != tr["prob"]:
                raise FormatError(
                    "conflicting probabilities for state %s symbol %s"
                    % (tr["from"], tr["symbol"])
                )
            probs[(j, a)] = tr["prob"]
        start = state("start", obj["start"]) if "start" in obj else 0
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise FormatError("missing or malformed field: %s" % exc)
    delta = {k: frozenset(v) for k, v in delta.items()}
    return PFSA(alphabet, states, delta, probs, start)


def _dot_escape(text):
    """Backslash-escape the characters that end or escape a DOT string."""
    return str(text).replace("\\", "\\\\").replace('"', '\\"')


def to_dot(machine):
    """Render as a Graphviz digraph, one edge per transition, labelled
    symbol/probability with four decimals."""
    lines = ["digraph pfsa {", "  rankdir=LR;"]
    for j, block in enumerate(machine.states):
        label = "q%d" % (j + 1)
        members = _dot_escape(",".join(machine.alphabet.render(h) for h in block))
        lines.append('  q%d [label="%s\\n{%s}"];' % (j + 1, label, members))
    for (j, a) in sorted(machine.delta):
        for k in sorted(machine.delta[(j, a)]):
            lines.append(
                '  q%d -> q%d [label="%s/%.4f"];'
                % (j + 1, k + 1, _dot_escape(machine.alphabet.symbols[a]), machine.probs[(j, a)])
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
