"""Symbol sequences, sliding-window counts and conditional next-symbol
distributions.

Histories are represented as tuples of symbol ordinals (ints indexing into
the alphabet), so the empty history is ``()`` and string rendering only
happens at the display and file-format boundary.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptySequenceError,
    EmptyStateError,
    FormatError,
    SequenceTooShortError,
    UnobservedHistoryError,
)


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of symbol tokens. Ordinal i renders as symbols[i]."""

    symbols: tuple

    def __post_init__(self):
        if len(self.symbols) == 0:
            raise EmptySequenceError("alphabet has no symbols")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("duplicate symbols in alphabet")

    def __len__(self):
        return len(self.symbols)

    def index(self, token):
        return self.symbols.index(token)

    def render(self, history):
        """Render a history (ordinals) as a string, joining the symbols with
        single spaces when some symbol is longer than one character."""
        sep = " " if any(len(str(t)) > 1 for t in self.symbols) else ""
        return sep.join(str(self.symbols[a]) for a in history)

    def parse(self, text):
        """The history (tuple of ordinals) that render wrote as text."""
        lookup = {str(t): i for i, t in enumerate(self.symbols)}
        items = text.split() if any(len(t) > 1 for t in lookup) else text
        try:
            return tuple(lookup[t] for t in items)
        except KeyError as exc:
            raise FormatError("symbol %r not in alphabet %r" % (exc.args[0], self.symbols))


BINARY = Alphabet(("0", "1"))


@dataclass(frozen=True)
class SymbolSequence:
    """A finite sequence of symbols over a fixed alphabet.

    tokens is an int numpy array of symbol ordinals.
    """

    alphabet: Alphabet
    tokens: np.ndarray

    def __post_init__(self):
        if len(self.tokens) == 0:
            raise EmptySequenceError("sequence has no symbols")

    def __len__(self):
        return len(self.tokens)

    def text(self):
        return self.alphabet.render(self.tokens)


def from_text(text, alphabet=None):
    """Build a SymbolSequence from a string of single-character tokens.

    When no alphabet is given, one is inferred from the distinct characters
    in sorted order.
    """
    if len(text) == 0:
        raise EmptySequenceError("sequence has no symbols")
    if alphabet is None:
        alphabet = Alphabet(tuple(sorted(set(text))))
    lookup = {tok: i for i, tok in enumerate(alphabet.symbols)}
    try:
        toks = np.array([lookup[c] for c in text], dtype=np.int64)
    except KeyError as exc:
        raise FormatError("symbol %r not in alphabet %r" % (exc.args[0], alphabet.symbols))
    return SymbolSequence(alphabet, toks)


def parse_sequence(text, mode="chars"):
    """Parse raw text into a SymbolSequence.

    mode "chars" treats every non-whitespace character as one symbol;
    mode "tokens" splits on whitespace. The alphabet is the distinct
    symbols in first-appearance order.
    """
    if mode == "chars":
        items = list("".join(text.split()))
    elif mode == "tokens":
        items = text.split()
    else:
        raise ValueError("mode must be 'chars' or 'tokens', not %r" % mode)
    if not items:
        raise EmptySequenceError("sequence has no symbols")
    alphabet = Alphabet(tuple(dict.fromkeys(items)))
    lookup = {tok: i for i, tok in enumerate(alphabet.symbols)}
    return SymbolSequence(alphabet, np.array([lookup[t] for t in items], dtype=np.int64))


def from_tokens(tokens, alphabet):
    toks = np.asarray(tokens, dtype=np.int64)
    if toks.ndim != 1 or len(toks) == 0:
        raise EmptySequenceError("sequence has no symbols")
    if toks.min() < 0 or toks.max() >= len(alphabet):
        raise ValueError("token ordinal outside alphabet")
    return SymbolSequence(alphabet, toks)


def gen_fixture():
    """The bundled 648-symbol binary reference sequence.

    Prefix of 518 zeros, then sixteen repeats of 1100, then twenty-one
    repeats of 100, then 101. Used throughout the tests and demos because
    its length-2 history statistics are known exactly.
    """
    text = "0" * 518 + "1100" * 16 + "100" * 21 + "101"
    return from_text(text, BINARY)


class WindowCounts:
    """Sliding-window counts of every subsequence of length 0 through L+1.

    counts maps a history tuple to the number of (overlapping) windows in
    which it occurs; the empty tuple counts the sequence length. Counting
    is not cyclic, so for any history x the extension counts can fall one
    short of counts[x] when x occurs at the very end of the sequence.

    Insertion order of counts is scan order, so iterating the keys of a
    given length yields histories in order of first appearance.
    """

    def __init__(self, seq, L):
        if L < 0:
            raise ValueError("window length must be non-negative")
        if len(seq) < L + 1:
            raise SequenceTooShortError(
                "sequence of length %d cannot support windows of length %d"
                % (len(seq), L + 1)
            )
        self.alphabet = seq.alphabet
        self.L = L
        self.total = len(seq)
        counts = {(): len(seq)}
        toks = [int(t) for t in seq.tokens]
        for k in range(1, L + 2):
            for i in range(len(toks) - k + 1):
                w = tuple(toks[i:i + k])
                counts[w] = counts.get(w, 0) + 1
        self.counts = counts

    def count(self, history):
        return self.counts.get(tuple(history), 0)

    def extension_counts(self, history):
        """Counts of history followed by each alphabet symbol, as an array."""
        h = tuple(history)
        return np.array(
            [self.counts.get(h + (a,), 0) for a in range(len(self.alphabet))],
            dtype=np.int64,
        )


def count_windows(seq, L):
    """Count all windows of length 0..L+1 of the sequence."""
    return WindowCounts(seq, L)


def successor(history, symbol):
    """Shift-append successor: drop the oldest symbol, append the new one.

    The successor of x under a is the length-|x| history that the process
    is in after emitting a from history x.
    """
    h = tuple(history)
    return h[1:] + (int(symbol),)


def succ_table(wc, W):
    """succ[i][a] = index in W of the shift-append successor of W[i] under
    symbol a, or None when that continuation was never observed or its
    successor has no state of its own (end-of-sequence corner)."""
    W = [tuple(h) for h in W]
    index = {h: i for i, h in enumerate(W)}
    table = []
    for h in W:
        row = []
        for a in range(len(wc.alphabet)):
            if wc.count(h + (a,)) > 0:
                row.append(index.get(successor(h, a)))
            else:
                row.append(None)
        table.append(tuple(row))
    return tuple(table)


@dataclass(frozen=True)
class ConditionalDistribution:
    """Next-symbol distribution of a history or pooled set of histories.

    probs[a] = (number of continuations with symbol a) / support_count,
    where support_count is the total number of observed continuations.
    A history occurring only at the very end of the sequence has no
    continuation and no conditional distribution.
    """

    probs: np.ndarray
    support_count: int


def cond_dist(wc, history):
    """Conditional next-symbol distribution of a single history."""
    return state_dist(wc, [tuple(history)])


def state_dist(wc, histories):
    """Pooled next-symbol distribution of a set of histories.

    Continuation counts are summed over the members, so frequent histories
    weigh more, matching the ratio of summed counts.
    """
    hs = list(histories)
    if not hs:
        raise EmptyStateError("cannot pool an empty set of histories")
    ext = np.sum([wc.extension_counts(h) for h in hs], axis=0)
    support = int(ext.sum())
    if support == 0:
        raise UnobservedHistoryError(
            "no member of %r has an observed continuation" % (hs,)
        )
    return ConditionalDistribution(ext / support, support)


def histories(wc, length=None):
    """Distinct histories of the given length (default L) that have at
    least one observed continuation, in order of first appearance.

    This is the vertex set for compatibility graphs and solvers. Histories
    seen only as the final window of the sequence are excluded because
    their conditional distribution is undefined.
    """
    k = wc.L if length is None else length
    out = []
    for h in wc.counts:
        if len(h) == k and wc.extension_counts(h).sum() > 0:
            out.append(h)
    return out
