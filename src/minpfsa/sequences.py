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


def _first_seen(code, size):
    """The values of code, all below size, in order of first appearance,
    and the array of size whose entry v is the first position of v in
    code, or len(code) where v does not occur."""
    at = np.arange(len(code), dtype=np.min_scalar_type(len(code)))
    first = np.full(size, len(code), dtype=at.dtype)
    np.minimum.at(first, code, at)
    mark = np.zeros(len(code), dtype=bool)
    mark[first[first < len(code)]] = True
    return code[mark.nonzero()[0]], first


def parse_sequence(text, mode="chars"):
    """Parse raw text into a SymbolSequence.

    mode "chars" treats every non-whitespace character as one symbol;
    mode "tokens" splits on whitespace. The alphabet is the distinct
    symbols in first-appearance order.
    """
    if mode == "chars":
        chars = "".join(text.split())
        if not chars:
            raise EmptySequenceError("sequence has no symbols")
        # one code point per character; surrogatepass keeps lone surrogates
        codes = np.frombuffer(chars.encode("utf-32-le", "surrogatepass"), "<u4")
        # A code point is its block (the bits above the low 7) times 128
        # plus its low bits. The blocks in use are ranked in a fixed table
        # of all 8,704 blocks, and a code point's cell is 128 times its
        # block's rank plus its low bits, so no table grows with the
        # code-point range. The int64 tokens hold each character's block,
        # then its cell, then its rank: take reads each index before it
        # writes that element, so with mode "clip" (every index is in
        # range) it maps the array in place
        tokens = np.right_shift(codes, 7, dtype=np.int64)
        used = np.zeros(0x110000 >> 7, dtype=bool)
        used[tokens] = True
        blocks = used.nonzero()[0]
        offset = np.zeros(len(used), dtype=np.int64)  # per block: cell minus code point
        offset[blocks] = (np.arange(len(blocks)) - blocks) << 7
        np.take(offset, tokens, out=tokens, mode="clip")
        tokens += codes
        seen, _ = _first_seen(tokens, len(blocks) << 7)
        rank = np.empty(len(blocks) << 7, dtype=np.int64)
        rank[seen] = np.arange(len(seen))
        np.take(rank, tokens, out=tokens, mode="clip")
        points = (blocks[seen >> 7] << 7) + (seen & 127)
        return SymbolSequence(Alphabet(tuple(map(chr, points.tolist()))), tokens)
    if mode != "tokens":
        raise ValueError("mode must be 'chars' or 'tokens', not %r" % mode)
    items = text.split()
    if not items:
        raise EmptySequenceError("sequence has no symbols")
    alphabet = Alphabet(tuple(dict.fromkeys(items)))
    lookup = {tok: i for i, tok in enumerate(alphabet.symbols)}
    return SymbolSequence(alphabet, np.array([lookup[t] for t in items], dtype=np.int64))


def from_tokens(tokens, alphabet):
    """Build a SymbolSequence from a 1-d sequence of integer ordinals into
    alphabet. Raises ValueError on a non-integer or boolean ordinal, or on
    one outside the alphabet."""
    toks = np.asarray(tokens)
    if toks.ndim != 1 or len(toks) == 0:
        raise EmptySequenceError("sequence has no symbols")
    # asarray reads a list such as [0, True] as integers
    if toks.dtype.kind not in "iu" or (
        not isinstance(tokens, np.ndarray)
        and any(isinstance(t, (bool, np.bool_)) for t in tokens)
    ):
        raise ValueError("token ordinals must be non-boolean integers")
    if toks.min() < 0 or toks.max() >= len(alphabet):
        raise ValueError("token ordinal outside alphabet")
    return SymbolSequence(alphabet, toks.astype(np.int64, copy=False))


def gen_fixture():
    """The bundled 648-symbol binary reference sequence.

    Prefix of 518 zeros, then sixteen repeats of 1100, then twenty-one
    repeats of 100, then 101. Used throughout the tests and demos because
    its length-2 history statistics are known exactly.
    """
    text = "0" * 518 + "1100" * 16 + "100" * 21 + "101"
    return from_text(text, BINARY)


class WindowCounts:
    """Sliding-window counts of every subsequence of length 0 through L+1,
    and the length-L histories with their continuation counts and
    successors, which every route reads.

    counts maps a history tuple to the number of (overlapping) windows in
    which it occurs; the empty tuple counts the sequence length. Its keys
    are in order of length, then of first appearance.

    W holds the length-L histories with a continuation, in order of first
    appearance. Counting is not cyclic, so a history's continuations can
    fall one short of its count, and the final window of the sequence is
    left out of W when it occurs nowhere else. Row i of the int64 array
    ext holds the continuation counts of W[i], and succ[i][a] is the index
    in W of its shift-append successor under a, or None when W[i] never
    continues with a or the successor is left out of W (the
    end-of-sequence rule).

    Each length-k window gets a code: the rank of its length-(k-1) prefix
    among the distinct prefixes, times |A|, plus its last symbol. Ranks are
    below the sequence length n, so codes stay below n·|A| whatever the
    alphabet size or L; plain base-|A| codes would overflow once |A|^(L+1)
    exceeds 2^63. Nothing is sorted. The codes of a length are held in the
    narrowest unsigned dtype that fits and fall in a table of (distinct
    prefixes)·|A| cells: one bincount over it gives the counts, and a
    cumulative sum over the cells that occur gives the ranks. No table
    has more than L rows of |A| cells beyond the one of length L+1, whose
    counts are ext by history rank. One indexed minimum gives the first
    appearances of the longest windows; a shorter window first appears
    where its first extension does, save the one that starts last.
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
        n, m = len(seq), len(seq.alphabet)
        sym = seq.tokens.astype(np.min_scalar_type(m - 1))
        # per length k: the windows in rank order, their counts, the rank of
        # each one's prefix, and the rank of the length-(k - 1) window that
        # starts last, at n - k + 1, and so has no extension
        levels = []
        keys = [()]
        # base[i] is |A| times the rank of the window at i of the length
        # below; the n + 1 empty windows all have rank 0
        base = np.zeros(n + 1, dtype=sym.dtype)
        for k in range(1, L + 2):
            code = base[:n - k + 1]
            code += sym[k - 1:]
            num = np.bincount(code, minlength=len(keys) * m)
            cells = num.nonzero()[0]
            rank = (num > 0).cumsum() - 1
            prefix, last = (cells // m).tolist(), (cells % m).tolist()
            hist_keys, keys = keys, [keys[p] + (a,) for p, a in zip(prefix, last)]
            levels.append((keys, num[cells].tolist(), prefix, int(base[-1]) // m))
            if k <= L:
                base = (rank * m).astype(np.min_scalar_type(len(cells) * m - 1))[code]
        seen, first = _first_seen(code, len(num))
        order = rank[seen].tolist()
        # the histories with a continuation are the longest windows' prefixes
        hist = list(dict.fromkeys([prefix[r] for r in order]))
        # a shorter window first appears where its first extension does,
        # except the one that starts last, which comes last if it is new
        ordered = []
        for level_keys, level_counts, prefix, end in reversed(levels):
            ordered.append([(level_keys[r], level_counts[r]) for r in order])
            order = list(dict.fromkeys([prefix[r] for r in order] + [end]))
        self.counts = {(): n}
        for pairs in reversed(ordered):
            self.counts.update(pairs)
        nxt = np.full((len(hist_keys), m), -1)
        # the history after a cell's first window is the one at the next
        # position, whose rank base keeps as its quotient by |A|
        nxt.flat[cells] = base[first[cells] + 1].astype(np.intp) // m
        index = np.full(len(nxt) + 1, -1)  # index[-1] keeps -1 for no successor
        index[hist] = np.arange(len(hist))
        self.W = tuple(hist_keys[r] for r in hist)
        self.ext = num.reshape(nxt.shape)[hist]
        self.succ = tuple(tuple(None if j < 0 else j for j in row)
                          for row in index[nxt[hist]].tolist())

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
    return h[1:] + (int(symbol),) if h else ()


def succ_table(wc, W):
    """The successor table wc.succ of W = histories(wc); see WindowCounts.
    Raises ValueError for any other W."""
    if tuple(map(tuple, W)) != wc.W:
        raise ValueError("succ_table is defined on histories(wc) only")
    return wc.succ


def cond_dist(wc, history):
    """Conditional next-symbol distribution of a single history: entry a
    is the number of its continuations with symbol a over the number of
    its observed continuations. A history occurring only at the very end
    of the sequence has no continuation and no distribution."""
    return state_dist(wc, [tuple(history)])


def state_dist(wc, histories):
    """Pooled next-symbol distribution of a set of histories, as an array
    of probabilities indexed by symbol.

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
    return ext / support


def histories(wc, length=None):
    """Distinct histories of the given length (default L, giving wc.W)
    that have an observed continuation, in order of first appearance."""
    k = wc.L if length is None else length
    extended = {h[:-1] for h in wc.counts if len(h) == k + 1}
    return [h for h in wc.counts if len(h) == k and h in extended]
