"""Sequence handling, window counting and conditional distributions."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minpfsa import (
    BINARY,
    Alphabet,
    EmptySequenceError,
    EmptyStateError,
    FormatError,
    SequenceTooShortError,
    SymbolSequence,
    UnobservedHistoryError,
    cond_dist,
    count_windows,
    from_text,
    from_tokens,
    gen_fixture,
    histories,
    parse_sequence,
    state_dist,
    succ_table,
    successor,
)


def naive_window_counts(tokens, k):
    """Test-local oracle: count length-k windows by direct rescan. The
    empty window counts once per symbol, matching the library convention
    that the empty history occurs len(y) times."""
    if k == 0:
        return {(): len(tokens)}
    out = {}
    for i in range(len(tokens) - k + 1):
        w = tuple(tokens[i:i + k])
        out[w] = out.get(w, 0) + 1
    return out


# ---------------------------------------------------------------------------
# parsing


def test_parse_chars():
    seq = parse_sequence("0010", "chars")
    assert seq.alphabet.symbols == ("0", "1")
    assert seq.tokens.tolist() == [0, 0, 1, 0]


def test_parse_tokens():
    seq = parse_sequence("a b a", "tokens")
    assert seq.alphabet.symbols == ("a", "b")
    assert seq.tokens.tolist() == [0, 1, 0]


def test_parse_first_appearance_order():
    seq = parse_sequence("ba", "chars")
    assert seq.alphabet.symbols == ("b", "a")
    assert seq.tokens.tolist() == [0, 1]


def test_parse_skips_whitespace_in_char_mode():
    seq = parse_sequence("00 10\n1", "chars")
    assert seq.tokens.tolist() == [0, 0, 1, 0, 1]


def test_parse_empty():
    with pytest.raises(EmptySequenceError):
        parse_sequence("   ", "chars")
    with pytest.raises(EmptySequenceError):
        parse_sequence(" \n\t", "tokens")
    with pytest.raises(EmptySequenceError):
        from_text("")
    with pytest.raises(EmptySequenceError):
        from_tokens([], BINARY)
    with pytest.raises(EmptySequenceError):
        SymbolSequence(BINARY, np.zeros(0, dtype=np.int64))
    with pytest.raises(EmptySequenceError):
        Alphabet(())


def test_parse_bad_mode():
    with pytest.raises(ValueError):
        parse_sequence("01", "words")


def per_char_parse(text):
    """Test-local oracle: char mode as one Python step per character."""
    items = list("".join(text.split()))
    if not items:
        raise EmptySequenceError("sequence has no symbols")
    alphabet = Alphabet(tuple(dict.fromkeys(items)))
    lookup = {tok: i for i, tok in enumerate(alphabet.symbols)}
    return alphabet, np.array([lookup[t] for t in items], dtype=np.int64)


def test_parse_chars_matches_per_char_definition():
    rng = np.random.default_rng(17)
    pool = list("01abXYZ") + ["é", "中", "\U0001f600", "\ud800", "\x00", "\U0010ffff"]
    pool += list(" \n\t\xa0　")
    texts = ["", " \n", gen_fixture().text(), "".join(rng.choice(list("ACGT"), 20000)),
             "a" * 20000 + "\U0010ffff"]
    for _ in range(2000):
        # by index: a numpy string array would drop the trailing NUL of "\x00"
        texts.append("".join(pool[i] for i in rng.integers(len(pool), size=int(rng.integers(0, 60)))))
    for text in texts:
        try:
            alphabet, tokens = per_char_parse(text)
        except EmptySequenceError as exc:
            with pytest.raises(EmptySequenceError, match=str(exc)):
                parse_sequence(text, "chars")
            continue
        seq = parse_sequence(text, "chars")
        assert seq.alphabet == alphabet
        assert seq.tokens.dtype == tokens.dtype
        assert seq.tokens.tobytes() == tokens.tobytes()


def test_from_text_rejects_unknown_symbol():
    with pytest.raises(FormatError):
        from_text("012", BINARY)


def test_from_text_explicit_alphabet():
    seq = from_text("10", Alphabet(("0", "1", "2")))
    assert seq.tokens.tolist() == [1, 0]


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16, np.uint32, np.int64, np.uint64])
def test_from_tokens_accepts_integer_arrays(dtype):
    seq = from_tokens(np.array([0, 2, 1, 0], dtype=dtype), Alphabet(("0", "1", "2")))
    assert seq.tokens.dtype == np.int64
    assert seq.tokens.tolist() == [0, 2, 1, 0]


@pytest.mark.parametrize("tokens", [
    [0, 1.7, 0.2, 1],
    [0.0, 1.0],
    np.array([0.0, 1.0]),
    [True, False],
    np.array([True, False]),
    [0, True, 1],
    [0, np.True_],
    ["0", "1"],
])
def test_from_tokens_rejects_non_integer_ordinals(tokens):
    with pytest.raises(ValueError):
        from_tokens(tokens, BINARY)


def test_from_tokens_rejects_out_of_range():
    for tokens in ([0, 2], [-1, 0], np.array([0, 2**63], dtype=np.uint64)):
        with pytest.raises(ValueError):
            from_tokens(tokens, BINARY)


def test_alphabet_rejects_duplicates():
    with pytest.raises(ValueError):
        Alphabet(("0", "0"))


# ---------------------------------------------------------------------------
# fixture generator


def test_fixture_length():
    assert len(gen_fixture().tokens) == 648


def test_fixture_prefix_zeros():
    assert not gen_fixture().tokens[:518].any()


def test_fixture_window_counts():
    wc = count_windows(gen_fixture(), 2)
    got = {BINARY.render(h): wc.count(h) for h in
           [(0, 0), (0, 1), (1, 1), (1, 0)]}
    assert got == {"00": 554, "01": 39, "11": 16, "10": 38}


def test_fixture_history_order_is_first_appearance():
    wc = count_windows(gen_fixture(), 2)
    assert [BINARY.render(h) for h in histories(wc)] == ["00", "01", "11", "10"]


# ---------------------------------------------------------------------------
# window counting


def test_count_windows_hand_example():
    wc = count_windows(from_text("0010"), 1)
    assert wc.count((0,)) == 3
    assert wc.count((1,)) == 1
    assert wc.count((0, 0)) == 1
    assert wc.count((0, 1)) == 1
    assert wc.count((1, 0)) == 1


def test_count_windows_empty_history_convention():
    wc = count_windows(from_text("0010"), 0)
    assert wc.count(()) == 4
    assert wc.count((0,)) == 3


def test_count_windows_too_short():
    with pytest.raises(SequenceTooShortError):
        count_windows(from_text("01"), 2)
    with pytest.raises(ValueError, match="non-negative"):
        count_windows(from_text("01"), -1)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 2), min_size=6, max_size=200),
    st.integers(0, 4),
)
def test_count_windows_matches_rescan_oracle(tokens, L):
    if len(tokens) < L + 1:
        tokens = tokens + [0] * (L + 1 - len(tokens))
    seq = from_tokens(tokens, Alphabet(("0", "1", "2")))
    wc = count_windows(seq, L)
    for k in range(L + 2):
        expect = naive_window_counts(tokens, k)
        for w, c in expect.items():
            assert wc.count(w) == c
        if k > 0:
            assert sum(expect.values()) == len(tokens) - k + 1


def tuple_slicing_counts(tokens, L):
    """Test-local oracle: the tuple-slicing counter that WindowCounts
    replaced, with its insertion order (by length, then first appearance)."""
    counts = {}
    for k in range(L + 2):
        counts.update(naive_window_counts(tokens, k))
    return counts


# 64 tokens, each once, then s0 s1*10 s16 s1*10: at L = 10 the windows
# s0 s1*10 and s16 s1*10 get equal plain base-64 int64 codes (64^10 = 2^60)
WIDE_TOKENS = " ".join(["s%d" % i for i in range(64)] + ["s0"] + ["s1"] * 10
                       + ["s16"] + ["s1"] * 10)


def test_count_windows_matches_naive():
    rng = np.random.default_rng(31)
    wide = parse_sequence(WIDE_TOKENS, "tokens")
    # 300 tokens: 300 distinct first symbols times 300 give length-2 codes
    # above 65,535, so the codes are ranked as 8-, 16- and 32-bit keys
    many = parse_sequence(" ".join("t%d" % t for t in rng.permutation(1500) % 300), "tokens")
    assert len(many.alphabet) ** 2 > 2**16
    cases = [(wide, 10), (many, 2)]
    for k in range(1, 6):
        for L in range(6):
            for n in (L + 1, 40, 400):
                toks = rng.integers(k, size=n)
                toks[: n // 4] = toks[0]
                chars = "".join("abcde"[t] for t in toks)
                words = " ".join("w%d" % t for t in toks)
                cases.append((parse_sequence(chars, "chars"), L))
                cases.append((parse_sequence(words, "tokens"), L))
    for seq, L in cases:
        wc = count_windows(seq, L)
        expect = tuple_slicing_counts(seq.tokens.tolist(), L)
        assert list(wc.counts.items()) == list(expect.items())

    counts = count_windows(wide, 10).counts
    assert len(counts) == 788
    # plain base-64 int64 codes of the length-11 windows merge two of them
    plain = np.zeros(len(wide) - 10, dtype=np.int64)
    for j in range(11):
        plain = plain * 64 + wide.tokens[j:len(wide) - 10 + j]
    assert len(np.unique(plain)) == sum(len(h) == 11 for h in counts) - 1


# peak traced bytes per symbol at 20,000 symbols over 3, 25% above what
# parsing (19.3) and counting at L = 3 (10.3) take; with a sort per level
# they took 37.1 and 52.4
@pytest.mark.parametrize("stage, bound", [("parse", 24.1), ("count", 12.9)])
def test_parse_and_count_footprint(stage, bound):
    rng = np.random.default_rng(41)
    text = "".join("abc"[t] for t in rng.integers(3, size=20000))
    seq = parse_sequence(text)
    call = (lambda: parse_sequence(text)) if stage == "parse" else (lambda: count_windows(seq, 3))
    call()  # numpy sets up its loops on first use
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(text) <= bound


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=5, max_size=120))
def test_continuation_counts_within_boundary_slack(tokens):
    seq = from_tokens(tokens, BINARY)
    wc = count_windows(seq, 2)
    for k in range(1, 3):
        for w in naive_window_counts(tokens, k):
            ext = sum(wc.count(w + (a,)) for a in range(2))
            assert 0 <= wc.count(w) - ext <= 1


def successor_table_by_lookup(wc, W):
    """Test-local oracle: the dict-lookup successor table that
    WindowCounts.succ replaced."""
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


def test_history_table_matches_count_lookups():
    rng = np.random.default_rng(47)
    cases = [(from_text("001001011", BINARY), 2)]
    for k in range(1, 7):
        for L in range(6):
            for n in (L + 1, L + 2, 30, 300):
                toks = rng.integers(k, size=n)
                toks[: n // 3] = toks[0]
                cases.append((parse_sequence("".join("abcdef"[t] for t in toks), "chars"), L))
                cases.append((parse_sequence(" ".join("w%d" % t for t in toks), "tokens"), L))
    for seq, L in cases:
        wc = count_windows(seq, L)
        for level in range(L + 1):
            by_sum = [h for h in wc.counts
                      if len(h) == level and wc.extension_counts(h).sum() > 0]
            assert histories(wc, level) == by_sum
        W = list(wc.W)
        assert W == by_sum  # of level L, the last
        assert wc.ext.dtype == np.int64 and wc.ext.shape == (len(W), len(seq.alphabet))
        assert wc.ext.tolist() == [wc.extension_counts(h).tolist() for h in W]
        assert wc.succ == successor_table_by_lookup(wc, W)
        assert succ_table(wc, W) is wc.succ
        with pytest.raises(ValueError):
            succ_table(wc, W[1:])
    # 11 ends 001001011 at L = 2 and occurs nowhere else, so it has no
    # row, and 01 -> 1 has no successor
    corner = count_windows(from_text("001001011", BINARY), 2)
    assert corner.W == ((0, 0), (0, 1), (1, 0))
    assert corner.succ == ((None, 1), (2, None), (0, 1))


# ---------------------------------------------------------------------------
# distributions


def test_cond_dist_reference_values(fixture_wc):
    for hist, expect in [
        ("00", (0.9314, 0.0686)),
        ("01", (0.5789, 0.4211)),
        ("11", (1.0, 0.0)),
        ("10", (0.9737, 0.0263)),
    ]:
        h = tuple(int(c) for c in hist)
        got = cond_dist(fixture_wc, h)
        assert np.allclose(got, expect, atol=5e-4), (hist, got)


def test_cond_dist_unobserved(fixture_wc):
    with pytest.raises(UnobservedHistoryError):
        cond_dist(fixture_wc, (1, 1, 1))


def test_state_dist_pooled_value(fixture_wc):
    got = state_dist(fixture_wc, [(0, 0), (1, 0)])
    assert np.allclose(got, (0.9341, 0.0659), atol=5e-4)


def test_state_dist_singleton_equals_cond_dist(fixture_wc):
    a = state_dist(fixture_wc, [(1, 1)])
    b = cond_dist(fixture_wc, (1, 1))
    assert np.array_equal(a, b)


def test_state_dist_pooled_between_members(fixture_wc):
    pooled = state_dist(fixture_wc, [(0, 0), (1, 0)])[0]
    lo = min(cond_dist(fixture_wc, (0, 0))[0],
             cond_dist(fixture_wc, (1, 0))[0])
    hi = max(cond_dist(fixture_wc, (0, 0))[0],
             cond_dist(fixture_wc, (1, 0))[0])
    assert lo <= pooled <= hi


def test_state_dist_empty(fixture_wc):
    with pytest.raises(EmptyStateError):
        state_dist(fixture_wc, [])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=10, max_size=120))
def test_distributions_sum_to_one(tokens):
    wc = count_windows(from_tokens(tokens, BINARY), 2)
    for h in histories(wc):
        assert abs(cond_dist(wc, h).sum() - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# successor


def test_successor_examples():
    assert successor((0, 1), 1) == (1, 1)
    assert successor((1, 0), 0) == (0, 0)
    assert successor((0, 0), 0) == (0, 0)
    # the empty history is its own successor under every symbol
    assert successor((), 1) == ()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=6), st.integers(0, 2))
def test_successor_shares_overlap(history, a):
    h = tuple(history)
    s = successor(h, a)
    assert len(s) == len(h)
    assert s[:-1] == h[1:]
    assert s[-1] == a
