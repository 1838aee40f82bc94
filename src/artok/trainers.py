"""Vocabulary trainers for the four tokenizer kinds.

BPE and WordPiece share one incremental merge engine: each distinct
pre-token is kept as a string of one character per symbol id, a merge
rewrites it with one str.replace, and only the adjacent pairs at the
merge sites have their counts updated, so a round costs what the merge
changes. Only pair selection differs: raw frequency from a heap of plain
tuples that compare in C, or the count/(left*right) likelihood score,
re-scored vectorized over the live candidates. The merge loop is
sequential by construction; determinism comes from exact counts plus
total tie orders, never from iteration order of hash maps. Only
WordPiece selection needs numpy, and it imports numpy itself, so
loading, encoding, decoding and training the other kinds never load it.
"""

from __future__ import annotations

import heapq
import logging
import sys
from collections import Counter
from operator import add, itemgetter
from typing import Iterable, Mapping

from .morphseg import CliticTable
from .normalize import NormalizerConfig
from .subword import (
    KIND_BPE,
    KIND_BPE_MORPH,
    KIND_WORDLEVEL,
    KIND_WORDPIECE,
    CONT_PREFIX,
    SPECIALS,
    UNK_ID,
    TokenizerModel,
    merge_output,
)

log = logging.getLogger(__name__)

MIN_PAIR_FREQ = 2

# In every grid cell's cache key (eval._inputs_key): bump it in any change
# to what a trainer returns, such as a merge list, so old cells retrain.
TRAINER_VERSION = 1

_FIRST_CHAR = itemgetter(0)


def _check_pretokens(pretokens: Mapping[str, int]) -> None:
    for word, cnt in pretokens.items():
        if word.split() != [word]:  # empty or holding whitespace
            raise ValueError(f"invalid pre-token surface: {word!r}")
        if cnt < 1:
            raise ValueError(f"pre-token count must be >= 1: {word!r} -> {cnt}")


class _MergeEngine:
    """Mutable corpus state for the merge loop.

    Symbol ids are aligned with final vocabulary ids (specials first,
    then the initial alphabet, then one id per merge). Each distinct
    pre-token is held as a string with one character, chr(id), per
    symbol, and a pair key is the two-character string of its ids, so a
    merge rewrites a word with one str.replace. Symbols whose alphabet
    slot was truncated away map to the [UNK] id; a truncated alphabet
    fills the whole vocabulary budget, so such a corpus gets no merges.
    """

    def __init__(self, pretokens: Mapping[str, int], max_alphabet: int):
        if not pretokens:
            raise ValueError("pretokens must be non-empty")
        _check_pretokens(pretokens)
        # No result depends on the order of the words, so they keep the
        # table's order.
        words = list(pretokens)
        self.word_counts = list(pretokens.values())

        # A word's first character is its bare symbol, every later one its
        # "##" symbol. Count both per group of words that share a count.
        groups: dict[int, list[str]] = {}
        for word, cnt in pretokens.items():
            groups.setdefault(cnt, []).append(word)
        firsts: Counter = Counter()
        rests: Counter = Counter()
        for cnt, group in groups.items():
            first = Counter(map(_FIRST_CHAR, group))
            for ch, n in first.items():
                firsts[ch] += n * cnt
            for ch, n in Counter("".join(group)).items():
                if n > first[ch]:
                    rests[ch] += (n - first[ch]) * cnt
        occ_counts = {**firsts, **{CONT_PREFIX + ch: n for ch, n in rests.items()}}
        ranked = sorted(occ_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if len(ranked) > max_alphabet:
            log.warning(
                "alphabet (%d symbols) exceeds vocab budget; keeping %d most "
                "frequent, mapping the rest to %s",
                len(ranked), max_alphabet, SPECIALS[UNK_ID],
            )
            ranked = ranked[:max_alphabet]
        alphabet = [sym for sym, _ in ranked]

        self.sym_strs: list[str] = list(SPECIALS) + alphabet
        sym_chrs = {s: chr(i) for i, s in enumerate(self.sym_strs)}
        unk = chr(UNK_ID)
        first_chr = {ch: sym_chrs.get(ch, unk) for ch in firsts}
        rest_table = {ord(ch): sym_chrs.get(CONT_PREFIX + ch, unk) for ch in rests}
        self.words = [first_chr[w[0]] + w[1:].translate(rest_table) for w in words]
        self.retired: set[str] = set()
        self.pair_cnt: dict[str, int] = {}
        self.pair_words: dict[str, set[int]] = {}
        pair_cnt = self.pair_cnt
        pair_words = self.pair_words
        for widx, (w, cnt) in enumerate(zip(self.words, self.word_counts)):
            for key in map(add, w, w[1:]):
                pair_cnt[key] = pair_cnt.get(key, 0) + cnt
                pair_words.setdefault(key, set()).add(widx)

        # The vocabulary budget caps the symbol count, and so does the
        # corpus: every merge shortens at least one word by one symbol.
        positions = sum(len(w) - 1 for w in self.words)
        self.occ = [0] * (len(SPECIALS) + min(max_alphabet, len(alphabet) + positions))
        for sym_id, (_, cnt) in enumerate(ranked, len(SPECIALS)):
            self.occ[sym_id] = cnt

    def pair_strs(self, key: str) -> tuple[str, str]:
        return self.sym_strs[ord(key[0])], self.sym_strs[ord(key[1])]

    def retire(self, key: str) -> None:
        """Drop the pair key for good: no merge counts it again."""
        self.retired.add(key)
        del self.pair_cnt[key]

    def apply_merge(self, key: str, token: str) -> set[str]:
        """Give token the next symbol id and rewrite every word containing
        the pair key; returns all pairs whose corpus count changed.

        A word with one merge site updates only the pairs at it: the old
        pairs that overlap the site (left neighbour, key, right neighbour)
        lose the word's count, and the new pairs, which hold the new
        symbol, gain it and register the word. Its other pairs keep their
        counts and their registrations in pair_words. A word with more
        sites, which is rare, recounts all its pairs."""
        new = chr(len(self.sym_strs))
        self.sym_strs.append(token)
        delta: dict[str, int] = {}
        words = self.words
        word_counts = self.word_counts
        pair_words = self.pair_words
        merged_occ = 0
        get = delta.get
        for widx in pair_words.pop(key, ()):
            w = words[widx]
            new_w = w.replace(key, new)
            if len(new_w) == len(w):  # stale registration from an earlier rewrite
                continue
            words[widx] = new_w
            cnt = word_counts[widx]
            sites = len(w) - len(new_w)
            merged_occ += sites * cnt
            if sites == 1:  # the key at index i of w is the new symbol at i of new_w
                i = new_w.find(new)
                delta[key] = get(key, 0) - cnt
                if i:  # a left neighbour
                    pair = w[i - 1:i + 1]
                    delta[pair] = get(pair, 0) - cnt
                    pair = new_w[i - 1:i + 1]
                    delta[pair] = get(pair, 0) + cnt
                    pair_words.setdefault(pair, set()).add(widx)
                if i + 1 < len(new_w):  # a right neighbour
                    pair = w[i + 1:i + 3]
                    delta[pair] = get(pair, 0) - cnt
                    pair = new_w[i:i + 2]
                    delta[pair] = get(pair, 0) + cnt
                    pair_words.setdefault(pair, set()).add(widx)
            else:  # pairs away from the sites net to zero
                for pair in map(add, w, w[1:]):
                    delta[pair] = get(pair, 0) - cnt
                for pair in map(add, new_w, new_w[1:]):
                    delta[pair] = get(pair, 0) + cnt
                    pair_words.setdefault(pair, set()).add(widx)
        self.occ[ord(key[0])] -= merged_occ
        self.occ[ord(key[1])] -= merged_occ
        self.occ[ord(new)] += merged_occ
        changed: set[str] = set()
        pair_cnt = self.pair_cnt
        retired = self.retired
        for pair, d in delta.items():
            if not d or pair in retired:
                continue
            nc = pair_cnt.get(pair, 0) + d
            if nc:
                pair_cnt[pair] = nc
            else:
                pair_cnt.pop(pair, None)
            changed.add(pair)
        return changed


class _BpeSelector:
    """Highest raw pair frequency; ties to the lexicographically greatest
    (left, right) token pair. Lazy max-heap: every count change pushes a
    fresh entry, stale entries are dropped on pop.

    An entry is the plain tuple (-count, desc[left id], desc[right id],
    key), so heapq compares it in C. desc[s], cached per symbol id, is
    the token's negated code points closed by 1: a greater token gets a
    smaller tuple, and the closing 1 sorts a prefix after its
    extensions, so the smallest entry is the greatest pair."""

    def __init__(self, engine: _MergeEngine, min_freq: int):
        self.engine = engine
        self.min_freq = min_freq
        self.desc: list[tuple[int, ...]] = []
        self.heap: list = []
        self.notify(engine.pair_cnt)

    def notify(self, changed: Iterable[str]) -> None:
        pair_cnt = self.engine.pair_cnt
        sym_strs = self.engine.sym_strs
        desc = self.desc
        for tok in sym_strs[len(desc):]:
            desc.append(tuple([-ord(c) for c in tok]) + (1,))
        heap = self.heap
        min_freq = self.min_freq
        for key in changed:
            cnt = pair_cnt.get(key, 0)
            if cnt >= min_freq:
                heapq.heappush(heap, (-cnt, desc[ord(key[0])], desc[ord(key[1])], key))

    def best(self) -> str | None:
        pair_cnt = self.engine.pair_cnt
        heap = self.heap
        while heap:
            entry = heapq.heappop(heap)
            if pair_cnt.get(entry[3], 0) != -entry[0]:
                continue  # stale; a fresher entry exists if still eligible
            return entry[3]
        return None


class _WordPieceSelector:
    """Maximizes count(ab) / (count(a) * count(b)) over current symbol
    occurrence counts; ties by higher raw count, then lexicographically
    greatest pair. Scores shift whenever unigram counts move, so each
    round re-scores all live candidates vectorized. The engine's `occ`
    list becomes an int64 array here, which its merges update in place.

    A pair's count never rises once its newer symbol exists, and a
    retired pair reads 0, so a slot whose count fell below min_freq never
    scores again: when such dead slots outnumber the live ones, the live
    slots move to the front and the dead keys leave `slot_of`. The tie
    break reads keys, not slots, so slot order never matters."""

    def __init__(self, engine: _MergeEngine, min_freq: int):
        import numpy as np
        engine.occ = np.array(engine.occ, dtype=np.int64)
        self.engine = engine
        self.min_freq = min_freq
        self.keys: list[str] = []
        self.slot_of: dict[str, int] = {}
        cap = max(1024, 2 * len(engine.pair_cnt))
        self.left = np.zeros(cap, dtype=np.int64)
        self.right = np.zeros(cap, dtype=np.int64)
        self.cnt = np.zeros(cap, dtype=np.int64)
        for key, cnt in engine.pair_cnt.items():
            if cnt >= min_freq:
                self._register(key, cnt)

    def _register(self, key: str, cnt: int) -> None:
        import numpy as np
        slot = len(self.keys)
        if slot == len(self.cnt):
            for name in ("left", "right", "cnt"):
                arr = getattr(self, name)
                grown = np.zeros(len(arr) * 2, dtype=arr.dtype)
                grown[:slot] = arr
                setattr(self, name, grown)
        self.keys.append(key)
        self.slot_of[key] = slot
        self.left[slot], self.right[slot] = map(ord, key)
        self.cnt[slot] = cnt

    def _compact(self, live) -> None:
        import numpy as np
        keep = np.flatnonzero(live)
        n = len(keep)
        for arr in (self.left, self.right, self.cnt):
            arr[:n] = arr[keep]
        self.keys = [self.keys[slot] for slot in keep.tolist()]
        self.slot_of = dict(zip(self.keys, range(n)))

    def notify(self, changed: Iterable[str]) -> None:
        pair_cnt = self.engine.pair_cnt
        for key in changed:
            cnt = pair_cnt.get(key, 0)
            slot = self.slot_of.get(key)
            if slot is None:
                if cnt >= self.min_freq:
                    self._register(key, cnt)
            else:
                self.cnt[slot] = cnt

    def best(self) -> str | None:
        import numpy as np
        n = len(self.keys)
        live = self.cnt[:n] >= self.min_freq
        if 2 * np.count_nonzero(live) < n:
            self._compact(live)
            return self.best()
        left = self.left[:n]
        right = self.right[:n]
        cnt = self.cnt[:n]
        occ = self.engine.occ
        denom = occ[left] * occ[right]
        valid = live & (denom > 0)
        if not valid.any():
            return None
        scores = np.where(valid, cnt / np.maximum(denom, 1), -1.0)
        ties = np.flatnonzero(scores == scores.max())
        best_key = None
        best_rank: tuple[int, tuple[str, str]] | None = None
        for slot in ties.tolist():
            key = self.keys[slot]
            rank = (int(cnt[slot]), self.engine.pair_strs(key))
            if best_rank is None or rank > best_rank:
                best_rank = rank
                best_key = key
        return best_key


def _run_merge_loop(engine: _MergeEngine, selector, vocab_size: int):
    """Merge until the vocab reaches vocab_size or no pair is left; the
    vocab is the engine's symbol list, which every merge extends."""
    vocab = engine.sym_strs
    vocab_set = set(vocab)
    merges: list[tuple[str, str]] = []
    while len(vocab) < vocab_size:
        key = selector.best()
        if key is None:
            log.warning(
                "no pair left with frequency >= %d; stopping at vocab size %d "
                "(target %d)", MIN_PAIR_FREQ, len(vocab), vocab_size,
            )
            break
        pair = engine.pair_strs(key)
        token = merge_output(*pair)
        if token in vocab_set:
            # Merging would alias an existing token string; skipping keeps
            # vocab entries 1:1 with merges and makes encode-time merge
            # replay reproduce training exactly. No selector offers it again.
            engine.retire(key)
            selector.notify((key,))
            continue
        merges.append(pair)
        vocab_set.add(token)
        selector.notify(engine.apply_merge(key, token))
    return vocab, merges


def train_from_pretokens(
    pretokens: Mapping[str, int],
    kind: str,
    vocab_size: int,
    normalizer: NormalizerConfig | None = None,
    clitic_table: CliticTable | None = None,
) -> TokenizerModel:
    """Train any tokenizer kind from a pre-token frequency table."""
    normalizer = normalizer or NormalizerConfig()
    if vocab_size < len(SPECIALS):
        raise ValueError(f"vocab_size must be at least {len(SPECIALS)}")
    if kind == KIND_WORDLEVEL:
        return _train_wordlevel(pretokens, vocab_size, normalizer)
    if kind not in (KIND_BPE, KIND_WORDPIECE, KIND_BPE_MORPH):
        raise ValueError(f"unknown tokenizer kind: {kind!r}")
    if vocab_size == len(SPECIALS):
        raise ValueError("vocab_size leaves no room for the alphabet")
    if kind == KIND_BPE_MORPH and clitic_table is None:
        raise ValueError("bpe_morph model requires a clitic table")
    if vocab_size > sys.maxunicode + 1:
        # the merge engine spells each symbol id as one code point
        raise ValueError(f"vocab_size must be at most {sys.maxunicode + 1} for kind {kind!r}")
    engine = _MergeEngine(pretokens, max_alphabet=vocab_size - len(SPECIALS))
    if kind == KIND_WORDPIECE:
        selector = _WordPieceSelector(engine, MIN_PAIR_FREQ)
    else:
        selector = _BpeSelector(engine, MIN_PAIR_FREQ)
    vocab, merges = _run_merge_loop(engine, selector, vocab_size)
    return TokenizerModel(
        kind=kind,
        vocab=vocab,
        merges=merges,
        normalizer=normalizer,
        clitic_table=clitic_table if kind == KIND_BPE_MORPH else None,
    )


def _train_wordlevel(pretokens, vocab_size, normalizer) -> TokenizerModel:
    _check_pretokens(pretokens)
    specials = set(SPECIALS)
    ranked = sorted(pretokens.items(), key=lambda kv: (-kv[1], kv[0]))
    vocab = list(SPECIALS)
    for surface, _ in ranked:
        if len(vocab) >= vocab_size:
            break
        if surface not in specials:
            vocab.append(surface)
    return TokenizerModel(
        kind=KIND_WORDLEVEL, vocab=vocab, merges=(), normalizer=normalizer
    )
