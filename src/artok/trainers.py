"""Vocabulary trainers for the four tokenizer kinds.

BPE and WordPiece share one incremental merge engine: each distinct
pre-token is kept as a string of one character per symbol id, a merge
rewrites it with one str.replace, adjacent-pair counts are updated in
place as merges execute, and only pair selection differs (raw frequency
vs count/(left*right) likelihood score). The merge loop is sequential by
construction; determinism comes from exact counts plus total tie orders,
never from iteration order of hash maps. Only WordPiece selection
needs numpy, and it imports numpy itself, so loading, encoding, decoding
and training the other kinds never load it.
"""

from __future__ import annotations

import heapq
import logging
import sys
from collections import Counter
from operator import add
from typing import Iterable, Mapping

from .morphseg import CliticTable
from .normalize import NormalizerConfig
from .subword import (
    KIND_BPE,
    KIND_BPE_MORPH,
    KIND_WORDLEVEL,
    KIND_WORDPIECE,
    SPECIALS,
    UNK_ID,
    TokenizerModel,
    merge_output,
    word_symbols,
)

log = logging.getLogger(__name__)

MIN_PAIR_FREQ = 2


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
        items = sorted(pretokens.items())
        symbols = [word_symbols(word) for word, _ in items]

        occ_counts: Counter = Counter()
        for syms, (_, cnt) in zip(symbols, items):
            for sym in syms:
                occ_counts[sym] += cnt
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
        self.words = ["".join([sym_chrs.get(s, unk) for s in strs]) for strs in symbols]
        self.word_counts = [cnt for _, cnt in items]
        self.retired: set[str] = set()
        self.pair_cnt: dict[str, int] = {}
        self.pair_words: dict[str, set[int]] = {}
        pair_cnt = self.pair_cnt
        pair_words = self.pair_words
        for widx, (w, cnt) in enumerate(zip(self.words, self.word_counts)):
            for key in map(add, w, w[1:]):
                pair_cnt[key] = pair_cnt.get(key, 0) + cnt
                try:
                    pair_words[key].add(widx)
                except KeyError:
                    pair_words[key] = {widx}

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
        the pair key; returns all pairs whose corpus count changed."""
        new = chr(len(self.sym_strs))
        self.sym_strs.append(token)
        delta: dict[str, int] = {}
        words = self.words
        word_counts = self.word_counts
        pair_words = self.pair_words
        merged_occ = 0
        for widx in pair_words.pop(key, ()):
            w = words[widx]
            new_w = w.replace(key, new)
            if len(new_w) == len(w):  # stale registration from an earlier rewrite
                continue
            words[widx] = new_w
            cnt = word_counts[widx]
            merged_occ += (len(w) - len(new_w)) * cnt
            for pair in map(add, w, w[1:]):
                delta[pair] = delta.get(pair, 0) - cnt
            for pair in map(add, new_w, new_w[1:]):
                delta[pair] = delta.get(pair, 0) + cnt
                try:
                    pair_words[pair].add(widx)
                except KeyError:
                    pair_words[pair] = {widx}
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


class _RevLex:
    """Heap key wrapper ordering lexicographically greater pairs first."""

    __slots__ = ("pair",)

    def __init__(self, pair: tuple[str, str]):
        self.pair = pair

    def __lt__(self, other: "_RevLex") -> bool:
        return self.pair > other.pair


class _BpeSelector:
    """Highest raw pair frequency; ties to the lexicographically greatest
    (left, right) token pair. Lazy max-heap: every count change pushes a
    fresh entry, stale entries are dropped on pop."""

    def __init__(self, engine: _MergeEngine, min_freq: int):
        self.engine = engine
        self.min_freq = min_freq
        self.heap: list = []
        for key, cnt in engine.pair_cnt.items():
            if cnt >= min_freq:
                heapq.heappush(self.heap, (-cnt, _RevLex(engine.pair_strs(key)), key))

    def notify(self, changed: Iterable[str]) -> None:
        engine = self.engine
        pair_cnt = engine.pair_cnt
        heap = self.heap
        min_freq = self.min_freq
        for key in changed:
            cnt = pair_cnt.get(key, 0)
            if cnt >= min_freq:
                heapq.heappush(heap, (-cnt, _RevLex(engine.pair_strs(key)), key))

    def best(self) -> str | None:
        pair_cnt = self.engine.pair_cnt
        heap = self.heap
        while heap:
            neg_cnt, _, key = heapq.heappop(heap)
            if pair_cnt.get(key, 0) != -neg_cnt:
                continue  # stale; a fresher entry exists if still eligible
            return key
        return None


class _WordPieceSelector:
    """Maximizes count(ab) / (count(a) * count(b)) over current symbol
    occurrence counts; ties by higher raw count, then lexicographically
    greatest pair. Scores shift whenever unigram counts move, so each
    round re-scores all registered candidates vectorized. The engine's `occ`
    list becomes an int64 array here, which its merges update in place."""

    def __init__(self, engine: _MergeEngine, min_freq: int):
        import numpy as np
        engine.occ = np.array(engine.occ, dtype=np.int64)
        self.engine = engine
        self.min_freq = min_freq
        self.slot_of: dict[str, int] = {}
        cap = max(1024, 2 * len(engine.pair_cnt))
        self.left = np.zeros(cap, dtype=np.int64)
        self.right = np.zeros(cap, dtype=np.int64)
        self.cnt = np.zeros(cap, dtype=np.int64)
        self.n = 0
        for key, cnt in engine.pair_cnt.items():
            if cnt >= min_freq:
                self._register(key, cnt)

    def _register(self, key: str, cnt: int) -> None:
        import numpy as np
        if self.n == len(self.cnt):
            for name in ("left", "right", "cnt"):
                arr = getattr(self, name)
                grown = np.zeros(len(arr) * 2, dtype=arr.dtype)
                grown[: len(arr)] = arr
                setattr(self, name, grown)
        slot = self.n
        self.n += 1
        self.slot_of[key] = slot
        self.left[slot], self.right[slot] = map(ord, key)
        self.cnt[slot] = cnt

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
        n = self.n
        if n == 0:
            return None
        left = self.left[:n]
        right = self.right[:n]
        cnt = self.cnt[:n]
        occ = self.engine.occ
        denom = occ[left] * occ[right]
        valid = (cnt >= self.min_freq) & (denom > 0)
        if not valid.any():
            return None
        scores = np.where(valid, cnt / np.maximum(denom, 1), -1.0)
        ties = np.flatnonzero(scores == scores.max())
        best_key = None
        best_rank: tuple[int, tuple[str, str]] | None = None
        for slot in ties:
            key = chr(left[slot]) + chr(right[slot])
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
