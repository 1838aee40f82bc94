"""Vocabulary trainers for the four tokenizer kinds.

BPE and WordPiece share one incremental merge engine: distinct pre-tokens
are kept as symbol-id sequences, adjacent-pair counts are updated in
place as merges execute, and only pair selection differs (raw frequency
vs count/(left*right) likelihood score). The merge loop is sequential by
construction; determinism comes from exact counts plus total tie orders,
never from iteration order of hash maps.
"""

from __future__ import annotations

import heapq
import logging
from collections import Counter
from typing import Iterable, Mapping

import numpy as np

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

_SHIFT = 32
_MASK = (1 << _SHIFT) - 1


def _pack(a: int, b: int) -> int:
    return (a << _SHIFT) | b


class _MergeEngine:
    """Mutable corpus state for the merge loop.

    Symbol ids are aligned with final vocabulary ids (specials first,
    then the initial alphabet, then one id per merge). Symbols whose
    alphabet slot was truncated away map to the [UNK] id and never
    participate in pairs.
    """

    def __init__(self, pretokens: Mapping[str, int], max_alphabet: int):
        if not pretokens:
            raise ValueError("pretokens must be non-empty")
        items = sorted(pretokens.items())
        for word, cnt in items:
            if not word or any(ch.isspace() for ch in word):
                raise ValueError(f"invalid pre-token surface: {word!r}")
            if cnt < 1:
                raise ValueError(f"pre-token count must be >= 1: {word!r} -> {cnt}")

        occ_counts: Counter = Counter()
        for word, cnt in items:
            for sym in word_symbols(word):
                occ_counts[sym] += cnt
        ranked = sorted(occ_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if len(ranked) > max_alphabet:
            log.warning(
                "alphabet (%d symbols) exceeds vocab budget; keeping %d most "
                "frequent, mapping the rest to %s",
                len(ranked), max_alphabet, SPECIALS[UNK_ID],
            )
            ranked = ranked[:max_alphabet]
        self.alphabet = [sym for sym, _ in ranked]

        self.sym_strs: list[str] = list(SPECIALS) + self.alphabet
        sym_ids = {s: i for i, s in enumerate(self.sym_strs)}
        self.occ = np.zeros(len(self.sym_strs) + 1024, dtype=np.int64)
        for sym, cnt in ranked:
            self.occ[sym_ids[sym]] = cnt

        self.words: list[list[int]] = []
        self.word_counts: list[int] = []
        self.pair_cnt: dict[int, int] = {}
        self.pair_words: dict[int, set[int]] = {}
        pair_cnt = self.pair_cnt
        pair_words = self.pair_words
        for word, cnt in items:
            syms = [sym_ids.get(s, UNK_ID) for s in word_symbols(word)]
            widx = len(self.words)
            self.words.append(syms)
            self.word_counts.append(cnt)
            prev = syms[0]
            for cur in syms[1:]:
                if prev != UNK_ID and cur != UNK_ID:
                    key = _pack(prev, cur)
                    pair_cnt[key] = pair_cnt.get(key, 0) + cnt
                    try:
                        pair_words[key].add(widx)
                    except KeyError:
                        pair_words[key] = {widx}
                prev = cur

    def pair_strs(self, key: int) -> tuple[str, str]:
        return self.sym_strs[key >> _SHIFT], self.sym_strs[key & _MASK]

    def register_symbol(self, token: str) -> int:
        new_id = len(self.sym_strs)
        self.sym_strs.append(token)
        if new_id >= len(self.occ):
            grown = np.zeros(len(self.occ) * 2, dtype=np.int64)
            grown[: len(self.occ)] = self.occ
            self.occ = grown
        return new_id

    def apply_merge(self, a: int, b: int, new_id: int) -> set[int]:
        """Rewrite every word containing the pair; returns the keys of all
        pairs whose corpus count changed."""
        key = _pack(a, b)
        widxs = self.pair_words.pop(key, None) or ()
        delta: dict[int, int] = {}
        words = self.words
        word_counts = self.word_counts
        pair_words = self.pair_words
        merged_occ = 0
        for widx in widxs:
            w = words[widx]
            n = len(w)
            hit = False
            for i in range(n - 1):
                if w[i] == a and w[i + 1] == b:
                    hit = True
                    break
            if not hit:  # stale registration from an earlier rewrite
                continue
            cnt = word_counts[widx]
            prev = w[0]
            for j in range(1, n):
                cur = w[j]
                if prev != UNK_ID and cur != UNK_ID:
                    k = _pack(prev, cur)
                    delta[k] = delta.get(k, 0) - cnt
                prev = cur
            new_w: list[int] = []
            i = 0
            replaced = 0
            while i < n:
                if i < n - 1 and w[i] == a and w[i + 1] == b:
                    new_w.append(new_id)
                    replaced += 1
                    i += 2
                else:
                    new_w.append(w[i])
                    i += 1
            words[widx] = new_w
            merged_occ += replaced * cnt
            prev = new_w[0]
            for j in range(1, len(new_w)):
                cur = new_w[j]
                if prev != UNK_ID and cur != UNK_ID:
                    k = _pack(prev, cur)
                    delta[k] = delta.get(k, 0) + cnt
                    try:
                        pair_words[k].add(widx)
                    except KeyError:
                        pair_words[k] = {widx}
                prev = cur
        if a == b:
            self.occ[a] -= 2 * merged_occ
        else:
            self.occ[a] -= merged_occ
            self.occ[b] -= merged_occ
        self.occ[new_id] += merged_occ
        changed: set[int] = set()
        pair_cnt = self.pair_cnt
        for k, d in delta.items():
            if not d:
                continue
            nc = pair_cnt.get(k, 0) + d
            if nc:
                pair_cnt[k] = nc
            else:
                pair_cnt.pop(k, None)
            changed.add(k)
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
        self.dead: set[int] = set()
        self.heap: list = []
        for key, cnt in engine.pair_cnt.items():
            if cnt >= min_freq:
                heapq.heappush(self.heap, (-cnt, _RevLex(engine.pair_strs(key)), key))

    def notify(self, changed: Iterable[int]) -> None:
        engine = self.engine
        pair_cnt = engine.pair_cnt
        heap = self.heap
        dead = self.dead
        min_freq = self.min_freq
        for key in changed:
            cnt = pair_cnt.get(key, 0)
            if cnt >= min_freq and key not in dead:
                heapq.heappush(heap, (-cnt, _RevLex(engine.pair_strs(key)), key))

    def kill(self, key: int) -> None:
        self.dead.add(key)

    def best(self) -> int | None:
        pair_cnt = self.engine.pair_cnt
        heap = self.heap
        while heap:
            neg_cnt, _, key = heapq.heappop(heap)
            if key in self.dead:
                continue
            if pair_cnt.get(key, 0) != -neg_cnt:
                continue  # stale; a fresher entry exists if still eligible
            return key
        return None


class _WordPieceSelector:
    """Maximizes count(ab) / (count(a) * count(b)) over current symbol
    occurrence counts; ties by higher raw count, then lexicographically
    greatest pair. Scores shift whenever unigram counts move, so each
    round re-scores all live candidates vectorized."""

    def __init__(self, engine: _MergeEngine, min_freq: int):
        self.engine = engine
        self.min_freq = min_freq
        self.slot_of: dict[int, int] = {}
        cap = max(1024, 2 * len(engine.pair_cnt))
        self.left = np.zeros(cap, dtype=np.int64)
        self.right = np.zeros(cap, dtype=np.int64)
        self.cnt = np.zeros(cap, dtype=np.int64)
        self.alive = np.zeros(cap, dtype=bool)
        self.n = 0
        for key, cnt in engine.pair_cnt.items():
            if cnt >= min_freq:
                self._register(key, cnt)

    def _register(self, key: int, cnt: int) -> None:
        if self.n == len(self.cnt):
            for name in ("left", "right", "cnt", "alive"):
                arr = getattr(self, name)
                grown = np.zeros(len(arr) * 2, dtype=arr.dtype)
                grown[: len(arr)] = arr
                setattr(self, name, grown)
        slot = self.n
        self.n += 1
        self.slot_of[key] = slot
        self.left[slot] = key >> _SHIFT
        self.right[slot] = key & _MASK
        self.cnt[slot] = cnt
        self.alive[slot] = True

    def notify(self, changed: Iterable[int]) -> None:
        pair_cnt = self.engine.pair_cnt
        for key in changed:
            cnt = pair_cnt.get(key, 0)
            slot = self.slot_of.get(key)
            if slot is None:
                if cnt >= self.min_freq:
                    self._register(key, cnt)
            else:
                self.cnt[slot] = cnt

    def kill(self, key: int) -> None:
        slot = self.slot_of.get(key)
        if slot is not None:
            self.alive[slot] = False

    def best(self) -> int | None:
        n = self.n
        if n == 0:
            return None
        left = self.left[:n]
        right = self.right[:n]
        cnt = self.cnt[:n]
        occ = self.engine.occ
        denom = occ[left] * occ[right]
        valid = self.alive[:n] & (cnt >= self.min_freq) & (denom > 0)
        if not valid.any():
            return None
        scores = np.where(valid, cnt / np.maximum(denom, 1), -1.0)
        best_score = scores.max()
        if best_score < 0:
            return None
        ties = np.flatnonzero(scores == best_score)
        best_key = None
        best_rank: tuple[int, tuple[str, str]] | None = None
        for slot in ties:
            key = _pack(int(left[slot]), int(right[slot]))
            rank = (int(cnt[slot]), self.engine.pair_strs(key))
            if best_rank is None or rank > best_rank:
                best_rank = rank
                best_key = key
        return best_key


def _run_merge_loop(engine: _MergeEngine, selector, vocab_size: int):
    vocab = list(SPECIALS) + list(engine.alphabet)
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
        a, b = key >> _SHIFT, key & _MASK
        token = merge_output(engine.sym_strs[a], engine.sym_strs[b])
        if token in vocab_set:
            # Merging would alias an existing token string; skipping keeps
            # vocab entries 1:1 with merges and makes encode-time merge
            # replay reproduce training exactly.
            selector.kill(key)
            continue
        new_id = engine.register_symbol(token)
        merges.append((engine.sym_strs[a], engine.sym_strs[b]))
        vocab.append(token)
        vocab_set.add(token)
        selector.notify(engine.apply_merge(a, b, new_id))
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
    specials = set(SPECIALS)
    for word in pretokens:
        if not word or any(ch.isspace() for ch in word):
            raise ValueError(f"invalid pre-token surface: {word!r}")
    ranked = sorted(pretokens.items(), key=lambda kv: (-kv[1], kv[0]))
    vocab = list(SPECIALS)
    for surface, _ in ranked:
        if len(vocab) >= vocab_size:
            break
        if surface not in specials:
            vocab.append(surface)
    return TokenizerModel(
        kind=KIND_WORDLEVEL, vocab=vocab, merges=[], normalizer=normalizer
    )
