"""Shared tokenizer model: vocabulary/id space, encoding, serialization.

All four tokenizer kinds share one model shape: dense ids with the five
reserved tokens at ids 0-4, word-initial symbols stored bare and
word-internal symbols carrying the "##" continuation prefix. A model
embeds the normalizer config (and, for bpe_morph, the clitic table) it
was trained with, so encoding always re-applies the exact training-time
preprocessing.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, ClassVar, Iterable

from .corpus import Document
from .morphseg import CliticTable, desegment_text, segment_word, _segmentable
from .normalize import NormalizerConfig, normalize

log = logging.getLogger(__name__)

FORMAT_VERSION = 1
CONT_PREFIX = "##"

PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
SPECIALS = (PAD_TOKEN, UNK_TOKEN, "[CLS]", "[SEP]", "[MASK]")
UNK_ID = 1

KIND_BPE = "bpe"
KIND_WORDPIECE = "wordpiece"
KIND_WORDLEVEL = "wordlevel"
KIND_BPE_MORPH = "bpe_morph"
ALL_KINDS = (KIND_BPE, KIND_WORDPIECE, KIND_WORDLEVEL, KIND_BPE_MORPH)

WORDPIECE_MAX_WORD_CHARS = 100


class ModelFormatError(ValueError):
    """Raised when a serialized model bundle fails validation."""


@dataclass
class Encoding:
    ids: list[int]
    tokens: list[str]
    word_count: int


@dataclass
class TokenizerModel:
    kind: str
    vocab: list[str]
    merges: list[tuple[str, str]]
    normalizer: NormalizerConfig
    clitic_table: CliticTable | None = None
    # The same for every model: bundles record them and load_model checks them.
    specials: ClassVar[tuple[str, ...]] = SPECIALS
    continuation_prefix: ClassVar[str] = CONT_PREFIX
    # Encode-time state, built on first use; never serialized, and never
    # copied by dataclasses.replace.
    _encoder: "_WordEncoder" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown tokenizer kind: {self.kind!r}")
        if self.kind == KIND_BPE_MORPH and self.clitic_table is None:
            raise ValueError("bpe_morph model requires a clitic table")

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    def _encoder_state(self) -> "_WordEncoder":
        if self._encoder is None:
            self._encoder = _WordEncoder(self)
        return self._encoder

    def token_to_id(self) -> dict:
        return self._encoder_state().token_ids

    def word_encoder(self) -> Callable[[str], tuple[int, ...]]:
        """The model's one word encoder: a normalized whitespace word to
        its ids (for bpe_morph, the ids of its clitic segments in order),
        cached per word in a bounded table."""
        return self._encoder_state().encode


def word_symbols(word: str) -> list[str]:
    """Split a pre-token into its initial symbol alphabet: first character
    bare, every following character prefixed with the continuation mark."""
    return [word[0]] + [CONT_PREFIX + ch for ch in word[1:]]


def merge_output(left: str, right: str) -> str:
    """Token string produced by merging an adjacent symbol pair. The right
    symbol is always word-internal, so its prefix folds away."""
    if not right.startswith(CONT_PREFIX):
        raise ValueError(f"right side of a merge must be a continuation: {right!r}")
    return left + right[len(CONT_PREFIX):]


# ---------------------------------------------------------------------------
# Pre-token counting (shared training front-end)


def _segments(word: str, table: CliticTable) -> list[str]:
    """Clitic segments of one normalized word; words without Arabic
    letters pass through whole."""
    return segment_word(word, table).segments if _segmentable(word) else [word]


def _count_shard(texts: list[str], kind: str, normalizer: NormalizerConfig,
                 table: CliticTable | None) -> Counter:
    words: Counter = Counter()
    for text in texts:
        words.update(normalize(text, normalizer).split())
    if kind != KIND_BPE_MORPH:
        return words
    segments: Counter = Counter()
    for word, n in words.items():
        for seg in _segments(word, table):
            segments[seg] += n
    return segments


def count_pretokens(
    corpus: Iterable[Document],
    kind: str,
    normalizer: NormalizerConfig,
    clitic_table: CliticTable | None = None,
    workers: int = 1,
) -> Counter:
    """Tally pre-token frequencies over a filtered document stream.

    Pre-tokens are the whitespace words of the normalized text, or for
    bpe_morph their clitic segments. Counts are order-free, so the corpus
    is split into `workers` shards counted in worker processes and the
    shard counters are summed.
    """
    if kind == KIND_BPE_MORPH and clitic_table is None:
        raise ValueError("bpe_morph pretokenization requires a clitic table")
    texts = [doc.text for doc in corpus]
    args = (kind, normalizer, clitic_table)
    workers = min(workers, len(texts))
    if workers <= 1:
        return _count_shard(texts, *args)
    counts: Counter = Counter()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_count_shard, texts[i::workers], *args)
                   for i in range(workers)]
        for fut in futures:
            counts.update(fut.result())
    return counts


# ---------------------------------------------------------------------------
# Encoding / decoding


def _bpe_symbols(word: str, ranks: dict) -> list[str]:
    syms = word_symbols(word)
    while len(syms) > 1:
        best_rank = None
        best_pair = None
        for i in range(len(syms) - 1):
            rank = ranks.get((syms[i], syms[i + 1]))
            if rank is not None and (best_rank is None or rank < best_rank):
                best_rank = rank
                best_pair = (syms[i], syms[i + 1])
        if best_pair is None:
            break
        a, b = best_pair
        merged = merge_output(a, b)
        out: list[str] = []
        i = 0
        n = len(syms)
        while i < n:
            if i < n - 1 and syms[i] == a and syms[i + 1] == b:
                out.append(merged)
                i += 2
            else:
                out.append(syms[i])
                i += 1
        syms = out
    return syms


def _wordpiece_pieces(word: str, vocab: dict) -> list[str]:
    if len(word) > WORDPIECE_MAX_WORD_CHARS:
        return [UNK_TOKEN]
    pieces: list[str] = []
    start = 0
    n = len(word)
    while start < n:
        end = n
        piece = None
        while end > start:
            cand = word[start:end]
            if start > 0:
                cand = CONT_PREFIX + cand
            if cand in vocab:
                piece = cand
                break
            end -= 1
        if piece is None:
            return [UNK_TOKEN]
        pieces.append(piece)
        start = end
    return pieces


# Entries per cache generation; a table holds at most two generations.
CACHE_GENERATION = 16384
_UNK_IDS = (UNK_ID,)


class _Generations:
    """A key -> ids table of at most 2 * CACHE_GENERATION entries, so it
    stays bounded on never-repeating traffic. Lookups read `young`, then
    `old`; every miss of `young` stores into it, and a full `young`
    becomes `old`, dropping the previous `old` whole."""

    def __init__(self):
        self.young: dict[str, tuple[int, ...]] = {}
        self.old: dict[str, tuple[int, ...]] = {}

    def get(self, key: str, compute: Callable[[str], tuple[int, ...]]) -> tuple[int, ...]:
        ids = self.young.get(key)
        if ids is None:
            ids = self.old.get(key)
            if ids is None:
                ids = compute(key)
            if len(self.young) >= CACHE_GENERATION:
                self.old, self.young = self.young, {}
            self.young[key] = ids
        return ids


class _WordEncoder:
    """Encode-time state of one model: token ids, merge ranks, a
    word -> ids cache and, once the model first decodes, an id -> piece
    table.

    The word cache holds two generations (`_Generations`). A wordlevel
    model caches only in-vocabulary words, in `young` alone, so its
    cache never outgrows the vocabulary; an out-of-vocabulary word gets
    the one shared `(UNK_ID,)` and no entry.
    bpe_morph encodes a missed word segment by segment through a second
    two-generation table keyed by segment, so a stem seen under other
    clitics is not replayed again. On never-repeated traffic this
    measured a lower p99 latency than a whole-word cache alone and less
    memory than keying every lookup by segment."""

    def __init__(self, model: TokenizerModel):
        self.kind = model.kind
        self.clitic_table = model.clitic_table
        self.vocab = model.vocab
        self.token_ids = {tok: i for i, tok in enumerate(model.vocab)}
        self.ranks = {tuple(m): r for r, m in enumerate(model.merges)}
        self.words = _Generations()
        self.segments = _Generations()
        self._decode_table: tuple[list[str], list[int | None]] | None = None

    def decode_table(self) -> tuple[list[str], list[int | None]]:
        """(pieces, lead_cut), indexed by id: the piece decode joins,
        and how many leading characters to cut when the id is the first
        one kept. A word-start token's piece is " " + token and cuts 1;
        a continuation's is the token without its prefix and cuts 0 (it
        opens the first word bare, even when empty); a dropped reserved
        token's is "" and cuts None. Built on first use, so loading and
        encoding never pay for it."""
        if self._decode_table is None:
            dropped = set(SPECIALS) - {UNK_TOKEN}
            pieces: list[str] = []
            lead_cut: list[int | None] = []
            for tok in self.vocab:
                if tok in dropped:
                    pieces.append("")
                    lead_cut.append(None)
                elif tok.startswith(CONT_PREFIX):
                    pieces.append(tok[len(CONT_PREFIX):])
                    lead_cut.append(0)
                else:
                    pieces.append(" " + tok)
                    lead_cut.append(1)
            self._decode_table = (pieces, lead_cut)
        return self._decode_table

    def encode(self, word: str) -> tuple[int, ...]:
        if self.kind != KIND_WORDLEVEL:
            return self.words.get(word, self._encode_uncached)
        ids = self.words.young.get(word)
        if ids is None:
            i = self.token_ids.get(word)
            if i is None:
                return _UNK_IDS
            ids = self.words.young[word] = (i,)
        return ids

    def _encode_uncached(self, word: str) -> tuple[int, ...]:
        if self.kind == KIND_WORDPIECE:
            token_ids = self.token_ids
            return tuple([token_ids.get(t, UNK_ID) for t in _wordpiece_pieces(word, token_ids)])
        if self.kind == KIND_BPE:
            return self._bpe_ids(word)
        ids: tuple[int, ...] = ()
        for seg in _segments(word, self.clitic_table):
            ids += self.segments.get(seg, self._bpe_ids)
        return ids

    def _bpe_ids(self, word: str) -> tuple[int, ...]:
        token_ids = self.token_ids
        return tuple([token_ids.get(t, UNK_ID) for t in _bpe_symbols(word, self.ranks)])


def encode(model: TokenizerModel, text: str) -> Encoding:
    """Normalize, pre-tokenize and tokenize text with a trained model."""
    encoder = model._encoder_state()
    cache = encoder.words.young
    words = normalize(text, model.normalizer).split()
    ids: list[int] = []
    for word in words:
        ids += cache.get(word) or encoder.encode(word)
    return Encoding(ids=ids, tokens=list(map(model.vocab.__getitem__, ids)),
                    word_count=len(words))


def decode(model: TokenizerModel, ids: Iterable[int]) -> str:
    """Map ids back to text: continuations glue to the previous piece,
    other tokens join with single spaces, reserved tokens other than
    [UNK] drop, and morph segment markers are resolved afterwards."""
    pieces, lead_cut = model._encoder_state().decode_table()
    ids = list(ids)
    if ids and (min(ids) < 0 or max(ids) >= len(pieces)):
        bad = next(i for i in ids if not 0 <= i < len(pieces))
        raise ValueError(f"token id out of range: {bad}")
    text = "".join(map(pieces.__getitem__, ids))
    for i in ids:
        if lead_cut[i] is not None:
            text = text[lead_cut[i]:]
            break
    if model.kind == KIND_BPE_MORPH:
        text = desegment_text(text)
    return text


# ---------------------------------------------------------------------------
# Serialization


def _canonical_payload(model: TokenizerModel) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "continuation_prefix": model.continuation_prefix,
        "specials": list(model.specials),
        "normalizer": model.normalizer.to_dict(),
        "clitic_table": model.clitic_table.to_dict() if model.clitic_table else None,
        "vocab": list(model.vocab),
        "merges": [list(m) for m in model.merges],
    }


def _dumps(obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def _checksum(payload: dict) -> str:
    return hashlib.sha256(_dumps(payload).encode("utf-8")).hexdigest()


def atomic_write_text(path: str | Path, content: str) -> None:
    """Write via a temp file in the target directory plus rename, so a
    failure never leaves a partial output file."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or ".", prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_model(model: TokenizerModel, path: str | Path) -> None:
    """Serialize to a single JSON bundle; byte-identical across re-saves."""
    payload = _canonical_payload(model)
    payload["checksum"] = _checksum(_canonical_payload(model))
    atomic_write_text(path, _dumps(payload) + "\n")


def validate_model(model: TokenizerModel) -> None:
    if list(model.vocab[:len(SPECIALS)]) != list(SPECIALS):
        raise ModelFormatError("reserved tokens must occupy ids 0-4")
    if len(set(model.vocab)) != len(model.vocab):
        raise ModelFormatError("vocabulary contains duplicate tokens")
    if model.kind == KIND_WORDLEVEL and model.merges:
        raise ModelFormatError("wordlevel model must not carry merges")
    vocab_set = set(model.vocab)
    for left, right in model.merges:
        if left not in vocab_set or right not in vocab_set:
            raise ModelFormatError(f"merge input missing from vocab: {(left, right)}")
        if merge_output(left, right) not in vocab_set:
            raise ModelFormatError(f"merge output missing from vocab: {(left, right)}")


def _merge_pairs(pairs: list) -> list[tuple[str, str]]:
    """The bundle's [left, right] merge lists as tuples, each list freed
    as its tuple is made. Holding both doubles the containers a load
    allocates, and CPython's full garbage collections follow that count:
    in a process whose caches stay bounded, one landed in about every
    other load of four models (timed on the serve-cold benchmark)."""
    if not isinstance(pairs, list):
        raise TypeError("merges must be a list")
    pairs.reverse()
    merges = []
    while pairs:
        left, right = pairs.pop()
        merges.append((left, right))
    return merges


def load_model(path: str | Path) -> TokenizerModel:
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model format version: {version!r}")
    stored = data.pop("checksum", None)
    if stored is not None and stored != _checksum(data):
        raise ModelFormatError("model bundle checksum mismatch")
    if data.get("kind") != KIND_WORDLEVEL and "merges" not in data:
        raise ModelFormatError(f"kind {data.get('kind')!r} requires a merge list")
    if data.get("specials") != list(SPECIALS) or data.get("continuation_prefix") != CONT_PREFIX:
        raise ModelFormatError(
            f"bundle must use the reserved tokens {list(SPECIALS)} "
            f"and the continuation prefix {CONT_PREFIX!r}"
        )
    try:
        model = TokenizerModel(
            kind=data["kind"],
            vocab=list(data["vocab"]),
            merges=_merge_pairs(data["merges"]),
            normalizer=NormalizerConfig.from_dict(data["normalizer"]),
            clitic_table=(
                CliticTable.from_dict(data["clitic_table"])
                if data.get("clitic_table") else None
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model bundle: {exc}") from exc
    validate_model(model)
    return model


def export_vocab_txt(model: TokenizerModel, path: str | Path) -> None:
    """One token per line; line number equals token id."""
    atomic_write_text(path, "".join(tok + "\n" for tok in model.vocab))


def export_merges_txt(model: TokenizerModel, path: str | Path) -> None:
    """One "left right" pair per line; file order is merge priority."""
    atomic_write_text(path, "".join(f"{a} {b}\n" for a, b in model.merges))


def truncate_model(model: TokenizerModel, vocab_size: int) -> TokenizerModel:
    """Derive the smaller-vocabulary model that training to vocab_size on
    the same corpus would have produced.

    Valid because merge selection never depends on the target size: the
    smaller model's vocab and merge list are exact prefixes.
    """
    if model.kind == KIND_WORDLEVEL:
        # frequency-ranked vocab: the prefix is exactly the smaller model
        floor = len(SPECIALS)
        if vocab_size < floor:
            raise ValueError("cannot truncate below the reserved tokens")
    else:
        # specials and alphabet come first, then one vocab entry per merge
        floor = len(model.vocab) - len(model.merges)
        if vocab_size < floor:
            raise ValueError(f"cannot truncate below specials + alphabet ({floor})")
    return replace(model, vocab=model.vocab[:vocab_size],
                   merges=model.merges[:vocab_size - floor])
