"""Shared tokenizer model: vocabulary/id space, encoding, serialization.

All four tokenizer kinds share one model shape: dense ids with the five
reserved tokens at ids 0-4, word-initial symbols stored bare and
word-internal symbols carrying the "##" continuation prefix. A model
embeds the normalizer config (and, for bpe_morph, the clitic table) it
was trained with, so encoding always re-applies the exact training-time
preprocessing.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import re
import tempfile
import weakref
from collections import Counter
from dataclasses import dataclass, fields, replace
from functools import cached_property, lru_cache
from itertools import chain, repeat
from operator import add, itemgetter, mul
from pathlib import Path
from typing import Callable, ClassVar, Iterable

from .corpus import Document
from .morphseg import CliticTable, desegment_text, segment_word, _segmentable
from .normalize import NormalizerConfig, fixed_point_test, normalize

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


@dataclass(frozen=True)
class TokenizerModel:
    """A trained tokenizer. A model that exists is valid and immutable:
    when it is made (by a trainer, `load_model`, `truncate_model` or
    `dataclasses.replace`), `vocab` and `merges` become tuples and are
    checked, the merges by building `merge_ids`, and a failed check
    raises ModelFormatError. So the encode-time tables built from the
    fields never outlive them."""

    kind: str
    vocab: tuple[str, ...]
    merges: tuple[tuple[str, str], ...]
    normalizer: NormalizerConfig
    clitic_table: CliticTable | None = None
    # The same for every model: bundles record them and load_model checks them.
    specials: ClassVar[tuple[str, ...]] = SPECIALS
    continuation_prefix: ClassVar[str] = CONT_PREFIX

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown tokenizer kind: {self.kind!r}")
        if self.kind == KIND_BPE_MORPH and self.clitic_table is None:
            raise ValueError("bpe_morph model requires a clitic table")
        merges = tuple(self.merges)
        if not set(map(type, merges)) <= {tuple}:
            # merge_ids rejects each merge that is still no tuple
            merges = tuple([tuple(m) if isinstance(m, list) else m for m in merges])
        object.__setattr__(self, "vocab", tuple(self.vocab))
        object.__setattr__(self, "merges", merges)
        if not all(map(isinstance, self.vocab, repeat(str))):
            raise ModelFormatError("malformed vocabulary, every token must be a string")
        if self.vocab[:len(SPECIALS)] != SPECIALS:
            raise ModelFormatError("reserved tokens must occupy ids 0-4")
        if len(self.token_ids) != len(self.vocab):
            raise ModelFormatError("vocabulary contains duplicate tokens")
        if self.kind == KIND_WORDLEVEL and merges:
            raise ModelFormatError("wordlevel model must not carry merges")
        if merges:
            self.merge_ids

    def __getstate__(self):
        # The fields alone: a copy (a grid worker's model, say) builds its
        # own encode-time tables when it is used.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    # Encode-time state: token_ids and merge_ids are built when the model
    # is made, the rest on first use. Cached properties live in the
    # instance dict, so they are never saved, pickled, compared or copied
    # by dataclasses.replace.

    @cached_property
    def token_ids(self) -> dict[str, int]:
        return {tok: i for i, tok in enumerate(self.vocab)}

    @cached_property
    def merge_ids(self) -> tuple[list[int], list[int], list[int]]:
        """The merges on ids: (left, right, output) lists in rank order,
        built at C level when the model is made. This is the one check of
        a merge list: a merge that is not a pair, a side that is no
        string, a side or output absent from the vocab, or a right side
        that is no continuation raises ModelFormatError naming the first
        such merge."""
        token_ids = self.token_ids
        with contextlib.suppress(KeyError, TypeError):
            if set(map(type, self.merges)) <= {tuple} and set(map(len, self.merges)) <= {2}:
                lefts = list(map(_FIRST, self.merges))
                rights = list(map(_SECOND, self.merges))
                if all(map(str.startswith, rights, repeat(CONT_PREFIX))):
                    outputs = list(map(add, lefts, map(_AFTER_PREFIX, rights)))
                    return tuple([list(map(token_ids.__getitem__, side))
                                  for side in (lefts, rights, outputs)])
        # Some merge fails a check: name the first.
        for merge in self.merges:
            if not isinstance(merge, tuple) or len(merge) != 2:
                raise ModelFormatError(f"malformed merge, not a pair: {merge!r}")
            left, right = merge
            if not (isinstance(left, str) and isinstance(right, str)):
                raise ModelFormatError(f"malformed merge, sides must be strings: {(left, right)}")
            if left not in token_ids or right not in token_ids:
                raise ModelFormatError(f"merge input missing from vocab: {(left, right)}")
            if not right.startswith(CONT_PREFIX):
                raise ModelFormatError(f"malformed merge, right side is no continuation: "
                                       f"{(left, right)}")
            if merge_output(left, right) not in token_ids:
                raise ModelFormatError(f"merge output missing from vocab: {(left, right)}")

    @cached_property
    def encode_word(self) -> Callable[[str], tuple[int, ...]]:
        """The model's word encoder, which does not normalize; see
        `_word_encoder`."""
        bpe = self.kind in (KIND_BPE, KIND_BPE_MORPH)
        return _word_encoder(self.kind, self.token_ids, self.merge_ids if bpe else None,
                             self.clitic_table)

    @cached_property
    def word_table(self) -> Callable[[str], tuple[int, ...]]:
        """The table `encode` looks each raw token up in; see `_tabled`."""
        return _tabled(self.encode_word, self.normalizer)

    @cached_property
    def decode_table(self) -> tuple[list[str], list[int | None]]:
        """(pieces, lead_cut), indexed by id: the piece decode joins,
        and how many leading characters to cut when the id is the first
        one kept. A word-start token's piece is " " + token and cuts 1;
        a continuation's is the token without its prefix and cuts 0 (it
        opens the first word bare, even when empty); a dropped reserved
        token's is "" and cuts None. Built on first use, so loading and
        encoding never pay for it."""
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
        return pieces, lead_cut


_FIRST = itemgetter(0)
_SECOND = itemgetter(1)
_AFTER_PREFIX = itemgetter(slice(len(CONT_PREFIX), None))


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


def count_pretokens(
    corpus: Iterable[Document],
    kind: str,
    normalizer: NormalizerConfig,
    clitic_table: CliticTable | None = None,
) -> Counter:
    """Tally pre-token frequencies over a filtered document stream, in this
    process. Pre-tokens are the whitespace words of the normalized text,
    or for bpe_morph their clitic segments; the table is read for
    bpe_morph only."""
    if kind not in ALL_KINDS:
        raise ValueError(f"unknown tokenizer kind: {kind!r}")
    if kind == KIND_BPE_MORPH and clitic_table is None:
        raise ValueError("bpe_morph pretokenization requires a clitic table")
    words = _count_words(corpus, normalizer)
    return _segment_counts(words, clitic_table) if kind == KIND_BPE_MORPH else words


def _count_words(corpus: Iterable[Document], normalizer: NormalizerConfig) -> Counter:
    """The whitespace words of the documents' normalized texts, counted."""
    words: Counter = Counter()
    for doc in corpus:
        words.update(normalize(doc.text, normalizer).split())
    return words


def _segment_counts(words: Counter, clitic_table: CliticTable) -> Counter:
    """Clitic segment counts of a word Counter: each word's count goes
    to each of its segments, so each word is segmented once."""
    segments: Counter = Counter()
    for word, n in words.items():
        for seg in _segments(word, clitic_table):
            segments[seg] += n
    return segments


# ---------------------------------------------------------------------------
# Encoding / decoding


def _wordpiece_pieces(word: str, token_ids: dict) -> list[int]:
    """A word's longest-match-first piece ids; [UNK_ID] if one is missing."""
    if len(word) > WORDPIECE_MAX_WORD_CHARS:
        return [UNK_ID]
    ids: list[int] = []
    start = 0
    n = len(word)
    while start < n:
        end = n
        while end > start:
            cand = word[start:end]
            if start > 0:
                cand = CONT_PREFIX + cand
            # A word never starts with a continuation entry.
            if cand in token_ids and (start or not cand.startswith(CONT_PREFIX)):
                break
            end -= 1
        else:
            return [UNK_ID]
        ids.append(token_ids[cand])
        start = end
    return ids


# Entries per word table. A table of up to 21,845 entries keeps its dict
# index at 32,768 slots; one more doubles the index.
CACHE_SIZE = 20000


def _word_encoder(kind: str, token_ids: dict, merge_ids: tuple | None,
                  clitic_table: CliticTable | None) -> Callable[[str], tuple[int, ...]]:
    """A model's word encoder: a whitespace-free word to its ids (for
    bpe_morph, the ids of its clitic segments in order), without
    normalizing the word. wordlevel is one lookup; wordpiece matches the
    longest piece first; bpe replays every merge with `_merge_replay`,
    and a character absent from the vocab comes out as UNK_ID. bpe_morph
    encodes a word segment by segment through an LRU table of CACHE_SIZE
    entries keyed by segment (the encoder's `segment_ids` attribute), so
    a stem seen under other clitics is not replayed again. The encoders
    close over the lookup tables, not the model, so a dropped model is
    freed at once."""
    if kind == KIND_WORDLEVEL:
        def wordlevel_ids(word: str) -> tuple[int, ...]:
            return (token_ids.get(word, UNK_ID),)
        return wordlevel_ids
    if kind == KIND_WORDPIECE:
        def wordpiece_ids(word: str) -> tuple[int, ...]:
            return tuple(_wordpiece_pieces(word, token_ids))
        return wordpiece_ids
    start, replay = _merge_replay(token_ids, merge_ids)
    unknown = len(token_ids)
    no_merge = len(merge_ids[0])

    def bpe_ids(word: str) -> tuple[int, ...]:
        ids, ranks = start(word)
        replay(ids, ranks, no_merge)
        if max(ids) == unknown:
            return tuple([i if i < unknown else UNK_ID for i in ids])
        return tuple(ids)
    if kind == KIND_BPE:
        return bpe_ids

    segment_ids = lru_cache(CACHE_SIZE)(bpe_ids)

    def morph_ids(word: str) -> tuple[int, ...]:
        ids: tuple[int, ...] = ()
        for seg in _segments(word, clitic_table):
            ids += segment_ids(seg)
        return ids
    morph_ids.segment_ids = segment_ids
    return morph_ids


def _merge_replay(token_ids: dict, merge_ids: tuple) -> tuple[Callable, Callable]:
    """The BPE merge loop on ids (`TokenizerModel.merge_ids`), as
    (start, replay). start(word) gives two lists: the word's symbol ids,
    with len(token_ids), above every id in the vocab, for a character
    absent from it, and the rank of each adjacent pair. replay(ids, ranks,
    limit) applies the merges of rank below `limit` to them in place:
    each round takes the lowest rank, merges every non-overlapping
    occurrence of its pair from left to right and re-ranks only the pairs
    beside each merge. A replay stops where the lowest rank left reaches
    `limit`, which is where the model truncated to `limit` merges stops
    when no pair repeats in the merges, so replaying on to a higher limit
    gives that limit's ids."""
    lefts, rights, outputs = merge_ids
    # A pair's key is left * width + right, so no merge has a key with the
    # absent character's id on either side.
    unknown = len(token_ids)
    width = unknown + 1
    # A later duplicate of a pair takes its rank; its output is the same.
    rank_of = dict(zip(map(add, map(mul, lefts, repeat(width)), rights),
                       range(len(lefts)))).get
    no_merge = len(lefts)
    first_id = token_ids.get
    # A character's continuation id, without building its "##" string.
    cont_id = {sym[len(CONT_PREFIX):]: i for sym, i in token_ids.items()
               if len(sym) == len(CONT_PREFIX) + 1 and sym.startswith(CONT_PREFIX)}.get

    def start(word: str) -> tuple[list[int], list[int]]:
        ids = [first_id(word[0], unknown), *map(cont_id, word[1:], repeat(unknown))]
        return ids, list(map(rank_of, map(add, map(mul, ids, repeat(width)), ids[1:]),
                             repeat(no_merge)))

    def replay(ids: list[int], ranks: list[int], limit: int) -> None:
        best = min(ranks, default=no_merge)
        while best < limit:
            merged = outputs[best]
            merged_key = merged * width
            i = ranks.index(best)
            while True:
                ids[i] = merged
                del ids[i + 1], ranks[i]
                if i:
                    ranks[i - 1] = rank_of(ids[i - 1] * width + merged, no_merge)
                if i < len(ranks):
                    ranks[i] = rank_of(merged_key + ids[i + 1], no_merge)
                # A re-ranked neighbour never takes `best`: that would need
                # a bare "##" symbol past a word's first position.
                if best not in ranks:
                    break
                i = ranks.index(best, i + 1)
            best = min(ranks, default=no_merge)
    return start, replay


def _tabled(word_ids: Callable[[str], tuple[int, ...]],
            normalizer: NormalizerConfig) -> Callable[[str], tuple[int, ...]]:
    """A model's word table: `word_ids` behind one LRU table of
    CACHE_SIZE entries, so memory stays bounded on never-repeating
    traffic. It is keyed by a raw whitespace token, and its value is the
    ids of the token's normalized word, or () when the token normalizes
    away. A missed token that `fixed_point_test` passes is its own word
    and is encoded as it is. Any other is normalized on its own; a word
    that passes the test is looked up under its own key, so variants of
    one word (with and without diacritics, say) share one encode. The
    table closes over `word_ids`, never the model."""
    is_fixed_point = fixed_point_test(normalizer)

    def token_ids(token: str) -> tuple[int, ...]:
        if is_fixed_point(token):
            return word_ids(token)
        # normalize is looked up here at call time, where tracing wraps it
        word = normalize(token, normalizer)
        if not word:
            return ()
        # A weak reference: the table holding itself would need the
        # cycle collector to free a dropped model.
        return table_ref()(word) if is_fixed_point(word) else word_ids(word)
    table = lru_cache(CACHE_SIZE)(token_ids)
    table_ref = weakref.ref(table)
    return table


def encode(model: TokenizerModel, text: str) -> Encoding:
    """Normalize, pre-tokenize and tokenize text with a trained model:
    each whitespace word goes through `model.word_table`, for every kind.

    Every normalize pass acts inside one whitespace token except markup,
    whose tags and "&nbsp;" can span or make whitespace. So when the text
    holds neither "<" nor "&", the words of normalize(text) are, in
    order, the normalizations of its raw tokens, which the table maps to
    their ids. A text that holds either is normalized whole first; each
    of its words is its own normalization, so the table gives its ids
    as well."""
    if "<" in text or "&" in text:
        text = normalize(text, model.normalizer)
    word_ids = list(map(model.word_table, text.split()))
    ids = list(chain.from_iterable(word_ids))
    vocab = model.vocab
    # not map(vocab.__getitem__, ...): a tuple's is a slot wrapper, slow to call
    return Encoding(ids=ids, tokens=[vocab[i] for i in ids],
                    word_count=len(word_ids) - word_ids.count(()))


def decode(model: TokenizerModel, ids: Iterable[int]) -> str:
    """Map ids back to text: continuations glue to the previous piece,
    other tokens join with single spaces, reserved tokens other than
    [UNK] drop, and morph segment markers are resolved afterwards."""
    pieces, lead_cut = model.decode_table
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
        "specials": model.specials,
        "normalizer": model.normalizer.to_dict(),
        "clitic_table": model.clitic_table.to_dict() if model.clitic_table else None,
        "vocab": model.vocab,
        "merges": model.merges,
    }


def _dumps(obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def _checksum(payload: dict) -> str:
    return hashlib.sha256(_dumps(payload).encode("utf-8")).hexdigest()


_CHECKSUM_HEAD = re.compile(rb'\{"checksum":"([0-9a-f]{64})",')


def _bundle_checksum(raw: bytes, data: dict) -> str:
    """The checksum of the payload `data` parsed from the bundle bytes
    `raw`. save_model writes the canonical payload with the checksum field
    first (keys are sorted). When the bytes without that field hash to
    it, the file's own bytes are trusted as the payload and `data` is not
    serialized again; bytes in any other layout, such as a re-indented
    bundle, are checked by serializing `data` as save_model does. So a
    hand-made bundle whose leading checksum is the hash of its own
    non-canonical bytes (a duplicated key, say) loads, where comparing
    against the canonical serialization would reject it."""
    head = _CHECKSUM_HEAD.match(raw)
    if head:
        digest = hashlib.sha256(b"{" + raw[head.end():].rstrip(b"\n")).hexdigest()
        if digest == head.group(1).decode():
            return digest
    return _checksum(data)


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
    payload["checksum"] = _checksum(payload)
    atomic_write_text(path, _dumps(payload) + "\n")


def _merge_pairs(pairs: list) -> list[tuple[str, str]]:
    """The bundle's [left, right] merge lists as tuples, each list freed
    as its tuple is made. Holding both doubles the containers a load
    allocates, and CPython's full garbage collections follow that count:
    in a process whose caches stay bounded, one landed in about every
    other load of four models (timed on the serve-cold benchmark). A merge
    that is no JSON array stays as it is, for the model's check to name."""
    if not isinstance(pairs, list):
        raise TypeError("merges must be a list")
    pairs.reverse()
    merges = []
    while pairs:
        merge = pairs.pop()
        merges.append(tuple(merge) if isinstance(merge, list) else merge)
    return merges


def load_model(path: str | Path) -> TokenizerModel:
    raw = Path(path).read_bytes()
    data = json.loads(raw.decode("utf-8"))
    if not isinstance(data, dict):
        raise ModelFormatError("model bundle must be a JSON object")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model format version: {version!r}")
    stored = data.pop("checksum", None)
    if stored is not None and stored != _bundle_checksum(raw, data):
        raise ModelFormatError("model bundle checksum mismatch")
    if data.get("specials") != list(SPECIALS) or data.get("continuation_prefix") != CONT_PREFIX:
        raise ModelFormatError(
            f"bundle must use the reserved tokens {list(SPECIALS)} "
            f"and the continuation prefix {CONT_PREFIX!r}"
        )
    try:
        return TokenizerModel(
            kind=data["kind"],
            vocab=tuple(data["vocab"]),
            merges=_merge_pairs(data["merges"]),
            normalizer=NormalizerConfig.from_dict(data["normalizer"]),
            clitic_table=(
                CliticTable.from_dict(data["clitic_table"])
                if data.get("clitic_table") else None
            ),
        )
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model bundle: {exc}") from exc


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
    smaller model's vocab and merge list are exact prefixes. A size below
    the floor raises ValueError; one that cuts nothing returns `model`
    itself, which is frozen, so its encode-time tables are shared.
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
    if vocab_size >= model.vocab_size:
        return model
    return replace(model, vocab=model.vocab[:vocab_size],
                   merges=model.merges[:vocab_size - floor])
