import functools
import gc
import hashlib
import json
import os
import pickle
import random
import re
import subprocess
import sys
import weakref
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from artok import subword, trainers
from artok.corpus import Document
from artok.eval import evaluate_model, train_model
from artok.morphseg import CliticTable, _segmentable, segment_word
from artok.normalize import NormalizerConfig, normalize
from artok.subword import (
    ALL_KINDS,
    CACHE_SIZE,
    SPECIALS,
    UNK_ID,
    ModelFormatError,
    TokenizerModel,
    count_pretokens,
    decode,
    encode,
    export_merges_txt,
    export_vocab_txt,
    load_model,
    save_model,
    merge_output,
    truncate_model,
)
from artok.trainers import _check_pretokens, train_from_pretokens

from oracles import (
    oracle_bpe,
    oracle_bpe_ids,
    oracle_decode,
    oracle_segment_word,
    oracle_wordpiece,
    oracle_wordpiece_ids,
    word_symbols,
)
from test_normalize import ADVERSARIAL, configs


def docs(*texts):
    return [Document(id=str(i), text=t) for i, t in enumerate(texts)]


# ---------------------------------------------------------------------------
# count_pretokens


def test_count_simple():
    counts = count_pretokens(docs("كتاب كتاب"), "bpe", NormalizerConfig())
    assert counts == {"كتاب": 2}


def test_count_morph_segments():
    counts = count_pretokens(docs("يتحدثها"), "bpe_morph", NormalizerConfig(), CliticTable())
    assert counts == {"يتحدث": 1, "+ها": 1}


def test_count_pretokens_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="^unknown tokenizer kind: 'nonsense'$"):
        count_pretokens(docs("كتاب جديد"), "nonsense", NormalizerConfig())


def test_count_morph_passes_non_arabic_words_through():
    corpus = docs("news 2024 يتحدثها كثيرا", "[URL] والكتاب", "")
    counts = count_pretokens(corpus, "bpe_morph", NormalizerConfig(), CliticTable())
    assert counts == {"news": 1, "2024": 1, "يتحدث": 1, "+ها": 1, "كثيرا": 1,
                      "[URL]": 1, "و+": 1, "ال+": 1, "كتاب": 1}


def test_count_empty_corpus():
    assert count_pretokens([], "bpe", NormalizerConfig()) == Counter()


# ---------------------------------------------------------------------------
# bpe training


def test_bpe_first_merge_on_repeated_bigram_word():
    model = train_from_pretokens(Counter({"abab": 5}), "bpe", 20)
    assert model.merges[0] == ("a", "##b")


def test_bpe_vocab_budget_forces_zero_merges():
    pretokens = Counter({"ab": 3, "ba": 2})
    # alphabet: a, b, ##a, ##b -> 4 symbols
    model = train_from_pretokens(pretokens, "bpe", len(SPECIALS) + 4)
    assert model.merges == ()
    assert set(model.vocab) == set(SPECIALS) | {"a", "b", "##a", "##b"}


def test_bpe_matches_oracle_on_classic_corpus():
    pretokens = Counter({"low": 5, "lower": 2, "newest": 6, "widest": 3})
    alphabet = {s for w in pretokens for s in word_symbols(w)}
    target = len(SPECIALS) + len(alphabet) + 10
    model = train_from_pretokens(pretokens, "bpe", target)
    _, oracle_merges = oracle_bpe(pretokens, target)
    assert len(model.merges) == 10
    assert model.merges == oracle_merges


def test_bpe_rejects_empty_and_tiny_vocab():
    with pytest.raises(ValueError):
        train_from_pretokens(Counter(), "bpe", 100)
    with pytest.raises(ValueError):
        train_from_pretokens(Counter({"ab": 1}), "bpe", len(SPECIALS))


@pytest.mark.parametrize("kind", ["bpe", "wordpiece", "wordlevel"])
@pytest.mark.parametrize("pretokens", [{"a b": 2}, {"": 2}, {"ab": 0}])
def test_every_kind_rejects_invalid_pretokens(kind, pretokens):
    with pytest.raises(ValueError, match="pre-token"):
        train_from_pretokens(pretokens, kind, 50)


def test_pretoken_check_rejects_exactly_the_isspace_code_points():
    chars = [chr(i) for i in range(0x110000)]
    _check_pretokens({"a" + ch + "b": 1 for ch in chars if not ch.isspace()})
    spaces = [ch for ch in chars if ch.isspace()]
    assert len(spaces) > 20
    for ch in spaces:
        with pytest.raises(ValueError, match="pre-token surface"):
            _check_pretokens({"a" + ch + "b": 1})


@pytest.mark.parametrize("kind", ["bpe", "wordpiece"])
def test_bpe_alphabet_truncation_maps_rare_symbols_to_unk(kind):
    pretokens = Counter({"aaaa": 50, "aaab": 50, "q": 1})
    # budget of 3 alphabet slots drops the rarest symbol ('q'); the kept
    # alphabet fills the vocabulary, so no merge can touch an [UNK] symbol
    model = train_from_pretokens(pretokens, kind, len(SPECIALS) + 3)
    assert "q" not in model.vocab
    assert model.merges == ()
    enc = encode(model, "q")
    assert enc.tokens == ["[UNK]"]
    assert enc.ids == [UNK_ID]


# ---------------------------------------------------------------------------
# wordpiece training


def test_wordpiece_prefers_high_score_over_high_count():
    # pair (x,##y): count 4, unigrams 4/4 -> 0.25
    # pair (a,##b): count 6, unigrams 100/100 -> 0.0006
    pretokens = Counter({"xy": 4, "ab": 6, "a": 94, "cb": 94})
    model = train_from_pretokens(pretokens, "wordpiece", len(SPECIALS) + 7 + 1)
    assert model.merges[0] == ("x", "##y")


def test_wordpiece_single_character_corpus_has_no_merges():
    model = train_from_pretokens(Counter({"a": 10}), "wordpiece", 50)
    assert model.merges == ()


def test_wordpiece_deterministic():
    pretokens = Counter({"abc": 4, "abd": 3, "bcd": 2, "cd": 5})
    a = train_from_pretokens(pretokens, "wordpiece", 30)
    b = train_from_pretokens(dict(pretokens), "wordpiece", 30)
    assert a == b


def test_wordpiece_matches_exact_fraction_oracle():
    pretokens = Counter({"low": 5, "lower": 2, "newest": 6, "widest": 3, "west": 4})
    model = train_from_pretokens(pretokens, "wordpiece", 40)
    _, oracle_merges = oracle_wordpiece(pretokens, 40)
    assert model.merges == oracle_merges


# ---------------------------------------------------------------------------
# wordlevel training


def test_wordlevel_all_words_fit():
    model = train_from_pretokens(Counter({"a": 3, "b": 1}), "wordlevel", 7)
    assert model.vocab == SPECIALS + ("a", "b")


def test_wordlevel_tie_break_lexicographic():
    model = train_from_pretokens(Counter({"a": 3, "b": 1, "c": 1}), "wordlevel", 6)
    assert model.vocab == SPECIALS + ("a",)
    model7 = train_from_pretokens(Counter({"a": 3, "b": 1, "c": 1}), "wordlevel", 7)
    assert model7.vocab == SPECIALS + ("a", "b")


def test_wordlevel_empty_pretokens():
    model = train_from_pretokens(Counter(), "wordlevel", 5)
    assert model.vocab == SPECIALS


# ---------------------------------------------------------------------------
# bpe_morph training


def test_morph_merges_never_cross_segment_boundary():
    corpus = docs(*["يتحدثها كثيرا"] * 5)
    model = train_model(corpus, "bpe_morph", 100)
    # pre-tokens are segments, so no learned token mixes stem and enclitic
    seg_tokens = {"يتحدث", "+ها"}
    for tok in model.vocab[len(SPECIALS):]:
        assert "يتحدثه" not in tok.replace("##", "")
    assert seg_tokens <= set(model.vocab)


def test_morph_empty_clitic_table_reduces_to_plain_bpe():
    corpus = docs("والكتاب يتحدثها", "كتاب جديد والكتاب")
    empty = CliticTable(proclitics=(), enclitics=())
    morph = train_model(corpus, "bpe_morph", 60, clitic_table=empty)
    plain = train_model(corpus, "bpe", 60)
    text = "والكتاب يتحدثها كتاب"
    assert encode(morph, text).tokens == encode(plain, text).tokens


def test_morph_without_a_clitic_table_fails_before_training(monkeypatch):
    def engine(*args, **kwargs):
        raise AssertionError("the merge engine was built")
    monkeypatch.setattr(trainers, "_MergeEngine", engine)
    with pytest.raises(ValueError, match="bpe_morph model requires a clitic table"):
        train_from_pretokens(Counter({"كتاب": 3, "يتحدث": 2}), "bpe_morph", 60)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_vocab_size_is_bounded_by_the_code_point_range(kind):
    # the merge engine spells each symbol id as one code point
    limit = sys.maxunicode + 1
    pretokens = Counter({"abab": 3, "ab": 2})
    table = CliticTable()
    if kind == "wordlevel":
        model = train_from_pretokens(pretokens, kind, limit + 1, clitic_table=table)
        assert model.vocab == SPECIALS + ("abab", "ab")
        return
    with pytest.raises(ValueError, match=f"at most {limit}"):
        train_from_pretokens(pretokens, kind, limit + 1, clitic_table=table)
    assert train_from_pretokens(pretokens, kind, limit, clitic_table=table).merges


def test_merge_ids_in_the_surrogate_block(tmp_path):
    # 55,296 one-character pre-tokens plus "a" and "##b" fill ids up to
    # 0xD806, so the one merge gets id 0xD807, a surrogate code point.
    singles = [chr(cp) for cp in range(0x10000, 0x10000 + 55296)]
    pretokens = Counter(dict.fromkeys(singles, 1)) + Counter({"ab": 2})
    base = len(SPECIALS) + len(singles) + 2
    assert base == 0xD807
    model = train_from_pretokens(pretokens, "bpe", base + 1)
    assert model.merges == (("a", "##b"),)
    assert model.vocab[0xD807] == merge_output("a", "##b")
    path = tmp_path / "surrogate.json"
    save_model(model, path)
    for m in (model, load_model(path)):
        enc = encode(m, "ab " + singles[-1])
        assert enc.ids == [0xD807, base - 1]
        assert decode(m, enc.ids) == "ab " + singles[-1]
        assert m.merges == model.merges and m.vocab == model.vocab


def test_morph_marker_symbol_reaches_vocab():
    model = train_model(docs(*["والكتاب"] * 3), "bpe_morph", 40)
    assert any("+" in tok for tok in model.vocab[len(SPECIALS):])


# ---------------------------------------------------------------------------
# Randomized oracle equivalence


@settings(max_examples=60, deadline=None)
@given(
    words=st.dictionaries(
        st.text(alphabet="abكتabا+", min_size=1, max_size=7),
        st.integers(min_value=1, max_value=30),
        min_size=1,
        max_size=50,
    ),
    extra=st.integers(min_value=0, max_value=60),
)
@example(words={"aaaa": 2, "a": 1, "ab": 2}, extra=10)  # odd run of the self-pair (##a, ##a)
# raw characters equal to low symbol ids, and an astral one
@example(words={"\x01\x05": 3, "\x05\x01\x05": 2, "a\U0001F600\x01": 2}, extra=10)
# after ("a", "##b"), ("ab", "##c") and ("a", "##c") tie on count 2: the
# left token "a" is a prefix of "ab", and the greater pair ("ab", "##c") wins
@example(words={"ab": 10, "abc": 2, "ac": 2}, extra=10)
def test_bpe_merge_list_matches_oracle(words, extra):
    base = len(SPECIALS) + len({s for w in words for s in word_symbols(w)})
    model = train_from_pretokens(words, "bpe", base + extra)
    oracle_vocab, oracle_merges = oracle_bpe(words, base + extra)
    assert model.merges == oracle_merges
    assert model.vocab == oracle_vocab


@settings(max_examples=60, deadline=None)
@given(
    words=st.dictionaries(
        st.text(alphabet="#ab", min_size=1, max_size=6),
        st.integers(min_value=1, max_value=9),
        min_size=1,
        max_size=20,
    ),
    extra=st.integers(min_value=0, max_value=30),
)
# "#" + "###a" spells "##a", which is already a token: the loop retires that pair
@example(words={"##a": 3, "x#": 2}, extra=10)
def test_alias_skips_match_the_oracles(words, extra):
    base = len(SPECIALS) + len({s for w in words for s in word_symbols(w)})
    for kind, oracle in (("bpe", oracle_bpe), ("wordpiece", oracle_wordpiece)):
        model = train_from_pretokens(words, kind, base + extra)
        assert model.merges == oracle(words, base + extra)[1], kind


@settings(max_examples=40, deadline=None)
@given(
    words=st.dictionaries(
        st.text(alphabet="abcده", min_size=1, max_size=6),
        st.integers(min_value=1, max_value=20),
        min_size=1,
        max_size=30,
    ),
    extra=st.integers(min_value=0, max_value=40),
)
@example(words={"aaaa": 2, "a": 1, "ab": 2}, extra=10)  # odd run of the self-pair (##a, ##a)
# raw characters equal to low symbol ids, and an astral one
@example(words={"\x01\x05": 3, "\x05\x01\x05": 2, "a\U0001F600\x01": 2}, extra=10)
def test_wordpiece_merge_list_matches_oracle(words, extra):
    base = len(SPECIALS) + len({s for w in words for s in word_symbols(w)})
    model = train_from_pretokens(words, "wordpiece", base + extra)
    _, oracle_merges = oracle_wordpiece(words, base + extra)
    assert model.merges == oracle_merges


def test_wordpiece_compacts_dead_slots_and_matches_oracle():
    rng = random.Random(0)
    words = {"".join(rng.choice("abcdefgh") for _ in range(rng.randint(2, 8))):
             rng.randint(1, 20) for _ in range(150)}
    size = len(SPECIALS) + len({s for w in words for s in word_symbols(w)}) + 120
    shrinks = []

    class Selector(trainers._WordPieceSelector):
        def _compact(self, live):
            before = len(self.keys)
            super()._compact(live)
            shrinks.append((before, len(self.keys)))

    engine = trainers._MergeEngine(words, size - len(SPECIALS))
    _, merges = trainers._run_merge_loop(engine, Selector(engine, trainers.MIN_PAIR_FREQ), size)
    assert shrinks and all(after < before for before, after in shrinks)
    assert tuple(merges) == oracle_wordpiece(words, size)[1]


def _assert_engine_consistent(engine):
    """pair_cnt is a count-weighted recount of the adjacent pairs of
    engine.words, without retired pairs or zero entries; every word that
    holds a pair is registered under it; occ counts the symbols."""
    recount = Counter()
    occ = Counter()
    for widx, (w, cnt) in enumerate(zip(engine.words, engine.word_counts)):
        for i in range(len(w) - 1):
            recount[w[i:i + 2]] += cnt
            assert widx in engine.pair_words[w[i:i + 2]]
        for sym in w:
            occ[ord(sym)] += cnt
    assert engine.pair_cnt == {pair: n for pair, n in recount.items()
                               if pair not in engine.retired}
    assert [int(n) for n in engine.occ] == [occ[i] for i in range(len(engine.occ))]


@pytest.mark.parametrize("kind", ["bpe", "wordpiece"])
@settings(max_examples=40, deadline=None)
@given(words=st.dictionaries(st.text(alphabet="ab#كت", min_size=1, max_size=8),
                             st.integers(min_value=1, max_value=9), min_size=1, max_size=20))
@example(words={"aaaa": 2, "aaa": 3, "aaaaa": 1})  # self-pair runs: "aaaa" -> "NN", "aaa" -> "Na"
@example(words={"xabab": 3, "yab": 1})  # adjacent sites of (##a, ##b) in "xabab"
@example(words={"##a": 3, "x#": 2})  # "#" + "##a" aliases the token "##a": a retire
@example(words={"a\U0001F600\U0001F600b": 2, "\U0001F600\U0001F600": 3})  # astral
def test_merge_engine_stays_consistent_with_a_full_recount(kind, words):
    """Every apply_merge and retire leaves the engine as a full recount of
    its words would, and apply_merge reports exactly the pairs whose count
    changed."""

    class Engine(trainers._MergeEngine):
        def apply_merge(self, key, token):
            before = dict(self.pair_cnt)
            changed = super().apply_merge(key, token)
            _assert_engine_consistent(self)
            assert changed == {pair for pair in before.keys() | self.pair_cnt.keys()
                               if before.get(pair) != self.pair_cnt.get(pair)}
            return changed

        def retire(self, key):
            super().retire(key)
            _assert_engine_consistent(self)

    size = len(SPECIALS) + len({s for w in words for s in word_symbols(w)}) + 40
    engine = Engine(words, size - len(SPECIALS))
    _assert_engine_consistent(engine)
    selector = (trainers._BpeSelector if kind == "bpe" else trainers._WordPieceSelector)
    trainers._run_merge_loop(engine, selector(engine, trainers.MIN_PAIR_FREQ), size)


# ---------------------------------------------------------------------------
# encode / decode


def test_encode_wordlevel_oov_is_unk():
    model = train_from_pretokens(Counter({"كتاب": 3}), "wordlevel", 6)
    enc = encode(model, "مجهول")
    assert enc.ids == [UNK_ID]
    assert enc.tokens == ["[UNK]"]
    assert enc.word_count == 1


def test_encode_character_fallback_ratio():
    # every pair is a hapax, so the min-frequency rule blocks all merges
    model = train_from_pretokens(Counter({"كتاب": 1}), "bpe", 30)
    assert model.merges == ()
    enc = encode(model, "كتاب")
    assert enc.tokens == ["ك", "##ت", "##ا", "##ب"]
    assert enc.word_count == 1
    assert len(enc.ids) / enc.word_count == 4.0


def test_encode_wordpiece_greedy_longest_match():
    vocab = list(SPECIALS) + ["يتحدث", "##ها", "ي", "##ت"]
    model = TokenizerModel(kind="wordpiece", vocab=vocab, merges=[],
                           normalizer=NormalizerConfig())
    enc = encode(model, "يتحدثها")
    assert enc.tokens == ["يتحدث", "##ها"]


def test_encode_wordpiece_unmatchable_word_is_single_unk():
    vocab = list(SPECIALS) + ["يتحدث"]
    model = TokenizerModel(kind="wordpiece", vocab=vocab, merges=[],
                           normalizer=NormalizerConfig())
    assert encode(model, "يتحدثها").tokens == ["[UNK]"]
    assert encode(model, "ي" * 101).tokens == ["[UNK]"]


def test_encode_wordpiece_word_start_never_matches_a_continuation():
    # A whole word "##ب" used to match the continuation entry "##ب":
    # "كتب ##ب" got the ids of "كتبب", and "##ب" decoded to "ب".
    vocab = list(SPECIALS) + ["ك", "##ت", "##ب", "كتب"]
    model = TokenizerModel(kind="wordpiece", vocab=vocab, merges=[],
                           normalizer=NormalizerConfig())
    assert encode(model, "كتبب").tokens == ["كتب", "##ب"]
    assert encode(model, "كتب ##ب").tokens == ["كتب", "[UNK]"]
    assert encode(model, "##ب").tokens == ["[UNK]"]
    assert decode(model, encode(model, "##ب").ids) == "[UNK]"
    # With "#" and its continuation in the vocab, the word spells out.
    model = TokenizerModel(kind="wordpiece", vocab=vocab + ["#", "###"], merges=[],
                           normalizer=NormalizerConfig())
    assert encode(model, "كتب ##ب").tokens == ["كتب", "#", "###", "##ب"]
    assert decode(model, encode(model, "##ب").ids) == "##ب"


def test_encode_ids_and_tokens_mutually_consistent():
    model = train_from_pretokens(Counter({"كتاب": 5, "كاتب": 3}), "bpe", 25)
    enc = encode(model, "كتاب كاتب مجهول")
    assert [model.vocab[i] for i in enc.ids] == enc.tokens


def test_decode_continuation_concatenation():
    model = train_from_pretokens(Counter({"يتحدثها": 2}), "bpe", 60)
    tok_to_id = model.token_ids
    assert "يتحدثها" in tok_to_id  # fully merged at this budget
    enc = encode(model, "يتحدثها")
    assert decode(model, enc.ids) == "يتحدثها"


def test_decode_roundtrip_two_words():
    model = train_from_pretokens(Counter({"كتاب": 2, "جديد": 2}), "bpe", 40)
    enc = encode(model, "كتاب جديد")
    assert decode(model, enc.ids) == "كتاب جديد"


def test_decode_morph_inverts_segmentation():
    model = train_model(docs(*["يتحدثها"] * 3), "bpe_morph", 60)
    enc = encode(model, "يتحدثها")
    assert decode(model, enc.ids) == "يتحدثها"


def test_decode_drops_reserved_tokens_but_keeps_unk():
    model = train_from_pretokens(Counter({"كتاب": 3}), "wordlevel", 6)
    assert decode(model, [0, 2, 5, 1, 3, 4]) == "كتاب [UNK]"


def test_decode_rejects_out_of_range_ids():
    model = train_from_pretokens(Counter({"a": 1}), "wordlevel", 6)
    for ids in ([99], [-1]):
        with pytest.raises(ValueError):
            decode(model, ids)


@pytest.fixture(scope="module")
def decode_models():
    corpus = docs("والكتاب يتحدثها كثيرا", "وكتب كتاب جديد عن المدينة", "يتحدثها كتاب")
    return {kind: train_model(corpus, kind, 60) for kind in ALL_KINDS}


def test_decode_bare_continuation_starts_an_empty_word():
    # "##" continues nothing at the start, so it opens an empty first word
    vocab = list(SPECIALS) + ["#", "###", "##", "c"]
    model = TokenizerModel(kind="wordpiece", vocab=vocab, merges=[],
                           normalizer=NormalizerConfig())
    for ids in ([7, 8], [0, 7, 8], [6, 7, 8], [8, 7, 6, 5]):
        assert decode(model, ids) == oracle_decode(model, ids)
    assert decode(model, [7, 8]) == " c"


def test_decode_morph_dangling_markers_match_oracle(decode_models):
    model = decode_models["bpe_morph"]
    tok_to_id = model.token_ids
    pro, enc, plus = tok_to_id["و+"], tok_to_id["+ها"], tok_to_id["+"]
    for ids in ([enc], [pro], [enc, pro], [0, enc, 2], [pro, 0], [pro, pro, enc],
                [plus, enc], [pro, plus], []):
        assert decode(model, ids) == oracle_decode(model, ids)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_decode_matches_oracle_on_any_ids(decode_models, data):
    model = decode_models[data.draw(st.sampled_from(ALL_KINDS))]
    ids = data.draw(st.lists(st.integers(0, model.vocab_size - 1), max_size=12))
    assert decode(model, ids) == oracle_decode(model, ids)


def test_word_caches_stay_bounded_and_exact(tmp_path):
    # Over twice as many distinct words (and, for bpe_morph, stems) as a
    # word table holds, then 1000 of them again after they were evicted; a
    # fresh model encoding them in reverse order must agree.
    rng = random.Random(3)
    letters = "ابتثجحخدذرزسشصضطظعغفقكلمنهوي"

    def stem():
        return "".join(rng.choice(letters) for _ in range(rng.randint(4, 8)))

    corpus = docs(*(" ".join(stem() for _ in range(50)) for _ in range(40)))
    words = list(dict.fromkeys(
        rng.choice(("", "و", "وال")) + stem() + rng.choice(("", "ها"))
        for _ in range(2 * CACHE_SIZE + 3000)))
    assert len(words) > 2 * CACHE_SIZE
    words += words[:500] + words[CACHE_SIZE:CACHE_SIZE + 500]
    texts = [" ".join(words[i:i + 64]) for i in range(0, len(words), 64)]
    for kind in ALL_KINDS:
        model = train_model(corpus, kind, 300)
        save_model(model, tmp_path / "m.json")
        served = [encode(model, text).ids for text in texts]
        # bpe_morph has a segment table besides its word table
        tables = [model.word_table]
        if kind == "bpe_morph":
            tables.append(model.encode_word.segment_ids)
        for table in tables:
            info = table.cache_info()
            assert info.currsize <= CACHE_SIZE < info.misses, (kind, info)
        fresh = load_model(tmp_path / "m.json")
        assert [encode(fresh, text).ids for text in reversed(texts)] == served[::-1], kind


# ---------------------------------------------------------------------------
# Merge replay on ids against the string oracle


def _oracle_word_ids(model, word):
    if model.kind == "wordlevel":
        return (model.token_ids.get(word, UNK_ID),)
    if model.kind == "wordpiece":
        return oracle_wordpiece_ids(model, word)
    if model.kind == "bpe":
        return oracle_bpe_ids(model, word)
    segments = (oracle_segment_word(word, model.clitic_table).segments
                if _segmentable(word) else [word])
    return sum((oracle_bpe_ids(model, seg) for seg in segments), ())


@pytest.fixture(scope="module")
def replay_models():
    rng = random.Random(5)
    words = ["".join(rng.choice("ابتكلمو") for _ in range(rng.randint(1, 9)))
             for _ in range(300)]
    words += ["ببببب", "بببببببب", "والكتاب", "وكتبها", "##ب"] * 5
    corpus = docs(*(" ".join(words[i:i + 30]) for i in range(0, len(words), 30)))
    return {kind: train_model(corpus, kind, 120) for kind in ("bpe", "bpe_morph")}


# "a", "b" and "#" are absent from the replay models' vocab; runs of one
# letter exercise the self-pairs.
REPLAY_WORDS = st.one_of(
    st.text(alphabet="ابتكلمو#ab", min_size=1, max_size=100),
    st.builds(str.__mul__, st.sampled_from("بت#"), st.integers(1, 100)),
)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["bpe", "bpe_morph"]), word=REPLAY_WORDS)
@example(kind="bpe", word="ببببب")
@example(kind="bpe_morph", word="والكتابها")
def test_trained_encoders_match_the_string_replay(replay_models, kind, word):
    model = replay_models[kind]
    assert model.encode_word(word) == _oracle_word_ids(model, word)


SIDES = st.text(alphabet="اب#", min_size=1, max_size=3)
SYMBOLS = st.one_of(SIDES, SIDES.map("##".__add__))


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["bpe", "bpe_morph"]),
    vocab=st.lists(SYMBOLS, max_size=10),
    merges=st.lists(st.tuples(SYMBOLS, SYMBOLS), max_size=10),
    repeats=st.integers(0, 3),
    words=st.lists(st.text(alphabet="اب#x", min_size=1, max_size=12), min_size=1, max_size=5),
)
@example(kind="bpe", vocab=["ب", "##ب", "ب##ب"], merges=[("ب", "##ب"), ("##ب", "##ب"),
         ("##ب##", "##ب"), ("ب", "##ب")], repeats=0, words=["ببببب"])
# Both (##ب, ##ا) merge in one round, before the lower-ranked pair that the
# first of them forms with the second could.
@example(kind="bpe", vocab=["ا", "##ا", "##ب", "##با", "##باب"],
         merges=[("##با", "##ب"), ("##ب", "##ا")], repeats=0, words=["ابابا"])
# A duplicate vocab entry fails when the model is made.
@example(kind="bpe", vocab=["ب", "ب", "بب", "##ب"], merges=[("ب", "##ب")], repeats=1,
         words=["بx", "بب"])
def test_unvalidated_encoders_match_the_string_replay(kind, vocab, merges, repeats, words):
    # An in-memory model built from any lists is either made and encodes
    # as the string replay does, duplicate merges included, or fails when
    # it is made: a duplicate vocab entry, or an unsound merge list (a
    # side or output outside the vocab, a right side without the prefix),
    # which raises naming its first bad merge.
    merges = merges + merges[:repeats]
    vocab = list(SPECIALS) + vocab
    token_ids = {tok: i for i, tok in enumerate(vocab)}
    bad = next((m for m in merges if not _merge_sound(token_ids, *m)), None)
    make = functools.partial(TokenizerModel, kind=kind, vocab=vocab, merges=merges,
                             normalizer=NormalizerConfig(), clitic_table=CliticTable())
    if len(token_ids) != len(vocab):
        with pytest.raises(ModelFormatError, match="^vocabulary contains duplicate tokens$"):
            make()
    elif bad is not None:
        with pytest.raises(ModelFormatError, match=re.escape(f": {bad}") + "$"):
            make()
    else:
        model = make()
        for word in words:
            assert model.encode_word(word) == _oracle_word_ids(model, word), word


def _merge_sound(token_ids, left, right):
    return (left in token_ids and right in token_ids and right.startswith("##")
            and left + right[2:] in token_ids)


def test_segment_call_site_sees_each_missed_morph_word(monkeypatch, replay_models):
    # Layer metrics count segment_word calls at this module global.
    model = replace(replay_models["bpe_morph"])
    calls = []

    def counted(word, table):
        calls.append(word)
        return segment_word(word, table)
    monkeypatch.setattr(subword, "segment_word", counted)
    text = "والكتاب وكتبها 12 والكتاب ab كتب وكتبها"
    encode(model, text)
    encode(model, text)
    assert calls == ["والكتاب", "وكتبها", "كتب"]


# ---------------------------------------------------------------------------
# The raw-token table against the whole-text path


@pytest.fixture(scope="module")
def table_models():
    # Letters, digits and punctuation of ADVERSARIAL text, and the
    # placeholders, so that most of its tokens have ids besides [UNK].
    corpus = docs(*["كتاب محمد الهوي وكتابها ابه ab w. 456 2 ! ; / [URL] [USER] [EMAIL]"] * 3,
                  "والكتاب محمدا هوي كتبا bab 54 w/ab")
    return {kind: train_model(corpus, kind, 90) for kind in ALL_KINDS}


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(ALL_KINDS), texts=st.lists(ADVERSARIAL, min_size=1, max_size=6),
       cfg=configs(min_cap=1))
@example(kind="bpe", texts=["كتاب ًْ ٰ كتاب"], cfg=NormalizerConfig())
@example(kind="bpe", texts=["&aamp; aamp; &amp;", "aamp;"], cfg=NormalizerConfig(repeat_cap=1))
@example(kind="wordpiece", texts=["& a@b..cd", "a@b.cd"],
         cfg=NormalizerConfig(repeat_cap=1, replace_mentions=False))
@example(kind="wordpiece", texts=["<b x>كتاب", "a<b x>b x"], cfg=NormalizerConfig())
@example(kind="bpe_morph", texts=["كتـــاب كتاب والكتـاب", "www.x", "a@b.cd"],
         cfg=NormalizerConfig())
# "a@" is a fixed point that the fixed-point test fails
@example(kind="wordpiece", texts=["a@ ab@ a@"], cfg=NormalizerConfig())
@example(kind="bpe", texts=["كتاب\u2028www.x\x1cمحمد", "http://x\u2028a@b.cd\x1cب"],
         cfg=NormalizerConfig())
@example(kind="bpe_morph", texts=["كِتَاب كتاب كِتاب", "وكِتَابها وكتابها"],
         cfg=NormalizerConfig())
# a token that normalizes away, alone and in a markup text
@example(kind="wordlevel", texts=["كتاب ًْ كتاب", "<b>ًْ</b> ًْ &amp; كتاب"],
         cfg=NormalizerConfig())
def test_encode_equals_the_whole_text_path(table_models, kind, texts, cfg):
    # The words of normalize(text), each through the oracle: the path
    # every text took before the table was keyed by the raw token. Each
    # text is sent twice, so tokens miss the table first and then hit it.
    model = replace(table_models[kind], normalizer=cfg)
    for text in texts + texts:
        words = normalize(text, cfg).split()
        ids = [i for word in words for i in _oracle_word_ids(model, word)]
        enc = encode(model, text)
        assert (enc.ids, enc.word_count) == (ids, len(words)), text
        assert enc.tokens == [model.vocab[i] for i in ids]


def test_variants_of_a_word_share_one_encode(monkeypatch, table_models):
    # A token that normalizes to a word of its own is encoded under the
    # word's key: the stem is segmented once for all three spellings.
    model = replace(table_models["bpe_morph"])
    calls = []

    def counted(word, table):
        calls.append(word)
        return segment_word(word, table)
    monkeypatch.setattr(subword, "segment_word", counted)
    enc = encode(model, "كِتَاب كتـاب كتاب")
    assert enc.ids == encode(model, "كتاب كتاب كتاب").ids
    assert calls == ["كتاب"]
    assert model.word_table.cache_info().currsize == 3


def test_encode_empty_text():
    model = train_from_pretokens(Counter({"a": 1}), "wordlevel", 6)
    enc = encode(model, "")
    assert enc.ids == [] and enc.tokens == [] and enc.word_count == 0


def test_encode_applies_embedded_normalizer():
    model = train_from_pretokens(Counter({"محمد": 2}), "bpe", 30)
    enc = encode(model, "<b>مُحَمَّد</b>")
    assert decode(model, enc.ids) == "محمد"


def test_morph_word_count_uses_words_not_segments():
    model = train_model(docs(*["والكتاب يتحدثها"] * 4), "bpe_morph", 80)
    enc = encode(model, "والكتاب يتحدثها")
    assert enc.word_count == 2
    assert len(enc.tokens) >= 4  # segments tokenize separately


@settings(max_examples=60, deadline=None)
@given(
    corpus=st.lists(
        st.lists(st.text(alphabet="كتابمل", min_size=1, max_size=6), min_size=1, max_size=6)
        .map(" ".join),
        min_size=1,
        max_size=8,
    ),
    kind=st.sampled_from(ALL_KINDS),
)
def test_roundtrip_on_corpus_alphabet_text(corpus, kind):
    model = train_model(docs(*corpus), kind, 120)
    for text in corpus:
        expected = normalize(text, model.normalizer)
        enc = encode(model, text)
        assert UNK_ID not in enc.ids
        assert decode(model, enc.ids) == expected
        # eval tallies tokens with the same word encoder
        row = evaluate_model(model, docs(text))
        assert row.corpus_words == enc.word_count
        assert round(row.token_to_word * row.corpus_words) == len(enc.ids)


# ---------------------------------------------------------------------------
# serialization


@pytest.fixture
def trained_models():
    corpus = docs("والكتاب يتحدثها كثيرا", "كتاب جديد عن المدينة", "يتحدثها كتاب")
    pretokens = count_pretokens(corpus, "bpe", NormalizerConfig())
    return [
        train_from_pretokens(pretokens, "bpe", 60),
        train_from_pretokens(pretokens, "wordpiece", 60),
        train_from_pretokens(pretokens, "wordlevel", 20),
        train_model(corpus, "bpe_morph", 60),
    ]


def test_save_load_roundtrip_all_kinds(tmp_path, trained_models):
    for model in trained_models:
        path = tmp_path / f"{model.kind}.json"
        save_model(model, path)
        assert load_model(path) == model


SERVE_THEN_TRAIN = """
import json, sys
from collections import Counter
import artok, artok.cli
from artok import CliticTable, decode, encode, load_model, train_from_pretokens
bundles, text, pretokens = sys.argv[1], sys.argv[2], Counter(json.loads(sys.argv[3]))
served = {}
for kind in artok.ALL_KINDS:
    model = load_model(f"{bundles}/{kind}.json")
    ids = encode(model, text).ids
    served[kind] = [ids, decode(model, ids)]
for kind in ("bpe", "bpe_morph", "wordlevel"):
    train_from_pretokens(pretokens, kind, 60, clitic_table=CliticTable())
serving_loaded_numpy = "numpy" in sys.modules
merges = train_from_pretokens(pretokens, "wordpiece", 60).merges
print(json.dumps([served, serving_loaded_numpy, "numpy" in sys.modules, merges]))
"""


def test_serving_and_training_other_kinds_never_import_numpy(tmp_path, trained_models):
    # Only WordPiece selection needs numpy; a fresh interpreter that
    # loads, encodes and decodes every kind and trains the others never
    # imports it.
    text = "والكتاب يتحدثها كتاب مجهول"
    pretokens = count_pretokens(docs("والكتاب يتحدثها كثيرا", "كتاب جديد عن المدينة"),
                                "bpe", NormalizerConfig())
    for model in trained_models:
        save_model(model, tmp_path / f"{model.kind}.json")
    src = str(Path(subword.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", SERVE_THEN_TRAIN, str(tmp_path), text, json.dumps(pretokens)],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    served, serving_loaded_numpy, training_loaded_numpy, merges = json.loads(proc.stdout)
    assert served == {m.kind: [encode(m, text).ids, decode(m, encode(m, text).ids)]
                      for m in trained_models}
    assert not serving_loaded_numpy
    assert training_loaded_numpy
    expected = train_from_pretokens(pretokens, "wordpiece", 60).merges
    assert expected and merges == [list(m) for m in expected]


def test_no_field_of_a_model_or_its_clitic_table_can_be_assigned(trained_models):
    for value in [*trained_models, trained_models[3].clitic_table]:
        for field in fields(value):
            with pytest.raises(FrozenInstanceError):
                setattr(value, field.name, getattr(value, field.name))


def test_a_morph_model_encodes_as_its_bundle_after_its_table_is_edited(tmp_path,
                                                                       trained_models):
    # Emptying the table of a model that had encoded used to leave the
    # old segmentation in its word cache, while its bundle segmented by
    # the empty table.
    model = trained_models[3]
    ids = encode(model, "وكتابها").ids
    with pytest.raises(FrozenInstanceError):
        model.clitic_table.proclitics = ()
    with pytest.raises(FrozenInstanceError):
        model.clitic_table.enclitics = ()
    save_model(model, tmp_path / "m.json")
    assert encode(model, "وكتابها").ids == encode(load_model(tmp_path / "m.json"),
                                                  "وكتابها").ids == ids


def test_a_model_encodes_as_its_bundle_after_its_merges_are_rebound(tmp_path,
                                                                    trained_models):
    # The same with a bpe model's merge list rebound to [].
    model = trained_models[0]
    ids = encode(model, "كتاب").ids
    with pytest.raises(FrozenInstanceError):
        model.merges = []
    save_model(model, tmp_path / "m.json")
    assert encode(model, "كتاب").ids == encode(load_model(tmp_path / "m.json"),
                                               "كتاب").ids == ids
    assert encode(replace(model, merges=[]), "كتاب").ids != ids


def test_a_model_encodes_as_its_bundle_after_an_in_place_edit(tmp_path):
    # vocab and merges used to be lists: merges.clear() left the model
    # encoding "كتاب" as [11] while its bundle, with no merges, gave
    # [7, 6, 8, 5].
    model = train_from_pretokens(Counter({"كتاب": 3, "كتب": 2}), "bpe", 12)
    ids = encode(model, "كتاب").ids
    assert ids == [11]
    for edit in (lambda: model.merges.clear(), lambda: model.vocab.clear(),
                 lambda: model.merges.append(("ك", "##ت")),
                 lambda: model.merges[0].__setitem__(0, "ت")):
        with pytest.raises((AttributeError, TypeError)):
            edit()
    save_model(model, tmp_path / "m.json")
    assert encode(model, "كتاب").ids == encode(load_model(tmp_path / "m.json"),
                                               "كتاب").ids == ids


def test_every_way_of_making_a_model_holds_tuples(tmp_path, trained_models):
    for model in trained_models:
        save_model(model, tmp_path / "m.json")
        made = [
            model,
            load_model(tmp_path / "m.json"),
            truncate_model(model, model.vocab_size - len(model.merges) // 2),
            replace(model, vocab=list(model.vocab), merges=[list(m) for m in model.merges]),
        ]
        for m in made:
            assert type(m.vocab) is tuple and set(map(type, m.vocab)) == {str}
            assert type(m.merges) is tuple and set(map(type, m.merges)) <= {tuple}
        assert bool(model.merges) == (model.kind != "wordlevel")
        assert made[1] == made[3] == model


def test_a_model_pickles_as_its_fields(trained_models):
    # The encode-time tables stay behind: encode_word, a closure, would
    # not pickle, and a grid worker's model is not encoded where it is made.
    text = "والكتاب يتحدثها كتاب"
    for model in trained_models:
        ids = encode(model, text).ids
        copy = pickle.loads(pickle.dumps(model))
        assert copy == model
        assert set(vars(copy)) == {f.name for f in fields(model)}
        assert encode(copy, text).ids == ids


def test_an_unsound_merge_list_fails_when_the_model_is_made(tmp_path, trained_models):
    model = trained_models[0]
    merges = [*model.merges, ("q", "##q")]
    with pytest.raises(ModelFormatError) as made:
        TokenizerModel(kind="bpe", vocab=list(model.vocab), merges=merges,
                       normalizer=model.normalizer)
    with pytest.raises(ModelFormatError) as loaded:
        _load_with_merges(tmp_path, model, [list(m) for m in merges])
    assert str(made.value) == str(loaded.value) == "merge input missing from vocab: ('q', '##q')"


def test_save_is_byte_identical(tmp_path, trained_models):
    model = trained_models[0]
    save_model(model, tmp_path / "a.json")
    save_model(model, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_dropped_model_is_freed_without_the_cycle_collector(tmp_path, trained_models, kind):
    # a cache that held the model (say, around a bound method) would keep
    # every dropped model alive until a full collection
    path = tmp_path / "m.json"
    save_model(next(m for m in trained_models if m.kind == kind), path)
    gc.collect()
    gc.disable()
    try:
        model = load_model(path)
        decode(model, encode(model, "كتاب والكتاب يتحدثها").ids)
        refs = [weakref.ref(model), weakref.ref(model.encode_word),
                weakref.ref(model.word_table)]
        del model
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("index", [0, 2], ids=["bpe", "wordlevel"])
def test_load_rejects_missing_merges(tmp_path, trained_models, index):
    path = tmp_path / "m.json"
    save_model(trained_models[index], path)
    data = json.loads(path.read_text(encoding="utf-8"))
    del data["checksum"], data["merges"]
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ModelFormatError, match="^malformed model bundle: 'merges'$"):
        load_model(path)


@pytest.mark.parametrize("merges", ["ab", [["a", "##b", "c"]], [5], {"a": "##b"},
                                    [["[UNK]", "[CLS]"]], [[["a"], "##b"]]])
def test_load_rejects_malformed_merges(tmp_path, trained_models, merges):
    path = tmp_path / "m.json"
    save_model(trained_models[0], path)
    data = json.loads(path.read_text(encoding="utf-8"))
    del data["checksum"]
    data["merges"] = merges
    path.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
    with pytest.raises(ModelFormatError, match="malformed"):
        load_model(path)


def _load_with_merges(tmp_path, model, merges):
    path = tmp_path / "m.json"
    save_model(model, path)
    data = json.loads(path.read_text(encoding="utf-8"))
    del data["checksum"]
    data["merges"] = merges
    path.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
    return load_model(path)


@pytest.mark.parametrize("later_bad_merge", [False, True])
@pytest.mark.parametrize("flaw", ["left missing", "right missing", "right not continued",
                                  "output missing", "non-string side",
                                  "three sides", "one side", "a string", "two letters"])
def test_load_names_the_first_bad_merge(tmp_path, trained_models, flaw, later_bad_merge):
    model = trained_models[0]
    ids = model.token_ids
    left = next(t for t in model.vocab[len(SPECIALS):] if not t.startswith("##"))
    right = next(t for t in model.vocab if t.startswith("##")
                 and merge_output(left, t) not in ids)
    bad, message = {
        "left missing": (("q", right), "merge input missing from vocab"),
        "right missing": ((left, "##q"), "merge input missing from vocab"),
        "right not continued": ((left, left), "malformed merge, right side is no continuation"),
        "output missing": ((left, right), "merge output missing from vocab"),
        "non-string side": ((5, right), "malformed merge, sides must be strings"),
        # sound but for its length: the first two sides are a merge of the model
        "three sides": (model.merges[0] + ("zz",), "malformed merge, not a pair"),
        "one side": ((left,), "malformed merge, not a pair"),
        "a string": ("".join(model.merges[0]), "malformed merge, not a pair"),
        # a bundle's two-letter string once loaded as a pair of letters
        "two letters": ("كت", "malformed merge, not a pair"),
    }[flaw]
    merges = list(model.merges)
    merges.insert(len(merges) // 2, bad)
    if later_bad_merge:
        merges.append(("q", "##q"))  # the message must not name it
    # Loading the bundle and making the same model in memory both fail in
    # merge_ids, with the same message; a bundle keeps a string merge a string.
    bundle_merges = [list(m) if isinstance(m, tuple) else m for m in merges]
    for make in (lambda: replace(model, merges=merges),
                 lambda: _load_with_merges(tmp_path, model, bundle_merges)):
        with pytest.raises(ModelFormatError) as err:
            make()
        assert str(err.value) == f"{message}: {bad!r}"


def test_load_rejects_wordlevel_merges(tmp_path, trained_models):
    model = trained_models[2]
    with pytest.raises(ModelFormatError, match="^wordlevel model must not carry merges$"):
        _load_with_merges(tmp_path, model, [[model.vocab[5], "##" + model.vocab[6]]])


def test_load_builds_merge_ids_from_token_ids(tmp_path, trained_models):
    for model in trained_models:
        loaded = _load_with_merges(tmp_path, model, [list(m) for m in model.merges])
        # load builds the table that the first encode then reuses
        assert ("merge_ids" in vars(loaded)) == bool(model.merges)
        left, right, output = loaded.merge_ids
        ids = loaded.token_ids
        assert left == [ids[a] for a, _ in model.merges]
        assert right == [ids[b] for _, b in model.merges]
        assert output == [ids[merge_output(a, b)] for a, b in model.merges]


def test_load_rejects_non_string_vocab_entry(tmp_path, trained_models):
    path = tmp_path / "m.json"
    save_model(trained_models[2], path)
    data = json.loads(path.read_text(encoding="utf-8"))
    del data["checksum"]
    data["vocab"][6] = 5
    path.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
    with pytest.raises(ModelFormatError, match="malformed"):
        load_model(path)


def test_load_rejects_a_repeat_cap_above_the_ceiling(tmp_path, trained_models):
    # The repeat patterns grow with the cap: a huge one would stall the
    # first encode while they compile.
    path = tmp_path / "m.json"
    save_model(trained_models[2], path)
    data = json.loads(path.read_text(encoding="utf-8"))
    del data["checksum"]
    data["normalizer"]["repeat_cap"] = 200_000
    path.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
    with pytest.raises(ModelFormatError, match="^malformed model bundle: repeat_cap must be "
                                               "between 1 and 1000, not 200000$"):
        load_model(path)


def test_load_rejects_tampered_bundle(tmp_path, trained_models):
    path = tmp_path / "m.json"
    save_model(trained_models[0], path)
    data = json.loads(path.read_text(encoding="utf-8"))
    data["vocab"][7] = data["vocab"][7] + "x"
    path.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
    with pytest.raises(ModelFormatError, match="checksum"):
        load_model(path)


@pytest.mark.parametrize("layout", ["as saved", "re-indented"])
def test_load_verifies_the_checksum_in_any_layout(tmp_path, trained_models, monkeypatch,
                                                  layout):
    model = trained_models[0]
    path = tmp_path / "m.json"
    save_model(model, path)
    text = path.read_text(encoding="utf-8")
    if layout == "re-indented":
        text = json.dumps(json.loads(text), ensure_ascii=False, indent=2)
    else:  # the saved bytes carry their own proof; nothing is serialized again
        monkeypatch.setattr(subword, "_checksum", None)
    path.write_text(text, encoding="utf-8")
    assert load_model(path) == model
    # one byte of a vocab entry: "##..." becomes "#$..."
    at = text.index('"##', text.index('"vocab"')) + 2
    path.write_text(text[:at] + "$" + text[at + 1:], encoding="utf-8")
    monkeypatch.undo()
    with pytest.raises(ModelFormatError, match="checksum"):
        load_model(path)
    data = json.loads(text)
    del data["checksum"]
    path.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
    assert load_model(path) == model


def test_load_rejects_version_mismatch(tmp_path, trained_models):
    path = tmp_path / "m.json"
    save_model(trained_models[0], path)
    data = json.loads(path.read_text(encoding="utf-8"))
    data["format_version"] = 99
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ModelFormatError, match="version"):
        load_model(path)


@pytest.mark.parametrize("checksum", ["recomputed", "removed"])
@pytest.mark.parametrize("key, value", [("specials", ["[PAD]"]),
                                        ("continuation_prefix", "@@")])
def test_load_rejects_edited_specials_or_prefix(tmp_path, trained_models, key, value,
                                                checksum):
    path = tmp_path / "m.json"
    save_model(trained_models[0], path)
    data = json.loads(path.read_text(encoding="utf-8"))
    del data["checksum"]
    data[key] = value
    if checksum == "recomputed":
        canonical = json.dumps(data, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
        data["checksum"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    path.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
    with pytest.raises(ModelFormatError, match="reserved tokens"):
        load_model(path)


def test_vocab_and_merges_text_exports(tmp_path, trained_models):
    model = trained_models[0]
    export_vocab_txt(model, tmp_path / "vocab.txt")
    export_merges_txt(model, tmp_path / "merges.txt")
    vocab_lines = (tmp_path / "vocab.txt").read_text(encoding="utf-8").splitlines()
    assert vocab_lines == list(model.vocab)
    merge_lines = (tmp_path / "merges.txt").read_text(encoding="utf-8").splitlines()
    assert merge_lines == [f"{a} {b}" for a, b in model.merges]


def test_empty_merge_list_roundtrips(tmp_path):
    # legitimately merge-free bpe model (tiny corpus) must load back
    model = train_from_pretokens(Counter({"ab": 1}), "bpe", 30)
    assert model.merges == ()
    path = tmp_path / "m.json"
    save_model(model, path)
    assert load_model(path) == model


# ---------------------------------------------------------------------------
# model invariants


def test_specials_occupy_first_five_ids(trained_models):
    for model in trained_models:
        assert tuple(model.vocab[:5]) == SPECIALS
        assert model.vocab[UNK_ID] == "[UNK]"


def test_ids_dense_and_unique(trained_models):
    for model in trained_models:
        assert len(set(model.vocab)) == len(model.vocab)


def test_merge_inputs_and_outputs_in_vocab(trained_models):
    for model in trained_models:
        vocab = set(model.vocab)
        for left, right in model.merges:
            assert left in vocab and right in vocab
            assert left + right.removeprefix("##") in vocab


def test_truncation_equals_direct_training():
    pretokens = Counter({"وقال": 9, "قالها": 7, "كتاب": 6, "الكتاب": 5,
                         "يتحدث": 4, "تحدثنا": 3, "مدينة": 3, "قلم": 2})
    for kind in ("bpe", "wordpiece", "wordlevel"):
        big = train_from_pretokens(pretokens, kind, 80)
        small = train_from_pretokens(pretokens, kind, 40)
        assert truncate_model(big, 40) == small


def test_truncated_model_does_not_share_encoder_state():
    pretokens = Counter({"وقال": 9, "قالها": 7, "كتاب": 6, "الكتاب": 5,
                         "يتحدث": 4, "تحدثنا": 3, "مدينة": 3, "قلم": 2})
    word = "الكتاب"
    for kind, size in (("bpe", 30), ("wordpiece", 30), ("wordlevel", 8)):
        big = train_from_pretokens(pretokens, kind, 80)
        big_ids = encode(big, word).ids
        small = truncate_model(big, size)
        fresh = train_from_pretokens(pretokens, kind, size)
        assert encode(small, word).ids == encode(fresh, word).ids != big_ids, kind


def test_truncating_to_no_smaller_size_returns_the_model_itself():
    pretokens = Counter({"وقال": 9, "قالها": 7, "كتاب": 6, "الكتاب": 5})
    for kind in ("bpe", "wordpiece", "wordlevel"):
        big = train_from_pretokens(pretokens, kind, 40)
        assert truncate_model(big, big.vocab_size) is big, kind
        assert truncate_model(big, big.vocab_size + 3) is big, kind
        assert truncate_model(big, big.vocab_size - 1) is not big, kind


def test_merge_prefix_monotonicity_small():
    pretokens = Counter({"وقال": 9, "قالها": 7, "كتاب": 6, "الكتاب": 5, "قلمنا": 4})
    m_small = train_from_pretokens(pretokens, "bpe", 35)
    m_big = train_from_pretokens(pretokens, "bpe", 50)
    assert m_big.merges[: len(m_small.merges)] == m_small.merges
    assert m_big.vocab[: len(m_small.vocab)] == m_small.vocab


def test_training_deterministic_across_runs():
    rng = random.Random(11)
    words = {"".join(rng.choice("كتابمل") for _ in range(rng.randint(1, 6))): rng.randint(1, 9)
             for _ in range(40)}
    for kind in ("bpe", "wordpiece", "wordlevel"):
        a = train_from_pretokens(dict(words), kind, 70)
        b = train_from_pretokens(Counter(words), kind, 70)
        assert a == b
