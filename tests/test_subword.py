import hashlib
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from artok.corpus import Document
from artok.eval import evaluate_model, train_model
from artok.morphseg import CliticTable
from artok.normalize import NormalizerConfig, normalize
from artok.subword import (
    ALL_KINDS,
    CACHE_GENERATION,
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
    truncate_model,
    word_symbols,
)
from artok.trainers import train_from_pretokens

from oracles import oracle_bpe, oracle_decode, oracle_wordpiece


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


def test_count_empty_corpus():
    assert count_pretokens([], "bpe", NormalizerConfig()) == Counter()


def test_count_parallel_matches_sequential():
    texts = [f"كتاب جديد رقم {i} يتحدثها" for i in range(50)]
    seq = count_pretokens(docs(*texts), "bpe_morph", NormalizerConfig(), CliticTable())
    par = count_pretokens(docs(*texts), "bpe_morph", NormalizerConfig(), CliticTable(),
                          workers=3)
    assert seq == par


# ---------------------------------------------------------------------------
# bpe training


def test_bpe_first_merge_on_repeated_bigram_word():
    model = train_from_pretokens(Counter({"abab": 5}), "bpe", 20)
    assert model.merges[0] == ("a", "##b")


def test_bpe_vocab_budget_forces_zero_merges():
    pretokens = Counter({"ab": 3, "ba": 2})
    # alphabet: a, b, ##a, ##b -> 4 symbols
    model = train_from_pretokens(pretokens, "bpe", len(SPECIALS) + 4)
    assert model.merges == []
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


def test_bpe_alphabet_truncation_maps_rare_symbols_to_unk():
    pretokens = Counter({"aaaa": 50, "aaab": 50, "q": 1})
    # budget of 3 alphabet slots drops the rarest symbol ('q')
    model = train_from_pretokens(pretokens, "bpe", len(SPECIALS) + 3)
    assert "q" not in model.vocab
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
    assert model.merges == []


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
    assert model.vocab == list(SPECIALS) + ["a", "b"]


def test_wordlevel_tie_break_lexicographic():
    model = train_from_pretokens(Counter({"a": 3, "b": 1, "c": 1}), "wordlevel", 6)
    assert model.vocab == list(SPECIALS) + ["a"]
    model7 = train_from_pretokens(Counter({"a": 3, "b": 1, "c": 1}), "wordlevel", 7)
    assert model7.vocab == list(SPECIALS) + ["a", "b"]


def test_wordlevel_empty_pretokens():
    model = train_from_pretokens(Counter(), "wordlevel", 5)
    assert model.vocab == list(SPECIALS)


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
def test_bpe_merge_list_matches_oracle(words, extra):
    base = len(SPECIALS) + len({s for w in words for s in word_symbols(w)})
    model = train_from_pretokens(words, "bpe", base + extra)
    oracle_vocab, oracle_merges = oracle_bpe(words, base + extra)
    assert model.merges == oracle_merges
    assert model.vocab == oracle_vocab


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
def test_wordpiece_merge_list_matches_oracle(words, extra):
    base = len(SPECIALS) + len({s for w in words for s in word_symbols(w)})
    model = train_from_pretokens(words, "wordpiece", base + extra)
    _, oracle_merges = oracle_wordpiece(words, base + extra)
    assert model.merges == oracle_merges


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
    assert model.merges == []
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


def test_encode_ids_and_tokens_mutually_consistent():
    model = train_from_pretokens(Counter({"كتاب": 5, "كاتب": 3}), "bpe", 25)
    enc = encode(model, "كتاب كاتب مجهول")
    assert [model.vocab[i] for i in enc.ids] == enc.tokens


def test_decode_continuation_concatenation():
    model = train_from_pretokens(Counter({"يتحدثها": 2}), "bpe", 60)
    tok_to_id = model.token_to_id()
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
    tok_to_id = model.token_to_id()
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
    # More distinct words (and, for bpe_morph, stems) than two cache
    # generations hold, then words from the dropped and the old generation
    # again; a fresh model encoding them in reverse order must agree.
    rng = random.Random(3)
    letters = "ابتثجحخدذرزسشصضطظعغفقكلمنهوي"

    def stem():
        return "".join(rng.choice(letters) for _ in range(rng.randint(4, 8)))

    corpus = docs(*(" ".join(stem() for _ in range(50)) for _ in range(40)))
    words = list(dict.fromkeys(
        rng.choice(("", "و", "وال")) + stem() + rng.choice(("", "ها"))
        for _ in range(2 * CACHE_GENERATION + 3000)))
    assert len(words) > 2 * CACHE_GENERATION
    words += words[:500] + words[CACHE_GENERATION:CACHE_GENERATION + 500]
    texts = [" ".join(words[i:i + 64]) for i in range(0, len(words), 64)]
    for kind in ALL_KINDS:
        model = train_model(corpus, kind, 300)
        save_model(model, tmp_path / "m.json")
        served = [encode(model, text).ids for text in texts]
        state = model._encoder_state()
        if kind == "wordlevel":
            assert len(state.words.young) <= model.vocab_size and not state.words.old
        else:
            assert state.words.old
            assert len(state.words.young) + len(state.words.old) <= 2 * CACHE_GENERATION
        if kind == "bpe_morph":
            assert state.segments.old
        assert len(state.segments.young) + len(state.segments.old) <= 2 * CACHE_GENERATION
        fresh = load_model(tmp_path / "m.json")
        assert [encode(fresh, text).ids for text in reversed(texts)] == served[::-1], kind


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


def test_save_is_byte_identical(tmp_path, trained_models):
    model = trained_models[0]
    save_model(model, tmp_path / "a.json")
    save_model(model, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_load_rejects_missing_merges_for_bpe(tmp_path, trained_models):
    path = tmp_path / "m.json"
    save_model(trained_models[0], path)
    data = json.loads(path.read_text(encoding="utf-8"))
    del data["merges"]
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ModelFormatError):
        load_model(path)


@pytest.mark.parametrize("merges", ["ab", [["a", "##b", "c"]], [5], {"a": "##b"}])
def test_load_rejects_malformed_merges(tmp_path, trained_models, merges):
    path = tmp_path / "m.json"
    save_model(trained_models[0], path)
    data = json.loads(path.read_text(encoding="utf-8"))
    del data["checksum"]
    data["merges"] = merges
    path.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
    with pytest.raises(ModelFormatError, match="malformed"):
        load_model(path)


def test_load_rejects_tampered_bundle(tmp_path, trained_models):
    path = tmp_path / "m.json"
    save_model(trained_models[0], path)
    data = json.loads(path.read_text(encoding="utf-8"))
    data["vocab"][7] = data["vocab"][7] + "x"
    path.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
    with pytest.raises(ModelFormatError, match="checksum"):
        load_model(path)


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
    assert vocab_lines == model.vocab
    merge_lines = (tmp_path / "merges.txt").read_text(encoding="utf-8").splitlines()
    assert merge_lines == [f"{a} {b}" for a, b in model.merges]


def test_empty_merge_list_roundtrips(tmp_path):
    # legitimately merge-free bpe model (tiny corpus) must load back
    model = train_from_pretokens(Counter({"ab": 1}), "bpe", 30)
    assert model.merges == []
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
