import pytest
from hypothesis import given, settings, strategies as st

from artok.corpus import ARABIC_CHAR, is_arabic_char
from artok.morphseg import (
    DEFAULT_ENCLITICS,
    DEFAULT_PROCLITICS,
    MIN_STEM_LEN,
    CliticTable,
    _segmentable,
    desegment_text,
    segment_text,
    segment_word,
)
from artok.normalize import normalize


def test_segments_verb_with_object_pronoun():
    assert segment_word("يتحدثها").segments == ["يتحدث", "+ها"]


def test_dialect_circumfix_stays_whole():
    assert segment_word("مبييتحدثهاش").segments == ["مبييتحدثهاش"]


def test_bare_noun_unchanged():
    assert segment_word("كتاب").segments == ["كتاب"]


def test_conjunction_then_determiner():
    assert segment_word("والكتاب").segments == ["و+", "ال+", "كتاب"]


def test_fused_preposition_determiner_stays_one_segment():
    assert segment_word("للكتاب").segments == ["لل+", "كتاب"]


def test_stem_length_guard():
    # stripping either side of a two-letter word would leave a short stem
    assert segment_word("له").segments == ["له"]


def test_segment_word_rejects_bad_input():
    with pytest.raises(ValueError):
        segment_word("")
    with pytest.raises(ValueError):
        segment_word("كتاب جديد")


def test_segment_text():
    assert segment_text("يتحدثها كثيرا") == "يتحدث +ها كثيرا"
    assert segment_text("") == ""
    assert segment_text("[URL]") == "[URL]"


def test_segment_text_passes_non_arabic_through():
    assert segment_text("news 2024 والكتاب") == "news 2024 و+ ال+ كتاب"


def test_desegment_text():
    assert desegment_text("يتحدث +ها") == "يتحدثها"
    assert desegment_text("و+ ال+ كتاب") == "والكتاب"
    assert desegment_text("كتاب") == "كتاب"


def test_desegment_dangling_markers_best_effort():
    assert desegment_text("+ها كتاب") == "ها كتاب"
    assert desegment_text("و+") == "و"


def test_custom_table_roundtrip(tmp_path):
    table = CliticTable(proclitics=(("ال", False),), enclitics=("ها",))
    path = tmp_path / "t.json"
    table.dump(path)
    assert CliticTable.load(path) == table
    # plain-string proclitics are accepted and default to stacking
    loaded = CliticTable.from_dict({"proclitics": ["و"], "enclitics": []})
    assert loaded.proclitics == (("و", True),)


def test_table_rejects_empty_forms():
    with pytest.raises(ValueError):
        CliticTable(proclitics=(("", True),))


def test_empty_table_segments_nothing():
    table = CliticTable(proclitics=(), enclitics=())
    assert segment_word("والكتاب", table).segments == ["والكتاب"]


def test_default_table_shape():
    forms = [f for f, _ in DEFAULT_PROCLITICS]
    assert "ال" in forms and "و" in forms and "لل" in forms
    assert list(DEFAULT_ENCLITICS)[:2] == sorted(DEFAULT_ENCLITICS[:2], key=len, reverse=True)


# ---------------------------------------------------------------------------
# Properties

ARABIC_WORDS = st.text(alphabet="اكلتبمنهويدسرحقف", min_size=1, max_size=10)
ARABIC_TEXTS = st.lists(ARABIC_WORDS, max_size=8).map(" ".join)


@settings(max_examples=200, deadline=None)
@given(word=ARABIC_WORDS)
def test_concatenation_restores_word(word):
    seg = segment_word(word)
    assert "".join(s.replace("+", "") for s in seg.segments) == word


@settings(max_examples=200, deadline=None)
@given(word=ARABIC_WORDS)
def test_marker_well_formedness_and_single_stem(word):
    seg = segment_word(word)
    stems = 0
    for s in seg.segments:
        if s.startswith("+"):
            assert "+" not in s[1:]
        elif s.endswith("+"):
            assert "+" not in s[:-1]
        else:
            assert "+" not in s
            stems += 1
    assert stems == 1
    assert len(seg.stem) >= MIN_STEM_LEN or seg.segments == [word]


@settings(max_examples=200, deadline=None)
@given(text=ARABIC_TEXTS)
def test_segment_desegment_roundtrip(text):
    text = normalize(text)
    assert desegment_text(segment_text(text)) == text


@settings(max_examples=100, deadline=None)
@given(word=ARABIC_WORDS)
def test_segmentation_deterministic(word):
    assert segment_word(word) == segment_word(word)


def test_script_and_whitespace_checks_agree_with_per_character_checks():
    # _segmentable's regex and segment_word's str.split guard, against
    # is_arabic_char and str.isspace on every code point
    chars = [chr(cp) for cp in range(0x110000)]
    everything = "".join(chars)
    assert ARABIC_CHAR.findall(everything) == [c for c in chars if is_arabic_char(c)]
    assert "".join(everything.split()) == "".join(c for c in chars if not c.isspace())
    for word in [""] + ["كتا" + c + "ب" for c in chars if c.isspace()]:
        with pytest.raises(ValueError):
            segment_word(word)
    assert _segmentable("a\u0750") and not _segmentable("a\u0780") and not _segmentable("و+")
