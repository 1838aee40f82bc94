import itertools
import json
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import example, given, settings, strategies as st

from artok.corpus import ARABIC_CHAR, _ARABIC_LETTER_RUN, _ARABIC_OR_SPACE_RUN, is_arabic_char
from artok.morphseg import (
    DEFAULT_ENCLITICS,
    DEFAULT_PROCLITICS,
    MIN_STEM_LEN,
    CliticTable,
    _segmentable,
    desegment_text,
    segment_word,
)
from artok.normalize import normalize
from artok.subword import _segments

from oracles import oracle_desegment, oracle_segment_word


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


def _segment_text(text):
    return " ".join(seg for word in text.split() for seg in _segments(word, CliticTable()))


def test_segment_text():
    assert _segment_text("يتحدثها كثيرا") == "يتحدث +ها كثيرا"
    assert _segment_text("") == ""
    assert _segment_text("[URL]") == "[URL]"


def test_segment_text_passes_non_arabic_through():
    assert _segment_text("news 2024 والكتاب") == "news 2024 و+ ال+ كتاب"


def test_desegment_text():
    assert desegment_text("يتحدث +ها") == "يتحدثها"
    assert desegment_text("و+ ال+ كتاب") == "والكتاب"
    assert desegment_text("كتاب") == "كتاب"


def test_desegment_dangling_markers_best_effort():
    assert desegment_text("+ها كتاب") == "ها كتاب"
    assert desegment_text("و+") == "و"


@pytest.mark.parametrize("text", [
    "a + b",      # lone marker token
    "c++ x",      # proclitic-looking token ending in two markers
    "+ها كتب",    # leading dangling enclitic
    "كتب و+",     # trailing dangling proclitic
    "و+ +ها",     # proclitic straight before an enclitic
    "x +a+ y",    # token marked at both ends
    "a  +b",      # double space
    "a\t+b",      # whitespace other than a single space
    " +ها",       # leading space
    " a",
    "a ",         # trailing space
    "",
])
def test_desegment_text_matches_the_token_loop_at_each_guard(text):
    assert desegment_text(text) == oracle_desegment(text)


@settings(max_examples=500, deadline=None)
@given(text=st.text(alphabet="+ \t\xa0\u200caبو", max_size=16))
def test_desegment_text_matches_the_token_loop(text):
    assert desegment_text(text) == oracle_desegment(text)


def test_desegment_text_matches_the_token_loop_exhaustively():
    texts = ["".join(chars) for n in range(7)
             for chars in itertools.product("+ a\tب", repeat=n)]
    assert len(texts) == 19531
    assert [desegment_text(t) for t in texts] == [oracle_desegment(t) for t in texts]


def test_custom_table_roundtrip(tmp_path):
    table = CliticTable(proclitics=(("ال", False),), enclitics=("ها",))
    path = tmp_path / "t.json"
    path.write_text(json.dumps(table.to_dict(), ensure_ascii=False), encoding="utf-8")
    assert CliticTable.load(path) == table
    # plain-string proclitics are accepted and default to stacking
    loaded = CliticTable.from_dict({"proclitics": ["و"], "enclitics": []})
    assert loaded.proclitics == (("و", True),)


@pytest.mark.parametrize("field", ["proclitics", "enclitics"])
def test_table_rejects_a_string_where_a_list_belongs(field):
    # a string field once loaded as its single letters: "وال" as و, ا, ل
    data = {"proclitics": ["وال"], "enclitics": ["ها"]}
    data[field] = "".join(data[field])
    with pytest.raises(ValueError, match=f"^clitic table field '{field}' must be a JSON array$"):
        CliticTable.from_dict(data)


@pytest.mark.parametrize("data, message", [
    ({"proclitics": []}, "clitic table field 'enclitics' is missing"),
    ({"enclitics": []}, "clitic table field 'proclitics' is missing"),
    ({"proclitics": [["و", True, 1]], "enclitics": []},
     "proclitic must be a string or a [string, bool] pair, not ['و', True, 1]"),
    ({"proclitics": [["و", 1]], "enclitics": []},
     "proclitic must be a string or a [string, bool] pair, not ['و', 1]"),
    ({"proclitics": [[5, True]], "enclitics": []},
     "proclitic must be a string or a [string, bool] pair, not [5, True]"),
    ({"proclitics": [None], "enclitics": []},
     "proclitic must be a string or a [string, bool] pair, not None"),
    ({"proclitics": [], "enclitics": [5]}, "enclitic must be a string, not 5"),
], ids=["no-enclitics", "no-proclitics", "triple", "int-stack", "int-form", "null",
        "int-enclitic"])
def test_table_rejects_a_missing_field_or_a_malformed_entry(data, message):
    # a missing field was a KeyError, a triple failed to unpack, and an
    # enclitic 5 loaded as the form "5"
    with pytest.raises(ValueError) as exc:
        CliticTable.from_dict(data)
    assert str(exc.value) == message


@pytest.mark.parametrize("fields, message", [
    ({"proclitics": ["ال"]}, "proclitic must be a [string, bool] pair, not 'ال'"),
    ({"proclitics": (("و", "no"),)},
     "proclitic must be a string or a [string, bool] pair, not ('و', 'no')"),
    ({"proclitics": (("و", True, False),)},
     "proclitic must be a string or a [string, bool] pair, not ('و', True, False)"),
    ({"enclitics": (5,)}, "enclitic must be a string, not 5"),
], ids=["bare-form", "str-stack", "triple", "int-enclitic"])
def test_a_table_that_exists_is_valid(fields, message):
    # these were coerced: "ال" to ("ا", True), "no" to True and 5 to "5"
    with pytest.raises(ValueError) as exc:
        CliticTable(**fields)
    assert str(exc.value) == message
    table = CliticTable(proclitics=[["و", True]], enclitics=["ها"])
    assert table.proclitics == (("و", True),) and table.enclitics == ("ها",)


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
    stem = next(s for s in seg.segments if not s.startswith("+") and not s.endswith("+"))
    assert len(stem) >= MIN_STEM_LEN or seg.segments == [word]


@settings(max_examples=200, deadline=None)
@given(text=ARABIC_TEXTS)
def test_segment_desegment_roundtrip(text):
    text = normalize(text)
    assert desegment_text(_segment_text(text)) == text


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
    # arabic_ratio's run classes: the block's letters, and the block or whitespace
    assert "".join(_ARABIC_LETTER_RUN.findall(everything)) == "".join(
        c for c in chars if is_arabic_char(c) and c.isalpha())
    assert _ARABIC_OR_SPACE_RUN.sub("", everything) == "".join(
        c for c in chars if not (is_arabic_char(c) or c.isspace()))
    assert "".join(everything.split()) == "".join(c for c in chars if not c.isspace())
    for word in [""] + ["كتا" + c + "ب" for c in chars if c.isspace()]:
        with pytest.raises(ValueError):
            segment_word(word)
    assert _segmentable("a\u0750") and not _segmentable("a\u0780") and not _segmentable("و+")


FORMS = st.text(alphabet="اولبكه", min_size=1, max_size=3)
CLITIC_TABLES = st.builds(
    CliticTable,
    proclitics=st.lists(st.tuples(FORMS, st.booleans()), max_size=8).map(tuple),
    enclitics=st.lists(FORMS, max_size=8).map(tuple),
)


@settings(max_examples=500, deadline=None)
@given(table=st.one_of(st.just(CliticTable()), CLITIC_TABLES),
       word=st.text(alphabet="اولبكهتx", min_size=1, max_size=12))
@example(table=CliticTable(proclitics=(("و", True), ("وا", True)), enclitics=("ا", "ها")),
         word="واكتبها")
def test_segment_word_matches_the_full_table_scan(table, word):
    # Forms in these tables repeat, share first and last characters, and
    # mix stacking with non-stacking entries.
    assert segment_word(word, table) == oracle_segment_word(word, table)


def test_a_clitic_table_is_frozen_and_replace_derives_a_new_one():
    table = CliticTable(proclitics=(("و", True),), enclitics=("ها",))
    assert segment_word("وكتابها", table).segments == ["و+", "كتاب", "+ها"]
    with pytest.raises(FrozenInstanceError):
        table.proclitics = (("ك", True),)
    derived = replace(table, proclitics=(("ك", True),), enclitics=())
    assert segment_word("وكتابها", derived).segments == ["وكتابها"]
    assert segment_word("ككتاب", derived).segments == ["ك+", "كتاب"]
    assert segment_word("وكتابها", table).segments == ["و+", "كتاب", "+ها"]
    assert segment_word("ككتاب", table).segments == ["ككتاب"]
