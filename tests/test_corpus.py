import dataclasses
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import oracle_filter_document

from artok.corpus import (
    Document,
    FilterConfig,
    IngestStats,
    arabic_ratio,
    filter_document,
    filter_stream,
    is_arabic_char,
    load_documents,
)

ARABIC_DOC = " ".join(["كتاب جديد عن تاريخ المدينة"] * 100)


def _write_jsonl(path, records):
    path.write_text(
        "\n".join(json.dumps(r, ensure_ascii=False) for r in records) + "\n",
        encoding="utf-8",
    )


def test_load_jsonl_in_order(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(path, [{"id": str(i), "text": f"نص {i}"} for i in range(3)])
    docs = list(load_documents(path, "jsonl"))
    assert [d.id for d in docs] == ["0", "1", "2"]
    assert docs[1].text == "نص 1"


def test_load_plain_blank_line_split(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("a\n\nb", encoding="utf-8")
    docs = list(load_documents(path, "plain_lines"))
    assert [d.text for d in docs] == ["a", "b"]


def test_load_plain_multiline_groups(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("a\nb\n\n\nc\n", encoding="utf-8")
    docs = list(load_documents(path, "plain_lines"))
    assert [d.text for d in docs] == ["a\nb", "c"]


def test_load_jsonl_skips_malformed_with_count(tmp_path):
    path = tmp_path / "c.jsonl"
    lines = [json.dumps({"text": f"t{i}"}) for i in range(5)]
    lines[2] = "{broken"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    stats = IngestStats()
    docs = list(load_documents(path, "jsonl", stats))
    assert len(docs) == 4
    assert stats.skipped_malformed == 1
    assert stats.read == 4


def test_load_jsonl_missing_text_field_is_malformed(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(path, [{"text": "ok"}, {"body": "no text field"}])
    stats = IngestStats()
    assert len(list(load_documents(path, "jsonl", stats))) == 1
    assert stats.skipped_malformed == 1


def test_load_jsonl_ids_blank_lines_and_non_object_records(tmp_path):
    path = tmp_path / "c.jsonl"
    rejected = [  # ids and sources that are checked, not coerced
        '{"text": "x", "id": 1.0}', '{"text": "x", "id": true}', '{"text": "x", "id": ["x"]}',
        '{"text": "x", "id": {"n": 1}}', '{"text": "x", "source": 5}',
        '{"text": "x", "source": ["web"]}', '{"text": "x", "id": %s}' % ("9" * 5000),
    ]
    path.write_text('{"text": "a", "id": 7}\n \t\n\n[1]\n"text"\n{"text": "b"}\n'
                    '{"text": "c", "id": null}\n{"text": "d", "id": "", "source": "web"}\n'
                    + "\n".join(rejected), encoding="utf-8")
    stats = IngestStats()
    docs = list(load_documents(path, "jsonl", stats))
    assert [d.id for d in docs] == ["7", "c.jsonl:6", "c.jsonl:7", ""]
    assert [d.source for d in docs] == [None, None, None, "web"]
    assert stats.summary() == {"read": 4, "kept": 0, "skipped_malformed": 2 + len(rejected),
                               "rejected_by_reason": {}}


def test_load_jsonl_non_string_text_is_malformed(tmp_path):
    # str() used to turn these into the documents "None", "['كتب']" and "5"
    path = tmp_path / "c.jsonl"
    _write_jsonl(path, [{"text": None}, {"text": ["كتب"]}, {"text": 5}, {"text": "ok"}])
    stats = IngestStats()
    assert [d.text for d in load_documents(path, "jsonl", stats)] == ["ok"]
    assert (stats.skipped_malformed, stats.read) == (3, 1)


def test_load_unknown_format(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("x", encoding="utf-8")
    with pytest.raises(ValueError):
        list(load_documents(path, "parquet"))


def test_arabic_ratio():
    assert arabic_ratio("كتاب") == 1.0
    assert arabic_ratio("book") == 0.0
    assert arabic_ratio("كتاب book") == 0.5
    assert arabic_ratio("123 ... !") == 0.0


def test_filter_low_arabic_ratio():
    doc = Document(id="1", text="hello world hello world hello world hello world hello wo")
    verdict = filter_document(doc, FilterConfig(min_arabic_ratio=0.5))
    assert not verdict.keep
    assert verdict.reason == "low_arabic_ratio"


def test_filter_keeps_long_arabic_doc():
    verdict = filter_document(Document(id="1", text=ARABIC_DOC), FilterConfig())
    assert verdict.keep
    assert verdict.reason is None


def test_filter_navigation_heuristic():
    text = "\n".join(["الرئيسية"] * 10)
    cfg = FilterConfig(min_chars=0, min_words=0, min_arabic_ratio=0.0,
                       max_mean_line_words=3)
    verdict = filter_document(Document(id="1", text=text), cfg)
    assert verdict.reason == "navigation_like"


def test_filter_too_short():
    cfg = FilterConfig(min_chars=50, min_words=5)
    assert filter_document(Document(id="1", text="كتاب"), cfg).reason == "too_short"


def test_filter_empty_beats_everything():
    relaxed = FilterConfig(min_chars=0, min_words=0, min_arabic_ratio=0.0)
    assert filter_document(Document(id="1", text=""), relaxed).reason == "empty"
    assert filter_document(Document(id="1", text="   \n "), relaxed).reason == "empty"


def test_filter_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(min_chars=-1)
    with pytest.raises(ValueError):
        FilterConfig(min_arabic_ratio=1.5)


@pytest.mark.parametrize("field, value", [
    ("min_chars", 2.5), ("min_chars", True), ("min_chars", "50"),
    ("min_words", 2.5), ("min_words", True), ("min_words", -1),
    ("min_arabic_ratio", True), ("min_arabic_ratio", "0.5"), ("min_arabic_ratio", math.nan),
    ("max_mean_line_words", math.nan), ("max_mean_line_words", False),
    ("max_mean_line_words", "3"), ("max_mean_line_words", -0.5),
])
def test_filter_config_rejects_a_bad_value_by_name(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        FilterConfig(**{field: value})


def test_filter_config_accepts_ints_and_floats_and_is_frozen():
    cfg = FilterConfig(min_chars=0, min_words=0, min_arabic_ratio=0, max_mean_line_words=3)
    assert FilterConfig(min_arabic_ratio=1.0, max_mean_line_words=2.5).max_mean_line_words == 2.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.min_words = 5


def test_every_line_separator_is_whitespace_to_split():
    # the navigation mean divides the whole text's words by its non-blank
    # lines, which needs every str.splitlines separator to split words too
    seps = [chr(cp) for cp in range(0x110000) if chr(cp).splitlines() == [""]]
    assert seps == list("\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029")
    for sep in seps + ["\r\n"]:
        text = f"كتاب{sep}جديد {sep}{sep} عن"
        assert text.split() == ["كتاب", "جديد", "عن"]
        lines = [ln.split() for ln in text.splitlines() if ln.strip()]
        assert lines == [["كتاب"], ["جديد"], ["عن"]]


def test_filter_stream_tallies(tmp_path):
    docs = [
        Document(id="1", text=ARABIC_DOC),
        Document(id="2", text=""),
        Document(id="3", text="short"),
    ]
    stats = IngestStats()
    kept = list(filter_stream(docs, FilterConfig(), stats))
    assert [d.id for d in kept] == ["1"]
    assert stats.summary()["rejected_by_reason"] == {"empty": 1, "too_short": 1}


# ---------------------------------------------------------------------------
# Properties

TEXTS = st.text(alphabet="كتابا بحر xyz 123 !\n", max_size=120)


@settings(max_examples=100, deadline=None)
@given(text=TEXTS)
def test_filtering_is_pure(text):
    doc = Document(id="d", text=text)
    cfg = FilterConfig(min_chars=10, min_words=2, min_arabic_ratio=0.3,
                       max_mean_line_words=2)
    assert filter_document(doc, cfg) == filter_document(doc, cfg)


@settings(max_examples=100, deadline=None)
@given(text=TEXTS)
def test_relaxed_thresholds_keep_everything_nonempty(text):
    cfg = FilterConfig(min_chars=0, min_words=0, min_arabic_ratio=0.0,
                       max_mean_line_words=None)
    verdict = filter_document(Document(id="d", text=text), cfg)
    if text.strip():
        assert verdict.keep
    else:
        assert verdict.reason == "empty"


@settings(max_examples=100, deadline=None)
@given(text=st.text(alphabet="كتاب abc", max_size=40),
       noise=st.text(alphabet="0123456789٠١٢٣!?.,؛ ", max_size=20))
def test_arabic_ratio_ignores_digits_and_punctuation(text, noise):
    assert arabic_ratio(text) == arabic_ratio(text + noise)


@settings(max_examples=300, deadline=None)
@given(text=st.text(alphabet=st.one_of(st.characters(), st.characters(min_codepoint=0x0590, max_codepoint=0x0900))))
def test_arabic_ratio_matches_per_character_definition(text):
    alpha = [ch for ch in text if ch.isalpha()]
    arabic = sum(map(is_arabic_char, alpha))
    assert arabic_ratio(text) == (arabic / len(alpha) if alpha else 0.0)


# Arabic letters, diacritics, tatweel, both Arabic-Indic digit sets, letters
# just outside the counted blocks, Latin, punctuation, and every whitespace
# and line-separator kind str.split and str.splitlines know.
FILTER_ALPHABET = ("كتابمدينةءى" "\u064b\u064e\u0650\u0652\u0670" "\u0640"
                   "٠١٩" "۰۴۹" "\u08a0\u08ff\ufb50\ufe70\u0780"
                   "abcXYZ" "0123.,!?؛،-" " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0"
                   "\u2028\u2029\u3000")
FILTER_CONFIGS = st.builds(
    FilterConfig,
    min_chars=st.integers(0, 60),
    min_words=st.integers(0, 8),
    min_arabic_ratio=st.sampled_from([0, 0.3, 0.5, 1]),
    max_mean_line_words=st.one_of(st.none(), st.integers(0, 4)),
)
RELAXED = dict(min_chars=0, min_words=0)


@settings(max_examples=500, deadline=None)
@given(text=st.text(alphabet=FILTER_ALPHABET, max_size=120), cfg=FILTER_CONFIGS)
# marks inside the block are no letters: "a" + mark has ratio 0, not 1/2
@example(text="a\u064b\u064c\u064d\u064e\u064f\u0650\u0651\u0652\u0670",
         cfg=FilterConfig(**RELAXED, min_arabic_ratio=0.5))
@example(text="a\u0640", cfg=FilterConfig(**RELAXED, min_arabic_ratio=0.5))  # tatweel is one
@example(text="a\u0660", cfg=FilterConfig(**RELAXED, min_arabic_ratio=0.5))
@example(text="a\u06f0", cfg=FilterConfig(**RELAXED, min_arabic_ratio=0.5))
# letters outside the ranges count in the denominator only
@example(text="ك\ufb50", cfg=FilterConfig(**RELAXED, min_arabic_ratio=1))
@example(text="ك\ufe70", cfg=FilterConfig(**RELAXED, min_arabic_ratio=1))
@example(text="a\u08a0", cfg=FilterConfig(**RELAXED, min_arabic_ratio=0.5))
@example(text="a\u08ff", cfg=FilterConfig(**RELAXED, min_arabic_ratio=0.5))
@example(text="\x1c", cfg=FilterConfig(**RELAXED, min_arabic_ratio=0))
@example(text="كتب\x1cكتب", cfg=FilterConfig(**RELAXED, min_arabic_ratio=0,
                                               max_mean_line_words=2))
@example(text="", cfg=FilterConfig(**RELAXED, min_arabic_ratio=0))
@example(text="   كتاب", cfg=FilterConfig(min_chars=0, min_words=1, min_arabic_ratio=0))
@example(text="   كتاب", cfg=FilterConfig(min_chars=0, min_words=2, min_arabic_ratio=0))
def test_filter_document_matches_the_per_character_oracle(text, cfg):
    doc = Document(id="d", text=text)
    assert filter_document(doc, cfg) == oracle_filter_document(doc, cfg)
