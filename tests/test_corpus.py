import json

import pytest
from hypothesis import given, settings, strategies as st

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
