import re
import unicodedata

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import oracle_normalize

from artok.normalize import (
    EMAIL_PLACEHOLDER,
    MAX_REPEAT_CAP,
    MENTION_PLACEHOLDER,
    URL_PLACEHOLDER,
    NormalizerConfig,
    collapse_repeats,
    fixed_point_test,
    map_digits,
    normalize,
    remove_diacritics,
    remove_tatweel,
    replace_entities,
    strip_markup,
)

DIACRITICS = [chr(c) for c in range(0x064B, 0x0653)] + ["ٰ"]


def test_remove_tatweel():
    assert remove_tatweel("كـــتاب") == "كتاب"
    assert remove_tatweel("كتاب") == "كتاب"
    assert remove_tatweel("ـــ") == ""


def test_remove_diacritics():
    assert remove_diacritics("مُحَمَّد") == "محمد"
    assert remove_diacritics("محمد") == "محمد"
    assert remove_diacritics("بِسْمِ") == "بسم"


def test_map_digits():
    assert map_digits("٢٠٢٤") == "2024"
    assert map_digits("2024") == "2024"
    assert map_digits("سنة ١٩٩٩م") == "سنة 1999م"
    assert map_digits("۴۲") == "42"  # extended Arabic-Indic


def test_replace_entities():
    assert replace_entities("see https://x.ye/a now") == "see [URL] now"
    assert replace_entities("ask @user1") == "ask [USER]"
    assert replace_entities("a@b.com and @a") == "[EMAIL] and [USER]"


def test_collapse_repeats():
    assert collapse_repeats("هههههه", 2) == "هه"
    assert collapse_repeats("2000", 2) == "2000"
    assert collapse_repeats("راااائع!!!", 2) == "راائع!!"


def test_collapse_repeats_bad_cap():
    with pytest.raises(ValueError):
        collapse_repeats("x", 0)


def test_strip_markup():
    assert strip_markup("<b>نص</b>") == "نص"
    assert strip_markup("a &amp; b") == "a & b"
    assert strip_markup("x < 5") == "x < 5"


def test_strip_markup_nested_encoding():
    # entity-encoded tags resolve fully in one call
    assert strip_markup("&lt;b&gt;نص&lt;/b&gt;") == "نص"


def test_normalize_compose():
    assert normalize("<p>مُحَمَّد  ٢٠٢٤</p>") == "محمد 2024"
    assert normalize("") == ""


def test_normalize_all_flags_off():
    cfg = NormalizerConfig(
        strip_markup=False, replace_urls=False, replace_mentions=False,
        replace_emails=False, remove_tatweel=False, remove_diacritics=False,
        map_digits=False, collapse_repeats=False,
    )
    assert normalize("  <b>مُحَمَّد</b>   ٢٠٢٤  ", cfg) == "<b>مُحَمَّد</b> ٢٠٢٤"


def test_config_roundtrip_and_validation():
    cfg = NormalizerConfig(map_digits=False, repeat_cap=3)
    assert NormalizerConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ValueError):
        NormalizerConfig(repeat_cap=0)
    assert NormalizerConfig(repeat_cap=MAX_REPEAT_CAP).repeat_cap == MAX_REPEAT_CAP
    with pytest.raises(ValueError, match="^repeat_cap must be between 1 and 1000, not 1001$"):
        NormalizerConfig(repeat_cap=MAX_REPEAT_CAP + 1)
    with pytest.raises(ValueError):
        NormalizerConfig.from_dict({"no_such_flag": True})
    for bad in ({"map_digits": "false"}, {"strip_markup": 1}, {"repeat_cap": 2.5},
                {"repeat_cap": True}, {"repeat_cap": "2"}):
        with pytest.raises(ValueError):
            NormalizerConfig.from_dict(bad)


def test_placeholders_are_fixed_points():
    for ph in (URL_PLACEHOLDER, MENTION_PLACEHOLDER, EMAIL_PLACEHOLDER):
        assert normalize(ph) == ph


# ---------------------------------------------------------------------------
# Properties

ADVERSARIAL = st.lists(
    st.sampled_from(
        list("كتابمحمدالهوي") + DIACRITICS + list("ـ٠٢٣۴۹456<>&;/@.w ابab!ه\n\t")
        + ["\u00a0", "\u2028", "\x1c", "\u3000"]
        + ["&amp;", "&lt;", "<b>", "www.", "http://", "@u", "x@y.zz"]
    ),
    max_size=12,
).map("".join)



def configs(min_cap):
    return st.builds(
        NormalizerConfig,
        strip_markup=st.booleans(),
        replace_urls=st.booleans(),
        replace_mentions=st.booleans(),
        replace_emails=st.booleans(),
        remove_tatweel=st.booleans(),
        remove_diacritics=st.booleans(),
        map_digits=st.booleans(),
        collapse_repeats=st.booleans(),
        repeat_cap=st.integers(min_value=min_cap, max_value=4),
    )


@settings(max_examples=200, deadline=None)
@given(text=ADVERSARIAL, cfg=configs(min_cap=1))
# a deleted diacritic, tatweel or mapped digit completes a mention/email
@example(text="@ًك", cfg=NormalizerConfig())
@example(text="aـ@b.ab", cfg=NormalizerConfig(replace_mentions=False))
@example(text="x@y٠.zz", cfg=NormalizerConfig(replace_mentions=False))
# collapsing a repeat to one forges an entity or an email
@example(text="&aamp;", cfg=NormalizerConfig(repeat_cap=1))
@example(text="a@b..cd", cfg=NormalizerConfig(repeat_cap=1, replace_mentions=False))
# the forged "&lt;" opens a tag whose removal joins a run that forges "&amp;"
@example(text="&a&llt;b>amp;", cfg=NormalizerConfig(repeat_cap=1))
def test_normalize_idempotent(text, cfg):
    once = normalize(text, cfg)
    assert normalize(once, cfg) == once


@settings(max_examples=500, deadline=None)
@given(text=ADVERSARIAL, cfg=configs(min_cap=1))
def test_normalize_matches_the_ungated_pipeline(text, cfg):
    assert normalize(text, cfg) == oracle_normalize(text, cfg)


# One text at each pass's gate: its trigger literal, a run of digits of
# each kind (ASCII, Arabic-Indic, a non-Arabic Nd), runs that collapse,
# and runs whose collapse to one forges an entity or an email.
@pytest.mark.parametrize("text", ["http://x", "www.x", "x@y.zz", "@u", "<b>", "&amp;lt;",
                                  "1111", "١١١١", "𝟘𝟘𝟘", "ـــ", "\n\n\n", "ههههه",
                                  "&aamp;", "a@b..cd"])
@pytest.mark.parametrize("cap", [1, 2, 3, 4])
@pytest.mark.parametrize("flags", [{}, {"map_digits": False, "remove_tatweel": False,
                                        "replace_urls": False}])
def test_normalize_matches_the_ungated_pipeline_at_each_gate(text, cap, flags):
    cfg = NormalizerConfig(repeat_cap=cap, **flags)
    assert normalize(text, cfg) == oracle_normalize(text, cfg)


def test_re_digit_is_str_isdecimal_on_every_code_point():
    # collapse_repeats hands back a run whose character isdecimal, where
    # its older pattern skipped runs of \d
    digit = re.compile(r"\d")
    assert [c for c in map(chr, range(0x110000)) if bool(digit.match(c)) != c.isdecimal()] == []


@settings(max_examples=500, deadline=None)
@given(text=st.one_of(ADVERSARIAL, st.text()), cfg=configs(min_cap=1))
@example(text="&aamp; ًٌ كتـــاب www.x a@b.cd ١١١ ههه", cfg=NormalizerConfig(repeat_cap=1))
def test_a_token_the_fixed_point_test_passes_is_a_fixed_point(text, cfg):
    # encode keys its word table by raw token and encodes a passing token
    # as it is; a token normalize would change must never pass.
    is_fixed_point = fixed_point_test(cfg)
    for token in text.split():
        if is_fixed_point(token):
            assert normalize(token, cfg) == token


@settings(max_examples=500, deadline=None)
@given(text=st.one_of(ADVERSARIAL, st.text()), cfg=configs(min_cap=1))
@example(text="a&nbsp;b <i>c d</i>&amp;lt;x", cfg=NormalizerConfig())
@example(text="&aamp; a@b..cd", cfg=NormalizerConfig(collapse_repeats=False, repeat_cap=1))
@example(text="&aamp; a@b..cd", cfg=NormalizerConfig(repeat_cap=1, replace_mentions=False))
def test_each_word_of_a_normalized_text_is_its_own_normalization(text, cfg):
    # encode looks the words of a normalized markup text up in the table
    # keyed by raw token, whose value is the ids of the token's normalization
    for word in normalize(text, cfg).split():
        assert normalize(word, cfg) == word


def test_the_fixed_point_test_passes_plain_words_and_fails_each_trigger():
    is_fixed_point = fixed_point_test(NormalizerConfig())
    assert all(map(is_fixed_point, ["كتاب", "2000", "111", "[URL]", "ab!", "هه", "w.x"]))
    assert not any(map(is_fixed_point, ["كتـاب", "كِتاب", "كتاااب", "١٢",
                                        "<b>", "a&b", "@u", "x@y.zz", "http://x", "www.x"]))
    # a disabled pass's trigger passes
    assert fixed_point_test(NormalizerConfig(remove_tatweel=False, map_digits=False))("كتـ١")


@settings(max_examples=150, deadline=None)
@given(text=ADVERSARIAL, cfg=configs(min_cap=1))
def test_normalize_whitespace_canonical(text, cfg):
    out = normalize(text, cfg)
    assert out == out.strip()
    assert not re.search(r"\s\s", out)
    assert not re.search(r"[^\S ]", out)  # only plain spaces survive


@settings(max_examples=150, deadline=None)
@given(text=ADVERSARIAL)
def test_sub_ops_touch_only_their_codepoints(text):
    # deletion ops equal an independent character filter
    assert remove_tatweel(text) == "".join(c for c in text if c != "ـ")
    assert remove_diacritics(text) == "".join(c for c in text if c not in DIACRITICS)
    # digit mapping is positional and leaves non-digits bit-identical
    mapped = map_digits(text)
    assert len(mapped) == len(text)
    for before, after in zip(text, mapped):
        if before in "٠١٢٣٤٥٦٧٨٩۰۱۲۳۴۵۶۷۸۹":
            assert after == str(unicodedata.digit(before))
        else:
            assert after == before


@settings(max_examples=150, deadline=None)
@given(text=st.text(alphabet="ab2ه!", max_size=20), cap=st.integers(1, 3))
def test_collapse_repeats_never_exceeds_cap(text, cap):
    out = collapse_repeats(text, cap)
    for m in re.finditer(r"(\D)\1*", out):
        assert len(m.group(0)) <= cap
    assert collapse_repeats(out, cap) == out
    # digits pass through bit-identical
    assert [c for c in out if c.isdigit()] == [c for c in text if c.isdigit()]
