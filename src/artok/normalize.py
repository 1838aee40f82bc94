"""Arabic text cleaning as an ordered pipeline of pure string transforms.

Every transform is a pure function; the full pipeline order is fixed
(tatweel -> diacritics -> digits -> markup -> entity placeholders ->
repeat collapsing -> whitespace canonicalization) and each step is gated
by a config flag. The codepoint deletions and the digit mapping run
first: they can complete a URL, email or mention ("aـ@b.ab" becomes
the email "a@b.ab") that only a later entity pass would replace.
Collapsing repeats comes after the markup and entity passes and can
forge what they replace ("&aamp;" becomes "&amp;" at cap 1), so when it
changes the text they run again, and collapsing again, until nothing
new is forged. So the pipeline is idempotent for every configuration,
which lets a trained tokenizer re-apply it at encode time without
tracking whether its input was already cleaned.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, asdict
from functools import lru_cache, partial
from typing import Callable

TATWEEL = "ـ"

# Harakat fathatan..sukun plus the superscript alef, as a class body.
_DIACRITICS = "\u064b-\u0652\u0670"
_DIACRITICS_RE = re.compile(f"[{_DIACRITICS}]")

# Arabic-Indic and Extended Arabic-Indic digits, positionally onto ASCII.
_DIGIT_PAIRS = tuple(zip("٠١٢٣٤٥٦٧٨٩" "۰۱۲۳۴۵۶۷۸۹", "0123456789" * 2))

_TAG_RE = re.compile(r"<[^>]*>")
# &amp; decoded last so "&amp;lt;" needs a second pass; strip_markup loops
# to a fixed point for that reason.
_ENTITIES = [
    ("&lt;", "<"),
    ("&gt;", ">"),
    ("&quot;", '"'),
    ("&nbsp;", " "),
    ("&amp;", "&"),
]

# Both patterns open with one character class, which re scans for in C
# before it tries a match; a leading alternation or repeat would have it
# try every position. "(?<=w)ww\." is "www." after its first letter.
_URL_RE = re.compile(r"[A-Za-z](?:[A-Za-z0-9+.-]*://|(?<=w)ww\.)\S+")
_EMAIL_RE = re.compile(
    r"[A-Za-z0-9._%+-][A-Za-z0-9._%+-]*@[A-Za-z0-9-]+(?:\.[A-Za-z0-9-]+)*\.[A-Za-z]{2,}")
_MENTION_RE = re.compile(r"@\w+")


# Replacement tokens for URLs, mentions and emails. They are ASCII and
# contain no whitespace, digits or repeated characters, so they are fixed
# points of the whole pipeline.
URL_PLACEHOLDER = "[URL]"
MENTION_PLACEHOLDER = "[USER]"
EMAIL_PLACEHOLDER = "[EMAIL]"

# The repeat patterns spell one backreference per unit of cap, so they
# take time linear in it to compile; a cap read from a file stays below.
MAX_REPEAT_CAP = 1000


@dataclass(frozen=True)
class NormalizerConfig:
    strip_markup: bool = True
    replace_urls: bool = True
    replace_mentions: bool = True
    replace_emails: bool = True
    remove_tatweel: bool = True
    remove_diacritics: bool = True
    map_digits: bool = True
    collapse_repeats: bool = True
    repeat_cap: int = 2

    def __post_init__(self):
        # Values also arrive from JSON files, where "false" and 2.5 parse
        # without complaint but would misbehave inside normalize.
        for name, value in vars(self).items():
            if name != "repeat_cap" and not isinstance(value, bool):
                raise ValueError(f"normalizer flag {name} must be true or false, not {value!r}")
        if type(self.repeat_cap) is not int:  # bool is an int subclass
            raise ValueError(f"repeat_cap must be an integer, not {self.repeat_cap!r}")
        if not 1 <= self.repeat_cap <= MAX_REPEAT_CAP:
            raise ValueError(f"repeat_cap must be between 1 and {MAX_REPEAT_CAP}, "
                             f"not {self.repeat_cap}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "NormalizerConfig":
        if not isinstance(d, dict):
            raise ValueError("normalizer config must be a JSON object")
        unknown = set(d) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ValueError(f"unknown normalizer fields: {sorted(unknown)}")
        return cls(**d)


def remove_tatweel(text: str) -> str:
    """Delete every U+0640 elongation character; nothing else changes."""
    return text.replace(TATWEEL, "")


def remove_diacritics(text: str) -> str:
    """Delete tashkeel marks (U+064B..U+0652) and the superscript alef."""
    return _DIACRITICS_RE.sub("", text)


def map_digits(text: str) -> str:
    """Map Arabic-Indic and Extended Arabic-Indic digits to ASCII 0-9."""
    # str.translate looks every character up in a Python dict; a
    # containment scan per digit runs in C and most texts hold none. A
    # text of letters alone, such as a word, holds none at all.
    if text.isalpha():
        return text
    for digit, ascii_digit in _DIGIT_PAIRS:
        if digit in text:
            text = text.replace(digit, ascii_digit)
    return text


def strip_markup(text: str) -> str:
    """Drop <...> tags and decode a fixed set of named HTML entities.

    Runs to a fixed point so that entity-encoded tags ("&lt;b&gt;") are
    fully removed in one call; no structural HTML parse is attempted.
    A lone '<' with no closing '>' is left untouched.
    """
    if "<" not in text and "&" not in text:
        return text
    while True:
        out = _TAG_RE.sub("", text)
        for entity, char in _ENTITIES:
            out = out.replace(entity, char)
        if out == text:
            return out
        text = out


def replace_entities(
    text: str,
    *,
    urls: bool = True,
    mentions: bool = True,
    emails: bool = True,
) -> str:
    """Replace URLs, emails and @mentions with placeholder tokens.

    URLs are matched first so an address inside a link is not clipped,
    and emails before mentions so "a@b.com" is not read as mention "@b".
    Each pass runs only when the literal every match holds ("://" or
    "www.", "@") is in the text; most texts hold none.
    """
    if urls and ("://" in text or "www." in text):
        text = _URL_RE.sub(URL_PLACEHOLDER, text)
    if "@" in text:
        if emails:
            text = _EMAIL_RE.sub(EMAIL_PLACEHOLDER, text)
        if mentions:
            text = _MENTION_RE.sub(MENTION_PLACEHOLDER, text)
    return text


@lru_cache(maxsize=8)
def _repeat_sub(cap: int) -> Callable[[str], str]:
    # Any character repeated more than cap times; "." costs less than a
    # "\D" class test at every position scanned.
    pattern = re.compile(r"(.)%s\1+" % (r"\1" * (cap - 1)), re.S)

    def shorten(m: re.Match) -> str:
        ch = m.group(1)
        # str.isdecimal is exactly re's \d: a digit run stays as it is
        return m.group() if ch.isdecimal() else ch * cap
    return partial(pattern.sub, shorten)


def collapse_repeats(text: str, cap: int = 2) -> str:
    """Shorten runs of the same non-digit codepoint longer than cap to cap.

    Digit runs are exempt ("2000" is data, "هههههه" is emphasis).
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    return _repeat_sub(cap)(text)


def fixed_point_test(cfg: NormalizerConfig) -> Callable[[str], bool]:
    """A test that a whitespace-free token is a fixed point of
    `normalize(token, cfg)`. It passes a token only if no enabled pass
    can change it; it may fail a fixed point, such as "a@" under the
    mention pass. No pass's trigger is a letter except tatweel (category
    Lm), so a token of letters alone is searched for tatweel and a run
    of more than repeat_cap of one character. Any other token is searched
    for every enabled trigger: a deleted or mapped code point, "<" or "&",
    "@", "://" or "www.", and a run of more than repeat_cap of one
    non-digit."""
    chars = ""
    if cfg.remove_tatweel:
        chars += TATWEEL
    if cfg.remove_diacritics:
        chars += _DIACRITICS
    if cfg.map_digits:
        chars += "".join(digit for digit, _ in _DIGIT_PAIRS)
    if cfg.strip_markup:
        chars += "<&"
    if cfg.replace_mentions or cfg.replace_emails:
        chars += "@"
    triggers = [f"[{chars}]"] if chars else []
    if cfg.replace_urls:
        triggers += ["://", r"www\."]
    # A run spelled out as "\1\1" costs re less than "\1{2}" or "\1\1+".
    more_of_it = r"\1" * cfg.repeat_cap
    if cfg.collapse_repeats:
        triggers.append(r"(\D)" + more_of_it)
    # "(?!)" matches nothing
    search = re.compile("|".join(triggers) or "(?!)").search
    run = re.compile(r"(.)" + more_of_it if cfg.collapse_repeats else "(?!)").search
    tatweel = cfg.remove_tatweel

    def is_fixed_point(token: str) -> bool:
        if token.isalpha():
            return not (tatweel and TATWEEL in token) and run(token) is None
        return search(token) is None
    return is_fixed_point


def _markup_and_entities(text: str, cfg: NormalizerConfig) -> str:
    """The enabled markup and entity passes, in pipeline order."""
    if cfg.strip_markup:
        text = strip_markup(text)
    if cfg.replace_urls or cfg.replace_mentions or cfg.replace_emails:
        text = replace_entities(
            text,
            urls=cfg.replace_urls,
            mentions=cfg.replace_mentions,
            emails=cfg.replace_emails,
        )
    return text


def normalize(text: str, cfg: NormalizerConfig | None = None) -> str:
    """Apply the enabled transforms in the fixed pipeline order. After
    each collapse that changes the text, the markup and entity passes
    run again, and collapsing again after them, until neither changes
    anything.

    Whitespace canonicalization (runs -> single space, trimmed) always
    runs last regardless of configuration.
    """
    cfg = cfg or NormalizerConfig()
    if cfg.remove_tatweel:
        text = remove_tatweel(text)
    if cfg.remove_diacritics:
        text = remove_diacritics(text)
    if cfg.map_digits:
        text = map_digits(text)
    text = _markup_and_entities(text, cfg)
    if cfg.collapse_repeats:
        while (collapsed := collapse_repeats(text, cfg.repeat_cap)) != text:
            text = _markup_and_entities(collapsed, cfg)
            if text == collapsed:
                break
    # str.split() splits on exactly the characters re's \s matches, so
    # this equals replacing \s+ runs with one space and trimming.
    return " ".join(text.split())
