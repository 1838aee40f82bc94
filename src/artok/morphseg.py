"""Rule-based Arabic clitic segmentation.

Splits proclitics (conjunctions, preposition+determiner fusions, the
determiner) off the front of a word and at most one enclitic pronoun off
the back, leaving a bare stem. Proclitic segments carry a trailing '+'
("و+"), enclitics a leading '+' ("+ها"); stripping the markers and
concatenating always restores the original word.

This is a transparent approximation of an SVM-based segmenter: no
lexicon, so a stem-length guard and longest-match table order stand in
for disambiguation. Dialectal circumfixes (e.g. Egyptian negation) are
deliberately not handled and such words pass through unsegmented.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

from .corpus import ARABIC_CHAR

log = logging.getLogger(__name__)

MIN_STEM_LEN = 2
MAX_PROCLITIC_SEGMENTS = 3

# (form, may_stack): scan order is stripping priority, longest forms
# first. Entries fusing the determiner end the proclitic scan
# (may_stack=False); bare conjunctions allow further stripping.
# Standalone prepositions (ب/ك/ل) are intentionally absent: without a
# lexicon they over-split stems that merely begin with those letters, so
# they are only recognized fused with the determiner.
DEFAULT_PROCLITICS: tuple[tuple[str, bool], ...] = (
    ("وال", False),
    ("فال", False),
    ("بال", False),
    ("كال", False),
    ("لل", False),
    ("ال", False),
    ("و", True),
    ("ف", True),
)

# Object/possessive pronoun suffixes, longest first.
DEFAULT_ENCLITICS: tuple[str, ...] = (
    "كما", "كم", "كن", "هما", "هم", "هن", "ها", "نا", "ني", "ه", "ك", "ي",
)

DETERMINER = "ال"


@dataclass
class Segmentation:
    word: str
    segments: list[str]

    @property
    def stem(self) -> str:
        for seg in self.segments:
            if not seg.startswith("+") and not seg.endswith("+"):
                return seg
        raise ValueError(f"segmentation of {self.word!r} has no bare stem")


@dataclass
class CliticTable:
    proclitics: tuple[tuple[str, bool], ...] = DEFAULT_PROCLITICS
    enclitics: tuple[str, ...] = DEFAULT_ENCLITICS

    def __post_init__(self):
        self.proclitics = tuple((str(f), bool(s)) for f, s in self.proclitics)
        self.enclitics = tuple(str(f) for f in self.enclitics)
        if any(not f for f, _ in self.proclitics) or any(not f for f in self.enclitics):
            raise ValueError("clitic forms must be non-empty")

    def to_dict(self) -> dict:
        return {
            "proclitics": [[f, s] for f, s in self.proclitics],
            "enclitics": list(self.enclitics),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CliticTable":
        pro = []
        for entry in d["proclitics"]:
            if isinstance(entry, str):
                pro.append((entry, True))
            else:
                form, stack = entry
                pro.append((form, bool(stack)))
        return cls(proclitics=tuple(pro), enclitics=tuple(d["enclitics"]))

    @classmethod
    def load(cls, path: str | Path) -> "CliticTable":
        with open(path, encoding="utf-8") as f:
            return cls.from_dict(json.load(f))

    def dump(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, ensure_ascii=False, indent=2)
            f.write("\n")


def _proclitic_parts(form: str) -> tuple[str, ...]:
    # Fused conjunction/preposition + determiner splits into its parts
    # ("وال" -> و, ال); the ل+ال fusion "لل" cannot split without
    # breaking surface concatenation, so it stays whole.
    if len(form) > len(DETERMINER) and form.endswith(DETERMINER):
        return (form[: -len(DETERMINER)], DETERMINER)
    return (form,)


def segment_word(word: str, table: CliticTable | None = None) -> Segmentation:
    """Split one whitespace-free word into marked clitics and a stem.

    Greedy longest-match against the table, at most three proclitic
    segments and one enclitic, never leaving a stem shorter than
    MIN_STEM_LEN. Words matching no rule come back as a single segment.
    """
    if word.split() != [word]:
        raise ValueError("word must be non-empty and whitespace-free")
    table = table or CliticTable()

    prefix: list[str] = []
    rest = word
    used: set[str] = set()
    while len(prefix) < MAX_PROCLITIC_SEGMENTS:
        matched = None
        for form, may_stack in table.proclitics:
            if form in used or not rest.startswith(form):
                continue
            if len(rest) - len(form) < MIN_STEM_LEN:
                continue
            parts = _proclitic_parts(form)
            if len(prefix) + len(parts) > MAX_PROCLITIC_SEGMENTS:
                continue
            matched = (form, may_stack, parts)
            break
        if matched is None:
            break
        form, may_stack, parts = matched
        used.add(form)
        prefix.extend(f"{p}+" for p in parts)
        rest = rest[len(form):]
        if not may_stack:
            break

    suffix: list[str] = []
    for form in table.enclitics:
        if rest.endswith(form) and len(rest) - len(form) >= MIN_STEM_LEN:
            suffix.append(f"+{form}")
            rest = rest[: -len(form)]
            break

    return Segmentation(word=word, segments=prefix + [rest] + suffix)


def _segmentable(word: str) -> bool:
    # '+' inside a raw word would collide with the marker convention.
    return "+" not in word and ARABIC_CHAR.search(word) is not None


def segment_text(text: str, table: CliticTable | None = None) -> str:
    """Segment every Arabic word of normalized text, joining segments
    with single spaces; non-Arabic tokens pass through untouched."""
    table = table or CliticTable()
    out: list[str] = []
    for word in text.split():
        if _segmentable(word):
            out.extend(segment_word(word, table).segments)
        else:
            out.append(word)
    return " ".join(out)


def desegment_text(segmented: str) -> str:
    """Invert segment_text: glue "X+" to the next token and "+X" to the
    previous one, stripping markers.

    A dangling marker (enclitic with nothing before it, proclitic with
    nothing after) is reported and stripped best-effort.
    """
    words: list[str] = []
    pending = ""
    for token in segmented.split():
        if len(token) > 1 and token.endswith("+") and not token.startswith("+"):
            pending += token[:-1]
        elif len(token) > 1 and token.startswith("+"):
            if words and not pending:
                words[-1] += token[1:]
            else:
                log.warning("dangling enclitic marker: %r", token)
                words.append(pending + token[1:])
                pending = ""
        else:
            words.append(pending + token)
            pending = ""
    if pending:
        log.warning("dangling proclitic marker before end of text: %r", pending)
        words.append(pending)
    return " ".join(words)
