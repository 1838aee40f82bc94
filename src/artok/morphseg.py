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
import re
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

# An inner token that starts and ends with "+", a lone "+" included.
_BOTH_ENDS_MARKED = re.compile(r" \+(?:[^ ]*\+)? ")


@dataclass
class Segmentation:
    word: str
    segments: list[str]


@dataclass(frozen=True)
class CliticTable:
    """An immutable clitic table: (form, may_stack) proclitics and enclitic
    forms, in stripping priority order. `index`, built once, buckets the
    forms by the character a match must start (proclitics) or end
    (enclitics) with, in table order: first char -> [(form, may_stack,
    marked parts)] and last char -> [(form, marked form)]. It is no
    dataclass field, so equality and `to_dict` see only the forms;
    `dataclasses.replace` derives a new table with its own index. A
    proclitic that is no (string, bool) pair (tuple or list), an enclitic
    that is no string and an empty form raise ValueError."""

    proclitics: tuple[tuple[str, bool], ...] = DEFAULT_PROCLITICS
    enclitics: tuple[str, ...] = DEFAULT_ENCLITICS

    def __post_init__(self):
        for entry in self.proclitics:
            if not _is_proclitic_pair(entry):
                raise ValueError(f"proclitic must be a [string, bool] pair, not {entry!r}")
        for entry in self.enclitics:
            if not isinstance(entry, str):
                raise ValueError(f"enclitic must be a string, not {entry!r}")
        proclitics = tuple(map(tuple, self.proclitics))
        enclitics = tuple(self.enclitics)
        if any(not f for f, _ in proclitics) or any(not f for f in enclitics):
            raise ValueError("clitic forms must be non-empty")
        pro: dict[str, list] = {}
        for form, may_stack in proclitics:
            pro.setdefault(form[0], []).append(
                (form, may_stack, tuple(f"{p}+" for p in _proclitic_parts(form))))
        enc: dict[str, list] = {}
        for form in enclitics:
            enc.setdefault(form[-1], []).append((form, f"+{form}"))
        object.__setattr__(self, "proclitics", proclitics)
        object.__setattr__(self, "enclitics", enclitics)
        object.__setattr__(self, "index", (pro, enc))

    def to_dict(self) -> dict:
        return {
            "proclitics": [[f, s] for f, s in self.proclitics],
            "enclitics": list(self.enclitics),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CliticTable":
        """A table from its JSON form: a proclitic is a form or a [form,
        may_stack] pair, an enclitic a form. A missing field or an entry
        of another shape raises ValueError naming it."""
        if not isinstance(d, dict):
            raise ValueError("clitic table must be a JSON object")
        for field in ("proclitics", "enclitics"):
            if field not in d:
                raise ValueError(f"clitic table field {field!r} is missing")
            if not isinstance(d[field], list):
                # a string would load as its single letters
                raise ValueError(f"clitic table field {field!r} must be a JSON array")
        for entry in d["proclitics"]:
            if not (isinstance(entry, str) or _is_proclitic_pair(entry)):
                raise ValueError(f"proclitic must be a string or a [string, bool] pair, "
                                 f"not {entry!r}")
        return cls(proclitics=[[e, True] if isinstance(e, str) else e for e in d["proclitics"]],
                   enclitics=d["enclitics"])

    @classmethod
    def load(cls, path: str | Path) -> "CliticTable":
        with open(path, encoding="utf-8") as f:
            return cls.from_dict(json.load(f))


def _is_proclitic_pair(entry) -> bool:
    return (isinstance(entry, (tuple, list)) and len(entry) == 2
            and isinstance(entry[0], str) and isinstance(entry[1], bool))


def _proclitic_parts(form: str) -> tuple[str, ...]:
    # Fused conjunction/preposition + determiner splits into its parts
    # ("وال" -> و, ال); the ل+ال fusion "لل" cannot split without
    # breaking surface concatenation, so it stays whole.
    if len(form) > len(DETERMINER) and form.endswith(DETERMINER):
        return (form[: -len(DETERMINER)], DETERMINER)
    return (form,)


_DEFAULT_TABLE = CliticTable()


def segment_word(word: str, table: CliticTable | None = None) -> Segmentation:
    """Split one whitespace-free word into marked clitics and a stem.

    Greedy longest-match against the table, at most three proclitic
    segments and one enclitic, never leaving a stem shorter than
    MIN_STEM_LEN. Words matching no rule come back as a single segment.
    Only the forms that share the word's first (or last) character are
    tried, through the table's `index`; without a table, the default
    table's.
    """
    if word.split() != [word]:
        raise ValueError("word must be non-empty and whitespace-free")
    pro, enc = (table or _DEFAULT_TABLE).index

    prefix: list[str] = []
    rest = word
    used: list[str] = []
    while len(prefix) < MAX_PROCLITIC_SEGMENTS:
        for form, may_stack, parts in pro.get(rest[:1], ()):
            if (rest.startswith(form) and len(rest) - len(form) >= MIN_STEM_LEN
                    and len(prefix) + len(parts) <= MAX_PROCLITIC_SEGMENTS
                    and form not in used):
                break
        else:
            break
        used.append(form)
        prefix += parts
        rest = rest[len(form):]
        if not may_stack:
            break

    for form, marked in enc.get(rest[-1:], ()):
        if rest.endswith(form) and len(rest) - len(form) >= MIN_STEM_LEN:
            return Segmentation(word=word, segments=prefix + [rest[: -len(form)], marked])
    return Segmentation(word=word, segments=prefix + [rest])


def _segmentable(word: str) -> bool:
    # '+' inside a raw word would collide with the marker convention.
    return "+" not in word and ARABIC_CHAR.search(word) is not None


def desegment_text(segmented: str, *, regular: bool = False) -> str:
    """Invert clitic segmentation of space-joined segments: glue "X+" to
    the next token and "+X" to the previous one, stripping markers.

    A dangling marker (enclitic with nothing before it, proclitic with
    nothing after) is reported and stripped best-effort.

    Regular text (printable and single-space separated, no marker
    dangling at either end or between a proclitic and an enclitic, no
    token marked at both ends) takes two C-level replaces, which give
    exactly what the token loop below gives; any other text goes
    through that loop. A caller that knows the text is printable and
    single-space separated (decode, from the model's pieces) passes
    `regular=True`, and those two scans are skipped.
    """
    if (
        (regular or ("  " not in segmented and segmented.isprintable()))
        and "+ +" not in segmented
        and not segmented.startswith(("+", " "))
        and not segmented.endswith(("+", " "))
        and _BOTH_ENDS_MARKED.search(segmented) is None
    ):
        return segmented.replace("+ ", "").replace(" +", "")
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
