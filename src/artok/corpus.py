"""Document streaming and document-level filtering for web-scale Arabic text.

Input is either JSONL (one record with a "text" field per line) or plain
text with blank-line-delimited documents. Filtering is a pure function of
(document, config) so it can run from any number of workers.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

log = logging.getLogger(__name__)

REJECT_EMPTY = "empty"
REJECT_TOO_SHORT = "too_short"
REJECT_LOW_ARABIC = "low_arabic_ratio"
REJECT_NAVIGATION = "navigation_like"

# Script blocks counted as Arabic: core, supplement, extended-A.
_ARABIC_RANGES = ((0x0600, 0x06FF), (0x0750, 0x077F), (0x08A0, 0x08FF))
# One Arabic-script character; equal to is_arabic_char on every code point.
ARABIC_CHAR = re.compile(
    "[" + "".join(f"{chr(lo)}-{chr(hi)}" for lo, hi in _ARABIC_RANGES) + "]")


@dataclass
class Document:
    id: str
    text: str
    source: str | None = None


@dataclass
class FilterConfig:
    """Document-level thresholds; permissive defaults, all overridable."""

    min_chars: int = 50
    min_words: int = 5
    min_arabic_ratio: float = 0.5
    max_mean_line_words: float | None = None

    def __post_init__(self):
        if self.min_chars < 0 or self.min_words < 0:
            raise ValueError("thresholds must be non-negative")
        if not 0.0 <= self.min_arabic_ratio <= 1.0:
            raise ValueError("min_arabic_ratio must be in [0, 1]")
        if self.max_mean_line_words is not None and self.max_mean_line_words < 0:
            raise ValueError("max_mean_line_words must be non-negative")


@dataclass
class FilterVerdict:
    keep: bool
    reason: str | None = None


@dataclass
class IngestStats:
    """Counters accumulated while streaming one input file."""

    read: int = 0
    skipped_malformed: int = 0
    kept: int = 0
    rejected_by_reason: dict = field(default_factory=dict)

    def record(self, verdict: FilterVerdict) -> None:
        if verdict.keep:
            self.kept += 1
        else:
            self.rejected_by_reason[verdict.reason] = (
                self.rejected_by_reason.get(verdict.reason, 0) + 1
            )

    def summary(self) -> dict:
        return {
            "read": self.read,
            "kept": self.kept,
            "skipped_malformed": self.skipped_malformed,
            "rejected_by_reason": dict(sorted(self.rejected_by_reason.items())),
        }


def is_arabic_char(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in _ARABIC_RANGES)


def arabic_ratio(text: str) -> float:
    """Fraction of alphabetic codepoints that sit in Arabic script blocks.

    Digits and punctuation are excluded from both numerator and
    denominator; returns 0.0 when the text has no alphabetic codepoints.
    """
    alpha = sum(map(str.isalpha, text))
    arabic = sum(map(str.isalpha, "".join(ARABIC_CHAR.findall(text))))
    return arabic / alpha if alpha else 0.0


def filter_document(doc: Document, cfg: FilterConfig | None = None) -> FilterVerdict:
    """Apply the rejection rules in fixed order; first failure wins.

    Order: empty, char count, word count, Arabic ratio, then the
    navigation-page heuristic (link lists have very short lines, so a
    low mean words-per-line rejects).
    """
    cfg = cfg or FilterConfig()
    text = doc.text
    if not text.strip():
        return FilterVerdict(False, REJECT_EMPTY)
    if len(text) < cfg.min_chars:
        return FilterVerdict(False, REJECT_TOO_SHORT)
    words = text.split()
    if len(words) < cfg.min_words:
        return FilterVerdict(False, REJECT_TOO_SHORT)
    if arabic_ratio(text) < cfg.min_arabic_ratio:
        return FilterVerdict(False, REJECT_LOW_ARABIC)
    if cfg.max_mean_line_words is not None:
        lines = [ln for ln in text.splitlines() if ln.strip()]
        mean = sum(len(ln.split()) for ln in lines) / len(lines)
        if mean < cfg.max_mean_line_words:
            return FilterVerdict(False, REJECT_NAVIGATION)
    return FilterVerdict(True)


def load_documents(
    path: str | Path,
    fmt: str = "jsonl",
    stats: IngestStats | None = None,
) -> Iterator[Document]:
    """Stream documents from disk in file order.

    jsonl: one JSON object per line carrying a "text" field; malformed
    lines are skipped and counted, not fatal. plain_lines: blank-line
    separated groups of lines form one document each.
    """
    path = Path(path)
    if fmt == "jsonl":
        yield from _load_jsonl(path, stats)
    elif fmt == "plain_lines":
        yield from _load_plain(path, stats)
    else:
        raise ValueError(f"unknown corpus format: {fmt!r}")


def _load_jsonl(path: Path, stats: IngestStats | None) -> Iterator[Document]:
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                text = record["text"]
            except (json.JSONDecodeError, KeyError, TypeError):
                if stats is not None:
                    stats.skipped_malformed += 1
                log.debug("skipping malformed record %s:%d", path, lineno)
                continue
            if stats is not None:
                stats.read += 1
            yield Document(
                id=str(record.get("id", f"{path.name}:{lineno}")),
                text=str(text),
                source=record.get("source"),
            )


def _load_plain(path: Path, stats: IngestStats | None) -> Iterator[Document]:
    buf: list[str] = []
    n = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                buf.append(line.rstrip("\n"))
            elif buf:
                n += 1
                if stats is not None:
                    stats.read += 1
                yield Document(id=f"{path.name}:{n}", text="\n".join(buf))
                buf = []
    if buf:
        n += 1
        if stats is not None:
            stats.read += 1
        yield Document(id=f"{path.name}:{n}", text="\n".join(buf))


def filter_stream(
    docs: Iterable[Document],
    cfg: FilterConfig | None = None,
    stats: IngestStats | None = None,
) -> Iterator[Document]:
    """Yield only documents that pass the filter, tallying verdicts."""
    cfg = cfg or FilterConfig()
    for doc in docs:
        verdict = filter_document(doc, cfg)
        if stats is not None:
            stats.record(verdict)
        if verdict.keep:
            yield doc
