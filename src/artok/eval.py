"""Tokenizer comparison metrics over a kind x vocab-size grid.

Reported per cell: token-to-word ratio (the fertility measure the grid
comparison plots), [UNK] rate, word coverage, throughput. The ratio
denominator is always whitespace words of normalized text, shared by all
kinds, so cells are comparable; [UNK] counts as one emitted token.
"""

from __future__ import annotations

import json
import logging
import random
import time
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import Document
from .morphseg import CliticTable
from .normalize import NormalizerConfig, normalize
from .subword import (
    KIND_BPE,
    KIND_BPE_MORPH,
    UNK_ID,
    ALL_KINDS,
    TokenizerModel,
    count_pretokens,
    decode,
    encode,
    load_model,
    save_model,
    truncate_model,
)
from .trainers import train_from_pretokens

log = logging.getLogger(__name__)

DEFAULT_SIZES = (16000, 28000, 44000)

REPORT_CSV_HEADER = "kind,vocab_size,token_to_word,unk_rate,coverage,words_per_sec,corpus_words"


@dataclass
class MetricsRow:
    kind: str
    vocab_size: int
    token_to_word: float
    unk_rate: float
    coverage: float
    words_per_sec: float
    corpus_words: int


@dataclass
class ComparisonReport:
    rows: list[MetricsRow]
    corpus_id: str
    spread: dict

    def to_dict(self) -> dict:
        return {
            "corpus_id": self.corpus_id,
            "rows": [asdict(r) for r in self.rows],
            "spread": dict(self.spread),
        }


def _tally(model: TokenizerModel, docs: Iterable[Document]):
    """Per-word token/unk totals from the same word encoder `encode` uses;
    words attribute [UNK]s to themselves so coverage can count word
    occurrences that encode cleanly."""
    encode_word = model.encode_word
    total_words = 0
    total_tokens = 0
    total_unk = 0
    covered = 0
    start = time.perf_counter()
    for doc in docs:
        words = normalize(doc.text, model.normalizer).split()
        total_words += len(words)
        for word in words:
            ids = encode_word(word)
            total_tokens += len(ids)
            word_unk = ids.count(UNK_ID)
            total_unk += word_unk
            if word_unk == 0:
                covered += 1
    elapsed = time.perf_counter() - start
    return total_words, total_tokens, total_unk, covered, elapsed


def evaluate_model(model: TokenizerModel, corpus: Iterable[Document]) -> MetricsRow:
    words, tokens, unk, covered, elapsed = _tally(model, corpus)
    if words == 0:
        raise ValueError("corpus has no words after normalization")
    return MetricsRow(
        kind=model.kind,
        vocab_size=model.vocab_size,
        token_to_word=tokens / words,
        unk_rate=unk / tokens if tokens else 0.0,
        coverage=covered / words,
        words_per_sec=words / elapsed if elapsed > 0 else 0.0,
        corpus_words=words,
    )


def split_eval_docs(docs: Sequence[Document], eval_fraction: float = 0.1):
    """Deterministic held-out split: the last tenth by ingestion order."""
    if len(docs) < 2:
        raise ValueError("need at least 2 documents to hold out an eval split")
    n_eval = max(1, int(len(docs) * eval_fraction))
    return list(docs[:-n_eval]), list(docs[-n_eval:])


def _relative_spread(values: Sequence[float]) -> float:
    mean = sum(values) / len(values)
    return (max(values) - min(values)) / mean if mean else 0.0


def train_model(
    docs: Iterable[Document],
    kind: str,
    vocab_size: int,
    normalizer: NormalizerConfig | None = None,
    clitic_table: CliticTable | None = None,
    workers: int = 1,
    pretoken_cache: dict | None = None,
) -> TokenizerModel:
    """Train one tokenizer of any kind from filtered documents.

    Pre-token counts come from count_pretokens (`workers` processes) and
    training from train_from_pretokens. Counts depend only on the
    pre-tokenization family (plain whitespace words vs morph segments),
    so a caller training several kinds on the same documents passes one
    pretoken_cache dict to count each family once.
    """
    normalizer = normalizer or NormalizerConfig()
    morph = kind == KIND_BPE_MORPH
    table = (clitic_table or CliticTable()) if morph else None
    family = KIND_BPE_MORPH if morph else KIND_BPE
    cache = pretoken_cache if pretoken_cache is not None else {}
    if family not in cache:
        cache[family] = count_pretokens(docs, family, normalizer, table, workers=workers)
    return train_from_pretokens(cache[family], kind, vocab_size, normalizer, table)


def compare_grid(
    corpus: Sequence[Document],
    kinds: Sequence[str] = ALL_KINDS,
    sizes: Sequence[int] = DEFAULT_SIZES,
    normalizer: NormalizerConfig | None = None,
    clitic_table: CliticTable | None = None,
    corpus_id: str = "",
    workers: int = 1,
    models_dir: str | Path | None = None,
) -> ComparisonReport:
    """Train and evaluate every (kind, size) cell on a held-out split.

    Merge selection never depends on the target vocabulary size, so each
    kind trains once at max(sizes) and the smaller cells are exact
    prefix truncations of that model. With models_dir set, bundles are
    written there and re-loaded instead of retrained on later runs.
    """
    if not sizes:
        raise ValueError("sizes must be non-empty")
    for kind in kinds:
        if kind not in ALL_KINDS:
            raise ValueError(f"unknown tokenizer kind: {kind!r}")
    normalizer = normalizer or NormalizerConfig()
    clitic_table = clitic_table or CliticTable()
    docs = list(corpus)
    train_docs, eval_docs = split_eval_docs(docs)
    log.info("grid: %d train docs, %d eval docs", len(train_docs), len(eval_docs))

    if models_dir is not None:
        models_dir = Path(models_dir)
        models_dir.mkdir(parents=True, exist_ok=True)

    rows: list[MetricsRow] = []
    spread: dict[str, float] = {}
    pretoken_cache: dict = {}
    for kind in kinds:
        v_max = max(sizes)
        try:
            model_max = _cell_model(
                kind, v_max, train_docs, normalizer, clitic_table,
                pretoken_cache, workers, models_dir,
            )
            ratios = []
            for v in sizes:
                model_v = truncate_model(model_max, v)
                if models_dir is not None and v != v_max:
                    _cache_save(model_v, models_dir, kind, v)
                log.info("evaluating %s @ %d", kind, v)
                row = evaluate_model(model_v, eval_docs)
                rows.append(row)
                ratios.append(row.token_to_word)
        except Exception as exc:
            raise RuntimeError(f"grid cell kind={kind} sizes={list(sizes)} failed: {exc}") from exc
        spread[kind] = _relative_spread(ratios)
    return ComparisonReport(rows=rows, corpus_id=corpus_id, spread=spread)


def _cache_path(models_dir: Path, kind: str, vocab_size: int) -> Path:
    return models_dir / f"{kind}_{vocab_size}.json"


def _cache_save(model: TokenizerModel, models_dir: Path, kind: str, v: int) -> None:
    path = _cache_path(models_dir, kind, v)
    if not path.exists():
        save_model(model, path)


def _cell_model(kind, vocab_size, train_docs, normalizer, clitic_table,
                pretoken_cache, workers, models_dir) -> TokenizerModel:
    if models_dir is not None:
        path = _cache_path(models_dir, kind, vocab_size)
        if path.exists():
            log.info("loading cached model %s", path)
            return load_model(path)
    log.info("training %s @ %d", kind, vocab_size)
    model = train_model(
        train_docs, kind, vocab_size, normalizer, clitic_table, workers, pretoken_cache,
    )
    if models_dir is not None:
        _cache_save(model, models_dir, kind, vocab_size)
    return model


def roundtrip_audit(
    model: TokenizerModel,
    corpus: Sequence[Document],
    sample_n: int,
    seed: int = 0,
    max_examples: int = 10,
) -> dict:
    """Check decode(encode(d)) == normalize(d) on a seeded uniform sample."""
    if sample_n < 1:
        raise ValueError("sample_n must be >= 1")
    docs = list(corpus)
    rng = random.Random(seed)
    sample = docs if sample_n >= len(docs) else rng.sample(docs, sample_n)
    exact = 0
    mismatched: list[dict] = []
    for doc in sample:
        expected = normalize(doc.text, model.normalizer)
        actual = decode(model, encode(model, doc.text).ids)
        if actual == expected:
            exact += 1
        elif len(mismatched) < max_examples:
            mismatched.append({"id": doc.id, "expected": expected, "actual": actual})
    return {"checked": len(sample), "exact": exact, "mismatched": mismatched}


# ---------------------------------------------------------------------------
# Report writers


def _format_row(row: MetricsRow) -> str:
    return (
        f"{row.kind},{row.vocab_size},{row.token_to_word:.6f},"
        f"{row.unk_rate:.6f},{row.coverage:.6f},{row.words_per_sec:.1f},"
        f"{row.corpus_words}"
    )


def report_csv(report: ComparisonReport) -> str:
    lines = [REPORT_CSV_HEADER]
    lines.extend(_format_row(r) for r in report.rows)
    return "\n".join(lines) + "\n"


def report_json(report: ComparisonReport) -> str:
    return json.dumps(report.to_dict(), ensure_ascii=False, indent=2) + "\n"


def report_long_csv(report: ComparisonReport) -> str:
    """Long-format (kind,vocab_size,metric,value) table for plotting the
    ratio comparison externally."""
    lines = ["kind,vocab_size,metric,value"]
    for row in report.rows:
        for metric in ("token_to_word", "unk_rate", "coverage"):
            lines.append(f"{row.kind},{row.vocab_size},{metric},{getattr(row, metric):.6f}")
    return "\n".join(lines) + "\n"
