"""Tokenizer comparison metrics over a kind x vocab-size grid.

Reported per cell: token-to-word ratio (the fertility measure the grid
comparison plots), [UNK] rate, word coverage, throughput. The ratio
denominator is always whitespace words of normalized text, shared by all
kinds, so cells are comparable; [UNK] counts as one emitted token.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import logging
import multiprocessing
import os
import random
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from collections import Counter
from dataclasses import dataclass, asdict
from itertools import chain, compress, repeat
from operator import countOf, mul
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .corpus import Document
from .morphseg import CliticTable
from .normalize import NormalizerConfig, normalize
from .subword import (
    FORMAT_VERSION,
    KIND_BPE,
    KIND_BPE_MORPH,
    UNK_ID,
    ALL_KINDS,
    TokenizerModel,
    _count_words,
    _merge_replay,
    _segment_counts,
    _segments,
    atomic_write_text,
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

AUDIT_EXAMPLES = 10

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


def evaluate_model(model: TokenizerModel, corpus: Iterable[Document]) -> MetricsRow:
    """One grid cell's metrics: the one-size case of `evaluate_sizes`,
    on the documents' normalized words."""
    start = time.perf_counter()
    words = _count_words(corpus, model.normalizer)
    return evaluate_sizes(model, [model.vocab_size], words, time.perf_counter() - start)[0]


def evaluate_sizes(model: TokenizerModel, sizes: Sequence[int], words: Counter,
                   normalize_s: float = 0.0) -> list[MetricsRow]:
    """The metrics of `model` truncated to each of `sizes` (`truncate_model`,
    whose ValueError a size below the floor raises), a row per size in
    the order given, from `words`, a held-out split's normalized words and
    their counts (`count_pretokens` of kind "bpe" counts them), and
    `normalize_s`, the seconds that counting took.

    Each count is a sum over distinct words weighted by their counts, and
    a word holding [UNK] counts as not covered. wordlevel and wordpiece
    pass each distinct word through each size's own word encoder
    (`encode_word`). bpe replays each distinct word once on the largest
    truncation, and bpe_morph each distinct clitic segment of the words:
    in stages, all of them up to the smallest size's merge count, then on
    to the next, where `_merge_replay` stops each exactly as that size's
    model would; so a merge list that repeats a pair raises ValueError
    when more than one merge count is staged. A row's seconds, its
    `words_per_sec` denominator, are `normalize_s`, the segmenting of
    bpe_morph words, and the stages up to its size or, for wordlevel and
    wordpiece, its own pass."""
    if not sizes:
        raise ValueError("sizes must be non-empty")
    models = [truncate_model(model, v) for v in sizes]
    by_size = {m.vocab_size: m for m in models}
    ascending = [by_size[v] for v in sorted(by_size)]
    top = ascending[-1]
    staged = top.kind in (KIND_BPE, KIND_BPE_MORPH)
    if staged and len(ascending) > 1 and len(set(top.merges)) < len(top.merges):
        # a repeated pair replays at its later rank, which a smaller model
        # whose merges hold only the earlier one does not
        raise ValueError("a merge list that repeats a pair cannot be evaluated in stages")
    n_words = sum(words.values())
    if n_words == 0:
        raise ValueError("corpus has no words after normalization")
    start = time.perf_counter()
    counts = list(words.values())
    if top.kind == KIND_BPE_MORPH:
        # pieces are the distinct segments; each word holds their indexes
        index: dict[str, int] = {}
        word_pieces = [[index.setdefault(seg, len(index))
                        for seg in _segments(word, top.clitic_table)] for word in words]
        pieces = list(index)
        freqs = [0] * len(pieces)
        for js, n in zip(word_pieces, counts):
            for j in js:
                freqs[j] += n
    else:
        pieces, freqs, word_pieces = list(words), counts, None
    clock = time.perf_counter()
    shared_s = normalize_s + clock - start
    passes = (_staged_ids(top, ascending, pieces) if staged else
              ((m.vocab_size, list(map(m.encode_word, pieces)), UNK_ID) for m in ascending))
    pass_s = 0.0
    tallies = {}
    for v, idss, unk_id in passes:
        lens = list(map(len, idss))
        unks = list(map(countOf, idss, repeat(unk_id)))
        if word_pieces is None:
            unk_words = sum(compress(counts, unks))
        else:
            unk_words = sum(n for n, js in zip(counts, word_pieces)
                            if any(map(unks.__getitem__, js)))
        tokens = sum(map(mul, freqs, lens))
        unk = sum(map(mul, freqs, unks))
        now = time.perf_counter()
        pass_s = (pass_s if staged else 0.0) + now - clock
        clock = now
        tallies[v] = (tokens, unk, unk_words, shared_s + pass_s)
    rows = []
    for m in models:
        tokens, unk, unk_words, seconds = tallies[m.vocab_size]
        rows.append(MetricsRow(
            kind=m.kind,
            vocab_size=m.vocab_size,
            token_to_word=tokens / n_words,
            unk_rate=unk / tokens if tokens else 0.0,
            coverage=(n_words - unk_words) / n_words,
            words_per_sec=n_words / seconds if seconds > 0 else 0.0,
            corpus_words=n_words,
        ))
    return rows


def _staged_ids(top: TokenizerModel, ascending: Sequence[TokenizerModel],
                pieces: Sequence[str]) -> Iterator[tuple[int, list[list[int]], int]]:
    """The bpe replay of every piece on `top`, in stages: for each model
    in ascending size, its size, the pieces' ids as that model encodes
    them, and the id that stands for a character absent from the vocab.
    A stage runs as it is pulled, and the next one goes on from the same
    lists."""
    start, replay = _merge_replay(top.token_ids, top.merge_ids)
    # each piece's ids list then its ranks list: the start tuples go at
    # once, so the collector has two lists a piece to track, not three
    states = list(chain.from_iterable(map(start, pieces)))
    idss = states[::2]
    for model in ascending:
        cut = len(model.merges)
        for ids, ranks in zip(idss, states[1::2]):
            replay(ids, ranks, cut)
        # absent characters, which no merge takes, hold top.vocab_size
        yield model.vocab_size, idss, top.vocab_size


def split_eval_docs(docs: Sequence[Document]):
    """Deterministic held-out split: the last tenth by ingestion order."""
    if len(docs) < 2:
        raise ValueError("need at least 2 documents to hold out an eval split")
    n_eval = max(1, len(docs) // 10)
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
) -> TokenizerModel:
    """Train one tokenizer of any kind from filtered documents, in this
    process: pre-token counts from count_pretokens, then
    train_from_pretokens."""
    normalizer = normalizer or NormalizerConfig()
    clitic_table = clitic_table or CliticTable()
    pretokens = count_pretokens(docs, kind, normalizer, clitic_table)
    return train_from_pretokens(pretokens, kind, vocab_size, normalizer, clitic_table)


def _exit_with_parent(caller: int) -> None:
    """Pool initializer: end this worker once `caller`, the process that
    made the pool and this worker's parent, is gone. A worker of a killed
    caller would otherwise block for good on a pipe whose other end a
    sibling worker holds open."""
    def watch():
        while os.getppid() == caller:
            time.sleep(0.5)
        os._exit(1)
    threading.Thread(target=watch, daemon=True).start()


_MAIN_GUARD = ("a script that calls compare_grid with worker processes must make that call "
               'under an `if __name__ == "__main__":` guard')


@contextlib.contextmanager
def worker_pool(workers: int) -> Iterator[ProcessPoolExecutor]:
    """A pool of `workers` spawned processes for compare_grid's training
    jobs; leaving the block shuts it down and cancels the calls that have
    not started. Each worker ends itself once this process is gone. A
    spawned worker starts by re-running the caller's main script, and if
    one dies there (the script lacks a `__main__` guard) this raises
    RuntimeError naming the guard. Such a worker fails here in turn,
    before it makes a pool whose semaphores would leak if it were ended."""
    if getattr(multiprocessing.current_process(), "_inheriting", False):
        # multiprocessing's flag for a spawned process that is starting
        raise RuntimeError(f"worker_pool called while a worker process starts: {_MAIN_GUARD}")
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"),
                               initializer=_exit_with_parent, initargs=(os.getpid(),))
    try:
        # One tiny call per worker starts them all at once, so that one
        # dying while it starts does so before large arguments are queued:
        # a pipe nobody reads would hold the pool's shutdown forever.
        try:
            for started in [pool.submit(os.getpid) for _ in range(workers)]:
                started.result()
        except BrokenProcessPool as exc:
            raise RuntimeError(f"worker processes exited while starting: {_MAIN_GUARD}") from exc
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


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
    prefix truncations of that model. This process normalizes the
    training split once into word counts, from which it segments the
    clitic counts when bpe_morph trains. Then, with workers > 1 and at
    least two kinds to train, a worker_pool of min(workers, kinds to
    train) processes trains them side by side while this process counts
    the held-out split's words once and evaluates (`evaluate_sizes`) each
    model at every size, in `kinds` order; otherwise all of it runs here.
    With models_dir set, each size's truncation is saved there beside a
    `.key` file fingerprinting the training inputs, and a kind whose
    largest bundle carries the current key is re-loaded instead of
    retrained.

    Empty `kinds` or `sizes`, an unknown or repeated kind, a repeated
    size and `workers` below 1 raise ValueError naming the value.
    """
    if not kinds:
        raise ValueError("kinds must be non-empty")
    if not sizes:
        raise ValueError("sizes must be non-empty")
    for i, kind in enumerate(kinds):
        if kind not in ALL_KINDS:
            raise ValueError(f"unknown tokenizer kind: {kind!r}")
        if kind in kinds[:i]:
            raise ValueError(f"tokenizer kind {kind!r} is given twice")
    for i, v in enumerate(sizes):
        if v in sizes[:i]:
            raise ValueError(f"vocab size {v!r} is given twice")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, not {workers!r}")
    normalizer = normalizer or NormalizerConfig()
    clitic_table = clitic_table or CliticTable()
    docs = list(corpus)
    train_docs, eval_docs = split_eval_docs(docs)
    log.info("grid: %d train docs, %d eval docs", len(train_docs), len(eval_docs))

    v_max = max(sizes)
    key = None
    if models_dir is not None:
        models_dir = Path(models_dir)
        models_dir.mkdir(parents=True, exist_ok=True)
        key = _inputs_key(train_docs, normalizer, clitic_table)
    untrained = [kind for kind in kinds
                 if key is None or not _is_cached(models_dir, kind, v_max, key)]
    # The training split is normalized once, into word counts.
    if untrained:
        words = count_pretokens(train_docs, KIND_BPE, normalizer)
        log.info("training %s @ %d", ", ".join(untrained), v_max)
    rows: list[MetricsRow] = []
    spread: dict[str, float] = {}
    pool_size = min(workers, len(untrained))
    with (worker_pool(pool_size) if pool_size > 1 else contextlib.nullcontext()) as pool:
        # kind -> a call that gives its `_train_cell` result: the job runs
        # on the pool, or without one in-process when called
        jobs = {}
        for kind in untrained:
            # bpe_morph's are segmented from the word counts once the jobs
            # before it are on the pool, which then trains while it runs
            pretokens = _segment_counts(words, clitic_table) if kind == KIND_BPE_MORPH else words
            args = (pretokens, kind, v_max, normalizer, clitic_table)
            jobs[kind] = (functools.partial(_train_cell, *args) if pool is None
                          else pool.submit(_train_cell, *args).result)
        start = time.perf_counter()
        eval_words = _count_words(eval_docs, normalizer)
        normalize_s = time.perf_counter() - start
        for kind in kinds:
            try:
                if kind in jobs:
                    model_max, seconds = jobs[kind]()
                    log.info("trained %s: %d merges, vocab %d/%d in %.2f s", kind,
                             len(model_max.merges), model_max.vocab_size, v_max, seconds)
                else:
                    path = _cache_path(models_dir, kind, v_max)
                    log.info("loading cached model %s", path)
                    model_max = load_model(path)
                for v in sizes:
                    if key is not None and (kind in jobs
                                            or not _is_cached(models_dir, kind, v, key)):
                        _cache_save(truncate_model(model_max, v), models_dir, kind, v, key)
                log.info("evaluating %s @ %s", kind, ", ".join(map(str, sizes)))
                kind_rows = evaluate_sizes(model_max, sizes, eval_words, normalize_s)
            except Exception as exc:
                raise RuntimeError(f"grid cell kind={kind} sizes={list(sizes)} failed: {exc}") from exc
            rows.extend(kind_rows)
            spread[kind] = _relative_spread([row.token_to_word for row in kind_rows])
    return ComparisonReport(rows=rows, corpus_id=corpus_id, spread=spread)


def _train_cell(pretokens, kind, vocab_size, normalizer, clitic_table):
    """One grid training job, picklable for a worker process: the model
    and its training seconds."""
    start = time.perf_counter()
    model = train_from_pretokens(pretokens, kind, vocab_size, normalizer, clitic_table)
    return model, time.perf_counter() - start


def _inputs_key(train_docs: Sequence[Document], normalizer: NormalizerConfig,
                clitic_table: CliticTable) -> str:
    """sha256 over everything a grid cell is made from apart from its
    kind and size, which its file name holds."""
    digest = hashlib.sha256(json.dumps(
        [FORMAT_VERSION, normalizer.to_dict(), clitic_table.to_dict()],
        ensure_ascii=False, sort_keys=True,
    ).encode("utf-8"))
    for doc in train_docs:
        text = doc.text.encode("utf-8", "surrogatepass")
        digest.update(len(text).to_bytes(8, "little"))
        digest.update(text)
    return digest.hexdigest()


def _cache_path(models_dir: Path, kind: str, vocab_size: int) -> Path:
    return models_dir / f"{kind}_{vocab_size}.json"


def _key_path(models_dir: Path, kind: str, vocab_size: int) -> Path:
    # not *.json, so a models dir's bundles are exactly its *.json files
    return models_dir / f"{kind}_{vocab_size}.key"


def _is_cached(models_dir: Path, kind: str, v: int, key: str) -> bool:
    """Whether the cell's bundle exists and was made from inputs with this key."""
    try:
        stored = _key_path(models_dir, kind, v).read_bytes()
    except FileNotFoundError:
        return False
    return stored == key.encode("ascii") and _cache_path(models_dir, kind, v).exists()


def _cache_save(model: TokenizerModel, models_dir: Path, kind: str, v: int, key: str) -> None:
    # the old key goes first and the new one last, so an interrupted save
    # leaves a cell that retrains whatever inputs come next
    key_path = _key_path(models_dir, kind, v)
    key_path.unlink(missing_ok=True)
    save_model(model, _cache_path(models_dir, kind, v))
    atomic_write_text(key_path, key)


def roundtrip_audit(
    model: TokenizerModel,
    corpus: Sequence[Document],
    sample_n: int,
    seed: int = 0,
) -> dict:
    """Check decode(encode(d)) == normalize(d) on a seeded uniform sample,
    keeping the first AUDIT_EXAMPLES mismatches."""
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
        elif len(mismatched) < AUDIT_EXAMPLES:
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
