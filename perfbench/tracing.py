"""In-memory span tracing around calls into the artok layers.

Spans are recorded only from the benchmark's side: while a Tracer is
installed, selected module globals that the library calls through
(artok.eval.train_from_pretokens, artok.subword.segment_word, ...) are
replaced by timing wrappers, and the benchmark routes its own calls to
encode/decode/load_model and its iteration of load_documents through
the same wrappers. Each span is (name, start_ns, end_ns, parent_index);
spans of one request share the index of their root span.

Limitation: count_pretokens with workers > 1 runs pre-tokenization in
worker processes, which are not traced, so that work is attributed to
subword.count_pretokens.* alone (no normalize or morphseg spans).
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path

import artok.corpus
import artok.eval
import artok.subword

UNK_ID = 1
KINDS = ("bpe", "wordpiece", "wordlevel", "bpe_morph")
MERGE_KINDS = ("bpe", "wordpiece", "bpe_morph")


def _family(args, kwargs) -> str:
    kind = args[1] if len(args) > 1 else kwargs["kind"]
    return "morph" if kind == "bpe_morph" else "plain"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict = defaultdict(int)

    def wrap(self, fn, name, on_result=None):
        """Timing wrapper; name is a string or a function of the call's
        (args, kwargs); on_result(counts, args, kwargs, result) tallies."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        counts = self.counts

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label, start, end, parent)
            if on_result is not None:
                on_result(counts, args, kwargs, result)
            return result

        return traced

    def iterate(self, name: str, iterable):
        """Yield from iterable, recording one span per next() call."""
        it = iter(iterable)
        step = self.wrap(lambda: next(it, _END), name)
        while True:
            item = step()
            if item is _END:
                return
            yield item

    @contextlib.contextmanager
    def installed(self):
        """Patch the library's module globals for the duration."""
        patches = [
            (artok.eval, "count_pretokens",
             lambda a, k: f"subword.count_pretokens.{_family(a, k)}", None),
            (artok.eval, "train_from_pretokens",
             lambda a, k: f"trainers.train_from_pretokens.{a[1]}", _count_train),
            (artok.eval, "truncate_model", "subword.truncate_model", None),
            (artok.eval, "evaluate_model", "eval.evaluate_model", _count_eval),
            (artok.eval, "save_model", "subword.save_model", None),
            (artok.eval, "normalize", "normalize", _count_normalize),
            (artok.subword, "normalize", "normalize", _count_normalize),
            (artok.subword, "segment_word", "morphseg.segment_word", _count_segments),
            (artok.corpus, "filter_document", "corpus.filter_document", _count_filter),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in patches]
        try:
            for mod, attr, name, hook in patches:
                setattr(mod, attr, self.wrap(getattr(mod, attr), name, hook))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def encode_fn(self):
        return self.wrap(artok.subword.encode,
                         lambda a, k: f"subword.encode.{a[0].kind}", _count_encode)

    def decode_fn(self):
        return self.wrap(artok.subword.decode, "subword.decode")

    def load_model_fn(self):
        return self.wrap(artok.subword.load_model, "subword.load_model")

    def busy_s(self) -> dict:
        busy: dict = defaultdict(int)
        for name, start, end, _ in self.spans:
            busy[name] += end - start
        return {name: ns / 1e9 for name, ns in busy.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, start, end, parent) in enumerate(self.spans):
                root = i
                while self.spans[root][3] >= 0:
                    root = self.spans[root][3]
                f.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                    "end_ns": end, "parent": parent,
                                    "request": root}) + "\n")

    def layer_metrics(self, first_seen_share: float) -> dict:
        """Per-layer metrics as name -> (value, unit, samples). Layers the
        traced section never entered read 0."""
        busy = self.busy_s()
        calls: dict = defaultdict(int)
        for name, *_ in self.spans:
            calls[name] += 1
        c = self.counts
        out = {}

        def put(name, value, unit, n):
            out[name] = (value, unit, n)

        def ratio(num, den):
            return num / den if den else 0.0

        def b(name):
            return busy.get(name, 0.0)

        put("corpus.load_documents.busy_s", b("corpus.load_documents"), "s",
            calls["corpus.load_documents"])
        put("corpus.filter_document.busy_s", b("corpus.filter_document"), "s",
            calls["corpus.filter_document"])
        put("corpus.kept_share", ratio(c["filter.kept"], calls["corpus.filter_document"]),
            "ratio", calls["corpus.filter_document"])
        put("normalize.busy_s", b("normalize"), "s", calls["normalize"])
        put("normalize.chars_per_s", ratio(c["normalize.chars"], b("normalize")), "1/s",
            calls["normalize"])
        n_seg = calls["morphseg.segment_word"]
        put("morphseg.segment_word.busy_s", b("morphseg.segment_word"), "s", n_seg)
        put("morphseg.segment_word.calls", n_seg, "count", n_seg)
        put("morphseg.segments_per_word", ratio(c["morphseg.segments"], n_seg), "ratio", n_seg)
        for kind in KINDS:
            name = f"subword.encode.{kind}"
            put(f"{name}.busy_s", b(name), "s", calls[name])
            put(f"{name}.calls", calls[name], "count", calls[name])
            put(f"subword.unk_rate.{kind}",
                ratio(c[f"encode.{kind}.unk"], c[f"encode.{kind}.ids"]), "ratio",
                c[f"encode.{kind}.ids"])
        for name in ("subword.decode", "subword.load_model", "subword.count_pretokens.plain",
                     "subword.count_pretokens.morph", "subword.truncate_model",
                     "subword.save_model"):
            put(f"{name}.busy_s", b(name), "s", calls[name])
        put("subword.first_seen_word_share", first_seen_share, "ratio", 1)
        for kind in KINDS:
            name = f"trainers.train_from_pretokens.{kind}"
            put(f"{name}.busy_s", b(name), "s", calls[name])
            if kind in MERGE_KINDS:
                put(f"trainers.{kind}.merges_per_s",
                    ratio(c[f"train.{kind}.merges"], b(name)), "1/s", calls[name])
            put(f"trainers.{kind}.vocab_reached_share",
                ratio(c[f"train.{kind}.reached"], c[f"train.{kind}.target"]), "ratio",
                calls[name])
        put("eval.evaluate_model.busy_s", b("eval.evaluate_model"), "s",
            calls["eval.evaluate_model"])
        put("eval.evaluate_model.words_per_s",
            ratio(c["eval.words"], b("eval.evaluate_model")), "1/s",
            calls["eval.evaluate_model"])
        return out


_END = object()


def _count_train(counts, args, kwargs, model):
    kind, target = args[1], args[2]
    counts[f"train.{kind}.merges"] += len(model.merges)
    counts[f"train.{kind}.reached"] += model.vocab_size
    counts[f"train.{kind}.target"] += target


def _count_eval(counts, args, kwargs, row):
    counts["eval.words"] += row.corpus_words


def _count_normalize(counts, args, kwargs, result):
    counts["normalize.chars"] += len(args[0])


def _count_segments(counts, args, kwargs, seg):
    counts["morphseg.segments"] += len(seg.segments)


def _count_filter(counts, args, kwargs, verdict):
    counts["filter.kept"] += bool(verdict.keep)


def _count_encode(counts, args, kwargs, enc):
    kind = args[0].kind
    counts[f"encode.{kind}.ids"] += len(enc.ids)
    counts[f"encode.{kind}.unk"] += enc.ids.count(UNK_ID)
