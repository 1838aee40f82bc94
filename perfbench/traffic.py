"""Seeded benchmark inputs: the two request streams. (The grid corpus is
artok.synth.build_corpus output, used as it is.)

Everything here is a pure function of the workload seed. The library
only ever sees the generated files and request texts.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from artok.subword import ALL_KINDS
from artok.synth import build_corpus

# Content documents from artok.synth carry 40-150 words; its noise
# documents (too short, Latin, navigation lists, blank) all carry fewer.
MIN_DOC_WORDS = 40
SHORT_QUERY_WORDS = (1, 12)
AVG_SHORT_WORDS = 6.5
AVG_DOC_WORDS = 95
AVG_DOC_BYTES = 1150  # UTF-8 bytes of an average 95-word content document

# The cold stream must share no documents with the training corpus: a
# different generator seed and a far larger stem lexicon.
COLD_SEED_OFFSET = 1_000_000


def _short_query(rng: random.Random, words: list[str]) -> str:
    k = rng.randint(*SHORT_QUERY_WORDS)
    start = rng.randrange(max(1, len(words) - k + 1))
    return " ".join(words[start:start + k])


def warm_requests(texts: list[str], seed: int, n: int) -> list[tuple[str, str]]:
    """n (kind, text) requests drawn with replacement from held-out docs:
    even positions are short queries, odd ones whole documents."""
    rng = random.Random(seed * 7919 + 1)
    split = [t.split() for t in texts]
    out = []
    for i in range(n):
        j = rng.randrange(len(texts))
        text = _short_query(rng, split[j]) if i % 2 == 0 else texts[j]
        out.append((rng.choice(ALL_KINDS), text))
    return out


def cold_requests(path: Path, seed: int, n: int, n_stems: int) -> list[tuple[str, str]]:
    """n (kind, text) requests over never-repeated text: every whole-doc
    request is a fresh document and short queries are disjoint slices
    of further fresh documents."""
    n_docs = n // 2
    n_short = n - n_docs
    short_docs = int(n_short * AVG_SHORT_WORDS / AVG_DOC_WORDS) + 8
    target = int((n_docs + short_docs) * AVG_DOC_BYTES * 1.1)
    while True:
        build_corpus(path, target_bytes=target, seed=seed + COLD_SEED_OFFSET,
                     n_stems=n_stems)
        with open(path, encoding="utf-8") as f:
            docs = [text for text in (json.loads(line)["text"] for line in f)
                    if len(text.split()) >= MIN_DOC_WORDS]
        rng = random.Random(seed * 7919 + 2)
        shorts = []
        for text in docs[n_docs:]:
            words = text.split()
            while words and len(shorts) < n_short:
                k = rng.randint(*SHORT_QUERY_WORDS)
                shorts.append(" ".join(words[:k]))
                words = words[k:]
        if len(docs) >= n_docs and len(shorts) >= n_short:
            break
        target = int(target * 1.3)  # same seed: same prefix, then more
    whole = iter(docs[:n_docs])
    short_it = iter(shorts)
    return [
        (rng.choice(ALL_KINDS), next(short_it) if i % 2 == 0 else next(whole))
        for i in range(n)
    ]
