"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured value.

The heavyweight fixtures (synthetic 20MB+ corpus, full 4-kind x 3-size
grid) are session-scoped and shared; run with `pytest tests/test_acceptance.py -v -s`
to watch the per-criterion lines.
"""

import contextlib
import io
import json
import random
import time
from collections import Counter

import pytest

from artok.cli import main
from artok.corpus import FilterConfig, filter_stream, load_documents
from artok.eval import evaluate_model, roundtrip_audit, split_eval_docs
from artok.morphseg import segment_word
from artok.normalize import (
    NormalizerConfig,
    collapse_repeats,
    map_digits,
    normalize,
    remove_diacritics,
    remove_tatweel,
    replace_entities,
    strip_markup,
)
from artok.subword import (
    SPECIALS,
    count_pretokens,
    decode,
    encode,
    load_model,
)
from artok.synth import build_corpus
from artok.trainers import train_from_pretokens
from oracles import oracle_bpe, word_symbols

SIZES = (16000, 28000, 44000)
KINDS = ("bpe", "wordpiece", "wordlevel", "bpe_morph")
CORPUS_TARGET_BYTES = 22_000_000
GRID_TIME_BUDGET_SECONDS = 1800.0


@pytest.fixture(scope="session")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def corpus_path(work_dir):
    path = work_dir / "corpus.jsonl"
    build_corpus(path, target_bytes=CORPUS_TARGET_BYTES, seed=0)
    return path


@pytest.fixture(scope="session")
def filtered_docs(corpus_path):
    return list(filter_stream(load_documents(corpus_path, "jsonl"), FilterConfig()))


@pytest.fixture(scope="session")
def grid(corpus_path, work_dir):
    out_dir = work_dir / "grid"
    buf = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = main([
            "compare",
            "--corpus", str(corpus_path),
            "--sizes", ",".join(str(s) for s in SIZES),
            "--kinds", ",".join(KINDS),
            "--out-dir", str(out_dir),
        ])
    elapsed = time.perf_counter() - started
    stdout = buf.getvalue()
    assert rc == 0
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    return {
        "elapsed": elapsed,
        "report": report,
        "out_dir": out_dir,
        "summary": json.loads(stdout.strip().splitlines()[-1]),
    }


@pytest.fixture(scope="session")
def train_pretokens(filtered_docs):
    train_docs, _ = split_eval_docs(filtered_docs)
    return count_pretokens(train_docs, "bpe", NormalizerConfig())


def _rows_by_kind(report, kind):
    rows = [r for r in report["rows"] if r["kind"] == kind]
    return {r["vocab_size"]: r for r in rows}


def test_c1_grid_reproduction(filtered_docs, grid):
    corpus_bytes = sum(len(d.text.encode("utf-8")) for d in filtered_docs)
    assert corpus_bytes >= 20_000_000, "filtered corpus below desk-scale size"
    assert grid["summary"]["rows"] == len(KINDS) * len(SIZES) == 12
    assert len(grid["report"]["rows"]) == 12
    assert grid["elapsed"] < GRID_TIME_BUDGET_SECONDS
    csv_lines = (grid["out_dir"] / "report.csv").read_text(encoding="utf-8").strip().splitlines()
    assert len(csv_lines) == 13
    print(f"\nACCEPTANCE 1 PASS: 12-cell grid on {corpus_bytes/1e6:.1f}MB filtered corpus "
          f"in {grid['elapsed']:.0f}s (< {GRID_TIME_BUDGET_SECONDS:.0f}s)")


def test_c2_ratio_grid_shape(grid):
    report = grid["report"]
    wl = _rows_by_kind(report, "wordlevel")
    assert all(wl[v]["token_to_word"] == 1.0 for v in SIZES), "word-level ratio must be exactly 1.0"
    for kind in ("bpe", "wordpiece"):
        rows = _rows_by_kind(report, kind)
        for lo, hi in zip(SIZES, SIZES[1:]):
            drop = rows[lo]["token_to_word"] - rows[hi]["token_to_word"]
            assert drop > 0, f"{kind} ratio must strictly decrease {lo}->{hi}"
    spread = report["spread"]
    assert spread["bpe_morph"] < spread["bpe"], (
        "morph pre-segmentation must stabilize the ratio across vocab sizes"
    )
    # shared denominator: every cell sees the identical word total
    assert len({r["corpus_words"] for r in report["rows"]}) == 1
    print(f"\nACCEPTANCE 2 PASS: word-level ratio 1.0 at every size; bpe/wordpiece "
          f"strictly decreasing; spread bpe_morph {spread['bpe_morph']:.4f} < "
          f"bpe {spread['bpe']:.4f}")


def test_c3_segmentation_examples():
    assert segment_word("يتحدثها").segments == ["يتحدث", "+ها"]
    assert segment_word("مبييتحدثهاش").segments == ["مبييتحدثهاش"]
    print("\nACCEPTANCE 3 PASS: clitic segmentation matches both reference examples")


def test_c4_bpe_oracle_equivalence():
    rng = random.Random(20250809)
    n_corpora = 24
    for trial in range(n_corpora):
        alphabet = rng.choice(["ab", "abc", "كتاب", "كتبمال", "aك+b"])
        n_words = rng.randint(1, 50)
        pretokens = Counter()
        while len(pretokens) < n_words:
            length = rng.randint(1, 8)
            word = "".join(rng.choice(alphabet) for _ in range(length))
            pretokens[word] = rng.randint(1, 40)
        assert len(pretokens) <= 50
        base = len(SPECIALS) + len({s for w in pretokens for s in word_symbols(w)})
        target = base + rng.randint(0, 80)
        model = train_from_pretokens(pretokens, "bpe", target)
        oracle_vocab, oracle_merges = oracle_bpe(pretokens, target)
        assert model.merges == oracle_merges, f"trial {trial}: merge list diverged"
        assert model.vocab == oracle_vocab, f"trial {trial}: vocab diverged"
    print(f"\nACCEPTANCE 4 PASS: {n_corpora} randomized corpora, trainer merge "
          f"lists identical to brute-force oracle")


def test_c5_roundtrip_10k_documents(filtered_docs, grid):
    sample_n = 10_000
    models_dir = grid["out_dir"] / "models"
    for kind in ("bpe", "bpe_morph"):
        for v in SIZES:
            model = load_model(models_dir / f"{kind}_{v}.json")
            report = roundtrip_audit(model, filtered_docs, sample_n=sample_n, seed=1)
            assert report["checked"] == sample_n
            assert report["exact"] == sample_n, (
                f"{kind}@{v}: {len(report['mismatched'])} round-trip mismatches"
            )
    # word-level is lossy exactly where [UNK] substitutes for an OOV word
    rng = random.Random(1)
    sample = rng.sample(filtered_docs, sample_n)
    for v in SIZES:
        model = load_model(models_dir / f"wordlevel_{v}.json")
        vocab = set(model.vocab)
        for doc in sample:
            words = normalize(doc.text, model.normalizer).split()
            expected = " ".join(w if w in vocab else "[UNK]" for w in words)
            actual = decode(model, encode(model, doc.text).ids)
            assert actual == expected, f"wordlevel@{v}: non-UNK mismatch on {doc.id}"
    print(f"\nACCEPTANCE 5 PASS: {sample_n} sampled docs round-trip exactly for all "
          f"bpe/bpe_morph models; every word-level mismatch is an [UNK] substitution")


def test_c6_merge_prefix_monotonicity(train_pretokens, grid):
    small = train_from_pretokens(train_pretokens, "bpe", SIZES[0])
    big = load_model(grid["out_dir"] / "models" / f"bpe_{SIZES[-1]}.json")
    k = len(small.merges)
    alphabet_len = len(big.vocab) - len(SPECIALS) - len(big.merges)
    assert k == SIZES[0] - len(SPECIALS) - alphabet_len
    assert small.merges == big.merges[:k], "16k merges are not a prefix of 44k merges"
    assert small.vocab == big.vocab[: len(small.vocab)]
    print(f"\nACCEPTANCE 6 PASS: 16k merge list ({k} merges) is an exact prefix of "
          f"the 44k list")


def test_c7_training_determinism(work_dir, capsys):
    corpus = work_dir / "medium.jsonl"
    build_corpus(corpus, target_bytes=1_200_000, seed=7, n_stems=4000)
    for kind in KINDS:
        bundles = []
        for label in ("r1", "r2"):
            out = work_dir / f"det_{kind}_{label}"
            rc = main([
                "train", "--corpus", str(corpus), "--kind", kind,
                "--vocab", "3000", "--out", str(out),
            ])
            capsys.readouterr()
            assert rc == 0
            bundles.append((
                (out / "model.json").read_bytes(),
                (out / "vocab.txt").read_bytes(),
                (out / "merges.txt").read_bytes(),
            ))
        assert bundles[0] == bundles[1], f"{kind}: bundles differ across reruns"
    # the grid's kinds train in worker processes only under compare
    grids = []
    for threads in (1, 3):
        out = work_dir / f"det_grid_{threads}"
        rc = main([
            "compare", "--corpus", str(corpus), "--kinds", ",".join(KINDS),
            "--sizes", "3000", "--out-dir", str(out), "--threads", str(threads),
        ])
        capsys.readouterr()
        assert rc == 0
        grids.append({p.name: p.read_bytes() for p in (out / "models").glob("*.json")})
    assert sorted(grids[0]) == sorted(f"{kind}_3000.json" for kind in KINDS)
    assert grids[0] == grids[1], "grid bundles differ across thread counts"
    print("\nACCEPTANCE 7 PASS: byte-identical bundles across repeat runs for all four "
          "kinds, and across thread counts for the grid")


def _fuzz_lines(n, seed):
    rng = random.Random(seed)
    fragments = [
        "كتاب", "مُحَمَّد", "كـــتاب", "ههههههه", "بِسْمِ", "راااائع!!!",
        "٢٠٢٤", "2024", "١٩٩٩م", "<b>", "</b>", "<p dir=rtl>", "&amp;",
        "&lt;", "&gt;", "&nbsp;", "&amp;lt;", "www.site.com", "https://a.b/c",
        "user@mail.com", "@user1", "x<5", ">", "!!!!", "[URL]", "[EMAIL]",
        "aاb", "ـــ", "و", "،", "   ", "\t",
    ]
    for _ in range(n):
        yield " ".join(rng.choice(fragments) for _ in range(rng.randint(0, 12)))


def test_c8_normalization_conformance():
    assert remove_tatweel("كـــتاب") == "كتاب"
    assert remove_tatweel("كتاب") == "كتاب"
    assert remove_tatweel("ـــ") == ""
    assert remove_diacritics("مُحَمَّد") == "محمد"
    assert remove_diacritics("محمد") == "محمد"
    assert remove_diacritics("بِسْمِ") == "بسم"
    assert map_digits("٢٠٢٤") == "2024"
    assert map_digits("2024") == "2024"
    assert map_digits("سنة ١٩٩٩م") == "سنة 1999م"
    assert replace_entities("see https://x.ye/a now") == "see [URL] now"
    assert replace_entities("ask @user1") == "ask [USER]"
    assert replace_entities("a@b.com and @a") == "[EMAIL] and [USER]"
    assert collapse_repeats("هههههه", 2) == "هه"
    assert collapse_repeats("2000", 2) == "2000"
    assert collapse_repeats("راااائع!!!", 2) == "راائع!!"
    assert strip_markup("<b>نص</b>") == "نص"
    assert strip_markup("a &amp; b") == "a & b"
    assert strip_markup("x < 5") == "x < 5"
    assert normalize("<p>مُحَمَّد  ٢٠٢٤</p>") == "محمد 2024"

    n_lines = 10_000
    configs = [
        NormalizerConfig(),
        NormalizerConfig(collapse_repeats=False, map_digits=False),
        NormalizerConfig(strip_markup=False, repeat_cap=3),
    ]
    checked = 0
    for line in _fuzz_lines(n_lines, seed=13):
        for cfg in configs:
            once = normalize(line, cfg)
            assert normalize(once, cfg) == once, f"not idempotent on {line!r}"
        checked += 1
    assert checked == n_lines
    print(f"\nACCEPTANCE 8 PASS: sub-op examples bit-exact; normalize idempotent "
          f"over {n_lines} fuzz lines x {len(configs)} configs")


def test_c9_wordlevel_unk_monotone(filtered_docs, grid):
    train_docs, _ = split_eval_docs(filtered_docs)
    models_dir = grid["out_dir"] / "models"
    rates = []
    for v in SIZES:
        model = load_model(models_dir / f"wordlevel_{v}.json")
        rates.append(evaluate_model(model, train_docs).unk_rate)
    assert rates[0] >= rates[1] >= rates[2], f"unk rates not monotone: {rates}"
    print(f"\nACCEPTANCE 9 PASS: word-level training-corpus unk rate non-increasing "
          f"{' >= '.join(f'{r:.4f}' for r in rates)}")
