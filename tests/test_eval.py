import logging
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import artok
from artok.corpus import Document
from artok.eval import (
    REPORT_CSV_HEADER,
    compare_grid,
    evaluate_model,
    evaluate_sizes,
    report_csv,
    report_json,
    report_long_csv,
    roundtrip_audit,
    split_eval_docs,
    train_model,
    worker_pool,
)
from artok.normalize import NormalizerConfig, normalize
from artok.subword import (
    ALL_KINDS,
    SPECIALS,
    UNK_ID,
    TokenizerModel,
    count_pretokens,
    encode,
    load_model,
    truncate_model,
)
from artok.trainers import train_from_pretokens


def docs(*texts):
    return [Document(id=str(i), text=t) for i, t in enumerate(texts)]


def test_wordlevel_ratio_is_exactly_one():
    model = train_from_pretokens(Counter({"كتاب": 3}), "wordlevel", 6)
    corpus = docs("كتاب جديد كبير", "كتاب اخر")
    assert evaluate_model(model, corpus).token_to_word == 1.0


def test_zero_merge_bpe_ratio_is_character_count():
    model = train_from_pretokens(Counter({"كتاب": 1}), "bpe", 30)
    assert evaluate_model(model, docs("كتاب")).token_to_word == 4.0


def test_morph_ratio_counts_words_not_segments():
    model = train_model(docs(*["يتحدثها"] * 3), "bpe_morph", 60)
    # two segment tokens over one word
    assert evaluate_model(model, docs("يتحدثها")).token_to_word == 2.0


def test_ratio_rejects_empty_corpus():
    model = train_from_pretokens(Counter({"a": 1}), "wordlevel", 6)
    with pytest.raises(ValueError):
        evaluate_model(model, docs(""))


def test_unk_rate_character_fallback_is_zero():
    corpus = docs("كتاب جديد", "كتاب قديم")
    model = train_model(corpus, "bpe", 60)
    assert evaluate_model(model, corpus).unk_rate == 0.0


def test_unk_rate_wordlevel_oov():
    model = train_from_pretokens(Counter({"كتاب": 3}), "wordlevel", 6)
    assert evaluate_model(model, docs("كتاب جديد")).unk_rate == 0.5


def test_unk_rate_wordlevel_on_own_vocab_is_zero():
    model = train_from_pretokens(Counter({"كتاب": 3, "جديد": 2}), "wordlevel", 7)
    assert evaluate_model(model, docs("كتاب جديد")).unk_rate == 0.0


def test_coverage_counts_clean_word_occurrences():
    model = train_from_pretokens(Counter({"كتاب": 3}), "wordlevel", 6)
    row = evaluate_model(model, docs("كتاب جديد كتاب"))
    assert row.coverage == pytest.approx(2 / 3)
    assert row.corpus_words == 3
    assert row.token_to_word == 1.0


def _encode_row(model, corpus):
    """A cell's count fields from `encode` of each document, and of each
    of its normalized words for coverage."""
    words = tokens = unk = unk_words = 0
    for doc in corpus:
        enc = encode(model, doc.text)
        words += enc.word_count
        tokens += len(enc.ids)
        unk += enc.ids.count(UNK_ID)
        word_ids = [encode(model, word).ids for word in normalize(doc.text, model.normalizer).split()]
        assert sum(word_ids, []) == enc.ids
        unk_words += sum(UNK_ID in ids for ids in word_ids)
    return (model.kind, model.vocab_size, tokens / words, unk / tokens if tokens else 0.0,
            (words - unk_words) / words, words)


# held-out text has letters the training text lacks, so every kind meets [UNK]
TRAIN_WORDS = st.text(alphabet="والكتبمها", min_size=1, max_size=8)
HELD_WORDS = st.text(alphabet="والكتبمهاي", min_size=1, max_size=8)


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(ALL_KINDS),
       train=st.lists(st.lists(TRAIN_WORDS, min_size=1, max_size=8).map(" ".join),
                      min_size=1, max_size=6),
       held=st.lists(st.lists(HELD_WORDS, max_size=8).map(" ".join), min_size=1, max_size=4),
       data=st.data())
def test_evaluate_sizes_equals_encode_at_each_size(kind, train, held, data):
    largest = train_model(docs(*train), kind, 60)
    floor = len(SPECIALS) if kind == "wordlevel" else largest.vocab_size - len(largest.merges)
    # unsorted, with repeats; sizes past the largest truncate to it, as a
    # short model's do in a grid
    sizes = data.draw(st.lists(st.integers(floor, largest.vocab_size + 3), min_size=1,
                               max_size=5))
    models = [truncate_model(largest, v) for v in sizes]
    held_docs = docs(*held)
    words = count_pretokens(held_docs, "bpe", largest.normalizer)
    if not words:
        with pytest.raises(ValueError, match="no words"):
            evaluate_sizes(largest, sizes, words)
        return
    rows = evaluate_sizes(largest, sizes, words, 0.0)
    assert [r.vocab_size for r in rows] == [min(v, largest.vocab_size) for v in sizes]
    assert [(r.kind, r.vocab_size, r.token_to_word, r.unk_rate, r.coverage, r.corpus_words)
            for r in rows] == [_encode_row(m, held_docs) for m in models]
    assert all(r.words_per_sec > 0 for r in rows)


def test_evaluate_sizes_rejects_empty_sizes_and_a_size_below_the_floor():
    model = train_from_pretokens(Counter({"كتاب": 3}), "bpe", 30)
    words = Counter({"كتاب": 1})
    with pytest.raises(ValueError, match="^sizes must be non-empty$"):
        evaluate_sizes(model, [], words)
    with pytest.raises(ValueError, match="cannot truncate below"):
        evaluate_sizes(model, [model.vocab_size, 5], words)


def test_evaluate_sizes_rejects_staging_a_merge_list_that_repeats_a_pair():
    # The repeated pair has rank 1 in the largest, where the smaller
    # model, which holds the first of the two, merges it at rank 0.
    vocab = [*SPECIALS, "ب", "##ب", "بب", "x"]
    largest = TokenizerModel(kind="bpe", vocab=vocab, merges=[("ب", "##ب")] * 2,
                             normalizer=NormalizerConfig())
    words = Counter({"بب": 1})
    with pytest.raises(ValueError, match="repeats a pair"):
        evaluate_sizes(largest, [8, 9], words)
    # one size alone stages on its own truncation, not on the largest,
    # whose later duplicate would take the pair's rank
    assert [evaluate_sizes(largest, [v], words)[0].token_to_word for v in (8, 9)] == [1, 1]


def test_split_eval_docs_is_last_tenth():
    corpus = docs(*[f"doc {i}" for i in range(20)])
    train, heldout = split_eval_docs(corpus)
    assert len(heldout) == 2
    assert [d.id for d in heldout] == ["18", "19"]
    assert train + heldout == corpus
    with pytest.raises(ValueError):
        split_eval_docs(corpus[:1])


@pytest.fixture(scope="module")
def small_corpus():
    base = [
        "والكتاب الجديد يتحدثها الكاتب كثيرا في المدينة",
        "كتاب التاريخ القديم وكتاب الجغرافيا للمدرسة",
        "يتحدث الناس عن الاخبار والصحف كل يوم",
        "المدينة الكبيرة فيها مكتبات وكتب كثيرة جدا",
    ]
    return docs(*(base * 5))


def test_compare_grid_rows_and_spread(small_corpus, tmp_path):
    report = compare_grid(
        small_corpus,
        kinds=("wordlevel", "bpe"),
        sizes=(40, 70),
        corpus_id="tiny",
        models_dir=tmp_path / "models",
    )
    assert len(report.rows) == 4
    wl = [r for r in report.rows if r.kind == "wordlevel"]
    assert all(r.token_to_word == 1.0 for r in wl)
    assert report.spread["wordlevel"] == 0.0
    bpe_rows = {r.vocab_size: r.token_to_word for r in report.rows if r.kind == "bpe"}
    assert bpe_rows[40] >= bpe_rows[70]
    assert report.spread["bpe"] >= 0.0
    # cache populated, one bundle per cell
    cached = sorted(p.name for p in (tmp_path / "models").glob("*.json"))
    assert cached == ["bpe_40.json", "bpe_70.json", "wordlevel_40.json", "wordlevel_70.json"]
    assert load_model(tmp_path / "models" / "bpe_70.json").vocab_size <= 70


def test_compare_grid_uses_cache(small_corpus, tmp_path):
    models_dir = tmp_path / "models"
    first = compare_grid(small_corpus, kinds=("bpe",), sizes=(50,),
                         models_dir=models_dir, corpus_id="x")
    stamp = (models_dir / "bpe_50.json").stat().st_mtime_ns
    second = compare_grid(small_corpus, kinds=("bpe",), sizes=(50,),
                          models_dir=models_dir, corpus_id="x")
    assert (models_dir / "bpe_50.json").stat().st_mtime_ns == stamp
    assert [r.token_to_word for r in first.rows] == [r.token_to_word for r in second.rows]


def _grid_files(models_dir):
    return {p.name: p.read_bytes() for p in sorted(models_dir.iterdir())}


def _rows_but_speed(report):
    return [{k: v for k, v in asdict(r).items() if k != "words_per_sec"} for r in report.rows]


@pytest.mark.parametrize("change", ["corpus", "normalizer", "no key"])
def test_compare_grid_retrains_a_cache_made_from_other_inputs(small_corpus, tmp_path, change):
    english = docs(*([
        "the new book speaks of the old city",
        "people read the news and the papers every day",
        "the big city has many libraries and books",
    ] * 5))
    # what the cache was made from, then what the grid runs on
    first, corpus, normalizer = small_corpus, english, None
    if change == "normalizer":
        corpus, normalizer = small_corpus, NormalizerConfig(remove_diacritics=False)
    elif change == "no key":
        first, corpus = english, small_corpus
    stale = tmp_path / "stale"
    compare_grid(first, kinds=("bpe",), sizes=(40, 60), models_dir=stale)
    if change == "no key":  # a models dir written before cells carried keys
        for key in stale.glob("*.key"):
            key.unlink()
    reused = compare_grid(corpus, kinds=("bpe",), sizes=(40, 60), normalizer=normalizer,
                          models_dir=stale)
    fresh = compare_grid(corpus, kinds=("bpe",), sizes=(40, 60), normalizer=normalizer,
                         models_dir=tmp_path / "fresh")
    assert _rows_but_speed(reused) == _rows_but_speed(fresh)
    assert [r.unk_rate for r in reused.rows] == [0.0, 0.0]
    assert _grid_files(stale) == _grid_files(tmp_path / "fresh")


def test_compare_grid_workers_train_the_same_grid(small_corpus, tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="artok.eval")
    reports = {}
    for workers in (2, 1):
        reports[workers] = compare_grid(small_corpus, sizes=(40, 70), workers=workers,
                                        models_dir=tmp_path / str(workers))
    assert _rows_but_speed(reports[2]) == _rows_but_speed(reports[1])
    assert [r.kind for r in reports[2].rows] == [k for k in ALL_KINDS for _ in (40, 70)]
    assert reports[2].spread == reports[1].spread
    files = _grid_files(tmp_path / "2")
    assert len(files) == 2 * len(ALL_KINDS) * 2  # a bundle and a key per cell
    assert files == _grid_files(tmp_path / "1")
    assert multiprocessing.active_children() == []
    # one progress line per kind from each grid, in kinds order
    trained = [r.getMessage() for r in caplog.records if r.getMessage().startswith("trained ")]
    assert [m.split(":")[0] for m in trained] == [f"trained {k}" for k in ALL_KINDS] * 2
    assert all("/70 in " in m for m in trained)


def test_compare_grid_opens_one_worker_pool_and_none_when_all_cached(
        small_corpus, tmp_path, monkeypatch):
    opened = []

    def spy(workers):
        opened.append(workers)
        return worker_pool(workers)

    monkeypatch.setattr(artok.eval, "worker_pool", spy)
    compare_grid(small_corpus, sizes=(40, 70), workers=2, models_dir=tmp_path)
    assert opened == [2]
    assert multiprocessing.active_children() == []
    compare_grid(small_corpus, sizes=(40, 70), workers=2, models_dir=tmp_path)
    assert opened == [2]
    assert multiprocessing.active_children() == []


def test_compare_grid_worker_failure_names_the_cell_and_ends_the_pool(small_corpus):
    with pytest.raises(RuntimeError, match="kind=bpe") as info:
        compare_grid(small_corpus, sizes=(1,), workers=2)
    assert isinstance(info.value.__cause__, ValueError)
    assert multiprocessing.active_children() == []


# Enough text that the jobs' arguments overfill a pipe, as a real
# corpus's do; no __main__ guard, so every spawned worker re-runs it.
UNGUARDED_SCRIPT = """
import random
from artok.corpus import Document
from artok.eval import compare_grid

rng = random.Random(0)
letters = "ابتثجحخدذرزسشصضطظعغفقكلمنهوي"
docs = [Document(id=str(i), text=" ".join(
    "".join(rng.choice(letters) for _ in range(rng.randint(3, 8))) for _ in range(2000)))
    for i in range(20)]
"""


def _live_processes_in_group(pgid):
    live = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as f:
                state, _, group = f.read().rsplit(")", 1)[1].split()[:3]
        except OSError:
            continue
        if int(group) == pgid and state != "Z":
            live.append(int(pid))
    return live


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="lists processes from /proc")
@pytest.mark.parametrize("call", ["compare_grid(docs, sizes=(40,), workers=2)"],
                         ids=["compare_grid"])
def test_compare_grid_workers_without_main_guard_fail_fast(tmp_path, call):
    script = tmp_path / "unguarded.py"
    script.write_text(UNGUARDED_SCRIPT + call + "\n", encoding="utf-8")
    src = str(Path(artok.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    # stderr goes to a file: a process left behind holding a pipe would
    # look like a hang of the script itself
    err_path = tmp_path / "stderr.txt"
    with open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, str(script)], stdout=subprocess.DEVNULL,
                                stderr=err, env=env, start_new_session=True)
    try:
        proc.wait(timeout=60)
        hung = False
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        hung = True
    # the pool's resource tracker may take a moment to see the script gone
    deadline = time.monotonic() + 10
    while _live_processes_in_group(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.1)
    left = _live_processes_in_group(proc.pid)
    if left:
        os.killpg(proc.pid, signal.SIGKILL)
    assert not hung, f"{call} hung instead of failing"
    assert left == []
    assert proc.returncode != 0
    last_line = err_path.read_text(encoding="utf-8").strip().splitlines()[-1]
    assert last_line.startswith("RuntimeError") and 'if __name__ == "__main__":' in last_line


# A grid whose two kinds train for a while in spawned workers. argv: the
# start method to set ("default" sets none), the number of 2,000-word
# documents. It trains with workers=2, then with workers=1, and checks
# that both give the same rows.
GRID_SCRIPT = """
import multiprocessing
import random
import sys
from artok.corpus import Document
from artok.eval import compare_grid

if __name__ == "__main__":
    if sys.argv[1] != "default":
        multiprocessing.set_start_method(sys.argv[1])
    rng = random.Random(0)
    letters = "ابتثجحخدذرزسشصضطظعغفقكلمنهوي"
    docs = [Document(id=str(i), text=" ".join(
        "".join(rng.choice(letters) for _ in range(rng.randint(3, 8))) for _ in range(2000)))
        for i in range(int(sys.argv[2]))]
    rows = [[(r.kind, r.vocab_size, r.token_to_word, r.unk_rate, r.coverage, r.corpus_words)
             for r in compare_grid(docs, kinds=("bpe", "wordpiece"), sizes=(3000,),
                                   workers=workers).rows]
            for workers in (2, 1)]
    assert rows[0] == rows[1], rows
    print("same rows")
"""


def _run_grid_script(tmp_path, method, docs, **kwargs):
    script = tmp_path / "grid.py"
    script.write_text(GRID_SCRIPT, encoding="utf-8")
    src = str(Path(artok.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.Popen([sys.executable, str(script), method, str(docs)], env=env,
                            start_new_session=True, **kwargs)


def _children(parent):
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except OSError:
            continue
        if ppid == parent:
            found.append(int(pid))
    return found


def _spawn_workers(parent):
    found = []
    for pid in _children(parent):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                if b"spawn_main" in f.read():
                    found.append(pid)
        except OSError:
            continue
    return found


def _kill_once_two_workers_run(proc):
    """Kill `proc` once it has two spawned workers. Returns those workers,
    whether `proc` was still running when killed, and the live processes
    left in its group afterwards."""
    try:
        deadline = time.monotonic() + 60
        while len(_spawn_workers(proc.pid)) < 2 and proc.poll() is None \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        workers = _spawn_workers(proc.pid)
        running = proc.poll() is None
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
        deadline = time.monotonic() + 10
        while _live_processes_in_group(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.1)
        left = _live_processes_in_group(proc.pid)
    finally:
        if _live_processes_in_group(proc.pid):
            os.killpg(proc.pid, signal.SIGKILL)
    return workers, running, left


START_METHODS = multiprocessing.get_all_start_methods()


# The start-method tests keep the names they had when the pool also
# counted pre-tokens: they check that compare_grid's training pool gives
# the grid of workers=1, and leaves no process behind, whatever start
# method the caller's script sets.
@pytest.mark.parametrize("method", START_METHODS)
def test_count_pretokens_workers_count_under_every_start_method(tmp_path, method):
    proc = _run_grid_script(tmp_path, method, 4, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=120)
    finally:
        if _live_processes_in_group(proc.pid):
            os.killpg(proc.pid, signal.SIGKILL)
    assert proc.returncode == 0, err
    assert out.split() == ["same", "rows"]


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="lists processes from /proc")
@pytest.mark.parametrize("method", START_METHODS)
def test_count_pretokens_workers_exit_when_the_caller_is_killed(tmp_path, method):
    proc = _run_grid_script(tmp_path, method, 20, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    workers, running, left = _kill_once_two_workers_run(proc)
    assert len(workers) == 2, "the grid never started its two training workers"
    assert running, "the grid script ended before it was killed"
    assert left == []


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="lists processes from /proc")
def test_compare_grid_workers_exit_when_the_caller_is_killed(tmp_path):
    proc = _run_grid_script(tmp_path, "default", 20, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    workers, running, left = _kill_once_two_workers_run(proc)
    assert len(workers) == 2, "the grid never started its two training workers"
    assert running, "the grid script ended before it was killed"
    assert left == []


def test_compare_grid_validates_arguments(small_corpus, monkeypatch):
    # before any work: a repeated kind once trained twice and gave one
    # cell's rows twice, and no kinds gave an empty report
    def started(*args, **kwargs):
        raise AssertionError("the grid started work")
    monkeypatch.setattr(artok.eval, "count_pretokens", started)
    for kwargs, message in [
        ({"sizes": ()}, "sizes must be non-empty"),
        ({"kinds": ("nope",)}, "unknown tokenizer kind: 'nope'"),
        ({"kinds": ()}, "kinds must be non-empty"),
        ({"kinds": ("bpe", "wordlevel", "bpe")}, "tokenizer kind 'bpe' is given twice"),
        ({"sizes": (100, 60, 100)}, "vocab size 100 is given twice"),
        ({"workers": 0}, "workers must be at least 1, not 0"),
    ]:
        with pytest.raises(ValueError) as exc:
            compare_grid(small_corpus, **{"kinds": ("bpe",), "sizes": (60,), **kwargs})
        assert str(exc.value) == message


def test_compare_grid_annotates_cell_failures(small_corpus):
    with pytest.raises(RuntimeError, match="kind=bpe"):
        compare_grid(small_corpus, kinds=("bpe",), sizes=(1,))
    # a size below specials + alphabet fails when the model is truncated
    with pytest.raises(RuntimeError, match=r"grid cell kind=bpe sizes=\[8, 200\] failed: "
                                           r"cannot truncate below specials"):
        compare_grid(small_corpus, kinds=("wordlevel", "bpe"), sizes=(8, 200))


def test_roundtrip_audit_exact_for_char_fallback_bpe(small_corpus):
    model = train_model(small_corpus, "bpe", 200)
    report = roundtrip_audit(model, small_corpus, sample_n=10, seed=3)
    assert report["checked"] == 10
    assert report["exact"] == 10
    assert report["mismatched"] == []


def test_roundtrip_audit_reports_wordlevel_unk_losses(small_corpus):
    model = train_from_pretokens(Counter({"كتاب": 1}), "wordlevel", 6)
    report = roundtrip_audit(model, small_corpus, sample_n=5, seed=0)
    assert report["exact"] == 0
    assert report["mismatched"][0]["actual"].count("[UNK]") > 0


def test_roundtrip_audit_seeded_repeatable(small_corpus):
    model = train_from_pretokens(Counter({"كتاب": 1}), "wordlevel", 6)
    a = roundtrip_audit(model, small_corpus, sample_n=7, seed=42)
    b = roundtrip_audit(model, small_corpus, sample_n=7, seed=42)
    assert a == b
    with pytest.raises(ValueError):
        roundtrip_audit(model, small_corpus, sample_n=0)


def test_report_writers(small_corpus, tmp_path):
    report = compare_grid(small_corpus, kinds=("wordlevel",), sizes=(30, 40),
                          corpus_id="tiny")
    csv = report_csv(report)
    lines = csv.strip().split("\n")
    assert lines[0] == REPORT_CSV_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("wordlevel,30,1.000000,")
    long_lines = report_long_csv(report).strip().split("\n")
    assert long_lines[0] == "kind,vocab_size,metric,value"
    assert len(long_lines) == 1 + 2 * 3
    as_json = report_json(report)
    assert '"corpus_id": "tiny"' in as_json
