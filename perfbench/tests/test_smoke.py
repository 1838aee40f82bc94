"""Tiny-size self-test of the benchmark: every workload runs, checks
pass, and produces every metric BENCHMARK.json lists.

    python -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
from artok.subword import decode, encode, load_model
from artok.synth import build_corpus

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = harness.Scale(
    corpus_bytes=150_000,
    sizes=(500, 700, 900),
    warm_requests=200,
    cold_requests_per_s=200,
    cold_stems=5000,
    grid_probe_requests=60,
    grid_min_reps=2,
    serve_segments=2,
    serve_window=50,
    reference_sample=20,
    setup_reps=2,
)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_clean(workload, trace, tmp_path):
    res = harness.run(workload, seed=5, seconds=1, trace=trace, work_root=tmp_path,
                      scale=TINY)
    assert res.correct, res.problems
    assert res.failed == 0 and res.attempted > 0
    for m in SPEC["per_layer" if trace else "end_to_end"]:
        value, unit, _ = res.metrics[m["name"]]
        assert unit == m["unit"], m["name"]
        if not trace:
            assert value > 0, m["name"]
    if trace:
        assert list(tmp_path.glob("traces/*.jsonl"))


def test_grid_shortfall_is_a_failed_cell(tmp_path):
    # 20k is far beyond what a 150 kB corpus supports for the merge kinds.
    res = harness.run("grid", seed=5, seconds=1, trace=False, work_root=tmp_path,
                      scale=dataclasses.replace(TINY, sizes=(500, 20000)))
    assert res.failed >= 3
    assert any("vocab reached" in p for p in res.problems)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "0",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert not out.stdout.strip()


def test_served_checks_can_fail(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    build_corpus(corpus, target_bytes=TINY.corpus_bytes, seed=5)
    docs = harness._load_filtered(corpus, None)
    *_, checked = harness._one_grid(docs, tmp_path / "grid", TINY)
    assert checked.correct, checked.problems
    models = harness._load_bundles(tmp_path / "grid" / "models", TINY, load_model)
    requests = harness._probe_requests(docs, 5, TINY)
    _, served = harness._serve_loop(models, requests, None, False, encode, decode)

    def check(prior):
        res = harness.Result()
        harness._check_served(res, models, requests, served, 5, TINY, prior, "warm")
        return res

    assert check(requests).correct
    # Warm traffic whose warm-up never reached the serving models.
    assert any("first-seen" in p for p in check(()).problems)
    # A served output that a re-encode does not reproduce.
    served.digests[0] ^= 1
    assert any("differs from its re-encode" in p for p in check(requests).problems)
