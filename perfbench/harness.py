"""Workload runners, output checks and metric computation.

Every workload starts from the same seeded raw corpus and runs the
paper's grid experiment on it (load -> filter -> compare_grid over all
four kinds at three sizes, from an empty models dir, reports on disk):

- grid: repetitions of the whole pipeline (load + filter as set-up, the
  grid, then serving passes of held-out traffic on the fresh largest
  bundles, loaded from disk with cold caches), so the serving metrics
  and output checks also cover this workload.
- serve-warm / serve-cold: the grid's largest bundles are the fixtures.
  One in-process client sends one request at a time (closed loop):
  encode with the named model, then decode the returned ids. Warm
  traffic cycles over held-out documents after a warm-up pass over the
  same traffic; cold traffic is a list of never-repeated documents from
  a far larger stem lexicon, sent once with no warm-up.

All output checks run outside the timed sections.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import random
import resource
import shutil
import statistics
import time
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from artok.corpus import filter_stream, load_documents
from artok.eval import (
    compare_grid,
    report_csv,
    report_json,
    report_long_csv,
    split_eval_docs,
)
from artok.normalize import normalize
from artok.subword import ALL_KINDS, UNK_ID, decode, encode, load_model
from artok.synth import build_corpus

import speed
import traffic
from reference import ReferenceEncoder
from tracing import Tracer


@dataclass(frozen=True)
class Scale:
    """Input sizes. DEFAULT is what the benchmark runs; tests shrink it."""

    corpus_bytes: int = 750_000
    # bpe_morph runs out of pairs near 8.6k on a 0.75 MB corpus, so
    # every kind reaches the largest size with margin.
    sizes: tuple = (3000, 4500, 6000)
    grid_min_reps: int = 4
    # serve runs: each segment opens with a grid repetition
    serve_segments: int = 3
    warm_requests: int = 2000
    # Cold requests per second of --seconds: about what the current
    # encoder serves in that time.
    cold_requests_per_s: int = 1700
    cold_stems: int = 300_000
    grid_probe_requests: int = 1000
    serve_window: int = 2000
    reference_sample: int = 200
    setup_reps: int = 5


DEFAULT = Scale()

# count_pretokens worker processes in every grid: one per vCPU of the
# 2-vCPU machine the benchmark was written on.
WORKERS = 2
# grid runs: serving passes per repetition, each on freshly loaded bundles
PROBE_PASSES = 2

# sha256 over the saved grid bundles (file names and bytes) for seed 0
# at DEFAULT scale. Training is byte-reproducible, so any change here is
# a change in what the trainers produce.
SEED0_GRID_DIGEST = "ddda9491ec2074466334d335faff8c589df784e1dd2f8adac124f8871530ac33"
DIGEST_SEED = 0

# serve-cold stops at this multiple of --seconds even if its list is unsent.
COLD_DEADLINE_FACTOR = 4
WARM_MAX_FIRST_SEEN = 0.01
COLD_MIN_FIRST_SEEN = 0.25
REPORT_FILES = ("report.csv", "report.json", "ratio_long.csv")


@dataclass
class Result:
    metrics: dict = field(default_factory=dict)  # name -> (value, unit, samples)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def put(self, name, value, unit, samples):
        self.metrics[name] = (value, unit, samples)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(reason)

    def violation(self, reason: str) -> None:
        self.problems.append(reason)

    def merge(self, other: "Result") -> None:
        """Take over the checks counted in other (metrics stay apart)."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)

    def report_lines(self) -> list[str]:
        lines = [f"{name} {value:.6g} {unit} (n={n})"
                 for name, (value, unit, n) in sorted(self.metrics.items())]
        lines.extend(self.notes)
        lines.extend(f"problem: {p}" for p in self.problems)
        return lines


def run(workload: str, seed: int, seconds: int, trace: bool, work_root: Path,
        scale: Scale = DEFAULT) -> Result:
    work = work_root / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    res = Result()
    tracer = Tracer() if trace else None
    try:
        # Raw JSONL with its web noise, as the grid experiment reads it.
        corpus = work / "corpus.jsonl"
        build_corpus(corpus, target_bytes=scale.corpus_bytes, seed=seed)
        if workload == "grid":
            _grid_workload(res, corpus, work, seed, seconds, scale, tracer)
        else:
            _serve_workload(res, corpus, work, seed, seconds, scale, tracer,
                            warm=(workload == "serve-warm"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tracer is not None:
        path = work_root / "traces" / f"{workload}-seed{seed}.jsonl"
        tracer.write(path)
        res.notes.append(f"spans: {len(tracer.spans)} written to {path}")
    res.put("error_rate", res.failed / max(res.attempted, 1), "ratio", res.attempted)
    return res


# ---------------------------------------------------------------------------
# grid


def _load_filtered(corpus: Path, tracer: Tracer | None):
    docs = load_documents(corpus)
    if tracer is not None:
        docs = tracer.iterate("corpus.load_documents", docs)
    return list(filter_stream(docs))


def _timed_grid(docs, out: Path, scale: Scale):
    """compare_grid from an empty models dir plus the three reports;
    returns (seconds, report, models_dir)."""
    models = out / "models"
    models.mkdir(parents=True)
    if any(models.iterdir()):
        raise RuntimeError(f"{models} is not empty; the grid would load, not train")
    start = time.perf_counter()
    report = compare_grid(docs, sizes=scale.sizes, workers=WORKERS,
                          models_dir=models, corpus_id="perfbench")
    for name, text in zip(REPORT_FILES, (report_csv(report), report_json(report),
                                         report_long_csv(report))):
        (out / name).write_text(text, encoding="utf-8")
    return time.perf_counter() - start, report, models


def _bundle_path(models: Path, kind: str, size: int) -> Path:
    return models / f"{kind}_{size}.json"


def _check_grid(res: Result, report, out: Path, models: Path, scale: Scale) -> str:
    """Per-cell validity plus the paper's grid properties; returns the
    digest of the saved bundles."""
    res.attempted += len(ALL_KINDS) * len(scale.sizes)
    rows = {(r.kind, r.vocab_size): r for r in report.rows}
    bundles = {}
    for kind in ALL_KINDS:
        for size in scale.sizes:
            path = _bundle_path(models, kind, size)
            if not path.is_file():
                res.fail(f"grid cell {kind}@{size}: no bundle saved")
                continue
            bundle = json.loads(path.read_text(encoding="utf-8"))
            bundles[kind, size] = bundle
            if len(bundle["vocab"]) != size:
                res.fail(f"grid cell {kind}@{size}: vocab reached {len(bundle['vocab'])}")
            elif (kind, size) not in rows:
                res.fail(f"grid cell {kind}@{size}: no report row")
    for name in REPORT_FILES:
        if not (out / name).is_file() or (out / name).stat().st_size == 0:
            res.violation(f"grid report {name} missing or empty")
    sizes = sorted(scale.sizes)
    for size in sizes:
        row = rows.get(("wordlevel", size))
        if row is not None and row.token_to_word != 1.0:
            res.violation(f"wordlevel@{size} token_to_word {row.token_to_word} != 1.0")
    for kind in ("bpe", "wordpiece"):
        ratios = [rows[kind, s].token_to_word for s in sizes if (kind, s) in rows]
        if any(a <= b for a, b in zip(ratios, ratios[1:])):
            res.violation(f"{kind} token_to_word not strictly decreasing: {ratios}")
    for kind in ("bpe", "wordpiece", "bpe_morph"):
        merges = [bundles[kind, s]["merges"] for s in sizes if (kind, s) in bundles]
        if any(big[:len(small)] != small for small, big in zip(merges, merges[1:])):
            res.violation(f"{kind} smaller merge list is not a prefix of the larger")
    digest = hashlib.sha256()
    for path in sorted(models.glob("*.json")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _check_digests(res: Result, digests: list, seed: int, scale: Scale) -> None:
    if len(set(digests)) > 1:
        res.violation(f"grid bundles differ between repetitions: {digests}")
    if seed == DIGEST_SEED and scale == DEFAULT and digests[0] != SEED0_GRID_DIGEST:
        res.violation(f"grid digest {digests[0]} != recorded {SEED0_GRID_DIGEST}")
    res.notes.append(f"grid bundle digest: {digests[0]}")


def _one_grid(docs, out: Path, scale: Scale):
    """One timed grid and its checks; returns (raw seconds, scaled
    seconds, bundle digest, Result holding the checks)."""
    checked = Result()
    before = speed.sample()
    elapsed, report, models = _timed_grid(docs, out, scale)
    scaled = elapsed * speed.factor(before, speed.sample())
    return elapsed, scaled, _check_grid(checked, report, out, models, scale), checked


def _in_child(fn, *args):
    """fn(*args) in a forked child process, which has ended when this
    returns; returns fn's (picklable) result. The child's memory does not
    count toward this process's peak resident set."""
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_child_main, args=(sender, fn, args))
    child.start()
    sender.close()
    try:
        ok, value = receiver.recv()
    except EOFError:
        ok, value = False, "no result"
    finally:
        receiver.close()
        child.join()
    if not ok:
        raise RuntimeError(f"child process failed (exit code {child.exitcode}): {value}")
    return value


def _child_main(sender, fn, args):
    try:
        sender.send((True, fn(*args)))
    except BaseException:
        sender.send((False, traceback.format_exc()))
    finally:
        sender.close()


class _Grids:
    """The grid repetitions of one run: each is timed and checked, and
    all must save byte-identical bundles. Isolated grids run in a child
    process, so that training's memory stays out of a serving process's
    peak resident set."""

    def __init__(self, res: Result, docs, work: Path, scale: Scale, isolated: bool):
        self.res, self.docs, self.work, self.scale = res, docs, work, scale
        self.isolated = isolated
        self.raw: list = []
        self.scaled: list = []
        self.digests: list = []

    def run(self) -> Path:
        """One timed grid; returns its models dir."""
        out = self.work / f"grid{len(self.raw)}"
        args = (self.docs, out, self.scale)
        raw, scaled, digest, checked = (_in_child(_one_grid, *args) if self.isolated
                                        else _one_grid(*args))
        self.raw.append(raw)
        self.scaled.append(scaled)
        self.digests.append(digest)
        self.res.merge(checked)
        return out / "models"

    def finish(self, seed: int) -> None:
        _put_scaled(self.res, "grid_s", "s", self.raw, self.scaled)
        _check_digests(self.res, self.digests, seed, self.scale)


def _grid_workload(res, corpus, work, seed, seconds, scale, tracer):
    if tracer is not None:
        _traced_grid_workload(res, corpus, work, seed, scale, tracer)
        return
    # Each repetition is the whole pipeline: load + filter (set-up), the
    # grid, then serving passes over held-out traffic on the fresh
    # bundles, reloaded for each pass so caches start empty. Interleaving
    # spreads every metric's samples over the run, so a slow spell on a
    # shared machine moves one sample of each rather than all samples of
    # one.
    setup_raw, setup, passes, probe = [], [], [], Served()
    grids = requests = None
    start = time.perf_counter()
    while (len(setup) < scale.grid_min_reps
           or time.perf_counter() - start < seconds):
        docs, raw, scaled = speed.timed(_load_filtered, corpus, None)
        setup_raw.append(raw)
        setup.append(scaled)
        if grids is None:
            grids = _Grids(res, docs, work, scale, isolated=False)
            requests = _probe_requests(docs, seed, scale)
        models = grids.run()
        for _ in range(PROBE_PASSES):
            _, one = _serve_loop(_load_bundles(models, scale, load_model), requests, None,
                                 False, encode, decode, window=len(requests))
            probe.extend(one, len(passes) * len(requests))
            passes.append(one)
    _put_scaled(res, "setup_s", "s", setup_raw, setup)
    grids.finish(seed)
    _put_serving(res, passes)
    _check_served(res, _load_bundles(models, scale, load_model), requests, probe, seed,
                  scale, (), None)


def _traced_grid_workload(res, corpus, work, seed, scale, tracer):
    # One untraced and one traced pass over identical work; the
    # difference is the tracing overhead.
    t0 = time.perf_counter()
    docs = _load_filtered(corpus, None)
    grids = _Grids(res, docs, work, scale, isolated=False)
    grids.run()
    untraced = time.perf_counter() - t0
    with tracer.installed():
        t0 = time.perf_counter()
        grids.docs = _load_filtered(corpus, tracer)
        models = grids.run()
        traced = time.perf_counter() - t0
        requests = _probe_requests(docs, seed, scale)
        bundles = _load_bundles(models, scale, tracer.load_model_fn())
        _, served = _serve_loop(bundles, requests, None, False, tracer.encode_fn(),
                                tracer.decode_fn())
    grids.finish(seed)
    _put_overhead(res, traced, untraced)
    share = _check_served(res, bundles, requests, served, seed, scale, (), None)
    res.metrics.update(tracer.layer_metrics(share))


def _probe_requests(docs, seed, scale):
    _, held = split_eval_docs(docs)
    return traffic.warm_requests([d.text for d in held], seed, scale.grid_probe_requests)


def _load_bundles(models: Path, scale: Scale, load) -> dict:
    return {k: load(_bundle_path(models, k, max(scale.sizes))) for k in ALL_KINDS}


# ---------------------------------------------------------------------------
# serving


def _serve_workload(res, corpus, work, seed, seconds, scale, tracer, warm):
    # Grids and the cold stream are made in child processes, so this
    # process's peak resident set is the serving footprint: the client's
    # request texts, the loaded models and what their caches grow to.
    docs = _load_filtered(corpus, None)
    grids = _Grids(res, docs, work, scale, isolated=True)
    models_dir = grids.run()

    if warm:
        _, held = split_eval_docs(docs)
        requests = traffic.warm_requests([d.text for d in held], seed, scale.warm_requests)
        warmup = requests
    else:
        n = seconds * scale.cold_requests_per_s
        stream = _in_child(traffic.cold_requests, work / "cold.jsonl", seed,
                           n + len(ALL_KINDS), scale.cold_stems)
        # The first encode per model belongs to set-up and uses text the
        # timed loop never sends.
        requests = stream[:n]
        warmup = list(zip(ALL_KINDS, (text for _, text in stream[n:])))
    regime = "warm" if warm else "cold"

    def set_up(load):
        """Load the models and send them the set-up traffic; returns the
        models and the (kind, text) requests they were sent."""
        models = _load_bundles(models_dir, scale, load)
        sent = []
        for kind, text in warmup:
            enc = encode(models[kind], text)
            if warm:
                decode(models[kind], enc.ids)
            sent.append((kind, text))
        return models, sent

    if tracer is not None:
        _traced_serve(res, set_up, requests, seconds, warm, seed, scale, tracer, regime)
        grids.finish(seed)
        return

    # The run is cut into segments: each is a grid repetition, set-ups of
    # replica models (loaded, warmed, discarded), then a share of the
    # serving loop on the one set of serving models. Spreading every
    # metric's samples over the run keeps a slow spell on a shared
    # machine from moving all samples of one metric. Warm traffic cycles
    # until each segment's deadline; the cold list is served whole, in
    # order (the same cache-fill trajectory and first-seen share on every
    # commit), with a deadline only as a guard.
    segments = scale.serve_segments
    setup_raw, setup, windows, served = [], [], [], Served()
    models = prior = None
    # Cold slice edges stay even: a request's class is its index parity.
    edges = [k * len(requests) // segments // 2 * 2 for k in range(segments)]
    edges.append(len(requests))
    for k in range(segments):
        if k:
            grids.run()
        for _ in range(k, scale.setup_reps, segments):
            (replica, sent), raw, scaled = speed.timed(set_up, load_model)
            setup_raw.append(raw)
            setup.append(scaled)
            if models is None:
                models, prior = replica, sent
            del replica
        if warm:
            _, part = _serve_loop(models, requests, seconds / segments, True, encode, decode,
                                  window=scale.serve_window)
            lo = 0
        else:
            lo, hi = edges[k], edges[k + 1]
            _, part = _serve_loop(models, requests[lo:hi],
                                  COLD_DEADLINE_FACTOR * seconds / segments, False,
                                  encode, decode, window=scale.serve_window)
            if part.sent < hi - lo:
                res.violation(f"cold segment {k} sent {part.sent} of {hi - lo} requests "
                              "before its guard deadline; the metrics cover less of the stream")
        windows.append(part)
        served.extend(part, lo)
    _put_scaled(res, "setup_s", "s", setup_raw, setup)
    grids.finish(seed)
    _put_serving(res, windows)
    _check_served(res, models, requests, served, seed, scale, prior, regime)


def _traced_serve(res, set_up, requests, seconds, warm, seed, scale, tracer, regime):
    # Serve for half the time untraced, then send the same requests
    # again, traced, to freshly set-up models.
    models, prior = set_up(load_model)
    untraced, served = _serve_loop(models, requests, seconds / 2, warm, encode, decode)
    models, _ = set_up(tracer.load_model_fn())
    with tracer.installed():
        traced, _ = _serve_loop(models, requests, None, warm, tracer.encode_fn(),
                                tracer.decode_fn(), limit=served.sent)
    _put_overhead(res, traced, untraced)
    share = _check_served(res, models, requests, served, seed, scale, prior, regime)
    res.metrics.update(tracer.layer_metrics(share))


def _put_overhead(res, traced, untraced):
    res.put("trace.overhead_s", traced - untraced, "s", 1)
    res.put("trace.overhead_share", (traced - untraced) / untraced, "ratio", 1)


@dataclass
class Served:
    """What one closed loop sent. Per answered request, in order: its
    position in the request list, its word count and the clock at its
    start, after encode and after decode. digests maps each position of
    the first pass through the list to a digest of its output; a cycling
    loop compares later passes against it as it goes. Outputs themselves
    are not kept, so the loop's own memory stays small next to the
    models' and flat however long it runs."""

    index: array = field(default_factory=lambda: array("q"))
    words: array = field(default_factory=lambda: array("q"))
    start: array = field(default_factory=lambda: array("q"))
    encoded: array = field(default_factory=lambda: array("q"))
    decoded: array = field(default_factory=lambda: array("q"))
    digests: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)  # (request index, description)
    sent: int = 0
    window: int = 0
    speed: list = field(default_factory=list)  # reference-loop samples at window edges

    def extend(self, other: "Served", offset: int) -> None:
        """Add the requests other sent, numbered from offset, to the
        digests and errors (the timings stay with other)."""
        self.digests.update((i + offset, d) for i, d in other.digests.items())
        self.errors.extend((i + offset, err) for i, err in other.errors)
        self.sent += other.sent


def _output_digest(enc, dec) -> int:
    return hash((tuple(enc.ids), tuple(enc.tokens), enc.word_count, dec))


def _serve_loop(models, requests, seconds, cycle, encode_fn, decode_fn, limit=math.inf,
                window=0):
    """Closed loop, one request at a time, until `seconds` pass (None:
    no deadline), `limit` requests were sent, or (without cycle) the
    request list ends. With a window, the reference loop is sampled
    between every `window` answered requests and at the end. Returns
    (wall seconds, Served)."""
    out = Served(window=window)
    n = len(requests)
    clock = time.perf_counter_ns
    start = clock()
    deadline = start + seconds * 1e9 if seconds is not None else math.inf
    i = 0
    now = start
    while i < limit and now < deadline and (cycle or i < n):
        if window and len(out.start) == len(out.speed) * window:
            out.speed.append(speed.sample())
        j = i % n
        kind, text = requests[j]
        model = models[kind]
        t0 = clock()
        try:
            enc = encode_fn(model, text)
            t1 = clock()
            dec = decode_fn(model, enc.ids)
            t2 = clock()
        except Exception as exc:  # a failed request is counted, not fatal
            out.errors.append((i, repr(exc)))
        else:
            out.index.append(j)
            out.words.append(enc.word_count)
            out.start.append(t0)
            out.encoded.append(t1)
            out.decoded.append(t2)
            digest = _output_digest(enc, dec)
            if i < n:
                out.digests[i] = digest
            elif out.digests.get(j) != digest:
                out.errors.append((i, "encoded differently on a repeat"))
        now = clock()
        i += 1
    out.sent = i
    if window:
        out.speed.append(speed.sample())
    return (now - start) / 1e9, out


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _put_scaled(res, name, unit, raw, scaled) -> None:
    """Median of speed-scaled samples as the metric; raw median as a note."""
    res.put(name, statistics.median(scaled), unit, len(scaled))
    res.notes.append(f"raw {name} {statistics.median(raw):.6g} {unit}: "
                     + " ".join(f"{v:.4g}" for v in raw))


def _put_serving(res, segments: list) -> None:
    """Serving metrics as medians over windows of consecutive requests
    within each segment (a trailing partial window is dropped), each
    window scaled by the reference-loop samples at its edges, so a spell
    of machine noise moves a few windows, not the result.

    Medians are taken per request class (even request positions are
    short queries, odd ones whole documents): over the 50/50 mix a
    median would sit on the boundary between the two classes and jump
    between them. The p99 spans both classes."""
    raw: dict = {}
    scaled: dict = {}
    for part in segments:
        window = part.window
        for k in range(max(len(part.start) // window, 1)):
            lo, hi = k * window, min((k + 1) * window, len(part.start))
            f = speed.factor(part.speed[k], part.speed[k + 1])
            enc_ns = {0: [], 1: []}
            dec_ns = {0: [], 1: []}
            for r in range(lo, hi):
                cls = part.index[r] % 2
                enc_ns[cls].append(part.encoded[r] - part.start[r])
                dec_ns[cls].append(part.decoded[r] - part.encoded[r])
            words = sum(part.words[lo:hi])
            for name, value, scale in (
                ("encode_query_p50_ms", _percentile(enc_ns[0], 0.50) / 1e6, f),
                ("encode_doc_p50_ms", _percentile(enc_ns[1], 0.50) / 1e6, f),
                ("encode_p99_ms", _percentile(enc_ns[0] + enc_ns[1], 0.99) / 1e6, f),
                ("decode_query_p50_ms", _percentile(dec_ns[0], 0.50) / 1e6, f),
                ("decode_doc_p50_ms", _percentile(dec_ns[1], 0.50) / 1e6, f),
                ("decode_p99_ms", _percentile(dec_ns[0] + dec_ns[1], 0.99) / 1e6, f),
                ("words_per_s", words / ((part.decoded[hi - 1] - part.start[lo]) / 1e9), 1 / f),
            ):
                raw.setdefault(name, []).append(value)
                scaled.setdefault(name, []).append(value * scale)
    n = sum(len(part.start) for part in segments)
    for name in raw:
        unit = "1/s" if name == "words_per_s" else "ms"
        res.put(name, statistics.median(scaled[name]), unit, n)
        res.notes.append(f"raw {name} {statistics.median(raw[name]):.6g} {unit}")
    res.notes.append(f"serving metrics: medians over {len(raw['words_per_s'])} windows")


def _check_served(res, models, requests, served, seed, scale, prior, regime):
    """Count the loop's errors as failures; re-encode every request of
    the first pass (its output must match the served output's digest)
    and check it, a seeded sample also against the reference encoder;
    return the first-seen word share of the first pass: occurrences of
    normalized words the serving model had not been sent before, with
    `prior` (the traffic set-up sent to the serving models) counted as
    sent. regime "warm" / "cold" asserts the share that makes the
    workload use / bypass the caches."""
    # Every workload ends here: the peak so far is the program's, before
    # the checks' own re-encodes and word sets add to it.
    res.put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)
    n = len(requests)
    res.attempted += served.sent
    for i, err in served.errors:
        res.fail(f"request {i}: {err}")
    first = {}  # request index mod n -> digest of its first answer
    for i in sorted(served.digests):
        j = i % n
        if j not in first:
            first[j] = served.digests[i]
        elif first[j] != served.digests[i]:
            res.fail(f"request {j} encoded differently on a repeat")
    seen = {kind: set() for kind in ALL_KINDS}
    for kind, text in prior:
        seen[kind].update(normalize(text, models[kind].normalizer).split())
    rng = random.Random(seed * 7919 + 3)
    picks = set(rng.sample(sorted(first), min(scale.reference_sample, len(first))))
    refs = {kind: ReferenceEncoder(m) for kind, m in models.items()}
    fresh = total = 0
    for j in sorted(first):
        kind, text = requests[j]
        model = models[kind]
        norm = normalize(text, model.normalizer)
        for w in norm.split():
            total += 1
            if w not in seen[kind]:
                fresh += 1
                seen[kind].add(w)
        enc = encode(model, text)
        dec = decode(model, enc.ids)
        if _output_digest(enc, dec) != first[j]:
            res.fail(f"request {j} ({kind}): served output differs from its re-encode")
            continue
        problem = _request_problem(model, enc, dec, norm)
        if problem:
            res.fail(f"request {j} ({kind}): {problem}")
        elif j in picks and refs[kind].encode(text) != enc.ids:
            res.fail(f"request {j} ({kind}): ids differ from the reference encoder")
    share = fresh / total if total else 0.0
    res.put("subword.first_seen_word_share", share, "ratio", total)
    if regime == "warm" and share > WARM_MAX_FIRST_SEEN:
        res.violation(f"warm traffic first-seen share {share:.4f} > {WARM_MAX_FIRST_SEEN}")
    if regime == "cold" and share < COLD_MIN_FIRST_SEEN:
        res.violation(f"cold traffic first-seen share {share:.4f} < {COLD_MIN_FIRST_SEEN}")
    res.notes.append(f"reference encoder checked {len(picks)} requests")
    return share


def _request_problem(model, enc, dec, norm) -> str | None:
    vocab = model.vocab
    if any(not 0 <= i < len(vocab) for i in enc.ids):
        return "token id out of range"
    if enc.tokens != [vocab[i] for i in enc.ids]:
        return "tokens != vocab[ids]"
    if enc.word_count != len(norm.split()):
        return f"word_count {enc.word_count} != {len(norm.split())}"
    if UNK_ID not in enc.ids and dec != norm:
        return "decode(encode(x)) != normalize(x)"
    return None
