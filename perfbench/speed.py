"""Machine-speed calibration for the end-to-end timings.

The benchmark shares a small virtual machine with other tenants. On the
2-vCPU machine it was written on, one fixed pure-Python loop took
anywhere from 7 to 14 ms within a single minute, in runs of seconds,
and the tokenizer's own speed followed it (correlation 0.9). Raw wall
times then spread over 30% between runs of identical code.

So every timed section is bracketed by runs of a fixed reference loop,
and its time is reported scaled to a machine on which that loop takes
REFERENCE_S: value * REFERENCE_S / loop time, the loop time being the
mean of the samples just before and just after the section. The loop
shares no code with artok, so a change to the program moves a scaled
figure exactly as it moves the raw one; only the machine's speed is
divided out. Raw figures are printed next to the scaled ones.
"""

from __future__ import annotations

import random
import re
import statistics
import time

REFERENCE_S = 0.005

# A fixed text of 3000 words drawn from a 30k-word random lexicon, so
# the loop's dict grows to thousands of entries, as the encoders'
# caches and vocabularies do.
_rng = random.Random(20240317)
_LETTERS = "الميونترهبعدسكقفحجشصرخطزضغذثظء"
_LEXICON = ["".join(_rng.choices(_LETTERS, k=_rng.randint(3, 9))) for _ in range(30000)]
_TEXT = " ".join(_rng.choice(_LEXICON) for _ in range(3000))
_SPACES = re.compile(r"\s+")
_MARKS = re.compile("[\u064b-\u0652]")


def _reference_loop() -> int:
    # The program's own mix in miniature: regex passes over text,
    # splitting, a dict of per-word symbol lists, list and string building.
    symbols: dict = {}
    out: list = []
    for word in _SPACES.sub(" ", _MARKS.sub("", _TEXT)).split():
        syms = symbols.get(word)
        if syms is None:
            syms = [word[0]] + ["##" + ch for ch in word[1:]]
            symbols[word] = syms
        out.extend(syms)
    return len(" ".join(out))


def sample(reps: int = 3) -> float:
    """Median time of `reps` runs of the reference loop, in seconds."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        _reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def factor(before: float, after: float) -> float:
    """Multiplier taking a time measured between two samples to the
    reference machine."""
    return REFERENCE_S / ((before + after) / 2)


def timed(fn, *args):
    """Run fn(*args); returns (result, raw seconds, scaled seconds)."""
    before = sample()
    start = time.perf_counter()
    result = fn(*args)
    raw = time.perf_counter() - start
    return result, raw, raw * factor(before, sample())
