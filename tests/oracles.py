"""Independent reference implementations used as oracles.

The brute-force trainers recount every pair from scratch each round and
never share code with the incremental engine, so agreement between the
two is a real check, not a tautology. oracle_decode is the token-by-token
decode that reads each token's role from its string, kept as the
reference for the table decode in artok.subword; oracle_desegment is the
token loop that resolves its clitic markers, the reference for
artok.morphseg.desegment_text; oracle_normalize runs every pass of the
cleaning pipeline on every text, the reference for artok.normalize's
gated passes; oracle_bpe_symbols replays merges on symbol strings with a
full rescan per round, the reference for the id replay of the bpe
encoders; oracle_segment_word scans the whole clitic table at every
step, the reference for artok.morphseg.segment_word's indexed table.
"""

import re
from collections import Counter
from fractions import Fraction

from artok.morphseg import MAX_PROCLITIC_SEGMENTS, MIN_STEM_LEN, Segmentation, _proclitic_parts
from artok.subword import (
    CONT_PREFIX,
    KIND_BPE_MORPH,
    SPECIALS,
    UNK_ID,
    UNK_TOKEN,
    merge_output,
)

MIN_PAIR_FREQ = 2

_DIACRITICS_RE = re.compile("[\u064b-\u0652\u0670]")
_DIGIT_PAIRS = tuple(zip("٠١٢٣٤٥٦٧٨٩" "۰۱۲۳۴۵۶۷۸۹", "0123456789" * 2))
_TAG_RE = re.compile(r"<[^>]*>")
_ENTITIES = [("&lt;", "<"), ("&gt;", ">"), ("&quot;", '"'), ("&nbsp;", " "), ("&amp;", "&")]
_URL_RE = re.compile(r"(?:[A-Za-z][A-Za-z0-9+.-]*://|www\.)\S+")
_EMAIL_RE = re.compile(r"[A-Za-z0-9._%+-]+@[A-Za-z0-9-]+(?:\.[A-Za-z0-9-]+)*\.[A-Za-z]{2,}")
_MENTION_RE = re.compile(r"@\w+")


def word_symbols(word):
    """Split a pre-token into its initial symbols: first character bare,
    every following character prefixed with the continuation mark."""
    return [word[0]] + [CONT_PREFIX + ch for ch in word[1:]]


def _alphabet(pretokens):
    occ = Counter()
    for word, cnt in pretokens.items():
        for sym in word_symbols(word):
            occ[sym] += cnt
    return [sym for sym, _ in sorted(occ.items(), key=lambda kv: (-kv[1], kv[0]))]


def _apply(seq, pair, merged):
    out = []
    i = 0
    while i < len(seq):
        if i < len(seq) - 1 and (seq[i], seq[i + 1]) == pair:
            out.append(merged)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return out


def oracle_bpe(pretokens, vocab_size, min_pair_freq=MIN_PAIR_FREQ):
    """Rescan-everything BPE: argmax raw pair count, ties to the
    lexicographically greatest (left, right) pair."""
    state = {w: word_symbols(w) for w in pretokens}
    vocab = list(SPECIALS) + _alphabet(pretokens)
    vocab_set = set(vocab)
    merges = []
    while len(vocab) < vocab_size:
        counts = Counter()
        for word, cnt in pretokens.items():
            syms = state[word]
            for i in range(len(syms) - 1):
                counts[(syms[i], syms[i + 1])] += cnt
        candidates = [
            (cnt, pair)
            for pair, cnt in counts.items()
            if cnt >= min_pair_freq and merge_output(*pair) not in vocab_set
        ]
        if not candidates:
            break
        _, pair = max(candidates)
        merged = merge_output(*pair)
        merges.append(pair)
        vocab.append(merged)
        vocab_set.add(merged)
        for word in state:
            state[word] = _apply(state[word], pair, merged)
    return tuple(vocab), tuple(merges)


def oracle_wordpiece(pretokens, vocab_size, min_pair_freq=MIN_PAIR_FREQ):
    """Rescan-everything WordPiece: argmax of the exact rational score
    count(ab) / (count(a) * count(b)); ties by raw count, then pair."""
    state = {w: word_symbols(w) for w in pretokens}
    vocab = list(SPECIALS) + _alphabet(pretokens)
    vocab_set = set(vocab)
    merges = []
    while len(vocab) < vocab_size:
        counts = Counter()
        sym_counts = Counter()
        for word, cnt in pretokens.items():
            syms = state[word]
            for sym in syms:
                sym_counts[sym] += cnt
            for i in range(len(syms) - 1):
                counts[(syms[i], syms[i + 1])] += cnt
        candidates = [
            (Fraction(cnt, sym_counts[pair[0]] * sym_counts[pair[1]]), cnt, pair)
            for pair, cnt in counts.items()
            if cnt >= min_pair_freq and merge_output(*pair) not in vocab_set
        ]
        if not candidates:
            break
        _, _, pair = max(candidates)
        merged = merge_output(*pair)
        merges.append(pair)
        vocab.append(merged)
        vocab_set.add(merged)
        for word in state:
            state[word] = _apply(state[word], pair, merged)
    return tuple(vocab), tuple(merges)


def oracle_desegment(segmented):
    """Glue "X+" to the next token and "+X" to the previous one,
    stripping markers; a dangling marker is stripped best-effort."""
    words: list[str] = []
    pending = ""
    for token in segmented.split():
        if len(token) > 1 and token.endswith("+") and not token.startswith("+"):
            pending += token[:-1]
        elif len(token) > 1 and token.startswith("+"):
            if words and not pending:
                words[-1] += token[1:]
            else:
                words.append(pending + token[1:])
                pending = ""
        else:
            words.append(pending + token)
            pending = ""
    if pending:
        words.append(pending)
    return " ".join(words)


def oracle_decode(model, ids):
    """Map ids back to text: continuations glue to the previous piece,
    other tokens join with single spaces, reserved tokens other than
    [UNK] drop, and morph segment markers are resolved afterwards."""
    dropped = set(model.specials) - {UNK_TOKEN}
    pieces: list[str] = []
    for i in ids:
        if not 0 <= i < len(model.vocab):
            raise ValueError(f"token id out of range: {i}")
        tok = model.vocab[i]
        if tok in dropped:
            continue
        if tok.startswith(CONT_PREFIX) and pieces:
            pieces[-1] += tok[len(CONT_PREFIX):]
        elif tok.startswith(CONT_PREFIX):
            pieces.append(tok[len(CONT_PREFIX):])
        else:
            pieces.append(tok)
    text = " ".join(pieces)
    if model.kind == KIND_BPE_MORPH:
        text = oracle_desegment(text)
    return text



def oracle_normalize(text, cfg):
    """The cleaning pipeline with nothing skipped: every enabled pass
    scans every text, and repeats are found by a "\\D" class."""
    if cfg.remove_tatweel:
        text = text.replace("\u0640", "")
    if cfg.remove_diacritics:
        text = _DIACRITICS_RE.sub("", text)
    if cfg.map_digits:
        for digit, ascii_digit in _DIGIT_PAIRS:
            if digit in text:
                text = text.replace(digit, ascii_digit)
    if cfg.strip_markup:
        while True:
            out = _TAG_RE.sub("", text)
            for entity, char in _ENTITIES:
                out = out.replace(entity, char)
            if out == text:
                break
            text = out
    if cfg.replace_urls:
        text = _URL_RE.sub("[URL]", text)
    if cfg.replace_emails:
        text = _EMAIL_RE.sub("[EMAIL]", text)
    if cfg.replace_mentions:
        text = _MENTION_RE.sub("[USER]", text)
    if cfg.collapse_repeats:
        cap = cfg.repeat_cap
        pattern = re.compile(r"(\D)\1{%d,}" % cap)
        text = pattern.sub(lambda m: m.group(1) * cap, text)
    return " ".join(text.split())


def oracle_bpe_symbols(word, merges):
    """Replay merges on a word's symbol strings: each round rescans every
    adjacent pair for the lowest rank (a later duplicate of a pair takes
    its rank) and merges each non-overlapping occurrence left to right."""
    ranks = {tuple(m): r for r, m in enumerate(merges)}
    syms = word_symbols(word)
    while len(syms) > 1:
        best_rank = None
        best_pair = None
        for i in range(len(syms) - 1):
            rank = ranks.get((syms[i], syms[i + 1]))
            if rank is not None and (best_rank is None or rank < best_rank):
                best_rank = rank
                best_pair = (syms[i], syms[i + 1])
        if best_pair is None:
            break
        syms = _apply(syms, best_pair, merge_output(*best_pair))
    return syms


def oracle_bpe_ids(model, word):
    """A bpe model's ids for one pre-token (a clitic segment, for
    bpe_morph), from oracle_bpe_symbols."""
    return tuple(model.token_ids.get(t, UNK_ID) for t in oracle_bpe_symbols(word, model.merges))


def oracle_segment_word(word, table):
    """Greedy clitic stripping that tries every table entry in table order
    at each step."""
    prefix = []
    rest = word
    used = set()
    while len(prefix) < MAX_PROCLITIC_SEGMENTS:
        matched = None
        for form, may_stack in table.proclitics:
            if form in used or not rest.startswith(form):
                continue
            if len(rest) - len(form) < MIN_STEM_LEN:
                continue
            parts = _proclitic_parts(form)
            if len(prefix) + len(parts) > MAX_PROCLITIC_SEGMENTS:
                continue
            matched = (form, may_stack, parts)
            break
        if matched is None:
            break
        form, may_stack, parts = matched
        used.add(form)
        prefix.extend(f"{p}+" for p in parts)
        rest = rest[len(form):]
        if not may_stack:
            break
    suffix = []
    for form in table.enclitics:
        if rest.endswith(form) and len(rest) - len(form) >= MIN_STEM_LEN:
            suffix.append(f"+{form}")
            rest = rest[: -len(form)]
            break
    return Segmentation(word=word, segments=prefix + [rest] + suffix)
