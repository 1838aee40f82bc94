"""Independent reference encoder used to check the library's ids.

Shares no encoding code with artok.subword: BPE and bpe_morph replay
the merge list in rank order (each merge applied to the whole word
before the next), WordPiece does greedy longest-match against the
vocabulary, and wordlevel is a dictionary lookup. Pre-tokenization
(normalize, clitic segmentation) is taken from the library layers that
own it, since those are checked elsewhere.
"""

from __future__ import annotations

from collections import defaultdict

from artok.corpus import is_arabic_char
from artok.morphseg import segment_word
from artok.normalize import normalize

UNK_ID = 1
# The library maps any word longer than this to a single [UNK] under
# WordPiece; the cap is part of the encoding contract.
WORDPIECE_MAX_WORD_CHARS = 100


class ReferenceEncoder:
    def __init__(self, model):
        self.kind = model.kind
        self.prefix = model.continuation_prefix
        self.normalizer = model.normalizer
        self.clitic_table = model.clitic_table
        self.ids = {tok: i for i, tok in enumerate(model.vocab)}
        self.merges = list(model.merges)
        self.max_piece = max(len(self._surface(t)) for t in model.vocab)
        # Merges indexed by the surface string they produce: a merge can
        # only fire inside a word that contains that surface.
        self.by_surface = defaultdict(list)
        for rank, (left, right) in enumerate(self.merges):
            self.by_surface[self._surface(left) + self._surface(right)].append(rank)

    def _surface(self, token: str) -> str:
        return token[len(self.prefix):] if token.startswith(self.prefix) else token

    def pretokens(self, text: str) -> list[str]:
        words = normalize(text, self.normalizer).split()
        if self.kind != "bpe_morph":
            return words
        out = []
        for w in words:
            if "+" not in w and any(is_arabic_char(ch) for ch in w):
                out.extend(segment_word(w, self.clitic_table).segments)
            else:
                out.append(w)
        return out

    def encode(self, text: str) -> list[int]:
        ids: list[int] = []
        for word in self.pretokens(text):
            if self.kind == "wordlevel":
                ids.append(self.ids.get(word, UNK_ID))
            elif self.kind == "wordpiece":
                ids.extend(self._wordpiece(word))
            else:
                ids.extend(self.ids.get(s, UNK_ID) for s in self._replay(word))
        return ids

    def _replay(self, word: str) -> list[str]:
        syms = [word[0]] + [self.prefix + ch for ch in word[1:]]
        if self.prefix[0] in word:
            ranks = range(len(self.merges))  # surfaces are ambiguous; try all
        else:
            found = set()
            for i in range(len(word)):
                for j in range(i + 2, len(word) + 1):
                    found.update(self.by_surface.get(word[i:j], ()))
            ranks = sorted(found)
        for rank in ranks:
            left, right = self.merges[rank]
            if left not in syms:
                continue
            merged = left + right[len(self.prefix):]
            out = []
            i = 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == left and syms[i + 1] == right:
                    out.append(merged)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            syms = out
        return syms

    def _wordpiece(self, word: str) -> list[int]:
        if len(word) > WORDPIECE_MAX_WORD_CHARS:
            return [UNK_ID]
        out = []
        start = 0
        while start < len(word):
            for end in range(min(len(word), start + self.max_piece), start, -1):
                piece = word[start:end] if start == 0 else self.prefix + word[start:end]
                if piece in self.ids:
                    out.append(self.ids[piece])
                    start = end
                    break
            else:
                return [UNK_ID]
        return out
