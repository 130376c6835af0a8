"""Model-service stand-ins owned by the benchmark.

The package mocks compute every answer from scratch; the hash-embedding mock
alone takes most of a plain ``mock://`` corpus run. Timing those runs would
measure the mocks, not ``restyle``. A :class:`StandIn` wraps one package mock,
answers each distinct request once, and serves repeats from memory, so after a
warm-up pass a timed pass spends almost all its time in the library. Each
stand-in counts its calls, the distinct requests seen since the last
:meth:`StandIn.stats` call, and the time spent inside itself.
"""

from __future__ import annotations

import threading
import time

from restyle.backends import CompletionRequest, CompletionResponse, Generation
from restyle.mocks import (
    NEGATIVE_WORDS,
    POSITIVE_WORDS,
    antonym_flip,
    parse_prompt_input,
)

# Neutral words swapped into a source to make the distinct rewrites. None is
# a sentiment word, so a rewrite keeps the source's style.
REWRITE_WORDS = ("some", "every", "that", "one", "another")
SENTIMENT_WORDS = POSITIVE_WORDS | NEGATIVE_WORDS


class StandIn:
    """Memoizing, counting front for one package mock.

    It offers whichever service method the wrapped backend offers; requests
    are keyed by their full content, so a memoized answer is the answer the
    backend itself gives.
    """

    def __init__(self, backend):
        self.backend = backend
        self._answers: dict = {}
        self._lock = threading.Lock()
        self._calls = 0
        self._busy_s = 0.0
        self._distinct: set = set()

    def _answer(self, key, compute, *args):
        start = time.perf_counter()
        try:
            value = self._answers[key]
        except KeyError:
            value = self._answers[key] = compute(*args)
        elapsed = time.perf_counter() - start
        with self._lock:
            self._calls += 1
            self._busy_s += elapsed
            self._distinct.add(key)
        return value

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        return self._answer(("complete", req), self.backend.complete, req)

    def score_tokens(self, text: str):
        return self._answer(("score", text), self.backend.score_tokens, text)

    def fill_mask(self, text: str, labels: list[str]):
        return self._answer(("fill_mask", text, tuple(labels)),
                            self.backend.fill_mask, text, labels)

    def embed_tokens(self, text: str):
        return self._answer(("embed", text), self.backend.embed_tokens, text)

    def stats(self) -> dict:
        """Cumulative calls and busy time; distinct requests since the last call."""
        with self._lock:
            distinct = len(self._distinct)
            self._distinct = set()
            return {"calls": self._calls, "busy_s": self._busy_s,
                    "distinct": distinct}


class DistinctRewriteBackend:
    """Completion mock whose pool holds k distinct rewrites of equal length.

    One rewrite is the antonym flip of the input; the others swap the first
    neutral word of the input for another neutral word, so every candidate
    has the input's token count and none equals the input. The flip sits at
    beam position ``seed % k``, as with ``mock://lexicon-flip?plant=seed``.
    The input must hold at least one sentiment word and one neutral word.
    """

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        parsed = parse_prompt_input(req.prompt, req.stop)
        if parsed is None:
            raise ValueError("prompt has no recognisable input block")
        text, _, close = parsed
        words = text.split()
        slot = next(i for i, word in enumerate(words)
                    if word.strip(".,").lower() not in SENTIMENT_WORDS)
        k = req.num_candidates
        rewrites = [" ".join(words[:slot] + [alt] + words[slot + 1:])
                    for alt in REWRITE_WORDS if alt != words[slot]][:k - 1]
        if len(rewrites) < k - 1:
            raise ValueError(f"cannot make {k} distinct rewrites")
        flip_at = (req.seed or 0) % k
        ordered = rewrites[:flip_at] + [antonym_flip(text)] + rewrites[flip_at:]
        return CompletionResponse(tuple(
            Generation(text=t + close, gen_score=-0.5 - 0.1 * i)
            for i, t in enumerate(ordered)))
