"""Deterministic in-process mock backends.

These stand in for the four model services during tests and demos. Every
mock is a pure function of the request: the same request always yields a
byte-identical response, and all of them are safe under concurrent calls.

Mocks are reachable through ``mock://`` endpoint URLs:

* ``mock://echo[?text=...]`` - completion; copies the query input back out of
  the prompt (or always returns the canned ``text``).
* ``mock://lexicon-flip[?plant=seed]`` - completion; candidate 1 is the input
  with sentiment words swapped by the antonym table below, followed by a
  verbatim copy and progressively padded copies. ``plant=seed`` moves the
  flipped candidate to beam position ``seed % k``.
* ``mock://uniform[?vocab=50257]`` - token scoring; every whitespace token
  gets log(1/vocab).
* ``mock://sentiment`` - mask filling; a word-list sentiment rule over the
  bracketed cloze text (or the whole text when it is not a cloze).
* ``mock://hash-embed[?dim=32]`` - embeddings; a unit vector seeded from a
  hash of each whitespace token.
"""

from __future__ import annotations

import hashlib
import math
import re
from functools import lru_cache
from urllib.parse import parse_qs, urlsplit

import numpy as np

from .backends import (
    CompletionRequest,
    CompletionResponse,
    EmbeddingResponse,
    Generation,
    LabelError,
    MaskFillResponse,
    TokenScore,
    TokenScoreResponse,
    check_count,
)

# Antonym pairs used by the flip mock, mirrored into the word lists the
# sentiment mock scores with. Kept small and public so tests can hand-check.
ANTONYMS = {
    "good": "bad",
    "great": "terrible",
    "best": "worst",
    "love": "hate",
    "loved": "hated",
    "wonderful": "horrible",
    "amazing": "awful",
    "delicious": "disgusting",
    "fresh": "stale",
    "friendly": "rude",
    "clean": "dirty",
    "happy": "sad",
    "excellent": "poor",
    "tasty": "bland",
    "nice": "nasty",
}
POSITIVE_WORDS = frozenset(ANTONYMS)
NEGATIVE_WORDS = frozenset(ANTONYMS.values())
_FLIP = {**ANTONYMS, **{v: k for k, v in ANTONYMS.items()}}

def parse_prompt_input(prompt: str, stop: str | None):
    """Recover (input_text, open, close) from a rendered transfer prompt.

    ``stop`` is the pair's close. The opener ending the prompt is its
    shortest suffix, at least as long as ``stop``, that occurs only at the
    end of the text after the input's close: an opener longer than its
    close, such as ``[[`` for ``]``, cut too short also occurs one character
    earlier. The input ends at the last close before the opener and starts
    after the first opener of the query block; blocks are joined by
    newlines, each ending in the close. None when the prompt is not ours.
    """
    if not stop:
        return None
    for size in range(len(stop), len(prompt)):
        open_, body = prompt[-size:], prompt[:-size]
        end = body.rfind(stop)
        if end < 0:
            return None
        if prompt.find(open_, end + len(stop)) == len(body):
            break
    else:
        return None
    join = body.rfind(stop + "\n", 0, end)
    start = body.find(open_, 0 if join < 0 else join + len(stop) + 1, end)
    if start < 0 and open_ == stop:
        # The "join" found is the opener, or its end and the input's first
        # characters, before a newline: the block starts after the join
        # before it.
        join = body.rfind(stop + "\n", 0, join)
        start = body.find(open_, 0 if join < 0 else join + len(stop) + 1, end)
    if start < 0:
        return None
    return body[start + len(open_):end], open_, stop


def antonym_flip(text: str) -> str:
    """Swap every known sentiment word for its antonym, keeping capitalization."""

    def repl(match: re.Match) -> str:
        word = match.group(0)
        swapped = _FLIP.get(word.lower())
        if swapped is None:
            return word
        return swapped.capitalize() if word[0].isupper() else swapped

    return re.sub(r"[A-Za-z']+", repl, text)


def _beam_scores(k: int) -> list[float]:
    return [-0.5 - 0.1 * i for i in range(k)]


class EchoCompletionBackend:
    """Returns the prompt's own query input (or a canned string) k times."""

    def __init__(self, canned: str | None = None):
        self.canned = canned

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        if self.canned is not None:
            texts = [self.canned] * req.num_candidates
        else:
            parsed = parse_prompt_input(req.prompt, req.stop)
            if parsed is None:
                texts = [""] * req.num_candidates
            else:
                text, _, close = parsed
                texts = [text + close] * req.num_candidates
        scores = _beam_scores(req.num_candidates)
        return CompletionResponse(tuple(
            Generation(text=t, gen_score=s) for t, s in zip(texts, scores)
        ))


class LexiconFlipBackend:
    """Candidate pool with exactly one sentiment-flipped rewrite.

    The pool is, in pattern order: the antonym-flipped input, a verbatim
    copy, then copies with the last word repeated once more per extra slot
    (strictly longer, so they never win on fluency). With ``plant="first"``
    the flipped candidate always holds the top beam position; with
    ``plant="seed"`` it sits at position ``req.seed % k``, letting tests
    control how often the top-beam baseline happens to pick it.
    """

    def __init__(self, plant: str = "first"):
        if plant not in ("first", "seed"):
            raise ValueError("plant must be 'first' or 'seed'")
        self.plant = plant

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        parsed = parse_prompt_input(req.prompt, req.stop)
        k = req.num_candidates
        if parsed is None:
            return CompletionResponse(tuple(
                Generation(text="", gen_score=s) for s in _beam_scores(k)
            ))
        text, _, close = parsed
        words = text.split()
        patterns = [antonym_flip(text), text]
        for extra in range(1, max(0, k - 2) + 1):
            patterns.append(" ".join(words + [words[-1]] * extra) if words else text)
        patterns = patterns[:k]

        flip_at = 0
        if self.plant == "seed" and k > 0:
            flip_at = (req.seed or 0) % k
        rest = patterns[1:]
        ordered = rest[:flip_at] + [patterns[0]] + rest[flip_at:]

        scores = _beam_scores(k)
        return CompletionResponse(tuple(
            Generation(text=p + close, gen_score=s)
            for p, s in zip(ordered, scores)
        ))


class UniformScoreBackend:
    """Every whitespace token scores log(1/vocab_size)."""

    def __init__(self, vocab_size: int = 50257):
        self.vocab_size = check_count(vocab_size, "vocab_size", 2)

    def score_tokens(self, text: str) -> TokenScoreResponse:
        logprob = -math.log(self.vocab_size)
        return TokenScoreResponse(tuple(
            TokenScore(token=tok, logprob=logprob) for tok in text.split()
        ))


class SentimentMaskBackend:
    """Word-list sentiment rule producing raw label likelihoods.

    Counts positive/negative lexicon words in the text (the bracketed part
    when the input is a cloze statement). More positive words give
    {positive: 0.9, negative: 0.1}, more negative words the reverse, and a
    tie gives 0.5/0.5. Labels outside the vocabulary, or containing
    whitespace, are rejected per-label.
    """

    KNOWN_LABELS = frozenset({"positive", "negative"})
    _CLOZE = re.compile(r"^The following text is .+?: \[(.*)\]\.$", re.DOTALL)

    def fill_mask(self, text: str, labels: list[str]) -> MaskFillResponse:
        label_errors = {}
        for label in labels:
            if not label.strip() or " " in label.strip():
                label_errors[label] = "label not single-token"
            elif label not in self.KNOWN_LABELS:
                label_errors[label] = "label not in backend vocabulary"
        if label_errors:
            raise LabelError(label_errors)

        match = self._CLOZE.match(text)
        inner = match.group(1) if match else text
        words = [w.lower() for w in re.findall(r"[A-Za-z']+", inner)]
        pos = sum(w in POSITIVE_WORDS for w in words)
        neg = sum(w in NEGATIVE_WORDS for w in words)
        if pos > neg:
            table = {"positive": 0.9, "negative": 0.1}
        elif neg > pos:
            table = {"positive": 0.1, "negative": 0.9}
        else:
            table = {"positive": 0.5, "negative": 0.5}
        return MaskFillResponse({label: table[label] for label in labels})


class HashEmbedBackend:
    """Unit embedding per token, seeded from a hash of the token string.

    Each token's vector is drawn once and kept, read-only, for the life of
    the instance; seeding a generator costs far more than the lookup. Two
    threads drawing the same token at once draw the same row.
    """

    def __init__(self, dim: int = 32):
        self.dim = check_count(dim, "dim", 2)
        self._rows: dict[str, np.ndarray] = {}

    def _vector(self, token: str) -> np.ndarray:
        vec = self._rows.get(token)
        if vec is None:
            # surrogatepass gives a lone surrogate bytes and changes no others.
            digest = hashlib.blake2b(token.encode("utf-8", "surrogatepass"),
                                     digest_size=8).digest()
            rng = np.random.default_rng(int.from_bytes(digest, "big"))
            vec = rng.standard_normal(self.dim)
            vec /= np.linalg.norm(vec)
            vec.flags.writeable = False
            self._rows[token] = vec
        return vec

    def embed_tokens(self, text: str) -> EmbeddingResponse:
        vectors = tuple(self._vector(tok) for tok in text.split())
        return EmbeddingResponse(vectors=vectors, dim=self.dim)


def _param(params: dict, name: str, default=None):
    values = params.get(name)
    return values[0] if values else default


@lru_cache(maxsize=None)
def resolve_mock_url(url: str):
    """Instantiate the mock named by a ``mock://`` URL (cached per URL)."""
    parts = urlsplit(url)
    name = parts.netloc
    params = parse_qs(parts.query)
    if name == "echo":
        return EchoCompletionBackend(canned=_param(params, "text"))
    if name == "lexicon-flip":
        return LexiconFlipBackend(plant=_param(params, "plant", "first"))
    if name == "uniform":
        return UniformScoreBackend(vocab_size=int(_param(params, "vocab", "50257")))
    if name == "sentiment":
        return SentimentMaskBackend()
    if name == "hash-embed":
        return HashEmbedBackend(dim=int(_param(params, "dim", "32")))
    raise ValueError(f"unknown mock backend {url!r}")


def mock_endpoints(plant: str = "first", **overrides):
    """A BackendEndpoints wired to the standard sentiment mock suite."""
    from .backends import BackendEndpoints

    fields = {
        "complete": f"mock://lexicon-flip?plant={plant}",
        "score": "mock://uniform?vocab=50257",
        "fill_mask": "mock://sentiment",
        "embed": "mock://hash-embed?dim=32",
    }
    fields.update(overrides)
    return BackendEndpoints(**fields)
