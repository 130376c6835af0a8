"""Hand-built backends for scoring scenarios whose answers a test fixes."""

import threading

import numpy as np

from restyle.backends import (
    BackendError,
    EmbeddingResponse,
    MaskFillResponse,
    TokenScore,
    TokenScoreResponse,
)


class StaticMaskBackend:
    """Fixed raw likelihood table; labels missing from it score 0."""

    def __init__(self, table: dict[str, float]):
        self.table = dict(table)

    def fill_mask(self, text: str, labels: list[str]) -> MaskFillResponse:
        return MaskFillResponse({label: self.table.get(label, 0.0)
                                 for label in labels})


class FixedEmbedBackend:
    """Embeds each whitespace token via an explicit token -> vector table."""

    def __init__(self, table: dict[str, tuple[float, ...]]):
        if not table:
            raise ValueError("embedding table must be non-empty")
        dims = {len(v) for v in table.values()}
        if len(dims) != 1:
            raise ValueError("all table vectors must share one dim")
        self.table = {k: np.array(v, dtype=np.float64) for k, v in table.items()}
        self.dim = dims.pop()

    def embed_tokens(self, text: str) -> EmbeddingResponse:
        try:
            rows = [self.table[tok] for tok in text.split()]
        except KeyError as exc:
            raise BackendError(f"token {exc.args[0]!r} not in embedding table")
        return EmbeddingResponse(vectors=rows, dim=self.dim)


class FactorTableBackend:
    """Answers /embed, /fill_mask and /score from tables keyed by the
    request text: each text embeds as the one row ``rows[text]``, gets the
    label likelihoods ``likelihoods[text]``, and scores one token per entry
    of ``logprobs[text]``. Every text asked about is appended to ``asked``
    as ``(endpoint, text)``."""

    def __init__(self, rows, likelihoods, logprobs):
        self.rows = rows
        self.likelihoods = likelihoods
        self.logprobs = logprobs
        self.asked = []

    def embed_tokens(self, text: str) -> EmbeddingResponse:
        self.asked.append(("embed", text))
        row = self.rows[text]
        return EmbeddingResponse(vectors=[row], dim=len(row))

    def fill_mask(self, text: str, labels: list[str]) -> MaskFillResponse:
        self.asked.append(("fill_mask", text))
        return MaskFillResponse({label: self.likelihoods[text][label]
                                 for label in labels})

    def score_tokens(self, text: str) -> TokenScoreResponse:
        self.asked.append(("score", text))
        return TokenScoreResponse(tuple(
            TokenScore(f"t{i}", logprob)
            for i, logprob in enumerate(self.logprobs[text])))


class Counted:
    """Front for one backend service that counts the requests it answers,
    appends its name to ``log`` before answering each one, and keeps the
    ``threading.get_ident()`` of every thread that asked in ``threads``."""

    def __init__(self, service, name, log):
        self.service = service
        self.name = name
        self.log = log
        self.calls = 0
        self.threads = set()

    def __getattr__(self, name):
        method = getattr(self.service, name)

        def counted(*args, **kwargs):
            self.calls += 1
            self.log.append(self.name)
            self.threads.add(threading.get_ident())
            return method(*args, **kwargs)

        return counted
