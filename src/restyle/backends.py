"""Wire contract to external model services.

Four services are used: completion (candidate generation), token scoring
(per-token log-probabilities), mask filling (cloze label likelihoods), and
token embeddings. The wire protocol is a small JSON-over-HTTP contract, not
any vendor's API; see README for the endpoint shapes and a mapping guide.

Endpoint addresses may be:

* ``http(s)://...`` URLs, called with POST + JSON bodies,
* ``mock://<name>`` URLs resolving to the deterministic in-process mocks in
  :mod:`restyle.mocks`,
* or direct objects implementing the corresponding service method, for tests.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

import requests


class BackendError(Exception):
    """Base class for backend failures."""


class TransportError(BackendError):
    """Could not reach the service; retried, no partial result."""

    def __init__(self, message: str, attempts: int = 1):
        super().__init__(message)
        self.attempts = attempts
        self.retryable = True


class ServiceError(BackendError):
    """The service answered with an error; not retried."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status
        self.retryable = False


class MalformedResponseError(BackendError):
    """The service answered 200 but the body violates the wire contract."""

    def __init__(self, message: str):
        super().__init__(message)
        self.retryable = False


class LabelError(BackendError):
    """Per-label failures from a mask-fill or classifier service."""

    def __init__(self, label_errors: dict[str, str]):
        details = "; ".join(f"{k}: {v}" for k, v in sorted(label_errors.items()))
        super().__init__(f"label errors: {details}")
        self.label_errors = label_errors
        self.retryable = False


def _require_finite(value, what: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return value


@dataclass(frozen=True)
class DecodeConfig:
    """Decoding strategy for candidate generation."""

    mode: str = "beam"  # "beam" or "sample"
    beam_width: int | None = None  # defaults to num_candidates when unset
    temperature: float = 1.0

    def __post_init__(self):
        if self.mode not in ("beam", "sample"):
            raise ValueError(f"decode mode must be 'beam' or 'sample', got {self.mode!r}")

    def to_wire(self, num_candidates: int) -> dict:
        width = self.beam_width if self.beam_width is not None else num_candidates
        return {"mode": self.mode, "beam_width": width,
                "temperature": self.temperature}


@dataclass(frozen=True)
class CompletionRequest:
    prompt: str
    max_new_tokens: int = 128
    num_candidates: int = 1
    stop: str | None = None
    seed: int | None = None
    decode: DecodeConfig = DecodeConfig()

    def __post_init__(self):
        if self.num_candidates < 1:
            raise ValueError("num_candidates must be >= 1")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")

    def to_wire(self) -> dict:
        return {
            "prompt": self.prompt,
            "max_new_tokens": self.max_new_tokens,
            "num_candidates": self.num_candidates,
            "stop": self.stop,
            "seed": self.seed,
            "decode": self.decode.to_wire(self.num_candidates),
        }


@dataclass(frozen=True)
class Generation:
    """One raw continuation with its length-normalized generator log-probability."""

    text: str
    gen_score: float


@dataclass(frozen=True)
class CompletionResponse:
    candidates: tuple[Generation, ...]

    def __post_init__(self):
        if not self.candidates:
            raise ValueError("completion response must contain >= 1 candidate")
        scores = [c.gen_score for c in self.candidates]
        if any(scores[i] < scores[i + 1] for i in range(len(scores) - 1)):
            raise ValueError("candidates must be ordered by gen_score descending")


@dataclass(frozen=True)
class TokenScore:
    token: str
    logprob: float

    def __post_init__(self):
        lp = _require_finite(self.logprob, "logprob")
        if lp > 0:
            raise ValueError(f"logprob must be <= 0, got {lp}")


@dataclass(frozen=True)
class TokenScoreResponse:
    tokens: tuple[TokenScore, ...]

    @property
    def total_logprob(self) -> float:
        return sum(t.logprob for t in self.tokens)


@dataclass(frozen=True)
class MaskFillResponse:
    """Raw (unnormalized) likelihoods per candidate label."""

    scores: dict[str, float]

    def __post_init__(self):
        for label, value in self.scores.items():
            value = _require_finite(value, f"score for label {label!r}")
            if value < 0:
                raise ValueError(f"raw likelihood for {label!r} must be >= 0")


@dataclass(frozen=True)
class EmbeddingResponse:
    """One contextual vector per token of the input text."""

    vectors: tuple[tuple[float, ...], ...]
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        for vec in self.vectors:
            if len(vec) != self.dim:
                raise ValueError("all vectors must share dim")
            if not any(v != 0.0 for v in vec):
                raise ValueError("zero vector in embedding response")


_ENV_PREFIX = "RESTYLE"


@dataclass(frozen=True)
class BackendEndpoints:
    """Service addresses plus the protocol configuration shared by all calls.

    ``classifier`` is an optional /fill_mask-shaped endpoint used when style
    strength comes from a trained classifier instead of the masked-LM cloze.
    """

    complete: object | str | None = None
    score: object | str | None = None
    fill_mask: object | str | None = None
    embed: object | str | None = None
    classifier: object | str | None = None
    mask_token: str = "<mask>"
    timeout: float = 30.0
    max_retries: int = 3
    retry_backoff: float = 0.25

    @classmethod
    def from_env(cls, env: dict[str, str] | None = None) -> "BackendEndpoints":
        """Build endpoints from RESTYLE_*_URL (and related) variables."""
        env = os.environ if env is None else env

        def get(name, default=None):
            return env.get(f"{_ENV_PREFIX}_{name}", default)

        return cls(
            complete=get("COMPLETE_URL"),
            score=get("SCORE_URL"),
            fill_mask=get("FILL_MASK_URL"),
            embed=get("EMBED_URL"),
            classifier=get("CLASSIFIER_URL"),
            mask_token=get("MASK_TOKEN", "<mask>"),
            timeout=float(get("TIMEOUT", "30")),
            max_retries=int(get("MAX_RETRIES", "3")),
            retry_backoff=float(get("RETRY_BACKOFF", "0.25")),
        )

    def snapshot(self) -> dict:
        """URL-level view of the configuration, for run manifests."""

        def show(value):
            if value is None or isinstance(value, str):
                return value
            return f"object:{type(value).__name__}"

        return {
            "complete": show(self.complete),
            "score": show(self.score),
            "fill_mask": show(self.fill_mask),
            "embed": show(self.embed),
            "classifier": show(self.classifier),
            "mask_token": self.mask_token,
            "timeout": self.timeout,
            "max_retries": self.max_retries,
        }


class _HttpService:
    """POSTs JSON to one endpoint URL, retrying transport failures.

    Any ``requests`` exception raised while sending or reading the response,
    such as a body cut off mid-read, is a transport failure; after the last
    attempt it surfaces as :class:`TransportError`, so corpus runs record it
    per example.
    """

    def __init__(self, url: str, endpoints: BackendEndpoints):
        self.url = url
        self.timeout = endpoints.timeout
        self.max_retries = max(1, endpoints.max_retries)
        self.backoff = endpoints.retry_backoff

    def _post(self, payload: dict) -> dict:
        last_exc: Exception | None = None
        for attempt in range(1, self.max_retries + 1):
            try:
                resp = requests.post(self.url, json=payload, timeout=self.timeout)
            except requests.RequestException as exc:
                last_exc = exc
                if attempt < self.max_retries:
                    time.sleep(self.backoff * (2 ** (attempt - 1)))
                continue
            if resp.status_code != 200:
                raise ServiceError(
                    f"{self.url} answered {resp.status_code}: {resp.text[:200]}",
                    status=resp.status_code,
                )
            try:
                body = resp.json()
            except ValueError as exc:
                raise MalformedResponseError(
                    f"{self.url} returned invalid JSON: {exc}"
                ) from exc
            if not isinstance(body, dict):
                raise MalformedResponseError(f"{self.url} returned a non-object body")
            if "error" in body:
                raise ServiceError(f"{self.url} reported: {body['error']}")
            return body
        raise TransportError(
            f"could not reach {self.url} after {self.max_retries} attempts: {last_exc}",
            attempts=self.max_retries,
        )

    def _parse(self, builder, body: dict):
        try:
            return builder(body)
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedResponseError(
                f"{self.url} violated the wire contract: {exc}"
            ) from exc

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        body = self._post(req.to_wire())
        return self._parse(
            lambda b: CompletionResponse(tuple(
                Generation(text=str(c["text"]),
                           gen_score=_require_finite(c["gen_score"], "gen_score"))
                for c in b["candidates"]
            )),
            body,
        )

    def score_tokens(self, text: str) -> TokenScoreResponse:
        body = self._post({"text": text})
        return self._parse(
            lambda b: TokenScoreResponse(tuple(
                TokenScore(token=str(t["token"]), logprob=t["logprob"])
                for t in b["tokens"]
            )),
            body,
        )

    def fill_mask(self, text: str, labels: list[str]) -> MaskFillResponse:
        body = self._post({"text": text, "labels": list(labels)})
        if body.get("label_errors"):
            raise LabelError({str(k): str(v) for k, v in body["label_errors"].items()})
        return self._parse(
            lambda b: MaskFillResponse({str(k): float(v)
                                        for k, v in b["scores"].items()}),
            body,
        )

    def embed_tokens(self, text: str) -> EmbeddingResponse:
        body = self._post({"text": text})
        return self._parse(
            lambda b: EmbeddingResponse(
                vectors=tuple(tuple(float(v) for v in vec) for vec in b["vectors"]),
                dim=int(b["dim"]),
            ),
            body,
        )


def _service(endpoint: object | str | None, endpoints: BackendEndpoints, what: str):
    if endpoint is None:
        raise BackendError(f"no {what} endpoint configured")
    if isinstance(endpoint, str):
        if endpoint.startswith("mock://"):
            from . import mocks

            return mocks.resolve_mock_url(endpoint)
        if endpoint.startswith(("http://", "https://")):
            return _HttpService(endpoint, endpoints)
        raise BackendError(f"unsupported endpoint URL {endpoint!r}")
    return endpoint


def complete(endpoints: BackendEndpoints, req: CompletionRequest) -> CompletionResponse:
    """Request ``req.num_candidates`` continuations of the prompt.

    The service may or may not honor ``stop``; callers always re-apply
    completion extraction themselves.
    """
    return _service(endpoints.complete, endpoints, "completion").complete(req)


def score_tokens(endpoints: BackendEndpoints, text: str) -> TokenScoreResponse:
    """Per-token conditional log-probabilities of ``text`` under the fluency model."""
    if not text.strip():
        raise ValueError("text to score must be non-empty")
    return _service(endpoints.score, endpoints, "token scoring").score_tokens(text)


def fill_mask(endpoints: BackendEndpoints, cloze: str,
              labels: list[str]) -> MaskFillResponse:
    """Raw likelihoods of each label at the mask position of a cloze statement."""
    if cloze.count(endpoints.mask_token) != 1:
        raise ValueError(
            f"cloze must contain exactly one {endpoints.mask_token!r} token"
        )
    if len(set(labels)) < 2:
        raise ValueError("fill_mask needs at least 2 distinct labels")
    resp = _service(endpoints.fill_mask, endpoints, "mask filling").fill_mask(
        cloze, list(labels))
    if set(resp.scores) != set(labels):
        raise MalformedResponseError(
            "mask-fill response labels do not match the requested set"
        )
    return resp


def classify(endpoints: BackendEndpoints, text: str,
             labels: list[str]) -> MaskFillResponse:
    """Label likelihoods for plain text from a /fill_mask-shaped classifier.

    Uses the dedicated classifier endpoint when configured, otherwise the
    mask-fill service. No cloze wrapping or mask-token check is applied.
    """
    if not text.strip():
        raise ValueError("text to classify must be non-empty")
    if len(set(labels)) < 2:
        raise ValueError("classify needs at least 2 distinct labels")
    endpoint = endpoints.classifier if endpoints.classifier is not None else endpoints.fill_mask
    resp = _service(endpoint, endpoints, "classifier").fill_mask(text, list(labels))
    if set(resp.scores) != set(labels):
        raise MalformedResponseError(
            "classifier response labels do not match the requested set"
        )
    return resp


def embed_tokens(endpoints: BackendEndpoints, text: str) -> EmbeddingResponse:
    """One contextual embedding vector per token of ``text``."""
    if not text.strip():
        raise ValueError("text to embed must be non-empty")
    return _service(endpoints.embed, endpoints, "embedding").embed_tokens(text)
