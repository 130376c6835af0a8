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

import atexit
import base64
import http.client
import json
import math
import os
import ssl
import threading
import time
import urllib.parse
import urllib.request
from dataclasses import dataclass

import numpy as np


class BackendError(Exception):
    """Base class for backend failures."""


class TransportError(BackendError):
    """Could not reach the service, no partial result; retried unless the
    service's TLS certificate failed to verify."""

    def __init__(self, message: str, attempts: int = 1, retryable: bool = True):
        super().__init__(message)
        self.attempts = attempts
        self.retryable = retryable


class ServiceError(BackendError):
    """The service answered with an error; retried only for 429/502/503/504."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status
        self.retryable = status in _TRANSIENT_STATUSES


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


_NUMBER_TYPES = (int, float, np.integer, np.floating)


def _require_number(value, what: str):
    """``value`` if it is a JSON number, or a NumPy number from an in-process
    backend. A string raises ValueError, as float() would; a bool, null or
    any other value raises TypeError."""
    if isinstance(value, _NUMBER_TYPES) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        raise ValueError(f"{what} must be a number, not the string {value!r}")
    raise TypeError(f"{what} must be a number, not {type(value).__name__}")


def _require_str(value, what: str) -> str:
    if not isinstance(value, str):
        raise TypeError(f"{what} must be a string, not {type(value).__name__}")
    return value


def _require_finite(value, what: str) -> float:
    value = float(_require_number(value, what))
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


# The response types own the wire contract's field rules: each checks every
# field it holds when built and keeps the converted value, so answers from
# HTTP, mock and direct-object backends all meet the same rules.

@dataclass(frozen=True)
class Generation:
    """One raw continuation with its length-normalized generator
    log-probability, a finite float."""

    text: str
    gen_score: float

    def __post_init__(self):
        _require_str(self.text, "text")
        object.__setattr__(self, "gen_score",
                           _require_finite(self.gen_score, "gen_score"))


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
    """One token and its conditional log-probability, a finite float <= 0."""

    token: str
    logprob: float

    def __post_init__(self):
        lp = _require_finite(self.logprob, "logprob")
        if lp > 0:
            raise ValueError(f"logprob must be <= 0, got {lp}")
        _require_str(self.token, "token")
        object.__setattr__(self, "logprob", lp)


@dataclass(frozen=True)
class TokenScoreResponse:
    tokens: tuple[TokenScore, ...]

    def __post_init__(self):
        # Scored texts are never empty, and an empty list would read as
        # log-probability 0, the most fluent text possible.
        if not self.tokens:
            raise ValueError("token score response has no tokens")

    @property
    def total_logprob(self) -> float:
        return sum(t.logprob for t in self.tokens)


@dataclass(frozen=True)
class MaskFillResponse:
    """Raw (unnormalized) likelihoods per candidate label, finite floats >= 0."""

    scores: dict[str, float]

    def __post_init__(self):
        if not isinstance(self.scores, dict):
            raise TypeError("scores must be an object of label likelihoods")
        scores = {}
        for label, value in self.scores.items():
            value = _require_finite(value, f"score for label {label!r}")
            if value < 0:
                raise ValueError(f"raw likelihood for {label!r} must be >= 0")
            scores[_require_str(label, "label")] = value
        object.__setattr__(self, "scores", scores)


@dataclass(frozen=True, eq=False)
class EmbeddingResponse:
    """One contextual vector per token of the input text.

    ``vectors`` may be any nested sequence of numbers; it is held as a
    read-only ``(tokens, dim)`` float64 array, built and checked once here,
    and ``dim``, an integral number, as an int. Numbers are checked by the
    array's dtype, so a row mixing bools and numbers reads the bools as 0/1.
    """

    vectors: np.ndarray
    dim: int

    def __post_init__(self):
        dim = int(_require_number(self.dim, "dim"))
        if dim != self.dim:
            raise ValueError(f"dim must be an integer, got {self.dim!r}")
        if dim < 1:
            raise ValueError("dim must be positive")
        mat = np.array(self.vectors)
        if not mat.size:
            raise ValueError("embedding response has no vectors")
        if mat.ndim != 2:
            raise ValueError("embedding vectors must form a (tokens, dim) "
                             f"matrix, got shape {mat.shape}")
        if mat.dtype.kind not in "iufO":
            raise TypeError(f"embedding vectors must be numbers, got {mat.dtype}")
        # An object array holds nulls, integers beyond int64 or non-scalars,
        # so only its components are checked one by one. The float64
        # conversion reads a null as NaN, which the finite check below
        # rejects; every other component must be a number.
        if mat.dtype.kind == "O":
            for value in mat.flat:
                if value is not None:
                    _require_number(value, "embedding component")
        mat = mat.astype(np.float64, copy=False)
        if mat.shape[1] != dim:
            raise ValueError(
                f"vectors have {mat.shape[1]} components, not dim={dim}")
        if not np.isfinite(mat).all():
            raise ValueError("non-finite component in embedding response")
        if not mat.any(axis=1).all():
            raise ValueError("zero vector in embedding response")
        mat.flags.writeable = False
        object.__setattr__(self, "vectors", mat)
        object.__setattr__(self, "dim", dim)

    def __eq__(self, other):
        if not isinstance(other, EmbeddingResponse):
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self.vectors, other.vectors)


# The wire parsers reshape a decoded 200 body into its response type. A body
# that breaks the contract raises KeyError, TypeError, ValueError or
# OverflowError; /fill_mask label errors raise LabelError.

def parse_completion(body: dict) -> CompletionResponse:
    """A ``/complete`` body: ``{"candidates": [{"text", "gen_score"}, ...]}``."""
    return CompletionResponse(tuple(Generation(c["text"], c["gen_score"])
                                    for c in body["candidates"]))


def parse_token_scores(body: dict) -> TokenScoreResponse:
    """A ``/score`` body: ``{"tokens": [{"token", "logprob"}, ...]}``."""
    return TokenScoreResponse(tuple(TokenScore(t["token"], t["logprob"])
                                    for t in body["tokens"]))


def parse_mask_fill(body: dict) -> MaskFillResponse:
    """A ``/fill_mask`` body: ``{"scores": {label: likelihood}}``, or a
    non-empty ``label_errors`` object raised as :class:`LabelError`."""
    label_errors = body.get("label_errors")
    if label_errors is not None and not isinstance(label_errors, dict):
        raise TypeError("label_errors is not an object")
    if label_errors:
        raise LabelError({str(k): str(v) for k, v in label_errors.items()})
    return MaskFillResponse(body["scores"])


def parse_embedding(body: dict) -> EmbeddingResponse:
    """An ``/embed`` body: ``{"dim": N, "vectors": [[...], ...]}``."""
    return EmbeddingResponse(vectors=body["vectors"], dim=body["dim"])


_ENV_PREFIX = "RESTYLE"
# The service endpoints: the fields read from RESTYLE_<NAME>_URL and shown
# in a run manifest's snapshot.
_SERVICES = ("complete", "score", "fill_mask", "embed", "classifier")


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
            **{name: get(f"{name.upper()}_URL") for name in _SERVICES},
            mask_token=get("MASK_TOKEN", cls.mask_token),
            timeout=float(get("TIMEOUT", cls.timeout)),
            max_retries=int(get("MAX_RETRIES", cls.max_retries)),
            retry_backoff=float(get("RETRY_BACKOFF", cls.retry_backoff)),
        )

    def snapshot(self) -> dict:
        """URL-level view of the configuration, for run manifests."""

        def show(value):
            if value is None or isinstance(value, str):
                return value
            return f"object:{type(value).__name__}"

        return {
            **{name: show(getattr(self, name)) for name in _SERVICES},
            "mask_token": self.mask_token,
            "timeout": self.timeout,
            "max_retries": self.max_retries,
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "BackendEndpoints":
        """Endpoints rebuilt from a :meth:`snapshot`: an ``object:<Class>``
        endpoint stays unset, numbers convert as in :meth:`from_env`, and an
        absent key takes its default, as ``retry_backoff`` (never stored,
        since it changes no output) always does."""

        def url(name):
            value = snapshot.get(name)
            if isinstance(value, str) and not value.startswith("object:"):
                return value
            return None

        return cls(
            **{name: url(name) for name in _SERVICES},
            mask_token=snapshot.get("mask_token", cls.mask_token),
            timeout=float(snapshot.get("timeout", cls.timeout)),
            max_retries=int(snapshot.get("max_retries", cls.max_retries)),
        )


# Statuses of a service that is overloaded or restarting: retried like
# transport failures, within the same attempt budget and backoff.
_TRANSIENT_STATUSES = frozenset({429, 502, 503, 504})
# The transient statuses whose Retry-After header sets a floor on the next
# backoff sleep.
_RETRY_AFTER_STATUSES = frozenset({429, 503})


class _IdleConnectionClosed(Exception):
    """A reused connection failed before any response byte arrived."""


def _delta_seconds(retry_after: str | None) -> float:
    """A Retry-After header in its delta-seconds form, else 0; an HTTP date
    is not read."""
    value = (retry_after or "").strip()
    return float(value) if value.isascii() and value.isdigit() else 0.0


def _basic_auth(parts: urllib.parse.SplitResult) -> str:
    user = urllib.parse.unquote(parts.username or "")
    password = urllib.parse.unquote(parts.password or "")
    token = base64.b64encode(f"{user}:{password}".encode("utf-8")).decode("ascii")
    return f"Basic {token}"


class _HttpService:
    """POSTs JSON to one endpoint URL over pooled keep-alive connections.

    It is transport only: each 200 answer is decoded and handed to the
    endpoint's ``parse_*`` function (see :meth:`_call`).

    One client serves every call to its endpoint (see :func:`_service`).
    Idle connections wait in a lock-protected list; a round trip checks one
    out and returns it only after reading the whole response, and a
    connection whose round trip raised is closed instead. What the
    environment contributes (the proxy from ``getproxies``/``proxy_bypass``
    and the TLS context with the system CA store) is resolved once, here.

    Socket and ``http.client`` errors, such as a body cut off mid-read, and
    429/502/503/504 answers are retried with exponential backoff; after the
    last attempt they surface as :class:`TransportError` and
    :class:`ServiceError` respectively, so corpus runs record them per
    example. A TLS certificate that fails to verify raises
    :class:`TransportError` at once. A 429 or 503 with a delta-seconds
    Retry-After header waits at least that long before the next attempt,
    but never longer than ``timeout``. A reused connection that the server
    closed while it was idle is replaced at once, with no sleep and no
    attempt spent.
    """

    def __init__(self, url: str, timeout: float, max_retries: int,
                 retry_backoff: float):
        self.url = url
        self.timeout = timeout
        self.max_retries = max(1, max_retries)
        self.backoff = retry_backoff
        self._lock = threading.Lock()
        self._idle: list[http.client.HTTPConnection] = []

        parts = urllib.parse.urlsplit(url)
        if not parts.hostname:
            raise BackendError(f"endpoint URL {url!r} names no host")
        self._https = parts.scheme == "https"
        self._host, self._port = parts.hostname, parts.port
        self._context = ssl.create_default_context() if self._https else None
        self._target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        self._headers = {"Content-Type": "application/json"}
        if parts.username is not None:
            self._headers["Authorization"] = _basic_auth(parts)

        self._proxy = None
        self._tunnel_headers = {}
        proxy = urllib.request.getproxies().get(parts.scheme)
        if proxy and not urllib.request.proxy_bypass(self._host):
            proxy_parts = urllib.parse.urlsplit(
                proxy if "://" in proxy else f"http://{proxy}")
            self._proxy = (proxy_parts.hostname, proxy_parts.port)
            proxy_headers = ({"Proxy-Authorization": _basic_auth(proxy_parts)}
                             if proxy_parts.username is not None else {})
            if self._https:
                self._tunnel_headers = proxy_headers
            else:
                # A plain-HTTP proxy takes the target in absolute form.
                netloc = parts.netloc.rpartition("@")[2]
                self._target = f"http://{netloc}{self._target}"
                self._headers.update(proxy_headers)

    def close(self) -> None:
        """Close the idle connections; the client stays usable."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _connect(self) -> http.client.HTTPConnection:
        host, port = self._proxy or (self._host, self._port)
        if not self._https:
            return http.client.HTTPConnection(host, port, timeout=self.timeout)
        conn = http.client.HTTPSConnection(host, port, timeout=self.timeout,
                                           context=self._context)
        if self._proxy:
            conn.set_tunnel(self._host, self._port, headers=self._tunnel_headers)
        return conn

    def _exchange(self, conn: http.client.HTTPConnection, data: bytes,
                  reused: bool) -> tuple[int, bytes, str | None]:
        try:
            try:
                conn.request("POST", self._target, data, self._headers)
                resp = conn.getresponse()
            except ConnectionError as exc:
                if reused:
                    raise _IdleConnectionClosed() from exc
                raise
            body = resp.read()
        except BaseException:
            conn.close()
            raise
        if resp.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.append(conn)
        return resp.status, body, resp.getheader("Retry-After")

    def _round_trip(self, data: bytes) -> tuple[int, bytes, str | None]:
        """POST ``data`` once; the status, the whole response body and the
        Retry-After header, if any."""
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        if conn is not None:
            try:
                return self._exchange(conn, data, reused=True)
            except _IdleConnectionClosed:
                pass
        return self._exchange(self._connect(), data, reused=False)

    def _post(self, payload: dict) -> bytes:
        data = json.dumps(payload, allow_nan=False).encode("utf-8")
        wait = 0.0
        for attempt in range(1, self.max_retries + 1):
            if attempt > 1:
                time.sleep(max(self.backoff * (2 ** (attempt - 2)), wait))
            wait = 0.0
            try:
                status, raw, retry_after = self._round_trip(data)
            except ssl.SSLCertVerificationError as exc:
                # Every attempt would fail the same way.
                raise TransportError(
                    f"could not verify the TLS certificate of {self.url}: {exc}",
                    attempts=attempt, retryable=False) from exc
            except (OSError, http.client.HTTPException) as exc:
                failure = exc
                continue
            if status in _TRANSIENT_STATUSES:
                failure = None
                if status in _RETRY_AFTER_STATUSES:
                    wait = min(_delta_seconds(retry_after), self.timeout)
                continue
            if status != 200:
                raise ServiceError(
                    f"{self.url} answered {status}: {raw[:200].decode('utf-8', 'replace')}",
                    status=status,
                )
            return raw
        if failure is None:
            raise ServiceError(
                f"{self.url} answered {status} on all {self.max_retries} attempts: "
                f"{raw[:200].decode('utf-8', 'replace')}",
                status=status,
            )
        raise TransportError(
            f"could not reach {self.url} after {self.max_retries} attempts: "
            f"{failure!r}",
            attempts=self.max_retries,
        )

    def _call(self, payload: dict, parse):
        """POST ``payload`` and ``parse`` the JSON object answered: an
        ``{"error"}`` body raises ServiceError, and an invalid or
        unparsable one MalformedResponseError."""
        raw = self._post(payload)
        try:
            body = json.loads(raw)
        except (ValueError, RecursionError) as exc:
            raise MalformedResponseError(
                f"{self.url} returned invalid JSON: {exc}"
            ) from exc
        if not isinstance(body, dict):
            raise MalformedResponseError(f"{self.url} returned a non-object body")
        if "error" in body:
            raise ServiceError(f"{self.url} reported: {body['error']}")
        try:
            return parse(body)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MalformedResponseError(
                f"{self.url} violated the wire contract: {exc}"
            ) from exc

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        return self._call(req.to_wire(), parse_completion)

    def score_tokens(self, text: str) -> TokenScoreResponse:
        return self._call({"text": text}, parse_token_scores)

    def fill_mask(self, text: str, labels: list[str]) -> MaskFillResponse:
        return self._call({"text": text, "labels": list(labels)}, parse_mask_fill)

    def embed_tokens(self, text: str) -> EmbeddingResponse:
        return self._call({"text": text}, parse_embedding)


# One client, and so one connection pool, per endpoint setting. Clients live
# for the process, so connections kept alive by one corpus run serve the next.
_clients: dict[tuple, _HttpService] = {}
_clients_lock = threading.Lock()


def _http_client(url: str, endpoints: BackendEndpoints) -> _HttpService:
    key = (url, endpoints.timeout, endpoints.max_retries, endpoints.retry_backoff)
    with _clients_lock:
        client = _clients.get(key)
        if client is None:
            client = _clients[key] = _HttpService(*key)
        return client


@atexit.register
def _close_clients() -> None:
    with _clients_lock:
        for client in _clients.values():
            client.close()


def _service(endpoint: object | str | None, endpoints: BackendEndpoints, what: str):
    if endpoint is None:
        raise BackendError(f"no {what} endpoint configured")
    if isinstance(endpoint, str):
        if endpoint.startswith("mock://"):
            from . import mocks

            return mocks.resolve_mock_url(endpoint)
        if endpoint.startswith(("http://", "https://")):
            return _http_client(endpoint, endpoints)
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


def _label_likelihoods(endpoints: BackendEndpoints, endpoint, what: str,
                       text: str, labels: list[str]) -> MaskFillResponse:
    """Raw likelihoods of two or more distinct labels from a /fill_mask-shaped
    service, which must score exactly the labels asked for."""
    if len(set(labels)) < 2:
        raise ValueError(f"{what} needs at least 2 distinct labels")
    resp = _service(endpoint, endpoints, what).fill_mask(text, list(labels))
    if set(resp.scores) != set(labels):
        raise MalformedResponseError(
            f"{what} response labels do not match the requested set")
    return resp


def fill_mask(endpoints: BackendEndpoints, cloze: str,
              labels: list[str]) -> MaskFillResponse:
    """Raw likelihoods of each label at the mask position of a cloze statement."""
    if cloze.count(endpoints.mask_token) != 1:
        raise ValueError(
            f"cloze must contain exactly one {endpoints.mask_token!r} token"
        )
    return _label_likelihoods(endpoints, endpoints.fill_mask, "mask filling",
                              cloze, labels)


def classify(endpoints: BackendEndpoints, text: str,
             labels: list[str]) -> MaskFillResponse:
    """Label likelihoods for plain text from a /fill_mask-shaped classifier.

    Uses the dedicated classifier endpoint when configured, otherwise the
    mask-fill service. No cloze wrapping or mask-token check is applied.
    """
    if not text.strip():
        raise ValueError("text to classify must be non-empty")
    endpoint = endpoints.classifier if endpoints.classifier is not None else endpoints.fill_mask
    return _label_likelihoods(endpoints, endpoint, "classifier", text, labels)


def embed_tokens(endpoints: BackendEndpoints, text: str) -> EmbeddingResponse:
    """One contextual embedding vector per token of ``text``."""
    if not text.strip():
        raise ValueError("text to embed must be non-empty")
    return _service(endpoints.embed, endpoints, "embedding").embed_tokens(text)
