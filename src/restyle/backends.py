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
import re
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


# What http.client refuses in a request target: controls and the space.
_UNSAFE_TARGET = re.compile(r"[\x00-\x20\x7f]")

# The response reader's limits, those of http.client: the longest status,
# header, chunk-size or trailer line, and the most header or trailer fields.
_MAX_LINE = 65536
_MAX_FIELDS = 100
# The most body bytes asked for in one read, so that a declared length
# reserves no memory before its bytes arrive.
_READ_PIECE = 1 << 20
_HEX_DIGITS = b"0123456789abcdefABCDEF"


class _Connection:
    """One open socket and the one buffered reader over it."""

    __slots__ = ("sock", "rfile")

    def __init__(self, sock):
        self.sock = sock
        self.rfile = sock.makefile("rb")

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


def _read_line(rfile, what: str) -> bytes:
    line = rfile.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise http.client.LineTooLong(what)
    return line


def _read_fields(rfile, what: str) -> dict[str, str]:
    """Header or trailer fields up to the blank line that ends them, by
    lower-case name; a repeated name's values are joined with ", " and a
    folded line continues the field before it."""
    fields: dict[str, str] = {}
    name = None
    for _ in range(_MAX_FIELDS + 1):
        line = _read_line(rfile, f"{what} line")
        if line in (b"\r\n", b"\n"):
            return fields
        if not line:
            raise http.client.IncompleteRead(b"")
        text = line.decode("latin-1")
        if name is not None and text[0] in " \t":
            fields[name] += " " + text.strip()
            continue
        name, colon, value = text.partition(":")
        if not colon:
            raise http.client.HTTPException(f"malformed {what} line {text[:40]!r}")
        name, value = name.lower(), value.strip()
        fields[name] = f"{fields[name]}, {value}" if name in fields else value
    raise http.client.HTTPException(f"got more than {_MAX_FIELDS} {what}s")


def _read_head(rfile) -> tuple[int, bool, dict[str, str]]:
    """The status of the next final response, whether it is HTTP/1.0, and
    its header fields; 1xx interim responses are skipped. A peer that
    closed before the status line raises RemoteDisconnected."""
    while True:
        line = _read_line(rfile, "status line")
        if not line:
            raise http.client.RemoteDisconnected(
                "Remote end closed connection without response")
        parts = line.split(None, 2)
        if (len(parts) < 2 or not parts[0].startswith(b"HTTP/")
                or len(parts[1]) != 3 or not parts[1].isdigit()
                or parts[1] < b"100"):
            raise http.client.BadStatusLine(line.decode("latin-1"))
        if not parts[0].startswith(b"HTTP/1."):
            raise http.client.UnknownProtocol(parts[0].decode("latin-1"))
        fields = _read_fields(rfile, "header")
        status = int(parts[1])
        if status >= 200:
            return status, parts[0] == b"HTTP/1.0", fields


def _read_exact(rfile, size: int) -> bytes:
    pieces = []
    while size:
        piece = rfile.read(min(size, _READ_PIECE))
        if not piece:
            raise http.client.IncompleteRead(b"".join(pieces), size)
        pieces.append(piece)
        size -= len(piece)
    return b"".join(pieces)


def _read_chunked(rfile) -> bytes:
    pieces = []
    while True:
        line = _read_line(rfile, "chunk size")
        if not line:
            raise http.client.IncompleteRead(b"".join(pieces))
        size = line.split(b";", 1)[0].strip()
        if not size or size.lstrip(_HEX_DIGITS):
            raise http.client.HTTPException(f"bad chunk size line {line[:40]!r}")
        size = int(size, 16)
        if not size:
            _read_fields(rfile, "trailer")
            return b"".join(pieces)
        pieces.append(_read_exact(rfile, size))
        if _read_line(rfile, "chunk end") not in (b"\r\n", b"\n"):
            raise http.client.HTTPException("chunk data not followed by a line end")


def _read_body(rfile, status: int, http10: bool,
               fields: dict[str, str]) -> tuple[bytes, bool]:
    """The body of the response whose head was just read, and whether the
    connection stays open after it. A 204 or 304 has none; otherwise the
    body is chunked, ``Content-Length`` bytes, or all bytes to EOF."""
    tokens = {token.strip() for token in
              fields.get("connection", "").lower().split(",")}
    if http10:
        keep_open = "keep-alive" in tokens or "keep-alive" in fields
    else:
        keep_open = "close" not in tokens
    if status in (204, 304):
        return b"", keep_open
    if fields.get("transfer-encoding", "").lower() == "chunked":
        return _read_chunked(rfile), keep_open
    length = fields.get("content-length")
    if length is None:
        return rfile.read(), False
    if not (length.isascii() and length.isdigit()):
        raise http.client.HTTPException(f"bad Content-Length {length!r}")
    return _read_exact(rfile, int(length)), keep_open


class _HttpService:
    """POSTs JSON to one endpoint URL over pooled keep-alive connections.

    It is transport only: each 200 answer is decoded and handed to the
    endpoint's ``parse_*`` function (see :meth:`_call`).

    One client serves every call to its endpoint (see :func:`_service`).
    Idle connections wait in a lock-protected list; a round trip checks one
    out and returns it only after reading the whole response, and a
    connection whose round trip raised is closed instead. What the
    environment contributes (the proxy from ``getproxies``/``proxy_bypass``
    and the TLS context with the system CA store) is resolved once, here,
    and so is the request head.

    ``http.client`` opens each connection: TCP, the TLS handshake with its
    hostname check, and a proxy's ``CONNECT`` tunnel. The client then owns
    the socket: it writes each request, head and body, with one
    ``sendall`` and reads each response with the bounded reader above
    (:func:`_read_head`, :func:`_read_body`) from the one buffered reader
    the connection keeps.

    Socket errors and framing faults (``http.client.HTTPException``), such
    as a body cut off mid-read, and 429/502/503/504 answers are retried
    with exponential backoff; after the last attempt they surface as
    :class:`TransportError` and :class:`ServiceError` respectively, so
    corpus runs record them per example. A TLS certificate that fails to
    verify raises :class:`TransportError` at once. A 429 or 503 with a
    delta-seconds Retry-After header waits at least that long before the
    next attempt, but never longer than ``timeout``. A reused connection
    that the server closed while it was idle is replaced at once, with no
    sleep and no attempt spent.
    """

    def __init__(self, url: str, timeout: float, max_retries: int,
                 retry_backoff: float):
        self.url = url
        self.timeout = timeout
        self.max_retries = max(1, max_retries)
        self.backoff = retry_backoff
        self._lock = threading.Lock()
        self._idle: list[_Connection] = []

        parts = urllib.parse.urlsplit(url)
        if not parts.hostname:
            raise BackendError(f"endpoint URL {url!r} names no host")
        self._https = parts.scheme == "https"
        self._host, self._port = parts.hostname, parts.port
        self._context = ssl.create_default_context() if self._https else None
        target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        # The Host header, with the port only when it is not the scheme's.
        host = f"[{self._host.partition('%')[0]}]" if ":" in self._host else self._host
        if self._port not in (None, 443 if self._https else 80):
            host = f"{host}:{self._port}"
        headers = {"Content-Type": "application/json"}
        if parts.username is not None:
            headers["Authorization"] = _basic_auth(parts)

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
                # A plain-HTTP proxy takes the target in absolute form, and
                # the Host header its host and port as written.
                host = parts.netloc.rpartition("@")[2]
                target = f"http://{host}{target}"
                headers.update(proxy_headers)

        # The head http.client would write, in its order; the body's
        # length goes after Content-Length.
        if not target.isascii() or _UNSAFE_TARGET.search(target):
            raise BackendError(f"endpoint URL {url!r} has a space, a control "
                               "or a non-ASCII character in its path")
        try:
            host = host if host.isascii() else host.encode("idna").decode("ascii")
        except UnicodeError as exc:
            raise BackendError(f"endpoint URL {url!r} has an invalid host: "
                               f"{exc}") from None
        self._head = (f"POST {target} HTTP/1.1\r\nHost: {host}\r\n"
                      "Accept-Encoding: identity\r\nContent-Length: ").encode("ascii")
        self._head_end = "".join(
            f"\r\n{name}: {value}" for name, value in headers.items()
        ).encode("latin-1") + b"\r\n\r\n"

    def close(self) -> None:
        """Close the idle connections; the client stays usable."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _connect(self) -> _Connection:
        host, port = self._proxy or (self._host, self._port)
        if not self._https:
            conn = http.client.HTTPConnection(host, port, timeout=self.timeout)
        else:
            conn = http.client.HTTPSConnection(host, port, timeout=self.timeout,
                                               context=self._context)
            if self._proxy:
                conn.set_tunnel(self._host, self._port,
                                headers=self._tunnel_headers)
        try:
            conn.connect()
        except BaseException:
            conn.close()
            raise
        sock, conn.sock = conn.sock, None
        return _Connection(sock)

    def _exchange(self, conn: _Connection, data: bytes,
                  reused: bool) -> tuple[int, bytes, str | None]:
        try:
            try:
                conn.sock.sendall(b"%s%d%s%s" % (self._head, len(data),
                                                 self._head_end, data))
                status, http10, fields = _read_head(conn.rfile)
            except ConnectionError as exc:
                if reused:
                    raise _IdleConnectionClosed() from exc
                raise
            body, keep_open = _read_body(conn.rfile, status, http10, fields)
        except BaseException:
            conn.close()
            raise
        if keep_open:
            with self._lock:
                self._idle.append(conn)
        else:
            conn.close()
        return status, body, fields.get("retry-after")

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
