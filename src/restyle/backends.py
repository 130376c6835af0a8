"""Wire contract to external model services.

Five services are used, each through one call function here: completion,
token scoring, mask filling (cloze label likelihoods), token embeddings and
an optional classifier; each runs the :class:`Call` its ``*_call`` twin
builds. The wire protocol is a small JSON-over-HTTP contract, not any
vendor's API; see README for the endpoint shapes and a mapping guide. Its
one definition is here: each response type's ``to_wire`` writes the body its
``parse_*`` reads, :class:`CompletionRequest` writes and reads its own, and
the HTTP client is transport only.

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
from dataclasses import dataclass, field

import numpy as np


class BackendError(Exception):
    """Base class for backend failures."""


class TransportError(BackendError):
    """Could not reach the service, no partial result; retried unless the
    service's TLS certificate failed to verify."""

    def __init__(self, message: str, attempts: int = 1):
        super().__init__(message)
        self.attempts = attempts


class ServiceError(BackendError):
    """The service answered with an error; retried only for 429/502/503/504."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class MalformedResponseError(BackendError):
    """The service answered 200 but the body violates the wire contract."""


class LabelError(BackendError):
    """Per-label failures from a mask-fill or classifier service."""

    def __init__(self, label_errors: dict[str, str]):
        details = "; ".join(f"{k}: {v}" for k, v in sorted(label_errors.items()))
        super().__init__(f"label errors: {details}")
        self.label_errors = label_errors

    def to_wire(self) -> dict:
        return {"label_errors": dict(self.label_errors)}


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


def check_count(value, what: str, minimum: int = 1) -> int:
    """``value`` if it is an integer >= ``minimum``. A bool is not a count,
    though Python treats it as an int: ``k=True`` would reach the wire and
    the manifest as ``true``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{what} must be >= {minimum}, got {value!r}")
    return value


def check_seed(value) -> int | None:
    """``value`` if it is an int, negative ones included, or None; anything
    else raises ValueError. A bool would give ``seed=True`` a run id of its
    own, and a NumPy integer cannot go into the run id's JSON."""
    if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
        raise ValueError(f"seed must be an integer or None, got {value!r}")
    return value


def check_real(value, what: str, low: float = -math.inf, high: float = math.inf,
               open_low: bool = False) -> float:
    """``value`` as a float if it is a JSON or NumPy number, finite and in
    ``[low, high]`` (``(low, high]`` with ``open_low``). A string, or a
    non-finite or out-of-range number, raises ValueError; a bool, null or
    any other value raises TypeError."""
    try:
        value = float(_require_number(value, what))
    except OverflowError:  # an integer beyond the float range
        value = math.inf if value > 0 else -math.inf
    if not math.isfinite(value):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    if value > high or (value <= low if open_low else value < low):
        raise ValueError(f"{what} must be in {'(' if open_low else '['}{low:g}, "
                         f"{high:g}], got {value!r}")
    return value


@dataclass(frozen=True)
class DecodeConfig:
    """Decoding strategy for candidate generation: a mode from ``MODES``, a
    beam width count (or None), and a temperature >= 0, held as a float so
    that equal settings give equal run ids."""

    MODES = ("beam", "sample")

    mode: str = "beam"
    beam_width: int | None = None  # defaults to num_candidates when unset
    temperature: float = 1.0

    def __post_init__(self):
        if self.mode not in self.MODES:
            raise ValueError(f"decode mode must be one of {self.MODES}, got {self.mode!r}")
        if self.beam_width is not None:
            check_count(self.beam_width, "beam_width")
        object.__setattr__(self, "temperature",
                           check_real(self.temperature, "temperature", 0.0))

    def width(self, num_candidates: int) -> int:
        """The beam width of a request for ``num_candidates`` candidates:
        ``beam_width``, or the candidate count when unset. In beam mode a
        width below the count raises ValueError, as a beam search returns at
        most its width of sequences."""
        if self.beam_width is None:
            return num_candidates
        if self.mode == "beam" and self.beam_width < num_candidates:
            raise ValueError(f"beam_width must be >= the {num_candidates} "
                             f"candidates asked for, got {self.beam_width}")
        return self.beam_width

    def to_wire(self, num_candidates: int) -> dict:
        return {"mode": self.mode, "beam_width": self.width(num_candidates),
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
        _require_str(self.prompt, "prompt")
        if self.stop is not None:
            _require_str(self.stop, "stop")
        check_count(self.num_candidates, "num_candidates")
        check_count(self.max_new_tokens, "max_new_tokens")
        check_seed(self.seed)
        self.decode.width(self.num_candidates)

    @classmethod
    def from_wire(cls, body: dict) -> "CompletionRequest":
        """The request whose :meth:`to_wire` is ``body``; an unset beam width
        reads back as the one the body carries."""
        decode = body["decode"]
        return cls(body["prompt"], body["max_new_tokens"], body["num_candidates"],
                   body["stop"], body["seed"],
                   DecodeConfig(decode["mode"], decode["beam_width"],
                                decode["temperature"]))

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
        object.__setattr__(self, "gen_score", check_real(self.gen_score, "gen_score"))


@dataclass(frozen=True)
class CompletionResponse:
    candidates: tuple[Generation, ...]

    def __post_init__(self):
        if not self.candidates:
            raise ValueError("completion response must contain >= 1 candidate")
        scores = [c.gen_score for c in self.candidates]
        if any(scores[i] < scores[i + 1] for i in range(len(scores) - 1)):
            raise ValueError("candidates must be ordered by gen_score descending")

    def to_wire(self) -> dict:
        return {"candidates": [{"text": c.text, "gen_score": c.gen_score}
                               for c in self.candidates]}


@dataclass(frozen=True)
class TokenScore:
    """One token and its conditional log-probability, a finite float <= 0."""

    token: str
    logprob: float

    def __post_init__(self):
        object.__setattr__(self, "logprob",
                           check_real(self.logprob, "logprob", high=0.0))
        _require_str(self.token, "token")


@dataclass(frozen=True)
class TokenScoreResponse:
    """The scored tokens of one text and their log-probabilities' sum, taken
    once; it must be finite, which finite logprobs near -1e308 can overflow."""

    tokens: tuple[TokenScore, ...]
    total_logprob: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Scored texts are never empty, and an empty list would read as
        # log-probability 0, the most fluent text possible.
        if not self.tokens:
            raise ValueError("token score response has no tokens")
        object.__setattr__(self, "total_logprob", sum(t.logprob for t in self.tokens))
        if not math.isfinite(self.total_logprob):
            raise ValueError(f"token logprobs sum to {self.total_logprob!r}")

    def to_wire(self) -> dict:
        return {"tokens": [{"token": t.token, "logprob": t.logprob}
                           for t in self.tokens]}


@dataclass(frozen=True)
class MaskFillResponse:
    """Raw (unnormalized) likelihoods per candidate label, finite floats >= 0."""

    scores: dict[str, float]

    def __post_init__(self):
        if not isinstance(self.scores, dict):
            raise TypeError("scores must be an object of label likelihoods")
        scores = {}
        for label, value in self.scores.items():
            scores[_require_str(label, "label")] = check_real(
                value, f"score for label {label!r}", 0.0)
        object.__setattr__(self, "scores", scores)

    def to_wire(self) -> dict:
        return {"scores": dict(self.scores)}


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
        check_count(dim, "dim")
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

    def to_wire(self) -> dict:
        return {"dim": self.dim, "vectors": self.vectors.tolist()}


# The wire parsers reshape a decoded 200 body into its response type, and
# each type's to_wire gives back the body its parser reads. A body that
# breaks the contract raises KeyError, TypeError, ValueError or
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


# The service endpoints: the fields read from RESTYLE_<NAME>_URL and shown
# in a run manifest's snapshot, each with the method its mock must have.
_SERVICES = {"complete": "complete", "score": "score_tokens",
             "fill_mask": "fill_mask", "embed": "embed_tokens",
             "classifier": "fill_mask"}
# The protocol settings, each read from RESTYLE_<SETTING>, and the
# conversion a text value of it goes through.
_SETTINGS = {"mask_token": str, "timeout": float, "max_retries": int,
             "retry_backoff": float}


@dataclass(frozen=True)
class BackendEndpoints:
    """Service addresses plus the protocol configuration shared by all calls.

    ``classifier`` is an optional /fill_mask-shaped endpoint for a trained
    classifier, asked as :func:`restyle.reranking.asks_classifier` says.
    The protocol settings are checked when built, so :meth:`from_env`,
    :meth:`from_snapshot` and ``dataclasses.replace`` meet the same rules: a
    non-blank ``mask_token``, a ``timeout`` > 0, a ``max_retries`` count
    (the attempts per call) and a ``retry_backoff`` >= 0. ``timeout`` and
    ``retry_backoff`` are held as floats, so that equal settings give equal
    run ids. Each set endpoint resolves once, here: to its mock, to the shared
    HTTP client of its URL and settings, or to itself. Any other string, a
    URL its service refuses, or a mock of the wrong kind (no method for its
    field's calls) raises ValueError naming the field.
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
    _services: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (isinstance(self.mask_token, str) and self.mask_token.strip()):
            raise ValueError("mask_token must be a non-blank string, "
                             f"got {self.mask_token!r}")
        object.__setattr__(self, "timeout",
                           check_real(self.timeout, "timeout", 0.0, open_low=True))
        check_count(self.max_retries, "max_retries")
        object.__setattr__(self, "retry_backoff",
                           check_real(self.retry_backoff, "retry_backoff", 0.0))
        object.__setattr__(self, "_services", {
            name: self._resolve(name, getattr(self, name)) for name in _SERVICES})

    def _resolve(self, name: str, endpoint):
        try:
            if not isinstance(endpoint, str):
                return endpoint
            if endpoint.startswith("mock://"):
                from . import mocks

                mock = mocks.resolve_mock_url(endpoint)
                if not hasattr(mock, method := _SERVICES[name]):
                    raise ValueError(f"{endpoint!r} has no {method} method")
                return mock
            if not endpoint.startswith(("http://", "https://")):
                raise ValueError(f"unsupported endpoint URL {endpoint!r}")
            key = (endpoint, self.timeout, self.max_retries, self.retry_backoff)
            with _clients_lock:
                if key not in _clients:
                    _clients[key] = _HttpService(*key)
                return _clients[key]
        except (BackendError, ValueError) as exc:
            raise ValueError(f"{name} endpoint: {exc}") from None

    @classmethod
    def from_env(cls, env: dict[str, str] | None = None) -> "BackendEndpoints":
        """Build endpoints from the RESTYLE_<NAME>_URL and RESTYLE_<SETTING>
        variables, read as :meth:`from_snapshot` reads text values."""
        env = os.environ if env is None else env
        names = {f"RESTYLE_{name.upper()}_URL": name for name in _SERVICES}
        names.update({f"RESTYLE_{name.upper()}": name for name in _SETTINGS})
        return cls.from_snapshot({name: env[var] for var, name in names.items()
                                  if var in env})

    def snapshot(self) -> dict:
        """URL-level view of the configuration, for run manifests;
        ``retry_backoff`` changes no output and is left out."""

        def show(value):
            if value is None or isinstance(value, str):
                return value
            return f"object:{type(value).__name__}"

        return {
            **{name: show(getattr(self, name)) for name in _SERVICES},
            **{name: getattr(self, name) for name in _SETTINGS
               if name != "retry_backoff"},
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "BackendEndpoints":
        """Endpoints rebuilt from a :meth:`snapshot` or from text settings:
        an empty or ``object:<Class>`` endpoint stays unset, a text setting
        goes through its conversion and any other value is checked as
        stored, and an absent key takes its default."""

        def url(name):
            value = snapshot.get(name)
            if isinstance(value, str) and value and not value.startswith("object:"):
                return value
            return None

        def setting(name, convert):
            value = snapshot[name]
            try:
                return convert(value) if isinstance(value, str) else value
            except ValueError:  # only int and float conversions fail
                kind = "an integer" if convert is int else "a number"
                raise ValueError(f"{name} must be {kind}, got {value!r}") from None

        return cls(
            **{name: url(name) for name in _SERVICES},
            **{name: setting(name, convert) for name, convert in _SETTINGS.items()
               if name in snapshot},
        )


# Statuses of a service that is overloaded or restarting: retried like
# transport failures, within the same attempt budget and backoff.
_TRANSIENT_STATUSES = frozenset({429, 502, 503, 504})
# The transient statuses whose Retry-After header sets a floor on the next
# backoff sleep.
_RETRY_AFTER_STATUSES = frozenset({429, 503})


class _IdleConnectionClosed(Exception):
    """A reused connection failed before any response byte arrived."""


class _Pending:
    """One written attempt of a POST: its body, the connection it went out
    on and whether that connection was reused, or the fault that stopped it
    before it was written. ``fileno`` is its connection's, so a selector can
    wait for the answer."""

    __slots__ = ("data", "conn", "reused", "fault")

    def __init__(self, data: bytes, conn, reused: bool):
        self.data, self.conn, self.reused, self.fault = data, conn, reused, None

    def fileno(self) -> int:
        return self.conn.sock.fileno()


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

    It is transport only, and knows no endpoint: :class:`Call` gives it each
    request body and the ``parse_*`` function that each decoded 200 answer
    goes to. A call is two halves: :meth:`send` writes its first attempt
    and :meth:`receive` reads the answer, retrying as below, so one thread
    can have a call out on each of several connections.

    One client serves every call to its endpoint (see :class:`BackendEndpoints`).
    Idle connections wait in a lock-protected list; an attempt checks one
    out and returns it only after reading the whole response, and a
    connection whose attempt raised is closed instead. What the
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
    sleep and no attempt spent. A fault while :meth:`send` writes is kept
    and met by :meth:`receive` as attempt 1's, and every later attempt,
    backoff included, runs inside :meth:`receive`.
    """

    def __init__(self, url: str, timeout: float, max_retries: int,
                 retry_backoff: float):
        self.url = url
        self.timeout = timeout
        self.max_retries = max_retries
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

    def send(self, payload: dict) -> _Pending:
        """Write attempt 1 of a POST of ``payload``; :meth:`receive` reads
        its answer."""
        return self._send(json.dumps(payload, allow_nan=False).encode("utf-8"))

    def _send(self, data: bytes, reuse: bool = True) -> _Pending:
        """Write ``data`` on an idle connection, if ``reuse`` and there is
        one, or on a new one; a retried fault is kept in the pending."""
        conn = None
        if reuse:
            with self._lock:
                conn = self._idle.pop() if self._idle else None
        pending = _Pending(data, conn, conn is not None)
        try:
            if conn is None:
                pending.conn = conn = self._connect()
            conn.sock.sendall(b"%s%d%s%s" % (self._head, len(data),
                                             self._head_end, data))
        except (OSError, http.client.HTTPException) as exc:
            pending.fault = exc
        except BaseException:
            self.discard(pending)
            raise
        return pending

    def discard(self, pending: _Pending) -> None:
        """Close the connection of a call whose answer will not be read."""
        if pending.conn is not None:
            pending.conn.close()
            pending.conn = None

    def _read(self, pending: _Pending) -> tuple[int, bytes, str | None]:
        """The status, whole body and Retry-After header answering
        ``pending``; the connection goes back to the idle list if it stays
        open."""
        conn = pending.conn
        try:
            try:
                if pending.fault is not None:
                    raise pending.fault
                status, http10, fields = _read_head(conn.rfile)
            except ConnectionError as exc:
                if pending.reused:
                    raise _IdleConnectionClosed() from exc
                raise
            body, keep_open = _read_body(conn.rfile, status, http10, fields)
        except BaseException:
            self.discard(pending)
            raise
        if keep_open:
            with self._lock:
                self._idle.append(conn)
        else:
            conn.close()
        return status, body, fields.get("retry-after")

    def _attempt(self, pending: _Pending) -> tuple[int, bytes, str | None]:
        """Finish one attempt; a reused connection closed while idle is
        replaced by a new one, with no attempt spent."""
        try:
            return self._read(pending)
        except _IdleConnectionClosed:
            return self._read(self._send(pending.data, reuse=False))

    def receive(self, pending: _Pending, parse):
        """The JSON object answering the POST :meth:`send` began, after as
        many attempts as it takes, ``parse``-d: an ``{"error"}`` body raises
        ServiceError, an invalid or unparsable one MalformedResponseError."""
        wait = 0.0
        for attempt in range(1, self.max_retries + 1):
            if attempt > 1:
                time.sleep(max(self.backoff * (2 ** (attempt - 2)), wait))
                pending = self._send(pending.data)
            wait = 0.0
            try:
                status, raw, retry_after = self._attempt(pending)
            except ssl.SSLCertVerificationError as exc:
                # Every attempt would fail the same way.
                raise TransportError(
                    f"could not verify the TLS certificate of {self.url}: {exc}",
                    attempts=attempt) from exc
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
            return self._parse(raw, parse)
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

    def _parse(self, raw: bytes, parse):
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


# Each service method's request body and the parser of its answer, as an
# HTTP service's Call sends and reads them.
_WIRE = {
    "complete": (CompletionRequest.to_wire, parse_completion),
    "score_tokens": (lambda text: {"text": text}, parse_token_scores),
    "fill_mask": (lambda text, labels: {"text": text, "labels": labels},
                  parse_mask_fill),
    "embed_tokens": (lambda text: {"text": text}, parse_embedding),
}


# One client, and so one connection pool, per endpoint setting. Clients live
# for the process, so connections kept alive by one corpus run serve the next.
_clients: dict[tuple, _HttpService] = {}
_clients_lock = threading.Lock()


@atexit.register
def _close_clients() -> None:
    with _clients_lock:
        for client in _clients.values():
            client.close()


def _service(endpoints: BackendEndpoints, name: str, what: str):
    if (service := endpoints._services[name]) is None:
        raise BackendError(f"no {what} endpoint configured")
    return service


class Call:
    """One backend call, its arguments checked and its service resolved by
    one of the ``*_call`` functions below; each blocking call function runs
    its call.

    :meth:`run` makes it and returns the response: a mock or object service
    answers through its method, and an HTTP service (``remote``) as
    ``receive(send())``. A remote call can instead go out in halves:
    :meth:`send` writes its :data:`_WIRE` request body, and :meth:`receive`
    reads, retries and parses its answer, so one thread can have several
    calls out at once. A label call's response must score exactly the
    labels asked for, whichever way it is made.
    """

    __slots__ = ("service", "method", "args", "labels", "what")

    def __init__(self, service, method: str, args: tuple,
                 labels: list[str] | None = None, what: str | None = None):
        self.service, self.method, self.args = service, method, args
        self.labels, self.what = labels, what

    @property
    def remote(self) -> bool:
        return type(self.service) is _HttpService

    def run(self):
        if type(self.service) is _HttpService:
            return self.receive(self.send())
        resp = getattr(self.service, self.method)(*self.args)
        return resp if self.labels is None else self._checked(resp)

    def send(self) -> _Pending:
        return self.service.send(_WIRE[self.method][0](*self.args))

    def receive(self, pending: _Pending):
        return self._checked(self.service.receive(pending, _WIRE[self.method][1]))

    def discard(self, pending: _Pending) -> None:
        """Drop a sent call whose answer will not be read."""
        self.service.discard(pending)

    def _checked(self, resp):
        if self.labels is None or set(resp.scores) == set(self.labels):
            return resp
        raise MalformedResponseError(
            f"{self.what} response labels do not match the requested set")


def complete_call(endpoints: BackendEndpoints, req: CompletionRequest) -> Call:
    return Call(_service(endpoints, "complete", "completion"), "complete", (req,))


def complete(endpoints: BackendEndpoints, req: CompletionRequest) -> CompletionResponse:
    """Request ``req.num_candidates`` continuations of the prompt.

    The service may or may not honor ``stop``; callers always re-apply
    completion extraction themselves.
    """
    return complete_call(endpoints, req).run()


def score_tokens_call(endpoints: BackendEndpoints, text: str) -> Call:
    if not text.strip():
        raise ValueError("text to score must be non-empty")
    return Call(_service(endpoints, "score", "token scoring"), "score_tokens",
                (text,))


def score_tokens(endpoints: BackendEndpoints, text: str) -> TokenScoreResponse:
    """Per-token conditional log-probabilities of ``text`` under the fluency model."""
    return score_tokens_call(endpoints, text).run()


def _label_call(endpoints: BackendEndpoints, name: str, what: str,
                text: str, labels: list[str]) -> Call:
    """A call to the /fill_mask-shaped service of ``name`` for the raw
    likelihoods of two or more distinct labels."""
    if len(set(labels)) < 2:
        raise ValueError(f"{what} needs at least 2 distinct labels")
    return Call(_service(endpoints, name, what), "fill_mask",
                (text, list(labels)), labels, what)


def fill_mask_call(endpoints: BackendEndpoints, cloze: str,
                   labels: list[str]) -> Call:
    if cloze.count(endpoints.mask_token) != 1:
        raise ValueError(
            f"cloze must contain exactly one {endpoints.mask_token!r} token"
        )
    return _label_call(endpoints, "fill_mask", "mask filling", cloze, labels)


def fill_mask(endpoints: BackendEndpoints, cloze: str,
              labels: list[str]) -> MaskFillResponse:
    """Raw likelihoods of each label at the mask position of a cloze statement."""
    return fill_mask_call(endpoints, cloze, labels).run()


def classify_call(endpoints: BackendEndpoints, text: str,
                  labels: list[str]) -> Call:
    if not text.strip():
        raise ValueError("text to classify must be non-empty")
    return _label_call(endpoints, "classifier", "classifier", text, labels)


def classify(endpoints: BackendEndpoints, text: str,
             labels: list[str]) -> MaskFillResponse:
    """Label likelihoods for plain text from the classifier endpoint; with
    none configured it raises BackendError."""
    return classify_call(endpoints, text, labels).run()


def embed_tokens_call(endpoints: BackendEndpoints, text: str) -> Call:
    if not text.strip():
        raise ValueError("text to embed must be non-empty")
    return Call(_service(endpoints, "embed", "embedding"), "embed_tokens", (text,))


def embed_tokens(endpoints: BackendEndpoints, text: str) -> EmbeddingResponse:
    """One contextual embedding vector per token of ``text``."""
    return embed_tokens_call(endpoints, text).run()
