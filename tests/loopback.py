"""Loopback HTTP/1.1 model server for client and fault-injection tests.

The server keeps connections alive with Nagle's algorithm off, counts the
TCP connections it accepts and records every request it reads. What it
answers is up to an ``answer(path, body) -> Reply`` function;
:func:`mock_answer` serves the four wire endpoints from the package mocks.
With ``tls=True`` it speaks HTTPS with the self-signed, test-only
certificate :data:`TLS_CERT`, which names IP 127.0.0.1.
"""

from __future__ import annotations

import json
import socket
import ssl
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from restyle.backends import CompletionRequest, LabelError
from restyle.mocks import (
    HashEmbedBackend,
    LexiconFlipBackend,
    SentimentMaskBackend,
    UniformScoreBackend,
)

_DATA = Path(__file__).resolve().parent / "data"
TLS_CERT = _DATA / "test-only-loopback-cert.pem"
TLS_KEY = _DATA / "test-only-loopback-key.pem"


@dataclass(frozen=True)
class Reply:
    """One answer: ``payload`` is sent as JSON, or as it is when it is bytes.
    ``truncate`` declares a longer body than it sends, then closes;
    ``headers`` are extra ``(name, value)`` response headers."""

    payload: object
    status: int = 200
    truncate: bool = False
    headers: tuple[tuple[str, str], ...] = ()


def mock_answer(path: str, body: dict) -> Reply:
    """The wire endpoints answered by the package mocks (lexicon-flip completion)."""
    if path.endswith("/complete"):
        resp = LexiconFlipBackend().complete(CompletionRequest(
            prompt=body["prompt"], num_candidates=body["num_candidates"],
            stop=body["stop"], seed=body["seed"]))
        return Reply({"candidates": [{"text": g.text, "gen_score": g.gen_score}
                                     for g in resp.candidates]})
    if path.endswith("/score"):
        resp = UniformScoreBackend().score_tokens(body["text"])
        return Reply({"tokens": [{"token": t.token, "logprob": t.logprob}
                                 for t in resp.tokens]})
    if path.endswith("/fill_mask"):
        try:
            scores = SentimentMaskBackend().fill_mask(body["text"], body["labels"]).scores
        except LabelError as exc:
            return Reply({"label_errors": exc.label_errors})
        return Reply({"scores": scores})
    if path.endswith("/embed"):
        resp = HashEmbedBackend().embed_tokens(body["text"])
        return Reply({"dim": resp.dim, "vectors": [list(v) for v in resp.vectors]})
    return Reply({"error": f"no route {path}"}, status=404)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def do_POST(self):
        raw = self.rfile.read(int(self.headers["Content-Length"]))
        body = json.loads(raw)
        self.server.record(self.command, self.path, dict(self.headers), body)
        reply = self.server.answer(self.path, body)
        data = reply.payload
        if not isinstance(data, bytes):
            data = json.dumps(data).encode("utf-8")
        self.send_response(reply.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data) + 10 * reply.truncate))
        for name, value in reply.headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)
        if reply.truncate or self.server.close_after_reply:
            self.close_connection = True

    def do_CONNECT(self):
        self.server.record(self.command, self.path, dict(self.headers), None)
        self.send_response(200, "Connection established")
        self.end_headers()
        self.close_connection = True

    def finish(self):
        super().finish()
        self.server.closed.release()

    def log_message(self, *args):
        pass


class LoopbackServer(ThreadingHTTPServer):
    """Serve ``answer`` on an ephemeral 127.0.0.1 port inside a ``with`` block.

    ``connections`` counts accepted TCP connections and ``requests`` holds
    ``(method, path, headers, body)`` per request read. With
    ``close_after_reply`` set, the server closes each connection after its
    reply without announcing it, as a server closing idle keep-alive
    connections does; ``closed`` is released once per connection closed.
    With ``tls`` set, each accepted connection is counted and then takes the
    TLS handshake, so a client that rejects the certificate leaves one
    connection counted and no request.
    """

    daemon_threads = True

    def __init__(self, answer=mock_answer, *, tls: bool = False):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.answer = answer
        self._tls = None
        if tls:
            self._tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            self._tls.load_cert_chain(TLS_CERT, TLS_KEY)
        self.close_after_reply = False
        self.connections = 0
        self.requests: list[tuple] = []
        self.closed = threading.Semaphore(0)
        self._lock = threading.Lock()
        self._sockets: list[socket.socket] = []

    @property
    def url(self) -> str:
        scheme = "https" if self._tls else "http"
        return f"{scheme}://127.0.0.1:{self.server_port}"

    def get_request(self):
        sock, addr = super().get_request()
        with self._lock:
            self.connections += 1
        if self._tls:
            # A failed handshake closes the socket and raises an OSError,
            # which the server drops.
            sock = self._tls.wrap_socket(sock, server_side=True)
        with self._lock:
            self._sockets.append(sock)
        return sock, addr

    def record(self, method, path, headers, body):
        with self._lock:
            self.requests.append((method, path, headers, body))

    def __enter__(self):
        threading.Thread(target=self.serve_forever, kwargs={"poll_interval": 0.01},
                         daemon=True).start()
        return self

    def __exit__(self, *exc):
        self.shutdown()
        with self._lock:
            for sock in self._sockets:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        self.server_close()
