"""Loopback model server for the ``transfer-http`` workload.

Serves the four wire endpoints (``/complete``, ``/score``, ``/fill_mask``,
``/embed``) over HTTP/1.1 with keep-alive on an ephemeral 127.0.0.1 port.
Each distinct request body is answered once by the package mocks (the
completion is :class:`standins.DistinctRewriteBackend`) and its full HTTP
response is kept as bytes; repeats are answered with one write of those
bytes. Nagle's algorithm is off, so a pooled keep-alive client does not hit
the delayed-ACK stall.

``GET /stats`` returns, per path, the POST requests served, the seconds spent
finding their answers once the body has arrived, and the distinct bodies
seen since the previous ``/stats``.

Run as ``python3 server.py``: it prints the port on the first line of its
standard output and serves until its standard input closes.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from restyle.backends import CompletionRequest, DecodeConfig, LabelError  # noqa: E402
from restyle.mocks import (  # noqa: E402
    HashEmbedBackend,
    SentimentMaskBackend,
    UniformScoreBackend,
)
from standins import DistinctRewriteBackend  # noqa: E402

_COMPLETE = DistinctRewriteBackend()
_SCORE = UniformScoreBackend()
_MASK = SentimentMaskBackend()
_EMBED = HashEmbedBackend()


def _complete(body: dict) -> dict:
    req = CompletionRequest(
        prompt=body["prompt"], max_new_tokens=body["max_new_tokens"],
        num_candidates=body["num_candidates"], stop=body["stop"],
        seed=body["seed"], decode=DecodeConfig(mode=body["decode"]["mode"]))
    return {"candidates": [{"text": g.text, "gen_score": g.gen_score}
                           for g in _COMPLETE.complete(req).candidates]}


def _score(body: dict) -> dict:
    resp = _SCORE.score_tokens(body["text"])
    return {"tokens": [{"token": t.token, "logprob": t.logprob}
                       for t in resp.tokens]}


def _fill_mask(body: dict) -> dict:
    try:
        return {"scores": _MASK.fill_mask(body["text"], body["labels"]).scores}
    except LabelError as exc:
        return {"label_errors": exc.label_errors}


def _embed(body: dict) -> dict:
    resp = _EMBED.embed_tokens(body["text"])
    return {"dim": resp.dim, "vectors": [list(v) for v in resp.vectors]}


ROUTES = {"/complete": _complete, "/score": _score,
          "/fill_mask": _fill_mask, "/embed": _embed}


def _http_response(status: str, payload: dict) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    head = (f"HTTP/1.1 {status}\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n")
    return head.encode("ascii") + body


class Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.requests = {path: 0 for path in ROUTES}
        self.busy_s = {path: 0.0 for path in ROUTES}
        self.distinct: dict[str, set] = {path: set() for path in ROUTES}

    def add(self, path: str, body: bytes, seconds: float) -> None:
        with self.lock:
            self.requests[path] += 1
            self.busy_s[path] += seconds
            self.distinct[path].add(body)

    def take(self) -> dict:
        with self.lock:
            out = {path: {"requests": self.requests[path],
                          "busy_s": self.busy_s[path],
                          "distinct": len(self.distinct[path])}
                   for path in ROUTES}
            self.distinct = {path: set() for path in ROUTES}
        return out


class LoopbackServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), Handler)
        self.responses: dict[tuple[str, bytes], bytes] = {}
        self.stats = Stats()


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        start = time.perf_counter()
        route = ROUTES.get(self.path)
        if route is None:
            self.wfile.write(_http_response("404 Not Found",
                                            {"error": f"no route {self.path}"}))
            return
        key = (self.path, body)
        response = self.server.responses.get(key)
        if response is None:
            response = _http_response("200 OK", route(json.loads(body)))
            self.server.responses[key] = response
        # Counted before the answer leaves, so a /stats read after the
        # client has its answer always includes the request.
        self.server.stats.add(self.path, body, time.perf_counter() - start)
        self.wfile.write(response)

    def do_GET(self):
        if self.path != "/stats":
            self.wfile.write(_http_response("404 Not Found",
                                            {"error": f"no route {self.path}"}))
            return
        self.wfile.write(_http_response("200 OK", self.server.stats.take()))

    def log_message(self, format, *args):
        pass


def main() -> int:
    server = LoopbackServer()

    def stop_when_stdin_closes():
        sys.stdin.read()
        server.shutdown()

    threading.Thread(target=stop_when_stdin_closes, daemon=True).start()
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
