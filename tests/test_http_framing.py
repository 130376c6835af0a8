"""Response framing and the request on the wire, through the loopback server.

Each framing case answers two calls on one endpoint with raw response
bytes; the server's connection count shows whether the client kept the
connection or closed it. Each fault case must end as TransportError once
the attempt budget is spent.
"""

import json
import socket
import threading

import pytest

from loopback import LoopbackServer, Reply, mock_answer
from restyle import backends
from restyle.backends import (BackendEndpoints, BackendError, ServiceError,
                              TransportError)


@pytest.fixture(autouse=True)
def no_proxy_env(monkeypatch):
    """No proxy settings: clients resolve the proxy once and are cached per
    endpoint, so each test calls a path of its own."""
    for name in ("http_proxy", "https_proxy", "no_proxy",
                 "HTTP_PROXY", "HTTPS_PROXY", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)


def score_json(body: dict) -> bytes:
    return json.dumps(mock_answer("/score", body).payload).encode("utf-8")


def chunked(data: bytes) -> bytes:
    """``data`` in two chunks, with chunk extensions and a trailer."""
    half = len(data) // 2
    return (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"%x;name=value\r\n%s\r\n" % (half, data[:half])
            + b"%X ; flag\r\n%s\r\n" % (len(data) - half, data[half:])
            + b"0;last\r\nX-Checksum: none\r\nX-Other: 1\r\n\r\n")


def with_length(status_line: bytes, *headers: bytes):
    def frame(data: bytes) -> bytes:
        head = b"".join(h + b"\r\n" for h in headers)
        return (b"%s\r\n%sContent-Length: %d\r\n\r\n%s"
                % (status_line, head, len(data), data))
    return frame


# name: (frames the JSON body, server closes after it, connections for two calls)
FRAMINGS = {
    "chunked": (chunked, False, 1),
    "close-delimited": (lambda data: b"HTTP/1.1 200 OK\r\n"
                        b"Content-Type: application/json\r\n\r\n" + data,
                        True, 2),
    "connection-close": (with_length(b"HTTP/1.1 200 OK", b"Connection: close"),
                         False, 2),
    "http10": (with_length(b"HTTP/1.0 200 OK"), False, 2),
    "http10-keep-alive": (with_length(b"HTTP/1.0 200 OK",
                                      b"Connection: Keep-Alive"), False, 1),
    "http10-keep-alive-header": (with_length(b"HTTP/1.0 200 OK",
                                             b"Keep-Alive: timeout=5"), False, 1),
    "100-continue": (lambda data: b"HTTP/1.1 100 Continue\r\n\r\n"
                     + with_length(b"HTTP/1.1 200 OK")(data), False, 1),
    "folded-header": (with_length(b"HTTP/1.1 200 OK", b"X-Folded: a,",
                                  b"\tb"), False, 1),
    "bare-lf": (lambda data: with_length(b"HTTP/1.1 200 OK")(data)
                .replace(b"\r\n", b"\n"), False, 1),
    "100-headers": (with_length(b"HTTP/1.1 200 OK",
                                *(b"X-Field-%d: v" % i for i in range(99))),
                    False, 1),
}


@pytest.mark.parametrize("name", FRAMINGS)
def test_framing_parses_and_keeps_or_closes(name):
    frame, close, connections = FRAMINGS[name]
    with LoopbackServer(lambda path, body: Reply(raw=frame(score_json(body)),
                                                 close=close)) as server:
        ep = BackendEndpoints(score=f"{server.url}/framing-{name}/score",
                              timeout=5.0, max_retries=1)
        for text in ("first call", "second call here"):
            resp = backends.score_tokens(ep, text)
            assert [t.token for t in resp.tokens] == text.split()
    assert len(server.requests) == 2
    assert server.connections == connections


def test_no_content_has_no_body():
    def answer(path, body):
        if len(server.requests) == 1:
            return Reply(raw=b"HTTP/1.1 204 No Content\r\nX-Why: none\r\n\r\n")
        return mock_answer(path, body)

    with LoopbackServer(answer) as server:
        ep = BackendEndpoints(score=f"{server.url}/framing-204/score",
                              timeout=5.0, max_retries=1)
        with pytest.raises(ServiceError) as err:
            backends.score_tokens(ep, "nothing back")
        assert err.value.status == 204
        resp = backends.score_tokens(ep, "then an answer")
    assert [t.token for t in resp.tokens] == ["then", "an", "answer"]
    assert server.connections == 1


# name: (raw reply, server closes after it, failure named in the error)
FAULTS = {
    "long-header-line": (b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 70_000
                         + b"\r\nContent-Length: 2\r\n\r\n{}", False,
                         "LineTooLong"),
    "101-headers": (b"HTTP/1.1 200 OK\r\n"
                    + b"".join(b"X-Field-%d: v\r\n" % i for i in range(100))
                    + b"Content-Length: 2\r\n\r\n{}", False, "HTTPException"),
    "garbage-status": (b"garbage\r\n\r\n", False, "BadStatusLine"),
    "word-length": (b"HTTP/1.1 200 OK\r\nContent-Length: ten\r\n\r\n{}",
                    False, "HTTPException"),
    "bad-chunk-size": (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                       b"zz\r\n{}\r\n0\r\n\r\n", False, "HTTPException"),
    "chunked-cut-short": (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                          b"10\r\n{\"tokens\"", True, "IncompleteRead"),
}


@pytest.mark.parametrize("name", FAULTS)
def test_framing_fault_is_transport_error(name):
    raw, close, failure = FAULTS[name]
    with LoopbackServer(lambda path, body: Reply(raw=raw, close=close)) as server:
        ep = BackendEndpoints(score=f"{server.url}/fault-{name}/score",
                              timeout=5.0, max_retries=2, retry_backoff=0.0)
        with pytest.raises(TransportError) as err:
            backends.score_tokens(ep, "bad framing")
    assert err.value.attempts == 2
    assert failure in str(err.value)
    assert len(server.requests) == 2
    assert server.connections == 2


def test_request_head_is_http_clients():
    """The head holds exactly what http.client sent, in its order."""
    with LoopbackServer() as server:
        ep = BackendEndpoints(score=f"{server.url}/pinned/score")
        backends.score_tokens(ep, "pin the head")
    [(method, path, headers, body)] = server.requests
    assert (method, path, body) == ("POST", "/pinned/score", {"text": "pin the head"})
    length = len(json.dumps(body).encode("utf-8"))
    assert list(headers.items()) == [
        ("Host", f"127.0.0.1:{server.server_port}"),
        ("Accept-Encoding", "identity"),
        ("Content-Length", str(length)),
        ("Content-Type", "application/json"),
    ]


def test_one_write_per_request(monkeypatch):
    caller = threading.get_ident()
    writes = []
    sendall = socket.socket.sendall

    def counting_sendall(sock, data, *args):
        if threading.get_ident() == caller:
            writes.append(bytes(data))
        return sendall(sock, data, *args)

    monkeypatch.setattr(socket.socket, "sendall", counting_sendall)
    with LoopbackServer() as server:
        ep = BackendEndpoints(score=f"{server.url}/one-write/score")
        for text in ("first call", "second call"):
            backends.score_tokens(ep, text)
    assert len(server.requests) == 2
    assert len(writes) == 2
    for write, text in zip(writes, ("first call", "second call")):
        assert write.startswith(b"POST /one-write/score HTTP/1.1\r\n")
        assert write.endswith(b"\r\n\r\n" + json.dumps({"text": text}).encode())


@pytest.mark.parametrize("url", [
    "http://127.0.0.1:9/a path/score",
    "http://127.0.0.1:9/café/score",
    "http://" + "a" * 64 + "é.example/score",
], ids=["space-in-path", "non-ascii-path", "bad-idna-host"])
def test_unsendable_url_is_rejected(url):
    ep = BackendEndpoints(score=url, max_retries=1)
    with pytest.raises(BackendError, match="endpoint URL") as err:
        backends.score_tokens(ep, "never sent")
    assert not isinstance(err.value, TransportError)


def test_non_ascii_host_is_idna_encoded():
    client = backends._HttpService("http://bücher.example:8080/score",
                                   timeout=1.0, max_retries=1,
                                   retry_backoff=0.0)
    assert b"\r\nHost: xn--bcher-kva.example:8080\r\n" in client._head
