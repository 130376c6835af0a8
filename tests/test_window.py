"""Corpus runs with several examples in flight on one thread.

At ``jobs=N>1`` :func:`restyle.pipeline.transfer_corpus` runs each example
as sans-IO steps, and one window keeps up to N HTTP calls out at once, at
most one per example. These runs go through :mod:`loopback` servers whose
answers are delayed by text, so they come back out of order, and check that
the window changes no output, that a fault stays with its own call and
example, and that each endpoint uses at most N connections.
"""

import ast
import dataclasses
import time
import zlib
from collections import Counter
from pathlib import Path

import pytest

from loopback import TLS_CERT, LoopbackServer, Reply, mock_answer
from restyle import backends, pipeline, reranking
from restyle.mocks import mock_endpoints
from restyle.pipeline import RequestTemplate, transfer_corpus, transfer_one
from restyle.reranking import RerankConfig

SRC = Path(__file__).resolve().parent.parent / "src" / "restyle"
PATHS = ("complete", "score", "fill_mask", "embed")
# The servers' own pause, kept from the no_sleep fixture's stand-in.
pause = time.sleep


@pytest.fixture
def records(sentiment_records):
    """Twelve records: three passes over the four sentiment records."""
    return [dataclasses.replace(rec, id=f"{rec.id}-{copy}")
            for copy in range(3) for rec in sentiment_records]


@pytest.fixture
def no_sleep(monkeypatch):
    def sleep(seconds):
        raise AssertionError(f"slept {seconds} s")

    monkeypatch.setattr(backends.time, "sleep", sleep)


def subject(body: dict) -> str:
    return body.get("prompt") or body["text"]


def delayed(path: str, body: dict) -> Reply:
    """The mock answer, 0 to 6 ms late as the request's text says."""
    pause(zlib.crc32(subject(body).encode("utf-8")) % 4 * 0.002)
    return mock_answer(path, body)


def http_endpoints(url: str, **settings):
    return mock_endpoints(**{name: f"{url}/{name}" for name in PATHS},
                          **settings)


def run(records, endpoints, jobs, **cfg):
    return transfer_corpus(records, RequestTemplate(),
                           RerankConfig(k=3, endpoints=endpoints, **cfg),
                           jobs=jobs, seed=7)


def requests_by_text(server) -> Counter:
    return Counter((path, subject(body)) for _, path, _, body in server.requests)


@pytest.mark.parametrize("tls", [False, True], ids=["http", "https"])
@pytest.mark.parametrize("use_fluency", [True, False],
                         ids=["fluency", "no-fluency"])
def test_window_reproduces_one_job(records, monkeypatch, tls, use_fluency):
    # Without the fluency factor each example also asks /score for its
    # winner after the rerank, so the Judge's asks go through the window.
    monkeypatch.setenv("SSL_CERT_FILE", str(TLS_CERT))
    monkeypatch.delenv("SSL_CERT_DIR", raising=False)
    with LoopbackServer(delayed, tls=tls) as server:
        ep = http_endpoints(server.url)
        serial = run(records, ep, 1, use_fluency=use_fluency)
        calls = requests_by_text(server)
        for jobs in (2, 3, 8):
            server.requests.clear()
            windowed = run(records, ep, jobs, use_fluency=use_fluency)
            assert windowed.records == serial.records
            assert windowed.summary == serial.summary
            assert windowed.run_id == serial.run_id
            assert windowed.config["jobs"] == jobs
            assert requests_by_text(server) == calls
    assert len(serial.successful_records()) == len(records)


def test_each_endpoint_uses_at_most_jobs_connections(records):
    servers = {name: LoopbackServer(delayed) for name in PATHS}
    for server in servers.values():
        server.__enter__()
    try:
        for jobs in (2, 3):
            ep = mock_endpoints(**{name: f"{server.url}/{jobs}/{name}"
                                   for name, server in servers.items()})
            before = {name: s.connections for name, s in servers.items()}
            manifest = run(records, ep, jobs)
            assert len(manifest.successful_records()) == len(records)
            used = {name: s.connections - before[name]
                    for name, s in servers.items()}
            assert all(1 <= count <= jobs for count in used.values()), used
            # The first N examples each send their /complete before any
            # answer is read: N calls out at once.
            assert used["complete"] == jobs
    finally:
        for server in servers.values():
            server.__exit__(None, None, None)


def test_transient_status_retries_only_its_call(records):
    # One candidate's /score answers 503 once; every other call is made
    # exactly as in a run with no fault.
    faulted = []

    def answer(path, body):
        if (path.endswith("/score") and body["text"] == "the room was clean"
                and not faulted):
            faulted.append(body["text"])
            return Reply({"error": "busy"}, status=503)
        return delayed(path, body)

    with LoopbackServer(delayed) as clean, LoopbackServer(answer) as server:
        expected = run(records, http_endpoints(clean.url), 1)
        manifest = run(records, http_endpoints(server.url, retry_backoff=0.0), 3)
    assert faulted == ["the room was clean"]
    assert manifest.records == expected.records
    assert manifest.summary == expected.summary
    retried = requests_by_text(clean)
    retried["/score", "the room was clean"] += 1
    assert requests_by_text(server) == retried


def test_truncated_body_fails_only_its_example(records):
    # Every copy of n1 gets a /complete body cut short on each attempt.
    def answer(path, body):
        return dataclasses.replace(
            delayed(path, body), truncate=path.endswith("/complete")
            and "{terrible food and rude staff}" in body["prompt"])

    with LoopbackServer(delayed) as clean, LoopbackServer(answer) as server:
        expected = run(records, http_endpoints(clean.url), 1)
        ep = http_endpoints(server.url, max_retries=3, retry_backoff=0.0)
        manifest = run(records, ep, 3)
    failed = [r for r in manifest.records if "error" in r]
    assert [r["id"] for r in failed] == ["n1-0", "n1-1", "n1-2"]
    assert all(r["error"].startswith("TransportError") for r in failed)
    assert manifest.successful_records() == \
        [r for r in expected.records if not r["id"].startswith("n1-")]
    assert sum("{terrible food and rude staff}" in body.get("prompt", "")
               for _, _, _, body in server.requests) == 3 * 3


def test_idle_closed_connection_is_replaced_with_no_attempt(records, no_sleep):
    # The server closes every connection after its reply without saying so.
    # Each pooled connection the window reuses has been closed while idle;
    # it is replaced at once, with one attempt per call and no sleep.
    with LoopbackServer(delayed) as clean, LoopbackServer(delayed) as server:
        expected = run(records, http_endpoints(clean.url), 1)
        server.close_after_reply = True
        manifest = run(records, http_endpoints(server.url, max_retries=1), 3)
    assert manifest.records == expected.records
    assert requests_by_text(server) == requests_by_text(clean)
    assert server.connections > len(records)


def test_call_slower_than_the_timeout_fails_only_its_example(
        sentiment_records):
    # The window waits at most the timeout for any answer, then reads its
    # oldest call's under the socket timeout. Once the fast examples are
    # done, only n0's /complete is out, and it times out.
    def answer(path, body):
        if path.endswith("/complete") and "{the room was dirty}" in body["prompt"]:
            pause(1.0)
        return delayed(path, body)

    with LoopbackServer(delayed) as clean, LoopbackServer(answer) as server:
        expected = run(sentiment_records, http_endpoints(clean.url), 1)
        ep = http_endpoints(server.url, timeout=0.3, max_retries=1)
        manifest = run(sentiment_records, ep, 3)
    failed = [r for r in manifest.records if "error" in r]
    assert [r["id"] for r in failed] == ["n0"]
    assert failed[0]["error"].startswith("TransportError")
    assert manifest.successful_records() == \
        [r for r in expected.records if r["id"] != "n0"]


def test_uncaught_error_drops_the_calls_out(records, monkeypatch):
    # A fault that is no backend failure ends the run with calls still out.
    # Their connections are closed, not pooled with an answer unread, so
    # the next run on the same clients reads only its own answers.
    class Broken(Exception):
        pass

    def broken(resp):
        raise Broken("not a backend failure")

    request = reranking.request

    def faulty(ask, endpoints):
        call, finish = request(ask, endpoints)
        return call, broken if ask == ("embed", records[1].source) else finish

    with LoopbackServer(delayed) as server:
        ep = http_endpoints(server.url)
        expected = run(records, ep, 1)
        monkeypatch.setattr(reranking, "request", faulty)
        with pytest.raises(Broken):
            run(records, ep, 3)
        monkeypatch.setattr(reranking, "request", request)
        manifest = run(records, ep, 3)
    assert manifest.records == expected.records


def test_driven_steps_give_transfer_one(sentiment_records, mock_ep):
    cfg = RerankConfig(k=3, endpoints=mock_ep)
    for index, rec in enumerate(sentiment_records):
        req = RequestTemplate().request_for(rec)
        steps = pipeline._transfer_steps(req, cfg, seed=index, example_id=rec.id)
        assert reranking.drive(steps, mock_ep) == \
            transfer_one(req, cfg, seed=index, example_id=rec.id)


def module(name: str) -> ast.Module:
    return ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))


def test_pipeline_starts_no_thread():
    imported = set()
    for node in ast.walk(module("pipeline")):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not imported & {"concurrent.futures", "concurrent", "threading",
                           "multiprocessing", "asyncio"}


CALL_FUNCTIONS = {"complete", "score_tokens", "fill_mask", "classify",
                  "embed_tokens"}


def backends_uses(name: str) -> dict[str, set[str]]:
    """Per function of a module: the ``backends`` attributes it reads, and
    whether it yields (``"yield"`` among them)."""
    uses = {}
    for node in ast.walk(module(name)):
        if isinstance(node, ast.FunctionDef):
            names = set()
            for inner in ast.walk(node):
                if (isinstance(inner, ast.Attribute)
                        and isinstance(inner.value, ast.Name)
                        and inner.value.id == "backends"):
                    names.add(inner.attr)
                if isinstance(inner, (ast.Yield, ast.YieldFrom)):
                    names.add("yield")
            uses[node.name] = names
    return uses


def test_only_the_drivers_call_the_backends():
    # The sans-IO steps yield their asks and call nothing. drive answers
    # each ask through the factor helpers (fluency_logprob,
    # label_likelihoods, _unit_rows) or /complete, transfer_one makes a
    # jobs=1 example's /complete, and the window sends the calls request
    # builds.
    callers = {}
    for name in ("reranking", "pipeline", "metrics"):
        for function, names in backends_uses(name).items():
            if "yield" in names:
                assert not names - {"yield", "LabelError"}, (name, function)
            if names & CALL_FUNCTIONS:
                callers[f"{name}.{function}"] = names & CALL_FUNCTIONS
    assert callers == {
        "reranking.fluency_logprob": {"score_tokens"},
        "reranking.label_likelihoods": {"classify", "fill_mask"},
        "reranking._unit_rows": {"embed_tokens"},
        "reranking.drive": {"complete"},
        "pipeline.transfer_one": {"complete"},
    }
