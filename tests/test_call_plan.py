"""Backend calls per example, counted at each service endpoint.

At k candidates with d distinct candidate texts, of which c are not the
source, an example costs 1 complete + (1 + c) embed + d fill_mask + d score
+ 1 classify calls; the summary reuses the winner's /score response.
"""

import dataclasses

import pytest

from restyle.backends import BackendError
from restyle.mocks import SentimentMaskBackend, mock_endpoints, resolve_mock_url
from restyle.pipeline import RequestTemplate, transfer_corpus, transfer_one
from restyle.reranking import RerankConfig

class Counted:
    """Front for one backend service that counts the requests it answers and
    appends its name to ``log`` before answering each one."""

    def __init__(self, service, name, log):
        self.service = service
        self.name = name
        self.log = log
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self.service, name)

        def counted(*args, **kwargs):
            self.calls += 1
            self.log.append(self.name)
            return method(*args, **kwargs)

        return counted


def counted_endpoints(log=None, **overrides):
    """``mock_endpoints(plant="seed")`` with every service behind a counter,
    all logging to one ``log`` in call order.

    The classifier gets its own sentiment service, so summary accuracy calls
    are told apart from cloze strength calls.
    """
    log = [] if log is None else log
    base = mock_endpoints(plant="seed", **overrides)
    services = {name: Counted(resolve_mock_url(getattr(base, name)), name, log)
                for name in ("complete", "embed", "fill_mask", "score")}
    services["classifier"] = Counted(SentimentMaskBackend(), "classifier", log)
    return dataclasses.replace(base, **services), services


@pytest.mark.parametrize("overrides, use_fluency, per_example", [
    # flip, verbatim copy and a padded copy: d = 3, c = 2
    ({}, True, {"complete": 1, "embed": 3, "fill_mask": 3, "score": 3,
                "classifier": 1}),
    # k copies of the source: d = 1, c = 0
    ({"complete": "mock://echo"}, True,
     {"complete": 1, "embed": 1, "fill_mask": 1, "score": 1, "classifier": 1}),
    # no fluency factor: the summary scores each winner once
    ({}, False, {"complete": 1, "embed": 3, "fill_mask": 3, "score": 1,
                 "classifier": 1}),
])
def test_calls_per_example(sentiment_records, overrides, use_fluency,
                           per_example):
    endpoints, services = counted_endpoints(**overrides)
    cfg = RerankConfig(k=3, use_fluency=use_fluency, endpoints=endpoints)
    manifest = transfer_corpus(sentiment_records, RequestTemplate(), cfg,
                               seed=3, jobs=1)
    n = len(sentiment_records)
    assert len(manifest.successful_records()) == n
    assert manifest.summary.ppl is not None
    assert {name: s.calls for name, s in services.items()} == \
        {name: count * n for name, count in per_example.items()}


def split_by_example(log):
    """A jobs=1 call log cut into one list per example, each opening with
    its /complete call."""
    examples = []
    for name in log:
        if name == "complete":
            examples.append([])
        examples[-1].append(name)
    return examples


def test_factor_stages_run_in_order(sentiment_records):
    # The flip, a verbatim copy of the source and a padded copy: the copy
    # reuses the source's embedding, so the similarity stage embeds 3 texts.
    log = []
    endpoints, _ = counted_endpoints(log)
    req = RequestTemplate().request_for(sentiment_records[0])
    transfer_one(req, RerankConfig(k=3, endpoints=endpoints), seed=3)
    assert log == ["complete"] + ["embed"] * 3 + ["fill_mask"] * 3 + \
        ["score"] * 3


class FailingEmbed:
    """An embedding service that fails for one text."""

    def __init__(self, service, text):
        self.service = service
        self.text = text

    def embed_tokens(self, text):
        if text == self.text:
            raise BackendError(f"injected /embed fault for {text!r}")
        return self.service.embed_tokens(text)


def test_failed_stage_makes_no_later_stage_calls(sentiment_records):
    req = RequestTemplate().request_for(sentiment_records[0])
    cfg = RerankConfig(k=3, endpoints=counted_endpoints()[0])
    third = transfer_one(req, cfg, seed=3)[1]["candidates"][2]["text"]
    assert third != req.input_text

    log = []
    endpoints, services = counted_endpoints(log)
    services["embed"].service = FailingEmbed(services["embed"].service, third)
    manifest = transfer_corpus(sentiment_records, RequestTemplate(),
                               RerankConfig(k=3, endpoints=endpoints),
                               seed=3, jobs=1)
    assert "BackendError" in manifest.records[0]["error"]
    assert len(manifest.successful_records()) == len(sentiment_records) - 1
    examples = split_by_example(log)
    assert examples[0] == ["complete", "embed", "embed", "embed"]
    for calls in examples[1:]:
        assert calls == ["complete"] + ["embed"] * 3 + ["fill_mask"] * 3 + \
            ["score"] * 3 + ["classifier"]
