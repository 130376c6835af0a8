"""Backend calls per example, counted at each service endpoint.

At k candidates with d distinct candidate texts, of which c are not the
source, an example costs 1 complete + (1 + c) embed + d fill_mask + d score
+ 1 classify calls; the summary reuses the winner's /score response.
"""

import dataclasses

import pytest

from restyle.mocks import SentimentMaskBackend, mock_endpoints, resolve_mock_url
from restyle.pipeline import RequestTemplate, transfer_corpus
from restyle.reranking import RerankConfig

class Counted:
    """Front for one backend service that counts the requests it answers."""

    def __init__(self, service):
        self.service = service
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self.service, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


def counted_endpoints(**overrides):
    """``mock_endpoints(plant="seed")`` with every service behind a counter.

    The classifier gets its own sentiment service, so summary accuracy calls
    are told apart from cloze strength calls.
    """
    base = mock_endpoints(plant="seed", **overrides)
    services = {name: Counted(resolve_mock_url(getattr(base, name)))
                for name in ("complete", "embed", "fill_mask", "score")}
    services["classifier"] = Counted(SentimentMaskBackend())
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
