"""Each label service is reached through one ``backends`` function.

``backends.fill_mask`` is the only way to the mask filler and
``backends.classify`` the only way to the classifier endpoint, so a counter
at either function counts exactly the requests its service answers, in a
corpus run, in its re-evaluation and in the copy baseline alike. The
endpoints are ``mock://`` URLs, so that a manifest's snapshot rebuilds them;
a counter stands in front of each mock the URLs resolve to.
"""

from collections import Counter

import pytest

from fakes import Counted
from restyle import backends, mocks
from restyle.mocks import mock_endpoints
from restyle.pipeline import (
    RequestTemplate,
    copy_baseline,
    reevaluate_manifest,
    transfer_corpus,
)
from restyle.reranking import RerankConfig

FILL_MASK = "mock://sentiment"
# The same mock under a second URL, so that its counter is its own.
CLASSIFIER = "mock://sentiment?role=classifier"


@pytest.fixture
def counters(monkeypatch):
    """Calls per label function of ``backends`` and requests per mock URL."""
    functions = Counter()
    for name in ("fill_mask", "classify"):
        def counted(*args, _name=name, _call=getattr(backends, name), **kwargs):
            functions[_name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(backends, name, counted)
    services = {}
    resolve = mocks.resolve_mock_url

    def counted_service(url):
        if url not in services:
            services[url] = Counted(resolve(url), url, [])
        return services[url]

    monkeypatch.setattr(mocks, "resolve_mock_url", counted_service)

    def requests(url):
        return services[url].calls if url in services else 0

    def take():
        """The calls and requests counted since the last take, checked to
        agree per service."""
        counts = {"fill_mask": requests(FILL_MASK),
                  "classify": requests(CLASSIFIER)}
        assert dict(functions) == {k: v for k, v in counts.items() if v}
        functions.clear()
        for service in services.values():
            service.calls = 0
        return counts

    return take


@pytest.mark.parametrize("classifier", [CLASSIFIER, None],
                         ids=["classifier", "no-classifier"])
@pytest.mark.parametrize("strength_source", ["mlm_cloze", "external_classifier"])
def test_each_label_function_counts_its_service(sentiment_records, counters,
                                                strength_source, classifier):
    ep = mock_endpoints(plant="seed", classifier=classifier)
    strength_asks = ("classify" if strength_source == "external_classifier"
                     and classifier else "fill_mask")
    accuracy_asks = "classify" if classifier else "fill_mask"
    n = len(sentiment_records)

    manifest = transfer_corpus(
        sentiment_records, RequestTemplate(),
        RerankConfig(k=3, strength_source=strength_source, endpoints=ep),
        jobs=1, seed=3)
    assert len(manifest.successful_records()) == n
    strength_calls = sum(
        len({c["text"] for c, s in zip(r["candidates"], r["scores"])
             if s["log_strength"] is not None})
        for r in manifest.records)
    # Accuracy reads the winners' strength likelihoods when it asks the
    # service strength asked, and makes one call per winner otherwise.
    expected = Counter({strength_asks: strength_calls})
    if accuracy_asks != strength_asks:
        expected[accuracy_asks] += n
    assert counters() == {"fill_mask": expected["fill_mask"],
                          "classify": expected["classify"]}

    assert reevaluate_manifest(manifest) == manifest.summary
    assert counters()[accuracy_asks] == n

    summary = copy_baseline(sentiment_records, ep)
    assert summary.accuracy == 0.0
    assert counters()[accuracy_asks] == n
