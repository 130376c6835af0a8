"""Backend calls per example, counted at each service endpoint.

Reranking asks each of the d distinct candidate texts its factors in a
fixed order: fluency at /score, then strength, then similarity at /embed.
A text's bound is the sum of its known log factors. The pending text with
the highest bound, ties in first-seen order, gets its next factor, until
that bound is strictly below the best composite; the source is embedded
once, just before the first similarity. Every log factor is at most 0 and
float addition is monotone, so no bound is below the composite it ends in:
a text the loop stops at cannot win, and its score record holds null for
the factors it was not given and for the composite. With d_s texts reaching
strength, and c_s texts other than the source reaching similarity, an
example costs

    1 complete + d score + d_s fill_mask + (1 + c_s) embed

calls; the summary reuses the winner's /score response. Without the
fluency factor reranking makes no /score call, every text reaches strength
(d_s = d), and each example scores its winner once. One rule,
``reranking.asks_classifier``, sends strength and accuracy to the
classifier endpoint or to /fill_mask. Accuracy reads the winner's strength
likelihoods when the rule sends it where strength went (no classifier
endpoint, or strength from the classifier) over the example's own two
styles. Otherwise it costs 1 label call more, at the service the rule picks
for accuracy: a classifier beside cloze strength, or a corpus of three or
more styles. Strength from the classifier endpoint makes its d_s calls
there instead of at /fill_mask.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from fakes import Counted
from restyle.backends import BackendEndpoints, BackendError, MaskFillResponse
from restyle.data import StylePairRecord, load_dataset
from restyle.metrics import predict_style
from restyle.mocks import SentimentMaskBackend, mock_endpoints, resolve_mock_url
from restyle.pipeline import RequestTemplate, transfer_corpus, transfer_one
from restyle.prompts import render_cloze
from restyle.reranking import RerankConfig


def counted_endpoints(log=None, classifier=True, **overrides):
    """``mock_endpoints(plant="seed")`` with every service behind a counter,
    all logging to one ``log`` in call order.

    With ``classifier`` the classifier gets its own sentiment service, so
    summary accuracy calls are told apart from cloze strength calls.
    """
    log = [] if log is None else log
    base = mock_endpoints(plant="seed", **overrides)
    services = {name: Counted(resolve_mock_url(getattr(base, name)), name, log)
                for name in ("complete", "embed", "fill_mask", "score")}
    if classifier:
        services["classifier"] = Counted(SentimentMaskBackend(), "classifier",
                                         log)
    return dataclasses.replace(base, **services), services


@pytest.mark.parametrize("overrides, use_fluency, per_example", [
    # flip, verbatim copy and a padded copy: d = 3; the padded copy is
    # pruned on its fluency and the copy on its strength, so d_s = 2 and
    # c_s = 1
    ({}, True, {"complete": 1, "embed": 2, "fill_mask": 2, "score": 3,
                "classifier": 1}),
    # k copies of the source: d = d_s = 1, c_s = 0
    ({"complete": "mock://echo"}, True,
     {"complete": 1, "embed": 1, "fill_mask": 1, "score": 1, "classifier": 1}),
    # no fluency factor: every text reaches strength (d_s = 3), both copies
    # are pruned there (c_s = 1), and each example scores its winner once
    ({}, False, {"complete": 1, "embed": 2, "fill_mask": 3, "score": 1,
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


@pytest.mark.parametrize("classifier, strength_source, per_example", [
    # no separate classifier: accuracy reads the winner's cloze likelihoods
    (False, "mlm_cloze",
     {"complete": 1, "embed": 2, "fill_mask": 2, "score": 3}),
    (False, "external_classifier",
     {"complete": 1, "embed": 2, "fill_mask": 2, "score": 3}),
    # strength from the classifier: d_s classifier calls, not d_s + 1
    (True, "external_classifier",
     {"complete": 1, "embed": 2, "fill_mask": 0, "score": 3, "classifier": 2}),
])
def test_accuracy_reuses_the_winners_strength(sentiment_records, classifier,
                                              strength_source, per_example):
    endpoints, services = counted_endpoints(classifier=classifier)
    cfg = RerankConfig(k=3, strength_source=strength_source,
                       endpoints=endpoints)
    manifest = transfer_corpus(sentiment_records, RequestTemplate(), cfg,
                               seed=3, jobs=1)
    n = len(sentiment_records)
    assert len(manifest.successful_records()) == n
    assert manifest.summary.accuracy == 1.0
    assert {name: s.calls for name, s in services.items()} == \
        {name: count * n for name, count in per_example.items()}


def test_same_style_records_make_no_calls(sentiment_records, tmp_path,
                                          caplog):
    # A row asking for the style it has is skipped at load, wherever it sits
    # in the file: it makes no call, moves no other record's seed, and the
    # other records keep their call plan.
    rows = []
    for rec in sentiment_records:
        rows += [rec.to_dict(), {**rec.to_dict(), "id": f"{rec.id}-same",
                                 "target_style": rec.source_style}]
    path = tmp_path / "mixed.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    with caplog.at_level("WARNING"):
        loaded = load_dataset(str(path), "jsonl")
    assert loaded == sentiment_records
    assert sum("source and target style are both" in m
               for m in caplog.messages) == len(sentiment_records)
    logs = []
    for records in (sentiment_records, loaded):
        log = []
        endpoints, _ = counted_endpoints(log)
        manifest = transfer_corpus(records, RequestTemplate(),
                                   RerankConfig(k=3, endpoints=endpoints),
                                   seed=3, jobs=1)
        logs.append(log)
    assert logs[1] == logs[0]
    assert len(manifest.successful_records()) == len(sentiment_records)


class EveryLabel:
    """A /fill_mask-shaped service that scores every label alike."""

    def fill_mask(self, text, labels):
        return MaskFillResponse({label: 1.0 for label in labels})


def test_a_third_style_keeps_the_accuracy_call(sentiment_records):
    # The label set {negative, neutral, positive} is no example's own pair.
    records = sentiment_records + [StylePairRecord(
        id="u0", source="the food was here", reference=None,
        source_style="neutral", target_style="positive")]
    log = []
    endpoints, services = counted_endpoints(log, classifier=False)
    services["fill_mask"].service = EveryLabel()
    manifest = transfer_corpus(records, RequestTemplate(),
                               RerankConfig(k=3, endpoints=endpoints),
                               seed=3, jobs=1)
    assert len(manifest.successful_records()) == len(records)
    assert manifest.summary.accuracy is not None
    for record, calls in zip(manifest.records, split_by_example(log)):
        assert calls.count("fill_mask") == reached_strength(record) + 1
        assert calls[-1] == "fill_mask"


class TableMask:
    """A /fill_mask-shaped service that answers each label's likelihood from
    a fixed table, whatever the order of the labels asked for."""

    def __init__(self, table):
        self.table = table

    def fill_mask(self, text, labels):
        return MaskFillResponse({label: self.table[label] for label in labels})


# Zeros and exact ties come from the sampled values.
LIKELIHOODS = st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                        st.floats(0.0, 1e6, allow_nan=False))


@given(styles=st.lists(st.sampled_from(["a", "b", "formal", "informal",
                                        "negative", "positive"]),
                       min_size=2, max_size=2, unique=True),
       likelihoods=st.tuples(LIKELIHOODS, LIKELIHOODS))
@settings(max_examples=60, deadline=None)
def test_reused_label_is_the_live_prediction(styles, likelihoods):
    # The strength request asks for [source, target]: sorted or reversed,
    # as the draw falls.
    source, target = styles
    table = dict(zip(styles, likelihoods))
    endpoints, services = counted_endpoints(classifier=False,
                                            complete="mock://echo")
    services["fill_mask"].service = TableMask(table)
    record = StylePairRecord(id="x", source="the food was good",
                             reference=None, source_style=source,
                             target_style=target)
    manifest = transfer_corpus([record], RequestTemplate(),
                               RerankConfig(k=3, endpoints=endpoints), jobs=1)
    # k copies of the source: one strength call and no accuracy call.
    assert services["fill_mask"].calls == 1
    live = predict_style(BackendEndpoints(fill_mask=TableMask(table)),
                         manifest.records[0]["winner"], sorted(styles))
    # Over two labels, accuracy on one example is 1 exactly when the reused
    # label is the target, so equal accuracy means an equal label.
    assert manifest.summary.accuracy == float(live == target)


def split_by_example(log):
    """A jobs=1 call log cut into one list per example, each opening with
    its /complete call."""
    examples = []
    for name in log:
        if name == "complete":
            examples.append([])
        examples[-1].append(name)
    return examples


def reached_strength(record):
    """The number of distinct texts of a record that reranking asked for
    their strength."""
    return len({c["text"] for c, s in zip(record["candidates"],
                                          record["scores"])
                if s["log_strength"] is not None})


def test_factor_stages_run_in_order(sentiment_records):
    # The flip, a verbatim copy of the source and a padded copy: all three
    # are scored at /score first. The flip and the copy are equally fluent
    # and get their strength in pool order; the padded copy's fluency is
    # below the flip's strength bound. The flip's bound is then the
    # highest: the source is embedded, then the flip. The copy's strength
    # bound and the padded copy's fluency are below the flip's composite,
    # so both are pruned, and the copy keeps its strength.
    log = []
    endpoints, _ = counted_endpoints(log)
    req = RequestTemplate().request_for(sentiment_records[0])
    _, record, _ = transfer_one(req, RerankConfig(k=3, endpoints=endpoints),
                                seed=3)
    texts = [c["text"] for c in record["candidates"]]
    assert texts[1] == req.input_text
    assert [s["composite"] is None for s in record["scores"]] == \
        [False, True, True]
    assert [s["log_strength"] is None for s in record["scores"]] == \
        [False, False, True]
    assert log == ["complete"] + ["score"] * 3 + \
        ["fill_mask", "fill_mask", "embed", "embed"]


def test_no_fluency_asks_strength_before_similarity(sentiment_records):
    log = []
    endpoints, _ = counted_endpoints(log)
    req = RequestTemplate().request_for(sentiment_records[0])
    _, record, _ = transfer_one(
        req, RerankConfig(k=3, use_fluency=False, endpoints=endpoints), seed=3)
    # Every text gets its strength, in pool order. Only the flip's bound
    # reaches similarity: the source is embedded, then the flip; the copy
    # and the padded copy are pruned with their strength.
    assert all(s["log_strength"] is not None for s in record["scores"])
    assert [s["composite"] is None for s in record["scores"]] == \
        [False, True, True]
    assert log == ["complete", "fill_mask", "fill_mask", "fill_mask",
                   "embed", "embed"]


class Failing:
    """A service whose ``method`` fails for one text."""

    def __init__(self, service, method, text):
        self.service = service
        self.method = method
        self.text = text

    def __getattr__(self, name):
        method = getattr(self.service, name)

        def failing(text, *args):
            if name == self.method and text == self.text:
                raise BackendError(f"injected {name} fault for {text!r}")
            return method(text, *args)

        return failing


def faulted_run(sentiment_records, service, method, which):
    """The call log of a jobs=1 corpus run in which ``method`` of
    ``service`` fails for candidate ``which`` of the first example, cut by
    example. The other examples must succeed with the full plan."""
    req = RequestTemplate().request_for(sentiment_records[0])
    cfg = RerankConfig(k=3, endpoints=counted_endpoints()[0])
    text = transfer_one(req, cfg, seed=3)[1]["candidates"][which]["text"]
    assert text != req.input_text

    log = []
    endpoints, services = counted_endpoints(log)
    if method == "fill_mask":
        text = render_cloze(text, endpoints.mask_token)
    services[service].service = Failing(services[service].service, method,
                                        text)
    manifest = transfer_corpus(sentiment_records, RequestTemplate(),
                               RerankConfig(k=3, endpoints=endpoints),
                               seed=3, jobs=1)
    assert "BackendError" in manifest.records[0]["error"]
    assert len(manifest.successful_records()) == len(sentiment_records) - 1
    examples = split_by_example(log)
    for calls in examples[1:]:
        assert calls == ["complete"] + ["score"] * 3 + ["fill_mask"] * 2 + \
            ["embed"] * 2 + ["classifier"]
    return examples


def test_failed_stage_makes_no_later_stage_calls(sentiment_records):
    # The flip's /fill_mask fails: no /embed call follows.
    examples = faulted_run(sentiment_records, "fill_mask", "fill_mask", 0)
    assert examples[0] == ["complete"] + ["score"] * 3 + ["fill_mask"]
    # The flip's /embed fails, after the source's: no later call follows.
    examples = faulted_run(sentiment_records, "embed", "embed_tokens", 0)
    assert examples[0] == ["complete"] + ["score"] * 3 + \
        ["fill_mask"] * 2 + ["embed"] * 2


def test_failed_score_makes_no_factor_calls(sentiment_records):
    # The padded copy's /score fails: no /embed or strength call follows.
    examples = faulted_run(sentiment_records, "score", "score_tokens", 2)
    assert examples[0] == ["complete"] + ["score"] * 3
