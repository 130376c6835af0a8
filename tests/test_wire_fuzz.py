"""Fuzzing of the four wire response parsers.

Each body reaches the client as the raw bytes of a 200 answer: arbitrary
JSON (with NaN, infinities and huge integers), bodies shaped like the
contract with arbitrary leaves, wrong label sets, empty token and vector
lists, each possibly cut short. A parser must return a response or raise
MalformedResponseError or LabelError, never anything else, and every number
in a parsed response is finite.
"""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from restyle import backends
from restyle.backends import (
    BackendEndpoints,
    CompletionRequest,
    LabelError,
    MalformedResponseError,
)

LABELS = ["positive", "negative"]

numbers = st.floats() | st.integers() | st.just(10 ** 400)
leaves = st.none() | st.booleans() | numbers | st.text(max_size=6)
# "error" at the top level is the service's own error report, not a parse.
keys = st.text(max_size=6).filter(lambda key: key != "error")
json_values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(keys, inner, max_size=4),
    max_leaves=16)
anything = json_values | numbers


def shaped(**fields):
    """Dicts with the contract's keys and arbitrary values, or arbitrary JSON."""
    return st.fixed_dictionaries(fields) | json_values


def valid_complete():
    scores = st.lists(st.floats(max_value=0), min_size=1, max_size=3)
    return scores.map(lambda xs: {"candidates": [
        {"text": f"c{i}", "gen_score": x}
        for i, x in enumerate(sorted(xs, reverse=True))]})


def valid_embed():
    return st.integers(1, 3).flatmap(lambda dim: st.fixed_dictionaries({
        "dim": st.just(dim),
        "vectors": st.lists(st.lists(st.floats(), min_size=dim, max_size=dim),
                            max_size=3)}))


# Near-valid bodies: the contract's shape with non-finite numbers (st.floats
# draws NaN and infinities), empty lists and wrong label sets.
VALID = {
    "complete": valid_complete(),
    "score": st.fixed_dictionaries({"tokens": st.lists(st.fixed_dictionaries(
        {"token": st.text(max_size=8), "logprob": st.floats(max_value=0)}),
        max_size=3)}),
    "fill_mask": st.fixed_dictionaries(
        {"scores": st.sampled_from([LABELS, LABELS + ["neutral"], ["positive"]])
         .flatmap(lambda labels: st.fixed_dictionaries(
             {label: st.floats(min_value=0) for label in labels}))},
        optional={"label_errors": st.dictionaries(
            st.sampled_from(LABELS), st.text(max_size=8), max_size=2)}),
    "embed": valid_embed(),
}

MANGLED = {
    "complete": shaped(candidates=st.lists(
        shaped(text=anything, gen_score=anything), max_size=3)),
    "score": shaped(tokens=st.lists(
        shaped(token=anything, logprob=anything), max_size=3)),
    "fill_mask": shaped(scores=anything, label_errors=anything),
    "embed": shaped(dim=anything, vectors=st.lists(st.lists(anything, max_size=3),
                                                   max_size=3) | json_values),
}

CALLS = {
    "complete": lambda ep: backends.complete(
        ep, CompletionRequest(prompt="p", num_candidates=2)),
    "score": lambda ep: backends.score_tokens(ep, "two words"),
    "fill_mask": lambda ep: backends.fill_mask(
        ep, "The following text is <mask>: [x].", LABELS),
    "embed": lambda ep: backends.embed_tokens(ep, "two words"),
}


NUMBERS = {
    "complete": lambda resp: [c.gen_score for c in resp.candidates],
    "score": lambda resp: [t.logprob for t in resp.tokens],
    "fill_mask": lambda resp: list(resp.scores.values()),
    "embed": lambda resp: [v for vec in resp.vectors for v in vec],
}


def answered(endpoint: str, raw: bytes):
    """The parsed response of ``endpoint`` to a 200 answer carrying ``raw``."""
    ep = BackendEndpoints(**{endpoint: f"http://fuzz.invalid/{endpoint}"})
    with mock.patch.object(backends._HttpService, "_round_trip",
                           lambda self, payload: (200, raw, None)):
        return CALLS[endpoint](ep)


def check(endpoint: str, data) -> None:
    body = data.draw(VALID[endpoint] | MANGLED[endpoint])
    raw = json.dumps(body).encode("utf-8")
    raw = raw[:data.draw(st.none() | st.integers(0, len(raw)))]
    try:
        resp = answered(endpoint, raw)
    except (MalformedResponseError, LabelError):
        return
    assert all(math.isfinite(v) for v in NUMBERS[endpoint](resp))


@pytest.mark.parametrize("vectors", [
    [1.0, 0.0],                      # 1-D
    [[[1.0, 0.0]], [[0.0, 1.0]]],    # 3-D
    [[1.0, 0.0], [1.0]],             # ragged
    "1.0 0.0",                       # a string
    [[1.0, None], [None, 1.0]],      # nulls, which NumPy reads as NaN
    [[]],
])
def test_embed_vectors_not_a_token_matrix(vectors):
    raw = json.dumps({"dim": 2, "vectors": vectors}).encode("utf-8")
    with pytest.raises(MalformedResponseError):
        answered("embed", raw)


@pytest.mark.parametrize("endpoint,body", [
    ("complete", {"candidates": [{"text": None, "gen_score": -1}]}),
    ("complete", {"candidates": [{"text": [1], "gen_score": -1}]}),
    ("complete", {"candidates": [{"text": "a", "gen_score": "-1"}]}),
    ("score", {"tokens": [{"token": 1, "logprob": -0.5}]}),
    ("score", {"tokens": [{"token": "1", "logprob": False}]}),
    ("fill_mask", {"scores": {"positive": True, "negative": 0.5}}),
    ("fill_mask", {"scores": {"positive": 0.5, "negative": "0.5"}}),
    ("embed", {"dim": 2.9, "vectors": [[1, 0]]}),
    ("embed", {"dim": True, "vectors": [[1]]}),
    ("embed", {"dim": 2, "vectors": [["1", True]]}),
    ("embed", {"dim": 2, "vectors": [[True, False]]}),
])
def test_non_json_types_are_malformed(endpoint, body):
    """Only a JSON string is text and only a JSON number is a number."""
    with pytest.raises(MalformedResponseError):
        answered(endpoint, json.dumps(body).encode("utf-8"))


def test_embed_vectors_parsed_to_read_only_float64():
    raw = json.dumps({"dim": 2, "vectors": [[1, 0], [0.5, 0.5]]}).encode("utf-8")
    resp = answered("embed", raw)
    assert resp.vectors.dtype == np.float64 and resp.vectors.shape == (2, 2)
    assert not resp.vectors.flags.writeable
    assert resp == answered("embed", raw)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_complete_parser(data):
    check("complete", data)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_score_parser(data):
    check("score", data)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fill_mask_parser(data):
    check("fill_mask", data)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_embed_parser(data):
    check("embed", data)
