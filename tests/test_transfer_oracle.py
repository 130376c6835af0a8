"""A whole corpus run against the naive oracle.

:func:`oracles.oracle_transfer_corpus` scores every factor of every
candidate, one example at a time, with no pruning. The library's run, with
one to eight examples in flight, must pick the same winners and baselines,
reach the same summary and run id, hold bit-equal entries for every
candidate it scored in full, and make no more calls at any endpoint.
"""

import dataclasses
import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from fakes import Counted
from oracles import known_bound, oracle_transfer_corpus
from restyle.data import StylePairRecord
from restyle.mocks import ANTONYMS, mock_endpoints, resolve_mock_url
from restyle.pipeline import RequestTemplate, transfer_corpus
from restyle.reranking import STRENGTH_SOURCES, RerankConfig

POS = "positive"
NEG = "negative"
SENTIMENT_WORDS = sorted([*ANTONYMS, *ANTONYMS.values()])
SUBJECTS = ("the food", "our waiter", "the room")
TAILS = ("", " today", " and the tables were clean")


@st.composite
def sentiment_corpora(draw):
    """One to four records whose sources carry zero to two sentiment words
    of either polarity, in either direction, with a reference that is
    absent, blank, the source or another sentence."""
    records = []
    for i in range(draw(st.integers(1, 4))):
        words = draw(st.lists(st.sampled_from(SENTIMENT_WORDS), max_size=2))
        source = (f"{draw(st.sampled_from(SUBJECTS))} was "
                  f"{' and '.join(words) or 'here'}"
                  f"{draw(st.sampled_from(TAILS))}")
        reference = draw(st.sampled_from(
            [None, "  ", source, "the staff was rude today"]))
        source_style, target_style = draw(st.sampled_from([(POS, NEG),
                                                           (NEG, POS)]))
        records.append(StylePairRecord(
            id=f"r{i}", source=source, reference=reference,
            source_style=source_style, target_style=target_style))
    return records


def logged_endpoints(base, log):
    """``base`` with each service behind a :class:`Counted` logging to
    ``log``."""
    services = {name: Counted(resolve_mock_url(getattr(base, name)), name, log)
                for name in ("complete", "embed", "fill_mask", "score",
                             "classifier")
                if getattr(base, name) is not None}
    return dataclasses.replace(base, **services)


@given(records=sentiment_corpora(), k=st.integers(1, 5),
       jobs=st.sampled_from([1, 3, 8]), use_fluency=st.booleans(),
       strength_source=st.sampled_from(STRENGTH_SOURCES),
       plant=st.sampled_from(["first", "seed"]),
       classifier=st.sampled_from([None, "mock://sentiment"]),
       vocab=st.sampled_from([2, 50257]),
       seed=st.one_of(st.none(), st.integers(0, 20)))
@settings(max_examples=200, deadline=None)
def test_transfer_corpus_matches_the_oracle(records, k, jobs, use_fluency,
                                            strength_source, plant,
                                            classifier, vocab, seed):
    base = mock_endpoints(plant=plant, classifier=classifier,
                          score=f"mock://uniform?vocab={vocab}")
    library_log, oracle_log = [], []
    cfg = RerankConfig(k=k, use_fluency=use_fluency,
                       strength_source=strength_source,
                       endpoints=logged_endpoints(base, library_log))
    manifest = transfer_corpus(records, RequestTemplate(), cfg, jobs=jobs,
                               seed=seed)
    oracle = oracle_transfer_corpus(
        records, RequestTemplate(),
        dataclasses.replace(cfg, endpoints=logged_endpoints(base, oracle_log)),
        seed=seed)

    assert manifest.run_id == oracle["run_id"]
    assert len(manifest.successful_records()) == len(records)
    for record, expected in zip(manifest.records, oracle["records"]):
        for key in ("candidates", "winner_index", "baseline_index", "winner",
                    "baseline"):
            assert record[key] == expected[key]
        best = max(s["composite"] for s in expected["scores"])
        for entry, full in zip(record["scores"], expected["scores"]):
            if entry["composite"] is not None:
                assert repr(entry) == repr(full)
                continue
            known = {name: value for name, value in entry.items()
                     if value is not None}
            assert known.items() <= full.items()
            assert known_bound(known) < best

    # The metric scorers compute BLEU's geometric mean and GLEU's product
    # their own way, so those agree to rounding; the others are exact.
    summary = {name: value for name, value in manifest.summary.to_dict().items()
               if value is not None}
    assert summary.keys() == oracle["summary"].keys()
    for name, value in oracle["summary"].items():
        if name in ("r_sbleu", "s_sbleu", "gleu"):
            assert summary[name] == pytest.approx(value, rel=1e-9, abs=1e-12)
        else:
            assert summary[name] == value

    library_calls, oracle_calls = Counter(library_log), Counter(oracle_log)
    assert all(library_calls[name] <= oracle_calls[name]
               for name in library_calls)
