"""Manifests of a fixed mock corpus must not change by a single byte.

The files under ``tests/data/`` hold manifests written by an earlier version
of the library, with the timestamp pinned. Any change to call planning,
scoring arithmetic, summary metrics or the run id shows up here as a byte
difference. Regenerate them only for an intended output change, with
``PYTHONPATH=src python tests/test_golden_manifests.py``.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from oracles import known_bound, oracle_rerank_plan
from restyle.data import StylePairRecord
from restyle.mocks import ANTONYMS, antonym_flip, mock_endpoints
from restyle.pipeline import RequestTemplate, transfer_corpus, write_manifest
from restyle.reranking import RerankConfig

DATA = Path(__file__).parent / "data"
PINNED_TIMESTAMP = "2000-01-01T00:00:00+00:00"
POS = "positive"
NEG = "negative"

SUBJECTS = ("the food", "our waiter", "the room", "this place",
            "the bread", "the staff", "my meal")
TAILS = ("", " today", " and the tables were clean",
         " but the music was loud", " as always")
# Sources without a sentiment word: the flip equals the copy, so the pool
# holds a duplicate text.
NEUTRAL = ("we sat by the window", "the menu changed in may")

RUNS = {
    "fluency_on": dict(k=3, use_fluency=True),
    "fluency_off": dict(k=3, use_fluency=False),
    "external_classifier": dict(k=5, use_fluency=True,
                                strength_source="external_classifier"),
}


def golden_corpus() -> list[StylePairRecord]:
    """40 records: both directions, mixed lengths, some references, one
    neutral pair, and one source that collides with the curly delimiter."""
    words = sorted(ANTONYMS)
    records = []
    for i in range(37):
        word = words[i % len(words)]
        positive = i % 2 == 0
        adjective = word if positive else ANTONYMS[word]
        source = f"{SUBJECTS[i % len(SUBJECTS)]} was {adjective}{TAILS[i % len(TAILS)]}"
        if i % 6 == 5:
            source = source.capitalize()
        records.append(StylePairRecord(
            id=f"g{i:02d}", source=source,
            reference=antonym_flip(source) if i % 3 == 0 else None,
            source_style=POS if positive else NEG,
            target_style=NEG if positive else POS))
    for i, source in enumerate(NEUTRAL):
        records.append(StylePairRecord(id=f"n{i}", source=source, reference=None,
                                       source_style=POS, target_style=NEG))
    records.append(StylePairRecord(id="bad", source="braces } inside",
                                   reference=None, source_style=POS,
                                   target_style=NEG))
    return records


def write_run(name: str, path: Path, jobs: int = 2) -> None:
    endpoints = mock_endpoints(plant="seed", classifier="mock://sentiment")
    cfg = RerankConfig(endpoints=endpoints, **RUNS[name])
    manifest = transfer_corpus(golden_corpus(), RequestTemplate(), cfg,
                               seed=11, jobs=jobs)
    write_manifest(dataclasses.replace(manifest, timestamp=PINNED_TIMESTAMP),
                   str(path))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_manifest_bytes_unchanged(name, tmp_path):
    out = tmp_path / f"{name}.jsonl"
    write_run(name, out)
    assert out.read_bytes() == (DATA / f"golden_{name}.jsonl").read_bytes()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_inline_run_matches_the_golden(name, tmp_path):
    # The goldens were written on worker threads; at jobs=1 the examples
    # run in the calling thread. Only the stored jobs may differ.
    out = tmp_path / f"{name}.jsonl"
    write_run(name, out, jobs=1)
    header, *records = out.read_bytes().splitlines(keepends=True)
    want_header, *want_records = (
        DATA / f"golden_{name}.jsonl").read_bytes().splitlines(keepends=True)
    assert records == want_records
    header, want_header = json.loads(header), json.loads(want_header)
    jobs = header["config"].pop("jobs"), want_header["config"].pop("jobs")
    assert jobs == (1, 2)
    assert header == want_header


@pytest.mark.parametrize("name", sorted(RUNS))
def test_winners_and_pruned_entries_follow_the_rule(name):
    # Replays the rerank on the stored factors: the best-first rule asks
    # only factors that are stored, and at its stop each distinct text
    # knows exactly the factors its entry holds. A full entry's composite is
    # the sum of its factors, and a pruned one's bound is below the
    # winner's composite.
    use_fluency = RUNS[name]["use_fluency"]
    lines = (DATA / f"golden_{name}.jsonl").read_text().splitlines()
    pruned = 0
    for line in lines[1:]:
        record = json.loads(line)
        if "error" in record:
            continue
        composites = [s["composite"] for s in record["scores"]]
        winner = max((i for i, c in enumerate(composites) if c is not None),
                     key=composites.__getitem__)
        assert record["winner_index"] == record["candidates"][winner]["index"]
        by_text = {}
        for cand, score in zip(record["candidates"], record["scores"]):
            assert by_text.setdefault(cand["text"], score) == score
        _, known = oracle_rerank_plan(by_text, use_fluency)
        for text, score in by_text.items():
            assert {f: v for f, v in score.items()
                    if v is not None and f != "composite"} == known[text]
            if score["composite"] is None:
                assert known_bound(known[text]) < composites[winner]
                pruned += 1
            else:
                assert score["composite"] == known_bound(known[text])
    assert pruned > 0


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for run in sorted(RUNS):
        write_run(run, DATA / f"golden_{run}.jsonl")
        print(f"wrote golden_{run}.jsonl", file=sys.stderr)
