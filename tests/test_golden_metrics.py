"""BLEU, GLEU and summary values of a fixed corpus must not change by a bit.

``tests/data/golden_metrics.json`` holds the ``repr`` of every
:class:`BleuReport` field, each :func:`sentence_gleu`, :func:`corpus_gleu`
and each :func:`summarize` summary of the seeded triples below, as an
earlier version of the metrics computed them. The triples hold 0-60 tokens
with n-grams repeated on both sides, blank outputs, sources and references,
digits, ``_`` and non-ASCII case folding. Regenerate the file only for an
intended change of the metrics, with
``PYTHONPATH=src python tests/test_golden_metrics.py``.
"""

import json
import random
import sys
from dataclasses import fields
from pathlib import Path

from restyle.metrics import (
    BleuReport,
    EvalRow,
    MetricError,
    corpus_bleu,
    corpus_gleu,
    sentence_gleu,
    summarize,
    tokenize_eval,
)

GOLDEN = Path(__file__).parent / "data" / "golden_metrics.json"
SEED = 2023
TRIPLES = 600
WORDS = ("the", "cat", "sat", "on", "mat", "a", "dog", "ran", "big", "red",
         "42", "7", "x1", "a_b", "_", "Σ", "σ", "ΣΑΣ", "İ", "İstanbul",
         "straße", "don't", ".", ",", "!")
BLANKS = ("", " ", "\t \n")
# Corpus slices: single rows, sizes either side of a power of two, all.
SLICES = ((0, 1), (5, 6), (0, 63), (0, 64), (1, 66), (100, 229), (0, TRIPLES))


def _tokens(rng: random.Random) -> list[str]:
    words = [rng.choice(WORDS) for _ in range(rng.randint(0, 60))]
    if words and rng.random() < 0.4:
        # A phrase repeated in place, so n-grams recur within the text.
        at = rng.randrange(len(words))
        phrase = words[at:at + rng.randint(1, 4)]
        words[at:at] = phrase * rng.randint(1, 3)
    return words[:60]


def _edit(rng: random.Random, words: list[str]) -> list[str]:
    """A word-level edit of ``words``: drops, substitutions, insertions and
    a duplicated span, so it shares (and repeats) some of their n-grams."""
    out = []
    for word in words:
        roll = rng.random()
        if roll < 0.1:
            continue
        if roll < 0.25:
            word = rng.choice(WORDS)
        out.append(word)
        if rng.random() < 0.05:
            out.append(rng.choice(WORDS))
    if out and rng.random() < 0.3:
        at = rng.randrange(len(out))
        out[at:at] = out[at:at + rng.randint(1, 4)]
    return out[:60]


def _text(rng: random.Random, words: list[str]) -> str:
    if rng.random() < 0.08:
        return rng.choice(BLANKS)
    text = rng.choice((" ", "  ", " \t")).join(words)
    roll = rng.random()
    if roll < 0.1:
        return text.upper()
    if roll < 0.2:
        return text.capitalize()
    return text


def golden_triples() -> list[tuple[str, str, str | None]]:
    """(src, hyp, ref) triples; one reference in twenty is absent, and one
    hypothesis in twenty is its reference's words."""
    rng = random.Random(SEED)
    triples = []
    for _ in range(TRIPLES):
        src = _tokens(rng)
        hyp = _edit(rng, src) if rng.random() < 0.8 else _tokens(rng)
        ref = _edit(rng, src) if rng.random() < 0.8 else _tokens(rng)
        if rng.random() < 0.05:
            hyp = ref
        triples.append((_text(rng, src), _text(rng, hyp),
                        None if rng.random() < 0.05 else _text(rng, ref)))
    return triples


def _report(report: BleuReport) -> dict:
    return {f.name: repr(getattr(report, f.name)) for f in fields(report)}


# A triple with a side without tokens is stored as the message sentence_gleu
# raised before it became a one-triple corpus_gleu. The message it raises
# now must name that side; the stored entry still pins which triples raise.
NO_TOKENS = "MetricError: sentence_gleu requires non-empty src, hyp and ref"


def _gleu(src: str, hyp: str, ref: str) -> str:
    try:
        return repr(sentence_gleu(src, hyp, ref))
    except MetricError as exc:
        side = next((side for side, text in (("hyp", hyp), ("ref", ref),
                                             ("src", src))
                     if not tokenize_eval(text)), None)
        if str(exc) != f"corpus_gleu: triple 0 has no tokens in its {side}":
            return f"MetricError: {exc}"
        return NO_TOKENS


def golden_values() -> dict:
    triples = golden_triples()
    srcs = [s for s, _, _ in triples]
    hyps = [h for _, h, _ in triples]
    refs = [r if r is not None else "" for _, _, r in triples]
    scored = [t for t in zip(srcs, hyps, refs) if all(x.strip() for x in t)]
    values: dict = {"bleu": {}, "corpus_gleu": {}, "summarize": {}}
    for lo, hi in SLICES:
        span = f"{lo}:{hi}"
        values["bleu"][span] = {
            "hyp-ref": _report(corpus_bleu(hyps[lo:hi], refs[lo:hi])),
            "hyp-src": _report(corpus_bleu(hyps[lo:hi], srcs[lo:hi])),
            "ref-hyp": _report(corpus_bleu(refs[lo:hi], hyps[lo:hi])),
        }
        if scored[lo:hi]:
            values["corpus_gleu"][span] = repr(corpus_gleu(
                *(list(texts) for texts in zip(*scored[lo:hi]))))
        values["summarize"][span] = {
            name: repr(value) for name, value in summarize(
                [EvalRow(h, s, r) for s, h, r in triples[lo:hi]]).to_dict().items()}
    values["pair_bleu"] = [_report(corpus_bleu([h], [r]))
                           for h, r in zip(hyps, refs)]
    values["sentence_gleu"] = [_gleu(*t) for t in zip(srcs, hyps, refs)]
    return values


def test_corpus_covers_the_edge_cases():
    triples = golden_triples()
    texts = [t for triple in triples for t in triple if t is not None]
    for i in range(3):
        assert any(t[i] is not None and not t[i].strip() for t in triples)
    assert any(t[2] is None for t in triples)
    joined = " ".join(texts)
    for needle in ("42", "a_b", "Σ", "İ", "ΣΑΣ"):
        assert needle in joined
    assert max(len(t.split()) for t in texts) >= 55


def test_metrics_bits_unchanged():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    values = golden_values()
    assert values.keys() == golden.keys()
    for key in golden:
        assert values[key] == golden[key], key


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_values(), indent=1, ensure_ascii=False)
                      + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN.name}", file=sys.stderr)
