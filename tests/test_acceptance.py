"""Acceptance suite: one test per release criterion, each printing a
[PASS] line (run with -s to see them). Everything runs against the
deterministic in-process mocks; no network or model weights are needed."""

import random
import re
import time

import pytest

from fakes import StaticMaskBackend
from oracles import oracle_bleu, oracle_gleu
from restyle.backends import BackendEndpoints
from restyle.data import SymbSpec, clean_text, generate_symb, parse_comparison
from restyle.metrics import (
    corpus_bleu,
    corpus_perplexity,
    exact_match_accuracy,
    sentence_gleu,
    tokenize_eval,
)
from restyle.mocks import UniformScoreBackend, antonym_flip, mock_endpoints
from restyle.pipeline import SweepGrid, directions_in, run_sweep, transfer_one
from restyle.prompts import (
    TemplateKind,
    TransferRequest,
    builtin_delimiters,
    extract_completion,
    render_prompt,
)
from restyle.reranking import RerankConfig, style_strength

POS = "positive"
NEG = "negative"


def report(n, message):
    print(f"\n[PASS] criterion {n}: {message}")


def test_criterion_1_prompt_fidelity():
    req = TransferRequest(
        input_text="I love The Sound of Music; it is the best movie ever!!",
        source_style=POS, target_style=NEG,
        template=TemplateKind.CONTRASTIVE)
    assert render_prompt(req) == (
        "Here is a text, which is positive: "
        "{I love The Sound of Music; it is the best movie ever!!} "
        "Here is a rewrite of the text, which is negative: {"
    )

    rng = random.Random(20817)
    words = ["zq7kv", "wm3xt", "plume", "vortex", "ember", "slate", "roan"]
    inputs = [" ".join(rng.choices(words, k=rng.randint(2, 9)))
              for _ in range(1000)]
    labels = ("ornate", "plain")
    pairs = builtin_delimiters()
    start = time.perf_counter()
    failures = 0
    for text in inputs:
        for template in TemplateKind:
            for pair in pairs:
                prompt = render_prompt(TransferRequest(
                    input_text=text, source_style=labels[0],
                    target_style=labels[1], template=template,
                    delimiter=pair))
                extraction = extract_completion(text + pair.close + " tail", pair)
                if not (prompt.endswith(pair.open)
                        and prompt.count(text) == 1
                        and extraction.text == text
                        and not extraction.unterminated):
                    failures += 1
    elapsed = time.perf_counter() - start
    assert failures == 0
    assert elapsed < 1.0, f"round-trip sweep took {elapsed:.2f}s"
    report(1, "worked example byte-for-byte; 4x10 render/extract round-trip "
              f"on 1,000 inputs, 0 failures in {elapsed:.2f}s")


def test_criterion_2_bleu_oracle_equivalence():
    rng = random.Random(1848)
    vocab = ["the", "cat", "sat", "mat", "dog", "ran", "big", "red"]
    start = time.perf_counter()
    for _ in range(500):
        pairs = rng.randint(1, 10)
        hyps = [" ".join(rng.choices(vocab, k=rng.randint(1, 12)))
                for _ in range(pairs)]
        refs = [" ".join(rng.choices(vocab, k=rng.randint(1, 12)))
                for _ in range(pairs)]
        expected = oracle_bleu([tokenize_eval(h) for h in hyps],
                               [tokenize_eval(r) for r in refs])
        got = corpus_bleu(hyps, refs).score
        assert got == pytest.approx(expected, abs=1e-6)

        assert corpus_bleu(hyps, hyps).score == 100.0

        order = list(range(pairs))
        rng.shuffle(order)
        shuffled = corpus_bleu([hyps[i] for i in order],
                               [refs[i] for i in order]).score
        assert shuffled == pytest.approx(got, abs=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"BLEU oracle sweep took {elapsed:.2f}s"
    report(2, "corpus_bleu == brute-force oracle (1e-6) on 500 corpora; "
              f"BLEU(x,x)=100 and permutation invariance hold ({elapsed:.2f}s)")


def test_criterion_3_gleu_sanity():
    assert sentence_gleu("the cat sat", "the cat sat", "the cat sat") == 1.0
    assert sentence_gleu("the cat sit", "the cat sat", "the cat sat") == \
        pytest.approx(1.0)

    rng = random.Random(2015)
    vocab = ["the", "cat", "sat", "mat", "dog", "ran"]
    start = time.perf_counter()
    for _ in range(200):
        src = " ".join(rng.choices(vocab, k=rng.randint(1, 7)))
        hyp = " ".join(rng.choices(vocab, k=rng.randint(1, 7)))
        ref = " ".join(rng.choices(vocab, k=rng.randint(1, 7)))
        expected = oracle_gleu(tokenize_eval(src), tokenize_eval(hyp),
                               tokenize_eval(ref))
        assert sentence_gleu(src, hyp, ref) == pytest.approx(expected, abs=1e-6)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"GLEU oracle sweep took {elapsed:.2f}s"
    report(3, "sentence_gleu == brute-force oracle (1e-6) on 200 triples; "
              f"both perfect cases score 1 ({elapsed:.2f}s)")


def test_criterion_4_perplexity_identity():
    rng = random.Random(4)
    vocab_words = ["alpha", "beta", "gamma", "delta"]
    for trial in range(20):
        vocab_size = rng.choice([3, 7, 733, 50257, 32000])
        ep = BackendEndpoints(score=UniformScoreBackend(vocab_size))
        texts = [" ".join(rng.choices(vocab_words, k=rng.randint(1, 11)))
                 for _ in range(rng.randint(1, 8))]
        ppl = corpus_perplexity(texts, ep)
        assert ppl == pytest.approx(vocab_size, rel=1e-9), \
            f"trial {trial}: {ppl} != {vocab_size}"
    report(4, "uniform-backend perplexity equals vocabulary size (rel 1e-9) "
              "on 20 mixed-length corpora")


def test_criterion_5_rerank_beats_top_beam():
    sources = ["the food was good", "great service today",
               "fresh bread and clean tables"]
    ep = mock_endpoints(plant="seed")
    cfg = RerankConfig(k=3, endpoints=ep)
    trials = 300
    rerank_hits = 0
    baseline_hits = 0
    for i in range(trials):
        source = sources[i % len(sources)]
        req = TransferRequest(input_text=source, source_style=POS,
                              target_style=NEG)
        winner, record = transfer_one(req, cfg, seed=i, example_id=str(i))
        flipped = antonym_flip(source)
        rerank_hits += winner.text == flipped
        baseline_hits += record["baseline"] == flipped
        # the flip mock plants the rewrite at beam position seed % 3
        texts = [c["text"] for c in record["candidates"]]
        assert texts.index(flipped) == i % 3
    assert rerank_hits == trials, f"rerank picked the flip {rerank_hits}/{trials}"
    baseline_rate = baseline_hits / trials
    assert 0.28 <= baseline_rate <= 0.38, f"baseline rate {baseline_rate:.3f}"

    rng = random.Random(5)
    for _ in range(1000):
        n = rng.randint(2, 6)
        rows = [(rng.uniform(-5, 0), rng.uniform(-5, 0), rng.uniform(-50, 0))
                for _ in range(n)]
        shift = rng.uniform(-4, 4)
        which = rng.randrange(3)

        def argmax(table):
            best = 0
            for i in range(1, len(table)):
                if sum(table[i]) > sum(table[best]):
                    best = i
            return best

        shifted = [tuple(v + shift if j == which else v
                         for j, v in enumerate(row)) for row in rows]
        assert argmax(rows) == argmax(shifted)
    report(5, f"rerank found the planted flip {rerank_hits}/{trials}; "
              f"top-beam baseline {baseline_rate:.1%} (expected ~33%); "
              "argmax invariance held on 1,000 random score tuples")


def test_criterion_6_cloze_normalization():
    from fractions import Fraction

    values = sorted({Fraction(n, d) for d in (1, 2, 3, 4)
                     for n in range(0, 2 * d + 1)})
    checked = 0
    for a in values:
        for b in values:
            ep = BackendEndpoints(fill_mask=StaticMaskBackend(
                {"positive": float(a), "negative": float(b)}))
            forward = style_strength("x", POS, NEG, ep)
            backward = style_strength("x", NEG, POS, ep)
            assert abs(forward + backward - 1.0) < 1e-12
            if a == 0 and b == 0:
                assert forward == 0.5 and backward == 0.5
            else:
                assert forward == pytest.approx(float(b / (a + b)), abs=1e-12)
            checked += 1
    report(6, f"l1 complement identity and the (0,0)->0.5 rule hold on "
              f"{checked} exhaustive rational likelihood pairs")


def test_criterion_7_symb_pipeline():
    records = generate_symb(SymbSpec(n=1000, seed=7))
    assert len(records) == 1000
    for record in records:
        a, _, b = record.source.split(" ")
        assert a != b
        assert parse_comparison(record.reference) == record.source

    references = [r.reference for r in records]
    assert exact_match_accuracy(list(references), references) == 1.0

    corrupted = [ref + " indeed" if i % 100 < 26 else ref
                 for i, ref in enumerate(references)]
    accuracy = exact_match_accuracy(corrupted, references)
    assert accuracy == 0.74
    report(7, "1,000 distinct-word records; parse(verbalize) is the identity "
              "on all; exact match 1.0 perfect / 0.74 under the 26% corruptor")


def test_criterion_8_sweep_shape(sentiment_records):
    grid = SweepGrid(directions=directions_in(sentiment_records))
    cfg = RerankConfig(k=3, endpoints=mock_endpoints())
    start = time.perf_counter()
    first = run_sweep(sentiment_records, grid, cfg, seed=17)
    second = run_sweep(sentiment_records, grid, cfg, seed=17)
    elapsed = time.perf_counter() - start
    assert len(first.rows) == 80  # 4 templates x 10 delimiters x 2 directions
    assert all("error" not in row for row in first.rows)
    assert first.to_csv() == second.to_csv()
    assert elapsed < 30.0, f"two sweep runs took {elapsed:.2f}s"
    report(8, f"full 0-shot grid yields exactly 80 CSV rows, byte-identical "
              f"across seeded runs ({elapsed:.2f}s for two runs)")


def test_criterion_9_cleaning():
    rng = random.Random(9)
    words = ["this", "place", "was", "great", "we", "do", "nt", "love", "it"]
    planted = 0
    lines = []
    for _ in range(1000):
        parts = []
        for _ in range(rng.randint(2, 8)):
            parts.append(rng.choice(words))
            roll = rng.random()
            if roll < 0.25:
                parts.append(rng.choice([".", ",", "!", "?", ";"]))
                planted += 1
            elif roll < 0.35:
                parts.append(" ")  # extra whitespace run
            elif roll < 0.45:
                parts.append("n't")
        lines.append(" ".join(parts))
    assert planted > 500

    for raw in lines:
        cleaned = clean_text(raw)
        assert clean_text(cleaned) == cleaned
        assert re.sub(r"\s", "", cleaned) == re.sub(r"\s", "", raw)
        assert not re.search(r"\s[.,!?;:')]", cleaned)
        assert not re.search(r"\w n't\b", cleaned)
    report(9, f"clean_text idempotent on 1,000 fuzzed lines and removed all "
              f"{planted} planted space-before-punctuation artifacts")
