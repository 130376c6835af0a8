import math
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    clipped_matches,
    ngram_list,
    oracle_bleu,
    oracle_gleu,
    oracle_tokenize,
)
from restyle import metrics
from restyle.backends import BackendEndpoints, MaskFillResponse
from restyle.metrics import (
    EvalRow,
    EvalSummary,
    MetricError,
    classifier_accuracy,
    corpus_bleu,
    corpus_gleu,
    corpus_perplexity,
    exact_match_accuracy,
    perplexity_from_totals,
    predict_style,
    ref_sbleu,
    self_sbleu,
    sentence_gleu,
    summarize,
    tokenize_eval,
    top_label,
)
from restyle.mocks import SentimentMaskBackend, UniformScoreBackend

VOCAB = ["the", "cat", "sat", "mat", "dog", "ran", "big", "red"]


def random_corpus(rng, pairs=None, max_len=12):
    pairs = pairs if pairs is not None else rng.randint(1, 10)
    hyps = [" ".join(rng.choices(VOCAB, k=rng.randint(1, max_len)))
            for _ in range(pairs)]
    refs = [" ".join(rng.choices(VOCAB, k=rng.randint(1, max_len)))
            for _ in range(pairs)]
    return hyps, refs


class TestTokenizeEval:
    def test_punctuation_split(self):
        assert tokenize_eval("Hello, world!") == ["hello", ",", "world", "!"]

    def test_empty(self):
        assert tokenize_eval("") == []

    def test_whitespace_collapse(self):
        assert tokenize_eval("A  B") == ["a", "b"]

    def test_lowercases(self):
        assert tokenize_eval("The CAT") == ["the", "cat"]

    # "_", digits of several scripts, combining marks, Unicode spaces and
    # separators, case oddities (U+0130 lowercases to two characters, and a
    # capital sigma lowercases by its place in the word), and anything else.
    @settings(max_examples=300)
    @given(st.text(alphabet=st.one_of(
        st.sampled_from("_a1\u0663\u2167\u00b2\u0301\u20dd\u00a0\u2003"
                        "\u3000\u2028\x1c\x85\t\n \u0130\u00df\u01c5\u03a3"
                        "\u03c2\u03c3.,'-"),
        st.characters())))
    def test_equals_character_loop(self, text):
        assert tokenize_eval(text) == oracle_tokenize(text)


class TestCorpusBleu:
    def test_identity_is_100(self):
        corpus = ["The cat sat.", "A dog ran fast!", "word"]
        report = corpus_bleu(corpus, corpus)
        assert report.score == 100.0
        assert report.brevity_penalty == 1.0

    def test_frozen_repeated_unigram_case(self):
        # computed with the brute-force oracle before this module was built
        report = corpus_bleu(["the the the the"], ["the cat"])
        assert report.score == pytest.approx(31.94715521231363, abs=1e-9)
        assert report.ngram_precisions[0] == pytest.approx(0.25)

    def test_hypotheses_without_tokens_score_zero(self):
        report = corpus_bleu(["", " "], ["the cat", "sat"])
        assert report.score == 0.0
        assert report.ngram_precisions == (0.0, 1.0, 1.0, 1.0)
        assert report.hyp_len == 0
        assert report.brevity_penalty == math.exp(1 - 3)

    def test_disjoint_vocabulary_scores_zero(self):
        report = corpus_bleu(["aa bb cc"], ["xx yy zz"])
        assert report.score == 0.0
        assert report.ngram_precisions[0] == 0.0

    def test_matches_oracle_on_random_corpora(self):
        rng = random.Random(97)
        for _ in range(100):
            hyps, refs = random_corpus(rng)
            expected = oracle_bleu([tokenize_eval(h) for h in hyps],
                                   [tokenize_eval(r) for r in refs])
            assert corpus_bleu(hyps, refs).score == pytest.approx(expected, abs=1e-6)

    def test_permutation_invariance(self):
        rng = random.Random(31)
        hyps, refs = random_corpus(rng, pairs=8)
        base = corpus_bleu(hyps, refs).score
        order = list(range(8))
        rng.shuffle(order)
        assert corpus_bleu([hyps[i] for i in order],
                           [refs[i] for i in order]).score == pytest.approx(base)

    def test_report_internally_consistent(self):
        rng = random.Random(7)
        for _ in range(20):
            hyps, refs = random_corpus(rng)
            report = corpus_bleu(hyps, refs)
            if min(report.ngram_precisions) > 0:
                geo = math.exp(sum(math.log(p) for p in report.ngram_precisions) / 4)
                assert report.score == pytest.approx(
                    100 * report.brevity_penalty * geo)
            assert 0.0 <= report.score <= 100.0
            assert 0.0 < report.brevity_penalty <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(MetricError):
            corpus_bleu(["a"], ["a", "b"])

    def test_empty_corpus(self):
        with pytest.raises(MetricError):
            corpus_bleu([], [])


class TestSbleuWrappers:
    def test_outputs_equal_sources(self):
        texts = ["good food", "the cat sat on the mat"]
        assert self_sbleu(texts, texts) == 100.0

    def test_outputs_equal_references(self):
        texts = ["a fine day", "rain later"]
        assert ref_sbleu(texts, texts) == 100.0

    def test_five_pair_oracle_cross_check(self):
        rng = random.Random(5150)
        outputs, others = random_corpus(rng, pairs=5)
        expected = oracle_bleu([tokenize_eval(h) for h in outputs],
                               [tokenize_eval(r) for r in others])
        assert self_sbleu(outputs, others) == pytest.approx(expected, abs=1e-6)
        assert ref_sbleu(outputs, others) == pytest.approx(expected, abs=1e-6)


class TestSentenceGleu:
    def test_perfect_copy_of_correct_source(self):
        assert sentence_gleu("the cat sat", "the cat sat", "the cat sat") == 1.0

    def test_perfect_correction(self):
        assert sentence_gleu("the cat sit", "the cat sat", "the cat sat") == \
            pytest.approx(1.0)

    def test_frozen_source_only_ngram_case(self):
        # hypothesis keeps the source error "sat"; oracle-computed value
        got = sentence_gleu("the cat sat", "the cat sat", "the cat sits")
        assert got == pytest.approx((1 / 6) ** 0.25, abs=1e-12)
        assert got == pytest.approx(0.6389431042462724, abs=1e-9)

    def test_matches_oracle_on_random_triples(self):
        rng = random.Random(404)
        for _ in range(100):
            src = " ".join(rng.choices(VOCAB, k=rng.randint(1, 6)))
            hyp = " ".join(rng.choices(VOCAB, k=rng.randint(1, 6)))
            ref = " ".join(rng.choices(VOCAB, k=rng.randint(1, 6)))
            expected = oracle_gleu(tokenize_eval(src), tokenize_eval(hyp),
                                   tokenize_eval(ref))
            assert sentence_gleu(src, hyp, ref) == pytest.approx(expected, abs=1e-6)

    def test_range(self):
        rng = random.Random(11)
        for _ in range(50):
            src = " ".join(rng.choices(VOCAB, k=rng.randint(1, 8)))
            hyp = " ".join(rng.choices(VOCAB, k=rng.randint(1, 8)))
            ref = " ".join(rng.choices(VOCAB, k=rng.randint(1, 8)))
            assert 0.0 <= sentence_gleu(src, hyp, ref) <= 1.0

    def test_empty_rejected(self):
        # A one-triple corpus_gleu: its message names the side without tokens.
        for triple, side in ((("", "a", "b"), "src"), (("a", " ", "b"), "hyp"),
                             (("a", "b", "\t"), "ref")):
            with pytest.raises(MetricError, match="^corpus_gleu: triple 0 has "
                               f"no tokens in its {side}$"):
                sentence_gleu(*triple)

    @pytest.mark.parametrize("row, side", [
        (17, "hyp"), (0, "src"), (63, "ref"), (64, "hyp"), (70, "src"),
    ])
    def test_corpus_gleu_names_the_triple_without_tokens(self, row, side):
        triples = [["the cat", "a cat", "a dog"] for _ in range(80)]
        triples[row][("src", "hyp", "ref").index(side)] = ("", " \t")[row % 2]
        triples[row + 3][0] = ""  # a later empty triple is not the one named
        with pytest.raises(MetricError, match=f"^corpus_gleu: triple {row} "
                           f"has no tokens in its {side}$"):
            corpus_gleu(*map(list, zip(*triples)))

    def test_corpus_gleu_names_the_first_empty_side(self):
        with pytest.raises(MetricError, match="triple 1 has no tokens in its hyp"):
            corpus_gleu(["a", "b"], ["a", ""], ["a", ""])

    def test_corpus_mean(self):
        triples = [("the cat sat", "the cat sat", "the cat sat"),
                   ("dog ran", "big dog ran", "big dog ran")]
        expected = sum(sentence_gleu(*t) for t in triples) / 2
        assert corpus_gleu(*map(list, zip(*triples))) == pytest.approx(expected)

    @pytest.mark.parametrize("srcs, hyps, refs, error", [
        (["a"], ["a"], [], "equal-length"),
        ([], [], [], "at least one"),
    ], ids=["length-mismatch", "empty"])
    def test_corpus_gleu_rejects_bad_corpora(self, srcs, hyps, refs, error):
        with pytest.raises(MetricError, match=error):
            corpus_gleu(srcs, hyps, refs)


class TestPerplexity:
    def test_uniform_equals_vocab_size(self):
        ep = BackendEndpoints(score=UniformScoreBackend(50257))
        texts = ["a b c", "d", "e f g h i"]
        assert corpus_perplexity(texts, ep) == pytest.approx(50257, rel=1e-9)

    def test_single_token_quarter_prob(self):
        ep = BackendEndpoints(score=UniformScoreBackend(4))
        assert corpus_perplexity(["word"], ep) == pytest.approx(4.0, rel=1e-12)

    def test_mixed_lengths_invariant(self):
        ep = BackendEndpoints(score=UniformScoreBackend(733))
        rng = random.Random(8)
        for _ in range(10):
            texts = [" ".join(rng.choices(VOCAB, k=rng.randint(1, 9)))
                     for _ in range(rng.randint(1, 6))]
            assert corpus_perplexity(texts, ep) == pytest.approx(733, rel=1e-9)

    def test_empty_corpus(self):
        ep = BackendEndpoints(score=UniformScoreBackend(4))
        with pytest.raises(MetricError):
            corpus_perplexity([], ep)
        with pytest.raises(MetricError, match="no tokens"):
            perplexity_from_totals([])

    def test_overflow_is_a_metric_error(self):
        # Every token scores -log(10**400), about -921: exp(921) overflows.
        ep = BackendEndpoints(score=UniformScoreBackend(10 ** 400))
        with pytest.raises(MetricError, match="overflows"):
            corpus_perplexity(["a b"], ep)
        with pytest.raises(MetricError, match="overflows"):
            perplexity_from_totals([(-710.0, 1)])
        assert perplexity_from_totals([(-709.0, 1)]) == math.exp(709.0)


class TestExactMatch:
    def test_identical(self):
        assert exact_match_accuracy(["a", "b"], ["a", "b"]) == 1.0

    def test_one_of_four(self):
        assert exact_match_accuracy(["a", "b", "c", "x"],
                                    ["a", "b", "c", "d"]) == 0.75

    def test_whitespace_trimmed_and_empty_matches(self):
        assert exact_match_accuracy(["  a ", ""], ["a", " "]) == 1.0

    def test_symmetric(self):
        one, two = ["a", "b", "c"], ["a", "x", "c"]
        assert exact_match_accuracy(one, two) == exact_match_accuracy(two, one)

    def test_length_mismatch(self):
        with pytest.raises(MetricError):
            exact_match_accuracy(["a"], [])

    def test_empty_corpus(self):
        with pytest.raises(MetricError, match="at least one pair"):
            exact_match_accuracy([], [])


class TestClassifierAccuracy:
    def test_perfectly_flipped_corpus(self):
        ep = BackendEndpoints(fill_mask=SentimentMaskBackend())
        outputs = ["bad food", "rude and dirty", "stale bread"]
        assert classifier_accuracy(outputs, ["negative"] * 3, ep,
                                   labels=["positive", "negative"]) == 1.0

    def test_unflipped_copies(self):
        ep = BackendEndpoints(fill_mask=SentimentMaskBackend())
        outputs = ["good food", "fresh and clean"]
        assert classifier_accuracy(outputs, ["negative"] * 2, ep,
                                   labels=["positive", "negative"]) == 0.0

    def test_empty_corpus_rejected(self):
        ep = BackendEndpoints(fill_mask=SentimentMaskBackend())
        with pytest.raises(MetricError):
            classifier_accuracy([], [], ep)

    def test_length_mismatch(self):
        ep = BackendEndpoints(fill_mask=SentimentMaskBackend())
        with pytest.raises(MetricError, match="equal lengths"):
            classifier_accuracy(["bad food"], [], ep,
                                labels=["positive", "negative"])

    def test_needs_two_labels(self):
        ep = BackendEndpoints(fill_mask=SentimentMaskBackend())
        with pytest.raises(MetricError, match="labels"):
            classifier_accuracy(["bad food"], ["negative"], ep)

    def test_labels_default_to_distinct_targets(self):
        ep = BackendEndpoints(fill_mask=SentimentMaskBackend())
        outputs = ["bad food", "good food"]
        assert classifier_accuracy(outputs, ["negative", "positive"], ep) == 1.0

    def test_classifier_endpoint_preferred(self):
        class Exploding:
            def fill_mask(self, text, labels):
                raise AssertionError("mask endpoint must not be used")

        ep = BackendEndpoints(fill_mask=Exploding(),
                              classifier=SentimentMaskBackend())
        assert classifier_accuracy(["bad food"], ["negative"], ep,
                                   labels=["positive", "negative"]) == 1.0


    @pytest.mark.parametrize("scores, label", [
        ({"positive": 0.9, "negative": 0.1}, "positive"),
        ({"positive": 0.5, "negative": 0.5}, "negative"),
        ({"positive": 0.0, "negative": 0.0}, "negative"),
        ({"b": 1.0, "c": 1.0, "a": 0.0}, "b"),
    ])
    def test_top_label_takes_the_first_sorted_on_ties(self, scores, label):
        assert top_label(scores) == label
        assert top_label(dict(reversed(scores.items()))) == label

    def test_prediction_ignores_the_label_order(self):
        class Tied:
            def fill_mask(self, text, labels):
                return MaskFillResponse({label: 0.5 for label in labels})

        ep = BackendEndpoints(classifier=Tied())
        for labels in (["positive", "negative"], ["negative", "positive"]):
            assert predict_style(ep, "food", labels) == "negative"


class TestEvalSummary:
    def test_round_trip(self):
        summary = EvalSummary(r_sbleu=42.5, s_sbleu=77.0, accuracy=0.9,
                              ppl=31.4, gleu=0.5, exact_match=0.25)
        assert EvalSummary.from_dict(summary.to_dict()) == summary

    def test_absent_metrics_stay_none(self):
        summary = EvalSummary(s_sbleu=100.0)
        assert summary.r_sbleu is None
        assert summary.to_dict()["accuracy"] is None

    def test_range_validation(self):
        with pytest.raises(MetricError):
            EvalSummary(accuracy=1.5)
        with pytest.raises(MetricError):
            EvalSummary(r_sbleu=-1.0)
        with pytest.raises(MetricError):
            EvalSummary(ppl=0.0)

    @pytest.mark.parametrize("name, value", [
        ("ppl", math.nan), ("ppl", math.inf), ("ppl", True),
        ("accuracy", True), ("r_sbleu", "12"),
    ])
    def test_metrics_are_finite_numbers(self, name, value):
        with pytest.raises(MetricError, match=name):
            EvalSummary(**{name: value})


@settings(max_examples=60)
@given(st.lists(st.tuples(
    st.lists(st.sampled_from(VOCAB), min_size=1, max_size=8),
    st.lists(st.sampled_from(VOCAB), min_size=1, max_size=8)),
    min_size=1, max_size=6))
def test_bleu_oracle_property(pairs):
    hyps = [" ".join(h) for h, _ in pairs]
    refs = [" ".join(r) for _, r in pairs]
    expected = oracle_bleu([tokenize_eval(h) for h in hyps],
                           [tokenize_eval(r) for r in refs])
    assert corpus_bleu(hyps, refs).score == pytest.approx(expected, abs=1e-6)


@settings(max_examples=60)
@given(st.lists(st.sampled_from(VOCAB), min_size=1, max_size=8),
       st.lists(st.sampled_from(VOCAB), min_size=1, max_size=8))
def test_gleu_copy_identity_property(src, ref):
    # a hypothesis equal to the reference is a perfect correction
    hyp = " ".join(ref)
    assert sentence_gleu(" ".join(src), hyp, hyp) == pytest.approx(1.0)


TEXTS = st.lists(st.sampled_from(VOCAB + ["Sat", "mat."]), min_size=1,
                 max_size=8).map(" ".join)


@settings(max_examples=60)
@given(st.lists(st.tuples(st.one_of(st.just(" "), TEXTS), TEXTS, st.one_of(
    st.none(), st.just(" "), TEXTS)), min_size=1, max_size=6))
def test_summarize_equals_the_metric_functions(triples):
    # A blank source leaves a row out of s-sBLEU and GLEU; absent and blank
    # references leave it out of the reference metrics.
    rows = [EvalRow(hyp, src, ref) for src, hyp, ref in triples]
    sourced = [(s, h) for s, h, _ in triples if s.strip()]
    refd = [(s, h, r) for s, h, r in triples if r is not None and r.strip()]
    both = [(s, h, r) for s, h, r in refd if s.strip()]
    summary = summarize(rows)
    if sourced:
        assert summary.s_sbleu == self_sbleu([h for _, h in sourced],
                                             [s for s, _ in sourced])
    else:
        assert summary.s_sbleu is None
    if refd:
        hyps, refs = [h for _, h, _ in refd], [r for _, _, r in refd]
        assert summary.r_sbleu == ref_sbleu(hyps, refs)
        assert summary.exact_match == exact_match_accuracy(hyps, refs)
    else:
        assert summary.r_sbleu is summary.exact_match is None
    if both:
        assert summary.gleu == corpus_gleu(*(list(texts) for texts in zip(*both)))
    else:
        assert summary.gleu is None
    assert summary.accuracy is summary.ppl is None


GRAM_WORDS = st.sampled_from(["the", "cat", "sat", "Σ", "a_b", "42", "."])


@st.composite
def gram_triples(draw):
    """(src, hyp, ref) triples whose sides share a phrase repeated up to three
    times each, so clipping takes a minimum above 1, and whose src and hyp
    share a repeated gram "qq zz" that no reference holds; any side may be
    blank, and a reference may be absent."""
    phrase = draw(st.lists(GRAM_WORDS, min_size=1, max_size=3))

    def side(extra=()):
        words = draw(st.lists(GRAM_WORDS, max_size=6))
        at = draw(st.integers(0, len(words)))
        text = " ".join(words[:at] + phrase * draw(st.integers(0, 3))
                        + list(extra) + words[at:])
        return draw(st.sampled_from([text, text, text, text.upper(), " "]))

    src_only = ["qq", "zz"] * draw(st.integers(0, 3))
    ref = side() if draw(st.booleans()) else None
    return side(src_only), side(src_only), ref


def _chunked(rows, fn, *args):
    with mock.patch.object(metrics, "CHUNK_ROWS", rows):
        return fn(*args)


def _row_table(rows):
    """:func:`metrics.row_stats` of (hyp, ref, src) rows, one (lengths,
    by_reference, by_source, gleu) tuple per row."""
    return [row for table in metrics.row_stats(rows) for row in zip(
        table.lengths.T.tolist(), table.by_reference.T.tolist(),
        table.by_source.T.tolist(), table.gleu)]


@settings(max_examples=150, deadline=None)
@given(st.lists(gram_triples(), min_size=1, max_size=9), st.integers(1, 4))
@example([("the cat qq zz qq zz", "the the cat qq zz qq zz", "the the cat")] * 5, 2)
def test_chunk_boundaries_change_nothing(triples, chunk):
    srcs = [s for s, _, _ in triples]
    hyps = [h for _, h, _ in triples]
    refs = [r if r is not None else "" for _, _, r in triples]
    whole = 10 ** 6
    for outputs, others in ((hyps, refs), (hyps, srcs)):
        report = _chunked(chunk, corpus_bleu, outputs, others)
        assert report == _chunked(whole, corpus_bleu, outputs, others)
        assert report.score == pytest.approx(oracle_bleu(
            [tokenize_eval(o) for o in outputs],
            [tokenize_eval(o) for o in others]), abs=1e-9)
    rows = [EvalRow(h, s, r) for s, h, r in triples]
    assert _chunked(chunk, summarize, rows) == _chunked(whole, summarize, rows)
    texts = list(zip(hyps, refs, srcs))
    assert _chunked(chunk, _row_table, texts) == _chunked(whole, _row_table, texts)
    scored = [t for t in zip(srcs, hyps, refs) if all(x.strip() for x in t)]
    if scored:
        columns = [list(texts) for texts in zip(*scored)]
        gleu = _chunked(chunk, corpus_gleu, *columns)
        assert gleu == _chunked(whole, corpus_gleu, *columns)
        assert gleu == pytest.approx(sum(
            oracle_gleu(*map(tokenize_eval, t)) for t in scored) / len(scored),
            abs=1e-9)


def oracle_row_stats(hyp, other):
    """One row's BLEU statistics from the oracle's n-gram lists."""
    hyp, other = tokenize_eval(hyp), tokenize_eval(other)
    stats = [len(hyp), len(other)]
    for n in range(1, 5):
        stats += [clipped_matches(ngram_list(hyp, n), ngram_list(other, n)),
                  max(len(hyp) + 1 - n, 0)]
    return stats


# Chunks of (hyp, ref, src) rows at the kernel's edges.
EDGE_CHUNKS = {
    "all-blank": [("", " ", "\t"), (" ", "", ""), ("\n", "\u3000", " ")],
    # No whole n-gram above order 1.
    "one-token": [("a", "a", "b"), ("b", "c", "b"), ("Σ", "σ", "."),
                  ("c", "", "c")],
    "one-row": [("the cat sat on the mat", "the cat sits on a mat",
                 "a cat sat on the mat")],
    # Both rows hold "the cat": row 0's hyp repeats it more often than its
    # ref, row 1's ref more often than its hyp, and it is source-only in
    # row 0 alone. Clipped or dropped over the chunk instead of per row, the
    # counts differ.
    "shared-gram": [("the cat the cat the cat", "the dog", "the cat"),
                    ("the cat", "the cat the cat", "the cat")],
}


@pytest.mark.parametrize("rows", EDGE_CHUNKS.values(), ids=EDGE_CHUNKS)
def test_kernel_edges_match_the_oracle(rows):
    [table] = metrics.row_stats(rows)
    assert table.lengths.tolist() == [[len(tokenize_eval(text)) for text in side]
                                      for side in zip(*rows)]
    for stats, other in ((table.by_reference, 1), (table.by_source, 2)):
        assert stats.T.tolist() == [
            oracle_row_stats(row[0], row[other]) for row in rows]
    full = [i for i, row in enumerate(rows) if all(t.strip() for t in row)]
    assert [table.gleu[i] for i in full] == pytest.approx(
        [oracle_gleu(*map(tokenize_eval, (rows[i][2], rows[i][0], rows[i][1])))
         for i in full], abs=1e-12)
    # Without a src side the table holds the ref statistics alone.
    [pair] = metrics.row_stats([row[:2] for row in rows])
    assert pair.by_source is pair.gleu is None
    assert pair.by_reference.tolist() == table.by_reference.tolist()
    hyps, refs, srcs = (list(texts) for texts in zip(*rows))
    for others in (refs, srcs):
        assert corpus_bleu(hyps, others).score == pytest.approx(oracle_bleu(
            [tokenize_eval(h) for h in hyps],
            [tokenize_eval(o) for o in others]), abs=1e-9)


def test_summary_working_set_does_not_grow_with_the_corpus():
    rng = random.Random(3)
    pool = [EvalRow(*(" ".join(rng.choices(VOCAB, k=rng.randint(3, 12)))
                      for _ in range(3))) for _ in range(500)]
    rows = pool * 40
    tracemalloc.start()
    try:
        summarize(rows[:2000])
        small = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        summarize(rows)
        large = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert large <= 2 * small, (small, large)


class TestSummarize:
    def test_outputs_alone_give_no_metrics(self):
        assert summarize([EvalRow("the cat")]) == EvalSummary()

    def test_empty_rejected(self):
        with pytest.raises(MetricError):
            summarize([])

    def test_fluency_totals_win_over_score_calls(self):
        ep = BackendEndpoints(score=UniformScoreBackend(vocab_size=7))
        rows = [EvalRow("the cat sat")]
        assert summarize(rows, ep).ppl == pytest.approx(7.0)
        assert summarize(rows, ep, fluency=[(-3.0, 3)]).ppl == pytest.approx(math.e)

    def test_accuracy_needs_two_labels_and_a_classifier(self):
        ep = BackendEndpoints(fill_mask=SentimentMaskBackend())
        both = [EvalRow("good food", source_style="negative", target_style="positive"),
                EvalRow("bad food", source_style="positive", target_style="negative")]
        one_way = [EvalRow("good food", source_style="negative",
                           target_style="negative")]
        assert summarize(both, ep).accuracy == 1.0
        assert summarize(both).accuracy is None
        assert summarize(one_way, ep).accuracy is None
        assert summarize(one_way, ep, labels=["negative", "positive"]).accuracy == 0.0
        assert summarize(both, ep, predicted=["negative", "negative"]).accuracy == 0.5

    @pytest.mark.parametrize("given, message", [
        ({"predicted": ["x"]}, "predicted has 1 entries for 2 rows"),
        ({"predicted": ["x", "y", "x"]}, "predicted has 3 entries for 2 rows"),
        ({"fluency": [(-3.0, 3)]}, "fluency has 1 entries for 2 rows"),
        ({"fluency": []}, "fluency has 0 entries for 2 rows"),
    ], ids=["short-predicted", "long-predicted", "short-fluency", "empty-fluency"])
    def test_per_row_lists_match_the_rows(self, given, message):
        # A short list once scored only the rows it reached: accuracy 0.5
        # from one label over two rows, or a PPL from one row's totals.
        rows = [EvalRow("a", target_style="x"), EvalRow("b", target_style="y")]
        with pytest.raises(MetricError, match=f"^summarize: {message}$"):
            summarize(rows, **given)

    def test_blank_output_scores_zero_with_no_backend_call(self):
        class Recorder:
            """Front for a service that records the texts it is asked about."""

            def __init__(self, service):
                self.service, self.texts = service, []

            def fill_mask(self, text, labels):
                self.texts.append(text)
                return self.service.fill_mask(text, labels)

            def score_tokens(self, text):
                self.texts.append(text)
                return self.service.score_tokens(text)

        classifier = Recorder(SentimentMaskBackend())
        scorer = Recorder(UniformScoreBackend(vocab_size=7))
        ep = BackendEndpoints(classifier=classifier, score=scorer)
        rows = [EvalRow("good food", "bad food", "good food", "negative", "positive"),
                EvalRow(" \t", "bad day", "good day", "negative", "positive")]
        summary = summarize(rows, ep)
        assert summary.gleu == sentence_gleu("bad food", "good food", "good food") / 2
        assert summary.accuracy == 0.5
        assert summary.ppl == pytest.approx(7.0)
        assert summary.exact_match == 0.5
        assert classifier.texts == ["good food"]
        assert scorer.texts == ["good food"]

    def test_unscorable_label_leaves_accuracy_absent(self, caplog):
        class Counting(SentimentMaskBackend):
            calls = 0

            def fill_mask(self, text, labels):
                self.calls += 1
                return super().fill_mask(text, labels)

        mask = Counting()
        ep = BackendEndpoints(fill_mask=mask,
                              score=UniformScoreBackend(vocab_size=7))
        rows = [EvalRow("good food", "bad food", "good food", "negative", "formal"),
                EvalRow("bad day", "good day", "bad day", "positive", "negative")]
        with caplog.at_level("WARNING"):
            summary = summarize(rows, ep)
        assert summary.accuracy is None
        assert summary.exact_match == 1.0
        assert summary.ppl == pytest.approx(7.0)
        assert mask.calls == 1
        assert [r.getMessage() for r in caplog.records] == [
            "accuracy not measured: the service cannot score the labels "
            "formal, negative, positive (label errors: formal: label not in "
            "backend vocabulary)"]

    def test_only_blank_outputs_leave_ppl_absent(self):
        ep = BackendEndpoints(score=UniformScoreBackend(vocab_size=7))
        assert summarize([EvalRow(""), EvalRow("  ")], ep).ppl is None
