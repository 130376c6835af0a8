import math
import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fakes import FactorTableBackend, FixedEmbedBackend, StaticMaskBackend
from oracles import known_bound, oracle_rerank_plan
from restyle.backends import (
    BackendEndpoints,
    BackendError,
    DecodeConfig,
    LabelError,
)
from restyle.mocks import (
    HashEmbedBackend,
    SentimentMaskBackend,
    UniformScoreBackend,
    mock_endpoints,
)
from restyle.prompts import TransferRequest, parse_style, render_cloze
from restyle.reranking import (
    PROB_FLOOR,
    STRENGTH_SOURCES,
    Candidate,
    RerankConfig,
    RerankScore,
    _first_max,
    asks_classifier,
    classifier_strength,
    fluency_logprob,
    label_likelihoods,
    rerank,
    similarity_score,
    style_strength,
    top_beam_baseline,
)

POS = "positive"
NEG = "negative"


def make_pool(*texts, gen_scores=None):
    scores = gen_scores or [-0.5 - 0.1 * i for i in range(len(texts))]
    return [Candidate(text=t, gen_score=s, index=i)
            for i, (t, s) in enumerate(zip(texts, scores))]


class TestSimilarity:
    def test_identical_texts_score_one(self, mock_ep):
        assert similarity_score("fresh bread today", "fresh bread today",
                                mock_ep) == 1.0

    def test_identical_texts_embed_once(self):
        embedded = []

        class LoggedEmbed(HashEmbedBackend):
            def embed_tokens(self, text):
                embedded.append(text)
                return super().embed_tokens(text)

        ep = BackendEndpoints(embed=LoggedEmbed())
        assert similarity_score("fresh bread", "fresh bread", ep) == 1.0
        assert embedded == ["fresh bread"]

    def test_symmetric(self, mock_ep):
        pairs = [("good food", "bad food"),
                 ("the room was clean", "a clean room"),
                 ("one two three", "four five")]
        for a, b in pairs:
            assert similarity_score(a, b, mock_ep) == \
                pytest.approx(similarity_score(b, a, mock_ep), rel=1e-12)

    def test_two_token_hand_case(self):
        # "a b" vs "a c" with unit vectors: cos(a,a)=1, cos(b,c)=cos45.
        table = {
            "a": (1.0, 0.0),
            "b": (0.0, 1.0),
            "c": (math.sqrt(0.5), math.sqrt(0.5)),
        }
        ep = BackendEndpoints(embed=FixedEmbedBackend(table))
        got = similarity_score("a b", "a c", ep)

        # brute-force greedy match over the explicit 2x2 cosine matrix
        def cos(u, v):
            return sum(x * y for x, y in zip(u, v))

        sims = [[cos(table[s], table[c]) for c in ("a", "c")] for s in ("a", "b")]
        recall = sum(max(row) for row in sims) / 2
        precision = sum(max(col) for col in zip(*sims)) / 2
        expected = 2 * precision * recall / (precision + recall)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx((2 + math.sqrt(2)) / 4, abs=1e-12)

    def test_range(self, mock_ep):
        value = similarity_score("alpha beta", "gamma delta", mock_ep)
        assert 0.0 < value <= 1.0

    def test_opposite_tokens_score_the_floor(self):
        # cos = -1 gives precision + recall = -2, with no F1 to take
        ep = BackendEndpoints(embed=FixedEmbedBackend({"a": (1.0, 0.0),
                                                       "b": (-1.0, 0.0)}))
        assert similarity_score("a", "b", ep) == PROB_FLOOR

    def test_empty_text_rejected(self, mock_ep):
        with pytest.raises(ValueError):
            similarity_score("", "x", mock_ep)


class TestStyleStrength:
    def test_l1_normalization(self):
        ep = BackendEndpoints(fill_mask=StaticMaskBackend(
            {"positive": 0.1, "negative": 0.3}))
        assert style_strength("x", POS, NEG, ep) == (pytest.approx(0.75),
                                                   {POS: 0.1, NEG: 0.3})

    def test_double_zero_gives_half(self):
        ep = BackendEndpoints(fill_mask=StaticMaskBackend({}))
        assert style_strength("x", POS, NEG, ep)[0] == 0.5

    def test_flipped_sentence_toward_target(self):
        ep = BackendEndpoints(fill_mask=SentimentMaskBackend())
        assert style_strength("bad food", POS, NEG, ep)[0] > 0.5

    def test_complement_identity_on_rationals(self):
        values = [Fraction(n, d) for d in (1, 2, 3, 4) for n in range(0, d + 1)]
        for a in values:
            for b in values:
                ep = BackendEndpoints(fill_mask=StaticMaskBackend(
                    {"positive": float(a), "negative": float(b)}))
                forward = style_strength("x", POS, NEG, ep)[0]
                backward = style_strength("x", NEG, POS, ep)[0]
                assert forward + backward == pytest.approx(1.0, abs=1e-12)

    def test_same_style_rejected(self, mock_ep):
        with pytest.raises(ValueError):
            style_strength("x", POS, POS, mock_ep)
        with pytest.raises(ValueError, match="at least 2 distinct labels"):
            style_strength("x", "not negative", parse_style(" Not  negative"),
                           mock_ep)

    def test_multi_token_label_rejected(self):
        ep = BackendEndpoints(fill_mask=SentimentMaskBackend())
        with pytest.raises(LabelError, match="label not single-token"):
            style_strength("x", "not positive", NEG, ep)


class TestLabelRule:
    @pytest.mark.parametrize("strength_source, with_classifier, expected", [
        (None, False, False),
        (None, True, True),
        ("mlm_cloze", False, False),
        ("mlm_cloze", True, False),
        ("external_classifier", False, False),
        ("external_classifier", True, True),
    ])
    def test_asks_classifier(self, strength_source, with_classifier, expected):
        ep = BackendEndpoints(fill_mask=StaticMaskBackend({}), classifier=(
            StaticMaskBackend({}) if with_classifier else None))
        assert asks_classifier(ep, strength_source) is expected

    def test_lookup_sends_the_cloze_or_the_text(self):
        asked = []

        class Recording(StaticMaskBackend):
            def fill_mask(self, text, labels):
                asked.append((self.table[POS], text))
                return super().fill_mask(text, labels)

        ep = BackendEndpoints(fill_mask=Recording({POS: 0.25, NEG: 0.5}),
                              classifier=Recording({POS: 0.75, NEG: 0.5}))
        assert label_likelihoods("good", [POS, NEG], ep, False) == \
            {POS: 0.25, NEG: 0.5}
        assert label_likelihoods("good", [POS, NEG], ep, True) == \
            {POS: 0.75, NEG: 0.5}
        assert asked == [(0.25, render_cloze("good", "<mask>")), (0.75, "good")]

    # Each path's own blank rule: render_cloze's, or backends.classify's.
    @pytest.mark.parametrize("classifier, error", [
        (False, r"^cloze text must be a non-blank string, got ' \\t'$"),
        (True, "^text to classify must be non-empty$"),
    ], ids=["False", "True"])
    def test_blank_text_rejected(self, classifier, error):
        ep = BackendEndpoints(fill_mask=StaticMaskBackend({}),
                              classifier=StaticMaskBackend({}))
        with pytest.raises(ValueError, match=error):
            label_likelihoods(" \t", [POS, NEG], ep, classifier)

    def test_classifier_strength_needs_a_classifier(self):
        # No cloze fallback: the mask filler is there, but not asked.
        ep = BackendEndpoints(fill_mask=StaticMaskBackend({POS: 1.0}))
        with pytest.raises(BackendError,
                           match="^no classifier endpoint configured$"):
            classifier_strength("x", POS, NEG, ep)


class TestFluency:
    def test_uniform_four_tokens(self, mock_ep):
        assert fluency_logprob("a b c d", mock_ep) == \
            (pytest.approx(4 * -math.log(50257)), 4)

    def test_single_token(self):
        ep = BackendEndpoints(score=UniformScoreBackend(4))
        assert fluency_logprob("word", ep) == (pytest.approx(-math.log(4)), 1)

    def test_longer_is_less_fluent(self, mock_ep):
        short, _ = fluency_logprob("one two", mock_ep)
        long, _ = fluency_logprob("one two three four", mock_ep)
        assert long < short


class TestRerank:
    def request(self, text="the food was good"):
        return TransferRequest(input_text=text, source_style=POS,
                               target_style=NEG)

    def test_argmax_of_stub_composites(self, monkeypatch, mock_ep):
        composites = [-2.0, -1.0, -5.0]

        def stub(req, pool, cfg):
            return [RerankScore(composites[cand.index], 0.0, None,
                                composites[cand.index]) for cand in pool]

        monkeypatch.setattr("restyle.reranking.score_pool", stub)
        pool = make_pool("a", "b", "c")
        winner, scores = rerank(self.request(), pool,
                                RerankConfig(endpoints=mock_ep))
        assert winner.index == 1
        assert [s.composite for s in scores] == composites

    def test_all_equal_composites_tie_to_first(self, monkeypatch, mock_ep):
        monkeypatch.setattr("restyle.reranking.score_pool",
                            lambda req, pool, cfg: [RerankScore(-1.0, 0.0, None, -1.0)
                                                    for _ in pool])
        pool = make_pool("a", "b", "c")
        winner, _ = rerank(self.request(), pool, RerankConfig(endpoints=mock_ep))
        assert winner.index == 0

    def test_adversarial_copy_vs_flip(self, mock_ep):
        # candidate A copies the source (similarity 1, strength 0.1 toward
        # the target), candidate B is the antonym flip (strength 0.9);
        # B must win because the strength gap outweighs the similarity gap.
        # A's strength alone rules it out, so its similarity is not asked.
        cfg = RerankConfig(k=2, use_fluency=False, endpoints=mock_ep)
        req = self.request("the food was good")
        pool = make_pool("the food was good", "the food was bad")
        winner, scores = rerank(req, pool, cfg)
        assert winner.text == "the food was bad"

        sim_a = similarity_score("the food was good", "the food was good",
                                 mock_ep)
        strength_a, _ = style_strength("the food was good", POS, NEG, mock_ep)
        composite_a = math.log(sim_a) + math.log(strength_a)
        assert composite_a == pytest.approx(math.log(1.0) + math.log(0.1),
                                            abs=1e-9)
        sim_b = similarity_score("the food was good", "the food was bad", mock_ep)
        composite_b = math.log(sim_b) + math.log(0.9)
        assert scores[0].composite is None
        assert scores[0].log_similarity is None
        assert scores[0].log_strength == pytest.approx(math.log(0.1), abs=1e-9)
        assert scores[0].log_strength < scores[1].composite
        assert scores[1].composite == pytest.approx(composite_b, abs=1e-9)
        assert composite_b > composite_a

    def test_winner_in_pool_and_scores_parallel(self, mock_ep):
        cfg = RerankConfig(endpoints=mock_ep)
        pool = make_pool("the food was bad", "the food was good", "food")
        winner, scores = rerank(self.request(), pool, cfg)
        assert winner in pool
        assert len(scores) == len(pool)

    def test_empty_pool_rejected(self, mock_ep):
        with pytest.raises(ValueError):
            rerank(self.request(), [], RerankConfig(endpoints=mock_ep))

    def test_no_fluency_never_calls_score_endpoint(self, mock_ep):
        class Exploding:
            def score_tokens(self, text):
                raise AssertionError("score endpoint must not be called")

        ep = BackendEndpoints(complete="mock://lexicon-flip", score=Exploding(),
                              fill_mask="mock://sentiment",
                              embed="mock://hash-embed")
        cfg = RerankConfig(use_fluency=False, endpoints=ep)
        pool = make_pool("the food was bad", "the food was good")
        winner, scores = rerank(self.request(), pool, cfg)
        assert all(s.log_fluency is None for s in scores)
        assert scores[0].composite == pytest.approx(
            scores[0].log_similarity + scores[0].log_strength)
        # The copy is pruned on its strength; its full composite, from the
        # factor functions, is below the flip's.
        assert scores[1].composite is None
        assert scores[1].log_strength < scores[0].composite
        copy = "the food was good"
        log_strength = math.log(style_strength(copy, POS, NEG, ep)[0])
        copy_composite = math.log(similarity_score(copy, copy, ep)) + log_strength
        assert scores[1].log_strength == pytest.approx(log_strength)
        assert copy_composite < scores[0].composite

    def test_fluency_included_in_composite(self, mock_ep):
        cfg = RerankConfig(endpoints=mock_ep)
        pool = make_pool("the food was bad")
        _, scores = rerank(self.request(), pool, cfg)
        s = scores[0]
        assert s.log_fluency is not None
        assert s.composite == pytest.approx(
            s.log_similarity + s.log_strength + s.log_fluency)

    def test_external_classifier_source(self, mock_ep):
        class Exploding:
            def fill_mask(self, text, labels):
                raise AssertionError("cloze endpoint must not be called")

        ep = BackendEndpoints(complete="mock://lexicon-flip",
                              fill_mask=Exploding(),
                              classifier=SentimentMaskBackend(),
                              embed="mock://hash-embed",
                              score="mock://uniform")
        cfg = RerankConfig(strength_source="external_classifier", endpoints=ep)
        pool = make_pool("the food was bad")
        _, scores = rerank(self.request(), pool, cfg)
        assert scores[0].log_strength == pytest.approx(math.log(0.9))

    def test_monotonic_in_each_factor(self):
        base = RerankScore(-0.5, -0.7, -3.0, -4.2)
        for delta in (0.1, 1.0):
            worse_sim = base.log_similarity - delta
            assert worse_sim + base.log_strength + base.log_fluency < base.composite

    def test_invalid_config(self):
        with pytest.raises(ValueError, match="k must be >= 1, got 0"):
            RerankConfig(k=0)
        with pytest.raises(ValueError, match="strength_source must be one of"):
            RerankConfig(strength_source="oracle")
        with pytest.raises(ValueError, match="max_new_tokens"):
            RerankConfig(max_new_tokens=0)
        for field in ("k", "max_new_tokens"):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                RerankConfig(**{field: True})
        with pytest.raises(ValueError, match="temperature"):
            RerankConfig(decode=DecodeConfig(temperature=math.nan))
        with pytest.raises(ValueError, match="beam_width"):
            RerankConfig(decode=DecodeConfig(beam_width=0))
        with pytest.raises(ValueError, match="beam_width must be >= the 5 "):
            RerankConfig(k=5, decode=DecodeConfig(beam_width=3))
        RerankConfig(k=5, decode=DecodeConfig(mode="sample", beam_width=3),
                     endpoints=mock_endpoints())
        with pytest.raises(ValueError, match="max_retries"):
            RerankConfig(endpoints=BackendEndpoints(max_retries=0))

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_use_fluency_must_be_a_bool(self, value):
        # As a count must be an int: "false" would turn fluency on and reach
        # the manifest config, and so the run id, as a string.
        with pytest.raises(ValueError,
                           match=f"^use_fluency must be a bool, got {value!r}$"):
            RerankConfig(use_fluency=value)

    @pytest.mark.parametrize("missing", ["complete", "score", "fill_mask", "embed"])
    @pytest.mark.parametrize("classifier", [None, "mock://sentiment"])
    @pytest.mark.parametrize("use_fluency", [True, False])
    @pytest.mark.parametrize("strength_source", STRENGTH_SOURCES)
    def test_missing_endpoint_refused_when_built(self, strength_source,
                                                 use_fluency, classifier,
                                                 missing):
        # complete and embed always; score with fluency; fill_mask unless a
        # classifier answers strength, as the cloze answers it without one.
        needed = {"complete": True, "embed": True, "score": use_fluency,
                  "fill_mask": not (classifier and
                                    strength_source == "external_classifier")}
        endpoints = mock_endpoints(classifier=classifier, **{missing: None})
        settings = dict(strength_source=strength_source,
                        use_fluency=use_fluency, endpoints=endpoints)
        for build in (lambda: RerankConfig(**settings),
                      lambda: replace(RerankConfig(endpoints=mock_endpoints()),
                                      **settings)):
            if needed[missing]:
                with pytest.raises(ValueError, match=(
                        f"^missing backend endpoints: "
                        f"RESTYLE_{missing.upper()}_URL \\({missing}\\b")):
                    build()
            else:
                assert build().endpoints is endpoints

    def test_every_missing_endpoint_named(self):
        with pytest.raises(ValueError, match=re.escape(
                "missing backend endpoints: RESTYLE_COMPLETE_URL (complete), "
                "RESTYLE_FILL_MASK_URL (fill_mask), RESTYLE_EMBED_URL (embed), "
                "RESTYLE_SCORE_URL (score, or use_fluency=False)")):
            RerankConfig()

    @pytest.mark.parametrize("endpoints", [None, "mock://lexicon-flip", {}],
                             ids=["none", "url", "dict"])
    def test_endpoints_must_be_backend_endpoints(self, endpoints, mock_ep):
        # Refused by name, not with an AttributeError from the endpoint check.
        message = f"endpoints must be a BackendEndpoints, got {endpoints!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RerankConfig(endpoints=endpoints)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(RerankConfig(endpoints=mock_ep), endpoints=endpoints)


class TestTopBeamBaseline:
    def test_highest_gen_score_wins(self):
        pool = make_pool("a", "b", "c", gen_scores=[-1.2, -0.7, -3.0])
        # build unordered pool by hand: baseline must rank by score not order
        pool = [Candidate("a", -1.2, 0), Candidate("b", -0.7, 1),
                Candidate("c", -3.0, 2)]
        assert top_beam_baseline(pool).index == 1

    def test_ties_break_to_lowest_index(self):
        pool = [Candidate("a", -1.0, 0), Candidate("b", -1.0, 1)]
        assert top_beam_baseline(pool).index == 0

    def test_singleton(self):
        pool = [Candidate("only", -2.0, 0)]
        assert top_beam_baseline(pool) is pool[0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            top_beam_baseline([])


# Exact arithmetic: over floats a shift rounds each sum, so a near-tie can
# become a tie or flip, while the property holds over the reals.
@given(st.lists(st.tuples(st.fractions(-10, 0), st.fractions(-10, 0),
                          st.fractions(-60, 0)),
                min_size=1, max_size=6),
       st.fractions(-5, 5), st.integers(0, 2))
def test_argmax_invariant_under_factor_shift(tuples, shift, which):
    def winner(rows):
        best = 0
        for i in range(1, len(rows)):
            if sum(rows[i]) > sum(rows[best]):
                best = i
        return best

    shifted = [tuple(v + shift if j == which else v for j, v in enumerate(row))
               for row in tuples]
    assert winner(tuples) == winner(shifted)


def test_rerank_argmax_invariance_through_scaled_backend():
    # scaling both raw mask likelihoods by a constant leaves the winner
    # unchanged (the l1 normalization absorbs it exactly)
    req = TransferRequest(input_text="the food was good", source_style=POS,
                          target_style=NEG)
    pool = make_pool("the food was bad", "the food was good")
    results = []
    for scale in (1.0, 3.0):
        ep = mock_endpoints(
            fill_mask=StaticMaskBackend({"positive": 0.2 * scale,
                                         "negative": 0.6 * scale}))
        cfg = RerankConfig(use_fluency=False, endpoints=ep)
        winner, _ = rerank(req, pool, cfg)
        results.append(winner.index)
    assert results[0] == results[1]


# A few values drawn again and again, so that distinct texts often share
# every factor (an exact composite tie) or their fluency alone, plus free
# draws. A row at (1, 0) is the source's direction.
_ROWS = st.one_of(st.sampled_from([(1.0, 0.0), (0.6, 0.8), (0.0, 1.0),
                                   (-1.0, 0.0)]),
                  st.tuples(st.floats(-1, 1), st.floats(-1, 1)).filter(
                      lambda row: math.hypot(*row) > 1e-3))
_LIKELIHOODS = st.tuples(*[st.one_of(st.sampled_from([0.0, 0.25, 1.0]),
                                     st.floats(0, 1e3))] * 2)
_LOGPROBS = st.lists(st.one_of(st.sampled_from([-1.0, -2.5]),
                               st.floats(-60, 0)), min_size=1, max_size=3)
_SOURCE = "the source"


@st.composite
def factor_tables(draw):
    """A pool over the source and four other texts, and a backend whose
    tables give each text a factor profile; a few shared profiles make
    ties common."""
    profiles = draw(st.lists(st.tuples(_ROWS, _LIKELIHOODS, _LOGPROBS),
                             min_size=1, max_size=3))
    texts = [_SOURCE, "a", "b", "c", "d"]
    rows, likelihoods, logprobs = {_SOURCE: (1.0, 0.0)}, {}, {}
    for text in texts:
        row, (l_source, l_target), tokens = draw(st.one_of(
            st.sampled_from(profiles),
            st.tuples(_ROWS, _LIKELIHOODS, _LOGPROBS)))
        rows.setdefault(text, row)
        likelihoods[render_cloze(text, "<mask>")] = {POS: l_source,
                                                     NEG: l_target}
        logprobs[text] = tokens
    pool_texts = draw(st.lists(st.sampled_from(texts), min_size=1,
                               max_size=6))
    return make_pool(*pool_texts), FactorTableBackend(rows, likelihoods,
                                                      logprobs)


@given(tables=factor_tables(), use_fluency=st.booleans())
@settings(max_examples=300, deadline=None)
def test_pruned_rerank_picks_the_full_argmax(tables, use_fluency):
    pool, backend = tables
    endpoints = BackendEndpoints(complete="mock://lexicon-flip", embed=backend,
                                 fill_mask=backend, score=backend)
    req = TransferRequest(input_text=_SOURCE, source_style=POS,
                          target_style=NEG)
    winner, scores = rerank(req, pool, RerankConfig(use_fluency=use_fluency,
                                                    endpoints=endpoints))
    asked = list(backend.asked)

    def factors(text):
        sim = similarity_score(_SOURCE, text, endpoints)
        strength, _ = style_strength(text, POS, NEG, endpoints)
        return {"log_similarity": math.log(max(sim, PROB_FLOOR)),
                "log_strength": math.log(max(strength, PROB_FLOOR)),
                "log_fluency": (fluency_logprob(text, endpoints)[0]
                                if use_fluency else None)}

    # Every factor of every distinct text, from the factor functions.
    full = {text: factors(text) for text in dict.fromkeys(c.text for c in pool)}
    composites = [known_bound(full[cand.text]) for cand in pool]
    assert winner is pool[_first_max(composites)]

    # The calls follow the best-first rule: each text's factors in order,
    # the source embedded once just before the first similarity, and a text
    # equal to the source reusing its rows.
    plan, known = oracle_rerank_plan(full, use_fluency)
    expected = []
    for factor, text in plan:
        if factor == "log_fluency":
            expected.append(("score", text))
        elif factor == "log_strength":
            expected.append(("fill_mask", render_cloze(text, "<mask>")))
        else:
            if ("embed", _SOURCE) not in expected:
                expected.append(("embed", _SOURCE))
            if text != _SOURCE:
                expected.append(("embed", text))
    assert asked == expected

    # A scored entry holds every factor and the full composite; a pruned one
    # holds the factors it was given, and their bound is below the winner's.
    best = scores[pool.index(winner)].composite
    for cand, score in zip(pool, scores):
        entry = score.to_dict()
        composite = entry.pop("composite")
        given = {name: value for name, value in entry.items()
                 if value is not None}
        assert given == known[cand.text]
        if composite is None:
            assert known_bound(given) < best
        else:
            assert len(given) == (3 if use_fluency else 2)
            assert composite == composites[pool.index(cand)]
