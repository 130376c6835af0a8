import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fakes import FixedEmbedBackend, StaticMaskBackend
from restyle.backends import BackendEndpoints, DecodeConfig, LabelError
from restyle.mocks import (
    HashEmbedBackend,
    SentimentMaskBackend,
    UniformScoreBackend,
    mock_endpoints,
)
from restyle.prompts import TransferRequest, parse_style
from restyle.reranking import (
    PROB_FLOOR,
    Candidate,
    RerankConfig,
    RerankScore,
    fluency_logprob,
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
        assert style_strength("x", POS, NEG, ep) == pytest.approx(0.75)

    def test_double_zero_gives_half(self):
        ep = BackendEndpoints(fill_mask=StaticMaskBackend({}))
        assert style_strength("x", POS, NEG, ep) == 0.5

    def test_flipped_sentence_toward_target(self):
        ep = BackendEndpoints(fill_mask=SentimentMaskBackend())
        assert style_strength("bad food", POS, NEG, ep) > 0.5

    def test_complement_identity_on_rationals(self):
        values = [Fraction(n, d) for d in (1, 2, 3, 4) for n in range(0, d + 1)]
        for a in values:
            for b in values:
                ep = BackendEndpoints(fill_mask=StaticMaskBackend(
                    {"positive": float(a), "negative": float(b)}))
                forward = style_strength("x", POS, NEG, ep)
                backward = style_strength("x", NEG, POS, ep)
                assert forward + backward == pytest.approx(1.0, abs=1e-12)

    def test_same_style_rejected(self, mock_ep):
        with pytest.raises(ValueError):
            style_strength("x", POS, POS, mock_ep)
        with pytest.raises(ValueError, match="two distinct styles"):
            style_strength("x", "not negative", parse_style(" Not  negative"),
                           mock_ep)

    def test_multi_token_label_rejected(self):
        ep = BackendEndpoints(fill_mask=SentimentMaskBackend())
        with pytest.raises(LabelError, match="label not single-token"):
            style_strength("x", "not positive", NEG, ep)


class TestFluency:
    def test_uniform_four_tokens(self, mock_ep):
        assert fluency_logprob("a b c d", mock_ep) == \
            pytest.approx(4 * -math.log(50257))

    def test_single_token(self):
        ep = BackendEndpoints(score=UniformScoreBackend(4))
        assert fluency_logprob("word", ep) == pytest.approx(-math.log(4))

    def test_longer_is_less_fluent(self, mock_ep):
        short = fluency_logprob("one two", mock_ep)
        long = fluency_logprob("one two three four", mock_ep)
        assert long < short


class TestRerank:
    def request(self, text="the food was good"):
        return TransferRequest(input_text=text, source_style=POS,
                               target_style=NEG)

    def test_argmax_of_stub_composites(self, monkeypatch):
        composites = [-2.0, -1.0, -5.0]

        def stub(req, pool, cfg):
            return [RerankScore(composites[cand.index], 0.0, None,
                                composites[cand.index]) for cand in pool]

        monkeypatch.setattr("restyle.reranking.score_pool", stub)
        pool = make_pool("a", "b", "c")
        winner, scores = rerank(self.request(), pool, RerankConfig())
        assert winner.index == 1
        assert [s.composite for s in scores] == composites

    def test_all_equal_composites_tie_to_first(self, monkeypatch):
        monkeypatch.setattr("restyle.reranking.score_pool",
                            lambda req, pool, cfg: [RerankScore(-1.0, 0.0, None, -1.0)
                                                    for _ in pool])
        pool = make_pool("a", "b", "c")
        winner, _ = rerank(self.request(), pool, RerankConfig())
        assert winner.index == 0

    def test_adversarial_copy_vs_flip(self, mock_ep):
        # candidate A copies the source (similarity 1, strength 0.1 toward
        # the target), candidate B is the antonym flip (strength 0.9);
        # B must win because the strength gap outweighs the similarity gap.
        cfg = RerankConfig(k=2, use_fluency=False, endpoints=mock_ep)
        req = self.request("the food was good")
        pool = make_pool("the food was good", "the food was bad")
        winner, scores = rerank(req, pool, cfg)
        assert winner.text == "the food was bad"

        composite_a = math.log(1.0) + math.log(0.1)
        sim_b = similarity_score("the food was good", "the food was bad", mock_ep)
        composite_b = math.log(sim_b) + math.log(0.9)
        assert scores[0].composite == pytest.approx(composite_a, abs=1e-9)
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

        ep = BackendEndpoints(score=Exploding(), fill_mask="mock://sentiment",
                              embed="mock://hash-embed")
        cfg = RerankConfig(use_fluency=False, endpoints=ep)
        pool = make_pool("the food was bad", "the food was good")
        winner, scores = rerank(self.request(), pool, cfg)
        assert all(s.log_fluency is None for s in scores)
        assert all(s.composite == pytest.approx(s.log_similarity + s.log_strength)
                   for s in scores)

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

        ep = BackendEndpoints(fill_mask=Exploding(),
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
        with pytest.raises(ValueError):
            RerankConfig(k=0)
        with pytest.raises(ValueError):
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
        with pytest.raises(ValueError, match="max_retries"):
            RerankConfig(endpoints=BackendEndpoints(max_retries=0))


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
