import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from loopback import LoopbackServer, Reply
from restyle import backends
from restyle.backends import (
    BackendEndpoints,
    BackendError,
    CompletionRequest,
    CompletionResponse,
    EmbeddingResponse,
    Generation,
    LabelError,
    MalformedResponseError,
    MaskFillResponse,
    ServiceError,
    TokenScore,
    TokenScoreResponse,
    TransportError,
)
from restyle.mocks import (
    EchoCompletionBackend,
    HashEmbedBackend,
    LexiconFlipBackend,
    SentimentMaskBackend,
    UniformScoreBackend,
    parse_prompt_input,
    resolve_mock_url,
)
from restyle.prompts import (
    DELIMITERS,
    TEMPLATES,
    DelimiterPair,
    Exemplar,
    TransferRequest,
    render_prompt,
)

POS = "positive"
NEG = "negative"


def sentiment_prompt(text="good food"):
    return render_prompt(TransferRequest(
        input_text=text, source_style=POS, target_style=NEG,
        template=TEMPLATES["contrastive"], delimiter=DELIMITERS["curly"]))


def cases(*rows):
    """Rows of (field, value, error), each with the id "<field>-<value>"."""
    return [pytest.param(*row, id=f"{row[0]}-{row[1]}") for row in rows]


class TestRequestValidation:
    def test_num_candidates_must_be_positive(self):
        for value in (0, True, 2.5):
            with pytest.raises(ValueError, match="num_candidates"):
                CompletionRequest(prompt="p", num_candidates=value)

    def test_max_new_tokens_must_be_positive(self):
        for value in (0, True, 2.5):
            with pytest.raises(ValueError, match="max_new_tokens"):
                CompletionRequest(prompt="p", max_new_tokens=value)

    def test_decode_mode_checked(self):
        with pytest.raises(ValueError):
            backends.DecodeConfig(mode="greedy")

    # A count takes only an int (check_count: ValueError otherwise); a real
    # takes a JSON or NumPy number, so a bool is a TypeError (check_real).
    @pytest.mark.parametrize("field, value, error", cases(
        ("beam_width", 0, ValueError), ("beam_width", -2, ValueError),
        ("beam_width", True, ValueError), ("beam_width", 2.0, ValueError),
        ("beam_width", "1", ValueError), ("beam_width", math.nan, ValueError),
        ("temperature", math.nan, ValueError), ("temperature", math.inf, ValueError),
        ("temperature", -0.5, ValueError), ("temperature", True, TypeError),
        ("temperature", "1", ValueError),
    ))
    def test_decode_values_checked(self, field, value, error):
        with pytest.raises(error, match=field):
            backends.DecodeConfig(**{field: value})

    @pytest.mark.parametrize("field, value, error", cases(
        ("timeout", 0.0, ValueError), ("timeout", -1.0, ValueError),
        ("timeout", math.nan, ValueError), ("timeout", math.inf, ValueError),
        ("timeout", True, TypeError), ("timeout", "1", ValueError),
        ("max_retries", 0, ValueError), ("max_retries", -1, ValueError),
        ("max_retries", 2.5, ValueError), ("max_retries", True, ValueError),
        ("max_retries", "1", ValueError), ("max_retries", math.nan, ValueError),
        ("retry_backoff", -0.25, ValueError), ("retry_backoff", math.nan, ValueError),
        ("retry_backoff", math.inf, ValueError), ("retry_backoff", True, TypeError),
        ("retry_backoff", "1", ValueError),
        ("mask_token", "", ValueError), ("mask_token", "  ", ValueError),
    ))
    def test_endpoint_settings_checked(self, field, value, error):
        with pytest.raises(error, match=field):
            BackendEndpoints(**{field: value})
        with pytest.raises(error, match=field):
            replace(BackendEndpoints(), **{field: value})

    def test_int_and_float_reals_give_equal_settings(self):
        assert backends.DecodeConfig(temperature=1) == backends.DecodeConfig(temperature=1.0)
        assert BackendEndpoints(timeout=5, retry_backoff=0) == \
            BackendEndpoints(timeout=5.0, retry_backoff=0.0)
        assert type(BackendEndpoints(timeout=np.int64(5)).timeout) is float

    @pytest.mark.parametrize("k, width, mode, wire", [
        (3, None, "beam", 3), (3, 3, "beam", 3), (3, 5, "beam", 5),
        (5, 3, "sample", 3),
    ])
    def test_beam_width_on_the_wire(self, k, width, mode, wire):
        decode = backends.DecodeConfig(mode=mode, beam_width=width)
        req = CompletionRequest(prompt="p", num_candidates=k, decode=decode)
        assert req.to_wire()["decode"]["beam_width"] == wire

    def test_beam_narrower_than_the_candidates_rejected(self):
        # A beam search returns at most its width of sequences.
        decode = backends.DecodeConfig(beam_width=3)
        error = "beam_width must be >= the 5 candidates asked for, got 3"
        with pytest.raises(ValueError, match=error):
            CompletionRequest(prompt="p", num_candidates=5, decode=decode)
        with pytest.raises(ValueError, match=error):
            decode.to_wire(5)

    def test_wire_shape(self):
        req = CompletionRequest(prompt="p", max_new_tokens=8,
                                num_candidates=3, stop="}", seed=7)
        wire = req.to_wire()
        assert wire == {
            "prompt": "p", "max_new_tokens": 8, "num_candidates": 3,
            "stop": "}", "seed": 7,
            "decode": {"mode": "beam", "beam_width": 3, "temperature": 1.0},
        }


class TestResponseInvariants:
    def test_candidates_must_be_nonempty(self):
        with pytest.raises(ValueError):
            CompletionResponse(())

    def test_gen_score_ordering_enforced(self):
        with pytest.raises(ValueError):
            CompletionResponse((Generation("a", -2.0), Generation("b", -1.0)))

    def test_logprob_positive_rejected(self):
        with pytest.raises(ValueError):
            TokenScore("x", 0.5)

    def test_logprob_must_be_finite(self):
        with pytest.raises(ValueError):
            TokenScore("x", float("-inf"))

    def test_empty_token_scores_rejected(self):
        with pytest.raises(ValueError, match="no tokens"):
            TokenScoreResponse(())

    def test_empty_embedding_rejected(self):
        with pytest.raises(ValueError, match="no vectors"):
            EmbeddingResponse(vectors=(), dim=2)

    def test_embedding_dim_consistency(self):
        with pytest.raises(ValueError):
            EmbeddingResponse(vectors=((1.0, 0.0), (1.0,)), dim=2)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_embedding_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            EmbeddingResponse(vectors=((1.0, 0.0), (bad, 1.0)), dim=2)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingResponse(vectors=((0.0, 0.0),), dim=2)

    @pytest.mark.parametrize("vectors,error", [
        ((1.0, 0.0), ValueError),                      # 1-D
        ((((1.0, 0.0),),), ValueError),                # 3-D
        (((1.0, 0.0), (1.0, 0.0, 2.0)), ValueError),   # ragged
        ("1.0", ValueError),                           # a string
        (((1.0, None), (0.5, 0.5)), ValueError),       # null reads as NaN
        (((),), ValueError),                           # [[]]
        (((1.0, 10 ** 400),), OverflowError),          # beyond float64
        (((1.0, {}),), TypeError),                     # not a number
    ])
    def test_malformed_embedding_matrix_rejected(self, vectors, error):
        with pytest.raises(error):
            EmbeddingResponse(vectors=vectors, dim=2)

    def test_embedding_held_as_read_only_float64(self):
        rows = [[1, 0], [0.5, -2]]
        resp = EmbeddingResponse(vectors=rows, dim=2)
        assert resp.vectors.dtype == np.float64
        assert resp.vectors.shape == (2, 2)
        assert not resp.vectors.flags.writeable
        with pytest.raises(ValueError):
            resp.vectors[0, 0] = 3.0
        rows[0][0] = 7
        assert resp.vectors[0, 0] == 1.0

    def test_embedding_equality_compares_values(self):
        resp = EmbeddingResponse(vectors=((1.0, 0.0), (0.5, 0.5)), dim=2)
        assert resp == EmbeddingResponse(vectors=np.array([[1, 0], [0.5, 0.5]]), dim=2)
        assert resp != EmbeddingResponse(vectors=((1.0, 0.0), (0.5, 0.25)), dim=2)
        assert resp != EmbeddingResponse(vectors=((1.0, 0.0),), dim=2)
        assert resp != "vectors"
        with pytest.raises(TypeError):
            hash(resp)

    def test_total_logprob_sums_tokens_in_order(self):
        resp = TokenScoreResponse((TokenScore("a", -0.1), TokenScore("b", -0.2),
                                   TokenScore("c", -0.3)))
        assert resp.total_logprob == (-0.1 + -0.2) + -0.3
        assert resp == TokenScoreResponse(resp.tokens)

    def test_total_logprob_is_stored_when_built(self):
        resp = TokenScoreResponse((TokenScore("a", -0.5), TokenScore("b", -0.25)))
        assert vars(resp)["total_logprob"] == -0.75
        assert "total_logprob" not in repr(resp)
        with pytest.raises(TypeError):
            TokenScoreResponse(resp.tokens, total_logprob=0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "-inf"])
    def test_gen_score_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="gen_score"):
            Generation("x", bad)

    def test_fields_held_as_converted_values(self):
        gen = Generation("x", -1)
        assert type(gen.gen_score) is float and gen == Generation("x", -1.0)
        token = TokenScore("a", 0)
        assert type(token.logprob) is float and token.logprob == 0.0
        assert type(EmbeddingResponse(vectors=((1, 0),), dim=2.0).dim) is int

    def test_mask_fill_scores_held_as_floats(self):
        resp = MaskFillResponse({"a": np.float32(0.5), "b": 1})
        assert resp.scores == {"a": 0.5, "b": 1.0}
        assert all(type(v) is float for v in resp.scores.values())

    def test_numpy_numbers_accepted(self):
        assert Generation("x", np.float32(-1.0)).gen_score == -1.0
        assert TokenScore("a", np.int64(0)).logprob == 0.0
        resp = EmbeddingResponse(vectors=np.ones((1, 2), dtype=np.float32),
                                 dim=np.int64(2))
        assert resp.dim == 2 and resp.vectors.dtype == np.float64

    @pytest.mark.parametrize("build", [
        lambda: Generation(None, -1.0),
        lambda: Generation("x", True),
        lambda: TokenScore(1, -0.5),
        lambda: TokenScore("a", np.bool_(False)),
        lambda: MaskFillResponse({1: 0.5}),
        lambda: MaskFillResponse({"a": True}),
        lambda: EmbeddingResponse(vectors=((1.0,),), dim=True),
        lambda: EmbeddingResponse(vectors=((1.0, 0.0),), dim=2.5),
        lambda: EmbeddingResponse(vectors=(("1", "0"),), dim=2),
        lambda: EmbeddingResponse(vectors=np.ones((1, 2), dtype=bool), dim=2),
    ], ids=["null-text", "bool-gen-score", "int-token", "numpy-bool-logprob",
            "int-label", "bool-score", "bool-dim", "fractional-dim",
            "string-vectors", "bool-vectors"])
    def test_non_json_types_rejected(self, build):
        with pytest.raises((TypeError, ValueError)):
            build()

    @pytest.mark.parametrize("scores,error", [
        ({"a": float("nan")}, ValueError),
        ({"a": -0.1}, ValueError),
        ({"a": "high"}, ValueError),
        ({"a": None}, TypeError),
        ([("a", 0.5)], TypeError),
    ])
    def test_mask_fill_scores_checked(self, scores, error):
        with pytest.raises(error):
            MaskFillResponse(scores)


class TestParsers:
    """The module-level wire parsers, called on decoded bodies."""

    def test_each_endpoint_body(self):
        assert backends.parse_completion(
            {"candidates": [{"text": "a", "gen_score": -0.5},
                            {"text": "b", "gen_score": -1}]}
        ) == CompletionResponse((Generation("a", -0.5), Generation("b", -1.0)))
        assert backends.parse_token_scores(
            {"tokens": [{"token": "a", "logprob": -2}]}
        ) == TokenScoreResponse((TokenScore("a", -2.0),))
        assert backends.parse_mask_fill(
            {"scores": {"a": 0.25, "b": 0}, "label_errors": {}}
        ) == MaskFillResponse({"a": 0.25, "b": 0.0})
        assert backends.parse_embedding(
            {"dim": 2, "vectors": [[1, 0]]}
        ) == EmbeddingResponse(vectors=((1.0, 0.0),), dim=2)

    @pytest.mark.parametrize("parse,body,error", [
        (backends.parse_completion, {}, KeyError),
        (backends.parse_completion, {"candidates": [{"text": "x"}]}, KeyError),
        (backends.parse_completion,
         {"candidates": [{"text": "x", "gen_score": None}]}, TypeError),
        (backends.parse_token_scores,
         {"tokens": [{"token": "x", "logprob": 0.5}]}, ValueError),
        (backends.parse_mask_fill, {"scores": [0.5]}, TypeError),
        (backends.parse_mask_fill, {}, KeyError),
        (backends.parse_embedding, {"vectors": [[1.0]]}, KeyError),
        (backends.parse_embedding, {"dim": "two", "vectors": [[1.0]]}, ValueError),
        (backends.parse_completion,
         {"candidates": [{"text": None, "gen_score": "-1"}]}, TypeError),
        (backends.parse_completion,
         {"candidates": [{"text": "x", "gen_score": "-1"}]}, ValueError),
        (backends.parse_token_scores,
         {"tokens": [{"token": 1, "logprob": -0.5}]}, TypeError),
        (backends.parse_token_scores,
         {"tokens": [{"token": "1", "logprob": False}]}, TypeError),
        (backends.parse_mask_fill, {"scores": {"a": True, "b": 0.5}}, TypeError),
        (backends.parse_mask_fill, {"scores": {"a": 0.5, "b": "0.5"}}, ValueError),
        (backends.parse_embedding, {"dim": 2.9, "vectors": [[1, 0]]}, ValueError),
        (backends.parse_embedding, {"dim": 2, "vectors": [["1", True]]}, TypeError),
        (backends.parse_embedding, {"dim": 3, "vectors": [[1, 0]]}, ValueError),
    ])
    def test_contract_violations(self, parse, body, error):
        with pytest.raises(error):
            parse(body)

    def test_label_errors_come_before_scores(self):
        with pytest.raises(LabelError) as err:
            backends.parse_mask_fill({"label_errors": {"a": "label not single-token"}})
        assert err.value.label_errors == {"a": "label not single-token"}
        for label_errors in ([], "x", 0, False):
            with pytest.raises(TypeError, match="label_errors"):
                backends.parse_mask_fill({"scores": {"a": 1.0},
                                          "label_errors": label_errors})


class TestEchoMock:
    def test_canned_identical_candidates(self):
        echo = EchoCompletionBackend(canned="steady answer")
        resp = echo.complete(CompletionRequest(prompt="anything", num_candidates=3))
        assert [c.text for c in resp.candidates] == ["steady answer"] * 3

    def test_copies_query_input(self):
        echo = EchoCompletionBackend()
        resp = echo.complete(CompletionRequest(prompt=sentiment_prompt(), stop="}"))
        assert resp.candidates[0].text == "good food}"


class TestLexiconFlipMock:
    def test_first_candidate_is_antonym_swap(self):
        flip = LexiconFlipBackend()
        resp = flip.complete(CompletionRequest(prompt=sentiment_prompt(),
                                               num_candidates=3, stop="}"))
        assert resp.candidates[0].text == "bad food}"
        assert resp.candidates[1].text == "good food}"
        assert resp.candidates[2].text == "good food food}"

    def test_seed_plants_flip_position(self):
        flip = LexiconFlipBackend(plant="seed")
        for seed in range(6):
            resp = flip.complete(CompletionRequest(
                prompt=sentiment_prompt(), num_candidates=3, stop="}", seed=seed))
            texts = [c.text for c in resp.candidates]
            assert texts.index("bad food}") == seed % 3

    def test_all_builtin_delimiters_parse(self):
        flip = LexiconFlipBackend()
        for name, pair in DELIMITERS.items():
            prompt = render_prompt(TransferRequest(
                input_text="good food", source_style=POS, target_style=NEG,
                delimiter=pair))
            resp = flip.complete(CompletionRequest(
                prompt=prompt, num_candidates=1, stop=pair.close))
            assert resp.candidates[0].text == "bad food" + pair.close, name


# Letters, blanks, a newline and every marker character, so inputs hold
# whole and partial markers.
_PROMPT_TEXT = st.text(alphabet='ab :\n{}[]<>()"-*', max_size=8)


class TestParsePromptInput:
    """The completion mocks read the query input back out of a prompt."""

    @given(template=st.sampled_from(list(TEMPLATES.values())),
           pair=st.sampled_from([*DELIMITERS.values(), DelimiterPair("<<", ">>"),
                                 DelimiterPair("<<", ">"), DelimiterPair("[[", "]")]),
           parts=st.lists(_PROMPT_TEXT, min_size=1, max_size=3),
           exemplars=st.lists(st.tuples(_PROMPT_TEXT, _PROMPT_TEXT), max_size=2))
    # An opener longer than its close; the dash opener's end and the input
    # run into a newline, as a block join would.
    @example(template=TEMPLATES["vanilla"], pair=DelimiterPair("[[", "]"),
             parts=["a"], exemplars=[])
    @example(template=TEMPLATES["vanilla"], pair=DELIMITERS["dash"],
             parts=["-\n"], exemplars=[])
    def test_round_trip(self, template, pair, parts, exemplars):
        # Joined by the opener, the input holds it wherever it can: an
        # opener that holds the close cannot appear in an input.
        text = pair.open.join(parts)
        assume(text.strip() and pair.close not in text)
        assume(all(side.strip() and pair.close not in side
                   for sides in exemplars for side in sides))
        req = TransferRequest(
            input_text=text, source_style=POS, target_style=NEG,
            template=template, delimiter=pair,
            exemplars=tuple(Exemplar(*sides) for sides in exemplars))
        assert parse_prompt_input(render_prompt(req), pair.close)[0] == text

    def test_no_stop_or_no_close_is_not_a_prompt(self):
        assert parse_prompt_input(sentiment_prompt(), None) is None
        assert parse_prompt_input("no markers here", "}") is None
        assert parse_prompt_input("a close} but no opener {", "}") is None
        # Too short to hold both a close and an opener.
        assert parse_prompt_input("}", "}") is None

    @pytest.mark.parametrize("backend", [EchoCompletionBackend(),
                                         LexiconFlipBackend()],
                             ids=["echo", "lexicon-flip"])
    def test_foreign_prompt_gets_empty_candidates(self, backend):
        resp = backend.complete(CompletionRequest(
            prompt="no markers here", num_candidates=2, stop="}"))
        assert [c.text for c in resp.candidates] == ["", ""]


def test_blank_text_not_classified():
    ep = BackendEndpoints(classifier=UniformScoreBackend(),
                          fill_mask=UniformScoreBackend())
    with pytest.raises(ValueError, match="classify must be non-empty"):
        backends.classify(ep, " \t", ["positive", "negative"])


class TestUniformMock:
    def test_four_tokens_uniform_logprob(self):
        resp = UniformScoreBackend(50257).score_tokens("a b c d")
        assert len(resp.tokens) == 4
        for token in resp.tokens:
            assert token.logprob == -math.log(50257)

    def test_empty_text_precondition(self, mock_ep):
        with pytest.raises(ValueError):
            backends.score_tokens(mock_ep, "   ")

    def test_scores_finite_nonpositive(self, mock_ep):
        resp = backends.score_tokens(mock_ep, "bad food")
        assert all(t.logprob <= 0 and math.isfinite(t.logprob)
                   for t in resp.tokens)


class TestSentimentMock:
    def test_lexicon_rule(self, mock_ep):
        resp = backends.fill_mask(
            mock_ep, "The following text is <mask>: [great food].",
            ["positive", "negative"])
        assert resp.scores == {"positive": 0.9, "negative": 0.1}

    def test_singleton_labels_rejected(self, mock_ep):
        with pytest.raises(ValueError):
            backends.fill_mask(
                mock_ep, "The following text is <mask>: [x].", ["positive"])

    def test_two_masks_rejected(self, mock_ep):
        with pytest.raises(ValueError):
            backends.fill_mask(mock_ep, "<mask> and <mask>",
                               ["positive", "negative"])

    def test_unknown_label_signaled(self, mock_ep):
        with pytest.raises(LabelError) as err:
            backends.fill_mask(
                mock_ep, "The following text is <mask>: [x].",
                ["formal", "informal"])
        assert err.value.label_errors["formal"] == "label not in backend vocabulary"

    def test_multi_token_label_signaled(self, mock_ep):
        with pytest.raises(LabelError) as err:
            backends.fill_mask(
                mock_ep, "The following text is <mask>: [x].",
                ["positive", "not positive"])
        assert err.value.label_errors["not positive"] == "label not single-token"

    def test_plain_text_classification(self):
        resp = SentimentMaskBackend().fill_mask("rude and dirty",
                                                ["positive", "negative"])
        assert resp.scores == {"positive": 0.1, "negative": 0.9}


class TestHashEmbedMock:
    def test_identical_texts_identical_vectors(self, mock_ep):
        first = backends.embed_tokens(mock_ep, "fresh bread today")
        second = backends.embed_tokens(mock_ep, "fresh bread today")
        assert np.array_equal(first.vectors, second.vectors)
        assert first == second

    def test_dim_constant(self, mock_ep):
        assert backends.embed_tokens(mock_ep, "one").dim == \
            backends.embed_tokens(mock_ep, "two three four").dim

    def test_whitespace_only_rejected(self, mock_ep):
        with pytest.raises(ValueError):
            backends.embed_tokens(mock_ep, "  \t ")

    def test_vectors_unit_norm(self):
        resp = HashEmbedBackend(dim=16).embed_tokens("calm river")
        for vec in resp.vectors:
            assert math.isclose(sum(v * v for v in vec), 1.0, rel_tol=1e-12)

    def test_lone_surrogate_token_embeds(self, mock_ep):
        # A lone surrogate has no UTF-8 form; its token hashes its
        # surrogatepass bytes, and every other token keeps its vector.
        resp = backends.embed_tokens(mock_ep, "the food \ud800 good")
        assert resp.vectors.shape == (4, 32)
        seed = hashlib.blake2b(b"food", digest_size=8).digest()
        food = np.random.default_rng(int.from_bytes(seed, "big")).standard_normal(32)
        assert np.array_equal(resp.vectors[1], food / np.linalg.norm(food))
        assert HashEmbedBackend(dim=32).embed_tokens("the food \ud800 good") == resp


class TestDeterminism:
    def test_same_request_byte_identical(self, mock_ep):
        req = CompletionRequest(prompt=sentiment_prompt(), num_candidates=3,
                                stop="}", seed=11)
        assert backends.complete(mock_ep, req) == backends.complete(mock_ep, req)
        assert backends.score_tokens(mock_ep, "good") == \
            backends.score_tokens(mock_ep, "good")
        assert backends.embed_tokens(mock_ep, "good") == \
            backends.embed_tokens(mock_ep, "good")

    def test_concurrent_calls_consistent(self, mock_ep):
        req = CompletionRequest(prompt=sentiment_prompt(), num_candidates=3, stop="}")
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(
                lambda _: backends.complete(mock_ep, req), range(32)))
        assert all(r == results[0] for r in results)

    def test_mock_url_registry(self):
        assert isinstance(resolve_mock_url("mock://uniform?vocab=7"),
                          UniformScoreBackend)
        with pytest.raises(ValueError):
            resolve_mock_url("mock://nonsense")
        for url in ("mock://uniform?vocab=1", "mock://hash-embed?dim=1"):
            with pytest.raises(ValueError, match="must be >= 2, got 1"):
                resolve_mock_url(url)
        with pytest.raises(ValueError, match="plant must be"):
            resolve_mock_url("mock://lexicon-flip?plant=last")


def wire_answer(path: str, body: dict) -> Reply:
    """Wire-protocol answers keyed on the request path."""
    if path == "/complete":
        return Reply({"candidates": [
            {"text": "rewritten}", "gen_score": -0.4},
            {"text": "other}", "gen_score": -0.9},
        ][: body["num_candidates"]]})
    if path == "/score":
        return Reply({"tokens": [{"token": t, "logprob": -1.5}
                                 for t in body["text"].split()]})
    if path == "/fill_mask":
        return Reply({"scores": {label: 0.5 for label in body["labels"]}})
    if path == "/fill_mask_err":
        return Reply({"scores": {}, "label_errors": {
            body["labels"][0]: "label not in backend vocabulary"}})
    if path == "/embed":
        return Reply({"dim": 2,
                      "vectors": [[1.0, 0.0] for _ in body["text"].split()]})
    if path == "/malformed":
        return Reply(b"{not json")
    if path == "/bad_shape":
        return Reply({"candidates": [{"text": "x"}]})  # gen_score missing
    if path == "/error_body":
        return Reply({"error": "model overloaded"})
    if path == "/boom":
        return Reply(b"internal error", status=500)
    return Reply(b"", status=404)


@pytest.fixture
def wire_server():
    with LoopbackServer(wire_answer) as server:
        yield server


def hits(server, path: str) -> int:
    return sum(p == path for _, p, _, _ in server.requests)


class TestHttpWire:
    def test_complete_round_trip(self, wire_server):
        ep = BackendEndpoints(complete=f"{wire_server.url}/complete")
        resp = backends.complete(ep, CompletionRequest(prompt="p", num_candidates=2))
        assert resp.candidates[0] == Generation("rewritten}", -0.4)
        assert len(resp.candidates) == 2

    def test_score_round_trip(self, wire_server):
        ep = BackendEndpoints(score=f"{wire_server.url}/score")
        resp = backends.score_tokens(ep, "two words")
        assert [t.token for t in resp.tokens] == ["two", "words"]
        assert resp.total_logprob == -3.0

    def test_fill_mask_round_trip(self, wire_server):
        ep = BackendEndpoints(fill_mask=f"{wire_server.url}/fill_mask")
        resp = backends.fill_mask(ep, "The following text is <mask>: [x].",
                                  ["a", "b"])
        assert resp.scores == {"a": 0.5, "b": 0.5}

    def test_embed_round_trip(self, wire_server):
        ep = BackendEndpoints(embed=f"{wire_server.url}/embed")
        resp = backends.embed_tokens(ep, "three short words")
        assert resp.dim == 2 and len(resp.vectors) == 3

    def test_label_errors_surface(self, wire_server):
        ep = BackendEndpoints(fill_mask=f"{wire_server.url}/fill_mask_err")
        with pytest.raises(LabelError):
            backends.fill_mask(ep, "The following text is <mask>: [x].",
                               ["a", "b"])

    def test_service_error_no_retry(self, wire_server):
        ep = BackendEndpoints(complete=f"{wire_server.url}/boom")
        with pytest.raises(ServiceError) as err:
            backends.complete(ep, CompletionRequest(prompt="p"))
        assert err.value.status == 500
        assert hits(wire_server, "/boom") == 1

    def test_error_body_is_service_error(self, wire_server):
        ep = BackendEndpoints(complete=f"{wire_server.url}/error_body")
        with pytest.raises(ServiceError, match="model overloaded"):
            backends.complete(ep, CompletionRequest(prompt="p"))

    def test_malformed_json_no_retry(self, wire_server):
        ep = BackendEndpoints(complete=f"{wire_server.url}/malformed")
        with pytest.raises(MalformedResponseError):
            backends.complete(ep, CompletionRequest(prompt="p"))
        assert hits(wire_server, "/malformed") == 1

    def test_contract_violation_detected(self, wire_server):
        ep = BackendEndpoints(complete=f"{wire_server.url}/bad_shape")
        with pytest.raises(MalformedResponseError):
            backends.complete(ep, CompletionRequest(prompt="p"))

    def test_transport_error_retries(self):
        ep = BackendEndpoints(complete="http://127.0.0.1:9/complete",
                              timeout=0.2, max_retries=3, retry_backoff=0.01)
        with pytest.raises(TransportError) as err:
            backends.complete(ep, CompletionRequest(prompt="p"))
        assert err.value.attempts == 3

    def test_unconfigured_endpoint(self):
        with pytest.raises(BackendError, match="no completion endpoint"):
            backends.complete(BackendEndpoints(), CompletionRequest(prompt="p"))

    def test_unsupported_scheme(self):
        with pytest.raises(ValueError, match="unsupported"):
            BackendEndpoints(complete="ftp://nope")


def test_from_env():
    env = {
        "RESTYLE_COMPLETE_URL": "mock://echo",
        "RESTYLE_SCORE_URL": "mock://uniform",
        "RESTYLE_FILL_MASK_URL": "mock://sentiment",
        "RESTYLE_EMBED_URL": "mock://hash-embed",
        "RESTYLE_MASK_TOKEN": "[MASK]",
        "RESTYLE_TIMEOUT": "5",
    }
    ep = BackendEndpoints.from_env(env)
    assert ep.complete == "mock://echo"
    assert ep.classifier is None
    assert ep.mask_token == "[MASK]"
    assert ep.timeout == 5.0
    assert BackendEndpoints.from_env({**env, "RESTYLE_SCORE_URL": ""}).score is None
    assert BackendEndpoints.from_env({}) == BackendEndpoints()
    # A bad value names its setting, also where the text does not convert.
    for name, value in (("MAX_RETRIES", "0"), ("TIMEOUT", "-1"),
                        ("RETRY_BACKOFF", "nan"), ("MASK_TOKEN", " "),
                        ("MAX_RETRIES", "x"), ("MAX_RETRIES", "2.7"),
                        ("TIMEOUT", "soon"), ("RETRY_BACKOFF", "")):
        with pytest.raises(ValueError, match=f"^{name.lower()} must be"):
            BackendEndpoints.from_env({**env, f"RESTYLE_{name}": value})


# Endpoint settings that resolve to no service, each with what its error says.
MALFORMED_ENDPOINTS = [
    pytest.param("complete", "ftp://host/complete",
                 "unsupported endpoint URL 'ftp://host/complete'", id="ftp"),
    pytest.param("embed", "http:///embed", "names no host", id="no-host"),
    pytest.param("score", "http://127.0.0.1:9/a path/score",
                 "has a space, a control", id="space-in-path"),
    pytest.param("fill_mask", "http://127.0.0.1:9/café/fill_mask",
                 "non-ASCII character in its path", id="non-ascii-path"),
    pytest.param("classifier", "http://" + "a" * 64 + "é.example/classify",
                 "has an invalid host", id="bad-idna-host"),
    pytest.param("embed", "mock://hash-embd",
                 "unknown mock backend 'mock://hash-embd'", id="unknown-mock"),
    pytest.param("embed", "mock://hash-embed?dim=1", "dim must be >= 2, got 1",
                 id="mock-refuses-dim"),
    pytest.param("complete", "mock://lexicon-flip?plant=last",
                 "plant must be 'first' or 'seed'", id="mock-refuses-plant"),
]


@pytest.mark.parametrize("field, url, why", MALFORMED_ENDPOINTS)
def test_malformed_endpoint_named_when_built(field, url, why):
    # Every way of building endpoints resolves them, so each refuses the
    # setting before any call, naming the field.
    built = {
        "constructor": lambda: BackendEndpoints(**{field: url}),
        "from_env": lambda: BackendEndpoints.from_env(
            {f"RESTYLE_{field.upper()}_URL": url}),
        "from_snapshot": lambda: BackendEndpoints.from_snapshot({field: url}),
        "replace": lambda: replace(BackendEndpoints(), **{field: url}),
    }
    for way, build in built.items():
        with pytest.raises(ValueError, match=f"^{field} endpoint: ") as err:
            build()
        assert why in str(err.value), way


def test_endpoints_resolve_once():
    # One resolution per field at build time: a mock URL is its cached mock,
    # and equal HTTP settings share one client.
    ep = BackendEndpoints(complete="http://127.0.0.1:9/complete",
                          embed="mock://hash-embed")
    assert ep._services["embed"] is resolve_mock_url("mock://hash-embed")
    assert BackendEndpoints(complete="http://127.0.0.1:9/complete")._services[
        "complete"] is ep._services["complete"]
    assert replace(ep, timeout=5.0)._services["complete"] is not \
        ep._services["complete"]
    assert ep._services["score"] is None
    assert ep == BackendEndpoints.from_snapshot(ep.snapshot())
    assert "_services" not in repr(ep)


def test_from_snapshot_round_trips_url_endpoints():
    ep = BackendEndpoints(complete="http://127.0.0.1:9/complete",
                          score=UniformScoreBackend(),
                          fill_mask="mock://sentiment", embed="mock://hash-embed",
                          mask_token="[MASK]", timeout=120.0, max_retries=7,
                          retry_backoff=2.0)
    rebuilt = BackendEndpoints.from_snapshot(ep.snapshot())
    # A direct object cannot be rebuilt, and backoff is not stored.
    assert rebuilt == BackendEndpoints(
        complete="http://127.0.0.1:9/complete", fill_mask="mock://sentiment",
        embed="mock://hash-embed", mask_token="[MASK]", timeout=120.0,
        max_retries=7)
    assert ep.snapshot()["score"] == "object:UniformScoreBackend"
    assert rebuilt.snapshot() == {**ep.snapshot(), "score": None}


def test_from_snapshot_defaults_and_numbers():
    ep = BackendEndpoints.from_snapshot({"complete": "mock://echo"})
    assert ep == BackendEndpoints(complete="mock://echo")
    assert (ep.timeout, ep.max_retries) == (30.0, 3)
    assert BackendEndpoints.from_snapshot({"timeout": "5"}).timeout == 5.0
    assert BackendEndpoints.from_snapshot({"score": ""}).score is None
    for bad in ({"timeout": "soon"}, {"max_retries": "many"},
                {"timeout": "-1"}, {"timeout": "nan"}, {"timeout": 0},
                {"max_retries": 0}, {"mask_token": ""}, {"max_retries": 2.7}):
        with pytest.raises(ValueError):
            BackendEndpoints.from_snapshot(bad)
    # A stored JSON value is checked as it is, not converted.
    with pytest.raises(TypeError, match="timeout"):
        BackendEndpoints.from_snapshot({"timeout": True})
    with pytest.raises(ValueError, match="timeout must be a finite number"):
        BackendEndpoints.from_snapshot({"timeout": 10 ** 400})
