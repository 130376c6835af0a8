import json
from dataclasses import replace

import pytest

from fakes import StaticMaskBackend
from loopback import LoopbackServer, Reply, mock_answer
from restyle import metrics
from restyle.backends import (
    BackendEndpoints,
    CompletionResponse,
    DecodeConfig,
    Generation,
    ServiceError,
)
from restyle.data import StylePairRecord, load_dataset
from restyle.metrics import EvalSummary, ref_sbleu
from restyle.mocks import (
    EchoCompletionBackend,
    LexiconFlipBackend,
    SentimentMaskBackend,
    mock_endpoints,
)
from restyle.pipeline import (
    PipelineError,
    RequestTemplate,
    SweepGrid,
    copy_baseline,
    directions_in,
    read_manifest,
    records_in,
    reevaluate_manifest,
    run_sweep,
    select_exemplars,
    transfer_corpus,
    transfer_one,
    write_manifest,
)
from restyle.prompts import (
    DELIMITERS,
    DelimiterPair,
    Exemplar,
    PromptConfig,
    TemplateKind,
    TransferRequest,
    builtin_delimiters,
)
from restyle.reranking import RerankConfig

POS = "positive"
NEG = "negative"


class Unreachable:
    """A backend for every service that fails the test when called."""

    def __getattr__(self, name):
        raise AssertionError(f"unexpected backend call: {name}")


def request(text="the food was good"):
    return TransferRequest(input_text=text, source_style=POS, target_style=NEG)


def record(rid, text, src=POS, dst=NEG, reference=None):
    return StylePairRecord(id=rid, source=text, reference=reference,
                           source_style=src, target_style=dst)


class TestTransferOne:
    def test_flip_mock_winner_is_flipped(self, mock_ep):
        cfg = RerankConfig(k=3, endpoints=mock_ep)
        winner, rec = transfer_one(request(), cfg, example_id="x")
        assert winner.text == "the food was bad"
        assert rec["winner"] == "the food was bad"
        assert len(rec["raw_candidates"]) == 3
        assert rec["prompt"].endswith("{")

    def test_echo_mock_copies_input(self):
        ep = mock_endpoints(complete="mock://echo")
        cfg = RerankConfig(k=3, endpoints=ep)
        winner, _ = transfer_one(request(), cfg)
        assert winner.text == "the food was good"

    def test_k1_rerank_and_baseline_agree(self, mock_ep):
        cfg = RerankConfig(k=1, endpoints=mock_ep)
        winner, rec = transfer_one(request(), cfg)
        assert rec["winner_index"] == rec["baseline_index"]
        assert len(rec["candidates"]) == 1
        assert winner.text == "the food was bad"

    def test_empty_extraction_pool_errors(self):
        ep = mock_endpoints(complete="mock://echo?text=}")
        cfg = RerankConfig(k=2, endpoints=ep)
        with pytest.raises(PipelineError, match="empty extraction pool"):
            transfer_one(request(), cfg, example_id="bad")

    def test_argmax_dominance_over_baseline(self, mock_ep):
        cfg = RerankConfig(k=3, endpoints=mock_ep)
        _, rec = transfer_one(request("great service and fresh bread"), cfg)
        composites = [s["composite"] for s in rec["scores"]]
        indexes = [c["index"] for c in rec["candidates"]]
        winner_composite = composites[indexes.index(rec["winner_index"])]
        baseline_composite = composites[indexes.index(rec["baseline_index"])]
        assert winner_composite >= baseline_composite


class TestTransferCorpus:
    def test_four_record_manifest(self, mock_ep, sentiment_records):
        cfg = RerankConfig(k=3, endpoints=mock_ep)
        manifest = transfer_corpus(sentiment_records, RequestTemplate(), cfg,
                                   seed=0)
        assert len(manifest.records) == 4
        assert manifest.summary.s_sbleu is not None
        assert manifest.summary.accuracy == 1.0
        assert manifest.summary.ppl == pytest.approx(50257, rel=1e-9)
        assert manifest.summary.r_sbleu is None  # no references anywhere
        assert [r["id"] for r in manifest.records] == ["p0", "p1", "n0", "n1"]

    def test_custom_delimiter_reaches_prompt_and_manifest(self, sentiment_records):
        wide = PromptConfig(delimiters={"wide": DelimiterPair("<<", ">>")}
                            ).delimiter("wide")
        ep = mock_endpoints(complete=EchoCompletionBackend("the food was bad>>"))
        manifest = transfer_corpus(sentiment_records[:1],
                                   RequestTemplate(delimiter=wide),
                                   RerankConfig(k=2, endpoints=ep), jobs=1)
        (rec,) = manifest.records
        assert rec["prompt"] == (
            "Here is a text, which is positive: <<the food was good>> "
            "Here is a rewrite of the text, which is negative: <<")
        assert rec["winner"] == "the food was bad"
        assert manifest.config["delimiter"] == \
            {"name": "<<|>>", "open": "<<", "close": ">>"}

    def test_negated_direction_with_exemplars(self):
        # Labels as a dataset might write them; records, exemplars and the
        # request all hold the parse_style form.
        rows = [record("a", "the food was good", src=" Not  negative",
                       dst="negative ", reference="the food was bad"),
                record("b", "great service", src=" Not  negative", dst="negative ")]
        exemplars = select_exemplars(rows, ("not negative", "negative"), 1)
        ep = mock_endpoints(fill_mask=StaticMaskBackend(
            {"not negative": 0.2, "negative": 0.6}))
        cfg = RerankConfig(k=2, use_fluency=False, endpoints=ep)
        manifest = transfer_corpus(rows[1:], RequestTemplate(exemplars=exemplars),
                                   cfg, jobs=1)
        (rec,) = manifest.records
        assert "error" not in rec
        assert rec["prompt"].split("\n") == [
            "Here is a text, which is not negative: {the food was good} "
            "Here is a rewrite of the text, which is negative: {the food was bad}",
            "Here is a text, which is not negative: {great service} "
            "Here is a rewrite of the text, which is negative: {",
        ]
        assert (rec["source_style"], rec["target_style"]) == \
            ("not negative", "negative")

    def test_references_enable_r_sbleu(self, mock_ep):
        records = [record("a", "the food was good", reference="the food was bad")]
        cfg = RerankConfig(k=3, endpoints=mock_ep)
        manifest = transfer_corpus(records, RequestTemplate(), cfg)
        assert manifest.summary.r_sbleu == 100.0

    def test_partial_failure_keeps_running(self, mock_ep, sentiment_records):
        poisoned = sentiment_records + [record("bad", "braces } inside")]
        cfg = RerankConfig(k=3, endpoints=mock_ep)
        manifest = transfer_corpus(poisoned, RequestTemplate(), cfg)
        errors = [r for r in manifest.records if "error" in r]
        assert len(errors) == 1
        assert errors[0]["id"] == "bad"
        assert "DelimiterCollisionError" in errors[0]["error"]
        assert len(manifest.successful_records()) == 4

    def test_truncated_http_body_fails_one_example(self, sentiment_records):
        def answer(path, body):
            reply = mock_answer(path, body)
            return replace(reply, truncate="rude staff" in body["prompt"])

        with LoopbackServer(answer) as server:
            ep = mock_endpoints(complete=f"{server.url}/complete",
                                max_retries=3, retry_backoff=0.0)
            manifest = transfer_corpus(sentiment_records, RequestTemplate(),
                                       RerankConfig(k=3, endpoints=ep), jobs=2)
        errors = [r for r in manifest.records if "error" in r]
        assert [r["id"] for r in errors] == ["n1"]
        assert errors[0]["error"].startswith("TransportError")
        assert len(manifest.successful_records()) == 3
        assert sum("rude staff" in body["prompt"]
                   for _, _, _, body in server.requests) == 3

    @pytest.mark.parametrize("bad_body", [
        {"scores": [0.5, 0.5]},
        {"scores": "high"},
        {"scores": {"positive": 0.5, "negative": 0.5}, "label_errors": ["x"]},
        {"label_errors": "label not single-token"},
    ])
    def test_non_object_mask_fields_fail_one_example(self, sentiment_records,
                                                     bad_body):
        def answer(path, body):
            if "rude staff" in body["text"]:
                return Reply(bad_body)
            return mock_answer(path, body)

        with LoopbackServer(answer) as server:
            ep = mock_endpoints(fill_mask=f"{server.url}/fill_mask")
            manifest = transfer_corpus(sentiment_records, RequestTemplate(),
                                       RerankConfig(k=3, endpoints=ep))
        errors = [r for r in manifest.records if "error" in r]
        assert [r["id"] for r in errors] == ["n1"]
        assert errors[0]["error"].startswith("MalformedResponseError")
        assert len(manifest.successful_records()) == 3

    def test_non_finite_gen_score_fails_one_example(self, sentiment_records):
        class NanScores(LexiconFlipBackend):
            def complete(self, req):
                resp = super().complete(req)
                if "rude staff" not in req.prompt:
                    return resp
                return CompletionResponse(tuple(
                    Generation(g.text, float("nan")) for g in resp.candidates))

        ep = mock_endpoints(complete=NanScores())
        manifest = transfer_corpus(sentiment_records, RequestTemplate(),
                                   RerankConfig(k=3, endpoints=ep))
        errors = [r for r in manifest.records if "error" in r]
        assert [r["id"] for r in errors] == ["n1"]
        assert errors[0]["error"].startswith("ValueError: gen_score")
        assert len(manifest.successful_records()) == 3
        json.dumps(manifest.records, allow_nan=False)

    def test_classifier_failure_fails_one_example(self, sentiment_records):
        class FlakyClassifier(SentimentMaskBackend):
            def fill_mask(self, text, labels):
                if "room" in text:
                    raise ServiceError("classifier unavailable", status=500)
                return super().fill_mask(text, labels)

        ep = replace(mock_endpoints(), classifier=FlakyClassifier())
        manifest = transfer_corpus(sentiment_records, RequestTemplate(),
                                   RerankConfig(k=3, endpoints=ep), jobs=2)
        errors = [r for r in manifest.records if "error" in r]
        assert [r["id"] for r in errors] == ["n0"]
        assert errors[0]["error"].startswith("ServiceError")
        assert len(manifest.successful_records()) == 3
        assert manifest.summary.accuracy == 1.0

    @pytest.mark.parametrize("strength_source",
                             ["mlm_cloze", "external_classifier"])
    def test_classify_without_classifier_sends_a_cloze(self, sentiment_records,
                                                       strength_source):
        class Recording(SentimentMaskBackend):
            def __init__(self):
                self.texts = []

            def fill_mask(self, text, labels):
                self.texts.append(text)
                return super().fill_mask(text, labels)

        recording = Recording()
        ep = mock_endpoints(fill_mask=recording)
        assert ep.classifier is None
        manifest = transfer_corpus(
            sentiment_records, RequestTemplate(),
            RerankConfig(k=3, strength_source=strength_source, endpoints=ep),
            jobs=1)
        # One strength call per distinct candidate, one accuracy call each.
        assert len(recording.texts) == sum(
            len({c["text"] for c in r["candidates"]}) + 1
            for r in manifest.records)
        assert all(text.count(ep.mask_token) == 1 for text in recording.texts)
        assert manifest.summary.accuracy == 1.0

    def test_blank_reference_leaves_reference_metrics(self, mock_ep):
        records = [record("a", "the food was good", reference="the food was bad"),
                   record("b", "the room was dirty", src=NEG, dst=POS,
                          reference="  ")]
        manifest = transfer_corpus(records, RequestTemplate(),
                                   RerankConfig(k=3, endpoints=mock_ep))
        assert manifest.records[0]["winner"] == "the food was bad"
        assert manifest.summary.r_sbleu == 100.0
        assert manifest.summary.exact_match == 1.0
        assert manifest.summary.gleu == pytest.approx(1.0)

    def test_run_id_leaves_out_jobs(self, mock_ep, sentiment_records):
        cfg = RerankConfig(k=3, endpoints=mock_ep)
        serial = transfer_corpus(sentiment_records, RequestTemplate(), cfg,
                                 seed=1, jobs=1)
        threaded = transfer_corpus(sentiment_records, RequestTemplate(), cfg,
                                   seed=1, jobs=3)
        assert (serial.config["jobs"], threaded.config["jobs"]) == (1, 3)
        assert serial.run_id == threaded.run_id

    def test_all_failed_raises(self, mock_ep):
        cfg = RerankConfig(k=3, endpoints=mock_ep)
        with pytest.raises(PipelineError, match="all 1 examples failed"):
            transfer_corpus([record("bad", "oops } text")],
                            RequestTemplate(), cfg)

    def test_empty_corpus_rejected(self, mock_ep):
        with pytest.raises(PipelineError):
            transfer_corpus([], RequestTemplate(),
                            RerankConfig(endpoints=mock_ep))

    @pytest.mark.parametrize("run", [
        lambda records, cfg: transfer_corpus(records, RequestTemplate(), cfg,
                                             jobs=0),
        lambda records, cfg: run_sweep(
            records, SweepGrid(directions=directions_in(records)), cfg, jobs=0),
    ], ids=["transfer_corpus", "run_sweep"])
    def test_jobs_below_one_rejected_before_any_call(self, sentiment_records,
                                                     run):
        unreachable = Unreachable()
        ep = BackendEndpoints(complete=unreachable, score=unreachable,
                              fill_mask=unreachable, embed=unreachable)
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run(sentiment_records, RerankConfig(endpoints=ep))

    def test_bool_jobs_rejected(self, sentiment_records):
        unreachable = Unreachable()
        ep = BackendEndpoints(complete=unreachable, score=unreachable,
                              fill_mask=unreachable, embed=unreachable)
        with pytest.raises(ValueError, match="jobs must be an integer, got True"):
            transfer_corpus(sentiment_records, RequestTemplate(),
                            RerankConfig(endpoints=ep), jobs=True)

    def test_int_and_float_settings_share_a_run_id(self, sentiment_records):
        def run_id(temperature, timeout):
            cfg = RerankConfig(
                decode=DecodeConfig(temperature=temperature),
                endpoints=replace(mock_endpoints(), timeout=timeout))
            return transfer_corpus(sentiment_records[:1], RequestTemplate(),
                                   cfg, seed=1).run_id

        assert run_id(1, 30) == run_id(1.0, 30.0)

    def test_bit_reproducible_modulo_timestamp(self, mock_ep, sentiment_records):
        cfg = RerankConfig(k=3, endpoints=mock_ep)
        first = transfer_corpus(sentiment_records, RequestTemplate(), cfg,
                                seed=42, jobs=3)
        second = transfer_corpus(sentiment_records, RequestTemplate(), cfg,
                                 seed=42, jobs=3)
        assert first.run_id == second.run_id
        assert first.config == second.config
        assert first.records == second.records
        assert first.summary == second.summary

    def test_jobs_do_not_change_order(self, mock_ep, sentiment_records):
        cfg = RerankConfig(k=3, endpoints=mock_ep)
        serial = transfer_corpus(sentiment_records, RequestTemplate(), cfg,
                                 seed=1, jobs=1)
        threaded = transfer_corpus(sentiment_records, RequestTemplate(), cfg,
                                   seed=1, jobs=4)
        assert serial.records == threaded.records

    def test_manifest_round_trip(self, tmp_path, mock_ep, sentiment_records):
        cfg = RerankConfig(k=3, endpoints=mock_ep)
        manifest = transfer_corpus(sentiment_records, RequestTemplate(), cfg,
                                   seed=5)
        path = tmp_path / "run.jsonl"
        write_manifest(manifest, str(path))
        loaded = read_manifest(str(path))
        assert loaded.run_id == manifest.run_id
        assert loaded.records == manifest.records
        assert loaded.summary == manifest.summary
        # one header object plus one record per example
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 1 + len(sentiment_records)
        assert "config" in json.loads(lines[0])

    def test_reevaluation_keeps_stored_timeout_and_retries(
            self, monkeypatch, sentiment_records):
        ep = replace(mock_endpoints(), timeout=120.0, max_retries=7)
        manifest = transfer_corpus(sentiment_records, RequestTemplate(),
                                   RerankConfig(k=3, endpoints=ep), seed=5)
        seen = []
        real_summarize = metrics.summarize

        def summarize(rows, endpoints, **kwargs):
            seen.append(endpoints)
            return real_summarize(rows, endpoints, **kwargs)

        monkeypatch.setattr(metrics, "summarize", summarize)
        assert reevaluate_manifest(manifest) == manifest.summary
        assert (seen[0].timeout, seen[0].max_retries) == (120.0, 7)
        assert seen[0].snapshot() == manifest.config["endpoints"]

    @pytest.mark.parametrize("lines", [
        [{"id": "p0", "source": "good", "source_style": "positive",
          "target_style": "negative"}],
        [[1, 2]],
        [{"run_id": "r", "timestamp": "t", "config": {}}],
        [{"run_id": "r", "timestamp": "t", "config": [], "summary": {}}],
        [{"run_id": "r", "timestamp": "t", "config": {}, "summary": {"ppl": "x"}}],
        [{"run_id": "r", "timestamp": "t", "config": {},
          "summary": {"accuracy": True}}],
        [{"run_id": "r", "timestamp": "t", "config": {},
          "summary": {"ppl": float("nan")}}],
        [{"run_id": "r", "timestamp": "t", "config": {},
          "summary": {"accuracy": 1.5}}],
        [{"run_id": "r", "timestamp": "t", "config": {},
          "summary": {"ppl": 10 ** 400}}],
        [{"run_id": "r", "timestamp": "t", "config": {}, "summary": {}}, "record"],
        [{"run_id": "r", "timestamp": "t", "config": {}, "summary": {}},
         b"{not json"],
        [{"run_id": "r", "timestamp": "t", "config": {}, "summary": {}},
         {"id": "p0", "source": "good", "source_style": "positive",
          "target_style": "negative"}],
        [{"run_id": "r", "timestamp": "t", "config": {}, "summary": {}},
         {"id": "p0", "source": "good", "winner": 3, "source_style": "positive",
          "target_style": "negative"}],
        [{"run_id": "r", "timestamp": "t", "config": {}, "summary": {}},
         {"id": "p0", "source": "good", "winner": "bad", "reference": 5,
          "source_style": "positive", "target_style": "negative"}],
        [{"run_id": "r", "timestamp": "t", "config": {}, "summary": {}},
         {"id": "p0", "error": "ServiceError: down"}],
        [{"run_id": "r", "timestamp": "t", "config": {"endpoints": ["x"]},
          "summary": {}}],
        [{"run_id": "r", "timestamp": "t",
          "config": {"endpoints": {"timeout": "soon"}}, "summary": {}}],
        [{"run_id": "r", "timestamp": "t",
          "config": {"endpoints": {"timeout": True}}, "summary": {}}],
        [{"run_id": "r", "timestamp": "t",
          "config": {"endpoints": {"max_retries": 2.7}}, "summary": {}}],
        [{"run_id": "r", "timestamp": "t",
          "config": {"endpoints": {"mask_token": 5}}, "summary": {}}],
    ], ids=["dataset", "list-header", "no-summary", "list-config",
            "string-metric", "bool-metric", "nan-metric", "out-of-range-metric",
            "huge-int-metric",
            "string-record", "not-json", "record-without-winner",
            "number-winner", "number-reference", "error-record-without-styles",
            "list-endpoints", "string-timeout", "bool-timeout",
            "fractional-max-retries", "number-mask-token"])
    def test_non_manifest_rejected(self, tmp_path, lines):
        path = tmp_path / "not-a-manifest.jsonl"
        # A bytes line is written as it is, to make a line that is not JSON.
        path.write_text("".join(
            (line.decode() if isinstance(line, bytes) else json.dumps(line)) + "\n"
            for line in lines))
        with pytest.raises(PipelineError, match="is not a manifest"):
            read_manifest(str(path))


class TestSweep:
    def test_restricted_grid_rows(self, mock_ep, sentiment_records):
        grid = SweepGrid(
            templates=(TemplateKind.VANILLA, TemplateKind.CONTRASTIVE),
            delimiters=(DELIMITERS["curly"],),
            directions=directions_in(sentiment_records),
            shots=(0,))
        cfg = RerankConfig(k=3, endpoints=mock_ep)
        result = run_sweep(sentiment_records, grid, cfg, seed=0)
        assert len(result.rows) == 4  # 2 templates x 1 delimiter x 2 directions
        assert {row["template"] for row in result.rows} == \
            {"vanilla", "contrastive"}
        assert all(row["shots"] == 0 for row in result.rows)
        assert all("error" not in row for row in result.rows)
        assert all(row.items() >= m.summary.to_dict().items()
                   for row, m in zip(result.rows, result.manifests))

    def test_full_grid_cardinality(self, mock_ep, sentiment_records):
        grid = SweepGrid(directions=directions_in(sentiment_records))
        cfg = RerankConfig(k=3, endpoints=mock_ep)
        result = run_sweep(sentiment_records, grid, cfg, seed=0)
        assert len(result.rows) == 4 * 10 * 2
        assert len(result.manifests) == 80

    def test_csv_deterministic(self, mock_ep, sentiment_records):
        grid = SweepGrid(templates=(TemplateKind.CONTRASTIVE,),
                         delimiters=tuple(builtin_delimiters()[:3]),
                         directions=directions_in(sentiment_records))
        cfg = RerankConfig(k=3, endpoints=mock_ep)
        first = run_sweep(sentiment_records, grid, cfg, seed=9).to_csv()
        second = run_sweep(sentiment_records, grid, cfg, seed=9).to_csv()
        assert first == second
        header = first.splitlines()[0]
        assert header == ("template,delimiter,direction,shots,accuracy,"
                          "r_sbleu,s_sbleu,ppl,gleu,exact_match")

    def test_csv_formats_every_metric(self, mock_ep):
        records = [record("a", "the food was good", reference="the food was bad")]
        grid = SweepGrid(templates=(TemplateKind.CONTRASTIVE,),
                         delimiters=(DELIMITERS["curly"],),
                         directions=directions_in(records))
        result = run_sweep(records, grid, RerankConfig(k=3, endpoints=mock_ep))
        cells = result.to_csv().splitlines()[1].split(",")[4:]
        assert cells[:2] == ["1.0000", "100.0000"]
        assert cells[-2:] == ["1.0000", "1.0000"]

    def test_cell_failures_isolated(self, mock_ep):
        # one direction has records, the other none: its cells fail alone
        records = [record("a", "good food"), record("b", "fresh bread")]
        grid = SweepGrid(templates=(TemplateKind.CONTRASTIVE,),
                         delimiters=(DELIMITERS["curly"],),
                         directions=(("positive", "negative"),
                                     ("negative", "positive")),
                         shots=(0,))
        cfg = RerankConfig(k=3, endpoints=mock_ep)
        result = run_sweep(records, grid, cfg)
        assert len(result.rows) == 2
        good, bad = result.rows
        assert "error" not in good
        assert "error" in bad
        assert bad["accuracy"] is None if "accuracy" in bad else True

    def test_exemplar_pool_serves_each_cell(self, mock_ep, sentiment_records):
        pool = [replace(r, id=f"ex-{r.id}", reference=f"reference {r.id}")
                for r in sentiment_records]
        grid = SweepGrid(templates=(TemplateKind.CONTRASTIVE,),
                         delimiters=(DELIMITERS["curly"],),
                         directions=directions_in(sentiment_records),
                         shots=(0, 1, 2, 3))
        cfg = RerankConfig(k=3, endpoints=mock_ep)
        result = run_sweep(sentiment_records, grid, cfg, exemplars=pool)
        assert [("error" in row) for row in result.rows] == \
            [False, False, False, True] * 2
        assert "the pool has 2" in result.rows[3]["error"]
        prompts = [m.records[0]["prompt"] for m in result.manifests]
        assert [p.count("\n") for p in prompts] == [0, 1, 2] * 2
        assert "{reference p0}" in prompts[1] and "{reference n0}" in prompts[4]
        assert prompts[2].index("{reference p0}") < prompts[2].index("{reference p1}")

    def test_record_styles_are_parsed(self):
        spaced = record("a", "x", src=" positive ")
        assert spaced == record("a", "x")
        assert records_in([spaced], ("positive", "negative")) == [spaced]

    def test_select_exemplars_skips_blank_references(self):
        pool = [record("a", "x", reference="  "), record("b", "y"),
                record("c", "z", src=NEG, dst=POS, reference="ref c"),
                record("d", "w", reference="ref d")]
        direction = ("positive", "negative")
        assert select_exemplars(pool, direction, 0) == ()
        assert select_exemplars(pool, direction, 1) == \
            (Exemplar(input="w", output="ref d"),)
        with pytest.raises(ValueError, match="the pool has 1"):
            select_exemplars(pool, direction, 2)
        with pytest.raises(ValueError, match="shots must be >= 0"):
            select_exemplars(pool, direction, -1)
        with pytest.raises(ValueError, match="shots must be an integer, got True"):
            select_exemplars(pool, direction, True)

    def test_few_shot_cells_need_exemplars(self, mock_ep, sentiment_records):
        grid = SweepGrid(templates=(TemplateKind.CONTRASTIVE,),
                         delimiters=(DELIMITERS["curly"],),
                         directions=(("positive", "negative"),),
                         shots=(4,))
        cfg = RerankConfig(k=3, endpoints=mock_ep)
        result = run_sweep(sentiment_records, grid, cfg)
        assert "error" in result.rows[0]

    def test_empty_grid_axis_rejected(self):
        with pytest.raises(ValueError):
            SweepGrid(templates=(), directions=(("a", "b"),))
        with pytest.raises(ValueError, match="delimiters"):
            SweepGrid(delimiters=(), directions=(("a", "b"),))

    def test_negative_shot_count_rejected(self):
        with pytest.raises(ValueError, match="shot counts must be >= 0"):
            SweepGrid(directions=(("a", "b"),), shots=(-1,))
        with pytest.raises(ValueError, match="shot counts"):
            SweepGrid(directions=(("a", "b"),), shots=(0, 4, -1))
        with pytest.raises(ValueError, match="shot counts must be an integer"):
            SweepGrid(directions=(("a", "b"),), shots=(True,))


class TestCopyBaseline:
    def test_self_bleu_is_100(self, sentiment_records):
        summary = copy_baseline(sentiment_records)
        assert summary.s_sbleu == 100.0
        assert summary.accuracy is None

    def test_perfect_triple_gleu(self):
        records = [record("a", "the cat sat", reference="the cat sat")]
        summary = copy_baseline(records)
        assert summary.gleu == pytest.approx(1.0)
        assert summary.exact_match == 1.0
        assert summary.r_sbleu == 100.0

    def test_classifier_accuracy_when_endpoints_given(self, mock_ep,
                                                      sentiment_records):
        summary = copy_baseline(sentiment_records, mock_ep)
        # copies keep their source style, so accuracy toward the target is 0
        assert summary.accuracy == 0.0

    def test_blank_reference_is_absent(self, tmp_path):
        path = tmp_path / "refs.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in (
            {"id": "a", "source": "the cat sat", "reference": "the cat sat",
             "source_style": "draft", "target_style": "edited"},
            {"id": "b", "source": "a dog ran", "reference": "  ",
             "source_style": "draft", "target_style": "edited"})))
        records = load_dataset(str(path), "jsonl")
        assert records[1].reference == "  "
        summary = copy_baseline(records)
        assert summary.r_sbleu == ref_sbleu(["the cat sat"], ["the cat sat"])
        assert summary.exact_match == 1.0
        assert summary.gleu == pytest.approx(1.0)

    def test_blank_source_line_skipped(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in (
            {"id": "a", "source": "the cat sat", "reference": "the cat sat",
             "source_style": "draft", "target_style": "edited"},
            {"id": "b", "source": "  ", "reference": "a dog ran",
             "source_style": "draft", "target_style": "edited"})))
        records = load_dataset(str(path), "jsonl")
        assert [r.id for r in records] == ["a"]
        summary = copy_baseline(records)
        assert summary.exact_match == 1.0
        assert summary.gleu == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(PipelineError):
            copy_baseline([])


def test_summary_is_eval_summary(mock_ep, sentiment_records):
    cfg = RerankConfig(k=3, endpoints=mock_ep)
    manifest = transfer_corpus(sentiment_records, RequestTemplate(), cfg)
    assert isinstance(manifest.summary, EvalSummary)
