import codecs
import csv
import io
import json
from dataclasses import replace
from pathlib import Path

import pytest

from loopback import LoopbackServer, Reply, mock_answer
from restyle import cli
from restyle.backends import BackendEndpoints
from restyle.cli import main
from restyle.data import (
    StylePairRecord,
    SymbSpec,
    generate_symb,
    load_dataset,
    save_records,
)
from restyle.metrics import self_sbleu, sentence_gleu
from restyle.pipeline import RequestTemplate, read_manifest
from restyle.prompts import PromptConfig
from restyle.reranking import RerankConfig

MOCK_ENV = {
    "RESTYLE_COMPLETE_URL": "mock://lexicon-flip",
    "RESTYLE_SCORE_URL": "mock://uniform",
    "RESTYLE_FILL_MASK_URL": "mock://sentiment",
    "RESTYLE_EMBED_URL": "mock://hash-embed",
}


@pytest.fixture
def mock_env(monkeypatch):
    for key in list(MOCK_ENV) + ["RESTYLE_CLASSIFIER_URL"]:
        monkeypatch.delenv(key, raising=False)
    for key, value in MOCK_ENV.items():
        monkeypatch.setenv(key, value)


@pytest.fixture
def dataset_path(tmp_path, sentiment_records):
    path = tmp_path / "toy.jsonl"
    save_records(sentiment_records, str(path), "jsonl")
    return str(path)


class TestTransfer:
    def test_single_text_prints_flip(self, mock_env, capsys):
        code = main(["transfer", "--text", "good food", "--from", "positive",
                     "--to", "negative", "--template", "contrastive",
                     "--delimiter", "curly"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "bad food"

    @pytest.mark.parametrize("text, argv, winner", [
        ("the food was good", ["--template", "Negation-V2"], "the food was bad"),
        ("the food was good", ["--prompt-config", "{config}", "--delimiter",
                               "wide"], "the food was bad"),
        ("apple < pear is good", ["--delimiter", "angle"], "apple < pear is bad"),
        ("the food was good", ["--delimiter", " Triple_Angle "], "the food was bad"),
        ("the food was good", ["--delimiter", "Curly"], "the food was bad"),
    ], ids=["template-name", "custom-delimiter", "input-holds-the-opener",
            "delimiter-name-spaced", "delimiter-name-case"])
    def test_mock_reads_the_query_input(self, mock_env, tmp_path, capsys, text,
                                        argv, winner):
        config = tmp_path / "prompts.json"
        config.write_text(json.dumps(
            {"delimiters": {"wide": {"open": "<<", "close": ">>"}}}))
        code = main(["transfer", "--text", text, "--from", "positive", "--to",
                     "negative", *(arg.format(config=config) for arg in argv)])
        assert code == 0
        assert capsys.readouterr().out == winner + "\n"

    def test_json_record(self, mock_env, capsys):
        code = main(["transfer", "--text", "good food", "--from", "positive",
                     "--to", "negative", "--json"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["winner"] == "bad food"
        assert len(record["candidates"]) == 3

    def test_needs_text_or_dataset(self, mock_env, capsys):
        assert main(["transfer", "--from", "positive", "--to", "negative"]) == 2
        assert capsys.readouterr().err == \
            "error: provide either --text or --dataset\n"

    def test_no_record_in_the_direction_exits_2(self, mock_env, dataset_path,
                                                capsys):
        assert main(["transfer", "--dataset", dataset_path, "--from", "formal",
                     "--to", "informal"]) == 2
        assert capsys.readouterr().err == ("error: no dataset records match "
                                           "the requested style direction\n")

    def test_failed_example_prints_an_error_line(self, mock_env, tmp_path,
                                                 capsys):
        path = tmp_path / "collide.jsonl"
        save_records([
            StylePairRecord("p0", "the food was good", None, "positive",
                            "negative"),
            StylePairRecord("p1", "the } food", None, "positive", "negative"),
        ], str(path), "jsonl")
        code = main(["transfer", "--dataset", str(path), "--from", "positive",
                     "--to", "negative"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [
            "p0: the food was bad",
            "p1: ERROR DelimiterCollisionError: input_text contains the "
            "closing delimiter '}'"]
        assert "failed: 1" in lines

    def test_missing_to_exits_2(self, mock_env):
        with pytest.raises(SystemExit) as exc:
            main(["transfer", "--text", "x", "--from", "positive"])
        assert exc.value.code == 2

    def test_k_zero_exits_2(self, mock_env, capsys):
        assert main(["transfer", "--text", "x", "--from", "a", "--to", "b",
                     "--k", "0"]) == 2
        assert capsys.readouterr().err == "error: k must be >= 1, got 0\n"

    @pytest.mark.parametrize("argv, error", [
        (["--beam-width", "0"], "beam_width must be >= 1, got 0"),
        (["--max-new-tokens", "0"], "max_new_tokens must be >= 1, got 0"),
    ], ids=["beam-width", "max-new-tokens"])
    def test_generation_count_below_one_exits_2(self, mock_env, capsys, argv,
                                                error):
        assert main(["transfer", "--text", "x", "--from", "a", "--to", "b",
                     *argv]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_dataset_jobs_zero_exits_2_before_any_call(
            self, mock_env, dataset_path, tmp_path, monkeypatch, capsys):
        out = tmp_path / "run.jsonl"
        with LoopbackServer() as server:
            for service in ("COMPLETE", "SCORE", "FILL_MASK", "EMBED"):
                monkeypatch.setenv(f"RESTYLE_{service}_URL",
                                   f"{server.url}/{service.lower()}")
            code = main(["transfer", "--dataset", dataset_path,
                         "--from", "positive", "--to", "negative",
                         "--jobs", "0", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: jobs must be >= 1, got 0\n"
        assert server.requests == []
        assert not out.exists()

    def test_dataset_same_style_exits_2_before_any_call(
            self, mock_env, dataset_path, monkeypatch, capsys):
        # Refused as a transfer into the style it starts from, not as a
        # direction that no record of the dataset has.
        with LoopbackServer() as server:
            for service in ("COMPLETE", "SCORE", "FILL_MASK", "EMBED"):
                monkeypatch.setenv(f"RESTYLE_{service}_URL",
                                   f"{server.url}/{service.lower()}")
            code = main(["transfer", "--dataset", dataset_path,
                         "--from", "positive", "--to", "positive"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: source and target style are both 'positive'; a transfer "
            "needs two styles\n")
        assert server.requests == []

    def test_bad_endpoint_url_exits_2_before_any_call(
            self, mock_env, dataset_path, monkeypatch, capsys):
        # The embed URL names no mock: refused as the environment is read,
        # before the other services are asked anything.
        with LoopbackServer() as server:
            for service in ("COMPLETE", "SCORE", "FILL_MASK"):
                monkeypatch.setenv(f"RESTYLE_{service}_URL",
                                   f"{server.url}/{service.lower()}")
            monkeypatch.setenv("RESTYLE_EMBED_URL", "mock://hash-embd")
            code = main(["transfer", "--dataset", dataset_path,
                         "--from", "positive", "--to", "negative"])
        assert code == 2
        assert capsys.readouterr() == ("", "error: embed endpoint: unknown mock "
                                       "backend 'mock://hash-embd'\n")
        assert server.requests == []

    def test_colliding_exemplar_exits_2_before_any_call(
            self, mock_env, dataset_path, tmp_path, monkeypatch, capsys):
        # Refused as the run's plan is built, not once per example.
        exemplars = tmp_path / "exemplars.jsonl"
        save_records([StylePairRecord("e0", "the tea was {hot}",
                                      "the tea was cold", "positive",
                                      "negative")], str(exemplars), "jsonl")
        with LoopbackServer() as server:
            for service in ("COMPLETE", "SCORE", "FILL_MASK", "EMBED"):
                monkeypatch.setenv(f"RESTYLE_{service}_URL",
                                   f"{server.url}/{service.lower()}")
            code = main(["transfer", "--dataset", dataset_path,
                         "--from", "positive", "--to", "negative",
                         "--shots", "1", "--exemplars", str(exemplars)])
        assert code == 2
        assert capsys.readouterr() == ("", "error: exemplar input contains "
                                       "the closing delimiter '}'\n")
        assert server.requests == []

    def test_unwritable_out_exits_2_before_any_call(
            self, mock_env, dataset_path, tmp_path, monkeypatch, capsys):
        out = tmp_path / "missing" / "run.jsonl"
        with LoopbackServer() as server:
            for service in ("COMPLETE", "SCORE", "FILL_MASK", "EMBED"):
                monkeypatch.setenv(f"RESTYLE_{service}_URL",
                                   f"{server.url}/{service.lower()}")
            code = main(["transfer", "--dataset", dataset_path,
                         "--from", "positive", "--to", "negative",
                         "--out", str(out)])
        assert code == 2
        assert str(out) in capsys.readouterr().err
        assert server.requests == []

    def test_failed_run_leaves_an_existing_out_file(self, mock_env, tmp_path):
        path = tmp_path / "collide.jsonl"
        save_records([StylePairRecord("p0", "the } food", None, "positive",
                                      "negative")], str(path), "jsonl")
        out = tmp_path / "run.jsonl"
        out.write_text("an earlier manifest\n")
        code = main(["transfer", "--dataset", str(path), "--from", "positive",
                     "--to", "negative", "--out", str(out)])
        assert code == 1
        assert out.read_text() == "an earlier manifest\n"

    @pytest.mark.parametrize("argv, env, error", [
        (["--from", "positive", "--to", " positive"], {},
         "source and target style are both 'positive'"),
        (["--from", "positive", "--to", "negative"], {"SCORE": ""},
         "missing backend endpoints: RESTYLE_SCORE_URL (score, or "
         "use_fluency=False)"),
        (["--text", "   ", "--from", "positive", "--to", "negative"], {},
         "input_text must be a non-blank string, got '   '"),
        (["--from", "positive", "--to", "negative", "--k", "5",
          "--beam-width", "3"], {},
         "beam_width must be >= the 5 candidates asked for, got 3"),
    ], ids=["same-style", "empty-score-url", "blank-text", "beam-below-k"])
    def test_exits_2_before_any_call(self, mock_env, monkeypatch, capsys,
                                     argv, env, error):
        with LoopbackServer() as server:
            for service in ("COMPLETE", "SCORE", "FILL_MASK", "EMBED"):
                monkeypatch.setenv(
                    f"RESTYLE_{service}_URL",
                    env.get(service, f"{server.url}/{service.lower()}"))
            code = main(["transfer", "--text", "the food was good", *argv])
        assert code == 2
        assert error in capsys.readouterr().err
        assert server.requests == []

    def test_missing_endpoints_exit_2(self, monkeypatch, capsys):
        for key in MOCK_ENV:
            monkeypatch.delenv(key, raising=False)
        code = main(["transfer", "--text", "x", "--from", "a", "--to", "b"])
        assert code == 2
        assert "missing backend endpoints" in capsys.readouterr().err

    def test_classifier_strength_needs_no_fill_mask(self, mock_env,
                                                    monkeypatch, capsys):
        monkeypatch.delenv("RESTYLE_FILL_MASK_URL")
        monkeypatch.setenv("RESTYLE_CLASSIFIER_URL", "mock://sentiment")
        code = main(["transfer", "--text", "the food was good", "--from",
                     "positive", "--to", "negative",
                     "--strength-source", "external_classifier"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "the food was bad"

    @pytest.mark.parametrize("strength_source, classifier", [
        ("mlm_cloze", "mock://sentiment"),
        ("external_classifier", None),
    ])
    def test_fill_mask_required_when_called(self, mock_env, monkeypatch,
                                            capsys, strength_source,
                                            classifier):
        monkeypatch.delenv("RESTYLE_FILL_MASK_URL")
        if classifier is not None:
            monkeypatch.setenv("RESTYLE_CLASSIFIER_URL", classifier)
        code = main(["transfer", "--text", "the food was good", "--from",
                     "positive", "--to", "negative",
                     "--strength-source", strength_source])
        assert code == 2
        assert capsys.readouterr().err.strip() == \
            "error: missing backend endpoints: RESTYLE_FILL_MASK_URL (fill_mask)"

    def test_backend_failure_exits_1(self, mock_env, monkeypatch, capsys):
        monkeypatch.setenv("RESTYLE_COMPLETE_URL", "http://127.0.0.1:9/complete")
        monkeypatch.setenv("RESTYLE_TIMEOUT", "0.2")
        monkeypatch.setenv("RESTYLE_MAX_RETRIES", "1")
        code = main(["transfer", "--text", "good food", "--from", "positive",
                     "--to", "negative"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
    def test_invalid_temperature_exits_2_without_manifest(
            self, mock_env, dataset_path, tmp_path, capsys, value):
        out = tmp_path / "run.jsonl"
        code = main(["transfer", "--dataset", dataset_path, "--from", "positive",
                     "--to", "negative", "--temperature", value,
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: temperature must be")
        assert not out.exists()

    @pytest.mark.parametrize("name, value", [
        ("MAX_RETRIES", "0"), ("TIMEOUT", "-1"), ("TIMEOUT", "nan"),
        ("RETRY_BACKOFF", "-1"), ("MASK_TOKEN", " "), ("MAX_RETRIES", "x"),
        ("TIMEOUT", "soon"),
    ])
    def test_invalid_transport_setting_exits_2(self, mock_env, monkeypatch,
                                               capsys, name, value):
        monkeypatch.setenv(f"RESTYLE_{name}", value)
        code = main(["transfer", "--text", "good food", "--from", "positive",
                     "--to", "negative"])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {name.lower()} must be")

    def test_unknown_template_exits_2(self, mock_env, capsys):
        code = main(["transfer", "--text", "x", "--from", "a", "--to", "b",
                     "--template", "psychedelic"])
        assert code == 2

    def test_dataset_run_writes_manifest(self, mock_env, dataset_path,
                                         tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        code = main(["transfer", "--dataset", dataset_path, "--from", "positive",
                     "--to", "negative", "--seed", "3", "--out", str(out),
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["examples"] == 2  # only the positive->negative rows
        assert payload["summary"]["accuracy"] == 1.0
        manifest = read_manifest(str(out))
        assert len(manifest.records) == 2

    def test_generation_flags_reach_manifest_and_complete_body(
            self, mock_env, dataset_path, tmp_path, monkeypatch, capsys):
        out = tmp_path / "run.jsonl"
        with LoopbackServer() as server:
            monkeypatch.setenv("RESTYLE_COMPLETE_URL", f"{server.url}/complete")
            code = main(["transfer", "--dataset", dataset_path,
                         "--from", "positive", "--to", "negative",
                         "--k", "2", "--max-new-tokens", "7",
                         "--decode-mode", "sample", "--beam-width", "5",
                         "--temperature", "0.5", "--out", str(out)])
        assert code == 0
        decode = {"mode": "sample", "beam_width": 5, "temperature": 0.5}
        config = read_manifest(str(out)).config
        assert (config["k"], config["max_new_tokens"], config["decode"]) == \
            (2, 7, decode)
        bodies = [body for _, _, _, body in server.requests]
        assert len(bodies) == 2  # the positive->negative rows
        assert all((body["num_candidates"], body["max_new_tokens"],
                    body["decode"]) == (2, 7, decode) for body in bodies)

    def test_few_shot_prompt_holds_exemplar(self, mock_env, tmp_path, capsys,
                                            sentiment_records):
        exemplars = tmp_path / "exemplars.jsonl"
        save_records([replace(r, reference="a reference for it")
                      for r in sentiment_records], str(exemplars), "jsonl")
        code = main(["transfer", "--text", "good food", "--from", "positive",
                     "--to", "negative", "--shots", "1",
                     "--exemplars", str(exemplars), "--json"])
        assert code == 0
        prompt = json.loads(capsys.readouterr().out)["prompt"]
        first = sentiment_records[0].source
        assert prompt.startswith(f"Here is a text, which is positive: {{{first}}}")
        assert "{a reference for it}\n" in prompt
        assert prompt.endswith("{good food} Here is a rewrite of the text, "
                               "which is negative: {")

    def test_shots_without_exemplars_exits_2(self, mock_env, capsys):
        code = main(["transfer", "--text", "good food", "--from", "positive",
                     "--to", "negative", "--shots", "1"])
        assert code == 2
        assert "requires --exemplars" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"templates": ["a"]},
        {"delimiters": {"x": {"open": "<", "close": 5}}},
    ], ids=["templates-list", "int-close"])
    def test_malformed_prompt_config_exits_2(self, mock_env, tmp_path, capsys,
                                             doc):
        config = tmp_path / "prompts.json"
        config.write_text(json.dumps(doc))
        code = main(["transfer", "--text", "good food", "--from", "positive",
                     "--to", "negative", "--delimiter", "x",
                     "--prompt-config", str(config)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_negative_shots_exit_2(self, mock_env, tmp_path, capsys,
                                   sentiment_records):
        exemplars = tmp_path / "exemplars.jsonl"
        save_records([replace(r, reference="a reference for it")
                      for r in sentiment_records[:2]], str(exemplars), "jsonl")
        assert main(["transfer", "--text", "good food", "--from", "positive",
                     "--to", "negative", "--shots", "-1",
                     "--exemplars", str(exemplars)]) == 2
        assert capsys.readouterr().err == "error: shots must be >= 0, got -1\n"

    def test_deterministic_output(self, mock_env, capsys):
        argv = ["transfer", "--text", "great fresh bread", "--from", "positive",
                "--to", "negative", "--seed", "11", "--json"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first


class TestSweep:
    def test_restricted_sweep_csv(self, mock_env, dataset_path, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--dataset", dataset_path,
                     "--templates", "vanilla,contrastive",
                     "--delimiters", "curly", "--seed", "0",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("template,delimiter,direction,shots,accuracy,"
                            "r_sbleu,s_sbleu,ppl,gleu,exact_match")
        assert len(lines) == 1 + 2 * 1 * 2

    def test_sweep_stdout_deterministic(self, mock_env, dataset_path, capsys):
        argv = ["sweep", "--dataset", dataset_path, "--templates", "contrastive",
                "--delimiters", "curly,square", "--seed", "4"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    def test_exemplar_file_loaded_once(self, mock_env, dataset_path, tmp_path,
                                       monkeypatch, sentiment_records):
        exemplars = tmp_path / "exemplars.jsonl"
        save_records([replace(r, id=f"ex-{r.id}", reference="a reference")
                      for r in sentiment_records], str(exemplars), "jsonl")
        loaded = []

        def counting_load(path, *args, **kwargs):
            loaded.append(path)
            return load_dataset(path, *args, **kwargs)

        monkeypatch.setattr(cli, "load_dataset", counting_load)
        code = main(["sweep", "--dataset", dataset_path, "--templates", "vanilla",
                     "--delimiters", "curly", "--shots", "0,1",
                     "--exemplars", str(exemplars), "--out", str(tmp_path / "s.csv")])
        assert code == 0
        assert loaded == [dataset_path, str(exemplars)]
        rows = (tmp_path / "s.csv").read_text().splitlines()[1:]
        assert len(rows) == 2 * 2  # two directions, two shot counts

    def test_cell_short_of_exemplars_is_a_failed_row(
            self, mock_env, dataset_path, tmp_path, capsys, sentiment_records):
        exemplars = tmp_path / "exemplars.jsonl"
        save_records([replace(r, id=f"ex-{r.id}", reference="a reference")
                      for r in sentiment_records], str(exemplars), "jsonl")
        code = main(["sweep", "--dataset", dataset_path, "--templates", "vanilla",
                     "--delimiters", "curly", "--directions", "positive:negative",
                     "--shots", "0,2,3", "--exemplars", str(exemplars)])
        captured = capsys.readouterr()
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(captured.out)))
        assert [row["shots"] for row in rows] == ["0", "2", "3"]
        assert [row["accuracy"] != "" for row in rows] == [True, True, False]
        assert captured.err.endswith("1 of 3 cells failed\n")

    def test_negative_shots_exit_2(self, mock_env, dataset_path, tmp_path,
                                   capsys):
        code = main(["sweep", "--dataset", dataset_path, "--templates", "vanilla",
                     "--delimiters", "curly", "--shots", "0,-1",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert "shot counts must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_empty_dataset_exits_2(self, mock_env, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["sweep", "--dataset", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path} contains no records\n"

    def test_same_style_direction_exits_2_before_any_call(
            self, mock_env, dataset_path, monkeypatch, capsys):
        # It fails once, where it is parsed, not as a failed row per cell.
        with LoopbackServer() as server:
            for service in ("COMPLETE", "SCORE", "FILL_MASK", "EMBED"):
                monkeypatch.setenv(f"RESTYLE_{service}_URL",
                                   f"{server.url}/{service.lower()}")
            code = main(["sweep", "--dataset", dataset_path,
                         "--directions", "positive:negative, Positive : Positive"])
        assert code == 2
        assert capsys.readouterr() == ("", (
            "error: source and target style are both 'Positive'; a transfer "
            "needs two styles\n"))
        assert server.requests == []

    def test_missing_embed_url_exits_2_before_any_call(
            self, mock_env, dataset_path, monkeypatch, capsys):
        with LoopbackServer() as server:
            for service in ("COMPLETE", "SCORE", "FILL_MASK"):
                monkeypatch.setenv(f"RESTYLE_{service}_URL",
                                   f"{server.url}/{service.lower()}")
            monkeypatch.delenv("RESTYLE_EMBED_URL")
            code = main(["sweep", "--dataset", dataset_path])
        assert code == 2
        assert capsys.readouterr() == ("", "error: missing backend endpoints: "
                                       "RESTYLE_EMBED_URL (embed)\n")
        assert server.requests == []

    def test_unwritable_out_exits_2_before_any_call(
            self, mock_env, dataset_path, tmp_path, monkeypatch, capsys):
        out = tmp_path / "missing" / "sweep.csv"
        with LoopbackServer() as server:
            for service in ("COMPLETE", "SCORE", "FILL_MASK", "EMBED"):
                monkeypatch.setenv(f"RESTYLE_{service}_URL",
                                   f"{server.url}/{service.lower()}")
            code = main(["sweep", "--dataset", dataset_path, "--templates",
                         "vanilla", "--delimiters", "curly", "--out", str(out)])
        assert code == 2
        assert str(out) in capsys.readouterr().err
        assert server.requests == []

    def test_bad_direction_syntax_exits_2(self, mock_env, dataset_path):
        code = main(["sweep", "--dataset", dataset_path,
                     "--directions", "positive-negative"])
        assert code == 2

    def test_directions_parse_like_dataset_styles(self, mock_env, tmp_path,
                                                  monkeypatch, capsys):
        dataset = tmp_path / "negated.jsonl"
        dataset.write_text(json.dumps({
            "id": "q0", "source": "the food was good",
            "source_style": "not negative", "target_style": "negative"}) + "\n")

        def any_label(path, body):
            # The mock mask filler scores single words only.
            if path.endswith("/fill_mask"):
                return Reply({"scores": {label: 0.5 for label in body["labels"]}})
            return mock_answer(path, body)

        with LoopbackServer(any_label) as server:
            monkeypatch.setenv("RESTYLE_FILL_MASK_URL", f"{server.url}/fill_mask")
            code = main(["sweep", "--dataset", str(dataset),
                         "--templates", "vanilla", "--delimiters", "curly",
                         "--directions", " Not  negative : negative"])
        captured = capsys.readouterr()
        assert code == 0
        assert "failed" not in captured.err
        [row] = csv.DictReader(io.StringIO(captured.out))
        assert row["direction"] == "not negative->negative"
        assert row["accuracy"] != ""

    def test_custom_templates_named_by_their_text(self, mock_env, dataset_path,
                                                  tmp_path, capsys):
        plain = "Rewrite this {s1} text as {s2}: {d1}{x}{d2} Rewrite: {d1}"
        terse = "{s1} to {s2}. {d1}{x}{d2} {d1}"
        config = tmp_path / "prompts.json"
        config.write_text(json.dumps({"templates": {"plain": plain,
                                                    "terse": terse}}))
        code = main(["sweep", "--dataset", dataset_path, "--prompt-config",
                     str(config), "--templates", "plain,terse",
                     "--delimiters", "curly", "--directions", "positive:negative"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [row["template"] for row in rows] == [plain, terse]
        assert all(row["accuracy"] != "" for row in rows)


class TestSymb:
    def test_generates_requested_count(self, tmp_path, capsys):
        out = tmp_path / "symb.jsonl"
        code = main(["symb", "--n", "40", "--seed", "7", "--out", str(out)])
        assert code == 0
        records = load_dataset(str(out), "jsonl")
        assert len(records) == 40
        assert records == generate_symb(SymbSpec(n=40, seed=7))

    def test_n_zero_exits_2(self, tmp_path, capsys):
        out = tmp_path / "symb.jsonl"
        assert main(["symb", "--n", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: n must be >= 1, got 0\n"
        assert not out.exists()

    def test_tsv_output(self, tmp_path):
        out = tmp_path / "symb.tsv"
        assert main(["symb", "--n", "5", "--seed", "1", "--out", str(out),
                     "--format", "tsv"]) == 0
        assert len(load_dataset(str(out), "tsv")) == 5


class TestClean:
    def test_cleans_lines(self, tmp_path, capsys):
        src = tmp_path / "raw.txt"
        dst = tmp_path / "clean.txt"
        src.write_text("this place was great !\ndo n't go\n")
        code = main(["clean", "--in", str(src), "--out", str(dst)])
        assert code == 0
        assert dst.read_text() == "this place was great!\ndon't go\n"

    def test_byte_order_mark_dropped(self, tmp_path, capsys):
        src = tmp_path / "raw.txt"
        src.write_text("\ufeffdo n't go\n", encoding="utf-8")
        assert main(["clean", "--in", str(src)]) == 0
        assert capsys.readouterr().out == "don't go\n"

    def test_writes_stdout_by_default(self, tmp_path, capsys):
        src = tmp_path / "raw.txt"
        src.write_text("( hello ) !\n")
        assert main(["clean", "--in", str(src)]) == 0
        assert capsys.readouterr().out == "(hello)!\n"


class TestEval:
    def test_identical_files_bleu_100(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("RESTYLE_SCORE_URL", raising=False)
        hyp = tmp_path / "h.txt"
        ref = tmp_path / "r.txt"
        hyp.write_text("good food\nnice day\n")
        ref.write_text("good food\nnice day\n")
        code = main(["eval", "--hyp", str(hyp), "--ref", str(ref), "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert summary["r_sbleu"] == 100.0
        assert summary["exact_match"] == 1.0

    def test_byte_order_marks_ignored(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("RESTYLE_SCORE_URL", raising=False)
        for name, bom in (("h", "\ufeff"), ("s", "\ufeff"), ("r", "")):
            (tmp_path / f"{name}.txt").write_text(f"{bom}good food\nnice day\n",
                                                  encoding="utf-8")
        code = main(["eval", "--hyp", str(tmp_path / "h.txt"),
                     "--src", str(tmp_path / "s.txt"),
                     "--ref", str(tmp_path / "r.txt"), "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert summary["exact_match"] == 1.0
        assert summary["s_sbleu"] == summary["r_sbleu"] == 100.0

    def test_perplexity_overflow_leaves_ppl_absent(self, tmp_path, capsys,
                                                    monkeypatch, caplog):
        monkeypatch.setenv("RESTYLE_SCORE_URL", f"mock://uniform?vocab={10 ** 400}")
        hyp = tmp_path / "h.txt"
        hyp.write_text("good food\n")
        with caplog.at_level("WARNING"):
            assert main(["eval", "--hyp", str(hyp), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert summary["ppl"] is None
        assert summary["s_sbleu"] is None
        warnings = [r.getMessage() for r in caplog.records
                    if r.name == "restyle.metrics"]
        assert len(warnings) == 1
        assert warnings[0].startswith(
            "perplexity not measured: perplexity overflows a float")

    def test_overflowing_run_reevaluates_to_its_summary(
            self, mock_env, dataset_path, tmp_path, capsys, monkeypatch):
        # The run's winners and the re-evaluation's /score calls both give
        # a mean token log-prob of about -921: no PPL either way.
        monkeypatch.setenv("RESTYLE_SCORE_URL", f"mock://uniform?vocab={10 ** 400}")
        out = tmp_path / "run.jsonl"
        assert main(["transfer", "--dataset", dataset_path, "--from", "positive",
                     "--to", "negative", "--seed", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        stored = read_manifest(str(out)).summary.to_dict()
        assert stored["ppl"] is None and stored["accuracy"] is not None
        assert main(["eval", "--manifest", str(out), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["summary"] == stored

    def test_gleu_needs_all_three(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("RESTYLE_SCORE_URL", raising=False)
        for name, body in (("s", "the cat sit\n"), ("h", "the cat sat\n"),
                           ("r", "the cat sat\n")):
            (tmp_path / f"{name}.txt").write_text(body)
        code = main(["eval", "--hyp", str(tmp_path / "h.txt"),
                     "--src", str(tmp_path / "s.txt"),
                     "--ref", str(tmp_path / "r.txt"), "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert summary["gleu"] == pytest.approx(1.0)
        assert summary["s_sbleu"] is not None

    def test_blank_source_line_is_absent(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("RESTYLE_SCORE_URL", raising=False)
        for name, body in (("s", "the cat sit\n  \n"),
                           ("h", "the cat sat\na dog ran\n"),
                           ("r", "the cat sat\na dog ran\n")):
            (tmp_path / f"{name}.txt").write_text(body)
        code = main(["eval", "--hyp", str(tmp_path / "h.txt"),
                     "--src", str(tmp_path / "s.txt"),
                     "--ref", str(tmp_path / "r.txt"), "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert summary["s_sbleu"] == self_sbleu(["the cat sat"], ["the cat sit"])
        assert summary["gleu"] == sentence_gleu("the cat sit", "the cat sat",
                                                "the cat sat")
        assert summary["exact_match"] == 1.0

    @pytest.mark.parametrize("env", [
        {},
        {"RESTYLE_SCORE_URL": "mock://uniform",
         "RESTYLE_FILL_MASK_URL": "mock://sentiment"},
    ])
    def test_blank_hyp_line_scores_gleu_zero(self, tmp_path, capsys,
                                             monkeypatch, env):
        for key in list(MOCK_ENV) + ["RESTYLE_CLASSIFIER_URL"]:
            monkeypatch.delenv(key, raising=False)
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        for name, body in (("s", "the cat sit\nthe dog ran\n"),
                           ("h", "the cat sat\n\n"),
                           ("r", "the cat sat\nthe dog ran\n")):
            (tmp_path / f"{name}.txt").write_text(body)
        code = main(["eval", "--hyp", str(tmp_path / "h.txt"),
                     "--src", str(tmp_path / "s.txt"),
                     "--ref", str(tmp_path / "r.txt"), "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert summary["gleu"] == sentence_gleu(
            "the cat sit", "the cat sat", "the cat sat") / 2
        assert summary["exact_match"] == 0.5
        assert summary["accuracy"] is None
        if env:
            assert summary["ppl"] == pytest.approx(50257, rel=1e-9)
        else:
            assert summary["ppl"] is None

    def test_line_count_mismatch_exits_2(self, tmp_path, capsys):
        (tmp_path / "h.txt").write_text("a\nb\n")
        (tmp_path / "r.txt").write_text("a\n")
        code = main(["eval", "--hyp", str(tmp_path / "h.txt"),
                     "--ref", str(tmp_path / "r.txt")])
        assert code == 2

    def test_manifest_summary_reproduced_exactly(self, mock_env, dataset_path,
                                                 tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        main(["transfer", "--dataset", dataset_path, "--from", "positive",
              "--to", "negative", "--seed", "3", "--out", str(out)])
        capsys.readouterr()
        code = main(["eval", "--manifest", str(out), "--json"])
        assert code == 0
        recomputed = json.loads(capsys.readouterr().out)["summary"]
        stored = read_manifest(str(out)).summary.to_dict()
        assert recomputed == stored

    def test_byte_order_mark_manifest_reads_alike(self, tmp_path, capsys):
        golden = Path(__file__).parent / "data" / "golden_fluency_on.jsonl"
        bom = tmp_path / "bom.jsonl"
        bom.write_bytes(codecs.BOM_UTF8 + golden.read_bytes())
        outputs = []
        for path in (golden, bom):
            assert main(["eval", "--manifest", str(path), "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[1] == outputs[0]
        assert read_manifest(str(bom)) == read_manifest(str(golden))

    def test_needs_some_input(self, capsys):
        assert main(["eval"]) == 2

    @pytest.mark.parametrize("header", [
        {"id": "p0", "source": "good food", "source_style": "positive",
         "target_style": "negative"},
        [1, 2],
        {"run_id": "r", "timestamp": "t", "config": {}, "summary": {"ppl": "x"}},
        {"run_id": "r", "timestamp": "t", "config": {"endpoints": "x"},
         "summary": {}},
        {"run_id": "r", "timestamp": "t",
         "config": {"endpoints": {"complete": "ftp://host/complete"}},
         "summary": {}},
        b'{"run_id": "caf\xe9"}\n',
    ], ids=["dataset", "list-header", "string-metric", "string-endpoints",
            "ftp-endpoint", "latin1"])
    def test_non_manifest_is_an_error(self, tmp_path, capsys, header):
        path = tmp_path / "run.jsonl"
        # A bytes header is written as it is, to make a file that is not UTF-8.
        if isinstance(header, bytes):
            path.write_bytes(header)
        else:
            path.write_text(json.dumps(header) + "\n")
        assert main(["eval", "--manifest", str(path)]) == 1
        assert "is not a manifest" in capsys.readouterr().err


class TestCopyBaselineCommand:
    def test_reports_s_sbleu_100(self, mock_env, dataset_path, capsys):
        code = main(["copy-baseline", "--dataset", dataset_path, "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert summary["s_sbleu"] == 100.0
        assert summary["accuracy"] == 0.0
        assert summary["ppl"] == pytest.approx(50257, rel=1e-9)

    @pytest.mark.parametrize("command", ["copy-baseline", "transfer"])
    def test_same_style_row_strict_exits_2(self, mock_env, tmp_path, capsys,
                                           command):
        # The row fails at load, before any call: neither scored (exit 0)
        # nor taken for a backend failure (exit 1).
        path = tmp_path / "same.jsonl"
        path.write_text(json.dumps({"id": "s", "source": "the food was good",
                                    "source_style": "positive",
                                    "target_style": "positive"}) + "\n")
        argv = [command, "--dataset", str(path), "--strict"]
        if command == "transfer":
            argv += ["--from", "positive", "--to", "negative"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: line 1: record 's': source and target style are both "
            "'positive'; a transfer needs two styles\n")

    def test_every_row_skipped_exits_2(self, mock_env, tmp_path, capsys,
                                       caplog):
        # A lenient load skips the same-style row and leaves no record: a
        # usage error (exit 2), not a backend failure (exit 1).
        path = tmp_path / "same.jsonl"
        path.write_text(json.dumps({"id": "s", "source": "the food was good",
                                    "source_style": "positive",
                                    "target_style": "positive"}) + "\n")
        with caplog.at_level("WARNING"):
            assert main(["copy-baseline", "--dataset", str(path)]) == 2
        assert capsys.readouterr().err == \
            f"error: {path} contains no records\n"
        assert any("source and target style are both" in r.getMessage()
                   for r in caplog.records)

    def test_unscorable_styles_leave_accuracy_null(self, mock_env, tmp_path,
                                                   capsys, caplog):
        # The sentiment mock cannot score the symbolic styles.
        path = tmp_path / "symb.jsonl"
        records = generate_symb(SymbSpec(n=20, seed=0))
        save_records(records, str(path), "jsonl")
        with caplog.at_level("WARNING"):
            code = main(["copy-baseline", "--dataset", str(path), "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert summary["accuracy"] is None
        assert summary["s_sbleu"] == 100.0
        assert summary["r_sbleu"] is not None
        assert summary["ppl"] == pytest.approx(50257, rel=1e-9)
        warnings = [r.getMessage() for r in caplog.records
                    if r.name == "restyle.metrics"]
        assert len(warnings) == 1
        styles = {s for r in records for s in (r.source_style, r.target_style)}
        assert all(style in warnings[0] for style in styles)


@pytest.mark.parametrize("argv", [
    ["eval", "--hyp", "{missing}"],
    ["eval", "--hyp", "{directory}"],
    ["transfer", "--text", "good food", "--from", "positive", "--to",
     "negative", "--prompt-config", "{missing}"],
    ["clean", "--in", "{missing}"],
    ["clean", "--in", "{directory}"],
    ["eval", "--hyp", "{latin1}"],
    ["transfer", "--text", "good food", "--from", "positive", "--to",
     "negative", "--prompt-config", "{latin1}"],
    ["clean", "--in", "{latin1}"],
    ["copy-baseline", "--dataset", "{latin1}"],
], ids=["eval-hyp", "eval-hyp-directory", "transfer-prompt-config",
        "clean-in", "clean-in-directory", "eval-hyp-latin1",
        "transfer-prompt-config-latin1", "clean-in-latin1",
        "copy-baseline-dataset-latin1"])
def test_unreadable_input_file_exits_2(argv, mock_env, tmp_path, capsys):
    # A latin1 file, not UTF-8, fails its decode: named like any other.
    (tmp_path / "latin1.txt").write_bytes(b'{"source": "caf\xe9"}\n')
    paths = {"missing": str(tmp_path / "missing.txt"), "directory": str(tmp_path),
             "latin1": str(tmp_path / "latin1.txt")}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert str(tmp_path) in err


@pytest.mark.parametrize("argv", [
    ["sweep", "--dataset", "d.jsonl", "--json"],
    ["symb", "--out", "s.jsonl", "--json"],
    ["clean", "--in", "-", "--json"],
    ["clean", "--in", "-", "--seed", "1"],
    ["eval", "--hyp", "h.txt", "--seed", "1"],
    ["copy-baseline", "--dataset", "d.jsonl", "--seed", "1"],
])
def test_flags_a_subcommand_ignores_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_defaults_are_the_library_defaults(mock_env):
    parser = cli.build_parser()
    for argv in (["transfer", "--from", "a", "--to", "b"],
                 ["sweep", "--dataset", "d.jsonl"]):
        args = parser.parse_args(argv)
        assert cli._run_config(args) == RerankConfig(
            endpoints=BackendEndpoints.from_env())
    args = parser.parse_args(["transfer", "--from", "a", "--to", "b"])
    assert RequestTemplate(PromptConfig().template(args.template),
                           PromptConfig().delimiter(args.delimiter)) == \
        RequestTemplate()
    args = parser.parse_args(["symb", "--out", "s.jsonl"])
    assert SymbSpec(n=args.n, seed=args.seed) == SymbSpec()
