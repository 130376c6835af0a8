import json
from dataclasses import replace

import pytest

from restyle import cli
from restyle.cli import main
from restyle.data import SymbSpec, generate_symb, load_dataset, save_records
from restyle.metrics import self_sbleu, sentence_gleu
from restyle.pipeline import read_manifest

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

    def test_json_record(self, mock_env, capsys):
        code = main(["transfer", "--text", "good food", "--from", "positive",
                     "--to", "negative", "--json"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["winner"] == "bad food"
        assert len(record["candidates"]) == 3

    def test_missing_to_exits_2(self, mock_env):
        with pytest.raises(SystemExit) as exc:
            main(["transfer", "--text", "x", "--from", "positive"])
        assert exc.value.code == 2

    def test_k_zero_exits_2(self, mock_env):
        with pytest.raises(SystemExit) as exc:
            main(["transfer", "--text", "x", "--from", "a", "--to", "b",
                  "--k", "0"])
        assert exc.value.code == 2

    def test_missing_endpoints_exit_2(self, monkeypatch, capsys):
        for key in MOCK_ENV:
            monkeypatch.delenv(key, raising=False)
        code = main(["transfer", "--text", "x", "--from", "a", "--to", "b"])
        assert code == 2
        assert "missing backend endpoints" in capsys.readouterr().err

    def test_backend_failure_exits_1(self, mock_env, monkeypatch, capsys):
        monkeypatch.setenv("RESTYLE_COMPLETE_URL", "http://127.0.0.1:9/complete")
        monkeypatch.setenv("RESTYLE_TIMEOUT", "0.2")
        monkeypatch.setenv("RESTYLE_MAX_RETRIES", "1")
        code = main(["transfer", "--text", "good food", "--from", "positive",
                     "--to", "negative"])
        assert code == 1
        assert "error" in capsys.readouterr().err

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
        with pytest.raises(SystemExit) as exc:
            main(["transfer", "--text", "good food", "--from", "positive",
                  "--to", "negative", "--shots", "-1",
                  "--exemplars", str(exemplars)])
        assert exc.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

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

    def test_negative_shots_exit_2(self, mock_env, dataset_path, tmp_path,
                                   capsys):
        code = main(["sweep", "--dataset", dataset_path, "--templates", "vanilla",
                     "--delimiters", "curly", "--shots", "0,-1",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert "shot counts must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_bad_direction_syntax_exits_2(self, mock_env, dataset_path):
        code = main(["sweep", "--dataset", dataset_path,
                     "--directions", "positive-negative"])
        assert code == 2


class TestSymb:
    def test_generates_requested_count(self, tmp_path, capsys):
        out = tmp_path / "symb.jsonl"
        code = main(["symb", "--n", "40", "--seed", "7", "--out", str(out)])
        assert code == 0
        records = load_dataset(str(out), "jsonl")
        assert len(records) == 40
        assert records == generate_symb(SymbSpec(n=40, seed=7))

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

    def test_needs_some_input(self, capsys):
        assert main(["eval"]) == 2

    @pytest.mark.parametrize("header", [
        {"id": "p0", "source": "good food", "source_style": "positive",
         "target_style": "negative"},
        [1, 2],
        {"run_id": "r", "timestamp": "t", "config": {}, "summary": {"ppl": "x"}},
    ], ids=["dataset", "list-header", "string-metric"])
    def test_non_manifest_is_an_error(self, tmp_path, capsys, header):
        path = tmp_path / "run.jsonl"
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


@pytest.mark.parametrize("argv", [
    ["eval", "--hyp", "{missing}"],
    ["eval", "--hyp", "{directory}"],
    ["transfer", "--text", "good food", "--from", "positive", "--to",
     "negative", "--prompt-config", "{missing}"],
    ["clean", "--in", "{missing}"],
    ["clean", "--in", "{directory}"],
], ids=["eval-hyp", "eval-hyp-directory", "transfer-prompt-config",
        "clean-in", "clean-in-directory"])
def test_unreadable_input_file_exits_2(argv, mock_env, tmp_path, capsys):
    paths = {"missing": str(tmp_path / "missing.txt"), "directory": str(tmp_path)}
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
