import json
import random
import string

import pytest
from hypothesis import given, strategies as st

from restyle.prompts import (
    DELIMITERS,
    DelimiterCollisionError,
    DelimiterKind,
    DelimiterPair,
    Exemplar,
    PromptError,
    TemplateKind,
    TransferRequest,
    builtin_delimiters,
    delimiter_by_name,
    delimiter_name,
    extract_completion,
    load_prompt_config,
    parse_style,
    render_cloze,
    render_prompt,
)

POS = "positive"
NEG = "negative"
MOVIE = "I love The Sound of Music; it is the best movie ever!!"


def make_request(**kwargs):
    defaults = dict(input_text=MOVIE, source_style=POS, target_style=NEG,
                    template=TemplateKind.CONTRASTIVE,
                    delimiter=DELIMITERS["curly"])
    defaults.update(kwargs)
    return TransferRequest(**defaults)


class TestDelimiters:
    def test_ten_builtin_pairs(self):
        assert len(builtin_delimiters()) == 10

    def test_exact_pairs(self):
        expected = [
            ("{", "}"), ("[", "]"), ("<", ">"), ("(", ")"), ('"', '"'),
            ("--", "--"), ("<<<", ">>>"), ('> "', '"'), ('* "', '"'),
            ("{{", "}}"),
        ]
        assert [(d.open, d.close) for d in builtin_delimiters()] == expected

    def test_curly_is_complementary(self):
        curly = DELIMITERS["curly"]
        assert (curly.open, curly.close) == ("{", "}")
        assert curly.kind == DelimiterKind.COMPLEMENTARY

    def test_quotes_and_dashes_indistinguishable(self):
        kinds = [d.kind for d in builtin_delimiters()]
        assert kinds.count(DelimiterKind.INDISTINGUISHABLE) == 2
        assert kinds.count(DelimiterKind.COMPLEMENTARY) == 8
        assert DELIMITERS["quote"].kind == DelimiterKind.INDISTINGUISHABLE
        assert DELIMITERS["dash"].kind == DelimiterKind.INDISTINGUISHABLE

    def test_kind_derived_and_checked(self):
        assert DelimiterPair("a", "a").kind == DelimiterKind.INDISTINGUISHABLE
        assert DelimiterPair("a", "b").kind == DelimiterKind.COMPLEMENTARY
        with pytest.raises(AttributeError):
            DelimiterPair("a", "b").kind = DelimiterKind.INDISTINGUISHABLE
        with pytest.raises(PromptError):
            DelimiterPair("", "}")

    def test_name_lookup_roundtrip(self):
        for name in DELIMITERS:
            assert delimiter_name(delimiter_by_name(name)) == name
        with pytest.raises(PromptError):
            delimiter_by_name("fancy")


class TestStyleLabel:
    """A style is its label, written as parse_style writes it."""

    def test_empty_name_rejected(self):
        for label in ("", "   ", None, 3):
            with pytest.raises(PromptError, match="non-blank string"):
                parse_style(label)
            with pytest.raises(PromptError, match="non-blank string"):
                make_request(source_style=label)

    def test_parse_style(self):
        assert parse_style("not informal") == "not informal"
        assert parse_style(" NOT   informal ") == "not informal"
        assert parse_style("informal") == "informal"
        assert parse_style(" informal\t") == "informal"
        assert parse_style("Not") == "Not"
        assert parse_style("not ") == "not"
        assert parse_style("notable") == "notable"

    def test_request_stores_parsed_styles(self):
        req = make_request(source_style=" Not  negative", target_style="negative ")
        assert (req.source_style, req.target_style) == ("not negative", "negative")
        assert req == make_request(source_style="not negative",
                                   target_style="negative")


class TestRenderPrompt:
    def test_contrastive_curly_worked_example(self):
        expected = (
            "Here is a text, which is positive: "
            "{I love The Sound of Music; it is the best movie ever!!} "
            "Here is a rewrite of the text, which is negative: {"
        )
        assert render_prompt(make_request()) == expected

    def test_vanilla_never_mentions_source_style(self):
        prompt = render_prompt(make_request(template=TemplateKind.VANILLA))
        assert prompt == (
            "Here is a text: "
            "{I love The Sound of Music; it is the best movie ever!!} "
            "Here is a rewrite of the text, which is negative: {"
        )
        assert "positive" not in prompt

    def test_negation_v1_uses_not_source(self):
        prompt = render_prompt(make_request(
            template=TemplateKind.NEGATION_V1,
            delimiter=DELIMITERS["square"]))
        assert "which is not positive" in prompt
        assert "negative" not in prompt

    def test_negation_templates_contain_not(self):
        for kind in (TemplateKind.NEGATION_V1, TemplateKind.NEGATION_V2):
            assert "not " in render_prompt(make_request(template=kind))

    def test_delimiter_collision_rejected(self):
        with pytest.raises(DelimiterCollisionError):
            render_prompt(make_request(input_text="bad } text"))

    def test_four_template_variants_exist(self):
        assert len(TemplateKind) == 4

    def test_few_shot_blocks(self):
        exemplar = Exemplar(input="great food", output="awful food")
        prompt = render_prompt(make_request(exemplars=(exemplar, exemplar)))
        blocks = prompt.split("\n")
        assert len(blocks) == 3
        # every exemplar block carries its output closed by the delimiter
        assert blocks[0].endswith("negative: {awful food}")
        assert blocks[0] == blocks[1]
        assert blocks[2].endswith("negative: {")

    def test_zero_exemplars_identical_to_zero_shot(self):
        assert render_prompt(make_request(exemplars=())) == \
            render_prompt(make_request())

    def test_exemplars_take_the_request_styles(self):
        exemplar = Exemplar(input="great food", output="awful food")
        prompt = render_prompt(make_request(
            source_style=NEG, target_style=POS, exemplars=(exemplar,)))
        assert prompt.split("\n")[0] == (
            "Here is a text, which is negative: {great food} "
            "Here is a rewrite of the text, which is positive: {awful food}")

    def test_empty_input_rejected(self):
        with pytest.raises(PromptError):
            make_request(input_text="")

    @pytest.mark.parametrize("template", list(TemplateKind))
    @pytest.mark.parametrize("name", list(DELIMITERS))
    def test_ends_with_open_and_contains_input_once(self, template, name):
        text = "zq7xkw vmb9r plaintive"
        prompt = render_prompt(make_request(
            input_text=text, template=template, delimiter=DELIMITERS[name]))
        assert prompt.endswith(DELIMITERS[name].open)
        assert prompt.count(text) == 1


class TestExtractCompletion:
    def test_truncates_at_first_close(self):
        raw = "I hate The Sound of Music; it is the worst movie ever!!}"
        result = extract_completion(raw, DELIMITERS["curly"])
        assert result.text == "I hate The Sound of Music; it is the worst movie ever!!"
        assert not result.unterminated

    def test_unterminated_flag(self):
        result = extract_completion("abc", DELIMITERS["curly"])
        assert result.text == "abc"
        assert result.unterminated

    def test_first_occurrence_wins(self):
        assert extract_completion("x} junk} more", DELIMITERS["curly"]).text == "x"

    @given(st.text(alphabet=string.ascii_letters + " .,!?", min_size=1),
           st.sampled_from(list(DELIMITERS)),
           st.text(alphabet=string.ascii_letters, max_size=10))
    def test_round_trip(self, body, name, junk):
        pair = DELIMITERS[name]
        result = extract_completion(body + pair.close + junk, pair)
        assert result.text == body.strip()
        assert not result.unterminated


class TestRenderCloze:
    def test_substitution(self):
        assert render_cloze("great food", "<mask>") == \
            "The following text is <mask>: [great food]."

    def test_other_mask_token(self):
        assert render_cloze("x", "[MASK]") == "The following text is [MASK]: [x]."

    def test_empty_text_rejected(self):
        with pytest.raises(PromptError):
            render_cloze("", "<mask>")


class TestPromptConfig:
    def test_load_and_render(self, tmp_path):
        path = tmp_path / "prompts.json"
        path.write_text(json.dumps({
            "templates": {
                "plain": "Rewrite {x} from {s1} to {s2}: {d1}",
            },
            "delimiters": {"wide-angle": {"open": "<<", "close": ">>"}},
        }))
        cfg = load_prompt_config(str(path))
        req = make_request(template=cfg.templates["plain"],
                           delimiter=cfg.delimiters["wide-angle"])
        prompt = render_prompt(req)
        assert prompt == f"Rewrite {MOVIE} from positive to negative: <<"
        assert extract_completion("calm words>> tail",
                                  cfg.delimiters["wide-angle"]).text == "calm words"

    def test_unknown_placeholder_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"templates": {"t": "{x} {oops} {d1}"}}))
        with pytest.raises(PromptError):
            load_prompt_config(str(path))

    def test_template_must_end_with_generation_slot(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"templates": {"t": "{d1}{x}{d2} done"}}))
        with pytest.raises(PromptError):
            load_prompt_config(str(path))

    @pytest.mark.parametrize("doc", [
        {"templates": ["a"]},
        {"delimiters": [{"open": "<", "close": ">"}]},
        {"delimiters": {"x": {"open": "<", "close": 5}}},
        {"templates": {" Negation-V1": "Say {x} again: {d1}"}},
        {"delimiters": {"curly": {"open": "<", "close": ">"}}},
    ], ids=["templates-list", "delimiters-list", "int-close",
            "builtin-template-name", "builtin-delimiter-name"])
    def test_malformed_sections_rejected(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(PromptError):
            load_prompt_config(str(path))


def test_random_render_extract_round_trip():
    rng = random.Random(1234)
    words = ["calm", "vivid", "slate", "ember", "quartz", "violet", "thorn"]
    labels = ("ornate", "plain")
    for _ in range(200):
        text = " ".join(rng.choices(words, k=rng.randint(1, 8)))
        template = rng.choice(list(TemplateKind))
        pair = rng.choice(builtin_delimiters())
        req = TransferRequest(input_text=text, source_style=labels[0],
                              target_style=labels[1], template=template,
                              delimiter=pair)
        prompt = render_prompt(req)
        assert prompt.endswith(pair.open)
        completion = extract_completion(text + pair.close + " extra", pair)
        assert completion.text == text
