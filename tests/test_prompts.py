import json
import random
import re
import string

import pytest
from hypothesis import given, strategies as st

from restyle.prompts import (
    DELIMITERS,
    TEMPLATES,
    DelimiterCollisionError,
    DelimiterPair,
    Exemplar,
    PromptConfig,
    PromptError,
    TransferRequest,
    delimiter_name,
    extract_completion,
    load_prompt_config,
    parse_direction,
    parse_style,
    render_cloze,
    render_prompt,
    template_name,
)

POS = "positive"
NEG = "negative"
MOVIE = "I love The Sound of Music; it is the best movie ever!!"


def make_request(**kwargs):
    defaults = dict(input_text=MOVIE, source_style=POS, target_style=NEG,
                    template=TEMPLATES["contrastive"],
                    delimiter=DELIMITERS["curly"])
    defaults.update(kwargs)
    return TransferRequest(**defaults)


class TestDelimiters:
    def test_ten_builtin_pairs(self):
        assert len(DELIMITERS) == 10

    def test_exact_pairs(self):
        expected = [
            ("{", "}"), ("[", "]"), ("<", ">"), ("(", ")"), ('"', '"'),
            ("--", "--"), ("<<<", ">>>"), ('> "', '"'), ('* "', '"'),
            ("{{", "}}"),
        ]
        assert [(d.open, d.close) for d in DELIMITERS.values()] == expected

    def test_curly_is_complementary(self):
        curly = DELIMITERS["curly"]
        assert (curly.open, curly.close) == ("{", "}")
        assert curly.open != curly.close

    def test_quotes_and_dashes_indistinguishable(self):
        same = [name for name, d in DELIMITERS.items() if d.open == d.close]
        assert same == ["quote", "dash"]

    def test_empty_marker_rejected(self):
        for markers in (("", "}"), ("{", "")):
            with pytest.raises(PromptError, match="non-empty"):
                DelimiterPair(*markers)

    def test_name_lookup_roundtrip(self):
        for name in DELIMITERS:
            assert delimiter_name(PromptConfig().delimiter(name)) == name
        with pytest.raises(PromptError, match="unknown delimiter 'fancy'"):
            PromptConfig().delimiter("fancy")


class TestTemplates:
    """A template is its text; TEMPLATES names the builtin ones."""

    def test_name_lookup_roundtrip(self):
        for name, text in TEMPLATES.items():
            assert PromptConfig().template(name) == text
            assert template_name(PromptConfig().template(name)) == name
        with pytest.raises(PromptError, match="unknown template 'fancy'"):
            PromptConfig().template("fancy")
        custom = "Say {x} as {s2}: {d1}"
        assert template_name(custom) == custom

    def test_prompt_config_returns_text(self):
        custom = "Say {x} as {s2}: {d1}"
        prompts = PromptConfig(templates={"say": custom})
        assert prompts.template(" Contrastive ") == TEMPLATES["contrastive"]
        assert prompts.template("say") == custom
        with pytest.raises(PromptError, match="choose from"):
            prompts.template("fancy")

    @pytest.mark.parametrize("template, error", [
        ("no slot: {d1}", "{x} input slot"),
        ("{x} {oops} {d1}", "unknown template placeholders"),
        ("{d1}{x}{d2} done", "must end with {d1}"),
    ], ids=["no-input-slot", "unknown-placeholder", "no-generation-slot"])
    def test_template_checked_when_request_is_built(self, template, error):
        with pytest.raises(PromptError, match=re.escape(error)):
            make_request(template=template)


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

    def test_parse_direction(self):
        assert parse_direction(" Not  negative", "negative ") == \
            ("not negative", "negative")
        with pytest.raises(PromptError, match="^source and target style are "
                           "both 'not happy'; a transfer needs two styles$"):
            parse_direction("not happy", " NOT  happy ")
        for side, pair in (("source_style", (" ", "happy")),
                           ("target_style", ("happy", None))):
            with pytest.raises(PromptError, match=f"^{side}: style label must "
                               "be a non-blank string, got "):
                parse_direction(*pair)

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
        prompt = render_prompt(make_request(template=TEMPLATES["vanilla"]))
        assert prompt == (
            "Here is a text: "
            "{I love The Sound of Music; it is the best movie ever!!} "
            "Here is a rewrite of the text, which is negative: {"
        )
        assert "positive" not in prompt

    def test_negation_v1_uses_not_source(self):
        prompt = render_prompt(make_request(
            template=TEMPLATES["negation_v1"],
            delimiter=DELIMITERS["square"]))
        assert "which is not positive" in prompt
        assert "negative" not in prompt

    def test_negation_templates_contain_not(self):
        for name in ("negation_v1", "negation_v2"):
            assert "not " in render_prompt(make_request(template=TEMPLATES[name]))

    def test_delimiter_collision_rejected(self):
        with pytest.raises(DelimiterCollisionError):
            render_prompt(make_request(input_text="bad } text"))

    @pytest.mark.parametrize("kwargs, what", [
        ({"input_text": "bad } text"}, "input_text"),
        ({"exemplars": (Exemplar("bad } text", "fine text"),)}, "exemplar input"),
        ({"exemplars": (Exemplar("fine text", "bad } text"),)}, "exemplar output"),
    ], ids=["input", "exemplar-input", "exemplar-output"])
    def test_collision_refused_when_the_request_is_built(self, kwargs, what):
        with pytest.raises(DelimiterCollisionError,
                           match=f"^{what} contains the closing delimiter '}}'$"):
            make_request(**kwargs)
        # The same texts are fine inside a pair they do not close.
        assert render_prompt(make_request(delimiter=DELIMITERS["square"],
                                          **kwargs))

    def test_four_template_variants_exist(self):
        assert len(TEMPLATES) == 4

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

    def test_exemplar_sides_must_be_non_empty(self):
        for side, sides in (("input", ("", "awful food")),
                            ("output", ("great food", "")),
                            ("input", ("  ", "x")),
                            ("output", ("great food", "\t\n"))):
            with pytest.raises(PromptError, match=f"^exemplar {side} must be "
                               "a non-blank string, got "):
                Exemplar(*sides)

    @pytest.mark.parametrize("template", list(TEMPLATES))
    @pytest.mark.parametrize("name", list(DELIMITERS))
    def test_ends_with_open_and_contains_input_once(self, template, name):
        text = "zq7xkw vmb9r plaintive"
        prompt = render_prompt(make_request(
            input_text=text, template=TEMPLATES[template],
            delimiter=DELIMITERS[name]))
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

    def test_blank_text_rejected(self):
        # A blank text would render "[   ]", a cloze with nothing to judge.
        for text in ("   ", "\t\n"):
            with pytest.raises(PromptError, match="^cloze text must be a "
                               "non-blank string, got "):
                render_cloze(text, "<mask>")


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

    def test_byte_order_mark_ignored(self, tmp_path):
        doc = {"templates": {"plain": "Rewrite {x} to {s2}: {d1}"},
               "delimiters": {"wide": {"open": "<<", "close": ">>"}}}
        path = tmp_path / "prompts.json"
        path.write_text("\ufeff" + json.dumps(doc), encoding="utf-8")
        cfg = load_prompt_config(str(path))
        assert cfg.templates["plain"] == doc["templates"]["plain"]
        assert cfg.delimiters["wide"] == DelimiterPair("<<", ">>")

    def test_undecodable_file_named(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"templates": {"caf\xe9": "{x} {d1}"}}')
        with pytest.raises(PromptError, match=re.escape(f"cannot read {path}: ")):
            load_prompt_config(str(path))

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
        ["templates"],
        {"templates": {"t": 5}},
        {"delimiters": {"x": {"open": "<"}}},
        {"delimiters": {"x": {"close": ">"}}},
        {"templates": {"t": "no input slot: {d1}"}},
    ], ids=["templates-list", "delimiters-list", "int-close",
            "builtin-template-name", "builtin-delimiter-name", "not-an-object",
            "non-string-template", "delimiter-without-close",
            "delimiter-without-open", "template-without-input"])
    def test_malformed_sections_rejected(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(PromptError):
            load_prompt_config(str(path))


# Each kind of named prompt piece: its builtins, and a custom piece with
# the JSON a prompt config file writes it as.
PIECES = {
    "template": (TEMPLATES, "Say {x} as {s2}: {d1}", lambda text: text),
    "delimiter": (DELIMITERS, DelimiterPair("<<", ">>"),
                  lambda pair: {"open": pair.open, "close": pair.close}),
}


def name_variants(name: str) -> list[str]:
    """``name`` with other case, surrounding whitespace and "-"/"_" swaps."""
    swapped = name.translate(str.maketrans("-_", "_-"))
    return [name, name.upper(), f" {name.title()} ", f"\t{swapped}\n",
            swapped.upper(), name.replace("-", "_").capitalize()]


@pytest.mark.parametrize("kind", list(PIECES))
class TestNameRule:
    """One rule selects templates and delimiters by name: a builtin name
    matches after strip().lower() with "-" read as "_", a custom name only
    exactly, and a custom name may not match a builtin under that rule."""

    def test_builtin_name_variants_resolve(self, kind):
        builtins, _, _ = PIECES[kind]
        select = getattr(PromptConfig(), kind)
        for name, piece in builtins.items():
            for variant in name_variants(name):
                assert select(variant) == piece, variant

    def test_custom_name_matches_only_exactly(self, kind):
        _, custom, _ = PIECES[kind]
        select = getattr(PromptConfig(**{f"{kind}s": {"My-Piece": custom}}), kind)
        assert select("My-Piece") == custom
        for variant in name_variants("My-Piece")[1:]:
            with pytest.raises(PromptError, match=f"unknown {kind} "):
                select(variant)

    def test_custom_name_matching_a_builtin_rejected(self, kind, tmp_path):
        builtins, custom, wire = PIECES[kind]
        path = tmp_path / "prompts.json"
        for name in builtins:
            for variant in name_variants(name):
                path.write_text(json.dumps({f"{kind}s": {variant: wire(custom)}}))
                with pytest.raises(PromptError,
                                   match=f"shadows the builtin {kind} {name!r}"):
                    load_prompt_config(str(path))


def test_random_render_extract_round_trip():
    rng = random.Random(1234)
    words = ["calm", "vivid", "slate", "ember", "quartz", "violet", "thorn"]
    labels = ("ornate", "plain")
    for _ in range(200):
        text = " ".join(rng.choices(words, k=rng.randint(1, 8)))
        template = rng.choice(list(TEMPLATES.values()))
        pair = rng.choice(list(DELIMITERS.values()))
        req = TransferRequest(input_text=text, source_style=labels[0],
                              target_style=labels[1], template=template,
                              delimiter=pair)
        prompt = render_prompt(req)
        assert prompt.endswith(pair.open)
        completion = extract_completion(text + pair.close + " extra", pair)
        assert completion.text == text
