"""Prompt rendering for style transfer requests.

A transfer prompt is a fixed natural-language scaffold with slots for the
input text, the source/target style labels, and a delimiter pair enclosing
the text blocks. The prompt always ends with the opening delimiter: that is
the generation slot the language model continues from. Completions are
recovered by scanning the model output for the first closing delimiter.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass, field
from enum import Enum


class PromptError(ValueError):
    """Invalid transfer request or template configuration."""


class DelimiterCollisionError(PromptError):
    """Input text contains the closing delimiter, which would corrupt extraction."""


class DelimiterKind(str, Enum):
    INDISTINGUISHABLE = "indistinguishable"
    COMPLEMENTARY = "complementary"


def parse_style(text: str) -> str:
    """The one style rule: a style is its trimmed label, and a leading "not "
    (any case) before a non-blank rest is written "not " + the trimmed rest.
    PromptError for a blank or non-string label."""
    if not isinstance(text, str) or not text.strip():
        raise PromptError(f"style label must be a non-blank string, got {text!r}")
    text = text.strip()
    rest = text[4:].strip()
    if text[:4].lower() == "not " and rest:
        return "not " + rest
    return text


@dataclass(frozen=True)
class DelimiterPair:
    """Opening/closing markers enclosing text blocks inside a prompt."""

    open: str
    close: str

    def __post_init__(self):
        if not (isinstance(self.open, str) and isinstance(self.close, str)):
            raise PromptError("delimiter markers must be strings")
        if not self.open or not self.close:
            raise PromptError("delimiter markers must be non-empty")

    @property
    def kind(self) -> DelimiterKind:
        """Indistinguishable when both markers are the same string."""
        if self.open == self.close:
            return DelimiterKind.INDISTINGUISHABLE
        return DelimiterKind.COMPLEMENTARY


# Builtin delimiter pairs, keyed by the short names the CLI accepts. The
# triple angle pair is rendered in ASCII since models consume ASCII; users
# needing other glyphs can supply their own pairs via a prompt config file.
# The blockquote and bullet openers keep their trailing space (they emulate
# Markdown blockquotes and bullet points).
DELIMITERS: dict[str, DelimiterPair] = {
    "curly": DelimiterPair("{", "}"),
    "square": DelimiterPair("[", "]"),
    "angle": DelimiterPair("<", ">"),
    "paren": DelimiterPair("(", ")"),
    "quote": DelimiterPair('"', '"'),
    "dash": DelimiterPair("--", "--"),
    "triple-angle": DelimiterPair("<<<", ">>>"),
    "blockquote": DelimiterPair('> "', '"'),
    "bullet": DelimiterPair('* "', '"'),
    "liquid": DelimiterPair("{{", "}}"),
}


def builtin_delimiters() -> list[DelimiterPair]:
    """The ten builtin delimiter pairs, in canonical order."""
    return list(DELIMITERS.values())


def delimiter_by_name(name: str) -> DelimiterPair:
    try:
        return DELIMITERS[name]
    except KeyError:
        raise PromptError(
            f"unknown delimiter {name!r}; choose one of {', '.join(DELIMITERS)}"
        ) from None


def delimiter_name(pair: DelimiterPair) -> str:
    """Short name of a builtin pair, or "open|close" for custom pairs."""
    for name, candidate in DELIMITERS.items():
        if candidate == pair:
            return name
    return f"{pair.open}|{pair.close}"


class TemplateKind(str, Enum):
    VANILLA = "vanilla"
    CONTRASTIVE = "contrastive"
    NEGATION_V1 = "negation_v1"
    NEGATION_V2 = "negation_v2"


# The four builtin phrasings. {x} is the input text, {s1}/{s2} the style
# labels, {d1}/{d2} the delimiter markers. Every template must end with
# {d1}: the trailing opening marker is the generation slot.
TEMPLATES: dict[TemplateKind, str] = {
    TemplateKind.VANILLA: (
        "Here is a text: {d1}{x}{d2} "
        "Here is a rewrite of the text, which is {s2}: {d1}"
    ),
    TemplateKind.CONTRASTIVE: (
        "Here is a text, which is {s1}: {d1}{x}{d2} "
        "Here is a rewrite of the text, which is {s2}: {d1}"
    ),
    TemplateKind.NEGATION_V1: (
        "Here is a text, which is {s1}: {d1}{x}{d2} "
        "Here is a rewrite of the text, which is not {s1}: {d1}"
    ),
    TemplateKind.NEGATION_V2: (
        "Here is a text, which is not {s2}: {d1}{x}{d2} "
        "Here is a rewrite of the text, which is {s2}: {d1}"
    ),
}

_ALLOWED_FIELDS = {"s1", "s2", "x", "d1", "d2"}


def builtin_template(name: str) -> TemplateKind | None:
    """The builtin template a name selects, or None. Case, surrounding
    whitespace and "-" for "_" do not matter: "Negation-V1" selects
    :attr:`TemplateKind.NEGATION_V1`."""
    try:
        return TemplateKind(name.strip().lower().replace("-", "_"))
    except ValueError:
        return None


@dataclass(frozen=True)
class Exemplar:
    """One worked input/output pair prepended to few-shot prompts; it is
    rendered with the styles of the request it belongs to."""

    input: str
    output: str

    def __post_init__(self):
        if not self.input or not self.output:
            raise PromptError("exemplar input and output must be non-empty")


@dataclass(frozen=True)
class TransferRequest:
    """Everything needed to render one style transfer prompt.

    ``template`` is either a builtin :class:`TemplateKind` or a raw template
    string using the same placeholders (for user-supplied phrasings). The
    styles are stored as :func:`parse_style` writes them.
    """

    input_text: str
    source_style: str
    target_style: str
    template: TemplateKind | str = TemplateKind.CONTRASTIVE
    delimiter: DelimiterPair = DELIMITERS["curly"]
    exemplars: tuple[Exemplar, ...] = ()

    def __post_init__(self):
        if not self.input_text:
            raise PromptError("input_text must be non-empty")
        object.__setattr__(self, "source_style", parse_style(self.source_style))
        object.__setattr__(self, "target_style", parse_style(self.target_style))


def template_string(template: TemplateKind | str) -> str:
    """Resolve a builtin kind or pass a raw template string through, validated."""
    if isinstance(template, TemplateKind):
        return TEMPLATES[template]
    validate_template(template)
    return template


def validate_template(text: str) -> None:
    """Check placeholder names and that the template ends in the generation slot."""
    fields = {name for _, name, _, _ in string.Formatter().parse(text) if name}
    unknown = fields - _ALLOWED_FIELDS
    if unknown:
        raise PromptError(f"unknown template placeholders: {sorted(unknown)}")
    if "x" not in fields:
        raise PromptError("template must contain the {x} input slot")
    if not text.endswith("{d1}"):
        raise PromptError("template must end with {d1} (the generation slot)")


def render_prompt(req: TransferRequest) -> str:
    """Render the full prompt for a transfer request.

    Exemplar blocks (if any) are rendered under the same template and with
    the request's styles, each with its output enclosed in the delimiter
    pair, and joined to the query block by single newlines. The result
    always ends with the opening delimiter.

    Raises :class:`DelimiterCollisionError` if any text slot contains the
    closing delimiter; there is deliberately no escaping scheme, callers
    should pick a different pair.
    """
    tmpl = template_string(req.template)
    d = req.delimiter

    def fill(x: str) -> str:
        return tmpl.format(x=x, s1=req.source_style, s2=req.target_style,
                           d1=d.open, d2=d.close)

    def check_collision(text: str, what: str) -> None:
        if d.close in text:
            raise DelimiterCollisionError(
                f"{what} contains the closing delimiter {d.close!r}"
            )

    check_collision(req.input_text, "input_text")
    blocks = []
    for ex in req.exemplars:
        check_collision(ex.input, "exemplar input")
        check_collision(ex.output, "exemplar output")
        blocks.append(fill(ex.input) + ex.output + d.close)
    blocks.append(fill(req.input_text))
    return "\n".join(blocks)


@dataclass(frozen=True)
class ExtractionResult:
    """A completion recovered from raw model output.

    ``unterminated`` is set when the closing delimiter never appeared and the
    whole raw text was taken instead; that is a flagged success, not an error.
    """

    text: str
    unterminated: bool = False


def extract_completion(raw: str, delimiter: DelimiterPair) -> ExtractionResult:
    """Truncate raw model output at the first closing delimiter.

    ``raw`` is everything the model emitted after the prompt's trailing
    opening delimiter. The close marker is removed and surrounding whitespace
    trimmed.
    """
    idx = raw.find(delimiter.close)
    if idx < 0:
        return ExtractionResult(raw.strip(), unterminated=True)
    return ExtractionResult(raw[:idx].strip(), unterminated=False)


def render_cloze(text: str, mask_token: str) -> str:
    """Render the fill-in-the-blank statement used for style classification.

    The text sits in literal square brackets and the mask token takes the
    position of the style word.
    """
    if not text:
        raise PromptError("cloze text must be non-empty")
    return f"The following text is {mask_token}: [{text}]."


@dataclass(frozen=True)
class PromptConfig:
    """User-supplied template phrasings and delimiter pairs, and the one
    rule that turns a template or delimiter name into what it selects."""

    templates: dict[str, str] = field(default_factory=dict)
    delimiters: dict[str, DelimiterPair] = field(default_factory=dict)

    def template(self, name: str) -> TemplateKind | str:
        """The builtin phrasing ``name`` selects (see :func:`builtin_template`),
        else the custom template of that name; PromptError if neither."""
        kind = builtin_template(name)
        if kind is not None:
            return kind
        if name in self.templates:
            return self.templates[name]
        known = [t.value for t in TemplateKind] + sorted(self.templates)
        raise PromptError(f"unknown template {name!r}; choose from {known}")

    def delimiter(self, name: str) -> DelimiterPair:
        """The builtin pair ``name`` selects, else the custom pair of that
        name; PromptError if neither."""
        if name in self.delimiters and name not in DELIMITERS:
            return self.delimiters[name]
        return delimiter_by_name(name)


def load_prompt_config(path: str) -> PromptConfig:
    """Load extra templates and delimiter pairs from a JSON document.

    Schema::

        {"templates": {"name": "... {x} ... {d1}"},
         "delimiters": {"name": {"open": "<<", "close": ">>"}}}

    Template strings use the {s1} {s2} {x} {d1} {d2} placeholders and must
    end with {d1}. A name may not shadow a builtin: a template name that
    :func:`builtin_template` resolves, or a key of :data:`DELIMITERS`,
    raises PromptError.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise PromptError("prompt config must be a JSON object")
    for section in ("templates", "delimiters"):
        if not isinstance(doc.get(section, {}), dict):
            raise PromptError(f"prompt config {section!r} must be a JSON object")
    templates: dict[str, str] = {}
    for name, text in doc.get("templates", {}).items():
        if builtin_template(name) is not None:
            raise PromptError(f"template {name!r} shadows a builtin template")
        if not isinstance(text, str):
            raise PromptError(f"template {name!r} must be a string")
        validate_template(text)
        templates[name] = text
    delimiters: dict[str, DelimiterPair] = {}
    for name, spec in doc.get("delimiters", {}).items():
        if name in DELIMITERS:
            raise PromptError(f"delimiter {name!r} shadows a builtin delimiter")
        if not isinstance(spec, dict) or "open" not in spec or "close" not in spec:
            raise PromptError(f"delimiter {name!r} needs open and close markers")
        delimiters[name] = DelimiterPair(spec["open"], spec["close"])
    return PromptConfig(templates=templates, delimiters=delimiters)
