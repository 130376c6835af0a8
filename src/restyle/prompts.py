"""Prompt rendering for style transfer requests.

A transfer prompt is a fixed natural-language scaffold with slots for the
input text, the source/target style labels, and a delimiter pair enclosing
the text blocks. The prompt always ends with the opening delimiter: that is
the generation slot the language model continues from. Completions are
recovered by scanning the model output for the first closing delimiter.
"""

from __future__ import annotations

import functools
import json
import string
from dataclasses import dataclass, field


class PromptError(ValueError):
    """Invalid transfer request or template configuration."""


class DelimiterCollisionError(PromptError):
    """Input text contains the closing delimiter, which would corrupt extraction."""


def check_text(value, what: str) -> str:
    """``value`` if it is a non-blank string; PromptError naming ``what``."""
    if not isinstance(value, str) or not value.strip():
        raise PromptError(f"{what} must be a non-blank string, got {value!r}")
    return value


def parse_style(text: str) -> str:
    """The one style rule: a style is its trimmed label, and a leading "not "
    (any case) before a non-blank rest is written "not " + the trimmed rest.
    PromptError for a blank or non-string label."""
    text = check_text(text, "style label").strip()
    rest = text[4:].strip()
    if text[:4].lower() == "not " and rest:
        return "not " + rest
    return text


def parse_direction(source: str, target: str) -> tuple[str, str]:
    """The one style-pair rule: both styles as :func:`parse_style` writes
    them, and different. A PromptError names the side it is about."""
    pair = []
    for side, label in (("source_style", source), ("target_style", target)):
        try:
            pair.append(parse_style(label))
        except PromptError as exc:
            raise PromptError(f"{side}: {exc}") from None
    if pair[0] == pair[1]:
        raise PromptError(f"source and target style are both {pair[0]!r}; "
                          "a transfer needs two styles")
    return pair[0], pair[1]


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


def delimiter_name(pair: DelimiterPair) -> str:
    """Short name of a builtin pair, or "open|close" for custom pairs."""
    for name, candidate in DELIMITERS.items():
        if candidate == pair:
            return name
    return f"{pair.open}|{pair.close}"


# The four builtin phrasings, keyed by the names the CLI accepts, as
# DELIMITERS keys the builtin pairs. {x} is the input text, {s1}/{s2} the
# style labels, {d1}/{d2} the delimiter markers. Every template must end with
# {d1}: the trailing opening marker is the generation slot.
TEMPLATES: dict[str, str] = {
    "vanilla": (
        "Here is a text: {d1}{x}{d2} "
        "Here is a rewrite of the text, which is {s2}: {d1}"
    ),
    "contrastive": (
        "Here is a text, which is {s1}: {d1}{x}{d2} "
        "Here is a rewrite of the text, which is {s2}: {d1}"
    ),
    "negation_v1": (
        "Here is a text, which is {s1}: {d1}{x}{d2} "
        "Here is a rewrite of the text, which is not {s1}: {d1}"
    ),
    "negation_v2": (
        "Here is a text, which is not {s2}: {d1}{x}{d2} "
        "Here is a rewrite of the text, which is {s2}: {d1}"
    ),
}

_ALLOWED_FIELDS = {"s1", "s2", "x", "d1", "d2"}


def template_name(text: str) -> str:
    """Name of a builtin template text, or a custom template's own text."""
    return next((name for name, t in TEMPLATES.items() if t == text), text)


@dataclass(frozen=True)
class Exemplar:
    """One worked input/output pair prepended to few-shot prompts; it is
    rendered with the styles of the request it belongs to."""

    input: str
    output: str

    def __post_init__(self):
        for name in ("input", "output"):
            check_text(getattr(self, name), f"exemplar {name}")


@dataclass(frozen=True)
class TransferRequest:
    """Everything needed to render one style transfer prompt.

    ``template`` is the template text: a value of :data:`TEMPLATES` or a
    custom phrasing with the same placeholders, checked by
    :func:`validate_template`. The styles are stored as
    :func:`parse_direction` writes them. An input or exemplar holding the
    closing delimiter is refused here, by :func:`check_collisions`.
    """

    input_text: str
    source_style: str
    target_style: str
    template: str = TEMPLATES["contrastive"]
    delimiter: DelimiterPair = DELIMITERS["curly"]
    exemplars: tuple[Exemplar, ...] = ()

    def __post_init__(self):
        check_text(self.input_text, "input_text")
        validate_template(self.template)
        source, target = parse_direction(self.source_style, self.target_style)
        object.__setattr__(self, "source_style", source)
        object.__setattr__(self, "target_style", target)
        check_collisions(self.delimiter, self.exemplars, self.input_text)


def check_collisions(delimiter: DelimiterPair, exemplars: tuple[Exemplar, ...],
                     input_text: str | None = None) -> None:
    """Raise :class:`DelimiterCollisionError` if ``input_text`` (when given)
    or an exemplar's input or output contains the closing delimiter; there is
    deliberately no escaping scheme, callers should pick a different pair."""
    slots = [] if input_text is None else [("input_text", input_text)]
    for ex in exemplars:
        slots += [("exemplar input", ex.input), ("exemplar output", ex.output)]
    for what, text in slots:
        if delimiter.close in text:
            raise DelimiterCollisionError(
                f"{what} contains the closing delimiter {delimiter.close!r}")


@functools.cache
def validate_template(text: str) -> None:
    """Check placeholder names and that the template ends in the generation
    slot; each distinct text is checked once."""
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
    always ends with the opening delimiter. No text slot holds the closing
    delimiter: the request refused that when it was built.
    """
    d = req.delimiter

    def fill(x: str) -> str:
        return req.template.format(x=x, s1=req.source_style,
                                   s2=req.target_style, d1=d.open, d2=d.close)

    blocks = [fill(ex.input) + ex.output + d.close for ex in req.exemplars]
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
    check_text(text, "cloze text")
    return f"The following text is {mask_token}: [{text}]."


def _builtin_name(builtins: dict, name: str) -> str | None:
    """The key of ``builtins`` that ``name`` matches, or None. Case,
    surrounding whitespace and "-" for "_" do not matter: " Triple_Angle "
    matches "triple-angle"."""
    key = name.strip().lower().replace("-", "_")
    return next((b for b in builtins if b.replace("-", "_") == key), None)


@dataclass(frozen=True)
class PromptConfig:
    """User-supplied template phrasings and delimiter pairs, and the one
    rule that turns a template or delimiter name into what it selects: a
    builtin name matches after ``strip().lower()`` with "-" read as "_", a
    custom name only exactly. A custom name that matches a builtin under
    that rule raises PromptError."""

    templates: dict[str, str] = field(default_factory=dict)
    delimiters: dict[str, DelimiterPair] = field(default_factory=dict)

    def __post_init__(self):
        for kind, builtins, custom in (("template", TEMPLATES, self.templates),
                                       ("delimiter", DELIMITERS, self.delimiters)):
            for name in custom:
                builtin = _builtin_name(builtins, name)
                if builtin is not None:
                    raise PromptError(f"{kind} {name!r} shadows the builtin "
                                      f"{kind} {builtin!r}")

    def template(self, name: str) -> str:
        """The template text ``name`` selects; PromptError if none."""
        return _lookup("template", TEMPLATES, self.templates, name)

    def delimiter(self, name: str) -> DelimiterPair:
        """The delimiter pair ``name`` selects; PromptError if none."""
        return _lookup("delimiter", DELIMITERS, self.delimiters, name)


def _lookup(kind: str, builtins: dict, custom: dict, name: str):
    """The piece of ``kind`` that ``name`` selects, builtins first."""
    builtin = _builtin_name(builtins, name)
    if builtin is not None:
        return builtins[builtin]
    if name in custom:
        return custom[name]
    known = list(builtins) + sorted(custom)
    raise PromptError(f"unknown {kind} {name!r}; choose from {known}")


def load_prompt_config(path: str) -> PromptConfig:
    """Load extra templates and delimiter pairs from a JSON document.

    Schema::

        {"templates": {"name": "... {x} ... {d1}"},
         "delimiters": {"name": {"open": "<<", "close": ">>"}}}

    Template strings use the {s1} {s2} {x} {d1} {d2} placeholders and must
    end with {d1}. A name that matches a builtin under the name rule of
    :class:`PromptConfig` raises PromptError. A leading byte order mark is
    dropped.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            doc = json.load(fh)
    except UnicodeDecodeError as exc:
        raise PromptError(f"cannot read {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise PromptError("prompt config must be a JSON object")
    for section in ("templates", "delimiters"):
        if not isinstance(doc.get(section, {}), dict):
            raise PromptError(f"prompt config {section!r} must be a JSON object")
    templates: dict[str, str] = {}
    for name, text in doc.get("templates", {}).items():
        if not isinstance(text, str):
            raise PromptError(f"template {name!r} must be a string")
        validate_template(text)
        templates[name] = text
    delimiters: dict[str, DelimiterPair] = {}
    for name, spec in doc.get("delimiters", {}).items():
        if not isinstance(spec, dict) or "open" not in spec or "close" not in spec:
            raise PromptError(f"delimiter {name!r} needs open and close markers")
        delimiters[name] = DelimiterPair(spec["open"], spec["close"])
    return PromptConfig(templates=templates, delimiters=delimiters)
