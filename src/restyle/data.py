"""Dataset loading, text cleaning, and the synthetic comparison corpus.

Real style transfer corpora frequently ship pre-tokenized, with punctuation
split off by spaces and contractions broken apart; :func:`clean_text` undoes
those artifacts. The synthetic corpus maps symbolic comparisons ("apple >
banana") to their spoken English form and back, which makes exact-match
evaluation trivial.
"""

from __future__ import annotations

import json
import logging
import random
import re
from collections import Counter
from dataclasses import dataclass, fields, replace

from .backends import check_count
from .prompts import check_text, parse_direction

logger = logging.getLogger(__name__)


class DatasetError(ValueError):
    """Unreadable file, malformed row or record, or invalid generator spec."""


class ComparisonParseError(DatasetError):
    """Input does not match the comparison grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class StylePairRecord:
    """One dataset row: a source text with styles and an optional reference.
    The one rule for a row, however built: a non-empty string ``id``, a
    non-blank ``source``, a string or None ``reference``, and the styles
    stored as :func:`~restyle.prompts.parse_direction` writes them."""

    id: str
    source: str
    reference: str | None
    source_style: str
    target_style: str

    def __post_init__(self):
        try:
            if not isinstance(self.id, str) or not self.id:
                raise ValueError(f"id must be a non-empty string, got {self.id!r}")
            check_text(self.source, "source")
            if not isinstance(self.reference, (str, type(None))):
                raise ValueError(f"reference must be a string or None, "
                                 f"got {self.reference!r}")
            source, target = parse_direction(self.source_style, self.target_style)
        except ValueError as exc:
            raise DatasetError(f"record {self.id!r}: {exc}") from None
        object.__setattr__(self, "source_style", source)
        object.__setattr__(self, "target_style", target)

    def to_dict(self) -> dict:
        return {key: getattr(self, key) for key in _SCHEMA}


# ---------------------------------------------------------------------------
# Text cleaning

# Tokens re-attached to the preceding word when found floating after a space.
CONTRACTION_SUFFIXES = ("n't", "'s", "'re", "'ve", "'ll", "'d", "'m")

_CONTRACTION_RE = re.compile(
    r"(\w) (" + "|".join(re.escape(c) for c in CONTRACTION_SUFFIXES) + r")\b"
)
_SPACE_BEFORE_RE = re.compile(r"\s+([.,!?;:')])")
_SPACE_AFTER_RE = re.compile(r"([('])\s+")


def clean_text(raw: str) -> str:
    """Normalize tokenization artifacts; idempotent.

    Collapses whitespace runs, re-attaches split contractions ("do n't" ->
    "don't"), removes spaces before closing punctuation and after opening
    punctuation, and trims the ends. Only whitespace is ever removed; the
    sequence of non-whitespace characters is preserved.
    """
    text = " ".join(raw.split())
    text = _CONTRACTION_RE.sub(r"\1\2", text)
    text = _SPACE_BEFORE_RE.sub(r"\1", text)
    text = _SPACE_AFTER_RE.sub(r"\1", text)
    return text


# ---------------------------------------------------------------------------
# File loading

_SCHEMA = tuple(f.name for f in fields(StylePairRecord))
FORMATS = ("jsonl", "tsv")


def _build_record(row: dict, lineno: int, clean: bool) -> StylePairRecord:
    row_id, reference = row.get("id"), row.get("reference")
    try:
        record = StylePairRecord(
            id=f"line-{lineno}" if row_id in (None, "") else str(row_id),
            source=row.get("source"),
            reference=None if reference == "" else reference,
            source_style=row.get("source_style"),
            target_style=row.get("target_style"),
        )
    except DatasetError as exc:
        raise DatasetError(f"line {lineno}: {exc}") from exc
    if clean:  # it removes only whitespace, so the record stays valid
        record = replace(record, source=clean_text(record.source),
                         reference=record.reference and clean_text(record.reference))
    return record


def _jsonl_row(line: str, lineno: int) -> dict:
    try:
        row = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"line {lineno}: invalid JSON: {exc}") from exc
    if not isinstance(row, dict):
        raise DatasetError(f"line {lineno}: expected a JSON object")
    return row


def _tsv_row(line: str, lineno: int) -> dict | None:
    """The row's fields, or None for the optional header on line 1."""
    cells = line.rstrip("\n").split("\t")
    if lineno == 1 and [c.strip().lower() for c in cells] == list(_SCHEMA):
        return None
    if len(cells) == 4:  # reference column omitted
        cells.insert(_SCHEMA.index("reference"), "")
    if len(cells) == 5:
        return dict(zip(_SCHEMA, cells))
    raise DatasetError(f"line {lineno}: expected 4 or 5 columns, got {len(cells)}")


def load_dataset(path: str, format: str, *, clean: bool = False,
                 strict: bool = False) -> list[StylePairRecord]:
    """Parse a JSONL or TSV dataset into records.

    Malformed rows abort the load in strict mode; otherwise each is skipped
    with a warning naming the line, and the rows after it still load.
    ``clean`` applies :func:`clean_text` to sources and references.
    """
    if format not in FORMATS:
        raise DatasetError(f"format must be one of {FORMATS}, got {format!r}")
    try:
        # utf-8-sig drops a byte order mark, which would otherwise join the
        # first row's text.
        with open(path, encoding="utf-8-sig") as fh:
            lines = list(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc

    parse_row = _jsonl_row if format == "jsonl" else _tsv_row
    records: list[StylePairRecord] = []
    seen_ids: set[str] = set()
    skipped = 0
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            row = parse_row(line, lineno)
            if row is None:
                continue
            record = _build_record(row, lineno, clean)
            if record.id in seen_ids:
                raise DatasetError(f"line {lineno}: duplicate id {record.id!r}")
        except DatasetError as exc:
            if strict:
                raise
            logger.warning("%s: skipping row: %s", path, exc)
            skipped += 1
            continue
        seen_ids.add(record.id)
        records.append(record)

    directions = Counter(f"{r.source_style}->{r.target_style}" for r in records)
    logger.info("%s: %d records (%d skipped), directions: %s",
                path, len(records), skipped, dict(directions))
    return records


def save_records(records: list[StylePairRecord], path: str, format: str) -> None:
    """Write records as JSONL, or as 5-column TSV with a header row.

    Every record is checked before the file is opened: a record that the
    TSV format cannot hold raises DatasetError and leaves ``path`` as it was.
    """
    if format not in FORMATS:
        raise DatasetError(f"format must be one of {FORMATS}, got {format!r}")
    if format == "jsonl":
        lines = [json.dumps(record.to_dict()) for record in records]
    else:
        lines = ["\t".join(_SCHEMA)]
        for record in records:
            cells = [value or "" for value in record.to_dict().values()]
            # Reading in text mode ends a line at "\r" as at "\n".
            if any(c in cell for cell in cells for c in "\t\n\r"):
                raise DatasetError(f"record {record.id!r} contains a tab or "
                                   "newline; use the jsonl format")
            line = "\t".join(cells)
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise DatasetError(f"record {record.id!r} holds text that UTF-8 "
                                   "cannot encode; use the jsonl format") from None
            lines.append(line)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# Synthetic comparison corpus

CATEGORIES: dict[str, tuple[str, ...]] = {
    "animals": (
        "dog", "cat", "horse", "cow", "sheep", "goat", "pig", "rabbit",
        "fox", "wolf", "bear", "lion", "tiger", "deer", "owl", "eagle",
        "whale", "dolphin", "otter", "mouse",
    ),
    "colors": (
        "red", "blue", "green", "yellow", "orange", "purple", "pink",
        "brown", "black", "white", "gray", "teal",
    ),
    "fruits": (
        "apple", "banana", "cherry", "grape", "lemon", "lime", "mango",
        "melon", "peach", "pear", "plum", "kiwi", "fig", "papaya", "apricot",
    ),
    "numbers": (
        "zero", "one", "two", "three", "four", "five", "six", "seven",
        "eight", "nine", "ten", "eleven", "twelve", "thirteen", "fourteen",
        "fifteen", "sixteen", "seventeen", "eighteen", "nineteen", "twenty",
    ),
}


# Every word of the category lists: single tokens, none in two categories.
_WORDS = tuple(word for words in CATEGORIES.values() for word in words)


@dataclass(frozen=True)
class SymbSpec:
    """Configuration for the symbolic comparison generator."""

    n: int = 1000
    seed: int = 0

    def __post_init__(self):
        check_count(self.n, "n")


def generate_symb(spec: SymbSpec) -> list[StylePairRecord]:
    """Seeded, reproducible symbolic comparison dataset.

    Each source is "a > b" or "a < b" with two different words drawn from the
    category lists; the reference is the verbalized English sentence. Sources
    are unique, so ``n`` may not exceed the number of distinct comparisons.
    """
    combos = [(a, op, b)
              for a in _WORDS for b in _WORDS if a != b
              for op in ("<", ">")]
    if spec.n > len(combos):
        raise DatasetError(
            f"n={spec.n} exceeds the {len(combos)} distinct comparisons "
            "available from the category lists"
        )
    rng = random.Random(spec.seed)
    picked = rng.sample(combos, spec.n)
    records = []
    for i, (a, op, b) in enumerate(picked):
        source = f"{a} {op} {b}"
        records.append(StylePairRecord(
            id=f"symb-{i:04d}",
            source=source,
            reference=verbalize_comparison(source),
            source_style="symbolic",
            target_style="English",
        ))
    return records


_WORD_RE = re.compile(r"\S+")


def _expect_word(text: str, pos: int) -> tuple[str, int]:
    match = _WORD_RE.match(text, pos)
    if not match:
        raise ComparisonParseError("expected a word", pos)
    return match.group(0), match.end()


def _expect_literal(text: str, pos: int, literal: str) -> int:
    if not text.startswith(literal, pos):
        raise ComparisonParseError(f"expected {literal!r}", pos)
    return pos + len(literal)


def _expect_end(text: str, pos: int) -> None:
    if pos != len(text):
        raise ComparisonParseError("unexpected trailing input", pos)


def verbalize_comparison(symbolic: str) -> str:
    """"a > b" -> "a is greater than b"; "a < b" -> "a is less than b"."""
    word_a, pos = _expect_word(symbolic, 0)
    pos = _expect_literal(symbolic, pos, " ")
    if pos < len(symbolic) and symbolic[pos] in "<>":
        op = symbolic[pos]
        pos += 1
    else:
        raise ComparisonParseError("expected '<' or '>'", pos)
    pos = _expect_literal(symbolic, pos, " ")
    word_b, pos = _expect_word(symbolic, pos)
    _expect_end(symbolic, pos)
    if word_a == word_b:
        raise ComparisonParseError("the two words must differ", 0)
    relation = "greater" if op == ">" else "less"
    return f"{word_a} is {relation} than {word_b}"


def parse_comparison(english: str) -> str:
    """Inverse of :func:`verbalize_comparison`, back to "a > b" / "a < b"."""
    word_a, pos = _expect_word(english, 0)
    pos = _expect_literal(english, pos, " is ")
    if english.startswith("greater", pos):
        op, pos = ">", pos + len("greater")
    elif english.startswith("less", pos):
        op, pos = "<", pos + len("less")
    else:
        raise ComparisonParseError("expected 'greater' or 'less'", pos)
    pos = _expect_literal(english, pos, " than ")
    word_b, pos = _expect_word(english, pos)
    _expect_end(english, pos)
    if word_a == word_b:
        raise ComparisonParseError("the two words must differ", 0)
    return f"{word_a} {op} {word_b}"
