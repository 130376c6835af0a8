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
from dataclasses import dataclass, field

from .backends import check_count
from .prompts import parse_style

logger = logging.getLogger(__name__)


class DatasetError(ValueError):
    """Unreadable file, malformed row in strict mode, or invalid generator spec."""


class ComparisonParseError(DatasetError):
    """Input does not match the comparison grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class StylePairRecord:
    """One dataset row: a source text with styles and an optional reference.
    The styles are stored as :func:`~restyle.prompts.parse_style` writes them."""

    id: str
    source: str
    reference: str | None
    source_style: str
    target_style: str

    def __post_init__(self):
        if not self.source.strip():
            raise DatasetError(f"record {self.id!r} has a blank source")
        object.__setattr__(self, "source_style", parse_style(self.source_style))
        object.__setattr__(self, "target_style", parse_style(self.target_style))

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "source": self.source,
            "reference": self.reference,
            "source_style": self.source_style,
            "target_style": self.target_style,
        }


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

_SCHEMA = ("id", "source", "reference", "source_style", "target_style")
FORMATS = ("jsonl", "tsv")


def _build_record(row: dict, lineno: int, clean: bool) -> StylePairRecord:
    for key in ("source", "reference", "source_style", "target_style"):
        if not isinstance(row.get(key, ""), (str, type(None))):
            raise DatasetError(f"line {lineno}: {key} must be a string")
    source = row.get("source") or ""
    if clean:
        source = clean_text(source)
    reference = row.get("reference") or None
    if clean and reference:
        reference = clean_text(reference)
    for key in ("source_style", "target_style"):
        if not (row.get(key) or "").strip():
            raise DatasetError(f"line {lineno}: missing {key}")
    if not source.strip():
        raise DatasetError(f"line {lineno}: missing source text")
    row_id = row.get("id")
    return StylePairRecord(
        id=f"line-{lineno}" if row_id in (None, "") else str(row_id),
        source=source,
        reference=reference,
        source_style=row["source_style"],
        target_style=row["target_style"],
    )


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
    if len(cells) == 5:
        return dict(zip(_SCHEMA, cells))
    if len(cells) == 4:  # reference column omitted
        return dict(zip(("id", "source", "source_style", "target_style"), cells))
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
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
    except OSError as exc:
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
    """Write records as JSONL, or as 5-column TSV with a header row."""
    if format not in FORMATS:
        raise DatasetError(f"format must be one of {FORMATS}, got {format!r}")
    with open(path, "w", encoding="utf-8") as fh:
        if format == "jsonl":
            for record in records:
                fh.write(json.dumps(record.to_dict()) + "\n")
        else:
            fh.write("\t".join(_SCHEMA) + "\n")
            for record in records:
                row = record.to_dict()
                cells = ["" if row[key] is None else str(row[key])
                         for key in _SCHEMA]
                for cell in cells:
                    if "\t" in cell or "\n" in cell:
                        raise DatasetError(
                            f"record {record.id!r} contains a tab or newline; "
                            "use the jsonl format"
                        )
                fh.write("\t".join(cells) + "\n")


# ---------------------------------------------------------------------------
# Synthetic comparison corpus

DEFAULT_CATEGORIES: dict[str, tuple[str, ...]] = {
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


@dataclass(frozen=True)
class SymbSpec:
    """Configuration for the symbolic comparison generator."""

    categories: dict[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_CATEGORIES))
    n: int = 1000
    seed: int = 0

    def __post_init__(self):
        check_count(self.n, "n")
        seen: set[str] = set()
        for name, words in self.categories.items():
            for word in words:
                if not word or any(ch.isspace() for ch in word):
                    raise DatasetError(
                        f"category {name!r}: {word!r} is not a single token")
                if word in seen:
                    raise DatasetError(
                        f"word {word!r} appears in more than one category")
                seen.add(word)

    @property
    def words(self) -> list[str]:
        return [w for words in self.categories.values() for w in words]


def generate_symb(spec: SymbSpec) -> list[StylePairRecord]:
    """Seeded, reproducible symbolic comparison dataset.

    Each source is "a > b" or "a < b" with two different words drawn from the
    category lists; the reference is the verbalized English sentence. Sources
    are unique, so ``n`` may not exceed the number of distinct comparisons.
    """
    words = spec.words
    combos = [(a, op, b)
              for a in words for b in words if a != b
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
