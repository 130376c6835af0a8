import codecs
import json
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from restyle.data import (
    CATEGORIES,
    ComparisonParseError,
    DatasetError,
    SymbSpec,
    StylePairRecord,
    clean_text,
    generate_symb,
    load_dataset,
    parse_comparison,
    save_records,
    verbalize_comparison,
)
from restyle.mocks import mock_endpoints
from restyle.pipeline import (
    PipelineError,
    RequestTemplate,
    read_manifest,
    transfer_corpus,
    write_manifest,
)
from restyle.reranking import RerankConfig


class TestCleanText:
    @pytest.mark.parametrize("raw,expected", [
        ("this place was great !", "this place was great!"),
        ("i  love it .", "i love it."),
        ("do n't go", "don't go"),
        ("it 's fine", "it's fine"),
        ("( hello )", "(hello)"),
        ("we 're here , right ?", "we're here, right?"),
        ("  padded   out  ", "padded out"),
    ])
    def test_examples(self, raw, expected):
        assert clean_text(raw) == expected

    def test_idempotent(self):
        samples = ["a  b ! c 's", "do n't stop , ever .", "( x ) 'y'"]
        for raw in samples:
            once = clean_text(raw)
            assert clean_text(once) == once

    def test_preserves_non_whitespace(self):
        raw = "odd   spacing , with n't bits !"
        assert re.sub(r"\s", "", clean_text(raw)) == re.sub(r"\s", "", raw)

    @given(st.text(alphabet="abn't .,!?()' ", max_size=40))
    def test_idempotent_property(self, raw):
        once = clean_text(raw)
        assert clean_text(once) == once
        assert re.sub(r"\s", "", once) == re.sub(r"\s", "", raw)


class TestLoadDataset:
    def write_jsonl(self, path, rows):
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")

    def rows(self):
        return [
            {"id": "a", "source": "good food", "reference": "bad food",
             "source_style": "positive", "target_style": "negative"},
            {"id": "b", "source": "nice room", "reference": None,
             "source_style": "positive", "target_style": "negative"},
            {"id": "c", "source": "dirty floor", "reference": "clean floor",
             "source_style": "negative", "target_style": "positive"},
        ]

    def test_jsonl_fixture(self, tmp_path):
        path = tmp_path / "data.jsonl"
        self.write_jsonl(path, self.rows())
        records = load_dataset(str(path), "jsonl")
        assert len(records) == 3
        assert records[0].source == "good food"
        assert records[1].reference is None
        assert records[2].target_style == "positive"

    def test_falsy_id_kept_and_absent_id_numbered(self, tmp_path):
        path = tmp_path / "data.jsonl"
        rows = self.rows() + [{k: v for k, v in self.rows()[0].items() if k != "id"}]
        rows[0]["id"] = 0
        rows[1]["id"] = None
        rows[2]["id"] = ""
        self.write_jsonl(path, rows)
        assert [r.id for r in load_dataset(str(path), "jsonl")] == \
            ["0", "line-2", "line-3", "line-4"]

    def test_tsv_missing_reference(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text(
            "id\tsource\treference\tsource_style\ttarget_style\n"
            "a\tgood food\t\tpositive\tnegative\n"
            "b\tnice view\tpositive\tnegative\n"  # 4 columns, no reference
        )
        records = load_dataset(str(path), "tsv")
        assert [r.reference for r in records] == [None, None]
        assert records[1].source == "nice view"

    def test_malformed_strict_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "source": "x", "source_style": "s", '
                        '"target_style": "t"}\n{broken\n')
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(str(path), "jsonl", strict=True)

    def test_malformed_skipped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "source": "x", "source_style": "s", '
                        '"target_style": "t"}\n{broken\n')
        with caplog.at_level("WARNING"):
            records = load_dataset(str(path), "jsonl")
        assert len(records) == 1
        assert any("line 2" in m for m in caplog.messages)

    def bad_row_in_middle(self, tmp_path, format):
        """Two good rows around one malformed row on line 3."""
        if format == "jsonl":
            body = ('{"id": "a", "source": "x", "source_style": "s", "target_style": "t"}\n'
                    "\n"
                    "not json\n"
                    '{"id": "b", "source": "y", "source_style": "s", "target_style": "t"}\n')
        else:
            body = ("id\tsource\treference\tsource_style\ttarget_style\n"
                    "a\tx\t\ts\tt\n"
                    "c\tz\n"
                    "\n"
                    "b\ty\t\ts\tt\n")
        path = tmp_path / f"bad.{format}"
        path.write_text(body)
        return str(path)

    @pytest.mark.parametrize("format", ["jsonl", "tsv"])
    def test_malformed_row_mid_file_keeps_later_rows(self, tmp_path, caplog, format):
        path = self.bad_row_in_middle(tmp_path, format)
        with caplog.at_level("WARNING"):
            records = load_dataset(path, format)
        assert [r.id for r in records] == ["a", "b"]
        assert len(caplog.messages) == 1
        assert "skipping row: line 3" in caplog.messages[0]

    @pytest.mark.parametrize("format", ["jsonl", "tsv"])
    def test_malformed_row_mid_file_strict_names_line(self, tmp_path, format):
        path = self.bad_row_in_middle(tmp_path, format)
        with pytest.raises(DatasetError, match="line 3"):
            load_dataset(path, format, strict=True)

    @pytest.mark.parametrize("line, error", [
        ('{"id": "a", "source": "x", "source_style": "s"}',
         "line 1: record 'a': target_style: style label must be a non-blank "
         "string, got None"),
        ('{"id": "a", "source": "x", "source_style": " ", "target_style": "t"}',
         "line 1: record 'a': source_style: style label must be a non-blank "
         "string, got ' '"),
        ('["a", "x", null, "s", "t"]', "line 1: expected a JSON object"),
    ], ids=["missing-style", "blank-style", "not-an-object"])
    def test_bad_jsonl_row_named(self, tmp_path, line, error):
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(DatasetError, match=error):
            load_dataset(str(path), "jsonl", strict=True)

    def test_non_string_field_skipped(self, tmp_path, caplog):
        rows = self.rows()
        rows[0]["source"] = 5
        rows[1]["target_style"] = ["negative"]
        path = tmp_path / "types.jsonl"
        self.write_jsonl(path, rows)
        with caplog.at_level("WARNING"):
            records = load_dataset(str(path), "jsonl")
        assert [r.id for r in records] == ["c"]
        assert any("line 2: record 'b': target_style: style label must be a "
                   "non-blank string, got ['negative']" in m
                   for m in caplog.messages)
        with pytest.raises(DatasetError, match="line 1: record 'a': source must "
                                               "be a non-blank string, got 5"):
            load_dataset(str(path), "jsonl", strict=True)

    def test_blank_source_skipped_or_strict_error(self, tmp_path, caplog):
        rows = self.rows()
        rows[1]["source"] = " \t "
        path = tmp_path / "blank.jsonl"
        self.write_jsonl(path, rows)
        with caplog.at_level("WARNING"):
            records = load_dataset(str(path), "jsonl")
        assert [r.id for r in records] == ["a", "c"]
        assert any("line 2" in m and "source" in m for m in caplog.messages)
        with pytest.raises(DatasetError, match="line 2: record 'b': source must "
                                               "be a non-blank string"):
            load_dataset(str(path), "jsonl", strict=True)

    def test_record_rejects_blank_source(self):
        with pytest.raises(DatasetError, match="^record 'x': source must be a "
                                               "non-blank string, got '  '$"):
            StylePairRecord(id="x", source="  ", reference="y",
                            source_style="a", target_style="b")

    def test_record_rejects_same_style(self):
        with pytest.raises(DatasetError, match="record 'x': source and target "
                                               "style are both 'not happy'"):
            StylePairRecord(id="x", source="good food", reference=None,
                            source_style="not happy",
                            target_style=" NOT  happy ")

    def test_same_style_row_skipped_or_strict_error(self, tmp_path, caplog):
        rows = self.rows()
        rows[1]["target_style"] = " positive"
        path = tmp_path / "same.jsonl"
        self.write_jsonl(path, rows)
        with caplog.at_level("WARNING"):
            records = load_dataset(str(path), "jsonl")
        assert [r.id for r in records] == ["a", "c"]
        assert any("line 2: record 'b': source and target style are both "
                   "'positive'" in m for m in caplog.messages)
        with pytest.raises(DatasetError, match="line 2: record 'b': source "
                                               "and target style are both"):
            load_dataset(str(path), "jsonl", strict=True)

    def test_duplicate_id_strict(self, tmp_path):
        rows = self.rows()
        rows[1]["id"] = "a"
        path = tmp_path / "dup.jsonl"
        self.write_jsonl(path, rows)
        with pytest.raises(DatasetError, match="duplicate id"):
            load_dataset(str(path), "jsonl", strict=True)

    def test_cleaning_pass(self, tmp_path):
        path = tmp_path / "raw.jsonl"
        self.write_jsonl(path, [{
            "id": "a", "source": "do n't go !", "reference": "go now .",
            "source_style": "s", "target_style": "t"}])
        record = load_dataset(str(path), "jsonl", clean=True)[0]
        assert record.source == "don't go!"
        assert record.reference == "go now."

    def test_unreadable_path(self):
        with pytest.raises(DatasetError):
            load_dataset("/nonexistent/nope.jsonl", "jsonl")

    def test_undecodable_file_named(self, tmp_path):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(b'{"id": "a", "source": "caf\xe9 \xff"}\n')
        with pytest.raises(DatasetError, match=re.escape(f"cannot read {path}: ")
                           + "'utf-8' codec can't decode byte"):
            load_dataset(str(path), "jsonl")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(DatasetError):
            load_dataset(str(tmp_path / "x"), "csv")
        with pytest.raises(DatasetError, match="format must be one of"):
            save_records([], str(tmp_path / "x"), "csv")

    def test_tsv_cell_with_a_tab_rejected(self, tmp_path):
        record = StylePairRecord(id="a", source="good\tfood", reference=None,
                                 source_style="positive", target_style="negative")
        with pytest.raises(DatasetError, match="contains a tab or newline"):
            save_records([record], str(tmp_path / "out.tsv"), "tsv")

    @pytest.mark.parametrize("brk", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
    @pytest.mark.parametrize("side", ["source", "reference"])
    def test_tsv_refuses_what_would_not_read_back(self, tmp_path, brk, side):
        # Text-mode reading ends a line at "\r" as at "\n"; JSONL escapes both.
        fields = dict(id="a", source="good food", reference="bad food",
                      source_style="positive", target_style="negative")
        record = StylePairRecord(**{**fields, side: f"first line{brk}second"})
        with pytest.raises(DatasetError, match="contains a tab or newline"):
            save_records([record], str(tmp_path / "out.tsv"), "tsv")
        save_records([record], str(tmp_path / "out.jsonl"), "jsonl")
        assert load_dataset(str(tmp_path / "out.jsonl"), "jsonl",
                            strict=True) == [record]

    @pytest.mark.parametrize("text, error", [
        ("bad\tfood", "contains a tab or newline"),
        ("bad \ud800 food", "holds text that UTF-8 cannot encode"),
    ], ids=["tab", "lone-surrogate"])
    def test_failed_tsv_save_writes_nothing(self, tmp_path, text, error):
        # Every record is checked before the file is opened: no partial file
        # holding the rows before the bad one, and an old file stays whole.
        good = StylePairRecord(id="a", source="good food", reference=None,
                               source_style="positive", target_style="negative")
        bad = replace(good, id="b", reference=text)
        path = tmp_path / "out.tsv"
        match = re.escape(f"record 'b' {error}; use the jsonl format")
        with pytest.raises(DatasetError, match=match):
            save_records([good, bad], str(path), "tsv")
        assert not path.exists()
        save_records([good], str(path), "tsv")
        before = path.read_bytes()
        with pytest.raises(DatasetError, match=match):
            save_records([bad], str(path), "tsv")
        assert path.read_bytes() == before
        save_records([good, bad], str(tmp_path / "out.jsonl"), "jsonl")
        assert load_dataset(str(tmp_path / "out.jsonl"), "jsonl",
                            strict=True) == [good, bad]

    def test_round_trip_both_formats(self, tmp_path):
        records = [
            StylePairRecord(id="a", source="good food", reference="bad food",
                            source_style="positive", target_style="negative"),
            StylePairRecord(id="b", source="quiet night", reference=None,
                            source_style="calm", target_style="tense"),
        ]
        for fmt in ("jsonl", "tsv"):
            path = tmp_path / f"out.{fmt}"
            save_records(records, str(path), fmt)
            assert load_dataset(str(path), fmt) == records

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("fmt", ["jsonl", "tsv"])
    def test_byte_order_mark_ignored(self, tmp_path, fmt, strict):
        # Without it being dropped, a TSV header would load as a record and
        # a first JSONL row would fail to parse.
        records = [
            StylePairRecord(id="a", source="good food", reference="bad food",
                            source_style="positive", target_style="negative"),
            StylePairRecord(id="b", source="quiet night", reference=None,
                            source_style="calm", target_style="tense"),
        ]
        path = tmp_path / f"bom.{fmt}"
        save_records(records, str(path), fmt)
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        assert load_dataset(str(path), fmt, strict=strict) == records


class TestRecordRule:
    """StylePairRecord is the one rule for a row, however it is built."""

    FIELDS = dict(id="x", source="good food", reference="bad food",
                  source_style="positive", target_style="negative")

    @pytest.mark.parametrize("field, value, error", [
        ("reference", float("nan"), "reference must be a string or None, got nan"),
        ("reference", 5, "reference must be a string or None, got 5"),
        ("reference", b"bad food",
         "reference must be a string or None, got b'bad food'"),
        ("id", 7, "id must be a non-empty string, got 7"),
        ("id", "", "id must be a non-empty string, got ''"),
        ("source", None, "source must be a non-blank string, got None"),
        ("source_style", " ",
         "source_style: style label must be a non-blank string, got ' '"),
        ("target_style", 3,
         "target_style: style label must be a non-blank string, got 3"),
    ], ids=["nan-reference", "number-reference", "bytes-reference", "number-id",
            "empty-id", "no-source", "blank-source-style", "number-target-style"])
    def test_bad_field_named(self, field, value, error):
        fields = {**self.FIELDS, field: value}
        with pytest.raises(DatasetError, match=re.escape(
                f"record {fields['id']!r}: {error}") + "$"):
            StylePairRecord(**fields)

    def test_row_fields_map_to_the_record(self, tmp_path):
        # Only an empty reference means none: a false one is not a string.
        path = tmp_path / "rows.jsonl"
        path.write_text(json.dumps({**self.FIELDS, "id": 7, "reference": ""})
                        + "\n" + json.dumps({**self.FIELDS, "id": ""}) + "\n")
        assert load_dataset(str(path), "jsonl", strict=True) == [
            StylePairRecord(**{**self.FIELDS, "id": "7", "reference": None}),
            StylePairRecord(**{**self.FIELDS, "id": "line-2"}),
        ]
        path.write_text(json.dumps({**self.FIELDS, "reference": False}) + "\n")
        with pytest.raises(DatasetError, match="^line 1: record 'x': reference "
                           "must be a string or None, got False$"):
            load_dataset(str(path), "jsonl", strict=True)


def _accepted(row_id, source, reference, direction):
    """The record of these fields, or None where the record rule refuses them,
    as it does every empty id."""
    try:
        record = StylePairRecord(row_id, source, reference, *direction)
    except DatasetError as exc:
        # The id is checked first, so an empty one is what refuses its record.
        assert row_id or "id must be a non-empty string" in str(exc)
        return None
    assert row_id, "an empty id was accepted"
    return record


def _tsv_refusal(record):
    """The reason a TSV save refuses the record, or None."""
    text = "".join(cell or "" for cell in record.to_dict().values())
    if any(c in text for c in "\t\n\r"):
        return "contains a tab or newline"
    if any("\ud800" <= c <= "\udfff" for c in text):
        return "holds text that UTF-8 cannot encode"
    return None


_TEXT = st.text(st.characters(codec="utf-8"), max_size=16)
# A lone surrogate: JSON escapes it, but UTF-8 cannot encode it.
_UNENCODABLE = st.builds("{}\ud800{}".format, _TEXT, _TEXT)
_STYLE = st.one_of(st.sampled_from(["positive", " Negative", "not positive",
                                    "NOT  negative "]), _TEXT)
# Lexicon sentences in a sentiment direction can succeed under the sentiment
# mocks; the mask filler refuses any other label, failing its example.
_SENTENCE = st.sampled_from(["the food was good", "rude staff and cold food",
                             "great service", "the room was dirty"])
_DIRECTION = st.one_of(st.sampled_from([("positive", "negative"),
                                        (" negative", "positive\t")]),
                       st.tuples(_STYLE, _STYLE))
_RECORDS = st.lists(
    st.builds(_accepted, st.text(st.characters(codec="utf-8"), max_size=8),
              st.one_of(_SENTENCE, _TEXT, _UNENCODABLE),
              st.one_of(st.none(), _SENTENCE, _TEXT, _UNENCODABLE), _DIRECTION).filter(lambda record: record is not None),
    min_size=1, max_size=4, unique_by=lambda record: record.id)


@settings(max_examples=60, deadline=None)
@given(records=_RECORDS)
def test_accepted_records_round_trip(records):
    # The record rule refuses an empty id, which a file row reads as "no id"
    # (it loads as "line-N"). An empty reference is a row without one.
    read_back = [replace(r, reference=r.reference or None) for r in records]
    with tempfile.TemporaryDirectory() as tmp:
        jsonl, tsv, run = (str(Path(tmp) / name)
                           for name in ("out.jsonl", "out.tsv", "run.jsonl"))
        save_records(records, jsonl, "jsonl")
        assert load_dataset(jsonl, "jsonl", strict=True) == read_back
        refusals = [why for why in map(_tsv_refusal, records) if why]
        if refusals:
            with pytest.raises(DatasetError, match=refusals[0]):
                save_records(records, tsv, "tsv")
            assert not Path(tsv).exists()
        else:
            save_records(records, tsv, "tsv")
            assert load_dataset(tsv, "tsv", strict=True) == read_back
        try:
            manifest = transfer_corpus(
                records, RequestTemplate(),
                RerankConfig(endpoints=mock_endpoints()), seed=0, jobs=1)
        except PipelineError:
            return  # every example failed, so no manifest is written
        write_manifest(manifest, run)
        loaded = read_manifest(run)
    assert loaded.records == manifest.records
    assert [{key: r[key] for key in records[0].to_dict()}
            for r in loaded.records] == [r.to_dict() for r in records]


class TestGenerateSymb:
    def test_count_and_distinct_words(self):
        records = generate_symb(SymbSpec(n=200, seed=7))
        assert len(records) == 200
        for record in records:
            a, op, b = record.source.split(" ")
            assert op in ("<", ">")
            assert a != b
            assert record.reference == verbalize_comparison(record.source)
            assert record.source_style == "symbolic"
            assert record.target_style == "English"

    def test_seeded_determinism(self):
        assert generate_symb(SymbSpec(n=50, seed=7)) == \
            generate_symb(SymbSpec(n=50, seed=7))
        assert generate_symb(SymbSpec(n=50, seed=7)) != \
            generate_symb(SymbSpec(n=50, seed=8))

    def test_sources_unique(self):
        records = generate_symb(SymbSpec(n=500, seed=3))
        assert len({r.source for r in records}) == 500

    def test_capacity_error(self):
        words = sum(len(words) for words in CATEGORIES.values())
        comparisons = 2 * words * (words - 1)
        assert len(generate_symb(SymbSpec(n=comparisons))) == comparisons
        with pytest.raises(DatasetError, match=f"exceeds the {comparisons}"):
            generate_symb(SymbSpec(n=comparisons + 1))

    @pytest.mark.parametrize("n", [0, True, 2.5])
    def test_n_must_be_a_count(self, n):
        with pytest.raises(ValueError, match="n must be"):
            SymbSpec(n=n)

    def test_category_validation(self):
        # Every word is one token, so a comparison parses back, and no word
        # is in two categories, so no comparison can be drawn twice.
        words = [word for words in CATEGORIES.values() for word in words]
        assert all(word and word.split() == [word] for word in words)
        assert len(set(words)) == len(words)


class TestComparisonGrammar:
    def test_verbalize_examples(self):
        assert verbalize_comparison("apple > banana") == \
            "apple is greater than banana"
        assert verbalize_comparison("three < seven") == \
            "three is less than seven"
        assert verbalize_comparison("red > blue") == "red is greater than blue"

    def test_parse_examples(self):
        assert parse_comparison("red is greater than blue") == "red > blue"
        assert parse_comparison("three is less than seven") == "three < seven"

    def test_round_trip_random_pairs(self):
        import random as _random

        rng = _random.Random(99)
        words = [word for words in CATEGORIES.values() for word in words]
        for _ in range(100):
            a, b = rng.sample(words, 2)
            op = rng.choice("<>")
            source = f"{a} {op} {b}"
            assert parse_comparison(verbalize_comparison(source)) == source

    def test_parse_error_with_position(self):
        with pytest.raises(ComparisonParseError) as err:
            verbalize_comparison("red >= blue")
        assert err.value.position == 5
        with pytest.raises(ComparisonParseError):
            parse_comparison("red is bigger than blue")
        with pytest.raises(ComparisonParseError):
            parse_comparison("red is greater than")

    def test_equal_words_rejected(self):
        with pytest.raises(ComparisonParseError):
            verbalize_comparison("red > red")

    @pytest.mark.parametrize("convert, text, error, position", [
        (verbalize_comparison, "", "expected a word", 0),
        (parse_comparison, "red is less than ", "expected a word", 17),
        (verbalize_comparison, "red > blue green", "unexpected trailing input",
         10),
        (verbalize_comparison, "red = blue", "expected '<' or '>'", 4),
        (parse_comparison, "red is less than red", "the two words must differ",
         0),
    ], ids=["no-word", "no-second-word", "trailing-input", "no-operator",
            "same-words"])
    def test_grammar_errors_name_the_fault(self, convert, text, error,
                                           position):
        with pytest.raises(ComparisonParseError, match=error) as err:
            convert(text)
        assert err.value.position == position
