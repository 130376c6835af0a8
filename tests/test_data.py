import json
import re

import pytest
from hypothesis import given, strategies as st

from restyle.data import (
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

    def test_non_string_field_skipped(self, tmp_path, caplog):
        rows = self.rows()
        rows[0]["source"] = 5
        rows[1]["target_style"] = ["negative"]
        path = tmp_path / "types.jsonl"
        self.write_jsonl(path, rows)
        with caplog.at_level("WARNING"):
            records = load_dataset(str(path), "jsonl")
        assert [r.id for r in records] == ["c"]
        assert any("line 2: target_style must be a string" in m
                   for m in caplog.messages)
        with pytest.raises(DatasetError, match="line 1: source must be a string"):
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
        with pytest.raises(DatasetError, match="line 2: missing source"):
            load_dataset(str(path), "jsonl", strict=True)

    def test_record_rejects_blank_source(self):
        with pytest.raises(DatasetError, match="blank source"):
            StylePairRecord(id="x", source="  ", reference="y",
                            source_style="a", target_style="b")

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

    def test_unknown_format(self, tmp_path):
        with pytest.raises(DatasetError):
            load_dataset(str(tmp_path / "x"), "csv")

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
        tiny = SymbSpec(categories={"x": ("a", "b")}, n=5, seed=0)
        with pytest.raises(DatasetError, match="exceeds"):
            generate_symb(tiny)

    @pytest.mark.parametrize("n", [0, True, 2.5])
    def test_n_must_be_a_count(self, n):
        with pytest.raises(ValueError, match="n must be"):
            SymbSpec(n=n)

    def test_category_validation(self):
        with pytest.raises(DatasetError):
            SymbSpec(categories={"x": ("a b",)})
        with pytest.raises(DatasetError):
            SymbSpec(categories={"x": ("a",), "y": ("a",)})


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
        words = SymbSpec().words
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
