"""Table/series rendering tests."""

from __future__ import annotations

from repro.analysis.reporting import format_quantity, render_series, render_table


class TestFormatQuantity:
    def test_integers_passthrough(self):
        assert format_quantity(42) == "42"

    def test_small_floats_scientific(self):
        assert "e" in format_quantity(1.2e-5) or "E" in format_quantity(1.2e-5)

    def test_four_to_six_digit_floats_keep_their_digits(self):
        assert format_quantity(5000.0) == "5000"
        assert format_quantity(1234.5) == "1234.5"
        assert format_quantity(-98765.4) == "-98765.4"
        assert format_quantity(123456.0) == "123456"

    def test_large_floats_scientific(self):
        assert format_quantity(2.5e6) == "2.5e+06"

    def test_zero(self):
        assert format_quantity(0.0) == "0"

    def test_strings_passthrough(self):
        assert format_quantity("label") == "label"


class TestRenderTable:
    def test_contains_title_headers_rows(self):
        out = render_table("My Table", ["col1", "col2"], [[1, 2], [3, 4]])
        assert "== My Table ==" in out
        assert "col1" in out and "col2" in out
        assert "3" in out and "4" in out

    def test_column_alignment(self):
        out = render_table("T", ["a", "b"], [["xxxxxx", 1]])
        lines = out.splitlines()
        header, sep, row = lines[1], lines[2], lines[3]
        assert header.index("|") == row.index("|")

    def test_empty_rows(self):
        out = render_table("Empty", ["a"], [])
        assert "== Empty ==" in out


class TestRenderSeries:
    def test_series_layout(self):
        out = render_series(
            "Fig X", "similarity", [1, 2, 3],
            {"truth": [0.1, 0.2, 0.3], "candidate": [0.15, 0.25, 0.35]},
        )
        assert "similarity" in out
        assert "truth" in out and "candidate" in out
        assert "0.35" in out
