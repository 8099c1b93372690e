"""Rendering helper tests."""

from repro.harness.report import render_table


def test_render_table_basic():
    text = render_table("T", ["name", "x", "y"], [["a", 1.5, 2], ["b", 3.25, 4]])
    assert "T" in text
    assert "a" in text and "1.50" in text
    assert text.count("\n") >= 4


def test_render_table_string_cells():
    text = render_table("T", ["k", "v"], [["key", "value"]])
    assert "value" in text
