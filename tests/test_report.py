"""Tests for the text report renderer and the ``repro run all`` report."""

import pytest

from repro.experiments.report import (
    format_bars,
    format_stacked,
    format_table,
    ratio,
)


def test_format_table_alignment():
    text = format_table(
        ["name", "value"],
        [["alpha", 1.5], ["b", 20000.0]],
        title="demo",
    )
    lines = text.splitlines()
    assert lines[0] == "demo"
    assert "name" in lines[1] and "value" in lines[1]
    assert set(lines[2]) <= {"-", " "}
    assert "alpha" in lines[3]
    assert "2e+04" in lines[4] or "20000" in lines[4]


def test_format_table_empty_rows():
    text = format_table(["a", "b"], [])
    assert "a" in text


def test_format_bars_scaling():
    text = format_bars({"x": 1.0, "y": 2.0}, title="bars", width=10)
    lines = text.splitlines()
    assert lines[0] == "bars"
    x_hashes = lines[1].count("#")
    y_hashes = lines[2].count("#")
    assert y_hashes == 10
    assert x_hashes == 5


def test_format_bars_empty():
    assert format_bars({}, title="t") == "t"


def test_format_stacked_legend_unique_letters():
    text = format_stacked(
        {"row": {"ssd_to_fpga": 1.0, "sampling_fpga": 1.0}},
        phases=("ssd_to_fpga", "sampling_fpga"),
    )
    legend_line = text.splitlines()[0]
    assert "S=ssd_to_fpga" in legend_line
    assert "A=sampling_fpga" in legend_line  # no duplicate 'S'


def test_format_stacked_totals():
    text = format_stacked(
        {"a": {"p": 0.001}, "b": {"p": 0.002}},
        phases=("p",),
        title="t",
    )
    assert "1.00 ms" in text
    assert "2.00 ms" in text


def test_ratio_safe():
    assert ratio(4.0, 2.0) == 2.0
    assert ratio(1.0, 0.0) == float("inf")


def test_run_all_quick(monkeypatch, capsys):
    """``repro run all --quick`` prints the suite report."""
    from repro.__main__ import main
    from repro.experiments import run_all

    # two cheap experiments stand in for the whole suite
    monkeypatch.setattr(run_all, "ORDER", ("table1", "fig13"))
    assert main(["run", "all", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "table1" in out
    assert "fig13" in out
    assert "total:" in out
