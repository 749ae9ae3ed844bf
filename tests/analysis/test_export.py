"""CSV export round trips."""

import csv

from repro.analysis.export import write_csv


def read_csv(path):
    """``(headers, rows)`` of a CSV file."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


class TestCsv:
    def test_roundtrip(self, tmp_path):
        path = write_csv(
            tmp_path / "out.csv", ["a", "b"], [[1, 2.5], ["x", "y"]]
        )
        headers, rows = read_csv(path)
        assert headers == ["a", "b"]
        assert rows == [["1", "2.5"], ["x", "y"]]

    def test_creates_parent_dirs(self, tmp_path):
        path = write_csv(tmp_path / "deep" / "nest" / "f.csv", ["h"], [[1]])
        assert path.exists()

    def test_empty_rows(self, tmp_path):
        path = write_csv(tmp_path / "e.csv", ["only", "headers"], [])
        headers, rows = read_csv(path)
        assert headers == ["only", "headers"]
        assert rows == []

    def test_cli_csv_flag(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["run", "fig04", "--csv", str(tmp_path)]) == 0
        headers, rows = read_csv(tmp_path / "fig04.csv")
        assert headers == ["case", "token utilization"]
        assert len(rows) == 3
