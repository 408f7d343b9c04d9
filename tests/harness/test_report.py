"""Tests for the stitched reproduction report."""

from pathlib import Path

import pytest

from repro.cli import main
from repro.harness.report import (
    PREFERRED_ORDER,
    build_report,
    collect_results,
    ordered_names,
    write_report,
)


@pytest.fixture()
def results_dir(tmp_path):
    (tmp_path / "table1_datasets.txt").write_text("T1 CONTENT", encoding="utf-8")
    (tmp_path / "fig9_memory.txt").write_text("F9 CONTENT", encoding="utf-8")
    (tmp_path / "zz_custom.txt").write_text("EXTRA", encoding="utf-8")
    (tmp_path / "notes.md").write_text("ignored", encoding="utf-8")
    return str(tmp_path)


class TestCollect:
    def test_reads_only_txt(self, results_dir):
        results = collect_results(results_dir)
        assert set(results) == {"table1_datasets", "fig9_memory", "zz_custom"}
        assert results["table1_datasets"] == "T1 CONTENT"

    def test_missing_directory(self):
        assert collect_results("/nonexistent/dir") == {}


class TestOrdering:
    def test_paper_order_then_extras(self, results_dir):
        names = ordered_names(collect_results(results_dir))
        assert names == ["table1_datasets", "fig9_memory", "zz_custom"]

    def test_preferred_order_covers_all_bench_modules(self):
        import glob
        import os

        bench_names = {
            os.path.basename(path)[len("bench_"):-3]
            for path in glob.glob("benchmarks/bench_*.py")
        }
        # Every bench module's result name appears in the preferred order
        # (result names match the module suffixes by convention).
        unmatched = [
            name for name in bench_names
            if not any(name.startswith(p.split("_")[0]) or p.startswith(name.split("_")[0])
                       for p in PREFERRED_ORDER)
        ]
        assert not unmatched


class TestBuild:
    def test_report_contains_sections(self, results_dir):
        text = build_report(results_dir)
        assert "REPRODUCTION REPORT" in text
        assert "T1 CONTENT" in text and "EXTRA" in text
        assert "Missing experiments" in text  # most benches not present

    def test_empty_directory_message(self, tmp_path):
        text = build_report(str(tmp_path))
        assert "No results found" in text

    def test_write_report(self, results_dir, tmp_path):
        output = str(tmp_path / "out.txt")
        text = write_report(results_dir, output=output)
        assert open(output, encoding="utf-8").read().strip() == text.strip()


class TestCommittedReport:
    def test_committed_report_matches_bench_results(self):
        """``reproduction_report.txt`` is what ``python -m repro report
        --output reproduction_report.txt`` renders from the committed
        ``bench_results/``; re-run it after re-recording a bench."""
        root = Path(__file__).resolve().parents[2]
        committed = (root / "reproduction_report.txt").read_text(encoding="utf-8")
        assert committed == build_report(str(root / "bench_results")) + "\n"


class TestCliIntegration:
    def test_report_subcommand(self, results_dir, tmp_path, capsys):
        output = str(tmp_path / "rep.txt")
        code = main(["report", "--results-dir", results_dir, "--output", output])
        assert code == 0
        assert "report written" in capsys.readouterr().out
        assert "T1 CONTENT" in open(output, encoding="utf-8").read()

    def test_report_to_stdout(self, results_dir, capsys):
        main(["report", "--results-dir", results_dir])
        assert "T1 CONTENT" in capsys.readouterr().out
