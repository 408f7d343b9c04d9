"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.xmltree.serializer import serialize


@pytest.fixture()
def xml_file(tmp_path, figure1):
    path = tmp_path / "figure1.xml"
    path.write_text(serialize(figure1), encoding="utf-8")
    return str(path)


class TestStats:
    def test_stats_on_file(self, xml_file, capsys):
        assert main(["stats", "--file", xml_file]) == 0
        out = capsys.readouterr().out
        assert "elements" in out and "18" in out

    def test_stats_on_dataset(self, capsys):
        assert main(["stats", "--dataset", "SSPlays", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "distinct tags" in out


class TestEstimate:
    def test_estimate_with_actual(self, xml_file, capsys):
        code = main(["estimate", "--file", xml_file, "//A//$C", "--actual"])
        assert code == 0
        out = capsys.readouterr().out
        assert "estimate: 2.000" in out
        assert "actual:   2" in out

    def test_estimate_with_explain(self, xml_file, capsys):
        main(["estimate", "--file", xml_file, "//C[/$E]/F", "--explain"])
        out = capsys.readouterr().out
        assert "equation-2" in out

    def test_order_query(self, xml_file, capsys):
        main(["estimate", "--file", xml_file, "//A[/C[/F]/folls::$B/D]"])
        assert "estimate: 1.000" in capsys.readouterr().out

    def test_variance_flags(self, xml_file, capsys):
        main(["estimate", "--file", xml_file, "//A/B", "--p-variance", "5"])
        assert "estimate:" in capsys.readouterr().out


class TestWorkload:
    def test_counts_and_show(self, xml_file, capsys):
        main(["workload", "--file", xml_file, "--raw", "40", "--show", "3"])
        out = capsys.readouterr().out
        assert "with order" in out
        assert "simple" in out


class TestPaths:
    def test_path_listing(self, xml_file, capsys):
        main(["paths", "--file", xml_file, "--limit", "0"])
        out = capsys.readouterr().out
        assert "Root/A/B/D" in out
        assert "distinct path ids:           9" in out


class TestSnapshot:
    def test_snapshot_into_directory(self, xml_file, tmp_path, capsys):
        from repro import persist

        out_dir = tmp_path / "snaps"
        out_dir.mkdir()
        assert main(["snapshot", "--file", xml_file, "--output", str(out_dir),
                     "--name", "fig1"]) == 0
        assert "snapshot 'fig1' written" in capsys.readouterr().out
        restored = persist.load(str(out_dir / "fig1.json"))
        assert restored.estimate("//A/B") == 4.0

    def test_snapshot_default_name_from_file_stem(self, xml_file, tmp_path, capsys):
        out_dir = str(tmp_path) + "/deep/"
        assert main(["snapshot", "--file", xml_file, "--output", out_dir]) == 0
        assert (tmp_path / "deep" / "figure1.json").exists()

    def test_snapshot_to_explicit_file(self, tmp_path, capsys):
        from repro import persist

        target = tmp_path / "ss.json"
        assert main(["snapshot", "--dataset", "SSPlays", "--scale", "0.1",
                     "--output", str(target)]) == 0
        assert persist.load(str(target)).estimate("//PLAY") > 0

    def test_snapshot_lenient_recovers_damaged_file(self, tmp_path, capsys):
        from repro import persist
        from repro.errors import ParseError

        damaged = tmp_path / "torn.xml"
        damaged.write_text("<R><A><B>x</B><A><B>y</B></A></R>")  # <A> never closes
        with pytest.raises(ParseError):
            main(["snapshot", "--file", str(damaged), "--output", str(tmp_path) + "/"])
        assert main(["snapshot", "--file", str(damaged), "--lenient",
                     "--output", str(tmp_path) + "/"]) == 0
        assert persist.load(str(tmp_path / "torn.json")).estimate("//A/B") > 0


LIB = "<lib><rec><author/><title/></rec><rec><author/><author/><title/></rec></lib>"
#: One record of a known shape, one carrying a new path type.
FRAGMENT = "<rec><author/><title/></rec><rec><editor/></rec>"


class TestDelta:
    """``repro delta --snapshot-dir``: the offline apply."""

    @pytest.fixture()
    def snaps(self, tmp_path):
        source = tmp_path / "lib.xml"
        source.write_text(LIB, encoding="utf-8")
        (tmp_path / "fragment.xml").write_text(FRAGMENT, encoding="utf-8")
        out_dir = str(tmp_path / "snaps") + "/"
        assert main(["snapshot", "--file", str(source), "--incremental",
                     "--output", out_dir]) == 0
        assert main(["snapshot", "--file", str(source), "--name", "plain",
                     "--output", out_dir]) == 0
        return tmp_path

    def _delta(self, snaps, name, *flags):
        return main(["delta", name, "--fragment", str(snaps / "fragment.xml"),
                     "--snapshot-dir", str(snaps / "snaps"), *flags])

    def test_delta_matches_full_rebuild(self, snaps, capsys):
        from repro import persist
        from repro.build.builder import build_synopsis

        path = str(snaps / "snaps" / "lib.json")
        before = persist.load(path)
        assert before.estimate("//rec/$author") == 3.0
        assert before.estimate("//rec/$editor") == 0.0
        capsys.readouterr()
        assert self._delta(snaps, "lib") == 0
        assert "+5 element(s), 1 new path(s)" in capsys.readouterr().out
        after = persist.load(path)
        rebuilt = build_synopsis(LIB.replace("</lib>", FRAGMENT + "</lib>"))
        merged = persist.system_to_dict(after)
        merged.pop("incremental")
        assert merged == persist.system_to_dict(rebuilt)
        assert after.estimate("//rec/$author") == 4.0
        assert after.estimate("//rec/$editor") == 1.0
        assert after.incremental is not None

    def test_delta_on_plain_snapshot_fails(self, snaps, capsys):
        assert self._delta(snaps, "plain") == 1
        assert "carries no incremental state" in capsys.readouterr().err

    def test_delta_dry_run_leaves_snapshot(self, snaps, capsys):
        path = snaps / "snaps" / "lib.json"
        original = path.read_bytes()
        assert self._delta(snaps, "lib", "--dry-run") == 0
        assert "dry run: +5 element(s), 1 new path(s)" in capsys.readouterr().out
        assert path.read_bytes() == original


class TestServe:
    def test_missing_snapshot_dir_fails_cleanly(self, tmp_path, capsys):
        code = main(["serve", "--snapshot-dir", str(tmp_path / "nope")])
        assert code == 1
        assert "does not exist" in capsys.readouterr().err

    def test_requires_snapshot_dir(self):
        with pytest.raises(SystemExit):
            main(["serve"])

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("flag", ["--plan-cache", "--semcache-ttl"])
    def test_negative_cache_knob_is_an_error(self, tmp_path, capsys, flag, workers):
        code = main(["serve", "--snapshot-dir", str(tmp_path),
                     "--workers", workers, flag, "-1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestTraffic:
    @pytest.fixture()
    def snapshot_dir(self, xml_file, tmp_path):
        out_dir = tmp_path / "snaps"
        assert main(["snapshot", "--file", xml_file, "--output",
                     str(out_dir) + "/", "--name", "fig1"]) == 0
        return str(out_dir)

    def test_missing_snapshot_dir_fails_cleanly(self, tmp_path, capsys):
        code = main(["traffic", "--snapshot-dir", str(tmp_path / "nope")])
        assert code == 1
        assert "does not exist" in capsys.readouterr().err

    def test_save_trace_writes_replayable_jsonl(self, snapshot_dir, tmp_path,
                                                capsys):
        from repro.traffic import load_trace

        trace = str(tmp_path / "trace")
        assert main(["traffic", "--snapshot-dir", snapshot_dir, "--smoke",
                     "--qps", "25", "--save-trace", trace]) == 0
        assert "wrote" in capsys.readouterr().out
        events = load_trace(trace + ".25.jsonl")
        assert events
        assert all(event.at_s < 1.0 for event in events)

    def test_smoke_sweep_prints_curve_and_knee(self, snapshot_dir, capsys):
        assert main(["traffic", "--snapshot-dir", snapshot_dir, "--smoke",
                     "--qps", "20", "--workers", "4"]) == 0
        out = capsys.readouterr().out
        assert "capacity sweep: fig1 (tiered gate" in out
        assert "knee (goodput >= 0.9 x offered)" in out


class TestParser:
    def test_requires_source(self):
        with pytest.raises(SystemExit):
            main(["stats"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_file_and_dataset_exclusive(self, xml_file):
        with pytest.raises(SystemExit):
            main(["stats", "--file", xml_file, "--dataset", "DBLP"])
