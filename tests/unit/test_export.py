"""Unit tests for the figure/ratio data exporter and the
record/replay stats export."""

import json

import pytest

from repro.perf.export import (
    export_figure_csv,
    export_figure_json,
    figure_rows,
    load_figure_csv,
)
from repro.perf.load import LoadSample
from repro.perf.sweep import FigureSeries, HeadlineRatios


def _fake_series():
    series = {}
    for stack, loads in (("bare", (0.1, 0.2)), ("lvmm", (0.5, 0.9))):
        figure = FigureSeries(stack)
        for index, load in enumerate(loads):
            rate = (index + 1) * 50e6
            figure.samples.append(LoadSample(
                stack=stack, target_rate_bps=rate,
                achieved_rate_bps=rate * 0.97,
                demanded_load=load, segments_sent=index + 3,
                interrupts=100 * (index + 1)))
        series[stack] = figure
    return series


class TestFigureRows:
    def test_one_row_per_point(self):
        rows = figure_rows(_fake_series())
        assert len(rows) == 4
        assert {row["stack"] for row in rows} == {"bare", "lvmm"}

    def test_row_fields(self):
        row = figure_rows(_fake_series())[0]
        assert row["rate_mbps"] == 50.0
        assert row["cpu_load_pct"] == 10.0
        assert row["sustainable"] is True
        assert "legend" in row


class TestCsvExport:
    def test_round_trip(self, tmp_path):
        path = export_figure_csv(_fake_series(), tmp_path / "fig.csv")
        rows = load_figure_csv(path)
        assert len(rows) == 4
        assert rows[0]["stack"] == "bare"
        assert float(rows[0]["rate_mbps"]) == 50.0

    def test_empty_sweep_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_figure_csv({}, tmp_path / "fig.csv")


class TestJsonExport:
    def test_document_structure(self, tmp_path):
        ratios = HeadlineRatios(bare_max_bps=700e6, lvmm_max_bps=182e6,
                                fullvmm_max_bps=33.7e6)
        path = export_figure_json(_fake_series(), tmp_path / "fig.json",
                                  ratios)
        document = json.loads(path.read_text())
        assert document["experiment"] == "fig-3.1"
        assert len(document["series"]) == 4
        headline = document["headline_ratios"]
        assert headline["lvmm_vs_fullvmm"] == pytest.approx(5.4, rel=0.01)
        assert headline["paper_lvmm_vs_bare"] == 0.26

    def test_without_ratios(self, tmp_path):
        path = export_figure_json(_fake_series(), tmp_path / "fig.json")
        document = json.loads(path.read_text())
        assert "headline_ratios" not in document


class TestReplayStatsExport:
    def test_collects_each_source(self, tmp_path):
        from repro.core.snapshot import CheckpointStore
        from repro.obs.exporters import export_stats_json
        from repro.obs.metrics import collect_replay

        class _FakeSnapshot:
            size_bytes = 123

        store = CheckpointStore(max_snapshots=4)
        store.save("a", _FakeSnapshot())

        class _FakeRecorder:
            def stats(self):
                return {"frames": 9, "journal_bytes": 400}

        stats = collect_replay(recorder=_FakeRecorder(), store=store)
        assert stats["recorder"]["frames"] == 9
        assert stats["checkpoint_store"]["held_bytes"] == 123
        assert "replay" not in stats

        path = export_stats_json(tmp_path / "replay.json",
                                 "record-replay", stats,
                                 extra={"seed": 7})
        document = json.loads(path.read_text())
        assert document["experiment"] == "record-replay"
        assert document["seed"] == 7
        assert document["stats"]["checkpoint_store"]["snapshots"] == 1
