"""The report CLI: rendering, JSON mode, and exit codes."""

from __future__ import annotations

import json

from obs_helpers import reset_obs_state  # noqa: F401 (autouse fixture)
from repro.obs import events, report
from repro.obs.registry import N_BUCKETS


def _write_stream(directory: str) -> None:
    buckets = [0] * N_BUCKETS
    buckets[7] = 5
    with events.EventWriter(directory, "worker") as worker:
        worker.emit(
            "point_obs",
            {
                "counters": {
                    "kernel.bail.hard": 2,
                    "kernel.bail.strikes": 9,
                    "kernel.hits_batched": 400,
                },
                "phases": {
                    "resolve_slow": {
                        "buckets": buckets,
                        "count": 5,
                        "max_s": 0.01,
                        "total_s": 0.02,
                    }
                },
                "point": "fig/c8/COUP",
                "status": "ok",
            },
        )
    with events.EventWriter(directory, "campaign") as campaign:
        campaign.emit(
            "point_done",
            {"point": "fig/c8/COUP", "status": "ok", "cached": False, "attempts": 1},
        )
        campaign.emit(
            "worker",
            {"event": "dispatch", "worker": 77, "pid": 77, "task": "point:fig/c8"},
        )


class TestRender:
    def test_sections_present(self, tmp_path):
        _write_stream(str(tmp_path))
        fold = events.fold_events(str(tmp_path))
        text = report.render(fold)
        assert "Phase breakdown" in text
        assert "resolve_slow" in text
        assert "Bail-reason Pareto" in text
        bail_section = text.split("Bail-reason Pareto\n")[1].split("\n\n")[0]
        assert bail_section.split() == [
            "strikes", "9", "81.8%", "(cum", "81.8%)",
            "hard", "2", "18.2%", "(cum", "100.0%)",
        ]
        assert "Campaign points: 1 total, 1 ok, 0 cached" in text
        assert "Worker timeline" in text
        assert "dispatch" in text

    def test_pareto_orders_by_frequency(self, tmp_path):
        _write_stream(str(tmp_path))
        fold = events.fold_events(str(tmp_path))
        text = report.render(fold)
        bail_section = text.split("Bail-reason Pareto")[1]
        assert bail_section.index("strikes") < bail_section.index("hard")


class TestMain:
    def test_exit_zero_and_prints(self, tmp_path, capsys):
        _write_stream(str(tmp_path))
        assert report.main(["--obs-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "repro.obs report" in out

    def test_json_mode_round_trips(self, tmp_path, capsys):
        _write_stream(str(tmp_path))
        assert report.main(["--obs-dir", str(tmp_path), "--json"]) == 0
        fold = json.loads(capsys.readouterr().out)
        assert fold["counters"]["kernel.hits_batched"] == 400

    def test_no_segments_exits_one(self, tmp_path, capsys):
        assert report.main(["--obs-dir", str(tmp_path)]) == 1
        assert "no obs event segments" in capsys.readouterr().err
