"""JSONL event segments: framing, fork-safety, folding, profile digests."""

from __future__ import annotations

import json
import os

from obs_helpers import reset_obs_state  # noqa: F401 (autouse fixture)
from repro.obs import events
from repro.obs.registry import N_BUCKETS


def _phase_sample(count: int, total_s: float, bucket: int) -> dict:
    buckets = [0] * N_BUCKETS
    buckets[bucket] = count
    return {"buckets": buckets, "count": count, "max_s": total_s, "total_s": total_s}


class TestEventWriter:
    def test_segment_name_embeds_pid_and_suffix(self, tmp_path):
        with events.EventWriter(str(tmp_path), "worker") as writer:
            assert os.path.basename(writer.path) == (
                f"worker-{os.getpid():07d}-000.jsonl"
            )
        with events.EventWriter(str(tmp_path), "worker") as second:
            assert second.path.endswith("-001.jsonl")

    def test_records_are_canonical_json_lines(self, tmp_path):
        with events.EventWriter(str(tmp_path), "s") as writer:
            writer.emit("point_done", {"point": "p0", "status": "ok"})
            writer.emit("point_done", {"point": "p1", "status": "ok"})
            path = writer.path
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 2
        for seq, line in enumerate(lines):
            record = json.loads(line)
            # Canonical: sorted keys, compact separators, exact round trip.
            assert line == json.dumps(record, sort_keys=True, separators=(",", ":"))
            assert record["kind"] == "point_done"
            assert record["seq"] == seq
            assert record["pid"] == os.getpid()
            assert record["t_s"] >= 0.0

    def test_process_writer_is_cached_per_pid(self, tmp_path):
        first = events.process_writer(str(tmp_path))
        second = events.process_writer(str(tmp_path))
        assert first is second
        events.reset_process_writer()
        third = events.process_writer(str(tmp_path))
        assert third is not first


class TestReaders:
    def test_read_segment_skips_torn_and_foreign_lines(self, tmp_path):
        path = tmp_path / "worker-0000001-000.jsonl"
        good = json.dumps({"kind": "point_done", "seq": 0}, sort_keys=True)
        path.write_text(
            good + "\n" + "not json at all\n" + '{"no_kind": 1}\n' + '{"kind": "worke',
            encoding="utf-8",
        )
        records = events.read_segment(str(path))
        assert records == [{"kind": "point_done", "seq": 0}]

    def test_read_segment_missing_file_is_empty(self, tmp_path):
        assert events.read_segment(str(tmp_path / "absent.jsonl")) == []

    def test_fold_events_missing_dir_is_none(self, tmp_path):
        assert events.fold_events(str(tmp_path / "nowhere")) is None
        assert events.fold_events(str(tmp_path)) is None  # exists but empty

    def test_fold_sums_counters_and_merges_phases(self, tmp_path):
        with events.EventWriter(str(tmp_path), "worker") as worker:
            worker.emit(
                "point_obs",
                {
                    "counters": {"kernel.slow_events": 10, "kernel.stint.enter": 1},
                    "phases": {"eval_mask": _phase_sample(4, 0.004, 6)},
                    "point": "a",
                    "status": "ok",
                },
            )
            worker.emit(
                "point_obs",
                {
                    "counters": {"kernel.slow_events": 5},
                    "phases": {"eval_mask": _phase_sample(2, 0.002, 6)},
                    "point": "b",
                    "status": "ok",
                },
            )
        with events.EventWriter(str(tmp_path), "campaign") as campaign:
            campaign.emit("campaign_obs", {"counters": {"supervisor.spawn": 2}})
            campaign.emit("point_done", {"point": "a", "status": "ok", "cached": False})
            campaign.emit("worker", {"event": "spawn", "worker": 123, "pid": 123})
        fold = events.fold_events(str(tmp_path))
        assert fold is not None
        assert fold["counters"] == {
            "kernel.slow_events": 15,
            "kernel.stint.enter": 1,
            "supervisor.spawn": 2,
        }
        assert fold["n_segments"] == 2
        assert fold["n_events"] == 5
        eval_mask = fold["phases"]["eval_mask"]
        assert eval_mask["count"] == 6
        assert eval_mask["buckets"][6] == 6
        assert [p["point"] for p in fold["points"]] == ["a"]
        assert [w["event"] for w in fold["workers"]] == ["spawn"]


class TestProfileSummary:
    def test_top_phases_ranked_by_total_and_groups_stripped(self, tmp_path):
        fold = {
            "counters": {
                "kernel.bail.hard": 3,
                "kernel.bail.strikes": 7,
                "kernel.slow_events": 100,
            },
            "phases": {
                "cheap": _phase_sample(10, 0.001, 2),
                "dear": _phase_sample(2, 0.5, 20),
            },
        }
        profile = events.profile_summary(fold, top_phases=1)
        assert [row["phase"] for row in profile["top_phases"]] == ["dear"]
        assert profile["top_phases"][0]["calls"] == 2
        assert profile["bail_reasons"] == {"hard": 3, "strikes": 7}

    def test_empty_fold_degrades(self):
        profile = events.profile_summary({})
        assert profile == {"bail_reasons": {}, "top_phases": []}
