"""Run journals: append-only JSONL with tolerant readers."""

import json
import os

import pytest

from repro.obs.journal import (
    RunJournal,
    cell_journal_path,
    journal_dir,
    peak_rss_kb,
    read_journal,
)


class TestRunJournal:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunJournal(path) as journal:
            journal.write("start", name="demo")
            journal.heartbeat(observations=100, elapsed=2.0)
            journal.write("finish")
        events = read_journal(path)
        assert [event["event"] for event in events] == [
            "start",
            "heartbeat",
            "finish",
        ]
        assert all("ts" in event for event in events)
        heartbeat = events[1]
        assert heartbeat["observations"] == 100
        assert heartbeat["rate_per_second"] == 50.0
        assert heartbeat["peak_rss_kb"] >= 0

    def test_append_mode_accumulates_across_opens(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        for attempt in (1, 2):
            with RunJournal(path) as journal:
                journal.write("start", attempt=attempt)
        starts = [
            event for event in read_journal(path)
            if event["event"] == "start"
        ]
        assert [event["attempt"] for event in starts] == [1, 2]

    def test_creates_parent_directory(self, tmp_path):
        path = str(tmp_path / "deep" / "nested" / "run.jsonl")
        with RunJournal(path) as journal:
            journal.write("start")
        assert os.path.exists(path)

    def test_reader_tolerates_truncated_tail(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunJournal(path) as journal:
            journal.write("start")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "heartbeat", "obs')  # killed mid-write
        events = read_journal(path)
        assert [event["event"] for event in events] == ["start"]

    def test_post_crash_append_starts_on_fresh_line(self, tmp_path):
        # A writer killed mid-append leaves a torn partial line; the
        # next writer must not glue its first record onto it, or both
        # the fragment *and* that valid event would be discarded.
        path = str(tmp_path / "run.jsonl")
        with RunJournal(path) as journal:
            journal.write("start")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "heartbeat", "obs')  # killed here
        with RunJournal(path) as journal:
            journal.write("attempt-start", attempt=2)
        events = read_journal(path)
        assert [event["event"] for event in events] == [
            "start",
            "attempt-start",
        ]

    def test_reader_skips_blank_and_non_object_lines(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n[1, 2]\n")
            handle.write(json.dumps({"event": "start", "ts": 1.0}) + "\n")
        assert [event["event"] for event in read_journal(path)] == ["start"]

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_journal(str(tmp_path / "absent.jsonl")) == []

    def test_cell_journal_layout(self):
        assert journal_dir("/cache") == os.path.join("/cache", "journals")
        assert cell_journal_path("/cache", "abcd1234") == os.path.join(
            "/cache", "journals", "abcd1234.jsonl"
        )

    def test_peak_rss_is_positive_here(self):
        assert peak_rss_kb() > 0


class TestTailBytes:
    def write_events(self, path, count):
        with open(path, "w", encoding="utf-8") as handle:
            for index in range(count):
                handle.write(
                    json.dumps({"event": "heartbeat", "ts": float(index)})
                    + "\n"
                )

    def test_small_file_read_in_full(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        self.write_events(path, 5)
        events = read_journal(path, tail_bytes=1 << 20)
        assert len(events) == 5
        assert events[0]["ts"] == 0.0

    def test_large_file_reads_only_the_tail(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        self.write_events(path, 1000)
        full = read_journal(path)
        tail = read_journal(path, tail_bytes=512)
        assert len(tail) < len(full)
        # Tail events are a suffix of the full read, in order.
        assert tail == full[len(full) - len(tail):]
        assert tail[-1]["ts"] == 999.0

    def test_tail_skips_the_partial_first_line(self, tmp_path):
        # Seeking into the middle of a line must not yield a mangled
        # (or coincidentally parseable) half-event.
        path = str(tmp_path / "run.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"event": "start", "ts": 1.0}) + "\n")
            handle.write(json.dumps({"event": "finish", "ts": 2.0}) + "\n")
        size = os.path.getsize(path)
        events = read_journal(path, tail_bytes=size - 3)
        assert [event["event"] for event in events] == ["finish"]

    def test_tail_bytes_must_be_positive(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        self.write_events(path, 1)
        with pytest.raises(ValueError, match="tail_bytes"):
            read_journal(path, tail_bytes=0)
