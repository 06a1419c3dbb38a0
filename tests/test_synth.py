"""Synthetic corpus and demo workspace generation."""

import pytest

from webaudit.corpus import ingest_corpus, membership_filter, run_batch, trace_slug
from webaudit.config import load_member_regions
from webaudit.errors import NoContentfulPaint
from webaudit.metrics import compute_all, compute_fcp
from webaudit.synth import (
    DEMO_TEST_DATE,
    build_corpus_rows,
    build_demo_trace,
    build_no_paint_trace,
    write_corpus_csv,
    write_demo_workspace,
)
from webaudit.trace import NormalizedTrace


class TestBuildCorpusRows:
    def test_exact_member_count_and_unique_urls(self):
        rows = build_corpus_rows(211, 97)
        members = set(load_member_regions())
        assert len(rows) == 211
        assert sum(1 for r in rows if r[3] in members) == 97
        assert len({r[4] for r in rows}) == 211

    def test_member_rows_are_scattered_not_blocked(self):
        rows = build_corpus_rows(200, 100)
        members = set(load_member_regions())
        flags = [r[3] in members for r in rows]
        # a contiguous block would have exactly one True/False boundary
        boundaries = sum(1 for a, b in zip(flags, flags[1:]) if a != b)
        assert boundaries > 10

    def test_rows_parse_back_through_the_ingester(self, tmp_path):
        path = tmp_path / "corpus.csv"
        write_corpus_csv(build_corpus_rows(60, 25), path)
        records = ingest_corpus(path)
        assert len(records) == 60
        assert len(membership_filter(records, load_member_regions())) == 25

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            build_corpus_rows(10, 11)

    def test_deterministic(self):
        assert build_corpus_rows(100, 40) == build_corpus_rows(100, 40)


class TestDemoTraces:
    def test_every_index_yields_a_valid_trace(self, calibration):
        for index in range(12):
            trace = build_demo_trace(index)
            assert NormalizedTrace.from_dict(trace.to_dict()) == trace
            metrics = compute_all(trace, calibration.quiet_window)
            assert metrics.fcp > 0
            assert metrics.si > 0

    def test_integer_millisecond_times(self):
        trace = build_demo_trace(7)
        times = [p.t_ms for p in trace.paint_events]
        times += [t.start_ms for t in trace.tasks] + [t.dur_ms for t in trace.tasks]
        times += [r.end_ms for r in trace.requests] + [v.t_ms for v in trace.visual_progress]
        assert all(float(t).is_integer() for t in times)

    def test_indices_differ_and_repeat_deterministically(self):
        assert build_demo_trace(3) == build_demo_trace(3)
        assert build_demo_trace(3) != build_demo_trace(4)

    def test_no_paint_trace_never_paints(self):
        trace = build_no_paint_trace()
        with pytest.raises(NoContentfulPaint):
            compute_fcp(trace)
        assert NormalizedTrace.from_dict(trace.to_dict()) == trace


class TestDemoWorkspace:
    def test_layout_and_batch_round_trip(self, tmp_path):
        paths = write_demo_workspace(tmp_path)
        records = membership_filter(ingest_corpus(paths["corpus"]), load_member_regions())
        assert len(records) == 12
        for record in records:
            assert (paths["traces"] / (trace_slug(record.url) + ".json")).exists()
        results = run_batch(records, ("mobile",), "4g", traces_dir=paths["traces"], test_date=DEMO_TEST_DATE)
        assert all(r.status == "ok" for r in results)

    def test_failure_site_included_on_request(self, tmp_path):
        paths = write_demo_workspace(tmp_path, include_failure=True)
        records = ingest_corpus(paths["corpus"])
        assert len(records) == 13
        results = run_batch(records, ("mobile",), "4g", traces_dir=paths["traces"], test_date=DEMO_TEST_DATE)
        failed = [r for r in results if r.status == "failed"]
        assert len(failed) == 1
        assert "NoContentfulPaint" in failed[0].failure_reason

    def test_workspace_is_reproducible(self, tmp_path):
        first = write_demo_workspace(tmp_path / "a")
        second = write_demo_workspace(tmp_path / "b")
        assert first["corpus"].read_bytes() == second["corpus"].read_bytes()
        for trace_file in sorted(p.name for p in first["traces"].iterdir()):
            same = (second["traces"] / trace_file).read_bytes()
            assert (first["traces"] / trace_file).read_bytes() == same
