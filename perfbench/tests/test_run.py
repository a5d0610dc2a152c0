"""Tests of perfbench/run.py's pure helpers.

    python3 -m unittest discover -s perfbench/tests
"""

import importlib.util
import unittest
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_run", Path(__file__).resolve().parent.parent / "run.py")
run = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run)

SCRAPE = """\
# HELP csd_serve_batches_total Annotation batches executed
# TYPE csd_serve_batches_total counter
csd_serve_batches_total 1234
csd_serve_rejected_total{class="annotate"} 3
csd_serve_rejected_total{class="query"} 2
# TYPE csd_serve_batch_size histogram
csd_serve_batch_size_bucket{le="1"} 10
csd_serve_batch_size_bucket{le="+Inf"} 40
csd_serve_batch_size_sum 800
csd_serve_batch_size_count 40
csd_net_shed_total 0
"""


class PrometheusTest(unittest.TestCase):
    def test_counters_sum_over_labels_and_skip_buckets(self):
        totals = run.parse_prometheus(SCRAPE)
        self.assertEqual(totals["csd_serve_batches_total"], 1234)
        self.assertEqual(totals["csd_serve_rejected_total"], 5)
        self.assertEqual(totals["csd_net_shed_total"], 0)
        self.assertNotIn("csd_serve_batch_size_bucket", totals)

    def test_histogram_sum_and_count_give_the_mean(self):
        counters = run.server_counters(run.parse_prometheus(SCRAPE))
        self.assertEqual(counters["serve.batches"], 1234)
        self.assertEqual(counters["serve.requests_per_batch"], 20)

    def test_failure_counters(self):
        totals = run.parse_prometheus(SCRAPE)
        failures = run.failure_counters(totals, {"stream.late_dropped": 7})
        self.assertEqual(failures["serve.rejected"], 5)
        self.assertEqual(failures["net.shed"], 0)
        self.assertEqual(failures["net.backpressure_stalls"], 0)
        # No stream counter in the scrape: the in-process value stands.
        self.assertEqual(failures["stream.late_dropped"], 7)

    def test_stream_counter_wins_when_exported(self):
        totals = run.parse_prometheus(
            SCRAPE + "csd_stream_late_fixes_dropped_total 0\n")
        failures = run.failure_counters(totals, {"stream.late_dropped": 7})
        self.assertEqual(failures["stream.late_dropped"], 0)

    def test_malformed_lines_are_ignored(self):
        self.assertEqual(run.parse_prometheus("garbage line here\n\n"), {})


class StreamDrainTest(unittest.TestCase):
    LOAD = {"ingest": {"fixes": 100, "stays_emitted": 7, "stays_flushed": 3}}

    def test_consistent_drain_has_no_failures(self):
        log = "serve: stream drained (100 fixes, 10 stays, 0 late dropped, 0 pending)\n"
        self.assertEqual(run.check_stream_drain(log, self.LOAD), 0)

    def test_late_drops_and_mismatched_totals_count(self):
        log = "serve: stream drained (99 fixes, 10 stays, 2 late dropped, 0 pending)\n"
        self.assertEqual(run.check_stream_drain(log, self.LOAD), 3)
        self.assertEqual(run.check_stream_drain("no drain line", self.LOAD), 1)


if __name__ == "__main__":
    unittest.main()
