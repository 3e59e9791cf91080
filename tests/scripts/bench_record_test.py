"""Checks scripts/bench_record.py without building or running a bench.

The release guard must refuse a harness document that was not measured
through a release-built timing path, and each record's table row must
rebuild its committed BENCH_<record>.json (keys, order and summary) from
that file's own raw benchmarks.

Run: python3 tests/scripts/bench_record_test.py
"""

import importlib.util
import json
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parents[2]
spec = importlib.util.spec_from_file_location(
    "bench_record", ROOT / "scripts" / "bench_record.py")
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


class ReleaseGuardTest(unittest.TestCase):
    def test_rejects_debug_context(self):
        text = json.dumps({"context": {"library_build_type": "debug"},
                           "benchmarks": []})
        with self.assertRaises(SystemExit):
            bench_record.load_checked(text, "debug.json")

    def test_rejects_missing_context(self):
        with self.assertRaises(SystemExit):
            bench_record.load_checked('{"benchmarks": []}', "bare.json")

    def test_accepts_release(self):
        doc = bench_record.load_checked(
            '{"context": {"library_build_type": "release"},'
            ' "benchmarks": []}', "release.json")
        self.assertEqual(doc["benchmarks"], [])


class CommittedRecordTest(unittest.TestCase):
    def test_rows_rebuild_committed_records(self):
        for record in ("simd", "list"):
            default_out, runs, summarize = bench_record.RECORDS[record]
            with open(ROOT / default_out) as f:
                committed = json.load(f)
            docs = {}
            for key, _, flag in runs:
                if flag == bench_record.HARNESS_JSON:
                    docs[key] = {"context": committed["context"],
                                 "benchmarks": committed[key]}
                else:
                    docs[key] = committed["summary"][key]
            rebuilt = bench_record.assemble(runs, docs, summarize)
            with self.subTest(record=record):
                self.assertEqual(list(rebuilt), list(committed))
                self.assertEqual(json.dumps(rebuilt["summary"]),
                                 json.dumps(committed["summary"]))


if __name__ == "__main__":
    unittest.main()
